//! Slotted in-memory table storage with hash indexes and row-version MVCC.
//!
//! Rows live in a slot vector with a free list, so `RowId`s are stable until
//! the row is physically removed. Every table keeps a unique index on its
//! primary key (if declared) plus any number of secondary indexes; rows whose
//! key columns contain NULL are not indexed (a NULL key can never match an
//! equality probe), and NULL-containing keys are exempt from uniqueness,
//! following SQL semantics.
//!
//! # Indexes
//!
//! A [`HashIndex`] is keyless: it maps the hash of a row's key columns to
//! the ids of the versions carrying that key, and stores neither keys nor
//! rows — the same hash → slot multimap each transaction overlay keeps over
//! its pending rows. Since distinct keys can share a hash, ids leave an
//! index only through [`Table::probe`] / [`Table::probe_row`] (and the
//! uniqueness, backfill and identity checks inside this module), which
//! compare the key columns of the row each id names; no caller can see a
//! colliding key. Within one key, ids come back in the order they were
//! indexed: a removal leaves the others in place.
//!
//! Per indexed row, a key held by one version costs one 32-byte map entry
//! (the `u64` hash and the id, stored inline) plus a control byte, and no
//! heap block. The index this replaced stored a boxed copy of every key
//! (24 bytes per key column, plus a cloned string for text keys) and a heap
//! vector of ids for every key, even a unique key's single id: a 40-byte
//! entry plus two heap blocks, ≈105 bytes for a one-column unique key on
//! glibc before hash-table slack, against ≈33 now. A key shared by several
//! versions moves its ids to one heap vector, as before.
//!
//! # Row versions
//!
//! Every stored row is a *version* stamped with a `(begin, end)` pair of
//! commit timestamps: `begin` is the commit that created it, `end` the commit
//! that deleted it ([`TS_LIVE`] while it is still live). A snapshot taken at
//! commit timestamp `s` observes exactly the versions with
//! `begin <= s && s < end`, so concurrent committers never disturb an open
//! snapshot — readers filter versions instead of taking locks.
//!
//! Two deletion flavours coexist:
//!
//! * [`Table::delete_row`] **physically** removes a version (index entries
//!   dropped, slot freed). This is the right tool for transient storage that
//!   no snapshot ever re-reads — event tables, withdrawing an unpublished
//!   apply, bulk maintenance on an exclusively owned database.
//! * [`Table::delete_row_at`] **stamps** a live version dead at a commit
//!   timestamp. The version (and its index entries) stays behind for older
//!   snapshots until [`Table::gc`] prunes it once no live snapshot can see
//!   it. This is the MVCC commit path.
//!
//! Versions created by [`Table::insert`] carry `begin = 0` — visible to
//! every snapshot — which is what bootstrap loads and raw-engine writes
//! want; MVCC commits use [`Table::insert_row_at`] with their commit
//! timestamp.
//!
//! # Cost model
//!
//! Every operation on the commit path is proportional to the rows it is
//! handed, never to the table: stamped-dead versions are remembered in a
//! per-table dead list, so [`Table::gc`] and the un-stamp compensation walk
//! the garbage instead of the slot vector. An index probe costs the hash of
//! the key plus one key comparison per id under that hash.

use crate::error::{EngineError, Result};
use crate::hash::{hash_values, SlotIndex};
use crate::schema::TableSchema;
use crate::value::{Row, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identifier of a row version within its table.
pub type RowId = u32;

/// Snapshot sentinel meaning "the latest committed state": visibility
/// degenerates to "the version is live" (its `end` stamp is [`TS_LIVE`]).
pub const TS_LATEST: u64 = u64::MAX;

/// The `end` stamp of a version that has not been deleted.
pub const TS_LIVE: u64 = u64::MAX;

/// One stored row version: the row plus its `(begin, end)` visibility
/// window.
#[derive(Debug, Clone)]
struct Version {
    row: Row,
    begin: u64,
    end: u64,
}

impl Version {
    /// Is this version visible to a snapshot taken at commit timestamp `s`?
    fn visible_at(&self, s: u64) -> bool {
        if s == TS_LATEST {
            self.end == TS_LIVE
        } else {
            self.begin <= s && s < self.end
        }
    }

    fn is_live(&self) -> bool {
        self.end == TS_LIVE
    }
}

/// A hash index over a fixed list of columns: the hash of a row's key
/// columns → the ids of the versions carrying that key. It stores no key
/// values, so it is probed through [`Table::probe`] / [`Table::probe_row`],
/// which compare keys (see the [module documentation](self#indexes)).
#[derive(Debug, Clone)]
pub struct HashIndex {
    pub name: String,
    pub columns: Vec<usize>,
    pub unique: bool,
    ids: SlotIndex<RowId>,
}

impl HashIndex {
    fn new(name: String, columns: Vec<usize>, unique: bool) -> Self {
        HashIndex {
            name,
            columns,
            unique,
            ids: SlotIndex::default(),
        }
    }

    /// The hash `row`'s key is filed under; `None` if any key column is
    /// NULL — such rows are not indexed.
    pub(crate) fn key_hash(&self, row: &[Value]) -> Option<u64> {
        self.columns
            .iter()
            .all(|&c| !row[c].is_null())
            .then(|| hash_values(self.columns.iter().map(|&c| &row[c])))
    }

    /// Do `a` and `b` carry the same (non-NULL) key for this index?
    pub(crate) fn same_key(&self, a: &[Value], b: &[Value]) -> bool {
        self.columns
            .iter()
            .all(|&c| !a[c].is_null() && a[c] == b[c])
    }

    /// `row`'s key for this index, formatted for an error message.
    pub(crate) fn format_key(&self, row: &[Value]) -> String {
        let parts: Vec<String> = self.columns.iter().map(|&c| row[c].to_string()).collect();
        format!("({})", parts.join(", "))
    }

    /// The versions in `slots` filed under `hash` whose row satisfies
    /// `is_key` — the one way ids leave the index.
    fn matching<'a>(
        &'a self,
        slots: &'a [Option<Version>],
        hash: u64,
        is_key: impl Fn(&[Value]) -> bool + 'a,
    ) -> impl Iterator<Item = (RowId, &'a Version)> + 'a {
        self.ids
            .get(hash)
            .iter()
            .map(move |&id| {
                let v = slots[id as usize]
                    .as_ref()
                    .expect("indexed ids name occupied slots");
                (id, v)
            })
            .filter(move |(_, v)| is_key(&v.row))
    }

    /// The versions in `slots` carrying `row`'s key; `None` if `row` has
    /// no key (a NULL key column).
    fn matching_row<'a>(
        &'a self,
        slots: &'a [Option<Version>],
        row: &'a [Value],
    ) -> Option<impl Iterator<Item = (RowId, &'a Version)> + 'a> {
        let hash = self.key_hash(row)?;
        Some(self.matching(slots, hash, move |stored| self.same_key(row, stored)))
    }

    /// Index version `id` of `row` (a no-op for a row without a key).
    fn insert(&mut self, row: &[Value], id: RowId) {
        if let Some(h) = self.key_hash(row) {
            self.ids.insert(h, id);
        }
    }

    /// Drop version `id` of `row` from the index.
    fn remove(&mut self, row: &[Value], id: RowId) {
        if let Some(h) = self.key_hash(row) {
            self.ids.remove(h, id);
        }
    }
}

/// Source of [`Lineage`] values, unique across the process.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// A table object's identity in [`Table::content_stamp`]: drawn fresh at
/// creation and at every clone, so no two table objects share one.
#[derive(Debug)]
struct Lineage(u64);

impl Lineage {
    fn fresh() -> Self {
        Lineage(NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Lineage {
    fn clone(&self) -> Self {
        Lineage::fresh()
    }
}

/// An in-memory table of row versions.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    slots: Vec<Option<Version>>,
    free: Vec<RowId>,
    live: usize,
    /// Ids of the versions stamped dead but not yet garbage-collected, in
    /// stamping order — so the versions an in-flight commit stamped are
    /// its tail. [`Table::gc`] and [`Table::unstamp_last`] walk this list,
    /// never the slot vector.
    dead: Vec<RowId>,
    /// Lower bound on the `end` stamps of retained dead versions
    /// ([`TS_LIVE`] when none). Lets [`Table::has_prunable`] answer "would
    /// a GC pass at this horizon free anything?" in O(1) — so a horizon
    /// pinned by a long-lived snapshot doesn't trigger futile passes over
    /// the dead list. May be conservatively low (a physical
    /// [`Table::delete_row`] of the minimal dead version leaves it stale),
    /// which costs at most one empty pass before [`Table::gc`] recomputes
    /// it exactly.
    min_dead_end: u64,
    indexes: Vec<HashIndex>,
    lineage: Lineage,
    /// Changes to the stored versions so far (see [`Table::content_stamp`]).
    writes: u64,
}

impl Table {
    /// Create an empty table, building the PK index and one index per
    /// declared unique set.
    pub fn new(schema: TableSchema) -> Self {
        let mut t = Table {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: Vec::new(),
            min_dead_end: TS_LIVE,
            indexes: Vec::new(),
            lineage: Lineage::fresh(),
            writes: 0,
        };
        if !t.schema.primary_key.is_empty() {
            t.indexes.push(HashIndex::new(
                format!("{}_pkey", t.schema.name),
                t.schema.primary_key.clone(),
                true,
            ));
        }
        for (i, cols) in t.schema.unique.iter().enumerate() {
            // Skip a unique set identical to the PK.
            if *cols == t.schema.primary_key {
                continue;
            }
            t.indexes.push(HashIndex::new(
                format!("{}_uniq{}", t.schema.name, i),
                cols.clone(),
                true,
            ));
        }
        t
    }

    /// Number of live rows (versions visible to the latest snapshot).
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `(live, dead)` version counts: live versions are visible to the
    /// latest snapshot, dead ones are retained only for older snapshots
    /// until [`Table::gc`] prunes them.
    pub fn version_counts(&self) -> (usize, usize) {
        (self.live, self.dead.len())
    }

    /// Names the versions this table stores: two equal stamps mean the same
    /// versions. Every change to them moves the stamp, and no two table
    /// objects (a clone included) ever share one.
    pub(crate) fn content_stamp(&self) -> (u64, u64) {
        (self.lineage.0, self.writes)
    }

    /// Number of rows visible to a snapshot taken at commit timestamp `s`.
    pub fn len_at(&self, s: u64) -> usize {
        if s == TS_LATEST {
            self.live
        } else {
            self.scan_at(s).count()
        }
    }

    /// Validate a row against the schema: arity, coercion to the column
    /// types, NOT NULL.
    pub fn validate(&self, values: Vec<Value>) -> Result<Row> {
        if values.len() != self.schema.arity() {
            return Err(EngineError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        let mut row = values;
        for (v, col) in row.iter_mut().zip(&self.schema.columns) {
            if v.is_null() && col.not_null {
                return Err(self.null_violation(col));
            }
            // Values already of the column's type (the common case) stay
            // where they are; only a cross-type value is rebuilt.
            if v.data_type().is_some_and(|ty| ty != col.ty) {
                *v = v
                    .clone()
                    .coerce_to(col.ty)
                    .ok_or_else(|| self.type_error(v, col))?;
            }
        }
        Ok(row.into_boxed_slice())
    }

    fn null_violation(&self, col: &crate::schema::Column) -> EngineError {
        EngineError::NullViolation {
            table: self.schema.name.clone(),
            column: col.name.clone(),
        }
    }

    fn type_error(&self, v: &Value, col: &crate::schema::Column) -> EngineError {
        EngineError::TypeError(format!(
            "value {v} is not valid for column {}.{} of type {}",
            self.schema.name, col.name, col.ty
        ))
    }

    /// Check that `row` is already in this table's storage form — the
    /// output of [`Table::validate`] against this schema or one with the
    /// same column types — without copying it.
    fn check_stored_form(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(EngineError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        for (v, col) in row.iter().zip(&self.schema.columns) {
            match v.data_type() {
                None if col.not_null => return Err(self.null_violation(col)),
                Some(ty) if ty != col.ty => return Err(self.type_error(v, col)),
                _ => {}
            }
        }
        Ok(())
    }

    /// Insert a (validated or raw) row with `begin = 0` — visible to every
    /// snapshot. Values are validated here; returns the new version's id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId> {
        self.insert_at(values, 0)
    }

    /// Insert a row as a version beginning at commit timestamp `begin`:
    /// snapshots taken before `begin` never see it. Uniqueness is enforced
    /// against *live* versions only — dead versions sharing the key are
    /// history, not conflicts.
    pub fn insert_at(&mut self, values: Vec<Value>, begin: u64) -> Result<RowId> {
        let row = self.validate(values)?;
        self.store(row, begin)
    }

    /// [`Table::insert_at`] for a row that is already in storage form
    /// (validated when its statement was planned, or read back from another
    /// table with the same column types): the row is moved into the table,
    /// not re-coerced or copied. Its form is still verified — rows staged
    /// by hand into an event table never met the base table's `NOT NULL`
    /// constraints.
    pub fn insert_row_at(&mut self, row: Row, begin: u64) -> Result<RowId> {
        self.check_stored_form(&row)?;
        self.store(row, begin)
    }

    /// Store a row known to be in storage form: uniqueness, slot, indexes.
    fn store(&mut self, row: Row, begin: u64) -> Result<RowId> {
        // Uniqueness checks before any mutation.
        for ix in self.indexes.iter().filter(|ix| ix.unique) {
            let conflict = ix
                .matching_row(&self.slots, &row)
                .is_some_and(|mut same| same.any(|(_, v)| v.is_live()));
            if conflict {
                return Err(EngineError::UniqueViolation {
                    table: self.schema.name.clone(),
                    index: ix.name.clone(),
                    key: ix.format_key(&row),
                });
            }
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as RowId
            }
        };
        for ix in &mut self.indexes {
            ix.insert(&row, id);
        }
        self.slots[id as usize] = Some(Version {
            row,
            begin,
            end: TS_LIVE,
        });
        self.live += 1;
        self.writes += 1;
        Ok(id)
    }

    /// Physically remove a version by id, returning its row. Index entries
    /// are dropped and the slot is freed immediately — older snapshots lose
    /// the version too, so this is only safe for storage no snapshot
    /// re-reads (event tables, withdrawing an unpublished apply, exclusively
    /// owned databases). The MVCC commit path uses [`Table::delete_row_at`].
    pub fn delete_row(&mut self, id: RowId) -> Option<Row> {
        let version = self.free_slot(id)?;
        if version.is_live() {
            self.live -= 1;
        } else if let Some(pos) = self.dead.iter().position(|&d| d == id) {
            // Order-preserving, so an in-flight commit's stamps stay the
            // tail of the list.
            self.dead.remove(pos);
        }
        Some(version.row)
    }

    /// Empty slot `id`: drop its index entries and put it on the free list.
    /// The live count and the dead list are the caller's business.
    fn free_slot(&mut self, id: RowId) -> Option<Version> {
        let version = self.slots.get_mut(id as usize)?.take()?;
        for ix in &mut self.indexes {
            ix.remove(&version.row, id);
        }
        self.free.push(id);
        self.writes += 1;
        Some(version)
    }

    /// Stamp a *live* version dead at commit timestamp `end`: snapshots at
    /// or after `end` no longer see it, older snapshots still do. The
    /// version stays in the slot vector and the indexes until [`Table::gc`]
    /// prunes it. Returns whether a version was stamped (`false` if `id` is
    /// absent or already dead).
    pub fn delete_row_at(&mut self, id: RowId, end: u64) -> bool {
        let Some(version) = self.slots.get_mut(id as usize).and_then(Option::as_mut) else {
            return false;
        };
        if !version.is_live() {
            return false;
        }
        version.end = end;
        self.live -= 1;
        self.writes += 1;
        self.dead.push(id);
        self.min_dead_end = self.min_dead_end.min(end);
        true
    }

    /// Reverse the last `n` [`Table::delete_row_at`] stamps: those versions
    /// become live again and leave the dead list. Compensation for a
    /// versioned apply that cannot be published — safe only while the
    /// stamping commit's timestamp is unpublished (no snapshot can
    /// reference it yet), which is also why its stamps are still the tail
    /// of the dead list. O(`n`).
    pub(crate) fn unstamp_last(&mut self, n: usize) {
        for _ in 0..n {
            let Some(id) = self.dead.pop() else { break };
            if let Some(v) = self.slots[id as usize].as_mut() {
                v.end = TS_LIVE;
                self.live += 1;
                self.writes += 1;
            }
        }
        // The bound may now be conservatively low, which is allowed; it is
        // exact again as soon as nothing is left to bound.
        if self.dead.is_empty() {
            self.min_dead_end = TS_LIVE;
        }
    }

    /// Physically remove the versions `ids` (the insertions of a versioned
    /// apply that cannot be published; see [`Table::unstamp_last`]).
    /// Slots are freed in ascending id order so later slot reuse does not
    /// depend on the order the rows were inserted in.
    pub(crate) fn remove_versions(&mut self, mut ids: Vec<RowId>) {
        ids.sort_unstable();
        for id in ids {
            self.delete_row(id);
        }
    }

    /// Access a live row by version id (`None` for dead versions).
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.slots
            .get(id as usize)?
            .as_ref()
            .filter(|v| v.is_live())
            .map(|v| &v.row)
    }

    /// Access the row of version `id` if it is visible to a snapshot taken
    /// at commit timestamp `s` ([`TS_LATEST`] for the live state).
    pub fn get_at(&self, id: RowId, s: u64) -> Option<&Row> {
        self.slots
            .get(id as usize)?
            .as_ref()
            .filter(|v| v.visible_at(s))
            .map(|v| &v.row)
    }

    /// Iterate over live rows.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.scan_at(TS_LATEST)
    }

    /// Iterate over the rows visible to a snapshot taken at commit
    /// timestamp `s` ([`TS_LATEST`] for the live state).
    pub fn scan_at(&self, s: u64) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots.iter().enumerate().filter_map(move |(i, slot)| {
            slot.as_ref()
                .filter(|v| v.visible_at(s))
                .map(|v| (i as RowId, &v.row))
        })
    }

    /// Remove all rows — *including* dead versions retained for older
    /// snapshots, so it is only for tables no snapshot reads: event tables
    /// between commits. (`TRUNCATE TABLE` is a planned `DELETE` that stamps
    /// versions dead; it never calls this.)
    pub fn truncate(&mut self) {
        self.writes += 1;
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.dead.clear();
        self.min_dead_end = TS_LIVE;
        for ix in &mut self.indexes {
            ix.ids.clear();
        }
    }

    /// Move every live row out, in scan order, leaving the table empty
    /// (as after [`Table::truncate`]). How a commit hands its staged
    /// insertion events to the base table without copying them.
    pub fn take_rows(&mut self) -> Vec<Row> {
        // `drain`, not `take`: the slot vector keeps its allocation for the
        // next commit's staging.
        let rows = self
            .slots
            .drain(..)
            .flatten()
            .filter(Version::is_live)
            .map(|v| v.row)
            .collect();
        self.truncate();
        rows
    }

    /// Would [`Table::gc`] at `horizon` free anything? O(1): answered from
    /// the tracked lower bound on dead `end` stamps, so callers can skip
    /// futile passes while a long-lived snapshot pins the horizon below
    /// every retained version.
    pub fn has_prunable(&self, horizon: u64) -> bool {
        !self.dead.is_empty() && self.min_dead_end <= horizon
    }

    /// Garbage-collect versions no snapshot at or after `horizon` can see
    /// (those with `end <= horizon`): index entries are dropped and slots
    /// freed for reuse. `horizon` must be the oldest live snapshot
    /// timestamp (or the current commit timestamp when no snapshot is
    /// open). Returns the number of versions pruned.
    ///
    /// Cost is O(dead versions), independent of the table's size: the pass
    /// walks the dead list, not the slots.
    pub fn gc(&mut self, horizon: u64) -> usize {
        if !self.has_prunable(horizon) {
            return 0;
        }
        let mut pruned: Vec<RowId> = Vec::new();
        let mut min_surviving_dead = TS_LIVE;
        let slots = &self.slots;
        self.dead.retain(|&id| {
            let end = slots[id as usize]
                .as_ref()
                .expect("dead list names occupied slots")
                .end;
            if end <= horizon {
                pruned.push(id);
                false
            } else {
                min_surviving_dead = min_surviving_dead.min(end);
                true
            }
        });
        // The pass visited every dead version — make the bound exact again.
        self.min_dead_end = min_surviving_dead;
        // Free slots in ascending id order: which slot the next insert
        // reuses must not depend on the order versions died in.
        pruned.sort_unstable();
        for &id in &pruned {
            self.free_slot(id);
        }
        pruned.len()
    }

    /// The indexes of this table.
    pub fn indexes(&self) -> &[HashIndex] {
        &self.indexes
    }

    /// Create a secondary index (backfilling existing rows). Unique indexes
    /// fail if existing data violates uniqueness.
    pub fn create_index(&mut self, name: String, columns: Vec<usize>, unique: bool) -> Result<()> {
        for &c in &columns {
            if c >= self.schema.arity() {
                return Err(EngineError::InvalidDdl(format!(
                    "index column {c} out of range for table {}",
                    self.schema.name
                )));
            }
        }
        if self.indexes.iter().any(|ix| ix.name == name) {
            return Err(EngineError::DuplicateObject(name));
        }
        // Backfill every version — dead ones included, so older snapshots
        // keep probing correctly — but uniqueness only conflicts between
        // two *live* versions.
        let mut ix = HashIndex::new(name, columns, unique);
        for (id, version) in self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as RowId, v)))
        {
            if unique
                && version.is_live()
                && ix
                    .matching_row(&self.slots, &version.row)
                    .is_some_and(|mut same| same.any(|(_, v)| v.is_live()))
            {
                return Err(EngineError::UniqueViolation {
                    table: self.schema.name.clone(),
                    key: ix.format_key(&version.row),
                    index: ix.name,
                });
            }
            ix.insert(&version.row, id);
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// Drop a secondary index by name. Unique indexes back constraint
    /// enforcement (primary keys, UNIQUE sets) and cannot be dropped.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let pos = self
            .indexes
            .iter()
            .position(|ix| ix.name == name)
            .ok_or_else(|| EngineError::NoSuchTable(format!("index '{name}'")))?;
        if self.indexes[pos].unique {
            return Err(EngineError::InvalidDdl(format!(
                "index '{name}' enforces a unique constraint and cannot be dropped"
            )));
        }
        // Order-preserving remove: slot 0 is reserved for the PK index
        // (`find_identical` relies on it) and swap_remove would move an
        // arbitrary index there. Note any removal shifts later positions,
        // so compiled plans holding index ids are only protected by the
        // catalog-generation bump in `Database::drop_index`.
        self.indexes.remove(pos);
        Ok(())
    }

    /// True if an index on exactly/subset of `eq_cols` exists; returns the
    /// best (longest-key) index whose columns are all contained in `eq_cols`.
    pub fn best_index(&self, eq_cols: &[usize]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, ix) in self.indexes.iter().enumerate() {
            if ix.columns.iter().all(|c| eq_cols.contains(c)) {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let cur = &self.indexes[b];
                        ix.columns.len() > cur.columns.len()
                            || (ix.columns.len() == cur.columns.len() && ix.unique && !cur.unique)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// Find a live row identical to `row` (NULLs compared as equal here —
    /// this is *identity*, not SQL equality; used by event normalization).
    pub fn find_identical(&self, row: &[Value]) -> Option<RowId> {
        self.find_identical_at(row, TS_LATEST)
    }

    /// [`Table::find_identical`] against the state a snapshot taken at
    /// commit timestamp `s` observes. Allocation-free — also the existence
    /// probe of commit-time conflict detection.
    pub fn find_identical_at(&self, row: &[Value], s: u64) -> Option<RowId> {
        match self.identity_candidates(row) {
            Some(mut same_key) => same_key
                .find(|(_, v)| v.visible_at(s) && v.row.as_ref() == row)
                .map(|(id, _)| id),
            None => self
                .scan_at(s)
                .find(|(_, r)| r.as_ref() == row)
                .map(|(id, _)| id),
        }
    }

    /// Append every live version identical to `row` to `out` (set
    /// semantics: one deletion event removes all identical copies). Used by
    /// the versioned apply.
    pub fn find_identical_all(&self, row: &[Value], out: &mut Vec<RowId>) {
        match self.identity_candidates(row) {
            Some(same_key) => out.extend(
                same_key
                    .filter(|(_, v)| v.is_live() && v.row.as_ref() == row)
                    .map(|(id, _)| id),
            ),
            None => out.extend(
                self.scan()
                    .filter(|(_, r)| r.as_ref() == row)
                    .map(|(id, _)| id),
            ),
        }
    }

    /// The versions that can be identical to `row`: identical rows share
    /// every index key, so any index `row` carries a key for narrows the
    /// search to the versions with that key. `None` (a keyless table, or
    /// NULL in every key) means scan.
    fn identity_candidates<'a>(
        &'a self,
        row: &'a [Value],
    ) -> Option<impl Iterator<Item = (RowId, &'a Version)> + 'a> {
        self.indexes
            .iter()
            .find_map(|ix| ix.matching_row(&self.slots, row))
    }

    /// The versions — live or dead: filter with [`Table::get`] /
    /// [`Table::get_at`] — whose key on index number `ix` equals `key`
    /// (one value per index column, coerced to the column types), in the
    /// order they were indexed. A key containing NULL matches nothing.
    pub fn probe<'a>(&'a self, ix: usize, key: &'a [Value]) -> impl Iterator<Item = RowId> + 'a {
        let index = &self.indexes[ix];
        debug_assert_eq!(key.len(), index.columns.len(), "probe key arity");
        index
            .matching(&self.slots, hash_values(key), move |row| {
                index.columns.iter().zip(key).all(|(&c, k)| row[c] == *k)
            })
            .map(|(id, _)| id)
    }

    /// [`Table::probe`] with the key read from `row`'s key columns in
    /// place; `None` if any of them is NULL — such rows are not indexed.
    pub fn probe_row<'a>(
        &'a self,
        ix: usize,
        row: &'a [Value],
    ) -> Option<impl Iterator<Item = RowId> + 'a> {
        let same_key = self.indexes[ix].matching_row(&self.slots, row)?;
        Some(same_key.map(|(id, _)| id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema2() -> TableSchema {
        let mut s = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "a".into(),
                    ty: DataType::Int,
                    not_null: true,
                },
                Column {
                    name: "b".into(),
                    ty: DataType::Text,
                    not_null: false,
                },
            ],
        );
        s.primary_key = vec![0];
        s
    }

    fn index_no(t: &Table, name: &str) -> usize {
        t.indexes().iter().position(|ix| ix.name == name).unwrap()
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = Table::new(schema2());
        let id = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap()[1], Value::str("x"));
        let row = t.delete_row(id).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(t.len(), 0);
        assert!(t.get(id).is_none());
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut t = Table::new(schema2());
        let id1 = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.delete_row(id1);
        let id2 = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(id1, id2, "slot should be reused");
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = Table::new(schema2());
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let err = t.insert(vec![Value::Int(1), Value::str("y")]).unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation { .. }));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::new(schema2());
        let err = t.insert(vec![Value::Null, Value::Null]).unwrap_err();
        assert!(matches!(err, EngineError::NullViolation { .. }));
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new(schema2());
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
    }

    #[test]
    fn coercion_applied_on_insert() {
        let mut t = Table::new(schema2());
        // Real 2.0 narrows to Int for column a.
        let id = t.insert(vec![Value::real(2.0), Value::Null]).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Int(2));
        // Real 2.5 does not.
        assert!(matches!(
            t.insert(vec![Value::real(2.5), Value::Null]),
            Err(EngineError::TypeError(_))
        ));
    }

    #[test]
    fn pk_index_probe() {
        let mut t = Table::new(schema2());
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::str(format!("r{i}"))])
                .unwrap();
        }
        let ids: Vec<RowId> = t.probe(0, &[Value::Int(42)]).collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(t.get(ids[0]).unwrap()[1], Value::str("r42"));
    }

    #[test]
    fn secondary_index_backfill_and_probe() {
        let mut t = Table::new(schema2());
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::str(if i % 2 == 0 { "e" } else { "o" }),
            ])
            .unwrap();
        }
        t.create_index("t_b".into(), vec![1], false).unwrap();
        assert_eq!(t.probe(index_no(&t, "t_b"), &[Value::str("e")]).count(), 5);
    }

    #[test]
    fn unique_index_creation_fails_on_duplicates() {
        let mut t = Table::new(schema2());
        t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("x")]).unwrap();
        assert!(t.create_index("u".into(), vec![1], true).is_err());
    }

    #[test]
    fn null_keys_not_indexed_and_exempt_from_unique() {
        let mut t = Table::new(schema2());
        t.create_index("u".into(), vec![1], true).unwrap();
        // Two NULLs in a unique column are fine.
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.probe(index_no(&t, "u"), &[Value::Null]).count(), 0);
    }

    #[test]
    fn best_index_prefers_longest() {
        let mut s = schema2();
        s.unique = vec![];
        let mut t = Table::new(s);
        t.create_index("i_b".into(), vec![1], false).unwrap();
        t.create_index("i_ab".into(), vec![0, 1], false).unwrap();
        let best = t.best_index(&[0, 1]).unwrap();
        // PK (a) has 1 column, i_ab has 2 → i_ab wins.
        assert_eq!(t.indexes()[best].name, "i_ab");
        // Only b available → i_b.
        let best = t.best_index(&[1]).unwrap();
        assert_eq!(t.indexes()[best].name, "i_b");
        // Nothing → none.
        assert!(
            t.best_index(&[]).is_none()
                || t.indexes()[t.best_index(&[]).unwrap()].columns.is_empty()
        );
    }

    #[test]
    fn find_identical_uses_pk_and_compares_fully() {
        let mut t = Table::new(schema2());
        let id = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert_eq!(
            t.find_identical(&[Value::Int(1), Value::str("x")]),
            Some(id)
        );
        assert_eq!(t.find_identical(&[Value::Int(1), Value::str("y")]), None);
        assert_eq!(t.find_identical(&[Value::Int(9), Value::str("x")]), None);
    }

    #[test]
    fn stamped_delete_keeps_old_snapshots_intact() {
        let mut t = Table::new(schema2());
        let id = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        // Deleted at commit 5: snapshots 0..5 still see it, 5.. don't.
        assert!(t.delete_row_at(id, 5));
        assert_eq!(t.len(), 0);
        assert_eq!(t.version_counts(), (0, 1));
        assert_eq!(t.get(id), None);
        assert!(t.get_at(id, 4).is_some());
        assert_eq!(t.get_at(id, 5), None);
        assert_eq!(t.scan_at(4).count(), 1);
        assert_eq!(t.scan_at(5).count(), 0);
        // Stamping an already-dead version is a no-op.
        assert!(!t.delete_row_at(id, 9));
    }

    #[test]
    fn insert_at_invisible_to_older_snapshots() {
        let mut t = Table::new(schema2());
        t.insert_at(vec![Value::Int(1), Value::Null], 3).unwrap();
        assert_eq!(t.scan_at(2).count(), 0);
        assert_eq!(t.scan_at(3).count(), 1);
        assert_eq!(t.len(), 1, "latest sees live versions regardless of begin");
    }

    #[test]
    fn unique_ignores_dead_versions_and_gc_prunes_them() {
        let mut t = Table::new(schema2());
        let id = t.insert(vec![Value::Int(1), Value::str("old")]).unwrap();
        t.delete_row_at(id, 2);
        // Same PK as the dead version: allowed (the key is free at latest).
        let id2 = t
            .insert_at(vec![Value::Int(1), Value::str("new")], 2)
            .unwrap();
        assert_ne!(id, id2);
        // Both versions share the PK index bucket until GC.
        assert_eq!(t.probe(0, &[Value::Int(1)]).count(), 2);
        // A snapshot before the swap sees exactly the old row.
        assert_eq!(
            t.find_identical_at(&[Value::Int(1), Value::str("old")], 1),
            Some(id)
        );
        assert_eq!(t.find_identical(&[Value::Int(1), Value::str("old")]), None);
        // GC below the death stamp keeps it; at the stamp it goes.
        assert_eq!(t.gc(1), 0);
        assert_eq!(t.gc(2), 1);
        assert_eq!(t.version_counts(), (1, 0));
        assert_eq!(t.probe(0, &[Value::Int(1)]).count(), 1);
        // The freed slot is reused.
        let id3 = t.insert(vec![Value::Int(9), Value::Null]).unwrap();
        assert_eq!(id3, id);
    }

    #[test]
    fn has_prunable_tracks_the_dead_end_bound() {
        let mut t = Table::new(schema2());
        assert!(!t.has_prunable(u64::MAX - 1));
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.delete_row_at(a, 5);
        t.delete_row_at(b, 3);
        // Horizon below every dead stamp: nothing prunable, gc is O(1).
        assert!(!t.has_prunable(2));
        assert_eq!(t.gc(2), 0);
        // Pruning the older version re-tightens the bound to the survivor.
        assert!(t.has_prunable(3));
        assert_eq!(t.gc(3), 1);
        assert!(!t.has_prunable(4));
        assert!(t.has_prunable(5));
        assert_eq!(t.gc(5), 1);
        assert!(!t.has_prunable(u64::MAX - 1));
    }

    #[test]
    fn unstamp_and_remove_begun_compensate_a_failed_apply() {
        let mut t = Table::new(schema2());
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.delete_row_at(a, 7);
        let b = t.insert_at(vec![Value::Int(2), Value::Null], 7).unwrap();
        t.unstamp_last(1);
        t.remove_versions(vec![b]);
        assert_eq!(t.version_counts(), (1, 0));
        assert!(t.get(a).is_some());
        assert!(!t.has_prunable(u64::MAX - 1));
    }

    #[test]
    fn unstamped_versions_leave_the_dead_list() {
        let mut t = Table::new(schema2());
        let ids: Vec<RowId> = (0..4)
            .map(|i| t.insert(vec![Value::Int(i), Value::Null]).unwrap())
            .collect();
        // An older commit's garbage, then an in-flight commit's stamps.
        t.delete_row_at(ids[0], 3);
        t.delete_row_at(ids[1], 8);
        t.delete_row_at(ids[2], 8);
        assert_eq!(t.dead, [ids[0], ids[1], ids[2]]);
        t.unstamp_last(2);
        assert_eq!(
            t.dead,
            [ids[0]],
            "only the older commit's version stays dead"
        );
        assert_eq!(t.version_counts(), (3, 1));
        assert!(t.get(ids[1]).is_some() && t.get(ids[2]).is_some());
        // A GC pass that would have pruned the withdrawn stamps prunes
        // exactly the one real dead version and leaves the revived alone.
        assert_eq!(t.gc(8), 1);
        assert_eq!(t.version_counts(), (3, 0));
        assert!(t.get(ids[1]).is_some() && t.get(ids[2]).is_some());
    }

    #[test]
    fn slot_reuse_never_resurrects_a_dead_list_entry() {
        let mut t = Table::new(schema2());
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let b = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.delete_row_at(a, 2);
        t.delete_row_at(b, 2);
        // `a` leaves through GC, `b` through a physical delete: neither may
        // stay on the dead list once its slot is free.
        t.delete_row(b);
        assert_eq!(t.dead, [a]);
        assert_eq!(t.gc(2), 1);
        assert!(t.dead.is_empty());
        // Both slots are reused by live rows …
        let c = t.insert(vec![Value::Int(3), Value::Null]).unwrap();
        let d = t.insert(vec![Value::Int(4), Value::Null]).unwrap();
        assert_eq!((c.min(d), c.max(d)), (a, b));
        // … which no later pass may mistake for garbage, however high the
        // horizon.
        assert_eq!(t.gc(u64::MAX - 1), 0);
        assert_eq!(t.version_counts(), (2, 0));
        // And when a reused slot dies again it is listed exactly once.
        t.delete_row_at(c, 9);
        assert_eq!(t.dead, [c]);
        assert_eq!(t.gc(9), 1);
        assert_eq!(t.version_counts(), (1, 0));
    }

    #[test]
    fn gc_frees_slots_in_ascending_order_whatever_the_death_order() {
        let mut t = Table::new(schema2());
        let ids: Vec<RowId> = (0..3)
            .map(|i| t.insert(vec![Value::Int(i), Value::Null]).unwrap())
            .collect();
        t.delete_row_at(ids[2], 1);
        t.delete_row_at(ids[0], 1);
        t.delete_row_at(ids[1], 1);
        assert_eq!(t.gc(1), 3);
        // The free list is a stack: the highest slot comes back first.
        let reused: Vec<RowId> = (10..13)
            .map(|i| t.insert(vec![Value::Int(i), Value::Null]).unwrap())
            .collect();
        assert_eq!(reused, [ids[2], ids[1], ids[0]]);
    }

    /// GC cost follows the garbage, not the table: with 300 dead versions
    /// among 20 000 rows the pass has exactly the 300-entry dead list to
    /// walk (the slot vector is never iterated), frees exactly those
    /// slots, and leaves every other row in place. (The table stays this
    /// small because unit tests squeeze every key into eight hash buckets,
    /// which makes each insert's uniqueness probe O(rows / 8).)
    #[test]
    fn complexity_gc_walks_the_dead_list_not_the_table() {
        const ROWS: i64 = 20_000;
        const DEAD: usize = 300;
        let mut t = Table::new(schema2());
        for i in 0..ROWS {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        let stride = ROWS as usize / DEAD;
        for k in 0..DEAD {
            // Half die at commit 5, half at commit 9.
            let end = if k % 2 == 0 { 5 } else { 9 };
            assert!(t.delete_row_at((k * stride) as RowId, end));
        }
        assert_eq!(t.dead.len(), DEAD, "the work list of a pass is the garbage");
        assert_eq!(t.version_counts(), (ROWS as usize - DEAD, DEAD));
        // A horizon below every stamp is answered without any walk.
        assert!(!t.has_prunable(4));
        assert_eq!(t.gc(4), 0);
        assert_eq!(t.gc(5), DEAD / 2);
        assert_eq!(t.dead.len(), DEAD / 2, "survivors stay listed");
        assert!(!t.has_prunable(8), "the bound is exact after a pass");
        assert_eq!(t.gc(9), DEAD / 2);
        assert!(t.dead.is_empty());
        assert_eq!(t.free.len(), DEAD);
        assert_eq!(t.version_counts(), (ROWS as usize - DEAD, 0));
        assert_eq!(t.scan().count(), ROWS as usize - DEAD);
    }

    #[test]
    fn insert_row_at_moves_stored_form_rows_and_rejects_others() {
        let mut t = Table::new(schema2());
        let row = t.validate(vec![Value::real(7.0), Value::str("x")]).unwrap();
        let id = t.insert_row_at(row, 4).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Int(7));
        // Not in storage form: wrong type, NULL in a NOT NULL column, arity.
        let raw = |vals: Vec<Value>| vals.into_boxed_slice();
        assert!(matches!(
            t.insert_row_at(raw(vec![Value::real(8.0), Value::Null]), 4),
            Err(EngineError::TypeError(_))
        ));
        assert!(matches!(
            t.insert_row_at(raw(vec![Value::Null, Value::Null]), 4),
            Err(EngineError::NullViolation { .. })
        ));
        assert!(matches!(
            t.insert_row_at(raw(vec![Value::Int(8)]), 4),
            Err(EngineError::ArityMismatch { .. })
        ));
        // Uniqueness still applies.
        assert!(matches!(
            t.insert_row_at(raw(vec![Value::Int(7), Value::Null]), 4),
            Err(EngineError::UniqueViolation { .. })
        ));
    }

    #[test]
    fn take_rows_empties_the_table_in_scan_order() {
        let mut t = Table::new(schema2());
        for i in 0..4 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        t.delete_row(1);
        let rows = t.take_rows();
        let keys: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(keys, [&Value::Int(0), &Value::Int(2), &Value::Int(3)]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.probe(0, &[Value::Int(0)]).count(), 0);
        t.insert(vec![Value::Int(0), Value::Null]).unwrap();
    }

    #[test]
    fn identity_lookup_uses_any_index_and_survives_null_keys() {
        // No primary key; a secondary index on `b`.
        let mut s = schema2();
        s.primary_key = vec![];
        let mut t = Table::new(s);
        t.create_index("t_b".into(), vec![1], false).unwrap();
        let x1 = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        let x2 = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        let n = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("x")]).unwrap();
        let mut ids = Vec::new();
        t.find_identical_all(&[Value::Int(1), Value::str("x")], &mut ids);
        ids.sort_unstable();
        assert_eq!(ids, [x1, x2]);
        // NULL key: not indexed, found by scanning.
        assert_eq!(t.find_identical(&[Value::Int(1), Value::Null]), Some(n));
        assert_eq!(t.find_identical(&[Value::Int(3), Value::str("x")]), None);
    }

    #[test]
    fn secondary_index_backfills_dead_versions() {
        let mut t = Table::new(schema2());
        let id = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        t.delete_row_at(id, 3);
        t.insert_at(vec![Value::Int(2), Value::str("x")], 3)
            .unwrap();
        // Non-unique index: both versions indexed so old snapshots probe.
        t.create_index("t_b".into(), vec![1], false).unwrap();
        assert_eq!(t.probe(index_no(&t, "t_b"), &[Value::str("x")]).count(), 2);
        // Unique index over the same column: the dead version does not
        // conflict with the live one.
        t.create_index("t_b_u".into(), vec![1], true).unwrap();
    }

    /// `n` distinct keys whose index hashes all collide with key 0's (unit
    /// tests keep three hash bits, so one key in eight qualifies).
    fn colliding_ints(n: usize) -> Vec<i64> {
        let bucket = |k: i64| hash_values([&Value::Int(k)]);
        let keys: Vec<i64> = (0..).filter(|&k| bucket(k) == bucket(0)).take(n).collect();
        assert!(keys.len() == n && keys[1..].iter().all(|&k| k != 0));
        keys
    }

    #[test]
    fn collision_unique_checks_compare_keys_not_buckets() {
        let keys = colliding_ints(6);
        let mut t = Table::new(schema2());
        for &k in &keys {
            t.insert(vec![Value::Int(k), Value::Null])
                .expect("colliding but distinct keys are not duplicates");
        }
        assert_eq!(t.indexes[0].ids.get(hash_values([&Value::Int(0)])).len(), 6);
        for &k in &keys {
            let err = t
                .insert(vec![Value::Int(k), Value::str("dup")])
                .unwrap_err();
            let EngineError::UniqueViolation { key, .. } = err else {
                panic!("expected a unique violation, got {err:?}");
            };
            assert_eq!(key, format!("({k})"));
        }
        // A dead version of a colliding key frees only its own key.
        let id = t.probe(0, &[Value::Int(keys[2])]).next().unwrap();
        t.delete_row_at(id, 4);
        t.insert_at(vec![Value::Int(keys[2]), Value::Null], 4)
            .unwrap();
        assert!(t.insert(vec![Value::Int(keys[3]), Value::Null]).is_err());
    }

    #[test]
    fn collision_create_index_backfills_colliding_live_and_dead_versions() {
        let keys = colliding_ints(3);
        let mut t = Table::new(schema2());
        let b = |k: i64| Value::str(format!("b{k}"));
        // Text keys whose hashes collide, found the same way.
        let texts: Vec<i64> = (0..)
            .filter(|&k| hash_values([&b(k)]) == hash_values([&b(0)]))
            .take(3)
            .collect();
        for (i, &k) in texts.iter().enumerate() {
            t.insert(vec![Value::Int(keys[i]), b(k)]).unwrap();
        }
        // A dead version and a live one share texts[0]; the others are
        // alone under their keys but share the bucket.
        let old = t.probe(0, &[Value::Int(keys[0])]).next().unwrap();
        t.delete_row_at(old, 5);
        t.insert_at(vec![Value::Int(100), b(texts[0])], 5).unwrap();
        let mut dup = t.clone();
        t.create_index("t_b_u".into(), vec![1], true)
            .expect("one live version per text key");
        let u = index_no(&t, "t_b_u");
        assert_eq!(t.probe(u, &[b(texts[0])]).count(), 2, "dead and live");
        for &k in &texts[1..] {
            let ids: Vec<RowId> = t.probe(u, &[b(k)]).collect();
            assert_eq!(ids.len(), 1);
            assert_eq!(t.get(ids[0]).unwrap()[1], b(k));
        }
        // Two *live* versions of one key still fail the unique backfill,
        // and the message names that key, not a bucket neighbour's.
        dup.insert(vec![Value::Int(101), b(texts[1])]).unwrap();
        let err = dup.create_index("t_b_u".into(), vec![1], true).unwrap_err();
        let EngineError::UniqueViolation { key, .. } = err else {
            panic!("expected a unique violation, got {err:?}");
        };
        assert_eq!(key, format!("({})", b(texts[1])));
    }

    #[test]
    fn collision_find_identical_all_skips_colliding_keys() {
        let keys = colliding_ints(4);
        let mut s = schema2();
        s.primary_key = vec![];
        let mut t = Table::new(s);
        t.create_index("t_a".into(), vec![0], false).unwrap();
        let mut want = Vec::new();
        for &k in &keys {
            for copy in 0..2 {
                let id = t.insert(vec![Value::Int(k), Value::str("x")]).unwrap();
                if k == keys[1] {
                    want.push(id);
                }
                if copy == 0 {
                    t.insert(vec![Value::Int(k), Value::str("y")]).unwrap();
                }
            }
        }
        let mut ids = Vec::new();
        t.find_identical_all(&[Value::Int(keys[1]), Value::str("x")], &mut ids);
        assert_eq!(ids, want, "exactly the identical versions, in index order");
        let stamped = want[0];
        t.delete_row_at(stamped, 3);
        ids.clear();
        t.find_identical_all(&[Value::Int(keys[1]), Value::str("x")], &mut ids);
        assert_eq!(ids, [want[1]], "dead versions are not live matches");
        assert_eq!(
            t.find_identical_at(&[Value::Int(keys[1]), Value::str("x")], 2),
            Some(stamped)
        );
        assert_eq!(t.find_identical(&[Value::Int(1), Value::str("x")]), None);
    }

    #[test]
    fn collision_probe_returns_only_matching_keys() {
        let keys = colliding_ints(5);
        let mut t = Table::new(schema2());
        t.create_index("t_b".into(), vec![1], false).unwrap();
        for &k in &keys {
            t.insert(vec![Value::Int(k), Value::str("s")]).unwrap();
        }
        for &k in &keys {
            let ids: Vec<RowId> = t.probe(0, &[Value::Int(k)]).collect();
            assert_eq!(ids.len(), 1);
            assert_eq!(t.get(ids[0]).unwrap()[0], Value::Int(k));
            let row = [Value::Int(k), Value::Null];
            assert_eq!(t.probe_row(0, &row).unwrap().collect::<Vec<_>>(), ids);
        }
        // An absent key in the shared bucket, and a NULL key, match nothing.
        let absent = colliding_ints(6)[5];
        assert_eq!(t.probe(0, &[Value::Int(absent)]).count(), 0);
        assert_eq!(t.probe(1, &[Value::Null]).count(), 0);
        assert!(t.probe_row(1, &[Value::Int(0), Value::Null]).is_none());
        assert_eq!(t.probe(1, &[Value::str("s")]).count(), 5);
    }

    #[test]
    fn collision_delete_and_gc_remove_one_id_from_a_shared_bucket() {
        let keys = colliding_ints(4);
        let mut t = Table::new(schema2());
        let ids: Vec<RowId> = keys
            .iter()
            .map(|&k| t.insert(vec![Value::Int(k), Value::Null]).unwrap())
            .collect();
        let bucket = |t: &Table| t.indexes[0].ids.get(hash_values([&Value::Int(0)])).to_vec();
        assert_eq!(bucket(&t), ids);
        // A physical delete drops its id and keeps the others in order.
        t.delete_row(ids[1]);
        assert_eq!(bucket(&t), [ids[0], ids[2], ids[3]]);
        assert_eq!(t.probe(0, &[Value::Int(keys[1])]).count(), 0);
        // A stamped delete keeps the id until GC prunes it.
        t.delete_row_at(ids[2], 6);
        assert_eq!(bucket(&t), [ids[0], ids[2], ids[3]]);
        assert_eq!(t.gc(6), 1);
        assert_eq!(bucket(&t), [ids[0], ids[3]]);
        for (i, &k) in keys.iter().enumerate() {
            let expect = usize::from(i == 0 || i == 3);
            assert_eq!(t.probe(0, &[Value::Int(k)]).count(), expect, "key {k}");
        }
        // The freed slots are reused under their new keys.
        let again = t.insert(vec![Value::Int(keys[2]), Value::Null]).unwrap();
        assert_eq!(
            t.probe(0, &[Value::Int(keys[2])]).collect::<Vec<_>>(),
            [again]
        );
    }

    #[test]
    fn truncate_clears_everything() {
        let mut t = Table::new(schema2());
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
        t.truncate();
        assert_eq!(t.len(), 0);
        assert_eq!(t.scan().count(), 0);
        // Indexes emptied: re-insert of an old key is fine.
        t.insert(vec![Value::Int(0), Value::Null]).unwrap();
    }
}
