//! The database: catalog, DDL/DML execution, event capture and the
//! engine-level primitives behind TINTIN's `safeCommit`.
//!
//! # Event capture
//!
//! The paper installs `INSTEAD OF` triggers in SQL Server so that
//! `INSERT`/`DELETE` statements leave the target table unchanged and instead
//! record the tuples in auxiliary `ins_T` / `del_T` tables. Here the same
//! behaviour is provided natively: [`Database::enable_capture`] creates the
//! event tables, and while capture is enabled, DML against the base table is
//! redirected to them.
//!
//! DML has one planner, [`Database::plan_dml`]: every `INSERT`, `DELETE`,
//! `UPDATE` and `TRUNCATE` — from a session transaction, a session
//! autocommit or the single owner's [`Database::execute`] — becomes row
//! changes there, under set semantics (an insertion of a row the statement
//! already observes is a no-op). The single owner's statement on a
//! captured table is planned through the events already staged, as a
//! transaction's statement is planned through its overlay (kept as one
//! between statements, so a batch costs O(batch)), and its effect is
//! staged ([`Database::stage_overlay`]) for `safeCommit`.
//!
//! # Committing
//!
//! There is one commit mechanism: row-version MVCC.
//! [`Database::normalize_events`] makes the staged events consistent with
//! the base tables and returns the [`Touched`] set — the event tables still
//! holding rows, with their counts — that every later step takes:
//! [`Database::apply_pending_versioned`] moves the events into the base
//! tables as versions of the next commit timestamp,
//! [`Database::truncate_events`] resets the event tables and
//! [`Database::publish_commit`] makes the timestamp visible. Until it is
//! published, [`Database::unapply_pending_versioned`] withdraws the apply —
//! which is how a rejected non-incremental recheck backs out. Session
//! commits and the single-owner `safeCommit` run this sequence; an open
//! session transaction lives in its private [`TxOverlay`], not in the
//! database.
//!
//! An update that needs no check skips the event tables:
//! [`Database::apply_overlay_versioned`] writes an overlay straight into
//! the base tables through the same per-table apply. Recovery replays
//! logged commits with it, and the single owner's statement on a table
//! without capture commits with it at once — unchecked: applied at the
//! next commit timestamp and published as a commit is, so the clock ticks
//! once per statement that changes something and older snapshots keep
//! their view. That statement prunes no versions: a `Database` does not
//! know the snapshots a [`SharedDatabase`](crate::SharedDatabase)
//! registered, so its dead versions wait for [`Database::gc_versions`] at
//! a horizon that does ([`SharedDatabase::gc_horizon`](crate::SharedDatabase::gc_horizon)).
//!
//! # Reading
//!
//! Every read takes a [`ReadCtx`]: the snapshot timestamp whose committed
//! versions are visible and the reading transaction's overlay, if any.
//! [`ReadCtx::LATEST`] reads every live version with no overlay.

use crate::error::{EngineError, Result};
use crate::hash::{FxHashMap, FxHashSet, SlotIndex};
use crate::overlay::{DmlDelta, TableDelta, TxOverlay};
use crate::prepared::PreparedQuery;
use crate::query::{self};
use crate::query::{compile_query, CompiledQuery, ExecCtx};
use crate::result::ResultSet;
use crate::schema::TableSchema;
use crate::table::{HashIndex, RowId, Table, TS_LATEST};
use crate::value::{Row, Truth, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use tintin_sql as sql;

/// Global catalog-generation counter. Generations are unique across *all*
/// databases in the process: each catalog change takes a fresh value, so a
/// (database, generation) pair identifies one exact catalog state and a
/// cached plan keyed on the generation can never be replayed against a
/// catalog it was not compiled for — including on clones, which share the
/// generation of the state they were cloned from until their catalogs
/// diverge (any later DDL on either side takes a new unique value).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Name of the insertion-event table for `table`.
pub fn ins_table_name(table: &str) -> String {
    format!("ins_{table}")
}

/// Name of the deletion-event table for `table`.
pub fn del_table_name(table: &str) -> String {
    format!("del_{table}")
}

/// The state a read observes: the committed row versions visible at
/// `snapshot`, composed with the reading transaction's pending updates —
/// `(snapshot − overlay.del) ∪ overlay.ins`.
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx<'a> {
    /// Commit timestamp whose versions are visible ([`TS_LATEST`]: every
    /// live version, including ones stamped with an unpublished timestamp).
    pub snapshot: u64,
    /// The reading transaction's private overlay (read-your-writes).
    pub overlay: Option<&'a TxOverlay>,
}

impl<'a> ReadCtx<'a> {
    /// The live state with no overlay.
    pub const LATEST: ReadCtx<'a> = ReadCtx {
        snapshot: TS_LATEST,
        overlay: None,
    };
}

/// Pending event counts of one captured base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEvents {
    /// The base table.
    pub table: String,
    /// Rows in its `ins_T` event table.
    pub ins: usize,
    /// Rows in its `del_T` event table.
    pub del: usize,
}

/// The captured tables whose event tables hold rows, sorted by table name,
/// with their event counts. [`Database::normalize_events`] computes it once
/// per commit; checking, counting, applying, truncating and garbage
/// collection all take it instead of re-scanning the captured set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touched(Vec<TableEvents>);

impl Touched {
    /// No pending events anywhere?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Pending `(insertions, deletions)` summed over the touched tables.
    pub fn counts(&self) -> (usize, usize) {
        self.iter().fold((0, 0), |(i, d), e| (i + e.ins, d + e.del))
    }

    /// Are there pending insertion (`is_ins`) or deletion events for
    /// `table`?
    pub fn contains(&self, is_ins: bool, table: &str) -> bool {
        self.get(table)
            .is_some_and(|e| if is_ins { e.ins > 0 } else { e.del > 0 })
    }

    /// Does the pending update touch `table` at all (either event kind)?
    pub fn touches(&self, table: &str) -> bool {
        self.get(table).is_some()
    }

    /// The touched tables, sorted by name.
    pub fn iter(&self) -> std::slice::Iter<'_, TableEvents> {
        self.0.iter()
    }

    fn get(&self, table: &str) -> Option<&TableEvents> {
        self.0
            .binary_search_by(|e| e.table.as_str().cmp(table))
            .ok()
            .map(|i| &self.0[i])
    }
}

/// Look up the `prefix` (`"ins_"` / `"del_"`) event table of `base` without
/// allocating: the name is assembled in `buf` and the map is probed by
/// `&str`. The commit path walks every captured table several times per
/// commit; this keeps clean (event-free) tables at zero allocations per
/// visit.
fn event_table<'t>(
    tables: &'t FxHashMap<String, Table>,
    buf: &mut String,
    prefix: &str,
    base: &str,
) -> Option<&'t Table> {
    buf.clear();
    buf.push_str(prefix);
    buf.push_str(base);
    tables.get(buf.as_str())
}

/// A stored view definition.
#[derive(Debug, Clone)]
struct ViewDef {
    query: sql::Query,
    columns: Vec<String>,
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// DDL succeeded.
    Ddl,
    /// DML (or `TRUNCATE`) matched or proposed this many rows — duplicates
    /// that set semantics drop included.
    RowsAffected(usize),
    /// A query returned rows.
    Rows(ResultSet),
}

/// A snapshot of the event-capture state — which tables are captured plus
/// the contents of their event tables — taken by
/// [`Database::snapshot_events`] and reinstated by
/// [`Database::restore_events`] to make dry-run checks side-effect-free.
#[derive(Debug, Clone)]
pub struct EventSnapshot {
    captured: Vec<String>,
    tables: Vec<(String, Table)>,
}

/// Statistics from event normalization (see
/// [`Database::normalize_events`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NormalizationReport {
    /// Duplicate rows dropped from `ins_T` tables.
    pub dup_ins: usize,
    /// Duplicate rows dropped from `del_T` tables.
    pub dup_del: usize,
    /// `del_T` rows that do not exist in the base table.
    pub missing_del: usize,
    /// Identical rows present in both `ins_T` and `del_T`, cancelled.
    pub cancelled: usize,
    /// `ins_T` rows identical to an existing base row (set-semantics no-op).
    pub noop_ins: usize,
}

impl NormalizationReport {
    pub fn total(&self) -> usize {
        self.dup_ins + self.dup_del + self.missing_del + 2 * self.cancelled + self.noop_ins
    }
}

/// What one [`Database::apply_pending_versioned`] did to the base
/// tables: the handle [`Database::unapply_pending_versioned`] needs to
/// withdraw exactly that, without searching the tables for it.
#[derive(Debug, Default)]
pub struct AppliedVersions {
    tables: Vec<AppliedTable>,
}

#[derive(Debug)]
struct AppliedTable {
    table: String,
    /// Versions stamped dead (the last `stamped` entries of the table's
    /// dead list).
    stamped: usize,
    /// Versions created.
    inserted: Vec<RowId>,
}

/// Row-version bookkeeping across a database: live/dead version counts and
/// the cumulative garbage-collection counters (see [`Database::mvcc_stats`]
/// and [`Database::gc_versions`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// The last published commit timestamp.
    pub commit_ts: u64,
    /// Versions visible to the latest snapshot, across all tables.
    pub live_versions: usize,
    /// Versions retained only for older snapshots, across all tables.
    pub dead_versions: usize,
    /// Garbage-collection passes run so far (any table).
    pub gc_runs: u64,
    /// Versions pruned by garbage collection so far.
    pub gc_pruned: u64,
}

impl MvccStats {
    /// Average version-chain length: stored versions per live row (1.0 when
    /// no history is retained). `0.0` for an empty database.
    pub fn chain_length(&self) -> f64 {
        if self.live_versions == 0 {
            0.0
        } else {
            (self.live_versions + self.dead_versions) as f64 / self.live_versions as f64
        }
    }
}

/// An in-memory relational database.
///
/// `Clone` produces an independent deep copy (tables, indexes, views and
/// capture state) — handy for what-if checks, the non-incremental baseline,
/// and benchmarks.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: FxHashMap<String, Table>,
    views: FxHashMap<String, ViewDef>,
    captured: FxHashSet<String>,
    /// Catalog generation: bumped (to a globally unique value) on every
    /// DDL / capture change. Plan caches key on it — see [`PreparedQuery`].
    catalog_generation: u64,
    /// The last *published* commit timestamp. Snapshots capture this value
    /// at `BEGIN`; [`Database::apply_pending_versioned`] stamps new and
    /// deleted versions with `commit_ts + 1`, and
    /// [`Database::publish_commit`] makes that timestamp visible.
    commit_ts: u64,
    /// Cumulative garbage-collection pass count.
    gc_runs: u64,
    /// Cumulative versions pruned by garbage collection.
    gc_pruned: u64,
    /// The single owner's staged events as an overlay, with the event
    /// tables' content stamps it mirrors (see [`Database::staged_overlay`]).
    staged: Option<(TxOverlay, Vec<(u64, u64)>)>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    // ------------------------------------------------------------ catalog

    /// The current catalog generation. It moves (to a globally unique
    /// value) whenever the catalog changes — tables, views or indexes
    /// created or dropped, capture enabled or disabled — and is stable
    /// across pure data changes (DML, event staging, commits). Compiled
    /// plans are valid exactly as long as the generation they were compiled
    /// at matches; [`PreparedQuery`] automates that check.
    pub fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }

    fn bump_generation(&mut self) {
        self.catalog_generation = fresh_generation();
    }

    /// Look up a table (base or event) by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look up a view: its query and output column names.
    pub fn view(&self, name: &str) -> Option<(&sql::Query, &[String])> {
        self.views
            .get(name)
            .map(|v| (&v.query, v.columns.as_slice()))
    }

    /// Names of all tables, sorted (deterministic).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all views, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Base tables with event capture enabled, sorted.
    pub fn captured_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.captured.iter().cloned().collect();
        names.sort();
        names
    }

    /// Is capture enabled for `table`?
    pub fn is_captured(&self, table: &str) -> bool {
        self.captured.contains(table)
    }

    /// Is `name` one of the `ins_X` / `del_X` event tables of a captured
    /// table?
    pub fn is_event_table(&self, name: &str) -> bool {
        for prefix in ["ins_", "del_"] {
            if let Some(base) = name.strip_prefix(prefix) {
                if self.captured.contains(base) {
                    return true;
                }
            }
        }
        false
    }

    /// Register a table from a schema, resolving foreign-key target columns
    /// (defaulting to the referenced table's primary key).
    pub fn create_table(&mut self, mut schema: TableSchema) -> Result<()> {
        let name = schema.name.clone();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(EngineError::DuplicateObject(name));
        }
        let pending = schema.take_fk_ref_column_names();
        for (fk, ref_names) in schema.foreign_keys.iter_mut().zip(pending) {
            let target = if fk.ref_table == name {
                // Self-reference resolves against this very schema.
                None
            } else {
                Some(self.tables.get(&fk.ref_table).ok_or_else(|| {
                    EngineError::InvalidDdl(format!(
                        "foreign key references unknown table '{}'",
                        fk.ref_table
                    ))
                })?)
            };
            let resolve = |n: &str| -> Result<usize> {
                let idx = match &target {
                    Some(t) => t.schema.column_index(n),
                    None => None, // resolved after the borrow below
                };
                idx.ok_or_else(|| {
                    EngineError::InvalidDdl(format!(
                        "foreign key references unknown column '{}.{}'",
                        fk.ref_table, n
                    ))
                })
            };
            fk.ref_columns = if ref_names.is_empty() {
                match &target {
                    Some(t) => {
                        if t.schema.primary_key.is_empty() {
                            return Err(EngineError::InvalidDdl(format!(
                                "foreign key references table '{}' without a primary key",
                                fk.ref_table
                            )));
                        }
                        t.schema.primary_key.clone()
                    }
                    None => Vec::new(), // self-reference: filled below
                }
            } else if target.is_some() {
                ref_names
                    .iter()
                    .map(|n| resolve(n))
                    .collect::<Result<_>>()?
            } else {
                Vec::new()
            };
            if fk.ref_columns.len() != fk.columns.len() && target.is_some() {
                return Err(EngineError::InvalidDdl(format!(
                    "foreign key column count mismatch towards '{}'",
                    fk.ref_table
                )));
            }
        }
        // Self-referencing FKs are resolved now that `schema` is complete.
        for fk in &mut schema.foreign_keys {
            if fk.ref_table == name && fk.ref_columns.is_empty() {
                fk.ref_columns = schema.primary_key.clone();
            }
        }
        let mut table = Table::new(schema);
        // Auto-index FK source columns (as e.g. MySQL does): incremental
        // checking probes child tables by their FK columns constantly.
        let fk_col_sets: Vec<Vec<usize>> = table
            .schema
            .foreign_keys
            .iter()
            .map(|fk| fk.columns.clone())
            .collect();
        for (i, cols) in fk_col_sets.into_iter().enumerate() {
            if table.indexes().iter().any(|ix| ix.columns == cols) {
                continue;
            }
            table.create_index(format!("{}_fk{}", name, i), cols, false)?;
        }
        self.tables.insert(name, table);
        self.bump_generation();
        Ok(())
    }

    /// Create a view after validating that its query compiles.
    pub fn create_view(&mut self, name: &str, query: sql::Query) -> Result<()> {
        if self.tables.contains_key(name) || self.views.contains_key(name) {
            return Err(EngineError::DuplicateObject(name.to_string()));
        }
        let compiled = compile_query(self, &query)?;
        self.views.insert(
            name.to_string(),
            ViewDef {
                query,
                columns: compiled.output_names,
            },
        );
        self.bump_generation();
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.tables.remove(name).is_none() {
            if !if_exists {
                return Err(EngineError::NoSuchTable(name.to_string()));
            }
            return Ok(());
        }
        self.captured.remove(name);
        self.bump_generation();
        Ok(())
    }

    pub fn drop_view(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.views.remove(name).is_none() {
            if !if_exists {
                return Err(EngineError::NoSuchTable(name.to_string()));
            }
            return Ok(());
        }
        self.bump_generation();
        Ok(())
    }

    /// Create a secondary index.
    pub fn create_index(
        &mut self,
        index_name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                t.schema
                    .column_index(c)
                    .ok_or_else(|| EngineError::NoSuchColumn(format!("{table}.{c}")))
            })
            .collect::<Result<_>>()?;
        t.create_index(index_name.to_string(), cols, unique)?;
        self.bump_generation();
        Ok(())
    }

    /// Drop a secondary index (`DROP INDEX name ON table`). Indexes backing
    /// unique constraints cannot be dropped.
    pub fn drop_index(&mut self, index_name: &str, table: &str) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        t.drop_index(index_name)?;
        self.bump_generation();
        Ok(())
    }

    // ------------------------------------------------------ event capture

    /// Create `ins_T` / `del_T` event tables for `table` and start
    /// redirecting DML into them (the INSTEAD OF trigger equivalent).
    ///
    /// Event tables mirror the base columns but carry no constraints; they
    /// get non-unique indexes mirroring the base table's index columns so
    /// correlated probes into events stay O(1).
    pub fn enable_capture(&mut self, table: &str) -> Result<()> {
        let base = self
            .tables
            .get(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        if self.captured.contains(table) {
            return Err(EngineError::DuplicateObject(format!(
                "capture already enabled for '{table}'"
            )));
        }
        let mut index_sets: Vec<Vec<usize>> = Vec::new();
        for ix in base.indexes() {
            if !index_sets.contains(&ix.columns) {
                index_sets.push(ix.columns.clone());
            }
        }
        for fk in &base.schema.foreign_keys {
            if !index_sets.contains(&fk.columns) {
                index_sets.push(fk.columns.clone());
            }
        }
        let mut event_schema = TableSchema::new(
            String::new(),
            base.schema
                .columns
                .iter()
                .map(|c| crate::schema::Column {
                    name: c.name.clone(),
                    ty: c.ty,
                    not_null: false,
                })
                .collect(),
        );
        for evt_name in [ins_table_name(table), del_table_name(table)] {
            if self.tables.contains_key(&evt_name) || self.views.contains_key(&evt_name) {
                return Err(EngineError::DuplicateObject(evt_name));
            }
            event_schema.name = evt_name.clone();
            let mut t = Table::new(event_schema.clone());
            for (i, cols) in index_sets.iter().enumerate() {
                t.create_index(format!("{evt_name}_ix{i}"), cols.clone(), false)?;
            }
            self.tables.insert(evt_name, t);
        }
        self.captured.insert(table.to_string());
        self.bump_generation();
        Ok(())
    }

    /// Stop capturing and drop the event tables.
    pub fn disable_capture(&mut self, table: &str) -> Result<()> {
        if !self.captured.remove(table) {
            return Err(EngineError::NoSuchTable(format!(
                "capture not enabled for '{table}'"
            )));
        }
        self.tables.remove(&ins_table_name(table));
        self.tables.remove(&del_table_name(table));
        self.bump_generation();
        Ok(())
    }

    /// Pending event counts `(inserts, deletes)` summed over all captured
    /// tables, as visible to a snapshot taken at commit timestamp
    /// `snapshot`: event rows staged by an in-flight commit carry its
    /// unpublished timestamp and are counted only at [`TS_LATEST`]. The
    /// commit path counts its own staging with [`Touched::counts`].
    pub fn pending_counts(&self, snapshot: u64) -> (usize, usize) {
        let mut buf = String::new();
        let mut ins = 0;
        let mut del = 0;
        for t in &self.captured {
            ins += event_table(&self.tables, &mut buf, "ins_", t).map_or(0, |x| x.len_at(snapshot));
            del += event_table(&self.tables, &mut buf, "del_", t).map_or(0, |x| x.len_at(snapshot));
        }
        (ins, del)
    }

    /// The captured base tables whose event tables hold pending rows. One
    /// cheap pass — clean tables cost an allocation-free lookup each — so
    /// commit-time consumers (TINTIN's relevance index) stay O(touched)
    /// instead of re-probing event tables per check.
    pub fn touched_event_tables(&self) -> Touched {
        let mut buf = String::new();
        let mut out = Vec::new();
        for base in &self.captured {
            let ins = event_table(&self.tables, &mut buf, "ins_", base).map_or(0, |t| t.len());
            let del = event_table(&self.tables, &mut buf, "del_", base).map_or(0, |t| t.len());
            if ins + del > 0 {
                out.push(TableEvents {
                    table: base.clone(),
                    ins,
                    del,
                });
            }
        }
        out.sort_by(|a, b| a.table.cmp(&b.table));
        Touched(out)
    }

    /// Remove redundant events, making insertion and deletion sets disjoint
    /// and consistent with the base tables — the precondition the EDC
    /// machinery assumes (paper §2 formulas (2)/(3)).
    ///
    /// Also returns the event tables that still hold rows *after*
    /// normalization, with their counts. The commit path scans the captured
    /// set exactly once here and threads the result through checking,
    /// applying and truncating instead of re-scanning per step.
    pub fn normalize_events(&mut self) -> Result<(NormalizationReport, Touched)> {
        let mut report = NormalizationReport::default();
        // Normalization is per-table; tables with no pending events have
        // nothing to normalize and are skipped without allocating.
        let pre = self.touched_event_tables();
        let mut post = Vec::with_capacity(pre.0.len());
        for TableEvents {
            table: base_name, ..
        } in pre.0
        {
            let ins_name = ins_table_name(&base_name);
            let del_name = del_table_name(&base_name);

            // 1. Dedupe within each event table.
            let dups = [
                (&ins_name, &mut report.dup_ins),
                (&del_name, &mut report.dup_del),
            ];
            for (evt, count) in dups {
                let mut seen: FxHashSet<&Row> = FxHashSet::default();
                let ids: Vec<RowId> = (self.tables[evt].scan())
                    .filter(|(_, row)| !seen.insert(row))
                    .map(|(id, _)| id)
                    .collect();
                *count += self.delete_events(evt, &ids);
            }

            // 2. Drop deletions of rows that don't exist in the base table.
            let missing = self.events_in_base(&del_name, &base_name, false);
            report.missing_del += self.delete_events(&del_name, &missing);

            // 3. Cancel identical ins/del pairs (delete-then-reinsert of an
            //    existing row is a net no-op under apply order del→ins).
            let del = &self.tables[&del_name];
            let (ins_ids, del_ids): (Vec<RowId>, Vec<RowId>) = (self.tables[&ins_name].scan())
                .filter_map(|(id, row)| Some((id, del.find_identical(row)?)))
                .unzip();
            report.cancelled += self.delete_events(&ins_name, &ins_ids);
            self.delete_events(&del_name, &del_ids);

            // 4. Drop insertions identical to surviving base rows (no-ops
            //    under set semantics).
            let noops = self.events_in_base(&ins_name, &base_name, true);
            report.noop_ins += self.delete_events(&ins_name, &noops);

            // What survived normalization is what the rest of the commit
            // needs to look at.
            let ins = self.tables[&ins_name].len();
            let del = self.tables[&del_name].len();
            if ins + del > 0 {
                post.push(TableEvents {
                    table: base_name,
                    ins,
                    del,
                });
            }
        }
        Ok((report, Touched(post)))
    }

    /// The rows of event table `evt` that have (`present`) or lack an
    /// identical live row in table `base`.
    fn events_in_base(&self, evt: &str, base: &str, present: bool) -> Vec<RowId> {
        let base = &self.tables[base];
        (self.tables[evt].scan())
            .filter(|(_, row)| base.find_identical(row).is_some() == present)
            .map(|(id, _)| id)
            .collect()
    }

    /// Remove the rows `ids` from event table `evt`; returns how many.
    fn delete_events(&mut self, evt: &str, ids: &[RowId]) -> usize {
        let t = self.tables.get_mut(evt).expect("event table exists");
        for &id in ids {
            t.delete_row(id);
        }
        ids.len()
    }

    /// Empty the `touched` event tables (the last step of `safeCommit`).
    /// Event tables `touched` does not list are left alone (no allocation,
    /// no index clearing); a caller without a list passes
    /// [`Database::touched_event_tables`].
    pub fn truncate_events(&mut self, touched: &Touched) {
        self.staged = None;
        for e in touched.iter() {
            if e.ins > 0 {
                if let Some(t) = self.tables.get_mut(&ins_table_name(&e.table)) {
                    t.truncate();
                }
            }
            if e.del > 0 {
                if let Some(t) = self.tables.get_mut(&del_table_name(&e.table)) {
                    t.truncate();
                }
            }
        }
    }

    /// Snapshot the event-capture state: which tables are captured and the
    /// contents of their event tables (cheap: bounded by the pending-update
    /// size). Bracketing a dry-run check with this and
    /// [`Database::restore_events`] leaves the database's event state
    /// exactly as found — hand-staged events survive, and capture enabled
    /// during the bracketed operation is disabled again.
    pub fn snapshot_events(&self) -> EventSnapshot {
        let captured = self.captured_tables();
        let mut tables = Vec::with_capacity(2 * captured.len());
        for t in &captured {
            for name in [ins_table_name(t), del_table_name(t)] {
                let table = self.tables[&name].clone();
                tables.push((name, table));
            }
        }
        EventSnapshot { captured, tables }
    }

    /// Restore a [`Database::snapshot_events`] snapshot: snapshotted event
    /// tables are replaced wholesale, and capture enabled since the
    /// snapshot (e.g. by a dry-run's staging) is disabled again, dropping
    /// its event tables.
    pub fn restore_events(&mut self, snapshot: EventSnapshot) {
        for t in self.captured_tables() {
            if !snapshot.captured.contains(&t) {
                let _ = self.disable_capture(&t);
            }
        }
        for (name, table) in snapshot.tables {
            self.tables.insert(name, table);
        }
    }

    // -------------------------------------------------------------- mvcc

    /// The last published commit timestamp. A transaction beginning now
    /// snapshots this value; every row version with
    /// `begin <= ts && ts < end` is visible to it.
    pub fn current_ts(&self) -> u64 {
        self.commit_ts
    }

    /// The timestamp the next versioned commit will stamp its row versions
    /// with. Committers are serialized (the session layer's commit lock),
    /// so this is stable between conflict detection and publication.
    pub fn next_commit_ts(&self) -> u64 {
        self.commit_ts + 1
    }

    /// Publish `ts` as the latest commit timestamp: snapshots taken from
    /// now on see the versions a versioned apply stamped with it. Called
    /// under the exclusive write lock after a successful
    /// [`Database::apply_pending_versioned`].
    pub fn publish_commit(&mut self, ts: u64) {
        debug_assert!(ts > self.commit_ts, "commit timestamps are monotonic");
        self.commit_ts = ts;
    }

    /// Set the commit clock directly. Recovery-only: after loading a
    /// checkpoint the clock must resume at the snapshot's timestamp, which
    /// may not be reachable through [`Database::publish_commit`]'s
    /// monotonicity contract (the fresh database starts at 0 but replayed
    /// history may begin anywhere).
    pub fn set_commit_clock(&mut self, ts: u64) {
        self.commit_ts = ts;
    }

    /// The staged, normalized effects of the in-flight commit on each
    /// touched base table, as `(table, inserted rows, deleted rows)` — the
    /// exact `ins_T`/`del_T` contents the incremental check validated.
    /// Read between [`Database::normalize_events`] and
    /// [`Database::apply_pending_versioned`] (which moves the insertion
    /// events into the base tables); this is what the write-ahead log
    /// records, so recovery replays precisely what was checked.
    pub fn staged_effects(&self, touched: &Touched) -> Vec<(String, Vec<Row>, Vec<Row>)> {
        let collect = |n: usize, name: String| -> Vec<Row> {
            match self.tables.get(&name) {
                Some(t) if n > 0 => t.scan().map(|(_, r)| r.clone()).collect(),
                _ => Vec::new(),
            }
        };
        touched
            .iter()
            .map(|e| {
                let ins = collect(e.ins, ins_table_name(&e.table));
                let del = collect(e.del, del_table_name(&e.table));
                (e.table.clone(), ins, del)
            })
            .collect()
    }

    /// First-committer-wins conflict detection for a transaction that
    /// planned `overlay` against the snapshot taken at commit timestamp
    /// `snapshot`: every planned deletion must still target a live version
    /// that existed at the snapshot, and no planned insertion may collide
    /// on a **unique key** with a live version committed *after* the
    /// snapshot. Either collision means a concurrent transaction committed
    /// first; this one loses and reports
    /// [`EngineError::SerializationConflict`]. (A concurrent *identical*
    /// insert on a keyless table is not a conflict: set semantics make the
    /// later copy a no-op, which normalization drops.)
    ///
    /// Runs under the exclusive write lock before
    /// [`Database::stage_overlay`], with committers serialized, so the
    /// verdict cannot be invalidated before the apply.
    pub fn detect_conflicts(&self, overlay: &TxOverlay, snapshot: u64) -> Result<()> {
        let conflict = |table: &str, detail: String| {
            Err(EngineError::SerializationConflict {
                table: table.to_string(),
                detail,
            })
        };
        for table in overlay.touched_tables() {
            if self.is_event_table(&table) {
                // Hand-staged events bypass snapshot planning entirely.
                continue;
            }
            let delta = overlay.delta(&table).expect("touched implies delta");
            let Some(t) = self.tables.get(&table) else {
                return Err(EngineError::NoSuchTable(table.clone()));
            };
            for row in delta.del_rows() {
                // The planned deletion must still have a live identical
                // target — and one that predates the snapshot: an identical
                // row re-inserted by a later committer is not the row this
                // transaction decided to delete.
                if t.find_identical(row).is_none() {
                    return conflict(
                        &table,
                        "a row this transaction deletes was removed or updated \
                         by a concurrent commit"
                            .into(),
                    );
                }
                if t.find_identical_at(row, snapshot).is_none() {
                    return conflict(
                        &table,
                        "a row this transaction deletes was re-created by a \
                         concurrent commit after this transaction began"
                            .into(),
                    );
                }
            }
            for row in delta.ins_rows() {
                for (n, ix) in t.indexes().iter().enumerate().filter(|(_, ix)| ix.unique) {
                    let Some(ids) = t.probe_row(n, row) else {
                        continue;
                    };
                    for id in ids {
                        let Some(base) = t.get(id) else { continue };
                        // Rows this transaction itself deletes free their
                        // keys; identical rows visible at the snapshot were
                        // already planned around (set-semantics no-op).
                        if delta.hides(base) {
                            continue;
                        }
                        if t.get_at(id, snapshot).is_none() {
                            return conflict(
                                &table,
                                format!(
                                    "key {} was inserted by a concurrent commit \
                                     after this transaction began",
                                    ix.format_key(row)
                                ),
                            );
                        }
                        if base.as_ref() != row.as_ref() {
                            // Visible at plan time and not identical: the
                            // statement-time unique check should have caught
                            // this; surface it as the constraint error.
                            return Err(EngineError::UniqueViolation {
                                table: table.clone(),
                                index: ix.name.clone(),
                                key: ix.format_key(row),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Apply all pending events as *versioned* mutations stamped with
    /// commit timestamp `ts`: deletion events stamp every live identical
    /// version dead at `ts` (set semantics), insertion events create
    /// versions beginning at `ts`. Open snapshots (< `ts`) keep reading the
    /// pre-commit state; the new state becomes visible when the caller
    /// publishes `ts` ([`Database::publish_commit`]).
    ///
    /// The events are *moved* into the base tables — afterwards the
    /// touched event tables are empty, and [`Database::truncate_events`]
    /// has nothing left to free. A caller that needs the staged effects
    /// ([`Database::staged_effects`]) reads them first.
    ///
    /// On failure the partial apply is compensated by un-stamping — no undo
    /// log needed, since `ts` is not yet published and thus unobservable.
    /// On success the returned [`AppliedVersions`] lets the caller do the
    /// same ([`Database::unapply_pending_versioned`]) should a step
    /// *between* apply and publish fail.
    pub fn apply_pending_versioned(
        &mut self,
        touched: &Touched,
        ts: u64,
    ) -> Result<AppliedVersions> {
        let mut take = |n: usize, name: String| match self.tables.get_mut(&name) {
            Some(t) if n > 0 => t.take_rows(),
            _ => Vec::new(),
        };
        let events: Vec<_> = touched
            .iter()
            .map(|e| {
                let del = take(e.del, del_table_name(&e.table));
                (e.table.clone(), take(e.ins, ins_table_name(&e.table)), del)
            })
            .collect();
        self.apply_rows(events, ts)
    }

    /// Write `overlay` straight into the base tables as versions of commit
    /// timestamp `ts`, with no event tables in between — the apply step of
    /// a commit whose effects need no check: the single owner's unchecked
    /// DML, and recovery replaying logged (already checked and normalized)
    /// effects. Rows are applied as [`Database::apply_pending_versioned`]
    /// applies events, and a failure withdraws the partial apply the same
    /// way. The caller publishes `ts`. Returns the tables written, with
    /// their insertion and deletion counts ([`Database::maybe_gc`] takes
    /// them).
    pub fn apply_overlay_versioned(&mut self, overlay: TxOverlay, ts: u64) -> Result<Touched> {
        let deltas = overlay.into_deltas();
        let written = deltas
            .iter()
            .map(|(table, d)| TableEvents {
                table: table.clone(),
                ins: d.ins_rows().len(),
                del: d.del_rows().len(),
            })
            .collect();
        let rows = deltas.into_iter().map(|(table, d)| {
            let (ins, del) = d.into_rows();
            (table, ins, del)
        });
        self.apply_rows(rows.collect(), ts)?;
        Ok(Touched(written))
    }

    /// The core of every versioned apply, per `(table, insertions,
    /// deletions)`: every live version identical to a deleted row is
    /// stamped dead at `ts`, then the inserted rows become versions
    /// beginning at `ts` — deletions first, so a key-shifting update frees
    /// its old keys before the new rows claim them. A failure withdraws
    /// what was applied before it.
    fn apply_rows(
        &mut self,
        rows: Vec<(String, Vec<Row>, Vec<Row>)>,
        ts: u64,
    ) -> Result<AppliedVersions> {
        let mut applied = AppliedVersions::default();
        let mut ids: Vec<RowId> = Vec::new();
        for (table, ins, del) in rows {
            let Some(base) = self.tables.get_mut(&table) else {
                self.unapply_pending_versioned(applied);
                return Err(EngineError::NoSuchTable(table));
            };
            ids.clear();
            for row in &del {
                base.find_identical_all(row, &mut ids);
            }
            let stamped = ids.iter().filter(|&&id| base.delete_row_at(id, ts)).count();
            let mut inserted = Vec::with_capacity(ins.len());
            let done = ins
                .into_iter()
                .try_for_each(|row| base.insert_row_at(row, ts).map(|id| inserted.push(id)));
            applied.tables.push(AppliedTable {
                table,
                stamped,
                inserted,
            });
            if let Err(e) = done {
                self.unapply_pending_versioned(applied);
                return Err(e);
            }
        }
        Ok(applied)
    }

    /// Withdraw a [`Database::apply_pending_versioned`]: versions it
    /// stamped dead come back to life, versions it created are removed.
    /// O(update) — it visits exactly the versions the apply touched. Only
    /// valid while the apply's timestamp is unpublished, and before any
    /// other versioned apply.
    pub fn unapply_pending_versioned(&mut self, applied: AppliedVersions) {
        for AppliedTable {
            table,
            stamped,
            inserted,
        } in applied.tables
        {
            if let Some(t) = self.tables.get_mut(&table) {
                t.unstamp_last(stamped);
                t.remove_versions(inserted);
            }
        }
    }

    /// Garbage-collect every table: prune versions no snapshot at or after
    /// `horizon` can see. `horizon` must be the oldest live snapshot
    /// timestamp, or [`Database::current_ts`] when no snapshot is open.
    /// Returns the number of versions pruned.
    pub fn gc_versions(&mut self, horizon: u64) -> usize {
        let mut pruned = 0;
        for t in self.tables.values_mut() {
            pruned += t.gc(horizon);
        }
        self.gc_runs += 1;
        self.gc_pruned += pruned as u64;
        pruned
    }

    /// Commit-piggybacked garbage collection: prune dead versions of the
    /// tables a commit touched, but only once a table has accumulated at
    /// least [`Database::GC_DEAD_THRESHOLD`] of them **and** the horizon
    /// can actually free something ([`Table::has_prunable`]). A pass walks
    /// the table's dead versions, not the table ([`Table::gc`]), so the
    /// threshold batches the work rather than bounding a sweep, and a
    /// horizon pinned by a long-lived snapshot cannot trigger a futile pass
    /// on every commit. Returns versions pruned (0 when nothing
    /// qualified).
    pub fn maybe_gc(&mut self, touched: &Touched, horizon: u64) -> usize {
        let mut pruned = 0;
        let mut ran = false;
        for e in touched.iter() {
            if let Some(t) = self.tables.get_mut(&e.table) {
                if t.version_counts().1 >= Self::GC_DEAD_THRESHOLD && t.has_prunable(horizon) {
                    pruned += t.gc(horizon);
                    ran = true;
                }
            }
        }
        if ran {
            self.gc_runs += 1;
            self.gc_pruned += pruned as u64;
        }
        pruned
    }

    /// Dead versions a table tolerates before commit-piggybacked GC kicks
    /// in (see [`Database::maybe_gc`]).
    pub const GC_DEAD_THRESHOLD: usize = 256;

    /// Aggregate row-version statistics: live/dead counts across all
    /// tables plus the cumulative GC counters.
    pub fn mvcc_stats(&self) -> MvccStats {
        let mut stats = MvccStats {
            commit_ts: self.commit_ts,
            gc_runs: self.gc_runs,
            gc_pruned: self.gc_pruned,
            ..MvccStats::default()
        };
        for t in self.tables.values() {
            let (live, dead) = t.version_counts();
            stats.live_versions += live;
            stats.dead_versions += dead;
        }
        stats
    }

    // ----------------------------------------------------------- queries

    /// Compile and run a query against the state `read` observes.
    pub fn query(&self, q: &sql::Query, read: ReadCtx<'_>) -> Result<ResultSet> {
        let compiled = compile_query(self, q)?;
        self.execute_plan(&compiled, read)
    }

    /// Prepare a query: compile it against the current catalog and wrap it
    /// with a generation-keyed plan cache. The prepared query re-executes
    /// without recompilation until the catalog changes (DDL, capture),
    /// after which [`PreparedQuery::resolve`] recompiles transparently.
    pub fn prepare(&self, q: &sql::Query) -> Result<PreparedQuery> {
        let prepared = PreparedQuery::new(q.clone());
        // Eager compilation validates the query now (matching `query`'s
        // error timing) and warms the cache.
        prepared.resolve(self)?;
        Ok(prepared)
    }

    /// Run an already-compiled plan against the state `read` observes. The
    /// caller is responsible for the plan being compiled against this
    /// database's current catalog generation — [`PreparedQuery::resolve`]
    /// guarantees that, so a prepared query runs as
    /// `db.execute_plan(&p.resolve(&db)?.plan, read)`.
    pub fn execute_plan(&self, plan: &CompiledQuery, read: ReadCtx<'_>) -> Result<ResultSet> {
        let rows = query::execute(plan, &mut ExecCtx::new(self, read))?;
        Ok(ResultSet {
            columns: plan.output_names.clone(),
            rows,
        })
    }

    /// Does the plan return at least one row? Short-circuits on the first
    /// hit — the fast path for emptiness checks, which never allocates a
    /// result set.
    pub fn plan_returns_rows(&self, plan: &CompiledQuery, read: ReadCtx<'_>) -> Result<bool> {
        query::query_returns_rows(plan, &mut ExecCtx::new(self, read))
    }

    /// Parse and run a single query string against the live state
    /// ([`ReadCtx::LATEST`]).
    pub fn query_sql(&self, sql_text: &str) -> Result<ResultSet> {
        let q = sql::parse_query(sql_text)?;
        self.query(&q, ReadCtx::LATEST)
    }

    /// Compile a query without running it (validation).
    pub fn compile(&self, q: &sql::Query) -> Result<CompiledQuery> {
        compile_query(self, q)
    }

    /// Render the access-path plan of a query (`EXPLAIN`).
    pub fn explain(&self, q: &sql::Query) -> Result<String> {
        let compiled = compile_query(self, q)?;
        Ok(query::explain(self, &compiled))
    }

    // --------------------------------------------------------- statements

    /// Parse and execute a script of semicolon-separated statements.
    pub fn execute_sql(&mut self, script: &str) -> Result<Vec<StatementResult>> {
        let stmts = sql::parse_statements(script)?;
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Execute a single parsed statement. DML is planned with
    /// [`Database::plan_dml`] at the published clock and then staged (a
    /// captured table) or committed unchecked at once (any other table);
    /// see the [module documentation](self).
    pub fn execute(&mut self, stmt: &sql::Statement) -> Result<StatementResult> {
        let ddl = |done: Result<()>| done.map(|()| StatementResult::Ddl);
        match stmt {
            sql::Statement::CreateTable(ct) => ddl(self.create_table(TableSchema::from_ast(ct)?)),
            sql::Statement::CreateView(cv) => ddl(self.create_view(&cv.name, cv.query.clone())),
            sql::Statement::CreateIndex(ci) => {
                ddl(self.create_index(&ci.name, &ci.table, &ci.columns, ci.unique))
            }
            sql::Statement::CreateAssertion(_)
            | sql::Statement::DropAssertion { .. }
            | sql::Statement::ExplainAssertion { .. } => Err(EngineError::Unsupported(
                "assertions are managed by the tintin crate (Tintin::install), \
                 not by the raw engine"
                    .into(),
            )),
            sql::Statement::DropTable { name, if_exists } => ddl(self.drop_table(name, *if_exists)),
            sql::Statement::DropView { name, if_exists } => ddl(self.drop_view(name, *if_exists)),
            sql::Statement::DropIndex { name, table } => ddl(self.drop_index(name, table)),
            sql::Statement::Insert(sql::Insert { table, .. })
            | sql::Statement::Delete(sql::Delete { table, .. })
            | sql::Statement::Update(sql::Update { table, .. })
            | sql::Statement::TruncateTable { name: table } => {
                let n = self.write_planned(table, |db, overlay, snapshot| {
                    db.plan_dml(stmt, overlay, snapshot)
                })?;
                Ok(StatementResult::RowsAffected(n))
            }
            sql::Statement::Query(q) => Ok(StatementResult::Rows(self.query(q, ReadCtx::LATEST)?)),
            sql::Statement::Begin
            | sql::Statement::Commit
            | sql::Statement::Rollback { .. }
            | sql::Statement::Savepoint { .. }
            | sql::Statement::Release { .. } => Err(EngineError::Unsupported(
                "transaction control is managed by the tintin-session crate \
                 (Session::execute), not by the raw engine"
                    .into(),
            )),
        }
    }

    /// Compute the fully-positional, schema-validated, constraint-checked
    /// rows an `INSERT` statement proposes, without applying them.
    /// `INSERT … SELECT` sources and `CHECK` subqueries observe the state
    /// `read` describes.
    fn insert_source_rows(&self, ins: &sql::Insert, read: ReadCtx<'_>) -> Result<Vec<Row>> {
        let target = self
            .tables
            .get(&ins.table)
            .ok_or_else(|| EngineError::NoSuchTable(ins.table.clone()))?;
        let arity = target.schema.arity();
        // Map the optional column list to positions.
        let positions: Option<Vec<usize>> = match &ins.columns {
            None => None,
            Some(cols) => Some(
                cols.iter()
                    .map(|c| {
                        target.schema.column_index(c).ok_or_else(|| {
                            EngineError::NoSuchColumn(format!("{}.{}", ins.table, c))
                        })
                    })
                    .collect::<Result<_>>()?,
            ),
        };
        let raw_rows: Vec<Vec<Value>> = match &ins.source {
            sql::InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    // Exact capacity: the row is boxed as it is and stored.
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(query::eval_const(self, e)?);
                    }
                    out.push(vals);
                }
                out
            }
            sql::InsertSource::Query(q) => self
                .query(q, read)?
                .rows
                .into_iter()
                .map(|r| r.into_vec())
                .collect(),
        };
        let mut full_rows = Vec::with_capacity(raw_rows.len());
        for vals in raw_rows {
            let row = match &positions {
                None => vals,
                Some(pos) => {
                    if vals.len() != pos.len() {
                        return Err(EngineError::ArityMismatch {
                            table: ins.table.clone(),
                            expected: pos.len(),
                            got: vals.len(),
                        });
                    }
                    let mut row = vec![Value::Null; arity];
                    for (p, v) in pos.iter().zip(vals) {
                        row[*p] = v;
                    }
                    row
                }
            };
            full_rows.push(row);
        }
        self.validated_rows(&ins.table, full_rows, read)
    }

    /// Validate fully-positional rows for `table` (arity, types, `NOT
    /// NULL`, `CHECK`) against the *base* schema, so errors surface at
    /// statement time even when capture is on.
    fn validated_rows(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
        read: ReadCtx<'_>,
    ) -> Result<Vec<Row>> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|r| t.validate(r))
            .collect::<Result<_>>()?;
        self.check_row_constraints(table, &rows, read)?;
        Ok(rows)
    }

    /// Insert fully-positional rows as the single owner — the programmatic
    /// `INSERT … VALUES`: planned (set semantics, unique check) and then
    /// staged or committed exactly like the statement.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        self.write_planned(table, |db, overlay, snapshot| {
            let read = ReadCtx {
                snapshot,
                overlay: Some(overlay),
            };
            let ins = db.validated_rows(table, rows, read)?;
            let delta = DmlDelta {
                table: table.to_string(),
                rows_affected: ins.len(),
                ins,
                ..DmlDelta::default()
            };
            db.plan_tail(delta, read)
        })
    }

    /// Insert rows directly into the base table, bypassing capture (bulk
    /// loader path).
    pub fn insert_direct(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let n = rows.len();
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }

    /// One write of the single owner to `table`: `plan` computes its effect
    /// at the published clock (a [`Database::plan_dml`] call), and the
    /// effect then goes where the target sends it. A captured table's
    /// effect is staged into its event tables for `safeCommit`, and the
    /// statement is planned through the events already staged there, so a
    /// batch of statements reads its own writes as a session transaction
    /// does. A hand-staged write to an event table lands in that table.
    /// Any other table commits at once, unchecked: the effect is applied
    /// at the next commit timestamp ([`Database::apply_overlay_versioned`])
    /// and published; an empty one leaves the clock alone. Nothing is
    /// garbage-collected here: a `Database` cannot see the snapshots a
    /// [`SharedDatabase`](crate::SharedDatabase) registered, so the dead
    /// versions wait for [`Database::gc_versions`] at a horizon that can.
    /// Returns the rows affected.
    fn write_planned(
        &mut self,
        table: &str,
        plan: impl FnOnce(&Self, &TxOverlay, u64) -> Result<DmlDelta>,
    ) -> Result<usize> {
        let captured = self.is_captured(table);
        let mut pending = if captured {
            self.staged_overlay()
        } else {
            TxOverlay::new()
        };
        let delta = plan(self, &pending, self.current_ts())?;
        let n = delta.rows_affected;
        if !delta.retract_ins.is_empty() {
            // Deleting or updating a staged insertion un-stages it.
            let ins_t = (self.tables.get_mut(&ins_table_name(table)))
                .expect("only a captured table has staged insertions");
            for row in &delta.retract_ins {
                if let Some(id) = ins_t.find_identical(row) {
                    ins_t.delete_row(id);
                }
            }
        }
        let mut overlay = TxOverlay::new();
        if captured {
            pending.apply_delta(delta.clone());
        }
        overlay.apply_delta(delta);
        if captured || self.is_event_table(table) {
            self.stage_overlay(overlay, 0)?;
            if captured {
                self.staged = Some((pending, self.event_stamps()));
            }
        } else if !overlay.is_empty() {
            // Nothing to check: commit at once, as `safeCommit` would.
            let ts = self.next_commit_ts();
            self.apply_overlay_versioned(overlay, ts)?;
            self.publish_commit(ts);
        }
        Ok(n)
    }

    /// The events staged in the event tables, as the overlay of a
    /// transaction that proposed them. A single-owner write folds its
    /// effect into this overlay as it stages it and keeps the overlay,
    /// which is reused while every event table still holds what it held
    /// then, so a batch of statements costs O(batch), not O(batch²);
    /// anything else that writes an event table makes the next write
    /// rebuild it.
    fn staged_overlay(&mut self) -> TxOverlay {
        match self.staged.take() {
            Some((overlay, seen)) if seen == self.event_stamps() => return overlay,
            _ => {}
        }
        let mut overlay = TxOverlay::new();
        for e in self.touched_event_tables().iter() {
            let d = overlay.delta_mut(&e.table);
            let base = &self.tables[&e.table];
            d.index_keys(base.indexes().iter().map(|ix| ix.columns.clone()).collect());
            for (_, row) in self.tables[&ins_table_name(&e.table)].scan() {
                d.push_ins(row.clone());
            }
            for (_, row) in self.tables[&del_table_name(&e.table)].scan() {
                d.push_del(row.clone());
            }
        }
        overlay
    }

    /// The content stamps of every event table.
    fn event_stamps(&self) -> Vec<(u64, u64)> {
        let mut buf = String::new();
        let mut stamp = |prefix: &str, base: &str| {
            event_table(&self.tables, &mut buf, prefix, base).map(Table::content_stamp)
        };
        (self.captured.iter())
            .flat_map(|t| [stamp("ins_", t), stamp("del_", t)])
            .flatten()
            .collect()
    }

    // ----------------------------------------------- transaction planning

    /// Plan the effect of one DML statement against the state a transaction
    /// observes — the row versions visible at commit timestamp `snapshot`
    /// composed with its private [`TxOverlay`] — without mutating anything.
    /// The caller folds the returned [`DmlDelta`] into its overlay
    /// ([`TxOverlay::apply_delta`]); at `COMMIT` the accumulated overlay is
    /// published with [`Database::stage_overlay`] and run through
    /// `safeCommit`.
    ///
    /// Because matching happens on the overlaid state, a transaction's DML
    /// reads its own writes: a `DELETE` can remove a row the same
    /// transaction inserted (the pending insertion is retracted), and an
    /// `UPDATE` can modify it (retract + re-insert). Rows committed after
    /// `snapshot` are never matched; they surface at `COMMIT` as
    /// serialization conflicts instead (see [`Database::detect_conflicts`]).
    pub fn plan_dml(
        &self,
        stmt: &sql::Statement,
        overlay: &TxOverlay,
        snapshot: u64,
    ) -> Result<DmlDelta> {
        let read = ReadCtx {
            snapshot,
            overlay: Some(overlay),
        };
        let delta = match stmt {
            sql::Statement::Insert(ins) => {
                let rows = self.insert_source_rows(ins, read)?;
                DmlDelta {
                    table: ins.table.clone(),
                    rows_affected: rows.len(),
                    ins: rows,
                    ..DmlDelta::default()
                }
            }
            sql::Statement::Delete(del) => {
                self.plan_delete(&del.table, del.alias.as_ref(), del.predicate.as_ref(), read)?
            }
            sql::Statement::TruncateTable { name } => self.plan_delete(name, None, None, read)?,
            sql::Statement::Update(upd) => self.plan_update(upd, read)?,
            other => {
                return Err(EngineError::Unsupported(format!(
                    "plan_dml expects INSERT / DELETE / UPDATE / TRUNCATE, got: {other}"
                )))
            }
        };
        self.plan_tail(delta, read)
    }

    /// The tail every planned write goes through: set semantics (planned
    /// insertions the transaction already observes are dropped) and the
    /// statement-time unique check.
    fn plan_tail(&self, mut delta: DmlDelta, read: ReadCtx<'_>) -> Result<DmlDelta> {
        let Some(t) = self.tables.get(&delta.table) else {
            // A vanished table surfaces at stage time.
            return Ok(delta);
        };
        delta.index_columns = t.indexes().iter().map(|ix| ix.columns.clone()).collect();
        // The state this statement's new rows must fit into: the snapshot
        // composed with the overlay as this statement leaves it. It is
        // consulted through the overlay's indexes plus the statement's own
        // (small) effect — never built.
        let view = StatementView {
            table: t,
            snapshot: read.snapshot,
            overlay: read.overlay.and_then(|o| o.delta(&delta.table)),
            retracted: count_rows(&delta.retract_ins),
            deleted: delta.del.iter().map(|r| r.as_ref()).collect(),
        };
        let mut keep = view.non_noop_inserts(&delta.ins).into_iter();
        delta.ins.retain(|_| keep.next().expect("one flag per row"));
        // Validate uniqueness of the would-be pending state now, at
        // statement time, so a key conflict reads like any other constraint
        // error instead of surfacing as an opaque engine failure at COMMIT —
        // and so the transaction never *observes* duplicate-key state. Only
        // this statement's new rows need checking: earlier pending rows
        // were validated by the statements that proposed them.
        view.check_unique(&delta.ins)?;
        Ok(delta)
    }

    /// Rows of `table` matching `pred` (every row without one) in the state
    /// `read` observes: surviving base rows (hidden-by-deletion rows
    /// excluded) and matching pending insertions, separately — the caller
    /// needs the provenance to decide between a deletion event and a
    /// retraction. A keyed predicate probes both sides (the base table's
    /// index and the overlay's mirror of it), so the cost follows the rows
    /// matched, not the rows pending.
    fn visible_matches(
        &self,
        table: &str,
        alias: Option<&String>,
        pred: Option<&sql::Expr>,
        read: ReadCtx<'_>,
    ) -> Result<(Vec<Row>, Vec<Row>)> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| EngineError::NoSuchTable(table.to_string()))?;
        let snapshot = read.snapshot;
        let delta = read.overlay.and_then(|o| o.delta(table));
        let hidden = |row: &[Value]| delta.is_some_and(|d| d.hides(row));
        let binding = alias.map_or(table, String::as_str);
        let (compiled, probe) = match pred {
            Some(pred) => (
                Some(query::compile_row_predicate(self, table, binding, pred)?),
                key_probe(t, binding, pred, self)?,
            ),
            None => (None, KeyProbe::Scan),
        };
        let mut ctx = ExecCtx::new(self, read);
        let mut matching =
            |row, out: &mut Vec<Row>| push_if_true(compiled.as_ref(), row, &mut ctx, out);
        let mut base = Vec::new();
        let mut pending = Vec::new();
        match probe {
            KeyProbe::Nothing => {}
            KeyProbe::Scan => {
                for (_, row) in t.scan_at(snapshot).filter(|(_, row)| !hidden(row)) {
                    matching(row, &mut base)?;
                }
                for row in delta.into_iter().flat_map(|d| d.ins_rows()) {
                    matching(row, &mut pending)?;
                }
            }
            KeyProbe::Index(ix, key) => {
                for id in t.probe(ix, &key) {
                    if let Some(row) = t.get_at(id, snapshot).filter(|row| !hidden(row)) {
                        matching(row, &mut base)?;
                    }
                }
                if let Some(d) = delta {
                    for row in d.pending_matching(&t.indexes()[ix].columns, key.iter()) {
                        matching(row, &mut pending)?;
                    }
                }
            }
        }
        Ok((base, pending))
    }

    /// `DELETE FROM table [alias] [WHERE pred]`; `TRUNCATE` is the form
    /// without a predicate.
    fn plan_delete(
        &self,
        table: &str,
        alias: Option<&String>,
        pred: Option<&sql::Expr>,
        read: ReadCtx<'_>,
    ) -> Result<DmlDelta> {
        let (base, pending) = self.visible_matches(table, alias, pred, read)?;
        // One deletion event removes one identical base row at apply time,
        // so extra identical matches collapse — exactly how event capture
        // deduplicates `del_T` rows.
        Ok(DmlDelta {
            table: table.to_string(),
            rows_affected: base.len() + pending.len(),
            del: dedup_rows(base),
            retract_ins: pending,
            ..DmlDelta::default()
        })
    }

    /// `UPDATE` decomposes into del(old) + ins(new) pairs over the visible
    /// state — TINTIN's update model, applied to the overlay instead of the
    /// event tables. Updating a row this transaction itself inserted
    /// retracts the pending insertion and proposes the modified row.
    fn plan_update(&self, upd: &sql::Update, read: ReadCtx<'_>) -> Result<DmlDelta> {
        let t = self
            .tables
            .get(&upd.table)
            .ok_or_else(|| EngineError::NoSuchTable(upd.table.clone()))?;
        let binding = upd.alias.as_ref().unwrap_or(&upd.table);
        let mut positions = Vec::with_capacity(upd.assignments.len());
        let mut compiled_values = Vec::with_capacity(upd.assignments.len());
        for (col, e) in &upd.assignments {
            let p = t
                .schema
                .column_index(col)
                .ok_or_else(|| EngineError::NoSuchColumn(format!("{}.{}", upd.table, col)))?;
            if positions.contains(&p) {
                return Err(EngineError::InvalidDdl(format!(
                    "column '{col}' assigned twice in UPDATE"
                )));
            }
            positions.push(p);
            compiled_values.push(query::compile_row_predicate(self, &upd.table, binding, e)?);
        }
        let (base, pending) =
            self.visible_matches(&upd.table, upd.alias.as_ref(), upd.predicate.as_ref(), read)?;
        let mut delta = DmlDelta {
            table: upd.table.clone(),
            rows_affected: base.len() + pending.len(),
            ..DmlDelta::default()
        };
        let mut ctx = ExecCtx::new(self, read);
        let matched = base
            .iter()
            .map(|r| (r, false))
            .chain(pending.iter().map(|r| (r, true)));
        for (old, from_pending) in matched {
            let mut new_row = old.to_vec();
            for (p, ce) in positions.iter().zip(&compiled_values) {
                new_row[*p] = query::eval_row_scalar(ce, old, &mut ctx)?;
            }
            let new = t.validate(new_row)?;
            if old.as_ref() == new.as_ref() {
                continue;
            }
            if from_pending {
                delta.retract_ins.push(old.clone());
            } else {
                delta.del.push(old.clone());
            }
            delta.ins.push(new);
        }
        delta.del = dedup_rows(delta.del);
        self.check_row_constraints(&upd.table, &delta.ins, read)?;
        Ok(delta)
    }

    /// Publish a transaction's private overlay into the shared `ins_T` /
    /// `del_T` event tables — the first step of a commit, performed under
    /// the [`SharedDatabase`](crate::SharedDatabase) write lock.
    ///
    /// Base tables get capture enabled on demand so their event tables
    /// exist; statements aimed directly at event tables (the session layer
    /// permits them as an escape hatch for staging events by hand) are
    /// applied in place, where the subsequent `safeCommit` normalize /
    /// apply / truncate steps treat them exactly as before the overlay
    /// design.
    ///
    /// Every staged event row is stamped with `begin = ts`. `ts = 0` makes
    /// the rows visible to any snapshot — the single-owner / dry-run
    /// behaviour. The phased commit passes its *unpublished* commit
    /// timestamp instead.
    ///
    /// That stamp is what keeps a phased commit's staging private while its check
    /// phase runs outside the exclusive lock: a reader at any registered
    /// snapshot (or at the published clock) filters versions by
    /// `begin <= snapshot`, and `ts` is published only after the event
    /// tables are truncated again — so an `ins_T` / `del_T` / vio-view read
    /// by another session can never observe the in-flight staging. The
    /// committer's own check phase reads the event tables at
    /// [`TS_LATEST`], which sees every live version regardless of `begin`.
    ///
    /// The overlay is consumed: its rows — validated when their statements
    /// were planned — are moved into the event tables in proposal order,
    /// neither copied nor re-coerced. A caller that keeps its overlay (a
    /// dry run) stages a clone.
    pub fn stage_overlay(&mut self, overlay: TxOverlay, ts: u64) -> Result<()> {
        for (table, delta) in overlay.into_deltas() {
            let (ins, del) = delta.into_rows();
            if self.is_event_table(&table) {
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| EngineError::NoSuchTable(table.clone()))?;
                for row in &del {
                    if let Some(id) = t.find_identical(row) {
                        t.delete_row(id);
                    }
                }
                for row in ins {
                    t.insert_row_at(row, ts)?;
                }
                continue;
            }
            if !self.tables.contains_key(&table) {
                return Err(EngineError::NoSuchTable(table.clone()));
            }
            // Write-write conflicts (a planned deletion whose target a
            // concurrent commit removed, a key raced onto by a later
            // committer) are the province of [`Database::detect_conflicts`]
            // — first-committer-wins on version stamps — which commit paths
            // run immediately before staging, under the same write lock.
            // Staging itself is mechanical.
            if !self.is_captured(&table) {
                self.enable_capture(&table)?;
            }
            let ins_t = self
                .tables
                .get_mut(&ins_table_name(&table))
                .expect("capture implies event table");
            for row in ins {
                ins_t.insert_row_at(row, ts)?;
            }
            let del_t = self
                .tables
                .get_mut(&del_table_name(&table))
                .expect("capture implies event table");
            for row in del {
                if del_t.find_identical(&row).is_none() {
                    del_t.insert_row_at(row, ts)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluate the schema's CHECK constraints against candidate rows.
    fn check_row_constraints(&self, table: &str, rows: &[Row], read: ReadCtx<'_>) -> Result<()> {
        let t = &self.tables[table];
        if t.schema.checks.is_empty() {
            return Ok(());
        }
        let checks = t.schema.checks.clone();
        for check in &checks {
            let compiled = query::compile_row_predicate(self, table, table, check)?;
            let mut ctx = ExecCtx::new(self, read);
            for row in rows {
                // SQL CHECK semantics: only definite False rejects.
                if query::eval_row_predicate(&compiled, row, &mut ctx)? == Truth::False {
                    return Err(EngineError::CheckViolation {
                        table: table.to_string(),
                        detail: format!("row ({}) violates CHECK", format_row(row)),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Append a copy of `row` to `out` if the row predicate holds for it (or
/// there is none).
fn push_if_true<'a>(
    pred: Option<&query::RowExpr>,
    row: &'a Row,
    ctx: &mut ExecCtx<'a>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let holds = match pred {
        Some(pred) => query::eval_row_predicate(pred, row, ctx)? == Truth::True,
        None => true,
    };
    if holds {
        out.push(row.clone());
    }
    Ok(())
}

/// Drop repeated rows, keeping first occurrences in order.
fn dedup_rows(mut rows: Vec<Row>) -> Vec<Row> {
    if rows.len() > 1 {
        let first: Vec<bool> = {
            let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
            rows.iter().map(|row| seen.insert(row)).collect()
        };
        let mut first = first.into_iter();
        rows.retain(|_| first.next().expect("one flag per row"));
    }
    rows
}

/// Count rows by identity.
fn count_rows(rows: &[Row]) -> FxHashMap<&[Value], usize> {
    let mut counts: FxHashMap<&[Value], usize> = FxHashMap::default();
    for row in rows {
        *counts.entry(row).or_default() += 1;
    }
    counts
}

/// The state one statement's planned insertions are validated against: the
/// transaction's snapshot composed with its overlay *as the statement will
/// leave it* (its retractions and deletions applied). Answered from the
/// overlay's indexes and the statement's own effect, so validating a
/// statement costs O(its rows) however much the transaction has pending.
struct StatementView<'a> {
    table: &'a Table,
    snapshot: u64,
    overlay: Option<&'a TableDelta>,
    /// Pending insertions this statement retracts, counted by row.
    retracted: FxHashMap<&'a [Value], usize>,
    /// Base rows this statement deletes.
    deleted: FxHashSet<&'a [Value]>,
}

impl StatementView<'_> {
    /// Is the base row `row` deleted by the transaction (before or by this
    /// statement)?
    fn hides(&self, row: &[Value]) -> bool {
        self.deleted.contains(row) || self.overlay.is_some_and(|d| d.hides(row))
    }

    /// Pending insertions identical to `row` that survive this statement's
    /// retractions (which cancel one-for-one).
    fn pending_copies(&self, row: &[Value]) -> usize {
        self.overlay
            .map_or(0, |d| d.pending_copies(row))
            .saturating_sub(self.retracted.get(row).copied().unwrap_or(0))
    }

    /// Apply set semantics at plan time: flag (`false`) the planned
    /// insertions identical to a row the transaction already observes (a
    /// surviving base row, a pending insertion, or an earlier row of this
    /// same statement). These are exactly the no-ops commit-time
    /// normalization would drop — and dropping them now keeps
    /// read-your-writes free of duplicate rows, so what the transaction
    /// sees is what commit produces.
    fn non_noop_inserts(&self, rows: &[Row]) -> Vec<bool> {
        let mut kept: FxHashSet<&[Value]> = FxHashSet::default();
        rows.iter()
            .map(|row| {
                let noop = self.pending_copies(row) > 0
                    || kept.contains(row.as_ref())
                    || (self.table.find_identical_at(row, self.snapshot).is_some()
                        && !self.hides(row));
                if !noop {
                    kept.insert(row);
                }
                !noop
            })
            .collect()
    }

    /// Reject `new_rows` (the statement's planned insertions, no-ops
    /// already dropped) that would violate a unique constraint at apply
    /// time. A row sharing a unique key with a *different* visible row —
    /// a surviving snapshot row, a surviving pending insertion, or another
    /// row of the statement — fails immediately. NULL-containing keys are
    /// exempt from uniqueness.
    fn check_unique(&self, new_rows: &[Row]) -> Result<()> {
        let t = self.table;
        let unique: Vec<(usize, &HashIndex)> = t
            .indexes()
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.unique)
            .collect();
        // The statement's own rows by key, per unique index (a single row
        // cannot clash with itself).
        let mut own_keys: Vec<SlotIndex<usize>> = Vec::new();
        if new_rows.len() > 1 {
            for (_, ix) in &unique {
                let mut keys = SlotIndex::default();
                for (i, row) in new_rows.iter().enumerate() {
                    if let Some(h) = ix.key_hash(row) {
                        keys.insert(h, i);
                    }
                }
                own_keys.push(keys);
            }
        }
        for (i, row) in new_rows.iter().enumerate() {
            for (u, &(n, ix)) in unique.iter().enumerate() {
                // Probes return versions; only snapshot-visible ones
                // conflict (rows committed after the snapshot surface at
                // COMMIT as serialization conflicts instead).
                let Some(mut ids) = t.probe_row(n, row) else {
                    continue;
                };
                let clash = ids.any(|id| {
                    t.get_at(id, self.snapshot)
                        .is_some_and(|base| base.as_ref() != row.as_ref() && !self.hides(base))
                }) || self.overlay.is_some_and(|d| {
                    // An identical pending row can only be one this
                    // statement retracts (no-ops were dropped).
                    d.pending_matching(&ix.columns, ix.columns.iter().map(|&c| &row[c]))
                        .into_iter()
                        .any(|other| other != row && self.pending_copies(other) > 0)
                }) || own_keys.get(u).is_some_and(|keys| {
                    ix.key_hash(row).is_some_and(|h| {
                        keys.get(h)
                            .iter()
                            .any(|&j| j != i && ix.same_key(row, &new_rows[j]))
                    })
                });
                if clash {
                    return Err(EngineError::UniqueViolation {
                        table: t.schema.name.clone(),
                        index: ix.name.clone(),
                        key: ix.format_key(row),
                    });
                }
            }
        }
        Ok(())
    }
}

fn format_row(row: &[Value]) -> String {
    row.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// How a `DELETE` / `UPDATE` predicate finds its candidate rows.
enum KeyProbe {
    /// No usable `col = constant` conjuncts: examine every row.
    Scan,
    /// The predicate cannot match (`col = NULL`, or a constant no stored
    /// value of the column's type can equal).
    Nothing,
    /// Probe index number `.0` of the table with key `.1`; the full
    /// predicate is still evaluated on the candidates.
    Index(usize, Vec<Value>),
}

/// Plan the candidate lookup for a DELETE / UPDATE predicate: the best
/// index covered by top-level `col = constant` conjuncts, if any.
fn key_probe(t: &Table, binding: &str, pred: &sql::Expr, db: &Database) -> Result<KeyProbe> {
    let mut eq: Vec<(usize, Value)> = Vec::new();
    for conj in pred.conjuncts() {
        let sql::Expr::Binary {
            op: sql::BinOp::Eq,
            left,
            right,
        } = conj
        else {
            continue;
        };
        let (colref, lit) = match (&**left, &**right) {
            (sql::Expr::Column(c), sql::Expr::Literal(l)) => (c, l),
            (sql::Expr::Literal(l), sql::Expr::Column(c)) => (c, l),
            _ => continue,
        };
        if colref.qualifier.as_deref().is_some_and(|q| q != binding) {
            continue;
        }
        let Some(pos) = t.schema.column_index(&colref.name) else {
            continue;
        };
        let v = query::eval_const(db, &sql::Expr::Literal(lit.clone()))?;
        if v.is_null() {
            // `col = NULL` matches nothing.
            return Ok(KeyProbe::Nothing);
        }
        if !eq.iter().any(|(p, _)| *p == pos) {
            eq.push((pos, v));
        }
    }
    if eq.is_empty() {
        return Ok(KeyProbe::Scan);
    }
    let cols: Vec<usize> = eq.iter().map(|(p, _)| *p).collect();
    let Some(ix_id) = t.best_index(&cols) else {
        return Ok(KeyProbe::Scan);
    };
    let ix = &t.indexes()[ix_id];
    let mut key = Vec::with_capacity(ix.columns.len());
    for c in &ix.columns {
        let (_, v) = eq.iter().find(|(p, _)| p == c).expect("covered column");
        match v.clone().coerce_for_probe(t.schema.columns[*c].ty) {
            Ok(v) => key.push(v),
            Err(_) => return Ok(KeyProbe::Nothing),
        }
    }
    Ok(KeyProbe::Index(ix_id, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_values;

    /// The counts `touched` carries are the event tables' lengths, table by
    /// table and in total.
    fn assert_touched_counts(db: &Database, touched: &Touched, rule: &str) {
        assert_eq!(touched.counts(), db.pending_counts(TS_LATEST), "{rule}");
        for base in db.captured_tables() {
            let ins = db.table(&ins_table_name(&base)).unwrap().len();
            let del = db.table(&del_table_name(&base)).unwrap().len();
            let entry = touched.iter().find(|e| e.table == base);
            assert_eq!(
                entry.map_or((0, 0), |e| (e.ins, e.del)),
                (ins, del),
                "{rule}: {base}"
            );
            assert_eq!(touched.touches(&base), ins + del > 0, "{rule}: {base}");
            assert_eq!(touched.contains(true, &base), ins > 0, "{rule}: {base}");
            assert_eq!(touched.contains(false, &base), del > 0, "{rule}: {base}");
        }
    }

    #[test]
    fn touched_counts_match_event_tables_after_each_normalization_rule() {
        fn row(a: i64) -> Vec<Value> {
            vec![Value::Int(a), Value::Int(a)]
        }
        /// A rule's name, how to stage events it fires on, and its counter.
        type Rule = (
            &'static str,
            fn(&mut Database),
            fn(&NormalizationReport) -> usize,
        );
        let rules: [Rule; 5] = [
            (
                "dup ins",
                |db| {
                    db.insert_direct("ins_t", vec![row(5), row(5), row(6)])
                        .unwrap();
                },
                |r| r.dup_ins,
            ),
            (
                "dup del",
                |db| {
                    db.insert_direct("del_t", vec![row(1), row(1), row(2)])
                        .unwrap();
                },
                |r| r.dup_del,
            ),
            (
                "missing del",
                |db| {
                    db.insert_direct("del_t", vec![row(9), row(2)]).unwrap();
                },
                |r| r.missing_del,
            ),
            (
                "cancelled pair",
                |db| {
                    db.insert_direct("ins_t", vec![row(1), row(7)]).unwrap();
                    db.insert_direct("del_t", vec![row(1)]).unwrap();
                },
                |r| r.cancelled,
            ),
            (
                "no-op ins",
                |db| {
                    db.insert_direct("ins_t", vec![row(2), row(8)]).unwrap();
                },
                |r| r.noop_ins,
            ),
        ];
        for (rule, stage, fired) in rules {
            let mut db = Database::new();
            db.execute_sql(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);
                 CREATE TABLE u (x INT PRIMARY KEY, y INT);
                 CREATE TABLE quiet (q INT);
                 INSERT INTO t VALUES (1, 1), (2, 2);",
            )
            .unwrap();
            for table in ["t", "u", "quiet"] {
                db.enable_capture(table).unwrap();
            }
            db.execute_sql("INSERT INTO u VALUES (3, 3)").unwrap();
            stage(&mut db);
            assert_touched_counts(&db, &db.touched_event_tables(), rule);
            let (report, touched) = db.normalize_events().unwrap();
            assert!(fired(&report) > 0, "{rule} did not fire: {report:?}");
            assert_touched_counts(&db, &touched, rule);
            assert!(!touched.touches("quiet"), "{rule}");
        }
    }

    #[test]
    fn collision_planned_writes_check_keys_not_buckets() {
        // Unit tests keep three hash bits: these keys share one bucket.
        let bucket = |k: i64| hash_values([&Value::Int(k)]);
        let k: Vec<i64> = (1..).filter(|&k| bucket(k) == bucket(1)).take(4).collect();
        let mut db = Database::new();
        db.execute_sql(&format!(
            "CREATE TABLE t (a INT PRIMARY KEY, b INT);
             INSERT INTO t VALUES ({}, 0), ({}, 0);",
            k[0], k[1]
        ))
        .unwrap();
        let plan = |db: &Database, overlay: &TxOverlay, stmt: String| {
            db.plan_dml(&sql::parse_statement(&stmt).unwrap(), overlay, TS_LATEST)
        };
        let unique_violation =
            |r: Result<DmlDelta>| matches!(r, Err(EngineError::UniqueViolation { .. }));
        let empty = TxOverlay::new();
        let insert = |rows: &[i64]| {
            let values: Vec<String> = (rows.iter().enumerate())
                .map(|(b, a)| format!("({a}, {})", b + 1))
                .collect();
            format!("INSERT INTO t VALUES {}", values.join(", "))
        };
        // Base rows: a new colliding key passes, a stored one does not.
        assert!(plan(&db, &empty, insert(&[k[2]])).is_ok());
        assert!(unique_violation(plan(&db, &empty, insert(&[k[1]]))));
        // The statement's own rows: distinct colliding keys pass.
        assert!(plan(&db, &empty, insert(&[k[2], k[3]])).is_ok());
        assert!(unique_violation(plan(&db, &empty, insert(&[k[2], k[2]]))));
        // Pending rows of the transaction.
        let mut overlay = TxOverlay::new();
        overlay.apply_delta(plan(&db, &overlay, insert(&[k[2]])).unwrap());
        assert!(plan(&db, &overlay, insert(&[k[3]])).is_ok());
        let clash = format!("INSERT INTO t VALUES ({}, 9)", k[2]);
        assert!(unique_violation(plan(&db, &overlay, clash)));
        // Keyed DELETE / UPDATE probe the bucket and match one row each.
        let del = plan(&db, &empty, format!("DELETE FROM t WHERE a = {}", k[1])).unwrap();
        assert_eq!(del.del, [vec![Value::Int(k[1]), Value::Int(0)].into()]);
        let upd = format!("UPDATE t SET b = 5 WHERE a = {}", k[0]);
        assert_eq!(db.execute_sql(&upd).unwrap().len(), 1);
        let gone = format!("DELETE FROM t WHERE a = {}", k[3]);
        assert_eq!(plan(&db, &empty, gone).unwrap().rows_affected, 0);
        let rs = db
            .query_sql(&format!("SELECT b FROM t WHERE a = {}", k[0]))
            .unwrap();
        assert_eq!(rs.len(), 1);
    }

    /// Single-owner writes to a captured table plan through the staged
    /// events, which they keep as an overlay between statements; events
    /// staged, restored or truncated by any other path are seen by the
    /// next write all the same.
    #[test]
    fn single_owner_writes_see_events_changed_by_other_paths() {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE t (k INT PRIMARY KEY)")
            .unwrap();
        db.enable_capture("t").unwrap();
        let run = |db: &mut Database, stmt: &str| match db.execute_sql(stmt).unwrap()[..] {
            [StatementResult::RowsAffected(n)] => n,
            ref other => panic!("{other:?}"),
        };
        let staged = |db: &Database| db.pending_counts(TS_LATEST);
        assert_eq!(run(&mut db, "INSERT INTO t VALUES (1)"), 1);
        db.insert_direct("ins_t", vec![vec![Value::Int(2)]])
            .unwrap();
        assert_eq!(run(&mut db, "DELETE FROM t WHERE k = 2"), 1);
        assert_eq!(staged(&db), (1, 0));
        let saved = db.snapshot_events();
        assert_eq!(run(&mut db, "DELETE FROM t WHERE k = 1"), 1);
        assert_eq!(staged(&db), (0, 0));
        db.restore_events(saved);
        assert_eq!(run(&mut db, "UPDATE t SET k = 3 WHERE k = 1"), 1);
        assert_eq!(staged(&db), (1, 0));
        let touched = db.touched_event_tables();
        db.truncate_events(&touched);
        assert_eq!(run(&mut db, "DELETE FROM t"), 0);
        assert_eq!(staged(&db), (0, 0));
        // Normalization drops a staged insertion the base table holds.
        db.insert_direct("t", vec![vec![Value::Int(5)]]).unwrap();
        assert_eq!(run(&mut db, "INSERT INTO t VALUES (6)"), 1);
        db.insert_direct("ins_t", vec![vec![Value::Int(5)]])
            .unwrap();
        assert_eq!(run(&mut db, "INSERT INTO t VALUES (7)"), 1);
        db.normalize_events().unwrap();
        assert_eq!(staged(&db), (2, 0));
        assert_eq!(run(&mut db, "DELETE FROM t WHERE k = 5"), 1);
        assert_eq!(staged(&db), (2, 1));
    }
}
