//! Per-transaction pending updates: the read-your-writes overlay.
//!
//! With multiple sessions (the `tintin-session` crate) attached to one
//! shared [`Database`](crate::Database), a transaction's proposed update can
//! no longer live in the shared `ins_T` / `del_T` event tables — two
//! interleaved transactions would mix their events and each would observe
//! the other's uncommitted state. Instead every open transaction keeps its
//! pending insertions and deletions in a private [`TxOverlay`], and the
//! query evaluator composes the state that transaction observes on the fly
//! from a [`ReadCtx`](crate::ReadCtx) carrying the overlay and the snapshot.
//! Base-table accesses are pinned to the transaction's `BEGIN`-time MVCC
//! snapshot (the row versions visible at its snapshot timestamp — see
//! [`SharedDatabase::begin_snapshot`](crate::SharedDatabase::begin_snapshot)),
//! so the full visible-state equation is
//!
//! ```text
//! visible(T) = (snapshot(T) minus overlay.del(T)) union overlay.ins(T)
//! ```
//!
//! — the state as of `BEGIN`, minus the transaction's pending deletions,
//! plus its pending insertions. Concurrent commits never change what an
//! open transaction reads; they surface only at `COMMIT`, as
//! first-committer-wins serialization conflicts.
//!
//! Only at `COMMIT` — inside the write-locked staging phase of the phased
//! commit — is the overlay staged into the real event tables
//! ([`Database::stage_overlay`](crate::Database::stage_overlay)), where the
//! paper's `safeCommit` machinery (normalize → check incremental views →
//! apply or reject) takes over, now stamping row versions instead of
//! mutating in place.
//!
//! # Order and cost
//!
//! The paper's premise is that a checked commit costs time proportional to
//! the *update*. A transaction is a sequence of statements, so that only
//! holds if each statement costs time proportional to the rows *it*
//! touches — a statement that rescans (or copies) everything the
//! transaction has proposed so far makes the transaction quadratic. Each
//! [`TableDelta`] therefore keeps two things:
//!
//! * its pending rows **in proposal order**. The order is observable — the
//!   staged `ins_T` / `del_T` row order fixes the order of reported
//!   violation tuples and the bytes of the write-ahead-log record — so it
//!   is part of the contract: insertions iterate in the order they were
//!   proposed (a retraction removes its row and leaves the others in
//!   place), deletions in the order they were first proposed;
//! * hash indexes over those rows — by row identity for both sets, and by
//!   key for every index of the base table — maintained by every mutation
//!   and private to this module, so they cannot fall out of step with the
//!   rows. They are the same keyless hash → slot index the base tables use
//!   (`crate::hash::SlotIndex`), with proposal sequence numbers or positions
//!   as slots. "Is this base row hidden?", "is this row already pending?" and
//!   "which pending rows carry this key?" are O(1) / O(matches).
//!
//! The resulting cost model: planning a statement is O(rows the statement
//! reads and writes), whatever the transaction did before; folding it into
//! the overlay moves its rows (no copy); a savepoint copies the overlay —
//! rows and indexes — once.

use crate::hash::{hash_values, FxHashMap, SlotIndex};
use crate::value::{Row, Value};
use std::collections::BTreeMap;

/// The pending insertions carrying each key of one base-table index.
#[derive(Debug, Clone)]
struct KeyIndex {
    columns: Vec<usize>,
    slots: SlotIndex<u64>,
}

impl KeyIndex {
    /// Hash of `row`'s key; `None` if a key column is NULL — as in the base
    /// table's indexes, such rows are not indexed (a NULL key matches no
    /// equality probe and is exempt from uniqueness).
    fn key_hash(&self, row: &[Value]) -> Option<u64> {
        self.columns
            .iter()
            .all(|&c| !row[c].is_null())
            .then(|| hash_values(self.columns.iter().map(|&c| &row[c])))
    }

    fn add(&mut self, row: &[Value], seq: u64) {
        if let Some(h) = self.key_hash(row) {
            self.slots.insert(h, seq);
        }
    }

    fn drop_row(&mut self, row: &[Value], seq: u64) {
        if let Some(h) = self.key_hash(row) {
            self.slots.remove(h, seq);
        }
    }
}

/// Pending insertions and deletions for one table inside an open
/// transaction.
///
/// The two sets play exactly the roles of the paper's `ins_T` / `del_T`
/// event tables, scoped to a single transaction. Rows are stored validated
/// against the base table's schema, so equality against stored rows is
/// exact (no coercion needed at evaluation time). See the
/// [module documentation](self) for the ordering guarantee and the cost
/// model.
#[derive(Debug, Default, Clone)]
pub struct TableDelta {
    /// Pending insertions by proposal sequence number (ascending = order).
    ins: BTreeMap<u64, Row>,
    next_seq: u64,
    /// Row identity → sequence numbers in `ins` (a multiset: hand-staged
    /// event rows may repeat).
    ins_rows: SlotIndex<u64>,
    /// One key index per index of the base table.
    ins_keys: Vec<KeyIndex>,
    /// Pending deletions, deduplicated, in proposal order.
    del: Vec<Row>,
    /// Row identity → positions in `del`.
    del_rows: SlotIndex<u64>,
}

/// Two deltas are equal when they propose the same rows in the same order;
/// how they got there (sequence numbers, which keys are indexed) is not
/// part of their value.
impl PartialEq for TableDelta {
    fn eq(&self, other: &Self) -> bool {
        self.ins.values().eq(other.ins.values()) && self.del == other.del
    }
}

impl Eq for TableDelta {}

impl TableDelta {
    /// The rows this transaction proposes to insert, in proposal order.
    pub fn ins_rows(&self) -> impl ExactSizeIterator<Item = &Row> + Clone {
        self.ins.values()
    }

    /// The base-table rows this transaction proposes to delete, in the
    /// order they were first proposed.
    pub fn del_rows(&self) -> &[Row] {
        &self.del
    }

    /// Is `row` hidden from this transaction (proposed for deletion)?
    ///
    /// Deletion is by row identity with set semantics, mirroring how
    /// `safeCommit` applies `del_T`: one pending deletion hides — and at
    /// apply time removes — *every* identical base row.
    pub fn hides(&self, row: &[Value]) -> bool {
        self.del_rows
            .get(hash_values(row))
            .iter()
            .any(|&i| self.del[i as usize].as_ref() == row)
    }

    /// How many pending insertions are identical to `row`?
    pub fn pending_copies(&self, row: &[Value]) -> usize {
        self.identical_pending(row).count()
    }

    fn identical_pending<'a>(&'a self, row: &'a [Value]) -> impl Iterator<Item = u64> + 'a {
        self.ins_rows
            .get(hash_values(row))
            .iter()
            .copied()
            .filter(move |seq| self.ins[seq].as_ref() == row)
    }

    /// The pending insertions whose `columns` equal `key` (one value per
    /// column), in proposal order — the overlay's side of an index probe.
    /// `columns` is normally the column list of a base-table index this
    /// delta keeps a key index for (every index the table had when the
    /// transaction last wrote to it), which makes the probe O(matches); for
    /// any other column list the pending rows are filtered.
    pub fn pending_matching<'k>(
        &self,
        columns: &[usize],
        key: impl Iterator<Item = &'k Value> + Clone,
    ) -> Vec<&Row> {
        let hash = hash_values(key.clone());
        let matches = move |row: &&Row| columns.iter().zip(key.clone()).all(|(&c, k)| row[c] == *k);
        match self.ins_keys.iter().find(|k| k.columns == columns) {
            Some(k) => k
                .slots
                .get(hash)
                .iter()
                .map(|seq| &self.ins[seq])
                .filter(matches)
                .collect(),
            None => self.ins.values().filter(matches).collect(),
        }
    }

    /// No pending events for this table?
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    /// Keep a key index over the pending insertions for each of these
    /// column lists — the columns of the base table's indexes. A no-op when
    /// they are already the indexed ones; otherwise (first use, or the
    /// table's indexes changed under the open transaction) the key indexes
    /// are rebuilt from the pending rows.
    pub fn index_keys(&mut self, index_columns: Vec<Vec<usize>>) {
        if self
            .ins_keys
            .iter()
            .map(|k| &k.columns)
            .eq(index_columns.iter())
        {
            return;
        }
        self.ins_keys = index_columns
            .into_iter()
            .map(|columns| {
                let mut k = KeyIndex {
                    columns,
                    slots: SlotIndex::default(),
                };
                for (&seq, row) in &self.ins {
                    k.add(row, seq);
                }
                k
            })
            .collect();
    }

    /// Propose `row` for insertion (appended; duplicates are the caller's
    /// business — [`Database::plan_dml`](crate::Database::plan_dml) drops
    /// set-semantics no-ops before they get here).
    pub fn push_ins(&mut self, row: Row) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ins_rows.insert(hash_values(row.iter()), seq);
        for k in &mut self.ins_keys {
            k.add(&row, seq);
        }
        self.ins.insert(seq, row);
    }

    /// Propose the base row `row` for deletion. Deletions are a set: a row
    /// already proposed is dropped, exactly as event capture deduplicates
    /// `del_T` rows.
    pub fn push_del(&mut self, row: Row) {
        if !self.hides(&row) {
            self.del_rows
                .insert(hash_values(row.iter()), self.del.len() as u64);
            self.del.push(row);
        }
    }

    /// Un-propose one pending insertion identical to `row` (the oldest), if
    /// there is one.
    fn retract(&mut self, row: &[Value]) {
        let Some(seq) = self.identical_pending(row).next() else {
            return;
        };
        let row = self.ins.remove(&seq).expect("indexed row is stored");
        self.ins_rows.remove(hash_values(row.iter()), seq);
        for k in &mut self.ins_keys {
            k.drop_row(&row, seq);
        }
    }

    /// Fold one statement's planned effect into this delta (the merge
    /// behind [`TxOverlay::apply_delta`]).
    ///
    /// Retractions cancel pending insertions one-for-one (deleting a row
    /// this transaction inserted simply un-proposes it); deletions of base
    /// rows are deduplicated; new insertions append. The statement's rows
    /// are moved in, not copied.
    pub fn merge(&mut self, delta: DmlDelta) {
        self.index_keys(delta.index_columns);
        for row in &delta.retract_ins {
            self.retract(row);
        }
        for row in delta.del {
            self.push_del(row);
        }
        for row in delta.ins {
            self.push_ins(row);
        }
    }

    /// Give up the rows: `(insertions, deletions)`, each in proposal order.
    pub fn into_rows(self) -> (Vec<Row>, Vec<Row>) {
        (self.ins.into_values().collect(), self.del)
    }

    /// Check that the indexes describe exactly the stored rows; panics with
    /// the broken invariant otherwise. For tests: every sequence of public
    /// operations must keep this true.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.ins_rows.len(),
            self.ins.len(),
            "ins identity index size"
        );
        for (seq, row) in &self.ins {
            assert!(
                *seq < self.next_seq,
                "sequence numbers are below the counter"
            );
            assert!(
                self.identical_pending(row).any(|s| s == *seq),
                "pending row {row:?} missing from the identity index"
            );
            for k in &self.ins_keys {
                let indexed = k
                    .key_hash(row)
                    .is_some_and(|h| k.slots.get(h).contains(seq));
                assert_eq!(
                    indexed,
                    k.columns.iter().all(|&c| !row[c].is_null()),
                    "pending row {row:?} vs key index on {:?}",
                    k.columns
                );
            }
        }
        for k in &self.ins_keys {
            let keyed = self
                .ins
                .values()
                .filter(|row| k.key_hash(row).is_some())
                .count();
            assert_eq!(k.slots.len(), keyed, "key index on {:?} size", k.columns);
        }
        assert_eq!(
            self.del_rows.len(),
            self.del.len(),
            "del identity index size"
        );
        for (i, row) in self.del.iter().enumerate() {
            assert!(
                self.del_rows
                    .get(hash_values(row.iter()))
                    .contains(&(i as u64)),
                "pending deletion {row:?} missing from the identity index"
            );
            assert_eq!(
                self.del.iter().filter(|r| *r == row).count(),
                1,
                "pending deletions are a set"
            );
        }
    }
}

/// A transaction's private pending update: per-table insertion and deletion
/// sets, overlaid onto the shared database during query evaluation so the
/// transaction reads its own writes without publishing them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TxOverlay {
    tables: FxHashMap<String, TableDelta>,
}

impl TxOverlay {
    /// An empty overlay (a freshly opened transaction).
    pub fn new() -> Self {
        TxOverlay::default()
    }

    /// The pending delta for `table`, if any statement touched it.
    pub fn delta(&self, table: &str) -> Option<&TableDelta> {
        self.tables.get(table)
    }

    /// Mutable access to the delta for `table`, creating it on first use.
    pub fn delta_mut(&mut self, table: &str) -> &mut TableDelta {
        if !self.tables.contains_key(table) {
            self.tables.insert(table.to_string(), TableDelta::default());
        }
        self.tables.get_mut(table).expect("just ensured")
    }

    /// Names of tables with pending events, sorted (deterministic).
    pub fn touched_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Give up the non-empty deltas, sorted by table name (the order
    /// [`TxOverlay::touched_tables`] reports).
    pub fn into_deltas(self) -> Vec<(String, TableDelta)> {
        let mut deltas: Vec<(String, TableDelta)> = self
            .tables
            .into_iter()
            .filter(|(_, d)| !d.is_empty())
            .collect();
        deltas.sort_by(|a, b| a.0.cmp(&b.0));
        deltas
    }

    /// Total pending `(insertions, deletions)` across all tables.
    pub fn counts(&self) -> (usize, usize) {
        let mut ins = 0;
        let mut del = 0;
        for d in self.tables.values() {
            ins += d.ins.len();
            del += d.del.len();
        }
        (ins, del)
    }

    /// No pending events at all?
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|d| d.is_empty())
    }

    /// Fold one statement's planned effect
    /// ([`Database::plan_dml`](crate::Database::plan_dml)) into the overlay
    /// (see [`TableDelta::merge`] for the semantics).
    pub fn apply_delta(&mut self, delta: DmlDelta) {
        self.delta_mut(&delta.table).merge(delta);
    }

    /// [`TableDelta::assert_consistent`] for every table.
    pub fn assert_consistent(&self) {
        for d in self.tables.values() {
            d.assert_consistent();
        }
    }
}

/// The planned effect of one DML statement, computed by
/// [`Database::plan_dml`](crate::Database::plan_dml) against the state the
/// transaction observes (base tables composed with its [`TxOverlay`]) —
/// without mutating anything.
#[derive(Debug, Clone, Default)]
pub struct DmlDelta {
    /// The target table.
    pub table: String,
    /// Rows the statement matched/produced, as reported to the client.
    pub rows_affected: usize,
    /// Rows newly proposed for insertion.
    pub ins: Vec<Row>,
    /// Visible base rows newly proposed for deletion.
    pub del: Vec<Row>,
    /// Pending insertions of this same transaction that the statement
    /// deletes or replaces before they were ever committed.
    pub retract_ins: Vec<Row>,
    /// The column lists of the target table's indexes, which the overlay
    /// mirrors over its pending insertions ([`TableDelta::index_keys`]).
    pub index_columns: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, b: Option<i64>) -> Row {
        vec![Value::Int(a), b.map_or(Value::Null, Value::Int)].into_boxed_slice()
    }

    fn delta(ins: Vec<Row>, del: Vec<Row>, retract_ins: Vec<Row>) -> DmlDelta {
        DmlDelta {
            table: "t".into(),
            ins,
            del,
            retract_ins,
            index_columns: vec![vec![0], vec![1]],
            ..DmlDelta::default()
        }
    }

    #[test]
    fn merge_keeps_proposal_order_across_retractions() {
        let mut d = TableDelta::default();
        d.merge(delta(
            vec![row(1, Some(1)), row(2, None), row(3, Some(3))],
            vec![],
            vec![],
        ));
        d.merge(delta(vec![row(4, Some(4))], vec![], vec![row(2, None)]));
        d.merge(delta(vec![row(2, None)], vec![], vec![]));
        d.assert_consistent();
        let order: Vec<&Row> = d.ins_rows().collect();
        assert_eq!(
            order,
            [
                &row(1, Some(1)),
                &row(3, Some(3)),
                &row(4, Some(4)),
                &row(2, None)
            ]
        );
    }

    #[test]
    fn retraction_is_one_for_one_and_oldest_first() {
        let mut d = TableDelta::default();
        d.push_ins(row(1, Some(1)));
        d.push_ins(row(9, Some(9)));
        d.push_ins(row(1, Some(1)));
        assert_eq!(d.pending_copies(&row(1, Some(1))), 2);
        d.merge(delta(vec![], vec![], vec![row(1, Some(1)), row(7, None)]));
        d.assert_consistent();
        assert_eq!(d.pending_copies(&row(1, Some(1))), 1);
        let order: Vec<&Row> = d.ins_rows().collect();
        assert_eq!(order, [&row(9, Some(9)), &row(1, Some(1))]);
    }

    #[test]
    fn deletions_are_a_set_in_first_proposal_order() {
        let mut d = TableDelta::default();
        d.merge(delta(vec![], vec![row(2, None), row(1, Some(1))], vec![]));
        d.merge(delta(vec![], vec![row(1, Some(1)), row(3, None)], vec![]));
        d.assert_consistent();
        assert_eq!(d.del_rows(), [row(2, None), row(1, Some(1)), row(3, None)]);
        assert!(d.hides(&row(2, None)));
        assert!(!d.hides(&row(2, Some(0))));
    }

    #[test]
    fn pending_matching_agrees_with_and_without_a_key_index() {
        let mut d = TableDelta::default();
        // Pushed before any key index exists: `index_keys` must pick them up.
        d.push_ins(row(1, Some(5)));
        d.push_ins(row(2, None));
        d.merge(delta(
            vec![row(3, Some(5)), row(4, Some(6))],
            vec![],
            vec![],
        ));
        d.assert_consistent();
        let by_index = d.pending_matching(&[1], [Value::Int(5)].iter());
        assert_eq!(by_index, [&row(1, Some(5)), &row(3, Some(5))]);
        // No key index on (0, 1): same answer by filtering.
        let filtered = d.pending_matching(&[0, 1], [Value::Int(3), Value::Int(5)].iter());
        assert_eq!(filtered, [&row(3, Some(5))]);
        // NULL keys are not indexed and match no probe.
        assert!(d.pending_matching(&[1], [Value::Null].iter()).is_empty());
    }

    #[test]
    fn changed_index_columns_rebuild_the_key_indexes() {
        let mut d = TableDelta::default();
        d.merge(delta(vec![row(1, Some(5))], vec![], vec![]));
        d.index_keys(vec![vec![1, 0]]);
        d.assert_consistent();
        assert_eq!(
            d.pending_matching(&[1, 0], [Value::Int(5), Value::Int(1)].iter()),
            [&row(1, Some(5))]
        );
    }

    #[test]
    fn equality_ignores_history() {
        let mut a = TableDelta::default();
        a.push_ins(row(1, None));
        a.push_ins(row(2, None));
        a.merge(delta(vec![], vec![], vec![row(1, None)]));
        let mut b = TableDelta::default();
        b.push_ins(row(2, None));
        assert_eq!(a, b);
        b.push_del(row(2, None));
        assert_ne!(a, b);
    }
}
