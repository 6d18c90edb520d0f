//! Update-batch generator: synthesizes insertion/deletion workloads of a
//! target byte size against a captured TPC-H database (the paper's "1 MB to
//! 5 MB of tuple insertions/deletions").

use crate::dbgen::{suppliers_of_part, TpchCounts};
use crate::sizing::pending_update_bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tintin_engine::{Database, Value};

/// Statistics of one generated batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    pub orders_inserted: usize,
    pub lineitems_inserted: usize,
    pub orders_deleted: usize,
    pub lineitems_deleted: usize,
    /// Estimated bytes of the pending events after the batch.
    pub bytes: usize,
}

/// Generates update batches with fresh keys and valid references.
#[derive(Debug, Clone)]
pub struct UpdateGen {
    counts: TpchCounts,
    rng: StdRng,
    next_order: i64,
    /// Orders already deleted, stranded or repriced in this session —
    /// excluded from further operations so batches stay conflict-free.
    touched_orders: BTreeSet<i64>,
}

impl UpdateGen {
    pub fn new(counts: TpchCounts, seed: u64) -> Self {
        UpdateGen {
            counts,
            rng: StdRng::seed_from_u64(seed),
            next_order: counts.orders + 1,
            touched_orders: BTreeSet::new(),
        }
    }

    fn fresh_order_key(&mut self) -> i64 {
        let k = self.next_order;
        self.next_order += 1;
        k
    }

    fn random_existing_order(&mut self) -> Option<i64> {
        for _ in 0..64 {
            let k = self.rng.gen_range(1..=self.counts.orders);
            if !self.touched_orders.contains(&k) {
                return Some(k);
            }
        }
        None
    }

    fn random_part_supp(&mut self) -> (i64, i64) {
        let p = self.rng.gen_range(1..=self.counts.parts);
        let pick = self
            .rng
            .gen_range(0..self.counts.partsupps_per_part.min(self.counts.suppliers))
            as usize;
        let s = suppliers_of_part(&self.counts, p)
            .nth(pick)
            .expect("pick in range");
        (p, s)
    }

    /// Insert one new order with `nlines` lineitems (valid references).
    pub fn insert_order(&mut self, db: &mut Database, nlines: i64) -> BatchStats {
        let mut stats = BatchStats::default();
        let o = self.fresh_order_key();
        let cust = self.rng.gen_range(1..=self.counts.customers);
        let price = (self.rng.gen_range(1_000..5_000_000) as f64) / 100.0;
        db.insert_rows(
            "orders",
            vec![vec![Value::Int(o), Value::Int(cust), Value::real(price)]],
        )
        .unwrap();
        stats.orders_inserted += 1;
        let mut lines = Vec::new();
        for ln in 1..=nlines {
            let (p, s) = self.random_part_supp();
            lines.push(vec![
                Value::Int(o),
                Value::Int(ln),
                Value::Int(self.rng.gen_range(1..=50)),
                Value::Int(p),
                Value::Int(s),
            ]);
        }
        stats.lineitems_inserted += lines.len();
        db.insert_rows("lineitem", lines).unwrap();
        stats
    }

    /// Insert one order with **no** lineitems — violates the running
    /// example's assertion.
    pub fn insert_empty_order(&mut self, db: &mut Database) -> BatchStats {
        let mut stats = BatchStats::default();
        let o = self.fresh_order_key();
        let cust = self.rng.gen_range(1..=self.counts.customers);
        db.insert_rows(
            "orders",
            vec![vec![Value::Int(o), Value::Int(cust), Value::real(1.0)]],
        )
        .unwrap();
        stats.orders_inserted += 1;
        stats
    }

    /// Delete one random existing order together with all its lineitems
    /// (assertion-preserving).
    pub fn delete_whole_order(&mut self, db: &mut Database) -> BatchStats {
        let mut stats = BatchStats::default();
        let Some(o) = self.random_existing_order() else {
            return stats;
        };
        self.touched_orders.insert(o);
        let n = db
            .execute_sql(&format!("DELETE FROM lineitem WHERE l_orderkey = {o}"))
            .unwrap();
        if let tintin_engine::StatementResult::RowsAffected(k) = n[0] {
            stats.lineitems_deleted += k;
        }
        db.execute_sql(&format!("DELETE FROM orders WHERE o_orderkey = {o}"))
            .unwrap();
        stats.orders_deleted += 1;
        stats
    }

    /// Delete all lineitems of a random order but keep the order — violates
    /// the running example's assertion.
    pub fn strand_order(&mut self, db: &mut Database) -> BatchStats {
        let mut stats = BatchStats::default();
        let Some(o) = self.random_existing_order() else {
            return stats;
        };
        self.touched_orders.insert(o); // don't reuse it
        let n = db
            .execute_sql(&format!("DELETE FROM lineitem WHERE l_orderkey = {o}"))
            .unwrap();
        if let tintin_engine::StatementResult::RowsAffected(k) = n[0] {
            stats.lineitems_deleted += k;
        }
        stats
    }

    /// Reprice one random existing order via UPDATE (delete+insert events).
    pub fn reprice_order(&mut self, db: &mut Database) -> BatchStats {
        let stats = BatchStats::default();
        let Some(o) = self.random_existing_order() else {
            return stats;
        };
        self.touched_orders.insert(o); // one event pair per order and batch
        let price = (self.rng.gen_range(1_000..5_000_000) as f64) / 100.0;
        db.execute_sql(&format!(
            "UPDATE orders SET o_totalprice = {price} WHERE o_orderkey = {o}"
        ))
        .unwrap();
        stats
    }

    /// Generate a violation-free batch of roughly `target_bytes` of events:
    /// a mix of order insertions (with lines), whole-order deletions and
    /// repricing updates.
    pub fn valid_batch(&mut self, db: &mut Database, target_bytes: usize) -> BatchStats {
        let mut stats = BatchStats::default();
        while pending_update_bytes(db) < target_bytes {
            let roll = self.rng.gen_range(0..100);
            let s = if roll < 65 {
                let nlines = self.rng.gen_range(1..=4);
                self.insert_order(db, nlines)
            } else if roll < 85 {
                self.delete_whole_order(db)
            } else {
                self.reprice_order(db)
            };
            stats = merge(stats, s);
        }
        stats.bytes = pending_update_bytes(db);
        stats
    }

    /// A batch like [`Self::valid_batch`] plus `violations` updates that each
    /// violate the atLeastOneLineItem assertion.
    pub fn violating_batch(
        &mut self,
        db: &mut Database,
        target_bytes: usize,
        violations: usize,
    ) -> BatchStats {
        let mut stats = self.valid_batch(db, target_bytes);
        for i in 0..violations {
            let s = if i % 2 == 0 {
                self.insert_empty_order(db)
            } else {
                self.strand_order(db)
            };
            stats = merge(stats, s);
        }
        stats.bytes = pending_update_bytes(db);
        stats
    }
}

fn merge(a: BatchStats, b: BatchStats) -> BatchStats {
    BatchStats {
        orders_inserted: a.orders_inserted + b.orders_inserted,
        lineitems_inserted: a.lineitems_inserted + b.lineitems_inserted,
        orders_deleted: a.orders_deleted + b.orders_deleted,
        lineitems_deleted: a.lineitems_deleted + b.lineitems_deleted,
        bytes: a.bytes.max(b.bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::Dbgen;
    use crate::schema::TPCH_TABLES;
    use tintin_engine::TS_LATEST;

    fn captured_db(sf: f64) -> (Database, TpchCounts) {
        let gen = Dbgen::new(sf);
        let mut db = gen.generate();
        for t in TPCH_TABLES {
            db.enable_capture(t).unwrap();
        }
        (db, gen.counts())
    }

    /// Commit the captured batch unchecked, through the versioned apply
    /// every commit path uses.
    fn commit_pending(db: &mut Database) {
        let (_, touched) = db.normalize_events().unwrap();
        let ts = db.next_commit_ts();
        db.apply_pending_versioned(&touched, ts).unwrap();
        db.truncate_events(&touched);
        db.publish_commit(ts);
    }

    #[test]
    fn valid_batch_hits_target_size() {
        let (mut db, counts) = captured_db(0.0005);
        let mut ug = UpdateGen::new(counts, 7);
        let stats = ug.valid_batch(&mut db, 10_000);
        assert!(stats.bytes >= 10_000);
        assert!(stats.orders_inserted > 0);
        let (ins, del) = db.pending_counts(TS_LATEST);
        assert!(ins + del > 0);
    }

    #[test]
    fn valid_batch_preserves_assertion_after_apply() {
        let (mut db, counts) = captured_db(0.0005);
        let mut ug = UpdateGen::new(counts, 11);
        ug.valid_batch(&mut db, 5_000);
        commit_pending(&mut db);
        let empty_orders = db
            .query_sql(
                "SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            )
            .unwrap();
        assert!(
            empty_orders.is_empty(),
            "valid batch must keep the assertion"
        );
    }

    #[test]
    fn violating_batch_breaks_assertion_after_apply() {
        let (mut db, counts) = captured_db(0.0005);
        let mut ug = UpdateGen::new(counts, 13);
        ug.violating_batch(&mut db, 2_000, 3);
        commit_pending(&mut db);
        let empty_orders = db
            .query_sql(
                "SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            )
            .unwrap();
        assert!(!empty_orders.is_empty());
    }

    #[test]
    fn batches_are_deterministic_per_seed() {
        let (mut db1, counts) = captured_db(0.0004);
        let (mut db2, _) = captured_db(0.0004);
        let s1 = UpdateGen::new(counts, 99).valid_batch(&mut db1, 4_000);
        let s2 = UpdateGen::new(counts, 99).valid_batch(&mut db2, 4_000);
        assert_eq!(s1.orders_inserted, s2.orders_inserted);
        assert_eq!(s1.lineitems_inserted, s2.lineitems_inserted);
    }
}
