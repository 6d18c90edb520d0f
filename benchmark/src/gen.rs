//! Seeded input generators. The program under test receives only the SQL
//! text produced here; the same seed gives byte-identical scripts.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use crate::layers::TpchShape;

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-generator `lane` of the same seed.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// What the harness must observe for an operation to count as correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A valid transaction: must commit.
    Commit,
    /// A violating transaction: must be rejected with violation tuples,
    /// naming this assertion (lower-case, as the program reports names).
    Reject(String),
    /// A read-only transaction: each query's row count, then a commit.
    Rows(Vec<usize>),
}

#[derive(Debug, Clone)]
pub struct Tx {
    pub script: String,
    pub expect: Expect,
}

/// A deterministic stream of transactions for one connection, with the
/// model of what the database must hold once every generated valid
/// transaction has committed.
pub trait Stream: Send {
    /// The next write transaction of the mix (valid or violating).
    fn next_tx(&mut self) -> Tx;
    /// A read-only transaction against keys the stream knows exist: a
    /// point query and a two-table join inside `BEGIN … COMMIT`.
    fn next_read(&mut self) -> Tx {
        let (point, join, rows) = self.next_queries();
        Tx {
            script: format!("BEGIN; {point}; {join}; COMMIT;"),
            expect: Expect::Rows(rows.to_vec()),
        }
    }
    /// The point query and the join of a read, with their row counts.
    fn next_queries(&mut self) -> (String, String, [usize; 2]);
    /// Net row-count change per table caused by the valid transactions
    /// generated so far.
    fn model_delta(&self) -> BTreeMap<String, i64>;
    /// Keys of the rows this stream inserted and has not deleted since:
    /// what must be readable after a crash once every generated
    /// transaction was acknowledged.
    fn live_inserted_keys(&self) -> Vec<i64>;
}

// ------------------------------------------------------------------ TPC-H

/// Shares of the OLTP mix, in percent: insert an order with 1–7 lines,
/// delete a whole order, reprice an order, insert an order with no line
/// (violating `atLeastOneLineItem`).
const MIX_INSERT: u64 = 60;
const MIX_DELETE: u64 = 10;
const MIX_REPRICE: u64 = 26;

/// The assertion every violating TPC-H transaction must be rejected by.
pub const TPCH_VIOLATED: &str = "atleastonelineitem";

/// One batch of `batch_check`: orders inserted, whole orders deleted,
/// orders repriced, all in one transaction.
#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    pub inserts: usize,
    pub deletes: usize,
    pub reprices: usize,
    /// Every `violating_every`-th batch also inserts an order with no line.
    pub violating_every: u64,
}

pub struct TpchStream {
    shape: TpchShape,
    /// Lineitems of each preloaded order, indexed by order key.
    line_counts: Arc<Vec<u8>>,
    rng: Rng,
    lane: i64,
    lanes: i64,
    next_key: i64,
    /// Orders this stream may delete: its share of the lower half of the
    /// preloaded keys first, then its own inserts, oldest first.
    deletable: VecDeque<(i64, u8)>,
    batch: Option<BatchShape>,
    generated: u64,
    orders_delta: i64,
    lineitem_delta: i64,
}

/// Keys this stream inserts start here (times the lane number plus one):
/// far above any preloaded key.
const FRESH_KEY_BASE: i64 = 1_000_000_000;

impl TpchStream {
    /// The stream of connection `lane` of `lanes`: it touches only the
    /// preloaded keys congruent to `lane` modulo `lanes` and inserts into a
    /// key range of its own, so connections never conflict.
    pub fn new(
        shape: TpchShape,
        line_counts: Arc<Vec<u8>>,
        seed: u64,
        lane: usize,
        lanes: usize,
        batch: Option<BatchShape>,
    ) -> TpchStream {
        let (lane, lanes) = (lane as i64, lanes as i64);
        let mut rng = Rng::lane(seed, 1 + lane as u64);
        let mut lower: Vec<i64> = (1..=shape.orders / 2)
            .filter(|k| k % lanes == lane)
            .collect();
        for i in (1..lower.len()).rev() {
            lower.swap(i, rng.range(0, i as i64) as usize);
        }
        let deletable = lower
            .into_iter()
            .map(|k| (k, line_counts[k as usize]))
            .collect();
        TpchStream {
            shape,
            line_counts,
            rng,
            lane,
            lanes,
            next_key: FRESH_KEY_BASE * (lane + 1),
            deletable,
            batch,
            generated: 0,
            orders_delta: 0,
            lineitem_delta: 0,
        }
    }

    fn fresh_key(&mut self) -> i64 {
        self.next_key += 1;
        self.next_key
    }

    /// A preloaded order of this lane that is never deleted (upper half).
    fn stable_key(&mut self) -> i64 {
        let half = self.shape.orders / 2;
        let k = self.rng.range(half + 1, self.shape.orders - self.lanes);
        k + (self.lane - k % self.lanes).rem_euclid(self.lanes)
    }

    fn price(&mut self) -> String {
        let cents = self.rng.range(100_000, 49_999_999);
        format!("{}.{:02}", cents / 100, cents % 100)
    }

    fn push_insert(&mut self, out: &mut String) {
        let key = self.fresh_key();
        let cust = self.rng.range(1, self.shape.customers);
        let price = self.price();
        let lines = self.rng.range(1, 7);
        write!(
            out,
            "INSERT INTO orders VALUES ({key}, {cust}, {price}); INSERT INTO lineitem VALUES "
        )
        .expect("write to string");
        for ln in 1..=lines {
            let part = self.rng.range(1, self.shape.parts);
            let supp = self.shape.supplier_of(part, self.rng.range(0, 3));
            let qty = self.rng.range(1, 50);
            let sep = if ln == 1 { "" } else { ", " };
            write!(out, "{sep}({key}, {ln}, {qty}, {part}, {supp})").expect("write to string");
        }
        out.push_str("; ");
        self.orders_delta += 1;
        self.lineitem_delta += lines;
        self.deletable.push_back((key, lines as u8));
    }

    fn push_delete(&mut self, out: &mut String) {
        let (key, lines) = self
            .deletable
            .pop_front()
            .expect("inserts outnumber deletes, so the pool never drains");
        write!(
            out,
            "DELETE FROM lineitem WHERE l_orderkey = {key}; DELETE FROM orders WHERE o_orderkey = {key}; "
        )
        .expect("write to string");
        self.orders_delta -= 1;
        self.lineitem_delta -= i64::from(lines);
    }

    fn push_reprice(&mut self, out: &mut String, key: i64) {
        let price = self.price();
        write!(
            out,
            "UPDATE orders SET o_totalprice = {price} WHERE o_orderkey = {key}; "
        )
        .expect("write to string");
    }

    fn push_empty_order(&mut self, out: &mut String) {
        let key = self.fresh_key();
        let cust = self.rng.range(1, self.shape.customers);
        write!(out, "INSERT INTO orders VALUES ({key}, {cust}, 1.00); ").expect("write to string");
    }

    fn next_batch(&mut self, b: BatchShape) -> Tx {
        let violating = self.generated.is_multiple_of(b.violating_every);
        // A rejected batch leaves no trace: build it on a scratch copy of
        // the bookkeeping and keep the copy only if the batch is valid.
        let saved = violating.then(|| {
            (
                self.orders_delta,
                self.lineitem_delta,
                self.deletable.clone(),
            )
        });
        let mut script = String::with_capacity(9 * 1024);
        script.push_str("BEGIN; ");
        for _ in 0..b.inserts {
            self.push_insert(&mut script);
        }
        for _ in 0..b.deletes {
            self.push_delete(&mut script);
        }
        let mut repriced = Vec::with_capacity(b.reprices);
        while repriced.len() < b.reprices {
            let k = self.stable_key();
            if !repriced.contains(&k) {
                repriced.push(k);
                self.push_reprice(&mut script, k);
            }
        }
        let mut expect = Expect::Commit;
        if let Some((orders, lineitem, deletable)) = saved {
            self.push_empty_order(&mut script);
            (self.orders_delta, self.lineitem_delta, self.deletable) =
                (orders, lineitem, deletable);
            expect = Expect::Reject(TPCH_VIOLATED.into());
        }
        script.push_str("COMMIT;");
        Tx { script, expect }
    }
}

impl Stream for TpchStream {
    fn next_tx(&mut self) -> Tx {
        self.generated += 1;
        if let Some(b) = self.batch {
            return self.next_batch(b);
        }
        let roll = self.rng.next_u64() % 100;
        let mut script = String::with_capacity(320);
        script.push_str("BEGIN; ");
        let mut expect = Expect::Commit;
        if roll < MIX_INSERT {
            self.push_insert(&mut script);
        } else if roll < MIX_INSERT + MIX_DELETE {
            self.push_delete(&mut script);
        } else if roll < MIX_INSERT + MIX_DELETE + MIX_REPRICE {
            let k = self.stable_key();
            self.push_reprice(&mut script, k);
        } else {
            self.push_empty_order(&mut script);
            expect = Expect::Reject(TPCH_VIOLATED.into());
        }
        script.push_str("COMMIT;");
        Tx { script, expect }
    }

    fn next_queries(&mut self) -> (String, String, [usize; 2]) {
        let k = self.stable_key();
        (
            format!("SELECT * FROM orders WHERE o_orderkey = {k}"),
            format!(
                "SELECT l.l_linenumber FROM orders o, lineitem l \
                 WHERE o.o_orderkey = {k} AND l.l_orderkey = o.o_orderkey"
            ),
            [1, usize::from(self.line_counts[k as usize])],
        )
    }

    fn model_delta(&self) -> BTreeMap<String, i64> {
        BTreeMap::from([
            ("orders".to_string(), self.orders_delta),
            ("lineitem".to_string(), self.lineitem_delta),
        ])
    }

    fn live_inserted_keys(&self) -> Vec<i64> {
        self.deletable
            .iter()
            .map(|(k, _)| *k)
            .filter(|k| *k >= FRESH_KEY_BASE)
            .collect()
    }
}

// ----------------------------------------------------------- wide catalog

pub const WIDE_TABLES: usize = 16;
/// Rows preloaded into each table through SQL at set-up.
pub const WIDE_PRELOAD: i64 = 1000;
/// Rows per transaction.
const WIDE_ROWS: i64 = 8;

/// Table `w<i>` holds only keys congruent to `i` modulo the table count, so
/// a key never appears in two tables and no join assertion can be violated
/// — while its views must still be evaluated, since nothing static shows
/// that.
pub fn wide_schema_sql() -> String {
    (0..WIDE_TABLES)
        .map(|i| {
            format!("CREATE TABLE w{i} (k INT PRIMARY KEY, v INT NOT NULL, u INT NOT NULL);\n")
        })
        .collect()
}

/// 8 assertions per table: four single-table range checks, which the
/// install-time analysis turns into residual gates that non-negative
/// inserts never open, and four variable-to-variable joins to the next
/// table, which have no constant to gate on.
pub fn wide_assertions() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..WIDE_TABLES {
        let n = (i + 1) % WIDE_TABLES;
        for (j, pred) in ["v < 0", "u < 0", "v > 1000000", "u > 1000000"]
            .iter()
            .enumerate()
        {
            out.push(format!(
                "CREATE ASSERTION w{i}_range{j} CHECK (NOT EXISTS (SELECT * FROM w{i} WHERE {pred}))"
            ));
        }
        for (j, pred) in ["a.v > b.u", "a.u > b.v", "a.v < b.v", "a.u < b.u"]
            .iter()
            .enumerate()
        {
            out.push(format!(
                "CREATE ASSERTION w{i}_join{j} CHECK (NOT EXISTS (\
                 SELECT * FROM w{i} a, w{n} b WHERE a.k = b.k AND {pred}))"
            ));
        }
    }
    out
}

/// The preload of table `i` as one `INSERT`.
pub fn wide_preload_sql(i: usize, rng: &mut Rng) -> String {
    let rows: Vec<String> = (0..WIDE_PRELOAD)
        .map(|m| {
            let k = WideStream::key(i, m);
            format!("({k}, {}, {})", rng.range(0, 1000), rng.range(0, 1000))
        })
        .collect();
    format!("INSERT INTO w{i} VALUES {}", rows.join(", "))
}

pub struct WideStream {
    rng: Rng,
    /// Rows per table so far, preload included: the next key of table `i`
    /// is `i + 16 * rows[i]`.
    rows: Vec<i64>,
}

impl WideStream {
    pub fn new(seed: u64) -> WideStream {
        WideStream {
            rng: Rng::lane(seed, 101),
            rows: vec![WIDE_PRELOAD; WIDE_TABLES],
        }
    }

    fn key(table: usize, m: i64) -> i64 {
        table as i64 + WIDE_TABLES as i64 * m
    }
}

impl Stream for WideStream {
    fn next_tx(&mut self) -> Tx {
        let t = self.rng.range(0, WIDE_TABLES as i64 - 1) as usize;
        let violating = self.rng.next_u64() % 100 < 4;
        let bad_row = self.rng.range(0, WIDE_ROWS - 1);
        let mut script = String::with_capacity(256);
        write!(script, "BEGIN; INSERT INTO w{t} VALUES ").expect("write to string");
        for r in 0..WIDE_ROWS {
            let k = Self::key(t, self.rows[t] + r);
            let v = if violating && r == bad_row {
                -self.rng.range(1, 1000)
            } else {
                self.rng.range(0, 1000)
            };
            let u = self.rng.range(0, 1000);
            let sep = if r == 0 { "" } else { ", " };
            write!(script, "{sep}({k}, {v}, {u})").expect("write to string");
        }
        script.push_str("; COMMIT;");
        if violating {
            // The keys of a rejected transaction are reused by the next one.
            return Tx {
                script,
                expect: Expect::Reject(format!("w{t}_range0")),
            };
        }
        self.rows[t] += WIDE_ROWS;
        Tx {
            script,
            expect: Expect::Commit,
        }
    }

    fn next_queries(&mut self) -> (String, String, [usize; 2]) {
        // A preloaded key: present whatever this stream has inserted.
        let t = self.rng.range(0, WIDE_TABLES as i64 - 1) as usize;
        let n = (t + 1) % WIDE_TABLES;
        let k = Self::key(t, self.rng.range(0, WIDE_PRELOAD - 1));
        (
            format!("SELECT * FROM w{t} WHERE k = {k}"),
            // No key is in two tables, so the join finds the row of `a`
            // and probes `b` in vain.
            format!("SELECT a.v FROM w{t} a, w{n} b WHERE a.k = {k} AND b.k = a.k"),
            [1, 0],
        )
    }

    fn model_delta(&self) -> BTreeMap<String, i64> {
        self.rows
            .iter()
            .enumerate()
            .map(|(t, n)| (format!("w{t}"), n - WIDE_PRELOAD))
            .collect()
    }

    fn live_inserted_keys(&self) -> Vec<i64> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TpchShape {
        TpchShape {
            orders: 1000,
            customers: 100,
            parts: 200,
            suppliers: 10,
            partsupps_per_part: 4,
        }
    }

    fn scripts(seed: u64, batch: Option<BatchShape>) -> Vec<String> {
        let lines = Arc::new(vec![3u8; 1001]);
        let mut s = TpchStream::new(shape(), lines, seed, 0, 2, batch);
        (0..300)
            .flat_map(|_| [s.next_tx().script, s.next_read().script])
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        assert_eq!(scripts(7, None), scripts(7, None));
        assert_ne!(scripts(7, None), scripts(8, None));
        let b = BatchShape {
            inserts: 4,
            deletes: 1,
            reprices: 1,
            violating_every: 5,
        };
        assert_eq!(scripts(7, Some(b)), scripts(7, Some(b)));
        let wide = |seed| {
            let mut s = WideStream::new(seed);
            (0..300).map(|_| s.next_tx().script).collect::<Vec<_>>()
        };
        assert_eq!(wide(3), wide(3));
        assert_ne!(wide(3), wide(4));
    }

    #[test]
    fn lanes_touch_disjoint_preloaded_keys() {
        let lines = Arc::new(vec![3u8; 1001]);
        for lane in 0..2 {
            let mut s = TpchStream::new(shape(), lines.clone(), 1, lane, 2, None);
            for _ in 0..500 {
                let k = s.stable_key();
                assert_eq!(k % 2, lane as i64);
                assert!(k > 500 && k <= 1000);
            }
            assert!(s
                .deletable
                .iter()
                .all(|(k, _)| k % 2 == lane as i64 && *k <= 500));
        }
    }

    #[test]
    fn model_counts_valid_transactions_only() {
        let lines = Arc::new(vec![3u8; 1001]);
        let mut s = TpchStream::new(shape(), lines, 5, 0, 1, None);
        let (mut orders, mut rejected) = (0i64, 0);
        for _ in 0..2000 {
            let tx = s.next_tx();
            match tx.expect {
                Expect::Reject(_) => rejected += 1,
                _ if tx.script.contains("INSERT INTO orders") => orders += 1,
                _ if tx.script.contains("DELETE FROM orders") => orders -= 1,
                _ => {}
            }
        }
        assert!(rejected > 0);
        assert_eq!(s.model_delta()["orders"], orders);
    }

    #[test]
    fn a_violating_batch_leaves_the_model_untouched() {
        let lines = Arc::new(vec![3u8; 1001]);
        let b = BatchShape {
            inserts: 4,
            deletes: 1,
            reprices: 2,
            violating_every: 2,
        };
        let mut s = TpchStream::new(shape(), lines, 5, 0, 1, Some(b));
        let valid = s.next_tx();
        assert_eq!(valid.expect, Expect::Commit);
        let after_valid = s.model_delta().clone();
        let pool = s.deletable.len();
        let bad = s.next_tx();
        assert_eq!(bad.expect, Expect::Reject(TPCH_VIOLATED.into()));
        assert_eq!(s.model_delta(), after_valid);
        assert_eq!(s.deletable.len(), pool);
    }
}
