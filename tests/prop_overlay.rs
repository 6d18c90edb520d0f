//! Differential property test of the transaction path: random
//! multi-statement transactions against a keyed and a keyless table,
//! checked statement by statement against the *definition* of what a
//! transaction observes,
//!
//! ```text
//! visible = (snapshot − del) ∪ ins
//! ```
//!
//! kept here as three plain row vectors per table and evaluated by linear
//! scans — the naive model the engine's indexed overlay must agree with.
//! Every in-transaction `SELECT`, every `rows_affected`, every
//! statement-time `UniqueViolation` (index and key), the pending rows *in
//! proposal order*, and the committed state are compared; after every step
//! the overlay's own invariant (its indexes describe exactly its rows) is
//! asserted.
//!
//! The generator aims at the cases an indexed overlay can get wrong:
//! duplicate inserts within and across statements, delete-then-reinsert of
//! an identical row, `UPDATE` / `DELETE` of a pending row (retractions),
//! NULLs in a unique column (exempt), key clashes inside one statement and
//! against earlier statements, and `SAVEPOINT` / `ROLLBACK TO` / `RELEASE`
//! in the middle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tintin_engine::{EngineError, Row, Value};
use tintin_session::{Session, SessionError, StatementOutcome};

// ------------------------------------------------------------------ model

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tab {
    /// `k (id INT PRIMARY KEY, u INT UNIQUE, v INT NOT NULL)`
    Keyed,
    /// `b (x INT, y INT)` — no key at all.
    Keyless,
}

impl Tab {
    fn name(self) -> &'static str {
        match self {
            Tab::Keyed => "k",
            Tab::Keyless => "b",
        }
    }

    /// Unique indexes as `(index name, key columns)`, in the engine's
    /// index order.
    fn unique(self) -> &'static [(&'static str, &'static [usize])] {
        match self {
            Tab::Keyed => &[("k_pkey", &[0]), ("k_uniq0", &[1])],
            Tab::Keyless => &[],
        }
    }
}

type R = Vec<Option<i64>>;

/// One table of the model: committed rows plus the open transaction's
/// pending insertions and deletions, each in the order they arrived.
#[derive(Clone, Default, Debug)]
struct ModelTable {
    snapshot: Vec<R>,
    ins: Vec<R>,
    del: Vec<R>,
}

impl ModelTable {
    /// Surviving committed rows, then pending insertions.
    fn visible(&self) -> Vec<R> {
        self.surviving().chain(self.ins.iter().cloned()).collect()
    }

    fn surviving(&self) -> impl Iterator<Item = R> + '_ {
        self.snapshot
            .iter()
            .filter(|r| !self.del.contains(r))
            .cloned()
    }
}

#[derive(Clone, Copy, Debug)]
enum Pred {
    All,
    Eq(usize, i64),
    Lt(usize, i64),
}

impl Pred {
    fn holds(self, r: &R) -> bool {
        match self {
            Pred::All => true,
            Pred::Eq(c, k) => r[c] == Some(k),
            Pred::Lt(c, k) => r[c].is_some_and(|v| v < k),
        }
    }

    fn sql(self, t: Tab) -> String {
        let col = |c: usize| column(t, c);
        match self {
            Pred::All => String::new(),
            Pred::Eq(c, k) => format!(" WHERE {} = {k}", col(c)),
            Pred::Lt(c, k) => format!(" WHERE {} < {k}", col(c)),
        }
    }
}

fn column(t: Tab, c: usize) -> &'static str {
    match t {
        Tab::Keyed => ["id", "u", "v"][c],
        Tab::Keyless => ["x", "y"][c],
    }
}

#[derive(Clone, Copy, Debug)]
enum Assign {
    /// `SET col = const`
    Const(usize, i64),
    /// `SET col = col + const`
    Add(usize, i64),
}

impl Assign {
    fn apply(self, r: &R) -> R {
        let mut out = r.clone();
        match self {
            Assign::Const(c, k) => out[c] = Some(k),
            Assign::Add(c, k) => out[c] = r[c].map(|v| v + k),
        }
        out
    }

    fn sql(self, t: Tab) -> String {
        match self {
            Assign::Const(c, k) => format!("{} = {k}", column(t, c)),
            Assign::Add(c, k) => format!("{0} = {0} + {k}", column(t, c)),
        }
    }
}

/// What a statement's planned insertions must fit into: the table as the
/// statement leaves it, minus the row being judged.
fn unique_violation(t: Tab, after: &[R], new_rows: &[R]) -> Option<(String, String)> {
    for row in new_rows {
        for (index, cols) in t.unique() {
            if cols.iter().any(|&c| row[c].is_none()) {
                continue; // NULL keys are exempt
            }
            let clash = after
                .iter()
                .any(|other| other != row && cols.iter().all(|&c| other[c] == row[c]));
            if clash {
                let key: Vec<String> = cols.iter().map(|&c| row[c].unwrap().to_string()).collect();
                return Some((index.to_string(), format!("({})", key.join(", "))));
            }
        }
    }
    None
}

/// The naive statement semantics. `Err` carries the expected
/// `(index, key)` of the statement-time unique violation; on `Ok` the model
/// is updated and the expected `rows_affected` returned.
impl ModelTable {
    fn insert(&mut self, t: Tab, rows: &[R]) -> Result<usize, (String, String)> {
        let mut kept: Vec<R> = Vec::new();
        let visible = self.visible();
        for r in rows {
            if !visible.contains(r) && !kept.contains(r) {
                kept.push(r.clone());
            }
        }
        let mut after = visible;
        after.extend(kept.iter().cloned());
        if let Some(v) = unique_violation(t, &after, &kept) {
            return Err(v);
        }
        self.ins.extend(kept);
        Ok(rows.len())
    }

    fn delete(&mut self, pred: Pred) -> usize {
        let base: Vec<R> = self.surviving().filter(|r| pred.holds(r)).collect();
        let pending: Vec<R> = self.ins.iter().filter(|r| pred.holds(r)).cloned().collect();
        for r in &pending {
            let i = self.ins.iter().position(|x| x == r).unwrap();
            self.ins.remove(i);
        }
        for r in &base {
            if !self.del.contains(r) {
                self.del.push(r.clone());
            }
        }
        base.len() + pending.len()
    }

    fn update(&mut self, t: Tab, set: Assign, pred: Pred) -> Result<usize, (String, String)> {
        let base: Vec<R> = self.surviving().filter(|r| pred.holds(r)).collect();
        let pending: Vec<R> = self.ins.iter().filter(|r| pred.holds(r)).cloned().collect();
        let matched = base.len() + pending.len();
        let mut next = self.clone();
        let mut new_rows = Vec::new();
        for (old, from_pending) in base
            .iter()
            .map(|r| (r, false))
            .chain(pending.iter().map(|r| (r, true)))
        {
            let new = set.apply(old);
            if new == *old {
                continue;
            }
            if from_pending {
                let i = next.ins.iter().position(|x| x == old).unwrap();
                next.ins.remove(i);
            } else if !next.del.contains(old) {
                next.del.push(old.clone());
            }
            new_rows.push(new);
        }
        // Set semantics over the state the statement leaves behind.
        let mut kept: Vec<R> = Vec::new();
        let visible = next.visible();
        for r in new_rows {
            if !visible.contains(&r) && !kept.contains(&r) {
                kept.push(r);
            }
        }
        let mut after = visible;
        after.extend(kept.iter().cloned());
        if let Some(v) = unique_violation(t, &after, &kept) {
            return Err(v);
        }
        next.ins.extend(kept);
        *self = next;
        Ok(matched)
    }

    /// `(inserted, deleted)` a commit reports, and the new committed state.
    fn commit(&mut self) -> (usize, usize) {
        let cancelled = self.ins.iter().filter(|r| self.del.contains(r)).count();
        let counts = (self.ins.len() - cancelled, self.del.len() - cancelled);
        // A deleted-and-reinserted row cancels out: it stays where it was.
        let mut next: Vec<R> = self
            .snapshot
            .iter()
            .filter(|r| !self.del.contains(r) || self.ins.contains(r))
            .cloned()
            .collect();
        for r in &self.ins {
            if !next.contains(r) {
                next.push(r.clone());
            }
        }
        *self = ModelTable {
            snapshot: next,
            ..ModelTable::default()
        };
        counts
    }
}

#[derive(Clone, Default, Debug)]
struct Model {
    keyed: ModelTable,
    keyless: ModelTable,
}

impl Model {
    fn table(&mut self, t: Tab) -> &mut ModelTable {
        match t {
            Tab::Keyed => &mut self.keyed,
            Tab::Keyless => &mut self.keyless,
        }
    }
}

// ----------------------------------------------------------------- engine

fn to_model(row: &Row) -> R {
    row.iter()
        .map(|v| match v {
            Value::Null => None,
            Value::Int(i) => Some(*i),
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

fn sql_row(r: &R) -> String {
    let vals: Vec<String> = r
        .iter()
        .map(|v| v.map_or("NULL".to_string(), |i| i.to_string()))
        .collect();
    format!("({})", vals.join(", "))
}

fn sorted(mut rows: Vec<R>) -> Vec<R> {
    rows.sort();
    rows
}

struct Harness {
    session: Session,
    model: Model,
    /// Savepoint stack of the open transaction: name and model at the time.
    savepoints: Vec<(String, Model)>,
    in_tx: bool,
    trace: Vec<String>,
}

impl Harness {
    fn new() -> Harness {
        let mut session = Session::new();
        session
            .execute(
                "CREATE TABLE k (id INT PRIMARY KEY, u INT UNIQUE, v INT NOT NULL);
                 CREATE TABLE b (x INT, y INT);",
            )
            .expect("schema");
        Harness {
            session,
            model: Model::default(),
            savepoints: Vec::new(),
            in_tx: false,
            trace: Vec::new(),
        }
    }

    fn fail(&self, msg: &str) -> ! {
        panic!("{msg}\ntrace:\n  {}", self.trace.join("\n  "));
    }

    fn run(&mut self, sql: &str) -> Result<StatementOutcome, SessionError> {
        self.trace.push(sql.to_string());
        match self.session.execute(sql) {
            Ok(mut out) => Ok(out.pop().expect("one statement, one outcome")),
            Err(e) => Err(e.error),
        }
    }

    /// A DML statement whose model verdict is `expected`.
    fn dml(&mut self, sql: &str, expected: &Result<usize, (String, String)>) {
        let got = self.run(sql);
        match (&got, expected) {
            (Ok(StatementOutcome::RowsAffected(n)), Ok(m)) if n == m => {}
            // An autocommitted statement reports the commit, not the count.
            (Ok(StatementOutcome::Committed { .. }), Ok(_)) if !self.in_tx => {}
            (
                Err(SessionError::Engine(EngineError::UniqueViolation { index, key, .. })),
                Err((mi, mk)),
            ) if index == mi && key == mk => {}
            _ => self.fail(&format!("`{sql}`: engine {got:?}, model {expected:?}")),
        }
    }

    /// Compare everything observable with the model.
    fn check(&mut self) {
        for t in [Tab::Keyed, Tab::Keyless] {
            let m = self.model.table(t).clone();
            let rs = self
                .session
                .query_rows(&format!("SELECT * FROM {}", t.name()))
                .unwrap_or_else(|e| self.fail(&format!("select failed: {e}")));
            let got: Vec<R> = rs.rows.iter().map(to_model).collect();
            if sorted(got.clone()) != sorted(m.visible()) {
                self.fail(&format!(
                    "{}: engine sees {got:?}, model {:?}",
                    t.name(),
                    m.visible()
                ));
            }
            // Pending rows, in proposal order.
            let overlay = self.session.pending_overlay().unwrap_or_default();
            overlay.assert_consistent();
            let (ins, del): (Vec<R>, Vec<R>) = match overlay.delta(t.name()) {
                Some(d) => (
                    d.ins_rows().map(to_model).collect(),
                    d.del_rows().iter().map(to_model).collect(),
                ),
                None => (Vec::new(), Vec::new()),
            };
            if ins != m.ins || del != m.del {
                self.fail(&format!(
                    "{}: overlay ins {ins:?} del {del:?}, model ins {:?} del {:?}",
                    t.name(),
                    m.ins,
                    m.del
                ));
            }
        }
    }

    fn filtered_select(&mut self, t: Tab, pred: Pred) {
        let sql = format!("SELECT * FROM {}{}", t.name(), pred.sql(t));
        self.trace.push(sql.clone());
        let rs = self
            .session
            .query_rows(&sql)
            .unwrap_or_else(|e| self.fail(&format!("`{sql}` failed: {e}")));
        let got: Vec<R> = rs.rows.iter().map(to_model).collect();
        let want: Vec<R> = self
            .model
            .table(t)
            .visible()
            .into_iter()
            .filter(|r| pred.holds(r))
            .collect();
        if sorted(got.clone()) != sorted(want.clone()) {
            self.fail(&format!("`{sql}`: engine {got:?}, model {want:?}"));
        }
    }

    fn commit(&mut self) {
        let (ki, kd) = self.model.keyed.commit();
        let (bi, bd) = self.model.keyless.commit();
        match self.run("COMMIT") {
            Ok(StatementOutcome::Committed {
                inserted, deleted, ..
            }) if (inserted, deleted) == (ki + bi, kd + bd) => {}
            other => self.fail(&format!(
                "COMMIT: engine {other:?}, model inserted {} deleted {}",
                ki + bi,
                kd + bd
            )),
        }
        self.in_tx = false;
        self.savepoints.clear();
    }
}

// -------------------------------------------------------------- generator

/// Small domains, so identical rows and key clashes are common.
fn gen_row(rng: &mut StdRng, t: Tab) -> R {
    match t {
        Tab::Keyed => vec![
            Some(rng.gen_range(0..8)),
            if rng.gen_bool(0.35) {
                None
            } else {
                Some(rng.gen_range(0..8))
            },
            Some(rng.gen_range(0..3)),
        ],
        Tab::Keyless => vec![
            if rng.gen_bool(0.15) {
                None
            } else {
                Some(rng.gen_range(0..4))
            },
            Some(rng.gen_range(0..3)),
        ],
    }
}

fn gen_pred(rng: &mut StdRng, t: Tab) -> Pred {
    let cols = if t == Tab::Keyed { 3 } else { 2 };
    match rng.gen_range(0..6) {
        0 => Pred::All,
        1 | 2 => Pred::Eq(0, rng.gen_range(0..8)),
        3 => Pred::Eq(rng.gen_range(1..cols), rng.gen_range(0..4)),
        _ => Pred::Lt(rng.gen_range(0..cols), rng.gen_range(0..6)),
    }
}

fn gen_assign(rng: &mut StdRng, t: Tab) -> Assign {
    match (t, rng.gen_range(0..5)) {
        (Tab::Keyed, 0) => Assign::Add(0, rng.gen_range(1..3)), // shifts keys
        (Tab::Keyed, 1) => Assign::Const(1, rng.gen_range(0..8)), // may clash on u
        (Tab::Keyed, _) => Assign::Add(2, 1),
        (Tab::Keyless, 0) => Assign::Const(0, rng.gen_range(0..4)), // may collapse rows
        (Tab::Keyless, _) => Assign::Const(1, rng.gen_range(0..3)),
    }
}

fn step(h: &mut Harness, rng: &mut StdRng) {
    let t = if rng.gen_bool(0.6) {
        Tab::Keyed
    } else {
        Tab::Keyless
    };
    match rng.gen_range(0..20) {
        0..=6 => {
            // Multi-row INSERT; sometimes repeat a row inside the statement
            // or re-insert a row that is (or was) visible.
            let mut rows: Vec<R> = (0..rng.gen_range(1..4)).map(|_| gen_row(rng, t)).collect();
            if rng.gen_bool(0.25) {
                rows.push(rows[0].clone());
            }
            if rng.gen_bool(0.3) {
                let m = h.model.table(t);
                let pool: Vec<R> = m.snapshot.iter().chain(&m.ins).cloned().collect();
                if !pool.is_empty() {
                    rows.push(pool[rng.gen_range(0..pool.len())].clone());
                }
            }
            let vals: Vec<String> = rows.iter().map(sql_row).collect();
            let sql = format!("INSERT INTO {} VALUES {}", t.name(), vals.join(", "));
            let mut m = h.model.table(t).clone();
            let expected = m.insert(t, &rows);
            if expected.is_ok() {
                *h.model.table(t) = m;
            }
            h.dml(&sql, &expected);
        }
        7..=9 => {
            let pred = gen_pred(rng, t);
            let sql = format!("DELETE FROM {}{}", t.name(), pred.sql(t));
            let n = h.model.table(t).delete(pred);
            h.dml(&sql, &Ok(n));
        }
        10..=12 => {
            let (set, pred) = (gen_assign(rng, t), gen_pred(rng, t));
            let sql = format!("UPDATE {} SET {}{}", t.name(), set.sql(t), pred.sql(t));
            let expected = h.model.table(t).update(t, set, pred);
            h.dml(&sql, &expected);
        }
        13 | 14 => {
            let pred = gen_pred(rng, t);
            h.filtered_select(t, pred);
        }
        15 if h.in_tx => {
            let name = format!("s{}", rng.gen_range(0..3));
            h.run(&format!("SAVEPOINT {name}")).expect("savepoint");
            h.savepoints.retain(|(n, _)| *n != name);
            h.savepoints.push((name, h.model.clone()));
        }
        16 if h.in_tx && !h.savepoints.is_empty() => {
            let i = rng.gen_range(0..h.savepoints.len());
            let name = h.savepoints[i].0.clone();
            h.run(&format!("ROLLBACK TO {name}")).expect("rollback to");
            h.savepoints.truncate(i + 1);
            h.model = h.savepoints[i].1.clone();
        }
        17 if h.in_tx && !h.savepoints.is_empty() => {
            let i = rng.gen_range(0..h.savepoints.len());
            let name = h.savepoints[i].0.clone();
            h.run(&format!("RELEASE {name}")).expect("release");
            h.savepoints.truncate(i);
        }
        18 if h.in_tx => h.commit(),
        19 if h.in_tx => {
            h.run("ROLLBACK").expect("rollback");
            for t in [Tab::Keyed, Tab::Keyless] {
                let m = h.model.table(t);
                m.ins.clear();
                m.del.clear();
            }
            h.in_tx = false;
            h.savepoints.clear();
        }
        _ => {}
    }
    if !h.in_tx {
        // Outside a transaction every statement autocommitted.
        h.model.keyed.commit();
        h.model.keyless.commit();
        if rng.gen_bool(0.7) {
            h.run("BEGIN").expect("begin");
            h.in_tx = true;
        }
    }
    h.check();
}

#[test]
fn indexed_overlay_agrees_with_the_naive_model() {
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(0x0ea7_1a1d ^ seed);
        let mut h = Harness::new();
        for _ in 0..120 {
            step(&mut h, &mut rng);
        }
        if h.in_tx {
            h.commit();
            h.check();
        }
    }
}

/// The cases the issue names, spelled out once each so a regression reads
/// as a sentence rather than a seed.
#[test]
fn named_edge_cases() {
    let mut h = Harness::new();
    let row = |vals: &[Option<i64>]| vals.to_vec();
    h.run("INSERT INTO k VALUES (1, 1, 0), (2, NULL, 0), (3, NULL, 0)")
        .expect("preload");
    h.model.keyed.snapshot = vec![
        row(&[Some(1), Some(1), Some(0)]),
        row(&[Some(2), None, Some(0)]),
        row(&[Some(3), None, Some(0)]),
    ];
    h.check();
    h.run("BEGIN").expect("begin");
    h.in_tx = true;

    // Delete-then-reinsert of an identical row: pending on both sides, one
    // visible copy, cancelled at commit.
    let n = h.model.keyed.delete(Pred::Eq(0, 1));
    h.dml("DELETE FROM k WHERE id = 1", &Ok(n));
    let rows = [row(&[Some(1), Some(1), Some(0)])];
    let e = h.model.keyed.insert(Tab::Keyed, &rows);
    h.dml("INSERT INTO k VALUES (1, 1, 0)", &e);
    h.check();

    // Intra-statement clash: two different rows, one primary key.
    let rows = [
        row(&[Some(5), None, Some(0)]),
        row(&[Some(5), None, Some(1)]),
    ];
    let e = h.model.keyed.clone().insert(Tab::Keyed, &rows);
    assert_eq!(e, Err(("k_pkey".into(), "(5)".into())));
    h.dml("INSERT INTO k VALUES (5, NULL, 0), (5, NULL, 1)", &e);

    // Cross-statement clash on the UNIQUE column, against a pending row.
    let rows = [row(&[Some(6), Some(7), Some(0)])];
    let e = h.model.keyed.insert(Tab::Keyed, &rows);
    h.dml("INSERT INTO k VALUES (6, 7, 0)", &e);
    let rows = [row(&[Some(8), Some(7), Some(0)])];
    let e = h.model.keyed.clone().insert(Tab::Keyed, &rows);
    assert_eq!(e, Err(("k_uniq0".into(), "(7)".into())));
    h.dml("INSERT INTO k VALUES (8, 7, 0)", &e);
    h.check();

    // The clash disappears once the pending row is updated away, inside a
    // savepoint — and comes back when the savepoint is rolled back.
    h.run("SAVEPOINT s").expect("savepoint");
    let saved = h.model.clone();
    let e = h
        .model
        .keyed
        .update(Tab::Keyed, Assign::Const(1, 4), Pred::Eq(0, 6));
    h.dml("UPDATE k SET u = 4 WHERE id = 6", &e);
    let rows = [row(&[Some(8), Some(7), Some(0)])];
    let e = h.model.keyed.insert(Tab::Keyed, &rows);
    assert!(e.is_ok());
    h.dml("INSERT INTO k VALUES (8, 7, 0)", &e);
    h.check();
    h.run("ROLLBACK TO s").expect("rollback to");
    h.model = saved;
    h.check();
    let e = h.model.keyed.clone().insert(Tab::Keyed, &rows);
    assert_eq!(e, Err(("k_uniq0".into(), "(7)".into())));
    h.dml("INSERT INTO k VALUES (8, 7, 0)", &e);

    // NULLs in the unique column never clash.
    let rows = [
        row(&[Some(9), None, Some(0)]),
        row(&[Some(10), None, Some(0)]),
    ];
    let e = h.model.keyed.insert(Tab::Keyed, &rows);
    assert!(e.is_ok());
    h.dml("INSERT INTO k VALUES (9, NULL, 0), (10, NULL, 0)", &e);
    h.check();
    h.commit();
    h.check();
}
