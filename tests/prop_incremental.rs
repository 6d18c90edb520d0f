//! Property-based test of the EDC method's central correctness theorem:
//!
//! > Given an old state that satisfies the assertions and a normalized
//! > update, the union of the EDC views is non-empty **iff** the updated
//! > state violates some assertion.
//!
//! Random (but initially consistent) database states and random update
//! batches are generated; the incremental verdict (per assertion) must match
//! the ground truth obtained by applying the update and running the original
//! assertion queries. The property is checked under three optimizer
//! configurations, which also validates the semantic optimizations.

use proptest::prelude::*;
use tintin::{EdcConfig, Tintin, TintinConfig};
use tintin_engine::{Database, ReadCtx, Value, TS_LATEST};
use tintin_session::{Server, Session, SessionError};

/// The fixed test schema: a parent/child pair (with FK) plus a third table.
fn make_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE parent (pk INT PRIMARY KEY);
         CREATE TABLE child (ck INT PRIMARY KEY, fkc INT NOT NULL REFERENCES parent);
         CREATE TABLE item (ik INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL);",
    )
    .unwrap();
    db
}

/// Assertion suite covering the fragment's shapes: existential requirement,
/// FK-style inclusion, pure selection, join, derived predicate with a
/// comparison, union, NOT IN, and depth-3 nesting.
const ASSERTIONS: &[&str] = &[
    // A1: every parent has at least one child (the running example's shape).
    "CREATE ASSERTION a1 CHECK (NOT EXISTS (
        SELECT * FROM parent p WHERE NOT EXISTS (
            SELECT * FROM child c WHERE c.fkc = p.pk)))",
    // A2: every child references an existing parent (inclusion dependency).
    "CREATE ASSERTION a2 CHECK (NOT EXISTS (
        SELECT * FROM child c WHERE NOT EXISTS (
            SELECT * FROM parent p WHERE p.pk = c.fkc)))",
    // A3: selection only.
    "CREATE ASSERTION a3 CHECK (NOT EXISTS (
        SELECT * FROM item WHERE val < 0))",
    // A4: join between two tables.
    "CREATE ASSERTION a4 CHECK (NOT EXISTS (
        SELECT * FROM child c, item i WHERE c.fkc = i.ik AND i.val > 3))",
    // A5: negated subquery with an extra comparison (derived predicate).
    "CREATE ASSERTION a5 CHECK (NOT EXISTS (
        SELECT * FROM parent p WHERE NOT EXISTS (
            SELECT * FROM child c WHERE c.fkc = p.pk AND c.ck > 0)))",
    // A6: union of two violation queries.
    "CREATE ASSERTION a6 CHECK (NOT EXISTS (
        SELECT pk FROM parent WHERE pk < 0
        UNION
        SELECT ck FROM child WHERE ck < 0))",
    // A7: NOT IN (inclusion via NOT IN).
    "CREATE ASSERTION a7 CHECK (NOT EXISTS (
        SELECT * FROM item WHERE grp NOT IN (SELECT pk FROM parent)))",
    // A8: three levels of nesting with a positive EXISTS inside.
    "CREATE ASSERTION a8 CHECK (NOT EXISTS (
        SELECT * FROM item i WHERE NOT EXISTS (
            SELECT * FROM parent p WHERE p.pk = i.grp AND EXISTS (
                SELECT * FROM child c WHERE c.fkc = p.pk))))",
];

/// One randomly generated operation of an update batch.
#[derive(Debug, Clone)]
enum Op {
    InsParent(i64),
    InsChild(i64, i64),
    InsItem(i64, i64, i64),
    DelParent(i64),
    DelChild(i64),
    DelChildrenOf(i64),
    DelItem(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Small domains so collisions (and therefore interesting interactions
    // between events and existing rows) are frequent.
    let key = 0..8i64;
    prop_oneof![
        key.clone().prop_map(Op::InsParent),
        (8..24i64, 0..8i64).prop_map(|(c, p)| Op::InsChild(c, p)),
        (24..40i64, 0..8i64, -2..6i64).prop_map(|(i, g, v)| Op::InsItem(i, g, v)),
        key.clone().prop_map(Op::DelParent),
        (8..24i64).prop_map(Op::DelChild),
        key.prop_map(Op::DelChildrenOf),
        (24..40i64).prop_map(Op::DelItem),
    ]
}

/// A consistent initial state: parents 0..n, each with ≥1 child (ck > 0),
/// items referencing existing parents with 0 ≤ val ≤ 3.
#[derive(Debug, Clone)]
struct InitialState {
    parents: Vec<i64>,
    children: Vec<(i64, i64)>,
    items: Vec<(i64, i64, i64)>,
}

fn initial_state_strategy() -> impl Strategy<Value = InitialState> {
    (1..6usize).prop_flat_map(|nparents| {
        let parents: Vec<i64> = (0..nparents as i64).collect();
        // Child keys are sequential from 8 (unique by construction); only
        // the parent reference is random.
        let child_fks = proptest::collection::vec(0..nparents as i64, nparents..nparents + 6);
        // Item keys sequential from 24; (grp, val) random but consistent
        // (grp references an existing parent, 0 ≤ val ≤ 3).
        let item_attrs = proptest::collection::vec((0..nparents as i64, 0..4i64), 0..6);
        (Just(parents), child_fks, item_attrs).prop_map(|(parents, mut child_fks, item_attrs)| {
            // Each parent gets at least one child (A1/A5).
            for (i, fk) in child_fks.iter_mut().enumerate().take(parents.len()) {
                *fk = parents[i];
            }
            let children: Vec<(i64, i64)> = child_fks
                .into_iter()
                .enumerate()
                .map(|(i, fk)| (8 + i as i64, fk))
                .collect();
            let items: Vec<(i64, i64, i64)> = item_attrs
                .into_iter()
                .enumerate()
                .map(|(i, (g, v))| (24 + i as i64, g, v))
                .collect();
            InitialState {
                parents,
                children,
                items,
            }
        })
    })
}

fn load_state(db: &mut Database, st: &InitialState) {
    db.insert_direct(
        "parent",
        st.parents.iter().map(|p| vec![Value::Int(*p)]).collect(),
    )
    .unwrap();
    db.insert_direct(
        "child",
        st.children
            .iter()
            .map(|(c, p)| vec![Value::Int(*c), Value::Int(*p)])
            .collect(),
    )
    .unwrap();
    db.insert_direct(
        "item",
        st.items
            .iter()
            .map(|(i, g, v)| vec![Value::Int(*i), Value::Int(*g), Value::Int(*v)])
            .collect(),
    )
    .unwrap();
}

/// Issue the ops through the capture layer: the base tables stay unchanged
/// and the events accumulate in `ins_*` / `del_*`.
fn apply_ops(db: &mut Database, ops: &[Op]) {
    for op in ops {
        let stmt = match op {
            Op::InsParent(p) => format!("INSERT INTO parent VALUES ({p})"),
            Op::InsChild(c, p) => format!("INSERT INTO child VALUES ({c}, {p})"),
            Op::InsItem(i, g, v) => format!("INSERT INTO item VALUES ({i}, {g}, {v})"),
            Op::DelParent(p) => format!("DELETE FROM parent WHERE pk = {p}"),
            Op::DelChild(c) => format!("DELETE FROM child WHERE ck = {c}"),
            Op::DelChildrenOf(p) => format!("DELETE FROM child WHERE fkc = {p}"),
            Op::DelItem(i) => format!("DELETE FROM item WHERE ik = {i}"),
        };
        db.execute_sql(&stmt).unwrap();
    }
}

/// Build the shared starting point: loaded state, capture enabled on every
/// table, the update batch captured as pending events.
fn captured_db(initial: &InitialState, ops: &[Op]) -> Database {
    let mut db = make_db();
    load_state(&mut db, initial);
    for t in ["parent", "child", "item"] {
        db.enable_capture(t).unwrap();
    }
    apply_ops(&mut db, ops);
    db
}

/// Dedupe insert ops by key so the apply cannot hit PK conflicts among
/// the new rows themselves, and drop inserts whose key already exists in the
/// initial state with different attributes.
fn sanitize_ops(ops: Vec<Op>, initial: &InitialState) -> Vec<Op> {
    let mut seen_p = std::collections::BTreeSet::new();
    let mut seen_c = std::collections::BTreeSet::new();
    let mut seen_i = std::collections::BTreeSet::new();
    ops.into_iter()
        .filter(|op| match op {
            Op::InsParent(p) => seen_p.insert(*p),
            Op::InsChild(c, p) => {
                // Same-key, different-attrs insert over an existing child
                // would be a PK conflict at apply; keep only identical ones.
                if initial.children.iter().any(|(ck, fk)| ck == c && fk != p) {
                    return false;
                }
                seen_c.insert(*c)
            }
            Op::InsItem(i, g, v) => {
                if initial
                    .items
                    .iter()
                    .any(|(ik, grp, val)| ik == i && (grp != g || val != v))
                {
                    return false;
                }
                seen_i.insert(*i)
            }
            _ => true,
        })
        .collect()
}

/// Ground truth: apply the captured events as versions of the next commit
/// timestamp (same INSTEAD-OF semantics the incremental checker sees) and
/// run the original assertion queries on the updated live state.
fn ground_truth(base: &Database) -> Vec<bool> {
    let mut db = base.clone();
    let (_, touched) = db.normalize_events().unwrap();
    let ts = db.next_commit_ts();
    db.apply_pending_versioned(&touched, ts)
        .expect("sanitized batches apply cleanly");
    ASSERTIONS
        .iter()
        .map(|a| {
            let tintin_sql::Statement::CreateAssertion(ca) =
                tintin_sql::parse_statement(a).unwrap()
            else {
                unreachable!()
            };
            let mut violated = false;
            for conj in ca.condition.conjuncts() {
                if let tintin_sql::Expr::Exists {
                    query,
                    negated: true,
                } = conj
                {
                    if !db.query(query, ReadCtx::LATEST).unwrap().is_empty() {
                        violated = true;
                    }
                }
            }
            violated
        })
        .collect()
}

/// The incremental verdict for a given optimizer configuration.
fn incremental_verdict(base: &Database, edc: EdcConfig) -> Vec<bool> {
    let mut db = base.clone();
    let tintin = Tintin::with_config(TintinConfig {
        edc,
        check_initial_state: true,
        ..TintinConfig::default()
    });
    // The initial state is consistent by construction; if not, the
    // generator is wrong and install fails loudly.
    let inst = tintin
        .install(&mut db, ASSERTIONS)
        .expect("initial state consistent");
    let (violations, _) = tintin.check_pending(&mut db, &inst).unwrap();
    let mut verdict = vec![false; ASSERTIONS.len()];
    for v in violations {
        let idx = v
            .assertion
            .strip_prefix('a')
            .and_then(|n| n.parse::<usize>().ok())
            .map(|n| n - 1)
            .expect("assertion index");
        verdict[idx] = true;
    }
    verdict
}

/// Render the op as the SQL statement the session will execute.
fn op_sql(op: &Op) -> String {
    match op {
        Op::InsParent(p) => format!("INSERT INTO parent VALUES ({p})"),
        Op::InsChild(c, p) => format!("INSERT INTO child VALUES ({c}, {p})"),
        Op::InsItem(i, g, v) => format!("INSERT INTO item VALUES ({i}, {g}, {v})"),
        Op::DelParent(p) => format!("DELETE FROM parent WHERE pk = {p}"),
        Op::DelChild(c) => format!("DELETE FROM child WHERE ck = {c}"),
        Op::DelChildrenOf(p) => format!("DELETE FROM child WHERE fkc = {p}"),
        Op::DelItem(i) => format!("DELETE FROM item WHERE ik = {i}"),
    }
}

/// Full observable state: every table (base *and* event), rows sorted.
fn snapshot(db: &Database) -> Vec<(String, Vec<String>)> {
    db.table_names()
        .into_iter()
        .map(|t| {
            let mut rows: Vec<String> = db
                .table(&t)
                .unwrap()
                .scan()
                .map(|(_, r)| format!("{r:?}"))
                .collect();
            rows.sort();
            (t, rows)
        })
        .collect()
}

/// The state the *session* observes: base tables read through its
/// transaction overlay (read-your-writes), rows sorted. This is what
/// `ROLLBACK` / `ROLLBACK TO` must restore under the shared-database
/// design, where the shared state itself is untouched until `COMMIT`.
fn visible_snapshot(session: &Session) -> Vec<(String, Vec<String>)> {
    ["parent", "child", "item"]
        .iter()
        .map(|t| {
            let rs = session
                .query_rows(&format!("SELECT * FROM {t}"))
                .expect("base table is queryable");
            let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            (t.to_string(), rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// The central theorem, under the default configuration.
    #[test]
    fn incremental_check_matches_ground_truth(
        initial in initial_state_strategy(),
        raw_ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let ops = sanitize_ops(raw_ops, &initial);
        let base = captured_db(&initial, &ops);
        let truth = ground_truth(&base);
        let verdict = incremental_verdict(&base, EdcConfig::default());
        prop_assert_eq!(
            &verdict, &truth,
            "incremental vs ground truth diverged\nops: {:?}\ninitial: {:?}", ops, initial
        );
    }

    /// The optimizations must not change any verdict.
    #[test]
    fn optimizations_preserve_verdicts(
        initial in initial_state_strategy(),
        raw_ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let ops = sanitize_ops(raw_ops, &initial);
        let base = captured_db(&initial, &ops);
        let default = incremental_verdict(&base, EdcConfig::default());
        let no_fk = incremental_verdict(&base, EdcConfig {
            optimize: true,
            assume_fks_valid: false,
            ..EdcConfig::default()
        });
        let raw = incremental_verdict(&base, EdcConfig {
            optimize: false,
            assume_fks_valid: false,
            ..EdcConfig::default()
        });
        prop_assert_eq!(&default, &no_fk, "FK pruning changed a verdict; ops: {:?}", ops);
        prop_assert_eq!(&default, &raw, "optimizer changed a verdict; ops: {:?}", ops);
    }

    /// After a committed safe_commit the new state satisfies every
    /// assertion; after a rejection the old state is intact.
    #[test]
    fn safe_commit_postconditions(
        initial in initial_state_strategy(),
        raw_ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let ops = sanitize_ops(raw_ops, &initial);
        let mut db = captured_db(&initial, &ops);
        let tintin = Tintin::new();
        let inst = tintin.install(&mut db, ASSERTIONS).expect("consistent start");
        let before: Vec<usize> = ["parent", "child", "item"]
            .iter()
            .map(|t| db.table(t).unwrap().len())
            .collect();
        let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
        if outcome.is_committed() {
            let checks = tintin.check_current_state(&db, &inst).unwrap();
            prop_assert!(
                checks.iter().all(|(_, n)| *n == 0),
                "committed state violates an assertion: {:?}; ops {:?}", checks, ops
            );
        } else {
            let after: Vec<usize> = ["parent", "child", "item"]
                .iter()
                .map(|t| db.table(t).unwrap().len())
                .collect();
            prop_assert_eq!(&before, &after, "rejected update mutated the db");
        }
        prop_assert_eq!(db.pending_counts(TS_LATEST), (0, 0), "events not truncated");
    }

    /// `BEGIN; <random DML>; ROLLBACK` is a no-op on the state the session
    /// observes — and the *shared* database never sees the uncommitted
    /// work at any point, even when the transaction starts with pending
    /// events already staged in the shared event tables.
    #[test]
    fn begin_dml_rollback_is_a_noop(
        initial in initial_state_strategy(),
        pre_ops in proptest::collection::vec(op_strategy(), 0..5),
        tx_ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let pre_ops = sanitize_ops(pre_ops, &initial);
        let db = captured_db(&initial, &pre_ops);
        let mut session = Session::with_database(db);

        let shared_before = snapshot(&session.database().read());
        let visible_before = visible_snapshot(&session);
        session.execute("BEGIN").unwrap();
        for op in &tx_ops {
            // Individual statements may legitimately fail; failures must
            // not break rollback either.
            let _ = session.execute(&op_sql(op));
        }
        prop_assert_eq!(
            snapshot(&session.database().read()),
            shared_before,
            "uncommitted work leaked into the shared database; tx_ops: {:?}",
            tx_ops
        );
        session.execute("ROLLBACK").unwrap();
        prop_assert_eq!(
            snapshot(&session.database().read()),
            shared_before,
            "rollback was not a no-op on the shared state; tx_ops: {:?}",
            tx_ops
        );
        prop_assert_eq!(
            visible_snapshot(&session),
            visible_before,
            "rollback was not a no-op on the visible state; tx_ops: {:?}",
            tx_ops
        );
    }

    /// `ROLLBACK TO <savepoint>` restores exactly the state the session
    /// observed at the savepoint and is replayable: more DML followed by
    /// another `ROLLBACK TO` lands on the same state again.
    #[test]
    fn rollback_to_savepoint_is_replayable(
        initial in initial_state_strategy(),
        ops_a in proptest::collection::vec(op_strategy(), 1..6),
        ops_b in proptest::collection::vec(op_strategy(), 1..6),
        ops_c in proptest::collection::vec(op_strategy(), 1..6),
    ) {
        let db = captured_db(&initial, &[]);
        let mut session = Session::with_database(db);
        let shared_before = snapshot(&session.database().read());

        session.execute("BEGIN").unwrap();
        for op in &ops_a {
            let _ = session.execute(&op_sql(op));
        }
        session.execute("SAVEPOINT mark").unwrap();
        let at_mark = visible_snapshot(&session);
        let pending_at_mark = session.pending_counts();

        for op in &ops_b {
            let _ = session.execute(&op_sql(op));
        }
        session.execute("ROLLBACK TO mark").unwrap();
        prop_assert_eq!(
            visible_snapshot(&session),
            at_mark,
            "first ROLLBACK TO missed the mark; ops_b: {:?}",
            ops_b
        );
        prop_assert_eq!(session.pending_counts(), pending_at_mark);

        for op in &ops_c {
            let _ = session.execute(&op_sql(op));
        }
        session.execute("ROLLBACK TO mark").unwrap();
        prop_assert_eq!(
            visible_snapshot(&session),
            at_mark,
            "second ROLLBACK TO missed the mark; ops_c: {:?}",
            ops_c
        );

        session.execute("ROLLBACK").unwrap();
        prop_assert_eq!(session.pending_counts(), (0, 0));
        prop_assert_eq!(
            snapshot(&session.database().read()),
            shared_before,
            "the whole transaction must leave the shared database untouched"
        );
    }

    // ------------------------------------------- MVCC snapshot isolation

    /// (a) Snapshot stability: a reader's repeated `SELECT` inside an open
    /// transaction is byte-identical across any number of concurrent
    /// committed writes, for random write batches at random interleaving
    /// points — and a fresh session afterwards sees the latest state, not
    /// the reader's snapshot.
    #[test]
    fn snapshot_reads_are_repeatable_across_concurrent_commits(
        initial in initial_state_strategy(),
        batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..4), 1..4),
    ) {
        let server = Server::with_database(captured_db(&initial, &[]));
        let reader = server.connect();
        let mut writer = server.connect();

        let mut reader = reader;
        reader.execute("BEGIN").unwrap();
        let first = visible_snapshot(&reader);
        for batch in &batches {
            // The writer commits (or fails to commit — either is fine for
            // the property) a random batch between the reader's reads.
            let _ = writer.execute("BEGIN");
            for op in batch {
                let _ = writer.execute(&op_sql(op));
            }
            let _ = writer.execute("COMMIT");
            prop_assert_eq!(
                visible_snapshot(&reader),
                first.clone(),
                "snapshot read changed under a concurrent commit; batch: {:?}",
                batch
            );
        }
        reader.execute("ROLLBACK").unwrap();
        // Outside the transaction the same session reads the latest
        // committed state — identical to what a fresh session sees.
        prop_assert_eq!(
            visible_snapshot(&reader),
            visible_snapshot(&server.connect()),
            "post-transaction reads must observe the latest committed state"
        );
    }

    /// (b) The visible-state equation: inside a transaction the session
    /// observes exactly `(snapshot − del) ∪ ins` — the `BEGIN`-time state
    /// transformed by its own statements alone. The reference is a second
    /// session over an isolated deep copy of the `BEGIN`-time database
    /// executing the same statements; concurrent autocommits on the shared
    /// database (which the reference cannot see) must not make the two
    /// diverge.
    #[test]
    fn visible_state_is_snapshot_minus_del_plus_ins(
        initial in initial_state_strategy(),
        tx_ops in proptest::collection::vec(op_strategy(), 1..8),
        concurrent in proptest::collection::vec(op_strategy(), 0..6),
    ) {
        let server = Server::with_database(captured_db(&initial, &[]));
        let mut session = server.connect();
        let mut other = server.connect();

        session.execute("BEGIN").unwrap();
        let mut reference = Session::with_database(server.database().snapshot());
        reference.execute("BEGIN").unwrap();

        for (i, op) in tx_ops.iter().enumerate() {
            if let Some(c) = concurrent.get(i) {
                // Concurrent committed writes, invisible to the snapshot.
                let _ = other.execute(&op_sql(c));
            }
            let in_session = session.execute(&op_sql(op));
            let in_reference = reference.execute(&op_sql(op));
            prop_assert_eq!(
                in_session.is_ok(),
                in_reference.is_ok(),
                "statement outcome diverged from the isolated reference: \
                 {:?} vs {:?}; op: {:?}",
                in_session.err().map(|e| e.to_string()),
                in_reference.err().map(|e| e.to_string()),
                op
            );
            prop_assert_eq!(
                visible_snapshot(&session),
                visible_snapshot(&reference),
                "visible state diverged from (snapshot − del) ∪ ins after op {:?}",
                op
            );
        }
        session.execute("ROLLBACK").unwrap();
        reference.execute("ROLLBACK").unwrap();
    }

    /// (c) Write-skew on primary-key rows: two transactions insert
    /// overlapping key sets and race their commits. The first committer
    /// wins everything; the second either commits too (disjoint keys) or
    /// loses with a serialization conflict (overlap) — and no committed
    /// state is ever lost either way.
    #[test]
    fn pk_write_skew_has_exactly_one_winner(
        raw_a in proptest::collection::vec(0..6i64, 1..4),
        raw_b in proptest::collection::vec(0..6i64, 1..4),
    ) {
        let keys_a: std::collections::BTreeSet<i64> = raw_a.into_iter().collect();
        let keys_b: std::collections::BTreeSet<i64> = raw_b.into_iter().collect();
        let server = Server::new();
        server
            .connect()
            .execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        let mut a = server.connect();
        let mut b = server.connect();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        for k in &keys_a {
            a.execute(&format!("INSERT INTO t VALUES ({k}, 100)")).unwrap();
        }
        for k in &keys_b {
            b.execute(&format!("INSERT INTO t VALUES ({k}, 200)")).unwrap();
        }
        let first = a.execute("COMMIT").unwrap();
        prop_assert!(first[0].is_committed(), "first committer must win: {:?}", first);
        let second = b.execute("COMMIT");
        let overlap = keys_a.intersection(&keys_b).count() > 0;

        // Expected final state: A's rows always survive; B's join them only
        // when no key overlapped (first-committer-wins is all-or-nothing).
        let mut expected: Vec<(i64, i64)> = keys_a.iter().map(|k| (*k, 100)).collect();
        if overlap {
            prop_assert!(
                matches!(
                    second.as_ref().map_err(|e| &e.error),
                    Err(SessionError::SerializationConflict { .. })
                ),
                "overlapping insert must lose with a conflict, got {:?}",
                second.map(|o| format!("{o:?}"))
            );
        } else {
            let out = second.unwrap();
            prop_assert!(out[0].is_committed(), "disjoint commit rejected: {:?}", out);
            expected.extend(keys_b.iter().map(|k| (*k, 200)));
        }
        expected.sort_unstable();

        let rs = server
            .connect()
            .query_rows("SELECT k, v FROM t ORDER BY k")
            .unwrap();
        let got: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                other => panic!("non-int row {other:?}"),
            })
            .collect();
        prop_assert_eq!(got, expected, "committed state lost or corrupted");
    }
}
