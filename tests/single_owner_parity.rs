//! The single-owner API and the server run one DML planner and one
//! `safeCommit`. The same update script, committed through
//! [`Tintin::safe_commit`] on an owned [`Database`] and through a
//! [`Session`] on a server, must give the same verdicts, the same rows
//! affected, the same data and the same commit clock; without assertions,
//! every statement run by [`Database::execute_sql`] must match the server's
//! autocommit. The rest pins the versioned path's bookkeeping: engine-level
//! DML keeps open snapshots intact, a rejected full recheck withdraws its
//! versions, a commit of nothing does not tick the clock, and garbage
//! collection keeps a long single-owner history bounded.

use tintin::{CommitOutcome, Installation, Tintin};
use tintin_engine::{Database, ReadCtx, SharedDatabase, StatementResult, Value, TS_LATEST};
use tintin_session::{Session, StatementOutcome};

const SCHEMA: &str = "
    CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_total REAL NOT NULL);
    CREATE TABLE lineitem (
        l_orderkey INT NOT NULL REFERENCES orders,
        l_linenumber INT NOT NULL,
        l_qty INT NOT NULL,
        PRIMARY KEY (l_orderkey, l_linenumber));
    CREATE TABLE notes (n INT NOT NULL, tag INT);";

const ASSERTIONS: [&str; 3] = [
    "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
         SELECT * FROM orders o WHERE NOT EXISTS (
             SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))",
    "CREATE ASSERTION positiveQty CHECK (NOT EXISTS (
         SELECT * FROM lineitem WHERE l_qty <= 0))",
    "CREATE ASSERTION nonNegativeNotes CHECK (NOT EXISTS (
         SELECT * FROM notes WHERE n < 0))",
];

const DUMPS: [&str; 3] = [
    "SELECT * FROM orders ORDER BY o_orderkey",
    "SELECT * FROM lineitem ORDER BY l_orderkey, l_linenumber",
    "SELECT * FROM notes ORDER BY n, tag",
];

/// One transaction's DML each; commits and rejects interleaved, plus
/// updates that normalize away (delete and re-insert of the same row).
/// `notes` is keyless: duplicate insertions are set-semantics no-ops on
/// every path. Every DML form appears: `INSERT … VALUES` and `INSERT …
/// SELECT`, `DELETE` with and without a predicate, a key-shifting
/// `UPDATE`, one that matches nothing, and `TRUNCATE`.
const SCRIPT: [&str; 23] = [
    "INSERT INTO orders VALUES (1, 10.0); INSERT INTO lineitem VALUES (1, 1, 5), (1, 2, 7)",
    "INSERT INTO orders VALUES (2, 20.0)",
    "INSERT INTO orders VALUES (2, 20.0); INSERT INTO lineitem VALUES (2, 1, 3)",
    "DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1",
    "DELETE FROM lineitem WHERE l_orderkey = 1",
    "UPDATE lineitem SET l_qty = 0 WHERE l_orderkey = 2",
    "UPDATE lineitem SET l_qty = l_qty + 1",
    "DELETE FROM lineitem WHERE l_orderkey = 1; DELETE FROM orders WHERE o_orderkey = 1",
    "INSERT INTO orders VALUES (3, 30.0); INSERT INTO lineitem VALUES (3, 1, 1), (3, 2, 2)",
    "UPDATE orders SET o_total = 99.0 WHERE o_orderkey = 2",
    "DELETE FROM orders WHERE o_orderkey = 3; INSERT INTO orders VALUES (3, 30.0)",
    "DELETE FROM lineitem WHERE l_orderkey = 3 AND l_linenumber = 2",
    "INSERT INTO notes VALUES (1, 1), (1, 1), (2, NULL)",
    "INSERT INTO notes VALUES (1, 1); INSERT INTO notes VALUES (2, NULL)",
    "INSERT INTO notes SELECT l_qty, l_orderkey FROM lineitem",
    "UPDATE lineitem SET l_linenumber = l_linenumber + 1",
    "INSERT INTO notes VALUES (-1, 0)",
    "DELETE FROM notes WHERE n = 1; INSERT INTO notes VALUES (1, 1), (1, 1)",
    "UPDATE notes SET n = n + 1 WHERE n > 100",
    "DELETE FROM notes",
    "INSERT INTO notes VALUES (5, 5), (6, 6); UPDATE notes SET n = n - 1 WHERE n > 0",
    "TRUNCATE TABLE notes",
    "TRUNCATE TABLE lineitem",
];

/// A verdict both paths can report: committed, or the violated assertions.
#[derive(Debug, PartialEq)]
enum Verdict {
    Committed,
    Rejected(Vec<String>),
}

fn rejected(violations: &[tintin::Violation]) -> Verdict {
    let mut names: Vec<String> = violations.iter().map(|v| v.assertion.clone()).collect();
    names.sort();
    names.dedup();
    Verdict::Rejected(names)
}

fn owned() -> (Database, Installation, Tintin) {
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &ASSERTIONS).unwrap();
    (db, inst, tintin)
}

fn dump_owned(db: &Database) -> Vec<String> {
    DUMPS
        .iter()
        .map(|q| db.query_sql(q).unwrap().to_string())
        .collect()
}

fn dump_served(session: &Session) -> Vec<String> {
    DUMPS
        .iter()
        .map(|q| session.query_rows(q).unwrap().to_string())
        .collect()
}

fn served_ts(session: &Session) -> u64 {
    session.database().read().current_ts()
}

fn rows_affected(results: &[StatementResult]) -> Vec<usize> {
    results
        .iter()
        .map(|r| match r {
            StatementResult::RowsAffected(n) => *n,
            other => panic!("not DML: {other:?}"),
        })
        .collect()
}

/// `TRUNCATE` is not transactional: the server runs it as an autocommitted
/// statement, the single owner stages it like any other DML.
fn is_truncate(step: &str) -> bool {
    step.starts_with("TRUNCATE")
}

#[test]
fn safe_commit_matches_the_server_step_for_step() {
    let (mut db, inst, tintin) = owned();

    let mut base = Database::new();
    base.execute_sql(SCHEMA).unwrap();
    let mut session = Session::with_database(base);
    session.install(&ASSERTIONS).unwrap();
    assert_eq!(db.current_ts(), served_ts(&session));

    let mut committed = 0;
    let mut verdicts = Vec::new();
    for (i, step) in SCRIPT.iter().enumerate() {
        let owned_affected = rows_affected(&db.execute_sql(step).unwrap());
        let owned_verdict = match tintin.safe_commit(&mut db, &inst).unwrap() {
            CommitOutcome::Committed { .. } => Verdict::Committed,
            CommitOutcome::Rejected { violations, .. } => rejected(&violations),
        };
        let out = if is_truncate(step) {
            session.execute(step).unwrap()
        } else {
            let out = session.execute(&format!("BEGIN; {step}; COMMIT;")).unwrap();
            let served_affected: Vec<usize> = out[1..out.len() - 1]
                .iter()
                .map(|o| match o {
                    StatementOutcome::RowsAffected(n) => *n,
                    other => panic!("step {i}: unexpected outcome {other:?}"),
                })
                .collect();
            assert_eq!(owned_affected, served_affected, "step {i}: {step}");
            out
        };
        let served_verdict = match out.last().unwrap() {
            StatementOutcome::Committed { .. } => Verdict::Committed,
            StatementOutcome::Rejected { violations, .. } => rejected(violations),
            other => panic!("step {i}: unexpected outcome {other:?}"),
        };
        assert_eq!(owned_verdict, served_verdict, "step {i}: {step}");
        committed += usize::from(owned_verdict == Verdict::Committed);
        verdicts.push(owned_verdict);

        assert_eq!(dump_owned(&db), dump_served(&session), "step {i}: {step}");
        assert_eq!(db.current_ts(), served_ts(&session), "step {i}: {step}");
        assert_eq!(
            db.pending_counts(TS_LATEST),
            (0, 0),
            "step {i}: events truncated"
        );
    }
    // Rejects really happened and every commit that staged something ticked
    // the clock — including the ones that normalized away: this is not two
    // idle clocks agreeing. Two steps stage nothing at all.
    assert!(
        committed < SCRIPT.len() - 2,
        "the script rejects some steps"
    );
    let noop_steps = 2; // step 13's duplicates, and the UPDATE matching nothing
    assert_eq!(db.current_ts(), (committed - noop_steps) as u64);
    let verdict = |step: &str| &verdicts[SCRIPT.iter().position(|s| *s == step).unwrap()];
    let negative_note = Verdict::Rejected(vec!["nonnegativenotes".into()]);
    assert_eq!(verdict("INSERT INTO notes VALUES (-1, 0)"), &negative_note);
    assert_eq!(verdict("TRUNCATE TABLE notes"), &Verdict::Committed);
    let stranded = Verdict::Rejected(vec!["atleastonelineitem".into()]);
    assert_eq!(verdict("TRUNCATE TABLE lineitem"), &stranded);
}

/// Without assertions, [`Database::execute_sql`] commits each statement on
/// its own, unchecked: rows affected, data and clock must match the
/// server's autocommit of the same statement, statement by statement.
/// Rows affected are compared against a second server that runs each
/// statement as a one-statement transaction, which reports them.
#[test]
fn unchecked_statements_match_the_server_autocommit() {
    let mut db = Database::new();
    db.execute_sql(SCHEMA).unwrap();
    let server_with_schema = || {
        let mut base = Database::new();
        base.execute_sql(SCHEMA).unwrap();
        Session::with_database(base)
    };
    let mut auto = server_with_schema();
    let mut txn = server_with_schema();

    let mut effective = 0;
    for step in SCRIPT {
        for stmt in tintin_sql::parse_statements(step).unwrap() {
            let stmt = stmt.to_string();
            let before = db.current_ts();
            let owned = db.execute_sql(&stmt).map(|r| rows_affected(&r)[0]);
            let served = auto.execute(&stmt).map(|out| match &out[0] {
                StatementOutcome::Committed { .. } => {}
                other => panic!("{stmt}: unexpected outcome {other:?}"),
            });
            assert_eq!(owned.is_ok(), served.is_ok(), "{stmt}: {owned:?}");
            let counted = if is_truncate(&stmt) {
                txn.execute(&stmt).map(|out| match &out[0] {
                    StatementOutcome::Committed { deleted, .. } => *deleted,
                    other => panic!("{stmt}: unexpected outcome {other:?}"),
                })
            } else {
                txn.execute(&format!("BEGIN; {stmt}; COMMIT;"))
                    .map(|out| match &out[1] {
                        StatementOutcome::RowsAffected(n) => *n,
                        other => panic!("{stmt}: unexpected outcome {other:?}"),
                    })
            };
            assert_eq!(owned.as_ref().ok(), counted.as_ref().ok(), "{stmt}");

            let owned_dump = dump_owned(&db);
            assert_eq!(owned_dump, dump_served(&auto), "{stmt}");
            assert_eq!(owned_dump, dump_served(&txn), "{stmt}");
            assert_eq!(db.current_ts(), served_ts(&auto), "{stmt}");
            assert_eq!(db.current_ts(), served_ts(&txn), "{stmt}");
            assert!(db.current_ts() - before <= 1, "{stmt}: one tick at most");
            effective += (db.current_ts() - before) as usize;
        }
    }
    assert!(effective > 20, "{effective} statements changed something");
    assert_eq!(db.mvcc_stats().commit_ts, effective as u64);
    assert!(db.captured_tables().is_empty(), "nothing was staged");
}

/// Engine-level DML on a shared database commits as versions: a snapshot
/// registered before the writes still reads the state it began with, even
/// after more deletions than commit-piggybacked garbage collection waits
/// for, and the clock ticks once per statement that changes something.
#[test]
fn engine_dml_keeps_open_snapshots_intact() {
    let n = Database::GC_DEAD_THRESHOLD as i64 + 44;
    let values: Vec<String> = (1..=n).map(|k| format!("({k})")).collect();
    let shared = SharedDatabase::new();
    shared
        .write()
        .execute_sql(&format!(
            "CREATE TABLE t (k INT PRIMARY KEY); INSERT INTO t VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    let ts = shared.read().current_ts();
    let snapshot = shared.begin_snapshot();
    shared
        .write()
        .execute_sql(&format!("INSERT INTO t VALUES ({})", n + 1))
        .unwrap();
    for k in 1..=n {
        shared
            .write()
            .execute_sql(&format!("DELETE FROM t WHERE k = {k}"))
            .unwrap();
    }
    let keys = |read: ReadCtx<'_>| -> Vec<Value> {
        let q = tintin_sql::parse_query("SELECT k FROM t ORDER BY k").unwrap();
        let rs = shared.read().query(&q, read).unwrap();
        rs.rows.iter().map(|r| r[0].clone()).collect()
    };
    let at = |snapshot| ReadCtx {
        snapshot,
        overlay: None,
    };
    let before: Vec<Value> = (1..=n).map(Value::Int).collect();
    assert_eq!(keys(at(snapshot.ts())), before);
    assert_eq!(keys(ReadCtx::LATEST), [Value::Int(n + 1)]);
    assert_eq!(ts, 1);
    let now = shared.read().current_ts();
    assert_eq!(now, ts + 1 + n as u64, "one tick per statement");

    // Statements that change nothing leave the clock alone.
    let out = shared
        .write()
        .execute_sql(&format!(
            "UPDATE t SET k = 0 WHERE k = 1; INSERT INTO t VALUES ({})",
            n + 1
        ))
        .unwrap();
    assert_eq!(
        out,
        [
            StatementResult::RowsAffected(0),
            StatementResult::RowsAffected(1)
        ]
    );
    assert_eq!(shared.read().current_ts(), now);

    // Once the snapshot is gone, a collection at the shared horizon prunes
    // every version the deletions left behind.
    drop(snapshot);
    let horizon = shared.gc_horizon(now);
    assert_eq!(shared.write().gc_versions(horizon), n as usize);
    assert_eq!(keys(ReadCtx::LATEST), [Value::Int(n + 1)]);
}

#[test]
fn rejected_full_recheck_leaves_versions_untouched() {
    let (mut db, inst, tintin) = owned();
    db.execute_sql(SCRIPT[0]).unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    db.execute_sql(SCRIPT[3]).unwrap(); // leaves a dead version behind
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    let before = db.mvcc_stats();
    let dump = dump_owned(&db);
    assert!(before.dead_versions > 0);

    // Deleting the last line item of order 1, plus an insert, is rejected.
    db.execute_sql(
        "DELETE FROM lineitem WHERE l_orderkey = 1;
         INSERT INTO orders VALUES (5, 5.0); INSERT INTO lineitem VALUES (5, 1, 1);",
    )
    .unwrap();
    let out = tintin.full_recheck(&mut db, &inst).unwrap();
    assert!(!out.committed);
    assert_eq!(
        rejected(&out.violations),
        Verdict::Rejected(vec!["atleastonelineitem".into()])
    );
    assert_eq!(db.mvcc_stats(), before, "commit_ts, live and dead versions");
    assert_eq!(dump_owned(&db), dump);
    assert_eq!(db.pending_counts(TS_LATEST), (0, 0));

    // An accepted recheck commits like safe_commit: one clock tick.
    db.execute_sql("INSERT INTO orders VALUES (5, 5.0); INSERT INTO lineitem VALUES (5, 1, 1);")
        .unwrap();
    assert!(tintin.full_recheck(&mut db, &inst).unwrap().committed);
    assert_eq!(db.current_ts(), before.commit_ts + 1);
    assert_eq!(db.query_sql("SELECT * FROM orders").unwrap().len(), 2);
}

#[test]
fn nothing_pending_leaves_the_clock_alone() {
    let (mut db, inst, tintin) = owned();
    db.execute_sql(SCRIPT[0]).unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    let ts = db.current_ts();
    assert_eq!(ts, 1);

    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    assert_eq!(db.current_ts(), ts, "empty safe_commit");
    assert!(tintin.full_recheck(&mut db, &inst).unwrap().committed);
    assert_eq!(db.current_ts(), ts, "empty full_recheck");

    // Inserting a row that exists is a no-op when it is planned: nothing
    // is staged, so nothing commits.
    db.execute_sql("INSERT INTO orders VALUES (1, 10.0)")
        .unwrap();
    assert_eq!(db.pending_counts(TS_LATEST), (0, 0), "no-op insert");
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    assert_eq!(db.current_ts(), ts, "no-op insert");

    // A staged update that normalizes away is not "nothing pending": it
    // commits at a fresh timestamp, as a non-empty session commit does.
    db.execute_sql("DELETE FROM orders WHERE o_orderkey = 1; INSERT INTO orders VALUES (1, 10.0)")
        .unwrap();
    assert_eq!(db.pending_counts(TS_LATEST), (1, 1), "delete and re-insert");
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    assert_eq!(db.current_ts(), ts + 1, "delete and re-insert");
}

#[test]
fn single_owner_history_is_garbage_collected() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
        .unwrap();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION nonneg CHECK (NOT EXISTS (SELECT * FROM t WHERE a < 0))"],
        )
        .unwrap();
    let n = 2 * Database::GC_DEAD_THRESHOLD + 10;
    let values: Vec<String> = (0..n).map(|i| format!("({i})")).collect();
    db.execute_sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    for i in 0..n {
        db.execute_sql(&format!("DELETE FROM t WHERE a = {i}"))
            .unwrap();
        assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
        let stats = db.mvcc_stats();
        assert!(
            stats.dead_versions <= Database::GC_DEAD_THRESHOLD,
            "after {} deletes: {stats:?}",
            i + 1
        );
    }
    let stats = db.mvcc_stats();
    assert_eq!(stats.live_versions, 0);
    assert_eq!(stats.commit_ts, n as u64 + 1);
    assert!(stats.gc_runs >= 2, "{stats:?}");
    assert!(stats.gc_pruned >= 2 * Database::GC_DEAD_THRESHOLD as u64);
}
