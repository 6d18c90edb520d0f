//! The single-owner API and the server run one `safeCommit`: the same
//! update script, committed through [`Tintin::safe_commit`] on an owned
//! [`Database`] and through a [`Session`] on a server, must give the same
//! verdicts, the same data and the same commit clock. The rest pins the
//! versioned path's bookkeeping: a rejected full recheck withdraws its
//! versions, a commit of nothing does not tick the clock, and garbage
//! collection keeps a long single-owner history bounded.

use tintin::{CommitOutcome, Installation, Tintin};
use tintin_engine::{Database, TS_LATEST};
use tintin_session::{Session, StatementOutcome};

const SCHEMA: &str = "
    CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_total REAL NOT NULL);
    CREATE TABLE lineitem (
        l_orderkey INT NOT NULL REFERENCES orders,
        l_linenumber INT NOT NULL,
        l_qty INT NOT NULL,
        PRIMARY KEY (l_orderkey, l_linenumber));";

const ASSERTIONS: [&str; 2] = [
    "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
         SELECT * FROM orders o WHERE NOT EXISTS (
             SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))",
    "CREATE ASSERTION positiveQty CHECK (NOT EXISTS (
         SELECT * FROM lineitem WHERE l_qty <= 0))",
];

const DUMPS: [&str; 2] = [
    "SELECT * FROM orders ORDER BY o_orderkey",
    "SELECT * FROM lineitem ORDER BY l_orderkey, l_linenumber",
];

/// One transaction's DML each; commits and rejects interleaved, plus an
/// update that normalizes away (delete and re-insert of the same row).
const SCRIPT: [&str; 12] = [
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

#[test]
fn safe_commit_matches_the_server_step_for_step() {
    let (mut db, inst, tintin) = owned();

    let mut base = Database::new();
    base.execute_sql(SCHEMA).unwrap();
    let mut session = Session::with_database(base);
    session.install(&ASSERTIONS).unwrap();
    let server_ts = |s: &Session| s.database().read().current_ts();
    assert_eq!(db.current_ts(), server_ts(&session));

    let mut committed = 0;
    for (i, step) in SCRIPT.iter().enumerate() {
        db.execute_sql(step).unwrap();
        let owned_verdict = match tintin.safe_commit(&mut db, &inst).unwrap() {
            CommitOutcome::Committed { .. } => Verdict::Committed,
            CommitOutcome::Rejected { violations, .. } => rejected(&violations),
        };
        let out = session.execute(&format!("BEGIN; {step}; COMMIT;")).unwrap();
        let served_verdict = match out.last().unwrap() {
            StatementOutcome::Committed { .. } => Verdict::Committed,
            StatementOutcome::Rejected { violations, .. } => rejected(violations),
            other => panic!("step {i}: unexpected outcome {other:?}"),
        };
        assert_eq!(owned_verdict, served_verdict, "step {i}: {step}");
        committed += usize::from(owned_verdict == Verdict::Committed);

        let served: Vec<String> = DUMPS
            .iter()
            .map(|q| session.query_rows(q).unwrap().to_string())
            .collect();
        assert_eq!(dump_owned(&db), served, "step {i}: {step}");
        assert_eq!(db.current_ts(), server_ts(&session), "step {i}: {step}");
        assert_eq!(
            db.pending_counts(TS_LATEST),
            (0, 0),
            "step {i}: events truncated"
        );
    }
    // Rejects really happened and every commit ticked the clock — including
    // the one that normalized away: this is not two idle clocks agreeing.
    assert!(
        committed < SCRIPT.len() - 2,
        "the script rejects some steps"
    );
    assert_eq!(db.current_ts(), committed as u64);
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

    // A staged update that normalizes away is not "nothing pending": it
    // commits at a fresh timestamp, as a non-empty session commit does.
    db.execute_sql("INSERT INTO orders VALUES (1, 10.0)")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    assert_eq!(db.current_ts(), ts + 1, "no-op insert");
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
