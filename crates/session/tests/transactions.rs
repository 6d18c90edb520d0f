//! Transaction and savepoint semantics. A transaction lives in its
//! session's private overlay, so `ROLLBACK`, `ROLLBACK TO` and `RELEASE`
//! only rewind that overlay: the shared base tables *and* event tables are
//! exactly as they were, whichever statements ran.

use tintin_engine::{Database, EngineError, Value};
use tintin_session::{Session, SessionError, StatementOutcome};

fn session_with_data() -> Session {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         INSERT INTO t VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    Session::with_database(db)
}

/// The rows of `t` this session sees (its own pending writes included).
fn visible(s: &Session) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = s
        .query_rows("SELECT * FROM t")
        .unwrap()
        .rows
        .iter()
        .map(|r| r.to_vec())
        .collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// The published rows of `t` and the shared event-table sizes.
fn shared(s: &Session) -> (usize, usize, usize) {
    let db = s.database().read();
    let len = |name: &str| db.table(name).map_or(0, |t| t.len());
    (len("t"), len("ins_t"), len("del_t"))
}

fn error_of(s: &mut Session, stmt: &str) -> SessionError {
    s.execute(stmt).unwrap_err().error
}

#[test]
fn rollback_restores_uncaptured_tables() {
    let mut s = session_with_data();
    let before = visible(&s);
    s.execute(
        "BEGIN;
         INSERT INTO t VALUES (3, 30);
         DELETE FROM t WHERE a = 1;
         UPDATE t SET b = 99 WHERE a = 2;",
    )
    .unwrap();
    assert_ne!(visible(&s), before);
    assert_eq!(shared(&s), (2, 0, 0), "nothing reaches the shared tables");
    s.execute("ROLLBACK").unwrap();
    assert_eq!(visible(&s), before);
    assert!(!s.in_transaction());
}

#[test]
fn rollback_restores_event_tables() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT); INSERT INTO t VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    db.enable_capture("t").unwrap();
    let mut s = Session::with_database(db);
    s.execute("BEGIN; INSERT INTO t VALUES (3, 30); DELETE FROM t WHERE a = 1;")
        .unwrap();
    assert_eq!(s.pending_counts(), (1, 1));
    s.execute("ROLLBACK").unwrap();
    assert_eq!(s.pending_counts(), (0, 0));
    assert_eq!(shared(&s), (2, 0, 0));
}

#[test]
fn savepoint_stack_nested_rollback() {
    let mut s = session_with_data();
    s.execute(
        "BEGIN;
         INSERT INTO t VALUES (3, 30);
         SAVEPOINT s1;
         INSERT INTO t VALUES (4, 40);
         SAVEPOINT s2;
         INSERT INTO t VALUES (5, 50);",
    )
    .unwrap();
    assert_eq!(s.pending_counts(), (3, 0));
    assert_eq!(s.savepoints(), vec!["s1".to_string(), "s2".to_string()]);

    // Roll back to s1: work after it vanishes, s2 is discarded, s1 stays.
    s.execute("ROLLBACK TO s1").unwrap();
    assert_eq!(s.pending_counts(), (1, 0));
    assert_eq!(s.savepoints(), vec!["s1".to_string()]);

    // s1 is replayable: new work after it can be rolled back again.
    s.execute("INSERT INTO t VALUES (6, 60)").unwrap();
    assert_eq!(s.pending_counts(), (2, 0));
    s.execute("ROLLBACK TO s1").unwrap();
    assert_eq!(s.pending_counts(), (1, 0));

    s.execute("ROLLBACK").unwrap();
    assert_eq!(s.pending_counts(), (0, 0));
}

#[test]
fn release_merges_into_enclosing_scope() {
    let mut s = session_with_data();
    s.execute(
        "BEGIN;
         INSERT INTO t VALUES (3, 30);
         SAVEPOINT s1;
         INSERT INTO t VALUES (4, 40);
         RELEASE s1;",
    )
    .unwrap();
    assert!(s.savepoints().is_empty());
    assert!(matches!(
        error_of(&mut s, "ROLLBACK TO s1"),
        SessionError::NoSuchSavepoint(_)
    ));
    // The released savepoint's changes survive until the transaction ends.
    assert_eq!(visible(&s).len(), 4);
    s.execute("ROLLBACK").unwrap();
    assert_eq!(visible(&s).len(), 2);
}

#[test]
fn savepoint_name_reuse_moves_the_savepoint() {
    let mut s = session_with_data();
    s.execute(
        "BEGIN;
         SAVEPOINT s;
         INSERT INTO t VALUES (3, 30);
         SAVEPOINT s;
         INSERT INTO t VALUES (4, 40);
         ROLLBACK TO s;",
    )
    .unwrap();
    // Only the insert after the *moved* savepoint is undone.
    assert_eq!(visible(&s).len(), 3);
    s.execute("ROLLBACK").unwrap();
    assert_eq!(visible(&s).len(), 2);
}

#[test]
fn commit_keeps_changes_and_closes() {
    let mut s = session_with_data();
    let out = s
        .execute("BEGIN; INSERT INTO t VALUES (3, 30); COMMIT;")
        .unwrap();
    assert!(out.last().unwrap().is_committed());
    assert!(!s.in_transaction());
    assert_eq!(shared(&s), (3, 0, 0));
    // The transaction is gone: a fresh rollback is an error.
    assert!(matches!(
        error_of(&mut s, "ROLLBACK"),
        SessionError::NoActiveTransaction
    ));
}

#[test]
fn update_inside_transaction_rolls_back() {
    let mut s = session_with_data();
    s.execute("BEGIN").unwrap();
    // A key-shifting update: every new key collides with an old one unless
    // the statement's deletions are planned before its insertions.
    s.execute("UPDATE t SET a = a + 10").unwrap();
    assert!(visible(&s).iter().all(|r| r[0] >= Value::Int(11)));
    s.execute("ROLLBACK").unwrap();
    let keys: Vec<Value> = visible(&s).into_iter().map(|r| r[0].clone()).collect();
    assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn failed_statement_then_rollback_still_restores() {
    let mut s = session_with_data();
    s.execute("BEGIN; INSERT INTO t VALUES (3, 30);").unwrap();
    // This UPDATE collides on the primary key and changes nothing…
    assert!(s.execute("UPDATE t SET a = 1 WHERE a = 3").is_err());
    assert_eq!(visible(&s).len(), 3);
    // …after which a full rollback still restores the initial state.
    s.execute("ROLLBACK").unwrap();
    let keys: Vec<Value> = visible(&s).into_iter().map(|r| r[0].clone()).collect();
    assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn transaction_state_errors() {
    let mut s = session_with_data();
    assert!(matches!(
        error_of(&mut s, "COMMIT"),
        SessionError::NoActiveTransaction
    ));
    assert!(matches!(
        error_of(&mut s, "SAVEPOINT s"),
        SessionError::NoActiveTransaction
    ));
    assert!(matches!(
        error_of(&mut s, "RELEASE s"),
        SessionError::NoActiveTransaction
    ));
    s.execute("BEGIN").unwrap();
    assert!(matches!(
        error_of(&mut s, "BEGIN"),
        SessionError::TransactionAlreadyOpen
    ));
    assert!(matches!(
        error_of(&mut s, "ROLLBACK TO nope"),
        SessionError::NoSuchSavepoint(_)
    ));
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn engine_rejects_tx_statements_in_execute() {
    // Transaction control belongs to the session; the raw engine refuses it.
    let mut db = Database::new();
    for stmt in ["BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT s", "RELEASE s"] {
        let err = db.execute_sql(stmt).unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported(_)),
            "{stmt}: {err:?}"
        );
    }
    let mut s = session_with_data();
    assert!(matches!(
        s.execute("BEGIN").unwrap()[0],
        StatementOutcome::TransactionStarted
    ));
}
