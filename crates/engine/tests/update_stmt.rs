//! `UPDATE` statement tests: direct application, capture decomposition into
//! del+ins events, rollback on conflicts.

use tintin_engine::{Database, EngineError, Value, TS_LATEST};

fn db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (k INT PRIMARY KEY, grp INT NOT NULL, val REAL);
         INSERT INTO t VALUES (1, 10, 1.5), (2, 10, 2.5), (3, 20, 3.5);",
    )
    .unwrap();
    db
}

fn vals(db: &Database, sql: &str) -> Vec<Value> {
    let mut rows: Vec<Value> = db
        .query_sql(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].clone())
        .collect();
    rows.sort();
    rows
}

#[test]
fn update_with_predicate() {
    let mut db = db();
    db.execute_sql("UPDATE t SET val = 9.0 WHERE grp = 10")
        .unwrap();
    assert_eq!(
        vals(&db, "SELECT val FROM t"),
        vec![Value::real(3.5), Value::real(9.0), Value::real(9.0)]
    );
}

#[test]
fn update_all_rows_without_predicate() {
    let mut db = db();
    db.execute_sql("UPDATE t SET grp = 0").unwrap();
    assert_eq!(vals(&db, "SELECT DISTINCT grp FROM t"), vec![Value::Int(0)]);
}

#[test]
fn update_expression_sees_old_row() {
    let mut db = db();
    db.execute_sql("UPDATE t SET val = val + 1.0, grp = grp * 2 WHERE k = 1")
        .unwrap();
    let rs = db.query_sql("SELECT grp, val FROM t WHERE k = 1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(20));
    assert_eq!(rs.rows[0][1], Value::real(2.5));
}

#[test]
fn key_shifting_update_succeeds() {
    let mut db = db();
    // k := k + 10 must not conflict with itself.
    db.execute_sql("UPDATE t SET k = k + 10").unwrap();
    assert_eq!(
        vals(&db, "SELECT k FROM t"),
        vec![Value::Int(11), Value::Int(12), Value::Int(13)]
    );
}

#[test]
fn conflicting_update_rolls_back() {
    let mut db = db();
    // Collapsing all keys to 7 violates the PK on the second row.
    let err = db.execute_sql("UPDATE t SET k = 7").unwrap_err();
    assert!(matches!(err, EngineError::UniqueViolation { .. }));
    // Original table intact.
    assert_eq!(
        vals(&db, "SELECT k FROM t"),
        vec![Value::Int(1), Value::Int(2), Value::Int(3)]
    );
}

#[test]
fn update_violating_not_null_fails_cleanly() {
    let mut db = db();
    let err = db
        .execute_sql("UPDATE t SET grp = NULL WHERE k = 1")
        .unwrap_err();
    assert!(matches!(err, EngineError::NullViolation { .. }));
    assert_eq!(
        vals(&db, "SELECT grp FROM t WHERE k = 1"),
        vec![Value::Int(10)]
    );
}

#[test]
fn update_unknown_column_fails() {
    let mut db = db();
    assert!(matches!(
        db.execute_sql("UPDATE t SET nope = 1").unwrap_err(),
        EngineError::NoSuchColumn(_)
    ));
}

#[test]
fn update_same_column_twice_rejected() {
    let mut db = db();
    assert!(db.execute_sql("UPDATE t SET grp = 1, grp = 2").is_err());
}

#[test]
fn captured_update_records_del_and_ins_events() {
    let mut db = db();
    db.enable_capture("t").unwrap();
    let res = db
        .execute_sql("UPDATE t SET val = 0.0 WHERE grp = 10")
        .unwrap();
    assert_eq!(res[0], tintin_engine::StatementResult::RowsAffected(2));
    // Base unchanged; del has the old rows, ins the new ones.
    assert_eq!(
        vals(&db, "SELECT val FROM t WHERE grp = 10"),
        vec![Value::real(1.5), Value::real(2.5)]
    );
    assert_eq!(db.table("del_t").unwrap().len(), 2);
    assert_eq!(db.table("ins_t").unwrap().len(), 2);
    assert_eq!(
        vals(&db, "SELECT val FROM ins_t"),
        vec![Value::real(0.0), Value::real(0.0)]
    );

    // Applying the events realizes the update.
    let (_, touched) = db.normalize_events().unwrap();
    let ts = db.next_commit_ts();
    db.apply_pending_versioned(&touched, ts).unwrap();
    db.truncate_events(&touched);
    db.publish_commit(ts);
    assert_eq!(
        vals(&db, "SELECT val FROM t WHERE grp = 10"),
        vec![Value::real(0.0), Value::real(0.0)]
    );
}

#[test]
fn captured_noop_update_records_nothing() {
    let mut db = db();
    db.enable_capture("t").unwrap();
    db.execute_sql("UPDATE t SET grp = 10 WHERE grp = 10")
        .unwrap();
    assert_eq!(
        db.pending_counts(TS_LATEST),
        (0, 0),
        "identity update is a no-op"
    );
}

#[test]
fn update_with_correlated_subquery_predicate() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE a (x INT PRIMARY KEY);
         CREATE TABLE b (y INT PRIMARY KEY, flag INT NOT NULL);
         INSERT INTO a VALUES (1), (3);
         INSERT INTO b VALUES (1, 0), (2, 0), (3, 0);",
    )
    .unwrap();
    db.execute_sql("UPDATE b SET flag = 1 WHERE EXISTS (SELECT * FROM a WHERE a.x = b.y)")
        .unwrap();
    assert_eq!(
        vals(&db, "SELECT y FROM b WHERE flag = 1"),
        vec![Value::Int(1), Value::Int(3)]
    );
}

#[test]
fn update_roundtrips_through_printer() {
    let stmt = tintin_sql::parse_statement(
        "UPDATE t AS x SET val = val + 1.0, grp = 2 WHERE x.k IN (1, 2)",
    )
    .unwrap();
    let printed = stmt.to_string();
    let reparsed = tintin_sql::parse_statement(&printed).unwrap();
    assert_eq!(stmt, reparsed, "printed: {printed}");
}
