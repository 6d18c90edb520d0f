//! Prepared-plan invalidation: a cached plan must never survive a catalog
//! change — CREATE/DROP TABLE, CREATE/DROP INDEX and capture changes all
//! move the catalog generation, and a stale plan would read wrong column
//! positions or dangling index ids.

use tintin_engine::{Database, PreparedQuery, ReadCtx, ResultSet, TxOverlay, Value, TS_LATEST};
use tintin_sql as sql;

fn q(text: &str) -> sql::Query {
    sql::parse_query(text).unwrap()
}

/// Run a prepared query, recompiling first if the catalog changed.
fn run(db: &Database, p: &PreparedQuery, read: ReadCtx<'_>) -> tintin_engine::Result<ResultSet> {
    db.execute_plan(&p.resolve(db)?.plan, read)
}

fn plan_text(db: &Database, p: &tintin_engine::PreparedQuery) -> String {
    let resolved = p.resolve(db).unwrap();
    tintin_engine::query::explain(db, &resolved.plan)
}

#[test]
fn prepared_query_caches_across_data_changes() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        .unwrap();
    let p = db.prepare(&q("SELECT b FROM t WHERE a = 1")).unwrap();
    assert!(
        !p.resolve(&db).unwrap().recompiled,
        "prepare() warms the cache"
    );
    // DML, event staging and versioned commits (published or withdrawn)
    // are data changes: the plan stays.
    db.execute_sql("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    assert!(!p.resolve(&db).unwrap().recompiled);
    db.enable_capture("t").unwrap(); // catalog change (event tables appear)
    assert!(p.resolve(&db).unwrap().recompiled);
    db.execute_sql("INSERT INTO t VALUES (3, 30)").unwrap(); // captured: data only
    let (_, touched) = db.normalize_events().unwrap();
    let ts = db.next_commit_ts();
    let applied = db.apply_pending_versioned(&touched, ts).unwrap();
    db.unapply_pending_versioned(applied);
    db.truncate_events(&touched);
    assert!(!p.resolve(&db).unwrap().recompiled);
    db.execute_sql("DELETE FROM t WHERE a = 2").unwrap();
    let (_, touched) = db.normalize_events().unwrap();
    db.apply_pending_versioned(&touched, ts).unwrap();
    db.truncate_events(&touched);
    db.publish_commit(ts);
    db.gc_versions(ts);
    assert!(!p.resolve(&db).unwrap().recompiled);
    let rs = run(&db, &p, ReadCtx::LATEST).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(10));
}

#[test]
fn create_index_invalidates_and_upgrades_scan_to_probe() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        .unwrap();
    let p = db.prepare(&q("SELECT a FROM t WHERE b = 5")).unwrap();
    assert!(plan_text(&db, &p).contains("Scan t"), "no index on b yet");
    db.execute_sql("CREATE INDEX t_b ON t (b)").unwrap();
    let resolved = p.resolve(&db).unwrap();
    assert!(resolved.recompiled, "CREATE INDEX must invalidate the plan");
    let text = tintin_engine::query::explain(&db, &resolved.plan);
    assert!(
        text.contains("Probe t"),
        "recompiled plan probes t_b: {text}"
    );
}

#[test]
fn drop_index_reverts_probe_to_scan() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         CREATE INDEX t_b ON t (b);
         INSERT INTO t VALUES (1, 5), (2, 6);",
    )
    .unwrap();
    let p = db.prepare(&q("SELECT a FROM t WHERE b = 5")).unwrap();
    assert!(plan_text(&db, &p).contains("Probe t"));
    db.execute_sql("DROP INDEX t_b ON t").unwrap();
    let resolved = p.resolve(&db).unwrap();
    assert!(resolved.recompiled, "DROP INDEX must invalidate the plan");
    let text = tintin_engine::query::explain(&db, &resolved.plan);
    assert!(text.contains("Scan t"), "plan falls back to a scan: {text}");
    // The stale plan's index id would now be dangling — the recompiled one
    // still answers correctly.
    let rs = run(&db, &p, ReadCtx::LATEST).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(1));
}

#[test]
fn drop_index_refuses_constraint_indexes() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         CREATE UNIQUE INDEX t_b ON t (b);",
    )
    .unwrap();
    assert!(db.execute_sql("DROP INDEX t_pkey ON t").is_err());
    assert!(db.execute_sql("DROP INDEX t_b ON t").is_err());
    assert!(db.execute_sql("DROP INDEX nope ON t").is_err());
}

#[test]
fn drop_and_recreate_table_never_runs_a_stale_plan() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         INSERT INTO t VALUES (1, 10);",
    )
    .unwrap();
    let p = db.prepare(&q("SELECT b FROM t")).unwrap();
    assert_eq!(
        run(&db, &p, ReadCtx::LATEST).unwrap().rows[0][0],
        Value::Int(10)
    );
    // Recreate the table with the column order flipped: a stale plan would
    // project position 1 and return `a` instead of `b`.
    db.execute_sql(
        "DROP TABLE t;
         CREATE TABLE t (b INT, a INT PRIMARY KEY);
         INSERT INTO t VALUES (77, 1);",
    )
    .unwrap();
    let resolved = p.resolve(&db).unwrap();
    assert!(resolved.recompiled);
    let rs = run(&db, &p, ReadCtx::LATEST).unwrap();
    assert_eq!(
        rs.rows[0][0],
        Value::Int(77),
        "b resolved against the new layout"
    );
    // Dropping the table entirely surfaces as an error, not a stale read.
    db.execute_sql("DROP TABLE t").unwrap();
    assert!(run(&db, &p, ReadCtx::LATEST).is_err());
}

#[test]
fn clones_share_plans_until_their_catalogs_diverge() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
        .unwrap();
    let p = db.prepare(&q("SELECT a FROM t")).unwrap();
    let mut snapshot = db.clone();
    // Identical catalogs ⇒ same generation ⇒ the cached plan serves both.
    assert_eq!(db.catalog_generation(), snapshot.catalog_generation());
    assert!(!p.resolve(&snapshot).unwrap().recompiled);
    // DDL on the snapshot takes a globally unique generation: the plan
    // recompiles there, and stays cached for whichever database it was
    // resolved against last.
    snapshot.execute_sql("CREATE TABLE u (x INT)").unwrap();
    assert_ne!(db.catalog_generation(), snapshot.catalog_generation());
    assert!(p.resolve(&snapshot).unwrap().recompiled);
    assert!(
        p.resolve(&db).unwrap().recompiled,
        "cache now keyed to the snapshot"
    );
}

#[test]
fn prepared_execution_matches_adhoc_and_sees_overlays() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         INSERT INTO t VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    let query = q("SELECT a, b FROM t WHERE b >= 10 ORDER BY a");
    let p = db.prepare(&query).unwrap();
    assert_eq!(
        run(&db, &p, ReadCtx::LATEST).unwrap(),
        db.query(&query, ReadCtx::LATEST).unwrap()
    );
    // The overlay affects execution only, never the cached plan.
    let mut overlay = TxOverlay::new();
    let delta = db
        .plan_dml(
            &sql::parse_statement("INSERT INTO t VALUES (3, 30)").unwrap(),
            &overlay,
            TS_LATEST,
        )
        .unwrap();
    overlay.apply_delta(delta);
    let read = ReadCtx {
        overlay: Some(&overlay),
        ..ReadCtx::LATEST
    };
    let rs = run(&db, &p, read).unwrap();
    assert_eq!(rs.len(), 3, "read-your-writes through the prepared plan");
    assert!(!p.resolve(&db).unwrap().recompiled);
    assert_eq!(
        run(&db, &p, ReadCtx::LATEST).unwrap().len(),
        2,
        "overlay never leaks"
    );
}

#[test]
fn generation_moves_only_on_catalog_changes() {
    let mut db = Database::new();
    let g0 = db.catalog_generation();
    db.execute_sql("CREATE TABLE t (a INT PRIMARY KEY)")
        .unwrap();
    let g1 = db.catalog_generation();
    assert_ne!(g0, g1);
    db.execute_sql("INSERT INTO t VALUES (1); DELETE FROM t WHERE a = 1;")
        .unwrap();
    assert_eq!(db.catalog_generation(), g1, "DML is not a catalog change");
    db.execute_sql("CREATE VIEW v AS SELECT a FROM t").unwrap();
    let g2 = db.catalog_generation();
    assert_ne!(g1, g2);
    db.execute_sql("DROP VIEW v").unwrap();
    assert_ne!(db.catalog_generation(), g2);
    // DROP ... IF EXISTS of nothing changes nothing.
    let g3 = db.catalog_generation();
    db.execute_sql("DROP TABLE IF EXISTS nope").unwrap();
    assert_eq!(db.catalog_generation(), g3);
}
