//! End-to-end query evaluation tests for the engine: SQL text in, rows out.

use tintin_engine::{Database, ReadCtx, StatementResult, Truth, Value, TS_LATEST};

fn db_orders() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT, o_totalprice REAL);
         CREATE TABLE lineitem (
             l_orderkey INT NOT NULL,
             l_linenumber INT NOT NULL,
             l_quantity INT,
             PRIMARY KEY (l_orderkey, l_linenumber),
             FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey));
         CREATE INDEX li_ok ON lineitem (l_orderkey);
         INSERT INTO orders VALUES (1, 10, 100.0), (2, 10, 50.5), (3, 20, 0.0);
         INSERT INTO lineitem VALUES (1, 1, 5), (1, 2, 7), (2, 1, 1);",
    )
    .unwrap();
    db
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .query_sql(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(v) => *v,
            other => panic!("expected int, got {other:?}"),
        })
        .collect();
    out.sort();
    out
}

#[test]
fn select_star_projection_order() {
    let db = db_orders();
    let rs = db
        .query_sql("SELECT * FROM orders WHERE o_orderkey = 2")
        .unwrap();
    assert_eq!(rs.columns, vec!["o_orderkey", "o_custkey", "o_totalprice"]);
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][2], Value::real(50.5));
}

#[test]
fn filter_with_comparisons() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 10.0"
        ),
        vec![1, 2]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_totalprice <= 50.5"
        ),
        vec![2, 3]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_custkey = 10 AND o_totalprice < 60"
        ),
        vec![2]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_custkey = 20 OR o_totalprice = 100.0"
        ),
        vec![1, 3]
    );
}

#[test]
fn cross_join_counts() {
    let db = db_orders();
    let rs = db
        .query_sql("SELECT o.o_orderkey, l.l_linenumber FROM orders o, lineitem l")
        .unwrap();
    assert_eq!(rs.rows.len(), 9);
}

#[test]
fn equi_join_via_where_and_join_on() {
    let db = db_orders();
    let a = ints(&db, "SELECT l.l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o.o_custkey = 10");
    let b = ints(&db, "SELECT l.l_quantity FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE o.o_custkey = 10");
    assert_eq!(a, vec![1, 5, 7]);
    assert_eq!(a, b);
}

#[test]
fn exists_and_not_exists_correlated() {
    let db = db_orders();
    assert_eq!(
        ints(&db, "SELECT o_orderkey FROM orders o WHERE EXISTS (SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)"),
        vec![1, 2]
    );
    // Order 3 has no line items — the paper's running example.
    assert_eq!(
        ints(&db, "SELECT o_orderkey FROM orders o WHERE NOT EXISTS (SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)"),
        vec![3]
    );
}

#[test]
fn exists_over_union_subquery() {
    let db = db_orders();
    // EXISTS over a UNION body — the shape tintin-sqlgen emits for aux
    // predicates.
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders o WHERE EXISTS (
                 SELECT l_orderkey FROM lineitem l WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 6
                 UNION
                 SELECT l_orderkey FROM lineitem l WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity < 2)"
        ),
        vec![1, 2]
    );
}

#[test]
fn nested_not_exists_two_levels() {
    let db = db_orders();
    // Customers (via orders) all of whose orders have line items:
    // orders o such that NOT EXISTS an order of the same customer without
    // line items.
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders o WHERE NOT EXISTS (
                 SELECT * FROM orders o2
                 WHERE o2.o_custkey = o.o_custkey AND NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o2.o_orderkey))"
        ),
        vec![1, 2]
    );
}

#[test]
fn in_subquery_basic() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem)"
        ),
        vec![1, 2]
    );
    assert_eq!(
        ints(&db, "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)"),
        vec![3]
    );
}

#[test]
fn row_in_subquery() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT l_quantity FROM lineitem WHERE (l_orderkey, l_linenumber) IN (SELECT 1, 2 FROM orders)"
        ),
        vec![7]
    );
}

#[test]
fn not_in_with_null_in_subquery_is_empty() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (1), (2);
         INSERT INTO b VALUES (2), (NULL);",
    )
    .unwrap();
    // 1 NOT IN (2, NULL) is Unknown; 2 NOT IN (...) is False — empty result,
    // the classic SQL NOT IN + NULL trap.
    assert_eq!(
        ints(&db, "SELECT x FROM a WHERE x NOT IN (SELECT y FROM b)"),
        Vec::<i64>::new()
    );
    // IN keeps the definite match.
    assert_eq!(
        ints(&db, "SELECT x FROM a WHERE x IN (SELECT y FROM b)"),
        vec![2]
    );
}

#[test]
fn null_probe_in_empty_subquery_is_false_not_unknown() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (NULL);",
    )
    .unwrap();
    // NULL IN (empty) = FALSE, therefore NOT IN (empty) = TRUE.
    assert_eq!(
        db.query_sql("SELECT x FROM a WHERE x NOT IN (SELECT y FROM b)")
            .unwrap()
            .rows
            .len(),
        1
    );
}

#[test]
fn in_list_semantics() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN (1, 3, 99)"
        ),
        vec![1, 3]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN (1, 3)"
        ),
        vec![2]
    );
}

#[test]
fn union_dedup_and_union_all() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT o_custkey FROM orders UNION SELECT o_custkey FROM orders"
        ),
        vec![10, 20]
    );
    assert_eq!(
        ints(
            &db,
            "SELECT o_custkey FROM orders UNION ALL SELECT o_custkey FROM orders"
        )
        .len(),
        6
    );
}

#[test]
fn distinct_dedups() {
    let db = db_orders();
    assert_eq!(
        ints(&db, "SELECT DISTINCT o_custkey FROM orders"),
        vec![10, 20]
    );
    assert_eq!(ints(&db, "SELECT o_custkey FROM orders").len(), 3);
}

#[test]
fn derived_table_in_from() {
    let db = db_orders();
    assert_eq!(
        ints(
            &db,
            "SELECT big.o_orderkey FROM (SELECT o_orderkey FROM orders WHERE o_totalprice > 10.0) AS big
             WHERE big.o_orderkey < 2"
        ),
        vec![1]
    );
}

#[test]
fn views_compose() {
    let mut db = db_orders();
    db.execute_sql("CREATE VIEW expensive AS SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice >= 50.0")
        .unwrap();
    db.execute_sql("CREATE VIEW expensive_keys AS SELECT o_orderkey FROM expensive")
        .unwrap();
    assert_eq!(
        ints(&db, "SELECT o_orderkey FROM expensive_keys"),
        vec![1, 2]
    );
    // Views joined with base tables.
    assert_eq!(
        ints(
            &db,
            "SELECT l.l_quantity FROM expensive e, lineitem l WHERE l.l_orderkey = e.o_orderkey"
        ),
        vec![1, 5, 7]
    );
}

#[test]
fn three_valued_logic_in_where() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, NULL), (2, 5);")
        .unwrap();
    // NULL comparisons drop rows.
    assert_eq!(ints(&db, "SELECT a FROM t WHERE b > 0"), vec![2]);
    assert_eq!(ints(&db, "SELECT a FROM t WHERE b IS NULL"), vec![1]);
    assert_eq!(ints(&db, "SELECT a FROM t WHERE b IS NOT NULL"), vec![2]);
    // NOT (NULL > 0) is still unknown.
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE NOT (b > 0)"),
        Vec::<i64>::new()
    );
    // OR rescues unknown.
    assert_eq!(
        ints(&db, "SELECT a FROM t WHERE b > 0 OR a = 1"),
        vec![1, 2]
    );
}

#[test]
fn arithmetic_in_projection_and_where() {
    let db = db_orders();
    let rs = db
        .query_sql("SELECT o_orderkey + 100 AS k FROM orders WHERE o_orderkey * 2 = 4")
        .unwrap();
    assert_eq!(rs.columns, vec!["k"]);
    assert_eq!(rs.rows[0][0], Value::Int(102));
}

#[test]
fn division_by_zero_errors() {
    let db = db_orders();
    assert!(db.query_sql("SELECT o_orderkey / 0 FROM orders").is_err());
}

#[test]
fn ambiguous_column_is_rejected() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE a (x INT); CREATE TABLE b (x INT);")
        .unwrap();
    assert!(db.query_sql("SELECT x FROM a, b").is_err());
}

#[test]
fn unknown_table_and_column_errors() {
    let db = db_orders();
    assert!(db.query_sql("SELECT * FROM nonexistent").is_err());
    assert!(db.query_sql("SELECT bogus FROM orders").is_err());
    assert!(db.query_sql("SELECT o.bogus FROM orders o").is_err());
    assert!(db.query_sql("SELECT z.o_orderkey FROM orders o").is_err());
}

#[test]
fn qualified_wildcard() {
    let db = db_orders();
    let rs = db
        .query_sql("SELECT l.* FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND o.o_orderkey = 1")
        .unwrap();
    assert_eq!(rs.columns, vec!["l_orderkey", "l_linenumber", "l_quantity"]);
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn event_capture_redirects_dml() {
    let mut db = db_orders();
    // The setup's two statements committed unchecked, one tick each.
    let setup_ts = db.current_ts();
    assert_eq!(setup_ts, 2);
    db.enable_capture("orders").unwrap();
    db.enable_capture("lineitem").unwrap();

    db.execute_sql("INSERT INTO orders VALUES (4, 30, 10.0)")
        .unwrap();
    db.execute_sql("DELETE FROM lineitem WHERE l_orderkey = 1")
        .unwrap();

    // Base tables unchanged.
    assert_eq!(db.table("orders").unwrap().len(), 3);
    assert_eq!(db.table("lineitem").unwrap().len(), 3);
    // Events recorded.
    assert_eq!(db.table("ins_orders").unwrap().len(), 1);
    assert_eq!(db.table("del_lineitem").unwrap().len(), 2);
    assert_eq!(db.pending_counts(TS_LATEST), (1, 2));

    // Events are queryable like tables (TINTIN's views rely on this).
    assert_eq!(ints(&db, "SELECT o_orderkey FROM ins_orders"), vec![4]);

    // Apply as versions of the next commit timestamp and verify.
    let (_, touched) = db.normalize_events().unwrap();
    let applied = db
        .apply_pending_versioned(&touched, db.next_commit_ts())
        .unwrap();
    assert_eq!(db.table("orders").unwrap().len(), 4);
    assert_eq!(db.table("lineitem").unwrap().len(), 1);

    // Withdrawing the unpublished apply restores exactly.
    db.unapply_pending_versioned(applied);
    assert_eq!(db.current_ts(), setup_ts);
    assert_eq!(db.table("orders").unwrap().len(), 3);
    assert_eq!(db.table("lineitem").unwrap().len(), 3);
    assert_eq!(
        ints(
            &db,
            "SELECT l_linenumber FROM lineitem WHERE l_orderkey = 1"
        ),
        vec![1, 2]
    );

    db.truncate_events(&db.touched_event_tables());
    assert_eq!(db.pending_counts(TS_LATEST), (0, 0));
}

#[test]
fn capture_validates_against_base_schema() {
    let mut db = db_orders();
    db.enable_capture("orders").unwrap();
    // NOT NULL violation caught at capture time.
    assert!(db
        .execute_sql("INSERT INTO orders VALUES (NULL, 1, 1.0)")
        .is_err());
    // Arity mismatch too.
    assert!(db.execute_sql("INSERT INTO orders VALUES (9)").is_err());
}

#[test]
fn normalization_cancels_and_dedups() {
    let mut db = db_orders();
    db.enable_capture("orders").unwrap();
    // Delete order 1 then re-insert the identical row; also insert a brand
    // new order twice; also delete order 2 twice (same predicate re-run).
    db.execute_sql("DELETE FROM orders WHERE o_orderkey = 1")
        .unwrap();
    db.execute_sql("INSERT INTO orders VALUES (1, 10, 100.0)")
        .unwrap();
    // A duplicate within one INSERT is a set-semantics no-op at plan time:
    // both rows count as affected, one is staged (next to order 1's).
    let res = db
        .execute_sql("INSERT INTO orders VALUES (7, 70, 7.0), (7, 70, 7.0)")
        .unwrap();
    assert_eq!(res[0], StatementResult::RowsAffected(2));
    assert_eq!(ints(&db, "SELECT o_orderkey FROM ins_orders"), vec![1, 7]);
    // A duplicate staged by hand is left to normalization.
    db.insert_direct(
        "ins_orders",
        vec![vec![Value::Int(7), Value::Int(70), Value::real(7.0)]],
    )
    .unwrap();
    db.execute_sql("DELETE FROM orders WHERE o_orderkey = 2")
        .unwrap();
    db.execute_sql("DELETE FROM orders WHERE o_orderkey = 2")
        .unwrap();

    let (report, touched) = db.normalize_events().unwrap();
    assert_eq!(report.dup_ins, 1, "duplicate insert of order 7");
    assert_eq!(report.cancelled, 1, "delete+reinsert of order 1 cancels");
    // After normalization: ins = {7}, del = {2}.
    assert_eq!(ints(&db, "SELECT o_orderkey FROM ins_orders"), vec![7]);
    assert_eq!(ints(&db, "SELECT o_orderkey FROM del_orders"), vec![2]);

    let ts = db.next_commit_ts();
    db.apply_pending_versioned(&touched, ts).unwrap();
    db.truncate_events(&touched);
    db.publish_commit(ts);
    assert_eq!(ints(&db, "SELECT o_orderkey FROM orders"), vec![1, 3, 7]);
}

#[test]
fn apply_rolls_back_on_pk_conflict() {
    let mut db = db_orders();
    db.enable_capture("orders").unwrap();
    let setup_ts = db.current_ts();
    // A conflicting insert (order 1 exists with different attributes) is
    // refused when it is planned; staged by hand, it fails at apply time.
    let err = db
        .execute_sql("INSERT INTO orders VALUES (1, 99, 9.9)")
        .unwrap_err();
    assert!(matches!(
        err,
        tintin_engine::EngineError::UniqueViolation { .. }
    ));
    db.insert_direct(
        "ins_orders",
        vec![vec![Value::Int(1), Value::Int(99), Value::real(9.9)]],
    )
    .unwrap();
    db.execute_sql("INSERT INTO orders VALUES (5, 50, 5.0)")
        .unwrap();
    let (_, touched) = db.normalize_events().unwrap();
    let err = db
        .apply_pending_versioned(&touched, db.next_commit_ts())
        .unwrap_err();
    assert!(matches!(
        err,
        tintin_engine::EngineError::UniqueViolation { .. }
    ));
    // The partial apply was un-stamped: base rows and the clock untouched.
    assert_eq!(db.current_ts(), setup_ts);
    assert_eq!(db.mvcc_stats().dead_versions, 0);
    assert_eq!(db.table("orders").unwrap().len(), 3);
    assert_eq!(ints(&db, "SELECT o_orderkey FROM orders"), vec![1, 2, 3]);
    assert_eq!(
        ints(&db, "SELECT o_custkey FROM orders WHERE o_orderkey = 1"),
        vec![10]
    );
}

#[test]
fn delete_with_correlated_subquery_predicate() {
    let mut db = db_orders();
    // Delete orders without line items (order 3).
    let res = db
        .execute_sql(
            "DELETE FROM orders o WHERE NOT EXISTS (SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
        )
        .unwrap();
    assert_eq!(res[0], StatementResult::RowsAffected(1));
    assert_eq!(ints(&db, "SELECT o_orderkey FROM orders"), vec![1, 2]);
}

#[test]
fn insert_select_copies_rows() {
    let mut db = db_orders();
    db.execute_sql("CREATE TABLE archive (k INT, c INT, p REAL)")
        .unwrap();
    db.execute_sql("INSERT INTO archive SELECT * FROM orders WHERE o_custkey = 10")
        .unwrap();
    assert_eq!(ints(&db, "SELECT k FROM archive"), vec![1, 2]);
}

#[test]
fn insert_with_column_list_fills_nulls() {
    let mut db = db_orders();
    db.execute_sql("INSERT INTO orders (o_orderkey) VALUES (9)")
        .unwrap();
    let rs = db
        .query_sql("SELECT o_custkey FROM orders WHERE o_orderkey = 9")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Null);
}

#[test]
fn check_constraint_enforced() {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE q (v INT, CHECK (v > 0))")
        .unwrap();
    assert!(db.execute_sql("INSERT INTO q VALUES (5)").is_ok());
    assert!(db.execute_sql("INSERT INTO q VALUES (0)").is_err());
    // NULL passes CHECK (unknown is not false).
    assert!(db.execute_sql("INSERT INTO q VALUES (NULL)").is_ok());
}

#[test]
fn row_predicate_helper_matches_sql() {
    use tintin_engine::query::{compile_row_predicate, eval_row_predicate};
    let db = db_orders();
    let pred = tintin_sql::parse_expr("o_totalprice > 60.0").unwrap();
    let compiled = compile_row_predicate(&db, "orders", "orders", &pred).unwrap();
    let t = db.table("orders").unwrap();
    let mut hits = 0;
    let mut ctx = tintin_engine::ExecCtx::new(&db, ReadCtx::LATEST);
    for (_, row) in t.scan() {
        if eval_row_predicate(&compiled, row, &mut ctx).unwrap() == Truth::True {
            hits += 1;
        }
    }
    assert_eq!(hits, 1);
}

#[test]
fn select_without_from() {
    let db = Database::new();
    let rs = db.query_sql("SELECT 1 AS one, 'x' AS s").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(1));
    assert_eq!(rs.rows[0][1], Value::str("x"));
}

#[test]
fn union_width_mismatch_rejected() {
    let db = db_orders();
    assert!(db
        .query_sql(
            "SELECT o_orderkey FROM orders UNION SELECT l_orderkey, l_linenumber FROM lineitem"
        )
        .is_err());
}

#[test]
fn truncate_table_statement() {
    let mut db = db_orders();
    db.execute_sql("TRUNCATE TABLE lineitem").unwrap();
    assert_eq!(db.table("lineitem").unwrap().len(), 0);
}

#[test]
fn drop_table_and_view() {
    let mut db = db_orders();
    db.execute_sql("CREATE VIEW v AS SELECT * FROM orders")
        .unwrap();
    db.execute_sql("DROP VIEW v").unwrap();
    assert!(db.query_sql("SELECT * FROM v").is_err());
    db.execute_sql("DROP TABLE lineitem").unwrap();
    assert!(db.query_sql("SELECT * FROM lineitem").is_err());
    assert!(db.execute_sql("DROP TABLE lineitem").is_err());
    db.execute_sql("DROP TABLE IF EXISTS lineitem").unwrap();
}

#[test]
fn disable_capture_drops_event_tables() {
    let mut db = db_orders();
    db.enable_capture("orders").unwrap();
    assert!(db.table("ins_orders").is_some());
    db.disable_capture("orders").unwrap();
    assert!(db.table("ins_orders").is_none());
    // DML goes straight to the base table again.
    db.execute_sql("INSERT INTO orders VALUES (8, 1, 1.0)")
        .unwrap();
    assert_eq!(db.table("orders").unwrap().len(), 4);
}

#[test]
fn assertion_ddl_is_rejected_by_raw_engine() {
    let mut db = db_orders();
    let err = db
        .execute_sql("CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM orders))")
        .unwrap_err();
    assert!(matches!(err, tintin_engine::EngineError::Unsupported(_)));
}

#[test]
fn self_join_with_aliases() {
    let db = db_orders();
    // Pairs of distinct orders of the same customer.
    let rs = db
        .query_sql(
            "SELECT a.o_orderkey, b.o_orderkey FROM orders a, orders b
             WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Int(1));
    assert_eq!(rs.rows[0][1], Value::Int(2));
}

#[test]
fn large_indexed_join_is_fast() {
    // Smoke test that index probes are used: 20k lineitems joined to 5k
    // orders completes instantly even in debug builds (a nested-loop scan
    // would be 1e8 comparisons).
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
         CREATE TABLE lineitem (l_orderkey INT, l_linenumber INT,
             PRIMARY KEY (l_orderkey, l_linenumber));
         CREATE INDEX li_ok ON lineitem (l_orderkey);",
    )
    .unwrap();
    let orders: Vec<Vec<Value>> = (0..5000).map(|i| vec![Value::Int(i)]).collect();
    db.insert_direct("orders", orders).unwrap();
    let lines: Vec<Vec<Value>> = (0..20000)
        .map(|i| vec![Value::Int(i % 5000), Value::Int(i / 5000)])
        .collect();
    db.insert_direct("lineitem", lines).unwrap();
    let t0 = std::time::Instant::now();
    let rs = db
        .query_sql(
            "SELECT o.o_orderkey FROM orders o WHERE NOT EXISTS (
                 SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 0);
    assert!(
        t0.elapsed().as_secs_f64() < 2.0,
        "correlated NOT EXISTS should be index-accelerated, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn view_probe_matches_int_keys_against_equal_reals() {
    // A probe into a materialized view has no column type to coerce its key
    // to; `1 = 1.0` must still hold there, as it does for a base table.
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE a (x REAL);
         INSERT INTO a VALUES (1.0), (1.5);
         CREATE VIEW v AS SELECT x FROM a;
         CREATE TABLE t (k INT);
         INSERT INTO t VALUES (1), (2);",
    )
    .unwrap();
    let exists = "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM v WHERE v.x = t.k)";
    assert_eq!(ints(&db, exists), vec![1]);
    assert_eq!(ints(&db, "SELECT k FROM t, v WHERE v.x = t.k"), vec![1]);
    assert_eq!(ints(&db, "SELECT k FROM t, a WHERE a.x = t.k"), vec![1]);
}
