//! Cross-crate integration tests: the full install → update → safeCommit
//! lifecycle on handwritten scenarios.

use tintin::{CommitOutcome, EdcConfig, Tintin, TintinConfig, TintinError};
use tintin_engine::{Database, Value, TS_LATEST};

const AT_LEAST_ONE_LINEITEM: &str = "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
        SELECT * FROM lineitem AS l
        WHERE l.l_orderkey = o.o_orderkey)))";

fn orders_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_totalprice REAL);
         CREATE TABLE lineitem (
             l_orderkey INT NOT NULL REFERENCES orders,
             l_linenumber INT NOT NULL,
             l_quantity INT NOT NULL,
             PRIMARY KEY (l_orderkey, l_linenumber));
         INSERT INTO orders VALUES (1, 10.0), (2, 20.0);
         INSERT INTO lineitem VALUES (1, 1, 5), (2, 1, 3);",
    )
    .unwrap();
    db
}

#[test]
fn install_creates_event_tables_and_views() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    // Event tables for every base table.
    for t in ["ins_orders", "del_orders", "ins_lineitem", "del_lineitem"] {
        assert!(db.table(t).is_some(), "missing event table {t}");
    }
    // Two incremental views (EDC 4 and EDC 6; EDC 5 pruned by FK).
    assert_eq!(inst.view_count(), 2);
    assert_eq!(inst.assertions.len(), 1);
    assert_eq!(inst.assertions[0].edc_count, 2);
    for name in &inst.assertions[0].view_names {
        assert!(db.view(name).is_some(), "view {name} not stored");
    }
    // Denial pretty-printing is exposed for demos.
    assert!(inst.denial_texts[0].contains("orders"));
}

#[test]
fn rejects_insert_of_order_without_lineitem() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql("INSERT INTO orders VALUES (3, 30.0)")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Rejected { violations, .. } = outcome else {
        panic!("expected rejection");
    };
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].assertion, "atleastonelineitem");
    assert_eq!(violations[0].rows.len(), 1);
    assert_eq!(violations[0].rows.rows[0][0], Value::Int(3));

    // Update discarded, base unchanged, events truncated.
    assert_eq!(db.table("orders").unwrap().len(), 2);
    assert_eq!(db.pending_counts(TS_LATEST), (0, 0));
}

#[test]
fn commits_insert_of_order_with_lineitem() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql(
        "INSERT INTO orders VALUES (3, 30.0);
         INSERT INTO lineitem VALUES (3, 1, 9);",
    )
    .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Committed {
        inserted,
        deleted,
        stats,
    } = outcome
    else {
        panic!("expected commit");
    };
    assert_eq!(inserted, 2);
    assert_eq!(deleted, 0);
    assert!(stats.views_evaluated >= 1);
    assert_eq!(db.table("orders").unwrap().len(), 3);
    assert_eq!(db.table("lineitem").unwrap().len(), 3);
}

#[test]
fn rejects_delete_of_last_lineitem() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql("DELETE FROM lineitem WHERE l_orderkey = 1")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(!outcome.is_committed());
    assert_eq!(db.table("lineitem").unwrap().len(), 2, "delete rolled back");
}

#[test]
fn commits_delete_of_one_of_two_lineitems() {
    let mut db = orders_db();
    db.execute_sql("INSERT INTO lineitem VALUES (1, 2, 7)")
        .unwrap();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    // Order 1 now has two line items; deleting one is fine.
    db.execute_sql("DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(outcome.is_committed(), "{outcome:?}");
    assert_eq!(db.table("lineitem").unwrap().len(), 2);
}

#[test]
fn commits_delete_of_order_with_its_lineitems() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql(
        "DELETE FROM orders WHERE o_orderkey = 1;
         DELETE FROM lineitem WHERE l_orderkey = 1;",
    )
    .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(outcome.is_committed(), "{outcome:?}");
    assert_eq!(db.table("orders").unwrap().len(), 1);
    assert_eq!(db.table("lineitem").unwrap().len(), 1);
}

#[test]
fn emptiness_shortcut_skips_unrelated_views() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    // A pure lineitem insertion cannot violate either EDC (one is gated on
    // ins_orders, the other on del_lineitem) — all views skipped.
    db.execute_sql("INSERT INTO lineitem VALUES (2, 2, 4)")
        .unwrap();
    let (violations, stats) = tintin.check_pending(&mut db, &inst).unwrap();
    assert!(violations.is_empty());
    assert_eq!(stats.views_evaluated, 0);
    assert_eq!(stats.views_skipped, 2);

    // With the shortcut disabled, the views run and still find nothing.
    let tintin_noshort = Tintin::with_config(TintinConfig {
        emptiness_shortcut: false,
        ..TintinConfig::default()
    });
    let (violations, stats) = tintin_noshort.check_pending(&mut db, &inst).unwrap();
    assert!(violations.is_empty());
    assert_eq!(stats.views_skipped, 0);
    assert_eq!(stats.views_evaluated, 2);
    db.truncate_events(&db.touched_event_tables());
}

#[test]
fn initial_state_violation_is_reported_at_install() {
    let mut db = orders_db();
    db.execute_sql("INSERT INTO orders VALUES (9, 1.0)")
        .unwrap(); // no line item
    let tintin = Tintin::new();
    let err = tintin
        .install(&mut db, &[AT_LEAST_ONE_LINEITEM])
        .unwrap_err();
    assert!(
        matches!(err, TintinError::InitialStateViolated { .. }),
        "{err}"
    );
}

#[test]
fn install_rejects_non_assertions_and_duplicates() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    assert!(matches!(
        tintin.install(&mut db, &["SELECT * FROM orders"]),
        Err(TintinError::NotAnAssertion(_))
    ));
    assert!(matches!(
        tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM, AT_LEAST_ONE_LINEITEM]),
        Err(TintinError::DuplicateAssertion(_))
    ));
}

#[test]
fn multiple_assertions_report_the_right_one() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &[
                AT_LEAST_ONE_LINEITEM,
                "CREATE ASSERTION positiveQuantity CHECK (NOT EXISTS (
                     SELECT * FROM lineitem WHERE l_quantity <= 0))",
            ],
        )
        .unwrap();

    db.execute_sql("INSERT INTO lineitem VALUES (1, 9, 0)")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Rejected { violations, .. } = outcome else {
        panic!()
    };
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].assertion, "positivequantity");
}

#[test]
fn fk_assertions_from_metadata_work_end_to_end() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let fk_sql = tintin::assertions_from_foreign_keys(&db);
    assert_eq!(fk_sql.len(), 1, "lineitem → orders");
    let refs: Vec<&str> = fk_sql.iter().map(|s| s.as_str()).collect();
    let inst = tintin.install(&mut db, &refs).unwrap();

    // Inserting a dangling lineitem violates the generated FK assertion.
    db.execute_sql("INSERT INTO lineitem VALUES (99, 1, 1)")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(!outcome.is_committed());

    // Deleting an order that still has lineitems violates it too.
    db.execute_sql("DELETE FROM orders WHERE o_orderkey = 1")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(!outcome.is_committed());

    // Deleting the order together with its lineitems is fine.
    db.execute_sql(
        "DELETE FROM orders WHERE o_orderkey = 1;
         DELETE FROM lineitem WHERE l_orderkey = 1;",
    )
    .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(outcome.is_committed(), "{outcome:?}");
}

#[test]
fn incremental_matches_full_recheck_on_scenarios() {
    // For a batch of handwritten updates, the incremental verdict must
    // equal the non-incremental one.
    let updates = [
        "INSERT INTO orders VALUES (3, 1.0)",
        "INSERT INTO orders VALUES (3, 1.0); INSERT INTO lineitem VALUES (3, 1, 1)",
        "DELETE FROM lineitem WHERE l_orderkey = 2",
        "DELETE FROM orders WHERE o_orderkey = 2; DELETE FROM lineitem WHERE l_orderkey = 2",
        "INSERT INTO lineitem VALUES (1, 5, 2)",
        "DELETE FROM lineitem WHERE l_quantity > 100",
    ];
    for update in updates {
        // Incremental.
        let mut db1 = orders_db();
        let t = Tintin::new();
        let inst1 = t.install(&mut db1, &[AT_LEAST_ONE_LINEITEM]).unwrap();
        db1.execute_sql(update).unwrap();
        let (violations, _) = t.check_pending(&mut db1, &inst1).unwrap();
        let incremental_ok = violations.is_empty();

        // Ground truth: apply to a fresh DB (no capture) and run the
        // original query.
        let mut db2 = orders_db();
        db2.execute_sql(update).unwrap();
        let full = db2
            .query_sql(
                "SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
            )
            .unwrap();
        let full_ok = full.is_empty();
        assert_eq!(
            incremental_ok, full_ok,
            "verdicts diverge for update: {update}"
        );
    }
}

#[test]
fn full_recheck_baseline_agrees_and_rolls_back() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql("INSERT INTO orders VALUES (7, 1.0)")
        .unwrap();
    let full = tintin.full_recheck(&mut db, &inst).unwrap();
    assert!(!full.committed);
    assert_eq!(full.violations.len(), 1);
    assert_eq!(db.table("orders").unwrap().len(), 2, "rolled back");

    db.execute_sql("INSERT INTO orders VALUES (7, 1.0); INSERT INTO lineitem VALUES (7, 1, 1);")
        .unwrap();
    let full = tintin.full_recheck(&mut db, &inst).unwrap();
    assert!(full.committed);
    assert_eq!(db.table("orders").unwrap().len(), 3);
}

#[test]
fn optimizer_ablation_preserves_verdicts() {
    // The unoptimized EDC set (more views) must reach the same verdicts.
    let updates = [
        "INSERT INTO orders VALUES (3, 1.0)",
        "INSERT INTO orders VALUES (3, 1.0); INSERT INTO lineitem VALUES (3, 1, 1)",
        "DELETE FROM lineitem WHERE l_orderkey = 2",
    ];
    for update in updates {
        let mut verdicts = Vec::new();
        for (optimize, fks) in [(true, true), (true, false), (false, false)] {
            let mut db = orders_db();
            let t = Tintin::with_config(TintinConfig {
                edc: EdcConfig {
                    optimize,
                    assume_fks_valid: fks,
                    ..EdcConfig::default()
                },
                ..TintinConfig::default()
            });
            let inst = t.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
            db.execute_sql(update).unwrap();
            let (violations, _) = t.check_pending(&mut db, &inst).unwrap();
            verdicts.push(violations.is_empty());
            db.truncate_events(&db.touched_event_tables());
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "ablation verdicts diverge for {update}: {verdicts:?}"
        );
    }
}

#[test]
fn unoptimized_install_has_more_views() {
    let mut db1 = orders_db();
    let t1 = Tintin::new();
    let i1 = t1.install(&mut db1, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    let mut db2 = orders_db();
    let t2 = Tintin::with_config(TintinConfig {
        edc: EdcConfig {
            optimize: false,
            assume_fks_valid: false,
            ..EdcConfig::default()
        },
        ..TintinConfig::default()
    });
    let i2 = t2.install(&mut db2, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    assert!(
        i2.view_count() > i1.view_count(),
        "optimizations should reduce the number of EDC views ({} vs {})",
        i2.view_count(),
        i1.view_count()
    );
}

#[test]
fn reject_then_fix_then_commit_flow() {
    // The §3 demo flow: a rejected update leaves the system ready for a new
    // proposal.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql("INSERT INTO orders VALUES (5, 1.0)")
        .unwrap();
    assert!(!tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    db.execute_sql("INSERT INTO orders VALUES (5, 1.0)")
        .unwrap();
    db.execute_sql("INSERT INTO lineitem VALUES (5, 1, 2)")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    // And the final state satisfies the assertion.
    let checks = tintin.check_current_state(&db, &inst).unwrap();
    assert!(checks.iter().all(|(_, n)| *n == 0));
}

#[test]
fn union_assertion_lifecycle() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION keysNonNegative CHECK (NOT EXISTS (
                 SELECT o_orderkey FROM orders WHERE o_orderkey < 0
                 UNION
                 SELECT l_orderkey FROM lineitem WHERE l_orderkey < 0))"],
        )
        .unwrap();
    assert_eq!(inst.assertions[0].denial_count, 2);

    db.execute_sql("INSERT INTO orders VALUES (-1, 0.0); INSERT INTO lineitem VALUES (-1, 1, 1);")
        .unwrap();
    assert!(!tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    db.execute_sql("INSERT INTO orders VALUES (10, 0.0); INSERT INTO lineitem VALUES (10, 1, 1);")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
}

#[test]
fn generated_views_are_printable_portable_sql() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    for v in inst.views() {
        // Portable: plain CREATE VIEW statements that reparse.
        let stmt = tintin_sql::parse_statement(&v.sql_text).unwrap();
        assert!(matches!(stmt, tintin_sql::Statement::CreateView(_)));
    }
}

#[test]
fn delete_and_reinsert_same_row_is_clean_noop() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();

    db.execute_sql(
        "DELETE FROM lineitem WHERE l_orderkey = 1;
         INSERT INTO lineitem VALUES (1, 1, 5);",
    )
    .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Committed { stats, .. } = outcome else {
        panic!("cancelled events should commit cleanly");
    };
    assert_eq!(stats.normalization.cancelled, 1);
    assert_eq!(db.table("lineitem").unwrap().len(), 2);
}

#[test]
fn update_statement_checked_incrementally() {
    // UPDATE decomposes into del+ins events and flows through safeCommit.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &[
                AT_LEAST_ONE_LINEITEM,
                "CREATE ASSERTION positiveQuantity CHECK (NOT EXISTS (
                     SELECT * FROM lineitem WHERE l_quantity <= 0))",
            ],
        )
        .unwrap();

    // Valid update: bump a quantity.
    db.execute_sql("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = 1")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    let rs = db
        .query_sql("SELECT l_quantity FROM lineitem WHERE l_orderkey = 1")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(6));

    // Violating update: zero out a quantity.
    db.execute_sql("UPDATE lineitem SET l_quantity = 0 WHERE l_orderkey = 2")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Rejected { violations, .. } = outcome else {
        panic!("expected rejection")
    };
    assert_eq!(violations[0].assertion, "positivequantity");
    let rs = db
        .query_sql("SELECT l_quantity FROM lineitem WHERE l_orderkey = 2")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3), "update rolled back");

    // Moving line (2, 1) onto the existing key (1, 1) is refused when the
    // statement is planned, as in a session.
    let err = db
        .execute_sql("UPDATE lineitem SET l_orderkey = 1 WHERE l_orderkey = 2")
        .unwrap_err();
    assert!(
        matches!(err, tintin_engine::EngineError::UniqueViolation { .. }),
        "{err}"
    );

    // Violating update via key migration: moving a lineitem to another
    // order strands order 2.
    db.execute_sql("UPDATE lineitem SET l_orderkey = 1, l_linenumber = 2 WHERE l_orderkey = 2")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(
        !outcome.is_committed(),
        "stranding order 2 must be rejected"
    );
}

#[test]
fn aggregate_assertion_checked_via_fallback() {
    // The paper lists aggregates as future work; here they are accepted in
    // fallback mode: re-run the original query on the hypothetical new
    // state, gated on the assertion's tables.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &[
                AT_LEAST_ONE_LINEITEM,
                "CREATE ASSERTION atMostThreeLines CHECK (NOT EXISTS (
                     SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey HAVING COUNT(*) > 3))",
            ],
        )
        .unwrap();
    assert_eq!(inst.fallbacks.len(), 1);
    assert_eq!(inst.fallbacks[0].tables, vec!["lineitem"]);

    // Three more lineitems for order 1: exactly 4 → violation.
    db.execute_sql("INSERT INTO lineitem VALUES (1, 2, 1), (1, 3, 1), (1, 4, 1)")
        .unwrap();
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Rejected { violations, stats } = outcome else {
        panic!("4 lineitems must violate atMostThreeLines");
    };
    assert_eq!(violations[0].assertion, "atmostthreelines");
    assert_eq!(stats.fallbacks_evaluated, 1);
    assert_eq!(db.table("lineitem").unwrap().len(), 2, "rejected");

    // Two more lineitems (3 total) commit fine.
    db.execute_sql("INSERT INTO lineitem VALUES (1, 2, 1), (1, 3, 1)")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    // An update not touching lineitem skips the fallback entirely.
    db.execute_sql("INSERT INTO orders VALUES (9, 1.0); INSERT INTO lineitem VALUES (9, 1, 1);")
        .unwrap();
    // (touches lineitem, so evaluated) — use an orders-only delete instead:
    tintin.safe_commit(&mut db, &inst).unwrap();
    db.execute_sql(
        "DELETE FROM orders WHERE o_orderkey = 9; DELETE FROM lineitem WHERE l_orderkey = 9;",
    )
    .unwrap();
    let (_, stats) = tintin.check_pending(&mut db, &inst).unwrap();
    assert_eq!(
        stats.fallbacks_evaluated, 1,
        "lineitem deletes gate it open"
    );
    db.truncate_events(&db.touched_event_tables());

    // Customer-free schema here; an orders-only insert leaves lineitem
    // events empty → fallback skipped.
    db.execute_sql("INSERT INTO orders VALUES (12, 1.0)")
        .unwrap();
    let (_, stats) = tintin.check_pending(&mut db, &inst).unwrap();
    assert_eq!(stats.fallbacks_skipped, 1);
    db.truncate_events(&db.touched_event_tables());
}

#[test]
fn aggregate_fallback_can_be_disabled() {
    let mut db = orders_db();
    let tintin = Tintin::with_config(TintinConfig {
        aggregate_fallback: false,
        ..TintinConfig::default()
    });
    let err = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION agg CHECK (NOT EXISTS (
                  SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING COUNT(*) > 3))"],
        )
        .unwrap_err();
    assert!(matches!(err, TintinError::Translate(_)), "{err}");
}

#[test]
fn export_sql_is_a_portable_script() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    let script = inst.export_sql(&db);
    // Event tables for both base tables plus the two views.
    for frag in [
        "CREATE TABLE ins_orders",
        "CREATE TABLE del_orders",
        "CREATE TABLE ins_lineitem",
        "CREATE TABLE del_lineitem",
        "CREATE VIEW vio_atleastonelineitem_0_0",
        "CREATE VIEW vio_atleastonelineitem_0_1",
    ] {
        assert!(script.contains(frag), "missing `{frag}` in:\n{script}");
    }
    // The whole script parses as SQL (comments included).
    let stmts = tintin_sql::parse_statements(&script).unwrap();
    assert_eq!(stmts.len(), 6);
    // And it installs cleanly on a fresh database with the base schema.
    let mut fresh = Database::new();
    fresh
        .execute_sql(
            "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_totalprice REAL);
             CREATE TABLE lineitem (l_orderkey INT NOT NULL, l_linenumber INT NOT NULL,
                 l_quantity INT NOT NULL, PRIMARY KEY (l_orderkey, l_linenumber));",
        )
        .unwrap();
    fresh.execute_sql(&script).unwrap();
    assert_eq!(fresh.view_names().len(), 2);

    // An aggregate assertion exports as comments only, and the comment
    // text reads as prose: no run of spaces inside it.
    let agg = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION atMostThreeLines CHECK (NOT EXISTS (
                   SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING COUNT(*) > 3))"],
        )
        .unwrap();
    let script = agg.export_sql(&db);
    assert!(script.contains("aggregate assertion"), "{script}");
    for line in script.lines() {
        if let Some(text) = line.strip_prefix("--") {
            assert!(!text.trim_start().contains("  "), "spaces run in `{line}`");
        }
    }
}

#[test]
fn is_null_assertion_end_to_end() {
    // Completeness constraint: no order may have a NULL total price.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION priceKnown CHECK (NOT EXISTS (
                  SELECT * FROM orders WHERE o_totalprice IS NULL))"],
        )
        .unwrap();

    db.execute_sql("INSERT INTO orders VALUES (8, NULL)")
        .unwrap();
    assert!(!tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    db.execute_sql("INSERT INTO orders VALUES (8, 80.0)")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
}

#[test]
fn view_generation_is_deterministic() {
    // Two installs on identical databases produce byte-identical SQL.
    let gen = || {
        let mut db = orders_db();
        let tintin = Tintin::new();
        let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
        inst.views()
            .iter()
            .map(|v| v.sql_text.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(gen(), gen());
}

#[test]
fn three_level_nesting_assertion() {
    // Every order of a "big spender" (totalprice > 15) has a line item with
    // quantity over 2 — exercises derived-predicate event rules in depth.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION bigSpendersServed CHECK (NOT EXISTS (
                  SELECT * FROM orders o
                  WHERE o.o_totalprice > 15.0 AND NOT EXISTS (
                      SELECT * FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 2)))"],
        )
        .unwrap();

    // Order 2 (price 20, quantity 3) is compliant; shrinking the quantity
    // to 1 through delete+insert violates.
    db.execute_sql(
        "DELETE FROM lineitem WHERE l_orderkey = 2;
         INSERT INTO lineitem VALUES (2, 1, 1);",
    )
    .unwrap();
    assert!(!tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    // Raising the price of an order whose only line is small also violates…
    // via UPDATE (del+ins events on orders).
    db.execute_sql("INSERT INTO orders VALUES (4, 10.0); INSERT INTO lineitem VALUES (4, 1, 1);")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    db.execute_sql("UPDATE orders SET o_totalprice = 99.0 WHERE o_orderkey = 4")
        .unwrap();
    assert!(!tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    // …while raising it with a big line item present commits.
    db.execute_sql("INSERT INTO lineitem VALUES (4, 2, 9)")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
    db.execute_sql("UPDATE orders SET o_totalprice = 99.0 WHERE o_orderkey = 4")
        .unwrap();
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());
}

#[test]
fn generated_views_plan_as_index_probes() {
    // EXPLAIN over a generated violation view: the event table is the outer
    // scan, all base-table accesses are index probes — the mechanics behind
    // the paper's O(update) claim.
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    let v = &inst.views()[0];
    let plan = db.explain(&v.query).unwrap();
    assert!(plan.contains("Scan ins_orders"), "{plan}");
    assert!(plan.contains("AntiJoin (NOT EXISTS)"), "{plan}");
    assert!(
        plan.contains("Probe lineitem"),
        "base-table access must be an index probe:\n{plan}"
    );
    assert!(
        !plan.contains("Scan lineitem"),
        "no full scan of base data in the incremental view:\n{plan}"
    );
}

#[test]
fn uninstall_restores_plain_database() {
    let mut db = orders_db();
    let tintin = Tintin::new();
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    assert!(!db.view_names().is_empty());
    assert!(db.is_captured("orders"));

    tintin.uninstall(&mut db, &inst, true).unwrap();
    assert!(db.view_names().is_empty());
    assert!(!db.is_captured("orders"));
    assert!(db.table("ins_orders").is_none());

    // DML goes straight to base tables again.
    db.execute_sql("INSERT INTO orders VALUES (7, 1.0)")
        .unwrap();
    assert_eq!(db.table("orders").unwrap().len(), 3);

    // And a re-install works afterwards (state must be consistent first).
    db.execute_sql("INSERT INTO lineitem VALUES (7, 1, 1)")
        .unwrap();
    let inst2 = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    assert_eq!(inst2.view_count(), 2);
}

#[test]
fn failed_install_leaves_database_unchanged() {
    // An install that fails the initial-state check must roll back
    // everything it created — views *and* event capture — so the data can
    // be fixed with plain DML and the install retried.
    let mut db = orders_db();
    db.execute_sql("INSERT INTO orders VALUES (9, 1.0)")
        .unwrap(); // no lineitem

    let tintin = Tintin::new();
    let err = tintin
        .install(&mut db, &[AT_LEAST_ONE_LINEITEM])
        .unwrap_err();
    assert!(matches!(err, TintinError::InitialStateViolated { .. }));
    assert!(db.view_names().is_empty(), "views rolled back");
    assert!(!db.is_captured("orders"), "capture rolled back");
    assert!(db.table("ins_orders").is_none(), "event tables rolled back");

    // The fix-up insert goes to the base table (capture is off again)…
    db.execute_sql("INSERT INTO lineitem VALUES (9, 1, 1)")
        .unwrap();
    assert_eq!(db.table("lineitem").unwrap().len(), 3);

    // …and the retry succeeds.
    let inst = tintin.install(&mut db, &[AT_LEAST_ONE_LINEITEM]).unwrap();
    assert_eq!(inst.view_count(), 2);
}
