//! Prepared vio-view plans and the table → check relevance index.
//!
//! Pins down the three properties the commit-path optimization rests on:
//!
//! 1. **Semantics preservation** — relevance skipping (the emptiness
//!    shortcut driven by the index) never changes which violations a commit
//!    reports or which state it produces;
//! 2. **Plan-cache correctness** — DDL (including `DROP ASSERTION` +
//!    re-install) never lets a stale plan run, observed via the
//!    `plans_recompiled` counter and by behaviour;
//! 3. **Access paths** — the generated vio views scan only event tables
//!    (bounded by the update) and reach everything else, event tables
//!    included, through index probes.

use tintin::{Tintin, TintinConfig};
use tintin_engine::Database;
use tintin_session::{Session, StatementOutcome};

/// A schema of `n` independent tables plus one pair linked by id.
fn schema_sql(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!("CREATE TABLE t{i} (id INT PRIMARY KEY, v INT);"));
    }
    out
}

/// One single-table assertion per table (`v` never negative), plus one
/// two-table assertion over t0 × t1.
fn assertions(n: usize) -> Vec<String> {
    let mut out: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "CREATE ASSERTION nonneg{i} CHECK (NOT EXISTS (
                     SELECT * FROM t{i} WHERE v < 0))"
            )
        })
        .collect();
    out.push(
        "CREATE ASSERTION pair_order CHECK (NOT EXISTS (
             SELECT * FROM t0 x, t1 y WHERE x.id = y.id AND x.v > y.v))"
            .to_string(),
    );
    out
}

fn session_with_shortcut(shortcut: bool) -> Session {
    let tintin = Tintin::with_config(TintinConfig {
        emptiness_shortcut: shortcut,
        ..TintinConfig::default()
    });
    Session::with_database_and_checker(Database::new(), tintin)
}

/// Outcome digest of one statement: committed flag plus the sorted violated
/// assertion names (empty when committed).
fn digest(outcome: &StatementOutcome) -> (bool, Vec<String>) {
    match outcome {
        StatementOutcome::Committed { .. } => (true, Vec::new()),
        StatementOutcome::Rejected { violations, .. } => {
            let mut names: Vec<String> = violations.iter().map(|v| v.assertion.clone()).collect();
            names.sort();
            names.dedup();
            (false, names)
        }
        _ => (true, Vec::new()),
    }
}

#[test]
fn relevance_skipping_is_semantics_preserving() {
    const N: usize = 5;
    // The same script, commit by commit, on a shortcut-on and a
    // shortcut-off server: identical violations, identical final state.
    let script: Vec<&str> = vec![
        // touches one table, valid
        "BEGIN; INSERT INTO t0 VALUES (1, 10); COMMIT;",
        // touches one table, violating (negative v)
        "BEGIN; INSERT INTO t2 VALUES (1, -5); COMMIT;",
        // touches several tables, valid
        "BEGIN; INSERT INTO t1 VALUES (1, 20); INSERT INTO t3 VALUES (1, 3); \
         INSERT INTO t4 VALUES (9, 9); COMMIT;",
        // violates the two-table assertion only via the join (t0.v > t1.v)
        "BEGIN; UPDATE t1 SET v = 5 WHERE id = 1; COMMIT;",
        // violates the pair from the other side
        "BEGIN; UPDATE t0 SET v = 99 WHERE id = 1; COMMIT;",
        // deletion rescinds the pair; also touches an unrelated table
        "BEGIN; DELETE FROM t1 WHERE id = 1; INSERT INTO t2 VALUES (2, 2); COMMIT;",
        // autocommitted single statements
        "INSERT INTO t3 VALUES (2, -1)",
        "INSERT INTO t3 VALUES (2, 1)",
        // a commit whose events normalize away entirely (insert + delete)
        "BEGIN; INSERT INTO t4 VALUES (50, 5); DELETE FROM t4 WHERE id = 50; COMMIT;",
    ];

    let mut digests: Vec<Vec<(bool, Vec<String>)>> = Vec::new();
    let mut finals: Vec<Vec<String>> = Vec::new();
    for shortcut in [true, false] {
        let mut s = session_with_shortcut(shortcut);
        s.execute(&schema_sql(N)).unwrap();
        let asserts = assertions(N);
        let refs: Vec<&str> = asserts.iter().map(|a| a.as_str()).collect();
        s.install(&refs).unwrap();
        let mut outcomes = Vec::new();
        for step in &script {
            let out = s.execute(step).unwrap();
            outcomes.push(digest(out.last().unwrap()));
        }
        digests.push(outcomes);
        finals.push(
            (0..N)
                .map(|i| {
                    format!(
                        "{}",
                        s.query_rows(&format!("SELECT id, v FROM t{i} ORDER BY id"))
                            .unwrap()
                    )
                })
                .collect(),
        );
    }
    assert_eq!(
        digests[0], digests[1],
        "shortcut on/off must report identical violations"
    );
    assert_eq!(
        finals[0], finals[1],
        "shortcut on/off must produce identical final states"
    );
}

#[test]
fn relevance_index_skips_untouched_checks_and_reuses_plans() {
    const N: usize = 8;
    let mut s = session_with_shortcut(true);
    s.execute(&schema_sql(N)).unwrap();
    let asserts = assertions(N);
    let refs: Vec<&str> = asserts.iter().map(|a| a.as_str()).collect();
    s.install(&refs).unwrap();

    // Warm-up commit: installation happened in one call, so every plan was
    // prepared at the final catalog generation — nothing recompiles even on
    // the first commit.
    let out = s
        .execute("BEGIN; INSERT INTO t7 VALUES (1, 1); COMMIT;")
        .unwrap();
    let StatementOutcome::Committed { stats, .. } = out.last().unwrap() else {
        panic!("expected commit, got {:?}", out.last());
    };
    assert_eq!(stats.plans_recompiled, 0, "install-time plans are warm");
    assert_eq!(stats.plans_reused, stats.views_evaluated);

    // A commit touching only t5: every check not gated on t5 is skipped by
    // the relevance index without being consulted.
    let out = s
        .execute("BEGIN; INSERT INTO t5 VALUES (1, 2); COMMIT;")
        .unwrap();
    let StatementOutcome::Committed { stats, .. } = out.last().unwrap() else {
        panic!("expected commit, got {:?}", out.last());
    };
    // The prunable regime: t5's own check survives the relevance index,
    // and its residual gate (v < 0, which the valid insert cannot satisfy)
    // then skips the full plan — so no view is evaluated at all.
    assert_eq!(
        stats.views_skipped_residual, 1,
        "t5's own check must survive the relevance index and stop at its residual gate: {stats:?}"
    );
    assert_eq!(
        stats.views_evaluated, 0,
        "the residual gate must spare the one relevant view: {stats:?}"
    );
    assert_eq!(
        stats.views_skipped_relevance + stats.views_skipped_residual + stats.views_evaluated,
        stats.views_total,
        "all gates are single-event here: skipped + evaluated covers everything"
    );
    assert_eq!(stats.plans_recompiled, 0);
    assert_eq!(stats.plans_reused, stats.views_evaluated);

    // With the shortcut off the same update evaluates everything.
    let mut s_off = session_with_shortcut(false);
    s_off.execute(&schema_sql(N)).unwrap();
    let refs: Vec<&str> = asserts.iter().map(|a| a.as_str()).collect();
    s_off.install(&refs).unwrap();
    let out = s_off
        .execute("BEGIN; INSERT INTO t5 VALUES (1, 2); COMMIT;")
        .unwrap();
    let StatementOutcome::Committed { stats, .. } = out.last().unwrap() else {
        panic!("expected commit, got {:?}", out.last());
    };
    assert_eq!(stats.views_evaluated, stats.views_total);
    assert_eq!(stats.views_skipped_relevance, 0);
    assert_eq!(stats.views_skipped_residual, 0);
}

#[test]
fn drop_assertion_and_reinstall_never_runs_a_stale_plan() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        .unwrap();
    // Column-to-column bounds: the analysis can emit no constant residual
    // gate for these, so a valid commit still evaluates the view — which
    // is what lets this test observe the plan cache via the counters.
    s.execute("CREATE ASSERTION bound CHECK (NOT EXISTS (SELECT * FROM t WHERE b < a))")
        .unwrap();
    assert!(s.execute("INSERT INTO t VALUES (11, 1)").unwrap()[0].is_rejected());
    // b = a satisfies both the current rule and the replacement below
    // (whose install re-checks the initial state).
    assert!(s.execute("INSERT INTO t VALUES (1, 1)").unwrap()[0].is_committed());

    // Replace the assertion under the same name (same generated view
    // names!) with the opposite sense of the bound.
    s.execute("DROP ASSERTION bound").unwrap();
    s.execute("CREATE ASSERTION bound CHECK (NOT EXISTS (SELECT * FROM t WHERE b > a))")
        .unwrap();
    // The old rule must be gone and the new one enforced — a stale plan for
    // the old view body (b < a, which 2 < 99 satisfies) would reject this.
    assert!(s.execute("INSERT INTO t VALUES (99, 2)").unwrap()[0].is_committed());
    assert!(s.execute("INSERT INTO t VALUES (3, 7)").unwrap()[0].is_rejected());

    // DDL between commits (an unrelated index) moves the catalog
    // generation: the next commit recompiles and still answers correctly,
    // the one after reuses the fresh plans.
    s.execute("CREATE TABLE aux (x INT PRIMARY KEY); CREATE INDEX t_b ON t (b);")
        .unwrap();
    let out = s.execute("INSERT INTO t VALUES (4, 4)").unwrap();
    let StatementOutcome::Committed { stats, .. } = &out[0] else {
        panic!("expected commit, got {:?}", out[0]);
    };
    assert!(
        stats.plans_recompiled >= 1,
        "DDL must force recompilation, got {stats:?}"
    );
    let out = s.execute("INSERT INTO t VALUES (5, 5)").unwrap();
    let StatementOutcome::Committed { stats, .. } = &out[0] else {
        panic!("expected commit, got {:?}", out[0]);
    };
    assert_eq!(
        stats.plans_recompiled, 0,
        "fresh plans are reused: {stats:?}"
    );
    assert_eq!(stats.plans_reused, stats.views_evaluated);
}

#[test]
fn vio_views_scan_only_event_tables_and_probe_the_rest() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
         CREATE TABLE lineitem (
             l_orderkey INT NOT NULL REFERENCES orders, l_linenumber INT NOT NULL,
             PRIMARY KEY (l_orderkey, l_linenumber));",
    )
    .unwrap();
    let tintin = Tintin::new();
    let inst = tintin
        .install(
            &mut db,
            &["CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)))"],
        )
        .unwrap();
    assert!(!inst.views().is_empty());
    let mut probed_event_table = false;
    for v in inst.views() {
        let plan = db.explain(&v.query).unwrap();
        // Every scan is of an event table: vio-view cost is bounded by the
        // update size, never the database size.
        for line in plan.lines() {
            let line = line.trim_start();
            if let Some(rest) = line.strip_prefix("Scan ") {
                let table = rest.split_whitespace().next().unwrap();
                assert!(
                    table.starts_with("ins_") || table.starts_with("del_"),
                    "view {} scans base table {table}:\n{plan}",
                    v.name
                );
            }
            if line.starts_with("Probe ins_") || line.starts_with("Probe del_") {
                probed_event_table = true;
            }
        }
        assert!(
            plan.contains("Probe "),
            "view {} has no index probe at all:\n{plan}",
            v.name
        );
    }
    assert!(
        probed_event_table,
        "event tables must be reachable through Access::Probe, not full scans"
    );
    // The relevance summary covers both base tables.
    let deps = inst.table_dependencies();
    assert!(deps.contains_key("orders") && deps.contains_key("lineitem"));
}
