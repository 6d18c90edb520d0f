//! The paper's §3 demo script as an integration test: build event tables on
//! the TPC-H database, install assertions of different complexity, then
//! apply a mix of violating and non-violating updates, calling `safeCommit`
//! after each one.

use tintin::{CommitOutcome, Tintin};
use tintin_engine::{Database, TS_LATEST};
use tintin_tpch::{assertion_sql, Dbgen, TpchCounts, UpdateGen, TPCH_TABLES};

fn demo_db() -> (Database, TpchCounts) {
    let gen = Dbgen::new(0.0005); // ~750 orders, ~3k lineitems
    (gen.generate(), gen.counts())
}

#[test]
fn demo_script_end_to_end() {
    let (mut db, counts) = demo_db();
    let tintin = Tintin::new();

    // Step 1: TINTIN builds the auxiliary tables and "triggers" — one
    // ins/del table per TPC table.
    let inst = tintin.install(&mut db, &assertion_sql()).unwrap();
    for t in TPCH_TABLES {
        assert!(db.table(&format!("ins_{t}")).is_some());
        assert!(db.table(&format!("del_{t}")).is_some());
        assert!(db.is_captured(t));
    }
    assert_eq!(inst.assertions.len(), 6);
    assert!(inst.view_count() >= 6, "views: {}", inst.view_count());

    let orders_before = db.table("orders").unwrap().len();
    let mut ug = UpdateGen::new(counts, 2024);

    // Step 2: a non-violating update commits.
    ug.valid_batch(&mut db, 2_000);
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    assert!(outcome.is_committed(), "{outcome:?}");
    assert_eq!(
        db.pending_counts(TS_LATEST),
        (0, 0),
        "events truncated after commit"
    );

    // Step 3: a violating update is rejected and reported; the database is
    // unchanged by it.
    let orders_mid = db.table("orders").unwrap().len();
    ug.violating_batch(&mut db, 1_000, 2);
    let outcome = tintin.safe_commit(&mut db, &inst).unwrap();
    let CommitOutcome::Rejected { violations, .. } = outcome else {
        panic!("expected rejection");
    };
    assert!(violations
        .iter()
        .any(|v| v.assertion == "atleastonelineitem"));
    assert_eq!(db.table("orders").unwrap().len(), orders_mid);
    assert_eq!(
        db.pending_counts(TS_LATEST),
        (0, 0),
        "events truncated after reject"
    );

    // Step 4: another valid update still commits (the system remains
    // usable after a rejection).
    ug.valid_batch(&mut db, 1_000);
    assert!(tintin.safe_commit(&mut db, &inst).unwrap().is_committed());

    // Final state satisfies everything.
    let checks = tintin.check_current_state(&db, &inst).unwrap();
    assert!(checks.iter().all(|(_, n)| *n == 0), "{checks:?}");
    assert!(db.table("orders").unwrap().len() >= orders_before / 2);
}

#[test]
fn incremental_and_baseline_agree_on_tpch_batches() {
    // Paired runs over several seeds: TINTIN's verdict equals the
    // non-incremental full recheck on the same pending update.
    for seed in [1u64, 2, 3] {
        let (mut db, counts) = demo_db();
        let tintin = Tintin::new();
        let inst = tintin.install(&mut db, &assertion_sql()).unwrap();
        let mut ug = UpdateGen::new(counts, seed);
        let violating = seed % 2 == 0;
        if violating {
            ug.violating_batch(&mut db, 1_500, 1);
        } else {
            ug.valid_batch(&mut db, 1_500);
        }

        let mut db2 = db.clone();
        let (violations, _) = tintin.check_pending(&mut db, &inst).unwrap();
        let full = tintin.full_recheck(&mut db2, &inst).unwrap();
        assert_eq!(
            violations.is_empty(),
            full.committed,
            "incremental vs baseline diverged (seed {seed})"
        );
        assert_eq!(!violating, full.committed, "expected verdict (seed {seed})");
    }
}

#[test]
fn check_time_is_independent_of_database_size() {
    // The heart of the paper's efficiency claim, as a coarse smoke test:
    // growing the database ~4x while keeping the update fixed must not grow
    // the incremental check time proportionally (timings in debug builds
    // are noisy, so only an order-of-magnitude bound is asserted).
    let mut times = Vec::new();
    for sf in [0.0005, 0.002] {
        let gen = Dbgen::new(sf);
        let mut db = gen.generate();
        let tintin = Tintin::new();
        let inst = tintin.install(&mut db, &assertion_sql()).unwrap();
        let mut ug = UpdateGen::new(gen.counts(), 5);
        ug.valid_batch(&mut db, 2_000);
        // Warm once, measure the second check on the same events.
        let (_, stats1) = tintin.check_pending(&mut db, &inst).unwrap();
        let (_, stats2) = tintin.check_pending(&mut db, &inst).unwrap();
        times.push(stats1.check_time.min(stats2.check_time));
        db.truncate_events(&db.touched_event_tables());
    }
    let small = times[0].as_secs_f64().max(1e-6);
    let big = times[1].as_secs_f64();
    assert!(
        big / small < 20.0,
        "incremental check scaled with DB size: {small}s → {big}s"
    );
}
