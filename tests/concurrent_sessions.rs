//! Acceptance tests for concurrent sessions over one shared database.
//!
//! The contract under test (see `docs/ARCHITECTURE.md`):
//!
//! * any number of [`Session`]s attach to one [`SharedDatabase`] through a
//!   [`Server`];
//! * a transaction's pending update is visible to its own queries
//!   (read-your-writes) and to nobody else;
//! * `COMMIT` is one exclusive critical section — a violating commit rolls
//!   back atomically while a concurrent valid commit survives, and no
//!   session ever observes a torn intermediate state.

use std::sync::{Arc, Barrier};
use tintin_session::{Server, Session, StatementOutcome};

/// orders/lineitem schema with the paper's running-example assertion:
/// every order must have at least one lineitem.
fn orders_server() -> Server {
    let server = Server::new();
    let mut s = server.connect();
    s.execute(
        "CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_totalprice REAL);
         CREATE TABLE lineitem (
             l_orderkey INT NOT NULL REFERENCES orders,
             l_linenumber INT NOT NULL,
             PRIMARY KEY (l_orderkey, l_linenumber));
         CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
             SELECT * FROM orders o WHERE NOT EXISTS (
                 SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)));",
    )
    .unwrap();
    server
}

fn count(s: &Session, sql: &str) -> usize {
    s.query_rows(sql).unwrap().len()
}

/// The acceptance scenario from the issue, single-threaded for a
/// deterministic interleaving: two sessions, both with open transactions;
/// a SELECT inside each observes that transaction's own pending
/// inserts/deletes but not the other session's; the violating commit rolls
/// back while the valid one survives.
#[test]
fn interleaved_transactions_are_isolated_until_commit() {
    let server = orders_server();
    let mut good = server.connect();
    let mut bad = server.connect();
    assert!(good.database().same_database(bad.database()));

    good.execute("BEGIN; INSERT INTO orders VALUES (1, 10.0); INSERT INTO lineitem VALUES (1, 1);")
        .unwrap();
    bad.execute("BEGIN; INSERT INTO orders VALUES (2, 20.0);")
        .unwrap();

    // Read-your-writes: each session sees exactly its own pending rows.
    assert_eq!(count(&good, "SELECT * FROM orders WHERE o_orderkey = 1"), 1);
    assert_eq!(count(&good, "SELECT * FROM orders WHERE o_orderkey = 2"), 0);
    assert_eq!(count(&bad, "SELECT * FROM orders WHERE o_orderkey = 2"), 1);
    assert_eq!(count(&bad, "SELECT * FROM orders WHERE o_orderkey = 1"), 0);
    // …including through joins/subqueries: `good`'s pending order has a
    // pending lineitem, `bad`'s does not.
    let orphans = "SELECT * FROM orders o WHERE NOT EXISTS (
        SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)";
    assert_eq!(count(&good, orphans), 0);
    assert_eq!(count(&bad, orphans), 1);
    // The shared database itself has seen nothing.
    assert_eq!(server.database().read().table("orders").unwrap().len(), 0);

    // The valid commit survives; the violating one rolls back atomically.
    let out = good.execute("COMMIT").unwrap();
    assert!(out[0].is_committed(), "got {:?}", out[0]);
    let out = bad.execute("COMMIT").unwrap();
    let StatementOutcome::Rejected { violations, .. } = &out[0] else {
        panic!("expected rejection, got {:?}", out[0]);
    };
    assert_eq!(violations[0].assertion, "atleastonelineitem");

    // Final state: only the valid order, fully consistent, no stray events.
    for s in [&good, &bad] {
        assert_eq!(count(s, "SELECT * FROM orders"), 1);
        assert_eq!(count(s, orphans), 0);
        assert_eq!(s.pending_counts(), (0, 0));
    }
}

/// MVCC snapshot isolation: an open transaction keeps reading its
/// `BEGIN`-time state — a concurrent session's commit is invisible to it
/// (while its own pending writes remain visible), and only after the
/// transaction ends does the session observe the newly committed rows.
#[test]
fn open_transaction_reads_its_begin_time_snapshot() {
    let server = orders_server();
    let mut good = server.connect();
    let mut bad = server.connect();

    bad.execute("BEGIN; INSERT INTO orders VALUES (2, 20.0);")
        .unwrap();
    let before = bad
        .query_rows("SELECT * FROM orders ORDER BY o_orderkey")
        .unwrap();
    good.execute(
        "BEGIN; INSERT INTO orders VALUES (1, 10.0); INSERT INTO lineitem VALUES (1, 1); COMMIT;",
    )
    .unwrap();

    // The committed order 1 is invisible to bad's snapshot: repeated reads
    // are identical across the concurrent commit.
    assert_eq!(count(&bad, "SELECT * FROM orders"), 1);
    let after = bad
        .query_rows("SELECT * FROM orders ORDER BY o_orderkey")
        .unwrap();
    assert_eq!(before.rows, after.rows, "snapshot reads must be repeatable");
    // Autocommit readers (no snapshot pinned) see the latest state.
    assert_eq!(count(&server.connect(), "SELECT * FROM orders"), 1);

    bad.execute("ROLLBACK").unwrap();
    // Outside the transaction the session reads the latest committed state.
    assert_eq!(count(&bad, "SELECT * FROM orders"), 1);
    let rs = bad.query_rows("SELECT o_orderkey FROM orders").unwrap();
    assert_eq!(rs.rows[0][0], tintin_engine::Value::Int(1));
}

/// Two threads race their commits; one violates the assertion. Whatever the
/// interleaving, the violator rolls back, the valid commit survives, and
/// the final state is consistent.
#[test]
fn racing_commits_violator_rolls_back_valid_survives() {
    for round in 0..16 {
        let server = orders_server();
        let barrier = Arc::new(Barrier::new(2));

        let valid = {
            let mut s = server.connect();
            let b = barrier.clone();
            std::thread::spawn(move || {
                s.execute("BEGIN").unwrap();
                s.execute(&format!(
                    "INSERT INTO orders VALUES ({round}, 10.0);
                     INSERT INTO lineitem VALUES ({round}, 1);"
                ))
                .unwrap();
                b.wait();
                s.execute("COMMIT").unwrap().pop().unwrap()
            })
        };
        let violating = {
            let mut s = server.connect();
            let b = barrier.clone();
            std::thread::spawn(move || {
                s.execute("BEGIN").unwrap();
                s.execute(&format!(
                    "INSERT INTO orders VALUES ({}, 66.0)",
                    round + 1000
                ))
                .unwrap();
                b.wait();
                s.execute("COMMIT").unwrap().pop().unwrap()
            })
        };

        let valid_out = valid.join().unwrap();
        let violating_out = violating.join().unwrap();
        assert!(
            valid_out.is_committed(),
            "round {round}: valid commit lost: {valid_out:?}"
        );
        assert!(
            violating_out.is_rejected(),
            "round {round}: violating commit survived: {violating_out:?}"
        );

        let check = server.connect();
        assert_eq!(count(&check, "SELECT * FROM orders"), 1);
        assert_eq!(
            count(
                &check,
                "SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)"
            ),
            0,
            "round {round}: inconsistent state committed"
        );
        assert_eq!(
            server
                .database()
                .read()
                .pending_counts(tintin_engine::TS_LATEST),
            (0, 0)
        );
    }
}

/// A reader hammering the invariant while writers commit valid batches:
/// because `COMMIT` holds the exclusive write lock for the whole
/// check-and-apply section, no read can ever observe an order without its
/// lineitem (a torn, mid-commit state).
#[test]
fn readers_never_observe_torn_commits() {
    let server = orders_server();
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let mut s = server.connect();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let key = w * 1000 + i;
                    let out = s
                        .execute(&format!(
                            "BEGIN;
                             INSERT INTO orders VALUES ({key}, 1.0);
                             INSERT INTO lineitem VALUES ({key}, 1);
                             COMMIT;"
                        ))
                        .unwrap();
                    assert!(out.last().unwrap().is_committed());
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let s = server.connect();
            std::thread::spawn(move || {
                let mut observed = 0usize;
                loop {
                    let orders = count(&s, "SELECT * FROM orders");
                    let orphans = count(
                        &s,
                        "SELECT * FROM orders o WHERE NOT EXISTS (
                             SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)",
                    );
                    assert_eq!(orphans, 0, "torn commit observed at {orders} orders");
                    observed = observed.max(orders);
                    if orders == 100 {
                        return observed;
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        assert_eq!(r.join().unwrap(), 100);
    }
}

/// Write-write conflict on the same primary key with different payloads:
/// exactly one commit applies; the loser fails at apply time and its
/// transaction is discarded without corrupting the shared state.
#[test]
fn conflicting_commits_exactly_one_wins() {
    let server = Server::new();
    server
        .connect()
        .execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|v| {
            let mut s = server.connect();
            let b = barrier.clone();
            std::thread::spawn(move || {
                s.execute("BEGIN").unwrap();
                s.execute(&format!("INSERT INTO t VALUES (1, {v})"))
                    .unwrap();
                b.wait();
                s.execute("COMMIT").map(|mut o| o.pop().unwrap())
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let committed = results
        .iter()
        .filter(|r| matches!(r, Ok(o) if o.is_committed()))
        .count();
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert_eq!((committed, failed), (1, 1), "got {results:?}");

    let check = server.connect();
    assert_eq!(count(&check, "SELECT * FROM t"), 1);
    assert_eq!(
        server
            .database()
            .read()
            .pending_counts(tintin_engine::TS_LATEST),
        (0, 0)
    );
}

/// Two transactions update the same row; the first commit wins and the
/// second surfaces as a **distinct serialization-conflict error** — not as
/// an assertion violation, and not as a silent "lost update" where both
/// versions of the row end up coexisting. The loser is fully rolled back,
/// and an immediate retry on a fresh snapshot succeeds.
#[test]
fn stale_delete_surfaces_as_conflict_not_lost_update() {
    use tintin_engine::Value;
    use tintin_session::SessionError;

    let server = Server::new();
    server
        .connect()
        .execute("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 10);")
        .unwrap();
    let mut first = server.connect();
    let mut second = server.connect();
    first
        .execute("BEGIN; UPDATE t SET b = 11 WHERE a = 1;")
        .unwrap();
    second
        .execute("BEGIN; UPDATE t SET b = 12 WHERE a = 1;")
        .unwrap();
    assert!(first.execute("COMMIT").unwrap()[0].is_committed());
    // Second's planned deletion of (1, 10) is stale now: first-committer
    // wins, and the loser gets the dedicated conflict error — not an
    // assertion Rejected outcome and not a generic engine error.
    let err = second.execute("COMMIT").unwrap_err();
    assert!(
        matches!(err.error, SessionError::SerializationConflict { ref table, .. } if table == "t"),
        "got {err:?}"
    );
    // The failing statement is identified, and the outcomes before it are
    // preserved (the BEGIN back when the transaction opened ran in an
    // earlier script, so this one has none).
    assert_eq!(err.statement_index, 0);
    assert_eq!(err.statement, "COMMIT");
    // The losing transaction is fully rolled back: session usable, no
    // pending work, no stray events.
    assert!(!second.in_transaction());
    assert_eq!(second.pending_counts(), (0, 0));

    let check = server.connect();
    let rs = check.query_rows("SELECT b FROM t").unwrap();
    assert_eq!(rs.len(), 1, "lost update: both versions survived");
    assert_eq!(rs.rows[0][0], Value::Int(11));
    assert_eq!(
        server
            .database()
            .read()
            .pending_counts(tintin_engine::TS_LATEST),
        (0, 0)
    );

    // An immediate retry on a fresh snapshot observes the winner's row and
    // succeeds.
    let out = second
        .execute("BEGIN; UPDATE t SET b = 12 WHERE a = 1; COMMIT;")
        .unwrap();
    assert!(out.last().unwrap().is_committed(), "retry failed: {out:?}");
    let rs = check.query_rows("SELECT b FROM t").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(12));
}

/// The MVCC guarantee, demonstrated directly: a `SELECT` in an
/// open transaction completes — returning its `BEGIN`-time snapshot —
/// while another session's checked `COMMIT` is *in flight* (its check
/// phase entered, its decision not yet published). Under the old
/// database-wide lock this read would block until the commit finished.
#[test]
fn select_completes_while_checked_commit_is_in_flight() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let server = orders_server();
    server
        .connect()
        .execute(
            "BEGIN; INSERT INTO orders VALUES (1, 1.0);
             INSERT INTO lineitem VALUES (1, 1); COMMIT;",
        )
        .unwrap();

    let mut reader = server.connect();
    reader.execute("BEGIN").unwrap();
    let before = reader.query_rows("SELECT * FROM orders").unwrap();

    // A writer thread spins many checked commits; the reader keeps
    // querying the whole time. With the phased commit the reader's reads
    // interleave with in-flight check phases (the 1ms sleep below keeps
    // the writer's window open long enough that overlap is certain in
    // aggregate), and every single read returns the BEGIN-time snapshot.
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let mut s = server.connect();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut k = 100;
            while !done.load(Ordering::Relaxed) {
                let out = s
                    .execute(&format!(
                        "BEGIN; INSERT INTO orders VALUES ({k}, 1.0);
                         INSERT INTO lineitem VALUES ({k}, 1); COMMIT;"
                    ))
                    .unwrap();
                assert!(out.last().unwrap().is_committed());
                k += 1;
            }
            k - 100
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_millis(200);
    let mut reads = 0usize;
    while std::time::Instant::now() < deadline {
        let rs = reader.query_rows("SELECT * FROM orders").unwrap();
        assert_eq!(rs.rows, before.rows, "snapshot read changed mid-commit");
        reads += 1;
    }
    done.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    assert!(reads > 0 && commits > 0, "no overlap exercised");
    reader.execute("ROLLBACK").unwrap();
    // The reader was simply behind, not wrong: the latest state has them.
    assert_eq!(count(&reader, "SELECT * FROM orders"), 1 + commits);
}

/// Regression: a reader polling the `ins_T` / `del_T` event tables — or a
/// vio view, which joins them — during another session's checked commit
/// must never observe the committer's staged events. Staged rows are
/// stamped with the committer's *unpublished* timestamp, so neither an
/// autocommit read (pinned to the published clock) nor a registered
/// `BEGIN`-time snapshot can see them; before the fix they were staged
/// visible-to-everyone (`begin = 0`) and leaked to both kinds of reader
/// throughout the check phase, which runs under the shared read lock.
///
/// The checked workload includes an aggregate assertion whose fallback
/// re-runs a `GROUP BY … HAVING` query over the whole (preloaded) table, so
/// each commit's check phase is wide enough that continuous polling is
/// guaranteed to land inside it many times over the run.
#[test]
fn staged_events_invisible_to_readers_mid_commit() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use tintin_engine::Value;

    let server = Server::new();
    let mut s = server.connect();
    s.execute("CREATE TABLE item (ik INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    {
        let mut db = server.database().write();
        let rows: Vec<Vec<Value>> = (0..4_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 64), Value::Int(1)])
            .collect();
        db.insert_direct("item", rows).unwrap();
    }
    let inst = s
        .install(&[
            "CREATE ASSERTION nonneg CHECK (NOT EXISTS (
                 SELECT * FROM item WHERE val < 0))",
            "CREATE ASSERTION group_total_nonneg CHECK (NOT EXISTS (
                 SELECT grp FROM item GROUP BY grp HAVING SUM(val) < 0))",
        ])
        .unwrap();
    // One incremental vio view of the simple assertion: were staged events
    // visible, a violating in-flight commit would surface its tuples here.
    let vio_view = inst.assertions[0].view_names[0].clone();

    // Writer: alternately a valid committed batch and a violating rejected
    // one, so both accepted and rejected commits hold staged events during
    // their check phases.
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let mut s = server.connect();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut k = 1_000_000i64;
            let mut commits = 0usize;
            while !done.load(Ordering::Relaxed) {
                let values: Vec<String> = (0..32).map(|i| format!("({}, 0, 1)", k + i)).collect();
                let out = s
                    .execute(&format!(
                        "BEGIN; INSERT INTO item VALUES {}; COMMIT;",
                        values.join(", ")
                    ))
                    .unwrap();
                assert!(out.last().unwrap().is_committed());
                k += 32;
                let out = s
                    .execute(&format!(
                        "BEGIN; INSERT INTO item VALUES ({k}, 0, -1); COMMIT;"
                    ))
                    .unwrap();
                assert!(out.last().unwrap().is_rejected());
                k += 1;
                commits += 2;
            }
            commits
        })
    };

    // Two readers: one in autocommit (published-clock reads), one holding a
    // registered BEGIN-time snapshot. Neither may ever see a staged event.
    let autocommit = server.connect();
    let mut snapshot = server.connect();
    snapshot.execute("BEGIN").unwrap();
    let deadline = Instant::now() + Duration::from_millis(300);
    let mut reads = 0usize;
    while Instant::now() < deadline {
        for reader in [&autocommit, &snapshot] {
            for probe in ["SELECT * FROM ins_item", "SELECT * FROM del_item"] {
                let rs = reader.query_rows(probe).unwrap();
                assert!(
                    rs.rows.is_empty(),
                    "{probe} leaked {} staged event row(s) mid-commit",
                    rs.len()
                );
            }
            let rs = reader
                .query_rows(&format!("SELECT * FROM {vio_view}"))
                .unwrap();
            assert!(
                rs.rows.is_empty(),
                "vio view {vio_view} leaked staged violations mid-commit"
            );
        }
        reads += 1;
    }
    done.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();
    assert!(reads > 0 && commits > 0, "no overlap exercised");
    snapshot.execute("ROLLBACK").unwrap();
}

/// Stress battery (release-mode; `cargo test --release -- --ignored`):
/// N reader threads holding open transactions scan continuously while M
/// writer threads commit assertion-checked batches for ~1 second. Every
/// reader must observe exactly the state that was committed at its
/// snapshot — byte-identical across all its reads — and never a torn or
/// unchecked state.
#[test]
#[ignore = "stress battery: run in release via `cargo test --release -- --ignored`"]
fn stress_snapshot_readers_under_checked_commit_storm() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const READERS: usize = 4;
    const WRITERS: usize = 3;

    let server = orders_server();
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mut s = server.connect();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut committed = 0usize;
                let mut k = (w as i64 + 1) * 1_000_000;
                while !done.load(Ordering::Relaxed) {
                    // A checked batch: two orders with their lineitems.
                    let out = s
                        .execute(&format!(
                            "BEGIN;
                             INSERT INTO orders VALUES ({k}, 1.0);
                             INSERT INTO lineitem VALUES ({k}, 1);
                             INSERT INTO orders VALUES ({}, 2.0);
                             INSERT INTO lineitem VALUES ({}, 1);
                             COMMIT;",
                            k + 1,
                            k + 1
                        ))
                        .unwrap();
                    assert!(out.last().unwrap().is_committed());
                    committed += 2;
                    k += 2;
                }
                committed
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = server.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut snapshots_held = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let mut s = server.connect();
                    s.execute("BEGIN").unwrap();
                    let orders = s.query_rows("SELECT * FROM orders").unwrap();
                    // Consistency: only fully checked states are visible —
                    // an order implies its lineitem, always.
                    let orphans = s
                        .query_rows(
                            "SELECT * FROM orders o WHERE NOT EXISTS (
                                 SELECT * FROM lineitem l
                                 WHERE l.l_orderkey = o.o_orderkey)",
                        )
                        .unwrap();
                    assert_eq!(orphans.len(), 0, "unchecked state observed");
                    // Stability: re-reads inside the transaction are
                    // byte-identical no matter what commits meanwhile.
                    for _ in 0..8 {
                        let again = s.query_rows("SELECT * FROM orders").unwrap();
                        assert_eq!(
                            again.rows, orders.rows,
                            "snapshot read shifted under concurrent commits"
                        );
                    }
                    s.execute("ROLLBACK").unwrap();
                    snapshots_held += 1;
                }
                snapshots_held
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(1));
    done.store(true, Ordering::Relaxed);
    let total_committed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let total_snapshots: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_committed > 0, "writers starved");
    assert!(total_snapshots > 0, "readers starved");

    // Row-version accounting balances: the latest state is exactly the
    // committed orders, live version counts equal visible row counts, and
    // a final GC (no snapshots remain) drains every dead version without
    // touching the live ones.
    let check = server.connect();
    assert_eq!(count(&check, "SELECT * FROM orders"), total_committed);
    let (live_before, _dead_before) = {
        let db = server.database().read();
        let stats = db.mvcc_stats();
        let visible: usize = ["orders", "lineitem"]
            .iter()
            .map(|t| db.table(t).unwrap().len())
            .sum();
        assert_eq!(
            stats.live_versions, visible,
            "live version count diverged from visible rows"
        );
        (stats.live_versions, stats.dead_versions)
    };
    let horizon = {
        let db = server.database().read();
        db.current_ts()
    };
    assert_eq!(server.database().oldest_snapshot(), None);
    server.database().write().gc_versions(horizon);
    let stats = server.database().read().mvcc_stats();
    assert_eq!(stats.dead_versions, 0, "GC left dead versions behind");
    assert_eq!(stats.live_versions, live_before, "GC pruned live versions");
    assert_eq!(count(&check, "SELECT * FROM orders"), total_committed);

    // Deadline guard: the whole storm must not have wedged anything.
    let t0 = Instant::now();
    assert!(check.query_rows("SELECT * FROM orders").is_ok());
    assert!(t0.elapsed() < Duration::from_secs(1));
}

/// The deterministic-scheduler variant of the reader storm above, in the
/// default suite: instead of racing OS threads for a second, the commit
/// hook polls pinned reader snapshots at the `Staged` and `Checked` phase
/// boundaries of every commit — the exact interleavings the stress
/// battery can only hope to hit. Readers must observe byte-identical
/// snapshots and never a torn (orphaned-order) state; version accounting
/// and a final GC must balance just like the long version.
#[test]
fn snapshot_readers_under_checked_commit_storm_deterministic() {
    use std::sync::Mutex;
    use tintin_session::{CommitPhase, HookAction};

    const ROUNDS: usize = 12;
    const READERS: usize = 3;

    type Rows = Vec<Box<[tintin_engine::Value]>>;

    let server = orders_server();
    let orphans_sql = "SELECT * FROM orders o WHERE NOT EXISTS (
         SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)";

    // Pinned readers with open snapshots; the hook re-reads them
    // mid-commit, so they live behind mutexes it can lock.
    let readers: Vec<Arc<Mutex<Session>>> = (0..READERS)
        .map(|_| Arc::new(Mutex::new(server.connect())))
        .collect();
    let baselines: Arc<Mutex<Vec<Rows>>> = Arc::new(Mutex::new(Vec::new()));
    let pin = |r: &Arc<Mutex<Session>>| {
        let mut s = r.lock().unwrap();
        s.execute("BEGIN").unwrap();
        s.query_rows("SELECT * FROM orders ORDER BY o_orderkey")
            .unwrap()
            .rows
    };
    {
        let mut b = baselines.lock().unwrap();
        for r in &readers {
            b.push(pin(r));
        }
    }

    // Mid-commit probes: any divergence is recorded, not panicked, so the
    // commit machinery unwinds normally and the test reports it after.
    let issues: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let probes = Arc::new(Mutex::new(0usize));
    {
        let readers = readers.clone();
        let baselines = baselines.clone();
        let issues = issues.clone();
        let probes = probes.clone();
        server.set_commit_hook(Arc::new(move |_ts, phase| {
            if matches!(phase, CommitPhase::Staged | CommitPhase::Checked) {
                *probes.lock().unwrap() += 1;
                let b = baselines.lock().unwrap();
                for (i, r) in readers.iter().enumerate() {
                    let s = r.lock().unwrap();
                    let rows = s
                        .query_rows("SELECT * FROM orders ORDER BY o_orderkey")
                        .unwrap()
                        .rows;
                    if rows != b[i] {
                        issues
                            .lock()
                            .unwrap()
                            .push(format!("reader {i} shifted at {phase:?}"));
                    }
                    if !s.query_rows(orphans_sql).unwrap().rows.is_empty() {
                        issues
                            .lock()
                            .unwrap()
                            .push(format!("reader {i} saw a torn state at {phase:?}"));
                    }
                }
            }
            HookAction::Continue
        }));
    }

    let mut writer = server.connect();
    for round in 0..ROUNDS {
        let k = 1_000_000 + 2 * round as i64;
        let out = writer
            .execute(&format!(
                "BEGIN;
                 INSERT INTO orders VALUES ({k}, 1.0);
                 INSERT INTO lineitem VALUES ({k}, 1);
                 INSERT INTO orders VALUES ({}, 2.0);
                 INSERT INTO lineitem VALUES ({}, 1);
                 COMMIT;",
                k + 1,
                k + 1
            ))
            .unwrap();
        assert!(out.last().unwrap().is_committed());
        // Deterministic rotation: after each commit one reader re-pins at
        // the newly published state, so snapshots of every age coexist.
        let rotate = round % READERS;
        readers[rotate].lock().unwrap().execute("ROLLBACK").unwrap();
        baselines.lock().unwrap()[rotate] = pin(&readers[rotate]);
    }
    server.clear_commit_hook();
    assert!(
        issues.lock().unwrap().is_empty(),
        "mid-commit snapshot violations: {:?}",
        issues.lock().unwrap()
    );
    assert_eq!(*probes.lock().unwrap(), 2 * ROUNDS, "hook probes missing");
    for r in &readers {
        r.lock().unwrap().execute("ROLLBACK").unwrap();
    }

    // Version accounting and a final GC balance exactly as in the
    // release-mode battery.
    let check = server.connect();
    assert_eq!(count(&check, "SELECT * FROM orders"), 2 * ROUNDS);
    let live_before = {
        let db = server.database().read();
        let stats = db.mvcc_stats();
        let visible: usize = ["orders", "lineitem"]
            .iter()
            .map(|t| db.table(t).unwrap().len())
            .sum();
        assert_eq!(stats.live_versions, visible);
        stats.live_versions
    };
    assert_eq!(server.database().oldest_snapshot(), None);
    let horizon = server.database().read().current_ts();
    server.database().write().gc_versions(horizon);
    let stats = server.database().read().mvcc_stats();
    assert_eq!(stats.dead_versions, 0, "GC left dead versions behind");
    assert_eq!(stats.live_versions, live_before, "GC pruned live versions");
}

/// Stress battery (release-mode): garbage collection racing live
/// snapshots. Writers churn versions (update-heavy, so dead versions
/// accumulate) while readers pin snapshots and GC runs aggressively at the
/// honest horizon — no reader may ever lose a version its snapshot can
/// still see.
#[test]
#[ignore = "stress battery: run in release via `cargo test --release -- --ignored`"]
fn stress_gc_never_reclaims_versions_a_live_snapshot_sees() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let server = Server::new();
    server
        .connect()
        .execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let mut seed = server.connect();
    seed.execute("BEGIN").unwrap();
    for k in 0..50 {
        seed.execute(&format!("INSERT INTO t VALUES ({k}, 0)"))
            .unwrap();
    }
    assert!(seed.execute("COMMIT").unwrap()[0].is_committed());

    let done = Arc::new(AtomicBool::new(false));
    // Update-heavy writers: `v = v + 1` always changes every row, so every
    // committed round kills 50 versions and creates 50 fresh ones.
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let mut s = server.connect();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut rounds = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let r = s.execute("BEGIN; UPDATE t SET v = v + 1; COMMIT;");
                    // Losing a first-committer-wins race is expected noise.
                    match r {
                        Ok(out) => {
                            assert!(out.last().unwrap().is_committed());
                            rounds += 1;
                        }
                        Err(e)
                            if matches!(
                                e.error,
                                tintin_session::SessionError::SerializationConflict { .. }
                            ) => {}
                        Err(e) => panic!("unexpected commit failure: {e}"),
                    }
                }
                rounds
            })
        })
        .collect();
    // An aggressive collector at the honest horizon.
    let collector = {
        let server = server.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut pruned = 0usize;
            while !done.load(Ordering::Relaxed) {
                let current = server.database().read().current_ts();
                let horizon = server.database().gc_horizon(current);
                pruned += server.database().write().gc_versions(horizon);
            }
            pruned
        })
    };
    // Readers pin snapshots and verify them repeatedly against GC.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let server = server.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let mut s = server.connect();
                    s.execute("BEGIN").unwrap();
                    let rows = s.query_rows("SELECT k, v FROM t ORDER BY k").unwrap();
                    assert_eq!(rows.len(), 50, "rows vanished from a snapshot");
                    for _ in 0..4 {
                        let again = s.query_rows("SELECT k, v FROM t ORDER BY k").unwrap();
                        assert_eq!(
                            again.rows, rows.rows,
                            "GC reclaimed a version a live snapshot could see"
                        );
                    }
                    s.execute("ROLLBACK").unwrap();
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(1));
    done.store(true, Ordering::Relaxed);
    let rounds: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
    for r in readers {
        r.join().unwrap();
    }
    let pruned = collector.join().unwrap();
    assert!(rounds > 0, "writers starved");
    assert!(pruned > 0, "collector never pruned anything");

    // Final accounting: 50 live rows; with no snapshots left a last GC
    // drains the remaining history completely, and the cumulative pruned
    // counter balances the versions the update rounds killed exactly.
    let current = server.database().read().current_ts();
    server.database().write().gc_versions(current);
    let stats = server.database().read().mvcc_stats();
    assert_eq!(stats.live_versions, 50);
    assert_eq!(stats.dead_versions, 0);
    assert_eq!(
        stats.gc_pruned,
        (rounds * 50) as u64,
        "version accounting out of balance: {rounds} committed update rounds"
    );
}

/// The deterministic-scheduler variant of the GC race above, in the
/// default suite: the commit hook runs the collector at the honest horizon
/// at every phase boundary of every update round — GC interleaved exactly
/// between staging, checking, and publication — while a pinned snapshot is
/// re-verified each time. No reader may lose a version its snapshot can
/// still see, and the cumulative pruned counter must balance the versions
/// the update rounds killed.
#[test]
fn gc_never_reclaims_versions_a_live_snapshot_sees_deterministic() {
    use std::sync::Mutex;
    use tintin_session::HookAction;

    const ROWS: usize = 20;
    const ROUNDS: usize = 9;

    let server = Server::new();
    server
        .connect()
        .execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let mut seed = server.connect();
    seed.execute("BEGIN").unwrap();
    for k in 0..ROWS {
        seed.execute(&format!("INSERT INTO t VALUES ({k}, 0)"))
            .unwrap();
    }
    assert!(seed.execute("COMMIT").unwrap()[0].is_committed());

    let reader = Arc::new(Mutex::new(server.connect()));
    let pin = |r: &Arc<Mutex<Session>>| {
        let mut s = r.lock().unwrap();
        s.execute("BEGIN").unwrap();
        s.query_rows("SELECT k, v FROM t ORDER BY k").unwrap().rows
    };
    let baseline = Arc::new(Mutex::new(pin(&reader)));

    let issues: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let pruned_total = Arc::new(Mutex::new(0usize));
    {
        let server = server.clone();
        let reader = reader.clone();
        let baseline = baseline.clone();
        let issues = issues.clone();
        let pruned_total = pruned_total.clone();
        server.clone().set_commit_hook(Arc::new(move |_ts, phase| {
            // The collector runs at every boundary — including `Staged`
            // and `Checked`, where the commit's own update is not yet
            // published and must not be disturbed.
            let current = server.database().read().current_ts();
            let horizon = server.database().gc_horizon(current);
            *pruned_total.lock().unwrap() += server.database().write().gc_versions(horizon);
            let s = reader.lock().unwrap();
            let rows = s.query_rows("SELECT k, v FROM t ORDER BY k").unwrap().rows;
            if rows != *baseline.lock().unwrap() {
                issues
                    .lock()
                    .unwrap()
                    .push(format!("GC reclaimed a pinned version at {phase:?}"));
            }
            HookAction::Continue
        }));
    }

    let mut writer = server.connect();
    for round in 0..ROUNDS {
        let out = writer.execute("BEGIN; UPDATE t SET v = v + 1; COMMIT;");
        assert!(out.unwrap().last().unwrap().is_committed());
        // Re-pin every third round so the horizon advances and the
        // in-hook collector gets something to prune mid-commit.
        if round % 3 == 2 {
            reader.lock().unwrap().execute("ROLLBACK").unwrap();
            *baseline.lock().unwrap() = pin(&reader);
        }
    }
    server.clear_commit_hook();
    assert!(
        issues.lock().unwrap().is_empty(),
        "GC violated snapshot isolation: {:?}",
        issues.lock().unwrap()
    );
    assert!(
        *pruned_total.lock().unwrap() > 0,
        "the in-hook collector never pruned anything"
    );
    reader.lock().unwrap().execute("ROLLBACK").unwrap();

    // Final accounting: ROWS live rows, a last GC drains all history, and
    // the cumulative pruned counter balances the killed versions exactly.
    let current = server.database().read().current_ts();
    server.database().write().gc_versions(current);
    let stats = server.database().read().mvcc_stats();
    assert_eq!(stats.live_versions, ROWS);
    assert_eq!(stats.dead_versions, 0);
    assert_eq!(
        stats.gc_pruned,
        (ROUNDS * ROWS) as u64,
        "version accounting out of balance after {ROUNDS} update rounds"
    );
}

/// Sessions are plain `Send` values: a session created on one thread can be
/// moved to another, and the server handle can be shared freely.
#[test]
fn sessions_and_server_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Server>();
    assert_send::<Session>();

    let server = orders_server();
    let mut moved = server.connect();
    std::thread::spawn(move || {
        moved
            .execute("BEGIN; INSERT INTO orders VALUES (7, 1.0); INSERT INTO lineitem VALUES (7, 1); COMMIT;")
            .unwrap();
    })
    .join()
    .unwrap();
    assert_eq!(count(&server.connect(), "SELECT * FROM orders"), 1);
}
