//! Recovery edge cases for the durable server: empty/absent logs, torn
//! final records, checkpoint + tail replay, recovery idempotence, and the
//! no-rejected-residue guarantee. The crash/torn-write *matrix* lives in
//! `tintin-sim`; these tests pin the individual recovery behaviors.

use tintin_engine::{Row, Value};
use tintin_obs::Registry;
use tintin_session::{DurabilityFault, DurabilityOptions, Server, StatementOutcome};
use tintin_wal::{TableEffects, Wal, WalRecord};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tintin-session-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Canonical state dump: every non-event table's rows, sorted, rendered.
fn dump(server: &Server) -> Vec<(String, Vec<String>)> {
    let names: Vec<String> = {
        let db = server.database().read();
        let mut names: Vec<String> = db
            .table_names()
            .into_iter()
            .filter(|n| !db.is_event_table(n))
            .collect();
        names.sort();
        names
    };
    let sess = server.connect();
    names
        .into_iter()
        .map(|n| {
            let rs = sess.query_rows(&format!("SELECT * FROM {n}")).unwrap();
            let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            (n, rows)
        })
        .collect()
}

fn setup_schema(server: &Server) {
    let mut s = server.connect();
    s.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT);
         CREATE ASSERTION nonNegative CHECK (NOT EXISTS (SELECT * FROM t WHERE v < 0));",
    )
    .unwrap();
}

#[test]
fn fresh_directory_opens_empty_and_durable() {
    let dir = tmpdir("fresh");
    let server = Server::open(&dir).unwrap();
    assert!(server.is_durable());
    let summary = server.recovery_summary().unwrap();
    assert!(!summary.checkpoint_loaded);
    assert_eq!(summary.recovered_lsn, 0);
    assert_eq!(summary.commits_replayed, 0);
    assert_eq!(summary.tail_bytes_truncated, 0);
    // An in-memory server stays non-durable.
    assert!(!Server::new().is_durable());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commits_survive_restart() {
    let dir = tmpdir("restart");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute("INSERT INTO t VALUES (1, 10); INSERT INTO t VALUES (2, 20);")
            .unwrap();
        s.execute("BEGIN; INSERT INTO t VALUES (3, 30); DELETE FROM t WHERE k = 1; COMMIT;")
            .unwrap();
    }
    let server = Server::open(&dir).unwrap();
    let summary = server.recovery_summary().unwrap();
    assert_eq!(summary.commits_replayed, 3);
    assert_eq!(summary.catalog_replayed, 2); // CREATE TABLE + install
    assert_eq!(summary.tail_bytes_truncated, 0);
    assert_eq!(
        dump(&server),
        vec![(
            "t".to_string(),
            vec![
                "[Int(2), Int(20)]".to_string(),
                "[Int(3), Int(30)]".to_string()
            ]
        )]
    );
    // The recovered state is still checked: the assertion came back too.
    assert_eq!(server.assertion_names(), vec!["nonnegative".to_string()]);
    let mut s = server.connect();
    let out = s.execute("INSERT INTO t VALUES (4, -1)").unwrap();
    assert!(matches!(
        out.last(),
        Some(StatementOutcome::Rejected { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commit_clock_continues_after_recovery() {
    let dir = tmpdir("clock");
    let before = {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        let ts = server.database().read().current_ts();
        ts
    };
    let server = Server::open(&dir).unwrap();
    assert_eq!(server.database().read().current_ts(), before);
    // The next commit publishes a *fresh* timestamp (the engine asserts
    // monotonicity internally).
    let mut s = server.connect();
    s.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    assert!(server.database().read().current_ts() > before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_commits_leave_no_log_residue() {
    let dir = tmpdir("rejected");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        let logged = server.wal_status().unwrap().appended_lsn;
        let out = s
            .execute("BEGIN; INSERT INTO t VALUES (2, -5); COMMIT;")
            .unwrap();
        assert!(matches!(
            out.last(),
            Some(StatementOutcome::Rejected { .. })
        ));
        // The rejected commit appended nothing.
        assert_eq!(server.wal_status().unwrap().appended_lsn, logged);
    }
    let server = Server::open(&dir).unwrap();
    assert_eq!(server.recovery_summary().unwrap().commits_replayed, 1);
    assert_eq!(
        dump(&server),
        vec![("t".to_string(), vec!["[Int(1), Int(1)]".to_string()])]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_is_truncated_and_prefix_recovered() {
    let dir = tmpdir("torn");
    let (wal_path, full_dump) = {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        for k in 1..=4 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, {k})"))
                .unwrap();
        }
        (server.wal_status().unwrap().wal_path, dump(&server))
    };
    // Tear the final record: chop 3 bytes off the log mid-frame.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let torn_len = bytes.len() - 3;
    bytes.truncate(torn_len);
    std::fs::write(&wal_path, &bytes).unwrap();

    let server = Server::open(&dir).unwrap();
    let summary = server.recovery_summary().unwrap();
    assert_eq!(summary.commits_replayed, 3);
    assert!(summary.tail_bytes_truncated > 0);
    let mut expected = full_dump;
    expected[0].1.pop(); // k=4 was in the torn record
    assert_eq!(dump(&server), expected);
    // The truncated log is consistent again: appends go right back to work.
    let mut s = server.connect();
    s.execute("INSERT INTO t VALUES (9, 9)").unwrap();
    let reopened = Server::open(&dir).unwrap();
    assert!(dump(&reopened)[0]
        .1
        .contains(&"[Int(9), Int(9)]".to_string()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_plus_tail_replay() {
    let dir = tmpdir("checkpoint");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        for k in 1..=3 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, {k})"))
                .unwrap();
        }
        let stats = server.checkpoint().unwrap();
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.rows, 3);
        // The log was rotated; LSNs keep counting.
        let st = server.wal_status().unwrap();
        assert_eq!(st.appended_size, 0);
        assert_eq!(st.appended_lsn, stats.last_lsn);
        // Tail after the checkpoint.
        s.execute("INSERT INTO t VALUES (4, 4); DELETE FROM t WHERE k = 1;")
            .unwrap();
    }
    let server = Server::open(&dir).unwrap();
    let summary = server.recovery_summary().unwrap();
    assert!(summary.checkpoint_loaded);
    assert_eq!(summary.commits_replayed, 2); // only the tail
    assert_eq!(
        dump(&server),
        vec![(
            "t".to_string(),
            vec![
                "[Int(2), Int(2)]".to_string(),
                "[Int(3), Int(3)]".to_string(),
                "[Int(4), Int(4)]".to_string()
            ]
        )]
    );
    assert_eq!(server.assertion_names(), vec!["nonnegative".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmpdir("idempotent");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        for k in 1..=5 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, {k})"))
                .unwrap();
        }
        server.checkpoint().unwrap();
        s.execute("INSERT INTO t VALUES (6, 6)").unwrap();
    }
    // Recover twice without writing in between: identical state, clock and
    // watermarks both times — recovery itself must not mutate the log.
    let (first_dump, first_ts, first_lsn) = {
        let server = Server::open(&dir).unwrap();
        let ts = server.database().read().current_ts();
        let lsn = server.wal_status().unwrap().appended_lsn;
        (dump(&server), ts, lsn)
    };
    let server = Server::open(&dir).unwrap();
    assert_eq!(dump(&server), first_dump);
    assert_eq!(server.database().read().current_ts(), first_ts);
    assert_eq!(server.wal_status().unwrap().appended_lsn, first_lsn);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_assertions_stay_dropped_after_recovery() {
    let dir = tmpdir("drop");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute("DROP ASSERTION nonNegative").unwrap();
        s.execute("INSERT INTO t VALUES (1, -1)").unwrap(); // now legal
    }
    let server = Server::open(&dir).unwrap();
    assert!(server.assertion_names().is_empty());
    assert_eq!(
        dump(&server),
        vec![("t".to_string(), vec!["[Int(1), Int(-1)]".to_string()])]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skip_fsync_fault_leaves_durable_watermark_behind() {
    let dir = tmpdir("skipfsync");
    let server = Server::open(&dir).unwrap();
    setup_schema(&server);
    let mut s = server.connect();
    s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    let st = server.wal_status().unwrap();
    assert_eq!(st.durable_lsn, st.appended_lsn);
    server.set_durability_fault(DurabilityFault::SkipFsync);
    s.execute("INSERT INTO t VALUES (2, 2)").unwrap();
    let st = server.wal_status().unwrap();
    // Acked but never synced: exactly the window a crash exposes.
    assert!(st.durable_lsn < st.appended_lsn);
    assert!(st.durable_size < st.appended_size);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_fault_is_detected_at_reopen() {
    let dir = tmpdir("tornck");
    {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        server.set_durability_fault(DurabilityFault::TornCheckpoint);
        server.checkpoint().unwrap();
    }
    // The mutant rotated the log before making the checkpoint durable:
    // recovery must refuse the damaged checkpoint rather than silently
    // lose the acknowledged history it claimed to fold in.
    let err = Server::open(&dir).unwrap_err();
    assert!(err.to_string().contains("durability error"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn size_triggered_checkpoint_rotates_the_log() {
    let dir = tmpdir("sizetrigger");
    {
        let server = Server::open_with(
            &dir,
            &DurabilityOptions {
                checkpoint_bytes: Some(1), // every commit triggers rotation
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        for k in 1..=3 {
            s.execute(&format!("INSERT INTO t VALUES ({k}, {k})"))
                .unwrap();
        }
        let st = server.wal_status().unwrap();
        assert_eq!(st.appended_size, 0, "log should have been rotated");
        let snap = server.metrics_snapshot();
        assert!(snap.counter("tintin_checkpoints_total").unwrap_or(0) >= 3);
    }
    let server = Server::open(&dir).unwrap();
    let summary = server.recovery_summary().unwrap();
    assert!(summary.checkpoint_loaded);
    assert_eq!(summary.commits_replayed, 0); // everything folded in
    assert_eq!(dump(&server)[0].1.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_metrics_flow_into_the_server_registry() {
    let dir = tmpdir("metrics");
    let server = Server::open(&dir).unwrap();
    setup_schema(&server);
    let mut s = server.connect();
    s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    let snap = server.metrics_snapshot();
    assert!(snap.counter("tintin_wal_records").unwrap_or(0) >= 3);
    assert!(snap.counter("tintin_wal_bytes_appended").unwrap_or(0) > 0);
    assert!(snap.counter("tintin_wal_fsyncs").unwrap_or(0) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `TRUNCATE` is a checked `DELETE` of every row: one that would violate an
/// installed assertion is rejected, and one that commits is logged as a
/// commit, so the data directory always recovers to a consistent state.
#[test]
fn truncate_is_checked_and_recovers() {
    let dir = tmpdir("truncate");
    {
        let server = Server::open(&dir).unwrap();
        let mut s = server.connect();
        s.execute(
            "CREATE TABLE orders (o_orderkey INT PRIMARY KEY);
             CREATE TABLE lineitem (
                 l_orderkey INT NOT NULL REFERENCES orders,
                 l_linenumber INT NOT NULL,
                 PRIMARY KEY (l_orderkey, l_linenumber));
             CREATE TABLE notes (n INT);
             CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS (
                 SELECT * FROM orders o WHERE NOT EXISTS (
                     SELECT * FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)));",
        )
        .unwrap();
        s.execute(
            "BEGIN; INSERT INTO orders VALUES (1); INSERT INTO lineitem VALUES (1, 1);
             INSERT INTO notes VALUES (7), (8); COMMIT;",
        )
        .unwrap();
        let logged = server.wal_status().unwrap().appended_lsn;
        let out = s.execute("TRUNCATE TABLE lineitem").unwrap();
        assert!(out[0].is_rejected(), "{out:?}");
        assert_eq!(server.wal_status().unwrap().appended_lsn, logged);
        let out = s.execute("TRUNCATE TABLE notes").unwrap();
        assert!(
            matches!(out[0], StatementOutcome::Committed { deleted: 2, .. }),
            "{out:?}"
        );
    }
    let server = Server::open(&dir).unwrap();
    assert_eq!(server.recovery_summary().unwrap().commits_replayed, 2);
    assert_eq!(
        dump(&server),
        vec![
            ("lineitem".to_string(), vec!["[Int(1), Int(1)]".to_string()]),
            ("notes".to_string(), vec![]),
            ("orders".to_string(), vec!["[Int(1)]".to_string()]),
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Logs written before `TRUNCATE` became a checked commit hold it as a
/// catalog record. Recovery replays it with the meaning it had then: every
/// row gone, on a captured table too, and no timestamp of its own, so the
/// commits logged after it replay over the emptied tables at theirs.
#[test]
fn logged_truncate_records_replay_as_written() {
    let dir = tmpdir("logged-truncate");
    let ts = {
        let server = Server::open(&dir).unwrap();
        setup_schema(&server);
        let mut s = server.connect();
        s.execute(
            "CREATE TABLE notes (n INT);
             BEGIN; INSERT INTO t VALUES (1, 1), (2, 2); INSERT INTO notes VALUES (7), (8); COMMIT;",
        )
        .unwrap();
        let ts = server.database().read().current_ts();
        ts
    };
    let row = |vals: &[i64]| -> Row { vals.iter().map(|&v| Value::Int(v)).collect() };
    let (wal, _) = Wal::open(&dir.join("wal"), &Registry::new()).unwrap();
    for record in [
        WalRecord::Ddl {
            sql: "TRUNCATE TABLE t".into(),
        },
        WalRecord::Ddl {
            sql: "TRUNCATE TABLE notes".into(),
        },
        WalRecord::Commit {
            ts: ts + 1,
            effects: vec![
                TableEffects {
                    table: "notes".into(),
                    ins: vec![row(&[7])],
                    del: vec![],
                },
                TableEffects {
                    table: "t".into(),
                    ins: vec![row(&[1, 1])],
                    del: vec![],
                },
            ],
        },
    ] {
        let lsn = wal.append(&record).unwrap();
        wal.sync(lsn).unwrap();
    }
    drop(wal);
    let server = Server::open(&dir).unwrap();
    assert_eq!(server.recovery_summary().unwrap().commits_replayed, 2);
    assert_eq!(server.database().read().current_ts(), ts + 1);
    assert_eq!(
        dump(&server),
        vec![
            ("notes".to_string(), vec!["[Int(7)]".to_string()]),
            ("t".to_string(), vec!["[Int(1), Int(1)]".to_string()]),
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
