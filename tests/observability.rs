//! End-to-end acceptance tests for the observability surface: the metrics
//! registry under a concurrent commit storm, and the `STATS` wire command
//! against a live server.
//!
//! The contract under test (see `docs/ARCHITECTURE.md`, "Observability"):
//!
//! * commit-outcome counters are *conserved* — every commit attempt lands
//!   in exactly one of committed / rejected / conflicted / errored, no
//!   matter how many sessions race (`attempts == commits + rejects +
//!   conflicts + errors`);
//! * the per-phase latency histograms agree with the counters: the
//!   commit histogram counts exactly the successful checked commits, the
//!   stage/check histograms also count rejections (which run phases 1–2),
//!   and quantiles are monotone (`p50 <= p99.9`);
//! * gauges return to rest: `tintin_sessions_open` and
//!   `tintin_connections_live` drain to zero once every session and
//!   connection is gone;
//! * a live `tintin-server` answers `STATS` with non-zero commit-phase
//!   histograms and MVCC state after a checked-commit workload, and the
//!   same snapshot renders as parseable Prometheus text exposition.

use std::sync::{Arc, Barrier};
use tintin_client::Client;
use tintin_obs::Snapshot;
use tintin_server::{ServerConfig, WireServer};
use tintin_session::{Server, SessionError, StatementOutcome};

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name)
        .unwrap_or_else(|| panic!("counter '{name}' missing from snapshot"))
}

fn counter_delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    counter(after, name) - before.counter(name).unwrap_or(0)
}

fn hist_count_delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    let a = after
        .histogram(name)
        .unwrap_or_else(|| panic!("histogram '{name}' missing from snapshot"))
        .count;
    let b = before.histogram(name).map_or(0, |h| h.count);
    a - b
}

/// A commit storm over one in-process [`Server`]: racing committers,
/// guaranteed rejections and guaranteed successes, all counted locally by
/// the threads that experienced them — then reconciled exactly against the
/// registry. The conservation equation must balance to the last commit.
#[test]
fn commit_storm_conserves_outcome_counters() {
    const THREADS: usize = 4;
    const ROUNDS: i64 = 6;

    let server = Server::new();
    {
        let mut setup = server.connect();
        setup
            .execute(
                "CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL);
                 CREATE ASSERTION nonneg CHECK (NOT EXISTS (
                     SELECT * FROM t WHERE b < 0));",
            )
            .unwrap();
    }
    let before = server.metrics_snapshot();

    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let server = server.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut session = server.connect();
                let (mut commits, mut rejects, mut conflicts) = (0u64, 0u64, 0u64);
                for k in 0..ROUNDS {
                    // Everyone snapshots and stages the same primary key
                    // before anyone commits: first-committer-wins gives one
                    // winner and THREADS-1 typed conflicts per round.
                    barrier.wait();
                    session
                        .execute(&format!("BEGIN; INSERT INTO t VALUES ({k}, {tid});"))
                        .unwrap();
                    barrier.wait();
                    match session.execute("COMMIT") {
                        Ok(out) => {
                            assert!(out.last().unwrap().is_committed());
                            commits += 1;
                        }
                        Err(e) => {
                            assert!(
                                matches!(e.error, SessionError::SerializationConflict { .. }),
                                "loser must get the typed conflict, got {:?}",
                                e.error
                            );
                            conflicts += 1;
                        }
                    }
                    // A violating batch on a thread-unique key: rejected by
                    // the assertion, never a PK race.
                    let out = session
                        .execute(&format!(
                            "BEGIN; INSERT INTO t VALUES ({}, -1); COMMIT;",
                            1_000 + k * 100 + tid as i64
                        ))
                        .unwrap();
                    assert!(out.last().unwrap().is_rejected());
                    rejects += 1;
                    // And a clean batch on a thread-unique key: commits.
                    let out = session
                        .execute(&format!(
                            "BEGIN; INSERT INTO t VALUES ({}, 1); COMMIT;",
                            10_000 + k * 100 + tid as i64
                        ))
                        .unwrap();
                    assert!(out.last().unwrap().is_committed());
                    commits += 1;
                }
                (commits, rejects, conflicts)
            })
        })
        .collect();

    let (mut commits, mut rejects, mut conflicts) = (0u64, 0u64, 0u64);
    for w in workers {
        let (c, r, x) = w.join().unwrap();
        commits += c;
        rejects += r;
        conflicts += x;
    }
    // The interleaving fixed the totals: one race winner per round plus one
    // guaranteed success per thread-round; everyone else conflicted.
    assert_eq!(commits, ROUNDS as u64 * (1 + THREADS as u64));
    assert_eq!(conflicts, ROUNDS as u64 * (THREADS as u64 - 1));
    assert_eq!(rejects, (THREADS as i64 * ROUNDS) as u64);

    let after = server.metrics_snapshot();

    // Conservation: the registry saw exactly what the threads experienced,
    // and every attempt is accounted for by exactly one outcome.
    assert_eq!(
        counter_delta(&after, &before, "tintin_commits_total"),
        commits
    );
    assert_eq!(
        counter_delta(&after, &before, "tintin_commit_rejects_total"),
        rejects
    );
    assert_eq!(
        counter_delta(&after, &before, "tintin_commit_conflicts_total"),
        conflicts
    );
    assert_eq!(
        counter_delta(&after, &before, "tintin_commit_errors_total"),
        0
    );
    assert_eq!(
        counter_delta(&after, &before, "tintin_commit_attempts_total"),
        commits + rejects + conflicts
    );
    // Each rejection carries exactly one violating row here.
    assert_eq!(
        counter_delta(&after, &before, "tintin_violations_total"),
        rejects
    );

    // Histogram/counter agreement: the commit histogram counts exactly the
    // successful checked commits; stage and check also ran for rejections
    // (phases 1–2 complete before the verdict); publish is success-only.
    // Conflicted attempts abort inside phase 1 and record no phase sample.
    assert_eq!(
        hist_count_delta(&after, &before, "tintin_commit_seconds"),
        commits
    );
    assert_eq!(
        hist_count_delta(&after, &before, "tintin_commit_stage_seconds"),
        commits + rejects
    );
    assert_eq!(
        hist_count_delta(&after, &before, "tintin_commit_check_seconds"),
        commits + rejects
    );
    assert_eq!(
        hist_count_delta(&after, &before, "tintin_commit_publish_seconds"),
        commits
    );
    // The transaction-size histogram covers the same population.
    assert_eq!(
        hist_count_delta(&after, &before, "tintin_commit_rows"),
        commits
    );

    let h = after.histogram("tintin_commit_seconds").unwrap();
    assert!(h.sum_nanos > 0, "commits took literally zero time?");
    assert!(
        h.quantile(0.50) <= h.quantile(0.999),
        "quantiles must be monotone: p50 {:?} > p99.9 {:?}",
        h.quantile(0.50),
        h.quantile(0.999)
    );
    assert!(
        h.quantile(0.999) >= h.mean() / 2,
        "p99.9 below half the mean"
    );

    // Every worker session is gone; the gauge drained to rest.
    assert_eq!(after.gauge("tintin_sessions_open"), Some(0));

    // The engine-state gauges were sampled into the snapshot.
    assert!(after.gauge("tintin_mvcc_commit_ts").unwrap() >= ROUNDS);
    assert!(after.gauge("tintin_mvcc_live_versions").unwrap() > 0);
}

/// Minimal structural validation of the Prometheus text exposition format:
/// comment lines announce types, sample lines are `name[{labels}] value`,
/// and each histogram's cumulative buckets are monotone with `+Inf` equal
/// to its `_count`.
fn assert_prometheus_parses(text: &str) {
    use std::collections::HashMap;
    let mut last_bucket: HashMap<String, f64> = HashMap::new();
    let mut inf_bucket: HashMap<String, f64> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line:?}"));
        samples += 1;
        let name = name_part.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in line {line:?}"
        );
        if let Some(base) = name.strip_suffix("_bucket") {
            let prev = last_bucket.entry(base.to_string()).or_insert(0.0);
            assert!(
                value >= *prev,
                "cumulative buckets went backwards in {line:?}"
            );
            *prev = value;
            if name_part.contains("le=\"+Inf\"") {
                inf_bucket.insert(base.to_string(), value);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            counts.insert(base.to_string(), value);
        }
    }
    assert!(samples > 0, "no samples in the exposition");
    for (base, count) in &counts {
        if let Some(inf) = inf_bucket.get(base) {
            assert_eq!(
                inf, count,
                "histogram '{base}': +Inf bucket disagrees with _count"
            );
        }
    }
}

/// The acceptance scenario from the issue: a live `tintin-server` answers
/// `STATS` with non-zero commit-phase histograms (and the MVCC state the
/// statement protocol does not carry) after a checked-commit workload —
/// and the snapshot renders as parseable Prometheus text.
#[test]
fn stats_command_reports_a_live_server() {
    let wire =
        WireServer::bind(Server::new(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = wire.local_addr().to_string();
    // Keep a handle on the session layer: it outlives the wire front-end,
    // so the gauges can be inspected after shutdown.
    let sessions = wire.sessions().clone();

    let mut c = Client::connect(&addr).unwrap();
    c.execute(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL);
         CREATE ASSERTION nonneg CHECK (NOT EXISTS (
             SELECT * FROM t WHERE b < 0));",
    )
    .unwrap();
    for k in 0..5 {
        let out = c
            .execute(&format!("BEGIN; INSERT INTO t VALUES ({k}, {k}); COMMIT;"))
            .unwrap();
        assert!(out.last().unwrap().is_committed());
        let out = c
            .execute(&format!(
                "BEGIN; INSERT INTO t VALUES ({}, -1); COMMIT;",
                100 + k
            ))
            .unwrap();
        assert!(matches!(
            out.last().unwrap(),
            StatementOutcome::Rejected { .. }
        ));
    }

    let stats = c.server_stats().unwrap();
    let m = &stats.metrics;

    // The commit path left non-zero phase histograms behind.
    for name in [
        "tintin_commit_seconds",
        "tintin_commit_stage_seconds",
        "tintin_commit_check_seconds",
        "tintin_commit_publish_seconds",
    ] {
        let h = m
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram '{name}' missing over the wire"));
        assert!(
            h.count > 0,
            "histogram '{name}' is empty after the workload"
        );
        assert!(h.sum_nanos > 0, "histogram '{name}' has zero total time");
    }
    // Transaction sizes cross the wire too, as counts (not durations).
    let rows = m
        .histogram("tintin_commit_rows")
        .expect("transaction-size histogram missing over the wire");
    assert_eq!(rows.count, 5, "one sample per successful commit");
    assert!(rows.sum_nanos >= 5, "every commit carried at least one row");
    assert_eq!(counter(m, "tintin_commits_total"), 5);
    assert_eq!(counter(m, "tintin_commit_rejects_total"), 5);
    assert_eq!(counter(m, "tintin_commit_attempts_total"), 10);

    // The wire front-end counted this very connection and its requests
    // (the STATS request itself is counted, though its latency sample is
    // recorded after the snapshot is taken).
    assert_eq!(m.gauge("tintin_connections_live"), Some(1));
    assert_eq!(counter(m, "tintin_connections_accepted_total"), 1);
    assert!(counter(m, "tintin_requests_total") >= 12);
    assert!(counter(m, "tintin_bytes_in_total") > 0);
    assert!(counter(m, "tintin_bytes_out_total") > 0);

    // The MVCC state crossed the wire alongside the registry snapshot.
    assert!(stats.mvcc.commit_ts >= 5);
    assert!(stats.mvcc.live_versions >= 5);

    // The terminal rendering carries the MVCC line; the same snapshot is
    // Prometheus-parseable.
    let text = tintin_client::render_server_stats(&stats);
    assert!(text.contains("tintin_commit_seconds"));
    assert!(text.contains("tintin_commit_rows"));
    assert!(text.contains("mvcc: commit_ts"));
    assert_prometheus_parses(&tintin_obs::render_prometheus(m));

    // Connections drain: after the client leaves, the live gauge returns
    // to zero (slot release is asynchronous — poll, don't race).
    c.close();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let snap = sessions.metrics_snapshot();
        if snap.gauge("tintin_connections_live") == Some(0)
            && snap.gauge("tintin_sessions_open") == Some(0)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "live-connection gauge never drained after close"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    wire.shutdown();

    // After shutdown everything is still at rest, and the lifetime
    // counters survived the front-end.
    let snap = sessions.metrics_snapshot();
    assert_eq!(snap.gauge("tintin_connections_live"), Some(0));
    assert_eq!(snap.gauge("tintin_sessions_open"), Some(0));
    assert_eq!(counter(&snap, "tintin_commits_total"), 5);
}

/// A no-op registry server records nothing — but the STATS command still
/// answers (with an empty metrics snapshot, though the MVCC state is
/// engine truth and stays live) rather than erroring, so probes work
/// against un-instrumented deployments too.
#[test]
fn noop_registry_server_still_answers_stats() {
    let server = Server::with_registry(tintin_obs::Registry::noop());
    let wire = WireServer::bind(server, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = wire.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    c.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
    let out = c
        .execute("BEGIN; INSERT INTO t VALUES (1); COMMIT;")
        .unwrap();
    assert!(out.last().unwrap().is_committed());

    let stats = c.server_stats().unwrap();
    // A disabled registry snapshots to nothing at all: no counters, no
    // histograms — and the renderers handle that shape.
    assert_eq!(stats.metrics.counter("tintin_commits_total"), None);
    assert!(stats.metrics.histogram("tintin_commit_seconds").is_none());
    assert!(tintin_obs::render_prometheus(&stats.metrics).is_empty());
    // The MVCC side-channel is engine state, not registry state: it is
    // live even when metrics are disabled.
    assert_eq!(stats.mvcc.commit_ts, 1);
    wire.shutdown();
}
