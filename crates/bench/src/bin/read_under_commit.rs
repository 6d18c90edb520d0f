//! `read_under_commit` — reader latency while checked commits are in
//! flight: the number the MVCC snapshot redesign is judged by.
//!
//! Before row-version MVCC, every reader shared one database-wide `RwLock`
//! with the commit path, and `COMMIT` held the exclusive write lock for the
//! *whole* stage → check → apply critical section — so assertion-checking
//! latency leaked into every concurrent session's read latency. With MVCC,
//! readers filter row versions by snapshot visibility and an in-flight
//! commit holds the write lock only for two update-sized bookkeeping
//! windows; the expensive check phase shares the read lock with readers.
//!
//! This runner measures the median (and p95) latency of a point `SELECT`
//! issued inside an open snapshot transaction, under three regimes:
//!
//! * `idle` — no concurrent work (the floor);
//! * `mvcc` — a writer thread drives continuous assertion-checked commits
//!   through the real phased commit path;
//! * `coarse_lock_baseline` — the same committed workload driven through a
//!   faithful reconstruction of the pre-MVCC commit (stage → normalize →
//!   check every installed assertion → apply → truncate, all inside one
//!   exclusive write-lock hold). This *is* the old-lock number, recorded in
//!   the JSON so the regression the redesign removed stays measurable.
//!
//! The checked workload deliberately includes an aggregate assertion, whose
//! fallback check re-runs the original `GROUP BY … HAVING` query over the
//! whole table — a realistically expensive commit-time check (O(database),
//! ~ms at the default preload) for readers to either stall behind (old
//! lock) or sail past (MVCC).
//!
//! ```text
//! cargo run -p tintin-bench --release --bin read_under_commit            # full
//! cargo run -p tintin-bench --release --bin read_under_commit -- --smoke # CI
//! cargo run -p tintin-bench --release --bin read_under_commit -- --out path.json
//! ```
//!
//! Results are written as JSON (default `BENCH_read_path.json`, checked in
//! at the repository root so the read-path perf trajectory is recorded).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tintin::TouchedEvents;
use tintin_engine::TxOverlay;
use tintin_session::Server;

/// Rows preloaded into the checked table (the aggregate fallback scans all
/// of them on every commit).
const PRELOAD: i64 = 20_000;
/// Rows per committed batch.
const BATCH: i64 = 20;

struct Config {
    preload: i64,
    measure: Duration,
    out_path: String,
}

/// Latency summary of one regime.
struct Regime {
    name: &'static str,
    samples: usize,
    mean: Duration,
    median: Duration,
    p95: Duration,
    p999: Duration,
    max: Duration,
    commits: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_read_path.json".to_string());
    let config = Config {
        preload: if smoke { 2_000 } else { PRELOAD },
        measure: if smoke {
            Duration::from_millis(150)
        } else {
            Duration::from_secs(1)
        },
        out_path,
    };

    let idle = run_regime("idle", &config, WriterMode::None);
    let mvcc = run_regime("mvcc", &config, WriterMode::Phased);
    let coarse = run_regime("coarse_lock_baseline", &config, WriterMode::CoarseLock);

    for r in [&idle, &mvcc, &coarse] {
        println!(
            "{:<22} reads {:>7}  median {:>10?}  p95 {:>10?}  p99.9 {:>10?}  max {:>10?}  commits {:>5}",
            r.name, r.samples, r.median, r.p95, r.p999, r.max, r.commits
        );
    }
    // The headline is tail latency: under the coarse lock, any read that
    // collides with a commit stalls for the *whole* check — the leak shows
    // up from ~p99.9 (one collision per commit against a µs-scale read
    // stream), reaching the full check duration at the max. MVCC removes
    // the stall; its tail stays within bookkeeping distance of idle.
    let improvement = coarse.p999.as_secs_f64() / mvcc.p999.as_secs_f64().max(1e-9);
    println!(
        "reader tail-latency (p99.9) improvement under commits (coarse → mvcc): {improvement:.1}x"
    );

    let json = render_json(&config, &[idle, mvcc, coarse], improvement);
    std::fs::write(&config.out_path, json).expect("write results file");
    println!("wrote {}", config.out_path);
}

/// How the concurrent committer drives its checked batches.
enum WriterMode {
    /// No concurrent commits at all.
    None,
    /// The real MVCC phased commit (`Session::execute` BEGIN…COMMIT).
    Phased,
    /// The pre-MVCC commit: one exclusive write-lock hold across
    /// stage → normalize → check → apply → truncate.
    CoarseLock,
}

/// A server with the checked schema: one incremental assertion (cheap) and
/// one aggregate assertion whose fallback re-scans the table per commit
/// (expensive — the check readers must not stall behind).
fn setup(preload: i64) -> Server {
    let server = Server::new();
    let mut s = server.connect();
    s.execute("CREATE TABLE item (ik INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)")
        .unwrap();
    {
        let mut db = server.database().write();
        let rows: Vec<Vec<tintin_engine::Value>> = (0..preload)
            .map(|i| {
                vec![
                    tintin_engine::Value::Int(i),
                    tintin_engine::Value::Int(i % 64),
                    tintin_engine::Value::Int(1),
                ]
            })
            .collect();
        db.insert_direct("item", rows).unwrap();
    }
    s.install(&[
        "CREATE ASSERTION nonneg CHECK (NOT EXISTS (
             SELECT * FROM item WHERE val < 0))",
        "CREATE ASSERTION group_total_nonneg CHECK (NOT EXISTS (
             SELECT grp FROM item GROUP BY grp HAVING SUM(val) < 0))",
    ])
    .unwrap();
    server
}

fn run_regime(name: &'static str, config: &Config, mode: WriterMode) -> Regime {
    let server = setup(config.preload);
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let server = server.clone();
        let stop = stop.clone();
        let preload = config.preload;
        std::thread::spawn(move || match mode {
            WriterMode::None => 0usize,
            WriterMode::Phased => {
                let mut s = server.connect();
                let mut commits = 0usize;
                let mut next = preload;
                while !stop.load(Ordering::Relaxed) {
                    let mut script = String::from("BEGIN;");
                    for _ in 0..BATCH {
                        script.push_str(&format!("INSERT INTO item VALUES ({next}, 0, 1);"));
                        next += 1;
                    }
                    script.push_str("COMMIT;");
                    let out = s.execute(&script).unwrap();
                    assert!(out.last().unwrap().is_committed());
                    commits += 1;
                }
                commits
            }
            WriterMode::CoarseLock => {
                let tintin = server.checker();
                let installations = server.installations();
                let shared = server.database().clone();
                let mut commits = 0usize;
                let mut next = preload;
                while !stop.load(Ordering::Relaxed) {
                    // The pre-MVCC commit path: everything under one
                    // exclusive hold, readers locked out for the duration.
                    let _guard = shared.commit_guard();
                    let mut db = shared.write();
                    let mut overlay = TxOverlay::new();
                    for _ in 0..BATCH {
                        let stmt = tintin_sql::parse_statement(&format!(
                            "INSERT INTO item VALUES ({next}, 0, 1)"
                        ))
                        .unwrap();
                        let delta = db.plan_dml(&stmt, &overlay).unwrap();
                        overlay.apply_delta(delta);
                        next += 1;
                    }
                    db.stage_overlay(overlay).unwrap();
                    let (_, touched_list) = db.normalize_events_touched().unwrap();
                    let touched = TouchedEvents::from_list(&touched_list);
                    let mut stats = tintin::CheckStats::default();
                    for inst in &installations {
                        let violations = tintin
                            .check_normalized(&db, inst, &touched, &mut stats)
                            .unwrap();
                        assert!(violations.is_empty(), "benchmark updates are valid");
                    }
                    db.apply_pending_for(&touched_list).unwrap();
                    db.truncate_events_for(&touched_list);
                    commits += 1;
                }
                commits
            }
        })
    };

    // The reader: an open snapshot transaction issuing point SELECTs; each
    // sample is one full query round-trip.
    let mut reader = server.connect();
    reader.execute("BEGIN").unwrap();
    let mut samples: Vec<Duration> = Vec::with_capacity(1 << 16);
    let deadline = Instant::now() + config.measure;
    let mut key = 0i64;
    while Instant::now() < deadline {
        let q = format!("SELECT * FROM item WHERE ik = {}", key % config.preload);
        key += 1;
        let t0 = Instant::now();
        let rs = reader.query_rows(&q).unwrap();
        samples.push(t0.elapsed());
        assert_eq!(
            rs.len(),
            1,
            "snapshot must keep returning the BEGIN-time row"
        );
    }
    reader.execute("ROLLBACK").unwrap();

    stop.store(true, Ordering::Relaxed);
    let commits = writer.join().unwrap();

    samples.sort();
    let q = |frac: f64| samples[((samples.len() as f64 * frac) as usize).min(samples.len() - 1)];
    let total: Duration = samples.iter().sum();
    Regime {
        name,
        samples: samples.len(),
        mean: total / samples.len() as u32,
        median: samples[samples.len() / 2],
        p95: q(0.95),
        p999: q(0.999),
        max: *samples.last().unwrap(),
        commits,
    }
}

fn render_json(config: &Config, regimes: &[Regime], improvement: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"read_under_commit\",\n");
    out.push_str(&format!("  \"preload_rows\": {},\n", config.preload));
    out.push_str(&format!("  \"batch_rows_per_commit\": {BATCH},\n"));
    out.push_str(&format!(
        "  \"measure_seconds\": {:.3},\n",
        config.measure.as_secs_f64()
    ));
    out.push_str(
        "  \"note\": \"latency of a point SELECT inside an open snapshot \
         transaction; coarse_lock_baseline reconstructs the pre-MVCC commit \
         (stage+check+apply under one exclusive write-lock hold) so the \
         old-lock number stays recorded; the checked workload includes an \
         aggregate fallback assertion that re-scans the table every commit. \
         The leak lives in the tail: under the coarse lock a read colliding \
         with a commit stalls for the whole check (see p999/max), while MVCC \
         readers share the lock with the check phase and never stall\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, r) in regimes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"regime\": \"{}\", \"reads\": {}, \"mean_read_us\": {:.1}, \
             \"median_read_us\": {:.1}, \"p95_read_us\": {:.1}, \
             \"p999_read_us\": {:.1}, \"max_read_us\": {:.1}, \
             \"concurrent_commits\": {}}}{}\n",
            r.name,
            r.samples,
            r.mean.as_secs_f64() * 1e6,
            r.median.as_secs_f64() * 1e6,
            r.p95.as_secs_f64() * 1e6,
            r.p999.as_secs_f64() * 1e6,
            r.max.as_secs_f64() * 1e6,
            r.commits,
            if i + 1 == regimes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"reader_tail_latency_improvement_under_commits_p999\": {improvement:.2}\n"
    ));
    out.push_str("}\n");
    out
}
