//! Shared harness for the paper-reproduction experiments.
//!
//! Unit mapping (documented in EXPERIMENTS.md): the paper runs on 1–5 GB
//! TPC-H databases with 1–5 MB update files. This harness scales both axes
//! down by the same factor, preserving the DB-size : update-size ratios that
//! drive the paper's speedups: one "paper GB" is represented by scale factor
//! 0.01 (≈ 15 k orders), and one "paper MB" by 1/1000 of that database's
//! bytes.

use std::time::{Duration, Instant};
use tintin::{Installation, Tintin, TintinConfig};
use tintin_engine::{Database, ReadCtx};
use tintin_tpch::{database_bytes, Dbgen, TpchCounts, UpdateGen};

/// Scale factor representing one "paper gigabyte".
pub const SF_PER_PAPER_GB: f64 = 0.01;

/// Event bytes representing one "paper megabyte" (1/1000 of a paper-GB
/// database, matching the paper's 1 MB : 1 GB ratio).
pub fn bytes_per_paper_mb() -> usize {
    // Computed once from the generator's deterministic output.
    use std::sync::OnceLock;
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| database_bytes(&Dbgen::new(SF_PER_PAPER_GB).generate()) / 1000)
}

/// A prepared experiment scenario.
pub struct Scenario {
    pub db: Database,
    pub inst: Installation,
    pub counts: TpchCounts,
    pub db_bytes: usize,
    pub update_bytes: usize,
    pub tintin: Tintin,
}

/// Load TPC-H at `paper_gb` "paper gigabytes", install `assertions`, and
/// capture a violation-free update batch of `paper_mb` "paper megabytes".
pub fn prepare(paper_gb: f64, paper_mb: f64, assertions: &[&str], seed: u64) -> Scenario {
    prepare_with_config(
        paper_gb,
        paper_mb,
        assertions,
        seed,
        TintinConfig::default(),
    )
}

/// Like [`prepare`] with an explicit configuration (ablations).
pub fn prepare_with_config(
    paper_gb: f64,
    paper_mb: f64,
    assertions: &[&str],
    seed: u64,
    config: TintinConfig,
) -> Scenario {
    let gen = Dbgen::new(SF_PER_PAPER_GB * paper_gb).with_seed(seed);
    let mut db = gen.generate();
    let db_bytes = database_bytes(&db);
    let tintin = Tintin::with_config(TintinConfig {
        // Skip the full initial scan during setup; generated data is
        // consistent by construction (verified by the tpch test suite).
        check_initial_state: false,
        ..config
    });
    let inst = tintin.install(&mut db, assertions).expect("install");
    let update_bytes = (bytes_per_paper_mb() as f64 * paper_mb) as usize;
    let mut ug = UpdateGen::new(gen.counts(), seed.wrapping_add(1));
    ug.valid_batch(&mut db, update_bytes);
    Scenario {
        db,
        inst,
        counts: gen.counts(),
        db_bytes,
        update_bytes,
        tintin,
    }
}

/// Best-of-`iters` incremental check time (the `safeCommit` check phase) on
/// the pending events.
pub fn time_incremental(s: &mut Scenario, iters: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let (violations, stats) = s.tintin.check_pending(&mut s.db, &s.inst).unwrap();
        assert!(
            violations.is_empty(),
            "benchmark batches are violation-free"
        );
        best = best.min(stats.check_time);
    }
    best
}

/// Best-of-`iters` non-incremental check time: the original assertion
/// queries on the updated database (the paper's comparator).
pub fn time_full(s: &Scenario, iters: usize) -> Duration {
    // Apply the pending update to a copy once, then time the queries on the
    // live state (which sees the applied, unpublished versions).
    let mut db = s.db.clone();
    let (_, touched) = db.normalize_events().unwrap();
    let ts = db.next_commit_ts();
    db.apply_pending_versioned(&touched, ts).unwrap();
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        for a in &s.inst.assertions {
            for q in &a.original_queries {
                let rs = db.query(q, ReadCtx::LATEST).unwrap();
                assert!(rs.is_empty());
            }
        }
        best = best.min(t0.elapsed());
    }
    best
}

/// Format a duration in seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.0001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 0.1 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tintin_engine::TS_LATEST;
    use tintin_tpch::TPCH_ASSERTIONS;

    #[test]
    fn prepare_builds_consistent_scenario() {
        let mut s = prepare(0.1, 0.1, &[TPCH_ASSERTIONS[0].1], 3);
        let (ins, del) = s.db.pending_counts(TS_LATEST);
        assert!(ins + del > 0, "pending update captured");
        let inc = time_incremental(&mut s, 2);
        let full = time_full(&s, 2);
        assert!(inc > Duration::ZERO && full > Duration::ZERO);
    }

    #[test]
    fn paper_units_are_positive() {
        assert!(bytes_per_paper_mb() > 100);
    }
}
