//! `exp_tables` — regenerates the paper's evaluation tables.
//!
//! ```text
//! cargo run -p tintin-bench --release --bin exp_tables            # all
//! cargo run -p tintin-bench --release --bin exp_tables -- e1     # one exp
//! cargo run -p tintin-bench --release --bin exp_tables -- --quick
//! ```
//!
//! * **E1** (paper §1): the running-example assertion on 1–5 paper-GB data
//!   with 1–5 paper-MB updates; TINTIN check time vs non-incremental query,
//!   with speedup factors (paper: 0.01–0.04 s, ×89–×2662).
//! * **E2** (paper §4): six assertions of different complexity on the same
//!   grid (paper: 0.01–1.29 s, always faster, up to ×2662).
//! * **E3** (DESIGN.md ablation): contribution of the semantic
//!   optimizations, the FK pruning and the emptiness shortcut.

use std::time::Duration;
use tintin::{EdcConfig, TintinConfig};
use tintin_bench::{prepare, prepare_with_config, secs, time_full, time_incremental, Scenario};
use tintin_tpch::human_bytes;
use tintin_tpch::TPCH_ASSERTIONS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let all = which.is_empty() || which.contains(&"all");

    // Grid scale: full grid {1,2,5} GB × {1,5} MB; quick mode shrinks it.
    let (gbs, mbs, iters): (Vec<f64>, Vec<f64>, usize) = if quick {
        (vec![0.5, 1.0], vec![1.0], 2)
    } else {
        (vec![1.0, 2.0, 5.0], vec![1.0, 5.0], 3)
    };

    if all || which.contains(&"e1") {
        e1(&gbs, &mbs, iters);
    }
    if all || which.contains(&"e2") {
        e2(
            if quick { 1.0 } else { 5.0 },
            if quick { 1.0 } else { 5.0 },
            iters,
        );
    }
    if all || which.contains(&"e3") {
        e3(if quick { 0.5 } else { 2.0 }, 1.0, iters);
    }
}

/// E1 — the paper's §1 headline numbers for atLeastOneLineItem.
fn e1(gbs: &[f64], mbs: &[f64], iters: usize) {
    println!("== E1: atLeastOneLineItem — incremental vs non-incremental ==");
    println!("   (paper: 0.01–0.04 s incremental; ×89–×2662 speedup)");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "DB", "update", "db bytes", "upd bytes", "TINTIN", "full query", "speedup"
    );
    for &gb in gbs {
        for &mb in mbs {
            let mut s = prepare(gb, mb, &[TPCH_ASSERTIONS[0].1], 42);
            let inc = time_incremental(&mut s, iters);
            let full = time_full(&s, iters);
            let speedup = full.as_secs_f64() / inc.as_secs_f64().max(1e-9);
            println!(
                "{:>7}G {:>7}M {:>12} {:>12} {:>12} {:>12} {:>8.0}x",
                gb,
                mb,
                human_bytes(s.db_bytes),
                human_bytes(s.update_bytes),
                secs(inc),
                secs(full),
                speedup
            );
        }
    }
    println!();
}

/// E2 — assertions of different complexity (paper §4).
fn e2(gb: f64, mb: f64, iters: usize) {
    println!("== E2: assertion suite at {gb} paper-GB / {mb} paper-MB ==");
    println!("   (paper: 0.01–1.29 s incremental, always faster, up to ×2662)");
    println!(
        "{:>22} {:>6} {:>12} {:>12} {:>9}",
        "assertion", "views", "TINTIN", "full query", "speedup"
    );
    let mut range: Option<(Duration, Duration)> = None;
    for (name, sql) in TPCH_ASSERTIONS {
        let mut s = prepare(gb, mb, &[sql], 42);
        let inc = time_incremental(&mut s, iters);
        let full = time_full(&s, iters);
        let speedup = full.as_secs_f64() / inc.as_secs_f64().max(1e-9);
        let views = s.inst.view_count();
        println!(
            "{name:>22} {views:>6} {:>12} {:>12} {:>8.0}x",
            secs(inc),
            secs(full),
            speedup
        );
        range = Some(match range {
            None => (inc, inc),
            Some((lo, hi)) => (lo.min(inc), hi.max(inc)),
        });
    }
    if let Some((lo, hi)) = range {
        println!("   TINTIN check-time range: {} – {}", secs(lo), secs(hi));
    }
    println!();
}

/// E3 — ablation of the semantic optimizations and the emptiness shortcut.
fn e3(gb: f64, mb: f64, iters: usize) {
    println!("== E3: ablation at {gb} paper-GB / {mb} paper-MB (all 6 assertions) ==");
    println!(
        "{:>28} {:>6} {:>12} {:>10}",
        "configuration", "views", "check", "vs default"
    );
    let assertions: Vec<&str> = TPCH_ASSERTIONS.iter().map(|(_, s)| *s).collect();
    let configs: Vec<(&str, TintinConfig)> = vec![
        ("default", TintinConfig::default()),
        (
            "no FK pruning",
            TintinConfig {
                edc: EdcConfig {
                    optimize: true,
                    assume_fks_valid: false,
                    ..EdcConfig::default()
                },
                ..TintinConfig::default()
            },
        ),
        (
            "no optimizations",
            TintinConfig {
                edc: EdcConfig {
                    optimize: false,
                    assume_fks_valid: false,
                    ..EdcConfig::default()
                },
                ..TintinConfig::default()
            },
        ),
        (
            "no emptiness shortcut",
            TintinConfig {
                emptiness_shortcut: false,
                ..TintinConfig::default()
            },
        ),
    ];
    let mut baseline: Option<f64> = None;
    for (label, config) in configs {
        let mut s: Scenario = prepare_with_config(gb, mb, &assertions, 42, config);
        let inc = time_incremental(&mut s, iters);
        let views = s.inst.view_count();
        let rel = match baseline {
            None => {
                baseline = Some(inc.as_secs_f64());
                1.0
            }
            Some(b) => inc.as_secs_f64() / b.max(1e-9),
        };
        println!("{label:>28} {views:>6} {:>12} {rel:>9.2}x", secs(inc));
    }

    // The shortcut's raison d'être: an update that cannot affect any of the
    // assertions (customer insertions only) — with the shortcut every view
    // is skipped; without it, all of them are evaluated.
    println!("\n   -- update touching only `customer` (irrelevant to all 6 assertions) --");
    for (label, shortcut) in [("with shortcut", true), ("without shortcut", false)] {
        let mut s = prepare_with_config(
            gb,
            0.0,
            &assertions,
            42,
            TintinConfig {
                emptiness_shortcut: shortcut,
                ..TintinConfig::default()
            },
        );
        // Insert fresh customers only.
        let base = s.counts.customers;
        let rows: Vec<Vec<tintin_engine::Value>> = (1..=200)
            .map(|i| {
                vec![
                    tintin_engine::Value::Int(base + i),
                    tintin_engine::Value::str(format!("Customer#{:09}", base + i)),
                    tintin_engine::Value::Int(1),
                ]
            })
            .collect();
        s.db.insert_rows("customer", rows).unwrap();
        let (violations, stats) = s.tintin.check_pending(&mut s.db, &s.inst).unwrap();
        assert!(violations.is_empty());
        println!(
            "{label:>28} {:>6} {:>12}   ({} views evaluated, {} skipped)",
            s.inst.view_count(),
            secs(stats.check_time),
            stats.views_evaluated,
            stats.views_skipped
        );
    }
    println!();
}
