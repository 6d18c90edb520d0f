//! The traced run (`--trace 1`): the per-layer numbers of one workload.
//!
//! Everything is measured from outside the program — by timing calls into
//! a crate's public functions, or by reading what the program already
//! publishes (`CheckStats` in outcomes, the metrics registry, the log's
//! watermarks, the recovery summary). Four phases, on one seed:
//!
//! * **published** — the workload runs as in the untraced run, for 40 % of
//!   its operations, between two registry snapshots; the deltas give the
//!   commit-phase histograms, request time, bytes moved, WAL activity, GC
//!   and the `CheckStats` ratios. This phase's client-observed median is
//!   the *whole* the layers are compared with;
//! * **stepwise** — single-threaded, in-process: the next 10 % of the
//!   stream alternates between blocks replayed layer by layer under spans
//!   (`layers::execute_stepwise`) and blocks run untraced through
//!   `Session::execute`; the difference is the tracing overhead;
//! * **priced layers** — the same traffic in time slices against an
//!   enabled-registry and a no-op-registry server (`obs.overhead_pct`) and,
//!   for the durable workload, a durable no-fsync one
//!   (`wal.commit_overhead_us`);
//! * **install** — the assertion set installed stage by stage on a scratch
//!   catalog.

use std::time::Instant;

use crate::gen::Stream;
use crate::json::Json;
use crate::layers::{self, Conn, Hist};
use crate::single::{data_dir, remove_data_dirs, Args, RunOutput};
use crate::stats::{percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{
    crash_and_recover, drive, judge, observe, read_phase, setup, verify, Decided, Env, Spec, Tally,
    Variant,
};

/// `(name, unit, lower is better)` of the per-layer metrics, as
/// `BENCHMARK.json` lists them. They carry no bound: they explain a change
/// in an end-to-end metric, they do not gate one.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    ("machine.calib_ns", "ns", true),
    ("machine.calib_mem_ns", "ns", true),
    ("e2e.commit_p99_us", "us", true),
    ("e2e.read_p99_us", "us", true),
    ("sql.parse_us", "us", true),
    ("sql.script_bytes", "B", true),
    ("engine.plan_dml_us", "us", true),
    ("engine.stage_us", "us", true),
    ("engine.stage_p999_us", "us", true),
    ("engine.publish_us", "us", true),
    ("engine.publish_p999_us", "us", true),
    ("engine.query_point_us", "us", true),
    ("engine.query_join_us", "us", true),
    ("engine.gc_runs", "count", true),
    ("engine.gc_pruned", "count", false),
    ("engine.live_versions", "count", true),
    ("engine.dead_versions", "count", true),
    ("engine.prepare_us", "us", true),
    ("core.check_us", "us", true),
    ("core.views_evaluated_per_commit", "count", true),
    ("core.views_skipped_relevance_per_commit", "count", false),
    ("core.views_skipped_residual_per_commit", "count", false),
    ("core.fallbacks_evaluated_per_commit", "count", true),
    ("core.views_evaluated_frac", "ratio", true),
    ("core.plans_recompiled", "count", true),
    ("core.violations", "count", true),
    ("core.full_recheck_ms", "ms", true),
    ("core.incr_speedup_x", "x", false),
    ("core.initial_check_ms", "ms", true),
    ("logic.translate_us", "us", true),
    ("logic.edc_us", "us", true),
    ("logic.denials", "count", true),
    ("logic.edcs", "count", true),
    ("logic.bodies_pruned", "count", false),
    ("sqlgen.generate_us", "us", true),
    ("sqlgen.views", "count", true),
    ("session.begin_us", "us", true),
    ("session.execute_us", "us", true),
    ("session.commit_us", "us", true),
    ("session.commit_self_us", "us", true),
    ("session.conflicts", "count", true),
    ("session.errors", "count", true),
    ("wal.fsync_p50_us", "us", true),
    ("wal.fsyncs_per_commit", "ratio", true),
    ("wal.group_batch_p50", "count", false),
    ("wal.bytes_per_commit", "B", true),
    ("wal.commit_overhead_us", "us", true),
    ("wal.checkpoint_ms", "ms", true),
    ("wal.checkpoint_bytes", "B", true),
    ("wal.commits_replayed", "count", true),
    ("wal.recovery_s", "s", true),
    ("server.request_us", "us", true),
    ("server.encode_response_us", "us", true),
    ("server.read_frame_us", "us", true),
    ("server.bytes_in_per_commit", "B", true),
    ("server.bytes_out_per_commit", "B", true),
    ("client.decode_response_us", "us", true),
    ("client.rtt_us", "us", true),
    ("wire.overhead_us", "us", true),
    ("obs.overhead_pct", "%", true),
    ("tpch.dbgen_s", "s", true),
    ("tpch.db_bytes", "B", true),
    ("trace.whole_us", "us", true),
    ("trace.traced_us", "us", true),
    ("trace.parts_over_whole", "ratio", true),
    ("trace.overhead_pct", "%", true),
    ("trace.spans", "count", true),
];

/// Transactions per time slice of the priced-layers phase.
const BLOCK: usize = 50;

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values.to_vec()), 0.5)
    }
}

fn per(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        self.0.push((name, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub fn run(args: &Args, calib_ns: f64, calib_mem_ns: f64) -> Result<RunOutput, String> {
    let spec = args.spec;
    let quota = spec.quota(args.seconds);
    let mut v = Values(Vec::new());
    let mut detail: Vec<(String, Json)> = Vec::new();
    v.set("machine.calib_ns", calib_ns);
    v.set("machine.calib_mem_ns", calib_mem_ns);

    // ---- published -------------------------------------------------------
    let dir = data_dir(args, "db");
    let mut env = setup(
        spec,
        Variant::of(spec),
        args.seed,
        args.seconds,
        &dir,
        &args.cpus,
    )?;
    v.set("tpch.dbgen_s", env.times.dbgen_s);
    v.set("tpch.db_bytes", env.times.db_bytes as f64);
    v.set("wal.checkpoint_ms", env.times.checkpoint_ms);
    v.set("wal.checkpoint_bytes", env.times.checkpoint_bytes as f64);
    let t = Instant::now();
    env.node.full_recheck()?;
    v.set("core.initial_check_ms", t.elapsed().as_secs_f64() * 1e3);

    let before = env.node.published();
    let mut tallies = drive(&mut env, spec, quota * 2 / 5, args.seconds);
    let after = env.node.published();
    if !spec.reader {
        let reads = spec.reads(args.seconds) * 2 / 5;
        tallies.push(read_phase(&mut env, spec, reads, args.seconds));
    }
    let seen = observe(&tallies);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let hist = |name: &str| -> Hist { after.hist(name).since(&before.hist(name)) };
    let commits = delta("tintin_commits_total");
    let c = seen.checks;
    v.set("trace.whole_us", seen.commit_p50_us);
    // The 99th percentiles, too unsteady on this machine to gate on.
    v.set("e2e.commit_p99_us", seen.commit_p99_us);
    v.set("e2e.read_p99_us", seen.read_p99_us);
    v.set("sql.script_bytes", per(seen.script_bytes, c.decided));
    v.set(
        "engine.stage_us",
        hist("tintin_commit_stage_seconds").quantile_us(0.5),
    );
    v.set(
        "engine.stage_p999_us",
        hist("tintin_commit_stage_seconds").quantile_us(0.999),
    );
    v.set(
        "engine.publish_us",
        hist("tintin_commit_publish_seconds").quantile_us(0.5),
    );
    v.set(
        "engine.publish_p999_us",
        hist("tintin_commit_publish_seconds").quantile_us(0.999),
    );
    v.set(
        "session.commit_us",
        hist("tintin_commit_seconds").quantile_us(0.5),
    );
    v.set(
        "session.conflicts",
        delta("tintin_commit_conflicts_total") as f64,
    );
    v.set("session.errors", delta("tintin_commit_errors_total") as f64);
    v.set("engine.gc_runs", delta("tintin_gc_runs_total") as f64);
    v.set("engine.gc_pruned", delta("tintin_gc_pruned_total") as f64);
    v.set(
        "engine.live_versions",
        after.gauge("tintin_mvcc_live_versions") as f64,
    );
    v.set(
        "engine.dead_versions",
        after.gauge("tintin_mvcc_dead_versions") as f64,
    );
    v.set(
        "core.views_evaluated_per_commit",
        per(c.evaluated, c.decided),
    );
    v.set(
        "core.views_skipped_relevance_per_commit",
        per(c.skipped_relevance, c.decided),
    );
    v.set(
        "core.views_skipped_residual_per_commit",
        per(c.skipped_residual, c.decided),
    );
    v.set(
        "core.fallbacks_evaluated_per_commit",
        per(c.fallbacks_evaluated, c.decided),
    );
    v.set("core.views_evaluated_frac", per(c.evaluated, c.views_total));
    v.set(
        "core.plans_recompiled",
        delta("tintin_plans_recompiled_total") as f64,
    );
    v.set("core.violations", delta("tintin_violations_total") as f64);
    let requests = delta("tintin_requests_total");
    v.set(
        "server.request_us",
        hist("tintin_request_seconds").quantile_us(0.5),
    );
    v.set(
        "server.bytes_in_per_commit",
        per(delta("tintin_bytes_in_total"), requests),
    );
    v.set(
        "server.bytes_out_per_commit",
        per(delta("tintin_bytes_out_total"), requests),
    );
    v.set(
        "wal.fsync_p50_us",
        hist("tintin_wal_fsync_seconds").quantile_us(0.5),
    );
    v.set(
        "wal.fsyncs_per_commit",
        per(delta("tintin_wal_fsyncs"), commits),
    );
    v.set(
        "wal.group_batch_p50",
        hist("tintin_wal_group_batch_records").quantile_raw(0.5),
    );
    v.set(
        "wal.bytes_per_commit",
        per(delta("tintin_wal_bytes_appended"), commits),
    );

    // Round trips of an empty script, and queries through `query_rows`.
    let (conn, stream) = &mut env.writers[0];
    let mut rtt = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        conn.ping()?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    v.set("client.rtt_us", if spec.wire { p50(&rtt) } else { 0.0 });
    let mut local = env.node.connect_local();
    let (mut point_us, mut join_us) = (Vec::new(), Vec::new());
    for _ in 0..2000 {
        let (point, join, rows) = stream.next_queries();
        let t = Instant::now();
        let n = local.query_count(&point)?;
        point_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let m = local.query_count(&join)?;
        join_us.push(t.elapsed().as_secs_f64() * 1e6);
        if [n, m] != rows {
            return Err(format!(
                "query_rows returned {n} and {m} rows, expected {rows:?}"
            ));
        }
    }
    v.set("engine.query_point_us", p50(&point_us));
    v.set("engine.query_join_us", p50(&join_us));

    // ---- stepwise --------------------------------------------------------
    let mut tracer = Tracer::new();
    let stepped = stepwise(&mut env, spec, quota / 10, &mut tracer)?;
    let by_layer = tracer.self_us_by_layer();
    let layer = |name: &str| by_layer.get(name).map_or(0.0, |s| p50(s));
    v.set("sql.parse_us", layer("sql.parse"));
    v.set("engine.plan_dml_us", layer("engine.plan_dml"));
    v.set("session.begin_us", layer("session.begin"));
    v.set("session.commit_self_us", layer("session.commit"));
    v.set("core.check_us", layer("core.check"));
    v.set("server.read_frame_us", layer("server.read_frame"));
    v.set("server.encode_response_us", layer("server.encode_response"));
    v.set("client.decode_response_us", layer("client.decode_response"));
    v.set("session.execute_us", p50(&stepped.untraced_us));
    v.set("trace.traced_us", p50(&stepped.traced_us));
    v.set("trace.spans", tracer.spans.len() as f64);
    // The self times of a transaction's spans sum to its root span, so the
    // median root — plus, over TCP, the round trip the in-process replay
    // has no part for — is what the layers add up to.
    let parts = p50(&stepped.traced_us) + v.get("client.rtt_us");
    v.set(
        "trace.parts_over_whole",
        parts / v.get("trace.whole_us").max(1e-3),
    );
    v.set(
        "trace.overhead_pct",
        (p50(&stepped.traced_session_us) / p50(&stepped.untraced_us).max(1e-3) - 1.0) * 100.0,
    );
    v.set(
        "wire.overhead_us",
        if spec.wire {
            v.get("trace.whole_us") - v.get("session.execute_us")
        } else {
            0.0
        },
    );

    // ---- checks, and the crash image of the durable workload -------------
    let mut all = observe(&tallies);
    all.committed += stepped.committed;
    let (mut broken, recheck_ms) = verify(&mut env, spec, &all);
    v.set("core.full_recheck_ms", recheck_ms);
    // The paper's headline — reported, never gated: a faster full scan
    // must not read as a regression.
    v.set(
        "core.incr_speedup_x",
        recheck_ms * 1e3 / seen.check_p50_us.max(1e-3),
    );
    if let Some(why) = stepped.first_failure {
        broken.push(format!("stepwise replay: {why}"));
    }
    if spec.durable {
        let acked = env.times.warmup_committed + all.committed;
        let r = crash_and_recover(&env, acked, &data_dir(args, "crash"))?;
        broken.extend(r.broken.iter().cloned());
        v.set("wal.recovery_s", r.recovery_s);
        v.set("wal.commits_replayed", r.commits_replayed as f64);
    }
    env.shutdown();

    // ---- priced layers ---------------------------------------------------
    let priced = priced_layers(args, quota / 20)?;
    v.set("obs.overhead_pct", priced.obs_overhead_pct);
    v.set("wal.commit_overhead_us", priced.wal_overhead_us);
    remove_data_dirs(args);

    // ---- install ---------------------------------------------------------
    let budget = layers::install_stepwise(&spec.schema_sql(), &spec.assertions(), &mut tracer)?;
    v.set("logic.translate_us", budget.translate_us);
    v.set("logic.edc_us", budget.edc_us);
    v.set("logic.denials", budget.denials as f64);
    v.set("logic.edcs", budget.edcs as f64);
    v.set("logic.bodies_pruned", budget.bodies_pruned as f64);
    v.set("sqlgen.generate_us", budget.generate_us);
    v.set("sqlgen.views", budget.views as f64);
    v.set("engine.prepare_us", budget.prepare_us);

    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let trace_path = args.out_dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, tracer.to_json(20_000))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    detail.push((
        "trace_file".into(),
        Json::str(trace_path.display().to_string()),
    ));
    detail.push(("install_parse_us".into(), Json::Num(budget.parse_us)));

    Ok(RunOutput {
        attempted: seen.attempted + stepped.attempted,
        failed: seen.failed + stepped.failed,
        broken,
        metrics: PER_LAYER.iter().map(|m| (m.0, m.1, v.get(m.0))).collect(),
        detail,
    })
}

struct Stepped {
    /// Root span of each traced transaction.
    traced_us: Vec<f64>,
    /// The same minus the framing and codec spans: what `Session::execute`
    /// covers, for comparison with the untraced blocks.
    traced_session_us: Vec<f64>,
    /// `Session::execute` of each untraced transaction.
    untraced_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    committed: u64,
    first_failure: Option<String>,
}

/// The next `n` transactions of the workload's streams on in-process
/// sessions, one thread: blocks replayed layer by layer alternate with
/// blocks run untraced, so drift lands on both sides of the comparison.
fn stepwise(env: &mut Env, spec: &Spec, n: usize, tracer: &mut Tracer) -> Result<Stepped, String> {
    let mut sessions: Vec<Conn> = env
        .writers
        .iter()
        .map(|_| env.node.connect_local())
        .collect();
    let mut out = Stepped {
        traced_us: Vec::new(),
        traced_session_us: Vec::new(),
        untraced_us: Vec::new(),
        attempted: 0,
        failed: 0,
        committed: 0,
        first_failure: None,
    };
    let lanes = sessions.len();
    let n = n.max(40);
    // At least eight alternations, however few transactions there are.
    let block = (n / 8).clamp(5, 100);
    for i in 0..n {
        let lane = i % lanes;
        let tx = env.writers[lane].1.next_tx();
        let traced = (i / block).is_multiple_of(2);
        let reply = if traced {
            let tx_id = i as u64 + 1;
            let first_span = tracer.spans.len();
            let reply = layers::execute_stepwise(
                &mut sessions[lane],
                &env.node,
                &tx.script,
                spec.wire,
                tx_id,
                tracer,
            );
            let spans = &tracer.spans[first_span..];
            if let Some(root) = spans.first() {
                let total = (root.end - root.start) as f64 / 1e3;
                let framing: u64 = spans
                    .iter()
                    .filter(|s| {
                        s.name.ends_with("_frame")
                            || s.name == "server.encode_response"
                            || s.name == "client.decode_response"
                    })
                    .map(|s| s.end - s.start)
                    .sum();
                out.traced_us.push(total);
                out.traced_session_us.push(total - framing as f64 / 1e3);
            }
            reply
        } else {
            let t = Instant::now();
            let reply = sessions[lane].execute(&tx.script);
            out.untraced_us.push(t.elapsed().as_secs_f64() * 1e6);
            reply
        };
        out.attempted += 1;
        match judge(&tx, &reply) {
            Ok(Decided::Committed(_)) => out.committed += 1,
            Ok(_) => {}
            Err(why) => {
                out.failed += 1;
                out.first_failure.get_or_insert(why);
            }
        }
    }
    Ok(out)
}

struct Priced {
    obs_overhead_pct: f64,
    wal_overhead_us: f64,
}

/// The workload's traffic, in-process, against servers that differ in one
/// layer, in round-robin time slices: enabled against no-op metrics
/// registry, and (durable workload) durable-without-fsync against
/// in-memory. Each server gets the same scripts.
fn priced_layers(args: &Args, n: usize) -> Result<Priced, String> {
    let spec = args.spec;
    let memory = |metrics| Variant {
        metrics,
        durable: None,
        wire: false,
    };
    let mut variants = vec![memory(true), memory(false)];
    if spec.durable {
        variants.push(Variant {
            metrics: true,
            durable: Some(false),
            wire: false,
        });
    }
    let dir = data_dir(args, "priced");
    let mut envs = Vec::new();
    for variant in &variants {
        envs.push(setup(
            spec,
            *variant,
            args.seed,
            args.seconds,
            &dir,
            &args.cpus,
        )?);
    }
    let mut tallies: Vec<Tally> = envs.iter().map(|_| Tally::new(BLOCK, BLOCK)).collect();
    let slices = (n / BLOCK).max(4);
    for _ in 0..slices {
        for (env, tally) in envs.iter_mut().zip(&mut tallies) {
            let (conn, stream) = &mut env.writers[0];
            let stream: &mut dyn Stream = stream.as_mut();
            for _ in 0..BLOCK {
                let tx = stream.next_tx();
                let t = Instant::now();
                let reply = conn.execute(&tx.script);
                let us = t.elapsed().as_secs_f64() * 1e6;
                tally.record_write(&tx, &reply, us);
            }
        }
    }
    if let Some(why) = tallies.iter().find_map(|t| t.first_failure.clone()) {
        return Err(format!("priced-layers phase: {why}"));
    }
    let p50s: Vec<f64> = tallies.iter().map(|t| t.commit_us.quantile(0.5)).collect();
    for env in envs {
        env.shutdown();
    }
    Ok(Priced {
        obs_overhead_pct: (p50s[0] / p50s[1].max(1e-3) - 1.0) * 100.0,
        wal_overhead_us: p50s.get(2).map_or(0.0, |durable| durable - p50s[0]),
    })
}
