//! One run of one workload in this process: what the driver (and the
//! multi-round `run`, through child processes) invokes as
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with every end-to-end metric for `--trace 0` and every per-layer metric
//! for `--trace 1`. The line before it (`detail {…}`) carries what the
//! result line has no room for: the calibration loop, exact counts, the
//! flush policy and filesystem of a durable run.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::json::Json;
use crate::pin;
use crate::stats::median;
use crate::traced;
use crate::workloads::{
    crash_and_recover, drive, filesystem_of, observe, peak_rss_mb, read_phase, setup, spec, verify,
    Spec, Variant, WORKLOADS,
};

/// `(name, unit, lower is better, bound)` of the end-to-end metrics, as
/// `BENCHMARK.json` lists them. The bound is the share of the baseline's
/// median by which the metric may get worse before `compare` (and the
/// driver) call it a regression. The reference machine is a two-vCPU VM on
/// a shared host: over ten seeds the interquartile range of a timing is
/// 2–10 % of its median (up to 19 % on the fsync-bound workload), and
/// the same binary on the same seed has been
/// measured 50 % apart half an hour later. Timings therefore get the
/// widest bound the benchmark contract allows; memory, which repeats to
/// within 1.5 %, gets 10 %.
pub const END_TO_END: [(&str, &str, bool, f64); 11] = [
    ("setup_s", "s", true, 0.25),
    ("commit_p50_us", "us", true, 0.25),
    ("commit_p95_us", "us", true, 0.25),
    ("commits_per_s", "1/s", false, 0.25),
    ("reject_p50_us", "us", true, 0.25),
    ("check_p50_us", "us", true, 0.25),
    ("read_p50_us", "us", true, 0.25),
    ("read_p95_us", "us", true, 0.25),
    ("reads_per_s", "1/s", false, 0.25),
    ("install_p50_ms", "ms", true, 0.25),
    ("peak_rss_mb", "MiB", true, 0.1),
];

pub fn bound_of(metric: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.0 == metric)
        .map_or(0.0, |m| m.3)
}

pub struct Args {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    /// The CPUs the run may use; the process starts on the first.
    pub cpus: Vec<usize>,
    /// Set-ups per run: the first serves the measured window, the others
    /// are timed only, and `setup_s` / `install_p50_ms` are the medians.
    pub setups: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setups) = (1u64, 10.0f64, false, 5usize);
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--setups" => setups = value()?.parse().map_err(|e| format!("--setups: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = spec(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        out_dir,
        setups: setups.max(1),
        // The first connection gets the highest CPU: interrupts and
        // housekeeping tend to land on CPU 0.
        cpus: pin::allowed_cpus().into_iter().rev().collect(),
    })
}

/// A fixed integer-hash loop, timed at the start of every run: the reader
/// of two results tells machine drift from a program change by it.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// A dependent-load chase through a random cycle over 16 MiB. The shared
/// host slows memory-bound work by half for tens of minutes at a time
/// while [`calibrate`] does not move; this loop moves with it.
pub fn calibrate_memory() -> f64 {
    const N: usize = 1 << 22;
    let mut rng = crate::gen::Rng::lane(0x00C0_FFEE, 7);
    // Sattolo's algorithm: a permutation that is one single cycle.
    let mut next: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        next.swap(i, rng.range(0, i as i64 - 1) as usize);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..1_000_000 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t.elapsed().as_nanos() as f64
}

pub fn metrics_json(values: &[(&str, &str, f64)]) -> Json {
    Json::obj(values.iter().map(|(name, unit, v)| {
        (
            *name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
        )
    }))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let args = parse(args)?;
    // Everything starts on the first CPU, and the threads the program
    // spawns inherit that; `drive` moves the second connection's pair.
    let pinned = pin::pin(0, args.cpus[0]);
    let (calib_ns, calib_mem_ns) = (calibrate(), calibrate_memory());
    let out = if args.trace {
        traced::run(&args, calib_ns, calib_mem_ns)?
    } else {
        timed(&args)?
    };
    for why in &out.broken {
        eprintln!("tintin-benchmark: {}: {why}", args.spec.name);
    }
    let mut detail = vec![
        ("workload".to_string(), Json::str(args.spec.name)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("calib_ns".to_string(), Json::Num(calib_ns)),
        ("calib_mem_ns".to_string(), Json::Num(calib_mem_ns)),
        ("pinned".to_string(), Json::Bool(pinned)),
        (
            "cpus".to_string(),
            Json::Arr(args.cpus.iter().map(|c| Json::Num(*c as f64)).collect()),
        ),
    ];
    detail.extend(out.detail);
    println!("detail {}", Json::Obj(detail).render());
    let result = Json::obj([
        ("correct", Json::Bool(out.broken.is_empty())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&out.metrics)),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

/// What one run hands to the printer.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub broken: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub detail: Vec<(String, Json)>,
}

pub fn data_dir(args: &Args, tag: &str) -> PathBuf {
    args.out_dir
        .join("data")
        .join(format!("{}-{}-{tag}", args.spec.name, std::process::id()))
}

/// Remove this process's data directories (a run leaves nothing behind but
/// the ignored output directory itself).
pub fn remove_data_dirs(args: &Args) {
    for tag in ["db", "crash", "priced"] {
        let _ = std::fs::remove_dir_all(data_dir(args, tag));
    }
    // Only succeeds once no other run's directory is left in it.
    let _ = std::fs::remove_dir(args.out_dir.join("data"));
}

/// The untraced run: set up, drive the timed window, check the outputs,
/// then set up again (four times by default) for the set-up medians.
fn timed(args: &Args) -> Result<RunOutput, String> {
    let spec = args.spec;
    let variant = Variant::of(spec);
    let dir = data_dir(args, "db");
    let mut env = setup(spec, variant, args.seed, args.seconds, &dir, &args.cpus)?;
    let first = env.times.clone();
    let mut tallies = drive(&mut env, spec, spec.quota(args.seconds), args.seconds);
    if !spec.reader {
        tallies.push(read_phase(
            &mut env,
            spec,
            spec.reads(args.seconds),
            args.seconds,
        ));
    }
    let seen = observe(&tallies);
    // Before the checks below: they scan whole tables into memory.
    let peak_rss = peak_rss_mb();
    let (mut broken, _) = verify(&mut env, spec, &seen);
    let mut detail: Vec<(String, Json)> = Vec::new();
    if spec.durable {
        let acked = first.warmup_committed + seen.committed;
        let r = crash_and_recover(&env, acked, &data_dir(args, "crash"))?;
        broken.extend(r.broken.iter().cloned());
        detail.extend([
            (
                "flush_policy".to_string(),
                Json::str("fsync before every acknowledgment (group commit)"),
            ),
            ("filesystem".to_string(), Json::str(filesystem_of(&dir))),
            ("recovery_s".to_string(), Json::Num(r.recovery_s)),
            (
                "commits_replayed".to_string(),
                Json::Num(r.commits_replayed as f64),
            ),
            ("acked_commits".to_string(), Json::Num(acked as f64)),
            (
                "unflushed_bytes_discarded".to_string(),
                Json::Num(r.discarded_bytes as f64),
            ),
        ]);
    }
    env.shutdown();

    let mut setups = vec![first.total_s];
    let mut installs = vec![first.install_ms];
    for _ in 1..args.setups {
        let again = setup(spec, variant, args.seed, args.seconds, &dir, &args.cpus)?;
        setups.push(again.times.total_s);
        installs.push(again.times.install_ms);
        again.shutdown();
    }
    remove_data_dirs(args);

    let c = seen.checks;
    let per_commit = |n: u64| Json::Num(n as f64 / c.decided.max(1) as f64);
    detail.extend([
        ("truncated".to_string(), Json::Bool(seen.truncated)),
        ("committed".to_string(), Json::Num(seen.committed as f64)),
        (
            "script_bytes".to_string(),
            Json::Num(seen.script_bytes as f64),
        ),
        (
            "views_evaluated_per_commit".to_string(),
            per_commit(c.evaluated),
        ),
        (
            "views_skipped_relevance_per_commit".to_string(),
            per_commit(c.skipped_relevance),
        ),
        (
            "views_skipped_residual_per_commit".to_string(),
            per_commit(c.skipped_residual),
        ),
        (
            "setup_samples_s".to_string(),
            Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
        ),
    ]);
    let values = [
        median(&setups),
        seen.commit_p50_us,
        seen.commit_p95_us,
        seen.commits_per_s,
        seen.reject_p50_us,
        seen.check_p50_us,
        seen.read_p50_us,
        seen.read_p95_us,
        seen.reads_per_s,
        median(&installs),
        peak_rss,
    ];
    Ok(RunOutput {
        attempted: seen.attempted,
        failed: seen.failed,
        broken,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.0, m.1, v))
            .collect(),
        detail,
    })
}
