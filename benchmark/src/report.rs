//! The multi-round commands: `run` (every workload, several rounds, each
//! round a fresh child process), `trace` (the same with `--trace 1`),
//! `compare` (two results of `run`) and `spread` (the acceptance check of
//! the benchmark itself: ten seeds, interquartile range over median).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::json::Json;
use crate::single::{bound_of, END_TO_END};
use crate::stats::{median, quartile_spread, spread};
use crate::traced::PER_LAYER;
use crate::workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: f64 = 10.0;

struct Opts {
    seed: u64,
    rounds: usize,
    seconds: f64,
    smoke: bool,
    out: Option<PathBuf>,
    workload: Option<String>,
    seeds: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        rounds: 5,
        seconds: RUN_SECONDS,
        smoke: false,
        out: None,
        workload: None,
        seeds: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rounds" => o.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--seeds" => o.seeds = value()?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--workload" => o.workload = Some(value()?.clone()),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.rounds == 0 || o.seeds < 2 {
        return Err("--rounds must be at least 1 and --seeds at least 2".into());
    }
    Ok(o)
}

fn selected(o: &Opts) -> Result<Vec<&'static str>, String> {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|s| s.name)
        .filter(|n| o.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    if names.is_empty() {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(names)
}

/// The two JSON lines a child run ends with: `(detail, result)`.
struct Child {
    detail: Json,
    result: Json,
}

/// One run in a fresh child process of this executable, so heap state and
/// MVCC garbage never leak between rounds and `peak_rss_mb` means
/// something. The child is waited for.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()])
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{workload} run failed: {}", stderr.trim()));
    }
    eprint!("{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")
        .and_then(|l| Json::parse(l).map_err(|_| "bad detail line"))?;
    Ok(Child { detail, result })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn provenance(o: &Opts, trace: bool) -> Json {
    Json::obj([
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("rounds", Json::Num(o.rounds as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(o.smoke)),
    ])
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        })
}

/// Per-workload accumulation over rounds.
#[derive(Default)]
struct Rounds {
    values: BTreeMap<String, Vec<f64>>,
    units: BTreeMap<String, String>,
    calib_ns: Vec<f64>,
    calib_mem_ns: Vec<f64>,
    counts: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    correct: bool,
    extra: Vec<(String, Json)>,
}

/// The details that are exact counts with one client: they must repeat for
/// a seed, so `compare` checks them for equality.
const COUNTS: [&str; 3] = [
    "views_evaluated_per_commit",
    "views_skipped_relevance_per_commit",
    "views_skipped_residual_per_commit",
];

impl Rounds {
    fn add(&mut self, c: &Child) {
        for (name, m) in c.result.get("metrics").map_or(&[][..], Json::as_obj) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                self.values.entry(name.clone()).or_default().push(v);
            }
            if let Some(u) = m.get("unit").and_then(Json::as_str) {
                self.units.insert(name.clone(), u.to_string());
            }
        }
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += num(&c.result, "attempted");
        self.failed += num(&c.result, "failed");
        self.correct &= c.result.get("correct") == Some(&Json::Bool(true));
        self.calib_ns.push(num(&c.detail, "calib_ns"));
        self.calib_mem_ns.push(num(&c.detail, "calib_mem_ns"));
        for name in COUNTS {
            if let Some(v) = c.detail.get(name).and_then(Json::as_f64) {
                self.counts.entry(name.to_string()).or_default().push(v);
            }
        }
        for key in ["flush_policy", "filesystem", "pinned", "cpus", "truncated"] {
            if let Some(v) = c.detail.get(key) {
                if !self.extra.iter().any(|(k, _)| k == key) {
                    self.extra.push((key.to_string(), v.clone()));
                }
            }
        }
    }

    fn to_json(&self, order: &[(&str, &str)]) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let metrics = order.iter().filter_map(|(name, _)| {
            let v = self.values.get(*name)?;
            Some((
                *name,
                Json::obj([
                    (
                        "unit",
                        Json::str(self.units.get(*name).cloned().unwrap_or_default()),
                    ),
                    ("median", Json::Num(median(v))),
                    ("min", Json::Num(min_max(v).0)),
                    ("max", Json::Num(min_max(v).1)),
                    ("spread", Json::Num(spread(v))),
                    ("samples", Json::Num(v.len() as f64)),
                    ("values", nums(v)),
                ]),
            ))
        });
        let mut pairs = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("ops_attempted".to_string(), Json::Num(self.attempted)),
            ("ops_failed".to_string(), Json::Num(self.failed)),
            ("calib_ns".to_string(), nums(&self.calib_ns)),
            ("calib_mem_ns".to_string(), nums(&self.calib_mem_ns)),
            ("metrics".to_string(), Json::obj(metrics)),
            (
                "counts".to_string(),
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), nums(v)))),
            ),
        ];
        pairs.extend(self.extra.iter().cloned());
        Json::Obj(pairs)
    }
}

fn print_table(per: &BTreeMap<&str, Rounds>, order: &[(&str, &str)], names: &[&str]) {
    for name in names {
        let r = &per[name];
        println!(
            "\n== {name}: ops_attempted {} ops_failed {} correct {}\n   calib_ns {:?}\n   calib_mem_ns {:?}",
            r.attempted, r.failed, r.correct, r.calib_ns, r.calib_mem_ns
        );
        println!(
            "   {:42} {:>14} {:>6} {:>14} {:>14} {:>8} {:>3}",
            "metric", "median", "unit", "min", "max", "spread", "n"
        );
        for (metric, _) in order {
            if let Some(v) = r.values.get(*metric) {
                println!(
                    "   {:42} {:>14.4} {:>6} {:>14.4} {:>14.4} {:>7.1}% {:>3}",
                    metric,
                    median(v),
                    r.units.get(*metric).map_or("", String::as_str),
                    min_max(v).0,
                    min_max(v).1,
                    spread(v) * 100.0,
                    v.len()
                );
            }
        }
    }
}

/// `run` and `trace`: every selected workload for `--rounds` rounds,
/// interleaved across workloads (A B C D E F, A B C …).
pub fn run(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let mut o = parse(args)?;
    if trace && !args.iter().any(|a| a == "--rounds") {
        o.rounds = 1;
    }
    let mut setups = 5;
    if o.smoke {
        // One round at a twentieth of the counts, one set-up per run.
        (o.rounds, o.seconds, setups) = (1, o.seconds / 20.0, 1);
    }
    let names = selected(&o)?;
    let started = Instant::now();
    let mut timed: BTreeMap<&str, Rounds> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Rounds> = BTreeMap::new();
    for name in &names {
        for map in [&mut timed, &mut traced] {
            map.insert(
                name,
                Rounds {
                    correct: true,
                    ..Rounds::default()
                },
            );
        }
    }
    for round in 0..o.rounds {
        for name in &names {
            eprintln!("round {} of {}: {name}", round + 1, o.rounds);
            if !trace || o.smoke {
                let c = child(name, o.seed, o.seconds, false, setups)?;
                timed.get_mut(name).expect("selected").add(&c);
            }
            if trace || o.smoke {
                let c = child(name, o.seed, o.seconds, true, setups)?;
                traced.get_mut(name).expect("selected").add(&c);
            }
        }
    }

    let section = |per: &BTreeMap<&str, Rounds>, order: &[(&str, &str)]| {
        Json::obj(names.iter().map(|n| (*n, per[n].to_json(order))))
    };
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    let mut doc = vec![
        ("benchmark".to_string(), Json::str("tintin-benchmark")),
        // This benchmark measures; it claims no gain.
        ("claim".to_string(), Json::Null),
        ("provenance".to_string(), provenance(&o, trace)),
    ];
    if !trace || o.smoke {
        print_table(&timed, &e2e, &names);
        doc.push(("workloads".to_string(), section(&timed, &e2e)));
    }
    if trace || o.smoke {
        print_table(&traced, &layers, &names);
        doc.push(("per_layer".to_string(), section(&traced, &layers)));
    }
    let doc = Json::Obj(doc);
    let default = if trace { "trace_run.json" } else { "run.json" };
    let out = o
        .out
        .clone()
        .unwrap_or_else(|| Path::new("benchmark/out").join(default));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "\nwrote {} ({:.1} s)",
        out.display(),
        started.elapsed().as_secs_f64()
    );

    let mut problems = Vec::new();
    for (name, r) in timed.iter().chain(traced.iter()) {
        if !r.correct || r.failed > 0.0 {
            problems.push(format!(
                "{name}: output checks failed ({} operations)",
                r.failed
            ));
        }
    }
    if o.smoke {
        problems.extend(check_against_manifest(&doc, Path::new("BENCHMARK.json")));
    }
    for p in &problems {
        eprintln!("tintin-benchmark: {p}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Does a result of `run --smoke` carry exactly the workloads and metrics
/// (with their units) that `BENCHMARK.json` registers?
pub fn check_against_manifest(doc: &Json, manifest: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(manifest) {
        Ok(t) => t,
        Err(e) => return vec![format!("read {}: {e}", manifest.display())],
    };
    let m = match Json::parse(&text) {
        Ok(m) => m,
        Err(e) => return vec![format!("{}: {e}", manifest.display())],
    };
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<(String, String)> {
        m.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("name")?.as_str()?.to_string(),
                    e.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                ))
            })
            .collect()
    };
    for (section, key) in [("workloads", "end_to_end"), ("per_layer", "per_layer")] {
        let registered = names(key);
        for (workload, _) in names("workloads") {
            let Some(got) = doc
                .get(section)
                .and_then(|s| s.get(&workload))
                .and_then(|w| w.get("metrics"))
            else {
                problems.push(format!("{section}: workload {workload} is missing"));
                continue;
            };
            for (name, unit) in &registered {
                match got
                    .get(name)
                    .and_then(|g| g.get("unit"))
                    .and_then(Json::as_str)
                {
                    Some(u) if u == unit => {}
                    Some(u) => problems.push(format!("{workload}.{name}: unit {u}, not {unit}")),
                    None => problems.push(format!("{workload}.{name} is missing")),
                }
            }
            for (name, _) in got.as_obj() {
                if !registered.iter().any(|(n, _)| n == name) {
                    problems.push(format!(
                        "{workload}.{name} is not in {}",
                        manifest.display()
                    ));
                }
            }
        }
    }
    problems
}

/// `BENCHMARK.json` as the tables in this program define it: the file at
/// the root of the repository is this command's output.
pub fn manifest() -> Json {
    let better = |lower: bool| Json::str(if lower { "lower" } else { "higher" });
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.0)),
                            ("unit", Json::str(m.1)),
                            ("better", better(m.2)),
                            ("bound", Json::Num(m.3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.0)),
                            ("unit", Json::str(m.1)),
                            ("better", better(m.2)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ----------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side (interquartile range over
    /// median) is wider than the bound.
    Unresolved,
}

/// Compare two sets of rounds of one metric. `bound` is the share of the
/// baseline's median by which the metric may get worse.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse_by = if b == 0.0 {
        0.0
    } else if lower_is_better {
        (n - b) / b.abs()
    } else {
        (b - n) / b.abs()
    };
    // The spread that decides is the one the benchmark is accepted by:
    // the distance between the quartiles, which one stray round of five
    // does not move.
    let v = if quartile_spread(base).max(quartile_spread(new)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, v)
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// `compare <baseline.json> <new.json>`: one row per (metric, workload);
/// exits non-zero on any `worse`.
pub fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = args else {
        return Err("usage: compare <baseline.json> <new.json>".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut worse = 0;
    println!(
        "{:14} {:16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "baseline", "new", "worse by", "bound"
    );
    for spec in &WORKLOADS {
        for (metric, _, lower, _) in END_TO_END {
            let (b, n) = (
                values_of(&base, spec.name, metric),
                values_of(&new, spec.name, metric),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let bound = bound_of(metric);
            let (by, v) = verdict(&b, &n, lower, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:14} {:16} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}",
                spec.name,
                metric,
                median(&b),
                median(&n),
                by * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        let counts = |doc: &Json| doc.get("workloads")?.get(spec.name)?.get("counts").cloned();
        if spec.conns == 1 && !spec.reader {
            match (counts(&base), counts(&new)) {
                (Some(b), Some(n)) if b == n => println!("{:14} counts identical", spec.name),
                (Some(_), Some(_)) => println!("{:14} counts DIFFER", spec.name),
                _ => {}
            }
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("tintin-benchmark: {worse} metrics are worse than the baseline");
        ExitCode::FAILURE
    })
}

// ------------------------------------------------------------------ spread

/// The acceptance check of the benchmark itself: each workload on
/// `--seeds` different seeds, and for every end-to-end metric the distance
/// between the first and third quartile as a share of the median.
pub fn spread_check(args: &[String]) -> Result<ExitCode, String> {
    let o = parse(args)?;
    let mut over = 0;
    for name in selected(&o)? {
        let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..o.seeds {
            let c = child(name, o.seed + i as u64, o.seconds, false, 5)?;
            if c.result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{name}: seed {} is not correct", o.seed + i as u64));
            }
            for (metric, m) in c.result.get("metrics").map_or(&[][..], Json::as_obj) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per.entry(metric.clone()).or_default().push(v);
                }
            }
        }
        println!("== {name}");
        for (metric, _, _, _) in END_TO_END {
            let v = &per[metric];
            let (s, bound) = (quartile_spread(v), bound_of(metric));
            // `setup_s` is exempt from the spread rule.
            let flag = if metric != "setup_s" && s > bound / 3.0 {
                over += 1;
                "  > bound/3"
            } else {
                ""
            };
            println!(
                "   {metric:16} median {:>14.4}  iqr/median {:>6.2}%  bound {:>3.0}%{flag}",
                median(v),
                s * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{over} (metric, workload) pairs spread wider than a third of their bound");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest_command_output() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), manifest());
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let shifted = |by: f64| base.map(|v| v * by);
        // Lower is better, 5 % bound.
        assert_eq!(verdict(&base, &shifted(1.02), true, 0.05).1, Verdict::Same);
        assert_eq!(verdict(&base, &shifted(1.08), true, 0.05).1, Verdict::Worse);
        assert_eq!(
            verdict(&base, &shifted(0.90), true, 0.05).1,
            Verdict::Better
        );
        // Higher is better: the same shifts read the other way round.
        assert_eq!(
            verdict(&base, &shifted(1.08), false, 0.05).1,
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &shifted(0.90), false, 0.05).1,
            Verdict::Worse
        );
        // A side whose rounds spread wider than the bound resolves nothing.
        let noisy = [100.0, 120.0, 90.0, 110.0, 95.0];
        assert_eq!(verdict(&base, &noisy, true, 0.05).1, Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &shifted(2.0), true, 0.05).1,
            Verdict::Unresolved
        );
        let (by, _) = verdict(&base, &shifted(1.08), true, 0.05);
        assert!((by - 0.08).abs() < 1e-9);
    }

    #[test]
    fn manifest_check_finds_missing_and_extra_metrics() {
        let dir = std::env::temp_dir().join(format!("tintin-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("BENCHMARK.json");
        std::fs::write(
            &manifest,
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"a","unit":"us"},{"name":"b","unit":"s"}],
                "per_layer":[{"name":"l.x","unit":"count"}]}"#,
        )
        .unwrap();
        let metric = |unit: &str| Json::obj([("unit", Json::str(unit))]);
        let doc = |e2e: Json| {
            Json::obj([
                (
                    "workloads",
                    Json::obj([("w", Json::obj([("metrics", e2e)]))]),
                ),
                (
                    "per_layer",
                    Json::obj([(
                        "w",
                        Json::obj([("metrics", Json::obj([("l.x", metric("count"))]))]),
                    )]),
                ),
            ])
        };
        let good = doc(Json::obj([("a", metric("us")), ("b", metric("s"))]));
        assert_eq!(
            check_against_manifest(&good, &manifest),
            Vec::<String>::new()
        );
        let bad = doc(Json::obj([("a", metric("ms")), ("c", metric("s"))]));
        let problems = check_against_manifest(&bad, &manifest);
        assert_eq!(problems.len(), 3, "{problems:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
