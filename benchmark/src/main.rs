//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! tintin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tintin-benchmark run [--seed N] [--rounds R] [--seconds S] [--smoke] [--out FILE]
//! tintin-benchmark trace [--seed N] [--seconds S] [--out FILE]
//! tintin-benchmark compare <baseline.json> <new.json>
//! tintin-benchmark spread [--seeds N] [--seconds S] [--workload NAME]
//! tintin-benchmark manifest        # prints BENCHMARK.json
//! ```

mod gen;
mod json;
mod layers;
mod pin;
mod report;
mod single;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..], false),
        Some("trace") => report::run(&args[1..], true),
        Some("compare") => report::compare_files(&args[1..]),
        Some("spread") => report::spread_check(&args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single::main(&args),
        _ => Err(
            "usage: tintin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
             \x20      tintin-benchmark run|trace|compare|spread ... (see benchmark/README.md)"
                .to_string(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tintin-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
