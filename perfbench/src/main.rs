//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ipc_call|serve_direct|serve_ring|graph_ycsb> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON result object as the last line of standard output
//! and exits non-zero if any output check failed.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::plan::{Sizes, Workload};
use perfbench::Run;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <ipc_call|serve_direct|serve_ring|graph_ycsb> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let run = Run {
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        sizes: Sizes::FULL,
    };
    let mut out = perfbench::run(w, &run);
    out.check(out.attempted > 0, || {
        "no operation was attempted".to_string()
    });
    for v in &out.violations {
        eprintln!("CHECK FAILED [{}]: {v}", w.name());
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
