//! Command line of the serving benchmark.
//!
//! ```text
//! servebench --workload <serve-hot|scan-1m|ingest-cluster> --seed <n>
//!            --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints the full record line, then the result line, on stdout. Index
//! files go under `.bench_data/` in the working directory and are
//! removed before exit.

use servebench::report::Provenance;
use servebench::{Options, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("servebench: {problem}");
    eprintln!(
        "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag or workload: {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };

    let dir = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
    let opts = Options {
        seed,
        seconds,
        trace,
        smoke,
        dir: dir.clone(),
    };
    let prov = Provenance::detect(&workload, seed, seconds, trace, smoke);
    let report = servebench::run(&workload, &opts).expect("workload names are checked above");
    servebench::remove_dir(&dir);
    // Leave no empty parent behind; another run may still be using it.
    let _ = std::fs::remove_dir(".bench_data");
    println!("{}", report.record_line(&prov));
    println!("{}", report.result_line(trace));
    ExitCode::SUCCESS
}
