//! End-to-end benchmark of the community-detection library.
//!
//! Three workloads drive the library through its public API only:
//!
//! * `facebook-multilevel` and `lastfm-multilevel` run `multilevel::detect`
//!   with the QHD solver on the Table II-matched graphs (see
//!   [`static_workload`]);
//! * `service-churn` serves a planted graph through `StreamingService` under
//!   an open-loop edge-churn load with concurrent snapshot reads (see
//!   [`service_workload`]).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it records spans around the public calls of each layer, writes them to
//! `perfbench/out/trace-<workload>-<seed>.json` and reports the per-layer
//! metrics. `--smoke` shrinks every input so the benchmark's own test runs in
//! seconds. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod report;
mod service_workload;
mod static_workload;
mod trace;

use report::{Metric, RunOutcome};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        window: Duration::from_secs(seconds.max(1)),
        trace,
        smoke: argv.iter().any(|a| a == "--smoke"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "facebook-multilevel" => static_workload::run(&static_workload::FACEBOOK, &args),
        "lastfm-multilevel" => static_workload::run(&static_workload::LASTFM, &args),
        "service-churn" => service_workload::run(&args),
        other => Err(format!("unknown workload {other}").into()),
    };
    let mut outcome: RunOutcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        outcome.end_to_end.push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"));
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json(args.trace));
    ExitCode::SUCCESS
}
