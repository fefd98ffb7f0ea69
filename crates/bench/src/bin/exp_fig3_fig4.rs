//! EXP-F3 / EXP-F4 — regenerates the paper's Figures 3 and 4.
//!
//! Protocol (Section V-B of the paper): a corpus of community-detection QUBO
//! instances is solved by QHD first; the exact branch-and-bound solver (the
//! GUROBI stand-in) is then given exactly QHD's wall-clock time on each
//! instance. Instances are bucketed by whether the exact solver proved
//! optimality (Figure 4) or hit its time limit (Figure 3), and within each
//! bucket the solution quality of the two solvers is compared. Each row also
//! shows the modularity of both decoded solutions and of Louvain on the graph;
//! the rows and the quality-record verdict follow.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qhdcd-bench --release --bin exp_fig3_fig4 [-- --instances N] [--full]
//! ```
//!
//! `--full` uses the paper-scale corpus shape (more and larger instances); the
//! default is a smaller corpus that finishes in a few seconds.

use qhdcd_bench::corpus::{fig34_instance, Pipeline};
use qhdcd_bench::record::Recorder;
use qhdcd_bench::{arg_value, cd_qubo};
use qhdcd_core::CdError;
use qhdcd_qubo::SolveStatus;
use std::time::Duration;

/// The energies of QHD and of branch and bound on one instance, with the
/// QUBO's size.
struct InstanceOutcome {
    variables: usize,
    density: f64,
    qhd_objective: f64,
    exact_objective: f64,
}

fn main() -> Result<(), CdError> {
    let full = std::env::args().any(|a| a == "--full");
    let default_instances = if full { 120 } else { 40 };
    let instances: usize =
        arg_value("--instances").and_then(|v| v.parse().ok()).unwrap_or(default_instances);
    let mut recorder = Recorder::from_args();

    println!("# EXP-F3 / EXP-F4: QHD vs exact solver under equal wall-clock time");
    println!("# instances = {instances} (half small, half large stratum)");
    println!(
        "{:>5} {:>8} {:>9} {:>14} {:>14} {:>12} {:>8} {:>8} {:>8}",
        "id", "vars", "density", "qhd", "exact", "exact status", "qhd Q", "exact Q", "louvain"
    );

    let (mut optimal, mut timed_out) = (Vec::new(), Vec::new());
    for id in 0..instances {
        let instance = fig34_instance(id, instances, full)?;
        let Pipeline::Qubo(k) = instance.pipeline else { unreachable!("Fig 3/4 solves QUBOs") };
        let qubo = cd_qubo(&instance.planted.graph, k)?;
        let model = qubo.model();
        let [qhd, exact, louvain] = recorder.run_paper_methods(&instance, Duration::ZERO)?;
        let (qhd_objective, exact_objective) = (
            qhd.energy.expect("QUBO rows carry an energy"),
            exact.energy.expect("QUBO rows carry an energy"),
        );
        let status = exact.status.expect("QUBO rows carry a status");
        println!(
            "{:>5} {:>8} {:>9.3} {:>14.4} {:>14.4} {:>12} {:>8.4} {:>8.4} {:>8.4}",
            id,
            model.num_variables(),
            model.density(),
            qhd_objective,
            exact_objective,
            status,
            qhd.q,
            exact.q,
            louvain.q
        );
        let outcome = InstanceOutcome {
            variables: model.num_variables(),
            density: model.density(),
            qhd_objective,
            exact_objective,
        };
        if status == SolveStatus::Optimal.to_string() {
            optimal.push(outcome);
        } else {
            timed_out.push(outcome);
        }
    }

    summarize(&optimal, &timed_out);
    recorder.finish();
    Ok(())
}

fn summarize(optimal: &[InstanceOutcome], timed_out: &[InstanceOutcome]) {
    // QHD's energy above the exact solver's, relative to max(|exact|, 1).
    let excess = |o: &&InstanceOutcome| {
        (o.qhd_objective - o.exact_objective) / o.exact_objective.abs().max(1.0)
    };
    let count = |bucket: &[InstanceOutcome], hit: &dyn Fn(f64) -> bool| {
        let hits = bucket.iter().filter(|o| hit(excess(o))).count();
        format!("{hits}/{} = {:.1}%", bucket.len(), 100.0 * hits as f64 / bucket.len() as f64)
    };
    let buckets = [
        (true, "4 — instances where the exact solver proved optimality", optimal, "54", "0.157"),
        (
            false,
            "3 — instances where the exact solver hit its time limit",
            timed_out,
            "614",
            "0.028",
        ),
    ];
    for (proved, figure, bucket, paper_vars, paper_density) in buckets {
        println!("\n## Figure {figure}");
        if bucket.is_empty() {
            println!("(no instances in this bucket — change --instances or --full)");
            continue;
        }
        let mean = |f: fn(&InstanceOutcome) -> f64| {
            bucket.iter().map(f).sum::<f64>() / bucket.len() as f64
        };
        println!("instances            : {}", bucket.len());
        println!(
            "mean variables       : {:.1}   (paper: {paper_vars})",
            mean(|o| o.variables as f64)
        );
        println!("mean density         : {:.3} (paper: {paper_density})", mean(|o| o.density));
        if proved {
            let max_gap = bucket
                .iter()
                .map(|o| (o.qhd_objective - o.exact_objective) / o.exact_objective.abs().max(1e-9))
                .fold(0.0f64, f64::max);
            println!(
                "QHD matched optimum  : {}   (paper: 75.4%)",
                count(bucket, &|e| e.abs() <= 1e-6)
            );
            println!("max relative gap     : {:.2}%          (paper: ≤1.6%)", 100.0 * max_gap);
        } else {
            println!("QHD found better     : {}   (paper: 71.4%)", count(bucket, &|e| e < -1e-6));
            println!(
                "QHD matched          : {}   (paper: 17.2%)",
                count(bucket, &|e| e.abs() <= 1e-6)
            );
            println!("exact solver better  : {}", count(bucket, &|e| e > 1e-6));
        }
    }
}
