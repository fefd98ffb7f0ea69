//! EXP-T1 / EXP-F5 — regenerates the paper's Table I and Figure 5.
//!
//! Ten small/medium networks (52–1 034 nodes) matched to the paper's rows are
//! synthesised; each is solved by the direct QUBO + QHD pipeline, by the
//! direct QUBO + branch-and-bound pipeline (the GUROBI stand-in) given the same
//! wall-clock time QHD used, and by Louvain. Modularity scores and the time
//! ratio are printed per instance, followed by the Figure 5 summary (win rate,
//! mean modularity difference, fraction of exact-solver time used), the rows
//! and the quality-record verdict.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qhdcd-bench --release --bin exp_table1 [-- --max-nodes N]
//! ```
//!
//! `--max-nodes N` skips rows larger than `N` nodes (useful for quick runs).

use qhdcd_bench::corpus::table1_instance;
use qhdcd_bench::record::Recorder;
use qhdcd_bench::{arg_value, mean_std, TABLE1_ROWS};
use qhdcd_core::CdError;
use std::time::Duration;

fn main() -> Result<(), CdError> {
    let max_nodes: usize =
        arg_value("--max-nodes").and_then(|v| v.parse().ok()).unwrap_or(usize::MAX);
    let mut recorder = Recorder::from_args();

    println!("# EXP-T1 / EXP-F5: Table I small/medium networks, QHD vs exact solver");
    println!(
        "{:>6} {:>6} {:>8} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "inst",
        "nodes",
        "edges",
        "density%",
        "exact Q",
        "qhd Q",
        "louvain Q",
        "paper ex",
        "paper qhd",
        "t(q)/t(e)"
    );

    let mut diffs = Vec::new();
    let mut time_ratios = Vec::new();
    for (i, paper) in TABLE1_ROWS.iter().enumerate() {
        if paper.nodes > max_nodes {
            continue;
        }
        let instance = table1_instance(i)?;
        let [qhd, exact, louvain] = recorder.run_paper_methods(&instance, Duration::ZERO)?;
        let time_ratio = qhd.solver_ms / exact.solver_ms.max(1e-6);
        let (name, gurobi_paper, qhd_paper) = (paper.name, paper.paper_gurobi, paper.paper_qhd);
        println!(
            "{name:>6} {:>6} {:>8} {:>9.2} {:>10.4} {:>10.4} {:>10.4} {gurobi_paper:>10.4} \
             {qhd_paper:>10.4} {time_ratio:>9.2}",
            qhd.n,
            qhd.m,
            100.0 * instance.planted.graph.density(),
            exact.q,
            qhd.q,
            louvain.q,
        );
        diffs.push(qhd.q - exact.q);
        time_ratios.push(time_ratio);
    }

    let rows_run = diffs.len();
    let at_least = |diffs: &[f64]| diffs.iter().filter(|&&d| d >= -1e-6).count();
    let paper_diffs: Vec<f64> = TABLE1_ROWS.iter().map(|r| r.paper_qhd - r.paper_gurobi).collect();
    let paper_at_least = at_least(&paper_diffs);
    println!();
    println!("## Figure 5 summary");
    println!("rows evaluated              : {rows_run}/{}", TABLE1_ROWS.len());
    println!(
        "QHD modularity ≥ exact on   : {}/{rows_run} = {:.0}%   (paper: {paper_at_least}/{} = {:.0}%)",
        at_least(&diffs),
        100.0 * at_least(&diffs) as f64 / rows_run.max(1) as f64,
        paper_diffs.len(),
        100.0 * paper_at_least as f64 / paper_diffs.len() as f64
    );
    println!(
        "mean modularity difference  : {:+.4}      (paper: {:+.4})",
        mean_std(&diffs).0,
        mean_std(&paper_diffs).0
    );
    println!(
        "QHD / exact solver time     : {:.2}        (paper: 0.20 with four GPUs)",
        mean_std(&time_ratios).0
    );
    recorder.finish();
    Ok(())
}
