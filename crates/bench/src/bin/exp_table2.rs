//! EXP-T2 / EXP-F6 — regenerates the paper's Table II and Figure 6.
//!
//! The four large SNAP networks (facebook, lastfm_asia, musae_chameleon,
//! tvshow) are replaced by matched synthetic graphs (same node count, edge
//! count and density, planted communities). Each is solved `--repeats` times by
//! the multilevel QHD pipeline, by the multilevel pipeline with the exact
//! branch-and-bound base solver under a time limit (the GUROBI stand-in at this
//! scale), by portfolio and annealing multilevel and by Louvain. The mean ± std
//! modularity is reported per network, followed by the Figure 6
//! density-vs-advantage series, the rows and the quality-record verdict.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qhdcd-bench --release --bin exp_table2 [-- --repeats N] [--scale S]
//! ```
//!
//! `--scale S` (default 4) divides the node/edge counts to keep the default run
//! under a few minutes; pass `--scale 1` for the paper-size graphs.

use qhdcd_bench::corpus::{table2_instance, Method};
use qhdcd_bench::record::Recorder;
use qhdcd_bench::{arg_value, mean_std, TABLE2_ROWS};
use qhdcd_core::CdError;
use std::time::Duration;

fn main() -> Result<(), CdError> {
    let repeats: usize = arg_value("--repeats").and_then(|v| v.parse().ok()).unwrap_or(3);
    let scale: usize = arg_value("--scale").and_then(|v| v.parse().ok()).unwrap_or(4).max(1);
    let mut recorder = Recorder::from_args();

    println!("# EXP-T2 / EXP-F6: Table II large networks (synthetic, matched size/density), scale 1/{scale}");
    println!(
        "{:>16} {:>7} {:>8} {:>9} {:>17} {:>17} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "network",
        "nodes",
        "edges",
        "density%",
        "exact Q (±std)",
        "qhd Q (±std)",
        "portfolio",
        "annealing",
        "louvain",
        "paper ex",
        "paper qhd"
    );

    let mut fig6 = Vec::new();
    for (i, paper) in TABLE2_ROWS.iter().enumerate() {
        // Q per method: QHD, branch and bound, Louvain, portfolio, annealing.
        let mut scores = [(); 5].map(|()| Vec::new());
        let mut density = 0.0;
        let (mut n, mut m) = (0, 0);
        for r in 0..repeats {
            let instance = table2_instance(i, scale, r)?;
            density = instance.planted.graph.density();
            let rows = recorder.run_paper_methods(&instance, Duration::from_millis(200))?;
            let portfolio = recorder.run(&instance, Method::Portfolio)?;
            let annealing = recorder.run(&instance, Method::Annealing)?;
            for (score, row) in scores.iter_mut().zip(rows.iter().chain([&portfolio, &annealing])) {
                score.push(row.q);
            }
            (n, m) = (rows[0].n, rows[0].m);
        }
        let [(qhd, qhd_std), (exact, exact_std), (louvain, _), (portfolio, _), (annealing, _)] =
            scores.map(|s| mean_std(&s));
        let (name, gurobi_paper, qhd_paper) = (paper.name, paper.paper_gurobi, paper.paper_qhd);
        println!(
            "{name:>16} {n:>7} {m:>8} {:>9.2} {exact:>9.4} ±{exact_std:>5.4} {qhd:>9.4} ±{qhd_std:>5.4} \
             {portfolio:>9.4} {annealing:>9.4} {louvain:>9.4} {gurobi_paper:>9.4} {qhd_paper:>9.4}",
            100.0 * density
        );
        let advantage = |qhd: f64, exact: f64| 100.0 * (qhd - exact) / exact.abs().max(1e-9);
        fig6.push((name, density, advantage(qhd, exact), advantage(qhd_paper, gurobi_paper)));
    }

    println!();
    println!("## Figure 6 — modularity advantage of QHD vs network density");
    println!("{:>16} {:>10} {:>14} {:>14}", "network", "density", "advantage %", "paper %");
    fig6.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("densities are finite"));
    for (name, density, advantage, paper_advantage) in fig6 {
        println!("{name:>16} {density:>10.4} {advantage:>14.2} {paper_advantage:>14.2}");
    }
    recorder.finish();
    Ok(())
}
