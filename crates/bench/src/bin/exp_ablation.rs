//! EXP-ABL — the three ablations: the QUBO penalty weights (λ_A multiplier
//! and balance λ_S, direct pipeline), the multilevel pipeline (coarsening
//! threshold θ and the Eq. 6 weights α, β) and the QHD solver's own settings
//! (steps, samples, grid resolution, evolution time, on one CD-QUBO).
//!
//! Each setting is one instance, solved by QHD, by branch and bound at QHD's
//! wall time and by Louvain. The table shows their modularity, QHD's QUBO
//! energy where the pipeline has one on the whole graph, and QHD's solver
//! time; the rows and the quality-record verdict follow.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qhdcd-bench --release --bin exp_ablation
//! ```

use qhdcd_bench::corpus::ablation_instances;
use qhdcd_bench::record::Recorder;
use qhdcd_core::CdError;
use std::time::Duration;

fn main() -> Result<(), CdError> {
    let mut recorder = Recorder::from_args();
    println!("# EXP-ABL: penalty weights, multilevel settings and QHD schedule");
    println!(
        "{:>44} {:>8} {:>14} {:>8} {:>8} {:>9}",
        "setting", "qhd Q", "qhd energy", "exact Q", "louvain", "qhd ms"
    );
    for instance in ablation_instances()? {
        let [qhd, exact, louvain] = recorder.run_paper_methods(&instance, Duration::ZERO)?;
        let energy = qhd.energy.map_or("-".to_string(), |e| format!("{e:.3}"));
        println!(
            "{:>44} {:>8.4} {:>14} {:>8.4} {:>8.4} {:>9.1}",
            instance.name, qhd.q, energy, exact.q, louvain.q, qhd.solver_ms
        );
    }
    recorder.finish();
    Ok(())
}
