//! Direct QUBO community detection for small and medium graphs.
//!
//! The direct pipeline (Section III-B.1 of the paper) builds the full
//! `n·k`-variable QUBO of Algorithm 1, hands it to a [`QuboSolver`] — QHD by
//! default, or the branch-and-bound baseline for comparison — decodes the best
//! solution into a [`Partition`] and optionally polishes it with
//! modularity-gain refinement. The paper recommends this path for graphs of up
//! to roughly 1 000 nodes; larger graphs should use
//! [`multilevel`](crate::multilevel).

use crate::formulation::{build_qubo, FormulationConfig};
use crate::refine::{refine_partition, RefineConfig};
use crate::CdError;
use qhdcd_graph::{modularity, Graph, Partition, QualityFunction};
use qhdcd_qubo::{Budget, Completion, QuboSolver};
use std::time::{Duration, Instant};

/// Configuration of the direct pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectConfig {
    /// The QUBO encoding parameters (number of communities, penalty weights).
    pub formulation: FormulationConfig,
    /// Whether to run modularity-gain refinement on the decoded partition.
    pub refine: bool,
    /// Refinement parameters (ignored when `refine` is `false`).
    pub refine_config: RefineConfig,
    /// Optional warm-start partition. When set, it is one-hot encoded and
    /// passed to the solver as the hint of [`QuboSolver::solve_bounded`];
    /// solvers without warm-start support ignore it. Labels beyond the formulation's
    /// community count are folded modulo `k` by the encoder.
    pub hint: Option<Partition>,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            formulation: FormulationConfig::default(),
            refine: true,
            refine_config: RefineConfig::default(),
            hint: None,
        }
    }
}

impl DirectConfig {
    /// Convenience constructor fixing only the number of communities.
    pub fn with_communities(num_communities: usize) -> Self {
        DirectConfig {
            formulation: FormulationConfig::with_communities(num_communities),
            ..DirectConfig::default()
        }
    }

    /// Sets the quality function on both the formulation and the refinement
    /// configuration, keeping the solver objective and the refiner gain in
    /// lock-step.
    pub fn with_quality(mut self, quality: QualityFunction) -> Self {
        self.formulation.quality = quality;
        self.refine_config.quality = quality;
        self
    }
}

/// Outcome of the direct pipeline.
#[derive(Debug, Clone)]
pub struct DirectOutcome {
    /// The detected partition (renumbered).
    pub partition: Partition,
    /// Quality of [`DirectOutcome::partition`] under the configured
    /// [`FormulationConfig::quality`] (modularity by default).
    pub modularity: f64,
    /// Energy of the best QUBO solution before decoding/refinement.
    pub qubo_objective: f64,
    /// Status reported by the QUBO solver.
    pub solver_status: qhdcd_qubo::SolveStatus,
    /// Total wall-clock time (QUBO build + solve + decode + refine).
    pub elapsed: Duration,
    /// Wall-clock time spent inside the QUBO solver only.
    pub solver_time: Duration,
    /// Whether the solver ran its full schedule or was cut short by an anytime
    /// [`Budget`] (see [`detect_bounded`]); a truncated outcome is still a
    /// valid best-so-far partition.
    pub completion: Completion,
}

/// Runs the direct pipeline on `graph` with the given `solver`.
///
/// # Errors
///
/// Propagates [`CdError`] from the QUBO construction, the solver or decoding.
///
/// # Example
///
/// ```
/// use qhdcd_core::direct::{detect, DirectConfig};
/// use qhdcd_graph::generators;
/// use qhdcd_solvers::{PortfolioSolver, Strategy};
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let graph = generators::karate_club();
/// // Simulated annealing: a portfolio whose one member anneals, 4 restarts.
/// let annealing = Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 };
/// let solver = PortfolioSolver::default().with_strategies(vec![annealing]).with_restarts(4);
/// let outcome = detect(&graph, &solver, &DirectConfig::with_communities(4))?;
/// assert!(outcome.modularity > 0.3);
/// # Ok(())
/// # }
/// ```
pub fn detect<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    config: &DirectConfig,
) -> Result<DirectOutcome, CdError> {
    detect_bounded(graph, solver, config, &Budget::unlimited())
}

/// Runs the direct pipeline under an anytime [`Budget`].
///
/// The budget is handed to the solver through [`QuboSolver::solve_bounded`];
/// on expiry the solver returns its best-so-far incumbent, which is decoded
/// (and refined, when enabled) exactly like a full solution —
/// [`DirectOutcome::completion`] records the truncation.
///
/// # Errors
///
/// Propagates [`CdError`] from the QUBO construction, the solver or decoding;
/// budget expiry is not an error.
pub fn detect_bounded<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    config: &DirectConfig,
    budget: &Budget,
) -> Result<DirectOutcome, CdError> {
    let start = Instant::now();
    let qubo = build_qubo(graph, &config.formulation)?;
    let solve_start = Instant::now();
    let warm = match &config.hint {
        Some(hint) => Some(qubo.encode(hint)?),
        None => None,
    };
    let report = solver.solve_bounded(qubo.model(), warm.as_deref(), budget)?;
    let solver_time = solve_start.elapsed();
    let mut partition = qubo.decode(graph, &report.solution)?;
    if config.refine {
        partition = refine_partition(graph, &partition, &config.refine_config)?.partition;
    }
    let q = modularity::quality(graph, &partition, config.formulation.quality);
    Ok(DirectOutcome {
        partition,
        modularity: q,
        qubo_objective: report.objective,
        solver_status: report.status,
        elapsed: start.elapsed(),
        solver_time,
        completion: report.completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, metrics};
    use qhdcd_qhd::QhdSolver;
    use qhdcd_solvers::{BranchAndBound, PortfolioSolver, Strategy};

    /// Annealing-only portfolio: 4 restarts of 200 sweeps on one worker.
    fn annealing(seed: u64) -> PortfolioSolver {
        PortfolioSolver::default()
            .with_strategies(vec![Strategy::Annealing {
                initial_temperature: 2.0,
                final_temperature: 0.01,
            }])
            .with_restarts(4)
            .with_threads(1)
            .with_seed(seed)
    }

    #[test]
    fn recovers_planted_communities_with_simulated_annealing() {
        let pg = generators::ring_of_cliques(4, 6).unwrap();
        // Seed chosen to recover the planted split under the per-restart
        // stream seeding the portfolio runtime introduced (the annealer is a
        // heuristic; some seeds land in a merged local optimum).
        let outcome = detect(&pg.graph, &annealing(2), &DirectConfig::with_communities(4)).unwrap();
        let nmi = metrics::normalized_mutual_information(&outcome.partition, &pg.ground_truth);
        assert!(nmi > 0.95, "nmi={nmi}");
        assert!(outcome.modularity > 0.5);
    }

    #[test]
    fn recovers_planted_communities_with_qhd() {
        let pg = generators::ring_of_cliques(3, 5).unwrap();
        let solver = QhdSolver::builder().samples(4).steps(80).seed(1).build();
        let outcome = detect(&pg.graph, &solver, &DirectConfig::with_communities(3)).unwrap();
        let nmi = metrics::normalized_mutual_information(&outcome.partition, &pg.ground_truth);
        assert!(nmi > 0.9, "nmi={nmi}");
    }

    #[test]
    fn karate_club_modularity_is_competitive() {
        let g = generators::karate_club();
        let outcome = detect(&g, &annealing(11), &DirectConfig::with_communities(4)).unwrap();
        // The best known modularity for karate is ≈ 0.4198.
        assert!(outcome.modularity > 0.38, "modularity={}", outcome.modularity);
        assert!(outcome.elapsed >= outcome.solver_time);
    }

    #[test]
    fn refinement_can_only_help() {
        let g = generators::karate_club();
        let mut solver = annealing(5);
        solver.config.sweeps = 30;
        let raw = detect(
            &g,
            &solver,
            &DirectConfig { refine: false, ..DirectConfig::with_communities(4) },
        )
        .unwrap();
        let refined = detect(
            &g,
            &solver,
            &DirectConfig { refine: true, ..DirectConfig::with_communities(4) },
        )
        .unwrap();
        assert!(refined.modularity >= raw.modularity - 1e-12);
    }

    #[test]
    fn branch_and_bound_reports_its_status() {
        let pg = generators::ring_of_cliques(2, 4).unwrap();
        let outcome = detect(
            &pg.graph,
            &BranchAndBound::with_time_limit(std::time::Duration::from_millis(200)),
            &DirectConfig::with_communities(2),
        )
        .unwrap();
        assert!(matches!(
            outcome.solver_status,
            qhdcd_qubo::SolveStatus::Optimal | qhdcd_qubo::SolveStatus::TimeLimit
        ));
        assert!(outcome.modularity > 0.3);
    }

    #[test]
    fn bounded_detection_reports_truncation_and_still_partitions() {
        use qhdcd_qubo::CancelToken;
        let g = generators::karate_club();
        let full = detect_bounded(
            &g,
            &annealing(11),
            &DirectConfig::with_communities(4),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(full.completion.is_full());
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = detect_bounded(
            &g,
            &annealing(11),
            &DirectConfig::with_communities(4),
            &Budget::unlimited().cancelled_by(&cancel),
        )
        .unwrap();
        // The best-effort incumbent still decodes into a valid partition.
        assert!(!out.completion.is_full());
        assert_eq!(out.partition.labels().len(), 34);
    }

    #[test]
    fn cpm_direct_pipeline_recovers_planted_communities() {
        // End-to-end under CPM: the solver optimizes the CPM-encoded QUBO and
        // the refiner polishes with CPM gains; the cliques are the γ=0.5
        // optimum of a ring of cliques.
        let pg = generators::ring_of_cliques(3, 5).unwrap();
        let config =
            DirectConfig::with_communities(3).with_quality(qhdcd_graph::QualityFunction::cpm(0.5));
        let outcome = detect(&pg.graph, &annealing(2), &config).unwrap();
        let nmi = metrics::normalized_mutual_information(&outcome.partition, &pg.ground_truth);
        assert!(nmi > 0.9, "nmi={nmi}");
        // Each clique: e = 10, pairs = 10 ⇒ 10 − 5 = 5 per community.
        assert!((outcome.modularity - 15.0).abs() < 1e-9, "q={}", outcome.modularity);
    }

    #[test]
    fn invalid_formulation_is_rejected() {
        let g = generators::karate_club();
        let config = DirectConfig::with_communities(0);
        assert!(detect(&g, &annealing(0), &config).is_err());
    }
}
