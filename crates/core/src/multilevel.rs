//! The multilevel community-detection pipeline (Algorithm 2 of the paper).
//!
//! 1. **Coarsening** — heavy-edge matching (Eq. 6) until at most `θ` nodes remain.
//! 2. **Initial partition** — the direct QUBO + solver pipeline on the coarsest graph.
//! 3. **Uncoarsening** — project the communities back level by level.
//! 4. **Refinement** — modularity-gain local moves at every level.
//!
//! This is the scalable path for graphs beyond ~1 000 nodes (Tables II and the
//! large stratum of the solver comparison).

use crate::coarsen::{coarsen_hierarchy, CoarsenConfig};
use crate::direct::{self, DirectConfig};
use crate::formulation::FormulationConfig;
use crate::refine::{refine_partition, RefineConfig};
use crate::CdError;
use qhdcd_graph::{modularity, Graph, Partition};
use qhdcd_qubo::{Budget, Completion, QuboSolver};
use std::time::{Duration, Instant};

/// Configuration of the multilevel pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelConfig {
    /// Number of communities `k` used for the coarsest-level QUBO.
    pub num_communities: usize,
    /// Coarsening parameters (`α`, `β`, threshold `θ`, level cap).
    pub coarsen: CoarsenConfig,
    /// QUBO encoding parameters for the coarsest graph (the community count is
    /// overridden by [`MultilevelConfig::num_communities`]).
    pub formulation: FormulationConfig,
    /// Refinement parameters applied at every level during uncoarsening.
    pub refine: RefineConfig,
    /// Also run a final refinement pass on the original graph, unless the
    /// uncoarsening refine of the original graph (level 0's, or the coarsest
    /// graph's when no level was built) converged: its last pass applied no
    /// move, so the final pass would only re-price the same partition.
    ///
    /// The skip is output-identical whenever that re-pricing is: the final
    /// pass sums `Σtot` afresh, where the converged refine maintained it move
    /// by move. With integer edge weights both are exact sums, so the skipped
    /// pass provably moves nothing. With real weights it could differ only on
    /// a gain within rounding of the move tolerance
    /// ([`qhdcd_graph::modularity::MOVE_EPSILON`]).
    pub final_refine: bool,
    /// Optional warm-start partition of the *original* graph. It is pushed
    /// through the coarsening hierarchy (each super-node inherits the label of
    /// its lowest-index constituent) and handed to the base solver via
    /// [`qhdcd_qubo::QuboSolver::solve_with_hint`]; solvers without warm-start
    /// support ignore it.
    pub hint: Option<Partition>,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            num_communities: 8,
            coarsen: CoarsenConfig::default(),
            formulation: FormulationConfig::default(),
            refine: RefineConfig::default(),
            final_refine: true,
            hint: None,
        }
    }
}

impl MultilevelConfig {
    /// Convenience constructor fixing only the number of communities.
    pub fn with_communities(num_communities: usize) -> Self {
        MultilevelConfig { num_communities, ..MultilevelConfig::default() }
    }

    /// Sets the quality function on both the coarsest-level formulation and
    /// the per-level refinement, keeping the base solve and the uncoarsening
    /// polish in lock-step. Both quality functions are preserved exactly by
    /// coarsening: super-node degrees are community degree sums (modularity),
    /// and super-node weights carry the original node counts through
    /// aggregation, so coarse-level CPM null terms price `γ n (n − 1)/2`
    /// exactly (the former counts-as-one approximation is gone — see
    /// [`qhdcd_graph::QualityFunction::gain_weighted`]).
    pub fn with_quality(mut self, quality: qhdcd_graph::QualityFunction) -> Self {
        self.formulation.quality = quality;
        self.refine.quality = quality;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::InvalidConfig`] if any sub-configuration is invalid.
    pub fn validate(&self) -> Result<(), CdError> {
        if self.num_communities == 0 {
            return Err(CdError::InvalidConfig { reason: "num_communities must be > 0".into() });
        }
        self.coarsen.validate()?;
        self.formulation.validate()?;
        Ok(())
    }
}

/// Outcome of the multilevel pipeline.
#[derive(Debug, Clone)]
pub struct MultilevelOutcome {
    /// The detected partition of the original graph (renumbered).
    pub partition: Partition,
    /// Quality of [`MultilevelOutcome::partition`] under the configured
    /// [`FormulationConfig::quality`] (modularity by default), always evaluated
    /// on the original graph.
    pub modularity: f64,
    /// Number of coarsening levels that were built.
    pub levels: usize,
    /// Number of nodes of the coarsest graph that was solved directly.
    pub coarsest_nodes: usize,
    /// Status reported by the base QUBO solver.
    pub solver_status: qhdcd_qubo::SolveStatus,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Wall-clock time spent inside the base QUBO solver only.
    pub solver_time: Duration,
    /// Whether the whole pipeline ran to completion or was cut short by an
    /// anytime [`Budget`] (see [`detect_bounded`]): truncated when the base
    /// solve was truncated or any per-level refinement pass was skipped. A
    /// truncated outcome is still a valid projected partition.
    pub completion: Completion,
}

/// Runs the multilevel pipeline on `graph` with the given base `solver`
/// (Algorithm 2).
///
/// # Errors
///
/// Propagates [`CdError`] from coarsening, the base solve or refinement.
///
/// # Example
///
/// ```
/// use qhdcd_core::multilevel::{detect, MultilevelConfig};
/// use qhdcd_graph::generators;
/// use qhdcd_solvers::SimulatedAnnealing;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let pg = generators::ring_of_cliques(30, 10)?;
/// let config = MultilevelConfig::with_communities(30);
/// let out = detect(&pg.graph, &SimulatedAnnealing::default(), &config)?;
/// assert!(out.modularity > 0.8);
/// # Ok(())
/// # }
/// ```
pub fn detect<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    config: &MultilevelConfig,
) -> Result<MultilevelOutcome, CdError> {
    detect_bounded(graph, solver, config, &Budget::unlimited())
}

/// Runs the multilevel pipeline under an anytime [`Budget`].
///
/// The budget flows into the base solve (via
/// [`direct::detect_bounded`]) and is re-checked at every level boundary of
/// the uncoarsening phase: once exhausted, the remaining refinement passes are
/// skipped and the partition is only *projected* down to the original graph —
/// projection is cheap and always required to return a valid partition.
/// [`MultilevelOutcome::completion`] records whether anything was skipped; a
/// final refine left out because the original graph's refine converged (see
/// [`MultilevelConfig::final_refine`]) is not a truncation.
///
/// # Errors
///
/// Propagates [`CdError`] from coarsening, the base solve or refinement;
/// budget expiry is not an error.
pub fn detect_bounded<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    config: &MultilevelConfig,
    budget: &Budget,
) -> Result<MultilevelOutcome, CdError> {
    config.validate()?;
    let start = Instant::now();

    // --- Coarsening phase.
    let hierarchy = coarsen_hierarchy(graph, &config.coarsen)?;
    let coarsest_owned;
    let coarsest: &Graph = match hierarchy.coarsest() {
        Some(g) => g,
        None => {
            coarsest_owned = graph.clone();
            &coarsest_owned
        }
    };
    let coarsest_nodes = coarsest.num_nodes();

    // --- Initial partition on the coarsest graph via the direct QUBO pipeline.
    let mut formulation = config.formulation.clone();
    formulation.num_communities = config.num_communities.min(coarsest_nodes.max(1));
    // Push the warm-start hint (a partition of the original graph) up the
    // hierarchy: each super-node inherits the label of its lowest-index
    // constituent, a deterministic representative choice.
    let coarse_hint = match &config.hint {
        Some(hint) => {
            hint.check_matches(graph).map_err(CdError::Graph)?;
            let mut labels = hint.labels().to_vec();
            for level in &hierarchy.levels {
                let mut coarse = vec![usize::MAX; level.graph.num_nodes()];
                for (fine, &c) in level.coarse_of.iter().enumerate() {
                    if coarse[c] == usize::MAX {
                        coarse[c] = labels[fine];
                    }
                }
                labels = coarse;
            }
            Some(Partition::from_labels(labels).map_err(CdError::Graph)?)
        }
        None => None,
    };
    let direct_config = DirectConfig {
        formulation,
        refine: false,
        refine_config: config.refine,
        hint: coarse_hint,
    };
    let base = direct::detect_bounded(coarsest, solver, &direct_config, budget)?;
    let solver_time = base.solver_time;
    let solver_status = base.solver_status;
    let mut skipped_refinement = false;

    // --- Uncoarsening with per-level refinement. The budget is observed at
    // every level boundary: refinement is optional polish, projection is not.
    let mut partition = base.partition;
    // Refines `partition` on `g` unless the budget is exhausted; returns
    // whether a refine ran and converged.
    let mut refine = |g: &Graph, partition: &mut Partition| -> Result<bool, CdError> {
        if budget.is_exhausted() {
            skipped_refinement = true;
            return Ok(false);
        }
        let out = refine_partition(g, partition, &config.refine)?;
        *partition = out.partition;
        Ok(out.converged)
    };
    // Refine on the coarsest graph itself first.
    let mut converged = refine(coarsest, &mut partition)?;
    for level_index in (0..hierarchy.levels.len()).rev() {
        let level = &hierarchy.levels[level_index];
        // Project one level down: the finer graph is the previous level's graph
        // (or the original graph at the bottom).
        partition = partition.project(&level.coarse_of);
        let finer_graph: &Graph =
            if level_index == 0 { graph } else { &hierarchy.levels[level_index - 1].graph };
        converged = refine(finer_graph, &mut partition)?;
    }
    // `converged` now describes the refine of the original graph; once it has
    // converged, the final pass would only repeat it.
    if config.final_refine && !converged {
        refine(graph, &mut partition)?;
    }
    let completion = if skipped_refinement && base.completion.is_full() {
        // The base solve finished but uncoarsening was cut short; there is no
        // restart structure to count at this level.
        Completion::Truncated { completed_restarts: 0 }
    } else {
        base.completion
    };
    let q = modularity::quality(graph, &partition, config.formulation.quality);
    Ok(MultilevelOutcome {
        partition,
        modularity: q,
        levels: hierarchy.num_levels(),
        coarsest_nodes,
        solver_status,
        elapsed: start.elapsed(),
        solver_time,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, metrics};
    use qhdcd_qhd::QhdSolver;
    use qhdcd_solvers::SimulatedAnnealing;

    #[test]
    fn config_validation() {
        assert!(MultilevelConfig::default().validate().is_ok());
        assert!(MultilevelConfig::with_communities(0).validate().is_err());
        let mut bad = MultilevelConfig::default();
        bad.coarsen.threshold = 0;
        assert!(bad.validate().is_err());
        assert!(detect(
            &generators::karate_club(),
            &SimulatedAnnealing::default(),
            &MultilevelConfig::with_communities(0)
        )
        .is_err());
    }

    #[test]
    fn recovers_planted_communities_on_a_medium_graph() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 400,
            num_communities: 8,
            p_in: 0.2,
            p_out: 0.005,
            seed: 7,
        })
        .unwrap();
        let config = MultilevelConfig {
            num_communities: 8,
            coarsen: CoarsenConfig { threshold: 60, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        };
        let out = detect(&pg.graph, &SimulatedAnnealing::default().with_seed(2), &config).unwrap();
        assert!(out.levels >= 1);
        assert!(out.coarsest_nodes <= 60);
        let nmi = metrics::normalized_mutual_information(&out.partition, &pg.ground_truth);
        assert!(nmi > 0.8, "nmi={nmi}");
        let q_truth = qhdcd_graph::modularity::modularity(&pg.graph, &pg.ground_truth);
        assert!(out.modularity > 0.9 * q_truth, "q={} truth={q_truth}", out.modularity);
    }

    #[test]
    fn works_with_the_qhd_solver_as_base() {
        let pg = generators::ring_of_cliques(20, 8).unwrap();
        let solver = QhdSolver::builder().samples(3).steps(60).seed(5).build();
        let config = MultilevelConfig {
            num_communities: 20,
            coarsen: CoarsenConfig { threshold: 40, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        };
        let out = detect(&pg.graph, &solver, &config).unwrap();
        assert!(out.modularity > 0.8, "q={}", out.modularity);
        assert!(out.elapsed >= out.solver_time);
    }

    #[test]
    fn small_graphs_fall_back_to_the_direct_path() {
        // Karate (34 nodes) is below the default threshold of 200, so no
        // coarsening levels are built and the pipeline is effectively direct.
        let g = generators::karate_club();
        let out = detect(
            &g,
            &SimulatedAnnealing::default().with_seed(3),
            &MultilevelConfig::with_communities(4),
        )
        .unwrap();
        assert_eq!(out.levels, 0);
        assert_eq!(out.coarsest_nodes, 34);
        assert!(out.modularity > 0.35, "q={}", out.modularity);
    }

    #[test]
    fn bounded_detection_projects_to_a_valid_partition_when_exhausted() {
        use qhdcd_qubo::CancelToken;
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 300,
            num_communities: 6,
            p_in: 0.2,
            p_out: 0.01,
            seed: 3,
        })
        .unwrap();
        let config = MultilevelConfig {
            num_communities: 6,
            coarsen: CoarsenConfig { threshold: 50, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        };
        let solver = SimulatedAnnealing::default().with_seed(2);
        let full = detect_bounded(&pg.graph, &solver, &config, &Budget::unlimited()).unwrap();
        assert!(full.completion.is_full());
        let cancel = CancelToken::new();
        cancel.cancel();
        let out =
            detect_bounded(&pg.graph, &solver, &config, &Budget::unlimited().cancelled_by(&cancel))
                .unwrap();
        // Refinement is skipped but the coarse solution is still projected all
        // the way down to a full partition of the original graph.
        assert!(!out.completion.is_full());
        assert_eq!(out.partition.labels().len(), 300);
    }

    #[test]
    fn cpm_multilevel_threads_the_quality_through_the_hierarchy() {
        // Force real coarsening levels so the CPM quality flows through the
        // base solve, the per-level refinement and the final exact polish.
        // Coarse-level CPM gains are exact now that super-node counts ride
        // the node weights through aggregation, so clique recovery on a ring
        // of cliques should be essentially perfect; the contract under test
        // is that the reported quality is the exact CPM value of the returned
        // partition on the original graph and the structure matches the
        // cliques.
        let pg = generators::ring_of_cliques(12, 6).unwrap();
        let quality = qhdcd_graph::QualityFunction::cpm(0.5);
        let config = MultilevelConfig {
            num_communities: 12,
            coarsen: CoarsenConfig { threshold: 30, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        }
        .with_quality(quality);
        let out = detect(&pg.graph, &SimulatedAnnealing::default().with_seed(4), &config).unwrap();
        assert!(out.levels >= 1);
        let nmi = metrics::normalized_mutual_information(&out.partition, &pg.ground_truth);
        assert!(nmi > 0.8, "nmi={nmi}");
        let recomputed = qhdcd_graph::modularity::quality(&pg.graph, &out.partition, quality);
        assert_eq!(out.modularity.to_bits(), recomputed.to_bits());
    }

    #[test]
    fn multilevel_matches_direct_quality_on_small_graphs() {
        let pg = generators::ring_of_cliques(5, 6).unwrap();
        let solver = SimulatedAnnealing::default().with_seed(9);
        let direct_out = crate::direct::detect(
            &pg.graph,
            &solver,
            &crate::direct::DirectConfig::with_communities(5),
        )
        .unwrap();
        let multi_out = detect(&pg.graph, &solver, &MultilevelConfig::with_communities(5)).unwrap();
        assert!((multi_out.modularity - direct_out.modularity).abs() < 0.05);
    }
}
