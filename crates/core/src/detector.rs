//! A one-stop front end over the community-detection pipelines.
//!
//! [`CommunityDetector`] selects a [`Method`] (QHD direct, QHD multilevel, the
//! branch-and-bound and restart-portfolio classical substitutes, or the
//! Louvain baseline), carries the shared knobs (number of communities, seed,
//! time limit) and returns a uniform [`DetectionResult`]. Every QUBO method
//! runs the one pipeline, [`multilevel::detect_bounded`]; a method chooses
//! only its base solver, its coarsening threshold θ (`usize::MAX` for the
//! direct methods, so no level is built) and whether the time limit bounds
//! the solver or the whole pipeline.

use crate::formulation::FormulationConfig;
use crate::multilevel::{self, MultilevelConfig};
use crate::{louvain, CdError};
use qhdcd_graph::{Graph, Partition, QualityFunction};
use qhdcd_qhd::QhdSolver;
use qhdcd_qubo::{Budget, QuboSolver};
use qhdcd_solvers::{BranchAndBound, MoveSet, PortfolioConfig, PortfolioSolver, Strategy};
use std::time::{Duration, Instant};

/// The detection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The QHD solver on the whole graph's QUBO (Algorithm 1), then local
    /// refinement, for small/medium graphs: the multilevel pipeline with
    /// `θ = usize::MAX`, so no coarsening level is built.
    QhdDirect,
    /// Multilevel pipeline with the QHD solver on the coarsest graph.
    QhdMultilevel,
    /// Branch and bound (the GUROBI stand-in) on the whole graph's QUBO, with
    /// no coarsening level, like [`Method::QhdDirect`].
    BranchAndBoundDirect,
    /// Multilevel pipeline with simulated annealing on the coarsest graph: a
    /// restart portfolio whose only member is annealing (4 restarts of 200
    /// sweeps on one worker), solved without the warm-start hint.
    AnnealingMultilevel,
    /// Multilevel pipeline with the parallel restart portfolio
    /// (greedy + annealing + tabu over the deterministic runtime, pair-aware
    /// moves for the one-hot encoding) on the coarsest graph.
    PortfolioMultilevel,
    /// Classical Louvain baseline (no QUBO involved).
    Louvain,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Method::QhdDirect => "qhd-direct",
            Method::QhdMultilevel => "qhd-multilevel",
            Method::BranchAndBoundDirect => "branch-and-bound-direct",
            Method::AnnealingMultilevel => "annealing-multilevel",
            Method::PortfolioMultilevel => "portfolio-multilevel",
            Method::Louvain => "louvain",
        };
        f.write_str(s)
    }
}

/// Result of a [`CommunityDetector::detect`] call.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// The detected partition (renumbered).
    pub partition: Partition,
    /// Quality of [`DetectionResult::partition`] under the detector's
    /// configured quality function (γ=1 modularity unless changed with
    /// [`CommunityDetector::with_quality`]).
    pub modularity: f64,
    /// Number of communities found.
    pub num_communities: usize,
    /// Energy of the base solver's best solution of the coarsest graph's
    /// QUBO ([`multilevel::MultilevelOutcome::qubo_objective`]), before
    /// decoding, refinement and the floor of
    /// [`CommunityDetector::detect_with_hint`]; `None` for
    /// [`Method::Louvain`], which solves no QUBO.
    pub qubo_objective: Option<f64>,
    /// The method that produced the result.
    pub method: Method,
    /// Total wall-clock time of the detection.
    pub elapsed: Duration,
}

/// High-level community detector with a builder-style configuration.
///
/// # Example
///
/// ```
/// use qhdcd_core::{CommunityDetector, Method};
/// use qhdcd_graph::generators;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let graph = generators::karate_club();
/// let result = CommunityDetector::new(Method::Louvain).detect(&graph)?;
/// assert!(result.modularity > 0.38);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CommunityDetector {
    method: Method,
    num_communities: usize,
    seed: u64,
    time_limit: Option<Duration>,
    qhd_samples: usize,
    qhd_steps: usize,
    coarsen_threshold: usize,
    quality: QualityFunction,
}

impl CommunityDetector {
    /// Creates a detector for the given method with default parameters.
    pub fn new(method: Method) -> Self {
        CommunityDetector {
            method,
            num_communities: 4,
            seed: 0,
            time_limit: None,
            qhd_samples: 8,
            qhd_steps: 120,
            coarsen_threshold: 200,
            quality: QualityFunction::default(),
        }
    }

    /// Shorthand for the paper's recommended configuration: QHD with the
    /// multilevel pipeline (falls back to direct behaviour on small graphs,
    /// because small graphs are never coarsened).
    pub fn qhd() -> Self {
        CommunityDetector::new(Method::QhdMultilevel)
    }

    /// The recommended *classical fallback* configuration: the multilevel
    /// pipeline with the parallel restart portfolio on the coarsest graph.
    ///
    /// This is the configuration used wherever the QHD simulator is not
    /// affordable — the streaming subsystem's full re-detects and any
    /// time-critical serving path. The portfolio holds this role because it
    /// beat [`Method::AnnealingMultilevel`] in the time-matched comparison on
    /// the planted corpus (see `portfolio_vs_annealing` in
    /// `BENCH_refine.json`); it is also the method with warm-start support
    /// (a hint passed to `solve_bounded` seeds one restart from the
    /// incumbent).
    pub fn classical_fallback() -> Self {
        CommunityDetector::new(Method::PortfolioMultilevel)
    }

    /// Sets the number of communities `k` used by the QUBO formulations.
    pub fn with_communities(mut self, k: usize) -> Self {
        self.num_communities = k;
        self
    }

    /// Sets the RNG seed shared by all randomised components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a wall-clock time limit on the QUBO methods.
    ///
    /// Branch and bound and the restart portfolios apply it to their QUBO
    /// solve. QHD has no limit of its own, so the QHD methods take it as the
    /// pipeline's [`Budget`] (see [`multilevel::detect_bounded`]): samples and
    /// mean-field steps observe it, and refinement after expiry is skipped.
    /// Louvain ignores it.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the number of QHD samples (ignored by classical methods).
    pub fn with_qhd_samples(mut self, samples: usize) -> Self {
        self.qhd_samples = samples.max(1);
        self
    }

    /// Sets the number of QHD integration steps (ignored by classical methods).
    pub fn with_qhd_steps(mut self, steps: usize) -> Self {
        self.qhd_steps = steps.max(1);
        self
    }

    /// Sets the coarsening threshold `θ` of the multilevel pipelines.
    pub fn with_coarsen_threshold(mut self, threshold: usize) -> Self {
        self.coarsen_threshold = threshold.max(1);
        self
    }

    /// Sets the quality function optimised and reported by the detector
    /// (resolution-γ modularity or CPM; default γ=1 modularity).
    ///
    /// The choice is threaded through the QUBO formulation, every refinement
    /// pass and the Louvain baseline; [`DetectionResult::modularity`] then
    /// holds the value of *this* quality function.
    pub fn with_quality(mut self, quality: QualityFunction) -> Self {
        self.quality = quality;
        self
    }

    /// The method this detector runs.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Checks the detector's own settings before any graph is seen, as
    /// [`MultilevelConfig::validate`] does for the QUBO methods; Louvain takes
    /// no community count, so only its quality function is checked.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::InvalidConfig`] for an invalid setting.
    pub fn validate(&self) -> Result<(), CdError> {
        match self.method {
            Method::Louvain => {
                self.quality.validate().map_err(|reason| CdError::InvalidConfig { reason })
            }
            _ => self.multilevel_config().validate(),
        }
    }

    fn formulation(&self) -> FormulationConfig {
        FormulationConfig {
            num_communities: self.num_communities,
            quality: self.quality,
            ..FormulationConfig::default()
        }
    }

    fn refine_config(&self) -> crate::refine::RefineConfig {
        crate::refine::RefineConfig { quality: self.quality, ..Default::default() }
    }

    fn multilevel_config(&self) -> MultilevelConfig {
        let mut config = MultilevelConfig::with_communities(self.num_communities);
        config.coarsen.threshold = self.coarsen_threshold;
        config.formulation = self.formulation();
        config.refine = self.refine_config();
        config
    }

    fn qhd_solver(&self) -> QhdSolver {
        QhdSolver::builder().samples(self.qhd_samples).steps(self.qhd_steps).seed(self.seed).build()
    }

    /// Runs the configured method on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates [`CdError`] from the underlying pipeline.
    pub fn detect(&self, graph: &Graph) -> Result<DetectionResult, CdError> {
        self.detect_impl(graph, None)
    }

    /// Runs the configured method on `graph`, warm-started from a prior
    /// partition.
    ///
    /// This is the re-solve entry point of the streaming subsystem: `hint` is
    /// the incumbent community structure of a slightly different (older)
    /// graph. The hint is threaded into the pipeline: every QUBO method but
    /// [`Method::AnnealingMultilevel`] encodes it and passes it to the
    /// solver's `solve_bounded`, where the portfolio of
    /// [`Method::PortfolioMultilevel`] dedicates one restart to polishing it.
    /// The returned result is additionally floored at the locally refined
    /// hint — warm restarts can explore, but the caller never gets back a
    /// partition worse than its own incumbent after local polish.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::Graph`] if `hint` does not cover exactly the nodes
    /// of `graph`, otherwise propagates [`CdError`] from the pipeline.
    pub fn detect_with_hint(
        &self,
        graph: &Graph,
        hint: &Partition,
    ) -> Result<DetectionResult, CdError> {
        let start = Instant::now();
        hint.check_matches(graph).map_err(CdError::Graph)?;
        let polished = crate::refine::refine_partition(graph, hint, &self.refine_config())?;
        let polished_q = qhdcd_graph::modularity::quality(graph, &polished.partition, self.quality);
        let mut result = self.detect_impl(graph, Some(hint))?;
        if polished_q > result.modularity {
            result.partition = polished.partition;
            result.modularity = polished_q;
            result.num_communities = result.partition.num_communities();
        }
        result.elapsed = start.elapsed();
        Ok(result)
    }

    fn detect_impl(
        &self,
        graph: &Graph,
        hint: Option<&Partition>,
    ) -> Result<DetectionResult, CdError> {
        let start = Instant::now();
        let theta = self.coarsen_threshold;
        let mut hint = hint;
        // The direct methods build no coarsening level: θ = usize::MAX.
        // QhdSolver has no time limit of its own, so the QHD methods take the
        // limit as the pipeline's budget; the other solvers apply it to their
        // own solve.
        let (solver, threshold, budget_limit): (Box<dyn QuboSolver>, _, _) = match self.method {
            Method::QhdDirect => (Box::new(self.qhd_solver()), usize::MAX, self.time_limit),
            Method::QhdMultilevel => (Box::new(self.qhd_solver()), theta, self.time_limit),
            Method::BranchAndBoundDirect => {
                let solver = BranchAndBound { time_limit: self.time_limit };
                (Box::new(solver), usize::MAX, None)
            }
            Method::AnnealingMultilevel => {
                let solver = PortfolioSolver {
                    config: PortfolioConfig {
                        restarts: 4,
                        threads: 1,
                        time_limit: self.time_limit,
                        seed: self.seed,
                        ..PortfolioConfig::default()
                    },
                    strategies: vec![Strategy::Annealing {
                        initial_temperature: 2.0,
                        final_temperature: 0.01,
                    }],
                };
                // Always cold-started: a hint only floors the result in
                // `detect_with_hint`.
                hint = None;
                (Box::new(solver), theta, None)
            }
            Method::PortfolioMultilevel => {
                // Pair-aware moves let the greedy members reassign one-hot
                // indicators natively instead of stalling on the penalty wall.
                let mut solver = PortfolioSolver::default().with_seed(self.seed);
                solver.config.move_set = MoveSet::PairAware;
                solver.config.time_limit = self.time_limit;
                (Box::new(solver), theta, None)
            }
            Method::Louvain => {
                let config = louvain::LouvainConfig {
                    refine: self.refine_config(),
                    ..louvain::LouvainConfig::default()
                };
                let out = louvain::detect(graph, &config)?;
                return Ok(self.result(out.partition, out.modularity, None, start));
            }
        };
        let mut config = MultilevelConfig { hint: hint.cloned(), ..self.multilevel_config() };
        config.coarsen.threshold = threshold;
        let budget = Budget::unlimited().merged_with_time_limit(budget_limit);
        let out = multilevel::detect_bounded(graph, &solver, &config, &budget)?;
        Ok(self.result(out.partition, out.modularity, Some(out.qubo_objective), start))
    }

    fn result(
        &self,
        partition: Partition,
        modularity: f64,
        qubo_objective: Option<f64>,
        start: Instant,
    ) -> DetectionResult {
        DetectionResult {
            num_communities: partition.num_communities(),
            partition,
            modularity,
            qubo_objective,
            method: self.method,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::generators;

    #[test]
    fn method_display_names() {
        assert_eq!(Method::QhdDirect.to_string(), "qhd-direct");
        assert_eq!(Method::Louvain.to_string(), "louvain");
        assert_eq!(Method::AnnealingMultilevel.to_string(), "annealing-multilevel");
    }

    #[test]
    fn every_method_runs_on_the_karate_club() {
        let g = generators::karate_club();
        for method in [
            Method::QhdDirect,
            Method::QhdMultilevel,
            Method::AnnealingMultilevel,
            Method::PortfolioMultilevel,
            Method::Louvain,
        ] {
            let detector = CommunityDetector::new(method)
                .with_communities(4)
                .with_seed(3)
                .with_qhd_samples(2)
                .with_qhd_steps(60);
            let result = detector.detect(&g).unwrap();
            assert_eq!(result.method, method);
            assert!(result.modularity > 0.2, "{method}: q={}", result.modularity);
            assert_eq!(result.partition.num_nodes(), 34);
            assert_eq!(result.num_communities, result.partition.num_communities());
            assert_eq!(result.qubo_objective.is_some(), method != Method::Louvain, "{method}");
        }
    }

    #[test]
    fn branch_and_bound_direct_with_time_limit_runs() {
        let pg = generators::ring_of_cliques(3, 4).unwrap();
        let result = CommunityDetector::new(Method::BranchAndBoundDirect)
            .with_communities(3)
            .with_time_limit(Duration::from_millis(300))
            .detect(&pg.graph)
            .unwrap();
        assert!(result.modularity > 0.4, "q={}", result.modularity);
    }

    #[test]
    fn qhd_methods_observe_the_time_limit() {
        // A zero limit is the pipeline run under an exhausted budget: the
        // solve keeps its best-so-far incumbent and refinement is skipped.
        let g = generators::karate_club();
        let solver = QhdSolver::builder().samples(8).steps(120).seed(3).build();
        let config = MultilevelConfig::with_communities(4);
        let budget = Budget::with_time_limit(Duration::ZERO);
        let expected = multilevel::detect_bounded(&g, &solver, &config, &budget).unwrap();
        assert!(!expected.completion.is_full());
        for method in [Method::QhdDirect, Method::QhdMultilevel] {
            let result = CommunityDetector::new(method)
                .with_communities(4)
                .with_seed(3)
                .with_time_limit(Duration::ZERO)
                .detect(&g)
                .unwrap();
            assert_eq!(result.partition, expected.partition, "{method}");
            assert_eq!(result.modularity.to_bits(), expected.modularity.to_bits(), "{method}");
        }
    }

    #[test]
    fn builder_setters_are_applied() {
        let d = CommunityDetector::qhd()
            .with_communities(7)
            .with_seed(9)
            .with_qhd_samples(3)
            .with_qhd_steps(50)
            .with_coarsen_threshold(123)
            .with_quality(QualityFunction::cpm(0.5));
        assert_eq!(d.method(), Method::QhdMultilevel);
        assert_eq!(d.num_communities, 7);
        assert_eq!(d.seed, 9);
        assert_eq!(d.qhd_samples, 3);
        assert_eq!(d.qhd_steps, 50);
        assert_eq!(d.coarsen_threshold, 123);
        assert_eq!(d.quality, QualityFunction::cpm(0.5));
        assert_eq!(d.formulation().quality, QualityFunction::cpm(0.5));
        assert_eq!(d.multilevel_config().refine.quality, QualityFunction::cpm(0.5));
    }

    #[test]
    fn quality_choice_reaches_every_method_family() {
        // Each representative method family reports the configured quality
        // (CPM on a ring of cliques: each 5-clique is worth 10 − 0.5·10 = 5).
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        for method in [Method::PortfolioMultilevel, Method::Louvain] {
            let result = CommunityDetector::new(method)
                .with_communities(4)
                .with_seed(1)
                .with_quality(QualityFunction::cpm(0.5))
                .detect(&pg.graph)
                .unwrap();
            assert!(
                (result.modularity - 20.0).abs() < 1e-9,
                "{method}: cpm quality={}",
                result.modularity
            );
        }
    }

    #[test]
    fn invalid_community_count_errors() {
        let g = generators::karate_club();
        let result = CommunityDetector::qhd().with_communities(0).detect(&g);
        assert!(result.is_err());
        let louvain = CommunityDetector::new(Method::Louvain);
        assert!(CommunityDetector::qhd().with_communities(0).validate().is_err());
        assert!(louvain.clone().with_quality(QualityFunction::cpm(f64::NAN)).validate().is_err());
        // Louvain takes no community count, so k = 0 is no error for it.
        assert!(louvain.with_communities(0).validate().is_ok());
        assert!(CommunityDetector::qhd().validate().is_ok());
    }

    #[test]
    fn classical_fallback_is_the_portfolio_multilevel() {
        assert_eq!(CommunityDetector::classical_fallback().method(), Method::PortfolioMultilevel);
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let result = CommunityDetector::classical_fallback()
            .with_communities(4)
            .with_seed(1)
            .detect(&pg.graph)
            .unwrap();
        assert!(result.modularity > 0.5, "q={}", result.modularity);
    }

    #[test]
    fn detect_with_hint_never_returns_less_than_the_refined_hint() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 120,
            num_communities: 4,
            p_in: 0.3,
            p_out: 0.02,
            seed: 6,
        })
        .unwrap();
        let refined_truth = crate::refine::refine_partition(
            &pg.graph,
            &pg.ground_truth,
            &crate::refine::RefineConfig::default(),
        )
        .unwrap();
        let q_floor = qhdcd_graph::modularity::modularity(&pg.graph, &refined_truth.partition);
        for method in [Method::PortfolioMultilevel, Method::AnnealingMultilevel, Method::Louvain] {
            let result = CommunityDetector::new(method)
                .with_communities(4)
                .with_seed(0)
                .detect_with_hint(&pg.graph, &pg.ground_truth)
                .unwrap();
            assert!(
                result.modularity >= q_floor - 1e-12,
                "{method}: q={} floor={q_floor}",
                result.modularity
            );
        }
    }

    #[test]
    fn detect_with_hint_is_deterministic() {
        let pg = generators::ring_of_cliques(5, 6).unwrap();
        let detector = CommunityDetector::classical_fallback().with_communities(5).with_seed(9);
        let a = detector.detect_with_hint(&pg.graph, &pg.ground_truth).unwrap();
        let b = detector.detect_with_hint(&pg.graph, &pg.ground_truth).unwrap();
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
    }

    #[test]
    fn detect_with_hint_rejects_mismatched_hints() {
        let g = generators::karate_club();
        let hint = qhdcd_graph::Partition::singletons(10);
        assert!(CommunityDetector::classical_fallback().detect_with_hint(&g, &hint).is_err());
    }
}
