//! A restart portfolio over the classical heuristic families.
//!
//! Portfolio solving runs many independent restarts, each handled by one of a
//! set of member strategies (greedy descent, simulated annealing, tabu
//! search), and keeps the best result. Restart `k` runs strategy
//! `k mod members`, so the portfolio interleaves its members round-robin
//! across the restart schedule; all restarts execute on the deterministic
//! parallel [`crate::runtime`], which makes the result bit-identical for
//! every worker-thread count (see the runtime docs for the seeding scheme).
//!
//! # Picking a restart count
//!
//! Restarts are the quality lever: each one is an independent draw from the
//! strategy's attraction basins, so the expected best-of-`R` energy improves
//! roughly logarithmically in `R`. Because restarts parallelise perfectly, the
//! practical rule is to set `restarts` to a small multiple of the worker
//! count (4–8× saturates most instances) and `threads = 0` (all cores);
//! wall-clock then stays roughly flat while quality improves with every added
//! core.
//!
//! # Example
//!
//! ```
//! use qhdcd_qubo::{QuboBuilder, QuboSolver};
//! use qhdcd_solvers::PortfolioSolver;
//!
//! # fn main() -> Result<(), qhdcd_qubo::QuboError> {
//! let mut b = QuboBuilder::new(4);
//! b.add_quadratic(0, 1, -1.0)?;
//! b.add_quadratic(2, 3, -1.0)?;
//! let report = PortfolioSolver::default().solve(&b.build())?;
//! assert_eq!(report.objective, -2.0);
//! # Ok(())
//! # }
//! ```

use crate::local_search;
use crate::runtime::{self, RestartRun};
use crate::simulated_annealing::{anneal_restart, annealing_scale};
use crate::tabu::tabu_restart;
use qhdcd_qubo::{
    Budget, LocalFieldState, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Which move set the descent-style members of the portfolio search over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MoveSet {
    /// Single-variable flips only — the cheapest sweep, O(n) per pass.
    #[default]
    SingleFlip,
    /// Single flips plus coupled pair moves, applying one-set/one-clear pairs
    /// as native reassignments — required to make progress on one-hot
    /// encodings, at O(nnz) per pair sweep.
    PairAware,
}

/// Shared restart-schedule knobs: how many restarts, over how many threads,
/// with what per-restart budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioConfig {
    /// Number of independent restarts.
    pub restarts: usize,
    /// Worker threads; `0` uses all available parallelism.
    pub threads: usize,
    /// Per-restart sweep budget (Metropolis sweeps for annealing members,
    /// descent sweeps for greedy members, single-flip iterations for tabu
    /// members — all O(n)-comparable units).
    pub sweeps: usize,
    /// Move set used by descent-style members.
    pub move_set: MoveSet,
    /// Optional wall-clock budget. A deadline bounds the work
    /// non-deterministically (how far each restart gets depends on machine
    /// speed); omit it for bit-reproducible runs.
    pub time_limit: Option<std::time::Duration>,
    /// Root seed; restart `k` draws from the stream
    /// [`runtime::restart_stream_seed`]`(seed, k)`.
    pub seed: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            restarts: 16,
            threads: 0,
            sweeps: 200,
            move_set: MoveSet::SingleFlip,
            time_limit: None,
            seed: 0,
        }
    }
}

impl PortfolioConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::InvalidConfig`] if the restart or sweep budget is
    /// zero.
    pub fn validate(&self) -> Result<(), QuboError> {
        if self.restarts == 0 {
            return Err(QuboError::InvalidConfig { reason: "restarts must be positive".into() });
        }
        if self.sweeps == 0 {
            return Err(QuboError::InvalidConfig { reason: "sweeps must be positive".into() });
        }
        Ok(())
    }
}

/// A member strategy of the portfolio; restart `k` runs member `k mod len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Descent to a local minimum from a random start (move set per
    /// [`PortfolioConfig::move_set`]).
    Greedy,
    /// Single-flip Metropolis annealing with geometric cooling between the two
    /// temperatures (in units of the instance's coefficient scale).
    Annealing {
        /// Initial temperature.
        initial_temperature: f64,
        /// Final temperature.
        final_temperature: f64,
    },
    /// Tabu search seeded by a short descent; `tenure` as in
    /// [`crate::TabuSearch`] (`None` picks `max(10, n/10)` capped at `n/2`).
    Tabu {
        /// Tabu tenure override.
        tenure: Option<usize>,
    },
}

/// The portfolio QUBO solver: a deterministic parallel best-of reduction over
/// restarts of its member strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioSolver {
    /// Restart-schedule configuration.
    pub config: PortfolioConfig,
    /// Member strategies, interleaved round-robin over the restarts.
    pub strategies: Vec<Strategy>,
}

impl Default for PortfolioSolver {
    fn default() -> Self {
        PortfolioSolver {
            config: PortfolioConfig::default(),
            strategies: vec![
                Strategy::Greedy,
                Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 },
                Strategy::Tabu { tenure: None },
            ],
        }
    }
}

impl PortfolioSolver {
    /// Creates the default portfolio (greedy + annealing + tabu members).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a portfolio from an explicit configuration with the default
    /// member set.
    pub fn with_config(config: PortfolioConfig) -> Self {
        PortfolioSolver { config, ..PortfolioSolver::default() }
    }

    /// Returns a copy with a different member set.
    pub fn with_strategies(mut self, strategies: Vec<Strategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Returns a copy with a different root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Returns a copy with a different restart count.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.config.restarts = restarts;
        self
    }

    /// Returns a copy with a different worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }
}

/// Runs the warm-start restart: installs the incumbent and polishes it by
/// descent under `move_set`. The result can never be worse than the incumbent
/// (descent only accepts improving moves), which gives warm-started portfolio
/// solves a monotonicity guarantee the streaming re-solves rely on.
fn warm_restart(
    warm: &[bool],
    state: &mut LocalFieldState<'_>,
    sweeps: usize,
    move_set: MoveSet,
    budget: &Budget,
) -> RestartRun {
    state.set_solution(warm).expect("hint length is validated before the runtime starts");
    let outcome = match move_set {
        MoveSet::SingleFlip => local_search::descend_state(state, sweeps, budget),
        MoveSet::PairAware => local_search::pair_aware_descend_state(state, sweeps, budget),
    };
    state.debug_validate();
    RestartRun {
        solution: state.solution().to_vec(),
        energy: state.energy(),
        iterations: outcome.sweeps,
        interrupted: outcome.interrupted,
    }
}

/// Runs one greedy restart: random start, descent under `move_set`.
fn greedy_restart(
    rng: &mut ChaCha8Rng,
    state: &mut LocalFieldState<'_>,
    sweeps: usize,
    move_set: MoveSet,
    budget: &Budget,
) -> RestartRun {
    let n = state.num_variables();
    let x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    state.set_solution(&x).expect("worker state matches the model");
    let outcome = match move_set {
        MoveSet::SingleFlip => local_search::descend_state(state, sweeps, budget),
        MoveSet::PairAware => local_search::pair_aware_descend_state(state, sweeps, budget),
    };
    state.debug_validate();
    RestartRun {
        solution: state.solution().to_vec(),
        energy: state.energy(),
        iterations: outcome.sweeps,
        interrupted: outcome.interrupted,
    }
}

impl PortfolioSolver {
    fn solve_impl(
        &self,
        model: &QuboModel,
        warm_start: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        let start = Instant::now();
        if model.num_variables() == 0 {
            return Err(QuboError::InvalidConfig { reason: "model has no variables".into() });
        }
        if let Some(warm) = warm_start {
            if warm.len() != model.num_variables() {
                return Err(QuboError::SolutionSizeMismatch {
                    solution: warm.len(),
                    variables: model.num_variables(),
                });
            }
        }
        self.config.validate()?;
        if self.strategies.is_empty() {
            return Err(QuboError::InvalidConfig {
                reason: "portfolio needs at least one strategy".into(),
            });
        }
        for strategy in &self.strategies {
            if let Strategy::Annealing { initial_temperature, final_temperature } = strategy {
                if *initial_temperature <= 0.0 || *final_temperature <= 0.0 {
                    return Err(QuboError::InvalidConfig {
                        reason: "annealing temperatures must be positive".into(),
                    });
                }
            }
        }
        let scale = annealing_scale(model);
        let budget = budget.clone().merged_with_time_limit(self.config.time_limit);
        let sweeps = self.config.sweeps;
        let kernel =
            |k: usize, rng: &mut ChaCha8Rng, state: &mut LocalFieldState<'_>, budget: &Budget| {
                // Restart 0 becomes the incumbent-polish member of a warm-started
                // solve; every other restart keeps its regular strategy stream.
                if k == 0 {
                    if let Some(warm) = warm_start {
                        return warm_restart(warm, state, sweeps, self.config.move_set, budget);
                    }
                }
                match self.strategies[k % self.strategies.len()] {
                    Strategy::Greedy => {
                        greedy_restart(rng, state, sweeps, self.config.move_set, budget)
                    }
                    Strategy::Annealing { initial_temperature, final_temperature } => {
                        let t_start = initial_temperature * scale;
                        let t_end = final_temperature * scale;
                        let cooling = (t_end / t_start).powf(1.0 / sweeps.max(1) as f64);
                        anneal_restart(state, rng, sweeps, t_start, cooling, budget)
                    }
                    Strategy::Tabu { tenure } => tabu_restart(state, rng, sweeps, tenure, budget),
                }
            };
        let run = runtime::run_restarts(
            model,
            self.config.restarts,
            self.config.threads,
            self.config.seed,
            &budget,
            &kernel,
        )?;
        let completion = run.completion();
        // The all-zero baseline keeps the result no worse than the trivial
        // assignment even when every restart lands in a bad basin (same floor
        // as the standalone greedy/annealing solvers).
        let zero = vec![false; model.num_variables()];
        let zero_e = model.evaluate(&zero)?;
        let (solution, objective) =
            if zero_e < run.energy { (zero, zero_e) } else { (run.solution, run.energy) };
        Ok(SolveReport {
            solution,
            objective,
            status: SolveStatus::Heuristic,
            elapsed: start.elapsed(),
            iterations: run.iterations,
            completion,
        })
    }
}

impl QuboSolver for PortfolioSolver {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn solve(&self, model: &QuboModel) -> Result<SolveReport, QuboError> {
        self.solve_impl(model, None, &Budget::unlimited())
    }

    /// Warm-started solve: restart 0 polishes `hint` by descent (under the
    /// configured move set) instead of running its regular strategy, so the
    /// result is never worse than the polished incumbent. All other restarts
    /// are unchanged, and determinism across thread counts is preserved.
    fn solve_with_hint(&self, model: &QuboModel, hint: &[bool]) -> Result<SolveReport, QuboError> {
        self.solve_impl(model, Some(hint), &Budget::unlimited())
    }

    /// Anytime solve: restarts and sweeps observe `budget`, the reduction is
    /// over completed restarts only, and the report is marked
    /// [`qhdcd_qubo::Completion::Truncated`] when the budget cut the schedule
    /// short.
    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        self.solve_impl(model, hint, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExhaustiveSearch;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    fn instance(n: usize, density: f64, seed: u64) -> QuboModel {
        random_qubo(&RandomQuboConfig { num_variables: n, density, coefficient_range: 1.0, seed })
            .unwrap()
    }

    #[test]
    fn reaches_the_optimum_on_small_instances() {
        for seed in 0..3u64 {
            let model = instance(12, 0.4, seed);
            let report = PortfolioSolver::default().with_seed(seed).solve(&model).unwrap();
            let exact = ExhaustiveSearch.solve(&model).unwrap();
            assert!(
                (report.objective - exact.objective).abs() < 1e-9,
                "seed={seed}: portfolio={} exact={}",
                report.objective,
                exact.objective
            );
            assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_degenerate_configurations() {
        let model = QuboBuilder::new(2).build();
        assert!(PortfolioSolver::default().solve(&QuboBuilder::new(0).build()).is_err());
        let mut zero_restarts = PortfolioSolver::default();
        zero_restarts.config.restarts = 0;
        assert!(zero_restarts.solve(&model).is_err());
        let mut zero_sweeps = PortfolioSolver::default();
        zero_sweeps.config.sweeps = 0;
        assert!(zero_sweeps.solve(&model).is_err());
        assert!(PortfolioSolver::default().with_strategies(vec![]).solve(&model).is_err());
        let bad_temps = PortfolioSolver::default().with_strategies(vec![Strategy::Annealing {
            initial_temperature: -1.0,
            final_temperature: 0.01,
        }]);
        assert!(bad_temps.solve(&model).is_err());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let model = instance(50, 0.2, 9);
        let base = PortfolioSolver::default().with_seed(11).with_restarts(9);
        let runs: Vec<SolveReport> = [1usize, 2, 8]
            .iter()
            .map(|&t| base.clone().with_threads(t).solve(&model).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.solution, runs[0].solution);
            assert_eq!(r.objective.to_bits(), runs[0].objective.to_bits());
            assert_eq!(r.iterations, runs[0].iterations);
        }
    }

    #[test]
    fn pair_aware_move_set_escapes_one_hot_traps() {
        // One-hot group {0, 1} with a reward on slot 1: every single flip
        // breaks the constraint, so a single-flip greedy member stalls at the
        // start while the pair-aware move set finds the reassignment.
        let mut b = QuboBuilder::new(3);
        b.add_penalty_exactly_one(&[0, 1], 10.0).unwrap();
        b.add_quadratic(1, 2, -2.0).unwrap();
        let model = b.build();
        let mut solver = PortfolioSolver::default().with_strategies(vec![Strategy::Greedy]);
        solver.config.move_set = MoveSet::PairAware;
        let report = solver.solve(&model).unwrap();
        assert!((report.objective - (-2.0)).abs() < 1e-9);
    }

    #[test]
    fn single_strategy_portfolios_work() {
        let model = instance(20, 0.3, 4);
        for strategies in [
            vec![Strategy::Greedy],
            vec![Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 }],
            vec![Strategy::Tabu { tenure: Some(5) }],
        ] {
            let report = PortfolioSolver::default()
                .with_strategies(strategies)
                .with_restarts(4)
                .solve(&model)
                .unwrap();
            assert_eq!(report.status, SolveStatus::Heuristic);
            assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn never_worse_than_the_all_zero_assignment() {
        // +1 linear on each variable with −0.9 pairwise couplings: the all-one
        // state is a strict 1-flip local minimum with positive energy, so a
        // greedy restart landing there would otherwise beat nothing.
        let mut b = QuboBuilder::new(3);
        for i in 0..3 {
            b.add_linear(i, 1.0).unwrap();
            for j in (i + 1)..3 {
                b.add_quadratic(i, j, -0.9).unwrap();
            }
        }
        let model = b.build();
        for seed in 0..8u64 {
            let mut solver =
                PortfolioSolver::default().with_seed(seed).with_strategies(vec![Strategy::Greedy]);
            solver.config.restarts = 1;
            let report = solver.solve(&model).unwrap();
            assert!(report.objective <= 0.0, "seed={seed}: {}", report.objective);
        }
    }

    #[test]
    fn warm_start_is_never_worse_than_the_polished_incumbent() {
        for seed in 0..4u64 {
            let model = instance(40, 0.2, seed);
            let solver = PortfolioSolver::default().with_seed(seed).with_restarts(3);
            // Use the plain solve's result as the incumbent of a second solve:
            // the warm-started objective must be at least as good.
            let incumbent = solver.solve(&model).unwrap();
            let warm = solver.solve_with_hint(&model, &incumbent.solution).unwrap();
            assert!(
                warm.objective <= incumbent.objective + 1e-12,
                "seed={seed}: warm {} > incumbent {}",
                warm.objective,
                incumbent.objective
            );
            assert!((model.evaluate(&warm.solution).unwrap() - warm.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_polishes_a_bad_incumbent() {
        // An incumbent with positive energy must at least descend to a local
        // minimum no worse than itself, even with a single restart.
        let model = instance(30, 0.3, 5);
        let all_ones = vec![true; 30];
        let incumbent_energy = model.evaluate(&all_ones).unwrap();
        let mut solver = PortfolioSolver::default();
        solver.config.restarts = 1;
        let report = solver.solve_with_hint(&model, &all_ones).unwrap();
        assert!(report.objective <= incumbent_energy + 1e-12);
    }

    #[test]
    fn warm_start_is_deterministic_across_thread_counts() {
        let model = instance(50, 0.2, 3);
        let hint = vec![false; 50];
        let base = PortfolioSolver::default().with_seed(2).with_restarts(9);
        let runs: Vec<SolveReport> = [1usize, 2, 8]
            .iter()
            .map(|&t| base.clone().with_threads(t).solve_with_hint(&model, &hint).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.solution, runs[0].solution);
            assert_eq!(r.objective.to_bits(), runs[0].objective.to_bits());
        }
    }

    #[test]
    fn warm_start_rejects_mismatched_hints() {
        let model = instance(10, 0.3, 0);
        let err = PortfolioSolver::default().solve_with_hint(&model, &[true; 4]).unwrap_err();
        assert!(matches!(err, qhdcd_qubo::QuboError::SolutionSizeMismatch { .. }));
    }

    #[test]
    fn time_limit_is_honoured() {
        let model = instance(300, 0.05, 2);
        let mut solver = PortfolioSolver::default().with_restarts(64);
        solver.config.sweeps = 100_000;
        solver.config.time_limit = Some(std::time::Duration::from_millis(30));
        let report = solver.solve(&model).unwrap();
        assert!(report.elapsed < std::time::Duration::from_secs(5));
    }
}
