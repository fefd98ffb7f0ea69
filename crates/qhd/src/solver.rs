//! The high-level QHD QUBO solver.
//!
//! [`QhdSolver`] drives many independent QHD samples (different random initial
//! wave packets and measurement seeds), each followed by a classical descent,
//! and returns the best solution found. The samples are the restarts of the
//! workspace's parallel restart runtime, [`qhdcd_solvers::runtime`]: its worker
//! threads are the CPU stand-in for the multi-GPU batching described in the
//! paper (see README.md, "Substitutions"), it isolates panicking samples, and
//! it picks the best sample by `(energy, sample index)`, so the result does not
//! depend on the thread count. Each descent runs on the worker's
//! [`LocalFieldState`] through [`qhdcd_solvers::local_search`]. The solver
//! implements [`QuboSolver`], so it is a drop-in replacement for the classical
//! baselines everywhere in the workspace.

use crate::meanfield::{self, MeanFieldConfig};
use crate::schedule::Schedule;
use crate::statevector::{self, StateVectorConfig, MAX_EXACT_VARIABLES};
use qhdcd_qubo::{
    Budget, LocalFieldState, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus,
};
use qhdcd_solvers::local_search;
use qhdcd_solvers::runtime::{self, RestartRun};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Above this many quadratic terms a candidate's descent falls back from the
/// pair-aware search, which costs O(nnz · average degree) per sweep, to the
/// linear-time 1-opt descent.
const PAIR_AWARE_LIMIT: usize = 200_000;

/// Which simulation backend the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Choose automatically: exact state-vector simulation for instances with
    /// at most 12 variables, mean-field otherwise. (Forcing [`Backend::Exact`]
    /// accepts up to [`MAX_EXACT_VARIABLES`].)
    #[default]
    Auto,
    /// Always use the exact hypercube state-vector simulation (small instances only).
    Exact,
    /// Always use the scalable mean-field simulation.
    MeanField,
}

/// Full configuration of a [`QhdSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct QhdConfig {
    /// Simulation backend selection policy.
    pub backend: Backend,
    /// Number of independent QHD samples (trajectories).
    pub samples: usize,
    /// Worker threads used to run samples in parallel (`0` = all cores, `1` =
    /// serial). The result is the same for every value.
    pub threads: usize,
    /// Total evolution time of the Schrödinger dynamics. Must be finite and
    /// positive; otherwise solving returns [`QuboError::InvalidConfig`].
    pub total_time: f64,
    /// Number of integration time steps per trajectory.
    pub steps: usize,
    /// Grid resolution of the mean-field backend.
    pub grid_resolution: usize,
    /// Measurement shots per trajectory.
    pub shots: usize,
    /// Maximum sweeps of the classical greedy refinement (0 disables refinement).
    pub refine_sweeps: usize,
    /// Base RNG seed; sample `k` uses `seed + k`.
    pub seed: u64,
}

impl Default for QhdConfig {
    fn default() -> Self {
        QhdConfig {
            backend: Backend::Auto,
            samples: 8,
            threads: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8),
            total_time: 10.0,
            steps: 150,
            grid_resolution: 32,
            shots: 16,
            refine_sweeps: 50,
            seed: 0,
        }
    }
}

/// Builder for [`QhdConfig`] / [`QhdSolver`].
///
/// # Example
///
/// ```
/// use qhdcd_qhd::{Backend, QhdSolver};
///
/// let solver = QhdSolver::builder()
///     .backend(Backend::MeanField)
///     .samples(4)
///     .steps(80)
///     .seed(3)
///     .build();
/// assert_eq!(solver.config().samples, 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QhdConfigBuilder {
    config: QhdConfig,
}

impl QhdConfigBuilder {
    /// Sets the simulation backend policy.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the number of independent QHD samples.
    pub fn samples(mut self, samples: usize) -> Self {
        self.config.samples = samples.max(1);
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Sets the total Schrödinger evolution time. A time that is not finite
    /// and positive makes solving return [`QuboError::InvalidConfig`].
    pub fn total_time(mut self, total_time: f64) -> Self {
        self.config.total_time = total_time;
        self
    }

    /// Sets the number of integration steps per trajectory.
    pub fn steps(mut self, steps: usize) -> Self {
        self.config.steps = steps.max(1);
        self
    }

    /// Sets the mean-field grid resolution.
    pub fn grid_resolution(mut self, resolution: usize) -> Self {
        self.config.grid_resolution = resolution;
        self
    }

    /// Sets the number of measurement shots per trajectory.
    pub fn shots(mut self, shots: usize) -> Self {
        self.config.shots = shots;
        self
    }

    /// Sets the classical refinement sweep budget (0 disables refinement).
    pub fn refine_sweeps(mut self, sweeps: usize) -> Self {
        self.config.refine_sweeps = sweeps;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the builder and produces the solver.
    pub fn build(self) -> QhdSolver {
        QhdSolver { config: self.config }
    }
}

/// Quantum Hamiltonian Descent QUBO solver with parallel multi-sample execution.
///
/// See the [crate-level documentation](crate) for the algorithm description and
/// an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct QhdSolver {
    config: QhdConfig,
}

impl QhdSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver from an explicit configuration.
    pub fn with_config(config: QhdConfig) -> Self {
        QhdSolver { config }
    }

    /// Starts a configuration builder.
    pub fn builder() -> QhdConfigBuilder {
        QhdConfigBuilder::default()
    }

    /// The solver's configuration.
    pub fn config(&self) -> &QhdConfig {
        &self.config
    }

    /// Resolves the backend policy for a concrete model.
    pub fn backend_for(&self, model: &QuboModel) -> Backend {
        match self.config.backend {
            Backend::Auto => {
                if model.num_variables() <= MAX_EXACT_VARIABLES.min(12) {
                    Backend::Exact
                } else {
                    Backend::MeanField
                }
            }
            other => other,
        }
    }

    /// The exact-backend configuration of the sample seeded with `seed`.
    fn state_vector_config(&self, seed: u64) -> StateVectorConfig {
        StateVectorConfig {
            schedule: Schedule::default_qhd(self.config.total_time),
            steps: self.config.steps.max(50),
            shots: self.config.shots.max(1),
            seed,
        }
    }

    /// The mean-field configuration of the sample seeded with `seed`.
    fn mean_field_config(&self, seed: u64) -> MeanFieldConfig {
        MeanFieldConfig {
            schedule: Schedule::default_qhd(self.config.total_time),
            steps: self.config.steps,
            grid_resolution: self.config.grid_resolution,
            shots: self.config.shots,
            seed,
            randomize_initial_state: true,
            // Samples are already distributed over worker threads; keep each
            // trajectory's variable sweep serial rather than oversubscribing
            // with nested parallelism.
            threads: 1,
        }
    }

    /// Runs the QHD sample seeded with `seed` on a worker's engine.
    ///
    /// Mirrors QHDOPT's hybrid structure: the quantum(-inspired) evolution
    /// produces a measurement distribution, the backend's best measurement
    /// and up to `min(shots, 8)` further roundings drawn from it are each
    /// installed on `state` and descended to a nearby local minimum, and the
    /// first candidate with the lowest energy wins. The sample is interrupted
    /// when the budget cut its mean-field trajectory short; the exact
    /// backend's short dense evolutions are not interruptible and observe the
    /// budget between samples. The descents ignore the budget.
    fn run_sample(
        &self,
        backend: Backend,
        seed: u64,
        state: &mut LocalFieldState<'_>,
        budget: &Budget,
    ) -> RestartRun {
        const VALIDATED: &str = "the configuration was validated before the samples ran";
        let model = state.model();
        let sweeps = self.config.refine_sweeps;
        let unlimited = Budget::unlimited();
        let mut descend = |candidate: &[bool]| {
            state.set_solution(candidate).expect("samples match the model");
            if model.num_quadratic_terms() <= PAIR_AWARE_LIMIT {
                local_search::pair_aware_descend_state(state, sweeps, &unlimited);
            } else {
                local_search::descend_state(state, sweeps, &unlimited);
            }
            state.debug_validate();
            (state.solution().to_vec(), state.energy())
        };
        // Only the mean-field backend yields probabilities to draw further
        // roundings from.
        let (measured, energy, probabilities, interrupted) = match backend {
            Backend::Exact => {
                let out =
                    statevector::evolve(model, &self.state_vector_config(seed)).expect(VALIDATED);
                (out.best_solution, out.best_energy, None, false)
            }
            Backend::MeanField | Backend::Auto => {
                let config = self.mean_field_config(seed);
                let out = meanfield::evolve_bounded(model, &config, budget).expect(VALIDATED);
                let interrupted = out.steps_completed < config.steps;
                (out.best_solution, out.best_energy, Some(out.probabilities), interrupted)
            }
        };
        // Without refinement a candidate keeps the energy its source reported;
        // an energy rebuilt on the engine can differ in the last bits.
        let (mut best, mut best_energy) =
            if sweeps == 0 { (measured, energy) } else { descend(&measured) };
        if let Some(probabilities) = probabilities {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            for _ in 0..self.config.shots.min(8) {
                let candidate: Vec<bool> =
                    probabilities.iter().map(|&p| rng.gen::<f64>() < p).collect();
                let (candidate, energy) = if sweeps == 0 {
                    let energy = model.evaluate(&candidate).expect("samples match the model");
                    (candidate, energy)
                } else {
                    descend(&candidate)
                };
                if energy < best_energy {
                    best = candidate;
                    best_energy = energy;
                }
            }
        }
        RestartRun { solution: best, energy: best_energy, iterations: 1, interrupted }
    }

    /// Shared implementation behind [`QuboSolver::solve`] and
    /// [`QuboSolver::solve_bounded`].
    ///
    /// Every configuration error is fixed by the model, the configuration and
    /// the backend, so it is reported once, before any sample runs. The
    /// samples then run as the restarts of [`runtime::run_restarts`], sample
    /// `k` seeded with `seed + k` (the runtime's per-restart streams go
    /// unused). That runtime supplies the rules: sample 0 runs even on an
    /// exhausted budget, a restart cap truncates the schedule, interrupted
    /// samples stand in only when none completed, and
    /// [`QuboError::RestartPanicked`] is returned only when every sample that
    /// ran panicked.
    fn solve_impl(&self, model: &QuboModel, budget: &Budget) -> Result<SolveReport, QuboError> {
        let start = Instant::now();
        let backend = self.backend_for(model);
        match backend {
            Backend::Exact => statevector::validate(model, &self.state_vector_config(0))?,
            Backend::MeanField | Backend::Auto => {
                meanfield::validate(model, &self.mean_field_config(0))?;
            }
        }
        let kernel =
            |k: usize, _: &mut ChaCha8Rng, state: &mut LocalFieldState<'_>, budget: &Budget| {
                self.run_sample(backend, self.config.seed.wrapping_add(k as u64), state, budget)
            };
        let run = runtime::run_restarts(
            model,
            self.config.samples,
            self.config.threads,
            self.config.seed,
            budget,
            &kernel,
        )?;
        let completion = run.completion();
        Ok(SolveReport {
            solution: run.solution,
            objective: run.energy,
            status: SolveStatus::Heuristic,
            elapsed: start.elapsed(),
            iterations: run.restarts_completed.max(1),
            completion,
        })
    }
}

impl QuboSolver for QhdSolver {
    fn name(&self) -> &str {
        "qhd"
    }

    fn solve(&self, model: &QuboModel) -> Result<SolveReport, QuboError> {
        self.solve_impl(model, &Budget::unlimited())
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        // QHD samples start from their own randomized wave packets; a hint
        // cannot seed the quantum(-inspired) evolution.
        let _ = hint;
        self.solve_impl(model, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::{Completion, QuboBuilder};

    fn model(n: usize, density: f64, seed: u64) -> QuboModel {
        random_qubo(&RandomQuboConfig { num_variables: n, density, coefficient_range: 1.0, seed })
            .unwrap()
    }

    fn brute_force_minimum(model: &QuboModel) -> f64 {
        let n = model.num_variables();
        (0..1usize << n)
            .map(|bits| {
                let x: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                model.evaluate(&x).unwrap()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn builder_sets_every_knob() {
        let solver = QhdSolver::builder()
            .backend(Backend::Exact)
            .samples(3)
            .threads(2)
            .total_time(5.0)
            .steps(60)
            .grid_resolution(16)
            .shots(9)
            .refine_sweeps(7)
            .seed(11)
            .build();
        let c = solver.config();
        assert_eq!(c.backend, Backend::Exact);
        assert_eq!(c.samples, 3);
        assert_eq!(c.threads, 2);
        assert_eq!(c.total_time, 5.0);
        assert_eq!(c.steps, 60);
        assert_eq!(c.grid_resolution, 16);
        assert_eq!(c.shots, 9);
        assert_eq!(c.refine_sweeps, 7);
        assert_eq!(c.seed, 11);
        assert_eq!(solver.name(), "qhd");
    }

    #[test]
    fn auto_backend_switches_on_size() {
        let solver = QhdSolver::new();
        let small = QuboBuilder::new(6).build();
        let large = QuboBuilder::new(100).build();
        assert_eq!(solver.backend_for(&small), Backend::Exact);
        assert_eq!(solver.backend_for(&large), Backend::MeanField);
        // The switch sits at 12 variables, below `MAX_EXACT_VARIABLES`.
        assert_eq!(solver.backend_for(&QuboBuilder::new(12).build()), Backend::Exact);
        assert_eq!(solver.backend_for(&QuboBuilder::new(13).build()), Backend::MeanField);
        let forced = QhdSolver::builder().backend(Backend::MeanField).build();
        assert_eq!(forced.backend_for(&small), Backend::MeanField);
    }

    #[test]
    fn finds_the_optimum_of_small_instances() {
        for seed in 0..3u64 {
            let model = model(8, 0.5, seed);
            let solver = QhdSolver::builder().samples(4).steps(120).seed(seed).build();
            let report = solver.solve(&model).unwrap();
            let optimum = brute_force_minimum(&model);
            assert!(
                (report.objective - optimum).abs() < 1e-9,
                "seed={seed}: qhd={} optimum={optimum}",
                report.objective
            );
            assert_eq!(report.status, SolveStatus::Heuristic);
            assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_and_serial_execution_agree_on_the_result_quality() {
        let model = model(30, 0.2, 77);
        let serial = QhdSolver::builder().samples(4).threads(1).seed(5).steps(60).build();
        let parallel = QhdSolver::builder().samples(4).threads(4).seed(5).steps(60).build();
        let rs = serial.solve(&model).unwrap();
        let rp = parallel.solve(&model).unwrap();
        // Same seeds and same per-sample work ⇒ identical best energies.
        assert_eq!(rs.objective, rp.objective);
    }

    #[test]
    fn refinement_only_improves_solutions() {
        let model = model(40, 0.2, 13);
        let raw = QhdSolver::builder().samples(3).refine_sweeps(0).seed(2).steps(60).build();
        let refined = QhdSolver::builder().samples(3).refine_sweeps(50).seed(2).steps(60).build();
        let r_raw = raw.solve(&model).unwrap();
        let r_ref = refined.solve(&model).unwrap();
        assert!(r_ref.objective <= r_raw.objective + 1e-9);
    }

    #[test]
    fn exact_backend_rejects_oversized_models_cleanly() {
        let model = QuboBuilder::new(30).build();
        let solver = QhdSolver::builder().backend(Backend::Exact).samples(1).build();
        assert!(solver.solve(&model).is_err());
    }

    #[test]
    fn an_evolution_time_that_is_not_finite_and_positive_is_rejected() {
        let model = model(6, 0.5, 2);
        let invalid = |result: Result<(), QuboError>| match result {
            Err(QuboError::InvalidConfig { reason }) => reason.contains("total_time"),
            _ => false,
        };
        for total_time in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            for backend in [Backend::MeanField, Backend::Exact] {
                let solver = QhdSolver::builder()
                    .backend(backend)
                    .total_time(total_time)
                    .samples(2)
                    .threads(2)
                    .steps(20)
                    .build();
                assert!(invalid(solver.solve(&model).map(drop)), "T = {total_time}, {backend:?}");
            }
            let schedule = Schedule::default_qhd(total_time);
            let mean_field = MeanFieldConfig { schedule: schedule.clone(), ..Default::default() };
            assert!(invalid(meanfield::evolve(&model, &mean_field).map(drop)), "T = {total_time}");
            assert!(
                invalid(meanfield::evolve_reference(&model, &mean_field).map(drop)),
                "T = {total_time}"
            );
            let exact = StateVectorConfig { schedule, ..Default::default() };
            assert!(invalid(statevector::evolve(&model, &exact).map(drop)), "T = {total_time}");
        }
    }

    #[test]
    fn an_expired_budget_yields_a_best_effort_truncated_report() {
        use qhdcd_qubo::CancelToken;
        let model = model(30, 0.2, 9);
        let solver = QhdSolver::builder().samples(4).threads(2).steps(60).seed(1).build();
        assert!(solver.solve(&model).unwrap().completion.is_full());
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = Budget::unlimited().cancelled_by(&cancel);
        let report = solver.solve_bounded(&model, None, &budget).unwrap();
        // Sample 0 still runs (with its evolution cut short), so the report
        // carries a valid incumbent marked truncated.
        assert!(!report.completion.is_full());
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
    }

    #[test]
    fn report_iterations_count_samples() {
        let model = model(10, 0.4, 0);
        let solver = QhdSolver::builder().samples(5).steps(40).build();
        let report = solver.solve(&model).unwrap();
        assert_eq!(report.iterations, 5);
    }

    /// 64-bit FNV-1a over a solution, one byte per variable.
    fn fnv(solution: &[bool]) -> u64 {
        solution
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    /// Pins captured before the samples ran on `qhdcd_solvers::runtime`: the
    /// solution's FNV, the objective bits, `iterations` and `completion` at 1,
    /// 2 and 8 threads. Each case moves if sample `k` is seeded `seed + k + 1`.
    #[test]
    fn solve_bounded_output_is_pinned_on_every_sample_path() {
        use qhdcd_qubo::CancelToken;
        use Completion::{Full, Truncated};
        let cancel = CancelToken::new();
        cancel.cancel();
        let (unlimited, capped) = (Budget::unlimited(), Budget::unlimited().with_restart_cap(3));
        let cancelled = Budget::unlimited().cancelled_by(&cancel);
        // 12 variables is the largest size `Backend::Auto` simulates exactly,
        // 150 at density 0.05 descend pair-aware, and 700 at density 0.85 have
        // more than 200 000 couplings, so they fall back to 1-opt.
        let (exact, mid, dense) = (model(12, 0.3, 2), model(150, 0.05, 7), model(700, 0.85, 1));
        assert!(dense.num_quadratic_terms() > 200_000);
        let auto = QhdSolver::builder().samples(2).steps(50).shots(16).total_time(1000.0).seed(3);
        let mf = QhdSolver::builder().backend(Backend::MeanField).steps(10).seed(3);
        let cases = [
            ("exact", &exact, auto, &unlimited),
            ("no descent", &mid, mf.clone().samples(9).shots(1).refine_sweeps(0), &unlimited),
            ("pair-aware", &mid, mf.clone().samples(9).shots(1), &unlimited),
            ("1-opt", &dense, mf.clone().samples(2).shots(2), &unlimited),
            ("capped", &mid, mf.clone().samples(9).shots(1), &capped),
            ("cancelled", &mid, mf.samples(9).shots(1), &cancelled),
        ];
        let pins = [
            (0xa4fed8dd2de5a3c4, 0xbffd7b1507b0a428, 2, Full),
            (0x3e3513cb738093ff, 0xc04411329e6cc8c1, 9, Full),
            (0x23e27a74c770a39d, 0xc0507f07a0c53082, 9, Full),
            (0x4ea618bd1087aca1, 0xc0a712b1747257d6, 2, Full),
            (0x23e27a74c770a39d, 0xc0507f07a0c53082, 3, Truncated { completed_restarts: 3 }),
            (0x23e27a74c770a39d, 0xc0507f07a0c5307f, 1, Truncated { completed_restarts: 0 }),
        ];
        for ((name, model, builder, budget), pin) in cases.into_iter().zip(pins) {
            for threads in [1, 2, 8] {
                let solver = builder.clone().threads(threads).build();
                let report = solver.solve_bounded(model, None, budget).unwrap();
                let got = (
                    fnv(&report.solution),
                    report.objective.to_bits(),
                    report.iterations,
                    report.completion,
                );
                assert_eq!(got, pin, "{name}, threads={threads}: {got:#x?}");
            }
        }
    }

    /// Configuration errors keep their messages and their precedence.
    #[test]
    fn configuration_errors_are_pinned() {
        let message = |model: &QuboModel, builder: QhdConfigBuilder| {
            builder.threads(2).build().solve(model).unwrap_err().to_string()
        };
        let (small, wide) = (model(8, 0.5, 1), model(60, 0.1, 1));
        let nan_time = QhdSolver::builder().total_time(f64::NAN);
        let exact = QhdSolver::builder().backend(Backend::Exact);
        let coarse_grid = QhdSolver::builder().backend(Backend::MeanField).grid_resolution(2);
        let time = "invalid configuration: total_time must be finite and positive, got NaN";
        let size = "invalid configuration: exact state-vector backend supports 1..=18 variables, \
                    got 60";
        let grid = "invalid configuration: grid resolution must be at least 4, got 2";
        assert_eq!(message(&small, nan_time.clone()), time);
        assert_eq!(message(&wide, nan_time), time);
        assert_eq!(message(&wide, exact.clone()), size);
        assert_eq!(message(&wide, coarse_grid.clone()), grid);
        // Size is checked before time, and time before the grid.
        assert_eq!(message(&wide, exact.total_time(f64::NAN)), size);
        assert_eq!(message(&wide, coarse_grid.total_time(f64::NAN)), time);
    }
}
