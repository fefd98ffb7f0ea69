//! The high-level QHD QUBO solver.
//!
//! [`QhdSolver`] drives many independent QHD samples (different random initial
//! wave packets and measurement seeds), each followed by classical greedy
//! refinement, and returns the best solution found. Samples are distributed
//! over worker threads with `crossbeam` scoped threads — the CPU stand-in for
//! the multi-GPU batching described in the paper (see README.md,
//! "Substitutions"). The solver implements [`QuboSolver`], so it is a drop-in
//! replacement for the classical baselines everywhere in the workspace.

use crate::meanfield::{self, MeanFieldConfig};
use crate::refine;
use crate::schedule::Schedule;
use crate::statevector::{self, StateVectorConfig, MAX_EXACT_VARIABLES};
use parking_lot::Mutex;
use qhdcd_qubo::{Budget, Completion, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which simulation backend the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Choose automatically: exact state-vector simulation for instances with
    /// at most [`MAX_EXACT_VARIABLES`] variables, mean-field otherwise.
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
    /// Worker threads used to run samples in parallel. `1` disables threading.
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

    /// Runs a single QHD sample with the given per-sample seed.
    ///
    /// Mirrors QHDOPT's hybrid structure: the quantum(-inspired) evolution
    /// produces a measurement distribution, several candidate roundings are
    /// drawn from it, and each is projected to a nearby local minimum by the
    /// classical refinement step; the best refined candidate wins.
    /// Returns the refined sample plus whether the trajectory was cut short by
    /// the budget (the exact backend's short dense evolutions are not
    /// interruptible mid-trajectory; they observe the budget between samples).
    fn run_sample(
        &self,
        model: &QuboModel,
        backend: Backend,
        seed: u64,
        budget: &Budget,
    ) -> Result<(Vec<bool>, f64, bool), QuboError> {
        use rand::prelude::*;
        let schedule = Schedule::default_qhd(self.config.total_time);
        // The pair-aware search costs O(nnz · average degree) per sweep, which is
        // the right tool for small and medium instances but too expensive for the
        // largest dense QUBOs; those fall back to the linear-time 1-opt descent.
        let pair_aware_limit = 200_000;
        let refine_one = |solution: Vec<bool>, energy: f64| -> (Vec<bool>, f64) {
            if self.config.refine_sweeps == 0 {
                (solution, energy)
            } else if model.num_quadratic_terms() <= pair_aware_limit {
                refine::pair_aware_descent(model, solution, self.config.refine_sweeps)
            } else {
                refine::first_improvement_descent(model, solution, self.config.refine_sweeps)
            }
        };
        match backend {
            Backend::Exact => {
                let out = statevector::evolve(
                    model,
                    &StateVectorConfig {
                        schedule,
                        steps: self.config.steps.max(50),
                        shots: self.config.shots.max(1),
                        seed,
                    },
                )?;
                let (solution, energy) = refine_one(out.best_solution, out.best_energy);
                Ok((solution, energy, false))
            }
            Backend::MeanField | Backend::Auto => {
                let steps = self.config.steps;
                let out = meanfield::evolve_bounded(
                    model,
                    &MeanFieldConfig {
                        schedule,
                        steps,
                        grid_resolution: self.config.grid_resolution,
                        shots: self.config.shots,
                        seed,
                        randomize_initial_state: true,
                        // Samples are already distributed over worker threads;
                        // keep each trajectory's variable sweep serial rather
                        // than oversubscribing with nested parallelism.
                        threads: 1,
                    },
                    budget,
                )?;
                let interrupted = out.steps_completed < steps;
                let (mut best, mut best_energy) = refine_one(out.best_solution, out.best_energy);
                // Refine additional roundings drawn from the final measurement
                // distribution (capped so the classical work stays bounded).
                let extra = self.config.shots.min(8);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                for _ in 0..extra {
                    let candidate: Vec<bool> =
                        out.probabilities.iter().map(|&p| rng.gen::<f64>() < p).collect();
                    let energy = model.evaluate(&candidate)?;
                    let (candidate, energy) = refine_one(candidate, energy);
                    if energy < best_energy {
                        best = candidate;
                        best_energy = energy;
                    }
                }
                Ok((best, best_energy, interrupted))
            }
        }
    }

    /// Shared implementation behind [`QuboSolver::solve`] and
    /// [`QuboSolver::solve_bounded`].
    ///
    /// Samples are reduced by `(energy, sample index)` with strict comparisons
    /// — the lowest sample index wins ties — so the result is a pure function
    /// of the set of completed samples, independent of worker count and
    /// completion order. The budget is observed between samples and inside
    /// each mean-field trajectory; budget-interrupted samples only stand in
    /// when no sample completed. A panicking sample is isolated and counted
    /// failed; [`QuboError::RestartPanicked`] is returned only when every
    /// sample that ran panicked.
    fn solve_impl(&self, model: &QuboModel, budget: &Budget) -> Result<SolveReport, QuboError> {
        struct Merge {
            /// Best fully-completed sample as `(solution, energy, index)`.
            best: Option<(Vec<bool>, f64, usize)>,
            /// Best budget-interrupted sample (used only if `best` is empty).
            best_interrupted: Option<(Vec<bool>, f64, usize)>,
            completed: u64,
            failed: Vec<(usize, String)>,
            first_error: Option<QuboError>,
            budget_hit: bool,
        }
        fn reduce(slot: &mut Option<(Vec<bool>, f64, usize)>, candidate: (Vec<bool>, f64, usize)) {
            let better = match slot {
                None => true,
                Some((_, e, k)) => candidate.1 < *e || (candidate.1 == *e && candidate.2 < *k),
            };
            if better {
                *slot = Some(candidate);
            }
        }

        let start = Instant::now();
        let backend = self.backend_for(model);
        let configured = self.config.samples.max(1);
        // A restart cap truncates the sample schedule itself (mirroring the
        // portfolio runtime); sample 0 always runs for a best-effort result.
        let samples = match budget.restart_cap() {
            Some(cap) => configured.min(cap.max(1) as usize),
            None => configured,
        };
        let cap_truncated = samples < configured;
        let threads = self.config.threads.max(1).min(samples);

        let merge = Mutex::new(Merge {
            best: None,
            best_interrupted: None,
            completed: 0,
            failed: Vec::new(),
            first_error: None,
            budget_hit: false,
        });

        let run_range = |range: std::ops::Range<usize>| {
            for k in range {
                // Sample 0 always runs so an already-expired budget still
                // yields a best-effort incumbent.
                if k != 0 && budget.is_exhausted() {
                    merge.lock().budget_hit = true;
                    return;
                }
                let seed = self.config.seed.wrapping_add(k as u64);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.run_sample(model, backend, seed, budget)
                }));
                let mut guard = merge.lock();
                match outcome {
                    Ok(Ok((solution, energy, false))) => {
                        guard.completed += 1;
                        reduce(&mut guard.best, (solution, energy, k));
                    }
                    Ok(Ok((solution, energy, true))) => {
                        guard.budget_hit = true;
                        reduce(&mut guard.best_interrupted, (solution, energy, k));
                    }
                    Ok(Err(e)) => {
                        if guard.first_error.is_none() {
                            guard.first_error = Some(e);
                        }
                        return;
                    }
                    Err(payload) => {
                        let message = qhdcd_solvers::runtime::panic_message(payload.as_ref());
                        guard.failed.push((k, message));
                    }
                }
            }
        };

        if threads <= 1 {
            run_range(0..samples);
        } else {
            // Static partition of the sample indices over the worker threads —
            // the CPU analogue of batching trajectories across GPUs, using the
            // same contiguous sharding as the restart runtime.
            crossbeam::thread::scope(|scope| {
                for range in qhdcd_solvers::runtime::shard_ranges(samples, threads) {
                    let run_range = &run_range;
                    scope.spawn(move |_| run_range(range));
                }
            })
            .expect("QHD sample workers isolate panics internally");
        }

        let merged = merge.into_inner();
        if let Some(err) = merged.first_error {
            return Err(err);
        }
        let completed = merged.completed;
        // Samples can also be missing because they panicked; panics alone do
        // not mark the run truncated — only budget skips, interruptions and
        // schedule caps do.
        let truncated = merged.budget_hit || cap_truncated;
        let (solution, objective, completion) = match (merged.best, merged.best_interrupted) {
            (Some((solution, objective, _)), _) => {
                let completion = if truncated {
                    Completion::Truncated { completed_restarts: completed }
                } else {
                    Completion::Full
                };
                (solution, objective, completion)
            }
            (None, Some((solution, objective, _))) => {
                (solution, objective, Completion::Truncated { completed_restarts: 0 })
            }
            (None, None) => {
                let (restart, message) = merged
                    .failed
                    .into_iter()
                    .min_by_key(|(k, _)| *k)
                    .expect("at least one sample ran");
                return Err(QuboError::RestartPanicked { restart, message });
            }
        };
        Ok(SolveReport {
            solution,
            objective,
            status: SolveStatus::Heuristic,
            elapsed: start.elapsed(),
            iterations: completed.max(1),
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
    use qhdcd_qubo::QuboBuilder;

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
        let forced = QhdSolver::builder().backend(Backend::MeanField).build();
        assert_eq!(forced.backend_for(&small), Backend::MeanField);
    }

    #[test]
    fn finds_the_optimum_of_small_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 8,
                density: 0.5,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
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
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 77,
        })
        .unwrap();
        let serial = QhdSolver::builder().samples(4).threads(1).seed(5).steps(60).build();
        let parallel = QhdSolver::builder().samples(4).threads(4).seed(5).steps(60).build();
        let rs = serial.solve(&model).unwrap();
        let rp = parallel.solve(&model).unwrap();
        // Same seeds and same per-sample work ⇒ identical best energies.
        assert_eq!(rs.objective, rp.objective);
    }

    #[test]
    fn refinement_only_improves_solutions() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 40,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 13,
        })
        .unwrap();
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
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 6,
            density: 0.5,
            coefficient_range: 1.0,
            seed: 2,
        })
        .unwrap();
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
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 9,
        })
        .unwrap();
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
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 10,
            density: 0.4,
            coefficient_range: 1.0,
            seed: 0,
        })
        .unwrap();
        let solver = QhdSolver::builder().samples(5).steps(40).build();
        let report = solver.solve(&model).unwrap();
        assert_eq!(report.iterations, 5);
    }
}
