//! Scalable mean-field (product-state) QHD simulation.
//!
//! Simulating the full QHD wavefunction is exponential in the number of
//! variables; QHDOPT makes the dynamics tractable on GPUs by discretising and
//! batching matrix operations. This module implements the standard *mean-field*
//! (self-consistent product-state) surrogate of the same dynamics: each binary
//! variable `x_i` carries its own wavefunction `ψ_i` on a `[0,1]` grid and
//! evolves under
//!
//! ```text
//! i ∂ψ_i/∂t = [ e^{φ_t} (−½ d²/dx²) + e^{χ_t} · h_i(t) · x ] ψ_i,
//! h_i(t) = b_i + Σ_j W_ij ⟨x_j⟩(t),
//! ```
//!
//! i.e. the coupling enters through the expectation values of the other
//! variables. A time step is a Strang split (half potential phase, full
//! Crank–Nicolson kinetic step, half potential phase) followed by a refresh of
//! the expectation values — only diagonal multiplications and tridiagonal
//! solves, exactly the "matrix multiplications only" structure the paper
//! exploits for GPU acceleration. Measurement draws each `x_i` from the mass of
//! `|ψ_i|²` on the upper half of the interval.
//!
//! # Engine
//!
//! [`evolve`] runs on the batched structure-of-arrays engine
//! ([`crate::batch::WaveBatch`]): all wavefunctions live in two split re/im
//! `f64` planes in grid-point-major layout, the Crank–Nicolson system is
//! factored **once per step** ([`crate::grid::ThomasFactors`]) and shared by
//! every variable, and all per-step scratch lives in reusable
//! [`crate::batch::MeanFieldWorkspace`]s — the per-step loop performs zero
//! heap allocations. Each step's mean fields come from one gather,
//! `QuboModel::mean_fields`: on a model that declares a `node·k + slot`
//! layout (every `build_qubo` model does) it walks each node's coupling row
//! once for all `k` slots, elsewhere each variable's own row, and either way
//! every field has the bits of `QuboModel::mean_field`. The per-step variable
//! sweep can be sharded over worker threads ([`MeanFieldConfig::threads`])
//! with bit-identical results for every thread count (see the determinism
//! contract in [`crate::batch`]). On
//! `x86_64` CPUs with AVX2 the per-step kernels run an AVX2 build of the same
//! source, four variables per instruction; it produces the plain build's
//! bits, so results do not depend on the CPU either.
//!
//! [`evolve_reference`] retains the per-variable AoS formulation (one
//! [`Grid::kinetic_step`] call per variable per step, always on the scalar
//! kernels). It exists as the equivalence reference for the batch engine —
//! see `tests/solver_equivalence.rs`, which pins the two bit for bit — and is
//! not otherwise used by the solver.

use crate::batch::{MeanFieldWorkspace, WaveBatch};
use crate::complex::Complex;
use crate::grid::{Grid, ThomasFactors};
use crate::schedule::{check_total_time, Schedule};
use qhdcd_qubo::{Budget, LocalFieldState, QuboError, QuboModel};
use qhdcd_solvers::runtime::{resolve_threads, shard_ranges};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Configuration of a mean-field QHD trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanFieldConfig {
    /// The damping schedule (and total evolution time).
    pub schedule: Schedule,
    /// Number of time steps.
    pub steps: usize,
    /// Number of grid points per variable wavefunction.
    pub grid_resolution: usize,
    /// Number of measurement shots drawn from the final product state.
    pub shots: usize,
    /// RNG seed controlling the initial wave packets and the measurement shots.
    pub seed: u64,
    /// Whether to start from randomised Gaussian packets (`true`) or the
    /// uniform superposition (`false`). Random packets give sample diversity.
    pub randomize_initial_state: bool,
    /// Worker threads sharding the per-step variable sweep (`0` = all
    /// available parallelism, `1` = serial). Results are bit-identical for
    /// every value — see the determinism contract in [`crate::batch`].
    pub threads: usize,
}

impl Default for MeanFieldConfig {
    fn default() -> Self {
        MeanFieldConfig {
            schedule: Schedule::default_qhd(10.0),
            steps: 150,
            grid_resolution: 32,
            shots: 16,
            seed: 0,
            randomize_initial_state: true,
            threads: 1,
        }
    }
}

/// Result of a mean-field QHD trajectory.
#[derive(Debug, Clone)]
pub struct MeanFieldOutcome {
    /// Best measured assignment.
    pub best_solution: Vec<bool>,
    /// Energy of the best measured assignment.
    pub best_energy: f64,
    /// Final expectation values `⟨x_i⟩` of every variable.
    pub expectations: Vec<f64>,
    /// Final measurement probabilities `P(x_i = 1)` (upper-half mass of `|ψ_i|²`),
    /// from which further candidate roundings can be drawn.
    pub probabilities: Vec<f64>,
    /// Number of integration steps actually performed. Equal to the configured
    /// step count unless the trajectory was cut short by a [`Budget`]
    /// (see [`evolve_bounded`]); measurement then reads the state reached so
    /// far, so the outcome is still a valid (best-effort) sample.
    pub steps_completed: usize,
}

/// Runs one mean-field QHD trajectory for `model` on the batched SoA engine.
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] if the configuration is degenerate
/// (zero steps, tiny grid, empty model, or a schedule whose total time is not
/// finite and positive).
///
/// # Example
///
/// ```
/// use qhdcd_qubo::QuboBuilder;
/// use qhdcd_qhd::meanfield::{evolve, MeanFieldConfig};
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(0, -1.0)?;
/// b.add_quadratic(1, 2, 2.0)?;
/// let model = b.build();
/// let out = evolve(&model, &MeanFieldConfig::default())?;
/// assert_eq!(out.best_solution.len(), 3);
/// assert!(out.best_solution[0]);
/// # Ok(())
/// # }
/// ```
pub fn evolve(model: &QuboModel, config: &MeanFieldConfig) -> Result<MeanFieldOutcome, QuboError> {
    evolve_bounded(model, config, &Budget::unlimited())
}

/// Runs one mean-field QHD trajectory under an anytime [`Budget`].
///
/// The budget is observed at every step boundary (in the sharded sweep a
/// single leader worker takes the decision and a barrier publishes it, so all
/// workers stop at the same step). On expiry the step loop stops early and
/// measurement runs on the state reached so far — the outcome is a valid
/// best-effort sample with [`MeanFieldOutcome::steps_completed`] recording how
/// far the evolution got.
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] for the same degenerate configurations
/// as [`evolve`]; budget expiry is not an error.
pub fn evolve_bounded(
    model: &QuboModel,
    config: &MeanFieldConfig,
    budget: &Budget,
) -> Result<MeanFieldOutcome, QuboError> {
    let n = model.num_variables();
    let grid = validate(model, config)?;
    let resolution = grid.resolution();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    // Normalise the energy scale so the default schedule works across instances:
    // use the maximum absolute local field as a proxy for the energy span.
    let scale = energy_scale(model).max(1e-12);

    // One contiguous column block (WaveBatch + workspace) per sweep worker.
    // The partition is by contiguous variable ranges, so expectation slices
    // split cleanly and results are bit-identical for every worker count.
    let workers = resolve_threads(config.threads, n);
    let ranges = shard_ranges(n, workers);
    let mut blocks: Vec<WaveBatch> =
        ranges.iter().map(|r| WaveBatch::zeros(r.len(), resolution)).collect();
    let mut workspaces: Vec<MeanFieldWorkspace> =
        blocks.iter().map(MeanFieldWorkspace::for_batch).collect();

    // Initial product state. The randomised parameters are still drawn per
    // variable in ascending order (the RNG consumption is independent of the
    // block partition), but the packet generation itself is batched: one
    // grid-point-major sweep per block instead of a per-variable scatter,
    // bit-identical by the `gaussian_state_batch` contract.
    if config.randomize_initial_state {
        let mut centers = Vec::new();
        let mut widths = Vec::new();
        for (range, block) in ranges.iter().zip(blocks.iter_mut()) {
            centers.clear();
            widths.clear();
            for _ in 0..range.len() {
                centers.push(rng.gen_range(0.25..0.75));
                widths.push(rng.gen_range(0.15..0.35));
            }
            grid.gaussian_state_batch(block, &centers, &widths);
        }
    } else {
        let uniform = grid.uniform_state();
        for (range, block) in ranges.iter().zip(blocks.iter_mut()) {
            for local in 0..range.len() {
                block.set_variable(local, &uniform);
            }
        }
    }
    let mut expectations = vec![0.0f64; n];
    for ((range, block), ws) in ranges.iter().zip(&blocks).zip(workspaces.iter_mut()) {
        grid.expectation_position_batch(block, &mut expectations[range.clone()], ws);
    }

    let dt = config.schedule.total_time() / config.steps as f64;
    let mut steps_completed = 0usize;
    if workers == 1 {
        let mut slopes = vec![0.0f64; n];
        let mut factors = ThomasFactors::new();
        for step in 0..config.steps {
            if budget.is_exhausted() {
                break;
            }
            let t = step as f64 * dt;
            let kinetic_coeff = config.schedule.kinetic(t);
            let potential_coeff = config.schedule.potential(t);
            // All wavefunctions in a step see the same expectation vector.
            // Each mean field h_i = b_i + Σ_j W_ij ⟨x_j⟩ is gathered by
            // `QuboModel::mean_fields`: along variable i's adjacency row, or,
            // on a model with declared node slots, along its node's slot-0
            // row once for all the node's slots. Either way every field sums
            // its terms in ascending j, the order the flat sweep of
            // `evolve_reference` does, bit for bit. The field is reduced to
            // the per-variable potential slope.
            model.mean_fields(&expectations, 0..n, &mut slopes);
            for slope in &mut slopes {
                *slope = potential_coeff * (*slope / scale);
            }
            // The Crank–Nicolson system depends only on (kinetic_coeff, dt,
            // h): factor it once and share it across every variable.
            factors.factor(&grid, kinetic_coeff, dt);
            sweep_block(
                &grid,
                &mut blocks[0],
                &slopes,
                dt,
                &factors,
                &mut workspaces[0],
                &mut expectations,
            );
            steps_completed += 1;
        }
    } else {
        // Sharded sweep with persistent workers: one scoped thread per
        // contiguous column block for the *whole* trajectory (spawning per
        // step would pay thread-creation costs comparable to a worker's
        // per-step share). Two barriers per step separate the read phase
        // (every worker copies the published expectations and derives its
        // own variables' mean fields from the copy) from the publish phase
        // (every worker stores its own variables' refreshed expectations into
        // disjoint atomic cells), so no worker ever reads a half-updated
        // vector. Each worker gathers its own range's fields with the serial
        // path's gather (`QuboModel::mean_fields` over the same expectation
        // values; a node the range boundary cuts goes row by row, with the
        // same bits), and the per-step Thomas factorization is O(resolution),
        // so recomputing it per worker is free; results are therefore
        // bit-identical to the serial path. See crate::batch for the full
        // determinism contract.
        let shared: Vec<AtomicU64> =
            expectations.iter().map(|e| AtomicU64::new(e.to_bits())).collect();
        let barrier = std::sync::Barrier::new(blocks.len());
        // The anytime stop decision is taken by a single leader worker (the
        // block holding variable 0) and published through a barrier, so every
        // worker leaves the step loop at the same step — a per-worker budget
        // check could strand workers on the phase barriers below.
        let stop = AtomicBool::new(false);
        let performed = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for ((range, block), ws) in
                ranges.iter().zip(blocks.iter_mut()).zip(workspaces.iter_mut())
            {
                let (shared, barrier, grid, schedule) =
                    (&shared, &barrier, &grid, &config.schedule);
                let (stop, performed) = (&stop, &performed);
                let range = range.clone();
                scope.spawn(move |_| {
                    let leader = range.start == 0;
                    let nb = block.num_variables();
                    let mut published = vec![0.0f64; n];
                    let mut slopes = vec![0.0f64; nb];
                    let mut local_exp = vec![0.0f64; nb];
                    let mut factors = ThomasFactors::new();
                    for step in 0..config.steps {
                        if leader {
                            stop.store(budget.is_exhausted(), Ordering::Relaxed);
                        }
                        // Everyone sees the leader's decision for this step.
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let t = step as f64 * dt;
                        let kinetic_coeff = schedule.kinetic(t);
                        let potential_coeff = schedule.potential(t);
                        for (e, cell) in published.iter_mut().zip(shared) {
                            *e = f64::from_bits(cell.load(Ordering::Relaxed));
                        }
                        model.mean_fields(&published, range.clone(), &mut slopes);
                        for slope in &mut slopes {
                            *slope = potential_coeff * (*slope / scale);
                        }
                        // Everyone has read this step's expectations.
                        barrier.wait();
                        factors.factor(grid, kinetic_coeff, dt);
                        sweep_block(grid, block, &slopes, dt, &factors, ws, &mut local_exp);
                        for (local, i) in range.clone().enumerate() {
                            shared[i].store(local_exp[local].to_bits(), Ordering::Relaxed);
                        }
                        if leader {
                            performed.store(step + 1, Ordering::Relaxed);
                        }
                        // Everyone has published before the next read phase.
                        barrier.wait();
                    }
                });
            }
        })
        .expect("mean-field sweep workers do not panic");
        for (e, cell) in expectations.iter_mut().zip(&shared) {
            *e = f64::from_bits(cell.load(Ordering::Relaxed));
        }
        steps_completed = performed.load(Ordering::Relaxed);
    }

    // Measurement distribution from the final product state.
    let mut probabilities = vec![0.0f64; n];
    for ((range, block), ws) in ranges.iter().zip(&blocks).zip(workspaces.iter_mut()) {
        grid.probability_upper_half_batch(block, &mut probabilities[range.clone()], ws);
    }
    let (best_solution, best_energy) =
        measure_shots(model, &probabilities, config.shots, &mut rng)?;
    Ok(MeanFieldOutcome {
        best_solution,
        best_energy,
        expectations,
        probabilities,
        steps_completed,
    })
}

/// One Strang-split step plus expectation refresh for one column block.
fn sweep_block(
    grid: &Grid,
    block: &mut WaveBatch,
    slopes: &[f64],
    dt: f64,
    factors: &ThomasFactors,
    ws: &mut MeanFieldWorkspace,
    expectations: &mut [f64],
) {
    // Both half phases share the same slopes and dt, so the sin/cos rotations
    // are computed once and applied twice; the trailing half phase and the
    // expectation refresh are one fused traversal (one read pass over both
    // planes fewer per step, bit-identical to the separate kernels).
    grid.prepare_potential_phase_batch(block, slopes, dt / 2.0, ws);
    grid.apply_prepared_potential_phase_batch(block, ws);
    grid.kinetic_step_batch(block, factors, ws);
    grid.apply_prepared_phase_expectation_batch(block, expectations, ws);
}

/// Runs one mean-field QHD trajectory on the **per-variable AoS path**: one
/// `Vec<Complex>` wavefunction per variable, one [`Grid::kinetic_step`] /
/// [`Grid::apply_linear_potential_phase`] call (each an `n = 1` wrapper over
/// the batched kernels, with per-call split/merge and scratch
/// allocations) per variable per step.
///
/// Retained as the equivalence reference for the batched engine:
/// `tests/solver_equivalence.rs` pins the two paths to bit-identical
/// outcomes, and because the wrappers always run the kernels' plain build,
/// on a CPU with AVX2 the pin also covers the AVX2 build [`evolve`] runs
/// there. Both paths share `measure_shots`, so any divergence isolates
/// to the propagation kernels or the mean fields: this path computes the
/// fields with a flat sweep over the sorted pair list, the reference that
/// [`evolve`]'s gather (`QuboModel::mean_fields`, by row or by shared node
/// row) is pinned against. (The
/// `meanfield_throughput` bench times its own verbatim copy of the seed's
/// naive per-point kernels instead, so its speedup gate is not affected by
/// this dedup.)
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] for the same degenerate configurations
/// as [`evolve`].
pub fn evolve_reference(
    model: &QuboModel,
    config: &MeanFieldConfig,
) -> Result<MeanFieldOutcome, QuboError> {
    let n = model.num_variables();
    let grid = validate(model, config)?;
    let resolution = grid.resolution();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let scale = energy_scale(model).max(1e-12);

    // Flattened AoS product state (wavefunction `i` occupies
    // `states[i*resolution..(i+1)*resolution]`).
    let mut states: Vec<Complex> = Vec::with_capacity(n * resolution);
    for _ in 0..n {
        if config.randomize_initial_state {
            let center = rng.gen_range(0.25..0.75);
            let width = rng.gen_range(0.15..0.35);
            states.extend_from_slice(&grid.gaussian_state(center, width));
        } else {
            states.extend_from_slice(&grid.uniform_state());
        }
    }
    let mut expectations: Vec<f64> =
        states.chunks_exact(resolution).map(|psi| grid.expectation_position(psi)).collect();

    let dt = config.schedule.total_time() / config.steps as f64;
    let mut fields = vec![0.0f64; n];
    for step in 0..config.steps {
        let t = step as f64 * dt;
        let kinetic_coeff = config.schedule.kinetic(t);
        let potential_coeff = config.schedule.potential(t);
        fields.copy_from_slice(model.linear());
        for (i, j, w) in model.quadratic_terms() {
            fields[i] += w * expectations[j];
            fields[j] += w * expectations[i];
        }
        for (psi, &field) in states.chunks_exact_mut(resolution).zip(&fields) {
            // Effective linear-potential slope for this variable given the
            // mean field — the same expression as the batched sweep, so both
            // paths stay bit-identical.
            let slope = potential_coeff * (field / scale);
            // Strang split: half potential, full kinetic, half potential.
            grid.apply_linear_potential_phase(psi, slope, dt / 2.0);
            grid.kinetic_step(psi, kinetic_coeff, dt);
            grid.apply_linear_potential_phase(psi, slope, dt / 2.0);
        }
        // Refresh the mean fields after sweeping all variables.
        for (e, psi) in expectations.iter_mut().zip(states.chunks_exact(resolution)) {
            *e = grid.expectation_position(psi);
        }
    }

    let probabilities: Vec<f64> =
        states.chunks_exact(resolution).map(|psi| grid.probability_upper_half(psi)).collect();
    let (best_solution, best_energy) =
        measure_shots(model, &probabilities, config.shots, &mut rng)?;
    Ok(MeanFieldOutcome {
        best_solution,
        best_energy,
        expectations,
        probabilities,
        steps_completed: config.steps,
    })
}

/// Shared validation of [`evolve`] / [`evolve_reference`] configurations:
/// a non-empty model, positive steps, a total time that is finite and
/// positive and a grid resolution of at least 4, in that order. Returns the
/// grid the trajectory runs on.
pub(crate) fn validate(model: &QuboModel, config: &MeanFieldConfig) -> Result<Grid, QuboError> {
    if model.num_variables() == 0 {
        return Err(QuboError::InvalidConfig { reason: "model has no variables".into() });
    }
    if config.steps == 0 {
        return Err(QuboError::InvalidConfig { reason: "steps must be positive".into() });
    }
    check_total_time(config.schedule.total_time())?;
    Grid::new(config.grid_resolution)
}

/// Measurement: the deterministic rounding of the probabilities plus `shots`
/// random draws from the product distribution; keeps the best energy.
///
/// Shots are priced through [`LocalFieldState`] deltas: the engine starts at
/// the rounded incumbent and walks flip-by-flip to each drawn candidate, so a
/// shot costs O(Σ deg of the flipped variables) instead of a full O(n + nnz)
/// re-evaluation, and one candidate buffer is reused across all shots (no
/// per-shot `Vec<bool>` allocation). The selected assignment's energy is
/// re-evaluated exactly once at the end, so the reported energy carries no
/// incremental rounding drift.
fn measure_shots(
    model: &QuboModel,
    probabilities: &[f64],
    shots: usize,
    rng: &mut ChaCha8Rng,
) -> Result<(Vec<bool>, f64), QuboError> {
    let rounded: Vec<bool> = probabilities.iter().map(|&p| p > 0.5).collect();
    let mut state = LocalFieldState::try_new(model, rounded.clone())?;
    let mut best = rounded.clone();
    let mut best_energy = state.energy();
    let mut candidate = rounded;
    for _ in 0..shots {
        for (slot, &p) in candidate.iter_mut().zip(probabilities) {
            *slot = rng.gen::<f64>() < p;
        }
        // Walk the engine from the previous candidate to this one.
        for (i, &bit) in candidate.iter().enumerate() {
            if state.solution()[i] != bit {
                state.apply_flip(i);
            }
        }
        if state.energy() < best_energy {
            best_energy = state.energy();
            best.copy_from_slice(state.solution());
        }
    }
    // Exact energy of the winner (the incremental energy only ranked shots).
    let best_energy = model.evaluate(&best)?;
    Ok((best, best_energy))
}

/// A rough O(nnz) estimate of the instance's energy scale, used to normalise
/// the potential so that one schedule suits instances of any magnitude.
fn energy_scale(model: &QuboModel) -> f64 {
    let mut max_field = 0.0f64;
    for i in 0..model.num_variables() {
        let mut field = model.linear()[i].abs();
        for (_, w) in model.couplings(i) {
            field += w.abs();
        }
        max_field = max_field.max(field);
    }
    max_field
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    #[test]
    fn rejects_degenerate_configurations() {
        let model = QuboBuilder::new(0).build();
        assert!(evolve(&model, &MeanFieldConfig::default()).is_err());
        let model = QuboBuilder::new(2).build();
        assert!(
            evolve(&model, &MeanFieldConfig { steps: 0, ..MeanFieldConfig::default() }).is_err()
        );
        assert!(evolve(
            &model,
            &MeanFieldConfig { grid_resolution: 2, ..MeanFieldConfig::default() }
        )
        .is_err());
        assert!(
            evolve_reference(&model, &MeanFieldConfig { steps: 0, ..Default::default() }).is_err()
        );
    }

    #[test]
    fn solves_separable_instances_exactly() {
        // Separable objective: each variable independently prefers a known value.
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            // Even variables prefer 1 (negative linear term), odd prefer 0.
            b.add_linear(i, if i % 2 == 0 { -1.0 } else { 1.0 }).unwrap();
        }
        let model = b.build();
        let out = evolve(&model, &MeanFieldConfig::default()).unwrap();
        for i in 0..6 {
            assert_eq!(out.best_solution[i], i % 2 == 0, "variable {i}");
        }
        assert!((out.best_energy - (-3.0)).abs() < 1e-9);
    }

    #[test]
    fn expectations_track_the_preferred_values() {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -2.0).unwrap();
        b.add_linear(1, 2.0).unwrap();
        let model = b.build();
        let out = evolve(&model, &MeanFieldConfig::default()).unwrap();
        assert!(out.expectations[0] > 0.6, "⟨x0⟩ = {}", out.expectations[0]);
        assert!(out.expectations[1] < 0.4, "⟨x1⟩ = {}", out.expectations[1]);
    }

    #[test]
    fn couplings_are_respected() {
        // Strong ferromagnetic coupling with a field pinning x0 to 1: both end up 1.
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -1.0).unwrap();
        b.add_quadratic(0, 1, -2.0).unwrap();
        let model = b.build();
        let out = evolve(&model, &MeanFieldConfig::default()).unwrap();
        assert_eq!(out.best_solution, vec![true, true]);
    }

    #[test]
    fn beats_random_assignment_on_random_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 40,
                density: 0.2,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let out =
                evolve(&model, &MeanFieldConfig { seed, ..MeanFieldConfig::default() }).unwrap();
            // The raw (unrefined) mean-field outcome should clearly beat the
            // average energy of uniform random assignments; the full QHD solver
            // additionally applies classical refinement on top of this.
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 1000);
            let mut random_sum = 0.0;
            const DRAWS: usize = 32;
            for _ in 0..DRAWS {
                let x: Vec<bool> = (0..40).map(|_| rng.gen()).collect();
                random_sum += model.evaluate(&x).unwrap();
            }
            let random_mean = random_sum / DRAWS as f64;
            assert!(
                out.best_energy < random_mean,
                "seed={seed}: mean-field {} vs random mean {}",
                out.best_energy,
                random_mean
            );
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 15,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 4,
        })
        .unwrap();
        let cfg = MeanFieldConfig { seed: 99, ..MeanFieldConfig::default() };
        let a = evolve(&model, &cfg).unwrap();
        let b = evolve(&model, &cfg).unwrap();
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.best_energy, b.best_energy);
    }

    #[test]
    fn sharded_sweep_is_bit_identical_across_thread_counts() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 25,
            density: 0.25,
            coefficient_range: 1.0,
            seed: 8,
        })
        .unwrap();
        let base = MeanFieldConfig { seed: 3, steps: 40, ..MeanFieldConfig::default() };
        let serial = evolve(&model, &base).unwrap();
        for threads in [2usize, 3, 8] {
            let sharded = evolve(&model, &MeanFieldConfig { threads, ..base.clone() }).unwrap();
            assert_eq!(sharded.best_solution, serial.best_solution, "threads={threads}");
            assert_eq!(
                sharded.best_energy.to_bits(),
                serial.best_energy.to_bits(),
                "threads={threads}"
            );
            for i in 0..25 {
                assert_eq!(
                    sharded.expectations[i].to_bits(),
                    serial.expectations[i].to_bits(),
                    "threads={threads} expectation {i}"
                );
                assert_eq!(
                    sharded.probabilities[i].to_bits(),
                    serial.probabilities[i].to_bits(),
                    "threads={threads} probability {i}"
                );
            }
        }
    }

    #[test]
    fn batch_engine_matches_the_reference_path() {
        for seed in [0u64, 5, 11] {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 30,
                density: 0.2,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let cfg = MeanFieldConfig { seed, steps: 60, shots: 8, ..MeanFieldConfig::default() };
            let batch = evolve(&model, &cfg).unwrap();
            let reference = evolve_reference(&model, &cfg).unwrap();
            assert_eq!(batch.best_solution, reference.best_solution, "seed={seed}");
            assert_eq!(batch.best_energy.to_bits(), reference.best_energy.to_bits());
            for i in 0..30 {
                assert!(
                    (batch.expectations[i] - reference.expectations[i]).abs() < 1e-12,
                    "seed={seed} expectation {i}"
                );
                assert!(
                    (batch.probabilities[i] - reference.probabilities[i]).abs() < 1e-12,
                    "seed={seed} probability {i}"
                );
            }
        }
    }

    #[test]
    fn measurement_energies_match_exact_reevaluation() {
        // measure_shots ranks candidates incrementally but must report the
        // exactly re-evaluated energy of the winner.
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 21,
        })
        .unwrap();
        let out = evolve(&model, &MeanFieldConfig { seed: 2, ..Default::default() }).unwrap();
        assert_eq!(
            out.best_energy.to_bits(),
            model.evaluate(&out.best_solution).unwrap().to_bits()
        );
    }

    #[test]
    fn an_exhausted_budget_stops_the_evolution_but_still_measures() {
        use qhdcd_qubo::CancelToken;
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 20,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 14,
        })
        .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = Budget::unlimited().cancelled_by(&cancel);
        let cfg = MeanFieldConfig { seed: 6, steps: 50, ..MeanFieldConfig::default() };
        let serial = evolve_bounded(&model, &cfg, &budget).unwrap();
        assert_eq!(serial.steps_completed, 0);
        // Measurement still runs on the initial state: the sample is valid.
        assert_eq!(serial.best_solution.len(), 20);
        assert_eq!(
            serial.best_energy.to_bits(),
            model.evaluate(&serial.best_solution).unwrap().to_bits()
        );
        // The sharded path takes the same leader-decided stop at step 0.
        let sharded =
            evolve_bounded(&model, &MeanFieldConfig { threads: 3, ..cfg.clone() }, &budget)
                .unwrap();
        assert_eq!(sharded.steps_completed, 0);
        assert_eq!(sharded.best_solution, serial.best_solution);
        assert_eq!(sharded.best_energy.to_bits(), serial.best_energy.to_bits());
        // An unlimited budget performs every configured step.
        let full = evolve_bounded(&model, &cfg, &Budget::unlimited()).unwrap();
        assert_eq!(full.steps_completed, 50);
    }

    #[test]
    fn energy_scale_is_positive_for_nontrivial_models() {
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(0, 1, -3.0).unwrap();
        let model = b.build();
        assert!(energy_scale(&model) >= 3.0);
        let empty = QuboBuilder::new(2).build();
        assert_eq!(energy_scale(&empty), 0.0);
    }
}
