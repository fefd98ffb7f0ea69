//! Trajectory-equivalence tests for the incremental local-field rewrite.
//!
//! Every single-flip search loop in the workspace was rewritten from naive
//! per-candidate `QuboModel::flip_delta` scans onto the O(1)
//! `LocalFieldState` engine. These tests keep naive-engine copies of those
//! loops (including their exact RNG consumption patterns) and assert that for
//! fixed seeds the rewritten solvers walk the **identical trajectory**: same
//! final assignment, bit for bit, and the same energy after exact
//! re-evaluation. Accumulated energies are additionally pinned to the exact
//! energy within 1e-9.
//!
//! The descent copies are verbatim seed implementations. The SA/tabu copies
//! follow the *current* restart schedule (per-restart ChaCha streams derived
//! with `runtime::restart_stream_seed`, introduced with the parallel restart
//! portfolio runtime) and the portfolio's all-zero floor, and are compared
//! with one-member portfolios — what they pin is the engine arithmetic, not
//! the seeding scheme.

// The naive implementations below are verbatim seed code; lints that would
// rewrite them are suppressed so they stay byte-comparable with history.
#![allow(clippy::needless_range_loop)]

use qhdcd::qubo::generate::{random_qubo, RandomQuboConfig};
use qhdcd::qubo::{QuboModel, QuboSolver};
use qhdcd::solvers::runtime::restart_stream_seed;
use qhdcd::solvers::{PortfolioSolver, Strategy};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn instance(n: usize, density: f64, seed: u64) -> QuboModel {
    random_qubo(&RandomQuboConfig { num_variables: n, density, coefficient_range: 1.0, seed })
        .unwrap()
}

/// Seed implementation of first-improvement descent.
fn naive_first_improvement(
    model: &QuboModel,
    mut x: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    let mut energy = model.evaluate(&x).unwrap();
    for _ in 0..max_sweeps {
        let mut improved = false;
        for i in 0..x.len() {
            let delta = model.flip_delta(&x, i);
            if delta < -1e-15 {
                x[i] = !x[i];
                energy += delta;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (x, energy)
}

/// Seed implementation of the pair-flip delta (per-candidate CSR scan for w_ij).
fn naive_pair_flip_delta(model: &QuboModel, x: &[bool], i: usize, j: usize) -> f64 {
    let w_ij: f64 = model.couplings(i).filter(|&(v, _)| v == j).map(|(_, w)| w).sum();
    let sign = |b: bool| if b { -1.0 } else { 1.0 };
    model.flip_delta(x, i) + model.flip_delta(x, j) + w_ij * sign(x[i]) * sign(x[j])
}

/// Seed implementation of the pair-aware descent (partner-list allocation and all).
fn naive_pair_aware_descent(
    model: &QuboModel,
    solution: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    let mut x = solution;
    let mut energy = model.evaluate(&x).unwrap();
    for _ in 0..max_sweeps {
        let mut improved = false;
        for i in 0..x.len() {
            let delta = model.flip_delta(&x, i);
            if delta < -1e-15 {
                x[i] = !x[i];
                energy += delta;
                improved = true;
            }
        }
        for i in 0..x.len() {
            let partners: Vec<usize> =
                model.couplings(i).filter(|&(j, _)| j > i).map(|(j, _)| j).collect();
            for j in partners {
                let delta = naive_pair_flip_delta(model, &x, i, j);
                if delta < -1e-15 {
                    x[i] = !x[i];
                    x[j] = !x[j];
                    energy += delta;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (x, energy)
}

/// Naive-engine implementation of an annealing-only portfolio solve, using
/// per-candidate `QuboModel::flip_delta` scans but the *production* restart
/// schedule: restart `k` draws from its own ChaCha stream derived with
/// `runtime::restart_stream_seed` (every restart-based solver runs on the
/// parallel portfolio runtime), and the per-restart best is reduced by
/// `(energy, restart index)`. A rejected `delta <= 0` short-circuit consumes
/// no acceptance draw, exactly as in the solver.
fn naive_simulated_annealing(
    model: &QuboModel,
    seed: u64,
    restarts: usize,
    sweeps: usize,
    initial_temperature: f64,
    final_temperature: f64,
) -> (Vec<bool>, f64) {
    let n = model.num_variables();
    let scale = model
        .linear()
        .iter()
        .map(|v| v.abs())
        .chain(model.quadratic_terms().map(|(_, _, w)| w.abs()))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let t_start = initial_temperature * scale;
    let t_end = final_temperature * scale;
    let cooling = (t_end / t_start).powf(1.0 / sweeps as f64);
    let mut best: Option<(Vec<bool>, f64)> = None;
    for k in 0..restarts {
        let mut rng = ChaCha8Rng::seed_from_u64(restart_stream_seed(seed, k as u64));
        let mut x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let mut e = model.evaluate(&x).unwrap();
        let mut restart_best = x.clone();
        let mut restart_best_e = e;
        let mut temperature = t_start;
        for _ in 0..sweeps {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let delta = model.flip_delta(&x, i);
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                    x[i] = !x[i];
                    e += delta;
                    if e < restart_best_e {
                        restart_best_e = e;
                        restart_best.copy_from_slice(&x);
                    }
                }
            }
            temperature *= cooling;
        }
        if best.as_ref().is_none_or(|(_, be)| restart_best_e < *be) {
            best = Some((restart_best, restart_best_e));
        }
    }
    let (best, best_e) = best.unwrap();
    all_zero_floor(model, best, best_e)
}

/// The portfolio keeps the all-zero assignment as a floor under its best
/// restart.
fn all_zero_floor(model: &QuboModel, best: Vec<bool>, best_e: f64) -> (Vec<bool>, f64) {
    let zero = vec![false; model.num_variables()];
    let zero_e = model.evaluate(&zero).unwrap();
    if zero_e < best_e {
        (zero, zero_e)
    } else {
        (best, best_e)
    }
}

/// Naive-engine implementation of a tabu-only portfolio solve with a single
/// restart, on the production restart stream.
fn naive_tabu(
    model: &QuboModel,
    seed: u64,
    iterations: usize,
    tenure: Option<usize>,
) -> (Vec<bool>, f64) {
    let n = model.num_variables();
    let tenure =
        tenure.unwrap_or_else(|| (n / 10).max(10).min(n / 2)).min(n.saturating_sub(1)).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(restart_stream_seed(seed, 0));
    let random_start: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let (mut x, mut e) = naive_first_improvement(model, random_start, 50);
    let mut best = x.clone();
    let mut best_e = e;
    let mut tabu_until = vec![0usize; n];
    for iter in 0..iterations {
        let mut chosen: Option<(usize, f64)> = None;
        for i in 0..n {
            let delta = model.flip_delta(&x, i);
            let aspires = e + delta < best_e - 1e-12;
            if tabu_until[i] > iter && !aspires {
                continue;
            }
            if chosen.is_none_or(|(_, d)| delta < d) {
                chosen = Some((i, delta));
            }
        }
        let Some((i, delta)) = chosen else { break };
        x[i] = !x[i];
        e += delta;
        tabu_until[i] = iter + 1 + tenure;
        if e < best_e - 1e-12 {
            best_e = e;
            best.copy_from_slice(&x);
        }
    }
    all_zero_floor(model, best, best_e)
}

fn random_assignment(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn first_improvement_walks_the_seed_trajectory() {
    for seed in 0..5u64 {
        let model = instance(120, 0.05, seed);
        let start = random_assignment(120, seed ^ 0x1234);
        let (naive_x, naive_e) = naive_first_improvement(&model, start.clone(), 200);
        let (new_x, new_e) = qhdcd::qhd::refine::first_improvement_descent(&model, start, 200);
        assert_eq!(new_x, naive_x, "seed={seed}");
        assert!((new_e - naive_e).abs() < 1e-9, "seed={seed}");
        assert!((model.evaluate(&new_x).unwrap() - new_e).abs() < 1e-9);
    }
}

#[test]
fn pair_aware_descent_walks_the_seed_trajectory() {
    for seed in 0..5u64 {
        let model = instance(50, 0.15, seed);
        let start = random_assignment(50, seed ^ 0x77);
        let (naive_x, naive_e) = naive_pair_aware_descent(&model, start.clone(), 100);
        let (new_x, new_e) = qhdcd::qhd::refine::pair_aware_descent(&model, start, 100);
        assert_eq!(new_x, naive_x, "seed={seed}");
        assert!((new_e - naive_e).abs() < 1e-9, "seed={seed}");
        assert!((model.evaluate(&new_x).unwrap() - new_e).abs() < 1e-9);
    }
}

#[test]
fn simulated_annealing_reproduces_seed_solver_outputs() {
    for seed in 0..4u64 {
        let model = instance(60, 0.1, seed);
        let mut solver = PortfolioSolver::default()
            .with_strategies(vec![Strategy::Annealing {
                initial_temperature: 2.0,
                final_temperature: 0.01,
            }])
            .with_restarts(4)
            .with_seed(seed);
        solver.config.sweeps = 200;
        let report = solver.solve(&model).unwrap();
        let (naive_best, naive_e) = naive_simulated_annealing(&model, seed, 4, 200, 2.0, 0.01);
        assert_eq!(report.solution, naive_best, "seed={seed}");
        assert_eq!(
            model.evaluate(&report.solution).unwrap(),
            model.evaluate(&naive_best).unwrap(),
            "seed={seed}"
        );
        assert!((report.objective - naive_e).abs() < 1e-9, "seed={seed}");
    }
}

#[test]
fn tabu_search_reproduces_seed_solver_outputs() {
    for seed in 0..4u64 {
        let model = instance(60, 0.1, seed);
        let mut solver = PortfolioSolver::default()
            .with_strategies(vec![Strategy::Tabu { tenure: None }])
            .with_restarts(1)
            .with_seed(seed);
        solver.config.sweeps = 800;
        let report = solver.solve(&model).unwrap();
        let (naive_best, naive_e) = naive_tabu(&model, seed, 800, None);
        assert_eq!(report.solution, naive_best, "seed={seed}");
        assert!((report.objective - naive_e).abs() < 1e-9, "seed={seed}");
    }
}

#[test]
fn multi_start_greedy_is_deterministic_and_exactly_reevaluable() {
    for seed in 0..3u64 {
        let model = instance(70, 0.1, seed);
        let greedy =
            PortfolioSolver::default().with_strategies(vec![Strategy::Greedy]).with_seed(seed);
        let a = greedy.solve(&model).unwrap();
        let b = greedy.solve(&model).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.objective, b.objective);
        assert!((model.evaluate(&a.solution).unwrap() - a.objective).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Mean-field batch engine vs the retained per-variable AoS reference.
//
// `qhdcd::qhd::meanfield::evolve` runs on the batched SoA engine (split re/im
// planes, shared per-step Thomas factorization, allocation-free workspaces,
// optional sharded sweep). `evolve_reference` retains the original
// per-variable formulation on the scalar kernels; these tests pin the two
// paths together: outcomes bit-identical, states within 1e-12, and the
// sharded sweep bit-identical for every worker count. On a CPU with AVX2,
// `evolve` runs the kernels' AVX2 build and the reference their plain build,
// so the first pin is also the trajectory-level AVX2-vs-plain pin.
// ---------------------------------------------------------------------------

mod meanfield_batch {
    use super::instance;
    use qhdcd::qhd::batch::{MeanFieldWorkspace, WaveBatch};
    use qhdcd::qhd::complex::Complex;
    use qhdcd::qhd::grid::{Grid, ThomasFactors};
    use qhdcd::qhd::meanfield::{evolve, evolve_reference, MeanFieldConfig};

    #[test]
    fn batch_outcomes_are_bit_identical_to_the_reference() {
        // 43 variables leave a 3-column remainder after the fused kernel's
        // blocks of four.
        let cases = [(40usize, 0.2f64, 1u64), (80, 0.1, 7), (120, 0.05, 42), (43, 0.15, 3)];
        for (n, density, seed) in cases {
            let model = instance(n, density, seed);
            let config = MeanFieldConfig {
                seed: seed ^ 0x5a5a,
                steps: 80,
                shots: 12,
                ..MeanFieldConfig::default()
            };
            let batch = evolve(&model, &config).unwrap();
            let reference = evolve_reference(&model, &config).unwrap();
            assert_eq!(batch.best_solution, reference.best_solution, "n={n} seed={seed}");
            assert_eq!(
                batch.best_energy.to_bits(),
                reference.best_energy.to_bits(),
                "n={n} seed={seed}"
            );
            for i in 0..n {
                assert_eq!(
                    batch.expectations[i].to_bits(),
                    reference.expectations[i].to_bits(),
                    "n={n} seed={seed}: expectation {i} diverged"
                );
                assert_eq!(
                    batch.probabilities[i].to_bits(),
                    reference.probabilities[i].to_bits(),
                    "n={n} seed={seed}: probability {i} diverged"
                );
            }
        }
    }

    #[test]
    fn propagated_states_stay_within_1e12_of_the_reference() {
        // Kernel-level state pin: drive a batch and its AoS twin through many
        // Strang-split steps with per-step varying coefficients and slopes
        // (mimicking a trajectory) and bound the amplitude divergence.
        let grid = Grid::new(32).unwrap();
        let n = 24;
        let mut batch = WaveBatch::zeros(n, 32);
        let mut aos: Vec<Vec<Complex>> = Vec::new();
        for i in 0..n {
            let psi = grid.gaussian_state(0.25 + 0.5 * i as f64 / n as f64, 0.1);
            batch.set_variable(i, &psi);
            aos.push(psi);
        }
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        let dt = 0.05;
        let mut slopes = vec![0.0f64; n];
        for step in 0..60 {
            let coeff = 1.5 / (1.0 + step as f64 * dt);
            for (i, s) in slopes.iter_mut().enumerate() {
                *s = (step as f64 * 0.1).sin() * (1.0 + i as f64 / n as f64);
            }
            factors.factor(&grid, coeff, dt);
            grid.apply_potential_phase_batch(&mut batch, &slopes, dt / 2.0, &mut ws);
            grid.kinetic_step_batch(&mut batch, &factors, &mut ws);
            grid.apply_potential_phase_batch(&mut batch, &slopes, dt / 2.0, &mut ws);
            for (psi, &slope) in aos.iter_mut().zip(&slopes) {
                grid.apply_linear_potential_phase(psi, slope, dt / 2.0);
                grid.kinetic_step(psi, coeff, dt);
                grid.apply_linear_potential_phase(psi, slope, dt / 2.0);
            }
        }
        let mut worst = 0.0f64;
        for (i, psi) in aos.iter().enumerate() {
            for (zb, zr) in batch.variable(i).iter().zip(psi) {
                worst = worst.max((zb.re - zr.re).abs()).max((zb.im - zr.im).abs());
            }
        }
        assert!(worst <= 1e-12, "state divergence {worst:e} exceeds 1e-12");
    }

    #[test]
    fn sharded_sweep_is_bit_identical_for_1_2_and_8_workers() {
        let model = instance(150, 0.05, 9);
        let base = MeanFieldConfig { seed: 13, steps: 60, shots: 8, ..MeanFieldConfig::default() };
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| evolve(&model, &MeanFieldConfig { threads, ..base.clone() }).unwrap())
            .collect();
        for run in &runs[1..] {
            assert_eq!(run.best_solution, runs[0].best_solution);
            assert_eq!(run.best_energy.to_bits(), runs[0].best_energy.to_bits());
            for i in 0..150 {
                assert_eq!(run.expectations[i].to_bits(), runs[0].expectations[i].to_bits());
                assert_eq!(run.probabilities[i].to_bits(), runs[0].probabilities[i].to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Slot-form mean-field gather: a `build_qubo` model declares its node-slot
// form, and its sweep computes each mean field from the graph and per-slot
// aggregates. The same coefficients rebuilt through `QuboBuilder` declare
// nothing and gather row by row. The fields agree within rounding, so both
// solve to the same bits, and the declared model's sweep is bit-identical
// across thread counts.
// ---------------------------------------------------------------------------

mod slot_form_gather {
    use qhdcd::core::formulation::{build_qubo, FormulationConfig};
    use qhdcd::graph::generators::{planted_partition, PlantedPartitionConfig};
    use qhdcd::qhd::meanfield::{evolve, MeanFieldConfig};
    use qhdcd::qhd::{Backend, QhdSolver};
    use qhdcd::qubo::{QuboBuilder, QuboModel, QuboSolver};

    /// Every bit of a model's coefficients.
    fn coefficient_bits(model: &QuboModel) -> (Vec<(usize, usize, u64)>, Vec<u64>, u64) {
        (
            model.quadratic_terms().map(|(i, j, w)| (i, j, w.to_bits())).collect(),
            model.linear().iter().map(|b| b.to_bits()).collect(),
            model.offset().to_bits(),
        )
    }

    #[test]
    fn declared_and_rebuilt_models_solve_to_the_same_bits() {
        let graph = planted_partition(&PlantedPartitionConfig {
            num_nodes: 31,
            num_communities: 3,
            p_in: 0.4,
            p_out: 0.05,
            seed: 17,
        })
        .unwrap()
        .graph;
        // Five slots over 31 nodes: the gather splits the slots into blocks
        // of 4 and 1, and the sweeps at 2 and 3 workers cut nodes.
        let k = 5;
        let qubo = build_qubo(&graph, &FormulationConfig::with_communities(k)).unwrap();
        let declared = qubo.model();
        let mut b = QuboBuilder::new(declared.num_variables());
        for (i, &w) in declared.linear().iter().enumerate() {
            b.add_linear(i, w).unwrap();
        }
        for (i, j, w) in declared.quadratic_terms() {
            b.add_quadratic(i, j, w).unwrap();
        }
        b.set_offset(declared.offset());
        let rebuilt = b.build();
        assert_eq!(coefficient_bits(&rebuilt), coefficient_bits(declared));
        assert_eq!((declared.node_slots(), rebuilt.node_slots()), (Some(k), None));

        for threads in [1usize, 2, 8] {
            let solver = QhdSolver::builder()
                .backend(Backend::MeanField)
                .samples(3)
                .steps(30)
                .shots(4)
                .seed(11)
                .threads(threads)
                .build();
            let (a, b) = (solver.solve(declared).unwrap(), solver.solve(&rebuilt).unwrap());
            assert_eq!(a.solution, b.solution, "threads={threads}");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "threads={threads}");
        }
        let base = MeanFieldConfig { seed: 7, steps: 30, shots: 8, ..MeanFieldConfig::default() };
        let serial = evolve(declared, &base).unwrap();
        for threads in [1usize, 2, 3] {
            let config = MeanFieldConfig { threads, ..base.clone() };
            let (a, b) = (evolve(declared, &config).unwrap(), evolve(&rebuilt, &config).unwrap());
            assert_eq!(a.best_solution, b.best_solution, "threads={threads}");
            assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits(), "threads={threads}");
            for ((x, y), s) in a.expectations.iter().zip(&b.expectations).zip(&serial.expectations)
            {
                assert!((x - y).abs() <= 1e-12, "threads={threads}: {x} vs {y}");
                assert_eq!(x.to_bits(), s.to_bits(), "threads={threads}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Local-field rebuild: `LocalFieldState` scatters only the rows of set
// variables. The sweep over the sorted pair list it replaced stays here as
// the oracle; both give every field and the energy the same bits.
// ---------------------------------------------------------------------------

mod local_field_rebuild {
    use super::instance;
    use qhdcd::core::formulation::{build_qubo, FormulationConfig};
    use qhdcd::graph::generators::{planted_partition, PlantedPartitionConfig};
    use qhdcd::graph::QualityFunction;
    use qhdcd::qubo::{LocalFieldState, QuboModel};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// The pair-order rebuild: every field and the energy from one sweep
    /// over the sorted pair list.
    fn pair_order_rebuild(model: &QuboModel, x: &[bool]) -> (Vec<f64>, f64) {
        let linear = model.linear();
        let mut field = linear.to_vec();
        let mut energy = model.offset();
        for (i, &xi) in x.iter().enumerate() {
            if xi {
                energy += linear[i];
            }
        }
        for (i, j, w) in model.quadratic_terms() {
            if x[j] {
                field[i] += w;
            }
            if x[i] {
                field[j] += w;
                if x[j] {
                    energy += w;
                }
            }
        }
        (field, energy)
    }

    /// Asserts that the engine built for `x`, and the engine moved to `x`
    /// from the all-set assignment, hold the oracle's bits.
    fn assert_rebuild_is_the_oracle(model: &QuboModel, x: &[bool], what: &str) {
        let (field, energy) = pair_order_rebuild(model, x);
        let mut restarted = LocalFieldState::new(model, vec![true; x.len()]);
        restarted.set_solution(x).unwrap();
        for state in [LocalFieldState::new(model, x.to_vec()), restarted] {
            assert_eq!(state.energy().to_bits(), energy.to_bits(), "{what}: energy");
            for (i, f) in field.iter().enumerate() {
                assert_eq!(state.field(i).to_bits(), f.to_bits(), "{what}: field {i}");
            }
        }
    }

    #[test]
    fn the_set_row_rebuild_is_bit_equal_to_the_pair_order_rebuild() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for (n, density, seed) in [(40usize, 0.3f64, 1u64), (150, 0.05, 2), (90, 0.6, 3)] {
            let model = instance(n, density, seed);
            for share in [0.0, 0.1, 0.5, 1.0] {
                let x: Vec<bool> = (0..n).map(|_| rng.gen_bool(share)).collect();
                assert_rebuild_is_the_oracle(&model, &x, &format!("random n={n}, share {share}"));
            }
        }
        let graph = planted_partition(&PlantedPartitionConfig {
            num_nodes: 60,
            num_communities: 3,
            p_in: 0.3,
            p_out: 0.05,
            seed: 5,
        })
        .unwrap()
        .graph;
        for (k, quality) in [(4usize, QualityFunction::default()), (5, QualityFunction::cpm(0.1))] {
            let config = FormulationConfig { quality, ..FormulationConfig::with_communities(k) };
            let qubo = build_qubo(&graph, &config).unwrap();
            let model = qubo.model();
            // One-hot assignments, then the same with random extra bits.
            let mut x = vec![false; model.num_variables()];
            for node in 0..graph.num_nodes() {
                x[qubo.variable_index(node, rng.gen_range(0..k))] = true;
            }
            assert_rebuild_is_the_oracle(model, &x, &format!("build_qubo k={k}, one-hot"));
            for bit in x.iter_mut() {
                *bit |= rng.gen_bool(0.2);
            }
            assert_rebuild_is_the_oracle(model, &x, &format!("build_qubo k={k}, noisy"));
        }
    }
}
