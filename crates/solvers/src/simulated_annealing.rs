//! The annealing member of the restart portfolio: single-flip Metropolis
//! simulated annealing with geometric cooling.
//!
//! The Metropolis loop runs on [`LocalFieldState`]: proposing a flip costs
//! O(1) (one cached-field read) and only *accepted* flips pay the O(deg)
//! neighbour-field update — on low-acceptance phases late in the cooling
//! schedule this is the difference between O(deg) and O(1) per proposal.
//! Restart `k` draws from its own ChaCha stream derived from the root seed,
//! so the result is bit-identical for every worker-thread count.

use crate::runtime::RestartRun;
use qhdcd_qubo::{Budget, LocalFieldState, QuboModel};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The instance's coefficient scale used to normalise annealing temperatures:
/// the largest absolute linear or quadratic coefficient (at least 1e-9), so
/// the default temperature window works for instances of any magnitude.
pub(crate) fn annealing_scale(model: &QuboModel) -> f64 {
    model
        .linear()
        .iter()
        .map(|v| v.abs())
        .chain(model.quadratic_terms().map(|(_, _, w)| w.abs()))
        .fold(0.0f64, f64::max)
        .max(1e-9)
}

/// Runs one annealing restart on the worker's engine: a random start drawn
/// from the restart's stream, `sweeps` Metropolis sweeps under geometric
/// cooling, tracking the best assignment seen along the trajectory. The
/// budget is observed between sweeps; an early exit is reported via
/// [`RestartRun::interrupted`].
pub(crate) fn anneal_restart(
    state: &mut LocalFieldState<'_>,
    rng: &mut ChaCha8Rng,
    sweeps: usize,
    t_start: f64,
    cooling: f64,
    budget: &Budget,
) -> RestartRun {
    let n = state.num_variables();
    let x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    state.set_solution(&x).expect("worker state matches the model");
    let mut best = state.solution().to_vec();
    let mut best_e = state.energy();
    let mut temperature = t_start;
    let mut performed = 0u64;
    let mut interrupted = false;
    for _ in 0..sweeps {
        if budget.is_exhausted() {
            interrupted = true;
            break;
        }
        for _ in 0..n {
            let i = rng.gen_range(0..n);
            let delta = state.flip_delta(i);
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp() {
                state.apply_flip(i);
                if state.energy() < best_e {
                    best_e = state.energy();
                    best.copy_from_slice(state.solution());
                }
            }
        }
        temperature *= cooling;
        performed += 1;
    }
    state.debug_validate();
    RestartRun { solution: best, energy: best_e, iterations: performed, interrupted }
}

#[cfg(test)]
mod tests {
    use crate::{ExhaustiveSearch, PortfolioSolver, Strategy};
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::{QuboBuilder, QuboSolver, SolveStatus};
    use std::time::Duration;

    /// Annealing-only portfolio: 4 restarts of 200 sweeps cooling from 2.0 to
    /// 0.01 (in units of the coefficient scale) on one worker.
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
    fn reaches_the_optimum_on_small_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 12,
                density: 0.4,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let sa = annealing(seed).solve(&model).unwrap();
            let exact = ExhaustiveSearch.solve(&model).unwrap();
            assert!(
                (sa.objective - exact.objective).abs() < 1e-9,
                "seed={seed}: sa={} exact={}",
                sa.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn rejects_degenerate_configurations() {
        let model = QuboBuilder::new(2).build();
        let mut no_sweeps = annealing(0);
        no_sweeps.config.sweeps = 0;
        assert!(no_sweeps.solve(&model).is_err());
        let bad = annealing(0).with_strategies(vec![Strategy::Annealing {
            initial_temperature: -1.0,
            final_temperature: 0.01,
        }]);
        assert!(bad.solve(&model).is_err());
        assert!(annealing(0).solve(&QuboBuilder::new(0).build()).is_err());
    }

    #[test]
    fn objective_matches_solution_and_status_is_heuristic() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 50,
            density: 0.1,
            coefficient_range: 1.0,
            seed: 5,
        })
        .unwrap();
        let report = annealing(0).solve(&model).unwrap();
        assert_eq!(report.status, SolveStatus::Heuristic);
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-9);
    }

    #[test]
    fn time_limit_is_honoured() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 300,
            density: 0.05,
            coefficient_range: 1.0,
            seed: 2,
        })
        .unwrap();
        let mut solver = annealing(0).with_restarts(100);
        solver.config.sweeps = 100_000;
        solver.config.time_limit = Some(Duration::from_millis(30));
        let report = solver.solve(&model).unwrap();
        // Generous bound: the solve should terminate well before the unconstrained
        // budget (100 restarts × 100k sweeps) would take.
        assert!(report.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn deterministic_for_a_fixed_seed_and_any_thread_count() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 8,
        })
        .unwrap();
        let a = annealing(4).solve(&model).unwrap();
        let b = annealing(4).solve(&model).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.solution, b.solution);
        let c = annealing(4).with_threads(8).solve(&model).unwrap();
        assert_eq!(a.objective.to_bits(), c.objective.to_bits());
        assert_eq!(a.solution, c.solution);
    }

    #[test]
    fn never_worse_than_the_all_zero_assignment() {
        // A model where random starts are poor: large positive couplings mean
        // the all-zero assignment is already optimal.
        let mut b = QuboBuilder::new(10);
        for i in 0..9 {
            b.add_quadratic(i, i + 1, 5.0).unwrap();
        }
        let model = b.build();
        let mut solver = annealing(3);
        solver.config.sweeps = 1;
        let report = solver.solve(&model).unwrap();
        assert!(report.objective <= 0.0);
    }
}
