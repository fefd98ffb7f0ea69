//! The greedy member of the restart portfolio: descent to a local minimum.
//!
//! A greedy restart draws a random start from its own ChaCha stream and
//! descends under the portfolio's [`MoveSet`]; a warm-started solve runs the
//! same descent from the hint on restart 0.

use crate::local_search;
use crate::portfolio::MoveSet;
use crate::runtime::RestartRun;
use qhdcd_qubo::{Budget, LocalFieldState};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Installs `start` on the worker's engine and descends under `move_set` for
/// at most `sweeps` sweeps. Descent only accepts improving moves, so the
/// result is never worse than `start`.
pub(crate) fn descent_restart(
    state: &mut LocalFieldState<'_>,
    start: &[bool],
    sweeps: usize,
    move_set: MoveSet,
    budget: &Budget,
) -> RestartRun {
    state.set_solution(start).expect("the start matches the model");
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

/// Runs one greedy restart: a random start drawn from the restart's stream,
/// then [`descent_restart`].
pub(crate) fn greedy_restart(
    state: &mut LocalFieldState<'_>,
    rng: &mut ChaCha8Rng,
    sweeps: usize,
    move_set: MoveSet,
    budget: &Budget,
) -> RestartRun {
    let x: Vec<bool> = (0..state.num_variables()).map(|_| rng.gen()).collect();
    descent_restart(state, &x, sweeps, move_set, budget)
}

#[cfg(test)]
mod tests {
    use crate::{local_search, ExhaustiveSearch, PortfolioSolver, Strategy};
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::{Budget, QuboBuilder, QuboSolver};

    /// Greedy-only portfolio: 16 restarts of at most 100 descent sweeps.
    fn greedy(seed: u64) -> PortfolioSolver {
        let mut solver = PortfolioSolver::default()
            .with_strategies(vec![Strategy::Greedy])
            .with_seed(seed)
            .with_threads(1);
        solver.config.sweeps = 100;
        solver
    }

    #[test]
    fn finds_good_solutions_on_small_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 12,
                density: 0.4,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let greedy = greedy(seed).solve(&model).unwrap();
            let exact = ExhaustiveSearch.solve(&model).unwrap();
            // Multi-start greedy is not exact but should be within a small gap.
            let gap = (greedy.objective - exact.objective).abs();
            assert!(gap <= 0.25 * exact.objective.abs().max(1.0), "seed={seed} gap={gap}");
        }
    }

    #[test]
    fn result_is_a_one_opt_local_minimum() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 40,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 4,
        })
        .unwrap();
        let report = greedy(0).solve(&model).unwrap();
        for i in 0..40 {
            assert!(model.flip_delta(&report.solution, i) >= -1e-9);
        }
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
    }

    #[test]
    fn never_worse_than_the_all_zero_descent() {
        // Warm-started from the all-zero assignment, restart 0 is the descent
        // from it and the other restarts keep their random starts.
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 6,
        })
        .unwrap();
        let (_, zero_descent) = local_search::descend(&model, vec![false; 30], 100);
        let report = greedy(0)
            .with_restarts(4)
            .solve_bounded(&model, Some(&[false; 30]), &Budget::unlimited())
            .unwrap();
        assert!(report.objective <= zero_descent + 1e-12);
        assert!(report.iterations >= 1);
    }

    #[test]
    fn empty_model_is_rejected() {
        assert!(greedy(0).solve(&QuboBuilder::new(0).build()).is_err());
    }
}
