//! The tabu member of the restart portfolio: single-flip tabu search.
//!
//! The move scan runs on [`LocalFieldState`]: each of the `n` candidate flips
//! per iteration is scored in O(1) from the cached fields, and only the one
//! applied move pays the O(deg) field update — an O(nnz) → O(n + deg)
//! per-iteration improvement. Each restart runs an independent tabu chain
//! from its own ChaCha stream.

use crate::local_search;
use crate::runtime::RestartRun;
use qhdcd_qubo::{Budget, LocalFieldState};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Runs one tabu restart on the worker's engine: a random start drawn from the
/// restart's stream, a short seeding descent, then `iterations` tabu moves
/// with aspiration. Returns the best assignment of the chain. The budget is
/// observed every 256 iterations (and in the seeding descent); an early exit
/// is reported via [`RestartRun::interrupted`].
pub(crate) fn tabu_restart(
    state: &mut LocalFieldState<'_>,
    rng: &mut ChaCha8Rng,
    iterations: usize,
    tenure: Option<usize>,
    budget: &Budget,
) -> RestartRun {
    let n = state.num_variables();
    // Default tenure max(10, n/10), capped at n/2: a tenure close to n makes
    // almost every variable tabu at once and degenerates the chain into a
    // near-cycle on tiny instances. The cap only affects n < 20.
    let tenure =
        tenure.unwrap_or_else(|| (n / 10).max(10).min(n / 2)).min(n.saturating_sub(1)).max(1);
    let x: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    state.set_solution(&x).expect("worker state matches the model");
    let mut interrupted = local_search::descend_state(state, 50, budget).interrupted;
    let mut best = state.solution().to_vec();
    let mut best_e = state.energy();
    // tabu_until[i] = first iteration at which flipping i is allowed again.
    let mut tabu_until = vec![0usize; n];
    let mut performed = 0u64;
    for iter in 0..iterations {
        if iter % 256 == 0 && budget.is_exhausted() {
            interrupted = true;
            break;
        }
        let e = state.energy();
        let mut chosen: Option<(usize, f64)> = None;
        for (i, &until) in tabu_until.iter().enumerate() {
            let delta = state.flip_delta(i);
            let aspires = e + delta < best_e - 1e-12;
            if until > iter && !aspires {
                continue;
            }
            if chosen.is_none_or(|(_, d)| delta < d) {
                chosen = Some((i, delta));
            }
        }
        // A chain with no allowed move ends naturally — not an interruption.
        let Some((i, _)) = chosen else { break };
        state.apply_flip(i);
        tabu_until[i] = iter + 1 + tenure;
        performed += 1;
        if state.energy() < best_e - 1e-12 {
            best_e = state.energy();
            best.copy_from_slice(state.solution());
        }
    }
    state.debug_validate();
    RestartRun { solution: best, energy: best_e, iterations: performed, interrupted }
}

#[cfg(test)]
mod tests {
    use crate::{ExhaustiveSearch, PortfolioSolver, Strategy};
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::{QuboBuilder, QuboSolver, SolveStatus};

    /// Tabu-only portfolio: one chain of `iterations` moves with the default
    /// tenure on one worker.
    fn tabu(seed: u64, iterations: usize) -> PortfolioSolver {
        let mut solver = PortfolioSolver::default()
            .with_strategies(vec![Strategy::Tabu { tenure: None }])
            .with_restarts(1)
            .with_threads(1)
            .with_seed(seed);
        solver.config.sweeps = iterations;
        solver
    }

    #[test]
    fn reaches_the_optimum_on_small_instances() {
        for seed in 0..3u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 12,
                density: 0.5,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let tabu = tabu(seed, 2_000).solve(&model).unwrap();
            let exact = ExhaustiveSearch.solve(&model).unwrap();
            assert!(
                (tabu.objective - exact.objective).abs() < 1e-9,
                "seed={seed}: tabu={} exact={}",
                tabu.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn escapes_single_flip_local_minima() {
        // A frustrated pair: from (0,0) every single flip worsens the energy, but
        // (1,1) is the global optimum. Plain greedy descent from (0,0) is stuck;
        // tabu search must escape because it always takes the best allowed move.
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, 0.4).unwrap();
        b.add_linear(1, 0.4).unwrap();
        b.add_quadratic(0, 1, -1.5).unwrap();
        let model = b.build();
        let report = tabu(0, 2_000).solve(&model).unwrap();
        assert!((report.objective - (-0.7)).abs() < 1e-9);
        assert_eq!(report.solution, vec![true, true]);
    }

    #[test]
    fn rejects_degenerate_configurations() {
        let model = QuboBuilder::new(2).build();
        assert!(tabu(0, 0).solve(&model).is_err());
        assert!(tabu(0, 2_000).solve(&QuboBuilder::new(0).build()).is_err());
    }

    #[test]
    fn objective_matches_solution() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 60,
            density: 0.1,
            coefficient_range: 1.0,
            seed: 33,
        })
        .unwrap();
        let report = tabu(0, 2_000).solve(&model).unwrap();
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-9);
        assert_eq!(report.status, SolveStatus::Heuristic);
        assert!(report.iterations > 0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 25,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 12,
        })
        .unwrap();
        let a = tabu(7, 2_000).solve(&model).unwrap();
        let b = tabu(7, 2_000).solve(&model).unwrap();
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn restarts_never_worsen_the_single_chain_result() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 40,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 21,
        })
        .unwrap();
        let single = tabu(3, 400).solve(&model).unwrap();
        let multi = tabu(3, 400).with_restarts(4).with_threads(2).solve(&model).unwrap();
        assert!(multi.objective <= single.objective + 1e-12);
    }
}
