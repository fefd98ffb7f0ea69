//! Classical QUBO baseline solvers.
//!
//! The paper benchmarks its QHD solver against GUROBI, using GUROBI purely as
//! "an exact solver that either proves optimality or stops at a time limit with
//! its best incumbent". This crate provides that role plus the usual heuristic
//! baselines, all implementing the shared
//! [`QuboSolver`](qhdcd_qubo::QuboSolver) trait:
//!
//! * [`BranchAndBound`] — exact best-first/depth-first branch-and-bound with a
//!   wall-clock time limit and an `Optimal` / `TimeLimit` status, the stand-in
//!   for GUROBI in every experiment (see README.md, "Substitutions").
//! * [`ExhaustiveSearch`] — brute force over all assignments, the ground truth
//!   for small instances in tests.
//! * [`SimulatedAnnealing`] — single-flip Metropolis with geometric cooling.
//! * [`TabuSearch`] — single-flip tabu search with aspiration.
//! * [`MultiStartGreedy`] — repeated greedy 1-opt descent from random starts.
//! * [`PortfolioSolver`] — a restart portfolio interleaving the heuristic
//!   families above over the deterministic parallel [`runtime`].
//!
//! All restart-based solvers, and the samples of `qhdcd_qhd::QhdSolver`,
//! batch their restarts through the shared [`runtime`]: one
//! [`LocalFieldState`](qhdcd_qubo::LocalFieldState) per
//! worker thread, a private ChaCha stream per restart derived from the root
//! seed, and a reduction ordered by `(energy, restart index)`, so results are
//! bit-identical for every thread count.
//!
//! # Example
//!
//! ```
//! use qhdcd_qubo::{QuboBuilder, QuboSolver, SolveStatus};
//! use qhdcd_solvers::BranchAndBound;
//!
//! # fn main() -> Result<(), qhdcd_qubo::QuboError> {
//! let mut b = QuboBuilder::new(3);
//! b.add_linear(0, -1.0)?;
//! b.add_quadratic(0, 1, 2.0)?;
//! let model = b.build();
//! let report = BranchAndBound::default().solve(&model)?;
//! assert_eq!(report.status, SolveStatus::Optimal);
//! assert_eq!(report.objective, -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod exhaustive;
mod greedy;
pub mod portfolio;
pub mod runtime;
mod simulated_annealing;
mod tabu;

pub use branch_bound::BranchAndBound;
pub use exhaustive::ExhaustiveSearch;
pub use greedy::MultiStartGreedy;
pub use portfolio::{MoveSet, PortfolioConfig, PortfolioSolver, Strategy};
pub use simulated_annealing::SimulatedAnnealing;
pub use tabu::TabuSearch;

pub mod local_search {
    //! The workspace's descent loops, built on the engine's
    //! [`LocalFieldState::single_flip_sweep`] /
    //! [`LocalFieldState::coupled_pair_sweep`] primitives. The classical
    //! solvers use them to seed and polish incumbents, and `QhdSolver`
    //! descends every measured candidate with them (`qhdcd_qhd::refine` wraps
    //! them for owned solutions).

    use qhdcd_qubo::{Budget, LocalFieldState, QuboModel};

    /// What a descent loop reports back: sweeps performed and whether the
    /// budget cut the descent short (as opposed to converging or hitting the
    /// sweep cap — only a budget interruption makes the trajectory depend on
    /// wall clock).
    #[derive(Debug, Clone, Copy)]
    pub struct SweepOutcome {
        /// Number of sweeps performed.
        pub sweeps: u64,
        /// `true` if the budget expired while improvement was still possible.
        pub interrupted: bool,
    }

    /// First-improvement single-flip descent on an existing engine state. A
    /// candidate flip costs O(1) from the cached fields and a sweep costs O(n)
    /// plus O(deg) per accepted move. The budget is checked between sweeps.
    pub fn descend_state(
        state: &mut LocalFieldState<'_>,
        max_sweeps: usize,
        budget: &Budget,
    ) -> SweepOutcome {
        let mut sweeps = 0u64;
        for _ in 0..max_sweeps {
            if budget.is_exhausted() {
                return SweepOutcome { sweeps, interrupted: true };
            }
            let improved = state.single_flip_sweep();
            sweeps += 1;
            if !improved {
                break;
            }
        }
        SweepOutcome { sweeps, interrupted: false }
    }

    /// Descent alternating single-flip sweeps with coupled pair sweeps (one-set
    /// one-clear pairs applied as native reassignments). The budget is checked
    /// between sweeps.
    pub fn pair_aware_descend_state(
        state: &mut LocalFieldState<'_>,
        max_sweeps: usize,
        budget: &Budget,
    ) -> SweepOutcome {
        let mut sweeps = 0u64;
        for _ in 0..max_sweeps {
            if budget.is_exhausted() {
                return SweepOutcome { sweeps, interrupted: true };
            }
            let improved = state.single_flip_sweep() | state.coupled_pair_sweep();
            sweeps += 1;
            if !improved {
                break;
            }
        }
        SweepOutcome { sweeps, interrupted: false }
    }

    /// Owned-solution wrapper around [`descend_state`]: builds a fresh engine,
    /// descends to convergence (no budget), and returns the improved solution
    /// and its energy.
    pub fn descend(model: &QuboModel, x: Vec<bool>, max_sweeps: usize) -> (Vec<bool>, f64) {
        let mut state = LocalFieldState::new(model, x);
        descend_state(&mut state, max_sweeps, &Budget::unlimited());
        state.debug_validate();
        state.into_solution()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};

        #[test]
        fn descend_reaches_a_single_flip_local_minimum() {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 30,
                density: 0.3,
                coefficient_range: 1.0,
                seed: 5,
            })
            .unwrap();
            let (x, e) = descend(&model, vec![false; 30], 100);
            assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
            for i in 0..30 {
                assert!(model.flip_delta(&x, i) >= -1e-9);
            }
        }
    }
}
