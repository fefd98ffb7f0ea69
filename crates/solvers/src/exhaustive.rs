//! Brute-force enumeration of every assignment — the ground truth for tests.

use qhdcd_qubo::{Budget, Completion, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus};
use std::time::Instant;

/// Maximum number of variables the exhaustive solver accepts.
pub const MAX_EXHAUSTIVE_VARIABLES: usize = 24;

/// Enumerates all `2ⁿ` assignments and returns the global optimum.
///
/// # Example
///
/// ```
/// use qhdcd_qubo::{QuboBuilder, QuboSolver, SolveStatus};
/// use qhdcd_solvers::ExhaustiveSearch;
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(1, -3.0)?;
/// let report = ExhaustiveSearch::default().solve(&b.build())?;
/// assert_eq!(report.status, SolveStatus::Optimal);
/// assert_eq!(report.solution, vec![false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl ExhaustiveSearch {
    /// Creates an exhaustive solver.
    pub fn new() -> Self {
        ExhaustiveSearch
    }
}

impl QuboSolver for ExhaustiveSearch {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        // Enumeration cannot exploit a hint.
        let _ = hint;
        let start = Instant::now();
        let n = model.num_variables();
        if n == 0 || n > MAX_EXHAUSTIVE_VARIABLES {
            return Err(QuboError::InvalidConfig {
                reason: format!(
                    "exhaustive search supports 1..={MAX_EXHAUSTIVE_VARIABLES} variables, got {n}"
                ),
            });
        }
        let mut best = vec![false; n];
        let mut best_e = model.evaluate(&best)?;
        let mut x = vec![false; n];
        let mut visited = 1u64;
        let mut stopped = false;
        for bits in 1..(1u64 << n) {
            // Budget checks are amortised over blocks of 4096 assignments;
            // the first iteration always checks so an already-expired budget
            // stops the enumeration before it starts.
            if (bits == 1 || bits.is_multiple_of(4096)) && budget.is_exhausted() {
                stopped = true;
                break;
            }
            for (i, slot) in x.iter_mut().enumerate() {
                *slot = (bits >> i) & 1 == 1;
            }
            let e = model.evaluate(&x)?;
            visited += 1;
            if e < best_e {
                best_e = e;
                best.copy_from_slice(&x);
            }
        }
        // A truncated enumeration proved nothing: the incumbent is the best
        // over the visited prefix only. `completed_restarts: 0` follows the
        // convention for solvers without a restart structure.
        let (status, completion) = if stopped {
            (SolveStatus::TimeLimit, Completion::Truncated { completed_restarts: 0 })
        } else {
            (SolveStatus::Optimal, Completion::Full)
        };
        Ok(SolveReport {
            solution: best,
            objective: best_e,
            status,
            elapsed: start.elapsed(),
            iterations: visited,
            completion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    #[test]
    fn finds_the_global_optimum() {
        let mut b = QuboBuilder::new(3);
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(1, -1.0).unwrap();
        b.add_quadratic(0, 1, 3.0).unwrap();
        b.add_linear(2, 0.5).unwrap();
        let report = ExhaustiveSearch::new().solve(&b.build()).unwrap();
        assert_eq!(report.objective, -1.0);
        assert_eq!(report.iterations, 8);
        assert!(report.status.is_optimal());
    }

    #[test]
    fn rejects_oversized_and_empty_models() {
        assert!(ExhaustiveSearch
            .solve(&QuboBuilder::new(MAX_EXHAUSTIVE_VARIABLES + 1).build())
            .is_err());
        assert!(ExhaustiveSearch.solve(&QuboBuilder::new(0).build()).is_err());
    }

    #[test]
    fn is_a_lower_bound_for_any_other_solution() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 10,
            density: 0.5,
            coefficient_range: 1.0,
            seed: 17,
        })
        .unwrap();
        let optimum = ExhaustiveSearch.solve(&model).unwrap().objective;
        for bits in 0..(1u32 << 10) {
            let x: Vec<bool> = (0..10).map(|i| (bits >> i) & 1 == 1).collect();
            assert!(model.evaluate(&x).unwrap() >= optimum - 1e-12);
        }
    }
}
