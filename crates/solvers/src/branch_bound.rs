//! Exact branch-and-bound QUBO solver (the GUROBI stand-in).
//!
//! A depth-first branch-and-bound over the binary variables with an
//! incrementally maintained partial energy and a linear-time lower bound. The
//! solver honours a wall-clock time limit and reports [`SolveStatus::Optimal`]
//! when the search tree was exhausted or [`SolveStatus::TimeLimit`] when it was
//! stopped early with its best incumbent — the two behaviours the paper's
//! comparison protocol (Figures 3 and 4) relies on.

use crate::local_search;
use qhdcd_qubo::{Budget, Completion, QuboError, QuboModel, QuboSolver, SolveReport, SolveStatus};
use std::time::{Duration, Instant};

/// Exact branch-and-bound solver with a configurable time limit.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct BranchAndBound {
    /// Wall-clock budget for the search; `None` runs until the tree is
    /// exhausted.
    pub time_limit: Option<Duration>,
}

impl BranchAndBound {
    /// Creates a solver that runs until the tree is exhausted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with a wall-clock time limit, after which the best
    /// incumbent is returned with [`SolveStatus::TimeLimit`].
    pub fn with_time_limit(limit: Duration) -> Self {
        BranchAndBound { time_limit: Some(limit) }
    }
}

struct SearchState<'m> {
    model: &'m QuboModel,
    /// Variable processing order (most influential first).
    order: Vec<usize>,
    /// Current assignment (only entries fixed at the current depth are meaningful).
    assignment: Vec<bool>,
    /// Σ_{j fixed, x_j = 1} w_ij for every variable i.
    fixed_field: Vec<f64>,
    /// Σ_{j unfixed} min(0, w_ij) for every variable i.
    neg_remaining: Vec<f64>,
    /// Whether each variable is currently fixed.
    is_fixed: Vec<bool>,
    /// Energy of the fixed part (offset + linear + pairwise among fixed).
    partial_energy: f64,
    /// Best solution found so far.
    incumbent: Vec<bool>,
    incumbent_energy: f64,
    nodes: u64,
    budget: Budget,
    stopped: bool,
}

impl SearchState<'_> {
    fn lower_bound(&self) -> f64 {
        let mut bound = self.partial_energy;
        for i in 0..self.model.num_variables() {
            if !self.is_fixed[i] {
                let optimistic =
                    self.model.linear()[i] + self.fixed_field[i] + self.neg_remaining[i];
                if optimistic < 0.0 {
                    bound += optimistic;
                }
            }
        }
        bound
    }

    fn should_stop(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        // Deadline and cancellation checks are amortised over 1024 nodes; the
        // first node always checks so an already-expired budget stops the
        // search before it starts (the warm-start incumbent is returned).
        if (self.nodes == 1 || self.nodes.is_multiple_of(1024)) && self.budget.is_exhausted() {
            self.stopped = true;
            return true;
        }
        false
    }

    fn fix(&mut self, var: usize, value: bool) {
        self.is_fixed[var] = true;
        self.assignment[var] = value;
        if value {
            self.partial_energy += self.model.linear()[var] + self.fixed_field[var];
        }
        for (u, w) in self.model.couplings(var) {
            if !self.is_fixed[u] {
                self.neg_remaining[u] -= w.min(0.0);
                if value {
                    self.fixed_field[u] += w;
                }
            }
        }
    }

    fn unfix(&mut self, var: usize, value: bool) {
        for (u, w) in self.model.couplings(var) {
            if !self.is_fixed[u] {
                self.neg_remaining[u] += w.min(0.0);
                if value {
                    self.fixed_field[u] -= w;
                }
            }
        }
        if value {
            self.partial_energy -= self.model.linear()[var] + self.fixed_field[var];
        }
        self.is_fixed[var] = false;
    }

    fn search(&mut self, depth: usize) {
        self.nodes += 1;
        if self.should_stop() {
            return;
        }
        if depth == self.order.len() {
            if self.partial_energy < self.incumbent_energy - 1e-12 {
                self.incumbent_energy = self.partial_energy;
                self.incumbent = self.assignment.clone();
            }
            return;
        }
        if self.lower_bound() >= self.incumbent_energy - 1e-12 {
            return;
        }
        let var = self.order[depth];
        // Try the more promising value first.
        let optimistic = self.model.linear()[var] + self.fixed_field[var] + self.neg_remaining[var];
        let first = optimistic < 0.0;
        for value in [first, !first] {
            self.fix(var, value);
            self.search(depth + 1);
            self.unfix(var, value);
            if self.stopped {
                return;
            }
        }
    }
}

impl QuboSolver for BranchAndBound {
    fn name(&self) -> &str {
        "branch-and-bound"
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        // The warm start below (descents from the all-zero/all-one corners) is
        // already a strong incumbent; an external hint is ignored.
        let _ = hint;
        let start = Instant::now();
        let n = model.num_variables();
        if n == 0 {
            return Err(QuboError::InvalidConfig { reason: "model has no variables".into() });
        }

        // Warm start: greedy descent from the all-zero and all-one assignments.
        let (inc_a, e_a) = local_search::descend(model, vec![false; n], 200);
        let (inc_b, e_b) = local_search::descend(model, vec![true; n], 200);
        let (mut incumbent, mut incumbent_energy) =
            if e_a <= e_b { (inc_a, e_a) } else { (inc_b, e_b) };
        // The trivial all-zero assignment (energy = offset) is also a valid incumbent.
        if model.offset() < incumbent_energy {
            incumbent = vec![false; n];
            incumbent_energy = model.offset();
        }

        // Most influential variables first: larger |linear| + Σ|w| near the root
        // makes the bound informative early.
        let mut order: Vec<usize> = (0..n).collect();
        let influence: Vec<f64> = (0..n)
            .map(|i| {
                model.linear()[i].abs() + model.couplings(i).map(|(_, w)| w.abs()).sum::<f64>()
            })
            .collect();
        order.sort_by(|&a, &b| influence[b].partial_cmp(&influence[a]).expect("finite influence"));

        let neg_remaining: Vec<f64> =
            (0..n).map(|i| model.couplings(i).map(|(_, w)| w.min(0.0)).sum()).collect();

        let mut state = SearchState {
            model,
            order,
            assignment: vec![false; n],
            fixed_field: vec![0.0; n],
            neg_remaining,
            is_fixed: vec![false; n],
            partial_energy: model.offset(),
            incumbent,
            incumbent_energy,
            nodes: 0,
            budget: budget.clone().merged_with_time_limit(self.time_limit),
            stopped: false,
        };
        state.search(0);

        let status = if state.stopped { SolveStatus::TimeLimit } else { SolveStatus::Optimal };
        // Branch-and-bound has no restart structure; a truncated search
        // reports `completed_restarts: 0` per the `Completion` convention.
        let completion = if state.stopped {
            Completion::Truncated { completed_restarts: 0 }
        } else {
            Completion::Full
        };
        Ok(SolveReport {
            objective: state.incumbent_energy,
            solution: state.incumbent,
            status,
            elapsed: start.elapsed(),
            iterations: state.nodes,
            completion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExhaustiveSearch;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    #[test]
    fn proves_optimality_on_random_instances() {
        for seed in 0..5u64 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 14,
                density: 0.4,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let bb = BranchAndBound::default().solve(&model).unwrap();
            let exact = ExhaustiveSearch.solve(&model).unwrap();
            assert_eq!(bb.status, SolveStatus::Optimal);
            assert!(
                (bb.objective - exact.objective).abs() < 1e-9,
                "seed={seed}: bb={} exact={}",
                bb.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn objective_matches_reported_solution() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 12,
            density: 0.5,
            coefficient_range: 2.0,
            seed: 42,
        })
        .unwrap();
        let report = BranchAndBound::default().solve(&model).unwrap();
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
        assert!(report.iterations > 0);
    }

    #[test]
    fn time_limit_produces_time_limit_status() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 120,
            density: 0.3,
            coefficient_range: 1.0,
            seed: 7,
        })
        .unwrap();
        let report =
            BranchAndBound::with_time_limit(Duration::from_millis(20)).solve(&model).unwrap();
        assert_eq!(report.status, SolveStatus::TimeLimit);
        // The incumbent is still a valid solution.
        assert!((model.evaluate(&report.solution).unwrap() - report.objective).abs() < 1e-12);
    }

    #[test]
    fn handles_models_with_positive_offset_and_empty_objective() {
        let mut b = QuboBuilder::new(3);
        b.set_offset(5.0);
        let model = b.build();
        let report = BranchAndBound::default().solve(&model).unwrap();
        assert_eq!(report.objective, 5.0);
        assert_eq!(report.status, SolveStatus::Optimal);
        let empty = QuboBuilder::new(0).build();
        assert!(BranchAndBound::default().solve(&empty).is_err());
    }

    #[test]
    fn never_worse_than_its_own_warm_start() {
        let model = random_qubo(&RandomQuboConfig {
            num_variables: 30,
            density: 0.2,
            coefficient_range: 1.0,
            seed: 9,
        })
        .unwrap();
        let (_, warm) = local_search::descend(&model, vec![false; 30], 200);
        let report =
            BranchAndBound::with_time_limit(Duration::from_millis(50)).solve(&model).unwrap();
        assert!(report.objective <= warm + 1e-9);
    }
}
