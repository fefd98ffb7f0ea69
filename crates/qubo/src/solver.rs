//! The common interface implemented by every QUBO solver in the workspace.
//!
//! The paper's evaluation protocol hinges on two observable solver behaviours:
//! an exact solver either *proves optimality* or is *stopped by a time limit*
//! (Figures 3 and 4 split the instance corpus on exactly this), while heuristic
//! solvers always return their best-found solution. [`SolveStatus`] encodes
//! this distinction and [`SolveReport`] carries the solution, its energy and
//! timing so that the benchmark harness can apply the paper's time-matched
//! comparison methodology.

use crate::{BinarySolution, QuboError, QuboModel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The solver proved that the returned solution is a global optimum.
    Optimal,
    /// The solver stopped because it hit its time (or node) limit; the returned
    /// solution is the best incumbent found so far.
    TimeLimit,
    /// The solver is a heuristic and makes no optimality claim.
    Heuristic,
}

impl SolveStatus {
    /// Returns `true` if the solver proved optimality.
    pub fn is_optimal(self) -> bool {
        matches!(self, SolveStatus::Optimal)
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::TimeLimit => "time-limit",
            SolveStatus::Heuristic => "heuristic",
        };
        f.write_str(s)
    }
}

/// How much of its configured work a solve finished before returning.
///
/// The anytime contract: a solver handed a [`Budget`] returns its best-so-far
/// incumbent when the budget expires instead of running to completion, and
/// marks the report `Truncated` with the number of fully completed restarts
/// (samples, for sampling solvers). Truncated results are bit-deterministic as
/// a pure function of the completed-restart set — which restarts completed may
/// depend on wall clock, but the result reduced from a given completed set
/// never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Completion {
    /// Every configured restart/sweep/sample ran to its natural end.
    Full,
    /// The budget expired first; the report carries the best-so-far incumbent.
    Truncated {
        /// Number of restarts (or samples) that ran to completion before the
        /// budget expired. Solvers without a restart structure (branch and
        /// bound, exhaustive enumeration) report `0` here.
        completed_restarts: u64,
    },
}

impl Completion {
    /// Returns `true` if the solve ran to its natural end.
    pub fn is_full(self) -> bool {
        matches!(self, Completion::Full)
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Full => f.write_str("full"),
            Completion::Truncated { completed_restarts } => {
                write!(f, "truncated({completed_restarts} restarts)")
            }
        }
    }
}

/// A cooperative cancellation flag shared between a caller and a running solve.
///
/// Cloning the token shares the underlying flag. Solvers check it at restart
/// and sweep boundaries; cancellation is therefore prompt but never tears a
/// restart mid-kernel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones of the token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// An anytime execution budget: wall-clock deadline, cooperative cancellation,
/// and an optional deterministic restart cap.
///
/// Solvers check the budget at restart/sweep boundaries and return their
/// best-so-far incumbent (marked [`Completion::Truncated`]) once it is
/// exhausted. The restart cap truncates after a fixed number of completed
/// restarts independent of wall clock, which makes truncation itself
/// reproducible — the lever the determinism tests use.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancels: Vec<CancelToken>,
    restart_cap: Option<u64>,
}

impl Budget {
    /// A budget that never expires.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_time_limit(limit: Duration) -> Self {
        Budget::unlimited().deadline_at(Instant::now() + limit)
    }

    /// Returns a copy with the deadline set to `deadline` (tightening any
    /// existing deadline: the earlier of the two wins).
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(existing) => existing.min(deadline),
            None => deadline,
        });
        self
    }

    /// Returns a copy also observing `token`: the budget is exhausted once the
    /// token is cancelled. Multiple tokens may be attached; any one suffices.
    pub fn cancelled_by(mut self, token: &CancelToken) -> Self {
        self.cancels.push(token.clone());
        self
    }

    /// Returns a copy that truncates after `cap` completed restarts,
    /// independent of wall clock. `Some(0)` is treated like `Some(1)` by the
    /// runtime so a result always exists.
    pub fn with_restart_cap(mut self, cap: u64) -> Self {
        self.restart_cap = Some(cap);
        self
    }

    /// The wall-clock deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The deterministic restart cap, if one is set.
    pub fn restart_cap(&self) -> Option<u64> {
        self.restart_cap
    }

    /// Returns a copy tightened by an optional relative time limit (the
    /// convention of the solvers' `time_limit` fields). `None` leaves the
    /// budget unchanged.
    pub fn merged_with_time_limit(self, limit: Option<Duration>) -> Self {
        match limit {
            Some(limit) => self.deadline_at(Instant::now() + limit),
            None => self,
        }
    }

    /// Returns `true` once the deadline has passed or any attached token has
    /// been cancelled. The restart cap is *not* part of exhaustion — it is
    /// enforced by the restart runtime, which counts completed restarts.
    pub fn is_exhausted(&self) -> bool {
        self.cancels.iter().any(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The result of running a [`QuboSolver`] on a model.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Best binary assignment found.
    pub solution: BinarySolution,
    /// Energy of [`SolveReport::solution`] under the model (including offset).
    pub objective: f64,
    /// Outcome classification.
    pub status: SolveStatus,
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
    /// Solver-specific work counter (branch-and-bound nodes, sweeps, samples…).
    pub iterations: u64,
    /// Whether the solve ran to completion or was truncated by its budget.
    pub completion: Completion,
}

/// A QUBO minimisation algorithm.
///
/// Implemented by the QHD solver (`qhdcd-qhd`) and by every classical baseline
/// (`qhdcd-solvers`), so the community-detection pipeline and the benchmark
/// harness can swap solvers freely. An implementation supplies
/// [`QuboSolver::name`] and [`QuboSolver::solve_bounded`];
/// [`QuboSolver::solve`] is the unbounded, cold-started shorthand.
pub trait QuboSolver {
    /// Human-readable solver name used in reports and benchmark output.
    fn name(&self) -> &str;

    /// Minimises `model` under an anytime [`Budget`], optionally warm-started
    /// from an incumbent assignment `hint`.
    ///
    /// The anytime contract for implementers: check the budget at restart and
    /// sweep boundaries; on exhaustion return the best-so-far incumbent with
    /// [`Completion::Truncated`] instead of an error, and keep the result a
    /// pure function of the set of restarts that completed.
    ///
    /// Solvers that can exploit a prior solution (the restart portfolio, which
    /// dedicates one restart to polishing the incumbent) use `hint` and should
    /// return a result no worse than what local polish of the hint achieves;
    /// the others ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError`] if the model is degenerate for this solver (for
    /// example, an exact state-vector simulation asked to handle more variables
    /// than it can represent), [`QuboError::SolutionSizeMismatch`] if a hint
    /// the solver uses does not match the model, and
    /// [`QuboError::RestartPanicked`] when every restart that ran panicked,
    /// leaving no incumbent to report.
    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError>;

    /// Minimises `model` without a hint or a budget:
    /// [`QuboSolver::solve_bounded`] with `None` and [`Budget::unlimited`].
    ///
    /// # Errors
    ///
    /// Same as [`QuboSolver::solve_bounded`].
    fn solve(&self, model: &QuboModel) -> Result<SolveReport, QuboError> {
        self.solve_bounded(model, None, &Budget::unlimited())
    }
}

/// Blanket implementation so `Box<dyn QuboSolver>` and `&S` work transparently.
impl<S: QuboSolver + ?Sized> QuboSolver for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        (**self).solve_bounded(model, hint, budget)
    }
}

impl<S: QuboSolver + ?Sized> QuboSolver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve_bounded(
        &self,
        model: &QuboModel,
        hint: Option<&[bool]>,
        budget: &Budget,
    ) -> Result<SolveReport, QuboError> {
        (**self).solve_bounded(model, hint, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_qubo, RandomQuboConfig};

    #[test]
    fn status_display_and_predicates() {
        assert_eq!(SolveStatus::Optimal.to_string(), "optimal");
        assert_eq!(SolveStatus::TimeLimit.to_string(), "time-limit");
        assert_eq!(SolveStatus::Heuristic.to_string(), "heuristic");
        assert!(SolveStatus::Optimal.is_optimal());
        assert!(!SolveStatus::TimeLimit.is_optimal());
    }

    #[test]
    fn completion_display_and_predicates() {
        assert_eq!(Completion::Full.to_string(), "full");
        assert_eq!(
            Completion::Truncated { completed_restarts: 3 }.to_string(),
            "truncated(3 restarts)"
        );
        assert!(Completion::Full.is_full());
        assert!(!Completion::Truncated { completed_restarts: 0 }.is_full());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        // Idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn budget_exhaustion_rules() {
        assert!(!Budget::unlimited().is_exhausted());
        // An already-passed deadline exhausts the budget.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(Budget::unlimited().deadline_at(past).is_exhausted());
        // A generous deadline does not.
        assert!(!Budget::with_time_limit(Duration::from_secs(3600)).is_exhausted());
        // Any attached cancelled token exhausts it.
        let token = CancelToken::new();
        let budget = Budget::unlimited().cancelled_by(&token);
        assert!(!budget.is_exhausted());
        token.cancel();
        assert!(budget.is_exhausted());
        // The restart cap is carried but is not an exhaustion condition.
        let budget = Budget::unlimited().with_restart_cap(2);
        assert_eq!(budget.restart_cap(), Some(2));
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn budget_deadline_merging_keeps_the_earlier_deadline() {
        let early = Instant::now() + Duration::from_millis(10);
        let late = early + Duration::from_secs(10);
        let budget = Budget::unlimited().deadline_at(late).deadline_at(early);
        assert_eq!(budget.deadline(), Some(early));
        let budget = Budget::unlimited().deadline_at(early).deadline_at(late);
        assert_eq!(budget.deadline(), Some(early));
        let merged = Budget::unlimited()
            .deadline_at(early)
            .merged_with_time_limit(Some(Duration::from_secs(3600)));
        assert_eq!(merged.deadline(), Some(early));
        assert_eq!(Budget::unlimited().merged_with_time_limit(None).deadline(), None);
    }

    /// Returns the hint, or the all-zero assignment without one, and reports
    /// an exhausted budget as a truncation: enough to see what the provided
    /// `solve` and the forwarding impls pass on.
    struct Incumbent;

    impl QuboSolver for Incumbent {
        fn name(&self) -> &str {
            "incumbent"
        }

        fn solve_bounded(
            &self,
            model: &QuboModel,
            hint: Option<&[bool]>,
            budget: &Budget,
        ) -> Result<SolveReport, QuboError> {
            let solution =
                hint.map_or_else(|| vec![false; model.num_variables()], <[bool]>::to_vec);
            let completion = if budget.is_exhausted() {
                Completion::Truncated { completed_restarts: 0 }
            } else {
                Completion::Full
            };
            Ok(SolveReport {
                objective: model.evaluate(&solution)?,
                solution,
                status: SolveStatus::Heuristic,
                elapsed: Duration::ZERO,
                iterations: 1,
                completion,
            })
        }
    }

    #[test]
    fn solve_bounded_default_delegates_and_ignores_the_budget() {
        let m = random_qubo(&RandomQuboConfig {
            num_variables: 8,
            density: 0.5,
            coefficient_range: 1.0,
            seed: 5,
        })
        .unwrap();
        // The provided `solve` runs `solve_bounded` with no hint and a budget
        // that never runs out, so the two agree bit for bit.
        let plain = Incumbent.solve(&m).unwrap();
        let bounded = Incumbent.solve_bounded(&m, None, &Budget::unlimited()).unwrap();
        assert_eq!(plain.solution, bounded.solution);
        assert_eq!(plain.solution, vec![false; 8]);
        assert_eq!(plain.objective.to_bits(), bounded.objective.to_bits());
        assert!(plain.completion.is_full());
        assert!(bounded.completion.is_full());
    }

    #[test]
    fn solver_trait_objects_work() {
        let m = random_qubo(&RandomQuboConfig {
            num_variables: 6,
            density: 0.5,
            coefficient_range: 1.0,
            seed: 2,
        })
        .unwrap();
        // `solve` is `solve_bounded` without a hint or a budget.
        let boxed: Box<dyn QuboSolver> = Box::new(Incumbent);
        assert_eq!(boxed.name(), "incumbent");
        let r = boxed.solve(&m).unwrap();
        assert_eq!(r.solution, vec![false; 6]);
        assert!(r.completion.is_full());
        // The forwarding impls pass the hint and the budget on.
        let by_ref: &dyn QuboSolver = &Incumbent;
        assert_eq!(by_ref.name(), "incumbent");
        let hint = [true, false, true, false, true, false];
        let expired = Budget::unlimited().deadline_at(Instant::now());
        let r = (&by_ref).solve_bounded(&m, Some(&hint), &expired).unwrap();
        assert_eq!(r.solution, hint);
        assert_eq!(r.objective.to_bits(), m.evaluate(&hint).unwrap().to_bits());
        assert!(!r.completion.is_full());
    }
}
