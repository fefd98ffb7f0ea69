//! Anytime-contract suite: every solver family honors the shared [`Budget`]
//! and its determinism guarantees.
//!
//! The contract under test, for each restart/sample-based family:
//!
//! * **Unlimited budgets change nothing.** `solve_bounded` with
//!   `Budget::unlimited()` is bit-identical to `solve()` and reports
//!   `Completion::Full`.
//! * **Truncation is a pure function of the completed set.** A run truncated
//!   to `c` restarts by a restart cap is bit-identical to a full run
//!   configured with `c` restarts — the incumbent depends only on *which*
//!   restarts completed, never on thread count or completion order.
//! * **Expiry still yields a best-effort incumbent.** A pre-cancelled budget
//!   returns a valid solution with a truncated completion, not an error.
//!
//! The solvers without a restart structure (branch and bound, exhaustive
//! enumeration) are covered for the unlimited-budget and expiry halves.

use qhdcd::qhd::QhdSolver;
use qhdcd::qubo::generate::{random_qubo, RandomQuboConfig};
use qhdcd::qubo::{Budget, CancelToken, Completion, QuboModel, QuboSolver};
use qhdcd::solvers::{BranchAndBound, ExhaustiveSearch, PortfolioSolver, Strategy};

fn instance(n: usize, seed: u64) -> QuboModel {
    random_qubo(&RandomQuboConfig { num_variables: n, density: 0.6, coefficient_range: 1.0, seed })
        .expect("valid random instance")
}

/// Builds a solver from `(restarts, threads)`.
type SolverFactory = Box<dyn Fn(usize, usize) -> Box<dyn QuboSolver>>;

/// A portfolio over `strategies`.
fn portfolio(strategies: Vec<Strategy>) -> SolverFactory {
    Box::new(move |r, t| {
        Box::new(
            PortfolioSolver::default()
                .with_strategies(strategies.clone())
                .with_seed(9)
                .with_restarts(r)
                .with_threads(t),
        ) as Box<dyn QuboSolver>
    })
}

/// Restart-structured families: `make(restarts, threads)` builds the solver.
/// Each portfolio member also runs alone.
fn restart_families() -> Vec<(&'static str, SolverFactory)> {
    let annealing = Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 };
    let tabu = Strategy::Tabu { tenure: None };
    vec![
        ("greedy", portfolio(vec![Strategy::Greedy])),
        ("annealing", portfolio(vec![annealing])),
        ("tabu", portfolio(vec![tabu])),
        ("portfolio", portfolio(vec![Strategy::Greedy, annealing, tabu])),
        (
            "qhd-mean-field",
            Box::new(|r, t| {
                Box::new(QhdSolver::builder().samples(r).steps(40).seed(9).threads(t).build())
                    as Box<dyn QuboSolver>
            }),
        ),
    ]
}

#[test]
fn unlimited_budgets_are_bit_identical_to_plain_solve() {
    let model = instance(14, 5);
    for (name, make) in restart_families() {
        let solver = make(6, 1);
        let plain = solver.solve(&model).unwrap();
        let bounded = solver.solve_bounded(&model, None, &Budget::unlimited()).unwrap();
        assert_eq!(plain.solution, bounded.solution, "{name}: solutions diverge");
        assert_eq!(
            plain.objective.to_bits(),
            bounded.objective.to_bits(),
            "{name}: objective bits diverge"
        );
        assert!(bounded.completion.is_full(), "{name}: unlimited budget reported truncation");
    }
    for (name, solver) in [
        ("branch-and-bound", Box::new(BranchAndBound::default()) as Box<dyn QuboSolver>),
        ("exhaustive", Box::new(ExhaustiveSearch)),
    ] {
        let plain = solver.solve(&model).unwrap();
        let bounded = solver.solve_bounded(&model, None, &Budget::unlimited()).unwrap();
        assert_eq!(plain.solution, bounded.solution, "{name}: solutions diverge");
        assert!(bounded.completion.is_full(), "{name}: unlimited budget reported truncation");
    }
}

#[test]
fn restart_caps_truncate_to_the_equivalent_smaller_run() {
    let model = instance(14, 7);
    for (name, make) in restart_families() {
        // The reference: a full run over exactly the first 3 restarts.
        let reference = make(3, 1).solve(&model).unwrap();
        for threads in [1, 2, 8] {
            let solver = make(9, threads);
            let capped = solver
                .solve_bounded(&model, None, &Budget::unlimited().with_restart_cap(3))
                .unwrap();
            assert_eq!(
                capped.solution, reference.solution,
                "{name}/{threads} threads: capped run diverges from the smaller full run"
            );
            assert_eq!(
                capped.objective.to_bits(),
                reference.objective.to_bits(),
                "{name}/{threads} threads: objective bits diverge"
            );
            assert_eq!(
                capped.completion,
                Completion::Truncated { completed_restarts: 3 },
                "{name}/{threads} threads: wrong completion report"
            );
        }
    }
}

#[test]
fn expired_budgets_return_best_effort_incumbents() {
    let model = instance(12, 11);
    let cancel = CancelToken::new();
    cancel.cancel();
    let expired = Budget::unlimited().cancelled_by(&cancel);
    let mut solvers: Vec<(&'static str, Box<dyn QuboSolver>)> = vec![
        ("branch-and-bound", Box::new(BranchAndBound::default())),
        ("exhaustive", Box::new(ExhaustiveSearch)),
    ];
    for (name, make) in restart_families() {
        solvers.push((name, make(4, 2)));
    }
    for (name, solver) in solvers {
        let report = solver.solve_bounded(&model, None, &expired).unwrap();
        assert_eq!(report.solution.len(), model.num_variables(), "{name}: invalid incumbent");
        assert!(!report.completion.is_full(), "{name}: expired budget reported a full run");
        let recomputed = model.evaluate(&report.solution).unwrap();
        assert!(
            (recomputed - report.objective).abs() < 1e-9,
            "{name}: objective {} does not match re-evaluation {recomputed}",
            report.objective
        );
    }
}

#[test]
fn cancellation_mid_run_is_observed() {
    // A deadline in the past behaves like cancellation for every family.
    let model = instance(12, 3);
    let budget = Budget::with_time_limit(std::time::Duration::ZERO);
    for (name, make) in restart_families() {
        let report = make(8, 2).solve_bounded(&model, None, &budget).unwrap();
        assert!(!report.completion.is_full(), "{name}: zero time limit reported a full run");
        assert_eq!(report.solution.len(), model.num_variables());
    }
}
