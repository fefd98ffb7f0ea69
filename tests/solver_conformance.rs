//! Cross-solver conformance suite.
//!
//! On exhaustively solvable instances (n ≤ 18), every solver family in the
//! workspace must obey the same contract:
//!
//! * the reported objective is never *below* the exhaustive optimum (no
//!   solver may claim an energy that no assignment achieves), and exact
//!   solvers reporting `Optimal` must hit the optimum exactly;
//! * the reported `objective` matches a from-scratch
//!   `QuboModel::evaluate` recomputation of the reported solution within the
//!   1e-9 accumulation tolerance (the incremental engine must not drift);
//! * restart-based solvers are bit-deterministic across worker-thread counts
//!   for a fixed root seed (the portfolio runtime's core guarantee).
//!
//! The instance set spans random QUBOs and the one-hot community-detection
//! encoding (the adversarial case for single-flip move sets). A wider,
//! slower sweep runs under `cargo test -- --ignored` in the nightly CI job.

use qhdcd::core::formulation::{build_qubo, FormulationConfig};
use qhdcd::qhd::{Backend, QhdSolver};
use qhdcd::qubo::generate::{random_qubo, RandomQuboConfig};
use qhdcd::qubo::{QuboModel, QuboSolver, SolveReport, SolveStatus};
use qhdcd::solvers::{BranchAndBound, ExhaustiveSearch, MoveSet, PortfolioSolver, Strategy};

/// The exhaustive optimum — the conformance reference.
fn exhaustive_optimum(model: &QuboModel) -> f64 {
    ExhaustiveSearch.solve(model).expect("exhaustive search handles n <= 18").objective
}

/// Asserts the shared solver contract for one report.
fn assert_conforms(name: &str, model: &QuboModel, report: &SolveReport, optimum: f64) {
    assert!(
        report.objective >= optimum - 1e-9,
        "{name}: reported objective {} below the exhaustive optimum {optimum}",
        report.objective
    );
    let recomputed = model.evaluate(&report.solution).expect("solution matches the model");
    assert!(
        (recomputed - report.objective).abs() < 1e-9,
        "{name}: reported objective {} but the solution re-evaluates to {recomputed}",
        report.objective
    );
    if report.status == SolveStatus::Optimal {
        assert!(
            (report.objective - optimum).abs() < 1e-9,
            "{name}: claims optimality at {} but the optimum is {optimum}",
            report.objective
        );
    }
}

/// The portfolio's members, each of which also runs alone.
fn members() -> [(&'static str, Strategy); 3] {
    [
        ("greedy", Strategy::Greedy),
        ("annealing", Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 }),
        ("tabu", Strategy::Tabu { tenure: None }),
    ]
}

/// Every solver family, configured for small instances. Boxed so one loop
/// drives them all.
fn solver_families(seed: u64) -> Vec<(&'static str, Box<dyn QuboSolver>)> {
    let mut families: Vec<(&'static str, Box<dyn QuboSolver>)> = vec![
        ("branch-and-bound", Box::new(BranchAndBound::default())),
        ("portfolio", Box::new(PortfolioSolver::default().with_seed(seed))),
        (
            "portfolio-pair-aware",
            Box::new({
                let mut p = PortfolioSolver::default()
                    .with_seed(seed)
                    .with_strategies(vec![Strategy::Greedy]);
                p.config.move_set = MoveSet::PairAware;
                p
            }),
        ),
        (
            "qhd-exact",
            Box::new(
                QhdSolver::builder()
                    .backend(Backend::Exact)
                    .samples(1)
                    .steps(50)
                    .shots(4)
                    .seed(seed)
                    .build(),
            ),
        ),
        (
            "qhd-mean-field",
            Box::new(
                QhdSolver::builder()
                    .backend(Backend::MeanField)
                    .samples(2)
                    .steps(60)
                    .seed(seed)
                    .build(),
            ),
        ),
    ];
    for (name, strategy) in members() {
        let solver = PortfolioSolver::default().with_seed(seed).with_strategies(vec![strategy]);
        families.push((name, Box::new(solver)));
    }
    families
}

fn random_instances(sizes: &[usize], seeds: std::ops::Range<u64>) -> Vec<QuboModel> {
    let mut instances = Vec::new();
    for &n in sizes {
        for seed in seeds.clone() {
            instances.push(
                random_qubo(&RandomQuboConfig {
                    num_variables: n,
                    density: 0.4,
                    coefficient_range: 1.0,
                    seed,
                })
                .unwrap(),
            );
        }
    }
    instances
}

/// A one-hot community-detection QUBO small enough for exhaustive search:
/// two triangles joined by a bridge, two community slots → 12 variables.
fn one_hot_instance() -> QuboModel {
    let graph = qhdcd::graph::GraphBuilder::from_unweighted_edges(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
    .unwrap();
    build_qubo(&graph, &FormulationConfig::with_communities(2)).unwrap().model().clone()
}

#[test]
fn every_family_conforms_on_random_instances() {
    for model in random_instances(&[10, 14], 0..2) {
        let optimum = exhaustive_optimum(&model);
        for (name, solver) in solver_families(7) {
            let report = solver.solve(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_conforms(name, &model, &report, optimum);
        }
    }
}

#[test]
fn every_family_conforms_on_the_one_hot_encoding() {
    let model = one_hot_instance();
    let optimum = exhaustive_optimum(&model);
    for (name, solver) in solver_families(3) {
        let report = solver.solve(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_conforms(name, &model, &report, optimum);
    }
}

#[test]
fn exact_solvers_find_the_optimum_exactly() {
    for model in random_instances(&[12], 0..3) {
        let optimum = exhaustive_optimum(&model);
        let bnb = BranchAndBound::default().solve(&model).unwrap();
        assert_eq!(bnb.status, SolveStatus::Optimal);
        assert!((bnb.objective - optimum).abs() < 1e-9);
        let exhaustive = ExhaustiveSearch.solve(&model).unwrap();
        assert_eq!(exhaustive.status, SolveStatus::Optimal);
        assert!((exhaustive.objective - optimum).abs() < 1e-12);
    }
}

#[test]
fn portfolio_is_bit_deterministic_across_worker_counts() {
    let model = random_qubo(&RandomQuboConfig {
        num_variables: 200,
        density: 0.05,
        coefficient_range: 1.0,
        seed: 42,
    })
    .unwrap();
    let base = PortfolioSolver::default().with_seed(2025).with_restarts(12);
    let reference = base.clone().with_threads(1).solve(&model).unwrap();
    for threads in [2usize, 8] {
        let run = base.clone().with_threads(threads).solve(&model).unwrap();
        assert_eq!(run.solution, reference.solution, "threads={threads}");
        assert_eq!(
            run.objective.to_bits(),
            reference.objective.to_bits(),
            "threads={threads}: {} vs {}",
            run.objective,
            reference.objective
        );
        assert_eq!(run.iterations, reference.iterations, "threads={threads}");
    }
}

#[test]
fn restart_solvers_are_bit_deterministic_across_worker_counts() {
    let model = random_qubo(&RandomQuboConfig {
        num_variables: 120,
        density: 0.08,
        coefficient_range: 1.0,
        seed: 11,
    })
    .unwrap();
    // Each member alone, so a determinism bug in one kernel cannot hide
    // behind another member winning the reduction.
    for (name, strategy) in members() {
        let base = PortfolioSolver::default().with_seed(5).with_strategies(vec![strategy]);
        let one = base.clone().with_restarts(4).with_threads(1).solve(&model).unwrap();
        let four = base.with_restarts(4).with_threads(4).solve(&model).unwrap();
        assert_eq!(one.solution, four.solution, "{name}");
        assert_eq!(one.objective.to_bits(), four.objective.to_bits(), "{name}");
        assert_eq!(one.iterations, four.iterations, "{name}");
    }
}

#[test]
fn portfolio_subsumes_a_member_run_on_shared_restart_indices() {
    // Sound inequality: a portfolio whose members are all the SAME strategy
    // runs exactly that member on every restart-stream index, so a mixed
    // portfolio extended with more restarts of the same streams can only tie
    // or improve. We check the one relation the seeding scheme does
    // guarantee: adding restarts (a superset of stream indices) never worsens
    // the best-of reduction for a fixed strategy set.
    let model = random_qubo(&RandomQuboConfig {
        num_variables: 16,
        density: 0.4,
        coefficient_range: 1.0,
        seed: 6,
    })
    .unwrap();
    let optimum = exhaustive_optimum(&model);
    let base = PortfolioSolver::default().with_seed(1);
    let small = base.clone().with_restarts(6).solve(&model).unwrap();
    let large = base.clone().with_restarts(18).solve(&model).unwrap();
    // Restart indices 0..6 of `large` run the identical member/stream pairs
    // as `small` (18 and 6 are both multiples of the 3-member rotation), so
    // the larger schedule is a strict superset of trajectories.
    assert!(large.objective <= small.objective + 1e-12);
    assert!(large.objective >= optimum - 1e-9);
    assert!(small.objective >= optimum - 1e-9);
}

/// The nightly-style wide sweep: more sizes (up to the exhaustive limit), more
/// seeds, and the full solver matrix. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "slow conformance sweep; run in the nightly CI job"]
fn wide_conformance_sweep() {
    for model in random_instances(&[8, 12, 16, 18], 0..4) {
        let optimum = exhaustive_optimum(&model);
        for seed in 0..2u64 {
            for (name, solver) in solver_families(seed) {
                let report = solver.solve(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_conforms(name, &model, &report, optimum);
            }
        }
    }
    // One-hot encodings with more slots (still exhaustively solvable):
    // 4 nodes × 3 slots and 6 nodes × 3 slots.
    for (nodes, edges, k) in [
        (4, vec![(0usize, 1usize), (1, 2), (2, 3), (3, 0)], 3usize),
        (6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 3),
    ] {
        let graph = qhdcd::graph::GraphBuilder::from_unweighted_edges(nodes, edges).unwrap();
        let model =
            build_qubo(&graph, &FormulationConfig::with_communities(k)).unwrap().model().clone();
        let optimum = exhaustive_optimum(&model);
        for (name, solver) in solver_families(0) {
            let report = solver.solve(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_conforms(name, &model, &report, optimum);
        }
    }
}

/// Nightly sweep over generalized quality functions: the one-hot encoding
/// under γ≠1 modularity and CPM must keep the full solver contract, and the
/// exhaustive minimizer must decode to the best partition of the configured
/// quality (the affine energy ↔ quality correspondence, checked against a
/// brute-force label scan). Run with `cargo test -- --ignored`.
#[test]
#[ignore = "slow conformance sweep; run in the nightly CI job"]
fn wide_conformance_sweep_under_generalized_quality() {
    use qhdcd::graph::modularity::QualityFunction;
    let graph = qhdcd::graph::GraphBuilder::from_unweighted_edges(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
    .unwrap();
    for quality in [
        QualityFunction::modularity(0.5),
        QualityFunction::modularity(2.0),
        QualityFunction::cpm(0.5),
        QualityFunction::cpm(1.0),
    ] {
        let config = FormulationConfig { quality, ..FormulationConfig::with_communities(2) };
        let qubo = build_qubo(&graph, &config).unwrap();
        let model = qubo.model().clone();
        let optimum = exhaustive_optimum(&model);
        for seed in 0..2u64 {
            for (name, solver) in solver_families(seed) {
                let report = solver.solve(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_conforms(&format!("{name} under {quality:?}"), &model, &report, optimum);
            }
        }
        // The exhaustive minimizer decodes to the best 2-slot partition of the
        // configured quality function.
        let best = ExhaustiveSearch.solve(&model).unwrap();
        let decoded =
            qhdcd::core::formulation::decoded_quality(&qubo, &graph, &best.solution).unwrap();
        let mut brute_best = f64::NEG_INFINITY;
        for mask in 0..(1u32 << 6) {
            let labels: Vec<usize> = (0..6).map(|i| ((mask >> i) & 1) as usize).collect();
            let partition = qhdcd::graph::Partition::from_labels(labels).unwrap();
            brute_best =
                brute_best.max(qhdcd::graph::modularity::quality(&graph, &partition, quality));
        }
        assert!(
            (decoded - brute_best).abs() < 1e-9,
            "{quality:?}: decoded optimum {decoded} vs brute-force best {brute_best}"
        );
    }
}

/// Nightly-style determinism sweep over a bigger schedule.
#[test]
#[ignore = "slow determinism sweep; run in the nightly CI job"]
fn wide_determinism_sweep() {
    let model = random_qubo(&RandomQuboConfig {
        num_variables: 400,
        density: 0.03,
        coefficient_range: 1.0,
        seed: 1,
    })
    .unwrap();
    let mut base = PortfolioSolver::default().with_restarts(24);
    base.config.move_set = MoveSet::PairAware;
    for seed in 0..3u64 {
        let reference = base.clone().with_seed(seed).with_threads(1).solve(&model).unwrap();
        for threads in [2usize, 3, 8, 16] {
            let run = base.clone().with_seed(seed).with_threads(threads).solve(&model).unwrap();
            assert_eq!(run.solution, reference.solution, "seed={seed} threads={threads}");
            assert_eq!(run.objective.to_bits(), reference.objective.to_bits());
        }
    }
}
