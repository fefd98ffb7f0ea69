//! Cross-crate integration tests: the full pipeline from graph generation
//! through QUBO formulation, QHD solving and multilevel refinement.

use qhdcd::core::formulation::{build_qubo, FormulationConfig};
use qhdcd::graph::{generators, metrics, modularity, Partition};
use qhdcd::prelude::*;
use qhdcd::solvers::{ExhaustiveSearch, Strategy};

#[test]
fn qhd_recovers_planted_communities_end_to_end() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 90,
        num_communities: 3,
        p_in: 0.45,
        p_out: 0.02,
        seed: 11,
    })
    .unwrap();
    let result = CommunityDetector::qhd()
        .with_communities(3)
        .with_seed(4)
        .with_qhd_samples(4)
        .detect(&pg.graph)
        .unwrap();
    let nmi = metrics::normalized_mutual_information(&result.partition, &pg.ground_truth);
    assert!(nmi > 0.9, "nmi={nmi}");
    let q_truth = modularity::modularity(&pg.graph, &pg.ground_truth);
    assert!(result.modularity >= 0.95 * q_truth, "q={} truth={q_truth}", result.modularity);
}

#[test]
fn qhd_direct_matches_exact_solver_on_a_small_graph() {
    // On a small graph the QHD pipeline should find the same optimal community
    // structure as brute force over the QUBO.
    let pg = generators::ring_of_cliques(2, 4).unwrap();
    let qubo = build_qubo(&pg.graph, &FormulationConfig::with_communities(2)).unwrap();

    let exact = ExhaustiveSearch.solve(qubo.model()).unwrap();
    let exact_partition = qubo.decode(&pg.graph, &exact.solution).unwrap();
    let exact_q = modularity::modularity(&pg.graph, &exact_partition);

    let qhd = CommunityDetector::new(Method::QhdDirect)
        .with_communities(2)
        .with_seed(2)
        .with_qhd_samples(4)
        .detect(&pg.graph)
        .unwrap();
    assert!(
        qhd.modularity >= exact_q - 1e-9,
        "qhd={} exact={exact_q} (refinement may only add quality)",
        qhd.modularity
    );
}

#[test]
fn all_solvers_agree_on_tiny_community_detection_qubos() {
    let pg = generators::ring_of_cliques(2, 4).unwrap();
    let qubo = build_qubo(&pg.graph, &FormulationConfig::with_communities(2)).unwrap();
    let model = qubo.model();

    let exact = ExhaustiveSearch.solve(model).unwrap().objective;
    let bb = BranchAndBound::default().solve(model).unwrap();
    assert_eq!(bb.status, SolveStatus::Optimal);
    assert!((bb.objective - exact).abs() < 1e-9);

    // Annealing and tabu alone: one-member portfolios.
    let member = |strategy, restarts| {
        let solver = PortfolioSolver::default()
            .with_strategies(vec![strategy])
            .with_restarts(restarts)
            .with_threads(1)
            .with_seed(1);
        solver.solve(model).unwrap().objective
    };
    let sa = member(Strategy::Annealing { initial_temperature: 2.0, final_temperature: 0.01 }, 4);
    let tabu = member(Strategy::Tabu { tenure: None }, 1);
    let qhd = QhdSolver::builder().samples(4).seed(1).build().solve(model).unwrap().objective;
    for (name, value) in [("sa", sa), ("tabu", tabu), ("qhd", qhd)] {
        assert!((value - exact).abs() < 1e-6, "{name}={value} exact={exact}");
    }
}

#[test]
fn multilevel_and_direct_agree_on_medium_graphs() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 150,
        num_communities: 5,
        p_in: 0.3,
        p_out: 0.02,
        seed: 3,
    })
    .unwrap();
    let direct = CommunityDetector::new(Method::QhdDirect)
        .with_communities(5)
        .with_seed(9)
        .with_qhd_samples(3)
        .detect(&pg.graph)
        .unwrap();
    let multilevel = CommunityDetector::new(Method::QhdMultilevel)
        .with_communities(5)
        .with_seed(9)
        .with_qhd_samples(3)
        .with_coarsen_threshold(50)
        .detect(&pg.graph)
        .unwrap();
    // The two pipelines follow different search paths; they should land on
    // partitions of comparable quality on a graph this size.
    assert!(
        (direct.modularity - multilevel.modularity).abs() < 0.08,
        "direct={} multilevel={}",
        direct.modularity,
        multilevel.modularity
    );
}

#[test]
fn qhd_multilevel_reaches_the_planted_quality_on_an_ambiguous_graph() {
    // Mixing 0.3 blurs the planted communities; the QUBO-based pipeline must
    // still find a partition about as good as the planted one.
    let pg = generators::lfr_like(&generators::LfrConfig {
        num_nodes: 250,
        mixing: 0.3,
        seed: 6,
        ..generators::LfrConfig::default()
    })
    .unwrap();
    let qhd = CommunityDetector::qhd()
        .with_communities(8)
        .with_seed(1)
        .with_qhd_samples(3)
        .with_coarsen_threshold(80)
        .detect(&pg.graph)
        .unwrap();
    let planted = modularity::modularity(&pg.graph, &pg.ground_truth);
    assert!(qhd.modularity >= planted - 0.02, "qhd={} planted={planted}", qhd.modularity);
}

#[test]
fn partitions_cover_every_node_exactly_once() {
    let pg = generators::ring_of_cliques(10, 7).unwrap();
    for method in [Method::QhdMultilevel, Method::AnnealingMultilevel, Method::Louvain] {
        let result = CommunityDetector::new(method)
            .with_communities(10)
            .with_seed(0)
            .with_qhd_samples(2)
            .detect(&pg.graph)
            .unwrap();
        assert_eq!(result.partition.num_nodes(), 70);
        // Renumbered labels are contiguous 0..k.
        let k = result.partition.num_communities();
        let renum = result.partition.renumbered();
        assert!(renum.labels().iter().all(|&l| l < k));
    }
}

#[test]
fn time_matched_protocol_runs_end_to_end() {
    // A miniature version of the Fig. 3/4 protocol: QHD's wall-clock budget is
    // handed to branch-and-bound, and the statuses are interpretable.
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 60,
        num_communities: 3,
        p_in: 0.4,
        p_out: 0.05,
        seed: 21,
    })
    .unwrap();
    let qubo = build_qubo(&pg.graph, &FormulationConfig::with_communities(3)).unwrap();
    let qhd_report = QhdSolver::builder().samples(3).seed(3).build().solve(qubo.model()).unwrap();
    let bb_report =
        BranchAndBound::with_time_limit(qhd_report.elapsed).solve(qubo.model()).unwrap();
    assert!(matches!(bb_report.status, SolveStatus::Optimal | SolveStatus::TimeLimit));
    // Both decode into valid partitions of the right size.
    for solution in [&qhd_report.solution, &bb_report.solution] {
        let p = qubo.decode(&pg.graph, solution).unwrap();
        assert_eq!(p.num_nodes(), 60);
    }
}

#[test]
fn edge_list_io_feeds_the_detector() {
    let pg = generators::ring_of_cliques(4, 5).unwrap();
    let text = qhdcd::graph::io::to_edge_list(&pg.graph);
    let parsed = qhdcd::graph::io::parse_edge_list(&text).unwrap();
    let result = CommunityDetector::new(Method::Louvain).detect(&parsed).unwrap();
    let nmi = metrics::normalized_mutual_information(&result.partition, &pg.ground_truth);
    assert!(nmi > 0.9, "nmi={nmi}");
}

#[test]
fn ground_truth_partition_round_trips_through_the_qubo_encoding() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 40,
        num_communities: 4,
        p_in: 0.5,
        p_out: 0.05,
        seed: 8,
    })
    .unwrap();
    let qubo = build_qubo(&pg.graph, &FormulationConfig::with_communities(4)).unwrap();
    let encoded = qubo.encode(&pg.ground_truth).unwrap();
    let decoded = qubo.decode(&pg.graph, &encoded).unwrap();
    assert_eq!(decoded, pg.ground_truth.renumbered());
    // The planted partition's QUBO energy beats random valid assignments.
    let random = Partition::from_labels((0..40).map(|i| (i * 7 + 3) % 4).collect()).unwrap();
    let random_encoded = qubo.encode(&random).unwrap();
    assert!(
        qubo.model().evaluate(&encoded).unwrap() < qubo.model().evaluate(&random_encoded).unwrap()
    );
}

/// Degenerate inputs through the facade, for every method: each detection
/// succeeds, covers every node, and reports the Q that a recomputation on its
/// own partition gives, bit for bit.
#[test]
fn every_method_handles_degenerate_inputs() {
    let star: Vec<(usize, usize)> = (1..10).map(|leaf| (0, leaf)).collect();
    let inputs = [
        ("single node", GraphBuilder::new(1).build()),
        ("5 isolated nodes", GraphBuilder::new(5).build()),
        (
            "3 self-loop-only nodes",
            GraphBuilder::from_unweighted_edges(3, [(0, 0), (1, 1), (2, 2)]).unwrap(),
        ),
        (
            "triangle plus 5 isolated nodes",
            GraphBuilder::from_unweighted_edges(8, [(0, 1), (1, 2), (0, 2)]).unwrap(),
        ),
        ("10-node star", GraphBuilder::from_unweighted_edges(10, star).unwrap()),
        (
            "zero-weight edges",
            GraphBuilder::from_edges(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]).unwrap(),
        ),
    ];
    let methods = [
        Method::QhdDirect,
        Method::QhdMultilevel,
        Method::BranchAndBoundDirect,
        Method::AnnealingMultilevel,
        Method::PortfolioMultilevel,
        Method::Louvain,
    ];
    for (name, graph) in &inputs {
        for method in methods {
            let mut detector = CommunityDetector::new(method).with_seed(5);
            // No wildcard arm: a new `Method` variant fails to compile here
            // until it is given a budget and joins `methods` above.
            match method {
                Method::BranchAndBoundDirect => {
                    detector = detector.with_time_limit(std::time::Duration::from_millis(200));
                }
                Method::QhdDirect
                | Method::QhdMultilevel
                | Method::AnnealingMultilevel
                | Method::PortfolioMultilevel
                | Method::Louvain => {}
            }
            let result =
                detector.detect(graph).unwrap_or_else(|e| panic!("{method} on {name}: {e}"));
            assert_eq!(result.partition.num_nodes(), graph.num_nodes(), "{method} on {name}");
            let recomputed = modularity::modularity(graph, &result.partition);
            assert_eq!(
                result.modularity.to_bits(),
                recomputed.to_bits(),
                "{method} on {name}: reported {} vs recomputed {recomputed}",
                result.modularity
            );
        }
    }
}
