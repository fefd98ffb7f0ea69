//! Regression pins for the generalized quality functions.
//!
//! The `QualityFunction` abstraction (resolution-γ modularity + CPM) was
//! threaded through every consumer of the gain arithmetic under a hard
//! contract: at the default γ=1 modularity, every pipeline must produce
//! **bit-identical** output to the pre-abstraction code. The values pinned
//! below were captured on the commit *before* the abstraction landed —
//! static refinement, the Louvain facade, the streaming detector trace, and
//! checkpoint-replay recovery must keep reproducing them exactly.

use qhdcd::core::refine::{refine_partition, RefineConfig};
use qhdcd::graph::{generators, modularity, Partition};
use qhdcd::prelude::*;

/// Pin A: static refinement on karate from singletons (captured pre-change).
const PIN_A_LABELS: [usize; 34] = [
    0, 0, 1, 1, 2, 3, 3, 1, 4, 1, 2, 0, 1, 1, 4, 4, 3, 0, 4, 0, 4, 0, 4, 5, 5, 5, 4, 5, 5, 4, 4, 5,
    4, 4,
];
const PIN_A_QBITS: u64 = 0x3fd7207be05b8f91;

/// Pin B: the Louvain facade on karate, seed 7 (captured pre-change).
const PIN_B_LABELS: [usize; 34] = [
    0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 1, 0, 0, 0, 2, 2, 1, 0, 2, 0, 2, 0, 2, 3, 3, 3, 2, 3, 3, 2, 2, 3,
    2, 2,
];
const PIN_B_QBITS: u64 = 0x3fdaddd53fca2404;

/// Pin C: a fixed streaming event trace on a ring of cliques (captured
/// pre-change): per-batch maintained modularity bits, final labels, final Q.
const PIN_C_TRACE: [u64; 5] = [
    0x3fe6afd03507c9c4,
    0x3fe6e5de56cf47c1,
    0x3fe6147ae147ae14,
    0x3fe6b11f696b7738,
    0x3fe5223a07dd9d72,
];
const PIN_C_LABELS: [usize; 30] =
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5];
const PIN_C_QBITS: u64 = 0x3fe5223a07dd9d72;

const PIN_C_LOG: &str = "\
    0 add 3 9\n1 add 14 2 1.5\n2 del 3 9\n3 add 7 21 0.5\n4 upd 14 2 2.5\n\
    5 add 1 18\n6 add 25 4\n7 del 14 2\n8 add 11 29 3.0\n9 add 0 15\n";

fn pin_c_config() -> StreamConfig {
    StreamConfig { drift_threshold: 0.08, ..StreamConfig::default() }.with_seed(23)
}

#[test]
fn static_refinement_at_unit_resolution_is_bit_identical() {
    let g = generators::karate_club();
    let out = refine_partition(&g, &Partition::singletons(34), &RefineConfig::default()).unwrap();
    assert_eq!(out.partition.labels(), PIN_A_LABELS);
    let q = modularity::modularity(&g, &out.partition);
    assert_eq!(q.to_bits(), PIN_A_QBITS);
    // The explicit γ=1 quality function is the same code path.
    let explicit = RefineConfig { quality: QualityFunction::default(), ..Default::default() };
    let out2 = refine_partition(&g, &Partition::singletons(34), &explicit).unwrap();
    assert_eq!(out2.partition.labels(), PIN_A_LABELS);
    assert_eq!(
        modularity::quality(&g, &out2.partition, QualityFunction::default()).to_bits(),
        PIN_A_QBITS
    );
}

#[test]
fn louvain_facade_at_unit_resolution_is_bit_identical() {
    let g = generators::karate_club();
    let result = CommunityDetector::new(Method::Louvain).with_seed(7).detect(&g).unwrap();
    assert_eq!(result.partition.labels(), PIN_B_LABELS);
    assert_eq!(result.modularity.to_bits(), PIN_B_QBITS);
    // Explicitly configuring γ=1 modularity must not change a single bit.
    let explicit = CommunityDetector::new(Method::Louvain)
        .with_seed(7)
        .with_quality(QualityFunction::modularity(1.0))
        .detect(&g)
        .unwrap();
    assert_eq!(explicit.partition.labels(), PIN_B_LABELS);
    assert_eq!(explicit.modularity.to_bits(), PIN_B_QBITS);
}

#[test]
fn streaming_trace_at_unit_resolution_is_bit_identical() {
    let events = qhdcd::graph::io::parse_event_log(PIN_C_LOG).unwrap();
    let pg = generators::ring_of_cliques(6, 5).unwrap();
    let mut detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(&pg.graph),
        pg.ground_truth.clone(),
        pin_c_config(),
    )
    .unwrap();
    let mut trace = Vec::new();
    for batch in events.chunks(2) {
        let stats = detector.apply_events(batch).unwrap();
        trace.push(stats.modularity.to_bits());
    }
    assert_eq!(trace, PIN_C_TRACE);
    assert_eq!(detector.partition().labels(), PIN_C_LABELS);
    assert_eq!(detector.modularity().to_bits(), PIN_C_QBITS);
}

/// Checkpoint-replay must land on the same pinned bits as the live run: cut a
/// checkpoint at every batch boundary of the Pin C trace, crash, recover, and
/// require the recovered service to finish on the pinned final state.
#[test]
fn checkpoint_replay_at_unit_resolution_reaches_the_pinned_bits() {
    let events = qhdcd::graph::io::parse_event_log(PIN_C_LOG).unwrap();
    let pg = generators::ring_of_cliques(6, 5).unwrap();
    let config = ServiceConfig { stream: pin_c_config(), ..ServiceConfig::default() };
    let detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(&pg.graph),
        pg.ground_truth.clone(),
        config.stream.clone(),
    )
    .unwrap();
    let mut service = StreamingService::from_detector(detector, config.clone()).unwrap();
    let mut checkpoints = vec![service.checkpoint()];
    for batch in events.chunks(2) {
        service.ingest(batch).unwrap();
        checkpoints.push(service.checkpoint());
    }
    assert_eq!(service.detector().modularity().to_bits(), PIN_C_QBITS);
    assert_eq!(service.detector().partition().labels(), PIN_C_LABELS);
    let journal = service.journal_log();
    for (crash_point, checkpoint) in checkpoints.iter().enumerate() {
        let recovered = StreamingService::recover(checkpoint, &journal, config.clone()).unwrap();
        assert_eq!(
            recovered.detector().modularity().to_bits(),
            PIN_C_QBITS,
            "recovery from batch {crash_point} diverged from the pinned bits"
        );
        assert_eq!(recovered.detector().partition().labels(), PIN_C_LABELS);
    }
}

/// The streaming twin under CPM and γ≠1: live run and checkpoint-replay stay
/// bit-identical to each other (the pinned-value guarantee only exists for
/// γ=1, but replay equality must hold for every quality function).
#[test]
fn checkpoint_replay_is_bit_identical_under_every_quality_function() {
    for quality in [
        QualityFunction::modularity(0.5),
        QualityFunction::modularity(4.0),
        QualityFunction::cpm(0.5),
    ] {
        let events = qhdcd::graph::io::parse_event_log(PIN_C_LOG).unwrap();
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let config = ServiceConfig {
            stream: pin_c_config().with_quality(quality),
            ..ServiceConfig::default()
        };
        let detector = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&pg.graph),
            pg.ground_truth.clone(),
            config.stream.clone(),
        )
        .unwrap();
        let mut service = StreamingService::from_detector(detector, config.clone()).unwrap();
        let mut checkpoints = vec![service.checkpoint()];
        for batch in events.chunks(2) {
            service.ingest(batch).unwrap();
            checkpoints.push(service.checkpoint());
        }
        let final_bits = service.detector().modularity().to_bits();
        let final_partition = service.detector().partition();
        let journal = service.journal_log();
        for checkpoint in &checkpoints {
            let recovered =
                StreamingService::recover(checkpoint, &journal, config.clone()).unwrap();
            assert_eq!(recovered.detector().modularity().to_bits(), final_bits, "{quality:?}");
            assert_eq!(recovered.detector().partition(), final_partition, "{quality:?}");
        }
        // A checkpoint cut under this quality function must refuse to restore
        // under a different one.
        let mismatched = ServiceConfig { stream: pin_c_config(), ..ServiceConfig::default() };
        assert!(
            StreamingService::recover(&checkpoints[0], &journal, mismatched).is_err(),
            "{quality:?}: quality mismatch must be rejected"
        );
    }
}

/// Satellite: the five-way self-loop convention conformance sweep. One graph
/// with self-loops, five independent evaluations of the same quality:
/// aggregated, dense-matrix, incremental gain-then-apply, the streaming
/// detector's patched aggregates, and a DynamicGraph checkpoint round-trip.
#[test]
fn self_loop_convention_agrees_across_all_five_paths() {
    use qhdcd::graph::GraphBuilder;
    let mut b = GraphBuilder::new(6);
    b.add_edge(0, 1, 1.0).unwrap();
    b.add_edge(1, 2, 2.0).unwrap();
    b.add_edge(2, 2, 1.5).unwrap(); // self-loop
    b.add_edge(3, 4, 1.0).unwrap();
    b.add_edge(4, 5, 0.5).unwrap();
    b.add_edge(5, 5, 0.25).unwrap(); // self-loop
    b.add_edge(2, 3, 0.75).unwrap();
    let graph = b.build();
    let partition = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();

    for quality in
        [QualityFunction::default(), QualityFunction::modularity(2.0), QualityFunction::cpm(0.5)]
    {
        // 1. Aggregated form.
        let q_agg = modularity::quality(&graph, &partition, quality);
        // 2. Dense-matrix form.
        let q_dense = modularity::quality_dense(&graph, &partition, quality);
        assert!((q_agg - q_dense).abs() < 1e-12, "{quality:?}: agg={q_agg} dense={q_dense}");
        // 3. Incremental gain-then-apply: price moving node 2 (the self-loop
        // carrier) to the other community, apply, and compare against the
        // from-scratch quality difference.
        let mut state = modularity::ModularityState::new(&graph, &partition, quality);
        let gain = state.gain(&graph, 2, 1);
        state.apply_move(&mut modularity::NeighborScan::new(), &graph, 2, 1);
        let moved = state.to_partition();
        let q_moved = modularity::quality(&graph, &moved, quality);
        assert!(
            (q_moved - q_agg - gain).abs() < 1e-9,
            "{quality:?}: gain={gain} actual={}",
            q_moved - q_agg
        );
        // 4. The streaming detector's patched aggregates on the same graph.
        let config = StreamConfig {
            frontier_fraction: 1.0,
            drift_threshold: 1e9,
            ..StreamConfig::default()
        }
        .with_quality(quality);
        let mut sd = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&graph),
            partition.clone(),
            config.clone(),
        )
        .unwrap();
        assert!((sd.modularity() - q_agg).abs() < 1e-9, "{quality:?}: streaming");
        // Patch a self-loop through the event path and compare again.
        sd.apply_events(&[EdgeEvent::Update { u: 2, v: 2, weight: 2.5 }]).unwrap();
        let q_after = modularity::quality(&sd.graph().snapshot(), &sd.partition(), quality);
        assert!(
            (sd.modularity() - q_after).abs() < 1e-9,
            "{quality:?}: maintained={} recomputed={q_after}",
            sd.modularity()
        );
        // 5. DynamicGraph checkpoint round-trip preserves the convention.
        let restored =
            DynamicGraph::from_checkpoint_text(&sd.graph().to_checkpoint_text()).unwrap();
        let q_restored = modularity::quality(&restored.snapshot(), &sd.partition(), quality);
        assert_eq!(q_restored.to_bits(), q_after.to_bits(), "{quality:?}: checkpoint round-trip");
    }
}

/// Exact CPM coarse-level null term: super-node counts ride the node weights
/// through aggregation, so the CPM value of a partition evaluated on the
/// quotient graph equals the value on the original graph, and the multilevel
/// pipeline (which refines on coarse graphs) lands on the same decoded CPM
/// quality as the Louvain baseline — both now optimise the exact objective at
/// every level, where coarse levels previously under-counted internal pairs.
#[test]
fn coarse_level_cpm_null_term_is_exact_and_multilevel_matches_louvain() {
    use qhdcd::core::coarsen::CoarsenConfig;
    use qhdcd::core::multilevel::{self, MultilevelConfig};
    use qhdcd::graph::quotient;
    use qhdcd::solvers::Strategy;

    for (cliques, size, gamma) in [(4usize, 5usize, 0.5), (6, 5, 0.25)] {
        let pg = generators::ring_of_cliques(cliques, size).unwrap();
        let quality = QualityFunction::cpm(gamma);
        let q_fine = modularity::quality(&pg.graph, &pg.ground_truth, quality);

        // Aggregate the ground truth into one super-node per clique: the
        // coarse CPM value (weighted null term) must reproduce the fine one.
        let agg = quotient::aggregate(&pg.graph, &pg.ground_truth).unwrap();
        let singletons = Partition::singletons(agg.graph.num_nodes());
        let q_coarse = modularity::quality(&agg.graph, &singletons, quality);
        assert!(
            (q_coarse - q_fine).abs() < 1e-9,
            "γ={gamma}: coarse CPM {q_coarse} != fine CPM {q_fine}"
        );
        // The dense evaluations agree with the aggregated ones on the
        // weighted coarse graph too.
        let q_coarse_dense = modularity::quality_dense(&agg.graph, &singletons, quality);
        assert!((q_coarse_dense - q_coarse).abs() < 1e-9, "γ={gamma}: dense coarse CPM diverged");

        // On a ring of cliques with these resolutions the cliques are the CPM
        // optimum; with exact coarse gains both pipelines must find it and
        // report the identical decoded quality.
        let ml_config = MultilevelConfig {
            num_communities: cliques,
            coarsen: CoarsenConfig { threshold: 10, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        }
        .with_quality(quality);
        // Simulated annealing alone: a one-member portfolio, 4 restarts.
        let annealing = PortfolioSolver::default()
            .with_strategies(vec![Strategy::Annealing {
                initial_temperature: 2.0,
                final_temperature: 0.01,
            }])
            .with_restarts(4)
            .with_threads(1)
            .with_seed(3);
        let ml = multilevel::detect(&pg.graph, &annealing, &ml_config).unwrap();
        assert!(ml.levels >= 1, "γ={gamma}: the instance must actually coarsen");
        let lv = CommunityDetector::new(Method::Louvain)
            .with_quality(quality)
            .with_seed(3)
            .detect(&pg.graph)
            .unwrap();
        assert!(
            (ml.modularity - lv.modularity).abs() < 1e-12,
            "γ={gamma}: multilevel CPM {} != Louvain CPM {}",
            ml.modularity,
            lv.modularity
        );
        assert!(
            (ml.modularity - q_fine).abs() < 1e-12,
            "γ={gamma}: decoded CPM {} missed the planted optimum {q_fine}",
            ml.modularity
        );
    }
}

/// A resolution that is NaN, infinite or negative is rejected wherever a
/// quality function enters: the QUBO formulation, both refinement entry
/// points and the streaming configuration, so no detector starts on one and
/// no batch is applied before a re-detect would refuse it.
#[test]
fn invalid_resolutions_are_rejected_at_every_entry_point() {
    use qhdcd::core::formulation::FormulationConfig;
    use qhdcd::core::refine::refine_frontier;
    use qhdcd::stream::StreamError;
    let graph = generators::karate_club();
    let start = generators::karate_club_communities();
    for resolution in [f64::NAN, f64::INFINITY, -1.0] {
        for quality in [QualityFunction::modularity(resolution), QualityFunction::cpm(resolution)] {
            let formulation = FormulationConfig { quality, ..FormulationConfig::default() };
            assert!(
                matches!(formulation.validate(), Err(CdError::InvalidConfig { .. })),
                "{quality:?}: formulation"
            );
            let refine = RefineConfig { quality, ..RefineConfig::default() };
            assert!(
                matches!(
                    refine_partition(&graph, &start, &refine),
                    Err(CdError::InvalidConfig { .. })
                ),
                "{quality:?}: refine_partition"
            );
            assert!(
                matches!(
                    refine_frontier(&graph, &start, &[0], &refine),
                    Err(CdError::InvalidConfig { .. })
                ),
                "{quality:?}: refine_frontier"
            );
            let stream = StreamConfig::default().with_quality(quality);
            assert!(
                matches!(stream.validate(), Err(StreamError::InvalidConfig { .. })),
                "{quality:?}: stream config"
            );
            assert!(
                matches!(
                    StreamingDetector::from_partition(
                        DynamicGraph::from_graph(&graph),
                        start.clone(),
                        stream
                    ),
                    Err(StreamError::InvalidConfig { .. })
                ),
                "{quality:?}: streaming detector"
            );
        }
    }
}
