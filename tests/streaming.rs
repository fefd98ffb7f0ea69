//! Integration tests of the streaming subsystem: dynamic/static equivalence,
//! incremental-vs-recomputed modularity, frontier-refinement conformance and
//! bit-determinism. The wide sweeps at the bottom are `#[ignore]`d and run in
//! the nightly CI job.

use proptest::prelude::*;
use qhdcd::core::refine::{refine_frontier, RefineConfig};
use qhdcd::graph::{generators, modularity, GraphBuilder};
use qhdcd::prelude::*;
use qhdcd::stream::StreamError;
use std::collections::BTreeSet;

/// One randomly chosen dynamic-graph mutation, encoded independently of the
/// graph state (applicability is resolved at replay time).
#[derive(Debug, Clone)]
enum Mutation {
    Insert(usize, usize, f64),
    Remove(usize, usize),
    Update(usize, usize, f64),
}

fn arbitrary_mutations() -> impl Strategy<Value = (usize, Vec<Mutation>)> {
    (2usize..10).prop_flat_map(|n| {
        let mutation =
            (0usize..3, 0..n, 0..n, 0.0f64..4.0).prop_map(|(kind, u, v, w)| match kind {
                0 => Mutation::Insert(u, v, w),
                1 => Mutation::Remove(u, v),
                _ => Mutation::Update(u, v, w),
            });
        (Just(n), proptest::collection::vec(mutation, 1..40))
    })
}

/// Replays mutations on a `DynamicGraph`, skipping inapplicable ones
/// (remove/update of a missing edge), and returns the surviving edge set.
fn replay(graph: &mut DynamicGraph, mutations: &[Mutation]) -> Vec<(usize, usize, f64)> {
    for m in mutations {
        match *m {
            Mutation::Insert(u, v, w) => {
                graph.insert_edge(u, v, w).unwrap();
            }
            Mutation::Remove(u, v) => {
                if graph.has_edge(u, v) {
                    graph.remove_edge(u, v).unwrap();
                }
            }
            Mutation::Update(u, v, w) => {
                if graph.has_edge(u, v) {
                    graph.update_weight(u, v, w).unwrap();
                }
            }
        }
    }
    (0..graph.num_nodes())
        .flat_map(|u| graph.neighbors(u).filter(move |&(v, _)| u <= v).map(move |(v, w)| (u, v, w)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A DynamicGraph after an arbitrary mutation sequence must be
    /// indistinguishable from a GraphBuilder rebuild of its surviving edges:
    /// same degrees, total weight, edge count and neighbour sets.
    #[test]
    fn dynamic_graph_matches_builder_rebuild((n, mutations) in arbitrary_mutations()) {
        let mut dynamic = DynamicGraph::new(n);
        let edges = replay(&mut dynamic, &mutations);
        let mut builder = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            builder.add_edge(u, v, w).unwrap();
        }
        let rebuilt = builder.build();
        let snapshot = dynamic.snapshot();
        prop_assert_eq!(snapshot.num_nodes(), rebuilt.num_nodes());
        prop_assert_eq!(snapshot.num_edges(), rebuilt.num_edges());
        prop_assert!((dynamic.total_edge_weight() - rebuilt.total_edge_weight()).abs() < 1e-9);
        for u in 0..n {
            prop_assert!((dynamic.degree(u) - rebuilt.degree(u)).abs() < 1e-9, "degree of {}", u);
            let dyn_neighbors: Vec<(usize, f64)> = dynamic.neighbors(u).collect();
            let csr_neighbors: Vec<(usize, f64)> = rebuilt.neighbors(u).collect();
            prop_assert_eq!(dyn_neighbors, csr_neighbors, "neighbours of {}", u);
        }
    }

    /// The maintained modularity must match a from-scratch recomputation after
    /// every batch of events, for arbitrary event sequences.
    #[test]
    fn maintained_modularity_matches_recomputation((n, mutations) in arbitrary_mutations()) {
        let mut seed_graph = DynamicGraph::new(n);
        // A small deterministic seed topology so the partition is non-trivial.
        for u in 0..n - 1 {
            seed_graph.insert_edge(u, u + 1, 1.0).unwrap();
        }
        let mut detector = StreamingDetector::from_partition(
            seed_graph,
            qhdcd::graph::Partition::from_labels((0..n).map(|u| u % 2).collect()).unwrap(),
            StreamConfig::default().with_seed(1),
        )
        .unwrap();
        for chunk in mutations.chunks(5) {
            let events: Vec<EdgeEvent> = chunk
                .iter()
                .filter_map(|m| match *m {
                    Mutation::Insert(u, v, w) => Some(EdgeEvent::Add { u, v, weight: w }),
                    Mutation::Remove(u, v) => detector
                        .graph()
                        .has_edge(u, v)
                        .then_some(EdgeEvent::Remove { u, v }),
                    Mutation::Update(u, v, w) => detector
                        .graph()
                        .has_edge(u, v)
                        .then_some(EdgeEvent::Update { u, v, weight: w }),
                })
                .collect();
            // Events within one batch can invalidate each other (e.g. two
            // removals of the same edge); such a batch changes nothing.
            if detector.apply_events(&events).is_err() {
                continue;
            }
            let maintained = detector.modularity();
            let recomputed =
                modularity::modularity(&detector.graph().snapshot(), &detector.partition());
            prop_assert!(
                (maintained - recomputed).abs() < 1e-9,
                "maintained={} recomputed={}",
                maintained,
                recomputed
            );
        }
    }
}

/// The quotient of `ring_of_cliques(6, 4)` that merges nodes 2i and 2i+1:
/// 12 super-nodes of node weight 2, each pair's edge kept as a self-loop. A
/// clique's two super-nodes share a weight-4 edge, and the ring's bridges
/// join super-nodes 2j and 2j+2. The start pairs super-nodes 2j and 2j+1 back
/// into the six cliques.
fn paired_ring_of_cliques() -> (Graph, Partition) {
    let pg = generators::ring_of_cliques(6, 4).unwrap();
    let pairs = Partition::from_labels((0..24).map(|i| i / 2).collect()).unwrap();
    let graph = qhdcd::graph::quotient::aggregate(&pg.graph, &pairs).unwrap().graph;
    assert!((0..12).all(|i| graph.node_weight(i) == 2.0), "node-weight premise");
    (graph, Partition::from_labels((0..12).map(|i| i / 2).collect()).unwrap())
}

/// Conformance: the streaming detector's localized refinement equals
/// `core::refine::refine_frontier` run on a snapshot with the same start
/// partition and frontier: identical partitions on integer-weight graphs.
/// Both run the same worklist loop, one on the detector's patched state, one
/// on a fresh one. Checked for every quality function (γ=1 and γ≠1
/// modularity, CPM), on a planted graph and on a node-weighted quotient
/// graph with self-loops.
#[test]
fn localized_refinement_conforms_to_refine_frontier() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 80,
        num_communities: 4,
        p_in: 0.3,
        p_out: 0.03,
        seed: 17,
    })
    .unwrap();
    for (graph, start) in [(pg.graph, pg.ground_truth), paired_ring_of_cliques()] {
        let n = graph.num_nodes() as u64;
        for quality in [
            modularity::QualityFunction::default(),
            modularity::QualityFunction::modularity(0.5),
            modularity::QualityFunction::modularity(2.0),
            modularity::QualityFunction::cpm(0.5),
        ] {
            for step in 0..6u64 {
                // Perturb a fresh detector with a deterministic batch of unit edges.
                let mut detector = StreamingDetector::from_partition(
                    DynamicGraph::from_graph(&graph),
                    start.clone(),
                    StreamConfig {
                        frontier_fraction: 1.0, // force the localized path
                        drift_threshold: 1e9,
                        ..StreamConfig::default()
                    }
                    .with_quality(quality),
                )
                .unwrap();
                let events: Vec<EdgeEvent> = (0..4)
                    .map(|i| {
                        let u = ((step * 13 + i * 7) % n) as usize;
                        let v = ((step * 31 + i * 11 + 1) % n) as usize;
                        (u, v)
                    })
                    .filter(|&(u, v)| u != v && !graph.has_edge(u, v))
                    .map(|(u, v)| EdgeEvent::Add { u, v, weight: 1.0 })
                    .collect();
                if events.is_empty() {
                    continue;
                }
                let stats = detector.apply_events(&events).unwrap();
                assert!(!stats.full_redetect);

                // Reproduce the same state with the static-graph API: apply the
                // events to a copy, compute the same frontier, call
                // refine_frontier.
                let mut reference_graph = DynamicGraph::from_graph(&graph);
                let mut touched = BTreeSet::new();
                for event in &events {
                    reference_graph.apply(event).unwrap();
                    let (u, v) = event.endpoints();
                    touched.insert(u);
                    touched.insert(v);
                }
                let mut frontier = touched.clone();
                for &u in &touched {
                    for (v, _) in reference_graph.neighbors(u) {
                        frontier.insert(v);
                    }
                }
                let frontier: Vec<usize> = frontier.into_iter().collect();
                let reference = refine_frontier(
                    &reference_graph.snapshot(),
                    &start,
                    &frontier,
                    &RefineConfig { quality, ..RefineConfig::default() },
                )
                .unwrap();
                assert_eq!(
                    detector.partition(),
                    reference.partition,
                    "{n} nodes, quality {quality:?}, step {step}: streaming and static frontier \
                     refinement diverged"
                );
                assert_eq!(
                    (stats.nodes_moved, stats.refine_passes),
                    (reference.moves, reference.passes)
                );
            }
        }
    }
}

/// A streaming detector over a node-weighted graph prices and reports CPM with
/// its node weights, as `modularity::quality` does: each clique of the paired
/// ring holds 4 original nodes in 2 super-nodes, so Q = 6 × (6 − 0.5·4·3/2)
/// = 18, not the 6 × (6 − 0.5·2·1/2) = 33 of counting each super-node as one.
#[test]
fn node_weighted_cpm_matches_the_snapshot_quality() {
    let (graph, start) = paired_ring_of_cliques();
    let quality = modularity::QualityFunction::cpm(0.5);
    let config =
        StreamConfig { frontier_fraction: 1.0, drift_threshold: 1e9, ..StreamConfig::default() }
            .with_quality(quality);
    let mut detector =
        StreamingDetector::from_partition(DynamicGraph::from_graph(&graph), start, config).unwrap();
    let check = |detector: &StreamingDetector| {
        let recomputed =
            modularity::quality(&detector.graph().snapshot(), &detector.partition(), quality);
        let maintained = detector.modularity();
        assert!((maintained - recomputed).abs() < 1e-9, "maintained {maintained} vs {recomputed}");
    };
    check(&detector);
    assert!((detector.modularity() - 18.0).abs() < 1e-9, "Q = {}", detector.modularity());
    let stats = detector
        .apply_events(&[
            EdgeEvent::Add { u: 0, v: 6, weight: 1.0 },
            EdgeEvent::Add { u: 3, v: 9, weight: 2.0 },
            EdgeEvent::Remove { u: 0, v: 2 },
        ])
        .unwrap();
    assert!(!stats.full_redetect);
    check(&detector);
}

/// With no edge weight no move has a gain. `refine_frontier` prices its
/// frontier in one pass that moves nothing; the streaming detector skips
/// refinement and reports no pass. Both leave the partition as it was.
#[test]
fn an_edgeless_graph_refines_nothing() {
    let graph = GraphBuilder::new(6).build();
    let start = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]).unwrap();
    let frontier: Vec<usize> = (0..6).collect();
    let out = refine_frontier(&graph, &start, &frontier, &RefineConfig::default()).unwrap();
    assert_eq!((out.passes, out.moves, out.converged), (1, 0, true));
    assert_eq!(out.partition, start);
    let mut detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(&graph),
        start.clone(),
        StreamConfig::default(),
    )
    .unwrap();
    // A zero-weight edge touches nodes 0 and 3 but leaves the total weight 0,
    // which also rules out a full re-detect however wide the frontier.
    let stats = detector.apply_events(&[EdgeEvent::Add { u: 0, v: 3, weight: 0.0 }]).unwrap();
    assert_eq!(stats.frontier_size, 2);
    assert_eq!((stats.refine_passes, stats.nodes_moved, stats.full_redetect), (0, 0, false));
    assert_eq!(stats.modularity, 0.0);
    assert_eq!(detector.partition(), start);
}

/// Full end-to-end determinism: same seed + same event log ⇒ bit-identical
/// partitions and statistics, including across full re-detect fallbacks.
#[test]
fn streaming_runs_are_bit_identical() {
    let log = "\
        0 add 3 9\n1 add 14 2 1.5\n2 del 3 9\n3 add 7 21 0.5\n4 upd 14 2 2.5\n\
        5 add 1 18\n6 add 25 4\n7 del 14 2\n8 add 11 29 3.0\n9 add 0 15\n";
    let events = qhdcd::graph::io::parse_event_log(log).unwrap();
    let run = || -> Result<(Vec<u64>, qhdcd::graph::Partition), StreamError> {
        let pg = generators::ring_of_cliques(6, 5)?;
        let mut detector = StreamingDetector::from_partition(
            DynamicGraph::from_graph(&pg.graph),
            pg.ground_truth.clone(),
            StreamConfig { drift_threshold: 0.08, ..StreamConfig::default() }.with_seed(23),
        )?;
        let mut trace = Vec::new();
        for batch in events.chunks(2) {
            let stats = detector.apply_events(batch)?;
            trace.push(stats.modularity.to_bits());
        }
        Ok((trace, detector.partition()))
    };
    let (trace_a, partition_a) = run().unwrap();
    let (trace_b, partition_b) = run().unwrap();
    assert_eq!(trace_a, trace_b);
    assert_eq!(partition_a, partition_b);
}

/// The facade re-exports compose: detector via prelude, events via graph::io.
#[test]
fn facade_streaming_round_trip() {
    let graph = DynamicGraph::from_graph(&generators::karate_club());
    let mut detector = StreamingDetector::new(graph, StreamConfig::default().with_seed(4)).unwrap();
    let q0 = detector.modularity();
    assert!(q0 > 0.3, "q0={q0}");
    let stats = detector
        .apply_events(&qhdcd::graph::io::parse_event_log("0 add 0 33 2.0\n").unwrap())
        .unwrap();
    assert_eq!(stats.events_applied, 1);
}

/// Wide streaming sweep: thousands of churn events over a mid-size planted
/// graph, checking the maintained-vs-recomputed invariant after every batch
/// and determinism at the end. Nightly only (`--ignored`).
#[test]
#[ignore = "wide sweep; run with --ignored (nightly CI job)"]
fn wide_streaming_sweep_keeps_invariants() {
    let run = |seed: u64| {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 1500,
            num_communities: 10,
            p_in: 0.03,
            p_out: 0.001,
            seed,
        })
        .unwrap();
        let mut detector = StreamingDetector::new(
            DynamicGraph::from_graph(&pg.graph),
            StreamConfig::default().with_seed(seed),
        )
        .unwrap();
        let n = detector.num_nodes();
        let mut added: Vec<(usize, usize)> = Vec::new();
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for _batch in 0..40 {
            let mut events = Vec::new();
            for _ in 0..25 {
                let (u, v) = (next(n), next(n));
                if u != v && !detector.graph().has_edge(u, v) {
                    events.push(EdgeEvent::Add { u, v, weight: 1.0 });
                    added.push((u, v));
                }
            }
            for _ in 0..12 {
                if let Some((u, v)) = added.pop() {
                    events.push(EdgeEvent::Remove { u, v });
                }
            }
            let stats = detector.apply_events(&events).unwrap();
            let recomputed =
                modularity::modularity(&detector.graph().snapshot(), &detector.partition());
            assert!(
                (stats.modularity - recomputed).abs() < 1e-9,
                "maintained={} recomputed={recomputed}",
                stats.modularity
            );
        }
        (detector.modularity().to_bits(), detector.partition(), detector.full_redetects())
    };
    for seed in [1u64, 2, 3] {
        let (q_a, p_a, f_a) = run(seed);
        let (q_b, p_b, f_b) = run(seed);
        assert_eq!(q_a, q_b, "seed {seed}");
        assert_eq!(p_a, p_b, "seed {seed}");
        assert_eq!(f_a, f_b, "seed {seed}");
    }
}

/// Same churn sweep under generalized quality functions (γ≠1 modularity and
/// CPM): the maintained value must track a from-scratch recomputation of the
/// configured quality function after every batch, and runs must stay
/// bit-deterministic. Nightly only (`--ignored`).
#[test]
#[ignore = "wide sweep; run with --ignored (nightly CI job)"]
fn wide_streaming_sweep_keeps_invariants_under_generalized_quality() {
    let run = |seed: u64, quality: modularity::QualityFunction| {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 1500,
            num_communities: 10,
            p_in: 0.03,
            p_out: 0.001,
            seed,
        })
        .unwrap();
        let mut detector = StreamingDetector::new(
            DynamicGraph::from_graph(&pg.graph),
            StreamConfig::default().with_seed(seed).with_quality(quality),
        )
        .unwrap();
        let n = detector.num_nodes();
        let mut added: Vec<(usize, usize)> = Vec::new();
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for _batch in 0..40 {
            let mut events = Vec::new();
            for _ in 0..25 {
                let (u, v) = (next(n), next(n));
                if u != v && !detector.graph().has_edge(u, v) {
                    events.push(EdgeEvent::Add { u, v, weight: 1.0 });
                    added.push((u, v));
                }
            }
            for _ in 0..12 {
                if let Some((u, v)) = added.pop() {
                    events.push(EdgeEvent::Remove { u, v });
                }
            }
            let stats = detector.apply_events(&events).unwrap();
            let recomputed =
                modularity::quality(&detector.graph().snapshot(), &detector.partition(), quality);
            assert!(
                (stats.modularity - recomputed).abs() < 1e-9,
                "quality {quality:?}: maintained={} recomputed={recomputed}",
                stats.modularity
            );
        }
        (detector.modularity().to_bits(), detector.partition(), detector.full_redetects())
    };
    for quality in
        [modularity::QualityFunction::modularity(2.0), modularity::QualityFunction::cpm(0.5)]
    {
        for seed in [1u64, 2] {
            let (q_a, p_a, f_a) = run(seed, quality);
            let (q_b, p_b, f_b) = run(seed, quality);
            assert_eq!(q_a, q_b, "quality {quality:?} seed {seed}");
            assert_eq!(p_a, p_b, "quality {quality:?} seed {seed}");
            assert_eq!(f_a, f_b, "quality {quality:?} seed {seed}");
        }
    }
}
