//! Integration tests of the streaming service layer: crash consistency
//! (checkpoint + replay ≡ uninterrupted run, bit-identically, at every crash
//! point), lock-free reader/writer interleaving (no torn or mid-epoch reads),
//! and bounded-queue backpressure (no loss, no reordering). The long replay
//! sweep at the bottom is `#[ignore]`d and runs in the nightly CI job.

use proptest::prelude::*;
use qhdcd::graph::{generators, modularity, Partition};
use qhdcd::prelude::*;
use qhdcd::stream::{PartitionSnapshot, ServiceClient, StreamError, StreamingService};
use std::sync::atomic::{AtomicBool, Ordering};

/// SplitMix64 — deterministic pseudo-randomness without an RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic churn batches over `n` nodes: adds, removes, weight updates
/// and occasional node deletions, each batch valid against the state the
/// previous batches left behind (validity is tracked on a shadow graph).
fn churn_batches(
    shadow: &mut DynamicGraph,
    seed: u64,
    num_batches: usize,
    batch_size: usize,
) -> Vec<Vec<EdgeEvent>> {
    let n = shadow.num_nodes();
    let mut state = seed;
    let mut batches = Vec::with_capacity(num_batches);
    for b in 0..num_batches {
        let mut events = Vec::with_capacity(batch_size);
        // Inapplicable draws (removing a missing edge, deletion outside its
        // cadence) are skipped, so draw until the batch is full — adds always
        // apply, guaranteeing progress.
        while events.len() < batch_size {
            let kind = splitmix(&mut state) % 10;
            let u = (splitmix(&mut state) % n as u64) as usize;
            let v = (splitmix(&mut state) % n as u64) as usize;
            let w = 0.25 + (splitmix(&mut state) % 8) as f64 / 4.0;
            let event = match kind {
                0..=4 => EdgeEvent::Add { u, v, weight: w },
                5 | 6 => {
                    if !shadow.has_edge(u, v) {
                        continue;
                    }
                    EdgeEvent::Remove { u, v }
                }
                7 | 8 => {
                    if !shadow.has_edge(u, v) {
                        continue;
                    }
                    EdgeEvent::Update { u, v, weight: w }
                }
                _ => {
                    // Node deletions are rarer and only every third batch, so
                    // the graph keeps enough structure to stay interesting.
                    if b % 3 != 0 {
                        continue;
                    }
                    EdgeEvent::RemoveNode { u }
                }
            };
            shadow.apply(&event).unwrap();
            events.push(event);
        }
        if !events.is_empty() {
            batches.push(events);
        }
    }
    batches
}

fn seeded_service(graph: &Graph, partition: &Partition, config: ServiceConfig) -> StreamingService {
    let detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(graph),
        partition.clone(),
        config.stream.clone(),
    )
    .unwrap();
    StreamingService::from_detector(detector, config).unwrap()
}

/// The full bit-level fingerprint of a service's mutable state.
fn fingerprint(service: &StreamingService) -> (u64, Partition, u64, u64, u64, usize) {
    (
        service.detector().modularity().to_bits(),
        service.detector().partition(),
        service.epoch(),
        service.detector().batches_applied(),
        service.detector().full_redetects(),
        service.journal().len(),
    )
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs 12 churn batches of 6 events (churn seed 99) through a service that
/// starts from `pg`'s ground truth (detector seed 23). Returns the bit pin of
/// the final state and the number of batches repaired by localized
/// refinement. The pin holds the maintained Q bits, the FNV of the renumbered
/// labels, the full re-detects, the journal length and the FNV of the
/// checkpoint text, which carries the raw bits of every Σ aggregate and of
/// the drift.
fn pinned_churn_run(
    pg: &generators::PlantedGraph,
    drift_threshold: f64,
) -> ((u64, u64, u64, usize, u64), usize) {
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold, ..StreamConfig::default() },
        ..ServiceConfig::default()
    }
    .with_seed(23);
    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config);
    let mut localized = 0;
    for batch in churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6) {
        localized += usize::from(!service.ingest(&batch).unwrap().full_redetect);
    }
    let partition = service.detector().partition();
    let labels = fnv1a(partition.labels().iter().flat_map(|&l| (l as u64).to_le_bytes()));
    let checkpoint = fnv1a(service.checkpoint().into_bytes());
    let detector = service.detector();
    let pin = (
        detector.modularity().to_bits(),
        labels,
        detector.full_redetects(),
        service.journal().len(),
        checkpoint,
    );
    (pin, localized)
}

/// A drift-bound churn run on a ring of cliques: every batch falls back to a
/// full warm-started re-detect.
#[test]
fn redetect_churn_run_matches_its_bit_pin() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    let (pin, localized) = pinned_churn_run(&pg, 0.15);
    assert_eq!(localized, 0);
    assert_eq!(pin, (0x3fdb_f930_fc80_6804, 0x80b2_d787_9aae_b184, 12, 72, 0xa03b_9936_c364_24c4));
}

/// A churn run on a planted partition that takes both repair branches: one
/// full re-detect, then localized refinement on the other 11 batches.
#[test]
fn localized_churn_run_matches_its_bit_pin() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 1000,
        num_communities: 8,
        p_in: 0.1,
        p_out: 0.005,
        seed: 7,
    })
    .unwrap();
    let (pin, localized) = pinned_churn_run(&pg, 0.02);
    assert_eq!(localized, 11);
    assert_eq!(pin, (0x3fe3_755f_13f2_3fa8, 0x7374_1ae9_1c36_e586, 1, 72, 0x9e9f_f0fb_a623_34f7));
}

/// Everything `graph()` shows, with each `f64` as its bits: per node its
/// neighbour count (the CSR offsets) and `(neighbour, weight)` pairs, then the
/// degrees, the node weights, the edge count and the total weight.
fn graph_words(g: &Graph) -> Vec<u64> {
    let mut words = Vec::new();
    for u in 0..g.num_nodes() {
        words.push(g.neighbor_count(u) as u64);
        for (v, w) in g.neighbors(u) {
            words.extend([v as u64, w.to_bits()]);
        }
    }
    words.extend(g.degrees().iter().chain(g.node_weights()).map(|x| x.to_bits()));
    words.extend([g.num_edges() as u64, g.total_edge_weight().to_bits()]);
    words
}

/// Replays the run of [`pinned_churn_run`] and hashes what a reader sees in
/// every published epoch, epoch 0 included, as four FNVs of little-endian
/// words:
/// 1. `graph()`, as [`graph_words`] lists it;
/// 2. the labels and community sizes;
/// 3. the Q bits;
/// 4. `top_communities_near(v, 3)` for 16 evenly spaced nodes `v`.
fn published_epochs_pin(pg: &generators::PlantedGraph, drift_threshold: f64) -> [u64; 4] {
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold, ..StreamConfig::default() },
        ..ServiceConfig::default()
    }
    .with_seed(23);
    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config);
    let n = pg.graph.num_nodes();
    let sample: Vec<usize> = (0..n).step_by(n.div_ceil(16)).collect();
    let mut streams: [Vec<u64>; 4] = Default::default();
    let mut digest = |snap: &PartitionSnapshot| {
        streams[0].extend(graph_words(snap.graph()));
        streams[1].extend(snap.labels().iter().chain(snap.community_sizes()).map(|&x| x as u64));
        streams[2].push(snap.modularity().to_bits());
        for &v in &sample {
            for (c, w) in snap.top_communities_near(v, 3) {
                streams[3].extend([c as u64, w.to_bits()]);
            }
        }
    };
    digest(&service.latest_snapshot());
    for batch in churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6) {
        service.ingest(&batch).unwrap();
        digest(&service.latest_snapshot());
    }
    assert_eq!(service.latest_snapshot().epoch(), 12);
    streams.map(|words| fnv1a(words.iter().flat_map(|w| w.to_le_bytes())))
}

/// Every epoch the re-detect churn run publishes, as readers see it.
#[test]
fn redetect_churn_run_publishes_pinned_epochs() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    assert_eq!(
        published_epochs_pin(&pg, 0.15),
        [
            0xdbcd_4da5_2458_e427,
            0x72c0_0a44_ba51_ede3,
            0xaff0_39c8_4276_38f7,
            0x9320_fbad_f94d_2063
        ]
    );
}

/// Every epoch the localized churn run publishes, as readers see it.
#[test]
fn localized_churn_run_publishes_pinned_epochs() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 1000,
        num_communities: 8,
        p_in: 0.1,
        p_out: 0.005,
        seed: 7,
    })
    .unwrap();
    assert_eq!(
        published_epochs_pin(&pg, 0.02),
        [
            0x7b5e_5059_1fb3_553a,
            0x1ba9_2d46_8470_77a4,
            0x2262_cd9b_c43c_3d5f,
            0xd4b2_6d9e_e377_79d0
        ]
    );
}

/// Ingests `batches` and holds every published epoch. Each epoch shares its
/// neighbour lists with the writer, whose later batches must copy a list
/// before changing it. So every held epoch must still show what a deep copy
/// taken at publish time shows, bit for bit: its `graph()`, built only after
/// the writer has moved on, and `top_communities_near(v, ∞)` for every node.
fn assert_epochs_stay_frozen(mut service: StreamingService, batches: &[Vec<EdgeEvent>]) {
    let n = service.detector().num_nodes();
    let near = |snap: &PartitionSnapshot| -> Vec<Vec<(usize, u64)>> {
        (0..n)
            .map(|v| {
                let ranked = snap.top_communities_near(v, usize::MAX);
                ranked.into_iter().map(|(c, w)| (c, w.to_bits())).collect()
            })
            .collect()
    };
    let mut held = Vec::new();
    for batch in batches {
        service.ingest(batch).unwrap();
        let snap = service.latest_snapshot();
        let deep_copy = graph_words(&service.detector().graph().snapshot());
        let reads = near(&snap);
        held.push((snap, deep_copy, reads));
    }
    for (snap, deep_copy, reads) in &held {
        assert_eq!(graph_words(snap.graph()), *deep_copy, "epoch {}", snap.epoch());
        assert_eq!(near(snap), *reads, "epoch {}", snap.epoch());
    }
}

/// Localized repair only: the frontier may cover every node and the drift
/// allowance is never reached, so no batch pays for a full re-detect.
fn localized_only(seed: u64) -> ServiceConfig {
    ServiceConfig {
        stream: StreamConfig {
            frontier_fraction: 1.0,
            drift_threshold: 1e9,
            ..StreamConfig::default()
        },
        ..ServiceConfig::default()
    }
    .with_seed(seed)
}

/// Copy-on-write isolation under churn: additions, removals, weight updates
/// and node deletions, then batches that grow, update, remove and re-add a
/// self-loop and delete its node.
#[test]
fn held_epochs_stay_frozen_while_the_writer_churns() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 300,
        num_communities: 6,
        p_in: 0.08,
        p_out: 0.004,
        seed: 17,
    })
    .unwrap();
    let config = localized_only(17);
    let mut batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 41, 24, 8);
    batches.extend([
        vec![
            EdgeEvent::Add { u: 3, v: 3, weight: 0.75 },
            EdgeEvent::Add { u: 3, v: 3, weight: 0.5 },
        ],
        vec![EdgeEvent::Update { u: 3, v: 3, weight: 2.0 }],
        vec![EdgeEvent::Remove { u: 3, v: 3 }, EdgeEvent::Add { u: 3, v: 3, weight: 1.0 }],
        vec![EdgeEvent::RemoveNode { u: 3 }],
    ]);
    assert_epochs_stay_frozen(seeded_service(&pg.graph, &pg.ground_truth, config), &batches);
}

/// Copy-on-write isolation on a 5 001-node star churned at its hub: every
/// batch updates, removes and re-adds hub edges, grows and updates a hub
/// self-loop, and deletes and reconnects a leaf, so every epoch's copy of the
/// 5 000-entry hub list is touched.
#[test]
fn held_epochs_stay_frozen_while_the_writer_churns_a_star_hub() {
    let leaves = 5_000;
    let star =
        GraphBuilder::from_unweighted_edges(leaves + 1, (1..=leaves).map(|v| (0, v))).unwrap();
    let partition = Partition::from_labels((0..=leaves).map(|v| v % 4).collect()).unwrap();
    let batches: Vec<Vec<EdgeEvent>> = (0..6)
        .map(|b| {
            let leaf = |i: usize| 1 + (b * 37 + i * 11) % leaves;
            vec![
                EdgeEvent::Update { u: 0, v: leaf(0), weight: 2.0 + b as f64 },
                EdgeEvent::Remove { u: leaf(1), v: 0 },
                EdgeEvent::Add { u: 0, v: leaf(1), weight: 0.5 },
                EdgeEvent::Add { u: 0, v: 0, weight: 0.25 },
                EdgeEvent::Update { u: 0, v: 0, weight: 1.0 + b as f64 },
                EdgeEvent::RemoveNode { u: leaf(2) },
                EdgeEvent::Add { u: leaf(2), v: 0, weight: 1.5 },
            ]
        })
        .collect();
    assert_epochs_stay_frozen(seeded_service(&star, &partition, localized_only(5)), &batches);
}

/// Crash consistency, exhaustively: cut a checkpoint at *every* batch
/// boundary of a mixed event sequence (including node deletions and full
/// re-detect fallbacks), simulate a crash at the end, and require recovery
/// from each checkpoint + the journal to reproduce the uninterrupted final
/// state bit-identically.
#[test]
fn recovery_is_bit_identical_at_every_crash_point() {
    let pg = generators::ring_of_cliques(5, 6).unwrap();
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold: 0.15, ..StreamConfig::default() },
        ..ServiceConfig::default()
    }
    .with_seed(23);
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 99, 12, 6);

    // The uninterrupted reference run, capturing a checkpoint at every batch
    // boundary (what a crashed process would have on disk).
    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
    let mut checkpoints = vec![service.checkpoint()];
    for batch in &batches {
        service.ingest(batch).unwrap();
        checkpoints.push(service.checkpoint());
    }
    let journal = service.journal_log();
    let reference = fingerprint(&service);
    assert!(
        service.detector().full_redetects() > 0,
        "the sequence should cross the epoch-fallback path too"
    );

    for (crash_point, checkpoint) in checkpoints.iter().enumerate() {
        let recovered = StreamingService::recover(checkpoint, &journal, config.clone()).unwrap();
        assert_eq!(
            fingerprint(&recovered),
            reference,
            "recovery from the checkpoint at batch {crash_point} diverged"
        );
        // The recovered journal must serialize identically too, so a second
        // crash during catch-up is recoverable as well.
        assert_eq!(recovered.journal_log(), journal, "crash point {crash_point}");
    }
}

/// The queue-driven path and the direct deterministic path are the same
/// computation: submitting batches through the bounded queue (max_batch
/// matching the submission size) and calling `ingest` directly yield
/// bit-identical states.
#[test]
fn queued_and_direct_ingestion_agree() {
    let pg = generators::ring_of_cliques(4, 6).unwrap();
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold: 0.2, ..StreamConfig::default() },
        max_batch: 5,
        ..ServiceConfig::default()
    }
    .with_seed(11);
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 7, 8, 5);

    let mut direct = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
    for batch in &batches {
        direct.ingest(batch).unwrap();
    }

    let mut queued = seeded_service(&pg.graph, &pg.ground_truth, config);
    let client = queued.client();
    for batch in &batches {
        // Submit then step immediately so the queue-side batching (max_batch)
        // regroups events exactly as the direct path did.
        client.try_submit(batch).unwrap();
        queued.drain().unwrap();
    }
    assert_eq!(fingerprint(&direct), fingerprint(&queued));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: for ANY valid event sequence and ANY crash point,
    /// checkpoint + replay is bit-identical to the uninterrupted run.
    #[test]
    fn any_crash_point_recovers_bit_identically(
        seed in 0u64..1000,
        num_batches in 1usize..8,
        crash_selector in 0usize..64,
    ) {
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let config = ServiceConfig {
            stream: StreamConfig { drift_threshold: 0.25, ..StreamConfig::default() },
            checkpoint_every: 2,
            ..ServiceConfig::default()
        }
        .with_seed(seed);
        let batches =
            churn_batches(&mut DynamicGraph::from_graph(&pg.graph), seed, num_batches, 5);
        let crash_point = crash_selector % (batches.len() + 1);

        let mut service = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
        let mut checkpoint = service.checkpoint();
        for (i, batch) in batches.iter().enumerate() {
            service.ingest(batch).unwrap();
            if i + 1 == crash_point {
                checkpoint = service.checkpoint();
            }
        }
        let recovered =
            StreamingService::recover(&checkpoint, &service.journal_log(), config).unwrap();
        prop_assert_eq!(fingerprint(&recovered), fingerprint(&service));
        // The automatic checkpoints the replay cuts carry the journal offset
        // of the batch they follow: byte for byte the live run's.
        prop_assert_eq!(recovered.latest_checkpoint(), service.latest_checkpoint());
    }
}

/// Reader/writer interleaving: while one writer thread drains the queue and
/// publishes epochs, concurrent lock-free readers must only ever observe
/// complete, epoch-consistent snapshots — monotonic epochs, a full label
/// vector, sizes that add up, and a stored modularity that matches a
/// from-scratch recomputation on the snapshot's own frozen graph (a torn or
/// mid-epoch read would break one of these).
#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 200,
        num_communities: 4,
        p_in: 0.1,
        p_out: 0.005,
        seed: 5,
    })
    .unwrap();
    let n = pg.graph.num_nodes();
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold: 0.3, ..StreamConfig::default() },
        queue_capacity: 256,
        max_batch: 16,
        ..ServiceConfig::default()
    }
    .with_seed(3);
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 31, 30, 8);
    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config);

    let producer = service.client();
    let readers: Vec<ServiceClient> = (0..4).map(|_| service.client()).collect();
    let done = AtomicBool::new(false);
    let check = |snap: &qhdcd::stream::PartitionSnapshot, last_epoch: u64| {
        assert!(snap.epoch() >= last_epoch, "epochs must be monotonic per reader");
        assert_eq!(snap.num_nodes(), n, "label vector must be complete");
        assert_eq!(
            snap.community_sizes().iter().sum::<usize>(),
            n,
            "community sizes must cover every node"
        );
        assert!(snap.labels().iter().all(|&l| l < snap.num_communities()));
        let recomputed = modularity::modularity(snap.graph(), &snap.partition());
        assert!(
            (snap.modularity() - recomputed).abs() < 1e-9,
            "epoch {}: stored Q {} vs recomputed {recomputed} — torn snapshot",
            snap.epoch(),
            snap.modularity()
        );
        snap.epoch()
    };
    let writer_batches = std::thread::scope(|scope| {
        scope.spawn(|| {
            for batch in &batches {
                producer.submit(batch).expect("service stays open while producing");
            }
            producer.close();
        });
        for mut client in readers {
            let done = &done;
            let check = &check;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !done.load(Ordering::Acquire) {
                    last_epoch = check(&client.snapshot(), last_epoch);
                    observed += 1;
                    std::thread::yield_now();
                }
                // One final read after the writer finished.
                check(&client.snapshot(), last_epoch);
                assert!(observed > 0);
            });
        }
        let result = service.run_until_closed();
        done.store(true, Ordering::Release);
        result
    })
    .unwrap();
    assert!(writer_batches > 0);
    assert_eq!(service.latest_snapshot().epoch(), service.epoch());
}

/// Backpressure: fill the bounded queue to capacity, assert the signal, drain,
/// and verify that nothing was lost or reordered (weights encode the
/// submission sequence and the journal must replay it verbatim).
#[test]
fn bounded_queue_backpressure_loses_and_reorders_nothing() {
    let graph = generators::karate_club();
    let config =
        ServiceConfig { queue_capacity: 16, max_batch: 7, ..ServiceConfig::default() }.with_seed(1);
    let mut service = seeded_service(&graph, &generators::karate_club_communities(), config);
    let client = service.client();

    // Fill: 16 events with sequence-encoded weights fit exactly.
    let sequenced: Vec<EdgeEvent> =
        (0..16).map(|i| EdgeEvent::Add { u: 0, v: 10 + i, weight: 1.0 + i as f64 }).collect();
    for event in &sequenced {
        client.try_submit(std::slice::from_ref(event)).unwrap();
    }
    assert_eq!(client.queued(), 16);
    assert!(client.is_backpressured());

    // The 17th submission must fail with the backpressure signal, not block,
    // drop or reorder.
    let overflow = EdgeEvent::Add { u: 1, v: 2, weight: 99.0 };
    match client.try_submit(std::slice::from_ref(&overflow)) {
        Err(StreamError::Backpressure { queued: 16, capacity: 16 }) => {}
        other => panic!("expected backpressure, got {other:?}"),
    }

    // Drain; space opens up and the retry succeeds.
    let stats = service.drain().unwrap();
    assert_eq!(stats.iter().map(|s| s.events_applied).sum::<usize>(), 16);
    assert!(!client.is_backpressured());
    assert_eq!(client.queued(), 0);
    client.try_submit(std::slice::from_ref(&overflow)).unwrap();
    service.drain().unwrap();

    // No loss, no reordering: the journal holds all 17 events in submission
    // order with their sequence-encoded weights intact.
    let replayed: Vec<EdgeEvent> =
        service.journal().batches_from(0).flat_map(<[EdgeEvent]>::to_vec).collect();
    let mut expected = sequenced;
    expected.push(overflow);
    assert_eq!(replayed, expected);
    // And the drained batches respected max_batch.
    assert!(stats.iter().all(|s| s.events_applied <= 7));
}

/// `del_node` flows through the textual event-log format into the service and
/// its journal round-trip.
#[test]
fn del_node_round_trips_through_service_and_log() {
    let graph = generators::karate_club();
    let config = ServiceConfig::default().with_seed(2);
    let mut service =
        seeded_service(&graph, &generators::karate_club_communities(), config.clone());
    for batch in [
        qhdcd::graph::io::parse_event_log("0 add 0 20 1.5\n0 del_node 33\n").unwrap(),
        qhdcd::graph::io::parse_event_log("1 del_node 0\n1 add 1 2 0.5\n").unwrap(),
    ] {
        service.ingest(&batch).unwrap();
    }
    assert!(service.detector().graph().neighbors(33).next().is_none());
    assert!(service.detector().graph().neighbors(0).next().is_none());
    // The journal re-serializes to the same log (weights default-normalized).
    let journal = service.journal_log();
    assert!(journal.contains("del_node 33"));
    assert!(journal.contains("del_node 0"));
    // Crash and recover across the node deletions.
    let checkpoint = service.checkpoint();
    let recovered = StreamingService::recover(&checkpoint, &journal, config).unwrap();
    assert_eq!(fingerprint(&recovered), fingerprint(&service));
}

/// Long replay sweep: a 10k-event log over a mid-size graph, recovered from
/// several distinct crash points, each bit-identical to the uninterrupted
/// run. Nightly only (`--ignored`).
#[test]
#[ignore = "long replay sweep; run with --ignored (nightly CI job)"]
fn long_replay_sweep_recovers_from_multiple_crash_points() {
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 300,
        num_communities: 6,
        p_in: 0.08,
        p_out: 0.002,
        seed: 13,
    })
    .unwrap();
    let config = ServiceConfig {
        stream: StreamConfig { drift_threshold: 0.2, ..StreamConfig::default() },
        ..ServiceConfig::default()
    }
    .with_seed(13);
    // 400 batches × 25 events = 10k events.
    let batches = churn_batches(&mut DynamicGraph::from_graph(&pg.graph), 77, 400, 25);
    let total_events: usize = batches.iter().map(Vec::len).sum();
    assert!(total_events >= 9_000, "got {total_events} events");

    let mut service = seeded_service(&pg.graph, &pg.ground_truth, config.clone());
    let mut checkpoints = Vec::new();
    checkpoints.push((0, service.checkpoint()));
    for (i, batch) in batches.iter().enumerate() {
        service.ingest(batch).unwrap();
        if (i + 1) % 80 == 0 {
            checkpoints.push((i + 1, service.checkpoint()));
        }
    }
    let journal = service.journal_log();
    let reference = fingerprint(&service);
    for (crash_point, checkpoint) in &checkpoints {
        let recovered = StreamingService::recover(checkpoint, &journal, config.clone()).unwrap();
        assert_eq!(
            fingerprint(&recovered),
            reference,
            "recovery from the checkpoint at batch {crash_point} diverged"
        );
    }
}
