//! The streaming detector: incremental community maintenance over edge events.
//!
//! See the crate docs for the architecture (event model → incremental
//! bookkeeping → localized refinement → epoch fallback) and the determinism
//! contract. The community bookkeeping is one
//! [`ModularityState`](qhdcd_graph::modularity::ModularityState) kept alive
//! across batches — the type static refinement builds per call. Every edge
//! event patches its aggregates in O(1), each batch's dirty frontier is
//! refined by `qhdcd_core::refine::refine_worklist`, the loop
//! `refine_frontier` runs, and the maintained quality is read from the
//! aggregates in O(k), never from a graph traversal. Equality with the
//! from-scratch recomputation (to 1e-9) is enforced by tests after every
//! batch.

use crate::{ServiceCheckpoint, StreamError};
use qhdcd_core::refine::{refine_worklist, RefineConfig};
use qhdcd_core::{CdError, CommunityDetector};
use qhdcd_graph::modularity::{ModularityState, NeighborScan};
use qhdcd_graph::{DynamicGraph, EdgeEvent, NodeId, Partition, QualityFunction};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Configuration of a [`StreamingDetector`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Budget of the per-batch localized refinement (passes, minimum gain).
    pub refine: RefineConfig,
    /// Full re-detect trigger: dirty-frontier size as a fraction of the node
    /// count. A batch whose frontier exceeds `frontier_fraction · n` falls
    /// back to a full warm-started re-detect. Must be in `(0, 1]`.
    pub frontier_fraction: f64,
    /// Full re-detect trigger: accumulated absolute weight change since the
    /// last full solve, as a fraction of the current total edge weight. Must
    /// be positive.
    pub drift_threshold: f64,
    /// The detector used for the initial solve and for full re-detects (which
    /// are warm-started from the incumbent via
    /// [`CommunityDetector::detect_with_hint`]). Configure a time limit here
    /// only if bit-reproducibility is not required.
    pub detector: CommunityDetector,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            refine: RefineConfig::default(),
            frontier_fraction: 0.25,
            drift_threshold: 0.5,
            detector: CommunityDetector::classical_fallback(),
        }
    }
}

impl StreamConfig {
    /// Returns a copy with the given seed on the fallback detector.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.detector = self.detector.with_seed(seed);
        self
    }

    /// Returns a copy maintaining the given quality function, applied to both
    /// the localized refinement and the full re-detect fallback so the two
    /// repair paths optimise the same objective. The maintained
    /// [`StreamingDetector::modularity`] value then reports this quality.
    pub fn with_quality(mut self, quality: QualityFunction) -> Self {
        self.refine.quality = quality;
        self.detector = self.detector.with_quality(quality);
        self
    }

    /// The quality function this configuration maintains (the one the
    /// localized refinement prices gains under).
    pub fn quality(&self) -> QualityFunction {
        self.refine.quality
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for out-of-range thresholds, a
    /// zero refinement pass budget, a resolution that is not a finite
    /// non-negative number, or a detector that
    /// [`CommunityDetector::validate`] refuses. The detector is checked here,
    /// at construction, because a full re-detect that fails mid-batch would
    /// leave the batch applied but not journaled.
    pub fn validate(&self) -> Result<(), StreamError> {
        if !(self.frontier_fraction > 0.0 && self.frontier_fraction <= 1.0) {
            return Err(StreamError::InvalidConfig {
                reason: format!(
                    "frontier_fraction must be in (0, 1], got {}",
                    self.frontier_fraction
                ),
            });
        }
        if !(self.drift_threshold > 0.0 && self.drift_threshold.is_finite()) {
            return Err(StreamError::InvalidConfig {
                reason: format!("drift_threshold must be positive, got {}", self.drift_threshold),
            });
        }
        if self.refine.max_passes == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "refine.max_passes must be > 0".into(),
            });
        }
        self.quality().validate().map_err(|reason| StreamError::InvalidConfig { reason })?;
        self.detector.validate().map_err(|e| match e {
            CdError::InvalidConfig { reason } => {
                StreamError::InvalidConfig { reason: format!("detector: {reason}") }
            }
            other => StreamError::Detect(other),
        })
    }
}

/// Per-batch report of [`StreamingDetector::apply_events`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Number of events applied in this batch.
    pub events_applied: usize,
    /// Size of the dirty frontier (touched endpoints plus their neighbours).
    pub frontier_size: usize,
    /// Number of node reassignments performed (localized moves, or nodes whose
    /// community changed in a full re-detect).
    pub nodes_moved: usize,
    /// Localized refinement passes performed (0 on a full re-detect).
    pub refine_passes: usize,
    /// Whether this batch triggered the full re-detect fallback.
    pub full_redetect: bool,
    /// Maintained modularity before the batch was applied.
    pub modularity_before: f64,
    /// Maintained modularity after event application and refinement.
    pub modularity: f64,
    /// `modularity − modularity_before`.
    pub modularity_delta: f64,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
}

/// Maintains a community partition of a [`DynamicGraph`] across batches of
/// [`EdgeEvent`]s.
///
/// See the crate docs for the maintenance strategy and determinism contract.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{generators, DynamicGraph, EdgeEvent};
/// use qhdcd_stream::{StreamConfig, StreamingDetector};
///
/// # fn main() -> Result<(), qhdcd_stream::StreamError> {
/// let pg = generators::ring_of_cliques(4, 5)?;
/// let graph = DynamicGraph::from_graph(&pg.graph);
/// let mut detector =
///     StreamingDetector::from_partition(graph, pg.ground_truth.clone(), StreamConfig::default())?;
/// let stats = detector.apply_events(&[EdgeEvent::Add { u: 0, v: 1, weight: 0.5 }])?;
/// assert_eq!(stats.events_applied, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    graph: DynamicGraph,
    config: StreamConfig,
    /// Labels, per-community aggregates and internal weights of the
    /// maintained partition, patched per event and per move.
    state: ModularityState,
    /// Accumulated absolute weight change since the last full solve.
    drift: f64,
    /// Number of batches applied.
    batches: u64,
    /// Number of full re-detect fallbacks triggered.
    full_redetects: u64,
    /// Scratch of the move scan, reused across batches.
    scan: NeighborScan,
}

impl StreamingDetector {
    /// Creates a streaming detector, running the configured detector once on a
    /// snapshot of `graph` to obtain the initial partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for an empty graph or invalid
    /// configuration, and propagates the initial detection error.
    pub fn new(graph: DynamicGraph, config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        if graph.num_nodes() == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "graph must have at least one node".into(),
            });
        }
        let initial = config.detector.detect(&graph.snapshot())?;
        Self::from_partition(graph, initial.partition, config)
    }

    /// Creates a streaming detector seeded with an existing partition instead
    /// of running an initial detection.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid configurations and
    /// [`StreamError::Graph`] if the partition does not cover the graph.
    pub fn from_partition(
        graph: DynamicGraph,
        partition: Partition,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        if partition.num_nodes() != graph.num_nodes() {
            return Err(StreamError::Graph(qhdcd_graph::GraphError::PartitionSizeMismatch {
                labels: partition.num_nodes(),
                nodes: graph.num_nodes(),
            }));
        }
        let state = ModularityState::new(&graph, &partition, config.quality());
        Ok(StreamingDetector {
            graph,
            config,
            state,
            drift: 0.0,
            batches: 0,
            full_redetects: 0,
            scan: NeighborScan::new(),
        })
    }

    /// The underlying dynamic graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The configuration this detector runs under.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Number of nodes currently tracked.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The maintained partition (renumbered).
    pub fn partition(&self) -> Partition {
        Partition::from_labels(self.renumbered_labels())
            .expect("detector always tracks at least one node")
    }

    /// The maintained labels renumbered to `0..k` in order of first
    /// appearance, as [`Partition::renumbered`] numbers them. Every label
    /// indexes a community slot, so a table indexed by slot renumbers them
    /// without hashing.
    pub(crate) fn renumbered_labels(&self) -> Vec<usize> {
        let mut renumber = vec![usize::MAX; self.state.num_community_slots()];
        let mut next = 0;
        self.state
            .labels()
            .iter()
            .map(|&c| {
                if renumber[c] == usize::MAX {
                    renumber[c] = next;
                    next += 1;
                }
                renumber[c]
            })
            .collect()
    }

    /// The maintained quality (modularity by default, see
    /// [`StreamConfig::with_quality`]), computed in O(k) from the
    /// incrementally patched aggregates (never from a graph traversal).
    pub fn modularity(&self) -> f64 {
        self.state.quality(&self.graph)
    }

    /// Accumulated absolute weight change since the last full solve.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Number of batches applied so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches
    }

    /// Number of full re-detect fallbacks triggered so far.
    pub fn full_redetects(&self) -> u64 {
        self.full_redetects
    }

    /// Appends a new isolated node in its own (new) community and returns its
    /// id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.graph.add_node();
        self.state.add_node(self.graph.node_weight(id));
        id
    }

    /// Applies a batch of edge events, incrementally patches the modularity
    /// bookkeeping, and repairs the community structure: localized reassign
    /// refinement over the dirty frontier, or a full warm-started re-detect
    /// when the frontier or accumulated drift crosses the configured
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::EventFailed`] if an event fails
    /// [`DynamicGraph::check_events`], which runs before anything changes, or
    /// [`StreamError::Detect`] if a full re-detect fails.
    pub fn apply_events(&mut self, events: &[EdgeEvent]) -> Result<StreamStats, StreamError> {
        let start = Instant::now();
        let modularity_before = self.modularity();
        self.graph
            .check_events(events)
            .map_err(|(index, source)| StreamError::EventFailed { index, source })?;

        // --- Phase 1: apply events, patching the aggregates in O(1) per
        // changed edge (a node deletion changes every incident edge).
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        for event in events {
            if let EdgeEvent::RemoveNode { u } = *event {
                // A deletion strips every incident edge at once; patch per
                // removed edge exactly as the equivalent sequence of
                // `Remove` events would.
                for (v, w) in self.graph.remove_node(u).expect("the batch check admitted it") {
                    self.state.patch_edge(u, v, -w);
                    self.drift += w;
                    touched.insert(v);
                }
                touched.insert(u);
                continue;
            }
            let delta = self.graph.apply(event).expect("the batch check admitted it");
            let (u, v) = event.endpoints();
            self.state.patch_edge(u, v, delta);
            self.drift += delta.abs();
            touched.insert(u);
            touched.insert(v);
        }

        // --- Phase 2: dirty frontier = touched endpoints plus neighbours.
        let mut frontier = touched.clone();
        for &u in &touched {
            for (v, _) in self.graph.neighbors(u) {
                frontier.insert(v);
            }
        }

        // --- Phase 3: localized repair or epoch fallback.
        let n = self.graph.num_nodes();
        let total_weight = self.graph.total_edge_weight();
        let frontier_size = frontier.len();
        let full_redetect = total_weight > 0.0
            && (frontier_size as f64 > self.config.frontier_fraction * n as f64
                || self.drift > self.config.drift_threshold * total_weight);
        let (nodes_moved, refine_passes) = if full_redetect {
            (self.full_redetect()?, 0)
        } else if total_weight > 0.0 {
            let run = refine_worklist(
                &self.graph,
                &mut self.state,
                &mut self.scan,
                frontier,
                &self.config.refine,
            );
            (run.moves, run.passes)
        } else {
            // Without edge weight no move has a gain, so the batch skips
            // refinement and reports no pass.
            (0, 0)
        };

        self.batches += 1;
        let modularity = self.modularity();
        Ok(StreamStats {
            events_applied: events.len(),
            frontier_size,
            nodes_moved,
            refine_passes,
            full_redetect,
            modularity_before,
            modularity,
            modularity_delta: modularity - modularity_before,
            elapsed: start.elapsed(),
        })
    }

    /// Full epoch fallback: snapshot, warm-started re-detect, adopt, rebuild.
    fn full_redetect(&mut self) -> Result<usize, StreamError> {
        let snapshot = self.graph.snapshot();
        let hint = self.partition();
        let result = self.config.detector.detect_with_hint(&snapshot, &hint)?;
        self.state = ModularityState::new(&self.graph, &result.partition, self.config.quality());
        self.drift = 0.0;
        self.full_redetects += 1;
        Ok(nodes_moved_between(hint.labels(), self.state.labels()))
    }

    /// Freezes every piece of state a bit-exact checkpoint must capture, as
    /// cut at `epoch` after `events_applied` journaled events. The float
    /// aggregates are the *incrementally patched* values — they can differ
    /// from a fresh summation in the low bits — so they are recorded
    /// verbatim rather than rebuilt on restore.
    pub(crate) fn checkpoint(&self, epoch: u64, events_applied: usize) -> ServiceCheckpoint {
        ServiceCheckpoint {
            epoch,
            events_applied,
            batches: self.batches,
            full_redetects: self.full_redetects,
            quality: self.config.quality(),
            drift: self.drift,
            labels: self.state.labels().to_vec(),
            sigma_tot: self.state.sigma_tot().to_vec(),
            sigma_in: self.state.sigma_in().to_vec(),
            graph: self.graph.clone(),
        }
    }

    /// Reassembles a detector from a checkpoint without touching any of its
    /// float values (the inverse of [`StreamingDetector::checkpoint`]). The
    /// caller has checked that `config` maintains the checkpoint's quality
    /// function.
    pub(crate) fn from_checkpoint(
        checkpoint: ServiceCheckpoint,
        config: StreamConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let ServiceCheckpoint {
            graph,
            labels,
            sigma_tot,
            sigma_in,
            drift,
            batches,
            full_redetects,
            ..
        } = checkpoint;
        if labels.len() != graph.num_nodes() {
            return Err(StreamError::Graph(qhdcd_graph::GraphError::PartitionSizeMismatch {
                labels: labels.len(),
                nodes: graph.num_nodes(),
            }));
        }
        let (slots, internal) = (sigma_tot.len(), sigma_in.len());
        let labelled = labels.iter().max().map_or(0, |&c| c + 1);
        let state = ModularityState::from_parts(labels, sigma_tot, sigma_in, config.quality())
            .ok_or_else(|| StreamError::InvalidConfig {
                reason: format!(
                    "checkpoint aggregates disagree with its labels: {slots} sigma_tot and \
                     {internal} sigma_in entries for {labelled} labelled communities"
                ),
            })?;
        Ok(StreamingDetector {
            graph,
            config,
            state,
            drift,
            batches,
            full_redetects,
            scan: NeighborScan::new(),
        })
    }
}

/// Number of nodes whose community changed between two labelings, invariant
/// under label renaming: old and new communities are matched one-to-one
/// greedily by overlap size (largest overlap first, ties to the lowest ids),
/// and a node counts as moved iff its new label is not its old community's
/// match. A positional `old != new` comparison would overcount massively,
/// because a single real move can shift the canonical renumbering of every
/// later label; a non-injective plurality match would undercount merges.
fn nodes_moved_between(old: &[usize], new: &[usize]) -> usize {
    let mut pair_counts: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for (&o, &n) in old.iter().zip(new.iter()) {
        *pair_counts.entry((o, n)).or_insert(0) += 1;
    }
    let mut overlaps: Vec<(usize, usize, usize)> =
        pair_counts.into_iter().map(|((o, n), count)| (count, o, n)).collect();
    overlaps.sort_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
    let mut matched: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    let mut claimed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for (_, o, n) in overlaps {
        if !matched.contains_key(&o) && claimed.insert(n) {
            matched.insert(o, n);
        }
    }
    old.iter().zip(new.iter()).filter(|&(o, n)| matched.get(o) != Some(n)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, modularity};

    fn karate_detector() -> StreamingDetector {
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let partition = generators::karate_club_communities();
        StreamingDetector::from_partition(graph, partition, StreamConfig::default()).unwrap()
    }

    /// Maintained modularity must equal a from-scratch recomputation on the
    /// snapshot.
    fn assert_q_consistent(detector: &StreamingDetector) {
        let maintained = detector.modularity();
        let recomputed =
            modularity::modularity(&detector.graph().snapshot(), &detector.partition());
        assert!(
            (maintained - recomputed).abs() < 1e-9,
            "maintained={maintained} recomputed={recomputed}"
        );
    }

    #[test]
    fn nodes_moved_is_invariant_under_renumbering() {
        // One real move (node 0 from A to B) shifts the canonical renumbering
        // of every label; the matched count must still report exactly 1.
        assert_eq!(nodes_moved_between(&[0, 0, 1, 1], &[0, 1, 0, 0]), 1);
        // Identical partitions under different names: nothing moved.
        assert_eq!(nodes_moved_between(&[2, 2, 5, 5], &[0, 0, 1, 1]), 0);
        // Everything merged: the smaller community's nodes moved.
        assert_eq!(nodes_moved_between(&[0, 0, 0, 1], &[0, 0, 0, 0]), 1);
    }

    #[test]
    fn config_validation() {
        assert!(StreamConfig::default().validate().is_ok());
        for bad in [
            StreamConfig { frontier_fraction: 0.0, ..StreamConfig::default() },
            StreamConfig { frontier_fraction: 1.5, ..StreamConfig::default() },
            StreamConfig { drift_threshold: 0.0, ..StreamConfig::default() },
            StreamConfig { drift_threshold: f64::NAN, ..StreamConfig::default() },
            StreamConfig {
                refine: RefineConfig { max_passes: 0, ..RefineConfig::default() },
                ..StreamConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(StreamingDetector::new(DynamicGraph::new(0), StreamConfig::default()).is_err());
        let mismatched = Partition::singletons(3);
        assert!(StreamingDetector::from_partition(
            DynamicGraph::new(5),
            mismatched,
            StreamConfig::default()
        )
        .is_err());
    }

    #[test]
    fn aggregates_track_every_event_kind() {
        let mut detector = karate_detector();
        assert_q_consistent(&detector);
        let batches: Vec<Vec<EdgeEvent>> = vec![
            vec![EdgeEvent::Add { u: 0, v: 33, weight: 2.0 }],
            vec![EdgeEvent::Update { u: 0, v: 33, weight: 0.25 }],
            vec![EdgeEvent::Remove { u: 0, v: 33 }],
            vec![EdgeEvent::Add { u: 5, v: 5, weight: 1.5 }], // self-loop
            vec![
                EdgeEvent::Add { u: 2, v: 20, weight: 1.0 },
                EdgeEvent::Remove { u: 0, v: 1 },
                EdgeEvent::Update { u: 5, v: 5, weight: 0.5 },
            ],
        ];
        for batch in &batches {
            detector.apply_events(batch).unwrap();
            assert_q_consistent(&detector);
        }
        assert_eq!(detector.batches_applied(), batches.len() as u64);
    }

    #[test]
    fn localized_refinement_repairs_perturbed_structure() {
        // Cut a clique's node loose and rewire it into another clique: the
        // frontier refinement must move it to its new home.
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        // Thresholds pinned wide open so this exercises the localized path.
        let config = StreamConfig {
            frontier_fraction: 1.0,
            drift_threshold: 1e9,
            ..StreamConfig::default()
        };
        let mut detector =
            StreamingDetector::from_partition(graph, pg.ground_truth.clone(), config).unwrap();
        // Node 0's clique is {0..4}; rewire node 0 into node 6's clique.
        let mut events = Vec::new();
        for v in 1..5 {
            events.push(EdgeEvent::Remove { u: 0, v });
        }
        for v in 5..10 {
            events.push(EdgeEvent::Add { u: 0, v, weight: 1.0 });
        }
        let stats = detector.apply_events(&events).unwrap();
        assert!(!stats.full_redetect);
        assert!(stats.nodes_moved >= 1, "stats={stats:?}");
        let p = detector.partition();
        assert_eq!(p.community_of(0), p.community_of(6), "node 0 should join its new clique");
        assert_ne!(p.community_of(0), p.community_of(1));
        assert_q_consistent(&detector);
    }

    #[test]
    fn drift_accumulates_and_triggers_full_redetect() {
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        let config = StreamConfig { drift_threshold: 0.05, ..StreamConfig::default() }.with_seed(3);
        let mut detector =
            StreamingDetector::from_partition(graph, pg.ground_truth.clone(), config).unwrap();
        // A heavy weight change on one edge exceeds 5% of the total weight.
        let stats = detector.apply_events(&[EdgeEvent::Add { u: 0, v: 1, weight: 10.0 }]).unwrap();
        assert!(stats.full_redetect);
        assert_eq!(detector.full_redetects(), 1);
        assert_eq!(detector.drift(), 0.0);
        assert_q_consistent(&detector);
    }

    #[test]
    fn wide_frontier_triggers_full_redetect() {
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        let config =
            StreamConfig { frontier_fraction: 0.2, drift_threshold: 1e9, ..Default::default() }
                .with_seed(1);
        let mut detector =
            StreamingDetector::from_partition(graph, pg.ground_truth.clone(), config).unwrap();
        // Touch many nodes at once: frontier spans well over 20% of the graph.
        let events: Vec<EdgeEvent> =
            (0..10).map(|i| EdgeEvent::Add { u: i, v: (i + 5) % 20, weight: 0.1 }).collect();
        let stats = detector.apply_events(&events).unwrap();
        assert!(stats.full_redetect);
        assert_q_consistent(&detector);
    }

    #[test]
    fn event_errors_keep_bookkeeping_consistent() {
        let mut detector = karate_detector();
        // The checkpoint text holds the graph's own checkpoint text, the
        // labels, the `Σtot`, `Σin` and drift bits and the batch counter.
        let before = detector.checkpoint(0, 0).to_text();
        let err = detector
            .apply_events(&[
                EdgeEvent::Add { u: 0, v: 2, weight: 1.0 },
                EdgeEvent::Remove { u: 0, v: 9 }, // not an edge
            ])
            .unwrap_err();
        assert!(matches!(err, StreamError::EventFailed { index: 1, .. }));
        // The batch is all or nothing: not even the `Add 0-2` is applied.
        assert_eq!(detector.checkpoint(0, 0).to_text(), before);
        assert_q_consistent(&detector);
    }

    #[test]
    fn modularity_delta_is_reported() {
        let mut detector = karate_detector();
        let q0 = detector.modularity();
        let stats = detector.apply_events(&[EdgeEvent::Add { u: 0, v: 33, weight: 3.0 }]).unwrap();
        assert_eq!(stats.modularity_before, q0);
        assert!((stats.modularity - detector.modularity()).abs() < 1e-15);
        assert!((stats.modularity_delta - (stats.modularity - q0)).abs() < 1e-15);
    }

    #[test]
    fn reruns_are_bit_identical() {
        let run = || {
            let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
                num_nodes: 60,
                num_communities: 3,
                p_in: 0.3,
                p_out: 0.05,
                seed: 11,
            })
            .unwrap();
            let graph = DynamicGraph::from_graph(&pg.graph);
            let mut detector = StreamingDetector::from_partition(
                graph,
                pg.ground_truth.clone(),
                StreamConfig { drift_threshold: 0.1, ..StreamConfig::default() }.with_seed(5),
            )
            .unwrap();
            let mut trace = Vec::new();
            for step in 0..12u64 {
                let u = (step * 7 % 60) as usize;
                let v = (step * 13 + 1) as usize % 60;
                let events = if detector.graph().has_edge(u, v) {
                    vec![EdgeEvent::Remove { u, v }]
                } else {
                    vec![EdgeEvent::Add { u, v, weight: 1.0 + step as f64 / 10.0 }]
                };
                let stats = detector.apply_events(&events).unwrap();
                trace.push((stats.modularity.to_bits(), stats.nodes_moved, stats.full_redetect));
            }
            (trace, detector.partition())
        };
        let (trace_a, partition_a) = run();
        let (trace_b, partition_b) = run();
        assert_eq!(trace_a, trace_b);
        assert_eq!(partition_a, partition_b);
    }

    #[test]
    fn node_growth_is_supported() {
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let config = StreamConfig {
            frontier_fraction: 1.0,
            drift_threshold: 1e9,
            ..StreamConfig::default()
        };
        let mut detector =
            StreamingDetector::from_partition(graph, generators::karate_club_communities(), config)
                .unwrap();
        let id = detector.add_node();
        assert_eq!(id, 34);
        let stats = detector.apply_events(&[EdgeEvent::Add { u: 34, v: 0, weight: 1.0 }]).unwrap();
        assert!(!stats.full_redetect);
        assert_eq!(stats.events_applied, 1);
        // The new node should be pulled into node 0's community by refinement.
        let p = detector.partition();
        assert_eq!(p.community_of(34), p.community_of(0));
        assert_q_consistent(&detector);
    }

    #[test]
    fn remove_node_event_keeps_aggregates_consistent() {
        let mut detector = karate_detector();
        // Give node 33 a self-loop first so the deletion covers that path too.
        detector.apply_events(&[EdgeEvent::Add { u: 33, v: 33, weight: 1.5 }]).unwrap();
        assert_q_consistent(&detector);
        let stats = detector.apply_events(&[EdgeEvent::RemoveNode { u: 33 }]).unwrap();
        assert_eq!(stats.events_applied, 1);
        assert!(detector.graph().neighbors(33).next().is_none());
        // The id survives as a tombstone: the node count is unchanged and the
        // label vector still covers it.
        assert_eq!(detector.num_nodes(), 34);
        assert_eq!(detector.partition().num_nodes(), 34);
        assert_q_consistent(&detector);
        // Mixed batches with deletions stay consistent as well.
        let stats = detector
            .apply_events(&[
                EdgeEvent::Add { u: 33, v: 0, weight: 2.0 },
                EdgeEvent::RemoveNode { u: 0 },
                EdgeEvent::Add { u: 1, v: 2, weight: 0.5 },
            ])
            .unwrap();
        assert_eq!(stats.events_applied, 3);
        assert_q_consistent(&detector);
    }

    #[test]
    fn remove_node_out_of_bounds_reports_the_event_index() {
        let mut detector = karate_detector();
        let before = detector.checkpoint(0, 0).to_text();
        let err = detector
            .apply_events(&[
                EdgeEvent::Add { u: 0, v: 2, weight: 1.0 },
                EdgeEvent::RemoveNode { u: 99 },
            ])
            .unwrap_err();
        assert!(matches!(err, StreamError::EventFailed { index: 1, .. }));
        assert_eq!(detector.checkpoint(0, 0).to_text(), before);
        assert_q_consistent(&detector);
    }

    #[test]
    fn generalized_aggregates_track_every_event_kind() {
        // Maintained quality must match the from-scratch recomputation after
        // every batch, for γ≠1 modularity and for CPM (whose aggregate is a
        // node count that edge events never change).
        for quality in
            [modularity::QualityFunction::modularity(0.5), modularity::QualityFunction::cpm(0.25)]
        {
            let graph = DynamicGraph::from_graph(&generators::karate_club());
            let config = StreamConfig {
                frontier_fraction: 1.0,
                drift_threshold: 1e9,
                ..StreamConfig::default()
            }
            .with_quality(quality);
            let mut detector = StreamingDetector::from_partition(
                graph,
                generators::karate_club_communities(),
                config,
            )
            .unwrap();
            let check = |d: &StreamingDetector| {
                let maintained = d.modularity();
                let recomputed =
                    modularity::quality(&d.graph().snapshot(), &d.partition(), quality);
                assert!(
                    (maintained - recomputed).abs() < 1e-9,
                    "{quality:?}: maintained={maintained} recomputed={recomputed}"
                );
            };
            check(&detector);
            let batches: Vec<Vec<EdgeEvent>> = vec![
                vec![EdgeEvent::Add { u: 0, v: 33, weight: 2.0 }],
                vec![EdgeEvent::Update { u: 0, v: 33, weight: 0.25 }],
                vec![EdgeEvent::Remove { u: 0, v: 33 }],
                vec![EdgeEvent::Add { u: 5, v: 5, weight: 1.5 }], // self-loop
                vec![EdgeEvent::RemoveNode { u: 20 }],            // tombstone still counts
                vec![
                    EdgeEvent::Add { u: 2, v: 20, weight: 1.0 },
                    EdgeEvent::Remove { u: 0, v: 1 },
                    EdgeEvent::Update { u: 5, v: 5, weight: 0.5 },
                ],
            ];
            for batch in &batches {
                detector.apply_events(batch).unwrap();
                check(&detector);
            }
            let id = detector.add_node();
            detector.apply_events(&[EdgeEvent::Add { u: id, v: 0, weight: 1.0 }]).unwrap();
            check(&detector);
        }
    }

    #[test]
    fn cpm_full_redetect_keeps_aggregates_consistent() {
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let quality = modularity::QualityFunction::cpm(0.5);
        let graph = DynamicGraph::from_graph(&pg.graph);
        let config = StreamConfig { drift_threshold: 0.05, ..StreamConfig::default() }
            .with_seed(3)
            .with_quality(quality);
        let mut detector =
            StreamingDetector::from_partition(graph, pg.ground_truth.clone(), config).unwrap();
        let stats = detector.apply_events(&[EdgeEvent::Add { u: 0, v: 1, weight: 10.0 }]).unwrap();
        assert!(stats.full_redetect);
        let recomputed =
            modularity::quality(&detector.graph().snapshot(), &detector.partition(), quality);
        assert!(
            (detector.modularity() - recomputed).abs() < 1e-9,
            "maintained={} recomputed={recomputed}",
            detector.modularity()
        );
    }

    #[test]
    fn initial_detection_seeds_the_partition() {
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let graph = DynamicGraph::from_graph(&pg.graph);
        let detector = StreamingDetector::new(
            graph,
            StreamConfig {
                detector: CommunityDetector::classical_fallback().with_communities(4),
                ..Default::default()
            }
            .with_seed(2),
        )
        .unwrap();
        assert!(detector.modularity() > 0.5, "q={}", detector.modularity());
        assert_q_consistent(&detector);
    }
}
