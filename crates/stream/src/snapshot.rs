//! Versioned, immutable partition snapshots with a lock-free read path.
//!
//! The streaming service separates its single mutating writer (the
//! [`StreamingDetector`](crate::StreamingDetector) refining the next batch)
//! from any number of concurrent readers. Readers never take a lock: each
//! published epoch is an immutable [`PartitionSnapshot`] behind an [`Arc`],
//! and publication appends to a linked chain whose `next` pointers are
//! [`OnceLock`]s. Advancing a reader is a sequence of atomic acquire loads
//! (`OnceLock::get`) plus `Arc` clones — no mutex, no spinning, and the
//! writer is never blocked by slow readers.
//!
//! A snapshot is *epoch-consistent by construction*: it is built entirely by
//! the writer between batches, frozen, and only then linked into the chain.
//! A reader can therefore never observe a torn partition — it either still
//! sees the complete previous epoch or the complete new one (the property the
//! reader/writer interleaving tests pin).
//!
//! An epoch holds a frozen clone of the writer's [`DynamicGraph`], whose
//! per-node neighbour lists it shares copy-on-write with the writer and with
//! the other epochs, plus its own labels, community sizes and quality.
//! Publishing one therefore costs O(n) pointer copies and never touches an
//! edge; the writer's next batch copies only the lists it changes. The CSR
//! [`Graph`] view is built on the first call to [`PartitionSnapshot::graph`]
//! and cached.

use qhdcd_graph::{DynamicGraph, Graph, NodeId, Partition};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// An immutable, epoch-stamped view of the maintained partition and the graph
/// it covers.
///
/// All queries are pure reads of frozen data: `community_of` and
/// `community_size` are O(1), [`PartitionSnapshot::top_communities_near`] is
/// O(deg · log deg) over the frozen neighbour list of the node, and
/// [`PartitionSnapshot::graph`] is O(n + m) on its first call and O(1) after.
#[derive(Debug, Clone)]
pub struct PartitionSnapshot {
    epoch: u64,
    /// The writer's graph as of this epoch, sharing its neighbour lists.
    graph: DynamicGraph,
    /// The CSR form of `graph`, built on the first [`Self::graph`] call.
    csr: OnceLock<Graph>,
    labels: Vec<usize>,
    community_sizes: Vec<usize>,
    modularity: f64,
}

impl PartitionSnapshot {
    /// Builds a snapshot from frozen state. `labels` must be renumbered
    /// (contiguous community ids) and cover every node of `graph`.
    pub(crate) fn new(
        epoch: u64,
        graph: DynamicGraph,
        labels: Vec<usize>,
        modularity: f64,
    ) -> Self {
        debug_assert_eq!(labels.len(), graph.num_nodes());
        let k = labels.iter().copied().max().map_or(0, |max| max + 1);
        let mut community_sizes = vec![0usize; k];
        for &label in &labels {
            community_sizes[label] += 1;
        }
        PartitionSnapshot {
            epoch,
            graph,
            csr: OnceLock::new(),
            labels,
            community_sizes,
            modularity,
        }
    }

    /// The epoch (generation counter) this snapshot was published at. Strictly
    /// increasing across publications; epoch 0 is the initial partition.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of communities (contiguous ids `0..k`).
    pub fn num_communities(&self) -> usize {
        self.community_sizes.len()
    }

    /// The community of `node`, or `None` if the id is out of range.
    pub fn community_of(&self, node: NodeId) -> Option<usize> {
        self.labels.get(node).copied()
    }

    /// The community label per node (renumbered).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of member nodes per community.
    pub fn community_sizes(&self) -> &[usize] {
        &self.community_sizes
    }

    /// Number of members of `community`, or `None` if the id is out of range.
    pub fn community_size(&self, community: usize) -> Option<usize> {
        self.community_sizes.get(community).copied()
    }

    /// The maintained value of the configured quality function at this epoch
    /// (γ=1 modularity unless the service was configured with
    /// `StreamConfig::with_quality`).
    pub fn modularity(&self) -> f64 {
        self.modularity
    }

    /// The CSR graph this epoch's partition covers. The first call builds it
    /// from the frozen neighbour lists in O(n + m); later calls, from any
    /// thread, return the same graph.
    pub fn graph(&self) -> &Graph {
        self.csr.get_or_init(|| self.graph.snapshot())
    }

    /// The partition as an owned [`Partition`].
    pub fn partition(&self) -> Partition {
        Partition::from_labels(self.labels.to_vec()).expect("snapshots cover at least one node")
    }

    /// The up-to-`k` communities adjacent to `node` ranked by total edge
    /// weight from `node` into them (descending weight, then ascending
    /// community id; the node's own community is included when it has
    /// in-community edges). Returns an empty vector for out-of-range nodes.
    pub fn top_communities_near(&self, node: NodeId, k: usize) -> Vec<(usize, f64)> {
        if node >= self.labels.len() || k == 0 {
            return Vec::new();
        }
        let mut weight_to: BTreeMap<usize, f64> = BTreeMap::new();
        for (v, w) in self.graph.neighbors(node) {
            *weight_to.entry(self.labels[v]).or_insert(0.0) += w;
        }
        let mut ranked: Vec<(usize, f64)> = weight_to.into_iter().collect();
        ranked
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite").then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

/// One node of the publication chain. `next` is set exactly once by the
/// single writer; readers observe it with an atomic acquire load.
#[derive(Debug)]
struct Link {
    snapshot: Arc<PartitionSnapshot>,
    next: OnceLock<Arc<Link>>,
}

impl Drop for Link {
    /// Frees the chain behind this link iteratively: the derived drop would
    /// recurse once per link, and dropping a reader idle behind a few hundred
    /// thousand epochs would overflow the stack. The walk stops at the first
    /// link that a reader or the publisher still holds.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(link) = next {
            next = Arc::into_inner(link).and_then(|mut link| link.next.take());
        }
    }
}

/// The writer's handle: publishes a new epoch by appending to the chain.
///
/// There is exactly one publisher per service; publication is an `Arc`
/// allocation plus a single `OnceLock::set` (an atomic release store), so the
/// writer never waits on readers.
#[derive(Debug)]
pub(crate) struct SnapshotPublisher {
    tail: Arc<Link>,
}

impl SnapshotPublisher {
    /// Creates a chain seeded with the initial snapshot and a reader of it.
    pub(crate) fn new(initial: PartitionSnapshot) -> (Self, SnapshotReader) {
        let link = Arc::new(Link { snapshot: Arc::new(initial), next: OnceLock::new() });
        (SnapshotPublisher { tail: Arc::clone(&link) }, SnapshotReader { head: link })
    }

    /// Publishes `snapshot` as the new latest epoch.
    pub(crate) fn publish(&mut self, snapshot: PartitionSnapshot) {
        let link = Arc::new(Link { snapshot: Arc::new(snapshot), next: OnceLock::new() });
        self.tail.next.set(Arc::clone(&link)).expect("single writer owns the tail");
        self.tail = link;
    }

    /// The most recently published snapshot.
    pub(crate) fn latest(&self) -> Arc<PartitionSnapshot> {
        Arc::clone(&self.tail.snapshot)
    }

    /// A new independent reader positioned at the latest epoch.
    pub(crate) fn reader(&self) -> SnapshotReader {
        SnapshotReader { head: Arc::clone(&self.tail) }
    }
}

/// A lock-free reader handle onto the snapshot chain.
///
/// Each clone advances independently; [`SnapshotReader::latest`] walks the
/// chain to the newest published epoch with atomic acquire loads and returns
/// an `Arc` to its immutable snapshot. Dropping or lagging readers never
/// blocks the writer; fully-consumed chain prefixes are freed as the last
/// reader moves past them.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    head: Arc<Link>,
}

impl SnapshotReader {
    /// Advances to and returns the newest published snapshot.
    pub fn latest(&mut self) -> Arc<PartitionSnapshot> {
        while let Some(next) = self.head.next.get() {
            self.head = Arc::clone(next);
        }
        Arc::clone(&self.head.snapshot)
    }

    /// Returns the snapshot at the reader's current position without
    /// advancing (the epoch last returned by [`SnapshotReader::latest`], or
    /// the epoch the reader was created at).
    pub fn current(&self) -> Arc<PartitionSnapshot> {
        Arc::clone(&self.head.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::generators;

    fn karate_snapshot(epoch: u64) -> PartitionSnapshot {
        let graph = generators::karate_club();
        let labels = generators::karate_club_communities().renumbered().labels().to_vec();
        let q = qhdcd_graph::modularity::modularity(
            &graph,
            &Partition::from_labels(labels.clone()).unwrap(),
        );
        PartitionSnapshot::new(epoch, DynamicGraph::from_graph(&graph), labels, q)
    }

    #[test]
    fn snapshot_point_queries() {
        let snap = karate_snapshot(3);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.num_nodes(), 34);
        assert_eq!(snap.community_sizes().iter().sum::<usize>(), 34);
        assert_eq!(snap.community_of(0), Some(snap.labels()[0]));
        assert_eq!(snap.community_of(999), None);
        assert_eq!(snap.community_size(snap.num_communities()), None);
        assert_eq!(snap.partition().num_nodes(), 34);
    }

    #[test]
    fn top_communities_ranked_by_attachment() {
        let snap = karate_snapshot(0);
        let ranked = snap.top_communities_near(0, 10);
        assert!(!ranked.is_empty());
        // Descending weight, ascending id on ties.
        for pair in ranked.windows(2) {
            assert!(pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0));
        }
        // Node 0 is firmly inside its own community.
        assert_eq!(ranked[0].0, snap.community_of(0).unwrap());
        assert_eq!(snap.top_communities_near(0, 1).len(), 1);
        assert!(snap.top_communities_near(999, 3).is_empty());
        assert!(snap.top_communities_near(0, 0).is_empty());
    }

    #[test]
    fn readers_advance_through_published_epochs() {
        let (mut publisher, mut reader) = SnapshotPublisher::new(karate_snapshot(0));
        assert_eq!(reader.latest().epoch(), 0);
        let mut lagging = reader.clone();
        publisher.publish(karate_snapshot(1));
        publisher.publish(karate_snapshot(2));
        assert_eq!(publisher.latest().epoch(), 2);
        assert_eq!(reader.latest().epoch(), 2);
        // The lagging clone still sees its old position until it advances.
        assert_eq!(lagging.current().epoch(), 0);
        assert_eq!(lagging.latest().epoch(), 2);
        assert_eq!(publisher.reader().current().epoch(), 2);
        // Dropping readers frees only the epochs nobody else holds.
        let mut parked = publisher.reader();
        publisher.publish(karate_snapshot(3));
        drop(reader);
        drop(lagging);
        assert_eq!(parked.current().epoch(), 2);
        assert_eq!(parked.latest().epoch(), 3);
    }

    #[test]
    fn graph_is_built_once_from_the_frozen_lists() {
        let snap = karate_snapshot(0);
        let graph = snap.graph();
        assert_eq!(graph, &generators::karate_club());
        assert!(std::ptr::eq(graph, snap.graph()), "the CSR view is cached");
        for v in 0..snap.num_nodes() {
            let mut by_csr = BTreeMap::new();
            for (u, w) in graph.neighbors(v) {
                *by_csr.entry(snap.labels()[u]).or_insert(0.0) += w;
            }
            let near = snap.top_communities_near(v, usize::MAX);
            assert_eq!(near.len(), by_csr.len());
            for (c, w) in near {
                assert_eq!(by_csr[&c].to_bits(), w.to_bits());
            }
        }
    }

    /// Dropping the last reader of a long chain of epochs frees the chain
    /// without recursing: this overflowed a small stack before `Link` had its
    /// own `Drop`.
    #[test]
    fn dropping_an_idle_reader_behind_a_long_chain_keeps_the_stack_flat() {
        let tiny = |epoch| PartitionSnapshot::new(epoch, DynamicGraph::new(0), Vec::new(), 0.0);
        let (mut publisher, idle) = SnapshotPublisher::new(tiny(0));
        for epoch in 1..=200_000 {
            publisher.publish(tiny(epoch));
        }
        drop(publisher);
        let dropper = std::thread::Builder::new().stack_size(128 * 1024);
        dropper.spawn(move || drop(idle)).unwrap().join().unwrap();
    }
}
