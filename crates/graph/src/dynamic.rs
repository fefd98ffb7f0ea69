//! A mutable, streaming-friendly graph layer with cheap frozen copies.
//!
//! [`Graph`] is an immutable CSR structure optimised for read-heavy solver
//! loops; rebuilding it for every edge arrival would cost O(m log m) per
//! update. [`DynamicGraph`] is the mutable counterpart for streaming
//! workloads: every node keeps its `(neighbour, weight)` pairs in an array
//! sorted by neighbour id, so a lookup is a binary search and an edge update
//! is O(deg). Weighted degrees and the total edge weight are cached, and
//! [`DynamicGraph::snapshot`] compacts the lists back to CSR in O(n + m)
//! whenever a solver needs the immutable view.
//!
//! The lists are shared copy-on-write (`Arc<[_]>`), the path copying of
//! persistent data structures: `clone()` copies n pointers and the two
//! degree/weight vectors, never an edge, and a mutation never writes to a
//! list that a clone still holds; it writes a new copy of the list instead.
//! The streaming service freezes every published epoch this way, so
//! publishing costs O(n) pointer copies plus one copy of each list the next
//! batch touches.
//!
//! Edge mutations arrive as [`EdgeEvent`] values (insert / remove / absolute
//! weight update / node deletion), the unit the streaming community-detection
//! subsystem replays in batches. A batch applies all or nothing:
//! [`DynamicGraph::check_events`] checks it against the rules every mutation
//! applies before [`DynamicGraph::apply_events`] changes anything.
//! Conventions match [`Graph`] exactly: undirected edges,
//! merged parallel edges, self-loops allowed and counted twice in degrees,
//! total edge weight counting each undirected edge (and self-loop) once.
//!
//! # Example
//!
//! ```
//! use qhdcd_graph::{DynamicGraph, EdgeEvent};
//!
//! # fn main() -> Result<(), qhdcd_graph::GraphError> {
//! let mut g = DynamicGraph::new(3);
//! g.apply(&EdgeEvent::Add { u: 0, v: 1, weight: 2.0 })?;
//! g.apply(&EdgeEvent::Add { u: 1, v: 2, weight: 1.0 })?;
//! let frozen = g.clone();
//! g.apply(&EdgeEvent::Remove { u: 0, v: 1 })?;
//! assert_eq!(g.num_edges(), 1);
//! assert_eq!(frozen.num_edges(), 2, "the clone keeps its own version");
//! let snap = g.snapshot();
//! assert_eq!(snap.total_edge_weight(), 1.0);
//! # Ok(())
//! # }
//! ```

use crate::{Graph, GraphError, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single timestamp-ordered mutation of a dynamic graph.
///
/// Events are the replay unit of the streaming subsystem: batches of events
/// are applied to a [`DynamicGraph`] and the community structure is patched
/// incrementally. `u` and `v` are interchangeable (edges are undirected).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeEvent {
    /// Insert an edge, *adding* `weight` to the existing weight if the edge is
    /// already present (the same merge rule as [`crate::GraphBuilder`]).
    Add {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint (`u == v` is a self-loop).
        v: NodeId,
        /// Weight to add; must be finite and non-negative.
        weight: f64,
    },
    /// Remove an existing edge entirely.
    Remove {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Set the *absolute* weight of an existing edge.
    Update {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// New absolute weight; must be finite and non-negative.
        weight: f64,
    },
    /// Delete a node from the graph: every incident edge (including a
    /// self-loop) is removed in one event. The node id itself stays valid as
    /// an isolated tombstone — ids are dense and never renumbered, so
    /// partitions and per-node arrays keep their indexing.
    RemoveNode {
        /// The node whose incident edges are removed.
        u: NodeId,
    },
}

impl EdgeEvent {
    /// The endpoints of the event, in the order given (a node deletion
    /// reports `(u, u)`).
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeEvent::Add { u, v, .. }
            | EdgeEvent::Remove { u, v }
            | EdgeEvent::Update { u, v, .. } => (u, v),
            EdgeEvent::RemoveNode { u } => (u, u),
        }
    }
}

/// A mutable, undirected, weighted graph in sorted adjacency-list form.
///
/// Maintains one neighbour list per node, sorted by neighbour id, plus cached
/// aggregates (weighted degrees, distinct edge count, total edge weight), so
/// every mutation is O(deg) and every aggregate read is O(1). The lists are
/// shared copy-on-write between a graph and its clones (see the module docs).
/// Node ids are dense (`0..num_nodes()`); new nodes are appended with
/// [`DynamicGraph::add_node`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DynamicGraph {
    /// Per-node `(neighbour, weight)` lists, strictly ascending by neighbour;
    /// an undirected edge `(u, v)` with `u != v` is stored in both lists, a
    /// self-loop once in its node's list.
    adjacency: Vec<NeighborList>,
    /// Cached weighted degrees (self-loops counted twice).
    degrees: Vec<f64>,
    /// Node weights (1.0 for plain graphs, aggregate size for coarse graphs),
    /// carried through snapshots but not touched by edge events.
    node_weights: Vec<f64>,
    /// Number of distinct undirected edges.
    num_edges: usize,
    /// Sum of weights over distinct undirected edges (self-loops once).
    total_edge_weight: f64,
}

/// One node's `(neighbour, weight)` pairs, shared copy-on-write. The pairs
/// sit inline after the reference counts, so a read reaches them in one
/// pointer hop, as it reaches a CSR row. The price is that an insertion or a
/// removal writes a new list, which is O(deg) like shifting a `Vec`; a weight
/// change writes in place unless a clone shares the list.
type NeighborList = Arc<[(NodeId, f64)]>;

/// Where `v` sits in a sorted neighbour list: `Ok` with its index if present,
/// `Err` with the index that keeps the list sorted if not.
fn position(list: &[(NodeId, f64)], v: NodeId) -> Result<usize, usize> {
    list.binary_search_by_key(&v, |&(x, _)| x)
}

/// Whether a neighbour list is strictly ascending (sorted, no duplicates).
fn strictly_ascending(list: &[(NodeId, f64)]) -> bool {
    list.windows(2).all(|pair| pair[0].0 < pair[1].0)
}

/// Adds `weight` to the entry for `v`, inserting it if absent. A new entry
/// starts from `+0.0`, so a `−0.0` weight is stored as `+0.0`. Returns whether
/// the entry existed.
fn add_weight(list: &mut NeighborList, v: NodeId, weight: f64) -> bool {
    match position(list, v) {
        Ok(i) => {
            Arc::make_mut(list)[i].1 += weight;
            true
        }
        Err(i) => {
            let entry = (v, 0.0 + weight);
            *list =
                list[..i].iter().copied().chain([entry]).chain(list[i..].iter().copied()).collect();
            false
        }
    }
}

impl DynamicGraph {
    /// Creates a dynamic graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        DynamicGraph {
            adjacency: vec![NeighborList::default(); num_nodes],
            degrees: vec![0.0; num_nodes],
            node_weights: vec![1.0; num_nodes],
            num_edges: 0,
            total_edge_weight: 0.0,
        }
    }

    /// Builds a dynamic graph holding the same nodes, node weights and edges
    /// as `graph`, copying each CSR row as one list.
    ///
    /// Every bit matches an [`DynamicGraph::insert_edge`] per edge of
    /// [`Graph::edges`]: that loop patches a node's degree in ascending
    /// neighbour order and the total weight in `(u, v)` order, and stores a
    /// new edge's weight added to `+0.0`, and so does this one.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut adjacency = Vec::with_capacity(n);
        let mut degrees = Vec::with_capacity(n);
        let (mut num_edges, mut total_edge_weight) = (0, 0.0);
        for u in 0..n {
            let list: NeighborList = graph.neighbors(u).map(|(v, w)| (v, 0.0 + w)).collect();
            debug_assert!(strictly_ascending(&list), "CSR rows are sorted and merged");
            let mut degree = 0.0;
            for &(v, w) in list.iter() {
                degree += if v == u { 2.0 * w } else { w };
                if u <= v {
                    num_edges += 1;
                    total_edge_weight += w;
                }
            }
            degrees.push(degree);
            adjacency.push(list);
        }
        DynamicGraph {
            adjacency,
            degrees,
            node_weights: graph.node_weights().to_vec(),
            num_edges,
            total_edge_weight,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of distinct undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total edge weight `m` (each undirected edge and self-loop counted once).
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Weighted degree of `node` (self-loops counted twice).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn degree(&self, node: NodeId) -> f64 {
        self.degrees[node]
    }

    /// Slice of all weighted degrees, indexed by node.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// Number of neighbours of `node` (a self-loop counts once).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn neighbor_count(&self, node: NodeId) -> usize {
        self.adjacency[node].len()
    }

    /// Iterator over the `(neighbor, weight)` pairs of `node`, in ascending
    /// neighbour order (the same order a CSR [`Graph`] yields).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adjacency[node].iter().copied()
    }

    /// Weight of the edge `(u, v)` if present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let list = &self.adjacency[u];
        position(list, v).ok().map(|i| list[i].1)
    }

    /// Returns `true` if the edge `(u, v)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        position(&self.adjacency[u], v).is_ok()
    }

    /// Node weight of `node` (1.0 unless built from a coarsened graph).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.node_weights[node]
    }

    /// Appends a new isolated node (weight 1.0) and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(NeighborList::default());
        self.degrees.push(0.0);
        self.node_weights.push(1.0);
        self.adjacency.len() - 1
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.num_nodes();
        if u >= n {
            return Err(GraphError::NodeOutOfBounds { node: u, num_nodes: n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfBounds { node: v, num_nodes: n });
        }
        Ok(())
    }

    /// The event rules, written once: both endpoints in range, a finite
    /// non-negative weight, and for a `Remove` or an `Update` an edge that
    /// `present` reports. The mutations ask with the live edges,
    /// [`DynamicGraph::check_events`] with those the batch so far leaves.
    fn admit(
        &self,
        event: &EdgeEvent,
        present: impl Fn(NodeId, NodeId) -> bool,
    ) -> Result<(), GraphError> {
        let (u, v) = event.endpoints();
        self.check_endpoints(u, v)?;
        if let EdgeEvent::Add { weight, .. } | EdgeEvent::Update { weight, .. } = *event {
            if !weight.is_finite() || weight < 0.0 {
                return Err(GraphError::InvalidEdgeWeight { weight });
            }
        }
        match event {
            EdgeEvent::Remove { .. } | EdgeEvent::Update { .. } if !present(u, v) => {
                Err(GraphError::EdgeNotFound { u, v })
            }
            _ => Ok(()),
        }
    }

    /// Applies a weight delta to the cached degree/total aggregates.
    fn patch_aggregates(&mut self, u: NodeId, v: NodeId, delta: f64) {
        self.total_edge_weight += delta;
        if u == v {
            self.degrees[u] += 2.0 * delta;
        } else {
            self.degrees[u] += delta;
            self.degrees[v] += delta;
        }
    }

    /// Removes `v` from `u`'s list, returning its weight if it was there.
    fn unlink(&mut self, u: NodeId, v: NodeId) -> Option<f64> {
        let list = &self.adjacency[u];
        let i = position(list, v).ok()?;
        let weight = list[i].1;
        self.adjacency[u] = list[..i].iter().chain(&list[i + 1..]).copied().collect();
        Some(weight)
    }

    /// Inserts the undirected edge `(u, v)`, adding `weight` to its current
    /// weight if it already exists. Returns the signed change of the edge's
    /// weight (always `weight` here; uniform with the other mutations).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint is out of range.
    /// * [`GraphError::InvalidEdgeWeight`] if `weight` is negative, NaN or
    ///   infinite.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<f64, GraphError> {
        self.admit(&EdgeEvent::Add { u, v, weight }, |u, v| self.has_edge(u, v))?;
        let existing = add_weight(&mut self.adjacency[u], v, weight);
        if u != v {
            add_weight(&mut self.adjacency[v], u, weight);
        }
        if !existing {
            self.num_edges += 1;
        }
        self.patch_aggregates(u, v, weight);
        Ok(weight)
    }

    /// Removes the undirected edge `(u, v)` entirely. Returns the signed change
    /// of the edge's weight (minus the removed weight).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint is out of range.
    /// * [`GraphError::EdgeNotFound`] if the edge does not exist.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<f64, GraphError> {
        self.admit(&EdgeEvent::Remove { u, v }, |u, v| self.has_edge(u, v))?;
        let weight = self.unlink(u, v).expect("admitted: the edge exists");
        if u != v {
            self.unlink(v, u);
        }
        self.num_edges -= 1;
        self.patch_aggregates(u, v, -weight);
        Ok(-weight)
    }

    /// Sets the absolute weight of the existing edge `(u, v)`. Returns the
    /// signed change of the edge's weight (`weight − old`). The edge stays
    /// present even at weight 0; use [`DynamicGraph::remove_edge`] to delete.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint is out of range.
    /// * [`GraphError::InvalidEdgeWeight`] if `weight` is negative, NaN or
    ///   infinite.
    /// * [`GraphError::EdgeNotFound`] if the edge does not exist.
    pub fn update_weight(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<f64, GraphError> {
        self.admit(&EdgeEvent::Update { u, v, weight }, |u, v| self.has_edge(u, v))?;
        let i = position(&self.adjacency[u], v).expect("admitted: the edge exists");
        let old = std::mem::replace(&mut Arc::make_mut(&mut self.adjacency[u])[i].1, weight);
        if u != v {
            let list = Arc::make_mut(&mut self.adjacency[v]);
            let j = position(list, u).expect("symmetric entry exists");
            list[j].1 = weight;
        }
        let delta = weight - old;
        self.patch_aggregates(u, v, delta);
        Ok(delta)
    }

    /// Removes every edge incident to `node` (a batched node deletion). The
    /// node id stays valid as an isolated tombstone so that dense indexing —
    /// partitions, per-node arrays — is never disturbed. Returns the removed
    /// `(neighbor, weight)` pairs in ascending neighbour order (a self-loop
    /// appears as `(node, w)`), which is exactly what a streaming consumer
    /// needs to patch per-community aggregates edge by edge.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `node` is out of range.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<(NodeId, f64)>, GraphError> {
        self.admit(&EdgeEvent::RemoveNode { u: node }, |u, v| self.has_edge(u, v))?;
        let removed = std::mem::take(&mut self.adjacency[node]).to_vec();
        for &(v, w) in &removed {
            if v != node {
                self.unlink(v, node);
            }
            self.num_edges -= 1;
            self.patch_aggregates(node, v, -w);
        }
        Ok(removed)
    }

    /// Applies one [`EdgeEvent`], returning the signed change of the touched
    /// edge weights (what the modularity bookkeeping of a streaming consumer
    /// needs to patch its aggregates; a node deletion reports minus the sum of
    /// the removed edge weights).
    ///
    /// # Errors
    ///
    /// Same as the corresponding [`DynamicGraph::insert_edge`] /
    /// [`DynamicGraph::remove_edge`] / [`DynamicGraph::update_weight`] /
    /// [`DynamicGraph::remove_node`] call.
    pub fn apply(&mut self, event: &EdgeEvent) -> Result<f64, GraphError> {
        match *event {
            EdgeEvent::Add { u, v, weight } => self.insert_edge(u, v, weight),
            EdgeEvent::Remove { u, v } => self.remove_edge(u, v),
            EdgeEvent::Update { u, v, weight } => self.update_weight(u, v, weight),
            EdgeEvent::RemoveNode { u } => {
                self.remove_node(u).map(|edges| -edges.iter().map(|&(_, w)| w).sum::<f64>())
            }
        }
    }

    /// Checks a batch without changing the graph: each event must pass the
    /// rules of its mutation on the graph the events before it would leave,
    /// which an overlay of the edge presence they changed stands in for.
    ///
    /// # Errors
    ///
    /// The first failing event with its position in the batch: where
    /// applying the events one at a time would stop.
    pub fn check_events(&self, events: &[EdgeEvent]) -> Result<(), (usize, GraphError)> {
        let key = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
        let mut overlay: BTreeMap<(NodeId, NodeId), bool> = BTreeMap::new();
        for (index, event) in events.iter().enumerate() {
            let present =
                |u, v| overlay.get(&key(u, v)).copied().unwrap_or_else(|| self.has_edge(u, v));
            self.admit(event, present).map_err(|e| (index, e))?;
            match *event {
                EdgeEvent::Add { u, v, .. } | EdgeEvent::Remove { u, v } => {
                    overlay.insert(key(u, v), matches!(event, EdgeEvent::Add { .. }));
                }
                EdgeEvent::Update { .. } => {}
                EdgeEvent::RemoveNode { u } => {
                    // Every edge at `u` goes, the live ones and the batch's own.
                    overlay
                        .iter_mut()
                        .filter(|((a, b), _)| *a == u || *b == u)
                        .for_each(|(_, p)| *p = false);
                    overlay.extend(self.neighbors(u).map(|(v, _)| (key(u, v), false)));
                }
            }
        }
        Ok(())
    }

    /// Applies a batch of events in order, all or nothing: the batch passes
    /// [`DynamicGraph::check_events`] before any event is applied, so a
    /// failing batch leaves the graph as it was.
    ///
    /// # Errors
    ///
    /// The first inadmissible event, with its position in the batch.
    pub fn apply_events(&mut self, events: &[EdgeEvent]) -> Result<(), (usize, GraphError)> {
        self.check_events(events)?;
        for event in events {
            self.apply(event).expect("the batch check admitted every event");
        }
        Ok(())
    }

    /// Compacts the current state into an immutable CSR [`Graph`].
    ///
    /// O(n + m): the lists are already sorted by neighbour id, so the CSR
    /// arrays are filled in one pass with no sort. Aggregates (edge count,
    /// total weight) are carried over from the cached values; degrees are
    /// recomputed by the CSR constructor, which keeps the snapshot
    /// bit-independent of the mutation history.
    pub fn snapshot(&self) -> Graph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for list in &self.adjacency {
            debug_assert!(strictly_ascending(list));
            offsets.push(offsets.last().expect("non-empty") + list.len());
        }
        let nnz = *offsets.last().expect("non-empty");
        let mut neighbors = Vec::with_capacity(nnz);
        let mut weights = Vec::with_capacity(nnz);
        for list in &self.adjacency {
            for &(v, w) in list.iter() {
                neighbors.push(v);
                weights.push(w);
            }
        }
        Graph::from_csr(
            offsets,
            neighbors,
            weights,
            self.node_weights.clone(),
            self.num_edges,
            self.total_edge_weight,
        )
    }

    /// Serializes the graph into a *bit-exact* textual checkpoint.
    ///
    /// The cached aggregates (degrees, total edge weight) are patched
    /// incrementally as events arrive, so their low bits depend on the
    /// mutation history; a restore that recomputed them from the edge list
    /// could diverge from the live process by a few ulps and break the
    /// deterministic-replay contract of the streaming service. Every `f64` is
    /// therefore stored as its raw bit pattern (16 hex digits) and the cached
    /// aggregates are stored verbatim instead of being rebuilt.
    pub fn to_checkpoint_text(&self) -> String {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let join = |xs: &[f64]| xs.iter().map(|&x| bits(x)).collect::<Vec<_>>().join(" ");
        let mut out = String::new();
        out.push_str("dyngraph v1\n");
        out.push_str(&format!("nodes {}\n", self.num_nodes()));
        out.push_str(&format!("edges {}\n", self.num_edges));
        out.push_str(&format!("total_weight {}\n", bits(self.total_edge_weight)));
        out.push_str(&format!("degrees {}\n", join(&self.degrees)));
        out.push_str(&format!("node_weights {}\n", join(&self.node_weights)));
        for u in 0..self.num_nodes() {
            for (v, w) in self.neighbors(u) {
                if u <= v {
                    out.push_str(&format!("edge {u} {v} {}\n", bits(w)));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Restores a graph from [`DynamicGraph::to_checkpoint_text`] output,
    /// bit-identical to the serialized instance (including the low bits of
    /// the incrementally patched aggregate caches).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ParseCheckpoint`] with the offending 1-based
    /// line number for any structural or numeric problem, including values
    /// the mutations would never produce: an edge or node weight that is
    /// negative or not finite, and a degree or total weight that is not
    /// finite.
    pub fn from_checkpoint_text(text: &str) -> Result<Self, GraphError> {
        let err = |line: usize, reason: String| GraphError::ParseCheckpoint { line, reason };
        let mut lines = text.lines().enumerate();
        let mut expect = |keyword: &str| -> Result<(usize, String), GraphError> {
            let (lineno, raw) = lines
                .next()
                .ok_or_else(|| err(0, format!("unexpected end of input, expected `{keyword}`")))?;
            let rest = raw
                .strip_prefix(keyword)
                .ok_or_else(|| err(lineno + 1, format!("expected `{keyword}`, got `{raw}`")))?;
            Ok((lineno, rest.trim().to_string()))
        };
        let (lineno, version) = expect("dyngraph")?;
        if version != "v1" {
            return Err(err(lineno + 1, format!("unsupported checkpoint version `{version}`")));
        }
        let parse_usize = |lineno: usize, tok: &str| -> Result<usize, GraphError> {
            tok.parse::<usize>().map_err(|e| err(lineno + 1, format!("invalid count `{tok}`: {e}")))
        };
        let parse_bits = |lineno: usize, tok: &str| -> Result<f64, GraphError> {
            u64::from_str_radix(tok, 16)
                .map(f64::from_bits)
                .map_err(|e| err(lineno + 1, format!("invalid f64 bit pattern `{tok}`: {e}")))
        };
        let parse_vec = |lineno: usize, body: &str, n: usize| -> Result<Vec<f64>, GraphError> {
            let xs = body
                .split_whitespace()
                .map(|tok| parse_bits(lineno, tok))
                .collect::<Result<Vec<f64>, GraphError>>()?;
            if xs.len() != n {
                return Err(err(lineno + 1, format!("expected {n} values, got {}", xs.len())));
            }
            Ok(xs)
        };
        let check_finite = |lineno: usize, what: &str, xs: &[f64]| -> Result<(), GraphError> {
            match xs.iter().find(|x| !x.is_finite()) {
                Some(x) => Err(err(lineno + 1, format!("{what} {x} is not finite"))),
                None => Ok(()),
            }
        };
        let check_weight = |lineno: usize, what: &str, w: f64| -> Result<(), GraphError> {
            if !w.is_finite() || w < 0.0 {
                return Err(err(lineno + 1, format!("{what} {w} is negative or not finite")));
            }
            Ok(())
        };
        let (lineno, body) = expect("nodes")?;
        let n = parse_usize(lineno, &body)?;
        let (lineno, body) = expect("edges")?;
        let num_edges = parse_usize(lineno, &body)?;
        let (lineno, body) = expect("total_weight")?;
        let total_edge_weight = parse_bits(lineno, &body)?;
        check_finite(lineno, "total weight", &[total_edge_weight])?;
        let (lineno, body) = expect("degrees")?;
        let degrees = parse_vec(lineno, &body, n)?;
        check_finite(lineno, "degree", &degrees)?;
        let (lineno, body) = expect("node_weights")?;
        let node_weights = parse_vec(lineno, &body, n)?;
        for &w in &node_weights {
            check_weight(lineno, "node weight", w)?;
        }
        // The writer emits edges in ascending (u, v) order with u ≤ v, so
        // every entry lands at the end of its lists; any other order is still
        // accepted and placed by binary search.
        let mut adjacency: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        let mut parsed_edges = 0usize;
        loop {
            let (lineno, raw) = lines
                .next()
                .ok_or_else(|| err(0, "unexpected end of input, expected `end`".into()))?;
            if raw == "end" {
                break;
            }
            let toks: Vec<&str> = raw.split_whitespace().collect();
            let [kw, u, v, w] = toks.as_slice() else {
                return Err(err(lineno + 1, format!("expected `edge u v bits`, got `{raw}`")));
            };
            if *kw != "edge" {
                return Err(err(lineno + 1, format!("expected `edge`, got `{kw}`")));
            }
            let (u, v) = (parse_usize(lineno, u)?, parse_usize(lineno, v)?);
            let w = parse_bits(lineno, w)?;
            if u >= n || v >= n {
                return Err(err(
                    lineno + 1,
                    format!("edge ({u}, {v}) out of bounds for {n} nodes"),
                ));
            }
            check_weight(lineno, "edge weight", w)?;
            let Err(i) = position(&adjacency[u], v) else {
                return Err(err(lineno + 1, format!("duplicate edge ({u}, {v})")));
            };
            adjacency[u].insert(i, (v, w));
            if u != v {
                let j = position(&adjacency[v], u).expect_err("lists mirror each other");
                adjacency[v].insert(j, (u, w));
            }
            parsed_edges += 1;
        }
        if parsed_edges != num_edges {
            return Err(err(0, format!("header says {num_edges} edges, found {parsed_edges}")));
        }
        Ok(DynamicGraph {
            adjacency: adjacency.into_iter().map(NeighborList::from).collect(),
            degrees,
            node_weights,
            num_edges,
            total_edge_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quotient, GraphBuilder, Partition};
    use proptest::collection;
    use proptest::prelude::*;

    fn events() -> Vec<EdgeEvent> {
        vec![
            EdgeEvent::Add { u: 0, v: 1, weight: 1.0 },
            EdgeEvent::Add { u: 1, v: 2, weight: 2.0 },
            EdgeEvent::Add { u: 2, v: 2, weight: 0.5 },
            EdgeEvent::Update { u: 1, v: 2, weight: 3.0 },
            EdgeEvent::Remove { u: 0, v: 1 },
        ]
    }

    #[test]
    fn mutations_maintain_aggregates() {
        let mut g = DynamicGraph::new(3);
        g.apply_events(&events()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_edge_weight(), 3.5);
        assert_eq!(g.degree(0), 0.0);
        assert_eq!(g.degree(1), 3.0);
        // Self-loop counted twice: 3.0 (edge to 1) + 1.0 (2 × 0.5 loop).
        assert_eq!(g.degree(2), 4.0);
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn insert_merges_parallel_edges() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 0, 2.5).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_weight(1, 0), Some(3.5));
    }

    #[test]
    fn snapshot_matches_builder_rebuild() {
        let mut g = DynamicGraph::new(4);
        g.apply_events(&events()).unwrap();
        g.insert_edge(0, 3, 1.5).unwrap();
        let snap = g.snapshot();
        let mut b = GraphBuilder::new(4);
        for u in 0..g.num_nodes() {
            for (v, w) in g.neighbors(u) {
                if u <= v {
                    b.add_edge(u, v, w).unwrap();
                }
            }
        }
        let rebuilt = b.build();
        assert_eq!(snap, rebuilt);
        assert_eq!(snap.degrees(), g.degrees());
        assert_eq!(snap.total_edge_weight(), g.total_edge_weight());
        assert_eq!(snap.num_edges(), g.num_edges());
    }

    #[test]
    fn from_graph_round_trips() {
        let original = crate::generators::karate_club();
        let dynamic = DynamicGraph::from_graph(&original);
        assert_eq!(dynamic.snapshot(), original);
        assert_eq!(dynamic.degrees(), original.degrees());
    }

    #[test]
    fn node_weights_survive_the_round_trip() {
        // Coarsened (super-node) graphs carry non-unit node weights; they must
        // pass through from_graph → snapshot unchanged.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0).unwrap();
        b.set_node_weight(0, 4.0).unwrap();
        b.set_node_weight(2, 2.5).unwrap();
        let original = b.build();
        let mut dynamic = DynamicGraph::from_graph(&original);
        assert_eq!(dynamic.node_weight(0), 4.0);
        assert_eq!(dynamic.snapshot(), original);
        let id = dynamic.add_node();
        assert_eq!(dynamic.node_weight(id), 1.0);
        assert_eq!(dynamic.snapshot().node_weight(2), 2.5);
    }

    #[test]
    fn error_paths() {
        let mut g = DynamicGraph::new(2);
        assert!(matches!(g.insert_edge(0, 2, 1.0), Err(GraphError::NodeOutOfBounds { .. })));
        assert!(matches!(g.insert_edge(0, 1, -1.0), Err(GraphError::InvalidEdgeWeight { .. })));
        assert!(matches!(g.insert_edge(0, 1, f64::NAN), Err(GraphError::InvalidEdgeWeight { .. })));
        assert!(matches!(g.remove_edge(0, 1), Err(GraphError::EdgeNotFound { .. })));
        assert!(matches!(g.update_weight(0, 1, 2.0), Err(GraphError::EdgeNotFound { .. })));
        g.insert_edge(0, 1, 1.0).unwrap();
        assert!(matches!(
            g.update_weight(0, 1, f64::INFINITY),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
    }

    /// On every prefix of `events`, the check fails exactly where applying
    /// them one at a time to a copy first fails, with the same error (as
    /// `Debug` text: NaN is unequal to itself); `apply_events` applies all or
    /// leaves the checkpoint text as it was. Returns where the batch fails.
    fn assert_batch_check_agrees(graph: &DynamicGraph, events: &[EdgeEvent]) -> Result<(), usize> {
        let mut copy = graph.clone();
        let mut failed = None;
        for end in 0..=events.len() {
            let checked =
                graph.check_events(&events[..end]).map_err(|(i, e)| (i, format!("{e:?}")));
            assert_eq!(checked, failed.clone().map_or(Ok(()), Err), "{:?}", &events[..end]);
            if let (None, Some(event)) = (&failed, events.get(end)) {
                failed = copy.apply(event).err().map(|e| (end, format!("{e:?}")));
            }
        }
        let mut batched = graph.clone();
        let outcome = batched.apply_events(events);
        let expected = if outcome.is_ok() { &copy } else { graph };
        assert_eq!(batched.to_checkpoint_text(), expected.to_checkpoint_text(), "{events:?}");
        outcome.map_err(|(i, _)| i)
    }

    /// How the check tracks the batch's own earlier events, on batches
    /// applied in turn to the karate club.
    #[test]
    fn batch_check_tracks_intra_batch_state() {
        let mut g = DynamicGraph::from_graph(&crate::generators::karate_club());
        let add = |u, v| EdgeEvent::Add { u, v, weight: 1.0 };
        let (rm, del) = (|u, v| EdgeEvent::Remove { u, v }, |u| EdgeEvent::RemoveNode { u });
        let upd = |u, v| EdgeEvent::Update { u, v, weight: 0.5 };
        for (events, expected) in [
            (vec![rm(0, 1), rm(0, 1)], Err(1)),
            (vec![add(0, 20), upd(0, 20), rm(0, 20)], Ok(())),
            // A deletion removes the edges the batch added before it...
            (vec![add(0, 20), del(0), upd(0, 20)], Err(2)),
            // ... and a re-add after it is valid.
            (vec![del(0), add(0, 20), upd(0, 20)], Ok(())),
            (vec![EdgeEvent::Add { u: 0, v: 1, weight: f64::NAN }], Err(0)),
            (vec![del(99)], Err(0)),
        ] {
            assert_eq!(assert_batch_check_agrees(&g, &events), expected, "{events:?}");
            let _ = g.apply_events(&events);
        }
    }

    #[test]
    fn add_node_grows_the_graph() {
        let mut g = DynamicGraph::new(1);
        let id = g.add_node();
        assert_eq!(id, 1);
        g.insert_edge(0, 1, 2.0).unwrap();
        assert_eq!(g.snapshot().num_nodes(), 2);
        assert_eq!(g.degree(1), 2.0);
    }

    #[test]
    fn update_to_zero_keeps_the_edge() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(0, 1, 2.0).unwrap();
        let delta = g.update_weight(0, 1, 0.0).unwrap();
        assert_eq!(delta, -2.0);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_edge_weight(), 0.0);
    }

    #[test]
    fn empty_snapshot() {
        let g = DynamicGraph::new(0);
        let snap = g.snapshot();
        assert_eq!(snap.num_nodes(), 0);
        assert_eq!(snap.num_edges(), 0);
    }

    #[test]
    fn remove_node_clears_incident_edges_and_keeps_the_id() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(0, 2, 2.0).unwrap();
        g.insert_edge(0, 0, 0.5).unwrap(); // self-loop
        g.insert_edge(1, 2, 4.0).unwrap();
        let removed = g.remove_node(0).unwrap();
        assert_eq!(removed, vec![(0, 0.5), (1, 1.0), (2, 2.0)]);
        assert_eq!(g.num_nodes(), 4, "deleted node stays as a tombstone");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 0.0);
        assert_eq!(g.total_edge_weight(), 4.0);
        assert!(!g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
        // The id remains usable afterwards.
        g.insert_edge(0, 3, 1.0).unwrap();
        assert_eq!(g.degree(0), 1.0);
    }

    #[test]
    fn remove_node_event_reports_the_summed_delta() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, 1.5).unwrap();
        g.insert_edge(0, 2, 2.0).unwrap();
        let delta = g.apply(&EdgeEvent::RemoveNode { u: 0 }).unwrap();
        assert_eq!(delta, -3.5);
        assert_eq!(g.num_edges(), 0);
        // Deleting an isolated node is a no-op with delta 0.
        assert_eq!(g.apply(&EdgeEvent::RemoveNode { u: 0 }).unwrap(), 0.0);
        assert!(matches!(g.remove_node(7), Err(GraphError::NodeOutOfBounds { .. })));
        assert_eq!(EdgeEvent::RemoveNode { u: 2 }.endpoints(), (2, 2));
    }

    #[test]
    fn checkpoint_text_round_trips_bit_exactly() {
        let mut g = DynamicGraph::new(4);
        g.apply_events(&events()).unwrap();
        g.insert_edge(0, 3, 0.1).unwrap();
        // Churn that leaves low-bit residue in the patched aggregates: the
        // caches are *not* equal to a fresh summation, and the checkpoint must
        // preserve them verbatim.
        for _ in 0..7 {
            g.insert_edge(0, 3, 0.1).unwrap();
        }
        g.update_weight(0, 3, 0.3).unwrap();
        let text = g.to_checkpoint_text();
        let back = DynamicGraph::from_checkpoint_text(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.total_edge_weight().to_bits(), g.total_edge_weight().to_bits());
        for u in 0..g.num_nodes() {
            assert_eq!(back.degree(u).to_bits(), g.degree(u).to_bits());
        }
        // Stability: serialization is a pure function of the state.
        assert_eq!(back.to_checkpoint_text(), text);
        // Empty graphs round-trip too.
        let empty = DynamicGraph::new(0);
        assert_eq!(DynamicGraph::from_checkpoint_text(&empty.to_checkpoint_text()).unwrap(), empty);
    }

    /// The line a checkpoint parse error names.
    fn line_of(text: &str) -> usize {
        match DynamicGraph::from_checkpoint_text(text).unwrap_err() {
            GraphError::ParseCheckpoint { line, .. } => line,
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn checkpoint_parse_rejects_malformed_input() {
        assert_eq!(line_of("not-a-checkpoint\n"), 1);
        assert_eq!(line_of("dyngraph v9\n"), 1);
        assert_eq!(line_of("dyngraph v1\nnodes x\n"), 2);
        let header = "dyngraph v1\nnodes 2\nedges 0\ntotal_weight 0000000000000000\n";
        assert_eq!(line_of(&format!("{header}degrees 0000000000000000\n")), 5); // wrong arity
        let full = format!(
            "{header}degrees 0000000000000000 0000000000000000\n\
             node_weights 3ff0000000000000 3ff0000000000000\n"
        );
        assert_eq!(line_of(&full), 0); // truncated before `end`
        assert_eq!(line_of(&format!("{full}edge 0 5 3ff0000000000000\nend\n")), 7); // out of bounds
        assert_eq!(line_of(&format!("{full}garbage\nend\n")), 7);
        // Edge-count mismatch between header and body.
        assert_eq!(line_of(&format!("{full}edge 0 1 3ff0000000000000\nend\n")), 0);
        let dup = format!("{full}edge 0 1 3ff0000000000000\nedge 0 1 3ff0000000000000\nend\n");
        assert_eq!(line_of(&dup), 8);
    }

    #[test]
    fn checkpoint_parse_rejects_values_the_mutations_never_produce() {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let checkpoint = |total: f64, degree: f64, node_weight: f64, edge: f64| {
            format!(
                "dyngraph v1\nnodes 2\nedges 1\ntotal_weight {}\ndegrees {} {}\n\
                 node_weights {} {}\nedge 0 1 {}\nend\n",
                bits(total),
                bits(degree),
                bits(1.0),
                bits(node_weight),
                bits(1.0),
                bits(edge),
            )
        };
        assert!(DynamicGraph::from_checkpoint_text(&checkpoint(1.0, 1.0, 1.0, 1.0)).is_ok());
        // Patched degrees can round below zero, so only non-finite ones fail.
        assert!(DynamicGraph::from_checkpoint_text(&checkpoint(1.0, -1e-17, 1.0, 1.0)).is_ok());
        assert_eq!(line_of(&checkpoint(f64::NAN, 1.0, 1.0, 1.0)), 4);
        assert_eq!(line_of(&checkpoint(1.0, f64::INFINITY, 1.0, 1.0)), 5);
        assert_eq!(line_of(&checkpoint(1.0, 1.0, f64::NAN, 1.0)), 6);
        assert_eq!(line_of(&checkpoint(1.0, 1.0, -1.0, 1.0)), 6);
        assert_eq!(line_of(&checkpoint(1.0, 1.0, 1.0, f64::NAN)), 7);
        assert_eq!(line_of(&checkpoint(1.0, 1.0, 1.0, -1.0)), 7);
        assert_eq!(line_of(&checkpoint(1.0, 1.0, 1.0, f64::NEG_INFINITY)), 7);
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_unchanged() {
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (8, 9)] {
            b.add_edge(u, v, 1.0 + u as f64 / 8.0).unwrap();
        }
        b.add_edge(2, 2, 0.5).unwrap();
        let mut original = DynamicGraph::from_graph(&b.build());
        let original_text = original.to_checkpoint_text();
        let mut copy = original.clone();
        let shared = |a: &DynamicGraph, b: &DynamicGraph, u: NodeId| {
            Arc::ptr_eq(&a.adjacency[u], &b.adjacency[u])
        };
        assert!((0..10).all(|u| shared(&original, &copy, u)), "a clone copies no list");
        copy.apply_events(&[
            EdgeEvent::Add { u: 0, v: 4, weight: 2.0 },
            EdgeEvent::Add { u: 2, v: 2, weight: 0.25 },
            EdgeEvent::Update { u: 1, v: 2, weight: 3.0 },
            EdgeEvent::Remove { u: 3, v: 4 },
            EdgeEvent::RemoveNode { u: 6 },
        ])
        .unwrap();
        copy.add_node();
        assert_eq!(original.to_checkpoint_text(), original_text);
        assert_ne!(copy.to_checkpoint_text(), original_text);
        // Only the lists of the touched nodes (6's neighbours 5 and 7
        // included) were copied.
        assert!((0..8).all(|u| !shared(&original, &copy, u)));
        assert!(shared(&original, &copy, 8) && shared(&original, &copy, 9));
        // The other direction: the original's mutations leave the clone alone.
        let copy_text = copy.to_checkpoint_text();
        original.remove_node(8).unwrap();
        original.update_weight(2, 2, 4.0).unwrap();
        assert_eq!(copy.to_checkpoint_text(), copy_text);
        assert!(!shared(&original, &copy, 9));
    }

    /// The per-edge insert loop that `from_graph` ran before it copied rows in
    /// bulk.
    fn insert_per_edge(graph: &Graph) -> DynamicGraph {
        let mut dynamic = DynamicGraph::new(graph.num_nodes());
        dynamic.node_weights.copy_from_slice(graph.node_weights());
        for (u, v, w) in graph.edges() {
            dynamic.insert_edge(u, v, w).unwrap();
        }
        dynamic
    }

    /// Every list, then the degrees, the node weights, the edge count and the
    /// total weight, with each `f64` as its bits.
    type Bits = (Vec<Vec<(NodeId, u64)>>, Vec<u64>, Vec<u64>, usize, u64);

    fn bits(g: &DynamicGraph) -> Bits {
        let words = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (
            g.adjacency
                .iter()
                .map(|list| list.iter().map(|&(v, w)| (v, w.to_bits())).collect())
                .collect(),
            words(&g.degrees),
            words(&g.node_weights),
            g.num_edges,
            g.total_edge_weight.to_bits(),
        )
    }

    /// A snapshot of a churned graph carries the patched total weight, whose
    /// low bits differ from a fresh sum, and `−0.0` weights, which the insert
    /// loop stores as `+0.0`; `from_graph` must re-derive both as it does.
    #[test]
    fn from_graph_matches_the_insert_loop_on_a_churned_snapshot() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(1, 1, 2.0).unwrap();
        g.insert_edge(2, 3, 0.5).unwrap();
        for _ in 0..7 {
            g.insert_edge(0, 3, 0.1).unwrap();
        }
        g.update_weight(0, 3, 0.3).unwrap();
        g.insert_edge(0, 1, 1.0).unwrap();
        g.update_weight(0, 1, -0.0).unwrap();
        g.update_weight(1, 1, -0.0).unwrap();
        let csr = g.snapshot();
        let fresh = insert_per_edge(&csr);
        assert_ne!(fresh.total_edge_weight().to_bits(), csr.total_edge_weight().to_bits());
        assert_eq!(bits(&DynamicGraph::from_graph(&csr)), bits(&fresh));
    }

    /// `GraphBuilder` graphs whose merged weights depend on the order of
    /// addition (parallel edges, 1e16 beside small reals, zero weights), with
    /// self-loops, non-unit node weights and isolated nodes, and a partition
    /// to coarsen each one by.
    fn builder_graph_and_partition() -> impl Strategy<Value = (Graph, Partition)> {
        let edge = (0usize..40, 0usize..40, 0usize..5);
        (1usize..40, collection::vec(edge, 0..160), collection::vec(0usize..6, 40)).prop_map(
            |(n, raw, labels)| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in raw {
                    let w = match w {
                        0 => 1e16,
                        1 => 0.1 * (u + 1) as f64,
                        2 => v as f64 / 3.0,
                        3 => 0.0,
                        _ => 1.0,
                    };
                    b.add_edge(u % n, v % n, w).unwrap();
                }
                for (u, &label) in labels[..n].iter().enumerate() {
                    b.set_node_weight(u, 0.5 + label as f64).unwrap();
                }
                (b.build(), Partition::from_labels(labels[..n].to_vec()).unwrap())
            },
        )
    }

    /// A graph on 2–8 nodes and a batch of all four event kinds over ids up
    /// to one past the last node, weights NaN, ∞ and −1 among them. A drawn
    /// event that would fail is kept one time in eight, so batches run long
    /// and fail anywhere: removals of removed edges, updates after a node
    /// deletion, while re-adds after a deletion pass.
    fn graph_and_batch() -> impl Strategy<Value = (DynamicGraph, Vec<EdgeEvent>)> {
        let edge = (0usize..8, 0usize..8, 0usize..4);
        let event = ((0usize..4, 0usize..9), (0usize..9, 0usize..10, 0usize..8));
        (2usize..9, collection::vec(edge, 0..16), collection::vec(event, 0..32)).prop_map(
            |(n, edges, draws)| {
                let mut graph = DynamicGraph::new(n);
                for (u, v, w) in edges {
                    graph.insert_edge(u % n, v % n, 0.5 * w as f64).unwrap();
                }
                let mut shadow = graph.clone();
                let mut events = Vec::new();
                for ((kind, u), (v, w, keep)) in draws {
                    let (u, v) = (u % (n + 1), v % (n + 1));
                    let weight =
                        [f64::NAN, f64::INFINITY, -1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0][w];
                    let event = match kind {
                        0 => EdgeEvent::Add { u, v, weight },
                        1 => EdgeEvent::Remove { u, v },
                        2 => EdgeEvent::Update { u, v, weight },
                        _ => EdgeEvent::RemoveNode { u },
                    };
                    if shadow.apply(&event).is_ok() || keep == 0 {
                        events.push(event);
                    }
                }
                (graph, events)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The batch check agrees with the mutations on every prefix of the
        /// batch, and a failing batch leaves the graph untouched.
        #[test]
        fn batch_check_agrees_with_applying_one_event_at_a_time(
            (graph, events) in graph_and_batch(),
        ) {
            let _ = assert_batch_check_agrees(&graph, &events);
        }

        /// Bulk row copies give the bits of the per-edge insert loop, on
        /// builder graphs and on their coarsened quotient graphs.
        #[test]
        fn from_graph_is_bit_equal_to_the_insert_loop(
            (graph, partition) in builder_graph_and_partition(),
        ) {
            prop_assert_eq!(bits(&DynamicGraph::from_graph(&graph)), bits(&insert_per_edge(&graph)));
            let coarse = quotient::aggregate(&graph, &partition).unwrap().graph;
            prop_assert_eq!(bits(&DynamicGraph::from_graph(&coarse)), bits(&insert_per_edge(&coarse)));
        }
    }
}
