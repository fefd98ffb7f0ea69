//! Quality functions (Newman–Girvan modularity, CPM), single-move gains and
//! the community bookkeeping every refinement runs on.
//!
//! Modularity of a partition `P` of an undirected weighted graph is
//!
//! ```text
//! Q = 1/(2m) * Σ_{i,j} (A_ij − γ d_i d_j / (2m)) δ(c_i, c_j)
//! ```
//!
//! where `m` is the total edge weight, `d_i` the weighted degree of node `i`,
//! `γ` the resolution parameter and `δ` the Kronecker delta (Eq. 1 of the
//! paper, generalized with the standard resolution parameter). The constant
//! Potts model (CPM) replaces the degree-product null model with a constant:
//!
//! ```text
//! Q_cpm = Σ_c [ e_c − γ · n_c (n_c − 1) / 2 ]
//! ```
//!
//! with `e_c` the internal edge weight and `n_c` the node count of community
//! `c`. Both are instances of [`QualityFunction`].
//!
//! [`ModularityState`] is the one place that keeps a partition's community
//! bookkeeping: the labels, the per-community aggregate (`Σtot` degree sums,
//! or carried node counts under CPM) and the internal weights `Σin`. It is
//! built from either graph type through [`GraphView`], prices and applies
//! single-node moves through [`NeighborScan`] in O(deg), patches edge-weight
//! changes in O(1), and reports the quality from its aggregates in O(k).
//! [`quality`] computes through it; [`quality_dense`] sums the definition over
//! all node pairs in O(n²) and serves as the tests' oracle.

use crate::{DynamicGraph, Graph, NodeId, Partition};

/// Dimensionless move-acceptance threshold shared by every best-move scan: a
/// candidate move is applied only if its gain exceeds the threshold returned
/// by [`QualityFunction::move_tolerance`], which scales this constant to the
/// gain units of the quality function in use.
pub const MOVE_EPSILON: f64 = 1e-12;

/// The quality function optimized by the refinement, multilevel and streaming
/// paths.
///
/// * [`QualityFunction::Modularity`] — Newman–Girvan modularity with a
///   resolution parameter `γ` (`resolution = 1.0` is the classical paper
///   objective). Larger `γ` favours more, smaller communities.
/// * [`QualityFunction::Cpm`] — the constant Potts model: internal edge
///   weight minus `γ` per internal node pair. Unlike modularity its gains do
///   not depend on the degree distribution, which frees it from the
///   resolution limit.
///
/// The per-community aggregate [`ModularityState`] maintains is
/// quality-dependent: the degree sum `Σtot_c` for modularity, the carried node
/// count `n_c` for CPM — uniformly, a sum of [`QualityFunction::node_factor`]
/// over members.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityFunction {
    /// Newman–Girvan modularity with resolution `γ`; `γ = 1` is classical.
    Modularity {
        /// Resolution parameter `γ` multiplying the degree-product null model.
        resolution: f64,
    },
    /// Constant Potts model: `Σ_c [e_c − γ n_c (n_c − 1)/2]`.
    Cpm {
        /// Resolution parameter `γ`: the cost per internal node pair.
        resolution: f64,
    },
}

impl Default for QualityFunction {
    /// Classical unit-resolution modularity — the paper's objective.
    fn default() -> Self {
        QualityFunction::Modularity { resolution: 1.0 }
    }
}

impl QualityFunction {
    /// Resolution-`γ` modularity.
    pub fn modularity(resolution: f64) -> Self {
        QualityFunction::Modularity { resolution }
    }

    /// Resolution-`γ` constant Potts model.
    pub fn cpm(resolution: f64) -> Self {
        QualityFunction::Cpm { resolution }
    }

    /// The resolution parameter `γ`.
    pub fn resolution(&self) -> f64 {
        match *self {
            QualityFunction::Modularity { resolution } => resolution,
            QualityFunction::Cpm { resolution } => resolution,
        }
    }

    /// Checks that the resolution is finite and non-negative, the range on
    /// which both quality functions are defined. Every configuration that
    /// carries a quality function calls this before it is used.
    ///
    /// # Errors
    ///
    /// Returns the reason, ready for the caller's configuration error, if `γ`
    /// is NaN, infinite or negative.
    pub fn validate(&self) -> Result<(), String> {
        let resolution = self.resolution();
        if resolution.is_finite() && resolution >= 0.0 {
            Ok(())
        } else {
            Err(format!("resolution must be finite and non-negative, got {resolution}"))
        }
    }

    /// A node's contribution to its community's aggregate: the weighted
    /// degree under modularity (`Σtot_c`), and under CPM the **carried node
    /// count** `node_weight` — 1 for an original node, the number of original
    /// nodes a super-node stands for on the coarse levels of the multilevel
    /// hierarchy and the Louvain aggregation, which makes the coarse-level
    /// null term `γ n_c (n_c − 1)/2` exact.
    #[inline]
    pub fn node_factor(&self, degree: f64, node_weight: f64) -> f64 {
        match self {
            QualityFunction::Modularity { .. } => degree,
            QualityFunction::Cpm { .. } => node_weight,
        }
    }

    /// The move-acceptance threshold, scaled from [`MOVE_EPSILON`] to the gain
    /// units of this quality function so refinement decisions are invariant
    /// under uniform edge-weight rescaling.
    ///
    /// Modularity gains are dimensionless — both terms of
    /// [`QualityFunction::gain`] are ratios of edge weights, so rescaling
    /// every weight by `s` leaves them unchanged — and [`MOVE_EPSILON`]
    /// applies directly. CPM gains carry edge-weight units (the leading term
    /// is a raw weight difference), so the threshold is scaled by `2m`;
    /// otherwise an absolute cutoff would silently reject every true positive
    /// gain on a graph whose weights are uniformly tiny.
    #[inline]
    pub fn move_tolerance(&self, two_m: f64) -> f64 {
        match self {
            QualityFunction::Modularity { .. } => MOVE_EPSILON,
            QualityFunction::Cpm { .. } => MOVE_EPSILON * two_m,
        }
    }

    /// The single-node move gain of this quality function, expressed purely in
    /// scalars. `two_m = 2m` is the doubled total edge weight, `f` the node's
    /// [`QualityFunction::node_factor`], `k_i_cur` / `k_i_target` its edge
    /// weight into the current and target community (self-loops excluded),
    /// and `agg_cur` / `agg_target` the two communities' aggregates, the
    /// current one still counting the node. For modularity (`f = d_i`):
    ///
    /// ```text
    /// ΔQ = (k_{i,target} − k_{i,cur\{i\}}) / m  −  γ d_i (Σtot_target − (Σtot_cur − d_i)) / (2 m²)
    /// ```
    ///
    /// For CPM (`f = w`, the node's carried node count), expanding
    /// `n (n − 1)/2` before and after the move gives exactly
    ///
    /// ```text
    /// ΔQ = (k_{i,target} − k_{i,cur\{i\}})  −  γ w (n_target − (n_cur − w))
    /// ```
    ///
    /// This is the **single source of truth** for the gain arithmetic: every
    /// move [`ModularityState`] prices — in the static refinement, the
    /// Louvain baseline and the streaming detector — goes through it. At
    /// `γ = 1` the modularity branch is bit-identical to the classical
    /// formula (the resolution factor multiplies the exact original
    /// sub-expression).
    #[inline]
    pub fn gain(
        &self,
        two_m: f64,
        node_factor: f64,
        k_i_cur: f64,
        k_i_target: f64,
        agg_cur: f64,
        agg_target: f64,
    ) -> f64 {
        let f = node_factor;
        match *self {
            QualityFunction::Modularity { resolution } => {
                let m = two_m / 2.0;
                (k_i_target - k_i_cur) / m
                    - resolution * (f * (agg_target - (agg_cur - f)) / (2.0 * m * m))
            }
            QualityFunction::Cpm { resolution } => {
                (k_i_target - k_i_cur) - resolution * (f * (agg_target - (agg_cur - f)))
            }
        }
    }
}

/// The read-only view of an undirected weighted graph that
/// [`ModularityState`] works on. [`Graph`] (static detection) and
/// [`DynamicGraph`] (the streaming detector) both implement it, so both keep
/// their community bookkeeping in the same type. Conventions are the graphs'
/// own: a self-loop of weight `w` appears once in its node's neighbours and
/// counts `2w` in its degree, and the total edge weight counts it once.
pub trait GraphView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Total edge weight `m`.
    fn total_edge_weight(&self) -> f64;
    /// Weighted degree of `node`.
    fn degree(&self, node: NodeId) -> f64;
    /// Number of original nodes `node` stands for (1.0 on uncoarsened graphs).
    fn node_weight(&self, node: NodeId) -> f64;
    /// The `(neighbour, weight)` pairs of `node` in ascending neighbour order.
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_;
}

impl GraphView for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }
    fn total_edge_weight(&self) -> f64 {
        Graph::total_edge_weight(self)
    }
    fn degree(&self, node: NodeId) -> f64 {
        Graph::degree(self, node)
    }
    fn node_weight(&self, node: NodeId) -> f64 {
        Graph::node_weight(self, node)
    }
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        Graph::neighbors(self, node)
    }
}

impl GraphView for DynamicGraph {
    fn num_nodes(&self) -> usize {
        DynamicGraph::num_nodes(self)
    }
    fn total_edge_weight(&self) -> f64 {
        DynamicGraph::total_edge_weight(self)
    }
    fn degree(&self, node: NodeId) -> f64 {
        DynamicGraph::degree(self, node)
    }
    fn node_weight(&self, node: NodeId) -> f64 {
        DynamicGraph::node_weight(self, node)
    }
    fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        DynamicGraph::neighbors(self, node)
    }
}

/// Value of `quality_fn` for `partition` on `graph`, computed in `O(m + n)`
/// from the community-aggregated form (for modularity,
/// `Q = Σ_c [ Σin_c/(2m) − γ (Σtot_c/(2m))² ]`; for CPM,
/// `Q = Σ_c [ Σin_c/2 − γ n_c (n_c − 1)/2 ]`) by building a
/// [`ModularityState`] and reading [`ModularityState::quality`].
///
/// Returns 0.0 for graphs with zero total edge weight, for every quality
/// function.
///
/// # Panics
///
/// Panics if the partition has fewer labels than the graph has nodes.
pub fn quality(graph: &Graph, partition: &Partition, quality_fn: QualityFunction) -> f64 {
    if graph.total_edge_weight() <= 0.0 {
        return 0.0;
    }
    ModularityState::new(graph, partition, quality_fn).quality(graph)
}

/// Modularity of `partition` on `graph` — [`quality`] at the default
/// unit-resolution [`QualityFunction::Modularity`], kept as the stable entry
/// point.
///
/// # Panics
///
/// Panics if the partition has fewer labels than the graph has nodes.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{generators, Partition, modularity};
///
/// let g = generators::karate_club();
/// // The well-known four-community split of the karate club has Q ≈ 0.41.
/// let p = generators::karate_club_communities();
/// let q = modularity::modularity(&g, &p);
/// assert!(q > 0.40 && q < 0.43);
/// ```
pub fn modularity(graph: &Graph, partition: &Partition) -> f64 {
    quality(graph, partition, QualityFunction::default())
}

/// Value of `quality_fn` computed directly from the definition by summing over
/// all node pairs. `O(n²)`; the oracle the tests hold [`quality`] to.
///
/// # Panics
///
/// Panics if the partition has fewer labels than the graph has nodes.
pub fn quality_dense(graph: &Graph, partition: &Partition, quality_fn: QualityFunction) -> f64 {
    let two_m = 2.0 * graph.total_edge_weight();
    if two_m <= 0.0 {
        return 0.0;
    }
    let n = graph.num_nodes();
    let mut q = 0.0;
    match quality_fn {
        QualityFunction::Modularity { resolution } => {
            for i in 0..n {
                for j in 0..n {
                    if partition.community_of(i) != partition.community_of(j) {
                        continue;
                    }
                    let a_ij = adjacency_entry(graph, i, j);
                    q += a_ij - resolution * (graph.degree(i) * graph.degree(j) / two_m);
                }
            }
            q / two_m
        }
        QualityFunction::Cpm { resolution } => {
            // With super-node weights `w_i` (carried node counts), the exact
            // null term of a community is γ N (N − 1)/2 with N = Σ w_i: split
            // over node pairs that is γ w_i w_j per off-diagonal ordered pair
            // plus γ w_i (w_i − 1) per diagonal entry. At unit weights this
            // reduces bit-identically to γ per off-diagonal pair.
            for i in 0..n {
                let w_i = graph.node_weight(i);
                for j in 0..n {
                    if partition.community_of(i) != partition.community_of(j) {
                        continue;
                    }
                    let a_ij = adjacency_entry(graph, i, j);
                    let null = if i != j { w_i * graph.node_weight(j) } else { w_i * (w_i - 1.0) };
                    q += a_ij - resolution * null;
                }
            }
            q / 2.0
        }
    }
}

/// Entry `A_ij` of the (symmetric) adjacency matrix, with the convention that a
/// self-loop of weight `w` contributes `A_ii = 2w` so that `d_i = Σ_j A_ij`.
fn adjacency_entry(graph: &Graph, i: usize, j: usize) -> f64 {
    match graph.edge_weight(i, j) {
        Some(w) if i == j => 2.0 * w,
        Some(w) => w,
        None => 0.0,
    }
}

/// Reusable scratch for the deterministic one-pass best-move scan.
///
/// One pass over a node's adjacency accumulates its edge weight into every
/// neighbouring community (`weight`, valid where `stamp` matches the current
/// visit), records candidate communities in **first-seen neighbour order**
/// and notes the node's self-loop weight; [`ModularityState`] then prices the
/// candidates in that same order from the accumulated weights and, when it
/// applies the move, patches `Σin` from the same weights. This replaces
/// per-candidate neighbourhood re-scans — O(deg²) on hubs — with
/// O(deg + candidates). The strictly best positive gain wins, and an exact
/// tie keeps the first candidate seen. For a deterministic neighbour order
/// the decision is reproducible bit for bit.
#[derive(Debug, Clone, Default)]
pub struct NeighborScan {
    /// Visit stamp per community slot; `weight[c]` is valid iff
    /// `stamp[c] == visit`.
    stamp: Vec<u64>,
    /// Accumulated node→community edge weight for the current node.
    weight: Vec<f64>,
    /// Candidate communities of the current node, in first-seen order.
    candidates: Vec<usize>,
    visit: u64,
    /// The current node's self-loop weight (0.0 without one).
    self_loop: f64,
}

impl NeighborScan {
    /// Creates an empty scan; scratch grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `node`'s edge weight into each neighbouring community under
    /// `labels` (every label below `slots`), in neighbour order.
    fn gather(
        &mut self,
        node: usize,
        neighbors: impl Iterator<Item = (usize, f64)>,
        labels: &[usize],
        slots: usize,
    ) {
        let cur = labels[node];
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
            self.weight.resize(slots, 0.0);
        }
        self.visit += 1;
        let visit = self.visit;
        self.candidates.clear();
        self.self_loop = 0.0;
        for (v, w) in neighbors {
            if v == node {
                self.self_loop = w;
                continue;
            }
            let c = labels[v];
            if self.stamp[c] != visit {
                self.stamp[c] = visit;
                self.weight[c] = 0.0;
                if c != cur {
                    self.candidates.push(c);
                }
            }
            self.weight[c] += w;
        }
    }

    /// The last gathered node's edge weight into community `c` (0.0 if no
    /// neighbour is in it).
    fn weight_to(&self, c: usize) -> f64 {
        if self.stamp.get(c) == Some(&self.visit) {
            self.weight[c]
        } else {
            0.0
        }
    }
}

/// The community bookkeeping of a partition under one quality function: the
/// label of every node, the per-community aggregate (`Σtot_c` degree sums
/// for modularity, carried node counts for CPM) and the per-community
/// internal weights `Σin_c` (the sum of `A_ij` over ordered in-community
/// pairs, a self-loop of weight `w` counting `A_ii = 2w`).
///
/// Static refinement builds one per call; the streaming detector keeps one
/// alive across batches and patches it per edge event
/// ([`ModularityState::patch_edge`]) and per move, so its quality
/// ([`ModularityState::quality`]) never needs a graph traversal. The state
/// holds no graph: every method that needs one takes the graph the state
/// tracks, as a [`GraphView`], and reads the current total edge weight from
/// it.
///
/// # Community-slot contract
///
/// The state tracks a fixed number of community slots, some of which may be
/// empty after moves. Pricing a move with [`ModularityState::gain`] treats a
/// target beyond the tracked range as an empty community with aggregate 0,
/// and [`ModularityState::apply_move`] into such a slot grows the slot vectors
/// on demand (intermediate slots start empty), so pricing always agrees with
/// applying.
#[derive(Debug, Clone)]
pub struct ModularityState {
    /// Current community per node.
    labels: Vec<usize>,
    /// Per-community aggregate: total degree under modularity, carried node
    /// count under CPM.
    sigma_tot: Vec<f64>,
    /// Per-community internal weight (ordered-pair convention).
    sigma_in: Vec<f64>,
    quality_fn: QualityFunction,
}

impl ModularityState {
    /// Builds the state of `partition` on `graph` under `quality_fn`, summing
    /// the aggregates node by node in ascending order in one pass over the
    /// adjacency.
    ///
    /// The partition is renumbered internally; use [`ModularityState::labels`]
    /// to read the current assignment back.
    ///
    /// # Panics
    ///
    /// Panics if the partition has fewer labels than the graph has nodes.
    pub fn new(graph: &impl GraphView, partition: &Partition, quality_fn: QualityFunction) -> Self {
        let labels = partition.renumbered().labels().to_vec();
        let k = labels.iter().max().map_or(1, |&c| c + 1);
        let mut sigma_tot = vec![0.0; k];
        let mut sigma_in = vec![0.0; k];
        for u in 0..graph.num_nodes() {
            let cu = labels[u];
            sigma_tot[cu] += quality_fn.node_factor(graph.degree(u), graph.node_weight(u));
            for (v, w) in graph.neighbors(u) {
                if labels[v] == cu {
                    // Each undirected edge (u, v) with u != v is visited twice
                    // (once from each endpoint), matching the ordered-pair
                    // sum. A self-loop is visited once but must contribute
                    // A_ii = 2w, consistent with d_i = Σ_j A_ij.
                    sigma_in[cu] += if u == v { 2.0 * w } else { w };
                }
            }
        }
        ModularityState { labels, sigma_tot, sigma_in, quality_fn }
    }

    /// Reassembles a state from its parts verbatim — labels, aggregates and
    /// internal weights as a checkpoint recorded them — without recomputing
    /// any float. Returns `None` unless both vectors have one entry per
    /// community slot and every label indexes a slot.
    pub fn from_parts(
        labels: Vec<usize>,
        sigma_tot: Vec<f64>,
        sigma_in: Vec<f64>,
        quality_fn: QualityFunction,
    ) -> Option<Self> {
        let consistent =
            sigma_tot.len() == sigma_in.len() && labels.iter().all(|&c| c < sigma_tot.len());
        consistent.then_some(ModularityState { labels, sigma_tot, sigma_in, quality_fn })
    }

    /// Current community labels (renumbered at construction time; moves may
    /// leave slots empty).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Current community of `node`.
    pub fn community_of(&self, node: usize) -> usize {
        self.labels[node]
    }

    /// Number of community slots tracked (may include emptied communities).
    pub fn num_community_slots(&self) -> usize {
        self.sigma_tot.len()
    }

    /// The per-community aggregates (indexed by community slot): degree sums
    /// `Σtot_c` under modularity, carried node counts under CPM.
    pub fn sigma_tot(&self) -> &[f64] {
        &self.sigma_tot
    }

    /// The per-community internal weights `Σin_c` (indexed by community slot).
    pub fn sigma_in(&self) -> &[f64] {
        &self.sigma_in
    }

    /// The quality function this state evaluates gains for.
    pub fn quality_function(&self) -> QualityFunction {
        self.quality_fn
    }

    /// The value of the quality function, in O(k) from the aggregates:
    /// `Σ_c [ Σin_c/(2m) − γ (Σtot_c/(2m))² ]` for modularity and
    /// `Σ_c [ Σin_c/2 − γ n_c (n_c − 1)/2 ]` for CPM, summed over the slots in
    /// ascending order. 0.0 when `graph` has no edge weight.
    pub fn quality(&self, graph: &impl GraphView) -> f64 {
        let two_m = 2.0 * graph.total_edge_weight();
        if two_m <= 0.0 {
            return 0.0;
        }
        let mut q = 0.0;
        match self.quality_fn {
            QualityFunction::Modularity { resolution } => {
                for (&sigma_in, &sigma_tot) in self.sigma_in.iter().zip(&self.sigma_tot) {
                    q += sigma_in / two_m - resolution * (sigma_tot / two_m).powi(2);
                }
            }
            QualityFunction::Cpm { resolution } => {
                for (&sigma_in, &n_c) in self.sigma_in.iter().zip(&self.sigma_tot) {
                    q += sigma_in / 2.0 - resolution * (n_c * (n_c - 1.0) / 2.0);
                }
            }
        }
        q
    }

    /// `node`'s contribution to its community's aggregate.
    fn node_factor(&self, graph: &impl GraphView, node: usize) -> f64 {
        self.quality_fn.node_factor(graph.degree(node), graph.node_weight(node))
    }

    /// Quality gain of moving `node` from its current community to `target`,
    /// priced by its own scan of the node's neighbourhood — the per-candidate
    /// form the one-pass [`ModularityState::best_move`] is tested against.
    ///
    /// Returns 0.0 if `target` equals the node's current community or the
    /// graph has no edge weight. A target beyond the tracked slots is priced
    /// as an empty community (see the community-slot contract in the type
    /// docs).
    pub fn gain(&self, graph: &impl GraphView, node: usize, target: usize) -> f64 {
        let cur = self.labels[node];
        let two_m = 2.0 * graph.total_edge_weight();
        if cur == target || two_m <= 0.0 {
            return 0.0;
        }
        let mut k_i_cur = 0.0;
        let mut k_i_target = 0.0;
        for (v, w) in graph.neighbors(node) {
            if v == node {
                continue;
            }
            let c = self.labels[v];
            if c == cur {
                k_i_cur += w;
            } else if c == target {
                k_i_target += w;
            }
        }
        let aggregate = |c: usize| self.sigma_tot.get(c).copied().unwrap_or(0.0);
        self.quality_fn.gain(
            two_m,
            self.node_factor(graph, node),
            k_i_cur,
            k_i_target,
            aggregate(cur),
            aggregate(target),
        )
    }

    /// `node`'s best move as `(community, gain)`: one [`NeighborScan`] pass
    /// over its adjacency, then every neighbouring community priced through
    /// [`QualityFunction::gain`] in first-seen order. Only a positive gain
    /// above [`QualityFunction::move_tolerance`] is a move, and an exact tie
    /// keeps the community seen first. `None` when no move pays or `graph`
    /// has no edge weight.
    pub fn best_move(
        &self,
        scan: &mut NeighborScan,
        graph: &impl GraphView,
        node: usize,
    ) -> Option<(usize, f64)> {
        let two_m = 2.0 * graph.total_edge_weight();
        if two_m <= 0.0 {
            return None;
        }
        scan.gather(node, graph.neighbors(node), &self.labels, self.sigma_tot.len());
        let cur = self.labels[node];
        let factor = self.node_factor(graph, node);
        let k_i_cur = scan.weight_to(cur);
        let agg_cur = self.sigma_tot[cur];
        let tolerance = self.quality_fn.move_tolerance(two_m);
        let mut best: Option<(usize, f64)> = None;
        for &c in &scan.candidates {
            let g = self.quality_fn.gain(
                two_m,
                factor,
                k_i_cur,
                scan.weight[c],
                agg_cur,
                self.sigma_tot[c],
            );
            if g > best.map_or(0.0, |(_, bg)| bg) && g > tolerance {
                best = Some((c, g));
            }
        }
        best
    }

    /// Moves `node` to its [`ModularityState::best_move`], if it has one, and
    /// returns the gain. The move is applied from the weights the scan just
    /// summed, so pricing and applying walk the adjacency once.
    pub fn move_to_best(
        &mut self,
        scan: &mut NeighborScan,
        graph: &impl GraphView,
        node: usize,
    ) -> Option<f64> {
        let (target, gain) = self.best_move(scan, graph, node)?;
        self.patch_move(scan, graph, node, target);
        Some(gain)
    }

    /// Moves `node` to `target`, whatever its gain: one scan of the node's
    /// adjacency, then `Σtot` and `Σin` patched as
    /// [`ModularityState::move_to_best`] patches them. A target beyond the
    /// tracked slots grows the slot vectors (see the community-slot contract).
    pub fn apply_move(
        &mut self,
        scan: &mut NeighborScan,
        graph: &impl GraphView,
        node: usize,
        target: usize,
    ) {
        scan.gather(node, graph.neighbors(node), &self.labels, self.sigma_tot.len());
        self.patch_move(scan, graph, node, target);
    }

    /// Applies the move of `node` to `target` from the weights `scan` gathered
    /// for `node` under the current labels.
    fn patch_move(
        &mut self,
        scan: &NeighborScan,
        graph: &impl GraphView,
        node: usize,
        target: usize,
    ) {
        let cur = self.labels[node];
        if cur == target {
            return;
        }
        if target >= self.sigma_tot.len() {
            self.sigma_tot.resize(target + 1, 0.0);
            self.sigma_in.resize(target + 1, 0.0);
        }
        let factor = self.node_factor(graph, node);
        self.sigma_tot[cur] -= factor;
        self.sigma_tot[target] += factor;
        // Ordered-pair convention: each in-community edge counts from both
        // endpoints; the self-loop (A_ii = 2w) travels with the node.
        self.sigma_in[cur] -= 2.0 * scan.weight_to(cur) + 2.0 * scan.self_loop;
        self.sigma_in[target] += 2.0 * scan.weight_to(target) + 2.0 * scan.self_loop;
        self.labels[node] = target;
    }

    /// Patches the aggregates for a change of `delta` in the weight of edge
    /// `(u, v)` (`u == v` for a self-loop), which the caller has already
    /// applied to its graph. O(1): both endpoints' degrees change by `delta`
    /// (a self-loop's by `2 delta`), which moves `Σtot` under modularity
    /// only, since CPM's node counts ignore edges, and an in-community edge
    /// moves `Σin` by `2 delta`.
    pub fn patch_edge(&mut self, u: usize, v: usize, delta: f64) {
        let (cu, cv) = (self.labels[u], self.labels[v]);
        let degree_aggregates = matches!(self.quality_fn, QualityFunction::Modularity { .. });
        if u == v {
            if degree_aggregates {
                self.sigma_tot[cu] += 2.0 * delta;
            }
            self.sigma_in[cu] += 2.0 * delta;
        } else {
            if degree_aggregates {
                self.sigma_tot[cu] += delta;
                self.sigma_tot[cv] += delta;
            }
            if cu == cv {
                self.sigma_in[cu] += 2.0 * delta;
            }
        }
    }

    /// Tracks a new isolated node carrying `node_weight` original nodes, in a
    /// community slot of its own, and returns that slot.
    pub fn add_node(&mut self, node_weight: f64) -> usize {
        let community = self.sigma_tot.len();
        self.labels.push(community);
        self.sigma_tot.push(self.quality_fn.node_factor(0.0, node_weight));
        self.sigma_in.push(0.0);
        community
    }

    /// Converts the current state back into a [`Partition`] (labels as
    /// tracked, not renumbered).
    ///
    /// # Panics
    ///
    /// Panics if the state covers no nodes (it was built for a graph without
    /// nodes).
    pub fn to_partition(&self) -> Partition {
        Partition::from_labels(self.labels.clone()).expect("state always has at least one node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, EdgeEvent, GraphBuilder, Partition};

    fn two_triangles() -> Graph {
        // Two triangles joined by a single bridge edge.
        GraphBuilder::from_unweighted_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap()
    }

    fn two_triangles_weighted(weight: f64) -> Graph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            b.add_edge(u, v, weight).unwrap();
        }
        b.build()
    }

    #[test]
    fn modularity_matches_dense_definition() {
        let g = two_triangles();
        for labels in [vec![0, 0, 0, 1, 1, 1], vec![0, 1, 0, 1, 0, 1], vec![0; 6]] {
            let p = Partition::from_labels(labels).unwrap();
            let fast = modularity(&g, &p);
            let dense = quality_dense(&g, &p, QualityFunction::default());
            assert!((fast - dense).abs() < 1e-12, "fast={fast} dense={dense}");
        }
    }

    #[test]
    fn generalized_quality_matches_dense_definition() {
        let g = two_triangles();
        for labels in [vec![0, 0, 0, 1, 1, 1], vec![0, 1, 0, 1, 0, 1], vec![0; 6]] {
            let p = Partition::from_labels(labels).unwrap();
            for resolution in [0.25, 1.0, 4.0] {
                for qf in
                    [QualityFunction::modularity(resolution), QualityFunction::cpm(resolution)]
                {
                    let fast = quality(&g, &p, qf);
                    let dense = quality_dense(&g, &p, qf);
                    assert!((fast - dense).abs() < 1e-12, "{qf:?}: fast={fast} dense={dense}");
                }
            }
        }
    }

    #[test]
    fn unit_resolution_wrappers_are_bit_identical() {
        let g = generators::karate_club();
        let p = generators::karate_club_communities();
        let qf = QualityFunction::default();
        assert_eq!(modularity(&g, &p).to_bits(), quality(&g, &p, qf).to_bits());
    }

    #[test]
    fn resolution_one_all_in_one_quality_is_one_minus_gamma() {
        // Q(γ) of the all-in-one partition is Σin/2m − γ = 1 − γ.
        let g = two_triangles();
        let p = Partition::all_in_one(6);
        for resolution in [0.25, 1.0, 4.0] {
            let q = quality(&g, &p, QualityFunction::modularity(resolution));
            assert!((q - (1.0 - resolution)).abs() < 1e-12, "γ={resolution} q={q}");
        }
    }

    #[test]
    fn cpm_of_two_triangles_matches_hand_computation() {
        // Each triangle: e_c = 3, internal pairs = 3 ⇒ per-community value
        // 3 − 3γ; the bridge edge is external.
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        for resolution in [0.5, 1.0, 2.0] {
            let q = quality(&g, &p, QualityFunction::cpm(resolution));
            assert!((q - (6.0 - 6.0 * resolution)).abs() < 1e-12, "γ={resolution} q={q}");
        }
    }

    #[test]
    fn natural_split_beats_trivial_partitions() {
        let g = two_triangles();
        let natural = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let all_one = Partition::all_in_one(6);
        let singletons = Partition::singletons(6);
        let qn = modularity(&g, &natural);
        assert!(qn > modularity(&g, &all_one));
        assert!(qn > modularity(&g, &singletons));
        assert!(qn > 0.3);
    }

    #[test]
    fn all_in_one_partition_has_zero_modularity() {
        let g = two_triangles();
        let q = modularity(&g, &Partition::all_in_one(6));
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn modularity_of_karate_ground_truth_split() {
        let g = generators::karate_club();
        assert_eq!(g.num_nodes(), 34);
        assert_eq!(g.num_edges(), 78);
        let p = generators::karate_club_communities();
        let q = modularity(&g, &p);
        // Known value for the 4-community split is about 0.4198.
        assert!(q > 0.40 && q < 0.43, "q={q}");
    }

    #[test]
    fn empty_graph_modularity_is_zero() {
        let g = GraphBuilder::new(3).build();
        let p = Partition::singletons(3);
        assert_eq!(modularity(&g, &p), 0.0);
        assert_eq!(quality_dense(&g, &p, QualityFunction::default()), 0.0);
        assert_eq!(quality(&g, &p, QualityFunction::cpm(1.0)), 0.0);
        assert_eq!(quality_dense(&g, &p, QualityFunction::cpm(1.0)), 0.0);
    }

    #[test]
    fn gain_matches_recomputation() {
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let state = ModularityState::new(&g, &p, QualityFunction::default());
        let before = modularity(&g, &p);
        // Move node 2 into community 1 and compare gain with recomputed difference.
        let gain = state.gain(&g, 2, 1);
        let mut moved = p.clone();
        moved.assign(2, 1);
        let after = modularity(&g, &moved);
        assert!((gain - (after - before)).abs() < 1e-12, "gain={gain} delta={}", after - before);
    }

    #[test]
    fn generalized_gains_match_recomputation() {
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]).unwrap();
        for resolution in [0.25, 1.0, 4.0] {
            for qf in [QualityFunction::modularity(resolution), QualityFunction::cpm(resolution)] {
                let state = ModularityState::new(&g, &p, qf);
                let before = quality(&g, &p, qf);
                for node in 0..6 {
                    for target in 0..3 {
                        if target == state.community_of(node) {
                            continue;
                        }
                        let gain = state.gain(&g, node, target);
                        let mut moved = state.to_partition();
                        moved.assign(node, target);
                        let delta = quality(&g, &moved, qf) - before;
                        assert!(
                            (gain - delta).abs() < 1e-12,
                            "{qf:?} node {node} -> {target}: gain={gain} delta={}",
                            delta
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_move_keeps_gain_consistent() {
        let g = two_triangles();
        let p = Partition::singletons(6);
        let mut state = ModularityState::new(&g, &p, QualityFunction::default());
        let mut scan = NeighborScan::new();
        // Greedily apply best moves and check modularity never decreases.
        let mut q = modularity(&g, &state.to_partition());
        for _ in 0..10 {
            let mut moved_any = false;
            for node in 0..6 {
                if let Some(gain) = state.move_to_best(&mut scan, &g, node) {
                    let q_new = modularity(&g, &state.to_partition());
                    assert!((q_new - (q + gain)).abs() < 1e-9);
                    assert!((state.quality(&g) - q_new).abs() < 1e-12);
                    q = q_new;
                    moved_any = true;
                }
            }
            if !moved_any {
                break;
            }
        }
        assert!(q > 0.0);
    }

    #[test]
    fn refinement_decisions_are_weight_scale_invariant() {
        // The move-acceptance threshold is scaled to the gain units of the
        // quality function, so uniformly rescaling every edge weight by 1e-9
        // must not change any greedy refinement decision: the final partitions
        // at weight 1.0 and weight 1e-9 are identical.
        let refine = |graph: &Graph, qf: QualityFunction| {
            let mut state = ModularityState::new(graph, &Partition::singletons(6), qf);
            let mut scan = NeighborScan::new();
            for _ in 0..10 {
                let mut moved_any = false;
                for node in 0..6 {
                    moved_any |= state.move_to_best(&mut scan, graph, node).is_some();
                }
                if !moved_any {
                    break;
                }
            }
            state.to_partition().renumbered()
        };
        let unit = two_triangles_weighted(1.0);
        let tiny = two_triangles_weighted(1e-9);
        // Modularity gains are dimensionless, so the same γ applies at every
        // weight scale; CPM's γ is itself a density (weight per node pair), so
        // the scale-invariant statement co-scales it with the weights.
        for (qf_unit, qf_tiny) in [
            (QualityFunction::default(), QualityFunction::default()),
            (QualityFunction::cpm(0.5), QualityFunction::cpm(0.5e-9)),
        ] {
            let p_unit = refine(&unit, qf_unit);
            let p_tiny = refine(&tiny, qf_tiny);
            assert_eq!(p_unit, p_tiny, "{qf_unit:?}: rescaling changed the refinement outcome");
            // The refinement actually did something: the two triangles merged.
            assert_eq!(p_unit.num_communities(), 2, "{qf_unit:?}");
        }
    }

    #[test]
    fn pricing_and_applying_a_move_into_a_new_slot_agree() {
        // Pricing a move into a community slot the state has never seen must
        // treat it as empty — and agree with the recomputed quality difference
        // once apply_move grows the slot vectors.
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        for qf in [QualityFunction::default(), QualityFunction::cpm(1.0)] {
            let mut state = ModularityState::new(&g, &p, qf);
            let fresh = state.num_community_slots() + 3;
            let priced = state.gain(&g, 2, fresh);
            let before = quality(&g, &state.to_partition(), qf);
            state.apply_move(&mut NeighborScan::new(), &g, 2, fresh);
            assert_eq!(state.num_community_slots(), fresh + 1);
            assert_eq!(state.sigma_in().len(), fresh + 1);
            assert_eq!(state.community_of(2), fresh);
            let after = quality(&g, &state.to_partition(), qf);
            assert!(
                (priced - (after - before)).abs() < 1e-12,
                "{qf:?}: priced={priced} delta={}",
                after - before
            );
            assert!((state.quality(&g) - after).abs() < 1e-12, "{qf:?}");
        }
    }

    /// Path 1 — 4 — 0 — 3 — 2 with communities {0}, {1, 4}, {2, 3}: moving
    /// node 0 to either side has exactly the same gain by symmetry. Node 3
    /// comes first in node 0's adjacency, but its community has the higher id.
    fn tied_path() -> (Graph, ModularityState) {
        let g = GraphBuilder::from_unweighted_edges(5, [(0, 3), (0, 4), (1, 4), (2, 3)]).unwrap();
        let p = Partition::from_labels(vec![0, 1, 2, 2, 1]).unwrap();
        let state = ModularityState::new(&g, &p, QualityFunction::default());
        assert_eq!(g.neighbors(0).next().map(|(v, _)| v), Some(3), "adjacency premise");
        assert_eq!(state.gain(&g, 0, 1).to_bits(), state.gain(&g, 0, 2).to_bits(), "tie premise");
        (g, state)
    }

    #[test]
    fn best_move_ties_resolve_to_the_first_seen_neighbour() {
        let (g, state) = tied_path();
        let (community, gain) = state.best_move(&mut NeighborScan::new(), &g, 0).unwrap();
        assert_eq!(community, state.community_of(3));
        assert_eq!(community, 2);
        assert!(gain > 0.0);
    }

    #[test]
    fn self_loops_are_handled_consistently() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 0, 1.0).unwrap();
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build();
        let p = Partition::from_labels(vec![0, 0, 1]).unwrap();
        let fast = modularity(&g, &p);
        let dense = quality_dense(&g, &p, QualityFunction::default());
        assert!((fast - dense).abs() < 1e-12);
    }

    /// Two triangles with a self-loop on node 2, node weights 1–3 and a
    /// non-integer bridge: every term of the bookkeeping is exercised.
    fn weighted_loopy() -> Graph {
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0), (3, 4, 1.5), (4, 5, 1.0), (3, 5, 1.0)]
        {
            b.add_edge(u, v, w).unwrap();
        }
        b.add_edge(2, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.75).unwrap();
        for node in 0..6 {
            b.set_node_weight(node, (1 + node % 3) as f64).unwrap();
        }
        b.build()
    }

    #[test]
    fn both_graph_types_build_the_same_state() {
        let g = weighted_loopy();
        let dynamic = DynamicGraph::from_graph(&g);
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        for qf in [QualityFunction::default(), QualityFunction::cpm(0.5)] {
            let a = ModularityState::new(&g, &p, qf);
            let b = ModularityState::new(&dynamic, &p, qf);
            assert_eq!(a.labels(), b.labels());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.sigma_tot()), bits(b.sigma_tot()));
            assert_eq!(bits(a.sigma_in()), bits(b.sigma_in()));
            assert_eq!(a.quality(&g).to_bits(), b.quality(&dynamic).to_bits());
            assert_eq!(a.quality(&g).to_bits(), quality(&g, &p, qf).to_bits());
        }
    }

    #[test]
    fn patched_state_tracks_moves_and_edge_changes() {
        // Moves, edge events and a new node on a dynamic graph: after each
        // step the patched state reports the quality of a fresh build.
        for qf in [QualityFunction::modularity(0.5), QualityFunction::cpm(0.25)] {
            let mut graph = DynamicGraph::from_graph(&weighted_loopy());
            let start = Partition::from_labels(vec![0, 1, 0, 1, 2, 2]).unwrap();
            let mut state = ModularityState::new(&graph, &start, qf);
            let mut scan = NeighborScan::new();
            let check = |state: &ModularityState, graph: &DynamicGraph| {
                let fresh = quality(&graph.snapshot(), &state.to_partition(), qf);
                let patched = state.quality(graph);
                assert!((patched - fresh).abs() < 1e-12, "{qf:?}: {patched} vs {fresh}");
            };
            state.apply_move(&mut scan, &graph, 2, 1);
            check(&state, &graph);
            for event in [
                EdgeEvent::Add { u: 0, v: 5, weight: 2.0 },
                EdgeEvent::Update { u: 2, v: 2, weight: 1.25 },
                EdgeEvent::Remove { u: 1, v: 2 },
            ] {
                let delta = graph.apply(&event).unwrap();
                let (u, v) = event.endpoints();
                state.patch_edge(u, v, delta);
                check(&state, &graph);
            }
            for (v, w) in graph.remove_node(3).unwrap() {
                state.patch_edge(3, v, -w);
            }
            check(&state, &graph);
            let id = graph.add_node();
            assert_eq!(state.add_node(graph.node_weight(id)), state.num_community_slots() - 1);
            let delta = graph.insert_edge(id, 0, 1.0).unwrap();
            state.patch_edge(id, 0, delta);
            check(&state, &graph);
            for node in 0..graph.num_nodes() {
                state.move_to_best(&mut scan, &graph, node);
                check(&state, &graph);
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let qf = QualityFunction::default();
        assert!(
            ModularityState::from_parts(vec![0, 1], vec![1.0, 1.0], vec![0.0, 0.0], qf).is_some()
        );
        assert!(ModularityState::from_parts(vec![0, 1], vec![1.0, 1.0], vec![0.0], qf).is_none());
        assert!(
            ModularityState::from_parts(vec![0, 2], vec![1.0, 1.0], vec![0.0, 0.0], qf).is_none()
        );
    }
}
