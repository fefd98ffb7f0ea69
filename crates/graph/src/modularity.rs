//! Quality functions (Newman–Girvan modularity, CPM), quality matrices and
//! single-move gains.
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
//! `c`. Both are instances of [`QualityFunction`]; this module computes them
//! from the definition (dense, `O(n²)`, for testing) and from the
//! community-aggregated form (sparse, `O(m + n)`, used everywhere else), plus
//! the single-node move gains used by the refinement phase.

use crate::{Graph, Partition};

/// Dimensionless move-acceptance threshold shared by every best-move scan
/// path: a candidate move is applied only if its gain exceeds the threshold
/// returned by [`QualityFunction::move_tolerance`], which scales this constant
/// to the gain units of the quality function in use. Keeping one named
/// constant (instead of scattered magic numbers) makes the accept decision
/// identical across the static refinement and the streaming twin.
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
/// The per-community aggregate maintained by the incremental state
/// ([`ModularityState`], the streaming detector) is quality-dependent: the
/// degree sum `Σtot_c` for modularity, the node count `n_c` for CPM —
/// uniformly, a sum of [`QualityFunction::node_factor`] over members.
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

    /// A node's contribution to its community's aggregate: the weighted degree
    /// under modularity (`Σtot_c`), 1 under CPM (`n_c`).
    ///
    /// This is [`QualityFunction::node_factor_weighted`] at unit node weight —
    /// correct wherever every node stands for a single original node.
    #[inline]
    pub fn node_factor(&self, degree: f64) -> f64 {
        self.node_factor_weighted(degree, 1.0)
    }

    /// A node's contribution to its community's aggregate when the node is a
    /// super-node standing for `node_weight` original nodes (the coarse levels
    /// of the multilevel hierarchy and the Louvain aggregation): the weighted
    /// degree under modularity — degrees already accumulate through
    /// aggregation — and the **carried node count** under CPM, which makes the
    /// coarse-level null term `γ n_c (n_c − 1)/2` exact instead of the former
    /// counts-as-one approximation. At `node_weight = 1` this is bit-identical
    /// to [`QualityFunction::node_factor`].
    #[inline]
    pub fn node_factor_weighted(&self, degree: f64, node_weight: f64) -> f64 {
        match self {
            QualityFunction::Modularity { .. } => degree,
            QualityFunction::Cpm { .. } => node_weight,
        }
    }

    /// Whether the per-community aggregate tracks weighted degrees (and hence
    /// must be patched on every edge-weight change). Under CPM the aggregate
    /// is a node count, untouched by edge events.
    #[inline]
    pub fn aggregate_tracks_degrees(&self) -> bool {
        matches!(self, QualityFunction::Modularity { .. })
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
    /// scalars. For modularity (cf. [`louvain_gain`]):
    ///
    /// ```text
    /// ΔQ = (k_{i,target} − k_{i,cur\{i\}}) / m  −  γ d_i (Σtot_target − (Σtot_cur − d_i)) / (2 m²)
    /// ```
    ///
    /// with `two_m = 2m` the doubled total edge weight, `d_i` the node's
    /// weighted degree, `k_i_cur` / `k_i_target` its edge weight into the
    /// current and target community (self-loops excluded), and `agg` the
    /// per-community aggregates (`Σtot` degree sums). For CPM:
    ///
    /// ```text
    /// ΔQ = (k_{i,target} − k_{i,cur\{i\}})  −  γ (n_target − (n_cur − 1))
    /// ```
    ///
    /// where the aggregates are community node counts.
    ///
    /// This is the **single source of truth** for the gain arithmetic:
    /// [`NeighborScan`] (and through it the static refinement and the
    /// streaming detector's incremental twin) and [`ModularityState::gain`]
    /// evaluate candidates through this function, so their decisions stay
    /// bit-identical by construction — the invariant the stream ↔
    /// `refine_frontier` conformance tests pin. At `γ = 1` the modularity
    /// branch is bit-identical to the classical formula (the resolution
    /// factor multiplies the exact original sub-expression).
    #[inline]
    pub fn gain(
        &self,
        two_m: f64,
        d_i: f64,
        k_i_cur: f64,
        k_i_target: f64,
        agg_cur: f64,
        agg_target: f64,
    ) -> f64 {
        self.gain_weighted(two_m, d_i, 1.0, k_i_cur, k_i_target, agg_cur, agg_target)
    }

    /// [`QualityFunction::gain`] for a super-node standing for `node_weight`
    /// original nodes. Modularity ignores the node weight (degrees carry all
    /// the information); for CPM the null-term change of moving `w` carried
    /// nodes from a community of `n_cur` to one of `n_target` is exactly
    ///
    /// ```text
    /// ΔQ = (k_{i,target} − k_{i,cur\{i\}}) − γ w (n_target − (n_cur − w))
    /// ```
    ///
    /// (expand `n(n−1)/2` before and after the move to verify), which makes
    /// coarse-level CPM refinement price moves exactly instead of under the
    /// former counts-as-one approximation. At `node_weight = 1` both branches
    /// are bit-identical to [`QualityFunction::gain`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn gain_weighted(
        &self,
        two_m: f64,
        d_i: f64,
        node_weight: f64,
        k_i_cur: f64,
        k_i_target: f64,
        agg_cur: f64,
        agg_target: f64,
    ) -> f64 {
        match *self {
            QualityFunction::Modularity { resolution } => {
                let m = two_m / 2.0;
                (k_i_target - k_i_cur) / m
                    - resolution * (d_i * (agg_target - (agg_cur - d_i)) / (2.0 * m * m))
            }
            QualityFunction::Cpm { resolution } => {
                (k_i_target - k_i_cur)
                    - resolution * (node_weight * (agg_target - (agg_cur - node_weight)))
            }
        }
    }
}

/// Value of `quality_fn` for `partition` on `graph`, computed in `O(m + n)`
/// from the community-aggregated form (for modularity,
/// `Q = Σ_c [ Σin_c/(2m) − γ (Σtot_c/(2m))² ]`; for CPM,
/// `Q = Σ_c [ Σin_c/2 − γ n_c (n_c − 1)/2 ]`).
///
/// Returns 0.0 for graphs with zero total edge weight (for every quality
/// function — the degenerate-graph convention shared with the streaming
/// detector's maintained value).
///
/// # Panics
///
/// Panics if the partition has fewer labels than the graph has nodes.
pub fn quality(graph: &Graph, partition: &Partition, quality_fn: QualityFunction) -> f64 {
    let two_m = 2.0 * graph.total_edge_weight();
    if two_m <= 0.0 {
        return 0.0;
    }
    let renum = partition.renumbered();
    let k = renum.num_communities();
    // sigma_in[c]: sum over ordered pairs (i, j) in c of A_ij (self-loops contribute twice
    // via the degree convention); agg[c]: sum of node factors in c (degrees for
    // modularity, node counts for CPM).
    let mut sigma_in = vec![0.0f64; k];
    let mut agg = vec![0.0f64; k];
    for u in 0..graph.num_nodes() {
        let cu = renum.community_of(u);
        agg[cu] += quality_fn.node_factor_weighted(graph.degree(u), graph.node_weight(u));
        for (v, w) in graph.neighbors(u) {
            if renum.community_of(v) == cu {
                // Each undirected edge (u, v) with u != v is visited twice (once from
                // each endpoint), matching the ordered-pair sum. A self-loop is visited
                // once but must contribute A_ii once in the ordered-pair sum as well;
                // the degree convention counts it twice, so scale it by 2 here to stay
                // consistent with d_i = Σ_j A_ij.
                sigma_in[cu] += if u == v { 2.0 * w } else { w };
            }
        }
    }
    let mut q = 0.0;
    match quality_fn {
        QualityFunction::Modularity { resolution } => {
            for c in 0..k {
                q += sigma_in[c] / two_m - resolution * (agg[c] / two_m).powi(2);
            }
        }
        QualityFunction::Cpm { resolution } => {
            for c in 0..k {
                q += sigma_in[c] / 2.0 - resolution * (agg[c] * (agg[c] - 1.0) / 2.0);
            }
        }
    }
    q
}

/// Modularity of `partition` on `graph` — [`quality`] at the default
/// unit-resolution [`QualityFunction::Modularity`], kept as the stable entry
/// point (bit-identical to the pre-generalization implementation).
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
/// all node pairs. `O(n²)`; intended for tests and tiny graphs.
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

/// Modularity computed directly from the definition — [`quality_dense`] at the
/// default unit-resolution [`QualityFunction::Modularity`].
///
/// # Panics
///
/// Panics if the partition has fewer labels than the graph has nodes.
pub fn modularity_dense(graph: &Graph, partition: &Partition) -> f64 {
    quality_dense(graph, partition, QualityFunction::default())
}

/// The standard Louvain modularity gain of moving a node between communities,
/// expressed purely in scalars:
///
/// ```text
/// ΔQ = (k_{i,target} − k_{i,cur\{i\}}) / m  −  d_i (Σtot_target − (Σtot_cur − d_i)) / (2 m²)
/// ```
///
/// with `two_m = 2m` the doubled total edge weight, `d_i` the node's weighted
/// degree, `k_i_cur` / `k_i_target` its edge weight into the current and
/// target community (self-loops excluded), and `Σtot` the community degree
/// sums.
///
/// This is [`QualityFunction::gain`] at the default unit-resolution
/// modularity, kept as the stable scalar entry point (bit-identical to the
/// pre-generalization formula).
#[inline]
pub fn louvain_gain(
    two_m: f64,
    d_i: f64,
    k_i_cur: f64,
    k_i_target: f64,
    sigma_cur: f64,
    sigma_target: f64,
) -> f64 {
    QualityFunction::default().gain(two_m, d_i, k_i_cur, k_i_target, sigma_cur, sigma_target)
}

/// Reusable scratch for the deterministic one-pass best-move scan shared by
/// the static refinement (`qhdcd-core`) and the streaming detector's
/// incremental twin (`qhdcd-stream`).
///
/// One pass over a node's adjacency accumulates its edge weight into every
/// neighbouring community (`weight`, valid where `stamp` matches the current
/// visit) and records candidate communities in **first-seen neighbour order**;
/// the gains are then evaluated in that same order from the accumulated
/// weights via [`QualityFunction::gain_weighted`]. This replaces
/// per-candidate neighbourhood re-scans — O(deg²) on hubs — with
/// O(deg + candidates). The strictly best positive gain wins. An exact tie
/// keeps the first candidate seen, or, for a scan made by
/// [`NeighborScan::with_lowest_id_ties`], goes to the lowest community id.
/// For a deterministic neighbour order the decision is reproducible bit for
/// bit — the invariant the stream ↔ `refine_frontier` conformance tests pin.
/// Both twins call this one implementation, so they cannot drift apart.
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
    /// Whether an exact gain tie goes to the lower community id instead of
    /// the candidate seen first.
    lowest_id_ties: bool,
}

impl NeighborScan {
    /// Creates an empty scan whose exact gain ties keep the first candidate
    /// seen; scratch grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty scan whose exact gain ties go to the lowest community
    /// id, the same decision as trying the candidates in ascending id order.
    pub fn with_lowest_id_ties() -> Self {
        NeighborScan { lowest_id_ties: true, ..Self::default() }
    }

    /// Deterministic single-node best-move scan over `neighbors` (the node's
    /// `(neighbour, weight)` adjacency in a deterministic order; self-loops
    /// are skipped), under the default unit-resolution modularity. `labels`
    /// maps nodes to communities, `sigma_tot` holds the per-community degree
    /// sums (every label must index into it), `d_i` is the node's weighted
    /// degree and `two_m` the doubled total edge weight. Returns the best
    /// strictly-positive-gain move as `(community, gain)`.
    pub fn best_move(
        &mut self,
        node: usize,
        neighbors: impl Iterator<Item = (usize, f64)>,
        labels: &[usize],
        d_i: f64,
        two_m: f64,
        sigma_tot: &[f64],
    ) -> Option<(usize, f64)> {
        self.best_move_with_quality(
            node,
            neighbors,
            labels,
            d_i,
            two_m,
            sigma_tot,
            QualityFunction::default(),
        )
    }

    /// [`NeighborScan::best_move`] under an explicit quality function. `agg`
    /// holds the per-community aggregates of the quality function in use
    /// (degree sums `Σtot_c` for modularity, node counts `n_c` for CPM —
    /// sums of [`QualityFunction::node_factor`]); every label must index into
    /// it. Moves are accepted only above
    /// [`QualityFunction::move_tolerance`].
    #[allow(clippy::too_many_arguments)]
    pub fn best_move_with_quality(
        &mut self,
        node: usize,
        neighbors: impl Iterator<Item = (usize, f64)>,
        labels: &[usize],
        d_i: f64,
        two_m: f64,
        agg: &[f64],
        quality_fn: QualityFunction,
    ) -> Option<(usize, f64)> {
        self.best_move_with_quality_weighted(
            node, neighbors, labels, d_i, 1.0, two_m, agg, quality_fn,
        )
    }

    /// [`NeighborScan::best_move_with_quality`] for a super-node carrying
    /// `node_weight` original nodes (coarse multilevel levels); gains are
    /// priced through [`QualityFunction::gain_weighted`]. At unit node weight
    /// this is bit-identical to the unweighted scan.
    #[allow(clippy::too_many_arguments)]
    pub fn best_move_with_quality_weighted(
        &mut self,
        node: usize,
        neighbors: impl Iterator<Item = (usize, f64)>,
        labels: &[usize],
        d_i: f64,
        node_weight: f64,
        two_m: f64,
        agg: &[f64],
        quality_fn: QualityFunction,
    ) -> Option<(usize, f64)> {
        if two_m <= 0.0 {
            return None;
        }
        let cur = labels[node];
        if self.stamp.len() < agg.len() {
            self.stamp.resize(agg.len(), 0);
            self.weight.resize(agg.len(), 0.0);
        }
        self.visit += 1;
        let visit = self.visit;
        self.candidates.clear();
        for (v, w) in neighbors {
            if v == node {
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
        let k_i_cur = if self.stamp[cur] == visit { self.weight[cur] } else { 0.0 };
        let agg_cur = agg[cur];
        let tolerance = quality_fn.move_tolerance(two_m);
        let mut best: Option<(usize, f64)> = None;
        for &c in &self.candidates {
            let g = quality_fn.gain_weighted(
                two_m,
                d_i,
                node_weight,
                k_i_cur,
                self.weight[c],
                agg_cur,
                agg[c],
            );
            let better = match best {
                None => g > 0.0,
                Some((bc, bg)) => g > bg || (self.lowest_id_ties && g == bg && c < bc),
            };
            if better && g > tolerance {
                best = Some((c, g));
            }
        }
        best
    }
}

/// Entry `A_ij` of the (symmetric) adjacency matrix, with the convention that a
/// self-loop of weight `w` contributes `A_ii = 2w` so that `d_i = Σ_j A_ij`.
pub fn adjacency_entry(graph: &Graph, i: usize, j: usize) -> f64 {
    match graph.edge_weight(i, j) {
        Some(w) if i == j => 2.0 * w,
        Some(w) => w,
        None => 0.0,
    }
}

/// Dense quality matrix `B`, row-major: `B_ij = A_ij − γ d_i d_j / (2m)` for
/// modularity (Eq. 2 of the paper, generalized), `B_ij = A_ij − γ w_i w_j`
/// (`i ≠ j`, with `B_ii = A_ii − γ w_i (w_i − 1)` on the diagonal, `w` the
/// carried node counts — γ per node pair exactly, even on coarse graphs)
/// for CPM. Maximizing `Σ_c Σ_{ij} B_ij x_ic x_jc` over one-hot assignments
/// maximizes the corresponding quality function, which is what the QUBO
/// formulation builds on for small graphs.
///
/// Returns an `n × n` row-major matrix (all zeros for graphs with zero total
/// edge weight). `O(n²)` memory — intended for the "direct" formulation on
/// graphs of at most a few thousand nodes.
pub fn quality_matrix(graph: &Graph, quality_fn: QualityFunction) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let two_m = 2.0 * graph.total_edge_weight();
    let mut b = vec![vec![0.0; n]; n];
    if two_m <= 0.0 {
        return b;
    }
    match quality_fn {
        QualityFunction::Modularity { resolution } => {
            for (i, row) in b.iter_mut().enumerate() {
                for (j, entry) in row.iter_mut().enumerate() {
                    *entry = adjacency_entry(graph, i, j)
                        - resolution * (graph.degree(i) * graph.degree(j) / two_m);
                }
            }
        }
        QualityFunction::Cpm { resolution } => {
            // Weighted CPM null term (see `quality_dense`): γ w_i w_j off the
            // diagonal, γ w_i (w_i − 1) on it, so `Σ_c Σ_{ij} B_ij x_ic x_jc`
            // still equals `2 Q` when nodes carry super-node counts. At unit
            // weights this is bit-identical to the unweighted matrix.
            for (i, row) in b.iter_mut().enumerate() {
                let w_i = graph.node_weight(i);
                for (j, entry) in row.iter_mut().enumerate() {
                    let null = if i != j { w_i * graph.node_weight(j) } else { w_i * (w_i - 1.0) };
                    *entry = adjacency_entry(graph, i, j) - resolution * null;
                }
            }
        }
    }
    b
}

/// Dense modularity matrix `B` with `B_ij = A_ij − d_i d_j / (2m)` —
/// [`quality_matrix`] at the default unit-resolution modularity.
pub fn modularity_matrix(graph: &Graph) -> Vec<Vec<f64>> {
    quality_matrix(graph, QualityFunction::default())
}

/// Incremental bookkeeping for single-node quality-gain moves.
///
/// Holds the per-community aggregate of the configured quality function
/// (`Σtot_c` degree sums for modularity, node counts for CPM) so that the
/// gain of moving a node can be evaluated in time proportional to its
/// neighbourhood, which is what the multilevel refinement phase and the
/// Louvain baseline need.
///
/// # Community-slot contract
///
/// The state tracks a fixed number of community slots (grown only by
/// [`ModularityState::apply_move`]): pricing a move via
/// [`ModularityState::gain`] / [`ModularityState::gain_from_weights`] treats
/// *any* slot beyond the tracked range — current or target — as an empty
/// community with aggregate 0, and applying a move into an untracked slot
/// resizes the aggregate vector on demand (intermediate slots start empty).
/// Pricing therefore always agrees with applying, including for brand-new
/// community slots.
#[derive(Debug, Clone)]
pub struct ModularityState {
    /// Per-community aggregate: total degree under modularity, node count
    /// under CPM.
    sigma_tot: Vec<f64>,
    /// Current community per node.
    labels: Vec<usize>,
    two_m: f64,
    quality_fn: QualityFunction,
}

impl ModularityState {
    /// Builds the move-gain state for `graph` and an initial `partition`
    /// under the default unit-resolution modularity.
    ///
    /// The partition is renumbered internally; use [`ModularityState::labels`]
    /// to read the current assignment back.
    ///
    /// # Panics
    ///
    /// Panics if the partition has fewer labels than the graph has nodes.
    pub fn new(graph: &Graph, partition: &Partition) -> Self {
        Self::with_quality(graph, partition, QualityFunction::default())
    }

    /// Builds the move-gain state for `graph` and an initial `partition`
    /// under an explicit quality function.
    ///
    /// # Panics
    ///
    /// Panics if the partition has fewer labels than the graph has nodes.
    pub fn with_quality(graph: &Graph, partition: &Partition, quality_fn: QualityFunction) -> Self {
        let renum = partition.renumbered();
        let k = renum.num_communities().max(1);
        let mut sigma_tot = vec![0.0; k];
        for u in 0..graph.num_nodes() {
            sigma_tot[renum.community_of(u)] +=
                quality_fn.node_factor_weighted(graph.degree(u), graph.node_weight(u));
        }
        ModularityState {
            sigma_tot,
            labels: renum.labels().to_vec(),
            two_m: 2.0 * graph.total_edge_weight(),
            quality_fn,
        }
    }

    /// Current community labels (renumbered at construction time).
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
    /// `Σtot_c` under modularity, node counts under CPM.
    pub fn sigma_tot(&self) -> &[f64] {
        &self.sigma_tot
    }

    /// The doubled total edge weight `2m` captured at construction.
    pub fn two_m(&self) -> f64 {
        self.two_m
    }

    /// The quality function this state evaluates gains for.
    pub fn quality_function(&self) -> QualityFunction {
        self.quality_fn
    }

    /// Quality gain of moving `node` from its current community to `target`.
    ///
    /// Uses the single-source-of-truth gain formula
    /// ([`QualityFunction::gain`]); for modularity this is the standard
    /// Louvain gain
    /// `ΔQ = (k_{i,target} − k_{i,cur\{i\}}) / m  −  γ d_i (Σtot_target − Σtot_cur + d_i) / (2 m²)`
    /// where `k_{i,c}` is the weight from `i` to community `c`.
    ///
    /// Returns 0.0 if `target` equals the node's current community. A target
    /// beyond the tracked slots is priced as an empty community (see the
    /// community-slot contract in the type docs).
    pub fn gain(&self, graph: &Graph, node: usize, target: usize) -> f64 {
        let cur = self.labels[node];
        if cur == target || self.two_m <= 0.0 {
            return 0.0;
        }
        let d_i = graph.degree(node);
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
        self.gain_from_weights_weighted(
            cur,
            target,
            d_i,
            graph.node_weight(node),
            k_i_cur,
            k_i_target,
        )
    }

    /// The same gain as [`ModularityState::gain`], but with the
    /// node-to-community weights already in hand: `d_i` is the node's degree,
    /// `k_i_cur` / `k_i_target` its edge weight into the current and target
    /// community (self-loops excluded).
    ///
    /// This is the O(1) half of the gain; a caller that accumulates the
    /// neighbour-community weights for *all* candidate communities in one pass
    /// over the adjacency can price every candidate through this instead of
    /// re-scanning the neighbourhood per candidate. As long as the weights are
    /// accumulated in neighbour order, the result is bit-identical to
    /// [`ModularityState::gain`].
    ///
    /// Both `cur` and `target` may lie beyond the tracked community slots;
    /// either is then priced as an empty community with aggregate 0,
    /// consistently with the resize-on-apply behaviour of
    /// [`ModularityState::apply_move`] (see the community-slot contract in
    /// the type docs).
    pub fn gain_from_weights(
        &self,
        cur: usize,
        target: usize,
        d_i: f64,
        k_i_cur: f64,
        k_i_target: f64,
    ) -> f64 {
        self.gain_from_weights_weighted(cur, target, d_i, 1.0, k_i_cur, k_i_target)
    }

    /// [`ModularityState::gain_from_weights`] for a super-node carrying
    /// `node_weight` original nodes (see [`QualityFunction::gain_weighted`]);
    /// bit-identical to the unweighted form at `node_weight = 1`.
    pub fn gain_from_weights_weighted(
        &self,
        cur: usize,
        target: usize,
        d_i: f64,
        node_weight: f64,
        k_i_cur: f64,
        k_i_target: f64,
    ) -> f64 {
        if cur == target || self.two_m <= 0.0 {
            return 0.0;
        }
        let sigma_cur = self.sigma_tot.get(cur).copied().unwrap_or(0.0);
        let sigma_target = self.sigma_tot.get(target).copied().unwrap_or(0.0);
        self.quality_fn.gain_weighted(
            self.two_m,
            d_i,
            node_weight,
            k_i_cur,
            k_i_target,
            sigma_cur,
            sigma_target,
        )
    }

    /// Applies the move of `node` to `target`, updating the internal totals.
    /// A target beyond the tracked community slots grows the aggregate vector
    /// on demand (intermediate slots start empty) — the companion of the
    /// empty-slot pricing in [`ModularityState::gain_from_weights`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn apply_move(&mut self, graph: &Graph, node: usize, target: usize) {
        let cur = self.labels[node];
        if cur == target {
            return;
        }
        if target >= self.sigma_tot.len() {
            self.sigma_tot.resize(target + 1, 0.0);
        }
        let factor =
            self.quality_fn.node_factor_weighted(graph.degree(node), graph.node_weight(node));
        self.sigma_tot[cur] -= factor;
        self.sigma_tot[target] += factor;
        self.labels[node] = target;
    }

    /// Converts the current state back into a [`Partition`].
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
    use crate::{generators, GraphBuilder, Partition};

    fn two_triangles() -> Graph {
        // Two triangles joined by a single bridge edge.
        GraphBuilder::from_unweighted_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap()
    }

    /// `node`'s best move through the shared one-pass scan.
    fn best_move(
        scan: &mut NeighborScan,
        graph: &Graph,
        state: &ModularityState,
        node: usize,
    ) -> Option<(usize, f64)> {
        scan.best_move_with_quality_weighted(
            node,
            graph.neighbors(node),
            state.labels(),
            graph.degree(node),
            graph.node_weight(node),
            state.two_m(),
            state.sigma_tot(),
            state.quality_function(),
        )
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
            let dense = modularity_dense(&g, &p);
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
        assert_eq!(modularity_dense(&g, &p).to_bits(), quality_dense(&g, &p, qf).to_bits());
        // The scalar gain formula too, across a spread of operand magnitudes.
        for (two_m, d_i, k_c, k_t, s_c, s_t) in [
            (156.0, 16.0, 2.0, 5.0, 33.0, 40.0),
            (14.0, 3.0, 0.0, 1.0, 3.0, 7.0),
            (1e-9, 2e-10, 1e-10, 3e-10, 5e-10, 4e-10),
        ] {
            assert_eq!(
                louvain_gain(two_m, d_i, k_c, k_t, s_c, s_t).to_bits(),
                qf.gain(two_m, d_i, k_c, k_t, s_c, s_t).to_bits()
            );
        }
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
    fn modularity_matrix_rows_sum_to_zero() {
        let g = two_triangles();
        let b = modularity_matrix(&g);
        for row in &b {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-9, "row sum {s}");
        }
    }

    #[test]
    fn quality_matrix_sums_track_the_quality_value() {
        // Σ_{ij same community} B_ij equals 2m·Q for modularity and 2·Q for
        // CPM — the affine relation the QUBO formulation relies on.
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let two_m = 2.0 * g.total_edge_weight();
        for resolution in [0.25, 1.0, 4.0] {
            for (qf, scale) in [
                (QualityFunction::modularity(resolution), two_m),
                (QualityFunction::cpm(resolution), 2.0),
            ] {
                let b = quality_matrix(&g, qf);
                let mut s = 0.0;
                for (i, row) in b.iter().enumerate() {
                    for (j, &entry) in row.iter().enumerate() {
                        if p.community_of(i) == p.community_of(j) {
                            s += entry;
                        }
                    }
                }
                let q = quality(&g, &p, qf);
                assert!((s - scale * q).abs() < 1e-9, "{qf:?}: sum={s} scaled q={}", scale * q);
            }
        }
    }

    #[test]
    fn empty_graph_modularity_is_zero() {
        let g = GraphBuilder::new(3).build();
        let p = Partition::singletons(3);
        assert_eq!(modularity(&g, &p), 0.0);
        assert_eq!(modularity_dense(&g, &p), 0.0);
        assert_eq!(quality(&g, &p, QualityFunction::cpm(1.0)), 0.0);
        assert_eq!(quality_dense(&g, &p, QualityFunction::cpm(1.0)), 0.0);
    }

    #[test]
    fn gain_matches_recomputation() {
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let state = ModularityState::new(&g, &p);
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
                let state = ModularityState::with_quality(&g, &p, qf);
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
                            "{qf:?} node {node} -> {target}: gain={gain} delta={delta}"
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
        let mut state = ModularityState::new(&g, &p);
        let mut scan = NeighborScan::new();
        // Greedily apply best moves and check modularity never decreases.
        let mut q = modularity(&g, &state.to_partition());
        for _ in 0..10 {
            let mut moved_any = false;
            for node in 0..6 {
                if let Some((c, gain)) = best_move(&mut scan, &g, &state, node) {
                    state.apply_move(&g, node, c);
                    let q_new = modularity(&g, &state.to_partition());
                    assert!((q_new - (q + gain)).abs() < 1e-9);
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
            let mut state = ModularityState::with_quality(graph, &Partition::singletons(6), qf);
            let mut scan = NeighborScan::new();
            for _ in 0..10 {
                let mut moved_any = false;
                for node in 0..6 {
                    if let Some((c, _)) = best_move(&mut scan, graph, &state, node) {
                        state.apply_move(graph, node, c);
                        moved_any = true;
                    }
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
        // once apply_move grows the slot vector.
        let g = two_triangles();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        for qf in [QualityFunction::default(), QualityFunction::cpm(1.0)] {
            let mut state = ModularityState::with_quality(&g, &p, qf);
            let fresh = state.num_community_slots() + 3;
            let d_2 = g.degree(2);
            // Node 2 has 2.0 into its own community, nothing into the fresh one.
            let priced = state.gain_from_weights(state.community_of(2), fresh, d_2, 2.0, 0.0);
            assert_eq!(priced.to_bits(), state.gain(&g, 2, fresh).to_bits());
            let before = quality(&g, &state.to_partition(), qf);
            state.apply_move(&g, 2, fresh);
            assert_eq!(state.num_community_slots(), fresh + 1);
            assert_eq!(state.community_of(2), fresh);
            let after = quality(&g, &state.to_partition(), qf);
            assert!(
                (priced - (after - before)).abs() < 1e-12,
                "{qf:?}: priced={priced} delta={}",
                after - before
            );
            // An out-of-range *current* community is priced as empty too
            // (symmetric with the target side), not a panic.
            let symmetric = state.gain_from_weights(fresh + 7, 0, d_2, 0.0, 2.0);
            assert!(symmetric.is_finite());
        }
    }

    /// Path 1 — 4 — 0 — 3 — 2 with communities {0}, {1, 4}, {2, 3}: moving
    /// node 0 to either side has exactly the same gain by symmetry. Node 3
    /// comes first in node 0's adjacency, but its community has the higher id.
    fn tied_path() -> (Graph, ModularityState) {
        let g = GraphBuilder::from_unweighted_edges(5, [(0, 3), (0, 4), (1, 4), (2, 3)]).unwrap();
        let state = ModularityState::new(&g, &Partition::from_labels(vec![0, 1, 2, 2, 1]).unwrap());
        assert_eq!(g.neighbors(0).next().map(|(v, _)| v), Some(3), "adjacency premise");
        assert_eq!(state.gain(&g, 0, 1).to_bits(), state.gain(&g, 0, 2).to_bits(), "tie premise");
        (g, state)
    }

    #[test]
    fn best_move_ties_resolve_to_the_first_seen_neighbour() {
        let (g, state) = tied_path();
        let (community, gain) = best_move(&mut NeighborScan::new(), &g, &state, 0).unwrap();
        assert_eq!(community, state.community_of(3));
        assert_eq!(community, 2);
        assert!(gain > 0.0);
    }

    #[test]
    fn best_move_ties_resolve_to_the_lowest_community() {
        let (g, state) = tied_path();
        let mut scan = NeighborScan::with_lowest_id_ties();
        let (community, gain) = best_move(&mut scan, &g, &state, 0).unwrap();
        assert_eq!(community, 1);
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
        let dense = modularity_dense(&g, &p);
        assert!((fast - dense).abs() < 1e-12);
    }
}
