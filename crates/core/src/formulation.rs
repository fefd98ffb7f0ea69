//! The community-detection → QUBO encoding (Algorithm 1 of the paper).
//!
//! Binary variables `x_{i,c} ∈ {0,1}` indicate that node `i` belongs to
//! community `c ∈ {0, …, k−1}`, flattened as `idx(i, c) = i·k + c`. The QUBO to
//! *minimise* is
//!
//! ```text
//! Q = −w₁ · Σ_{i,j} B_ij Σ_c x_{i,c} x_{j,c}          (quality reward, Eq. 2)
//!   + λ_A · Σ_i (1 − Σ_c x_{i,c})²                     (assignment constraint, Eq. 3)
//!   + λ_S · Σ_c (Σ_i x_{i,c} − n/k)²                   (balanced sizes, Eq. 4)
//! ```
//!
//! with `B` the quality matrix of the configured [`QualityFunction`]:
//! `B_ij = A_ij − γ d_i d_j / (2m)` for (resolution-γ) modularity — the
//! paper's Eq. 2 at γ = 1 — and `B_ij = A_ij − γ [i ≠ j]` for the constant
//! Potts model. The solvers therefore optimize exactly the objective the
//! refinement phase improves. The decoder maps a binary solution back to a
//! [`Partition`], repairing nodes whose one-hot constraint is violated.
//!
//! Every term above joins two slots of one node or the same slot of two
//! nodes, and each node pair gets the same coefficient bits in every slot.
//! [`build_qubo`] declares that layout on the model it returns
//! ([`QuboModel::with_node_slots`]), which checks it against the rows, so the
//! mean-field sweep walks each node's couplings once for all `k` slots.

use crate::CdError;
use qhdcd_graph::{modularity, Graph, Partition, QualityFunction};
use qhdcd_qubo::{BinarySolution, QuboBuilder, QuboModel};

/// Configuration of the QUBO encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct FormulationConfig {
    /// Number of communities `k` (the number of one-hot slots per node).
    pub num_communities: usize,
    /// Weight `w₁` of the modularity reward term.
    pub modularity_weight: f64,
    /// Weight multiplier for the assignment penalty `λ_A`. The actual penalty is
    /// `assignment_weight × (largest per-node modularity stake)`, so the default
    /// of 2.0 guarantees that violating the one-hot constraint never pays off.
    pub assignment_weight: f64,
    /// Relative weight of the balanced-size penalty `λ_S`. It is scaled by
    /// `2m·k²/n²` internally so that a size deviation of the order of a whole
    /// community costs about `balance_weight × 2m` — comparable to, but by
    /// default much smaller than, the total modularity stake.
    pub balance_weight: f64,
    /// The quality function whose matrix `B` the reward term encodes
    /// (unit-resolution modularity by default). Must match the refinement
    /// configuration so solvers and refiners optimize the same objective.
    pub quality: QualityFunction,
}

impl Default for FormulationConfig {
    fn default() -> Self {
        FormulationConfig {
            num_communities: 4,
            modularity_weight: 1.0,
            assignment_weight: 2.0,
            balance_weight: 0.05,
            quality: QualityFunction::default(),
        }
    }
}

impl FormulationConfig {
    /// Convenience constructor fixing only the number of communities.
    pub fn with_communities(num_communities: usize) -> Self {
        FormulationConfig { num_communities, ..FormulationConfig::default() }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::InvalidConfig`] if `num_communities` is zero or any
    /// weight is negative or non-finite.
    pub fn validate(&self) -> Result<(), CdError> {
        if self.num_communities == 0 {
            return Err(CdError::InvalidConfig { reason: "num_communities must be > 0".into() });
        }
        for (name, w) in [
            ("modularity_weight", self.modularity_weight),
            ("assignment_weight", self.assignment_weight),
            ("balance_weight", self.balance_weight),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(CdError::InvalidConfig {
                    reason: format!("{name} must be finite and non-negative, got {w}"),
                });
            }
        }
        self.quality.validate().map_err(|reason| CdError::InvalidConfig { reason })
    }
}

/// A community-detection QUBO together with the data needed to decode solutions.
#[derive(Debug, Clone)]
pub struct CdQubo {
    model: QuboModel,
    num_nodes: usize,
    num_communities: usize,
    quality: QualityFunction,
}

impl CdQubo {
    /// The underlying QUBO model (`n·k` variables).
    pub fn model(&self) -> &QuboModel {
        &self.model
    }

    /// The quality function the reward term encodes.
    pub fn quality_function(&self) -> QualityFunction {
        self.quality
    }

    /// Number of graph nodes encoded.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of community slots per node.
    pub fn num_communities(&self) -> usize {
        self.num_communities
    }

    /// Flat variable index of `x_{node, community}` (Algorithm 1's `idx`).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()` or
    /// `community >= self.num_communities()`.
    pub fn variable_index(&self, node: usize, community: usize) -> usize {
        assert!(node < self.num_nodes, "node {node} out of range for {} nodes", self.num_nodes);
        assert!(
            community < self.num_communities,
            "community {community} out of range for {} communities",
            self.num_communities
        );
        node * self.num_communities + community
    }

    /// Encodes a partition as a binary assignment of the QUBO variables.
    /// Community labels are taken modulo `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::Graph`] if the partition covers a different number of
    /// nodes than the encoded graph.
    pub fn encode(&self, partition: &Partition) -> Result<BinarySolution, CdError> {
        if partition.num_nodes() != self.num_nodes {
            return Err(CdError::Graph(qhdcd_graph::GraphError::PartitionSizeMismatch {
                labels: partition.num_nodes(),
                nodes: self.num_nodes,
            }));
        }
        let mut x = vec![false; self.num_nodes * self.num_communities];
        let renum = partition.renumbered();
        for node in 0..self.num_nodes {
            let c = renum.community_of(node) % self.num_communities;
            x[self.variable_index(node, c)] = true;
        }
        Ok(x)
    }

    /// Decodes a binary assignment into a [`Partition`].
    ///
    /// Nodes violating the one-hot constraint are repaired: if several
    /// community bits are set the lowest-index one wins; if none is set the
    /// node joins the community that most of its neighbours' decoded bits point
    /// to, the lowest-index one on a tie (community 0 if it has no decided
    /// neighbours). The result is renumbered.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::Qubo`] if the solution length does not match the model.
    pub fn decode(&self, graph: &Graph, solution: &[bool]) -> Result<Partition, CdError> {
        self.model.check_solution(solution)?;
        let k = self.num_communities;
        let mut labels: Vec<Option<usize>> = vec![None; self.num_nodes];
        for node in 0..self.num_nodes {
            for c in 0..k {
                if solution[self.variable_index(node, c)] {
                    labels[node] = Some(c);
                    break;
                }
            }
        }
        // Repair unassigned nodes from their neighbourhood majority.
        let mut final_labels = vec![0usize; self.num_nodes];
        for node in 0..self.num_nodes {
            final_labels[node] = match labels[node] {
                Some(c) => c,
                None => {
                    let mut weight_per_community = vec![0.0f64; k];
                    for (v, w) in graph.neighbors(node) {
                        if let Some(c) = labels[v] {
                            weight_per_community[c] += w;
                        }
                    }
                    // The first maximum wins, so ties go to the lowest index.
                    (0..k).fold(0, |best, c| {
                        if weight_per_community[c] > weight_per_community[best] {
                            c
                        } else {
                            best
                        }
                    })
                }
            };
        }
        Ok(Partition::from_labels(final_labels).map_err(CdError::Graph)?.renumbered())
    }
}

/// Builds the community-detection QUBO for `graph` (Algorithm 1).
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for invalid configurations or graphs with
/// no nodes, and [`CdError::Qubo`] if the model construction fails.
///
/// # Example
///
/// ```
/// use qhdcd_core::formulation::{build_qubo, FormulationConfig};
/// use qhdcd_graph::generators;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let graph = generators::karate_club();
/// let qubo = build_qubo(&graph, &FormulationConfig::with_communities(4))?;
/// assert_eq!(qubo.model().num_variables(), 34 * 4);
/// # Ok(())
/// # }
/// ```
pub fn build_qubo(graph: &Graph, config: &FormulationConfig) -> Result<CdQubo, CdError> {
    config.validate()?;
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CdError::InvalidConfig { reason: "graph has no nodes".into() });
    }
    let k = config.num_communities;
    let two_m = 2.0 * graph.total_edge_weight();
    let mut builder = QuboBuilder::new(n * k);
    let idx = |i: usize, c: usize| i * k + c;

    // --- Quality reward: −w₁ Σ_{i,j} B_ij Σ_c x_ic x_jc.
    // Sparse pass over edges for the A_ij part (shared by every quality
    // function), plus the null-model correction collapsed per node pair only
    // where it matters. For resolution-γ modularity,
    //   Σ_{i,j} B_ij x_ic x_jc = Σ_{i,j} A_ij x_ic x_jc − γ (Σ_i d_i x_ic)²/(2m),
    // a quadratic form over the per-community degree sums which expands into
    // k · O(n²)/2 pairs. For CPM the correction is a flat −γ per same-community
    // ordered pair of distinct nodes. For the direct formulation (small graphs)
    // we add it exactly; it is what makes the encoding faithful to Eq. 2.
    let w1 = config.modularity_weight;
    if two_m > 0.0 {
        // A_ij part (off-diagonal edges contribute to ordered pairs twice).
        for (u, v, w) in graph.edges() {
            let a_uv = if u == v { 2.0 * w } else { w };
            for c in 0..k {
                if u == v {
                    builder.add_linear(idx(u, c), -w1 * a_uv)?;
                } else {
                    // Ordered pairs (u,v) and (v,u) both appear in Eq. 2.
                    builder.add_quadratic(idx(u, c), idx(v, c), -2.0 * w1 * a_uv)?;
                }
            }
        }
        match config.quality {
            QualityFunction::Modularity { resolution } => {
                // −γ (Σ_i d_i x_ic)² / (2m) correction, expanded exactly.
                for c in 0..k {
                    for i in 0..n {
                        let d_i = graph.degree(i);
                        if d_i == 0.0 {
                            continue;
                        }
                        // Diagonal: x_ic² = x_ic.
                        builder.add_linear(idx(i, c), resolution * (w1 * d_i * d_i / two_m))?;
                        for j in (i + 1)..n {
                            let d_j = graph.degree(j);
                            if d_j == 0.0 {
                                continue;
                            }
                            builder.add_quadratic(
                                idx(i, c),
                                idx(j, c),
                                resolution * (2.0 * w1 * d_i * d_j / two_m),
                            )?;
                        }
                    }
                }
            }
            QualityFunction::Cpm { resolution } => {
                // +γ w_i w_j per same-community ordered pair of distinct nodes
                // (2γ w_i w_j per unordered pair) plus the diagonal carry
                // γ w_i (w_i − 1): with super-node counts as node weights the
                // null term is exact on coarse graphs too (the counts-as-one
                // form is recovered bit-identically at unit weights, where the
                // diagonal vanishes).
                for c in 0..k {
                    for i in 0..n {
                        let w_i = graph.node_weight(i);
                        let diag = w_i * (w_i - 1.0);
                        if diag != 0.0 {
                            builder.add_linear(idx(i, c), w1 * resolution * diag)?;
                        }
                        for j in (i + 1)..n {
                            builder.add_quadratic(
                                idx(i, c),
                                idx(j, c),
                                2.0 * w1 * resolution * (w_i * graph.node_weight(j)),
                            )?;
                        }
                    }
                }
            }
        }
    }

    // --- Assignment constraint λ_A Σ_i (1 − Σ_c x_ic)².
    // λ_A is scaled to dominate the largest per-node quality stake (the
    // node's row of |B|) so that violating the one-hot constraint can never
    // be energetically favourable.
    let max_stake = (0..n)
        .map(|i| {
            let null_model = match config.quality {
                QualityFunction::Modularity { resolution } => {
                    if two_m > 0.0 {
                        resolution * (graph.degree(i) * graph.degree(i) / two_m)
                    } else {
                        0.0
                    }
                }
                QualityFunction::Cpm { resolution } => {
                    // Row sum of the weighted null model:
                    // Σ_{j≠i} γ w_i w_j + γ w_i (w_i − 1) = γ w_i (W − 1).
                    resolution * (graph.node_weight(i) * (graph.total_node_weight() - 1.0))
                }
            };
            let row: f64 = graph.neighbors(i).map(|(_, w)| w).sum::<f64>() + null_model;
            2.0 * w1 * row
        })
        .fold(1.0f64, f64::max);
    let lambda_a = config.assignment_weight * max_stake;
    for i in 0..n {
        let vars: Vec<usize> = (0..k).map(|c| idx(i, c)).collect();
        builder.add_penalty_exactly_one(&vars, lambda_a)?;
    }

    // --- Balanced-size constraint λ_S Σ_c (Σ_i x_ic − n/k)².
    if config.balance_weight > 0.0 {
        let lambda_s =
            config.balance_weight * two_m.max(1.0) * (k as f64).powi(2) / (n as f64).powi(2);
        let target = n as f64 / k as f64;
        for c in 0..k {
            let vars: Vec<usize> = (0..n).map(|i| idx(i, c)).collect();
            builder.add_penalty_sum_equals(&vars, target, lambda_s)?;
        }
    }

    // Every node-pair coefficient above went into each slot with the same
    // additions in the same order, so the declared layout holds bit for bit.
    let model = builder.build().with_node_slots(k);
    Ok(CdQubo { model, num_nodes: n, num_communities: k, quality: config.quality })
}

/// Evaluates the encoded quality function (not the raw QUBO energy) on the
/// partition a binary solution decodes to, under the
/// [`FormulationConfig::quality`] the QUBO was built with.
///
/// # Errors
///
/// Returns [`CdError::Qubo`] if the solution does not match the encoded model.
pub fn decoded_quality(qubo: &CdQubo, graph: &Graph, solution: &[bool]) -> Result<f64, CdError> {
    let partition = qubo.decode(graph, solution)?;
    Ok(modularity::quality(graph, &partition, qubo.quality_function()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qhdcd_graph::{generators, quotient, GraphBuilder};
    use qhdcd_qubo::{QuboBuilder, QuboSolver};
    use qhdcd_solvers::ExhaustiveSearch;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::ops::Range;

    fn two_triangles() -> Graph {
        GraphBuilder::from_unweighted_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(FormulationConfig::default().validate().is_ok());
        assert!(FormulationConfig::with_communities(0).validate().is_err());
        let bad = FormulationConfig { modularity_weight: -1.0, ..FormulationConfig::default() };
        assert!(bad.validate().is_err());
        let bad = FormulationConfig { balance_weight: f64::NAN, ..FormulationConfig::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn variable_layout_matches_algorithm_one() {
        let g = two_triangles();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(3)).unwrap();
        assert_eq!(qubo.model().num_variables(), 18);
        assert_eq!(qubo.variable_index(0, 0), 0);
        assert_eq!(qubo.variable_index(0, 2), 2);
        assert_eq!(qubo.variable_index(1, 0), 3);
        assert_eq!(qubo.num_nodes(), 6);
        assert_eq!(qubo.num_communities(), 3);
    }

    #[test]
    #[should_panic(expected = "node 6 out of range for 6 nodes")]
    fn variable_index_rejects_a_node_past_the_graph() {
        let qubo = build_qubo(&two_triangles(), &FormulationConfig::with_communities(3)).unwrap();
        qubo.variable_index(6, 0);
    }

    #[test]
    #[should_panic(expected = "community 3 out of range for 3 communities")]
    fn variable_index_rejects_a_community_past_the_slots() {
        // Unchecked, (0, 3) would alias (1, 0).
        let qubo = build_qubo(&two_triangles(), &FormulationConfig::with_communities(3)).unwrap();
        qubo.variable_index(0, 3);
    }

    #[test]
    fn encode_decode_round_trip_is_identity_for_valid_partitions() {
        let g = two_triangles();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(2)).unwrap();
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let x = qubo.encode(&p).unwrap();
        let decoded = qubo.decode(&g, &x).unwrap();
        assert_eq!(decoded, p.renumbered());
        // Mismatched partition size is rejected.
        assert!(qubo.encode(&Partition::singletons(4)).is_err());
        // Wrong solution length is rejected.
        assert!(qubo.decode(&g, &[true]).is_err());
    }

    #[test]
    fn qubo_energy_orders_partitions_by_modularity() {
        // The QUBO energy of encoded valid partitions must rank the natural
        // 2-community split strictly better than the all-in-one and the
        // alternating split.
        let g = two_triangles();
        let config =
            FormulationConfig { balance_weight: 0.0, ..FormulationConfig::with_communities(2) };
        let qubo = build_qubo(&g, &config).unwrap();
        let energy = |labels: Vec<usize>| {
            let p = Partition::from_labels(labels).unwrap();
            let x = qubo.encode(&p).unwrap();
            qubo.model().evaluate(&x).unwrap()
        };
        let natural = energy(vec![0, 0, 0, 1, 1, 1]);
        let merged = energy(vec![0; 6]);
        let alternating = energy(vec![0, 1, 0, 1, 0, 1]);
        assert!(natural < merged, "natural={natural} merged={merged}");
        assert!(natural < alternating, "natural={natural} alternating={alternating}");
    }

    #[test]
    fn qubo_energy_of_valid_partitions_tracks_negative_modularity() {
        // For valid (one-hot) assignments with balance_weight = 0, the QUBO energy
        // is an affine function of the partition's modularity: E = −w₁·2m·Q + const.
        let g = two_triangles();
        let config =
            FormulationConfig { balance_weight: 0.0, ..FormulationConfig::with_communities(2) };
        let qubo = build_qubo(&g, &config).unwrap();
        let two_m = 2.0 * g.total_edge_weight();
        let mut checked = 0;
        let mut reference: Option<f64> = None;
        for labels in [vec![0, 0, 0, 1, 1, 1], vec![0, 1, 0, 1, 0, 1], vec![0, 0, 1, 1, 1, 0]] {
            let p = Partition::from_labels(labels).unwrap();
            let q = modularity::modularity(&g, &p);
            let x = qubo.encode(&p).unwrap();
            let e = qubo.model().evaluate(&x).unwrap();
            let constant = e + two_m * q;
            match reference {
                None => reference = Some(constant),
                Some(r) => assert!((constant - r).abs() < 1e-9, "constant {constant} vs {r}"),
            }
            checked += 1;
        }
        assert_eq!(checked, 3);
    }

    #[test]
    fn generalized_qubo_energy_tracks_its_quality_function() {
        // For valid one-hot assignments with balance_weight = 0, the QUBO
        // energy is affine in the configured quality: E = −w₁·s·Q + const,
        // where the scale s is 2m for modularity and 2 for CPM.
        let g = two_triangles();
        let two_m = 2.0 * g.total_edge_weight();
        for resolution in [0.25, 1.0, 4.0] {
            for (quality, scale) in [
                (QualityFunction::modularity(resolution), two_m),
                (QualityFunction::cpm(resolution), 2.0),
            ] {
                let config = FormulationConfig {
                    balance_weight: 0.0,
                    quality,
                    ..FormulationConfig::with_communities(2)
                };
                let qubo = build_qubo(&g, &config).unwrap();
                let mut reference: Option<f64> = None;
                for labels in
                    [vec![0, 0, 0, 1, 1, 1], vec![0, 1, 0, 1, 0, 1], vec![0, 0, 1, 1, 1, 0]]
                {
                    let p = Partition::from_labels(labels).unwrap();
                    let q = modularity::quality(&g, &p, quality);
                    let x = qubo.encode(&p).unwrap();
                    let e = qubo.model().evaluate(&x).unwrap();
                    let constant = e + scale * q;
                    match reference {
                        None => reference = Some(constant),
                        Some(r) => assert!(
                            (constant - r).abs() < 1e-9,
                            "{quality:?}: constant {constant} vs {r}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn solving_the_cpm_qubo_recovers_the_natural_communities() {
        // Under CPM at γ = 0.5 the natural two-triangle split is the optimum;
        // the exhaustive solver on the CPM-encoded QUBO must find it.
        let g = two_triangles();
        let config = FormulationConfig {
            quality: QualityFunction::cpm(0.5),
            ..FormulationConfig::with_communities(2)
        };
        let qubo = build_qubo(&g, &config).unwrap();
        let report = ExhaustiveSearch.solve(qubo.model()).unwrap();
        let partition = qubo.decode(&g, &report.solution).unwrap();
        let expected = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap().renumbered();
        assert_eq!(partition.renumbered(), expected);
        let q = decoded_quality(&qubo, &g, &report.solution).unwrap();
        assert!((q - 3.0).abs() < 1e-9, "q={q}");
    }

    #[test]
    fn invalid_resolution_is_rejected() {
        let bad = FormulationConfig {
            quality: QualityFunction::modularity(f64::NAN),
            ..FormulationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FormulationConfig {
            quality: QualityFunction::cpm(-1.0),
            ..FormulationConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn solving_the_qubo_recovers_the_natural_communities() {
        let g = two_triangles();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(2)).unwrap();
        let report = ExhaustiveSearch.solve(qubo.model()).unwrap();
        let partition = qubo.decode(&g, &report.solution).unwrap();
        let expected = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap().renumbered();
        assert_eq!(partition.renumbered(), expected);
        let q = modularity::modularity(&g, &partition);
        assert!(q > 0.35, "q={q}");
    }

    #[test]
    fn decoder_repairs_violated_one_hot_constraints() {
        let g = two_triangles();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(2)).unwrap();
        // Node 0: no community bit set; node 1: both set; rest valid.
        let p = Partition::from_labels(vec![0, 0, 0, 1, 1, 1]).unwrap();
        let mut x = qubo.encode(&p).unwrap();
        x[qubo.variable_index(0, 0)] = false;
        x[qubo.variable_index(1, 1)] = true;
        let decoded = qubo.decode(&g, &x).unwrap();
        assert_eq!(decoded.num_nodes(), 6);
        // Node 0's neighbours are all in community 0, so the repair puts it there.
        assert_eq!(decoded.community_of(0), decoded.community_of(2));
    }

    #[test]
    fn decoder_repairs_break_ties_toward_the_lowest_community() {
        // Node 0 decodes to community 0 and node 1 to community 2. Node 2 has
        // no decided neighbour, and node 3 is tied between 0 and 1: both join
        // community 0, as node 0 does.
        let g = GraphBuilder::from_unweighted_edges(4, [(3, 0), (3, 1)]).unwrap();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(3)).unwrap();
        let mut x = vec![false; qubo.model().num_variables()];
        x[qubo.variable_index(0, 0)] = true;
        x[qubo.variable_index(1, 2)] = true;
        assert_eq!(qubo.decode(&g, &x).unwrap().labels(), [0, 1, 0, 0]);
    }

    #[test]
    fn empty_graph_and_zero_weight_graphs_are_handled() {
        assert!(build_qubo(&GraphBuilder::new(0).build(), &FormulationConfig::default()).is_err());
        // A graph with nodes but no edges still builds (modularity term vanishes).
        let g = GraphBuilder::new(3).build();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(2)).unwrap();
        assert_eq!(qubo.model().num_variables(), 6);
    }

    #[test]
    fn decoded_modularity_matches_direct_computation() {
        let g = generators::karate_club();
        let qubo = build_qubo(&g, &FormulationConfig::with_communities(4)).unwrap();
        let p = generators::karate_club_communities();
        let x = qubo.encode(&p).unwrap();
        let via_decode = decoded_quality(&qubo, &g, &x).unwrap();
        let direct = modularity::modularity(&g, &p);
        assert!((via_decode - direct).abs() < 1e-12);
    }

    #[test]
    fn balance_term_discourages_extremely_unbalanced_partitions() {
        // Ring of cliques with k = 2 slots: with a strong balance term, putting
        // everything into one community is more expensive than splitting.
        let pg = generators::ring_of_cliques(2, 5).unwrap();
        let config = FormulationConfig {
            num_communities: 2,
            balance_weight: 1.0,
            ..FormulationConfig::default()
        };
        let qubo = build_qubo(&pg.graph, &config).unwrap();
        let all_one = qubo.encode(&Partition::all_in_one(10)).unwrap();
        let split = qubo.encode(&pg.ground_truth).unwrap();
        assert!(qubo.model().evaluate(&split).unwrap() < qubo.model().evaluate(&all_one).unwrap());
    }

    /// A planted graph of `nodes` nodes in three blocks, from `seed`.
    fn planted(nodes: usize, seed: u64) -> Graph {
        generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: nodes,
            num_communities: 3,
            p_in: 0.5,
            p_out: 0.1,
            seed,
        })
        .unwrap()
        .graph
    }

    /// Every encoding shape whose QUBO must carry its node slots: resolution
    /// modularity, CPM on a coarsened graph with super-node weights and
    /// self-loops, no balance term, no assignment penalty, and graphs with
    /// no edges, isolated nodes, self-loops and zero-weight edges.
    fn layout_variants(seed: u64) -> Vec<(&'static str, Graph, FormulationConfig)> {
        let graph = planted(12 + (seed % 7) as usize, seed);
        let base = FormulationConfig::default();
        let with_quality = |quality| FormulationConfig { quality, ..base.clone() };
        let halves = Partition::from_labels((0..graph.num_nodes()).map(|v| v / 2).collect());
        let coarse = quotient::aggregate(&graph, &halves.unwrap()).unwrap().graph;
        let mut isolated = GraphBuilder::new(graph.num_nodes() + 3);
        let mut looped = GraphBuilder::new(graph.num_nodes());
        let mut zero_weight = GraphBuilder::new(graph.num_nodes());
        for (u, v, w) in graph.edges() {
            isolated.add_edge(u, v, w).unwrap();
            looped.add_edge(u, v, w).unwrap();
            zero_weight.add_edge(u, v, if (u + v) % 3 == 0 { 0.0 } else { w }).unwrap();
        }
        for v in (0..graph.num_nodes()).step_by(3) {
            looped.add_edge(v, v, 1.5).unwrap();
        }
        vec![
            ("modularity γ = 0.5", graph.clone(), with_quality(QualityFunction::modularity(0.5))),
            ("modularity γ = 1", graph.clone(), base.clone()),
            ("modularity γ = 2", graph.clone(), with_quality(QualityFunction::modularity(2.0))),
            ("CPM, coarsened", coarse, with_quality(QualityFunction::cpm(0.1))),
            ("balance 0", graph.clone(), FormulationConfig { balance_weight: 0.0, ..base.clone() }),
            (
                "assignment_weight 0",
                graph.clone(),
                FormulationConfig { assignment_weight: 0.0, ..base.clone() },
            ),
            ("edgeless", GraphBuilder::new(7).build(), base.clone()),
            ("isolated nodes", isolated.build(), base.clone()),
            ("self-loops", looped.build(), base.clone()),
            ("zero-weight edges", zero_weight.build(), base.clone()),
        ]
    }

    /// `config` at `k` communities.
    fn at(config: &FormulationConfig, k: usize) -> FormulationConfig {
        FormulationConfig { num_communities: k, ..config.clone() }
    }

    /// Asserts that `mean_fields` gives every variable of `vars` the bits of
    /// `mean_field`.
    fn assert_gather_is_mean_field(model: &QuboModel, p: &[f64], vars: Range<usize>) {
        let mut fields = vec![f64::NAN; vars.len()];
        model.mean_fields(p, vars.clone(), &mut fields);
        for (i, field) in vars.zip(&fields) {
            assert_eq!(field.to_bits(), model.mean_field(p, i).to_bits(), "variable {i}");
        }
    }

    /// `model`'s coefficients, with `edit` applied to its pair list, rebuilt
    /// through `QuboBuilder` with `extra` uncoupled variables appended.
    fn rebuilt(
        model: &QuboModel,
        extra: usize,
        edit: impl FnOnce(&mut Vec<(usize, usize, f64)>),
    ) -> QuboModel {
        let mut pairs: Vec<_> = model.quadratic_terms().collect();
        edit(&mut pairs);
        let mut b = QuboBuilder::new(model.num_variables() + extra);
        for (i, &w) in model.linear().iter().enumerate() {
            b.add_linear(i, w).unwrap();
        }
        for (i, j, w) in pairs {
            b.add_quadratic(i, j, w).unwrap();
        }
        b.build()
    }

    /// `n` occupation probabilities drawn uniformly from [0, 1].
    fn uniform_p(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect()
    }

    #[test]
    fn every_build_qubo_model_carries_its_node_slots() {
        for seed in [1u64, 2] {
            for (name, graph, config) in layout_variants(seed) {
                for k in [2usize, 3, 5, 8] {
                    let qubo = build_qubo(&graph, &at(&config, k)).unwrap();
                    assert_eq!(qubo.model().node_slots(), Some(k), "{name}, k = {k}");
                }
                // One slot per node is no layout to share.
                let qubo = build_qubo(&graph, &at(&config, 1)).unwrap();
                assert_eq!(qubo.model().node_slots(), None, "{name}, k = 1");
            }
        }
    }

    #[test]
    fn the_node_slot_check_refuses_every_near_miss() {
        let k = 3;
        let graph = planted(10, 4);
        let qubo = build_qubo(&graph, &FormulationConfig::with_communities(k)).unwrap();
        let model = qubo.model();
        let p = uniform_p(model.num_variables() + 1, 9);
        // The first slot-1 pair of two different nodes, and where it sits.
        let (a, b, _) = model
            .quadratic_terms()
            .find(|&(i, j, _)| i / k != j / k && i % k == 1)
            .expect("the graph has edges");
        let position = |pairs: &[(usize, usize, f64)]| {
            pairs.iter().position(|&(i, j, _)| (i, j) == (a, b)).unwrap()
        };
        let same = rebuilt(model, 0, |_| {});
        assert_eq!(same.clone().with_node_slots(k).node_slots(), Some(k), "control");
        let near_misses = [
            (
                "one ulp off in one slot",
                rebuilt(model, 0, |pairs| {
                    let at = position(pairs);
                    pairs[at].2 = f64::from_bits(pairs[at].2.to_bits() + 1);
                }),
                k,
            ),
            (
                "a same-slot pair missing from one slot",
                rebuilt(model, 0, |pairs| {
                    pairs.remove(position(pairs));
                }),
                k,
            ),
            (
                "a cross-slot coupling between two nodes",
                rebuilt(model, 0, |pairs| pairs.push((a - 1, b, 0.5))),
                k,
            ),
            ("k does not divide the variables", rebuilt(model, 1, |_| {}), k),
            ("k = 1", same, 1),
        ];
        for (name, near_miss, slots) in near_misses {
            let declared = near_miss.with_node_slots(slots);
            assert_eq!(declared.node_slots(), None, "{name}");
            let n = declared.num_variables();
            assert_gather_is_mean_field(&declared, &p[..n], 0..n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The shared-row gather gives every variable the bits of the row
        /// gather, over the whole model and over random ranges that may cut
        /// nodes, on every encoding shape.
        #[test]
        fn the_shared_row_gather_is_bit_equal_to_mean_field(
            (seed, variant, k) in (0u64..1_000, 0usize..10, 0usize..4),
        ) {
            let (_, graph, config) = layout_variants(seed).swap_remove(variant);
            let k = [2, 3, 5, 8][k];
            let qubo = build_qubo(&graph, &at(&config, k)).unwrap();
            let model = qubo.model();
            prop_assert_eq!(model.node_slots(), Some(k));
            let n = model.num_variables();
            let p = uniform_p(n, seed);
            assert_gather_is_mean_field(model, &p, 0..n);
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            for _ in 0..4 {
                let start = rng.gen_range(0..=n);
                let end = rng.gen_range(start..=n);
                assert_gather_is_mean_field(model, &p, start..end);
            }
        }
    }
}
