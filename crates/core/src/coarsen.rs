//! Heavy-edge-matching coarsening (the Coarsening phase of Algorithm 2).
//!
//! Vertices are greedily matched along edges with a high score
//!
//! ```text
//! w(e) = α · |N(u) ∩ N(v)| / |N(u) ∪ N(v)|  +  β · A_uv / max_e A_e     (Eq. 6)
//! ```
//!
//! (neighbourhood Jaccard similarity plus normalised edge weight), matched
//! pairs are merged into super-nodes, and the process repeats until the graph
//! has at most `threshold` nodes or stops shrinking.

use crate::CdError;
use qhdcd_graph::{quotient, Graph, Partition};

/// Configuration of the coarsening phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarsenConfig {
    /// Weight `α` of the neighbourhood-overlap (Jaccard) term in Eq. 6.
    pub alpha: f64,
    /// Weight `β` of the normalised edge-weight term in Eq. 6.
    pub beta: f64,
    /// Stop coarsening once the graph has at most this many nodes.
    pub threshold: usize,
    /// Hard cap on the number of coarsening levels.
    pub max_levels: usize,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig { alpha: 0.5, beta: 0.5, threshold: 200, max_levels: 20 }
    }
}

impl CoarsenConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdError::InvalidConfig`] for non-finite/negative weights, a
    /// zero threshold or a zero level cap.
    pub fn validate(&self) -> Result<(), CdError> {
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta)] {
            if !v.is_finite() || v < 0.0 {
                return Err(CdError::InvalidConfig {
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        if self.threshold == 0 {
            return Err(CdError::InvalidConfig { reason: "threshold must be > 0".into() });
        }
        if self.max_levels == 0 {
            return Err(CdError::InvalidConfig { reason: "max_levels must be > 0".into() });
        }
        Ok(())
    }
}

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarsened graph at this level.
    pub graph: Graph,
    /// For every node of the *previous (finer)* level, the index of its
    /// super-node in [`CoarseLevel::graph`].
    pub coarse_of: Vec<usize>,
}

/// The full coarsening hierarchy produced by [`coarsen_hierarchy`]. Level 0 is
/// the first coarsened graph; the original graph is not stored.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// The levels, finest to coarsest.
    pub levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// The coarsest graph of the hierarchy, or `None` if no coarsening happened.
    pub fn coarsest(&self) -> Option<&Graph> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Number of coarsening levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

/// The matching-order key of the edge `(u, v)`, `u < v`, scored `score` by
/// Eq. 6: `!(score + 0.0).to_bits()` in the high 64 bits, then `u` and `v` in
/// 32 bits each. Ascending keys visit edges by descending score, ties broken by
/// ascending `(u, v)`.
///
/// Scores are finite and non-negative (weights, `α` and `β` are validated), and
/// such floats order as their bit patterns do. `+ 0.0` maps −0.0 to +0.0, the
/// one pair of distinct patterns `partial_cmp` calls equal. Every edge has its
/// own `(u, v)`, so the keys are distinct and the order is total.
fn match_key(score: f64, u: usize, v: usize) -> u128 {
    (u128::from(!(score + 0.0).to_bits()) << 64) | ((u as u128) << 32) | v as u128
}

/// Scores every non-loop edge of `graph` by Eq. 6 and returns its
/// [`match_key`], in no particular order. The Jaccard term compares
/// `N(u) \ {u, v}` with `N(v) \ {u, v}`.
///
/// Each edge is scored once, from the endpoint `u` with more neighbours (the
/// higher id on a tie). `u` stamps its neighbours other than itself into one
/// `mark` vector, and the other endpoint's neighbour list is counted against
/// the stamps without branching: `Σ_{x ∈ N(v)} [mark[x] = u]` counts every
/// common neighbour, and `v` itself when `v` has a self-loop. Neighbour counts
/// and self-loop flags are taken once per graph. Work is
/// `O(m + Σ_edges min(|N(u)|, |N(v)|))` with no hashing and no per-edge
/// allocation, so a hub costs one stamp pass rather than one pass per incident
/// edge. The intersection and union are integer counts, so the score does not
/// depend on how they are counted.
///
/// # Panics
///
/// Panics if `graph` has more than `u32::MAX` nodes, whose ids would not fit
/// the key.
fn edge_keys(graph: &Graph, config: &CoarsenConfig) -> Vec<u128> {
    let n = graph.num_nodes();
    assert!(u32::try_from(n).is_ok(), "coarsening supports at most {} nodes, got {n}", u32::MAX);
    let max_weight = graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
    let self_loop: Vec<usize> =
        (0..n).map(|x| usize::from(graph.neighbor_ids(x).binary_search(&x).is_ok())).collect();
    // |N(x) \ {x}|.
    let others: Vec<usize> = (0..n).map(|x| graph.neighbor_count(x) - self_loop[x]).collect();
    let rank = |x: usize| (graph.neighbor_count(x), x);
    let mut keys = Vec::with_capacity(graph.num_edges());
    // No node has id `u32::MAX`, so the initial marks match no stamp.
    let mut mark = vec![u32::MAX; n];
    for u in 0..n {
        let stamp = u as u32;
        for &x in graph.neighbor_ids(u) {
            if x != u {
                mark[x] = stamp;
            }
        }
        for (v, w) in graph.neighbors(u) {
            if rank(v) >= rank(u) {
                continue;
            }
            let hits: usize =
                graph.neighbor_ids(v).iter().map(|&x| usize::from(mark[x] == stamp)).sum();
            let inter = hits - self_loop[v];
            // u ∈ N(v) and v ∈ N(u): each side drops the other endpoint.
            let union = (others[u] - 1) + (others[v] - 1) - inter;
            let jaccard = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
            let score = config.alpha * jaccard + config.beta * w / max_weight;
            keys.push(match_key(score, u.min(v), u.max(v)));
        }
    }
    keys
}

/// Computes the Eq. 6 matching score for every edge of `graph` and performs one
/// round of greedy heavy-edge matching, returning the super-node index of every
/// node. Unmatched nodes become singleton super-nodes.
///
/// Each edge's key holds `!(score + 0.0).to_bits()` above the ids `u` and `v`
/// ([`match_key`]), so one integer sort of the keys visits edges by descending
/// score, ties broken by ascending `(u, v)`: the order a `partial_cmp`
/// comparator sort gives.
fn match_round(graph: &Graph, config: &CoarsenConfig) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut keys = edge_keys(graph, config);
    keys.sort_unstable();

    let mut matched = vec![false; n];
    let mut partner: Vec<Option<usize>> = vec![None; n];
    for key in keys {
        let (u, v) = ((key >> 32) as u32 as usize, key as u32 as usize);
        if !matched[u] && !matched[v] {
            matched[u] = true;
            matched[v] = true;
            partner[u] = Some(v);
            partner[v] = Some(u);
        }
    }
    // Assign super-node ids: each matched pair and each unmatched node gets one.
    let mut super_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for u in 0..n {
        if super_of[u] != usize::MAX {
            continue;
        }
        super_of[u] = next;
        if let Some(v) = partner[u] {
            super_of[v] = next;
        }
        next += 1;
    }
    super_of
}

/// Performs one coarsening step (one matching round + aggregation).
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for invalid configurations and
/// [`CdError::Graph`] if aggregation fails.
pub fn coarsen_once(graph: &Graph, config: &CoarsenConfig) -> Result<CoarseLevel, CdError> {
    config.validate()?;
    let super_of = match_round(graph, config);
    let partition = Partition::from_labels(super_of).map_err(CdError::Graph)?;
    let q = quotient::aggregate(graph, &partition).map_err(CdError::Graph)?;
    Ok(CoarseLevel { graph: q.graph, coarse_of: q.coarse_of })
}

/// Coarsens `graph` repeatedly until it has at most `config.threshold` nodes,
/// stops shrinking, or `config.max_levels` levels have been produced
/// (the Coarsening phase of Algorithm 2).
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for invalid configurations and
/// [`CdError::Graph`] if aggregation fails.
///
/// # Example
///
/// ```
/// use qhdcd_core::coarsen::{coarsen_hierarchy, CoarsenConfig};
/// use qhdcd_graph::generators;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let pg = generators::ring_of_cliques(10, 10)?;
/// let config = CoarsenConfig { threshold: 25, ..CoarsenConfig::default() };
/// let hierarchy = coarsen_hierarchy(&pg.graph, &config)?;
/// assert!(hierarchy.coarsest().map(|g| g.num_nodes()).unwrap_or(100) <= 25);
/// # Ok(())
/// # }
/// ```
pub fn coarsen_hierarchy(graph: &Graph, config: &CoarsenConfig) -> Result<Hierarchy, CdError> {
    config.validate()?;
    let mut hierarchy = Hierarchy::default();
    while hierarchy.levels.len() < config.max_levels {
        let current = hierarchy.coarsest().unwrap_or(graph);
        if current.num_nodes() <= config.threshold {
            break;
        }
        let level = coarsen_once(current, config)?;
        if level.graph.num_nodes() >= current.num_nodes() {
            break; // No progress: nothing could be matched.
        }
        hierarchy.levels.push(level);
    }
    Ok(hierarchy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qhdcd_graph::{generators, DynamicGraph, GraphBuilder};

    #[test]
    fn config_validation() {
        assert!(CoarsenConfig::default().validate().is_ok());
        assert!(CoarsenConfig { alpha: -1.0, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { beta: f64::NAN, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { threshold: 0, ..CoarsenConfig::default() }.validate().is_err());
        assert!(CoarsenConfig { max_levels: 0, ..CoarsenConfig::default() }.validate().is_err());
    }

    #[test]
    fn one_round_roughly_halves_the_graph() {
        let pg = generators::ring_of_cliques(8, 8).unwrap();
        let level = coarsen_once(&pg.graph, &CoarsenConfig::default()).unwrap();
        let n0 = pg.graph.num_nodes();
        let n1 = level.graph.num_nodes();
        assert!(n1 < n0);
        assert!(n1 >= n0 / 2);
        assert_eq!(level.coarse_of.len(), n0);
        // Total edge weight and node weight are preserved by aggregation.
        assert!((level.graph.total_edge_weight() - pg.graph.total_edge_weight()).abs() < 1e-9);
        assert!((level.graph.total_node_weight() - n0 as f64).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_reaches_the_threshold() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 300,
            num_communities: 6,
            p_in: 0.25,
            p_out: 0.01,
            seed: 4,
        })
        .unwrap();
        let config = CoarsenConfig { threshold: 60, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        assert!(h.num_levels() >= 1);
        assert!(h.coarsest().unwrap().num_nodes() <= 60);
        // Node weights on the coarsest graph sum to the original node count.
        assert!((h.coarsest().unwrap().total_node_weight() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn small_graphs_are_not_coarsened() {
        let g = generators::karate_club();
        let h = coarsen_hierarchy(&g, &CoarsenConfig::default()).unwrap();
        assert_eq!(h.num_levels(), 0);
        assert!(h.coarsest().is_none());
    }

    #[test]
    fn matching_prefers_dense_neighbourhood_overlap() {
        // Two triangles joined by one bridge: the highest-scoring matches are
        // inside the triangles (Jaccard 1), so the first merged pairs are
        // intra-triangle, never the bridge.
        let g = GraphBuilder::from_unweighted_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap();
        let super_of =
            match_round(&g, &CoarsenConfig { alpha: 1.0, beta: 0.1, ..CoarsenConfig::default() });
        // The two Jaccard-1 pairs (0,1) and (4,5) are matched first; the bridge
        // endpoints 2 and 3 can only pair up with whatever is left.
        assert_eq!(super_of[0], super_of[1]);
        assert_eq!(super_of[4], super_of[5]);
        assert_ne!(super_of[0], super_of[4]);
    }

    #[test]
    fn projection_round_trip_through_the_hierarchy() {
        let pg = generators::ring_of_cliques(12, 6).unwrap();
        let config = CoarsenConfig { threshold: 18, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        let coarsest_nodes = h.coarsest().unwrap().num_nodes();
        let coarsest_partition = Partition::singletons(coarsest_nodes);
        // Walk the levels from coarsest to finest, as multilevel uncoarsening
        // does (the Projection step of Algorithm 2).
        let lifted = h
            .levels
            .iter()
            .rev()
            .fold(coarsest_partition, |partition, level| partition.project(&level.coarse_of));
        assert_eq!(lifted.num_nodes(), pg.graph.num_nodes());
        assert_eq!(lifted.num_communities(), coarsest_nodes);
    }

    #[test]
    fn disconnected_nodes_survive_coarsening() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        // Nodes 2, 3, 4 are isolated.
        let g = b.build();
        let level = coarsen_once(&g, &CoarsenConfig::default()).unwrap();
        assert_eq!(level.graph.num_nodes(), 4); // (0,1) merged, 3 singletons.
        assert!((level.graph.total_node_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_is_between_zero_and_one() {
        // With α = 1 and β = 0 the Eq. 6 score is the Jaccard term alone.
        let g = generators::karate_club();
        let config = CoarsenConfig { alpha: 1.0, beta: 0.0, ..CoarsenConfig::default() };
        let keys = edge_keys(&g, &config);
        assert_eq!(keys.len(), g.edges().filter(|&(u, v, _)| u != v).count());
        for (j, u, v) in keys.into_iter().map(unpack) {
            assert!(u < v && g.has_edge(u, v));
            assert!((0.0..=1.0).contains(&j), "({u}, {v}): {j}");
        }
    }

    /// A [`match_key`] split back into `(score, u, v)`.
    fn unpack(key: u128) -> (f64, usize, usize) {
        (f64::from_bits(!((key >> 64) as u64)), (key >> 32) as u32 as usize, key as u32 as usize)
    }

    /// The per-edge `HashSet` Jaccard the stamped kernel replaced: the oracle
    /// for its scores.
    fn reference_scores(graph: &Graph, config: &CoarsenConfig) -> Vec<(f64, usize, usize)> {
        use std::collections::HashSet;
        let max_weight =
            graph.edges().map(|(_, _, w)| w).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
        let mut scored = Vec::new();
        for (u, v, w) in graph.edges() {
            if u == v {
                continue;
            }
            let set_u: HashSet<usize> =
                graph.neighbors(u).map(|(x, _)| x).filter(|&x| x != u && x != v).collect();
            let set_v: HashSet<usize> =
                graph.neighbors(v).map(|(x, _)| x).filter(|&x| x != u && x != v).collect();
            let intersection = set_u.intersection(&set_v).count() as f64;
            let union = set_u.union(&set_v).count() as f64;
            let jaccard = if union == 0.0 { 0.0 } else { intersection / union };
            scored.push((config.alpha * jaccard + config.beta * w / max_weight, u, v));
        }
        scored
    }

    #[test]
    fn negative_zero_scores_tie_with_positive_zero_ones() {
        // With α = −0.0 the path's edge (0, 1), weighted +0.0, scores +0.0 and
        // its edge (1, 2), weighted −0.0, scores −0.0. `partial_cmp` calls the
        // two equal, so the lower ids (0, 1) match first.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0).unwrap();
        b.add_edge(1, 2, 0.0).unwrap();
        let path = with_negative_zeros(&b.build());
        assert_eq!(path.edge_weight(1, 2).map(f64::to_bits), Some((-0.0f64).to_bits()));
        let config = CoarsenConfig { alpha: -0.0, beta: 1.0, ..CoarsenConfig::default() };
        assert_eq!(match_round(&path, &config), [0, 0, 1]);
        assert_eq!(reference_match_round(&path, &config), [0, 0, 1]);
    }

    /// Random graphs with real weights, self-loops, parallel edges (merged by
    /// the builder), isolated nodes, and optionally a star over every node.
    fn arbitrary_graph() -> impl Strategy<Value = Graph> {
        let edge = (0usize..64, 0usize..64, 0u32..4);
        (1usize..48, proptest::collection::vec(edge, 0..160), any::<bool>(), 0usize..64).prop_map(
            |(n, raw, star, hub)| {
                let mut b = GraphBuilder::new(n);
                // The top quarter of the ids gets no random edges.
                let span = (n - n / 4).max(1);
                for (u, v, w) in raw {
                    let w = match w {
                        0 => 1.0,
                        1 => 0.0,
                        2 => 0.1 + (u * v) as f64 / 7.0,
                        _ => 2.5,
                    };
                    b.add_edge(u % span, v % span, w).unwrap();
                }
                if star {
                    let hub = hub % n;
                    for leaf in (0..n).filter(|&leaf| leaf != hub) {
                        b.add_edge(hub, leaf, 1.0).unwrap();
                    }
                }
                b.build()
            },
        )
    }

    /// Random simple graphs with every weight 1: the normalised-weight terms
    /// all tie, and so do many Jaccard terms.
    fn unit_weight_graph() -> impl Strategy<Value = Graph> {
        let edge = (0usize..40, 0usize..40);
        (2usize..40, proptest::collection::vec(edge, 0..140)).prop_map(|(n, raw)| {
            let edges: std::collections::BTreeSet<(usize, usize)> = raw
                .into_iter()
                .map(|(u, v)| ((u % n).min(v % n), (u % n).max(v % n)))
                .filter(|&(u, v)| u != v)
                .collect();
            GraphBuilder::from_unweighted_edges(n, edges).unwrap()
        })
    }

    /// `graph` with every other zero weight, from the second on, set to −0.0,
    /// which the streaming graph's `update_weight` stores as given.
    fn with_negative_zeros(graph: &Graph) -> Graph {
        let mut dynamic = DynamicGraph::from_graph(graph);
        for (i, (u, v, _)) in graph.edges().filter(|&(_, _, w)| w == 0.0).enumerate() {
            if i % 2 == 1 {
                dynamic.update_weight(u, v, -0.0).unwrap();
            }
        }
        dynamic.snapshot()
    }

    /// The comparator sort and greedy matching the `u128` keys replaced, over
    /// the `HashSet` oracle's scores: the oracle for [`match_round`].
    fn reference_match_round(graph: &Graph, config: &CoarsenConfig) -> Vec<usize> {
        let n = graph.num_nodes();
        let mut scored = reference_scores(graph, config);
        scored.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("scores are finite")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut partner: Vec<Option<usize>> = vec![None; n];
        for (_, u, v) in scored {
            if partner[u].is_none() && partner[v].is_none() {
                partner[u] = Some(v);
                partner[v] = Some(u);
            }
        }
        let mut super_of = vec![usize::MAX; n];
        let mut next = 0usize;
        for u in 0..n {
            if super_of[u] == usize::MAX {
                super_of[u] = next;
                if let Some(v) = partner[u] {
                    super_of[v] = next;
                }
                next += 1;
            }
        }
        super_of
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every edge's Eq. 6 score from the stamped kernel is bit-equal to the
        /// `HashSet` oracle's.
        #[test]
        fn stamped_scores_are_bit_equal_to_the_hash_set_oracle(
            graph in arbitrary_graph(),
            alpha in 0.0f64..2.0,
            beta in 0.0f64..2.0,
        ) {
            let config = CoarsenConfig { alpha, beta, ..CoarsenConfig::default() };
            // The key stores `score + 0.0`.
            let key = |(score, u, v): (f64, usize, usize)| (u, v, (score + 0.0).to_bits());
            let mut fast: Vec<_> =
                edge_keys(&graph, &config).into_iter().map(unpack).map(key).collect();
            let mut oracle: Vec<_> =
                reference_scores(&graph, &config).into_iter().map(key).collect();
            fast.sort_unstable();
            oracle.sort_unstable();
            prop_assert_eq!(fast, oracle);
        }

        /// Sorting `u128` keys visits edges in the comparator sort's order, so
        /// the matching is the comparator oracle's, also where scores tie: on
        /// unit weights, with `α` or `β` zero, and where −0.0 scores (α = −0.0
        /// on −0.0 weights) meet +0.0 ones.
        #[test]
        fn key_sorted_matching_equals_the_comparator_oracle(
            graph in arbitrary_graph(),
            unit in unit_weight_graph(),
            zero in 0usize..5,
            (alpha, beta) in (0.0f64..2.0, 0.0f64..2.0),
        ) {
            let (alpha, beta) = match zero {
                0 => (0.0, beta),
                1 => (alpha, 0.0),
                2 => (0.0, 0.0),
                3 => (-0.0, beta),
                _ => (alpha, beta),
            };
            let config = CoarsenConfig { alpha, beta, ..CoarsenConfig::default() };
            for g in [&graph, &with_negative_zeros(&graph), &unit] {
                prop_assert_eq!(match_round(g, &config), reference_match_round(g, &config));
            }
        }
    }

    #[test]
    fn max_levels_caps_the_hierarchy_depth() {
        let pg = generators::ring_of_cliques(32, 8).unwrap();
        let config = CoarsenConfig { threshold: 2, max_levels: 2, ..CoarsenConfig::default() };
        let h = coarsen_hierarchy(&pg.graph, &config).unwrap();
        assert!(h.num_levels() <= 2);
    }
}
