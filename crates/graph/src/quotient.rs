//! Graph aggregation (quotient graphs).
//!
//! Aggregating a graph by a partition produces the *super-node graph*: one node
//! per community, edge weights summed across the cut, intra-community weight
//! collected into self-loops, and node weights summed. This is the fundamental
//! operation of the multilevel coarsening phase (Algorithm 2 of the paper) and
//! of the Louvain baseline.

use crate::{Graph, GraphError, Partition};

/// Result of aggregating a graph by a partition.
#[derive(Debug, Clone)]
pub struct QuotientGraph {
    /// The aggregated super-node graph.
    pub graph: Graph,
    /// For each fine node, the index of its super-node in `graph`.
    pub coarse_of: Vec<usize>,
}

/// Aggregates `graph` by `partition`: each community becomes one super-node.
///
/// Intra-community edge weight becomes a self-loop on the super-node so that the
/// total edge weight (and therefore modularity denominators) is preserved. Node
/// weights are summed, so the coarse graph's total node weight equals the fine
/// graph's. Super-nodes are numbered in order of first appearance, as
/// [`Partition::renumbered`] numbers communities.
///
/// Each super-node pair's weight is folded from 0.0 over its fine edges in
/// `graph.edges()` order: the additions, in the same order, that
/// [`crate::GraphBuilder`] makes when given those edges. The edges are bucketed
/// by their smaller super-node with a stable counting sort, and each bucket is
/// folded through a dense accumulator and emitted in ascending column order
/// straight into CSR form.
///
/// # Errors
///
/// Returns [`GraphError::PartitionSizeMismatch`] if `partition` does not cover
/// exactly the nodes of `graph`.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{GraphBuilder, Partition, quotient};
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let g = GraphBuilder::from_unweighted_edges(4, [(0, 1), (2, 3), (1, 2)])?;
/// let p = Partition::from_labels(vec![0, 0, 1, 1])?;
/// let q = quotient::aggregate(&g, &p)?;
/// assert_eq!(q.graph.num_nodes(), 2);
/// // One bridge edge between the two super-nodes, self-loops inside.
/// assert_eq!(q.graph.edge_weight(0, 1), Some(1.0));
/// assert_eq!(q.graph.total_edge_weight(), g.total_edge_weight());
/// # Ok(())
/// # }
/// ```
pub fn aggregate(graph: &Graph, partition: &Partition) -> Result<QuotientGraph, GraphError> {
    partition.check_matches(graph)?;
    let n = graph.num_nodes();
    // Renumbered labels run over 0..k in order of first appearance.
    let coarse_of = partition.renumbered().labels().to_vec();
    let k = coarse_of.iter().max().map_or(0, |&c| c + 1);

    let mut node_weights = vec![0.0f64; k];
    for u in 0..n {
        node_weights[coarse_of[u]] += graph.node_weight(u);
    }
    // Bucket every undirected edge by its smaller super-node with a stable
    // counting sort: each bucket keeps `graph.edges()` order.
    let mut start = vec![0usize; k + 1];
    for u in 0..n {
        for &v in graph.neighbor_ids(u).iter().filter(|&&v| v >= u) {
            start[coarse_of[u].min(coarse_of[v]) + 1] += 1;
        }
    }
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut cursor = start.clone();
    let mut bucket = vec![(0usize, 0.0f64); start[k]];
    for u in 0..n {
        for (v, w) in graph.neighbors(u).filter(|&(v, _)| v >= u) {
            let (cu, cv) = (coarse_of[u], coarse_of[v]);
            let row = cu.min(cv);
            bucket[cursor[row]] = (cu.max(cv), w);
            cursor[row] += 1;
        }
    }
    // Fold each row; `row_of` stamps which row a column's running sum
    // belongs to.
    let mut sum = vec![0.0f64; k];
    let mut row_of = vec![usize::MAX; k];
    let mut columns = Vec::new();
    let mut edges = Vec::new();
    for row in 0..k {
        for &(column, w) in &bucket[start[row]..start[row + 1]] {
            if row_of[column] != row {
                row_of[column] = row;
                sum[column] = 0.0;
                columns.push(column);
            }
            sum[column] += w;
        }
        columns.sort_unstable();
        edges.extend(columns.drain(..).map(|column| (row, column, sum[column])));
    }
    let graph = Graph::from_sorted_edges(k, edges.iter().copied(), node_weights);
    Ok(QuotientGraph { graph, coarse_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, modularity, GraphBuilder, Partition};
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn aggregation_preserves_total_edge_weight_and_node_weight() {
        let pg = generators::ring_of_cliques(5, 4).unwrap();
        let q = aggregate(&pg.graph, &pg.ground_truth).unwrap();
        assert_eq!(q.graph.num_nodes(), 5);
        assert!((q.graph.total_edge_weight() - pg.graph.total_edge_weight()).abs() < 1e-12);
        assert!((q.graph.total_node_weight() - pg.graph.total_node_weight()).abs() < 1e-12);
    }

    #[test]
    fn aggregation_preserves_modularity_of_induced_partition() {
        // Modularity of the partition on the fine graph equals modularity of the
        // singleton partition on the aggregated graph (standard Louvain invariant).
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 60,
            num_communities: 4,
            p_in: 0.5,
            p_out: 0.05,
            seed: 3,
        })
        .unwrap();
        let q_fine = modularity::modularity(&pg.graph, &pg.ground_truth);
        let agg = aggregate(&pg.graph, &pg.ground_truth).unwrap();
        let q_coarse =
            modularity::modularity(&agg.graph, &Partition::singletons(agg.graph.num_nodes()));
        assert!((q_fine - q_coarse).abs() < 1e-12, "fine={q_fine} coarse={q_coarse}");
    }

    /// Every word that identifies a graph's CSR form, floats as bits.
    fn bits(g: &Graph) -> Vec<u64> {
        let mut words = vec![g.num_edges() as u64, g.total_edge_weight().to_bits()];
        for u in 0..g.num_nodes() {
            words.extend([g.degree(u).to_bits(), g.node_weight(u).to_bits()]);
            for (v, w) in g.neighbors(u) {
                words.extend([v as u64, w.to_bits()]);
            }
        }
        words
    }

    /// The quotient built by adding every fine edge to a `GraphBuilder` in
    /// `edges()` order: the oracle for [`aggregate`].
    fn builder_oracle(graph: &Graph, coarse_of: &[usize], k: usize) -> Graph {
        let mut reference = GraphBuilder::new(k);
        for (u, v, w) in graph.edges() {
            reference.add_edge(coarse_of[u], coarse_of[v], w).unwrap();
        }
        let mut node_weights = vec![0.0; k];
        for (u, &c) in coarse_of.iter().enumerate() {
            node_weights[c] += graph.node_weight(u);
        }
        for (c, w) in node_weights.into_iter().enumerate() {
            reference.set_node_weight(c, w).unwrap();
        }
        reference.build()
    }

    /// The stable sort and run fold the bucketed aggregation replaced: the
    /// oracle for its edge list.
    fn sorted_fold_edges(graph: &Graph, coarse_of: &[usize]) -> Vec<(usize, usize, f64)> {
        let mut edges: Vec<(usize, usize, f64)> = graph
            .edges()
            .map(|(u, v, w)| {
                let (cu, cv) = (coarse_of[u], coarse_of[v]);
                (cu.min(cv), cu.max(cv), 0.0 + w)
            })
            .collect();
        edges.sort_by_key(|&(cu, cv, _)| (cu, cv));
        edges.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 += later.2;
            }
            same
        });
        edges
    }

    #[test]
    fn aggregation_merges_weights_bit_for_bit_like_the_builder() {
        // Real weights, self-loops, a zero weight and many parallel super-node
        // edges: the quotient must equal adding every fine edge to a
        // `GraphBuilder` in `edges()` order, down to the last bit.
        let mut b = GraphBuilder::new(40);
        for i in 0..40usize {
            b.add_edge(i, (i * 7 + 3) % 40, 0.1 * (i % 9) as f64 + 0.37).unwrap();
            b.add_edge(i, (i * 13 + 5) % 40, 1.0 / (i + 1) as f64).unwrap();
            if i % 5 == 0 {
                b.add_edge(i, i, 0.3).unwrap();
            }
        }
        b.add_edge(1, 2, 0.0).unwrap();
        let g = b.build();
        let p = Partition::from_labels((0..40).map(|i| (i * i) % 6).collect()).unwrap();
        let q = aggregate(&g, &p).unwrap();
        assert_eq!(bits(&q.graph), bits(&builder_oracle(&g, &q.coarse_of, q.graph.num_nodes())));
        assert!((q.graph.total_node_weight() - 40.0).abs() < 1e-12);
    }

    /// Random graphs whose merged weights depend on the order of addition
    /// (1e16 beside small reals), with self-loops, −0.0 and zero weights, real
    /// node weights and isolated nodes, each with a partition into sparse
    /// labels that are not renumbered.
    fn graph_and_partition() -> impl Strategy<Value = (Graph, Partition)> {
        let edge = (0usize..48, 0usize..48, 0usize..6);
        let node = (0u64..8, 0usize..3);
        (1usize..48, collection::vec(edge, 0..200), collection::vec(node, 48), any::<u64>())
            .prop_map(|(n, raw, nodes, salt)| {
                // Distinct `(u, v)` keep the first weight drawn, so −0.0
                // reaches the graph, which `GraphBuilder` would sum away.
                let mut distinct = std::collections::BTreeMap::new();
                for (u, v, w) in raw {
                    let (u, v) = ((u % n).min(v % n), (u % n).max(v % n));
                    let w = match w {
                        0 => -0.0,
                        1 => 0.0,
                        2 => 1e16,
                        3 => 0.1 * (u + 1) as f64,
                        4 => v as f64 / 3.0,
                        _ => 1.0,
                    };
                    distinct.entry((u, v)).or_insert(w);
                }
                let node_weights = nodes[..n].iter().map(|&(_, w)| [1.0, 0.7, 2.5][w]).collect();
                let graph = Graph::from_sorted_edges(
                    n,
                    distinct.iter().map(|(&(u, v), &w)| (u, v, w)),
                    node_weights,
                );
                let labels = nodes[..n]
                    .iter()
                    .map(|&(l, _)| (l ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize)
                    .collect();
                (graph, Partition::from_labels(labels).unwrap())
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucketed aggregation is bit-equal to the `GraphBuilder` oracle
        /// and to the sort-based fold it replaced, and numbers super-nodes in
        /// order of first appearance.
        #[test]
        fn aggregation_is_bit_equal_to_the_builder_and_sorted_fold_oracles(
            (graph, partition) in graph_and_partition(),
        ) {
            let q = aggregate(&graph, &partition).unwrap();
            prop_assert_eq!(&q.coarse_of[..], partition.renumbered().labels());
            let k = q.graph.num_nodes();
            prop_assert_eq!(k, partition.num_communities());
            prop_assert_eq!(bits(&q.graph), bits(&builder_oracle(&graph, &q.coarse_of, k)));
            let edge_bits = |(u, v, w): (usize, usize, f64)| (u, v, w.to_bits());
            let folded: Vec<_> =
                sorted_fold_edges(&graph, &q.coarse_of).into_iter().map(edge_bits).collect();
            prop_assert_eq!(q.graph.edges().map(edge_bits).collect::<Vec<_>>(), folded);
        }
    }

    #[test]
    fn coarse_of_maps_every_fine_node() {
        let g = generators::karate_club();
        let p = generators::karate_club_communities();
        let q = aggregate(&g, &p).unwrap();
        assert_eq!(q.coarse_of.len(), g.num_nodes());
        assert!(q.coarse_of.iter().all(|&c| c < q.graph.num_nodes()));
    }

    #[test]
    fn mismatched_partition_is_rejected() {
        let g = generators::karate_club();
        let p = Partition::singletons(10);
        assert!(aggregate(&g, &p).is_err());
    }

    #[test]
    fn projection_round_trip_matches_original_partition() {
        let g = generators::karate_club();
        let p = generators::karate_club_communities().renumbered();
        let q = aggregate(&g, &p).unwrap();
        // Projecting the singleton partition of the coarse graph back through
        // coarse_of reproduces the original community structure.
        let coarse_singletons = Partition::singletons(q.graph.num_nodes());
        let lifted = coarse_singletons.project(&q.coarse_of);
        assert_eq!(lifted.renumbered(), p);
    }
}
