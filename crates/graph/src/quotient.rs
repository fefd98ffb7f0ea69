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
/// graph's.
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
    let renum = partition.renumbered();
    let k = renum.num_communities();
    let coarse_of: Vec<usize> = (0..graph.num_nodes()).map(|u| renum.community_of(u)).collect();

    let mut node_weights = vec![0.0f64; k];
    for u in 0..graph.num_nodes() {
        node_weights[coarse_of[u]] += graph.node_weight(u);
    }
    // Map every undirected edge to its super-node pair. The stable sort keeps
    // each pair's edges in `graph.edges()` order, so folding a run from 0.0
    // performs exactly the additions a map entry accumulating in that order
    // would: the merged weights are bit-equal to `GraphBuilder`'s. (`0.0 + w`
    // turns a −0.0 weight into +0.0, as the fold from 0.0 does.)
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
    let graph = Graph::from_sorted_edges(k, edges.into_iter(), node_weights);
    Ok(QuotientGraph { graph, coarse_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, modularity, GraphBuilder, Partition};

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
        let mut reference = GraphBuilder::new(q.graph.num_nodes());
        for (u, v, w) in g.edges() {
            reference.add_edge(q.coarse_of[u], q.coarse_of[v], w).unwrap();
        }
        for (c, &w) in q.graph.node_weights().iter().enumerate() {
            reference.set_node_weight(c, w).unwrap();
        }
        let reference = reference.build();
        let bits = |g: &Graph| {
            let mut words = vec![g.num_edges() as u64, g.total_edge_weight().to_bits()];
            for u in 0..g.num_nodes() {
                words.extend([g.degree(u).to_bits(), g.node_weight(u).to_bits()]);
                for (v, w) in g.neighbors(u) {
                    words.extend([v as u64, w.to_bits()]);
                }
            }
            words
        };
        assert_eq!(bits(&q.graph), bits(&reference));
        assert!((q.graph.total_node_weight() - 40.0).abs() < 1e-12);
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
