use crate::{Graph, GraphError, NodeId};
use std::collections::BTreeMap;

/// Incremental builder for [`Graph`].
///
/// Edges may be added in any order; parallel edges are merged by summing their
/// weights and the final graph is stored in CSR form with sorted neighbour
/// lists.
///
/// # Example
///
/// ```
/// use qhdcd_graph::GraphBuilder;
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.0)?;
/// b.add_edge(1, 2, 1.0)?;
/// b.add_edge(2, 3, 1.0)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Map keyed by (min(u, v), max(u, v)) to merged weight.
    edges: BTreeMap<(NodeId, NodeId), f64>,
    node_weights: Vec<f64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder { num_nodes, edges: BTreeMap::new(), node_weights: vec![1.0; num_nodes] }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge between `u` and `v` with the given `weight`.
    /// Adding the same edge twice sums the weights. Self-loops (`u == v`) are
    /// allowed.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if either endpoint is out of range.
    /// * [`GraphError::InvalidEdgeWeight`] if `weight` is negative, NaN or infinite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<(), GraphError> {
        if u >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds { node: u, num_nodes: self.num_nodes });
        }
        if v >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds { node: v, num_nodes: self.num_nodes });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidEdgeWeight { weight });
        }
        let key = if u <= v { (u, v) } else { (v, u) };
        *self.edges.entry(key).or_insert(0.0) += weight;
        Ok(())
    }

    /// Sets the node weight of `node` (used for coarsened super-node graphs).
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `node` is out of range.
    /// * [`GraphError::InvalidEdgeWeight`] if `weight` is negative, NaN or infinite.
    pub fn set_node_weight(&mut self, node: NodeId, weight: f64) -> Result<(), GraphError> {
        if node >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds { node, num_nodes: self.num_nodes });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidEdgeWeight { weight });
        }
        self.node_weights[node] = weight;
        Ok(())
    }

    /// Consumes the builder and produces the immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        // BTreeMap iteration is ordered by (u, v), the order the CSR assembly
        // needs for sorted neighbour lists.
        let edges = self.edges.iter().map(|(&(u, v), &w)| (u, v, w));
        Graph::from_sorted_edges(self.num_nodes, edges, self.node_weights)
    }

    /// Builds a graph directly from an iterator of `(u, v, weight)` triples.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`] for any triple in the iterator.
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let mut b = GraphBuilder::new(num_nodes);
        for (u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Builds an unweighted graph from an iterator of `(u, v)` pairs.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`] for any pair in the iterator.
    pub fn from_unweighted_edges<I>(num_nodes: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        GraphBuilder::from_edges(num_nodes, edges.into_iter().map(|(u, v)| (u, v, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_bounds_and_bad_weights() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.add_edge(0, 2, 1.0), Err(GraphError::NodeOutOfBounds { .. })));
        assert!(matches!(b.add_edge(2, 0, 1.0), Err(GraphError::NodeOutOfBounds { .. })));
        assert!(matches!(b.add_edge(0, 1, -1.0), Err(GraphError::InvalidEdgeWeight { .. })));
        assert!(matches!(b.add_edge(0, 1, f64::NAN), Err(GraphError::InvalidEdgeWeight { .. })));
        assert!(matches!(
            b.add_edge(0, 1, f64::INFINITY),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
        assert!(matches!(b.set_node_weight(5, 1.0), Err(GraphError::NodeOutOfBounds { .. })));
        assert!(matches!(
            b.set_node_weight(0, f64::NAN),
            Err(GraphError::InvalidEdgeWeight { .. })
        ));
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 4, 1.0).unwrap();
        b.add_edge(2, 0, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(2, 1, 1.0).unwrap();
        let g = b.build();
        let ns: Vec<_> = g.neighbors(2).map(|(v, _)| v).collect();
        assert_eq!(ns, vec![0, 1, 3, 4]);
    }

    #[test]
    fn from_edges_helpers() {
        let g = GraphBuilder::from_unweighted_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        let g = GraphBuilder::from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        assert_eq!(g.total_edge_weight(), 2.5);
        assert!(GraphBuilder::from_unweighted_edges(1, [(0, 1)]).is_err());
    }

    #[test]
    fn node_weights_default_to_one() {
        let mut b = GraphBuilder::new(3);
        b.set_node_weight(1, 4.0).unwrap();
        let g = b.build();
        assert_eq!(g.node_weight(0), 1.0);
        assert_eq!(g.node_weight(1), 4.0);
        assert_eq!(g.total_node_weight(), 6.0);
    }

    #[test]
    fn builder_edge_count_tracks_distinct_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        assert_eq!(b.num_edges(), 2);
        assert_eq!(b.num_nodes(), 3);
    }
}
