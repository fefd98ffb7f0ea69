use crate::GraphError;

/// Identifier of a node inside a [`Graph`]. Nodes are always numbered
/// `0..graph.num_nodes()`.
pub type NodeId = usize;

/// An immutable, undirected, weighted graph in compressed sparse row form.
///
/// A `Graph` is produced by [`crate::GraphBuilder`]. Parallel edges are merged
/// (weights summed) at build time and self-loops are allowed. Each node also
/// carries a *node weight*, which is 1.0 for ordinary graphs and equal to the
/// number of aggregated original nodes for coarsened (super-node) graphs.
///
/// # Example
///
/// ```
/// use qhdcd_graph::GraphBuilder;
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 2.0)?;
/// b.add_edge(1, 2, 1.0)?;
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// CSR row offsets, length `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Neighbor indices, grouped per node.
    neighbors: Vec<NodeId>,
    /// Edge weights aligned with `neighbors`.
    weights: Vec<f64>,
    /// Weighted degree of each node (self-loops counted twice).
    degrees: Vec<f64>,
    /// Node weights (1.0 for plain graphs, aggregate size for coarse graphs).
    node_weights: Vec<f64>,
    /// Number of undirected edges after merging parallel edges (self-loops count once).
    num_edges: usize,
    /// Total edge weight: sum of weights over undirected edges (self-loops count once).
    total_edge_weight: f64,
}

impl Graph {
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        weights: Vec<f64>,
        node_weights: Vec<f64>,
        num_edges: usize,
        total_edge_weight: f64,
    ) -> Self {
        let n = offsets.len() - 1;
        let mut degrees = vec![0.0; n];
        for u in 0..n {
            let mut d = 0.0;
            for k in offsets[u]..offsets[u + 1] {
                let v = neighbors[k];
                let w = weights[k];
                d += if v == u { 2.0 * w } else { w };
            }
            degrees[u] = d;
        }
        Graph { offsets, neighbors, weights, degrees, node_weights, num_edges, total_edge_weight }
    }

    /// Assembles the CSR form of an undirected graph from its distinct edges
    /// `(u, v, w)` with `u <= v`, sorted by `(u, v)`.
    ///
    /// Every edge lands in its endpoints' rows in the order given, so each row
    /// comes out sorted without a sort pass. The total edge weight is summed
    /// in the order given too, which makes it a pure function of the edge list.
    pub(crate) fn from_sorted_edges<I>(num_nodes: usize, edges: I, node_weights: Vec<f64>) -> Self
    where
        I: Iterator<Item = (NodeId, NodeId, f64)> + Clone,
    {
        let mut offsets = vec![0usize; num_nodes + 1];
        let mut num_edges = 0;
        for (u, v, _) in edges.clone() {
            num_edges += 1;
            offsets[u + 1] += 1;
            if u != v {
                offsets[v + 1] += 1;
            }
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let nnz = offsets[num_nodes];
        let mut neighbors = vec![0; nnz];
        let mut weights = vec![0.0; nnz];
        let mut cursor = offsets.clone();
        let mut total_edge_weight = 0.0;
        for (u, v, w) in edges {
            total_edge_weight += w;
            neighbors[cursor[u]] = v;
            weights[cursor[u]] = w;
            cursor[u] += 1;
            if u != v {
                neighbors[cursor[v]] = u;
                weights[cursor[v]] = w;
                cursor[v] += 1;
            }
        }
        Graph::from_csr(offsets, neighbors, weights, node_weights, num_edges, total_edge_weight)
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (after merging parallel edges).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total edge weight `m` (sum of weights over undirected edges, self-loops
    /// counted once). For unweighted graphs this equals [`Graph::num_edges`].
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Edge density `2m / (n (n - 1))` for simple graphs; 0.0 for graphs with
    /// fewer than two nodes.
    pub fn density(&self) -> f64 {
        let n = self.num_nodes() as f64;
        if n < 2.0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / (n * (n - 1.0))
        }
    }

    /// Weighted degree of `node` (self-loops counted twice, as is conventional
    /// for modularity).
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

    /// Node weight of `node` (1.0 unless the graph is a coarsened super-node graph).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.node_weights[node]
    }

    /// Slice of all node weights, indexed by node.
    pub fn node_weights(&self) -> &[f64] {
        &self.node_weights
    }

    /// Number of neighbours of `node` (counting a self-loop once).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn neighbor_count(&self, node: NodeId) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Iterator over `(neighbor, weight)` pairs of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    ///
    /// # Example
    ///
    /// ```
    /// use qhdcd_graph::GraphBuilder;
    ///
    /// # fn main() -> Result<(), qhdcd_graph::GraphError> {
    /// let mut b = GraphBuilder::new(2);
    /// b.add_edge(0, 1, 3.0)?;
    /// let g = b.build();
    /// let total: f64 = g.neighbors(0).map(|(_, w)| w).sum();
    /// assert_eq!(total, 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn neighbors(&self, node: NodeId) -> NeighborIter<'_> {
        let range = self.offsets[node]..self.offsets[node + 1];
        NeighborIter {
            neighbors: &self.neighbors[range.clone()],
            weights: &self.weights[range],
            pos: 0,
        }
    }

    /// Neighbour ids of `node` in ascending order (a self-loop appears as
    /// `node` itself), aligned with the pairs [`Graph::neighbors`] yields.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    pub fn neighbor_ids(&self, node: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[node]..self.offsets[node + 1]]
    }

    /// Weight of the edge `(u, v)` if present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.neighbors(u).find(|&(x, _)| x == v).map(|(_, w)| w)
    }

    /// Returns `true` if the edge `(u, v)` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterator over every undirected edge as `(u, v, weight)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| u <= v).map(move |(v, w)| (u, v, w))
        })
    }

    /// Validates a node index, returning a [`GraphError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node >= self.num_nodes()`.
    pub fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds { node, num_nodes: self.num_nodes() })
        }
    }

    /// Sum of all node weights (equals `num_nodes()` for uncoarsened graphs).
    pub fn total_node_weight(&self) -> f64 {
        self.node_weights.iter().sum()
    }
}

/// Iterator over the `(neighbor, weight)` pairs of a node, created by
/// [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    neighbors: &'a [NodeId],
    weights: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.neighbors.len() {
            let item = (self.neighbors[self.pos], self.weights[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.neighbors.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_edge_weight(), 3.0);
        assert_eq!(g.degree(0), 2.0);
        assert_eq!(g.neighbor_count(0), 2);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_and_edge_weight() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3) || g.num_nodes() > 3);
        let neighbors: Vec<_> = g.neighbors(1).map(|(v, _)| v).collect();
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.contains(&0) && neighbors.contains(&2));
    }

    #[test]
    fn self_loop_degree_counted_twice() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.5).unwrap();
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.degree(0), 4.0);
        assert_eq!(g.degree(1), 1.0);
        assert_eq!(g.total_edge_weight(), 2.5);
        // Handshake lemma: sum of degrees = 2 m.
        let sum: f64 = g.degrees().iter().sum();
        assert!((sum - 2.0 * g.total_edge_weight()).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v, w) in edges {
            assert!(u <= v);
            assert_eq!(w, 1.0);
        }
    }

    #[test]
    fn parallel_edges_are_merged() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 2.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.total_edge_weight(), 3.5);
    }

    #[test]
    fn check_node_bounds() {
        let g = triangle();
        assert!(g.check_node(2).is_ok());
        assert!(g.check_node(3).is_err());
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.total_node_weight(), 1.0);
    }
}
