//! Simple undirected graph stored in compressed sparse row (CSR) form.

use std::fmt;

/// Index of a node in a [`Graph`]. Nodes are `0..n`.
pub type NodeId = usize;

/// Error produced when constructing an invalid [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// The same undirected edge was inserted twice.
    DuplicateEdge(NodeId, NodeId),
    /// A [`Graph::from_sorted_edges`] input violated the sorted-orientation
    /// contract (an edge with `u > v`, or a pair out of lexicographic order).
    UnsortedEdges {
        /// The edge at which the contract was first violated.
        edge: (NodeId, NodeId),
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(
                    f,
                    "edge endpoint {node} out of range for graph with {n} nodes"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::UnsortedEdges { edge: (u, v) } => {
                write!(
                    f,
                    "edge ({u}, {v}) violates the sorted-orientation contract (u < v, strictly increasing)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph in CSR form.
///
/// Invariants (enforced at construction): no self loops, no parallel edges,
/// adjacency lists sorted increasingly. Node identifiers double as the unique
/// `O(log n)`-bit IDs assumed by the distributed models.
///
/// # Examples
///
/// ```
/// use dcl_graphs::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.m(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists, length `2m`.
    adj: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Edges may be given in either orientation; `(u, v)` and `(v, u)` denote
    /// the same edge and may not both appear.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range, an edge is a
    /// self loop, or an edge appears twice.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
        }
    }

    /// Builds a graph directly in CSR form from an edge list that is already
    /// strictly sorted lexicographically with `u < v` per edge — `O(n + m)`
    /// with no sorting pass, the construction path used by the scale-tier
    /// generators (`gnp`, `power_law`, `expander` at 10⁴–10⁶ nodes).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the same edge appears twice,
    /// [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] on invalid
    /// endpoints, and [`GraphError::UnsortedEdges`] if the list violates the
    /// `u < v`, strictly-increasing contract. Callers with an unsorted edge
    /// list should use [`Graph::from_edges`]; generators that construct a
    /// valid stream by design use the panicking fast path
    /// [`Graph::from_sorted_edges_unchecked`].
    pub fn from_sorted_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut deg = vec![0usize; n];
        let mut prev: Option<(NodeId, NodeId)> = None;
        for &(u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if u > v {
                return Err(GraphError::UnsortedEdges { edge: (u, v) });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if let Some(p) = prev {
                if p == (u, v) {
                    return Err(GraphError::DuplicateEdge(u, v));
                }
                if p > (u, v) {
                    return Err(GraphError::UnsortedEdges { edge: (u, v) });
                }
            }
            prev = Some((u, v));
            deg[u] += 1;
            deg[v] += 1;
        }
        Ok(Graph::csr_from_sorted(n, edges, deg))
    }

    /// [`Graph::from_sorted_edges`] for callers whose edge stream is valid by
    /// construction (the hot generators): same validation, but contract
    /// violations panic instead of allocating a [`GraphError`], so the happy
    /// path stays a single `O(n + m)` pass with no `Result` plumbing.
    ///
    /// # Panics
    ///
    /// Panics on any input [`Graph::from_sorted_edges`] would reject
    /// (duplicate edges, `u >= v`, out-of-range endpoints, out-of-order
    /// pairs).
    pub fn from_sorted_edges_unchecked(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Graph::from_sorted_edges(n, edges)
            .unwrap_or_else(|e| panic!("invalid sorted edge list: {e}"))
    }

    /// Shared CSR assembly for a validated strictly-sorted edge list with
    /// per-node degrees already counted.
    fn csr_from_sorted(n: usize, edges: &[(NodeId, NodeId)], deg: Vec<usize>) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut adj = vec![0usize; 2 * edges.len()];
        let mut cursor = offsets.clone();
        // Smaller-side neighbors first (for node x these are the `u` of edges
        // `(u, x)`, which arrive in increasing `u`), then larger-side
        // neighbors (the `v` of edges `(x, v)`, increasing per `x`): each
        // adjacency list comes out sorted without a sort pass.
        for &(u, v) in edges {
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        for &(u, v) in edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
        }
        Graph { offsets, adj }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sorted slice of the neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over all node indices.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// The subgraph induced by `keep` (nodes with `keep[v] == true`),
    /// together with the mapping from new node ids to original ids.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != n`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.n(), "keep mask length must equal n");
        let mut orig_of_new = Vec::new();
        let mut new_of_orig = vec![usize::MAX; self.n()];
        for v in self.nodes() {
            if keep[v] {
                new_of_orig[v] = orig_of_new.len();
                orig_of_new.push(v);
            }
        }
        let mut builder = GraphBuilder::new(orig_of_new.len());
        for (u, v) in self.edges() {
            if keep[u] && keep[v] {
                builder
                    .add_edge(new_of_orig[u], new_of_orig[v])
                    .expect("induced subgraph edges are valid");
            }
        }
        (builder.build(), orig_of_new)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// # Examples
///
/// ```
/// use dcl_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// # Ok::<(), dcl_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints, self loops, or
    /// duplicate edges (duplicates are detected at [`GraphBuilder::build`]
    /// time for efficiency, except exact consecutive repeats).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(())
    }

    /// Whether the edge `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = (u.min(v), u.max(v));
        self.edges.contains(&key)
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    ///
    /// Panics if the same edge was inserted twice (programming error: callers
    /// that cannot rule out duplicates should check with
    /// [`GraphBuilder::has_edge`], use [`GraphBuilder::try_build`] to get the
    /// typed [`GraphError::DuplicateEdge`], or use [`Graph::from_edges`],
    /// which deduplicates by erroring).
    pub fn build(self) -> Graph {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalizes the graph, reporting a duplicate insertion as a typed error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the same undirected edge was
    /// inserted twice.
    pub fn try_build(mut self) -> Result<Graph, GraphError> {
        self.edges.sort_unstable();
        if let Some(w) = self.edges.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge(w[0].0, w[0].1));
        }
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut offsets = vec![0usize; self.n + 1];
        for v in 0..self.n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut adj = vec![0usize; 2 * self.edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            adj[cursor[u]] = v;
            cursor[u] += 1;
            adj[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Edges were inserted in sorted order per endpoint u; entries for v
        // (the larger endpoint) may be out of order, so sort each list.
        for v in 0..self.n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Graph { offsets, adj })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 3), (4, 0)]).unwrap();
        assert_eq!(g.neighbors(3), &[0, 1]);
        assert_eq!(g.neighbors(0), &[3, 4]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn from_sorted_edges_matches_from_edges() {
        let edges = [(0, 3), (0, 4), (1, 3), (2, 4), (3, 4)];
        let fast = Graph::from_sorted_edges(5, &edges).unwrap();
        let slow = Graph::from_edges(5, &edges).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast, Graph::from_sorted_edges_unchecked(5, &edges));
        for v in 0..5 {
            assert!(fast.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn from_sorted_edges_rejects_duplicates_with_typed_error() {
        assert_eq!(
            Graph::from_sorted_edges(3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn from_sorted_edges_rejects_contract_violations_with_typed_errors() {
        assert_eq!(
            Graph::from_sorted_edges(3, &[(1, 0)]),
            Err(GraphError::UnsortedEdges { edge: (1, 0) })
        );
        assert_eq!(
            Graph::from_sorted_edges(3, &[(0, 2), (0, 1)]),
            Err(GraphError::UnsortedEdges { edge: (0, 1) })
        );
        assert_eq!(
            Graph::from_sorted_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            Graph::from_sorted_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn from_sorted_edges_unchecked_panics_on_duplicates() {
        let _ = Graph::from_sorted_edges_unchecked(3, &[(0, 1), (0, 1)]);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn builder_panics_on_duplicate_edge_at_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        let _ = b.build();
    }

    #[test]
    fn try_build_reports_duplicates_as_typed_errors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        assert_eq!(b.try_build(), Err(GraphError::DuplicateEdge(0, 1)));
        let mut ok = GraphBuilder::new(3);
        ok.add_edge(0, 1).unwrap();
        assert_eq!(ok.try_build().unwrap().m(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn has_edge_symmetric() {
        let g = Graph::from_edges(3, &[(0, 2)]).unwrap();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let keep = vec![true, true, false, true, true];
        let (h, orig) = g.induced_subgraph(&keep);
        assert_eq!(h.n(), 4);
        assert_eq!(orig, vec![0, 1, 3, 4]);
        // Surviving edges: {0,1}, {3,4}, {0,4}.
        assert_eq!(h.m(), 3);
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(2, 3)); // orig {3,4}
        assert!(h.has_edge(0, 3)); // orig {0,4}
    }

    #[test]
    fn degree_counts() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.max_degree(), 3);
    }
}
