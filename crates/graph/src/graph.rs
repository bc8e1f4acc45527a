//! Typed knowledge-graph storage.
//!
//! A [`KnowledgeGraph`] is an undirected multigraph with a type tag on every
//! node and every edge, stored as a CSR adjacency over `(neighbor, edge id)`
//! pairs. Edge ids index a canonical edge list, so edge attributes (types)
//! survive subgraph extraction.

/// A single undirected typed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub u: u32,
    /// Other endpoint.
    pub v: u32,
    /// Relation / edge-class tag.
    pub etype: u16,
}

/// Typed rejection of malformed graph input. The fallible constructors
/// ([`GraphBuilder::try_add_edge`], [`KnowledgeGraph::try_from_edges`])
/// return these so ingestion of untrusted edge lists surfaces bad data as
/// an error instead of a panic; the panicking counterparts delegate to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An edge names a node id at or beyond the node count.
    EndpointOutOfRange {
        /// One endpoint of the offending edge.
        u: u32,
        /// Other endpoint of the offending edge.
        v: u32,
        /// Nodes actually present.
        num_nodes: usize,
    },
    /// A node id at or beyond the node count was addressed directly.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Nodes actually present.
        num_nodes: usize,
    },
    /// A mutation names a stable edge id that was never allocated.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: u32,
        /// Edge slots actually allocated.
        num_edges: usize,
    },
    /// A mutation retires an edge that is already retired.
    EdgeRetired {
        /// The already-tombstoned edge id.
        edge: u32,
    },
    /// A serialized mutation record carries an unknown operation tag.
    MalformedMutation {
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// A serialized mutation record ends mid-operation or carries
    /// trailing bytes.
    TruncatedMutation {
        /// Bytes the decoder needed (or had consumed at the mismatch).
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::EndpointOutOfRange { u, v, num_nodes } => write!(
                f,
                "edge ({u},{v}) references missing node (have {num_nodes})"
            ),
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (have {num_nodes})")
            }
            GraphError::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge id {edge} out of range (have {num_edges} slots)")
            }
            GraphError::EdgeRetired { edge } => {
                write!(f, "edge id {edge} is already retired")
            }
            GraphError::MalformedMutation { tag } => {
                write!(f, "mutation record has unknown operation tag {tag:#04x}")
            }
            GraphError::TruncatedMutation { expected, actual } => write!(
                f,
                "mutation record truncated: needed {expected} bytes, have {actual}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incrementally assembles a [`KnowledgeGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_types: Vec<u16>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Start a graph with `num_nodes` nodes, all of type 0.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            node_types: vec![0; num_nodes],
            edges: Vec::new(),
        }
    }

    /// Start a graph with explicit node types.
    pub fn with_node_types(node_types: Vec<u16>) -> Self {
        Self {
            node_types,
            edges: Vec::new(),
        }
    }

    /// Number of nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edges so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Set a node's type.
    ///
    /// # Panics
    /// Panics if `node` is out of range (see
    /// [`try_set_node_type`](Self::try_set_node_type)).
    pub fn set_node_type(&mut self, node: u32, ntype: u16) {
        self.try_set_node_type(node, ntype)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`set_node_type`](Self::set_node_type).
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfRange`] when `node` does not exist.
    pub fn try_set_node_type(&mut self, node: u32, ntype: u16) -> Result<(), GraphError> {
        match self.node_types.get_mut(node as usize) {
            Some(t) => {
                *t = ntype;
                Ok(())
            }
            None => Err(GraphError::NodeOutOfRange {
                node,
                num_nodes: self.node_types.len(),
            }),
        }
    }

    /// Add an undirected typed edge. Self-loops and parallel edges are
    /// permitted (knowledge graphs routinely hold several relations between
    /// the same pair).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range (see
    /// [`try_add_edge`](Self::try_add_edge) for the fallible form).
    pub fn add_edge(&mut self, u: u32, v: u32, etype: u16) -> u32 {
        self.try_add_edge(u, v, etype)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`add_edge`](Self::add_edge): the ingestion path for
    /// untrusted edge lists, where a bad endpoint is data to report, not a
    /// programming error to crash on.
    ///
    /// # Errors
    /// [`GraphError::EndpointOutOfRange`] when either endpoint names a
    /// missing node.
    pub fn try_add_edge(&mut self, u: u32, v: u32, etype: u16) -> Result<u32, GraphError> {
        if (u as usize) >= self.node_types.len() || (v as usize) >= self.node_types.len() {
            return Err(GraphError::EndpointOutOfRange {
                u,
                v,
                num_nodes: self.node_types.len(),
            });
        }
        self.edges.push(Edge { u, v, etype });
        Ok((self.edges.len() - 1) as u32)
    }

    /// Finalize into CSR form.
    pub fn build(self) -> KnowledgeGraph {
        let n = self.node_types.len();
        let mut degree = vec![0usize; n];
        for e in &self.edges {
            degree[e.u as usize] += 1;
            if e.u != e.v {
                degree[e.v as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut neigh = vec![(0u32, 0u32); offsets[n]];
        for (eid, e) in self.edges.iter().enumerate() {
            neigh[cursor[e.u as usize]] = (e.v, eid as u32);
            cursor[e.u as usize] += 1;
            if e.u != e.v {
                neigh[cursor[e.v as usize]] = (e.u, eid as u32);
                cursor[e.v as usize] += 1;
            }
        }
        // Sort each adjacency list by (neighbor, edge id) for deterministic
        // traversal order regardless of insertion order.
        for i in 0..n {
            neigh[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        KnowledgeGraph {
            node_types: self.node_types,
            offsets,
            neigh,
            edges: self.edges,
        }
    }
}

/// Finalized undirected typed multigraph in CSR form.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    node_types: Vec<u16>,
    offsets: Vec<usize>,
    neigh: Vec<(u32, u32)>,
    edges: Vec<Edge>,
}

impl KnowledgeGraph {
    /// Build directly from an edge list over `num_nodes` untyped nodes.
    ///
    /// # Panics
    /// Panics if an edge references a missing node (see
    /// [`try_from_edges`](Self::try_from_edges)).
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        Self::try_from_edges(num_nodes, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`from_edges`](Self::from_edges): validates every endpoint
    /// before committing, so a malformed edge list from an external source
    /// is reported instead of crashing the process.
    ///
    /// # Errors
    /// [`GraphError::EndpointOutOfRange`] on the first out-of-range edge.
    /// (A zero-node, zero-edge graph is valid — rejecting empty *datasets*
    /// is the ingestion layer's job, see `amdgcnn_data::DataError`.)
    pub fn try_from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut b = GraphBuilder::new(num_nodes);
        for &(u, v) in edges {
            b.try_add_edge(u, v, 0)?;
        }
        Ok(b.build())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Type tag of a node.
    pub fn node_type(&self, node: u32) -> u16 {
        self.node_types[node as usize]
    }

    /// All node types.
    pub fn node_types(&self) -> &[u16] {
        &self.node_types
    }

    /// Number of distinct node types (max tag + 1).
    pub fn num_node_types(&self) -> usize {
        self.node_types
            .iter()
            .copied()
            .max()
            .map_or(1, |m| m as usize + 1)
    }

    /// Number of distinct edge types (max tag + 1).
    pub fn num_edge_types(&self) -> usize {
        self.edges
            .iter()
            .map(|e| e.etype)
            .max()
            .map_or(1, |m| m as usize + 1)
    }

    /// The canonical edge record for `edge_id`.
    pub fn edge(&self, edge_id: u32) -> Edge {
        self.edges[edge_id as usize]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Degree of a node (self-loops count once).
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        self.offsets[n + 1] - self.offsets[n]
    }

    /// Adjacency of a node as `(neighbor, edge id)` pairs, sorted by
    /// neighbor id.
    pub fn neighbors(&self, node: u32) -> &[(u32, u32)] {
        let n = node as usize;
        &self.neigh[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Iterator over just the neighbor ids of a node (may repeat under
    /// parallel edges).
    pub fn neighbor_ids(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        self.neighbors(node).iter().map(|&(v, _)| v)
    }

    /// Distinct neighbor ids of a node, sorted.
    pub fn distinct_neighbors(&self, node: u32) -> Vec<u32> {
        let mut out: Vec<u32> = self.neighbor_ids(node).collect();
        out.dedup();
        out
    }

    /// True when at least one edge joins `u` and `v`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let (small, other) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small)
            .binary_search_by_key(&other, |&(n, _)| n)
            .is_ok()
    }

    /// Ids of every edge joining `u` and `v` (usually zero or one).
    pub fn edges_between(&self, u: u32, v: u32) -> Vec<u32> {
        self.neighbors(u)
            .iter()
            .filter(|&&(n, _)| n == v)
            .map(|&(_, eid)| eid)
            .collect()
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.neigh.len() as f64 / self.num_nodes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> KnowledgeGraph {
        let mut b = GraphBuilder::with_node_types(vec![0, 1, 1]);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 0, 2);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_node_types(), 2);
        assert_eq!(g.num_edge_types(), 3);
        assert_eq!(g.degree(0), 2);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = triangle();
        let n0: Vec<u32> = g.neighbor_ids(0).collect();
        assert_eq!(n0, vec![1, 2]);
        let n1: Vec<u32> = g.neighbor_ids(1).collect();
        assert_eq!(n1, vec![0, 2]);
        // Every edge appears from both sides with the same id.
        for (eid, e) in g.edges().iter().enumerate() {
            assert!(g.neighbors(e.u).contains(&(e.v, eid as u32)));
            assert!(g.neighbors(e.v).contains(&(e.u, eid as u32)));
        }
    }

    #[test]
    fn has_edge_and_edges_between() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edges_between(1, 2), vec![1]);
        assert_eq!(g.edges_between(0, 2), vec![2]);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
        let mut between = g.edges_between(0, 1);
        between.sort_unstable();
        assert_eq!(between, vec![0, 1]);
        assert_eq!(g.edge(1).etype, 5);
        assert_eq!(g.num_edge_types(), 6);
    }

    #[test]
    fn self_loop_counts_once_in_adjacency() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 0);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        let ids: Vec<u32> = g.neighbor_ids(0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = KnowledgeGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
        assert!(g.distinct_neighbors(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "missing node")]
    fn edge_to_missing_node_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 0);
    }

    #[test]
    fn try_add_edge_reports_typed_error() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.try_add_edge(0, 2, 0),
            Err(GraphError::EndpointOutOfRange {
                u: 0,
                v: 2,
                num_nodes: 2
            })
        );
        assert_eq!(b.num_edges(), 0, "rejected edge must not be recorded");
        assert_eq!(b.try_add_edge(0, 1, 3), Ok(0));
    }

    #[test]
    fn try_from_edges_validates_endpoints() {
        let err = KnowledgeGraph::try_from_edges(3, &[(0, 1), (1, 7)]).expect_err("bad edge");
        assert_eq!(
            err,
            GraphError::EndpointOutOfRange {
                u: 1,
                v: 7,
                num_nodes: 3
            }
        );
        assert!(err.to_string().contains("missing node"), "{err}");
        let g = KnowledgeGraph::try_from_edges(3, &[(0, 1)]).expect("good edges");
        assert_eq!(g.num_edges(), 1);
        // Zero-node graphs stay representable (heuristics handle them).
        assert!(KnowledgeGraph::try_from_edges(0, &[]).is_ok());
    }

    #[test]
    fn try_set_node_type_bounds_checked() {
        let mut b = GraphBuilder::new(1);
        assert_eq!(
            b.try_set_node_type(5, 1),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                num_nodes: 1
            })
        );
        b.try_set_node_type(0, 9).expect("in range");
        assert_eq!(b.build().node_type(0), 9);
    }

    #[test]
    fn distinct_neighbors_dedups_parallel() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 0);
        let g = b.build();
        assert_eq!(g.distinct_neighbors(0), vec![1, 2]);
    }
}
