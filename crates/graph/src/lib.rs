//! # amdgcnn-graph
//!
//! Knowledge-graph substrate for the AM-DGCNN reproduction: typed CSR
//! multigraphs, BFS traversals, SEAL enclosing-subgraph extraction with
//! Double-Radius Node Labeling, classical link-prediction heuristics
//! (common neighbors, Jaccard, Adamic-Adar, resource allocation,
//! preferential attachment, Katz, personalized PageRank), and node2vec
//! embeddings.
//!
//! # Example: extract and label an enclosing subgraph
//!
//! ```
//! use amdgcnn_graph::{GraphBuilder, SubgraphConfig};
//! use amdgcnn_graph::khop::extract_enclosing_subgraph;
//!
//! // A small typed graph: 0-1-2-3 path plus a 1-3 chord.
//! let mut b = GraphBuilder::with_node_types(vec![0, 1, 0, 1]);
//! b.add_edge(0, 1, 0);
//! b.add_edge(1, 2, 1);
//! b.add_edge(2, 3, 0);
//! b.add_edge(1, 3, 2);
//! let g = b.build();
//!
//! let sub = extract_enclosing_subgraph(&g, 1, 3, &SubgraphConfig::default());
//! assert_eq!(sub.nodes[0], 1);      // targets come first...
//! assert_eq!(sub.drnl[0], 1);       // ...with the distinctive DRNL label
//! // The 1-3 target link itself is hidden from the subgraph:
//! assert!(sub.edges.iter().all(|e| (e.u.min(e.v), e.u.max(e.v)) != (0, 1)));
//! ```

#![warn(missing_docs)]

pub mod bfs;
pub mod drnl;
pub mod graph;
pub mod heuristics;
pub mod katz;
pub mod khop;
pub mod mutable;
pub mod node2vec;
pub mod pagerank;
pub mod walks;
pub mod wl;

pub use bfs::UNREACHABLE;
pub use graph::{Edge, GraphBuilder, GraphError, KnowledgeGraph};
pub use khop::{
    extract_neighborhood, label_with_drnl, EnclosingSubgraph, InducedSubgraph, LocalEdge,
    NeighborhoodMode, SubgraphConfig,
};
pub use mutable::{
    graph_digest, AffectedRegion, Commit, GraphMutation, MutableGraph, MutationWal, WalError,
    WalRecovery,
};
