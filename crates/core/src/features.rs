//! SEAL node-attribute matrix construction (paper §III-B).
//!
//! The node attribute vector concatenates (i) a one-hot encoding of the
//! node type and (ii) a one-hot encoding of the (capped) DRNL label. This
//! is SEAL's node-information matrix without its optional embedding block:
//! the paper leaves learned node embeddings out on knowledge graphs, and so
//! does this reproduction.

use amdgcnn_graph::EnclosingSubgraph;
use amdgcnn_tensor::Matrix;

/// Feature-construction settings. Model artifacts embed them as-is.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FeatureConfig {
    /// Node-type count of the parent graph (one-hot width).
    pub num_node_types: usize,
    /// DRNL labels above this value are clamped to it; the one-hot block
    /// has width `max_drnl + 1` (label 0 = unreachable).
    pub max_drnl: u32,
}

impl FeatureConfig {
    /// Default features for a graph with the given node-type count: type
    /// one-hot plus DRNL one-hot capped at 12 (covers all labels reachable
    /// with 2-hop subgraphs).
    pub fn for_graph(num_node_types: usize) -> Self {
        Self {
            num_node_types,
            max_drnl: 12,
        }
    }

    /// Width of the produced feature vectors.
    pub fn dim(&self) -> usize {
        self.num_node_types + (self.max_drnl as usize + 1)
    }
}

/// Build the `[N, dim]` node attribute matrix for a subgraph.
pub fn build_node_features(sub: &EnclosingSubgraph, cfg: &FeatureConfig) -> Matrix {
    let n = sub.num_nodes();
    let mut out = Matrix::zeros(n, cfg.dim());
    for i in 0..n {
        let row = out.row_mut(i);
        let t = sub.node_types[i] as usize;
        debug_assert!(
            t < cfg.num_node_types,
            "node type {t} exceeds configured width"
        );
        row[t] = 1.0;
        let label = sub.drnl[i].min(cfg.max_drnl) as usize;
        row[cfg.num_node_types + label] = 1.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_graph::{GraphBuilder, SubgraphConfig};

    fn sample_subgraph() -> EnclosingSubgraph {
        let mut b = GraphBuilder::with_node_types(vec![0, 1, 2, 1]);
        b.add_edge(0, 2, 0);
        b.add_edge(2, 1, 1);
        b.add_edge(1, 3, 0);
        let g = b.build();
        amdgcnn_graph::khop::extract_enclosing_subgraph(&g, 0, 1, &SubgraphConfig::default())
    }

    #[test]
    fn dims_add_up() {
        let cfg = FeatureConfig::for_graph(3);
        assert_eq!(cfg.dim(), 3 + 13);
        let sub = sample_subgraph();
        let m = build_node_features(&sub, &cfg);
        assert_eq!(m.shape(), (sub.num_nodes(), cfg.dim()));
    }

    #[test]
    fn rows_are_two_hot() {
        let cfg = FeatureConfig::for_graph(3);
        let sub = sample_subgraph();
        let m = build_node_features(&sub, &cfg);
        for r in 0..m.rows() {
            let ones = m.row(r).iter().filter(|&&v| v == 1.0).count();
            assert_eq!(ones, 2, "row {r}: type one-hot + DRNL one-hot");
            assert_eq!(m.row(r).iter().sum::<f32>(), 2.0);
        }
    }

    #[test]
    fn target_nodes_encode_label_one() {
        let cfg = FeatureConfig::for_graph(3);
        let sub = sample_subgraph();
        let m = build_node_features(&sub, &cfg);
        // Locals 0 and 1 are the targets: DRNL block position 1 set.
        for target in 0..2 {
            assert_eq!(m.get(target, cfg.num_node_types + 1), 1.0);
        }
    }

    #[test]
    fn node_type_block_matches_types() {
        let cfg = FeatureConfig::for_graph(3);
        let sub = sample_subgraph();
        let m = build_node_features(&sub, &cfg);
        for (i, &t) in sub.node_types.iter().enumerate() {
            assert_eq!(m.get(i, t as usize), 1.0, "local {i}");
        }
    }

    #[test]
    fn drnl_labels_are_capped() {
        let cfg = FeatureConfig {
            num_node_types: 3,
            max_drnl: 1,
        };
        let sub = sample_subgraph();
        // Labels above the cap (targets are 1, the path node gets label 2+)
        // must clamp into the last DRNL slot, keeping rows one-hot.
        assert!(
            sub.drnl.iter().any(|&l| l > cfg.max_drnl),
            "need a label above the cap"
        );
        let m = build_node_features(&sub, &cfg);
        for r in 0..m.rows() {
            let drnl_block = &m.row(r)[3..];
            assert_eq!(drnl_block.len(), 2);
            assert_eq!(drnl_block.iter().filter(|&&v| v == 1.0).count(), 1);
        }
    }
}
