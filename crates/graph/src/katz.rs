//! Katz index — the γ-decaying high-order heuristic the SEAL theory is
//! usually illustrated with: `Katz(u, v) = Σ_{l≥1} β^l · |walks_l(u, v)|`.
//!
//! We compute the truncated series with repeated sparse adjacency
//! applications ([`CsrMatrix::spmv_f64`]) of an indicator vector, which is
//! exact up to the truncation depth and never materializes an n×n matrix.
//! Walk counts are small integers, so the `f64` accumulation is exact.

use crate::graph::KnowledgeGraph;
use amdgcnn_tensor::CsrMatrix;

/// Adjacency operator `M[x][w] = #edges w → x` as a CSR matrix, so one
/// level of walk counting is `next = M · walks`. Multi-edges sum to their
/// multiplicity via [`CsrMatrix::from_triplets`] dedup.
fn adjacency(g: &KnowledgeGraph) -> CsrMatrix {
    let n = g.num_nodes();
    let mut triplets = Vec::new();
    for w in 0..n {
        for x in g.neighbor_ids(w as u32) {
            triplets.push((x as usize, w, 1.0f32));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Katz parameters.
#[derive(Debug, Clone, Copy)]
pub struct KatzConfig {
    /// Decay β (must satisfy β < 1/λ_max for the infinite series to
    /// converge; the truncated series is always finite).
    pub beta: f64,
    /// Truncation depth (number of walk lengths summed).
    pub max_len: usize,
}

impl Default for KatzConfig {
    fn default() -> Self {
        Self {
            beta: 0.05,
            max_len: 6,
        }
    }
}

/// Truncated Katz index between `u` and `v`.
pub fn katz_score(g: &KnowledgeGraph, u: u32, v: u32, cfg: &KatzConfig) -> f64 {
    let n = g.num_nodes();
    let a = adjacency(g);
    // walks[w] = number of length-l walks u → w, updated per level.
    let mut walks = vec![0.0f64; n];
    walks[u as usize] = 1.0;
    let mut score = 0.0;
    let mut beta_pow = 1.0;
    for _ in 1..=cfg.max_len {
        beta_pow *= cfg.beta;
        walks = a.spmv_f64(&walks);
        score += beta_pow * walks[v as usize];
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::KnowledgeGraph;

    #[test]
    fn single_edge_exact() {
        // Walks between endpoints of a single edge: lengths 1, 3, 5, ...
        // count 1 each (back-and-forth), so Katz = β + β³ + β⁵ (to depth 6).
        let g = KnowledgeGraph::from_edges(2, &[(0, 1)]);
        let cfg = KatzConfig {
            beta: 0.1,
            max_len: 6,
        };
        let expect = 0.1 + 0.1f64.powi(3) + 0.1f64.powi(5);
        assert!((katz_score(&g, 0, 1, &cfg) - expect).abs() < 1e-12);
    }

    #[test]
    fn triangle_walks() {
        // Triangle: length-2 walks between distinct nodes = 1 (via the third
        // node); length-1 = 1.
        let g = KnowledgeGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let cfg = KatzConfig {
            beta: 0.1,
            max_len: 2,
        };
        let expect = 0.1 + 0.01;
        assert!((katz_score(&g, 0, 1, &cfg) - expect).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pair_is_zero() {
        let g = KnowledgeGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(katz_score(&g, 0, 2, &KatzConfig::default()), 0.0);
    }

    #[test]
    fn score_decays_with_distance() {
        let g = KnowledgeGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cfg = KatzConfig::default();
        let s1 = katz_score(&g, 0, 1, &cfg);
        let s2 = katz_score(&g, 0, 2, &cfg);
        let s3 = katz_score(&g, 0, 3, &cfg);
        assert!(s1 > s2 && s2 > s3, "{s1} {s2} {s3}");
    }

    #[test]
    fn symmetric_on_undirected_graphs() {
        let g = KnowledgeGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let cfg = KatzConfig::default();
        for (u, v) in [(0u32, 2u32), (1, 3), (0, 4)] {
            assert!((katz_score(&g, u, v, &cfg) - katz_score(&g, v, u, &cfg)).abs() < 1e-12);
        }
    }
}
