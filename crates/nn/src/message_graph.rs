//! The unified message-passing view: one [`MessageGraph`] serves every
//! layer family, one [`GraphLayer`] trait gives them a common forward
//! shape, and one [`BlockDiagGraph`] packs many small subgraphs into a
//! single sparse forward.
//!
//! A `MessageGraph` is built once per subgraph, so `PreparedSample`
//! carries one encoding of it whatever the layer family (GCN, GAT,
//! R-GCN), and it holds everything any layer needs:
//!
//! * the message CSR ([`CsrGraph`]: undirected edges expanded to two
//!   directed messages plus one self-loop per node, grouped by
//!   destination),
//! * per-destination segment table (attention softmax),
//! * per-message provenance (originating undirected edge, relation type),
//! * per-message expanded edge attributes,
//! * lazily cached per-message weight vectors (GCN symmetric norm,
//!   R-GCN per-relation in-degree norms).
//!
//! Layers consume it through the g-SpMM / g-SDDMM tape ops, so a forward
//! pass is a handful of large sparse kernel calls instead of per-edge
//! gather/concat chains.

use amdgcnn_tensor::{CsrGraph, Matrix, ParamStore, Tape, Var};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Unified message-passing operand: CSR topology + provenance + edge
/// attributes + cached normalization weights. Cheap to clone (everything
/// heavy is behind `Arc`).
#[derive(Debug, Clone)]
pub struct MessageGraph {
    num_nodes: usize,
    num_edges: usize,
    csr: Arc<CsrGraph>,
    segments: Arc<Vec<(usize, usize)>>,
    /// Originating undirected edge per message (`None` for self-loops).
    orig_edge: Arc<Vec<Option<usize>>>,
    /// Relation type per message (`None` for self-loops).
    rel: Arc<Vec<Option<u16>>>,
    /// Per-message edge attributes `[M, edge_dim]` (self-loop rows zero).
    edge_attrs: EdgeAttrSource,
    /// Cached GCN symmetric-norm weights `d^{-1/2}(dst)·d^{-1/2}(src)`.
    gcn_w: OnceLock<Arc<Vec<f32>>>,
    /// Cached per-relation weight vectors `1/|N_r(dst)|` (self-loops 0).
    rel_w: OnceLock<Arc<RelationWeights>>,
}

/// Per-relation message weights: for each relation id, one weight per
/// message (`1/|N_r(dst)|` on that relation's messages, zero elsewhere).
pub type RelationWeights = Vec<(u16, Arc<Vec<f32>>)>;

/// Where a graph's per-message edge attributes come from: absent,
/// materialized `[M, edge_dim]`, or deferred — the batcher records the
/// parts' attribute matrices and concatenates them only when a layer
/// actually reads attributes, so attribute-blind minibatches (GCN) never
/// pay the multi-megabyte copy.
#[derive(Debug, Clone)]
enum EdgeAttrSource {
    None,
    Ready(Arc<Matrix>),
    Packed {
        width: usize,
        /// `(num_messages, attrs)` per packed part; attr-less parts
        /// contribute zero rows.
        parts: Vec<(usize, Option<Arc<Matrix>>)>,
        cache: OnceLock<Arc<Matrix>>,
    },
}

impl MessageGraph {
    /// Build from an untyped undirected edge list (all edges relation 0,
    /// no attributes). Each edge contributes two directed messages; every
    /// node gets a self-loop.
    pub fn from_undirected(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let typed: Vec<(usize, usize, u16)> = edges.iter().map(|&(u, v)| (u, v, 0)).collect();
        Self::from_typed(num_nodes, &typed, None)
    }

    /// Build from a typed undirected edge list with optional
    /// per-undirected-edge attribute rows `[E, edge_dim]` (expanded to
    /// per-message rows here; self-loops get zero attributes).
    pub fn from_typed(
        num_nodes: usize,
        edges: &[(usize, usize, u16)],
        per_edge_attrs: Option<&Matrix>,
    ) -> Self {
        if let Some(ea) = per_edge_attrs {
            assert_eq!(
                ea.rows(),
                edges.len(),
                "edge attribute rows must match edge count"
            );
        }
        // (dst, src, orig_edge, rel); self-loops carry no edge or relation.
        let mut msgs: Vec<(usize, usize, Option<usize>, Option<u16>)> =
            Vec::with_capacity(edges.len() * 2 + num_nodes);
        for (idx, &(u, v, r)) in edges.iter().enumerate() {
            assert!(
                u < num_nodes && v < num_nodes,
                "edge ({u},{v}) out of range"
            );
            msgs.push((v, u, Some(idx), Some(r)));
            if u != v {
                msgs.push((u, v, Some(idx), Some(r)));
            }
        }
        for n in 0..num_nodes {
            msgs.push((n, n, None, None));
        }
        msgs.sort_unstable_by_key(|&(d, s, e, _)| (d, s, e));

        let pairs: Vec<(u32, u32)> = msgs
            .iter()
            .map(|&(d, s, ..)| (s as u32, d as u32))
            .collect();
        let csr = Arc::new(CsrGraph::from_messages(num_nodes, &pairs));
        let segments = Arc::new(csr.dst_segments());
        let edge_attrs = match per_edge_attrs {
            Some(ea) => {
                let mut out = Matrix::zeros(msgs.len(), ea.cols());
                for (m, &(_, _, orig, _)) in msgs.iter().enumerate() {
                    if let Some(e) = orig {
                        out.row_mut(m).copy_from_slice(ea.row(e));
                    }
                }
                EdgeAttrSource::Ready(Arc::new(out))
            }
            None => EdgeAttrSource::None,
        };
        Self {
            num_nodes,
            num_edges: edges.len(),
            csr,
            segments,
            orig_edge: Arc::new(msgs.iter().map(|&(_, _, e, _)| e).collect()),
            rel: Arc::new(msgs.iter().map(|&(_, _, _, r)| r).collect()),
            edge_attrs,
            gcn_w: OnceLock::new(),
            rel_w: OnceLock::new(),
        }
    }

    /// Rebuild from an already-sorted message list — the exact output of
    /// [`MessageGraph::from_typed`]'s sort, as captured by
    /// `csr().src_ids()` / `dst_ids()` / [`MessageGraph::orig_edge`].
    /// Everything here is a counting sort or a linear copy — no re-sort —
    /// which is what makes decoding a persisted sample substantially
    /// cheaper than re-tensorizing it.
    ///
    /// `pairs` are `(src, dst)` per message, grouped by non-decreasing
    /// `dst`; `orig` is the originating undirected edge per message, with
    /// `u32::MAX` marking a self-loop message. Relations and expanded
    /// per-message attributes are rederived from `edges` /
    /// `per_edge_attrs`, so the result is bit-identical to
    /// `from_typed(num_nodes, edges, per_edge_attrs)` whenever the message
    /// list was captured from it.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, decreasing destinations, a
    /// `pairs`/`orig` length mismatch, or an `orig` index past `edges` —
    /// callers deserializing untrusted bytes must validate first (the
    /// sample store CRC-guards records and still pre-validates before
    /// calling this).
    pub fn from_message_list(
        num_nodes: usize,
        edges: &[(usize, usize, u16)],
        pairs: &[(u32, u32)],
        orig: &[u32],
        per_edge_attrs: Option<&Matrix>,
    ) -> Self {
        if let Some(ea) = per_edge_attrs {
            assert_eq!(
                ea.rows(),
                edges.len(),
                "edge attribute rows must match edge count"
            );
        }
        assert_eq!(pairs.len(), orig.len(), "one origin per message");
        let csr = Arc::new(CsrGraph::from_messages(num_nodes, pairs));
        let segments = Arc::new(csr.dst_segments());
        let mut orig_edge: Vec<Option<usize>> = Vec::with_capacity(orig.len());
        let mut rel: Vec<Option<u16>> = Vec::with_capacity(orig.len());
        for &e in orig {
            if e == u32::MAX {
                orig_edge.push(None);
                rel.push(None);
            } else {
                assert!(
                    (e as usize) < edges.len(),
                    "message origin {e} out of range for {} edges",
                    edges.len()
                );
                orig_edge.push(Some(e as usize));
                rel.push(Some(edges[e as usize].2));
            }
        }
        let edge_attrs = match per_edge_attrs {
            Some(ea) => {
                let mut out = Matrix::zeros(orig.len(), ea.cols());
                for (m, o) in orig_edge.iter().enumerate() {
                    if let Some(e) = *o {
                        out.row_mut(m).copy_from_slice(ea.row(e));
                    }
                }
                EdgeAttrSource::Ready(Arc::new(out))
            }
            None => EdgeAttrSource::None,
        };
        Self {
            num_nodes,
            num_edges: edges.len(),
            csr,
            segments,
            orig_edge: Arc::new(orig_edge),
            rel: Arc::new(rel),
            edge_attrs,
            gcn_w: OnceLock::new(),
            rel_w: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of underlying undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of directed messages (two per edge + one self-loop per node).
    pub fn num_messages(&self) -> usize {
        self.csr.num_messages()
    }

    /// The message CSR consumed by the sparse kernels.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// Per-destination `(start, end)` message segments (attention softmax).
    pub fn segments(&self) -> Arc<Vec<(usize, usize)>> {
        self.segments.clone()
    }

    /// Originating undirected edge per message (`None` for self-loops).
    pub fn orig_edge(&self) -> &[Option<usize>] {
        &self.orig_edge
    }

    /// Relation type per message (`None` for self-loops).
    pub fn relations(&self) -> &[Option<u16>] {
        &self.rel
    }

    /// Expanded per-message edge attributes, when the dataset has them.
    /// For a packed graph the concatenation is deferred to this first
    /// call (and cached), so minibatches whose layers never read
    /// attributes skip the copy entirely.
    pub fn edge_attrs(&self) -> Option<&Arc<Matrix>> {
        match &self.edge_attrs {
            EdgeAttrSource::None => None,
            EdgeAttrSource::Ready(a) => Some(a),
            EdgeAttrSource::Packed {
                width,
                parts,
                cache,
            } => Some(cache.get_or_init(|| {
                let total: usize = parts.iter().map(|(m, _)| m).sum();
                let mut data = Vec::with_capacity(total * width);
                for (m, a) in parts {
                    match a {
                        Some(a) => data.extend_from_slice(a.data()),
                        None => data.resize(data.len() + m * width, 0.0),
                    }
                }
                Arc::new(Matrix::from_vec(total, *width, data))
            })),
        }
    }

    /// GCN symmetric normalization per message:
    /// `w[m] = d^{-1/2}(dst[m]) · d^{-1/2}(src[m])` where the degree is the
    /// message in-degree (self-loop included — the `A + I` convention).
    /// Computed once and cached.
    pub fn gcn_weights(&self) -> Arc<Vec<f32>> {
        self.gcn_w
            .get_or_init(|| {
                let inv: Vec<f32> = (0..self.num_nodes)
                    .map(|n| {
                        let d = self.csr.in_degree(n);
                        if d > 0 {
                            1.0 / (d as f32).sqrt()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let src = self.csr.src_ids();
                let dst = self.csr.dst_ids();
                Arc::new(
                    (0..self.num_messages())
                        .map(|m| inv[dst[m] as usize] * inv[src[m] as usize])
                        .collect(),
                )
            })
            .clone()
    }

    /// Per-relation R-GCN weight vectors, ascending by relation id:
    /// `w_r[m] = 1/|N_r(dst[m])|` for messages of relation `r`, zero
    /// elsewhere (self-loops carry no relation — the self-connection is a
    /// separate dense term). Computed once and cached.
    pub fn relation_weights(&self) -> Arc<RelationWeights> {
        self.rel_w
            .get_or_init(|| {
                let dst = self.csr.dst_ids();
                let mut indeg: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
                for (m, r) in self.rel.iter().enumerate() {
                    if let Some(r) = *r {
                        indeg.entry(r).or_insert_with(|| vec![0u32; self.num_nodes])
                            [dst[m] as usize] += 1;
                    }
                }
                let groups = indeg
                    .into_iter()
                    .map(|(r, counts)| {
                        let w: Vec<f32> = self
                            .rel
                            .iter()
                            .enumerate()
                            .map(|(m, rr)| {
                                if *rr == Some(r) {
                                    1.0 / counts[dst[m] as usize] as f32
                                } else {
                                    0.0
                                }
                            })
                            .collect();
                        (r, Arc::new(w))
                    })
                    .collect();
                Arc::new(groups)
            })
            .clone()
    }

    /// Assemble directly from packed parts (the batcher's constructor).
    #[allow(clippy::too_many_arguments)]
    fn from_raw(
        num_nodes: usize,
        num_edges: usize,
        csr: Arc<CsrGraph>,
        orig_edge: Vec<Option<usize>>,
        rel: Vec<Option<u16>>,
        edge_attrs: EdgeAttrSource,
    ) -> Self {
        let segments = Arc::new(csr.dst_segments());
        Self {
            num_nodes,
            num_edges,
            csr,
            segments,
            orig_edge: Arc::new(orig_edge),
            rel: Arc::new(rel),
            edge_attrs,
            gcn_w: OnceLock::new(),
            rel_w: OnceLock::new(),
        }
    }
}

/// The one forward shape every message-passing layer implements. Layers
/// read whatever slice of the [`MessageGraph`] they understand — GCN its
/// normalization weights, GAT its segments and edge attributes, R-GCN its
/// relation weights — so model assembly and batching are family-agnostic.
pub trait GraphLayer: Send + Sync {
    /// One message-passing step: node features `[N, in]` → `[N, out]`.
    fn forward(&self, tape: &mut Tape, ps: &ParamStore, graph: &MessageGraph, h: Var) -> Var;

    /// Output feature width of the layer.
    fn output_width(&self) -> usize;
}

/// K variable-size subgraphs packed block-diagonally into one
/// [`MessageGraph`]: node ids and message ids of part `k` are shifted by
/// the offsets recorded here, and because the parts are disjoint every
/// per-destination reduction, segment softmax, and normalization weight is
/// bit-identical to the per-sample computation — a batched forward is a
/// handful of large kernel calls that reproduces K small forwards exactly.
#[derive(Debug, Clone)]
pub struct BlockDiagGraph {
    /// The packed graph (usable anywhere a per-sample graph is).
    pub graph: MessageGraph,
    /// Node offset per part, length `K + 1`.
    node_offsets: Vec<usize>,
    /// Message offset per part, length `K + 1`.
    msg_offsets: Vec<usize>,
}

impl BlockDiagGraph {
    /// Pack parts in order. Edge-attribute widths must agree across parts
    /// that carry attributes; attribute-less parts contribute zero rows
    /// when any part carries them.
    ///
    /// Packing is on the training hot path (the trainer re-packs every
    /// shuffled minibatch each epoch), so everything here is a linear copy
    /// or cheaper: the packed CSR comes from
    /// [`CsrGraph::concat_block_diag`] (no re-sort), the packed GCN norm
    /// cache is pre-filled from the per-part caches — block-diagonal
    /// packing preserves every in-degree, so the per-part weights
    /// concatenate bit-for-bit — and edge attributes are only *recorded*
    /// here; their concatenation is deferred until some layer reads them.
    pub fn pack(parts: &[&MessageGraph]) -> Self {
        let total_msgs: usize = parts.iter().map(|p| p.num_messages()).sum();
        let total_edges: usize = parts.iter().map(|p| p.num_edges()).sum();

        let mut node_offsets = Vec::with_capacity(parts.len() + 1);
        let mut msg_offsets = Vec::with_capacity(parts.len() + 1);
        let mut orig_edge: Vec<Option<usize>> = Vec::with_capacity(total_msgs);
        let mut rel: Vec<Option<u16>> = Vec::with_capacity(total_msgs);
        let mut gcn_w: Vec<f32> = Vec::with_capacity(total_msgs);

        let attr_width = parts
            .iter()
            .filter_map(|p| p.edge_attrs().map(|a| a.cols()))
            .next();
        if let Some(w) = attr_width {
            for p in parts {
                if let Some(a) = p.edge_attrs() {
                    assert_eq!(a.cols(), w, "edge-attribute widths differ across parts");
                }
            }
        }
        let attrs = match attr_width {
            Some(width) => EdgeAttrSource::Packed {
                width,
                parts: parts
                    .iter()
                    .map(|p| (p.num_messages(), p.edge_attrs().cloned()))
                    .collect(),
                cache: OnceLock::new(),
            },
            None => EdgeAttrSource::None,
        };

        let (mut node_off, mut msg_off, mut edge_off) = (0usize, 0usize, 0usize);
        for p in parts {
            node_offsets.push(node_off);
            msg_offsets.push(msg_off);
            orig_edge.extend(p.orig_edge().iter().map(|e| e.map(|i| i + edge_off)));
            rel.extend_from_slice(p.relations());
            gcn_w.extend_from_slice(&p.gcn_weights());
            node_off += p.num_nodes();
            msg_off += p.num_messages();
            edge_off += p.num_edges();
        }
        node_offsets.push(node_off);
        msg_offsets.push(msg_off);

        let csrs: Vec<&CsrGraph> = parts.iter().map(|p| p.csr().as_ref()).collect();
        let csr = Arc::new(CsrGraph::concat_block_diag(&csrs));
        let graph = MessageGraph::from_raw(node_off, total_edges, csr, orig_edge, rel, attrs);
        let _ = graph.gcn_w.set(Arc::new(gcn_w));
        Self {
            graph,
            node_offsets,
            msg_offsets,
        }
    }

    /// Number of packed parts.
    pub fn num_parts(&self) -> usize {
        self.node_offsets.len() - 1
    }

    /// Global node-id range of part `k`.
    pub fn node_range(&self, k: usize) -> std::ops::Range<usize> {
        self.node_offsets[k]..self.node_offsets[k + 1]
    }

    /// Global message-id range of part `k`.
    pub fn msg_range(&self, k: usize) -> std::ops::Range<usize> {
        self.msg_offsets[k]..self.msg_offsets[k + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::Reduce;

    #[test]
    fn message_graph_structure_matches_legacy_edge_index() {
        // Path 0-1-2: 2 edges → 4 directed messages + 3 self-loops.
        let g = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_messages(), 7);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.segments().len(), 3);
        // dst grouped; each segment covers that node's incoming messages.
        for (n, &(s, e)) in g.segments().iter().enumerate() {
            for m in s..e {
                assert_eq!(g.csr().dst_ids()[m] as usize, n);
            }
        }
        // Node 1 receives from 0, 2 and itself.
        let (s, e) = g.segments()[1];
        let mut srcs: Vec<u32> = (s..e).map(|m| g.csr().src_ids()[m]).collect();
        srcs.sort_unstable();
        assert_eq!(srcs, vec![0, 1, 2]);
    }

    #[test]
    fn edge_attr_expansion_zeroes_self_loops() {
        let attrs = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let g = MessageGraph::from_typed(2, &[(0, 1, 0)], Some(&attrs));
        let ea = g.edge_attrs().expect("attrs");
        assert_eq!(ea.shape(), (4, 2));
        for (m, orig) in g.orig_edge().iter().enumerate() {
            match orig {
                Some(0) => assert_eq!(ea.row(m), &[1.0, -1.0]),
                None => assert_eq!(ea.row(m), &[0.0, 0.0]),
                other => panic!("unexpected orig edge {other:?}"),
            }
        }
    }

    #[test]
    fn gcn_weights_match_normalized_adjacency() {
        // 0-1-2 path; degrees with self-loops 2, 3, 2. Message 1→0 weight
        // must be 1/(√2·√3).
        let g = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        let w = g.gcn_weights();
        let src = g.csr().src_ids();
        let dst = g.csr().dst_ids();
        for m in 0..g.num_messages() {
            let expect = match (dst[m], src[m]) {
                (0, 0) | (2, 2) => 0.5,
                (1, 1) => 1.0 / 3.0,
                (0, 1) | (1, 0) | (1, 2) | (2, 1) => 1.0 / (2.0f32 * 3.0).sqrt(),
                other => panic!("unexpected message {other:?}"),
            };
            assert!((w[m] - expect).abs() < 1e-6, "message {m}");
        }
        // Aggregating a constant vector with these weights reproduces the
        // Â row sums.
        let ones = Matrix::ones(3, 1);
        let row_sums = g.csr().spmm_ew(&w, &ones);
        let edge_w = 1.0 / (2.0f32 * 3.0).sqrt();
        let expect = [0.5 + edge_w, 1.0 / 3.0 + 2.0 * edge_w, 0.5 + edge_w];
        for (n, &e) in expect.iter().enumerate() {
            assert!((row_sums.get(n, 0) - e).abs() < 1e-6, "row {n}");
        }
    }

    #[test]
    fn relation_weights_group_and_normalize() {
        // Edges (0,1,r0), (1,2,r0), (0,2,r1): node 1 has two incoming r0
        // messages → weight 1/2 each.
        let g = MessageGraph::from_typed(3, &[(0, 1, 0), (1, 2, 0), (0, 2, 1)], None);
        let rw = g.relation_weights();
        assert_eq!(rw.len(), 2);
        assert_eq!(rw[0].0, 0);
        assert_eq!(rw[1].0, 1);
        let dst = g.csr().dst_ids();
        for (m, r) in g.relations().iter().enumerate() {
            match r {
                Some(0) => {
                    let expect = if dst[m] == 1 { 0.5 } else { 1.0 };
                    assert_eq!(rw[0].1[m], expect, "r0 message {m}");
                    assert_eq!(rw[1].1[m], 0.0);
                }
                Some(1) => {
                    assert_eq!(rw[1].1[m], 1.0);
                    assert_eq!(rw[0].1[m], 0.0);
                }
                None => {
                    assert_eq!(rw[0].1[m], 0.0, "self-loops carry no relation");
                    assert_eq!(rw[1].1[m], 0.0);
                }
                other => panic!("unexpected relation {other:?}"),
            }
        }
    }

    #[test]
    fn block_diag_pack_offsets_and_weights() {
        let a = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        let b = MessageGraph::from_undirected(2, &[(0, 1)]);
        let packed = BlockDiagGraph::pack(&[&a, &b]);
        assert_eq!(packed.num_parts(), 2);
        assert_eq!(packed.graph.num_nodes(), 5);
        assert_eq!(
            packed.graph.num_messages(),
            a.num_messages() + b.num_messages()
        );
        assert_eq!(packed.node_range(1), 3..5);
        assert_eq!(packed.msg_range(0), 0..a.num_messages());
        // Per-part normalization weights are reproduced bit-for-bit.
        let wp = packed.graph.gcn_weights();
        let wa = a.gcn_weights();
        let wb = b.gcn_weights();
        assert_eq!(&wp[..wa.len()], &wa[..]);
        assert_eq!(&wp[wa.len()..], &wb[..]);
        // Aggregation over the packed graph matches per-part aggregation.
        let ha = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let hb = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 * 0.5);
        let hp = Matrix::concat_rows(&[&ha, &hb]);
        let agg = packed.graph.csr().aggregate(&hp, Reduce::Sum);
        let agg_a = a.csr().aggregate(&ha, Reduce::Sum);
        let agg_b = b.csr().aggregate(&hb, Reduce::Sum);
        assert_eq!(agg.row(1), agg_a.row(1));
        assert_eq!(agg.row(4), agg_b.row(1));
    }

    #[test]
    fn block_diag_handles_empty_and_isolated_parts() {
        let empty = MessageGraph::from_undirected(0, &[]);
        let isolated = MessageGraph::from_undirected(2, &[]); // self-loops only
        let normal = MessageGraph::from_undirected(2, &[(0, 1)]);
        let packed = BlockDiagGraph::pack(&[&empty, &isolated, &normal]);
        assert_eq!(packed.graph.num_nodes(), 4);
        assert_eq!(packed.node_range(0), 0..0);
        assert_eq!(packed.node_range(1), 0..2);
        // Isolated nodes keep unit self-loop weight in the GCN norm.
        let w = packed.graph.gcn_weights();
        assert_eq!(w[packed.msg_range(1)][0], 1.0);
        // Parts contribute 0, 2, and 4 messages respectively.
        assert_eq!(packed.graph.num_messages(), 2 + 4);
    }

    #[test]
    fn from_message_list_is_bit_identical_to_from_typed() {
        // Mixed shape: a self-loop edge, a repeated pair, typed relations,
        // and per-edge attributes — everything the sort has to order.
        let edges = [(0usize, 1usize, 2u16), (1, 2, 0), (2, 2, 1), (0, 1, 1)];
        let attrs = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
        let built = MessageGraph::from_typed(4, &edges, Some(&attrs));

        // Capture exactly what the store persists per message.
        let pairs: Vec<(u32, u32)> = (0..built.num_messages())
            .map(|m| (built.csr().src_ids()[m], built.csr().dst_ids()[m]))
            .collect();
        let orig: Vec<u32> = built
            .orig_edge()
            .iter()
            .map(|o| o.map_or(u32::MAX, |e| e as u32))
            .collect();
        let rebuilt = MessageGraph::from_message_list(4, &edges, &pairs, &orig, Some(&attrs));

        assert_eq!(rebuilt.num_nodes(), built.num_nodes());
        assert_eq!(rebuilt.num_edges(), built.num_edges());
        assert_eq!(rebuilt.csr().src_ids(), built.csr().src_ids());
        assert_eq!(rebuilt.csr().dst_ids(), built.csr().dst_ids());
        assert_eq!(rebuilt.orig_edge(), built.orig_edge());
        assert_eq!(rebuilt.relations(), built.relations());
        assert_eq!(&*rebuilt.segments(), &*built.segments());
        assert_eq!(
            rebuilt.edge_attrs().map(|a| a.data()),
            built.edge_attrs().map(|a| a.data())
        );
        assert_eq!(&*rebuilt.gcn_weights(), &*built.gcn_weights());
        let (rw_a, rw_b) = (rebuilt.relation_weights(), built.relation_weights());
        assert_eq!(rw_a.len(), rw_b.len());
        for ((ra, wa), (rb, wb)) in rw_a.iter().zip(rw_b.iter()) {
            assert_eq!(ra, rb);
            assert_eq!(&**wa, &**wb);
        }
    }

    #[test]
    fn pack_mixes_attr_and_attrless_parts() {
        let attrs = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let with = MessageGraph::from_typed(2, &[(0, 1, 0)], Some(&attrs));
        let without = MessageGraph::from_undirected(2, &[(0, 1)]);
        let packed = BlockDiagGraph::pack(&[&with, &without]);
        let ea = packed.graph.edge_attrs().expect("width adopted");
        assert_eq!(ea.shape(), (packed.graph.num_messages(), 3));
        // The attr-less part's rows are zero.
        for m in packed.msg_range(1) {
            assert_eq!(ea.row(m), &[0.0, 0.0, 0.0]);
        }
    }
}
