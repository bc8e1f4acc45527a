//! Compressed-sparse-row (CSR) sparse operators.
//!
//! Two structures live here:
//!
//! * [`CsrMatrix`] — a general sparse `f32` matrix (row pointers + column
//!   indices + values) with an `f64`-accumulating `spmv_f64`. The
//!   heuristic baselines' graph algorithms (Katz, PageRank) run on it; no
//!   model layer does.
//! * [`CsrGraph`] — a *topology-only* CSR over messages `(src → dst)`,
//!   grouped by destination, carrying both the forward layout and its
//!   transpose. This is the substrate for the generalized g-SpMM kernel
//!   (Wang et al., DGL) that GCN and R-GCN reduce to, whose backward pass
//!   is the transposed kernel, and for the fused GAT attention head
//!   (`CsrGraph::gat_attention`, in the `attention` submodule), which
//!   runs the g-SDDMM scores, the per-destination softmax and the g-SpMM
//!   aggregation in one sweep with a hand-written adjoint.

use crate::matrix::Matrix;
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

mod attention;

pub(crate) use attention::AttentionInputs;

/// CSR sparse matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index per stored value.
    indices: Vec<u32>,
    /// Stored values.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from COO triplets `(row, col, value)` in any order.
    ///
    /// **Duplicate rule (contract):** duplicate coordinates — adjacent or
    /// split anywhere across the input — are **summed** by an explicit
    /// dedup pass after sorting; the result holds one entry per distinct
    /// coordinate whose value is the sum of every occurrence, and input
    /// order never matters. This is *not* last-wins. Adjacency matrices
    /// built from multigraph edge lists (Katz and PageRank weighting) rely
    /// on parallel edges accumulating multiplicity,
    /// and graph-mutation replay relies on a replayed edge list producing
    /// the same matrix as the live one regardless of the order mutations
    /// interleaved — both hold only under summation, which is
    /// order-independent.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        Self::from_sorted_coo(rows, cols, &sorted)
    }

    /// Build from COO triplets already sorted by `(row, col)` — the fast
    /// path for block-diagonal batchers, which produce sorted output by
    /// construction and must not pay a redundant sort. Runs of equal
    /// coordinates are merged by summation.
    ///
    /// # Panics
    /// Panics if the triplets are out of order or out of bounds.
    pub fn from_sorted_coo(rows: usize, cols: usize, sorted: &[(usize, usize, f32)]) -> Self {
        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<u32> = Vec::with_capacity(sorted.len());
        let mut values: Vec<f32> = Vec::with_capacity(sorted.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c, v) in sorted {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds {rows}x{cols}"
            );
            match prev {
                Some(p) if p == (r, c) => {
                    // Explicit dedup: same coordinate as the previous entry.
                    *values.last_mut().expect("values nonempty once prev is set") += v;
                }
                Some(p) => {
                    assert!(
                        p < (r, c),
                        "from_sorted_coo: triplet ({r},{c}) out of order after {p:?}"
                    );
                    indices.push(c as u32);
                    values.push(v);
                    indptr[r + 1] += 1;
                    prev = Some((r, c));
                }
                None => {
                    indices.push(c as u32);
                    values.push(v);
                    indptr[r + 1] += 1;
                    prev = Some((r, c));
                }
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored entries of row `r` as `(col, value)` pairs.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(self.values[lo..hi].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Dense copy (test helper; avoid on large matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }

    /// Sparse-vector product `self · x` with `f64` accumulation, for
    /// iterative graph algorithms (Katz, PageRank) whose convergence
    /// tolerances sit below single-precision roundoff. Values are widened
    /// per element; the summation itself runs entirely in `f64`.
    pub fn spmv_f64(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "spmv_f64: vector length {} != cols {}",
            x.len(),
            self.cols
        );
        (0..self.rows)
            .map(|r| {
                self.row_entries(r)
                    .map(|(c, v)| v as f64 * x[c])
                    .sum::<f64>()
            })
            .collect()
    }
}

/// Work threshold (stored entries × feature width) above which sparse
/// kernels fan rows out over the rayon pool. Both paths sum each output
/// row in the same order, so the cutover is bit-inert.
const PAR_WORK: usize = 1 << 16;

/// Reduction applied by [`CsrGraph::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Plain sum over incoming messages.
    Sum,
    /// Sum scaled by `1 / in-degree` of the destination (nodes with no
    /// incoming messages stay zero).
    Mean,
}

/// Topology-only CSR over directed messages `src → dst`, grouped by
/// destination, with the transposed layout precomputed.
///
/// This is the operand of two kernels:
///
/// * **g-SpMM** ([`spmm_ew`](Self::spmm_ew) and friends): gather node
///   features along incoming messages, scale by fixed per-message weights,
///   and reduce per destination — `out[d] = Σ_{m ∈ in(d)} w[m] · h[src[m]]`.
///   Its adjoint for the features is the transposed g-SpMM
///   ([`spmm_ew_t`](Self::spmm_ew_t)).
/// * **Fused attention** (`gat_attention`, behind
///   [`Tape::gat_attention`](crate::Tape::gat_attention)): one GAT head's
///   per-message scores (g-SDDMM), softmax over each destination's
///   messages and the attention-weighted g-SpMM, with its hand-written
///   adjoint `gat_attention_backward`.
///
/// Message ids are positions in the construction order, which callers use
/// to attach per-message payloads (edge attributes, attention logits).
/// Within one destination the construction order is preserved, so all
/// per-destination reductions are deterministic, and packing disjoint
/// graphs block-diagonally preserves every per-sample summation order
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_nodes: usize,
    /// Message pointer per destination node, length `num_nodes + 1`.
    indptr: Vec<usize>,
    /// Source node per message.
    src: Vec<u32>,
    /// Destination node per message (redundant with `indptr`, kept for
    /// O(1) per-message access in the edge-parallel kernels).
    dst: Vec<u32>,
    /// Transposed layout: message ids grouped by source node.
    t_indptr: Vec<usize>,
    t_msg: Vec<u32>,
    /// Cached reducer weight vectors (`Sum` = ones, `Mean` = 1/in-degree).
    w_ones: OnceLock<Arc<Vec<f32>>>,
    w_mean: OnceLock<Arc<Vec<f32>>>,
}

impl CsrGraph {
    /// Build from messages `(src, dst)` that are already grouped by
    /// non-decreasing destination (the message id is the position).
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or if destinations decrease.
    pub fn from_messages(num_nodes: usize, messages: &[(u32, u32)]) -> Self {
        let mut indptr = vec![0usize; num_nodes + 1];
        let mut src = Vec::with_capacity(messages.len());
        let mut dst = Vec::with_capacity(messages.len());
        let mut prev_dst = 0u32;
        for &(s, d) in messages {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "message ({s} -> {d}) out of bounds for {num_nodes} nodes"
            );
            assert!(
                d >= prev_dst,
                "messages must be grouped by non-decreasing destination ({d} after {prev_dst})"
            );
            prev_dst = d;
            indptr[d as usize + 1] += 1;
            src.push(s);
            dst.push(d);
        }
        for d in 0..num_nodes {
            indptr[d + 1] += indptr[d];
        }
        // Transpose: counting sort of message ids by source. Scanning in
        // message order keeps ids ascending within each source bucket, so
        // the transposed reduction order is deterministic as well.
        let mut t_indptr = vec![0usize; num_nodes + 1];
        for &s in &src {
            t_indptr[s as usize + 1] += 1;
        }
        for s in 0..num_nodes {
            t_indptr[s + 1] += t_indptr[s];
        }
        let mut cursor = t_indptr[..num_nodes].to_vec();
        let mut t_msg = vec![0u32; src.len()];
        for (m, &s) in src.iter().enumerate() {
            t_msg[cursor[s as usize]] = m as u32;
            cursor[s as usize] += 1;
        }
        Self {
            num_nodes,
            indptr,
            src,
            dst,
            t_indptr,
            t_msg,
            w_ones: OnceLock::new(),
            w_mean: OnceLock::new(),
        }
    }

    /// Block-diagonal concatenation of disjoint message graphs: part `k`'s
    /// node ids are shifted by the node total of parts `0..k` and its
    /// message ids by the message total.
    ///
    /// Because every part is already grouped by destination and parts are
    /// appended in node order, the shifted message list is globally
    /// dst-sorted — so the result equals [`CsrGraph::from_messages`] on
    /// that list (including the transposed layout) but is assembled by
    /// pure offset-shifted concatenation: no counting sort, no degree
    /// recount. This keeps the batcher's per-minibatch packing cost at a
    /// handful of linear copies.
    pub fn concat_block_diag(parts: &[&CsrGraph]) -> CsrGraph {
        let total_nodes: usize = parts.iter().map(|p| p.num_nodes).sum();
        let total_msgs: usize = parts.iter().map(|p| p.src.len()).sum();
        let mut indptr = Vec::with_capacity(total_nodes + 1);
        let mut t_indptr = Vec::with_capacity(total_nodes + 1);
        indptr.push(0usize);
        t_indptr.push(0usize);
        let mut src = Vec::with_capacity(total_msgs);
        let mut dst = Vec::with_capacity(total_msgs);
        let mut t_msg = Vec::with_capacity(total_msgs);
        let (mut node_off, mut msg_off) = (0usize, 0usize);
        for p in parts {
            let n_off = node_off as u32;
            let m_off = msg_off as u32;
            indptr.extend(p.indptr[1..].iter().map(|&x| x + msg_off));
            t_indptr.extend(p.t_indptr[1..].iter().map(|&x| x + msg_off));
            src.extend(p.src.iter().map(|&s| s + n_off));
            dst.extend(p.dst.iter().map(|&d| d + n_off));
            t_msg.extend(p.t_msg.iter().map(|&m| m + m_off));
            node_off += p.num_nodes;
            msg_off += p.src.len();
        }
        CsrGraph {
            num_nodes: total_nodes,
            indptr,
            src,
            dst,
            t_indptr,
            t_msg,
            w_ones: OnceLock::new(),
            w_mean: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of messages.
    pub fn num_messages(&self) -> usize {
        self.src.len()
    }

    /// Source node per message.
    pub fn src_ids(&self) -> &[u32] {
        &self.src
    }

    /// Destination node per message.
    pub fn dst_ids(&self) -> &[u32] {
        &self.dst
    }

    /// In-degree (incoming message count) of node `d`.
    pub fn in_degree(&self, d: usize) -> usize {
        self.indptr[d + 1] - self.indptr[d]
    }

    /// Per-message weight vector realizing a [`Reduce`] mode (cached).
    pub fn reduce_weights(&self, reduce: Reduce) -> Arc<Vec<f32>> {
        match reduce {
            Reduce::Sum => self
                .w_ones
                .get_or_init(|| Arc::new(vec![1.0; self.num_messages()]))
                .clone(),
            Reduce::Mean => self
                .w_mean
                .get_or_init(|| {
                    let mut w = vec![0.0f32; self.num_messages()];
                    for d in 0..self.num_nodes {
                        let deg = self.in_degree(d);
                        if deg > 0 {
                            let inv = 1.0 / deg as f32;
                            for slot in &mut w[self.indptr[d]..self.indptr[d + 1]] {
                                *slot = inv;
                            }
                        }
                    }
                    Arc::new(w)
                })
                .clone(),
        }
    }

    /// g-SpMM with a [`Reduce`] mode: `out[d] = reduce_{m ∈ in(d)} h[src[m]]`.
    pub fn aggregate(&self, h: &Matrix, reduce: Reduce) -> Matrix {
        self.spmm_ew(&self.reduce_weights(reduce), h)
    }

    /// Edge-weighted g-SpMM: `out[d] = Σ_{m ∈ in(d)} w[m] · h[src[m]]`.
    /// `h` is `[N, F]`, `w` one weight per message; returns `[N, F]`.
    pub fn spmm_ew(&self, w: &[f32], h: &Matrix) -> Matrix {
        assert_eq!(w.len(), self.num_messages(), "spmm_ew: weight count");
        assert_eq!(h.rows(), self.num_nodes, "spmm_ew: feature rows");
        let f = h.cols();
        let mut out = Matrix::zeros(self.num_nodes, f);
        let body = |d: usize, orow: &mut [f32]| {
            let (lo, hi) = (self.indptr[d], self.indptr[d + 1]);
            for (&wm, &s) in w[lo..hi].iter().zip(&self.src[lo..hi]) {
                let hrow = h.row(s as usize);
                for (o, &hv) in orow.iter_mut().zip(hrow.iter()) {
                    *o += wm * hv;
                }
            }
        };
        run_rows(&mut out, f, self.num_messages() * f, body);
        out
    }

    /// Transposed edge-weighted g-SpMM:
    /// `out[s] = Σ_{m ∈ out(s)} w[m] · g[dst[m]]` — the adjoint of
    /// [`spmm_ew`](Self::spmm_ew), used as its backward rule for the node
    /// features.
    pub fn spmm_ew_t(&self, w: &[f32], g: &Matrix) -> Matrix {
        assert_eq!(w.len(), self.num_messages(), "spmm_ew_t: weight count");
        assert_eq!(g.rows(), self.num_nodes, "spmm_ew_t: gradient rows");
        let f = g.cols();
        let mut out = Matrix::zeros(self.num_nodes, f);
        let body = |s: usize, orow: &mut [f32]| {
            for k in self.t_indptr[s]..self.t_indptr[s + 1] {
                let m = self.t_msg[k] as usize;
                let wm = w[m];
                let grow = g.row(self.dst[m] as usize);
                for (o, &gv) in orow.iter_mut().zip(grow.iter()) {
                    *o += wm * gv;
                }
            }
        };
        run_rows(&mut out, f, self.num_messages() * f, body);
        out
    }

    /// Dense weighted adjacency `A[d, s] += w[m]` (test/reference helper).
    pub fn to_dense_adj(&self, w: &[f32]) -> Matrix {
        assert_eq!(w.len(), self.num_messages());
        let mut a = Matrix::zeros(self.num_nodes, self.num_nodes);
        for (m, &wm) in w.iter().enumerate() {
            let (d, s) = (self.dst[m] as usize, self.src[m] as usize);
            a.set(d, s, a.get(d, s) + wm);
        }
        a
    }
}

/// Fan a per-output-row kernel over the rayon pool above the work
/// threshold; run it sequentially below. Row order inside each output row
/// is identical either way, so the cutover never changes results.
fn run_rows(out: &mut Matrix, f: usize, work: usize, body: impl Fn(usize, &mut [f32]) + Sync) {
    if work >= PAR_WORK {
        out.data_mut()
            .par_chunks_mut(f.max(1))
            .enumerate()
            .for_each(|(r, orow)| body(r, orow));
    } else {
        for (r, orow) in out.data_mut().chunks_mut(f.max(1)).enumerate() {
            body(r, orow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_block_diag_equals_from_messages_on_shifted_list() {
        // Three parts of varying shape, including an isolated-node part
        // (self-loop style messages) and an empty part.
        let a = CsrGraph::from_messages(3, &[(1, 0), (2, 0), (0, 1), (1, 2), (2, 2)]);
        let b = CsrGraph::from_messages(0, &[]);
        let c = CsrGraph::from_messages(2, &[(0, 0), (0, 1), (1, 1)]);
        let packed = CsrGraph::concat_block_diag(&[&a, &b, &c]);

        let mut shifted: Vec<(u32, u32)> = Vec::new();
        let mut off = 0u32;
        for p in [&a, &b, &c] {
            for m in 0..p.num_messages() {
                shifted.push((p.src_ids()[m] + off, p.dst_ids()[m] + off));
            }
            off += p.num_nodes() as u32;
        }
        let reference = CsrGraph::from_messages(5, &shifted);
        assert_eq!(packed.num_nodes, reference.num_nodes);
        assert_eq!(packed.indptr, reference.indptr);
        assert_eq!(packed.src, reference.src);
        assert_eq!(packed.dst, reference.dst);
        assert_eq!(packed.t_indptr, reference.t_indptr);
        assert_eq!(packed.t_msg, reference.t_msg);
    }

    #[test]
    fn triplets_roundtrip_and_duplicates_sum() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (0, 1, 3.0), (2, 0, 1.0)]);
        assert_eq!(m.nnz(), 2);
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 5.0);
        assert_eq!(d.get(2, 0), 1.0);
        assert_eq!(d.sum(), 6.0);
    }

    #[test]
    fn duplicates_split_across_input_are_merged() {
        // The same coordinate appears at the start, middle, and end of the
        // triplet list, interleaved with other rows — the explicit dedup
        // pass must merge all three occurrences after sorting.
        let m = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (1, 2, 1.0),
                (0, 0, 5.0),
                (1, 2, 2.0),
                (2, 1, -1.0),
                (1, 2, 4.0),
            ],
        );
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense().get(1, 2), 7.0);
        assert_eq!(m.to_dense().get(0, 0), 5.0);
    }

    #[test]
    fn duplicate_rule_is_sum_not_last_wins_and_order_free() {
        // Pin the documented duplicate contract: duplicate (u,v) entries
        // sum — the value is NOT the last occurrence — and any input
        // permutation builds the identical matrix. Mutation replay feeds
        // edge lists in whatever order the WAL recorded them, so a
        // replayed adjacency must be bit-identical to the live one.
        let dup = &[(0usize, 1usize, 2.0f32), (2, 2, 9.0), (0, 1, 3.0)];
        let m = CsrMatrix::from_triplets(3, 3, dup);
        assert_eq!(m.to_dense().get(0, 1), 5.0, "summed, not last-wins (3.0)");
        let mut reversed = dup.to_vec();
        reversed.reverse();
        assert_eq!(
            m,
            CsrMatrix::from_triplets(3, 3, &reversed),
            "duplicate merging must be order-independent"
        );
    }

    #[test]
    fn from_sorted_coo_matches_from_triplets() {
        let trips = vec![(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0)];
        let a = CsrMatrix::from_sorted_coo(3, 3, &trips);
        let b = CsrMatrix::from_triplets(3, 3, &trips);
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_sorted_coo_rejects_unsorted() {
        let _ = CsrMatrix::from_sorted_coo(2, 2, &[(1, 0, 1.0), (0, 0, 1.0)]);
    }

    #[test]
    fn spmv_f64_matches_dense() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 2.0)]);
        let y = m.spmv_f64(&[0.5, 0.25, -1.0]);
        assert_eq!(y, vec![0.25, 0.5, -2.0]);
    }

    /// Small reference graph: messages (src → dst), dst-grouped.
    /// 0→0, 1→0, 2→1, 0→2, 2→2.
    fn tiny_graph() -> CsrGraph {
        CsrGraph::from_messages(3, &[(0, 0), (1, 0), (2, 1), (0, 2), (2, 2)])
    }

    #[test]
    fn csr_graph_spmm_ew_matches_dense() {
        let g = tiny_graph();
        let w = [0.5, 1.0, 2.0, -1.0, 0.25];
        let h = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let dense = crate::matmul::matmul(&g.to_dense_adj(&w), &h);
        assert!(g.spmm_ew(&w, &h).max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn csr_graph_transpose_pair_is_adjoint() {
        // ⟨A·h, g⟩ == ⟨h, Aᵀ·g⟩ for the weighted operator.
        let g = tiny_graph();
        let w = [1.0, 0.5, -2.0, 3.0, 0.1];
        let h = Matrix::from_fn(3, 4, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let y = Matrix::from_fn(3, 4, |r, c| ((r + c * 2) % 3) as f32);
        let lhs: f32 = g
            .spmm_ew(&w, &h)
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = h
            .data()
            .iter()
            .zip(g.spmm_ew_t(&w, &y).data())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn csr_graph_aggregate_mean_and_sum() {
        let g = tiny_graph();
        let h = Matrix::from_fn(3, 1, |r, _| (r + 1) as f32);
        let sum = g.aggregate(&h, Reduce::Sum);
        // in(0) = {0, 1} → 1+2 = 3; in(1) = {2} → 3; in(2) = {0, 2} → 4.
        assert_eq!(sum.data(), &[3.0, 3.0, 4.0]);
        let mean = g.aggregate(&h, Reduce::Mean);
        assert_eq!(mean.data(), &[1.5, 3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing destination")]
    fn csr_graph_rejects_unsorted_destinations() {
        let _ = CsrGraph::from_messages(2, &[(0, 1), (0, 0)]);
    }
}
