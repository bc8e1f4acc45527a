//! The autodiff tape: an append-only arena of operation nodes.
//!
//! A tape records one sample's forward computation; ops only ever reference
//! earlier nodes, so creation order is a topological order and the backward
//! pass is a single reverse sweep. Tapes are cheap, single-threaded, and
//! created per sample — the data-parallel trainer builds one tape per
//! subgraph on each rayon worker.

use super::op::{Conv1dSpec, Op, Var};
use crate::matmul::matmul;
use crate::matrix::Matrix;
use crate::param::ParamId;
use crate::sparse::{CsrGraph, Reduce};
use std::sync::Arc;

/// A node's stored value: computed matrices are owned; parameter leaves
/// share the `ParamStore`'s allocation.
#[derive(Debug, Clone)]
pub(crate) enum Value {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Value {
    #[inline]
    pub(crate) fn as_matrix(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Value,
    pub(crate) op: Op,
}

/// Append-only computation record with forward constructors for every op.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(64),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a recorded variable.
    pub fn value(&self, v: Var) -> &Matrix {
        self.nodes[v.0].value.as_matrix()
    }

    /// Shape of a recorded variable.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value: Value::Owned(value),
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Record a constant input (no gradient).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Record a constant input shared via `Arc` — no copy is made, so
    /// per-sample payloads (expanded edge attributes) can be mounted onto
    /// many tapes cheaply.
    pub fn shared_leaf(&mut self, value: Arc<Matrix>) -> Var {
        self.nodes.push(Node {
            value: Value::Shared(value),
            op: Op::Leaf,
        });
        Var(self.nodes.len() - 1)
    }

    /// Record a trainable-parameter leaf. The `Arc` is shared with the
    /// `ParamStore`, so no copy is made.
    pub fn param(&mut self, id: ParamId, value: Arc<Matrix>) -> Var {
        self.nodes.push(Node {
            value: Value::Shared(value),
            op: Op::Param(id),
        });
        Var(self.nodes.len() - 1)
    }

    /// `A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(self.value(a), self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Hadamard product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Add a `[1, C]` bias row to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let v = self.value(x).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRowBroadcast(x, bias))
    }

    /// Multiply each row of `x` by the matching entry of an `[R, 1]` column.
    pub fn mul_col_broadcast(&mut self, x: Var, col: Var) -> Var {
        let v = self.value(x).mul_col_broadcast(self.value(col));
        self.push(v, Op::MulColBroadcast(x, col))
    }

    /// `alpha * x`.
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let v = self.value(x).scale(alpha);
        self.push(v, Op::Scale(x, alpha))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f32::tanh);
        self.push(v, Op::Tanh(x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|e| e.max(0.0));
        self.push(v, Op::Relu(x))
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let v = self.value(x).map(|e| if e > 0.0 { e } else { slope * e });
        self.push(v, Op::LeakyRelu(x, slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|e| 1.0 / (1.0 + (-e).exp()));
        self.push(v, Op::Sigmoid(x))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let v = self.value(x).softmax_rows();
        self.push(v, Op::SoftmaxRows(x))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Row gather `out[i] = x[idx[i]]`.
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<usize>>) -> Var {
        let v = self.value(x).gather_rows(&idx);
        self.push(v, Op::GatherRows { src: x, idx })
    }

    /// Row scatter-add into `out_rows` rows.
    pub fn scatter_add_rows(&mut self, x: Var, idx: Arc<Vec<usize>>, out_rows: usize) -> Var {
        let v = self.value(x).scatter_add_rows(&idx, out_rows);
        self.push(
            v,
            Op::ScatterAddRows {
                src: x,
                idx,
                out_rows,
            },
        )
    }

    /// Softmax within contiguous row segments of an `[E, 1]` column. The
    /// segments must partition `0..E`.
    pub fn segment_softmax(&mut self, x: Var, segments: Arc<Vec<(usize, usize)>>) -> Var {
        let src = self.value(x);
        assert_eq!(src.cols(), 1, "segment_softmax expects an [E, 1] column");
        debug_assert_eq!(
            segments.iter().map(|&(s, e)| e - s).sum::<usize>(),
            src.rows(),
            "segments must partition all rows"
        );
        let mut v = src.clone();
        for &(start, end) in segments.iter() {
            // Overflow-safe (max-subtracted) with a uniform fallback for
            // degenerate segments — huge attention logits must not produce
            // non-finite weights.
            Matrix::softmax_slice(&mut v.data_mut()[start..end]);
        }
        self.push(v, Op::SegmentSoftmax { src: x, segments })
    }

    /// Edge-weighted g-SpMM with a learnable `[M, 1]` weight column:
    /// `out[d] = Σ_{m ∈ in(d)} w[m] · h[src[m]]`. Gradients flow to both
    /// the weights (g-SDDMM dot) and the features (transposed g-SpMM).
    pub fn gspmm(&mut self, graph: Arc<CsrGraph>, w: Var, h: Var) -> Var {
        assert_eq!(
            self.shape(w),
            (graph.num_messages(), 1),
            "gspmm: weight column shape"
        );
        assert_eq!(
            self.shape(h).0,
            graph.num_nodes(),
            "gspmm: feature row count"
        );
        let v = graph.spmm_ew(self.value(w).data(), self.value(h));
        self.push(v, Op::GSpmm { graph, w, h })
    }

    /// Edge-weighted g-SpMM with fixed per-message weights; gradient flows
    /// only to the features.
    pub fn gspmm_static(&mut self, graph: Arc<CsrGraph>, w: Arc<Vec<f32>>, h: Var) -> Var {
        assert_eq!(w.len(), graph.num_messages(), "gspmm_static: weight count");
        assert_eq!(
            self.shape(h).0,
            graph.num_nodes(),
            "gspmm_static: feature row count"
        );
        let v = graph.spmm_ew(&w, self.value(h));
        self.push(v, Op::GSpmmStatic { graph, w, h })
    }

    /// g-SpMM with a [`Reduce`] mode: sum or in-degree mean of source
    /// features per destination.
    pub fn aggregate(&mut self, graph: Arc<CsrGraph>, reduce: Reduce, h: Var) -> Var {
        let w = graph.reduce_weights(reduce);
        self.gspmm_static(graph, w, h)
    }

    /// g-SDDMM (add flavor): per-message score
    /// `out[m] = dst_col[dst[m]] + src_col[src[m]] (+ edge_col[m])`.
    pub fn edge_score(
        &mut self,
        graph: Arc<CsrGraph>,
        src_col: Var,
        dst_col: Var,
        edge_col: Option<Var>,
    ) -> Var {
        let n = graph.num_nodes();
        assert_eq!(self.shape(src_col), (n, 1), "edge_score: src column");
        assert_eq!(self.shape(dst_col), (n, 1), "edge_score: dst column");
        if let Some(e) = edge_col {
            assert_eq!(
                self.shape(e),
                (graph.num_messages(), 1),
                "edge_score: edge column"
            );
        }
        let v = graph.sddmm_add(
            self.value(src_col),
            self.value(dst_col),
            edge_col.map(|e| self.value(e)),
        );
        self.push(
            v,
            Op::GSddmmAdd {
                graph,
                src: src_col,
                dst: dst_col,
                edge: edge_col,
            },
        )
    }

    /// Weighted aggregation of `[M, F]` per-message payload rows with a
    /// learnable `[M, 1]` weight column: `out[d] = Σ_{m ∈ in(d)} w[m]·x[m]`.
    pub fn edge_aggregate(&mut self, graph: Arc<CsrGraph>, w: Var, x: Var) -> Var {
        assert_eq!(
            self.shape(w),
            (graph.num_messages(), 1),
            "edge_aggregate: weight column"
        );
        assert_eq!(
            self.shape(x).0,
            graph.num_messages(),
            "edge_aggregate: payload rows"
        );
        let v = graph.edge_aggregate(self.value(w).data(), self.value(x));
        self.push(v, Op::EdgeAggregate { graph, w, x })
    }

    /// Mean of all elements → `[1, 1]`.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(x).mean());
        self.push(v, Op::MeanAll(x))
    }

    /// SortPooling: order rows by descending last channel (ties broken by
    /// earlier channels, then original index), keep the first `k`, zero-pad
    /// to exactly `k` rows.
    pub fn sort_pool(&mut self, x: Var, k: usize) -> Var {
        assert!(k > 0, "sort_pool: k must be positive");
        let src = self.value(x);
        let n = src.rows();
        let c = src.cols();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ra = src.row(a);
            let rb = src.row(b);
            // Descending by last channel, then previous channels.
            for ch in (0..c).rev() {
                match rb[ch].partial_cmp(&ra[ch]) {
                    Some(std::cmp::Ordering::Equal) | None => continue,
                    Some(ord) => return ord,
                }
            }
            a.cmp(&b)
        });
        let keep = k.min(n);
        let perm: Vec<usize> = order[..keep].to_vec();
        let mut out = Matrix::zeros(k, c);
        for (dst, &srow) in perm.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(src.row(srow));
        }
        self.push(out, Op::SortPool { src: x, perm, k })
    }

    /// 1-D convolution. Input `[C_in, L]`, weight `[C_out, C_in*kernel]`
    /// (flattened as `c * kernel + offset`), bias `[C_out, 1]`.
    pub fn conv1d(&mut self, input: Var, weight: Var, bias: Var, spec: Conv1dSpec) -> Var {
        let x = self.value(input);
        let w = self.value(weight);
        let b = self.value(bias);
        assert_eq!(x.rows(), spec.in_channels, "conv1d: input channel mismatch");
        assert_eq!(
            w.shape(),
            (spec.out_channels, spec.in_channels * spec.kernel),
            "conv1d: weight shape mismatch"
        );
        assert_eq!(
            b.shape(),
            (spec.out_channels, 1),
            "conv1d: bias shape mismatch"
        );
        let l = x.cols();
        let l_out = spec.out_len(l);
        let mut out = Matrix::zeros(spec.out_channels, l_out);
        for o in 0..spec.out_channels {
            let wrow = w.row(o);
            let bval = b.get(o, 0);
            for t in 0..l_out {
                let start = t * spec.stride;
                let mut acc = bval;
                for ci in 0..spec.in_channels {
                    let xrow = x.row(ci);
                    let wslice = &wrow[ci * spec.kernel..(ci + 1) * spec.kernel];
                    for (kk, &wv) in wslice.iter().enumerate() {
                        acc += wv * xrow[start + kk];
                    }
                }
                out.set(o, t, acc);
            }
        }
        self.push(
            out,
            Op::Conv1d {
                input,
                weight,
                bias,
                spec,
            },
        )
    }

    /// Non-overlapping max pooling over the length axis of `[C, L]`.
    pub fn max_pool1d(&mut self, x: Var, size: usize) -> Var {
        assert!(size > 0, "max_pool1d: window must be positive");
        let src = self.value(x);
        let (c, l) = src.shape();
        assert!(
            l >= size,
            "max_pool1d: length {l} shorter than window {size}"
        );
        let l_out = l / size;
        let mut out = Matrix::zeros(c, l_out);
        let mut argmax = vec![0usize; c * l_out];
        for ch in 0..c {
            let row = src.row(ch);
            for t in 0..l_out {
                let mut best = t * size;
                for off in 1..size {
                    if row[t * size + off] > row[best] {
                        best = t * size + off;
                    }
                }
                out.set(ch, t, row[best]);
                argmax[ch * l_out + t] = ch * l + best;
            }
        }
        self.push(
            out,
            Op::MaxPool1d {
                src: x,
                size,
                argmax,
            },
        )
    }

    /// Row-major reshape (no data movement semantics change).
    pub fn reshape(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let (sr, sc) = self.shape(x);
        let v = self.value(x).reshaped(rows, cols);
        self.push(
            v,
            Op::Reshape {
                src: x,
                src_rows: sr,
                src_cols: sc,
            },
        )
    }

    /// Inverted dropout with a caller-provided mask of per-element factors
    /// (0 for dropped, `1/keep_prob` for kept).
    pub fn dropout(&mut self, x: Var, mask: Arc<Vec<f32>>) -> Var {
        let src = self.value(x);
        assert_eq!(mask.len(), src.len(), "dropout: mask length mismatch");
        let mut v = src.clone();
        for (e, &m) in v.data_mut().iter_mut().zip(mask.iter()) {
            *e *= m;
        }
        self.push(v, Op::Dropout { src: x, mask })
    }

    /// Mean softmax cross-entropy of logit rows against integer labels.
    /// Returns a `[1, 1]` scalar loss node.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: Arc<Vec<usize>>) -> Var {
        let lg = self.value(logits);
        assert_eq!(
            lg.rows(),
            labels.len(),
            "cross_entropy: label count mismatch"
        );
        let probs = lg.softmax_rows();
        let mut nll = 0.0f32;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < lg.cols(), "cross_entropy: label {y} out of range");
            nll -= probs.get(r, y).max(1e-12).ln();
        }
        let loss = Matrix::full(1, 1, nll / labels.len().max(1) as f32);
        self.push(
            loss,
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                probs,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_matrix_ops() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.leaf(Matrix::eye(2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), t.value(a));
        let d = t.add(a, a);
        assert_eq!(t.value(d).sum(), 20.0);
        let e = t.scale(d, 0.5);
        assert_eq!(t.value(e), t.value(a));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn sort_pool_orders_and_pads() {
        let mut t = Tape::new();
        // Last channel values: 3, 1, 2 → order rows 0, 2, 1.
        let x = t.leaf(Matrix::from_vec(
            3,
            2,
            vec![10.0, 3.0, 30.0, 1.0, 20.0, 2.0],
        ));
        let p = t.sort_pool(x, 4);
        let v = t.value(p);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(0), &[10.0, 3.0]);
        assert_eq!(v.row(1), &[20.0, 2.0]);
        assert_eq!(v.row(2), &[30.0, 1.0]);
        assert_eq!(v.row(3), &[0.0, 0.0], "padding row must be zero");
    }

    #[test]
    fn sort_pool_truncates() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 5.0, 3.0]));
        let p = t.sort_pool(x, 2);
        let v = t.value(p);
        assert_eq!(v.shape(), (2, 1));
        assert_eq!(v.get(0, 0), 5.0);
        assert_eq!(v.get(1, 0), 3.0);
    }

    #[test]
    fn sort_pool_tie_break_is_deterministic() {
        let mut t = Tape::new();
        // Equal last channel; first channel must break the tie (descending).
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 7.0, 9.0, 7.0]));
        let p = t.sort_pool(x, 2);
        assert_eq!(t.value(p).row(0), &[9.0, 7.0]);
        assert_eq!(t.value(p).row(1), &[1.0, 7.0]);
    }

    #[test]
    fn conv1d_hand_example() {
        let mut t = Tape::new();
        // One input channel [1, 4], one output channel, kernel 2 stride 2.
        let x = t.leaf(Matrix::row_vector(&[1.0, 2.0, 3.0, 4.0]));
        let w = t.leaf(Matrix::row_vector(&[10.0, 1.0]));
        let b = t.leaf(Matrix::col_vector(&[0.5]));
        let spec = Conv1dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 2,
        };
        let y = t.conv1d(x, w, b, spec);
        // Windows: (1,2) -> 12.5 ; (3,4) -> 34.5
        assert_eq!(t.value(y).data(), &[12.5, 34.5]);
    }

    #[test]
    fn conv1d_multi_channel() {
        let mut t = Tape::new();
        // Two input channels of length 3, kernel 3 stride 3 → single window.
        let x = t.leaf(Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]));
        // Weight picks channel 0 offset 0 plus 2x channel 1 offset 1.
        let w = t.leaf(Matrix::row_vector(&[1.0, 0.0, 0.0, 0.0, 2.0, 0.0]));
        let b = t.leaf(Matrix::col_vector(&[0.0]));
        let spec = Conv1dSpec {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 3,
        };
        let y = t.conv1d(x, w, b, spec);
        assert_eq!(t.value(y).data(), &[3.0]);
    }

    #[test]
    fn max_pool_tracks_argmax() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 4, vec![1.0, 9.0, 5.0, 2.0]));
        let y = t.max_pool1d(x, 2);
        assert_eq!(t.value(y).data(), &[9.0, 5.0]);
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_vector(&[0.0, 0.0, 1.0, 2.0, 3.0]));
        let segs = Arc::new(vec![(0usize, 2usize), (2, 5)]);
        let y = t.segment_softmax(x, segs);
        let v = t.value(y);
        assert!((v.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((v.get(1, 0) - 0.5).abs() < 1e-6);
        let s: f32 = (2..5).map(|i| v.get(i, 0)).sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(v.get(4, 0) > v.get(3, 0));
    }

    #[test]
    fn segment_softmax_survives_huge_attention_logits() {
        // Attention logits the size GCN-LASE-style layers can emit on a
        // badly scaled graph: exp would overflow without max subtraction.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_vector(&[
            3.0e38, 3.0e38, -3.0e38, 1.0e38, 9.9e37,
        ]));
        let segs = Arc::new(vec![(0usize, 3usize), (3, 5)]);
        let y = t.segment_softmax(x, segs);
        let v = t.value(y);
        assert!(v.all_finite(), "attention weights must stay finite");
        assert!((v.get(0, 0) - 0.5).abs() < 1e-5);
        assert!((v.get(1, 0) - 0.5).abs() < 1e-5);
        assert!(v.get(2, 0) < 1e-6);
        let s: f32 = (3..5).map(|i| v.get(i, 0)).sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!((v.get(3, 0) - 1.0).abs() < 1e-5, "dominant logit wins");
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_k() {
        let mut t = Tape::new();
        let logits = t.leaf(Matrix::zeros(3, 4));
        let loss = t.softmax_cross_entropy(logits, Arc::new(vec![0, 1, 2]));
        let v = t.value(loss).get(0, 0);
        assert!((v - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gather_scatter_shapes() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32));
        let g = t.gather_rows(x, Arc::new(vec![1, 1, 0]));
        assert_eq!(t.shape(g), (3, 3));
        let s = t.scatter_add_rows(g, Arc::new(vec![0, 0, 2]), 5);
        assert_eq!(t.shape(s), (5, 3));
        assert_eq!(t.value(s).row(0)[0], 6.0); // two copies of row 1 (3+3)
    }
}
