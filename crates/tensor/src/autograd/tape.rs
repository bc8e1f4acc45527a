//! The autodiff tape: an append-only arena of operation nodes.
//!
//! A tape records one forward computation; ops only ever reference earlier
//! nodes, so creation order is a topological order and the backward pass is
//! a single reverse sweep. Tapes are cheap and single-threaded. The trainer
//! records a whole minibatch on one tape (the packed message passing, one
//! `[B, ·]` read-out and the mean loss), and inference builds one tape per
//! micro-batch.

use super::op::{Conv1dSpec, Op, Var};
use crate::matmul::matmul;
use crate::matrix::Matrix;
use crate::param::ParamId;
use crate::sparse::{AttentionInputs, CsrGraph, Reduce};
use std::ops::Range;
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

    /// One GAT attention head in one record: node and edge scores from
    /// the attention column `attn` (`[2F, 1]`, or `[3F, 1]` with `edge`),
    /// the LeakyReLU logit with negative slope `slope`, the max-subtracted
    /// softmax over each destination's messages and the α-weighted sums of
    /// `hw[src]` (`[N, F]`) and `edge` (`[M, F]`) per destination →
    /// `[N, F]`. Gradients flow to all three operands through one
    /// hand-written adjoint. The order of every float operation is fixed:
    /// `tests/attention_oracle.rs` pins the outputs bit for bit.
    pub fn gat_attention(
        &mut self,
        graph: Arc<CsrGraph>,
        hw: Var,
        edge: Option<Var>,
        attn: Var,
        slope: f32,
    ) -> Var {
        assert_eq!(self.shape(attn).1, 1, "gat_attention: attention column");
        let att = graph.gat_attention(&AttentionInputs {
            hw: self.value(hw),
            edge: edge.map(|e| self.value(e)),
            attn: self.value(attn).data(),
            slope,
        });
        self.push(
            att.out,
            Op::GatAttention {
                graph,
                hw,
                edge,
                attn,
                slope,
                logits: att.logits,
                alpha: att.alpha,
            },
        )
    }

    /// Mean of all elements → `[1, 1]`.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Matrix::full(1, 1, self.value(x).mean());
        self.push(v, Op::MeanAll(x))
    }

    /// SortPooling: order rows by descending last channel (ties broken by
    /// earlier channels, then original index), keep the first `k`, zero-pad
    /// to exactly `k` rows. `[N, C]` in, `[k, C]` out: the one-block case
    /// of [`sort_pool_blocks`](Self::sort_pool_blocks).
    pub fn sort_pool(&mut self, x: Var, k: usize) -> Var {
        let (n, c) = self.shape(x);
        self.sort_pool_impl(x, std::slice::from_ref(&(0..n)), k, (k, c))
    }

    /// Block SortPooling: sort-pool each row block of a packed `[N, C]`
    /// matrix on its own (as [`sort_pool`](Self::sort_pool)) and write
    /// block `b`'s `k` rows, flattened, into row `b` of a `[B, k*C]`
    /// result. Blocks must be ascending and disjoint.
    pub fn sort_pool_blocks(&mut self, x: Var, blocks: &[Range<usize>], k: usize) -> Var {
        let c = self.shape(x).1;
        self.sort_pool_impl(x, blocks, k, (blocks.len(), k * c))
    }

    fn sort_pool_impl(
        &mut self,
        x: Var,
        blocks: &[Range<usize>],
        k: usize,
        (rows, cols): (usize, usize),
    ) -> Var {
        assert!(k > 0, "sort_pool: k must be positive");
        let src = self.value(x);
        let (n, c) = src.shape();
        let mut out = Matrix::zeros(rows, cols);
        let mut kept = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut prev_end = 0;
        for (b, block) in blocks.iter().enumerate() {
            assert!(
                block.start >= prev_end && block.start <= block.end && block.end <= n,
                "sort_pool: blocks must be ascending, disjoint and within {n} rows"
            );
            prev_end = block.end;
            order.clear();
            order.extend(block.clone());
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
            for (i, &row) in order.iter().take(k).enumerate() {
                let slot = b * k + i;
                out.data_mut()[slot * c..(slot + 1) * c].copy_from_slice(src.row(row));
                kept.push((slot, row));
            }
        }
        self.push(out, Op::SortPool { src: x, kept })
    }

    /// 1-D convolution. Input `[C_in, L]`, weight `[C_out, C_in*kernel]`
    /// (flattened as `c * kernel + offset`), bias `[C_out, 1]`; output
    /// `[C_out, L_out]`. The one-sample case of
    /// [`conv1d_rows`](Self::conv1d_rows).
    pub fn conv1d(&mut self, input: Var, weight: Var, bias: Var, spec: Conv1dSpec) -> Var {
        let (c_in, len) = self.shape(input);
        assert_eq!(c_in, spec.in_channels, "conv1d: input channel mismatch");
        let shape = (spec.out_channels, spec.out_len(len));
        self.conv1d_impl(input, weight, bias, spec, len, shape)
    }

    /// Row-batched 1-D convolution: row `b` of the `[B, C_in*L]` input is
    /// one sample's `[C_in, L]` input in row-major order, and row `b` of
    /// the `[B, C_out*L_out]` output is that sample's `[C_out, L_out]`
    /// output. Each row equals [`conv1d`](Self::conv1d) of its sample bit
    /// for bit.
    pub fn conv1d_rows(&mut self, input: Var, weight: Var, bias: Var, spec: Conv1dSpec) -> Var {
        let (b, cols) = self.shape(input);
        assert_eq!(
            cols % spec.in_channels,
            0,
            "conv1d_rows: row width {cols} is not a multiple of {} channels",
            spec.in_channels
        );
        let len = cols / spec.in_channels;
        let shape = (b, spec.out_channels * spec.out_len(len));
        self.conv1d_impl(input, weight, bias, spec, len, shape)
    }

    /// The convolution kernel over every `[C_in, len]` sample of the
    /// input's row-major data, recorded with the given output shape. Per
    /// output position it copies the window out (im2col) and runs one
    /// `[1, C_in*kernel] · Wᵀ` row product that vectorizes over output
    /// channels; each output starts from the bias and adds the window
    /// terms in `c * kernel + offset` order.
    fn conv1d_impl(
        &mut self,
        input: Var,
        weight: Var,
        bias: Var,
        spec: Conv1dSpec,
        len: usize,
        (rows, cols): (usize, usize),
    ) -> Var {
        let x = self.value(input);
        let w = self.value(weight);
        let b = self.value(bias);
        let p = spec.in_channels * spec.kernel;
        assert_eq!(
            w.shape(),
            (spec.out_channels, p),
            "conv1d: weight shape mismatch"
        );
        assert_eq!(
            b.shape(),
            (spec.out_channels, 1),
            "conv1d: bias shape mismatch"
        );
        let l_out = spec.out_len(len);
        let in_size = spec.in_channels * len;
        let out_size = spec.out_channels * l_out;
        let wt = w.transpose();
        let mut out = Matrix::zeros(rows, cols);
        let mut col = vec![0.0f32; p];
        let mut acc = vec![0.0f32; spec.out_channels];
        for (xs, os) in x
            .data()
            .chunks_exact(in_size)
            .zip(out.data_mut().chunks_exact_mut(out_size))
        {
            for t in 0..l_out {
                spec.window(xs, len, t, &mut col);
                acc.copy_from_slice(b.data());
                for (&cv, wrow) in col.iter().zip(wt.data().chunks_exact(spec.out_channels)) {
                    for (a, &wv) in acc.iter_mut().zip(wrow) {
                        *a += wv * cv;
                    }
                }
                for (o, &a) in acc.iter().enumerate() {
                    os[o * l_out + t] = a;
                }
            }
        }
        self.push(
            out,
            Op::Conv1d {
                input,
                weight,
                bias,
                spec,
                len,
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

    /// Three nodes, dst-grouped messages 0→0, 1→0, 1→1, 0→2, 2→2. Node 1
    /// has only its self-loop; node 0 has two messages.
    fn attention_graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::from_messages(
            3,
            &[(0, 0), (1, 0), (1, 1), (0, 2), (2, 2)],
        ))
    }

    #[test]
    fn gat_attention_normalizes_per_destination() {
        let mut t = Tape::new();
        let hw = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 3.0, -2.0]));
        let attn = t.leaf(Matrix::col_vector(&[0.5, 1.0]));
        let out = t.gat_attention(attention_graph(), hw, None, attn, 0.2);
        let Op::GatAttention { logits, alpha, .. } = &t.nodes[out.0].op else {
            panic!("gat_attention records its own op");
        };
        // z = 0.5·hw[dst] + hw[src].
        assert_eq!(logits, &[1.5, 3.5, 4.5, 0.0, -3.0]);
        assert_eq!(alpha[2], 1.0, "a lone self-loop takes all the weight");
        let e = 2.0f32.exp();
        assert!((alpha[1] - e / (1.0 + e)).abs() < 1e-6);
        assert!((alpha[3] + alpha[4] - 1.0).abs() < 1e-6);
        assert!(alpha[3] > alpha[4], "the LeakyReLU keeps the order");
        let v = t.value(out);
        assert_eq!(v.get(1, 0), 3.0);
        assert_eq!(v.get(0, 0), alpha[0] * 1.0 + alpha[1] * 3.0);
    }

    #[test]
    fn gat_attention_survives_huge_attention_logits() {
        // Edge scores the size a badly scaled graph can emit: exp would
        // overflow without the softmax's max subtraction.
        let mut t = Tape::new();
        let hw = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let edge = t.leaf(Matrix::col_vector(&[3.0e38, 3.0e38, 1.0, 1.0e38, 9.9e37]));
        let attn = t.leaf(Matrix::col_vector(&[0.0, 0.0, 1.0]));
        let out = t.gat_attention(attention_graph(), hw, Some(edge), attn, 0.2);
        let Op::GatAttention { alpha, .. } = &t.nodes[out.0].op else {
            panic!("gat_attention records its own op");
        };
        assert!(alpha.iter().all(|a| a.is_finite()));
        assert!((alpha[0] - 0.5).abs() < 1e-6 && (alpha[1] - 0.5).abs() < 1e-6);
        assert!((alpha[3] - 1.0).abs() < 1e-5, "dominant logit wins");
        assert!(t.value(out).all_finite());
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
