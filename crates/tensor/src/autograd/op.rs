//! Operation records stored on the tape. Each variant carries the parent
//! variable ids plus whatever forward-pass artifacts its backward rule needs
//! (permutations, masks, cached softmax probabilities, ...).

use crate::matrix::Matrix;
use crate::param::ParamId;
use crate::sparse::CsrGraph;
use std::sync::Arc;

/// Index of a node on a [`super::tape::Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Raw node index (stable for the lifetime of the tape).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Configuration of a 1-D convolution node.
#[derive(Debug, Clone, Copy)]
pub struct Conv1dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
}

impl Conv1dSpec {
    /// Output length for an input of length `len`.
    pub fn out_len(&self, len: usize) -> usize {
        assert!(
            len >= self.kernel,
            "conv1d: input length {len} shorter than kernel {}",
            self.kernel
        );
        (len - self.kernel) / self.stride + 1
    }

    /// Copy window `t` of one sample's `[C_in, len]` input into `col`
    /// (im2col for one output position), in the weight's
    /// `c * kernel + offset` order.
    pub(crate) fn window(&self, x: &[f32], len: usize, t: usize, col: &mut [f32]) {
        let start = t * self.stride;
        for (c, dst) in col.chunks_exact_mut(self.kernel).enumerate() {
            dst.copy_from_slice(&x[c * len + start..c * len + start + self.kernel]);
        }
    }

    /// Add a window gradient `dcol` back onto one sample's `[C_in, len]`
    /// input gradient at output position `t` (col2im, the adjoint of
    /// [`window`](Self::window)).
    pub(crate) fn add_window(&self, dx: &mut [f32], len: usize, t: usize, dcol: &[f32]) {
        let start = t * self.stride;
        for (c, src) in dcol.chunks_exact(self.kernel).enumerate() {
            let dst = &mut dx[c * len + start..c * len + start + self.kernel];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }
}

/// A recorded operation.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variant fields are documented at the variant level
pub enum Op {
    /// Constant input; no gradient flows past it.
    Leaf,
    /// Trainable-parameter leaf; gradient is routed to the [`ParamId`].
    Param(ParamId),
    /// `A · B`.
    MatMul(Var, Var),
    /// Elementwise `A + B` (same shapes).
    Add(Var, Var),
    /// Hadamard product.
    Mul(Var, Var),
    /// `X + bias` where bias is `[1, C]`, broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `X * col` where col is `[R, 1]`, broadcast over columns.
    MulColBroadcast(Var, Var),
    /// `alpha * X`.
    Scale(Var, f32),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Horizontal concatenation; stores each part's width.
    ConcatCols(Vec<Var>),
    /// Row gather: `out[i] = src[idx[i]]`.
    GatherRows { src: Var, idx: Arc<Vec<usize>> },
    /// Row scatter-add: `out[idx[i]] += src[i]` into `out_rows` rows.
    ScatterAddRows {
        src: Var,
        idx: Arc<Vec<usize>>,
        out_rows: usize,
    },
    /// Edge-weighted g-SpMM with *fixed* per-message weights (GCN
    /// symmetric norm, R-GCN relation masks, sum/mean reducers). Gradient
    /// flows only to the features, via the transposed kernel.
    GSpmmStatic {
        graph: Arc<CsrGraph>,
        w: Arc<Vec<f32>>,
        h: Var,
    },
    /// One fused GAT attention head ([`super::Tape::gat_attention`]) over
    /// `W·h` (`hw`), the optional `W_e·x` (`edge`) and the attention column
    /// `attn`. The record keeps the pre-activation `logits` and the
    /// attention weights `alpha`, one per message: the hand-written
    /// adjoint reads both.
    GatAttention {
        graph: Arc<CsrGraph>,
        hw: Var,
        edge: Option<Var>,
        attn: Var,
        slope: f32,
        logits: Vec<f32>,
        alpha: Vec<f32>,
    },
    /// Mean of all elements → `[1, 1]`.
    MeanAll(Var),
    /// SortPooling (Zhang et al. 2018) over row blocks: each block's rows
    /// sorted by the last channel, truncated/zero-padded to `k` rows.
    /// `kept` holds `(slot, row)` for every kept row: source row `row` was
    /// copied to the `slot`-th `C`-wide slot of the output's row-major
    /// data. Padding slots are absent. Each source row appears at most once.
    SortPool { src: Var, kept: Vec<(usize, usize)> },
    /// 1-D convolution of `B` samples, each `[C_in, len]` in row-major
    /// order: input `[C_in, len]` (B = 1) or `[B, C_in*len]`, weight
    /// `[C_out, C_in*kernel]`, bias `[C_out, 1]` → `B` outputs of
    /// `[C_out, L_out]`, laid out the same way.
    Conv1d {
        input: Var,
        weight: Var,
        bias: Var,
        spec: Conv1dSpec,
        len: usize,
    },
    /// Non-overlapping 1-D max pooling over `[C, L]` with window `size`.
    /// `argmax` records the flat input index chosen for each output element.
    MaxPool1d {
        src: Var,
        size: usize,
        argmax: Vec<usize>,
    },
    /// Row-major reshape (free).
    Reshape {
        src: Var,
        src_rows: usize,
        src_cols: usize,
    },
    /// Inverted dropout: forward multiplied by `mask` (0 or 1/keep).
    Dropout { src: Var, mask: Arc<Vec<f32>> },
    /// Fused mean softmax cross-entropy over logit rows with integer labels.
    /// `probs` caches the row-softmax for the backward rule.
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Arc<Vec<usize>>,
        probs: Matrix,
    },
}

impl Op {
    /// Parent variables this op reads (for reachability analysis).
    pub fn parents(&self) -> Vec<Var> {
        match self {
            Op::Leaf | Op::Param(_) => vec![],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::SoftmaxRows(a)
            | Op::MeanAll(a) => vec![*a],
            Op::ConcatCols(parts) => parts.clone(),
            Op::GatherRows { src, .. }
            | Op::ScatterAddRows { src, .. }
            | Op::SortPool { src, .. }
            | Op::MaxPool1d { src, .. }
            | Op::Reshape { src, .. }
            | Op::Dropout { src, .. } => vec![*src],
            Op::GSpmmStatic { h, .. } => vec![*h],
            Op::GatAttention { hw, edge, attn, .. } => {
                let mut p = vec![*hw, *attn];
                p.extend(*edge);
                p
            }
            Op::Conv1d {
                input,
                weight,
                bias,
                ..
            } => vec![*input, *weight, *bias],
            Op::SoftmaxCrossEntropy { logits, .. } => vec![*logits],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_out_len() {
        let spec = Conv1dSpec {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 3,
        };
        assert_eq!(spec.out_len(9), 3);
        assert_eq!(spec.out_len(10), 3);
        assert_eq!(spec.out_len(3), 1);
        let s2 = Conv1dSpec {
            in_channels: 2,
            out_channels: 2,
            kernel: 5,
            stride: 1,
        };
        assert_eq!(s2.out_len(5), 1);
        assert_eq!(s2.out_len(12), 8);
    }

    #[test]
    #[should_panic(expected = "conv1d")]
    fn conv_spec_rejects_short_input() {
        let spec = Conv1dSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 5,
            stride: 1,
        };
        let _ = spec.out_len(4);
    }

    #[test]
    fn parents_enumeration() {
        let op = Op::MatMul(Var(3), Var(7));
        assert_eq!(op.parents(), vec![Var(3), Var(7)]);
        assert!(Op::Leaf.parents().is_empty());
        let cat = Op::ConcatCols(vec![Var(0), Var(1), Var(2)]);
        assert_eq!(cat.parents().len(), 3);
    }
}
