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
    /// Softmax over contiguous row segments of an `[E, 1]` column
    /// (per-destination attention normalization).
    SegmentSoftmax {
        src: Var,
        segments: Arc<Vec<(usize, usize)>>,
    },
    /// Edge-weighted g-SpMM `out[d] = Σ w[m]·h[src[m]]` with a *learnable*
    /// `[M, 1]` weight column (attention coefficients). Backward: the
    /// weight gradient is the g-SDDMM dot of the output gradient against
    /// `h`; the feature gradient is the transposed g-SpMM.
    GSpmm {
        graph: Arc<CsrGraph>,
        w: Var,
        h: Var,
    },
    /// Edge-weighted g-SpMM with *fixed* per-message weights (GCN
    /// symmetric norm, R-GCN relation masks, sum/mean reducers). Gradient
    /// flows only to the features, via the transposed kernel.
    GSpmmStatic {
        graph: Arc<CsrGraph>,
        w: Arc<Vec<f32>>,
        h: Var,
    },
    /// g-SDDMM (add flavor): per-message score from `[N, 1]` endpoint
    /// columns plus an optional `[M, 1]` message column. Backward scatters
    /// the message gradient onto sources / destinations.
    GSddmmAdd {
        graph: Arc<CsrGraph>,
        src: Var,
        dst: Var,
        edge: Option<Var>,
    },
    /// Weighted aggregation of per-message payload rows
    /// `out[d] = Σ w[m]·x[m]` with learnable `[M, 1]` weights and
    /// `[M, F]` payload (attended edge attributes).
    EdgeAggregate {
        graph: Arc<CsrGraph>,
        w: Var,
        x: Var,
    },
    /// Mean of all elements → `[1, 1]`.
    MeanAll(Var),
    /// SortPooling (Zhang et al. 2018): rows sorted by the last channel,
    /// truncated/zero-padded to `k` rows. `perm[i]` is the source row placed
    /// at output row `i` (length `min(k, N)`).
    SortPool {
        src: Var,
        perm: Vec<usize>,
        k: usize,
    },
    /// 1-D convolution: input `[C_in, L]`, weight `[C_out, C_in*kernel]`,
    /// bias `[C_out, 1]` → `[C_out, L_out]`.
    Conv1d {
        input: Var,
        weight: Var,
        bias: Var,
        spec: Conv1dSpec,
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
            | Op::SegmentSoftmax { src, .. }
            | Op::SortPool { src, .. }
            | Op::MaxPool1d { src, .. }
            | Op::Reshape { src, .. }
            | Op::Dropout { src, .. } => vec![*src],
            Op::GSpmm { w, h, .. } => vec![*w, *h],
            Op::GSpmmStatic { h, .. } => vec![*h],
            Op::GSddmmAdd { src, dst, edge, .. } => {
                let mut p = vec![*src, *dst];
                if let Some(e) = edge {
                    p.push(*e);
                }
                p
            }
            Op::EdgeAggregate { w, x, .. } => vec![*w, *x],
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
