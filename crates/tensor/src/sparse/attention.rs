//! Fused GAT attention for one head: scores, LeakyReLU, per-destination
//! softmax and the α-weighted aggregation in one sweep over the
//! destination segments, with its hand-written adjoint.
//!
//! For a message `m = (s → d)` over projected node rows `hw = W·h`
//! (`[N, F]`), optional projected edge rows `e = W_e·x` (`[M, F]`) and an
//! attention column `a = [a_dst; a_src; a_e]`:
//!
//! ```text
//! s_dst[v] = hw[v]·a_dst     s_src[v] = hw[v]·a_src     s_e[m] = e[m]·a_e
//! z[m]     = (s_dst[d] + s_src[s]) + s_e[m]
//! α[m]     = softmax over in(d) of LeakyReLU(z[m])
//! out[d]   = Σ_{m ∈ in(d)} α[m]·hw[s]  +  Σ_{m ∈ in(d)} α[m]·e[m]
//! ```
//!
//! The order of every float operation below is part of the contract:
//! `tests/attention_oracle.rs` keeps a chain of separate score, softmax
//! and aggregation kernels as the oracle and requires the same output
//! bits and equal gradients.

use super::CsrGraph;
use crate::matrix::Matrix;

/// Operands of one attention head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttentionInputs<'a> {
    /// Projected node features `W·h`, `[N, F]`.
    pub(crate) hw: &'a Matrix,
    /// Projected edge attributes `W_e·x`, `[M, F]`, when the head reads
    /// them.
    pub(crate) edge: Option<&'a Matrix>,
    /// Attention vector `[a_dst; a_src]` (`2F` entries), or
    /// `[a_dst; a_src; a_e]` (`3F`) with edge rows.
    pub(crate) attn: &'a [f32],
    /// Negative slope of the LeakyReLU.
    pub(crate) slope: f32,
}

/// Forward result of [`CsrGraph::gat_attention`].
#[derive(Debug, Clone)]
pub(crate) struct Attention {
    /// `[N, F]` attention-weighted sum per destination.
    pub(crate) out: Matrix,
    /// Pre-activation logit `z` per message.
    pub(crate) logits: Vec<f32>,
    /// Attention weight `α` per message.
    pub(crate) alpha: Vec<f32>,
}

/// Gradients of [`CsrGraph::gat_attention_backward`]. The node and edge
/// gradients are `None` when not requested.
#[derive(Debug, Clone)]
pub(crate) struct AttentionGrads {
    /// Gradient of `W·h`, `[N, F]`.
    pub(crate) hw: Option<Matrix>,
    /// Gradient of `W_e·x`, `[M, F]`.
    pub(crate) edge: Option<Matrix>,
    /// Gradient of the attention column, shaped like it.
    pub(crate) attn: Matrix,
}

impl AttentionInputs<'_> {
    /// `(a_dst, a_src, a_e)`; `a_e` is empty without edge rows.
    fn split(&self, g: &CsrGraph) -> (&[f32], &[f32], &[f32]) {
        let f = self.hw.cols();
        assert_eq!(self.hw.rows(), g.num_nodes, "gat_attention: node rows");
        let width = if let Some(e) = self.edge {
            assert_eq!(e.shape(), (g.num_messages(), f), "gat_attention: edge rows");
            3 * f
        } else {
            2 * f
        };
        assert_eq!(self.attn.len(), width, "gat_attention: attention length");
        let (a_dst, rest) = self.attn.split_at(f);
        let (a_src, a_e) = rest.split_at(f);
        (a_dst, a_src, a_e)
    }
}

// Both sweeps index several per-message arrays by one message id.
#[allow(clippy::needless_range_loop)]
impl CsrGraph {
    /// Fused attention head over `inputs`: node and edge scores, the
    /// LeakyReLU logit, the max-subtracted softmax over each destination's
    /// messages ([`Matrix::softmax_slice`]) and the α-weighted sums, in
    /// one record. See the [module docs](self) for the formula.
    pub(crate) fn gat_attention(&self, inputs: &AttentionInputs) -> Attention {
        let (a_dst, a_src, a_e) = inputs.split(self);
        let hw = inputs.hw;
        let f = hw.cols();
        let n = self.num_nodes;
        // Node scores: the `[N, F]·[F, 1]` products, each from zero in
        // increasing `p`, skipping zero features as `matmul` does.
        let mut s_dst = vec![0.0f32; n];
        let mut s_src = vec![0.0f32; n];
        for (v, (sd, ss)) in s_dst.iter_mut().zip(&mut s_src).enumerate() {
            for ((&h, &ad), &as_) in hw.row(v).iter().zip(a_dst).zip(a_src) {
                if h == 0.0 {
                    continue;
                }
                *sd += h * ad;
                *ss += h * as_;
            }
        }
        let mut logits = vec![0.0f32; self.num_messages()];
        if let Some(e) = inputs.edge {
            for (m, z) in logits.iter_mut().enumerate() {
                *z = score(e.row(m), a_e);
            }
        }
        let mut alpha = vec![0.0f32; self.num_messages()];
        let mut out = Matrix::zeros(n, f);
        let mut agg_e = vec![0.0f32; f];
        for d in 0..n {
            let orow = out.row_mut(d);
            let (lo, hi) = (self.indptr[d], self.indptr[d + 1]);
            for m in lo..hi {
                let mut z = s_dst[d] + s_src[self.src[m] as usize];
                if inputs.edge.is_some() {
                    z += logits[m];
                }
                logits[m] = z;
                alpha[m] = if z > 0.0 { z } else { inputs.slope * z };
            }
            Matrix::softmax_slice(&mut alpha[lo..hi]);
            for m in lo..hi {
                let am = alpha[m];
                for (o, &hv) in orow.iter_mut().zip(hw.row(self.src[m] as usize)) {
                    *o += am * hv;
                }
            }
            if let Some(e) = inputs.edge {
                agg_e.fill(0.0);
                for m in lo..hi {
                    let am = alpha[m];
                    for (o, &ev) in agg_e.iter_mut().zip(e.row(m)) {
                        *o += am * ev;
                    }
                }
                for (o, &ev) in orow.iter_mut().zip(&agg_e) {
                    *o += ev;
                }
            }
        }
        Attention { out, logits, alpha }
    }

    /// Adjoint of [`gat_attention`](Self::gat_attention): given the output
    /// gradient `g` and the forward's `logits` and `alpha`, the gradients
    /// of `W·h` (when `want_hw`), of `W_e·x` (when `want_edge` and the
    /// head has edge rows) and of the attention column.
    ///
    /// One sweep over the destination segments takes `dα` (edge term first,
    /// then node term), the softmax and LeakyReLU adjoints and the
    /// per-message terms; a sweep over the nodes then adds the score
    /// terms. Each entry is summed in the order of the unfused chain's
    /// backward rules: `d(W·h)[v] = (Σ_{m ∈ out(v)} α[m]·g[dst m] +
    /// ds_src[v]·a_src) + ds_dst[v]·a_dst`, over messages in increasing id.
    pub(crate) fn gat_attention_backward(
        &self,
        inputs: &AttentionInputs,
        logits: &[f32],
        alpha: &[f32],
        g: &Matrix,
        want_hw: bool,
        want_edge: bool,
    ) -> AttentionGrads {
        let (a_dst, a_src, a_e) = inputs.split(self);
        let hw = inputs.hw;
        let f = hw.cols();
        let n = self.num_nodes;
        let m_total = self.num_messages();
        assert_eq!(g.shape(), (n, f), "gat_attention_backward: gradient");
        assert_eq!(logits.len(), m_total, "gat_attention_backward: logits");
        assert_eq!(alpha.len(), m_total, "gat_attention_backward: alpha");

        let mut dz = vec![0.0f32; m_total];
        let mut ds_dst = vec![0.0f32; n];
        let mut ds_src = vec![0.0f32; n];
        let mut d_hw = want_hw.then(|| Matrix::zeros(n, f));
        let mut d_edge = inputs
            .edge
            .filter(|_| want_edge)
            .map(|_| Matrix::zeros(m_total, f));
        let mut d_attn = Matrix::zeros(inputs.attn.len(), 1);
        let (da_ds, da_e) = d_attn.data_mut().split_at_mut(2 * f);
        let (da_dst, da_src) = da_ds.split_at_mut(f);

        for d in 0..n {
            let gd = g.row(d);
            let (lo, hi) = (self.indptr[d], self.indptr[d + 1]);
            // dα, then the softmax adjoint's ⟨α, dα⟩.
            let mut dot = 0.0f32;
            for m in lo..hi {
                let node = dot_sum(gd, hw.row(self.src[m] as usize));
                let da = match inputs.edge {
                    Some(e) => dot_sum(gd, e.row(m)) + node,
                    None => node,
                };
                dz[m] = da;
                dot += alpha[m] * da;
            }
            for m in lo..hi {
                let am = alpha[m];
                let dy = am * (dz[m] - dot);
                let dzm = if logits[m] > 0.0 {
                    dy
                } else {
                    inputs.slope * dy
                };
                dz[m] = dzm;
                let s = self.src[m] as usize;
                ds_dst[d] += dzm;
                ds_src[s] += dzm;
                if let Some(dh) = d_hw.as_mut() {
                    for (o, &gv) in dh.row_mut(s).iter_mut().zip(gd) {
                        *o += am * gv;
                    }
                }
                if let Some(e) = inputs.edge {
                    for (da, &ev) in da_e.iter_mut().zip(e.row(m)) {
                        if ev != 0.0 {
                            *da += ev * dzm;
                        }
                    }
                }
                if let Some(de) = d_edge.as_mut() {
                    for ((o, &gv), &ae) in de.row_mut(m).iter_mut().zip(gd).zip(a_e) {
                        *o = am * gv + dzm * ae;
                    }
                }
            }
        }
        for v in 0..n {
            let (sd, ss) = (ds_dst[v], ds_src[v]);
            if let Some(dh) = d_hw.as_mut() {
                for ((o, &as_), &ad) in dh.row_mut(v).iter_mut().zip(a_src).zip(a_dst) {
                    *o = (*o + ss * as_) + sd * ad;
                }
            }
            for ((&h, gd), gs) in hw
                .row(v)
                .iter()
                .zip(da_dst.iter_mut())
                .zip(da_src.iter_mut())
            {
                if h == 0.0 {
                    continue;
                }
                *gd += h * sd;
                *gs += h * ss;
            }
        }
        AttentionGrads {
            hw: d_hw,
            edge: d_edge,
            attn: d_attn,
        }
    }
}

/// `row · col` from zero in increasing index, skipping zero entries of
/// `row`: one row of an `[·, F]·[F, 1]` `matmul`.
#[inline]
fn score(row: &[f32], col: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for (&x, &c) in row.iter().zip(col) {
        if x != 0.0 {
            s += x * c;
        }
    }
    s
}

/// `Σ a[i]·b[i]` in increasing index: the g-SDDMM dot.
#[inline]
fn dot_sum(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}
