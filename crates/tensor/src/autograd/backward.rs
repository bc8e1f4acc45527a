//! Reverse-mode sweep over a recorded tape.
//!
//! Nodes only reference earlier nodes, so a single reverse iteration over
//! the arena visits every node after all of its consumers. Gradients for
//! intermediate nodes are dropped as soon as they have been propagated;
//! parameter gradients are collected into a [`GradStore`]. A node no
//! parameter feeds (a constant leaf such as the node features or the edge
//! attributes, or anything computed from constants alone) gets no
//! gradient: its rule's share is never computed.

use super::op::{Conv1dSpec, Op};
use super::tape::Tape;
use crate::matmul::{matmul_nt, matmul_tn};
use crate::matrix::Matrix;
use crate::param::GradStore;
use crate::sparse::AttentionInputs;

use super::op::Var;

/// Pending gradients of the sweep, one slot per node, and which nodes
/// want one.
struct Grads {
    slots: Vec<Option<Matrix>>,
    need: Vec<bool>,
}

impl Grads {
    /// True when some parameter feeds `v`.
    fn wants(&self, v: Var) -> bool {
        self.need[v.0]
    }

    /// Add the gradient `delta` computes onto `v`'s. `delta` runs only
    /// when `v` wants a gradient.
    fn add(&mut self, v: Var, delta: impl FnOnce() -> Matrix) {
        if !self.need[v.0] {
            return;
        }
        let delta = delta();
        match &mut self.slots[v.0] {
            Some(g) => g.add_assign(&delta),
            slot => *slot = Some(delta),
        }
    }
}

impl Tape {
    /// Per node: does any parameter feed it? Parents precede their
    /// consumers, so one forward pass settles it.
    fn needs_grad(&self) -> Vec<bool> {
        let mut need: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let n = match &node.op {
                Op::Leaf => false,
                Op::Param(_) => true,
                op => op.parents().iter().any(|p| need[p.0]),
            };
            need.push(n);
        }
        need
    }

    /// Run the backward pass from `output`, seeding its gradient with ones
    /// (for the usual `[1, 1]` loss this is dL/dL = 1). Returns parameter
    /// gradients in a store sized for `n_params`.
    pub fn backward(&self, output: Var, n_params: usize) -> GradStore {
        let n = self.nodes.len();
        let mut grads = Grads {
            slots: vec![None; n],
            need: self.needs_grad(),
        };
        let (r, c) = self.shape(output);
        grads.add(output, || Matrix::ones(r, c));
        let mut store = GradStore::new(n_params);

        for i in (0..n).rev() {
            let Some(g) = grads.slots[i].take() else {
                continue;
            };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(id) => store.accumulate(*id, &g),
                Op::MatMul(a, b) => {
                    grads.add(*a, || matmul_nt(&g, self.value(*b)));
                    grads.add(*b, || matmul_tn(self.value(*a), &g));
                }
                Op::Add(a, b) => {
                    grads.add(*a, || g.clone());
                    grads.add(*b, || g);
                }
                Op::Mul(a, b) => {
                    grads.add(*a, || g.hadamard(self.value(*b)));
                    grads.add(*b, || g.hadamard(self.value(*a)));
                }
                Op::AddRowBroadcast(x, bias) => {
                    grads.add(*bias, || g.sum_rows());
                    grads.add(*x, || g);
                }
                Op::MulColBroadcast(x, col) => {
                    grads.add(*x, || g.mul_col_broadcast(self.value(*col)));
                    grads.add(*col, || g.hadamard(self.value(*x)).sum_cols());
                }
                Op::Scale(x, alpha) => grads.add(*x, || g.scale(*alpha)),
                Op::Tanh(x) => {
                    let y = self.nodes[i].value.as_matrix();
                    grads.add(*x, || g.zip_map(y, |gi, yi| gi * (1.0 - yi * yi)));
                }
                Op::Relu(x) => {
                    grads.add(*x, || {
                        g.zip_map(self.value(*x), |gi, xi| if xi > 0.0 { gi } else { 0.0 })
                    });
                }
                Op::LeakyRelu(x, slope) => {
                    let s = *slope;
                    grads.add(*x, || {
                        g.zip_map(self.value(*x), |gi, xi| if xi > 0.0 { gi } else { s * gi })
                    });
                }
                Op::Sigmoid(x) => {
                    let y = self.nodes[i].value.as_matrix();
                    grads.add(*x, || g.zip_map(y, |gi, yi| gi * yi * (1.0 - yi)));
                }
                Op::SoftmaxRows(x) => {
                    let y = self.nodes[i].value.as_matrix();
                    grads.add(*x, || {
                        let mut dx = Matrix::zeros(y.rows(), y.cols());
                        for r in 0..y.rows() {
                            let yr = y.row(r);
                            let gr = g.row(r);
                            let dot: f32 = yr.iter().zip(gr.iter()).map(|(&a, &b)| a * b).sum();
                            let dr = dx.row_mut(r);
                            for c in 0..yr.len() {
                                dr[c] = yr[c] * (gr[c] - dot);
                            }
                        }
                        dx
                    });
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let w = self.shape(*p).1;
                        grads.add(*p, || {
                            let mut dp = Matrix::zeros(g.rows(), w);
                            for r in 0..g.rows() {
                                dp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + w]);
                            }
                            dp
                        });
                        offset += w;
                    }
                }
                Op::GatherRows { src, idx } => {
                    let rows = self.shape(*src).0;
                    grads.add(*src, || g.scatter_add_rows(idx, rows));
                }
                Op::ScatterAddRows { src, idx, .. } => {
                    grads.add(*src, || g.gather_rows(idx));
                }
                Op::GSpmmStatic { graph, w, h } => {
                    grads.add(*h, || graph.spmm_ew_t(w, &g));
                }
                Op::GatAttention {
                    graph,
                    hw,
                    edge,
                    attn,
                    slope,
                    logits,
                    alpha,
                } => {
                    let inputs = AttentionInputs {
                        hw: self.value(*hw),
                        edge: edge.map(|e| self.value(e)),
                        attn: self.value(*attn).data(),
                        slope: *slope,
                    };
                    let want_edge = edge.is_some_and(|e| grads.wants(e));
                    let d = graph.gat_attention_backward(
                        &inputs,
                        logits,
                        alpha,
                        &g,
                        grads.wants(*hw),
                        want_edge,
                    );
                    if let Some(dh) = d.hw {
                        grads.add(*hw, || dh);
                    }
                    if let (Some(e), Some(de)) = (edge, d.edge) {
                        grads.add(*e, || de);
                    }
                    grads.add(*attn, || d.attn);
                }
                Op::MeanAll(x) => {
                    let (r, c) = self.shape(*x);
                    let scale = g.get(0, 0) / (r * c).max(1) as f32;
                    grads.add(*x, || Matrix::full(r, c, scale));
                }
                Op::SortPool { src, kept } => {
                    // Each source row was kept at most once, so its
                    // gradient is its slot's gradient, copied.
                    let (rows, cols) = self.shape(*src);
                    grads.add(*src, || {
                        let mut dx = Matrix::zeros(rows, cols);
                        for &(slot, row) in kept {
                            dx.row_mut(row)
                                .copy_from_slice(&g.data()[slot * cols..(slot + 1) * cols]);
                        }
                        dx
                    });
                }
                Op::Conv1d {
                    input,
                    weight,
                    bias,
                    spec,
                    len,
                } => {
                    let (dx, dw, db) =
                        conv1d_backward(self.value(*input), self.value(*weight), &g, *spec, *len);
                    grads.add(*input, || dx);
                    grads.add(*weight, || dw);
                    grads.add(*bias, || db);
                }
                Op::MaxPool1d { src, argmax, .. } => {
                    let (rows, cols) = self.shape(*src);
                    grads.add(*src, || {
                        let mut dx = Matrix::zeros(rows, cols);
                        for (flat_out, &flat_in) in argmax.iter().enumerate() {
                            dx.data_mut()[flat_in] += g.data()[flat_out];
                        }
                        dx
                    });
                }
                Op::Reshape {
                    src,
                    src_rows,
                    src_cols,
                } => {
                    grads.add(*src, || g.reshaped(*src_rows, *src_cols));
                }
                Op::Dropout { src, mask } => {
                    grads.add(*src, || {
                        let mut dx = g.clone();
                        for (d, &m) in dx.data_mut().iter_mut().zip(mask.iter()) {
                            *d *= m;
                        }
                        dx
                    });
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    probs,
                } => {
                    let scale = g.get(0, 0) / labels.len().max(1) as f32;
                    grads.add(*logits, || {
                        let mut dl = probs.clone();
                        for (r, &y) in labels.iter().enumerate() {
                            dl.set(r, y, dl.get(r, y) - 1.0);
                        }
                        dl.scale_inplace(scale);
                        dl
                    });
                }
            }
        }
        store
    }
}

/// Adjoint of the row-batched convolution, one output position (window)
/// at a time: `dW += g[:, t] ⊗ window` and `db += g[:, t]` per window, and
/// the window gradient `Σ_o g[o, t] · W[o, :]` is added back onto the
/// input (col2im). Every inner loop runs over the `C_in * kernel` window.
fn conv1d_backward(
    x: &Matrix,
    w: &Matrix,
    g: &Matrix,
    spec: Conv1dSpec,
    len: usize,
) -> (Matrix, Matrix, Matrix) {
    let l_out = spec.out_len(len);
    let in_size = spec.in_channels * len;
    let out_size = spec.out_channels * l_out;
    let (rows, cols) = x.shape();
    let mut dx = Matrix::zeros(rows, cols);
    let mut dw = Matrix::zeros(w.rows(), w.cols());
    let mut db = Matrix::zeros(spec.out_channels, 1);
    let mut col = vec![0.0f32; w.cols()];
    let mut dcol = vec![0.0f32; w.cols()];
    for ((xs, gs), dxs) in x
        .data()
        .chunks_exact(in_size)
        .zip(g.data().chunks_exact(out_size))
        .zip(dx.data_mut().chunks_exact_mut(in_size))
    {
        for t in 0..l_out {
            spec.window(xs, len, t, &mut col);
            dcol.fill(0.0);
            let mut touched = false;
            for o in 0..spec.out_channels {
                let gv = gs[o * l_out + t];
                if gv == 0.0 {
                    continue; // max pooling routes no gradient here
                }
                touched = true;
                db.data_mut()[o] += gv;
                for (d, &cv) in dw.row_mut(o).iter_mut().zip(&col) {
                    *d += gv * cv;
                }
                for (d, &wv) in dcol.iter_mut().zip(w.row(o)) {
                    *d += gv * wv;
                }
            }
            if touched {
                spec.add_window(dxs, len, t, &dcol);
            }
        }
    }
    (dx, dw, db)
}
