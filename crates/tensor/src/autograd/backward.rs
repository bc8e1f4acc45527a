//! Reverse-mode sweep over a recorded tape.
//!
//! Nodes only reference earlier nodes, so a single reverse iteration over
//! the arena visits every node after all of its consumers. Gradients for
//! intermediate nodes are dropped as soon as they have been propagated;
//! parameter gradients are collected into a [`GradStore`].

use super::op::{Conv1dSpec, Op};
use super::tape::Tape;
use crate::matmul::{matmul_nt, matmul_tn};
use crate::matrix::Matrix;
use crate::param::GradStore;

use super::op::Var;

impl Tape {
    /// Run the backward pass from `output`, seeding its gradient with ones
    /// (for the usual `[1, 1]` loss this is dL/dL = 1). Returns parameter
    /// gradients in a store sized for `n_params`.
    pub fn backward(&self, output: Var, n_params: usize) -> GradStore {
        let n = self.nodes.len();
        let mut grads: Vec<Option<Matrix>> = vec![None; n];
        let (r, c) = self.shape(output);
        grads[output.index()] = Some(Matrix::ones(r, c));
        let mut store = GradStore::new(n_params);

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(id) => store.accumulate(*id, &g),
                Op::MatMul(a, b) => {
                    let da = matmul_nt(&g, self.value(*b));
                    let db = matmul_tn(self.value(*a), &g);
                    acc(&mut grads, a.index(), da);
                    acc(&mut grads, b.index(), db);
                }
                Op::Add(a, b) => {
                    acc(&mut grads, a.index(), g.clone());
                    acc(&mut grads, b.index(), g);
                }
                Op::Mul(a, b) => {
                    let da = g.hadamard(self.value(*b));
                    let db = g.hadamard(self.value(*a));
                    acc(&mut grads, a.index(), da);
                    acc(&mut grads, b.index(), db);
                }
                Op::AddRowBroadcast(x, bias) => {
                    acc(&mut grads, bias.index(), g.sum_rows());
                    acc(&mut grads, x.index(), g);
                }
                Op::MulColBroadcast(x, col) => {
                    let dx = g.mul_col_broadcast(self.value(*col));
                    let dcol = g.hadamard(self.value(*x)).sum_cols();
                    acc(&mut grads, x.index(), dx);
                    acc(&mut grads, col.index(), dcol);
                }
                Op::Scale(x, alpha) => acc(&mut grads, x.index(), g.scale(*alpha)),
                Op::Tanh(x) => {
                    let y = self.nodes[i].value.as_matrix();
                    let dx = g.zip_map(y, |gi, yi| gi * (1.0 - yi * yi));
                    acc(&mut grads, x.index(), dx);
                }
                Op::Relu(x) => {
                    let dx = g.zip_map(self.value(*x), |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    acc(&mut grads, x.index(), dx);
                }
                Op::LeakyRelu(x, slope) => {
                    let s = *slope;
                    let dx = g.zip_map(self.value(*x), |gi, xi| if xi > 0.0 { gi } else { s * gi });
                    acc(&mut grads, x.index(), dx);
                }
                Op::Sigmoid(x) => {
                    let y = self.nodes[i].value.as_matrix();
                    let dx = g.zip_map(y, |gi, yi| gi * yi * (1.0 - yi));
                    acc(&mut grads, x.index(), dx);
                }
                Op::SoftmaxRows(x) => {
                    let y = self.nodes[i].value.as_matrix();
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
                    acc(&mut grads, x.index(), dx);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let w = self.shape(*p).1;
                        let mut dp = Matrix::zeros(g.rows(), w);
                        for r in 0..g.rows() {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + w]);
                        }
                        offset += w;
                        acc(&mut grads, p.index(), dp);
                    }
                }
                Op::GatherRows { src, idx } => {
                    let rows = self.shape(*src).0;
                    acc(&mut grads, src.index(), g.scatter_add_rows(idx, rows));
                }
                Op::ScatterAddRows { src, idx, .. } => {
                    acc(&mut grads, src.index(), g.gather_rows(idx));
                }
                Op::SegmentSoftmax { src, segments } => {
                    let y = self.nodes[i].value.as_matrix();
                    let mut dx = Matrix::zeros(y.rows(), 1);
                    for &(start, end) in segments.iter() {
                        let mut dot = 0.0f32;
                        for r in start..end {
                            dot += y.get(r, 0) * g.get(r, 0);
                        }
                        for r in start..end {
                            dx.set(r, 0, y.get(r, 0) * (g.get(r, 0) - dot));
                        }
                    }
                    acc(&mut grads, src.index(), dx);
                }
                Op::GSpmm { graph, w, h } => {
                    // dW is the g-SDDMM dot of the output gradient against
                    // the source features; dH is the transposed g-SpMM.
                    let dw = graph.sddmm_dot(&g, self.value(*h));
                    let dh = graph.spmm_ew_t(self.value(*w).data(), &g);
                    acc(&mut grads, w.index(), dw);
                    acc(&mut grads, h.index(), dh);
                }
                Op::GSpmmStatic { graph, w, h } => {
                    acc(&mut grads, h.index(), graph.spmm_ew_t(w, &g));
                }
                Op::GSddmmAdd {
                    graph,
                    src,
                    dst,
                    edge,
                } => {
                    acc(&mut grads, src.index(), graph.scatter_src(&g));
                    acc(&mut grads, dst.index(), graph.scatter_dst(&g));
                    if let Some(e) = edge {
                        acc(&mut grads, e.index(), g);
                    }
                }
                Op::EdgeAggregate { graph, w, x } => {
                    let dw = graph.sddmm_dot_edge(&g, self.value(*x));
                    let dx = graph.expand_dst(self.value(*w).data(), &g);
                    acc(&mut grads, w.index(), dw);
                    acc(&mut grads, x.index(), dx);
                }
                Op::MeanAll(x) => {
                    let (r, c) = self.shape(*x);
                    let scale = g.get(0, 0) / (r * c).max(1) as f32;
                    acc(&mut grads, x.index(), Matrix::full(r, c, scale));
                }
                Op::SortPool { src, kept } => {
                    // Each source row was kept at most once, so its
                    // gradient is its slot's gradient, copied.
                    let (rows, cols) = self.shape(*src);
                    let mut dx = Matrix::zeros(rows, cols);
                    for &(slot, row) in kept {
                        dx.row_mut(row)
                            .copy_from_slice(&g.data()[slot * cols..(slot + 1) * cols]);
                    }
                    acc(&mut grads, src.index(), dx);
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
                    acc(&mut grads, input.index(), dx);
                    acc(&mut grads, weight.index(), dw);
                    acc(&mut grads, bias.index(), db);
                }
                Op::MaxPool1d { src, argmax, .. } => {
                    let (rows, cols) = self.shape(*src);
                    let mut dx = Matrix::zeros(rows, cols);
                    for (flat_out, &flat_in) in argmax.iter().enumerate() {
                        let gv = g.data()[flat_out];
                        dx.data_mut()[flat_in] += gv;
                    }
                    acc(&mut grads, src.index(), dx);
                }
                Op::Reshape {
                    src,
                    src_rows,
                    src_cols,
                } => {
                    acc(&mut grads, src.index(), g.reshaped(*src_rows, *src_cols));
                }
                Op::Dropout { src, mask } => {
                    let mut dx = g.clone();
                    for (d, &m) in dx.data_mut().iter_mut().zip(mask.iter()) {
                        *d *= m;
                    }
                    acc(&mut grads, src.index(), dx);
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    probs,
                } => {
                    let scale = g.get(0, 0) / labels.len().max(1) as f32;
                    let mut dl = probs.clone();
                    for (r, &y) in labels.iter().enumerate() {
                        dl.set(r, y, dl.get(r, y) - 1.0);
                    }
                    dl.scale_inplace(scale);
                    acc(&mut grads, logits.index(), dl);
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

#[inline]
fn acc(grads: &mut [Option<Matrix>], idx: usize, delta: Matrix) {
    match &mut grads[idx] {
        Some(g) => g.add_assign(&delta),
        slot => *slot = Some(delta),
    }
}
