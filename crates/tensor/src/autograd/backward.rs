//! Reverse-mode sweep over a recorded tape.
//!
//! Nodes only reference earlier nodes, so a single reverse iteration over
//! the arena visits every node after all of its consumers. Gradients for
//! intermediate nodes are dropped as soon as they have been propagated;
//! parameter gradients are collected into a [`GradStore`].

use super::op::Op;
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
                Op::SortPool { src, perm, .. } => {
                    let (rows, cols) = self.shape(*src);
                    let mut dx = Matrix::zeros(rows, cols);
                    for (out_row, &src_row) in perm.iter().enumerate() {
                        let grow = g.row(out_row);
                        let drow = dx.row_mut(src_row);
                        for (d, &gv) in drow.iter_mut().zip(grow.iter()) {
                            *d += gv;
                        }
                    }
                    acc(&mut grads, src.index(), dx);
                }
                Op::Conv1d {
                    input,
                    weight,
                    bias,
                    spec,
                } => {
                    let x = self.value(*input);
                    let w = self.value(*weight);
                    let l = x.cols();
                    let l_out = spec.out_len(l);
                    let mut dx = Matrix::zeros(spec.in_channels, l);
                    let mut dw = Matrix::zeros(spec.out_channels, spec.in_channels * spec.kernel);
                    let mut db = Matrix::zeros(spec.out_channels, 1);
                    for o in 0..spec.out_channels {
                        let wrow = w.row(o);
                        let grow = g.row(o);
                        let mut bsum = 0.0f32;
                        for (t, &gv) in grow.iter().enumerate().take(l_out) {
                            if gv == 0.0 {
                                continue;
                            }
                            bsum += gv;
                            let start = t * spec.stride;
                            for ci in 0..spec.in_channels {
                                let base = ci * spec.kernel;
                                let xrow = x.row(ci);
                                for kk in 0..spec.kernel {
                                    dw.data_mut()
                                        [o * spec.in_channels * spec.kernel + base + kk] +=
                                        gv * xrow[start + kk];
                                    dx.data_mut()[ci * l + start + kk] += gv * wrow[base + kk];
                                }
                            }
                        }
                        db.set(o, 0, db.get(o, 0) + bsum);
                    }
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

#[inline]
fn acc(grads: &mut [Option<Matrix>], idx: usize, delta: Matrix) {
    match &mut grads[idx] {
        Some(g) => g.add_assign(&delta),
        slot => *slot = Some(delta),
    }
}
