//! Matrix-multiplication kernels.
//!
//! Three variants cover every contraction reverse-mode autodiff needs:
//!
//! * [`matmul`]    — `C = A · B`
//! * [`matmul_nt`] — `C = A · Bᵀ`
//! * [`matmul_tn`] — `C = Aᵀ · B`
//!
//! All kernels use an i-k-j loop order (row-major friendly, auto-vectorizes)
//! and fan the output rows out over rayon once the FLOP count crosses
//! [`PAR_FLOP_THRESHOLD`]; below it the sequential kernel wins because the
//! fork/join overhead dominates. [`matmul_nt`] is the one that transposes
//! an operand: it copies `B` (a weight, in the backward pass) into `Bᵀ` so
//! its product gets the same i-k-j inner loop instead of serial dot
//! products. [`matmul`] and [`matmul_nt`] compute each output row from its
//! left-operand row alone, in the same order at any row count (parallel or
//! not), so a row of a minibatch product equals that row's own product bit
//! for bit.
//!
//! No kernel splits the shared dimension. Each output entry is summed over
//! it in increasing order, from `0.0`, whatever the thread count and on
//! either side of the threshold: [`matmul_tn`] (the weight gradient
//! `hᵀ · dZ`) splits its output rows, not the rows of `A` and `B`, so a
//! gradient is the same bits on one CPU and on many.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Minimum `m * n * k` product before the parallel kernel is used.
pub const PAR_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// `C = A · B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimension mismatch {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if m * n * k >= PAR_FLOP_THRESHOLD {
        out.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, orow)| mm_row(a.row(i), b, orow));
    } else {
        for i in 0..m {
            let (arow, orow) = (a.row(i), row_of(&mut out, i, n));
            mm_row(arow, b, orow);
        }
    }
    out
}

/// `C = A · Bᵀ` (dot products of rows of `A` with rows of `B`).
///
/// Runs as the i-k-j product of `A` with an explicit `Bᵀ`, with no
/// zero-skip, so the inner loop vectorizes over the output row. Each entry
/// still sums `a[i, p] · b[j, p]` from `0.0` in increasing `p`, the order
/// of a plain dot-product loop, so the result is that loop's bit for bit.
///
/// # Panics
/// Panics if `A.cols() != B.cols()`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: inner dimension mismatch {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    matmul_dense(a, &b.transpose())
}

/// `C = Aᵀ · B`.
///
/// # Panics
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: inner dimension mismatch {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    let k = a.rows();
    let m = a.cols();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if m * n * k >= PAR_FLOP_THRESHOLD {
        // Blocks of output rows, one per thread; every block reads all of
        // the shared dimension, so the split never moves a partial sum.
        let rows = m.div_ceil(rayon::current_num_threads().max(1));
        out.data_mut()
            .par_chunks_mut(rows * n)
            .enumerate()
            .for_each(|(blk, chunk)| tn_rows(a, b, blk * rows, chunk));
    } else if n > 0 {
        tn_rows(a, b, 0, out.data_mut());
    }
    out
}

/// `C = A · B` through the dense reference kernel.
///
/// Unlike [`matmul`], no zero-entry shortcut is taken: every one of the
/// `m·n·k` multiply-adds is performed. Numerically the result is identical
/// to [`matmul`] (skipped terms contribute exactly `+0.0`), but the cost is
/// the full dense FLOP count regardless of input sparsity. It is the
/// reference [`matmul`]'s zero-skip is tested against.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul_dense(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_dense: inner dimension mismatch {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if m * n * k >= PAR_FLOP_THRESHOLD {
        out.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, orow)| mm_row_dense(a.row(i), b, orow));
    } else {
        for i in 0..m {
            let (arow, orow) = (a.row(i), row_of(&mut out, i, n));
            mm_row_dense(arow, b, orow);
        }
    }
    out
}

/// One output row of `A · B`: `orow += arow · B`.
#[inline]
fn mm_row(arow: &[f32], b: &Matrix, orow: &mut [f32]) {
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue; // node-feature matrices are often one-hot sparse
        }
        for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
            *o += av * bv;
        }
    }
}

/// One output row of `A · B` with no zero-skip: the dense reference path.
#[inline]
fn mm_row_dense(arow: &[f32], b: &Matrix, orow: &mut [f32]) {
    for (p, &av) in arow.iter().enumerate() {
        for (o, &bv) in orow.iter_mut().zip(b.row(p)) {
            *o += av * bv;
        }
    }
}

/// Output rows `first..` of `Aᵀ · B`, whole rows, into `out`: for each row
/// `p` of the shared dimension in increasing order, `out[i] += a[p, i] ·
/// b[p]`. Both inputs stream in row-major order.
#[inline]
fn tn_rows(a: &Matrix, b: &Matrix, first: usize, out: &mut [f32]) {
    let n = b.cols();
    let rows = out.len() / n;
    for p in 0..a.rows() {
        let brow = b.row(p);
        for (&av, orow) in a.row(p)[first..first + rows]
            .iter()
            .zip(out.chunks_exact_mut(n))
        {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

#[inline]
fn row_of(out: &mut Matrix, i: usize, n: usize) -> &mut [f32] {
    &mut out.data_mut()[i * n..(i + 1) * n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0f32..1.0))
    }

    /// Naive reference O(mnk) triple loop.
    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_reference_small() {
        let a = random(5, 7, 1);
        let b = random(7, 3, 2);
        assert!(matmul(&a, &b).max_abs_diff(&reference(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_matches_reference_parallel_path() {
        let a = random(80, 90, 3);
        let b = random(90, 70, 4);
        const _: () = assert!(80 * 90 * 70 >= PAR_FLOP_THRESHOLD);
        assert!(matmul(&a, &b).max_abs_diff(&reference(&a, &b)) < 1e-3);
    }

    #[test]
    fn matmul_identity() {
        let a = random(6, 6, 5);
        assert!(matmul(&a, &Matrix::eye(6)).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&Matrix::eye(6), &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = random(4, 6, 6);
        let b = random(9, 6, 7);
        let expect = reference(&a, &b.transpose());
        assert!(matmul_nt(&a, &b).max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn nt_parallel_path() {
        let a = random(80, 80, 8);
        let b = random(80, 80, 9);
        let expect = reference(&a, &b.transpose());
        assert!(matmul_nt(&a, &b).max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = random(6, 4, 10);
        let b = random(6, 5, 11);
        let expect = reference(&a.transpose(), &b);
        assert!(matmul_tn(&a, &b).max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn tn_parallel_path() {
        let a = random(128, 64, 12);
        let b = random(128, 64, 13);
        let expect = reference(&a.transpose(), &b);
        assert!(matmul_tn(&a, &b).max_abs_diff(&expect) < 1e-3);
    }

    /// Above the threshold, `Aᵀ · B` still sums each entry over the shared
    /// dimension in increasing order from zero, the plain loop's order, so
    /// the result does not depend on the thread count. The shape is a
    /// layer's weight gradient `hᵀ · dZ` over a 16-sample minibatch.
    #[test]
    fn tn_parallel_path_equals_the_sequential_loop_bitwise() {
        let (k, m, n) = (704, 32, 32);
        const _: () = assert!(704 * 32 * 32 >= PAR_FLOP_THRESHOLD);
        let a = random(k, m, 22);
        let b = random(k, n, 23);
        let mut expect = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get(p, i) * b.get(p, j);
                }
                expect.set(i, j, acc);
            }
        }
        let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&matmul_tn(&a, &b)), bits(&expect));
        for threads in [1, 3, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(|| matmul_tn(&a, &b));
            assert_eq!(bits(&got), bits(&expect), "{threads} threads");
        }
    }

    #[test]
    fn rectangular_chains_associate() {
        // (A·B)·C == A·(B·C) up to float tolerance.
        let a = random(3, 8, 14);
        let b = random(8, 5, 15);
        let c = random(5, 2, 16);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.max_abs_diff(&right) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn dimension_mismatch_panics() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn dense_kernel_matches_zero_skip_kernel_bitwise() {
        // The zero-skip only ever omits exact `+0.0` terms, so both
        // kernels must agree bit-for-bit — including on sparse inputs.
        let mut a = random(30, 40, 18);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = random(40, 20, 19);
        assert_eq!(matmul_dense(&a, &b).data(), matmul(&a, &b).data());
    }

    #[test]
    fn dense_kernel_parallel_path_matches_reference() {
        let a = random(80, 90, 20);
        let b = random(90, 70, 21);
        assert!(matmul_dense(&a, &b).max_abs_diff(&reference(&a, &b)) < 1e-3);
    }

    #[test]
    fn one_hot_rows_select_columns() {
        // One-hot lhs row picks out a row of B — the common node-feature case.
        let mut a = Matrix::zeros(2, 4);
        a.set(0, 2, 1.0);
        a.set(1, 0, 1.0);
        let b = random(4, 3, 17);
        let c = matmul(&a, &b);
        assert_eq!(c.row(0), b.row(2));
        assert_eq!(c.row(1), b.row(0));
    }
}
