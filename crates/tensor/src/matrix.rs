//! Dense row-major `f32` matrix.
//!
//! This is the storage type underneath every tensor in the workspace. It is
//! deliberately 2-D only: GNN workloads over enclosing subgraphs are
//! expressed entirely with node-major `[N, F]`, edge-major `[E, F]`, and
//! channel-major `[C, L]` matrices.

use std::fmt;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix [{} x {}]", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ell = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Create a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Build a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Extract column `c` as a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Reinterpret as a new shape with the same number of elements
    /// (row-major order preserved).
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshaped(&self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape: {}x{} incompatible with {} elements",
            rows,
            cols,
            self.data.len()
        );
        Matrix {
            rows,
            cols,
            data: self.data.clone(),
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shape matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place elementwise accumulation: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaled accumulation: `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, alpha: f32) {
        self.map_inplace(|v| v * alpha);
    }

    /// Add a `[1, C]` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must have 1 row");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: column mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = out.row_mut(r);
            for (d, &b) in dst.iter_mut().zip(row.data.iter()) {
                *d += b;
            }
        }
        out
    }

    /// Multiply each row `r` by the scalar `col[r]` (a `[R, 1]` column).
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(col.cols, 1, "mul_col_broadcast: rhs must have 1 column");
        assert_eq!(col.rows, self.rows, "mul_col_broadcast: row mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let s = col.data[r];
            for v in out.row_mut(r) {
                *v *= s;
            }
        }
        out
    }

    /// Sum over rows, producing a `[1, C]` row.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum over columns, producing a `[R, 1]` column.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum value in row `r` (first on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute elementwise difference with another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Horizontally concatenate matrices with equal row counts.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Vertically concatenate matrices with equal column counts.
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        let rows = data.len() / cols.max(1);
        Matrix::from_vec(rows, cols, data)
    }

    /// Gather rows by index into a new `[idx.len(), C]` matrix.
    ///
    /// # Panics
    /// Panics (in debug) when an index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (dst, &src) in idx.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-add rows: `out[idx[i]] += self[i]` with `out` having
    /// `out_rows` rows.
    pub fn scatter_add_rows(&self, idx: &[usize], out_rows: usize) -> Matrix {
        assert_eq!(
            idx.len(),
            self.rows,
            "scatter_add_rows: index length mismatch"
        );
        let mut out = Matrix::zeros(out_rows, self.cols);
        for (src, &dst) in idx.iter().enumerate() {
            let row = self.row(src);
            let orow = out.row_mut(dst);
            for (o, &v) in orow.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Row-wise softmax, overflow-safe: the row max is subtracted before
    /// exponentiating, so arbitrarily large logits cannot overflow `exp`.
    /// Degenerate rows whose normalizer is non-positive or non-finite
    /// (all-`-∞` logits, NaN inputs) fall back to the uniform distribution
    /// instead of emitting unnormalized garbage.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            Matrix::softmax_slice(out.row_mut(r));
        }
        out
    }

    /// In-place overflow-safe softmax over one contiguous slice; shared by
    /// [`Matrix::softmax_rows`] and the per-destination softmax of the fused
    /// GAT attention op. Subtracts the max before exponentiating;
    /// if the normalizer still comes out non-positive or non-finite, the
    /// slice becomes the uniform distribution — attention degrades to mean
    /// aggregation rather than poisoning downstream activations.
    pub(crate) fn softmax_slice(slice: &mut [f32]) {
        if slice.is_empty() {
            return;
        }
        let m = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // All-(-∞) rows have no finite max; skip straight to the fallback.
        let mut z = 0.0;
        if m.is_finite() {
            for v in slice.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
        }
        if z > 0.0 && z.is_finite() {
            for v in slice.iter_mut() {
                *v /= z;
            }
        } else {
            let uniform = 1.0 / slice.len() as f32;
            slice.fill(uniform);
        }
    }

    fn assert_same_shape(&self, other: &Matrix, ctx: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{ctx}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(3, 1).sum(), 3.0);
        assert_eq!(Matrix::full(2, 2, 7.0).get(1, 1), 7.0);
        let e = Matrix::eye(3);
        assert_eq!(e.get(0, 0), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).data(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.hadamard(&b).data(), &[10.0, 40.0, 90.0, 160.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn broadcasts() {
        let a = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out.row(0), &[2.0, 3.0, 4.0]);
        assert_eq!(out.row(1), &[2.0, 3.0, 4.0]);

        let col = Matrix::col_vector(&[2.0, -1.0]);
        let out = a.mul_col_broadcast(&col);
        assert_eq!(out.row(0), &[2.0, 2.0, 2.0]);
        assert_eq!(out.row(1), &[-1.0, -1.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.sum_cols().data(), &[6.0, 15.0]);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.argmax_row(1), 2);
    }

    #[test]
    fn concat() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let h = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);

        let v = Matrix::concat_rows(&[&b, &b]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), &[5.0, 6.0]);
    }

    #[test]
    fn gather_scatter_are_adjoint_shapes() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let g = m.gather_rows(&[3, 0, 3]);
        assert_eq!(g.row(0), &[6.0, 7.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[6.0, 7.0]);

        let s = g.scatter_add_rows(&[3, 0, 3], 4);
        assert_eq!(s.row(0), &[0.0, 1.0]);
        assert_eq!(s.row(3), &[12.0, 14.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1000.0, 0.0, 1000.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!((s.get(1, 2) - 1.0).abs() < 1e-5);
        assert!(s.all_finite());
    }

    #[test]
    fn softmax_rows_survives_huge_logits() {
        // Without max subtraction exp(1e38) overflows to ∞ and the row
        // normalizes to NaN; the overflow-safe path must stay finite.
        let m = Matrix::from_vec(2, 3, vec![1e38, 1e38, -1e38, 3.4e38, 0.0, -3.4e38]);
        let s = m.softmax_rows();
        assert!(
            s.all_finite(),
            "huge logits must not overflow: {:?}",
            s.data()
        );
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        assert!((s.get(0, 0) - 0.5).abs() < 1e-5);
        assert!(s.get(0, 2) < 1e-6);
        assert!((s.get(1, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_degenerate_rows_fall_back_to_uniform() {
        // All -∞ (normalizer 0) and NaN-contaminated rows both degrade to
        // the uniform distribution instead of unnormalized garbage.
        let m = Matrix::from_vec(
            2,
            4,
            vec![
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                1.0,
                2.0,
                3.0,
            ],
        );
        let s = m.softmax_rows();
        assert!(s.all_finite());
        for r in 0..2 {
            for c in 0..4 {
                assert!((s.get(r, c) - 0.25).abs() < 1e-6, "({r},{c})");
            }
        }
    }

    #[test]
    fn reshape_preserves_row_major_order() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = m.reshaped(3, 2);
        assert_eq!(r.row(0), &[1.0, 2.0]);
        assert_eq!(r.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn norm_and_diff() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Matrix::from_vec(1, 2, vec![3.5, 4.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }
}
