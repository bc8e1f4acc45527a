//! Small dense linear algebra used by the Gaussian-process surrogate in the
//! hyperparameter tuner: Cholesky factorization and triangular solves.
//! Sizes here are the number of evaluated hyperparameter configurations
//! (tens), so these are straightforward O(n³) kernels with care for
//! numerical robustness, not blocked BLAS.

use crate::matrix::Matrix;

/// Error raised when a factorization fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not positive definite (within tolerance).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The matrix is not square or shapes disagree.
    ShapeMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::ShapeMismatch => write!(f, "shape mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor `L` with `L·Lᵀ = A`.
///
/// `A` must be symmetric positive definite; only the lower triangle is read.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solve `L·x = b` for lower-triangular `L` (forward substitution).
/// `b` may have multiple right-hand-side columns.
pub fn solve_lower(l: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in 0..n {
            let mut sum = x.get(i, col);
            for k in 0..i {
                sum -= l.get(i, k) * x.get(k, col);
            }
            x.set(i, col, sum / l.get(i, i));
        }
    }
    Ok(x)
}

/// Solve `Lᵀ·x = b` for lower-triangular `L` (backward substitution).
pub fn solve_lower_transpose(l: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(LinalgError::ShapeMismatch);
    }
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in (0..n).rev() {
            let mut sum = x.get(i, col);
            for k in i + 1..n {
                sum -= l.get(k, i) * x.get(k, col);
            }
            x.set(i, col, sum / l.get(i, i));
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{matmul, matmul_nt};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// Random SPD matrix A = M·Mᵀ + n·I.
    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0f32..1.0));
        let mut a = matmul_nt(&m, &m);
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f32);
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        for seed in 0..5 {
            let a = random_spd(8, seed);
            let l = cholesky(&a).expect("SPD");
            let recon = matmul_nt(&l, &l);
            assert!(recon.max_abs_diff(&a) < 1e-3, "seed {seed}");
        }
    }

    #[test]
    fn cholesky_of_identity_is_identity() {
        let l = cholesky(&Matrix::eye(5)).expect("identity is SPD");
        assert!(l.max_abs_diff(&Matrix::eye(5)) < 1e-6);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert_eq!(
            cholesky(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch)
        );
    }

    #[test]
    fn triangular_solves_invert() {
        let a = random_spd(6, 11);
        let l = cholesky(&a).expect("SPD");
        let b = Matrix::from_fn(6, 2, |r, c| (r + 2 * c) as f32);
        let y = solve_lower(&l, &b).expect("solve");
        assert!(matmul(&l, &y).max_abs_diff(&b) < 1e-3);
        let z = solve_lower_transpose(&l, &b).expect("solve");
        assert!(matmul(&l.transpose(), &z).max_abs_diff(&b) < 1e-3);
    }
}
