//! Random matrix initialization (uniform / Gaussian / Xavier).
//!
//! All functions take an explicit [`StdRng`] so that every stochastic step in
//! the workspace is reproducible from a single `u64` seed.

use crate::matrix::Matrix;
use rand::{rngs::StdRng, RngExt};

/// Uniform fill in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..hi))
}

/// Standard-normal sample via the Box–Muller transform (rand's core API does
/// not ship a Gaussian distribution; this keeps us off extra dependencies).
pub fn normal_sample(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.random::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.random::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        return r * theta.cos();
    }
}

/// Gaussian fill with the given mean and standard deviation.
pub fn normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| mean + std * normal_sample(rng))
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = uniform(20, 20, -0.5, 0.5, &mut rng);
        assert!(m.max() < 0.5 && m.min() >= -0.5);
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = normal(100, 100, 1.0, 2.0, &mut rng);
        let mean = m.mean();
        let var = m.map(|v| (v - mean) * (v - mean)).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = xavier_uniform(4, 4, &mut rng);
        let large = xavier_uniform(1024, 1024, &mut rng);
        assert!(small.max() > large.max());
        let limit = (6.0f32 / 2048.0).sqrt();
        assert!(large.max() <= limit && large.min() >= -limit);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            normal(3, 3, 0.0, 1.0, &mut a),
            normal(3, 3, 0.0, 1.0, &mut b)
        );
    }
}
