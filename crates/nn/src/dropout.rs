//! Inverted dropout.

use amdgcnn_tensor::{Tape, Var};
use rand::{rngs::StdRng, RngExt};
use std::sync::Arc;

/// Dropout layer: zeroes each element with probability `prob` during
/// training and rescales survivors by `1/(1-prob)` so expectations match
/// inference (which simply skips the layer).
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub prob: f32,
}

impl Dropout {
    /// Create a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0 ≤ prob < 1`.
    pub fn new(prob: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&prob),
            "dropout probability {prob} out of [0,1)"
        );
        Self { prob }
    }

    /// Apply in training mode to an `[R, C]` input: row `r`'s mask is
    /// drawn from `rngs[r]`, so a row's mask is the same whether it is
    /// dropped alone or inside a minibatch.
    ///
    /// # Panics
    /// Panics unless there is one RNG per row.
    pub fn apply(&self, tape: &mut Tape, x: Var, rngs: &mut [StdRng]) -> Var {
        if self.prob == 0.0 {
            return x;
        }
        let (r, c) = tape.shape(x);
        assert_eq!(rngs.len(), r, "dropout: one RNG per row");
        let keep = 1.0 - self.prob;
        let scale = 1.0 / keep;
        let mask: Arc<Vec<f32>> = Arc::new(
            rngs.iter_mut()
                .flat_map(|rng| {
                    (0..c).map(move |_| {
                        if rng.random::<f32>() < keep {
                            scale
                        } else {
                            0.0
                        }
                    })
                })
                .collect(),
        );
        tape.dropout(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::Matrix;
    use rand::SeedableRng;

    #[test]
    fn zero_prob_is_identity() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 2));
        let mut rngs = [StdRng::seed_from_u64(0), StdRng::seed_from_u64(1)];
        let y = Dropout::new(0.0).apply(&mut tape, x, &mut rngs);
        assert_eq!(y, x);
    }

    #[test]
    fn expectation_is_preserved() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 10_000));
        let mut rng = StdRng::seed_from_u64(1);
        let y = Dropout::new(0.3).apply(&mut tape, x, std::slice::from_mut(&mut rng));
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted-dropout mean {mean}");
    }

    #[test]
    fn elements_are_zero_or_scaled() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 100));
        let mut rng = StdRng::seed_from_u64(2);
        let y = Dropout::new(0.5).apply(&mut tape, x, std::slice::from_mut(&mut rng));
        for &v in tape.value(y).data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6, "unexpected value {v}");
        }
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_prob_one() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let make = || {
            let mut tape = Tape::new();
            let x = tape.leaf(Matrix::ones(5, 5));
            let mut rngs: Vec<StdRng> = (0..5).map(|i| StdRng::seed_from_u64(9 + i)).collect();
            let y = Dropout::new(0.4).apply(&mut tape, x, &mut rngs);
            tape.value(y).clone()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn each_row_draws_from_its_own_rng() {
        // Row r of a batch gets the mask row r alone would get from rngs[r].
        let d = Dropout::new(0.5);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(3, 8));
        let mut rngs: Vec<StdRng> = (0..3).map(|i| StdRng::seed_from_u64(40 + i)).collect();
        let batched = d.apply(&mut tape, x, &mut rngs);
        for r in 0..3 {
            let xr = tape.leaf(Matrix::ones(1, 8));
            let mut rng = StdRng::seed_from_u64(40 + r as u64);
            let single = d.apply(&mut tape, xr, std::slice::from_mut(&mut rng));
            assert_eq!(tape.value(batched).row(r), tape.value(single).row(0));
        }
    }
}
