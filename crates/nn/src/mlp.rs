//! Multi-layer perceptron — the dense classifier head of (AM-)DGCNN.

use crate::activation::Activation;
use crate::dropout::Dropout;
use crate::linear::Linear;
use amdgcnn_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Stack of [`Linear`] layers with a shared hidden activation; the final
/// layer is left linear (logits).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: Option<Dropout>,
}

impl Mlp {
    /// Build from a dimension chain `dims = [in, h1, ..., out]`.
    ///
    /// # Panics
    /// Panics when fewer than two dimensions are given.
    pub fn new(
        name: &str,
        dims: &[usize],
        activation: Activation,
        dropout_prob: Option<f32>,
        ps: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dimensions");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.fc{i}"), w[0], w[1], true, ps, rng))
            .collect();
        let dropout = dropout_prob.map(Dropout::new);
        Self {
            layers,
            activation,
            dropout,
        }
    }

    /// Forward pass over `[R, in]` rows. `dropout_rngs` enables dropout
    /// (training mode) and holds one RNG per row: row `r`'s masks are drawn
    /// from `dropout_rngs[r]`, so each row of a minibatch is computed as it
    /// would be alone. `None` runs in inference mode.
    pub fn forward(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        x: Var,
        mut dropout_rngs: Option<&mut [StdRng]>,
    ) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, ps, h);
            if i < last {
                h = self.activation.apply(tape, h);
                if let (Some(d), Some(rngs)) = (&self.dropout, dropout_rngs.as_deref_mut()) {
                    h = d.apply(tape, h, rngs);
                }
            }
        }
        h
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(Linear::num_parameters).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::autograd::gradcheck::check_gradients;
    use amdgcnn_tensor::Matrix;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn shapes_through_stack() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(
            "m",
            &[6, 8, 4, 2],
            Activation::Tanh,
            None,
            &mut ps,
            &mut rng,
        );
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.num_parameters(), 6 * 8 + 8 + 8 * 4 + 4 + 4 * 2 + 2);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(3, 6));
        let y = mlp.forward(&mut tape, &ps, x, None);
        assert_eq!(tape.shape(y), (3, 2));
    }

    #[test]
    fn gradcheck_through_two_layers() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new("m", &[3, 4, 2], Activation::Tanh, None, &mut ps, &mut rng);
        let input = Matrix::from_fn(2, 3, |r, c| ((r * 3 + c) as f32 * 0.21).cos());
        let res = check_gradients(
            &ps,
            |tape, store| {
                let x = tape.leaf(input.clone());
                let logits = mlp.forward(tape, store, x, None);
                tape.softmax_cross_entropy(logits, Arc::new(vec![0, 1]))
            },
            1e-2,
            3e-2,
        );
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn can_overfit_xor() {
        // Tiny sanity: an MLP with one hidden layer learns XOR.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new("m", &[2, 8, 2], Activation::Tanh, None, &mut ps, &mut rng);
        let inputs = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let labels = Arc::new(vec![0usize, 1, 1, 0]);
        let mut opt = crate::optim::Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.leaf(inputs.clone());
            let logits = mlp.forward(&mut tape, &ps, x, None);
            let loss = tape.softmax_cross_entropy(logits, labels.clone());
            last = tape.value(loss).get(0, 0);
            let grads = tape.backward(loss, ps.len());
            opt.step(&mut ps, &grads);
        }
        assert!(last < 0.05, "XOR loss should collapse, got {last}");
        // Verify predictions.
        let mut tape = Tape::new();
        let x = tape.leaf(inputs);
        let logits = mlp.forward(&mut tape, &ps, x, None);
        for (r, &y) in labels.iter().enumerate() {
            assert_eq!(tape.value(logits).argmax_row(r), y, "row {r}");
        }
    }
}
