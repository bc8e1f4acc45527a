//! 1-D convolution layer — the read-out convolutions DGCNN applies to the
//! sort-pooled node-embedding sequence.

use amdgcnn_tensor::{init, Conv1dSpec, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Trainable 1-D convolution: input `[C_in, L]` → `[C_out, L_out]`, or a
/// minibatch of such samples one per row (`[B, C_in*L]` → `[B, C_out*L_out]`).
#[derive(Debug, Clone)]
pub struct Conv1dLayer {
    /// Weight `[C_out, C_in * kernel]`.
    pub weight: ParamId,
    /// Bias `[C_out, 1]`.
    pub bias: ParamId,
    /// Shape/stride configuration.
    pub spec: Conv1dSpec,
}

impl Conv1dLayer {
    /// Register parameters for a new layer.
    pub fn new(name: &str, spec: Conv1dSpec, ps: &mut ParamStore, rng: &mut StdRng) -> Self {
        let fan_in = spec.in_channels * spec.kernel;
        let weight = ps.register(
            format!("{name}.weight"),
            init::xavier_uniform(spec.out_channels, fan_in, rng)
                .reshaped(spec.out_channels, fan_in),
        );
        let bias = ps.register(format!("{name}.bias"), Matrix::zeros(spec.out_channels, 1));
        Self { weight, bias, spec }
    }

    /// Forward pass over one `[C_in, L]` sample.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamStore, x: Var) -> Var {
        let w = tape.param(self.weight, ps.get(self.weight).clone());
        let b = tape.param(self.bias, ps.get(self.bias).clone());
        tape.conv1d(x, w, b, self.spec)
    }

    /// Forward pass over a minibatch: row `b` of the `[B, C_in*L]` input is
    /// sample `b`'s `[C_in, L]` input flattened, and row `b` of the result
    /// is its `[C_out, L_out]` output flattened, equal to
    /// [`forward`](Self::forward) of that sample bit for bit.
    pub fn forward_rows(&self, tape: &mut Tape, ps: &ParamStore, x: Var) -> Var {
        let w = tape.param(self.weight, ps.get(self.weight).clone());
        let b = tape.param(self.bias, ps.get(self.bias).clone());
        tape.conv1d_rows(x, w, b, self.spec)
    }

    /// Output length for a given input length.
    pub fn out_len(&self, input_len: usize) -> usize {
        self.spec.out_len(input_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::autograd::gradcheck::check_gradients;
    use rand::SeedableRng;

    #[test]
    fn shapes_follow_spec() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let spec = Conv1dSpec {
            in_channels: 1,
            out_channels: 8,
            kernel: 4,
            stride: 4,
        };
        let layer = Conv1dLayer::new("c", spec, &mut ps, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, 20));
        let y = layer.forward(&mut tape, &ps, x);
        assert_eq!(tape.shape(y), (8, 5));
        assert_eq!(layer.out_len(20), 5);
    }

    #[test]
    fn dgcnn_readout_chain_shapes() {
        // The DGCNN read-out: [1, k*C] -conv(k=C,s=C)-> [16, k] -pool(2)->
        // [16, k/2] -conv(k=5)-> [32, k/2-4].
        let (k, c) = (12usize, 7usize);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv1 = Conv1dLayer::new(
            "c1",
            Conv1dSpec {
                in_channels: 1,
                out_channels: 16,
                kernel: c,
                stride: c,
            },
            &mut ps,
            &mut rng,
        );
        let conv2 = Conv1dLayer::new(
            "c2",
            Conv1dSpec {
                in_channels: 16,
                out_channels: 32,
                kernel: 5,
                stride: 1,
            },
            &mut ps,
            &mut rng,
        );
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(1, k * c));
        let h1 = conv1.forward(&mut tape, &ps, x);
        assert_eq!(tape.shape(h1), (16, k));
        let p1 = tape.max_pool1d(h1, 2);
        assert_eq!(tape.shape(p1), (16, k / 2));
        let h2 = conv2.forward(&mut tape, &ps, p1);
        assert_eq!(tape.shape(h2), (32, k / 2 - 4));
    }

    #[test]
    fn gradients_check_out() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let spec = Conv1dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
        };
        let layer = Conv1dLayer::new("c", spec, &mut ps, &mut rng);
        let input = Matrix::from_fn(2, 6, |r, c| ((r * 6 + c) as f32 * 0.19).sin());
        let res = check_gradients(
            &ps,
            |tape, store| {
                let x = tape.leaf(input.clone());
                let y = layer.forward(tape, store, x);
                let a = tape.tanh(y);
                let sq = tape.mul(a, a);
                tape.mean_all(sq)
            },
            1e-2,
            3e-2,
        );
        assert!(res.is_ok(), "{res:?}");
    }
}
