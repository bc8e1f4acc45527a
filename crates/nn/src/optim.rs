//! The Adam optimizer, the one optimizer training uses.

use amdgcnn_tensor::{GradStore, Matrix, ParamId, ParamStore};

/// Exponential-decay coefficient of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential-decay coefficient of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator guard.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba, 2015) with betas (0.9, 0.999) and eps 1e-8.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Change the learning rate (the training watchdog damps it on
    /// retries).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer's mutable state (step count and first/second
    /// moment estimates) for durable checkpointing. The learning rate is
    /// configuration, not part of the snapshot.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore state captured by [`export_state`](Self::export_state).
    /// After this, the optimizer continues exactly where the snapshot was
    /// taken: the next `step` uses the restored moments and bias-correction
    /// horizon, so a resumed run is bit-identical to an uninterrupted one.
    pub fn restore_state(&mut self, state: AdamState) {
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }
}

/// The mutable state of an [`Adam`] optimizer, detached for serialization.
/// `None` entries are parameters that have not received a gradient yet.
#[derive(Debug, Clone, Default)]
pub struct AdamState {
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one slot per parameter.
    pub m: Vec<Option<Matrix>>,
    /// Second-moment estimates, one slot per parameter.
    pub v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Apply one update step from accumulated gradients; parameters
    /// without a gradient do not move.
    pub fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..params.len() {
            let id = ParamId(i);
            let Some(g) = grads.get(id) else { continue };
            let m = self.m[i].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let v = self.v[i].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            // m ← β₁m + (1-β₁)g ; v ← β₂v + (1-β₂)g².
            m.scale_inplace(BETA1);
            m.axpy(1.0 - BETA1, g);
            v.scale_inplace(BETA2);
            for (vv, &gv) in v.data_mut().iter_mut().zip(g.data().iter()) {
                *vv += (1.0 - BETA2) * gv * gv;
            }
            let lr = self.lr;
            let (m, v) = (&self.m[i], &self.v[i]);
            let m = m.as_ref().expect("initialized above");
            let v = v.as_ref().expect("initialized above");
            params.update(id, |p| {
                for ((pv, &mv), &vv) in p
                    .data_mut()
                    .iter_mut()
                    .zip(m.data().iter())
                    .zip(v.data().iter())
                {
                    let m_hat = mv / bc1;
                    let v_hat = vv / bc2;
                    *pv -= lr * (m_hat / (v_hat.sqrt() + EPS));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::GradStore;

    fn one_param_store(value: f32) -> (ParamStore, ParamId) {
        let mut ps = ParamStore::new();
        let id = ps.register("w", Matrix::full(1, 1, value));
        (ps, id)
    }

    fn grad_of(id: ParamId, n: usize, g: f32) -> GradStore {
        let mut gs = GradStore::new(n);
        gs.accumulate(id, &Matrix::full(1, 1, g));
        gs
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        for g in [0.001f32, 1.0, 1000.0] {
            let (mut ps, id) = one_param_store(0.0);
            let mut opt = Adam::new(0.01);
            opt.step(&mut ps, &grad_of(id, 1, g));
            let step = -ps.get(id).get(0, 0);
            assert!((step - 0.01).abs() < 1e-4, "grad {g} gave step {step}");
        }
    }

    #[test]
    fn adam_hand_computed_two_steps() {
        let (mut ps, id) = one_param_store(1.0);
        let mut opt = Adam::new(0.1);
        // Step 1: m=0.1g, v=0.001g²; m̂=g, v̂=g² → θ -= lr·g/(|g|+eps).
        opt.step(&mut ps, &grad_of(id, 1, 0.5));
        let after1 = ps.get(id).get(0, 0);
        assert!((after1 - (1.0 - 0.1)).abs() < 1e-4, "{after1}");
        // Step 2 with the same gradient direction keeps moving down.
        opt.step(&mut ps, &grad_of(id, 1, 0.5));
        assert!(ps.get(id).get(0, 0) < after1);
        assert_eq!(opt.steps(), 2);
    }

    #[test]
    fn adam_skips_missing_grads() {
        let mut ps = ParamStore::new();
        let a = ps.register("a", Matrix::full(1, 1, 1.0));
        let b = ps.register("b", Matrix::full(1, 1, 1.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut ps, &grad_of(a, 2, 1.0));
        assert!(ps.get(a).get(0, 0) < 1.0);
        assert_eq!(ps.get(b).get(0, 0), 1.0, "param without grad must not move");
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        let (mut ps_a, id) = one_param_store(1.0);
        let mut opt_a = Adam::new(0.05);
        opt_a.step(&mut ps_a, &grad_of(id, 1, 0.3));
        // Snapshot, hand the state to a fresh optimizer, then drive both
        // through the same gradient sequence.
        let mut ps_b = ps_a.clone();
        let mut opt_b = Adam::new(0.05);
        opt_b.restore_state(opt_a.export_state());
        for g in [0.2f32, -0.7, 0.05] {
            opt_a.step(&mut ps_a, &grad_of(id, 1, g));
            opt_b.step(&mut ps_b, &grad_of(id, 1, g));
        }
        assert_eq!(opt_a.steps(), opt_b.steps());
        let bits = |ps: &ParamStore| -> Vec<u32> {
            ps.get(id).data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&ps_a), bits(&ps_b), "restored Adam must track exactly");
    }

    #[test]
    fn quadratic_convergence() {
        // Minimize (θ-3)².
        let (mut ps, id) = one_param_store(-2.0);
        let mut adam = Adam::new(0.2);
        for _ in 0..200 {
            let theta = ps.get(id).get(0, 0);
            adam.step(&mut ps, &grad_of(id, 1, 2.0 * (theta - 3.0)));
        }
        let theta = ps.get(id).get(0, 0);
        assert!((theta - 3.0).abs() < 0.05, "got {theta}");
    }
}
