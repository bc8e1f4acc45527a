//! Trainable-parameter storage and gradient accumulation.
//!
//! Parameters live outside any tape in a [`ParamStore`]; tapes reference
//! them through cheap `Arc` clones, so forward passes on several rayon
//! threads share the parameters read-only. Gradients come back in
//! [`GradStore`]s keyed by [`ParamId`].

use crate::matrix::Matrix;
use std::sync::Arc;

/// Stable identifier of a trainable parameter within a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// Owns all trainable parameters of a model.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    values: Vec<Arc<Matrix>>,
    names: Vec<String>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter and return its id.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.values.push(Arc::new(value));
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Shared handle to a parameter's current value.
    pub fn get(&self, id: ParamId) -> &Arc<Matrix> {
        &self.values[id.0]
    }

    /// Human-readable parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Replace a parameter's value.
    pub fn set(&mut self, id: ParamId, value: Matrix) {
        self.values[id.0] = Arc::new(value);
    }

    /// Mutate a parameter in place (clones only if a tape still holds it).
    pub fn update(&mut self, id: ParamId, f: impl FnOnce(&mut Matrix)) {
        f(Arc::make_mut(&mut self.values[id.0]));
    }

    /// Iterate over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Arc<Matrix>)> {
        self.values.iter().enumerate().map(|(i, v)| (ParamId(i), v))
    }

    /// Total number of scalar parameters.
    pub fn num_elements(&self) -> usize {
        self.values.iter().map(|m| m.len()).sum()
    }

    /// True when every scalar of every parameter is finite — the
    /// validity check the training watchdog runs on rollback checkpoints
    /// and the serving engine runs on every artifact it loads.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|m| m.all_finite())
    }
}

/// Accumulated gradients, indexed by [`ParamId`]. Entries stay `None` for
/// parameters that did not participate in the computation.
#[derive(Clone, Debug)]
pub struct GradStore {
    grads: Vec<Option<Matrix>>,
}

impl GradStore {
    /// Store sized for `n_params` parameters, all gradients absent.
    pub fn new(n_params: usize) -> Self {
        Self {
            grads: vec![None; n_params],
        }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True if no slots exist.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Gradient for `id`, if any was accumulated.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }

    /// Add `delta` into the slot for `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        match &mut self.grads[id.0] {
            Some(g) => g.add_assign(delta),
            slot => *slot = Some(delta.clone()),
        }
    }

    /// Merge another gradient store into this one (summing overlaps).
    pub fn merge(&mut self, other: &GradStore) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "GradStore size mismatch"
        );
        for (i, g) in other.grads.iter().enumerate() {
            if let Some(g) = g {
                self.accumulate(ParamId(i), g);
            }
        }
    }

    /// Multiply every stored gradient by `alpha` (e.g. 1/batch for means).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_inplace(alpha);
        }
    }

    /// Global gradient norm over all stored entries.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Clip by global norm: if the global norm exceeds `max_norm`, rescale
    /// all gradients so it equals `max_norm`. Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }

    /// True when every stored gradient is finite.
    pub fn all_finite(&self) -> bool {
        self.grads.iter().flatten().all(|g| g.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_set_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::eye(2));
        let b = store.register("b", Matrix::zeros(1, 2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.name(w), "w");
        assert_eq!(store.get(w).get(0, 0), 1.0);
        store.set(b, Matrix::ones(1, 2));
        assert_eq!(store.get(b).sum(), 2.0);
        assert_eq!(store.num_elements(), 6);
    }

    #[test]
    fn update_in_place_and_shared_clone_semantics() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let held = store.get(w).clone(); // simulates a tape holding the value
        store.update(w, |m| m.set(0, 0, 5.0));
        assert_eq!(store.get(w).get(0, 0), 5.0);
        assert_eq!(held.get(0, 0), 0.0, "tape's copy must stay unchanged");
    }

    #[test]
    fn grads_accumulate_and_merge() {
        let mut a = GradStore::new(2);
        a.accumulate(ParamId(0), &Matrix::ones(2, 2));
        a.accumulate(ParamId(0), &Matrix::ones(2, 2));
        assert_eq!(a.get(ParamId(0)).expect("slot 0").sum(), 8.0);
        assert!(a.get(ParamId(1)).is_none());

        let mut b = GradStore::new(2);
        b.accumulate(ParamId(1), &Matrix::full(1, 1, 3.0));
        a.merge(&b);
        assert_eq!(a.get(ParamId(1)).expect("slot 1").sum(), 3.0);
    }

    #[test]
    fn clip_global_norm_rescales() {
        let mut g = GradStore::new(1);
        g.accumulate(ParamId(0), &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
        // Below the threshold nothing changes.
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((g.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn store_finiteness_check_catches_poisoned_params() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        store.register("b", Matrix::zeros(1, 2));
        assert!(store.all_finite());
        store.update(w, |m| m.set(1, 1, f32::NAN));
        assert!(!store.all_finite());
        store.update(w, |m| m.set(1, 1, f32::INFINITY));
        assert!(!store.all_finite());
    }

    #[test]
    fn scale_applies_everywhere() {
        let mut g = GradStore::new(2);
        g.accumulate(ParamId(0), &Matrix::ones(1, 3));
        g.accumulate(ParamId(1), &Matrix::full(1, 1, 2.0));
        g.scale(0.5);
        assert_eq!(g.get(ParamId(0)).expect("slot").sum(), 1.5);
        assert_eq!(g.get(ParamId(1)).expect("slot").sum(), 1.0);
        assert!(g.all_finite());
    }
}
