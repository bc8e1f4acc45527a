//! Tape-based reverse-mode automatic differentiation.
//!
//! One [`Tape`] records one forward pass, usually a whole minibatch's;
//! [`Tape::backward`] produces parameter gradients in a
//! [`crate::param::GradStore`]. Tapes are single-threaded and own all their
//! state, so independent tapes (inference micro-batches) can run on rayon
//! workers with no shared mutable state.

mod backward;
pub mod gradcheck;
mod op;
mod tape;

pub use op::{Conv1dSpec, Op, Var};
pub use tape::Tape;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::param::ParamStore;
    use std::sync::Arc;

    /// End-to-end: d/dw of mean((w·x + b)²) with hand-computed values.
    #[test]
    fn linear_quadratic_exact_gradient() {
        let mut params = ParamStore::new();
        let w = params.register("w", Matrix::from_vec(1, 1, vec![3.0]));
        let b = params.register("b", Matrix::from_vec(1, 1, vec![1.0]));

        let mut tape = Tape::new();
        let wv = tape.param(w, params.get(w).clone());
        let bv = tape.param(b, params.get(b).clone());
        let x = tape.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let wx = tape.mul(wv, x);
        let y = tape.add(wx, bv); // y = 3*2 + 1 = 7
        let y2 = tape.mul(y, y); // 49
        let loss = tape.mean_all(y2);
        assert_eq!(tape.value(loss).get(0, 0), 49.0);

        let grads = tape.backward(loss, params.len());
        // dL/dw = 2*y*x = 2*7*2 = 28 ; dL/db = 2*y = 14.
        assert!((grads.get(w).expect("w grad").get(0, 0) - 28.0).abs() < 1e-4);
        assert!((grads.get(b).expect("b grad").get(0, 0) - 14.0).abs() < 1e-4);
    }

    /// Gradient flows through a diamond (value used twice) and sums.
    #[test]
    fn diamond_reuse_accumulates() {
        let mut params = ParamStore::new();
        let w = params.register("w", Matrix::from_vec(1, 1, vec![5.0]));
        let mut tape = Tape::new();
        let wv = tape.param(w, params.get(w).clone());
        let a = tape.scale(wv, 2.0);
        let b = tape.scale(wv, 3.0);
        let s = tape.add(a, b); // 5w
        let loss = tape.mean_all(s);
        let grads = tape.backward(loss, 1);
        assert!((grads.get(crate::param::ParamId(0)).expect("grad").get(0, 0) - 5.0).abs() < 1e-5);
    }

    /// Cross-entropy + softmax gradient: probs - onehot.
    #[test]
    fn cross_entropy_gradient_shape_and_value() {
        let mut params = ParamStore::new();
        let w = params.register("logits", Matrix::from_vec(1, 3, vec![1.0, 0.0, -1.0]));
        let mut tape = Tape::new();
        let l = tape.param(w, params.get(w).clone());
        let loss = tape.softmax_cross_entropy(l, Arc::new(vec![0]));
        let grads = tape.backward(loss, 1);
        let g = grads.get(crate::param::ParamId(0)).expect("grad");
        let probs = Matrix::from_vec(1, 3, vec![1.0, 0.0, -1.0]).softmax_rows();
        assert!((g.get(0, 0) - (probs.get(0, 0) - 1.0)).abs() < 1e-5);
        assert!((g.get(0, 1) - probs.get(0, 1)).abs() < 1e-5);
        assert!((g.get(0, 2) - probs.get(0, 2)).abs() < 1e-5);
        // Gradient of softmax CE sums to zero across classes.
        assert!(g.sum().abs() < 1e-5);
    }

    /// Rows that tie on every channel keep index order: with one slot left,
    /// the lower row is kept and receives the gradient, in every block.
    #[test]
    fn sort_pool_ties_route_gradient_to_the_lower_row() {
        let mut params = ParamStore::new();
        let x = params.register("x", Matrix::col_vector(&[0.0, 2.0, 2.0, 1.0, 1.0]));
        let mut tape = Tape::new();
        let xv = tape.param(x, params.get(x).clone());
        let p = tape.sort_pool_blocks(xv, &[0..3, 3..5], 1);
        assert_eq!(tape.value(p).data(), &[2.0, 1.0]);
        let loss = tape.mean_all(p);
        let grads = tape.backward(loss, params.len());
        let g = grads.get(x).expect("grad");
        assert_eq!(g.data(), &[0.0, 0.5, 0.0, 0.5, 0.0]);
    }

    /// Unused parameters get no gradient entry.
    #[test]
    fn unused_param_has_no_grad() {
        let mut params = ParamStore::new();
        let used = params.register("used", Matrix::ones(1, 1));
        let unused = params.register("unused", Matrix::ones(1, 1));
        let mut tape = Tape::new();
        let u = tape.param(used, params.get(used).clone());
        let loss = tape.mean_all(u);
        let grads = tape.backward(loss, params.len());
        assert!(grads.get(used).is_some());
        assert!(grads.get(unused).is_none());
    }
}
