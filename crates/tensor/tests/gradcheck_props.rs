//! Property-based finite-difference validation of every autodiff op.
//!
//! Each test perturbs every parameter element and compares the central
//! difference of the scalar loss against the analytic gradient from the
//! tape. Ops with kinks (ReLU family, max pooling, sort pooling) are fed
//! inputs bounded away from their non-differentiable sets.

use amdgcnn_tensor::autograd::gradcheck::check_gradients;
use amdgcnn_tensor::{Conv1dSpec, Matrix, ParamStore, Tape, Var};
use proptest::prelude::*;
use std::sync::Arc;

const EPS: f32 = 1e-2;
const TOL: f32 = 4e-2;

/// Strategy: matrix with the given shape and values in [-1.5, 1.5].
fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Strategy: matrix whose elements stay away from zero (for kinked ops).
fn mat_away_from_zero(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.2f32..1.5, rows * cols).prop_flat_map(move |mags| {
        proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |signs| {
            let data = mags
                .iter()
                .zip(signs.iter())
                .map(|(&m, &s)| if s { m } else { -m })
                .collect();
            Matrix::from_vec(rows, cols, data)
        })
    })
}

/// Run a gradient check for a single-parameter loss.
fn check1(w: Matrix, build: impl Fn(&mut Tape, Var) -> Var) {
    let mut params = ParamStore::new();
    let id = params.register("w", w);
    let res = check_gradients(
        &params,
        |tape, ps| {
            let v = tape.param(id, ps.get(id).clone());
            build(tape, v)
        },
        EPS,
        TOL,
    );
    if let Err(e) = res {
        panic!("gradient mismatch: {e}");
    }
}

/// Run a gradient check for a two-parameter loss.
fn check2(a: Matrix, b: Matrix, build: impl Fn(&mut Tape, Var, Var) -> Var) {
    let mut params = ParamStore::new();
    let ia = params.register("a", a);
    let ib = params.register("b", b);
    let res = check_gradients(
        &params,
        |tape, ps| {
            let va = tape.param(ia, ps.get(ia).clone());
            let vb = tape.param(ib, ps.get(ib).clone());
            build(tape, va, vb)
        },
        EPS,
        TOL,
    );
    if let Err(e) = res {
        panic!("gradient mismatch: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_matmul(a in mat(3, 4), b in mat(4, 2)) {
        check2(a, b, |t, va, vb| {
            let y = t.matmul(va, vb);
            t.mean_all(y)
        });
    }

    #[test]
    fn grad_add_sub_mul(a in mat(3, 3), b in mat(3, 3)) {
        check2(a.clone(), b.clone(), |t, va, vb| {
            let s = t.add(va, vb);
            t.mean_all(s)
        });
        check2(a.clone(), b.clone(), |t, va, vb| {
            // A difference, composed from add and scale.
            let neg_b = t.scale(vb, -1.0);
            let s = t.add(va, neg_b);
            let sq = t.mul(s, s);
            t.mean_all(sq)
        });
        check2(a, b, |t, va, vb| {
            let s = t.mul(va, vb);
            t.mean_all(s)
        });
    }

    #[test]
    fn grad_row_broadcast(x in mat(4, 3), bias in mat(1, 3)) {
        check2(x, bias, |t, vx, vb| {
            let y = t.add_row_broadcast(vx, vb);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn grad_col_broadcast(x in mat(4, 3), col in mat(4, 1)) {
        check2(x, col, |t, vx, vc| {
            let y = t.mul_col_broadcast(vx, vc);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn grad_scale(x in mat(2, 5)) {
        check1(x, |t, v| {
            let y = t.scale(v, -2.5);
            let y2 = t.mul(y, y);
            t.mean_all(y2)
        });
    }

    #[test]
    fn grad_tanh_sigmoid(x in mat(3, 4)) {
        check1(x.clone(), |t, v| {
            let y = t.tanh(v);
            t.mean_all(y)
        });
        check1(x, |t, v| {
            let y = t.sigmoid(v);
            t.mean_all(y)
        });
    }

    #[test]
    fn grad_relu_family(x in mat_away_from_zero(3, 4)) {
        check1(x.clone(), |t, v| {
            let y = t.relu(v);
            t.mean_all(y)
        });
        check1(x, |t, v| {
            let y = t.leaky_relu(v, 0.2);
            t.mean_all(y)
        });
    }

    #[test]
    fn grad_softmax_rows(x in mat(3, 4)) {
        // Weighted sum of softmax outputs gives a non-trivial Jacobian path.
        check1(x, |t, v| {
            let s = t.softmax_rows(v);
            let w = t.leaf(Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) % 5) as f32 - 2.0));
            let p = t.mul(s, w);
            t.mean_all(p)
        });
    }

    #[test]
    fn grad_concat_cols(a in mat(3, 2), b in mat(3, 4)) {
        check2(a, b, |t, va, vb| {
            let c = t.concat_cols(&[va, vb]);
            let c2 = t.mul(c, c);
            t.mean_all(c2)
        });
    }

    #[test]
    fn grad_gather_scatter(x in mat(5, 3)) {
        let idx = Arc::new(vec![4usize, 0, 2, 2]);
        let idx2 = Arc::new(vec![1usize, 1, 0, 3]);
        check1(x, move |t, v| {
            let g = t.gather_rows(v, idx.clone());
            let s = t.scatter_add_rows(g, idx2.clone(), 4);
            let s2 = t.mul(s, s);
            t.mean_all(s2)
        });
    }

    #[test]
    fn grad_segment_softmax(x in mat(6, 1)) {
        let segs = Arc::new(vec![(0usize, 2usize), (2, 3), (3, 6)]);
        check1(x, move |t, v| {
            let s = t.segment_softmax(v, segs.clone());
            let w = t.leaf(Matrix::from_fn(6, 1, |r, _| (r as f32 - 2.5) * 0.8));
            let p = t.mul(s, w);
            t.mean_all(p)
        });
    }

    #[test]
    fn grad_reshape_dropout(x in mat(2, 6)) {
        check1(x.clone(), |t, v| {
            let r = t.reshape(v, 3, 4);
            let r2 = t.mul(r, r);
            t.mean_all(r2)
        });
        let mask: Arc<Vec<f32>> =
            Arc::new((0..12).map(|i| if i % 3 == 0 { 0.0 } else { 1.5 }).collect());
        check1(x, move |t, v| {
            let d = t.dropout(v, mask.clone());
            let d2 = t.mul(d, d);
            t.mean_all(d2)
        });
    }

    #[test]
    fn grad_cross_entropy(x in mat(3, 4)) {
        check1(x, |t, v| {
            t.softmax_cross_entropy(v, Arc::new(vec![1, 3, 0]))
        });
    }

    #[test]
    fn grad_conv1d(x in mat(2, 7), w in mat(3, 6), b in mat(3, 1)) {
        // Three-parameter check: fold bias into a second check pairing.
        let mut params = ParamStore::new();
        let ix = params.register("x", x);
        let iw = params.register("w", w);
        let ib = params.register("b", b);
        let spec = Conv1dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 2 };
        let res = check_gradients(
            &params,
            |tape, ps| {
                let vx = tape.param(ix, ps.get(ix).clone());
                let vw = tape.param(iw, ps.get(iw).clone());
                let vb = tape.param(ib, ps.get(ib).clone());
                let y = tape.conv1d(vx, vw, vb, spec);
                let y2 = tape.mul(y, y);
                tape.mean_all(y2)
            },
            EPS,
            TOL,
        );
        prop_assert!(res.is_ok(), "{res:?}");
    }
}

/// Max pooling with clearly separated values so the argmax is stable under
/// the finite-difference perturbation.
#[test]
fn grad_max_pool1d_stable_argmax() {
    let x = Matrix::from_vec(
        2,
        6,
        vec![5.0, 1.0, 2.0, 6.0, 9.0, 0.5, 1.0, 7.0, 3.0, 0.0, 2.0, 8.0],
    );
    check1(x, |t, v| {
        let p = t.max_pool1d(v, 2);
        let p2 = t.mul(p, p);
        t.mean_all(p2)
    });
}

/// Sort pooling with well-separated last-channel values so the ranking is
/// stable under perturbation.
#[test]
fn grad_sort_pool_stable_order() {
    let x = Matrix::from_vec(
        4,
        3,
        vec![0.3, 0.1, 4.0, -0.2, 0.5, 1.0, 0.7, -0.4, 3.0, 0.2, 0.9, 2.0],
    );
    // k < N exercises truncation; gradient flows only through kept rows.
    check1(x.clone(), |t, v| {
        let p = t.sort_pool(v, 3);
        let p2 = t.mul(p, p);
        t.mean_all(p2)
    });
    // k > N exercises zero padding.
    check1(x, |t, v| {
        let p = t.sort_pool(v, 6);
        let p2 = t.mul(p, p);
        t.mean_all(p2)
    });
}

/// A deep composite expression mixing many ops — exercises gradient
/// accumulation across fan-out and long chains at once.
#[test]
fn grad_deep_composite() {
    let w1 = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.13).sin());
    let w2 = Matrix::from_fn(4, 2, |r, c| ((r * 2 + c) as f32 * 0.29).cos() * 0.5);
    check2(w1, w2, |t, va, vb| {
        let x = t.leaf(Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.4 - 0.5));
        let h1 = t.matmul(x, va); // [2,4]
        let h1a = t.tanh(h1);
        let h2 = t.matmul(h1a, vb); // [2,2]
        let h2s = t.sigmoid(h2);
        let cat = t.concat_cols(&[h1a, h2s]); // [2,6]
        let ones = t.leaf(Matrix::ones(1, 2));
        let sum = t.matmul(ones, cat); // column sums, [1,6]
        let sq = t.mul(sum, sum);
        t.mean_all(sq)
    });
}
