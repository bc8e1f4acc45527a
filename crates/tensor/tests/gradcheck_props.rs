//! Property-based finite-difference validation of every autodiff op.
//!
//! Each test perturbs every parameter element and compares the central
//! difference of the scalar loss against the analytic gradient from the
//! tape. Ops with kinks (ReLU family, max pooling, sort pooling) are fed
//! inputs bounded away from their non-differentiable sets.

use amdgcnn_tensor::autograd::gradcheck::check_gradients;
use amdgcnn_tensor::{Conv1dSpec, CsrGraph, Matrix, ParamStore, Tape, Var};
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

    /// Row-batched conv at conv1's read-out shape: one input channel,
    /// stride = kernel = the channel count (4), five positions.
    #[test]
    fn grad_conv1d_rows_conv1_shape_one_row(x in mat(1, 20), w in mat(3, 4), b in mat(3, 1)) {
        check_conv_rows(x, w, b, Conv1dSpec { in_channels: 1, out_channels: 3, kernel: 4, stride: 4 });
    }

    #[test]
    fn grad_conv1d_rows_conv1_shape_three_rows(x in mat(3, 20), w in mat(3, 4), b in mat(3, 1)) {
        check_conv_rows(x, w, b, Conv1dSpec { in_channels: 1, out_channels: 3, kernel: 4, stride: 4 });
    }

    /// Row-batched conv at conv2's read-out shape: 16 input channels,
    /// kernel 5, stride 1, length 7.
    #[test]
    fn grad_conv1d_rows_conv2_shape_one_row(x in mat(1, 16 * 7), w in mat(4, 16 * 5), b in mat(4, 1)) {
        check_conv_rows(x, w, b, Conv1dSpec { in_channels: 16, out_channels: 4, kernel: 5, stride: 1 });
    }

    #[test]
    fn grad_conv1d_rows_conv2_shape_three_rows(x in mat(3, 16 * 7), w in mat(4, 16 * 5), b in mat(4, 1)) {
        check_conv_rows(x, w, b, Conv1dSpec { in_channels: 16, out_channels: 4, kernel: 5, stride: 1 });
    }
}

/// Finite-difference check of [`Tape::conv1d_rows`] in input, weight and
/// bias, through a squared loss.
fn check_conv_rows(x: Matrix, w: Matrix, b: Matrix, spec: Conv1dSpec) {
    let mut params = ParamStore::new();
    let ix = params.register("x", x);
    let iw = params.register("w", w);
    let ib = params.register("b", b);
    let res = check_gradients(
        &params,
        |tape, ps| {
            let vx = tape.param(ix, ps.get(ix).clone());
            let vw = tape.param(iw, ps.get(iw).clone());
            let vb = tape.param(ib, ps.get(ib).clone());
            let y = tape.conv1d_rows(vx, vw, vb, spec);
            let y2 = tape.mul(y, y);
            tape.mean_all(y2)
        },
        EPS,
        TOL,
    );
    if let Err(e) = res {
        panic!("gradient mismatch: {e}");
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

/// Block sort pooling. Well-separated keys with an order-sensitive loss
/// check that each kept row lands in its slot, over a block shorter than
/// `k` (padding) and one longer (truncation). Tied last-channel keys,
/// broken by earlier channels, then check that each kept row's gradient
/// reaches its own source row once; a perturbation reorders tied rows, so
/// that loss is a sum of squares, which no reordering of kept rows moves.
#[test]
fn grad_sort_pool_blocks() {
    // Block 0 (rows 0..3) is padded to k = 4; block 1 (rows 3..8) drops
    // its lowest row.
    let blocks = [0..3, 3..8];
    let distinct = Matrix::from_vec(
        8,
        2,
        vec![
            0.3, 1.0, -0.6, 3.0, 0.8, 2.0, // block 0
            0.5, -2.0, -0.1, 4.0, 0.9, 1.0, 0.2, 2.5, -0.7, 0.0, // block 1
        ],
    );
    let slot_weights = Matrix::from_fn(2, 8, |r, c| ((r * 8 + c) as f32 * 0.7).sin());
    check1(distinct, move |t, v| {
        let p = t.sort_pool_blocks(v, &blocks, 4); // [2, 8]
        let sw = t.leaf(slot_weights.clone());
        let weighted = t.mul(p, sw);
        let a = t.tanh(weighted);
        let a2 = t.mul(a, a);
        t.mean_all(a2)
    });
    let tied = Matrix::from_vec(
        8,
        2,
        vec![
            0.9, 1.0, -0.4, 1.0, 0.6, 3.0, // block 0: rows 0 and 1 tie
            0.7, 2.0, -0.5, 2.0, 0.1, 2.0, 0.4, 4.0, -0.3, -1.0, // block 1: three-way tie
        ],
    );
    check1(tied, |t, v| {
        let p = t.sort_pool_blocks(v, &[0..3, 3..8], 4);
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

/// Messages of the attention checks, grouped by destination: a triangle
/// 0-1-2 in both directions with self-loops, and node 3 whose only
/// message is its self-loop.
const ATTN_MSGS: [(u32, u32); 10] = [
    (0, 0),
    (1, 0),
    (2, 0),
    (0, 1),
    (1, 1),
    (2, 1),
    (0, 2),
    (1, 2),
    (2, 2),
    (3, 3),
];

/// Pre-activation attention logits of `ATTN_MSGS`, computed directly.
fn attention_logits(hw: &Matrix, edge: Option<&Matrix>, attn: &Matrix) -> Vec<f32> {
    let f = hw.cols();
    let a = attn.data();
    let dot = |row: &[f32], col: &[f32]| row.iter().zip(col).map(|(x, y)| x * y).sum::<f32>();
    ATTN_MSGS
        .iter()
        .enumerate()
        .map(|(m, &(s, d))| {
            let z = dot(hw.row(d as usize), &a[..f]) + dot(hw.row(s as usize), &a[f..2 * f]);
            z + edge.map_or(0.0, |e| dot(e.row(m), &a[2 * f..]))
        })
        .collect()
}

/// Finite-difference check of one fused attention head over `ATTN_MSGS`
/// with `hw` and, when given, `edge` as parameters. The attention column
/// is a parameter too unless `attn_leaf`. The loss weighs each output
/// entry differently so no symmetry hides a wrong gradient.
fn check_attention(hw: Matrix, edge: Option<Matrix>, attn: Matrix, attn_leaf: bool) {
    let graph = Arc::new(CsrGraph::from_messages(4, &ATTN_MSGS));
    let f = hw.cols();
    let mut params = ParamStore::new();
    let ih = params.register("hw", hw);
    let ie = edge.map(|e| params.register("edge", e));
    let ia = (!attn_leaf).then(|| params.register("attn", attn.clone()));
    let res = check_gradients(
        &params,
        |tape, ps| {
            let h = tape.param(ih, ps.get(ih).clone());
            let e = ie.map(|id| tape.param(id, ps.get(id).clone()));
            let a = match ia {
                Some(id) => tape.param(id, ps.get(id).clone()),
                None => tape.leaf(attn.clone()),
            };
            let y = tape.gat_attention(graph.clone(), h, e, a, 0.2);
            let w = tape.leaf(Matrix::from_fn(4, f, |r, c| (r * 3 + c) as f32 * 0.3 - 1.1));
            let p = tape.mul(y, w);
            tape.mean_all(p)
        },
        EPS,
        TOL,
    );
    if let Err(e) = res {
        panic!("gradient mismatch: {e}");
    }
}

/// Logits at least `margin` from the LeakyReLU's kink, on both sides of
/// it, so a finite-difference step never crosses it.
fn both_sides(z: &[f32], margin: f32) -> bool {
    z.iter().all(|v| v.abs() >= margin) && z.iter().any(|&v| v > 0.0) && z.iter().any(|&v| v < 0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grad_gat_attention_without_edges_width_1(hw in mat(4, 1), attn in mat(2, 1)) {
        prop_assume!(both_sides(&attention_logits(&hw, None, &attn), 0.1));
        check_attention(hw, None, attn, false);
    }

    #[test]
    fn grad_gat_attention_without_edges_width_3(hw in mat(4, 3), attn in mat(6, 1)) {
        prop_assume!(both_sides(&attention_logits(&hw, None, &attn), 0.1));
        check_attention(hw, None, attn, false);
    }

    #[test]
    fn grad_gat_attention_with_edges_width_1(
        hw in mat(4, 1),
        edge in mat(10, 1),
        attn in mat(3, 1),
    ) {
        prop_assume!(both_sides(&attention_logits(&hw, Some(&edge), &attn), 0.1));
        check_attention(hw, Some(edge), attn, false);
    }

    #[test]
    fn grad_gat_attention_with_edges_width_3(
        hw in mat(4, 3),
        edge in mat(10, 3),
        attn in mat(9, 1),
    ) {
        prop_assume!(both_sides(&attention_logits(&hw, Some(&edge), &attn), 0.1));
        check_attention(hw, Some(edge), attn, false);
    }

    /// Logits in the thousands: `exp` overflows unless the softmax
    /// subtracts each destination's max first. The edge score dominates
    /// (`a_e = [1000, 0]` against spread first edge channels), so every
    /// destination's best logit is hundreds above the rest, the weights
    /// are one-hot and the gradient flows through the aggregation alone.
    /// The attention column is a constant here: a finite-difference step
    /// on an entry this large would move the logits by more than the gaps.
    #[test]
    fn grad_gat_attention_huge_logits(hw in mat(4, 2), edge_col in mat(10, 1), a in mat(4, 1)) {
        let spread = [0.9, -0.6, 0.3, -1.2, 1.5, -0.3, 0.6, -0.9, 1.2, 0.45];
        let edge = Matrix::from_fn(10, 2, |r, c| if c == 0 { spread[r] } else { edge_col.get(r, 0) });
        let attn = Matrix::from_fn(6, 1, |r, _| match r {
            0..4 => a.get(r, 0),
            4 => 1.0e3,
            _ => 0.0,
        });
        let z = attention_logits(&hw, Some(&edge), &attn);
        prop_assert!(both_sides(&z, 100.0));
        prop_assert!(z.iter().any(|v| v.abs() > 1.0e3), "exp would overflow unshifted");
        check_attention(hw, Some(edge), attn, true);
    }
}
