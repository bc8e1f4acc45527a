//! Property-based validation of the sparse message-passing kernels
//! against references built another way on random graphs.
//!
//! The static g-SpMM runs the same loss through the kernel and through
//! independently gradcheck-verified ops (gather / broadcast / scatter),
//! comparing the forward value AND every parameter gradient to within
//! 1e-5. The fused GAT attention op's forward is compared with a plain
//! per-message gather, per-destination softmax and scatter; its gradients
//! are finite-difference checked in `gradcheck_props.rs`.

use amdgcnn_tensor::{CsrGraph, Matrix, ParamId, ParamStore, Tape, Var};
use proptest::prelude::*;
use std::sync::Arc;

const TOL: f32 = 1e-5;

/// Strategy: a random message graph over `n ∈ [2, 6)` nodes with up to 16
/// messages (duplicates, self-messages, and isolated nodes all arise), as
/// dst-sorted `(src, dst)` pairs ready for [`CsrGraph::from_messages`].
fn graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..6).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..16).prop_map(move |mut msgs| {
            msgs.sort_unstable_by_key(|&(s, d)| (d, s));
            (n, msgs)
        })
    })
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Run `build` (forward graph returning the pre-loss output) through a
/// fresh tape, reduce with mean-of-squares, and return the forward value
/// plus the gradient of every registered parameter.
fn run(params: &ParamStore, build: impl Fn(&mut Tape, &[Var]) -> Var) -> (Matrix, Vec<Matrix>) {
    let mut tape = Tape::new();
    let vars: Vec<Var> = (0..params.len())
        .map(|i| tape.param(ParamId(i), params.get(ParamId(i)).clone()))
        .collect();
    let y = build(&mut tape, &vars);
    let fwd = tape.value(y).clone();
    let sq = tape.mul(y, y);
    let loss = tape.mean_all(sq);
    let grads = tape.backward(loss, params.len());
    let grads = (0..params.len())
        .map(|i| {
            grads
                .get(ParamId(i))
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(0, 0))
        })
        .collect();
    (fwd, grads)
}

/// Assert that two (forward, gradients) pairs agree to `TOL` everywhere.
fn assert_close(a: &(Matrix, Vec<Matrix>), b: &(Matrix, Vec<Matrix>)) {
    assert!(
        max_abs_diff(&a.0, &b.0) <= TOL,
        "forward mismatch: {} > {TOL}",
        max_abs_diff(&a.0, &b.0)
    );
    assert_eq!(a.1.len(), b.1.len());
    for (i, (ga, gb)) in a.1.iter().zip(b.1.iter()).enumerate() {
        assert!(
            max_abs_diff(ga, gb) <= TOL,
            "grad {i} mismatch: {} > {TOL}",
            max_abs_diff(ga, gb)
        );
    }
}

fn indices(ids: &[u32]) -> Arc<Vec<usize>> {
    Arc::new(ids.iter().map(|&i| i as usize).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// g-SpMM with static weights: kernel vs the same reference with the
    /// weight column as a constant leaf (gradient flows to features only).
    #[test]
    fn gspmm_static_matches_gather_scatter((n, msgs) in graph(), feat in 1usize..4) {
        let g = Arc::new(CsrGraph::from_messages(n, &msgs));
        let src = indices(g.src_ids());
        let dst = indices(g.dst_ids());
        let m = g.num_messages();
        let w: Arc<Vec<f32>> = Arc::new((0..m).map(|r| ((r * 5 + 1) as f32 * 0.53).cos()).collect());
        let wmat = Matrix::from_vec(m, 1, w.as_ref().clone());

        let mut params = ParamStore::new();
        params.register("h", Matrix::from_fn(n, feat, |r, c| ((r * 7 + c * 3) as f32 * 0.37).sin()));

        let w2 = w.clone();
        let g2 = g.clone();
        let kernel = run(&params, move |t, vars| t.gspmm_static(g2.clone(), w2.clone(), vars[0]));
        let reference = run(&params, |t, vars| {
            let wl = t.leaf(wmat.clone());
            let gathered = t.gather_rows(vars[0], src.clone());
            let weighted = t.mul_col_broadcast(gathered, wl);
            t.scatter_add_rows(weighted, dst.clone(), n)
        });
        assert_close(&kernel, &reference);
    }

    /// Fused GAT attention vs a plain reference: per message the logit
    /// `a_dst·hw[dst] + a_src·hw[src] + a_e·e[m]` and its LeakyReLU, per
    /// destination the max-subtracted softmax over the messages gathered
    /// by destination, then the α-weighted `hw[src] + e[m]` scattered onto
    /// the destination. Destinations with no message stay zero.
    #[test]
    fn gat_attention_matches_gather_softmax_scatter(
        (n, msgs) in graph(),
        feat in 1usize..4,
        with_edge in proptest::bool::ANY,
        seed in 0u32..1000,
    ) {
        let g = Arc::new(CsrGraph::from_messages(n, &msgs));
        let m = g.num_messages();
        let val = |i: usize| ((i as f32 + seed as f32) * 0.731).sin() * 1.5;
        let hw = Matrix::from_fn(n, feat, |r, c| val(r * 7 + c * 3));
        let edge = Matrix::from_fn(m, feat, |r, c| val(r * 5 + c + 101));
        let width = if with_edge { 3 * feat } else { 2 * feat };
        let attn = Matrix::from_fn(width, 1, |r, _| val(r * 11 + 57));
        let slope = 0.2f32;

        let mut tape = Tape::new();
        let hv = tape.leaf(hw.clone());
        let ev = with_edge.then(|| tape.leaf(edge.clone()));
        let av = tape.leaf(attn.clone());
        let out = tape.gat_attention(g.clone(), hv, ev, av, slope);

        let a = attn.data();
        let dot = |row: &[f32], col: &[f32]| row.iter().zip(col).map(|(x, y)| x * y).sum::<f32>();
        let logit: Vec<f32> = (0..m)
            .map(|k| {
                let (s, d) = (g.src_ids()[k] as usize, g.dst_ids()[k] as usize);
                let mut z = dot(hw.row(d), &a[..feat]) + dot(hw.row(s), &a[feat..2 * feat]);
                if with_edge {
                    z += dot(edge.row(k), &a[2 * feat..]);
                }
                if z > 0.0 { z } else { slope * z }
            })
            .collect();
        let mut reference = Matrix::zeros(n, feat);
        for d in 0..n {
            let incoming: Vec<usize> = (0..m).filter(|&k| g.dst_ids()[k] as usize == d).collect();
            let top = incoming.iter().map(|&k| logit[k]).fold(f32::NEG_INFINITY, f32::max);
            let total: f32 = incoming.iter().map(|&k| (logit[k] - top).exp()).sum();
            for &k in &incoming {
                let alpha = (logit[k] - top).exp() / total;
                let s = g.src_ids()[k] as usize;
                for c in 0..feat {
                    let payload = hw.get(s, c) + if with_edge { edge.get(k, c) } else { 0.0 };
                    reference.set(d, c, reference.get(d, c) + alpha * payload);
                }
            }
        }
        prop_assert!(max_abs_diff(tape.value(out), &reference) <= TOL);
    }

    /// Forward values of g-SpMM also match the fully dense adjacency
    /// matmul (`to_dense_adj · h`), tying the sparse kernels to the
    /// textbook formulation they replace.
    #[test]
    fn gspmm_matches_dense_adjacency((n, msgs) in graph(), feat in 1usize..4) {
        let g = CsrGraph::from_messages(n, &msgs);
        let m = g.num_messages();
        let w: Vec<f32> = (0..m).map(|r| ((r * 5 + 1) as f32 * 0.53).cos()).collect();
        let h = Matrix::from_fn(n, feat, |r, c| ((r * 7 + c * 3) as f32 * 0.37).sin());
        let sparse = g.spmm_ew(&w, &h);
        let dense = amdgcnn_tensor::matmul::matmul(&g.to_dense_adj(&w), &h);
        prop_assert!(max_abs_diff(&sparse, &dense) <= TOL);
    }
}
