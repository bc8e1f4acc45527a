//! `GatConv` against a copy of the attention chain the fused op replaced.
//!
//! Each attention head used to record up to twelve tape ops: the row gathers
//! of the attention vector `a`, the `[·, F]·[F, 1]` score products, the
//! g-SDDMM add of the logit, LeakyReLU, the segment softmax, the g-SpMM
//! `spmm_ew` of α against `W·h` and the edge aggregation of α against
//! `W_e·x`. `oracle_layer` keeps that chain, forward and backward, with
//! every backward rule accumulating in the order the tape did. The layer,
//! now one `gat_attention` op per head, must give the same output bits and
//! parameter gradients equal under f32 `==` (so `+0` and `-0` are equal),
//! on each generator's `tiny()` subgraphs as 16-sample packs and alone,
//! and on small built graphs with isolated nodes and huge logits.

// The oracle keeps the earlier kernels' loops over message ids.
#![allow(clippy::needless_range_loop)]

use am_dgcnn::sample::prepare_batch;
use am_dgcnn::FeatureConfig;
use amdgcnn_data::{
    biokg_like, cora_like, primekg_like, wn18_like, BioKgConfig, CoraConfig, Dataset,
    PrimeKgConfig, Wn18Config,
};
use amdgcnn_nn::{BlockDiagGraph, GatConfig, GatConv, GraphLayer, MessageGraph};
use amdgcnn_tensor::matmul::{matmul, matmul_nt, matmul_tn};
use amdgcnn_tensor::{CsrGraph, Matrix, ParamId, ParamStore, Tape};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// One head's parameters, looked up by the names `GatConv` registers.
struct Head {
    w: ParamId,
    we: Option<ParamId>,
    a: ParamId,
    b: ParamId,
}

fn param(ps: &ParamStore, name: &str) -> Option<ParamId> {
    ps.iter().map(|(id, _)| id).find(|&id| ps.name(id) == name)
}

fn heads(ps: &ParamStore, layer: &str, count: usize) -> Vec<Head> {
    (0..count)
        .map(|h| {
            let p = |suffix: &str| param(ps, &format!("{layer}.h{h}.{suffix}"));
            Head {
                w: p("weight").expect("weight"),
                we: p("edge_weight"),
                a: p("attn").expect("attn"),
                b: p("bias").expect("bias"),
            }
        })
        .collect()
}

/// The earlier shared softmax slice: max-subtracted, uniform fallback.
fn oracle_softmax(slice: &mut [f32]) {
    if slice.is_empty() {
        return;
    }
    let m = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    if m.is_finite() {
        for v in slice.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
    }
    if z > 0.0 && z.is_finite() {
        for v in slice.iter_mut() {
            *v /= z;
        }
    } else {
        let uniform = 1.0 / slice.len() as f32;
        slice.fill(uniform);
    }
}

/// `(start, end)` message range per destination.
fn segments(g: &CsrGraph) -> Vec<(usize, usize)> {
    let mut start = 0;
    (0..g.num_nodes())
        .map(|d| {
            let seg = (start, start + g.in_degree(d));
            start = seg.1;
            seg
        })
        .collect()
}

/// Rows `range` of a column, as the earlier `gather_rows` of `a` did.
fn rows(a: &Matrix, range: std::ops::Range<usize>) -> Matrix {
    a.gather_rows(&range.collect::<Vec<_>>())
}

/// `Σ a[i]·b[i]`: the earlier g-SDDMM dot.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// What one head's forward kept for its backward.
struct HeadTrace {
    hw: Matrix,
    eat: Option<Matrix>,
    z: Vec<f32>,
    alpha: Vec<f32>,
}

/// One head of the earlier chain: output `[N, F]` (bias included) and
/// its trace.
fn oracle_head(
    ps: &ParamStore,
    head: &Head,
    g: &CsrGraph,
    h: &Matrix,
    ea: Option<&Matrix>,
    slope: f32,
) -> (Matrix, HeadTrace) {
    let f = ps.get(head.w).cols();
    let a = ps.get(head.a);
    let hw = matmul(h, ps.get(head.w));
    let s_dst = matmul(&hw, &rows(a, 0..f));
    let s_src = matmul(&hw, &rows(a, f..2 * f));
    let (s_edge, eat) = match (head.we, ea) {
        (Some(we), Some(ea)) => {
            let eat = matmul(ea, ps.get(we));
            (Some(matmul(&eat, &rows(a, 2 * f..3 * f))), Some(eat))
        }
        _ => (None, None),
    };
    let (src, dst) = (g.src_ids(), g.dst_ids());
    let z: Vec<f32> = (0..g.num_messages())
        .map(|m| {
            let mut v = s_dst.data()[dst[m] as usize] + s_src.data()[src[m] as usize];
            if let Some(e) = &s_edge {
                v += e.data()[m];
            }
            v
        })
        .collect();
    let mut alpha: Vec<f32> = z
        .iter()
        .map(|&e| if e > 0.0 { e } else { slope * e })
        .collect();
    for (lo, hi) in segments(g) {
        oracle_softmax(&mut alpha[lo..hi]);
    }
    let mut out = g.spmm_ew(&alpha, &hw);
    if let Some(eat) = &eat {
        let mut ea_agg = Matrix::zeros(g.num_nodes(), f);
        for (d, (lo, hi)) in segments(g).into_iter().enumerate() {
            for m in lo..hi {
                for (o, &x) in ea_agg.row_mut(d).iter_mut().zip(eat.row(m)) {
                    *o += alpha[m] * x;
                }
            }
        }
        out = out.add(&ea_agg);
    }
    let out = out.add_row_broadcast(ps.get(head.b));
    (out, HeadTrace { hw, eat, z, alpha })
}

/// Gradient slots of the oracle, keyed by parameter.
fn add_grad(grads: &mut [Option<Matrix>], id: ParamId, delta: Matrix) {
    match &mut grads[id.0] {
        Some(g) => g.add_assign(&delta),
        slot => *slot = Some(delta),
    }
}

/// One head's backward rules, in the tape's reverse order, from the
/// gradient `g` of its output. Returns the gradient of the head's input.
#[allow(clippy::too_many_arguments)]
fn oracle_head_backward(
    ps: &ParamStore,
    head: &Head,
    graph: &CsrGraph,
    h: &Matrix,
    ea: Option<&Matrix>,
    slope: f32,
    t: &HeadTrace,
    g: &Matrix,
    grads: &mut [Option<Matrix>],
) -> Matrix {
    let f = g.cols();
    let n = graph.num_nodes();
    let m_total = graph.num_messages();
    let (src, dst) = (graph.src_ids(), graph.dst_ids());
    let a = ps.get(head.a);
    add_grad(grads, head.b, g.sum_rows());
    // Edge aggregation (the later op) first, then the g-SpMM.
    let mut d_alpha = vec![0.0f32; m_total];
    let mut d_eat = None;
    if let Some(eat) = &t.eat {
        for (m, da) in d_alpha.iter_mut().enumerate() {
            *da = dot(g.row(dst[m] as usize), eat.row(m));
        }
        let mut expand = Matrix::zeros(m_total, f);
        for m in 0..m_total {
            for (o, &gv) in expand.row_mut(m).iter_mut().zip(g.row(dst[m] as usize)) {
                *o = t.alpha[m] * gv;
            }
        }
        d_eat = Some(expand);
    }
    for (m, da) in d_alpha.iter_mut().enumerate() {
        let term = dot(g.row(dst[m] as usize), t.hw.row(src[m] as usize));
        *da = if t.eat.is_some() { *da + term } else { term };
    }
    let mut d_hw = graph.spmm_ew_t(&t.alpha, g);
    // Segment softmax, then LeakyReLU.
    let mut dz = vec![0.0f32; m_total];
    for (lo, hi) in segments(graph) {
        let mut s = 0.0f32;
        for r in lo..hi {
            s += t.alpha[r] * d_alpha[r];
        }
        for r in lo..hi {
            dz[r] = t.alpha[r] * (d_alpha[r] - s);
        }
    }
    for (d, &z) in dz.iter_mut().zip(&t.z) {
        if z <= 0.0 {
            *d *= slope;
        }
    }
    // g-SDDMM add: scatter onto sources and destinations.
    let mut ds_src = Matrix::zeros(n, 1);
    let mut ds_dst = Matrix::zeros(n, 1);
    for m in 0..m_total {
        ds_src.data_mut()[src[m] as usize] += dz[m];
        ds_dst.data_mut()[dst[m] as usize] += dz[m];
    }
    let dz = Matrix::from_vec(m_total, 1, dz);
    let mut d_a: Option<Matrix> = None;
    let mut add_a = |piece: Matrix, at: usize| {
        let idx: Vec<usize> = (at..at + f).collect();
        let full = piece.scatter_add_rows(&idx, a.rows());
        match &mut d_a {
            Some(acc) => acc.add_assign(&full),
            slot => *slot = Some(full),
        }
    };
    // s_edge = eat · a_e, then eat = ea · W_e.
    if let (Some(eat), Some(mut d_eat), Some(we), Some(ea)) = (&t.eat, d_eat, head.we, ea) {
        d_eat.add_assign(&matmul_nt(&dz, &rows(a, 2 * f..3 * f)));
        add_a(matmul_tn(eat, &dz), 2 * f);
        add_grad(grads, we, matmul_tn(ea, &d_eat));
    }
    // s_src, then s_dst.
    d_hw.add_assign(&matmul_nt(&ds_src, &rows(a, f..2 * f)));
    add_a(matmul_tn(&t.hw, &ds_src), f);
    d_hw.add_assign(&matmul_nt(&ds_dst, &rows(a, 0..f)));
    add_a(matmul_tn(&t.hw, &ds_dst), 0);
    add_grad(grads, head.a, d_a.expect("attention gradient"));
    // hw = h · W.
    add_grad(grads, head.w, matmul_tn(h, &d_hw));
    matmul_nt(&d_hw, ps.get(head.w))
}

/// The earlier layer: every head, then concatenation or the average.
/// Returns the output, and the parameter gradients of `mean(out ⊙ r)`
/// with the layer input `h` as parameter `input`.
fn oracle_layer(
    ps: &ParamStore,
    cfg: &GatConfig,
    graph: &MessageGraph,
    input: ParamId,
    r: &Matrix,
) -> (Matrix, Vec<Option<Matrix>>) {
    let hs = heads(ps, "g", cfg.heads);
    let h = ps.get(input);
    let ea = (cfg.edge_dim > 0).then(|| graph.edge_attrs().expect("edge attrs").as_ref());
    let csr = graph.csr();
    let slope = cfg.negative_slope;
    let runs: Vec<(Matrix, HeadTrace)> = hs
        .iter()
        .map(|head| oracle_head(ps, head, csr, h, ea, slope))
        .collect();
    let outs: Vec<&Matrix> = runs.iter().map(|(o, _)| o).collect();
    let out = if cfg.concat || hs.len() == 1 {
        Matrix::concat_cols(&outs)
    } else {
        let mut acc = outs[0].clone();
        for o in &outs[1..] {
            acc = acc.add(o);
        }
        acc.scale(1.0 / outs.len() as f32)
    };
    // mean_all then the product with r.
    let (rr, rc) = out.shape();
    let g_out = Matrix::full(rr, rc, 1.0 / (rr * rc) as f32).hadamard(r);
    let f = cfg.out_dim;
    let mut grads: Vec<Option<Matrix>> = vec![None; ps.len()];
    for (k, (head, (_, trace))) in hs.iter().zip(&runs).enumerate().rev() {
        let g = if cfg.concat || hs.len() == 1 {
            Matrix::from_fn(rr, f, |i, j| g_out.get(i, k * f + j))
        } else {
            g_out.scale(1.0 / hs.len() as f32)
        };
        let dh = oracle_head_backward(ps, head, csr, h, ea, slope, trace, &g, &mut grads);
        add_grad(&mut grads, input, dh);
    }
    (out, grads)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Run `GatConv` and the oracle on one graph and compare.
fn check(what: &str, graph: &MessageGraph, features: &Matrix, cfg: GatConfig, scale_attn: f32) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3101);
    let layer = GatConv::new("g", cfg, &mut ps, &mut rng);
    for h in 0..cfg.heads {
        let a = param(&ps, &format!("g.h{h}.attn")).expect("attn");
        ps.update(a, |m| m.scale_inplace(scale_attn));
    }
    let input = ps.register("input", features.clone());
    let width = cfg.output_width();
    let r = Matrix::from_fn(features.rows(), width, |_, _| {
        rng.random_range(-1.0f32..1.0)
    });

    let mut tape = Tape::new();
    let h = tape.param(input, ps.get(input).clone());
    let out = layer.forward(&mut tape, &ps, graph, h);
    let rv = tape.leaf(r.clone());
    let p = tape.mul(out, rv);
    let loss = tape.mean_all(p);
    let grads = tape.backward(loss, ps.len());

    let (expect, expect_grads) = oracle_layer(&ps, &cfg, graph, input, &r);
    assert!(expect.all_finite(), "{what}: oracle output not finite");
    assert_eq!(bits(tape.value(out)), bits(&expect), "{what}: output bits");
    for (id, _) in ps.iter() {
        let got = grads.get(id).map(|g| g.data().to_vec());
        let want = expect_grads[id.0].as_ref().map(|g| g.data().to_vec());
        assert_eq!(got, want, "{what}: gradient of {}", ps.name(id));
    }
}

/// Width 32 and 1; one head, two heads concatenated, two averaged.
fn configs(in_dim: usize, edge_dim: usize) -> Vec<GatConfig> {
    let mut out = Vec::new();
    for out_dim in [32, 1] {
        for (heads, concat) in [(1, true), (1, false), (2, true), (2, false)] {
            out.push(GatConfig {
                in_dim,
                out_dim,
                edge_dim,
                heads,
                concat,
                negative_slope: 0.2,
            });
        }
    }
    out
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("wn18", wn18_like(&Wn18Config::tiny())),
        ("primekg", primekg_like(&PrimeKgConfig::tiny())),
        ("biokg", biokg_like(&BioKgConfig::tiny())),
        ("cora", cora_like(&CoraConfig::tiny())),
    ]
}

/// Each generator's subgraphs, packed 16 at a time and alone; Cora runs
/// without edge attributes.
#[test]
fn gat_layer_matches_the_unfused_chain_on_tiny_subgraphs() {
    for (name, ds) in datasets() {
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let samples = prepare_batch(&ds, &ds.train[..16], &fcfg);
        let graphs: Vec<&MessageGraph> = samples.iter().map(|s| &s.graph).collect();
        let packed = BlockDiagGraph::pack(&graphs);
        let feats: Vec<&Matrix> = samples.iter().map(|s| &s.features).collect();
        let packed_feats = Matrix::concat_rows(&feats);
        for cfg in configs(fcfg.dim(), ds.edge_attrs.dim()) {
            let tag = format!(
                "{name} F={} heads={} concat={}",
                cfg.out_dim, cfg.heads, cfg.concat
            );
            check(
                &format!("{tag} pack"),
                &packed.graph,
                &packed_feats,
                cfg,
                1.0,
            );
            for (i, s) in samples.iter().take(3).enumerate() {
                check(
                    &format!("{tag} sample {i}"),
                    &s.graph,
                    &s.features,
                    cfg,
                    1.0,
                );
            }
        }
    }
}

/// A built graph where three of six nodes are isolated (their only
/// message is the self-loop), with dense features, at ordinary attention
/// scales and with the attention vector scaled to give logits in the
/// thousands, where only the max-subtracted softmax stays finite.
#[test]
fn gat_layer_matches_the_unfused_chain_on_isolated_nodes_and_huge_logits() {
    let mut rng = StdRng::seed_from_u64(3102);
    let attrs = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5]);
    let edges = [(0, 1, 0), (1, 2, 1), (0, 2, 2)];
    let features = Matrix::from_fn(6, 4, |_, _| rng.random_range(-2.0f32..2.0));
    for edge_dim in [2, 0] {
        let graph = MessageGraph::from_typed(6, &edges, Some(&attrs));
        for cfg in configs(4, edge_dim) {
            for scale in [1.0, 3.0e3] {
                let what = format!(
                    "built edge_dim={edge_dim} F={} heads={} concat={} scale={scale}",
                    cfg.out_dim, cfg.heads, cfg.concat
                );
                check(&what, &graph, &features, cfg, scale);
            }
        }
    }
}
