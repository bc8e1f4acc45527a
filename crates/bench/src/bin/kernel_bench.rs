//! Sparse-kernel training benchmark — PR 6's scoreboard.
//!
//! For each message-passing variant (vanilla-DGCNN GCN and the paper's
//! AM-DGCNN GAT) trains the same configuration three times with identical
//! seeds and bit-identical parameter initialization:
//!
//! 1. **batched** — [`DgcnnModel`]'s block-diagonal packed sparse
//!    forward: one g-SpMM/g-SDDMM pass per minibatch over the packed
//!    [`amdgcnn_nn::BlockDiagGraph`] CSR.
//! 2. **per_sample** — the same sparse kernels run sample by sample:
//!    a bench-local wrapper implements only
//!    [`LinkModel::forward_sample`], so the trainer's
//!    [`LinkModel::forward_batch`] falls back to the trait's default
//!    per-sample loop.
//! 3. **dense** — the dense per-sample formulation this PR replaced:
//!    for GCN the full normalized-adjacency matmul (`Â·(H·W)` with `Â`
//!    materialized `[N, N]`, multiplied through the dense reference GEMM
//!    `matmul_dense` so the baseline is charged the full `N²·F` cost —
//!    the production `matmul`'s zero-skip is itself a sparsity
//!    optimization and would hide most of the dense formulation's work),
//!    for GAT the per-edge gather/concat attention
//!    (`gather_rows` → `concat_cols` → `matmul` → `segment_softmax` →
//!    `mul_col_broadcast` → `scatter_add_rows`), each run sample by
//!    sample like **per_sample**. Parameters are registered through the
//!    very same constructor sequence as [`DgcnnModel::new`], so the
//!    initial weights match bit-for-bit; per-sample operands (dense
//!    `Â`, usize endpoint lists) are precomputed outside the measured
//!    span, exactly as the old `PreparedSample` precomputed them.
//!
//! The enclosing subgraphs are extracted **uncapped** (the dataset's
//! `max_nodes_per_hop` guard is lifted) so the bench exercises the
//! large-subgraph regime the sparse layer exists for; the per-sample
//! node/message averages are recorded in the output.
//!
//! Correctness gates, in order of strength:
//!
//! * **Forward bit-identity** — on identical initial weights, the batched
//!   packed forward must reproduce every per-sample sparse forward's
//!   logits bit-for-bit (same guarantee the serve path relies on), and
//!   the dense baselines must match to ≤1e-3 (dense matmul and CSR
//!   reduction sum in different orders).
//! * **Loss trajectory** — same seed, same data order. Epoch-1 losses
//!   must agree to ≤2e-3 and later epochs to ≤0.2; gradients are only
//!   tolerance-equal (the packed backward sums per-sample contributions
//!   in a different order), and SortPooling's discontinuous row
//!   selection amplifies 1-ulp weight drift across epochs, so exact
//!   trajectory equality is not expected. The observed maxima are
//!   recorded in the output.
//!
//! All runs are scored on the observability `train/forward` span. Writes
//! the result as JSON to `BENCH_pr6.json` (or the path in
//! `AMDGCNN_KERNEL_BENCH_OUT`), and exits non-zero if any gate fails or
//! the batched-sparse vs dense-GCN speedup falls below 3x.

use am_dgcnn::{
    prepare_batch, DgcnnModel, FeatureConfig, GnnKind, LinkModel, ModelConfig, PreparedSample,
    TrainConfig, Trainer,
};
use amdgcnn_data::{wn18_like, Wn18Config};
use amdgcnn_nn::{Activation, Conv1dLayer, GatConfig, GatConv, GcnConv, Mlp};
use amdgcnn_obs::Obs;
use amdgcnn_tensor::{Conv1dSpec, Matrix, ParamId, ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

const EPOCHS: usize = 3;
const SEED: u64 = 17;
/// Minimum batched-sparse vs dense-per-sample GCN forward speedup.
const MIN_DENSE_SPEEDUP: f64 = 3.0;

/// One dense-era GAT layer: the per-head parameter ids (resolved by name
/// from the shared [`ParamStore`]) plus the layer configuration.
struct DenseGat {
    cfg: GatConfig,
    /// `(weight, edge_weight, attn, bias)` per head.
    heads: Vec<(ParamId, Option<ParamId>, ParamId, ParamId)>,
}

/// The dense-era message-passing stack.
enum DenseStack {
    Gcn(Vec<GcnConv>),
    Gat(Vec<DenseGat>),
}

/// Per-sample operands the dense era precomputed in `PreparedSample`,
/// rebuilt once before training so none of this cost lands in the
/// measured forward span. Keyed by the sample's CSR allocation.
struct DenseOperands {
    /// Normalized adjacency `Â` materialized dense (GCN path).
    adj: Arc<Matrix>,
    /// Message source endpoints as usize (GAT path).
    src: Arc<Vec<usize>>,
    /// Message destination endpoints as usize (GAT path).
    dst: Arc<Vec<usize>>,
}

/// The pre-PR dense per-sample model: identical parameters and math to
/// [`DgcnnModel`], but message passing runs through the dense-era
/// formulation instead of the fused sparse kernels.
struct DenseBaseline {
    cfg: ModelConfig,
    stack: DenseStack,
    conv1: Conv1dLayer,
    conv2: Conv1dLayer,
    mlp: Mlp,
    operands: HashMap<usize, DenseOperands>,
}

fn pid(ps: &ParamStore, name: &str) -> ParamId {
    (0..ps.len())
        .map(ParamId)
        .find(|&id| ps.name(id) == name)
        .unwrap_or_else(|| panic!("param {name} not registered"))
}

fn operand_key(sample: &PreparedSample) -> usize {
    Arc::as_ptr(sample.graph.csr()) as usize
}

impl DenseBaseline {
    /// Register parameters through the exact constructor sequence of
    /// [`DgcnnModel::new`], so the same `rng` stream produces bit-identical
    /// initial weights, then precompute the dense per-sample operands.
    fn new(
        cfg: ModelConfig,
        ps: &mut ParamStore,
        rng: &mut StdRng,
        samples: &[PreparedSample],
    ) -> Self {
        let stack = match cfg.gnn {
            GnnKind::Gcn => {
                let mut layers = Vec::new();
                let mut in_dim = cfg.node_feat_dim;
                for i in 0..cfg.num_layers {
                    layers.push(GcnConv::new(
                        &format!("gcn{i}"),
                        in_dim,
                        cfg.hidden_dim,
                        ps,
                        rng,
                    ));
                    in_dim = cfg.hidden_dim;
                }
                layers.push(GcnConv::new("gcn_sort", in_dim, 1, ps, rng));
                DenseStack::Gcn(layers)
            }
            GnnKind::Gat { edge_attrs, heads } => {
                let edge_dim = if edge_attrs { cfg.edge_attr_dim } else { 0 };
                let mut specs: Vec<(String, GatConfig)> = Vec::new();
                let mut in_dim = cfg.node_feat_dim;
                for i in 0..cfg.num_layers {
                    let gcfg = GatConfig {
                        in_dim,
                        out_dim: cfg.hidden_dim,
                        edge_dim,
                        heads,
                        concat: true,
                        negative_slope: 0.2,
                    };
                    GatConv::new(&format!("gat{i}"), gcfg, ps, rng);
                    specs.push((format!("gat{i}"), gcfg));
                    in_dim = gcfg.output_width();
                }
                let sort_cfg = GatConfig {
                    in_dim,
                    out_dim: 1,
                    edge_dim,
                    heads,
                    concat: false,
                    negative_slope: 0.2,
                };
                GatConv::new("gat_sort", sort_cfg, ps, rng);
                specs.push(("gat_sort".into(), sort_cfg));
                let gats = specs
                    .into_iter()
                    .map(|(name, gcfg)| {
                        let heads = (0..gcfg.heads)
                            .map(|h| {
                                (
                                    pid(ps, &format!("{name}.h{h}.weight")),
                                    (gcfg.edge_dim > 0)
                                        .then(|| pid(ps, &format!("{name}.h{h}.edge_weight"))),
                                    pid(ps, &format!("{name}.h{h}.attn")),
                                    pid(ps, &format!("{name}.h{h}.bias")),
                                )
                            })
                            .collect();
                        DenseGat { cfg: gcfg, heads }
                    })
                    .collect();
                DenseStack::Gat(gats)
            }
            other => panic!("DenseBaseline does not model {other:?}"),
        };

        let c_total = cfg.total_channels();
        let conv1 = Conv1dLayer::new(
            "conv1",
            Conv1dSpec {
                in_channels: 1,
                out_channels: cfg.conv1_channels,
                kernel: c_total,
                stride: c_total,
            },
            ps,
            rng,
        );
        let pooled_len = cfg.sort_k / 2;
        let kernel2 = cfg.conv2_kernel.min(pooled_len);
        let conv2 = Conv1dLayer::new(
            "conv2",
            Conv1dSpec {
                in_channels: cfg.conv1_channels,
                out_channels: cfg.conv2_channels,
                kernel: kernel2,
                stride: 1,
            },
            ps,
            rng,
        );
        let conv2_out_len = pooled_len - kernel2 + 1;
        let flat = cfg.conv2_channels * conv2_out_len;
        let mlp = Mlp::new(
            "classifier",
            &[flat, cfg.dense_dim, cfg.num_classes],
            Activation::Relu,
            Some(cfg.dropout),
            ps,
            rng,
        );

        let operands = samples
            .iter()
            .map(|s| {
                let g = &s.graph;
                let csr = g.csr();
                let data = DenseOperands {
                    adj: Arc::new(csr.to_dense_adj(&g.gcn_weights())),
                    src: Arc::new(csr.src_ids().iter().map(|&i| i as usize).collect()),
                    dst: Arc::new(csr.dst_ids().iter().map(|&i| i as usize).collect()),
                };
                (operand_key(s), data)
            })
            .collect();

        Self {
            cfg,
            stack,
            conv1,
            conv2,
            mlp,
            operands,
        }
    }

    /// The seed-era dense GAT forward: per head, gather both endpoints of
    /// every message, concatenate with the transformed edge attribute,
    /// score with the attention vector, softmax per destination segment,
    /// then aggregate `α·(W·h_j + W_e·x_ij)` with a scatter-add.
    #[allow(clippy::too_many_arguments)]
    fn gat_forward(
        layer: &DenseGat,
        tape: &mut Tape,
        ps: &ParamStore,
        ops: &DenseOperands,
        segments: &Arc<Vec<(usize, usize)>>,
        num_nodes: usize,
        h: Var,
        edge_attr: Option<Var>,
    ) -> Var {
        let mut head_outputs = Vec::with_capacity(layer.heads.len());
        for &(weight, edge_weight, attn, bias) in &layer.heads {
            let w = tape.param(weight, ps.get(weight).clone());
            let hw = tape.matmul(h, w); // [N, out]
            let src_f = tape.gather_rows(hw, ops.src.clone()); // [M, out]
            let dst_f = tape.gather_rows(hw, ops.dst.clone()); // [M, out]

            let (cat, edge_term) = match (edge_weight, edge_attr) {
                (Some(we), Some(ea)) => {
                    let wev = tape.param(we, ps.get(we).clone());
                    let eat = tape.matmul(ea, wev); // [M, out]
                    (tape.concat_cols(&[dst_f, src_f, eat]), Some(eat))
                }
                _ => (tape.concat_cols(&[dst_f, src_f]), None),
            };
            let a = tape.param(attn, ps.get(attn).clone());
            let logits = tape.matmul(cat, a); // [M, 1]
            let logits = tape.leaky_relu(logits, layer.cfg.negative_slope);
            let alpha = tape.segment_softmax(logits, segments.clone());
            let value = match edge_term {
                Some(eat) => tape.add(src_f, eat),
                None => src_f,
            };
            let weighted = tape.mul_col_broadcast(value, alpha); // [M, out]
            let agg = tape.scatter_add_rows(weighted, ops.dst.clone(), num_nodes);
            let b = tape.param(bias, ps.get(bias).clone());
            head_outputs.push(tape.add_row_broadcast(agg, b));
        }

        if layer.cfg.concat || head_outputs.len() == 1 {
            if head_outputs.len() == 1 {
                head_outputs[0]
            } else {
                tape.concat_cols(&head_outputs)
            }
        } else {
            let mut acc = head_outputs[0];
            for &o in &head_outputs[1..] {
                acc = tape.add(acc, o);
            }
            tape.scale(acc, 1.0 / head_outputs.len() as f32)
        }
    }
}

impl LinkModel for DenseBaseline {
    fn forward_sample(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        sample: &PreparedSample,
        dropout_rng: Option<&mut StdRng>,
    ) -> Var {
        let g = &sample.graph;
        let n = g.num_nodes();
        let ops = self
            .operands
            .get(&operand_key(sample))
            .expect("sample was not precomputed for the dense baseline");

        let x = tape.leaf(sample.features.clone());
        let mut outputs: Vec<Var> = Vec::new();
        let mut h = x;
        match &self.stack {
            DenseStack::Gcn(layers) => {
                // `Â·(H·W) + b` with the full dense adjacency, through the
                // dense reference GEMM: the production `matmul` skips
                // zero entries (a sparsity optimization of its own), which
                // would let the "dense" baseline ride the ~92% zeros of
                // `Â` and under-report the dense formulation's true cost.
                let adj = tape.shared_leaf(ops.adj.clone());
                for layer in layers {
                    let w = tape.param(layer.weight, ps.get(layer.weight).clone());
                    let hw = tape.matmul(h, w);
                    let agg = tape.matmul_dense(adj, hw);
                    let b = tape.param(layer.bias, ps.get(layer.bias).clone());
                    let z = tape.add_row_broadcast(agg, b);
                    h = tape.tanh(z);
                    outputs.push(h);
                }
            }
            DenseStack::Gat(layers) => {
                let segments = g.segments();
                let ea = g.edge_attrs().map(|m| tape.shared_leaf(m.clone()));
                for layer in layers {
                    let z = Self::gat_forward(layer, tape, ps, ops, &segments, n, h, ea);
                    h = tape.tanh(z);
                    outputs.push(h);
                }
            }
        }

        let cat = if outputs.len() == 1 {
            outputs[0]
        } else {
            tape.concat_cols(&outputs)
        };
        let c_total = self.cfg.total_channels();
        let pooled = tape.sort_pool(cat, self.cfg.sort_k);
        let flat = tape.reshape(pooled, 1, self.cfg.sort_k * c_total);
        let c1 = self.conv1.forward(tape, ps, flat);
        let c1 = tape.tanh(c1);
        let p1 = tape.max_pool1d(c1, 2);
        let c2 = self.conv2.forward(tape, ps, p1);
        let c2 = tape.tanh(c2);
        let (ch, len) = tape.shape(c2);
        let flat2 = tape.reshape(c2, 1, ch * len);
        self.mlp.forward(tape, ps, flat2, dropout_rng)
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }
}

/// [`DgcnnModel`] forwarded one sample at a time: only
/// [`LinkModel::forward_sample`] is implemented, so
/// [`LinkModel::forward_batch`] is the trait's per-sample default.
struct PerSample(DgcnnModel);

impl LinkModel for PerSample {
    fn forward_sample(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        sample: &PreparedSample,
        dropout_rng: Option<&mut StdRng>,
    ) -> Var {
        self.0.forward_sample(tape, ps, sample, dropout_rng)
    }

    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }
}

struct RunResult {
    losses: Vec<f32>,
    forward_ns: u64,
    epoch_ns: u64,
}

fn run_with<M: LinkModel>(
    samples: &[PreparedSample],
    build: impl FnOnce(&mut ParamStore, &mut StdRng) -> M,
) -> RunResult {
    let obs = Obs::enabled();
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = build(&mut ps, &mut rng);
    let mut trainer = Trainer::new(TrainConfig {
        lr: 5e-3,
        seed: SEED,
        ..Default::default()
    })
    .with_obs(obs.clone());
    trainer
        .train(&model, &mut ps, samples, EPOCHS)
        .expect("train");
    let report = obs.report();
    let span_ns = |name: &str| report.span(name).map(|s| s.total_ns).unwrap_or(0);
    RunResult {
        losses: trainer.history.iter().map(|e| e.loss).collect(),
        forward_ns: span_ns("train/forward"),
        epoch_ns: span_ns("train/epoch"),
    }
}

struct VariantResult {
    name: &'static str,
    batched: RunResult,
    per_sample: RunResult,
    dense: RunResult,
    dense_speedup: f64,
    sparse_speedup: f64,
    batched_forward_bit_identical: bool,
    dense_forward_max_diff: f32,
    sparse_divergence: f32,
    dense_divergence: f32,
    ok: bool,
}

/// On freshly built, bit-identical initial weights: the batched packed
/// forward must reproduce the per-sample sparse logits bit-for-bit, and
/// the dense baseline must match to `1e-3`. Checked on the first 16
/// samples (one training minibatch).
fn forward_identity(samples: &[PreparedSample], cfg: &ModelConfig) -> (bool, f32) {
    let n = samples.len().min(16);
    let refs: Vec<&PreparedSample> = samples.iter().take(n).collect();

    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let sparse = DgcnnModel::new(cfg.clone(), &mut ps, &mut rng);
    let mut dense_ps = ParamStore::new();
    let mut dense_rng = StdRng::seed_from_u64(0);
    let dense = DenseBaseline::new(cfg.clone(), &mut dense_ps, &mut dense_rng, samples);

    let per_sample: Vec<Matrix> = refs
        .iter()
        .map(|s| {
            let mut tape = Tape::new();
            let out = sparse.forward_sample(&mut tape, &ps, s, None);
            tape.value(out).clone()
        })
        .collect();

    let mut tape = Tape::new();
    let batched = sparse.forward_batch(&mut tape, &ps, &refs, None);
    let bit_identical = batched
        .iter()
        .zip(&per_sample)
        .all(|(&v, expect)| tape.value(v).data() == expect.data());

    let mut dense_max = 0.0f32;
    for (s, expect) in refs.iter().zip(&per_sample) {
        let mut tape = Tape::new();
        let out = dense.forward_sample(&mut tape, &dense_ps, s, None);
        for (a, b) in tape.value(out).data().iter().zip(expect.data()) {
            dense_max = dense_max.max((a - b).abs());
        }
    }
    (bit_identical, dense_max)
}

fn bench_variant(
    name: &'static str,
    samples: &[PreparedSample],
    cfg: &ModelConfig,
) -> VariantResult {
    let (batched_forward_bit_identical, dense_forward_max_diff) = forward_identity(samples, cfg);

    let batched = run_with(samples, |ps, rng| DgcnnModel::new(cfg.clone(), ps, rng));
    let per_sample = run_with(samples, |ps, rng| {
        PerSample(DgcnnModel::new(cfg.clone(), ps, rng))
    });
    let dense = run_with(samples, |ps, rng| {
        DenseBaseline::new(cfg.clone(), ps, rng, samples)
    });

    let mut ok = true;
    if !batched_forward_bit_identical {
        eprintln!("FAIL[{name}]: batched forward is not bit-identical to per-sample");
        ok = false;
    }
    if dense_forward_max_diff >= 1e-3 {
        eprintln!(
            "FAIL[{name}]: dense-baseline forward diverges from sparse: max diff {dense_forward_max_diff:e}"
        );
        ok = false;
    }

    // Loss trajectories: epoch 1 tight, later epochs within the
    // documented amplification bound (see module docs).
    let mut check = |label: &str, other: &RunResult| -> f32 {
        let mut max_div = 0.0f32;
        for (i, (b, o)) in batched.losses.iter().zip(&other.losses).enumerate() {
            let div = (b - o).abs();
            max_div = max_div.max(div);
            let bound = if i == 0 { 2e-3 } else { 0.2 };
            if div >= bound {
                eprintln!(
                    "FAIL[{name}]: epoch {} {label} loss diverges: {} vs {} (bound {bound})",
                    i + 1,
                    b,
                    o
                );
                ok = false;
            }
        }
        max_div
    };
    let sparse_divergence = check("per-sample", &per_sample);
    let dense_divergence = check("dense-baseline", &dense);

    let dense_speedup = dense.forward_ns as f64 / batched.forward_ns.max(1) as f64;
    let sparse_speedup = per_sample.forward_ns as f64 / batched.forward_ns.max(1) as f64;
    eprintln!(
        "[{name}] train/forward: batched sparse {:.1} ms vs per-sample sparse {:.1} ms ({:.2}x) vs dense per-sample {:.1} ms ({:.2}x); forward bit-identical: {}, dense forward max diff {:.1e}",
        batched.forward_ns as f64 / 1e6,
        per_sample.forward_ns as f64 / 1e6,
        sparse_speedup,
        dense.forward_ns as f64 / 1e6,
        dense_speedup,
        batched_forward_bit_identical,
        dense_forward_max_diff,
    );

    VariantResult {
        name,
        batched,
        per_sample,
        dense,
        dense_speedup,
        sparse_speedup,
        batched_forward_bit_identical,
        dense_forward_max_diff,
        sparse_divergence,
        dense_divergence,
        ok,
    }
}

fn variant_json(v: &VariantResult) -> String {
    let run = |r: &RunResult| {
        format!(
            "{{ \"train_forward_ns\": {}, \"train_epoch_ns\": {}, \"losses\": {:?} }}",
            r.forward_ns, r.epoch_ns, r.losses
        )
    };
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"batched\": {},\n",
            "    \"per_sample\": {},\n",
            "    \"dense_baseline\": {},\n",
            "    \"forward_speedup_vs_dense\": {:.3},\n",
            "    \"forward_speedup_vs_per_sample_sparse\": {:.3},\n",
            "    \"batched_forward_bit_identical\": {},\n",
            "    \"dense_forward_max_abs_diff\": {:e},\n",
            "    \"max_sparse_loss_divergence\": {:e},\n",
            "    \"max_dense_loss_divergence\": {:e},\n",
            "    \"pass\": {}\n",
            "  }}"
        ),
        v.name,
        run(&v.batched),
        run(&v.per_sample),
        run(&v.dense),
        v.dense_speedup,
        v.sparse_speedup,
        v.batched_forward_bit_identical,
        v.dense_forward_max_diff,
        v.sparse_divergence,
        v.dense_divergence,
        v.ok
    )
}

fn main() {
    // Keep the packed-minibatch working set warm across steps; applies to
    // the whole process, so all three measured paths share it.
    am_dgcnn::runtime::tune_allocator_for_batching();

    // Dense enough that 2-hop enclosing subgraphs carry real message
    // traffic, and extracted uncapped — the large-subgraph regime the
    // sparse kernel layer is built for (dense `Â` is `[N, N]` here).
    let mut ds = wn18_like(&Wn18Config {
        num_nodes: 400,
        num_edges: 6400,
        train_links: 64,
        test_links: 16,
        ..Wn18Config::default()
    });
    ds.subgraph.max_nodes_per_hop = None;
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let samples = prepare_batch(&ds, &ds.train, &fcfg);
    let total_nodes: usize = samples.iter().map(|s| s.num_nodes).sum();
    let total_msgs: usize = samples.iter().map(|s| s.graph.num_messages()).sum();
    eprintln!(
        "kernel_bench: {} samples ({:.1} nodes, {:.1} messages avg), {} epochs",
        samples.len(),
        total_nodes as f64 / samples.len() as f64,
        total_msgs as f64 / samples.len() as f64,
        EPOCHS,
    );

    let gcn_cfg = ModelConfig::dgcnn_defaults(
        GnnKind::Gcn,
        fcfg.dim(),
        ds.edge_attrs.dim(),
        ds.num_classes,
    );
    let gat_cfg = ModelConfig::dgcnn_defaults(
        GnnKind::am_dgcnn(),
        fcfg.dim(),
        ds.edge_attrs.dim(),
        ds.num_classes,
    );

    let gcn = bench_variant("gcn", &samples, &gcn_cfg);
    let gat = bench_variant("gat", &samples, &gat_cfg);

    let mut ok = gcn.ok && gat.ok;
    if gcn.dense_speedup < MIN_DENSE_SPEEDUP {
        eprintln!(
            "FAIL: batched sparse vs dense-adjacency GCN speedup {:.2}x below {MIN_DENSE_SPEEDUP}x",
            gcn.dense_speedup
        );
        ok = false;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kernel_bench\",\n",
            "  \"samples\": {},\n",
            "  \"avg_nodes\": {:.1},\n",
            "  \"avg_messages\": {:.1},\n",
            "  \"epochs\": {},\n",
            "  \"seed\": {},\n",
            "{},\n",
            "{},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        samples.len(),
        total_nodes as f64 / samples.len() as f64,
        total_msgs as f64 / samples.len() as f64,
        EPOCHS,
        SEED,
        variant_json(&gcn),
        variant_json(&gat),
        ok
    );
    let out = std::env::var("AMDGCNN_KERNEL_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr6.json".into());
    let mut f = std::fs::File::create(&out).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    eprintln!("wrote {out}");

    if !ok {
        std::process::exit(1);
    }
}
