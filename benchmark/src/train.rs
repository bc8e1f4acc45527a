//! Training workloads: the Table III procedure (AM-DGCNN against the
//! edge-blind DGCNN control) on one dataset, then rounds of throughput and
//! inference-latency units until `--seconds` is used up. Traced runs add a
//! per-layer probe of the model's layers on one fixed minibatch and a
//! short deployment of the trained model.

use crate::load::{derive_seed, random_pairs};
use crate::metrics::Outcome;
use crate::serve::{deploy_check, ColdProbe, ServeSpec};
use crate::stats::{median, min, p50_and_tail};
use crate::trace::{durations_s, self_time_s};
use crate::Ctx;
use am_dgcnn::{
    predict_probs, CheckpointDir, DgcnnModel, Experiment, FeatureConfig, GnnKind, PreparedSample,
    SampleStore, Session, StoreKey, TrainConfig, Trainer,
};
use amdgcnn_data::{primekg_like, wn18_like, Dataset, LabeledLink, PrimeKgConfig, Wn18Config};
use amdgcnn_nn::{
    Activation, BlockDiagGraph, Conv1dLayer, GatConfig, GatConv, GcnConv, GraphLayer, MessageGraph,
    Mlp,
};
use amdgcnn_obs::{Obs, Report};
use amdgcnn_tensor::{Conv1dSpec, Matrix, ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which synthetic knowledge graph a workload runs on, with the config's
/// own seed: every run of a workload has the same graph, and the workload
/// seed picks everything else. The PrimeKG generator draws node degrees at
/// random, so its graphs differ in size from seed to seed (92.9k to 97.9k
/// edges over seeds 21-30), and the cost of k-hop extraction on them by a
/// share (IQR / median 0.08) that would take up most of a 0.1 bound.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    Wn18(Wn18Config),
    PrimeKg(PrimeKgConfig),
}

impl Data {
    pub fn generate(&self) -> Dataset {
        match self {
            Data::Wn18(cfg) => wn18_like(cfg),
            Data::PrimeKg(cfg) => primekg_like(cfg),
        }
    }
}

/// Size of a training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub data: Data,
    /// Epochs per model.
    pub epochs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Training samples the throughput units cover.
    pub rate_samples: usize,
    /// How the trained model is served in the traced deployment check,
    /// and the pairs of its uncached-scoring probe.
    pub serve: ServeSpec,
}

/// Rounds a run makes even when `--seconds` is used up before them.
const MIN_ROUNDS: usize = 3;
/// Minibatch the layer probe runs (the trainer's default batch size).
const PROBE_BATCH: usize = 16;

/// One set-up: the dataset, an AM-DGCNN session over a fresh sample store
/// (cold: k-hop, DRNL, tensorize, flush), then a DGCNN session over the
/// same store (warm: open and decode).
struct Built {
    ds: Dataset,
    am: Session,
    dgcnn: Session,
    store: PathBuf,
}

fn setup(ctx: &Ctx, spec: &TrainSpec, obs: &Obs, gen_s: &mut Vec<f64>) -> Result<Built, String> {
    let t = &ctx.tracer;
    let store = ctx.scratch.join(format!("samples-{}.amss", ctx.next_id()));
    let span = t.span("setup", None);
    let started = Instant::now();
    let gen_span = t.span("data.gen", span.id());
    let ds = spec.data.generate();
    gen_span.end();
    gen_s.push(started.elapsed().as_secs_f64());
    let session = |gnn: GnnKind, name: &'static str| {
        let _s = t.span(name, span.id());
        Experiment::builder()
            .gnn(gnn)
            .hyper(amdgcnn_bench::default_hyper())
            .seed(derive_seed(ctx.seed, 2))
            .sample_store(&store)
            .observe(obs.clone())
            .build()
            .session(&ds, None)
    };
    let am = session(GnnKind::am_dgcnn(), "session.am");
    let dgcnn = session(GnnKind::Gcn, "session.dgcnn");
    match (am, dgcnn) {
        (Ok(am), Ok(dgcnn)) => Ok(Built {
            ds,
            am,
            dgcnn,
            store,
        }),
        (am, dgcnn) => Err(format!(
            "session build failed: {:?} / {:?}",
            am.err(),
            dgcnn.err()
        )),
    }
}

pub fn run(ctx: &Ctx, spec: &TrainSpec) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let (built, secs) = ctx.pace.time(|| setup(ctx, spec, &ctx.obs, &mut gen_s));
    let Built {
        ds,
        mut am,
        mut dgcnn,
        store,
    } = match built {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    setups.push(secs);
    check_store_complete(&ds, &store, &mut out);

    let measure_start = Instant::now();
    let am_saves = table3_training(ctx, "am", &mut am, spec.epochs, &mut out);
    let dgcnn_saves = table3_training(ctx, "dgcnn", &mut dgcnn, spec.epochs, &mut out);
    let am_auc = am.evaluate().auc;
    let dgcnn_auc = dgcnn.evaluate().auc;
    println!("test AUC after the Table III epochs: AM-DGCNN {am_auc:.4}, DGCNN {dgcnn_auc:.4}");
    out.check(am_auc > dgcnn_auc, || {
        format!("AM-DGCNN test AUC {am_auc:.4} does not beat DGCNN's {dgcnn_auc:.4}")
    });

    // Rounds until `--seconds` is used up: the remaining set-ups, one
    // pass over each model's throughput units, and one per-link inference
    // pass. Each unit counts with the median of its scaled rounds (see
    // `pace`).
    let cfg = Experiment::builder()
        .hyper(amdgcnn_bench::default_hyper())
        .seed(derive_seed(ctx.seed, 2))
        .build()
        .train;
    let deadline = measure_start + Duration::from_secs_f64(ctx.seconds);
    let mut am_units = RateUnits::new(&am, spec.rate_samples, cfg);
    let mut dgcnn_units = RateUnits::new(&dgcnn, spec.rate_samples, cfg);
    let mut latency = vec![Vec::new(); am.test_samples.len()];
    let mut rounds = 0;
    // A round starts only if one as long as the last still ends in time.
    let mut last = Duration::ZERO;
    while rounds < MIN_ROUNDS || setups.len() < spec.setup_reps || Instant::now() + last < deadline
    {
        let started = Instant::now();
        if setups.len() < spec.setup_reps {
            let rep = ctx.peak.excluding(|| {
                let (rep, secs) = ctx
                    .pace
                    .time(|| setup(ctx, spec, &Obs::disabled(), &mut gen_s));
                rep.map(|rep| {
                    let _ = std::fs::remove_file(&rep.store);
                    secs
                })
            });
            match rep {
                Ok(t) => setups.push(t),
                Err(e) => {
                    out.check(false, || e);
                    return out;
                }
            }
        }
        am_units.round(ctx, &am);
        dgcnn_units.round(ctx, &dgcnn);
        inference_round(ctx, &am, &mut latency);
        rounds += 1;
        last = started.elapsed();
    }
    out.set("setup_s", median(&setups));
    out.set("data.gen_s", median(&gen_s));
    out.set("work_per_s", am_units.samples_per_s(&am, &am_saves));
    out.set(
        "control_work_per_s",
        dgcnn_units.samples_per_s(&dgcnn, &dgcnn_saves),
    );
    let (p50, tail) = p50_and_tail(latency.iter().map(|t| median(t)).collect());
    out.set("p50_ms", p50 * 1e3);
    out.set("tail_ms", tail * 1e3);

    if ctx.tracer.is_enabled() {
        out.set("train.am_test_auc", am_auc);
        out.set("train.dgcnn_test_auc", dgcnn_auc);
        per_layer(ctx, spec, &ds, &am, &store, &mut out);
    }
    let _ = std::fs::remove_file(&store);
    out
}

/// The DGCNN session must have opened warm: every link the AM-DGCNN
/// session prepared is in the store it flushed.
fn check_store_complete(ds: &Dataset, store: &Path, out: &mut Outcome) {
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    match SampleStore::open(store, StoreKey::for_dataset(ds, &fcfg, 0)) {
        Ok(s) => {
            let missing = ds
                .train
                .iter()
                .chain(&ds.test)
                .filter(|l| !s.contains(l))
                .count();
            out.check(missing == 0, || {
                format!("warm DGCNN session: {missing} samples missing from the store")
            });
        }
        Err(e) => out.check(false, || format!("sample store does not reopen: {e:?}")),
    }
}

/// Save a session's training state as a new checkpoint generation (two
/// kept), recording a `train.checkpoint` span. Returns the save's seconds
/// and the file size.
fn save_checkpoint(ctx: &Ctx, dir: &CheckpointDir, s: &Session) -> Result<(f64, u64), String> {
    let _span = ctx.tracer.span("train.checkpoint", None);
    let (saved, secs) = ctx
        .pace
        .time(|| dir.save(&s.trainer.snapshot(&s.ps), 2, None));
    let generation = saved.map_err(|e| format!("checkpoint save: {e:?}"))?;
    let bytes = std::fs::metadata(dir.generation_path(generation)).map_or(0, |m| m.len());
    Ok((secs, bytes))
}

/// The Table III procedure for one model: `epochs` calls of
/// `Trainer::train(.., 1)`, each followed by a checkpoint, and every
/// epoch's loss checked finite. Returns the saves' seconds.
fn table3_training(
    ctx: &Ctx,
    model: &str,
    s: &mut Session,
    epochs: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let t = &ctx.tracer;
    let dir = match CheckpointDir::create(ctx.scratch.join(format!("ckpt-{}", ctx.next_id()))) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("{model}: checkpoint dir: {e:?}"));
            return Vec::new();
        }
    };
    let span = t.span("train", None);
    let mut saves = Vec::new();
    for _ in 0..epochs {
        out.attempted += 1;
        let epoch = t.span("train.epoch", span.id());
        let trained = s.trainer.train(&s.model, &mut s.ps, &s.train_samples, 1);
        epoch.end();
        let saved = save_checkpoint(ctx, &dir, s);
        let failure = match (&trained, &saved) {
            (Err(e), _) => Some(format!("{e:?}")),
            (_, Err(e)) => Some(e.clone()),
            _ => None,
        };
        if let Some(e) = failure {
            out.failed += 1;
            out.check(false, || format!("{model}: epoch failed: {e}"));
            return Vec::new();
        }
        if let Ok((secs, bytes)) = saved {
            saves.push(secs);
            out.set("train.checkpoint.bytes", bytes as f64);
        }
    }
    span.end();
    for e in &s.trainer.history {
        if !e.loss.is_finite() || e.retries > 0 {
            out.failed += 1;
            out.check(false, || {
                format!(
                    "{model}: epoch {} loss {} after {} retries",
                    e.epoch, e.loss, e.retries
                )
            });
        }
    }
    let _ = std::fs::remove_dir_all(dir.path());
    saves
}

/// Training throughput units of one model: one training step each, a
/// one-epoch `Trainer::train` run over one minibatch of the first
/// `rate_samples` training samples, from the trained state with a fresh
/// trainer.
struct RateUnits {
    samples: usize,
    cfg: TrainConfig,
    /// Per-minibatch seconds of every round.
    times: Vec<Vec<f64>>,
}

impl RateUnits {
    fn new(s: &Session, rate_samples: usize, cfg: TrainConfig) -> Self {
        let samples = rate_samples.min(s.train_samples.len());
        Self {
            samples,
            cfg,
            times: vec![Vec::new(); samples.div_ceil(cfg.batch_size)],
        }
    }

    fn round(&mut self, ctx: &Ctx, s: &Session) {
        let span = ctx.tracer.span("train.rate_round", None);
        let batches = s.train_samples[..self.samples].chunks(self.cfg.batch_size);
        for (batch, t) in batches.zip(&mut self.times) {
            let mut trainer = Trainer::new(self.cfg);
            let mut ps = s.ps.clone();
            let (_, secs) = ctx
                .pace
                .time(|| black_box(trainer.train(&s.model, &mut ps, batch, 1)));
            t.push(secs);
        }
        span.end();
    }

    /// Training samples/s with one checkpoint save per epoch, as the
    /// Table III procedure does: the steps' median times add up to the
    /// epoch time of the timed samples, scaled to the whole split, and the
    /// median save is added.
    fn samples_per_s(&self, s: &Session, saves: &[f64]) -> f64 {
        let steps: f64 = self.times.iter().map(|t| median(t)).sum();
        let n = s.train_samples.len() as f64;
        let save_s = if saves.is_empty() {
            0.0
        } else {
            median(saves)
        };
        n / (steps / self.samples as f64 * n + save_s)
    }
}

/// One pass of per-link inference with the trained model: every test
/// sample scored alone (`predict_probs` on a one-sample slice).
fn inference_round(ctx: &Ctx, s: &Session, times: &mut [Vec<f64>]) {
    let _pass = ctx.tracer.span("infer.pass", None);
    for (sample, t) in s.test_samples.iter().zip(times) {
        let (_, secs) = ctx
            .pace
            .time(|| black_box(predict_probs(&s.model, &s.ps, std::slice::from_ref(sample))));
        t.push(secs);
    }
}

/// Per-layer numbers from the libraries' own spans and counters: sample
/// preparation (k-hop, DRNL, tensorize) and training steps.
pub fn library_layers(report: &Report, out: &mut Outcome) {
    let s = |name: &str| report.span(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    let khop = report.span("pipeline/sample/khop");
    out.set("graph.khop.busy_s", s("pipeline/sample/khop"));
    out.set("graph.khop.calls", khop.map_or(0.0, |k| k.count as f64));
    out.set(
        "graph.khop.mean_us",
        khop.map_or(0.0, |k| k.total_ns as f64 / k.count.max(1) as f64 * 1e-3),
    );
    out.set("graph.drnl.busy_s", s("pipeline/sample/drnl"));
    out.set("sample.tensorize.busy_s", s("pipeline/sample/tensorize"));
    let (fwd, bwd, opt) = (
        s("train/forward"),
        s("train/backward"),
        s("train/optimizer_step"),
    );
    out.set("train.forward.busy_s", fwd);
    out.set("train.backward.busy_s", bwd);
    out.set("train.optimizer.busy_s", opt);
    out.set(
        "train.epoch.self_s",
        (s("train/epoch") - fwd - bwd - opt).max(0.0),
    );
}

fn per_layer(
    ctx: &Ctx,
    spec: &TrainSpec,
    ds: &Dataset,
    am: &Session,
    store: &Path,
    out: &mut Outcome,
) {
    let report = ctx.obs.report();
    library_layers(&report, out);
    sample_sizes(&am.train_samples, out);
    out.set(
        "train.checkpoint.save_ms",
        median(&durations_s(&ctx.tracer.spans(), "train.checkpoint")) * 1e3,
    );
    eval_probe(ctx, am, out);

    let stored = |name: &str| report.span(name).map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    out.set("store.flush_s", stored("pipeline/prefetch/store_flush"));
    let hits = report.counter("pipeline/prefetch/store_hit").unwrap_or(0);
    let misses = report.counter("pipeline/prefetch/store_miss").unwrap_or(0);
    out.set("store.hits", hits as f64);
    out.set("store.misses", misses as f64);
    // The AM-DGCNN session prepared every sample once; the DGCNN session
    // must have read them all back.
    let samples = (ds.train.len() + ds.test.len()) as u64;
    out.check(hits == samples && misses == samples, || {
        format!("store hits {hits}, misses {misses}: the warm session missed")
    });
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let links: Vec<LabeledLink> = ds.train.iter().chain(&ds.test).copied().collect();
    let decoded = store_probe(ds, store, StoreKey::for_dataset(ds, &fcfg, 0), &links, out);
    out.check(decoded == links.len(), || {
        format!("store decoded {decoded} of {} samples", links.len())
    });

    nn_probe(
        &am.model,
        &am.ps,
        &am.train_samples[..PROBE_BATCH.min(am.train_samples.len())],
        out,
    );
    out.set("trace.overhead_frac", overhead_probe(am));

    // The cost of scoring links the model has never seen, and the model
    // deployed behind a batch server on a changing graph.
    let pairs = random_pairs(
        ds.graph.num_nodes() as u32,
        spec.serve.probe_pairs,
        derive_seed(ctx.seed, 3),
    );
    let mut cold = ColdProbe::new(ds, &pairs, 16);
    for _ in 0..3 {
        cold.round(&ctx.pace, am);
    }
    cold.set_miss_costs(out);
    deploy_check(ctx, ds, am, &spec.serve, out);
}

/// Five timed `Session::evaluate` passes, each a `train.eval` span; sets
/// their total self time and returns the test AUC.
pub fn eval_probe(ctx: &Ctx, s: &Session, out: &mut Outcome) -> f64 {
    let mut auc = 0.0;
    for _ in 0..5 {
        let _s = ctx.tracer.span("train.eval", None);
        auc = black_box(s.evaluate()).auc;
    }
    out.set(
        "train.eval.busy_s",
        self_time_s(&ctx.tracer.spans(), "train.eval"),
    );
    auc
}

/// Five checkpoint saves of a session's state (two kept).
pub fn checkpoint_probe(ctx: &Ctx, s: &Session, out: &mut Outcome) {
    let dir = match CheckpointDir::create(ctx.scratch.join(format!("ckpt-{}", ctx.next_id()))) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("checkpoint dir: {e:?}"));
            return;
        }
    };
    let mut saves = Vec::new();
    for _ in 0..5 {
        match save_checkpoint(ctx, &dir, s) {
            Ok((secs, bytes)) => {
                saves.push(secs);
                out.set("train.checkpoint.bytes", bytes as f64);
            }
            Err(e) => out.check(false, || e),
        }
    }
    if !saves.is_empty() {
        out.set("train.checkpoint.save_ms", median(&saves) * 1e3);
    }
    let _ = std::fs::remove_dir_all(dir.path());
}

pub fn sample_sizes(samples: &[PreparedSample], out: &mut Outcome) {
    let n = samples.len().max(1) as f64;
    out.set(
        "sample.nodes_mean",
        samples.iter().map(|s| s.num_nodes as f64).sum::<f64>() / n,
    );
    out.set(
        "sample.messages_mean",
        samples
            .iter()
            .map(|s| s.graph.num_messages() as f64)
            .sum::<f64>()
            / n,
    );
}

/// Reopen a flushed sample store and decode the samples of `links`, as a
/// warm session's set-up does. Sets the open and decode times and the
/// file size; returns how many samples decoded.
pub fn store_probe(
    ds: &Dataset,
    store: &Path,
    key: StoreKey,
    links: &[LabeledLink],
    out: &mut Outcome,
) -> usize {
    let started = Instant::now();
    let s = match SampleStore::open(store, key) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("sample store does not reopen: {e:?}"));
            return 0;
        }
    };
    out.set("store.open_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let decoded = links
        .iter()
        .filter(|l| black_box(s.get(ds, l)).is_some())
        .count();
    out.set("store.decode_s", started.elapsed().as_secs_f64());
    if let Ok(meta) = std::fs::metadata(store) {
        out.set("store.bytes", meta.len() as f64);
    }
    decoded
}

/// Time one minibatch through standalone layers of the model's shape:
/// pack, GAT (and GCN) stack forward, read-out, backward; and the
/// model's batched forward against a per-sample loop. Only timing matters
/// here, so the probe layers have fresh weights.
pub fn nn_probe(
    model: &DgcnnModel,
    model_ps: &ParamStore,
    batch: &[PreparedSample],
    out: &mut Outcome,
) {
    const REPS: usize = 15;
    let cfg = &model.cfg;
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0x9e0b);
    let mut gat: Vec<Box<dyn GraphLayer>> = Vec::new();
    let mut gcn: Vec<Box<dyn GraphLayer>> = Vec::new();
    let (mut gat_in, mut gcn_in) = (cfg.node_feat_dim, cfg.node_feat_dim);
    for i in 0..=cfg.num_layers {
        let (width, last) = if i < cfg.num_layers {
            (cfg.hidden_dim, false)
        } else {
            (1, true)
        };
        let gcfg = GatConfig {
            in_dim: gat_in,
            out_dim: width,
            edge_dim: cfg.edge_attr_dim,
            heads: 1,
            concat: !last,
            negative_slope: 0.2,
        };
        gat.push(Box::new(GatConv::new(
            &format!("gat{i}"),
            gcfg,
            &mut ps,
            &mut rng,
        )));
        gcn.push(Box::new(GcnConv::new(
            &format!("gcn{i}"),
            gcn_in,
            width,
            &mut ps,
            &mut rng,
        )));
        gat_in = gcfg.output_width();
        gcn_in = width;
    }
    let c_total = cfg.num_layers * cfg.hidden_dim + 1;
    let conv = |name: &str, spec: Conv1dSpec, ps: &mut ParamStore, rng: &mut StdRng| {
        Conv1dLayer::new(name, spec, ps, rng)
    };
    let conv1 = conv(
        "conv1",
        Conv1dSpec {
            in_channels: 1,
            out_channels: cfg.conv1_channels,
            kernel: c_total,
            stride: c_total,
        },
        &mut ps,
        &mut rng,
    );
    let pooled = cfg.sort_k / 2;
    let kernel2 = cfg.conv2_kernel.min(pooled);
    let conv2 = conv(
        "conv2",
        Conv1dSpec {
            in_channels: cfg.conv1_channels,
            out_channels: cfg.conv2_channels,
            kernel: kernel2,
            stride: 1,
        },
        &mut ps,
        &mut rng,
    );
    let flat = cfg.conv2_channels * (pooled - kernel2 + 1);
    let mlp = Mlp::new(
        "mlp",
        &[flat, cfg.dense_dim, cfg.num_classes],
        Activation::Relu,
        None,
        &mut ps,
        &mut rng,
    );

    let refs: Vec<&PreparedSample> = batch.iter().collect();
    let graphs: Vec<_> = refs.iter().map(|s| &s.graph).collect();
    let feats: Vec<&Matrix> = refs.iter().map(|s| &s.features).collect();
    let stack = |tape: &mut Tape, layers: &[Box<dyn GraphLayer>], g: &MessageGraph, x: Var| {
        let mut h = x;
        let mut outs = Vec::new();
        for l in layers {
            let z = l.forward(tape, &ps, g, h);
            h = tape.tanh(z);
            outs.push(h);
        }
        tape.concat_cols(&outs)
    };
    let (mut pack, mut gnn, mut gcn_fwd, mut readout, mut bwd) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut batched, mut per_sample) = (Vec::new(), Vec::new());
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for _ in 0..REPS {
        let started = Instant::now();
        let packed = black_box(BlockDiagGraph::pack(&graphs));
        pack.push(us(started.elapsed()));

        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::concat_rows(&feats));
        let started = Instant::now();
        let cat = stack(&mut tape, &gat, &packed.graph, x);
        gnn.push(us(started.elapsed()));

        let started = Instant::now();
        let logits: Vec<Var> = (0..refs.len())
            .map(|k| {
                let local = tape.gather_rows(cat, Arc::new(packed.node_range(k).collect()));
                let pooled_rows = tape.sort_pool(local, cfg.sort_k);
                let flat_in = tape.reshape(pooled_rows, 1, cfg.sort_k * c_total);
                let c1 = conv1.forward(&mut tape, &ps, flat_in);
                let c1 = tape.tanh(c1);
                let p1 = tape.max_pool1d(c1, 2);
                let c2 = conv2.forward(&mut tape, &ps, p1);
                let c2 = tape.tanh(c2);
                let (ch, len) = tape.shape(c2);
                let flat2 = tape.reshape(c2, 1, ch * len);
                mlp.forward(&mut tape, &ps, flat2, None)
            })
            .collect();
        readout.push(us(started.elapsed()));

        let started = Instant::now();
        let mut total = None;
        for (l, s) in logits.iter().zip(&refs) {
            let loss = tape.softmax_cross_entropy(*l, Arc::new(vec![s.label]));
            total = Some(total.map_or(loss, |t| tape.add(t, loss)));
        }
        let mean = tape.scale(total.expect("non-empty batch"), 1.0 / refs.len() as f32);
        black_box(tape.backward(mean, ps.len()));
        bwd.push(us(started.elapsed()));

        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::concat_rows(&feats));
        let started = Instant::now();
        black_box(stack(&mut tape, &gcn, &packed.graph, x));
        gcn_fwd.push(us(started.elapsed()));

        let started = Instant::now();
        let mut tape = Tape::new();
        black_box(model.forward_batched(&mut tape, model_ps, &refs, None));
        batched.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        for s in &refs {
            let mut tape = Tape::new();
            black_box(model.forward(&mut tape, model_ps, s, None));
        }
        per_sample.push(started.elapsed().as_secs_f64());
    }
    out.set("nn.pack_us", median(&pack));
    out.set("nn.gnn.fwd_us", median(&gnn));
    out.set("nn.gcn.fwd_us", median(&gcn_fwd));
    out.set("nn.readout.fwd_us", median(&readout));
    out.set("nn.bwd_us", median(&bwd));
    out.set(
        "nn.batched_over_per_sample",
        median(&per_sample) / median(&batched),
    );
}

/// Tracing overhead on one unit of this workload's work: an AM-DGCNN
/// epoch over the first 64 training samples, trained from the same state
/// with the library spans on and off, alternating. Returns
/// traced / untraced - 1 of the fastest runs.
fn overhead_probe(am: &Session) -> f64 {
    let subset = &am.train_samples[..64.min(am.train_samples.len())];
    let cfg = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(amdgcnn_bench::default_hyper())
        .build()
        .train;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..6 {
        let traced = i % 2 == 1;
        let obs = if traced {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let mut trainer = Trainer::new(cfg).with_obs(obs);
        let mut ps = am.ps.clone();
        let started = Instant::now();
        let _ = black_box(trainer.train(&am.model, &mut ps, subset, 1));
        let s = started.elapsed().as_secs_f64();
        if traced {
            on.push(s);
        } else {
            off.push(s);
        }
    }
    min(&on) / min(&off) - 1.0
}
