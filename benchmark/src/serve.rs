//! Serving workloads: an open loop of Zipf-skewed link queries with
//! Poisson arrivals against one `BatchServer` at the nominal rate,
//! optionally with a writer that, while a phase runs, commits graph
//! mutations and rolls the server onto each new generation. Between the
//! open-loop phases run the probes of the same model and graph that give
//! the end-to-end numbers: a closed-loop capacity replay of the workload's
//! traffic (its queries and, on a mutating workload, its graph rolls)
//! through a private server, and uncached scoring of new pairs, in batches
//! and one at a time. Traced runs add a phase at the peak rate and the
//! `max_qps` search.
//!
//! The open loop's own latencies are per-layer numbers. At light load they
//! are mostly the server's 2 ms batching window plus the time the
//! hypervisor takes to wake an idle vCPU, and on the shared calibrating
//! machine that moved the median by half between runs minutes apart. The
//! probes repeat fixed work and count the median of its repeats, each
//! scaled by `pace`.
//! Every answer the open loop keeps is still checked, in every run.

use crate::load::{
    derive_seed, max_qps_search, mutation_stream, poisson_schedule, probe_passes, random_pairs,
    replay_closed_loop, run_phase, Completion, Frontend, PhaseResult, Zipf,
};
use crate::metrics::Outcome;
use crate::pace::Pace;
use crate::stats::{
    hist_quantile_ms, mean, median, min, p50_and_tail, percentile, sorted, windowed_percentile,
};
use crate::train::{
    checkpoint_probe, eval_probe, library_layers, nn_probe, sample_sizes, store_probe, Data,
};
use crate::Ctx;
use am_dgcnn::{
    predict_probs, prepare_batch_obs, Experiment, FeatureConfig, GnnKind, PreparedSample,
    SampleStore, Session, StoreKey,
};
use amdgcnn_data::{Dataset, LabeledLink};
use amdgcnn_graph::{AffectedRegion, GraphMutation, MutableGraph};
use amdgcnn_obs::{Obs, Report};
use amdgcnn_serve::{
    save_model, ArtifactMeta, BatchConfig, BatchServer, ClassProbs, Error, GraphStore,
    InferenceEngine, LinkQuery,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Size and rates of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub data: Data,
    /// Open-loop rates (queries/s) of the nominal and peak phases; the
    /// `max_qps` search starts at `peak`.
    pub nominal: f64,
    pub peak: f64,
    /// Latency limit of the `max_qps` search, on a probe's windowed p99.
    pub limit_s: f64,
    /// Distinct node pairs the Zipf(1) query stream draws from.
    pub pairs: usize,
    /// Engine cache capacity (entries).
    pub cache: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Training links of the one-epoch set-up training.
    pub train_links: usize,
    /// Pairs of the uncached-scoring probes.
    pub probe_pairs: usize,
    /// Graph commits per second while an open-loop phase runs (0 for a
    /// read-only workload) and edge additions per commit.
    pub commit_hz: f64,
    pub ops_per_commit: usize,
}

impl ServeSpec {
    /// The shape with a writer rolling the graph, for the probes that add
    /// rolls to a workload. A read-only shape gets `PROBE_COMMIT_HZ` and
    /// half its rates: on PrimeKG a roll drops about 90% of the cache, and
    /// with 10 Hz rolls `max_qps` is about 1000 q/s against about 2200 q/s
    /// read-only.
    fn rolling(&self) -> ServeSpec {
        if self.commit_hz > 0.0 {
            return *self;
        }
        ServeSpec {
            nominal: self.nominal / 2.0,
            peak: self.peak / 2.0,
            commit_hz: PROBE_COMMIT_HZ,
            ..*self
        }
    }
}

/// How long each open-loop phase lasts, as shares of `--seconds`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// At the nominal rate, long enough to fill the engine's cache.
    warmup: f64,
    /// Cycles of the between-cycles work and one nominal phase: at least
    /// `min_cycles` (for a serving run, one per set-up), and more until
    /// `--seconds` is used up when `fill`.
    min_cycles: usize,
    fill: bool,
    nominal: f64,
    /// Traced runs only: one phase at the peak rate, and the length of one
    /// `max_qps` probe (0 skips the search).
    peak: f64,
    probe: f64,
}

/// The measured serving run: a warm-up, then cycles until `--seconds` is
/// used up, each the set-ups still to do, the capacity and
/// uncached-scoring rounds, and a short open-loop phase.
const RUN: Plan = Plan {
    warmup: 0.04,
    min_cycles: 1,
    fill: true,
    nominal: 0.01,
    peak: 0.16,
    probe: 0.075,
};
/// A trained model's deployment check in traced training runs: one short
/// cycle with the writer, and a short phase at the peak rate.
const DEPLOY: Plan = Plan {
    warmup: 0.04,
    min_cycles: 1,
    fill: false,
    nominal: 0.05,
    peak: 0.04,
    probe: 0.0,
};
/// Commit rate and length (share of `--seconds`) of the roll probe that
/// traced runs without live writes end with.
const PROBE_COMMIT_HZ: f64 = 10.0;
const ROLL_PROBE: f64 = 0.05;
/// Answers per window of the open-loop p99s, leaving ten answers beyond
/// each window's p99.
const P99_WINDOW: usize = 1000;
/// Every `CHECK_EVERY`-th query of every phase and capacity replay is
/// checked against a cold engine on the generation that answered it.
const CHECK_EVERY: usize = 16;
/// Mismatches reported in full; the rest are counted.
const MISMATCHES_SHOWN: usize = 5;
/// Pairs per chunk of the uncached-scoring probe (1 for the single-query
/// latency probe).
const COLD_CHUNK: usize = 16;
/// Queries that fill the capacity template's cache (4000 Zipf draws hold
/// about 1200 distinct pairs, more than the cache keeps), and the number
/// and length of the capacity-replay lists.
const CAPACITY_FILL: usize = 4000;
const CAPACITY_LISTS: usize = 2;
const CAPACITY_QUERIES: usize = 1024;
/// Graph rolls in each capacity replay of a mutating workload: one commit
/// per 342 queries, near the workload's one per 440 at the nominal rate.
const CAPACITY_ROLLS: usize = 2;

pub fn run(ctx: &Ctx, spec: &ServeSpec) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // The engines count into one registry, so hit rates and stale serves
    // add up across graph generations.
    let serve_obs = Obs::enabled();
    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let span = ctx.tracer.span("setup", None);
    let (built, secs) = ctx
        .pace
        .time(|| setup(ctx, spec, &ctx.obs, &serve_obs, span.id(), &mut gen_s));
    span.end();
    let (ds, session, artifact, server) = match built {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    setups.push(secs);

    let pairs = random_pairs(
        ds.graph.num_nodes() as u32,
        spec.pairs,
        derive_seed(ctx.seed, 3),
    );
    let probe_pairs = &pairs[..spec.probe_pairs];
    let mut cold = ColdProbe::new(&ds, probe_pairs, COLD_CHUNK);
    let mut single = ColdProbe::new(&ds, probe_pairs, 1);
    let queries = Queries::new(pairs, ctx.seed);
    let fill = queries.stratified(CAPACITY_FILL);
    let lists = (0..CAPACITY_LISTS)
        .map(|_| queries.stratified(CAPACITY_QUERIES))
        .collect();
    let capacity = Capacity::new(ctx, &artifact, &ds, spec, &fill, lists);
    let writes = spec.commit_hz > 0.0 || ctx.tracer.is_enabled();
    let tier = Tier::new(ctx, &ds, artifact, server, spec, serve_obs, writes);
    let (mut capacity, tier) = match (capacity, tier) {
        (Ok(c), Ok(t)) => (c, t),
        (Err(e), _) | (_, Err(e)) => {
            out.check(false, || e);
            return out;
        }
    };

    // Between cycles, while no query is in flight: the remaining
    // set-ups, one capacity replay and one round of each uncached-scoring
    // probe.
    let mut capacity_error = None;
    let mut between = || {
        if setups.len() < spec.setup_reps {
            let secs = ctx.peak.excluding(|| {
                let span = ctx.tracer.span("setup", None);
                let (rep, secs) = ctx.pace.time(|| {
                    setup(
                        ctx,
                        spec,
                        &Obs::disabled(),
                        &Obs::disabled(),
                        span.id(),
                        &mut gen_s,
                    )
                });
                drop(rep);
                secs
            });
            setups.push(secs);
        }
        let span = ctx.tracer.span("capacity", None);
        if let Err(e) = capacity.replay_all(&ctx.pace) {
            capacity_error.get_or_insert(e);
        }
        span.end();
        cold.round(&ctx.pace, &session);
        single.round(&ctx.pace, &session);
    };
    let plan = Plan {
        min_cycles: spec.setup_reps,
        ..RUN
    };
    let observed = drive(ctx, &tier, &queries, spec, plan, deadline, &mut between);
    let roll_probe = if ctx.tracer.is_enabled() && spec.commit_hz == 0.0 {
        let span = Duration::from_secs_f64(ctx.seconds * ROLL_PROBE);
        let rolling = spec.rolling();
        tier.phase_with_writer(
            ctx,
            &queries,
            rolling.nominal,
            rolling.commit_hz,
            span,
            "phase.roll_probe",
        )
        .map(Some)
    } else {
        Ok(None)
    };
    let (observed, roll_probe) = match (observed, roll_probe) {
        (Ok(o), Ok(r)) => (o, r),
        (Err(e), _) | (_, Err(e)) => {
            out.check(false, || e);
            return out;
        }
    };
    out.set("setup_s", median(&setups));
    out.set("data.gen_s", median(&gen_s));
    let (sent, failed) = fixed_rate_counts(&observed);
    out.attempted = (sent + capacity.sent) as u64;
    out.failed = (failed + capacity.failed) as u64;
    out.check(capacity.failed == 0 && capacity_error.is_none(), || {
        format!(
            "{} capacity-replay queries failed ({:?})",
            capacity.failed, capacity_error
        )
    });
    capacity.answers.report("capacity replay", &mut out);
    if capacity.times.iter().any(Vec::is_empty) {
        out.check(false, || "a capacity list was never replayed".into());
        return out;
    }

    out.set("work_per_s", capacity.rate());
    out.set(
        "control_work_per_s",
        spec.probe_pairs as f64 / cold.chunk_s().iter().sum::<f64>(),
    );
    // Latency of one query the cache has never seen, alone: per pair, its
    // median scaled round; then the median and p95 over pairs.
    let (p50, tail) = p50_and_tail(single.chunk_s());
    out.set("p50_ms", p50 * 1e3);
    out.set("tail_ms", tail * 1e3);

    let phases: Vec<&PhaseResult> = observed.all_phases().chain(&roll_probe).collect();
    check_serving(&tier, &observed, &mut out);
    if ctx.tracer.is_enabled() {
        serving_layers(&tier, &observed, &phases, &mut out);
        cold.set_miss_costs(&mut out);
        out.set("trace.overhead_frac", cold.overhead(ctx, &session));
        layer_probes(ctx, &ds, &session, &cold, &mut out);
        library_layers(&ctx.obs.report(), &mut out);
    }
    out
}

/// Set-up of a serving workload: dataset, one epoch of AM-DGCNN training
/// on the first `train_links` links, the model artifact written and read
/// back into an engine, and a batch server started on it.
fn setup(
    ctx: &Ctx,
    spec: &ServeSpec,
    obs: &Obs,
    serve_obs: &Obs,
    parent: Option<usize>,
    gen_s: &mut Vec<f64>,
) -> Result<(Dataset, Session, Vec<u8>, BatchServer), String> {
    let t = &ctx.tracer;
    let started = Instant::now();
    let gen_span = t.span("data.gen", parent);
    let ds = spec.data.generate();
    gen_span.end();
    gen_s.push(started.elapsed().as_secs_f64());

    let train_span = t.span("setup.train", parent);
    let mut session = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(amdgcnn_bench::default_hyper())
        .seed(derive_seed(ctx.seed, 2))
        .observe(obs.clone())
        .build()
        .session(&ds, Some(spec.train_links.min(ds.train.len())))
        .map_err(|e| format!("session: {e:?}"))?;
    session
        .trainer
        .train(&session.model, &mut session.ps, &session.train_samples, 1)
        .map_err(|e| format!("training: {e:?}"))?;
    train_span.end();

    let artifact_span = t.span("setup.artifact", parent);
    let artifact = artifact_of(&ds, &session)?;
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), spec.cache)
        .map_err(|e| e.to_string())?
        .with_obs(serve_obs.clone());
    artifact_span.end();

    let _server_span = t.span("setup.server", parent);
    let server = BatchServer::start(engine, BatchConfig::default());
    Ok((ds, session, artifact, server))
}

/// The serving artifact of a session's model.
fn artifact_of(ds: &Dataset, session: &Session) -> Result<Vec<u8>, String> {
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let meta =
        ArtifactMeta::describe(ds, &session.model.cfg, &fcfg, 1).map_err(|e| e.to_string())?;
    let mut artifact = Vec::new();
    save_model(&meta, &session.ps, &mut artifact).map_err(|e| e.to_string())?;
    Ok(artifact)
}

/// The saturated rate of the workload's traffic, on work that repeats
/// exactly. A template engine on the workload's base graph is filled once
/// by scoring a long query list in batches. Each replay then starts a
/// fresh engine carrying the template's cache (`migrate_cache_from`, as a
/// graph roll does) behind a private server, and sends one of a few short
/// fixed lists to it closed-loop with `4 x max_batch` in flight. The queue
/// then always holds a full batch, so every replay of a list forms the
/// same batches from the same cache: the same work each time, at the hit
/// rate of a warm stream.
///
/// On a mutating workload each replay also rolls the graph
/// `CAPACITY_ROLLS` times, evenly through its list: it waits for the
/// queries in flight (so every replay migrates the same cache), commits
/// the next mutation batch
/// to a graph store of its own (WAL fsync included), loads an engine on
/// the new generation, carries the unaffected cache entries over, and
/// swaps in a server on it. Commit, engine load, migration, server start
/// and the misses the invalidated entries cause are all in the replay's
/// time.
///
/// The rate is the lists' length over the sum of their median replay
/// times at the reference speed.
struct Capacity {
    artifact: Vec<u8>,
    ds: Dataset,
    cache: usize,
    template: InferenceEngine,
    lists: Vec<Vec<LinkQuery>>,
    /// The batch each replay commits after every `roll_every` queries
    /// (none on a read-only workload), and the WAL of its graph store.
    batches: Vec<Vec<GraphMutation>>,
    roll_every: usize,
    wal: PathBuf,
    /// Per list, the checked positions and the cold answers to them.
    expected: Vec<Vec<(usize, ClassProbs)>>,
    answers: Checked,
    /// Seconds of every replay of each list.
    times: Vec<Vec<f64>>,
    sent: usize,
    failed: usize,
}

impl Capacity {
    fn new(
        ctx: &Ctx,
        artifact: &[u8],
        ds: &Dataset,
        spec: &ServeSpec,
        fill: &[LinkQuery],
        lists: Vec<Vec<LinkQuery>>,
    ) -> Result<Self, String> {
        let template =
            InferenceEngine::load(artifact, ds.clone(), spec.cache).map_err(|e| e.to_string())?;
        for batch in fill.chunks(BatchConfig::default().max_batch) {
            template.predict(batch);
        }
        let (roll_every, batches) = if spec.commit_hz > 0.0 {
            let batches = mutation_stream(
                ds.graph.num_nodes() as u32,
                ds.graph.num_edge_types() as u16,
                CAPACITY_ROLLS,
                spec.ops_per_commit,
                derive_seed(ctx.seed, 6),
            );
            (CAPACITY_QUERIES.div_ceil(CAPACITY_ROLLS + 1), batches)
        } else {
            (usize::MAX, Vec::new())
        };
        // The generation that answers position i of a list is the number
        // of rolls before it.
        let expected = lists
            .iter()
            .map(|list| {
                let mut reference = Reference::new(artifact, ds);
                list.iter()
                    .enumerate()
                    .step_by(CHECK_EVERY)
                    .map(|(i, &q)| {
                        let want = reference.answer((i / roll_every) as u64, q, &batches)?;
                        Ok((i, want))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            artifact: artifact.to_vec(),
            ds: ds.clone(),
            cache: spec.cache,
            template,
            times: vec![Vec::new(); lists.len()],
            lists,
            batches,
            roll_every,
            wal: ctx
                .scratch
                .join(format!("capacity-{}.wal", ctx.next_id())),
            expected,
            answers: Checked::default(),
            sent: 0,
            failed: 0,
        })
    }

    /// One timed replay of every list, each on a fresh engine and server
    /// (and graph store, when the replay rolls the graph).
    fn replay_all(&mut self, pace: &Pace) -> Result<(), String> {
        (0..self.lists.len()).try_for_each(|k| self.replay(pace, k))
    }

    fn replay(&mut self, pace: &Pace, k: usize) -> Result<(), String> {
        let store = if self.batches.is_empty() {
            None
        } else {
            Some(
                GraphStore::create(self.ds.clone(), &self.wal)
                    .map_err(|e| format!("capacity graph store: {e}"))?,
            )
        };
        let engine = InferenceEngine::load(self.artifact.as_slice(), self.ds.clone(), self.cache)
            .map_err(|e| e.to_string())?;
        engine.migrate_cache_from(&self.template, &AffectedRegion::empty());
        let server = BatchServer::start(engine, BatchConfig::default());
        let (answers, secs) = pace.time(|| self.send_list(k, server, store.as_ref()));
        let answers = answers?;
        self.times[k].push(secs);
        self.sent += answers.len();
        self.failed += answers.iter().filter(|a| a.is_err()).count();
        for (i, want) in &self.expected[k] {
            self.answers.compare(answers[*i].as_ref().ok(), want, || {
                format!(
                    "capacity list {k} query {i} {:?} on generation {}",
                    self.lists[k][*i],
                    i / self.roll_every
                )
            });
        }
        Ok(())
    }

    /// Send list `k` to `server` closed-loop, rolling the graph after
    /// every `roll_every` queries; returns every answer in list order.
    fn send_list(
        &self,
        k: usize,
        mut server: BatchServer,
        store: Option<&GraphStore>,
    ) -> Result<Vec<Result<ClassProbs, Error>>, String> {
        let window = 4 * BatchConfig::default().max_batch;
        let mut answers = Vec::with_capacity(self.lists[k].len());
        for (i, segment) in self.lists[k].chunks(self.roll_every).enumerate() {
            if i > 0 {
                let store = store.expect("a replay that rolls has a graph store");
                let commit = store
                    .apply(&self.batches[i - 1], None)
                    .map_err(|e| format!("capacity commit: {e}"))?;
                let engine = InferenceEngine::load(
                    self.artifact.as_slice(),
                    (*commit.dataset).clone(),
                    self.cache,
                )
                .map_err(|e| e.to_string())?
                .with_graph_generation(commit.generation);
                engine.migrate_cache_from(server.engine(), &commit.region);
                let old = std::mem::replace(
                    &mut server,
                    BatchServer::start(engine, BatchConfig::default()),
                );
                old.begin_shutdown();
            }
            answers.extend(replay_closed_loop(&server, segment, window));
        }
        Ok(answers)
    }

    /// Answers per second at the reference speed.
    fn rate(&self) -> f64 {
        let total: f64 = self.times.iter().map(|t| median(t)).sum();
        self.lists.iter().map(Vec::len).sum::<usize>() as f64 / total
    }
}

/// Cold, uncached engines on successive generations of a graph, for the
/// answer check. The generations are rebuilt here, by applying the
/// committed batches in order to a graph of the check's own, so that one
/// generation's dataset is held at a time and every generation can be
/// checked.
struct Reference {
    artifact: Vec<u8>,
    base: Dataset,
    graph: MutableGraph,
    /// A cold engine on `graph`'s generation, built on first use, and its
    /// answers so far.
    engine: Option<InferenceEngine>,
    answers: BTreeMap<LinkQuery, ClassProbs>,
}

impl Reference {
    fn new(artifact: &[u8], base: &Dataset) -> Self {
        Self {
            artifact: artifact.to_vec(),
            base: base.clone(),
            graph: MutableGraph::from_graph(base.graph.clone()),
            engine: None,
            answers: BTreeMap::new(),
        }
    }

    /// The cold answer to `q` on `generation`. Generations must be asked
    /// for in nondecreasing order; `log[i]` is the batch that committed
    /// generation `i + 1`.
    fn answer(
        &mut self,
        generation: u64,
        q: LinkQuery,
        log: &[Vec<GraphMutation>],
    ) -> Result<ClassProbs, String> {
        let at = self.graph.generation();
        if generation < at {
            return Err(format!(
                "generation {generation} checked after generation {at}"
            ));
        }
        while self.graph.generation() < generation {
            let next = self.graph.generation() + 1;
            let batch = log
                .get(next as usize - 1)
                .ok_or_else(|| format!("generation {next} was never committed"))?;
            self.graph
                .apply(batch)
                .map_err(|e| format!("rebuilding generation {next}: {e}"))?;
            self.engine = None;
            self.answers.clear();
        }
        if self.engine.is_none() {
            let mut ds = self.base.clone();
            ds.graph = (*self.graph.snapshot()).clone();
            let engine = InferenceEngine::load(self.artifact.as_slice(), ds, 0)
                .map_err(|e| format!("reference engine: {e}"))?
                .with_graph_generation(generation);
            self.engine = Some(engine);
        }
        let engine = self.engine.as_ref().expect("built above");
        Ok(self
            .answers
            .entry(q)
            .or_insert_with(|| engine.predict_one(q))
            .clone())
    }
}

/// Tally of the bit-for-bit answer check.
#[derive(Debug, Default)]
struct Checked {
    count: usize,
    mismatches: usize,
    shown: Vec<String>,
}

impl Checked {
    /// Compare a served answer (`None`: the query failed, which the
    /// failure counts cover) with the cold one.
    fn compare(&mut self, got: Option<&ClassProbs>, want: &ClassProbs, what: impl FnOnce() -> String) {
        let Some(got) = got else { return };
        self.count += 1;
        let same = got.len() == want.len()
            && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.mismatches += 1;
            if self.shown.len() < MISMATCHES_SHOWN {
                self.shown
                    .push(format!("{}: served {got:?}, cold engine {want:?}", what()));
            }
        }
    }

    /// A check failure unless answers were checked and all matched.
    fn report(&self, what: &str, out: &mut Outcome) {
        out.check(self.count > 0, || format!("no {what} answer was checked"));
        for s in &self.shown {
            out.check(false, || s.clone());
        }
        out.check(self.mismatches <= self.shown.len(), || {
            format!(
                "{} more {what} answers differ from the cold engine",
                self.mismatches - self.shown.len()
            )
        });
    }
}

/// The seeded query stream: Zipf(1) over a fixed list of node pairs, one
/// sub-seed per draw.
struct Queries {
    pairs: Vec<LinkQuery>,
    zipf: Zipf,
    seed: u64,
    draws: Cell<u64>,
}

impl Queries {
    fn new(pairs: Vec<LinkQuery>, seed: u64) -> Self {
        Self {
            zipf: Zipf::new(pairs.len(), 1.0),
            pairs,
            seed,
            draws: Cell::new(0),
        }
    }

    /// The next `n` queries, and the seed they were drawn with.
    fn next(&self, n: usize) -> (Vec<LinkQuery>, u64) {
        let (mut rng, seed) = self.rng();
        let q = (0..n)
            .map(|_| self.pairs[self.zipf.sample(&mut rng)])
            .collect();
        (q, seed)
    }

    /// The next `n` queries, drawn stratified (`Zipf::stratified`): the
    /// capacity replays' work then differs from seed to seed only in
    /// which pair has which popularity rank, not in how many queries miss
    /// the cache.
    fn stratified(&self, n: usize) -> Vec<LinkQuery> {
        let (mut rng, _) = self.rng();
        self.zipf
            .stratified(n, &mut rng)
            .into_iter()
            .map(|r| self.pairs[r])
            .collect()
    }

    /// A generator for the next draw, and its seed.
    fn rng(&self) -> (StdRng, u64) {
        let k = self.draws.replace(self.draws.get() + 1);
        let seed = derive_seed(self.seed, 100 + k);
        (StdRng::seed_from_u64(seed ^ 1), seed)
    }
}

/// One graph roll, timed from its due time.
#[derive(Debug, Default, Clone)]
struct Roll {
    commit_s: f64,
    load_s: f64,
    migrate_s: f64,
    swap_s: f64,
    fresh_s: f64,
    region: usize,
}

/// The serving tier of one model artifact: the server taking queries, the
/// graph store the writer commits to, and the answer check.
struct Tier {
    artifact: Vec<u8>,
    frontend: Frontend,
    store: Option<GraphStore>,
    serve_obs: Obs,
    cache: usize,
    /// Commits per second while an open-loop phase runs (0: read-only),
    /// and edge additions per commit.
    commit_hz: f64,
    ops_per_commit: usize,
    /// Every committed batch, in order: `log[i]` committed generation
    /// `i + 1`.
    log: Mutex<Vec<Vec<GraphMutation>>>,
    /// The kept answers of each phase are checked when the phase ends.
    check: Mutex<(Reference, Checked)>,
    rolls: Mutex<Vec<Roll>>,
}

impl Tier {
    fn new(
        ctx: &Ctx,
        ds: &Dataset,
        artifact: Vec<u8>,
        server: BatchServer,
        spec: &ServeSpec,
        serve_obs: Obs,
        writes: bool,
    ) -> Result<Self, String> {
        let store = if writes {
            let wal = ctx.scratch.join(format!("graph-{}.wal", ctx.next_id()));
            Some(GraphStore::create(ds.clone(), &wal).map_err(|e| format!("graph store: {e}"))?)
        } else {
            None
        };
        Ok(Self {
            check: Mutex::new((Reference::new(&artifact, ds), Checked::default())),
            artifact,
            frontend: Frontend::new(server),
            store,
            serve_obs,
            cache: spec.cache,
            commit_hz: spec.commit_hz,
            ops_per_commit: spec.ops_per_commit,
            log: Mutex::new(Vec::new()),
            rolls: Mutex::new(Vec::new()),
        })
    }

    /// One open-loop phase at `rate` for `span`, with the tier's writer.
    fn phase(
        &self,
        ctx: &Ctx,
        queries: &Queries,
        rate: f64,
        span: Duration,
        name: &'static str,
    ) -> Result<PhaseResult, String> {
        self.phase_with_writer(ctx, queries, rate, self.commit_hz, span, name)
    }

    /// One open-loop phase at `rate` for `span`, while a writer commits
    /// at `hz` (none at 0). The writer runs only during phases, so the
    /// probes between them measure a quiet machine. When the phase ends,
    /// its kept answers are checked, each on the generation that answered
    /// it.
    fn phase_with_writer(
        &self,
        ctx: &Ctx,
        queries: &Queries,
        rate: f64,
        hz: f64,
        span: Duration,
        name: &'static str,
    ) -> Result<PhaseResult, String> {
        let t = &ctx.tracer;
        let (q, seed) = queries.next((rate * span.as_secs_f64() * 1.5) as usize + 16);
        let schedule = poisson_schedule(rate, span, seed);
        let phase_span = t.span(name, None);
        let parent = phase_span.id();
        let mut res = with_writer(ctx, self, hz, || {
            run_phase(
                &self.frontend,
                &schedule,
                |i| q[i % q.len()],
                CHECK_EVERY,
                |c: &Completion, due| {
                    if t.is_enabled() && c.index.is_multiple_of(CHECK_EVERY) {
                        let end = due + Duration::from_secs_f64(c.latency_s);
                        t.record("request", due, end, parent, Some(c.index as u64));
                    }
                },
            )
        })?;
        phase_span.end();
        let _check_span = t.span("check", None);
        let log = self.log.lock().expect("log lock");
        let mut check = self.check.lock().expect("check lock");
        let (reference, checked) = &mut *check;
        // Generations only grow from phase to phase; within one, sorting
        // puts them in order.
        let mut kept = std::mem::take(&mut res.kept);
        kept.retain(|c| c.answer.is_some());
        kept.sort_by_key(|c| (c.generation, c.index));
        for c in kept {
            let want = reference.answer(c.generation, c.query, &log)?;
            checked.compare(c.answer.as_ref(), &want, || {
                format!("query {:?} on generation {}", c.query, c.generation)
            });
        }
        Ok(res)
    }

    /// Commit one mutation batch per tick and roll the serving tier onto
    /// the new generation: load an engine on it, carry the unaffected
    /// cache entries over, start a server, swap it in, and let the old
    /// server drain its queue. Freshness runs from the commit's due time
    /// to the swap.
    fn writer_loop(&self, ctx: &Ctx, hz: f64, stop: &AtomicBool) -> Result<(), String> {
        let t = &ctx.tracer;
        let store = self.store.as_ref().expect("a tier with writes has a store");
        let ds = store.dataset();
        let stream = mutation_stream(
            ds.graph.num_nodes() as u32,
            ds.graph.num_edge_types() as u16,
            (ctx.seconds * 3.0 * hz) as usize + 64,
            self.ops_per_commit,
            derive_seed(ctx.seed, 5 + store.generation()),
        );
        let period = Duration::from_secs_f64(1.0 / hz);
        let start = Instant::now();
        let mut retired: Vec<Arc<BatchServer>> = Vec::new();
        let mut tick = 0u32;
        for (k, batch) in stream.iter().enumerate() {
            // A tick that passed while the previous roll ran is skipped:
            // a slow roll delays the next commit instead of queueing
            // back-to-back rolls that would starve the server.
            let passed = (start.elapsed().as_secs_f64() * hz) as u32;
            tick = (tick + 1).max(passed + 1);
            let due = start + period * tick;
            while Instant::now() < due && !stop.load(Ordering::SeqCst) {
                std::thread::sleep(
                    due.saturating_duration_since(Instant::now())
                        .min(period / 8),
                );
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let span = t.span("roll", None);
            let t0 = Instant::now();
            let commit = store
                .apply(batch, None)
                .map_err(|e| format!("commit {k}: {e}"))?;
            let t1 = Instant::now();
            let engine = InferenceEngine::load(
                self.artifact.as_slice(),
                (*commit.dataset).clone(),
                self.cache,
            )
            .map_err(|e| format!("engine on generation {}: {e}", commit.generation))?
            .with_graph_generation(commit.generation)
            .with_obs(self.serve_obs.clone());
            let t2 = Instant::now();
            engine.migrate_cache_from(self.frontend.current().engine(), &commit.region);
            let t3 = Instant::now();
            let old = self
                .frontend
                .swap(BatchServer::start(engine, BatchConfig::default()));
            old.begin_shutdown();
            let t4 = Instant::now();
            for (name, a, b) in [
                ("graph.commit", t0, t1),
                ("roll.engine_load", t1, t2),
                ("roll.migrate", t2, t3),
                ("roll.swap", t3, t4),
            ] {
                t.record(name, a, b, span.id(), None);
            }
            span.end();
            let mut log = self.log.lock().expect("log lock");
            log.push(batch.clone());
            if commit.generation != log.len() as u64 {
                return Err(format!(
                    "commit {k} made generation {} after {} commits",
                    commit.generation,
                    log.len()
                ));
            }
            drop(log);
            let s = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
            self.rolls.lock().expect("rolls lock").push(Roll {
                commit_s: s(t0, t1),
                load_s: s(t1, t2),
                migrate_s: s(t2, t3),
                swap_s: s(t3, t4),
                fresh_s: s(due, t4),
                region: commit.region.len(),
            });
            // A retired server is dropped (joining its drained worker)
            // here, once the load thread no longer holds it.
            retired.push(old);
            retired.retain(|s| Arc::strong_count(s) > 1);
        }
        Ok(())
    }
}

/// Run `body` while a writer thread commits at `hz` (no writer at 0).
fn with_writer<R>(ctx: &Ctx, tier: &Tier, hz: f64, body: impl FnOnce() -> R) -> Result<R, String> {
    if hz <= 0.0 {
        return Ok(body());
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| tier.writer_loop(ctx, hz, &stop));
        let r = body();
        stop.store(true, Ordering::SeqCst);
        writer.join().expect("writer thread panicked").map(|()| r)
    })
}

/// What the open-loop phases of one serving run observed.
#[derive(Default)]
struct Observed {
    warmup: PhaseResult,
    nominal: Vec<PhaseResult>,
    peak: Vec<PhaseResult>,
    probes: Vec<PhaseResult>,
    max_qps: Option<f64>,
}

impl Observed {
    /// The phases at fixed rates.
    fn fixed(&self) -> impl Iterator<Item = &PhaseResult> + Clone {
        std::iter::once(&self.warmup)
            .chain(&self.nominal)
            .chain(&self.peak)
    }

    fn all_phases(&self) -> impl Iterator<Item = &PhaseResult> + Clone {
        self.fixed().chain(&self.probes)
    }
}

/// Warm-up, then cycles of `between` and a nominal phase (see [`Plan`];
/// `deadline` ends a filling plan), then, traced, a peak phase and the
/// `max_qps` search.
fn drive(
    ctx: &Ctx,
    tier: &Tier,
    queries: &Queries,
    spec: &ServeSpec,
    plan: Plan,
    deadline: Instant,
    between: &mut dyn FnMut(),
) -> Result<Observed, String> {
    let secs = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    let mut o = Observed {
        warmup: tier.phase(
            ctx,
            queries,
            spec.nominal,
            secs(plan.warmup),
            "phase.warmup",
        )?,
        ..Default::default()
    };
    // A cycle starts only if one as long as the last still ends in time.
    let mut last = Duration::ZERO;
    while o.nominal.len() < plan.min_cycles || (plan.fill && Instant::now() + last < deadline) {
        let started = Instant::now();
        between();
        o.nominal.push(tier.phase(
            ctx,
            queries,
            spec.nominal,
            secs(plan.nominal),
            "phase.nominal",
        )?);
        last = started.elapsed();
    }
    if !ctx.tracer.is_enabled() {
        return Ok(o);
    }
    o.peak
        .push(tier.phase(ctx, queries, spec.peak, secs(plan.peak), "phase.peak")?);
    if plan.probe > 0.0 {
        let max_batch = BatchConfig::default().max_batch;
        let mut error = None;
        o.max_qps = Some(
            max_qps_search(spec.peak, |rate| {
                match tier.phase(ctx, queries, rate, secs(plan.probe), "phase.probe") {
                    Ok(res) => {
                        let pass = probe_passes(&res, spec.limit_s, max_batch, P99_WINDOW);
                        o.probes.push(res);
                        pass
                    }
                    Err(e) => {
                        error.get_or_insert(e);
                        false
                    }
                }
            })
            .0,
        );
        if let Some(e) = error {
            return Err(e);
        }
    }
    Ok(o)
}

/// Queries sent at the fixed rates, and those that failed or were shed.
fn fixed_rate_counts(o: &Observed) -> (usize, usize) {
    o.fixed()
        .fold((0, 0), |(s, f), p| (s + p.sent, f + p.failed))
}

/// Output checks of a serving run: nothing failed or was shed at the
/// fixed rates, no stale answer was served, and every kept answer matched
/// a cold engine on its generation bit for bit.
fn check_serving(tier: &Tier, o: &Observed, out: &mut Outcome) {
    let (sent, failed) = fixed_rate_counts(o);
    out.check(failed == 0, || {
        format!("{failed} of {sent} queries at fixed rates failed or were shed")
    });
    tier.check.lock().expect("check lock").1.report("open-loop", out);
    let stale = tier
        .serve_obs
        .report()
        .counter("serve/stale_serves")
        .unwrap_or(0);
    out.check(stale == 0, || format!("{stale} stale serves"));
    let lag = lag_p99_ms(o);
    if lag > 1.0 {
        eprintln!("warning: load generator ran late, lag p99 {lag:.3} ms > 1 ms");
    }
}

/// The generator's lateness p99 at the fixed rates, in ms.
fn lag_p99_ms(o: &Observed) -> f64 {
    let lag = sorted(o.fixed().flat_map(|p| p.lag_s.iter().copied()).collect());
    if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, 99.0) * 1e3
    }
}

/// Per-layer numbers of the serving tier: engine and server counters,
/// graph rolls, and the load generator.
fn serving_layers(tier: &Tier, o: &Observed, phases: &[&PhaseResult], out: &mut Outcome) {
    engine_layers(&tier.serve_obs.report(), out);
    roll_layers(&tier.rolls.lock().expect("rolls lock"), out);
    let latencies = |ps: &[PhaseResult]| -> Vec<f64> {
        ps.iter()
            .flat_map(|p| p.latency_s.iter().copied())
            .collect()
    };
    // The median of the cycles' medians, and p99 as the median over
    // 1000-answer windows of each window's p99, so that one stalled cycle
    // moves neither.
    let cycle_p50s: Vec<f64> = o
        .nominal
        .iter()
        .filter(|p| !p.latency_s.is_empty())
        .map(|p| percentile(&sorted(p.latency_s.clone()), 50.0))
        .collect();
    if !cycle_p50s.is_empty() {
        out.set("serve.p50_ms", median(&cycle_p50s) * 1e3);
        out.set(
            "serve.p99_ms",
            windowed_percentile(&latencies(&o.nominal), 99.0, P99_WINDOW) * 1e3,
        );
    }
    let peak = latencies(&o.peak);
    if !peak.is_empty() {
        out.set(
            "serve.peak_p99_ms",
            windowed_percentile(&peak, 99.0, P99_WINDOW) * 1e3,
        );
    }
    if let Some(q) = o.max_qps {
        out.set("serve.max_qps", q);
        out.check(q > 0.0, || "no max_qps probe passed".into());
    }
    let (sent, failed) = fixed_rate_counts(o);
    out.set("serve.fail_frac", failed as f64 / sent.max(1) as f64);
    out.set("loadgen.lag_p99_ms", lag_p99_ms(o));
    out.set(
        "loadgen.sent",
        phases.iter().map(|p| p.sent).sum::<usize>() as f64,
    );
    out.set(
        "loadgen.answered",
        phases.iter().map(|p| p.answered).sum::<usize>() as f64,
    );
}

fn engine_layers(report: &Report, out: &mut Outcome) {
    let c = |name: &str| report.counter(name).unwrap_or(0) as f64;
    let (hits, misses) = (c("serve/cache_hits"), c("serve/cache_misses"));
    out.set("engine.cache_hit_rate", hits / (hits + misses).max(1.0));
    out.set("engine.dedup_hits", c("serve/dedup_hits"));
    out.set(
        "engine.busy_s",
        report
            .span("serve/engine")
            .map_or(0.0, |s| s.total_ns as f64 * 1e-9),
    );
    out.set("engine.stale_serves", c("serve/stale_serves"));
    let (inv, mig) = (c("serve/cache_invalidated"), c("serve/cache_migrated"));
    out.set("engine.cache_invalidated", inv);
    out.set("engine.cache_migrated", mig);
    out.set("engine.kept_frac", mig / (inv + mig).max(1.0));
    if let Some(w) = report.span("serve/queue_wait") {
        out.set("server.queue_wait_p50_ms", hist_quantile_ms(&w.hist, 0.50));
        out.set("server.queue_wait_p99_ms", hist_quantile_ms(&w.hist, 0.99));
    }
    let batches = c("serve/batches");
    out.set("server.batches", batches);
    out.set(
        "server.batch_size_mean",
        c("serve/queries") / batches.max(1.0),
    );
    out.set(
        "server.shed",
        c("serve/shed_overload") + c("serve/shed_degraded"),
    );
}

fn roll_layers(rolls: &[Roll], out: &mut Outcome) {
    if rolls.is_empty() {
        out.check(false, || "no graph roll happened".into());
        return;
    }
    let col = |f: fn(&Roll) -> f64| rolls.iter().map(f).collect::<Vec<f64>>();
    let fresh = sorted(col(|r| r.fresh_s));
    out.set("serve.freshness_p50_ms", percentile(&fresh, 50.0) * 1e3);
    out.set("serve.freshness_p95_ms", percentile(&fresh, 95.0) * 1e3);
    out.set("graph.commit_p50_ms", median(&col(|r| r.commit_s)) * 1e3);
    out.set("graph.region_nodes_mean", mean(&col(|r| r.region as f64)));
    out.set("roll.engine_load_ms", mean(&col(|r| r.load_s)) * 1e3);
    out.set("roll.migrate_ms", mean(&col(|r| r.migrate_s)) * 1e3);
    out.set("roll.swap_ms", mean(&col(|r| r.swap_s)) * 1e3);
}

/// Extraction and forward cost of queries the cache has never seen:
/// `prepare_batch_obs` then `predict_probs` over the probe pairs in
/// chunks of `chunk` pairs. Each chunk counts with its median round.
pub struct ColdProbe<'a> {
    ds: &'a Dataset,
    fcfg: FeatureConfig,
    /// The probe pairs as links (the class is unused at inference).
    links: Vec<LabeledLink>,
    chunk: usize,
    /// Per-chunk seconds of every round: preparation, forward, and both.
    prep: Vec<Vec<f64>>,
    fwd: Vec<Vec<f64>>,
    total: Vec<Vec<f64>>,
    /// Each chunk's prepared samples, from its last round.
    samples: Vec<Vec<PreparedSample>>,
}

impl<'a> ColdProbe<'a> {
    pub fn new(ds: &'a Dataset, pairs: &[LinkQuery], chunk: usize) -> Self {
        let links: Vec<LabeledLink> = pairs
            .iter()
            .map(|&(u, v)| LabeledLink { u, v, class: 0 })
            .collect();
        let chunks = links.len().div_ceil(chunk);
        Self {
            ds,
            fcfg: FeatureConfig::for_graph(ds.graph.num_node_types()),
            links,
            chunk,
            prep: vec![Vec::new(); chunks],
            fwd: vec![Vec::new(); chunks],
            total: vec![Vec::new(); chunks],
            samples: vec![Vec::new(); chunks],
        }
    }

    /// One timed round over every chunk.
    pub fn round(&mut self, pace: &Pace, session: &Session) {
        for i in 0..self.samples.len() {
            let (p, f) = self.score(pace, i, session, &Obs::disabled());
            self.prep[i].push(p);
            self.fwd[i].push(f);
            self.total[i].push(p + f);
        }
    }

    /// Prepare and score chunk `i`; returns its prep and forward seconds.
    fn score(&mut self, pace: &Pace, i: usize, session: &Session, obs: &Obs) -> (f64, f64) {
        let start = i * self.chunk;
        let chunk = &self.links[start..(start + self.chunk).min(self.links.len())];
        let (s, prep) = pace.time(|| prepare_batch_obs(self.ds, chunk, &self.fcfg, obs));
        let (_, fwd) = pace.time(|| black_box(predict_probs(&session.model, &session.ps, &s)));
        self.samples[i] = s;
        (prep, fwd)
    }

    /// Seconds to score each chunk at the reference speed: its median
    /// round of prep plus forward. Every chunk must have had a round.
    pub fn chunk_s(&self) -> Vec<f64> {
        self.total.iter().map(|t| median(t)).collect()
    }

    /// `engine.miss_prep_us` and `engine.miss_fwd_us`: the per-pair
    /// medians at the reference speed. Every chunk must have had a round.
    pub fn set_miss_costs(&self, out: &mut Outcome) {
        let per_pair_us = |t: &[Vec<f64>]| {
            let total: f64 = t.iter().map(|c| median(c)).sum();
            total / self.links.len() as f64 * 1e6
        };
        out.set("engine.miss_prep_us", per_pair_us(&self.prep));
        out.set("engine.miss_fwd_us", per_pair_us(&self.fwd));
    }

    /// The probe's prepared samples.
    fn samples(&self) -> impl Iterator<Item = &PreparedSample> {
        self.samples.iter().flatten()
    }

    /// Tracing overhead on this work: passes over every chunk with the
    /// libraries' spans on and off, alternating; traced / untraced - 1 of
    /// the fastest passes.
    fn overhead(&mut self, ctx: &Ctx, session: &Session) -> f64 {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for pass in 0..6 {
            let (obs, times) = if pass % 2 == 1 {
                (&ctx.obs, &mut on)
            } else {
                (&Obs::disabled(), &mut off)
            };
            let total: f64 = (0..self.samples.len())
                .map(|i| {
                    let (p, f) = self.score(&ctx.pace, i, session, obs);
                    p + f
                })
                .sum();
            times.push(total);
        }
        min(&on) / min(&off) - 1.0
    }
}

/// The trained model of a training workload, deployed: its artifact
/// served for one short cycle with a writer rolling the graph
/// (`spec.rolling()`), then a short phase at the peak rate. Checks the
/// answers and sets the serving per-layer times, which every traced run
/// must measure (traced training runs only).
pub fn deploy_check(
    ctx: &Ctx,
    ds: &Dataset,
    session: &Session,
    spec: &ServeSpec,
    out: &mut Outcome,
) {
    let spec = &spec.rolling();
    let serve_obs = Obs::enabled();
    let tier = artifact_of(ds, session).and_then(|artifact| {
        let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), spec.cache)
            .map_err(|e| e.to_string())?
            .with_obs(serve_obs.clone());
        let server = BatchServer::start(engine, BatchConfig::default());
        Tier::new(ctx, ds, artifact, server, spec, serve_obs, true)
    });
    let tier = match tier {
        Ok(t) => t,
        Err(e) => {
            out.check(false, || format!("deployment: {e}"));
            return;
        }
    };
    let pairs = random_pairs(
        ds.graph.num_nodes() as u32,
        spec.pairs,
        derive_seed(ctx.seed, 3),
    );
    let queries = Queries::new(pairs, ctx.seed);
    let _span = ctx.tracer.span("deploy", None);
    match drive(
        ctx,
        &tier,
        &queries,
        spec,
        DEPLOY,
        Instant::now(),
        &mut || {},
    ) {
        Ok(o) => {
            let phases: Vec<&PhaseResult> = o.all_phases().collect();
            check_serving(&tier, &o, out);
            serving_layers(&tier, &o, &phases, out);
        }
        Err(e) => out.check(false, || format!("deployment: {e}")),
    }
}

/// Probes of the layers a serving run does not otherwise time: the
/// sample store (the probe samples written, reopened and decoded),
/// checkpoint saves, evaluation, and one minibatch through the model's
/// layers. Traced runs only.
fn layer_probes(ctx: &Ctx, ds: &Dataset, session: &Session, cold: &ColdProbe, out: &mut Outcome) {
    let samples: Vec<PreparedSample> = cold.samples().cloned().collect();
    sample_sizes(&samples, out);
    nn_probe(
        &session.model,
        &session.ps,
        &samples[..16.min(samples.len())],
        out,
    );
    let auc = eval_probe(ctx, session, out);
    out.set("train.am_test_auc", auc);
    checkpoint_probe(ctx, session, out);

    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let path = ctx.scratch.join(format!("probe-{}.amss", ctx.next_id()));
    let key = StoreKey::for_dataset(ds, &fcfg, 0);
    let flushed = SampleStore::open(&path, key).and_then(|mut store| {
        for (link, sample) in cold.links.iter().zip(&samples) {
            store.insert(link, sample);
        }
        let started = Instant::now();
        store.flush(None)?;
        Ok(started.elapsed().as_secs_f64())
    });
    match flushed {
        Ok(flush_s) => {
            out.set("store.flush_s", flush_s);
            out.set("store.misses", cold.links.len() as f64);
            let hits = store_probe(ds, &path, key, &cold.links, out);
            out.set("store.hits", hits as f64);
        }
        Err(e) => out.check(false, || format!("sample store probe: {e:?}")),
    }
    let _ = std::fs::remove_file(&path);
}
