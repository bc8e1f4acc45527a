//! Chaos-harness proof of the live-mutation invariants: one
//! [`BatchServer`] serving a graph that mutates under it — rolled onto
//! every commit, under injected engine faults (transient failures within
//! the retry budget, latency, worker panics) and injected WAL disk faults
//! — never hangs, never serves a stale answer, and keeps its mutation log
//! replayable to a graph bit-identical to the live one.
//!
//! A roll is the four steps a deployment takes on each commit
//! ([`roll`]): commit through the [`GraphStore`], load a fresh engine on
//! the new snapshot (same registry, same fault injector), migrate the old
//! engine's cache minus the commit's k-hop region, then start a new
//! server and shut the old one down.
//!
//! Concretely, per seeded schedule:
//!
//! - **No hang, no wrong answer.** Every query resolves within a bound,
//!   either with probabilities bit-identical to a clean reference engine
//!   bound to the graph generation that was live when the query was
//!   submitted, or with a typed error that the serving counters count.
//! - **Unaffected means untouched.** A query whose endpoints never fell
//!   inside any commit's k-hop region answers bit-identically to the
//!   static generation-0 reference for the whole run — the invalidation
//!   rule's soundness contract, observed end to end.
//! - **No stale serves.** The `stale_serves` counter, summed over every
//!   engine incarnation, stays 0: incremental invalidation dropped every
//!   affected cache entry, so the generation-tag backstop in the engine
//!   never fired.
//! - **Durability.** A faulted WAL append is rejected (the old generation
//!   keeps serving), and at any point the log replays over the base graph
//!   to the live graph's exact digest — including through a simulated
//!   crash (fresh [`GraphStore::open`] from the file).

use am_dgcnn::{Experiment, FaultInjector, FaultPlan, FeatureConfig, GnnKind, Hyperparams};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_graph::{graph_digest, GraphMutation, MutableGraph};
use amdgcnn_obs::Obs;
use amdgcnn_serve::{
    save_model, ArtifactMeta, BatchConfig, BatchServer, Error, GraphCommit, GraphStore,
    GraphStoreError, InferenceEngine, LinkQuery,
};
use amdgcnn_tensor::DiskFault;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// LRU capacity of every serving engine: above the working set of the
/// tests below, so only a roll's invalidation ever evicts an entry.
const CACHE: usize = 256;

/// Train one epoch on `ds` and return the artifact bytes.
fn train_artifact(ds: &Dataset) -> Vec<u8> {
    let exp = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(Hyperparams {
            lr: 5e-3,
            hidden_dim: 8,
            sort_k: 10,
        })
        .seed(7)
        .build();
    let mut session = exp.session(ds, None).expect("session");
    session
        .trainer
        .train(&session.model, &mut session.ps, &session.train_samples, 1)
        .expect("train");
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let meta = ArtifactMeta::describe(ds, &session.model.cfg, &fcfg, 1).expect("meta");
    let mut buf = Vec::new();
    save_model(&meta, &session.ps, &mut buf).expect("save");
    buf
}

/// Train once per process; every serving and reference engine reloads
/// the same artifact bytes.
fn artifact_and_ds() -> &'static (Vec<u8>, Dataset) {
    static CACHE: OnceLock<(Vec<u8>, Dataset)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let ds = wn18_like(&Wn18Config {
            num_nodes: 60,
            num_edges: 220,
            train_links: 24,
            test_links: 8,
            ..Default::default()
        });
        (train_artifact(&ds), ds)
    })
}

fn scratch_wal(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amdgcnn-mutchaos-{tag}-{}-{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("mutations.wal")
}

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 29, 47];
    if let Ok(extra) = std::env::var("AMDGCNN_CHAOS_SEED") {
        seeds.push(extra.parse().expect("AMDGCNN_CHAOS_SEED must be a u64"));
    }
    seeds
}

/// Deterministic generator of *valid* mutation batches, mirroring the
/// graph state client-side so every generated batch commits (unless its
/// WAL append is deliberately faulted). Tracks stable edge ids exactly
/// like [`MutableGraph`] hands them out: one new slot per `AddEdge`,
/// tombstones on retire.
struct MutationGen {
    rng: StdRng,
    num_nodes: u32,
    num_types: u16,
    live_edges: Vec<u32>,
    next_slot: u32,
}

impl MutationGen {
    fn new(seed: u64, ds: &Dataset) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_0001),
            num_nodes: ds.graph.num_nodes() as u32,
            num_types: ds.graph.num_node_types() as u16,
            live_edges: (0..ds.graph.num_edges() as u32).collect(),
            next_slot: ds.graph.num_edges() as u32,
        }
    }

    fn batch(&mut self, ops: u32) -> Vec<GraphMutation> {
        let mut out = Vec::with_capacity(ops as usize);
        let mut retired_in_batch: HashSet<u32> = HashSet::new();
        for _ in 0..ops {
            let kind = self.rng.random_range(0u32..10);
            let m = match kind {
                // Mostly appends: the graph should grow under the server.
                0..=5 => GraphMutation::AddEdge {
                    u: self.rng.random_range(0..self.num_nodes),
                    v: self.rng.random_range(0..self.num_nodes),
                    etype: self.rng.random_range(0u16..4),
                },
                6 | 7 if self.live_edges.len() > 1 => {
                    // Retire a live edge not already retired in this batch.
                    let mut edge = None;
                    for _ in 0..8 {
                        let i = self.rng.random_range(0..self.live_edges.len());
                        let cand = self.live_edges[i];
                        if !retired_in_batch.contains(&cand) {
                            edge = Some(cand);
                            break;
                        }
                    }
                    match edge {
                        Some(e) => {
                            retired_in_batch.insert(e);
                            GraphMutation::RetireEdge { edge: e }
                        }
                        None => GraphMutation::AddNode { ntype: 0 },
                    }
                }
                8 => GraphMutation::AddNode {
                    // New node types must stay inside the feature config's
                    // one-hot range the artifact was trained with.
                    ntype: self.rng.random_range(0..self.num_types),
                },
                _ => GraphMutation::SetNodeType {
                    node: self.rng.random_range(0..self.num_nodes),
                    ntype: self.rng.random_range(0..self.num_types),
                },
            };
            out.push(m);
        }
        out
    }

    /// Advance the client-side mirror after a *successful* commit.
    fn committed(&mut self, batch: &[GraphMutation]) {
        for m in batch {
            match *m {
                GraphMutation::AddNode { .. } => self.num_nodes += 1,
                GraphMutation::AddEdge { .. } => {
                    self.live_edges.push(self.next_slot);
                    self.next_slot += 1;
                }
                GraphMutation::RetireEdge { edge } => {
                    self.live_edges.retain(|&e| e != edge);
                }
                GraphMutation::SetNodeType { .. } => {}
            }
        }
    }
}

/// A graph-mutation burst pinned to a position in the query stream.
#[derive(Debug, Clone, Copy)]
struct Burst {
    /// Commit just before the `at_query`-th query (1-based).
    at_query: u64,
    /// Mutation operations in the burst (at least 1).
    ops: u32,
    /// Fault injected into the burst's WAL append. A faulted burst must
    /// be refused by the validated commit, and the live graph stays on
    /// its previous generation.
    disk_fault: Option<DiskFault>,
}

/// A seeded schedule of `bursts` bursts of 1..=`max_ops` operations,
/// sorted by position across a run of `queries` queries. Roughly one
/// burst in six carries a WAL [`DiskFault`] (torn write, bit flip or
/// partial flush), so the rejection path interleaves with the rolls.
fn burst_schedule(seed: u64, queries: u64, bursts: usize, max_ops: u32) -> Vec<Burst> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut positions: Vec<u64> = (0..bursts)
        .map(|_| rng.random_range(1..=queries.max(1)))
        .collect();
    positions.sort_unstable();
    positions
        .into_iter()
        .map(|at_query| {
            let ops = rng.random_range(1..=max_ops.max(1));
            let disk_fault = if rng.random_range(0u32..6) == 0 {
                Some(match rng.random_range(0u32..3) {
                    0 => DiskFault::TornWrite,
                    1 => DiskFault::BitFlip,
                    _ => DiskFault::PartialFlush,
                })
            } else {
                None
            };
            Burst {
                at_query,
                ops,
                disk_fault,
            }
        })
        .collect()
}

/// A serving engine on `ds` at graph `generation`, counting into `obs`
/// and, when given, drawing engine faults from `faults`.
fn engine(
    artifact: &[u8],
    ds: Dataset,
    generation: u64,
    obs: &Obs,
    faults: Option<&Arc<FaultInjector>>,
) -> InferenceEngine {
    let engine = InferenceEngine::load(artifact, ds, CACHE)
        .expect("engine loads")
        .with_graph_generation(generation)
        .with_obs(obs.clone());
    match faults {
        Some(f) => engine.with_fault_injector(Arc::clone(f)),
        None => engine,
    }
}

/// Roll `old` onto `commit`'s generation: a fresh engine on the new
/// snapshot (same registry, same fault injector) adopts the old engine's
/// cache minus the commit's k-hop region, a new server starts on it, and
/// the old server drains and stops. Returns the new server and the
/// migration's `(invalidated, migrated)` entry counts.
fn roll(
    old: BatchServer,
    artifact: &[u8],
    commit: &GraphCommit,
    obs: &Obs,
    faults: Option<&Arc<FaultInjector>>,
) -> (BatchServer, (usize, usize)) {
    let next = engine(
        artifact,
        (*commit.dataset).clone(),
        commit.generation,
        obs,
        faults,
    );
    let moved = next.migrate_cache_from(old.engine(), &commit.region);
    let next = BatchServer::start(next, BatchConfig::default());
    old.shutdown();
    (next, moved)
}

/// The acceptance run: 1100 queries interleaved with 110 mutation bursts
/// per seed against one server under engine faults (transients, latency,
/// worker panics) and WAL disk faults, rolled onto every commit.
#[test]
fn mutating_graph_under_chaos_serves_fresh_answers_and_replays_exactly() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    const N: usize = 1100;
    const BURSTS: usize = 110;

    for seed in chaos_seeds() {
        let bursts = burst_schedule(seed, N as u64, BURSTS, 3);
        assert_eq!(bursts.len(), BURSTS, "seed {seed}");
        assert!(
            bursts.windows(2).all(|w| w[0].at_query <= w[1].at_query),
            "seed {seed}: bursts must be sorted by position"
        );
        assert!(bursts.iter().all(|b| (1..=3).contains(&b.ops)));
        let planned_ops: u64 = bursts.iter().map(|b| u64::from(b.ops)).sum();
        assert!(planned_ops >= 100, "seed {seed}: too few mutation ops");

        let obs = Obs::enabled();
        let wal_path = scratch_wal("accept", seed);
        let store = GraphStore::create(ds.clone(), &wal_path)
            .expect("graph store")
            .with_obs(obs.clone());
        // Faults a lone server answers through: a transient on every n-th
        // engine call (n >= 3, so the retry after one never meets another
        // and the retry budget of 2 holds), a slow call every 17th, and
        // seeded panics the supervisor respawns the worker after. One
        // injector serves every incarnation, so its schedule runs on
        // across rolls.
        let faults = Arc::new(FaultInjector::new(FaultPlan {
            seed: seed.wrapping_mul(1_000_003),
            panic_rate: 0.01,
            transient_every_n_calls: Some(3 + seed % 5),
            latency_every_n_calls: Some(17),
            latency: Duration::from_micros(500),
            ..FaultPlan::default()
        }));
        let mut server = BatchServer::start(
            engine(artifact, ds.clone(), 0, &obs, Some(&faults)),
            BatchConfig::default(),
        );
        let mut mutgen = MutationGen::new(seed, ds);

        // Per-generation ground truth: a clean engine bound to each
        // generation's dataset, built lazily on first use. Generation 0
        // is the untouched static graph.
        let mut gen_datasets: HashMap<u64, Arc<Dataset>> = HashMap::new();
        gen_datasets.insert(0, Arc::new(ds.clone()));
        let mut ref_engines: HashMap<u64, InferenceEngine> = HashMap::new();
        let mut ever_affected: HashSet<LinkQuery> = HashSet::new();
        let mut expected_rejects = 0u64;
        let mut faulted_some = false;
        let (mut rolls, mut answered, mut failed, mut shed) = (0u64, 0u64, 0u64, 0u64);
        let mut pending_bursts = bursts.iter().peekable();

        for i in 0..N {
            while let Some(burst) = pending_bursts.next_if(|b| b.at_query <= (i + 1) as u64) {
                let batch = mutgen.batch(burst.ops);
                match store.apply(&batch, burst.disk_fault) {
                    Ok(commit) => {
                        assert!(
                            burst.disk_fault.is_none(),
                            "seed {seed}: a damaged WAL append must refuse the commit"
                        );
                        mutgen.committed(&batch);
                        for &q in &queries {
                            if commit.region.affects(q.0, q.1) {
                                ever_affected.insert(q);
                            }
                        }
                        gen_datasets.insert(commit.generation, Arc::clone(&commit.dataset));
                        server = roll(server, artifact, &commit, &obs, Some(&faults)).0;
                        rolls += 1;
                    }
                    Err(GraphStoreError::WalFault) => {
                        assert!(
                            burst.disk_fault.is_some(),
                            "seed {seed}: spurious WAL fault"
                        );
                        faulted_some = true;
                        expected_rejects += 1;
                        // The previous generation keeps serving; the
                        // client mirror is NOT advanced.
                    }
                    Err(e) => panic!("seed {seed}: unexpected commit failure: {e}"),
                }
            }
            let q = queries[i % queries.len()];
            let generation = store.generation();
            assert_eq!(
                server.engine().graph_generation(),
                generation,
                "seed {seed}"
            );
            let outcome = match server.submit(q) {
                Ok(pending) => pending
                    .wait_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|| panic!("seed {seed} query {i}: hung for 60 s")),
                Err(Error::Degraded) => {
                    // Three failed batches in a row tripped the breaker.
                    shed += 1;
                    continue;
                }
                Err(e) => panic!("seed {seed} query {i}: refused at admission: {e}"),
            };
            let probs = match outcome {
                Ok(probs) => probs,
                Err(Error::WorkerPanicked | Error::EngineFault { .. }) => {
                    failed += 1;
                    continue;
                }
                Err(e) => panic!("seed {seed} query {i}: unexpected error: {e}"),
            };
            answered += 1;
            // Ground truth for the generation live at submission time.
            let engine = ref_engines.entry(generation).or_insert_with(|| {
                let gds = gen_datasets.get(&generation).expect("generation recorded");
                InferenceEngine::load(artifact.as_slice(), (**gds).clone(), 64)
                    .expect("reference engine")
            });
            assert_eq!(
                probs,
                engine.predict_one(q),
                "seed {seed} query {i}: answer diverged from the generation-{generation} \
                 reference"
            );
        }
        // Joins the last worker, so every respawn below is counted.
        server.shutdown();

        // Every mutation landed or was refused for exactly the planned
        // durability faults; the server rolled once per commit.
        let commits = store.commits();
        assert_eq!(
            commits + expected_rejects,
            bursts.len() as u64,
            "seed {seed}: every burst must commit or be refused"
        );
        assert_eq!(store.rejected_commits(), expected_rejects, "seed {seed}");
        assert!(faulted_some, "seed {seed}: schedule carried no WAL faults");
        assert_eq!(store.generation(), commits, "seed {seed}");
        assert_eq!(rolls, commits, "seed {seed}");

        // Every query was answered or failed typed, and the shared
        // registry counted each outcome over every engine incarnation:
        // with one client, each answered query ran through one engine
        // once, and each failure is a panicked or exhausted batch of one.
        let count = |name: &str| obs.counter(name).get();
        assert_eq!(answered + failed + shed, N as u64, "seed {seed}");
        assert_eq!(count("serve/queries"), answered, "seed {seed}");
        assert_eq!(count("serve/failed_queries"), failed, "seed {seed}");
        assert_eq!(count("serve/shed_degraded"), shed, "seed {seed}");
        assert!(
            answered > N as u64 * 9 / 10,
            "seed {seed}: only {answered} answers"
        );
        assert!(
            count("serve/engine_retries") > 0,
            "seed {seed}: no transient fault was retried"
        );
        assert!(
            count("serve/worker_panics") > 0,
            "seed {seed}: no worker panicked"
        );
        assert_eq!(
            count("serve/worker_respawns"),
            count("serve/worker_panics"),
            "seed {seed}: every panicked worker is respawned"
        );

        // The invalidation rule did real work and never let a stale
        // entry through: the engines' generation-tag backstop stayed
        // silent on every incarnation.
        assert_eq!(
            count("serve/stale_serves"),
            0,
            "seed {seed}: a stale cache entry survived invalidation"
        );
        assert!(
            !ever_affected.is_empty(),
            "seed {seed}: no cached query was ever affected — the schedule \
             exercised nothing"
        );
        assert!(
            ever_affected.len() < queries.len() || commits > 50,
            "seed {seed}: sanity on region selectivity"
        );

        // Unaffected queries are bit-identical to the static gen-0
        // reference across the entire mutated history.
        let gen0 = &ref_engines[&0];
        let last = store.generation();
        if let Some(final_engine) = ref_engines.get(&last) {
            for &q in queries.iter().filter(|q| !ever_affected.contains(q)) {
                assert_eq!(
                    gen0.predict_one(q),
                    final_engine.predict_one(q),
                    "seed {seed}: unaffected query {q:?} drifted across generations"
                );
            }
        }

        // Durability: the WAL replays over the base graph to the live
        // graph's exact digest — and survives a simulated crash (fresh
        // open from the file).
        let recovery = amdgcnn_graph::mutable::replay_log(&wal_path).expect("replay log");
        assert_eq!(recovery.batches.len() as u64, commits, "seed {seed}");
        let rebuilt =
            MutableGraph::replay(ds.graph.clone(), &recovery.batches).expect("replay applies");
        assert_eq!(
            rebuilt.digest(),
            store.digest(),
            "seed {seed}: replay digest"
        );
        let (reopened, rec2) = GraphStore::open(ds.clone(), &wal_path).expect("crash recovery");
        assert_eq!(rec2.batches.len() as u64, commits, "seed {seed}");
        assert_eq!(reopened.digest(), store.digest(), "seed {seed}");
        assert_eq!(reopened.generation(), store.generation(), "seed {seed}");
        assert_eq!(
            graph_digest(&reopened.dataset().graph),
            store.digest(),
            "seed {seed}: recovered dataset serves the recovered graph"
        );

        let _ = std::fs::remove_file(&wal_path);
    }
}

/// Incremental invalidation does real, measurable work: across a roll,
/// unaffected entries survive in the server's cache (migrated > 0) and
/// affected ones are dropped (invalidated > 0), while answers stay exact.
/// One registry handed to every engine incarnation sums their counters
/// over every roll, the retired engines' included.
#[test]
fn graph_roll_migrates_survivors_and_drops_affected_entries() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let obs = Obs::enabled();
    let count = |name: &str| obs.counter(name).get();
    let wal_path = scratch_wal("roll", 0);
    let store = GraphStore::create(ds.clone(), &wal_path).expect("store");
    let mut server = BatchServer::start(
        engine(artifact, ds.clone(), 0, &obs, None),
        BatchConfig::default(),
    );

    // Warm the cache.
    for _ in 0..3 {
        server
            .submit_all_strict(&queries)
            .expect("healthy server answers");
    }
    let mut served = 3 * queries.len() as u64;
    assert_eq!(count("serve/queries"), served);

    // Two rolls, each one mutation next to a test link's source endpoint.
    let (mut invalidated, mut migrated) = (0, 0);
    for &(u, v) in &queries[..2] {
        let commit = store
            .apply(&[GraphMutation::SetNodeType { node: u, ntype: 0 }], None)
            .expect("commit");
        assert!(commit.region.affects(u, v));
        let (next, (inv, mig)) = roll(server, artifact, &commit, &obs, None);
        server = next;
        assert_eq!(server.engine().graph_generation(), commit.generation);
        assert!(inv > 0, "the affected entry must be dropped");
        // The region is local, so some of the 8 cached test links should
        // survive the roll.
        if queries.iter().any(|q| !commit.region.affects(q.0, q.1)) {
            assert!(mig > 0, "unaffected entries must carry across");
        }
        invalidated += inv;
        migrated += mig;

        // Post-roll answers match a clean engine on the new generation.
        let fresh = InferenceEngine::load(artifact.as_slice(), (*commit.dataset).clone(), 64)
            .expect("reference");
        let answers = server.submit_all_strict(&queries).expect("answers");
        for (&q, probs) in queries.iter().zip(answers) {
            assert_eq!(probs, fresh.predict_one(q));
        }
        served += queries.len() as u64;
    }
    assert_eq!(store.generation(), 2);

    // The shared registry kept the retired engines' counts and summed the
    // migrations of both rolls; the stale backstop never fired.
    assert_eq!(count("serve/queries"), served);
    assert_eq!(count("serve/cache_invalidated"), invalidated as u64);
    assert_eq!(count("serve/cache_migrated"), migrated as u64);
    assert_eq!(count("serve/stale_serves"), 0);

    server.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

/// Why incremental invalidation beats flushing the cache on every roll:
/// a server rolled onto an engine that adopts its predecessor's cache
/// with [`InferenceEngine::migrate_cache_from`] recomputes exactly the
/// entries the commit's k-hop region invalidated, and nothing else.
/// Checked on every roll of a seeded sequence, with answers bit-identical
/// to a cold engine on the same generation. The graph is sparse enough
/// (1000 nodes, mean degree 8) that a 2-hop region is local, as on a real
/// graph.
#[test]
fn each_roll_recomputes_only_the_invalidated_entries() {
    let ds = wn18_like(&Wn18Config {
        num_nodes: 1000,
        num_edges: 4000,
        train_links: 16,
        test_links: 32,
        ..Default::default()
    });
    let artifact = train_artifact(&ds);
    let queries: Vec<LinkQuery> = ds
        .train
        .iter()
        .chain(&ds.test)
        .map(|l| (l.u, l.v))
        .collect();
    assert!(queries.len() <= CACHE, "the working set must fit the cache");
    let wal_path = scratch_wal("incremental", 0);
    let store = GraphStore::create(ds.clone(), &wal_path).expect("store");

    let mut server = BatchServer::start(
        engine(&artifact, ds.clone(), 0, &Obs::enabled(), None),
        BatchConfig::default(),
    );
    server.submit_all_strict(&queries).expect("warm");
    let num_nodes = ds.graph.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xbe4c_0008);
    let mut total_invalidated = 0;
    for generation in 1..=6u64 {
        let commit = store
            .apply(
                &[GraphMutation::AddEdge {
                    u: rng.random_range(0..num_nodes),
                    v: rng.random_range(0..num_nodes),
                    etype: rng.random_range(0u16..4),
                }],
                None,
            )
            .expect("commit");
        assert_eq!(commit.generation, generation);
        // A registry per incarnation, so the misses read below are the
        // new engine's own.
        let (next, (invalidated, migrated)) =
            roll(server, &artifact, &commit, &Obs::enabled(), None);
        server = next;
        assert!(migrated > 0, "roll {generation}: no entry survived");
        let answers = server.submit_all_strict(&queries).expect("answers");
        assert_eq!(
            server.engine().obs().counter("serve/cache_misses").get(),
            invalidated as u64,
            "roll {generation}: only invalidated entries may be recomputed"
        );
        let cold = InferenceEngine::load(artifact.as_slice(), (*commit.dataset).clone(), CACHE)
            .expect("engine")
            .with_graph_generation(commit.generation);
        let expected: Vec<_> = queries.iter().map(|&q| cold.predict_one(q)).collect();
        assert_eq!(
            answers, expected,
            "roll {generation}: migrated answers diverged"
        );
        total_invalidated += invalidated;
    }
    assert!(total_invalidated > 0, "no roll touched a cached entry");
    server.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}
