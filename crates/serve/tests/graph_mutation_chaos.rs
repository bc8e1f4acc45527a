//! Chaos-harness proof of the live-mutation invariants: a fleet serving a
//! graph that mutates under it — interleaved with replica crashes, drains,
//! respawns, breaker trips, engine faults, and injected WAL disk faults —
//! never hangs, never serves a stale answer, and keeps its mutation log
//! replayable to a graph bit-identical to the live one.
//!
//! Concretely, per seeded schedule:
//!
//! - **No hang, no wrong answer.** Every query resolves with
//!   probabilities bit-identical to a clean reference engine bound to the
//!   graph generation that was live when the query was submitted.
//! - **Unaffected means untouched.** A query whose endpoints never fell
//!   inside any commit's k-hop region answers bit-identically to the
//!   static generation-0 reference for the whole run — the invalidation
//!   rule's soundness contract, observed end to end.
//! - **No stale serves.** Every replica's `stale_serves` counter stays 0:
//!   incremental invalidation dropped every affected cache entry, so the
//!   generation-tag backstop in the engine never fired.
//! - **Durability.** A faulted WAL append is rejected (the old generation
//!   keeps serving), and at any point the log replays over the base graph
//!   to the live graph's exact digest — including through a simulated
//!   crash (fresh [`GraphStore::open`] from the file).

use am_dgcnn::{
    Experiment, FaultInjector, FeatureConfig, FleetInjector, FleetPlan, GnnKind, Hyperparams,
};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_graph::{graph_digest, GraphMutation, MutableGraph};
use amdgcnn_obs::Obs;
use amdgcnn_serve::{
    save_model, ArtifactMeta, Fleet, FleetConfig, GraphStore, GraphStoreError, InferenceEngine,
    LinkQuery,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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

/// Train once per process; every fleet and reference engine reloads the
/// same artifact bytes.
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
                // Mostly appends: the graph should grow under the fleet.
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

/// The acceptance run: >=1000 queries interleaved with >=100 mutation
/// bursts per seed against a 3-replica fleet under full chaos (crashes,
/// drains, respawns, breaker trips, engine faults, WAL disk faults).
#[test]
fn mutating_graph_under_chaos_serves_fresh_answers_and_replays_exactly() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    const N: usize = 1100;
    const BURSTS: usize = 110;

    for seed in chaos_seeds() {
        let plan = FleetPlan::chaos_with_mutations(seed, 3, N as u64, 24, BURSTS, 3);
        assert!(plan.faults_possible(), "seed {seed}: degenerate plan");
        assert!(plan.mutations.len() >= BURSTS, "seed {seed}");
        let planned_ops: u64 = plan.mutations.iter().map(|m| u64::from(m.ops)).sum();
        assert!(planned_ops >= 100, "seed {seed}: too few mutation ops");

        let obs = Obs::enabled();
        let wal_path = scratch_wal("accept", seed);
        let store = GraphStore::create(ds.clone(), &wal_path)
            .expect("graph store")
            .with_obs(obs.clone());
        let injectors = plan
            .engine_plans
            .iter()
            .map(|p| Arc::new(FaultInjector::new(p.clone())))
            .collect();
        let fleet = Fleet::start_with(
            artifact.clone(),
            ds.clone(),
            FleetConfig {
                replicas: 3,
                hedge_after: Duration::from_millis(5),
                ..FleetConfig::default()
            },
            obs.clone(),
            injectors,
        )
        .expect("fleet starts");
        let injector = FleetInjector::new(plan.clone());
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

        for i in 0..N {
            for action in injector.actions_for_next_query() {
                fleet.apply(action).expect("respawn rebuilds from artifact");
            }
            for event in injector.mutations_before((i + 1) as u64) {
                let batch = mutgen.batch(event.ops);
                match store.apply(&batch, event.disk_fault) {
                    Ok(commit) => {
                        assert!(
                            event.disk_fault.is_none(),
                            "seed {seed}: a damaged WAL append must refuse the commit"
                        );
                        mutgen.committed(&batch);
                        for &q in &queries {
                            if commit.region.affects(q.0, q.1) {
                                ever_affected.insert(q);
                            }
                        }
                        gen_datasets.insert(commit.generation, Arc::clone(&commit.dataset));
                        fleet
                            .roll_graph(commit.dataset, &commit.region, commit.generation)
                            .expect("graph roll rebuilds from artifact");
                    }
                    Err(GraphStoreError::WalFault) => {
                        assert!(
                            event.disk_fault.is_some(),
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
            let probs = fleet
                .query(q)
                .expect("protected replica is always routable");
            // Ground truth for the generation live at submission time.
            let generation = store.generation();
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

        // Every mutation landed or was refused for exactly the planned
        // durability faults; the fleet rolled once per commit.
        let commits = store.commits();
        assert_eq!(
            commits + expected_rejects,
            plan.mutations.len() as u64,
            "seed {seed}: every burst must commit or be refused"
        );
        assert_eq!(store.rejected_commits(), expected_rejects, "seed {seed}");
        assert!(faulted_some, "seed {seed}: plan scheduled no WAL faults");
        assert_eq!(store.generation(), commits, "seed {seed}");
        let count = |name: &str| fleet.obs().counter(name).get();
        assert_eq!(count("fleet/graph_rolls"), commits, "seed {seed}");
        assert_eq!(count("fleet/queries"), N as u64, "seed {seed}");
        assert_eq!(count("fleet/answered"), N as u64, "seed {seed}");

        // The invalidation rule did real work and never let a stale
        // entry through: the engines' generation-tag backstop stayed
        // silent on every replica incarnation, crashed ones included.
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

        fleet.shutdown();
        let _ = std::fs::remove_file(&wal_path);
    }
}

/// Incremental invalidation does real, measurable work: across a roll,
/// unaffected entries survive in the replica caches (migrated > 0 on some
/// roll) and affected ones are dropped (invalidated > 0 overall) — while
/// answers stay exact.
#[test]
fn graph_roll_migrates_survivors_and_drops_affected_entries() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let obs = Obs::enabled();
    let wal_path = scratch_wal("roll", 0);
    let store = GraphStore::create(ds.clone(), &wal_path).expect("store");
    let fleet = Fleet::start_with(
        artifact.clone(),
        ds.clone(),
        FleetConfig::default(),
        obs.clone(),
        Vec::new(),
    )
    .expect("fleet");

    // Warm every replica cache.
    for _ in 0..3 {
        for &q in &queries {
            fleet.query(q).expect("healthy fleet answers");
        }
    }

    // One mutation next to the first test link's source endpoint.
    let commit = store
        .apply(
            &[GraphMutation::SetNodeType {
                node: queries[0].0,
                ntype: 0,
            }],
            None,
        )
        .expect("commit");
    assert!(commit.region.affects(queries[0].0, queries[0].1));
    fleet
        .roll_graph(commit.dataset.clone(), &commit.region, commit.generation)
        .expect("roll");
    assert_eq!(fleet.graph_generation(), 1);

    let count = |name: &str| fleet.obs().counter(name).get();
    assert!(
        count("serve/cache_invalidated") > 0,
        "the affected entry must be dropped"
    );
    // The region is local, so at least one of the 8 cached test links
    // should have survived the roll on some replica.
    let survivors: Vec<_> = queries
        .iter()
        .filter(|q| !commit.region.affects(q.0, q.1))
        .collect();
    if !survivors.is_empty() {
        assert!(
            count("serve/cache_migrated") > 0,
            "unaffected entries must carry across"
        );
    }

    // Post-roll answers match a clean engine on the new generation, and
    // the stale backstop never fired.
    let fresh = InferenceEngine::load(artifact.as_slice(), (*commit.dataset).clone(), 64)
        .expect("reference");
    for &q in &queries {
        assert_eq!(fleet.query(q).expect("answers"), fresh.predict_one(q));
    }
    assert_eq!(count("serve/stale_serves"), 0);

    fleet.shutdown();
    let _ = std::fs::remove_file(&wal_path);
}

/// Why incremental invalidation beats flushing the cache on every roll:
/// an engine that adopts its predecessor's cache with
/// [`InferenceEngine::migrate_cache_from`] recomputes exactly the entries
/// the commit's k-hop region invalidated, and nothing else. Checked on
/// every roll of a seeded sequence, with answers bit-identical to a cold
/// engine on the same generation. The graph is sparse enough (1000 nodes,
/// mean degree 8) that a 2-hop region is local, as on a real graph.
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
    let capacity = 2 * queries.len();
    let wal_path = scratch_wal("incremental", 0);
    let store = GraphStore::create(ds.clone(), &wal_path).expect("store");

    let mut engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), capacity)
        .expect("engine")
        .with_graph_generation(0);
    for &q in &queries {
        engine.predict_one(q);
    }
    let num_nodes = ds.graph.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xbe4c_0008);
    let mut total_invalidated = 0;
    for roll in 1..=6u64 {
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
        assert_eq!(commit.generation, roll);
        let load = || {
            InferenceEngine::load(artifact.as_slice(), (*commit.dataset).clone(), capacity)
                .expect("engine")
                .with_graph_generation(commit.generation)
        };
        let next = load();
        let (invalidated, migrated) = next.migrate_cache_from(&engine, &commit.region);
        assert!(migrated > 0, "roll {roll}: no entry survived");
        let answers: Vec<_> = queries.iter().map(|&q| next.predict_one(q)).collect();
        assert_eq!(
            next.obs().counter("serve/cache_misses").get(),
            invalidated as u64,
            "roll {roll}: only invalidated entries may be recomputed"
        );
        let cold = load();
        let expected: Vec<_> = queries.iter().map(|&q| cold.predict_one(q)).collect();
        assert_eq!(answers, expected, "roll {roll}: migrated answers diverged");
        total_invalidated += invalidated;
        engine = next;
    }
    assert!(total_invalidated > 0, "no roll touched a cached entry");
    let _ = std::fs::remove_file(&wal_path);
}
