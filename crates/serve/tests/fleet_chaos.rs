//! Chaos-harness proof of the fleet invariant: under any deterministic
//! fault schedule that leaves at least one replica healthy, every query
//! submitted to the [`Fleet`] resolves — with probabilities bit-identical
//! to a single clean server's, or with a typed error. Never a hang, never
//! a wrong answer.
//!
//! The schedules come from [`FleetPlan::chaos`], which by construction
//! never faults the protected replica (`seed % replicas`), so the
//! invariant's precondition holds for every generated plan. A fixed seed
//! matrix runs in CI; `AMDGCNN_CHAOS_SEED` adds one more seed from the
//! environment for ad-hoc exploration.

use am_dgcnn::{
    Experiment, FaultInjector, FeatureConfig, FleetAction, FleetInjector, FleetPlan, GnnKind,
    Hyperparams,
};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_obs::Obs;
use amdgcnn_serve::{
    save_model, ArtifactMeta, BatchConfig, BatchServer, ClassProbs, Error, Fleet, FleetConfig,
    FleetHealth, InferenceEngine, LinkQuery, RobustnessConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Train once per process; every fleet and every reference server reloads
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
        let exp = Experiment::builder()
            .gnn(GnnKind::am_dgcnn())
            .hyper(Hyperparams {
                lr: 5e-3,
                hidden_dim: 8,
                sort_k: 10,
            })
            .seed(7)
            .build();
        let mut session = exp.session(&ds, None).expect("session");
        session
            .trainer
            .train(&session.model, &mut session.ps, &session.train_samples, 1)
            .expect("train");
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let meta = ArtifactMeta::describe(&ds, &session.model.cfg, &fcfg, 1).expect("meta");
        let mut buf = Vec::new();
        save_model(&meta, &session.ps, &mut buf).expect("save");
        (buf, ds)
    })
}

/// Ground truth from one clean single server: the bit-exact probabilities
/// every fleet answer must reproduce, whichever replica computed it.
fn reference_answers(queries: &[LinkQuery]) -> HashMap<LinkQuery, ClassProbs> {
    let (artifact, ds) = artifact_and_ds();
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("engine");
    let server = BatchServer::start(engine, BatchConfig::default());
    let mut expected = HashMap::new();
    for &q in queries {
        if let std::collections::hash_map::Entry::Vacant(slot) = expected.entry(q) {
            let probs = server
                .submit(q)
                .expect("reference admits")
                .wait()
                .expect("reference answers");
            slot.insert(probs);
        }
    }
    server.shutdown();
    expected
}

/// A counter from the fleet's registry: its own `fleet/*` counters and the
/// `serve/*` counters of every replica it has run.
fn count(fleet: &Fleet, name: &str) -> u64 {
    fleet.obs().counter(name).get()
}

fn chaos_fleet(plan: &FleetPlan, cfg: FleetConfig) -> Fleet {
    let (artifact, ds) = artifact_and_ds();
    let injectors = plan
        .engine_plans
        .iter()
        .map(|p| Arc::new(FaultInjector::new(p.clone())))
        .collect();
    Fleet::start_with(artifact.clone(), ds.clone(), cfg, Obs::enabled(), injectors)
        .expect("fleet starts")
}

/// Drive `queries` queries through a fleet while replaying a chaos plan,
/// asserting the invariant on every single one. Returns (answered, errors).
fn drive_chaos(fleet: &Fleet, plan: &FleetPlan, queries: &[LinkQuery], n: usize) -> (u64, u64) {
    let expected = reference_answers(queries);
    let injector = FleetInjector::new(plan.clone());
    let (mut answered, mut errored) = (0u64, 0u64);
    for i in 0..n {
        for action in injector.actions_for_next_query() {
            fleet.apply(action).expect("respawn rebuilds from artifact");
        }
        let q = queries[i % queries.len()];
        match fleet.query(q) {
            Ok(probs) => {
                assert_eq!(
                    &probs, &expected[&q],
                    "query {i} ({q:?}): fleet answer diverged from the single-server reference"
                );
                answered += 1;
            }
            // A typed error is a legal resolution; returning at all (no
            // hang) plus bit-identity of every answer is the invariant.
            Err(_) => errored += 1,
        }
    }
    (answered, errored)
}

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 29, 47];
    if let Ok(extra) = std::env::var("AMDGCNN_CHAOS_SEED") {
        seeds.push(extra.parse().expect("AMDGCNN_CHAOS_SEED must be a u64"));
    }
    seeds
}

/// The acceptance run: >=1000 queries per seed against a 3-replica fleet
/// while the chaos schedule crashes, drains, respawns, and breaker-trips
/// the unprotected replicas and their engines inject panics, transients,
/// and latency. Every query resolves, every answer is bit-identical, and
/// — because the protected replica is always routable — no query fails.
#[test]
fn chaos_schedules_never_hang_and_never_corrupt_answers() {
    let (_, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    for seed in chaos_seeds() {
        let plan = FleetPlan::chaos(seed, 3, 1000, 24);
        assert!(plan.faults_possible(), "seed {seed}: degenerate chaos plan");
        let fleet = chaos_fleet(
            &plan,
            FleetConfig {
                replicas: 3,
                hedge_after: Duration::from_millis(5),
                ..FleetConfig::default()
            },
        );
        let (answered, errored) = drive_chaos(&fleet, &plan, &queries, 1000);
        assert_eq!(
            (answered, errored),
            (1000, 0),
            "seed {seed}: protected replica is always routable, so every \
             query must be answered"
        );
        assert_eq!(count(&fleet, "fleet/queries"), 1000, "seed {seed}");
        assert_eq!(count(&fleet, "fleet/answered"), 1000, "seed {seed}");
        let planned = |f: fn(&FleetAction) -> bool| {
            plan.events.iter().filter(|e| f(&e.action)).count() as u64
        };
        let crashes = count(&fleet, "fleet/replica_crashes");
        let drains = count(&fleet, "fleet/replica_drains");
        assert_eq!(
            crashes,
            planned(|a| matches!(a, FleetAction::Crash { .. })),
            "seed {seed}: every planned crash must land (plan only crashes live replicas)"
        );
        assert_eq!(
            count(&fleet, "fleet/replica_respawns"),
            planned(|a| matches!(a, FleetAction::Respawn { .. })),
            "seed {seed}"
        );
        assert_eq!(
            drains,
            planned(|a| matches!(a, FleetAction::Drain { .. })),
            "seed {seed}"
        );
        // The chaos run must actually exercise the router's fault paths.
        if crashes + drains > 0 {
            assert!(
                count(&fleet, "fleet/failovers") > 0,
                "seed {seed}: replicas went down but no query ever failed over"
            );
            assert!(
                count(&fleet, "fleet/health_transitions") > 0,
                "seed {seed}: replicas went down but health never moved"
            );
        }
        // Fleet counters land in the shared obs registry for the report.
        let report = fleet.obs().report();
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("fleet/queries"), "seed {seed}");
        assert!(json.contains("fleet/query"), "seed {seed}");
        fleet.shutdown();
    }
}

/// Killing replicas degrades the fleet but never silences it; respawning
/// restores full health; queries keep answering (bit-identically)
/// throughout. All while the artifact is reloaded from the bytes the
/// fleet retained — no external state needed to heal.
#[test]
fn kill_and_respawn_cycle_degrades_and_recovers_health() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let expected = reference_answers(&queries);
    let fleet =
        Fleet::start(artifact.clone(), ds.clone(), FleetConfig::default()).expect("fleet starts");
    assert_eq!(fleet.health(), FleetHealth::Healthy);

    fleet.kill_replica(0);
    assert_eq!(fleet.health(), FleetHealth::Degraded);
    fleet.kill_replica(1);
    assert_eq!(
        fleet.health(),
        FleetHealth::Degraded,
        "one replica still up"
    );
    for &q in &queries {
        assert_eq!(
            fleet.query(q).expect("last replica answers everything"),
            expected[&q]
        );
    }

    fleet.respawn_replica(0).expect("respawn 0");
    fleet.respawn_replica(1).expect("respawn 1");
    assert_eq!(fleet.health(), FleetHealth::Healthy);
    for &q in &queries {
        assert_eq!(fleet.query(q).expect("healthy fleet answers"), expected[&q]);
    }
    assert_eq!(count(&fleet, "fleet/replica_crashes"), 2);
    assert_eq!(count(&fleet, "fleet/replica_respawns"), 2);
    assert!(
        count(&fleet, "fleet/health_transitions") >= 2,
        "healthy->degraded->healthy"
    );
    fleet.shutdown();
}

/// One registry counts every replica: the fleet hands its `Obs` to each
/// replica incarnation, so `serve/*` in `fleet.obs()` sums all of them and
/// keeps a crashed replica's counts. With one client thread and hedging
/// pushed out of the way, each answered query runs through exactly one
/// engine once, so `serve/queries` equals `fleet/answered`.
#[test]
fn one_fleet_registry_counts_every_replica() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let fleet = Fleet::start_with(
        artifact.clone(),
        ds.clone(),
        FleetConfig {
            replicas: 3,
            hedge_after: Duration::from_secs(30),
            ..FleetConfig::default()
        },
        Obs::enabled(),
        Vec::new(),
    )
    .expect("fleet starts");
    for &q in &queries {
        fleet.query(q).expect("healthy fleet answers");
    }
    let before_kill = count(&fleet, "serve/queries");
    assert_eq!(before_kill, count(&fleet, "fleet/answered"));
    fleet.kill_replica(1);
    assert_eq!(
        count(&fleet, "serve/queries"),
        before_kill,
        "a crashed replica's counts stay in the registry"
    );
    for &q in &queries {
        fleet.query(q).expect("two live replicas answer");
    }
    assert_eq!(
        count(&fleet, "serve/queries"),
        count(&fleet, "fleet/answered")
    );
    assert_eq!(count(&fleet, "fleet/answered"), 2 * queries.len() as u64);
    let report = fleet.obs().report();
    let engine = report.span("serve/engine").expect("replica batches timed");
    assert!(engine.count > 0);
    fleet.shutdown();
}

/// A replica whose breaker is forced open still serves as a cooldown
/// probe path, and the router spills its keys to ring successors in the
/// meantime — queries keep answering with bit-identical probabilities.
#[test]
fn tripped_breaker_spills_to_successors_without_wrong_answers() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let expected = reference_answers(&queries);
    let fleet = Fleet::start(
        artifact.clone(),
        ds.clone(),
        FleetConfig {
            robust: RobustnessConfig {
                // A long cooldown keeps the breaker open for the whole
                // test, forcing the spill path rather than a lucky probe.
                breaker_cooldown: Duration::from_secs(60),
                ..RobustnessConfig::default()
            },
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");
    fleet.trip_replica_breaker(0);
    assert_eq!(fleet.health(), FleetHealth::Degraded);
    for &q in &queries {
        assert_eq!(
            fleet.query(q).expect("successors absorb the spilled keys"),
            expected[&q]
        );
    }
    fleet.shutdown();
}

/// Regression for the drain guarantee: queries sitting in a draining
/// replica's queue are *redistributed* to ring successors — reply
/// channels intact — not resolved with errors. Callers blocked on those
/// queries get correct answers from whichever replica adopted them.
#[test]
fn drain_redistributes_queued_requests_instead_of_erroring_them() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let expected = reference_answers(&queries);
    // Pin every engine call on the victim replica at 40ms so its queue
    // backs up behind the in-flight batch; hedging is pushed out of the
    // way so redistribution — not a hedge — must deliver the answers.
    let slow = am_dgcnn::FaultPlan {
        latency_every_n_calls: Some(1),
        latency: Duration::from_millis(40),
        ..am_dgcnn::FaultPlan::default()
    };
    let victim = 0usize;
    let fleet = Arc::new(
        Fleet::start_with(
            artifact.clone(),
            ds.clone(),
            FleetConfig {
                replicas: 2,
                batch: BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::from_micros(100),
                },
                hedge_after: Duration::from_secs(30),
                ..FleetConfig::default()
            },
            Obs::disabled(),
            vec![Arc::new(FaultInjector::new(slow))],
        )
        .expect("fleet starts"),
    );
    // Keys whose primary is the slow victim replica, so fleet queries
    // queue up behind its pinned worker.
    let victim_keys: Vec<LinkQuery> = queries
        .iter()
        .copied()
        .filter(|&q| fleet.route(q) == victim)
        .collect();
    assert!(
        !victim_keys.is_empty(),
        "fixture must hash at least one test link to replica {victim}"
    );
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let fleet = Arc::clone(&fleet);
            let q = victim_keys[i % victim_keys.len()];
            std::thread::spawn(move || (q, fleet.query(q)))
        })
        .collect();
    // Let the clients pile into the victim's queue, then drain it.
    std::thread::sleep(Duration::from_millis(10));
    let moved = fleet.drain_replica(victim);
    assert!(
        moved > 0,
        "victim's queue should have held requests to redistribute"
    );
    for h in handles {
        let (q, outcome) = h.join().expect("client thread");
        let probs = outcome.expect("drained queries are adopted, not errored");
        assert_eq!(
            probs, expected[&q],
            "adopted query answered bit-identically"
        );
    }
    assert_eq!(count(&fleet, "fleet/replica_drains"), 1);
    assert!(count(&fleet, "fleet/redistributed") >= moved as u64);
    fleet.shutdown();
}

/// Graceful operations under live concurrent traffic: replicas are
/// drained and respawned one after another while client threads hammer
/// the fleet. Not a single request fails, and every answer stays
/// bit-identical.
#[test]
fn drain_respawn_under_live_traffic_loses_no_request() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let expected = Arc::new(reference_answers(&queries));
    let fleet = Arc::new(
        Fleet::start(artifact.clone(), ds.clone(), FleetConfig::default()).expect("fleet starts"),
    );
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let fleet = Arc::clone(&fleet);
            let expected = Arc::clone(&expected);
            let queries = queries.clone();
            std::thread::spawn(move || {
                for i in 0..120 {
                    let q = queries[(c * 7 + i) % queries.len()];
                    let probs = fleet
                        .query(q)
                        .expect("graceful drain/respawn must not fail a request");
                    assert_eq!(probs, expected[&q]);
                }
            })
        })
        .collect();
    for r in 0..fleet.replicas() {
        fleet.drain_replica(r);
        fleet.respawn_replica(r).expect("respawn under traffic");
        std::thread::sleep(Duration::from_millis(2));
    }
    for c in clients {
        c.join().expect("client saw no failed request");
    }
    assert_eq!(count(&fleet, "fleet/failed"), 0);
    assert_eq!(count(&fleet, "fleet/queries"), 4 * 120);
    fleet.shutdown();
}

/// Single-replica degenerate case, drain side: draining the only replica
/// has no ring successor to redistribute to, so queued requests and later
/// queries must fail *typed* ([`Error::FleetUnavailable`]) and *promptly*
/// — never hang on a ring with no live slot.
#[test]
fn single_replica_drain_fails_typed_not_hanging() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    // Pin the lone engine so client queries pile up in its queue before
    // the drain pulls the rug out.
    let slow = am_dgcnn::FaultPlan {
        latency_every_n_calls: Some(1),
        latency: Duration::from_millis(40),
        ..am_dgcnn::FaultPlan::default()
    };
    let fleet = Arc::new(
        Fleet::start_with(
            artifact.clone(),
            ds.clone(),
            FleetConfig {
                replicas: 1,
                batch: BatchConfig {
                    max_batch: 1,
                    max_wait: Duration::from_micros(100),
                },
                hedge_after: Duration::from_secs(30),
                ..FleetConfig::default()
            },
            Obs::disabled(),
            vec![Arc::new(FaultInjector::new(slow))],
        )
        .expect("fleet starts"),
    );
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let fleet = Arc::clone(&fleet);
            let q = queries[i % queries.len()];
            std::thread::spawn(move || fleet.query(q))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    // No sibling can adopt the requests queued behind the pinned engine
    // call, so none counts as redistributed.
    assert_eq!(fleet.drain_replica(0), 0);
    assert_eq!(count(&fleet, "fleet/redistributed"), 0);
    // Queued requests had nowhere to go: each resolves (in-flight work may
    // still answer; the rest error typed), and none hangs the join.
    for h in handles {
        match h.join().expect("client thread resolves") {
            Ok(probs) => assert_eq!(probs.len(), ds.num_classes),
            Err(e) => assert!(
                matches!(e, Error::FleetUnavailable { .. }),
                "queued request on a successor-less drain must fail typed, got {e}"
            ),
        }
    }
    // The empty ring refuses new queries immediately with the same type.
    let err = fleet.query(queries[0]).expect_err("no replica is routable");
    assert!(matches!(err, Error::FleetUnavailable { .. }), "{err}");
    assert_eq!(count(&fleet, "fleet/replica_drains"), 1);
    fleet.shutdown();
}

/// Single-replica degenerate case, crash side: after the last replica
/// crashes the fleet reports [`Error::FleetUnavailable`]; respawning that
/// slot restores routing and answers stay bit-identical.
#[test]
fn respawn_after_last_crash_restores_routing() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let expected = reference_answers(&queries);
    let fleet = Fleet::start(
        artifact.clone(),
        ds.clone(),
        FleetConfig {
            replicas: 1,
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");
    for &q in &queries {
        assert_eq!(fleet.query(q).expect("healthy"), expected[&q]);
    }
    fleet.kill_replica(0);
    let err = fleet
        .query(queries[0])
        .expect_err("a fully crashed fleet cannot answer");
    assert!(matches!(err, Error::FleetUnavailable { .. }), "{err}");
    fleet.respawn_replica(0).expect("respawn from artifact");
    for &q in &queries {
        assert_eq!(
            fleet.query(q).expect("routing restored"),
            expected[&q],
            "post-respawn answers are bit-identical"
        );
    }
    assert_eq!(count(&fleet, "fleet/replica_crashes"), 1);
    assert_eq!(count(&fleet, "fleet/replica_respawns"), 1);
    fleet.shutdown();
}

/// Why a fleet out-serves one server of the same size: the working set is
/// twice one replica's cache, so a lone engine thrashes its LRU on every
/// pass, while consistent hashing gives each of 4 replicas a shard that
/// fits. After one warm pass the fleet answers everything from cache,
/// without hedging or failing over.
#[test]
fn sharded_caches_absorb_a_working_set_one_server_thrashes() {
    let (artifact, ds) = artifact_and_ds();
    let queries: Vec<LinkQuery> = ds
        .train
        .iter()
        .chain(&ds.test)
        .map(|l| (l.u, l.v))
        .collect();
    let expected = reference_answers(&queries);
    assert_eq!(expected.len(), queries.len(), "pairs must be distinct");
    let capacity = queries.len() / 2;

    let fleet = Fleet::start(
        artifact.clone(),
        ds.clone(),
        FleetConfig {
            replicas: 4,
            cache_capacity: capacity,
            hedge_after: Duration::from_secs(30),
            ..FleetConfig::default()
        },
    )
    .expect("fleet starts");
    for r in 0..4 {
        let shard = queries.iter().filter(|&&q| fleet.route(q) == r).count();
        assert!(shard <= capacity, "replica {r} owns {shard} keys");
    }
    for &q in &queries {
        assert_eq!(fleet.query(q).expect("warm pass"), expected[&q]);
    }
    let warm_misses = count(&fleet, "serve/cache_misses");
    for &q in &queries {
        assert_eq!(fleet.query(q).expect("second pass"), expected[&q]);
    }
    assert_eq!(count(&fleet, "serve/cache_misses"), warm_misses);
    assert_eq!(count(&fleet, "fleet/hedges"), 0);
    assert_eq!(count(&fleet, "fleet/failovers"), 0);
    fleet.shutdown();

    let lone = InferenceEngine::load(artifact.as_slice(), ds.clone(), capacity).expect("engine");
    for &q in &queries {
        lone.predict_one(q);
    }
    let lone_misses = lone.obs().counter("serve/cache_misses");
    let misses = lone_misses.get();
    for &q in &queries {
        assert_eq!(lone.predict_one(q), expected[&q]);
    }
    assert_eq!(
        lone_misses.get() - misses,
        queries.len() as u64,
        "a lone engine must miss on every second-pass query"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fleet invariant over *random* chaos schedules: any generated
    /// plan (crashes, drains, respawns, breaker trips, engine faults on
    /// unprotected replicas) leaves every query resolved and every
    /// answer bit-identical. Smaller than the seed-matrix run, but the
    /// schedule space is explored afresh on every test run.
    #[test]
    fn random_chaos_schedules_uphold_the_fleet_invariant(
        seed in 0u64..1_000_000,
        replicas in 2usize..5,
        events in 2usize..12,
    ) {
        let (_, ds) = artifact_and_ds();
        let queries: Vec<LinkQuery> = ds.test.iter().map(|l| (l.u, l.v)).collect();
        let n = 150;
        let plan = FleetPlan::chaos(seed, replicas, n as u64, events);
        let fleet = chaos_fleet(&plan, FleetConfig {
            replicas,
            hedge_after: Duration::from_millis(5),
            ..FleetConfig::default()
        });
        let (answered, errored) = drive_chaos(&fleet, &plan, &queries, n);
        prop_assert_eq!(answered + errored, n as u64, "every query resolves");
        prop_assert_eq!(errored, 0, "protected replica always answers");
        fleet.shutdown();
    }
}
