//! Fault-tolerance guarantees of the batch server, exercised through the
//! deterministic [`FaultInjector`]: injected worker panics, transient
//! engine faults, artificial latency, queue overflow, and per-request
//! deadlines. The invariant under test everywhere: every submitted query
//! is resolved — with an answer or a typed error — and the caller never
//! panics.

use am_dgcnn::{Experiment, FaultInjector, FaultPlan, FeatureConfig, GnnKind, Hyperparams};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_serve::{
    save_model, ArtifactMeta, BatchConfig, BatchServer, Error, InferenceEngine, RobustnessConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Train once per process; every test (and every proptest case) reloads
/// the same artifact bytes into a fresh engine.
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

fn faulty_engine(plan: FaultPlan) -> (InferenceEngine, &'static Dataset) {
    let (artifact, ds) = artifact_and_ds();
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64)
        .expect("engine")
        .with_fault_injector(Arc::new(FaultInjector::new(plan)));
    (engine, ds)
}

/// One-query-per-batch policy so engine calls map 1:1 to queries.
/// A `serve/*` counter from the registry behind `server`'s engine.
fn count(server: &BatchServer, name: &str) -> u64 {
    server.engine().obs().counter(name).get()
}

fn one_at_a_time() -> BatchConfig {
    BatchConfig {
        max_batch: 1,
        max_wait: Duration::from_micros(100),
    }
}

/// The acceptance run: 1000 queries against a worker that panics every
/// 49th engine call. No caller panics, every query resolves, the worker is
/// respawned after each death, and the breaker's trips and resets are all
/// visible in the engine's registry.
#[test]
fn injected_panics_never_reach_callers_and_worker_respawns() {
    let (engine, ds) = faulty_engine(FaultPlan::panic_every(49));
    let server = BatchServer::start_with(
        engine,
        one_at_a_time(),
        RobustnessConfig {
            // Trip on every failure; zero cooldown means the next submit is
            // always admitted as the half-open probe, so the sequential
            // submit/wait loop below never sheds and the counts are exact.
            breaker_threshold: 1,
            breaker_cooldown: Duration::ZERO,
            ..RobustnessConfig::default()
        },
    );
    let queries: Vec<(u32, u32)> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let (mut answered, mut panicked) = (0u64, 0u64);
    for i in 0..1000 {
        let pending = server
            .submit(queries[i % queries.len()])
            .expect("zero-cooldown breaker always admits");
        match pending.wait() {
            Ok(probs) => {
                assert_eq!(probs.len(), ds.num_classes);
                answered += 1;
            }
            Err(Error::WorkerPanicked) => panicked += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // 1000 queries, one engine call each: calls 49, 98, ..., 980 panic.
    assert_eq!(panicked, 20);
    assert_eq!(answered, 980);
    assert_eq!(count(&server, "serve/worker_panics"), 20);
    assert_eq!(count(&server, "serve/worker_respawns"), 20);
    assert_eq!(count(&server, "serve/breaker_trips"), 20);
    assert_eq!(count(&server, "serve/breaker_resets"), 20);
    assert_eq!(count(&server, "serve/failed_queries"), 20);
    assert_eq!(count(&server, "serve/shed_degraded"), 0);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded() {
    // Every engine call sleeps, so the worker is pinned while we flood the
    // two-slot queue.
    let (engine, ds) = faulty_engine(FaultPlan {
        latency_every_n_calls: Some(1),
        latency: Duration::from_millis(50),
        ..FaultPlan::default()
    });
    let server = BatchServer::start_with(
        engine,
        one_at_a_time(),
        RobustnessConfig {
            queue_capacity: 2,
            ..RobustnessConfig::default()
        },
    );
    let q = (ds.test[0].u, ds.test[0].v);
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for _ in 0..6 {
        match server.submit(q) {
            Ok(p) => pending.push(p),
            Err(e) => {
                assert_eq!(e, Error::Overloaded { capacity: 2 });
                shed += 1;
            }
        }
    }
    // At most one query is in flight and two are queued: of six rapid-fire
    // submissions at least three must have been shed.
    assert!(shed >= 3, "expected >=3 shed, got {shed}");
    for p in pending {
        p.wait().expect("admitted queries still answer");
    }
    assert_eq!(count(&server, "serve/shed_overload"), shed);
    server.shutdown();
}

#[test]
fn deadline_expires_while_queued() {
    let (engine, ds) = faulty_engine(FaultPlan {
        latency_every_n_calls: Some(1),
        latency: Duration::from_millis(50),
        ..FaultPlan::default()
    });
    let server = BatchServer::start_with(engine, one_at_a_time(), RobustnessConfig::default());
    let q = (ds.test[0].u, ds.test[0].v);

    // Occupy the worker, then queue one query that is already past its
    // deadline and one with plenty of budget.
    let busy = server.submit(q).expect("admitted");
    std::thread::sleep(Duration::from_millis(10));
    let expired = server
        .submit_with_deadline(q, Duration::ZERO)
        .expect("admission does not check the deadline");
    let relaxed = server
        .submit_with_deadline(q, Duration::from_secs(30))
        .expect("admitted");

    assert!(busy.wait().is_ok());
    assert_eq!(expired.wait(), Err(Error::DeadlineExceeded));
    assert!(relaxed.wait().is_ok());
    assert_eq!(count(&server, "serve/deadline_expired"), 1);
    server.shutdown();
}

#[test]
fn transient_fault_is_retried_to_success() {
    let (engine, ds) = faulty_engine(FaultPlan::transient_on(&[1]));
    let server = BatchServer::start_with(
        engine,
        one_at_a_time(),
        RobustnessConfig {
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            ..RobustnessConfig::default()
        },
    );
    let q = (ds.test[0].u, ds.test[0].v);
    let probs = server
        .submit(q)
        .expect("admitted")
        .wait()
        .expect("first call faults, first retry answers");
    assert_eq!(probs.len(), ds.num_classes);
    assert_eq!(count(&server, "serve/engine_retries"), 1);
    assert_eq!(count(&server, "serve/failed_queries"), 0);
    server.shutdown();
}

#[test]
fn exhausted_retry_budget_fails_the_batch_with_engine_fault() {
    let (engine, ds) = faulty_engine(FaultPlan {
        transient_every_n_calls: Some(1),
        ..FaultPlan::default()
    });
    let server = BatchServer::start_with(
        engine,
        one_at_a_time(),
        RobustnessConfig {
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            breaker_threshold: 10,
            ..RobustnessConfig::default()
        },
    );
    let q = (ds.test[0].u, ds.test[0].v);
    let outcome = server.submit(q).expect("admitted").wait();
    assert_eq!(outcome, Err(Error::EngineFault { retries: 2 }));
    assert_eq!(count(&server, "serve/engine_retries"), 2);
    assert_eq!(count(&server, "serve/failed_queries"), 1);
    server.shutdown();
}

#[test]
fn begun_shutdown_rejects_new_queries_and_drains_old() {
    let (engine, ds) = faulty_engine(FaultPlan::default());
    let server =
        BatchServer::start_with(engine, BatchConfig::default(), RobustnessConfig::default());
    let queries: Vec<(u32, u32)> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let pending: Vec<_> = queries
        .iter()
        .map(|&q| server.submit(q).expect("admitted"))
        .collect();
    server.begin_shutdown();
    assert_eq!(
        server.submit(queries[0]).err(),
        Some(Error::ServerShutdown),
        "post-shutdown admissions must be rejected, not queued"
    );
    for p in pending {
        p.wait()
            .expect("queries admitted before shutdown still drain");
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the fault schedule, a burst of queries terminates with
    /// every query resolved: no deadlock, no caller panic, no lost reply.
    /// Zero in a schedule slot disables that fault.
    #[test]
    fn random_fault_schedules_never_wedge_or_panic_callers(
        panic_every in 0u64..6,
        transient_every in 0u64..5,
        latency_every in 0u64..4,
        num_queries in 1usize..40,
        capacity in 1usize..16,
        threshold in 1u32..4,
    ) {
        let plan = FaultPlan {
            panic_every_n_calls: (panic_every > 0).then_some(panic_every),
            transient_every_n_calls: (transient_every > 0).then_some(transient_every),
            latency_every_n_calls: (latency_every > 0).then_some(latency_every),
            latency: Duration::from_micros(200),
            ..FaultPlan::default()
        };
        let (engine, ds) = faulty_engine(plan);
        let server = BatchServer::start_with(
            engine,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
            },
            RobustnessConfig {
                queue_capacity: capacity,
                max_retries: 1,
                retry_backoff: Duration::from_micros(100),
                breaker_threshold: threshold,
                breaker_cooldown: Duration::from_micros(100),
            },
        );
        let queries: Vec<(u32, u32)> = ds.test.iter().map(|l| (l.u, l.v)).collect();
        let mut resolved = 0usize;
        let mut pending = Vec::new();
        for i in 0..num_queries {
            match server.submit(queries[i % queries.len()]) {
                Ok(p) => pending.push(p),
                // Shed at admission (overload or degraded) is a resolution.
                Err(_) => resolved += 1,
            }
        }
        for p in pending {
            // Returning at all — answer or typed error — is the property.
            let _ = p.wait();
            resolved += 1;
        }
        prop_assert_eq!(resolved, num_queries);
        server.shutdown();
    }
}
