//! End-to-end serving guarantees: a reloaded artifact is the trained model
//! (bit-exact metrics and probabilities), the batch server answers exactly
//! like direct engine calls, the cache counters add up, and one shared
//! observability registry sees every stage of the train → resume → serve
//! lifecycle.

use am_dgcnn::{evaluate_model, predict_probs, Experiment, FeatureConfig, GnnKind, Hyperparams};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_obs::{Obs, Report};
use amdgcnn_serve::{
    load_model, save_model, ArtifactMeta, BatchConfig, BatchServer, InferenceEngine, LinkQuery,
};
use std::time::Duration;

fn small_dataset() -> Dataset {
    wn18_like(&Wn18Config {
        num_nodes: 120,
        num_edges: 420,
        train_links: 60,
        test_links: 20,
        ..Default::default()
    })
}

fn fast_hyper() -> Hyperparams {
    Hyperparams {
        lr: 5e-3,
        hidden_dim: 8,
        sort_k: 10,
    }
}

/// Train briefly, save an artifact, and return everything a test needs.
fn trained_artifact(ds: &Dataset) -> (ArtifactMeta, Vec<u8>, am_dgcnn::Session) {
    let exp = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(fast_hyper())
        .seed(9)
        .build();
    let mut session = exp.session(ds, None).expect("session");
    session
        .trainer
        .train(&session.model, &mut session.ps, &session.train_samples, 2)
        .expect("train");
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let meta = ArtifactMeta::describe(ds, &session.model.cfg, &fcfg, 2).expect("meta");
    let mut buf = Vec::new();
    save_model(&meta, &session.ps, &mut buf).expect("save");
    (meta, buf, session)
}

#[test]
fn reloaded_model_reproduces_exact_eval_metrics() {
    let ds = small_dataset();
    let (_, artifact, session) = trained_artifact(&ds);
    let live = session.evaluate();

    let (meta, loaded_ps) = load_model(artifact.as_slice()).expect("load");
    let (model, ps) = amdgcnn_serve::instantiate(&meta, &loaded_ps).expect("instantiate");
    let reloaded = evaluate_model(&model, &ps, &session.test_samples);

    // Bit-exact: same parameters, same samples, same deterministic forward.
    assert_eq!(live, reloaded);

    // And so are the raw probabilities.
    let p_live = predict_probs(&session.model, &session.ps, &session.test_samples);
    let p_reload = predict_probs(&model, &ps, &session.test_samples);
    assert_eq!(p_live.data(), p_reload.data());
}

#[test]
fn engine_answers_match_training_time_predictions() {
    let ds = small_dataset();
    let (_, artifact, session) = trained_artifact(&ds);
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("engine");

    let queries: Vec<(u32, u32)> = ds.test.iter().map(|l| (l.u, l.v)).collect();
    let answers = engine.predict(&queries);

    let reference = predict_probs(&session.model, &session.ps, &session.test_samples);
    assert_eq!(answers.len(), ds.test.len());
    for (i, probs) in answers.iter().enumerate() {
        assert_eq!(probs.as_slice(), reference.row(i), "query {i}");
    }
}

#[test]
fn batched_and_unbatched_answers_are_identical() {
    let ds = small_dataset();
    let (_, artifact, _) = trained_artifact(&ds);
    let queries: Vec<(u32, u32)> = ds.test.iter().map(|l| (l.u, l.v)).collect();

    // One-at-a-time through an uncached engine.
    let plain = InferenceEngine::load(artifact.as_slice(), ds.clone(), 0).expect("engine");
    let unbatched: Vec<Vec<f32>> = queries.iter().map(|&q| plain.predict_one(q)).collect();

    // Micro-batched through the server, cache enabled.
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("engine");
    let server = BatchServer::start(
        engine,
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(5),
        },
    );
    let batched = server.submit_all_strict(&queries).expect("batched answers");

    assert_eq!(unbatched, batched);

    let count = |name: &str| server.engine().obs().counter(name).get();
    assert_eq!(count("serve/queries"), queries.len() as u64);
    let batches = count("serve/batches");
    assert!(batches >= 1);
    assert!(batches <= count("serve/queries"), "no batch runs empty");
    server.shutdown();
}

#[test]
fn cache_hits_are_counted_and_answers_stay_stable() {
    let ds = small_dataset();
    let (_, artifact, _) = trained_artifact(&ds);
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("engine");

    let hot = (ds.test[0].u, ds.test[0].v);
    let first = engine.predict_one(hot);
    for _ in 0..4 {
        assert_eq!(engine.predict_one(hot), first);
    }
    let count = |name: &str| engine.obs().counter(name).get();
    // The LRU hit rate is cache_hits / (cache_hits + cache_misses): 4/5.
    assert_eq!(count("serve/queries"), 5);
    assert_eq!(count("serve/cache_misses"), 1);
    assert_eq!(count("serve/cache_hits"), 4);
    assert_eq!(count("serve/dedup_hits"), 0);
    assert_eq!(engine.cache_len(), 1);

    // Duplicates inside one batch are answered once, counted as dedup hits
    // rather than LRU hits: only the unique copy probes the cache.
    let batch = engine.predict(&[hot, hot, hot]);
    assert_eq!(batch, vec![first.clone(), first.clone(), first]);
    // Batch dedup stays out of the hit rate, which is now 5/6.
    assert_eq!(count("serve/queries"), 8);
    assert_eq!(count("serve/cache_misses"), 1);
    assert_eq!(count("serve/cache_hits"), 5);
    assert_eq!(count("serve/dedup_hits"), 2);
}

#[test]
fn engine_refuses_mismatched_dataset() {
    let ds = small_dataset();
    let (_, artifact, _) = trained_artifact(&ds);

    // A different generator family ⇒ different dataset name.
    let other = amdgcnn_data::cora_like(&amdgcnn_data::CoraConfig {
        num_nodes: 80,
        num_edges: 200,
        ..Default::default()
    });
    let err = match InferenceEngine::load(artifact.as_slice(), other, 16) {
        Ok(_) => panic!("engine must refuse a mismatched dataset"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// Every span the instrumented pipeline produces in one train → resume →
/// serve run (DESIGN.md §12). A renamed or dropped span fails the test.
const LIFECYCLE_SPANS: [&str; 14] = [
    "pipeline/sample",
    "pipeline/sample/khop",
    "pipeline/sample/drnl",
    "pipeline/sample/tensorize",
    "train/epoch",
    "train/forward",
    "train/backward",
    "train/optimizer_step",
    "pipeline/checkpoint/save",
    "pipeline/checkpoint/restore",
    "pipeline/evaluate",
    "serve/queue_wait",
    "serve/batch_assembly",
    "serve/engine",
];

/// Sample preparation, training with a checkpoint every epoch, evaluation,
/// a session resumed from the newest checkpoint, and batched serving of the
/// resumed model through the artifact format, all into one registry.
#[test]
fn one_registry_covers_the_whole_lifecycle() {
    let obs = Obs::enabled();
    let ds = wn18_like(&Wn18Config::tiny());
    let ckpt = std::env::temp_dir().join(format!("amdgcnn-lifecycle-{}", std::process::id()));
    let subset = Some(48.min(ds.train.len()));
    let epochs = 2;

    let exp = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(fast_hyper())
        .seed(17)
        .checkpoint_to(&ckpt, 1)
        .observe(obs.clone())
        .build();
    let session = exp.session(&ds, subset).expect("session");
    exp.run_session(session, &[epochs]).expect("training run");

    let resumed = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(fast_hyper())
        .seed(17)
        .resume_from(&ckpt)
        .observe(obs.clone())
        .build();
    let session = resumed.session(&ds, subset).expect("resumed session");
    let _ = std::fs::remove_dir_all(&ckpt);

    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let meta = ArtifactMeta::describe(&ds, &session.model.cfg, &fcfg, epochs).expect("meta");
    let mut artifact = Vec::new();
    save_model(&meta, &session.ps, &mut artifact).expect("save");
    let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64)
        .expect("engine")
        .with_obs(obs.clone());
    let server = BatchServer::start(
        engine,
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        },
    );
    let queries: Vec<LinkQuery> = ds
        .test
        .iter()
        .cycle()
        .take(32)
        .map(|l| (l.u, l.v))
        .collect();
    server.submit_all_strict(&queries).expect("answers");
    server.shutdown();

    let report = obs.report();
    for span in LIFECYCLE_SPANS {
        let s = report
            .span(span)
            .unwrap_or_else(|| panic!("span {span} missing from the report"));
        assert!(s.count > 0, "span {span} recorded no observations");
        assert!(
            s.max_ns >= s.p50_ns,
            "span {span} has inconsistent quantiles"
        );
    }
    assert!(
        report.counter("serve/queries").unwrap_or(0) > 0,
        "serving queries did not reach the shared registry"
    );
    assert!(
        report
            .events
            .iter()
            .any(|e| e.name == "pipeline/checkpoint/restore"),
        "resume did not log a restore event"
    );
    let parsed = Report::from_json(&report.to_json()).expect("report JSON parses");
    assert_eq!(parsed, report);
}
