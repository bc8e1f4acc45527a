//! End-to-end integration tests: dataset generation → subgraph extraction →
//! feature construction → training → evaluation, across all four dataset
//! families at miniature scale.

use am_dgcnn::obs::{Obs, Report};
use am_dgcnn::{Experiment, GnnKind, Hyperparams};
use amdgcnn_data::{
    biokg_like, cora_like, primekg_like, wn18_like, BioKgConfig, CoraConfig, Dataset,
    PrimeKgConfig, Wn18Config,
};

fn fast_hyper() -> Hyperparams {
    Hyperparams {
        lr: 5e-3,
        hidden_dim: 8,
        sort_k: 10,
    }
}

fn run_both(ds: &Dataset, epochs: usize) -> (f64, f64) {
    let am = if ds.edge_attrs.dim() > 0 {
        GnnKind::am_dgcnn()
    } else {
        GnnKind::Gat {
            edge_attrs: false,
            heads: 1,
        }
    };
    let a = Experiment::new(am, fast_hyper(), 1)
        .run(ds, epochs)
        .expect("run");
    let v = Experiment::new(GnnKind::Gcn, fast_hyper(), 1)
        .run(ds, epochs)
        .expect("run");
    (a.auc, v.auc)
}

#[test]
fn primekg_pipeline_runs_and_produces_valid_metrics() {
    let ds = primekg_like(&PrimeKgConfig::tiny());
    let (am, van) = run_both(&ds, 2);
    assert!((0.0..=1.0).contains(&am));
    assert!((0.0..=1.0).contains(&van));
}

#[test]
fn biokg_pipeline_runs() {
    let ds = biokg_like(&BioKgConfig::tiny());
    let (am, van) = run_both(&ds, 2);
    assert!((0.0..=1.0).contains(&am));
    assert!((0.0..=1.0).contains(&van));
}

#[test]
fn wn18_pipeline_runs() {
    let ds = wn18_like(&Wn18Config::tiny());
    let (am, van) = run_both(&ds, 2);
    assert!((0.0..=1.0).contains(&am));
    assert!((0.0..=1.0).contains(&van));
}

#[test]
fn cora_pipeline_runs_without_edge_attrs() {
    let ds = cora_like(&CoraConfig::tiny());
    let (am, van) = run_both(&ds, 2);
    assert!((0.0..=1.0).contains(&am));
    assert!((0.0..=1.0).contains(&van));
}

#[test]
fn whole_pipeline_is_deterministic() {
    let ds = wn18_like(&Wn18Config::tiny());
    let run = || {
        Experiment::new(GnnKind::am_dgcnn(), fast_hyper(), 9)
            .run(&ds, 2)
            .expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give identical end-to-end metrics");
}

#[test]
fn different_seeds_give_different_models() {
    let ds = wn18_like(&Wn18Config::tiny());
    let a = Experiment::new(GnnKind::am_dgcnn(), fast_hyper(), 1)
        .run(&ds, 2)
        .expect("run");
    let b = Experiment::new(GnnKind::am_dgcnn(), fast_hyper(), 2)
        .run(&ds, 2)
        .expect("run");
    assert_ne!(a, b, "different init seeds should not coincide exactly");
}

#[test]
fn batch_size_one_trains() {
    let ds = wn18_like(&Wn18Config::tiny());
    let exp = Experiment::builder()
        .gnn(GnnKind::Gcn)
        .hyper(fast_hyper())
        .seed(3)
        .batch_size(1)
        .build();
    let m = exp.run(&ds, 1).expect("run");
    assert!((0.0..=1.0).contains(&m.auc));
}

#[test]
fn epoch_checkpointing_is_consistent_with_direct_training() {
    let ds = primekg_like(&PrimeKgConfig::tiny());
    let exp = Experiment::new(GnnKind::am_dgcnn(), fast_hyper(), 5);
    let stepped = exp
        .run_session(exp.session(&ds, None).expect("session"), &[1, 2, 3])
        .expect("checkpoints");
    let direct = exp.run(&ds, 3).expect("run");
    assert_eq!(stepped[2], direct, "incremental training must be exact");
}

/// The obs names the benchmark's traced training run reads (it lives in
/// its own workspace, outside `cargo test`): a cold store-backed session
/// misses (and flushes) every sample, a warm one hits every sample, and
/// both record the preparation, training and evaluation spans.
#[test]
fn store_backed_session_reports_store_and_stage_names() {
    let ds = wn18_like(&Wn18Config::tiny());
    let dir = std::env::temp_dir().join(format!("amdgcnn-obs-names-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("samples.amss");
    let samples = (ds.train.len() + ds.test.len()) as u64;
    let run = || -> Report {
        let obs = Obs::enabled();
        let exp = Experiment::builder()
            .gnn(GnnKind::am_dgcnn())
            .hyper(fast_hyper())
            .seed(4)
            .sample_store(&store)
            .observe(obs.clone())
            .build();
        let session = exp.session(&ds, None).expect("session");
        exp.run_session(session, &[1]).expect("run");
        obs.report()
    };
    let ran = |report: &Report, name: &str| report.span(name).is_some_and(|s| s.count > 0);

    let cold = run();
    assert_eq!(cold.counter("pipeline/prefetch/store_miss"), Some(samples));
    assert!(ran(&cold, "pipeline/prefetch/store_flush"));

    let warm = run();
    assert_eq!(warm.counter("pipeline/prefetch/store_hit"), Some(samples));
    assert_eq!(warm.counter("pipeline/prefetch/store_miss"), Some(0));
    // The warm-store speedup: a warm session walks no k-hop neighborhood.
    assert!(
        !ran(&warm, "pipeline/sample/khop"),
        "warm run extracted subgraphs"
    );

    for name in [
        "pipeline/sample/khop",
        "pipeline/sample/drnl",
        "pipeline/sample/tensorize",
        "train/epoch",
        "train/forward",
        "train/backward",
        "train/optimizer_step",
        "pipeline/evaluate",
    ] {
        assert!(ran(&cold, name), "cold run recorded no {name} span");
        if !name.starts_with("pipeline/sample") {
            assert!(ran(&warm, name), "warm run recorded no {name} span");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
