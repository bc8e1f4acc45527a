//! Artifact-integrity guarantees for the serving layer: any corruption of
//! an artifact (single byte flip, truncation, injected torn write) is
//! detected at load, and [`InferenceEngine::load`] refuses every such
//! artifact, a NaN-poisoned or foreign one included.

use am_dgcnn::{Experiment, FeatureConfig, GnnKind, Hyperparams};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_serve::{
    load_model, load_model_file, save_model, save_model_file, ArtifactMeta, InferenceEngine,
};
use amdgcnn_tensor::durable::DiskFault;
use amdgcnn_tensor::{Matrix, ParamStore};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn small_dataset() -> Dataset {
    wn18_like(&Wn18Config {
        num_nodes: 120,
        num_edges: 420,
        train_links: 60,
        test_links: 20,
        ..Default::default()
    })
}

fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "amdgcnn-artifact-integrity-{tag}-{}-{}.amdm",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Train briefly and return the artifact metadata, its serialized bytes,
/// and the trained parameters.
fn trained_artifact(ds: &Dataset, seed: u64) -> (ArtifactMeta, Vec<u8>, ParamStore) {
    let exp = Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(Hyperparams {
            lr: 5e-3,
            hidden_dim: 8,
            sort_k: 10,
        })
        .seed(seed)
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
    (meta, buf, session.ps)
}

#[test]
fn every_byte_flip_in_a_real_artifact_is_rejected() {
    let ds = small_dataset();
    let (_, artifact, _) = trained_artifact(&ds, 9);
    // A real artifact is tens of kilobytes; stride keeps the test fast
    // while still covering header, metadata, CRC, and parameter regions.
    for pos in (0..artifact.len()).step_by(97) {
        let mut corrupt = artifact.clone();
        corrupt[pos] ^= 0x04;
        let err = load_model(corrupt.as_slice()).expect_err("corruption must be detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {pos}");
    }
}

#[test]
fn torn_artifact_write_leaves_no_file_and_a_partial_flush_keeps_the_old_one() {
    let ds = small_dataset();
    let (meta, _, ps) = trained_artifact(&ds, 9);
    let path = scratch_path("torn");

    // A committed good artifact, then a torn overwrite: the renamed file is
    // truncated, so loading it must fail loudly rather than half-succeed.
    save_model_file(&path, &meta, &ps, None).expect("good save");
    load_model_file(&path).expect("good artifact loads");
    save_model_file(&path, &meta, &ps, Some(DiskFault::TornWrite)).expect("torn save");
    let err = load_model_file(&path).expect_err("torn artifact must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    // A partial flush never renames: the previous good artifact survives.
    save_model_file(&path, &meta, &ps, None).expect("good save again");
    save_model_file(&path, &meta, &ps, Some(DiskFault::PartialFlush)).expect("partial flush");
    load_model_file(&path).expect("previous artifact must still load");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(amdgcnn_tensor::durable::tmp_path(&path)).ok();
}

#[test]
fn engine_load_refuses_corrupt_poisoned_and_foreign_artifacts() {
    let ds = small_dataset();
    let (_, artifact, _) = trained_artifact(&ds, 9);
    InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("good artifact loads");
    let refused = |bytes: &[u8]| {
        let err = InferenceEngine::load(bytes, ds.clone(), 64)
            .err()
            .expect("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    };

    // A flipped byte in the parameter region: checksum failure.
    let mut corrupt = artifact.clone();
    let pos = artifact.len() - 10;
    corrupt[pos] ^= 0x01;
    refused(&corrupt);

    // Truncated mid-parameters.
    refused(&artifact[..artifact.len() / 2]);

    // Valid format but a non-finite parameter.
    let (meta2, _, mut ps2) = trained_artifact(&ds, 9);
    ps2.update(amdgcnn_tensor::ParamId(0), |m: &mut Matrix| {
        m.set(0, 0, f32::NAN)
    });
    let mut poisoned = Vec::new();
    save_model(&meta2, &ps2, &mut poisoned).expect("save");
    let err = refused(&poisoned);
    assert!(err.to_string().contains("non-finite"), "{err}");

    // Trained against a different dataset (by name).
    let mut other = small_dataset();
    other.name = "other-graph";
    let (_, other_artifact, _) = trained_artifact(&other, 9);
    refused(&other_artifact);
}
