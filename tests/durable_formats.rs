//! Every injected disk fault, driven through the real file APIs of the
//! three formats the umbrella package can reach: the parameter checkpoint
//! (`AMDG`), the training-state generations (`AMTS`) and the sample store
//! (`AMSS`). A torn write or a bit flip must end in a typed rejection, a
//! fallback to the previous generation, or a salvaged miss — never in
//! silently wrong data — and a partial flush must leave the previous file
//! live. (The model artifact, `AMDM`, is covered the same way by
//! `crates/serve/tests/artifact_integrity.rs`.)

use am_dgcnn::{
    prepare_batch, CheckpointDir, Error, FeatureConfig, PreparedSample, SampleStore, StoreKey,
    TrainState,
};
use amdgcnn_data::{wn18_like, Wn18Config};
use amdgcnn_nn::AdamState;
use amdgcnn_tensor::durable::{tmp_path, DiskFault};
use amdgcnn_tensor::io::{load_params_file, params_digest, save_params_file};
use amdgcnn_tensor::{Matrix, ParamStore};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const FAULTS: [DiskFault; 2] = [DiskFault::TornWrite, DiskFault::BitFlip];

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amdgcnn-durable-formats-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn params(scale: f32) -> ParamStore {
    let mut ps = ParamStore::new();
    ps.register(
        "w",
        Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * scale),
    );
    ps.register("b", Matrix::from_vec(1, 3, vec![scale, -scale, 0.5]));
    ps
}

fn state(epochs_done: usize) -> TrainState {
    TrainState {
        epochs_done,
        seed: 7,
        params: params(epochs_done as f32),
        opt: AdamState {
            t: epochs_done as u64 * 3,
            m: vec![Some(Matrix::full(4, 3, 0.1)), None],
            v: vec![Some(Matrix::full(4, 3, 0.2)), None],
        },
        history: Vec::new(),
        recoveries: Vec::new(),
    }
}

#[test]
fn parameter_file_rejects_damage_and_survives_a_partial_flush() {
    let path = scratch_dir("amdg").join("params.amdg");
    let good = params(0.25);
    for fault in FAULTS {
        save_params_file(&path, &good, Some(fault)).expect("simulated fault");
        let err = load_params_file(&path).expect_err("damaged file must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{fault:?}: {err}");
    }
    save_params_file(&path, &good, None).expect("save");
    save_params_file(&path, &params(9.0), Some(DiskFault::PartialFlush)).expect("flush");
    let loaded = load_params_file(&path).expect("previous file stays live");
    assert_eq!(params_digest(&loaded), params_digest(&good));
    assert!(
        tmp_path(&path).exists(),
        "the interrupted write left its temp file"
    );
}

#[test]
fn checkpoint_generations_fall_back_past_damage() {
    for fault in [
        DiskFault::TornWrite,
        DiskFault::BitFlip,
        DiskFault::PartialFlush,
    ] {
        let dir = CheckpointDir::create(scratch_dir("amts")).expect("dir");
        dir.save(&state(1), 4, None).expect("save 1");
        dir.save(&state(2), 4, Some(fault))
            .expect("simulated fault");
        let (generation, loaded) = dir.latest().expect("latest").expect("present");
        assert_eq!(generation, 1, "{fault:?}: generation 2 must be skipped");
        assert_eq!(loaded.opt.t, 3);
        assert_eq!(
            params_digest(&loaded.params),
            params_digest(&state(1).params)
        );
        let committed = if fault == DiskFault::PartialFlush {
            vec![1]
        } else {
            vec![1, 2]
        };
        assert_eq!(dir.generations().expect("list"), committed, "{fault:?}");
    }
}

fn same_sample(a: &PreparedSample, b: &PreparedSample) -> bool {
    a.features == b.features
        && a.label == b.label
        && a.edges == b.edges
        && a.drnl == b.drnl
        && a.graph.csr().src_ids() == b.graph.csr().src_ids()
        && a.graph.csr().dst_ids() == b.graph.csr().dst_ids()
}

#[test]
fn sample_store_salvages_misses_and_survives_a_partial_flush() {
    let ds = wn18_like(&Wn18Config::tiny());
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let key = StoreKey::for_dataset(&ds, &fcfg, 0);
    let links = &ds.train[..8];
    let prepared = prepare_batch(&ds, links, &fcfg);
    let fill = |path: &PathBuf, n: usize, fault| {
        let mut store = SampleStore::open(path, key).expect("open");
        for (link, sample) in links[..n].iter().zip(&prepared) {
            store.insert(link, sample);
        }
        store.flush(fault).expect("flush");
    };

    for fault in FAULTS {
        let path = scratch_dir("amss").join("samples.amss");
        fill(&path, links.len(), Some(fault));
        match SampleStore::open(&path, key) {
            Ok(store) => {
                let mut hits = 0;
                for (link, want) in links.iter().zip(&prepared) {
                    if let Some(got) = store.get(&ds, link) {
                        assert!(same_sample(&got, want), "{fault:?}: garbage sample");
                        hits += 1;
                    }
                }
                assert!(hits < links.len(), "{fault:?}: the fault cost nothing");
                assert!(!store.damage().is_empty(), "{fault:?}: loss without damage");
                assert!(
                    store.is_dirty(),
                    "{fault:?}: damage must be repaired on flush"
                );
            }
            Err(e) => assert!(matches!(e, Error::StoreCorrupt { .. }), "{fault:?}: {e:?}"),
        }
    }

    let path = scratch_dir("amss-flush").join("samples.amss");
    fill(&path, 3, None);
    fill(&path, links.len(), Some(DiskFault::PartialFlush));
    let store = SampleStore::open(&path, key).expect("previous store stays live");
    assert_eq!(store.len(), 3);
    assert!(store.damage().is_empty());
    for (link, want) in links[..3].iter().zip(&prepared) {
        let got = store.get(&ds, link).expect("hit");
        assert!(same_sample(&got, want));
    }
}
