//! Persistence guarantees of the `AMSS` sample store, proptested: a
//! flushed store round-trips bit-identically; every injected disk fault
//! (torn write, bit flip, partial flush) degrades to typed damage plus
//! store *misses* — never a garbage sample; a store keyed to different
//! data, features, or graph generation is refused with a typed error; and
//! a resumed, store-backed experiment re-tensorizes nothing while staying
//! bit-identical to a cold serial run.

use am_dgcnn::obs::Obs;
use am_dgcnn::{
    predict_probs, prepare_batch, CheckpointDir, Error, Experiment, ExperimentBuilder,
    FaultInjector, FaultPlan, FeatureConfig, GnnKind, Hyperparams, PreparedSample, SampleStore,
    Session, StoreKey,
};
use amdgcnn_data::{wn18_like, Wn18Config};
use amdgcnn_tensor::durable::DiskFault;
use amdgcnn_tensor::io::params_digest;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 23;
const EPOCHS: usize = 2;
const TRAIN_SUBSET: usize = 16;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amdgcnn-store-props-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn builder(seed: u64) -> ExperimentBuilder {
    Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(Hyperparams {
            lr: 5e-3,
            hidden_dim: 8,
            sort_k: 10,
        })
        .seed(seed)
}

fn samples_equal(a: &PreparedSample, b: &PreparedSample) -> bool {
    a.features == b.features
        && a.label == b.label
        && a.num_nodes == b.num_nodes
        && a.num_edges == b.num_edges
        && a.edges == b.edges
        && a.drnl == b.drnl
        && a.graph.csr().src_ids() == b.graph.csr().src_ids()
        && a.graph.csr().dst_ids() == b.graph.csr().dst_ids()
        && a.graph.relations() == b.graph.relations()
        && a.graph.edge_attrs().map(|m| m.data()) == b.graph.edge_attrs().map(|m| m.data())
}

/// Train a session and distill the bit-identity witnesses.
fn train_and_fingerprint(mut session: Session) -> (u32, amdgcnn_tensor::Matrix) {
    session
        .trainer
        .train(
            &session.model,
            &mut session.ps,
            &session.train_samples,
            EPOCHS,
        )
        .expect("train");
    let digest = params_digest(&session.ps);
    let probs = predict_probs(&session.model, &session.ps, &session.test_samples);
    (digest, probs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A clean flush round-trips every sample bit-identically across
    /// randomized dataset shapes and feature configurations.
    #[test]
    fn flushed_store_round_trips_bit_identically(
        ds_seed in 0u64..4,
        batch in 4usize..20,
        drnl_idx in 0usize..3,
    ) {
        let ds = wn18_like(&Wn18Config { seed: ds_seed, ..Wn18Config::tiny() });
        let fcfg = FeatureConfig {
            max_drnl: [4u32, 8, 16][drnl_idx],
            ..FeatureConfig::for_graph(ds.graph.num_node_types())
        };
        let links = &ds.train[..batch.min(ds.train.len())];
        let prepared = prepare_batch(&ds, links, &fcfg);
        let key = StoreKey::for_dataset(&ds, &fcfg, 0);
        let path = scratch_dir("roundtrip").join("samples.amss");

        let mut store = SampleStore::open(&path, key).expect("fresh store");
        for (link, sample) in links.iter().zip(&prepared) {
            store.insert(link, sample);
        }
        store.flush(None).expect("flush");

        let store = SampleStore::open(&path, key).expect("reopen");
        prop_assert_eq!(store.len(), links.len());
        prop_assert!(store.damage().is_empty(), "clean flush must not report damage");
        for (link, expected) in links.iter().zip(&prepared) {
            let got = store.get(&ds, link);
            prop_assert!(
                got.as_ref().is_some_and(|s| samples_equal(s, expected)),
                "round-tripped sample diverged for link ({}, {})",
                link.u,
                link.v
            );
        }
    }

    /// Every disk-fault kind on the flush degrades safely: the reopened
    /// store yields each sample either bit-identical or as a miss (typed
    /// damage, re-prepare) — never garbage — and lost records are visible
    /// as damage or absence, not silently papered over.
    #[test]
    fn faulted_flush_degrades_to_typed_misses_never_garbage(
        ds_seed in 0u64..4,
        fault_idx in 0usize..3,
    ) {
        let fault = [DiskFault::TornWrite, DiskFault::BitFlip, DiskFault::PartialFlush][fault_idx];
        let ds = wn18_like(&Wn18Config { seed: ds_seed, ..Wn18Config::tiny() });
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let links = &ds.train[..12];
        let prepared = prepare_batch(&ds, links, &fcfg);
        let key = StoreKey::for_dataset(&ds, &fcfg, 0);
        let path = scratch_dir("faulted").join("samples.amss");

        let mut store = SampleStore::open(&path, key).expect("fresh store");
        for (link, sample) in links.iter().zip(&prepared) {
            store.insert(link, sample);
        }
        store.flush(Some(fault)).expect("faulted flush is simulated, not an I/O error");

        match SampleStore::open(&path, key) {
            Ok(store) => {
                // Recovered records must be bit-identical; everything else
                // must be a miss. Nothing in between.
                let mut hits = 0usize;
                for (link, expected) in links.iter().zip(&prepared) {
                    if let Some(got) = store.get(&ds, link) {
                        prop_assert!(
                            samples_equal(&got, expected),
                            "{fault:?}: damaged store returned a garbage sample"
                        );
                        hits += 1;
                    }
                }
                if hits < links.len() {
                    // Lost records: either the file never landed
                    // (PartialFlush keeps the previous file — here,
                    // absence) or the damage is recorded as typed errors.
                    prop_assert!(
                        matches!(fault, DiskFault::PartialFlush) || !store.damage().is_empty(),
                        "{fault:?}: records vanished without recorded damage"
                    );
                    prop_assert!(
                        store
                            .damage()
                            .iter()
                            .all(|e| matches!(e, Error::StoreCorrupt { .. })),
                        "{fault:?}: damage must be typed StoreCorrupt"
                    );
                }
            }
            // Header-level damage is a typed refusal, never a panic or a
            // silently empty store.
            Err(e) => prop_assert!(
                matches!(e, Error::StoreCorrupt { .. } | Error::StoreIo { .. }),
                "{fault:?}: open failed with untyped error {e:?}"
            ),
        }
    }

    /// A store keyed to different inputs is refused with a typed
    /// [`Error::StoreMismatch`] naming the diverging component — changed
    /// feature config, rolled graph generation, or different dataset.
    #[test]
    fn mismatched_store_is_refused_typed(
        ds_seed in 0u64..3,
        which in 0usize..3,
    ) {
        let ds = wn18_like(&Wn18Config { seed: ds_seed, ..Wn18Config::tiny() });
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let key = StoreKey::for_dataset(&ds, &fcfg, 0);
        let path = scratch_dir("mismatch").join("samples.amss");

        let prepared = prepare_batch(&ds, &ds.train[..4], &fcfg);
        let mut store = SampleStore::open(&path, key).expect("fresh store");
        for (link, sample) in ds.train[..4].iter().zip(&prepared) {
            store.insert(link, sample);
        }
        store.flush(None).expect("flush");

        let stale_key = match which {
            // Feature config changed: fingerprint diverges.
            0 => {
                let changed = FeatureConfig { max_drnl: fcfg.max_drnl + 1, ..fcfg.clone() };
                StoreKey::for_dataset(&ds, &changed, 0)
            }
            // Graph mutated since the store was prepared.
            1 => StoreKey::for_dataset(&ds, &fcfg, 1),
            // Different dataset entirely.
            _ => {
                let other = wn18_like(&Wn18Config { seed: ds_seed + 100, ..Wn18Config::tiny() });
                StoreKey::for_dataset(&other, &fcfg, 0)
            }
        };
        prop_assert!(stale_key != key, "stale key failed to diverge (which={which})");
        let err = match SampleStore::open(&path, stale_key) {
            Err(e) => e,
            Ok(_) => {
                prop_assert!(false, "stale store (which={which}) must be refused, not reused");
                unreachable!()
            }
        };
        prop_assert!(
            matches!(err, Error::StoreMismatch { .. }),
            "which={which}: expected StoreMismatch, got {err:?}"
        );
    }
}

/// Satellite regression: on a resumed run, *both* splits route through the
/// store — `store_hit` covers every train and eval sample, `store_miss`
/// stays zero, and the resumed parameters match the uninterrupted
/// storeless run bit-for-bit.
#[test]
fn resumed_run_hits_store_for_train_and_eval_samples() {
    let ds = wn18_like(&Wn18Config::tiny());
    let store_path = scratch_dir("resume").join("samples.amss");
    let ckpt_dir = CheckpointDir::create(scratch_dir("resume-ckpt")).expect("checkpoint dir");

    // Storeless uninterrupted reference.
    let (ref_digest, ref_probs) = train_and_fingerprint(
        builder(SEED)
            .build()
            .session(&ds, Some(TRAIN_SUBSET))
            .expect("reference session"),
    );

    // Cold store-backed run: every sample is a miss, then persisted; the
    // trained state is saved as a checkpoint generation.
    let cold_obs = Obs::enabled();
    let mut cold = builder(SEED)
        .sample_store(&store_path)
        .observe(cold_obs.clone())
        .build()
        .session(&ds, Some(TRAIN_SUBSET))
        .expect("cold session");
    cold.trainer
        .train(&cold.model, &mut cold.ps, &cold.train_samples, EPOCHS)
        .expect("cold run");
    ckpt_dir
        .save(&cold.trainer.snapshot(&cold.ps), 2, None)
        .expect("save");
    let total = (TRAIN_SUBSET + ds.test.len()) as u64;
    assert_eq!(
        cold_obs.counter("pipeline/prefetch/store_miss").get(),
        total
    );
    assert_eq!(cold_obs.counter("pipeline/prefetch/store_hit").get(), 0);

    // Resume: preparation is skipped entirely — all hits, zero misses —
    // and training continues bit-identically.
    let warm_obs = Obs::enabled();
    let mut session = builder(SEED)
        .sample_store(&store_path)
        .observe(warm_obs.clone())
        .build()
        .session(&ds, Some(TRAIN_SUBSET))
        .expect("warm session");
    let (_, state) = ckpt_dir.latest().expect("latest").expect("present");
    session
        .trainer
        .restore(&state, &mut session.ps)
        .expect("restore");
    assert_eq!(
        session.trainer.epochs_done(),
        EPOCHS,
        "resume restored progress"
    );
    assert_eq!(warm_obs.counter("pipeline/prefetch/store_hit").get(), total);
    assert_eq!(warm_obs.counter("pipeline/prefetch/store_miss").get(), 0);
    assert_eq!(
        params_digest(&session.ps),
        ref_digest,
        "resumed store-backed parameters diverged from the storeless run"
    );
    assert_eq!(
        predict_probs(&session.model, &session.ps, &session.test_samples),
        ref_probs,
        "resumed store-backed predictions diverged"
    );
}

/// A warm store-backed run is bit-identical to a cold storeless run.
#[test]
fn warm_store_run_is_bit_identical_to_cold_serial() {
    let ds = wn18_like(&Wn18Config::tiny());
    let store_path = scratch_dir("warm").join("samples.amss");
    let (ref_digest, ref_probs) = train_and_fingerprint(
        builder(SEED)
            .build()
            .session(&ds, Some(TRAIN_SUBSET))
            .expect("serial session"),
    );
    // Cold pass populates; warm pass decodes everything from disk.
    for pass in ["cold", "warm"] {
        let exp = builder(SEED).sample_store(&store_path).build();
        let (digest, probs) =
            train_and_fingerprint(exp.session(&ds, Some(TRAIN_SUBSET)).expect("session"));
        assert_eq!(digest, ref_digest, "{pass} store-backed digest diverged");
        assert_eq!(probs, ref_probs, "{pass} store-backed predictions diverged");
    }
}

/// A disk fault on the store flush never poisons results: the faulted run
/// itself and the next run over the damaged store both stay bit-identical
/// to the serial reference (damaged records are re-prepared, and the
/// repaired store is flushed again).
#[test]
fn faulted_store_flush_keeps_every_run_bit_identical() {
    let ds = wn18_like(&Wn18Config::tiny());
    let (ref_digest, ref_probs) = train_and_fingerprint(
        builder(SEED)
            .build()
            .session(&ds, Some(TRAIN_SUBSET))
            .expect("serial session"),
    );
    for (tag, plan) in [
        (
            "torn",
            FaultPlan {
                torn_write_saves: vec![1],
                ..FaultPlan::default()
            },
        ),
        (
            "bitflip",
            FaultPlan {
                bit_flip_saves: vec![1],
                ..FaultPlan::default()
            },
        ),
        (
            "flush",
            FaultPlan {
                partial_flush_saves: vec![1],
                ..FaultPlan::default()
            },
        ),
    ] {
        let store_path = scratch_dir(tag).join("samples.amss");
        // Run 1: cold, the store flush itself is hit by the fault.
        let faulted = builder(SEED)
            .sample_store(&store_path)
            .fault_injector(Arc::new(FaultInjector::new(plan)))
            .build();
        let (digest, probs) = train_and_fingerprint(
            faulted
                .session(&ds, Some(TRAIN_SUBSET))
                .expect("faulted session"),
        );
        assert_eq!(digest, ref_digest, "{tag}: faulted-flush run diverged");
        assert_eq!(
            probs, ref_probs,
            "{tag}: faulted-flush predictions diverged"
        );

        // Run 2: opens whatever the fault left behind; damaged or missing
        // records are misses, re-prepared, and the result is still exact.
        let recovered = builder(SEED).sample_store(&store_path).build();
        let (digest, probs) = train_and_fingerprint(
            recovered
                .session(&ds, Some(TRAIN_SUBSET))
                .expect("recovery session over damaged store"),
        );
        assert_eq!(digest, ref_digest, "{tag}: recovery run diverged");
        assert_eq!(probs, ref_probs, "{tag}: recovery predictions diverged");

        // Run 3: the recovery run repaired and re-flushed, so now the
        // store is fully warm.
        let warm_obs = Obs::enabled();
        let warm = builder(SEED)
            .sample_store(&store_path)
            .observe(warm_obs.clone())
            .build();
        let (digest, _) =
            train_and_fingerprint(warm.session(&ds, Some(TRAIN_SUBSET)).expect("warm session"));
        assert_eq!(digest, ref_digest, "{tag}: warm run diverged");
        assert_eq!(
            warm_obs.counter("pipeline/prefetch/store_miss").get(),
            0,
            "{tag}: repaired store must be fully warm"
        );
    }
}

/// The session refuses a store whose graph generation lags the
/// experiment's — surfacing the staleness instead of training on stale
/// tensors.
#[test]
fn session_refuses_store_from_older_graph_generation() {
    let ds = wn18_like(&Wn18Config::tiny());
    let store_path = scratch_dir("generation").join("samples.amss");
    let exp = builder(SEED).sample_store(&store_path).build();
    exp.run(&ds, 1).expect("generation-0 run");

    let err = match builder(SEED)
        .sample_store(&store_path)
        .graph_generation(1)
        .build()
        .session(&ds, Some(TRAIN_SUBSET))
    {
        Err(e) => e,
        Ok(_) => panic!("stale generation must be refused"),
    };
    assert!(matches!(err, Error::StoreMismatch { .. }), "{err:?}");
    let Error::StoreMismatch { detail } = err else {
        unreachable!()
    };
    assert!(
        detail.contains("generation"),
        "error must name the diverging component: {detail}"
    );
}
