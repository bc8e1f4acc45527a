//! Store-backed trial sweeps: all trials share one `AMSS` sample store,
//! so the sweep prepares each sample **exactly once** (auditable on the
//! obs counters), and every trial's metrics are bit-identical to a
//! store-less sweep. A store belonging
//! to different data aborts the sweep with a typed error instead of
//! training on the wrong tensors.

use am_dgcnn::obs::Obs;
use am_dgcnn::{Error, GnnKind};
use amdgcnn_data::{wn18_like, Wn18Config};
use amdgcnn_tune::{sweep, ParamSpec, SearchSpace, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TRAIN_SUBSET: usize = 12;
const BUDGET: usize = 3;

fn scratch_store(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amdgcnn-store-sweep-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("samples.amss")
}

/// A shrunken Table I layout (same dimension order: lr, hidden_dim,
/// sort_k) that keeps trials fast.
fn small_space() -> SearchSpace {
    let mut space = SearchSpace::new();
    space.add("lr", ParamSpec::LogUniform { lo: 1e-4, hi: 1e-2 });
    space.add("hidden_dim", ParamSpec::Choice(vec![8.0]));
    space.add("sort_k", ParamSpec::IntRange { lo: 5, hi: 10 });
    space
}

fn config() -> SweepConfig {
    SweepConfig {
        gnn: GnnKind::am_dgcnn(),
        epochs: 1,
        budget: BUDGET,
        seed: 31,
        train_subset: Some(TRAIN_SUBSET),
        store: None,
    }
}

#[test]
fn shared_store_prepares_each_sample_exactly_once_and_stays_bit_identical() {
    let ds = wn18_like(&Wn18Config::tiny());

    // Store-less serial reference sweep.
    let reference = sweep(&small_space(), &ds, &config(), &Obs::disabled()).expect("reference");
    assert_eq!(reference.history.len(), BUDGET);

    // Store-backed sweep.
    let obs = Obs::enabled();
    let cfg = SweepConfig {
        store: Some(scratch_store("shared")),
        ..config()
    };
    let stored = sweep(&small_space(), &ds, &cfg, &obs).expect("store-backed sweep");

    // Preparation ran exactly once across the whole sweep: the first trial
    // missed every sample and persisted it; every later trial hit.
    let per_trial = (TRAIN_SUBSET + ds.test.len()) as u64;
    assert_eq!(
        obs.counter("pipeline/prefetch/store_miss").get(),
        per_trial,
        "only the first trial may prepare samples"
    );
    assert_eq!(
        obs.counter("pipeline/prefetch/store_hit").get(),
        per_trial * (BUDGET as u64 - 1),
        "every later trial must be served from the store"
    );
    assert_eq!(obs.counter("tune/trials").get(), BUDGET as u64);

    // Trial-for-trial bit-identity: same sampled points, same objective
    // values, same winner.
    assert_eq!(stored.history.len(), reference.history.len());
    for (i, (a, b)) in stored.history.iter().zip(&reference.history).enumerate() {
        assert_eq!(a.point, b.point, "trial {i} sampled a different point");
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "trial {i} objective diverged from the store-less sweep"
        );
    }
    assert_eq!(stored.best.point, reference.best.point);
    assert_eq!(stored.best.value.to_bits(), reference.best.value.to_bits());
}

#[test]
fn second_sweep_over_warm_store_prepares_nothing() {
    let ds = wn18_like(&Wn18Config::tiny());
    let store = scratch_store("warm");
    let cfg = SweepConfig {
        store: Some(store),
        ..config()
    };
    sweep(&small_space(), &ds, &cfg, &Obs::disabled()).expect("cold sweep");

    let obs = Obs::enabled();
    let warm = sweep(&small_space(), &ds, &cfg, &obs).expect("warm sweep");
    assert_eq!(warm.history.len(), BUDGET);
    assert_eq!(
        obs.counter("pipeline/prefetch/store_miss").get(),
        0,
        "a warm store must serve the entire sweep"
    );
    assert_eq!(
        obs.counter("pipeline/prefetch/store_hit").get(),
        (TRAIN_SUBSET + ds.test.len()) as u64 * BUDGET as u64
    );
}

#[test]
fn store_for_different_dataset_aborts_the_sweep_typed() {
    let store = scratch_store("mismatch");
    let cfg = SweepConfig {
        store: Some(store),
        ..config()
    };
    let ds_a = wn18_like(&Wn18Config::tiny());
    sweep(&small_space(), &ds_a, &cfg, &Obs::disabled()).expect("populate");

    let ds_b = wn18_like(&Wn18Config {
        seed: 99,
        ..Wn18Config::tiny()
    });
    let err = match sweep(&small_space(), &ds_b, &cfg, &Obs::disabled()) {
        Err(e) => e,
        Ok(_) => panic!("sweep over a mismatched store must be refused"),
    };
    assert!(matches!(err, Error::StoreMismatch { .. }), "{err:?}");
}
