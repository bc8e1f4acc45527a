//! Crash-safe checkpointing guarantees on the one checkpoint path, the
//! loop a training program runs: `Trainer::train(.., 1)` then
//! `CheckpointDir::save`, and `CheckpointDir::latest` + `Trainer::restore`
//! to resume. A run interrupted at an arbitrary epoch and resumed from
//! disk ends up **bit-identical** to a run that never stopped; injected
//! disk faults (torn write, bit flip, partial flush) on any save leave the
//! previous generation loadable and the resumed run still exact; and
//! checkpoints that don't belong to the run are refused with typed errors.

use am_dgcnn::error::Result;
use am_dgcnn::{
    CheckpointDir, Error, Experiment, FaultInjector, FaultPlan, GnnKind, Hyperparams, Session,
};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use amdgcnn_tensor::io::params_digest;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const SEED: u64 = 11;
const FULL_EPOCHS: usize = 4;

fn dataset() -> Dataset {
    wn18_like(&Wn18Config::tiny())
}

fn scratch_dir(tag: &str) -> CheckpointDir {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "amdgcnn-crash-resume-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    CheckpointDir::create(path).expect("checkpoint dir")
}

fn session(ds: &Dataset, seed: u64) -> Session {
    Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(Hyperparams {
            lr: 5e-3,
            hidden_dim: 8,
            sort_k: 10,
        })
        .seed(seed)
        .build()
        .session(ds, None)
        .expect("session")
}

/// Train `s` one epoch at a time up to `target` epochs, saving a
/// generation (two kept) after every `every`-th epoch. Each save takes
/// its disk fault, if any, from `injector`.
fn train_saving(
    s: &mut Session,
    dir: &CheckpointDir,
    target: usize,
    every: usize,
    injector: Option<&FaultInjector>,
) {
    while s.trainer.epochs_done() < target {
        s.trainer
            .train(&s.model, &mut s.ps, &s.train_samples, 1)
            .expect("train");
        if s.trainer.epochs_done().is_multiple_of(every) {
            let fault = injector.and_then(FaultInjector::next_disk_fault);
            dir.save(&s.trainer.snapshot(&s.ps), 2, fault)
                .expect("save");
        }
    }
}

/// A fresh session at `seed` with the newest loadable generation of `dir`
/// restored into it (none: a fresh start).
fn resume(ds: &Dataset, seed: u64, dir: &CheckpointDir) -> Result<Session> {
    let mut s = session(ds, seed);
    if let Some((_, state)) = dir.latest()? {
        s.trainer.restore(&state, &mut s.ps)?;
    }
    Ok(s)
}

/// Resume from `dir`, train to `FULL_EPOCHS` saving every epoch, and
/// return the newest generation's number and parameter digest as read
/// back from disk.
fn resume_to_the_end(ds: &Dataset, dir: &CheckpointDir) -> (u64, u32) {
    let mut s = resume(ds, SEED, dir).expect("resume");
    train_saving(&mut s, dir, FULL_EPOCHS, 1, None);
    let (generation, state) = dir.latest().expect("latest").expect("present");
    assert_eq!(
        params_digest(&state.params),
        params_digest(&s.ps),
        "the newest generation holds the trained parameters"
    );
    (generation, params_digest(&state.params))
}

/// Digest of an uninterrupted `FULL_EPOCHS`-epoch run at `SEED`, computed
/// once and shared across tests (training is deterministic, so every test
/// would recompute the identical value).
fn reference_digest() -> u32 {
    static DIGEST: OnceLock<u32> = OnceLock::new();
    *DIGEST.get_or_init(|| {
        let ds = dataset();
        let mut s = session(&ds, SEED);
        s.trainer
            .train(&s.model, &mut s.ps, &s.train_samples, FULL_EPOCHS)
            .expect("train");
        params_digest(&s.ps)
    })
}

#[test]
fn resumed_run_is_bit_identical_to_uninterrupted() {
    let ds = dataset();
    let dir = scratch_dir("plain");

    // "Crash" after epoch 3 with saves every 2 epochs: the newest durable
    // generation is 2, so the resume loses epoch 3 and replays it.
    let mut s = session(&ds, SEED);
    train_saving(&mut s, &dir, 3, 2, None);
    let (generation, _) = dir.latest().expect("latest").expect("present");
    assert_eq!(generation, 2, "epoch 3 was never durably saved");

    let (generation, digest) = resume_to_the_end(&ds, &dir);
    assert_eq!(generation, FULL_EPOCHS as u64);
    assert_eq!(
        digest,
        reference_digest(),
        "resumed parameters must match an uninterrupted run bit-for-bit"
    );
}

#[test]
fn resume_restores_history_and_epoch_counter() {
    let ds = dataset();
    let dir = scratch_dir("history");
    let mut first = session(&ds, SEED);
    train_saving(&mut first, &dir, 2, 1, None);

    let resumed = resume(&ds, SEED, &dir).expect("resumed session");
    assert_eq!(resumed.trainer.epochs_done(), 2);
    let losses =
        |s: &Session| -> Vec<u32> { s.trainer.history.iter().map(|e| e.loss.to_bits()).collect() };
    assert_eq!(losses(&resumed).len(), 2);
    assert_eq!(losses(&resumed), losses(&first));
}

#[test]
fn disk_faults_on_saves_fall_back_and_resume_stays_exact() {
    for (tag, plan) in [
        (
            "torn",
            FaultPlan {
                torn_write_saves: vec![3],
                ..FaultPlan::default()
            },
        ),
        (
            "bitflip",
            FaultPlan {
                bit_flip_saves: vec![3],
                ..FaultPlan::default()
            },
        ),
        (
            "flush",
            FaultPlan {
                partial_flush_saves: vec![3],
                ..FaultPlan::default()
            },
        ),
    ] {
        let ds = dataset();
        let dir = scratch_dir(tag);
        // Save every epoch; the third save (epoch 3) is hit by the fault,
        // so the newest loadable generation must be epoch 2.
        let mut s = session(&ds, SEED);
        train_saving(&mut s, &dir, 3, 1, Some(&FaultInjector::new(plan)));
        let (generation, _) = dir
            .latest()
            .expect("latest must fall back, not fail")
            .expect("present");
        assert_eq!(generation, 2, "{tag}: corrupt generation 3 must be skipped");

        // Resuming from the fallback replays epoch 3+ and still lands on
        // the uninterrupted run's exact parameters.
        let (generation, digest) = resume_to_the_end(&ds, &dir);
        assert_eq!(generation, FULL_EPOCHS as u64, "{tag}");
        assert_eq!(digest, reference_digest(), "{tag}: resume must stay exact");
    }
}

#[test]
fn resume_with_wrong_seed_is_refused() {
    let ds = dataset();
    let dir = scratch_dir("seed");
    let mut s = session(&ds, SEED);
    train_saving(&mut s, &dir, 1, 1, None);

    let err = match resume(&ds, SEED + 1, &dir) {
        Err(e) => e,
        Ok(_) => panic!("wrong seed must be refused"),
    };
    assert!(matches!(err, Error::ResumeMismatch { .. }), "{err:?}");
}

#[test]
fn all_generations_corrupt_is_a_typed_error_not_a_fresh_start() {
    let ds = dataset();
    let dir = scratch_dir("allbad");
    // The only save ever made is torn.
    let mut s = session(&ds, SEED);
    let injector = FaultInjector::new(FaultPlan {
        torn_write_saves: vec![1],
        ..FaultPlan::default()
    });
    train_saving(&mut s, &dir, 1, 1, Some(&injector));

    let err = match resume(&ds, SEED, &dir) {
        Err(e) => e,
        Ok(_) => panic!("an unloadable checkpoint dir must not silently restart"),
    };
    assert!(matches!(err, Error::CheckpointIo { .. }), "{err:?}");
}

#[test]
fn empty_checkpoint_dir_starts_fresh() {
    let ds = dataset();
    let dir = scratch_dir("fresh");
    let s = resume(&ds, SEED, &dir).expect("empty dir resumes as a fresh run");
    assert_eq!(s.trainer.epochs_done(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The central property: interrupt at *any* epoch, with *any* save
    /// cadence, and the resumed run's final parameters are bit-identical
    /// to the uninterrupted run's.
    #[test]
    fn resume_at_any_interrupt_point_is_bit_identical(
        interrupt in 1usize..FULL_EPOCHS,
        every in 1usize..3,
    ) {
        let ds = dataset();
        let dir = scratch_dir("prop");
        let mut s = session(&ds, SEED);
        // A crash between save points may not have saved the latest
        // epochs; resume replays whatever was lost.
        train_saving(&mut s, &dir, interrupt, every, None);
        let (generation, digest) = resume_to_the_end(&ds, &dir);
        prop_assert_eq!(generation, FULL_EPOCHS as u64);
        prop_assert_eq!(digest, reference_digest());
    }
}
