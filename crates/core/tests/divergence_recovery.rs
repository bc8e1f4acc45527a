//! Divergence-watchdog guarantees, exercised through deterministic fault
//! injection: a transiently diverging run rolls back, replays, and ends up
//! bit-identical to an uninterrupted run; persistent divergence exhausts
//! the fixed budget of three retries, with the learning rate halved from
//! the second retry on, and leaves finite parameters; a corrupted rollback checkpoint is detected, not restored.

use am_dgcnn::{
    predict_probs, DivergenceCause, Error, Experiment, FaultInjector, FaultPlan, GnnKind,
    Hyperparams, Session,
};
use amdgcnn_data::{wn18_like, Dataset, Wn18Config};
use std::sync::Arc;

const LR: f32 = 5e-3;

fn dataset() -> Dataset {
    wn18_like(&Wn18Config::tiny())
}

fn session(ds: &Dataset) -> Session {
    Experiment::builder()
        .gnn(GnnKind::am_dgcnn())
        .hyper(Hyperparams {
            lr: LR,
            hidden_dim: 8,
            sort_k: 10,
        })
        .seed(11)
        .build()
        .session(ds, None)
        .expect("session")
}

fn train_with(
    ds: &Dataset,
    plan: Option<FaultPlan>,
    epochs: usize,
) -> (Session, am_dgcnn::error::Result<()>) {
    let mut s = session(ds);
    if let Some(plan) = plan {
        s.trainer
            .attach_fault_injector(Arc::new(FaultInjector::new(plan)));
    }
    let outcome = s
        .trainer
        .train(&s.model, &mut s.ps, &s.train_samples, epochs);
    (s, outcome)
}

/// The acceptance run: a NaN injected at epoch 3 of 6 triggers rollback and
/// an unchanged replay, so the recovered run's loss history and final
/// predictions are bit-identical to a run that never faulted.
#[test]
fn transient_divergence_recovers_to_identical_metrics() {
    let ds = dataset();

    let (clean, ok) = train_with(&ds, None, 6);
    ok.expect("clean train");
    let (faulted, ok) = train_with(
        &ds,
        Some(FaultPlan {
            nan_loss_epochs: vec![3],
            ..FaultPlan::default()
        }),
        6,
    );
    ok.expect("recovered train");

    let clean_losses: Vec<f32> = clean.trainer.history.iter().map(|e| e.loss).collect();
    let faulted_losses: Vec<f32> = faulted.trainer.history.iter().map(|e| e.loss).collect();
    assert_eq!(
        clean_losses, faulted_losses,
        "replayed epoch must reproduce the clean loss bit-for-bit"
    );
    assert_eq!(
        predict_probs(&clean.model, &clean.ps, &clean.test_samples),
        predict_probs(&faulted.model, &faulted.ps, &faulted.test_samples),
        "final parameters must match an uninterrupted run"
    );

    // The recovery is visible in the records, not just absorbed silently.
    assert_eq!(faulted.trainer.recoveries.len(), 1);
    let rec = &faulted.trainer.recoveries[0];
    assert_eq!(rec.epoch, 3);
    assert_eq!(rec.attempt, 1);
    assert_eq!(rec.cause, DivergenceCause::NonFiniteLoss);
    assert_eq!(rec.lr_next, LR, "first retry replays at the unchanged LR");
    assert_eq!(faulted.trainer.history[2].retries, 1);
    assert!(faulted.trainer.history.iter().all(|e| e.loss.is_finite()));
    assert!(clean.trainer.recoveries.is_empty());
}

#[test]
fn persistent_divergence_exhausts_retries_with_damped_lr() {
    let ds = dataset();
    let (s, outcome) = train_with(
        &ds,
        Some(FaultPlan {
            persistent_nan_loss_epochs: vec![2],
            ..FaultPlan::default()
        }),
        6,
    );
    assert_eq!(
        outcome.unwrap_err(),
        Error::Diverged {
            epoch: 2,
            retries: 3
        }
    );
    // Epoch 1 completed; epoch 2 never did.
    assert_eq!(s.trainer.history.len(), 1);
    // All three retries were recorded: the first replays unchanged, each
    // later one halves the learning rate.
    let lrs: Vec<f32> = s.trainer.recoveries.iter().map(|r| r.lr_next).collect();
    assert_eq!(lrs, [LR, LR * 0.5, LR * 0.25]);
    // The caller is left holding the rolled-back (finite) checkpoint, not
    // the diverged parameters.
    assert!(s.ps.all_finite());
}

#[test]
fn corrupted_checkpoint_is_detected_instead_of_restored() {
    let ds = dataset();
    let (_, outcome) = train_with(
        &ds,
        Some(FaultPlan {
            nan_loss_epochs: vec![2],
            corrupt_checkpoint_epochs: vec![2],
            ..FaultPlan::default()
        }),
        3,
    );
    assert_eq!(outcome.unwrap_err(), Error::CheckpointCorrupt { epoch: 2 });
}
