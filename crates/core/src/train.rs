//! Minibatch training and evaluation.
//!
//! Each minibatch runs as one packed tape:
//! [`DgcnnModel::forward_batched`] forwards every sample, the per-sample
//! losses are averaged on the tape, and one backward pass yields the mean
//! batch gradient. Shuffling and dropout draw from RNG streams that depend
//! only on `(seed, epoch, sample)`, so training is bit-for-bit
//! reproducible for a fixed seed.

use crate::checkpoint::TrainState;
use crate::error::{Error, Result};
use crate::fault::FaultInjector;
use crate::model::DgcnnModel;
use crate::sample::PreparedSample;
use amdgcnn_nn::Adam;
use amdgcnn_obs::Obs;
use amdgcnn_tensor::{Matrix, ParamId, ParamStore, Tape, Var};
use rand::{rngs::StdRng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;

/// Global-norm bound every minibatch gradient is clipped to before the
/// optimizer step.
const GRAD_CLIP: f32 = 5.0;

/// Divergence-watchdog rollback retries allowed per epoch before
/// [`Trainer::train`] gives up with [`Error::Diverged`].
const MAX_RETRIES: usize = 3;

/// Learning-rate factor the watchdog applies per retry after the first.
const LR_BACKOFF: f32 = 0.5;

/// Training parameters. The number of epochs is an argument of
/// [`Trainer::train`], not a setting.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Adam learning rate (Table I search dimension).
    pub lr: f32,
    /// Samples per gradient step.
    pub batch_size: usize,
    /// Seed for shuffling and dropout.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            batch_size: 16,
            seed: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss.
    pub loss: f32,
    /// Watchdog retries this epoch needed before completing (0 for a clean
    /// epoch).
    pub retries: usize,
}

/// What tripped the divergence watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCause {
    /// A per-sample or epoch-mean loss was NaN/∞.
    NonFiniteLoss,
    /// A merged batch gradient contained NaN/∞.
    NonFiniteGradient,
}

/// One watchdog recovery: the epoch was rolled back to its checkpoint and
/// retried.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch (1-based) that diverged.
    pub epoch: usize,
    /// Retry number this event triggered (1-based).
    pub attempt: usize,
    /// What was detected.
    pub cause: DivergenceCause,
    /// Learning rate the retry will run at.
    pub lr_next: f32,
}

/// Incremental trainer: owns the optimizer state so callers can train a few
/// epochs, evaluate, and continue (the paper's epoch sweeps, Figs. 3–6).
pub struct Trainer {
    cfg: TrainConfig,
    optimizer: Adam,
    epoch: usize,
    injector: Option<Arc<FaultInjector>>,
    obs: Obs,
    /// Loss history across all epochs trained so far.
    pub history: Vec<EpochStats>,
    /// Watchdog recoveries across all epochs trained so far.
    pub recoveries: Vec<RecoveryEvent>,
}

impl Trainer {
    /// New trainer with Adam at the constant rate `cfg.lr`.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            optimizer: Adam::new(cfg.lr),
            epoch: 0,
            injector: None,
            obs: Obs::disabled(),
            history: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Attach an observability registry: epoch/forward/backward/optimizer
    /// spans and watchdog events are recorded into it. Timing is observed,
    /// never consumed, so results stay bit-identical to an unobserved run.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach a deterministic fault injector (testing hook: forces NaN
    /// losses and checkpoint corruption on the epochs its plan schedules).
    pub fn attach_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Number of epochs completed.
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Train for `epochs` additional epochs.
    ///
    /// Each epoch is guarded by the divergence watchdog: a checkpoint of the parameters and
    /// optimizer state is taken at epoch start, non-finite losses or
    /// gradients abort the epoch, roll back to the checkpoint, and retry —
    /// first unchanged (so a recovered run reproduces an uninterrupted one
    /// bit-for-bit after a transient fault), then with the learning rate
    /// halved per further attempt, for at most three retries.
    /// Recoveries are recorded in [`Trainer::recoveries`] and in the
    /// epoch's [`EpochStats::retries`].
    ///
    /// # Errors
    /// - [`Error::EmptySplit`] when `samples` is empty — there is nothing
    ///   to fit, and silently "training" zero samples would desynchronize
    ///   the epoch counter from the optimizer state.
    /// - [`Error::Diverged`] when an epoch stays non-finite after the
    ///   watchdog's retry budget; the parameters are left rolled back to
    ///   the epoch's checkpoint.
    /// - [`Error::CheckpointCorrupt`] when the rollback checkpoint itself
    ///   fails finiteness validation.
    pub fn train(
        &mut self,
        model: &DgcnnModel,
        ps: &mut ParamStore,
        samples: &[PreparedSample],
        epochs: usize,
    ) -> Result<()> {
        if samples.is_empty() {
            return Err(Error::EmptySplit);
        }
        for _ in 0..epochs {
            self.epoch += 1;
            // Cheap checkpoint: ParamStore clones share the value Arcs and
            // the optimizer only copies its moment buffers; the store
            // copies-on-write under optimizer steps, leaving this intact.
            let mut snap_ps = ps.clone();
            let snap_opt = self.optimizer.clone();
            let corrupt = self
                .injector
                .as_ref()
                .is_some_and(|inj| inj.corrupt_checkpoint(self.epoch));
            if corrupt && !snap_ps.is_empty() {
                // Injected checkpoint corruption: poison the snapshot so
                // restore-time validation must catch it.
                snap_ps.update(ParamId(0), |m| m.set(0, 0, f32::NAN));
            }
            let mut attempt = 0usize;
            loop {
                self.optimizer.set_learning_rate(self.retry_lr(attempt));
                let cause = match self.run_epoch(model, ps, samples, attempt) {
                    Ok(loss) => {
                        self.history.push(EpochStats {
                            epoch: self.epoch,
                            loss,
                            retries: attempt,
                        });
                        break;
                    }
                    Err(cause) => cause,
                };
                if !snap_ps.all_finite() {
                    return Err(Error::CheckpointCorrupt { epoch: self.epoch });
                }
                // Roll back to the last good state whether or not budget
                // remains, so a caller that gives up still holds finite
                // parameters.
                *ps = snap_ps.clone();
                self.optimizer = snap_opt.clone();
                attempt += 1;
                if attempt > MAX_RETRIES {
                    return Err(Error::Diverged {
                        epoch: self.epoch,
                        retries: MAX_RETRIES,
                    });
                }
                let lr_next = self.retry_lr(attempt);
                self.obs.counter("train/watchdog_retries").inc();
                {
                    let epoch = self.epoch;
                    self.obs.event("train/watchdog_rollback", || {
                        format!("epoch {epoch} attempt {attempt}: {cause:?}, retry at lr {lr_next}")
                    });
                }
                self.recoveries.push(RecoveryEvent {
                    epoch: self.epoch,
                    attempt,
                    cause,
                    lr_next,
                });
            }
        }
        Ok(())
    }

    /// Capture a durable, resumable snapshot of the run: parameters,
    /// optimizer moments, epoch counter, seed, and the history/recovery
    /// logs. Because every RNG stream the trainer uses is a pure function
    /// of `(seed, epoch, sample)`, this snapshot is sufficient for a
    /// resumed run to be **bit-identical** to an uninterrupted one.
    pub fn snapshot(&self, ps: &ParamStore) -> TrainState {
        TrainState {
            epochs_done: self.epoch,
            seed: self.cfg.seed,
            params: ps.clone(),
            opt: self.optimizer.export_state(),
            history: self.history.clone(),
            recoveries: self.recoveries.clone(),
        }
    }

    /// Restore this trainer (and `ps`) from a snapshot taken by
    /// [`snapshot`](Self::snapshot), after verifying the snapshot belongs
    /// to this experiment and can be trained on. Nothing changes when the
    /// check fails.
    ///
    /// # Errors
    /// [`Error::ResumeMismatch`] when the snapshot's seed differs from the
    /// configured one; its parameters disagree with `ps` in count, name,
    /// or shape; its Adam moments do not fit the parameters (`m` and `v`
    /// of different lengths or longer than the parameter list, a slot
    /// present in one but not the other, a slot shaped unlike its
    /// parameter); or a parameter or moment holds NaN/∞. Continuing from
    /// such a snapshot would silently change the run or crash its next
    /// step.
    pub fn restore(&mut self, state: &TrainState, ps: &mut ParamStore) -> Result<()> {
        check_restorable(state, ps, self.cfg.seed)
            .map_err(|detail| Error::ResumeMismatch { detail })?;
        *ps = state.params.clone();
        self.optimizer.restore_state(state.opt.clone());
        self.epoch = state.epochs_done;
        self.history = state.history.clone();
        self.recoveries = state.recoveries.clone();
        Ok(())
    }

    /// Learning rate for retry `attempt` (0-based) of an epoch: the
    /// configured rate, unchanged for the first attempt and first retry,
    /// then damped by [`LR_BACKOFF`] per further retry.
    fn retry_lr(&self, attempt: usize) -> f32 {
        if attempt <= 1 {
            self.cfg.lr
        } else {
            self.cfg.lr * LR_BACKOFF.powi(attempt as i32 - 1)
        }
    }

    /// One epoch over `samples`: shuffled minibatches, one packed
    /// forward/backward per minibatch, optimizer steps. Returns the mean
    /// epoch loss, or the divergence cause when the watchdog detects a
    /// non-finite loss or gradient (aborting the epoch mid-way; the caller
    /// rolls back). RNG streams depend only on `(seed, epoch, sample)`, so
    /// a retry of the same epoch replays it exactly.
    fn run_epoch(
        &mut self,
        model: &DgcnnModel,
        ps: &mut ParamStore,
        samples: &[PreparedSample],
        attempt: usize,
    ) -> std::result::Result<f32, DivergenceCause> {
        // Span timers resolved once per epoch.
        let _epoch_span = self.obs.timer("train/epoch").start();
        let t_forward = self.obs.timer("train/forward");
        let t_backward = self.obs.timer("train/backward");
        let t_opt = self.obs.timer("train/optimizer_step");
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut shuffle_rng =
            StdRng::seed_from_u64(self.cfg.seed ^ (self.epoch as u64).wrapping_mul(0x9E37));
        amdgcnn_data::types::shuffle(&mut order, &mut shuffle_rng);

        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(self.cfg.batch_size) {
            let dropout_rng_for = |idx: usize| {
                StdRng::seed_from_u64(
                    self.cfg.seed
                        ^ (self.epoch as u64) << 32
                        ^ (idx as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
                )
            };
            // One tape for the whole minibatch: the model forwards every
            // sample (DgcnnModel packs the subgraphs block-diagonally and
            // runs the message passing as a few large sparse kernels), and
            // the backward of the on-tape mean loss is the mean of the
            // per-sample gradients.
            let refs: Vec<&PreparedSample> = chunk.iter().map(|&idx| &samples[idx]).collect();
            let mut rngs: Vec<StdRng> = chunk.iter().map(|&idx| dropout_rng_for(idx)).collect();
            let mut tape = Tape::new();
            let forward_span = t_forward.start();
            let logits = model.forward_batched(&mut tape, ps, &refs, Some(&mut rngs));
            let losses: Vec<Var> = logits
                .iter()
                .zip(refs.iter())
                .map(|(&l, s)| tape.softmax_cross_entropy(l, Arc::new(vec![s.label])))
                .collect();
            let loss_vals: Vec<f32> = losses.iter().map(|&l| tape.value(l).get(0, 0)).collect();
            let mut total = losses[0];
            for &l in &losses[1..] {
                total = tape.add(total, l);
            }
            let mean = tape.scale(total, 1.0 / chunk.len() as f32);
            forward_span.finish();
            let backward_span = t_backward.start();
            let mut batch_grads = tape.backward(mean, ps.len());
            backward_span.finish();

            let mut losses_finite = true;
            for loss_val in &loss_vals {
                epoch_loss += *loss_val as f64;
                losses_finite &= loss_val.is_finite();
            }
            if !losses_finite {
                return Err(DivergenceCause::NonFiniteLoss);
            }
            batch_grads.clip_global_norm(GRAD_CLIP);
            if !batch_grads.all_finite() {
                return Err(DivergenceCause::NonFiniteGradient);
            }
            let opt_span = t_opt.start();
            self.optimizer.step(ps, &batch_grads);
            opt_span.finish();
        }
        let mut loss = (epoch_loss / samples.len() as f64) as f32;
        if self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.nan_loss(self.epoch, attempt))
        {
            // Injected divergence: the fault corrupts the reported loss
            // after the epoch ran clean, exercising the real detection and
            // rollback path.
            loss = f32::NAN;
        }
        if !loss.is_finite() {
            return Err(DivergenceCause::NonFiniteLoss);
        }
        Ok(loss)
    }
}

/// Why `state` cannot be restored into a trainer seeded with `seed` whose
/// model registered `ps`, or `Ok` when it can.
fn check_restorable(
    state: &TrainState,
    ps: &ParamStore,
    seed: u64,
) -> std::result::Result<(), String> {
    if state.seed != seed {
        return Err(format!(
            "checkpoint was trained with seed {} but this experiment uses seed {seed}",
            state.seed
        ));
    }
    if state.params.len() != ps.len() {
        return Err(format!(
            "checkpoint holds {} parameters but the model has {}",
            state.params.len(),
            ps.len()
        ));
    }
    for (id, value) in state.params.iter() {
        let expected = ps.get(id);
        if state.params.name(id) != ps.name(id)
            || value.rows() != expected.rows()
            || value.cols() != expected.cols()
        {
            return Err(format!(
                "parameter {} is {:?} {}x{} in the checkpoint but {:?} {}x{} in the model",
                id.0,
                state.params.name(id),
                value.rows(),
                value.cols(),
                ps.name(id),
                expected.rows(),
                expected.cols()
            ));
        }
        if !value.all_finite() {
            return Err(format!("parameter {} holds a non-finite value", id.0));
        }
    }
    let (m, v) = (&state.opt.m, &state.opt.v);
    if m.len() != v.len() || m.len() > ps.len() {
        return Err(format!(
            "Adam holds {} first- and {} second-moment slots for {} parameters",
            m.len(),
            v.len(),
            ps.len()
        ));
    }
    for (i, (m, v)) in m.iter().zip(v).enumerate() {
        match (m, v) {
            (None, None) => {}
            (Some(m), Some(v)) => {
                let param = ps.get(ParamId(i));
                for moment in [m, v] {
                    if moment.rows() != param.rows() || moment.cols() != param.cols() {
                        return Err(format!(
                            "Adam moment {i} is {}x{} but its parameter is {}x{}",
                            moment.rows(),
                            moment.cols(),
                            param.rows(),
                            param.cols()
                        ));
                    }
                    if !moment.all_finite() {
                        return Err(format!("Adam moment {i} holds a non-finite value"));
                    }
                }
            }
            _ => return Err(format!("Adam moment {i} is present in only one of m and v")),
        }
    }
    Ok(())
}

/// Inference micro-batch size for [`predict_probs`]: large enough to
/// amortize the packed-kernel launches, small enough to bound tape memory.
const PREDICT_CHUNK: usize = 32;

/// Class-probability predictions for a batch of samples (inference mode,
/// micro-batched packed forwards fanned over rayon, order preserved).
/// Returns `[num_samples, num_classes]` — bit-identical to a per-sample
/// forward loop, since the packed forward reproduces each sample's logits
/// exactly.
pub fn predict_probs(model: &DgcnnModel, ps: &ParamStore, samples: &[PreparedSample]) -> Matrix {
    let chunks: Vec<&[PreparedSample]> = samples.chunks(PREDICT_CHUNK).collect();
    let chunk_rows: Vec<Vec<Vec<f32>>> = chunks
        .par_iter()
        .map(|chunk| {
            let refs: Vec<&PreparedSample> = chunk.iter().collect();
            let mut tape = Tape::new();
            let logits = model.forward_batched(&mut tape, ps, &refs, None);
            logits
                .into_iter()
                .map(|l| {
                    let probs = tape.softmax_rows(l);
                    tape.value(probs).row(0).to_vec()
                })
                .collect()
        })
        .collect();
    let cols = model.cfg.num_classes;
    let mut out = Matrix::zeros(samples.len(), cols);
    for (r, row) in chunk_rows.iter().flatten().enumerate() {
        out.row_mut(r).copy_from_slice(row);
    }
    out
}

/// Labels of a sample batch.
pub fn labels_of(samples: &[PreparedSample]) -> Vec<usize> {
    samples.iter().map(|s| s.label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::model::{DgcnnModel, GnnKind, ModelConfig};
    use crate::sample::prepare_batch;
    use amdgcnn_data::{wn18_like, Wn18Config};

    fn tiny_setup(gnn: GnnKind) -> (DgcnnModel, ParamStore, Vec<PreparedSample>) {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut cfg =
            ModelConfig::dgcnn_defaults(gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
        cfg.hidden_dim = 8;
        cfg.sort_k = 10;
        cfg.dense_dim = 16;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        let samples = prepare_batch(&ds, &ds.train[..24.min(ds.train.len())], &fcfg);
        (model, ps, samples)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (model, mut ps, samples) = tiny_setup(GnnKind::am_dgcnn());
        let mut trainer = Trainer::new(TrainConfig {
            lr: 5e-3,
            ..Default::default()
        });
        trainer.train(&model, &mut ps, &samples, 8).expect("train");
        let first = trainer.history.first().expect("history").loss;
        let last = trainer.history.last().expect("history").loss;
        assert!(
            last < first,
            "training loss should fall: first {first}, last {last}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let (model, mut ps, samples) = tiny_setup(GnnKind::am_dgcnn());
            let mut trainer = Trainer::new(TrainConfig {
                lr: 5e-3,
                seed: 42,
                ..Default::default()
            });
            trainer.train(&model, &mut ps, &samples, 3).expect("train");
            let probs = predict_probs(&model, &ps, &samples);
            (
                trainer.history.iter().map(|e| e.loss).collect::<Vec<_>>(),
                probs,
            )
        };
        let (h1, p1) = run();
        let (h2, p2) = run();
        assert_eq!(
            h1, h2,
            "loss history must be reproducible under parallelism"
        );
        assert_eq!(p1, p2, "predictions must be reproducible");
    }

    #[test]
    fn predictions_are_valid_distributions() {
        let (model, ps, samples) = tiny_setup(GnnKind::Gcn);
        let probs = predict_probs(&model, &ps, &samples);
        assert_eq!(probs.rows(), samples.len());
        for r in 0..probs.rows() {
            let sum: f32 = probs.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(probs.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn incremental_training_continues() {
        let (model, mut ps, samples) = tiny_setup(GnnKind::Gcn);
        let mut trainer = Trainer::new(TrainConfig {
            lr: 5e-3,
            ..Default::default()
        });
        trainer.train(&model, &mut ps, &samples, 2).expect("train");
        assert_eq!(trainer.epochs_done(), 2);
        trainer.train(&model, &mut ps, &samples, 3).expect("train");
        assert_eq!(trainer.epochs_done(), 5);
        assert_eq!(trainer.history.len(), 5);
        // Epoch indices are contiguous.
        for (i, e) in trainer.history.iter().enumerate() {
            assert_eq!(e.epoch, i + 1);
        }
    }

    #[test]
    fn labels_roundtrip() {
        let (_, _, samples) = tiny_setup(GnnKind::Gcn);
        let labels = labels_of(&samples);
        assert_eq!(labels.len(), samples.len());
        for (l, s) in labels.iter().zip(samples.iter()) {
            assert_eq!(*l, s.label);
        }
    }

    /// A one-epoch AM-DGCNN snapshot after a round trip through the
    /// checkpoint file format, edited by `edit`, must be refused with
    /// [`Error::ResumeMismatch`] by a fresh trainer of the same seed,
    /// leaving the trainer and the parameters as they were.
    fn assert_restore_refuses(edit: impl FnOnce(&mut TrainState)) {
        use crate::checkpoint::{encode_train_state, load_train_state};
        let (model, mut ps, samples) = tiny_setup(GnnKind::am_dgcnn());
        let mut trainer = Trainer::new(TrainConfig::default());
        trainer.train(&model, &mut ps, &samples, 1).expect("train");
        let mut state = trainer.snapshot(&ps);
        edit(&mut state);
        let state = load_train_state(&encode_train_state(&state)).expect("checksums hold");

        let (_, mut fresh_ps, _) = tiny_setup(GnnKind::am_dgcnn());
        let before = amdgcnn_tensor::io::params_digest(&fresh_ps);
        let mut fresh = Trainer::new(TrainConfig::default());
        let err = fresh.restore(&state, &mut fresh_ps).unwrap_err();
        assert!(matches!(err, Error::ResumeMismatch { .. }), "{err:?}");
        assert_eq!(fresh.epochs_done(), 0);
        assert!(fresh.history.is_empty());
        assert_eq!(fresh.optimizer.steps(), 0);
        assert_eq!(amdgcnn_tensor::io::params_digest(&fresh_ps), before);
    }

    /// Index of the first Adam slot the snapshot's epoch filled.
    fn first_moment(state: &TrainState) -> usize {
        state
            .opt
            .m
            .iter()
            .position(Option::is_some)
            .expect("one epoch fills a moment")
    }

    #[test]
    fn restore_refuses_moment_lists_of_different_lengths() {
        assert_restore_refuses(|s| s.opt.v.truncate(1));
    }

    #[test]
    fn restore_refuses_more_moment_slots_than_parameters() {
        assert_restore_refuses(|s| {
            s.opt.m.push(None);
            s.opt.v.push(None);
        });
    }

    #[test]
    fn restore_refuses_a_moment_present_in_only_one_list() {
        assert_restore_refuses(|s| {
            let i = first_moment(s);
            s.opt.v[i] = None;
        });
    }

    #[test]
    fn restore_refuses_a_moment_shaped_unlike_its_parameter() {
        assert_restore_refuses(|s| {
            let i = first_moment(s);
            s.opt.m[i] = Some(Matrix::zeros(1, 1));
        });
    }

    #[test]
    fn restore_refuses_non_finite_parameters() {
        assert_restore_refuses(|s| s.params.update(ParamId(0), |m| m.set(0, 0, f32::NAN)));
    }

    #[test]
    fn restore_refuses_non_finite_moments() {
        assert_restore_refuses(|s| {
            let i = first_moment(s);
            let v = s.opt.v[i].as_mut().expect("v pairs with m");
            v.set(0, 0, f32::INFINITY);
        });
    }

    #[test]
    fn empty_split_rejected() {
        let (model, mut ps, _) = tiny_setup(GnnKind::Gcn);
        let mut trainer = Trainer::new(TrainConfig::default());
        let err = trainer.train(&model, &mut ps, &[], 1).unwrap_err();
        assert_eq!(err, Error::EmptySplit);
        assert_eq!(
            trainer.epochs_done(),
            0,
            "failed call must not advance epochs"
        );
    }
}
