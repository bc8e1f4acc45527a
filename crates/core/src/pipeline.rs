//! High-level experiment pipeline: dataset → prepared samples → trained
//! model → metrics. This is the API the paper's tables and figures are
//! regenerated through (crates/bench) and the entry point for examples.

use crate::checkpoint::CheckpointDir;
use crate::error::{Error, Result};
use crate::fault::FaultInjector;
use crate::features::FeatureConfig;
use crate::metrics::{accuracy, argmax_predictions, average_precision, macro_auc};
use crate::model::{DgcnnModel, GnnKind, ModelConfig};
use crate::sample::{prepare_sample_obs, PreparedSample, SampleTimers};
use crate::schedule::LrSchedule;
use crate::store::{SampleStore, StoreKey};
use crate::train::{labels_of, predict_probs, TrainConfig, Trainer};
use amdgcnn_data::{Dataset, LabeledLink};
use amdgcnn_obs::Obs;
use amdgcnn_tensor::ParamStore;
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Durable-checkpointing policy for an [`Experiment`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding the generation-numbered checkpoint files.
    pub dir: PathBuf,
    /// Save a [`crate::checkpoint::TrainState`] every this many epochs
    /// (clamped to at least 1).
    pub every: usize,
    /// Generations to retain (clamped to at least 2, so a torn newest
    /// generation always leaves a fallback).
    pub keep: usize,
}

/// The tunable hyperparameters of Table I.
#[derive(Debug, Clone, Copy, Serialize, PartialEq)]
pub struct Hyperparams {
    /// Learning rate ∈ [1e-6, 1e-2].
    pub lr: f32,
    /// GNN hidden dimension ∈ {16, 32, 64, 128}.
    pub hidden_dim: usize,
    /// Sort-aggregator k ∈ [5, 150].
    pub sort_k: usize,
}

impl Default for Hyperparams {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            hidden_dim: 32,
            sort_k: 30,
        }
    }
}

/// Evaluation summary on a test split.
#[derive(Debug, Clone, Copy, Serialize, PartialEq)]
pub struct EvalMetrics {
    /// Macro one-vs-rest ROC-AUC.
    pub auc: f64,
    /// The paper's Average Precision (macro per-class precision).
    pub ap: f64,
    /// Argmax accuracy.
    pub accuracy: f64,
}

/// A runnable experiment binding a dataset to a model variant and
/// hyperparameters. Construct with [`Experiment::builder`] (or the
/// [`Experiment::new`] shorthand for defaults).
pub struct Experiment {
    /// Model variant (vanilla DGCNN / AM-DGCNN / ablations).
    pub gnn: GnnKind,
    /// Table I hyperparameters.
    pub hyper: Hyperparams,
    /// Training settings (epochs are driven by the runner methods).
    pub train: TrainConfig,
    /// Learning-rate schedule applied by sessions built from this
    /// experiment.
    pub schedule: LrSchedule,
    /// Durable checkpointing (None disables).
    pub checkpoint: Option<CheckpointPolicy>,
    /// When true, [`Experiment::session`] restores the newest loadable
    /// generation from [`CheckpointPolicy::dir`] before returning.
    pub resume: bool,
    /// Deterministic fault injector attached to sessions (testing hook).
    pub injector: Option<Arc<FaultInjector>>,
    /// Observability registry threaded into sessions (disabled by
    /// default — spans, counters, and events are then no-ops).
    pub obs: Obs,
    /// Persistent sample-store file (None disables; see
    /// [`ExperimentBuilder::sample_store`]).
    pub store: Option<PathBuf>,
    /// Graph generation baked into the store key (0 for static datasets;
    /// see [`ExperimentBuilder::graph_generation`]).
    pub graph_generation: u64,
}

/// Fluent construction of an [`Experiment`] — the supported way to deviate
/// from the defaults without reaching into [`TrainConfig`] fields.
///
/// ```
/// use am_dgcnn::pipeline::Experiment;
/// use am_dgcnn::model::GnnKind;
/// use am_dgcnn::schedule::LrSchedule;
///
/// let exp = Experiment::builder()
///     .gnn(GnnKind::am_dgcnn())
///     .seed(7)
///     .batch_size(32)
///     .schedule(LrSchedule::StepDecay { every: 10, gamma: 0.5 })
///     .build();
/// assert_eq!(exp.train.batch_size, 32);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    gnn: GnnKind,
    hyper: Hyperparams,
    train: TrainConfig,
    schedule: LrSchedule,
    checkpoint: Option<CheckpointPolicy>,
    resume: bool,
    injector: Option<Arc<FaultInjector>>,
    obs: Obs,
    store: Option<PathBuf>,
    graph_generation: u64,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        let hyper = Hyperparams::default();
        Self {
            gnn: GnnKind::am_dgcnn(),
            train: TrainConfig {
                lr: hyper.lr,
                ..Default::default()
            },
            hyper,
            schedule: LrSchedule::Constant,
            checkpoint: None,
            resume: false,
            injector: None,
            obs: Obs::disabled(),
            store: None,
            graph_generation: 0,
        }
    }
}

impl ExperimentBuilder {
    /// Model variant (default: AM-DGCNN).
    pub fn gnn(mut self, gnn: GnnKind) -> Self {
        self.gnn = gnn;
        self
    }

    /// Table I hyperparameters; also adopts `hyper.lr` as the training
    /// learning rate.
    pub fn hyper(mut self, hyper: Hyperparams) -> Self {
        self.train.lr = hyper.lr;
        self.hyper = hyper;
        self
    }

    /// Seed for parameter init, shuffling, and dropout.
    pub fn seed(mut self, seed: u64) -> Self {
        self.train.seed = seed;
        self
    }

    /// Learning-rate schedule (default: constant).
    pub fn schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Samples per gradient step.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.train.batch_size = batch_size;
        self
    }

    /// Global-norm gradient clip; `None` disables clipping.
    pub fn grad_clip(mut self, clip: Option<f32>) -> Self {
        self.train.grad_clip = clip;
        self
    }

    /// Divergence-watchdog policy (rollback retries, LR backoff); on by
    /// default with [`crate::train::WatchdogConfig::default`].
    pub fn watchdog(mut self, watchdog: crate::train::WatchdogConfig) -> Self {
        self.train.watchdog = watchdog;
        self
    }

    /// Durably checkpoint the training state to `dir` every `every` epochs
    /// (crash-safe: temp + fsync + atomic rename, checksummed,
    /// generation-numbered — see [`crate::checkpoint`]).
    pub fn checkpoint_to(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            dir: dir.into(),
            every: every.max(1),
            keep: 2,
        });
        self
    }

    /// Full control over the checkpoint policy (directory, cadence,
    /// retained generations).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Resume from the newest loadable checkpoint generation in `dir`
    /// (and keep checkpointing there). A directory with no checkpoints
    /// starts fresh; a directory where every generation is corrupt is an
    /// error at [`Experiment::session`] time. Because the trainer's RNG
    /// streams are pure functions of `(seed, epoch, sample)`, the resumed
    /// run is bit-identical to one that never stopped.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        match &mut self.checkpoint {
            Some(policy) => policy.dir = dir,
            None => {
                self.checkpoint = Some(CheckpointPolicy {
                    dir,
                    every: 1,
                    keep: 2,
                });
            }
        }
        self.resume = true;
        self
    }

    /// Attach a deterministic fault injector to sessions built from this
    /// experiment (testing hook: schedules NaN losses, checkpoint
    /// corruption, and disk faults on checkpoint writes).
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Persist tensorized samples to the `AMSS` file at `path` and reuse
    /// them on later sessions (including
    /// [`resume_from`](ExperimentBuilder::resume_from) and tuning trials
    /// over the same data): a warm store skips k-hop extraction, DRNL
    /// labeling, and feature construction entirely, bit-identically. The
    /// store is keyed by dataset digest + [`FeatureConfig`] fingerprint +
    /// graph generation; a stale store fails the session with
    /// [`Error::StoreMismatch`] instead of being silently reused.
    pub fn sample_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Graph generation baked into the sample-store key (default 0).
    /// When training over a live-mutable graph, pass
    /// `MutableGraph::generation()` here so stores prepared against an
    /// older graph state are refused.
    pub fn graph_generation(mut self, generation: u64) -> Self {
        self.graph_generation = generation;
        self
    }

    /// Record per-stage spans (sample preparation, k-hop, DRNL,
    /// tensorization, train forward/backward/optimizer, checkpoint I/O,
    /// evaluation) into `obs`. Observation never feeds back into the
    /// computation, so results are bit-identical with or without it.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Finish building.
    pub fn build(self) -> Experiment {
        Experiment {
            gnn: self.gnn,
            hyper: self.hyper,
            train: self.train,
            schedule: self.schedule,
            checkpoint: self.checkpoint,
            resume: self.resume,
            injector: self.injector,
            obs: self.obs,
            store: self.store,
            graph_generation: self.graph_generation,
        }
    }
}

impl Experiment {
    /// Start building an experiment fluently.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Experiment with default training settings at the given
    /// hyperparameters — a thin shim over [`Experiment::builder`].
    pub fn new(gnn: GnnKind, hyper: Hyperparams, seed: u64) -> Self {
        Self::builder().gnn(gnn).hyper(hyper).seed(seed).build()
    }

    fn model_config(&self, ds: &Dataset, fcfg: &FeatureConfig) -> ModelConfig {
        let mut cfg =
            ModelConfig::dgcnn_defaults(self.gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
        cfg.hidden_dim = self.hyper.hidden_dim;
        cfg.sort_k = self.hyper.sort_k;
        cfg.num_relations = ds.graph.num_edge_types();
        cfg
    }

    /// Prepare splits, build the model, train `epochs`, and evaluate on the
    /// test split.
    pub fn run(&self, ds: &Dataset, epochs: usize) -> Result<EvalMetrics> {
        let session = self.session(ds, None)?;
        Ok(self
            .run_session(session, &[epochs])?
            .pop()
            .expect("one checkpoint requested"))
    }

    /// Build a reusable session (prepared samples + fresh model). When the
    /// experiment was built with
    /// [`resume_from`](ExperimentBuilder::resume_from), the newest loadable
    /// checkpoint generation is restored into the session before it is
    /// returned.
    ///
    /// # Errors
    /// - [`Error::SubsetTooLarge`] when `train_subset` exceeds the training
    ///   split.
    /// - [`Error::CheckpointIo`] when resuming and checkpoint files exist
    ///   but none loads cleanly.
    /// - [`Error::ResumeMismatch`] when a checkpoint loads but belongs to a
    ///   different experiment (seed or parameter shapes differ).
    /// - [`Error::StoreMismatch`] when a configured sample store belongs to
    ///   different data, features, or graph generation (stale stores are
    ///   refused, never silently reused); [`Error::StoreCorrupt`] /
    ///   [`Error::StoreIo`] when its header cannot be verified or the file
    ///   cannot be read or written.
    pub fn session(&self, ds: &Dataset, train_subset: Option<usize>) -> Result<Session> {
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let cfg = self.model_config(ds, &fcfg);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(self.train.seed ^ 0x5eed_1a7e);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        let train_links = match train_subset {
            Some(n) if n > ds.train.len() => {
                return Err(Error::SubsetTooLarge {
                    requested: n,
                    available: ds.train.len(),
                })
            }
            Some(n) => &ds.train[..n],
            None => &ds.train[..],
        };
        // Both splits consult the persistent sample store when one is
        // configured — eval samples included, so a resumed or repeated run
        // re-tensorizes nothing.
        let mut store = match &self.store {
            Some(path) => Some(SampleStore::open(
                path,
                StoreKey::for_dataset(ds, &fcfg, self.graph_generation),
            )?),
            None => None,
        };
        let train_samples = prepare_split(ds, train_links, &fcfg, &self.obs, store.as_mut());
        let test_samples = prepare_split(ds, &ds.test, &fcfg, &self.obs, store.as_mut());
        if let Some(store) = store.as_mut() {
            if store.is_dirty() {
                let flush_span = self.obs.span("pipeline/prefetch/store_flush");
                let fault = self.injector.as_ref().and_then(|inj| inj.next_disk_fault());
                store.flush(fault)?;
                flush_span.finish();
            }
        }
        let mut session = Session {
            model,
            ps,
            train_samples,
            test_samples,
            trainer: Trainer::new(self.train)
                .with_schedule(self.schedule)
                .with_obs(self.obs.clone()),
            obs: self.obs.clone(),
        };
        if let Some(inj) = &self.injector {
            session.trainer.attach_fault_injector(inj.clone());
        }
        if self.resume {
            let policy = self
                .checkpoint
                .as_ref()
                .ok_or_else(|| Error::CheckpointIo {
                    detail: "resume requested without a checkpoint directory".into(),
                })?;
            let restore_span = self.obs.span("pipeline/checkpoint/restore");
            let dir = CheckpointDir::create(&policy.dir)?;
            if let Some((generation, state)) = dir.latest()? {
                session.trainer.restore(&state, &mut session.ps)?;
                let epochs = state.epochs_done;
                self.obs.event("pipeline/checkpoint/restore", || {
                    format!("resumed generation {generation} at epoch {epochs}")
                });
            }
            restore_span.finish();
        }
        Ok(session)
    }

    /// Train a session to each checkpoint in `epoch_checkpoints`
    /// (ascending), evaluating on the test split at every checkpoint — the
    /// shape of the paper's epoch sweeps (Figs. 3–6).
    ///
    /// # Errors
    /// [`Error::DescendingCheckpoints`] when a checkpoint lies behind the
    /// session's training progress; [`Error::EmptySplit`] when the session
    /// has no training samples and a checkpoint requires training.
    pub fn run_session(
        &self,
        mut session: Session,
        epoch_checkpoints: &[usize],
    ) -> Result<Vec<EvalMetrics>> {
        let mut out = Vec::with_capacity(epoch_checkpoints.len());
        for &target in epoch_checkpoints {
            if target < session.trainer.epochs_done() {
                return Err(Error::DescendingCheckpoints {
                    epochs_done: session.trainer.epochs_done(),
                    requested: target,
                });
            }
            match &self.checkpoint {
                None => {
                    let additional = target - session.trainer.epochs_done();
                    if additional > 0 {
                        session.trainer.train(
                            &session.model,
                            &mut session.ps,
                            &session.train_samples,
                            additional,
                        )?;
                    }
                }
                Some(policy) => {
                    // Train in chunks aligned to the checkpoint cadence so a
                    // crash at any instant loses at most `every - 1` epochs.
                    let every = policy.every.max(1);
                    while session.trainer.epochs_done() < target {
                        let done = session.trainer.epochs_done();
                        let next_save = (done / every + 1) * every;
                        let step = next_save.min(target) - done;
                        session.trainer.train(
                            &session.model,
                            &mut session.ps,
                            &session.train_samples,
                            step,
                        )?;
                        if session.trainer.epochs_done().is_multiple_of(every) {
                            self.save_checkpoint(&session, policy)?;
                        }
                    }
                }
            }
            out.push(session.evaluate());
        }
        Ok(out)
    }

    /// Durably write the session's current [`crate::checkpoint::TrainState`]
    /// as a new generation, consulting the fault injector for a scheduled
    /// disk fault (testing hook; `None` in production).
    fn save_checkpoint(&self, session: &Session, policy: &CheckpointPolicy) -> Result<()> {
        let save_span = self.obs.span("pipeline/checkpoint/save");
        let dir = CheckpointDir::create(&policy.dir)?;
        let state = session.trainer.snapshot(&session.ps);
        let fault = self.injector.as_ref().and_then(|inj| inj.next_disk_fault());
        dir.save(&state, policy.keep, fault)?;
        save_span.finish();
        let epochs = session.trainer.epochs_done();
        self.obs.event("pipeline/checkpoint/save", || {
            format!("saved at epoch {epochs}")
        });
        Ok(())
    }
}

/// Prepare `links` in order, decoding each sample from `store` when it
/// holds one and running k-hop extraction, DRNL labelling and
/// tensorization otherwise. Misses are inserted into the store in index
/// order (the caller flushes). Store hits and misses are counted on
/// `pipeline/prefetch/store_hit` / `store_miss`.
fn prepare_split(
    ds: &Dataset,
    links: &[LabeledLink],
    fcfg: &FeatureConfig,
    obs: &Obs,
    store: Option<&mut SampleStore>,
) -> Vec<PreparedSample> {
    let timers = SampleTimers::new(obs);
    let hit_counter = obs.counter("pipeline/prefetch/store_hit");
    let miss_counter = obs.counter("pipeline/prefetch/store_miss");
    let mut samples = Vec::with_capacity(links.len());
    let mut miss_idx = Vec::new();
    for (idx, link) in links.iter().enumerate() {
        let sample = match store.as_deref().and_then(|s| s.get(ds, link)) {
            Some(sample) => {
                hit_counter.inc();
                sample
            }
            None => {
                if store.is_some() {
                    miss_counter.inc();
                }
                miss_idx.push(idx);
                prepare_sample_obs(ds, link, fcfg, &timers)
            }
        };
        samples.push(sample);
    }
    if let Some(store) = store {
        for idx in miss_idx {
            store.insert(&links[idx], &samples[idx]);
        }
    }
    samples
}

/// Training state bundled for incremental runs.
pub struct Session {
    /// The model under training.
    pub model: DgcnnModel,
    /// Its parameters.
    pub ps: ParamStore,
    /// Prepared training samples.
    pub train_samples: Vec<PreparedSample>,
    /// Prepared test samples.
    pub test_samples: Vec<PreparedSample>,
    /// Incremental trainer (owns optimizer state).
    pub trainer: Trainer,
    /// Observability handle inherited from the experiment (disabled when
    /// the experiment was not built with
    /// [`observe`](ExperimentBuilder::observe)).
    pub obs: Obs,
}

impl Session {
    /// Evaluate the current parameters on the test split (recorded as the
    /// `pipeline/evaluate` span when observability is attached).
    pub fn evaluate(&self) -> EvalMetrics {
        let _span = self.obs.span("pipeline/evaluate");
        evaluate_model(&self.model, &self.ps, &self.test_samples)
    }
}

/// Compute the paper's metrics for a model on a sample batch.
pub fn evaluate_model(
    model: &impl crate::train::LinkModel,
    ps: &ParamStore,
    samples: &[PreparedSample],
) -> EvalMetrics {
    let probs = predict_probs(model, ps, samples);
    let labels = labels_of(samples);
    let preds = argmax_predictions(&probs);
    EvalMetrics {
        auc: macro_auc(&probs, &labels),
        ap: average_precision(&preds, &labels, model.num_classes()),
        accuracy: accuracy(&preds, &labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_data::{wn18_like, Wn18Config};

    fn fast_hyper() -> Hyperparams {
        Hyperparams {
            lr: 5e-3,
            hidden_dim: 8,
            sort_k: 10,
        }
    }

    #[test]
    fn run_returns_sane_metrics() {
        let ds = wn18_like(&Wn18Config::tiny());
        let exp = Experiment::new(GnnKind::Gcn, fast_hyper(), 0);
        let m = exp.run(&ds, 1).expect("run");
        assert!((0.0..=1.0).contains(&m.auc), "auc {}", m.auc);
        assert!((0.0..=1.0).contains(&m.ap));
        assert!((0.0..=1.0).contains(&m.accuracy));
    }

    #[test]
    fn checkpointed_run_matches_oneshot() {
        let ds = wn18_like(&Wn18Config::tiny());
        let exp = Experiment::new(GnnKind::am_dgcnn(), fast_hyper(), 1);
        // Train 1 then continue to 3 — final checkpoint must equal a fresh
        // run trained straight to 3 epochs (incremental training is exact).
        let stepped = exp
            .run_session(exp.session(&ds, None).expect("session"), &[1, 3])
            .expect("checkpoints");
        let direct = exp.run(&ds, 3).expect("run");
        assert_eq!(stepped.len(), 2);
        assert_eq!(stepped[1], direct);
    }

    #[test]
    fn train_subset_limits_samples() {
        let ds = wn18_like(&Wn18Config::tiny());
        let exp = Experiment::new(GnnKind::Gcn, fast_hyper(), 2);
        let session = exp.session(&ds, Some(10)).expect("session");
        assert_eq!(session.train_samples.len(), 10);
        assert_eq!(session.test_samples.len(), ds.test.len());
    }

    #[test]
    fn oversized_subset_is_an_error() {
        let ds = wn18_like(&Wn18Config::tiny());
        let exp = Experiment::new(GnnKind::Gcn, fast_hyper(), 2);
        let requested = ds.train.len() + 1;
        let err = exp.session(&ds, Some(requested)).err().expect("error");
        assert_eq!(
            err,
            Error::SubsetTooLarge {
                requested,
                available: ds.train.len(),
            }
        );
    }

    #[test]
    fn descending_checkpoints_rejected() {
        let ds = wn18_like(&Wn18Config::tiny());
        let exp = Experiment::new(GnnKind::Gcn, fast_hyper(), 3);
        let err = exp
            .run_session(exp.session(&ds, None).expect("session"), &[3, 1])
            .expect_err("error");
        assert_eq!(
            err,
            Error::DescendingCheckpoints {
                epochs_done: 3,
                requested: 1,
            }
        );
    }

    #[test]
    fn builder_matches_new_and_sets_knobs() {
        let ds = wn18_like(&Wn18Config::tiny());
        let via_new = Experiment::new(GnnKind::Gcn, fast_hyper(), 5);
        let via_builder = Experiment::builder()
            .gnn(GnnKind::Gcn)
            .hyper(fast_hyper())
            .seed(5)
            .build();
        assert_eq!(
            via_new.run(&ds, 1).expect("run"),
            via_builder.run(&ds, 1).expect("run"),
            "builder defaults must match Experiment::new"
        );

        let tuned = Experiment::builder()
            .batch_size(4)
            .grad_clip(None)
            .schedule(LrSchedule::StepDecay {
                every: 1,
                gamma: 0.5,
            })
            .build();
        assert_eq!(tuned.train.batch_size, 4);
        assert_eq!(tuned.train.grad_clip, None);
        let session = tuned.session(&ds, Some(4)).expect("session");
        assert!(matches!(
            session.trainer.schedule(),
            LrSchedule::StepDecay { .. }
        ));
    }
}
