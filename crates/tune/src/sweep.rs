//! Store-backed trial sweeps: hyperparameter search over full experiment
//! runs that share one persistent sample store.
//!
//! Sample preparation (k-hop extraction, DRNL labeling, tensorization) is
//! independent of every tunable hyperparameter — Table I varies learning
//! rate, hidden dimension, and sort-k, none of which touch the prepared
//! tensors. A sweep therefore prepares each sample **exactly once**: the
//! first trial populates the [`SampleStore`](am_dgcnn::SampleStore) and
//! every later trial decodes from it bit-identically, which is why a
//! store-backed sweep's trial metrics match a store-less sweep
//! bit-for-bit (proptested in `crates/tune/tests/store_sweep.rs`).
//!
//! Observability: each trial is wrapped in a `tune/trial` span and counted
//! on `tune/trials`; store traffic lands on the session's
//! `pipeline/prefetch/store_hit` / `store_miss` counters, so "prepared
//! exactly once" is directly auditable from the obs registry.

use crate::search::{random_search, SearchResult};
use crate::space::SearchSpace;
use am_dgcnn::{Error, Experiment, GnnKind, Hyperparams};
use amdgcnn_data::Dataset;
use amdgcnn_obs::Obs;
use std::path::PathBuf;

/// Settings for a [`sweep`] — everything about the trials that is *not*
/// being searched over.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Model variant trained by every trial.
    pub gnn: GnnKind,
    /// Epochs each trial trains for.
    pub epochs: usize,
    /// Number of random-search trials.
    pub budget: usize,
    /// Seed shared by the search's sampler and every trial's training run
    /// (trials are deterministic, so the whole sweep is).
    pub seed: u64,
    /// Optional cap on training links per trial (`None` = full split).
    pub train_subset: Option<usize>,
    /// Shared `AMSS` sample-store path. `None` disables persistence and
    /// every trial re-prepares from scratch.
    pub store: Option<PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            gnn: GnnKind::am_dgcnn(),
            epochs: 1,
            budget: 8,
            seed: 0,
            train_subset: None,
            store: None,
        }
    }
}

/// Map a Table I search-space point onto the pipeline's [`Hyperparams`].
pub fn hyperparams_at(point: &[f64]) -> Hyperparams {
    Hyperparams {
        lr: point[0] as f32,
        hidden_dim: point[1] as usize,
        sort_k: point[2] as usize,
    }
}

/// Random-search `cfg.budget` trials of full train-and-evaluate runs over
/// `space` (Table I layout: `lr`, `hidden_dim`, `sort_k`), maximizing test
/// AUC. With [`SweepConfig::store`] set, all trials share one sample
/// store, so preparation runs exactly once across the sweep.
///
/// # Errors
/// The first trial failure aborts the sweep and is returned as-is —
/// notably [`Error::StoreMismatch`] when the configured store belongs to
/// different data.
pub fn sweep(
    space: &SearchSpace,
    ds: &Dataset,
    cfg: &SweepConfig,
    obs: &Obs,
) -> Result<SearchResult, Error> {
    let trials = obs.counter("tune/trials");
    let mut failure: Option<Error> = None;
    let result = random_search(
        space,
        |point| {
            if failure.is_some() {
                // A trial already failed; stop doing real work and let the
                // error surface after the search loop unwinds.
                return f64::NEG_INFINITY;
            }
            let span = obs.span("tune/trial");
            let mut builder = Experiment::builder()
                .gnn(cfg.gnn)
                .hyper(hyperparams_at(point))
                .seed(cfg.seed)
                .observe(obs.clone());
            if let Some(store) = &cfg.store {
                builder = builder.sample_store(store);
            }
            let exp = builder.build();
            let value = exp
                .session(ds, cfg.train_subset)
                .and_then(|session| exp.run_session(session, &[cfg.epochs]))
                .map(|metrics| metrics[0].auc);
            span.finish();
            trials.inc();
            match value {
                Ok(auc) => auc,
                Err(e) => {
                    failure = Some(e);
                    f64::NEG_INFINITY
                }
            }
        },
        cfg.budget,
        cfg.seed,
    );
    match failure {
        Some(e) => Err(e),
        None => Ok(result),
    }
}
