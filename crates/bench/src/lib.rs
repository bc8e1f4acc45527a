//! # amdgcnn-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). Each
//! `src/bin/*` binary prints an aligned text table and machine-readable
//! `JSON <label> {...}` lines. Speed is measured by the separate
//! `benchmark/` package, not here.

#![warn(missing_docs)]

pub mod configs;
pub mod runner;

pub use configs::{default_hyper, tuned_hyper, Bench};
pub use runner::{
    am_dgcnn_for, compare_models, epoch_sweep, load_dataset, sample_sweep, ComparisonRow,
    SweepPoint, EPOCH_GRID,
};
