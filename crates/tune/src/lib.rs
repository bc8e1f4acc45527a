//! # amdgcnn-tune
//!
//! Hyperparameter optimization standing in for DeepHyper (§III-D): the
//! Table I search space, random search, and GP-based Bayesian optimization
//! with Expected Improvement (the paper's Centralized Bayesian Optimization
//! strategy). The crate is model-agnostic: a caller passes an objective
//! over raw points, as `table1_autotune` does with its training trials.
//!
//! # Example: Bayesian optimization of a toy objective
//!
//! ```
//! use amdgcnn_tune::{bayes_opt, BayesConfig, ParamSpec, SearchSpace};
//!
//! let mut space = SearchSpace::new();
//! space.add("x", ParamSpec::IntRange { lo: 0, hi: 100 });
//! let objective = |p: &[f64]| -(p[0] - 42.0).abs(); // maximum at x = 42
//! let result = bayes_opt(&space, objective, 20, BayesConfig::default(), 7);
//! assert!((result.best.point[0] - 42.0).abs() < 25.0);
//! ```

#![warn(missing_docs)]

pub mod gp;
pub mod search;
pub mod space;

pub use gp::{GaussianProcess, GpConfig, Posterior};
pub use search::{bayes_opt, random_search, BayesConfig, SearchResult, Trial};
pub use space::{ParamSpec, SearchSpace};
