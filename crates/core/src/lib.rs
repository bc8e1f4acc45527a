//! # am-dgcnn
//!
//! The paper's contribution, reproduced: link classification in knowledge
//! graphs with the SEAL framework, comparing **vanilla DGCNN** (GCN message
//! passing, edge-blind) against **AM-DGCNN** (GAT message passing consuming
//! edge attributes).
//!
//! Pipeline (paper §III): extract the 2-hop enclosing subgraph of a target
//! pair (union or intersection mode) with the target link hidden → label
//! nodes with DRNL → build node/edge attribute matrices → run the DGCNN
//! skeleton (message passing → SortPooling → 1-D conv read-out → dense
//! classifier) → softmax over link classes.
//!
//! Entry points: [`pipeline::Experiment`] for end-to-end runs,
//! [`model::DgcnnModel`] for direct model access, [`metrics`] for the
//! paper's AUC/AP definitions.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod features;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod runtime;
pub mod sample;
pub mod store;
pub mod train;

pub use checkpoint::{CheckpointDir, TrainState};
pub use error::Error;
pub use fault::{EngineFault, FaultInjector, FaultPlan, TransientFault};
pub use features::FeatureConfig;
pub use model::{DgcnnModel, GnnKind, ModelConfig};
pub use pipeline::{
    evaluate_model, EvalMetrics, Experiment, ExperimentBuilder, Hyperparams, Session,
};
pub use sample::{
    message_graph_for, message_graph_from_messages, prepare_batch, prepare_batch_obs,
    prepare_sample, prepare_sample_obs, PreparedSample, SampleTimers,
};
pub use store::{SampleStore, StoreKey};
pub use train::{predict_probs, DivergenceCause, RecoveryEvent, TrainConfig, Trainer};

pub use amdgcnn_obs as obs;
