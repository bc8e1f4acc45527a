//! # amdgcnn-nn
//!
//! Neural-network building blocks over `amdgcnn-tensor`: dense layers, GCN,
//! GAT (with edge attributes) and R-GCN message passing behind the unified
//! [`GraphLayer`] trait over a shared [`MessageGraph`] operand, the DGCNN
//! read-out convolutions, dropout, activations, and the Adam optimizer.
//! [`BlockDiagGraph`] packs many subgraphs into one sparse forward.

#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod dropout;
pub mod gat;
pub mod gcn;
pub mod linear;
pub mod message_graph;
pub mod mlp;
pub mod optim;
pub mod rgcn;

pub use activation::Activation;
pub use conv::Conv1dLayer;
pub use dropout::Dropout;
pub use gat::{GatConfig, GatConv};
pub use gcn::GcnConv;
pub use linear::Linear;
pub use message_graph::{BlockDiagGraph, GraphLayer, MessageGraph};
pub use mlp::Mlp;
pub use optim::{Adam, AdamState};
pub use rgcn::{RgcnConfig, RgcnConv};
