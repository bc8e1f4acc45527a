//! Batched inference serving for AM-DGCNN link classification.
//!
//! Six layers, each usable on its own:
//!
//! 1. [`artifact`] — a versioned single-file model format bundling the
//!    architecture ([`am_dgcnn::ModelConfig`] with its
//!    [`am_dgcnn::GnnKind`]), the feature settings, the dataset identity,
//!    and the binary parameter checkpoint. [`save_model`]/[`load_model`]
//!    round-trip bit-exactly.
//! 2. [`engine`] — an [`InferenceEngine`] holding the loaded model and the
//!    dataset graph, answering `(u, v)` link queries with on-the-fly
//!    enclosing-subgraph extraction (the training-time `prepare_sample`
//!    path) behind an LRU cache of prepared subgraphs.
//! 3. [`server`] — a [`BatchServer`] micro-batching front-end: queries
//!    accumulate up to `max_batch`/`max_wait`, execute as one batch, and
//!    throughput/latency counters land in the engine's observability
//!    registry ([`InferenceEngine::obs`]; names below).
//! 4. [`store`] — a [`ModelStore`] holding the live engine behind a
//!    versioned slot with **validated hot-swap**: a replacement artifact
//!    must pass checksum, finiteness, and dataset-binding checks before it
//!    becomes visible, so a corrupt file can never displace a good model.
//! 5. [`graph_store`] — a [`GraphStore`] holding the live *graph* behind
//!    a generation-versioned slot with **validated mutation commits**: a
//!    batch must pass semantic validation and a read-back-verified WAL
//!    append before a new snapshot generation becomes visible, so a
//!    damaged write can never corrupt the served graph — and the WAL
//!    always replays to a graph bit-identical to the live one.
//! 6. [`fleet`] — a [`Fleet`] of `BatchServer` replicas behind a
//!    consistent-hash router ([`ring`], [`health`]): automatic failover,
//!    tail-latency hedging, live drain/respawn, graph-generation rolls
//!    with incremental k-hop cache invalidation
//!    ([`Fleet::roll_graph`]), and fleet-level health — every answer
//!    bit-identical to a single server's, whichever replica computes it.
//!
//! The server layer is fault-tolerant: admission is gated by a bounded
//! queue and a circuit breaker ([`RobustnessConfig`]), queued queries can
//! carry deadlines, engine panics are isolated per batch with the worker
//! respawned, and transient faults are retried with backoff. Every
//! admitted query resolves with class probabilities or a typed [`Error`] —
//! never a caller panic. A deterministic [`am_dgcnn::FaultInjector`] can
//! be attached to the engine to exercise all of this in tests.
//!
//! ```
//! use amdgcnn_serve::{save_model, ArtifactMeta, BatchConfig, BatchServer, InferenceEngine};
//! use am_dgcnn::{Experiment, FeatureConfig, GnnKind, Hyperparams};
//! use amdgcnn_data::{wn18_like, Wn18Config};
//!
//! let ds = wn18_like(&Wn18Config {
//!     num_nodes: 60, num_edges: 220, train_links: 24, test_links: 8,
//!     ..Default::default()
//! });
//! let hyper = Hyperparams { lr: 5e-3, hidden_dim: 8, sort_k: 10 };
//! let exp = Experiment::builder().gnn(GnnKind::am_dgcnn()).hyper(hyper).seed(1).build();
//! let mut session = exp.session(&ds, None).expect("session");
//! session.trainer
//!     .train(&session.model, &mut session.ps, &session.train_samples, 1)
//!     .expect("train");
//!
//! // Persist, reload, serve.
//! let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
//! let meta = ArtifactMeta::describe(&ds, &session.model.cfg, &fcfg, 1).expect("meta");
//! let mut artifact = Vec::new();
//! save_model(&meta, &session.ps, &mut artifact).expect("save");
//!
//! let engine = InferenceEngine::load(artifact.as_slice(), ds.clone(), 64).expect("load");
//! let server = BatchServer::start(engine, BatchConfig::default());
//! let link = ds.test[0];
//! let probs = server
//!     .submit((link.u, link.v))
//!     .expect("admitted")
//!     .wait()
//!     .expect("answered");
//! assert_eq!(probs.len(), ds.num_classes);
//! ```
//!
//! ## Serving counters
//!
//! The [`amdgcnn_obs`] registry is the only store of serving counters.
//! An engine registers its `serve/*` handles in the [`Obs`] given to
//! [`InferenceEngine::with_obs`] (a private registry otherwise), and a
//! [`BatchServer`] counts into its engine's. A [`Fleet`] hands its own
//! registry to every replica incarnation, so [`Fleet::obs`] sums the
//! `serve/*` counters of all of them, crashed ones included, beside its
//! own `fleet/*` counters. Read one with
//! `engine.obs().counter("serve/queries").get()`, or take
//! [`Obs::report`] for every counter, span and event at once. Rates are
//! derived from the counters behind them: the LRU hit rate is
//! `cache_hits / (cache_hits + cache_misses)`, the mean batch size
//! `queries / batches`, and batch latency quantiles come from the
//! `serve/engine` span.
//!
//! | name | meaning |
//! |---|---|
//! | `serve/queries` | link queries answered by the engine |
//! | `serve/cache_hits` | LRU lookups that found a subgraph cached by an earlier batch (batch dedup excluded) |
//! | `serve/cache_misses` | LRU lookups that paid a fresh extraction; racing cold `predict` calls may each count one |
//! | `serve/dedup_hits` | queries answered by an earlier copy of the same pair in their own batch |
//! | `serve/stale_serves` | cache hits from an older graph generation, discarded and recomputed; 0 under correct invalidation |
//! | `serve/cache_invalidated` | cache entries dropped at a graph roll because the mutation's region covered them |
//! | `serve/cache_migrated` | cache entries carried across a graph roll untouched |
//! | `serve/batches` | micro-batches executed |
//! | `serve/shed_overload` | queries shed at admission because the queue was full |
//! | `serve/shed_degraded` | queries shed at admission because the breaker was open |
//! | `serve/deadline_expired` | queued queries failed because their deadline passed |
//! | `serve/worker_panics` | batches that ended in a caught engine panic |
//! | `serve/worker_respawns` | worker threads respawned by the supervisor |
//! | `serve/breaker_trips` | times the circuit breaker tripped open |
//! | `serve/breaker_resets` | times the breaker closed after a successful batch |
//! | `serve/engine_retries` | transient engine faults absorbed by retry |
//! | `serve/failed_queries` | queries resolved with a typed error (sheds excluded) |
//! | `serve/engine` (span) | one observation per answered batch: its engine time |
//! | `serve/queue_wait` (span) | one observation per request: its time in the queue |
//! | `serve/batch_assembly` (span) | one observation per batch: the oldest request's wait |
//! | `fleet/queries` | queries submitted to the fleet |
//! | `fleet/answered` | queries answered with probabilities |
//! | `fleet/failed` | queries resolved with a typed error after every live replica was tried |
//! | `fleet/failovers` | attempts that landed on a non-primary replica after a failure |
//! | `fleet/hedges` | tail-latency backup submissions |
//! | `fleet/hedge_wins` | hedges that answered before their primary |
//! | `fleet/replica_crashes`, `fleet/replica_respawns`, `fleet/replica_drains` | replica lifecycle actions |
//! | `fleet/redistributed` | queued requests moved to a sibling by a drain or a graph roll |
//! | `fleet/health_transitions` | fleet health state changes |
//! | `fleet/graph_rolls` | graph-generation rolls completed |
//! | `fleet/query` (span) | one observation per fleet query: its end-to-end time |
//!
//! [`Obs`]: amdgcnn_obs::Obs
//! [`Obs::report`]: amdgcnn_obs::Obs::report

#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod graph_store;
pub mod health;
pub mod ring;
pub mod server;
mod stats;
pub mod store;

pub use artifact::{
    instantiate, load_model, load_model_file, save_model, save_model_file, ArtifactMeta,
    FeatureMeta,
};
pub use engine::{ClassProbs, InferenceEngine, LinkQuery};
pub use error::Error;
pub use fleet::{Fleet, FleetConfig};
pub use graph_store::{GraphCommit, GraphStore, GraphStoreError};
pub use health::{FleetHealth, ReplicaHealth};
pub use ring::HashRing;
pub use server::{BatchConfig, BatchServer, PendingQuery, RobustnessConfig};
pub use store::ModelStore;
