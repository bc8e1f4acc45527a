//! Versioned graph store with validated, WAL-durable mutation commits.
//!
//! A [`GraphStore`] owns the authoritative [`MutableGraph`], its
//! [`MutationWal`], and the currently served [`Dataset`] behind an
//! `RwLock`. A mutation batch becomes visible only after it survives the
//! full validated-commit protocol:
//!
//! 1. **Stage** — the batch is applied to a clone of the live graph;
//!    a semantically invalid batch (unknown node, double retire) is
//!    rejected with a typed [`GraphError`] before anything touches disk.
//! 2. **Log** — the batch is appended to the WAL *and read back*
//!    ([`MutationWal::log_verified`]); a torn/bit-flipped record is
//!    detected, the log is repaired to its pre-append state, and the
//!    commit is refused. The WAL therefore only ever holds records that
//!    replay — the live graph's digest always equals the replay digest.
//! 3. **Swap** — the staged graph becomes authoritative, a new
//!    [`Dataset`] generation is published, and the caller receives a
//!    [`GraphCommit`] carrying the k-hop [`AffectedRegion`] for
//!    incremental cache invalidation.
//!
//! A rejected commit at any step leaves the previous generation serving,
//! untouched.

use amdgcnn_data::Dataset;
use amdgcnn_graph::{
    AffectedRegion, GraphError, GraphMutation, MutableGraph, MutationWal, WalError, WalRecovery,
};
use amdgcnn_obs::{Counter, Obs, Timer};
use amdgcnn_tensor::durable::DiskFault;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Error surface of [`GraphStore`] commits and recovery.
#[derive(Debug)]
pub enum GraphStoreError {
    /// The batch (or a replayed WAL record) is semantically invalid
    /// against the graph it targets.
    Graph(GraphError),
    /// The WAL append was damaged in flight (torn write, bit flip, lost
    /// flush). The log has been repaired to its pre-append state and the
    /// commit refused — the previous generation keeps serving.
    WalFault,
    /// WAL recovery failed: I/O trouble or an undecodable record.
    Wal(WalError),
    /// Other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for GraphStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphStoreError::Graph(e) => write!(f, "mutation batch rejected: {e}"),
            GraphStoreError::WalFault => {
                write!(f, "WAL append damaged; log repaired and commit refused")
            }
            GraphStoreError::Wal(e) => write!(f, "mutation WAL recovery: {e}"),
            GraphStoreError::Io(e) => write!(f, "graph store I/O: {e}"),
        }
    }
}

impl std::error::Error for GraphStoreError {}

impl From<io::Error> for GraphStoreError {
    fn from(e: io::Error) -> Self {
        GraphStoreError::Io(e)
    }
}

impl From<WalError> for GraphStoreError {
    fn from(e: WalError) -> Self {
        GraphStoreError::Wal(e)
    }
}

/// Receipt for one committed mutation batch, carrying everything the
/// serving tier needs to roll forward.
#[derive(Debug, Clone)]
pub struct GraphCommit {
    /// Generation the batch committed as (1 for the first commit).
    pub generation: u64,
    /// Conservative k-hop invalidation region (at the dataset's
    /// extraction radius): every cached query this commit may have
    /// changed satisfies [`AffectedRegion::affects`].
    pub region: AffectedRegion,
    /// The freshly published dataset generation; engines rebuilt against
    /// it serve the post-mutation graph.
    pub dataset: Arc<Dataset>,
}

struct Inner {
    graph: MutableGraph,
    wal: MutationWal,
}

/// A hot-mutable slot holding the currently served graph (see module
/// docs).
pub struct GraphStore {
    inner: Mutex<Inner>,
    current: RwLock<Arc<Dataset>>,
    /// Extraction radius the affected regions are computed at.
    hops: usize,
    commits: Counter,
    rejected_commits: Counter,
    apply_span: Timer,
    obs: Obs,
}

impl GraphStore {
    /// Adopt `ds` as generation 0 with a fresh, empty WAL at `wal_path`.
    ///
    /// # Errors
    /// Propagates WAL-creation I/O errors.
    pub fn create(ds: Dataset, wal_path: &Path) -> io::Result<Self> {
        let wal = MutationWal::create(wal_path)?;
        let graph = MutableGraph::from_graph(ds.graph.clone());
        Ok(Self::assemble(ds, graph, wal))
    }

    /// Recover from an existing WAL: decode every surviving batch (a
    /// torn tail is repaired by truncation — the normal post-crash
    /// state), replay them over `base`, and serve the rebuilt
    /// generation. The recovered graph is bit-identical to the live
    /// graph that logged those batches.
    ///
    /// # Errors
    /// [`GraphStoreError::Wal`] on recovery failure,
    /// [`GraphStoreError::Graph`] when a CRC-valid record does not apply
    /// to the base graph (log and base disagree — surfaced, not masked).
    pub fn open(base: Dataset, wal_path: &Path) -> Result<(Self, WalRecovery), GraphStoreError> {
        let (wal, recovery) = MutationWal::open(wal_path)?;
        let graph = MutableGraph::replay(base.graph.clone(), &recovery.batches)
            .map_err(GraphStoreError::Graph)?;
        let snapshot = graph.snapshot();
        let mut ds = base;
        ds.graph = (*snapshot).clone();
        Ok((Self::assemble(ds, graph, wal), recovery))
    }

    /// `ds.graph` must already hold (a clone of) `graph`'s current
    /// snapshot content.
    fn assemble(ds: Dataset, graph: MutableGraph, wal: MutationWal) -> Self {
        let obs = Obs::enabled();
        let hops = ds.subgraph.hops as usize;
        Self {
            inner: Mutex::new(Inner { graph, wal }),
            current: RwLock::new(Arc::new(ds)),
            hops,
            commits: obs.counter("graph/commits"),
            rejected_commits: obs.counter("graph/rejected_commits"),
            apply_span: obs.timer("graph/apply"),
            obs,
        }
    }

    /// Re-register the store's `graph/*` counters and apply-span timer in
    /// `obs`, so one report covers mutation commits alongside serving.
    /// Call right after construction, before any commits. A disabled
    /// handle is upgraded to a private enabled registry.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        let obs = if obs.is_enabled() {
            obs
        } else {
            Obs::enabled()
        };
        self.commits = obs.counter("graph/commits");
        self.rejected_commits = obs.counter("graph/rejected_commits");
        self.apply_span = obs.timer("graph/apply");
        self.obs = obs;
        self
    }

    /// The currently served dataset generation. The `Arc` stays valid
    /// across later commits — readers pin the generation they started on.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&lock_read(&self.current))
    }

    /// Current graph generation (0 until the first committed batch).
    pub fn generation(&self) -> u64 {
        self.lock_inner().graph.generation()
    }

    /// Content digest of the live graph (see
    /// [`amdgcnn_graph::graph_digest`]).
    pub fn digest(&self) -> u32 {
        self.lock_inner().graph.digest()
    }

    /// Live (non-retired) edges in the current generation.
    pub fn num_live_edges(&self) -> usize {
        self.lock_inner().graph.num_live_edges()
    }

    /// Batches successfully committed since construction.
    pub fn commits(&self) -> u64 {
        self.commits.get()
    }

    /// Commit attempts refused (invalid batch or damaged WAL append).
    pub fn rejected_commits(&self) -> u64 {
        self.rejected_commits.get()
    }

    /// The observability registry behind the store's counters.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Run the validated-commit protocol on `batch` (see module docs),
    /// optionally under an injected [`DiskFault`] on the WAL append.
    ///
    /// # Errors
    /// [`GraphStoreError::Graph`] when validation refuses the batch,
    /// [`GraphStoreError::WalFault`] when the append came back damaged
    /// (the log is repaired, the commit refused), [`GraphStoreError::Io`]
    /// on real I/O failure. On every error path the previous generation
    /// keeps serving and
    /// [`rejected_commits`](GraphStore::rejected_commits) is incremented.
    pub fn apply(
        &self,
        batch: &[GraphMutation],
        fault: Option<DiskFault>,
    ) -> Result<GraphCommit, GraphStoreError> {
        let span = self.apply_span.start();
        let outcome = self.apply_inner(batch, fault);
        span.finish();
        if outcome.is_err() {
            self.rejected_commits.inc();
        }
        outcome
    }

    fn apply_inner(
        &self,
        batch: &[GraphMutation],
        fault: Option<DiskFault>,
    ) -> Result<GraphCommit, GraphStoreError> {
        let mut inner = self.lock_inner();
        // Stage: validate on a clone so a refused batch touches nothing.
        let mut staged = inner.graph.clone();
        let commit = staged.apply(batch).map_err(GraphStoreError::Graph)?;
        // Log: durable and read-back-verified before anything is visible.
        match inner.wal.log_verified(batch, fault) {
            Ok(true) => {}
            Ok(false) => return Err(GraphStoreError::WalFault),
            Err(e) => return Err(GraphStoreError::Io(e)),
        }
        // Swap: adopt the staged graph and publish the new generation.
        inner.graph = staged;
        let mut ds = (*self.dataset()).clone();
        ds.graph = (*commit.after).clone();
        let dataset = Arc::new(ds);
        *lock_write(&self.current) = Arc::clone(&dataset);
        drop(inner);
        self.commits.inc();
        let region = commit.region(self.hops);
        self.obs.event("graph/commit", || {
            format!(
                "generation {} committed ({} ops, {} nodes invalidated)",
                commit.generation,
                batch.len(),
                region.len()
            )
        });
        Ok(GraphCommit {
            generation: commit.generation,
            region,
            dataset,
        })
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Lock helpers recovering from poisoning: the critical sections only
/// move `Arc`s / already-validated state, so a panicking holder cannot
/// leave the slot torn.
fn lock_read(lock: &RwLock<Arc<Dataset>>) -> std::sync::RwLockReadGuard<'_, Arc<Dataset>> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn lock_write(lock: &RwLock<Arc<Dataset>>) -> std::sync::RwLockWriteGuard<'_, Arc<Dataset>> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}
