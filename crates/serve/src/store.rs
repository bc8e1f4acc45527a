//! Versioned model store with validated hot-swap.
//!
//! A [`ModelStore`] holds the live [`InferenceEngine`] behind an `RwLock`
//! and lets operators roll a new artifact in without stopping serving. The
//! swap is **validated before it is visible**: the candidate artifact must
//! pass the format's integrity checks (magic, version, header CRC, every
//! section checksum and the footer), hold only finite parameters,
//! and bind cleanly to the served dataset. A candidate failing any of
//! these is counted and rejected — the previous engine keeps serving,
//! untouched, so a corrupt or mismatched artifact can never take down a
//! live endpoint.

use crate::artifact::load_model;
use crate::engine::InferenceEngine;
use amdgcnn_data::Dataset;
use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A hot-swappable slot holding the currently served model.
pub struct ModelStore {
    current: RwLock<Arc<InferenceEngine>>,
    /// The dataset every candidate must bind to (cloned from the initial
    /// engine, so a swap cannot silently change the served graph).
    ds: Dataset,
    cache_capacity: usize,
    version: AtomicU64,
    rejected_swaps: AtomicU64,
}

impl ModelStore {
    /// Start serving `initial`; replacement engines built during swaps get
    /// an LRU cache of `cache_capacity` prepared subgraphs.
    pub fn new(initial: InferenceEngine, cache_capacity: usize) -> Self {
        let ds = initial.dataset().clone();
        Self {
            current: RwLock::new(Arc::new(initial)),
            ds,
            cache_capacity,
            version: AtomicU64::new(1),
            rejected_swaps: AtomicU64::new(0),
        }
    }

    /// The engine currently serving. The returned `Arc` stays valid across
    /// concurrent swaps — in-flight batches finish on the engine they
    /// started with.
    pub fn engine(&self) -> Arc<InferenceEngine> {
        Arc::clone(&lock_read(&self.current))
    }

    /// Monotonic version of the live engine (1 for the initial one,
    /// incremented by each successful swap).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Number of swap attempts refused by validation.
    pub fn rejected_swaps(&self) -> u64 {
        self.rejected_swaps.load(Ordering::SeqCst)
    }

    /// Validate a candidate artifact and, only if every check passes, make
    /// it the live engine. Returns the new version number.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] when the artifact is corrupt
    /// (checksum/format failure), holds non-finite parameters, or does not
    /// bind to the served dataset. On any error the previous engine keeps
    /// serving and [`rejected_swaps`](Self::rejected_swaps) is incremented.
    pub fn hot_swap<R: Read>(&self, r: R) -> io::Result<u64> {
        let candidate = load_model(r).and_then(|(meta, loaded)| {
            if !loaded.all_finite() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "candidate artifact holds non-finite parameters",
                ));
            }
            InferenceEngine::new(meta, &loaded, self.ds.clone(), self.cache_capacity)
        });
        match candidate {
            Ok(engine) => {
                *lock_write(&self.current) = Arc::new(engine);
                Ok(self.version.fetch_add(1, Ordering::SeqCst) + 1)
            }
            Err(e) => {
                self.rejected_swaps.fetch_add(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// [`hot_swap`](Self::hot_swap) from an artifact file on disk.
    pub fn hot_swap_file(&self, path: &Path) -> io::Result<u64> {
        match std::fs::File::open(path) {
            Ok(f) => self.hot_swap(io::BufReader::new(f)),
            Err(e) => {
                self.rejected_swaps.fetch_add(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }
}

/// Lock helpers recovering from poisoning: the store's critical sections
/// only move an `Arc`, so a panicking holder cannot leave the slot in a
/// torn state.
fn lock_read(
    lock: &RwLock<Arc<InferenceEngine>>,
) -> std::sync::RwLockReadGuard<'_, Arc<InferenceEngine>> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn lock_write(
    lock: &RwLock<Arc<InferenceEngine>>,
) -> std::sync::RwLockWriteGuard<'_, Arc<InferenceEngine>> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}
