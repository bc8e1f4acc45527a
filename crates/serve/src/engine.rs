//! The inference engine: a loaded model plus the dataset graph, answering
//! `(u, v)` link queries by extracting the enclosing subgraph on the fly —
//! exactly the training-time [`prepare_sample`] path — with an LRU cache of
//! prepared subgraphs (and their memoized, deterministic answers) in front
//! of the extractor.

use crate::artifact::{instantiate, load_model, ArtifactMeta};
use crate::stats::ServeCounters;
use am_dgcnn::fault::{EngineFault, FaultInjector, TransientFault};
use am_dgcnn::{prepare_sample, DgcnnModel, FeatureConfig, LinkModel, PreparedSample};
use amdgcnn_data::{Dataset, LabeledLink};
use amdgcnn_graph::AffectedRegion;
use amdgcnn_tensor::{ParamStore, Tape};
use rayon::prelude::*;
use std::collections::HashMap;
use std::io::{self, Read};
use std::sync::{Arc, Mutex, OnceLock};

/// A link query: classify the relation between two node ids of the served
/// graph.
pub type LinkQuery = (u32, u32);

/// Class-probability answer for one query (`num_classes` entries, sums
/// to 1).
pub type ClassProbs = Vec<f32>;

/// One cached unit of serving work: the prepared subgraph, plus the
/// forward-pass answer once some batch has computed it.
///
/// The engine's parameters are immutable and the forward pass is
/// deterministic, so a pair's probabilities never change for the lifetime
/// of the engine — memoizing them next to the subgraph is sound and lets a
/// repeat query skip the forward pass entirely, not just the extraction.
struct CacheEntry {
    sample: PreparedSample,
    probs: OnceLock<ClassProbs>,
}

/// One cached slot: the entry, its LRU stamp, and the graph generation it
/// was extracted on. The generation tag is what makes live graph mutation
/// safe: an entry whose generation predates the engine's is *stale* and
/// must never be served.
struct CacheSlot {
    entry: Arc<CacheEntry>,
    stamp: u64,
    generation: u64,
}

/// Bounded map from query to [`CacheEntry`], evicting the
/// least-recently-used entry when full.
///
/// Subgraph extraction + DRNL + feature building + the forward pass make
/// up essentially all of single-query latency, so re-serving a recently
/// seen pair from this cache is the main throughput lever on repeat-heavy
/// workloads.
struct LruCache {
    capacity: usize,
    map: HashMap<LinkQuery, CacheSlot>,
    clock: u64,
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            clock: 0,
        }
    }

    fn get(&mut self, key: &LinkQuery) -> Option<(Arc<CacheEntry>, u64)> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|slot| {
            slot.stamp = clock;
            (Arc::clone(&slot.entry), slot.generation)
        })
    }

    fn insert(&mut self, key: LinkQuery, value: Arc<CacheEntry>, generation: u64) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // O(n) victim scan: capacities are small (hundreds), and this
            // only runs on misses that already paid a full extraction.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            CacheSlot {
                entry: value,
                stamp: self.clock,
                generation,
            },
        );
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A loaded model bound to the graph it serves.
///
/// The engine is immutable once constructed (the cache and counters use
/// interior mutability), so it can be shared behind an `Arc` between a
/// request thread and the batching worker.
pub struct InferenceEngine {
    meta: ArtifactMeta,
    model: DgcnnModel,
    ps: ParamStore,
    ds: Dataset,
    fcfg: FeatureConfig,
    cache: Mutex<LruCache>,
    injector: Option<Arc<FaultInjector>>,
    /// Graph generation this engine's dataset snapshot belongs to. Cache
    /// entries carry the generation they were extracted on; a hit from an
    /// older generation is stale and is recomputed, never served.
    generation: u64,
    pub(crate) counters: ServeCounters,
}

impl InferenceEngine {
    /// Bind a loaded artifact to the dataset graph it will serve.
    ///
    /// # Errors
    /// `InvalidData` when the artifact was trained on a different dataset
    /// (by name) or its class count disagrees with the graph's.
    pub fn new(
        meta: ArtifactMeta,
        loaded: &ParamStore,
        ds: Dataset,
        cache_capacity: usize,
    ) -> io::Result<Self> {
        if meta.dataset != ds.name {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "artifact was trained on dataset {:?} but the engine was \
                     given {:?}",
                    meta.dataset, ds.name
                ),
            ));
        }
        if meta.model.num_classes != ds.num_classes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "artifact predicts {} classes but the dataset defines {}",
                    meta.model.num_classes, ds.num_classes
                ),
            ));
        }
        let (model, ps) = instantiate(&meta, loaded)?;
        let fcfg = meta.features.to_config();
        Ok(Self {
            meta,
            model,
            ps,
            ds,
            fcfg,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            injector: None,
            generation: 0,
            counters: ServeCounters::with_obs(amdgcnn_obs::Obs::enabled()),
        })
    }

    /// Tag this engine with the graph generation its dataset snapshot was
    /// built on (0 for a static graph). Call right after construction,
    /// before any queries.
    pub fn with_graph_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The graph generation this engine serves.
    pub fn graph_generation(&self) -> u64 {
        self.generation
    }

    /// Adopt the surviving cache entries of `old` (an engine serving an
    /// earlier graph generation): entries whose query endpoints fall inside
    /// `region` are dropped — the mutation may have changed their enclosing
    /// subgraphs — and the rest are migrated to this engine's generation,
    /// prepared subgraphs and memoized answers intact. Sound because an
    /// unaffected query's extraction inputs are identical on both
    /// snapshots, so its prepared sample and probabilities are
    /// bit-identical too. Returns `(invalidated, migrated)`.
    pub fn migrate_cache_from(
        &self,
        old: &InferenceEngine,
        region: &AffectedRegion,
    ) -> (usize, usize) {
        let old_cache = lock_cache(&old.cache);
        let mut cache = lock_cache(&self.cache);
        let (mut invalidated, mut migrated) = (0usize, 0usize);
        for (key, slot) in old_cache.map.iter() {
            if region.affects(key.0, key.1) {
                invalidated += 1;
            } else {
                cache.insert(*key, Arc::clone(&slot.entry), self.generation);
                migrated += 1;
            }
        }
        drop(cache);
        drop(old_cache);
        self.counters.cache_invalidated.add(invalidated as u64);
        self.counters.cache_migrated.add(migrated as u64);
        (invalidated, migrated)
    }

    /// Attach an observability registry: the engine's `serve/*` counters
    /// and span timers register there, so one report covers serving
    /// alongside any pipeline stages sharing the handle. Call right after
    /// construction, before any queries. A disabled handle is upgraded to
    /// a private enabled registry: the registry is the only store of the
    /// serving counters, so they must always count.
    pub fn with_obs(mut self, obs: amdgcnn_obs::Obs) -> Self {
        self.counters = ServeCounters::with_obs(obs);
        self
    }

    /// The observability registry behind this engine's `serve/*` counters
    /// (listed in the [crate docs](crate#serving-counters)).
    pub fn obs(&self) -> &amdgcnn_obs::Obs {
        &self.counters.obs
    }

    /// Attach a deterministic fault injector: [`try_predict`] calls will
    /// panic, fail transiently, or run slow on the schedule of the
    /// injector's plan. Direct [`predict`] calls bypass injection.
    ///
    /// [`try_predict`]: InferenceEngine::try_predict
    /// [`predict`]: InferenceEngine::predict
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Read an artifact from `r` and bind it to `ds` in one step.
    pub fn load<R: Read>(r: R, ds: Dataset, cache_capacity: usize) -> io::Result<Self> {
        let (meta, loaded) = load_model(r)?;
        Self::new(meta, &loaded, ds, cache_capacity)
    }

    /// Artifact metadata this engine was built from.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The served dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Current number of cached prepared subgraphs.
    pub fn cache_len(&self) -> usize {
        lock_cache(&self.cache).len()
    }

    /// Forward pass for a chunk of prepared subgraphs, packed into one
    /// block-diagonal sparse forward ([`LinkModel::forward_batch`]). The
    /// packed kernels are bit-identical per sample to the per-sample path,
    /// so answers still match training-time [`am_dgcnn::predict_probs`]
    /// bit-for-bit regardless of how queries are chunked.
    fn forward_chunk(&self, samples: &[&PreparedSample]) -> Vec<ClassProbs> {
        let mut tape = Tape::new();
        let logits = self.model.forward_batch(&mut tape, &self.ps, samples, None);
        logits
            .into_iter()
            .map(|l| {
                let probs = tape.softmax_rows(l);
                tape.value(probs).row(0).to_vec()
            })
            .collect()
    }

    /// Fallible batch prediction: [`predict`](InferenceEngine::predict)
    /// plus fault injection, the path the batch worker drives.
    ///
    /// Consults the attached [`FaultInjector`] (if any) before doing real
    /// work: a scheduled panic propagates as a panic (the worker's
    /// `catch_unwind` isolates it), a transient fault returns `Err` for the
    /// worker's retry-with-backoff loop, and injected latency sleeps before
    /// answering. Without an injector this never fails.
    ///
    /// # Errors
    /// [`TransientFault`] when the injector schedules a transient failure
    /// for this call.
    pub fn try_predict(&self, queries: &[LinkQuery]) -> Result<Vec<ClassProbs>, TransientFault> {
        if let Some(inj) = &self.injector {
            match inj.next_engine_fault() {
                Some(EngineFault::Panic) => panic!(
                    "injected fault: worker panic at engine call {}",
                    inj.engine_calls()
                ),
                Some(EngineFault::Transient) => {
                    return Err(TransientFault {
                        call: inj.engine_calls(),
                    })
                }
                Some(EngineFault::Latency(d)) => std::thread::sleep(d),
                None => {}
            }
        }
        Ok(self.predict(queries))
    }

    /// Answer a batch of link queries: per-query class probabilities, in
    /// query order.
    ///
    /// Duplicate pairs inside the batch are answered once; cache hits skip
    /// extraction, and hits whose answer was already computed by an earlier
    /// batch skip the forward pass too. Fresh work fans out across the
    /// batch. Answers match [`am_dgcnn::predict_probs`] on the same links
    /// bit-for-bit.
    pub fn predict(&self, queries: &[LinkQuery]) -> Vec<ClassProbs> {
        // Dedup while preserving first-seen order.
        let mut index_of: HashMap<LinkQuery, usize> = HashMap::new();
        let mut unique: Vec<LinkQuery> = Vec::new();
        for &q in queries {
            index_of.entry(q).or_insert_with(|| {
                unique.push(q);
                unique.len() - 1
            });
        }

        // Resolve cache hits under one short lock; extraction happens
        // outside it. A hit tagged with an older graph generation is a
        // *stale* entry that incremental invalidation should have dropped:
        // it is counted (the chaos harness asserts this stays 0) and then
        // discarded, so the answer is always recomputed on the engine's
        // own snapshot — staleness is detected, never served.
        let resolved: Vec<Option<Arc<CacheEntry>>> = {
            let mut cache = lock_cache(&self.cache);
            unique
                .iter()
                .map(|q| match cache.get(q) {
                    Some((entry, gen)) if gen == self.generation => Some(entry),
                    Some(_) => {
                        self.counters.stale_serves.inc();
                        None
                    }
                    None => None,
                })
                .collect()
        };

        // LRU hits and intra-batch dedup both skip extraction but are
        // counted separately: cache_hit_rate measures the LRU alone, while
        // dedup_hits credits duplicates that never probed the cache.
        let lru_hits = resolved.iter().filter(|r| r.is_some()).count() as u64;
        let fresh = unique.len() as u64 - lru_hits;
        self.counters.cache_misses.add(fresh);
        self.counters.cache_hits.add(lru_hits);
        self.counters
            .dedup_hits
            .add((queries.len() - unique.len()) as u64);

        // Extract the missing subgraphs in parallel.
        let entries: Vec<Arc<CacheEntry>> = resolved
            .into_par_iter()
            .zip(unique.par_iter())
            .map(|(hit, q)| {
                hit.unwrap_or_else(|| {
                    // The label field is unused at inference; extraction
                    // depends only on the endpoints.
                    let link = LabeledLink {
                        u: q.0,
                        v: q.1,
                        class: 0,
                    };
                    Arc::new(CacheEntry {
                        sample: prepare_sample(&self.ds, &link, &self.fcfg),
                        probs: OnceLock::new(),
                    })
                })
            })
            .collect();
        {
            let mut cache = lock_cache(&self.cache);
            for (q, e) in unique.iter().zip(&entries) {
                cache.insert(*q, Arc::clone(e), self.generation);
            }
        }

        // Forward pass only where no earlier batch has answered already.
        // Chunks of subgraphs are packed block-diagonally and answered by
        // one sparse forward each; chunks fan out across rayon.
        const FORWARD_CHUNK: usize = 32;
        let need: Vec<&Arc<CacheEntry>> =
            entries.iter().filter(|e| e.probs.get().is_none()).collect();
        let chunks: Vec<&[&Arc<CacheEntry>]> = need.chunks(FORWARD_CHUNK).collect();
        let answers: Vec<ClassProbs> = chunks
            .par_iter()
            .map(|chunk| {
                let samples: Vec<&PreparedSample> = chunk.iter().map(|e| &e.sample).collect();
                self.forward_chunk(&samples)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        for (e, probs) in need.into_iter().zip(answers) {
            // A concurrent batch may have raced us to the same entry; both
            // computed identical values, so losing the race is harmless.
            let _ = e.probs.set(probs);
        }

        self.counters.queries.add(queries.len() as u64);
        queries
            .iter()
            .map(|q| {
                entries[index_of[q]]
                    .probs
                    .get()
                    .expect("answer just computed")
                    .clone()
            })
            .collect()
    }

    /// Answer one query (no batching, still cached).
    pub fn predict_one(&self, q: LinkQuery) -> ClassProbs {
        self.predict(std::slice::from_ref(&q))
            .pop()
            .expect("one answer per query")
    }
}

/// Lock the LRU cache, recovering from poisoning: a worker that panicked
/// mid-`predict` (between the probe and insert phases) leaves the cache
/// structurally intact — every entry is either fully inserted or absent —
/// so continuing with the inner value is sound and keeps one crash from
/// wedging every future query.
fn lock_cache(cache: &Mutex<LruCache>) -> std::sync::MutexGuard<'_, LruCache> {
    cache.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        let s = |n: usize| {
            Arc::new(CacheEntry {
                probs: OnceLock::new(),
                sample: PreparedSample {
                    features: amdgcnn_tensor::Matrix::zeros(1, 1),
                    graph: amdgcnn_nn::MessageGraph::from_undirected(1, &[]),
                    label: n,
                    num_nodes: 1,
                    num_edges: 0,
                    edges: Vec::new(),
                    drnl: vec![0],
                },
            })
        };
        lru.insert((0, 1), s(0), 0);
        lru.insert((0, 2), s(1), 0);
        assert!(lru.get(&(0, 1)).is_some()); // freshen (0,1)
        lru.insert((0, 3), s(2), 0); // evicts (0,2)
        assert!(lru.get(&(0, 2)).is_none());
        assert!(lru.get(&(0, 1)).is_some());
        assert!(lru.get(&(0, 3)).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn cache_slots_carry_their_graph_generation() {
        let mut lru = LruCache::new(4);
        lru.insert(
            (3, 4),
            Arc::new(CacheEntry {
                probs: OnceLock::new(),
                sample: PreparedSample {
                    features: amdgcnn_tensor::Matrix::zeros(1, 1),
                    graph: amdgcnn_nn::MessageGraph::from_undirected(1, &[]),
                    label: 0,
                    num_nodes: 1,
                    num_edges: 0,
                    edges: Vec::new(),
                    drnl: vec![0],
                },
            }),
            7,
        );
        let (_, gen) = lru.get(&(3, 4)).expect("hit");
        assert_eq!(gen, 7, "the generation tag must survive the round trip");
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut lru = LruCache::new(0);
        lru.insert(
            (1, 2),
            Arc::new(CacheEntry {
                probs: OnceLock::new(),
                sample: PreparedSample {
                    features: amdgcnn_tensor::Matrix::zeros(1, 1),
                    graph: amdgcnn_nn::MessageGraph::from_undirected(1, &[]),
                    label: 0,
                    num_nodes: 1,
                    num_edges: 0,
                    edges: Vec::new(),
                    drnl: vec![0],
                },
            }),
            0,
        );
        assert_eq!(lru.len(), 0);
        assert!(lru.get(&(1, 2)).is_none());
    }
}
