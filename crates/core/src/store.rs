//! Persistent tensorized sample store: the `AMSS` on-disk format.
//!
//! Enclosing-subgraph preparation (k-hop extraction, DRNL labeling,
//! tensorization) dominates wall-clock before every run, every tuning
//! trial, and every resume — and its output is a pure function of the
//! dataset, the [`FeatureConfig`], and the subgraph settings. This module
//! materializes that output once: a [`SampleStore`] maps each labeled link
//! to its prepared ingredients (features, induced edges, DRNL labels,
//! label), persisted in a single checksummed file, so warm runs skip the
//! expensive phases entirely.
//!
//! Format (`AMSS` version 2): a [`durable`]
//! container, little-endian:
//! ```text
//! section 0:    u64 dataset digest | u64 feature fingerprint | u64 graph generation
//! section 1..n: one record each, ordered by key:
//!   u32 u | u32 v | u32 class
//!   u32 num_nodes | u32 num_edges
//!   per edge: u32 u | u32 v | u16 etype
//!   per node: u32 drnl
//!   u32 rows | u32 cols | f32 features...
//!   u32 num_messages
//!   per message: u32 src | u32 dst | u32 orig edge (MAX = self-loop)
//! ```
//!
//! Integrity and staleness rules:
//! - Writes are crash-safe ([`write_atomic`]: temp + fsync + rename), so a
//!   crash leaves the previous complete store or the new one.
//! - The key section ([`StoreKey`]) binds the store to the *content* of
//!   the dataset (graph digest + edge attributes + splits + subgraph
//!   config), the feature fingerprint, and the graph generation. A
//!   mismatch on open is a typed [`Error::StoreMismatch`] — a stale store
//!   is refused, never silently reused. A damaged header or key section
//!   cannot be attributed to any key and is a typed
//!   [`Error::StoreCorrupt`].
//! - Every record is its own checksummed section. Opening is one pass of
//!   the container parse — one checksum sweep of the file — after which
//!   record bodies are zero-copy slices of the shared file buffer. A
//!   damaged or lost record is dropped (recorded as a typed
//!   [`Error::StoreCorrupt`] in [`SampleStore::damage`]) and surfaces as a
//!   store *miss* — the sample is re-prepared — never as a garbage sample.
//! - Each record also persists its sorted message topology (the output of
//!   the tensorize sort), so decoding rebuilds the message graph through
//!   [`crate::sample::message_graph_from_messages`] with linear copies
//!   only — bit-identical to the built graph, because the persisted list
//!   *is* that graph's message list, at a fraction of the cost of
//!   re-sorting. A warm session therefore runs no k-hop extraction at
//!   all (`tests/pipeline_end_to_end.rs` asserts the span is absent).

use crate::error::{Error, Result};
use crate::features::FeatureConfig;
use crate::sample::{message_graph_from_messages, PreparedSample};
use amdgcnn_data::{Dataset, LabeledLink};
use amdgcnn_graph::khop::NeighborhoodMode;
use amdgcnn_graph::{graph_digest, LocalEdge};
use amdgcnn_tensor::durable::{self, crc32_update, put_matrix, write_atomic, Cursor, DiskFault};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"AMSS";
const VERSION: u32 = 2;

/// Ceiling on a record's declared node or edge count — a store we wrote
/// ourselves stays far below it; anything above is corrupt or hostile and
/// is rejected before memory is committed to it.
const MAX_LIST_LEN: usize = 1 << 24;

/// The fingerprint that binds a store file to the exact inputs of sample
/// preparation. Two runs share a store only when every component matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// CRC-based digest of the dataset *content*: graph structure and node
    /// types, edge-attribute table, class count, train/test link lists,
    /// and the subgraph-extraction settings.
    pub dataset_digest: u64,
    /// Digest of the [`FeatureConfig`] (node-type width, DRNL cap) plus the
    /// resulting feature width.
    pub feature_fingerprint: u64,
    /// Generation counter of a live-mutable graph (0 for static datasets).
    /// Rolling the generation invalidates the store even when digests
    /// happen to collide.
    pub graph_generation: u64,
}

impl StoreKey {
    /// Compute the key for preparing `ds`'s samples under `fcfg`.
    pub fn for_dataset(ds: &Dataset, fcfg: &FeatureConfig, graph_generation: u64) -> Self {
        let mut crc = 0xFFFF_FFFFu32;
        let mut put = |bytes: &[u8]| crc = crc32_update(crc, bytes);
        put(ds.name.as_bytes());
        put(&(ds.num_classes as u64).to_le_bytes());
        put(&(ds.edge_attrs.dim() as u64).to_le_bytes());
        put(&(ds.edge_attrs.num_types() as u64).to_le_bytes());
        for t in 0..ds.edge_attrs.num_types() {
            for &v in ds.edge_attrs.row(t as u16) {
                put(&v.to_le_bytes());
            }
        }
        for split in [&ds.train, &ds.test] {
            put(&(split.len() as u64).to_le_bytes());
            for l in split.iter() {
                put(&l.u.to_le_bytes());
                put(&l.v.to_le_bytes());
                put(&(l.class as u32).to_le_bytes());
            }
        }
        put(&ds.subgraph.hops.to_le_bytes());
        put(&[match ds.subgraph.mode {
            NeighborhoodMode::Union => 0u8,
            NeighborhoodMode::Intersection => 1u8,
        }]);
        put(&(ds.subgraph.max_nodes_per_hop.map_or(u64::MAX, |n| n as u64)).to_le_bytes());
        put(&ds.subgraph.seed.to_le_bytes());
        let aux = crc ^ 0xFFFF_FFFF;
        let dataset_digest = ((graph_digest(&ds.graph) as u64) << 32) | aux as u64;

        let mut fcrc = 0xFFFF_FFFFu32;
        fcrc = crc32_update(fcrc, &(fcfg.num_node_types as u64).to_le_bytes());
        fcrc = crc32_update(fcrc, &fcfg.max_drnl.to_le_bytes());
        // Former embedding-width slot, always "no table": older stores keep their key.
        fcrc = crc32_update(fcrc, &u64::MAX.to_le_bytes());
        let feature_fingerprint = ((fcfg.dim() as u64) << 32) | (fcrc ^ 0xFFFF_FFFF) as u64;

        Self {
            dataset_digest,
            feature_fingerprint,
            graph_generation,
        }
    }
}

/// Records are keyed by the link they prepare: `(u, v, class)`.
type RecordKey = (u32, u32, u32);

fn record_key(link: &LabeledLink) -> RecordKey {
    (link.u, link.v, link.class as u32)
}

/// An encoded record body: freshly inserted records own their bytes; an
/// opened store keeps bodies as slices into the one shared file buffer, so
/// opening never copies record payloads.
#[derive(Debug)]
enum Body {
    Owned(Vec<u8>),
    Shared {
        buf: Arc<Vec<u8>>,
        off: usize,
        len: usize,
    },
}

impl Body {
    fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(b) => b,
            Body::Shared { buf, off, len } => &buf[*off..*off + *len],
        }
    }
}

/// A persistent, CRC-guarded map from labeled links to their prepared
/// samples. See the module docs for the on-disk format and integrity
/// rules.
#[derive(Debug)]
pub struct SampleStore {
    path: PathBuf,
    key: StoreKey,
    /// Encoded record bodies, ordered by key so serialization is
    /// byte-deterministic regardless of insertion order.
    records: BTreeMap<RecordKey, Body>,
    /// Typed damage found while opening (each entry is one refused record,
    /// a lost tail, or a footer failure).
    damage: Vec<Error>,
    dirty: bool,
}

impl SampleStore {
    /// Open (or create) the store at `path` for the given key.
    ///
    /// A missing file yields an empty store. An existing file must carry
    /// the `AMSS` magic, the current version, an intact header and key
    /// section, and the same [`StoreKey`]; every record section whose CRC
    /// holds is then available for [`get`](Self::get), and the rest are
    /// dropped (see [`damage`](Self::damage)).
    ///
    /// # Errors
    /// - [`Error::StoreIo`] on plain I/O failure.
    /// - [`Error::StoreCorrupt`] when the header or the key section is
    ///   unreadable (bad magic, other version, CRC mismatch) — the file
    ///   cannot be attributed to any key, so it is refused outright.
    /// - [`Error::StoreMismatch`] when the key is intact but belongs to
    ///   different data, features, or graph generation.
    pub fn open(path: impl Into<PathBuf>, key: StoreKey) -> Result<Self> {
        let path = path.into();
        let bytes = match std::fs::read(&path) {
            Ok(b) => Arc::new(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Self {
                    path,
                    key,
                    records: BTreeMap::new(),
                    damage: Vec::new(),
                    dirty: false,
                })
            }
            Err(e) => {
                return Err(Error::StoreIo {
                    detail: format!("reading {}: {e}", path.display()),
                })
            }
        };
        let corrupt = |detail: String| Error::StoreCorrupt { detail };
        let container =
            durable::parse(&bytes, MAGIC, VERSION).map_err(|e| corrupt(e.to_string()))?;
        let mut sections = container.sections.into_iter();
        let found = sections
            .next()
            .flatten()
            .and_then(|range| decode_key(&bytes[range]))
            .ok_or_else(|| corrupt("store key section damaged or missing".into()))?;
        check_key(found, key)?;
        let mut damage: Vec<Error> = container.damage.into_iter().map(corrupt).collect();
        let mut records = BTreeMap::new();
        for (idx, range) in sections.enumerate() {
            let Some(range) = range else { continue };
            match body_record_key(&bytes[range.clone()]) {
                Some(k) => {
                    let body = Body::Shared {
                        buf: Arc::clone(&bytes),
                        off: range.start,
                        len: range.len(),
                    };
                    records.insert(k, body);
                }
                None => damage.push(corrupt(format!("record {idx} too short for its key"))),
            }
        }
        Ok(Self {
            path,
            key,
            records,
            dirty: !damage.is_empty(),
            damage,
        })
    }

    /// The key this store was opened with.
    pub fn key(&self) -> StoreKey {
        self.key
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of intact records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Typed damage found while opening: one entry per refused record or
    /// lost tail. Damaged records surface as misses, never as samples.
    pub fn damage(&self) -> &[Error] {
        &self.damage
    }

    /// True when in-memory records differ from the file (inserts since
    /// open, or damage that a flush would repair).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Does the store hold an intact record for `link`?
    pub fn contains(&self, link: &LabeledLink) -> bool {
        self.records.contains_key(&record_key(link))
    }

    /// Decode the stored sample for `link`, rebuilding its
    /// [`amdgcnn_nn::MessageGraph`] through the exact tensorize code path
    /// — bit-identical to the sample originally inserted. `None` is a
    /// store miss (absent or damaged record).
    pub fn get(&self, ds: &Dataset, link: &LabeledLink) -> Option<PreparedSample> {
        let body = self.records.get(&record_key(link))?;
        // The body passed its CRC at open, so decode failures are
        // write-side bugs; treat them as misses rather than panicking.
        decode_body(body.as_slice(), ds).ok()
    }

    /// Insert (or replace) the prepared sample for `link`.
    pub fn insert(&mut self, link: &LabeledLink, sample: &PreparedSample) {
        self.records
            .insert(record_key(link), Body::Owned(encode_body(link, sample)));
        self.dirty = true;
    }

    /// Serialize every record and crash-safely replace the file
    /// (temp + fsync + atomic rename). `fault` injects a deterministic
    /// durability failure for testing; pass `None` in production.
    ///
    /// # Errors
    /// [`Error::StoreIo`] when the write fails.
    pub fn flush(&mut self, fault: Option<DiskFault>) -> Result<()> {
        let mut key = Vec::with_capacity(24);
        key.extend_from_slice(&self.key.dataset_digest.to_le_bytes());
        key.extend_from_slice(&self.key.feature_fingerprint.to_le_bytes());
        key.extend_from_slice(&self.key.graph_generation.to_le_bytes());
        let mut sections = Vec::with_capacity(1 + self.records.len());
        sections.push(key.as_slice());
        sections.extend(self.records.values().map(Body::as_slice));
        let bytes = durable::encode(MAGIC, VERSION, &sections);
        write_atomic(&self.path, &bytes, fault).map_err(|e| Error::StoreIo {
            detail: format!("writing {}: {e}", self.path.display()),
        })?;
        self.dirty = false;
        Ok(())
    }
}

fn decode_key(section: &[u8]) -> Option<StoreKey> {
    let mut r = Cursor::new(section);
    let key = StoreKey {
        dataset_digest: r.u64("dataset digest").ok()?,
        feature_fingerprint: r.u64("feature fingerprint").ok()?,
        graph_generation: r.u64("graph generation").ok()?,
    };
    r.finish("store key").ok()?;
    Some(key)
}

/// Refuse a store written for other inputs, naming the first diverging
/// component.
fn check_key(found: StoreKey, want: StoreKey) -> Result<()> {
    let detail = if found.dataset_digest != want.dataset_digest {
        format!(
            "dataset digest {:#018x} vs expected {:#018x}",
            found.dataset_digest, want.dataset_digest
        )
    } else if found.feature_fingerprint != want.feature_fingerprint {
        format!(
            "feature fingerprint {:#018x} vs expected {:#018x}",
            found.feature_fingerprint, want.feature_fingerprint
        )
    } else if found.graph_generation != want.graph_generation {
        format!(
            "graph generation {} vs expected {}",
            found.graph_generation, want.graph_generation
        )
    } else {
        return Ok(());
    };
    Err(Error::StoreMismatch { detail })
}

/// Peek the record key at the head of an encoded body.
fn body_record_key(body: &[u8]) -> Option<RecordKey> {
    let mut r = Cursor::new(body);
    Some((r.u32("u").ok()?, r.u32("v").ok()?, r.u32("class").ok()?))
}

fn encode_body(link: &LabeledLink, sample: &PreparedSample) -> Vec<u8> {
    let mut b = Vec::with_capacity(
        24 + sample.edges.len() * 10 + sample.drnl.len() * 4 + sample.features.len() * 4,
    );
    b.extend_from_slice(&link.u.to_le_bytes());
    b.extend_from_slice(&link.v.to_le_bytes());
    b.extend_from_slice(&(link.class as u32).to_le_bytes());
    b.extend_from_slice(&(sample.num_nodes as u32).to_le_bytes());
    b.extend_from_slice(&(sample.edges.len() as u32).to_le_bytes());
    for e in &sample.edges {
        b.extend_from_slice(&e.u.to_le_bytes());
        b.extend_from_slice(&e.v.to_le_bytes());
        b.extend_from_slice(&e.etype.to_le_bytes());
    }
    for &d in &sample.drnl {
        b.extend_from_slice(&d.to_le_bytes());
    }
    put_matrix(&mut b, &sample.features);
    // Persist the tensorize sort's output so decode rebuilds the message
    // graph with linear copies instead of re-sorting.
    let csr = sample.graph.csr();
    let (src, dst) = (csr.src_ids(), csr.dst_ids());
    let orig = sample.graph.orig_edge();
    b.extend_from_slice(&(csr.num_messages() as u32).to_le_bytes());
    for m in 0..csr.num_messages() {
        b.extend_from_slice(&src[m].to_le_bytes());
        b.extend_from_slice(&dst[m].to_le_bytes());
        b.extend_from_slice(&orig[m].map_or(u32::MAX, |e| e as u32).to_le_bytes());
    }
    b
}

/// Decode an encoded record body back into a [`PreparedSample`]. The body
/// has already passed CRC verification; structural inconsistencies are
/// still reported as typed corruption rather than trusted.
fn decode_body(body: &[u8], ds: &Dataset) -> Result<PreparedSample> {
    let corrupt = |e: std::io::Error| Error::StoreCorrupt {
        detail: e.to_string(),
    };
    let mut r = Cursor::new(body);
    r.take(8, "record key").map_err(corrupt)?;
    let class = r.u32("record class").map_err(corrupt)? as usize;
    let num_nodes = r.count(MAX_LIST_LEN, "node count").map_err(corrupt)?;
    let num_edges = r.count(MAX_LIST_LEN, "edge count").map_err(corrupt)?;
    let edge_bytes = r.take(num_edges * 10, "edges").map_err(corrupt)?;
    let edges: Vec<LocalEdge> = edge_bytes
        .chunks_exact(10)
        .map(|c| LocalEdge {
            u: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
            v: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            etype: u16::from_le_bytes(c[8..10].try_into().expect("2 bytes")),
        })
        .collect();
    let drnl: Vec<u32> = r
        .take(num_nodes * 4, "DRNL labels")
        .map_err(corrupt)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    let features = r.matrix("features").map_err(corrupt)?;
    let invalid = |detail: &str| Error::StoreCorrupt {
        detail: detail.into(),
    };
    if features.rows() != num_nodes {
        return Err(invalid("feature rows disagree with node count"));
    }
    // Message topology: validate every invariant the rebuild constructor
    // would otherwise panic on — the bytes are CRC-guarded, but a CRC
    // collision must still surface as typed corruption, never a panic.
    let num_messages = r.u32("message count").map_err(corrupt)? as usize;
    let self_edges = edges.iter().filter(|e| e.u == e.v).count();
    let expected = (edges.len() - self_edges) * 2 + self_edges + num_nodes;
    if num_messages != expected {
        return Err(invalid("message count disagrees with topology"));
    }
    let message_bytes = r.take(num_messages * 12, "messages").map_err(corrupt)?;
    let mut pairs = Vec::with_capacity(num_messages);
    let mut origins = Vec::with_capacity(num_messages);
    let mut prev_dst = 0u32;
    for c in message_bytes.chunks_exact(12) {
        let src = u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        let orig = u32::from_le_bytes(c[8..12].try_into().expect("4 bytes"));
        if src as usize >= num_nodes || dst as usize >= num_nodes || dst < prev_dst {
            return Err(invalid("message topology out of order"));
        }
        if orig != u32::MAX && orig as usize >= num_edges {
            return Err(invalid("message origin out of range"));
        }
        prev_dst = dst;
        pairs.push((src, dst));
        origins.push(orig);
    }
    r.finish("record").map_err(corrupt)?;
    let graph = message_graph_from_messages(ds, num_nodes, &edges, &pairs, &origins);
    Ok(PreparedSample {
        features,
        graph,
        label: class,
        num_nodes,
        num_edges,
        edges,
        drnl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::prepare_sample;
    use amdgcnn_data::{wn18_like, Wn18Config};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "amdgcnn-store-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn samples_equal(a: &PreparedSample, b: &PreparedSample) -> bool {
        a.features == b.features
            && a.label == b.label
            && a.num_nodes == b.num_nodes
            && a.num_edges == b.num_edges
            && a.edges == b.edges
            && a.drnl == b.drnl
            && a.graph.csr().src_ids() == b.graph.csr().src_ids()
            && a.graph.csr().dst_ids() == b.graph.csr().dst_ids()
            && a.graph.relations() == b.graph.relations()
            && a.graph.edge_attrs().map(|m| m.data()) == b.graph.edge_attrs().map(|m| m.data())
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let key = StoreKey::for_dataset(&ds, &fcfg, 0);
        let path = scratch_dir("roundtrip").join("samples.amss");
        let mut store = SampleStore::open(&path, key).expect("open fresh");
        assert!(store.is_empty() && !store.is_dirty());
        let prepared: Vec<_> = ds.train[..6]
            .iter()
            .map(|l| prepare_sample(&ds, l, &fcfg))
            .collect();
        for (l, s) in ds.train[..6].iter().zip(&prepared) {
            store.insert(l, s);
        }
        store.flush(None).expect("flush");
        assert!(!store.is_dirty());

        let reopened = SampleStore::open(&path, key).expect("reopen");
        assert_eq!(reopened.len(), 6);
        assert!(reopened.damage().is_empty());
        for (l, s) in ds.train[..6].iter().zip(&prepared) {
            let got = reopened.get(&ds, l).expect("hit");
            assert!(samples_equal(&got, s), "decoded sample differs");
        }
        // A link never inserted is a miss.
        assert!(reopened.get(&ds, &ds.train[7]).is_none());
    }

    #[test]
    fn key_changes_with_every_component() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let base = StoreKey::for_dataset(&ds, &fcfg, 0);
        let mut other_fcfg = fcfg.clone();
        other_fcfg.max_drnl = 5;
        assert_ne!(
            base.feature_fingerprint,
            StoreKey::for_dataset(&ds, &other_fcfg, 0).feature_fingerprint
        );
        assert_ne!(base, StoreKey::for_dataset(&ds, &fcfg, 1));
        let mut other_ds = wn18_like(&Wn18Config {
            seed: 0x9999,
            ..Wn18Config::tiny()
        });
        other_ds.name = ds.name;
        assert_ne!(
            base.dataset_digest,
            StoreKey::for_dataset(&other_ds, &fcfg, 0).dataset_digest
        );
    }

    #[test]
    fn feature_fingerprint_keeps_the_value_older_stores_carry() {
        // The value stores written with the embedding-width slot carry for
        // one node type and the default DRNL cap (feature width 14).
        let ds = wn18_like(&Wn18Config::tiny());
        let key = StoreKey::for_dataset(&ds, &FeatureConfig::for_graph(1), 0);
        assert_eq!(key.feature_fingerprint, 0x0000_000e_2bde_ed3f);
    }

    #[test]
    fn mismatched_key_is_refused() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let key = StoreKey::for_dataset(&ds, &fcfg, 0);
        let path = scratch_dir("mismatch").join("samples.amss");
        let mut store = SampleStore::open(&path, key).expect("open");
        store.insert(&ds.train[0], &prepare_sample(&ds, &ds.train[0], &fcfg));
        store.flush(None).expect("flush");

        let rolled = StoreKey {
            graph_generation: 3,
            ..key
        };
        let err = SampleStore::open(&path, rolled).expect_err("stale store");
        assert!(
            matches!(&err, Error::StoreMismatch { detail } if detail.contains("generation")),
            "{err}"
        );
    }
}
