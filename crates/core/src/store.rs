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
//! Format (`AMSS` version 1, little-endian):
//! ```text
//! magic "AMSS" | u32 version
//! u64 dataset digest | u64 feature fingerprint | u64 graph generation
//! u32 record count | u32 header CRC-32
//! per record:
//!   u32 body length | body | u32 section CRC-32
//!   body: u32 u | u32 v | u32 class
//!         u32 num_nodes | u32 num_edges
//!         per edge: u32 u | u32 v | u16 etype
//!         per node: u32 drnl
//!         u32 rows | u32 cols | f32 features...
//!         u32 num_messages
//!         per message: u32 src | u32 dst | u32 orig edge (MAX = self-loop)
//! u32 footer CRC-32 (over every checksummed byte in the file)
//! ```
//!
//! Integrity and staleness rules:
//! - Writes are crash-safe ([`write_atomic`]: temp + fsync + rename), so a
//!   crash leaves the previous complete store or the new one.
//! - The header key ([`StoreKey`]) binds the store to the *content* of the
//!   dataset (graph digest + edge attributes + splits + subgraph config),
//!   the feature fingerprint, and the graph generation. A mismatch on open
//!   is a typed [`Error::StoreMismatch`] — a stale store is refused, never
//!   silently reused.
//! - Every record carries its own CRC-32, and the file a footer CRC-32.
//!   A clean open takes the fast path: one checksum sweep against the
//!   footer (which covers every record body), after which bodies are
//!   zero-copy slices of the shared file buffer. Only when that sweep
//!   fails does the salvage scan verify records individually: a damaged
//!   record is dropped (recorded as a typed [`Error::StoreCorrupt`] in
//!   [`SampleStore::damage`]) and surfaces as a store *miss* — the sample
//!   is re-prepared — never as a garbage sample.
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
use amdgcnn_tensor::durable::{crc32_update, write_atomic, CrcReader, CrcWriter, DiskFault};
use amdgcnn_tensor::io::write_matrix;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"AMSS";
const VERSION: u32 = 1;

/// Hard ceilings on header-declared sizes — a store we wrote ourselves
/// stays far below them; anything above is corrupt or hostile and is
/// rejected before memory is committed to it.
const MAX_RECORDS: usize = 1 << 24;
const MAX_BODY_BYTES: usize = 1 << 28;
const MAX_LIST_LEN: usize = 1 << 24;

/// The fingerprint that binds a store file to the exact inputs of sample
/// preparation. Two runs share a store only when every component matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey {
    /// CRC-based digest of the dataset *content*: graph structure and node
    /// types, edge-attribute table, class count, train/test link lists,
    /// and the subgraph-extraction settings.
    pub dataset_digest: u64,
    /// Digest of the [`FeatureConfig`] (node-type width, DRNL cap,
    /// node2vec dimensionality) plus the resulting feature width.
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
        fcrc = crc32_update(
            fcrc,
            &(fcfg.node2vec.as_ref().map_or(u64::MAX, |e| e.dims as u64)).to_le_bytes(),
        );
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

/// An encoded record body: freshly inserted records own their bytes; a
/// clean open keeps bodies as slices into the one shared file buffer, so
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
    /// Typed damage found while opening (each entry is one refused record
    /// or a file-level verification failure that cost the record tail).
    damage: Vec<Error>,
    dirty: bool,
}

impl SampleStore {
    /// Open (or create) the store at `path` for the given key.
    ///
    /// A missing file yields an empty store. An existing file must carry
    /// the `AMSS` magic, a supported version, a valid header CRC, and the
    /// same [`StoreKey`]; its records are then scanned with per-record
    /// CRC verification — damaged records are dropped (see
    /// [`damage`](Self::damage)), everything else is available for
    /// [`get`](Self::get).
    ///
    /// # Errors
    /// - [`Error::StoreIo`] on plain I/O failure.
    /// - [`Error::StoreCorrupt`] when the header itself is unreadable
    ///   (bad magic, unsupported version, header CRC mismatch) — the file
    ///   cannot be attributed to any key, so it is refused outright.
    /// - [`Error::StoreMismatch`] when the header is intact but belongs to
    ///   different data, features, or graph generation.
    pub fn open(path: impl Into<PathBuf>, key: StoreKey) -> Result<Self> {
        let path = path.into();
        let mut store = Self {
            path,
            key,
            records: BTreeMap::new(),
            damage: Vec::new(),
            dirty: false,
        };
        let bytes = match std::fs::read(&store.path) {
            Ok(b) => Arc::new(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => {
                return Err(Error::StoreIo {
                    detail: format!("reading {}: {e}", store.path.display()),
                })
            }
        };
        store.verify_header(&bytes)?;
        if !store.fast_scan(&bytes) {
            // Something is damaged: re-walk with per-record verification to
            // salvage every record whose own CRC still holds.
            store.scan(&bytes)?;
        }
        Ok(store)
    }

    /// Verify magic, version, header CRC, and [`StoreKey`], returning the
    /// declared record count. All failures here are hard, typed errors —
    /// shared by the fast and salvage scan paths.
    fn verify_header(&self, bytes: &[u8]) -> Result<usize> {
        let corrupt = |detail: String| Error::StoreCorrupt { detail };
        if bytes.len() < 4 {
            return Err(corrupt("truncated magic".into()));
        }
        if &bytes[..4] != MAGIC {
            let magic = &bytes[..4];
            return Err(corrupt(format!("bad magic {magic:02x?}")));
        }
        if bytes.len() < 8 {
            return Err(corrupt("truncated version".into()));
        }
        let version = le_u32(bytes, 4);
        if version != VERSION {
            return Err(corrupt(format!("unsupported store version {version}")));
        }
        if bytes.len() < 36 {
            return Err(corrupt("truncated header".into()));
        }
        let header_crc = crc32_update(0xFFFF_FFFF, &bytes[..36]) ^ 0xFFFF_FFFF;
        if bytes.len() < 40 {
            return Err(corrupt("truncated header CRC".into()));
        }
        let stored = le_u32(bytes, 36);
        if stored != header_crc {
            return Err(corrupt(format!(
                "header CRC mismatch: stored {stored:#010x}, computed {header_crc:#010x}"
            )));
        }
        let count = le_u32(bytes, 32) as usize;
        if count > MAX_RECORDS {
            return Err(corrupt(format!("implausible record count {count}")));
        }
        let found = StoreKey {
            dataset_digest: le_u64(bytes, 8),
            feature_fingerprint: le_u64(bytes, 16),
            graph_generation: le_u64(bytes, 24),
        };
        if found != self.key {
            let component = if found.dataset_digest != self.key.dataset_digest {
                format!(
                    "dataset digest {:#018x} vs expected {:#018x}",
                    found.dataset_digest, self.key.dataset_digest
                )
            } else if found.feature_fingerprint != self.key.feature_fingerprint {
                format!(
                    "feature fingerprint {:#018x} vs expected {:#018x}",
                    found.feature_fingerprint, self.key.feature_fingerprint
                )
            } else {
                format!(
                    "graph generation {} vs expected {}",
                    found.graph_generation, self.key.graph_generation
                )
            };
            return Err(Error::StoreMismatch { detail: component });
        }
        Ok(count)
    }

    /// The clean-open fast path: one CRC pass over every checksummed byte,
    /// compared against the footer. A matching footer proves every record
    /// body intact (the footer covers all of them), so per-record CRC
    /// verification is skipped and bodies become zero-copy slices of the
    /// shared file buffer — the dominant cost of a warm open is exactly one
    /// checksum sweep of the file. Returns `false` (leaving the store
    /// untouched) on any structural or checksum failure; the caller then
    /// falls back to the per-record salvage scan.
    fn fast_scan(&mut self, bytes: &Arc<Vec<u8>>) -> bool {
        let b: &[u8] = bytes;
        let count = le_u32(b, 32) as usize;
        let mut state = crc32_update(0xFFFF_FFFF, &b[..36]);
        let mut pos = 40;
        let mut entries: Vec<(RecordKey, usize, usize)> = Vec::with_capacity(count);
        for _ in 0..count {
            if b.len() < pos + 4 {
                return false;
            }
            let body_len = le_u32(b, pos) as usize;
            if body_len > MAX_BODY_BYTES {
                return false;
            }
            let body_start = pos + 4;
            let Some(body_end) = body_start.checked_add(body_len) else {
                return false;
            };
            // Body plus its (unverified here) stored section CRC.
            if b.len() < body_end + 4 {
                return false;
            }
            state = crc32_update(state, &b[pos..body_end]);
            let Some(key) = body_record_key(&b[body_start..body_end]) else {
                return false;
            };
            entries.push((key, body_start, body_len));
            pos = body_end + 4;
        }
        if b.len() < pos + 4 || le_u32(b, pos) != state ^ 0xFFFF_FFFF {
            return false;
        }
        for (key, off, len) in entries {
            self.records.insert(
                key,
                Body::Shared {
                    buf: Arc::clone(bytes),
                    off,
                    len,
                },
            );
        }
        true
    }

    /// Parse `bytes` into `self.records`, verifying header, key, and
    /// per-record CRCs. Record-level damage is recorded and skipped;
    /// header-level damage is a hard error.
    fn scan(&mut self, bytes: &[u8]) -> Result<()> {
        let corrupt = |detail: String| Error::StoreCorrupt { detail };
        let mut r = CrcReader::new(bytes);
        let mut magic = [0u8; 4];
        read_checked(&mut r, &mut magic).map_err(|_| corrupt("truncated magic".into()))?;
        if &magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:02x?}")));
        }
        let version = read_u32(&mut r).map_err(|_| corrupt("truncated version".into()))?;
        if version != VERSION {
            return Err(corrupt(format!("unsupported store version {version}")));
        }
        let dataset_digest = read_u64(&mut r).map_err(|_| corrupt("truncated header".into()))?;
        let feature_fingerprint =
            read_u64(&mut r).map_err(|_| corrupt("truncated header".into()))?;
        let graph_generation = read_u64(&mut r).map_err(|_| corrupt("truncated header".into()))?;
        let count = read_u32(&mut r).map_err(|_| corrupt("truncated header".into()))? as usize;
        let header_crc = r.section_crc();
        let stored = read_crc(&mut r).map_err(|_| corrupt("truncated header CRC".into()))?;
        if stored != header_crc {
            return Err(corrupt(format!(
                "header CRC mismatch: stored {stored:#010x}, computed {header_crc:#010x}"
            )));
        }
        if count > MAX_RECORDS {
            return Err(corrupt(format!("implausible record count {count}")));
        }
        let found = StoreKey {
            dataset_digest,
            feature_fingerprint,
            graph_generation,
        };
        if found != self.key {
            let component = if dataset_digest != self.key.dataset_digest {
                format!(
                    "dataset digest {dataset_digest:#018x} vs expected {:#018x}",
                    self.key.dataset_digest
                )
            } else if feature_fingerprint != self.key.feature_fingerprint {
                format!(
                    "feature fingerprint {feature_fingerprint:#018x} vs expected {:#018x}",
                    self.key.feature_fingerprint
                )
            } else {
                format!(
                    "graph generation {graph_generation} vs expected {}",
                    self.key.graph_generation
                )
            };
            return Err(Error::StoreMismatch { detail: component });
        }

        for idx in 0..count {
            r.reset_section();
            let body_len = match read_u32(&mut r) {
                Ok(n) => n as usize,
                Err(_) => {
                    self.damage.push(corrupt(format!(
                        "truncated before record {idx} of {count}: {} record(s) lost",
                        count - idx
                    )));
                    self.dirty = true;
                    return Ok(());
                }
            };
            if body_len > MAX_BODY_BYTES {
                // The length field itself is corrupt: nothing after it can
                // be located, so the rest of the file is lost.
                self.damage.push(corrupt(format!(
                    "implausible body length {body_len} in record {idx}: {} record(s) lost",
                    count - idx
                )));
                self.dirty = true;
                return Ok(());
            }
            let mut body = vec![0u8; body_len];
            if read_checked(&mut r, &mut body).is_err() {
                self.damage.push(corrupt(format!(
                    "truncated inside record {idx} of {count}: {} record(s) lost",
                    count - idx
                )));
                self.dirty = true;
                return Ok(());
            }
            let section = r.section_crc();
            let stored = match read_crc(&mut r) {
                Ok(c) => c,
                Err(_) => {
                    self.damage
                        .push(corrupt(format!("truncated CRC of record {idx}")));
                    self.dirty = true;
                    return Ok(());
                }
            };
            if stored != section {
                // The record is damaged but its length framing held, so the
                // scan can resync on the next record: one miss, not a
                // poisoned store.
                self.damage.push(corrupt(format!(
                    "record {idx} CRC mismatch: stored {stored:#010x}, computed {section:#010x}"
                )));
                self.dirty = true;
                continue;
            }
            match body_record_key(&body) {
                Some(key) => {
                    self.records.insert(key, Body::Owned(body));
                }
                None => {
                    self.damage
                        .push(corrupt(format!("record {idx} too short for its key")));
                    self.dirty = true;
                }
            }
        }
        let footer = r.total_crc();
        match read_crc(&mut r) {
            Ok(stored) if stored == footer => {}
            Ok(stored) => {
                // Every surviving record passed its own CRC; the corruption
                // sits in framing or stored-checksum bytes. Keep the
                // verified records, note the damage, rewrite on flush.
                self.damage.push(corrupt(format!(
                    "footer CRC mismatch: stored {stored:#010x}, computed {footer:#010x}"
                )));
                self.dirty = true;
            }
            Err(_) => {
                self.damage.push(corrupt("truncated footer CRC".into()));
                self.dirty = true;
            }
        }
        Ok(())
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
        let mut w = CrcWriter::new(Vec::new());
        let io_err = |e: std::io::Error| Error::StoreIo {
            detail: format!("serializing sample store: {e}"),
        };
        w.write_all(MAGIC).map_err(io_err)?;
        w.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        w.write_all(&self.key.dataset_digest.to_le_bytes())
            .map_err(io_err)?;
        w.write_all(&self.key.feature_fingerprint.to_le_bytes())
            .map_err(io_err)?;
        w.write_all(&self.key.graph_generation.to_le_bytes())
            .map_err(io_err)?;
        w.write_all(&(self.records.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        let header_crc = w.section_crc();
        w.write_unchecked(&header_crc.to_le_bytes())
            .map_err(io_err)?;
        for body in self.records.values() {
            let body = body.as_slice();
            w.reset_section();
            w.write_all(&(body.len() as u32).to_le_bytes())
                .map_err(io_err)?;
            w.write_all(body).map_err(io_err)?;
            let section = w.section_crc();
            w.write_unchecked(&section.to_le_bytes()).map_err(io_err)?;
        }
        let footer = w.total_crc();
        w.write_unchecked(&footer.to_le_bytes()).map_err(io_err)?;
        let bytes = w.into_inner();
        write_atomic(&self.path, &bytes, fault).map_err(|e| Error::StoreIo {
            detail: format!("writing {}: {e}", self.path.display()),
        })?;
        self.dirty = false;
        Ok(())
    }
}

fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

/// Peek the record key at the head of an encoded body.
fn body_record_key(body: &[u8]) -> Option<RecordKey> {
    if body.len() < 12 {
        return None;
    }
    let u = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let v = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let class = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    Some((u, v, class))
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
    write_matrix(&mut b, &sample.features).expect("Vec write is infallible");
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
    let corrupt = |detail: &str| Error::StoreCorrupt {
        detail: detail.into(),
    };
    let mut r: &[u8] = body;
    let _u = read_u32(&mut r).map_err(|_| corrupt("record key"))?;
    let _v = read_u32(&mut r).map_err(|_| corrupt("record key"))?;
    let class = read_u32(&mut r).map_err(|_| corrupt("record key"))? as usize;
    let num_nodes = read_u32(&mut r).map_err(|_| corrupt("node count"))? as usize;
    let num_edges = read_u32(&mut r).map_err(|_| corrupt("edge count"))? as usize;
    if num_nodes > MAX_LIST_LEN || num_edges > MAX_LIST_LEN {
        return Err(corrupt("implausible subgraph size"));
    }
    if r.len() < num_edges * 10 + num_nodes * 4 {
        return Err(corrupt("edge or DRNL section truncated"));
    }
    let mut edges = Vec::with_capacity(num_edges);
    for c in r[..num_edges * 10].chunks_exact(10) {
        edges.push(LocalEdge {
            u: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
            v: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            etype: u16::from_le_bytes(c[8..10].try_into().expect("2 bytes")),
        });
    }
    r = &r[num_edges * 10..];
    let mut drnl = Vec::with_capacity(num_nodes);
    for c in r[..num_nodes * 4].chunks_exact(4) {
        drnl.push(u32::from_le_bytes(c.try_into().expect("4 bytes")));
    }
    r = &r[num_nodes * 4..];
    // Feature matrix, parsed in place (same layout as
    // [`amdgcnn_tensor::io::read_matrix`], minus the Read-trait copies).
    if r.len() < 8 {
        return Err(corrupt("feature header truncated"));
    }
    let rows = le_u32(r, 0) as usize;
    let cols = le_u32(r, 4) as usize;
    r = &r[8..];
    let total = rows.saturating_mul(cols);
    if total > MAX_BODY_BYTES / 4 {
        return Err(corrupt("implausible feature shape"));
    }
    if r.len() < total * 4 {
        return Err(corrupt("feature data truncated"));
    }
    let data: Vec<f32> = r[..total * 4]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    let features = amdgcnn_tensor::Matrix::from_vec(rows, cols, data);
    r = &r[total * 4..];
    if features.rows() != num_nodes {
        return Err(corrupt("feature rows disagree with node count"));
    }
    // Message topology: validate every invariant the rebuild constructor
    // would otherwise panic on — the bytes are CRC-guarded, but a CRC
    // collision must still surface as typed corruption, never a panic.
    let num_messages = read_u32(&mut r).map_err(|_| corrupt("message count"))? as usize;
    let self_edges = edges.iter().filter(|e| e.u == e.v).count();
    let expected = (edges.len() - self_edges) * 2 + self_edges + num_nodes;
    if num_messages != expected {
        return Err(corrupt("message count disagrees with topology"));
    }
    if r.len() < num_messages * 12 {
        return Err(corrupt("message section truncated"));
    }
    let mut pairs = Vec::with_capacity(num_messages);
    let mut origins = Vec::with_capacity(num_messages);
    let mut prev_dst = 0u32;
    for c in r[..num_messages * 12].chunks_exact(12) {
        let src = u32::from_le_bytes(c[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(c[4..8].try_into().expect("4 bytes"));
        let orig = u32::from_le_bytes(c[8..12].try_into().expect("4 bytes"));
        if src as usize >= num_nodes || dst as usize >= num_nodes || dst < prev_dst {
            return Err(corrupt("message topology out of order"));
        }
        if orig != u32::MAX && orig as usize >= num_edges {
            return Err(corrupt("message origin out of range"));
        }
        prev_dst = dst;
        pairs.push((src, dst));
        origins.push(orig);
    }
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

fn read_checked<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<()> {
    r.read_exact(buf)
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Read a stored CRC value without folding it into the running checksums.
fn read_crc<R: Read>(r: &mut CrcReader<R>) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact_unchecked(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
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
