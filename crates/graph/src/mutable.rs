//! Live graph mutation: append/retire edges under generation versioning,
//! with copy-on-write snapshot isolation and a crash-safe mutation WAL.
//!
//! A [`MutableGraph`] owns the authoritative node/edge state plus an
//! immutable [`KnowledgeGraph`] snapshot behind an `Arc`. Readers pin the
//! snapshot of the generation they started on; [`apply`](MutableGraph::apply)
//! stages a whole mutation batch, validates every operation, and only then
//! swaps in a freshly built snapshot under a bumped generation — an
//! in-flight reader never observes a half-applied batch, and a rejected
//! batch changes nothing.
//!
//! Edge ids handed out by [`MutableGraph`] are *stable*: retiring an edge
//! tombstones it rather than renumbering the survivors, so a WAL record
//! naming an edge means the same edge no matter how many retirements came
//! between. Snapshots contain only live edges (their internal CSR ids are
//! per-snapshot and never leak into mutations).
//!
//! Durability: [`MutationWal`] frames one encoded batch per WAL record
//! (CRC-guarded, see [`amdgcnn_tensor::wal`]), logged *before* the
//! in-memory apply. Replaying the log over the base graph reconstructs a
//! graph bit-identical to the live one — [`graph_digest`] is the equality
//! witness. A malformed record decodes to a typed [`GraphError`], never a
//! panic, so replay of a damaged log degrades instead of aborting.
//!
//! Invalidation: every committed batch yields a [`Commit`] from which an
//! [`AffectedRegion`] — the union of k-hop balls around every touched
//! endpoint, on both the before and after snapshots — answers "does this
//! cached query (a, b) need recomputing?" conservatively: any query whose
//! enclosing subgraph could have changed is inside the region.

use crate::graph::{Edge, GraphBuilder, GraphError, KnowledgeGraph};
use crate::marks::{with_marks, NodeMarks};
use amdgcnn_tensor::durable::{crc32_update, DiskFault};
use amdgcnn_tensor::wal::{replay as wal_replay, Wal, WalReplay};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One atomic operation on a [`MutableGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMutation {
    /// Append a node of the given type; it gets the next node id.
    AddNode {
        /// Type tag of the new node.
        ntype: u16,
    },
    /// Append an undirected typed edge; it gets the next stable edge id.
    AddEdge {
        /// One endpoint.
        u: u32,
        /// Other endpoint.
        v: u32,
        /// Relation / edge-class tag.
        etype: u16,
    },
    /// Retire a live edge by stable id (tombstone — ids never renumber).
    RetireEdge {
        /// Stable id of the edge to retire.
        edge: u32,
    },
    /// Change a node's type tag.
    SetNodeType {
        /// The node to retag.
        node: u32,
        /// Its new type.
        ntype: u16,
    },
}

const TAG_ADD_NODE: u8 = 0;
const TAG_ADD_EDGE: u8 = 1;
const TAG_RETIRE_EDGE: u8 = 2;
const TAG_SET_NODE_TYPE: u8 = 3;

impl GraphMutation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            GraphMutation::AddNode { ntype } => {
                out.push(TAG_ADD_NODE);
                out.extend_from_slice(&ntype.to_le_bytes());
            }
            GraphMutation::AddEdge { u, v, etype } => {
                out.push(TAG_ADD_EDGE);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&etype.to_le_bytes());
            }
            GraphMutation::RetireEdge { edge } => {
                out.push(TAG_RETIRE_EDGE);
                out.extend_from_slice(&edge.to_le_bytes());
            }
            GraphMutation::SetNodeType { node, ntype } => {
                out.push(TAG_SET_NODE_TYPE);
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&ntype.to_le_bytes());
            }
        }
    }
}

/// Encode a mutation batch as one self-delimiting byte record
/// (`[count u32 LE]` followed by tagged operations) — the WAL payload
/// format.
pub fn encode_batch(batch: &[GraphMutation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + batch.len() * 11);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for m in batch {
        m.encode_into(&mut out);
    }
    out
}

/// Decode a batch produced by [`encode_batch`].
///
/// # Errors
/// [`GraphError::TruncatedMutation`] when the record ends mid-operation
/// or carries trailing garbage; [`GraphError::MalformedMutation`] on an
/// unknown operation tag. Both are *data* errors — a corrupted but
/// CRC-valid record (software bug upstream) must not abort replay.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<GraphMutation>, GraphError> {
    fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], GraphError> {
        let end = at.checked_add(n).filter(|&e| e <= bytes.len()).ok_or(
            GraphError::TruncatedMutation {
                expected: *at + n,
                actual: bytes.len(),
            },
        )?;
        let s = &bytes[*at..end];
        *at = end;
        Ok(s)
    }
    let mut at = 0usize;
    let count = u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().unwrap()) as usize;
    // Smallest op is 3 bytes; a count claiming more is a corrupt header.
    if count > bytes.len() {
        return Err(GraphError::TruncatedMutation {
            expected: 4 + count * 3,
            actual: bytes.len(),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(bytes, &mut at, 1)?[0];
        let m = match tag {
            TAG_ADD_NODE => GraphMutation::AddNode {
                ntype: u16::from_le_bytes(take(bytes, &mut at, 2)?.try_into().unwrap()),
            },
            TAG_ADD_EDGE => GraphMutation::AddEdge {
                u: u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().unwrap()),
                v: u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().unwrap()),
                etype: u16::from_le_bytes(take(bytes, &mut at, 2)?.try_into().unwrap()),
            },
            TAG_RETIRE_EDGE => GraphMutation::RetireEdge {
                edge: u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().unwrap()),
            },
            TAG_SET_NODE_TYPE => GraphMutation::SetNodeType {
                node: u32::from_le_bytes(take(bytes, &mut at, 4)?.try_into().unwrap()),
                ntype: u16::from_le_bytes(take(bytes, &mut at, 2)?.try_into().unwrap()),
            },
            other => return Err(GraphError::MalformedMutation { tag: other }),
        };
        out.push(m);
    }
    if at != bytes.len() {
        return Err(GraphError::TruncatedMutation {
            expected: at,
            actual: bytes.len(),
        });
    }
    Ok(out)
}

/// Canonical content digest of a graph: CRC-32 over node count, node
/// types, edge count, and every edge's `(u, v, etype)` in id order. Two
/// graphs with equal digests hold identical content in identical order —
/// the witness that WAL replay reconstructed the live graph exactly.
pub fn graph_digest(g: &KnowledgeGraph) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    crc = crc32_update(crc, &(g.num_nodes() as u64).to_le_bytes());
    for &t in g.node_types() {
        crc = crc32_update(crc, &t.to_le_bytes());
    }
    crc = crc32_update(crc, &(g.num_edges() as u64).to_le_bytes());
    for e in g.edges() {
        crc = crc32_update(crc, &e.u.to_le_bytes());
        crc = crc32_update(crc, &e.v.to_le_bytes());
        crc = crc32_update(crc, &e.etype.to_le_bytes());
    }
    crc ^ 0xFFFF_FFFF
}

/// The set of nodes whose cached enclosing subgraphs a committed mutation
/// batch may have changed. Stored sorted for binary-search membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffectedRegion {
    nodes: Vec<u32>,
}

impl AffectedRegion {
    /// The empty region (nothing invalidated).
    pub fn empty() -> Self {
        Self { nodes: Vec::new() }
    }

    /// True when `node` lies inside the region.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// True when the cached query `(a, b)` must be recomputed: its
    /// enclosing subgraph is built from the k-hop neighborhoods of `a`
    /// and `b`, so it can only have changed if one of them sits inside
    /// the region.
    pub fn affects(&self, a: u32, b: u32) -> bool {
        self.contains(a) || self.contains(b)
    }

    /// Nodes in the region, sorted ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of nodes in the region.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no cached query is affected.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Append the closed ball of radius `hops` around `center` to `out`
/// (duplicates across balls are the caller's to remove). A center beyond
/// the graph's node range contributes nothing (it only exists on the
/// other snapshot). The BFS marks nodes in a pass of its own — `out` may
/// already hold nodes from other centers' balls, which must not truncate
/// this one.
fn collect_ball(
    g: &KnowledgeGraph,
    center: u32,
    hops: usize,
    marks: &mut NodeMarks,
    out: &mut Vec<u32>,
) {
    if center as usize >= g.num_nodes() {
        return;
    }
    marks.begin(g.num_nodes());
    marks.mark(center);
    // The ball's newest hop is `out[lo..]`.
    let mut lo = out.len();
    out.push(center);
    for _ in 0..hops {
        let hi = out.len();
        for i in lo..hi {
            for v in g.neighbor_ids(out[i]) {
                if marks.mark(v) {
                    out.push(v);
                }
            }
        }
        if out.len() == hi {
            break;
        }
        lo = hi;
    }
}

/// Receipt for one committed mutation batch: the generation it produced,
/// the snapshots on either side, and the endpoints it touched.
#[derive(Debug, Clone)]
pub struct Commit {
    /// Generation number the batch committed as.
    pub generation: u64,
    /// Snapshot readers held before the batch.
    pub before: Arc<KnowledgeGraph>,
    /// Snapshot readers pin from now on.
    pub after: Arc<KnowledgeGraph>,
    /// Node ids directly touched by the batch (edge endpoints, retagged
    /// nodes). Deduplicated, unordered.
    pub touched: Vec<u32>,
}

impl Commit {
    /// The conservative invalidation region for this commit at extraction
    /// radius `hops`: the union of `hops`-balls around every touched node
    /// on *both* snapshots. Both sides matter — an added edge can pull a
    /// node into a neighborhood only on the new snapshot, a retired edge
    /// only reached it on the old one.
    pub fn region(&self, hops: usize) -> AffectedRegion {
        let mut nodes = Vec::new();
        with_marks(|marks| {
            for &p in &self.touched {
                collect_ball(&self.before, p, hops, marks, &mut nodes);
                collect_ball(&self.after, p, hops, marks, &mut nodes);
            }
        });
        nodes.sort_unstable();
        nodes.dedup();
        AffectedRegion { nodes }
    }
}

/// A knowledge graph that accepts live mutation batches under generation
/// versioning, publishing an immutable copy-on-write snapshot per
/// generation (see module docs). `Clone` is cheap-ish (the snapshot `Arc`
/// is shared; only the authoritative vectors copy) and gives callers a
/// stage-then-commit idiom: validate a batch on a clone, persist it, then
/// adopt the clone.
#[derive(Debug, Clone)]
pub struct MutableGraph {
    node_types: Vec<u16>,
    /// Stable-id edge list; retired edges stay as tombstones.
    edges: Vec<Edge>,
    retired: Vec<bool>,
    live_edges: usize,
    generation: u64,
    snapshot: Arc<KnowledgeGraph>,
}

impl MutableGraph {
    /// Adopt `graph` as generation 0. The generation-0 snapshot *is*
    /// `graph` (no rebuild), so readers of an unmutated store see the
    /// original bit-for-bit.
    pub fn from_graph(graph: KnowledgeGraph) -> Self {
        let node_types = graph.node_types().to_vec();
        let edges = graph.edges().to_vec();
        let live_edges = edges.len();
        Self {
            node_types,
            retired: vec![false; edges.len()],
            edges,
            live_edges,
            generation: 0,
            snapshot: Arc::new(graph),
        }
    }

    /// Current generation (0 until the first committed batch).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pin the current snapshot. The `Arc` stays valid (and unchanged)
    /// for as long as the reader holds it, regardless of later commits.
    pub fn snapshot(&self) -> Arc<KnowledgeGraph> {
        Arc::clone(&self.snapshot)
    }

    /// Nodes currently present (nodes are never removed).
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Live (non-retired) edges.
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Content digest of the current snapshot (see [`graph_digest`]).
    pub fn digest(&self) -> u32 {
        graph_digest(&self.snapshot)
    }

    /// Validate and apply `batch` atomically: either every operation
    /// commits under one new generation, or the graph is untouched and
    /// the first offending operation's error is returned. Operations see
    /// the effects of earlier operations in the same batch (an edge may
    /// target a node added two ops earlier).
    ///
    /// # Errors
    /// [`GraphError::EndpointOutOfRange`] / [`GraphError::NodeOutOfRange`]
    /// for ids beyond the (staged) graph, [`GraphError::EdgeOutOfRange`]
    /// for an unknown stable edge id, [`GraphError::EdgeRetired`] when
    /// retiring an already-retired edge.
    pub fn apply(&mut self, batch: &[GraphMutation]) -> Result<Commit, GraphError> {
        let mut node_types = self.node_types.clone();
        let mut edges = self.edges.clone();
        let mut retired = self.retired.clone();
        let mut live = self.live_edges;
        let mut touched: Vec<u32> = Vec::new();
        for m in batch {
            match *m {
                GraphMutation::AddNode { ntype } => {
                    node_types.push(ntype);
                    // A brand-new node has no cached history to touch.
                }
                GraphMutation::AddEdge { u, v, etype } => {
                    let n = node_types.len();
                    if (u as usize) >= n || (v as usize) >= n {
                        return Err(GraphError::EndpointOutOfRange { u, v, num_nodes: n });
                    }
                    edges.push(Edge { u, v, etype });
                    retired.push(false);
                    live += 1;
                    touched.push(u);
                    touched.push(v);
                }
                GraphMutation::RetireEdge { edge } => {
                    let slot =
                        retired
                            .get_mut(edge as usize)
                            .ok_or(GraphError::EdgeOutOfRange {
                                edge,
                                num_edges: edges.len(),
                            })?;
                    if *slot {
                        return Err(GraphError::EdgeRetired { edge });
                    }
                    *slot = true;
                    live -= 1;
                    let e = edges[edge as usize];
                    touched.push(e.u);
                    touched.push(e.v);
                }
                GraphMutation::SetNodeType { node, ntype } => {
                    let num_nodes = node_types.len();
                    let t = node_types
                        .get_mut(node as usize)
                        .ok_or(GraphError::NodeOutOfRange { node, num_nodes })?;
                    *t = ntype;
                    touched.push(node);
                }
            }
        }
        // Build the new snapshot from live edges in stable-id order.
        let mut b = GraphBuilder::with_node_types(node_types.clone());
        for (e, &dead) in edges.iter().zip(&retired) {
            if !dead {
                b.try_add_edge(e.u, e.v, e.etype)?;
            }
        }
        let after = Arc::new(b.build());
        let before = std::mem::replace(&mut self.snapshot, Arc::clone(&after));
        self.node_types = node_types;
        self.edges = edges;
        self.retired = retired;
        self.live_edges = live;
        self.generation += 1;
        touched.sort_unstable();
        touched.dedup();
        Ok(Commit {
            generation: self.generation,
            before,
            after,
            touched,
        })
    }

    /// Rebuild a graph by replaying mutation batches over `base` — the
    /// recovery path after a crash. The result is bit-identical to the
    /// live graph that logged those batches (same generations, same
    /// [`digest`](Self::digest)).
    ///
    /// # Errors
    /// The first batch that fails to apply (see [`apply`](Self::apply)) —
    /// a CRC-valid but semantically impossible record means the log and
    /// base graph disagree, which the caller must surface, not mask.
    pub fn replay(
        base: KnowledgeGraph,
        batches: &[Vec<GraphMutation>],
    ) -> Result<Self, GraphError> {
        let mut g = Self::from_graph(base);
        for batch in batches {
            g.apply(batch)?;
        }
        Ok(g)
    }
}

/// Error surface of [`MutationWal`] recovery: I/O trouble, or a record
/// that passed its CRC but does not decode as a mutation batch.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O (including a non-WAL file at the path).
    Io(io::Error),
    /// Record `record` (0-based) is CRC-valid but not a mutation batch.
    Decode {
        /// Index of the offending record.
        record: usize,
        /// The decode failure.
        err: GraphError,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "mutation WAL I/O: {e}"),
            WalError::Decode { record, err } => {
                write!(f, "mutation WAL record {record} undecodable: {err}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A crash-safe mutation log: one CRC-guarded WAL record per committed
/// batch. Log *before* applying in memory — a batch whose
/// [`log`](Self::log) returned `Ok` survives a crash and replays.
#[derive(Debug)]
pub struct MutationWal {
    wal: Wal,
}

/// What [`MutationWal::open`] recovered.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every decoded batch, in commit order.
    pub batches: Vec<Vec<GraphMutation>>,
    /// Bytes of damaged tail dropped during repair (0 for a clean log).
    pub dropped_bytes: u64,
}

impl MutationWal {
    /// Create a fresh, empty log at `path`.
    ///
    /// # Errors
    /// Propagates file-creation I/O errors.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(Self {
            wal: Wal::create(path)?,
        })
    }

    /// Open (or create) the log at `path`, decoding every surviving
    /// batch. A torn/corrupt tail is repaired by truncation — that is
    /// the normal post-crash state; an *undecodable* CRC-valid record is
    /// an error.
    ///
    /// # Errors
    /// [`WalError::Io`] on file trouble or a non-WAL file;
    /// [`WalError::Decode`] naming the first malformed record.
    pub fn open(path: &Path) -> Result<(Self, WalRecovery), WalError> {
        let (wal, replayed) = Wal::open(path)?;
        Ok((Self { wal }, decode_records(&replayed)?))
    }

    /// Durably append one batch, optionally under an injected
    /// [`DiskFault`] (see [`Wal::append_faulty`]).
    ///
    /// # Errors
    /// Propagates append I/O errors.
    pub fn log(&mut self, batch: &[GraphMutation], fault: Option<DiskFault>) -> io::Result<()> {
        self.wal.append_faulty(&encode_batch(batch), fault)
    }

    /// Validated append: log the batch, read it back, and report whether
    /// it is durably intact. `Ok(false)` means the (injected) fault
    /// damaged the record — the log has been repaired back to its
    /// pre-append state, so the caller must refuse the commit (see
    /// [`Wal::append_verified`]).
    ///
    /// # Errors
    /// Propagates append/read-back I/O errors.
    pub fn log_verified(
        &mut self,
        batch: &[GraphMutation],
        fault: Option<DiskFault>,
    ) -> io::Result<bool> {
        self.wal.append_verified(&encode_batch(batch), fault)
    }

    /// Batches durably logged (including replayed ones).
    pub fn batches(&self) -> u64 {
        self.wal.records()
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        self.wal.path()
    }
}

/// Read-only decode of the log at `path` (no repair): the surviving
/// batches, for digest checks against a live graph.
///
/// # Errors
/// Same surface as [`MutationWal::open`].
pub fn replay_log(path: &Path) -> Result<WalRecovery, WalError> {
    decode_records(&wal_replay(path)?)
}

/// Decode every replayed record into a batch; the first malformed one is a
/// [`WalError::Decode`] naming its index.
fn decode_records(replayed: &WalReplay) -> Result<WalRecovery, WalError> {
    let mut batches = Vec::with_capacity(replayed.records.len());
    for (i, rec) in replayed.records.iter().enumerate() {
        batches.push(decode_batch(rec).map_err(|err| WalError::Decode { record: i, err })?);
    }
    Ok(WalRecovery {
        batches,
        dropped_bytes: replayed.dropped_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "amdgcnn-mutable-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("mutations.wal")
    }

    /// 0-1-2-3 path plus a 1-3 chord, typed nodes.
    fn base() -> KnowledgeGraph {
        let mut b = GraphBuilder::with_node_types(vec![0, 1, 0, 1]);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 0);
        b.add_edge(1, 3, 2);
        b.build()
    }

    #[test]
    fn snapshot_isolation_pins_the_old_generation() {
        let mut g = MutableGraph::from_graph(base());
        let pinned = g.snapshot();
        assert_eq!(g.generation(), 0);
        let commit = g
            .apply(&[GraphMutation::AddEdge {
                u: 0,
                v: 3,
                etype: 1,
            }])
            .expect("apply");
        assert_eq!(commit.generation, 1);
        assert_eq!(g.generation(), 1);
        // The pinned snapshot is untouched; the new one sees the edge.
        assert!(!pinned.has_edge(0, 3));
        assert!(g.snapshot().has_edge(0, 3));
        assert_eq!(pinned.num_edges(), 4);
        assert_eq!(g.snapshot().num_edges(), 5);
        assert!(Arc::ptr_eq(&commit.before, &pinned));
    }

    #[test]
    fn retire_tombstones_without_renumbering() {
        let mut g = MutableGraph::from_graph(base());
        g.apply(&[GraphMutation::RetireEdge { edge: 1 }])
            .expect("retire");
        assert_eq!(g.num_live_edges(), 3);
        assert!(!g.snapshot().has_edge(1, 2));
        // Stable ids survive: edge 3 still names the 1-3 chord, and a
        // second retire of it works even after the earlier retirement.
        g.apply(&[GraphMutation::RetireEdge { edge: 3 }])
            .expect("retire chord");
        assert!(!g.snapshot().has_edge(1, 3));
        // Double-retire is a typed error, not silent.
        let err = g
            .apply(&[GraphMutation::RetireEdge { edge: 1 }])
            .expect_err("double retire");
        assert_eq!(err, GraphError::EdgeRetired { edge: 1 });
    }

    #[test]
    fn batch_is_atomic_and_self_consistent() {
        let mut g = MutableGraph::from_graph(base());
        // An edge may target a node added earlier in the same batch.
        let commit = g
            .apply(&[
                GraphMutation::AddNode { ntype: 2 },
                GraphMutation::AddEdge {
                    u: 4,
                    v: 0,
                    etype: 0,
                },
            ])
            .expect("batch");
        assert_eq!(g.num_nodes(), 5);
        assert!(g.snapshot().has_edge(4, 0));
        assert_eq!(commit.touched, vec![0, 4]);
        // A failing op anywhere in the batch rolls the whole batch back.
        let before_digest = g.digest();
        let err = g
            .apply(&[
                GraphMutation::AddEdge {
                    u: 0,
                    v: 1,
                    etype: 0,
                },
                GraphMutation::RetireEdge { edge: 99 },
            ])
            .expect_err("bad batch");
        assert_eq!(
            err,
            GraphError::EdgeOutOfRange {
                edge: 99,
                num_edges: 6
            }
        );
        assert_eq!(g.digest(), before_digest, "rejected batch changed nothing");
        assert_eq!(g.generation(), 1);
    }

    #[test]
    fn digest_detects_any_content_difference() {
        let g1 = MutableGraph::from_graph(base());
        let mut g2 = MutableGraph::from_graph(base());
        assert_eq!(g1.digest(), g2.digest());
        g2.apply(&[GraphMutation::SetNodeType { node: 0, ntype: 7 }])
            .expect("retag");
        assert_ne!(g1.digest(), g2.digest());
    }

    #[test]
    fn encode_decode_round_trips() {
        let batch = vec![
            GraphMutation::AddNode { ntype: 3 },
            GraphMutation::AddEdge {
                u: 10,
                v: 20,
                etype: 5,
            },
            GraphMutation::RetireEdge { edge: 7 },
            GraphMutation::SetNodeType { node: 2, ntype: 1 },
        ];
        let bytes = encode_batch(&batch);
        assert_eq!(decode_batch(&bytes).expect("decode"), batch);
        assert_eq!(decode_batch(&encode_batch(&[])).expect("decode"), vec![]);
    }

    #[test]
    fn malformed_records_decode_to_typed_errors() {
        // Unknown tag.
        let mut bytes = encode_batch(&[GraphMutation::AddNode { ntype: 0 }]);
        bytes[4] = 0xEE;
        assert_eq!(
            decode_batch(&bytes),
            Err(GraphError::MalformedMutation { tag: 0xEE })
        );
        // Truncated mid-operation.
        let full = encode_batch(&[GraphMutation::AddEdge {
            u: 1,
            v: 2,
            etype: 0,
        }]);
        let err = decode_batch(&full[..full.len() - 3]).expect_err("truncated");
        assert!(matches!(err, GraphError::TruncatedMutation { .. }));
        assert!(err.to_string().contains("truncated"), "{err}");
        // Trailing garbage.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(
            decode_batch(&padded),
            Err(GraphError::TruncatedMutation { .. })
        ));
        // Absurd count field.
        let mut huge = encode_batch(&[]);
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch(&huge),
            Err(GraphError::TruncatedMutation { .. })
        ));
    }

    #[test]
    fn wal_replay_rebuilds_bit_identical_graph() {
        let path = scratch("replay");
        let mut live = MutableGraph::from_graph(base());
        let mut wal = MutationWal::create(&path).expect("wal");
        let batches = vec![
            vec![GraphMutation::AddEdge {
                u: 0,
                v: 2,
                etype: 1,
            }],
            vec![
                GraphMutation::AddNode { ntype: 1 },
                GraphMutation::AddEdge {
                    u: 4,
                    v: 1,
                    etype: 0,
                },
            ],
            vec![GraphMutation::RetireEdge { edge: 0 }],
            vec![GraphMutation::SetNodeType { node: 3, ntype: 4 }],
        ];
        for b in &batches {
            wal.log(b, None).expect("log");
            live.apply(b).expect("apply");
        }
        // Crash: reopen from disk, replay over the same base.
        let (_wal2, rec) = MutationWal::open(&path).expect("open");
        assert_eq!(rec.batches, batches);
        let rebuilt = MutableGraph::replay(base(), &rec.batches).expect("replay");
        assert_eq!(rebuilt.generation(), live.generation());
        assert_eq!(rebuilt.digest(), live.digest());
    }

    #[test]
    fn wal_torn_tail_loses_only_the_unacked_batch() {
        let path = scratch("torn");
        let mut live = MutableGraph::from_graph(base());
        let mut wal = MutationWal::create(&path).expect("wal");
        let good = vec![GraphMutation::AddEdge {
            u: 0,
            v: 3,
            etype: 0,
        }];
        wal.log(&good, None).expect("log");
        live.apply(&good).expect("apply");
        let durable_digest = live.digest();
        // This batch is torn mid-write by the crash: it was never acked,
        // so losing it is correct — the WAL contract is exactly "acked
        // batches survive".
        wal.log(
            &[GraphMutation::RetireEdge { edge: 0 }],
            Some(DiskFault::TornWrite),
        )
        .expect("write reported ok");
        let (_wal2, rec) = MutationWal::open(&path).expect("open repairs");
        assert_eq!(rec.batches.len(), 1);
        assert!(rec.dropped_bytes > 0);
        let rebuilt = MutableGraph::replay(base(), &rec.batches).expect("replay");
        assert_eq!(rebuilt.digest(), durable_digest);
    }

    #[test]
    fn affected_region_is_local_and_two_sided() {
        // Path 0-1-2-3-4-5: mutate at one end, the far end is untouched.
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 0);
        }
        let mut g = MutableGraph::from_graph(b.build());
        let commit = g
            .apply(&[GraphMutation::AddEdge {
                u: 0,
                v: 1,
                etype: 1,
            }])
            .expect("apply");
        let region = commit.region(1);
        // 1-balls around 0 and 1: {0,1} ∪ {0,1,2}.
        assert_eq!(region.nodes(), &[0, 1, 2]);
        assert!(region.affects(2, 5), "endpoint inside the ball");
        assert!(!region.affects(3, 5), "far pair untouched");
        assert!(!region.affects(4, 5));
        // Radius grows the ball.
        let region2 = commit.region(2);
        assert_eq!(region2.nodes(), &[0, 1, 2, 3]);
    }

    #[test]
    fn retirement_region_covers_the_old_neighborhood() {
        // Star: hub 0 with leaves 1..=4, plus a 1-2 chord whose
        // retirement must invalidate through the *old* adjacency.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..=4u32 {
            b.add_edge(0, leaf, 0);
        }
        b.add_edge(1, 2, 1); // edge id 4
        let mut g = MutableGraph::from_graph(b.build());
        let commit = g
            .apply(&[GraphMutation::RetireEdge { edge: 4 }])
            .expect("retire");
        let region = commit.region(1);
        // Balls around 1 and 2 on the old snapshot include each other and
        // the hub; leaves 3 and 4 are only reachable at radius 2.
        assert_eq!(region.nodes(), &[0, 1, 2]);
        assert!(region.affects(1, 3));
        assert!(!region.affects(3, 4));
    }

    #[test]
    fn add_node_affects_nothing_cached() {
        let mut g = MutableGraph::from_graph(base());
        let commit = g
            .apply(&[GraphMutation::AddNode { ntype: 9 }])
            .expect("apply");
        assert!(commit.region(3).is_empty());
    }

    #[test]
    fn replay_of_impossible_record_is_an_error_not_a_panic() {
        // A CRC-valid batch that retires a nonexistent edge: replay must
        // surface the typed error.
        let err = MutableGraph::replay(base(), &[vec![GraphMutation::RetireEdge { edge: 77 }]])
            .expect_err("impossible record");
        assert_eq!(
            err,
            GraphError::EdgeOutOfRange {
                edge: 77,
                num_edges: 4
            }
        );
    }
}
