//! Property-based tests of the live-mutation substrate: random mutation
//! schedules over random base graphs, checked for the three contracts
//! the serving tier builds on — replay determinism (the WAL rebuilds the
//! live graph bit-identically), snapshot isolation (published
//! generations never change underneath a reader), and region soundness
//! (every endpoint a batch touches lands inside its invalidation
//! region, which equals a plain hash-set BFS over both snapshots).

use amdgcnn_graph::mutable::replay_log;
use amdgcnn_graph::{
    graph_digest, Commit, GraphBuilder, GraphMutation, KnowledgeGraph, MutableGraph, MutationWal,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

/// Strategy: a random multigraph with up to `max_n` nodes and typed
/// edges.
fn random_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = KnowledgeGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0..5u16), 1..max_edges).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(n);
                for (u, v, t) in edges {
                    b.add_edge(u, v, t);
                }
                b.build()
            },
        )
    })
}

/// Raw op choices; interpreted against the evolving graph so every
/// generated batch is valid (unknown nodes and double retires are
/// impossible by construction).
type RawOp = (u8, u32, u32, u16);

fn raw_batches() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0u8..4, 0u32..1_000_000, 0u32..1_000_000, 0u16..5),
            1..5usize,
        ),
        1..8usize,
    )
}

/// Client-side mirror of the graph's slot accounting, so raw choices map
/// to *valid* batches: retires always name a currently live stable id
/// (possibly one added earlier in the same batch — `apply` is
/// sequential), never a tombstone.
struct Mirror {
    num_nodes: u32,
    live: Vec<u32>,
    next_slot: u32,
}

impl Mirror {
    fn new(g: &KnowledgeGraph) -> Self {
        Self {
            num_nodes: g.num_nodes() as u32,
            live: (0..g.num_edges() as u32).collect(),
            next_slot: g.num_edges() as u32,
        }
    }

    fn batch(&mut self, raw: &[RawOp]) -> Vec<GraphMutation> {
        let mut out = Vec::with_capacity(raw.len());
        for &(kind, a, b, t) in raw {
            let m = match kind {
                0 => {
                    self.live.push(self.next_slot);
                    self.next_slot += 1;
                    GraphMutation::AddEdge {
                        u: a % self.num_nodes,
                        v: b % self.num_nodes,
                        etype: t,
                    }
                }
                1 if !self.live.is_empty() => {
                    let e = self.live.swap_remove(a as usize % self.live.len());
                    GraphMutation::RetireEdge { edge: e }
                }
                2 => {
                    self.num_nodes += 1;
                    GraphMutation::AddNode { ntype: t }
                }
                _ => GraphMutation::SetNodeType {
                    node: a % self.num_nodes,
                    ntype: t,
                },
            };
            out.push(m);
        }
        out
    }
}

/// Reference region: the union of `hops`-balls around every touched
/// node on both snapshots, each ball a BFS with its own `HashSet`.
fn oracle_region(commit: &Commit, hops: usize) -> Vec<u32> {
    let mut out = HashSet::new();
    for &p in &commit.touched {
        for g in [&commit.before, &commit.after] {
            if p as usize >= g.num_nodes() {
                continue;
            }
            let mut seen = HashSet::from([p]);
            let mut frontier = vec![p];
            for _ in 0..hops {
                let mut next = Vec::new();
                for &n in &frontier {
                    for v in g.neighbor_ids(n) {
                        if seen.insert(v) {
                            next.push(v);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                frontier = next;
            }
            out.extend(seen);
        }
    }
    let mut nodes: Vec<u32> = out.into_iter().collect();
    nodes.sort_unstable();
    nodes
}

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amdgcnn-mutprops-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{tag}-{case}.wal"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay determinism + snapshot isolation: any valid schedule of
    /// mutation batches replays over the base graph to the live digest,
    /// bumps the generation once per batch, and never perturbs an
    /// already-published snapshot.
    #[test]
    fn random_schedules_replay_bit_identically(
        base in random_graph(24, 60),
        raw in raw_batches(),
    ) {
        let base_digest = graph_digest(&base);
        let mut live = MutableGraph::from_graph(base.clone());
        let gen0 = live.snapshot();
        let mut mirror = Mirror::new(&base);
        let mut batches: Vec<Vec<GraphMutation>> = Vec::new();
        let mut snapshots = vec![(0u64, live.digest(), gen0.clone())];
        for r in &raw {
            let batch = mirror.batch(r);
            let commit = live.apply(&batch).expect("interpreted batch is valid");
            prop_assert_eq!(commit.generation, batches.len() as u64 + 1);
            // Region soundness: every endpoint the batch touched is in
            // the invalidation region at any radius.
            let region = commit.region(1);
            for m in &batch {
                match *m {
                    GraphMutation::AddEdge { u, v, .. } => {
                        prop_assert!(region.affects(u, v));
                    }
                    GraphMutation::SetNodeType { node, .. } => {
                        prop_assert!(region.contains(node));
                    }
                    GraphMutation::RetireEdge { .. } | GraphMutation::AddNode { .. } => {}
                }
            }
            batches.push(batch);
            snapshots.push((commit.generation, live.digest(), live.snapshot()));
        }
        prop_assert_eq!(live.generation(), batches.len() as u64);
        // Replay over the base reconstructs the live graph exactly.
        let rebuilt = MutableGraph::replay(base.clone(), &batches).expect("replay");
        prop_assert_eq!(rebuilt.digest(), live.digest());
        prop_assert_eq!(rebuilt.generation(), live.generation());
        // Published snapshots are frozen: each still digests as it did
        // the moment it was published, and generation 0 is the base.
        prop_assert_eq!(graph_digest(&gen0), base_digest);
        for (generation, digest, snap) in &snapshots {
            prop_assert_eq!(
                graph_digest(snap), *digest,
                "generation {} snapshot mutated under a reader", generation
            );
        }
    }

    /// Region equivalence: at every radius, each commit's region is the
    /// sorted node set the hash-set BFS finds, on batches that add nodes
    /// (so the after snapshot outgrows the before one) as well as edges.
    #[test]
    fn regions_match_the_hash_set_oracle(
        base in random_graph(40, 120),
        raw in raw_batches(),
    ) {
        let mut live = MutableGraph::from_graph(base.clone());
        let mut mirror = Mirror::new(&base);
        for r in &raw {
            let commit = live.apply(&mirror.batch(r)).expect("interpreted batch is valid");
            for hops in 0..4 {
                prop_assert_eq!(
                    commit.region(hops).nodes(),
                    oracle_region(&commit, hops).as_slice(),
                    "generation {} radius {}", commit.generation, hops
                );
            }
        }
    }

    /// WAL round-trip + torn-tail recovery: logged batches decode back
    /// verbatim, and a partial trailing frame (the post-crash state) is
    /// dropped by truncation without touching the committed prefix.
    #[test]
    fn wal_survives_torn_tails(
        base in random_graph(24, 60),
        raw in raw_batches(),
        garbage in proptest::collection::vec(0u8..255, 1..7usize),
        case in 0u64..1_000_000_000,
    ) {
        let path = scratch("torn", case);
        let mut wal = MutationWal::create(&path).expect("create");
        let mut live = MutableGraph::from_graph(base.clone());
        let mut mirror = Mirror::new(&base);
        let mut batches: Vec<Vec<GraphMutation>> = Vec::new();
        for r in &raw {
            let batch = mirror.batch(r);
            live.apply(&batch).expect("valid");
            wal.log(&batch, None).expect("append");
            batches.push(batch);
        }
        drop(wal);
        // Clean log: everything decodes back verbatim.
        let rec = replay_log(&path).expect("replay");
        prop_assert_eq!(rec.dropped_bytes, 0);
        prop_assert_eq!(&rec.batches, &batches);
        // Torn tail: a partial frame after the last commit (shorter than
        // any complete record) is truncated away on open.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(&garbage).expect("tear");
        drop(f);
        let (reopened, rec) = MutationWal::open(&path).expect("recover");
        prop_assert_eq!(rec.dropped_bytes, garbage.len() as u64);
        prop_assert_eq!(&rec.batches, &batches);
        drop(reopened);
        let rebuilt = MutableGraph::replay(base, &rec.batches).expect("replay");
        prop_assert_eq!(rebuilt.digest(), live.digest());
        let _ = std::fs::remove_file(&path);
    }
}
