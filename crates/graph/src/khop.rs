//! Enclosing-subgraph extraction around a target node pair (SEAL §III-A).
//!
//! For a candidate link `(a, b)` we take the k-hop neighborhoods of both
//! endpoints and keep either their union (default) or their intersection
//! (used for PrimeKG, where hub degrees make unions too large), optionally
//! capping how many new nodes each hop may add (SEAL's `max_nodes_per_hop`).
//! Every edge *directly joining* `a` and `b` is excluded from the induced
//! subgraph — the model must not see the link it is asked to classify.
//!
//! Cost: each endpoint's walk is linear in the neighbor entries it scans
//! (the adjacency lists of its frontiers), plus one shuffle of every hop
//! that overflows the cap; edge induction is linear in the members'
//! adjacency. Membership tests read a per-thread epoch-stamped mark
//! buffer, so no call hashes a node id or clears a graph-sized array.

use crate::bfs::UNREACHABLE;
use crate::drnl::drnl_labels;
use crate::graph::KnowledgeGraph;
use crate::marks::{with_marks, NodeMarks};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use std::collections::VecDeque;

/// How the two endpoint neighborhoods are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborhoodMode {
    /// `{a, b} ∪ N_k(a) ∪ N_k(b)` — the SEAL default.
    Union,
    /// `{a, b} ∪ (N_k(a) ∩ N_k(b))` — nodes on short a↔b paths only;
    /// keeps subgraphs small on hub-dominated graphs (paper §III-A).
    Intersection,
}

/// Extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SubgraphConfig {
    /// Neighborhood radius `k` (the paper uses 2).
    pub hops: u32,
    /// Union or intersection of the two neighborhoods.
    pub mode: NeighborhoodMode,
    /// Cap on nodes admitted per hop per endpoint; `None` = unlimited.
    pub max_nodes_per_hop: Option<usize>,
    /// Seed for the per-hop subsampling (ignored when no cap is hit).
    pub seed: u64,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        Self {
            hops: 2,
            mode: NeighborhoodMode::Union,
            max_nodes_per_hop: None,
            seed: 0,
        }
    }
}

/// An edge of the extracted subgraph in local indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalEdge {
    /// Local index of one endpoint.
    pub u: u32,
    /// Local index of the other endpoint.
    pub v: u32,
    /// Edge type inherited from the parent graph.
    pub etype: u16,
}

/// The induced subgraph around a target pair before structural labeling —
/// the output of [`extract_neighborhood`] and the input to
/// [`label_with_drnl`]. The split lets callers time (or parallelize) the
/// k-hop walk and the labeling pass separately.
///
/// Local index 0 is always target `a` and local index 1 target `b`.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// Original node id per local index.
    pub nodes: Vec<u32>,
    /// Node type per local index (copied from the parent graph).
    pub node_types: Vec<u16>,
    /// Induced edges (excluding the target link) in local indices.
    pub edges: Vec<LocalEdge>,
}

/// The enclosing subgraph of a target pair, fully labeled.
///
/// Local index 0 is always target `a` and local index 1 target `b`.
#[derive(Debug, Clone)]
pub struct EnclosingSubgraph {
    /// Original node id per local index.
    pub nodes: Vec<u32>,
    /// Node type per local index (copied from the parent graph).
    pub node_types: Vec<u16>,
    /// Induced edges (excluding the target link) in local indices.
    pub edges: Vec<LocalEdge>,
    /// Hop distance to target `a` within the subgraph (target link removed).
    pub dist_a: Vec<u32>,
    /// Hop distance to target `b` within the subgraph (target link removed).
    pub dist_b: Vec<u32>,
    /// DRNL label per local node.
    pub drnl: Vec<u32>,
}

impl EnclosingSubgraph {
    /// Number of nodes in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of induced edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// K-hop reachable set from `source` with an optional per-hop admission cap.
/// Returns original node ids (excluding nodes pruned by the cap), sorted.
///
/// One mark per node covers both "visited" and "already in the next
/// frontier", so a candidate is tested once whatever the frontier size.
/// The frontier keeps first-seen order, which is the sequence the capped
/// shuffle sees. Nodes the cap drops are unmarked: they may be reached
/// again at a later hop.
fn capped_khop(
    g: &KnowledgeGraph,
    source: u32,
    cfg: &SubgraphConfig,
    rng_salt: u64,
    marks: &mut NodeMarks,
) -> Vec<u32> {
    marks.begin(g.num_nodes());
    marks.mark(source);
    let mut reached = vec![source];
    let mut frontier = vec![source];
    for hop in 1..=cfg.hops {
        let mut next: Vec<u32> = Vec::new();
        for &u in &frontier {
            for v in g.neighbor_ids(u) {
                if marks.mark(v) {
                    next.push(v);
                }
            }
        }
        if let Some(cap) = cfg.max_nodes_per_hop {
            if next.len() > cap {
                // Deterministic subsample: the RNG is derived from the
                // config seed, the endpoint, and the hop index.
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ rng_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hop as u64,
                );
                next.shuffle(&mut rng);
                for &v in &next[cap..] {
                    marks.unmark(v);
                }
                next.truncate(cap);
                next.sort_unstable();
            }
        }
        if next.is_empty() {
            break;
        }
        reached.extend_from_slice(&next);
        frontier = next;
    }
    reached.sort_unstable();
    reached
}

/// Extract the enclosing subgraph of the pair `(a, b)`.
///
/// Equivalent to [`extract_neighborhood`] followed by [`label_with_drnl`];
/// callers that want per-phase timing call the two halves directly.
///
/// # Panics
/// Panics if `a == b` or either id is out of range.
pub fn extract_enclosing_subgraph(
    g: &KnowledgeGraph,
    a: u32,
    b: u32,
    cfg: &SubgraphConfig,
) -> EnclosingSubgraph {
    label_with_drnl(extract_neighborhood(g, a, b, cfg))
}

/// Phase 1 of enclosing-subgraph extraction: the capped k-hop walk from
/// both endpoints, neighborhood combination, and edge induction (with the
/// target link hidden). No structural labels yet — pass the result to
/// [`label_with_drnl`].
///
/// # Panics
/// Panics if `a == b` or either id is out of range.
pub fn extract_neighborhood(
    g: &KnowledgeGraph,
    a: u32,
    b: u32,
    cfg: &SubgraphConfig,
) -> InducedSubgraph {
    assert_ne!(a, b, "target endpoints must differ");
    assert!((a as usize) < g.num_nodes() && (b as usize) < g.num_nodes());
    with_marks(|marks| neighborhood_with(g, a, b, cfg, marks))
}

/// [`extract_neighborhood`] on an explicit mark buffer.
fn neighborhood_with(
    g: &KnowledgeGraph,
    a: u32,
    b: u32,
    cfg: &SubgraphConfig,
    marks: &mut NodeMarks,
) -> InducedSubgraph {
    let from_a = capped_khop(g, a, cfg, a as u64, marks);
    let from_b = capped_khop(g, b, cfg, b as u64, marks);

    let mut nodes: Vec<u32> = vec![a, b];
    let mut members: Vec<u32> = match cfg.mode {
        NeighborhoodMode::Union => {
            let mut m = from_a;
            m.extend_from_slice(&from_b);
            m.sort_unstable();
            m.dedup();
            m
        }
        NeighborhoodMode::Intersection => {
            // Both inputs are sorted: linear merge intersection.
            let mut m = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < from_a.len() && j < from_b.len() {
                match from_a[i].cmp(&from_b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        m.push(from_a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            m
        }
    };
    members.retain(|&n| n != a && n != b);
    nodes.extend(members);

    // Each member's mark carries its local index.
    marks.begin(g.num_nodes());
    for (i, &n) in nodes.iter().enumerate() {
        marks.set(n, i as u32);
    }

    // Induced edges, each original edge taken once (from its `u` side),
    // excluding every direct a-b edge.
    let mut edges = Vec::new();
    for &orig in &nodes {
        for &(_, eid) in g.neighbors(orig) {
            let e = g.edge(eid);
            if e.u != orig {
                continue; // visit each edge exactly once
            }
            if (e.u == a && e.v == b) || (e.u == b && e.v == a) {
                continue; // hide the target link
            }
            if let (Some(lu), Some(lv)) = (marks.get(e.u), marks.get(e.v)) {
                edges.push(LocalEdge {
                    u: lu,
                    v: lv,
                    etype: e.etype,
                });
            }
        }
    }

    let node_types = nodes.iter().map(|&n| g.node_type(n)).collect();
    InducedSubgraph {
        nodes,
        node_types,
        edges,
    }
}

/// Phase 2 of enclosing-subgraph extraction: BFS distances to both targets
/// within the induced subgraph (target link already hidden) and DRNL
/// labeling.
pub fn label_with_drnl(sub: InducedSubgraph) -> EnclosingSubgraph {
    let InducedSubgraph {
        nodes,
        node_types,
        edges,
    } = sub;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    for e in &edges {
        adj[e.u as usize].push(e.v);
        if e.u != e.v {
            adj[e.v as usize].push(e.u);
        }
    }
    let dist_a = local_bfs(&adj, 0);
    let dist_b = local_bfs(&adj, 1);
    let drnl = drnl_labels(&dist_a, &dist_b);

    EnclosingSubgraph {
        nodes,
        node_types,
        edges,
        dist_a,
        dist_b,
        drnl,
    }
}

fn local_bfs(adj: &[Vec<u32>], source: usize) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; adj.len()];
    dist[source] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source as u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in &adj[u as usize] {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0-1-2-3-4 path with an extra 1-3 chord and types.
    fn chord_path() -> KnowledgeGraph {
        let mut b = GraphBuilder::with_node_types(vec![0, 1, 0, 1, 0]);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 2);
        b.add_edge(3, 4, 0);
        b.add_edge(1, 3, 3);
        b.build()
    }

    #[test]
    fn targets_come_first() {
        let g = chord_path();
        let s = extract_enclosing_subgraph(&g, 1, 3, &SubgraphConfig::default());
        assert_eq!(s.nodes[0], 1);
        assert_eq!(s.nodes[1], 3);
        assert_eq!(s.node_types[0], g.node_type(1));
        assert_eq!(s.drnl[0], 1);
        assert_eq!(s.drnl[1], 1);
    }

    #[test]
    fn target_edge_is_hidden() {
        let g = chord_path();
        let s = extract_enclosing_subgraph(&g, 1, 3, &SubgraphConfig::default());
        // No local edge may join locals 0 and 1 directly.
        for e in &s.edges {
            assert!(
                !((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0)),
                "target link leaked into the subgraph"
            );
        }
        // But 1 and 3 stay connected through 2: distance 2.
        assert_eq!(s.dist_a[1], 2);
    }

    #[test]
    fn union_covers_k_hops_of_both() {
        let g = chord_path();
        let cfg = SubgraphConfig {
            hops: 1,
            ..Default::default()
        };
        let s = extract_enclosing_subgraph(&g, 0, 4, &cfg);
        // 1-hop of 0 = {0,1}; of 4 = {3,4}; union = {0,1,3,4}.
        let mut nodes = s.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 3, 4]);
        // Edge 1-3 is induced, edges through missing node 2 are not.
        assert_eq!(s.num_edges(), 3); // (0,1), (3,4), (1,3)
    }

    #[test]
    fn intersection_keeps_only_shared_nodes() {
        let g = chord_path();
        let cfg = SubgraphConfig {
            hops: 1,
            mode: NeighborhoodMode::Intersection,
            ..Default::default()
        };
        // 1-hop of 1 = {0,1,2,3}; 1-hop of 3 = {1,2,3,4}; intersection =
        // {1,2,3}.
        let s = extract_enclosing_subgraph(&g, 1, 3, &cfg);
        let mut nodes = s.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn intersection_always_contains_targets() {
        // Disconnected targets: intersection of neighborhoods is empty but
        // the targets themselves must stay.
        let g = KnowledgeGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let cfg = SubgraphConfig {
            mode: NeighborhoodMode::Intersection,
            ..Default::default()
        };
        let s = extract_enclosing_subgraph(&g, 0, 2, &cfg);
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.drnl, vec![1, 1]);
        assert_eq!(s.dist_a[1], UNREACHABLE);
    }

    #[test]
    fn per_hop_cap_limits_growth() {
        // Star: center 0 with 20 leaves, plus node 21 connected to leaf 1.
        let mut b = GraphBuilder::new(22);
        for leaf in 1..=20 {
            b.add_edge(0, leaf, 0);
        }
        b.add_edge(1, 21, 0);
        let g = b.build();
        let cfg = SubgraphConfig {
            hops: 1,
            max_nodes_per_hop: Some(5),
            ..Default::default()
        };
        let s = extract_enclosing_subgraph(&g, 0, 21, &cfg);
        // At most 2 targets + 5 (hop of 0) + 1 (hop of 21, leaf 1 only).
        assert!(s.num_nodes() <= 8, "cap violated: {} nodes", s.num_nodes());
    }

    #[test]
    fn cap_sampling_is_deterministic() {
        let mut b = GraphBuilder::new(30);
        for leaf in 1..=28 {
            b.add_edge(0, leaf, 0);
        }
        b.add_edge(28, 29, 0);
        let g = b.build();
        let cfg = SubgraphConfig {
            hops: 2,
            max_nodes_per_hop: Some(6),
            seed: 7,
            ..Default::default()
        };
        let s1 = extract_enclosing_subgraph(&g, 0, 29, &cfg);
        let s2 = extract_enclosing_subgraph(&g, 0, 29, &cfg);
        assert_eq!(s1.nodes, s2.nodes);
        assert_eq!(s1.edges, s2.edges);
        let cfg2 = SubgraphConfig { seed: 8, ..cfg };
        let s3 = extract_enclosing_subgraph(&g, 0, 29, &cfg2);
        // Different seed usually samples different leaves (not guaranteed,
        // but with C(28,6) choices a collision would be astonishing).
        assert_ne!(s1.nodes, s3.nodes);
    }

    #[test]
    fn drnl_matches_manual_distances() {
        let g = chord_path();
        let s = extract_enclosing_subgraph(&g, 0, 4, &SubgraphConfig::default());
        // Subgraph is the whole path+chord; target edge (0,4) doesn't exist.
        for (i, &orig) in s.nodes.iter().enumerate() {
            let expect_a = crate::bfs::bfs_distances(&g, 0)[orig as usize];
            let expect_b = crate::bfs::bfs_distances(&g, 4)[orig as usize];
            assert_eq!(s.dist_a[i], expect_a, "node {orig} dist to a");
            assert_eq!(s.dist_b[i], expect_b, "node {orig} dist to b");
        }
    }

    #[test]
    fn two_phase_extraction_matches_combined() {
        let g = chord_path();
        let cfg = SubgraphConfig::default();
        let combined = extract_enclosing_subgraph(&g, 1, 3, &cfg);
        let phased = label_with_drnl(extract_neighborhood(&g, 1, 3, &cfg));
        assert_eq!(combined.nodes, phased.nodes);
        assert_eq!(combined.node_types, phased.node_types);
        assert_eq!(combined.edges, phased.edges);
        assert_eq!(combined.dist_a, phased.dist_a);
        assert_eq!(combined.dist_b, phased.dist_b);
        assert_eq!(combined.drnl, phased.drnl);
    }

    #[test]
    fn epoch_wrap_leaves_extraction_unchanged() {
        // A random multigraph dense enough that the caps bite.
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = GraphBuilder::new(60);
        for _ in 0..400 {
            let u = rng.random_range(0..60u32);
            let v = rng.random_range(0..60u32);
            b.add_edge(u, v, (u % 3) as u16);
        }
        let g = b.build();
        // Three passes per extraction: the wrap falls inside the second.
        let mut wrapping = NodeMarks::starting_at(u32::MAX - 4);
        for (mode, cap) in [
            (NeighborhoodMode::Union, Some(6)),
            (NeighborhoodMode::Intersection, Some(4)),
            (NeighborhoodMode::Union, None),
        ] {
            let cfg = SubgraphConfig {
                hops: 2,
                mode,
                max_nodes_per_hop: cap,
                seed: 5,
            };
            for (a, b) in [(0, 1), (2, 40), (7, 59), (13, 21)] {
                let want = neighborhood_with(&g, a, b, &cfg, &mut NodeMarks::default());
                let got = neighborhood_with(&g, a, b, &cfg, &mut wrapping);
                assert_eq!(got.nodes, want.nodes, "pair ({a}, {b}) {mode:?}");
                assert_eq!(got.edges, want.edges, "pair ({a}, {b}) {mode:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn same_endpoints_rejected() {
        let g = chord_path();
        let _ = extract_enclosing_subgraph(&g, 2, 2, &SubgraphConfig::default());
    }

    #[test]
    fn parallel_relations_between_targets_all_hidden() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 1); // second relation between the same pair
        b.add_edge(1, 2, 0);
        b.add_edge(0, 2, 0);
        let g = b.build();
        let s = extract_enclosing_subgraph(&g, 0, 1, &SubgraphConfig::default());
        for e in &s.edges {
            assert!(!((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0)));
        }
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.dist_a[1], 2, "connectivity must survive via node 2");
    }
}
