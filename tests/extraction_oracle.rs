//! Enclosing-subgraph extraction against a reference copy of the
//! hash-map walk it replaced.
//!
//! `oracle_neighborhood` below is the earlier `capped_khop` /
//! `extract_neighborhood`: `visited` and the local index in `HashMap`s,
//! the next frontier deduplicated by a linear `contains`. The library
//! now marks nodes in a reused per-thread buffer; every subgraph (nodes,
//! node types, edges, in order) must stay bit-identical to the oracle's,
//! on each generator's own extraction settings and on a thread whose
//! buffer meets graphs that shrink and grow under it. The epoch wrap
//! needs a buffer built near `u32::MAX`, which only the graph crate's
//! own unit tests can construct (`khop.rs`, `marks.rs`).

use amdgcnn_data::{
    biokg_like, cora_like, primekg_like, wn18_like, BioKgConfig, CoraConfig, Dataset,
    PrimeKgConfig, Wn18Config,
};
use amdgcnn_graph::{
    extract_neighborhood, GraphBuilder, GraphMutation, InducedSubgraph, KnowledgeGraph, LocalEdge,
    MutableGraph, NeighborhoodMode, SubgraphConfig,
};
use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
use std::collections::HashMap;

/// The earlier capped k-hop walk. Also reports whether the cap dropped
/// any node, so a test can show that it reached the shuffle.
fn oracle_khop(
    g: &KnowledgeGraph,
    source: u32,
    cfg: &SubgraphConfig,
    rng_salt: u64,
) -> (Vec<u32>, bool) {
    let mut capped = false;
    let mut visited: HashMap<u32, u32> = HashMap::new();
    visited.insert(source, 0);
    let mut frontier = vec![source];
    for hop in 1..=cfg.hops {
        let mut next: Vec<u32> = Vec::new();
        for &u in &frontier {
            for v in g.neighbor_ids(u) {
                if !visited.contains_key(&v) && !next.contains(&v) {
                    next.push(v);
                }
            }
        }
        if let Some(cap) = cfg.max_nodes_per_hop {
            if next.len() > cap {
                capped = true;
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ rng_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hop as u64,
                );
                next.shuffle(&mut rng);
                next.truncate(cap);
                next.sort_unstable();
            }
        }
        for &v in &next {
            visited.insert(v, hop);
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    let mut out: Vec<u32> = visited.into_keys().collect();
    out.sort_unstable();
    (out, capped)
}

/// The earlier `extract_neighborhood`, plus the cap flag.
fn oracle_neighborhood(
    g: &KnowledgeGraph,
    a: u32,
    b: u32,
    cfg: &SubgraphConfig,
) -> (InducedSubgraph, bool) {
    let (from_a, capped_a) = oracle_khop(g, a, cfg, a as u64);
    let (from_b, capped_b) = oracle_khop(g, b, cfg, b as u64);
    let mut members: Vec<u32> = match cfg.mode {
        NeighborhoodMode::Union => {
            let mut m = from_a;
            m.extend_from_slice(&from_b);
            m.sort_unstable();
            m.dedup();
            m
        }
        NeighborhoodMode::Intersection => {
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
    let mut nodes = vec![a, b];
    nodes.extend(members);
    let local_of: HashMap<u32, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u32))
        .collect();
    let mut edges = Vec::new();
    for &orig in &nodes {
        for &(_, eid) in g.neighbors(orig) {
            let e = g.edge(eid);
            if e.u != orig || (e.u == a && e.v == b) || (e.u == b && e.v == a) {
                continue;
            }
            if let (Some(&u), Some(&v)) = (local_of.get(&e.u), local_of.get(&e.v)) {
                edges.push(LocalEdge {
                    u,
                    v,
                    etype: e.etype,
                });
            }
        }
    }
    let node_types = nodes.iter().map(|&n| g.node_type(n)).collect();
    let sub = InducedSubgraph {
        nodes,
        node_types,
        edges,
    };
    (sub, capped_a || capped_b)
}

/// Extract `(a, b)` both ways and require identical subgraphs. Returns
/// whether the cap dropped a node.
fn check_pair(g: &KnowledgeGraph, a: u32, b: u32, cfg: &SubgraphConfig, what: &str) -> bool {
    let (want, capped) = oracle_neighborhood(g, a, b, cfg);
    let got = extract_neighborhood(g, a, b, cfg);
    assert_eq!(got.nodes, want.nodes, "{what}: nodes of ({a}, {b})");
    assert_eq!(
        got.node_types, want.node_types,
        "{what}: types of ({a}, {b})"
    );
    assert_eq!(got.edges, want.edges, "{what}: edges of ({a}, {b})");
    capped
}

/// Every labeled link of the dataset plus `extra` seeded random pairs,
/// each on the generator's own extraction settings. The cap must bite on
/// some of them, or the shuffle path went untested.
fn check_dataset(ds: &Dataset, extra: usize) {
    let g = &ds.graph;
    let n = g.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(0xE7_0AC1E);
    let mut pairs: Vec<(u32, u32)> = ds
        .train
        .iter()
        .chain(&ds.test)
        .map(|l| (l.u, l.v))
        .collect();
    while pairs.len() < ds.train.len() + ds.test.len() + extra {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        if a != b {
            pairs.push((a, b));
        }
    }
    let mut capped = 0;
    for &(a, b) in &pairs {
        capped += usize::from(check_pair(g, a, b, &ds.subgraph, ds.name));
    }
    assert!(
        capped > 0,
        "{}: no pair reached the per-hop cap of {:?}",
        ds.name,
        ds.subgraph.max_nodes_per_hop
    );
}

#[test]
fn wn18_subgraphs_match_the_oracle() {
    check_dataset(&wn18_like(&Wn18Config::tiny()), 120);
}

#[test]
fn primekg_subgraphs_match_the_oracle() {
    let ds = primekg_like(&PrimeKgConfig::tiny());
    assert_eq!(ds.subgraph.mode, NeighborhoodMode::Intersection);
    assert_eq!(ds.subgraph.max_nodes_per_hop, Some(100));
    check_dataset(&ds, 60);
}

#[test]
fn biokg_subgraphs_match_the_oracle() {
    check_dataset(&biokg_like(&BioKgConfig::tiny()), 120);
}

#[test]
fn cora_subgraphs_match_the_oracle() {
    check_dataset(&cora_like(&CoraConfig::tiny()), 120);
}

/// A seeded random multigraph with `n` nodes and `4n` typed edges.
fn random_graph(n: u32, seed: u64) -> KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_node_types((0..n).map(|i| (i % 4) as u16).collect());
    for _ in 0..4 * n {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        b.add_edge(u, v, rng.random_range(0..3u16));
    }
    b.build()
}

/// One thread's mark buffer meets a small graph, a large one, the small
/// one again, and then the large one grown past the buffer's length by
/// `AddNode`, with the new nodes as targets.
#[test]
fn one_thread_follows_graphs_that_shrink_and_grow() {
    std::thread::spawn(|| {
        let cfgs = [
            SubgraphConfig {
                hops: 2,
                mode: NeighborhoodMode::Union,
                max_nodes_per_hop: Some(12),
                seed: 3,
            },
            SubgraphConfig {
                hops: 2,
                mode: NeighborhoodMode::Intersection,
                max_nodes_per_hop: None,
                seed: 3,
            },
        ];
        let small = random_graph(30, 1);
        let large = random_graph(3000, 2);
        let mut grown = MutableGraph::from_graph(large.clone());
        grown
            .apply(&[
                GraphMutation::AddNode { ntype: 1 },
                GraphMutation::AddNode { ntype: 2 },
                GraphMutation::AddEdge {
                    u: 3000,
                    v: 17,
                    etype: 0,
                },
                GraphMutation::AddEdge {
                    u: 3001,
                    v: 3000,
                    etype: 1,
                },
                GraphMutation::AddEdge {
                    u: 3001,
                    v: 2999,
                    etype: 2,
                },
            ])
            .expect("valid batch");
        let grown = grown.snapshot();
        assert_eq!(grown.num_nodes(), 3002);

        let pairs = |n: u32| [(0, 1), (2, n - 1), (n / 2, 5), (n - 2, n / 3)];
        for cfg in &cfgs {
            for (what, g) in [
                ("small", &small),
                ("large", &large),
                ("small again", &small),
            ] {
                for (a, b) in pairs(g.num_nodes() as u32) {
                    check_pair(g, a, b, cfg, what);
                }
            }
            for (a, b) in [(3000, 17), (3001, 2999), (3000, 3001), (3001, 4)] {
                check_pair(&grown, a, b, cfg, "grown");
            }
        }
    })
    .join()
    .expect("extraction thread");
}
