//! Breadth-first traversals: single-source shortest hop distances, bounded
//! variants, and the double-source distances that feed DRNL labeling.

use crate::graph::KnowledgeGraph;
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `source` to every node (`UNREACHABLE` when no path).
pub fn bfs_distances(g: &KnowledgeGraph, source: u32) -> Vec<u32> {
    bfs_distances_bounded(g, source, u32::MAX)
}

/// Hop distances from `source`, exploring at most `max_depth` hops.
/// Nodes beyond the bound report `UNREACHABLE`.
pub fn bfs_distances_bounded(g: &KnowledgeGraph, source: u32, max_depth: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du >= max_depth {
            continue;
        }
        for v in g.neighbor_ids(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected-component id per node, numbered in order of first discovery.
pub fn connected_components(g: &KnowledgeGraph) -> Vec<u32> {
    let mut comp = vec![u32::MAX; g.num_nodes()];
    let mut next = 0u32;
    for start in 0..g.num_nodes() as u32 {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbor_ids(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Path graph 0-1-2-3 plus isolated node 4.
    fn path_plus_isolate() -> KnowledgeGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 3, 0);
        b.build()
    }

    #[test]
    fn distances_on_path() {
        let g = path_plus_isolate();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[..4], [0, 1, 2, 3]);
        assert_eq!(d[4], UNREACHABLE);
    }

    #[test]
    fn bounded_search_stops() {
        let g = path_plus_isolate();
        let d = bfs_distances_bounded(&g, 0, 2);
        assert_eq!(d[..4], [0, 1, 2, UNREACHABLE]);
    }

    #[test]
    fn components() {
        let g = path_plus_isolate();
        let c = connected_components(&g);
        assert_eq!(c[0], c[3]);
        assert_ne!(c[0], c[4]);
    }

    #[test]
    fn bfs_on_empty_graph() {
        let g = KnowledgeGraph::from_edges(1, &[]);
        assert_eq!(bfs_distances(&g, 0), vec![0]);
        assert_eq!(connected_components(&g), vec![0]);
    }
}
