//! Prepared training/evaluation samples: everything a model forward pass
//! needs for one target link, precomputed once (subgraph, features, and the
//! unified [`MessageGraph`] message-passing operand).

use crate::features::{build_node_features, FeatureConfig};
use amdgcnn_data::{Dataset, LabeledLink};
use amdgcnn_graph::khop::{extract_neighborhood, label_with_drnl};
use amdgcnn_graph::LocalEdge;
use amdgcnn_nn::MessageGraph;
use amdgcnn_obs::{Obs, Timer};
use amdgcnn_tensor::Matrix;
use rayon::prelude::*;

/// One fully prepared sample.
#[derive(Debug, Clone)]
pub struct PreparedSample {
    /// Node attribute matrix `[N, feature_dim]`.
    pub features: Matrix,
    /// Unified message-passing operand: CSR topology, relation types, and
    /// expanded edge attributes, consumed by every layer family.
    pub graph: MessageGraph,
    /// Class label.
    pub label: usize,
    /// Subgraph node count.
    pub num_nodes: usize,
    /// Subgraph edge count (target link excluded).
    pub num_edges: usize,
    /// Raw induced edges in local indices. The sample store records them
    /// and rebuilds the message graph from them.
    pub edges: Vec<LocalEdge>,
    /// DRNL label per local node (locals 0 and 1 are the targets).
    pub drnl: Vec<u32>,
}

/// Cached span timers for the three phases of sample preparation.
/// Resolve once per batch (outside the rayon fan-out) and share by
/// reference into the workers — each record is then atomics only.
#[derive(Debug)]
pub struct SampleTimers {
    total: Timer,
    khop: Timer,
    drnl: Timer,
    tensorize: Timer,
}

impl SampleTimers {
    /// Resolve the `pipeline/sample*` spans against `obs` (no-op handles
    /// when `obs` is disabled).
    pub fn new(obs: &Obs) -> Self {
        Self {
            total: obs.timer("pipeline/sample"),
            khop: obs.timer("pipeline/sample/khop"),
            drnl: obs.timer("pipeline/sample/drnl"),
            tensorize: obs.timer("pipeline/sample/tensorize"),
        }
    }
}

/// Prepare one labeled link: extract the enclosing subgraph (target link
/// hidden), label with DRNL, build features and the message-passing
/// operand.
pub fn prepare_sample(ds: &Dataset, link: &LabeledLink, fcfg: &FeatureConfig) -> PreparedSample {
    prepare_sample_obs(ds, link, fcfg, &SampleTimers::new(&Obs::disabled()))
}

/// [`prepare_sample`] with per-phase span timing (k-hop walk, DRNL
/// labeling, tensorization) recorded into the given timers.
pub fn prepare_sample_obs(
    ds: &Dataset,
    link: &LabeledLink,
    fcfg: &FeatureConfig,
    timers: &SampleTimers,
) -> PreparedSample {
    let _total = timers.total.start();
    let khop_span = timers.khop.start();
    let induced = extract_neighborhood(&ds.graph, link.u, link.v, &ds.subgraph);
    khop_span.finish();
    let drnl_span = timers.drnl.start();
    let sub = label_with_drnl(induced);
    drnl_span.finish();
    let _tensorize = timers.tensorize.start();
    let features = build_node_features(&sub, fcfg);
    let graph = message_graph_for(ds, sub.num_nodes(), &sub.edges);
    PreparedSample {
        features,
        graph,
        label: link.class,
        num_nodes: sub.num_nodes(),
        num_edges: sub.num_edges(),
        edges: sub.edges.clone(),
        drnl: sub.drnl.clone(),
    }
}

/// Build the unified message-passing operand for a subgraph's induced
/// edges, expanding per-type edge attributes from the dataset's table.
///
/// Both [`prepare_sample_obs`] and the sample store's decode path
/// ([`crate::store::SampleStore`]) go through this function, so a stored
/// sample is rebuilt by the exact code that built it — bit-identical by
/// construction ([`MessageGraph::from_typed`] is deterministic).
pub fn message_graph_for(ds: &Dataset, num_nodes: usize, edges: &[LocalEdge]) -> MessageGraph {
    let typed = typed_edges(edges);
    let per_edge = per_edge_attrs(ds, edges);
    MessageGraph::from_typed(num_nodes, &typed, per_edge.as_ref())
}

/// Rebuild the message-passing operand from a persisted, already-sorted
/// message list — the sample store's warm-decode path. The topology sort
/// that dominates [`message_graph_for`] is skipped (the store captured
/// its output), leaving only linear counting sorts and copies; the result
/// is bit-identical to the built graph because `messages` *is* its
/// message list ([`MessageGraph::from_message_list`]).
///
/// # Panics
/// Panics on messages inconsistent with `edges`/`num_nodes` — callers
/// deserializing from disk must validate first. `pairs` holds one
/// `(src, dst)` per message grouped by non-decreasing `dst`; `orig` the
/// originating edge index per message (`u32::MAX` for self-loops).
pub fn message_graph_from_messages(
    ds: &Dataset,
    num_nodes: usize,
    edges: &[LocalEdge],
    pairs: &[(u32, u32)],
    orig: &[u32],
) -> MessageGraph {
    let typed = typed_edges(edges);
    let per_edge = per_edge_attrs(ds, edges);
    MessageGraph::from_message_list(num_nodes, &typed, pairs, orig, per_edge.as_ref())
}

fn typed_edges(edges: &[LocalEdge]) -> Vec<(usize, usize, u16)> {
    edges
        .iter()
        .map(|e| (e.u as usize, e.v as usize, e.etype))
        .collect()
}

/// Expand the dataset's per-type edge-attribute table to one row per
/// induced edge (`None` when the dataset carries no attributes).
fn per_edge_attrs(ds: &Dataset, edges: &[LocalEdge]) -> Option<Matrix> {
    (ds.edge_attrs.dim() > 0).then(|| {
        let mut per_edge = Matrix::zeros(edges.len(), ds.edge_attrs.dim());
        for (i, e) in edges.iter().enumerate() {
            per_edge
                .row_mut(i)
                .copy_from_slice(ds.edge_attrs.row(e.etype));
        }
        per_edge
    })
}

/// Prepare a batch of links in parallel (order preserved).
pub fn prepare_batch(
    ds: &Dataset,
    links: &[LabeledLink],
    fcfg: &FeatureConfig,
) -> Vec<PreparedSample> {
    prepare_batch_obs(ds, links, fcfg, &Obs::disabled())
}

/// [`prepare_batch`] with per-phase span timing recorded into `obs`.
/// Timers are resolved once here, then shared read-only across the rayon
/// workers; timing never influences the prepared samples, so the output is
/// bit-identical to the untimed path.
pub fn prepare_batch_obs(
    ds: &Dataset,
    links: &[LabeledLink],
    fcfg: &FeatureConfig,
    obs: &Obs,
) -> Vec<PreparedSample> {
    let timers = SampleTimers::new(obs);
    links
        .par_iter()
        .map(|l| prepare_sample_obs(ds, l, fcfg, &timers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_data::{cora_like, wn18_like, CoraConfig, Wn18Config};

    #[test]
    fn wn18_sample_has_edge_attrs() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        assert!(s.num_nodes >= 2);
        assert_eq!(s.features.rows(), s.num_nodes);
        assert_eq!(s.features.cols(), fcfg.dim());
        let ea = s.graph.edge_attrs().expect("wn18 has edge attrs");
        assert_eq!(ea.rows(), s.graph.num_messages());
        assert_eq!(ea.cols(), 18);
        assert_eq!(s.graph.num_nodes(), s.num_nodes);
    }

    #[test]
    fn cora_sample_has_no_edge_attrs() {
        let ds = cora_like(&CoraConfig::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        assert!(s.graph.edge_attrs().is_none());
    }

    #[test]
    fn target_link_never_appears_in_messages() {
        // Locals 0 and 1 are the targets; no non-self-loop message may join
        // them directly.
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(1);
        for link in ds.train.iter().take(10) {
            let s = prepare_sample(&ds, link, &fcfg);
            let src = s.graph.csr().src_ids();
            let dst = s.graph.csr().dst_ids();
            for m in 0..s.graph.num_messages() {
                assert!(
                    !((src[m] == 0 && dst[m] == 1) || (src[m] == 1 && dst[m] == 0)),
                    "target link leaked into message structure"
                );
            }
        }
    }

    #[test]
    fn batch_preserves_order_and_labels() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(1);
        let batch = prepare_batch(&ds, &ds.train[..8], &fcfg);
        assert_eq!(batch.len(), 8);
        for (s, l) in batch.iter().zip(ds.train.iter()) {
            assert_eq!(s.label, l.class);
        }
    }

    #[test]
    fn preparation_is_deterministic() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(1);
        let a = prepare_sample(&ds, &ds.train[3], &fcfg);
        let b = prepare_sample(&ds, &ds.train[3], &fcfg);
        assert_eq!(a.features, b.features);
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.num_edges, b.num_edges);
        assert_eq!(a.graph.csr().src_ids(), b.graph.csr().src_ids());
        assert_eq!(a.graph.relations(), b.graph.relations());
    }

    #[test]
    fn message_relations_match_induced_edges() {
        // Every non-self-loop message carries the relation of the edge it
        // came from — the R-GCN path reads these directly.
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(1);
        let s = prepare_sample(&ds, &ds.train[1], &fcfg);
        for (m, orig) in s.graph.orig_edge().iter().enumerate() {
            match orig {
                Some(e) => {
                    assert_eq!(s.graph.relations()[m], Some(s.edges[*e].etype));
                }
                None => assert_eq!(s.graph.relations()[m], None),
            }
        }
    }
}
