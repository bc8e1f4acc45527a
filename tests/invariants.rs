//! Model invariants checked on the fast tier-1 suite.
//!
//! Relabel invariance: DRNL labels the targets and every other node by
//! distance, and SortPooling orders nodes by their learned channels, so
//! renumbering an enclosing subgraph's nodes must not change a prediction
//! (SEAL). Each test permutes every subgraph's node ids — the feature
//! rows, the edge endpoints and the message graph rebuilt from the
//! permuted edges by `message_graph_for` — and checks that the GCN and
//! AM-DGCNN probabilities move by at most `TOL`. Renumbering reorders each
//! destination's messages, so sums are taken in another order and the
//! probabilities agree to rounding, not bit for bit.

use am_dgcnn::sample::{message_graph_for, prepare_batch};
use am_dgcnn::{predict_probs, DgcnnModel, FeatureConfig, GnnKind, ModelConfig, PreparedSample};
use amdgcnn_data::{
    biokg_like, primekg_like, wn18_like, BioKgConfig, Dataset, PrimeKgConfig, Wn18Config,
};
use amdgcnn_graph::LocalEdge;
use amdgcnn_tensor::{Matrix, ParamStore};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

const TOL: f32 = 1e-5;

/// The same subgraph with node `i` renamed `perm[i]`.
fn relabel(ds: &Dataset, s: &PreparedSample, perm: &[usize]) -> PreparedSample {
    let n = s.num_nodes;
    let mut features = Matrix::zeros(n, s.features.cols());
    let mut drnl = vec![0u32; n];
    for (old, &new) in perm.iter().enumerate() {
        features.row_mut(new).copy_from_slice(s.features.row(old));
        drnl[new] = s.drnl[old];
    }
    let edges: Vec<LocalEdge> = s
        .edges
        .iter()
        .map(|e| LocalEdge {
            u: perm[e.u as usize] as u32,
            v: perm[e.v as usize] as u32,
            etype: e.etype,
        })
        .collect();
    PreparedSample {
        features,
        graph: message_graph_for(ds, n, &edges),
        label: s.label,
        num_nodes: n,
        num_edges: s.num_edges,
        edges,
        drnl,
    }
}

fn check_relabel_invariance(name: &str, ds: &Dataset) {
    let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
    let samples = prepare_batch(ds, &ds.train[..16], &fcfg);
    let mut rng = StdRng::seed_from_u64(3201);
    let relabeled: Vec<PreparedSample> = samples
        .iter()
        .map(|s| {
            let mut perm: Vec<usize> = (0..s.num_nodes).collect();
            perm.shuffle(&mut rng);
            relabel(ds, s, &perm)
        })
        .collect();
    for gnn in [GnnKind::Gcn, GnnKind::am_dgcnn()] {
        let mut cfg =
            ModelConfig::dgcnn_defaults(gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
        cfg.hidden_dim = 8;
        cfg.dense_dim = 16;
        let mut ps = ParamStore::new();
        let model = DgcnnModel::new(cfg, &mut ps, &mut StdRng::seed_from_u64(3202));
        let before = predict_probs(&model, &ps, &samples);
        let after = predict_probs(&model, &ps, &relabeled);
        let moved = before.max_abs_diff(&after);
        assert!(
            moved <= TOL,
            "{name} {}: relabeling moved a probability by {moved}",
            gnn.name()
        );
    }
}

#[test]
fn wn18_predictions_ignore_node_ids() {
    check_relabel_invariance("wn18", &wn18_like(&Wn18Config::tiny()));
}

#[test]
fn primekg_predictions_ignore_node_ids() {
    check_relabel_invariance("primekg", &primekg_like(&PrimeKgConfig::tiny()));
}

#[test]
fn biokg_predictions_ignore_node_ids() {
    check_relabel_invariance("biokg", &biokg_like(&BioKgConfig::tiny()));
}
