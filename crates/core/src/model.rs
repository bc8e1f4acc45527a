//! The (AM-)DGCNN model assembly (paper §III-C, Fig. 2).
//!
//! Both models share the DGCNN skeleton of Zhang et al. (2018):
//!
//! 1. a stack of graph message-passing layers (tanh between layers), the
//!    last of which produces a single channel used as the sorting key;
//! 2. concatenation of every layer's output (`[N, C_total]`);
//! 3. SortPooling to a fixed `k` rows;
//! 4. a 1-D convolution read-out: Conv(1→c1, kernel=stride=C_total) →
//!    MaxPool(2) → Conv(c1→c2, kernel 5) with tanh (tanh rather than ReLU:
//!    the read-out sits behind SortPooling whose early-training gradients
//!    are weak, and a ReLU read-out reliably dies into a constant
//!    prior-predictor before the signal arrives);
//! 5. a dense classifier with dropout.
//!
//! *Vanilla DGCNN* instantiates step 1 with [`GcnConv`] (edge-blind).
//! *AM-DGCNN* replaces it with [`GatConv`] — attention over neighbors with
//! the edge attributes feeding the attention logits (the paper's
//! contribution).
//!
//! The stack is a `Vec<Box<dyn GraphLayer>>` over the shared
//! [`MessageGraph`] operand, so model assembly and the forward pass are
//! family-agnostic. [`DgcnnModel::forward_batched`] packs a minibatch's
//! subgraphs into one [`BlockDiagGraph`], runs the message passing as a
//! handful of large sparse kernels, and then runs steps 3-5 once over the
//! minibatch's `[B, ·]` rows: block SortPooling, row-batched convolutions
//! and `[B, ·]` classifier GEMMs. Every kernel computes a sample's rows
//! the same way at any batch size, so a sample's logits are bit-identical
//! in a minibatch and alone; [`DgcnnModel::forward`] is the batch of one.

use crate::sample::PreparedSample;
use amdgcnn_nn::{
    Activation, BlockDiagGraph, Conv1dLayer, GatConfig, GatConv, GcnConv, GraphLayer, MessageGraph,
    Mlp, RgcnConfig, RgcnConv,
};
use amdgcnn_tensor::{Conv1dSpec, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::Arc;

/// Which message-passing family the DGCNN skeleton uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GnnKind {
    /// Graph convolutions (vanilla DGCNN — cannot see edge attributes).
    Gcn,
    /// Graph attention (AM-DGCNN).
    Gat {
        /// Feed edge attributes into the attention logits. Turning this
        /// off isolates the attention-only ablation (bench A1).
        edge_attrs: bool,
        /// Attention heads per hidden layer.
        heads: usize,
    },
    /// Relational GCN (Schlichtkrull et al., 2018) — per-relation weights
    /// with basis decomposition; an extension baseline that consumes
    /// relation *identities* rather than attribute vectors.
    Rgcn {
        /// Basis matrices shared across relations.
        num_bases: usize,
    },
}

impl GnnKind {
    /// AM-DGCNN with edge attributes and a single head (the paper's
    /// configuration).
    pub fn am_dgcnn() -> Self {
        GnnKind::Gat {
            edge_attrs: true,
            heads: 1,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            GnnKind::Gcn => "vanilla-dgcnn",
            GnnKind::Gat {
                edge_attrs: true, ..
            } => "am-dgcnn",
            GnnKind::Gat {
                edge_attrs: false, ..
            } => "gat-no-edge-attrs",
            GnnKind::Rgcn { .. } => "rgcn-dgcnn",
        }
    }
}

/// Model hyperparameters. `hidden_dim` and `sort_k` are the Table I search
/// dimensions; the rest are DGCNN architecture constants.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Message-passing family.
    pub gnn: GnnKind,
    /// Node-feature input width.
    pub node_feat_dim: usize,
    /// Edge-attribute width (0 = none available).
    pub edge_attr_dim: usize,
    /// Width of each hidden message-passing layer (Table I: 16–128).
    pub hidden_dim: usize,
    /// Number of hidden message-passing layers (before the 1-channel sort
    /// layer). DGCNN uses 3.
    pub num_layers: usize,
    /// SortPooling `k` (Table I: 5–150).
    pub sort_k: usize,
    /// First read-out convolution channels.
    pub conv1_channels: usize,
    /// Second read-out convolution channels.
    pub conv2_channels: usize,
    /// Second read-out convolution kernel (shrunk automatically when the
    /// pooled sequence is shorter).
    pub conv2_kernel: usize,
    /// Dense classifier hidden width.
    pub dense_dim: usize,
    /// Classifier dropout probability.
    pub dropout: f32,
    /// Output class count.
    pub num_classes: usize,
    /// Relation-type count of the dataset (required by [`GnnKind::Rgcn`];
    /// ignored by the other variants).
    pub num_relations: usize,
}

impl ModelConfig {
    /// DGCNN defaults for the given input/output sizes (hidden 32, three
    /// hidden layers, k = 30 — the paper's starting point before tuning).
    pub fn dgcnn_defaults(
        gnn: GnnKind,
        node_feat_dim: usize,
        edge_attr_dim: usize,
        num_classes: usize,
    ) -> Self {
        Self {
            gnn,
            node_feat_dim,
            edge_attr_dim,
            hidden_dim: 32,
            num_layers: 3,
            sort_k: 30,
            conv1_channels: 16,
            conv2_channels: 32,
            conv2_kernel: 5,
            dense_dim: 128,
            dropout: 0.5,
            num_classes,
            num_relations: 0,
        }
    }

    /// Per-layer effective output widths of the message-passing stack.
    fn layer_widths(&self) -> Vec<usize> {
        let heads = match self.gnn {
            GnnKind::Gcn | GnnKind::Rgcn { .. } => 1,
            GnnKind::Gat { heads, .. } => heads,
        };
        let mut w: Vec<usize> = (0..self.num_layers)
            .map(|_| self.hidden_dim * heads)
            .collect();
        w.push(1); // sort-key layer
        w
    }

    /// Total concatenated channel count fed into SortPooling.
    pub fn total_channels(&self) -> usize {
        self.layer_widths().iter().sum()
    }
}

/// A complete (AM-)DGCNN model: parameters registered in a [`ParamStore`],
/// forward pass producing `[1, num_classes]` logits per subgraph.
pub struct DgcnnModel {
    /// The configuration the model was built with.
    pub cfg: ModelConfig,
    /// Message-passing stack behind the unified [`GraphLayer`] trait.
    layers: Vec<Box<dyn GraphLayer>>,
    conv1: Conv1dLayer,
    conv2: Conv1dLayer,
    mlp: Mlp,
}

impl DgcnnModel {
    /// Register all parameters for a new model.
    ///
    /// # Panics
    /// Panics when `sort_k < 4` (the read-out needs at least two pooled
    /// positions) or when a GAT model with `edge_attrs` is configured with
    /// `edge_attr_dim == 0`.
    pub fn new(cfg: ModelConfig, ps: &mut ParamStore, rng: &mut StdRng) -> Self {
        assert!(
            cfg.sort_k >= 4,
            "sort_k {} too small for the conv read-out",
            cfg.sort_k
        );
        if let GnnKind::Gat {
            edge_attrs: true, ..
        } = cfg.gnn
        {
            assert!(
                cfg.edge_attr_dim > 0,
                "AM-DGCNN with edge attributes needs edge_attr_dim > 0"
            );
        }

        // Message-passing stack: hidden layers then the 1-channel sort layer.
        let mut layers: Vec<Box<dyn GraphLayer>> = Vec::with_capacity(cfg.num_layers + 1);
        match cfg.gnn {
            GnnKind::Gcn => {
                let mut in_dim = cfg.node_feat_dim;
                for i in 0..cfg.num_layers {
                    layers.push(Box::new(GcnConv::new(
                        &format!("gcn{i}"),
                        in_dim,
                        cfg.hidden_dim,
                        ps,
                        rng,
                    )));
                    in_dim = cfg.hidden_dim;
                }
                layers.push(Box::new(GcnConv::new("gcn_sort", in_dim, 1, ps, rng)));
            }
            GnnKind::Gat { edge_attrs, heads } => {
                let edge_dim = if edge_attrs { cfg.edge_attr_dim } else { 0 };
                let mut in_dim = cfg.node_feat_dim;
                for i in 0..cfg.num_layers {
                    let gcfg = GatConfig {
                        in_dim,
                        out_dim: cfg.hidden_dim,
                        edge_dim,
                        heads,
                        concat: true,
                        negative_slope: 0.2,
                    };
                    layers.push(Box::new(GatConv::new(&format!("gat{i}"), gcfg, ps, rng)));
                    in_dim = gcfg.output_width();
                }
                let sort_cfg = GatConfig {
                    in_dim,
                    out_dim: 1,
                    edge_dim,
                    heads,
                    concat: false,
                    negative_slope: 0.2,
                };
                layers.push(Box::new(GatConv::new("gat_sort", sort_cfg, ps, rng)));
            }
            GnnKind::Rgcn { num_bases } => {
                assert!(
                    cfg.num_relations > 0,
                    "R-GCN variant needs num_relations set from the dataset"
                );
                let mut in_dim = cfg.node_feat_dim;
                for i in 0..cfg.num_layers {
                    layers.push(Box::new(RgcnConv::new(
                        &format!("rgcn{i}"),
                        RgcnConfig {
                            in_dim,
                            out_dim: cfg.hidden_dim,
                            num_relations: cfg.num_relations,
                            num_bases,
                        },
                        ps,
                        rng,
                    )));
                    in_dim = cfg.hidden_dim;
                }
                layers.push(Box::new(RgcnConv::new(
                    "rgcn_sort",
                    RgcnConfig {
                        in_dim,
                        out_dim: 1,
                        num_relations: cfg.num_relations,
                        num_bases,
                    },
                    ps,
                    rng,
                )));
            }
        }

        let c_total = cfg.total_channels();
        let conv1 = Conv1dLayer::new(
            "conv1",
            Conv1dSpec {
                in_channels: 1,
                out_channels: cfg.conv1_channels,
                kernel: c_total,
                stride: c_total,
            },
            ps,
            rng,
        );
        let pooled_len = cfg.sort_k / 2;
        let kernel2 = cfg.conv2_kernel.min(pooled_len);
        let conv2 = Conv1dLayer::new(
            "conv2",
            Conv1dSpec {
                in_channels: cfg.conv1_channels,
                out_channels: cfg.conv2_channels,
                kernel: kernel2,
                stride: 1,
            },
            ps,
            rng,
        );
        let conv2_out_len = pooled_len - kernel2 + 1;
        let flat = cfg.conv2_channels * conv2_out_len;
        let mlp = Mlp::new(
            "classifier",
            &[flat, cfg.dense_dim, cfg.num_classes],
            Activation::Relu,
            Some(cfg.dropout),
            ps,
            rng,
        );
        Self {
            cfg,
            layers,
            conv1,
            conv2,
            mlp,
        }
    }

    /// Run the message-passing stack (tanh between layers) and concatenate
    /// every layer's output — DGCNN's `[N, C_total]` representation.
    fn gnn_concat(&self, tape: &mut Tape, ps: &ParamStore, graph: &MessageGraph, x: Var) -> Var {
        let mut outputs: Vec<Var> = Vec::with_capacity(self.layers.len());
        let mut h = x;
        for layer in &self.layers {
            let z = layer.forward(tape, ps, graph, h);
            h = tape.tanh(z);
            outputs.push(h);
        }
        if outputs.len() == 1 {
            outputs[0]
        } else {
            tape.concat_cols(&outputs)
        }
    }

    /// Forward pass over one prepared subgraph: [`forward_batched`] of a
    /// batch of one. Returns `[1, num_classes]` logits. Pass `dropout_rng`
    /// during training; `None` for inference.
    ///
    /// [`forward_batched`]: Self::forward_batched
    pub fn forward(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        sample: &PreparedSample,
        dropout_rng: Option<&mut StdRng>,
    ) -> Var {
        self.forward_batched(tape, ps, &[sample], dropout_rng.map(std::slice::from_mut))[0]
    }

    /// Batched forward pass: packs the samples' graphs into one
    /// [`BlockDiagGraph`], runs the message-passing stack once over the
    /// packed graph, then the read-out once over the minibatch: block
    /// SortPooling writes each sample's `k` rows into one `[B, k*C]`
    /// matrix, and both convolutions, the max pooling and the classifier
    /// run over `[B, ·]` rows. Returns one `[1, num_classes]` logit row per
    /// sample, in order.
    ///
    /// Every sparse kernel reduces per destination over that destination's
    /// (block-local) messages in the same order as a lone sample's graph,
    /// and every read-out kernel computes a row from that row alone in an
    /// order that does not depend on the row count. So each sample's logits
    /// are **bit-identical** at any batch size, and a batch of one is the
    /// reference ([`forward`](Self::forward)). `dropout_rngs`, when given,
    /// must hold one RNG per sample: sample `b`'s dropout mask is drawn
    /// from `dropout_rngs[b]`.
    pub fn forward_batched(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        samples: &[&PreparedSample],
        dropout_rngs: Option<&mut [StdRng]>,
    ) -> Vec<Var> {
        if samples.is_empty() {
            return Vec::new();
        }
        if let Some(rngs) = dropout_rngs.as_ref() {
            assert_eq!(rngs.len(), samples.len(), "one dropout RNG per sample");
        }
        let graphs: Vec<&MessageGraph> = samples.iter().map(|s| &s.graph).collect();
        let packed = BlockDiagGraph::pack(&graphs);
        let feats: Vec<&Matrix> = samples.iter().map(|s| &s.features).collect();
        let x = tape.leaf(Matrix::concat_rows(&feats));
        let cat = self.gnn_concat(tape, ps, &packed.graph, x);
        debug_assert_eq!(tape.shape(cat).1, self.cfg.total_channels());

        let b = samples.len();
        let blocks: Vec<Range<usize>> = (0..b).map(|k| packed.node_range(k)).collect();
        let pooled = tape.sort_pool_blocks(cat, &blocks, self.cfg.sort_k);
        let c1 = self.conv1.forward_rows(tape, ps, pooled);
        let c1 = tape.tanh(c1);
        // Max pooling runs along each channel: one channel per row.
        let (channels, len) = (self.conv1.spec.out_channels, self.cfg.sort_k);
        let c1 = tape.reshape(c1, b * channels, len);
        let p1 = tape.max_pool1d(c1, 2);
        let p1 = tape.reshape(p1, b, channels * (len / 2));
        let c2 = self.conv2.forward_rows(tape, ps, p1);
        let c2 = tape.tanh(c2);
        let logits = self.mlp.forward(tape, ps, c2, dropout_rngs);
        (0..b)
            .map(|k| tape.gather_rows(logits, Arc::new(vec![k])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::sample::{prepare_batch, prepare_sample};
    use amdgcnn_data::{biokg_like, cora_like, wn18_like, BioKgConfig, CoraConfig, Wn18Config};
    use rand::SeedableRng;

    fn build(
        ds: &amdgcnn_data::Dataset,
        gnn: GnnKind,
        seed: u64,
    ) -> (DgcnnModel, ParamStore, FeatureConfig) {
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut cfg =
            ModelConfig::dgcnn_defaults(gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
        cfg.hidden_dim = 8;
        cfg.sort_k = 12;
        cfg.dense_dim = 16;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        (model, ps, fcfg)
    }

    #[test]
    fn vanilla_forward_shapes() {
        let ds = cora_like(&CoraConfig::tiny());
        let (model, ps, fcfg) = build(&ds, GnnKind::Gcn, 0);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, 2));
        assert!(tape.value(logits).all_finite());
    }

    #[test]
    fn am_dgcnn_forward_shapes() {
        let ds = wn18_like(&Wn18Config::tiny());
        let (model, ps, fcfg) = build(&ds, GnnKind::am_dgcnn(), 1);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, 18));
        assert!(tape.value(logits).all_finite());
    }

    #[test]
    fn multi_head_gat_works() {
        let ds = biokg_like(&BioKgConfig::tiny());
        let (model, ps, fcfg) = build(
            &ds,
            GnnKind::Gat {
                edge_attrs: true,
                heads: 2,
            },
            2,
        );
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, 7));
    }

    #[test]
    fn rgcn_variant_forward_and_learning_signal() {
        let ds = wn18_like(&Wn18Config::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut cfg = ModelConfig::dgcnn_defaults(
            GnnKind::Rgcn { num_bases: 4 },
            fcfg.dim(),
            ds.edge_attrs.dim(),
            ds.num_classes,
        );
        cfg.hidden_dim = 8;
        cfg.sort_k = 12;
        cfg.dense_dim = 16;
        cfg.num_relations = ds.graph.num_edge_types();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, ds.num_classes));
        assert!(tape.value(logits).all_finite());
        // Gradients flow to the relational parameters.
        let loss = tape.softmax_cross_entropy(logits, Arc::new(vec![s.label]));
        let grads = tape.backward(loss, ps.len());
        assert!(grads.all_finite());
        let touched = (0..ps.len())
            .filter(|&i| grads.get(amdgcnn_tensor::ParamId(i)).is_some())
            .count();
        assert!(
            touched > ps.len() / 2,
            "only {touched}/{} params touched",
            ps.len()
        );
    }

    #[test]
    #[should_panic(expected = "num_relations")]
    fn rgcn_requires_relation_count() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ModelConfig::dgcnn_defaults(GnnKind::Rgcn { num_bases: 2 }, 10, 0, 3);
        let _ = DgcnnModel::new(cfg, &mut ps, &mut rng);
    }

    #[test]
    fn gat_without_edge_attrs_runs_on_cora() {
        let ds = cora_like(&CoraConfig::tiny());
        let (model, ps, fcfg) = build(
            &ds,
            GnnKind::Gat {
                edge_attrs: false,
                heads: 1,
            },
            3,
        );
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, 2));
    }

    #[test]
    fn gradients_flow_to_all_touched_params() {
        let ds = wn18_like(&Wn18Config::tiny());
        let (model, ps, fcfg) = build(&ds, GnnKind::am_dgcnn(), 4);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        let loss = tape.softmax_cross_entropy(logits, Arc::new(vec![s.label]));
        let grads = tape.backward(loss, ps.len());
        let with_grad = (0..ps.len())
            .filter(|&i| grads.get(amdgcnn_tensor::ParamId(i)).is_some())
            .count();
        // Every parameter participates in the forward pass (conv2 may lose
        // gradient through relu/maxpool dead zones only elementwise, the
        // matrices still receive entries).
        assert!(
            with_grad >= ps.len() - 1,
            "only {with_grad}/{} params received gradients",
            ps.len()
        );
        assert!(grads.all_finite());
    }

    #[test]
    fn small_sort_k_shrinks_conv2() {
        let ds = cora_like(&CoraConfig::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut cfg = ModelConfig::dgcnn_defaults(GnnKind::Gcn, fcfg.dim(), 0, 2);
        cfg.sort_k = 5; // Table I minimum: pooled length 2 < kernel 5
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &s, None);
        assert_eq!(tape.shape(logits), (1, 2));
    }

    #[test]
    fn deterministic_construction_and_forward() {
        let ds = wn18_like(&Wn18Config::tiny());
        let run = || {
            let (model, ps, fcfg) = build(&ds, GnnKind::am_dgcnn(), 7);
            let s = prepare_sample(&ds, &ds.train[0], &fcfg);
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, &ps, &s, None);
            tape.value(logits).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let ds = cora_like(&CoraConfig::tiny());
        let (model, ps, fcfg) = build(&ds, GnnKind::Gcn, 8);
        let s = prepare_sample(&ds, &ds.train[0], &fcfg);
        let infer = |_: ()| {
            let mut tape = Tape::new();
            let l = model.forward(&mut tape, &ps, &s, None);
            tape.value(l).clone()
        };
        assert_eq!(infer(()), infer(()), "inference is deterministic");
        let mut rng = StdRng::seed_from_u64(9);
        let mut tape = Tape::new();
        let l = model.forward(&mut tape, &ps, &s, Some(&mut rng));
        // Training-mode output generally differs from inference output.
        let diff = tape.value(l).max_abs_diff(&infer(()));
        assert!(diff > 0.0, "dropout should perturb the training forward");
    }

    #[test]
    #[should_panic(expected = "edge_attr_dim > 0")]
    fn am_dgcnn_requires_edge_dim() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ModelConfig::dgcnn_defaults(GnnKind::am_dgcnn(), 10, 0, 3);
        let _ = DgcnnModel::new(cfg, &mut ps, &mut rng);
    }

    #[test]
    fn total_channels_accounts_for_heads() {
        let cfg = ModelConfig {
            gnn: GnnKind::Gat {
                edge_attrs: false,
                heads: 2,
            },
            ..ModelConfig::dgcnn_defaults(GnnKind::Gcn, 4, 0, 2)
        };
        // 3 hidden layers x 32 x 2 heads + 1 sort channel.
        assert_eq!(cfg.total_channels(), 3 * 64 + 1);
    }

    #[test]
    fn batched_forward_is_bit_identical_per_kind() {
        let ds = wn18_like(&Wn18Config::tiny());
        for (seed, gnn) in [
            (10, GnnKind::Gcn),
            (11, GnnKind::am_dgcnn()),
            (12, GnnKind::Rgcn { num_bases: 3 }),
        ] {
            let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
            let mut cfg =
                ModelConfig::dgcnn_defaults(gnn, fcfg.dim(), ds.edge_attrs.dim(), ds.num_classes);
            cfg.hidden_dim = 8;
            cfg.sort_k = 12;
            cfg.dense_dim = 16;
            cfg.num_relations = ds.graph.num_edge_types();
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let model = DgcnnModel::new(cfg, &mut ps, &mut rng);
            let samples = prepare_batch(&ds, &ds.train[..6], &fcfg);
            let refs: Vec<&PreparedSample> = samples.iter().collect();

            let mut batch_tape = Tape::new();
            let batched = model.forward_batched(&mut batch_tape, &ps, &refs, None);
            assert_eq!(batched.len(), samples.len());
            for (k, s) in samples.iter().enumerate() {
                let mut tape = Tape::new();
                let single = model.forward(&mut tape, &ps, s, None);
                assert_eq!(
                    batch_tape.value(batched[k]),
                    tape.value(single),
                    "{} sample {k} diverged from the per-sample forward",
                    gnn.name()
                );
            }
        }
    }

    #[test]
    fn batched_forward_matches_training_mode_dropout() {
        let ds = wn18_like(&Wn18Config::tiny());
        let (model, ps, fcfg) = build(&ds, GnnKind::am_dgcnn(), 13);
        let samples = prepare_batch(&ds, &ds.train[..4], &fcfg);
        let refs: Vec<&PreparedSample> = samples.iter().collect();
        let seed_rngs = || -> Vec<StdRng> {
            (0..samples.len())
                .map(|i| StdRng::seed_from_u64(900 + i as u64))
                .collect()
        };

        let mut rngs = seed_rngs();
        let mut batch_tape = Tape::new();
        let batched = model.forward_batched(&mut batch_tape, &ps, &refs, Some(&mut rngs));
        let mut single_rngs = seed_rngs();
        for (k, s) in samples.iter().enumerate() {
            let mut tape = Tape::new();
            let single = model.forward(&mut tape, &ps, s, Some(&mut single_rngs[k]));
            assert_eq!(
                batch_tape.value(batched[k]),
                tape.value(single),
                "sample {k}: batched training forward must replay the same \
                 per-sample dropout stream"
            );
        }
    }
}
