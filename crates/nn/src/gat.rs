//! Graph Attention Network layer (Velickovic et al., 2018) extended with
//! edge attributes — the message passing AM-DGCNN substitutes for GCN.
//!
//! For a directed message `j → i` with edge attribute `x_ij` the attention
//! logit is
//!
//! ```text
//! e_ij = LeakyReLU( aᵀ [ W·h_i ‖ W·h_j ‖ W_e·x_ij ] )
//! ```
//!
//! normalized with a softmax over each destination's incoming messages.
//! The weighted message **includes the transformed edge attribute**:
//! `h'_i = Σ_j α_ij (W·h_j + W_e·x_ij)` — this is the paper's
//! "incorporating link information into node transformations" (§II-A).
//! Gating attention alone would not suffice: on a graph with homogeneous
//! node features (WordNet-18) an attention-weighted sum of identical
//! neighbor vectors is invariant to the weights, so the edge classes would
//! be unreadable no matter how attention uses them. Self-loops are added so
//! every node attends to itself (with a zero edge attribute, matching the
//! "no relation" encoding). Multi-head attention concatenates (hidden
//! layers) or averages (final layer) the per-head outputs.
//!
//! ## Fused attention
//!
//! The concatenation `aᵀ[dst_f ‖ src_f ‖ eat]` is never materialized.
//! Splitting `a` into its `dst`/`src`/`edge` row blocks the logit
//! decomposes into per-*node* scores plus a per-message edge score,
//!
//! ```text
//! e_ij = LeakyReLU( ((W·h)·a_dst |_i + (W·h)·a_src |_j) + (W_e·x)·a_e |_ij )
//! ```
//!
//! Each head records one tape op, [`Tape::gat_attention`], over `W·h`,
//! `W_e·x` and `a`: it computes those scores, the LeakyReLU, the softmax
//! over each destination's messages and both α-weighted sums in one sweep
//! over the destination segments, and its backward is one hand-written
//! adjoint. The α it computes stays on the op's record. The edge
//! attributes are a constant leaf, so the backward pass computes no
//! gradient for them. Heads stay a loop of their own projections.

use crate::message_graph::{GraphLayer, MessageGraph};
use amdgcnn_tensor::{init, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Parameters of one attention head.
#[derive(Debug, Clone)]
struct GatHead {
    weight: ParamId,
    edge_weight: Option<ParamId>,
    attn: ParamId,
    bias: ParamId,
}

/// Configuration of a [`GatConv`] layer.
#[derive(Debug, Clone, Copy)]
pub struct GatConfig {
    /// Input node-feature width.
    pub in_dim: usize,
    /// Output width per head.
    pub out_dim: usize,
    /// Edge-attribute width consumed by attention (0 disables edge attrs —
    /// the ablation switch isolating the paper's edge-attribute claim; the
    /// layer then ignores any attributes the graph carries).
    pub edge_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Concatenate head outputs (`true`, hidden layers) or average them
    /// (`false`, final layer).
    pub concat: bool,
    /// Negative slope of the attention LeakyReLU.
    pub negative_slope: f32,
}

impl GatConfig {
    /// Output width of the layer (`heads * out_dim` when concatenating).
    pub fn output_width(&self) -> usize {
        if self.concat {
            self.heads * self.out_dim
        } else {
            self.out_dim
        }
    }
}

/// Multi-head graph attention layer with optional edge attributes.
#[derive(Debug, Clone)]
pub struct GatConv {
    /// Layer configuration.
    pub cfg: GatConfig,
    heads: Vec<GatHead>,
}

impl GatConv {
    /// Register parameters for a new layer.
    pub fn new(name: &str, cfg: GatConfig, ps: &mut ParamStore, rng: &mut StdRng) -> Self {
        assert!(cfg.heads >= 1, "GatConv needs at least one head");
        let mut heads = Vec::with_capacity(cfg.heads);
        for h in 0..cfg.heads {
            let weight = ps.register(
                format!("{name}.h{h}.weight"),
                init::xavier_uniform(cfg.in_dim, cfg.out_dim, rng),
            );
            let edge_weight = (cfg.edge_dim > 0).then(|| {
                ps.register(
                    format!("{name}.h{h}.edge_weight"),
                    init::xavier_uniform(cfg.edge_dim, cfg.out_dim, rng),
                )
            });
            let attn_in = 2 * cfg.out_dim + if cfg.edge_dim > 0 { cfg.out_dim } else { 0 };
            let attn = ps.register(
                format!("{name}.h{h}.attn"),
                init::xavier_uniform(attn_in, 1, rng),
            );
            let bias = ps.register(format!("{name}.h{h}.bias"), Matrix::zeros(1, cfg.out_dim));
            heads.push(GatHead {
                weight,
                edge_weight,
                attn,
                bias,
            });
        }
        Self { cfg, heads }
    }
}

impl GraphLayer for GatConv {
    /// Forward pass over the shared [`MessageGraph`]. When the layer is
    /// configured with `edge_dim > 0` the graph must carry (matching-width)
    /// edge attributes; with `edge_dim == 0` any attributes are ignored.
    fn forward(&self, tape: &mut Tape, ps: &ParamStore, graph: &MessageGraph, h: Var) -> Var {
        debug_assert_eq!(
            tape.shape(h).0,
            graph.num_nodes(),
            "GatConv: node count mismatch"
        );
        debug_assert_eq!(
            tape.shape(h).1,
            self.cfg.in_dim,
            "GatConv: input width mismatch"
        );
        let edge_attr = if self.cfg.edge_dim > 0 {
            let ea = graph.edge_attrs().unwrap_or_else(|| {
                panic!("GatConv: edge_attr presence must match configured edge_dim")
            });
            assert_eq!(
                ea.cols(),
                self.cfg.edge_dim,
                "GatConv: edge-attribute width mismatch"
            );
            // Mounted once and shared by every head of this layer.
            Some(tape.shared_leaf(ea.clone()))
        } else {
            None
        };
        let csr = graph.csr();

        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let w = tape.param(head.weight, ps.get(head.weight).clone());
            let hw = tape.matmul(h, w); // [N, out]
            let a = tape.param(head.attn, ps.get(head.attn).clone());
            // Transformed edge attributes: part of the logit and of the
            // message value.
            let eat = match (head.edge_weight, edge_attr) {
                (Some(we), Some(ea)) => {
                    let wev = tape.param(we, ps.get(we).clone());
                    Some(tape.matmul(ea, wev)) // [M, out]
                }
                _ => None,
            };
            let agg = tape.gat_attention(csr.clone(), hw, eat, a, self.cfg.negative_slope);
            let b = tape.param(head.bias, ps.get(head.bias).clone());
            head_outputs.push(tape.add_row_broadcast(agg, b));
        }

        if self.cfg.concat || self.heads.len() == 1 {
            if head_outputs.len() == 1 {
                head_outputs[0]
            } else {
                tape.concat_cols(&head_outputs)
            }
        } else {
            // Average heads.
            let mut acc = head_outputs[0];
            for &o in &head_outputs[1..] {
                acc = tape.add(acc, o);
            }
            tape.scale(acc, 1.0 / head_outputs.len() as f32)
        }
    }

    fn output_width(&self) -> usize {
        self.cfg.output_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_tensor::autograd::gradcheck::check_gradients;
    use rand::SeedableRng;

    fn cfg(
        in_dim: usize,
        out_dim: usize,
        edge_dim: usize,
        heads: usize,
        concat: bool,
    ) -> GatConfig {
        GatConfig {
            in_dim,
            out_dim,
            edge_dim,
            heads,
            concat,
            negative_slope: 0.2,
        }
    }

    #[test]
    fn output_shapes_concat_vs_average() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let graph = MessageGraph::from_undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let input = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1);

        let layer = GatConv::new("g", cfg(3, 5, 0, 2, true), &mut ps, &mut rng);
        let mut tape = Tape::new();
        let h = tape.leaf(input.clone());
        let out = layer.forward(&mut tape, &ps, &graph, h);
        assert_eq!(tape.shape(out), (4, 10));
        assert_eq!(layer.output_width(), 10);

        let layer2 = GatConv::new("g2", cfg(3, 5, 0, 2, false), &mut ps, &mut rng);
        let mut tape2 = Tape::new();
        let h2 = tape2.leaf(input);
        let out2 = layer2.forward(&mut tape2, &ps, &graph, h2);
        assert_eq!(tape2.shape(out2), (4, 5));
        assert_eq!(layer2.output_width(), 5);
    }

    #[test]
    fn attention_is_convex_combination() {
        // With identical source features everywhere, the attention-weighted
        // aggregation must reproduce exactly that shared feature (weights
        // sum to 1 within each destination segment).
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatConv::new("g", cfg(2, 3, 0, 1, true), &mut ps, &mut rng);
        let graph = MessageGraph::from_undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let shared = Matrix::from_vec(1, 2, vec![0.7, -0.4]);
        let input = Matrix::from_fn(4, 2, |_, c| shared.get(0, c));

        let mut tape = Tape::new();
        let h = tape.leaf(input.clone());
        let out = layer.forward(&mut tape, &ps, &graph, h);
        // Expected: shared·W + bias for every node.
        let hw = amdgcnn_tensor::matmul::matmul(&shared, ps.get(layer.heads[0].weight));
        for n in 0..4 {
            for c in 0..3 {
                let expect = hw.get(0, c) + ps.get(layer.heads[0].bias).get(0, c);
                assert!(
                    (tape.value(out).get(n, c) - expect).abs() < 1e-4,
                    "node {n} ch {c}"
                );
            }
        }
    }

    #[test]
    fn edge_attrs_change_the_output() {
        // Same topology, different edge attributes → different outputs.
        // This is precisely the signal GCN cannot see.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatConv::new("g", cfg(2, 3, 2, 1, true), &mut ps, &mut rng);
        let edges = [(0, 1, 0), (1, 2, 1)];
        let input = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3);

        let run = |attrs: Matrix, ps: &ParamStore| {
            let graph = MessageGraph::from_typed(3, &edges, Some(&attrs));
            let mut tape = Tape::new();
            let h = tape.leaf(input.clone());
            let out = layer.forward(&mut tape, ps, &graph, h);
            tape.value(out).clone()
        };
        let pos = run(Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]), &ps);
        let neg = run(Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 1.0]), &ps);
        assert!(
            pos.max_abs_diff(&neg) > 1e-4,
            "edge attributes must influence the output"
        );
    }

    #[test]
    #[should_panic(expected = "edge_attr presence")]
    fn missing_edge_attr_panics_when_configured() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let layer = GatConv::new("g", cfg(2, 2, 2, 1, true), &mut ps, &mut rng);
        let graph = MessageGraph::from_undirected(2, &[(0, 1)]); // no attrs
        let mut tape = Tape::new();
        let h = tape.leaf(Matrix::zeros(2, 2));
        let _ = layer.forward(&mut tape, &ps, &graph, h);
    }

    #[test]
    fn edge_dim_zero_ignores_graph_attrs() {
        // The ablation layer runs unchanged whether or not the graph
        // carries attributes.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let layer = GatConv::new("g", cfg(2, 2, 0, 1, true), &mut ps, &mut rng);
        let input = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 * 0.5);
        let attrs = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let with = MessageGraph::from_typed(2, &[(0, 1, 0)], Some(&attrs));
        let without = MessageGraph::from_undirected(2, &[(0, 1)]);
        let run = |g: &MessageGraph| {
            let mut tape = Tape::new();
            let h = tape.leaf(input.clone());
            let out = layer.forward(&mut tape, &ps, g, h);
            tape.value(out).clone()
        };
        assert_eq!(run(&with).max_abs_diff(&run(&without)), 0.0);
    }

    #[test]
    fn gradients_check_out_with_edge_attrs() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GatConv::new("g", cfg(2, 2, 2, 2, true), &mut ps, &mut rng);
        let attrs = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        let graph = MessageGraph::from_typed(3, &[(0, 1, 0), (1, 2, 1), (0, 2, 2)], Some(&attrs));
        let input = Matrix::from_fn(3, 2, |r, c| ((r * 2 + c) as f32 * 0.43).sin());
        let res = check_gradients(
            &ps,
            |tape, store| {
                let h = tape.leaf(input.clone());
                let out = layer.forward(tape, store, &graph, h);
                let act = tape.tanh(out);
                let sq = tape.mul(act, act);
                tape.mean_all(sq)
            },
            1e-2,
            4e-2,
        );
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn gradients_check_out_average_heads() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatConv::new("g", cfg(2, 3, 0, 2, false), &mut ps, &mut rng);
        let graph = MessageGraph::from_undirected(3, &[(0, 1), (1, 2)]);
        let input = Matrix::from_fn(3, 2, |r, c| ((r + 2 * c) as f32 * 0.27).cos());
        let res = check_gradients(
            &ps,
            |tape, store| {
                let h = tape.leaf(input.clone());
                let out = layer.forward(tape, store, &graph, h);
                let sq = tape.mul(out, out);
                tape.mean_all(sq)
            },
            1e-2,
            4e-2,
        );
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn isolated_node_attends_to_itself_only() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let layer = GatConv::new("g", cfg(2, 2, 0, 1, true), &mut ps, &mut rng);
        let graph = MessageGraph::from_undirected(3, &[(0, 1)]); // node 2 isolated
        let input = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut tape = Tape::new();
        let h = tape.leaf(input.clone());
        let out = layer.forward(&mut tape, &ps, &graph, h);
        // Node 2's segment has one message (its self-loop) with weight 1.
        let hw = amdgcnn_tensor::matmul::matmul(&input, ps.get(layer.heads[0].weight));
        for c in 0..2 {
            let expect = hw.get(2, c) + ps.get(layer.heads[0].bias).get(0, c);
            assert!((tape.value(out).get(2, c) - expect).abs() < 1e-5);
        }
    }
}
