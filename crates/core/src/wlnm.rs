//! Weisfeiler-Lehman Neural Machine (Zhang & Chen, 2017) — the
//! supervised-heuristic-learning *predecessor* the paper reviews in §VI-B,
//! implemented as a baseline.
//!
//! WLNM encodes an enclosing subgraph as a **fixed-size adjacency
//! vector**: vertices are ranked by Weisfeiler-Lehman refinement seeded
//! from their distance-based labels, the subgraph is truncated/zero-padded
//! to `k` vertices, and the upper triangle of the reordered adjacency
//! matrix (minus the target-link entry) is flattened and fed to a plain
//! MLP. Its §VI-B drawbacks are visible by construction: truncation loses
//! structure, and neither explicit node features nor edge attributes fit
//! the representation.

use crate::sample::PreparedSample;
use crate::train::LinkModel;
use amdgcnn_graph::wl::wlnm_order;
use amdgcnn_graph::GraphBuilder;
use amdgcnn_nn::{Activation, Mlp};
use amdgcnn_tensor::{Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use std::sync::Arc;

/// WLNM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct WlnmConfig {
    /// Fixed vertex budget `k` (subgraphs are truncated/padded to this).
    pub k: usize,
    /// Hidden widths of the MLP.
    pub hidden: [usize; 2],
    /// Dropout probability in the MLP.
    pub dropout: f32,
    /// Output class count.
    pub num_classes: usize,
    /// WL refinement rounds.
    pub wl_rounds: usize,
}

impl WlnmConfig {
    /// The original paper's shape: k = 10, MLP 32-16 (scaled to the class
    /// count here).
    pub fn defaults(num_classes: usize) -> Self {
        Self {
            k: 10,
            hidden: [64, 32],
            dropout: 0.3,
            num_classes,
            wl_rounds: 4,
        }
    }

    /// Length of the flattened upper-triangle input (excluding the (0,1)
    /// target entry).
    pub fn input_dim(&self) -> usize {
        self.k * (self.k - 1) / 2 - 1
    }
}

/// The WLNM baseline model.
pub struct WlnmModel {
    /// Configuration.
    pub cfg: WlnmConfig,
    mlp: Mlp,
}

impl WlnmModel {
    /// Register parameters.
    ///
    /// # Panics
    /// Panics when `k < 3` (no informative adjacency entries remain).
    pub fn new(cfg: WlnmConfig, ps: &mut ParamStore, rng: &mut StdRng) -> Self {
        assert!(cfg.k >= 3, "WLNM needs a vertex budget of at least 3");
        let dims = [
            cfg.input_dim(),
            cfg.hidden[0],
            cfg.hidden[1],
            cfg.num_classes,
        ];
        let mlp = Mlp::new("wlnm", &dims, Activation::Relu, Some(cfg.dropout), ps, rng);
        Self { cfg, mlp }
    }

    /// Encode a prepared sample as the WLNM adjacency vector.
    ///
    /// Vertex order: WL refinement seeded with the DRNL labels (targets
    /// carry the distinctive label 1 and sort first; the unreachable label
    /// 0 is remapped past every finite label so padding-like vertices sort
    /// last).
    pub fn encode(&self, sample: &PreparedSample) -> Matrix {
        let n = sample.num_nodes;
        // Rebuild the local graph for WL refinement.
        let mut b = GraphBuilder::new(n);
        for e in &sample.edges {
            b.add_edge(e.u, e.v, 0);
        }
        let local = b.build();
        let initial: Vec<u64> = sample
            .drnl
            .iter()
            .map(|&l| if l == 0 { u64::MAX } else { l as u64 })
            .collect();
        let order = wlnm_order(&local, &initial, self.cfg.wl_rounds);

        // Position of each original vertex in the truncated ordering.
        let k = self.cfg.k;
        let mut pos = vec![usize::MAX; n];
        for (rank, &v) in order.iter().take(k).enumerate() {
            pos[v] = rank;
        }
        // Upper-triangle adjacency over the first k ranked vertices,
        // skipping (0,1) — the entry the model is asked to predict.
        let mut vec = vec![0.0f32; self.cfg.input_dim()];
        let flat_index = |i: usize, j: usize| -> Option<usize> {
            // Index into the upper triangle enumerated row-major, with the
            // (0,1) slot removed.
            debug_assert!(i < j);
            if i == 0 && j == 1 {
                return None;
            }
            let raw = i * (2 * k - i - 1) / 2 + (j - i - 1);
            Some(raw - 1) // every index after (0,1) shifts down by one
        };
        for e in &sample.edges {
            let (pu, pv) = (pos[e.u as usize], pos[e.v as usize]);
            if pu == usize::MAX || pv == usize::MAX || pu == pv {
                continue;
            }
            let (i, j) = if pu < pv { (pu, pv) } else { (pv, pu) };
            if let Some(idx) = flat_index(i, j) {
                vec[idx] = 1.0;
            }
        }
        Matrix::from_vec(1, self.cfg.input_dim(), vec)
    }
}

impl LinkModel for WlnmModel {
    /// Encodes the `B` samples as one `[B, input_dim]` leaf and runs the
    /// MLP once over it. Every MLP kernel computes a row from that row
    /// alone, and row `b`'s dropout masks come from `dropout_rngs[b]`, so
    /// each sample's logits equal those of a batch of one bit for bit.
    fn forward_batch(
        &self,
        tape: &mut Tape,
        ps: &ParamStore,
        samples: &[&PreparedSample],
        dropout_rngs: Option<&mut [StdRng]>,
    ) -> Vec<Var> {
        let rows: Vec<Matrix> = samples.iter().map(|s| self.encode(s)).collect();
        let refs: Vec<&Matrix> = rows.iter().collect();
        let x = tape.leaf(Matrix::concat_rows(&refs));
        let logits = self.mlp.forward(tape, ps, x, dropout_rngs);
        (0..samples.len())
            .map(|b| tape.gather_rows(logits, Arc::new(vec![b])))
            .collect()
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::pipeline::evaluate_model;
    use crate::sample::prepare_batch;
    use crate::train::{TrainConfig, Trainer};
    use amdgcnn_data::{cora_like, CoraConfig};
    use rand::SeedableRng;

    fn setup() -> (
        WlnmModel,
        ParamStore,
        Vec<crate::PreparedSample>,
        Vec<crate::PreparedSample>,
    ) {
        let ds = cora_like(&CoraConfig::tiny());
        let fcfg = FeatureConfig::for_graph(ds.graph.num_node_types());
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = WlnmModel::new(WlnmConfig::defaults(2), &mut ps, &mut rng);
        let train = prepare_batch(&ds, &ds.train[..200.min(ds.train.len())], &fcfg);
        let test = prepare_batch(&ds, &ds.test[..100.min(ds.test.len())], &fcfg);
        (model, ps, train, test)
    }

    #[test]
    fn input_dim_formula() {
        let cfg = WlnmConfig::defaults(2);
        assert_eq!(cfg.input_dim(), 10 * 9 / 2 - 1);
        let small = WlnmConfig { k: 3, ..cfg };
        assert_eq!(small.input_dim(), 2); // (0,2), (1,2)
    }

    #[test]
    fn encoding_is_binary_and_sized() {
        let (model, _, train, _) = setup();
        for s in train.iter().take(20) {
            let enc = model.encode(s);
            assert_eq!(enc.shape(), (1, model.cfg.input_dim()));
            assert!(enc.data().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn target_link_entry_is_excluded() {
        // Even for positive samples (an actual edge), the encoding never
        // exposes a (0,1) slot — it is structurally removed. We check that
        // two samples differing only in target-link presence encode
        // identically if their remaining structure matches trivially:
        // at minimum the vector length excludes that entry.
        let (model, _, train, _) = setup();
        let enc = model.encode(&train[0]);
        assert_eq!(enc.len(), model.cfg.k * (model.cfg.k - 1) / 2 - 1);
    }

    #[test]
    fn wlnm_learns_cora_link_prediction_above_chance() {
        let (model, mut ps, train, test) = setup();
        let mut trainer = Trainer::new(TrainConfig {
            lr: 3e-3,
            seed: 1,
            ..Default::default()
        });
        trainer.train(&model, &mut ps, &train, 12).expect("train");
        let m = evaluate_model(&model, &ps, &test);
        assert!(
            m.auc > 0.6,
            "WLNM should beat chance on clustered links, got {}",
            m.auc
        );
    }

    #[test]
    fn forward_batch_equals_batches_of_one() {
        let (model, ps, train, _) = setup();
        let samples: Vec<&PreparedSample> = train.iter().take(6).collect();
        let logits = |batch: &[&PreparedSample], rngs: Option<&mut [StdRng]>| {
            let mut tape = Tape::new();
            let vars = model.forward_batch(&mut tape, &ps, batch, rngs);
            vars.iter()
                .map(|&v| tape.value(v).clone())
                .collect::<Vec<_>>()
        };
        let rngs = || -> Vec<StdRng> { (0..6).map(|i| StdRng::seed_from_u64(90 + i)).collect() };
        let (mut batch_rngs, mut single_rngs) = (rngs(), rngs());
        for dropout in [false, true] {
            let batched = logits(&samples, dropout.then_some(&mut batch_rngs[..]));
            assert_eq!(batched.len(), 6);
            for (b, row) in batched.iter().enumerate() {
                let rng = dropout.then_some(&mut single_rngs[b..b + 1]);
                let alone = logits(&samples[b..b + 1], rng);
                assert_eq!(row.shape(), (1, model.cfg.num_classes));
                let (row, alone) = (row.data(), alone[0].data());
                let same = row
                    .iter()
                    .zip(alone)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "dropout {dropout}, sample {b}: {row:?} vs {alone:?}");
            }
        }
        // Dropout must have changed something, or the second pass proved
        // nothing about the per-row streams.
        let plain = logits(&samples, None);
        let dropped = logits(&samples, Some(&mut rngs()[..]));
        assert_ne!(plain, dropped, "dropout left every logit unchanged");
    }
}
