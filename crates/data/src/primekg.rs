//! PrimeKG-like synthetic precision-medicine knowledge graph.
//!
//! Reproduces the *properties* of PrimeKG (Chandak et al., 2023) that the
//! paper's experiments rely on:
//!
//! * 10 node types spanning biological scales, 30 relation types encoding
//!   positive or negative interactions (§IV);
//! * drug–disease target links in three classes — *indication*, *off-label
//!   use*, *contra-indication* (§IV);
//! * the class is recoverable from the **signs of edges** in the 2-hop
//!   enclosing subgraph: each drug and disease carries a latent mechanism
//!   polarity that biases the signs of its protein interactions, and the
//!   link class is the product of the endpoint polarities (neutral →
//!   off-label). An edge-blind model sees only a weak topological
//!   correlate (indication pairs receive a few extra shared proteins), so
//!   vanilla DGCNN lands well above chance but far below AM-DGCNN — the
//!   Table III contrast.

use crate::types::{split_links, Dataset, EdgeAttrTable, LabeledLink};
use amdgcnn_graph::{GraphBuilder, NeighborhoodMode, SubgraphConfig};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Node-type tags (10 biological scales, §IV).
pub mod node_type {
    /// Drug nodes.
    pub const DRUG: u16 = 0;
    /// Disease nodes.
    pub const DISEASE: u16 = 1;
    /// Protein/gene nodes.
    pub const PROTEIN: u16 = 2;
    /// Phenotype nodes.
    pub const PHENOTYPE: u16 = 3;
    /// Exposure nodes.
    pub const EXPOSURE: u16 = 4;
    /// Anatomical-region nodes.
    pub const ANATOMY: u16 = 5;
    /// Pathway nodes.
    pub const PATHWAY: u16 = 6;
    /// Biological-process nodes.
    pub const BIOPROCESS: u16 = 7;
    /// Cellular-component nodes.
    pub const CELLCOMP: u16 = 8;
    /// Molecular-function nodes.
    pub const MOLFUNC: u16 = 9;
}

/// Relation-type tags (30 relations; the drug–disease target relations are
/// 24–26).
pub mod relation {
    /// Drug→protein, activating.
    pub const DRUG_PROTEIN_POS: u16 = 0;
    /// Drug→protein, inhibiting.
    pub const DRUG_PROTEIN_NEG: u16 = 1;
    /// Disease→protein, up-regulated.
    pub const DISEASE_PROTEIN_POS: u16 = 2;
    /// Disease→protein, down-regulated.
    pub const DISEASE_PROTEIN_NEG: u16 = 3;
    /// Target link: indication (class 0).
    pub const INDICATION: u16 = 24;
    /// Target link: off-label use (class 1).
    pub const OFF_LABEL: u16 = 25;
    /// Target link: contra-indication (class 2).
    pub const CONTRA_INDICATION: u16 = 26;
}

/// Relations whose interaction sign is negative; all others are positive.
/// Drives the 2-dimensional sign compression of §III-B.
pub const NEGATIVE_RELATIONS: [u16; 8] = [1, 3, 5, 7, 9, 11, 21, 26];

/// Number of relation types.
pub const NUM_RELATIONS: usize = 30;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct PrimeKgConfig {
    /// Drug-node count.
    pub num_drugs: usize,
    /// Disease-node count.
    pub num_diseases: usize,
    /// Protein-node count.
    pub num_proteins: usize,
    /// Node count for each of the 7 remaining scales.
    pub num_other_per_type: usize,
    /// Drug→protein degree range (inclusive).
    pub drug_degree: (usize, usize),
    /// Disease→protein degree range (inclusive).
    pub disease_degree: (usize, usize),
    /// Probability an edge sign agrees with its endpoint's mechanism.
    pub mechanism_bias: f64,
    /// Probability a drug/disease is polarity-neutral (→ off-label links).
    pub neutral_prob: f64,
    /// Extra shared proteins planted on indication pairs (the weak
    /// topological signal an edge-blind model can still exploit).
    pub indication_extra_shared: usize,
    /// Training-link count.
    pub train_links: usize,
    /// Test-link count.
    pub test_links: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PrimeKgConfig {
    fn default() -> Self {
        Self {
            num_drugs: 400,
            num_diseases: 600,
            num_proteins: 800,
            num_other_per_type: 150,
            drug_degree: (6, 14),
            disease_degree: (8, 20),
            mechanism_bias: 0.93,
            neutral_prob: 0.3,
            indication_extra_shared: 2,
            train_links: 600,
            test_links: 200,
            seed: 0x9121_6b47,
        }
    }
}

impl PrimeKgConfig {
    /// Miniature preset for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_drugs: 60,
            num_diseases: 80,
            num_proteins: 100,
            num_other_per_type: 15,
            train_links: 45,
            test_links: 15,
            ..Self::default()
        }
    }
}

/// Latent mechanism polarity.
fn sample_mechanism(rng: &mut StdRng, neutral_prob: f64) -> i8 {
    let r: f64 = rng.random();
    if r < neutral_prob {
        0
    } else if r < neutral_prob + (1.0 - neutral_prob) / 2.0 {
        1
    } else {
        -1
    }
}

/// Edge sign biased toward the mechanism `m` (random for neutral).
fn sample_sign(rng: &mut StdRng, m: i8, bias: f64) -> i8 {
    if m == 0 {
        if rng.random::<f64>() < 0.5 {
            1
        } else {
            -1
        }
    } else if rng.random::<f64>() < bias {
        m
    } else {
        -m
    }
}

/// Generate a PrimeKG-like dataset.
pub fn primekg_like(cfg: &PrimeKgConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nd = cfg.num_drugs;
    let nz = cfg.num_diseases;
    let np = cfg.num_proteins;
    let no = cfg.num_other_per_type;

    // Node layout: [drugs | diseases | proteins | 7 x other scales].
    let mut node_types = Vec::new();
    node_types.extend(std::iter::repeat_n(node_type::DRUG, nd));
    node_types.extend(std::iter::repeat_n(node_type::DISEASE, nz));
    node_types.extend(std::iter::repeat_n(node_type::PROTEIN, np));
    for t in [
        node_type::PHENOTYPE,
        node_type::EXPOSURE,
        node_type::ANATOMY,
        node_type::PATHWAY,
        node_type::BIOPROCESS,
        node_type::CELLCOMP,
        node_type::MOLFUNC,
    ] {
        node_types.extend(std::iter::repeat_n(t, no));
    }
    let mut b = GraphBuilder::with_node_types(node_types);

    let drug_id = |d: usize| d as u32;
    let disease_id = |z: usize| (nd + z) as u32;
    let protein_id = |p: usize| (nd + nz + p) as u32;
    let other_id = |scale: usize, i: usize| (nd + nz + np + scale * no + i) as u32;

    // Latent mechanisms.
    let drug_mech: Vec<i8> = (0..nd)
        .map(|_| sample_mechanism(&mut rng, cfg.neutral_prob))
        .collect();
    let disease_mech: Vec<i8> = (0..nz)
        .map(|_| sample_mechanism(&mut rng, cfg.neutral_prob))
        .collect();

    // Drug–protein and disease–protein interactions, signs biased by the
    // endpoint mechanism; remember the signed incidences for labeling.
    let mut drug_proteins: Vec<Vec<(usize, i8)>> = vec![Vec::new(); nd];
    let mut protein_diseases: Vec<Vec<(usize, i8)>> = vec![Vec::new(); np];
    for d in 0..nd {
        let deg = rng.random_range(cfg.drug_degree.0..=cfg.drug_degree.1);
        let mut chosen = BTreeSet::new();
        while chosen.len() < deg.min(np) {
            chosen.insert(rng.random_range(0..np));
        }
        for p in chosen {
            let s = sample_sign(&mut rng, drug_mech[d], cfg.mechanism_bias);
            let etype = if s > 0 {
                relation::DRUG_PROTEIN_POS
            } else {
                relation::DRUG_PROTEIN_NEG
            };
            b.add_edge(drug_id(d), protein_id(p), etype);
            drug_proteins[d].push((p, s));
        }
    }
    for (z, &mech) in disease_mech.iter().enumerate() {
        let deg = rng.random_range(cfg.disease_degree.0..=cfg.disease_degree.1);
        let mut chosen = BTreeSet::new();
        while chosen.len() < deg.min(np) {
            chosen.insert(rng.random_range(0..np));
        }
        for p in chosen {
            let s = sample_sign(&mut rng, mech, cfg.mechanism_bias);
            let etype = if s > 0 {
                relation::DISEASE_PROTEIN_POS
            } else {
                relation::DISEASE_PROTEIN_NEG
            };
            b.add_edge(disease_id(z), protein_id(p), etype);
            protein_diseases[p].push((z, s));
        }
    }

    // Scaffold relations across the remaining scales: (relation, from-range
    // picker, to-range picker, count). These flesh out the 30-relation
    // vocabulary and give hub structure to the other 7 scales.
    let scaffold = |rng: &mut StdRng,
                    b: &mut GraphBuilder,
                    etype: u16,
                    from: &dyn Fn(&mut StdRng) -> u32,
                    to: &dyn Fn(&mut StdRng) -> u32,
                    count: usize| {
        for _ in 0..count {
            let u = from(rng);
            let v = to(rng);
            if u != v {
                b.add_edge(u, v, etype);
            }
        }
    };
    let rand_drug = move |r: &mut StdRng| drug_id(r.random_range(0..nd));
    let rand_disease = move |r: &mut StdRng| disease_id(r.random_range(0..nz));
    let rand_protein = move |r: &mut StdRng| protein_id(r.random_range(0..np));
    let rand_other =
        move |scale: usize| move |r: &mut StdRng| other_id(scale, r.random_range(0..no));
    let per = no * 2;
    scaffold(&mut rng, &mut b, 4, &rand_protein, &rand_protein, np); // ppi+
    scaffold(&mut rng, &mut b, 5, &rand_protein, &rand_protein, np / 2); // ppi-
    scaffold(&mut rng, &mut b, 6, &rand_disease, &rand_other(0), per); // disease-phenotype+
    scaffold(&mut rng, &mut b, 7, &rand_disease, &rand_other(0), per / 2); // disease-phenotype-
    scaffold(&mut rng, &mut b, 8, &rand_drug, &rand_other(0), per); // drug-sideeffect+
    scaffold(&mut rng, &mut b, 9, &rand_drug, &rand_other(0), per / 2); // drug-sideeffect-
    scaffold(&mut rng, &mut b, 10, &rand_other(1), &rand_disease, per); // exposure-disease+
    scaffold(&mut rng, &mut b, 11, &rand_other(1), &rand_disease, per / 2); // exposure-disease-
    scaffold(&mut rng, &mut b, 12, &rand_other(2), &rand_protein, per); // anatomy-protein
    scaffold(&mut rng, &mut b, 13, &rand_other(2), &rand_disease, per); // anatomy-disease
    scaffold(&mut rng, &mut b, 14, &rand_other(3), &rand_protein, per); // pathway-protein
    scaffold(&mut rng, &mut b, 15, &rand_other(3), &rand_drug, per); // pathway-drug
    scaffold(&mut rng, &mut b, 16, &rand_other(4), &rand_protein, per); // bioprocess-protein
    scaffold(&mut rng, &mut b, 17, &rand_other(4), &rand_other(3), per); // bioprocess-pathway
    scaffold(&mut rng, &mut b, 18, &rand_other(5), &rand_protein, per); // cellcomp-protein
    scaffold(&mut rng, &mut b, 19, &rand_other(6), &rand_protein, per); // molfunc-protein
    scaffold(&mut rng, &mut b, 20, &rand_drug, &rand_drug, nd / 2); // drug-drug synergy
    scaffold(&mut rng, &mut b, 21, &rand_drug, &rand_drug, nd / 4); // drug-drug antagonism
    scaffold(&mut rng, &mut b, 22, &rand_disease, &rand_disease, nz / 2); // disease-disease
    scaffold(
        &mut rng,
        &mut b,
        23,
        &rand_other(0),
        &rand_other(0),
        per / 2,
    ); // phenotype-phenotype
    scaffold(
        &mut rng,
        &mut b,
        27,
        &rand_other(1),
        &rand_other(4),
        per / 2,
    ); // exposure-bioprocess
    scaffold(
        &mut rng,
        &mut b,
        28,
        &rand_other(6),
        &rand_other(5),
        per / 2,
    ); // molfunc-cellcomp
    scaffold(
        &mut rng,
        &mut b,
        29,
        &rand_other(2),
        &rand_other(2),
        per / 2,
    ); // anatomy-anatomy

    // Candidate drug–disease pairs: share at least one protein. Class from
    // the mechanism product; indication pairs receive a few extra shared
    // proteins (weak topological signal).
    let mut pool: Vec<LabeledLink> = Vec::new();
    let mut taken: HashSet<(u32, u32)> = HashSet::new();
    for d in 0..nd {
        let mut shared: HashMap<usize, usize> = HashMap::new();
        for &(p, _) in &drug_proteins[d] {
            for &(z, _) in &protein_diseases[p] {
                *shared.entry(z).or_insert(0) += 1;
            }
        }
        let mut diseases: Vec<usize> = shared.keys().copied().collect();
        diseases.sort_unstable();
        for z in diseases {
            if !taken.insert((drug_id(d), disease_id(z))) {
                continue;
            }
            let prod = drug_mech[d] as i32 * disease_mech[z] as i32;
            let class = match prod.signum() {
                1 => 0,  // indication
                -1 => 2, // contra-indication
                _ => 1,  // off-label
            };
            let etype = relation::INDICATION + class as u16;
            b.add_edge(drug_id(d), disease_id(z), etype);
            if class == 0 {
                // Extra shared proteins (topological signal); their signs
                // stay mechanism-consistent so they reinforce rather than
                // corrupt the edge-sign evidence.
                for _ in 0..cfg.indication_extra_shared {
                    let p = rng.random_range(0..np);
                    let sd = sample_sign(&mut rng, drug_mech[d], cfg.mechanism_bias);
                    let sz = sample_sign(&mut rng, disease_mech[z], cfg.mechanism_bias);
                    b.add_edge(
                        drug_id(d),
                        protein_id(p),
                        if sd > 0 {
                            relation::DRUG_PROTEIN_POS
                        } else {
                            relation::DRUG_PROTEIN_NEG
                        },
                    );
                    b.add_edge(
                        disease_id(z),
                        protein_id(p),
                        if sz > 0 {
                            relation::DISEASE_PROTEIN_POS
                        } else {
                            relation::DISEASE_PROTEIN_NEG
                        },
                    );
                }
            }
            pool.push(LabeledLink {
                u: drug_id(d),
                v: disease_id(z),
                class,
            });
        }
    }

    let (train, test) = split_links(pool, cfg.train_links, cfg.test_links, 3, &mut rng);

    // Sign compression: 30 relations → 2-dim positive/negative one-hot
    // (§III-B).
    let rows = (0..NUM_RELATIONS)
        .map(|r| {
            if NEGATIVE_RELATIONS.contains(&(r as u16)) {
                vec![0.0, 1.0]
            } else {
                vec![1.0, 0.0]
            }
        })
        .collect();

    let dataset = Dataset {
        name: "primekg-like",
        graph: b.build(),
        edge_attrs: EdgeAttrTable::from_rows(rows),
        num_classes: 3,
        train,
        test,
        subgraph: SubgraphConfig {
            hops: 2,
            mode: NeighborhoodMode::Intersection,
            max_nodes_per_hop: Some(100),
            seed: cfg.seed,
        },
    };
    dataset.validate();
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdgcnn_graph::graph_digest;

    #[test]
    fn structure_matches_spec() {
        let ds = primekg_like(&PrimeKgConfig::tiny());
        assert_eq!(ds.graph.num_node_types(), 10);
        assert_eq!(ds.graph.num_edge_types(), 30);
        assert_eq!(ds.num_classes, 3);
        assert_eq!(ds.edge_attrs.dim(), 2);
        assert_eq!(ds.train.len(), 45);
        assert_eq!(ds.test.len(), 15);
        assert_eq!(ds.subgraph.mode, NeighborhoodMode::Intersection);
    }

    #[test]
    fn target_links_are_drug_disease_edges() {
        let ds = primekg_like(&PrimeKgConfig::tiny());
        for l in ds.train.iter().chain(ds.test.iter()) {
            assert_eq!(ds.graph.node_type(l.u), node_type::DRUG);
            assert_eq!(ds.graph.node_type(l.v), node_type::DISEASE);
            // The link exists in the graph with the matching relation type.
            let eids = ds.graph.edges_between(l.u, l.v);
            assert!(!eids.is_empty(), "target pair missing from graph");
            let expect = relation::INDICATION + l.class as u16;
            assert!(
                eids.iter().any(|&e| ds.graph.edge(e).etype == expect),
                "relation type must encode the class"
            );
        }
    }

    #[test]
    fn classes_are_reasonably_balanced() {
        let ds = primekg_like(&PrimeKgConfig::default());
        let hist = Dataset::class_histogram(&ds.train, 3);
        for (c, &count) in hist.iter().enumerate() {
            assert!(count >= ds.train.len() / 6, "class {c} starved: {hist:?}");
        }
    }

    #[test]
    fn deterministic_generation() {
        // Two calls in one process must build the same graph, edge order
        // and relation draws included, so the digest is compared and
        // pinned rather than just the edge count.
        let a = primekg_like(&PrimeKgConfig::tiny());
        let b = primekg_like(&PrimeKgConfig::tiny());
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        assert_eq!(graph_digest(&a.graph), graph_digest(&b.graph));
        assert_eq!(graph_digest(&a.graph), 333_419_315);
    }

    #[test]
    fn sign_table_matches_relation_polarity() {
        let ds = primekg_like(&PrimeKgConfig::tiny());
        assert_eq!(ds.edge_attrs.row(relation::DRUG_PROTEIN_POS), &[1.0, 0.0]);
        assert_eq!(ds.edge_attrs.row(relation::DRUG_PROTEIN_NEG), &[0.0, 1.0]);
        assert_eq!(ds.edge_attrs.row(relation::CONTRA_INDICATION), &[0.0, 1.0]);
        assert_eq!(ds.edge_attrs.row(relation::INDICATION), &[1.0, 0.0]);
    }

    #[test]
    fn oracle_on_edge_signs_beats_chance() {
        // Bayes-style oracle: estimate each endpoint's polarity from the
        // majority sign of its protein edges, predict class from the
        // product. This must align with the planted labels far above the
        // 1/3 chance rate — the signal AM-DGCNN is supposed to learn.
        let ds = primekg_like(&PrimeKgConfig::default());
        let polarity = |node: u32| -> i32 {
            let mut s = 0i32;
            for &(nb, eid) in ds.graph.neighbors(node) {
                if ds.graph.node_type(nb) != node_type::PROTEIN {
                    continue;
                }
                match ds.graph.edge(eid).etype {
                    relation::DRUG_PROTEIN_POS | relation::DISEASE_PROTEIN_POS => s += 1,
                    relation::DRUG_PROTEIN_NEG | relation::DISEASE_PROTEIN_NEG => s -= 1,
                    _ => {}
                }
            }
            s
        };
        let mut correct = 0usize;
        for l in &ds.test {
            let pu = polarity(l.u);
            let pv = polarity(l.v);
            // Thresholded product mirrors the generative rule: polar nodes
            // have |sign sum| near bias·degree, neutral ones near zero.
            let pred = if pu.abs() < 3 || pv.abs() < 3 {
                1
            } else if pu.signum() * pv.signum() > 0 {
                0
            } else {
                2
            };
            if pred == l.class {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.test.len() as f64;
        assert!(acc > 0.55, "edge-sign oracle accuracy only {acc}");
    }

    #[test]
    fn train_and_test_are_disjoint() {
        let ds = primekg_like(&PrimeKgConfig::tiny());
        for t in &ds.test {
            assert!(!ds.train.contains(t));
        }
    }
}
