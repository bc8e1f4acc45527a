//! OGBL-BioKG-like synthetic biological knowledge graph.
//!
//! Mirrors the properties the paper uses (§IV): 5 node types, 51 relation
//! types, and a 7-way protein–protein link-classification task whose
//! bottleneck is the *tiny number of labeled target links*.
//!
//! Planted signal: every protein belongs to one of 7 latent families. A
//! protein's family is advertised by the relation types of its edges to
//! function nodes (relation `8 + family`, with a small noise rate), and
//! protein–protein target links connect same-family proteins with relation
//! type = family (the 7 classes). An edge-type-blind model can only exploit
//! the mild clustering that within-family linking induces, which is the
//! paper's vanilla-DGCNN ≈ 0.66 AUC regime.

use crate::types::{split_links, Dataset, EdgeAttrTable, LabeledLink};
use amdgcnn_graph::{GraphBuilder, NeighborhoodMode, SubgraphConfig};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeSet, HashSet};

/// Node-type tags.
pub mod node_type {
    /// Protein nodes (the target-link endpoints).
    pub const PROTEIN: u16 = 0;
    /// Drug nodes.
    pub const DRUG: u16 = 1;
    /// Disease nodes.
    pub const DISEASE: u16 = 2;
    /// Molecular-function nodes.
    pub const FUNCTION: u16 = 3;
    /// Side-effect nodes.
    pub const SIDE_EFFECT: u16 = 4;
}

/// Number of protein families = number of target-link classes.
pub const NUM_FAMILIES: usize = 7;
/// Number of relation types.
pub const NUM_RELATIONS: usize = 51;
/// First protein–function relation id; relation `FUNCTION_REL_BASE + f`
/// advertises family `f`.
pub const FUNCTION_REL_BASE: u16 = 8;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct BioKgConfig {
    /// Protein-node count.
    pub num_proteins: usize,
    /// Drug-node count.
    pub num_drugs: usize,
    /// Disease-node count.
    pub num_diseases: usize,
    /// Function-node count.
    pub num_functions: usize,
    /// Side-effect-node count.
    pub num_side_effects: usize,
    /// Protein→function degree range (inclusive).
    pub function_degree: (usize, usize),
    /// Probability a protein–function edge carries a random (wrong-family)
    /// relation type.
    pub function_noise: f64,
    /// Probability a *background* protein–protein edge carries a random
    /// relation type instead of its family's (evidence noise; target links
    /// always keep their exact class relation).
    pub pp_relation_noise: f64,
    /// Probability a *labeled target link* carries a random class instead
    /// of the family class. This is the irreducible noise that caps model
    /// accuracy — the paper's BioKG ceiling (AM-DGCNN ≈ 0.80 AUC) comes
    /// from exactly this scarce/noisy-label regime (§IV).
    pub label_noise: f64,
    /// Within-family protein–protein links per family beyond the labeled
    /// pool (background evidence).
    pub background_links_per_family: usize,
    /// Training-link count (kept small on purpose — the dataset's
    /// bottleneck per §IV).
    pub train_links: usize,
    /// Test-link count.
    pub test_links: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BioKgConfig {
    fn default() -> Self {
        Self {
            num_proteins: 900,
            num_drugs: 300,
            num_diseases: 300,
            num_functions: 250,
            num_side_effects: 250,
            function_degree: (1, 3),
            function_noise: 0.45,
            pp_relation_noise: 0.35,
            label_noise: 0.30,
            background_links_per_family: 800,
            train_links: 360,
            test_links: 120,
            seed: 0xb1046,
        }
    }
}

impl BioKgConfig {
    /// Miniature preset for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_proteins: 140,
            num_drugs: 40,
            num_diseases: 40,
            num_functions: 40,
            num_side_effects: 40,
            background_links_per_family: 20,
            train_links: 70,
            test_links: 28,
            ..Self::default()
        }
    }
}

/// Generate an OGBL-BioKG-like dataset.
pub fn biokg_like(cfg: &BioKgConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let np = cfg.num_proteins;
    let (ndr, ndi, nf, ns) = (
        cfg.num_drugs,
        cfg.num_diseases,
        cfg.num_functions,
        cfg.num_side_effects,
    );

    let mut node_types = Vec::new();
    node_types.extend(std::iter::repeat_n(node_type::PROTEIN, np));
    node_types.extend(std::iter::repeat_n(node_type::DRUG, ndr));
    node_types.extend(std::iter::repeat_n(node_type::DISEASE, ndi));
    node_types.extend(std::iter::repeat_n(node_type::FUNCTION, nf));
    node_types.extend(std::iter::repeat_n(node_type::SIDE_EFFECT, ns));
    let mut b = GraphBuilder::with_node_types(node_types);

    let protein_id = |p: usize| p as u32;
    let drug_id = |d: usize| (np + d) as u32;
    let disease_id = |z: usize| (np + ndr + z) as u32;
    let function_id = |f: usize| (np + ndr + ndi + f) as u32;
    let side_id = |s: usize| (np + ndr + ndi + nf + s) as u32;

    // Latent protein families.
    let family: Vec<usize> = (0..np).map(|_| rng.random_range(0..NUM_FAMILIES)).collect();

    // Family-advertising protein–function edges.
    for (p, &fam) in family.iter().enumerate() {
        let deg = rng.random_range(cfg.function_degree.0..=cfg.function_degree.1);
        let mut chosen = BTreeSet::new();
        while chosen.len() < deg.min(nf) {
            chosen.insert(rng.random_range(0..nf));
        }
        for f in chosen {
            let rel = if rng.random::<f64>() < cfg.function_noise {
                FUNCTION_REL_BASE + rng.random_range(0..NUM_FAMILIES) as u16
            } else {
                FUNCTION_REL_BASE + fam as u16
            };
            b.add_edge(protein_id(p), function_id(f), rel);
        }
    }

    // Scaffold relations 15..=50 across the other node types.
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
    let r_protein = move |r: &mut StdRng| protein_id(r.random_range(0..np));
    let r_drug = move |r: &mut StdRng| drug_id(r.random_range(0..ndr));
    let r_disease = move |r: &mut StdRng| disease_id(r.random_range(0..ndi));
    let r_function = move |r: &mut StdRng| function_id(r.random_range(0..nf));
    let r_side = move |r: &mut StdRng| side_id(r.random_range(0..ns));
    let c = (np / 3).max(8);
    for rel in 15..=20u16 {
        scaffold(&mut rng, &mut b, rel, &r_drug, &r_protein, c);
    }
    for rel in 21..=26u16 {
        scaffold(&mut rng, &mut b, rel, &r_drug, &r_disease, c);
    }
    for rel in 27..=32u16 {
        scaffold(&mut rng, &mut b, rel, &r_disease, &r_protein, c);
    }
    for rel in 33..=38u16 {
        scaffold(&mut rng, &mut b, rel, &r_drug, &r_side, c);
    }
    for rel in 39..=44u16 {
        scaffold(&mut rng, &mut b, rel, &r_disease, &r_function, c / 2);
    }
    for rel in 45..=47u16 {
        scaffold(&mut rng, &mut b, rel, &r_drug, &r_drug, c / 2);
    }
    for rel in 48..=50u16 {
        scaffold(&mut rng, &mut b, rel, &r_disease, &r_disease, c / 2);
    }

    // Protein–protein links, within family only; relation type = family =
    // class. A background population plus the labeled pool.
    let mut per_family: Vec<Vec<usize>> = vec![Vec::new(); NUM_FAMILIES];
    for (p, &f) in family.iter().enumerate() {
        per_family[f].push(p);
    }
    let mut taken: HashSet<(u32, u32)> = HashSet::new();
    let mut sample_pair = |rng: &mut StdRng, members: &[usize]| -> Option<(u32, u32)> {
        if members.len() < 2 {
            return None;
        }
        for _ in 0..64 {
            let a = members[rng.random_range(0..members.len())];
            let bb = members[rng.random_range(0..members.len())];
            if a == bb {
                continue;
            }
            let key = if a < bb {
                (a as u32, bb as u32)
            } else {
                (bb as u32, a as u32)
            };
            if taken.insert(key) {
                return Some(key);
            }
        }
        None
    };

    for (f, members) in per_family.iter().enumerate() {
        for _ in 0..cfg.background_links_per_family {
            if let Some((u, v)) = sample_pair(&mut rng, members) {
                let rel = if rng.random::<f64>() < cfg.pp_relation_noise {
                    rng.random_range(0..NUM_FAMILIES) as u16
                } else {
                    f as u16
                };
                b.add_edge(u, v, rel);
            }
        }
    }
    let mut pool: Vec<LabeledLink> = Vec::new();
    let want = (cfg.train_links + cfg.test_links) * 2;
    'outer: for round in 0..want {
        let f = round % NUM_FAMILIES;
        if let Some((u, v)) = sample_pair(&mut rng, &per_family[f]) {
            // Label noise: the recorded relation (and hence the class to
            // predict) sometimes disagrees with the family evidence.
            let class = if rng.random::<f64>() < cfg.label_noise {
                rng.random_range(0..NUM_FAMILIES)
            } else {
                f
            };
            b.add_edge(u, v, class as u16);
            pool.push(LabeledLink { u, v, class });
            if pool.len() >= want {
                break 'outer;
            }
        }
    }

    let (train, test) = split_links(
        pool,
        cfg.train_links,
        cfg.test_links,
        NUM_FAMILIES,
        &mut rng,
    );

    let dataset = Dataset {
        name: "biokg-like",
        graph: b.build(),
        edge_attrs: EdgeAttrTable::one_hot(NUM_RELATIONS),
        num_classes: NUM_FAMILIES,
        train,
        test,
        subgraph: SubgraphConfig {
            hops: 2,
            mode: NeighborhoodMode::Union,
            max_nodes_per_hop: Some(60),
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
        let ds = biokg_like(&BioKgConfig::tiny());
        assert_eq!(ds.graph.num_node_types(), 5);
        assert_eq!(ds.graph.num_edge_types(), NUM_RELATIONS);
        assert_eq!(ds.num_classes, 7);
        assert_eq!(ds.edge_attrs.dim(), 51);
        assert_eq!(ds.train.len(), 70);
        assert_eq!(ds.test.len(), 28);
    }

    #[test]
    fn target_links_join_proteins_and_match_relation() {
        let ds = biokg_like(&BioKgConfig::tiny());
        for l in ds.train.iter().chain(ds.test.iter()) {
            assert_eq!(ds.graph.node_type(l.u), node_type::PROTEIN);
            assert_eq!(ds.graph.node_type(l.v), node_type::PROTEIN);
            let eids = ds.graph.edges_between(l.u, l.v);
            assert!(eids
                .iter()
                .any(|&e| ds.graph.edge(e).etype == l.class as u16));
        }
    }

    #[test]
    fn function_relations_reveal_family() {
        // Oracle: dominant relation evidence (function relations plus
        // background protein–protein relations) of each endpoint predicts
        // the link class well above the 1/7 ≈ 0.14 chance rate. The 30%
        // target-label noise deliberately bounds any oracle around 0.7.
        let ds = biokg_like(&BioKgConfig::default());
        let family_of = |node: u32| -> usize {
            let mut votes = [0usize; NUM_FAMILIES];
            for &(nb, eid) in ds.graph.neighbors(node) {
                let rel = ds.graph.edge(eid).etype;
                match ds.graph.node_type(nb) {
                    node_type::FUNCTION
                        if (FUNCTION_REL_BASE..FUNCTION_REL_BASE + NUM_FAMILIES as u16)
                            .contains(&rel) =>
                    {
                        votes[(rel - FUNCTION_REL_BASE) as usize] += 1
                    }
                    node_type::PROTEIN if (rel as usize) < NUM_FAMILIES => votes[rel as usize] += 1,
                    _ => {}
                }
            }
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(f, _)| f)
                .unwrap_or(0)
        };
        let mut correct = 0usize;
        for l in &ds.test {
            if family_of(l.u) == l.class || family_of(l.v) == l.class {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.test.len() as f64;
        assert!(acc > 0.45, "relation-evidence oracle accuracy only {acc}");
    }

    #[test]
    fn classes_cover_all_families() {
        let ds = biokg_like(&BioKgConfig::default());
        let hist = Dataset::class_histogram(&ds.train, NUM_FAMILIES);
        for (f, &count) in hist.iter().enumerate() {
            assert!(
                count > 0,
                "family {f} missing from training split: {hist:?}"
            );
        }
    }

    #[test]
    fn deterministic_generation() {
        // Compared and pinned by digest: two calls must agree on edge
        // order and on every relation draw, not just on the edge count.
        let a = biokg_like(&BioKgConfig::tiny());
        let b = biokg_like(&BioKgConfig::tiny());
        assert_eq!(a.train, b.train);
        assert_eq!(graph_digest(&a.graph), graph_digest(&b.graph));
        assert_eq!(graph_digest(&a.graph), 3_385_016_253);
    }

    #[test]
    fn training_split_is_deliberately_small() {
        // The paper's BioKG bottleneck: few labeled target links relative to
        // graph size.
        let ds = biokg_like(&BioKgConfig::default());
        assert!(ds.train.len() < ds.graph.num_nodes() / 4);
    }
}
