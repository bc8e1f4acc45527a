//! Double-Radius Node Labeling (Zhang & Chen, 2018), as used by SEAL and
//! this paper (§II-B).
//!
//! Every node of an enclosing subgraph is labeled from its hop distances
//! `(x, y)` to the two target nodes, computed with the target link removed.
//! The two targets receive the distinguished label 1 and nodes unreachable
//! from either target receive the null label 0.
//!
//! Note on the formula: the paper prints
//! `D(x,y) = 1 + min(x,y) + (x+y)[(x+y)/2 + (x+y)%2 − 1]/2`,
//! which under integer arithmetic collides (e.g. `D(2,3) = D(1,5) = 8`).
//! We implement the original SEAL definition
//! `f(x,y) = 1 + min(x,y) + (s/2)·(s/2 + s%2 − 1)` with `s = x + y`,
//! which is the injective mapping the printed variant is transcribing.

use crate::bfs::UNREACHABLE;

/// DRNL label for hop distances `x` (to target a) and `y` (to target b).
///
/// Either input being [`UNREACHABLE`] yields the null label 0. `(0, _)` or
/// `(_, 0)` identifies a target node and yields 1.
pub fn drnl_label(x: u32, y: u32) -> u32 {
    // Target nodes keep their distinctive label even when the other target
    // is unreachable (a target is always "reachable from itself").
    if x == 0 || y == 0 {
        return 1;
    }
    if x == UNREACHABLE || y == UNREACHABLE {
        return 0;
    }
    let s = x + y;
    let half = s / 2;
    1 + x.min(y) + half * (half + s % 2 - 1)
}

/// Label a whole subgraph given per-node distances to the two targets.
pub fn drnl_labels(dist_a: &[u32], dist_b: &[u32]) -> Vec<u32> {
    assert_eq!(dist_a.len(), dist_b.len(), "distance arrays must align");
    dist_a
        .iter()
        .zip(dist_b.iter())
        .map(|(&x, &y)| drnl_label(x, y))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_get_one() {
        assert_eq!(drnl_label(0, 1), 1);
        assert_eq!(drnl_label(1, 0), 1);
        assert_eq!(drnl_label(0, 0), 1);
    }

    #[test]
    fn unreachable_gets_zero() {
        assert_eq!(drnl_label(UNREACHABLE, 2), 0);
        assert_eq!(drnl_label(3, UNREACHABLE), 0);
        assert_eq!(drnl_label(UNREACHABLE, UNREACHABLE), 0);
    }

    #[test]
    fn seal_reference_values() {
        // Hand-computed from f(x,y) = 1 + min + (s/2)(s/2 + s%2 - 1).
        assert_eq!(drnl_label(1, 1), 2);
        assert_eq!(drnl_label(1, 2), 3);
        assert_eq!(drnl_label(2, 1), 3);
        assert_eq!(drnl_label(1, 3), 4);
        assert_eq!(drnl_label(2, 2), 5);
        assert_eq!(drnl_label(1, 4), 6);
        assert_eq!(drnl_label(2, 3), 7);
        assert_eq!(drnl_label(1, 5), 8);
        assert_eq!(drnl_label(2, 4), 9);
        assert_eq!(drnl_label(3, 3), 10);
    }

    #[test]
    fn symmetric() {
        for x in 1..8u32 {
            for y in 1..8u32 {
                assert_eq!(drnl_label(x, y), drnl_label(y, x));
            }
        }
    }

    #[test]
    fn injective_over_unordered_pairs() {
        // Distinct unordered (x, y) pairs map to distinct labels.
        let mut seen = std::collections::HashMap::new();
        for x in 1..12u32 {
            for y in x..12u32 {
                let label = drnl_label(x, y);
                if let Some(prev) = seen.insert(label, (x, y)) {
                    panic!("collision: {prev:?} and {:?} both map to {label}", (x, y));
                }
            }
        }
    }

    #[test]
    fn labels_vector_form() {
        let la = [0, 1, 2, UNREACHABLE];
        let lb = [1, 1, 2, 2];
        assert_eq!(drnl_labels(&la, &lb), vec![1, 2, 5, 0]);
    }
}
