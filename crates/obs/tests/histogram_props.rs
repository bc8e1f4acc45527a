//! Property-based tests of histogram snapshots: counts and sums survive a
//! JSON round-trip, and bucket counts, maximum and quantiles stay
//! consistent.

use amdgcnn_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn snapshot_from(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &ns in samples {
        h.record_ns(ns);
    }
    h.snapshot()
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..2_000_000_000, 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_round_trips_through_json(a in samples()) {
        let s = snapshot_from(&a);
        let json = serde_json::to_string(&s).expect("snapshot serializes");
        let back: HistogramSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.count, a.len() as u64);
        prop_assert_eq!(back.sum_ns, a.iter().sum::<u64>());
    }

    #[test]
    fn invariants_hold(a in samples()) {
        let s = snapshot_from(&a);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        prop_assert_eq!(s.max_ns, a.iter().copied().max().unwrap_or(0));
        if s.count > 0 {
            let p50 = s.quantile_ns(0.5);
            let p99 = s.quantile_ns(0.99);
            prop_assert!(p50 <= p99, "quantiles must be monotone: {} > {}", p50, p99);
            prop_assert!(p99 <= s.max_ns.max(1));
        }
    }
}
