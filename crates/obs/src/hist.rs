//! Fixed-bucket latency histograms.
//!
//! Recording is one atomic increment plus two atomic adds — safe to call
//! from rayon workers without ordering constraints, because bucket counts
//! and sums are commutative. Snapshots are plain data that round-trip
//! through JSON.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets. Bucket 0 holds sub-microsecond samples; bucket `b`
/// (for `b >= 1`) holds samples in `[2^(b-1), 2^b)` microseconds; the last
/// bucket absorbs everything from ~76 hours up.
pub const NUM_BUCKETS: usize = 40;

/// Exclusive upper bound of bucket `b`, in nanoseconds (the last bucket is
/// unbounded and reports `u64::MAX`).
pub fn bucket_upper_ns(b: usize) -> u64 {
    assert!(b < NUM_BUCKETS, "bucket index out of range");
    if b == NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        1_000u64.saturating_mul(1 << b)
    }
}

fn bucket_index(ns: u64) -> usize {
    let us = ns / 1_000;
    if us == 0 {
        0
    } else {
        // First b with us < 2^b, i.e. the bit length of `us`.
        (64 - us.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Lock-free concurrent histogram with [`NUM_BUCKETS`] exponential buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket contents. Counters are read
    /// individually; a snapshot taken concurrently with recording may be
    /// off by in-flight samples, which is fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: JSON-serializable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Largest sample seen, nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty — never a division by
    /// zero).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile estimate in nanoseconds: the upper bound of
    /// the bucket containing the `q`-quantile sample (0 when empty). An
    /// upper bound rather than an interpolation, so reported quantiles
    /// never understate latency.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_upper_ns(b.min(NUM_BUCKETS - 1)).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 1); // 1µs → [1, 2)µs
        assert_eq!(bucket_index(1_999), 1);
        assert_eq!(bucket_index(2_000), 2);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for ns in [0u64, 1, 1_000, 123_456, 7_000_000, u64::MAX / 2] {
            let b = bucket_index(ns);
            assert!(ns < bucket_upper_ns(b), "{ns} must fall under bound");
            if b > 0 {
                assert!(ns >= bucket_upper_ns(b - 1), "{ns} must exceed lower bound");
            }
        }
    }

    #[test]
    fn record_accumulates_count_sum_max() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(17));
        h.record_ns(500);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 3_000 + 17_000 + 500);
        assert_eq!(s.max_ns, 17_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.quantile_ns(0.5), 0);
        assert_eq!(s.quantile_ns(0.99), 0);
    }

    #[test]
    fn quantile_is_an_upper_bound() {
        let h = Histogram::new();
        for us in [100u64, 200, 300, 400, 5_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert!(s.quantile_ns(0.5) >= 200_000);
        assert!(s.quantile_ns(1.0) >= 5_000_000 || s.quantile_ns(1.0) == s.max_ns);
        assert!(s.quantile_ns(1.0) <= s.max_ns.max(bucket_upper_ns(NUM_BUCKETS - 2)));
    }
}
