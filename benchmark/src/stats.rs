//! Order statistics shared by the workloads and the `compare` report.

use amdgcnn_obs::hist::bucket_upper_ns;
use amdgcnn_obs::HistogramSnapshot;

/// 1-based nearest rank of percentile `p` in a sample of `n`; the small
/// slack keeps `p/100 * n` from rounding up past an exact integer.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// The median and the tail of a sample: its p95, or its highest supported
/// percentile when p95 lacks ten values beyond it (its maximum when even
/// the median does).
pub fn p50_and_tail(values: Vec<f64>) -> (f64, f64) {
    let s = sorted(values);
    let tail = highest_supported_percentile(s.len()).map_or(100.0, |p| p.min(95.0));
    (percentile(&s, 50.0), percentile(&s, tail))
}

/// A tail one stall cannot move: the median, over consecutive windows of
/// `window` values (the last partial one dropped), of each window's
/// percentile `p`. A window should leave ten values beyond `p`. A sample
/// shorter than one window falls back to its own highest supported
/// percentile, at most `p` (its maximum when it has under 20 values).
pub fn windowed_percentile(values: &[f64], p: f64, window: usize) -> f64 {
    if values.len() < window {
        let s = sorted(values.to_vec());
        let q = highest_supported_percentile(s.len()).map_or(100.0, |q| q.min(p));
        return percentile(&s, q);
    }
    let tails: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| percentile(&sorted(w.to_vec()), p))
        .collect();
    median(&tails)
}

/// Run `f`; returns its result and its seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = std::time::Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

/// Sort a sample in place and return it (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    values
}

/// Smallest value of a non-empty sample.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` with the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, the quartiles the spreads in the
/// README are stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => panic!("quartiles of an empty sample"),
        1 => (s[0], s[0], s[0]),
        n => {
            let at = |i: f64| {
                // 1-based position i/4 * (n + 1); like Python, the index is
                // clamped to 1..n-1 and the weight is not.
                let pos = i * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                s[j - 1] + (s[j] - s[j - 1]) * (pos - j as f64)
            };
            (at(1.0), at(2.0), at(3.0))
        }
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quantile `q` (0..=1) of an obs histogram in milliseconds, interpolated
/// linearly within the power-of-two bucket that holds its nearest rank.
/// The histogram's own `quantile_ns` reports the bucket's upper bound, so
/// two runs would read the same value whenever their quantile lands in
/// the same bucket.
pub fn hist_quantile_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = ((h.count as f64 * q).ceil() as u64).clamp(1, h.count);
    let mut seen = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c > 0 && seen + c >= rank {
            let lower = if b == 0 {
                0.0
            } else {
                (1_000u64 << (b - 1)) as f64
            };
            let upper = (bucket_upper_ns(b) as f64).min(h.max_ns as f64).max(lower);
            let within = (rank - seen) as f64 / c as f64;
            return (lower + (upper - lower) * within) * 1e-6;
        }
        seen += c;
    }
    h.max_ns as f64 * 1e-6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Return the heap's free pages to the kernel. The allocator is tuned to
/// keep freed memory (`tune_allocator_for_batching`), so without this a
/// freed set-up would stay resident.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes a plain integer and only releases
        // free memory; no allocation is live-moved or invalidated.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of the run, leaving out the intervals passed to
/// [`PeakRss::excluding`]. The repeated set-ups that `setup_s` takes its
/// median from build a second copy of the set-up's state while the first
/// is alive; counting them would report memory the workload itself never
/// needs.
#[derive(Debug, Default)]
pub struct PeakRss {
    /// Highest peak seen before an excluded interval, MiB.
    before: std::sync::Mutex<f64>,
}

impl PeakRss {
    /// Run `f`, then reset the kernel's high-water mark to the current
    /// resident size (`/proc/self/clear_refs`), so that `f`'s peak does not
    /// count. Whatever `f` allocates must be freed when it returns.
    pub fn excluding<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut before = self.before.lock().expect("peak lock");
        *before = before.max(vm_hwm_mb());
        let r = f();
        release_free_heap();
        // Without the reset (a kernel before 4.0) `f`'s peak counts.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        r
    }

    /// The peak so far, in MiB.
    pub fn mb(&self) -> f64 {
        self.before.lock().expect("peak lock").max(vm_hwm_mb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // The tail is p95 at most, and the maximum of a tiny sample.
        let s: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(p50_and_tail(s), (200.0, 380.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50_and_tail(s), (50.0, 90.0));
        assert_eq!(p50_and_tail(vec![2.0, 9.0, 4.0]), (4.0, 9.0));
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut v = vec![1.0; 5000];
        // One stall: a whole window of slow answers.
        v[1000..2000].fill(50.0);
        assert_eq!(windowed_percentile(&v, 99.0, 1000), 1.0);
        let mut steady: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        assert_eq!(windowed_percentile(&steady, 99.0, 1000), 98.0);
        assert_eq!(windowed_percentile(&steady, 95.0, 200), 94.0);
        // Short samples use their own supported percentile.
        steady.truncate(100);
        assert_eq!(windowed_percentile(&steady, 99.0, 1000), 89.0);
        assert_eq!(windowed_percentile(&[3.0, 1.0], 99.0, 1000), 3.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_the_bucket() {
        let h = amdgcnn_obs::Histogram::new();
        // 100 samples in [2, 4) us and 100 in [4, 8) us.
        for _ in 0..100 {
            h.record_ns(3_000);
            h.record_ns(5_000);
        }
        let s = h.snapshot();
        // Rank 50 is halfway through the [2, 4) us bucket; rank 200 is its
        // last sample, so it reads the observed maximum.
        assert!((hist_quantile_ms(&s, 0.25) - 0.003).abs() < 1e-12);
        assert!((hist_quantile_ms(&s, 1.0) - 0.005).abs() < 1e-12);
        assert!((hist_quantile_ms(&s, 0.75) - 0.0045).abs() < 1e-12);
        assert_eq!(
            hist_quantile_ms(&amdgcnn_obs::Histogram::new().snapshot(), 0.5),
            0.0
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), (0.25, 2.5, 4.75));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
