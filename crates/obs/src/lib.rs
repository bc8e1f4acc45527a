//! # amdgcnn-obs
//!
//! Stage-level observability for the AM-DGCNN system: hierarchical timing
//! spans on an injectable [`Clock`], lock-free counters and gauges,
//! fixed-bucket latency [`Histogram`]s, and a bounded
//! ring-buffer event log — all exportable as one JSON [`Report`].
//!
//! ## Design rules
//!
//! - **Observation never feeds back into computation.** Nothing outside
//!   this crate reads the clock or any recorded value on a decision path,
//!   so an instrumented run is bit-identical to an uninstrumented one
//!   (proved by `tests/instrumentation_determinism.rs` at the workspace
//!   root).
//! - **Disabled means near-zero.** [`Obs::disabled`] carries no registry;
//!   every recording call reduces to an `Option` check that the branch
//!   predictor eats. Handles ([`Timer`], [`Counter`], [`Gauge`]) built
//!   from a disabled `Obs` are permanent no-ops.
//! - **Hot paths use handles, not name lookups.** [`Obs::timer`] resolves
//!   the name once (a short registry lock); the returned [`Timer`] then
//!   records with plain atomics, safe to share across rayon workers.
//! - **Names are a slash taxonomy** (`pipeline/sample/khop`,
//!   `train/forward`, `serve/queue_wait`), giving spans their hierarchy
//!   without runtime parent tracking — reports sort lexicographically, so
//!   children list under their parents.

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod hist;
pub mod report;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use events::{Event, EventRing};
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use report::{CounterReport, GaugeReport, Report, SpanReport};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// `Debug` for handle types that only reveal enabled/disabled.
macro_rules! fmt_inner_debug {
    ($ty:ty, $name:literal) => {
        impl std::fmt::Debug for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct($name)
                    .field("enabled", &self.inner.is_some())
                    .finish()
            }
        }
    };
}

/// Default capacity of the event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

struct Registry {
    clock: Arc<dyn Clock>,
    timers: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    events: Mutex<EventRing>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// Handle on an observability registry — the one type instrumented code
/// holds. Cloning is cheap (an `Arc` bump) and every clone records into the
/// same registry, so a trainer and a server can share one report.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Registry>>,
}

impl Obs {
    /// A no-op handle: every recording call is an `Option` check, reports
    /// are empty. This is the default everywhere, so uninstrumented use
    /// pays nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled registry on the production [`MonotonicClock`].
    pub fn enabled() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An enabled registry on an explicit clock (tests inject
    /// [`FakeClock`] here to pin exact histogram contents).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Some(Arc::new(Registry {
                clock,
                timers: RwLock::new(BTreeMap::new()),
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                events: Mutex::new(EventRing::new(DEFAULT_EVENT_CAPACITY)),
            })),
        }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolve (or register) the named span timer. Do this once outside a
    /// hot loop; the returned handle records lock-free.
    pub fn timer(&self, name: &str) -> Timer {
        let Some(reg) = &self.inner else {
            return Timer { inner: None };
        };
        let hist = get_or_insert(&reg.timers, name, || Arc::new(Histogram::new()));
        Timer {
            inner: Some(TimerInner {
                hist,
                clock: Arc::clone(&reg.clock),
            }),
        }
    }

    /// Resolve (or register) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(reg) = &self.inner else {
            return Counter { inner: None };
        };
        Counter {
            inner: Some(get_or_insert(&reg.counters, name, || {
                Arc::new(AtomicU64::new(0))
            })),
        }
    }

    /// Resolve (or register) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(reg) = &self.inner else {
            return Gauge { inner: None };
        };
        Gauge {
            inner: Some(get_or_insert(&reg.gauges, name, || {
                Arc::new(AtomicI64::new(0))
            })),
        }
    }

    /// Start a one-off span (convenience over `timer(name).start()` for
    /// cold paths; hot loops should hold the [`Timer`]).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.timer(name).start()
    }

    /// Log an event. `detail` is only evaluated when the handle is
    /// enabled, so formatting costs nothing in the disabled build.
    pub fn event(&self, name: &str, detail: impl FnOnce() -> String) {
        if let Some(reg) = &self.inner {
            let event = Event {
                at_ns: reg.clock.now_ns(),
                name: name.to_string(),
                detail: detail(),
            };
            reg.events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(event);
        }
    }

    /// Current clock reading in nanoseconds (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.clock.now_ns())
    }

    /// Export everything recorded so far. Disabled handles return an empty
    /// report.
    pub fn report(&self) -> Report {
        let Some(reg) = &self.inner else {
            return Report::default();
        };
        let spans = reg
            .timers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, hist)| SpanReport::from_snapshot(name.clone(), hist.snapshot()))
            .collect();
        let counters = reg
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, v)| CounterReport {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = reg
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, v)| GaugeReport {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let ring = reg.events.lock().unwrap_or_else(|e| e.into_inner());
        Report {
            spans,
            counters,
            gauges,
            events: ring.to_vec(),
            events_dropped: ring.dropped(),
        }
    }
}

fn get_or_insert<T: Clone>(
    map: &RwLock<BTreeMap<String, T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return v.clone();
    }
    map.write()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name.to_string())
        .or_insert_with(make)
        .clone()
}

struct TimerInner {
    hist: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

/// Pre-resolved handle on one named span: starting, stopping, and direct
/// duration recording are lock-free (atomics only), so a `Timer` can be
/// shared by reference across rayon workers.
pub struct Timer {
    inner: Option<TimerInner>,
}

fmt_inner_debug!(Timer, "Timer");

impl Timer {
    /// Begin a span; the returned guard records the elapsed time into this
    /// timer's histogram when dropped (or at an explicit
    /// [`finish`](SpanGuard::finish)).
    pub fn start(&self) -> SpanGuard {
        SpanGuard {
            inner: self.inner.as_ref().map(|t| GuardInner {
                started_ns: t.clock.now_ns(),
                hist: Arc::clone(&t.hist),
                clock: Arc::clone(&t.clock),
            }),
        }
    }

    /// Record an externally measured duration (e.g. a queue wait computed
    /// from request timestamps).
    pub fn record(&self, d: Duration) {
        if let Some(t) = &self.inner {
            t.hist.record(d);
        }
    }

    /// Record an externally measured duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        if let Some(t) = &self.inner {
            t.hist.record_ns(ns);
        }
    }

    /// Samples recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |t| t.hist.count())
    }

    /// Plain-data copy of this timer's histogram (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |t| t.hist.snapshot())
    }
}

struct GuardInner {
    started_ns: u64,
    hist: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

/// RAII span: measures from [`Timer::start`] to drop.
#[must_use = "a span guard measures until dropped; binding it to `_` drops immediately"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

impl SpanGuard {
    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            g.hist
                .record_ns(g.clock.now_ns().saturating_sub(g.started_ns));
        }
    }
}

fmt_inner_debug!(SpanGuard, "SpanGuard");

/// Monotone event counter.
#[derive(Debug, Clone)]
pub struct Counter {
    inner: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Instantaneous signed level (queue depth, live worker count).
#[derive(Debug, Clone)]
pub struct Gauge {
    inner: Option<Arc<AtomicI64>>,
}

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.inner {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.inner {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.inner.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let t = obs.timer("x");
        t.record(Duration::from_secs(1));
        drop(t.start());
        let c = obs.counter("y");
        c.inc();
        assert_eq!(c.get(), 0);
        obs.event("z", || unreachable!("detail must not be evaluated"));
        assert_eq!(obs.report(), Report::default());
    }

    #[test]
    fn fake_clock_pins_span_durations() {
        let clock = Arc::new(FakeClock::new());
        let obs = Obs::with_clock(clock.clone());
        let t = obs.timer("stage/a");
        let guard = t.start();
        clock.advance(Duration::from_micros(250));
        guard.finish();
        let report = obs.report();
        let span = report.span("stage/a").expect("span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(span.total_ns, 250_000);
        assert_eq!(span.max_ns, 250_000);
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let other = obs.clone();
        other.counter("shared").add(3);
        obs.counter("shared").add(4);
        assert_eq!(obs.report().counter("shared"), Some(7));
    }

    #[test]
    fn gauges_move_both_ways() {
        let obs = Obs::enabled();
        let g = obs.gauge("depth");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(obs.report().gauge("depth"), Some(-1));
    }

    #[test]
    fn events_flow_to_report_with_fake_time() {
        let clock = Arc::new(FakeClock::new());
        let obs = Obs::with_clock(clock.clone());
        clock.advance_ns(42);
        obs.event("serve/breaker", || "trip".into());
        let report = obs.report();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].at_ns, 42);
        assert_eq!(report.events[0].detail, "trip");
        assert_eq!(report.events_dropped, 0);
    }

    #[test]
    fn timers_are_safe_across_threads() {
        let obs = Obs::enabled();
        let t = obs.timer("parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        t.record_ns(10);
                    }
                });
            }
        });
        assert_eq!(t.count(), 400);
        assert_eq!(obs.report().span("parallel").expect("span").total_ns, 4_000);
    }

    #[test]
    fn report_spans_sort_by_name() {
        let obs = Obs::enabled();
        obs.timer("b/second").record_ns(1);
        obs.timer("a/first").record_ns(1);
        let report = obs.report();
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a/first", "b/second"]);
    }
}
