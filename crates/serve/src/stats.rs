//! Serving counters: queries, cache effectiveness, batch latency quantiles.
//!
//! All counters live in an [`amdgcnn_obs`] registry (under `serve/*`
//! names), so one [`amdgcnn_obs::Report`] covers training, pipeline, and
//! serving when the same [`Obs`] handle is threaded through all of them.
//! The collector pre-resolves every handle at construction, keeping the hot
//! path (a cache probe inside the engine) lock-free. Batch-latency
//! quantiles come from the registry's bucketed `serve/engine` histogram,
//! the same rule [`ServerStats::merge`] applies to a fleet, so a single
//! server and a merge of servers report quantiles the same way.

use amdgcnn_obs::{Counter, HistogramSnapshot, Obs, Timer};
use std::time::{Duration, Instant};

/// Internal mutable collector owned by the engine/server.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    obs: Obs,
    queries: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    dedup_hits: Counter,
    stale_serves: Counter,
    cache_invalidated: Counter,
    cache_migrated: Counter,
    batches: Counter,
    shed_overload: Counter,
    shed_degraded: Counter,
    deadline_expired: Counter,
    worker_panics: Counter,
    worker_respawns: Counter,
    breaker_trips: Counter,
    breaker_resets: Counter,
    engine_retries: Counter,
    failed_queries: Counter,
    failovers: Counter,
    hedges: Counter,
    hedge_wins: Counter,
    queue_wait: Timer,
    batch_assembly: Timer,
    engine_latency: Timer,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::with_obs(Obs::enabled())
    }
}

impl StatsCollector {
    /// Build the collector against `obs`, registering the `serve/*`
    /// counters and span timers. [`ServerStats`] snapshots read from the
    /// same registry, so a disabled handle is upgraded to a private
    /// enabled one — serving stats must always count.
    pub(crate) fn with_obs(obs: Obs) -> Self {
        let obs = if obs.is_enabled() {
            obs
        } else {
            Obs::enabled()
        };
        Self {
            queries: obs.counter("serve/queries"),
            cache_hits: obs.counter("serve/cache_hits"),
            cache_misses: obs.counter("serve/cache_misses"),
            dedup_hits: obs.counter("serve/dedup_hits"),
            stale_serves: obs.counter("serve/stale_serves"),
            cache_invalidated: obs.counter("serve/cache_invalidated"),
            cache_migrated: obs.counter("serve/cache_migrated"),
            batches: obs.counter("serve/batches"),
            shed_overload: obs.counter("serve/shed_overload"),
            shed_degraded: obs.counter("serve/shed_degraded"),
            deadline_expired: obs.counter("serve/deadline_expired"),
            worker_panics: obs.counter("serve/worker_panics"),
            worker_respawns: obs.counter("serve/worker_respawns"),
            breaker_trips: obs.counter("serve/breaker_trips"),
            breaker_resets: obs.counter("serve/breaker_resets"),
            engine_retries: obs.counter("serve/engine_retries"),
            failed_queries: obs.counter("serve/failed_queries"),
            failovers: obs.counter("serve/failovers"),
            hedges: obs.counter("serve/hedges"),
            hedge_wins: obs.counter("serve/hedge_wins"),
            queue_wait: obs.timer("serve/queue_wait"),
            batch_assembly: obs.timer("serve/batch_assembly"),
            engine_latency: obs.timer("serve/engine"),
            obs,
        }
    }

    /// The registry behind this collector (for whole-process reports).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    pub(crate) fn record_queries(&self, n: u64) {
        self.queries.add(n);
    }

    pub(crate) fn record_cache_hits(&self, n: u64) {
        self.cache_hits.add(n);
    }

    pub(crate) fn record_cache_misses(&self, n: u64) {
        self.cache_misses.add(n);
    }

    pub(crate) fn record_dedup_hits(&self, n: u64) {
        self.dedup_hits.add(n);
    }

    /// Cache hits whose entry predated the engine's graph generation —
    /// answers that *would* have been stale. They are discarded and
    /// recomputed, so this counter staying 0 is the witness that k-hop
    /// invalidation dropped every affected entry.
    pub(crate) fn record_stale_serves(&self, n: u64) {
        self.stale_serves.add(n);
    }

    /// Cache entries dropped during a graph-generation roll because the
    /// mutation's affected region covered their endpoints.
    pub(crate) fn record_cache_invalidated(&self, n: u64) {
        self.cache_invalidated.add(n);
    }

    /// Cache entries carried across a graph-generation roll untouched.
    pub(crate) fn record_cache_migrated(&self, n: u64) {
        self.cache_migrated.add(n);
    }

    pub(crate) fn record_shed_overload(&self, n: u64) {
        self.shed_overload.add(n);
    }

    pub(crate) fn record_shed_degraded(&self, n: u64) {
        self.shed_degraded.add(n);
    }

    pub(crate) fn record_deadline_expired(&self, n: u64) {
        self.deadline_expired.add(n);
    }

    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.inc();
        self.obs
            .event("serve/worker", || "engine panic caught in batch".into());
    }

    pub(crate) fn record_worker_respawn(&self) {
        self.worker_respawns.inc();
        self.obs
            .event("serve/worker", || "worker respawned by supervisor".into());
    }

    pub(crate) fn record_breaker_trip(&self) {
        self.breaker_trips.inc();
        self.obs.event("serve/breaker", || {
            "tripped open after consecutive failures".into()
        });
    }

    pub(crate) fn record_breaker_reset(&self) {
        self.breaker_resets.inc();
        self.obs
            .event("serve/breaker", || "closed after successful batch".into());
    }

    pub(crate) fn record_engine_retries(&self, n: u64) {
        self.engine_retries.add(n);
    }

    pub(crate) fn record_failed_queries(&self, n: u64) {
        self.failed_queries.add(n);
    }

    /// A query failed over from another replica landed here.
    pub(crate) fn record_failover(&self) {
        self.failovers.inc();
    }

    /// A hedge (tail-latency backup request) was submitted to this replica.
    pub(crate) fn record_hedge(&self) {
        self.hedges.inc();
    }

    /// A hedge submitted to this replica answered before the primary.
    pub(crate) fn record_hedge_win(&self) {
        self.hedge_wins.inc();
    }

    /// Time one request spent queued before its batch was drained.
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// Time spent assembling a batch (first live request seen → drain).
    pub(crate) fn record_batch_assembly(&self, elapsed: Duration) {
        self.batch_assembly.record(elapsed);
    }

    pub(crate) fn record_batch(&self, latency: Duration) {
        self.batches.inc();
        self.engine_latency.record(latency);
    }

    /// Consistent-enough snapshot (counters are read individually; exact
    /// cross-counter consistency is not needed for monitoring).
    pub(crate) fn snapshot(&self) -> ServerStats {
        let queries = self.queries.get();
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let dedup = self.dedup_hits.get();
        let batches = self.batches.get();
        let hist = self.engine_latency.snapshot();
        let hedges = self.hedges.get();
        let hedge_wins = self.hedge_wins.get();
        ServerStats {
            queries_served: queries,
            cache_hits: hits,
            cache_misses: misses,
            dedup_hits: dedup,
            stale_serves: self.stale_serves.get(),
            cache_invalidated: self.cache_invalidated.get(),
            cache_migrated: self.cache_migrated.get(),
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                queries as f64 / batches as f64
            },
            shed_overload: self.shed_overload.get(),
            shed_degraded: self.shed_degraded.get(),
            deadline_expired: self.deadline_expired.get(),
            worker_panics: self.worker_panics.get(),
            worker_respawns: self.worker_respawns.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_resets: self.breaker_resets.get(),
            engine_retries: self.engine_retries.get(),
            failed_queries: self.failed_queries.get(),
            failovers: self.failovers.get(),
            hedges,
            hedge_wins,
            hedge_win_rate: if hedges == 0 {
                0.0
            } else {
                hedge_wins as f64 / hedges as f64
            },
            p50_batch_latency: Duration::from_nanos(hist.quantile_ns(0.50)),
            p99_batch_latency: Duration::from_nanos(hist.quantile_ns(0.99)),
            latency_hist: hist,
        }
    }
}

/// Record queue-wait and assembly timing for one drained batch: each
/// request's time-in-queue plus the overall assembly window.
pub(crate) fn record_drain(stats: &StatsCollector, waits: impl Iterator<Item = Instant>) {
    let now = Instant::now();
    let mut oldest: Option<Duration> = None;
    for enqueued in waits {
        let wait = now.saturating_duration_since(enqueued);
        stats.record_queue_wait(wait);
        oldest = Some(oldest.map_or(wait, |o| o.max(wait)));
    }
    if let Some(window) = oldest {
        stats.record_batch_assembly(window);
    }
}

/// Point-in-time view of a server's throughput and latency counters.
/// `Default` is the all-zero snapshot of a fresh server — the identity of
/// [`merge`](ServerStats::merge).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Total link queries answered.
    pub queries_served: u64,
    /// LRU lookups that found a prepared subgraph cached by an earlier
    /// batch. Does *not* include intra-batch duplicates — those are
    /// [`dedup_hits`](Self::dedup_hits).
    pub cache_hits: u64,
    /// LRU lookups that missed and paid a fresh extraction. Concurrent
    /// `predict` calls racing on the same cold key may each record a miss
    /// (each really does extract), so under contention misses can slightly
    /// overstate distinct cold keys.
    pub cache_misses: u64,
    /// Queries answered by deduplication against an earlier copy of the
    /// same pair *within their own batch*; they never probed the LRU.
    pub dedup_hits: u64,
    /// Cache hits whose entry was tagged with an older graph generation
    /// than the engine's. The hit is discarded and recomputed — a stale
    /// answer is detected, never served — so under correct incremental
    /// invalidation this is always 0 (asserted by the mutation chaos
    /// harness).
    pub stale_serves: u64,
    /// Cache entries dropped during graph-generation rolls because the
    /// committed mutation's k-hop region covered their endpoints.
    pub cache_invalidated: u64,
    /// Cache entries (prepared subgraphs + memoized answers) carried
    /// across graph-generation rolls without recomputation.
    pub cache_migrated: u64,
    /// LRU effectiveness only: `cache_hits / (cache_hits + cache_misses)`,
    /// `0.0` before any lookup. Batch dedup is excluded from both sides.
    pub cache_hit_rate: f64,
    /// Micro-batches executed.
    pub batches: u64,
    /// `queries_served / batches`, `0.0` before any batch.
    pub mean_batch_size: f64,
    /// Queries shed at admission because the bounded queue was full.
    pub shed_overload: u64,
    /// Queries shed at admission because the circuit breaker was open.
    pub shed_degraded: u64,
    /// Queued queries failed because their deadline passed before a batch
    /// slot reached them.
    pub deadline_expired: u64,
    /// Batch executions that ended in a worker panic (each isolated by
    /// `catch_unwind`; callers received [`Error::WorkerPanicked`]).
    ///
    /// [`Error::WorkerPanicked`]: crate::Error::WorkerPanicked
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor after a panic.
    pub worker_respawns: u64,
    /// Times the circuit breaker tripped open after consecutive failures.
    pub breaker_trips: u64,
    /// Times the breaker closed again after a successful cooldown probe.
    pub breaker_resets: u64,
    /// Transient engine faults absorbed by retry-with-backoff.
    pub engine_retries: u64,
    /// Queries resolved with a typed error instead of probabilities
    /// (panics and exhausted retry budgets; sheds are counted separately).
    pub failed_queries: u64,
    /// Queries that failed over from another replica and landed here
    /// (always 0 for a standalone [`BatchServer`]).
    ///
    /// [`BatchServer`]: crate::BatchServer
    pub failovers: u64,
    /// Hedged (tail-latency backup) submissions this replica received.
    pub hedges: u64,
    /// Hedged submissions that answered before the primary they backed up.
    pub hedge_wins: u64,
    /// `hedge_wins / hedges`, `0.0` before any hedge (guarded, like every
    /// other rate on a fresh server).
    pub hedge_win_rate: f64,
    /// Median batch latency since startup: the upper bound of the
    /// [`latency_hist`](Self::latency_hist) bucket holding it, capped at
    /// the largest sample, so it never understates.
    pub p50_batch_latency: Duration,
    /// 99th-percentile batch latency, derived like
    /// [`p50_batch_latency`](Self::p50_batch_latency).
    pub p99_batch_latency: Duration,
    /// Full batch-latency histogram since startup. Plain data: snapshots
    /// from different replicas [`merge`](ServerStats::merge)
    /// commutatively, which is how fleet-level p50/p99 are computed.
    pub latency_hist: HistogramSnapshot,
}

impl ServerStats {
    /// Combine two replicas' snapshots into one fleet-level view.
    ///
    /// Counters add; the latency histograms merge through the commutative,
    /// associative [`HistogramSnapshot::merge`], and the merged p50/p99
    /// are re-derived from the combined histogram (bucket upper bounds, so
    /// they never understate latency). All rates are recomputed from the
    /// merged counters with the same division-by-zero guards a fresh
    /// server gets — merging any snapshot with a fresh one never yields
    /// NaN.
    pub fn merge(&self, other: &ServerStats) -> ServerStats {
        let queries = self.queries_served + other.queries_served;
        let hits = self.cache_hits + other.cache_hits;
        let misses = self.cache_misses + other.cache_misses;
        let batches = self.batches + other.batches;
        let hedges = self.hedges + other.hedges;
        let hedge_wins = self.hedge_wins + other.hedge_wins;
        let hist = self.latency_hist.merge(&other.latency_hist);
        ServerStats {
            queries_served: queries,
            cache_hits: hits,
            cache_misses: misses,
            dedup_hits: self.dedup_hits + other.dedup_hits,
            stale_serves: self.stale_serves + other.stale_serves,
            cache_invalidated: self.cache_invalidated + other.cache_invalidated,
            cache_migrated: self.cache_migrated + other.cache_migrated,
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                queries as f64 / batches as f64
            },
            shed_overload: self.shed_overload + other.shed_overload,
            shed_degraded: self.shed_degraded + other.shed_degraded,
            deadline_expired: self.deadline_expired + other.deadline_expired,
            worker_panics: self.worker_panics + other.worker_panics,
            worker_respawns: self.worker_respawns + other.worker_respawns,
            breaker_trips: self.breaker_trips + other.breaker_trips,
            breaker_resets: self.breaker_resets + other.breaker_resets,
            engine_retries: self.engine_retries + other.engine_retries,
            failed_queries: self.failed_queries + other.failed_queries,
            failovers: self.failovers + other.failovers,
            hedges,
            hedge_wins,
            hedge_win_rate: if hedges == 0 {
                0.0
            } else {
                hedge_wins as f64 / hedges as f64
            },
            p50_batch_latency: Duration::from_nanos(hist.quantile_ns(0.50)),
            p99_batch_latency: Duration::from_nanos(hist.quantile_ns(0.99)),
            latency_hist: hist,
        }
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries in {} batches (mean {:.1}/batch), cache hit rate {:.1}% \
             (+{} batch-dedup), {} stale serves, cache roll {} invalidated / {} migrated, \
             batch latency p50 {:?} p99 {:?}, \
             shed {} overload / {} degraded, {} deadline-expired, {} failed, \
             {} panics ({} respawns), breaker {} trips / {} resets, {} retries, \
             {} failovers, {} hedges ({} won)",
            self.queries_served,
            self.batches,
            self.mean_batch_size,
            self.cache_hit_rate * 100.0,
            self.dedup_hits,
            self.stale_serves,
            self.cache_invalidated,
            self.cache_migrated,
            self.p50_batch_latency,
            self.p99_batch_latency,
            self.shed_overload,
            self.shed_degraded,
            self.deadline_expired,
            self.failed_queries,
            self.worker_panics,
            self.worker_respawns,
            self.breaker_trips,
            self.breaker_resets,
            self.engine_retries,
            self.failovers,
            self.hedges,
            self.hedge_wins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let c = StatsCollector::default();
        let s = c.snapshot();
        assert_eq!(s.queries_served, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.p99_batch_latency, Duration::ZERO);
    }

    #[test]
    fn fresh_server_rates_divide_by_zero_safely() {
        // Pin the divide-by-zero guards: every ratio on a fresh collector
        // is exactly 0.0 (not NaN or ∞), and stays finite when only the
        // numerator side has moved.
        let c = StatsCollector::default();
        let s = c.snapshot();
        assert_eq!(s.cache_hit_rate, 0.0, "no lookups yet → rate 0.0");
        assert_eq!(s.mean_batch_size, 0.0, "no batches yet → mean 0.0");
        assert!(s.cache_hit_rate.is_finite() && s.mean_batch_size.is_finite());
        // Queries recorded without any batch: the mean stays guarded.
        c.record_queries(5);
        let s = c.snapshot();
        assert_eq!(s.mean_batch_size, 0.0);
        // Hits with zero misses: rate is exactly 1.0 (denominator is
        // hits + misses, not misses alone).
        c.record_cache_hits(3);
        let s = c.snapshot();
        assert_eq!(s.cache_hit_rate, 1.0);
        // Display must render a fresh collector without panicking.
        let text = StatsCollector::default().snapshot().to_string();
        assert!(text.contains("0 queries"));
    }

    #[test]
    fn hit_rate_and_quantiles() {
        let c = StatsCollector::default();
        c.record_queries(4);
        c.record_cache_hits(3);
        c.record_cache_misses(1);
        c.record_dedup_hits(2);
        for us in [100u64, 200, 300, 400] {
            c.record_batch(Duration::from_micros(us));
        }
        let s = c.snapshot();
        // Dedup hits are tracked separately and do not dilute the LRU rate.
        assert_eq!(s.cache_hit_rate, 0.75);
        assert_eq!(s.dedup_hits, 2);
        assert_eq!(s.mean_batch_size, 1.0);
        // Quantiles are histogram bucket upper bounds: 200µs lies in the
        // [128, 256)µs bucket; the p99 sample's [256, 512)µs bucket is
        // capped at the largest recorded latency.
        assert_eq!(s.p50_batch_latency, Duration::from_micros(256));
        assert_eq!(s.p99_batch_latency, Duration::from_micros(400));
    }

    #[test]
    fn counters_flow_to_obs_registry() {
        let obs = Obs::enabled();
        let c = StatsCollector::with_obs(obs.clone());
        c.record_queries(7);
        c.record_cache_hits(2);
        c.record_batch(Duration::from_micros(150));
        c.record_queue_wait(Duration::from_micros(40));
        c.record_batch_assembly(Duration::from_micros(60));
        let report = obs.report();
        assert_eq!(report.counter("serve/queries"), Some(7));
        assert_eq!(report.counter("serve/cache_hits"), Some(2));
        assert_eq!(report.counter("serve/batches"), Some(1));
        assert_eq!(report.span("serve/engine").expect("span").count, 1);
        assert_eq!(report.span("serve/queue_wait").expect("span").count, 1);
        assert_eq!(report.span("serve/batch_assembly").expect("span").count, 1);
    }

    #[test]
    fn breaker_transitions_log_events() {
        let obs = Obs::enabled();
        let c = StatsCollector::with_obs(obs.clone());
        c.record_breaker_trip();
        c.record_breaker_reset();
        let report = obs.report();
        assert_eq!(report.counter("serve/breaker_trips"), Some(1));
        assert_eq!(report.counter("serve/breaker_resets"), Some(1));
        let breaker_events: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "serve/breaker")
            .collect();
        assert_eq!(breaker_events.len(), 2);
        assert!(breaker_events[0].detail.contains("tripped"));
        assert!(breaker_events[1].detail.contains("closed"));
    }

    #[test]
    fn disabled_obs_is_upgraded_so_stats_still_count() {
        let c = StatsCollector::with_obs(Obs::disabled());
        c.record_queries(3);
        assert_eq!(c.snapshot().queries_served, 3);
        assert!(c.obs().is_enabled());
    }

    #[test]
    fn robustness_counters_flow_to_snapshot() {
        let c = StatsCollector::default();
        c.record_shed_overload(3);
        c.record_shed_degraded(2);
        c.record_deadline_expired(5);
        c.record_worker_panic();
        c.record_worker_respawn();
        c.record_breaker_trip();
        c.record_breaker_reset();
        c.record_engine_retries(4);
        c.record_failed_queries(7);
        let s = c.snapshot();
        assert_eq!(s.shed_overload, 3);
        assert_eq!(s.shed_degraded, 2);
        assert_eq!(s.deadline_expired, 5);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_resets, 1);
        assert_eq!(s.engine_retries, 4);
        assert_eq!(s.failed_queries, 7);
        let text = s.to_string();
        assert!(text.contains("shed 3 overload"));
        assert!(text.contains("breaker 1 trips"));
    }

    #[test]
    fn fresh_server_hedge_and_failover_rates_divide_by_zero_safely() {
        // The guard that covers cache_hit_rate / mean_batch_size must also
        // cover the fleet-era counters: a fresh server (and a fresh merge)
        // reports exactly 0.0, never NaN.
        let s = StatsCollector::default().snapshot();
        assert_eq!(s.failovers, 0);
        assert_eq!(s.hedges, 0);
        assert_eq!(s.hedge_win_rate, 0.0, "no hedges yet → rate 0.0");
        assert!(s.hedge_win_rate.is_finite());
        let merged = s.merge(&ServerStats::default());
        assert_eq!(merged.hedge_win_rate, 0.0);
        assert!(merged.cache_hit_rate.is_finite() && merged.mean_batch_size.is_finite());
        // Wins with hedges: the rate is exact.
        let c = StatsCollector::default();
        c.record_hedge();
        c.record_hedge();
        c.record_hedge_win();
        let s = c.snapshot();
        assert_eq!(s.hedge_win_rate, 0.5);
        assert!(s.to_string().contains("2 hedges (1 won)"));
    }

    #[test]
    fn merge_sums_counters_and_combines_latency_histograms() {
        let a = StatsCollector::default();
        a.record_queries(10);
        a.record_cache_hits(4);
        a.record_cache_misses(6);
        a.record_batch(Duration::from_micros(100));
        a.record_batch(Duration::from_micros(200));
        a.record_failover();
        let b = StatsCollector::default();
        b.record_queries(5);
        b.record_cache_hits(5);
        b.record_batch(Duration::from_micros(4_000));
        b.record_hedge();
        b.record_hedge_win();
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let m = sa.merge(&sb);
        assert_eq!(m.queries_served, 15);
        assert_eq!(m.batches, 3);
        assert_eq!(m.mean_batch_size, 5.0);
        assert_eq!(m.cache_hit_rate, 9.0 / 15.0);
        assert_eq!(m.failovers, 1);
        assert_eq!(m.hedges, 1);
        assert_eq!(m.hedge_win_rate, 1.0);
        assert_eq!(m.latency_hist.count, 3);
        // Reuses the obs histogram merge: commutative, fresh is identity.
        assert_eq!(m, sb.merge(&sa));
        assert_eq!(
            sa.merge(&ServerStats::default()).latency_hist,
            sa.latency_hist
        );
        // A single server derives its quantiles by the merge's rule, so
        // merging with a fresh server changes nothing at all.
        assert_eq!(sa.merge(&ServerStats::default()), sa);
        assert_eq!(sb.merge(&ServerStats::default()), sb);
        // Merged quantiles come from the combined histogram and never
        // understate: the p99 must see b's 4ms outlier.
        assert!(m.p99_batch_latency >= Duration::from_micros(4_000));
        assert!(m.p50_batch_latency >= Duration::from_micros(100));
    }
}
