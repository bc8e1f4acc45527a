//! The `serve/*` counters and span timers of one engine and its server,
//! resolved once at construction so the hot path (a cache probe inside
//! the engine) is lock-free. The registry is their only store; the crate
//! docs list every name.

use amdgcnn_obs::{Counter, Obs, Timer};
use std::time::{Duration, Instant};

/// The pre-resolved `serve/*` handles an engine and its server count into.
#[derive(Debug)]
pub(crate) struct ServeCounters {
    pub(crate) obs: Obs,
    pub(crate) queries: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) dedup_hits: Counter,
    pub(crate) stale_serves: Counter,
    pub(crate) cache_invalidated: Counter,
    pub(crate) cache_migrated: Counter,
    pub(crate) batches: Counter,
    pub(crate) shed_overload: Counter,
    pub(crate) shed_degraded: Counter,
    pub(crate) deadline_expired: Counter,
    worker_panics: Counter,
    worker_respawns: Counter,
    breaker_trips: Counter,
    breaker_resets: Counter,
    pub(crate) engine_retries: Counter,
    pub(crate) failed_queries: Counter,
    queue_wait: Timer,
    batch_assembly: Timer,
    pub(crate) engine_latency: Timer,
}

impl ServeCounters {
    /// Register the `serve/*` counters and span timers in `obs`. A
    /// disabled handle is upgraded to a private enabled registry: the
    /// registry is the only store of these counters, so serving must
    /// always count.
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
            queue_wait: obs.timer("serve/queue_wait"),
            batch_assembly: obs.timer("serve/batch_assembly"),
            engine_latency: obs.timer("serve/engine"),
            obs,
        }
    }

    pub(crate) fn worker_panic(&self) {
        self.worker_panics.inc();
        self.obs
            .event("serve/worker", || "engine panic caught in batch".into());
    }

    pub(crate) fn worker_respawn(&self) {
        self.worker_respawns.inc();
        self.obs
            .event("serve/worker", || "worker respawned by supervisor".into());
    }

    pub(crate) fn breaker_trip(&self) {
        self.breaker_trips.inc();
        self.obs.event("serve/breaker", || {
            "tripped open after consecutive failures".into()
        });
    }

    pub(crate) fn breaker_reset(&self) {
        self.breaker_resets.inc();
        self.obs
            .event("serve/breaker", || "closed after successful batch".into());
    }

    /// Record queue-wait and assembly timing for one drained batch: each
    /// request's time in the queue plus the overall assembly window.
    pub(crate) fn record_drain(&self, waits: impl Iterator<Item = Instant>) {
        let now = Instant::now();
        let mut oldest: Option<Duration> = None;
        for enqueued in waits {
            let wait = now.saturating_duration_since(enqueued);
            self.queue_wait.record(wait);
            oldest = Some(oldest.map_or(wait, |o| o.max(wait)));
        }
        if let Some(window) = oldest {
            self.batch_assembly.record(window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_flow_to_obs_registry() {
        let obs = Obs::enabled();
        let c = ServeCounters::with_obs(obs.clone());
        c.queries.add(7);
        c.cache_hits.add(2);
        c.batches.inc();
        c.engine_latency.record(Duration::from_micros(150));
        let enqueued = Instant::now();
        c.record_drain([enqueued].into_iter());
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
        let c = ServeCounters::with_obs(obs.clone());
        c.breaker_trip();
        c.breaker_reset();
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
        let c = ServeCounters::with_obs(Obs::disabled());
        c.queries.add(3);
        assert!(c.obs.is_enabled());
        assert_eq!(c.obs.counter("serve/queries").get(), 3);
    }

    #[test]
    fn robustness_counters_flow_to_snapshot() {
        let obs = Obs::enabled();
        let c = ServeCounters::with_obs(obs.clone());
        c.shed_overload.add(3);
        c.shed_degraded.add(2);
        c.deadline_expired.add(5);
        c.worker_panic();
        c.worker_respawn();
        c.breaker_trip();
        c.breaker_reset();
        c.engine_retries.add(4);
        c.failed_queries.add(7);
        let report = obs.report();
        for (name, want) in [
            ("serve/shed_overload", 3),
            ("serve/shed_degraded", 2),
            ("serve/deadline_expired", 5),
            ("serve/worker_panics", 1),
            ("serve/worker_respawns", 1),
            ("serve/breaker_trips", 1),
            ("serve/breaker_resets", 1),
            ("serve/engine_retries", 4),
            ("serve/failed_queries", 7),
        ] {
            assert_eq!(report.counter(name), Some(want), "{name}");
        }
        let worker_events = report
            .events
            .iter()
            .filter(|e| e.name == "serve/worker")
            .count();
        assert_eq!(worker_events, 2);
    }
}
