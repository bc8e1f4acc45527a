//! The fleet tier: a consistent-hash router over N [`BatchServer`]
//! replicas, each a full single-server stack (engine + cache + breaker +
//! supervised worker) loaded from the *same* model artifact.
//!
//! ## Why a router over replicas
//!
//! A single `BatchServer` is internally hardened but remains one engine on
//! one thread — a single point of failure and a throughput ceiling.
//! Enclosing-subgraph inference shards naturally by `(src, dst)` key: a
//! query's entire working set (the extracted subgraph, its cached answer)
//! is keyed by the pair, so consistent-hash routing gives each replica a
//! disjoint hot set. Each replica's LRU then holds its own shard — the
//! aggregate cache is N× larger with zero coordination — and a replica
//! loss only reshuffles the keys it owned.
//!
//! ## Guarantees
//!
//! - **Correctness under failover.** Every replica loads identical
//!   parameters and the engine forward pass is deterministic, so *any*
//!   replica's answer for a query is bit-identical to a single server's.
//!   Failover and hedging can therefore never produce a wrong answer —
//!   only an answer or a typed [`Error`].
//! - **The fleet invariant.** For any chaos schedule (crashes, drains,
//!   tripped breakers, engine faults) that leaves at least one replica
//!   healthy, every submitted query resolves: correct probabilities or a
//!   typed error, never a hang. Proven under seeded schedules in
//!   `tests/fleet_chaos.rs`.
//! - **Drain without dropped queries.** [`Fleet::drain_replica`] moves a
//!   replica's still-queued requests (reply channels intact) onto ring
//!   successors before shutting it down, so a planned removal completes
//!   without failing a single admitted query.
//!
//! ## Mechanics
//!
//! A query walks its ring order ([`HashRing::route_order`]): submit to the
//! first routable replica, fail over to the next on any typed error, and
//! *hedge* — submit a backup to the next replica while the primary keeps
//! running — when the primary has not answered within
//! [`FleetConfig::hedge_after`]. First successful answer wins; duplicated
//! work is wasted compute, never wrong output.

use crate::engine::{ClassProbs, InferenceEngine, LinkQuery};
use crate::error::Error;
use crate::health::{FleetHealth, ReplicaHealth};
use crate::ring::HashRing;
use crate::server::{BatchConfig, BatchServer, PendingQuery, Request, RobustnessConfig};
use am_dgcnn::fault::{FaultInjector, FleetAction};
use amdgcnn_data::Dataset;
use amdgcnn_graph::AffectedRegion;
use amdgcnn_obs::{Counter, Obs, Timer};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Fleet sizing and policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicas (each a full [`BatchServer`] over its own engine).
    pub replicas: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Per-replica LRU capacity (prepared subgraphs + memoized answers).
    pub cache_capacity: usize,
    /// Batching policy for every replica.
    pub batch: BatchConfig,
    /// Per-replica fault-tolerance policy (queue bound, retries, breaker).
    pub robust: RobustnessConfig,
    /// How long to wait on the primary before hedging the query to the
    /// next ring replica. Bounds tail latency: a replica stuck behind an
    /// injected (or real) slow call stops being the only path to an
    /// answer after this long.
    pub hedge_after: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: 3,
            vnodes: HashRing::DEFAULT_VNODES,
            cache_capacity: 256,
            batch: BatchConfig::default(),
            robust: RobustnessConfig::default(),
            hedge_after: Duration::from_millis(20),
        }
    }
}

/// One replica slot: the live server (if any) plus drain/generation state.
struct Slot {
    server: Option<Arc<BatchServer>>,
    /// Set while a graceful drain is redistributing this replica's queue;
    /// the router skips draining replicas for new queries.
    draining: bool,
    /// Bumped on every respawn, so reports can distinguish incarnations.
    generation: u64,
}

/// Fleet-level counters and the end-to-end query timer, registered under
/// `fleet/*` in the shared observability registry so a single timing
/// report covers the router alongside pipeline and per-stage spans.
struct FleetCounters {
    queries: Counter,
    answered: Counter,
    failed: Counter,
    failovers: Counter,
    hedges: Counter,
    hedge_wins: Counter,
    crashes: Counter,
    respawns: Counter,
    drains: Counter,
    redistributed: Counter,
    health_transitions: Counter,
    graph_rolls: Counter,
    query_latency: Timer,
}

impl FleetCounters {
    fn new(obs: &Obs) -> Self {
        Self {
            queries: obs.counter("fleet/queries"),
            answered: obs.counter("fleet/answered"),
            failed: obs.counter("fleet/failed"),
            failovers: obs.counter("fleet/failovers"),
            hedges: obs.counter("fleet/hedges"),
            hedge_wins: obs.counter("fleet/hedge_wins"),
            crashes: obs.counter("fleet/replica_crashes"),
            respawns: obs.counter("fleet/replica_respawns"),
            drains: obs.counter("fleet/replica_drains"),
            redistributed: obs.counter("fleet/redistributed"),
            health_transitions: obs.counter("fleet/health_transitions"),
            graph_rolls: obs.counter("fleet/graph_rolls"),
            query_latency: obs.timer("fleet/query"),
        }
    }
}

/// A fault-tolerant serving fleet: consistent-hash routing, automatic
/// failover, hedged retries, and live drain/respawn of replicas.
///
/// The fleet owns the artifact bytes and dataset, so a crashed replica can
/// be rebuilt from scratch ([`respawn_replica`](Fleet::respawn_replica))
/// under live traffic. All replica servers reuse the existing supervisor
/// machinery — each replica's worker is respawned by its own supervisor on
/// panics; the fleet only adds the tier above.
pub struct Fleet {
    artifact: Arc<Vec<u8>>,
    /// The served dataset generation. Swapped by
    /// [`roll_graph`](Fleet::roll_graph); respawns and graph rolls always
    /// bind replicas to the current generation.
    ds: RwLock<Arc<Dataset>>,
    /// Graph generation the current dataset belongs to (0 for a static
    /// graph); engines are tagged with it so stale cache hits are
    /// detectable.
    graph_generation: AtomicU64,
    cfg: FleetConfig,
    ring: HashRing,
    slots: Vec<Mutex<Slot>>,
    injectors: Vec<Option<Arc<FaultInjector>>>,
    obs: Obs,
    counters: FleetCounters,
    last_health: Mutex<FleetHealth>,
}

/// Polling granularity while racing a primary against its hedge. Small
/// enough that the winner's extra latency is negligible next to a forward
/// pass, large enough not to spin.
const RACE_POLL: Duration = Duration::from_micros(200);

impl Fleet {
    /// Start `cfg.replicas` replicas, each loading `artifact` against `ds`.
    ///
    /// # Errors
    /// Propagates artifact/engine construction failures (corrupt artifact,
    /// dataset mismatch) from any replica; no fleet is left half-started.
    pub fn start(artifact: Vec<u8>, ds: Dataset, cfg: FleetConfig) -> io::Result<Self> {
        Self::start_with(artifact, ds, cfg, Obs::disabled(), Vec::new())
    }

    /// Start with an observability registry and per-replica fault
    /// injectors (index-aligned; shorter vectors leave the remaining
    /// replicas clean). The injectors persist across respawns: a rebuilt
    /// replica continues its schedule where the crashed incarnation left
    /// off, keeping chaos runs deterministic.
    pub fn start_with(
        artifact: Vec<u8>,
        ds: Dataset,
        cfg: FleetConfig,
        obs: Obs,
        injectors: Vec<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        assert!(cfg.replicas > 0, "a fleet needs at least one replica");
        let mut padded: Vec<Option<Arc<FaultInjector>>> = injectors.into_iter().map(Some).collect();
        padded.resize(cfg.replicas, None);
        // The registry is the only store of the fleet's and its replicas'
        // counters, so a disabled handle is upgraded to a private enabled
        // registry: fleet accounting must always count.
        let obs = if obs.is_enabled() {
            obs
        } else {
            Obs::enabled()
        };
        let counters = FleetCounters::new(&obs);
        let fleet = Self {
            ring: HashRing::with_vnodes(cfg.replicas, cfg.vnodes),
            artifact: Arc::new(artifact),
            ds: RwLock::new(Arc::new(ds)),
            graph_generation: AtomicU64::new(0),
            slots: (0..cfg.replicas)
                .map(|_| {
                    Mutex::new(Slot {
                        server: None,
                        draining: false,
                        generation: 0,
                    })
                })
                .collect(),
            injectors: padded,
            obs,
            counters,
            last_health: Mutex::new(FleetHealth::Healthy),
            cfg,
        };
        for r in 0..fleet.cfg.replicas {
            let server = fleet.build_server(r)?;
            fleet.lock_slot(r).server = Some(Arc::new(server));
        }
        Ok(fleet)
    }

    /// Build a fresh server for replica `r` from the stored artifact,
    /// bound to the *current* dataset generation.
    fn build_server(&self, r: usize) -> io::Result<BatchServer> {
        Ok(BatchServer::start_with(
            self.build_engine(r)?,
            self.cfg.batch,
            self.cfg.robust,
        ))
    }

    fn build_engine(&self, r: usize) -> io::Result<InferenceEngine> {
        let ds = self.dataset();
        let mut engine = InferenceEngine::load(
            self.artifact.as_slice(),
            (*ds).clone(),
            self.cfg.cache_capacity,
        )?
        .with_graph_generation(self.graph_generation.load(Ordering::SeqCst))
        .with_obs(self.obs.clone());
        if let Some(inj) = &self.injectors[r] {
            engine = engine.with_fault_injector(Arc::clone(inj));
        }
        Ok(engine)
    }

    /// The dataset generation the fleet currently serves.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&self.ds.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Graph generation of the served dataset (0 for a static graph).
    pub fn graph_generation(&self) -> u64 {
        self.graph_generation.load(Ordering::SeqCst)
    }

    fn lock_slot(&self, r: usize) -> MutexGuard<'_, Slot> {
        self.slots[r].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The routing ring (for introspection and tests).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shared observability registry: the router's `fleet/*` counters
    /// and spans, and the `serve/*` counters of every replica incarnation,
    /// crashed ones included, summed by name.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of replica slots (live or not).
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// Primary replica for a query, before any health-based spill.
    pub fn route(&self, q: LinkQuery) -> usize {
        self.ring.route(q.0, q.1)
    }

    /// The server to send new traffic to at slot `r`, if the slot is
    /// routable. A live replica with an open breaker is still returned:
    /// its admission gate handles shedding and — crucially — cooldown
    /// probes, which must come from real traffic.
    fn routable_server(&self, r: usize) -> Option<Arc<BatchServer>> {
        let slot = self.lock_slot(r);
        if slot.draining {
            return None;
        }
        slot.server.as_ref().map(Arc::clone)
    }

    /// Answer one link query through the fleet: route by consistent hash,
    /// fail over on typed errors, hedge on tail latency. Returns the
    /// class probabilities (bit-identical to a single server's answer for
    /// the same artifact) or the last typed [`Error`] once every live
    /// replica has been tried.
    pub fn query(&self, q: LinkQuery) -> Result<ClassProbs, Error> {
        self.query_with_deadline(q, None)
    }

    /// Like [`query`](Fleet::query), but each per-replica attempt carries
    /// a queueing deadline: a replica that cannot schedule the query in
    /// `deadline` fails that attempt with [`Error::DeadlineExceeded`] and
    /// the router moves on — a slow replica delays, but cannot absorb, the
    /// query.
    pub fn query_with_deadline(
        &self,
        q: LinkQuery,
        deadline: Option<Duration>,
    ) -> Result<ClassProbs, Error> {
        let span = self.counters.query_latency.start();
        self.counters.queries.inc();
        let outcome = self.query_inner(q, deadline);
        match &outcome {
            Ok(_) => self.counters.answered.inc(),
            Err(_) => self.counters.failed.inc(),
        }
        span.finish();
        outcome
    }

    fn submit_to(
        &self,
        server: &BatchServer,
        q: LinkQuery,
        deadline: Option<Duration>,
    ) -> Result<PendingQuery, Error> {
        match deadline {
            Some(d) => server.submit_with_deadline(q, d),
            None => server.submit(q),
        }
    }

    fn query_inner(&self, q: LinkQuery, deadline: Option<Duration>) -> Result<ClassProbs, Error> {
        let order = self.ring.route_order(q.0, q.1);
        let mut last_err = Error::FleetUnavailable { attempts: 0 };
        let mut attempts = 0u32;
        let mut i = 0usize;
        while i < order.len() {
            let r = order[i];
            i += 1;
            let Some(server) = self.routable_server(r) else {
                continue;
            };
            if attempts > 0 {
                // This query is landing somewhere other than where it
                // would have under full health: a failover.
                self.counters.failovers.inc();
            }
            attempts += 1;
            let pending = match self.submit_to(&server, q, deadline) {
                Ok(p) => p,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match pending.wait_timeout(self.cfg.hedge_after) {
                Some(Ok(probs)) => return Ok(probs),
                Some(Err(e)) => {
                    last_err = e;
                    continue;
                }
                None => {
                    // Tail request: the primary is alive but slow. Hedge to
                    // the next routable replica and take the first answer;
                    // both compute identical probabilities, so the race
                    // can only improve latency, never change the result.
                    let mut hedge: Option<PendingQuery> = None;
                    while i < order.len() && hedge.is_none() {
                        let hr = order[i];
                        i += 1;
                        let Some(backup) = self.routable_server(hr) else {
                            continue;
                        };
                        attempts += 1;
                        if let Ok(p) = self.submit_to(&backup, q, deadline) {
                            self.counters.hedges.inc();
                            hedge = Some(p);
                        }
                    }
                    match hedge {
                        Some(backup_pending) => match self.race(&pending, &backup_pending) {
                            RaceOutcome::Primary(Ok(probs)) => return Ok(probs),
                            RaceOutcome::Hedge(Ok(probs)) => {
                                self.counters.hedge_wins.inc();
                                return Ok(probs);
                            }
                            RaceOutcome::Primary(Err(e)) | RaceOutcome::Hedge(Err(e)) => {
                                last_err = e;
                                continue;
                            }
                        },
                        None => match pending.wait() {
                            Ok(probs) => return Ok(probs),
                            Err(e) => {
                                last_err = e;
                                continue;
                            }
                        },
                    }
                }
            }
        }
        if attempts == 0 {
            last_err = Error::FleetUnavailable { attempts: 0 };
        }
        Err(last_err)
    }

    /// Race a primary pending answer against its hedge. Returns the first
    /// success; if one side fails, blocks on the other; if both fail, the
    /// later error wins.
    fn race(&self, primary: &PendingQuery, hedge: &PendingQuery) -> RaceOutcome {
        let mut primary_done: Option<Result<ClassProbs, Error>> = None;
        let mut hedge_done: Option<Result<ClassProbs, Error>> = None;
        loop {
            if primary_done.is_none() {
                if let Some(out) = primary.wait_timeout(RACE_POLL) {
                    if out.is_ok() || hedge_done.is_some() {
                        return RaceOutcome::Primary(out);
                    }
                    primary_done = Some(out);
                }
            }
            if hedge_done.is_none() {
                if let Some(out) = hedge.wait_timeout(RACE_POLL) {
                    if out.is_ok() || primary_done.is_some() {
                        return RaceOutcome::Hedge(out);
                    }
                    hedge_done = Some(out);
                }
            }
        }
    }

    /// Hard-kill replica `r` (chaos "crash"): its queued queries fail with
    /// [`Error::ServerShutdown`] and their fleet callers immediately fail
    /// over; nothing drains. A no-op on an already-down slot.
    pub fn kill_replica(&self, r: usize) {
        let server = {
            let mut slot = self.lock_slot(r);
            slot.draining = false;
            slot.server.take()
        };
        if let Some(server) = server {
            server.crash();
            self.counters.crashes.inc();
            self.obs
                .event("fleet/replica", || format!("replica {r} crashed"));
        }
        self.note_health();
    }

    /// Rebuild replica `r` from the stored artifact and return it to the
    /// ring. Its keys flow back automatically (consistent hashing is
    /// stateless); its fault injector, if any, resumes its schedule. A
    /// no-op if the slot is already live.
    ///
    /// # Errors
    /// Propagates engine construction failures; the slot stays down.
    pub fn respawn_replica(&self, r: usize) -> io::Result<()> {
        if self.lock_slot(r).server.is_some() {
            return Ok(());
        }
        let server = self.build_server(r)?;
        {
            let mut slot = self.lock_slot(r);
            if slot.server.is_some() {
                // Lost a respawn race; the freshly built server just shuts
                // down on drop.
                return Ok(());
            }
            slot.server = Some(Arc::new(server));
            slot.draining = false;
            slot.generation += 1;
        }
        self.counters.respawns.inc();
        self.obs
            .event("fleet/replica", || format!("replica {r} respawned"));
        self.note_health();
        Ok(())
    }

    /// Gracefully remove replica `r` under live traffic: stop routing to
    /// it, move its still-queued requests to ring successors (reply
    /// channels intact — the callers never see an error), let its
    /// in-flight batch finish, then shut it down. Returns the number of
    /// requests a sibling adopted; a request no sibling can take fails
    /// with [`Error::FleetUnavailable`] and is not counted. A no-op
    /// (returning 0) on a down slot.
    pub fn drain_replica(&self, r: usize) -> usize {
        let server = {
            let mut slot = self.lock_slot(r);
            let Some(server) = slot.server.as_ref().map(Arc::clone) else {
                return 0;
            };
            slot.draining = true;
            server
        };
        self.counters.drains.inc();
        self.obs
            .event("fleet/replica", || format!("replica {r} draining"));
        let moved = self.redistribute_all(server.begin_drain_take_queued());
        {
            let mut slot = self.lock_slot(r);
            slot.server = None;
            slot.draining = false;
        }
        // Dropping our handle lets the server's Drop complete the drain
        // (join the worker after its in-flight batch) once query threads
        // release their clones.
        drop(server);
        self.note_health();
        moved
    }

    /// Re-queue the requests taken from a draining or rolled replica,
    /// each via [`redistribute`](Self::redistribute), and count the ones
    /// placed on `fleet/redistributed`. Returns that count.
    fn redistribute_all(&self, taken: Vec<Request>) -> usize {
        let placed = taken
            .into_iter()
            .map(|req| self.redistribute(req))
            .filter(|&adopted| adopted)
            .count();
        self.counters.redistributed.add(placed as u64);
        placed
    }

    /// Re-queue one taken request onto the next live replica in its ring
    /// order. Returns whether a replica adopted it. If none can, the
    /// caller gets a typed error — redistribution never silently drops a
    /// request.
    fn redistribute(&self, req: Request) -> bool {
        let order = self.ring.route_order(req.query.0, req.query.1);
        let mut req = req;
        for r in order {
            let Some(server) = self.routable_server(r) else {
                continue;
            };
            match server.admit(req) {
                Ok(()) => return true,
                Err((back, _why)) => req = back,
            }
        }
        let _ = req.reply.send(Err(Error::FleetUnavailable { attempts: 0 }));
        false
    }

    /// Roll every replica forward to a freshly committed graph generation
    /// without dropping a single admitted query.
    ///
    /// Protocol, per live replica: build a new engine against `dataset`
    /// (same artifact, new graph snapshot), migrate the old engine's
    /// cache across — entries whose endpoints fall inside `region` are
    /// dropped because the mutation may have changed their enclosing
    /// subgraphs, the rest carry over with prepared subgraphs and
    /// memoized answers intact — start a replacement server, swap it into
    /// the slot, then move the old server's still-queued requests back
    /// onto the ring (reply channels intact; with the replacement live
    /// they are adopted at the same slot). The old incarnation finishes
    /// its in-flight batch on the generation those queries were admitted
    /// under — snapshot isolation, not staleness — and shuts down.
    ///
    /// Down or draining slots are skipped; a later respawn binds them to
    /// the current generation automatically.
    ///
    /// Returns the number of queued requests carried across the swap (a
    /// request no replica can adopt fails typed and is not counted).
    ///
    /// # Errors
    /// Engine construction failure aborts the roll for the remaining
    /// replicas; already-swapped replicas keep serving the new generation
    /// (the dataset swap happens first, so every rebuild binds the new
    /// snapshot).
    pub fn roll_graph(
        &self,
        dataset: Arc<Dataset>,
        region: &AffectedRegion,
        generation: u64,
    ) -> io::Result<usize> {
        *self.ds.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&dataset);
        self.graph_generation.store(generation, Ordering::SeqCst);
        let mut moved = 0usize;
        for r in 0..self.cfg.replicas {
            let old = {
                let slot = self.lock_slot(r);
                if slot.draining {
                    continue;
                }
                match slot.server.as_ref() {
                    Some(s) => Arc::clone(s),
                    None => continue,
                }
            };
            let engine = self.build_engine(r)?;
            engine.migrate_cache_from(old.engine(), region);
            let server = Arc::new(BatchServer::start_with(
                engine,
                self.cfg.batch,
                self.cfg.robust,
            ));
            {
                let mut slot = self.lock_slot(r);
                match &slot.server {
                    Some(cur) if Arc::ptr_eq(cur, &old) => {
                        slot.server = Some(Arc::clone(&server));
                        slot.generation += 1;
                    }
                    // Lost a race against a concurrent crash/drain/swap;
                    // the fresh server just shuts down.
                    _ => {
                        server.begin_shutdown();
                        continue;
                    }
                }
            }
            moved += self.redistribute_all(old.begin_drain_take_queued());
            drop(old);
        }
        self.counters.graph_rolls.inc();
        self.obs.event("fleet/graph", || {
            format!("rolled to graph generation {generation}")
        });
        self.note_health();
        Ok(moved)
    }

    /// Force replica `r`'s circuit breaker open (chaos "open breaker").
    /// No-op on a down slot.
    pub fn trip_replica_breaker(&self, r: usize) {
        if let Some(server) = self.lock_slot(r).server.as_ref() {
            server.trip_breaker();
        }
        self.note_health();
    }

    /// Apply one chaos action from a [`FleetPlan`] schedule.
    ///
    /// [`FleetPlan`]: am_dgcnn::fault::FleetPlan
    ///
    /// # Errors
    /// Only [`FleetAction::Respawn`] can fail (engine rebuild).
    pub fn apply(&self, action: FleetAction) -> io::Result<()> {
        match action {
            FleetAction::Crash { replica } => {
                self.kill_replica(replica);
                Ok(())
            }
            FleetAction::Respawn { replica } => self.respawn_replica(replica),
            FleetAction::Drain { replica } => {
                self.drain_replica(replica);
                Ok(())
            }
            FleetAction::TripBreaker { replica } => {
                self.trip_replica_breaker(replica);
                Ok(())
            }
        }
    }

    /// Current health of each replica slot.
    pub fn replica_health(&self) -> Vec<ReplicaHealth> {
        (0..self.cfg.replicas)
            .map(|r| {
                let slot = self.lock_slot(r);
                match (&slot.server, slot.draining) {
                    (None, _) => ReplicaHealth::Down,
                    (Some(_), true) => ReplicaHealth::Draining,
                    (Some(s), false) if s.breaker_open() => ReplicaHealth::Impaired,
                    (Some(_), false) => ReplicaHealth::Up,
                }
            })
            .collect()
    }

    /// Current fleet-level health (the fold of [`replica_health`]).
    ///
    /// [`replica_health`]: Fleet::replica_health
    pub fn health(&self) -> FleetHealth {
        FleetHealth::from_replicas(&self.replica_health())
    }

    /// Re-derive fleet health and record a transition event if it moved.
    fn note_health(&self) {
        let now = self.health();
        let mut last = self.last_health.lock().unwrap_or_else(|e| e.into_inner());
        if *last != now {
            let from = *last;
            *last = now;
            drop(last);
            self.counters.health_transitions.inc();
            self.obs
                .event("fleet/health", || format!("{from} -> {now}"));
        }
    }

    /// Shut down every live replica, draining their queues. Idempotent;
    /// takes `&self` so shared fleets (behind `Arc`) can be stopped too.
    pub fn shutdown(&self) {
        for r in 0..self.cfg.replicas {
            let server = self.lock_slot(r).server.take();
            if let Some(server) = server {
                server.begin_shutdown();
                drop(server);
            }
        }
    }
}

enum RaceOutcome {
    Primary(Result<ClassProbs, Error>),
    Hedge(Result<ClassProbs, Error>),
}
