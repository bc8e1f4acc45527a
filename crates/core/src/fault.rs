//! Deterministic fault injection shared by the trainer and the serving
//! layer.
//!
//! Production GNN stacks treat worker crashes, slow calls, transient
//! backend errors, and numerical divergence as expected events. Testing the
//! recovery machinery with real faults (killing threads, racing timers) is
//! flaky by construction, so instead every fault-tolerant component in this
//! workspace consults a [`FaultInjector`]: a seeded, counter-driven
//! schedule that decides — purely from the plan, the seed, and how many
//! times it has been asked — whether the next engine call should panic,
//! fail transiently, or run slow, and whether a training epoch's loss or
//! checkpoint should be corrupted.
//!
//! Determinism contract: with a single consumer per counter (one batch
//! worker, one trainer), the sequence of decisions is a pure function of
//! the [`FaultPlan`]. Rate-based faults draw from an RNG seeded by
//! `plan.seed`, so re-running the same plan against the same call sequence
//! replays the same faults.

use amdgcnn_tensor::DiskFault;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A fault decision for one engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// The call panics (simulating a crashed batch worker).
    Panic,
    /// The call fails with a retryable [`TransientFault`].
    Transient,
    /// The call succeeds but only after the given artificial delay.
    Latency(Duration),
}

/// Retryable error returned by an engine call under transient-fault
/// injection (and, in a real deployment, by flaky backends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransientFault {
    /// 1-based index of the engine call that failed.
    pub call: u64,
}

impl std::fmt::Display for TransientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transient engine fault injected at call {}", self.call)
    }
}

impl std::error::Error for TransientFault {}

/// Declarative fault schedule. All fields default to "never fault"; engine
/// faults are decided per call with precedence panic > transient > latency
/// (at most one fault per call).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the rate-based draws below.
    pub seed: u64,
    /// Panic on every n-th engine call (calls are 1-based; fires when
    /// `call % n == 0`).
    pub panic_every_n_calls: Option<u64>,
    /// Per-call panic probability in `[0, 1]`, drawn from the seeded RNG.
    pub panic_rate: f64,
    /// Transient failure on every n-th engine call.
    pub transient_every_n_calls: Option<u64>,
    /// Transient failure on exactly these 1-based engine calls.
    pub transient_calls: Vec<u64>,
    /// Per-call transient-failure probability in `[0, 1]`.
    pub transient_rate: f64,
    /// Artificial latency injected on every n-th engine call.
    pub latency_every_n_calls: Option<u64>,
    /// The injected delay (defaults to zero — set it together with
    /// `latency_every_n_calls`).
    pub latency: Duration,
    /// Force the training loss to NaN on the *first attempt* of these
    /// epochs (1-based). Retries of the same epoch run clean, modelling a
    /// transient numerical glitch the watchdog can recover from.
    pub nan_loss_epochs: Vec<usize>,
    /// Force the training loss to NaN on *every attempt* of these epochs,
    /// modelling genuine divergence that exhausts the retry budget.
    pub persistent_nan_loss_epochs: Vec<usize>,
    /// Corrupt the watchdog's rollback checkpoint taken at these epochs
    /// (1-based), so restoring it must be detected and refused.
    pub corrupt_checkpoint_epochs: Vec<usize>,
    /// Tear these 1-based durable writes: the file is renamed into place
    /// holding only a prefix of its bytes (a crash racing writeback).
    pub torn_write_saves: Vec<u64>,
    /// Flip one bit in the middle of these 1-based durable writes,
    /// modelling silent media corruption only checksums can catch.
    pub bit_flip_saves: Vec<u64>,
    /// Abort these 1-based durable writes before the atomic rename: the
    /// destination file never changes and a stale `.tmp` is left behind
    /// (a crash before commit).
    pub partial_flush_saves: Vec<u64>,
}

impl FaultPlan {
    /// Shorthand: panic every `n` engine calls.
    pub fn panic_every(n: u64) -> Self {
        Self {
            panic_every_n_calls: Some(n),
            ..Self::default()
        }
    }

    /// Shorthand: transient failure on the given 1-based calls.
    pub fn transient_on(calls: &[u64]) -> Self {
        Self {
            transient_calls: calls.to_vec(),
            ..Self::default()
        }
    }

    /// True when some engine-call fault can fire (training-side faults are
    /// not considered).
    pub fn engine_faults_possible(&self) -> bool {
        self.panic_every_n_calls.is_some()
            || self.panic_rate > 0.0
            || self.transient_every_n_calls.is_some()
            || !self.transient_calls.is_empty()
            || self.transient_rate > 0.0
            || self.latency_every_n_calls.is_some()
    }
}

/// Thread-safe executor of a [`FaultPlan`]: counts engine calls and answers
/// fault queries deterministically.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    calls: AtomicU64,
    saves: AtomicU64,
    rng: Mutex<StdRng>,
}

impl FaultInjector {
    /// Injector executing `plan` from call zero.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xfa01_7fa0);
        Self {
            plan,
            calls: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            rng: Mutex::new(rng),
        }
    }

    /// Number of engine calls observed so far.
    pub fn engine_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Decide the fault (if any) for the next engine call and advance the
    /// call counter.
    pub fn next_engine_fault(&self) -> Option<EngineFault> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let p = &self.plan;
        let hit = |every: Option<u64>, explicit: &[u64], rate: f64| {
            every.is_some_and(|n| n > 0 && call.is_multiple_of(n))
                || explicit.contains(&call)
                || (rate > 0.0 && {
                    let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
                    rng.random_range(0.0..1.0) < rate
                })
        };
        if hit(p.panic_every_n_calls, &[], p.panic_rate) {
            return Some(EngineFault::Panic);
        }
        if hit(
            p.transient_every_n_calls,
            &p.transient_calls,
            p.transient_rate,
        ) {
            return Some(EngineFault::Transient);
        }
        if p.latency_every_n_calls
            .is_some_and(|n| n > 0 && call.is_multiple_of(n))
        {
            return Some(EngineFault::Latency(p.latency));
        }
        None
    }

    /// Should the loss of `epoch` (1-based) at the given 0-based retry
    /// `attempt` be forced to NaN?
    pub fn nan_loss(&self, epoch: usize, attempt: usize) -> bool {
        (attempt == 0 && self.plan.nan_loss_epochs.contains(&epoch))
            || self.plan.persistent_nan_loss_epochs.contains(&epoch)
    }

    /// Should the rollback checkpoint taken at `epoch` be corrupted?
    pub fn corrupt_checkpoint(&self, epoch: usize) -> bool {
        self.plan.corrupt_checkpoint_epochs.contains(&epoch)
    }

    /// Decide the durability fault (if any) for the next durable write and
    /// advance the save counter. Wired through the disk checkpoint path
    /// (`am_dgcnn::checkpoint`, `amdgcnn_serve::save_model_file`), so every
    /// crash-recovery branch is reachable deterministically. Precedence on
    /// a collision: torn write > bit flip > partial flush.
    pub fn next_disk_fault(&self) -> Option<DiskFault> {
        let save = self.saves.fetch_add(1, Ordering::Relaxed) + 1;
        let p = &self.plan;
        if p.torn_write_saves.contains(&save) {
            return Some(DiskFault::TornWrite);
        }
        if p.bit_flip_saves.contains(&save) {
            return Some(DiskFault::BitFlip);
        }
        if p.partial_flush_saves.contains(&save) {
            return Some(DiskFault::PartialFlush);
        }
        None
    }
}

/// One fleet-scoped chaos action, applied to a replica of a serving fleet
/// between two queries. Actions are *topology* faults — they kill, drain,
/// or degrade whole replicas — and compose with the per-call engine faults
/// of each replica's own [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Hard-kill the replica: its queued requests are failed (the router
    /// redistributes the callers), nothing drains.
    Crash {
        /// Replica index.
        replica: usize,
    },
    /// Rebuild a previously crashed/drained replica from the artifact and
    /// put it back in rotation.
    Respawn {
        /// Replica index.
        replica: usize,
    },
    /// Gracefully drain the replica: stop routing to it, move its queued
    /// requests to ring successors, let in-flight work finish.
    Drain {
        /// Replica index.
        replica: usize,
    },
    /// Force the replica's circuit breaker open, as a run of consecutive
    /// batch failures would.
    TripBreaker {
        /// Replica index.
        replica: usize,
    },
}

impl FleetAction {
    /// The replica this action targets.
    pub fn replica(&self) -> usize {
        match *self {
            FleetAction::Crash { replica }
            | FleetAction::Respawn { replica }
            | FleetAction::Drain { replica }
            | FleetAction::TripBreaker { replica } => replica,
        }
    }
}

/// A [`FleetAction`] pinned to a position in the query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Fire just before the `at_query`-th submitted query (1-based).
    pub at_query: u64,
    /// What to do.
    pub action: FleetAction,
}

/// A graph-mutation burst pinned to a position in the query stream: the
/// chaos driver generates `ops` concrete mutations (deterministically,
/// from the plan seed and the burst's position) and commits them as one
/// batch through the graph store, optionally under an injected WAL
/// [`DiskFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationEvent {
    /// Commit just before the `at_query`-th submitted query (1-based).
    pub at_query: u64,
    /// Number of mutation operations in this burst (≥ 1).
    pub ops: u32,
    /// Durability fault injected into the WAL append for this batch. A
    /// faulted batch must be *rejected* by a validated commit — the live
    /// graph stays on its previous generation.
    pub disk_fault: Option<DiskFault>,
}

/// A deterministic fleet-wide chaos schedule: topology events positioned in
/// the query stream plus one engine-level [`FaultPlan`] per replica.
///
/// Generated schedules ([`FleetPlan::chaos`]) keep one *protected* replica
/// that is never crashed, drained, breaker-tripped, or given engine
/// faults, so at least one healthy replica exists at every point of the
/// run — the precondition of the fleet invariant ("every query is answered
/// correctly or fails with a typed error").
#[derive(Debug, Clone, Default)]
pub struct FleetPlan {
    /// Seed the schedule was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Number of replicas the plan targets.
    pub replicas: usize,
    /// The replica index guaranteed untouched by every fault in this plan.
    pub protected: usize,
    /// Topology events, sorted by [`FleetEvent::at_query`].
    pub events: Vec<FleetEvent>,
    /// Per-replica engine fault plans (index-aligned; the protected
    /// replica's plan is quiet).
    pub engine_plans: Vec<FaultPlan>,
    /// Graph-mutation bursts, sorted by [`MutationEvent::at_query`]
    /// (empty for static-graph chaos runs).
    pub mutations: Vec<MutationEvent>,
}

impl FleetPlan {
    /// Generate a seeded chaos schedule for `replicas` replicas over a run
    /// of `queries` queries, with roughly `events` topology events.
    ///
    /// The generator tracks which replicas it has taken down so it only
    /// crashes/drains live ones and only respawns dead ones, and it never
    /// targets the protected replica (`seed % replicas`), keeping the
    /// ≥1-healthy-replica precondition true throughout the run by
    /// construction.
    pub fn chaos(seed: u64, replicas: usize, queries: u64, events: usize) -> Self {
        assert!(replicas > 0, "a fleet plan needs at least one replica");
        let protected = (seed % replicas as u64) as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_7c4a);
        let mut steps: Vec<u64> = (0..events)
            .map(|_| rng.random_range(1..=queries.max(1)))
            .collect();
        steps.sort_unstable();
        let mut alive = vec![true; replicas];
        let mut planned = Vec::with_capacity(events);
        for at_query in steps {
            let up: Vec<usize> = (0..replicas)
                .filter(|&r| r != protected && alive[r])
                .collect();
            let down: Vec<usize> = (0..replicas).filter(|&r| !alive[r]).collect();
            // Bias toward respawns once replicas are down so the fleet
            // oscillates instead of decaying to protected-only.
            let action = if !down.is_empty() && rng.random_range(0.0..1.0) < 0.55 {
                let replica = down[rng.random_range(0..down.len())];
                alive[replica] = true;
                FleetAction::Respawn { replica }
            } else if !up.is_empty() {
                let replica = up[rng.random_range(0..up.len())];
                match rng.random_range(0u32..4) {
                    0 | 1 => {
                        alive[replica] = false;
                        FleetAction::Crash { replica }
                    }
                    2 => {
                        alive[replica] = false;
                        FleetAction::Drain { replica }
                    }
                    _ => FleetAction::TripBreaker { replica },
                }
            } else {
                // Everything but the protected replica is down and nothing
                // is respawnable (single-replica fleet): skip this slot.
                continue;
            };
            planned.push(FleetEvent { at_query, action });
        }
        let engine_plans = (0..replicas)
            .map(|r| {
                if r == protected {
                    FaultPlan::default()
                } else {
                    FaultPlan {
                        seed: seed.wrapping_mul(1_000_003).wrapping_add(r as u64),
                        panic_rate: 0.01,
                        transient_rate: 0.03,
                        latency_every_n_calls: Some(17),
                        latency: Duration::from_micros(500),
                        ..FaultPlan::default()
                    }
                }
            })
            .collect();
        Self {
            seed,
            replicas,
            protected,
            events: planned,
            engine_plans,
            mutations: Vec::new(),
        }
    }

    /// [`chaos`](Self::chaos) plus a seeded schedule of `bursts`
    /// graph-mutation bursts of 1..=`max_ops` operations each, positioned
    /// across the query stream. Roughly one burst in six carries an
    /// injected WAL [`DiskFault`] (cycling torn write / bit flip /
    /// partial flush), exercising the validated-commit rejection path
    /// interleaved with replica crashes and drains.
    pub fn chaos_with_mutations(
        seed: u64,
        replicas: usize,
        queries: u64,
        events: usize,
        bursts: usize,
        max_ops: u32,
    ) -> Self {
        let mut plan = Self::chaos(seed, replicas, queries, events);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut positions: Vec<u64> = (0..bursts)
            .map(|_| rng.random_range(1..=queries.max(1)))
            .collect();
        positions.sort_unstable();
        plan.mutations = positions
            .into_iter()
            .map(|at_query| {
                let ops = rng.random_range(1..=max_ops.max(1));
                let disk_fault = if rng.random_range(0u32..6) == 0 {
                    Some(match rng.random_range(0u32..3) {
                        0 => DiskFault::TornWrite,
                        1 => DiskFault::BitFlip,
                        _ => DiskFault::PartialFlush,
                    })
                } else {
                    None
                };
                MutationEvent {
                    at_query,
                    ops,
                    disk_fault,
                }
            })
            .collect();
        plan
    }

    /// True when any event, engine plan, or mutation burst can fire.
    pub fn faults_possible(&self) -> bool {
        !self.events.is_empty()
            || !self.mutations.is_empty()
            || self
                .engine_plans
                .iter()
                .any(FaultPlan::engine_faults_possible)
    }
}

/// Thread-safe executor of a [`FleetPlan`]'s topology events: counts
/// submitted queries and hands out the actions scheduled before each one.
///
/// Like [`FaultInjector`], determinism holds with a single consumer: one
/// chaos driver calling [`FleetInjector::actions_for_next_query`] per
/// submitted query replays the same action sequence for the same plan.
#[derive(Debug)]
pub struct FleetInjector {
    plan: FleetPlan,
    queries: AtomicU64,
    cursor: Mutex<usize>,
    mutation_cursor: Mutex<usize>,
}

impl FleetInjector {
    /// Executor over `plan`, starting before query 1.
    pub fn new(plan: FleetPlan) -> Self {
        debug_assert!(
            plan.events
                .windows(2)
                .all(|w| w[0].at_query <= w[1].at_query),
            "fleet events must be sorted by at_query"
        );
        debug_assert!(
            plan.mutations
                .windows(2)
                .all(|w| w[0].at_query <= w[1].at_query),
            "mutation events must be sorted by at_query"
        );
        Self {
            plan,
            queries: AtomicU64::new(0),
            cursor: Mutex::new(0),
            mutation_cursor: Mutex::new(0),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FleetPlan {
        &self.plan
    }

    /// Queries observed so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Advance to the next query and return every action scheduled at or
    /// before it that has not fired yet (events land "just before" their
    /// query, so an event at query `n` is returned by the `n`-th call).
    pub fn actions_for_next_query(&self) -> Vec<FleetAction> {
        let query = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cursor = self.cursor.lock().unwrap_or_else(|e| e.into_inner());
        let mut fired = Vec::new();
        while *cursor < self.plan.events.len() && self.plan.events[*cursor].at_query <= query {
            fired.push(self.plan.events[*cursor].action);
            *cursor += 1;
        }
        fired
    }

    /// Every mutation burst scheduled at or before `query` (1-based) that
    /// has not fired yet. Drive it with the same query index the
    /// [`actions_for_next_query`](Self::actions_for_next_query) call just
    /// advanced to ([`queries`](Self::queries)), so topology actions and
    /// mutations interleave at their planned positions.
    pub fn mutations_before(&self, query: u64) -> Vec<MutationEvent> {
        let mut cursor = self
            .mutation_cursor
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut fired = Vec::new();
        while *cursor < self.plan.mutations.len() && self.plan.mutations[*cursor].at_query <= query
        {
            fired.push(self.plan.mutations[*cursor]);
            *cursor += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_n_schedule_fires_on_multiples() {
        let inj = FaultInjector::new(FaultPlan::panic_every(3));
        let faults: Vec<Option<EngineFault>> = (0..9).map(|_| inj.next_engine_fault()).collect();
        for (i, f) in faults.iter().enumerate() {
            let call = i as u64 + 1;
            if call.is_multiple_of(3) {
                assert_eq!(*f, Some(EngineFault::Panic), "call {call}");
            } else {
                assert_eq!(*f, None, "call {call}");
            }
        }
        assert_eq!(inj.engine_calls(), 9);
    }

    #[test]
    fn explicit_calls_and_precedence() {
        let plan = FaultPlan {
            panic_every_n_calls: Some(2),
            transient_calls: vec![2, 3],
            latency_every_n_calls: Some(1),
            latency: Duration::from_millis(7),
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.next_engine_fault(),
            Some(EngineFault::Latency(Duration::from_millis(7)))
        );
        // Panic outranks the transient scheduled on the same call.
        assert_eq!(inj.next_engine_fault(), Some(EngineFault::Panic));
        assert_eq!(inj.next_engine_fault(), Some(EngineFault::Transient));
    }

    #[test]
    fn rate_based_draws_replay_for_a_fixed_seed() {
        let plan = FaultPlan {
            seed: 42,
            transient_rate: 0.5,
            ..FaultPlan::default()
        };
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            (0..32).map(|_| inj.next_engine_fault()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "seeded schedule must replay");
        assert!(
            run().iter().any(|f| f.is_some()) && run().iter().any(|f| f.is_none()),
            "a 0.5 rate over 32 calls should mix faults and successes"
        );
    }

    #[test]
    fn training_faults_are_epoch_and_attempt_scoped() {
        let inj = FaultInjector::new(FaultPlan {
            nan_loss_epochs: vec![3],
            persistent_nan_loss_epochs: vec![5],
            corrupt_checkpoint_epochs: vec![4],
            ..FaultPlan::default()
        });
        assert!(inj.nan_loss(3, 0));
        assert!(!inj.nan_loss(3, 1), "transient NaN clears on retry");
        assert!(
            inj.nan_loss(5, 0) && inj.nan_loss(5, 3),
            "persistent NaN stays"
        );
        assert!(!inj.nan_loss(2, 0));
        assert!(inj.corrupt_checkpoint(4));
        assert!(!inj.corrupt_checkpoint(3));
    }

    #[test]
    fn quiet_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::default());
        assert!((0..100).all(|_| inj.next_engine_fault().is_none()));
        assert!((0..100).all(|_| inj.next_disk_fault().is_none()));
        assert!(!FaultPlan::default().engine_faults_possible());
        assert!(FaultPlan::panic_every(2).engine_faults_possible());
    }

    #[test]
    fn chaos_plans_replay_and_never_touch_the_protected_replica() {
        let plan = FleetPlan::chaos(42, 4, 500, 24);
        assert_eq!(plan.replicas, 4);
        assert_eq!(plan.protected, 42 % 4);
        assert!(plan.faults_possible());
        // Deterministic regeneration.
        let again = FleetPlan::chaos(42, 4, 500, 24);
        assert_eq!(plan.events, again.events);
        // The protected replica is exempt from topology and engine faults.
        for e in &plan.events {
            assert_ne!(e.action.replica(), plan.protected, "event {e:?}");
        }
        assert!(!plan.engine_plans[plan.protected].engine_faults_possible());
        // Events are sorted so the injector can walk them with a cursor.
        assert!(plan
            .events
            .windows(2)
            .all(|w| w[0].at_query <= w[1].at_query));
    }

    #[test]
    fn chaos_plans_only_crash_live_and_respawn_dead_replicas() {
        for seed in [1u64, 7, 19, 133] {
            let plan = FleetPlan::chaos(seed, 3, 400, 40);
            let mut alive = [true; 3];
            for e in &plan.events {
                match e.action {
                    FleetAction::Crash { replica } | FleetAction::Drain { replica } => {
                        assert!(alive[replica], "seed {seed}: downing a dead replica");
                        alive[replica] = false;
                    }
                    FleetAction::Respawn { replica } => {
                        assert!(!alive[replica], "seed {seed}: respawning a live replica");
                        alive[replica] = true;
                    }
                    FleetAction::TripBreaker { replica } => {
                        assert!(alive[replica], "seed {seed}: tripping a dead replica");
                    }
                }
                assert!(
                    alive.iter().any(|&a| a),
                    "seed {seed}: schedule must keep >=1 replica alive"
                );
            }
        }
    }

    #[test]
    fn fleet_injector_fires_events_at_their_query_positions() {
        let plan = FleetPlan {
            replicas: 2,
            events: vec![
                FleetEvent {
                    at_query: 1,
                    action: FleetAction::Crash { replica: 1 },
                },
                FleetEvent {
                    at_query: 3,
                    action: FleetAction::Respawn { replica: 1 },
                },
                FleetEvent {
                    at_query: 3,
                    action: FleetAction::TripBreaker { replica: 1 },
                },
            ],
            ..FleetPlan::default()
        };
        let inj = FleetInjector::new(plan);
        assert_eq!(
            inj.actions_for_next_query(),
            vec![FleetAction::Crash { replica: 1 }]
        );
        assert_eq!(inj.actions_for_next_query(), Vec::new());
        assert_eq!(
            inj.actions_for_next_query(),
            vec![
                FleetAction::Respawn { replica: 1 },
                FleetAction::TripBreaker { replica: 1 }
            ]
        );
        assert_eq!(inj.actions_for_next_query(), Vec::new());
        assert_eq!(inj.queries(), 4);
    }

    #[test]
    fn mutation_chaos_plans_replay_and_interleave() {
        let plan = FleetPlan::chaos_with_mutations(11, 3, 1000, 20, 30, 4);
        assert_eq!(plan.mutations.len(), 30);
        assert!(plan.faults_possible());
        // Deterministic regeneration, sorted positions, sane op counts.
        let again = FleetPlan::chaos_with_mutations(11, 3, 1000, 20, 30, 4);
        assert_eq!(plan.mutations, again.mutations);
        assert_eq!(plan.events, again.events);
        assert!(plan
            .mutations
            .windows(2)
            .all(|w| w[0].at_query <= w[1].at_query));
        assert!(plan.mutations.iter().all(|m| (1..=4).contains(&m.ops)));
        // Over enough seeds, some bursts carry WAL faults and most don't.
        let faulted: usize = [11u64, 29, 47]
            .iter()
            .flat_map(|&s| FleetPlan::chaos_with_mutations(s, 3, 1000, 20, 30, 4).mutations)
            .filter(|m| m.disk_fault.is_some())
            .count();
        assert!(faulted > 0 && faulted < 60, "got {faulted} faulted bursts");
    }

    #[test]
    fn mutation_cursor_fires_bursts_at_their_positions() {
        let plan = FleetPlan {
            replicas: 1,
            mutations: vec![
                MutationEvent {
                    at_query: 2,
                    ops: 3,
                    disk_fault: None,
                },
                MutationEvent {
                    at_query: 2,
                    ops: 1,
                    disk_fault: Some(DiskFault::BitFlip),
                },
                MutationEvent {
                    at_query: 4,
                    ops: 2,
                    disk_fault: None,
                },
            ],
            ..FleetPlan::default()
        };
        let inj = FleetInjector::new(plan);
        assert!(inj.mutations_before(1).is_empty());
        let fired = inj.mutations_before(2);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].ops, 3);
        assert_eq!(fired[1].disk_fault, Some(DiskFault::BitFlip));
        assert!(inj.mutations_before(3).is_empty(), "no double-fire");
        assert_eq!(inj.mutations_before(9).len(), 1);
    }

    #[test]
    fn disk_faults_fire_on_scheduled_saves_with_precedence() {
        let inj = FaultInjector::new(FaultPlan {
            torn_write_saves: vec![2],
            bit_flip_saves: vec![2, 3],
            partial_flush_saves: vec![3, 4],
            ..FaultPlan::default()
        });
        assert_eq!(inj.next_disk_fault(), None);
        assert_eq!(inj.next_disk_fault(), Some(DiskFault::TornWrite));
        assert_eq!(inj.next_disk_fault(), Some(DiskFault::BitFlip));
        assert_eq!(inj.next_disk_fault(), Some(DiskFault::PartialFlush));
        assert_eq!(inj.next_disk_fault(), None);
    }
}
