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
//! fail transiently, or run slow, whether a training epoch's loss or
//! checkpoint should be corrupted, and whether the next durable write
//! should be torn, bit-flipped or left unflushed.
//!
//! Determinism contract: with a single consumer per counter (one batch
//! worker, one trainer), the sequence of decisions is a pure function of
//! the [`FaultPlan`]. Rate-based faults draw from an RNG seeded by
//! `plan.seed`, so re-running the same plan against the same call sequence
//! replays the same faults. An engine rebuilt at a graph roll can take
//! the same [`FaultInjector`], so the schedule runs on across
//! incarnations instead of restarting at call one.

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
    /// advance the save counter. [`crate::Experiment::session`] asks it
    /// before flushing the sample store; callers of the writers that take
    /// a [`DiskFault`] argument (`CheckpointDir::save`,
    /// `amdgcnn_serve::save_model_file`) may pass its answer too.
    /// Precedence on a collision: torn write > bit flip > partial flush.
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
