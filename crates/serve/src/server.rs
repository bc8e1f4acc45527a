//! Micro-batching front-end: queries accumulate in a queue until either
//! `max_batch` of them are waiting or the oldest has waited `max_wait`,
//! then the whole batch runs through the engine at once.
//!
//! Batching amortizes the per-call fixed costs (cache lock, forward-pass
//! setup) and lets subgraph preparation fan out across the batch, while
//! `max_wait` bounds the latency a lone query can be held hostage for.
//!
//! The server is fault-tolerant by construction: every admitted query is
//! resolved with an answer or a typed [`Error`], never a panic in the
//! caller. Protections, in the order a query meets them:
//!
//! - **Circuit breaker** — consecutive batch failures trip the server into
//!   a degraded state that sheds new queries ([`Error::Degraded`]) until a
//!   cooldown probe succeeds.
//! - **Bounded queue** — admission beyond
//!   [`RobustnessConfig::queue_capacity`] is shed with
//!   [`Error::Overloaded`] instead of growing the queue without bound.
//! - **Deadlines** — a query submitted via
//!   [`BatchServer::submit_with_deadline`] whose deadline passes while it
//!   is still queued is failed with [`Error::DeadlineExceeded`] rather
//!   than occupying a batch slot.
//! - **Retry with backoff** — transient engine faults are retried up to
//!   [`RobustnessConfig::max_retries`] times with exponential backoff
//!   before the batch fails with [`Error::EngineFault`].
//! - **Panic isolation** — engine panics are caught per batch
//!   (`catch_unwind`); the batch's callers get [`Error::WorkerPanicked`]
//!   and a supervisor respawns the worker thread.
//! - **Deterministic shutdown** — [`BatchServer::shutdown`] (and `Drop`)
//!   drains the queue to completion; pending callers whose reply never
//!   arrives observe [`Error::ServerShutdown`] instead of a panic.

use crate::engine::{ClassProbs, InferenceEngine, LinkQuery};
use crate::error::Error;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Execute as soon as this many queries are queued.
    pub max_batch: usize,
    /// Execute a partial batch once its oldest query has waited this long.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Fault-tolerance policy: queue bounds, retry budget, circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessConfig {
    /// Maximum queued (not yet batched) queries; admission beyond this is
    /// shed with [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Transient engine faults retried per batch before the batch fails
    /// with [`Error::EngineFault`].
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub retry_backoff: Duration,
    /// Consecutive batch failures that trip the circuit breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before admitting a single probe.
    pub breaker_cooldown: Duration,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_retries: 2,
            retry_backoff: Duration::from_micros(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(50),
        }
    }
}

/// One queued query with its reply channel.
struct Request {
    query: LinkQuery,
    reply: mpsc::Sender<Result<ClassProbs, Error>>,
    /// When the request entered the queue; the batch deadline is computed
    /// from the oldest of these, so time spent waiting behind a busy worker
    /// counts against `max_wait`.
    enqueued: Instant,
    /// Absolute per-request deadline, if the caller set one. Checked while
    /// the request is queued; an expired request is failed in place.
    deadline: Option<Instant>,
}

#[derive(Default)]
struct Queue {
    requests: VecDeque<Request>,
    shutdown: bool,
}

/// Breaker lifecycle: `Closed` (healthy) → `Open` (shedding after
/// consecutive failures) → `HalfOpen` (one probe admitted after cooldown)
/// → `Closed` again on success, or back to `Open` on failure.
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed,
    Open { since: Instant },
    HalfOpen,
}

struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

impl Default for Breaker {
    fn default() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    wakeup: Condvar,
    engine: Arc<InferenceEngine>,
    cfg: BatchConfig,
    robust: RobustnessConfig,
    breaker: Mutex<Breaker>,
}

/// A panicking worker poisons these mutexes with the protected state still
/// structurally valid (the panic happens inside the engine, not mid-queue
/// mutation), so recover the guard instead of cascading the panic.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_breaker(shared: &Shared) -> MutexGuard<'_, Breaker> {
    shared.breaker.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle on an answer that has been queued but possibly not yet computed.
pub struct PendingQuery {
    rx: mpsc::Receiver<Result<ClassProbs, Error>>,
}

impl PendingQuery {
    /// Block until this query is resolved: class probabilities on success,
    /// a typed [`Error`] describing which protection fired otherwise. A
    /// server torn down before answering yields [`Error::ServerShutdown`]
    /// rather than panicking the caller.
    pub fn wait(self) -> Result<ClassProbs, Error> {
        self.rx.recv().unwrap_or(Err(Error::ServerShutdown))
    }

    /// Wait up to `timeout` for the answer without consuming the handle:
    /// `Some(outcome)` once resolved, `None` if still pending (the query
    /// keeps executing; wait again later). A server torn down before
    /// answering resolves to [`Error::ServerShutdown`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ClassProbs, Error>> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => Some(outcome),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(Error::ServerShutdown)),
        }
    }
}

/// A running batch server: a supervised worker thread draining the queue
/// through an [`InferenceEngine`], respawned if it dies.
pub struct BatchServer {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl BatchServer {
    /// Start the worker thread over `engine` with default robustness.
    pub fn start(engine: InferenceEngine, cfg: BatchConfig) -> Self {
        Self::start_with(engine, cfg, RobustnessConfig::default())
    }

    /// Start with an explicit fault-tolerance policy.
    pub fn start_with(engine: InferenceEngine, cfg: BatchConfig, robust: RobustnessConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(robust.queue_capacity > 0, "queue_capacity must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wakeup: Condvar::new(),
            engine: Arc::new(engine),
            cfg,
            robust,
            breaker: Mutex::new(Breaker::default()),
        });
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::spawn(move || supervisor_loop(&sup_shared));
        Self {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Enqueue a link query; the returned handle blocks on
    /// [`PendingQuery::wait`]. Admission can shed: [`Error::Degraded`]
    /// while the breaker is open, [`Error::Overloaded`] when the queue is
    /// full, [`Error::ServerShutdown`] after shutdown began.
    pub fn submit(&self, query: LinkQuery) -> Result<PendingQuery, Error> {
        self.submit_inner(query, None)
    }

    /// Like [`submit`](Self::submit), but the query is abandoned with
    /// [`Error::DeadlineExceeded`] if it is still queued when `deadline`
    /// (measured from now) elapses. A query already inside an executing
    /// batch runs to completion — deadlines bound queueing, not compute.
    pub fn submit_with_deadline(
        &self,
        query: LinkQuery,
        deadline: Duration,
    ) -> Result<PendingQuery, Error> {
        self.submit_inner(query, Some(Instant::now() + deadline))
    }

    /// The one admission gate: the breaker, then shutdown, then queue
    /// capacity. An admitted query is queued with its reply channel,
    /// enqueue time and deadline; a shed one counts in
    /// `serve/shed_degraded` or `serve/shed_overload`.
    fn submit_inner(
        &self,
        query: LinkQuery,
        deadline: Option<Instant>,
    ) -> Result<PendingQuery, Error> {
        let enqueued = Instant::now();
        let counters = &self.shared.engine.counters;
        {
            let mut b = lock_breaker(&self.shared);
            let shed = match b.state {
                BreakerState::Closed => false,
                BreakerState::Open { since }
                    if since.elapsed() >= self.shared.robust.breaker_cooldown =>
                {
                    // Cooldown served: admit this request as the probe.
                    b.state = BreakerState::HalfOpen;
                    false
                }
                // Still cooling down, or a probe is already in flight:
                // keep shedding until it resolves the breaker.
                BreakerState::Open { .. } | BreakerState::HalfOpen => true,
            };
            if shed {
                counters.shed_degraded.inc();
                return Err(Error::Degraded);
            }
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock_queue(&self.shared);
            if q.shutdown {
                return Err(Error::ServerShutdown);
            }
            if q.requests.len() >= self.shared.robust.queue_capacity {
                counters.shed_overload.inc();
                return Err(Error::Overloaded {
                    capacity: self.shared.robust.queue_capacity,
                });
            }
            q.requests.push_back(Request {
                query,
                reply: tx,
                enqueued,
                deadline,
            });
        }
        self.shared.wakeup.notify_one();
        Ok(PendingQuery { rx })
    }

    /// Convenience: submit every query, then wait for all outcomes (in
    /// query order). Queries submitted together land in as few batches as
    /// the policy allows. Each query resolves independently — a shed
    /// admission or failed batch yields that query's typed [`Error`]
    /// without discarding its batchmates' answers.
    pub fn submit_all(&self, queries: &[LinkQuery]) -> Vec<Result<ClassProbs, Error>> {
        let pending: Vec<Result<PendingQuery, Error>> =
            queries.iter().map(|&q| self.submit(q)).collect();
        pending
            .into_iter()
            .map(|p| p.and_then(PendingQuery::wait))
            .collect()
    }

    /// All-or-nothing variant of [`submit_all`](Self::submit_all): the
    /// answers in query order, or the first per-query error. Queries after
    /// the first failure still execute (their answers are discarded).
    pub fn submit_all_strict(&self, queries: &[LinkQuery]) -> Result<Vec<ClassProbs>, Error> {
        self.submit_all(queries).into_iter().collect()
    }

    /// The engine being served.
    pub fn engine(&self) -> &InferenceEngine {
        &self.shared.engine
    }

    /// Begin a graceful shutdown without blocking: new submissions are
    /// rejected with [`Error::ServerShutdown`] while already-queued
    /// queries still drain. [`shutdown`](Self::shutdown) (or dropping the
    /// server) completes the drain. Idempotent.
    pub fn begin_shutdown(&self) {
        {
            let mut q = lock_queue(&self.shared);
            q.shutdown = true;
        }
        self.shared.wakeup.notify_all();
    }

    /// Stop the worker after it drains the queue. Draining is
    /// deterministic: every still-queued query is resolved (answered, or
    /// failed with a typed error) before the worker exits.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.begin_shutdown();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Why the worker loop returned.
enum WorkerExit {
    /// Clean shutdown with a drained queue.
    Shutdown,
    /// The engine panicked under this worker; spawn a fresh one.
    Died,
}

/// Keep a worker alive: respawn it whenever it dies to a panic, stop only
/// on clean shutdown. Each respawn counts in `serve/worker_respawns`.
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        let worker_shared = Arc::clone(shared);
        let worker = std::thread::Builder::new()
            .name("amdgcnn-serve-worker".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batch worker");
        match worker.join() {
            Ok(WorkerExit::Shutdown) => return,
            // `Err` is unreachable in practice (execute_batch catches
            // engine panics), but treat a join error as a death anyway so
            // the queue is never left without a consumer.
            Ok(WorkerExit::Died) | Err(_) => {
                shared.engine.counters.worker_respawn();
            }
        }
    }
}

fn worker_loop(shared: &Shared) -> WorkerExit {
    loop {
        let batch = collect_batch(shared);
        if batch.is_empty() {
            return WorkerExit::Shutdown;
        }
        // Queue-wait per request and the batch-assembly window, measured
        // at drain time so time spent behind a busy worker is included.
        shared
            .engine
            .counters
            .record_drain(batch.iter().map(|r| r.enqueued));
        if !execute_batch(shared, batch) {
            return WorkerExit::Died;
        }
    }
}

enum BatchOutcome {
    Answered(Vec<ClassProbs>),
    Failed(Error),
    Panicked,
}

/// Run one batch through the engine with panic isolation and transient
/// retry. Every request in the batch is resolved before returning. Returns
/// `false` if the engine panicked — the worker is considered dead and the
/// supervisor replaces it.
fn execute_batch(shared: &Shared, batch: Vec<Request>) -> bool {
    let counters = &shared.engine.counters;
    let started = Instant::now();
    let queries: Vec<LinkQuery> = batch.iter().map(|r| r.query).collect();
    let mut retries = 0u32;
    let outcome = loop {
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| shared.engine.try_predict(&queries)));
        match attempt {
            Ok(Ok(answers)) => break BatchOutcome::Answered(answers),
            Ok(Err(_transient)) => {
                if retries >= shared.robust.max_retries {
                    break BatchOutcome::Failed(Error::EngineFault { retries });
                }
                retries += 1;
                counters.engine_retries.inc();
                // Exponential backoff, shift-capped so a huge retry budget
                // cannot overflow the multiplier.
                std::thread::sleep(shared.robust.retry_backoff * (1u32 << (retries - 1).min(16)));
            }
            Err(_panic_payload) => {
                counters.worker_panic();
                break BatchOutcome::Panicked;
            }
        }
    };
    match outcome {
        BatchOutcome::Answered(answers) => {
            counters.batches.inc();
            counters.engine_latency.record(started.elapsed());
            note_batch_success(shared);
            for (req, probs) in batch.into_iter().zip(answers) {
                // A caller that dropped its PendingQuery just discards the
                // answer; that is not a server error.
                let _ = req.reply.send(Ok(probs));
            }
            true
        }
        BatchOutcome::Failed(err) => {
            note_batch_failure(shared);
            counters.failed_queries.add(batch.len() as u64);
            for req in batch {
                let _ = req.reply.send(Err(err.clone()));
            }
            true
        }
        BatchOutcome::Panicked => {
            note_batch_failure(shared);
            counters.failed_queries.add(batch.len() as u64);
            for req in batch {
                let _ = req.reply.send(Err(Error::WorkerPanicked));
            }
            false
        }
    }
}

/// Any fully successful batch closes the breaker (a probe succeeding from
/// half-open, or an in-flight batch outlasting a trip).
fn note_batch_success(shared: &Shared) {
    let mut b = lock_breaker(shared);
    if !matches!(b.state, BreakerState::Closed) {
        shared.engine.counters.breaker_reset();
    }
    b.state = BreakerState::Closed;
    b.consecutive_failures = 0;
}

fn note_batch_failure(shared: &Shared) {
    let mut b = lock_breaker(shared);
    b.consecutive_failures = b.consecutive_failures.saturating_add(1);
    let trip = match b.state {
        // A failed probe re-opens immediately.
        BreakerState::HalfOpen => true,
        BreakerState::Closed => b.consecutive_failures >= shared.robust.breaker_threshold,
        BreakerState::Open { .. } => false,
    };
    if trip {
        b.state = BreakerState::Open {
            since: Instant::now(),
        };
        shared.engine.counters.breaker_trip();
    } else if let BreakerState::Open { since } = &mut b.state {
        // Still failing while open (in-flight batches admitted before the
        // trip): restart the cooldown clock.
        *since = Instant::now();
    }
}

/// Fail (in place) every queued request whose deadline has passed.
fn purge_expired(q: &mut Queue, shared: &Shared) {
    let now = Instant::now();
    let mut expired = 0u64;
    q.requests.retain(|r| match r.deadline {
        Some(d) if now >= d => {
            let _ = r.reply.send(Err(Error::DeadlineExceeded));
            expired += 1;
            false
        }
        _ => true,
    });
    if expired > 0 {
        shared.engine.counters.deadline_expired.add(expired);
    }
}

/// Block until a batch is ready: `max_batch` queued, or `max_wait` elapsed
/// since the oldest queued request was *enqueued* (not since the worker
/// noticed it — a query that waited behind a busy worker gets that time
/// credited), or shutdown (which flushes whatever is queued). Requests
/// whose own deadline expires while queued are failed in place and never
/// occupy a batch slot. Returns empty only on shutdown with an empty
/// queue.
fn collect_batch(shared: &Shared) -> Vec<Request> {
    let mut q = lock_queue(shared);
    'restart: loop {
        // Sleep until there is at least one live request (or we stop).
        loop {
            purge_expired(&mut q, shared);
            if !q.requests.is_empty() {
                break;
            }
            if q.shutdown {
                return Vec::new();
            }
            q = shared.wakeup.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        // A batch is forming: wait for it to fill, but never past the
        // oldest request's deadline. The queue is FIFO and this worker is
        // the only consumer, so the front entry stays the oldest until we
        // drain it.
        let batch_deadline =
            q.requests.front().expect("non-empty queue").enqueued + shared.cfg.max_wait;
        while q.requests.len() < shared.cfg.max_batch && !q.shutdown {
            let now = Instant::now();
            if now >= batch_deadline {
                break;
            }
            // Wake early enough to purge any per-request deadline landing
            // before the batch deadline.
            let wake_at = q
                .requests
                .iter()
                .filter_map(|r| r.deadline)
                .fold(batch_deadline, Instant::min);
            if wake_at > now {
                let (guard, _timeout) = shared
                    .wakeup
                    .wait_timeout(q, wake_at - now)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            purge_expired(&mut q, shared);
            if q.requests.is_empty() {
                continue 'restart;
            }
        }
        purge_expired(&mut q, shared);
        if q.requests.is_empty() {
            continue 'restart;
        }
        let take = q.requests.len().min(shared.cfg.max_batch);
        return q.requests.drain(..take).collect();
    }
}
