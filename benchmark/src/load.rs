//! Seeded inputs (query stream, arrival times, mutation stream) and the
//! open-loop load generator with its `max_qps` search.

use amdgcnn_graph::GraphMutation;
use amdgcnn_serve::{BatchServer, ClassProbs, Error, LinkQuery, PendingQuery};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Independent sub-seed for one input stream of a workload.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank_at(rng.random())
    }

    /// `n` draws at evenly spaced quantiles from a random offset, in
    /// random order: each rank is drawn `n` times its probability, rounded
    /// up or down, so lists from different seeds hold the same ranks as
    /// often, where independent draws would vary their counts.
    pub fn stratified(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        let offset: f64 = rng.random();
        let mut ranks: Vec<usize> = (0..n)
            .map(|i| self.rank_at((i as f64 + offset) / n as f64))
            .collect();
        // Fisher-Yates.
        for i in (1..n).rev() {
            ranks.swap(i, rng.random_range(0..=i));
        }
        ranks
    }

    /// The rank whose share of the CDF holds `u` in `[0, 1)`.
    fn rank_at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` distinct random node pairs `(u, v)` with `u != v`.
pub fn random_pairs(num_nodes: u32, count: usize, seed: u64) -> Vec<LinkQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let u = rng.random_range(0..num_nodes);
        let v = rng.random_range(0..num_nodes);
        if u != v && seen.insert((u, v)) {
            pairs.push((u, v));
        }
    }
    pairs
}

/// Send offsets of a Poisson process at `rate` per second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 1);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// The mutation stream: batches of `per_batch` edge additions between
/// distinct random nodes, with relation types below `num_edge_types`.
pub fn mutation_stream(
    num_nodes: u32,
    num_edge_types: u16,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<Vec<GraphMutation>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let u = rng.random_range(0..num_nodes);
                    let mut v = rng.random_range(0..num_nodes - 1);
                    if v >= u {
                        v += 1;
                    }
                    GraphMutation::AddEdge {
                        u,
                        v,
                        etype: rng.random_range(0..num_edge_types),
                    }
                })
                .collect()
        })
        .collect()
}

/// The server currently taking queries. A graph roll swaps in a new
/// server; the old one drains what it already queued.
pub struct Frontend {
    current: RwLock<Arc<BatchServer>>,
}

impl Frontend {
    pub fn new(server: BatchServer) -> Self {
        Self {
            current: RwLock::new(Arc::new(server)),
        }
    }

    pub fn current(&self) -> Arc<BatchServer> {
        Arc::clone(&self.current.read().expect("frontend lock"))
    }

    /// Install `next` and return the server it replaced.
    pub fn swap(&self, next: BatchServer) -> Arc<BatchServer> {
        std::mem::replace(
            &mut *self.current.write().expect("frontend lock"),
            Arc::new(next),
        )
    }

    /// Submit to the current server. A submit that races a swap meets the
    /// old server shutting down; the new one is already installed by then,
    /// so it is retried there. Returns the answering generation too.
    fn submit(&self, q: LinkQuery) -> Result<(PendingQuery, u64), Error> {
        loop {
            let server = self.current();
            match server.submit(q) {
                Err(Error::ServerShutdown) if !Arc::ptr_eq(&server, &self.current()) => continue,
                other => return other.map(|p| (p, server.engine().graph_generation())),
            }
        }
    }
}

/// One answered (or failed) query of a phase.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Position in the phase's send order.
    pub index: usize,
    pub query: LinkQuery,
    /// Generation of the server the query was sent to.
    pub generation: u64,
    /// Due time to answer (or to the failure), seconds.
    pub latency_s: f64,
    pub answer: Option<ClassProbs>,
}

/// What one open-loop phase observed.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    pub sent: usize,
    pub answered: usize,
    /// Queries refused at admission or resolved with an error.
    pub failed: usize,
    /// Send time minus due time, seconds, per query.
    pub lag_s: Vec<f64>,
    /// Due-to-answer latency of each answered query, seconds.
    pub latency_s: Vec<f64>,
    /// Answers kept for the output check (every `keep_every`-th query).
    pub kept: Vec<Completion>,
    /// Outstanding queries right after each send.
    pub outstanding: Vec<usize>,
}

struct InFlight {
    index: usize,
    query: LinkQuery,
    generation: u64,
    due: Instant,
    pending: PendingQuery,
}

/// Drive one open-loop phase from a single thread: send query `i` at
/// `start + schedule[i]`, and between sends block on the oldest
/// outstanding answer until the next send is due. Answers leave a batch in
/// send order, so the front of the queue completes first and its time is
/// taken when it arrives. `on_request` sees each completion (bench spans).
pub fn run_phase(
    frontend: &Frontend,
    schedule: &[Duration],
    query_at: impl Fn(usize) -> LinkQuery,
    keep_every: usize,
    mut on_request: impl FnMut(&Completion, Instant),
) -> PhaseResult {
    let mut res = PhaseResult {
        lag_s: Vec::with_capacity(schedule.len()),
        latency_s: Vec::with_capacity(schedule.len()),
        outstanding: Vec::with_capacity(schedule.len()),
        ..Default::default()
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut finish = |res: &mut PhaseResult, c: Completion, due: Instant| {
        if c.answer.is_some() {
            res.answered += 1;
            res.latency_s.push(c.latency_s);
        } else {
            res.failed += 1;
        }
        on_request(&c, due);
        if keep_every > 0 && c.index.is_multiple_of(keep_every) {
            res.kept.push(c);
        }
    };
    let completed = |f: InFlight, outcome: Result<ClassProbs, Error>| Completion {
        index: f.index,
        query: f.query,
        generation: f.generation,
        latency_s: Instant::now()
            .saturating_duration_since(f.due)
            .as_secs_f64(),
        answer: outcome.ok(),
    };

    let start = Instant::now() + Duration::from_millis(1);
    for (index, offset) in schedule.iter().enumerate() {
        let due = start + *offset;
        // Until the send is due, wait on the oldest answer; once due, take
        // every answer that has already arrived, then send.
        loop {
            let wait = due.saturating_duration_since(Instant::now());
            let Some(front) = inflight.front() else {
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                break;
            };
            match front.pending.wait_timeout(wait) {
                Some(outcome) => {
                    let f = inflight.pop_front().expect("front exists");
                    let due = f.due;
                    finish(&mut res, completed(f, outcome), due);
                }
                None if wait.is_zero() => break,
                None => {}
            }
        }
        let query = query_at(index);
        res.lag_s
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        res.sent += 1;
        match frontend.submit(query) {
            Ok((pending, generation)) => inflight.push_back(InFlight {
                index,
                query,
                generation,
                due,
                pending,
            }),
            Err(_) => {
                let generation = frontend.current().engine().graph_generation();
                let c = Completion {
                    index,
                    query,
                    generation,
                    latency_s: 0.0,
                    answer: None,
                };
                finish(&mut res, c, due);
            }
        }
        res.outstanding.push(inflight.len());
    }
    while let Some(f) = inflight.pop_front() {
        let outcome = f
            .pending
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or(Err(Error::DeadlineExceeded));
        let due = f.due;
        finish(&mut res, completed(f, outcome), due);
    }
    res
}

/// Whether a `max_qps` probe held the latency limit: its windowed p99
/// (`stats::windowed_percentile` over `window` answers) within `limit_s`,
/// nothing failed or shed, and no growing backlog — the mean outstanding
/// count over the probe's last third stays within 1.5x the first third's
/// plus one full batch.
pub fn probe_passes(res: &PhaseResult, limit_s: f64, max_batch: usize, window: usize) -> bool {
    if res.failed > 0 || res.latency_s.is_empty() {
        return false;
    }
    if crate::stats::windowed_percentile(&res.latency_s, 99.0, window) > limit_s {
        return false;
    }
    let n = res.outstanding.len();
    if n < 3 {
        return true;
    }
    let third = n / 3;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&res.outstanding[..third]);
    let last = mean(&res.outstanding[n - third..]);
    last <= 1.5 * first + max_batch as f64
}

/// Rate growth per step and log-space bisections of the `max_qps` search.
const GROWTH: f64 = 1.5;
const BISECTIONS: usize = 4;
/// Growth (or shrink) steps before the search gives up on finding a
/// bracket.
const MAX_STEPS: usize = 12;

/// Highest rate the `probe` oracle passes: probe `start`, multiply by
/// `GROWTH` until a probe fails (or divide until one passes, when `start`
/// already fails), then bisect `BISECTIONS` times in log-rate space
/// between the last pass and the first fail. Returns the highest passing
/// rate (0 if none passed) and the number of probes.
pub fn max_qps_search(start: f64, mut probe: impl FnMut(f64) -> bool) -> (f64, usize) {
    let mut probes = 1;
    let (mut pass, mut fail) = if probe(start) {
        let mut pass = start;
        loop {
            let next = pass * GROWTH;
            probes += 1;
            if !probe(next) {
                break (pass, next);
            }
            pass = next;
            if probes > MAX_STEPS {
                return (pass, probes);
            }
        }
    } else {
        let mut fail = start;
        loop {
            let next = fail / GROWTH;
            probes += 1;
            if probe(next) {
                break (next, fail);
            }
            fail = next;
            if probes > MAX_STEPS {
                return (0.0, probes);
            }
        }
    };
    for _ in 0..BISECTIONS {
        let mid = (pass * fail).sqrt();
        probes += 1;
        if probe(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    (pass, probes)
}

/// Closed loop at saturation: send `queries` in order to `server`, keeping
/// `window` of them in flight until all are answered. Returns every
/// query's outcome, in order.
pub fn replay_closed_loop(
    server: &BatchServer,
    queries: &[LinkQuery],
    window: usize,
) -> Vec<Result<ClassProbs, Error>> {
    let mut inflight: VecDeque<Result<PendingQuery, Error>> = VecDeque::with_capacity(window);
    let mut answers = Vec::with_capacity(queries.len());
    let mut next = queries.iter();
    loop {
        while inflight.len() < window {
            let Some(&q) = next.next() else { break };
            inflight.push_back(server.submit(q));
        }
        let Some(front) = inflight.pop_front() else {
            return answers;
        };
        answers.push(front.and_then(PendingQuery::wait));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_frequencies_follow_one_over_rank() {
        let n = 100;
        let z = Zipf::new(n, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for (rank, &c) in counts.iter().enumerate().take(10) {
            let expected = draws as f64 / ((rank + 1) as f64 * harmonic);
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "rank {rank}: {c} draws, expected {expected:.0}");
        }
        // Rank 1 is drawn about twice as often as rank 2.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "rank1/rank2 = {ratio}");

        // Stratified draws hold every rank its expected count, rounded.
        let draws = 1000;
        let ranks = z.stratified(draws, &mut rng);
        assert_eq!(ranks.len(), draws);
        let mut counts = vec![0usize; n];
        for r in &ranks {
            counts[*r] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            let expected = draws as f64 / ((rank + 1) as f64 * harmonic);
            assert!(
                (c as f64 - expected).abs() < 1.0 + 1e-9,
                "rank {rank}: {c} draws, expected {expected:.2}"
            );
        }
        assert_ne!(ranks, z.stratified(draws, &mut rng), "the order is random");
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = poisson_schedule(1000.0, Duration::from_secs(2), 9);
        assert_eq!(a, poisson_schedule(1000.0, Duration::from_secs(2), 9));
        assert_ne!(a, poisson_schedule(1000.0, Duration::from_secs(2), 10));
        // About rate x span arrivals, strictly increasing, inside the span.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().expect("arrivals") < Duration::from_secs(2));

        let m = mutation_stream(50, 4, 20, 2, 3);
        assert_eq!(m, mutation_stream(50, 4, 20, 2, 3));
        assert_ne!(m, mutation_stream(50, 4, 20, 2, 4));
        for op in m.iter().flatten() {
            let GraphMutation::AddEdge { u, v, etype } = *op else {
                panic!("only edge additions");
            };
            assert!(u != v && u < 50 && v < 50 && etype < 4);
        }
        assert_eq!(random_pairs(30, 40, 5), random_pairs(30, 40, 5));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
    }

    #[test]
    fn max_qps_search_brackets_then_bisects_in_log_space() {
        // Capacity above the start: grow 1000 -> 1500 -> 2250 (pass) ->
        // 3375 (fail), then four bisections between 2250 and 3375.
        for capacity in [2_400.0, 3_000.0, 700.0, 1_000.0] {
            let mut seen = Vec::new();
            let (best, probes) = max_qps_search(1_000.0, |r| {
                seen.push(r);
                r <= capacity
            });
            assert_eq!(probes, seen.len());
            assert!(best <= capacity, "capacity {capacity}: {best}");
            // Four bisections of a 1.5x bracket leave at most 1.5^(1/16)
            // between the answer and the capacity.
            assert!(
                best * GROWTH.powf(1.0 / 16.0) >= capacity,
                "capacity {capacity}: {best}"
            );
            let bracket = seen.len() - BISECTIONS;
            assert!(seen[..bracket].windows(2).all(
                |w| (w[1] / w[0] - GROWTH).abs() < 1e-9 || (w[0] / w[1] - GROWTH).abs() < 1e-9
            ));
        }
        let (best, probes) = max_qps_search(1_000.0, |r| r <= 2_400.0);
        assert_eq!(probes, 3 + 1 + BISECTIONS);
        assert!((2_250.0..=2_400.0).contains(&best));
        // Nothing passes: report zero rather than a failing rate.
        assert_eq!(max_qps_search(100.0, |_| false).0, 0.0);
    }

    #[test]
    fn probe_rule_rejects_failures_slow_tails_and_growing_backlogs() {
        let ok = PhaseResult {
            latency_s: vec![0.004; 3000],
            outstanding: vec![5; 3000],
            ..Default::default()
        };
        assert!(probe_passes(&ok, 0.05, 32, 1000));
        let failed = PhaseResult {
            failed: 1,
            ..ok.clone()
        };
        assert!(!probe_passes(&failed, 0.05, 32, 1000));
        let mut slow = ok.clone();
        slow.latency_s.iter_mut().step_by(50).for_each(|l| *l = 0.2);
        assert!(!probe_passes(&slow, 0.05, 32, 1000));
        // One stalled window alone does not fail the probe.
        let mut stalled = ok.clone();
        stalled.latency_s[..1000].fill(0.2);
        assert!(probe_passes(&stalled, 0.05, 32, 1000));
        let mut growing = ok.clone();
        growing.outstanding = (0..3000).map(|i| i / 10).collect();
        assert!(!probe_passes(&growing, 0.05, 32, 1000));
    }
}
