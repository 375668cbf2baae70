//! Work-stealing execution core (DESIGN.md §16).
//!
//! The sweep grids this repo runs are grids of *independent* jobs, but
//! their costs are not uniform: Monte-Carlo PDN members and mixed
//! live-sim vs recorded-replay points vary by orders of magnitude. A
//! shared atomic counter handing out fixed-size packs loses the whole
//! tail to stragglers: whoever claims the pack holding the heavy points
//! finishes last while its peers idle.
//!
//! This module is the runner's scheduling substrate:
//!
//! * [`StealDeques`] — per-worker LIFO deques with a steal-half
//!   protocol. Owners pop newest-first from the back; thieves take the
//!   front half of a victim (the entries the owner would reach last),
//!   so owner locality is disturbed as little as possible.
//! * [`CostClass`] — an optional per-point cost hint (`u64`, any
//!   monotone proxy: trace length for replay points, grid cells for
//!   sim points). Hints drive the initial chunking so skewed work is
//!   split finer up front.
//! * [`SplitMix64`] — the victim-selection RNG. Seeded from the worker
//!   identity only — never from the wall clock — so a given (worker
//!   count, point count) run probes victims in a reproducible order.
//!
//! **Determinism contract**: scheduling decides *which worker* runs a
//! point, never *what* the point computes. Jobs receive `(index,
//! &point)` exactly as in a serial loop, per-point seeds derive from
//! point identity (see [`crate::runner::point_seed`]), and results are
//! reassembled by point index. Serial ≡ parallel ≡ stolen, bit for
//! bit, for any thread count and any steal interleaving.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Telemetry names
// ---------------------------------------------------------------------------

/// Counter: steal attempts (one per `steal_half` call on a victim).
pub const STEAL_ATTEMPTS_COUNTER: &str = "runner.steal.attempts";
/// Counter: steal attempts that moved at least one chunk.
pub const STEAL_HITS_COUNTER: &str = "runner.steal.hits";
/// Gauge: deepest per-worker deque observed in the most recent run.
pub const DEQUE_MAX_DEPTH_GAUGE: &str = "runner.deque.max_depth";
/// Histogram: per-worker busy nanoseconds (one sample per worker).
pub const WORKER_BUSY_NS_HISTOGRAM: &str = "runner.worker.busy_ns";

// ---------------------------------------------------------------------------
// Deterministic victim-selection RNG
// ---------------------------------------------------------------------------

/// SplitMix64 (Steele et al.), the standard seed-expansion generator.
/// Small, fast and stateless beyond one `u64` — exactly enough for
/// victim selection, and trivially reproducible from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator over the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Generator for one worker's steal decisions. Seeded from the
    /// worker identity (index) and a fixed salt — never the wall
    /// clock — so victim probe order is a pure function of the pool
    /// shape.
    #[must_use]
    pub fn for_worker(worker: usize) -> Self {
        SplitMix64(0x9E37_79B9_7F4A_7C15 ^ (worker as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n >= 1);
        self.next_u64() % n
    }

    /// A victim index in `0..workers`, never equal to `me`. Requires
    /// `workers >= 2`.
    pub fn victim(&mut self, me: usize, workers: usize) -> usize {
        debug_assert!(workers >= 2);
        let v = self.below(workers as u64 - 1) as usize;
        if v >= me {
            v + 1
        } else {
            v
        }
    }
}

// ---------------------------------------------------------------------------
// Cost hints
// ---------------------------------------------------------------------------

/// Per-point cost class for initial chunking.
///
/// `Uniform` treats every point as cost 1 (the PR 1–9 assumption);
/// `Hinted` supplies a relative cost per point — any monotone proxy
/// works (trace length for replay points, grid cells for sim points).
/// Hints only shape the initial partition; correctness never depends
/// on their accuracy, because stealing rebalances whatever they miss.
pub enum CostClass<P> {
    /// Every point costs the same.
    Uniform,
    /// Relative per-point cost from a hint function.
    Hinted(fn(&P) -> u64),
}

impl<P> CostClass<P> {
    /// Cost of one point (always ≥ 1 so prefix sums stay monotone).
    #[must_use]
    pub fn cost(&self, point: &P) -> u64 {
        match self {
            CostClass::Uniform => 1,
            CostClass::Hinted(f) => f(point).max(1),
        }
    }
}

impl<P> Clone for CostClass<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for CostClass<P> {}

// ---------------------------------------------------------------------------
// Per-worker deques with steal-half
// ---------------------------------------------------------------------------

/// Per-worker work deques with a steal-half protocol.
///
/// Each worker owns one `Mutex<VecDeque<T>>`. The owner treats the
/// *back* as its hot end (pops newest-first); thieves take from
/// the *front* — the entries the owner would reach last — moving
/// ⌈len/2⌉ items per successful steal so a thief that found work keeps
/// enough of it to amortize the next theft. Locks are held one at a
/// time (victim first, then thief), so steals can never deadlock.
///
/// The sweep runner is the only user: each worker's deque holds
/// contiguous index chunks of the grid.
#[derive(Debug)]
pub struct StealDeques<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
}

impl<T> StealDeques<T> {
    /// Empty deques for `workers` workers (min 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        StealDeques {
            deques: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    /// Seed `worker`'s deque so that the owner's `pop` returns items in
    /// the iterator's order (first item popped first). Thieves
    /// therefore steal from the *end* of the given order.
    pub fn seed<I>(&self, worker: usize, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut dq = self.deques[worker].lock().expect("steal deque poisoned");
        for item in items.into_iter().rev() {
            dq.push_back(item);
        }
    }

    /// Owner pop: newest-first from the back.
    pub fn pop(&self, worker: usize) -> Option<T> {
        self.deques[worker]
            .lock()
            .expect("steal deque poisoned")
            .pop_back()
    }

    /// Items currently queued for `worker`.
    #[must_use]
    pub fn len(&self, worker: usize) -> usize {
        self.deques[worker]
            .lock()
            .expect("steal deque poisoned")
            .len()
    }

    /// Move ⌈len/2⌉ items from the front of `victim`'s deque onto
    /// `thief`'s, returning how many moved (0 when the victim was
    /// empty). The victim's front holds the items its owner would
    /// reach *last* in seeded order; after the move the thief pops
    /// them in the owner's intended (seeded) order.
    pub fn steal_half(&self, thief: usize, victim: usize) -> usize {
        debug_assert_ne!(thief, victim);
        let stolen: Vec<T> = {
            let mut dq = self.deques[victim].lock().expect("steal deque poisoned");
            let take = dq.len().div_ceil(2);
            dq.drain(..take).collect()
        };
        let count = stolen.len();
        if count > 0 {
            let mut own = self.deques[thief].lock().expect("steal deque poisoned");
            // The drain runs far-to-near in seeded order; pushing it
            // back-to-back leaves the nearest item at the owner's hot
            // end, so the thief resumes in seeded order.
            for item in stolen {
                own.push_back(item);
            }
        }
        count
    }
}

// ---------------------------------------------------------------------------
// Cost-aware chunking and the blocked partition
// ---------------------------------------------------------------------------

/// Chunks-per-worker granularity target. More chunks means finer
/// stealing at more claiming overhead; 4 keeps the initial partition
/// coarse enough that the uniform case degenerates to a blocked loop
/// while giving thieves something to take when hints are wrong.
const CHUNKS_PER_WORKER: u64 = 4;

/// Split `0..costs.len()` into contiguous chunks of roughly equal
/// *cost* (target ≈ total / (workers × `CHUNKS_PER_WORKER`)).
/// Deterministic: a pure function of the cost vector and worker count.
#[must_use]
pub fn cost_chunks(costs: &[u64], workers: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let total: u64 = costs.iter().sum();
    let target = (total / (workers.max(1) as u64 * CHUNKS_PER_WORKER)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &cost) in costs.iter().enumerate() {
        acc += cost;
        if acc >= target {
            chunks.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        chunks.push(start..n);
    }
    chunks
}

/// Deterministic blocked partition: assign each chunk to the worker
/// whose share of the total cost its midpoint falls in, keeping every
/// worker's chunks contiguous in index order. Workers therefore start
/// on disjoint index blocks (cache-friendly), balanced by the cost
/// prefix sums rather than by raw counts.
#[must_use]
pub fn blocked_partition(
    chunks: &[Range<usize>],
    costs: &[u64],
    workers: usize,
) -> Vec<Vec<Range<usize>>> {
    let workers = workers.max(1);
    let mut out: Vec<Vec<Range<usize>>> = (0..workers).map(|_| Vec::new()).collect();
    let total: u64 = costs.iter().sum::<u64>().max(1);
    let mut acc = 0u64;
    for chunk in chunks {
        let chunk_cost: u64 = costs[chunk.clone()].iter().sum();
        let mid = acc + chunk_cost / 2;
        let w = ((u128::from(mid) * workers as u128) / u128::from(total)) as usize;
        out[w.min(workers - 1)].push(chunk.clone());
        acc += chunk_cost;
    }
    out
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// What one scheduled run did, for manifests and the skew benchmark.
/// All fields are timing-class observations (they vary with the steal
/// interleaving), so the manifest stores them outside the non-timing
/// fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedReport {
    /// `"serial"` or `"steal"`.
    pub scheduler: &'static str,
    /// Workers that ran (after clamping to the point count).
    pub workers: usize,
    /// Initial chunk count (0 for serial).
    pub chunks: usize,
    /// Steal attempts across all workers.
    pub steal_attempts: u64,
    /// Steal attempts that moved at least one chunk.
    pub steal_hits: u64,
    /// Deepest deque observed by any worker.
    pub deque_max_depth: u64,
    /// Busy (job-executing) nanoseconds per worker, indexed by worker.
    pub worker_busy_ns: Vec<u64>,
}

impl SchedReport {
    /// Fold another run's observations into this one (used by drivers
    /// that invoke the runner repeatedly, e.g. `storm_report`).
    pub fn absorb(&mut self, other: &SchedReport) {
        if self.scheduler.is_empty() {
            self.scheduler = other.scheduler;
        }
        self.workers = self.workers.max(other.workers);
        self.chunks += other.chunks;
        self.steal_attempts += other.steal_attempts;
        self.steal_hits += other.steal_hits;
        self.deque_max_depth = self.deque_max_depth.max(other.deque_max_depth);
        if self.worker_busy_ns.len() < other.worker_busy_ns.len() {
            self.worker_busy_ns.resize(other.worker_busy_ns.len(), 0);
        }
        for (acc, &ns) in self.worker_busy_ns.iter_mut().zip(&other.worker_busy_ns) {
            *acc += ns;
        }
    }

    /// Per-worker busy fractions against the busiest worker (1.0 =
    /// the straggler; uniform ≈ all near 1.0). Empty when no worker
    /// recorded busy time.
    #[must_use]
    pub fn busy_fractions(&self) -> Vec<f64> {
        let max = self.worker_busy_ns.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return Vec::new();
        }
        self.worker_busy_ns
            .iter()
            .map(|&ns| ns as f64 / max as f64)
            .collect()
    }

    /// Publish the run's counters to the global metrics registry.
    pub fn publish(&self) {
        let metrics = didt_telemetry::MetricsRegistry::global();
        metrics
            .counter(STEAL_ATTEMPTS_COUNTER)
            .add(self.steal_attempts);
        metrics.counter(STEAL_HITS_COUNTER).add(self.steal_hits);
        metrics
            .gauge(DEQUE_MAX_DEPTH_GAUGE)
            .set(self.deque_max_depth as f64);
        let busy = metrics.histogram(WORKER_BUSY_NS_HISTOGRAM);
        for &ns in &self.worker_busy_ns {
            busy.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::for_worker(3);
        let mut b = SplitMix64::for_worker(3);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        let mut c = SplitMix64::for_worker(4);
        assert_ne!(draws[0], c.next_u64(), "workers must not share streams");
    }

    #[test]
    fn victim_never_self() {
        for me in 0..6 {
            let mut rng = SplitMix64::for_worker(me);
            for _ in 0..200 {
                let v = rng.victim(me, 6);
                assert_ne!(v, me);
                assert!(v < 6);
            }
        }
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for n in [1usize, 2, 7, 57, 256] {
            for workers in [1usize, 2, 8] {
                let costs = vec![1u64; n];
                let chunks = cost_chunks(&costs, workers);
                let mut covered = 0usize;
                for (k, c) in chunks.iter().enumerate() {
                    assert_eq!(c.start, covered, "chunk {k} not contiguous");
                    covered = c.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn skewed_costs_split_finer_near_heavy_points() {
        // Zipf-ish costs descending: the heavy head must not end up in
        // one giant chunk.
        let costs: Vec<u64> = (0..64u64).map(|i| 8000 / (i + 1)).collect();
        let chunks = cost_chunks(&costs, 8);
        assert!(chunks.len() >= 8, "want fine chunks, got {}", chunks.len());
        // The single heaviest point should sit in a small chunk.
        let head = chunks.iter().find(|c| c.contains(&0)).unwrap();
        assert!(head.len() <= 4, "heavy head chunk too wide: {head:?}");
    }

    #[test]
    fn blocked_partition_is_contiguous_and_total() {
        let costs: Vec<u64> = (0..100u64).map(|i| 1 + i % 7).collect();
        let chunks = cost_chunks(&costs, 4);
        let parts = blocked_partition(&chunks, &costs, 4);
        assert_eq!(parts.len(), 4);
        let mut next = 0usize;
        for part in &parts {
            for c in part {
                assert_eq!(c.start, next);
                next = c.end;
            }
        }
        assert_eq!(next, costs.len());
    }

    #[test]
    fn steal_half_moves_front_half_in_order() {
        let dq: StealDeques<u32> = StealDeques::new(2);
        dq.seed(0, [1u32, 2, 3, 4, 5]);
        // Owner pops in seeded order.
        assert_eq!(dq.pop(0), Some(1));
        // Thief takes ⌈4/2⌉ = 2 from the victim's far end… which in
        // seeded order is the *tail* of the remaining [2,3,4,5].
        let got = dq.steal_half(1, 0);
        assert_eq!(got, 2);
        // Thief pops its loot in stolen order.
        assert_eq!(dq.pop(1), Some(4));
        assert_eq!(dq.pop(1), Some(5));
        assert_eq!(dq.pop(1), None);
        // Owner keeps its near half.
        assert_eq!(dq.pop(0), Some(2));
        assert_eq!(dq.pop(0), Some(3));
        assert_eq!(dq.pop(0), None);
        assert_eq!(dq.steal_half(1, 0), 0);
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut total = SchedReport::default();
        let run = SchedReport {
            scheduler: "steal",
            workers: 4,
            chunks: 16,
            steal_attempts: 10,
            steal_hits: 3,
            deque_max_depth: 5,
            worker_busy_ns: vec![100, 200, 300, 400],
        };
        total.absorb(&run);
        total.absorb(&run);
        assert_eq!(total.scheduler, "steal");
        assert_eq!(total.steal_attempts, 20);
        assert_eq!(total.steal_hits, 6);
        assert_eq!(total.deque_max_depth, 5);
        assert_eq!(total.worker_busy_ns, vec![200, 400, 600, 800]);
        let fr = total.busy_fractions();
        assert_eq!(fr.len(), 4);
        assert!((fr[3] - 1.0).abs() < 1e-12);
        assert!((fr[0] - 0.25).abs() < 1e-12);
    }
}
