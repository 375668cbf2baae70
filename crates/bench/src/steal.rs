//! Block-claiming execution core (DESIGN.md §16).
//!
//! The sweep grids this repo runs are grids of *independent* jobs. The
//! runner cuts a grid's point indices into one contiguous block per
//! worker, balanced by an optional per-point cost hint ([`CostClass`]).
//! Each block is a `front..back` pair packed into one `AtomicU64`: its
//! owner claims points from the front, and a worker whose own block is
//! empty claims from the back of the others, scanning them in a fixed
//! order (`me+1, me+2, …`). A claim from either end is one
//! compare-and-swap on that word, so every index is claimed exactly
//! once. A worker exits when no block has an unclaimed point; it never
//! waits, because whoever claimed a point runs it.
//!
//! Contiguous blocks (rather than one shared cursor) keep workers on
//! different grid cells in a cold sweep: consecutive points share one
//! (benchmark, impedance) baseline memo fill, so handing points 0 and 1
//! to two workers would make one wait on the other's fill at every cell.
//!
//! **Determinism contract**: scheduling decides *which worker* runs a
//! point, never *what* the point computes. Jobs receive `(index,
//! &point)` exactly as in a serial loop, per-point seeds derive from
//! point identity (see [`crate::runner::point_seed`]), and results are
//! reassembled by point index. One worker ≡ many, bit for bit, for any
//! thread count and any claim interleaving.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use didt_telemetry::{Counter, Histogram, MetricsRegistry};

/// Counter: points a worker claimed from the back of another's block.
pub const STEAL_HITS_COUNTER: &str = "runner.steal.hits";
/// Histogram: per-worker busy nanoseconds (one sample per worker).
pub const WORKER_BUSY_NS_HISTOGRAM: &str = "runner.worker.busy_ns";

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64 (Steele et al.), the standard seed-expansion generator.
/// Small, fast and stateless beyond one `u64`, and trivially
/// reproducible from its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator over the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
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
}

// ---------------------------------------------------------------------------
// Cost hints
// ---------------------------------------------------------------------------

/// Per-point cost class for the initial partition.
///
/// `Uniform` treats every point as cost 1; `Hinted` supplies a relative
/// cost per point — any monotone proxy works (trace length for replay
/// points, window length for storm keys). Hints only shape the blocks;
/// correctness never depends on their accuracy, because idle workers
/// claim whatever the hints misjudged.
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
// Blocks
// ---------------------------------------------------------------------------

/// Cut `0..costs.len()` into one contiguous block per worker (some may
/// be empty): each point goes to the worker whose share of the total
/// cost holds the point's cost midpoint. A pure function of the costs
/// and the worker count.
fn partition_blocks(costs: &[u64], workers: usize) -> Vec<Range<usize>> {
    let workers = workers.max(1);
    let total: u64 = costs.iter().sum::<u64>().max(1);
    let mut ends = vec![0usize; workers];
    let mut acc = 0u64;
    for (i, &cost) in costs.iter().enumerate() {
        let mid = acc + cost / 2;
        let w = ((u128::from(mid) * workers as u128) / u128::from(total)) as usize;
        ends[w.min(workers - 1)] = i + 1;
        acc += cost;
    }
    // Midpoints only grow, so each block starts where the last ended.
    let mut start = 0;
    ends.into_iter()
        .map(|end| {
            let block = start..end.max(start);
            start = block.end;
            block
        })
        .collect()
}

/// One worker's unclaimed indices `front..back`, packed into one word
/// (front in the high half) so a claim from either end is one
/// compare-and-swap.
struct Block(AtomicU64);

impl Block {
    fn new(range: Range<usize>) -> Self {
        let end = u32::try_from(range.end).expect("sweep grids hold at most u32::MAX points");
        Block(AtomicU64::new((range.start as u64) << 32 | u64::from(end)))
    }

    /// Claim the front index (the owner's end) or the back one (a
    /// thief's); `None` when the block is empty. Exclusivity needs only
    /// the word's own modification order, so `Relaxed` suffices: the
    /// results travel back through the thread joins.
    fn claim(&self, from_back: bool) -> Option<usize> {
        let split = |word: u64| (word >> 32, word & u64::from(u32::MAX));
        let take = |word: u64| {
            if from_back {
                word - 1
            } else {
                word + (1 << 32)
            }
        };
        let prev = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
                let (front, back) = split(word);
                (front < back).then(|| take(word))
            })
            .ok()?;
        let (front, back) = split(prev);
        Some(if from_back { back - 1 } else { front } as usize)
    }
}

/// One worker's harvest: its executed points plus what it observed.
struct Drained<R> {
    results: Vec<(usize, R)>,
    steal_hits: u64,
    busy_ns: u64,
}

/// Worker `me`'s loop: claim from its own block's front, else from the
/// back of the next non-empty block after it; stop when none is left.
fn drain<P, R, F>(me: usize, blocks: &[Block], points: &[P], job: &F) -> Drained<R>
where
    F: Fn(usize, &P) -> R,
{
    let mut out = Drained {
        results: Vec::new(),
        steal_hits: 0,
        busy_ns: 0,
    };
    loop {
        let i = match blocks[me].claim(false) {
            Some(i) => i,
            None => {
                let stolen =
                    (1..blocks.len()).find_map(|k| blocks[(me + k) % blocks.len()].claim(true));
                let Some(i) = stolen else { break };
                out.steal_hits += 1;
                i
            }
        };
        let t0 = Instant::now();
        out.results.push((i, job(i, &points[i])));
        out.busy_ns += t0.elapsed().as_nanos() as u64;
    }
    out
}

/// Run `job(index, &point)` over every point on `workers` threads (on
/// the calling thread when `workers` is 1), returning the results in
/// point order with what the scheduler did.
pub(crate) fn run_blocks<P, R, F>(
    points: &[P],
    workers: usize,
    cost: CostClass<P>,
    job: &F,
) -> (Vec<R>, SchedReport)
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    let costs: Vec<u64> = points.iter().map(|p| cost.cost(p)).collect();
    let blocks: Vec<Block> = partition_blocks(&costs, workers)
        .into_iter()
        .map(Block::new)
        .collect();
    let blocks = &blocks[..];
    let per_worker: Vec<Drained<R>> = if workers <= 1 {
        vec![drain(0, blocks, points, job)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| scope.spawn(move || drain(me, blocks, points, job)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
    };
    let mut report = SchedReport::default();
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(points.len());
    for w in per_worker {
        report.steal_hits += w.steal_hits;
        report.worker_busy_ns.push(w.busy_ns);
        indexed.extend(w.results);
    }
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), points.len());
    (indexed.into_iter().map(|(_, r)| r).collect(), report)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// What one scheduled run did, for manifests and the sweep benchmark.
/// Steal hits and busy times vary with the claim interleaving, never
/// with results, so the manifest stores them outside the non-timing
/// fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedReport {
    /// Points claimed from the back of another worker's block.
    pub steal_hits: u64,
    /// Busy (job-executing) nanoseconds per worker that ran (the
    /// thread count clamped to the point count), indexed by worker.
    pub worker_busy_ns: Vec<u64>,
}

impl SchedReport {
    /// Fold another run's observations into this one (used by drivers
    /// that invoke the runner repeatedly, e.g. `storm_report`).
    pub fn absorb(&mut self, other: &SchedReport) {
        self.steal_hits += other.steal_hits;
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
        static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
        static BUSY: OnceLock<Arc<Histogram>> = OnceLock::new();
        HITS.get_or_init(|| MetricsRegistry::global().counter(STEAL_HITS_COUNTER))
            .add(self.steal_hits);
        let busy =
            BUSY.get_or_init(|| MetricsRegistry::global().histogram(WORKER_BUSY_NS_HISTOGRAM));
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
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(
            draws[0],
            SplitMix64::new(4).next_u64(),
            "seeds must not share streams"
        );
        assert!((0..64).all(|_| a.below(5) < 5));
    }

    #[test]
    fn blocked_partition_is_contiguous_and_total() {
        let skewed: Vec<u64> = (0..100u64).map(|i| 1 + i % 7).collect();
        for n in [1usize, 2, 7, 57, 100] {
            for workers in 1..=8 {
                for costs in [vec![1u64; n], skewed[..n].to_vec()] {
                    let blocks = partition_blocks(&costs, workers);
                    assert_eq!(blocks.len(), workers);
                    let mut next = 0usize;
                    for b in &blocks {
                        assert_eq!(b.start, next, "n {n}, workers {workers}: {blocks:?}");
                        next = b.end;
                    }
                    assert_eq!(next, n, "n {n}, workers {workers}: {blocks:?}");
                }
            }
        }
    }

    #[test]
    fn skewed_costs_split_finer_near_heavy_points() {
        // Zipf-ish costs descending: every block's cost lies within one
        // point's cost of an even share, so the heavy head gets narrow
        // blocks and the light tail wide ones.
        let costs: Vec<u64> = (0..64u64).map(|i| 8000 / (i + 1)).collect();
        let total: u64 = costs.iter().sum();
        let heaviest = *costs.iter().max().unwrap();
        for workers in 1..=8 {
            let blocks = partition_blocks(&costs, workers);
            let share = total as f64 / workers as f64;
            for b in &blocks {
                let cost: u64 = costs[b.clone()].iter().sum();
                assert!(
                    (cost as f64 - share).abs() <= heaviest as f64,
                    "workers {workers}: block {b:?} costs {cost}, share {share}"
                );
            }
            if workers > 1 {
                assert!(blocks[0].len() < blocks[workers - 1].len(), "{blocks:?}");
            }
        }
    }

    #[test]
    fn claims_take_front_in_order_and_back_in_reverse() {
        let block = Block::new(3..8);
        assert_eq!(block.claim(false), Some(3));
        assert_eq!(block.claim(true), Some(7));
        assert_eq!(block.claim(true), Some(6));
        assert_eq!(block.claim(false), Some(4));
        assert_eq!(block.claim(false), Some(5));
        assert_eq!(block.claim(false), None);
        assert_eq!(block.claim(true), None);
        assert_eq!(Block::new(4..4).claim(true), None);
    }

    #[test]
    fn claims_cover_range_exactly_once() {
        // Eight workers drain 10,000 trivial points. Worker 0 owns most
        // of them, so the other seven finish their own small blocks from
        // the front and then claim from the back of worker 0's while it
        // still claims from the front.
        let n = 10_000;
        let start = |w: usize| match w {
            0 => 0,
            8 => n,
            _ => 9_000 + (w - 1) * 1_000 / 7,
        };
        let blocks: Vec<Block> = (0..8).map(|w| Block::new(start(w)..start(w + 1))).collect();
        let points = vec![(); n];
        let drained: Vec<Drained<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|me| {
                    let (blocks, points) = (&blocks, &points);
                    scope.spawn(move || drain(me, blocks, points, &|i, _| i))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = vec![0u32; n];
        for (me, d) in drained.iter().enumerate() {
            for &(i, r) in &d.results {
                assert_eq!(i, r);
                seen[i] += 1;
            }
            // A worker never steals from itself, so its steals are
            // exactly the points it ran from outside its own block.
            let own = start(me)..start(me + 1);
            let foreign = d.results.iter().filter(|(i, _)| !own.contains(i)).count();
            assert_eq!(d.steal_hits as usize, foreign, "worker {me}");
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "an index was claimed twice or never"
        );
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut total = SchedReport::default();
        let run = SchedReport {
            steal_hits: 3,
            worker_busy_ns: vec![100, 200, 300, 400],
        };
        total.absorb(&run);
        total.absorb(&run);
        assert_eq!(total.steal_hits, 6);
        assert_eq!(total.worker_busy_ns, vec![200, 400, 600, 800]);
        let fr = total.busy_fractions();
        assert_eq!(fr.len(), 4);
        assert!((fr[3] - 1.0).abs() < 1e-12);
        assert!((fr[0] - 0.25).abs() < 1e-12);
    }
}
