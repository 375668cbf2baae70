//! Parallel experiment engine with a shared calibration cache.
//!
//! The figure/table binaries all walk some grid of experiment points —
//! (benchmark × supply impedance × monitor budget × control scheme) —
//! and each point is an independent, CPU-bound closed-loop simulation.
//! This module gives them a common engine:
//!
//! * [`Sweep`] — declarative grid of [`SweepPoint`]s, enumerated in a
//!   fixed deterministic order;
//! * [`ExperimentRunner`] — a worker pool over any point slice, with
//!   results returned **by point index** so output never depends on
//!   execution order;
//! * [`SweepContext`] — shared, thread-safe memoization of the
//!   expensive intermediates (calibrated PDN instances, wavelet monitor
//!   designs, captured current traces, per-scale gain calibrations,
//!   uncontrolled baseline runs), each computed exactly once per
//!   process no matter how many workers ask for it;
//! * [`point_seed`] / [`workload_seed`] — deterministic per-point RNG
//!   seeds derived from the point's *identity* (benchmark, impedance),
//!   never from execution order, so serial and parallel sweeps are
//!   bit-identical.
//!
//! Thread count comes from `DIDT_NUM_THREADS`, else
//! [`std::thread::available_parallelism`]; the pool is hand-rolled on
//! `std::thread`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::steal::{CostClass, SchedReport};

use didt_core::characterize::ScaleGainModel;
use didt_core::control::{
    ClosedLoop, ClosedLoopConfig, ClosedLoopResult, DidtController, NoControl, PipelineDamping,
    Replay, SimScratch, ThresholdController,
};
use didt_core::monitor::{
    AnalogSensor, BiquadMonitor, FamilyMonitorDesign, FullConvolutionMonitor, WaveletMonitorDesign,
};
use didt_core::{DidtError, DidtSystem};
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use didt_stats::{ChiSquaredGof, PreparedGof};
use didt_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use didt_trace::{Record, ReplayColumns, TraceError, TraceReader};
use didt_uarch::{
    capture_trace, Benchmark, ControlAction, CurrentTrace, Processor, ProcessorConfig,
    WorkloadGenerator,
};

// ---------------------------------------------------------------------------
// Deterministic seeding
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Impedance percentage in exact integer millipercent, the canonical
/// form used in seeds and cache keys (avoids `f64` bit-pattern traps).
#[must_use]
pub fn pct_millis(pct: f64) -> u64 {
    (pct * 1000.0).round() as u64
}

/// Workload seed for closed-loop runs at one (benchmark, impedance)
/// cell. Derived from the cell's identity only: every controller
/// evaluated on the cell replays the *same* instruction stream as the
/// uncontrolled baseline (slowdowns compare like with like), and the
/// seed is independent of sweep shape and execution order.
#[must_use]
pub fn workload_seed(benchmark: Benchmark, pdn_pct: f64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"didt-sweep-v1");
    h = fnv1a(h, benchmark.name().as_bytes());
    fnv1a(h, &pct_millis(pdn_pct).to_le_bytes())
}

/// Fully distinguishing deterministic seed for one sweep point,
/// folding in the controller and monitor budget as well. Use this when
/// a point needs point-private randomness; closed-loop workloads use
/// [`workload_seed`] instead so baselines stay shared.
#[must_use]
pub fn point_seed(point: &SweepPoint) -> u64 {
    let mut h = workload_seed(point.benchmark, point.pdn_pct);
    h = fnv1a(h, &(point.monitor_terms as u64).to_le_bytes());
    h = fnv1a(h, point.controller.tag().as_bytes());
    match point.controller {
        ControllerSpec::None => h,
        ControllerSpec::AnalogThreshold {
            low,
            high,
            hysteresis,
        }
        | ControllerSpec::FullConvolution {
            low,
            high,
            hysteresis,
        } => {
            for v in [low, high, hysteresis] {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
            h
        }
        ControllerSpec::PipelineDamping { window, max_delta } => {
            h = fnv1a(h, &(window as u64).to_le_bytes());
            fnv1a(h, &max_delta.to_bits().to_le_bytes())
        }
        ControllerSpec::WaveletThreshold {
            low,
            high,
            hysteresis,
            delay,
        }
        | ControllerSpec::BiquadRecursive {
            low,
            high,
            hysteresis,
            delay,
        } => {
            for v in [low, high, hysteresis] {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
            fnv1a(h, &(delay as u64).to_le_bytes())
        }
        ControllerSpec::WaveletFamilyThreshold {
            low,
            high,
            hysteresis,
            delay,
            family,
            boundary,
        } => {
            for v in [low, high, hysteresis] {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
            h = fnv1a(h, &(delay as u64).to_le_bytes());
            h = fnv1a(h, family.name().as_bytes());
            fnv1a(h, boundary.name().as_bytes())
        }
    }
}

// ---------------------------------------------------------------------------
// Memoization
// ---------------------------------------------------------------------------

/// Lock shards per [`MemoCache`]. Power of two so shard selection is a
/// mask; 16 comfortably exceeds any worker count this engine sees, so
/// two threads touching *different* keys almost never share a lock.
const MEMO_SHARDS: usize = 16;

/// FNV-1a [`std::hash::Hasher`] — deterministic (unlike the std
/// `RandomState` default), so a key lands on the same shard in every
/// run and shard-occupancy numbers are reproducible.
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// A concurrent compute-once cache, sharded by key hash.
///
/// The first caller of [`MemoCache::get_or_compute`] for a key runs
/// the closure; concurrent callers for the same key wait on the same
/// slot and share the resulting [`Arc`] — a value is computed **exactly
/// once per key** per process, no matter the interleaving. A hit runs
/// nothing but the slot lookup.
///
/// Errors are never memoized: a fill whose closure fails removes its
/// slot before any waiter can see it, so a failed key leaves no slot,
/// no computation count, no request count and no exported entry behind
/// (a hostile caller cannot grow the map with bad keys), and the next
/// caller for that key computes afresh.
///
/// The key map is split across 16 independent mutexes
/// (selected by FNV-1a key hash), and a shard lock is held only while
/// locating the slot — never while computing — so distinct keys compute
/// in parallel and slot lookups for different shards never serialize at
/// all. Each slot-lookup that finds its shard lock already held counts
/// into [`MemoCache::contended`] and the global
/// `runner.cache.shard_contention` telemetry counter.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    computations: AtomicUsize,
    requests: AtomicUsize,
    contended: AtomicUsize,
}

/// One key's slot, shared by every caller that raced on the key.
/// `value` is set at most once, by the holder of `fill`. A failed fill
/// removes the slot from its shard while still holding `fill`, so a
/// waiter that then takes `fill` finds either the value or a slot no
/// longer in the map, and starts over.
#[derive(Debug)]
struct Slot<V> {
    value: OnceLock<Arc<V>>,
    fill: Mutex<()>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            value: OnceLock::new(),
            fill: Mutex::new(()),
        }
    }
}

/// One shard's key map.
type Shard<K, V> = HashMap<K, Arc<Slot<V>>>;

/// What a caller holding a slot's fill lock finds in the slot.
enum Fill<'s, V> {
    /// Empty and still in its shard: this caller fills it.
    Mine(std::sync::MutexGuard<'s, ()>),
    /// Another caller filled it meanwhile.
    Filled(Arc<V>),
    /// A failed fill evicted it; look the key up again.
    Evicted,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        MemoCache {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            computations: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            contended: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + std::hash::Hash + Clone, V> MemoCache<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        MemoCache::default()
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = FnvHasher(FNV_OFFSET);
        key.hash(&mut hasher);
        let h = hasher.0;
        // Fold the high bits in: FNV's low bits alone mix weakly for
        // short integer keys.
        ((h ^ (h >> 32)) as usize) & (MEMO_SHARDS - 1)
    }

    fn shard(&self, key: &K) -> std::sync::MutexGuard<'_, Shard<K, V>> {
        let shard = &self.shards[self.shard_of(key)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                static CONTENTION: OnceLock<Arc<Counter>> = OnceLock::new();
                self.contended.fetch_add(1, Ordering::Relaxed);
                CONTENTION
                    .get_or_init(|| {
                        MetricsRegistry::global().counter("runner.cache.shard_contention")
                    })
                    .incr();
                shard.lock().expect("memo cache poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(e)) => panic!("memo cache poisoned: {e}"),
        }
    }

    /// The slot for `key`, inserted empty on first sight.
    fn slot(&self, key: &K) -> Arc<Slot<V>> {
        Arc::clone(self.shard(key).entry(key.clone()).or_default())
    }

    /// Take `slot`'s fill lock and see what the slot holds now.
    fn lock_fill<'s>(&self, key: &K, slot: &'s Slot<V>) -> Fill<'s, V> {
        // A closure that panicked mid-fill left the slot empty and its
        // lock poisoned; the next caller simply fills it.
        let guard = slot
            .fill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(value) = slot.value.get() {
            return Fill::Filled(Arc::clone(value));
        }
        let resident = self
            .shard(key)
            .get(key)
            .is_some_and(|s| std::ptr::eq(Arc::as_ptr(s), slot));
        if resident {
            Fill::Mine(guard)
        } else {
            Fill::Evicted
        }
    }

    /// The value for `key`, computing it with `compute` on first use.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let Ok(value) = self.try_get_or_compute(key, || Ok::<V, Infallible>(compute()));
        value
    }

    /// The value for `key`, computing it with the fallible `compute` on
    /// first use. On `Err` nothing is cached or counted: the key's slot
    /// is removed and the next caller computes again.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error when this call ran it and it failed.
    fn try_get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        loop {
            let slot = self.slot(&key);
            let value = match slot.value.get() {
                Some(value) => Arc::clone(value),
                None => match self.lock_fill(&key, &slot) {
                    Fill::Filled(value) => value,
                    Fill::Evicted => continue,
                    Fill::Mine(_fill) => match compute() {
                        Ok(value) => {
                            self.computations.fetch_add(1, Ordering::Relaxed);
                            Arc::clone(slot.value.get_or_init(|| Arc::new(value)))
                        }
                        Err(e) => {
                            self.shard(&key).remove(&key);
                            return Err(e);
                        }
                    },
                },
            };
            self.requests.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
    }

    /// Number of distinct keys resident, summed over shards. Shard
    /// locks are taken one at a time and are never held during a
    /// compute, so this cannot block (or be blocked by) a fill.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo cache poisoned").len())
            .sum()
    }

    /// `true` when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times a compute closure actually ran (equals the number
    /// of distinct keys ever requested; the basis of the
    /// computed-exactly-once tests).
    #[must_use]
    pub fn computations(&self) -> usize {
        self.computations.load(Ordering::Relaxed)
    }

    /// Calls that returned a value; failed fills are not counted.
    /// Depends only on the set of points run — not on thread count or
    /// interleaving — so it is safe to include in a run manifest's
    /// non-timing fields.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that were served from cache (`requests - computations`).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.requests().saturating_sub(self.computations())
    }

    /// Slot lookups that hit a busy shard lock and had to wait. Purely
    /// a timing observable — it varies with interleaving and belongs in
    /// timing fields only, unlike [`MemoCache::requests`].
    #[must_use]
    pub fn contended(&self) -> usize {
        self.contended.load(Ordering::Relaxed)
    }

    /// Insert an already-computed value for `key` without running a
    /// compute closure, for cache warming from a peer's snapshot.
    ///
    /// Returns `true` if the value was installed, `false` when the key
    /// already holds a value (or has a fill in flight) — the resident
    /// value always wins, so a snapshot can never overwrite local work.
    /// Seeding bumps neither `requests` nor `computations`: warmed
    /// entries count as hits when first requested, which is exactly the
    /// effect cache warming is meant to have on the hit ratio.
    pub fn seed(&self, key: K, value: V) -> bool {
        loop {
            let slot = self.slot(&key);
            let installed = match self.lock_fill(&key, &slot) {
                Fill::Filled(_) => false,
                Fill::Evicted => continue,
                Fill::Mine(_fill) => {
                    slot.value.get_or_init(|| Arc::new(value));
                    true
                }
            };
            return installed;
        }
    }

    /// Snapshot of every completed entry: `(key, value)` pairs whose
    /// fill has finished. Entries with a compute still in flight are
    /// skipped rather than waited on, so this never blocks on a fill —
    /// the exporter side of the cache-warming protocol.
    fn completed_entries(&self) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let slots = shard.lock().expect("memo cache poisoned");
            for (key, slot) in slots.iter() {
                if let Some(value) = slot.value.get() {
                    out.push((key.clone(), Arc::clone(value)));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-worker scratch
// ---------------------------------------------------------------------------

thread_local! {
    /// Each sweep (and `didt-serve` request) worker thread's closed-loop
    /// scratch: the processor and warmup trace buffer are allocated on
    /// the thread's first point and rewound in place for every point
    /// after that. Purely an allocation optimization — results are
    /// bit-identical with or without reuse (see
    /// [`didt_core::control::SimScratch`]).
    static WORKER_SCRATCH: std::cell::RefCell<SimScratch> =
        std::cell::RefCell::new(SimScratch::new());
}

/// Run `f` with the calling thread's scratch. Nested calls would panic
/// on the `RefCell` — keep the closure leaf-level (one simulation, not a
/// whole sweep point).
fn with_worker_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    WORKER_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Thread count for parallel sections: `DIDT_NUM_THREADS` when it
/// parses to at least 1, else the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("DIDT_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// A fixed-width worker pool mapping a job over a slice of points.
///
/// Each worker owns one contiguous block of point indices, cut by the
/// cost hint, and claims from its front; a worker whose block is empty
/// claims from the back of the others' (see [`crate::steal`]). One
/// worker runs the same loop on the calling thread. Every result is
/// stored at its point's index, so the output `Vec` is identical for
/// any thread count (including 1) and any claim interleaving.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentRunner {
    threads: usize,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::from_env()
    }
}

impl ExperimentRunner {
    /// A runner sized by [`default_threads`].
    #[must_use]
    pub fn from_env() -> Self {
        ExperimentRunner::with_threads(default_threads())
    }

    /// A single-threaded runner (the reference ordering).
    #[must_use]
    pub fn serial() -> Self {
        ExperimentRunner::with_threads(1)
    }

    /// A runner with an explicit worker count (min 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ExperimentRunner {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `job(index, &point)` over every point, returning results in
    /// point order. Uniform-cost scheduling; see [`Self::run_costed`]
    /// for hinted grids.
    pub fn run<P, R, F>(&self, points: &[P], job: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(usize, &P) -> R + Sync,
    {
        self.run_costed(points, CostClass::Uniform, job)
    }

    /// [`Self::run`] with a per-point cost hint cutting the workers'
    /// blocks. Hints never affect results — only which worker runs
    /// which point.
    pub fn run_costed<P, R, F>(&self, points: &[P], cost: CostClass<P>, job: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(usize, &P) -> R + Sync,
    {
        self.run_costed_reported(points, cost, job).0
    }

    /// [`Self::run_costed`] that also returns what the scheduler did
    /// (steal hits, per-worker busy time) for manifests and the sweep
    /// benchmark. Counters are also published to the global metrics
    /// registry.
    pub fn run_costed_reported<P, R, F>(
        &self,
        points: &[P],
        cost: CostClass<P>,
        job: F,
    ) -> (Vec<R>, SchedReport)
    where
        P: Sync,
        R: Send,
        F: Fn(usize, &P) -> R + Sync,
    {
        if points.is_empty() {
            return (Vec::new(), SchedReport::default());
        }
        let (results, report) =
            crate::steal::run_blocks(points, self.threads.min(points.len()), cost, &job);
        report.publish();
        (results, report)
    }
}

// ---------------------------------------------------------------------------
// Sweep grids
// ---------------------------------------------------------------------------

/// One control scheme in a sweep, with its control points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerSpec {
    /// Uncontrolled run (the baseline itself).
    None,
    /// Threshold controller on the delayed analog voltage sensor.
    AnalogThreshold {
        /// Low control point (V).
        low: f64,
        /// High control point (V).
        high: f64,
        /// Release hysteresis (V).
        hysteresis: f64,
    },
    /// Threshold controller on the full impulse-response convolution.
    FullConvolution {
        /// Low control point (V).
        low: f64,
        /// High control point (V).
        high: f64,
        /// Release hysteresis (V).
        hysteresis: f64,
    },
    /// Open-loop pipeline damping (no voltage feedback).
    PipelineDamping {
        /// Averaging window (cycles).
        window: usize,
        /// Maximum permitted issue-current delta per window (A).
        max_delta: f64,
    },
    /// Threshold controller on the wavelet-convolution monitor, using
    /// the sweep point's `monitor_terms` budget.
    WaveletThreshold {
        /// Low control point (V).
        low: f64,
        /// High control point (V).
        high: f64,
        /// Release hysteresis (V).
        hysteresis: f64,
        /// Sensor delay in cycles.
        delay: usize,
    },
    /// Threshold controller on the exact recursive (biquad) droop
    /// evaluator — the O(1) streaming limit of the full-convolution
    /// scheme (five terms per cycle, zero truncation error). Not a
    /// paper Table 2 scheme; serves as the performance ceiling.
    BiquadRecursive {
        /// Low control point (V).
        low: f64,
        /// High control point (V).
        high: f64,
        /// Release hysteresis (V).
        hysteresis: f64,
        /// Estimate-pipeline delay in cycles.
        delay: usize,
    },
    /// Threshold controller on the filter-generic
    /// [`didt_core::monitor::FamilyMonitor`] — the `ext_wavelet_family`
    /// scheme: wavelet-compressed impulse response in any Daubechies
    /// basis and boundary mode, truncated to the sweep point's
    /// `monitor_terms` budget. With `family: Haar` and
    /// `boundary: Periodic` the retained-coefficient set matches
    /// [`ControllerSpec::WaveletThreshold`]'s.
    WaveletFamilyThreshold {
        /// Low control point (V).
        low: f64,
        /// High control point (V).
        high: f64,
        /// Release hysteresis (V).
        hysteresis: f64,
        /// Sensor delay in cycles.
        delay: usize,
        /// Wavelet basis family.
        family: WaveletFamily,
        /// Boundary extension mode of the design decomposition.
        boundary: BoundaryMode,
    },
}

impl ControllerSpec {
    /// Short stable name (table rows, seeds, cache keys).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ControllerSpec::None => "none",
            ControllerSpec::AnalogThreshold { .. } => "analog-sensor",
            ControllerSpec::FullConvolution { .. } => "full-convolution",
            ControllerSpec::PipelineDamping { .. } => "pipeline-damping",
            ControllerSpec::WaveletThreshold { .. } => "wavelet-convolution",
            ControllerSpec::BiquadRecursive { .. } => "biquad-recursive",
            ControllerSpec::WaveletFamilyThreshold { .. } => "wavelet-family",
        }
    }
}

/// One experiment point: the cartesian atom of a [`Sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Benchmark workload.
    pub benchmark: Benchmark,
    /// Supply impedance as a percentage of target (100 = calibrated).
    pub pdn_pct: f64,
    /// Wavelet monitor term budget `K` (ignored by non-wavelet schemes).
    pub monitor_terms: usize,
    /// Control scheme.
    pub controller: ControllerSpec,
}

/// A declarative experiment grid.
///
/// [`Sweep::points`] enumerates the cartesian product in a fixed
/// deterministic nesting order (benchmark outermost, controller
/// innermost), which is also the order of the runner's result vector.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    benchmarks: Vec<Benchmark>,
    pdn_pcts: Vec<f64>,
    monitor_terms: Vec<usize>,
    controllers: Vec<ControllerSpec>,
}

impl Sweep {
    /// An empty grid; populate every axis before enumerating.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Set the benchmark axis.
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Set the supply-impedance axis (percent of target).
    #[must_use]
    pub fn pdn_pcts(mut self, pcts: &[f64]) -> Self {
        self.pdn_pcts = pcts.to_vec();
        self
    }

    /// Set the monitor term-budget axis.
    #[must_use]
    pub fn monitor_terms(mut self, terms: &[usize]) -> Self {
        self.monitor_terms = terms.to_vec();
        self
    }

    /// Set the control-scheme axis.
    #[must_use]
    pub fn controllers(mut self, controllers: &[ControllerSpec]) -> Self {
        self.controllers = controllers.to_vec();
        self
    }

    /// The grid's axes in manifest form, rendered to strings in sweep
    /// order. Axes left empty are reported empty (the defaults
    /// [`Sweep::points`] substitutes are an enumeration detail).
    #[must_use]
    pub fn grid_axes(&self) -> Vec<didt_telemetry::GridAxis> {
        vec![
            didt_telemetry::GridAxis {
                name: "benchmarks".to_string(),
                values: self
                    .benchmarks
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect(),
            },
            didt_telemetry::GridAxis {
                name: "pdn_pcts".to_string(),
                values: self.pdn_pcts.iter().map(|p| format!("{p}")).collect(),
            },
            didt_telemetry::GridAxis {
                name: "monitor_terms".to_string(),
                values: self.monitor_terms.iter().map(|t| format!("{t}")).collect(),
            },
            didt_telemetry::GridAxis {
                name: "controllers".to_string(),
                values: self
                    .controllers
                    .iter()
                    .map(|c| c.tag().to_string())
                    .collect(),
            },
        ]
    }

    /// Enumerate the grid. Axes left empty contribute a single default
    /// element (100 % impedance, 13 terms, no controller) so partial
    /// grids stay usable.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        let pcts: &[f64] = if self.pdn_pcts.is_empty() {
            &[100.0]
        } else {
            &self.pdn_pcts
        };
        let terms: &[usize] = if self.monitor_terms.is_empty() {
            &[13]
        } else {
            &self.monitor_terms
        };
        let ctls: &[ControllerSpec] = if self.controllers.is_empty() {
            &[ControllerSpec::None]
        } else {
            &self.controllers
        };
        let mut out =
            Vec::with_capacity(self.benchmarks.len() * pcts.len() * terms.len() * ctls.len());
        for &benchmark in &self.benchmarks {
            for &pdn_pct in pcts {
                for &monitor_terms in terms {
                    for &controller in ctls {
                        out.push(SweepPoint {
                            benchmark,
                            pdn_pct,
                            monitor_terms,
                            controller,
                        });
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Shared context
// ---------------------------------------------------------------------------

/// Closed-loop run parameters shared by every point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Instructions committed in the measured region.
    pub instructions: u64,
    /// Warmup cycles before measurement.
    pub warmup_cycles: u64,
}

/// Why [`SweepContext::run_replay_stream`] failed: the recording or
/// the replay.
#[derive(Debug)]
pub enum StreamReplayError {
    /// The `.dtrc` reader rejected the recording.
    Trace(TraceError),
    /// The point could not be set up or replayed, or the deadline
    /// passed between chunks.
    Replay(DidtError),
}

impl std::fmt::Display for StreamReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamReplayError::Trace(e) => write!(f, "recorded trace: {e}"),
            StreamReplayError::Replay(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for StreamReplayError {}

impl From<TraceError> for StreamReplayError {
    fn from(e: TraceError) -> Self {
        StreamReplayError::Trace(e)
    }
}

impl From<DidtError> for StreamReplayError {
    fn from(e: DidtError) -> Self {
        StreamReplayError::Replay(e)
    }
}

/// Outcome of one sweep point: the controlled run next to the shared
/// uncontrolled baseline of its (benchmark, impedance) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The point that produced this result.
    pub point: SweepPoint,
    /// The workload seed both runs used.
    pub seed: u64,
    /// Uncontrolled baseline (shared across the cell's controllers).
    pub baseline: ClosedLoopResult,
    /// The controlled run ([`ControllerSpec::None`] repeats the baseline).
    pub controlled: ClosedLoopResult,
}

impl PointResult {
    /// Controlled slowdown vs the cell baseline, clamped at 0, percent.
    #[must_use]
    pub fn slowdown_pct(&self) -> f64 {
        100.0 * self.controlled.slowdown_vs(&self.baseline).max(0.0)
    }
}

type TraceKey = (u64, &'static str, u64, usize, usize);

/// Open-loop capture of a full-record trace: like
/// [`didt_uarch::capture_trace`] but keeping each cycle's power,
/// committed count and per-cycle event deltas alongside the current.
/// Warmup cycles are simulated and discarded (the `.dtrc` header's
/// `discarded_warmup` provenance field records how many); deterministic
/// in `(benchmark, seed)`.
#[must_use]
pub fn capture_records(
    benchmark: Benchmark,
    cfg: &ProcessorConfig,
    seed: u64,
    warmup: usize,
    cycles: usize,
) -> Vec<Record> {
    let gen = WorkloadGenerator::new(benchmark.profile(), seed);
    let mut cpu = Processor::new(*cfg, gen);
    for _ in 0..warmup {
        cpu.step(ControlAction::Normal);
    }
    let mut records = Vec::with_capacity(cycles);
    let stats = cpu.stats();
    let mut l2_base = stats.l2_misses;
    let mut misp_base = stats.branch_mispredicts;
    for _ in 0..cycles {
        let out = cpu.step(ControlAction::Normal);
        let s = cpu.stats();
        records.push(Record {
            current: out.current,
            power: out.power,
            committed: out.committed.min(u32::from(u16::MAX)) as u16,
            l2_misses: (s.l2_misses - l2_base).min(u64::from(u16::MAX)) as u16,
            mispredicts: (s.branch_mispredicts - misp_base).min(u64::from(u16::MAX)) as u16,
        });
        l2_base = s.l2_misses;
        misp_base = s.branch_mispredicts;
    }
    records
}

/// Per-class compute counts from [`SweepContext::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calibrated PDN instances built.
    pub pdns: usize,
    /// Wavelet monitor designs decomposed.
    pub designs: usize,
    /// Filter-generic family monitor designs decomposed.
    pub family_designs: usize,
    /// Current traces captured.
    pub traces: usize,
    /// Full-record traces (current + power + events) captured.
    pub records: usize,
    /// Per-scale gain calibrations run.
    pub gains: usize,
    /// Non-Haar per-scale gain calibrations run.
    pub family_gains: usize,
    /// Prepared χ² goodness-of-fit tests built.
    pub gof_tests: usize,
    /// Full-convolution monitors built.
    pub full_convs: usize,
    /// Uncontrolled baselines simulated.
    pub baselines: usize,
}

/// Shared per-process state for a sweep: the calibrated system plus
/// compute-once caches for every expensive intermediate. Clone the
/// [`Arc`] into workers; all caches are thread-safe.
#[derive(Debug)]
pub struct SweepContext {
    system: DidtSystem,
    pdns: MemoCache<u64, SecondOrderPdn>,
    designs: MemoCache<(u64, usize), WaveletMonitorDesign>,
    family_designs: MemoCache<FamilyDesignKey, FamilyMonitorDesign>,
    traces: MemoCache<TraceKey, CurrentTrace>,
    records: MemoCache<TraceKey, Vec<Record>>,
    gains: MemoCache<(u64, usize, u64), ScaleGainModel>,
    family_gains: MemoCache<(u64, usize, u64, &'static str), ScaleGainModel>,
    /// Keyed by (bins, significance bits).
    gof_tests: MemoCache<(usize, u64), PreparedGof>,
    full_convs: MemoCache<u64, FullConvolutionMonitor>,
    baselines: MemoCache<BaselineKey, Result<ClosedLoopResult, DidtError>>,
}

/// Family design cache key: (impedance millipercent, window, family
/// name, boundary-mode name). Names are the stable `name()` strings.
type FamilyDesignKey = (u64, usize, &'static str, &'static str);

/// Baseline cache key: (impedance millipercent, benchmark name,
/// instructions, warmup cycles, workload seed).
type BaselineKey = (u64, &'static str, u64, u64, u64);

/// One gain-model calibration lifted out of (or destined for) a
/// [`SweepContext`] memo cache — the unit of the cluster cache-warming
/// snapshot. Key parts mirror the cache keys exactly; `pct_millis` is
/// the [`pct_millis`] encoding of the PDN impedance percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct GainSnapshotEntry {
    /// PDN impedance percentage in millipercent (cache-key encoding).
    pub pct_millis: u64,
    /// Analysis window in cycles.
    pub window: usize,
    /// Calibration seed.
    pub seed: u64,
    /// Wavelet family the model was calibrated in.
    pub family: WaveletFamily,
    /// The calibrated model itself.
    pub model: ScaleGainModel,
}

impl SweepContext {
    /// Build the context around the standard Table 1 system.
    ///
    /// # Errors
    ///
    /// Propagates calibration failure from [`DidtSystem::standard`].
    pub fn standard() -> Result<Arc<Self>, DidtError> {
        Ok(SweepContext::new(DidtSystem::standard()?))
    }

    /// Build the context around an explicit system.
    #[must_use]
    pub fn new(system: DidtSystem) -> Arc<Self> {
        Arc::new(SweepContext {
            system,
            pdns: MemoCache::new(),
            designs: MemoCache::new(),
            family_designs: MemoCache::new(),
            traces: MemoCache::new(),
            records: MemoCache::new(),
            gains: MemoCache::new(),
            family_gains: MemoCache::new(),
            gof_tests: MemoCache::new(),
            full_convs: MemoCache::new(),
            baselines: MemoCache::new(),
        })
    }

    /// The calibrated system.
    #[must_use]
    pub fn system(&self) -> &DidtSystem {
        &self.system
    }

    /// How many times each cached artifact class was actually computed
    /// (not merely requested) — the observable for the
    /// computed-exactly-once guarantees.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            pdns: self.pdns.computations(),
            designs: self.designs.computations(),
            family_designs: self.family_designs.computations(),
            traces: self.traces.computations(),
            records: self.records.computations(),
            gains: self.gains.computations(),
            family_gains: self.family_gains.computations(),
            gof_tests: self.gof_tests.computations(),
            full_convs: self.full_convs.computations(),
            baselines: self.baselines.computations(),
        }
    }

    /// Fill/hit activity per cache class, in manifest form. Both counts
    /// depend only on the set of points run, never on thread count or
    /// interleaving, so they belong to a manifest's non-timing fields.
    #[must_use]
    pub fn cache_activity(&self) -> Vec<didt_telemetry::CacheClassRecord> {
        fn rec<K: Eq + std::hash::Hash + Clone, V>(
            name: &'static str,
            cache: &MemoCache<K, V>,
        ) -> didt_telemetry::CacheClassRecord {
            didt_telemetry::CacheClassRecord {
                name,
                computed: cache.computations() as u64,
                requests: cache.requests() as u64,
            }
        }
        vec![
            rec("pdns", &self.pdns),
            rec("designs", &self.designs),
            rec("family_designs", &self.family_designs),
            rec("traces", &self.traces),
            rec("records", &self.records),
            rec("gains", &self.gains),
            rec("family_gains", &self.family_gains),
            rec("gof_tests", &self.gof_tests),
            rec("full_convs", &self.full_convs),
            rec("baselines", &self.baselines),
        ]
    }

    /// The PDN at `pct` percent of target impedance, calibrated once
    /// per distinct percentage. Every other impedance-keyed accessor
    /// starts here, so it shares this check.
    ///
    /// # Errors
    ///
    /// Propagates [`DidtSystem::pdn_at`]'s error for invalid percentages.
    pub fn pdn(&self, pct: f64) -> Result<Arc<SecondOrderPdn>, DidtError> {
        // `pct_millis` saturates non-finite and non-positive percentages
        // to key 0, which a tiny valid percentage may already hold: they
        // skip the memo and get the error a cold fill gives.
        if !(pct > 0.0 && pct.is_finite()) {
            return self.system.pdn_at(pct).map(Arc::new);
        }
        self.pdns.try_get_or_compute(pct_millis(pct), || {
            let _span = didt_telemetry::span("cache.fill.pdns");
            self.system.pdn_at(pct)
        })
    }

    /// The wavelet monitor design (full DWT of the PDN impulse
    /// response) for `window` cycles at `pct` impedance — the most
    /// expensive per-network artifact, computed once per (pct, window).
    ///
    /// # Errors
    ///
    /// Propagates PDN and design errors.
    pub fn monitor_design(
        &self,
        pct: f64,
        window: usize,
    ) -> Result<Arc<WaveletMonitorDesign>, DidtError> {
        let pdn = self.pdn(pct)?;
        self.designs
            .try_get_or_compute((pct_millis(pct), window), || {
                let _span = didt_telemetry::span("cache.fill.designs");
                WaveletMonitorDesign::new(&pdn, window)
            })
    }

    /// The filter-generic monitor design (wavelet-compressed impulse
    /// response in `family`/`boundary`) for `window` cycles at `pct`
    /// impedance, computed once per distinct combination.
    ///
    /// # Errors
    ///
    /// Propagates PDN and design errors.
    fn family_monitor_design(
        &self,
        pct: f64,
        window: usize,
        family: WaveletFamily,
        boundary: BoundaryMode,
    ) -> Result<Arc<FamilyMonitorDesign>, DidtError> {
        let pdn = self.pdn(pct)?;
        let key = (pct_millis(pct), window, family.name(), boundary.name());
        self.family_designs.try_get_or_compute(key, || {
            let _span = didt_telemetry::span("cache.fill.family_designs");
            FamilyMonitorDesign::new(&pdn, window, family, boundary)
        })
    }

    /// A captured current trace, keyed by (processor config, benchmark,
    /// seed, warmup, length).
    #[must_use]
    pub fn trace(
        &self,
        benchmark: Benchmark,
        cfg: &ProcessorConfig,
        seed: u64,
        warmup: usize,
        cycles: usize,
    ) -> Arc<CurrentTrace> {
        let cfg_key = fnv1a(FNV_OFFSET, format!("{cfg:?}").as_bytes());
        self.traces
            .get_or_compute((cfg_key, benchmark.name(), seed, warmup, cycles), || {
                let _span = didt_telemetry::span("cache.fill.traces");
                capture_trace(benchmark, cfg, seed, warmup, cycles)
            })
    }

    /// A captured **full-record** trace (current, power, committed,
    /// per-cycle L2 misses and mispredicts) for recording to `.dtrc`
    /// files and phase clustering, keyed like [`Self::trace`] and
    /// computed once per distinct key. The current column is
    /// bit-identical to [`Self::trace`]'s samples for the same key —
    /// both run the same uncontrolled simulation.
    #[must_use]
    pub fn record_trace(
        &self,
        benchmark: Benchmark,
        cfg: &ProcessorConfig,
        seed: u64,
        warmup: usize,
        cycles: usize,
    ) -> Arc<Vec<Record>> {
        let cfg_key = fnv1a(FNV_OFFSET, format!("{cfg:?}").as_bytes());
        self.records
            .get_or_compute((cfg_key, benchmark.name(), seed, warmup, cycles), || {
                let _span = didt_telemetry::span("cache.fill.records");
                capture_records(benchmark, cfg, seed, warmup, cycles)
            })
    }

    /// A per-scale gain calibration against the `pct` network.
    ///
    /// # Errors
    ///
    /// Propagates PDN and calibration errors.
    pub fn gain_model(
        &self,
        pct: f64,
        window: usize,
        seed: u64,
    ) -> Result<Arc<ScaleGainModel>, DidtError> {
        let pdn = self.pdn(pct)?;
        self.gains
            .try_get_or_compute((pct_millis(pct), window, seed), || {
                let _span = didt_telemetry::span("cache.fill.gains");
                ScaleGainModel::calibrate(&pdn, window, seed)
            })
    }

    /// A per-scale gain calibration in an arbitrary wavelet basis.
    /// `Haar` delegates to [`Self::gain_model`] (same cache, bit-
    /// identical artifact); other families memoize per (pct, window,
    /// seed, family).
    ///
    /// # Errors
    ///
    /// Propagates PDN and calibration errors.
    pub fn gain_model_family(
        &self,
        pct: f64,
        window: usize,
        seed: u64,
        family: WaveletFamily,
    ) -> Result<Arc<ScaleGainModel>, DidtError> {
        if family == WaveletFamily::Haar {
            return self.gain_model(pct, window, seed);
        }
        let pdn = self.pdn(pct)?;
        let key = (pct_millis(pct), window, seed, family.name());
        self.family_gains.try_get_or_compute(key, || {
            let _span = didt_telemetry::span("cache.fill.family_gains");
            ScaleGainModel::calibrate_family(&pdn, window, seed, family)
        })
    }

    /// The χ² goodness-of-fit test with `bins` equiprobable bins at
    /// `significance`, prepared once per distinct (bins, significance
    /// bits): its critical value and bin quantiles depend on nothing
    /// else.
    ///
    /// # Errors
    ///
    /// Propagates [`ChiSquaredGof::new`]'s and
    /// [`ChiSquaredGof::prepare`]'s errors.
    pub fn gof_test(&self, bins: usize, significance: f64) -> Result<Arc<PreparedGof>, DidtError> {
        self.gof_tests
            .try_get_or_compute((bins, significance.to_bits()), || {
                let _span = didt_telemetry::span("cache.fill.gof_tests");
                ChiSquaredGof::new(bins)?.prepare(significance)
            })
            .map_err(DidtError::from)
    }

    /// The paper-default full-convolution monitor against the `pct`
    /// network, built once per distinct percentage (sizing its taps
    /// simulates an 8,192-sample impulse response); each controller
    /// takes a fresh clone.
    ///
    /// # Errors
    ///
    /// Propagates PDN errors.
    fn full_conv(&self, pct: f64) -> Result<Arc<FullConvolutionMonitor>, DidtError> {
        let pdn = self.pdn(pct)?;
        Ok(self.full_convs.get_or_compute(pct_millis(pct), || {
            let _span = didt_telemetry::span("cache.fill.full_convs");
            FullConvolutionMonitor::paper_default(&pdn)
        }))
    }

    /// Export completed gain-model calibrations (both the Haar cache
    /// and the family cache) for cache warming a peer, newest-key-last
    /// order unspecified, truncated to `max` entries. Only finished
    /// fills are included; in-flight calibrations are skipped, never
    /// waited on.
    #[must_use]
    pub fn export_gain_entries(&self, max: usize) -> Vec<GainSnapshotEntry> {
        let mut out = Vec::new();
        for ((pct_millis, window, seed), model) in self.gains.completed_entries() {
            out.push(GainSnapshotEntry {
                pct_millis,
                window,
                seed,
                family: WaveletFamily::Haar,
                model: (*model).clone(),
            });
        }
        for ((pct_millis, window, seed, family), model) in self.family_gains.completed_entries() {
            let Some(family) = WaveletFamily::parse(family) else {
                continue; // cache keys are always valid names
            };
            out.push(GainSnapshotEntry {
                pct_millis,
                window,
                seed,
                family,
                model: (*model).clone(),
            });
        }
        out.truncate(max);
        out
    }

    /// Install one peer-exported gain calibration into the matching
    /// cache without recomputing it. Returns `true` if the entry was
    /// installed, `false` when the key is already resident (the local
    /// value wins — warming never overwrites local work).
    pub fn import_gain_entry(&self, entry: GainSnapshotEntry) -> bool {
        if entry.family == WaveletFamily::Haar {
            self.gains
                .seed((entry.pct_millis, entry.window, entry.seed), entry.model)
        } else {
            let key = (
                entry.pct_millis,
                entry.window,
                entry.seed,
                entry.family.name(),
            );
            self.family_gains.seed(key, entry.model)
        }
    }

    /// The uncontrolled closed-loop baseline for one (benchmark,
    /// impedance) cell, computed once and shared by every controller
    /// evaluated on the cell.
    ///
    /// # Errors
    ///
    /// Propagates PDN and closed-loop errors.
    pub fn baseline(
        &self,
        benchmark: Benchmark,
        pct: f64,
        run: RunParams,
    ) -> Result<Arc<ClosedLoopResult>, DidtError> {
        let pdn = self.pdn(pct)?;
        let cfg = self.loop_config(benchmark, pct, run);
        let key = (
            pct_millis(pct),
            benchmark.name(),
            run.instructions,
            run.warmup_cycles,
            cfg.seed,
        );
        // Closed-loop runs are deterministic in their config, so an
        // error would recur on retry. Memoize the whole `Result`: the
        // dominant operation of a sweep runs exactly once per cell and
        // errors replay without recomputation.
        let result = self.baselines.get_or_compute(key, || {
            let _span = didt_telemetry::span("cache.fill.baselines");
            let harness = ClosedLoop::new(*self.system.processor(), *pdn, cfg);
            with_worker_scratch(|scratch| {
                harness.run_with_deadline_scratch(&mut NoControl, None, scratch)
            })
        });
        match result.as_ref() {
            Ok(r) => Ok(Arc::new(*r)),
            Err(e) => Err(e.clone()),
        }
    }

    fn loop_config(&self, benchmark: Benchmark, pct: f64, run: RunParams) -> ClosedLoopConfig {
        ClosedLoopConfig {
            seed: workload_seed(benchmark, pct),
            warmup_cycles: run.warmup_cycles,
            instructions: run.instructions,
            ..ClosedLoopConfig::standard(benchmark)
        }
    }

    /// Build the point's controller against its cached PDN artifacts.
    ///
    /// # Errors
    ///
    /// Propagates PDN and monitor-design errors.
    pub fn controller(&self, point: &SweepPoint) -> Result<Box<dyn DidtController>, DidtError> {
        Ok(match point.controller {
            ControllerSpec::None => Box::new(NoControl),
            ControllerSpec::AnalogThreshold {
                low,
                high,
                hysteresis,
            } => Box::new(ThresholdController::new(
                AnalogSensor::new(1.0, 2),
                low,
                high,
                hysteresis,
            )),
            ControllerSpec::FullConvolution {
                low,
                high,
                hysteresis,
            } => Box::new(ThresholdController::new(
                (*self.full_conv(point.pdn_pct)?).clone(),
                low,
                high,
                hysteresis,
            )),
            ControllerSpec::PipelineDamping { window, max_delta } => {
                Box::new(PipelineDamping::new(window, max_delta))
            }
            ControllerSpec::WaveletThreshold {
                low,
                high,
                hysteresis,
                delay,
            } => {
                let design = self.monitor_design(point.pdn_pct, MONITOR_WINDOW)?;
                Box::new(ThresholdController::new(
                    design.build(point.monitor_terms, delay)?,
                    low,
                    high,
                    hysteresis,
                ))
            }
            ControllerSpec::BiquadRecursive {
                low,
                high,
                hysteresis,
                delay,
            } => {
                let pdn = self.pdn(point.pdn_pct)?;
                Box::new(ThresholdController::new(
                    BiquadMonitor::new(&pdn, delay),
                    low,
                    high,
                    hysteresis,
                ))
            }
            ControllerSpec::WaveletFamilyThreshold {
                low,
                high,
                hysteresis,
                delay,
                family,
                boundary,
            } => {
                let design =
                    self.family_monitor_design(point.pdn_pct, MONITOR_WINDOW, family, boundary)?;
                Box::new(ThresholdController::new(
                    design.build(point.monitor_terms, delay)?,
                    low,
                    high,
                    hysteresis,
                ))
            }
        })
    }

    /// Run one sweep point: baseline (cached per cell) plus the point's
    /// controlled run, under the point-derived workload seed.
    ///
    /// # Errors
    ///
    /// Propagates PDN, monitor and closed-loop errors.
    pub fn run_point(&self, point: &SweepPoint, run: RunParams) -> Result<PointResult, DidtError> {
        self.run_point_deadline(point, run, None)
    }

    /// [`Self::run_point`] with a cooperative wall-clock deadline for
    /// the *controlled* leg (the service path). The cached uncontrolled
    /// baseline is never aborted: it is computed once per cell, shared
    /// by every request on the cell, and bounded by the cell's own run
    /// parameters — aborting it would poison the shared cache for all
    /// later callers. With `deadline: None` the result is bit-identical
    /// to [`Self::run_point`].
    ///
    /// # Errors
    ///
    /// [`DidtError::DeadlineExceeded`] when the deadline expires
    /// mid-simulation, plus every error of [`Self::run_point`].
    pub fn run_point_deadline(
        &self,
        point: &SweepPoint,
        run: RunParams,
        deadline: Option<std::time::Instant>,
    ) -> Result<PointResult, DidtError> {
        let _span = didt_telemetry::span("sweep.point");
        let baseline = *self.baseline(point.benchmark, point.pdn_pct, run)?;
        let cfg = self.loop_config(point.benchmark, point.pdn_pct, run);
        let controlled = if matches!(point.controller, ControllerSpec::None) {
            baseline
        } else {
            let pdn = self.pdn(point.pdn_pct)?;
            let mut ctl = self.controller(point)?;
            let harness = ClosedLoop::new(*self.system.processor(), *pdn, cfg);
            with_worker_scratch(|scratch| {
                harness.run_with_deadline_scratch(ctl.as_mut(), deadline, scratch)
            })?
        };
        Ok(PointResult {
            point: point.clone(),
            seed: cfg.seed,
            baseline,
            controlled,
        })
    }

    /// Replay a recorded trace through the point's closed-loop harness
    /// instead of simulating the workload live: the uncontrolled
    /// baseline and the point's controller both score the same fixed
    /// record stream (records `[0, pre_roll)` settle the PDN unscored).
    /// The baseline is *not* the per-cell cached one — a recorded trace
    /// is its own workload, so both legs come from the records, in one
    /// pass ([`Replay::finish_with_baseline`]).
    ///
    /// # Errors
    ///
    /// Propagates PDN, monitor and replay errors (including
    /// `pre_roll > records.len()`).
    pub fn run_replay(
        &self,
        point: &SweepPoint,
        run: RunParams,
        records: &[Record],
        pre_roll: usize,
    ) -> Result<PointResult, DidtError> {
        self.replay_point(point, run, pre_roll, |replay| {
            replay.feed_records(records);
            Ok(())
        })
    }

    /// [`Self::run_replay`] straight from a `.dtrc` reader: each data
    /// chunk's `current`, `power` and `committed` columns are fed to the
    /// pass as [`TraceReader::for_each_columns`] hands them over, so no
    /// whole recording and no [`Record`] is ever built. A helper thread
    /// decodes the next chunk while this one scores the current chunk;
    /// the scoring stays on this thread in file order, so the bits do
    /// not depend on the overlap. The header's `pre_roll` is the
    /// warm-in. The result has `run_replay`'s bits over the file's
    /// records, and it comes back only after the end chunk has verified
    /// the stream (record count, pre-roll, no trailing bytes); a
    /// rejected file counts no `trace.replay_cycles`.
    ///
    /// The deadline is checked after every chunk. When the point cannot
    /// be set up, the rest of the file is still read, so a bad file is
    /// reported before a bad point, as reading it first would.
    ///
    /// # Errors
    ///
    /// [`StreamReplayError::Trace`] for every reader rejection and for
    /// a read-ahead thread that cannot be started
    /// ([`TraceError::ReadAhead`]); [`StreamReplayError::Replay`] for
    /// PDN and monitor errors and for [`DidtError::DeadlineExceeded`].
    pub fn run_replay_stream<R: std::io::Read + Send>(
        &self,
        point: &SweepPoint,
        run: RunParams,
        reader: &mut TraceReader<R>,
        deadline: Option<std::time::Instant>,
    ) -> Result<PointResult, StreamReplayError> {
        let pre_roll = usize::try_from(reader.meta().pre_roll).unwrap_or(usize::MAX);
        let mut set_up = false;
        let outcome = self.replay_point(point, run, pre_roll, |replay| {
            set_up = true;
            let mut fed = 0u64;
            reader.for_each_columns(|columns| {
                replay.feed(columns);
                fed += columns.len() as u64;
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return Err(StreamReplayError::Replay(DidtError::DeadlineExceeded {
                        after_cycles: fed,
                    }));
                }
                Ok(())
            })
        });
        if outcome.is_err() && !set_up {
            let mut columns = ReplayColumns::new();
            while reader.next_columns(&mut columns)? {}
        }
        outcome
    }

    /// The one replay entry: set up the point's harness and controller,
    /// let `feed` stream the recording into the pass, then finish it
    /// into both legs.
    fn replay_point<E: From<DidtError>>(
        &self,
        point: &SweepPoint,
        run: RunParams,
        pre_roll: usize,
        feed: impl FnOnce(&mut Replay<'_>) -> Result<(), E>,
    ) -> Result<PointResult, E> {
        let _span = didt_telemetry::span("sweep.replay");
        let pdn = self.pdn(point.pdn_pct)?;
        let cfg = self.loop_config(point.benchmark, point.pdn_pct, run);
        let harness = ClosedLoop::new(*self.system.processor(), *pdn, cfg);
        let (baseline, controlled) = if matches!(point.controller, ControllerSpec::None) {
            let mut no_control = NoControl;
            let mut replay = harness.start_replay(&mut no_control, pre_roll);
            feed(&mut replay)?;
            let baseline = replay.finish()?;
            (baseline, baseline)
        } else {
            let mut ctl = self.controller(point)?;
            let mut replay = harness.start_replay(ctl.as_mut(), pre_roll);
            feed(&mut replay)?;
            replay.finish_with_baseline()?
        };
        Ok(PointResult {
            point: point.clone(),
            seed: cfg.seed,
            baseline,
            controlled,
        })
    }

    /// [`Self::run_point`] over a whole grid on `runner`'s pool,
    /// results in point order. Panics on experiment errors (sweep
    /// binaries are applications; grids are validated by construction).
    #[must_use]
    pub fn run_sweep(
        self: &Arc<Self>,
        runner: &ExperimentRunner,
        points: &[SweepPoint],
        run: RunParams,
    ) -> Vec<PointResult> {
        self.run_sweep_timed(runner, points, run).0
    }

    /// [`Self::run_sweep`] plus each point's wall-clock duration (same
    /// index order). The results vector is *identical* to
    /// [`Self::run_sweep`]'s — timing lives beside it, never inside it,
    /// so the serial/parallel bit-identity guarantee is untouched.
    ///
    /// Also folds sweep throughput (`sweep.points_per_sec`), per-point
    /// durations (`sweep.point_duration_ns`) and the aggregate
    /// calibration-cache hit ratio (`sweep.cache_hit_ratio`) into the
    /// global metrics registry.
    #[must_use]
    pub fn run_sweep_timed(
        self: &Arc<Self>,
        runner: &ExperimentRunner,
        points: &[SweepPoint],
        run: RunParams,
    ) -> (Vec<PointResult>, Vec<std::time::Duration>) {
        let _span = didt_telemetry::span("sweep.run");
        let started = std::time::Instant::now();
        let timed = runner.run(points, |_, point| {
            let t0 = std::time::Instant::now();
            let result = self
                .run_point(point, run)
                .unwrap_or_else(|e| panic!("sweep point {point:?} failed: {e}"));
            (result, t0.elapsed())
        });
        static DURATIONS: OnceLock<Arc<Histogram>> = OnceLock::new();
        static POINTS_PER_SEC: OnceLock<Arc<Gauge>> = OnceLock::new();
        static CACHE_HIT_RATIO: OnceLock<Arc<Gauge>> = OnceLock::new();
        let durations_hist = DURATIONS
            .get_or_init(|| MetricsRegistry::global().histogram("sweep.point_duration_ns"));
        let mut results = Vec::with_capacity(timed.len());
        let mut durations = Vec::with_capacity(timed.len());
        for (result, duration) in timed {
            durations_hist.record_duration(duration);
            results.push(result);
            durations.push(duration);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            POINTS_PER_SEC
                .get_or_init(|| MetricsRegistry::global().gauge("sweep.points_per_sec"))
                .set(points.len() as f64 / elapsed);
        }
        let activity = self.cache_activity();
        let requests: u64 = activity.iter().map(|c| c.requests).sum();
        let hits: u64 = activity.iter().map(|c| c.hits()).sum();
        if requests > 0 {
            CACHE_HIT_RATIO
                .get_or_init(|| MetricsRegistry::global().gauge("sweep.cache_hit_ratio"))
                .set(hits as f64 / requests as f64);
        }
        (results, durations)
    }
}

/// Analysis window used by wavelet monitors built from sweeps (the
/// paper's 256-cycle window).
pub const MONITOR_WINDOW: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_state_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<DidtSystem>();
        check::<SecondOrderPdn>();
        check::<WaveletMonitorDesign>();
        check::<CurrentTrace>();
        check::<ScaleGainModel>();
        check::<ClosedLoopResult>();
        check::<SweepContext>();
        check::<MemoCache<u64, SecondOrderPdn>>();
    }

    #[test]
    fn runner_preserves_point_order_at_any_width() {
        let points: Vec<usize> = (0..57).collect();
        let serial = ExperimentRunner::serial().run(&points, |i, &p| i * 1000 + p);
        for threads in [2, 3, 8] {
            let par = ExperimentRunner::with_threads(threads).run(&points, |i, &p| i * 1000 + p);
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn steal_scheduler_agrees_with_serial_bitwise() {
        // The first block's points are slow, so the other workers finish
        // their own blocks and claim from its back end; floating-point
        // results must still match the one-worker run bit for bit.
        let points: Vec<usize> = (0..57).collect();
        let job = |i: usize, &p: &usize| {
            if p < 8 {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            (i as f64 * 0.1 + 1.0).sqrt() / (p as f64 + 3.0)
        };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let serial = bits(ExperimentRunner::serial().run(&points, job));
        for threads in [2, 5, 8] {
            let got = bits(ExperimentRunner::with_threads(threads).run(&points, job));
            assert_eq!(serial, got, "threads {threads}");
        }
    }

    #[test]
    fn runner_handles_empty_and_single() {
        let r = ExperimentRunner::from_env();
        assert!(r.run(&[] as &[u8], |_, _| 0u8).is_empty());
        assert_eq!(r.run(&[7u8], |i, &p| (i, p)), vec![(0, 7)]);
    }

    #[test]
    fn cost_hints_change_schedule_not_results() {
        // Heavily skewed hints (and deliberately *wrong* ones) must
        // never change what a sweep returns.
        let points: Vec<u64> = (0..41).collect();
        let serial = ExperimentRunner::serial().run(&points, |i, &p| (i as u64) << 32 | p);
        let runner = ExperimentRunner::with_threads(8);
        let skewed = runner.run_costed(
            &points,
            CostClass::Hinted(|&p: &u64| 10_000 / (p + 1)),
            |i, &p| (i as u64) << 32 | p,
        );
        let wrong = runner.run_costed(&points, CostClass::Hinted(|&p: &u64| p * p + 1), |i, &p| {
            (i as u64) << 32 | p
        });
        assert_eq!(serial, skewed);
        assert_eq!(serial, wrong);
    }

    #[test]
    fn sched_report_accounts_for_all_work() {
        let points: Vec<usize> = (0..100).collect();
        let runner = ExperimentRunner::with_threads(4);
        let (results, report) = runner.run_costed_reported(&points, CostClass::Uniform, |i, &p| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            i + p
        });
        assert_eq!(results, (0..100).map(|i| 2 * i).collect::<Vec<_>>());
        assert_eq!(report.worker_busy_ns.len(), 4);
        assert!(report.steal_hits <= 100, "steals {}", report.steal_hits);
        assert!(report.worker_busy_ns.iter().sum::<u64>() > 0);
        // One worker runs inline: nothing to steal, one busy sample.
        let (serial, report) =
            ExperimentRunner::serial()
                .run_costed_reported(&points, CostClass::Uniform, |i, &p| i + p);
        assert_eq!(serial, results);
        assert_eq!(report.steal_hits, 0);
        assert_eq!(report.worker_busy_ns.len(), 1);
    }

    #[test]
    fn memo_cache_computes_once_per_key() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        assert!(cache.is_empty());
        let a = cache.get_or_compute(1, || 10);
        let b = cache.get_or_compute(1, || 99);
        assert_eq!((*a, *b), (10, 10));
        assert_eq!(cache.computations(), 1);
        cache.get_or_compute(2, || 20);
        assert_eq!((cache.len(), cache.computations()), (2, 2));
    }

    #[test]
    fn memo_cache_stats_are_shard_summed_and_consistent() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        // Enough keys to populate several shards under the FNV mapping.
        for k in 0..64u64 {
            let v = cache.get_or_compute(k, || k * 2);
            assert_eq!(*v, k * 2);
            let again = cache.get_or_compute(k, || unreachable!("must be cached"));
            assert_eq!(*again, k * 2);
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.computations(), 64);
        assert_eq!(cache.requests(), 128);
        assert_eq!(cache.hits(), 64);
        assert_eq!(cache.contended(), 0, "single thread cannot contend");
    }

    #[test]
    fn memo_cache_shard_choice_is_deterministic() {
        let a: MemoCache<(u64, usize), u8> = MemoCache::new();
        let b: MemoCache<(u64, usize), u8> = MemoCache::new();
        for k in 0..32u64 {
            assert_eq!(a.shard_of(&(k, 7)), b.shard_of(&(k, 7)));
            assert!(a.shard_of(&(k, 7)) < MEMO_SHARDS);
        }
    }

    #[test]
    fn memo_cache_computes_once_under_contention() {
        let cache: Arc<MemoCache<u8, u64>> = Arc::new(MemoCache::new());
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let v = cache.get_or_compute(1, || {
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            42
                        });
                        assert_eq!(*v, 42);
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16 * 50);
        assert_eq!(cache.computations(), 1, "value computed more than once");
    }

    #[test]
    fn invalid_keys_leave_no_trace_in_the_memo() {
        let cold = SweepContext::standard().unwrap();
        let ctx = SweepContext::standard().unwrap();
        ctx.gain_model(150.0, 256, 11).unwrap();
        // 0.0004 % is valid and holds key 0, the key every percentage
        // ≤ 0 or NaN saturates to; those must still fail.
        ctx.pdn(0.0004).unwrap();
        ctx.gain_model(0.0004, 64, 1).unwrap();
        let snapshot = |ctx: &SweepContext| {
            (
                (ctx.pdns.len(), ctx.pdns.computations(), ctx.pdns.requests()),
                (
                    ctx.gains.len(),
                    ctx.gains.computations(),
                    ctx.gains.requests(),
                ),
                ctx.gains.completed_entries().len(),
                ctx.export_gain_entries(usize::MAX).len(),
            )
        };
        let baseline = snapshot(&ctx);
        for _ in 0..3 {
            // A bad pct fails in the pdn fill; a bad window in the gain
            // fill, after a pdn hit (which counts as a pdn request).
            assert!(ctx.gain_model(-5.0, 256, 11).is_err());
            assert!(ctx.gain_model(f64::NAN, 256, 11).is_err());
            assert!(ctx.pdn(0.0).is_err());
            assert!(ctx.monitor_design(-1.0, 256).is_err());
            for pct in [-5.0, f64::NAN, 0.0, f64::INFINITY] {
                let warm = ctx.pdn(pct).unwrap_err().to_string();
                assert_eq!(warm, cold.pdn(pct).unwrap_err().to_string(), "{pct}");
            }
            let warm = ctx.gain_model(-5.0, 64, 1).unwrap_err().to_string();
            assert_eq!(warm, cold.gain_model(-5.0, 64, 1).unwrap_err().to_string());
        }
        assert_eq!(snapshot(&ctx), baseline, "bad pct left an entry behind");
        let pdn_requests = ctx.pdns.requests();
        for _ in 0..3 {
            assert!(ctx.gain_model(150.0, 7, 11).is_err());
            assert!(ctx
                .gain_model_family(150.0, 4, 11, WaveletFamily::Db8)
                .is_err());
        }
        assert_eq!(ctx.pdns.requests(), pdn_requests + 6);
        assert_eq!(
            (
                ctx.gains.len(),
                ctx.gains.computations(),
                ctx.gains.requests()
            ),
            baseline.1,
            "bad window left a gain entry behind"
        );
        assert!(ctx.family_gains.is_empty());
        assert_eq!(ctx.family_gains.computations(), 0);
        assert_eq!(ctx.gains.completed_entries().len(), baseline.2);
        assert_eq!(ctx.export_gain_entries(usize::MAX).len(), baseline.3);
    }

    #[test]
    fn warm_hits_count_requests_but_never_compute() {
        let ctx = SweepContext::standard().unwrap();
        let first = ctx.gain_model(150.0, 256, 11).unwrap();
        let gains = &ctx.gains;
        assert_eq!(
            (gains.computations(), gains.requests(), gains.hits()),
            (1, 1, 0)
        );
        for i in 1..=4 {
            let again = ctx.gain_model(150.0, 256, 11).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
            assert_eq!(ctx.gains.computations(), 1);
            assert_eq!(ctx.gains.hits(), i);
        }
        assert_eq!(ctx.pdns.computations(), 1);
        assert_eq!(ctx.pdns.requests(), 5);
    }

    #[test]
    fn fallible_fill_computes_once_under_contention_and_never_memoizes_errors() {
        let cache: MemoCache<u8, u64> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        let race = |outcome: Result<u64, &'static str>| {
            let start = std::sync::Barrier::new(16);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            cache.try_get_or_compute(1, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window.
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                outcome
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
        };

        // Every caller of a failing key runs its own fill and fails;
        // nothing is left behind.
        let failed = race(Err("bad key"));
        assert!(failed.iter().all(|r| *r == Err("bad key")));
        assert_eq!(calls.load(Ordering::Relaxed), 16);
        assert_eq!(
            (cache.len(), cache.computations(), cache.requests()),
            (0, 0, 0)
        );
        assert!(cache.completed_entries().is_empty());

        // The same key then succeeds, computed exactly once.
        calls.store(0, Ordering::Relaxed);
        let filled = race(Ok(42));
        assert!(filled.iter().all(|r| r.as_deref() == Ok(&42)));
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "value computed more than once"
        );
        assert_eq!(
            (cache.len(), cache.computations(), cache.requests()),
            (1, 1, 16)
        );
        assert_eq!(
            cache.try_get_or_compute(1, || Err::<u64, _>("a hit runs nothing")),
            Ok(Arc::new(42))
        );
    }

    #[test]
    fn memo_cache_seed_installs_without_counting_as_compute() {
        let cache: MemoCache<u32, u32> = MemoCache::new();
        assert!(cache.seed(1, 10), "seed into empty slot must install");
        assert_eq!(cache.computations(), 0);
        assert_eq!(cache.requests(), 0);
        // First request after warming is a pure hit.
        let v = cache.get_or_compute(1, || unreachable!("warmed"));
        assert_eq!(*v, 10);
        assert_eq!((cache.requests(), cache.hits()), (1, 1));
        // Resident value wins over a late snapshot.
        assert!(!cache.seed(1, 99));
        assert_eq!(*cache.get_or_compute(1, || unreachable!()), 10);
    }

    #[test]
    fn memo_cache_completed_entries_round_trip() {
        let a: MemoCache<u64, u64> = MemoCache::new();
        for k in 0..20u64 {
            a.get_or_compute(k, || k * 3);
        }
        let entries = a.completed_entries();
        assert_eq!(entries.len(), 20);
        let b: MemoCache<u64, u64> = MemoCache::new();
        for (k, v) in entries {
            assert!(b.seed(k, *v));
        }
        assert_eq!(b.len(), 20);
        for k in 0..20u64 {
            assert_eq!(*b.get_or_compute(k, || unreachable!("warmed")), k * 3);
        }
        assert_eq!(b.computations(), 0);
    }

    #[test]
    fn gain_snapshot_export_import_is_bit_exact() {
        let ctx = SweepContext::standard().unwrap();
        let haar = ctx.gain_model(100.0, 256, 11).unwrap();
        let db4 = ctx
            .gain_model_family(100.0, 256, 11, WaveletFamily::Db4)
            .unwrap();
        let entries = ctx.export_gain_entries(usize::MAX);
        assert_eq!(entries.len(), 2);

        let peer = SweepContext::standard().unwrap();
        for e in entries {
            assert!(peer.import_gain_entry(e));
        }
        // Warmed peer serves both models as hits, bit-identical.
        let haar2 = peer.gain_model(100.0, 256, 11).unwrap();
        let db42 = peer
            .gain_model_family(100.0, 256, 11, WaveletFamily::Db4)
            .unwrap();
        assert_eq!(*haar2, *haar);
        assert_eq!(*db42, *db4);
        assert_eq!(peer.cache_stats().gains, 0, "warmed model recomputed");
        assert_eq!(peer.cache_stats().family_gains, 0);
        // Truncation bound respected.
        assert_eq!(ctx.export_gain_entries(1).len(), 1);
    }

    #[test]
    fn seeds_depend_on_identity_not_order() {
        let a = workload_seed(Benchmark::Gzip, 150.0);
        assert_eq!(a, workload_seed(Benchmark::Gzip, 150.0));
        assert_ne!(a, workload_seed(Benchmark::Gzip, 125.0));
        assert_ne!(a, workload_seed(Benchmark::Swim, 150.0));
        let p = |terms, controller| SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct: 150.0,
            monitor_terms: terms,
            controller,
        };
        let w = ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        };
        assert_eq!(point_seed(&p(13, w)), point_seed(&p(13, w)));
        assert_ne!(point_seed(&p(13, w)), point_seed(&p(20, w)));
        assert_ne!(
            point_seed(&p(13, w)),
            point_seed(&p(13, ControllerSpec::None))
        );
    }

    #[test]
    fn family_seed_distinguishes_family_and_boundary() {
        let p = |family, boundary| SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct: 150.0,
            monitor_terms: 13,
            controller: ControllerSpec::WaveletFamilyThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
                family,
                boundary,
            },
        };
        let base = p(WaveletFamily::Haar, BoundaryMode::Periodic);
        assert_eq!(point_seed(&base), point_seed(&base));
        assert_ne!(
            point_seed(&base),
            point_seed(&p(WaveletFamily::Db3, BoundaryMode::Periodic))
        );
        assert_ne!(
            point_seed(&base),
            point_seed(&p(WaveletFamily::Haar, BoundaryMode::Symmetric))
        );
        assert_eq!(base.controller.tag(), "wavelet-family");
    }

    #[test]
    fn family_controller_builds_and_caches_design_once() {
        let ctx = SweepContext::standard().unwrap();
        let point = SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct: 150.0,
            monitor_terms: 13,
            controller: ControllerSpec::WaveletFamilyThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
                family: WaveletFamily::Db3,
                boundary: BoundaryMode::Periodic,
            },
        };
        let c1 = ctx.controller(&point).unwrap();
        let c2 = ctx.controller(&point).unwrap();
        assert_eq!(c1.name(), c2.name());
        assert_eq!(ctx.family_designs.computations(), 1);
        let run = RunParams {
            instructions: 2_000,
            warmup_cycles: 1_000,
        };
        let r = ctx.run_point(&point, run).unwrap();
        let ctx2 = SweepContext::standard().unwrap();
        assert_eq!(r, ctx2.run_point(&point, run).unwrap());
    }

    #[test]
    fn sweep_enumeration_is_deterministic_cartesian() {
        let sweep = Sweep::new()
            .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
            .pdn_pcts(&[125.0, 150.0])
            .controllers(&[ControllerSpec::None]);
        let pts = sweep.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].benchmark, Benchmark::Gzip);
        assert_eq!(pts[0].pdn_pct, 125.0);
        assert_eq!(pts[1].pdn_pct, 150.0);
        assert_eq!(pts[2].benchmark, Benchmark::Swim);
        assert_eq!(pts, sweep.points());
    }

    #[test]
    fn context_caches_pdn_and_design() {
        let ctx = SweepContext::standard().unwrap();
        let a = ctx.pdn(150.0).unwrap();
        let b = ctx.pdn(150.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(ctx.pdn(-5.0).is_err());
        let d1 = ctx.monitor_design(150.0, 64).unwrap();
        let d2 = ctx.monitor_design(150.0, 64).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(ctx.designs.computations(), 1);
    }

    #[test]
    fn gof_test_memo_matches_a_fresh_prepare_field_by_field() {
        let ctx = SweepContext::standard().unwrap();
        let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bins in [4, 8] {
            for significance in [0.9, 0.95, 0.99] {
                let memo = ctx.gof_test(bins, significance).unwrap();
                assert!(Arc::ptr_eq(
                    &memo,
                    &ctx.gof_test(bins, significance).unwrap()
                ));
                let fresh = ChiSquaredGof::new(bins)
                    .unwrap()
                    .prepare(significance)
                    .unwrap();
                assert_eq!(memo.bins(), fresh.bins());
                assert_eq!(memo.dof(), fresh.dof());
                assert_eq!(
                    memo.critical_value().to_bits(),
                    fresh.critical_value().to_bits()
                );
                assert_eq!(bits(memo.quantiles()), bits(fresh.quantiles()));
            }
        }
        assert_eq!(ctx.cache_stats().gof_tests, 6);
        // Failures are not memoized: each call fails as a fresh build.
        for (bins, significance) in [(3, 0.95), (8, 1.0), (8, f64::NAN)] {
            assert!(ctx.gof_test(bins, significance).is_err());
        }
        assert_eq!(ctx.cache_stats().gof_tests, 6);
    }

    #[test]
    fn full_convolution_monitor_is_built_once_per_network() {
        use didt_core::monitor::{CycleSense, VoltageMonitor};
        let ctx = SweepContext::standard().unwrap();
        let point = |pdn_pct| SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct,
            monitor_terms: 13,
            controller: ControllerSpec::FullConvolution {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.002,
            },
        };
        for pct in [150.0, 150.0, 125.0, 150.0] {
            ctx.controller(&point(pct)).unwrap();
        }
        assert_eq!(ctx.cache_stats().full_convs, 2);
        // A memoized monitor scores exactly as a freshly built one.
        let mut memo = (*ctx.full_conv(150.0).unwrap()).clone();
        let mut fresh = FullConvolutionMonitor::paper_default(&ctx.pdn(150.0).unwrap());
        for n in 0..3000 {
            let sense = CycleSense {
                current: 30.0 + 10.0 * (f64::from(n) * 0.21).sin(),
                voltage: 1.0,
            };
            assert_eq!(
                memo.observe(sense).to_bits(),
                fresh.observe(sense).to_bits()
            );
        }
        assert!(ctx.controller(&point(-1.0)).is_err());
    }

    #[test]
    fn run_point_baseline_shared_and_deterministic() {
        let ctx = SweepContext::standard().unwrap();
        let run = RunParams {
            instructions: 2_000,
            warmup_cycles: 1_000,
        };
        let none = SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct: 150.0,
            monitor_terms: 13,
            controller: ControllerSpec::None,
        };
        let wavelet = SweepPoint {
            controller: ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
            ..none.clone()
        };
        let r1 = ctx.run_point(&none, run).unwrap();
        let r2 = ctx.run_point(&wavelet, run).unwrap();
        assert_eq!(r1.baseline, r1.controlled);
        assert_eq!(r1.baseline, r2.baseline, "cell baseline must be shared");
        assert_eq!(ctx.baselines.computations(), 1);
        // Fresh context, same points: bit-identical results.
        let ctx2 = SweepContext::standard().unwrap();
        assert_eq!(r2, ctx2.run_point(&wavelet, run).unwrap());
    }

    #[test]
    fn streamed_replay_stops_at_its_deadline_after_the_first_chunk() {
        use didt_trace::{RecordKind, TraceMeta, TraceWriter};
        const CHUNK: usize = 512;
        let ctx = SweepContext::standard().unwrap();
        let point = SweepPoint {
            benchmark: Benchmark::Gzip,
            pdn_pct: 200.0,
            monitor_terms: 13,
            controller: ControllerSpec::AnalogThreshold {
                low: 0.985,
                high: 1.015,
                hysteresis: 0.004,
            },
        };
        let run = RunParams {
            instructions: 3_000,
            warmup_cycles: 800,
        };
        // Five chunks, and one: the deadline is also checked after the
        // last chunk.
        for records in [4 * CHUNK + 100, CHUNK - 12] {
            let meta = TraceMeta::new(RecordKind::Full, "deadline");
            let mut w = TraceWriter::with_chunk_records(Vec::new(), &meta, CHUNK).unwrap();
            for i in 0..records {
                w.push(Record {
                    current: 20.0 + 5.0 * (i as f64 * 0.05).sin(),
                    power: 30.0,
                    committed: (i % 4) as u16,
                    l2_misses: 0,
                    mispredicts: 0,
                })
                .unwrap();
            }
            let bytes = w.finish().unwrap();
            // A deadline that has passed stops the pass after the first
            // fed chunk, with the read-ahead thread joined by the return.
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let deadline = Some(std::time::Instant::now());
            match ctx.run_replay_stream(&point, run, &mut reader, deadline) {
                Err(StreamReplayError::Replay(DidtError::DeadlineExceeded { after_cycles })) => {
                    assert_eq!(after_cycles, records.min(CHUNK) as u64);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
            // The same file without a deadline replays whole.
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let whole = ctx
                .run_replay_stream(&point, run, &mut reader, None)
                .unwrap();
            assert_eq!(whole.controlled.cycles, records as u64);
        }
    }
}
