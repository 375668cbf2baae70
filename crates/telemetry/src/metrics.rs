//! Counters, gauges and log-scale histograms.
//!
//! A [`MetricsRegistry`] hands out shared handles keyed by name;
//! recording through a handle is lock-free (relaxed atomics), so hot
//! paths pre-resolve their handles once and update them per event.
//! [`MetricsRegistry::global`] is the process-wide registry the
//! instrumented crates record into; experiments snapshot it into their
//! run manifests at exit.
//!
//! Histograms use **fixed base-2 log-scale buckets**: bucket `i` counts
//! values in `[2^(i-1), 2^i)` (bucket 0 counts zeros). With 64 buckets
//! this covers the full `u64` range — nanosecond durations from 1 ns to
//! ~584 years — with a constant-size, allocation-free structure whose
//! merge and snapshot are trivial. The scheme trades fine resolution
//! (each bucket is a factor-of-2 band) for a hard bound on memory and
//! update cost, the right trade for sweep observability.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one zero bucket plus one per power of
/// two up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket base-2 log-scale histogram (see module docs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index for a value: 0 for 0, else `64 - leading_zeros`
/// (so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `index`. Indices past the last
/// bucket saturate to `u64::MAX`, so `bucket_lower_bound(i + 1)` is a
/// safe exclusive upper bound for any bucket, including the top one.
fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS => u64::MAX,
        i => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration, in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating in practice: the sum wraps
    /// only after ~584 years of accumulated nanoseconds).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the geometric midpoint
    /// of the bucket containing the `q`-th recorded value. Accurate to
    /// the factor-of-2 bucket width by construction.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let lo = bucket_lower_bound(i) as f64;
                let hi = bucket_lower_bound(i + 1).max(1) as f64;
                return (lo * hi).sqrt().max(lo);
            }
        }
        bucket_lower_bound(HISTOGRAM_BUCKETS - 1) as f64
    }

    /// Non-empty buckets as `(inclusive lower bound, count)` pairs.
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect()
    }
}

/// A named-handle registry for counters, gauges and histograms.
///
/// Handle lookup takes a lock; recording through a handle does not.
/// Names are free-form dotted paths (`"sweep.cache.trace.hits"`).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry (tests use private registries; instrumented
    /// code shares [`MetricsRegistry::global`]).
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Snapshot every metric into a JSON object with stable (sorted)
    /// ordering: counters as integers, gauges as floats, histograms as
    /// `{count, sum, mean, p50, p95, p99, buckets}`.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(v.get() as f64)))
            .collect();
        let gauges: Vec<(String, Json)> = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(v.get())))
            .collect();
        let histograms: Vec<(String, Json)> = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(lo, n)| Json::Arr(vec![Json::Num(lo as f64), Json::Num(n as f64)]))
                    .collect();
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::Num(h.count() as f64)),
                        ("sum", Json::Num(h.sum() as f64)),
                        ("mean", Json::Num(h.mean())),
                        ("p50", Json::Num(h.quantile(0.5))),
                        ("p95", Json::Num(h.quantile(0.95))),
                        ("p99", Json::Num(h.quantile(0.99))),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare values that were stored, not computed
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("a.count").get(), 5);
        let g = reg.gauge("a.ratio");
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        assert_eq!(reg.gauge("a.ratio").get(), 0.75);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's lower bound maps back into that bucket, and the
        // value just below it maps into the previous one.
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
        }
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 900, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_905);
        assert!((h.mean() - 1_001_905.0 / 7.0).abs() < 1e-9);
        // Bucket layout: 0→bucket0(1), 1,1→bucket1(2), 3→bucket2(1),
        // 900,1000→bucket10(2), 1e6→bucket20(1).
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 2), (2, 1), (512, 2), (524_288, 1)]
        );
        // Median lands in the bucket holding the 4th value (value 3).
        let p50 = h.quantile(0.5);
        assert!((2.0..4.0).contains(&p50), "p50 = {p50}");
        // p99 lands in the top bucket.
        assert!(h.quantile(0.99) >= 524_288.0);
        // Quantiles are within a factor of 2 of the true value by
        // construction.
        assert!(h.quantile(1.0) <= 2.0 * 1_000_000.0);
    }

    #[test]
    fn quantiles_pinned_on_uniform_1_to_1000() {
        // 1..=1000 recorded once each: the true p50 is 500 and the true
        // p99 is 990, so the containing buckets — and therefore the
        // reported geometric midpoints — are known exactly.
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // True p50 = 500 lives in [256, 512); cumulative count through
        // that bucket is 511 >= rank 500.
        assert_eq!(h.quantile(0.5), (256.0f64 * 512.0).sqrt());
        // p95 (true value 950) and p99 (true value 990) both live in
        // [512, 1024).
        assert_eq!(h.quantile(0.95), (512.0f64 * 1024.0).sqrt());
        assert_eq!(h.quantile(0.99), (512.0f64 * 1024.0).sqrt());
        // The geometric midpoint of a power-of-two bucket is within a
        // factor of sqrt(2) of any value in it — check against the true
        // order statistics.
        for (q, truth) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q);
            let ratio = est / truth;
            assert!(
                (std::f64::consts::FRAC_1_SQRT_2..=std::f64::consts::SQRT_2).contains(&ratio),
                "q={q}: est {est} vs true {truth} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn quantiles_pinned_on_point_mass() {
        // Every quantile of a point mass is the mass point's bucket.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1_000_000);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), (524_288.0f64 * 1_048_576.0).sqrt(), "q={q}");
        }
    }

    #[test]
    fn quantiles_in_top_bucket_do_not_overflow() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let p = h.quantile(1.0);
        assert!(p.is_finite() && p >= (1u64 << 63) as f64);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").incr();
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(1.5);
        reg.histogram("h.hist").record(7);
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0].0, "a.first");
        assert_eq!(counters[1].0, "z.last");
        assert_eq!(snap.render(), reg.snapshot().render());
        let hist = snap.get("histograms").unwrap().get("h.hist").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn handles_are_shared_across_lookups_and_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("shared");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = reg.counter("shared");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
