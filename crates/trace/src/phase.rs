//! SimPoint-style phase clustering over recorded traces.
//!
//! Long workloads are phase-structured: a few behaviors repeat, so a
//! handful of representative slices — weighted by how much of the run
//! each behavior covers — characterize the whole trace at a fraction of
//! the simulated cycles (Sherwood et al.'s `SimPoint`, applied here to
//! dI/dt characterization instead of IPC).
//!
//! The pipeline, all deterministic in `(records, config)`:
//!
//! 1. Cut the trace into fixed-length intervals
//!    ([`PhaseConfig::interval`] cycles; a trailing partial interval is
//!    dropped).
//! 2. Summarize each interval as a signature vector: mean and standard
//!    deviation of current, mean power, commit rate, and per-scale Haar
//!    wavelet variances of the current (via `didt-dsp`) — the scales
//!    are exactly the features the voltage-variance model consumes, so
//!    intervals that cluster together stress the PDN alike.
//! 3. Z-score each feature column, then k-means with deterministic
//!    k-means++ seeding (splitmix64 stream from [`PhaseConfig::seed`],
//!    lowest-index tie-breaking).
//! 4. Elect per-cluster representatives: the member interval closest to
//!    the centroid, weighted by cluster population.
//!
//! The `ext_phase_clustering` experiment validates the result: weighted
//! representative-slice estimates of the emergency fraction track the
//! full-trace ground truth at ≥10× fewer simulated cycles.

use didt_dsp::{dwt, scale_variances, WaveletFamily};

use crate::record::Record;

/// Configuration for [`cluster_records`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseConfig {
    /// Cycles per interval. Must be a positive multiple of
    /// `2^levels` so each interval supports the signature DWT.
    pub interval: usize,
    /// Number of clusters `k` (clamped to the interval count).
    pub clusters: usize,
    /// Haar decomposition depth used for the signature's per-scale
    /// variances.
    pub levels: usize,
    /// Seed of the deterministic k-means++ initialization.
    pub seed: u64,
    /// Lloyd-iteration cap (convergence usually takes far fewer).
    pub max_iters: usize,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            interval: 2_048,
            clusters: 6,
            levels: 4,
            seed: 0x51A9_0CA7,
            max_iters: 64,
        }
    }
}

/// Phase-clustering failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseError {
    /// A config field is out of range (zero interval/clusters, or an
    /// interval not divisible by `2^levels`).
    InvalidConfig(&'static str),
    /// The trace is shorter than one interval.
    TooFewIntervals {
        /// Complete intervals available in the trace.
        have: usize,
    },
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::InvalidConfig(what) => write!(f, "invalid phase config: {what}"),
            PhaseError::TooFewIntervals { have } => {
                write!(f, "trace has only {have} complete intervals")
            }
        }
    }
}

impl std::error::Error for PhaseError {}

/// A cluster's elected representative interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Representative {
    /// Cluster index this representative speaks for.
    pub cluster: usize,
    /// Interval index within the trace (slice starts at
    /// `interval * PhaseConfig::interval` cycles).
    pub interval: usize,
    /// Fraction of all intervals assigned to this cluster; weights sum
    /// to 1 over the representatives.
    pub weight: f64,
}

/// The result of clustering a trace's intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseClustering {
    /// Cluster index of each interval, in trace order.
    pub assignments: Vec<usize>,
    /// Cluster centroids in the normalized feature space.
    pub centroids: Vec<Vec<f64>>,
    /// Intervals per cluster (indexes parallel `centroids`).
    pub sizes: Vec<usize>,
    /// Sum of squared distances of every interval to its centroid.
    pub inertia: f64,
    /// One elected representative per non-empty cluster, ordered by
    /// cluster index.
    pub representatives: Vec<Representative>,
    /// Number of complete intervals clustered.
    pub intervals: usize,
    /// Interval length in cycles (copied from the config).
    pub interval: usize,
}

impl PhaseClustering {
    /// Weighted estimate over the representatives: `Σ wᵢ · f(repᵢ)`.
    ///
    /// With `f` an analysis of the representative's slice (emergency
    /// fraction, mean power, …), this is the `SimPoint` estimate of the
    /// full-trace value from `k` slices.
    pub fn weighted_estimate(&self, mut f: impl FnMut(&Representative) -> f64) -> f64 {
        self.representatives.iter().map(|r| r.weight * f(r)).sum()
    }
}

/// The splitmix64 step: a tiny, well-mixed deterministic stream for the
/// k-means++ draws (no dependence on the vendored `rand`, so the crate
/// stays leaf-light).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream (53-bit).
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Signature vectors for each complete interval of `records`.
///
/// Feature order: mean current, current standard deviation, mean power,
/// commit rate (instructions/cycle), then `levels` per-scale Haar
/// variances of the current (finest first).
///
/// # Errors
///
/// [`PhaseError::InvalidConfig`] for a zero or non-`2^levels`-divisible
/// interval; [`PhaseError::TooFewIntervals`] when the trace is shorter
/// than one interval.
fn interval_signatures(records: &[Record], cfg: &PhaseConfig) -> Result<Vec<Vec<f64>>, PhaseError> {
    if cfg.interval == 0 {
        return Err(PhaseError::InvalidConfig("interval must be positive"));
    }
    if cfg.levels == 0 || cfg.levels >= 63 {
        return Err(PhaseError::InvalidConfig("levels must be in 1..=62"));
    }
    if !cfg.interval.is_multiple_of(1usize << cfg.levels) {
        return Err(PhaseError::InvalidConfig(
            "interval must be a multiple of 2^levels",
        ));
    }
    let n = records.len() / cfg.interval;
    if n == 0 {
        return Err(PhaseError::TooFewIntervals { have: 0 });
    }
    let mut sigs = Vec::with_capacity(n);
    let mut currents = vec![0.0f64; cfg.interval];
    for i in 0..n {
        let slice = &records[i * cfg.interval..(i + 1) * cfg.interval];
        let inv = 1.0 / cfg.interval as f64;
        let mut mean_i = 0.0;
        let mut mean_p = 0.0;
        let mut committed = 0u64;
        for (dst, r) in currents.iter_mut().zip(slice) {
            *dst = r.current;
            mean_i += r.current;
            mean_p += r.power;
            committed += u64::from(r.committed);
        }
        mean_i *= inv;
        mean_p *= inv;
        let var = slice
            .iter()
            .map(|r| (r.current - mean_i) * (r.current - mean_i))
            .sum::<f64>()
            * inv;
        let mut sig = vec![mean_i, var.sqrt(), mean_p, committed as f64 * inv];
        let decomp = dwt(&currents, WaveletFamily::Haar, cfg.levels)
            .map_err(|_| PhaseError::InvalidConfig("interval does not support DWT depth"))?;
        let scales =
            scale_variances(&decomp).map_err(|_| PhaseError::InvalidConfig("DWT scales"))?;
        sig.extend(scales.iter().map(|s| s.variance));
        sigs.push(sig);
    }
    Ok(sigs)
}

/// Z-score each feature column in place; zero-variance columns are
/// zeroed (they carry no clustering information — e.g. power/commit
/// features of a kind-1 trace).
fn normalize_columns(sigs: &mut [Vec<f64>]) {
    if sigs.is_empty() {
        return;
    }
    let dims = sigs[0].len();
    let n = sigs.len() as f64;
    for d in 0..dims {
        let mean = sigs.iter().map(|s| s[d]).sum::<f64>() / n;
        let var = sigs
            .iter()
            .map(|s| (s[d] - mean) * (s[d] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        if std > 0.0 {
            for s in sigs.iter_mut() {
                s[d] = (s[d] - mean) / std;
            }
        } else {
            for s in sigs.iter_mut() {
                s[d] = 0.0;
            }
        }
    }
}

/// Deterministic k-means++ seeding followed by Lloyd iterations.
fn kmeans(sigs: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
    let n = sigs.len();
    let mut rng = seed;
    // k-means++: first centroid uniform, then proportional to squared
    // distance from the nearest chosen centroid.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(sigs[(splitmix64(&mut rng) % n as u64) as usize].clone());
    let mut dist: Vec<f64> = sigs
        .iter()
        .map(|s| squared_distance(s, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist.iter().sum();
        let pick = if total > 0.0 {
            let r = unit_f64(&mut rng) * total;
            let mut cum = 0.0;
            let mut chosen = n - 1;
            for (i, &d) in dist.iter().enumerate() {
                cum += d;
                if cum >= r {
                    chosen = i;
                    break;
                }
            }
            chosen
        } else {
            // All points coincide with a centroid; any pick works.
            (splitmix64(&mut rng) % n as u64) as usize
        };
        centroids.push(sigs[pick].clone());
        for (d, s) in dist.iter_mut().zip(sigs) {
            let nd = squared_distance(s, centroids.last().unwrap());
            if nd < *d {
                *d = nd;
            }
        }
    }
    // Lloyd: assign (lowest index wins ties), recompute, repeat.
    let dims = sigs[0].len();
    let mut assignments = vec![0usize; n];
    for _ in 0..max_iters {
        let mut changed = false;
        for (a, s) in assignments.iter_mut().zip(sigs) {
            let mut best = 0usize;
            let mut best_d = squared_distance(s, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let d = squared_distance(s, centroid);
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0usize; k];
        for (&a, s) in assignments.iter().zip(sigs) {
            counts[a] += 1;
            for (acc, v) in sums[a].iter_mut().zip(s) {
                *acc += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for (dst, acc) in centroids[c].iter_mut().zip(&sums[c]) {
                    *dst = acc * inv;
                }
            }
            // Empty clusters keep their centroid (deterministic; they
            // simply elect no representative).
        }
    }
    (assignments, centroids)
}

/// Cluster precomputed signatures (normalization happens here).
///
/// # Errors
///
/// [`PhaseError::InvalidConfig`] for zero clusters,
/// [`PhaseError::TooFewIntervals`] for an empty signature list.
fn cluster_signatures(
    signatures: &[Vec<f64>],
    cfg: &PhaseConfig,
) -> Result<PhaseClustering, PhaseError> {
    if cfg.clusters == 0 {
        return Err(PhaseError::InvalidConfig("clusters must be positive"));
    }
    let n = signatures.len();
    if n == 0 {
        return Err(PhaseError::TooFewIntervals { have: 0 });
    }
    let mut sigs = signatures.to_vec();
    normalize_columns(&mut sigs);
    let k = cfg.clusters.min(n);
    let (assignments, centroids) = kmeans(&sigs, k, cfg.seed, cfg.max_iters.max(1));
    let mut sizes = vec![0usize; k];
    for &a in &assignments {
        sizes[a] += 1;
    }
    let mut inertia = 0.0;
    for (&a, s) in assignments.iter().zip(&sigs) {
        inertia += squared_distance(s, &centroids[a]);
    }
    let mut representatives = Vec::new();
    for c in 0..k {
        if sizes[c] == 0 {
            continue;
        }
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, (&a, s)) in assignments.iter().zip(&sigs).enumerate() {
            if a == c {
                let d = squared_distance(s, &centroids[c]);
                if d < best_d {
                    best = Some(i);
                    best_d = d;
                }
            }
        }
        representatives.push(Representative {
            cluster: c,
            interval: best.expect("non-empty cluster has a member"),
            weight: sizes[c] as f64 / n as f64,
        });
    }
    Ok(PhaseClustering {
        assignments,
        centroids,
        sizes,
        inertia,
        representatives,
        intervals: n,
        interval: cfg.interval,
    })
}

/// Cluster a record stream: `interval_signatures` then
/// `cluster_signatures`.
///
/// # Errors
///
/// Any [`PhaseError`].
pub fn cluster_records(
    records: &[Record],
    cfg: &PhaseConfig,
) -> Result<PhaseClustering, PhaseError> {
    let sigs = interval_signatures(records, cfg)?;
    cluster_signatures(&sigs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two alternating synthetic phases: a quiet DC phase and a loud
    /// oscillating phase, four intervals each.
    fn two_phase_records(interval: usize) -> Vec<Record> {
        let mut out = Vec::new();
        for block in 0..8usize {
            let loud = block % 2 == 1;
            for i in 0..interval {
                let t = i as f64;
                let current = if loud {
                    40.0 + 20.0 * (t * 0.5).sin()
                } else {
                    20.0 + 0.1 * (t * 0.01).sin()
                };
                out.push(Record {
                    current,
                    power: current * 1.2,
                    committed: u16::from(loud) * 3 + 1,
                    l2_misses: 0,
                    mispredicts: 0,
                });
            }
        }
        out
    }

    fn cfg(interval: usize, clusters: usize) -> PhaseConfig {
        PhaseConfig {
            interval,
            clusters,
            levels: 3,
            ..PhaseConfig::default()
        }
    }

    #[test]
    fn separates_obvious_phases() {
        let records = two_phase_records(256);
        let clustering = cluster_records(&records, &cfg(256, 2)).unwrap();
        assert_eq!(clustering.intervals, 8);
        // Alternating blocks land in alternating clusters.
        let a = clustering.assignments[0];
        let b = clustering.assignments[1];
        assert_ne!(a, b);
        for (i, &c) in clustering.assignments.iter().enumerate() {
            assert_eq!(c, if i % 2 == 0 { a } else { b });
        }
        // Representatives cover both phases with equal weight.
        assert_eq!(clustering.representatives.len(), 2);
        for r in &clustering.representatives {
            assert!((r.weight - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let records = two_phase_records(128);
        let a = cluster_records(&records, &cfg(128, 3)).unwrap();
        let b = cluster_records(&records, &cfg(128, 3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weights_sum_to_one() {
        let records = two_phase_records(128);
        let c = cluster_records(&records, &cfg(128, 4)).unwrap();
        let total: f64 = c.representatives.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(c.representatives.len() * c.interval <= 4 * 128);
    }

    #[test]
    fn weighted_estimate_recovers_exact_phase_mix() {
        let records = two_phase_records(256);
        let c = cluster_records(&records, &cfg(256, 2)).unwrap();
        // Estimate the mean current from the two representative slices.
        let est = c.weighted_estimate(|r| {
            let s = &records[r.interval * 256..(r.interval + 1) * 256];
            s.iter().map(|x| x.current).sum::<f64>() / 256.0
        });
        let truth = records.iter().map(|x| x.current).sum::<f64>() / records.len() as f64;
        assert!(
            (est - truth).abs() / truth < 0.05,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn clusters_clamped_to_interval_count() {
        let records = two_phase_records(512); // 4 intervals at 1024? no: 8*512/512 = 8
        let c = cluster_records(&records, &cfg(512, 64)).unwrap();
        assert!(c.centroids.len() <= 8);
        assert_eq!(c.assignments.len(), 8);
    }

    #[test]
    fn config_validation() {
        let records = two_phase_records(64);
        assert!(matches!(
            cluster_records(&records, &cfg(0, 2)),
            Err(PhaseError::InvalidConfig(_))
        ));
        assert!(matches!(
            cluster_records(&records, &cfg(100, 2)), // 100 % 8 != 0
            Err(PhaseError::InvalidConfig(_))
        ));
        assert!(matches!(
            cluster_records(&records, &cfg(64, 0)),
            Err(PhaseError::InvalidConfig(_))
        ));
        assert!(matches!(
            cluster_records(&records[..32], &cfg(64, 2)),
            Err(PhaseError::TooFewIntervals { have: 0 })
        ));
    }

    #[test]
    fn identical_intervals_cluster_into_one_effective_phase() {
        let interval = 128;
        let one: Vec<Record> = (0..interval)
            .map(|i| Record::current_only(30.0 + (f64::from(i) * 0.3).sin()))
            .collect();
        let mut records = Vec::new();
        for _ in 0..6 {
            records.extend_from_slice(&one);
        }
        let c = cluster_records(&records, &cfg(128, 3)).unwrap();
        // All intervals are identical: every point sits on a centroid.
        assert!(c.inertia < 1e-18);
        let total: f64 = c.representatives.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
