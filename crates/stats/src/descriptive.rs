//! Descriptive statistics: means, variances and extrema.
//!
//! The dI/dt methodology leans on *variance* as its central quantity: the
//! paper estimates voltage variance from per-scale wavelet (current)
//! variance. These helpers operate on `&[f64]` slices so they compose with
//! both raw traces and wavelet coefficient rows.

/// Arithmetic mean of a sample.
///
/// Returns `0.0` for an empty slice; callers that must distinguish the
/// empty case should check the length first or use [`Summary::from_slice`].
///
/// # Examples
///
/// ```
/// assert_eq!(didt_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
#[must_use]
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (divides by `n`).
///
/// This matches the paper's use of variance as a signal-power measure
/// (Parseval's relation splits *population* variance across wavelet
/// scales exactly).
///
/// # Examples
///
/// ```
/// let v = didt_stats::variance(&[1.0, 1.0, 3.0, 3.0]);
/// assert_eq!(v, 1.0);
/// ```
#[must_use]
pub fn variance(data: &[f64]) -> f64 {
    variance_about(data, mean(data))
}

/// [`variance`] of a sample whose [`mean`] the caller already holds:
/// the same arithmetic, without summing the sample a second time.
///
/// # Examples
///
/// ```
/// let data = [1.0, 1.0, 3.0, 3.0];
/// let m = didt_stats::mean(&data);
/// assert_eq!(didt_stats::variance_about(&data, m), didt_stats::variance(&data));
/// ```
#[must_use]
pub fn variance_about(data: &[f64], mean: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64
}

/// Windows [`window_moments`] sums side by side, one accumulator each.
const LANES: usize = 8;

/// The [`mean`] of each window and its [`variance_about`] that mean,
/// bit-identical to calling the two on every window in turn.
///
/// A serial `f64` sum is one chain of dependent adds, so it runs at the
/// add latency; here `LANES` (8) equal-length windows are summed side
/// by side, each in its own accumulator. Every accumulator starts at
/// `-0.0`, as `Iterator::sum` does, and adds its own window's terms in
/// order, so no sum is reassociated: the lanes only let independent
/// chains overlap. The last `windows.len() % LANES` windows, and any
/// group whose lengths differ, are summed one window at a time.
///
/// # Examples
///
/// ```
/// let (a, b) = ([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]);
/// let moments = didt_stats::window_moments(&[&a, &b]);
/// assert_eq!(moments, vec![(2.0, 2.0 / 3.0), (3.0, 2.0)]);
/// ```
#[must_use]
pub fn window_moments(windows: &[&[f64]]) -> Vec<(f64, f64)> {
    let one = |w: &[f64]| {
        let m = mean(w);
        (m, variance_about(w, m))
    };
    let mut out = Vec::with_capacity(windows.len());
    let mut groups = windows.chunks_exact(LANES);
    for group in groups.by_ref() {
        let n = group[0].len();
        if n == 0 || group.iter().any(|w| w.len() != n) {
            out.extend(group.iter().map(|w| one(w)));
            continue;
        }
        let rows: [&[f64]; LANES] = std::array::from_fn(|l| &group[l][..n]);
        let len = n as f64;
        let mut sum = [-0.0; LANES];
        for i in 0..n {
            for (acc, row) in sum.iter_mut().zip(&rows) {
                *acc += row[i];
            }
        }
        let means = sum.map(|s| s / len);
        let mut sq = [-0.0; LANES];
        for i in 0..n {
            for ((acc, row), &m) in sq.iter_mut().zip(&rows).zip(&means) {
                *acc += (row[i] - m) * (row[i] - m);
            }
        }
        out.extend(means.iter().zip(sq).map(|(&m, s)| (m, s / len)));
    }
    out.extend(groups.remainder().iter().map(|w| one(w)));
    out
}

/// Population standard deviation.
///
/// # Examples
///
/// ```
/// let s = didt_stats::std_dev(&[2.0, 4.0]);
/// assert_eq!(s, 1.0);
/// ```
#[must_use]
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Minimum of a sample, ignoring NaNs. Returns `f64::INFINITY` when empty.
#[must_use]
pub fn min(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::INFINITY, f64::min)
}

/// Maximum of a sample, ignoring NaNs. Returns `f64::NEG_INFINITY` when empty.
#[must_use]
pub fn max(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(f64::NEG_INFINITY, f64::max)
}

/// One-pass summary of a trace: count, mean, variance and extrema.
///
/// # Examples
///
/// ```
/// use didt_stats::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(s.count, 3);
/// assert_eq!(s.mean, 2.0);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples observed.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a slice in a single pass (Welford's algorithm).
    #[must_use]
    pub fn from_slice(data: &[f64]) -> Self {
        if data.is_empty() {
            return Summary::default();
        }
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &x) in data.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count: data.len(),
            mean,
            variance: m2 / data.len() as f64,
            min,
            max,
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_constant() {
        assert_eq!(mean(&[5.0; 17]), 5.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.0; 8]), 0.0);
    }

    #[test]
    fn population_vs_sample_variance() {
        // Divides by n (1.25), not by n - 1 (5/3).
        let pop = variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((pop - 1.25).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_nan() {
        let data = [1.0, f64::NAN, -2.0, 7.0];
        assert_eq!(min(&data), -2.0);
        assert_eq!(max(&data), 7.0);
    }

    #[test]
    fn streaming_matches_batch() {
        let data: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 1.0)
            .collect();
        let s = Summary::from_slice(&data);
        assert!((s.mean - mean(&data)).abs() < 1e-12);
        assert!((s.variance - variance(&data)).abs() < 1e-10);
        assert_eq!(s.min, min(&data));
        assert_eq!(s.max, max(&data));
        assert_eq!(s.count, data.len());
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.variance, 0.0);
    }
}
