//! Fixed-bin histograms.
//!
//! Figures 10 and 11 of the paper show per-benchmark histograms of cycles
//! spent at different supply-voltage levels (x-axis 0.90–1.05 V). This
//! histogram type reproduces those plots as data rows.

use crate::StatsError;

/// A histogram over a fixed range with uniform bins.
///
/// Out-of-range samples are counted in saturating edge bins and also
/// tracked separately so callers can detect clipping.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::Histogram;
///
/// let mut h = Histogram::new(0.90, 1.05, 30)?;
/// for v in [0.99, 1.0, 1.0, 1.01] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 4);
/// let frac = h.fraction_below(0.97);
/// assert_eq!(frac, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram spanning `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `hi <= lo`, the
    /// bounds are not finite, or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(StatsError::InvalidParameter {
                name: "range",
                value: hi - lo,
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x.is_nan() {
            // NaNs are counted as underflow — they should never occur in
            // voltage traces, and tests assert underflow stays zero.
            self.underflow += 1;
            return;
        }
        if x < self.lo {
            self.underflow += 1;
            self.counts[0] += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            let last = self.counts.len() - 1;
            self.counts[last] += 1;
            return;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        let bin = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    /// Record every sample in a slice.
    pub fn record_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.record(x);
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total samples recorded (including out-of-range).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that fell at or above the top of the range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.bins()`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Fraction of all recorded samples in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.bins()`.
    #[must_use]
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / self.total as f64
    }

    /// Fraction of samples strictly below `threshold`.
    ///
    /// Bins straddling the threshold contribute proportionally; exact for
    /// thresholds on bin edges. The paper's Figure 9 metric — percent of
    /// cycles below the 0.97 V control point — is computed this way on
    /// voltage traces.
    #[must_use]
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut below = self.underflow as f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let lo_i = self.lo + i as f64 * w;
            let hi_i = lo_i + w;
            if hi_i <= threshold {
                below += c as f64;
            } else if lo_i < threshold {
                below += c as f64 * (threshold - lo_i) / w;
            }
        }
        // Underflow samples were already placed in counts[0]; avoid double
        // counting by subtracting them if bin 0 is below the threshold.
        if threshold > self.lo {
            below -= self.underflow as f64;
        }
        (below / self.total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_ranges() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.record(0.5);
        h.record(9.5);
        h.record(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_saturates() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(-5.0);
        h.record(2.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_exact_on_edges() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        for i in 0..10 {
            h.record(i as f64 / 10.0 + 0.05);
        }
        assert!((h.fraction_below(0.5) - 0.5).abs() < 1e-12);
        assert!((h.fraction_below(0.0) - 0.0).abs() < 1e-12);
        assert!((h.fraction_below(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_below_counts_underflow_once() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(-1.0); // underflow, saturates into bin 0
        h.record(0.9);
        let f = h.fraction_below(0.5);
        assert!((f - 0.5).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn fractions_sum_to_one_in_range() {
        let mut h = Histogram::new(0.0, 1.0, 8).unwrap();
        for i in 0..100 {
            h.record((i as f64 + 0.5) / 100.0);
        }
        let s: f64 = (0..8).map(|i| h.fraction(i)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.fraction_below(0.5), 0.0);
    }

    #[test]
    fn record_all_matches_record() {
        let xs = [0.1, 0.2, 0.3, 0.9];
        let mut a = Histogram::new(0.0, 1.0, 4).unwrap();
        let mut b = a.clone();
        a.record_all(&xs);
        for &x in &xs {
            b.record(x);
        }
        assert_eq!(a, b);
    }
}
