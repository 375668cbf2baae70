//! Chi-squared distribution and the goodness-of-fit test for normality.
//!
//! Paper §4.1 classifies 32/64/128-cycle execution windows as Gaussian via
//! a chi-squared goodness-of-fit test at 95 % significance against a
//! normal distribution with the sample's own mean and variance. Figures 6
//! and 12 report acceptance rates; this module implements that exact test.

use crate::gamma::gamma_p;
use crate::normal::{same_bits, standard_quantile, Normal};
use crate::{mean, variance_about, StatsError};

/// Chi-squared distribution with `k` degrees of freedom.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::ChiSquared;
///
/// let chi = ChiSquared::new(3.0)?;
/// // Median of chi²(3) is about 2.366.
/// let median = chi.quantile(0.5)?;
/// assert!((median - 2.366).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    dof: f64,
}

impl ChiSquared {
    /// Create a chi-squared distribution with `dof` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `dof` is a positive
    /// finite number.
    pub fn new(dof: f64) -> Result<Self, StatsError> {
        if !(dof > 0.0 && dof.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "dof",
                value: dof,
            });
        }
        Ok(ChiSquared { dof })
    }

    /// Degrees of freedom.
    #[must_use]
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// Values of `x` below zero return 0.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        gamma_p(self.dof / 2.0, x / 2.0).unwrap_or(f64::NAN)
    }

    /// Survival function `P(X > x)` — the p-value of a test statistic `x`.
    #[must_use]
    pub fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Quantile (inverse CDF) by bisection.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `p` is outside (0, 1).
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: p,
            });
        }
        let mut lo = 0.0f64;
        let mut hi = self.dof.max(1.0);
        while self.cdf(hi) < p {
            hi *= 2.0;
            if hi > 1e12 {
                return Err(StatsError::NoConvergence {
                    routine: "chi_squared_quantile",
                });
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let next = if self.cdf(mid) < p {
                (mid, hi)
            } else {
                (lo, mid)
            };
            if same_bits(next, (lo, hi)) {
                // The bracket is a fixed point; the remaining steps
                // would keep it.
                break;
            }
            (lo, hi) = next;
        }
        Ok(0.5 * (lo + hi))
    }
}

/// Decision of a goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GofOutcome {
    /// The null hypothesis (data follows the tested distribution) was not
    /// rejected at the requested significance.
    Accepted,
    /// The null hypothesis was rejected.
    Rejected,
    /// The test could not be applied, e.g. because the sample variance was
    /// (numerically) zero. The paper's methodology treats such flat
    /// windows as "low variance, not a dI/dt concern" rather than Gaussian.
    Degenerate,
}

/// Full report of a chi-squared goodness-of-fit run.
#[derive(Debug, Clone, PartialEq)]
pub struct GofReport {
    /// Test decision.
    pub decision: GofOutcome,
    /// The chi-squared test statistic (0 for degenerate windows).
    pub statistic: f64,
    /// The critical value the statistic was compared against.
    pub critical_value: f64,
    /// Degrees of freedom used (bins − 1 − 2 estimated parameters).
    pub dof: usize,
    /// p-value of the observed statistic.
    pub p_value: f64,
}

impl GofReport {
    /// `true` when the window qualified as Gaussian.
    #[must_use]
    pub fn is_gaussian(&self) -> bool {
        self.decision == GofOutcome::Accepted
    }
}

/// Chi-squared goodness-of-fit test for normality with equiprobable bins.
///
/// The test partitions the real line into `bins` intervals with equal
/// probability under the fitted normal (mean and variance estimated from
/// the sample, costing two degrees of freedom as in the paper's standard
/// procedure, cf. Kreyszig). Equiprobable binning keeps expected counts
/// uniform, which is the textbook-recommended way to apply the test to a
/// continuous distribution.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::chi_squared::ChiSquaredGof;
///
/// let test = ChiSquaredGof::new(8)?;
/// // A pseudo-Gaussian sample built from sums of uniforms (CLT):
/// let mut state = 0x2545F4914F6CDD1Du64;
/// let mut next = move || {
///     state ^= state << 13; state ^= state >> 7; state ^= state << 17;
///     (state >> 11) as f64 / (1u64 << 53) as f64
/// };
/// let sample: Vec<f64> = (0..256)
///     .map(|_| (0..12).map(|_| next()).sum::<f64>() - 6.0)
///     .collect();
/// let report = test.test_normality(&sample, 0.95)?;
/// assert!(report.is_gaussian());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChiSquaredGof {
    bins: usize,
}

impl ChiSquaredGof {
    /// Minimum variance for a window to be testable; below this the window
    /// is reported [`GofOutcome::Degenerate`].
    const DEGENERATE_VARIANCE: f64 = 1e-12;

    /// Create a test using `bins` equiprobable bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `bins < 4`: with two
    /// parameters estimated from the data, fewer than 4 bins leaves no
    /// degrees of freedom.
    pub fn new(bins: usize) -> Result<Self, StatsError> {
        if bins < 4 {
            return Err(StatsError::InvalidParameter {
                name: "bins",
                value: bins as f64,
            });
        }
        Ok(ChiSquaredGof { bins })
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Test whether `data` is consistent with a normal distribution whose
    /// mean and variance match the sample, at the given `significance`
    /// (e.g. `0.95` for the paper's 95 % test).
    ///
    /// Shorthand for `self.prepare(significance)?.test(data)`; callers
    /// testing many windows should [`prepare`](Self::prepare) once.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a significance outside
    /// (0, 1), and otherwise [`StatsError::InsufficientData`] when the
    /// sample has fewer than `4 * bins` points (so every bin expects at
    /// least 4 of them).
    pub fn test_normality(&self, data: &[f64], significance: f64) -> Result<GofReport, StatsError> {
        self.prepare(significance)?.test(data)
    }

    /// Build the test's data-independent constants for `significance`:
    /// the χ² critical value and the standard-normal bin quantiles. A
    /// window's bin edges are then `mean + std_dev * z_i`, exactly what
    /// [`Normal::quantile`] of the fitted normal computes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a significance outside
    /// (0, 1).
    pub fn prepare(&self, significance: f64) -> Result<PreparedGof, StatsError> {
        if !(significance > 0.0 && significance < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "significance",
                value: significance,
            });
        }
        let dof = self.bins - 1 - 2;
        let chi = ChiSquared::new(dof as f64)?;
        let critical_value = chi.quantile(significance)?;
        let z = (1..self.bins)
            .map(|i| standard_quantile(i as f64 / self.bins as f64))
            .collect::<Result<_, _>>()?;
        Ok(PreparedGof {
            chi,
            dof,
            critical_value,
            z,
        })
    }
}

/// A [`ChiSquaredGof`] at one significance, with its constants built by
/// [`ChiSquaredGof::prepare`]; [`PreparedGof::test`] does only the
/// per-window work.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedGof {
    chi: ChiSquared,
    dof: usize,
    critical_value: f64,
    /// Standard-normal quantiles at `i / bins` for `i` in `1..bins`.
    z: Vec<f64>,
}

impl PreparedGof {
    /// Number of equiprobable bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.z.len() + 1
    }

    /// Degrees of freedom (bins − 1 − 2 estimated parameters).
    #[must_use]
    pub fn dof(&self) -> usize {
        self.dof
    }

    /// The χ² critical value a statistic is compared against.
    #[must_use]
    pub fn critical_value(&self) -> f64 {
        self.critical_value
    }

    /// The standard-normal quantiles at `i / bins` for `i` in `1..bins`:
    /// a window's bin edges are `mean + std_dev * z_i`.
    #[must_use]
    pub fn quantiles(&self) -> &[f64] {
        &self.z
    }

    /// Test whether `data` is consistent with a normal distribution whose
    /// mean and variance match the sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] when the sample has fewer
    /// than `4 * bins` points, and [`StatsError::InvalidParameter`] when
    /// its mean or variance is not finite.
    pub fn test(&self, data: &[f64]) -> Result<GofReport, StatsError> {
        let m = mean(data);
        self.test_moments(data, m, variance_about(data, m))
    }

    /// [`test`](Self::test) of a window whose moments the caller already
    /// holds: `m` must be `mean(data)` and `var` must be
    /// `variance_about(data, m)`, and then the report is bit-identical to
    /// `test(data)`. A caller that needs the variance itself (as the
    /// Gaussianity study does) sums the window once instead of twice.
    ///
    /// # Errors
    ///
    /// As [`test`](Self::test).
    pub fn test_moments(&self, data: &[f64], m: f64, var: f64) -> Result<GofReport, StatsError> {
        let statistic = self.statistic(data, m, var)?;
        let decision = self.outcome(statistic);
        let (statistic, p_value) = match statistic {
            Some(statistic) => (statistic, self.chi.sf(statistic)),
            None => (0.0, 1.0),
        };
        Ok(GofReport {
            decision,
            statistic,
            critical_value: self.critical_value,
            dof: self.dof,
            p_value,
        })
    }

    /// The decision [`test_moments`](Self::test_moments) reports, without
    /// the p-value it also evaluates: the same statistic compared against
    /// the same critical value, so the outcome always equals
    /// `test_moments(data, m, var)?.decision`.
    ///
    /// # Errors
    ///
    /// As [`test`](Self::test).
    pub fn decide(&self, data: &[f64], m: f64, var: f64) -> Result<GofOutcome, StatsError> {
        Ok(self.outcome(self.statistic(data, m, var)?))
    }

    /// The outcome of a statistic; `None` marks a degenerate window.
    fn outcome(&self, statistic: Option<f64>) -> GofOutcome {
        match statistic {
            None => GofOutcome::Degenerate,
            Some(s) if s <= self.critical_value => GofOutcome::Accepted,
            Some(_) => GofOutcome::Rejected,
        }
    }

    /// The χ² statistic of a window with moments `m` and `var`, or `None`
    /// for a degenerate (near-zero-variance) window.
    ///
    /// Each bin is counted from two edge counts: with
    /// `above[i] = #{x : edge_i <= x}`, bin `b` holds
    /// `above[b - 1] - above[b]`. The edges `m + s * z_i` never decrease
    /// (`z` ascends, `s > 0`, and rounding is monotone), so this is the
    /// count a per-sample search for the first edge above `x` gives,
    /// ties on an edge included.
    fn statistic(&self, data: &[f64], m: f64, var: f64) -> Result<Option<f64>, StatsError> {
        let bins = self.bins();
        let needed = 4 * bins;
        if data.len() < needed {
            return Err(StatsError::InsufficientData {
                needed,
                got: data.len(),
            });
        }
        if var < ChiSquaredGof::DEGENERATE_VARIANCE {
            return Ok(None);
        }
        let fitted = Normal::new(m, var.sqrt())?;
        let (mu, sd) = (fitted.mean(), fitted.std_dev());

        // Walk the equiprobable edges (the fitted normal's quantiles) in
        // ascending order; `above_prev` samples lie at or above the
        // previous edge (all of them, for the first bin).
        let expected = data.len() as f64 / bins as f64;
        let term = |o: usize| {
            let d = o as f64 - expected;
            d * d / expected
        };
        let mut statistic = 0.0;
        let mut above_prev = data.len();
        for &z in &self.z {
            let edge = mu + sd * z;
            let above: usize = data.iter().map(|&x| usize::from(edge <= x)).sum();
            statistic += term(above_prev - above);
            above_prev = above;
        }
        statistic += term(above_prev);
        Ok(Some(statistic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_test_keeps_error_order() {
        let gof = ChiSquaredGof::new(8).unwrap();
        // Significance is checked before length, by `prepare`.
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(matches!(
                gof.test_normality(&[1.0; 3], bad),
                Err(StatsError::InvalidParameter {
                    name: "significance",
                    ..
                })
            ));
        }
        assert!(matches!(
            gof.prepare(0.95).unwrap().test(&[1.0; 31]),
            Err(StatsError::InsufficientData {
                needed: 32,
                got: 31
            })
        ));
        assert!(matches!(
            gof.prepare(0.95).unwrap().test(&[f64::NAN; 64]),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn chi_squared_cdf_reference() {
        // chi²(2) has CDF 1 - exp(-x/2).
        let chi = ChiSquared::new(2.0).unwrap();
        for x in [0.5, 1.0, 3.0, 8.0] {
            assert!((chi.cdf(x) - (1.0 - (-x / 2.0).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_stops_at_the_bracket_the_full_bisection_ends_on() {
        // The bisection as first written: always 200 steps.
        let full = |chi: &ChiSquared, p: f64| {
            let (mut lo, mut hi) = (0.0f64, chi.dof().max(1.0));
            while chi.cdf(hi) < p {
                hi *= 2.0;
            }
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if chi.cdf(mid) < p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        for dof in [0.5, 1.0, 2.0, 5.0, 13.0, 40.0] {
            let chi = ChiSquared::new(dof).unwrap();
            for p in [1e-9, 0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.999_999] {
                let got = chi.quantile(p).unwrap();
                assert_eq!(got.to_bits(), full(&chi, p).to_bits(), "dof {dof}, p {p}");
            }
        }
    }

    #[test]
    fn chi_squared_critical_values() {
        // Standard table: chi²₀.₉₅ critical values.
        let cases = [(1.0, 3.841), (5.0, 11.070), (10.0, 18.307)];
        for (dof, want) in cases {
            let q = ChiSquared::new(dof).unwrap().quantile(0.95).unwrap();
            assert!((q - want).abs() < 5e-3, "dof {dof}: {q} vs {want}");
        }
    }

    #[test]
    fn chi_squared_rejects_bad_dof() {
        assert!(ChiSquared::new(0.0).is_err());
        assert!(ChiSquared::new(-2.0).is_err());
        assert!(ChiSquared::new(f64::NAN).is_err());
    }

    #[test]
    fn cdf_negative_is_zero() {
        let chi = ChiSquared::new(4.0).unwrap();
        assert_eq!(chi.cdf(-1.0), 0.0);
        assert_eq!(chi.cdf(0.0), 0.0);
    }

    #[test]
    fn gof_requires_enough_bins() {
        assert!(ChiSquaredGof::new(3).is_err());
        assert!(ChiSquaredGof::new(4).is_ok());
    }

    #[test]
    fn gof_rejects_uniform_ramp() {
        let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Rejected);
        assert!(r.statistic > r.critical_value);
    }

    #[test]
    fn gof_degenerate_on_constant() {
        let data = vec![2.5; 256];
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Degenerate);
        assert!(!r.is_gaussian());
    }

    #[test]
    fn gof_accepts_clt_gaussian() {
        // Sum of 16 xorshift uniforms per sample: very close to Gaussian.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next_uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let sample: Vec<f64> = (0..1024)
            .map(|_| (0..16).map(|_| next_uniform()).sum::<f64>())
            .collect();
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&sample, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Accepted, "stat {}", r.statistic);
    }

    #[test]
    fn gof_rejects_bimodal() {
        // Two far-apart spikes: definitely not Gaussian.
        let mut data = vec![0.0; 128];
        data.extend(vec![10.0; 128]);
        // Tiny jitter so variance isn't degenerate between the two modes.
        for (i, x) in data.iter_mut().enumerate() {
            *x += (i % 7) as f64 * 1e-3;
        }
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Rejected);
    }

    #[test]
    fn gof_insufficient_data() {
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&[1.0; 10], 0.95);
        assert!(matches!(r, Err(StatsError::InsufficientData { .. })));
    }

    #[test]
    fn gof_invalid_significance() {
        let test = ChiSquaredGof::new(8).unwrap();
        assert!(test.test_normality(&[0.0; 64], 0.0).is_err());
        assert!(test.test_normality(&[0.0; 64], 1.0).is_err());
    }

    #[test]
    fn p_value_consistent_with_decision() {
        let data: Vec<f64> = (0..512).map(|i| ((i * 37) % 100) as f64).collect();
        let test = ChiSquaredGof::new(8).unwrap();
        let r = test.test_normality(&data, 0.95).unwrap();
        match r.decision {
            GofOutcome::Accepted => assert!(r.p_value >= 0.05),
            GofOutcome::Rejected => assert!(r.p_value < 0.05),
            GofOutcome::Degenerate => panic!("unexpected degenerate"),
        }
    }
}
