//! Chi-squared distribution and the goodness-of-fit test for normality.
//!
//! Paper §4.1 classifies 32/64/128-cycle execution windows as Gaussian via
//! a chi-squared goodness-of-fit test at 95 % significance against a
//! normal distribution with the sample's own mean and variance. Figures 6
//! and 12 report acceptance rates; this module implements that exact test.

use crate::gamma::gamma_p;
use crate::normal::{standard_quantile, Normal};
use crate::{mean, variance, StatsError};

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
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
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
    fn bins(&self) -> usize {
        self.z.len() + 1
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
        let bins = self.bins();
        let needed = 4 * bins;
        if data.len() < needed {
            return Err(StatsError::InsufficientData {
                needed,
                got: data.len(),
            });
        }
        let (dof, critical_value) = (self.dof, self.critical_value);

        let m = mean(data);
        let var = variance(data);
        if var < ChiSquaredGof::DEGENERATE_VARIANCE {
            return Ok(GofReport {
                decision: GofOutcome::Degenerate,
                statistic: 0.0,
                critical_value,
                dof,
                p_value: 1.0,
            });
        }
        let fitted = Normal::new(m, var.sqrt())?;

        // Equiprobable bin edges from the fitted normal's quantiles.
        let edges: Vec<f64> = self
            .z
            .iter()
            .map(|&z| fitted.mean() + fitted.std_dev() * z)
            .collect();

        let mut observed = vec![0usize; bins];
        for &x in data {
            // partition_point gives the index of the first edge > x, i.e.
            // the bin x falls into.
            let bin = edges.partition_point(|&e| e <= x);
            observed[bin] += 1;
        }

        let expected = data.len() as f64 / bins as f64;
        let statistic: f64 = observed
            .iter()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();

        let p_value = self.chi.sf(statistic);
        let decision = if statistic <= critical_value {
            GofOutcome::Accepted
        } else {
            GofOutcome::Rejected
        };
        Ok(GofReport {
            decision,
            statistic,
            critical_value,
            dof,
            p_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-window test as it was before [`ChiSquaredGof::prepare`]
    /// existed: critical value and fitted-normal quantiles rebuilt for
    /// every window.
    fn reference_test(bins: usize, data: &[f64], significance: f64) -> GofReport {
        let dof = bins - 1 - 2;
        let chi = ChiSquared::new(dof as f64).unwrap();
        let critical_value = chi.quantile(significance).unwrap();
        let var = variance(data);
        if var < ChiSquaredGof::DEGENERATE_VARIANCE {
            return GofReport {
                decision: GofOutcome::Degenerate,
                statistic: 0.0,
                critical_value,
                dof,
                p_value: 1.0,
            };
        }
        let fitted = Normal::new(mean(data), var.sqrt()).unwrap();
        let edges: Vec<f64> = (1..bins)
            .map(|i| fitted.quantile(i as f64 / bins as f64).unwrap())
            .collect();
        let mut observed = vec![0usize; bins];
        for &x in data {
            observed[edges.partition_point(|&e| e <= x)] += 1;
        }
        let expected = data.len() as f64 / bins as f64;
        let statistic: f64 = observed
            .iter()
            .map(|&o| (o as f64 - expected) * (o as f64 - expected) / expected)
            .sum();
        GofReport {
            decision: if statistic <= critical_value {
                GofOutcome::Accepted
            } else {
                GofOutcome::Rejected
            },
            statistic,
            critical_value,
            dof,
            p_value: chi.sf(statistic),
        }
    }

    #[test]
    fn prepared_test_is_bit_identical_to_per_window_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // CLT-Gaussian, uniform, skewed and spiky windows at several
        // lengths and offsets, plus constant (degenerate) windows.
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for k in 0..60 {
            let len = [32, 64, 100, 256][k % 4];
            let offset = 1e3 * next() - 500.0;
            let scale = 10f64.powi((k % 7) as i32 - 3);
            let window = (0..len)
                .map(|_| {
                    let x = match k % 3 {
                        0 => (0..12).map(|_| next()).sum::<f64>() - 6.0,
                        1 => next(),
                        _ => next().powi(4) + f64::from(u8::from(next() < 0.05)) * 20.0,
                    };
                    offset + scale * x
                })
                .collect();
            windows.push(window);
        }
        windows.push(vec![2.5; 64]);
        windows.push(vec![-7.0; 256]);
        windows.push(vec![0.0; 32]);

        let mut seen = std::collections::HashSet::new();
        for bins in [4, 8] {
            let gof = ChiSquaredGof::new(bins).unwrap();
            for significance in [0.90, 0.95, 0.99] {
                let prepared = gof.prepare(significance).unwrap();
                for w in windows.iter().filter(|w| w.len() >= 4 * bins) {
                    let got = prepared.test(w).unwrap();
                    let want = reference_test(bins, w, significance);
                    assert_eq!(got.decision, want.decision);
                    assert_eq!(got.dof, want.dof);
                    assert_eq!(got.statistic.to_bits(), want.statistic.to_bits());
                    assert_eq!(got.critical_value.to_bits(), want.critical_value.to_bits());
                    assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
                    assert_eq!(got, gof.test_normality(w, significance).unwrap());
                    seen.insert(got.decision);
                }
            }
        }
        assert_eq!(seen.len(), 3, "every outcome must be exercised: {seen:?}");
    }

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
