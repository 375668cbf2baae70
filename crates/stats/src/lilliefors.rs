//! Lilliefors (Kolmogorov–Smirnov with estimated parameters) normality
//! test — an alternative to the paper's chi-squared classifier, used in
//! the classifier-choice ablation.
//!
//! The KS statistic `D = sup |F_emp(x) − Φ((x−μ̂)/σ̂)|` is compared
//! against Lilliefors critical values (which account for fitting μ and σ
//! from the sample; plain KS critical values would be far too lenient).

use crate::chi_squared::{GofOutcome, GofReport};
use crate::normal::Normal;
use crate::{mean, variance, StatsError};

/// Lilliefors normality test.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::chi_squared::GofOutcome;
/// use didt_stats::lilliefors::LillieforsTest;
///
/// let ramp: Vec<f64> = (0..256).map(|i| i as f64).collect();
/// let r = LillieforsTest.test_normality(&ramp, 0.95)?;
/// assert_eq!(r.decision, GofOutcome::Rejected);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LillieforsTest;

impl LillieforsTest {
    /// Minimum sample size for the asymptotic critical values.
    const MIN_SAMPLES: usize = 8;

    /// Asymptotic Lilliefors critical constant `c(α)` such that
    /// `D_crit = c / (√n − 0.01 + 0.85/√n)` (Abdi & Molin's
    /// approximation of Lilliefors' tables).
    fn critical_constant(significance: f64) -> Option<f64> {
        // significance = confidence level (0.95 → α = 0.05).
        if (significance - 0.90).abs() < 1e-9 {
            Some(0.819)
        } else if (significance - 0.95).abs() < 1e-9 {
            Some(0.895)
        } else if (significance - 0.99).abs() < 1e-9 {
            Some(1.035)
        } else {
            None
        }
    }

    /// Test whether `data` is consistent with a normal distribution with
    /// fitted mean/variance at the given confidence level (0.90, 0.95 or
    /// 0.99 — the tabulated Lilliefors levels).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for fewer than 8 samples
    /// and [`StatsError::InvalidParameter`] for an
    /// untabulated significance level.
    pub fn test_normality(&self, data: &[f64], significance: f64) -> Result<GofReport, StatsError> {
        let c = Self::critical_constant(significance).ok_or(StatsError::InvalidParameter {
            name: "significance",
            value: significance,
        })?;
        if data.len() < Self::MIN_SAMPLES {
            return Err(StatsError::InsufficientData {
                needed: Self::MIN_SAMPLES,
                got: data.len(),
            });
        }
        let n = data.len() as f64;
        let critical_value = c / (n.sqrt() - 0.01 + 0.85 / n.sqrt());

        let m = mean(data);
        let var = variance(data);
        if var < 1e-12 {
            return Ok(GofReport {
                decision: GofOutcome::Degenerate,
                statistic: 0.0,
                critical_value,
                dof: 0,
                p_value: 1.0,
            });
        }
        let fitted = Normal::new(m, var.sqrt())?;
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        // D = max over points of |F_emp − F_fit| using both one-sided
        // empirical CDF conventions.
        let mut d = 0.0f64;
        for (i, &x) in sorted.iter().enumerate() {
            let f = fitted.cdf(x);
            let hi = (i + 1) as f64 / n - f;
            let lo = f - i as f64 / n;
            d = d.max(hi).max(lo);
        }
        let decision = if d <= critical_value {
            GofOutcome::Accepted
        } else {
            GofOutcome::Rejected
        };
        // Approximate p-value from the plain-KS asymptotic distribution
        // with Lilliefors' effective sample scaling (informational only;
        // the decision uses the tabulated critical value).
        let lambda = d * (n.sqrt() - 0.01 + 0.85 / n.sqrt()) / 0.895 * 1.358;
        let p_value = kolmogorov_sf(lambda).clamp(0.0, 1.0);
        Ok(GofReport {
            decision,
            statistic: d,
            critical_value,
            dof: 0,
            p_value,
        })
    }
}

/// Kolmogorov distribution survival function `Q(λ) = 2Σ(−1)^{k−1}e^{−2k²λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += if k % 2 == 1 { term } else { -term };
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clt_gaussian(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..12).map(|_| next()).sum::<f64>() - 6.0)
            .collect()
    }

    #[test]
    fn accepts_gaussian_sample() {
        let data = clt_gaussian(512, 0xFEED);
        let r = LillieforsTest.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Accepted, "D = {}", r.statistic);
    }

    #[test]
    fn rejects_uniform_ramp() {
        let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let r = LillieforsTest.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Rejected);
        assert!(r.statistic > r.critical_value);
    }

    #[test]
    fn rejects_bimodal() {
        let mut data = vec![0.0; 128];
        data.extend(vec![10.0; 128]);
        for (i, x) in data.iter_mut().enumerate() {
            *x += (i % 5) as f64 * 1e-3;
        }
        let r = LillieforsTest.test_normality(&data, 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Rejected);
    }

    #[test]
    fn degenerate_on_flat_data() {
        let r = LillieforsTest.test_normality(&[3.0; 64], 0.95).unwrap();
        assert_eq!(r.decision, GofOutcome::Degenerate);
    }

    #[test]
    fn rejects_untabulated_significance_and_short_samples() {
        assert!(LillieforsTest.test_normality(&[0.0; 64], 0.93).is_err());
        assert!(LillieforsTest.test_normality(&[0.0; 4], 0.95).is_err());
    }

    #[test]
    fn stricter_significance_has_larger_critical_value() {
        let data = clt_gaussian(128, 7);
        let r90 = LillieforsTest.test_normality(&data, 0.90).unwrap();
        let r99 = LillieforsTest.test_normality(&data, 0.99).unwrap();
        assert!(r99.critical_value > r90.critical_value);
    }

    #[test]
    fn kolmogorov_sf_boundaries() {
        assert!((kolmogorov_sf(0.0) - 1.0).abs() < 1e-12);
        assert!(kolmogorov_sf(3.0) < 1e-6);
        // Known value: Q(1.358) ≈ 0.05.
        assert!((kolmogorov_sf(1.358) - 0.05).abs() < 0.005);
    }
}
