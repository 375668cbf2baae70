//! Higher moments and the Jarque–Bera normality test.
//!
//! Skewness and excess kurtosis describe *how* a current window deviates
//! from Gaussian — one-sided activity bursts skew the distribution,
//! stall/burst mixtures fatten its tails. The Jarque–Bera statistic
//! turns both into a third normality classifier (χ² with 2 dof), used to
//! cross-check the paper's chi-squared choice.

use crate::chi_squared::{ChiSquared, GofOutcome, GofReport};
use crate::{mean, variance, StatsError};

/// Sample skewness (third standardized moment).
///
/// Returns 0 for degenerate (constant) samples.
///
/// # Examples
///
/// ```
/// // A one-sided spike train is right-skewed.
/// let mut data = vec![0.0; 90];
/// data.extend(vec![10.0; 10]);
/// assert!(didt_stats::skewness(&data) > 1.0);
/// ```
#[must_use]
pub fn skewness(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    if data.len() < 3 {
        return 0.0;
    }
    let m = mean(data);
    let var = variance(data);
    if var < 1e-300 {
        return 0.0;
    }
    let m3: f64 = data.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    m3 / var.powf(1.5)
}

/// Sample excess kurtosis (fourth standardized moment minus 3).
///
/// Zero for a normal distribution; positive for heavy tails.
///
/// # Examples
///
/// ```
/// // A two-point distribution has the minimum kurtosis, -2.
/// let data: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// assert!((didt_stats::excess_kurtosis(&data) + 2.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn excess_kurtosis(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    if data.len() < 4 {
        return 0.0;
    }
    let m = mean(data);
    let var = variance(data);
    if var < 1e-300 {
        return 0.0;
    }
    let m4: f64 = data.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    m4 / (var * var) - 3.0
}

/// Jarque–Bera normality test: `JB = n/6·(S² + K²/4)` is asymptotically
/// χ²(2) under normality. Shorthand for
/// `PreparedJarqueBera::new(significance)?.test(data)`; callers testing
/// many windows should build the [`PreparedJarqueBera`] once.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_stats::StatsError> {
/// use didt_stats::chi_squared::GofOutcome;
/// use didt_stats::jarque_bera;
///
/// let ramp: Vec<f64> = (0..512).map(|i| i as f64).collect();
/// // A uniform ramp has kurtosis -1.2: flagged decisively.
/// let r = jarque_bera(&ramp, 0.95)?;
/// assert_eq!(r.decision, GofOutcome::Rejected);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a significance outside
/// (0, 1), and otherwise [`StatsError::InsufficientData`] below 16
/// samples (the asymptotic χ² approximation needs some length).
pub fn jarque_bera(data: &[f64], significance: f64) -> Result<GofReport, StatsError> {
    PreparedJarqueBera::new(significance)?.test(data)
}

/// The Jarque–Bera test at one significance, with the χ²(2) critical
/// value built once; [`PreparedJarqueBera::test`] does only the
/// per-window work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedJarqueBera {
    chi: ChiSquared,
    critical_value: f64,
}

impl PreparedJarqueBera {
    /// Build the test for `significance`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for a significance outside
    /// (0, 1).
    pub fn new(significance: f64) -> Result<Self, StatsError> {
        if !(significance > 0.0 && significance < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "significance",
                value: significance,
            });
        }
        let chi = ChiSquared::new(2.0)?;
        let critical_value = chi.quantile(significance)?;
        Ok(PreparedJarqueBera {
            chi,
            critical_value,
        })
    }

    /// Test `data` for normality.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] below 16 samples.
    pub fn test(&self, data: &[f64]) -> Result<GofReport, StatsError> {
        if data.len() < 16 {
            return Err(StatsError::InsufficientData {
                needed: 16,
                got: data.len(),
            });
        }
        let critical_value = self.critical_value;
        if variance(data) < 1e-12 {
            return Ok(GofReport {
                decision: GofOutcome::Degenerate,
                statistic: 0.0,
                critical_value,
                dof: 2,
                p_value: 1.0,
            });
        }
        let s = skewness(data);
        let k = excess_kurtosis(data);
        let n = data.len() as f64;
        let statistic = n / 6.0 * (s * s + k * k / 4.0);
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
            dof: 2,
            p_value,
        })
    }
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
    fn symmetric_data_has_zero_skewness() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 - 49.5).collect();
        assert!(skewness(&data).abs() < 1e-10);
    }

    #[test]
    fn gaussian_sample_near_zero_moments() {
        let data = clt_gaussian(4096, 0xBEEF);
        assert!(skewness(&data).abs() < 0.15, "skew {}", skewness(&data));
        assert!(
            excess_kurtosis(&data).abs() < 0.3,
            "kurtosis {}",
            excess_kurtosis(&data)
        );
    }

    #[test]
    fn jb_accepts_gaussian_rejects_bimodal() {
        let g = clt_gaussian(1024, 0x1234);
        assert_eq!(
            jarque_bera(&g, 0.95).unwrap().decision,
            GofOutcome::Accepted
        );
        let mut bimodal = vec![0.0; 256];
        bimodal.extend(vec![10.0; 256]);
        assert_eq!(
            jarque_bera(&bimodal, 0.95).unwrap().decision,
            GofOutcome::Rejected
        );
    }

    #[test]
    fn jb_degenerate_and_errors() {
        assert_eq!(
            jarque_bera(&[5.0; 64], 0.95).unwrap().decision,
            GofOutcome::Degenerate
        );
        assert!(jarque_bera(&[0.0; 4], 0.95).is_err());
        assert!(jarque_bera(&clt_gaussian(64, 1), 1.5).is_err());
    }

    #[test]
    fn jb_statistic_grows_with_skew() {
        let g = clt_gaussian(512, 9);
        let skewed: Vec<f64> = g.iter().map(|&x| x.exp()).collect(); // log-normal
        let jb_g = jarque_bera(&g, 0.95).unwrap().statistic;
        let jb_s = jarque_bera(&skewed, 0.95).unwrap().statistic;
        assert!(jb_s > 10.0 * jb_g, "{jb_s} vs {jb_g}");
    }

    #[test]
    fn short_samples_return_zero_moments() {
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert_eq!(excess_kurtosis(&[1.0, 2.0, 3.0]), 0.0);
    }
}
