//! Per-scale wavelet variance via Parseval's relation.
//!
//! Paper §4.1, step 2: "the variance of the wavelet subband for scale j is
//! equal to the sum of squared detail coefficients on that scale" —
//! Parseval's equation for an orthonormal basis. This module computes the
//! per-scale variance decomposition that drives the offline voltage-
//! variance model, together with the adjacent-coefficient correlation of
//! step 3.

use crate::transform::WaveletDecomposition;
use crate::DspError;

/// Variance attributed to one wavelet scale, plus the adjacency
/// correlation of its detail coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleVariance {
    /// Detail level (1 = finest scale, i.e. 2-cycle features for Haar).
    pub level: usize,
    /// Time span of one coefficient at this level, in samples (`2^level`).
    pub span: usize,
    /// Variance contribution of this scale: `Σ d[k]² / N` where `N` is the
    /// original signal length.
    pub variance: f64,
    /// Lag-1 correlation between adjacent detail coefficients — strong
    /// values flag pulse trains able to build resonance (paper §4.1 step 3).
    pub adjacent_correlation: f64,
}

/// Variance decomposition across all detail scales.
///
/// The sum of the returned variances equals the *population variance* of
/// the original signal when the decomposition is full depth (a single
/// approximation coefficient holding the mean); otherwise it equals the
/// variance of the signal minus the variance of the coarse approximation
/// subband.
///
/// # Errors
///
/// Propagates [`DspError::BadLevel`] (unreachable for well-formed
/// decompositions).
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt, scale_variances, WaveletFamily};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let s: Vec<f64> = (0..256).map(|i| (i as f64 * 0.3).sin()).collect();
/// let d = dwt(&s, WaveletFamily::Haar, 8)?; // full depth: 256 = 2^8
/// let scales = scale_variances(&d)?;
/// let total: f64 = scales.iter().map(|s| s.variance).sum();
/// let sig_var = didt_stats::variance(&s);
/// assert!((total - sig_var).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn scale_variances(decomp: &WaveletDecomposition) -> Result<Vec<ScaleVariance>, DspError> {
    (1..=decomp.levels())
        .map(|level| {
            Ok(scale_variance(
                level,
                decomp.detail(level)?,
                decomp.signal_len(),
            ))
        })
        .collect()
}

/// The [`ScaleVariance`] of one detail row at `level`, for a signal of
/// `signal_len` samples: `Σ d[k]² / signal_len`, and the lag-1
/// correlation of adjacent coefficients (`didt_stats::lag_correlation`).
///
/// Bit-identical to computing the two apart, in two passes instead of
/// four: `Σ d²` runs beside the mean's `Σ d`, then the lag-1 numerator
/// beside its denominator. Each sum keeps its own order and start value
/// (`-0.0` where `Iterator::sum` ran, `0.0` for the numerator's loop);
/// running them side by side only lets their add chains overlap.
#[must_use]
pub fn scale_variance(level: usize, detail: &[f64], signal_len: usize) -> ScaleVariance {
    let (mut squares, mut sum) = (-0.0, -0.0);
    for &x in detail {
        squares += x * x;
        sum += x;
    }
    // Correlation needs at least 3 coefficients; coarser rows report 0.
    let adjacent_correlation = if detail.len() >= 3 {
        lag1_correlation(detail, sum / detail.len() as f64)
    } else {
        0.0
    };
    ScaleVariance {
        level,
        span: 1usize << level,
        variance: squares / signal_len as f64,
        adjacent_correlation,
    }
}

/// Lag-1 autocorrelation of `row` (at least 2 long) about its mean `m`.
fn lag1_correlation(row: &[f64], m: f64) -> f64 {
    let (mut num, mut den) = (0.0, -0.0);
    for pair in row.windows(2) {
        let d = pair[0] - m;
        num += d * (pair[1] - m);
        den += d * d;
    }
    let last = row[row.len() - 1] - m;
    den += last * last;
    if den <= 0.0 {
        0.0
    } else {
        (num / den).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dwt;
    use crate::wavelet::WaveletFamily;
    use didt_stats::variance;

    #[test]
    fn full_depth_variances_sum_to_signal_variance() {
        let s: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.13).sin() * 2.0 + (i % 10) as f64 * 0.1)
            .collect();
        let d = dwt(&s, WaveletFamily::Haar, 7).unwrap();
        let scales = scale_variances(&d).unwrap();
        let total: f64 = scales.iter().map(|s| s.variance).sum();
        assert!((total - variance(&s)).abs() < 1e-9);
    }

    #[test]
    fn single_scale_signal_concentrates_variance() {
        // Period-2 alternation: all variance on level 1.
        let s: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let d = dwt(&s, WaveletFamily::Haar, 6).unwrap();
        let scales = scale_variances(&d).unwrap();
        assert!((scales[0].variance - 1.0).abs() < 1e-10);
        for sv in &scales[1..] {
            assert!(sv.variance < 1e-12, "level {}", sv.level);
        }
    }

    #[test]
    fn period4_square_concentrates_on_level2() {
        // +1 +1 -1 -1 repeating: pure level-2 Haar content.
        let s: Vec<f64> = (0..64)
            .map(|i| if i % 4 < 2 { 1.0 } else { -1.0 })
            .collect();
        let d = dwt(&s, WaveletFamily::Haar, 6).unwrap();
        let scales = scale_variances(&d).unwrap();
        assert!(scales[0].variance < 1e-12);
        assert!((scales[1].variance - 1.0).abs() < 1e-10);
    }

    #[test]
    fn span_doubles_per_level() {
        let d = dwt(&[0.0; 64], WaveletFamily::Haar, 4).unwrap();
        let scales = scale_variances(&d).unwrap();
        let spans: Vec<usize> = scales.iter().map(|s| s.span).collect();
        assert_eq!(spans, vec![2, 4, 8, 16]);
    }

    #[test]
    fn adjacent_correlation_detects_pulse_train() {
        // Same-sign consecutive detail coefficients: a sustained
        // resonance-building pulse pattern at level 1.
        // Signal: +1 -1 repeated means d1 coefficients all equal — but a
        // constant row has zero variance so correlation is 0. Instead use
        // a slowly-AM-modulated alternation so coefficients trend.
        let s: Vec<f64> = (0..128)
            .map(|i| {
                let env = (i as f64 * 0.05).sin();
                if i % 2 == 0 {
                    env
                } else {
                    -env
                }
            })
            .collect();
        let d = dwt(&s, WaveletFamily::Haar, 4).unwrap();
        let scales = scale_variances(&d).unwrap();
        // Envelope varies slowly → adjacent d1 coefficients near-equal →
        // strong positive correlation.
        assert!(
            scales[0].adjacent_correlation > 0.8,
            "corr = {}",
            scales[0].adjacent_correlation
        );
    }

    #[test]
    fn coarse_levels_report_zero_correlation() {
        // Level with < 3 coefficients cannot estimate correlation.
        let d = dwt(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            WaveletFamily::Haar,
            3,
        )
        .unwrap();
        let scales = scale_variances(&d).unwrap();
        assert_eq!(scales[2].adjacent_correlation, 0.0); // 1 coefficient
        assert_eq!(scales[1].adjacent_correlation, 0.0); // 2 coefficients
    }
}
