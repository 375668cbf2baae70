//! Wavelet subbands: time-domain projections of coefficient rows.
//!
//! Paper §2.2 (equations 4–5): each time scale's coefficients project back
//! into a time-domain *subband signal*; the subbands sum to the original
//! signal. Because the power supply network is linear, the voltage
//! response can be computed per-subband and superposed — and subbands that
//! cannot affect the supply voltage (far from resonance) can be dropped,
//! which is the core trick behind both the offline variance model and the
//! online truncated monitor.

use crate::transform::{idwt, WaveletDecomposition};
use crate::DspError;

/// Reconstruct the time-domain signal contributed by a single detail
/// level ("the contributions of a single row of the coefficient matrix",
/// paper §2.2).
///
/// Level 1 is the finest scale, as in [`WaveletDecomposition::detail`].
///
/// # Errors
///
/// Returns [`DspError::BadLevel`] for an out-of-range level.
fn detail_signal(decomp: &WaveletDecomposition, level: usize) -> Result<Vec<f64>, DspError> {
    // Validate level first.
    decomp.detail(level)?;
    let mut only = decomp.clone();
    only.approximation_mut().fill(0.0);
    for l in 1..=decomp.levels() {
        if l != level {
            only.detail_mut(l)?.fill(0.0);
        }
    }
    idwt(&only)
}

/// Reconstruct the time-domain signal contributed by the approximation
/// coefficients alone (the coarse trend, equation 4 of the paper).
///
/// # Errors
///
/// Propagates [`idwt`]'s errors (none for well-formed decompositions).
fn approximation_signal(decomp: &WaveletDecomposition) -> Result<Vec<f64>, DspError> {
    let mut only = decomp.clone();
    for l in 1..=decomp.levels() {
        only.detail_mut(l)?.fill(0.0);
    }
    idwt(&only)
}

/// Decompose a signal-shaped decomposition into all of its subband
/// signals: the approximation subband first, then detail subbands from
/// finest to coarsest. The returned signals sum (element-wise) to the
/// original signal.
///
/// # Errors
///
/// Propagates errors from the per-band reconstructions.
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt, subband_decompose, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// let s: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
/// let d = dwt(&s, WaveletFamily::Haar, 3)?;
/// let bands = subband_decompose(&d)?;
/// assert_eq!(bands.len(), 4); // approx + 3 details
/// for t in 0..s.len() {
///     let sum: f64 = bands.iter().map(|b| b[t]).sum();
///     assert!((sum - s[t]).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
pub fn subband_decompose(decomp: &WaveletDecomposition) -> Result<Vec<Vec<f64>>, DspError> {
    let mut bands = Vec::with_capacity(decomp.levels() + 1);
    bands.push(approximation_signal(decomp)?);
    for level in 1..=decomp.levels() {
        bands.push(detail_signal(decomp, level)?);
    }
    Ok(bands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dwt;
    use crate::wavelet::WaveletFamily;

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.2).sin() * 2.0 + (t * 0.05).cos() + if i % 16 < 2 { 3.0 } else { 0.0 }
            })
            .collect()
    }

    #[test]
    fn subbands_sum_to_signal_haar() {
        let s = test_signal(64);
        let d = dwt(&s, WaveletFamily::Haar, 4).unwrap();
        let bands = subband_decompose(&d).unwrap();
        assert_eq!(bands.len(), 5);
        for t in 0..s.len() {
            let sum: f64 = bands.iter().map(|b| b[t]).sum();
            assert!((sum - s[t]).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn subbands_sum_to_signal_db4() {
        let s = test_signal(64);
        let d = dwt(&s, WaveletFamily::Db2, 3).unwrap();
        let bands = subband_decompose(&d).unwrap();
        for t in 0..s.len() {
            let sum: f64 = bands.iter().map(|b| b[t]).sum();
            assert!((sum - s[t]).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn subbands_are_mutually_orthogonal() {
        let s = test_signal(64);
        let d = dwt(&s, WaveletFamily::Haar, 4).unwrap();
        let bands = subband_decompose(&d).unwrap();
        for i in 0..bands.len() {
            for j in (i + 1)..bands.len() {
                let dot: f64 = bands[i].iter().zip(&bands[j]).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-8, "bands {i} and {j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn approximation_of_constant_is_constant() {
        let d = dwt(&[7.0; 32], WaveletFamily::Haar, 4).unwrap();
        let a = approximation_signal(&d).unwrap();
        assert!(a.iter().all(|x| (x - 7.0).abs() < 1e-10));
    }

    #[test]
    fn alternating_signal_lives_in_finest_subband() {
        let s = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let d = dwt(&s, WaveletFamily::Haar, 2).unwrap();
        let fine = detail_signal(&d, 1).unwrap();
        for (a, b) in fine.iter().zip(&s) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn detail_signal_level_validation() {
        let d = dwt(&[1.0; 16], WaveletFamily::Haar, 2).unwrap();
        assert!(detail_signal(&d, 0).is_err());
        assert!(detail_signal(&d, 3).is_err());
    }

    #[test]
    fn haar_detail_subband_is_locally_zero_mean() {
        // Each Haar detail subband at level l has zero mean over every
        // aligned block of 2^l samples.
        let s = test_signal(64);
        let d = dwt(&s, WaveletFamily::Haar, 3).unwrap();
        for level in 1..=3 {
            let band = detail_signal(&d, level).unwrap();
            let block = 1 << level;
            for chunk in band.chunks(block) {
                let sum: f64 = chunk.iter().sum();
                assert!(sum.abs() < 1e-9, "level {level}");
            }
        }
    }

    #[test]
    fn dropping_fine_bands_is_lowpass() {
        // Sum of approx + coarse details only = smoothed signal whose
        // energy never exceeds the original (orthogonal projection).
        let s = test_signal(128);
        let d = dwt(&s, WaveletFamily::Haar, 5).unwrap();
        let bands = subband_decompose(&d).unwrap();
        let smooth: Vec<f64> = (0..s.len())
            .map(|t| bands[0][t] + bands[4][t] + bands[5][t])
            .collect();
        let es: f64 = s.iter().map(|x| x * x).sum();
        let esm: f64 = smooth.iter().map(|x| x * x).sum();
        assert!(esm <= es + 1e-9);
    }
}
