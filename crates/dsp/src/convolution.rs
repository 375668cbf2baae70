//! Convolution reference kernels for paper equation 6.
//!
//! Paper equation 6 computes supply voltage as the convolution of the
//! current trace with the PDN's impulse response:
//! `v[t] = Σ_k i[t-k] · h[k]`. [`fir_filter`] is that sum as a plain
//! O(N·K) loop over a finite impulse response, and [`convolve_full`] is
//! the untruncated linear convolution it is a prefix of. Together they
//! are the offline reference: the PDN tests check the streaming biquad
//! simulator against [`fir_filter`], and the per-cycle
//! `FullConvolutionMonitor` in `didt-core` is pinned bit for bit to it.
//! The truncated wavelet-domain convolution also lives in `didt-core`.

/// Full linear convolution of two sequences; output length is
/// `a.len() + b.len() - 1`. Empty inputs yield an empty output.
///
/// # Examples
///
/// ```
/// let y = didt_dsp::convolve_full(&[1.0, 2.0], &[1.0, 1.0, 1.0]);
/// assert_eq!(y, vec![1.0, 3.0, 3.0, 2.0]);
/// ```
#[must_use]
pub fn convolve_full(a: &[f64], b: &[f64]) -> Vec<f64> {
    let _span = didt_telemetry::span("dsp.convolve_full");
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Causal FIR filtering: `y[t] = Σ_{k=0}^{K-1} h[k] · x[t-k]`, with
/// `x[t] = 0` for `t < 0`. Output has the same length as the input —
/// exactly the paper's equation 6 applied to a finite impulse response.
///
/// # Examples
///
/// ```
/// // A one-tap unit filter is the identity.
/// let x = [3.0, 1.0, 4.0];
/// assert_eq!(didt_dsp::fir_filter(&x, &[1.0]), x.to_vec());
/// ```
#[must_use]
pub fn fir_filter(x: &[f64], h: &[f64]) -> Vec<f64> {
    let _span = didt_telemetry::span("dsp.fir_filter");
    let mut out = vec![0.0; x.len()];
    for t in 0..x.len() {
        let kmax = h.len().min(t + 1);
        let mut acc = 0.0;
        for k in 0..kmax {
            acc += h[k] * x[t - k];
        }
        out[t] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolution_with_delta_is_identity() {
        let x = [1.0, -2.0, 3.0];
        let y = convolve_full(&x, &[1.0]);
        assert_eq!(y, x.to_vec());
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, -1.0, 2.0, 4.0];
        assert_eq!(convolve_full(&a, &b), convolve_full(&b, &a));
    }

    #[test]
    fn convolution_empty_inputs() {
        assert!(convolve_full(&[], &[1.0]).is_empty());
        assert!(convolve_full(&[1.0], &[]).is_empty());
    }

    #[test]
    fn fir_matches_truncated_full_convolution() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let h = [0.5, 0.25, 0.125, 0.0625];
        let full = convolve_full(&x, &h);
        let fir = fir_filter(&x, &h);
        for t in 0..x.len() {
            assert!((fir[t] - full[t]).abs() < 1e-12);
        }
    }

    #[test]
    fn fir_delayed_delta_shifts() {
        let x = [1.0, 0.0, 0.0, 0.0];
        let h = [0.0, 0.0, 1.0];
        assert_eq!(fir_filter(&x, &h), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn fir_longer_filter_than_signal() {
        let x = [1.0, 1.0];
        let h = [1.0; 10];
        assert_eq!(fir_filter(&x, &h), vec![1.0, 2.0]);
    }

    #[test]
    fn fir_moving_sum() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let h = [1.0, 1.0];
        assert_eq!(fir_filter(&x, &h), vec![1.0, 3.0, 5.0, 7.0]);
    }
}
