//! Convolution primitives: reference kernels and the tiered fast engine.
//!
//! Paper equation 6 computes supply voltage as the convolution of the
//! current trace with the PDN's impulse response:
//! `v[t] = Σ_k i[t-k] · h[k]`. This is the hottest kernel of the whole
//! repository — every offline characterization pass filters a long
//! current trace through a hundreds-of-taps impulse response — so it is
//! served by a three-tier engine:
//!
//! 1. **Reference tier** — [`convolve_full`] / [`fir_filter`]: the
//!    plain O(N·K) double loops. These define the semantics; everything
//!    else must agree with them (the property tests pin equivalence).
//! 2. **Blocked time-domain tier** — [`fir_filter_time`]: the same
//!    arithmetic arranged as cache-blocked, 4-way-unrolled tap spans so
//!    the compiler can vectorize. Wins for short filters.
//! 3. **FFT tier** — [`convolve_fft`] / [`fir_filter_fast`] /
//!    [`ConvScratch`]: overlap-save convolution on the planned radix-2
//!    FFT ([`crate::FftPlan`]), O(N log K). The kernel spectrum is
//!    computed once per [`ConvScratch`] and reused across every block
//!    and every call, so sweeps amortize setup across grid points.
//!
//! [`fir_filter_auto`] dispatches between tiers 2 and 3 from an (N, K)
//! crossover measured once per process (override with the
//! `DIDT_CONV_CROSSOVER` environment variable); dispatch decisions are
//! counted in the global metrics registry (`dsp.fir_auto.time_domain` /
//! `dsp.fir_auto.fft`) so run manifests record which kernel served each
//! sweep. The truncated wavelet-domain convolution lives in `didt-core`.

use crate::fourier::{Complex, FftPlan};
use std::sync::OnceLock;

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
/// This is the O(N·K) reference; use [`fir_filter_auto`] on hot paths.
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

/// Output-block width of the blocked time-domain kernel: big enough to
/// amortize the tap loop, small enough that the output block plus the
/// (block + taps)-wide input window it reads stay cache-resident.
const TIME_BLOCK: usize = 2048;

/// Cache-blocked, 4-way-unrolled time-domain FIR filter. Identical
/// semantics to [`fir_filter`] (same-length output, zero pre-history);
/// sums are reassociated for vectorization, so results agree to
/// round-off rather than bitwise.
#[must_use]
pub fn fir_filter_time(x: &[f64], h: &[f64]) -> Vec<f64> {
    let _span = didt_telemetry::span("dsp.fir_time");
    let n = x.len();
    let k = h.len();
    let mut out = vec![0.0; n];
    // Prologue (t < k-1, where x[t-j] would underflow): reference loop.
    let steady = (k - 1).min(n) * usize::from(k > 1);
    for (t, o) in out.iter_mut().enumerate().take(steady) {
        let mut acc = 0.0;
        for j in 0..=t {
            acc += h[j] * x[t - j];
        }
        *o = acc;
    }
    // Steady state: every tap in range. Block over outputs; within a
    // block, apply taps four at a time as shifted-slice AXPYs.
    let mut t0 = steady;
    while t0 < n {
        let t1 = (t0 + TIME_BLOCK).min(n);
        let width = t1 - t0;
        let (head, tail) = out.split_at_mut(t0);
        let _ = head;
        let ob = &mut tail[..width];
        let mut j = 0;
        while j + 4 <= k {
            let (h0, h1, h2, h3) = (h[j], h[j + 1], h[j + 2], h[j + 3]);
            let x0 = &x[t0 - j..t1 - j];
            let x1 = &x[t0 - j - 1..t1 - j - 1];
            let x2 = &x[t0 - j - 2..t1 - j - 2];
            let x3 = &x[t0 - j - 3..t1 - j - 3];
            for i in 0..width {
                ob[i] += h0 * x0[i] + h1 * x1[i] + h2 * x2[i] + h3 * x3[i];
            }
            j += 4;
        }
        while j < k {
            let hj = h[j];
            let xs = &x[t0 - j..t1 - j];
            for i in 0..width {
                ob[i] += hj * xs[i];
            }
            j += 1;
        }
        t0 = t1;
    }
    out
}

/// Reusable overlap-save state for filtering many signals through one
/// impulse response: the FFT plan (twiddles), the frequency-domain
/// kernel (computed **once**, pre-scaled by `1/nfft` so blocks skip
/// the inverse-FFT normalization), and the padded block buffer.
///
/// Building the scratch costs one FFT; every subsequent
/// [`ConvScratch::apply`] runs at O(N log K) with zero allocation
/// beyond its output vector. Sweeps that filter hundreds of traces
/// through the same PDN impulse response should build one scratch per
/// impulse response and reuse it across grid points.
///
/// # Examples
///
/// ```
/// let h = [0.5, 0.25, 0.125];
/// let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut scratch = didt_dsp::ConvScratch::new(&h);
/// let fast = scratch.apply(&x);
/// let reference = didt_dsp::fir_filter(&x, &h);
/// for (a, b) in fast.iter().zip(&reference) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ConvScratch {
    plan: FftPlan,
    kernel_len: usize,
    /// `FFT(h padded to nfft) / nfft`.
    kernel_spec: Vec<Complex>,
    /// Per-block working buffer (`nfft` complex samples).
    block: Vec<Complex>,
}

impl ConvScratch {
    /// Build overlap-save state for the impulse response `h`, sizing
    /// the FFT for long inputs (the common sweep case).
    ///
    /// # Panics
    ///
    /// Panics if `h` is empty.
    #[must_use]
    pub fn new(h: &[f64]) -> Self {
        ConvScratch::with_signal_hint(h, usize::MAX)
    }

    /// Like [`ConvScratch::new`], but caps the FFT size for signals
    /// known to be at most `signal_len` samples, so short one-shot
    /// convolutions don't pay for an oversized transform.
    ///
    /// # Panics
    ///
    /// Panics if `h` is empty.
    #[must_use]
    pub fn with_signal_hint(h: &[f64], signal_len: usize) -> Self {
        assert!(!h.is_empty(), "impulse response must be nonempty");
        let k = h.len();
        // ~8 output samples per kernel tap keeps the per-sample FFT
        // cost near its minimum; never below 256 so tiny kernels still
        // batch, never beyond what one block of the whole signal needs.
        let ideal = (8 * k).next_power_of_two().max(256);
        let whole = signal_len
            .saturating_add(k - 1)
            .checked_next_power_of_two()
            .unwrap_or(usize::MAX)
            .max(2 * k.next_power_of_two());
        let nfft = ideal.min(whole);
        let plan = FftPlan::new(nfft).expect("nfft is a power of two");
        let mut kernel_spec: Vec<Complex> = h
            .iter()
            .map(|&v| Complex::new(v, 0.0))
            .chain(std::iter::repeat(Complex::default()))
            .take(nfft)
            .collect();
        plan.forward(&mut kernel_spec);
        let scale = 1.0 / nfft as f64;
        for z in &mut kernel_spec {
            *z = *z * scale;
        }
        ConvScratch {
            plan,
            kernel_len: k,
            kernel_spec,
            block: vec![Complex::default(); nfft],
        }
    }

    /// The planned FFT length.
    #[must_use]
    pub fn fft_len(&self) -> usize {
        self.plan.len()
    }

    /// Taps of the impulse response this scratch was planned for.
    #[must_use]
    pub fn kernel_len(&self) -> usize {
        self.kernel_len
    }

    /// Causal FIR filtering of `x` (same semantics as [`fir_filter`]):
    /// output has `x.len()` samples.
    #[must_use]
    pub fn apply(&mut self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.apply_into(x, &mut out);
        out
    }

    /// [`ConvScratch::apply`] into a caller-provided buffer
    /// (`out.len() == x.len()`), for alloc-free streaming use.
    ///
    /// # Panics
    ///
    /// Panics when the buffer lengths differ.
    pub fn apply_into(&mut self, x: &[f64], out: &mut [f64]) {
        let _span = didt_telemetry::span("dsp.fir_fast");
        assert_eq!(x.len(), out.len(), "output length must match input");
        let n = x.len();
        if n == 0 {
            return;
        }
        let nfft = self.plan.len();
        let k = self.kernel_len;
        let step = nfft - (k - 1); // valid outputs per block
        let mut start = 0;
        while start < n {
            let produced = step.min(n - start);
            // Overlap-save block: k-1 history samples then the new
            // input run, zero-padded to nfft (zero pre-history matches
            // the causal-FIR convention).
            for (i, slot) in self.block.iter_mut().enumerate() {
                let t = start as i64 - (k - 1) as i64 + i as i64;
                let v = if t >= 0 && (t as usize) < n {
                    x[t as usize]
                } else {
                    0.0
                };
                *slot = Complex::new(v, 0.0);
            }
            self.plan.forward(&mut self.block);
            for (z, hk) in self.block.iter_mut().zip(&self.kernel_spec) {
                *z = *z * *hk;
            }
            self.plan.inverse_unscaled(&mut self.block);
            for i in 0..produced {
                out[start + i] = self.block[k - 1 + i].re;
            }
            start += produced;
        }
    }
}

/// Full linear convolution via FFT: identical output shape to
/// [`convolve_full`] (`a.len() + b.len() - 1` samples), O((N+K) log K).
/// Agrees with the reference to round-off (~1e-12 for unit-scale
/// inputs), not bitwise.
///
/// # Examples
///
/// ```
/// let a = [1.0, 2.0];
/// let b = [1.0, 1.0, 1.0];
/// let fast = didt_dsp::convolve_fft(&a, &b);
/// let full = didt_dsp::convolve_full(&a, &b);
/// for (x, y) in fast.iter().zip(&full) {
///     assert!((x - y).abs() < 1e-12);
/// }
/// ```
#[must_use]
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    let _span = didt_telemetry::span("dsp.convolve_fft");
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    // The shorter sequence is the kernel; full convolution is causal
    // FIR filtering of the longer one extended by K-1 trailing zeros.
    let (x, h) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let out_len = x.len() + h.len() - 1;
    let mut padded = Vec::with_capacity(out_len);
    padded.extend_from_slice(x);
    padded.resize(out_len, 0.0);
    let mut scratch = ConvScratch::with_signal_hint(h, out_len);
    scratch.apply(&padded)
}

/// One-shot FFT FIR filtering (see [`fir_filter`] for semantics):
/// builds a [`ConvScratch`] for `h` and applies it. Prefer holding a
/// scratch when filtering repeatedly through the same response.
///
/// # Panics
///
/// Panics if `h` is empty.
#[must_use]
pub fn fir_filter_fast(x: &[f64], h: &[f64]) -> Vec<f64> {
    let mut scratch = ConvScratch::with_signal_hint(h, x.len());
    scratch.apply(x)
}

/// The tap-count crossover used by [`fir_filter_auto`]: filters with
/// more taps than this go to the FFT tier. Measured once per process
/// (see [`measure_crossover`]); `DIDT_CONV_CROSSOVER=<taps>` overrides
/// the measurement with a fixed value.
#[must_use]
pub fn conv_crossover_taps() -> usize {
    static CROSSOVER: OnceLock<usize> = OnceLock::new();
    *CROSSOVER.get_or_init(|| {
        if let Some(forced) = std::env::var("DIDT_CONV_CROSSOVER")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return forced.max(1);
        }
        measure_crossover()
    })
}

/// Candidate tap counts probed by [`measure_crossover`].
const CROSSOVER_PROBES: [usize; 5] = [16, 32, 64, 128, 256];
/// Signal length of the crossover probe: long enough that per-call
/// setup is amortized the way sweep workloads amortize it.
const CROSSOVER_PROBE_N: usize = 8192;
/// Fallback when the FFT tier never wins on this machine's probes.
const CROSSOVER_FALLBACK: usize = 512;

/// Measure the time-domain/FFT crossover on this machine: filter a
/// fixed 8192-sample probe through geometrically spaced tap counts with
/// both tiers and return the first tap count where the FFT tier wins.
/// Costs a few milliseconds; [`conv_crossover_taps`] caches the result
/// for the process lifetime.
#[must_use]
pub fn measure_crossover() -> usize {
    let x: Vec<f64> = (0..CROSSOVER_PROBE_N)
        .map(|i| (i as f64 * 0.37).sin() * 20.0 + 40.0)
        .collect();
    for k in CROSSOVER_PROBES {
        let h: Vec<f64> = (0..k).map(|i| 0.9f64.powi(i as i32)).collect();
        let t0 = std::time::Instant::now();
        std::hint::black_box(fir_filter_time(&x, &h));
        let time_domain = t0.elapsed();
        let t1 = std::time::Instant::now();
        std::hint::black_box(fir_filter_fast(&x, &h));
        let fft = t1.elapsed();
        if fft < time_domain {
            return k;
        }
    }
    CROSSOVER_FALLBACK
}

/// Auto-dispatched FIR filter: same semantics as [`fir_filter`], tier
/// chosen from the measured (N, K) crossover. Short filters (or inputs
/// too short to amortize an FFT plan) run the blocked time-domain
/// kernel; long filters over long inputs run overlap-save. Either way
/// the result agrees with [`fir_filter`] to round-off (the property
/// tests pin ≤1e-9 for unit-scale inputs).
///
/// Each call increments `dsp.fir_auto.time_domain` or
/// `dsp.fir_auto.fft` in the global metrics registry, so manifests
/// record which kernel served a sweep.
#[must_use]
pub fn fir_filter_auto(x: &[f64], h: &[f64]) -> Vec<f64> {
    let metrics = didt_telemetry::MetricsRegistry::global();
    // The FFT tier needs enough output per block to beat the plan +
    // kernel-spectrum setup; 4·K input samples is a conservative floor.
    if h.len() > conv_crossover_taps() && x.len() >= 4 * h.len() {
        metrics.counter("dsp.fir_auto.fft").incr();
        fir_filter_fast(x, h)
    } else {
        metrics.counter("dsp.fir_auto.time_domain").incr();
        fir_filter_time(x, h)
    }
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
        assert!(convolve_fft(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
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

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn time_tier_matches_reference_across_shapes() {
        for (n, k) in [(1, 1), (5, 3), (64, 4), (100, 7), (257, 33), (1000, 130)] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 113) as f64) - 50.0).collect();
            let h: Vec<f64> = (0..k)
                .map(|i| ((i * 17 % 29) as f64 - 14.0) / 8.0)
                .collect();
            assert_close(
                &fir_filter_time(&x, &h),
                &fir_filter(&x, &h),
                1e-9,
                &format!("time n={n} k={k}"),
            );
        }
    }

    #[test]
    fn time_tier_filter_longer_than_signal() {
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let h = [1.0; 10];
        assert_close(&fir_filter_time(&x, &h), &fir_filter(&x, &h), 1e-12, "k>n");
    }

    #[test]
    fn fft_tier_matches_reference_across_shapes() {
        for (n, k) in [
            (1, 1),
            (7, 3),
            (64, 64),
            (300, 41),
            (1000, 513),
            (4096, 100),
        ] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() * 30.0).collect();
            let h: Vec<f64> = (0..k).map(|i| 0.95f64.powi(i) * 0.01).collect();
            assert_close(
                &fir_filter_fast(&x, &h),
                &fir_filter(&x, &h),
                1e-9,
                &format!("fft n={n} k={k}"),
            );
        }
    }

    #[test]
    fn scratch_reuse_is_consistent() {
        let h: Vec<f64> = (0..37).map(|i| 0.9f64.powi(i)).collect();
        let mut scratch = ConvScratch::new(&h);
        for n in [10usize, 500, 1000] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            assert_close(
                &scratch.apply(&x),
                &fir_filter(&x, &h),
                1e-9,
                &format!("reuse n={n}"),
            );
        }
    }

    #[test]
    fn scratch_apply_into_matches_apply() {
        let h = [0.3, -0.2, 0.1, 0.05];
        let x: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let mut s1 = ConvScratch::new(&h);
        let mut s2 = ConvScratch::new(&h);
        let a = s1.apply(&x);
        let mut b = vec![0.0; x.len()];
        s2.apply_into(&x, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn convolve_fft_matches_full() {
        for (na, nb) in [(1, 1), (2, 3), (20, 20), (100, 13), (13, 100), (333, 40)] {
            let a: Vec<f64> = (0..na).map(|i| ((i * 7 % 11) as f64) - 3.0).collect();
            let b: Vec<f64> = (0..nb).map(|i| ((i * 13 % 17) as f64) / 5.0).collect();
            assert_close(
                &convolve_fft(&a, &b),
                &convolve_full(&a, &b),
                1e-9,
                &format!("conv {na}x{nb}"),
            );
        }
    }

    /// Held by every test here that calls [`fir_filter_auto`], so the
    /// dispatch-count test sees only its own calls on the process-global
    /// counters.
    static AUTO_DISPATCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn auto_tier_matches_reference_and_counts_dispatch() {
        let _serial = AUTO_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
        let metrics = didt_telemetry::MetricsRegistry::global();
        let td_before = metrics.counter("dsp.fir_auto.time_domain").get();
        let fft_before = metrics.counter("dsp.fir_auto.fft").get();
        // Short filter: time-domain tier.
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.2).sin()).collect();
        assert_close(
            &fir_filter_auto(&x, &[0.5, 0.25]),
            &fir_filter(&x, &[0.5, 0.25]),
            1e-9,
            "auto short",
        );
        // Long filter over a long input: FFT tier (crossover ≤ 512 even
        // on the fallback path... the probe may keep it time-domain on
        // odd machines, so only the sum is asserted).
        let h: Vec<f64> = (0..600).map(|i| 0.99f64.powi(i) * 0.001).collect();
        let long: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.05).cos() * 10.0).collect();
        assert_close(
            &fir_filter_auto(&long, &h),
            &fir_filter(&long, &h),
            1e-9,
            "auto long",
        );
        let td_after = metrics.counter("dsp.fir_auto.time_domain").get();
        let fft_after = metrics.counter("dsp.fir_auto.fft").get();
        assert_eq!((td_after - td_before) + (fft_after - fft_before), 2);
    }

    #[test]
    fn crossover_is_cached_and_positive() {
        let a = conv_crossover_taps();
        let b = conv_crossover_taps();
        assert_eq!(a, b);
        assert!(a >= 1);
    }

    #[test]
    fn impulse_through_every_tier_is_identity() {
        let _serial = AUTO_DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
        let mut x = vec![0.0; 777];
        x[0] = 1.0;
        x[300] = -2.5;
        for f in [
            fir_filter,
            fir_filter_time,
            fir_filter_fast,
            fir_filter_auto,
        ] {
            let y = f(&x, &[1.0]);
            assert_close(&y, &x, 1e-12, "identity");
        }
    }
}
