//! Lockstep multi-trace batch kernels (struct-of-arrays lanes).
//!
//! The paper's methodology is a characterization *sweep*: the same FIR /
//! DWT / droop kernels evaluated over many independent traces and design
//! points. The per-trace kernels (the FIR filter, the periodic DWT
//! pyramid) were made fast in earlier PRs; this module adds the
//! remaining structural win — processing `L` traces per instruction by
//! laying them out as fixed-width lanes.
//!
//! # Layout
//!
//! A [`TraceBatch<L>`] stores `L` equal-length traces column-major: one
//! `[f64; L]` column per time step, lane `l` of column `t` holding sample
//! `t` of trace `l`. Every kernel walks columns in the *exact* time /
//! tap / level order of its scalar counterpart and applies the identical
//! arithmetic expression to each lane, so **every lane is bit-identical
//! to the scalar kernel run on that lane's trace** — lane 0's contract
//! with the pinned `sim_fingerprints` / golden suites is the documented
//! floor, and the batch property tests hold all lanes to it.
//!
//! # Vectorisation
//!
//! The kernels are plain loops over `[f64; L]` columns, which the
//! compiler vectorises on any target (SSE2 gives two lanes per op on
//! x86-64). Callers choose `L` at compile time and run any ragged
//! remainder through the scalar kernels themselves. The arithmetic
//! never fuses a multiply with an add, because fused rounding would
//! break lane bit-identity with the scalar mul-then-add expressions.

use crate::transform::clamp_levels;
use crate::wavelet::WaveletFamily;
use crate::DspError;

// ---------------------------------------------------------------------------
// TraceBatch
// ---------------------------------------------------------------------------

/// `L` equal-length traces in struct-of-arrays layout: `cols[t][lane]`
/// is sample `t` of trace `lane`. Lanes beyond [`TraceBatch::lanes`]
/// are zero-filled padding (the ragged-tail case packs fewer traces
/// than columns have room for).
///
/// # Examples
///
/// ```
/// use didt_dsp::batch::TraceBatch;
///
/// let a = [1.0, 2.0, 3.0];
/// let b = [4.0, 5.0, 6.0];
/// let batch = TraceBatch::<4>::from_traces(&[&a, &b]).unwrap();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.lanes(), 2);
/// assert_eq!(batch.lane(1), vec![4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBatch<const L: usize> {
    cols: Vec<[f64; L]>,
    lanes: usize,
}

impl<const L: usize> TraceBatch<L> {
    /// Pack up to `L` equal-length traces into lanes (remaining lanes
    /// zero-filled).
    ///
    /// # Errors
    ///
    /// [`DspError::EmptySignal`] when no traces (or empty traces) are
    /// supplied; [`DspError::BadLength`] when lengths differ or more
    /// than `L` traces are passed.
    pub fn from_traces(traces: &[&[f64]]) -> Result<Self, DspError> {
        if traces.is_empty() || traces[0].is_empty() {
            return Err(DspError::EmptySignal);
        }
        if traces.len() > L {
            return Err(DspError::BadLength {
                len: traces.len(),
                requirement: "more traces than batch lanes",
            });
        }
        let n = traces[0].len();
        if traces.iter().any(|t| t.len() != n) {
            return Err(DspError::BadLength {
                len: n,
                requirement: "batched traces must share one length",
            });
        }
        let mut cols = vec![[0.0; L]; n];
        for (lane, trace) in traces.iter().enumerate() {
            for (col, &x) in cols.iter_mut().zip(trace.iter()) {
                col[lane] = x;
            }
        }
        Ok(TraceBatch {
            cols,
            lanes: traces.len(),
        })
    }

    /// Number of time steps (columns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` when the batch holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Number of occupied lanes (`<= L`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The SoA columns.
    #[must_use]
    pub fn columns(&self) -> &[[f64; L]] {
        &self.cols
    }

    /// Extract one lane as a contiguous trace.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= L`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> Vec<f64> {
        assert!(lane < L, "lane {lane} out of {L}");
        self.cols.iter().map(|c| c[lane]).collect()
    }
}

// ---------------------------------------------------------------------------
// Batched periodic DWT pyramid
// ---------------------------------------------------------------------------

/// Reusable working storage for [`dwt_into_batch`].
#[derive(Debug, Clone, Default)]
pub struct BatchDwtScratch<const L: usize> {
    buf: Vec<[f64; L]>,
}

impl<const L: usize> BatchDwtScratch<L> {
    /// An empty scratch buffer (grows to fit on first use).
    #[must_use]
    pub fn new() -> Self {
        BatchDwtScratch { buf: Vec::new() }
    }
}

/// Lane-parallel periodic wavelet decomposition: `details[0]` is level 1
/// (finest), columns share the [`TraceBatch`] lane layout.
#[derive(Debug, Clone, Default)]
pub struct BatchDecomposition<const L: usize> {
    approx: Vec<[f64; L]>,
    details: Vec<Vec<[f64; L]>>,
    signal_len: usize,
    lanes: usize,
}

impl<const L: usize> BatchDecomposition<L> {
    /// An empty decomposition to pass to [`dwt_into_batch`].
    #[must_use]
    pub fn empty() -> Self {
        BatchDecomposition::default()
    }

    /// Number of decomposition levels held.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Original signal length.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Occupied lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Final approximation columns.
    #[must_use]
    pub fn approximation(&self) -> &[[f64; L]] {
        &self.approx
    }

    /// Detail columns of `level` (1 = finest).
    ///
    /// # Errors
    ///
    /// [`DspError::BadLevel`] out of range.
    pub fn detail(&self, level: usize) -> Result<&[[f64; L]], DspError> {
        if level == 0 || level > self.details.len() {
            return Err(DspError::BadLevel {
                level,
                available: self.details.len(),
            });
        }
        Ok(&self.details[level - 1])
    }

    /// Extract one lane's detail row as a contiguous vector (test and
    /// interop helper; hot paths read the columns directly).
    ///
    /// # Errors
    ///
    /// [`DspError::BadLevel`] out of range.
    pub fn detail_lane(&self, level: usize, lane: usize) -> Result<Vec<f64>, DspError> {
        Ok(self.detail(level)?.iter().map(|c| c[lane]).collect())
    }
}

/// Lane-parallel periodic DWT pyramid — the batch counterpart of
/// [`crate::dwt_boundary_into`] restricted to [`Periodic`] boundary
/// handling (the paper's convention and the characterization hot path).
/// Levels deeper than the dyadic depth are clamped exactly as the
/// scalar engine clamps them (same telemetry counter); every lane of
/// the result is bit-identical to the scalar pyramid on that lane.
///
/// [`Periodic`]: crate::BoundaryMode::Periodic
///
/// # Errors
///
/// The conditions of [`crate::dwt_boundary_into`] for periodic mode:
/// empty signal, zero levels, length not divisible by `2^levels`, or a
/// pyramid step shorter than the filter.
pub fn dwt_into_batch<const L: usize>(
    signal: &TraceBatch<L>,
    family: WaveletFamily,
    levels: usize,
    scratch: &mut BatchDwtScratch<L>,
    out: &mut BatchDecomposition<L>,
) -> Result<usize, DspError> {
    let _span = didt_telemetry::span("dsp.batch.dwt");
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if levels == 0 {
        return Err(DspError::ZeroLevels);
    }
    let levels = clamp_levels(signal.len(), levels);
    if !signal.len().is_multiple_of(1usize << levels) {
        return Err(DspError::BadLength {
            len: signal.len(),
            requirement: "length must be divisible by 2^levels",
        });
    }
    let h = family.lowpass();
    let g = family.highpass();
    out.signal_len = signal.len();
    out.lanes = signal.lanes();
    out.details.truncate(levels);
    out.details.resize(levels, Vec::new());

    let approx = &mut scratch.buf;
    approx.clear();
    approx.extend_from_slice(signal.columns());
    let mut next_a: Vec<[f64; L]> = std::mem::take(&mut out.approx);
    for level in 0..levels {
        let n = approx.len();
        if n < h.len() {
            out.approx = next_a;
            return Err(DspError::BadLength {
                len: signal.len(),
                requirement: "pyramid step shorter than filter; reduce levels",
            });
        }
        let half = n / 2;
        let d = &mut out.details[level];
        d.clear();
        d.resize(half, [0.0; L]);
        next_a.clear();
        next_a.resize(half, [0.0; L]);
        pyramid_level(approx, h, g, next_a.as_mut_slice(), d.as_mut_slice());
        std::mem::swap(approx, &mut next_a);
    }
    // The loop leaves the final approximation in `approx` (the scratch);
    // move it out and keep the previous buffer as scratch for reuse.
    std::mem::swap(approx, &mut next_a);
    out.approx = next_a;
    Ok(levels)
}

/// One periodic pyramid level over all lanes:
/// `sa += h[m]·a[(2k+m) % n]`, `sd += g[m]·a[(2k+m) % n]`, accumulated
/// in the scalar kernel's `m`-then-`k` equivalent order (tap-major here;
/// per-lane sums are associatively identical because each output column
/// accumulates taps in ascending `m` exactly once either way).
fn pyramid_level<const L: usize>(
    a: &[[f64; L]],
    h: &[f64],
    g: &[f64],
    sa: &mut [[f64; L]],
    sd: &mut [[f64; L]],
) {
    let n = a.len();
    let half = sa.len();
    for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
        for k in 0..half {
            let idx = (2 * k + m) % n;
            let av = &a[idx];
            for l in 0..L {
                sa[k][l] += hm * av[l];
                sd[k][l] += gm * av[l];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batched window statistics (the χ²/streaming-variance moment pass)
// ---------------------------------------------------------------------------

/// Per-lane mean of SoA columns, accumulated in time order (bit-identical
/// per lane to `didt_stats::mean` on that lane's trace).
#[must_use]
pub fn mean_batch<const L: usize>(cols: &[[f64; L]]) -> [f64; L] {
    if cols.is_empty() {
        return [0.0; L];
    }
    let mut sum = [0.0f64; L];
    for c in cols {
        for l in 0..L {
            sum[l] += c[l];
        }
    }
    let n = cols.len() as f64;
    let mut out = [0.0; L];
    for l in 0..L {
        out[l] = sum[l] / n;
    }
    out
}

/// Per-lane population variance of SoA columns (bit-identical per lane
/// to `didt_stats::variance`, which divides by `n`).
#[must_use]
pub fn variance_batch<const L: usize>(cols: &[[f64; L]]) -> [f64; L] {
    if cols.is_empty() {
        return [0.0; L];
    }
    let m = mean_batch(cols);
    let mut acc = [0.0f64; L];
    for c in cols {
        for l in 0..L {
            let d = c[l] - m[l];
            acc[l] += d * d;
        }
    }
    let n = cols.len() as f64;
    let mut out = [0.0; L];
    for l in 0..L {
        out[l] = acc[l] / n;
    }
    out
}

/// Per-lane lag-1 autocorrelation of SoA columns, mirroring
/// `didt_stats::lag_correlation` (clamped to `[-1, 1]`; lanes with a
/// non-positive centered energy report 0). Rows shorter than 3 columns
/// report 0 in every lane, matching the scalar call sites' guard.
#[must_use]
pub fn lag1_correlation_batch<const L: usize>(cols: &[[f64; L]]) -> [f64; L] {
    if cols.len() < 3 {
        return [0.0; L];
    }
    let m = mean_batch(cols);
    let mut num = [0.0f64; L];
    for i in 0..cols.len() - 1 {
        for l in 0..L {
            num[l] += (cols[i][l] - m[l]) * (cols[i + 1][l] - m[l]);
        }
    }
    let mut den = [0.0f64; L];
    for c in cols {
        for l in 0..L {
            let d = c[l] - m[l];
            den[l] += d * d;
        }
    }
    let mut out = [0.0; L];
    for l in 0..L {
        out[l] = if den[l] <= 0.0 {
            0.0
        } else {
            (num[l] / den[l]).clamp(-1.0, 1.0)
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelet::WaveletFamily;
    use crate::{dwt_boundary_into, BoundaryMode, DwtScratch, WaveletDecomposition};

    fn traces(n: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|t| {
                (0..n)
                    .map(|i| ((i * 7 + t * 13) % 31) as f64 * 0.7 - 5.0 + (i as f64 * 0.1).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn trace_batch_roundtrips_lanes() {
        let ts = traces(33, 3);
        let refs: Vec<&[f64]> = ts.iter().map(Vec::as_slice).collect();
        let b = TraceBatch::<4>::from_traces(&refs).unwrap();
        assert_eq!(b.lanes(), 3);
        for (l, t) in ts.iter().enumerate() {
            assert_eq!(&b.lane(l), t);
        }
        // Padding lane is zero.
        assert!(b.lane(3).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn trace_batch_rejects_bad_shapes() {
        assert_eq!(
            TraceBatch::<4>::from_traces(&[]),
            Err(DspError::EmptySignal)
        );
        let a = [1.0, 2.0];
        let b = [1.0];
        assert!(TraceBatch::<4>::from_traces(&[&a, &b]).is_err());
        assert!(TraceBatch::<1>::from_traces(&[&a, &a]).is_err());
    }

    #[test]
    fn dwt_batch_matches_scalar_bitwise_all_lanes() {
        let ts = traces(256, 4);
        let refs: Vec<&[f64]> = ts.iter().map(Vec::as_slice).collect();
        let b = TraceBatch::<4>::from_traces(&refs).unwrap();
        for family in [WaveletFamily::Haar, WaveletFamily::Db3] {
            let mut bs = BatchDwtScratch::new();
            let mut bd = BatchDecomposition::empty();
            let levels = dwt_into_batch(&b, family, 5, &mut bs, &mut bd).unwrap();
            assert_eq!(levels, 5);
            let mut scratch = DwtScratch::new();
            let mut decomp = WaveletDecomposition::empty();
            for (l, t) in ts.iter().enumerate() {
                dwt_boundary_into(
                    t,
                    family,
                    5,
                    BoundaryMode::Periodic,
                    &mut scratch,
                    &mut decomp,
                )
                .unwrap();
                for level in 1..=5 {
                    let want = decomp.detail(level).unwrap();
                    let got = bd.detail_lane(level, l).unwrap();
                    assert!(
                        want.iter()
                            .zip(&got)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{} level {level} lane {l}",
                        family.name()
                    );
                }
                let approx_got: Vec<f64> = bd.approximation().iter().map(|c| c[l]).collect();
                assert!(
                    decomp
                        .approximation()
                        .iter()
                        .zip(&approx_got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} approx lane {l}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn dwt_batch_scratch_reuse_is_stable() {
        let ts = traces(64, 2);
        let refs: Vec<&[f64]> = ts.iter().map(Vec::as_slice).collect();
        let b = TraceBatch::<4>::from_traces(&refs).unwrap();
        let mut bs = BatchDwtScratch::new();
        let mut bd = BatchDecomposition::empty();
        dwt_into_batch(&b, WaveletFamily::Haar, 3, &mut bs, &mut bd).unwrap();
        let first: Vec<Vec<[f64; 4]>> = bd.details.clone();
        dwt_into_batch(&b, WaveletFamily::Haar, 3, &mut bs, &mut bd).unwrap();
        assert_eq!(first, bd.details);
    }

    #[test]
    fn dwt_batch_propagates_scalar_errors() {
        let ts = traces(20, 1);
        let refs: Vec<&[f64]> = ts.iter().map(Vec::as_slice).collect();
        let b = TraceBatch::<4>::from_traces(&refs).unwrap();
        let mut bs = BatchDwtScratch::new();
        let mut bd = BatchDecomposition::empty();
        // 20 is not divisible by 2^3.
        assert!(dwt_into_batch(&b, WaveletFamily::Haar, 3, &mut bs, &mut bd).is_err());
        assert!(matches!(
            dwt_into_batch(&b, WaveletFamily::Haar, 0, &mut bs, &mut bd),
            Err(DspError::ZeroLevels)
        ));
    }

    #[test]
    fn window_stats_match_scalar_bitwise() {
        let ts = traces(256, 4);
        let refs: Vec<&[f64]> = ts.iter().map(Vec::as_slice).collect();
        let b = TraceBatch::<4>::from_traces(&refs).unwrap();
        let m = mean_batch(b.columns());
        let v = variance_batch(b.columns());
        let r = lag1_correlation_batch(b.columns());
        for (l, t) in ts.iter().enumerate() {
            assert_eq!(m[l].to_bits(), didt_stats::mean(t).to_bits(), "mean {l}");
            assert_eq!(
                v[l].to_bits(),
                didt_stats::variance(t).to_bits(),
                "variance {l}"
            );
            assert_eq!(
                r[l].to_bits(),
                didt_stats::lag_correlation(t).unwrap().to_bits(),
                "lag1 {l}"
            );
        }
    }

    #[test]
    fn lag1_batch_handles_degenerate_lanes() {
        let flat = [5.0; 16];
        let ramp: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let b = TraceBatch::<4>::from_traces(&[&flat, &ramp]).unwrap();
        let r = lag1_correlation_batch(b.columns());
        assert_eq!(r[0], 0.0);
        assert!(r[1] > 0.5);
        assert_eq!(lag1_correlation_batch::<4>(&[[1.0; 4]; 2]), [0.0; 4]);
    }
}
