//! The fast discrete wavelet transform and its inverse.
//!
//! Implements the `O(N)` pyramid algorithm (Mallat) with periodic boundary
//! handling and orthonormal filters, the "fast wavelet transform" the
//! paper relies on for computational efficiency (§2.1). The result is a
//! [`WaveletDecomposition`] — the coefficient matrix of the paper's
//! Figure 2: one approximation row plus one detail row per time scale.
//!
//! # Conventions
//!
//! * Detail level **1 is the finest** time scale (2-cycle features for
//!   Haar); level `L` is the coarsest. The paper indexes scales with `j`
//!   growing finer; our `level` grows coarser, matching the pyramid's
//!   iteration order. [`WaveletDecomposition::detail`] documents the map.
//! * Filters are orthonormal, so Parseval's relation holds exactly:
//!   signal energy equals total coefficient energy (verified by tests and
//!   exploited by [`crate::variance`]).
//!
//! # Boundary handling
//!
//! [`dwt`]/[`dwt_into`] keep the legacy **periodic** wrap: orthonormal,
//! non-expansive, but restricted to lengths divisible by `2^levels`.
//! [`dwt_boundary`]/[`dwt_boundary_into`] accept a [`BoundaryMode`]
//! selecting one of the three finite-signal extension operators
//! (zero-pad, symmetric reflection, zeroth-order hold). Those modes are
//! *expansive* — each pyramid step emits `(n−1)/2 + L/2` coefficients per
//! subband for an `n`-sample input and `L`-tap filter, every coefficient
//! whose filter support overlaps the signal — which is what makes them
//! work for **any** length, power of two or not, down to a single
//! sample. Synthesis drops the contributions that land outside the
//! original extent, which reconstructs exactly for every mode; Parseval
//! equality additionally holds for `Periodic` and `ZeroPad` (the modes
//! whose coefficients form an orthonormal expansion of the signal
//! itself), while `Symmetric`/`ZerothOrder` coefficients carry at least
//! the signal energy plus whatever the edge extension added.

use crate::wavelet::WaveletFamily;
use crate::DspError;
use didt_telemetry::{Counter, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// How the transform treats samples past the ends of a finite signal —
/// the three extension operators of the paper's design-tool lineage
/// (SNIPPETS.md, `waveletDesign.m`) plus the crate's legacy periodic
/// wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundaryMode {
    /// Circular wrap (the legacy behavior of [`dwt`]): `x[i mod n]`.
    /// Non-expansive and exactly orthonormal, but the signal length must
    /// be divisible by `2^levels` and each pyramid step must be at least
    /// as long as the filter.
    #[default]
    Periodic,
    /// Samples outside the signal read as zero. Expansive; Parseval
    /// equality still holds exactly (coefficients of translates that miss
    /// the signal are zero, so nothing is lost).
    ZeroPad,
    /// Half-sample symmetric reflection `… x1 x0 | x0 x1 …`, folded as
    /// often as needed for supports longer than the signal. Expansive;
    /// avoids the artificial edge discontinuity of zero padding.
    Symmetric,
    /// Zeroth-order hold: the edge samples repeat outward. Expansive;
    /// the natural choice for current traces that idle at a steady level
    /// before and after the captured window.
    ZerothOrder,
}

impl BoundaryMode {
    /// Every mode, legacy periodic first.
    pub const ALL: [BoundaryMode; 4] = [
        BoundaryMode::Periodic,
        BoundaryMode::ZeroPad,
        BoundaryMode::Symmetric,
        BoundaryMode::ZerothOrder,
    ];

    /// The three expansive extension operators (everything but the
    /// legacy periodic wrap).
    pub const EXTENSIONS: [BoundaryMode; 3] = [
        BoundaryMode::ZeroPad,
        BoundaryMode::Symmetric,
        BoundaryMode::ZerothOrder,
    ];

    /// Short stable name (used by manifests and the wire protocol).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BoundaryMode::Periodic => "periodic",
            BoundaryMode::ZeroPad => "zero-pad",
            BoundaryMode::Symmetric => "symmetric",
            BoundaryMode::ZerothOrder => "zeroth-order",
        }
    }

    /// Parse a mode from its [`Self::name`] string.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "periodic" => Some(BoundaryMode::Periodic),
            "zero-pad" => Some(BoundaryMode::ZeroPad),
            "symmetric" => Some(BoundaryMode::Symmetric),
            "zeroth-order" => Some(BoundaryMode::ZerothOrder),
            _ => None,
        }
    }
}

/// Read `x[i]` through a boundary extension (callers guarantee
/// `x` is non-empty).
#[inline]
fn extend(x: &[f64], i: isize, mode: BoundaryMode) -> f64 {
    let n = x.len() as isize;
    if (0..n).contains(&i) {
        return x[i as usize];
    }
    match mode {
        BoundaryMode::Periodic => x[i.rem_euclid(n) as usize],
        BoundaryMode::ZeroPad => 0.0,
        BoundaryMode::ZerothOrder => {
            if i < 0 {
                x[0]
            } else {
                x[(n - 1) as usize]
            }
        }
        BoundaryMode::Symmetric => {
            // The reflected signal has period 2n; fold once into it.
            let p = i.rem_euclid(2 * n);
            let p = if p < n { p } else { 2 * n - 1 - p };
            x[p as usize]
        }
    }
}

/// A multi-level wavelet decomposition: the coefficient matrix of the
/// paper's Figure 2.
///
/// Create one with [`dwt`]; invert with [`idwt`].
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// let signal: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
/// let d = dwt(&signal, WaveletFamily::Haar, 3)?;
/// assert_eq!(d.levels(), 3);
/// assert_eq!(d.detail(1)?.len(), 8); // finest: half the samples
/// assert_eq!(d.detail(3)?.len(), 2); // coarsest
/// assert_eq!(d.approximation().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletDecomposition {
    approx: Vec<f64>,
    /// `details[0]` is level 1 (finest), `details[levels-1]` coarsest.
    details: Vec<Vec<f64>>,
    signal_len: usize,
    family: WaveletFamily,
    mode: BoundaryMode,
    /// Input length of each pyramid step, finest first. Expansive modes
    /// need these recorded: their level lengths do not follow from
    /// `signal_len` alone, and synthesis must know how much to crop.
    level_input_lens: Vec<usize>,
}

impl Default for WaveletDecomposition {
    fn default() -> Self {
        WaveletDecomposition::empty()
    }
}

impl WaveletDecomposition {
    /// An empty decomposition with no levels, usable as the reusable
    /// output slot of [`dwt_into`] without a priming [`dwt`] call.
    #[must_use]
    pub fn empty() -> Self {
        WaveletDecomposition {
            approx: Vec::new(),
            details: Vec::new(),
            signal_len: 0,
            family: WaveletFamily::Haar,
            mode: BoundaryMode::Periodic,
            level_input_lens: Vec::new(),
        }
    }

    /// Number of detail levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Length of the original signal.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// The wavelet basis this decomposition was computed with.
    #[must_use]
    pub fn family(&self) -> WaveletFamily {
        self.family
    }

    /// The approximation (scaling) coefficients `a[k]` — the coarse row of
    /// the Figure 2 matrix.
    #[must_use]
    pub fn approximation(&self) -> &[f64] {
        &self.approx
    }

    /// Detail coefficients at `level` (1 = finest time scale, up to
    /// [`Self::levels`] = coarsest).
    ///
    /// In the paper's `d[j,k]` notation with `J` total levels, our
    /// `detail(level)` row corresponds to `j = -(level - 1)` relative to
    /// the finest scale: `detail(1)` holds the shortest-duration features.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLevel`] when `level` is 0 or exceeds the
    /// number of levels.
    pub fn detail(&self, level: usize) -> Result<&[f64], DspError> {
        if level == 0 || level > self.details.len() {
            return Err(DspError::BadLevel {
                level,
                available: self.details.len(),
            });
        }
        Ok(&self.details[level - 1])
    }

    /// Mutable access to detail coefficients at `level` (same indexing as
    /// [`Self::detail`]); used to zero subbands for filtering.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLevel`] for an out-of-range level.
    pub fn detail_mut(&mut self, level: usize) -> Result<&mut [f64], DspError> {
        let available = self.details.len();
        if level == 0 || level > available {
            return Err(DspError::BadLevel { level, available });
        }
        Ok(&mut self.details[level - 1])
    }

    /// Mutable access to the approximation coefficients.
    pub fn approximation_mut(&mut self) -> &mut [f64] {
        &mut self.approx
    }

    /// Iterate over detail rows from finest (level 1) to coarsest.
    pub fn detail_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.details.iter().map(Vec::as_slice)
    }

    /// Total energy of all coefficients: `Σ a² + Σ Σ d²`.
    ///
    /// For an orthonormal basis this equals the energy of the original
    /// signal (Parseval).
    #[must_use]
    pub fn energy(&self) -> f64 {
        let ea: f64 = self.approx.iter().map(|x| x * x).sum();
        let ed: f64 = self
            .details
            .iter()
            .flat_map(|row| row.iter())
            .map(|x| x * x)
            .sum();
        ea + ed
    }

    /// Total number of coefficients. Equals the signal length under
    /// [`BoundaryMode::Periodic`]; the expansive modes emit more.
    #[must_use]
    pub fn coefficient_count(&self) -> usize {
        self.approx.len() + self.details.iter().map(Vec::len).sum::<usize>()
    }
}

/// Compute the discrete wavelet transform of `signal` with `levels`
/// pyramid steps.
///
/// Runs in `O(N)` time (each step halves the working length). Periodic
/// boundary extension is used, which preserves orthonormality exactly.
///
/// # Errors
///
/// * [`DspError::EmptySignal`] for an empty input.
/// * [`DspError::ZeroLevels`] when `levels == 0`.
/// * [`DspError::BadLength`] when `signal.len()` is not divisible by
///   `2^levels`, or a pyramid step would be shorter than the filter.
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// // A constant signal has all its energy in the approximation row.
/// let d = dwt(&[3.0; 8], WaveletFamily::Haar, 3)?;
/// assert!(d.detail(1)?.iter().all(|x| x.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub fn dwt(
    signal: &[f64],
    family: WaveletFamily,
    levels: usize,
) -> Result<WaveletDecomposition, DspError> {
    let mut out = WaveletDecomposition::empty();
    let mut scratch = DwtScratch::new();
    dwt_into(signal, family, levels, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable working storage for [`dwt_into`].
///
/// The allocating [`dwt`] builds one `Vec` per pyramid level per call;
/// sweep loops that decompose hundreds of thousands of fixed-size
/// windows (the §4.1 characterization pipeline) instead keep one
/// `DwtScratch` plus one output [`WaveletDecomposition`] and reuse both,
/// making the per-window transform allocation-free after the first call.
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt_into, transform::DwtScratch, WaveletDecomposition, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// let mut scratch = DwtScratch::new();
/// let mut out = WaveletDecomposition::empty();
/// for window in [[1.0; 8], [2.0; 8]] {
///     dwt_into(&window, WaveletFamily::Haar, 3, &mut scratch, &mut out)?;
///     assert_eq!(out.approximation().len(), 1);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DwtScratch {
    buf: Vec<f64>,
}

impl DwtScratch {
    /// An empty scratch buffer (grows to fit on first use).
    #[must_use]
    pub fn new() -> Self {
        DwtScratch::default()
    }
}

/// Compute the DWT of `signal` into an existing decomposition,
/// reusing `out`'s coefficient storage and `scratch`'s working buffer.
///
/// Semantics are identical to [`dwt`]; on success `out` is entirely
/// overwritten (previous contents, family and shape are discarded).
/// On error `out` is left in an unspecified but valid state.
///
/// # Errors
///
/// Exactly the conditions of [`dwt`].
pub fn dwt_into(
    signal: &[f64],
    family: WaveletFamily,
    levels: usize,
    scratch: &mut DwtScratch,
    out: &mut WaveletDecomposition,
) -> Result<(), DspError> {
    let _span = didt_telemetry::span("dsp.dwt");
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if levels == 0 {
        return Err(DspError::ZeroLevels);
    }
    if levels >= usize::BITS as usize || !signal.len().is_multiple_of(1usize << levels) {
        return Err(DspError::BadLength {
            len: signal.len(),
            requirement: "length must be divisible by 2^levels",
        });
    }
    dwt_core(signal, family, levels, BoundaryMode::Periodic, scratch, out)
}

/// Telemetry counter bumped whenever [`dwt_boundary_into`] clamps a
/// too-deep level request to the signal's dyadic depth.
const LEVELS_CLAMPED_COUNTER: &str = "dsp.dwt.levels_clamped";

/// Maximum meaningful pyramid depth for a signal of `len` samples:
/// `floor(log2(len))`, the dyadic convention of the paper's design-tool
/// lineage. Returns 0 for `len < 2` (a single sample still supports one
/// expansive level; [`dwt_boundary_into`] clamps to at least 1).
#[must_use]
pub fn max_dwt_levels(len: usize) -> usize {
    if len < 2 {
        0
    } else {
        (usize::BITS - 1 - len.leading_zeros()) as usize
    }
}

/// Clamp a level request to the dyadic depth of a `len`-sample signal
/// (at least 1), counting each clamp on [`LEVELS_CLAMPED_COUNTER`] —
/// the clamp rule of [`dwt_boundary_into`].
pub(crate) fn clamp_levels(len: usize, levels: usize) -> usize {
    static CLAMPED: OnceLock<Arc<Counter>> = OnceLock::new();
    let depth_cap = max_dwt_levels(len).max(1);
    if levels > depth_cap {
        CLAMPED
            .get_or_init(|| MetricsRegistry::global().counter(LEVELS_CLAMPED_COUNTER))
            .incr();
        depth_cap
    } else {
        levels
    }
}

/// Compute a DWT under an explicit [`BoundaryMode`] — the allocating
/// counterpart of [`dwt_boundary_into`].
///
/// # Errors
///
/// The conditions of [`dwt_boundary_into`].
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt_boundary, idwt, BoundaryMode, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// // 37 samples: no power-of-two structure anywhere, db5 ten-tap filter.
/// let signal: Vec<f64> = (0..37).map(|i| (i as f64 * 0.4).sin()).collect();
/// let d = dwt_boundary(&signal, WaveletFamily::Db5, 3, BoundaryMode::Symmetric)?;
/// let r = idwt(&d)?;
/// for (a, b) in signal.iter().zip(&r) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
pub fn dwt_boundary(
    signal: &[f64],
    family: WaveletFamily,
    levels: usize,
    mode: BoundaryMode,
) -> Result<WaveletDecomposition, DspError> {
    let mut out = WaveletDecomposition::empty();
    let mut scratch = DwtScratch::new();
    dwt_boundary_into(signal, family, levels, mode, &mut scratch, &mut out)?;
    Ok(out)
}

/// Compute the DWT of `signal` under an explicit [`BoundaryMode`] into
/// reusable storage, returning the number of levels actually computed.
///
/// Unlike the legacy [`dwt_into`], a request for more levels than
/// `floor(log2(n))` is **clamped** (to at least 1) rather than rejected,
/// and the clamp is recorded on the `dsp.dwt.levels_clamped` telemetry
/// counter — deep requests on short signals are a config smell worth
/// observing, not a crash. The expansive modes accept any non-empty
/// length; `Periodic` keeps the legacy divisibility and filter-length
/// requirements (applied to the clamped depth) and stays bit-identical
/// to [`dwt_into`] where both are defined.
///
/// # Errors
///
/// * [`DspError::EmptySignal`] for an empty input.
/// * [`DspError::ZeroLevels`] when `levels == 0`.
/// * [`DspError::BadLength`] under `Periodic` for a length not divisible
///   by `2^levels` or a pyramid step shorter than the filter.
pub fn dwt_boundary_into(
    signal: &[f64],
    family: WaveletFamily,
    levels: usize,
    mode: BoundaryMode,
    scratch: &mut DwtScratch,
    out: &mut WaveletDecomposition,
) -> Result<usize, DspError> {
    let _span = didt_telemetry::span("dsp.dwt");
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if levels == 0 {
        return Err(DspError::ZeroLevels);
    }
    let levels = clamp_levels(signal.len(), levels);
    if mode == BoundaryMode::Periodic && !signal.len().is_multiple_of(1usize << levels) {
        return Err(DspError::BadLength {
            len: signal.len(),
            requirement: "length must be divisible by 2^levels",
        });
    }
    dwt_core(signal, family, levels, mode, scratch, out)?;
    Ok(levels)
}

/// Coefficients [`periodic_analysis_step`] computes side by side.
const STEP_LANES: usize = 8;

/// One periodic analysis step, the filter-bank split shared by the
/// pyramid and the packet tree:
/// `lo[k] = Σ h[m]·x[(2k+m) % n]`, `hi[k] = Σ g[m]·x[(2k+m) % n]` for
/// `k < lo.len()`. Taps accumulate in ascending `m`; that order is
/// bit-load-bearing for every pin downstream.
///
/// Coefficients whose taps all fall inside `x` (`2k + taps <= n`, the
/// first `inner` of them) read the slice `x[2k..2k + taps]` directly,
/// [`STEP_LANES`] coefficients side by side: each coefficient is a short
/// serial sum over the taps, and running eight of them at once lets
/// their add chains overlap. Only the last few, whose filter wraps past
/// the end, pay the modulo. Every loop performs each coefficient's
/// multiplies and adds in the same order, from `0.0`.
pub(crate) fn periodic_analysis_step(
    x: &[f64],
    h: &[f64],
    g: &[f64],
    lo: &mut [f64],
    hi: &mut [f64],
) {
    let n = x.len();
    let taps = h.len();
    let inner = if n >= taps {
        ((n - taps) / 2 + 1).min(lo.len())
    } else {
        0
    };
    let (lo_inner, lo_wrap) = lo.split_at_mut(inner);
    let (hi_inner, hi_wrap) = hi.split_at_mut(inner);
    let mut lo_blocks = lo_inner.chunks_exact_mut(STEP_LANES);
    let mut hi_blocks = hi_inner.chunks_exact_mut(STEP_LANES);
    for (b, (lo_b, hi_b)) in lo_blocks.by_ref().zip(hi_blocks.by_ref()).enumerate() {
        // Coefficient `k = STEP_LANES * b + j` reads `xs[2j..2j + taps]`.
        let xs = &x[2 * STEP_LANES * b..][..2 * (STEP_LANES - 1) + taps];
        let mut sl = [0.0; STEP_LANES];
        let mut sh = [0.0; STEP_LANES];
        for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
            for (j, (l, hj)) in sl.iter_mut().zip(&mut sh).enumerate() {
                let xm = xs[2 * j + m];
                *l += hm * xm;
                *hj += gm * xm;
            }
        }
        lo_b.copy_from_slice(&sl);
        hi_b.copy_from_slice(&sh);
    }
    let blocked = inner - inner % STEP_LANES;
    let rest = lo_blocks
        .into_remainder()
        .iter_mut()
        .zip(hi_blocks.into_remainder());
    for (k, (lo_k, hi_k)) in (blocked..).zip(rest) {
        let mut sl = 0.0;
        let mut sh = 0.0;
        for ((&hm, &gm), &xm) in h.iter().zip(g).zip(&x[2 * k..2 * k + taps]) {
            sl += hm * xm;
            sh += gm * xm;
        }
        *lo_k = sl;
        *hi_k = sh;
    }
    for (k, (lo_k, hi_k)) in (inner..).zip(lo_wrap.iter_mut().zip(hi_wrap.iter_mut())) {
        let mut sl = 0.0;
        let mut sh = 0.0;
        for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
            let idx = (2 * k + m) % n;
            sl += hm * x[idx];
            sh += gm * x[idx];
        }
        *lo_k = sl;
        *hi_k = sh;
    }
}

/// One periodic synthesis merge, the transpose of
/// [`periodic_analysis_step`]: rebuilds the `2·lo.len()` samples a split
/// produced `lo`/`hi` from.
pub(crate) fn periodic_synthesis_step(lo: &[f64], hi: &[f64], h: &[f64], g: &[f64]) -> Vec<f64> {
    let half = lo.len();
    let n = half * 2;
    let mut out = vec![0.0; n];
    for k in 0..half {
        for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
            let idx = (2 * k + m) % n;
            out[idx] += hm * lo[k] + gm * hi[k];
        }
    }
    out
}

/// The shared pyramid kernel behind [`dwt_into`] and
/// [`dwt_boundary_into`]. The `Periodic` arm is
/// [`periodic_analysis_step`] (the hot path of the characterization
/// sweeps); the expansive arm emits one coefficient per even-shift
/// filter translate overlapping the current level's extent.
fn dwt_core(
    signal: &[f64],
    family: WaveletFamily,
    levels: usize,
    mode: BoundaryMode,
    scratch: &mut DwtScratch,
    out: &mut WaveletDecomposition,
) -> Result<(), DspError> {
    let h = family.lowpass();
    let g = family.highpass();
    out.family = family;
    out.signal_len = signal.len();
    out.mode = mode;
    out.details.truncate(levels);
    out.details.resize(levels, Vec::new());
    out.level_input_lens.clear();

    // `approx` holds the current pyramid input, `out.approx` the output
    // of each step; they swap roles every level.
    let approx = &mut scratch.buf;
    approx.clear();
    approx.extend_from_slice(signal);
    for level in 0..levels {
        let n = approx.len();
        out.level_input_lens.push(n);
        let half = match mode {
            BoundaryMode::Periodic => {
                if n < h.len() {
                    return Err(DspError::BadLength {
                        len: signal.len(),
                        requirement: "pyramid step shorter than filter; reduce levels",
                    });
                }
                n / 2
            }
            // Expansive: one coefficient per even shift whose L-tap
            // support overlaps [0, n).
            _ => (n - 1) / 2 + h.len() / 2,
        };
        let d = &mut out.details[level];
        d.clear();
        d.resize(half, 0.0);
        let next_a = &mut out.approx;
        next_a.clear();
        next_a.resize(half, 0.0);
        if mode == BoundaryMode::Periodic {
            periodic_analysis_step(approx, h, g, next_a, d);
        } else {
            // Coefficient k correlates against samples starting at
            // 2k − (L−2): the leftmost even shift still touching x[0].
            let shift = h.len() as isize - 2;
            for k in 0..half {
                let start = 2 * k as isize - shift;
                let mut sa = 0.0;
                let mut sd = 0.0;
                for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
                    let x = extend(approx, start + m as isize, mode);
                    sa += hm * x;
                    sd += gm * x;
                }
                next_a[k] = sa;
                d[k] = sd;
            }
        }
        std::mem::swap(approx, next_a);
    }
    // The final approximation ended up in `scratch.buf` after the swap.
    std::mem::swap(&mut out.approx, &mut scratch.buf);
    Ok(())
}

/// Invert a wavelet decomposition, reconstructing the original signal.
///
/// Exact (to floating-point round-off) for decompositions produced by
/// [`dwt`] or [`dwt_boundary`] under **every** boundary mode; also
/// correct for decompositions whose coefficient rows have been modified
/// (the basis of subband filtering, paper §2.2). For the expansive modes
/// the synthesis is the analysis adjoint cropped to each level's
/// recorded extent — contributions the extension operator invented past
/// the ends are dropped, which is exactly what perfect reconstruction
/// requires there.
///
/// # Errors
///
/// Returns [`DspError::BadLength`] if the decomposition's rows are
/// internally inconsistent (possible only if constructed by hand).
pub fn idwt(decomp: &WaveletDecomposition) -> Result<Vec<f64>, DspError> {
    let h = decomp.family.lowpass();
    let g = decomp.family.highpass();
    let mut approx = decomp.approx.clone();
    if decomp.mode == BoundaryMode::Periodic {
        // Walk from the coarsest detail row back to the finest.
        for d in decomp.details.iter().rev() {
            if d.len() != approx.len() {
                return Err(DspError::BadLength {
                    len: d.len(),
                    requirement: "detail row must match approximation length",
                });
            }
            approx = periodic_synthesis_step(&approx, d, h, g);
        }
        return Ok(approx);
    }
    let shift = h.len() as isize - 2;
    for (level, d) in decomp.details.iter().enumerate().rev() {
        let n = *decomp
            .level_input_lens
            .get(level)
            .ok_or(DspError::BadLength {
                len: decomp.details.len(),
                requirement: "expansive decomposition missing level extents",
            })?;
        let half = (n - 1) / 2 + h.len() / 2;
        if d.len() != half || approx.len() != half {
            return Err(DspError::BadLength {
                len: d.len(),
                requirement: "detail row must match the level's expansive length",
            });
        }
        let mut next = vec![0.0; n];
        for k in 0..half {
            let start = 2 * k as isize - shift;
            for (m, (&hm, &gm)) in h.iter().zip(g).enumerate() {
                let i = start + m as isize;
                if i >= 0 && (i as usize) < n {
                    next[i as usize] += hm * approx[k] + gm * d[k];
                }
            }
        }
        approx = next;
    }
    Ok(approx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn periodic_step_is_the_per_coefficient_sum_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        };
        for family in WaveletFamily::ALL {
            let (h, g) = (family.lowpass(), family.highpass());
            // Lengths around every block boundary, the filter length and
            // below it (all coefficients wrap).
            for n in (2..=80).step_by(2) {
                let x: Vec<f64> = (0..n).map(|_| next()).collect();
                let (mut lo, mut hi) = (vec![0.0; n / 2], vec![0.0; n / 2]);
                periodic_analysis_step(&x, h, g, &mut lo, &mut hi);
                for k in 0..n / 2 {
                    // `lo[k] = Σ h[m]·x[(2k+m) % n]`, one coefficient at
                    // a time, taps ascending from 0.0.
                    let (mut sl, mut sh) = (0.0, 0.0);
                    for m in 0..h.len() {
                        sl += h[m] * x[(2 * k + m) % n];
                        sh += g[m] * x[(2 * k + m) % n];
                    }
                    let at = format!("{} n={n} k={k}", family.name());
                    assert_eq!(lo[k].to_bits(), sl.to_bits(), "{at}");
                    assert_eq!(hi[k].to_bits(), sh.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn haar_level1_hand_computed() {
        // a[k] = (x[2k]+x[2k+1])/√2 ; d[k] = (x[2k]-x[2k+1])/√2
        let s = [4.0, 2.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0];
        let d = dwt(&s, WaveletFamily::Haar, 1).unwrap();
        let r2 = std::f64::consts::SQRT_2;
        let want_a = [6.0 / r2, 4.0 / r2, 4.0 / r2, 2.0 / r2];
        let want_d = [2.0 / r2, 4.0 / r2, 0.0, 2.0 / r2];
        assert!(close(d.approximation(), &want_a, 1e-12));
        assert!(close(d.detail(1).unwrap(), &want_d, 1e-12));
    }

    #[test]
    fn figure3_two_level_structure() {
        // The paper's Figure 3 example signal decomposed to 2 levels.
        let s = [4.0, 2.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0];
        let d = dwt(&s, WaveletFamily::Haar, 2).unwrap();
        // Level-2 approximation: pairwise averages of level-1 approx.
        // a1 = [6,4,4,2]/√2  →  a2 = [10, 6]/2 = [5, 3]
        assert!(close(d.approximation(), &[5.0, 3.0], 1e-12));
        // d2 = [2, 2]/2 = [1, 1]
        assert!(close(d.detail(2).unwrap(), &[1.0, 1.0], 1e-12));
    }

    #[test]
    fn perfect_reconstruction_haar() {
        let s: Vec<f64> = (0..64).map(|i| ((i * 7 % 13) as f64) - 5.0).collect();
        for levels in 1..=6 {
            let d = dwt(&s, WaveletFamily::Haar, levels).unwrap();
            let r = idwt(&d).unwrap();
            assert!(close(&s, &r, 1e-10), "levels {levels}");
        }
    }

    #[test]
    fn perfect_reconstruction_db4() {
        let s: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos() * 2.0).collect();
        for levels in 1..=4 {
            let d = dwt(&s, WaveletFamily::Db2, levels).unwrap();
            let r = idwt(&d).unwrap();
            assert!(close(&s, &r, 1e-10), "levels {levels}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let s: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.17).sin() * 3.0 + 1.0)
            .collect();
        let sig_energy: f64 = s.iter().map(|x| x * x).sum();
        for w in [WaveletFamily::Haar, WaveletFamily::Db2] {
            let d = dwt(&s, w, 5).unwrap();
            assert!(
                (d.energy() - sig_energy).abs() < 1e-9 * sig_energy,
                "{}",
                w.name()
            );
        }
    }

    fn energy(row: &[f64]) -> f64 {
        row.iter().map(|x| x * x).sum()
    }

    #[test]
    fn constant_signal_all_energy_in_approx() {
        let d = dwt(&[2.0; 32], WaveletFamily::Haar, 5).unwrap();
        for level in 1..=5 {
            assert!(energy(d.detail(level).unwrap()) < 1e-20);
        }
        // Full decomposition: one approx coefficient = mean * sqrt(N).
        assert_eq!(d.approximation().len(), 1);
        assert!((d.approximation()[0] - 2.0 * 32f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn alternating_signal_energy_in_finest_detail() {
        let s: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let d = dwt(&s, WaveletFamily::Haar, 3).unwrap();
        let total: f64 = s.iter().map(|x| x * x).sum();
        assert!((energy(d.detail(1).unwrap()) - total).abs() < 1e-10);
        assert!(energy(d.detail(2).unwrap()) < 1e-20);
        assert!(d.approximation().iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn coefficient_count_equals_signal_len() {
        let s = vec![1.0; 64];
        for levels in 1..=6 {
            let d = dwt(&s, WaveletFamily::Haar, levels).unwrap();
            assert_eq!(d.coefficient_count(), 64);
        }
    }

    #[test]
    fn near_zero_counts_sparsity() {
        // Piecewise-constant signal: sparse in Haar.
        let mut s = vec![1.0; 32];
        s[16..].fill(5.0);
        let d = dwt(&s, WaveletFamily::Haar, 5).unwrap();
        // Only the boundary produces nonzero details; most coefficients
        // are tiny ("the majority of the terms in the coefficient matrices
        // are either zero or nearly zero", §2.1).
        let near_zero = d
            .approximation()
            .iter()
            .chain(d.detail_rows().flatten())
            .filter(|x| x.abs() < 1e-9)
            .count();
        assert!(near_zero >= 26);
    }

    #[test]
    fn rejects_empty_zero_levels_and_bad_length() {
        assert!(matches!(
            dwt(&[], WaveletFamily::Haar, 1),
            Err(DspError::EmptySignal)
        ));
        assert!(matches!(
            dwt(&[1.0; 8], WaveletFamily::Haar, 0),
            Err(DspError::ZeroLevels)
        ));
        assert!(matches!(
            dwt(&[1.0; 12], WaveletFamily::Haar, 3),
            Err(DspError::BadLength { .. })
        ));
    }

    #[test]
    fn detail_level_bounds_checked() {
        let d = dwt(&[1.0; 8], WaveletFamily::Haar, 2).unwrap();
        assert!(d.detail(0).is_err());
        assert!(d.detail(3).is_err());
        assert!(d.detail(1).is_ok());
        assert!(d.detail(2).is_ok());
    }

    #[test]
    fn detail_mut_allows_filtering() {
        let s: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut d = dwt(&s, WaveletFamily::Haar, 2).unwrap();
        d.detail_mut(1).unwrap().fill(0.0);
        let r = idwt(&d).unwrap();
        // Finest detail removed: pairwise averages remain.
        for k in 0..8 {
            let avg = (s[2 * k] + s[2 * k + 1]) / 2.0;
            assert!((r[2 * k] - avg).abs() < 1e-10);
            assert!((r[2 * k + 1] - avg).abs() < 1e-10);
        }
    }

    #[test]
    fn dwt_linear() {
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let b: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let da = dwt(&a, WaveletFamily::Haar, 3).unwrap();
        let db = dwt(&b, WaveletFamily::Haar, 3).unwrap();
        let ds = dwt(&sum, WaveletFamily::Haar, 3).unwrap();
        for lvl in 1..=3 {
            let ra = da.detail(lvl).unwrap();
            let rb = db.detail(lvl).unwrap();
            let rs = ds.detail(lvl).unwrap();
            for k in 0..ra.len() {
                assert!((rs[k] - (2.0 * ra[k] + 3.0 * rb[k])).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dwt_into_matches_batch_dwt_and_reuses_storage() {
        let mut scratch = DwtScratch::new();
        let mut out = dwt(&[0.0; 16], WaveletFamily::Haar, 2).unwrap();
        for (i, w) in [WaveletFamily::Haar, WaveletFamily::Db2]
            .into_iter()
            .enumerate()
        {
            for levels in 1..=3 {
                let s: Vec<f64> = (0..48)
                    .map(|k| ((k * 13 + i * 7) % 17) as f64 - 8.0)
                    .collect();
                dwt_into(&s, w, levels, &mut scratch, &mut out).unwrap();
                let fresh = dwt(&s, w, levels).unwrap();
                assert_eq!(out, fresh, "{} levels {levels}", w.name());
            }
        }
        // Reused output remains invertible.
        let s: Vec<f64> = (0..32).map(|k| (k as f64 * 0.7).sin()).collect();
        dwt_into(&s, WaveletFamily::Haar, 5, &mut scratch, &mut out).unwrap();
        let r = idwt(&out).unwrap();
        assert!(close(&s, &r, 1e-10));
    }

    #[test]
    fn dwt_into_propagates_errors() {
        let mut scratch = DwtScratch::new();
        let mut out = dwt(&[0.0; 8], WaveletFamily::Haar, 1).unwrap();
        assert!(matches!(
            dwt_into(&[], WaveletFamily::Haar, 1, &mut scratch, &mut out),
            Err(DspError::EmptySignal)
        ));
        assert!(matches!(
            dwt_into(&[1.0; 8], WaveletFamily::Haar, 0, &mut scratch, &mut out),
            Err(DspError::ZeroLevels)
        ));
        assert!(matches!(
            dwt_into(&[1.0; 12], WaveletFamily::Haar, 3, &mut scratch, &mut out),
            Err(DspError::BadLength { .. })
        ));
    }

    #[test]
    fn detail_rows_iterates_fine_to_coarse() {
        let d = dwt(&[1.0; 16], WaveletFamily::Haar, 3).unwrap();
        let lens: Vec<usize> = d.detail_rows().map(<[f64]>::len).collect();
        assert_eq!(lens, vec![8, 4, 2]);
    }

    fn test_signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + ((i * 7 % 11) as f64) * 0.3 - 1.0)
            .collect()
    }

    #[test]
    fn expansive_roundtrip_every_family_mode_and_awkward_length() {
        for family in WaveletFamily::ALL {
            for mode in BoundaryMode::EXTENSIONS {
                for len in [1, 2, 3, 5, 17, 37, 64, 100] {
                    let s = test_signal(len);
                    let levels = 3.min(max_dwt_levels(len).max(1));
                    let d = dwt_boundary(&s, family, levels, mode).unwrap();
                    let r = idwt(&d).unwrap();
                    assert_eq!(r.len(), len);
                    let scale = s.iter().map(|x| x.abs()).fold(1.0, f64::max);
                    for (a, b) in s.iter().zip(&r) {
                        assert!(
                            (a - b).abs() < 1e-10 * scale,
                            "{} {} len {len}: {a} vs {b}",
                            family.name(),
                            mode.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dwt_boundary_periodic_matches_legacy_bitwise() {
        let s = test_signal(64);
        for levels in 1..=4 {
            let legacy = dwt(&s, WaveletFamily::Db3, levels).unwrap();
            let new = dwt_boundary(&s, WaveletFamily::Db3, levels, BoundaryMode::Periodic).unwrap();
            assert_eq!(legacy, new);
        }
    }

    #[test]
    fn zero_pad_parseval_exact_any_length() {
        for family in [WaveletFamily::Haar, WaveletFamily::Db4, WaveletFamily::Db8] {
            for len in [1, 9, 33, 64, 101] {
                let s = test_signal(len);
                let sig_energy: f64 = s.iter().map(|x| x * x).sum();
                let levels = 3.min(max_dwt_levels(len).max(1));
                let d = dwt_boundary(&s, family, levels, BoundaryMode::ZeroPad).unwrap();
                assert!(
                    (d.energy() - sig_energy).abs() < 1e-9 * sig_energy.max(1.0),
                    "{} len {len}: {} vs {sig_energy}",
                    family.name(),
                    d.energy()
                );
            }
        }
    }

    #[test]
    fn symmetric_and_hold_energy_dominates_signal_energy() {
        // These extensions invent real samples past the ends, so the
        // coefficients carry at least the signal energy (the crop in
        // synthesis can only discard energy, never add it).
        for mode in [BoundaryMode::Symmetric, BoundaryMode::ZerothOrder] {
            for len in [5, 37, 100] {
                let s = test_signal(len);
                let sig_energy: f64 = s.iter().map(|x| x * x).sum();
                let d = dwt_boundary(&s, WaveletFamily::Db5, 2, mode).unwrap();
                assert!(
                    d.energy() >= sig_energy - 1e-9 * sig_energy,
                    "{} len {len}",
                    mode.name()
                );
            }
        }
    }

    #[test]
    fn level_clamp_records_telemetry_and_survives_tiny_inputs() {
        let counter = didt_telemetry::MetricsRegistry::global().counter(LEVELS_CLAMPED_COUNTER);
        let before = counter.get();
        let mut scratch = DwtScratch::new();
        let mut out = WaveletDecomposition::empty();
        // Length 1: clamps any request to a single expansive level.
        let used = dwt_boundary_into(
            &[2.5],
            WaveletFamily::Haar,
            9,
            BoundaryMode::ZeroPad,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(used, 1);
        let r = idwt(&out).unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0] - 2.5).abs() < 1e-12);
        // Length 12 supports floor(log2(12)) = 3 levels.
        let used = dwt_boundary_into(
            &test_signal(12),
            WaveletFamily::Haar,
            10,
            BoundaryMode::Symmetric,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(used, 3);
        assert!(counter.get() >= before + 2, "clamp counter not recorded");
        // In-range requests do not clamp.
        let used = dwt_boundary_into(
            &test_signal(12),
            WaveletFamily::Haar,
            3,
            BoundaryMode::ZeroPad,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(used, 3);
        // Length 0 is still a hard error, never a silent zero-pad.
        assert!(matches!(
            dwt_boundary(&[], WaveletFamily::Haar, 1, BoundaryMode::ZeroPad),
            Err(DspError::EmptySignal)
        ));
        assert!(matches!(
            dwt_boundary(
                &test_signal(8),
                WaveletFamily::Haar,
                0,
                BoundaryMode::ZeroPad
            ),
            Err(DspError::ZeroLevels)
        ));
    }

    #[test]
    fn periodic_boundary_keeps_divisibility_error_after_clamp() {
        // 12 samples, request clamped to 3 levels; 12 is not divisible by
        // 8, so Periodic still refuses — clamping never silently changes
        // the legacy contract.
        assert!(matches!(
            dwt_boundary(
                &test_signal(12),
                WaveletFamily::Haar,
                3,
                BoundaryMode::Periodic
            ),
            Err(DspError::BadLength { .. })
        ));
        // But a conforming length passes through untouched.
        let d = dwt_boundary(
            &test_signal(16),
            WaveletFamily::Haar,
            4,
            BoundaryMode::Periodic,
        )
        .unwrap();
        assert_eq!(d.levels(), 4);
    }

    #[test]
    fn haar_zero_pad_matches_periodic_on_even_lengths() {
        // The 2-tap Haar filter never reaches past a sample pair, so the
        // expansive path must agree bit-for-bit with the periodic wrap on
        // even lengths — the anchor for serve-path equivalence.
        let s = test_signal(64);
        let p = dwt(&s, WaveletFamily::Haar, 1).unwrap();
        let z = dwt_boundary(&s, WaveletFamily::Haar, 1, BoundaryMode::ZeroPad).unwrap();
        assert_eq!(p.approximation(), z.approximation());
        assert_eq!(p.detail(1).unwrap(), z.detail(1).unwrap());
    }

    #[test]
    fn subband_filtering_works_under_expansive_modes() {
        let s = test_signal(50);
        let mut d = dwt_boundary(&s, WaveletFamily::Db3, 2, BoundaryMode::Symmetric).unwrap();
        d.detail_mut(1).unwrap().fill(0.0);
        d.detail_mut(2).unwrap().fill(0.0);
        let r = idwt(&d).unwrap();
        // Details removed: the reconstruction is a smoothed signal of the
        // same length with comparable energy.
        assert_eq!(r.len(), 50);
        let es: f64 = s.iter().map(|x| x * x).sum();
        let er: f64 = r.iter().map(|x| x * x).sum();
        assert!(
            er > 0.2 * es && er < 1.5 * es,
            "smoothed energy ratio {}",
            er / es
        );
    }

    #[test]
    fn boundary_mode_names_roundtrip() {
        for mode in BoundaryMode::ALL {
            assert_eq!(BoundaryMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(BoundaryMode::parse("reflect"), None);
    }
}
