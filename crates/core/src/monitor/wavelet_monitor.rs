//! The truncated wavelet-convolution voltage monitor (paper §5.1–5.2).
//!
//! **Idea.** The voltage droop is a convolution of recent current with
//! the PDN impulse response `h` (paper equation 6):
//! `droop[n] = Σ_m h[m]·i[n−m]`. Expand `h` in the orthonormal Haar
//! basis over the lag window: `h = Σ w_{j,k}·ψ_{j,k}`. By Parseval,
//!
//! `droop[n] = Σ_{j,k} w_{j,k} · c_{j,k}[n]`,
//!
//! where `c_{j,k}[n]` is the Haar coefficient of the recent current
//! history — computable with three shift-register taps per term
//! ([`super::SlidingTerm`], paper Figure 14). The weights `w` are fixed
//! design-time constants (the DWT of `h`), and because `h` is a resonant
//! ripple its wavelet representation is **sparse**: a handful of terms on
//! the scales near the resonant period carry almost all the energy. Keep
//! only the top-K |w| terms and the estimate stays accurate while the
//! hardware shrinks from a 256-tap MAC pipeline to ~3K adds
//! (paper Figure 13: K ≈ 9–20 for 20 mV error).

use crate::monitor::shift_register::{HistoryRing, SlidingTerm, TermKind};
use crate::monitor::{CycleSense, DelayLine, VoltageMonitor};
use crate::DidtError;
use didt_dsp::{dwt, WaveletFamily};
use didt_pdn::SecondOrderPdn;

/// One wavelet-convolution weight: the contribution constant of a single
/// Haar term to the droop estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermWeight {
    /// Detail or approximation term.
    pub kind: TermKind,
    /// Haar level (1 = finest; approximation terms use the deepest level).
    pub level: usize,
    /// Dyadic position within the lag window.
    pub index: usize,
    /// The weight `w` (volts per unit coefficient).
    pub weight: f64,
}

/// Design-time data for a wavelet monitor on a given PDN: the full,
/// magnitude-sorted weight list.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::monitor::WaveletMonitorDesign;
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let design = WaveletMonitorDesign::new(&pdn, 256)?;
/// // The weight spectrum is sparse: the top 16 of 256 terms dominate.
/// let top: f64 = design.weights()[..16].iter().map(|w| w.weight.abs()).sum();
/// let rest: f64 = design.weights()[16..].iter().map(|w| w.weight.abs()).sum();
/// assert!(top > rest);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletMonitorDesign {
    window: usize,
    levels: usize,
    vdd: f64,
    /// All weights, sorted by decreasing |w|.
    weights: Vec<TermWeight>,
}

impl WaveletMonitorDesign {
    /// Build the design for `pdn` with a lag window of `window` cycles
    /// (must be a power of two, at least 8; 256 covers the paper's
    /// "tens to hundreds of cycles" dI/dt band).
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window size.
    pub fn new(pdn: &SecondOrderPdn, window: usize) -> Result<Self, DidtError> {
        let h = pdn.impulse_response(window.max(1));
        Self::from_impulse_response(&h, pdn.vdd(), window)
    }

    /// Build the design from an arbitrary discrete impulse response
    /// (droop volts per unit ampere-cycle, lag 0 first). This is how the
    /// monitor generalizes beyond the single second-order network — any
    /// linear supply model (e.g. [`didt_pdn::TwoStagePdn`]) works, since
    /// the weights are just the DWT of its impulse response. `h` is
    /// truncated or zero-padded to `window` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window size.
    pub fn from_impulse_response(h: &[f64], vdd: f64, window: usize) -> Result<Self, DidtError> {
        if window < 8 || !window.is_power_of_two() {
            return Err(DidtError::InvalidConfig {
                name: "window",
                reason: "window must be a power of two >= 8",
            });
        }
        let levels = window.trailing_zeros() as usize;
        let mut h = h.to_vec();
        h.resize(window, 0.0);
        let decomp = dwt(&h, WaveletFamily::Haar, levels)?;
        let mut weights = Vec::with_capacity(window);
        for level in 1..=levels {
            for (index, &w) in decomp.detail(level)?.iter().enumerate() {
                weights.push(TermWeight {
                    kind: TermKind::Detail,
                    level,
                    index,
                    weight: w,
                });
            }
        }
        for (index, &w) in decomp.approximation().iter().enumerate() {
            weights.push(TermWeight {
                kind: TermKind::Approximation,
                level: levels,
                index,
                weight: w,
            });
        }
        weights.sort_by(|a, b| b.weight.abs().total_cmp(&a.weight.abs()));
        Ok(WaveletMonitorDesign {
            window,
            levels,
            vdd,
            weights,
        })
    }

    /// All weights, sorted by decreasing magnitude.
    #[must_use]
    pub fn weights(&self) -> &[TermWeight] {
        &self.weights
    }

    /// The lag window in cycles.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Worst-case droop-estimation error bound (volts) when keeping only
    /// the top `k` terms, for current excursions up to `i_dev` amperes
    /// from the mean (Cauchy–Schwarz over the dropped weights).
    #[must_use]
    pub fn truncation_error_bound(&self, k: usize, i_dev: f64) -> f64 {
        let dropped_energy: f64 = self.weights[k.min(self.weights.len())..]
            .iter()
            .map(|w| w.weight * w.weight)
            .sum();
        // ||i_window||₂ ≤ i_dev·√window for a bounded-deviation signal.
        dropped_energy.sqrt() * i_dev * (self.window as f64).sqrt()
    }

    /// Instantiate a monitor keeping the top `k` terms with estimate
    /// latency `delay` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] when `k` is zero.
    pub fn build(&self, k: usize, delay: usize) -> Result<WaveletMonitor, DidtError> {
        if k == 0 {
            return Err(DidtError::InvalidConfig {
                name: "k",
                reason: "at least one wavelet term is required",
            });
        }
        let kept = &self.weights[..k.min(self.weights.len())];
        let mut details = Vec::new();
        let mut approximations = Vec::new();
        let mut norm = Vec::with_capacity(kept.len());
        for (slot, w) in kept.iter().enumerate() {
            let term = SlidingTerm::new(w.kind, w.level, w.index);
            let [newest, crossing, oldest] = term.taps();
            match w.kind {
                TermKind::Detail => details.push([newest, crossing, oldest, slot]),
                TermKind::Approximation => approximations.push([newest, oldest, slot]),
            }
            norm.push(term.norm());
        }
        Ok(WaveletMonitor {
            // The coarsest term's oldest tap is lag `window`.
            ring: HistoryRing::new(self.window + 1),
            window: self.window,
            details,
            approximations,
            raw: vec![0.0; kept.len()],
            norm,
            weight: kept.iter().map(|w| w.weight).collect(),
            vdd: self.vdd,
            delay: DelayLine::new(self.vdd, delay),
            history: Vec::new(),
            raws: Vec::new(),
        })
    }
}

/// The run-time wavelet-convolution voltage monitor.
///
/// Each kept term is one [`SlidingTerm`](super::SlidingTerm), laid out
/// as arrays: per-kind lists of precomputed lag offsets index the
/// history ring's newest-first lag slice, and the terms' running pulse
/// sums, norms and weights sit in three parallel vectors in the design's
/// |w| order. A cycle's arithmetic is exactly the per-term fold's: each
/// detail sum gains `newest − 2·crossing + oldest`, each approximation
/// sum `newest − oldest`, and the droop is `Σ (raw·norm)·weight` in |w|
/// order.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::monitor::{CycleSense, VoltageMonitor, WaveletMonitorDesign};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let mut mon = WaveletMonitorDesign::new(&pdn, 256)?.build(20, 0)?;
/// let mut sim = pdn.simulator();
/// let mut worst: f64 = 0.0;
/// for n in 0..4000 {
///     let i = 40.0 + 25.0 * ((n as f64) * 0.21).sin();
///     let v = sim.step(i);
///     let est = mon.observe(CycleSense { current: i, voltage: v });
///     if n > 256 {
///         worst = worst.max((est - v).abs());
///     }
/// }
/// assert!(worst < 0.02, "20-term estimate within 20 mV, got {worst}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WaveletMonitor {
    ring: HistoryRing,
    /// The lag window: no tap reads past lag `window`.
    window: usize,
    /// Per detail term: its `newest`, `crossing` and `oldest` lags, then its slot.
    details: Vec<[usize; 4]>,
    /// Per approximation term: its `newest` and `oldest` lags, then its slot.
    approximations: Vec<[usize; 3]>,
    /// Unnormalised pulse sum per slot.
    raw: Vec<f64>,
    norm: Vec<f64>,
    weight: Vec<f64>,
    vdd: f64,
    delay: DelayLine,
    /// [`VoltageMonitor::observe_block`]'s linear history, oldest
    /// first: the ring's last `window` lags, then the block's currents.
    history: Vec<f64>,
    /// [`VoltageMonitor::observe_block`]'s pulse sums, one row of the
    /// block's length per slot.
    raws: Vec<f64>,
}

impl VoltageMonitor for WaveletMonitor {
    fn observe(&mut self, sense: CycleSense) -> f64 {
        self.ring.push(sense.current);
        let lags = self.ring.lags();
        for &[newest, crossing, oldest, slot] in &self.details {
            // Enters +pulse, moves + → − (double weight), leaves −.
            self.raw[slot] += lags[newest] - 2.0 * lags[crossing] + lags[oldest];
        }
        for &[newest, oldest, slot] in &self.approximations {
            self.raw[slot] += lags[newest] - lags[oldest];
        }
        let droop: f64 = self
            .raw
            .iter()
            .zip(&self.norm)
            .zip(&self.weight)
            .map(|((raw, norm), weight)| raw * norm * weight)
            .sum();
        self.delay.pass(self.vdd - droop)
    }

    /// Terms outside, cycles inside. Each term's pulse sum runs its
    /// recurrence over the block in cycle order, adding the same
    /// `newest − 2·crossing + oldest` (or `newest − oldest`) that
    /// `observe` adds, into one row per slot. Then each cycle's droop
    /// adds `(raw·norm)·weight` over the slots in slot order, from
    /// `−0.0` as `Iterator::sum` does. Those are `observe`'s additions
    /// in `observe`'s order, so every estimate has its bits; only the
    /// loop nest changed, and with it the per-cycle ring reads.
    fn observe_block(&mut self, senses: &[CycleSense], estimates: &mut [f64]) {
        assert_eq!(senses.len(), estimates.len(), "one estimate per sense");
        let n = senses.len();
        if n == 0 {
            return;
        }
        let w = self.window;
        self.history.clear();
        self.history.extend(self.ring.lags()[..w].iter().rev());
        self.history.extend(senses.iter().map(|s| s.current));
        // Cycle `t`'s lag `m` sits at `history[w + t − m]`, so a tap at
        // lag `m` reads the block's run `history[w − m..][..n]`.
        let tap = |m: usize| &self.history[w - m..][..n];
        self.raws.resize(self.raw.len() * n, 0.0);
        for &[newest, crossing, oldest, slot] in &self.details {
            let mut raw = self.raw[slot];
            let row = &mut self.raws[slot * n..][..n];
            for (((r, &a), &c), &o) in row
                .iter_mut()
                .zip(tap(newest))
                .zip(tap(crossing))
                .zip(tap(oldest))
            {
                raw += a - 2.0 * c + o;
                *r = raw;
            }
            self.raw[slot] = raw;
        }
        for &[newest, oldest, slot] in &self.approximations {
            let mut raw = self.raw[slot];
            let row = &mut self.raws[slot * n..][..n];
            for ((r, &a), &o) in row.iter_mut().zip(tap(newest)).zip(tap(oldest)) {
                raw += a - o;
                *r = raw;
            }
            self.raw[slot] = raw;
        }
        estimates.fill(-0.0);
        for ((row, &norm), &weight) in self.raws.chunks_exact(n).zip(&self.norm).zip(&self.weight) {
            for (droop, &raw) in estimates.iter_mut().zip(row) {
                *droop += raw * norm * weight;
            }
        }
        for (sense, estimate) in senses.iter().zip(estimates) {
            self.ring.push(sense.current);
            *estimate = self.delay.pass(self.vdd - *estimate);
        }
    }

    fn name(&self) -> &'static str {
        "wavelet-convolution"
    }

    fn term_count(&self) -> usize {
        self.raw.len()
    }

    fn delay(&self) -> usize {
        self.delay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn design() -> WaveletMonitorDesign {
        WaveletMonitorDesign::new(&pdn(), 256).unwrap()
    }

    #[test]
    fn design_has_window_many_weights() {
        let d = design();
        assert_eq!(d.weights().len(), 256);
        // Sorted by decreasing magnitude.
        for w in d.weights().windows(2) {
            assert!(w[0].weight.abs() >= w[1].weight.abs());
        }
    }

    #[test]
    fn rejects_bad_window_and_zero_k() {
        assert!(WaveletMonitorDesign::new(&pdn(), 100).is_err());
        assert!(WaveletMonitorDesign::new(&pdn(), 4).is_err());
        assert!(design().build(0, 0).is_err());
    }

    #[test]
    fn weight_energy_concentrates_near_resonant_scale() {
        // 30-cycle resonant period → Haar scales 3-6 (8-64-cycle spans;
        // the heavily-damped Q≈2 network spreads energy over the octaves
        // around resonance) plus the DC approximation dominate.
        let d = design();
        let total: f64 = d.weights().iter().map(|w| w.weight * w.weight).sum();
        let resonant: f64 = d
            .weights()
            .iter()
            .filter(|w| w.kind == TermKind::Approximation || (3..=6).contains(&w.level))
            .map(|w| w.weight * w.weight)
            .sum();
        assert!(
            resonant / total > 0.85,
            "resonant-scale share {}",
            resonant / total
        );
        // The finest scale (above 750 MHz) is negligible.
        let fine: f64 = d
            .weights()
            .iter()
            .filter(|w| w.kind == TermKind::Detail && w.level == 1)
            .map(|w| w.weight * w.weight)
            .sum();
        assert!(fine / total < 0.05, "fine-scale share {}", fine / total);
    }

    #[test]
    fn full_term_monitor_matches_true_voltage() {
        // With ALL terms the monitor equals windowed convolution, which
        // matches the true voltage up to impulse-response truncation.
        let p = pdn();
        let mut mon = design().build(256, 0).unwrap();
        let mut sim = p.simulator();
        for n in 0..3000 {
            let i = 35.0 + 20.0 * ((n as f64) * 0.19).sin() + if n % 97 == 0 { 25.0 } else { 0.0 };
            let v = sim.step(i);
            let est = mon.observe(CycleSense {
                current: i,
                voltage: v,
            });
            if n > 512 {
                assert!((est - v).abs() < 2e-3, "n = {n}: est {est} vs true {v}");
            }
        }
    }

    #[test]
    fn error_decreases_with_k() {
        let p = pdn();
        let d = design();
        let mut errors = Vec::new();
        for k in [1, 4, 8, 16, 64, 256] {
            let mut mon = d.build(k, 0).unwrap();
            let mut sim = p.simulator();
            let mut worst = 0.0f64;
            for n in 0..4000 {
                let period = p.resonant_period_cycles() as usize;
                let i = if (n / (period / 2)).is_multiple_of(2) {
                    55.0
                } else {
                    12.0
                };
                let v = sim.step(i);
                let est = mon.observe(CycleSense {
                    current: i,
                    voltage: v,
                });
                if n > 512 {
                    worst = worst.max((est - v).abs());
                }
            }
            errors.push(worst);
        }
        for w in errors.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "errors not decreasing: {errors:?}");
        }
        assert!(errors[0] > 0.005, "1-term error suspiciously small");
        assert!(
            errors[5] < 0.003,
            "full-term error too large: {}",
            errors[5]
        );
    }

    #[test]
    fn twenty_terms_good_to_20mv_on_stressor() {
        let p = pdn();
        let mut mon = design().build(20, 0).unwrap();
        let mut sim = p.simulator();
        let period = p.resonant_period_cycles() as usize;
        let mut worst = 0.0f64;
        for n in 0..6000 {
            let i = if (n / (period / 2)).is_multiple_of(2) {
                55.0
            } else {
                12.0
            };
            let v = sim.step(i);
            let est = mon.observe(CycleSense {
                current: i,
                voltage: v,
            });
            if n > 512 {
                worst = worst.max((est - v).abs());
            }
        }
        assert!(worst < 0.02, "20-term worst error {worst}");
    }

    #[test]
    fn delay_pipeline_shifts_estimates() {
        let d = design();
        let mut m0 = d.build(32, 0).unwrap();
        let mut m2 = d.build(32, 2).unwrap();
        let mut outs0 = Vec::new();
        let mut outs2 = Vec::new();
        for n in 0..50 {
            let s = CycleSense {
                current: if n % 2 == 0 { 60.0 } else { 10.0 },
                voltage: 1.0,
            };
            outs0.push(m0.observe(s));
            outs2.push(m2.observe(s));
        }
        // m2's output at cycle n equals m0's at n-2.
        for n in 2..50 {
            assert!((outs2[n] - outs0[n - 2]).abs() < 1e-12, "n = {n}");
        }
        assert_eq!(m2.delay(), 2);
    }

    #[test]
    fn truncation_bound_decreases_and_bounds_observed_error() {
        let d = design();
        let b8 = d.truncation_error_bound(8, 45.0);
        let b20 = d.truncation_error_bound(20, 45.0);
        let b256 = d.truncation_error_bound(256, 45.0);
        assert!(b8 > b20);
        assert!(b256 < 1e-12);
    }

    #[test]
    fn term_count_reports_k() {
        let m = design().build(13, 1).unwrap();
        assert_eq!(m.term_count(), 13);
        assert_eq!(m.name(), "wavelet-convolution");
    }
}
