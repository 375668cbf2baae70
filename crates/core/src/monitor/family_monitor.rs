//! The filter-generic wavelet-compressed voltage monitor.
//!
//! [`WaveletMonitorDesign`](crate::monitor::WaveletMonitorDesign) is
//! Haar-specific by construction: its run-time hardware is the
//! shift-register [`SlidingTerm`](crate::monitor::SlidingTerm) cascade of
//! paper Figure 14, and that trick (a Haar coefficient is a difference of
//! two running sums) does not survive longer filter banks. The
//! **family** monitor asks the paper's §5 question for the whole
//! Daubechies ladder anyway, by shifting where the wavelet lives: expand
//! the PDN impulse response `h` in any [`WaveletFamily`] basis, keep the
//! top-K coefficients, reconstruct the compressed response `ĥ_K`, and run
//! the monitor as a plain windowed FIR with kernel `ĥ_K`. By linearity
//! this droop estimate is *mathematically identical* to evaluating the K
//! retained wavelet terms against the current history (equation 6 +
//! Parseval), so it measures exactly the accuracy-per-retained-tap a
//! dbN-capable hardware design would get — while staying honest that no
//! O(K) shift-register implementation exists for dbN (the "Haar-only
//! online" constraint documented in `didt_dsp::streaming`).

use crate::monitor::shift_register::HistoryRing;
use crate::monitor::{CycleSense, DelayLine, VoltageMonitor};
use crate::DidtError;
use didt_dsp::{dwt_boundary, idwt, BoundaryMode, WaveletDecomposition, WaveletFamily};
use didt_pdn::SecondOrderPdn;

/// One coefficient of the impulse response's family-basis expansion.
/// `row < levels` indexes a detail row (0 = finest); `row == levels`
/// indexes the approximation row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoeffRef {
    row: usize,
    index: usize,
    weight: f64,
}

/// Design-time data for a [`FamilyMonitor`]: the impulse response's
/// wavelet expansion in the chosen family/boundary, magnitude-sorted.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::monitor::FamilyMonitorDesign;
/// use didt_dsp::{BoundaryMode, WaveletFamily};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let design = FamilyMonitorDesign::new(
///     &pdn, 256, WaveletFamily::Db3, BoundaryMode::Periodic,
/// )?;
/// // Smoother basis, still-sparse ringing response: 20 of 256+
/// // coefficients reconstruct the kernel to a few percent.
/// assert!(design.kernel_error(20) < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyMonitorDesign {
    window: usize,
    vdd: f64,
    family: WaveletFamily,
    boundary: BoundaryMode,
    decomp: WaveletDecomposition,
    /// All coefficients, sorted by decreasing magnitude.
    order: Vec<CoeffRef>,
}

impl FamilyMonitorDesign {
    /// Expand `pdn`'s impulse response over a `window`-cycle lag span
    /// (a power of two, at least 8) in the given family and boundary
    /// mode. The decomposition depth is the deepest the combination
    /// supports: periodic pyramids stop before a step undercuts the
    /// filter length; expansive modes run to `floor(log2(window))`.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window.
    pub fn new(
        pdn: &SecondOrderPdn,
        window: usize,
        family: WaveletFamily,
        boundary: BoundaryMode,
    ) -> Result<Self, DidtError> {
        let h = pdn.impulse_response(window.max(1));
        Self::from_impulse_response(&h, pdn.vdd(), window, family, boundary)
    }

    /// Build the design from an arbitrary impulse response (droop volts
    /// per unit ampere-cycle, lag 0 first), truncated or zero-padded to
    /// `window` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window.
    pub fn from_impulse_response(
        h: &[f64],
        vdd: f64,
        window: usize,
        family: WaveletFamily,
        boundary: BoundaryMode,
    ) -> Result<Self, DidtError> {
        if window < 8 || !window.is_power_of_two() {
            return Err(DidtError::InvalidConfig {
                name: "window",
                reason: "window must be a power of two >= 8",
            });
        }
        if family.filter_len() > window {
            return Err(DidtError::InvalidConfig {
                name: "window",
                reason: "window shorter than the wavelet filter",
            });
        }
        let levels = if boundary == BoundaryMode::Periodic {
            family.periodic_levels(window)
        } else {
            window.trailing_zeros() as usize
        };
        let mut h = h.to_vec();
        h.resize(window, 0.0);
        let decomp = dwt_boundary(&h, family, levels, boundary)?;
        let mut order = Vec::with_capacity(decomp.coefficient_count());
        for (row, detail) in decomp.detail_rows().enumerate() {
            for (index, &weight) in detail.iter().enumerate() {
                order.push(CoeffRef { row, index, weight });
            }
        }
        for (index, &weight) in decomp.approximation().iter().enumerate() {
            order.push(CoeffRef {
                row: levels,
                index,
                weight,
            });
        }
        order.sort_by(|a, b| b.weight.abs().total_cmp(&a.weight.abs()));
        Ok(FamilyMonitorDesign {
            window,
            vdd,
            family,
            boundary,
            decomp,
            order,
        })
    }

    /// The lag window in cycles.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The basis family of the expansion.
    #[must_use]
    pub fn family(&self) -> WaveletFamily {
        self.family
    }

    /// The boundary mode of the expansion.
    #[must_use]
    pub fn boundary(&self) -> BoundaryMode {
        self.boundary
    }

    /// Total number of coefficients in the expansion (expansive modes
    /// emit more than `window`).
    #[must_use]
    pub fn coefficient_count(&self) -> usize {
        self.order.len()
    }

    /// The compressed impulse response reconstructed from the top `k`
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] when `k` is zero.
    pub fn kernel(&self, k: usize) -> Result<Vec<f64>, DidtError> {
        if k == 0 {
            return Err(DidtError::InvalidConfig {
                name: "k",
                reason: "at least one wavelet term is required",
            });
        }
        let k = k.min(self.order.len());
        let mut truncated = self.decomp.clone();
        let levels = truncated.levels();
        for row in 0..levels {
            truncated.detail_mut(row + 1)?.fill(0.0);
        }
        truncated.approximation_mut().fill(0.0);
        for c in &self.order[..k] {
            if c.row == levels {
                truncated.approximation_mut()[c.index] = c.weight;
            } else {
                truncated.detail_mut(c.row + 1)?[c.index] = c.weight;
            }
        }
        Ok(idwt(&truncated)?)
    }

    /// Relative L2 kernel error `‖h − ĥ_K‖ / ‖h‖` of the top-`k`
    /// reconstruction — the per-retained-tap accuracy measure the
    /// `ext_wavelet_family` experiment tabulates. Returns 1 for `k = 0`.
    #[must_use]
    pub fn kernel_error(&self, k: usize) -> f64 {
        let full: f64 = self.order.iter().map(|c| c.weight * c.weight).sum();
        if full <= 0.0 {
            return 0.0;
        }
        let kept: f64 = self.order[..k.min(self.order.len())]
            .iter()
            .map(|c| c.weight * c.weight)
            .sum();
        // For Periodic/ZeroPad the expansion is orthonormal, so dropped
        // coefficient energy IS squared kernel error (Parseval). For the
        // other modes it upper-bounds it (the synthesis crop is a
        // contraction).
        ((full - kept).max(0.0) / full).sqrt()
    }

    /// Instantiate a monitor keeping the top `k` coefficients, with
    /// estimate latency `delay` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] when `k` is zero.
    pub fn build(&self, k: usize, delay: usize) -> Result<FamilyMonitor, DidtError> {
        let kernel = self.kernel(k)?;
        Ok(FamilyMonitor {
            ring: HistoryRing::new(self.window),
            kernel,
            terms: k.min(self.order.len()),
            vdd: self.vdd,
            delay: DelayLine::new(self.vdd, delay),
        })
    }
}

/// The run-time family monitor: a windowed FIR over the wavelet-
/// compressed impulse response. [`VoltageMonitor::term_count`] reports
/// the number of *retained wavelet coefficients* (the design knob and
/// hardware-cost proxy), not the FIR length the software model runs.
#[derive(Debug, Clone)]
pub struct FamilyMonitor {
    ring: HistoryRing,
    kernel: Vec<f64>,
    terms: usize,
    vdd: f64,
    delay: DelayLine,
}

impl VoltageMonitor for FamilyMonitor {
    fn observe(&mut self, sense: CycleSense) -> f64 {
        self.ring.push(sense.current);
        let droop = self.ring.dot(&self.kernel);
        self.delay.pass(self.vdd - droop)
    }

    fn name(&self) -> &'static str {
        "wavelet-family"
    }

    fn term_count(&self) -> usize {
        self.terms
    }

    fn delay(&self) -> usize {
        self.delay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::WaveletMonitorDesign;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    #[test]
    fn rejects_bad_window_and_zero_k() {
        let p = pdn();
        assert!(
            FamilyMonitorDesign::new(&p, 100, WaveletFamily::Db3, BoundaryMode::Periodic).is_err()
        );
        assert!(
            FamilyMonitorDesign::new(&p, 8, WaveletFamily::Db8, BoundaryMode::Periodic).is_err()
        );
        let d =
            FamilyMonitorDesign::new(&p, 256, WaveletFamily::Db3, BoundaryMode::Periodic).unwrap();
        assert!(d.build(0, 0).is_err());
    }

    #[test]
    fn haar_full_rank_matches_haar_design_monitor() {
        // With ALL coefficients kept, the compressed kernel equals the
        // impulse response, so the family monitor and the SlidingTerm
        // Haar monitor estimate the same voltage (both are then exact
        // windowed convolutions).
        let p = pdn();
        let fam =
            FamilyMonitorDesign::new(&p, 256, WaveletFamily::Haar, BoundaryMode::Periodic).unwrap();
        let haar = WaveletMonitorDesign::new(&p, 256).unwrap();
        let mut mf = fam.build(256, 0).unwrap();
        let mut mh = haar.build(256, 0).unwrap();
        let mut sim = p.simulator();
        for n in 0..2000 {
            let i = 35.0 + 20.0 * ((n as f64) * 0.23).sin();
            let v = sim.step(i);
            let s = CycleSense {
                current: i,
                voltage: v,
            };
            let ef = mf.observe(s);
            let eh = mh.observe(s);
            assert!((ef - eh).abs() < 1e-9, "n = {n}: {ef} vs {eh}");
        }
    }

    #[test]
    fn smoother_families_compress_the_ringing_response_harder() {
        // The resonant impulse response is smooth (a damped sinusoid):
        // at a fixed coefficient budget the higher-order bases should
        // reconstruct it at least as well as Haar does.
        let p = pdn();
        let err = |f: WaveletFamily| {
            FamilyMonitorDesign::new(&p, 256, f, BoundaryMode::Periodic)
                .unwrap()
                .kernel_error(13)
        };
        let haar = err(WaveletFamily::Haar);
        let db3 = err(WaveletFamily::Db3);
        assert!(haar > 0.0 && db3 > 0.0);
        assert!(
            db3 < haar * 1.5,
            "db3 err {db3} should not be far above haar {haar}"
        );
    }

    #[test]
    fn kernel_error_decreases_with_k_and_hits_zero() {
        let p = pdn();
        let d =
            FamilyMonitorDesign::new(&p, 256, WaveletFamily::Db5, BoundaryMode::Periodic).unwrap();
        let mut last = f64::INFINITY;
        for k in [1, 4, 13, 64, d.coefficient_count()] {
            let e = d.kernel_error(k);
            assert!(e <= last + 1e-12, "k {k}: {e} > {last}");
            last = e;
        }
        assert!(last < 1e-9, "full-rank error {last}");
    }

    #[test]
    fn truncated_monitor_tracks_voltage_on_stressor() {
        let p = pdn();
        let d =
            FamilyMonitorDesign::new(&p, 256, WaveletFamily::Db3, BoundaryMode::Periodic).unwrap();
        let mut mon = d.build(20, 0).unwrap();
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
        assert!(worst < 0.03, "db3 20-term worst error {worst}");
        assert_eq!(mon.term_count(), 20);
        assert_eq!(mon.name(), "wavelet-family");
    }

    #[test]
    fn expansive_boundary_designs_work_too() {
        let p = pdn();
        for mode in BoundaryMode::EXTENSIONS {
            let d = FamilyMonitorDesign::new(&p, 256, WaveletFamily::Db4, mode).unwrap();
            assert!(d.coefficient_count() >= 256, "{}", mode.name());
            // Full rank reconstructs the kernel exactly for every mode.
            let kernel = d.kernel(d.coefficient_count()).unwrap();
            let h = p.impulse_response(256);
            for (a, b) in kernel.iter().zip(&h) {
                assert!((a - b).abs() < 1e-10, "{}", mode.name());
            }
        }
    }

    #[test]
    fn delay_pipeline_shifts_estimates() {
        let p = pdn();
        let d =
            FamilyMonitorDesign::new(&p, 256, WaveletFamily::Db2, BoundaryMode::Periodic).unwrap();
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
        for n in 2..50 {
            assert!((outs2[n] - outs0[n - 2]).abs() < 1e-12, "n = {n}");
        }
        assert_eq!(m2.delay(), 2);
    }
}
