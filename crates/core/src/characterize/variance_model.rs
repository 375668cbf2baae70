//! The five-step window voltage-variance model (paper §4.1).
//!
//! For each 256-cycle current window:
//!
//! 1. compute the DWT;
//! 2. take the variance of each wavelet scale (Parseval);
//! 3. compute the lag-1 correlation between adjacent detail coefficients
//!    per scale;
//! 4. map each scale's current variance through the calibrated
//!    multiplicative factor `gain(level, ρ)` and sum into an estimated
//!    voltage variance;
//! 5. plug the estimated mean (IR drop) and variance into a Gaussian
//!    model to get the probability of any voltage level.

use crate::characterize::ScaleGainModel;
use crate::DidtError;
use didt_dsp::{dwt_boundary_into, scale_variance, BoundaryMode, DwtScratch, WaveletDecomposition};
use didt_stats::{mean, Normal};

/// Reusable buffers for [`VarianceModel::estimate_with`].
///
/// The per-window DWT is the hot operation of the §4.1 characterization
/// sweep; keeping one `EstimateScratch` per worker makes it
/// allocation-free after the first window.
#[derive(Debug, Clone, Default)]
pub struct EstimateScratch {
    dwt: DwtScratch,
    decomp: WaveletDecomposition,
}

impl EstimateScratch {
    /// Empty scratch buffers (grow to fit on first use).
    #[must_use]
    pub fn new() -> Self {
        EstimateScratch::default()
    }
}

/// Per-window estimate produced by the variance model: the Gaussian
/// voltage model's two moments (step 5) and the mean current they come
/// from. The window's current variance is not part of it; the voltage
/// variance comes from the per-scale wavelet variances instead, and
/// [`didt_stats::variance`] gives the current variance where a caller
/// needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEstimate {
    /// Estimated mean voltage: `Vdd − I_mean · R`.
    pub v_mean: f64,
    /// Estimated voltage variance (V²).
    pub v_variance: f64,
    /// Mean current over the window (A).
    pub i_mean: f64,
}

impl WindowEstimate {
    /// Probability that the voltage sits below `threshold`, from the
    /// Gaussian model (step 5). Degenerate (zero-variance) windows give a
    /// 0/1 step at the mean.
    #[must_use]
    pub fn probability_below(&self, threshold: f64) -> f64 {
        if self.v_variance <= 1e-18 {
            return if self.v_mean < threshold { 1.0 } else { 0.0 };
        }
        match Normal::new(self.v_mean, self.v_variance.sqrt()) {
            Ok(n) => n.cdf(threshold),
            Err(_) => 0.0,
        }
    }

    /// Probability that the voltage sits above `threshold`.
    #[must_use]
    pub fn probability_above(&self, threshold: f64) -> f64 {
        if self.v_variance <= 1e-18 {
            return if self.v_mean > threshold { 1.0 } else { 0.0 };
        }
        match Normal::new(self.v_mean, self.v_variance.sqrt()) {
            Ok(n) => n.sf(threshold),
            Err(_) => 0.0,
        }
    }
}

/// The window-level voltage variance estimator.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::characterize::{ScaleGainModel, VarianceModel};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let gains = ScaleGainModel::calibrate(&pdn, 256, 7)?;
/// let model = VarianceModel::new(gains);
/// let window: Vec<f64> = (0..256).map(|n| 30.0 + ((n / 15) % 2) as f64 * 20.0).collect();
/// let est = model.estimate(&window)?;
/// assert!(est.v_mean < 1.0);          // IR drop
/// assert!(est.v_variance > 0.0);      // resonant square wave → ripple
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceModel {
    gains: ScaleGainModel,
    /// Levels used in the estimate, strongest gain first.
    active_levels: Vec<usize>,
    /// Boundary extension for the per-window decomposition. `Periodic`
    /// (the default) is the paper's convention and the bit-stable legacy
    /// path; the expansive modes exist for the `ext_wavelet_family`
    /// boundary-sensitivity study.
    boundary: BoundaryMode,
}

impl VarianceModel {
    /// Build the model using all calibrated levels (and the basis the
    /// gains were calibrated in — Haar for [`ScaleGainModel::calibrate`],
    /// the chosen family for [`ScaleGainModel::calibrate_family`]).
    #[must_use]
    pub fn new(gains: ScaleGainModel) -> Self {
        let active_levels = gains.levels_by_gain();
        VarianceModel {
            gains,
            active_levels,
            boundary: BoundaryMode::Periodic,
        }
    }

    /// Build the model keeping only the `keep` strongest levels — the
    /// truncation studied in the paper's Figure 8 (4 of 8 levels).
    #[must_use]
    pub fn with_level_budget(gains: ScaleGainModel, keep: usize) -> Self {
        let mut active_levels = gains.levels_by_gain();
        active_levels.truncate(keep.max(1));
        VarianceModel {
            gains,
            active_levels,
            boundary: BoundaryMode::Periodic,
        }
    }

    /// Build the model with an explicit [`BoundaryMode`] and optional
    /// level budget (`None` keeps every calibrated level) — the full
    /// parameter surface of the `ext_wavelet_family` study.
    #[must_use]
    pub fn with_boundary(
        gains: ScaleGainModel,
        keep: Option<usize>,
        boundary: BoundaryMode,
    ) -> Self {
        let mut model = match keep {
            Some(k) => Self::with_level_budget(gains, k),
            None => Self::new(gains),
        };
        model.boundary = boundary;
        model
    }

    /// The boundary extension used for per-window decompositions.
    #[must_use]
    pub fn boundary(&self) -> BoundaryMode {
        self.boundary
    }

    /// The calibrated gains in use.
    #[must_use]
    pub fn gains(&self) -> &ScaleGainModel {
        &self.gains
    }

    /// Estimate voltage mean and variance for one current window (length
    /// must equal the calibration window).
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::TraceTooShort`] on a length mismatch and
    /// propagates DWT errors.
    pub fn estimate(&self, window: &[f64]) -> Result<WindowEstimate, DidtError> {
        self.estimate_with(window, &mut EstimateScratch::new())
    }

    /// [`Self::estimate`] with caller-provided scratch buffers, making the
    /// per-window decomposition allocation-free across calls.
    ///
    /// # Errors
    ///
    /// Identical to [`Self::estimate`].
    pub fn estimate_with(
        &self,
        window: &[f64],
        scratch: &mut EstimateScratch,
    ) -> Result<WindowEstimate, DidtError> {
        if window.len() != self.gains.window() {
            return Err(DidtError::TraceTooShort {
                needed: self.gains.window(),
                got: window.len(),
            });
        }
        // The generic engine: for Haar/Periodic (every legacy caller)
        // this takes the exact legacy pyramid loop and stays
        // bit-identical to the old hard-coded `dwt_into(WaveletFamily::Haar, …)` call.
        dwt_boundary_into(
            window,
            self.gains.family(),
            self.gains.levels(),
            self.boundary,
            &mut scratch.dwt,
            &mut scratch.decomp,
        )?;
        let decomp = &scratch.decomp;
        let mut v_variance = 0.0;
        for level in 1..=decomp.levels() {
            if !self.active_levels.contains(&level) {
                continue;
            }
            let sv = scale_variance(level, decomp.detail(level)?, decomp.signal_len());
            let gain = self.gains.gain(level, sv.adjacent_correlation)?;
            v_variance += gain * sv.variance;
        }
        let i_mean = mean(window);
        Ok(WindowEstimate {
            v_mean: self.gains.vdd() - i_mean * self.gains.resistance(),
            v_variance,
            i_mean,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use didt_pdn::SecondOrderPdn;
    use didt_stats::variance;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn model() -> VarianceModel {
        VarianceModel::new(ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap())
    }

    fn resonant_window(amplitude: f64) -> Vec<f64> {
        // 30-cycle square wave around 30 A.
        (0..256)
            .map(|n| {
                30.0 + if (n / 15) % 2 == 0 {
                    amplitude
                } else {
                    -amplitude
                }
            })
            .collect()
    }

    #[test]
    fn constant_window_has_zero_variance_and_ir_mean() {
        let m = model();
        let est = m.estimate(&vec![40.0; 256]).unwrap();
        assert!(est.v_variance < 1e-15);
        let want = 1.0 - 40.0 * pdn().resistance();
        assert!((est.v_mean - want).abs() < 1e-12);
        assert_eq!(est.probability_below(0.97), 0.0);
    }

    #[test]
    fn estimate_tracks_true_voltage_variance_on_resonant_noise() {
        // Long synthetic trace of resonant square waves: compare the
        // model's per-window variance against the PDN-simulated truth.
        let m = model();
        let p = pdn();
        let window = resonant_window(15.0);
        let mut long = Vec::new();
        for _ in 0..40 {
            long.extend_from_slice(&window);
        }
        let v = p.simulate(&long);
        let true_var = variance(&v[2048..]);
        let est = m.estimate(&window).unwrap();
        let ratio = est.v_variance / true_var;
        assert!(
            (0.4..2.5).contains(&ratio),
            "estimated {} vs true {true_var} (ratio {ratio})",
            est.v_variance
        );
    }

    #[test]
    fn variance_scales_quadratically_with_amplitude() {
        let m = model();
        let e1 = m.estimate(&resonant_window(5.0)).unwrap();
        let e2 = m.estimate(&resonant_window(10.0)).unwrap();
        let ratio = e2.v_variance / e1.v_variance;
        assert!((ratio - 4.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn off_resonant_noise_contributes_less() {
        let m = model();
        // Same current variance at period 2 (750 MHz, way above
        // resonance) vs period 30 (resonant).
        let fast: Vec<f64> = (0..256)
            .map(|n| 30.0 + if n % 2 == 0 { 15.0 } else { -15.0 })
            .collect();
        let e_fast = m.estimate(&fast).unwrap();
        let e_res = m.estimate(&resonant_window(15.0)).unwrap();
        assert!(
            e_res.v_variance > 5.0 * e_fast.v_variance,
            "resonant {} vs fast {}",
            e_res.v_variance,
            e_fast.v_variance
        );
    }

    #[test]
    fn level_budget_changes_little_for_resonant_content() {
        // Figure 8: 4 of 8 levels loses under ~2 % for realistic content.
        let gains = ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap();
        let full = VarianceModel::new(gains.clone());
        let cut = VarianceModel::with_level_budget(gains, 4);
        let w = resonant_window(12.0);
        let vf = full.estimate(&w).unwrap().v_variance;
        let vc = cut.estimate(&w).unwrap().v_variance;
        let err = (vf - vc).abs() / vf;
        assert!(err < 0.05, "4-level truncation error {err}");
    }

    #[test]
    fn probability_below_monotone_in_threshold() {
        let m = model();
        let est = m.estimate(&resonant_window(15.0)).unwrap();
        let p95 = est.probability_below(0.95);
        let p97 = est.probability_below(0.97);
        let p99 = est.probability_below(0.99);
        assert!(p95 <= p97 && p97 <= p99);
        assert!((est.probability_below(0.97) + est.probability_above(0.97) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_with_reused_scratch_matches_estimate() {
        let m = model();
        let mut scratch = EstimateScratch::new();
        for amp in [3.0, 9.0, 15.0] {
            let w = resonant_window(amp);
            let fresh = m.estimate(&w).unwrap();
            let reused = m.estimate_with(&w, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "amp {amp}");
        }
    }

    #[test]
    fn family_models_estimate_comparably_to_haar() {
        // The db3 basis sees the same resonant energy; its estimate must
        // land in the same ballpark as Haar's (the ext_wavelet_family
        // question is about the *margin*, not the order of magnitude).
        use didt_dsp::WaveletFamily;
        let haar = model();
        let db3 = VarianceModel::new(
            ScaleGainModel::calibrate_family(&pdn(), 256, 11, WaveletFamily::Db3).unwrap(),
        );
        let w = resonant_window(12.0);
        let vh = haar.estimate(&w).unwrap().v_variance;
        let vd = db3.estimate(&w).unwrap().v_variance;
        assert!(vd > 0.0);
        let ratio = vd / vh;
        assert!(
            (0.2..5.0).contains(&ratio),
            "db3/haar variance ratio {ratio}"
        );
    }

    #[test]
    fn boundary_mode_perturbs_but_does_not_break_the_estimate() {
        use didt_dsp::BoundaryMode;
        let gains = ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap();
        let periodic = VarianceModel::new(gains.clone());
        let w = resonant_window(12.0);
        let vp = periodic.estimate(&w).unwrap().v_variance;
        for mode in BoundaryMode::EXTENSIONS {
            let m = VarianceModel::with_boundary(gains.clone(), None, mode);
            assert_eq!(m.boundary(), mode);
            let v = m.estimate(&w).unwrap().v_variance;
            let ratio = v / vp;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: variance ratio {ratio}",
                mode.name()
            );
        }
    }

    #[test]
    fn rejects_wrong_window_length() {
        let m = model();
        assert!(matches!(
            m.estimate(&[1.0; 128]),
            Err(DidtError::TraceTooShort {
                needed: 256,
                got: 128
            })
        ));
    }
}
