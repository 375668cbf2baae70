//! Wavelet-packet variance model (extension beyond the paper).
//!
//! The paper's §4 model decomposes current variance across octave-spaced
//! DWT scales. Around the PDN resonance the octaves are coarse: one scale
//! spans 50–100 MHz, the next 100–200 MHz. A uniform wavelet *packet*
//! bank splits the spectrum into `2^depth` equal bands, so the gains can
//! follow the impedance peak much more closely — at the price of a
//! costlier transform. This module mirrors [`super::ScaleGainModel`] +
//! [`super::VarianceModel`] with packet bands and plugs into the same
//! [`super::EmergencyEstimator`] through the [`WindowModel`] trait.

use crate::characterize::{EstimateScratch, VarianceModel, WindowEstimate};
use crate::DidtError;
use didt_dsp::packet::{wavelet_packet, WaveletPacket};
use didt_dsp::WaveletFamily;
use didt_pdn::SecondOrderPdn;
use didt_stats::{mean, variance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Anything that can turn a current window into a voltage mean/variance
/// estimate. Implemented by the paper's [`VarianceModel`] and the packet
/// extension [`PacketVarianceModel`], so the benchmark-level estimator
/// can run with either.
pub trait WindowModel {
    /// Required window length in cycles.
    fn window(&self) -> usize;

    /// Estimate voltage mean/variance for one window.
    ///
    /// # Errors
    ///
    /// Implementations return [`DidtError::TraceTooShort`] on length
    /// mismatch and propagate transform errors.
    fn estimate(&self, window: &[f64]) -> Result<WindowEstimate, DidtError>;

    /// [`WindowModel::estimate`] with caller-provided scratch buffers,
    /// so a window loop reuses one set of transform buffers:
    /// [`super::EmergencyEstimator::estimate_trace`] calls it once per
    /// window with one shared scratch. Models without reusable buffers
    /// ignore the scratch; the default just forwards.
    ///
    /// # Errors
    ///
    /// Identical to [`WindowModel::estimate`].
    fn estimate_scratch(
        &self,
        window: &[f64],
        _scratch: &mut EstimateScratch,
    ) -> Result<WindowEstimate, DidtError> {
        self.estimate(window)
    }
}

impl WindowModel for VarianceModel {
    fn window(&self) -> usize {
        self.gains().window()
    }

    fn estimate(&self, window: &[f64]) -> Result<WindowEstimate, DidtError> {
        VarianceModel::estimate(self, window)
    }

    fn estimate_scratch(
        &self,
        window: &[f64],
        scratch: &mut EstimateScratch,
    ) -> Result<WindowEstimate, DidtError> {
        self.estimate_with(window, scratch)
    }
}

/// Per-band current→voltage variance gains over a uniform packet bank.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::characterize::{PacketVarianceModel, WindowModel};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let model = PacketVarianceModel::calibrate(&pdn, 64, 3, 7)?;
/// let window: Vec<f64> = (0..64).map(|n| 30.0 + ((n / 15) % 2) as f64 * 20.0).collect();
/// let est = model.estimate(&window)?;
/// assert!(est.v_variance > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PacketVarianceModel {
    window: usize,
    depth: usize,
    /// `gains[frequency_rank]`.
    gains: Vec<f64>,
    resistance: f64,
    vdd: f64,
}

impl PacketVarianceModel {
    /// Calibrate per-band gains against `pdn` for `window`-cycle analyses
    /// with a `depth`-level packet split, by synthesizing band-limited
    /// noise per band and measuring the PDN's variance response.
    /// Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window/depth
    /// combination.
    pub fn calibrate(
        pdn: &SecondOrderPdn,
        window: usize,
        depth: usize,
        seed: u64,
    ) -> Result<Self, DidtError> {
        if window < 8 || !window.is_power_of_two() {
            return Err(DidtError::InvalidConfig {
                name: "window",
                reason: "window must be a power of two >= 8",
            });
        }
        let bands = 1usize << depth;
        if depth == 0 || window / bands < 2 {
            return Err(DidtError::InvalidConfig {
                name: "depth",
                reason: "depth must be >= 1 and leave >= 2 coefficients per band",
            });
        }
        let band_len = window / bands;
        let tiles = 48usize;
        let settle = 8usize;
        let mut gains = vec![0.0f64; bands];
        for (rank, gain) in gains.iter_mut().enumerate() {
            let mut rng = SmallRng::seed_from_u64(seed ^ ((rank as u64) << 24) ^ 0x9ACE);
            let mut signal = Vec::with_capacity(tiles * window);
            for _ in 0..tiles {
                // Coefficients only in the band with this frequency rank.
                let mut rows = vec![vec![0.0f64; band_len]; bands];
                // Build a probe packet to map rank → natural index.
                let natural = (rank ^ (rank >> 1)) & (bands - 1);
                for x in &mut rows[natural] {
                    let g: f64 = (0..6).map(|_| rng.random::<f64>()).sum::<f64>() * 2.0 - 6.0;
                    *x = g;
                }
                let wp = WaveletPacket::from_bands(rows, WaveletFamily::Haar)?;
                signal.extend(wp.inverse());
            }
            let i_var = variance(&signal);
            if i_var <= 0.0 {
                continue;
            }
            let trace: Vec<f64> = signal.iter().map(|&x| 30.0 + x).collect();
            let v = pdn.simulate(&trace);
            *gain = variance(&v[settle * window..]) / i_var;
        }
        Ok(PacketVarianceModel {
            window,
            depth,
            gains,
            resistance: pdn.resistance(),
            vdd: pdn.vdd(),
        })
    }

    /// Packet depth (bands = `2^depth`).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Per-band gains, indexed by frequency rank (0 = DC band).
    #[must_use]
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }
}

impl WindowModel for PacketVarianceModel {
    fn window(&self) -> usize {
        self.window
    }

    fn estimate(&self, window: &[f64]) -> Result<WindowEstimate, DidtError> {
        if window.len() != self.window {
            return Err(DidtError::TraceTooShort {
                needed: self.window,
                got: window.len(),
            });
        }
        let wp = wavelet_packet(window, WaveletFamily::Haar, self.depth)?;
        let n = window.len() as f64;
        let mut v_variance = 0.0;
        for natural in 0..wp.num_bands() {
            let rank = wp.frequency_rank(natural);
            let band_var = if rank == 0 {
                // The DC band carries the window mean; its *variance*
                // contribution is the energy around that mean.
                let b = wp.band(natural);
                let bm = mean(b);
                b.iter().map(|x| (x - bm) * (x - bm)).sum::<f64>() / n
            } else {
                wp.band_energy(natural) / n
            };
            v_variance += self.gains[rank] * band_var;
        }
        let i_mean = mean(window);
        Ok(WindowEstimate {
            v_mean: self.vdd - i_mean * self.resistance,
            v_variance,
            i_mean,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn model() -> PacketVarianceModel {
        PacketVarianceModel::calibrate(&pdn(), 64, 3, 11).unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(PacketVarianceModel::calibrate(&pdn(), 100, 3, 1).is_err());
        assert!(PacketVarianceModel::calibrate(&pdn(), 64, 0, 1).is_err());
        assert!(PacketVarianceModel::calibrate(&pdn(), 64, 6, 1).is_err());
    }

    #[test]
    fn gains_peak_near_resonance() {
        // 64-cycle window, 8 bands of fs/16 each: resonance at fs/30
        // (100 MHz at 3 GHz) lands in band rank 0..1 boundary region —
        // low-rank bands must dominate the top ranks.
        let m = model();
        let low: f64 = m.gains()[..3].iter().sum();
        let high: f64 = m.gains()[5..].iter().sum();
        assert!(low > 3.0 * high, "low {low} vs high {high}");
    }

    #[test]
    fn constant_window_zero_variance() {
        let m = model();
        let est = m.estimate(&vec![25.0; 64]).unwrap();
        assert!(est.v_variance < 1e-12);
        assert!((est.v_mean - (1.0 - 25.0 * pdn().resistance())).abs() < 1e-12);
    }

    #[test]
    fn resonant_window_beats_offresonant() {
        let m = model();
        let res: Vec<f64> = (0..64)
            .map(|n| 30.0 + if (n / 15) % 2 == 0 { 10.0 } else { -10.0 })
            .collect();
        let fast: Vec<f64> = (0..64)
            .map(|n| 30.0 + if n % 2 == 0 { 10.0 } else { -10.0 })
            .collect();
        let vr = m.estimate(&res).unwrap().v_variance;
        let vf = m.estimate(&fast).unwrap().v_variance;
        assert!(vr > 5.0 * vf, "resonant {vr} vs fast {vf}");
    }

    #[test]
    fn comparable_to_dwt_scale_model_on_resonant_input() {
        use crate::characterize::{ScaleGainModel, VarianceModel};
        let dwt_model = VarianceModel::new(ScaleGainModel::calibrate(&pdn(), 64, 11).unwrap());
        let pk = model();
        let w: Vec<f64> = (0..64)
            .map(|n| 30.0 + if (n / 15) % 2 == 0 { 8.0 } else { -8.0 })
            .collect();
        let a = WindowModel::estimate(&dwt_model, &w).unwrap().v_variance;
        let b = pk.estimate(&w).unwrap().v_variance;
        let ratio = a / b;
        assert!((0.3..3.0).contains(&ratio), "dwt {a} vs packet {b}");
    }

    #[test]
    fn wrong_window_length_rejected() {
        assert!(model().estimate(&[1.0; 32]).is_err());
    }

    #[test]
    fn deterministic() {
        let a = PacketVarianceModel::calibrate(&pdn(), 64, 3, 5).unwrap();
        let b = PacketVarianceModel::calibrate(&pdn(), 64, 3, 5).unwrap();
        assert_eq!(a, b);
    }
}
