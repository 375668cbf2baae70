//! Per-scale current→voltage variance gain calibration (paper §4.1).
//!
//! "We performed a series of experiments that allowed us to isolate the
//! effects that wavelet variance and correlation had on each detail
//! scale level. This provided us with multiplicative factors that we
//! used to relate current variation to voltage variation."
//!
//! For each Haar scale `j` we synthesize current noise whose energy lives
//! *only* on that scale, with a controlled lag-1 correlation between
//! adjacent detail coefficients, pass it through the PDN, and record the
//! ratio of output voltage variance to input current variance. Strong
//! positive adjacent correlation concentrates energy at the low end of
//! the scale's octave (longer effective pulses); strong negative
//! correlation pushes it to the high end — which is why the factor is a
//! function of both scale and correlation.

use crate::DidtError;
use didt_dsp::{dwt, idwt, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use didt_stats::variance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Correlation grid points used during calibration.
const RHO_GRID: [f64; 5] = [-0.8, -0.4, 0.0, 0.4, 0.8];

/// Calibrated multiplicative factors `gain(level, ρ)` mapping per-scale
/// current variance to voltage variance for one PDN.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::characterize::ScaleGainModel;
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let model = ScaleGainModel::calibrate(&pdn, 256, 7)?;
/// // Scales near the 30-cycle resonant period dominate.
/// let g4 = model.gain(4, 0.0)?; // 16-cycle span
/// let g1 = model.gain(1, 0.0)?; // 2-cycle span: far above resonance
/// assert!(g4 > g1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleGainModel {
    window: usize,
    levels: usize,
    /// `gains[level - 1][rho_index]`.
    gains: Vec<[f64; 5]>,
    /// IR-drop slope: the PDN's DC resistance (paper: "the voltage mean
    /// is just the IR drop").
    resistance: f64,
    vdd: f64,
    /// The wavelet family the per-scale factors were calibrated in; the
    /// variance model must decompose its windows in the same basis.
    family: WaveletFamily,
}

impl ScaleGainModel {
    /// Calibrate against `pdn` for `window`-cycle analyses (a power of
    /// two; the paper uses 256). Deterministic in `seed`. Uses the
    /// paper's Haar basis; see [`Self::calibrate_family`] for the
    /// generalized ladder.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window.
    pub fn calibrate(pdn: &SecondOrderPdn, window: usize, seed: u64) -> Result<Self, DidtError> {
        Self::calibrate_family(pdn, window, seed, WaveletFamily::Haar)
    }

    /// Calibrate per-scale gains in an arbitrary [`WaveletFamily`] basis.
    ///
    /// Identical procedure to [`Self::calibrate`] (synthesize AR(1)
    /// detail noise per scale, measure the PDN's variance response), but
    /// the noise is synthesized and re-analyzed in `family`'s filter
    /// bank. Longer filters cannot run the periodic pyramid all the way
    /// down — the depth is capped so every step is at least one filter
    /// long (`floor(log2(window / taps)) + 1` levels), which is why a
    /// db8 model on a 256 window calibrates 5 levels where Haar
    /// calibrates 8. With `WaveletFamily::Haar` this is bit-identical to
    /// [`Self::calibrate`].
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an invalid window (or one
    /// shorter than the family's filter).
    pub fn calibrate_family(
        pdn: &SecondOrderPdn,
        window: usize,
        seed: u64,
        family: WaveletFamily,
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
        let levels = family.periodic_levels(window);
        // 48 windows of synthetic noise per (level, rho) point: the first
        // 8 settle the filter, the rest are measured.
        let tiles = 48usize;
        let settle = 8usize;
        let mut gains = Vec::with_capacity(levels);
        for level in 1..=levels {
            let mut row = [0.0f64; 5];
            for (ri, &rho) in RHO_GRID.iter().enumerate() {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ ((level as u64) << 32) ^ (ri as u64) << 8);
                // Build a long signal whose only nonzero wavelet content
                // is AR(1) detail coefficients at `level`.
                let mut signal = Vec::with_capacity(tiles * window);
                let mut prev = 0.0f64;
                let innov = (1.0 - rho * rho).sqrt();
                // All-zero decomposition reused across tiles; only the
                // `level` detail row is (fully) rewritten per tile.
                let mut decomp = dwt(&vec![0.0f64; window], family, levels)?;
                for _ in 0..tiles {
                    {
                        let d = decomp.detail_mut(level)?;
                        for x in d.iter_mut() {
                            // Gaussian-ish innovation from a CLT sum.
                            let g: f64 =
                                (0..6).map(|_| rng.random::<f64>()).sum::<f64>() * 2.0 - 6.0;
                            prev = rho * prev + innov * g;
                            *x = prev;
                        }
                    }
                    signal.extend(idwt(&decomp)?);
                }
                let i_var = variance(&signal);
                if i_var <= 0.0 {
                    row[ri] = 0.0;
                    continue;
                }
                // Offset by a DC level so the PDN sees realistic input;
                // DC affects only the mean, not the variance.
                let trace: Vec<f64> = signal.iter().map(|&x| 30.0 + x).collect();
                let v = pdn.simulate(&trace);
                let measured = &v[settle * window..];
                row[ri] = variance(measured) / i_var;
            }
            gains.push(row);
        }
        Ok(ScaleGainModel {
            window,
            levels,
            gains,
            resistance: pdn.resistance(),
            vdd: pdn.vdd(),
            family,
        })
    }

    /// Analysis window length.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of decomposition levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The wavelet family the gains were calibrated in.
    #[must_use]
    pub fn family(&self) -> WaveletFamily {
        self.family
    }

    /// PDN DC resistance (for the IR-drop mean estimate).
    #[must_use]
    pub fn resistance(&self) -> f64 {
        self.resistance
    }

    /// Nominal supply voltage.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The gain for `level` at adjacent-coefficient correlation `rho`
    /// (linearly interpolated on the calibration grid, clamped to its
    /// ends).
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for an out-of-range level.
    pub fn gain(&self, level: usize, rho: f64) -> Result<f64, DidtError> {
        if level == 0 || level > self.levels {
            return Err(DidtError::InvalidConfig {
                name: "level",
                reason: "level out of calibrated range",
            });
        }
        let row = &self.gains[level - 1];
        let rho = rho.clamp(RHO_GRID[0], RHO_GRID[4]);
        // Locate the grid segment.
        let mut hi = 1;
        while hi < RHO_GRID.len() - 1 && RHO_GRID[hi] < rho {
            hi += 1;
        }
        let lo = hi - 1;
        let t = (rho - RHO_GRID[lo]) / (RHO_GRID[hi] - RHO_GRID[lo]);
        Ok(row[lo] + t * (row[hi] - row[lo]))
    }

    /// The raw calibration grid, `rows[level - 1][rho_index]` over the
    /// fixed ρ grid `[-0.8, -0.4, 0.0, 0.4, 0.8]`. This is the model's
    /// entire learned state; together with [`Self::window`],
    /// [`Self::resistance`], [`Self::vdd`] and [`Self::family`] it is
    /// what cache-warming snapshots ship between serve workers.
    #[must_use]
    pub fn gain_rows(&self) -> &[[f64; 5]] {
        &self.gains
    }

    /// Reassemble a model from parts previously read out of another
    /// process's model (the cache-warming snapshot path). The level
    /// count is implied by `gains.len()`. Bit-identical round-trip:
    /// `from_parts(m.window(), m.gain_rows().to_vec(), m.resistance(),
    /// m.vdd(), m.family())` compares equal to `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] for a non-power-of-two or
    /// undersized window, an empty or oversized gain grid, or
    /// non-finite parameters.
    pub fn from_parts(
        window: usize,
        gains: Vec<[f64; 5]>,
        resistance: f64,
        vdd: f64,
        family: WaveletFamily,
    ) -> Result<Self, DidtError> {
        if !window.is_power_of_two() || window < 8 {
            return Err(DidtError::InvalidConfig {
                name: "window",
                reason: "window must be a power of two, at least 8",
            });
        }
        let levels = gains.len();
        if levels == 0 || (1usize << levels) > window {
            return Err(DidtError::InvalidConfig {
                name: "gains",
                reason: "gain grid must hold between 1 and log2(window) levels",
            });
        }
        if !resistance.is_finite()
            || !vdd.is_finite()
            || gains.iter().flatten().any(|g| !g.is_finite())
        {
            return Err(DidtError::InvalidConfig {
                name: "gains",
                reason: "snapshot parameters must be finite",
            });
        }
        Ok(ScaleGainModel {
            window,
            levels,
            gains,
            resistance,
            vdd,
            family,
        })
    }

    /// Levels ranked by their zero-correlation gain, strongest first —
    /// used to pick the "4 of 8 levels" of the paper's Figure 8.
    #[must_use]
    pub fn levels_by_gain(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (1..=self.levels).collect();
        order.sort_by(|&a, &b| self.gains[b - 1][2].total_cmp(&self.gains[a - 1][2]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn model() -> ScaleGainModel {
        ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap()
    }

    #[test]
    fn resonant_scales_have_largest_gain() {
        let m = model();
        let ranked = m.levels_by_gain();
        // 30-cycle period → spans 16/32 (levels 4/5) lead.
        assert!(
            ranked[0] == 4 || ranked[0] == 5,
            "top level {} unexpected",
            ranked[0]
        );
        let top: Vec<usize> = ranked[..3].to_vec();
        assert!(top.contains(&4) && top.contains(&5), "top3 {top:?}");
    }

    #[test]
    fn gains_positive_and_finite() {
        let m = model();
        for level in 1..=m.levels() {
            for rho in [-0.8, -0.3, 0.0, 0.5, 0.8] {
                let g = m.gain(level, rho).unwrap();
                assert!(g.is_finite() && g >= 0.0, "level {level} rho {rho}: {g}");
            }
        }
    }

    #[test]
    fn interpolation_hits_grid_points_and_clamps() {
        let m = model();
        let g_grid = m.gain(4, 0.4).unwrap();
        let g_between = m.gain(4, 0.2).unwrap();
        let g0 = m.gain(4, 0.0).unwrap();
        // Interpolated value lies between the bracketing grid values.
        let (lo, hi) = if g0 < g_grid {
            (g0, g_grid)
        } else {
            (g_grid, g0)
        };
        assert!(g_between >= lo - 1e-15 && g_between <= hi + 1e-15);
        // Clamped outside the grid.
        assert_eq!(m.gain(4, 0.95).unwrap(), m.gain(4, 0.8).unwrap());
        assert_eq!(m.gain(4, -0.95).unwrap(), m.gain(4, -0.8).unwrap());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ScaleGainModel::calibrate(&pdn(), 100, 1).is_err());
        let m = model();
        assert!(m.gain(0, 0.0).is_err());
        assert!(m.gain(9, 0.0).is_err());
    }

    #[test]
    fn from_parts_round_trips_bit_exactly() {
        let m = model();
        let rebuilt = ScaleGainModel::from_parts(
            m.window(),
            m.gain_rows().to_vec(),
            m.resistance(),
            m.vdd(),
            m.family(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn from_parts_rejects_bad_snapshots() {
        let m = model();
        let rows = m.gain_rows().to_vec();
        // Non-power-of-two window.
        assert!(ScaleGainModel::from_parts(100, rows.clone(), 1.0, 1.0, m.family()).is_err());
        // Empty grid.
        assert!(ScaleGainModel::from_parts(256, Vec::new(), 1.0, 1.0, m.family()).is_err());
        // More levels than log2(window).
        assert!(ScaleGainModel::from_parts(8, rows.clone(), 1.0, 1.0, m.family()).is_err());
        // Non-finite parameter.
        assert!(ScaleGainModel::from_parts(256, rows, f64::NAN, 1.0, m.family()).is_err());
    }

    #[test]
    fn correlation_changes_the_gain() {
        // At the scale just below the resonant span, positive adjacent
        // correlation shifts energy toward resonance, raising the gain.
        let m = model();
        let g_pos = m.gain(3, 0.8).unwrap();
        let g_neg = m.gain(3, -0.8).unwrap();
        assert!(
            (g_pos - g_neg).abs() / g_pos.max(g_neg) > 0.1,
            "correlation has no effect: {g_pos} vs {g_neg}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ScaleGainModel::calibrate(&pdn(), 64, 5).unwrap();
        let b = ScaleGainModel::calibrate(&pdn(), 64, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn family_haar_calibration_is_the_legacy_calibration() {
        let a = ScaleGainModel::calibrate(&pdn(), 64, 9).unwrap();
        let b = ScaleGainModel::calibrate_family(&pdn(), 64, 9, WaveletFamily::Haar).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.family(), WaveletFamily::Haar);
    }

    #[test]
    fn family_calibration_caps_depth_by_filter_length() {
        // 64-cycle window: Haar runs 6 levels, db8 (16 taps) only 3
        // (the coarsest periodic step must still hold one filter).
        let haar = ScaleGainModel::calibrate_family(&pdn(), 64, 9, WaveletFamily::Haar).unwrap();
        let db8 = ScaleGainModel::calibrate_family(&pdn(), 64, 9, WaveletFamily::Db8).unwrap();
        assert_eq!(haar.levels(), 6);
        assert_eq!(db8.levels(), 3);
        assert_eq!(db8.family(), WaveletFamily::Db8);
        for level in 1..=db8.levels() {
            for rho in [-0.8, 0.0, 0.8] {
                let g = db8.gain(level, rho).unwrap();
                assert!(g.is_finite() && g >= 0.0, "level {level} rho {rho}: {g}");
            }
        }
        // A window shorter than the filter is rejected outright.
        assert!(ScaleGainModel::calibrate_family(&pdn(), 8, 9, WaveletFamily::Db8).is_err());
    }

    #[test]
    fn family_resonant_scales_still_dominate() {
        // The physics doesn't care about the basis: scales spanning the
        // 30-cycle resonant period must lead in any family.
        let m = ScaleGainModel::calibrate_family(&pdn(), 256, 11, WaveletFamily::Db3).unwrap();
        let ranked = m.levels_by_gain();
        assert!(
            ranked[0] == 4 || ranked[0] == 5,
            "db3 top level {} unexpected",
            ranked[0]
        );
    }

    #[test]
    fn gain_scales_with_impedance_squared_percentwise() {
        // 150 % impedance → voltage amplitudes ×1.5 → variance ×2.25.
        let base = model();
        let big = ScaleGainModel::calibrate(&pdn().scaled(1.5).unwrap(), 256, 11).unwrap();
        let ratio = big.gain(4, 0.0).unwrap() / base.gain(4, 0.0).unwrap();
        assert!((ratio - 2.25).abs() < 0.2, "ratio {ratio}");
    }
}
