//! The standard experimental setup: Table 1 processor + calibrated PDN.

use crate::DidtError;
use didt_pdn::{calibrate_target_impedance, CalibratedPdn, SecondOrderPdn};
use didt_uarch::ProcessorConfig;

/// Resonant frequency of the reference PDN (middle of the paper's
/// 50–200 MHz danger band).
const PDN_RESONANCE_HZ: f64 = 100.0e6;

/// Quality factor of the reference PDN. Production networks are heavily
/// damped by decap ESR; peak impedance ≈ Q² · R_dc ≈ 5 × R_dc.
const PDN_Q: f64 = 2.2;

/// Voltage tolerance: ±5 % of Vdd (paper §3).
const VOLTAGE_TOLERANCE: f64 = 0.05;

/// Idle current of the Table 1 machine (amperes at 1 V): base
/// clock-tree/leakage power of the Wattch model.
const STRESSOR_I_LOW: f64 = 12.0;

/// Sustained full-throttle current of the Table 1 machine (amperes at
/// 1 V): 4-wide issue with expensive ops and memory traffic.
const STRESSOR_I_HIGH: f64 = 55.0;

/// The full experimental system: processor configuration plus a PDN
/// calibrated so that the worst-case stressor exactly grazes the ±5 %
/// band at 100 % target impedance.
///
/// All figure reproductions build on this setup; experiments that study
/// weaker supplies use [`DidtSystem::pdn_at`] with 125/150/200 %.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::DidtSystem;
///
/// let sys = DidtSystem::standard()?;
/// let pdn150 = sys.pdn_at(150.0)?;
/// assert!(pdn150.resistance() > sys.pdn_at(100.0)?.resistance());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DidtSystem {
    processor: ProcessorConfig,
    calibrated: CalibratedPdn,
}

impl DidtSystem {
    /// Build the standard system: Table 1 processor, 100 MHz / Q = 2.2
    /// PDN calibrated against the machine's real current envelope.
    ///
    /// # Errors
    ///
    /// Propagates [`didt_pdn::PdnError`] if calibration fails (it cannot
    /// for these constants).
    pub fn standard() -> Result<Self, DidtError> {
        let processor = ProcessorConfig::table1();
        let calibrated = calibrate_target_impedance(
            PDN_RESONANCE_HZ,
            PDN_Q,
            processor.vdd,
            processor.clock_hz,
            VOLTAGE_TOLERANCE,
            STRESSOR_I_HIGH,
            STRESSOR_I_LOW,
        )?;
        Ok(DidtSystem {
            processor,
            calibrated,
        })
    }

    /// The processor configuration (paper Table 1).
    #[must_use]
    pub fn processor(&self) -> &ProcessorConfig {
        &self.processor
    }

    /// The calibration record (100 % network, stressor, band edges).
    #[must_use]
    pub fn calibration(&self) -> &CalibratedPdn {
        &self.calibrated
    }

    /// The PDN at `percent` of target impedance.
    ///
    /// # Errors
    ///
    /// Returns [`didt_pdn::PdnError`] for non-positive percentages.
    pub fn pdn_at(&self, percent: f64) -> Result<SecondOrderPdn, DidtError> {
        Ok(self.calibrated.at_percent(percent)?)
    }

    /// Lowest legal voltage (0.95 V).
    #[must_use]
    pub fn v_min(&self) -> f64 {
        self.calibrated.v_min()
    }

    /// Highest legal voltage (1.05 V).
    #[must_use]
    pub fn v_max(&self) -> f64 {
        self.calibrated.v_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_system_builds() {
        let sys = DidtSystem::standard().unwrap();
        assert!((sys.v_min() - 0.95).abs() < 1e-12);
        assert!((sys.v_max() - 1.05).abs() < 1e-12);
        let pdn = sys.pdn_at(100.0).unwrap();
        assert!((pdn.resonant_frequency() - PDN_RESONANCE_HZ).abs() < 1.0);
        assert!((pdn.q_factor() - PDN_Q).abs() < 1e-9);
    }

    #[test]
    fn stressor_grazes_band_at_100_percent() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(100.0).unwrap();
        let v = pdn.simulate(&sys.calibration().stressor());
        let worst = v.iter().map(|&x| (x - 1.0).abs()).fold(0.0f64, f64::max);
        assert!((worst - VOLTAGE_TOLERANCE).abs() < 2e-3, "worst {worst}");
    }

    #[test]
    fn weaker_networks_fault_on_stressor() {
        let sys = DidtSystem::standard().unwrap();
        for pct in [125.0, 150.0, 200.0] {
            let v = sys
                .pdn_at(pct)
                .unwrap()
                .simulate(&sys.calibration().stressor());
            let vmin = v.iter().copied().fold(f64::INFINITY, f64::min);
            assert!(vmin < sys.v_min(), "{pct}%: {vmin}");
        }
    }

    #[test]
    fn resistance_gives_small_ir_drop_at_idle() {
        // Idle IR drop must stay well inside the band.
        let sys = DidtSystem::standard().unwrap();
        let r = sys.pdn_at(200.0).unwrap().resistance();
        assert!(
            STRESSOR_I_LOW * r < 0.03,
            "idle drop {}",
            STRESSOR_I_LOW * r
        );
    }
}
