//! Two-stage power-delivery networks (extension beyond the paper).
//!
//! Real supplies have more than one resonance: the on-die/package loop
//! (mid-frequency, the paper's 50–200 MHz band) and a board-level loop
//! (lower frequency, bulk capacitors against the voltage regulator). A
//! common and accurate approximation is a **Foster network**: the total
//! impedance is the *sum* of second-order sections,
//! `Z(s) = Z₁(s) + Z₂(s)`, so the droop is the sum of two independent
//! biquad responses. Everything downstream (convolution monitors,
//! wavelet designs) only needs the composite impulse response, which is
//! simply `h₁ + h₂`.

use crate::model::SecondOrderPdn;
use crate::PdnError;

/// A two-resonance PDN: the sum of two second-order sections sharing
/// Vdd and the sampling clock.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_pdn::PdnError> {
/// use didt_pdn::{SecondOrderPdn, TwoStagePdn};
///
/// let die = SecondOrderPdn::from_resonance(100e6, 2.2, 3e-4, 1.0, 3e9)?;
/// let board = SecondOrderPdn::from_resonance(15e6, 3.0, 2e-4, 1.0, 3e9)?;
/// let pdn = TwoStagePdn::new(die, board)?;
/// // The composite impedance peaks near both resonances.
/// assert!(pdn.impedance_at(100e6) > pdn.impedance_at(300e6));
/// assert!(pdn.impedance_at(15e6) > pdn.impedance_at(2e6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStagePdn {
    die: SecondOrderPdn,
    board: SecondOrderPdn,
}

impl TwoStagePdn {
    /// Combine two sections. Both must share Vdd and clock.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when the sections disagree
    /// on Vdd or clock frequency.
    pub fn new(die: SecondOrderPdn, board: SecondOrderPdn) -> Result<Self, PdnError> {
        if (die.vdd() - board.vdd()).abs() > 1e-12 {
            return Err(PdnError::InvalidParameter {
                name: "vdd",
                value: board.vdd(),
            });
        }
        if (die.clock_hz() - board.clock_hz()).abs() > 1e-3 {
            return Err(PdnError::InvalidParameter {
                name: "clock_hz",
                value: board.clock_hz(),
            });
        }
        Ok(TwoStagePdn { die, board })
    }

    /// Nominal supply voltage.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.die.vdd()
    }

    /// Sampling clock (Hz).
    #[must_use]
    pub fn clock_hz(&self) -> f64 {
        self.die.clock_hz()
    }

    /// Total DC resistance (IR-drop slope): the sections add in series.
    #[must_use]
    pub fn resistance(&self) -> f64 {
        self.die.resistance() + self.board.resistance()
    }

    /// Composite impedance magnitude. Sections are summed as complex
    /// impedances would be in a Foster expansion; magnitudes of the
    /// (near-orthogonal in frequency) sections dominate near their own
    /// resonances, so the simple magnitude-of-sum is computed via each
    /// section's analytic value.
    #[must_use]
    pub fn impedance_at(&self, freq_hz: f64) -> f64 {
        // Summing magnitudes is an upper bound; the correct composite is
        // the magnitude of the complex sum. Compute it exactly.
        use didt_dsp::Complex;
        let z = |p: &SecondOrderPdn| {
            let w = 2.0 * std::f64::consts::PI * freq_hz;
            let s = Complex::new(0.0, w);
            let num = Complex::new(p.resistance(), 0.0) + s * p.inductance();
            let den = Complex::new(1.0, 0.0)
                + s * (p.resistance() * p.capacitance())
                + s * s * (p.inductance() * p.capacitance());
            num / den
        };
        (z(&self.die) + z(&self.board)).norm()
    }

    /// Composite impulse response: the sum of the two sections' impulse
    /// responses.
    #[must_use]
    pub fn impulse_response(&self, max_len: usize) -> Vec<f64> {
        let h1 = self.die.impulse_response(max_len);
        let h2 = self.board.impulse_response(max_len);
        h1.iter().zip(&h2).map(|(a, b)| a + b).collect()
    }

    /// Streaming simulator: two biquads in parallel.
    #[must_use]
    pub fn simulator(&self) -> TwoStageSimulator {
        TwoStageSimulator {
            die: self.die.droop_filter(),
            board: self.board.droop_filter(),
            vdd: self.vdd(),
        }
    }

    /// Simulate a full current trace.
    #[must_use]
    pub fn simulate(&self, current: &[f64]) -> Vec<f64> {
        let mut sim = self.simulator();
        current.iter().map(|&i| sim.step(i)).collect()
    }
}

/// Streaming voltage simulator for a [`TwoStagePdn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStageSimulator {
    die: crate::biquad::Biquad,
    board: crate::biquad::Biquad,
    vdd: f64,
}

impl TwoStageSimulator {
    /// Advance one cycle; returns the die voltage.
    pub fn step(&mut self, current: f64) -> f64 {
        self.vdd - self.die.step(current) - self.board.step(current)
    }

    /// Reset both sections.
    pub fn reset(&mut self) {
        self.die.reset();
        self.board.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> TwoStagePdn {
        let die = SecondOrderPdn::from_resonance(100e6, 2.2, 3e-4, 1.0, 3e9).unwrap();
        let board = SecondOrderPdn::from_resonance(15e6, 3.0, 2e-4, 1.0, 3e9).unwrap();
        TwoStagePdn::new(die, board).unwrap()
    }

    #[test]
    fn rejects_mismatched_sections() {
        let a = SecondOrderPdn::from_resonance(100e6, 2.0, 1e-4, 1.0, 3e9).unwrap();
        let b = SecondOrderPdn::from_resonance(15e6, 2.0, 1e-4, 1.2, 3e9).unwrap();
        assert!(TwoStagePdn::new(a, b).is_err());
        let c = SecondOrderPdn::from_resonance(15e6, 2.0, 1e-4, 1.0, 2e9).unwrap();
        assert!(TwoStagePdn::new(a, c).is_err());
    }

    #[test]
    fn has_two_local_impedance_peaks() {
        let pdn = two_stage();
        // Local maxima near both section resonances: each resonance
        // point beats its surrounding frequencies.
        let z15 = pdn.impedance_at(15e6);
        assert!(z15 > pdn.impedance_at(4e6));
        assert!(z15 > pdn.impedance_at(45e6));
        let z100 = pdn.impedance_at(100e6);
        assert!(z100 > pdn.impedance_at(45e6));
        assert!(z100 > pdn.impedance_at(400e6));
    }

    #[test]
    fn dc_resistance_adds() {
        let pdn = two_stage();
        assert!((pdn.resistance() - 5e-4).abs() < 1e-12);
        let v = pdn.simulate(&vec![40.0; 60_000]);
        let want = 1.0 - 40.0 * pdn.resistance();
        assert!((v[59_999] - want).abs() < 1e-5);
    }

    #[test]
    fn impulse_response_is_section_sum_and_simulation_matches() {
        let pdn = two_stage();
        let h = pdn.impulse_response(4096);
        let i: Vec<f64> = (0..800)
            .map(|n| 30.0 + 15.0 * ((n as f64) * 0.2).sin())
            .collect();
        let v = pdn.simulate(&i);
        let droop = didt_dsp::fir_filter(&i, &h);
        for n in 0..i.len() {
            assert!((v[n] - (1.0 - droop[n])).abs() < 1e-8, "n = {n}");
        }
    }

    #[test]
    fn superposition_still_holds() {
        let pdn = two_stage();
        let a: Vec<f64> = (0..400).map(|n| 20.0 + (n % 7) as f64).collect();
        let b: Vec<f64> = (0..400).map(|n| 10.0 + (n % 13) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let va = pdn.simulate(&a);
        let vb = pdn.simulate(&b);
        let vs = pdn.simulate(&sum);
        for n in 0..400 {
            let lhs = vs[n] - 1.0;
            let rhs = (va[n] - 1.0) + (vb[n] - 1.0);
            assert!((lhs - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn simulator_reset() {
        let pdn = two_stage();
        let mut sim = pdn.simulator();
        for _ in 0..100 {
            sim.step(60.0);
        }
        sim.reset();
        assert!((sim.step(0.0) - 1.0).abs() < 1e-12);
    }
}
