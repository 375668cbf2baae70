//! The second-order PDN model and its per-cycle voltage simulator.

use crate::biquad::Biquad;
use crate::PdnError;
use didt_dsp::Complex;

/// Second-order power-delivery-network model (paper §3.1).
///
/// Circuit: ideal regulator — series `R` + `L` — die node with decap `C`
/// — processor load current. Transfer impedance from load current to
/// die-voltage droop:
///
/// `Z(s) = (R + sL) / (1 + sRC + s²LC)`
///
/// The model is immutable; [`SecondOrderPdn::simulator`] hands out a
/// streaming [`VoltageSimulator`] discretized at the core clock via a
/// resonance-prewarped bilinear transform.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_pdn::PdnError> {
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 10.0, 4e-4, 1.0, 3e9)?;
/// // The impedance peaks at the resonant frequency.
/// let z_res = pdn.impedance_at(100e6);
/// assert!(z_res > pdn.impedance_at(10e6));
/// assert!(z_res > pdn.impedance_at(1e9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondOrderPdn {
    resistance: f64,
    inductance: f64,
    capacitance: f64,
    vdd: f64,
    clock_hz: f64,
}

impl SecondOrderPdn {
    /// Construct from explicit circuit values.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for non-positive or
    /// non-finite values, and [`PdnError::ResonanceAboveNyquist`] when
    /// the implied resonance is at or above `clock_hz / 2`.
    pub fn new(
        resistance: f64,
        inductance: f64,
        capacitance: f64,
        vdd: f64,
        clock_hz: f64,
    ) -> Result<Self, PdnError> {
        for (name, value) in [
            ("resistance", resistance),
            ("inductance", inductance),
            ("capacitance", capacitance),
            ("vdd", vdd),
            ("clock_hz", clock_hz),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(PdnError::InvalidParameter { name, value });
            }
        }
        let pdn = SecondOrderPdn {
            resistance,
            inductance,
            capacitance,
            vdd,
            clock_hz,
        };
        if pdn.resonant_frequency() >= clock_hz / 2.0 {
            return Err(PdnError::ResonanceAboveNyquist {
                resonance_hz: pdn.resonant_frequency(),
                clock_hz,
            });
        }
        Ok(pdn)
    }

    /// Construct from resonance parameters: resonant frequency `f0_hz`,
    /// quality factor `q`, and DC resistance `r_dc` (Ω).
    ///
    /// `L = Q·R/ω₀`, `C = 1/(Q·R·ω₀)` — so `1/√(LC) = ω₀` and
    /// `√(L/C)/R = Q` hold by construction.
    ///
    /// # Errors
    ///
    /// Same as [`SecondOrderPdn::new`].
    pub fn from_resonance(
        f0_hz: f64,
        q: f64,
        r_dc: f64,
        vdd: f64,
        clock_hz: f64,
    ) -> Result<Self, PdnError> {
        if !(f0_hz > 0.0 && f0_hz.is_finite()) {
            return Err(PdnError::InvalidParameter {
                name: "f0_hz",
                value: f0_hz,
            });
        }
        if !(q > 0.0 && q.is_finite()) {
            return Err(PdnError::InvalidParameter {
                name: "q",
                value: q,
            });
        }
        let w0 = 2.0 * std::f64::consts::PI * f0_hz;
        let inductance = q * r_dc / w0;
        let capacitance = 1.0 / (q * r_dc * w0);
        SecondOrderPdn::new(r_dc, inductance, capacitance, vdd, clock_hz)
    }

    /// Series resistance (Ω): the DC impedance, i.e. the IR-drop slope.
    #[must_use]
    pub fn resistance(&self) -> f64 {
        self.resistance
    }

    /// Series inductance (H).
    #[must_use]
    pub fn inductance(&self) -> f64 {
        self.inductance
    }

    /// Decoupling capacitance (F).
    #[must_use]
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }

    /// Nominal supply voltage (V).
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Discretization clock (Hz) — the processor core clock.
    #[must_use]
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Resonant frequency `1/(2π√(LC))` in Hz.
    #[must_use]
    pub fn resonant_frequency(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.inductance * self.capacitance).sqrt())
    }

    /// Resonant period in clock cycles.
    #[must_use]
    pub fn resonant_period_cycles(&self) -> f64 {
        self.clock_hz / self.resonant_frequency()
    }

    /// Quality factor `√(L/C)/R`.
    #[must_use]
    pub fn q_factor(&self) -> f64 {
        (self.inductance / self.capacitance).sqrt() / self.resistance
    }

    /// Analytic impedance magnitude `|Z(j2πf)|` in Ω.
    #[must_use]
    pub fn impedance_at(&self, freq_hz: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * freq_hz;
        let s = Complex::new(0.0, w);
        let num = Complex::new(self.resistance, 0.0) + s * self.inductance;
        let den = Complex::new(1.0, 0.0)
            + s * (self.resistance * self.capacitance)
            + s * s * (self.inductance * self.capacitance);
        (num / den).norm()
    }

    /// A copy of this network with its impedance scaled uniformly by
    /// `factor` at every frequency (`R·k`, `L·k`, `C/k`) — the paper's
    /// "X % target impedance" notion: `scaled(1.5)` is the 150 % network.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for a non-positive factor.
    pub fn scaled(&self, factor: f64) -> Result<Self, PdnError> {
        if !(factor > 0.0 && factor.is_finite()) {
            return Err(PdnError::InvalidParameter {
                name: "factor",
                value: factor,
            });
        }
        SecondOrderPdn::new(
            self.resistance * factor,
            self.inductance * factor,
            self.capacitance / factor,
            self.vdd,
            self.clock_hz,
        )
    }

    /// Build the discretized biquad for this network: input current (A),
    /// output droop (V), sampled at the core clock. The bilinear
    /// transform is prewarped at the resonant frequency so the peak lands
    /// exactly where the analog model puts it.
    #[must_use]
    pub fn droop_filter(&self) -> Biquad {
        let t = 1.0 / self.clock_hz;
        let w0 = 2.0 * std::f64::consts::PI * self.resonant_frequency();
        // Prewarped bilinear constant.
        let k = w0 / (w0 * t / 2.0).tan();
        // Analog H(s) = (b1 s + b0)/(a2 s² + a1 s + a0).
        let (b1s, b0s) = (self.inductance, self.resistance);
        let (a2s, a1s, a0s) = (
            self.inductance * self.capacitance,
            self.resistance * self.capacitance,
            1.0,
        );
        let a0 = a0s + a1s * k + a2s * k * k;
        let b = [(b0s + b1s * k) / a0, (2.0 * b0s) / a0, (b0s - b1s * k) / a0];
        let a = [
            (2.0 * a0s - 2.0 * a2s * k * k) / a0,
            (a0s - a1s * k + a2s * k * k) / a0,
        ];
        Biquad::new(b, a)
    }

    /// Streaming per-cycle voltage simulator (`v[n] = Vdd − droop[n]`).
    #[must_use]
    pub fn simulator(&self) -> VoltageSimulator {
        VoltageSimulator {
            filter: self.droop_filter(),
            vdd: self.vdd,
        }
    }

    /// Simulate the full voltage trace for a per-cycle current trace.
    #[must_use]
    pub fn simulate(&self, current: &[f64]) -> Vec<f64> {
        let mut sim = self.simulator();
        current.iter().map(|&i| sim.step(i)).collect()
    }

    /// Discrete impulse response `h[n]` of the droop filter: the voltage
    /// droop (V) at cycle `n` caused by 1 A drawn for one cycle at
    /// `n = 0`. This is the kernel of the paper's equation 6; its length
    /// (hundreds of cycles for realistic Q) is what makes the full
    /// convolution monitor expensive in hardware.
    ///
    /// Truncated at `max_len` samples.
    #[must_use]
    pub fn impulse_response(&self, max_len: usize) -> Vec<f64> {
        let mut f = self.droop_filter();
        let mut h = Vec::with_capacity(max_len);
        for n in 0..max_len {
            let x = if n == 0 { 1.0 } else { 0.0 };
            h.push(f.step(x));
        }
        h
    }

    /// Number of impulse-response samples needed before the remaining
    /// tail magnitude falls below `fraction` of the peak magnitude.
    #[must_use]
    pub fn settle_length(&self, fraction: f64) -> usize {
        let h = self.impulse_response(8192);
        let peak = h.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        if peak == 0.0 {
            return 1;
        }
        let mut last = 1;
        for (n, &v) in h.iter().enumerate() {
            if v.abs() > peak * fraction {
                last = n + 1;
            }
        }
        last
    }
}

/// Streaming per-cycle supply-voltage simulator.
///
/// Feed the per-cycle current; get the die voltage.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_pdn::PdnError> {
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 10.0, 4e-4, 1.0, 3e9)?;
/// let mut sim = pdn.simulator();
/// let v0 = sim.step(40.0);
/// assert!(v0 <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageSimulator {
    filter: Biquad,
    vdd: f64,
}

impl VoltageSimulator {
    /// Advance one cycle with the given current draw (A); returns the die
    /// voltage (V).
    pub fn step(&mut self, current: f64) -> f64 {
        self.vdd - self.filter.step(current)
    }

    /// Reset to the unloaded steady state.
    pub fn reset(&mut self) {
        self.filter.reset();
    }

    /// Nominal supply voltage.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 10.0, 4e-4, 1.0, 3e9).unwrap()
    }

    #[test]
    fn from_resonance_roundtrips() {
        let pdn = test_pdn();
        assert!((pdn.resonant_frequency() - 100e6).abs() / 100e6 < 1e-12);
        assert!((pdn.q_factor() - 10.0).abs() < 1e-12);
        assert!((pdn.resistance() - 4e-4).abs() < 1e-18);
        assert!((pdn.resonant_period_cycles() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(SecondOrderPdn::new(0.0, 1e-9, 1e-6, 1.0, 3e9).is_err());
        assert!(SecondOrderPdn::new(1e-3, -1e-9, 1e-6, 1.0, 3e9).is_err());
        assert!(SecondOrderPdn::from_resonance(0.0, 10.0, 1e-3, 1.0, 3e9).is_err());
        assert!(SecondOrderPdn::from_resonance(100e6, -1.0, 1e-3, 1.0, 3e9).is_err());
        // Resonance above Nyquist.
        assert!(SecondOrderPdn::from_resonance(2e9, 10.0, 1e-3, 1.0, 3e9).is_err());
    }

    #[test]
    fn impedance_dc_equals_resistance() {
        let pdn = test_pdn();
        assert!((pdn.impedance_at(1.0) - pdn.resistance()).abs() < 1e-9);
    }

    #[test]
    fn impedance_peaks_at_resonance() {
        let pdn = test_pdn();
        let z0 = pdn.impedance_at(pdn.resonant_frequency());
        for f in [1e6, 10e6, 50e6, 200e6, 500e6, 1.4e9] {
            assert!(pdn.impedance_at(f) < z0, "f = {f}");
        }
        // Peak ≈ Q² · R for high Q.
        let expect = pdn.q_factor() * pdn.q_factor() * pdn.resistance();
        assert!(
            (z0 - expect).abs() / expect < 0.02,
            "z0 = {z0}, expect {expect}"
        );
    }

    #[test]
    fn digital_filter_matches_analytic_impedance() {
        // Drive the biquad with sinusoids and compare steady-state gain
        // against the analytic curve at the exactly-warped frequency: the
        // prewarped bilinear transform maps digital frequency f to analog
        // ω_a = k·tan(πf/fs), with k = ω0/tan(ω0·T/2).
        let pdn = test_pdn();
        let fs = pdn.clock_hz();
        let t = 1.0 / fs;
        let w0 = 2.0 * std::f64::consts::PI * pdn.resonant_frequency();
        let k = w0 / (w0 * t / 2.0).tan();
        for f in [20e6, 60e6, 100e6, 150e6, 300e6] {
            let cycles = 60_000;
            let mut filt = pdn.droop_filter();
            let w = 2.0 * std::f64::consts::PI * f / fs;
            let mut peak = 0.0f64;
            for n in 0..cycles {
                let y = filt.step((w * n as f64).sin());
                if n > cycles / 2 {
                    peak = peak.max(y.abs());
                }
            }
            let warped_hz =
                k * (std::f64::consts::PI * f / fs).tan() / (2.0 * std::f64::consts::PI);
            let want = pdn.impedance_at(warped_hz);
            assert!(
                (peak - want).abs() / want < 0.01,
                "f = {f}: digital {peak}, analytic(warped) {want}"
            );
            // Near the prewarp point the unwarped curve must agree too.
            if (50e6..=150e6).contains(&f) {
                let plain = pdn.impedance_at(f);
                assert!(
                    (peak - plain).abs() / plain < 0.03,
                    "f = {f}: digital {peak}, analytic {plain}"
                );
            }
        }
    }

    #[test]
    fn filter_is_stable() {
        assert!(test_pdn().droop_filter().is_stable());
        assert!(test_pdn().scaled(2.0).unwrap().droop_filter().is_stable());
    }

    #[test]
    fn constant_current_settles_to_ir_drop() {
        let pdn = test_pdn();
        let v = pdn.simulate(&vec![50.0; 8000]);
        let want = 1.0 - 50.0 * pdn.resistance();
        assert!((v[7999] - want).abs() < 1e-6);
    }

    #[test]
    fn scaled_impedance_is_uniform() {
        let pdn = test_pdn();
        let big = pdn.scaled(1.5).unwrap();
        for f in [1.0, 1e6, 100e6, 1e9] {
            let ratio = big.impedance_at(f) / pdn.impedance_at(f);
            assert!((ratio - 1.5).abs() < 1e-9, "f = {f}");
        }
        // Resonance unchanged.
        assert!((big.resonant_frequency() - pdn.resonant_frequency()).abs() < 1.0);
    }

    #[test]
    fn impulse_response_rings_at_resonance() {
        let pdn = test_pdn();
        let h = pdn.impulse_response(512);
        // Find the first two positive-going zero crossings after the peak
        // to estimate the ringing period.
        let mut crossings = Vec::new();
        for n in 1..h.len() {
            if h[n - 1] < 0.0 && h[n] >= 0.0 {
                crossings.push(n);
            }
        }
        assert!(crossings.len() >= 2, "no ringing found");
        let period = (crossings[1] - crossings[0]) as f64;
        assert!(
            (period - pdn.resonant_period_cycles()).abs() <= 2.0,
            "period {period} vs {}",
            pdn.resonant_period_cycles()
        );
    }

    #[test]
    fn impulse_response_decays() {
        let pdn = test_pdn();
        let h = pdn.impulse_response(4096);
        let early: f64 = h[..128].iter().map(|x| x.abs()).sum();
        let late: f64 = h[2048..].iter().map(|x| x.abs()).sum();
        assert!(late < early * 1e-3);
    }

    #[test]
    fn settle_length_is_hundreds_of_cycles() {
        // The paper notes "hundreds of terms" in the full convolution.
        let pdn = test_pdn();
        let n = pdn.settle_length(0.01);
        assert!((100..2000).contains(&n), "settle length {n}");
    }

    #[test]
    fn resonant_current_amplified_vs_offresonance() {
        let pdn = test_pdn();
        let period = pdn.resonant_period_cycles() as usize; // 30 cycles
        let make_square = |p: usize| -> Vec<f64> {
            (0..6000)
                .map(|n| {
                    if (n / (p / 2)).is_multiple_of(2) {
                        60.0
                    } else {
                        20.0
                    }
                })
                .collect()
        };
        let v_res = pdn.simulate(&make_square(period));
        let v_off = pdn.simulate(&make_square(4)); // 750 MHz: far above
        let min_res = v_res[3000..].iter().copied().fold(f64::INFINITY, f64::min);
        let min_off = v_off[3000..].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            min_res < min_off - 0.01,
            "resonant droop {min_res} vs off-resonant {min_off}"
        );
    }

    #[test]
    fn simulator_reset() {
        let pdn = test_pdn();
        let mut sim = pdn.simulator();
        for _ in 0..100 {
            sim.step(70.0);
        }
        sim.reset();
        let v = sim.step(0.0);
        assert!((v - pdn.vdd()).abs() < 1e-12);
    }

    #[test]
    fn full_convolution_matches_filter() {
        // Equation 6 (convolution with the impulse response) must agree
        // with the streaming biquad.
        let pdn = test_pdn();
        let h = pdn.impulse_response(2048);
        let i: Vec<f64> = (0..600)
            .map(|n| 40.0 + 20.0 * ((n as f64) * 0.21).sin())
            .collect();
        let v_filter = pdn.simulate(&i);
        let droop = didt_dsp::fir_filter(&i, &h);
        for n in 0..i.len() {
            let v_conv = pdn.vdd() - droop[n];
            assert!((v_filter[n] - v_conv).abs() < 1e-9, "n = {n}");
        }
    }
}
