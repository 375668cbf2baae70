//! The full time-domain convolution monitor (Grochowski et al., HPCA-8).
//!
//! Computes the droop as a complete windowed convolution of the current
//! history with the PDN impulse response — the most accurate
//! current-based estimate, but it needs one multiply-accumulate per
//! impulse-response tap every cycle (hundreds), which is why the paper
//! (and Grochowski) consider a 1–2-cycle hardware implementation
//! impractical; the default models this with a 3-cycle latency.

use crate::monitor::shift_register::HistoryRing;
use crate::monitor::{CycleSense, DelayLine, VoltageMonitor};
use didt_pdn::SecondOrderPdn;

/// Full-convolution voltage monitor.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_pdn::PdnError> {
/// use didt_core::monitor::{CycleSense, FullConvolutionMonitor, VoltageMonitor};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let mut mon = FullConvolutionMonitor::new(&pdn, 512, 0);
/// let mut sim = pdn.simulator();
/// for n in 0..2000 {
///     let i = 30.0 + 10.0 * ((n as f64) * 0.3).sin();
///     let v = sim.step(i);
///     let est = mon.observe(CycleSense { current: i, voltage: v });
///     if n > 600 {
///         assert!((est - v).abs() < 1e-3);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullConvolutionMonitor {
    ring: HistoryRing,
    impulse: Vec<f64>,
    vdd: f64,
    delay: DelayLine,
    /// [`VoltageMonitor::observe_block`]'s linear history, oldest
    /// first: the ring's last `taps − 1` lags, then the block's
    /// currents.
    history: Vec<f64>,
}

/// Consecutive cycles [`FullConvolutionMonitor::observe_block`] scores
/// together, each in its own accumulator.
const LANES: usize = 8;

impl FullConvolutionMonitor {
    /// Build a monitor convolving over `taps` impulse-response samples
    /// with the given output `delay` in cycles.
    #[must_use]
    pub fn new(pdn: &SecondOrderPdn, taps: usize, delay: usize) -> Self {
        FullConvolutionMonitor {
            ring: HistoryRing::new(taps.max(1)),
            impulse: pdn.impulse_response(taps.max(1)),
            vdd: pdn.vdd(),
            delay: DelayLine::new(pdn.vdd(), delay),
            history: Vec::new(),
        }
    }

    /// The paper-default configuration: enough taps to cover the ringing
    /// tail and a 3-cycle pipeline latency.
    #[must_use]
    pub fn paper_default(pdn: &SecondOrderPdn) -> Self {
        let taps = pdn.settle_length(0.005).next_power_of_two();
        FullConvolutionMonitor::new(pdn, taps, 3)
    }
}

impl VoltageMonitor for FullConvolutionMonitor {
    fn observe(&mut self, sense: CycleSense) -> f64 {
        self.ring.push(sense.current);
        // One forward dot product over the mirrored ring's lag slice;
        // bit-identical to a per-tap `ring.lag(m)` walk (the golden
        // tab02 numbers flow through this line) but without the modulo
        // and bounds check per tap.
        let droop = self.ring.dot(&self.impulse);
        self.delay.pass(self.vdd - droop)
    }

    /// Scores `LANES` (8) consecutive cycles per pass over the taps. Each
    /// cycle keeps one accumulator from `0.0` and adds `h[m] · lag(m)`
    /// for `m` increasing, exactly as [`HistoryRing::dot`] does, so
    /// every estimate has `observe`'s bits; the lanes only break the
    /// single accumulator's latency chain, they reassociate no sum.
    fn observe_block(&mut self, senses: &[CycleSense], estimates: &mut [f64]) {
        assert_eq!(senses.len(), estimates.len(), "one estimate per sense");
        let h = &self.impulse[..];
        let k = h.len();
        self.history.clear();
        self.history.extend(self.ring.lags()[..k - 1].iter().rev());
        self.history.extend(senses.iter().map(|s| s.current));
        // Cycle `t`'s lag `m` sits at `history[k - 1 + t - m]`, so cycle
        // `t`'s taps are the window `history[t..t + k]` read backwards.
        let mut lanes = estimates.chunks_exact_mut(LANES);
        for (c, out) in lanes.by_ref().enumerate() {
            let window = &self.history[c * LANES..c * LANES + k - 1 + LANES];
            let mut acc = [0.0; LANES];
            for (&w, x) in h.iter().zip(window.windows(LANES).rev()) {
                for (a, &x) in acc.iter_mut().zip(x) {
                    *a += w * x;
                }
            }
            out.copy_from_slice(&acc);
        }
        let tail = senses.len() - senses.len() % LANES;
        for (t, out) in (tail..).zip(lanes.into_remainder()) {
            let mut acc = 0.0;
            for (&w, &x) in h.iter().zip(self.history[t..t + k].iter().rev()) {
                acc += w * x;
            }
            *out = acc;
        }
        for (sense, estimate) in senses.iter().zip(estimates) {
            self.ring.push(sense.current);
            *estimate = self.delay.pass(self.vdd - *estimate);
        }
    }

    fn name(&self) -> &'static str {
        "full-convolution"
    }

    fn term_count(&self) -> usize {
        self.impulse.len()
    }

    fn delay(&self) -> usize {
        self.delay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    #[test]
    fn tracks_true_voltage_closely() {
        let p = pdn();
        let mut mon = FullConvolutionMonitor::new(&p, 1024, 0);
        let mut sim = p.simulator();
        let period = p.resonant_period_cycles() as usize;
        for n in 0..5000 {
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
            if n > 1100 {
                assert!((est - v).abs() < 1e-3, "n = {n}");
            }
        }
    }

    #[test]
    fn paper_default_has_hundreds_of_taps_and_latency() {
        let mon = FullConvolutionMonitor::paper_default(&pdn());
        assert!(mon.term_count() >= 128, "taps {}", mon.term_count());
        assert_eq!(mon.delay(), 3);
        assert_eq!(mon.name(), "full-convolution");
    }

    #[test]
    fn short_tap_budget_loses_accuracy() {
        let p = pdn();
        let mut short = FullConvolutionMonitor::new(&p, 16, 0);
        let mut long = FullConvolutionMonitor::new(&p, 1024, 0);
        let mut sim = p.simulator();
        let mut err_short = 0.0f64;
        let mut err_long = 0.0f64;
        let period = p.resonant_period_cycles() as usize;
        for n in 0..4000 {
            let i = if (n / (period / 2)).is_multiple_of(2) {
                50.0
            } else {
                15.0
            };
            let v = sim.step(i);
            let s = CycleSense {
                current: i,
                voltage: v,
            };
            let es = short.observe(s);
            let el = long.observe(s);
            if n > 1100 {
                err_short = err_short.max((es - v).abs());
                err_long = err_long.max((el - v).abs());
            }
        }
        assert!(err_short > 4.0 * err_long, "{err_short} vs {err_long}");
    }

    #[test]
    fn ring_dot_estimate_is_bitwise_identical_to_lag_walk() {
        // The monitor feeds golden-number sweeps, so the fast dot path
        // must reproduce the historic per-tap lag loop exactly — not
        // just within tolerance.
        let p = pdn();
        let taps = 300; // non-power-of-two, forces a wrapped second segment
        let mut mon = FullConvolutionMonitor::new(&p, taps, 2);
        let impulse = p.impulse_response(taps);
        let mut ring = HistoryRing::new(taps);
        let mut naive_pipe = VecDeque::from(vec![p.vdd(); 2]);
        let mut sim = p.simulator();
        for n in 0..2000 {
            let i = 30.0 + 25.0 * ((n as f64) * 0.21).sin();
            let v = sim.step(i);
            ring.push(i);
            let mut droop = 0.0;
            for (m, &h) in impulse.iter().enumerate() {
                droop += h * ring.lag(m);
            }
            naive_pipe.push_back(p.vdd() - droop);
            let expected = naive_pipe.pop_front().unwrap();
            let est = mon.observe(CycleSense {
                current: i,
                voltage: v,
            });
            assert_eq!(est.to_bits(), expected.to_bits(), "cycle {n}");
        }
    }
}
