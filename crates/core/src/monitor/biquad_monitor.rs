//! Exact recursive droop evaluator: the PDN's own biquad as a monitor.
//!
//! The full-convolution monitor approximates the infinite impulse
//! response of [`SecondOrderPdn`] with a truncated FIR window — hundreds
//! of multiply-accumulates per cycle. But the PDN is a *second-order*
//! system: its voltage is exactly reproducible by the same five-term
//! recurrence ([`didt_pdn::Biquad`], direct form II transposed) the
//! simulator itself runs. This monitor runs that recurrence on the
//! sensed current, making it the O(1) streaming limit of the
//! full-convolution idea: zero truncation error, five terms per cycle,
//! no history ring at all.
//!
//! It is deliberately *not* one of the paper's Table 2 schemes — the
//! paper's point is that 2004-era control logic could not afford even a
//! handful of multiplies at core frequency without the wavelet
//! truncation argument. It exists here as the performance ceiling for
//! long closed-loop runs and as an oracle in tests: with zero delay its
//! output is bit-identical to [`didt_pdn::VoltageSimulator`].

use crate::monitor::{CycleSense, DelayLine, VoltageMonitor};
use didt_pdn::{Biquad, SecondOrderPdn};

/// Recursive (IIR) droop monitor; see the module docs.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_pdn::PdnError> {
/// use didt_core::monitor::{BiquadMonitor, CycleSense, VoltageMonitor};
/// use didt_pdn::SecondOrderPdn;
///
/// let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9)?;
/// let mut mon = BiquadMonitor::new(&pdn, 0);
/// let mut sim = pdn.simulator();
/// for n in 0..100 {
///     let i = 30.0 + 10.0 * ((n as f64) * 0.3).sin();
///     let v = sim.step(i);
///     let est = mon.observe(CycleSense { current: i, voltage: v });
///     assert_eq!(est, v); // exact, not approximate
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiquadMonitor {
    filter: Biquad,
    vdd: f64,
    delay: DelayLine,
}

impl BiquadMonitor {
    /// Build the recursive monitor for `pdn` with an output `delay` in
    /// cycles (modeling estimate-pipeline latency, as the other
    /// monitors do).
    #[must_use]
    pub fn new(pdn: &SecondOrderPdn, delay: usize) -> Self {
        BiquadMonitor {
            filter: pdn.droop_filter(),
            vdd: pdn.vdd(),
            delay: DelayLine::new(pdn.vdd(), delay),
        }
    }
}

impl VoltageMonitor for BiquadMonitor {
    fn observe(&mut self, sense: CycleSense) -> f64 {
        // Same ops in the same order as VoltageSimulator::step, so the
        // delay-0 estimate is bitwise equal to the true voltage.
        let est = self.vdd - self.filter.step(sense.current);
        self.delay.pass(est)
    }

    fn name(&self) -> &'static str {
        "biquad-recursive"
    }

    fn term_count(&self) -> usize {
        // b0·x + b1·x1 + b2·x2 − a1·y1 − a2·y2: five MACs per cycle.
        5
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

    #[test]
    fn zero_delay_is_bitwise_equal_to_simulator() {
        let p = pdn();
        let mut mon = BiquadMonitor::new(&p, 0);
        let mut sim = p.simulator();
        for n in 0..5000 {
            let i = if (n / 40) % 2 == 0 { 55.0 } else { 12.0 };
            let v = sim.step(i);
            let est = mon.observe(CycleSense {
                current: i,
                voltage: v,
            });
            assert_eq!(est.to_bits(), v.to_bits(), "cycle {n}");
        }
    }

    #[test]
    fn delay_shifts_estimates_and_prefills_vdd() {
        let p = pdn();
        let mut delayed = BiquadMonitor::new(&p, 3);
        let mut exact = BiquadMonitor::new(&p, 0);
        let mut history: Vec<f64> = Vec::new();
        for n in 0..200 {
            let i = 20.0 + (n as f64);
            let s = CycleSense {
                current: i,
                voltage: 1.0,
            };
            history.push(exact.observe(s));
            let est = delayed.observe(s);
            if n < 3 {
                assert_eq!(est, p.vdd(), "pipeline prefill at n = {n}");
            } else {
                assert_eq!(est.to_bits(), history[n - 3].to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn reports_constant_hardware_cost() {
        let mon = BiquadMonitor::new(&pdn(), 2);
        assert_eq!(mon.term_count(), 5);
        assert_eq!(mon.delay(), 2);
        assert_eq!(mon.name(), "biquad-recursive");
    }

    #[test]
    fn tracks_tighter_than_truncated_full_convolution() {
        use crate::monitor::FullConvolutionMonitor;
        let p = pdn();
        let mut biquad = BiquadMonitor::new(&p, 0);
        let mut fir = FullConvolutionMonitor::new(&p, 64, 0);
        let mut sim = p.simulator();
        let mut err_biquad = 0.0f64;
        let mut err_fir = 0.0f64;
        for n in 0..4000 {
            let i = if (n / 37) % 2 == 0 { 50.0 } else { 15.0 };
            let v = sim.step(i);
            let s = CycleSense {
                current: i,
                voltage: v,
            };
            let eb = biquad.observe(s);
            let ef = fir.observe(s);
            if n > 500 {
                err_biquad = err_biquad.max((eb - v).abs());
                err_fir = err_fir.max((ef - v).abs());
            }
        }
        assert_eq!(err_biquad, 0.0);
        assert!(err_fir > 0.0);
    }
}
