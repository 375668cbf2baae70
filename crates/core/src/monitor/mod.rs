//! On-line voltage monitors (paper §5).
//!
//! A voltage monitor watches the machine cycle by cycle and produces a
//! supply-voltage estimate that a comparator can act on. Four designs are
//! provided, matching the paper's Table 2 comparison:
//!
//! | monitor | senses | terms/cycle | delay |
//! |---|---|---|---|
//! | [`WaveletMonitor`] | current → truncated wavelet convolution | K (9–20) | 1 |
//! | [`FullConvolutionMonitor`] | current → full convolution | window (256+) | 3 |
//! | [`AnalogSensor`] | voltage directly (analog circuit) | — | 2 |
//! | (pipeline damping) | current deltas, no voltage estimate — see [`crate::control`] | — | 0 |
//!
//! Two extra designs go beyond the paper's table. [`BiquadMonitor`]
//! runs the PDN's exact second-order recurrence on the sensed current
//! (five terms per cycle, zero truncation error) — the streaming O(1)
//! limit of the full-convolution idea, used as a performance ceiling in
//! long closed-loop runs and as a bitwise oracle in tests.
//! [`FamilyMonitor`] generalises [`WaveletMonitor`]'s Haar truncation to
//! the whole Daubechies ladder (db2–db8, any boundary mode) by running
//! the wavelet-compressed impulse response as a windowed FIR — the
//! accuracy model behind the `ext_wavelet_family` study.

mod analog;
mod biquad_monitor;
mod family_monitor;
mod full_conv;
mod shift_register;
mod wavelet_monitor;

pub use analog::AnalogSensor;
pub use biquad_monitor::BiquadMonitor;
pub use family_monitor::{FamilyMonitor, FamilyMonitorDesign};
pub use full_conv::FullConvolutionMonitor;
pub use shift_register::{HistoryRing, SlidingTerm, TermKind};
pub use wavelet_monitor::{TermWeight, WaveletMonitor, WaveletMonitorDesign};

/// What a monitor can sense in one cycle: the current the core drew and
/// the true die voltage (only analog sensors may read the latter;
/// estimation-based monitors must ignore it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSense {
    /// Core current this cycle (amperes).
    pub current: f64,
    /// True die voltage this cycle (volts).
    pub voltage: f64,
}

/// A cycle-by-cycle supply-voltage monitor.
///
/// `observe` is called once per cycle with that cycle's sense data and
/// returns the monitor's best voltage estimate *available* this cycle
/// (i.e. internal pipeline delays are part of the contract: a monitor
/// with a 2-cycle delay returns an estimate of the voltage two cycles
/// ago).
pub trait VoltageMonitor {
    /// Feed one cycle; returns the voltage estimate available this cycle.
    fn observe(&mut self, sense: CycleSense) -> f64;

    /// Feed a run of consecutive cycles at once: `estimates[n]` is what
    /// [`Self::observe`] would return for `senses[n]` after being fed
    /// `senses[..n]`, and the monitor ends in the same state. The
    /// default is the per-cycle `observe` loop; a monitor overrides it
    /// only with a kernel that returns the same bits.
    ///
    /// # Panics
    ///
    /// Panics when the two slices differ in length.
    fn observe_block(&mut self, senses: &[CycleSense], estimates: &mut [f64]) {
        assert_eq!(senses.len(), estimates.len(), "one estimate per sense");
        for (&sense, estimate) in senses.iter().zip(estimates) {
            *estimate = self.observe(sense);
        }
    }

    /// Short scheme name for reports.
    fn name(&self) -> &'static str;

    /// Number of per-cycle arithmetic terms (hardware-cost proxy).
    fn term_count(&self) -> usize;

    /// Estimate latency in cycles.
    fn delay(&self) -> usize;
}

/// A monitor's fixed output latency: `pass(x)` returns the value handed
/// in `delay` cycles earlier, prefilled with a constant (the nominal
/// supply) until the first real value emerges. Delay 0 passes `x`
/// straight through.
#[derive(Debug, Clone, PartialEq)]
struct DelayLine {
    slots: Vec<f64>,
    /// Slot holding the oldest value, overwritten by the next `pass`.
    cursor: usize,
}

impl DelayLine {
    fn new(fill: f64, delay: usize) -> Self {
        DelayLine {
            slots: vec![fill; delay],
            cursor: 0,
        }
    }

    /// The latency in cycles.
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn pass(&mut self, x: f64) -> f64 {
        let Some(slot) = self.slots.get_mut(self.cursor) else {
            return x;
        };
        let out = std::mem::replace(slot, x);
        self.cursor += 1;
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn VoltageMonitor) {}
    }

    #[test]
    fn delay_line_returns_the_value_from_delay_cycles_ago() {
        let mut line = DelayLine::new(1.0, 3);
        assert_eq!(line.len(), 3);
        let outs: Vec<f64> = (0..8).map(|n| line.pass(f64::from(n))).collect();
        assert_eq!(outs, [1.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut through = DelayLine::new(1.0, 0);
        assert_eq!((through.len(), through.pass(0.25)), (0, 0.25));
    }

    #[test]
    fn sense_is_copy() {
        let s = CycleSense {
            current: 1.0,
            voltage: 1.0,
        };
        let t = s;
        assert_eq!(s, t);
    }
}
