//! Controller implementations: threshold comparison over a voltage
//! monitor, pipeline damping, and the no-control baseline.

use crate::control::{DidtController, REPLAY_BLOCK};
use crate::monitor::{CycleSense, VoltageMonitor};
use didt_uarch::ControlAction;
use std::collections::VecDeque;

/// The do-nothing baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoControl;

impl DidtController for NoControl {
    fn decide(&mut self, _sense: CycleSense) -> ControlAction {
        ControlAction::Normal
    }

    fn name(&self) -> &'static str {
        "no-control"
    }
}

/// Threshold comparator over any [`VoltageMonitor`] (paper §5.2, final
/// step): stall issue below the low control point, inject no-ops above
/// the high control point, with a small hysteresis so control does not
/// chatter on the comparator edge.
///
/// # Examples
///
/// ```
/// use didt_core::control::{DidtController, ThresholdController};
/// use didt_core::monitor::{AnalogSensor, CycleSense};
/// use didt_uarch::ControlAction;
///
/// let sensor = AnalogSensor::new(1.0, 0);
/// let mut ctl = ThresholdController::new(sensor, 0.97, 1.03, 0.005);
/// let act = ctl.decide(CycleSense { current: 50.0, voltage: 0.96 });
/// assert_eq!(act, ControlAction::StallIssue);
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdController<M> {
    monitor: M,
    v_low: f64,
    v_high: f64,
    hysteresis: f64,
    engaged_low: bool,
    engaged_high: bool,
}

impl<M: VoltageMonitor> ThresholdController<M> {
    /// Create a controller with the given low/high control points and
    /// hysteresis band (volts).
    #[must_use]
    pub fn new(monitor: M, v_low: f64, v_high: f64, hysteresis: f64) -> Self {
        ThresholdController {
            monitor,
            v_low,
            v_high,
            hysteresis,
            engaged_low: false,
            engaged_high: false,
        }
    }

    /// The wrapped monitor.
    #[must_use]
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// Step the comparator on one voltage estimate.
    fn compare(&mut self, v: f64) -> ControlAction {
        if self.engaged_low {
            if v >= self.v_low + self.hysteresis {
                self.engaged_low = false;
            }
        } else if v < self.v_low {
            self.engaged_low = true;
        }
        if self.engaged_high {
            if v <= self.v_high - self.hysteresis {
                self.engaged_high = false;
            }
        } else if v > self.v_high {
            self.engaged_high = true;
        }
        if self.engaged_low {
            ControlAction::StallIssue
        } else if self.engaged_high {
            ControlAction::InjectNops
        } else {
            ControlAction::Normal
        }
    }
}

impl<M: VoltageMonitor> DidtController for ThresholdController<M> {
    fn decide(&mut self, sense: CycleSense) -> ControlAction {
        let v = self.monitor.observe(sense);
        self.compare(v)
    }

    /// Runs the whole block through [`VoltageMonitor::observe_block`],
    /// then the comparator over the estimates in cycle order.
    fn decide_block(&mut self, senses: &[CycleSense], actions: &mut [ControlAction]) {
        assert_eq!(senses.len(), actions.len(), "one action per sense");
        let mut estimates = [0.0; REPLAY_BLOCK];
        for (senses, actions) in senses
            .chunks(REPLAY_BLOCK)
            .zip(actions.chunks_mut(REPLAY_BLOCK))
        {
            let estimates = &mut estimates[..senses.len()];
            self.monitor.observe_block(senses, estimates);
            for (&v, action) in estimates.iter().zip(actions) {
                *action = self.compare(v);
            }
        }
    }

    /// The monitor's name, so each threshold scheme reports (and counts
    /// its `closed_loop.<scheme>.*` metrics) under its own name.
    fn name(&self) -> &'static str {
        self.monitor.name()
    }
}

/// Pipeline damping (Powell & Vijaykumar, ISCA 2003): bound the change
/// in current over a window of `w` cycles to at most `delta` amperes,
/// with no knowledge of the actual voltage.
///
/// When the current rose by more than `delta` over the window, issue is
/// stalled; when it fell by more than `delta`, no-ops are injected. Cheap
/// to build, but engages on *every* large swing whether or not it
/// threatens the supply — the high-false-positive behaviour the paper
/// criticizes.
#[derive(Debug, Clone)]
pub struct PipelineDamping {
    window: usize,
    delta: f64,
    history: VecDeque<f64>,
}

impl PipelineDamping {
    /// Create a damper bounding current changes to `delta` amperes over
    /// `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or `delta` is not positive.
    #[must_use]
    pub fn new(window: usize, delta: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(delta > 0.0, "delta must be positive");
        PipelineDamping {
            window,
            delta,
            history: VecDeque::with_capacity(window + 1),
        }
    }

    /// The damping window in cycles.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The allowed current change (amperes) per window.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

impl DidtController for PipelineDamping {
    fn decide(&mut self, sense: CycleSense) -> ControlAction {
        self.history.push_back(sense.current);
        if self.history.len() > self.window + 1 {
            self.history.pop_front();
        }
        let oldest = *self.history.front().expect("nonempty");
        let change = sense.current - oldest;
        if change > self.delta {
            ControlAction::StallIssue
        } else if change < -self.delta {
            ControlAction::InjectNops
        } else {
            ControlAction::Normal
        }
    }

    fn name(&self) -> &'static str {
        "pipeline-damping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::AnalogSensor;

    fn sense(current: f64, voltage: f64) -> CycleSense {
        CycleSense { current, voltage }
    }

    #[test]
    fn no_control_always_normal() {
        let mut c = NoControl;
        assert_eq!(c.decide(sense(999.0, 0.5)), ControlAction::Normal);
    }

    #[test]
    fn threshold_stalls_low_and_nops_high() {
        let mut c = ThresholdController::new(AnalogSensor::new(1.0, 0), 0.97, 1.03, 0.005);
        assert_eq!(c.decide(sense(0.0, 1.0)), ControlAction::Normal);
        assert_eq!(c.decide(sense(0.0, 0.965)), ControlAction::StallIssue);
        assert_eq!(c.decide(sense(0.0, 1.035)), ControlAction::InjectNops);
    }

    #[test]
    fn threshold_hysteresis_holds_engagement() {
        let mut c = ThresholdController::new(AnalogSensor::new(1.0, 0), 0.97, 1.03, 0.005);
        assert_eq!(c.decide(sense(0.0, 0.969)), ControlAction::StallIssue);
        // Back above the threshold but inside the hysteresis band: hold.
        assert_eq!(c.decide(sense(0.0, 0.972)), ControlAction::StallIssue);
        // Above threshold + hysteresis: release.
        assert_eq!(c.decide(sense(0.0, 0.976)), ControlAction::Normal);
    }

    #[test]
    fn damping_reacts_to_rise_and_fall() {
        let mut c = PipelineDamping::new(4, 10.0);
        for _ in 0..5 {
            assert_eq!(c.decide(sense(20.0, 1.0)), ControlAction::Normal);
        }
        assert_eq!(c.decide(sense(35.0, 1.0)), ControlAction::StallIssue);
        // Feed the high level until the window forgets the low level.
        for _ in 0..5 {
            c.decide(sense(35.0, 1.0));
        }
        assert_eq!(c.decide(sense(22.0, 1.0)), ControlAction::InjectNops);
    }

    #[test]
    fn damping_ignores_voltage_entirely() {
        let mut c = PipelineDamping::new(4, 10.0);
        for _ in 0..5 {
            c.decide(sense(20.0, 1.0));
        }
        // Massive voltage excursion, steady current: no response.
        assert_eq!(c.decide(sense(20.0, 0.5)), ControlAction::Normal);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn damping_rejects_zero_window() {
        let _ = PipelineDamping::new(0, 1.0);
    }

    #[test]
    fn names() {
        assert_eq!(NoControl.name(), "no-control");
        assert_eq!(PipelineDamping::new(1, 1.0).name(), "pipeline-damping");
    }

    #[test]
    fn threshold_schemes_take_their_monitors_names() {
        use crate::monitor::{
            BiquadMonitor, FamilyMonitorDesign, FullConvolutionMonitor, WaveletMonitorDesign,
        };
        use didt_dsp::{BoundaryMode, WaveletFamily};
        fn name_of(monitor: impl VoltageMonitor) -> &'static str {
            ThresholdController::new(monitor, 0.97, 1.03, 0.005).name()
        }
        let pdn = didt_pdn::SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap();
        let wavelet = WaveletMonitorDesign::new(&pdn, 64)
            .unwrap()
            .build(13, 1)
            .unwrap();
        let family = FamilyMonitorDesign::new(&pdn, 64, WaveletFamily::Db3, BoundaryMode::Periodic)
            .unwrap()
            .build(13, 1)
            .unwrap();
        assert_eq!(name_of(AnalogSensor::new(1.0, 2)), "analog-sensor");
        assert_eq!(
            name_of(FullConvolutionMonitor::new(&pdn, 16, 3)),
            "full-convolution"
        );
        assert_eq!(name_of(wavelet), "wavelet-convolution");
        assert_eq!(name_of(BiquadMonitor::new(&pdn, 1)), "biquad-recursive");
        assert_eq!(name_of(family), "wavelet-family");
    }

    #[test]
    fn decide_block_matches_per_cycle_decide() {
        // Two blocks' worth plus a tail, swinging through both control
        // points so the comparator's hysteresis state crosses chunks.
        let senses: Vec<CycleSense> = (0..2 * REPLAY_BLOCK + 37)
            .map(|n| {
                let t = n as f64;
                sense(
                    30.0 + 20.0 * (t * 0.11).sin(),
                    1.0 + 0.05 * (t * 0.07).sin(),
                )
            })
            .collect();
        let mut one = ThresholdController::new(AnalogSensor::new(1.0, 2), 0.97, 1.03, 0.005);
        let mut block = one.clone();
        let want: Vec<ControlAction> = senses.iter().map(|&s| one.decide(s)).collect();
        let mut got = vec![ControlAction::Normal; senses.len()];
        block.decide_block(&senses, &mut got);
        assert_eq!(got, want);
        assert!(
            want.contains(&ControlAction::StallIssue) && want.contains(&ControlAction::InjectNops)
        );
        let mut damping = PipelineDamping::new(4, 6.0);
        let mut damping_block = damping.clone();
        let want: Vec<ControlAction> = senses.iter().map(|&s| damping.decide(s)).collect();
        damping_block.decide_block(&senses, &mut got);
        assert_eq!(got, want);
    }
}
