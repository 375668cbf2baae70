//! The analog voltage sensor baseline (Joseph et al., HPCA-9).
//!
//! Senses the true die voltage directly through an analog circuit: no
//! estimation error at all, but the sample-and-compare path costs a
//! couple of cycles, and integrating a precision analog sensor on a
//! digital die is the practical objection the paper raises (Table 2:
//! "requires analog circuit").

use crate::monitor::{CycleSense, DelayLine, VoltageMonitor};

/// Ideal (zero-error) voltage sensor with a configurable sensing delay.
///
/// # Examples
///
/// ```
/// use didt_core::monitor::{AnalogSensor, CycleSense, VoltageMonitor};
///
/// let mut s = AnalogSensor::new(1.0, 2);
/// s.observe(CycleSense { current: 0.0, voltage: 0.96 });
/// s.observe(CycleSense { current: 0.0, voltage: 0.97 });
/// // Two cycles later the 0.96 V reading emerges.
/// let v = s.observe(CycleSense { current: 0.0, voltage: 0.98 });
/// assert_eq!(v, 0.96);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSensor {
    delay: DelayLine,
}

impl AnalogSensor {
    /// Create a sensor with the given nominal voltage (used to prefill
    /// the delay pipeline) and sensing delay in cycles.
    #[must_use]
    pub fn new(vdd: f64, delay: usize) -> Self {
        AnalogSensor {
            delay: DelayLine::new(vdd, delay),
        }
    }
}

impl VoltageMonitor for AnalogSensor {
    fn observe(&mut self, sense: CycleSense) -> f64 {
        self.delay.pass(sense.voltage)
    }

    fn name(&self) -> &'static str {
        "analog-sensor"
    }

    fn term_count(&self) -> usize {
        0
    }

    fn delay(&self) -> usize {
        self.delay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delay_is_identity() {
        let mut s = AnalogSensor::new(1.0, 0);
        let v = s.observe(CycleSense {
            current: 50.0,
            voltage: 0.934,
        });
        assert_eq!(v, 0.934);
    }

    #[test]
    fn delay_prefills_with_vdd() {
        let mut s = AnalogSensor::new(1.0, 3);
        assert_eq!(
            s.observe(CycleSense {
                current: 0.0,
                voltage: 0.9
            }),
            1.0
        );
    }

    #[test]
    fn metadata() {
        let s = AnalogSensor::new(1.0, 2);
        assert_eq!(s.name(), "analog-sensor");
        assert_eq!(s.term_count(), 0);
        assert_eq!(s.delay(), 2);
    }
}
