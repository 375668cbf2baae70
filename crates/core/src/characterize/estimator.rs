//! Benchmark-level voltage-emergency estimation (paper §4.2, Figure 9).
//!
//! Tile a benchmark's current trace into consecutive 256-cycle windows,
//! estimate each window's below-threshold probability with the variance
//! model, and average — an *offline* prediction of the fraction of
//! execution cycles spent below the control point, compared against the
//! fraction observed in a direct PDN simulation of the same trace.

use crate::characterize::{EstimateScratch, VarianceModel, WindowModel};
use crate::DidtError;
use didt_pdn::SecondOrderPdn;
use didt_telemetry::{Gauge, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// Estimated-vs-observed emergency fractions for one benchmark trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkEstimate {
    /// Estimated fraction of cycles below the threshold (model).
    pub estimated: f64,
    /// Observed fraction of cycles below the threshold (simulation).
    pub observed: f64,
    /// Number of windows analysed.
    pub windows: usize,
    /// Mean estimated voltage across windows.
    pub mean_voltage: f64,
}

impl BenchmarkEstimate {
    /// Absolute estimation error, in fraction-of-cycles units.
    #[must_use]
    pub fn abs_error(&self) -> f64 {
        (self.estimated - self.observed).abs()
    }
}

/// Runs the Figure 9 experiment on traces. Generic over the window
/// model: the paper's DWT-scale [`VarianceModel`] by default, or the
/// packet-band extension ([`crate::characterize::PacketVarianceModel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EmergencyEstimator<M = VarianceModel> {
    model: M,
    threshold: f64,
}

impl<M: WindowModel> EmergencyEstimator<M> {
    /// Create an estimator for the given control threshold (the paper
    /// uses 0.97 V).
    #[must_use]
    pub fn new(model: M, threshold: f64) -> Self {
        EmergencyEstimator { model, threshold }
    }

    /// The control threshold.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The underlying window model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Estimate the fraction of cycles below the threshold from window
    /// statistics alone (no voltage simulation): tile the trace into
    /// complete windows, estimate each with
    /// [`WindowModel::estimate_scratch`] over one shared scratch, and
    /// sum in window order. Returns `(fraction below threshold, windows,
    /// mean voltage)`.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::TraceTooShort`] when the trace holds no
    /// complete window; propagates the model's errors.
    pub fn estimate_trace(&self, trace: &[f64]) -> Result<(f64, usize, f64), DidtError> {
        let _span = didt_telemetry::span("core.estimator.estimate_trace");
        let w = self.model.window();
        if trace.len() < w {
            return Err(DidtError::TraceTooShort {
                needed: w,
                got: trace.len(),
            });
        }
        let mut scratch = EstimateScratch::new();
        let mut prob_sum = 0.0;
        let mut vmean_sum = 0.0;
        for window in trace.chunks_exact(w) {
            let est = self.model.estimate_scratch(window, &mut scratch)?;
            prob_sum += est.probability_below(self.threshold);
            vmean_sum += est.v_mean;
        }
        let count = trace.len() / w;
        Ok((prob_sum / count as f64, count, vmean_sum / count as f64))
    }

    /// Former name of [`EmergencyEstimator::estimate_trace`]. The
    /// repository benchmark (`perfbench/src/layers.rs`) still calls it;
    /// drop it when that package next changes.
    ///
    /// # Errors
    ///
    /// Identical to [`EmergencyEstimator::estimate_trace`].
    #[doc(hidden)]
    pub fn estimate_trace_batch(&self, trace: &[f64]) -> Result<(f64, usize, f64), DidtError> {
        self.estimate_trace(trace)
    }

    /// Run the full estimated-vs-observed comparison for a trace against
    /// a PDN.
    ///
    /// # Errors
    ///
    /// Propagates [`EmergencyEstimator::estimate_trace`]'s errors.
    pub fn compare(
        &self,
        trace: &[f64],
        pdn: &SecondOrderPdn,
    ) -> Result<BenchmarkEstimate, DidtError> {
        let _span = didt_telemetry::span("core.estimator.compare");
        let (estimated, windows, mean_voltage) = self.estimate_trace(trace)?;
        let v = pdn.simulate(trace);
        let below = v.iter().filter(|&&x| x < self.threshold).count();
        let estimate = BenchmarkEstimate {
            estimated,
            observed: below as f64 / v.len() as f64,
            windows,
            mean_voltage,
        };
        static ABS_ERROR: OnceLock<Arc<Gauge>> = OnceLock::new();
        ABS_ERROR
            .get_or_init(|| MetricsRegistry::global().gauge("estimator.abs_error"))
            .set(estimate.abs_error());
        Ok(estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::ScaleGainModel;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn estimator(threshold: f64) -> EmergencyEstimator {
        let gains = ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap();
        EmergencyEstimator::new(VarianceModel::new(gains), threshold)
    }

    #[test]
    fn quiet_trace_has_no_emergencies_either_way() {
        let est = estimator(0.97);
        let trace = vec![25.0; 4096];
        let r = est.compare(&trace, &pdn()).unwrap();
        assert_eq!(r.observed, 0.0);
        assert!(r.estimated < 1e-6);
        assert!(r.abs_error() < 1e-6);
    }

    #[test]
    fn resonant_trace_estimated_close_to_observed() {
        // A strongly resonant trace at 150 % impedance: both numbers
        // should be solidly nonzero and within a few percent of cycles.
        let est = estimator(0.97);
        let weak = pdn().scaled(1.5).unwrap();
        let trace: Vec<f64> = (0..16_384)
            .map(|n| 30.0 + if (n / 15) % 2 == 0 { 14.0 } else { -14.0 })
            .collect();
        let r = est.compare(&trace, &weak).unwrap();
        assert!(r.observed > 0.02, "observed {}", r.observed);
        assert!(r.estimated > 0.01, "estimated {}", r.estimated);
        // A pure square wave is the worst case for the Gaussian model
        // (the true voltage distribution is bimodal); real benchmark
        // windows (Figure 9) do much better.
        assert!(r.abs_error() < 0.4, "error {}", r.abs_error());
    }

    #[test]
    fn estimate_needs_full_window() {
        let est = estimator(0.97);
        assert!(est.estimate_trace(&[1.0; 100]).is_err());
    }

    #[test]
    fn window_count_reported() {
        let est = estimator(0.97);
        let trace = vec![20.0; 256 * 5 + 100];
        let (_, count, _) = est.estimate_trace(&trace).unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn threshold_monotonicity() {
        let weak = pdn().scaled(1.5).unwrap();
        let trace: Vec<f64> = (0..8192)
            .map(|n| 30.0 + if (n / 15) % 2 == 0 { 12.0 } else { -12.0 })
            .collect();
        let lo = estimator(0.96).compare(&trace, &weak).unwrap();
        let hi = estimator(0.98).compare(&trace, &weak).unwrap();
        assert!(lo.estimated <= hi.estimated);
        assert!(lo.observed <= hi.observed);
    }
}
