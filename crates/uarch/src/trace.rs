//! Current-trace capture: the bridge between the processor simulator and
//! the wavelet analyses.

use crate::pipeline::{ControlAction, Processor, SimStats};
use crate::workload::{Benchmark, WorkloadGenerator};
use crate::ProcessorConfig;

/// A current trace annotated with per-cycle architectural events, for
/// analyses relating voltage variation to microarchitectural activity
/// (paper §4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    /// The current trace.
    pub trace: CurrentTrace,
    /// Cumulative L2 misses *before* each cycle; the misses inside a
    /// window `[a, b)` are `l2_misses[b] - l2_misses[a]`.
    pub l2_misses: Vec<u64>,
}

impl EventTrace {
    /// L2 misses that occurred within `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the trace.
    #[must_use]
    pub fn l2_misses_in(&self, start: usize, len: usize) -> u64 {
        self.l2_misses[start + len] - self.l2_misses[start]
    }
}

/// Like [`capture_trace`], additionally recording cumulative per-cycle
/// event counters for the paper's §4.3 event-correlation analysis.
#[must_use]
pub fn capture_trace_with_events(
    benchmark: Benchmark,
    config: &ProcessorConfig,
    seed: u64,
    warmup: usize,
    cycles: usize,
) -> EventTrace {
    let gen = WorkloadGenerator::new(benchmark.profile(), seed);
    let mut cpu = Processor::new(*config, gen);
    for _ in 0..warmup {
        cpu.step(ControlAction::Normal);
    }
    let mut samples = Vec::with_capacity(cycles);
    let mut l2 = Vec::with_capacity(cycles + 1);
    let l2_base = cpu.stats().l2_misses;
    for _ in 0..cycles {
        l2.push(cpu.stats().l2_misses - l2_base);
        samples.push(cpu.step(ControlAction::Normal).current);
    }
    l2.push(cpu.stats().l2_misses - l2_base);
    EventTrace {
        trace: CurrentTrace {
            benchmark: benchmark.name(),
            samples,
            stats: cpu.stats(),
        },
        l2_misses: l2,
    }
}

/// A captured per-cycle current trace plus run statistics.
///
/// This is "a cycle by cycle current trace as measured or output by an
/// architectural simulator" (paper §2.1) — the input signal of every
/// dI/dt analysis in this workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentTrace {
    /// Benchmark name the trace came from.
    pub benchmark: &'static str,
    /// Per-cycle current in amperes.
    pub samples: Vec<f64>,
    /// Pipeline statistics over the captured region.
    pub stats: SimStats,
}

impl CurrentTrace {
    /// Number of cycles captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no cycles were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean current over the trace (amperes).
    #[must_use]
    pub fn mean_current(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// Simulate `benchmark` for `warmup + cycles` cycles and capture the
/// current trace of the final `cycles` (warmup fills caches and
/// predictors, mimicking the paper's use of SimPoint regions rather than
/// cold starts).
///
/// Deterministic in `(benchmark, seed)`.
///
/// # Examples
///
/// ```
/// use didt_uarch::{capture_trace, Benchmark, ProcessorConfig};
///
/// let t = capture_trace(Benchmark::Gzip, &ProcessorConfig::table1(), 1, 2_000, 4_096);
/// assert_eq!(t.len(), 4_096);
/// assert!(t.mean_current() > 10.0);
/// ```
#[must_use]
pub fn capture_trace(
    benchmark: Benchmark,
    config: &ProcessorConfig,
    seed: u64,
    warmup: usize,
    cycles: usize,
) -> CurrentTrace {
    let gen = WorkloadGenerator::new(benchmark.profile(), seed);
    let mut cpu = Processor::new(*config, gen);
    for _ in 0..warmup {
        cpu.step(ControlAction::Normal);
    }
    let mut samples = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        samples.push(cpu.step(ControlAction::Normal).current);
    }
    CurrentTrace {
        benchmark: benchmark.name(),
        samples,
        stats: cpu.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_has_requested_length() {
        let t = capture_trace(Benchmark::Eon, &ProcessorConfig::table1(), 1, 500, 1024);
        assert_eq!(t.len(), 1024);
        assert!(!t.is_empty());
        assert_eq!(t.benchmark, "eon");
    }

    #[test]
    fn capture_is_deterministic() {
        let a = capture_trace(Benchmark::Twolf, &ProcessorConfig::table1(), 9, 100, 512);
        let b = capture_trace(Benchmark::Twolf, &ProcessorConfig::table1(), 9, 100, 512);
        assert_eq!(a, b);
    }

    #[test]
    fn warmup_changes_the_captured_region() {
        let a = capture_trace(Benchmark::Twolf, &ProcessorConfig::table1(), 9, 0, 512);
        let b = capture_trace(Benchmark::Twolf, &ProcessorConfig::table1(), 9, 5_000, 512);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn event_trace_counters_are_monotone_and_consistent() {
        let t =
            capture_trace_with_events(Benchmark::Mcf, &ProcessorConfig::table1(), 1, 20_000, 4096);
        assert_eq!(t.l2_misses.len(), 4097);
        assert!(t.l2_misses.windows(2).all(|w| w[0] <= w[1]));
        // mcf must miss L2 during the window.
        assert!(t.l2_misses_in(0, 4096) > 10);
        // Window accounting adds up.
        let total = t.l2_misses_in(0, 4096);
        let halves = t.l2_misses_in(0, 2048) + t.l2_misses_in(2048, 2048);
        assert_eq!(total, halves);
    }

    #[test]
    fn event_trace_current_matches_plain_capture() {
        let a = capture_trace(Benchmark::Eon, &ProcessorConfig::table1(), 3, 5_000, 1024);
        let b =
            capture_trace_with_events(Benchmark::Eon, &ProcessorConfig::table1(), 3, 5_000, 1024);
        assert_eq!(a.samples, b.trace.samples);
    }

    #[test]
    fn mean_current_in_plausible_band() {
        let t = capture_trace(Benchmark::Gzip, &ProcessorConfig::table1(), 1, 2_000, 8_192);
        let m = t.mean_current();
        assert!((12.0..90.0).contains(&m), "mean current {m}");
    }
}
