//! Standard experiment parameters and cached trace capture.

use didt_core::DidtSystem;
use didt_dsp::{dwt, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use didt_uarch::{capture_trace, Benchmark, CurrentTrace};

/// Warmup cycles before every captured trace (fills caches, predictors,
/// and lets the synthetic workload reach steady state).
pub const TRACE_WARMUP: usize = 100_000;

/// Captured cycles per benchmark trace for the figure experiments.
pub const TRACE_CYCLES: usize = 1 << 19; // 524 288 cycles

/// Workload seed used by all figure binaries.
pub const TRACE_SEED: u64 = 0xD1D7_2004;

/// Build the standard system, panicking with a clear message on failure
/// (figure binaries are applications, not libraries).
#[must_use]
pub fn standard_system() -> DidtSystem {
    DidtSystem::standard().expect("standard system calibration cannot fail")
}

/// Capture the standard-length current trace for one benchmark.
#[must_use]
pub fn benchmark_trace(sys: &DidtSystem, bench: Benchmark) -> CurrentTrace {
    capture_trace(
        bench,
        sys.processor(),
        TRACE_SEED,
        TRACE_WARMUP,
        TRACE_CYCLES,
    )
}

/// Share of the impulse-response energy that the `k` largest
/// coefficients of a `levels`-deep `family` DWT capture: the compaction
/// the wavelet monitor exploits (§5). The network is the 100 MHz, Q 2.2
/// reference PDN and the response is 256 taps long.
///
/// # Panics
///
/// Panics if `levels` is too deep for a 256-tap response in `family`
/// or `k` exceeds the coefficient count.
#[must_use]
pub fn impulse_energy_capture(family: WaveletFamily, levels: usize, k: usize) -> f64 {
    let pdn = SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).expect("reference pdn");
    let d = dwt(&pdn.impulse_response(256), family, levels).expect("dwt");
    let mut energy: Vec<f64> = d
        .approximation()
        .iter()
        .chain(d.detail_rows().flatten())
        .map(|x| x * x)
        .collect();
    energy.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = energy.iter().sum();
    energy[..k].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cycles_is_power_of_two() {
        assert!(TRACE_CYCLES.is_power_of_two());
        assert_eq!(TRACE_CYCLES % 256, 0);
    }

    #[test]
    fn capture_small_smoke() {
        let sys = standard_system();
        let t = capture_trace(Benchmark::Gzip, sys.processor(), 1, 100, 512);
        assert_eq!(t.len(), 512);
    }
}
