//! Cross-crate bit-identity contracts of the equation-6 monitors.
//!
//! The full-convolution monitor's ring-dot path and the biquad monitor
//! feed golden-number sweeps, so they must reproduce the offline
//! reference arithmetic exactly, and sweeps using them must stay
//! serial≡parallel bit-identical. The full-convolution monitor is
//! pinned to `didt_dsp::fir_filter`, so the repository's two
//! equation-6 implementations agree bit for bit.

use didt_bench::{ControllerSpec, ExperimentRunner, RunParams, Sweep, SweepContext, SweepPoint};
use didt_core::monitor::{BiquadMonitor, CycleSense, FullConvolutionMonitor, VoltageMonitor};
use didt_dsp::fir_filter;
use didt_uarch::{capture_trace, Benchmark};

const RUN: RunParams = RunParams {
    instructions: 3_000,
    warmup_cycles: 1_000,
};

fn grid() -> Vec<SweepPoint> {
    Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Twolf])
        .pdn_pcts(&[125.0, 150.0])
        .monitor_terms(&[13])
        .controllers(&[
            ControllerSpec::FullConvolution {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::BiquadRecursive {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
                delay: 0,
            },
        ])
        .points()
}

/// The monitor that feeds the tab02 goldens must produce bit-identical
/// estimates through the contiguous ring-dot path on a real captured
/// workload trace (not just synthetic waves).
#[test]
fn full_conv_monitor_is_bitwise_stable_on_real_trace() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let trace = capture_trace(
        Benchmark::Gzip,
        ctx.system().processor(),
        0xD1D7_2004,
        5_000,
        4_096,
    );
    let taps = 300; // non-power-of-two: exercises the wrapped segment
    let mut mon = FullConvolutionMonitor::new(&pdn, taps, 3);
    let impulse = pdn.impulse_response(taps);
    // Offline reference: equation 6 over the whole trace, then the
    // monitor's 3-cycle delay pipeline (Vdd until the first estimate
    // emerges).
    let droop = fir_filter(&trace.samples, &impulse);
    let mut sim = pdn.simulator();
    for (t, &i) in trace.samples.iter().enumerate() {
        let v = sim.step(i);
        let expected = if t < 3 {
            pdn.vdd()
        } else {
            pdn.vdd() - droop[t - 3]
        };
        let est = mon.observe(CycleSense {
            current: i,
            voltage: v,
        });
        assert_eq!(est.to_bits(), expected.to_bits(), "t = {t}");
    }
}

/// The biquad monitor is the PDN's own recurrence: with zero delay its
/// estimate equals the simulator's true voltage bit for bit, on a real
/// captured trace.
#[test]
fn biquad_monitor_is_exact_on_real_trace() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let trace = capture_trace(
        Benchmark::Twolf,
        ctx.system().processor(),
        0xD1D7_2004,
        5_000,
        4_096,
    );
    let mut mon = BiquadMonitor::new(&pdn, 0);
    let mut sim = pdn.simulator();
    for &i in &trace.samples {
        let v = sim.step(i);
        let est = mon.observe(CycleSense {
            current: i,
            voltage: v,
        });
        assert_eq!(est.to_bits(), v.to_bits());
    }
}

/// Sweeps through the rewritten full-convolution path and the new
/// biquad controller stay serial≡parallel bit-identical — the fast
/// paths must not introduce any order dependence.
#[test]
fn fast_path_sweeps_serial_parallel_bit_identical() {
    let points = grid();
    let serial =
        SweepContext::standard()
            .unwrap()
            .run_sweep(&ExperimentRunner::serial(), &points, RUN);
    let parallel = SweepContext::standard().unwrap().run_sweep(
        &ExperimentRunner::with_threads(4),
        &points,
        RUN,
    );
    assert_eq!(serial, parallel);
    // And the biquad ceiling really controls: it should never leave
    // more residual emergencies than the uncontrolled baseline.
    for r in &serial {
        if r.point.controller.tag() == "biquad-recursive" {
            assert!(r.controlled.emergencies() <= r.baseline.emergencies());
        }
    }
}
