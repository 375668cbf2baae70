//! Golden-number regressions for the figure/table experiments.
//!
//! Scaled-down, fixed-seed versions of `fig08_level_truncation` and
//! `tab02_scheme_comparison`, plus `fig09_emergency_estimate` at full
//! scale. Every quantity below is fully deterministic (seeds derive
//! from point identity, simulations are pure f64 arithmetic), so the
//! goldens are exact for integer counts and tight-tolerance for floats.
//! A change in any of these numbers means the modelled physics, the
//! workload generator, or the seeding scheme changed — which must be a
//! deliberate, reviewed decision.

use didt_bench::{
    benchmark_trace, impulse_energy_capture, standard_system, workload_seed, ControllerSpec,
    ExperimentRunner, RunParams, Sweep, SweepContext, SweepPoint,
};
use didt_core::characterize::{EmergencyEstimator, ScaleGainModel, VarianceModel};
use didt_core::control::{ClosedLoop, ClosedLoopConfig, ClosedLoopResult, NoControl};
use didt_core::monitor::FamilyMonitorDesign;
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_serve::{CharacterizeSpec, Request, RequestBody, ResponsePayload, Service, TraceSource};
use didt_telemetry::Json;
use didt_uarch::{capture_trace, Benchmark};

/// Tolerance for golden floats: far wider than f64 noise (the runs are
/// bit-deterministic), far tighter than any behavioural change.
const TOL: f64 = 1e-6;

/// Scaled-down Figure 8: truncation error (4 of 8 levels) on short
/// fixed-seed traces against the 150 % network.
#[test]
fn fig08_level_truncation_goldens() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let gains = ScaleGainModel::calibrate(&pdn, 256, 0xCAB1).unwrap();
    let full = VarianceModel::new(gains.clone());
    let cut = VarianceModel::with_level_budget(gains, 4);

    let golden = [(Benchmark::Crafty, 14.799268), (Benchmark::Swim, 8.043031)];
    let actual: Vec<f64> = golden
        .iter()
        .map(|&(bench, _)| {
            let trace = capture_trace(
                bench,
                ctx.system().processor(),
                0xD1D7_2004,
                20_000,
                1 << 14,
            );
            let mut err_sum = 0.0;
            let mut var_sum = 0.0;
            for window in trace.samples.chunks_exact(256) {
                let vf = full.estimate(window).unwrap().v_variance;
                let vc = cut.estimate(window).unwrap().v_variance;
                err_sum += (vf - vc).abs();
                var_sum += vf;
            }
            let rel_pct = 100.0 * err_sum / var_sum;
            eprintln!("fig08 golden {}: {rel_pct:.6}", bench.name());
            rel_pct
        })
        .collect();
    for (&(bench, want_pct), &rel_pct) in golden.iter().zip(&actual) {
        assert!(
            (rel_pct - want_pct).abs() < TOL,
            "{}: truncation error {rel_pct:.6}% != golden {want_pct:.6}%",
            bench.name()
        );
    }
}

/// Scaled-down `ext_wavelet_family`: the Figure 8 truncation sweep in
/// non-Haar bases and boundary modes, plus the coefficient-domain
/// kernel error of the filter-generic monitor. Everything here is
/// offline and seed-deterministic, so the goldens are exact.
#[test]
fn ext_wavelet_family_goldens() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let trace = capture_trace(
        Benchmark::Crafty,
        ctx.system().processor(),
        0xD1D7_2004,
        20_000,
        1 << 14,
    );

    // fig08-style truncation table per (family, boundary) on Crafty.
    // The Haar/periodic row must reproduce the fig08 golden exactly:
    // the filter-generic engine owns that path now.
    let golden = [
        (WaveletFamily::Haar, BoundaryMode::Periodic, 14.799268),
        (WaveletFamily::Db3, BoundaryMode::Periodic, 0.140693),
        (WaveletFamily::Db3, BoundaryMode::Symmetric, 0.116128),
        (WaveletFamily::Db8, BoundaryMode::Periodic, 0.002903),
    ];
    let actual: Vec<f64> = golden
        .iter()
        .map(|&(family, mode, _)| {
            let gains = ScaleGainModel::calibrate_family(&pdn, 256, 0xCAB1, family).unwrap();
            let full = VarianceModel::with_boundary(gains.clone(), None, mode);
            let cut = VarianceModel::with_boundary(gains, Some(4), mode);
            let mut err_sum = 0.0;
            let mut var_sum = 0.0;
            for window in trace.samples.chunks_exact(256) {
                let vf = full.estimate(window).unwrap().v_variance;
                let vc = cut.estimate(window).unwrap().v_variance;
                err_sum += (vf - vc).abs();
                var_sum += vf;
            }
            let rel_pct = 100.0 * err_sum / var_sum;
            eprintln!(
                "ext_wavelet_family golden {}/{}: {rel_pct:.6}",
                family.name(),
                mode.name()
            );
            rel_pct
        })
        .collect();
    for (&(family, mode, want_pct), &rel_pct) in golden.iter().zip(&actual) {
        assert!(
            (rel_pct - want_pct).abs() < TOL,
            "{}/{}: truncation error {rel_pct:.6}% != golden {want_pct:.6}%",
            family.name(),
            mode.name()
        );
    }

    // Kernel error per retained tap: pure design-time arithmetic on the
    // calibrated network's impulse response.
    let kernel_golden = [
        (WaveletFamily::Haar, 0.212388),
        (WaveletFamily::Db3, 0.126163),
        (WaveletFamily::Db8, 0.221235),
    ];
    let kernel_actual: Vec<f64> = kernel_golden
        .iter()
        .map(|&(family, _)| {
            let design =
                FamilyMonitorDesign::new(&pdn, 256, family, BoundaryMode::Periodic).unwrap();
            let got = design.kernel_error(13);
            eprintln!(
                "ext_wavelet_family kernel golden {}: {got:.6}",
                family.name()
            );
            got
        })
        .collect();
    for (&(family, want), &got) in kernel_golden.iter().zip(&kernel_actual) {
        assert!(
            (got - want).abs() < TOL,
            "{}: kernel error {got:.6} != golden {want:.6}",
            family.name()
        );
    }

    // Impulse-response energy in the top 13 coefficients, the manifest's
    // `energy_capture_top13.{haar,db2}` (0.9549 and 0.9795 at 4 places).
    let energy_golden = [
        (WaveletFamily::Haar, 8, 0.954891),
        (WaveletFamily::Db2, 6, 0.979490),
    ];
    for (family, levels, want) in energy_golden {
        let got = impulse_energy_capture(family, levels, 13);
        eprintln!(
            "ext_wavelet_family energy golden {}: {got:.6}",
            family.name()
        );
        assert!(
            (got - want).abs() < TOL,
            "{}: top-13 energy capture {got:.6} != golden {want:.6}",
            family.name()
        );
    }
}

/// Scaled-down Table 2: the four control schemes on two benchmarks at
/// 150 % impedance through the sweep runner. Emergency counts are
/// integers and must match exactly; slowdown percentages to `TOL`.
#[test]
fn tab02_scheme_comparison_goldens() {
    let ctx = SweepContext::standard().unwrap();
    let points = Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
        .pdn_pcts(&[150.0])
        .monitor_terms(&[13])
        .controllers(&[
            ControllerSpec::AnalogThreshold {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::FullConvolution {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.004,
            },
            ControllerSpec::PipelineDamping {
                window: 15,
                max_delta: 6.0,
            },
            ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
        ])
        .points();
    let run = RunParams {
        instructions: 5_000,
        warmup_cycles: 2_000,
    };
    let results = ctx.run_sweep(&ExperimentRunner::from_env(), &points, run);
    assert_eq!(results.len(), 8);

    // (scheme tag, summed slowdown %, summed residual emergencies).
    let golden: [(&str, f64, u64); 4] = [
        ("analog-sensor", 0.249264, 3),
        ("full-convolution", 0.200578, 12),
        ("pipeline-damping", 3.309055, 0),
        ("wavelet-convolution", 0.102384, 3),
    ];
    let actual: Vec<(f64, u64)> = golden
        .iter()
        .map(|&(tag, _, _)| {
            let mut slowdown = 0.0;
            let mut emergencies = 0u64;
            for r in results.iter().filter(|r| r.point.controller.tag() == tag) {
                slowdown += r.slowdown_pct();
                emergencies += r.controlled.emergencies();
            }
            eprintln!("tab02 golden {tag}: slowdown {slowdown:.6} emergencies {emergencies}");
            (slowdown, emergencies)
        })
        .collect();
    for (&(tag, want_slowdown, want_emergencies), &(slowdown, emergencies)) in
        golden.iter().zip(&actual)
    {
        assert_eq!(
            emergencies, want_emergencies,
            "{tag}: residual emergencies changed"
        );
        assert!(
            (slowdown - want_slowdown).abs() < TOL,
            "{tag}: slowdown {slowdown:.6}% != golden {want_slowdown:.6}%"
        );
    }

    // The uncontrolled baseline is part of the golden contract too.
    let base: u64 = results
        .iter()
        .filter(|r| r.point.controller.tag() == "analog-sensor")
        .map(|r| r.baseline.emergencies())
        .sum();
    eprintln!("tab02 golden baseline emergencies: {base}");
    assert_eq!(base, 30, "uncontrolled baseline emergencies changed");
}

/// A closed-loop result's ten fields in declaration order: the seven
/// counts as they are, then `v_min`, `v_max` and `mean_power` by
/// `to_bits`.
fn result_bits(r: &ClosedLoopResult) -> [u64; 10] {
    [
        r.cycles,
        r.instructions,
        r.low_emergencies,
        r.high_emergencies,
        r.stall_cycles,
        r.nop_cycles,
        r.false_positives,
        r.v_min.to_bits(),
        r.v_max.to_bits(),
        r.mean_power.to_bits(),
    ]
}

/// Controlled replays through `SweepContext::run_replay`: two short
/// uncontrolled recordings (gzip and mcf at 150 %) re-scored under six
/// threshold and damping schemes. Both legs' ten fields are pinned by
/// bits; the uncontrolled leg is pinned once per recording and every
/// scheme's replay must reproduce it.
#[test]
fn controlled_replay_goldens() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let run = RunParams {
        instructions: 6_000,
        warmup_cycles: 1_000,
    };
    let schemes = [
        ControllerSpec::AnalogThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
        },
        ControllerSpec::FullConvolution {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
        },
        ControllerSpec::PipelineDamping {
            window: 15,
            max_delta: 6.0,
        },
        ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        ControllerSpec::BiquadRecursive {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        ControllerSpec::WaveletFamilyThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
            family: WaveletFamily::Db3,
            boundary: BoundaryMode::Periodic,
        },
    ];
    let mut actual = Vec::new();
    for bench in [Benchmark::Gzip, Benchmark::Mcf] {
        let cfg = ClosedLoopConfig {
            seed: workload_seed(bench, 150.0),
            warmup_cycles: run.warmup_cycles,
            instructions: run.instructions,
            ..ClosedLoopConfig::standard(bench)
        };
        let live = ClosedLoop::new(*ctx.system().processor(), *pdn, cfg)
            .run_recording(&mut NoControl)
            .unwrap();
        actual.push((bench.name(), "baseline", result_bits(&live.result)));
        for controller in schemes {
            let point = SweepPoint {
                benchmark: bench,
                pdn_pct: 150.0,
                monitor_terms: 13,
                controller,
            };
            let pr = ctx
                .run_replay(&point, run, &live.records, live.pre_roll)
                .unwrap();
            assert_eq!(
                result_bits(&pr.baseline),
                result_bits(&live.result),
                "{} {}: uncontrolled replay leg changed",
                bench.name(),
                controller.tag()
            );
            actual.push((bench.name(), controller.tag(), result_bits(&pr.controlled)));
        }
    }
    for (bench, tag, bits) in &actual {
        eprintln!(
            "replay golden {bench} {tag}: {:?} v_min {:#x} v_max {:#x} power {:#x}",
            &bits[..7],
            bits[7],
            bits[8],
            bits[9]
        );
    }
    assert_eq!(actual, REPLAY_GOLDEN, "controlled replay results changed");
}

/// `(benchmark, scheme tag or "baseline", result_bits)` per replay in
/// `controlled_replay_goldens`, captured from the per-cycle two-leg
/// replay loop.
#[rustfmt::skip]
const REPLAY_GOLDEN: &[(&str, &str, [u64; 10])] = &[
    ("gzip", "baseline", [28044, 6003, 3, 0, 0, 0, 0, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "analog-sensor", [28044, 6003, 3, 0, 754, 0, 388, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "full-convolution", [28044, 6003, 3, 0, 755, 0, 460, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "pipeline-damping", [28044, 6003, 3, 0, 2587, 2627, 4612, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "wavelet-convolution", [28044, 6003, 3, 0, 121, 50, 65, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "biquad-recursive", [28044, 6003, 3, 0, 754, 0, 306, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("gzip", "wavelet-family", [28044, 6003, 3, 0, 1023, 0, 498, 0x3fee4a61e5cfcf14, 0x3ff055425d5e9a50, 0x40304bb50ba431ed]),
    ("mcf", "baseline", [87125, 6003, 0, 0, 0, 0, 0, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "analog-sensor", [87125, 6003, 0, 0, 385, 0, 259, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "full-convolution", [87125, 6003, 0, 0, 390, 0, 302, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "pipeline-damping", [87125, 6003, 0, 0, 4252, 4389, 8351, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "wavelet-convolution", [87125, 6003, 0, 0, 56, 3, 17, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "biquad-recursive", [87125, 6003, 0, 0, 392, 0, 219, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
    ("mcf", "wavelet-family", [87125, 6003, 0, 0, 655, 0, 441, 0x3fee9d5992a663d8, 0x3ff047b9a5907be0, 0x402d50aa25ac3e94]),
];

/// Figure 9 at full scale: `fig09_emergency_estimate`'s loop over all
/// 26 benchmarks (window 64, calibration seed `0xCAB1`, 150 %
/// impedance, 0.97 V threshold). Every `(estimated, observed)` pair and
/// the RMS error are pinned by `to_bits`, so any change to the
/// estimator's tiling, window kernels or reduction order shows here.
#[test]
fn fig09_emergency_estimate_goldens() {
    let sys = standard_system();
    let pdn = sys.pdn_at(150.0).unwrap();
    let gains = ScaleGainModel::calibrate(&pdn, 64, 0xCAB1).unwrap();
    let estimator = EmergencyEstimator::new(VarianceModel::new(gains), 0.97);
    let mut sq_err = 0.0;
    let mut actual = Vec::new();
    for bench in Benchmark::all() {
        let trace = benchmark_trace(&sys, bench);
        let r = estimator.compare(&trace.samples, &pdn).unwrap();
        sq_err += (100.0 * (r.estimated - r.observed)).powi(2);
        actual.push((bench.name(), r.estimated.to_bits(), r.observed.to_bits()));
    }
    let rms = (sq_err / actual.len() as f64).sqrt();
    eprintln!("fig09 golden rms: {rms:.6}%");
    assert_eq!(actual, FIG09_GOLDEN, "Figure 9 estimates changed");
    assert_eq!(rms.to_bits(), FIG09_RMS_PCT, "Figure 9 RMS error changed");
}

/// `(benchmark, estimated.to_bits(), observed.to_bits())` per Figure 9
/// row, in `Benchmark::all()` order. Captured from the scalar window
/// loop; the lane-packed estimator must reproduce every bit.
const FIG09_GOLDEN: &[(&str, u64, u64)] = &[
    ("gzip", 0x3fa5c8053bbe5e56, 0x3fac210000000000),
    ("wupwise", 0x3fa542c69c7255b7, 0x3fa7b04000000000),
    ("swim", 0x3f9ef4f424d8ed89, 0x3fa1560000000000),
    ("mgrid", 0x3f763d7adcf56efe, 0x3f80cf0000000000),
    ("applu", 0x3f8ffa8fb1855e76, 0x3f96de0000000000),
    ("vpr", 0x3f97338184642814, 0x3f9a270000000000),
    ("gcc", 0x3f58a6f0683fec99, 0x3f69e40000000000),
    ("mesa", 0x3fae04806c8c14de, 0x3fb004c000000000),
    ("galgel", 0x3f7b6fdb5fef39ae, 0x3f82800000000000),
    ("art", 0x3f79706d57a75959, 0x3f7d120000000000),
    ("mcf", 0x3f61006957e38b45, 0x3f64000000000000),
    ("equake", 0x3f90861be8877af7, 0x3f94938000000000),
    ("crafty", 0x3fac62d631f575f0, 0x3fb39ca000000000),
    ("facerec", 0x3f8fad2a99a93d08, 0x3f953f0000000000),
    ("ammp", 0x3f79d4efb1a25c1c, 0x3f80fc0000000000),
    ("lucas", 0x3f9b39b132d5a50d, 0x3f9f370000000000),
    ("fma3d", 0x3f89af2efe731850, 0x3f92198000000000),
    ("parser", 0x3f953d30b6bcedcd, 0x3f9d278000000000),
    ("sixtrack", 0x3faa7dea7cd233b2, 0x3fadb4c000000000),
    ("eon", 0x3fb06e061d158df4, 0x3fb541e000000000),
    ("perlbmk", 0x3fa0979fc8db5e9f, 0x3fa4d94000000000),
    ("gap", 0x3fa17f0c31d7d7e5, 0x3fa6ac4000000000),
    ("vortex", 0x3f8d19994c1395fc, 0x3f95a40000000000),
    ("bzip2", 0x3fa0adae1a52cc93, 0x3fa8414000000000),
    ("twolf", 0x3f99711ec68c644e, 0x3fa0c30000000000),
    ("apsi", 0x3f79dfee44c54f55, 0x3f82470000000000),
];

/// Figure 9's RMS error in percent of cycles, as `to_bits`.
const FIG09_RMS_PCT: u64 = 0x3fea6f639b009de9;

/// A report's numbers as `(path, f64::to_bits)` pairs, in report order.
type ReportGolden = &'static [(&'static str, u64)];

/// Every number in a `Characterize` report, flattened to
/// `(path, f64::to_bits)` pairs in report order.
fn flatten_numbers(json: &Json, path: &str, out: &mut Vec<(String, u64)>) {
    match json {
        Json::Num(x) => out.push((path.to_string(), x.to_bits())),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_numbers(item, &format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten_numbers(value, &child, out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

/// The §4 `Characterize` report, bit for bit: per-scale variance and
/// correlation, the χ² Gaussianity counts and variances, and the
/// Gaussian emergency estimate, on a fixed-seed Crafty trace against
/// the 150 % network. One spec is Haar/periodic at window 64 (8 χ²
/// bins), the other db4/symmetric at window 32 (4 bins); both run the
/// one `dwt_boundary` pass, and both mix accepted, rejected and
/// degenerate windows.
#[test]
fn characterize_report_goldens() {
    let service = Service::standard().unwrap();
    let trace = capture_trace(
        Benchmark::Crafty,
        service.context().system().processor(),
        0xD1D7_2004,
        20_000,
        1 << 14,
    )
    .samples;
    let cases: [(WaveletFamily, BoundaryMode, usize, ReportGolden); 2] = [
        (
            WaveletFamily::Haar,
            BoundaryMode::Periodic,
            64,
            CHARACTERIZE_HAAR_PERIODIC,
        ),
        (
            WaveletFamily::Db4,
            BoundaryMode::Symmetric,
            32,
            CHARACTERIZE_DB4_SYMMETRIC,
        ),
    ];
    for (family, boundary, window, golden) in cases {
        let request = Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(trace.clone()),
                pdn_pct: 150.0,
                window,
                family,
                boundary,
                ..CharacterizeSpec::default()
            }),
        };
        let report = match service.handle(&request, None).payload {
            ResponsePayload::Ok { result, .. } => result,
            other => panic!("characterize failed: {other:?}"),
        };
        let mut actual = Vec::new();
        flatten_numbers(&report, "", &mut actual);
        let want: Vec<(String, u64)> = golden.iter().map(|&(p, b)| (p.to_string(), b)).collect();
        assert_eq!(
            actual,
            want,
            "{}/{}: Characterize report changed",
            family.name(),
            boundary.name()
        );
    }
}

/// Captured from the per-window χ² implementation that rebuilt its
/// constants for every window; any change here is a change in the
/// analysis. The `scales` rows were re-captured when the Haar rows moved
/// from the streaming pyramid, which computes `(a − b)·(1/√2)`, to
/// `dwt_boundary`, which computes `a·h0 + b·h1`: nine of them moved in
/// their last bits.
const CHARACTERIZE_HAAR_PERIODIC: ReportGolden = &[
    ("trace_len", 0x40d0000000000000),
    ("window", 0x4050000000000000),
    ("scales[0].level", 0x3ff0000000000000),
    ("scales[0].span", 0x4000000000000000),
    ("scales[0].variance", 0x3fed44a173be311e),
    ("scales[0].adjacent_correlation", 0x3fc34c6fd6e0fefd),
    ("scales[1].level", 0x4000000000000000),
    ("scales[1].span", 0x4010000000000000),
    ("scales[1].variance", 0x400133971b0f45a2),
    ("scales[1].adjacent_correlation", 0xbfbf26d13c1ce7e3),
    ("scales[2].level", 0x4008000000000000),
    ("scales[2].span", 0x4020000000000000),
    ("scales[2].variance", 0x4012ae0ee7fe6586),
    ("scales[2].adjacent_correlation", 0x3f95a34ea7aa62de),
    ("scales[3].level", 0x4010000000000000),
    ("scales[3].span", 0x4030000000000000),
    ("scales[3].variance", 0x402157a92ee45004),
    ("scales[3].adjacent_correlation", 0xbfd4919d81ec756c),
    ("scales[4].level", 0x4014000000000000),
    ("scales[4].span", 0x4040000000000000),
    ("scales[4].variance", 0x402a1dff795865bd),
    ("scales[4].adjacent_correlation", 0xbfb350a12337c36c),
    ("scales[5].level", 0x4018000000000000),
    ("scales[5].span", 0x4050000000000000),
    ("scales[5].variance", 0x402ce274f6576021),
    ("scales[5].adjacent_correlation", 0xbfc8453792d42de5),
    ("gaussianity.tested", 0x4069000000000000),
    ("gaussianity.accepted", 0x4035000000000000),
    ("gaussianity.rejected", 0x4056400000000000),
    ("gaussianity.degenerate", 0x4056800000000000),
    ("gaussianity.acceptance_rate", 0x3fbae147ae147ae1),
    ("gaussianity.overall_variance", 0x4048954d9079da6e),
    ("gaussianity.non_gaussian_variance", 0x40472538babbb2ce),
    ("emergency.threshold", 0x3fee666666666666),
    ("emergency.estimated_fraction", 0x3f4585b78bf84c9e),
    ("emergency.windows", 0x4070000000000000),
    ("emergency.mean_voltage", 0x3fefbb30650f5500),
];

const CHARACTERIZE_DB4_SYMMETRIC: ReportGolden = &[
    ("trace_len", 0x40d0000000000000),
    ("window", 0x4040000000000000),
    ("scales[0].level", 0x3ff0000000000000),
    ("scales[0].span", 0x4000000000000000),
    ("scales[0].variance", 0x3fd7219ea4b3339d),
    ("scales[0].adjacent_correlation", 0xbfc2b49b43fc7515),
    ("scales[1].level", 0x4000000000000000),
    ("scales[1].span", 0x4010000000000000),
    ("scales[1].variance", 0x3ff3d443ec7152af),
    ("scales[1].adjacent_correlation", 0xbfe6965579211ea4),
    ("scales[2].level", 0x4008000000000000),
    ("scales[2].span", 0x4020000000000000),
    ("scales[2].variance", 0x40050601bf6374d8),
    ("scales[2].adjacent_correlation", 0xbfc3b50c1ec20e76),
    ("scales[3].level", 0x4010000000000000),
    ("scales[3].span", 0x4030000000000000),
    ("scales[3].variance", 0x401f29b3a8848c8d),
    ("scales[3].adjacent_correlation", 0xbfe0ee204ee187d0),
    ("scales[4].level", 0x4014000000000000),
    ("scales[4].span", 0x4040000000000000),
    ("scales[4].variance", 0x402b66f86e78de1b),
    ("scales[4].adjacent_correlation", 0xbfc6aee8ea6e5f8e),
    ("gaussianity.tested", 0x4069000000000000),
    ("gaussianity.accepted", 0x4041800000000000),
    ("gaussianity.rejected", 0x4043000000000000),
    ("gaussianity.degenerate", 0x405fc00000000000),
    ("gaussianity.acceptance_rate", 0x3fc6666666666666),
    ("gaussianity.overall_variance", 0x4037ae424d77442a),
    ("gaussianity.non_gaussian_variance", 0x402ccf784e6f2afa),
    ("emergency.threshold", 0x3fee666666666666),
    ("emergency.estimated_fraction", 0x3cd398d832086118),
    ("emergency.windows", 0x4080000000000000),
    ("emergency.mean_voltage", 0x3fefbb30650f5509),
];

/// A one-thread sweep runner changes how work is scheduled, never what
/// it computes. This re-runs the test binary under `DIDT_NUM_THREADS=1`,
/// which must pass every other golden here unchanged; `tab02` goes
/// through `ExperimentRunner::from_env`, so there it runs serially.
#[test]
fn serial_runner_reproduces_every_golden() {
    const SELF: &str = "serial_runner_reproduces_every_golden";
    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new(&exe)
        .args(["--skip", SELF])
        .env("DIDT_NUM_THREADS", "1")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "goldens changed under DIDT_NUM_THREADS=1:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
