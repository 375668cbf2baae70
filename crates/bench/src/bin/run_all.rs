//! Regenerate every figure, table, extension and ablation into
//! `results/`, one text file per experiment.
//!
//! Experiments are independent subprocesses, so they execute on the
//! shared worker pool ([`didt_bench::ExperimentRunner`]; thread count
//! from `DIDT_NUM_THREADS`, else the machine). Pass
//! `--serial` to force one experiment at a time (the reference
//! ordering; outputs are identical either way since each experiment
//! writes only its own file and the progress log is printed from
//! collected results in list order).
//!
//! Every child is expected to write its run manifest under
//! `results/manifests/` (`DIDT_MANIFEST_DIR` overrides); a child that
//! exits successfully but writes no manifest is reported as failed.
//! `run_all` itself writes `run_all.json` recording the fan-out.
//!
//! Pass `--smoke` for a fast in-process double sweep over a small grid
//! instead of the subprocess fan-out: it exercises the runner, the
//! calibration caches (the second sweep must hit them) and the manifest
//! writer end to end in a few seconds, and writes `run_all_smoke.json`.
//! `--serial` combines with `--smoke`.
//!
//! Run with: `cargo run --release -p didt-bench --bin run_all`

use std::path::Path;
use std::process::Command;

use didt_bench::runner::MONITOR_WINDOW;
use didt_bench::{
    ControllerSpec, Experiment, ExperimentRunner, RunParams, Sweep, SweepContext, SweepPoint,
};
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_uarch::Benchmark;

/// Every experiment binary, in the order they appear in EXPERIMENTS.md.
const EXPERIMENTS: &[&str] = &[
    "tab01_config",
    "fig04_scalogram",
    "fig05_impedance",
    "fig06_gaussian_acceptance",
    "fig08_level_truncation",
    "fig09_emergency_estimate",
    "fig10_11_histograms",
    "fig12_per_benchmark_gaussian",
    "fig13_coefficient_error",
    "fig15_performance_loss",
    "tab02_scheme_comparison",
    "sec43_event_correlation",
    "ablation_classifier",
    "ablation_packet_model",
    "ext_multistage_pdn",
    "ext_offline_predicts_control",
    "ext_width_sensitivity",
    "ext_guardband",
    "ext_wavelet_family",
    "trace_record",
    "ext_phase_clustering",
    // Built by didt-serve, not didt-bench; lands in the same bin dir.
    "storm_report",
];

struct Outcome {
    name: &'static str,
    ok: bool,
    secs: f64,
    error: String,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let serial = std::env::args().any(|a| a == "--serial");
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        return run_smoke(serial);
    }
    let runner = if serial {
        ExperimentRunner::serial()
    } else {
        ExperimentRunner::from_env()
    };
    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir)?;
    let manifest_dir = didt_telemetry::manifest_dir();
    let me = std::env::current_exe()?;
    let bin_dir = me.parent().ok_or("no parent dir")?.to_path_buf();

    let mut exp = Experiment::start("run_all");
    exp.runner(&runner, serial);

    println!(
        "running {} experiments on {} worker(s)\n",
        EXPERIMENTS.len(),
        runner.threads().min(EXPERIMENTS.len())
    );
    let started_all = std::time::Instant::now();
    let outcomes: Vec<Outcome> = runner.run(EXPERIMENTS, |_, &name| {
        let exe = bin_dir.join(name);
        // Stale manifests must not mask a child that stopped writing one.
        let manifest_path = manifest_dir.join(format!("{name}.json"));
        std::fs::remove_file(&manifest_path).ok();
        let started = std::time::Instant::now();
        let result = Command::new(&exe).output();
        let secs = started.elapsed().as_secs_f64();
        match result {
            Ok(output) if output.status.success() => {
                if !manifest_path.is_file() {
                    return Outcome {
                        name,
                        ok: false,
                        secs,
                        error: format!("wrote no manifest at {}", manifest_path.display()),
                    };
                }
                let write = std::fs::write(out_dir.join(format!("{name}.txt")), &output.stdout);
                match write {
                    Ok(()) => Outcome {
                        name,
                        ok: true,
                        secs,
                        error: String::new(),
                    },
                    Err(e) => Outcome {
                        name,
                        ok: false,
                        secs,
                        error: e.to_string(),
                    },
                }
            }
            Ok(output) => Outcome {
                name,
                ok: false,
                secs,
                error: format!("exit {}", output.status),
            },
            Err(e) => Outcome {
                name,
                ok: false,
                secs,
                error: e.to_string(),
            },
        }
    });

    let mut failures = Vec::new();
    for o in &outcomes {
        exp.subrun(o.name, o.ok, o.secs);
        if o.ok {
            println!("{:<32} ok   ({:6.1} s)", o.name, o.secs);
        } else {
            println!("{:<32} FAILED ({:6.1} s): {}", o.name, o.secs, o.error);
            failures.push(o.name);
        }
    }
    exp.finish()?;
    if failures.is_empty() {
        println!(
            "\nall {} experiments regenerated into results/ in {:.1} s",
            EXPERIMENTS.len(),
            started_all.elapsed().as_secs_f64()
        );
        Ok(())
    } else {
        Err(format!("failed experiments: {failures:?}").into())
    }
}

/// The `--smoke` mode: two passes of a small sweep through one shared
/// [`SweepContext`]. The first pass fills the calibration caches, the
/// second must hit them; both passes' points land in the manifest, so
/// the recorded cache hit ratios are provably nonzero on success.
fn run_smoke(serial: bool) -> Result<(), Box<dyn std::error::Error>> {
    let runner = if serial {
        ExperimentRunner::serial()
    } else {
        ExperimentRunner::from_env()
    };
    let ctx = SweepContext::standard()?;
    let sweep = Sweep::new()
        .benchmarks(&[Benchmark::Gzip, Benchmark::Swim])
        .pdn_pcts(&[125.0, 150.0])
        .controllers(&[
            ControllerSpec::None,
            ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
            // Filter-generic path: fills/hits the family design cache.
            ControllerSpec::WaveletFamilyThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
                family: WaveletFamily::Db3,
                boundary: BoundaryMode::Periodic,
            },
        ]);
    let run = RunParams {
        instructions: 3_000,
        warmup_cycles: 1_000,
    };
    let mut exp = Experiment::start("run_all_smoke");
    exp.runner(&runner, serial);
    exp.grid(&sweep);
    exp.run_params(run);
    exp.param("sweep_passes", 2.0);
    exp.param("monitor_window", MONITOR_WINDOW as f64);

    let points = sweep.points();
    let (first, first_times) = ctx.run_sweep_timed(&runner, &points, run);
    let (second, second_times) = ctx.run_sweep_timed(&runner, &points, run);
    if first != second {
        return Err("smoke sweep passes disagree — determinism broken".into());
    }
    // Offline leg: the characterization caches (captured traces,
    // per-scale gains, the prepared χ² test) and the full-convolution
    // monitor are off this grid's path, so exercise them directly — two
    // rounds, the second must be all hits.
    let full_conv = SweepPoint {
        benchmark: Benchmark::Gzip,
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: ControllerSpec::FullConvolution {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
        },
    };
    for _ in 0..2 {
        for bench in [Benchmark::Gzip, Benchmark::Swim] {
            let _ = ctx.trace(bench, ctx.system().processor(), 0xD1D7, 1_000, 4_096);
            let _ = ctx.record_trace(bench, ctx.system().processor(), 0xD1D7, 1_000, 4_096);
        }
        ctx.gain_model(150.0, 64, 0xCAB1)?;
        ctx.gain_model_family(150.0, 64, 0xCAB1, WaveletFamily::Db3)?;
        ctx.gof_test(8, 0.95)?;
        ctx.controller(&full_conv)?;
    }
    exp.points(&first, &first_times);
    exp.points(&second, &second_times);
    exp.cache(&ctx);

    let baseline_total: u64 = first.iter().map(|r| r.baseline.emergencies()).sum();
    let controlled_total: u64 = first.iter().map(|r| r.controlled.emergencies()).sum();
    let mean_slowdown = first
        .iter()
        .map(didt_bench::PointResult::slowdown_pct)
        .sum::<f64>()
        / first.len() as f64;
    exp.golden("baseline_emergencies_total", baseline_total as f64);
    exp.golden("controlled_emergencies_total", controlled_total as f64);
    exp.golden("mean_slowdown_pct", mean_slowdown);

    println!(
        "smoke: {} points x 2 passes on {} worker(s): baseline emergencies {}, controlled {}, mean slowdown {:.3} %",
        points.len(),
        runner.threads(),
        baseline_total,
        controlled_total,
        mean_slowdown
    );
    exp.finish()?;
    Ok(())
}
