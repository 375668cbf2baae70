//! Extension: the paper's §5 truncation study re-run across the
//! Daubechies ladder and boundary modes.
//!
//! The paper fixes the Haar basis (its monitor hardware depends on it).
//! This experiment asks what that choice costs, three ways:
//!
//! 1. **Level truncation (Figure 8 re-sweep).** Variance-estimate error
//!    when keeping only the 4 strongest of the decomposition levels,
//!    per benchmark, for each basis family under periodic extension.
//!    Smoother bases concentrate the damped-resonance variance into
//!    fewer scales, so truncation should get cheaper as the filters
//!    lengthen — up to the depth the filter length itself permits.
//! 2. **Boundary modes.** The same sweep for one mid-ladder family
//!    (db3) under all four boundary modes: the extension operator
//!    perturbs only the window edges, so the truncation cost should be
//!    mode-stable.
//! 3. **Monitor taps (Figure 13 re-sweep).** Coefficient-domain kernel
//!    error of the wavelet-compressed monitor per retained tap, family
//!    × boundary mode, plus the empirical worst voltage error of the
//!    13-term monitor on the resonant stressor (periodic designs).
//! 4. **Energy capture.** Share of the reference impulse response's
//!    energy in its 13 largest coefficients, Haar (8 levels) against
//!    db2 (6 levels): the compaction behind the paper's Haar choice.

use didt_bench::{benchmark_trace, impulse_energy_capture, standard_system, Experiment, TextTable};
use didt_core::characterize::{ScaleGainModel, VarianceModel};
use didt_core::monitor::{CycleSense, FamilyMonitorDesign, VoltageMonitor};
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use didt_uarch::Benchmark;

const WINDOW: usize = 256;
const GAIN_SEED: u64 = 0xCAB1;
const KEEP_LEVELS: usize = 4;
const PDN_PCT: f64 = 150.0;
const MONITOR_TERMS: usize = 13;

/// Worst per-benchmark relative variance-estimate error (percent) of
/// the keep-4-levels model vs the full model, in one family/mode.
fn worst_truncation_error(
    pdn: &SecondOrderPdn,
    traces: &[(String, Vec<f64>)],
    family: WaveletFamily,
    mode: BoundaryMode,
) -> (f64, Vec<(String, f64)>) {
    let gains =
        ScaleGainModel::calibrate_family(pdn, WINDOW, GAIN_SEED, family).expect("calibration");
    let full = VarianceModel::with_boundary(gains.clone(), None, mode);
    let cut = VarianceModel::with_boundary(gains, Some(KEEP_LEVELS), mode);
    let mut worst = 0.0f64;
    let per_bench: Vec<(String, f64)> = traces
        .iter()
        .map(|(name, samples)| {
            let mut err_sum = 0.0;
            let mut var_sum = 0.0;
            for window in samples.chunks_exact(WINDOW) {
                let vf = full.estimate(window).expect("window").v_variance;
                let vc = cut.estimate(window).expect("window").v_variance;
                err_sum += (vf - vc).abs();
                var_sum += vf;
            }
            let rel = if var_sum > 0.0 {
                100.0 * err_sum / var_sum
            } else {
                0.0
            };
            worst = worst.max(rel);
            (name.clone(), rel)
        })
        .collect();
    (worst, per_bench)
}

/// Worst |estimate − truth| of a K-term family monitor over the
/// resonant stressor.
fn stressor_max_error(pdn: &SecondOrderPdn, design: &FamilyMonitorDesign, k: usize) -> f64 {
    let mut mon = design.build(k, 0).expect("k >= 1");
    let mut sim = pdn.simulator();
    let period = pdn.resonant_period_cycles() as usize;
    let mut worst = 0.0f64;
    for n in 0..8_192usize {
        let i = if (n / (period / 2).max(1)).is_multiple_of(2) {
            55.0
        } else {
            12.0
        };
        let v = sim.step(i);
        let est = mon.observe(CycleSense {
            current: i,
            voltage: v,
        });
        if n > design.window() * 2 {
            worst = worst.max((est - v).abs());
        }
    }
    worst
}

fn main() {
    let mut exp = Experiment::start("ext_wavelet_family");
    let sys = standard_system();
    println!("== Extension: Haar-vs-dbN truncation sweep (families x boundary modes) ==\n");
    exp.param("window", WINDOW as f64);
    exp.param("keep_levels", KEEP_LEVELS as f64);
    exp.param("pdn_pct", PDN_PCT);
    exp.param("monitor_terms", MONITOR_TERMS as f64);

    let pdn = sys.pdn_at(PDN_PCT).expect("150% network");
    let traces: Vec<(String, Vec<f64>)> = Benchmark::all()
        .iter()
        .map(|&b| (b.name().to_string(), benchmark_trace(&sys, b).samples))
        .collect();

    // -- 1. Level truncation across the family ladder (periodic). -----
    println!("-- variance-estimate error keeping {KEEP_LEVELS} strongest levels (periodic) --\n");
    let mut t = TextTable::new(&["family", "taps", "worst bench", "worst err"]);
    for family in WaveletFamily::ALL {
        let (worst, per_bench) =
            worst_truncation_error(&pdn, &traces, family, BoundaryMode::Periodic);
        let worst_name = per_bench
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("-", |(n, _)| n.as_str());
        t.row_owned(vec![
            family.name().to_string(),
            format!("{}", family.filter_len()),
            worst_name.to_string(),
            format!("{worst:6.3}%"),
        ]);
        exp.golden(&format!("trunc_worst_pct.{}", family.name()), worst);
    }
    print!("{}", t.render());

    // -- 2. Boundary modes for db3. -----------------------------------
    println!("\n-- db3 truncation error per boundary mode --\n");
    let mut t = TextTable::new(&["boundary", "worst err"]);
    for mode in BoundaryMode::ALL {
        let (worst, _) = worst_truncation_error(&pdn, &traces, WaveletFamily::Db3, mode);
        t.row_owned(vec![mode.name().to_string(), format!("{worst:6.3}%")]);
        exp.golden(&format!("trunc_worst_pct.db3.{}", mode.name()), worst);
    }
    print!("{}", t.render());

    // -- 3. Monitor kernel error per retained tap. --------------------
    println!("\n-- monitor kernel error (rel L2) per retained coefficient budget --\n");
    let ks = [5usize, 9, 13, 20, 30];
    let mut header = vec!["family/boundary".to_string()];
    header.extend(ks.iter().map(|k| format!("K={k}")));
    header.push("stressor err @13 (V)".to_string());
    let mut t = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for family in WaveletFamily::ALL {
        for mode in BoundaryMode::ALL {
            let design =
                FamilyMonitorDesign::new(&pdn, WINDOW, family, mode).expect("monitor design");
            let mut row = vec![format!("{}/{}", family.name(), mode.name())];
            for &k in &ks {
                row.push(format!("{:6.4}", design.kernel_error(k)));
            }
            if mode == BoundaryMode::Periodic {
                let err = stressor_max_error(&pdn, &design, MONITOR_TERMS);
                row.push(format!("{err:6.4}"));
                exp.golden(
                    &format!("kernel_err_k13.{}", family.name()),
                    design.kernel_error(MONITOR_TERMS),
                );
            } else {
                row.push("-".to_string());
            }
            t.row_owned(row);
        }
    }
    print!("{}", t.render());

    // -- 4. Impulse-response energy in the top 13 coefficients. -------
    println!("\n-- impulse-response energy captured by the top {MONITOR_TERMS} coefficients --\n");
    let mut t = TextTable::new(&["family", "levels", "captured"]);
    for (family, levels) in [(WaveletFamily::Haar, 8), (WaveletFamily::Db2, 6)] {
        let captured = impulse_energy_capture(family, levels, MONITOR_TERMS);
        t.row_owned(vec![
            family.name().to_string(),
            levels.to_string(),
            format!("{captured:.4}"),
        ]);
        exp.golden(
            &format!("energy_capture_top{MONITOR_TERMS}.{}", family.name()),
            captured,
        );
    }
    print!("{}", t.render());

    println!("\npaper (Haar, Fig 8): 0.1% - 1.6% truncation error across benchmarks;");
    println!("longer filters compress the damped resonance into fewer taps, but the");
    println!("filter length itself caps the usable pyramid depth at a 256-cycle window");
    exp.finish().expect("manifest write");
}
