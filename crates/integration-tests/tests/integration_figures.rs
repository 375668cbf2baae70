//! Smoke tests that every figure/table regeneration binary runs and
//! produces the expected headline content. Uses reduced problem sizes by
//! invoking the underlying APIs directly where the binaries would be too
//! slow for CI.

use didt_core::characterize::GaussianityStudy;
use didt_core::monitor::{CycleSense, VoltageMonitor, WaveletMonitorDesign};
use didt_core::DidtSystem;
use didt_dsp::{dwt, Scalogram, WaveletFamily};
use didt_pdn::resonant_square_wave;
use didt_uarch::{capture_trace, Benchmark, ProcessorConfig};

#[test]
fn table1_parameters_match_paper() {
    let c = ProcessorConfig::table1();
    assert_eq!(
        (c.ruu_entries, c.lsq_entries, c.branch_penalty),
        (80, 40, 12)
    );
    assert_eq!(c.l1d.size_bytes, 64 * 1024);
    assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
    assert_eq!(c.memory_latency, 250);
}

#[test]
fn figure5_impedance_curve_shape() {
    let sys = DidtSystem::standard().expect("system");
    let pdn = sys.pdn_at(100.0).expect("pdn");
    // Bandpass shape: rises from DC to the 50-200 MHz band, falls after.
    let z_dc = pdn.impedance_at(1e6);
    let z_res = pdn.impedance_at(pdn.resonant_frequency());
    let z_hi = pdn.impedance_at(1.4e9);
    assert!(z_res > 2.0 * z_dc);
    assert!(z_res > 2.0 * z_hi);
    let f0 = pdn.resonant_frequency();
    assert!((50e6..=200e6).contains(&f0), "resonance {f0}");
}

#[test]
fn figure4_scalogram_renders_for_every_benchmark_class() {
    let sys = DidtSystem::standard().expect("system");
    for b in [Benchmark::Gzip, Benchmark::Mcf] {
        let trace = capture_trace(b, sys.processor(), 1, 20_000, 256);
        let d = dwt(&trace.samples, WaveletFamily::Haar, 8).expect("dwt");
        let sg = Scalogram::from_decomposition(&d);
        let art = sg.render();
        assert_eq!(art.lines().count(), 8);
        assert!(sg.max_magnitude() > 0.0);
    }
}

#[test]
fn figure6_a_significant_fraction_of_windows_is_gaussian() {
    let sys = DidtSystem::standard().expect("system");
    let study = GaussianityStudy::new(0.95, 11);
    let mut accepted = 0usize;
    let mut tested = 0usize;
    for b in [Benchmark::Gzip, Benchmark::Mesa, Benchmark::Vpr] {
        let t = capture_trace(b, sys.processor(), 1, 60_000, 1 << 15);
        let r = study.classify(&t.samples, 32, 200).expect("classify");
        accepted += r.accepted;
        tested += r.tested;
    }
    let rate = accepted as f64 / tested as f64;
    assert!(
        (0.1..0.9).contains(&rate),
        "32-cycle acceptance {rate} out of plausible band"
    );
}

#[test]
fn figure13_error_decays_with_terms_and_grows_with_impedance() {
    let sys = DidtSystem::standard().expect("system");
    let stressor = sys.calibration().stressor();
    let mut table = Vec::new();
    for pct in [125.0, 200.0] {
        let pdn = sys.pdn_at(pct).expect("pdn");
        let design = WaveletMonitorDesign::new(&pdn, 256).expect("design");
        let mut row = Vec::new();
        for k in [2usize, 8, 24] {
            let mut mon = design.build(k, 0).expect("monitor");
            let mut sim = pdn.simulator();
            let mut worst = 0.0f64;
            for (n, &i) in stressor.iter().take(6000).enumerate() {
                let v = sim.step(i);
                let est = mon.observe(CycleSense {
                    current: i,
                    voltage: v,
                });
                if n > 512 {
                    worst = worst.max((est - v).abs());
                }
            }
            row.push(worst);
        }
        assert!(row[0] > row[1] && row[1] > row[2], "{pct}%: {row:?}");
        table.push(row);
    }
    // More impedance → more error at the same budget.
    for (lo, hi) in table[0].iter().zip(&table[1]) {
        assert!(hi > lo);
    }
}

#[test]
fn worst_case_stressor_is_actually_worst_case_among_periods() {
    // The calibration square wave at the resonant period must droop more
    // than off-resonance periods of the same amplitude.
    let sys = DidtSystem::standard().expect("system");
    let pdn = sys.pdn_at(150.0).expect("pdn");
    let period = pdn.resonant_period_cycles().round() as usize;
    let droop = |p: usize| {
        let s = resonant_square_wave(20_000, p, 55.0, 12.0);
        let v = pdn.simulate(&s);
        v[5000..].iter().copied().fold(f64::INFINITY, f64::min)
    };
    let at_res = droop(period);
    for p in [4, 10, 90, 300] {
        assert!(at_res < droop(p), "period {p} droops more than resonance");
    }
}
