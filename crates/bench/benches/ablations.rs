//! Ablation benches for the design choices called out in DESIGN.md:
//! wavelet basis (Haar vs db2), analysis window length, and
//! wavelet-vs-time-domain coefficient selection. These measure *quality*
//! (estimation error), reported through Criterion's throughput of the
//! full computation so regressions in either speed or setup are visible;
//! the headline quality numbers are printed once at the start.

use criterion::{criterion_group, criterion_main, Criterion};
use didt_core::monitor::{CycleSense, VoltageMonitor, WaveletMonitorDesign};
use didt_dsp::{dwt, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use std::hint::black_box;

fn pdn() -> SecondOrderPdn {
    SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).expect("pdn")
}

/// Fraction of the impulse response's energy captured by the largest K
/// coefficients in a basis — the compaction the monitor exploits.
fn energy_capture(w: WaveletFamily, levels: usize, k: usize) -> f64 {
    let h = pdn().impulse_response(256);
    let d = dwt(&h, w, levels).expect("dwt");
    let mut coeffs: Vec<f64> = d
        .approximation()
        .iter()
        .chain(d.detail_rows().flatten())
        .map(|x| x * x)
        .collect();
    coeffs.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = coeffs.iter().sum();
    coeffs[..k].iter().sum::<f64>() / total
}

fn print_quality_summary() {
    println!("\n== ablation: impulse-response energy captured by top-13 coefficients ==");
    println!("  haar : {:.4}", energy_capture(WaveletFamily::Haar, 8, 13));
    println!("  db2  : {:.4}", energy_capture(WaveletFamily::Db2, 6, 13));
    println!("(the paper's Haar choice is justified if both are high and Haar's");
    println!(" shift-register implementation is cheaper)\n");
}

fn bench_basis_ablation(c: &mut Criterion) {
    print_quality_summary();
    let h = pdn().impulse_response(256);
    c.bench_function("ablation/design_haar", |b| {
        b.iter(|| black_box(dwt(black_box(&h), WaveletFamily::Haar, 8).expect("dwt")));
    });
    c.bench_function("ablation/design_db2", |b| {
        b.iter(|| black_box(dwt(black_box(&h), WaveletFamily::Db2, 6).expect("dwt")));
    });
}

fn bench_window_ablation(c: &mut Criterion) {
    // Monitor window length: shorter windows are cheaper but truncate the
    // impulse response harder.
    let p = pdn();
    let trace: Vec<f64> = (0..4096)
        .map(|i| if (i / 15) % 2 == 0 { 48.0 } else { 14.0 })
        .collect();
    let mut g = c.benchmark_group("ablation/monitor_window");
    for window in [64usize, 128, 256, 512] {
        let design = WaveletMonitorDesign::new(&p, window).expect("design");
        g.bench_function(format!("window_{window}"), |b| {
            b.iter(|| {
                let mut mon = design.build(13, 0).expect("monitor");
                let mut acc = 0.0;
                for &i in &trace {
                    acc += mon.observe(CycleSense {
                        current: i,
                        voltage: 1.0,
                    });
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_basis_ablation, bench_window_ablation
}
criterion_main!(benches);
