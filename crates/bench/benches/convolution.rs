//! Convolution-engine benchmarks: the tiered kernels of `didt-dsp`
//! (reference, blocked time-domain, FFT overlap-save, auto dispatch)
//! across the signal-length × tap-count shapes sweeps actually hit.
//! End-to-end performance is measured by `perfbench`; these benches
//! are for local kernel work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use didt_dsp::{fir_filter, fir_filter_auto, fir_filter_fast, fir_filter_time, ConvScratch};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() * 20.0 + 40.0)
        .collect()
}

fn kernel(k: usize) -> Vec<f64> {
    (0..k).map(|i| 0.995f64.powi(i as i32) * 0.01).collect()
}

fn bench_tiers(c: &mut Criterion) {
    let x = signal(1 << 16);
    let mut g = c.benchmark_group("fir_65536");
    for k in [16usize, 128, 1024] {
        let h = kernel(k);
        g.bench_with_input(BenchmarkId::new("reference", k), &k, |b, _| {
            b.iter(|| black_box(fir_filter(&x, &h)));
        });
        g.bench_with_input(BenchmarkId::new("time_blocked", k), &k, |b, _| {
            b.iter(|| black_box(fir_filter_time(&x, &h)));
        });
        g.bench_with_input(BenchmarkId::new("fft_overlap_save", k), &k, |b, _| {
            b.iter(|| black_box(fir_filter_fast(&x, &h)));
        });
        g.bench_with_input(BenchmarkId::new("auto", k), &k, |b, _| {
            b.iter(|| black_box(fir_filter_auto(&x, &h)));
        });
    }
    g.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // Sweep shape: many traces through one impulse response. The
    // scratch amortizes the kernel FFT; the one-shot path replans it
    // per call.
    let x = signal(1 << 14);
    let h = kernel(1024);
    let mut g = c.benchmark_group("fir_16384_k1024");
    g.bench_function("one_shot", |b| {
        b.iter(|| black_box(fir_filter_fast(&x, &h)));
    });
    g.bench_function("scratch_reused", |b| {
        let mut scratch = ConvScratch::with_signal_hint(&h, x.len());
        b.iter(|| black_box(scratch.apply(&x)));
    });
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
    targets = bench_tiers, bench_scratch_reuse
}
criterion_main!(benches);
