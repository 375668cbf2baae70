//! DWT microbenchmarks: the O(N) fast wavelet transform, inverse,
//! subband projection and scalogram construction, at the window sizes
//! used in the paper (and larger, to show the linear scaling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use didt_dsp::{dwt, idwt, subband_decompose, Scalogram, WaveletFamily};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 30.0 + 12.0 * ((i as f64) * 0.21).sin() + ((i * 37) % 11) as f64 * 0.3)
        .collect()
}

fn bench_dwt(c: &mut Criterion) {
    let mut g = c.benchmark_group("dwt");
    for n in [256usize, 1024, 4096, 16384] {
        let s = signal(n);
        let levels = n.trailing_zeros() as usize;
        g.bench_with_input(BenchmarkId::new("haar", n), &s, |b, s| {
            b.iter(|| dwt(black_box(s), WaveletFamily::Haar, levels).expect("dwt"));
        });
        g.bench_with_input(BenchmarkId::new("db4", n), &s, |b, s| {
            b.iter(|| dwt(black_box(s), WaveletFamily::Db2, levels - 2).expect("dwt"));
        });
    }
    g.finish();
}

fn bench_idwt_and_subbands(c: &mut Criterion) {
    let s = signal(4096);
    let d = dwt(&s, WaveletFamily::Haar, 12).expect("dwt");
    c.bench_function("idwt/haar-4096", |b| {
        b.iter(|| idwt(black_box(&d)).expect("idwt"));
    });
    let d256 = dwt(&signal(256), WaveletFamily::Haar, 8).expect("dwt");
    c.bench_function("subband_decompose/haar-256", |b| {
        b.iter(|| subband_decompose(black_box(&d256)).expect("subbands"));
    });
    c.bench_function("scalogram/haar-256", |b| {
        b.iter(|| Scalogram::from_decomposition(black_box(&d256)));
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dwt, bench_idwt_and_subbands
}
criterion_main!(benches);
