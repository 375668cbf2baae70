//! Property-based tests of the statistical primitives.

use didt_stats::chi_squared::{ChiSquared, ChiSquaredGof, GofOutcome, GofReport};
use didt_stats::normal::{erf, erfc};
use didt_stats::{
    autocorrelation, mean, pearson, variance, variance_about, window_moments, Histogram, Normal,
    Summary,
};
use proptest::prelude::*;

/// Bin edges of the χ² test's fitted normal, as [`reference_test`]
/// computes them.
fn reference_edges(bins: usize, data: &[f64]) -> Option<Vec<f64>> {
    let fitted = Normal::new(mean(data), variance(data).sqrt()).ok()?;
    (1..bins)
        .map(|i| fitted.quantile(i as f64 / bins as f64).ok())
        .collect()
}

/// The χ² normality test as first written, kept as the oracle of
/// [`PreparedGof::test`](didt_stats::PreparedGof::test): critical value
/// and fitted-normal quantiles rebuilt for every window, and each sample
/// binned by a search for the first edge above it.
fn reference_test(bins: usize, data: &[f64], significance: f64) -> GofReport {
    let dof = bins - 1 - 2;
    let chi = ChiSquared::new(dof as f64).unwrap();
    let critical_value = chi.quantile(significance).unwrap();
    // The test's degenerate-variance threshold.
    if variance(data) < 1e-12 {
        return GofReport {
            decision: GofOutcome::Degenerate,
            statistic: 0.0,
            critical_value,
            dof,
            p_value: 1.0,
        };
    }
    let edges = reference_edges(bins, data).unwrap();
    let mut observed = vec![0usize; bins];
    for &x in data {
        observed[edges.partition_point(|&e| e <= x)] += 1;
    }
    let expected = data.len() as f64 / bins as f64;
    let statistic: f64 = observed
        .iter()
        .map(|&o| (o as f64 - expected) * (o as f64 - expected) / expected)
        .sum();
    GofReport {
        decision: if statistic <= critical_value {
            GofOutcome::Accepted
        } else {
            GofOutcome::Rejected
        },
        statistic,
        critical_value,
        dof,
        p_value: chi.sf(statistic),
    }
}

/// Every field of `got` equals `want`, floats compared by their bits.
fn same_report_bits(got: &GofReport, want: &GofReport) -> bool {
    got.decision == want.decision
        && got.dof == want.dof
        && got.statistic.to_bits() == want.statistic.to_bits()
        && got.critical_value.to_bits() == want.critical_value.to_bits()
        && got.p_value.to_bits() == want.p_value.to_bits()
}

fn xorshift_unit(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One χ² window of `len` samples in the given `shape`: 0 random,
/// 1 with samples moved onto the window's own bin edges, 2 runs of
/// repeated values, 3 a variance near the degenerate threshold.
fn gof_window(shape: u8, bins: usize, len: usize, seed: u64, offset: f64, scale: f64) -> Vec<f64> {
    let mut next = xorshift_unit(seed);
    match shape {
        0 => (0..len)
            .map(|_| offset + scale * ((0..4).map(|_| next()).sum::<f64>() - 2.0))
            .collect(),
        1 => {
            // Moving a sample moves the edges, so repeat until the edges
            // settle: the moved samples then sit exactly on them.
            let mut w: Vec<f64> = (0..len).map(|_| offset + scale * next()).collect();
            for _ in 0..64 {
                let edges = reference_edges(bins, &w).unwrap();
                if edges.iter().enumerate().all(|(i, &e)| w[3 * i] == e) {
                    break;
                }
                for (i, &e) in edges.iter().enumerate() {
                    w[3 * i] = e;
                }
            }
            w
        }
        2 => {
            let mut w = Vec::with_capacity(len);
            while w.len() < len {
                let value = offset + scale * (8.0 * next()).floor();
                let run = 1 + (16.0 * next()) as usize;
                w.extend(std::iter::repeat_n(value, run.min(len - w.len())));
            }
            w
        }
        _ => {
            // Uniform jitter of width `eps` has variance eps² / 12; these
            // widths put it within two decades either side of the 1e-12
            // threshold.
            let eps = 10f64.powf(-6.5 + 2.0 * next());
            (0..len).map(|_| offset + eps * next()).collect()
        }
    }
}

#[test]
fn prepared_test_is_bit_identical_to_per_window_reference() {
    let mut next = xorshift_unit(0x2545_F491_4F6C_DD1D);
    // CLT-Gaussian, uniform, skewed and spiky windows at several
    // lengths and offsets, plus constant (degenerate) windows.
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for k in 0..60 {
        let len = [32, 64, 100, 256][k % 4];
        let offset = 1e3 * next() - 500.0;
        let scale = 10f64.powi((k % 7) as i32 - 3);
        let window = (0..len)
            .map(|_| {
                let x = match k % 3 {
                    0 => (0..12).map(|_| next()).sum::<f64>() - 6.0,
                    1 => next(),
                    _ => next().powi(4) + f64::from(u8::from(next() < 0.05)) * 20.0,
                };
                offset + scale * x
            })
            .collect();
        windows.push(window);
    }
    windows.push(vec![2.5; 64]);
    windows.push(vec![-7.0; 256]);
    windows.push(vec![0.0; 32]);

    let mut seen = std::collections::HashSet::new();
    for bins in [4, 8] {
        let gof = ChiSquaredGof::new(bins).unwrap();
        for significance in [0.90, 0.95, 0.99] {
            let prepared = gof.prepare(significance).unwrap();
            for w in windows.iter().filter(|w| w.len() >= 4 * bins) {
                let got = prepared.test(w).unwrap();
                let want = reference_test(bins, w, significance);
                assert_eq!(got.decision, want.decision);
                assert_eq!(got.dof, want.dof);
                assert_eq!(got.statistic.to_bits(), want.statistic.to_bits());
                assert_eq!(got.critical_value.to_bits(), want.critical_value.to_bits());
                assert_eq!(got.p_value.to_bits(), want.p_value.to_bits());
                assert_eq!(got, gof.test_normality(w, significance).unwrap());
                seen.insert(got.decision);
            }
        }
    }
    assert_eq!(seen.len(), 3, "every outcome must be exercised: {seen:?}");
}

/// `window_moments` against `mean` and `variance_about` window by
/// window, by bits.
fn assert_moments_match(windows: &[&[f64]]) {
    let got = window_moments(windows);
    assert_eq!(got.len(), windows.len());
    for (k, (w, &(m, v))) in windows.iter().zip(&got).enumerate() {
        let want_m = mean(w);
        assert_eq!(m.to_bits(), want_m.to_bits(), "mean of window {k}");
        let want_v = variance_about(w, want_m);
        assert_eq!(v.to_bits(), want_v.to_bits(), "variance of window {k}");
    }
}

#[test]
fn window_moments_are_the_per_window_sums_bit_for_bit() {
    let mut next = xorshift_unit(0x9E37_79B9_7F4A_7C15);
    for len in [1, 2, 3, 32, 64, 257] {
        let rows: Vec<Vec<f64>> = (0..21)
            .map(|k| match k % 5 {
                // Signed zeros: the sums start at -0.0, as `Iterator::sum`.
                0 => vec![-0.0; len],
                1 => (0..len)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect(),
                2 => vec![3.25; len],
                3 => (0..len).map(|_| 1e3 * next() - 500.0).collect(),
                _ => (0..len).map(|_| 1e-9 * next() + 7.0).collect(),
            })
            .collect();
        // Every count from none to past two full groups of lanes.
        for count in 0..=rows.len() {
            let windows: Vec<&[f64]> = rows[..count].iter().map(Vec::as_slice).collect();
            assert_moments_match(&windows);
        }
    }
    // A group whose lengths differ, and empty windows.
    let mixed: Vec<Vec<f64>> = (0..10).map(|k| vec![k as f64; k * 3]).collect();
    let windows: Vec<&[f64]> = mixed.iter().map(Vec::as_slice).collect();
    assert_moments_match(&windows);
    assert_moments_match(&[&[], &[], &[], &[], &[], &[], &[], &[]]);
}

#[test]
fn decide_is_the_reported_decision() {
    let mut seen = std::collections::HashSet::new();
    for bins in [4, 8] {
        let prepared = ChiSquaredGof::new(bins).unwrap().prepare(0.95).unwrap();
        for shape in 0..4 {
            for seed in 1..40u64 {
                let w = gof_window(shape, bins, 4 * bins + 7 * seed as usize, seed, 3.0, 0.5);
                let m = mean(&w);
                let v = variance_about(&w, m);
                let got = prepared.decide(&w, m, v).unwrap();
                assert_eq!(got, prepared.test_moments(&w, m, v).unwrap().decision);
                seen.insert(got);
            }
        }
        // Both refuse a short window alike.
        let short = vec![1.0; 4 * bins - 1];
        assert!(prepared.decide(&short, 1.0, 0.0).is_err());
    }
    assert_eq!(seen.len(), 3, "every outcome must be exercised: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn erf_is_odd_bounded_monotone(x in -5.0..5.0f64, dx in 0.001..1.0f64) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&erf(x)));
        prop_assert!(erf(x + dx) >= erf(x));
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_properties(mean_v in -10.0..10.0f64, sd in 0.01..10.0f64, x in -50.0..50.0f64) {
        let n = Normal::new(mean_v, sd).expect("normal");
        let c = n.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-9);
        // Symmetry about the mean.
        let lo = n.cdf(mean_v - (x - mean_v));
        prop_assert!((c + lo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_quantile_inverts(mean_v in -5.0..5.0f64, sd in 0.1..5.0f64, p in 0.001..0.999f64) {
        let n = Normal::new(mean_v, sd).expect("normal");
        let x = n.quantile(p).expect("quantile");
        prop_assert!((n.cdf(x) - p).abs() < 1e-7);
    }

    #[test]
    fn chi_squared_cdf_monotone(dof in 1.0..30.0f64, x in 0.0..100.0f64, dx in 0.01..10.0f64) {
        let chi = ChiSquared::new(dof).expect("chi");
        prop_assert!(chi.cdf(x + dx) >= chi.cdf(x));
        prop_assert!((0.0..=1.0).contains(&chi.cdf(x)));
    }

    #[test]
    fn variance_shift_invariant_scale_quadratic(
        data in prop::collection::vec(-100.0..100.0f64, 2..64),
        shift in -50.0..50.0f64,
        scale in -4.0..4.0f64,
    ) {
        let v = variance(&data);
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&shifted) - v).abs() < 1e-7 * v.max(1.0) + 1e-7);
        let scaled: Vec<f64> = data.iter().map(|x| x * scale).collect();
        prop_assert!((variance(&scaled) - scale * scale * v).abs() < 1e-6 * (v + 1.0));
    }

    #[test]
    fn summary_matches_batch_functions(data in prop::collection::vec(-100.0..100.0f64, 1..128)) {
        let s = Summary::from_slice(&data);
        prop_assert!((s.mean - mean(&data)).abs() < 1e-9);
        prop_assert!((s.variance - variance(&data)).abs() < 1e-7);
        prop_assert_eq!(s.count, data.len());
    }

    #[test]
    fn correlations_bounded(
        x in prop::collection::vec(-10.0..10.0f64, 4..64),
        lag in 0usize..3,
    ) {
        let r = autocorrelation(&x, lag).expect("autocorr");
        prop_assert!((-1.0..=1.0).contains(&r));
        let y: Vec<f64> = x.iter().rev().copied().collect();
        let p = pearson(&x, &y).expect("pearson");
        prop_assert!((-1.0..=1.0).contains(&p));
        // Self-correlation is 1 unless degenerate.
        if variance(&x) > 1e-12 {
            prop_assert!((pearson(&x, &x).expect("pearson") - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_conserves_counts(
        xs in prop::collection::vec(-2.0..2.0f64, 0..200),
        bins in 1usize..20,
    ) {
        let mut h = Histogram::new(-1.0, 1.0, bins).expect("histogram");
        h.record_all(&xs);
        prop_assert_eq!(h.total(), xs.len() as u64);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned, xs.len() as u64);
        // fraction_below is monotone in the threshold.
        let f_lo = h.fraction_below(-0.5);
        let f_mid = h.fraction_below(0.0);
        let f_hi = h.fraction_below(0.5);
        prop_assert!(f_lo <= f_mid && f_mid <= f_hi);
    }

    #[test]
    fn gof_never_accepts_two_point_masses(n in 16usize..64) {
        // Deterministic bimodal data must never classify Gaussian.
        let mut data = Vec::new();
        for i in 0..n {
            data.push(if i % 2 == 0 { 0.0 } else { 10.0 });
            data.push(if i % 3 == 0 { 0.1 } else { 9.9 });
        }
        let test = ChiSquaredGof::new(4).expect("test");
        if let Ok(r) = test.test_normality(&data, 0.95) {
            prop_assert!(!r.is_gaussian(), "bimodal data accepted");
        }
    }

    #[test]
    fn prepared_gof_bins_like_the_search_oracle(
        eight_bins in any::<bool>(),
        shape in 0u8..4,
        extra in 0usize..200,
        seed in any::<u64>(),
        offset in -1e3..1e3f64,
        log_scale in -4.0..3.0f64,
        significance in 0usize..3,
    ) {
        let bins = if eight_bins { 8 } else { 4 };
        let significance = [0.90, 0.95, 0.99][significance];
        let len = 4 * bins + extra;
        let w = gof_window(shape, bins, len, seed, offset, 10f64.powf(log_scale));
        let gof = ChiSquaredGof::new(bins).expect("test");
        let prepared = gof.prepare(significance).expect("prepare");
        let got = prepared.test(&w).expect("gof");
        let want = reference_test(bins, &w, significance);
        prop_assert!(same_report_bits(&got, &want), "{:?} vs {:?}", got, want);
        let m = mean(&w);
        let decided = prepared.decide(&w, m, variance_about(&w, m)).expect("gof");
        prop_assert_eq!(decided, want.decision);
    }
}
