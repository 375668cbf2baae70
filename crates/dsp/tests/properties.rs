//! Property-based tests of the DSP invariants the dI/dt methodology
//! rests on: perfect reconstruction, Parseval, subband additivity,
//! transform linearity and convolution consistency.

use didt_dsp::{
    convolve_full, dwt, fir_filter, idwt, scale_variance, scale_variances, subband_decompose,
    ScaleVariance, WaveletFamily,
};
use didt_stats::lag_correlation;
use proptest::prelude::*;

/// Signals of power-of-two length 8..=256 with bounded values.
fn signal_strategy() -> impl Strategy<Value = Vec<f64>> {
    (3u32..=8).prop_flat_map(|log_n| prop::collection::vec(-100.0..100.0f64, 1usize << log_n))
}

/// `scale_variance` as first written, four serial passes: `Σ d²`, then
/// `lag_correlation`'s mean, lag-1 numerator and denominator.
fn reference_scale_variance(level: usize, detail: &[f64], signal_len: usize) -> ScaleVariance {
    ScaleVariance {
        level,
        span: 1usize << level,
        variance: detail.iter().map(|x| x * x).sum::<f64>() / signal_len as f64,
        adjacent_correlation: if detail.len() >= 3 {
            lag_correlation(detail).unwrap_or(0.0)
        } else {
            0.0
        },
    }
}

fn assert_scale_variance_bits(level: usize, detail: &[f64], signal_len: usize) {
    let got = scale_variance(level, detail, signal_len);
    let want = reference_scale_variance(level, detail, signal_len);
    assert_eq!((got.level, got.span), (want.level, want.span));
    assert_eq!(
        got.variance.to_bits(),
        want.variance.to_bits(),
        "{detail:?}"
    );
    assert_eq!(
        got.adjacent_correlation.to_bits(),
        want.adjacent_correlation.to_bits(),
        "{detail:?}"
    );
}

#[test]
fn fused_scale_variance_is_bit_identical_on_edge_rows() {
    for len in 0..=6 {
        // Constant rows (`den <= 0` reports 0.0), rows of signed zeros,
        // and a short ramp, at every length around the 3-coefficient
        // cut-off.
        for row in [
            vec![2.5; len],
            vec![-0.0; len],
            (0..len)
                .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
                .collect(),
            (0..len).map(|i| i as f64 - 1.5).collect(),
        ] {
            assert_scale_variance_bits(1, &row, 2 * len.max(1));
        }
    }
    assert_scale_variance_bits(3, &[1e-300, -1e-300, 1e-300], 24);
    assert_scale_variance_bits(2, &[f64::MAX / 4.0, 1.0, -f64::MAX / 4.0], 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dwt_idwt_roundtrip_haar(s in signal_strategy()) {
        let levels = s.len().trailing_zeros() as usize;
        let d = dwt(&s, WaveletFamily::Haar, levels).expect("dwt");
        let r = idwt(&d).expect("idwt");
        for (a, b) in s.iter().zip(&r) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn dwt_idwt_roundtrip_db4(s in signal_strategy()) {
        // db4 needs at least 4 samples per pyramid step.
        let levels = (s.len().trailing_zeros() as usize).saturating_sub(2).max(1);
        let d = dwt(&s, WaveletFamily::Db2, levels).expect("dwt");
        let r = idwt(&d).expect("idwt");
        for (a, b) in s.iter().zip(&r) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_energy_conservation(s in signal_strategy()) {
        let levels = s.len().trailing_zeros() as usize;
        let d = dwt(&s, WaveletFamily::Haar, levels).expect("dwt");
        let sig_energy: f64 = s.iter().map(|x| x * x).sum();
        prop_assert!((d.energy() - sig_energy).abs() <= 1e-7 * sig_energy.max(1.0));
    }

    #[test]
    fn subbands_sum_to_signal(s in signal_strategy()) {
        let levels = (s.len().trailing_zeros() as usize).min(5);
        let d = dwt(&s, WaveletFamily::Haar, levels).expect("dwt");
        let bands = subband_decompose(&d).expect("subbands");
        for t in 0..s.len() {
            let sum: f64 = bands.iter().map(|b| b[t]).sum();
            prop_assert!((sum - s[t]).abs() < 1e-7);
        }
    }

    #[test]
    fn fused_scale_variance_is_bit_identical(
        row in prop::collection::vec(-100.0..100.0f64, 0..300),
        level in 1usize..10,
    ) {
        assert_scale_variance_bits(level, &row, row.len() << level);
        // Every detail row of a real decomposition too.
        if row.len() >= 8 {
            let n = 1usize << (usize::BITS - 1 - row.len().leading_zeros());
            let d = dwt(&row[..n], WaveletFamily::Haar, n.trailing_zeros() as usize).expect("dwt");
            for (i, detail) in d.detail_rows().enumerate() {
                assert_scale_variance_bits(i + 1, detail, n);
            }
        }
    }

    #[test]
    fn full_depth_scale_variances_sum_to_population_variance(s in signal_strategy()) {
        let levels = s.len().trailing_zeros() as usize;
        let d = dwt(&s, WaveletFamily::Haar, levels).expect("dwt");
        let scales = scale_variances(&d).expect("variances");
        let total: f64 = scales.iter().map(|sv| sv.variance).sum();
        let var = didt_stats::variance(&s);
        prop_assert!((total - var).abs() <= 1e-7 * var.max(1.0), "{total} vs {var}");
        for sv in &scales {
            prop_assert!(sv.variance >= 0.0);
            prop_assert!((-1.0..=1.0).contains(&sv.adjacent_correlation));
        }
    }

    #[test]
    fn dwt_is_linear(
        a in prop::collection::vec(-50.0..50.0f64, 64),
        b in prop::collection::vec(-50.0..50.0f64, 64),
        alpha in -3.0..3.0f64,
    ) {
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + y).collect();
        let da = dwt(&a, WaveletFamily::Haar, 4).expect("dwt");
        let db = dwt(&b, WaveletFamily::Haar, 4).expect("dwt");
        let dc = dwt(&combo, WaveletFamily::Haar, 4).expect("dwt");
        for lvl in 1..=4 {
            let ra = da.detail(lvl).expect("detail");
            let rb = db.detail(lvl).expect("detail");
            let rc = dc.detail(lvl).expect("detail");
            for k in 0..ra.len() {
                prop_assert!((rc[k] - (alpha * ra[k] + rb[k])).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn convolution_commutes(
        a in prop::collection::vec(-10.0..10.0f64, 1..20),
        b in prop::collection::vec(-10.0..10.0f64, 1..20),
    ) {
        let ab = convolve_full(&a, &b);
        let ba = convolve_full(&b, &a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn fir_is_prefix_of_full_convolution(
        x in prop::collection::vec(-10.0..10.0f64, 1..50),
        h in prop::collection::vec(-5.0..5.0f64, 1..10),
    ) {
        let fir = fir_filter(&x, &h);
        let full = convolve_full(&x, &h);
        for t in 0..x.len() {
            prop_assert!((fir[t] - full[t]).abs() < 1e-9);
        }
    }
}

/// The filter-generic engine's fortress: every Daubechies family under
/// every boundary mode must reconstruct perfectly on arbitrary lengths,
/// conserve energy where the basis is orthonormal over the extension,
/// stay bit-identical to the legacy periodic kernels, annihilate
/// polynomials up to its vanishing-moment order, and clamp (not reject)
/// over-deep level requests.
mod family_boundary {
    use didt_dsp::{
        dwt, dwt_boundary, dwt_boundary_into, idwt, max_dwt_levels, BoundaryMode, DwtScratch,
        WaveletDecomposition, WaveletFamily,
    };
    use proptest::prelude::*;

    fn any_family() -> impl Strategy<Value = WaveletFamily> {
        (0usize..WaveletFamily::ALL.len()).prop_map(|i| WaveletFamily::ALL[i])
    }

    fn any_extension() -> impl Strategy<Value = BoundaryMode> {
        (0usize..BoundaryMode::EXTENSIONS.len()).prop_map(|i| BoundaryMode::EXTENSIONS[i])
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Perfect reconstruction for every family x expansive mode on
        /// arbitrary lengths — including 1, primes, and non-multiples of
        /// `2^levels` that the legacy periodic path rejects outright.
        #[test]
        fn expansive_roundtrip_any_family_any_length(
            len in 1usize..=200,
            levels in 1usize..=6,
            family in any_family(),
            mode in any_extension(),
            raw in prop::collection::vec(-100.0f64..100.0, 200..=200),
        ) {
            let signal = &raw[..len];
            let d = dwt_boundary(signal, family, levels, mode).expect("dwt");
            let r = idwt(&d).expect("idwt");
            let scale = signal.iter().fold(1.0f64, |m, x| m.max(x.abs()));
            prop_assert!(
                max_abs_diff(signal, &r) < 1e-8 * scale,
                "{}/{} len {} levels {}", family.name(), mode.name(), len, levels
            );
        }

        /// Periodic wrap: every family reconstructs on power-of-two
        /// windows down to the depth its filter length permits, and the
        /// basis stays exactly orthonormal (Parseval).
        #[test]
        fn periodic_roundtrip_and_parseval_every_family(
            log_n in 4u32..=8,
            family in any_family(),
            raw in prop::collection::vec(-100.0f64..100.0, 256..=256),
        ) {
            let len = 1usize << log_n;
            let signal = &raw[..len];
            // Deepest pyramid whose every step still spans the filter.
            let mut levels = 1;
            while (len >> levels) >= family.filter_len() {
                levels += 1;
            }
            let d = dwt_boundary(signal, family, levels, BoundaryMode::Periodic).expect("dwt");
            let r = idwt(&d).expect("idwt");
            prop_assert!(
                max_abs_diff(signal, &r) < 1e-8,
                "{} len {} levels {}", family.name(), len, levels
            );
            let sig_energy: f64 = signal.iter().map(|x| x * x).sum();
            prop_assert!(
                (d.energy() - sig_energy).abs() <= 1e-7 * sig_energy.max(1.0),
                "{}: {} vs {}", family.name(), d.energy(), sig_energy
            );
        }

        /// Zero padding keeps Parseval *exact* at any length: translates
        /// that miss the signal contribute zero coefficients, so the kept
        /// set is still an orthonormal analysis of the padded signal.
        #[test]
        fn zero_pad_parseval_exact_any_length(
            len in 1usize..=150,
            levels in 1usize..=5,
            family in any_family(),
            raw in prop::collection::vec(-50.0f64..50.0, 150..=150),
        ) {
            let signal = &raw[..len];
            let d = dwt_boundary(signal, family, levels, BoundaryMode::ZeroPad).expect("dwt");
            let sig_energy: f64 = signal.iter().map(|x| x * x).sum();
            prop_assert!(
                (d.energy() - sig_energy).abs() <= 1e-8 * sig_energy.max(1.0),
                "{} len {} levels {}: {} vs {}",
                family.name(), len, levels, d.energy(), sig_energy
            );
        }

        /// The boundary engine owns the legacy periodic entry point:
        /// `dwt_boundary(…, Periodic)` must be *bit-identical* (not merely
        /// close) to `dwt` for Haar and db2 on every power-of-two signal.
        #[test]
        fn generic_periodic_bit_identical_to_legacy(s in super::signal_strategy()) {
            let full = s.len().trailing_zeros() as usize;
            let cases = [
                (WaveletFamily::Haar, full),
                (WaveletFamily::Db2, full.saturating_sub(1).max(1)),
            ];
            for (family, levels) in cases {
                let old = dwt(&s, family, levels).expect("legacy dwt");
                let new =
                    dwt_boundary(&s, family, levels, BoundaryMode::Periodic).expect("generic dwt");
                prop_assert_eq!(old.approximation().len(), new.approximation().len());
                for (a, b) in old.approximation().iter().zip(new.approximation()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for level in 1..=levels {
                    let oa = old.detail(level).expect("detail");
                    let nb = new.detail(level).expect("detail");
                    prop_assert_eq!(oa.len(), nb.len());
                    for (a, b) in oa.iter().zip(nb) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }

        /// dbN has N vanishing moments: on a random polynomial of degree
        /// `< N`, every detail coefficient whose filter support lies fully
        /// inside the signal must vanish to round-off.
        #[test]
        fn vanishing_moments_annihilate_polynomials(
            family in any_family(),
            n in 64usize..=128,
            raw_coeffs in prop::collection::vec(-5.0f64..5.0, 8..=8),
        ) {
            let moments = family.vanishing_moments();
            let coeffs = &raw_coeffs[..moments];
            let signal: Vec<f64> = (0..n)
                .map(|t| {
                    let x = t as f64 / n as f64;
                    coeffs.iter().rev().fold(0.0, |acc, c| acc * x + c)
                })
                .collect();
            let d = dwt_boundary(&signal, family, 1, BoundaryMode::ZeroPad).expect("dwt");
            let details = d.detail(1).expect("level 1");
            let taps = family.filter_len() as isize;
            let tol = 1e-7 * (1.0 + coeffs.iter().map(|c| c.abs()).sum::<f64>());
            let mut interior = 0usize;
            for (k, &dk) in details.iter().enumerate() {
                let start = 2 * k as isize - (taps - 2);
                if start >= 0 && start + taps <= n as isize {
                    interior += 1;
                    prop_assert!(
                        dk.abs() < tol,
                        "{}: interior detail[{}] = {} (tol {})", family.name(), k, dk, tol
                    );
                }
            }
            prop_assert!(interior > 0, "test must cover interior coefficients");
        }

        /// Over-deep level requests clamp to `floor(log2(len))` (at least
        /// 1) instead of erroring, and the clamped transform still
        /// reconstructs.
        #[test]
        fn expansive_depth_requests_clamp_and_reconstruct(
            len in 1usize..=64,
            family in any_family(),
            mode in any_extension(),
            raw in prop::collection::vec(-50.0f64..50.0, 64..=64),
        ) {
            let signal = &raw[..len];
            let mut scratch = DwtScratch::new();
            let mut out = WaveletDecomposition::empty();
            let got = dwt_boundary_into(signal, family, 30, mode, &mut scratch, &mut out)
                .expect("clamped dwt");
            prop_assert_eq!(got, max_dwt_levels(len).max(1));
            prop_assert_eq!(out.levels(), got);
            let r = idwt(&out).expect("idwt");
            let scale = signal.iter().fold(1.0f64, |m, x| m.max(x.abs()));
            prop_assert!(max_abs_diff(signal, &r) < 1e-8 * scale);
        }

        /// One scratch/output pair reused across families *and* boundary
        /// modes reproduces each batch transform exactly — no stale state
        /// leaks between differently shaped decompositions.
        #[test]
        fn scratch_reuse_across_families_matches_batch(
            len in 8usize..=100,
            levels in 1usize..=3,
            raw in prop::collection::vec(-100.0f64..100.0, 100..=100),
        ) {
            let signal = &raw[..len];
            let mut scratch = DwtScratch::new();
            let mut out = WaveletDecomposition::empty();
            for family in [WaveletFamily::Haar, WaveletFamily::Db3, WaveletFamily::Db8] {
                for mode in BoundaryMode::EXTENSIONS {
                    dwt_boundary_into(signal, family, levels, mode, &mut scratch, &mut out)
                        .expect("scratch dwt");
                    let batch = dwt_boundary(signal, family, levels, mode).expect("batch dwt");
                    prop_assert_eq!(&out, &batch);
                }
            }
        }
    }
}

mod packet_and_streaming {
    use didt_dsp::packet::wavelet_packet;
    use didt_dsp::WaveletFamily;
    use didt_dsp::{dwt, StreamingHaar};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn packet_energy_conserved_and_invertible(
            s in (3u32..=7).prop_flat_map(|log_n| {
                prop::collection::vec(-50.0..50.0f64, 1usize << log_n)
            }),
        ) {
            let depth = (s.len().trailing_zeros() as usize - 1).clamp(1, 4);
            let wp = wavelet_packet(&s, WaveletFamily::Haar, depth).expect("packet");
            let e_sig: f64 = s.iter().map(|x| x * x).sum();
            let e_bands: f64 = (0..wp.num_bands()).map(|b| wp.band_energy(b)).sum();
            prop_assert!((e_sig - e_bands).abs() <= 1e-7 * e_sig.max(1.0));
            let r = wp.inverse();
            for (a, b) in s.iter().zip(&r) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }

        #[test]
        fn streaming_matches_batch_for_arbitrary_signals(
            s in (3u32..=7).prop_flat_map(|log_n| {
                prop::collection::vec(-50.0..50.0f64, 1usize << log_n)
            }),
        ) {
            let levels = (s.len().trailing_zeros() as usize).min(5);
            let mut stream = StreamingHaar::new(levels).expect("pyramid");
            let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); levels];
            for &x in &s {
                for c in stream.push(x) {
                    per_level[c.level - 1].push(c.value);
                }
            }
            let batch = dwt(&s, WaveletFamily::Haar, levels).expect("dwt");
            for level in 1..=levels {
                let want = batch.detail(level).expect("detail");
                prop_assert_eq!(per_level[level - 1].len(), want.len());
                for (a, b) in per_level[level - 1].iter().zip(want) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
