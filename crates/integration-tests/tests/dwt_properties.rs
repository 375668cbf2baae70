//! Property tests for the DWT machinery: perfect reconstruction on
//! lengths that are *not* powers of two (any multiple of `2^levels` is
//! legal), for both the Haar and db2 bases; orthonormal energy
//! conservation (Parseval); the per-scale variance decomposition of
//! `didt_dsp::variance` summing back to the signal's population
//! variance at full depth; the filter-generic family engine (db2–db8,
//! expansive boundary modes) reconstructing on arbitrary lengths; and
//! the periodic split of the pyramid and the packet tree, bit for bit
//! against the textbook modulo walk.

use didt_dsp::{
    dwt, dwt_boundary, dwt_into, idwt, scale_variances, wavelet_packet, BoundaryMode, DwtScratch,
    WaveletDecomposition, WaveletFamily,
};
use proptest::prelude::*;

fn reconstruction_error(signal: &[f64], wavelet: WaveletFamily, levels: usize) -> f64 {
    let d = dwt(signal, wavelet, levels).unwrap();
    let r = idwt(&d).unwrap();
    signal
        .iter()
        .zip(&r)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

fn energy(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One periodic analysis split as the textbook modulo walk:
/// `lo[k] = Σ h[m]·x[(2k+m) % n]`, `hi[k] = Σ g[m]·x[(2k+m) % n]`,
/// taps accumulated in ascending `m` from `0.0`.
fn modulo_walk_split(x: &[f64], family: WaveletFamily) -> (Vec<f64>, Vec<f64>) {
    let n = x.len();
    (0..n / 2)
        .map(|k| {
            let (mut lo, mut hi) = (0.0, 0.0);
            for (m, (&hm, &gm)) in family.lowpass().iter().zip(family.highpass()).enumerate() {
                lo += hm * x[(2 * k + m) % n];
                hi += gm * x[(2 * k + m) % n];
            }
            (lo, hi)
        })
        .unzip()
}

proptest! {
    /// Lengths like 24, 48, 96, 72 — divisible by `2^levels` yet far
    /// from a power of two — must reconstruct exactly, Haar and db2.
    #[test]
    fn roundtrip_on_non_power_of_two_lengths(
        m in 3usize..=9,
        levels in 1usize..=3,
        raw in prop::collection::vec(-100.0f64..100.0, 96..=96),
    ) {
        let len = m << levels;
        prop_assume!(len <= raw.len());
        let signal = &raw[..len];
        prop_assert!(reconstruction_error(signal, WaveletFamily::Haar, levels) < 1e-9);
        prop_assert!(reconstruction_error(signal, WaveletFamily::Db2, levels) < 1e-9);
    }

    /// The 4-tap db2 ("D4") basis at full depth on power-of-two windows.
    #[test]
    fn daubechies4_full_depth_roundtrip(
        pow in 3u32..=7,
        raw in prop::collection::vec(-50.0f64..50.0, 128..=128),
    ) {
        let len = 1usize << pow;
        let signal = &raw[..len];
        // db2's 4-tap filter needs the coarsest pyramid level to keep at
        // least 4 samples: cap the depth accordingly.
        let levels = (pow as usize).saturating_sub(1).max(1);
        prop_assert!(reconstruction_error(signal, WaveletFamily::Db2, levels) < 1e-9);
    }

    /// Orthonormal bases conserve energy across the transform:
    /// `||s||^2 = ||a||^2 + sum_j ||d_j||^2` (Parseval).
    #[test]
    fn transform_conserves_energy(
        m in 2usize..=8,
        levels in 1usize..=4,
        raw in prop::collection::vec(-10.0f64..10.0, 128..=128),
    ) {
        let len = m << levels;
        prop_assume!(len <= raw.len());
        let signal = &raw[..len];
        for wavelet in [WaveletFamily::Haar, WaveletFamily::Db2] {
            let d = dwt(signal, wavelet, levels).unwrap();
            let mut coeff_energy = energy(d.approximation());
            for level in 1..=levels {
                coeff_energy += energy(d.detail(level).unwrap());
            }
            let sig_energy = energy(signal);
            prop_assert!(
                (coeff_energy - sig_energy).abs() <= 1e-9 * sig_energy.max(1.0),
                "{}: {} vs {}", wavelet.name(), coeff_energy, sig_energy
            );
        }
    }

    /// Parseval in `didt_dsp::variance`: at full decomposition depth the
    /// per-scale variances sum to the signal's population variance.
    #[test]
    fn scale_variances_sum_to_population_variance(
        pow in 3u32..=8,
        raw in prop::collection::vec(-25.0f64..25.0, 256..=256),
    ) {
        let len = 1usize << pow;
        let signal = &raw[..len];
        let d = dwt(signal, WaveletFamily::Haar, pow as usize).unwrap();
        let scales = scale_variances(&d).unwrap();
        let total: f64 = scales.iter().map(|s| s.variance).sum();
        let mean = signal.iter().sum::<f64>() / len as f64;
        let pop_var = signal.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / len as f64;
        prop_assert!(
            (total - pop_var).abs() <= 1e-9 * pop_var.max(1.0),
            "sum {} vs population variance {}", total, pop_var
        );
    }

    /// The filter-generic engine across the whole Daubechies ladder:
    /// every family reconstructs perfectly under every expansive
    /// boundary mode on lengths with no dyadic structure at all.
    #[test]
    fn family_engine_roundtrips_on_awkward_lengths(
        len in 1usize..=97,
        levels in 1usize..=4,
        fam_idx in 0usize..8,
        mode_idx in 0usize..3,
        raw in prop::collection::vec(-100.0f64..100.0, 97..=97),
    ) {
        let family = WaveletFamily::ALL[fam_idx];
        let mode = BoundaryMode::EXTENSIONS[mode_idx];
        let signal = &raw[..len];
        let d = dwt_boundary(signal, family, levels, mode).unwrap();
        let r = idwt(&d).unwrap();
        let worst = signal
            .iter()
            .zip(&r)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        prop_assert!(
            worst < 1e-8,
            "{}/{} len {} levels {}: err {}", family.name(), mode.name(), len, levels, worst
        );
    }

    /// Zero padding is still an orthonormal analysis: Parseval holds
    /// exactly even on prime lengths where the periodic wrap is
    /// undefined.
    #[test]
    fn family_engine_zero_pad_conserves_energy(
        len in 1usize..=89,
        levels in 1usize..=4,
        fam_idx in 0usize..8,
        raw in prop::collection::vec(-25.0f64..25.0, 89..=89),
    ) {
        let family = WaveletFamily::ALL[fam_idx];
        let signal = &raw[..len];
        let d = dwt_boundary(signal, family, levels, BoundaryMode::ZeroPad).unwrap();
        let sig_energy = energy(signal);
        prop_assert!(
            (d.energy() - sig_energy).abs() <= 1e-8 * sig_energy.max(1.0),
            "{} len {} levels {}: {} vs {}",
            family.name(), len, levels, d.energy(), sig_energy
        );
    }

    /// The in-place scratch path agrees with the allocating [`dwt`] even
    /// when one scratch/output pair is reused across differently shaped
    /// decompositions.
    #[test]
    fn scratch_path_matches_batch(
        m in 2usize..=6,
        levels in 1usize..=3,
        raw in prop::collection::vec(-100.0f64..100.0, 64..=64),
    ) {
        let len = m << levels;
        prop_assume!(len <= raw.len());
        let signal = &raw[..len];
        let mut scratch = DwtScratch::new();
        let mut out = WaveletDecomposition::empty();
        for wavelet in [WaveletFamily::Haar, WaveletFamily::Db2] {
            dwt_into(signal, wavelet, levels, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out, &dwt(signal, wavelet, levels).unwrap());
        }
    }

    /// Every detail row and the approximation of a periodic pyramid,
    /// and every band of a packet tree, equal the modulo walk by
    /// `to_bits`, for every family. The coarsest split keeps at least
    /// one filter length of samples, so the walk wraps at every level
    /// of every multi-tap family.
    #[test]
    fn periodic_split_matches_modulo_walk(
        fam_idx in 0usize..8,
        extra in 0usize..=8,
        levels in 1usize..=5,
        depth in 1usize..=3,
        raw in prop::collection::vec(-100.0f64..100.0, 512..=512),
    ) {
        let family = WaveletFamily::ALL[fam_idx];
        let m = family.filter_len() / 2 + extra;
        let signal = &raw[..m << levels];
        let d = dwt_boundary(signal, family, levels, BoundaryMode::Periodic).unwrap();
        let mut approx = signal.to_vec();
        for level in 1..=levels {
            let (lo, hi) = modulo_walk_split(&approx, family);
            prop_assert!(
                bits_eq(d.detail(level).unwrap(), &hi),
                "{} len {} detail {}", family.name(), signal.len(), level
            );
            approx = lo;
        }
        prop_assert!(
            bits_eq(d.approximation(), &approx),
            "{} len {} approximation", family.name(), signal.len()
        );

        let depth = depth.min(levels);
        let wp = wavelet_packet(signal, family, depth).unwrap();
        let mut bands = vec![signal.to_vec()];
        for _ in 0..depth {
            bands = bands
                .iter()
                .flat_map(|band| {
                    let (lo, hi) = modulo_walk_split(band, family);
                    [lo, hi]
                })
                .collect();
        }
        for (i, want) in bands.iter().enumerate() {
            prop_assert!(
                bits_eq(wp.band(i), want),
                "{} len {} packet depth {} band {}", family.name(), signal.len(), depth, i
            );
        }
    }
}
