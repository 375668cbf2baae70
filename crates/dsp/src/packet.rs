//! Uniform wavelet packet transform.
//!
//! The DWT splits only the low-pass branch at each level, giving octave
//! bands — coarse at low frequency, wide at high frequency. A **wavelet
//! packet** transform splits *both* branches, producing `2^depth` equal-
//! width frequency bands: a critically-sampled uniform filter bank, the
//! "orthonormal filter banks as convolvers" of the paper's reference
//! 22 (Vaidyanathan). For dI/dt work this gives finer frequency
//! resolution inside the 50–200 MHz danger band than the octave-spaced
//! DWT scales.

use crate::transform::{periodic_analysis_step, periodic_synthesis_step};
use crate::wavelet::WaveletFamily;
use crate::DspError;

/// A full uniform wavelet packet decomposition.
///
/// Bands are stored in *natural* (Paley) order — the order produced by
/// recursive splitting. Use [`WaveletPacket::frequency_rank`] to map a
/// natural index to its position on the frequency axis (high-pass
/// branches flip orientation, so the frequency ordering follows a Gray
/// code).
///
/// # Examples
///
/// ```
/// use didt_dsp::packet::wavelet_packet;
/// use didt_dsp::WaveletFamily;
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// let s: Vec<f64> = (0..64).map(|i| (i as f64 * 0.8).sin()).collect();
/// let wp = wavelet_packet(&s, WaveletFamily::Haar, 3)?;
/// assert_eq!(wp.num_bands(), 8);
/// assert_eq!(wp.band(0).len(), 8);
/// // Energy is conserved (orthonormal filter bank).
/// let e_sig: f64 = s.iter().map(|x| x * x).sum();
/// let e_bands: f64 = (0..8).map(|b| wp.band_energy(b)).sum();
/// assert!((e_sig - e_bands).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletPacket {
    /// `bands[natural_index]`.
    bands: Vec<Vec<f64>>,
    depth: usize,
    signal_len: usize,
    family: WaveletFamily,
}

/// Compute the uniform wavelet packet transform of `signal` to `depth`
/// splits.
///
/// # Errors
///
/// * [`DspError::EmptySignal`] for an empty input.
/// * [`DspError::ZeroLevels`] for `depth == 0`.
/// * [`DspError::BadLength`] unless `signal.len()` is divisible by
///   `2^depth` and each split stays at least as long as the filter.
pub fn wavelet_packet(
    signal: &[f64],
    family: WaveletFamily,
    depth: usize,
) -> Result<WaveletPacket, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if depth == 0 {
        return Err(DspError::ZeroLevels);
    }
    if depth >= usize::BITS as usize || !signal.len().is_multiple_of(1usize << depth) {
        return Err(DspError::BadLength {
            len: signal.len(),
            requirement: "length must be divisible by 2^depth",
        });
    }
    let h = family.lowpass();
    let g = family.highpass();
    let mut bands = vec![signal.to_vec()];
    for _ in 0..depth {
        if bands[0].len() < h.len() {
            return Err(DspError::BadLength {
                len: signal.len(),
                requirement: "packet node shorter than filter; reduce depth",
            });
        }
        let mut next = Vec::with_capacity(bands.len() * 2);
        for band in &bands {
            let half = band.len() / 2;
            let mut lo = vec![0.0; half];
            let mut hi = vec![0.0; half];
            periodic_analysis_step(band, h, g, &mut lo, &mut hi);
            next.push(lo);
            next.push(hi);
        }
        bands = next;
    }
    Ok(WaveletPacket {
        bands,
        depth,
        signal_len: signal.len(),
        family,
    })
}

impl WaveletPacket {
    /// Assemble a packet decomposition directly from per-band coefficient
    /// rows (natural order) — the synthesis-side entry point, used to
    /// construct band-limited signals.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] unless the band count is a power
    /// of two and all bands have the same nonzero length.
    ///
    /// # Examples
    ///
    /// ```
    /// use didt_dsp::packet::WaveletPacket;
    /// use didt_dsp::WaveletFamily;
    ///
    /// # fn main() -> Result<(), didt_dsp::DspError> {
    /// // Energy only in the DC band: reconstruction is blockwise flat.
    /// let bands = vec![vec![2.0, 2.0], vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]];
    /// let wp = WaveletPacket::from_bands(bands, WaveletFamily::Haar)?;
    /// let s = wp.inverse();
    /// assert_eq!(s.len(), 8);
    /// assert!((s[0] - s[3]).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_bands(bands: Vec<Vec<f64>>, family: WaveletFamily) -> Result<Self, DspError> {
        if bands.is_empty() || !bands.len().is_power_of_two() {
            return Err(DspError::BadLength {
                len: bands.len(),
                requirement: "band count must be a nonzero power of two",
            });
        }
        let band_len = bands[0].len();
        if band_len == 0 || bands.iter().any(|b| b.len() != band_len) {
            return Err(DspError::BadLength {
                len: band_len,
                requirement: "all bands must have the same nonzero length",
            });
        }
        let depth = bands.len().trailing_zeros() as usize;
        Ok(WaveletPacket {
            signal_len: band_len * bands.len(),
            depth,
            bands,
            family,
        })
    }

    /// Number of bands, `2^depth`.
    #[must_use]
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// Split depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Length of the analysed signal.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Coefficients of the band at `natural_index` (Paley order).
    ///
    /// # Panics
    ///
    /// Panics when `natural_index >= self.num_bands()`.
    #[must_use]
    pub fn band(&self, natural_index: usize) -> &[f64] {
        &self.bands[natural_index]
    }

    /// Energy (`Σx²`) of one band.
    ///
    /// # Panics
    ///
    /// Panics when `natural_index >= self.num_bands()`.
    #[must_use]
    pub fn band_energy(&self, natural_index: usize) -> f64 {
        self.bands[natural_index].iter().map(|x| x * x).sum()
    }

    /// Position of the band on the frequency axis (0 = DC band): the
    /// Gray-code decode of the natural index, because each high-pass
    /// split mirrors the frequency orientation of its subtree.
    #[must_use]
    pub fn frequency_rank(&self, natural_index: usize) -> usize {
        // Gray-to-binary decode via prefix XOR.
        let mut n = natural_index;
        let mut shift = 1;
        while shift < usize::BITS as usize {
            n ^= n >> shift;
            shift <<= 1;
        }
        n & (self.num_bands() - 1)
    }

    /// Reconstruct the original signal (exact up to round-off).
    #[must_use]
    pub fn inverse(&self) -> Vec<f64> {
        let h = self.family.lowpass();
        let g = self.family.highpass();
        let mut bands = self.bands.clone();
        while bands.len() > 1 {
            let mut merged = Vec::with_capacity(bands.len() / 2);
            for pair in bands.chunks(2) {
                merged.push(periodic_synthesis_step(&pair[0], &pair[1], h, g));
            }
            bands = merged;
        }
        bands.pop().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelet::WaveletFamily;

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + ((i * 7) % 5) as f64)
            .collect()
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(wavelet_packet(&[], WaveletFamily::Haar, 2).is_err());
        assert!(wavelet_packet(&[1.0; 16], WaveletFamily::Haar, 0).is_err());
        assert!(wavelet_packet(&[1.0; 12], WaveletFamily::Haar, 3).is_err());
    }

    #[test]
    fn band_count_and_lengths() {
        let wp = wavelet_packet(&test_signal(64), WaveletFamily::Haar, 4).unwrap();
        assert_eq!(wp.num_bands(), 16);
        for b in 0..16 {
            assert_eq!(wp.band(b).len(), 4);
        }
    }

    #[test]
    fn energy_conserved_haar_and_db4() {
        let s = test_signal(128);
        let e_sig: f64 = s.iter().map(|x| x * x).sum();
        for depth in 1..=4 {
            let wp = wavelet_packet(&s, WaveletFamily::Haar, depth).unwrap();
            let e: f64 = (0..wp.num_bands()).map(|b| wp.band_energy(b)).sum();
            assert!((e - e_sig).abs() < 1e-8, "haar depth {depth}");
            let wp = wavelet_packet(&s, WaveletFamily::Db2, depth).unwrap();
            let e: f64 = (0..wp.num_bands()).map(|b| wp.band_energy(b)).sum();
            assert!((e - e_sig).abs() < 1e-8, "db4 depth {depth}");
        }
    }

    #[test]
    fn perfect_reconstruction() {
        let s = test_signal(64);
        for depth in 1..=3 {
            let wp = wavelet_packet(&s, WaveletFamily::Haar, depth).unwrap();
            let r = wp.inverse();
            for (a, b) in s.iter().zip(&r) {
                assert!((a - b).abs() < 1e-9, "depth {depth}");
            }
        }
    }

    #[test]
    fn depth_one_matches_dwt_level_one() {
        // The packet tree and the pyramid share one periodic step, so the
        // all-low-pass band is the DWT approximation bit for bit, and at
        // depth 1 the high band and the synthesis agree too.
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let s = test_signal(32);
        for family in WaveletFamily::ALL {
            for depth in 1..=3 {
                if s.len() >> (depth - 1) < family.filter_len() {
                    continue;
                }
                let wp = wavelet_packet(&s, family, depth).unwrap();
                let d = crate::transform::dwt(&s, family, depth).unwrap();
                let name = family.name();
                assert_eq!(bits(wp.band(0)), bits(d.approximation()), "{name} {depth}");
                if depth == 1 {
                    assert_eq!(bits(wp.band(1)), bits(d.detail(1).unwrap()), "{name}");
                    let idwt = crate::transform::idwt(&d).unwrap();
                    assert_eq!(bits(&wp.inverse()), bits(&idwt), "{name}");
                }
            }
        }
    }

    #[test]
    fn frequency_rank_is_a_permutation_and_self_inverse() {
        let wp = wavelet_packet(&test_signal(64), WaveletFamily::Haar, 4).unwrap();
        let mut seen = [false; 16];
        for b in 0..16 {
            let r = wp.frequency_rank(b);
            assert!(!seen[r], "rank {r} repeated");
            seen[r] = true;
            // Binary-to-Gray encode inverts the rank.
            assert_eq!((r ^ (r >> 1)) & 15, b);
        }
    }

    #[test]
    fn frequency_ordering_tracks_tone_frequency() {
        // Pure tones at increasing frequency must peak in bands of
        // increasing frequency rank.
        let n = 256;
        let depth = 3; // 8 bands, each 1/16 of fs wide
        let mut last_rank = 0usize;
        for band_center in [1usize, 3, 5, 7] {
            // Tone in the middle of frequency band `band_center` (bands
            // span fs/16 each on [0, fs/2]).
            let f = (band_center as f64 + 0.5) / 16.0;
            let s: Vec<f64> = (0..n)
                .map(|t| (2.0 * std::f64::consts::PI * f * t as f64).sin())
                .collect();
            let wp = wavelet_packet(&s, WaveletFamily::Db2, depth).unwrap();
            let peak_natural = (0..wp.num_bands())
                .max_by(|&a, &b| wp.band_energy(a).total_cmp(&wp.band_energy(b)))
                .unwrap();
            let rank = wp.frequency_rank(peak_natural);
            assert!(
                rank >= last_rank,
                "tone {band_center}: rank {rank} after {last_rank}"
            );
            last_rank = rank;
        }
        assert!(last_rank >= 4, "high tones never reached high ranks");
    }
}
