//! Streaming (online) Haar DWT.
//!
//! The batch [`crate::dwt`] needs the whole signal in memory. For on-line
//! analyses — per-sample coefficient emission as a trace is produced —
//! [`StreamingHaar`] maintains the pyramid incrementally: every pair of
//! samples completes a level-1 coefficient pair, every pair of level-1
//! approximations completes a level-2 pair, and so on. Coefficients are
//! identical (to round-off) to the batch transform of any aligned prefix.
//!
//! # Haar-only, by design
//!
//! There is deliberately no `StreamingDwt` sibling for the wider
//! [`crate::WaveletFamily`] ladder. Haar's 2-tap filter equals the
//! downsampling stride, so each coefficient closes over exactly one
//! sample pair and the pyramid state is one pending value per level. A
//! `2N`-tap dbN filter overlaps `N` output strides: a streaming variant
//! would keep a `2N`-sample shift register per level, emit with `2N − 2`
//! samples of latency, and still have to pick a boundary policy for the
//! stream head — the per-level state and latency grow linearly with the
//! filter while losing the O(1)-per-sample property that justifies the
//! online path (and the paper's Haar-first hardware argument, §6).
//!
//! No analysis in the workspace calls it: the characterization service
//! runs [`crate::dwt_boundary`] for every basis, one-shot requests and
//! session verdicts alike, and the online monitors keep their own
//! per-cycle state. It stays for `examples/streaming_analysis.rs`, its
//! property test and the benchmark's layer timing. Its coefficients are
//! `(a ± b)·(1/√2)`, so they match [`crate::dwt`]'s `a·h0 + b·h1` to
//! round-off, not bit for bit.

use crate::wavelet::FRAC_1_SQRT_2;
use crate::DspError;

/// A detail coefficient emitted by the streaming transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCoefficient {
    /// Decomposition level (1 = finest).
    pub level: usize,
    /// Index of this coefficient within its level (0-based).
    pub index: usize,
    /// The coefficient value.
    pub value: f64,
}

/// Incremental Haar analysis pyramid.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// use didt_dsp::streaming::StreamingHaar;
/// use didt_dsp::{dwt, WaveletFamily};
///
/// let signal: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
/// let mut stream = StreamingHaar::new(3)?;
/// let mut emitted = Vec::new();
/// for &x in &signal {
///     emitted.extend(stream.push(x));
/// }
/// // Every detail coefficient matches the batch transform.
/// let batch = dwt(&signal, WaveletFamily::Haar, 3)?;
/// for c in &emitted {
///     let want = batch.detail(c.level)?[c.index];
///     assert!((c.value - want).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingHaar {
    levels: usize,
    /// Pending first-of-pair sample per level (`None` = level empty).
    pending: Vec<Option<f64>>,
    /// Coefficients emitted so far per level.
    emitted: Vec<usize>,
    samples: u64,
}

impl StreamingHaar {
    /// Create a pyramid with `levels` decomposition levels.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::ZeroLevels`] for `levels == 0` and
    /// [`DspError::BadLength`] for `levels >= 32`.
    pub fn new(levels: usize) -> Result<Self, DspError> {
        if levels == 0 {
            return Err(DspError::ZeroLevels);
        }
        if levels >= 32 {
            return Err(DspError::BadLength {
                len: levels,
                requirement: "levels must be below 32",
            });
        }
        Ok(StreamingHaar {
            levels,
            pending: vec![None; levels],
            emitted: vec![0; levels],
            samples: 0,
        })
    }

    /// Number of decomposition levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Samples consumed so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Push one sample; returns the detail coefficients completed by it
    /// (at most one per level, finest first). A sample at an odd position
    /// completes level 1; positions divisible by 4 complete level 2 on
    /// the following pair boundary, and so on.
    pub fn push(&mut self, x: f64) -> Vec<StreamCoefficient> {
        self.samples += 1;
        let mut out = Vec::new();
        let mut carry = x;
        for level in 0..self.levels {
            match self.pending[level].take() {
                None => {
                    self.pending[level] = Some(carry);
                    break;
                }
                Some(first) => {
                    let detail = (first - carry) * FRAC_1_SQRT_2;
                    let approx = (first + carry) * FRAC_1_SQRT_2;
                    out.push(StreamCoefficient {
                        level: level + 1,
                        index: self.emitted[level],
                        value: detail,
                    });
                    self.emitted[level] += 1;
                    carry = approx;
                    // The approximation propagates to the next level; if
                    // this was the deepest level it is simply dropped
                    // (the caller tracks approximations via `push`'s
                    // sibling, `push_with_approx`, when needed).
                }
            }
        }
        out
    }

    /// Like [`StreamingHaar::push`], additionally returning the deepest-
    /// level approximation coefficient when one completes.
    fn push_with_approx(&mut self, x: f64) -> (Vec<StreamCoefficient>, Option<f64>) {
        // Re-implement rather than call push(): we need the carry of the
        // deepest completed level.
        self.samples += 1;
        let mut out = Vec::new();
        let mut carry = x;
        for level in 0..self.levels {
            match self.pending[level].take() {
                None => {
                    self.pending[level] = Some(carry);
                    return (out, None);
                }
                Some(first) => {
                    let detail = (first - carry) * FRAC_1_SQRT_2;
                    let approx = (first + carry) * FRAC_1_SQRT_2;
                    out.push(StreamCoefficient {
                        level: level + 1,
                        index: self.emitted[level],
                        value: detail,
                    });
                    self.emitted[level] += 1;
                    carry = approx;
                }
            }
        }
        (out, Some(carry))
    }

    /// Input samples currently buffered in partially-filled pairs.
    ///
    /// Each level can hold at most one unpaired carry; a carry at level
    /// `ℓ` (0-indexed) stands for `2^ℓ` original samples, so the total
    /// always equals `samples() mod 2^levels` — the tail that
    /// [`StreamingHaar::finish`] resolves.
    #[must_use]
    pub fn pending_samples(&self) -> u64 {
        self.pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(level, _)| 1u64 << level)
            .sum()
    }

    /// Flush the tail: resolve every unpaired carry by zero-padding.
    ///
    /// The batch [`crate::dwt`] has no answer for signals whose length
    /// is not divisible by `2^levels` — it errors. The streaming
    /// transform must not silently drop the tail either (the service's
    /// `Characterize` path feeds it arbitrary-length client traces), so
    /// `finish` defines the tail story explicitly: synthetic zero
    /// samples are pushed until the sample count is a multiple of
    /// `2^levels`, completing every pending pair. The emitted
    /// coefficients (and final deepest approximation, when one
    /// completes) are exactly the batch transform of the zero-padded
    /// signal, and since padding adds no energy, Parseval's identity
    /// holds against the *original* samples.
    ///
    /// After `finish` the pyramid is aligned (no pending carries);
    /// coefficient indices continue, and [`StreamingHaar::samples`]
    /// counts the synthetic padding. Calling `finish` on an aligned
    /// pyramid is a no-op.
    pub fn finish(&mut self) -> (Vec<StreamCoefficient>, Option<f64>) {
        let span = 1u64 << self.levels;
        let pad = (span - self.samples % span) % span;
        let mut out = Vec::new();
        let mut last = None;
        for _ in 0..pad {
            let (coeffs, approx) = self.push_with_approx(0.0);
            out.extend(coeffs);
            if approx.is_some() {
                last = approx;
            }
        }
        (out, last)
    }

    /// Reset to the empty state.
    pub fn reset(&mut self) {
        self.pending.fill(None);
        self.emitted.fill(0);
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dwt;
    use crate::wavelet::WaveletFamily;

    #[test]
    fn rejects_bad_levels() {
        assert!(StreamingHaar::new(0).is_err());
        assert!(StreamingHaar::new(32).is_err());
        assert!(StreamingHaar::new(31).is_ok());
    }

    #[test]
    fn matches_batch_on_aligned_signal() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let mut s = StreamingHaar::new(5).unwrap();
        let mut got: Vec<StreamCoefficient> = Vec::new();
        for &x in &signal {
            got.extend(s.push(x));
        }
        let batch = dwt(&signal, WaveletFamily::Haar, 5).unwrap();
        // Same count of detail coefficients per level.
        for level in 1..=5 {
            let want = batch.detail(level).unwrap();
            let mine: Vec<f64> = got
                .iter()
                .filter(|c| c.level == level)
                .map(|c| c.value)
                .collect();
            assert_eq!(mine.len(), want.len(), "level {level}");
            for (a, b) in mine.iter().zip(want) {
                assert!((a - b).abs() < 1e-10, "level {level}");
            }
        }
    }

    #[test]
    fn approximations_match_batch() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos() * 4.0).collect();
        let mut s = StreamingHaar::new(4).unwrap();
        let mut approxs = Vec::new();
        for &x in &signal {
            let (_, a) = s.push_with_approx(x);
            if let Some(a) = a {
                approxs.push(a);
            }
        }
        let batch = dwt(&signal, WaveletFamily::Haar, 4).unwrap();
        assert_eq!(approxs.len(), batch.approximation().len());
        for (a, b) in approxs.iter().zip(batch.approximation()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn emission_schedule_is_dyadic() {
        let mut s = StreamingHaar::new(3).unwrap();
        let mut per_push = Vec::new();
        for i in 0..16 {
            per_push.push(s.push(i as f64).len());
        }
        // Coefficients complete at odd positions: level 1 every 2 samples,
        // +level 2 every 4, +level 3 every 8.
        assert_eq!(
            per_push,
            vec![0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 3]
        );
    }

    #[test]
    fn reset_restarts_indices() {
        let mut s = StreamingHaar::new(2).unwrap();
        for i in 0..8 {
            s.push(i as f64);
        }
        s.reset();
        assert_eq!(s.samples(), 0);
        let out = s.push(1.0);
        assert!(out.is_empty());
        let out = s.push(2.0);
        assert_eq!(out[0].index, 0);
    }

    #[test]
    fn pending_samples_tracks_modular_tail() {
        let mut s = StreamingHaar::new(3).unwrap();
        assert_eq!(s.pending_samples(), 0);
        for i in 0..20 {
            s.push(i as f64);
            assert_eq!(s.pending_samples(), s.samples() % 8, "after {i}");
        }
    }

    #[test]
    fn finish_matches_batch_on_zero_padded_signal() {
        // 100 samples, 3 levels: not divisible by 8, so the batch
        // transform rejects the raw signal but accepts the padded one.
        let signal: Vec<f64> = (0..100).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        assert!(dwt(&signal, WaveletFamily::Haar, 3).is_err());
        let mut padded = signal.clone();
        padded.resize(104, 0.0);
        let batch = dwt(&padded, WaveletFamily::Haar, 3).unwrap();

        let mut s = StreamingHaar::new(3).unwrap();
        let mut streamed: Vec<StreamCoefficient> = Vec::new();
        for &x in &signal {
            streamed.extend(s.push(x));
        }
        assert_eq!(s.pending_samples(), 100 % 8);
        let (tail, _) = s.finish();
        streamed.extend(tail);
        assert_eq!(s.pending_samples(), 0);
        assert_eq!(s.samples(), 104);

        for level in 1..=3 {
            let want = batch.detail(level).unwrap();
            let got: Vec<f64> = streamed
                .iter()
                .filter(|c| c.level == level)
                .map(|c| c.value)
                .collect();
            assert_eq!(got.len(), want.len(), "level {level}");
            for (a, b) in got.iter().zip(want) {
                assert!((a - b).abs() < 1e-12, "level {level}");
            }
        }
    }

    #[test]
    fn finish_preserves_parseval_energy() {
        // Padding adds zero energy, so detail + approximation energy
        // after finish() must equal the original signal's energy.
        let signal: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mut s = StreamingHaar::new(4).unwrap();
        let mut energy = 0.0;
        for &x in &signal {
            let (coeffs, approx) = s.push_with_approx(x);
            energy += coeffs.iter().map(|c| c.value * c.value).sum::<f64>();
            if let Some(a) = approx {
                energy += a * a;
            }
        }
        let (tail, approx) = s.finish();
        energy += tail.iter().map(|c| c.value * c.value).sum::<f64>();
        if let Some(a) = approx {
            energy += a * a;
        }
        let signal_energy: f64 = signal.iter().map(|x| x * x).sum();
        assert!(
            (energy - signal_energy).abs() < 1e-9,
            "parseval violated: {energy} vs {signal_energy}"
        );
    }

    #[test]
    fn finish_on_aligned_pyramid_is_a_noop() {
        let mut s = StreamingHaar::new(2).unwrap();
        for i in 0..8 {
            s.push(i as f64);
        }
        let (tail, approx) = s.finish();
        assert!(tail.is_empty());
        assert!(approx.is_none());
        assert_eq!(s.samples(), 8);
        // Empty pyramid too.
        let mut fresh = StreamingHaar::new(2).unwrap();
        let (tail, approx) = fresh.finish();
        assert!(tail.is_empty() && approx.is_none());
        assert_eq!(fresh.samples(), 0);
    }

    #[test]
    fn constant_stream_has_zero_details() {
        let mut s = StreamingHaar::new(4).unwrap();
        for _ in 0..64 {
            for c in s.push(5.0) {
                assert!(c.value.abs() < 1e-12);
            }
        }
    }
}
