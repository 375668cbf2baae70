//! Scalograms: visualising detail coefficients across time and scale.
//!
//! Paper Figure 4 shows a 256-cycle gzip current window and its
//! scalogram: each block is a detail coefficient, darker meaning larger
//! magnitude; rows are time scales. [`Scalogram`] carries the magnitude
//! matrix and renders a terminal-friendly ASCII version of that figure.

use crate::transform::WaveletDecomposition;

/// Shading ramp from small (light) to large (dark) magnitudes.
const SHADES: &[u8] = b" .:-=+*#%@";

/// The magnitude matrix of a wavelet decomposition's detail coefficients.
///
/// Row 0 is the finest scale (level 1); each coefficient at level `l`
/// spans `2^l` signal samples, so coarser rows have fewer, wider cells —
/// exactly the staircase layout of the paper's Figure 2.
///
/// # Examples
///
/// ```
/// use didt_dsp::{dwt, Scalogram, WaveletFamily};
///
/// # fn main() -> Result<(), didt_dsp::DspError> {
/// let s: Vec<f64> = (0..64).map(|i| if i == 32 { 8.0 } else { 0.0 }).collect();
/// let d = dwt(&s, WaveletFamily::Haar, 4)?;
/// let sg = Scalogram::from_decomposition(&d);
/// assert_eq!(sg.rows(), 4);
/// let art = sg.render();
/// assert!(art.lines().count() >= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scalogram {
    /// `magnitudes[r]` holds |d| for level `r + 1`.
    magnitudes: Vec<Vec<f64>>,
    signal_len: usize,
    max_magnitude: f64,
}

impl Scalogram {
    /// Build the scalogram of a decomposition's detail rows.
    #[must_use]
    pub fn from_decomposition(decomp: &WaveletDecomposition) -> Self {
        let magnitudes: Vec<Vec<f64>> = decomp
            .detail_rows()
            .map(|row| row.iter().map(|x| x.abs()).collect())
            .collect();
        let max_magnitude = magnitudes
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        Scalogram {
            magnitudes,
            signal_len: decomp.signal_len(),
            max_magnitude,
        }
    }

    /// Number of scale rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.magnitudes.len()
    }

    /// Length of the underlying signal.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Largest coefficient magnitude (the darkest cell).
    #[must_use]
    pub fn max_magnitude(&self) -> f64 {
        self.max_magnitude
    }

    /// Magnitudes of one scale row (0 = finest).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.magnitudes[row]
    }

    /// Normalized magnitude in [0, 1] for the coefficient at `row`,
    /// `index`; `None` when out of range.
    #[must_use]
    pub fn normalized(&self, row: usize, index: usize) -> Option<f64> {
        let v = *self.magnitudes.get(row)?.get(index)?;
        if self.max_magnitude == 0.0 {
            Some(0.0)
        } else {
            Some(v / self.max_magnitude)
        }
    }

    /// Render as ASCII art: one line per scale (finest on top), each
    /// coefficient repeated across the samples it spans so columns align
    /// with signal time.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (r, row) in self.magnitudes.iter().enumerate() {
            let span = self.signal_len / row.len().max(1);
            out.push_str(&format!("scale {:>2} |", r + 1));
            for &m in row {
                let norm = if self.max_magnitude > 0.0 {
                    m / self.max_magnitude
                } else {
                    0.0
                };
                let idx =
                    ((norm * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                for _ in 0..span {
                    out.push(SHADES[idx] as char);
                }
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dwt;
    use crate::wavelet::WaveletFamily;

    #[test]
    fn rows_match_levels() {
        let d = dwt(&[1.0; 32], WaveletFamily::Haar, 4).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        assert_eq!(sg.rows(), 4);
        assert_eq!(sg.row(0).len(), 16);
        assert_eq!(sg.row(3).len(), 2);
    }

    #[test]
    fn constant_signal_is_blank() {
        let d = dwt(&[5.0; 16], WaveletFamily::Haar, 3).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        assert_eq!(sg.max_magnitude(), 0.0);
        let art = sg.render();
        // No dark cells anywhere.
        assert!(!art.contains('@'));
        assert!(art.contains(' '));
    }

    #[test]
    fn spike_darkens_finest_scale_at_its_position() {
        let mut s = vec![0.0; 64];
        s[10] = 10.0;
        let d = dwt(&s, WaveletFamily::Haar, 3).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        // Finest-scale coefficient covering samples 10–11 is index 5.
        let norm = sg.normalized(0, 5).unwrap();
        assert!(norm > 0.9, "norm = {norm}");
        // Far-away coefficient is blank.
        assert_eq!(sg.normalized(0, 20).unwrap(), 0.0);
    }

    #[test]
    fn normalized_out_of_range_is_none() {
        let d = dwt(&[0.0; 16], WaveletFamily::Haar, 2).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        assert!(sg.normalized(5, 0).is_none());
        assert!(sg.normalized(0, 100).is_none());
    }

    #[test]
    fn render_lines_have_aligned_width() {
        let s: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let d = dwt(&s, WaveletFamily::Haar, 4).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        let art = sg.render();
        let widths: Vec<usize> = art.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn normalized_bounded() {
        let s: Vec<f64> = (0..128).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let d = dwt(&s, WaveletFamily::Haar, 5).unwrap();
        let sg = Scalogram::from_decomposition(&d);
        for r in 0..sg.rows() {
            for k in 0..sg.row(r).len() {
                let n = sg.normalized(r, k).unwrap();
                assert!((0.0..=1.0).contains(&n));
            }
        }
    }
}
