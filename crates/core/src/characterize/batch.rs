//! Lane-parallel window estimation: the §4.1 model over [`TraceBatch`]
//! lanes.
//!
//! [`EmergencyEstimator::estimate_trace`] tiles a trace into consecutive
//! windows and runs the same five-step model on each — independent work
//! items with identical shape, exactly what the batch kernels want. For
//! [`VarianceModel`], [`WindowModel::estimate_windows`] lands here: it
//! packs groups of [`ESTIMATE_LANES`] windows into a [`TraceBatch`],
//! runs the batched periodic DWT and moment kernels, and finishes the
//! per-lane gain accumulation in the scalar model's level order, so
//! **every window's estimate is bit-identical to
//! [`VarianceModel::estimate_with`] on that window**. Expansive boundary
//! modes, calls with fewer than two windows, and ragged tails take the
//! scalar path.
//!
//! [`EmergencyEstimator::estimate_trace`]: crate::characterize::EmergencyEstimator::estimate_trace
//! [`WindowModel::estimate_windows`]: crate::characterize::WindowModel::estimate_windows

use crate::characterize::{EstimateScratch, VarianceModel, WindowEstimate};
use crate::DidtError;
use didt_dsp::{
    dwt_into_batch, lag1_correlation_batch, mean_batch, variance_batch, BatchDecomposition,
    BatchDwtScratch, BoundaryMode, TraceBatch,
};

/// Lane width of the batched estimate path: four windows per
/// `[f64; 4]` column.
const ESTIMATE_LANES: usize = 4;

/// [`WindowModel::estimate_windows`](crate::characterize::WindowModel::estimate_windows)
/// for [`VarianceModel`]: windows in
/// lane groups of [`ESTIMATE_LANES`], result `i` bit-identical to
/// [`VarianceModel::estimate_with`] on `windows[i]`.
///
/// # Errors
///
/// The conditions of [`VarianceModel::estimate_with`]: a window whose
/// length differs from the calibration window yields
/// [`DidtError::TraceTooShort`]; DWT errors propagate.
pub(super) fn estimate_windows(
    model: &VarianceModel,
    windows: &[&[f64]],
) -> Result<Vec<WindowEstimate>, DidtError> {
    let w = model.gains().window();
    if let Some(bad) = windows.iter().find(|win| win.len() != w) {
        return Err(DidtError::TraceTooShort {
            needed: w,
            got: bad.len(),
        });
    }
    // Lane groups need the periodic pyramid and at least two windows;
    // everything else, and the ragged tail, runs the scalar model.
    let grouped = if model.boundary() == BoundaryMode::Periodic && windows.len() >= 2 {
        windows.len() - windows.len() % ESTIMATE_LANES
    } else {
        0
    };
    let (grouped, tail) = windows.split_at(grouped);
    let mut out = Vec::with_capacity(windows.len());
    let mut bscratch = BatchDwtScratch::<ESTIMATE_LANES>::new();
    let mut decomp = BatchDecomposition::<ESTIMATE_LANES>::empty();
    for group in grouped.chunks_exact(ESTIMATE_LANES) {
        let batch = TraceBatch::<ESTIMATE_LANES>::from_traces(group)?;
        dwt_into_batch(
            &batch,
            model.gains().family(),
            model.gains().levels(),
            &mut bscratch,
            &mut decomp,
        )?;
        let n = batch.len() as f64;
        let mut v_variance = [0.0f64; ESTIMATE_LANES];
        // Ascending level order, as `scale_variances` + the scalar
        // accumulation loop walk it.
        for level in 1..=decomp.levels() {
            let d = decomp.detail(level)?;
            let mut var = [0.0f64; ESTIMATE_LANES];
            for c in d {
                for (v, x) in var.iter_mut().zip(c) {
                    *v += x * x;
                }
            }
            for v in &mut var {
                *v /= n;
            }
            if !model.active_levels().contains(&level) {
                continue;
            }
            let rho = lag1_correlation_batch(d);
            for l in 0..ESTIMATE_LANES {
                v_variance[l] += model.gains().gain(level, rho[l])? * var[l];
            }
        }
        let i_mean = mean_batch(batch.columns());
        let i_variance = variance_batch(batch.columns());
        for l in 0..ESTIMATE_LANES {
            out.push(WindowEstimate {
                v_mean: model.gains().vdd() - i_mean[l] * model.gains().resistance(),
                v_variance: v_variance[l],
                i_mean: i_mean[l],
                i_variance: i_variance[l],
            });
        }
    }
    let mut scratch = EstimateScratch::new();
    for win in tail {
        out.push(model.estimate_with(win, &mut scratch)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{ScaleGainModel, WindowModel};
    use didt_pdn::SecondOrderPdn;

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    fn model() -> VarianceModel {
        VarianceModel::new(ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap())
    }

    fn trace(windows: usize) -> Vec<f64> {
        (0..windows * 256)
            .map(|n| 30.0 + ((n / 15) % 2) as f64 * 14.0 - 7.0 + ((n as f64) * 0.013).sin() * 3.0)
            .collect()
    }

    #[test]
    fn batched_windows_match_scalar_bitwise() {
        let m = model();
        // 7 windows: one full lane group + a 3-window scalar tail.
        let t = trace(7);
        let windows: Vec<&[f64]> = t.chunks_exact(256).collect();
        let batched = m.estimate_windows(&windows).unwrap();
        assert_eq!(batched.len(), 7);
        let mut scratch = EstimateScratch::new();
        for (i, win) in windows.iter().enumerate() {
            let want = m.estimate_with(win, &mut scratch).unwrap();
            let got = batched[i];
            assert_eq!(want.v_mean.to_bits(), got.v_mean.to_bits(), "window {i}");
            assert_eq!(
                want.v_variance.to_bits(),
                got.v_variance.to_bits(),
                "window {i}"
            );
            assert_eq!(want.i_mean.to_bits(), got.i_mean.to_bits(), "window {i}");
            assert_eq!(
                want.i_variance.to_bits(),
                got.i_variance.to_bits(),
                "window {i}"
            );
        }
    }

    #[test]
    fn expansive_boundary_falls_back_to_scalar() {
        let gains = ScaleGainModel::calibrate(&pdn(), 256, 11).unwrap();
        let m = VarianceModel::with_boundary(gains, None, BoundaryMode::Symmetric);
        let t = trace(5);
        let windows: Vec<&[f64]> = t.chunks_exact(256).collect();
        let batched = m.estimate_windows(&windows).unwrap();
        let mut scratch = EstimateScratch::new();
        for (i, win) in windows.iter().enumerate() {
            let want = m.estimate_with(win, &mut scratch).unwrap();
            assert_eq!(want, batched[i], "window {i}");
        }
    }

    #[test]
    fn rejects_mismatched_window_length() {
        let m = model();
        let short = [1.0; 128];
        assert!(matches!(
            m.estimate_windows(&[&short]),
            Err(DidtError::TraceTooShort {
                needed: 256,
                got: 128
            })
        ));
    }
}
