//! Property tests for the batch execution layer: every batched kernel
//! must agree with its scalar counterpart on every lane. The contract
//! the issue asks for is 1e-12 agreement; the implementation holds the
//! stronger invariant — each lane performs the identical arithmetic in
//! the identical association order as the scalar kernel — so these
//! tests assert *bitwise* equality, which implies it. Three axes are
//! swept: all occupied lanes of a full batch, ragged batches (fewer
//! traces than lanes, the padding lanes zero-filled), and the `L = 1`
//! degenerate batch, which must collapse to the scalar path exactly.

use didt_core::characterize::{EmergencyEstimator, EstimateScratch, ScaleGainModel, VarianceModel};
use didt_core::DidtSystem;
use didt_dsp::{
    dwt_boundary_into, dwt_into_batch, lag1_correlation_batch, mean_batch, variance_batch,
    BatchDecomposition, BatchDwtScratch, BoundaryMode, DwtScratch, TraceBatch,
    WaveletDecomposition, WaveletFamily,
};
use didt_stats::{lag_correlation, mean, variance};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Occupied-lane slices of a possibly ragged batch.
fn lane_slices(traces: &[Vec<f64>]) -> Vec<&[f64]> {
    traces.iter().map(Vec::as_slice).collect()
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// Periodic pyramid: every lane's detail and approximation bands
    /// match `dwt_boundary_into` bitwise, across the family ladder and
    /// ragged lane counts.
    #[test]
    fn dwt_batch_matches_scalar_on_all_lanes(
        m in 2usize..=6,
        levels in 1usize..=3,
        lanes in 1usize..=4,
        family_ix in 0usize..3,
        raw in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 96..=96), 4..=4),
    ) {
        let family = [WaveletFamily::Haar, WaveletFamily::Db2, WaveletFamily::Db4][family_ix];
        let len = m << levels;
        let traces: Vec<Vec<f64>> = raw[..lanes].iter().map(|t| t[..len].to_vec()).collect();
        let refs = lane_slices(&traces);
        // Deep pyramids over short signals are rejected identically by
        // both paths; only compare where the scalar path succeeds.
        let mut scratch = DwtScratch::new();
        let mut decomp = WaveletDecomposition::empty();
        let scalar_ok = dwt_boundary_into(
            refs[0], family, levels, BoundaryMode::Periodic, &mut scratch, &mut decomp,
        )
        .is_ok();

        let tb = TraceBatch::<4>::from_traces(&refs).unwrap();
        let mut bscratch = BatchDwtScratch::<4>::new();
        let mut bdecomp = BatchDecomposition::<4>::empty();
        let batch = dwt_into_batch(&tb, family, levels, &mut bscratch, &mut bdecomp);
        prop_assert_eq!(scalar_ok, batch.is_ok());
        prop_assume!(scalar_ok);

        for (l, x) in refs.iter().enumerate() {
            dwt_boundary_into(
                x, family, levels, BoundaryMode::Periodic, &mut scratch, &mut decomp,
            )
            .unwrap();
            let approx: Vec<f64> = bdecomp.approximation().iter().map(|col| col[l]).collect();
            prop_assert!(bits_eq(&approx, decomp.approximation()), "approx lane {l}");
            for level in 1..=bdecomp.levels() {
                let got = bdecomp.detail_lane(level, l).unwrap();
                prop_assert!(
                    bits_eq(&got, decomp.detail(level).unwrap()),
                    "detail level {} lane {}", level, l
                );
            }
        }
    }

    /// `L = 1` pyramid collapses to the scalar engine.
    #[test]
    fn dwt_batch_l1_collapses_to_scalar(
        m in 2usize..=8,
        levels in 1usize..=3,
        raw in prop::collection::vec(-50.0f64..50.0, 96..=96),
    ) {
        let len = m << levels;
        let signal = &raw[..len];
        let mut scratch = DwtScratch::new();
        let mut decomp = WaveletDecomposition::empty();
        prop_assume!(dwt_boundary_into(
            signal, WaveletFamily::Db3, levels, BoundaryMode::Periodic,
            &mut scratch, &mut decomp,
        )
        .is_ok());

        let tb = TraceBatch::<1>::from_traces(&[signal]).unwrap();
        let mut bscratch = BatchDwtScratch::<1>::new();
        let mut bdecomp = BatchDecomposition::<1>::empty();
        dwt_into_batch(&tb, WaveletFamily::Db3, levels, &mut bscratch, &mut bdecomp).unwrap();
        for level in 1..=bdecomp.levels() {
            prop_assert!(bits_eq(
                &bdecomp.detail_lane(level, 0).unwrap(),
                decomp.detail(level).unwrap(),
            ));
        }
    }

    /// Window moment kernels: mean, variance, lag-1 correlation per
    /// lane, including the short-window (`len < 3`) guard paths.
    #[test]
    fn window_stats_batch_matches_scalar_on_all_lanes(
        traces in (1usize..=4).prop_flat_map(|l| (2usize..=64).prop_flat_map(move |n| {
            prop::collection::vec(prop::collection::vec(-100.0f64..100.0, n..=n), l..=l)
        })),
    ) {
        let refs = lane_slices(&traces);
        let tb = TraceBatch::<4>::from_traces(&refs).unwrap();
        let m = mean_batch(tb.columns());
        let v = variance_batch(tb.columns());
        let r = lag1_correlation_batch(tb.columns());
        for (l, x) in refs.iter().enumerate() {
            prop_assert!(m[l].to_bits() == mean(x).to_bits(), "mean lane {}", l);
            prop_assert!(v[l].to_bits() == variance(x).to_bits(), "variance lane {}", l);
            let want = if x.len() >= 3 { lag_correlation(x).unwrap_or(0.0) } else { 0.0 };
            prop_assert!(r[l].to_bits() == want.to_bits(), "lag1 lane {}", l);
        }
    }

}

/// One calibration, shared by the estimator property tests below — the
/// PDN design plus gain sweep is far too slow to redo per proptest case.
/// Index 0 runs the periodic boundary (lane groups), index 1 the
/// symmetric one (scalar windows).
fn shared_estimators() -> &'static [EmergencyEstimator<VarianceModel>; 2] {
    static EST: OnceLock<[EmergencyEstimator<VarianceModel>; 2]> = OnceLock::new();
    EST.get_or_init(|| {
        let sys = DidtSystem::standard().expect("system");
        let pdn = sys.pdn_at(150.0).expect("pdn");
        let gains = ScaleGainModel::calibrate(&pdn, 64, 0xCAB1).expect("gains");
        [BoundaryMode::Periodic, BoundaryMode::Symmetric].map(|mode| {
            EmergencyEstimator::new(
                VarianceModel::with_boundary(gains.clone(), None, mode),
                0.97,
            )
        })
    })
}

proptest! {
    // The full estimator round trip is calibration-backed and slower
    // per case, so sweep fewer cases than the pure-DSP properties.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `estimate_trace` — lane-packed DWT, per-scale variances, gain
    /// lookup, window moments — returns bitwise the triple of a plain
    /// fold of `VarianceModel::estimate_with` over the trace's windows,
    /// for any window count: full 4-lane groups, ragged tails, and
    /// sub-lane counts, on both the periodic and the expansive
    /// boundary.
    #[test]
    fn estimate_trace_matches_scalar_window_fold(
        windows in 1usize..=9,
        boundary_ix in 0usize..2,
        raw in prop::collection::vec(20.0f64..80.0, 9 * 64..=9 * 64),
    ) {
        let est = &shared_estimators()[boundary_ix];
        let trace = &raw[..windows * 64];
        let mut scratch = EstimateScratch::new();
        let (mut prob_sum, mut vmean_sum) = (0.0, 0.0);
        for window in trace.chunks_exact(64) {
            let e = est.model().estimate_with(window, &mut scratch).unwrap();
            prob_sum += e.probability_below(est.threshold());
            vmean_sum += e.v_mean;
        }
        let (p_want, v_want) = (prob_sum / windows as f64, vmean_sum / windows as f64);
        let (p_got, n_got, v_got) = est.estimate_trace(trace).unwrap();
        prop_assert_eq!(p_want.to_bits(), p_got.to_bits());
        prop_assert_eq!(windows, n_got);
        prop_assert_eq!(v_want.to_bits(), v_got.to_bits());
    }
}
