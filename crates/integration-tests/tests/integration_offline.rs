//! Cross-crate integration: the offline characterization pipeline
//! (uarch traces → dsp wavelets → stats tests → core variance model).

use didt_core::characterize::{
    EmergencyEstimator, GaussianityStudy, ScaleGainModel, VarianceModel,
};
use didt_core::DidtSystem;
use didt_uarch::{capture_trace, Benchmark};

fn system() -> DidtSystem {
    DidtSystem::standard().expect("standard system")
}

#[test]
fn memory_bound_benchmarks_are_least_gaussian() {
    let sys = system();
    let study = GaussianityStudy::new(0.95, 42);
    let rate = |b: Benchmark| {
        let t = capture_trace(b, sys.processor(), 1, 60_000, 1 << 16);
        study
            .classify(&t.samples, 64, 250)
            .expect("classify")
            .acceptance_rate()
    };
    // The paper's Figure 12 contrast: swim/lucas vs mesa/sixtrack.
    let swim = rate(Benchmark::Swim);
    let lucas = rate(Benchmark::Lucas);
    let mesa = rate(Benchmark::Mesa);
    let sixtrack = rate(Benchmark::Sixtrack);
    assert!(
        swim < mesa && swim < sixtrack,
        "swim {swim} vs mesa {mesa} / sixtrack {sixtrack}"
    );
    assert!(
        lucas < mesa && lucas < sixtrack,
        "lucas {lucas} vs mesa {mesa} / sixtrack {sixtrack}"
    );
}

#[test]
fn non_gaussian_windows_have_lower_variance_figure7() {
    // The paper's Figure 7 effect — non-Gaussian windows carry less
    // current variance than average — is strongest at the shortest
    // window size (32 cycles), where flat stall windows dominate the
    // rejected class.
    let sys = system();
    let study = GaussianityStudy::new(0.95, 7);
    let mut ng = 0.0;
    let mut overall = 0.0;
    for b in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Applu] {
        let t = capture_trace(b, sys.processor(), 1, 60_000, 1 << 16);
        let r = study.classify(&t.samples, 32, 300).expect("classify");
        ng += r.non_gaussian_variance;
        overall += r.overall_variance;
    }
    assert!(ng < overall, "non-Gaussian {ng} vs overall {overall}");
}

#[test]
fn emergency_estimator_tracks_observation_across_classes() {
    // A compressed Figure 9: the estimate must track the observation
    // within ~1.5 % of cycles and preserve the problematic/benign
    // ordering between a hot compute benchmark and a stall-heavy one.
    let sys = system();
    let pdn = sys.pdn_at(150.0).expect("pdn");
    let gains = ScaleGainModel::calibrate(&pdn, 64, 0xCAB1).expect("gains");
    let est = EmergencyEstimator::new(VarianceModel::new(gains), 0.97);

    let run = |b: Benchmark| {
        let t = capture_trace(b, sys.processor(), 0xD1D7, 100_000, 1 << 17);
        est.compare(&t.samples, &pdn).expect("compare")
    };
    let hot = run(Benchmark::Crafty);
    let cold = run(Benchmark::Mcf);
    assert!(hot.abs_error() < 0.025, "crafty error {}", hot.abs_error());
    assert!(cold.abs_error() < 0.025, "mcf error {}", cold.abs_error());
    assert!(
        hot.observed > cold.observed,
        "crafty {} should exceed mcf {}",
        hot.observed,
        cold.observed
    );
    assert!(
        hot.estimated > cold.estimated,
        "estimates must preserve the ordering"
    );
}

#[test]
fn variance_model_is_deterministic_end_to_end() {
    let sys = system();
    let pdn = sys.pdn_at(150.0).expect("pdn");
    let t = capture_trace(Benchmark::Twolf, sys.processor(), 3, 20_000, 8192);
    let gains = ScaleGainModel::calibrate(&pdn, 64, 5).expect("gains");
    let model = VarianceModel::new(gains);
    let a: Vec<_> = t
        .samples
        .chunks_exact(64)
        .map(|w| model.estimate(w).expect("estimate").v_variance)
        .collect();
    let gains2 = ScaleGainModel::calibrate(&pdn, 64, 5).expect("gains");
    let model2 = VarianceModel::new(gains2);
    let b: Vec<_> = t
        .samples
        .chunks_exact(64)
        .map(|w| model2.estimate(w).expect("estimate").v_variance)
        .collect();
    assert_eq!(a, b);
}
