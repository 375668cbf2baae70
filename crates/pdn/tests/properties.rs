//! Property-based tests of the PDN model: linearity (the paper's entire
//! subband-superposition argument rests on it), stability, impedance
//! scaling and calibration invariants.

use didt_pdn::{resonant_square_wave, SecondOrderPdn};
use proptest::prelude::*;

fn pdn_strategy() -> impl Strategy<Value = SecondOrderPdn> {
    (60.0e6..180.0e6f64, 1.2..8.0f64, 1e-4..2e-3f64).prop_map(|(f0, q, r)| {
        SecondOrderPdn::from_resonance(f0, q, r, 1.0, 3e9).expect("valid pdn")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn droop_filter_is_always_stable(pdn in pdn_strategy()) {
        prop_assert!(pdn.droop_filter().is_stable());
    }

    #[test]
    fn superposition_holds(
        pdn in pdn_strategy(),
        a in prop::collection::vec(0.0..80.0f64, 200),
        b in prop::collection::vec(0.0..80.0f64, 200),
    ) {
        // v(a + b) - Vdd = (v(a) - Vdd) + (v(b) - Vdd): droop is linear.
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let va = pdn.simulate(&a);
        let vb = pdn.simulate(&b);
        let vs = pdn.simulate(&sum);
        for n in 0..a.len() {
            let lhs = vs[n] - pdn.vdd();
            let rhs = (va[n] - pdn.vdd()) + (vb[n] - pdn.vdd());
            prop_assert!((lhs - rhs).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn impedance_scaling_is_uniform(pdn in pdn_strategy(), factor in 0.5..3.0f64, f in 1e6..1e9f64) {
        let scaled = pdn.scaled(factor).expect("scaled");
        let ratio = scaled.impedance_at(f) / pdn.impedance_at(f);
        prop_assert!((ratio - factor).abs() < 1e-9 * factor);
        // Resonance is preserved.
        let df = (scaled.resonant_frequency() - pdn.resonant_frequency()).abs();
        prop_assert!(df < 1.0);
    }

    #[test]
    fn impedance_peaks_at_resonance(pdn in pdn_strategy(), f in 1e6..1.4e9f64) {
        let peak = pdn.impedance_at(pdn.resonant_frequency());
        prop_assert!(pdn.impedance_at(f) <= peak * (1.0 + 1e-9));
    }

    #[test]
    fn constant_current_settles_to_ir_drop(pdn in pdn_strategy(), i in 0.0..100.0f64) {
        let v = pdn.simulate(&vec![i; 16_384]);
        let want = pdn.vdd() - i * pdn.resistance();
        prop_assert!((v[16_383] - want).abs() < 1e-5, "{} vs {want}", v[16_383]);
    }

    #[test]
    fn impulse_response_matches_streaming_simulation(
        pdn in pdn_strategy(),
        i in prop::collection::vec(0.0..80.0f64, 300),
    ) {
        let h = pdn.impulse_response(2048);
        let v = pdn.simulate(&i);
        let droop = didt_dsp::fir_filter(&i, &h);
        for n in 0..i.len() {
            prop_assert!((v[n] - (pdn.vdd() - droop[n])).abs() < 1e-8);
        }
    }

    #[test]
    fn square_wave_has_expected_period_structure(
        cycles in 100usize..1000,
        period in 2usize..60,
        hi in 10.0..90.0f64,
    ) {
        let lo = hi / 4.0;
        let s = resonant_square_wave(cycles, period, hi, lo);
        prop_assert_eq!(s.len(), cycles);
        let full = 2 * (period / 2);
        for n in 0..cycles.saturating_sub(full) {
            prop_assert_eq!(s[n], s[n + full]);
        }
        prop_assert!(s.iter().all(|&x| x == hi || x == lo));
    }
}
