//! Property-based tests of the dI/dt core: the hardware shift-register
//! terms must track the exact dot products under arbitrary inputs, the
//! array-laid-out wavelet monitor and the mirrored history ring must
//! reproduce their one-term and naive references bit for bit, the
//! full-convolution and wavelet monitors' block kernels must reproduce
//! their per-cycle `observe` bit for bit, the full-term wavelet monitor must equal
//! windowed convolution, and the estimators must be well-behaved
//! probabilities.

use didt_core::characterize::{ScaleGainModel, VarianceModel};
use didt_core::monitor::{
    CycleSense, FullConvolutionMonitor, HistoryRing, SlidingTerm, TermKind, VoltageMonitor,
    WaveletMonitorDesign,
};
use didt_pdn::SecondOrderPdn;
use proptest::prelude::*;
use std::collections::VecDeque;

fn pdn() -> SecondOrderPdn {
    SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).expect("pdn")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sliding_terms_track_exact_dot_products(
        samples in prop::collection::vec(0.0..100.0f64, 50..400),
        level in 1usize..7,
        index in 0usize..4,
        detail in any::<bool>(),
    ) {
        let kind = if detail { TermKind::Detail } else { TermKind::Approximation };
        let mut term = SlidingTerm::new(kind, level, index);
        let mut ring = HistoryRing::new(term.max_lag() + 1);
        for &x in &samples {
            ring.push(x);
            term.update(&ring);
        }
        let exact = term.recompute(&ring);
        prop_assert!((term.value() - exact).abs() < 1e-8, "{} vs {exact}", term.value());
    }

    #[test]
    fn wavelet_monitor_equals_sliding_term_fold_bitwise(
        currents in prop::collection::vec(0.0..80.0f64, 600..1200),
        k in 1usize..=256,
        delay in 0usize..=3,
    ) {
        let p = pdn();
        let design = WaveletMonitorDesign::new(&p, 256).expect("design");
        let mut monitor = design.build(k, delay).expect("monitor");
        // The reference: the design's top-k terms, each its own
        // SlidingTerm over its own ring, folded in |w| order.
        let kept = &design.weights()[..k];
        let mut terms: Vec<SlidingTerm> = kept
            .iter()
            .map(|w| SlidingTerm::new(w.kind, w.level, w.index))
            .collect();
        let mut ring = HistoryRing::new(design.window() + 1);
        let mut pipeline = VecDeque::from(vec![p.vdd(); delay]);
        for (n, &i) in currents.iter().enumerate() {
            ring.push(i);
            for term in &mut terms {
                term.update(&ring);
            }
            let droop: f64 = terms
                .iter()
                .zip(kept)
                .map(|(term, w)| term.value() * w.weight)
                .sum();
            pipeline.push_back(p.vdd() - droop);
            let expected = pipeline.pop_front().expect("one value in flight");
            let got = monitor.observe(CycleSense { current: i, voltage: 1.0 });
            prop_assert!(got.to_bits() == expected.to_bits(), "cycle {n}: {got} vs {expected}");
        }
    }

    #[test]
    fn history_ring_matches_naive_history_and_lag_walk(
        capacity in 1usize..300,
        samples in prop::collection::vec(-50.0..50.0f64, 0..3000),
        weights in prop::collection::vec(-1.0..1.0f64, 512),
        tap_fraction in 0.0..=1.0f64,
    ) {
        let mut ring = HistoryRing::new(capacity);
        for &x in &samples {
            ring.push(x);
        }
        let cap = ring.capacity();
        prop_assert_eq!(cap, capacity.next_power_of_two());
        prop_assert_eq!(ring.lags().len(), cap);
        // Newest first; lags before the first push read as zero.
        for m in 0..cap {
            let expected = if m < samples.len() { samples[samples.len() - 1 - m] } else { 0.0 };
            prop_assert!(ring.lag(m).to_bits() == expected.to_bits(), "lag {m}");
            prop_assert!(ring.lags()[m].to_bits() == expected.to_bits(), "lags()[{m}]");
        }
        let taps = ((cap as f64 * tap_fraction) as usize).min(cap);
        let h = &weights[..taps];
        let naive = h
            .iter()
            .enumerate()
            .fold(0.0, |acc, (m, &w)| acc + w * ring.lag(m));
        prop_assert!(ring.dot(h).to_bits() == naive.to_bits(), "{taps} taps");
    }

    #[test]
    fn full_convolution_observe_block_equals_observe_bitwise(
        currents in prop::collection::vec(0.0..80.0f64, 0..1500),
        taps in 1usize..=300,
        delay in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let p = pdn();
        let mut one = FullConvolutionMonitor::new(&p, taps, delay);
        let mut mixed = one.clone();
        let senses: Vec<CycleSense> = currents
            .iter()
            .map(|&i| CycleSense { current: i, voltage: 1.0 })
            .collect();
        let want: Vec<f64> = senses.iter().map(|&s| one.observe(s)).collect();
        // Random pieces, empty ones included, each fed either as one
        // block or cycle by cycle, so blocks start at every ring state.
        let mut got = vec![f64::NAN; senses.len()];
        let mut rng = seed;
        let mut at = 0;
        while at < senses.len() {
            rng = rng.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
            let r = (rng >> 16) as usize;
            let len = if r.is_multiple_of(4) { r % 700 } else { r % 20 };
            let end = (at + len).min(senses.len());
            if r.is_multiple_of(5) {
                for n in at..end {
                    got[n] = mixed.observe(senses[n]);
                }
            } else {
                mixed.observe_block(&senses[at..end], &mut got[at..end]);
            }
            at = end;
        }
        for (n, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(g.to_bits() == w.to_bits(), "cycle {n} of {taps} taps: {g} vs {w}");
        }
        // Both end in the same state.
        let next = CycleSense { current: 42.0, voltage: 1.0 };
        prop_assert!(one.observe(next).to_bits() == mixed.observe(next).to_bits());
    }

    #[test]
    fn wavelet_observe_block_equals_observe_bitwise(
        currents in prop::collection::vec(0.0..80.0f64, 0..1500),
        window_log2 in 3u32..=8,
        k_fraction in 0.0..1.0f64,
        delay in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let window = 1usize << window_log2;
        let k = 1 + ((window - 1) as f64 * k_fraction) as usize;
        let design = WaveletMonitorDesign::new(&pdn(), window).expect("design");
        let mut one = design.build(k, delay).expect("monitor");
        let mut mixed = one.clone();
        let senses: Vec<CycleSense> = currents
            .iter()
            .map(|&i| CycleSense { current: i, voltage: 1.0 })
            .collect();
        let want: Vec<f64> = senses.iter().map(|&s| one.observe(s)).collect();
        // Random pieces, empty ones included, each fed either as one
        // block or cycle by cycle, so blocks start at every ring state.
        let mut got = vec![f64::NAN; senses.len()];
        let mut rng = seed;
        let mut at = 0;
        while at < senses.len() {
            rng = rng.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
            let r = (rng >> 16) as usize;
            let len = if r.is_multiple_of(4) { r % 700 } else { r % 20 };
            let end = (at + len).min(senses.len());
            if r.is_multiple_of(5) {
                for n in at..end {
                    got[n] = mixed.observe(senses[n]);
                }
            } else {
                mixed.observe_block(&senses[at..end], &mut got[at..end]);
            }
            at = end;
        }
        for (n, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "cycle {n}, window {window}, k {k}, delay {delay}: {g} vs {w}"
            );
        }
        // Both end in the same state.
        for next in [42.0, 0.0, 79.5] {
            let s = CycleSense { current: next, voltage: 1.0 };
            prop_assert!(one.observe(s).to_bits() == mixed.observe(s).to_bits());
        }
        let tail = [CycleSense { current: 17.0, voltage: 1.0 }; 3];
        let (mut a, mut b) = ([0.0; 3], [0.0; 3]);
        one.observe_block(&tail, &mut a);
        mixed.observe_block(&tail, &mut b);
        prop_assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn full_term_wavelet_monitor_equals_windowed_convolution(
        currents in prop::collection::vec(0.0..80.0f64, 600),
    ) {
        let p = pdn();
        let design = WaveletMonitorDesign::new(&p, 128).expect("design");
        let mut wavelet = design.build(128, 0).expect("all terms");
        let mut timedom = FullConvolutionMonitor::new(&p, 128, 0);
        for &i in &currents {
            let s = CycleSense { current: i, voltage: 1.0 };
            let a = wavelet.observe(s);
            let b = timedom.observe(s);
            prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_monitor_error_bounded_by_design_bound(
        currents in prop::collection::vec(20.0..60.0f64, 400),
        k in 4usize..64,
    ) {
        let p = pdn();
        let design = WaveletMonitorDesign::new(&p, 128).expect("design");
        let mut truncated = design.build(k, 0).expect("monitor");
        let mut exact = design.build(128, 0).expect("monitor");
        // Bound for deviations up to 40 A around any mean.
        let bound = design.truncation_error_bound(k, 40.0) + 1e-9;
        for &i in &currents {
            let s = CycleSense { current: i, voltage: 1.0 };
            let a = truncated.observe(s);
            let b = exact.observe(s);
            prop_assert!((a - b).abs() <= bound + 40.0 * 1e-9, "err {} > bound {bound}", (a - b).abs());
        }
    }

    #[test]
    fn window_estimates_are_valid_probabilities(
        window in prop::collection::vec(5.0..90.0f64, 64),
        threshold in 0.9..1.1f64,
    ) {
        let gains = ScaleGainModel::calibrate(&pdn(), 64, 3).expect("gains");
        let model = VarianceModel::new(gains);
        let est = model.estimate(&window).expect("estimate");
        prop_assert!(est.v_variance >= 0.0);
        let p = est.probability_below(threshold);
        prop_assert!((0.0..=1.0).contains(&p));
        let q = est.probability_above(threshold);
        prop_assert!((p + q - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimated_variance_monotone_under_amplitude_scaling(
        base in prop::collection::vec(-1.0..1.0f64, 64),
        amp in 1.0..10.0f64,
    ) {
        let gains = ScaleGainModel::calibrate(&pdn(), 64, 3).expect("gains");
        let model = VarianceModel::new(gains);
        let small: Vec<f64> = base.iter().map(|x| 40.0 + x).collect();
        let large: Vec<f64> = base.iter().map(|x| 40.0 + amp * x).collect();
        let vs = model.estimate(&small).expect("estimate").v_variance;
        let vl = model.estimate(&large).expect("estimate").v_variance;
        prop_assert!(vl >= vs * 0.99, "amp {amp}: {vl} < {vs}");
    }
}
