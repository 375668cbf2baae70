//! Gaussianity classification of execution windows (paper §4.1,
//! Figures 6, 7 and 12).

use std::borrow::Cow;

use crate::characterize::WindowSampler;
use crate::DidtError;
use didt_stats::chi_squared::{ChiSquaredGof, GofOutcome, PreparedGof};
use didt_stats::{window_moments, LillieforsTest, PreparedJarqueBera, StatsError};

/// Which normality test classifies the windows.
///
/// The paper uses the chi-squared goodness-of-fit test; Lilliefors
/// (KS with estimated parameters) is provided for the classifier-choice
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormalityTest {
    /// Chi-squared with equiprobable bins (the paper's choice).
    #[default]
    ChiSquared,
    /// Lilliefors / Kolmogorov–Smirnov.
    Lilliefors,
    /// Jarque–Bera (skewness + kurtosis).
    JarqueBera,
}

/// A [`NormalityTest`] at one significance, ready to run per window.
/// The χ² constants are either built for one study or borrowed from a
/// caller that keeps them across studies.
enum PreparedTest<'a> {
    ChiSquared(Cow<'a, PreparedGof>),
    Lilliefors(f64),
    JarqueBera(PreparedJarqueBera),
}

impl PreparedTest<'_> {
    /// Decide `window`, whose mean is `m` and variance about it `var`.
    /// The χ² test reuses those moments and skips the p-value the study
    /// never reads; Lilliefors and Jarque–Bera compute their own.
    fn run(&self, window: &[f64], m: f64, var: f64) -> Result<GofOutcome, StatsError> {
        Ok(match self {
            PreparedTest::ChiSquared(test) => test.decide(window, m, var)?,
            PreparedTest::Lilliefors(significance) => {
                LillieforsTest
                    .test_normality(window, *significance)?
                    .decision
            }
            PreparedTest::JarqueBera(test) => test.test(window)?.decision,
        })
    }
}

/// Results of classifying one benchmark's windows at one window size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianityReport {
    /// Window length in cycles.
    pub window: usize,
    /// Windows tested.
    pub tested: usize,
    /// Windows accepted as Gaussian at the configured significance.
    pub accepted: usize,
    /// Windows rejected.
    pub rejected: usize,
    /// Degenerate (near-zero-variance) windows, counted as non-Gaussian.
    pub degenerate: usize,
    /// Mean current variance over the *non-Gaussian* windows (Figure 7's
    /// quantity).
    pub non_gaussian_variance: f64,
    /// Mean current variance over all windows.
    pub overall_variance: f64,
}

impl GaussianityReport {
    /// Acceptance rate in [0, 1] (Figures 6 and 12's y-axis).
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.tested == 0 {
            0.0
        } else {
            self.accepted as f64 / self.tested as f64
        }
    }
}

/// Chi-squared Gaussianity study over random execution windows.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::characterize::GaussianityStudy;
///
/// // A noisy but stationary "current trace".
/// let mut state = 0x1234_5678_9ABC_DEFu64;
/// let mut next = move || {
///     state ^= state << 13; state ^= state >> 7; state ^= state << 17;
///     (0..8).map(|k| ((state >> (k * 8)) & 0xFF) as f64).sum::<f64>() / 8.0
/// };
/// let trace: Vec<f64> = (0..20_000).map(|_| next()).collect();
/// let study = GaussianityStudy::new(0.95, 42);
/// let report = study.classify(&trace, 64, 200)?;
/// // CLT-ish byte sums: most windows accepted.
/// assert!(report.acceptance_rate() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianityStudy {
    significance: f64,
    seed: u64,
    test: NormalityTest,
}

impl GaussianityStudy {
    /// Create a study at `significance` (the paper uses 0.95) with a
    /// sampling seed, classifying with the paper's chi-squared test.
    #[must_use]
    pub fn new(significance: f64, seed: u64) -> Self {
        GaussianityStudy {
            significance,
            seed,
            test: NormalityTest::ChiSquared,
        }
    }

    /// Use a different normality test (classifier ablation).
    #[must_use]
    pub fn with_test(mut self, test: NormalityTest) -> Self {
        self.test = test;
        self
    }

    /// The classifier in use.
    #[must_use]
    pub fn test(&self) -> NormalityTest {
        self.test
    }

    /// Bin count of the χ² test for a given window length: a fixed 8
    /// equiprobable bins (dof 5) for windows of 64+ cycles — one
    /// procedure across the paper's three window sizes — dropping to 4
    /// bins for 32-cycle windows where 8 bins would leave expected
    /// counts of only 4.
    #[must_use]
    pub fn bins_for(window: usize) -> usize {
        if window >= 64 {
            8
        } else {
            4
        }
    }

    /// Classify `count` random windows of length `window` from `trace`.
    ///
    /// # Errors
    ///
    /// Propagates sampling and test errors ([`DidtError`]).
    pub fn classify(
        &self,
        trace: &[f64],
        window: usize,
        count: usize,
    ) -> Result<GaussianityReport, DidtError> {
        self.classify_by(trace, window, count, || self.prepare(window))
    }

    /// [`classify`](Self::classify) by the χ² test, with its constants
    /// built by the caller, who may keep them across studies: the report
    /// is bit-identical to a χ² study's `classify` when `test` is
    /// `ChiSquaredGof::new(Self::bins_for(window))?.prepare(significance)`
    /// at this study's significance. The study's own
    /// [`test`](Self::test) choice plays no part.
    ///
    /// # Errors
    ///
    /// Propagates sampling and test errors ([`DidtError`]).
    pub fn classify_prepared(
        &self,
        trace: &[f64],
        window: usize,
        count: usize,
        test: &PreparedGof,
    ) -> Result<GaussianityReport, DidtError> {
        self.classify_by(trace, window, count, || {
            Ok(PreparedTest::ChiSquared(Cow::Borrowed(test)))
        })
    }

    /// The classification fold. `test` runs only once a window is
    /// sampled, so a study over no windows never checks its significance.
    fn classify_by<'a>(
        &self,
        trace: &[f64],
        window: usize,
        count: usize,
        test: impl FnOnce() -> Result<PreparedTest<'a>, StatsError>,
    ) -> Result<GaussianityReport, DidtError> {
        let sampler = WindowSampler::new(window, self.seed);
        let windows = sampler.sample(trace, count)?;
        let mut report = GaussianityReport {
            window,
            tested: 0,
            accepted: 0,
            rejected: 0,
            degenerate: 0,
            non_gaussian_variance: 0.0,
            overall_variance: 0.0,
        };
        if windows.is_empty() {
            return Ok(report);
        }
        let test = test()?;
        let mut ng_var_sum = 0.0;
        let mut ng_count = 0usize;
        let mut var_sum = 0.0;
        // Each window's mean and variance about it, shared by the χ² test
        // and the variance sums; the windows are summed side by side.
        for (w, (m, v)) in windows.iter().zip(window_moments(&windows)) {
            let outcome = test.run(w, m, v)?;
            var_sum += v;
            report.tested += 1;
            match outcome {
                GofOutcome::Accepted => report.accepted += 1,
                GofOutcome::Rejected => {
                    report.rejected += 1;
                    ng_var_sum += v;
                    ng_count += 1;
                }
                GofOutcome::Degenerate => {
                    report.degenerate += 1;
                    ng_var_sum += v;
                    ng_count += 1;
                }
            }
        }
        report.overall_variance = var_sum / report.tested as f64;
        report.non_gaussian_variance = if ng_count > 0 {
            ng_var_sum / ng_count as f64
        } else {
            0.0
        };
        Ok(report)
    }

    /// The test's data-independent constants for `window`-cycle
    /// windows, built once per study.
    fn prepare(&self, window: usize) -> Result<PreparedTest<'static>, StatsError> {
        Ok(match self.test {
            NormalityTest::ChiSquared => PreparedTest::ChiSquared(Cow::Owned(
                ChiSquaredGof::new(Self::bins_for(window))?.prepare(self.significance)?,
            )),
            NormalityTest::Lilliefors => PreparedTest::Lilliefors(self.significance),
            NormalityTest::JarqueBera => {
                PreparedTest::JarqueBera(PreparedJarqueBera::new(self.significance)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use didt_stats::variance;

    fn xorshift_gaussianish(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..12).map(|_| next()).sum::<f64>() - 6.0)
            .collect()
    }

    #[test]
    fn gaussian_trace_mostly_accepted() {
        let trace = xorshift_gaussianish(30_000, 99);
        let study = GaussianityStudy::new(0.95, 1);
        let r = study.classify(&trace, 64, 300).unwrap();
        assert!(r.acceptance_rate() > 0.7, "rate {}", r.acceptance_rate());
        assert_eq!(r.tested, 300);
        assert_eq!(r.accepted + r.rejected + r.degenerate, 300);
    }

    #[test]
    fn bursty_trace_mostly_rejected() {
        // Long flat stretches with occasional spikes: mcf-like.
        let trace: Vec<f64> = (0..30_000)
            .map(|i| if i % 271 < 6 { 80.0 } else { 13.0 })
            .collect();
        let study = GaussianityStudy::new(0.95, 1);
        let r = study.classify(&trace, 64, 300).unwrap();
        assert!(r.acceptance_rate() < 0.2, "rate {}", r.acceptance_rate());
    }

    #[test]
    fn constant_trace_is_degenerate() {
        let trace = vec![20.0; 5000];
        let study = GaussianityStudy::new(0.95, 1);
        let r = study.classify(&trace, 64, 50).unwrap();
        assert_eq!(r.degenerate, 50);
        assert_eq!(r.acceptance_rate(), 0.0);
        assert_eq!(r.non_gaussian_variance, 0.0);
    }

    #[test]
    fn significance_is_checked_only_when_a_window_is_tested() {
        let trace = xorshift_gaussianish(2_000, 7);
        for test in [
            NormalityTest::ChiSquared,
            NormalityTest::Lilliefors,
            NormalityTest::JarqueBera,
        ] {
            let study = GaussianityStudy::new(0.0, 1).with_test(test);
            let empty = study.classify(&trace, 64, 0).unwrap();
            assert_eq!(empty.tested, 0, "{test:?}");
            assert_eq!(empty.overall_variance, 0.0, "{test:?}");
            assert!(study.classify(&trace, 64, 3).is_err(), "{test:?}");
        }
    }

    #[test]
    fn bins_scale_with_window() {
        assert_eq!(GaussianityStudy::bins_for(32), 4);
        assert_eq!(GaussianityStudy::bins_for(64), 8);
        assert_eq!(GaussianityStudy::bins_for(128), 8);
        assert_eq!(GaussianityStudy::bins_for(1024), 8);
    }

    #[test]
    fn alternative_classifiers_agree_on_extremes() {
        let gaussian = xorshift_gaussianish(20_000, 5);
        let bursty: Vec<f64> = (0..20_000)
            .map(|i| if i % 271 < 6 { 80.0 } else { 13.0 })
            .collect();
        for test in [NormalityTest::Lilliefors, NormalityTest::JarqueBera] {
            let study = GaussianityStudy::new(0.95, 1).with_test(test);
            let g = study.classify(&gaussian, 64, 200).unwrap();
            let b = study.classify(&bursty, 64, 200).unwrap();
            assert!(
                g.acceptance_rate() > 0.5,
                "{test:?} gaussian rate {}",
                g.acceptance_rate()
            );
            assert!(
                b.acceptance_rate() < 0.2,
                "{test:?} bursty rate {}",
                b.acceptance_rate()
            );
        }
    }

    #[test]
    fn non_gaussian_variance_excludes_accepted_windows() {
        // Mix: mostly Gaussian segments plus flat (degenerate) segments.
        let mut trace = xorshift_gaussianish(10_000, 3);
        trace.extend(std::iter::repeat_n(5.0, 10_000));
        let study = GaussianityStudy::new(0.95, 2);
        let r = study.classify(&trace, 64, 400).unwrap();
        // Flat windows have ~zero variance, dragging the non-Gaussian
        // mean below the overall mean — the Figure 7 observation.
        assert!(r.non_gaussian_variance < r.overall_variance);
    }

    #[test]
    fn classify_matches_a_per_window_fold_bit_for_bit() {
        // Gaussian, bursty and flat stretches, so every outcome occurs.
        let mut trace = xorshift_gaussianish(8_000, 11);
        trace.extend((0..6_000).map(|i| if i % 97 < 4 { 80.0 } else { 13.0 }));
        trace.extend(std::iter::repeat_n(5.0, 6_000));
        for kind in [
            NormalityTest::ChiSquared,
            NormalityTest::Lilliefors,
            NormalityTest::JarqueBera,
        ] {
            for window in [32, 64, 128] {
                let study = GaussianityStudy::new(0.95, 9).with_test(kind);
                let got = study.classify(&trace, window, 400).unwrap();

                // The fold as the study ran before it shared moments: each
                // test sums its window itself, then `variance` sums it again.
                let test = study.prepare(window).unwrap();
                let mut want = GaussianityReport {
                    window,
                    tested: 0,
                    accepted: 0,
                    rejected: 0,
                    degenerate: 0,
                    non_gaussian_variance: 0.0,
                    overall_variance: 0.0,
                };
                let (mut ng_var_sum, mut ng_count, mut var_sum) = (0.0, 0usize, 0.0);
                for w in WindowSampler::new(window, 9).sample(&trace, 400).unwrap() {
                    let outcome = match &test {
                        PreparedTest::ChiSquared(chi) => chi.test(w).unwrap().decision,
                        // These ignore the moments handed to them.
                        other => other.run(w, f64::NAN, f64::NAN).unwrap(),
                    };
                    let v = variance(w);
                    var_sum += v;
                    want.tested += 1;
                    match outcome {
                        GofOutcome::Accepted => want.accepted += 1,
                        GofOutcome::Rejected => want.rejected += 1,
                        GofOutcome::Degenerate => want.degenerate += 1,
                    }
                    if outcome != GofOutcome::Accepted {
                        ng_var_sum += v;
                        ng_count += 1;
                    }
                }
                want.overall_variance = var_sum / want.tested as f64;
                if ng_count > 0 {
                    want.non_gaussian_variance = ng_var_sum / ng_count as f64;
                }

                let label = format!("{kind:?} at window {window}");
                assert_eq!(
                    (got.tested, got.accepted, got.rejected, got.degenerate),
                    (want.tested, want.accepted, want.rejected, want.degenerate),
                    "{label}"
                );
                assert!(
                    got.accepted > 0 && got.rejected > 0 && got.degenerate > 0,
                    "{label}"
                );
                assert_eq!(
                    got.overall_variance.to_bits(),
                    want.overall_variance.to_bits(),
                    "{label}"
                );
                assert_eq!(
                    got.non_gaussian_variance.to_bits(),
                    want.non_gaussian_variance.to_bits(),
                    "{label}"
                );
            }
        }
    }
}
