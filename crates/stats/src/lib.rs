#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Statistical primitives for dI/dt characterization.
//!
//! This crate provides the statistics used by the wavelet-based dI/dt
//! methodology of Joseph, Hu and Martonosi (HPCA 2004):
//!
//! * [`descriptive`] — means, variances, RMS error and trace summaries.
//! * [`normal`] — the Gaussian distribution (`erf`-based CDF, quantiles).
//! * [`gamma`] — log-gamma and the regularized incomplete gamma function,
//!   the machinery behind the chi-squared distribution.
//! * [`chi_squared`] — the chi-squared distribution and the
//!   goodness-of-fit test used to classify execution windows as Gaussian
//!   (paper §4.1, Figures 6 and 12).
//! * [`correlation`] — Pearson and lag-k autocorrelation, used to detect
//!   resonant pulse patterns in adjacent wavelet detail coefficients
//!   (paper §4.1, step 3).
//! * [`histogram`] — fixed-bin histograms (paper Figures 10 and 11).
//!
//! # Examples
//!
//! Classify a sample as Gaussian with a 95 % chi-squared test:
//!
//! ```
//! use didt_stats::chi_squared::{ChiSquaredGof, GofOutcome};
//!
//! # fn main() -> Result<(), didt_stats::StatsError> {
//! // A clearly uniform ramp is *not* Gaussian...
//! let ramp: Vec<f64> = (0..256).map(|i| i as f64).collect();
//! let test = ChiSquaredGof::new(8)?;
//! let outcome = test.test_normality(&ramp, 0.95)?;
//! assert_eq!(outcome.decision, GofOutcome::Rejected);
//! # Ok(())
//! # }
//! ```

pub mod chi_squared;
pub mod correlation;
pub mod descriptive;
pub mod gamma;
pub mod histogram;
pub mod lilliefors;
pub mod moments;
pub mod normal;

mod error;

pub use chi_squared::{ChiSquared, ChiSquaredGof, GofOutcome, GofReport, PreparedGof};
pub use correlation::{autocorrelation, lag_correlation, pearson};
pub use descriptive::{max, mean, min, std_dev, variance, variance_about, window_moments, Summary};
pub use error::StatsError;
pub use histogram::Histogram;
pub use lilliefors::LillieforsTest;
pub use moments::{excess_kurtosis, jarque_bera, skewness, PreparedJarqueBera};
pub use normal::Normal;
