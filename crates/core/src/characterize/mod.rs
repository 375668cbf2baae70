//! Offline wavelet-variance characterization (paper §4).
//!
//! The pipeline: sample execution windows from a benchmark's current
//! trace ([`WindowSampler`]), classify them Gaussian/non-Gaussian with a
//! 95 % chi-squared test ([`GaussianityStudy`] — Figures 6, 7, 12),
//! decompose Gaussian windows into per-scale wavelet variances, map those
//! through calibrated per-scale gains ([`ScaleGainModel`]) into a voltage
//! variance, and read emergency probabilities off a Gaussian model
//! ([`VarianceModel`], [`EmergencyEstimator`] — Figures 8, 9).

mod calibration;
mod estimator;
mod gaussian;
mod packet_model;
mod variance_model;
mod windows;

pub use calibration::ScaleGainModel;
pub use estimator::{BenchmarkEstimate, EmergencyEstimator};
pub use gaussian::{GaussianityReport, GaussianityStudy, NormalityTest};
pub use packet_model::{PacketVarianceModel, WindowModel};
pub use variance_model::{EstimateScratch, VarianceModel, WindowEstimate};
pub use windows::WindowSampler;
