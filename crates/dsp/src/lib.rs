#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Signal processing for wavelet-based dI/dt analysis.
//!
//! This crate implements the signal-processing substrate of the HPCA 2004
//! paper *"Wavelet Analysis for Microprocessor Design"* (Joseph, Hu,
//! Martonosi):
//!
//! * [`wavelet`] — the one wavelet basis value, [`WaveletFamily`]:
//!   `WaveletFamily::Haar`, the basis the paper uses (Figure 1), and the
//!   Daubechies ladder db2–db8 behind the basis ablations and the
//!   `ext_wavelet_family` study. Every transform takes it by value.
//! * [`transform`] — the fast discrete wavelet transform (`O(N)` pyramid
//!   algorithm, paper §2.1) and its inverse, producing a
//!   [`transform::WaveletDecomposition`] (the coefficient matrix of
//!   Figure 2). [`dwt_boundary`] selects a [`BoundaryMode`] extension
//!   operator (zero-pad / symmetric / zeroth-order hold) for
//!   arbitrary-length signals.
//! * [`subband`] — projection of wavelet coefficients back into
//!   time-domain subband signals (paper §2.2, equations 4–5), the
//!   machinery behind per-scale voltage superposition.
//! * [`variance`] — per-scale wavelet variance via Parseval's relation
//!   (paper §4.1, step 2).
//! * [`scalogram`] — scalogram visualisation of detail coefficients
//!   (paper Figure 4).
//! * [`convolution`] — paper equation 6 as the O(N·K) reference
//!   kernels [`fir_filter`] and [`convolve_full`].
//! * [`Complex`] — the minimal complex number behind the PDN's analytic
//!   impedance curves (paper Figure 5).
//!
//! # Examples
//!
//! Decompose the paper's Figure 3 example signal and reconstruct it:
//!
//! ```
//! use didt_dsp::{dwt, idwt, WaveletFamily};
//!
//! # fn main() -> Result<(), didt_dsp::DspError> {
//! let signal = [4.0, 2.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0];
//! let decomp = dwt(&signal, WaveletFamily::Haar, 2)?;
//! let rebuilt = idwt(&decomp)?;
//! for (a, b) in signal.iter().zip(&rebuilt) {
//!     assert!((a - b).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

pub mod convolution;
pub mod packet;
pub mod scalogram;
pub mod streaming;
pub mod subband;
pub mod transform;
pub mod variance;
pub mod wavelet;

mod complex;
mod error;

pub use complex::Complex;
pub use convolution::{convolve_full, fir_filter};
pub use error::DspError;
pub use packet::{wavelet_packet, WaveletPacket};
pub use scalogram::Scalogram;
pub use streaming::{StreamCoefficient, StreamingHaar};
pub use subband::subband_decompose;
pub use transform::{
    dwt, dwt_boundary, dwt_boundary_into, dwt_into, idwt, max_dwt_levels, BoundaryMode, DwtScratch,
    WaveletDecomposition,
};
pub use variance::{scale_variance, scale_variances, ScaleVariance};
pub use wavelet::WaveletFamily;
