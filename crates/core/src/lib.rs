#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Wavelet-based dI/dt characterization and control.
//!
//! This crate is a from-scratch reproduction of the methodology of
//! *"Wavelet Analysis for Microprocessor Design: Experiences with
//! Wavelet-Based dI/dt Characterization"* (Joseph, Hu, Martonosi —
//! HPCA 2004), built on three substrates in this workspace:
//! [`didt_dsp`] (Haar wavelets, DWT, subbands), [`didt_pdn`] (the
//! second-order power-delivery model), and [`didt_uarch`] (a cycle-level
//! out-of-order core with a Wattch-style power model and synthetic SPEC
//! CPU2000 workloads).
//!
//! Two families of functionality, matching the paper's two contributions:
//!
//! * **Offline characterization** ([`characterize`], paper §4): classify
//!   execution windows as Gaussian with a χ² test, decompose current
//!   variance across wavelet scales, map per-scale variance through
//!   calibrated gains into a voltage variance, and estimate each
//!   benchmark's likelihood of voltage emergencies — without ever
//!   simulating the voltage directly.
//! * **Online control** ([`monitor`] + [`control`], paper §5): a
//!   hardware-feasible voltage monitor built from a *truncated
//!   wavelet-domain convolution* (top-K Haar terms of the PDN impulse
//!   response, maintained with shift registers), compared against full
//!   convolution, an ideal analog sensor and pipeline damping in a
//!   closed control loop around the simulated processor.
//!
//! # Quickstart
//!
//! ```
//! # fn main() -> Result<(), didt_core::DidtError> {
//! use didt_core::monitor::{CycleSense, VoltageMonitor, WaveletMonitorDesign};
//! use didt_core::DidtSystem;
//!
//! // The standard setup: Table 1 processor + calibrated 100 MHz PDN.
//! let sys = DidtSystem::standard()?;
//! let pdn = sys.pdn_at(150.0)?; // a supply that *needs* dI/dt control
//!
//! // Design a 13-term wavelet voltage monitor for it.
//! let design = WaveletMonitorDesign::new(&pdn, 256)?;
//! let mut monitor = design.build(13, 1)?;
//!
//! // Track a resonant current pattern.
//! let mut sim = pdn.simulator();
//! for n in 0..1000u32 {
//!     let i = if (n / 15) % 2 == 0 { 45.0 } else { 15.0 };
//!     let v = sim.step(i);
//!     let est = monitor.observe(CycleSense { current: i, voltage: v });
//!     assert!(est > 0.8 && est < 1.2);
//! }
//! # Ok(())
//! # }
//! ```

pub mod characterize;
pub mod control;
pub mod monitor;

mod error;
mod system;

pub use error::DidtError;
pub use system::DidtSystem;
