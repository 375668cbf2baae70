#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Power delivery network (PDN) modeling for dI/dt studies.
//!
//! The paper (§3.1) models the processor's power supply as a **second-order
//! linear system**: series package parasitics (resistance `R`, inductance
//! `L`) feeding a die node with decoupling capacitance `C`, the processor
//! drawing current from that node. The transfer impedance from load
//! current to die-voltage droop,
//!
//! ```text
//!            R + sL
//! Z(s) = ----------------
//!        1 + sRC + s²LC
//! ```
//!
//! is a bandpass-ish curve with DC value `R` (the IR drop) and a resonant
//! peak near `ω₀ = 1/√(LC)` — the 50–200 MHz "mid-frequency" danger zone.
//! Current fluctuations near `ω₀` are amplified into voltage ripples;
//! excursions beyond ±5 % of Vdd are *voltage emergencies*.
//!
//! Provided here:
//!
//! * [`SecondOrderPdn`] — the model itself, with an analytic impedance
//!   sweep (paper Figure 5), a bilinear-transform biquad discretization
//!   for `O(1)`-per-cycle voltage simulation at the core clock, and
//!   impulse-response extraction for convolution-based monitors
//!   (paper equation 6).
//! * [`VoltageSimulator`] — streaming per-cycle voltage computation.
//! * [`calibration`] — *target impedance* calibration (paper §3.1): scale
//!   the network so a worst-case resonant stressor exactly grazes the
//!   ±5 % band; larger "% target impedance" values then describe weaker
//!   supplies that need microarchitectural help.
//! * [`stressor`] — the worst-case current microbenchmark (square wave at
//!   the resonant frequency), the kind of pattern commercial designers
//!   use to benchmark their supply networks.
//!
//! # Examples
//!
//! ```
//! use didt_pdn::SecondOrderPdn;
//!
//! # fn main() -> Result<(), didt_pdn::PdnError> {
//! // A 3 GHz processor with a 100 MHz PDN resonance.
//! let pdn = SecondOrderPdn::from_resonance(100e6, 10.0, 4e-4, 1.0, 3e9)?;
//! assert!((pdn.resonant_frequency() - 100e6).abs() < 1.0);
//!
//! // Constant current produces only the IR drop.
//! let v = pdn.simulate(&vec![40.0; 4096]);
//! let settled = v[4000];
//! assert!((settled - (1.0 - 40.0 * 4e-4)).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod calibration;
pub mod multistage;
pub mod stressor;

mod biquad;
mod error;
mod model;

pub use biquad::Biquad;
pub use calibration::{calibrate_target_impedance, CalibratedPdn};
pub use error::PdnError;
pub use model::{SecondOrderPdn, VoltageSimulator};
pub use multistage::{TwoStagePdn, TwoStageSimulator};
pub use stressor::resonant_square_wave;
