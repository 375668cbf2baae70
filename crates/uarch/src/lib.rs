#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Cycle-level out-of-order processor simulation with a Wattch-style
//! power model and synthetic SPEC CPU2000 workloads.
//!
//! This crate is the microarchitectural substrate of the wavelet dI/dt
//! reproduction: it plays the role Wattch/SimpleScalar played for the
//! paper (§3.2), producing per-cycle current traces for the 26 SPEC
//! benchmarks on the Table 1 machine.
//!
//! * [`ProcessorConfig`] — the paper's Table 1 parameters
//!   ([`ProcessorConfig::table1`]).
//! * [`Processor`] — 4-wide out-of-order core: 80-entry RUU, 40-entry
//!   LSQ, combined branch predictor, two-level cache hierarchy, per-cycle
//!   [`pipeline::ControlAction`] hook for dI/dt control.
//! * [`PowerModel`] — Wattch-style per-unit activity energies; per-cycle
//!   current is power / Vdd.
//! * [`Benchmark`] / [`WorkloadGenerator`] — statistical profiles of the
//!   26 SPEC CPU2000 benchmarks (see DESIGN.md for the substitution
//!   rationale) generating deterministic instruction streams.
//! * [`capture_trace`] — run a benchmark, capture its current trace.
//!
//! # Examples
//!
//! ```
//! use didt_uarch::{capture_trace, Benchmark, ProcessorConfig};
//!
//! let trace = capture_trace(Benchmark::Mcf, &ProcessorConfig::table1(), 42, 1_000, 2_048);
//! // Memory-bound mcf alternates stalls and bursts.
//! let min = trace.samples.iter().copied().fold(f64::INFINITY, f64::min);
//! let max = trace.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
//! assert!(max > min);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod op;
pub mod pipeline;
pub mod power;
pub mod trace;
pub mod workload;

pub use config::{CacheConfig, FunctionalUnits, PredictorConfig, ProcessorConfig};
pub use op::{MicroOp, OpClass};
pub use pipeline::{BatchOutput, ControlAction, CycleOutput, Processor, SimStats};
pub use power::{CycleActivity, PowerModel};
pub use trace::{capture_trace, capture_trace_with_events, CurrentTrace, EventTrace};
pub use workload::{
    Benchmark, OpMix, ParseBenchmarkError, Suite, WorkloadGenerator, WorkloadProfile,
};
