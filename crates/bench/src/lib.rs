#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared experiment harness for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates the data behind one figure or
//! table of the paper; this library holds the shared plumbing: standard
//! experiment parameters, trace capture with caching within a process,
//! and plain-text table rendering.

pub mod experiments;
pub mod observe;
pub mod runner;
pub mod steal;
pub mod table;

pub use experiments::{
    benchmark_trace, impulse_energy_capture, standard_system, TRACE_CYCLES, TRACE_WARMUP,
};
pub use observe::Experiment;
pub use runner::{
    capture_records, default_threads, pct_millis, point_seed, workload_seed, CacheStats,
    ControllerSpec, ExperimentRunner, GainSnapshotEntry, MemoCache, PointResult, RunParams,
    StreamReplayError, Sweep, SweepContext, SweepPoint,
};
pub use steal::{CostClass, SchedReport, SplitMix64};
pub use table::TextTable;
