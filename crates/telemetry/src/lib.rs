//! Observability for the dI/dt experiment suite: tracing spans,
//! metrics, and machine-readable run manifests.
//!
//! The reproduction's experiments are long sweeps over (benchmark ×
//! impedance × budget × controller) grids. This crate records what a
//! run *did* — without perturbing what it *computed*:
//!
//! - [`span()`] / [`install_collector`] ([`mod@span`] module): a
//!   `log`-style tracing facade. Instrumented code opens named spans
//!   unconditionally; whether anything is recorded depends on the
//!   process-global [`SpanCollector`]. With none installed (the
//!   default) a span costs one relaxed atomic load, so the DWT and
//!   closed-loop hot paths stay benchmark-clean.
//! - [`MetricsRegistry`] ([`metrics`] module): counters, gauges, and
//!   base-2 log-bucketed histograms behind lock-free handles. Tracks
//!   points/sec, calibration-cache hit ratios, per-controller
//!   emergency rates, and monitor estimation error.
//! - [`RunManifest`] ([`manifest`] module): one JSON file per
//!   experiment under `results/manifests/` capturing git SHA, thread
//!   count, seeds, the sweep grid, per-point outcomes and timings,
//!   cache statistics, and golden numbers. Serial and parallel runs
//!   agree on every non-timing field
//!   ([`RunManifest::non_timing_fingerprint`]).
//! - [`Json`] ([`json`] module): the minimal JSON tree + parser +
//!   deterministic pretty-printer backing manifests and metric
//!   snapshots. Vendored in the same offline spirit as
//!   `vendor/{rand,proptest}` — the workspace has no
//!   registry access, so `serde` is not an option.
//!
//! Like the simulation crates, this one depends only on `std`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
#![allow(clippy::cast_sign_loss, clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc, clippy::module_name_repetitions)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod span;

pub use json::{Json, JsonError};
pub use manifest::{
    intern_scheduler_counter, manifest_dir, seed_from_hex, seed_to_hex, CacheClassRecord, GridAxis,
    PointRecord, RunManifest, SchedCounterRecord, SubRun, SCHEMA_VERSION,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use span::{
    install_collector, span, CollectorGuard, MemoryCollector, Span, SpanCollector, SpanRecord,
    SpanStat,
};
