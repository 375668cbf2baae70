//! Recorded-trace container and phase clustering for dI/dt workloads.
//!
//! Every workload elsewhere in this workspace is a synthetic statistical
//! profile; this crate adds the *recorded* axis the paper's analyses were
//! built for — "a cycle by cycle current trace as measured or output by
//! an architectural simulator" (paper §2.1) — as a durable artifact:
//!
//! - [`format`](mod@format): the `.dtrc` container — a versioned, compressed,
//!   chunk-framed binary format for fixed-width per-cycle records, with a
//!   streaming [`TraceWriter`] and a zero-alloc-iteration
//!   [`TraceReader`], which also streams just the columns a replay
//!   reads ([`ReplayColumns`]). The wire format is specified normatively in
//!   `TRACE_FORMAT.md` at the repository root; this module is one
//!   implementation of that contract, and the property-test suite in
//!   `crates/integration-tests/tests/trace_format.rs` holds it to the
//!   document with an independently written reference decoder.
//! - [`phase`]: SimPoint-style phase clustering. Long traces are cut
//!   into fixed-length intervals, each summarized by a signature vector
//!   (summary statistics plus per-scale Haar wavelet variances from
//!   `didt-dsp`), and clustered with a deterministic k-means. Each
//!   cluster elects a representative interval with a population weight,
//!   so a long workload is characterized from a handful of weighted
//!   slices instead of the full trace.
//!
//! Like the rest of the workspace the crate is offline-first: no
//! external dependencies, bit-exact round-trips, and fixed seeds
//! everywhere (`cluster` output is a pure function of its inputs).
//!
//! # Example
//!
//! ```
//! use didt_trace::{Record, RecordKind, TraceMeta, TraceReader, TraceWriter};
//!
//! # fn main() -> Result<(), didt_trace::TraceError> {
//! let meta = TraceMeta::new(RecordKind::Current, "synthetic");
//! let mut w = TraceWriter::with_chunk_records(Vec::new(), &meta, 4)?;
//! for i in 0..10 {
//!     w.push(Record::current_only(20.0 + f64::from(i)))?;
//! }
//! let bytes = w.finish()?;
//!
//! let mut r = TraceReader::new(&bytes[..])?;
//! let mut chunk = Vec::new();
//! let mut total = 0;
//! while r.next_chunk(&mut chunk)? {
//!     total += chunk.len();
//! }
//! assert_eq!(total, 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
#![allow(clippy::cast_sign_loss, clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc, clippy::module_name_repetitions)]

pub mod crc;
pub mod format;
pub mod phase;
pub mod record;

pub use crc::{crc32, Crc32};
pub use format::{
    read_all, read_path, write_path, ReplayColumns, TraceError, TraceMeta, TraceReader,
    TraceWriter, READ_CHUNKS_COUNTER, REPLAY_CYCLES_COUNTER,
};
pub use phase::{cluster_records, PhaseClustering, PhaseConfig, PhaseError, Representative};
pub use record::{Record, RecordKind};
