//! didt-serve: the characterization pipeline as a network service.
//!
//! Everything below this crate runs as batch experiment binaries; this
//! crate turns the same analyses into an always-on, measured subsystem —
//! the paper's §5 online-monitor framing ("is this trace about to cause
//! a voltage emergency?") answered on demand over TCP.
//!
//! # Architecture
//!
//! * [`protocol`] — a length-prefixed wire format (reusing
//!   `didt-telemetry`'s vendored JSON layer; the offline build has no
//!   serde). One `u32` big-endian length prefix, then a UTF-8 JSON
//!   document — or, for a request that carries samples to a v3 peer, a
//!   block frame: a JSON header plus the samples as raw little-endian
//!   `f64`s. Requests are [`protocol::Request`]; responses are
//!   [`protocol::Response`].
//! * [`service`] — [`service::Service`]: the request handlers. One
//!   process-wide [`didt_bench::SweepContext`] calibration cache is
//!   shared by every connection, so PDNs, monitor designs, gain models,
//!   captured traces and uncontrolled baselines are computed once per
//!   distinct spec no matter how many clients ask.
//! * [`server`] — [`server::Server`]: a threaded TCP server. A bounded
//!   FIFO admission queue feeds a fixed worker pool; when the queue is full
//!   the connection thread answers
//!   [`protocol::ResponsePayload::Rejected`] immediately instead of
//!   queueing unboundedly. Per-request deadlines abort long simulations
//!   cooperatively (via [`didt_core::DidtError::DeadlineExceeded`]), and
//!   shutdown drains in-flight work before returning.
//! * [`client`] — [`client::Client`]: a small blocking client used by
//!   the `storm_report` harness, the examples and the protocol tests.
//!   Opt-in [`client::ClientConfig`] retry/backoff absorbs overload
//!   rejections on a deterministic schedule.
//! * [`cluster`] — the scale-out tier: [`cluster::Router`] consistent-
//!   hash shards requests on their calibration key across N workers
//!   (each an ordinary [`server::Server`]), with health probes,
//!   failover re-routing, session affinity, and cache-warming
//!   snapshots for joining workers.
//! * `front` (crate-private) — the accept loop and per-connection frame
//!   reader that [`server::Server`] and [`cluster::Router`] share: one
//!   shutdown path and one answer for every kind of undecodable frame.
//!
//! # Binaries
//!
//! * `serve` — bind a loopback (or given) address and serve forever.
//! * `cluster` — bind a router in front of a list of worker addresses.
//! * `storm_report` — the multi-node acceptance driver: router + ≥ 2
//!   workers, sharding balance/hit-ratio gates, streaming-session
//!   fidelity, a mid-storm worker kill, and cache warming.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
mod front;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{Client, ClientConfig, ClientError};
pub use cluster::{warm_worker, HashRing, Router, RouterConfig};
pub use protocol::{
    decode_request, snapshot_entry_from_json, snapshot_entry_to_json, write_frame, write_request,
    CharacterizeSpec, ClosedLoopSpec, DecodeError, DesignSpec, ErrorCode, FrameError, FrameReader,
    Request, RequestBody, Response, ResponsePayload, SessionSpec, TraceSource, MAX_FRAME_LEN,
    PROTOCOL_VERSION, SNAPSHOT_MAX_ENTRIES,
};
pub use server::{ServeConfig, Server, ShutdownReport};
pub use service::{Service, ServiceStats};
