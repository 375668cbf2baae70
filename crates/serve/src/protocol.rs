//! Wire protocol: framing plus the request/response codec.
//!
//! # Framing
//!
//! Every message is one *frame*: a 4-byte big-endian `u32` payload
//! length followed by exactly that many payload bytes. Frames longer
//! than the receiver's limit ([`MAX_FRAME_LEN`] by default) are
//! rejected before any payload is read, so a hostile length prefix
//! cannot make the server allocate unboundedly.
//!
//! A payload is one of two shapes, told apart by its first byte:
//!
//! * **JSON** — a UTF-8 JSON document. Every response and every
//!   request of protocol v2 has this shape.
//! * **Block** (requests only, protocol v3) — the byte `0x00`, a
//!   little-endian `u32` header length, that many bytes of JSON
//!   header, then the request's samples as raw little-endian `f64`s.
//!   The header is the request's JSON document with its sample array
//!   (`spec.trace` of an `Inline` `Characterize`, `spec.samples` of a
//!   `SessionPush`) replaced by `{"block": n}`, the sample count. The
//!   decoder checks `8·n` against the bytes left before it allocates,
//!   and answers a non-finite sample with the same `bad_request` the
//!   JSON path gives a `null` one. Each sample's bytes are its
//!   `to_bits`, so the samples arrive bit-exact by construction.
//!
//! No JSON document starts with `0x00`, so a server reads both shapes
//! on one connection. A sender uses blocks only toward a peer whose
//! `Ping` reports version 3 or later ([`Client`](crate::Client) asks
//! once, before its first request that carries samples; the router
//! reads each worker's version from its health probes), so a v2 peer
//! never sees a block frame. [`write_request`] is the one request
//! encoder for both shapes.
//!
//! [`FrameReader`] is a resumable decoder: it buffers partial frames
//! across short reads and read timeouts, which is what lets server
//! connection threads poll a shutdown flag without ever losing frame
//! sync mid-message.
//!
//! # Requests and responses
//!
//! A request is `{"id", "kind", "deadline_ms"?, "spec"?}`; a response
//! is `{"id", "status", ...}` with `status` one of `ok`, `rejected`,
//! `error`. All f64 fields round-trip bit-exactly through the JSON
//! layer (shortest-roundtrip rendering), which the protocol tests'
//! ClosedLoop ≡ batch-runner check relies on.
//!
//! # Versions
//!
//! * v1 — `ping`, `stats`, `characterize`, `closed_loop`, `design`.
//! * v2 — the streaming session kinds (`session_*`) and the
//!   cache-warming snapshot pair (`snapshot_export` /
//!   `snapshot_import`).
//! * v3 — block frames for request samples.
//!
//! Every version's requests decode unchanged on a later server.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::{Arc, OnceLock};

use didt_bench::{ControllerSpec, GainSnapshotEntry};
use didt_core::characterize::ScaleGainModel;
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_telemetry::{seed_from_hex, seed_to_hex, Counter, Json, JsonError, MetricsRegistry};

/// Protocol version reported by `Ping` (see the module docs for what
/// each version adds).
pub const PROTOCOL_VERSION: u64 = 3;

/// The first protocol version whose servers read block frames.
pub(crate) const BLOCK_FRAME_VERSION: u64 = 3;

/// Default upper bound on a frame payload (16 MiB). That holds about
/// 2 M samples in a block frame, or under a million rendered as JSON.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// First payload byte of a block frame.
const BLOCK_TAG: u8 = 0x00;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Peer closed mid-frame.
    Truncated {
        /// Bytes the frame promised (prefix + payload).
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// Length prefix exceeds the receiver's limit.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// Receiver's limit.
        max: usize,
    },
    /// The reader's abort predicate fired while waiting (shutdown).
    Aborted,
    /// Payload was not valid JSON.
    Json(JsonError),
    /// Transport error.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds limit of {max}")
            }
            FrameError::Aborted => write!(f, "read aborted"),
            FrameError::Json(e) => write!(f, "frame payload is not valid JSON: {e}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: length prefix plus rendered JSON.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, json: &Json) -> io::Result<()> {
    let payload = json.render();
    let len = frame_len(payload.len())?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

fn frame_len(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))
}

/// Write one request frame from a borrowed body.
///
/// With `blocks` set, a body that carries samples goes as a block
/// frame, assembled in `scratch` (reused across calls) and written at
/// once. Every other request, and every request without `blocks`, goes
/// as the JSON document of [`Request::to_json`].
///
/// # Errors
///
/// Propagates transport errors; a frame over 4 GiB is `InvalidInput`.
pub fn write_request(
    w: &mut impl Write,
    scratch: &mut Vec<u8>,
    id: u64,
    deadline_ms: Option<u64>,
    body: &RequestBody,
    blocks: bool,
) -> io::Result<()> {
    let samples = match body.samples() {
        Some(samples) if blocks => samples,
        _ => return write_frame(w, &request_json(id, deadline_ms, body, false)),
    };
    let header = request_json(id, deadline_ms, body, true).render();
    let header_len = frame_len(header.len())?;
    let payload_len = 1 + 4 + header.len() + 8 * samples.len();
    scratch.clear();
    scratch.reserve(4 + payload_len);
    scratch.extend_from_slice(&frame_len(payload_len)?.to_be_bytes());
    scratch.push(BLOCK_TAG);
    scratch.extend_from_slice(&header_len.to_le_bytes());
    scratch.extend_from_slice(header.as_bytes());
    for x in samples {
        scratch.extend_from_slice(&x.to_le_bytes());
    }
    w.write_all(scratch)?;
    w.flush()
}

fn parse_json_payload(payload: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(payload).map_err(|e| JsonError {
        message: format!("payload is not UTF-8: {e}"),
        offset: 0,
    })?;
    Json::parse(text)
}

/// A request payload that did not decode: the structured `bad_request`
/// a server answers it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The request's id, when its header parsed far enough (else 0).
    pub id: u64,
    /// What was wrong.
    pub message: String,
}

/// Decode one request payload, JSON or block frame (module docs).
///
/// # Errors
///
/// A [`DecodeError`] for a malformed payload or request shape.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let bad_payload = |e: JsonError| DecodeError {
        id: 0,
        message: format!("bad payload: {e}"),
    };
    let (header, mut block) = match payload.split_first() {
        Some((&BLOCK_TAG, rest)) => {
            let Some((len, rest)) = rest.split_first_chunk::<4>() else {
                return Err(DecodeError {
                    id: 0,
                    message: "block frame ends inside its header length".to_string(),
                });
            };
            let len = u32::from_le_bytes(*len) as usize;
            if len > rest.len() {
                return Err(DecodeError {
                    id: 0,
                    message: format!(
                        "block frame header of {len} bytes runs past the {} bytes left",
                        rest.len()
                    ),
                });
            }
            let (header, block) = rest.split_at(len);
            (
                parse_json_payload(header).map_err(bad_payload)?,
                Some(block),
            )
        }
        _ => (parse_json_payload(payload).map_err(bad_payload)?, None),
    };
    let decoded = Request::decode(&header, &mut block).and_then(|request| match block {
        Some(_) => Err("block frame header refers to no block".to_string()),
        None => Ok(request),
    });
    decoded.map_err(|message| DecodeError {
        id: header.get("id").and_then(Json::as_u64).unwrap_or(0),
        message,
    })
}

/// Most bytes one `read` call of a [`FrameReader`] asks for once the
/// frame's length is known (64 KiB).
const READ_STEP: usize = 64 * 1024;

/// Bytes a [`FrameReader`] asks for while a frame's length prefix is
/// not yet in: enough for a small frame in one call, while a connection
/// that only ever sends small frames keeps a small buffer.
const FIRST_READ: usize = 4 * 1024;

/// A resumable frame decoder over any [`Read`].
///
/// Partial frames survive short reads and read timeouts: bytes received
/// so far are buffered, and the next [`FrameReader::read_frame`] call
/// picks up exactly where the stream left off. Timeouts
/// (`WouldBlock`/`TimedOut`) are not errors — they poll the caller's
/// abort predicate and keep waiting.
///
/// Each `read` call lands straight in the stream buffer. Once a frame's
/// length prefix is in, a call asks for the bytes the frame still needs,
/// at most 64 KiB (`READ_STEP`) of them, so a large frame arrives in few
/// calls while the buffer grows only as bytes arrive: a prefix declaring
/// more than was sent costs at most one step of memory, never the
/// declared length. Until the prefix is in, a call asks for 4 KiB
/// (`FIRST_READ`).
///
/// Both the stream buffer and the payload scratch persist across
/// frames on a connection: after the first request of a given size,
/// later requests decode with **zero** new allocations (the
/// `serve.frame.buf_reuse` counter tracks reused decodes; the
/// `service_protocol` suite asserts capacities stop growing).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Stream bytes in `buf[..filled]`; the rest of `buf` is zeroed or
    /// stale space that later reads overwrite, so it is zero-filled only
    /// once, when the buffer first grows to that length.
    buf: Vec<u8>,
    filled: usize,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            filled: 0,
            payload: Vec::new(),
        }
    }

    /// Capacity of the payload scratch buffer (allocation-growth
    /// assertions in tests).
    #[must_use]
    pub fn payload_capacity(&self) -> usize {
        self.payload.capacity()
    }

    /// Capacity of the stream buffer (allocation-growth assertions in
    /// tests).
    #[must_use]
    pub fn buf_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Read one complete frame and parse its payload as JSON.
    ///
    /// `should_abort` is consulted whenever the underlying read times
    /// out; returning `true` yields [`FrameError::Aborted`].
    ///
    /// # Errors
    ///
    /// All [`FrameError`] variants; see their docs.
    pub fn read_frame(
        &mut self,
        max_len: usize,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Json, FrameError> {
        parse_json_payload(self.read_payload(max_len, should_abort)?).map_err(FrameError::Json)
    }

    /// Read one complete frame and return its raw payload, which stays
    /// borrowed from the reader's scratch until the next read.
    ///
    /// # Errors
    ///
    /// Every [`FrameError`] variant but `Json` (the payload is not
    /// parsed).
    pub fn read_payload(
        &mut self,
        max_len: usize,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<&[u8], FrameError> {
        static BUF_REUSE: OnceLock<Arc<Counter>> = OnceLock::new();
        loop {
            // The frame's full length (prefix + payload) once its prefix
            // is in.
            let mut frame_end = None;
            if self.filled >= 4 {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > max_len {
                    return Err(FrameError::TooLarge { len, max: max_len });
                }
                let end = 4 + len;
                if self.filled >= end {
                    // Copy the payload into the reusable scratch (its
                    // capacity survives across frames — no per-request
                    // allocation once warmed) and shift the rest of the
                    // stream down in place.
                    let reused = self.payload.capacity() >= len;
                    self.payload.clear();
                    self.payload.extend_from_slice(&self.buf[4..end]);
                    self.buf.copy_within(end..self.filled, 0);
                    self.filled -= end;
                    if reused {
                        BUF_REUSE
                            .get_or_init(|| {
                                MetricsRegistry::global().counter("serve.frame.buf_reuse")
                            })
                            .incr();
                    }
                    return Ok(&self.payload);
                }
                frame_end = Some(end);
            }
            let step = frame_end.map_or(FIRST_READ, |end| (end - self.filled).min(READ_STEP));
            if self.buf.len() == self.filled {
                self.buf.resize(self.filled + step, 0);
            }
            let space = self.buf.len().min(self.filled + step);
            match self.inner.read(&mut self.buf[self.filled..space]) {
                Ok(0) => {
                    return if self.filled == 0 {
                        Err(FrameError::Closed)
                    } else {
                        Err(FrameError::Truncated {
                            expected: frame_end.unwrap_or(4),
                            got: self.filled,
                        })
                    };
                }
                Ok(n) => self.filled += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if should_abort() {
                        return Err(FrameError::Aborted);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Where a `Characterize` request's current trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// The request carries the per-cycle current samples inline.
    Inline(Vec<f64>),
    /// The server synthesizes the trace from a named benchmark model
    /// (cached per distinct spec).
    Synth {
        /// Benchmark name (`gzip`, `swim`, ...).
        benchmark: String,
        /// Workload seed.
        seed: u64,
        /// Warmup cycles discarded before capture.
        warmup: usize,
        /// Cycles captured.
        cycles: usize,
    },
    /// The server reads a recorded `.dtrc` trace file (TRACE_FORMAT.md)
    /// from its local filesystem; pre-roll records are skipped per the
    /// file's header. Requests without this field keep the synthetic
    /// paths, so pre-trace clients are unaffected.
    Recorded {
        /// Server-local path to the `.dtrc` file.
        path: String,
    },
}

/// Spec for the `Characterize` analysis (paper §4: per-scale variance,
/// Gaussianity, Gaussian emergency-fraction estimate).
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeSpec {
    /// Trace to analyze.
    pub trace: TraceSource,
    /// Supply impedance, percent of target.
    pub pdn_pct: f64,
    /// Analysis window (power of two, ≥ 8).
    pub window: usize,
    /// Emergency voltage threshold (V).
    pub threshold: f64,
    /// χ² significance level for the Gaussianity study.
    pub significance: f64,
    /// Random windows sampled for the Gaussianity study.
    pub gauss_windows: usize,
    /// Wavelet basis family for the variance analysis; every family
    /// runs the one filter-generic transform. Requests that omit the
    /// field get `Haar`, the default and the paper's basis, so
    /// pre-family clients are unaffected.
    pub family: WaveletFamily,
    /// Boundary extension mode of the analysis transform; defaults to
    /// `Periodic`. A periodic Haar trace of any length is zero-padded to
    /// a multiple of the window; other periodic families need a length
    /// divisible by `2^levels`, and the expansive modes take any length.
    pub boundary: BoundaryMode,
}

impl Default for CharacterizeSpec {
    fn default() -> Self {
        CharacterizeSpec {
            trace: TraceSource::Synth {
                benchmark: "gzip".to_string(),
                seed: 0xD1D7,
                warmup: 1_000,
                cycles: 8_192,
            },
            pdn_pct: 100.0,
            window: 256,
            threshold: 0.95,
            significance: 0.95,
            gauss_windows: 200,
            family: WaveletFamily::Haar,
            boundary: BoundaryMode::Periodic,
        }
    }
}

/// Spec for the `ClosedLoop` analysis (paper §5.3 / Table 2): one
/// sweep point run through the shared batch-runner context.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Benchmark name.
    pub benchmark: String,
    /// Supply impedance, percent of target.
    pub pdn_pct: f64,
    /// Wavelet monitor term budget.
    pub monitor_terms: usize,
    /// Control scheme.
    pub controller: ControllerSpec,
    /// Instructions committed in the measured region.
    pub instructions: u64,
    /// Warmup cycles before measurement.
    pub warmup_cycles: u64,
    /// Optional server-local path to a recorded `.dtrc` trace
    /// (TRACE_FORMAT.md). When present, both legs replay the recorded
    /// stream through the point's PDN and controller instead of
    /// simulating the named benchmark live; when absent (every
    /// pre-trace client), the live synthetic path runs unchanged.
    pub replay: Option<String>,
}

/// Spec for the `Design` analysis (paper §5.2): monitor coefficient
/// selection and truncation error for a PDN spec.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    /// Supply impedance, percent of target.
    pub pdn_pct: f64,
    /// Monitor window (power of two, ≥ 8).
    pub window: usize,
    /// Terms to keep.
    pub terms: usize,
    /// Current deviation (A) for the truncation error bound.
    pub i_dev: f64,
}

/// Spec for a streaming characterization session: a `Characterize`
/// analysis whose trace arrives incrementally via `SessionPush` chunks
/// instead of in one frame. Identical fields to [`CharacterizeSpec`]
/// minus the trace, with the same rules: a verdict is the one-shot
/// answer over every sample pushed so far.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Supply impedance, percent of target.
    pub pdn_pct: f64,
    /// Analysis window (power of two, ≥ 8).
    pub window: usize,
    /// Emergency voltage threshold (V).
    pub threshold: f64,
    /// χ² significance level for the Gaussianity study.
    pub significance: f64,
    /// Random windows sampled for the Gaussianity study.
    pub gauss_windows: usize,
    /// Wavelet basis family, as in [`CharacterizeSpec::family`].
    pub family: WaveletFamily,
    /// Boundary mode, as in [`CharacterizeSpec::boundary`]. A length
    /// rule the samples break is the verdict's `bad_request`; the
    /// session stays open and keeps taking pushes.
    pub boundary: BoundaryMode,
}

impl Default for SessionSpec {
    fn default() -> Self {
        let d = CharacterizeSpec::default();
        SessionSpec {
            pdn_pct: d.pdn_pct,
            window: d.window,
            threshold: d.threshold,
            significance: d.significance,
            gauss_windows: d.gauss_windows,
            family: d.family,
            boundary: d.boundary,
        }
    }
}

/// The analyses a request can ask for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness / version check.
    Ping,
    /// Server statistics (counters, cache activity).
    Stats,
    /// Offline characterization of a trace.
    Characterize(CharacterizeSpec),
    /// Closed-loop control simulation of one sweep point.
    ClosedLoop(ClosedLoopSpec),
    /// Monitor design / truncation report.
    Design(DesignSpec),
    /// Open a streaming characterization session.
    SessionOpen(SessionSpec),
    /// Append current samples to an open session.
    SessionPush {
        /// Session id from the `SessionOpen` response.
        session: u64,
        /// Per-cycle current samples, appended in order.
        samples: Vec<f64>,
    },
    /// Compute the incremental verdict over all samples pushed so far.
    SessionVerdict {
        /// Session id from the `SessionOpen` response.
        session: u64,
    },
    /// Close a session and discard its state.
    SessionClose {
        /// Session id from the `SessionOpen` response.
        session: u64,
    },
    /// Export completed gain calibrations for warming a joining peer.
    SnapshotExport {
        /// Upper bound on entries returned.
        max_entries: usize,
    },
    /// Install peer-exported gain calibrations into the local cache.
    SnapshotImport {
        /// Entries from a peer's `SnapshotExport` response.
        entries: Vec<GainSnapshotEntry>,
    },
}

impl RequestBody {
    /// Stable wire name; also the metrics label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Stats => "stats",
            RequestBody::Characterize(_) => "characterize",
            RequestBody::ClosedLoop(_) => "closed_loop",
            RequestBody::Design(_) => "design",
            RequestBody::SessionOpen(_) => "session_open",
            RequestBody::SessionPush { .. } => "session_push",
            RequestBody::SessionVerdict { .. } => "session_verdict",
            RequestBody::SessionClose { .. } => "session_close",
            RequestBody::SnapshotExport { .. } => "snapshot_export",
            RequestBody::SnapshotImport { .. } => "snapshot_import",
        }
    }

    /// The per-cycle samples this request carries: an `Inline` trace
    /// or a `SessionPush` chunk. These are what a block frame holds.
    #[must_use]
    pub fn samples(&self) -> Option<&[f64]> {
        match self {
            RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(samples),
                ..
            })
            | RequestBody::SessionPush { samples, .. } => Some(samples),
            _ => None,
        }
    }

    /// Session id this request is bound to, for session-affine routing:
    /// a follow-up must land on the worker that owns the session.
    #[must_use]
    pub fn session_id(&self) -> Option<u64> {
        match *self {
            RequestBody::SessionPush { session, .. }
            | RequestBody::SessionVerdict { session }
            | RequestBody::SessionClose { session } => Some(session),
            _ => None,
        }
    }
}

/// FNV-1a over the calibration key parts — the cluster shard key and
/// the service's only calibration identity. Every request with the same
/// (family, boundary, window, PDN bits) hashes to the same shard, so one
/// shard's memo caches stay hot and disjoint.
fn calibration_shard_key(family: &str, boundary: &str, window: usize, pdn_bits: u64) -> u64 {
    let mut h = shard_fnv(FNV_SHARD_OFFSET, family.as_bytes());
    h = shard_fnv(h, &[0]);
    h = shard_fnv(h, boundary.as_bytes());
    h = shard_fnv(h, &[0]);
    h = shard_fnv(h, &(window as u64).to_le_bytes());
    shard_fnv(h, &pdn_bits.to_le_bytes())
}

const FNV_SHARD_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn shard_fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Optional wall-clock budget; the server aborts work past it.
    pub deadline_ms: Option<u64>,
    /// The analysis.
    pub body: RequestBody,
}

fn controller_to_json(c: &ControllerSpec) -> Json {
    let mut pairs = vec![("scheme", Json::str(c.tag()))];
    match *c {
        ControllerSpec::None => {}
        ControllerSpec::AnalogThreshold {
            low,
            high,
            hysteresis,
        }
        | ControllerSpec::FullConvolution {
            low,
            high,
            hysteresis,
        } => {
            pairs.push(("low", Json::num(low)));
            pairs.push(("high", Json::num(high)));
            pairs.push(("hysteresis", Json::num(hysteresis)));
        }
        ControllerSpec::PipelineDamping { window, max_delta } => {
            pairs.push(("window", Json::num(window as f64)));
            pairs.push(("max_delta", Json::num(max_delta)));
        }
        ControllerSpec::WaveletThreshold {
            low,
            high,
            hysteresis,
            delay,
        }
        | ControllerSpec::BiquadRecursive {
            low,
            high,
            hysteresis,
            delay,
        } => {
            pairs.push(("low", Json::num(low)));
            pairs.push(("high", Json::num(high)));
            pairs.push(("hysteresis", Json::num(hysteresis)));
            pairs.push(("delay", Json::num(delay as f64)));
        }
        ControllerSpec::WaveletFamilyThreshold {
            low,
            high,
            hysteresis,
            delay,
            family,
            boundary,
        } => {
            pairs.push(("low", Json::num(low)));
            pairs.push(("high", Json::num(high)));
            pairs.push(("hysteresis", Json::num(hysteresis)));
            pairs.push(("delay", Json::num(delay as f64)));
            pairs.push(("family", Json::str(family.name())));
            pairs.push(("boundary", Json::str(boundary.name())));
        }
    }
    Json::obj(pairs)
}

fn req_f64(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn req_usize(json: &Json, key: &str) -> Result<usize, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

/// Default cap on entries in one `SnapshotExport` response frame.
pub const SNAPSHOT_MAX_ENTRIES: usize = 4_096;

fn req_session(json: &Json) -> Result<u64, String> {
    json.get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing or non-integer field `session`".to_string())
}

/// Optional `family` field: absent means Haar (pre-family wire compat).
fn req_family(json: &Json) -> Result<WaveletFamily, String> {
    match json.get("family") {
        None | Some(Json::Null) => Ok(WaveletFamily::Haar),
        Some(v) => {
            let s = v.as_str().ok_or("field `family` must be a string")?;
            WaveletFamily::parse(s).ok_or_else(|| format!("unknown wavelet family `{s}`"))
        }
    }
}

/// Optional `boundary` field: absent means periodic.
fn req_boundary(json: &Json) -> Result<BoundaryMode, String> {
    match json.get("boundary") {
        None | Some(Json::Null) => Ok(BoundaryMode::Periodic),
        Some(v) => {
            let s = v.as_str().ok_or("field `boundary` must be a string")?;
            BoundaryMode::parse(s).ok_or_else(|| format!("unknown boundary mode `{s}`"))
        }
    }
}

fn controller_from_json(json: &Json) -> Result<ControllerSpec, String> {
    let scheme = json
        .get("scheme")
        .and_then(Json::as_str)
        .ok_or("controller is missing string field `scheme`")?;
    let thresholds = || -> Result<(f64, f64, f64), String> {
        Ok((
            req_f64(json, "low")?,
            req_f64(json, "high")?,
            req_f64(json, "hysteresis")?,
        ))
    };
    match scheme {
        "none" => Ok(ControllerSpec::None),
        "analog-sensor" => {
            let (low, high, hysteresis) = thresholds()?;
            Ok(ControllerSpec::AnalogThreshold {
                low,
                high,
                hysteresis,
            })
        }
        "full-convolution" => {
            let (low, high, hysteresis) = thresholds()?;
            Ok(ControllerSpec::FullConvolution {
                low,
                high,
                hysteresis,
            })
        }
        "pipeline-damping" => Ok(ControllerSpec::PipelineDamping {
            window: req_usize(json, "window")?,
            max_delta: req_f64(json, "max_delta")?,
        }),
        "wavelet-convolution" => {
            let (low, high, hysteresis) = thresholds()?;
            Ok(ControllerSpec::WaveletThreshold {
                low,
                high,
                hysteresis,
                delay: req_usize(json, "delay")?,
            })
        }
        "biquad-recursive" => {
            let (low, high, hysteresis) = thresholds()?;
            Ok(ControllerSpec::BiquadRecursive {
                low,
                high,
                hysteresis,
                delay: req_usize(json, "delay")?,
            })
        }
        "wavelet-family" => {
            let (low, high, hysteresis) = thresholds()?;
            Ok(ControllerSpec::WaveletFamilyThreshold {
                low,
                high,
                hysteresis,
                delay: req_usize(json, "delay")?,
                family: req_family(json)?,
                boundary: req_boundary(json)?,
            })
        }
        other => Err(format!("unknown controller scheme `{other}`")),
    }
}

/// Encode one cache-warming snapshot entry to wire JSON. The gain grid
/// and PDN constants round-trip bit-exactly (shortest-roundtrip f64
/// rendering), so a warmed cache serves the same bits a local
/// calibration would have produced.
#[must_use]
pub fn snapshot_entry_to_json(entry: &GainSnapshotEntry) -> Json {
    let gains = entry
        .model
        .gain_rows()
        .iter()
        .map(|row| Json::Arr(row.iter().map(|&g| Json::num(g)).collect()))
        .collect();
    Json::obj(vec![
        ("pct_millis", Json::num(entry.pct_millis as f64)),
        ("window", Json::num(entry.window as f64)),
        ("seed_hex", Json::str(seed_to_hex(entry.seed))),
        ("family", Json::str(entry.family.name())),
        ("resistance", Json::num(entry.model.resistance())),
        ("vdd", Json::num(entry.model.vdd())),
        ("gains", Json::Arr(gains)),
    ])
}

/// Decode one cache-warming snapshot entry from wire JSON.
///
/// # Errors
///
/// A human-readable message naming the first offending field.
pub fn snapshot_entry_from_json(json: &Json) -> Result<GainSnapshotEntry, String> {
    let pct_millis = json
        .get("pct_millis")
        .and_then(Json::as_u64)
        .ok_or("snapshot entry is missing integer field `pct_millis`")?;
    let window = req_usize(json, "window")?;
    let seed = seed_from_hex(
        json.get("seed_hex")
            .and_then(Json::as_str)
            .ok_or("snapshot entry is missing string field `seed_hex`")?,
    )?;
    let family = json
        .get("family")
        .and_then(Json::as_str)
        .and_then(WaveletFamily::parse)
        .ok_or("snapshot entry has a missing or unknown `family`")?;
    let resistance = req_f64(json, "resistance")?;
    let vdd = req_f64(json, "vdd")?;
    let rows = json
        .get("gains")
        .and_then(Json::as_arr)
        .ok_or("snapshot entry is missing array field `gains`")?;
    let mut gains = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row
            .as_arr()
            .ok_or("`gains` rows must be arrays of 5 numbers")?;
        if row.len() != 5 {
            return Err("`gains` rows must be arrays of 5 numbers".to_string());
        }
        let mut out = [0.0f64; 5];
        for (slot, v) in out.iter_mut().zip(row) {
            *slot = v.as_f64().ok_or("`gains` rows must hold only numbers")?;
        }
        gains.push(out);
    }
    let model = ScaleGainModel::from_parts(window, gains, resistance, vdd, family)
        .map_err(|e| format!("snapshot entry is not a valid gain model: {e}"))?;
    Ok(GainSnapshotEntry {
        pct_millis,
        window,
        seed,
        family,
        model,
    })
}

/// A request's JSON document. With `block`, its samples (if any) are
/// replaced by `{"block": n}`: the header of a block frame.
fn request_json(id: u64, deadline_ms: Option<u64>, body: &RequestBody, block: bool) -> Json {
    let mut pairs = vec![
        ("id", Json::num(id as f64)),
        ("kind", Json::str(body.kind())),
    ];
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms", Json::num(ms as f64)));
    }
    let spec = match body {
        RequestBody::Ping | RequestBody::Stats => None,
        RequestBody::Characterize(s) => {
            let mut sp = Vec::new();
            match &s.trace {
                TraceSource::Inline(samples) => sp.push(("trace", samples_json(samples, block))),
                TraceSource::Synth {
                    benchmark,
                    seed,
                    warmup,
                    cycles,
                } => {
                    sp.push((
                        "synth",
                        Json::obj(vec![
                            ("benchmark", Json::str(benchmark.as_str())),
                            ("seed_hex", Json::str(seed_to_hex(*seed))),
                            ("warmup", Json::num(*warmup as f64)),
                            ("cycles", Json::num(*cycles as f64)),
                        ]),
                    ));
                }
                TraceSource::Recorded { path } => {
                    sp.push(("recorded", Json::str(path.as_str())));
                }
            }
            sp.push(("pdn_pct", Json::num(s.pdn_pct)));
            sp.push(("window", Json::num(s.window as f64)));
            sp.push(("threshold", Json::num(s.threshold)));
            sp.push(("significance", Json::num(s.significance)));
            sp.push(("gauss_windows", Json::num(s.gauss_windows as f64)));
            sp.push(("family", Json::str(s.family.name())));
            sp.push(("boundary", Json::str(s.boundary.name())));
            Some(Json::obj(sp))
        }
        RequestBody::ClosedLoop(s) => {
            let mut sp = vec![
                ("benchmark", Json::str(s.benchmark.as_str())),
                ("pdn_pct", Json::num(s.pdn_pct)),
                ("monitor_terms", Json::num(s.monitor_terms as f64)),
                ("controller", controller_to_json(&s.controller)),
                ("instructions", Json::num(s.instructions as f64)),
                ("warmup_cycles", Json::num(s.warmup_cycles as f64)),
            ];
            if let Some(path) = &s.replay {
                sp.push(("replay", Json::str(path.as_str())));
            }
            Some(Json::obj(sp))
        }
        RequestBody::Design(s) => Some(Json::obj(vec![
            ("pdn_pct", Json::num(s.pdn_pct)),
            ("window", Json::num(s.window as f64)),
            ("terms", Json::num(s.terms as f64)),
            ("i_dev", Json::num(s.i_dev)),
        ])),
        RequestBody::SessionOpen(s) => Some(Json::obj(vec![
            ("pdn_pct", Json::num(s.pdn_pct)),
            ("window", Json::num(s.window as f64)),
            ("threshold", Json::num(s.threshold)),
            ("significance", Json::num(s.significance)),
            ("gauss_windows", Json::num(s.gauss_windows as f64)),
            ("family", Json::str(s.family.name())),
            ("boundary", Json::str(s.boundary.name())),
        ])),
        RequestBody::SessionPush { session, samples } => Some(Json::obj(vec![
            ("session", Json::num(*session as f64)),
            ("samples", samples_json(samples, block)),
        ])),
        RequestBody::SessionVerdict { session } | RequestBody::SessionClose { session } => {
            Some(Json::obj(vec![("session", Json::num(*session as f64))]))
        }
        RequestBody::SnapshotExport { max_entries } => Some(Json::obj(vec![(
            "max_entries",
            Json::num(*max_entries as f64),
        )])),
        RequestBody::SnapshotImport { entries } => Some(Json::obj(vec![(
            "entries",
            Json::Arr(entries.iter().map(snapshot_entry_to_json).collect()),
        )])),
    };
    if let Some(spec) = spec {
        pairs.push(("spec", spec));
    }
    Json::obj(pairs)
}

/// Decode the sample field `field`: a JSON array of numbers, or — in
/// a block frame — the `{"block": n}` reference that takes the frame's
/// block. `not_array` is the error for any other value. A non-finite
/// block sample gets the error a JSON `null` sample gets.
fn samples_from(
    v: &Json,
    field: &str,
    not_array: &str,
    block: &mut Option<&[u8]>,
) -> Result<Vec<f64>, String> {
    let not_numbers = || format!("field `{field}` must hold only numbers");
    if let (Some(n), Some(bytes)) = (v.get("block"), *block) {
        let n = n
            .as_u64()
            .ok_or_else(|| format!("field `{field}.block` must be a sample count"))?;
        if n.checked_mul(8) != Some(bytes.len() as u64) {
            return Err(format!(
                "block of {} bytes does not hold the {n} samples `{field}` names",
                bytes.len()
            ));
        }
        *block = None;
        let samples: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        return if samples.iter().all(|x| x.is_finite()) {
            Ok(samples)
        } else {
            Err(not_numbers())
        };
    }
    let arr = v.as_arr().ok_or(not_array)?;
    let mut samples = Vec::with_capacity(arr.len());
    for v in arr {
        samples.push(v.as_f64().ok_or_else(not_numbers)?);
    }
    Ok(samples)
}

/// A sample array, or the `{"block": n}` reference that stands for it
/// in a block frame's header.
fn samples_json(samples: &[f64], block: bool) -> Json {
    if block {
        Json::obj(vec![("block", Json::num(samples.len() as f64))])
    } else {
        Json::Arr(samples.iter().map(|&x| Json::num(x)).collect())
    }
}

impl Request {
    /// The consistent-hash shard key this request routes on, when it
    /// has one. `Characterize` and `SessionOpen` shard on their
    /// calibration key (family, boundary, window, PDN bits); `Design`
    /// always calibrates in Haar/periodic;
    /// `ClosedLoop` shards on (benchmark, PDN bits) so a benchmark's
    /// baseline cache stays on one worker. `None` means the request is
    /// not shardable: `Ping`/`Stats` are answered by whoever receives
    /// them, session follow-ups are session-affine
    /// ([`RequestBody::session_id`]), and snapshot administration is
    /// addressed to a specific node.
    #[must_use]
    pub fn shard_key(&self) -> Option<u64> {
        match &self.body {
            RequestBody::Characterize(s) => Some(calibration_shard_key(
                s.family.name(),
                s.boundary.name(),
                s.window,
                s.pdn_pct.to_bits(),
            )),
            RequestBody::SessionOpen(s) => Some(calibration_shard_key(
                s.family.name(),
                s.boundary.name(),
                s.window,
                s.pdn_pct.to_bits(),
            )),
            RequestBody::Design(s) => Some(calibration_shard_key(
                WaveletFamily::Haar.name(),
                BoundaryMode::Periodic.name(),
                s.window,
                s.pdn_pct.to_bits(),
            )),
            RequestBody::ClosedLoop(s) => Some(calibration_shard_key(
                "closed_loop",
                s.benchmark.as_str(),
                s.monitor_terms,
                s.pdn_pct.to_bits(),
            )),
            RequestBody::Ping
            | RequestBody::Stats
            | RequestBody::SessionPush { .. }
            | RequestBody::SessionVerdict { .. }
            | RequestBody::SessionClose { .. }
            | RequestBody::SnapshotExport { .. }
            | RequestBody::SnapshotImport { .. } => None,
        }
    }

    /// Encode to the wire JSON shape (the v2 document).
    #[must_use]
    pub fn to_json(&self) -> Json {
        request_json(self.id, self.deadline_ms, &self.body, false)
    }

    /// Decode from the wire JSON shape (the v2 document).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first offending field.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        Request::decode(json, &mut None)
    }

    /// Decode a JSON document, or a block frame's header when `block`
    /// holds the frame's sample bytes. The field that refers to the
    /// block takes it, leaving `None`.
    fn decode(json: &Json, block: &mut Option<&[u8]>) -> Result<Request, String> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("request is missing integer field `id`")?;
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("request is missing string field `kind`")?;
        let deadline_ms = match json.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("field `deadline_ms` must be a non-negative integer")?,
            ),
        };
        let spec = json.get("spec");
        let need_spec =
            || -> Result<&Json, String> { spec.ok_or_else(|| format!("`{kind}` needs a `spec`")) };
        let body = match kind {
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "characterize" => {
                let s = need_spec()?;
                let d = CharacterizeSpec::default();
                let trace = if let Some(v) = s.get("trace") {
                    TraceSource::Inline(samples_from(
                        v,
                        "trace",
                        "field `trace` must be an array",
                        block,
                    )?)
                } else if let Some(sy) = s.get("synth") {
                    let benchmark = sy
                        .get("benchmark")
                        .and_then(Json::as_str)
                        .ok_or("`synth` is missing string field `benchmark`")?
                        .to_string();
                    let seed = match sy.get("seed_hex").and_then(Json::as_str) {
                        Some(hex) => seed_from_hex(hex)?,
                        None => 0xD1D7,
                    };
                    TraceSource::Synth {
                        benchmark,
                        seed,
                        warmup: req_usize(sy, "warmup").unwrap_or(1_000),
                        cycles: req_usize(sy, "cycles").unwrap_or(8_192),
                    }
                } else if let Some(r) = s.get("recorded") {
                    let path = r
                        .as_str()
                        .ok_or("field `recorded` must be a string path")?
                        .to_string();
                    TraceSource::Recorded { path }
                } else {
                    return Err("`characterize` needs `trace`, `synth` or `recorded`".to_string());
                };
                RequestBody::Characterize(CharacterizeSpec {
                    trace,
                    pdn_pct: req_f64(s, "pdn_pct").unwrap_or(d.pdn_pct),
                    window: req_usize(s, "window").unwrap_or(d.window),
                    threshold: req_f64(s, "threshold").unwrap_or(d.threshold),
                    significance: req_f64(s, "significance").unwrap_or(d.significance),
                    gauss_windows: req_usize(s, "gauss_windows").unwrap_or(d.gauss_windows),
                    family: req_family(s)?,
                    boundary: req_boundary(s)?,
                })
            }
            "closed_loop" => {
                let s = need_spec()?;
                RequestBody::ClosedLoop(ClosedLoopSpec {
                    benchmark: s
                        .get("benchmark")
                        .and_then(Json::as_str)
                        .ok_or("`closed_loop` is missing string field `benchmark`")?
                        .to_string(),
                    pdn_pct: req_f64(s, "pdn_pct")?,
                    monitor_terms: req_usize(s, "monitor_terms").unwrap_or(13),
                    controller: controller_from_json(
                        s.get("controller")
                            .ok_or("`closed_loop` needs a `controller`")?,
                    )?,
                    instructions: s
                        .get("instructions")
                        .and_then(Json::as_u64)
                        .ok_or("`closed_loop` is missing integer field `instructions`")?,
                    warmup_cycles: s
                        .get("warmup_cycles")
                        .and_then(Json::as_u64)
                        .ok_or("`closed_loop` is missing integer field `warmup_cycles`")?,
                    replay: match s.get("replay") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(
                            v.as_str()
                                .ok_or("field `replay` must be a string path")?
                                .to_string(),
                        ),
                    },
                })
            }
            "design" => {
                let s = need_spec()?;
                RequestBody::Design(DesignSpec {
                    pdn_pct: req_f64(s, "pdn_pct")?,
                    window: req_usize(s, "window").unwrap_or(256),
                    terms: req_usize(s, "terms")?,
                    i_dev: req_f64(s, "i_dev").unwrap_or(10.0),
                })
            }
            "session_open" => {
                let s = need_spec()?;
                let d = SessionSpec::default();
                RequestBody::SessionOpen(SessionSpec {
                    pdn_pct: req_f64(s, "pdn_pct").unwrap_or(d.pdn_pct),
                    window: req_usize(s, "window").unwrap_or(d.window),
                    threshold: req_f64(s, "threshold").unwrap_or(d.threshold),
                    significance: req_f64(s, "significance").unwrap_or(d.significance),
                    gauss_windows: req_usize(s, "gauss_windows").unwrap_or(d.gauss_windows),
                    family: req_family(s)?,
                    boundary: req_boundary(s)?,
                })
            }
            "session_push" => {
                let s = need_spec()?;
                let not_array = "`session_push` needs an array field `samples`";
                let samples = samples_from(
                    s.get("samples").ok_or(not_array)?,
                    "samples",
                    not_array,
                    block,
                )?;
                RequestBody::SessionPush {
                    session: req_session(s)?,
                    samples,
                }
            }
            "session_verdict" => RequestBody::SessionVerdict {
                session: req_session(need_spec()?)?,
            },
            "session_close" => RequestBody::SessionClose {
                session: req_session(need_spec()?)?,
            },
            "snapshot_export" => {
                let max_entries = match json.get("spec") {
                    None | Some(Json::Null) => SNAPSHOT_MAX_ENTRIES,
                    Some(s) => req_usize(s, "max_entries").unwrap_or(SNAPSHOT_MAX_ENTRIES),
                };
                RequestBody::SnapshotExport { max_entries }
            }
            "snapshot_import" => {
                let s = need_spec()?;
                let arr = s
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or("`snapshot_import` needs an array field `entries`")?;
                let mut entries = Vec::with_capacity(arr.len());
                for v in arr {
                    entries.push(snapshot_entry_from_json(v)?);
                }
                RequestBody::SnapshotImport { entries }
            }
            other => return Err(format!("unknown request kind `{other}`")),
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded or named an invalid spec.
    BadRequest,
    /// The request's deadline expired (in queue or mid-simulation).
    DeadlineExceeded,
    /// The handler failed internally (including a caught panic).
    Internal,
    /// The named streaming session does not exist (never opened, timed
    /// out, or already closed). The connection stays usable — this is a
    /// structured answer, not a protocol desync.
    SessionNotFound,
    /// No healthy worker can take the request right now (router-side:
    /// every candidate shard is down, or a session's owning worker was
    /// lost). Retrying later may succeed; the session itself is gone.
    Unavailable,
}

impl ErrorCode {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
            ErrorCode::SessionNotFound => "session_not_found",
            ErrorCode::Unavailable => "unavailable",
        }
    }

    /// Parse the wire name.
    #[must_use]
    pub fn parse(s: &str) -> Option<ErrorCode> {
        match s {
            "bad_request" => Some(ErrorCode::BadRequest),
            "deadline_exceeded" => Some(ErrorCode::DeadlineExceeded),
            "internal" => Some(ErrorCode::Internal),
            "session_not_found" => Some(ErrorCode::SessionNotFound),
            "unavailable" => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// The three response shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponsePayload {
    /// Success; `result` is the analysis-specific report.
    Ok {
        /// The request kind this answers.
        kind: String,
        /// Analysis report.
        result: Json,
    },
    /// The admission queue was full; retry after the hinted delay.
    Rejected {
        /// Client backoff hint (ms).
        retry_after_ms: u64,
        /// Queue occupancy at rejection time.
        queue_len: u64,
    },
    /// The request failed.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id (0 when the id could not be decoded).
    pub id: u64,
    /// Outcome.
    pub payload: ResponsePayload,
}

impl Response {
    /// A success response.
    #[must_use]
    pub fn ok(id: u64, kind: &str, result: Json) -> Response {
        Response {
            id,
            payload: ResponsePayload::Ok {
                kind: kind.to_string(),
                result,
            },
        }
    }

    /// A structured overload rejection.
    #[must_use]
    pub fn rejected(id: u64, retry_after_ms: u64, queue_len: u64) -> Response {
        Response {
            id,
            payload: ResponsePayload::Rejected {
                retry_after_ms,
                queue_len,
            },
        }
    }

    /// An error response.
    #[must_use]
    pub fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Response {
        Response {
            id,
            payload: ResponsePayload::Error {
                code,
                message: message.into(),
            },
        }
    }

    /// Encode to the wire JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("id", Json::num(self.id as f64))];
        match &self.payload {
            ResponsePayload::Ok { kind, result } => {
                pairs.push(("status", Json::str("ok")));
                pairs.push(("kind", Json::str(kind.as_str())));
                pairs.push(("result", result.clone()));
            }
            ResponsePayload::Rejected {
                retry_after_ms,
                queue_len,
            } => {
                pairs.push(("status", Json::str("rejected")));
                pairs.push(("retry_after_ms", Json::num(*retry_after_ms as f64)));
                pairs.push(("queue_len", Json::num(*queue_len as f64)));
            }
            ResponsePayload::Error { code, message } => {
                pairs.push(("status", Json::str("error")));
                pairs.push(("code", Json::str(code.as_str())));
                pairs.push(("message", Json::str(message.as_str())));
            }
        }
        Json::obj(pairs)
    }

    /// Decode from the wire JSON shape.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first offending field.
    pub fn from_json(json: &Json) -> Result<Response, String> {
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("response is missing integer field `id`")?;
        let status = json
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response is missing string field `status`")?;
        let payload = match status {
            "ok" => ResponsePayload::Ok {
                kind: json
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("ok response is missing `kind`")?
                    .to_string(),
                result: json
                    .get("result")
                    .cloned()
                    .ok_or("ok response is missing `result`")?,
            },
            "rejected" => ResponsePayload::Rejected {
                retry_after_ms: json
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .ok_or("rejected response is missing `retry_after_ms`")?,
                queue_len: json.get("queue_len").and_then(Json::as_u64).unwrap_or(0),
            },
            "error" => ResponsePayload::Error {
                code: json
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .ok_or("error response has an unknown `code`")?,
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            },
            other => return Err(format!("unknown response status `{other}`")),
        };
        Ok(Response { id, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let json = req.to_json();
        let text = json.render();
        let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(*req, back);
    }

    #[test]
    fn requests_roundtrip_through_wire_json() {
        roundtrip_request(&Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Ping,
        });
        roundtrip_request(&Request {
            id: 2,
            deadline_ms: Some(250),
            body: RequestBody::Stats,
        });
        roundtrip_request(&Request {
            id: 3,
            deadline_ms: Some(5_000),
            body: RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(vec![1.0, 2.5, -0.125, 19.0625]),
                ..CharacterizeSpec::default()
            }),
        });
        roundtrip_request(&Request {
            id: 4,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec::default()),
        });
        roundtrip_request(&Request {
            id: 5,
            deadline_ms: None,
            body: RequestBody::ClosedLoop(ClosedLoopSpec {
                benchmark: "swim".to_string(),
                pdn_pct: 150.0,
                monitor_terms: 13,
                controller: ControllerSpec::WaveletThreshold {
                    low: 0.975,
                    high: 1.025,
                    hysteresis: 0.004,
                    delay: 1,
                },
                instructions: 10_000,
                warmup_cycles: 2_000,
                replay: None,
            }),
        });
        roundtrip_request(&Request {
            id: 13,
            deadline_ms: None,
            body: RequestBody::ClosedLoop(ClosedLoopSpec {
                benchmark: "gzip".to_string(),
                pdn_pct: 150.0,
                monitor_terms: 13,
                controller: ControllerSpec::None,
                instructions: 10_000,
                warmup_cycles: 2_000,
                replay: Some("results/traces/gzip.dtrc".to_string()),
            }),
        });
        roundtrip_request(&Request {
            id: 14,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Recorded {
                    path: "results/traces/swim.dtrc".to_string(),
                },
                ..CharacterizeSpec::default()
            }),
        });
        roundtrip_request(&Request {
            id: 6,
            deadline_ms: None,
            body: RequestBody::Design(DesignSpec {
                pdn_pct: 125.0,
                window: 256,
                terms: 17,
                i_dev: 10.0,
            }),
        });
    }

    #[test]
    fn session_and_snapshot_requests_roundtrip() {
        roundtrip_request(&Request {
            id: 20,
            deadline_ms: Some(1_000),
            body: RequestBody::SessionOpen(SessionSpec::default()),
        });
        roundtrip_request(&Request {
            id: 21,
            deadline_ms: None,
            body: RequestBody::SessionPush {
                session: 7,
                samples: vec![1.0, -0.5, std::f64::consts::PI, f64::MIN_POSITIVE],
            },
        });
        roundtrip_request(&Request {
            id: 22,
            deadline_ms: None,
            body: RequestBody::SessionVerdict { session: 7 },
        });
        roundtrip_request(&Request {
            id: 23,
            deadline_ms: None,
            body: RequestBody::SessionClose { session: 7 },
        });
        roundtrip_request(&Request {
            id: 24,
            deadline_ms: None,
            body: RequestBody::SnapshotExport { max_entries: 128 },
        });
        // Push with an empty chunk is legal on the wire.
        roundtrip_request(&Request {
            id: 25,
            deadline_ms: None,
            body: RequestBody::SessionPush {
                session: 9,
                samples: Vec::new(),
            },
        });
    }

    #[test]
    fn snapshot_entries_roundtrip_bit_exactly() {
        let pdn = didt_pdn::SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap();
        let model = ScaleGainModel::calibrate(&pdn, 256, 11).unwrap();
        let entry = GainSnapshotEntry {
            pct_millis: 100_000,
            window: 256,
            seed: 11,
            family: WaveletFamily::Haar,
            model,
        };
        let req = Request {
            id: 26,
            deadline_ms: None,
            body: RequestBody::SnapshotImport {
                entries: vec![entry.clone()],
            },
        };
        let back = Request::from_json(&Json::parse(&req.to_json().render()).unwrap()).unwrap();
        match back.body {
            RequestBody::SnapshotImport { entries } => {
                assert_eq!(entries.len(), 1);
                // PartialEq on f64 fields; equality here means every
                // gain bit survived the wire.
                assert_eq!(entries[0], entry);
                for (a, b) in entries[0]
                    .model
                    .gain_rows()
                    .iter()
                    .flatten()
                    .zip(entry.model.gain_rows().iter().flatten())
                {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn shard_keys_group_on_calibration_identity() {
        let characterize = |window: usize, pdn_pct: f64, family: WaveletFamily| Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                window,
                pdn_pct,
                family,
                ..CharacterizeSpec::default()
            }),
        };
        let a = characterize(256, 100.0, WaveletFamily::Haar);
        let b = characterize(256, 100.0, WaveletFamily::Haar);
        assert_eq!(a.shard_key(), b.shard_key());
        // The trace does not participate: two different traces with the
        // same calibration key land on the same shard.
        let mut c = characterize(256, 100.0, WaveletFamily::Haar);
        if let RequestBody::Characterize(s) = &mut c.body {
            s.trace = TraceSource::Inline(vec![1.0, 2.0]);
        }
        assert_eq!(a.shard_key(), c.shard_key());
        // Any key part changing moves the shard.
        assert_ne!(
            a.shard_key(),
            characterize(512, 100.0, WaveletFamily::Haar).shard_key()
        );
        assert_ne!(
            a.shard_key(),
            characterize(256, 150.0, WaveletFamily::Haar).shard_key()
        );
        assert_ne!(
            a.shard_key(),
            characterize(256, 100.0, WaveletFamily::Db4).shard_key()
        );
        // A session opens on the same shard as the matching one-shot.
        let open = Request {
            id: 2,
            deadline_ms: None,
            body: RequestBody::SessionOpen(SessionSpec::default()),
        };
        let oneshot = Request {
            id: 3,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec::default()),
        };
        assert_eq!(open.shard_key(), oneshot.shard_key());
        // Unshardable kinds.
        for body in [
            RequestBody::Ping,
            RequestBody::Stats,
            RequestBody::SessionPush {
                session: 1,
                samples: vec![],
            },
            RequestBody::SessionVerdict { session: 1 },
            RequestBody::SessionClose { session: 1 },
            RequestBody::SnapshotExport { max_entries: 1 },
        ] {
            let r = Request {
                id: 4,
                deadline_ms: None,
                body,
            };
            assert_eq!(r.shard_key(), None, "{} must not shard", r.body.kind());
        }
    }

    #[test]
    fn every_controller_variant_roundtrips() {
        let variants = [
            ControllerSpec::None,
            ControllerSpec::AnalogThreshold {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.002,
            },
            ControllerSpec::FullConvolution {
                low: 0.97,
                high: 1.03,
                hysteresis: 0.002,
            },
            ControllerSpec::PipelineDamping {
                window: 15,
                max_delta: 6.5,
            },
            ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
            ControllerSpec::BiquadRecursive {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 2,
            },
            ControllerSpec::WaveletFamilyThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
                family: WaveletFamily::Db4,
                boundary: BoundaryMode::Symmetric,
            },
        ];
        for c in variants {
            let back = controller_from_json(&controller_to_json(&c)).unwrap();
            assert_eq!(c, back);
        }
    }

    #[test]
    fn family_fields_default_to_haar_periodic_when_absent() {
        // A pre-family client's wire shape must keep decoding to the
        // Haar analysis it always meant.
        let legacy = Json::parse(
            r#"{"id": 7, "kind": "characterize", "spec": {
                "synth": {"benchmark": "gzip", "warmup": 100, "cycles": 1024},
                "pdn_pct": 100.0}}"#,
        )
        .unwrap();
        let req = Request::from_json(&legacy).unwrap();
        match req.body {
            RequestBody::Characterize(s) => {
                assert_eq!(s.family, WaveletFamily::Haar);
                assert_eq!(s.boundary, BoundaryMode::Periodic);
            }
            other => panic!("wrong body: {other:?}"),
        }
        // And an unknown family name is a decode error, not a silent Haar.
        let bad = Json::parse(
            r#"{"scheme": "wavelet-family", "low": 0.9, "high": 1.1,
                "hysteresis": 0.001, "delay": 1, "family": "db99",
                "boundary": "periodic"}"#,
        )
        .unwrap();
        assert!(controller_from_json(&bad)
            .unwrap_err()
            .contains("unknown wavelet family"));
    }

    #[test]
    fn characterize_family_fields_roundtrip() {
        roundtrip_request(&Request {
            id: 12,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                family: WaveletFamily::Db3,
                boundary: BoundaryMode::ZeroPad,
                ..CharacterizeSpec::default()
            }),
        });
    }

    #[test]
    fn replay_field_defaults_to_live_simulation_when_absent() {
        // A pre-trace client's closed_loop wire shape must keep meaning
        // the live synthetic run it always meant.
        let legacy = Json::parse(
            r#"{"id": 8, "kind": "closed_loop", "spec": {
                "benchmark": "gzip", "pdn_pct": 150.0,
                "controller": {"scheme": "none"},
                "instructions": 1000, "warmup_cycles": 500}}"#,
        )
        .unwrap();
        let req = Request::from_json(&legacy).unwrap();
        match req.body {
            RequestBody::ClosedLoop(s) => assert_eq!(s.replay, None),
            other => panic!("wrong body: {other:?}"),
        }
        // And a non-string `replay` is a decode error, not a silent live run.
        let bad = Json::parse(
            r#"{"id": 9, "kind": "closed_loop", "spec": {
                "benchmark": "gzip", "pdn_pct": 150.0,
                "controller": {"scheme": "none"},
                "instructions": 1000, "warmup_cycles": 500, "replay": 7}}"#,
        )
        .unwrap();
        assert!(Request::from_json(&bad)
            .unwrap_err()
            .contains("`replay` must be a string"));
    }

    #[test]
    fn responses_roundtrip_through_wire_json() {
        for resp in [
            Response::ok(9, "ping", Json::obj(vec![("version", Json::num(1.0))])),
            Response::rejected(10, 50, 64),
            Response::error(11, ErrorCode::DeadlineExceeded, "too slow"),
            Response::error(0, ErrorCode::BadRequest, "no id"),
        ] {
            let back =
                Response::from_json(&Json::parse(&resp.to_json().render()).unwrap()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn inline_trace_samples_roundtrip_bit_exactly() {
        let samples = vec![
            std::f64::consts::PI,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -1_234.567_890_123_456_7,
        ];
        let req = Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(samples.clone()),
                ..CharacterizeSpec::default()
            }),
        };
        let back = Request::from_json(&Json::parse(&req.to_json().render()).unwrap()).unwrap();
        match back.body {
            RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(got),
                ..
            }) => {
                for (a, b) in samples.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    /// Encode `body` with [`write_request`] and decode the payload the
    /// way a server does.
    fn through_wire(body: &RequestBody, blocks: bool) -> (Vec<u8>, Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, &mut Vec::new(), 7, Some(90), body, blocks).unwrap();
        let mut r = FrameReader::new(std::io::Cursor::new(wire.clone()));
        let request = decode_request(r.read_payload(usize::MAX, &mut || false).unwrap()).unwrap();
        (wire, request)
    }

    #[test]
    fn block_frames_carry_samples_bit_exactly() {
        let samples = vec![-0.0, f64::from_bits(1), f64::MAX, -1.5, f64::MIN_POSITIVE];
        for body in [
            RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(samples.clone()),
                ..CharacterizeSpec::default()
            }),
            RequestBody::SessionPush {
                session: 3,
                samples: samples.clone(),
            },
        ] {
            let (wire, back) = through_wire(&body, true);
            assert_eq!(wire[4], BLOCK_TAG, "{} goes as a block frame", body.kind());
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back.body.samples().unwrap()), bits(&samples));
            assert_eq!((back.id, back.deadline_ms, back.body), (7, Some(90), body));
        }
    }

    #[test]
    fn write_request_without_blocks_writes_the_json_frame() {
        for body in [
            RequestBody::Characterize(CharacterizeSpec {
                trace: TraceSource::Inline(vec![1.0, 2.5]),
                ..CharacterizeSpec::default()
            }),
            // A body with no samples ignores `blocks`.
            RequestBody::Ping,
        ] {
            let (wire, back) = through_wire(&body, body.samples().is_none());
            let request = Request {
                id: 7,
                deadline_ms: Some(90),
                body,
            };
            let mut json = Vec::new();
            write_frame(&mut json, &request.to_json()).unwrap();
            assert_eq!(wire, json);
            assert_eq!(back, request);
        }
    }

    #[test]
    fn block_reference_in_a_json_frame_is_not_an_array() {
        let json = br#"{"id": 4, "kind": "characterize", "spec": {"trace": {"block": 2}}}"#;
        assert_eq!(
            decode_request(json),
            Err(DecodeError {
                id: 4,
                message: "field `trace` must be an array".to_string(),
            })
        );
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let json = Json::obj(vec![("k", Json::num(42.0))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &json).unwrap();
        write_frame(&mut wire, &json).unwrap();
        // A reader that returns one byte at a time forces maximal
        // fragmentation.
        let mut r = FrameReader::new(Paced::new(wire, 1));
        let mut no = || false;
        assert_eq!(r.read_frame(1024, &mut no).unwrap(), json);
        assert_eq!(r.read_frame(1024, &mut no).unwrap(), json);
        assert!(matches!(
            r.read_frame(1024, &mut no),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn frame_reader_rejects_oversized_prefix_without_reading_payload() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        // The prefix arrives alone, so any later read would be payload.
        let mut r = FrameReader::new(Paced::new(wire, 4));
        let mut no = || false;
        match r.read_frame(1024, &mut no) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!((r.inner.reads, r.inner.wire.position()), (1, 4));
    }

    #[test]
    fn frame_reader_reports_truncation() {
        let json = Json::obj(vec![("k", Json::str("truncate me please"))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &json).unwrap();
        wire.truncate(wire.len() - 5);
        let mut r = FrameReader::new(std::io::Cursor::new(wire));
        let mut no = || false;
        assert!(matches!(
            r.read_frame(1024, &mut no),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_reader_flags_bad_json_payload() {
        let mut wire = Vec::new();
        let payload = b"{not json";
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload);
        let mut r = FrameReader::new(std::io::Cursor::new(wire));
        let mut no = || false;
        assert!(matches!(
            r.read_frame(1024, &mut no),
            Err(FrameError::Json(_))
        ));
    }

    /// A stream over `wire` that hands out at most `most` bytes per
    /// `read` call, fails the first call at byte `stall_at` with
    /// `WouldBlock`, and counts the calls it answers with bytes or with
    /// the end of the stream.
    struct Paced {
        wire: std::io::Cursor<Vec<u8>>,
        most: usize,
        stall_at: Option<u64>,
        reads: usize,
    }

    impl Paced {
        fn new(wire: Vec<u8>, most: usize) -> Self {
            Paced {
                wire: std::io::Cursor::new(wire),
                most,
                stall_at: None,
                reads: 0,
            }
        }
    }

    impl Read for Paced {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let pos = self.wire.position();
            let mut take = self.most.min(buf.len());
            match self.stall_at {
                Some(at) if at == pos => {
                    self.stall_at = None;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                Some(at) => take = take.min((at - pos) as usize),
                None => {}
            }
            self.reads += 1;
            self.wire.read(&mut buf[..take])
        }
    }

    /// A `Characterize` carrying 16,384 samples, written as a block
    /// frame of about 131 KB.
    fn large_block_frame() -> (Vec<u8>, Request) {
        let samples: Vec<f64> = (0..16_384).map(|i| f64::from(i) * 0.37 - 900.0).collect();
        let body = RequestBody::Characterize(CharacterizeSpec {
            trace: TraceSource::Inline(samples),
            ..CharacterizeSpec::default()
        });
        let (wire, request) = through_wire(&body, true);
        assert!(wire.len() > 131_000, "{} bytes", wire.len());
        (wire, request)
    }

    #[test]
    fn frame_reader_decodes_a_block_frame_however_it_is_split() {
        let (wire, request) = large_block_frame();
        let mut no = || false;
        // One byte per read.
        let mut r = FrameReader::new(Paced::new(wire.clone(), 1));
        assert_eq!(
            decode_request(r.read_payload(MAX_FRAME_LEN, &mut no).unwrap()).unwrap(),
            request
        );
        assert_eq!(r.inner.reads, wire.len());
        // As fast as the reader asks: the prefix arrives with the first
        // read, and the rest of the frame takes two 64 KiB steps at most.
        let mut r = FrameReader::new(Paced::new(wire.clone(), usize::MAX));
        assert_eq!(
            decode_request(r.read_payload(MAX_FRAME_LEN, &mut no).unwrap()).unwrap(),
            request
        );
        assert_eq!(r.inner.reads, 3);
        assert!(matches!(
            r.read_payload(MAX_FRAME_LEN, &mut no),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn frame_reader_resumes_after_a_timeout_mid_payload() {
        let (mut wire, request) = large_block_frame();
        let frame_len = wire.len();
        let ping = Json::obj(vec![("id", Json::num(5.0)), ("kind", Json::str("ping"))]);
        write_frame(&mut wire, &ping).unwrap();
        let mut stream = Paced::new(wire, 10_000);
        stream.stall_at = Some(frame_len as u64 / 2);
        let mut r = FrameReader::new(stream);
        assert!(matches!(
            r.read_payload(MAX_FRAME_LEN, &mut || true),
            Err(FrameError::Aborted)
        ));
        let mut no = || false;
        assert_eq!(
            decode_request(r.read_payload(MAX_FRAME_LEN, &mut no).unwrap()).unwrap(),
            request
        );
        assert_eq!(r.read_frame(MAX_FRAME_LEN, &mut no).unwrap(), ping);
        assert!(matches!(
            r.read_frame(MAX_FRAME_LEN, &mut no),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn frame_reader_grows_by_what_arrives_not_by_what_the_prefix_declares() {
        let declared = 16 * 1024 * 1024;
        let mut wire = (declared as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[7; 10]);
        let mut r = FrameReader::new(std::io::Cursor::new(wire));
        let before = r.buf_capacity();
        match r.read_payload(MAX_FRAME_LEN, &mut || false) {
            Err(FrameError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (4 + declared, 14));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(
            r.buf_capacity() - before <= READ_STEP,
            "stream buffer grew to {} bytes",
            r.buf_capacity()
        );
    }
}
