//! Blocking client for the didt-serve protocol.
//!
//! One [`Client`] owns one TCP connection and issues strictly
//! request-then-response calls, so responses can never arrive out of
//! order even though the server's worker pool completes pipelined
//! requests in any order.
//!
//! A client sends request samples as block frames (see
//! [`crate::protocol`]) when the peer reads them: before its first
//! request that carries samples it pings the peer once and keeps the
//! answer. A v2 peer gets JSON arrays.
//!
//! Overload handling is opt-in: with a [`ClientConfig`] retry budget,
//! `Rejected{retry_after_ms}` answers are absorbed by a deterministic
//! capped-exponential backoff (no jitter — replayable schedules) before
//! surfacing as [`ClientError::Rejected`].

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use didt_bench::GainSnapshotEntry;
use didt_telemetry::Json;

use crate::protocol::{
    snapshot_entry_from_json, write_request, CharacterizeSpec, ClosedLoopSpec, DesignSpec,
    ErrorCode, FrameError, FrameReader, RequestBody, Response, ResponsePayload, SessionSpec,
    BLOCK_FRAME_VERSION, MAX_FRAME_LEN,
};

/// Client-side retry policy for `Rejected` (overload) responses.
///
/// The schedule is deterministic — no jitter — so a replayed workload
/// produces a replayable retry trace: attempt `k` (0-based) sleeps
/// `max(server_hint, base_ms << k)` capped at `cap_ms`. The default
/// config never retries, preserving the pre-config behavior where every
/// rejection surfaces immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Retries after the first rejection (0 = surface immediately).
    pub max_retries: u32,
    /// First retry delay (doubles each attempt).
    pub backoff_base_ms: u64,
    /// Upper bound on any single delay.
    pub backoff_cap_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 0,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
        }
    }
}

impl ClientConfig {
    /// A config that retries overload up to `max_retries` times with
    /// the default backoff curve.
    #[must_use]
    pub fn with_retries(max_retries: u32) -> Self {
        ClientConfig {
            max_retries,
            ..ClientConfig::default()
        }
    }

    /// The deterministic delay before retry attempt `attempt`
    /// (0-based), honoring the server's `retry_after_ms` hint as a
    /// floor and `backoff_cap_ms` as a ceiling.
    fn backoff_ms(&self, attempt: u32, server_hint_ms: u64) -> u64 {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        exp.max(server_hint_ms).min(self.backoff_cap_ms)
    }
}

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Framing/decoding failure.
    Frame(FrameError),
    /// The response was well-formed JSON but not a valid response, or
    /// answered a different request id.
    Protocol(String),
    /// The server shed the request (queue full); retry after the hint.
    Rejected {
        /// Backoff hint (ms).
        retry_after_ms: u64,
    },
    /// The server answered with an error.
    Server {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected { retry_after_ms } => {
                write!(f, "rejected by server, retry after {retry_after_ms} ms")
            }
            ClientError::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to a didt-serve server.
pub struct Client {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
    config: ClientConfig,
    retries: u64,
    /// The peer's protocol version, once a `Ping` has reported it.
    peer_version: Option<u64>,
    /// Frame scratch reused by every block frame this client writes.
    scratch: Vec<u8>,
}

impl Client {
    /// Connect with the default (no-retry) config.
    ///
    /// # Errors
    ///
    /// Propagates connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: FrameReader::new(stream),
            next_id: 1,
            config: ClientConfig::default(),
            retries: 0,
            peer_version: None,
            scratch: Vec::new(),
        })
    }

    /// Replace the retry/backoff config.
    pub fn set_config(&mut self, config: ClientConfig) {
        self.config = config;
    }

    /// Overload retries this connection has performed (absorbed
    /// `Rejected` answers that were eventually resolved or re-issued).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Issue one request and wait for its response (any status).
    ///
    /// With a retry budget ([`ClientConfig::max_retries`] > 0),
    /// `Rejected` responses are retried on the deterministic backoff
    /// schedule; the last rejection is returned as-is once the budget
    /// is exhausted. `Error` responses are never retried.
    ///
    /// # Errors
    ///
    /// Transport, framing, and response-shape errors; `Rejected` and
    /// `Error` responses are returned as `Ok` — use the typed helpers
    /// to turn them into [`ClientError`]s.
    pub fn call(
        &mut self,
        body: RequestBody,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let response = self.call_once(&body, deadline_ms)?;
            let retry_after_ms = match &response.payload {
                ResponsePayload::Rejected { retry_after_ms, .. }
                    if attempt < self.config.max_retries =>
                {
                    *retry_after_ms
                }
                _ => return Ok(response),
            };
            let delay = self.config.backoff_ms(attempt, retry_after_ms);
            std::thread::sleep(Duration::from_millis(delay));
            self.retries += 1;
            attempt += 1;
        }
    }

    fn call_once(
        &mut self,
        body: &RequestBody,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        let blocks = body.samples().is_some() && self.peer_reads_blocks()?;
        let id = self.next_id;
        self.next_id += 1;
        write_request(
            &mut self.writer,
            &mut self.scratch,
            id,
            deadline_ms,
            body,
            blocks,
        )?;
        let mut never = || false;
        let json = self.reader.read_frame(MAX_FRAME_LEN, &mut never)?;
        let response = Response::from_json(&json).map_err(ClientError::Protocol)?;
        if response.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        if let (RequestBody::Ping, ResponsePayload::Ok { result, .. }) = (body, &response.payload) {
            self.peer_version = result.get("version").and_then(Json::as_u64);
        }
        Ok(response)
    }

    /// Whether the peer reads block frames, pinging it the first time.
    /// A ping that is rejected or fails settles nothing, and the request
    /// goes as JSON, which every version reads.
    fn peer_reads_blocks(&mut self) -> Result<bool, ClientError> {
        if self.peer_version.is_none() {
            self.call_once(&RequestBody::Ping, None)?;
        }
        Ok(self.peer_version.is_some_and(|v| v >= BLOCK_FRAME_VERSION))
    }

    /// Unwrap an `Ok` response's result, mapping `Rejected`/`Error`
    /// payloads to [`ClientError`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] and [`ClientError::Server`].
    fn expect_ok(response: Response) -> Result<Json, ClientError> {
        match response.payload {
            ResponsePayload::Ok { result, .. } => Ok(result),
            ResponsePayload::Rejected { retry_after_ms, .. } => {
                Err(ClientError::Rejected { retry_after_ms })
            }
            ResponsePayload::Error { code, message } => Err(ClientError::Server { code, message }),
        }
    }

    /// Liveness check; returns the protocol version.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let result = Self::expect_ok(self.call(RequestBody::Ping, None)?)?;
        result
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("ping result lacks `version`".to_string()))
    }

    /// Server statistics.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::Stats, None)?)
    }

    /// Offline trace characterization.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn characterize(
        &mut self,
        spec: CharacterizeSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::Characterize(spec), deadline_ms)?)
    }

    /// Closed-loop control simulation.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn closed_loop(
        &mut self,
        spec: ClosedLoopSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::ClosedLoop(spec), deadline_ms)?)
    }

    /// Monitor design report.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn design(
        &mut self,
        spec: DesignSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::Design(spec), deadline_ms)?)
    }

    /// Open a streaming characterization session; returns its id.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn session_open(&mut self, spec: SessionSpec) -> Result<u64, ClientError> {
        let result = Self::expect_ok(self.call(RequestBody::SessionOpen(spec), None)?)?;
        result
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("session_open result lacks `session`".to_string()))
    }

    /// Append samples to an open session.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn session_push(&mut self, session: u64, samples: Vec<f64>) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::SessionPush { session, samples }, None)?)
    }

    /// Incremental verdict over everything pushed so far.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn session_verdict(
        &mut self,
        session: u64,
        deadline_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::SessionVerdict { session }, deadline_ms)?)
    }

    /// Close a session.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn session_close(&mut self, session: u64) -> Result<Json, ClientError> {
        Self::expect_ok(self.call(RequestBody::SessionClose { session }, None)?)
    }

    /// Pull up to `max_entries` completed gain calibrations from the
    /// peer's memo caches (the exporter half of cache warming).
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn snapshot_export(
        &mut self,
        max_entries: usize,
    ) -> Result<Vec<GainSnapshotEntry>, ClientError> {
        let result =
            Self::expect_ok(self.call(RequestBody::SnapshotExport { max_entries }, None)?)?;
        let arr = result
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("snapshot result lacks `entries`".to_string()))?;
        arr.iter()
            .map(|e| snapshot_entry_from_json(e).map_err(ClientError::Protocol))
            .collect()
    }

    /// Install peer-exported calibrations into the server's caches (the
    /// importer half of cache warming). Returns the count installed.
    ///
    /// # Errors
    ///
    /// All [`ClientError`] variants.
    pub fn snapshot_import(&mut self, entries: Vec<GainSnapshotEntry>) -> Result<u64, ClientError> {
        let result = Self::expect_ok(self.call(RequestBody::SnapshotImport { entries }, None)?)?;
        result
            .get("installed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("snapshot result lacks `installed`".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_hint_floored() {
        let cfg = ClientConfig {
            max_retries: 8,
            backoff_base_ms: 25,
            backoff_cap_ms: 400,
        };
        // Pure exponential when the hint is below the curve.
        assert_eq!(cfg.backoff_ms(0, 0), 25);
        assert_eq!(cfg.backoff_ms(1, 0), 50);
        assert_eq!(cfg.backoff_ms(2, 0), 100);
        assert_eq!(cfg.backoff_ms(3, 0), 200);
        // Capped from attempt 4 on.
        assert_eq!(cfg.backoff_ms(4, 0), 400);
        assert_eq!(cfg.backoff_ms(63, 0), 400);
        assert_eq!(cfg.backoff_ms(64, 0), 400, "shift overflow must cap");
        // The server hint floors early attempts but never beats the cap.
        assert_eq!(cfg.backoff_ms(0, 60), 60);
        assert_eq!(cfg.backoff_ms(2, 60), 100);
        assert_eq!(cfg.backoff_ms(0, 10_000), 400);
        // Identical inputs, identical schedule (no jitter).
        let a: Vec<u64> = (0..6).map(|k| cfg.backoff_ms(k, 50)).collect();
        let b: Vec<u64> = (0..6).map(|k| cfg.backoff_ms(k, 50)).collect();
        assert_eq!(a, b);
        // The default config never retries.
        assert_eq!(ClientConfig::default().max_retries, 0);
    }
}
