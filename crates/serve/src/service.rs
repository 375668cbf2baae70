//! Request handlers over one process-wide calibration cache.
//!
//! [`Service`] is transport-agnostic: [`Service::handle`] maps one
//! decoded [`Request`] to one [`Response`], synchronously, on whatever
//! thread calls it. The TCP front in [`crate::server`] owns the worker
//! pool; tests and the in-process example call `handle` directly.
//!
//! All expensive intermediates — calibrated PDNs, monitor designs,
//! captured traces, gain models, uncontrolled baselines — live in one
//! shared [`SweepContext`], so every connection benefits from every
//! other connection's calibration work, and repeated specs are answered
//! from cache. The `ClosedLoop` handler goes through the *same*
//! [`SweepContext::run_point_deadline`] path as the batch experiment
//! binaries, which is what makes serial client replay bit-identical to
//! batch-runner results.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use didt_bench::{GainSnapshotEntry, StreamReplayError, SweepContext, SweepPoint};
use didt_core::characterize::{EmergencyEstimator, GaussianityStudy, VarianceModel};
use didt_core::monitor::TermKind;
use didt_core::DidtError;
use didt_dsp::{dwt_boundary, scale_variance, BoundaryMode, WaveletFamily};
use didt_telemetry::{seed_to_hex, Counter, Histogram, Json, MetricsRegistry};
use didt_trace::{ReplayColumns, TraceError, TraceReader};
use didt_uarch::{Benchmark, CurrentTrace};

use crate::protocol::{
    snapshot_entry_to_json, CharacterizeSpec, ClosedLoopSpec, DesignSpec, ErrorCode, Request,
    RequestBody, Response, SessionSpec, TraceSource, PROTOCOL_VERSION,
};

/// Cap on concurrently open streaming sessions per service instance.
const MAX_OPEN_SESSIONS: usize = 256;

/// Cap on total samples accumulated by one streaming session — matches
/// the synthetic trace-length cap of the one-shot `Characterize` path.
const MAX_SESSION_SAMPLES: usize = 4_000_000;

/// Seed for server-side gain calibrations. Fixed so identical
/// `Characterize` specs give identical answers across connections,
/// restarts and hosts.
pub const GAIN_CALIBRATION_SEED: u64 = 0xCA11_B8A7E;

/// Shared service counters. The [`crate::server::Server`] front updates
/// the admission/worker counters; the handlers only read them (for the
/// `Stats` response).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests answered (any status, including errors).
    pub served: AtomicU64,
    /// Requests rejected at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests whose deadline expired (in queue or mid-simulation).
    pub deadline_exceeded: AtomicU64,
    /// Frames that failed to decode (bad length, JSON, or request shape).
    pub protocol_errors: AtomicU64,
    /// Handler panics caught by the worker pool.
    pub worker_panics: AtomicU64,
    /// Worker pool width (set once at server start).
    pub workers: AtomicU64,
    /// Admission queue capacity (set once at server start).
    pub queue_capacity: AtomicU64,
    /// Streaming sessions opened over the process lifetime.
    pub sessions_opened: AtomicU64,
    /// Streaming sessions closed by the client.
    pub sessions_closed: AtomicU64,
    /// Current samples accepted across all `SessionPush` requests.
    pub session_samples: AtomicU64,
    /// Incremental verdicts computed across all sessions.
    pub session_verdicts: AtomicU64,
}

impl ServiceStats {
    fn snapshot_pairs(&self) -> Vec<(&'static str, Json)> {
        let n = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64);
        vec![
            ("served", n(&self.served)),
            ("rejected", n(&self.rejected)),
            ("deadline_exceeded", n(&self.deadline_exceeded)),
            ("protocol_errors", n(&self.protocol_errors)),
            ("worker_panics", n(&self.worker_panics)),
            ("workers", n(&self.workers)),
            ("queue_capacity", n(&self.queue_capacity)),
        ]
    }
}

/// One open streaming session: its spec and every sample pushed so
/// far. A verdict runs [`Service::analyze`] over a copy of the samples,
/// the function a one-shot `Characterize` runs, so the two agree bit
/// for bit.
#[derive(Debug)]
struct SessionState {
    spec: SessionSpec,
    /// The pushed chunks in order, each shared, so a verdict's snapshot
    /// under the session lock costs one reference count per push, not
    /// one copy per sample.
    chunks: Vec<Arc<[f64]>>,
    /// Samples across `chunks`.
    total: usize,
    verdicts: u64,
}

/// The samples a request names: borrowed from the request, shared with
/// the context's trace cache, or read from a recording.
enum Samples<'a> {
    Borrowed(&'a [f64]),
    Cached(Arc<CurrentTrace>),
    Owned(Vec<f64>),
}

impl std::ops::Deref for Samples<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Samples::Borrowed(samples) => samples,
            Samples::Cached(trace) => &trace.samples,
            Samples::Owned(samples) => samples,
        }
    }
}

/// The dI/dt characterization service.
#[derive(Debug, Clone)]
pub struct Service {
    ctx: Arc<SweepContext>,
    stats: Arc<ServiceStats>,
    sessions: Arc<Mutex<HashMap<u64, SessionState>>>,
    next_session: Arc<AtomicU64>,
    started: Instant,
}

type HandlerResult = Result<Json, (ErrorCode, String)>;

fn bad(msg: impl Into<String>) -> (ErrorCode, String) {
    (ErrorCode::BadRequest, msg.into())
}

/// The structured answer for an unknown session id — a normal error
/// response on an intact connection, never a desync.
fn no_session(session: u64) -> (ErrorCode, String) {
    (
        ErrorCode::SessionNotFound,
        format!("session {session} is not open (never opened, or already closed)"),
    )
}

fn didt_err(e: &DidtError) -> (ErrorCode, String) {
    match e {
        DidtError::DeadlineExceeded { .. } => (ErrorCode::DeadlineExceeded, e.to_string()),
        _ => bad(e.to_string()),
    }
}

fn check_deadline(deadline: Option<Instant>) -> Result<(), (ErrorCode, String)> {
    match deadline {
        Some(d) if Instant::now() >= d => Err((
            ErrorCode::DeadlineExceeded,
            "deadline exceeded between analysis stages".to_string(),
        )),
        _ => Ok(()),
    }
}

/// The edge checks a `Characterize` and a `SessionOpen` share, run
/// before any trace is resolved or any session is opened.
fn check_analysis_spec(spec: &SessionSpec) -> Result<(), (ErrorCode, String)> {
    if !spec.window.is_power_of_two() || spec.window < 8 {
        return Err(bad("`window` must be a power of two, at least 8"));
    }
    if !(spec.significance > 0.0 && spec.significance < 1.0) {
        return Err(bad("`significance` must be in (0, 1)"));
    }
    Ok(())
}

/// Decomposition depth of the §4 analysis: the deepest periodic pyramid
/// the family's filter allows at this window, or the window's full
/// dyadic depth for the expansive modes.
fn analysis_levels(spec: &SessionSpec) -> usize {
    if spec.boundary == BoundaryMode::Periodic {
        spec.family.periodic_levels(spec.window)
    } else {
        spec.window.trailing_zeros() as usize
    }
}

/// The `serve.requests.{kind}` counter for `body`'s kind: one handle
/// per kind, resolved (and its name formatted) on the kind's first
/// request.
fn request_counter(body: &RequestBody) -> &'static Arc<Counter> {
    static COUNTERS: [OnceLock<Arc<Counter>>; 11] = [const { OnceLock::new() }; 11];
    let slot = match body {
        RequestBody::Ping => 0,
        RequestBody::Stats => 1,
        RequestBody::Characterize(_) => 2,
        RequestBody::ClosedLoop(_) => 3,
        RequestBody::Design(_) => 4,
        RequestBody::SessionOpen(_) => 5,
        RequestBody::SessionPush { .. } => 6,
        RequestBody::SessionVerdict { .. } => 7,
        RequestBody::SessionClose { .. } => 8,
        RequestBody::SnapshotExport { .. } => 9,
        RequestBody::SnapshotImport { .. } => 10,
    };
    COUNTERS[slot].get_or_init(|| {
        MetricsRegistry::global().counter(&format!("serve.requests.{}", body.kind()))
    })
}

impl Service {
    /// A service over the standard Table 1 system.
    ///
    /// # Errors
    ///
    /// Propagates calibration failure.
    pub fn standard() -> Result<Service, DidtError> {
        Ok(Service::new(SweepContext::standard()?))
    }

    /// A service over an existing shared context (lets tests and the
    /// load harness inspect the cache the server is using).
    #[must_use]
    pub fn new(ctx: Arc<SweepContext>) -> Service {
        Service {
            ctx,
            stats: Arc::new(ServiceStats::default()),
            sessions: Arc::new(Mutex::new(HashMap::new())),
            next_session: Arc::new(AtomicU64::new(1)),
            started: Instant::now(),
        }
    }

    /// The shared calibration context.
    #[must_use]
    pub fn context(&self) -> &Arc<SweepContext> {
        &self.ctx
    }

    /// The shared counters (the server front updates these).
    #[must_use]
    pub fn stats(&self) -> Arc<ServiceStats> {
        Arc::clone(&self.stats)
    }

    /// Handle one request synchronously.
    ///
    /// Never panics across this boundary by contract — handler errors
    /// become [`crate::protocol::ResponsePayload::Error`] responses; the
    /// worker pool additionally catches panics as a last line of
    /// defense.
    #[must_use]
    pub fn handle(&self, request: &Request, deadline: Option<Instant>) -> Response {
        static HANDLE_NS: OnceLock<Arc<Histogram>> = OnceLock::new();
        static DEADLINE_EXCEEDED: OnceLock<Arc<Counter>> = OnceLock::new();
        let kind = request.body.kind();
        let metrics = MetricsRegistry::global();
        request_counter(&request.body).incr();
        let _span = match &request.body {
            RequestBody::Ping => didt_telemetry::span("serve.handle.ping"),
            RequestBody::Stats => didt_telemetry::span("serve.handle.stats"),
            RequestBody::Characterize(_) => didt_telemetry::span("serve.handle.characterize"),
            RequestBody::ClosedLoop(_) => didt_telemetry::span("serve.handle.closed_loop"),
            RequestBody::Design(_) => didt_telemetry::span("serve.handle.design"),
            RequestBody::SessionOpen(_)
            | RequestBody::SessionPush { .. }
            | RequestBody::SessionVerdict { .. }
            | RequestBody::SessionClose { .. } => didt_telemetry::span("serve.handle.session"),
            RequestBody::SnapshotExport { .. } | RequestBody::SnapshotImport { .. } => {
                didt_telemetry::span("serve.handle.snapshot")
            }
        };
        let t0 = Instant::now();
        let result = match &request.body {
            RequestBody::Ping => Ok(Json::obj(vec![(
                "version",
                Json::num(PROTOCOL_VERSION as f64),
            )])),
            RequestBody::Stats => Ok(self.stats_report()),
            RequestBody::Characterize(spec) => self.characterize(spec, deadline),
            RequestBody::ClosedLoop(spec) => self.closed_loop(spec, deadline),
            RequestBody::Design(spec) => self.design(spec),
            RequestBody::SessionOpen(spec) => self.session_open(spec),
            RequestBody::SessionPush { session, samples } => self.session_push(*session, samples),
            RequestBody::SessionVerdict { session } => self.session_verdict(*session, deadline),
            RequestBody::SessionClose { session } => self.session_close(*session),
            RequestBody::SnapshotExport { max_entries } => self.snapshot_export(*max_entries),
            RequestBody::SnapshotImport { entries } => self.snapshot_import(entries),
        };
        HANDLE_NS
            .get_or_init(|| metrics.histogram("serve.handle_ns"))
            .record_duration(t0.elapsed());
        match result {
            Ok(json) => Response::ok(request.id, kind, json),
            Err((code, message)) => {
                if code == ErrorCode::DeadlineExceeded {
                    self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    DEADLINE_EXCEEDED
                        .get_or_init(|| metrics.counter("serve.deadline_exceeded"))
                        .incr();
                }
                Response::error(request.id, code, message)
            }
        }
    }

    fn stats_report(&self) -> Json {
        let mut pairs = vec![(
            "uptime_ms",
            Json::num(self.started.elapsed().as_millis() as f64),
        )];
        pairs.extend(self.stats.snapshot_pairs());
        let activity = self.ctx.cache_activity();
        let requests: u64 = activity.iter().map(|c| c.requests).sum();
        let hits: u64 = activity.iter().map(|c| c.hits()).sum();
        let classes: Vec<Json> = activity
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::str(c.name)),
                    ("computed", Json::num(c.computed as f64)),
                    ("requests", Json::num(c.requests as f64)),
                ])
            })
            .collect();
        pairs.push(("cache", Json::Arr(classes)));
        pairs.push((
            "cache_hit_ratio",
            Json::num(if requests > 0 {
                hits as f64 / requests as f64
            } else {
                0.0
            }),
        ));
        // Simulator throughput, accumulated by the closed-loop kernel
        // over every run this process has done (serve and batch share
        // the counters). Zero until the first `ClosedLoop` request.
        let metrics = MetricsRegistry::global();
        let sim_cycles = metrics.counter("sim.cycles").get();
        let sim_wall_ns = metrics.counter("sim.wall_ns").get();
        pairs.push((
            "sim",
            Json::obj(vec![
                ("cycles", Json::num(sim_cycles as f64)),
                (
                    "cycles_per_sec",
                    Json::num(if sim_wall_ns > 0 {
                        sim_cycles as f64 / sim_wall_ns as f64 * 1e9
                    } else {
                        0.0
                    }),
                ),
            ]),
        ));
        // Recorded-trace activity (TRACE_FORMAT.md §9): chunks accepted
        // by the `.dtrc` reader and records fed into replay/analysis,
        // process-wide. Zero until the first `recorded`/`replay` request.
        pairs.push((
            "trace",
            Json::obj(vec![
                (
                    "read_chunks",
                    Json::num(metrics.counter(didt_trace::READ_CHUNKS_COUNTER).get() as f64),
                ),
                (
                    "replay_cycles",
                    Json::num(metrics.counter(didt_trace::REPLAY_CYCLES_COUNTER).get() as f64),
                ),
            ]),
        ));
        // Streaming session activity. `open` is the live table size;
        // the rest are lifetime counters.
        pairs.push((
            "sessions",
            Json::obj(vec![
                (
                    "open",
                    Json::num(self.sessions.lock().expect("session table poisoned").len() as f64),
                ),
                (
                    "opened",
                    Json::num(self.stats.sessions_opened.load(Ordering::Relaxed) as f64),
                ),
                (
                    "closed",
                    Json::num(self.stats.sessions_closed.load(Ordering::Relaxed) as f64),
                ),
                (
                    "pushed_samples",
                    Json::num(self.stats.session_samples.load(Ordering::Relaxed) as f64),
                ),
                (
                    "verdicts",
                    Json::num(self.stats.session_verdicts.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ));
        // Queue-wait distribution, recorded by the worker pool at
        // dequeue. Empty (all zeros) when `handle` is called without
        // the TCP front, e.g. from tests or the in-process example.
        let queue_wait = metrics.histogram("serve.queue_wait_ns");
        pairs.push((
            "queue_wait_ns",
            Json::obj(vec![
                ("count", Json::num(queue_wait.count() as f64)),
                ("p50", Json::num(queue_wait.quantile(0.5))),
                ("p95", Json::num(queue_wait.quantile(0.95))),
                ("p99", Json::num(queue_wait.quantile(0.99))),
            ]),
        ));
        Json::obj(pairs)
    }

    /// The samples a request names. Inline samples are borrowed from the
    /// request and synthetic traces from the context's cache; a
    /// recording's currents are decoded chunk by chunk, column only.
    fn resolve_trace<'a>(
        &self,
        source: &'a TraceSource,
    ) -> Result<Samples<'a>, (ErrorCode, String)> {
        match source {
            TraceSource::Inline(samples) => {
                if samples.iter().any(|x| !x.is_finite()) {
                    return Err(bad("inline trace holds non-finite samples"));
                }
                Ok(Samples::Borrowed(samples))
            }
            TraceSource::Synth {
                benchmark,
                seed,
                warmup,
                cycles,
            } => {
                let bench = parse_benchmark(benchmark)?;
                if *cycles == 0 || *cycles > 4_000_000 {
                    return Err(bad("`synth.cycles` must be in 1..=4000000"));
                }
                Ok(Samples::Cached(self.ctx.trace(
                    bench,
                    self.ctx.system().processor(),
                    *seed,
                    *warmup,
                    *cycles,
                )))
            }
            TraceSource::Recorded { path } => {
                let mut reader = open_recorded(path)?;
                // Pre-roll records exist to settle stateful consumers;
                // the characterization analyses are stateless per
                // window, so they are simply excluded.
                let pre_roll = reader.meta().pre_roll;
                let mut columns = ReplayColumns::new();
                let mut samples = Vec::new();
                let mut read = 0u64;
                while reader
                    .next_columns(&mut columns)
                    .map_err(|e| recorded_error(path, &e))?
                {
                    let skip = usize::try_from(pre_roll.saturating_sub(read))
                        .map_or(columns.len(), |skip| skip.min(columns.len()));
                    samples.extend_from_slice(&columns.current()[skip..]);
                    read += columns.len() as u64;
                }
                static REPLAY_CYCLES: OnceLock<Arc<Counter>> = OnceLock::new();
                REPLAY_CYCLES
                    .get_or_init(|| {
                        MetricsRegistry::global().counter(didt_trace::REPLAY_CYCLES_COUNTER)
                    })
                    .add(samples.len() as u64);
                Ok(Samples::Owned(samples))
            }
        }
    }

    fn characterize(&self, spec: &CharacterizeSpec, deadline: Option<Instant>) -> HandlerResult {
        let params = SessionSpec {
            pdn_pct: spec.pdn_pct,
            window: spec.window,
            threshold: spec.threshold,
            significance: spec.significance,
            gauss_windows: spec.gauss_windows,
            family: spec.family,
            boundary: spec.boundary,
        };
        check_analysis_spec(&params)?;
        let trace = self.resolve_trace(&spec.trace)?;
        self.analyze(&trace, &params, deadline)
    }

    /// The §4 analysis behind one-shot `Characterize` and every session
    /// verdict: per-scale variance and correlation from one
    /// [`dwt_boundary`] pass, the χ² Gaussianity study, and the Gaussian
    /// emergency-fraction estimate. A session verdict calls this over a
    /// copy of its samples, so it is `to_bits()`-identical to a one-shot
    /// over the concatenated samples.
    ///
    /// A periodic Haar trace whose length is not a multiple of the
    /// window is zero-padded to the next multiple before the transform,
    /// so no sample is dropped; `scale_variance` still divides by the
    /// unpadded length. Other periodic families need a divisible length.
    fn analyze(
        &self,
        trace: &[f64],
        spec: &SessionSpec,
        deadline: Option<Instant>,
    ) -> HandlerResult {
        if trace.len() < spec.window {
            return Err(bad(format!(
                "trace too short: {} samples for a {}-cycle window",
                trace.len(),
                spec.window
            )));
        }
        let levels = analysis_levels(spec);
        let span = 1usize << levels;
        check_deadline(deadline)?;
        let padded: Vec<f64>;
        let input = if spec.boundary != BoundaryMode::Periodic || trace.len().is_multiple_of(span) {
            trace
        } else if spec.family == WaveletFamily::Haar {
            padded = [trace, &vec![0.0; span - trace.len() % span]].concat();
            &padded
        } else {
            return Err(bad(format!(
                "periodic `{}` analysis needs a trace length divisible by {span}; \
                 use an expansive boundary mode (zero-pad, symmetric, zeroth-order) \
                 for arbitrary lengths",
                spec.family.name(),
            )));
        };
        let decomp = dwt_boundary(input, spec.family, levels, spec.boundary)
            .map_err(|e| bad(format!("family transform: {e}")))?;
        let scales: Vec<Json> = decomp
            .detail_rows()
            .enumerate()
            .map(|(i, d)| {
                let sv = scale_variance(i + 1, d, trace.len());
                Json::obj(vec![
                    ("level", Json::num(sv.level as f64)),
                    ("span", Json::num(sv.span as f64)),
                    ("variance", Json::num(sv.variance)),
                    ("adjacent_correlation", Json::num(sv.adjacent_correlation)),
                ])
            })
            .collect();

        // χ² Gaussianity verdict over sampled windows (paper §4.2).
        check_deadline(deadline)?;
        let chi = self
            .ctx
            .gof_test(GaussianityStudy::bins_for(spec.window), spec.significance)
            .map_err(|e| didt_err(&e))?;
        let gauss = GaussianityStudy::new(spec.significance, GAIN_CALIBRATION_SEED)
            .classify_prepared(trace, spec.window, spec.gauss_windows, &chi)
            .map_err(|e| didt_err(&e))?;

        // Gaussian emergency-fraction estimate (paper §4.3 step 5).
        check_deadline(deadline)?;
        let gains = self
            .ctx
            .gain_model_family(
                spec.pdn_pct,
                spec.window,
                GAIN_CALIBRATION_SEED,
                spec.family,
            )
            .map_err(|e| didt_err(&e))?;
        let model = VarianceModel::with_boundary((*gains).clone(), None, spec.boundary);
        let estimator = EmergencyEstimator::new(model, spec.threshold);
        let (fraction, windows, mean_v) =
            estimator.estimate_trace(trace).map_err(|e| didt_err(&e))?;

        Ok(Json::obj(vec![
            ("trace_len", Json::num(trace.len() as f64)),
            ("window", Json::num(spec.window as f64)),
            ("family", Json::str(spec.family.name())),
            ("boundary", Json::str(spec.boundary.name())),
            ("scales", Json::Arr(scales)),
            (
                "gaussianity",
                Json::obj(vec![
                    ("tested", Json::num(gauss.tested as f64)),
                    ("accepted", Json::num(gauss.accepted as f64)),
                    ("rejected", Json::num(gauss.rejected as f64)),
                    ("degenerate", Json::num(gauss.degenerate as f64)),
                    ("acceptance_rate", Json::num(gauss.acceptance_rate())),
                    ("overall_variance", Json::num(gauss.overall_variance)),
                    (
                        "non_gaussian_variance",
                        Json::num(gauss.non_gaussian_variance),
                    ),
                ]),
            ),
            (
                "emergency",
                Json::obj(vec![
                    ("threshold", Json::num(spec.threshold)),
                    ("estimated_fraction", Json::num(fraction)),
                    ("windows", Json::num(windows as f64)),
                    ("mean_voltage", Json::num(mean_v)),
                ]),
            ),
        ]))
    }

    fn session_open(&self, spec: &SessionSpec) -> HandlerResult {
        check_analysis_spec(spec)?;
        // Probe the PDN now so a bad impedance fails at open, not at
        // the first verdict.
        self.ctx.pdn(spec.pdn_pct).map_err(|e| didt_err(&e))?;
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        if sessions.len() >= MAX_OPEN_SESSIONS {
            return Err((
                ErrorCode::Unavailable,
                format!("session table full ({MAX_OPEN_SESSIONS} open); close or retry later"),
            ));
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            SessionState {
                spec: spec.clone(),
                chunks: Vec::new(),
                total: 0,
                verdicts: 0,
            },
        );
        static OPENED: OnceLock<Arc<Counter>> = OnceLock::new();
        self.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        OPENED
            .get_or_init(|| MetricsRegistry::global().counter("serve.sessions.opened"))
            .incr();
        Ok(Json::obj(vec![
            ("session", Json::num(id as f64)),
            ("window", Json::num(spec.window as f64)),
            ("levels", Json::num(analysis_levels(spec) as f64)),
        ]))
    }

    fn session_push(&self, session: u64, samples: &[f64]) -> HandlerResult {
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(bad("session chunk holds non-finite samples"));
        }
        let received = samples.len();
        let chunk: Arc<[f64]> = Arc::from(samples);
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        let state = sessions
            .get_mut(&session)
            .ok_or_else(|| no_session(session))?;
        if state.total + received > MAX_SESSION_SAMPLES {
            return Err(bad(format!(
                "session would exceed {MAX_SESSION_SAMPLES} samples"
            )));
        }
        if received > 0 {
            state.chunks.push(chunk);
        }
        state.total += received;
        self.stats
            .session_samples
            .fetch_add(received as u64, Ordering::Relaxed);
        Ok(Json::obj(vec![
            ("session", Json::num(session as f64)),
            ("received", Json::num(received as f64)),
            ("total_samples", Json::num(state.total as f64)),
        ]))
    }

    fn session_verdict(&self, session: u64, deadline: Option<Instant>) -> HandlerResult {
        // Take a snapshot of the chunk list under the session lock and
        // copy the samples out of it after, so the lock is held neither
        // across the copy nor across the analysis; the live session
        // keeps taking pushes.
        let (spec, chunks) = {
            let mut sessions = self.sessions.lock().expect("session table poisoned");
            let state = sessions
                .get_mut(&session)
                .ok_or_else(|| no_session(session))?;
            if state.total < state.spec.window {
                return Err(bad(format!(
                    "session has {} samples, needs at least the {}-cycle window",
                    state.total, state.spec.window
                )));
            }
            state.verdicts += 1;
            (state.spec.clone(), state.chunks.clone())
        };
        self.stats.session_verdicts.fetch_add(1, Ordering::Relaxed);
        let samples = chunks.concat();
        let mut report = self.analyze(&samples, &spec, deadline)?;
        if let Json::Obj(pairs) = &mut report {
            pairs.insert(0, ("session".to_string(), Json::num(session as f64)));
        }
        Ok(report)
    }

    fn session_close(&self, session: u64) -> HandlerResult {
        let state = self
            .sessions
            .lock()
            .expect("session table poisoned")
            .remove(&session)
            .ok_or_else(|| no_session(session))?;
        static CLOSED: OnceLock<Arc<Counter>> = OnceLock::new();
        self.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
        CLOSED
            .get_or_init(|| MetricsRegistry::global().counter("serve.sessions.closed"))
            .incr();
        Ok(Json::obj(vec![
            ("session", Json::num(session as f64)),
            ("total_samples", Json::num(state.total as f64)),
            ("verdicts", Json::num(state.verdicts as f64)),
            ("levels", Json::num(analysis_levels(&state.spec) as f64)),
        ]))
    }

    fn snapshot_export(&self, max_entries: usize) -> HandlerResult {
        let entries = self.ctx.export_gain_entries(max_entries);
        Ok(Json::obj(vec![
            ("count", Json::num(entries.len() as f64)),
            (
                "entries",
                Json::Arr(entries.iter().map(snapshot_entry_to_json).collect()),
            ),
        ]))
    }

    fn snapshot_import(&self, entries: &[GainSnapshotEntry]) -> HandlerResult {
        let mut installed = 0usize;
        for entry in entries {
            if self.ctx.import_gain_entry(entry.clone()) {
                installed += 1;
            }
        }
        static IMPORTED: OnceLock<Arc<Counter>> = OnceLock::new();
        IMPORTED
            .get_or_init(|| MetricsRegistry::global().counter("serve.snapshot.imported"))
            .add(installed as u64);
        Ok(Json::obj(vec![
            ("received", Json::num(entries.len() as f64)),
            ("installed", Json::num(installed as f64)),
            ("skipped", Json::num((entries.len() - installed) as f64)),
        ]))
    }

    fn closed_loop(&self, spec: &ClosedLoopSpec, deadline: Option<Instant>) -> HandlerResult {
        let benchmark = parse_benchmark(&spec.benchmark)?;
        if spec.instructions == 0 || spec.instructions > 10_000_000 {
            return Err(bad("`instructions` must be in 1..=10000000"));
        }
        let point = SweepPoint {
            benchmark,
            pdn_pct: spec.pdn_pct,
            monitor_terms: spec.monitor_terms,
            controller: spec.controller,
        };
        let run = didt_bench::RunParams {
            instructions: spec.instructions,
            warmup_cycles: spec.warmup_cycles,
        };
        let (result, replayed_seed) = match &spec.replay {
            Some(path) => {
                let mut reader = open_recorded(path)?;
                // The meaningful seed of a replayed run is the one the
                // trace was recorded under, not the live point seed.
                let seed = reader.meta().seed;
                let result = self
                    .ctx
                    .run_replay_stream(&point, run, &mut reader, deadline)
                    .map_err(|e| match e {
                        StreamReplayError::Trace(TraceError::ReadAhead(_)) => (
                            ErrorCode::Internal,
                            "the replay could not start its read-ahead thread".to_string(),
                        ),
                        StreamReplayError::Trace(e) => recorded_error(path, &e),
                        StreamReplayError::Replay(e) => didt_err(&e),
                    })?;
                (result, Some(seed))
            }
            None => (
                self.ctx
                    .run_point_deadline(&point, run, deadline)
                    .map_err(|e| didt_err(&e))?,
                None,
            ),
        };
        let leg = |r: &didt_core::control::ClosedLoopResult| {
            Json::obj(vec![
                ("cycles", Json::num(r.cycles as f64)),
                ("instructions", Json::num(r.instructions as f64)),
                ("low_emergencies", Json::num(r.low_emergencies as f64)),
                ("high_emergencies", Json::num(r.high_emergencies as f64)),
                ("stall_cycles", Json::num(r.stall_cycles as f64)),
                ("nop_cycles", Json::num(r.nop_cycles as f64)),
                ("false_positives", Json::num(r.false_positives as f64)),
                ("v_min", Json::num(r.v_min)),
                ("v_max", Json::num(r.v_max)),
                ("mean_power", Json::num(r.mean_power)),
            ])
        };
        Ok(Json::obj(vec![
            ("benchmark", Json::str(benchmark.name())),
            ("controller", Json::str(point.controller.tag())),
            (
                "seed_hex",
                Json::str(seed_to_hex(replayed_seed.unwrap_or(result.seed))),
            ),
            ("baseline", leg(&result.baseline)),
            ("controlled", leg(&result.controlled)),
            ("slowdown_pct", Json::num(result.slowdown_pct())),
            (
                "false_positive_rate",
                Json::num(result.controlled.false_positive_rate()),
            ),
            (
                "control_fraction",
                Json::num(result.controlled.control_fraction()),
            ),
        ]))
    }

    fn design(&self, spec: &DesignSpec) -> HandlerResult {
        if !spec.window.is_power_of_two() || spec.window < 8 {
            return Err(bad("`window` must be a power of two, at least 8"));
        }
        let design = self
            .ctx
            .monitor_design(spec.pdn_pct, spec.window)
            .map_err(|e| didt_err(&e))?;
        let weights = design.weights();
        let kept = spec.terms.min(weights.len());
        let terms: Vec<Json> = weights[..kept]
            .iter()
            .map(|t| {
                Json::obj(vec![
                    (
                        "kind",
                        Json::str(match t.kind {
                            TermKind::Detail => "detail",
                            TermKind::Approximation => "approximation",
                        }),
                    ),
                    ("level", Json::num(t.level as f64)),
                    ("index", Json::num(t.index as f64)),
                    ("weight", Json::num(t.weight)),
                ])
            })
            .collect();
        Ok(Json::obj(vec![
            ("window", Json::num(spec.window as f64)),
            ("total_terms", Json::num(weights.len() as f64)),
            ("kept", Json::num(kept as f64)),
            (
                "truncation_error_bound",
                Json::num(design.truncation_error_bound(kept, spec.i_dev)),
            ),
            ("terms", Json::Arr(terms)),
        ]))
    }
}

fn parse_benchmark(name: &str) -> Result<Benchmark, (ErrorCode, String)> {
    name.parse::<Benchmark>()
        .map_err(|_| bad(format!("unknown benchmark `{name}`")))
}

/// Open a server-local `.dtrc` file named by a request. Every reader
/// rejection (missing file, bad magic, CRC mismatch, truncation, ...),
/// here or at any later chunk, is the *client's* problem — it named the
/// file — so the whole [`TraceError`] taxonomy maps to `BadRequest`
/// ([`recorded_error`]). The one exception is
/// [`TraceError::ReadAhead`], a host that cannot start a thread, which
/// a replay answers as `Internal`.
fn open_recorded(path: &str) -> Result<TraceReader<BufReader<File>>, (ErrorCode, String)> {
    TraceReader::open(std::path::Path::new(path)).map_err(|e| recorded_error(path, &e))
}

fn recorded_error(path: &str, e: &TraceError) -> (ErrorCode, String) {
    bad(format!("recorded trace `{path}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ResponsePayload;
    use didt_bench::ControllerSpec;

    fn service() -> Service {
        Service::standard().expect("standard system")
    }

    fn ok_result(resp: Response) -> Json {
        match resp.payload {
            ResponsePayload::Ok { result, .. } => result,
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn ping_and_stats_answer() {
        let svc = service();
        let ping = ok_result(svc.handle(
            &Request {
                id: 1,
                deadline_ms: None,
                body: RequestBody::Ping,
            },
            None,
        ));
        assert_eq!(
            ping.get("version").and_then(Json::as_u64),
            Some(PROTOCOL_VERSION)
        );
        let stats = ok_result(svc.handle(
            &Request {
                id: 2,
                deadline_ms: None,
                body: RequestBody::Stats,
            },
            None,
        ));
        assert!(stats.get("cache").is_some());
        assert_eq!(stats.get("worker_panics").and_then(Json::as_u64), Some(0));
        // The throughput block is always present, even before any
        // closed-loop request (rates read 0 rather than NaN).
        let sim = stats.get("sim").expect("sim block");
        assert!(sim.get("cycles_per_sec").and_then(Json::as_f64).is_some());
        let wait = stats.get("queue_wait_ns").expect("queue_wait_ns block");
        for key in ["count", "p50", "p95", "p99"] {
            assert!(wait.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
    }

    #[test]
    fn characterize_synth_is_deterministic_and_complete() {
        let svc = service();
        let req = Request {
            id: 7,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                window: 64,
                gauss_windows: 40,
                trace: TraceSource::Synth {
                    benchmark: "gzip".to_string(),
                    seed: 0xD1D7,
                    warmup: 500,
                    cycles: 2_048,
                },
                ..CharacterizeSpec::default()
            }),
        };
        let a = ok_result(svc.handle(&req, None));
        let b = ok_result(svc.handle(&req, None));
        assert_eq!(a.render(), b.render(), "same spec must give same answer");
        assert_eq!(
            a.get("scales").and_then(Json::as_arr).map(<[Json]>::len),
            Some(6)
        );
        let frac = a
            .get("emergency")
            .and_then(|e| e.get("estimated_fraction"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn characterize_rejects_bad_specs() {
        let svc = service();
        let mk = |spec: CharacterizeSpec| Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Characterize(spec),
        };
        // Non-power-of-two window.
        let resp = svc.handle(
            &mk(CharacterizeSpec {
                window: 100,
                ..CharacterizeSpec::default()
            }),
            None,
        );
        assert!(matches!(
            resp.payload,
            ResponsePayload::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // Trace shorter than the window.
        let resp = svc.handle(
            &mk(CharacterizeSpec {
                trace: TraceSource::Inline(vec![1.0; 16]),
                window: 64,
                ..CharacterizeSpec::default()
            }),
            None,
        );
        assert!(matches!(
            resp.payload,
            ResponsePayload::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // Unknown benchmark.
        let resp = svc.handle(
            &mk(CharacterizeSpec {
                trace: TraceSource::Synth {
                    benchmark: "doom".to_string(),
                    seed: 1,
                    warmup: 0,
                    cycles: 1_024,
                },
                ..CharacterizeSpec::default()
            }),
            None,
        );
        assert!(matches!(resp.payload, ResponsePayload::Error { .. }));
    }

    #[test]
    fn closed_loop_matches_batch_runner_bitwise() {
        let svc = service();
        let spec = ClosedLoopSpec {
            benchmark: "gzip".to_string(),
            pdn_pct: 150.0,
            monitor_terms: 13,
            controller: ControllerSpec::WaveletThreshold {
                low: 0.975,
                high: 1.025,
                hysteresis: 0.004,
                delay: 1,
            },
            instructions: 2_000,
            warmup_cycles: 1_000,
            replay: None,
        };
        let resp = ok_result(svc.handle(
            &Request {
                id: 3,
                deadline_ms: None,
                body: RequestBody::ClosedLoop(spec),
            },
            None,
        ));
        // The same point through the batch path, on a fresh context.
        let ctx = SweepContext::standard().unwrap();
        let want = ctx
            .run_point(
                &SweepPoint {
                    benchmark: Benchmark::Gzip,
                    pdn_pct: 150.0,
                    monitor_terms: 13,
                    controller: ControllerSpec::WaveletThreshold {
                        low: 0.975,
                        high: 1.025,
                        hysteresis: 0.004,
                        delay: 1,
                    },
                },
                didt_bench::RunParams {
                    instructions: 2_000,
                    warmup_cycles: 1_000,
                },
            )
            .unwrap();
        let got = |key: &str, field: &str| {
            resp.get(key)
                .and_then(|l| l.get(field))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(got("controlled", "cycles") as u64, want.controlled.cycles);
        assert_eq!(
            got("controlled", "v_min").to_bits(),
            want.controlled.v_min.to_bits(),
            "voltage must survive the wire bit-exactly"
        );
        assert_eq!(
            got("baseline", "mean_power").to_bits(),
            want.baseline.mean_power.to_bits()
        );
        assert_eq!(
            resp.get("seed_hex").and_then(Json::as_str).unwrap(),
            seed_to_hex(want.seed)
        );
    }

    #[test]
    fn recorded_characterize_matches_inline_of_the_same_currents() {
        let svc = service();
        let records = svc.context().record_trace(
            Benchmark::Gzip,
            svc.context().system().processor(),
            0xD1D7,
            500,
            2_048,
        );
        let dir =
            std::env::temp_dir().join(format!("didt_serve_recorded_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gzip.dtrc");
        let meta = didt_trace::TraceMeta::new(didt_trace::RecordKind::Full, "gzip");
        didt_trace::write_path(&path, &meta, &records).unwrap();
        let mk = |trace| Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Characterize(CharacterizeSpec {
                window: 64,
                gauss_windows: 40,
                trace,
                ..CharacterizeSpec::default()
            }),
        };
        let recorded = ok_result(svc.handle(
            &mk(TraceSource::Recorded {
                path: path.display().to_string(),
            }),
            None,
        ));
        let inline = ok_result(svc.handle(
            &mk(TraceSource::Inline(
                records.iter().map(|r| r.current).collect(),
            )),
            None,
        ));
        assert_eq!(
            recorded.render(),
            inline.render(),
            "a recorded file must characterize exactly like its currents inline"
        );
        // A nonexistent path is the client's error, not a panic.
        let resp = svc.handle(
            &mk(TraceSource::Recorded {
                path: dir.join("no_such.dtrc").display().to_string(),
            }),
            None,
        );
        assert!(matches!(
            resp.payload,
            ResponsePayload::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn closed_loop_replay_reproduces_the_recorded_live_run() {
        use didt_core::control::{ClosedLoop, ClosedLoopConfig, NoControl};

        let svc = service();
        let ctx = svc.context();
        let pdn = ctx.pdn(150.0).unwrap();
        // The exact config the service's live path would derive for this
        // (benchmark, pct, run) cell.
        let cfg = ClosedLoopConfig {
            seed: didt_bench::workload_seed(Benchmark::Gzip, 150.0),
            warmup_cycles: 500,
            instructions: 2_000,
            ..ClosedLoopConfig::standard(Benchmark::Gzip)
        };
        let harness = ClosedLoop::new(*ctx.system().processor(), *pdn, cfg);
        let live = harness.run_recording(&mut NoControl).unwrap();
        let dir =
            std::env::temp_dir().join(format!("didt_serve_replay_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gzip_run.dtrc");
        didt_trace::write_path(&path, &live.meta(), &live.records).unwrap();

        let resp = ok_result(svc.handle(
            &Request {
                id: 2,
                deadline_ms: None,
                body: RequestBody::ClosedLoop(ClosedLoopSpec {
                    benchmark: "gzip".to_string(),
                    pdn_pct: 150.0,
                    monitor_terms: 13,
                    controller: ControllerSpec::None,
                    instructions: 2_000,
                    warmup_cycles: 500,
                    replay: Some(path.display().to_string()),
                }),
            },
            None,
        ));
        let got = |key: &str, field: &str| {
            resp.get(key)
                .and_then(|l| l.get(field))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(got("baseline", "cycles") as u64, live.result.cycles);
        assert_eq!(
            got("baseline", "v_min").to_bits(),
            live.result.v_min.to_bits(),
            "replaying the file must reproduce the live run bit-exactly"
        );
        assert_eq!(
            got("baseline", "low_emergencies") as u64,
            live.result.low_emergencies
        );
        // The response reports the seed the trace was recorded under.
        assert_eq!(
            resp.get("seed_hex").and_then(Json::as_str).unwrap(),
            seed_to_hex(live.seed)
        );
        // The Stats trace block now shows the reader/replay activity.
        let stats = ok_result(svc.handle(
            &Request {
                id: 3,
                deadline_ms: None,
                body: RequestBody::Stats,
            },
            None,
        ));
        let trace = stats.get("trace").expect("trace block");
        assert!(trace.get("read_chunks").and_then(Json::as_u64).unwrap() >= 1);
        assert!(
            trace.get("replay_cycles").and_then(Json::as_u64).unwrap() >= live.records.len() as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let svc = service();
        let resp = svc.handle(
            &Request {
                id: 4,
                deadline_ms: Some(0),
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
                    instructions: 50_000,
                    warmup_cycles: 5_000,
                    replay: None,
                }),
            },
            Some(Instant::now()),
        );
        assert!(matches!(
            resp.payload,
            ResponsePayload::Error {
                code: ErrorCode::DeadlineExceeded,
                ..
            }
        ));
    }

    fn session_req(id: u64, body: RequestBody) -> Request {
        Request {
            id,
            deadline_ms: None,
            body,
        }
    }

    #[test]
    fn session_verdict_is_bit_identical_to_oneshot_characterize() {
        let svc = service();
        // A deterministic synthetic trace, pushed in ragged chunks so
        // chunk boundaries cross window alignments.
        let trace: Vec<f64> = (0..1_234)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 100.0)
            .collect();
        let spec = SessionSpec {
            window: 64,
            gauss_windows: 40,
            ..SessionSpec::default()
        };
        let open = ok_result(svc.handle(
            &session_req(1, RequestBody::SessionOpen(spec.clone())),
            None,
        ));
        let sid = open.get("session").and_then(Json::as_u64).unwrap();
        let mut offset = 0usize;
        for chunk_len in [1, 7, 100, 63, 64, 500, 499] {
            let end = (offset + chunk_len).min(trace.len());
            ok_result(svc.handle(
                &session_req(
                    2,
                    RequestBody::SessionPush {
                        session: sid,
                        samples: trace[offset..end].to_vec(),
                    },
                ),
                None,
            ));
            offset = end;
        }
        assert_eq!(offset, trace.len(), "chunk plan must cover the trace");
        let verdict = ok_result(svc.handle(
            &session_req(3, RequestBody::SessionVerdict { session: sid }),
            None,
        ));
        let oneshot = ok_result(svc.handle(
            &session_req(
                4,
                RequestBody::Characterize(CharacterizeSpec {
                    trace: TraceSource::Inline(trace),
                    window: spec.window,
                    gauss_windows: spec.gauss_windows,
                    ..CharacterizeSpec::default()
                }),
            ),
            None,
        ));
        // Strip the verdict's session id; every remaining byte — every
        // f64 rendered shortest-roundtrip — must match the one-shot.
        let stripped = match verdict {
            Json::Obj(pairs) => {
                Json::Obj(pairs.into_iter().filter(|(k, _)| k != "session").collect())
            }
            other => panic!("verdict must be an object, got {other:?}"),
        };
        assert_eq!(
            stripped.render(),
            oneshot.render(),
            "session verdict must be bit-identical to one-shot characterize"
        );
    }

    #[test]
    fn session_verdicts_are_incremental_and_close_frees_the_id() {
        let svc = service();
        let open = ok_result(svc.handle(
            &session_req(
                1,
                RequestBody::SessionOpen(SessionSpec {
                    window: 32,
                    gauss_windows: 20,
                    ..SessionSpec::default()
                }),
            ),
            None,
        ));
        let sid = open.get("session").and_then(Json::as_u64).unwrap();
        // Too few samples for a verdict: a structured BadRequest.
        let push = |svc: &Service, n: usize| {
            ok_result(svc.handle(
                &session_req(
                    2,
                    RequestBody::SessionPush {
                        session: sid,
                        samples: (0..n).map(|i| 100.0 + (i % 5) as f64).collect(),
                    },
                ),
                None,
            ))
        };
        push(&svc, 16);
        let early = svc.handle(
            &session_req(3, RequestBody::SessionVerdict { session: sid }),
            None,
        );
        assert!(matches!(
            early.payload,
            ResponsePayload::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // Enough samples: verdicts at two horizons differ (more data).
        push(&svc, 48);
        let v1 = ok_result(svc.handle(
            &session_req(4, RequestBody::SessionVerdict { session: sid }),
            None,
        ));
        assert_eq!(v1.get("trace_len").and_then(Json::as_u64), Some(64));
        push(&svc, 64);
        let v2 = ok_result(svc.handle(
            &session_req(5, RequestBody::SessionVerdict { session: sid }),
            None,
        ));
        assert_eq!(v2.get("trace_len").and_then(Json::as_u64), Some(128));
        // Close reports totals; the id is then unknown.
        let closed = ok_result(svc.handle(
            &session_req(6, RequestBody::SessionClose { session: sid }),
            None,
        ));
        assert_eq!(
            closed.get("total_samples").and_then(Json::as_u64),
            Some(128)
        );
        assert_eq!(closed.get("verdicts").and_then(Json::as_u64), Some(2));
        let gone = svc.handle(
            &session_req(
                7,
                RequestBody::SessionPush {
                    session: sid,
                    samples: vec![1.0],
                },
            ),
            None,
        );
        assert!(matches!(
            gone.payload,
            ResponsePayload::Error {
                code: ErrorCode::SessionNotFound,
                ..
            }
        ));
        // Stats surfaces the lifecycle.
        let stats = ok_result(svc.handle(&session_req(8, RequestBody::Stats), None));
        let sessions = stats.get("sessions").expect("sessions block");
        assert_eq!(sessions.get("open").and_then(Json::as_u64), Some(0));
        assert_eq!(sessions.get("opened").and_then(Json::as_u64), Some(1));
        assert_eq!(sessions.get("closed").and_then(Json::as_u64), Some(1));
        assert_eq!(sessions.get("verdicts").and_then(Json::as_u64), Some(2));
    }

    /// A response's outcome: its report rendered without the session id
    /// a verdict adds, or its error.
    fn outcome(resp: Response) -> Result<String, (ErrorCode, String)> {
        match resp.payload {
            ResponsePayload::Ok {
                result: Json::Obj(pairs),
                ..
            } => {
                Ok(Json::Obj(pairs.into_iter().filter(|(k, _)| k != "session").collect()).render())
            }
            ResponsePayload::Error { code, message } => Err((code, message)),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn sessions_accept_every_basis() {
        let svc = service();
        let trace: Vec<f64> = (0..1_056)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + 100.0 + (i % 11) as f64 * 0.1)
            .collect();
        let open = |spec: &SessionSpec| {
            let open = ok_result(svc.handle(
                &session_req(1, RequestBody::SessionOpen(spec.clone())),
                None,
            ));
            open.get("session").and_then(Json::as_u64).unwrap()
        };
        let push = |sid, samples: &[f64]| {
            ok_result(svc.handle(
                &session_req(
                    2,
                    RequestBody::SessionPush {
                        session: sid,
                        samples: samples.to_vec(),
                    },
                ),
                None,
            ))
        };
        let verdict = |sid| {
            outcome(svc.handle(
                &session_req(3, RequestBody::SessionVerdict { session: sid }),
                None,
            ))
        };
        let one_shot = |spec: &SessionSpec, samples: &[f64]| {
            outcome(svc.handle(
                &session_req(
                    3,
                    RequestBody::Characterize(CharacterizeSpec {
                        trace: TraceSource::Inline(samples.to_vec()),
                        pdn_pct: spec.pdn_pct,
                        window: spec.window,
                        threshold: spec.threshold,
                        significance: spec.significance,
                        gauss_windows: spec.gauss_windows,
                        family: spec.family,
                        boundary: spec.boundary,
                    }),
                ),
                None,
            ))
        };
        for family in WaveletFamily::ALL {
            for boundary in BoundaryMode::ALL {
                let spec = SessionSpec {
                    window: 32,
                    gauss_windows: 10,
                    family,
                    boundary,
                    ..SessionSpec::default()
                };
                let sid = open(&spec);
                let mut offset = 0;
                for chunk_len in [1, 30, 33, 100, 400, 492] {
                    push(sid, &trace[offset..offset + chunk_len]);
                    offset += chunk_len;
                }
                assert_eq!(offset, trace.len(), "chunk plan must cover the trace");
                let got = verdict(sid);
                let case = format!("{}/{}", family.name(), boundary.name());
                assert!(got.is_ok(), "{case}: {got:?}");
                assert_eq!(got, one_shot(&spec, &trace), "{case}");
            }
        }

        // A periodic db4 analysis at window 32 runs 3 levels, so it needs
        // a length divisible by 8: the verdict over 1,001 samples is the
        // one-shot's bad_request, and the session keeps taking pushes.
        let spec = SessionSpec {
            window: 32,
            gauss_windows: 10,
            family: WaveletFamily::Db4,
            boundary: BoundaryMode::Periodic,
            ..SessionSpec::default()
        };
        let sid = open(&spec);
        push(sid, &trace[..1_001]);
        let got = verdict(sid);
        assert!(
            matches!(&got, Err((ErrorCode::BadRequest, m)) if m.contains("divisible")),
            "{got:?}"
        );
        assert_eq!(got, one_shot(&spec, &trace[..1_001]));
        push(sid, &trace[1_001..1_008]);
        assert_eq!(verdict(sid), one_shot(&spec, &trace[..1_008]));
        assert!(verdict(sid).is_ok());
    }

    #[test]
    fn snapshot_export_import_warms_a_fresh_service() {
        let svc = service();
        // Calibrate two models by serving characterize requests.
        let characterize = |id, pdn_pct, family| {
            session_req(
                id,
                RequestBody::Characterize(CharacterizeSpec {
                    trace: TraceSource::Inline((0..256).map(|i| 100.0 + (i % 7) as f64).collect()),
                    window: 64,
                    gauss_windows: 20,
                    pdn_pct,
                    family,
                    ..CharacterizeSpec::default()
                }),
            )
        };
        ok_result(svc.handle(&characterize(1, 100.0, WaveletFamily::Haar), None));
        ok_result(svc.handle(&characterize(2, 150.0, WaveletFamily::Db4), None));
        let export = ok_result(svc.handle(
            &session_req(3, RequestBody::SnapshotExport { max_entries: 64 }),
            None,
        ));
        assert_eq!(export.get("count").and_then(Json::as_u64), Some(2));
        // Ship the entries to a fresh service over the wire shape.
        let entries: Vec<_> = export
            .get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| crate::protocol::snapshot_entry_from_json(e).unwrap())
            .collect();
        let fresh = service();
        let import = ok_result(fresh.handle(
            &session_req(4, RequestBody::SnapshotImport { entries }),
            None,
        ));
        assert_eq!(import.get("installed").and_then(Json::as_u64), Some(2));
        // The warmed service answers the same specs without calibrating.
        let a = ok_result(svc.handle(&characterize(5, 100.0, WaveletFamily::Haar), None));
        let b = ok_result(fresh.handle(&characterize(6, 100.0, WaveletFamily::Haar), None));
        assert_eq!(a.render(), b.render(), "warmed answer must match origin");
        assert_eq!(
            fresh.context().cache_stats().gains,
            0,
            "warmed model must not be recomputed"
        );
    }

    #[test]
    fn design_reports_sorted_terms_and_bound() {
        let svc = service();
        let resp = ok_result(svc.handle(
            &Request {
                id: 5,
                deadline_ms: None,
                body: RequestBody::Design(DesignSpec {
                    pdn_pct: 150.0,
                    window: 64,
                    terms: 13,
                    i_dev: 10.0,
                }),
            },
            None,
        ));
        assert_eq!(resp.get("kept").and_then(Json::as_u64), Some(13));
        let terms = resp.get("terms").and_then(Json::as_arr).unwrap();
        assert_eq!(terms.len(), 13);
        let w0 = terms[0].get("weight").and_then(Json::as_f64).unwrap();
        let w12 = terms[12].get("weight").and_then(Json::as_f64).unwrap();
        assert!(w0.abs() >= w12.abs(), "terms must be sorted by |weight|");
        assert!(
            resp.get("truncation_error_bound")
                .and_then(Json::as_f64)
                .unwrap()
                >= 0.0
        );
    }
}
