//! The router: consistent-hash sharding front for a worker fleet.
//!
//! ```text
//!  clients ──► router accept ──► connection threads (1/conn)
//!                                     │ shard_key() → ring → worker
//!                                     ▼
//!                         worker conn pools (per worker)
//!                                     │        ▲
//!                                     ▼        │ health probes,
//!                               worker servers │ cache warming
//! ```
//!
//! Design points:
//!
//! * **Sharding follows the calibration key.** A request's
//!   [`crate::protocol::Request::shard_key`] — FNV-1a over (family,
//!   boundary, window, PDN bits), the service's only calibration
//!   identity — picks its worker on a consistent-hash ring
//!   ([`super::HashRing`]). Same key, same worker: each worker's memo
//!   caches stay hot and pairwise disjoint.
//! * **Sessions are affine.** `SessionOpen` shards like the matching
//!   one-shot `Characterize`; the router records which worker owns the
//!   session, rewrites session ids (router-scoped ids outlive worker
//!   restarts of *other* workers), and pins every follow-up to the
//!   owner. A follow-up for a dead owner answers `unavailable` — the
//!   streaming state died with the worker, and silently re-opening
//!   elsewhere would break the bit-identity contract.
//! * **Failover re-routes, rejection stays bounded.** A forward that
//!   fails at the transport level marks the worker down, bumps the
//!   route-table version, and walks the ring to the next healthy
//!   worker (`serve.router.rerouted` counts the hops). Per-worker
//!   in-flight is capped; a saturated worker answers a structured
//!   `Rejected` with a retry hint instead of spilling to a cold shard.
//! * **Samples travel in the form each worker reads.** Each health
//!   probe records the worker's protocol version; requests that carry
//!   samples go to a v3 worker as block frames and to a v2 worker as
//!   JSON, whatever form the client used.
//! * **Joining workers are warmed first.** The health prober notices a
//!   down→up transition, copies hot gain calibrations from a healthy
//!   peer ([`super::warm_worker`]), and only then re-enables the
//!   worker — its first routed request per warmed shard is a cache hit.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use didt_telemetry::{Counter, Json, MetricsRegistry};

use super::ring::HashRing;
use super::snapshot::warm_worker;
use crate::front::{send_response, ConnWriter, Front, Handler, READ_POLL};
use crate::protocol::{
    write_request, ErrorCode, FrameError, FrameReader, Request, RequestBody, Response,
    ResponsePayload, BLOCK_FRAME_VERSION, MAX_FRAME_LEN, PROTOCOL_VERSION, SNAPSHOT_MAX_ENTRIES,
};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker addresses; ring membership is fixed for the router's
    /// lifetime (health toggles, membership does not).
    pub workers: Vec<String>,
    /// Virtual nodes per worker on the ring.
    pub replicas: usize,
    /// Health probe cadence.
    pub probe_interval_ms: u64,
    /// Concurrent forwards allowed per worker before the router answers
    /// `Rejected` (the router-side queue-depth bound).
    pub max_in_flight: u64,
    /// Backoff hint sent with router-side rejections.
    pub retry_after_ms: u64,
    /// Give up on a single forward after this long and treat the worker
    /// as dead (covers a worker wedged mid-request without a deadline).
    pub forward_timeout_ms: u64,
    /// Largest accepted frame payload (client- and worker-side).
    pub max_frame_len: usize,
    /// Warm a rejoining worker's caches from a healthy peer before
    /// routing traffic to it.
    pub warm_on_rejoin: bool,
}

impl RouterConfig {
    /// A config for `addr` fronting `workers` with the defaults:
    /// 64 replicas, 250 ms probes, 32 in-flight per worker, 50 ms retry
    /// hint, 120 s forward timeout, warming on rejoin.
    #[must_use]
    pub fn new(addr: impl Into<String>, workers: Vec<String>) -> Self {
        RouterConfig {
            addr: addr.into(),
            workers,
            replicas: 64,
            probe_interval_ms: 250,
            max_in_flight: 32,
            retry_after_ms: 50,
            forward_timeout_ms: 120_000,
            max_frame_len: MAX_FRAME_LEN,
            warm_on_rejoin: true,
        }
    }
}

/// Idle worker connections kept per worker.
const POOL_MAX: usize = 8;

/// Wall-clock budget for one health probe round trip.
const PROBE_TIMEOUT: Duration = Duration::from_millis(1_000);

/// One pooled connection to a worker: exclusive use between checkout
/// and return, so the strict request→response discipline holds.
struct WorkerConn {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Frame scratch for block frames written on this connection.
    scratch: Vec<u8>,
}

/// Router-side view of one worker.
struct WorkerSlot {
    addr: String,
    healthy: AtomicBool,
    /// The worker's last probe reported a version that reads block
    /// frames.
    reads_blocks: AtomicBool,
    in_flight: AtomicU64,
    pool: Mutex<Vec<WorkerConn>>,
}

/// Where an open streaming session lives.
struct SessionRoute {
    worker: usize,
    remote: u64,
}

#[derive(Default)]
struct RouterStats {
    forwarded: AtomicU64,
    rerouted: AtomicU64,
    rejected: AtomicU64,
    unavailable: AtomicU64,
    sessions_opened: AtomicU64,
    warmed: AtomicU64,
    route_version: AtomicU64,
}

struct Shared {
    config: RouterConfig,
    ring: HashRing,
    slots: Vec<WorkerSlot>,
    sessions: Mutex<HashMap<u64, SessionRoute>>,
    next_session: AtomicU64,
    stats: RouterStats,
    shutdown: AtomicBool,
}

impl Handler for Shared {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn handle(&self, request: Request, writer: &ConnWriter) -> std::io::Result<()> {
        send_response(writer, &handle_request(self, request))
    }
}

/// Final counters returned by [`Router::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterReport {
    /// Requests forwarded to workers (answers of any status).
    pub forwarded: u64,
    /// Failover hops: forwards re-routed past a dead worker.
    pub rerouted: u64,
    /// Router-side overload rejections (in-flight cap).
    pub rejected: u64,
    /// Requests answered `unavailable` (no healthy worker / lost
    /// session owner).
    pub unavailable: u64,
    /// Streaming sessions opened through the router.
    pub sessions_opened: u64,
    /// Rejoining workers warmed from a peer before re-enabling.
    pub warmed: u64,
}

/// A running shard router.
pub struct Router {
    shared: Arc<Shared>,
    front: Front<Shared>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Bind, probe the fleet once, and start accepting.
    ///
    /// Workers that fail the initial probe start unhealthy; the prober
    /// brings them in (and warms them) when they come up.
    ///
    /// # Errors
    ///
    /// Propagates bind failure, and rejects an empty worker list.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        if config.workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one worker address",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let slots = config
            .workers
            .iter()
            .map(|addr| WorkerSlot {
                addr: addr.clone(),
                healthy: AtomicBool::new(false),
                reads_blocks: AtomicBool::new(false),
                in_flight: AtomicU64::new(0),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        let shared = Arc::new(Shared {
            ring: HashRing::new(config.workers.len(), config.replicas),
            slots,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            stats: RouterStats::default(),
            shutdown: AtomicBool::new(false),
            config,
        });

        // Initial synchronous probe round: a cold cluster start has
        // nothing to warm, so up-transitions here skip the snapshot.
        for w in 0..shared.slots.len() {
            let up = probe_worker(&shared, w);
            shared.slots[w].healthy.store(up, Ordering::SeqCst);
        }
        shared.stats.route_version.fetch_add(1, Ordering::Relaxed);

        let front = Front::start(
            listener,
            "didt-router",
            shared.config.max_frame_len,
            Arc::clone(&shared),
        )?;
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("didt-router-probe".to_string())
                .spawn(move || prober_loop(&shared))
                .expect("spawn prober")
        };
        Ok(Router {
            shared,
            front,
            prober: Some(prober),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Workers currently marked healthy.
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        self.shared
            .slots
            .iter()
            .filter(|s| s.healthy.load(Ordering::SeqCst))
            .count()
    }

    /// Stop accepting, let in-flight forwards finish, join every
    /// thread. Workers are not touched — they are independent
    /// processes.
    #[must_use]
    pub fn shutdown(mut self) -> RouterReport {
        self.front.stop();
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
        let stats = &self.shared.stats;
        RouterReport {
            forwarded: stats.forwarded.load(Ordering::Relaxed),
            rerouted: stats.rerouted.load(Ordering::Relaxed),
            rejected: stats.rejected.load(Ordering::Relaxed),
            unavailable: stats.unavailable.load(Ordering::Relaxed),
            sessions_opened: stats.sessions_opened.load(Ordering::Relaxed),
            warmed: stats.warmed.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Request routing
// ---------------------------------------------------------------------------

fn handle_request(shared: &Shared, request: Request) -> Response {
    match &request.body {
        RequestBody::Ping => Response::ok(
            request.id,
            "ping",
            Json::obj(vec![
                ("version", Json::num(PROTOCOL_VERSION as f64)),
                ("role", Json::str("router")),
                ("workers", Json::num(shared.slots.len() as f64)),
            ]),
        ),
        RequestBody::Stats => Response::ok(request.id, "stats", router_stats(shared)),
        // Snapshot administration addresses one node's cache; routing
        // it through a shard hash would warm an arbitrary worker.
        RequestBody::SnapshotExport { .. } | RequestBody::SnapshotImport { .. } => Response::error(
            request.id,
            ErrorCode::BadRequest,
            "snapshot administration is node-local; connect to a worker directly",
        ),
        _ => {
            if let Some(session) = request.body.session_id() {
                forward_session_follow_up(shared, request, session)
            } else if let Some(key) = request.shard_key() {
                forward_sharded(shared, &request, key)
            } else {
                // Every kind is either local, session-affine, or
                // shard-keyed; a new kind falling through is a bug.
                Response::error(
                    request.id,
                    ErrorCode::Internal,
                    format!("kind `{}` has no route", request.body.kind()),
                )
            }
        }
    }
}

/// Route a shard-keyed request, failing over past dead workers.
fn forward_sharded(shared: &Shared, request: &Request, key: u64) -> Response {
    static REJECTED: OnceLock<Arc<Counter>> = OnceLock::new();
    static REROUTED: OnceLock<Arc<Counter>> = OnceLock::new();
    let metrics = MetricsRegistry::global();
    let mut attempted = vec![false; shared.slots.len()];
    let mut hops = 0u64;
    loop {
        let Some(w) = shared.ring.route_healthy(key, |i| {
            !attempted[i] && shared.slots[i].healthy.load(Ordering::SeqCst)
        }) else {
            shared.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            return Response::error(
                request.id,
                ErrorCode::Unavailable,
                "no healthy worker for this shard",
            );
        };
        attempted[w] = true;
        let slot = &shared.slots[w];
        if slot.in_flight.load(Ordering::SeqCst) >= shared.config.max_in_flight {
            // The owner is saturated. Rejecting (with a retry hint)
            // keeps the shard's cache affinity; spilling to another
            // worker would trade a short wait for a cold calibration.
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            REJECTED
                .get_or_init(|| metrics.counter("serve.router.rejected"))
                .incr();
            return Response::rejected(
                request.id,
                shared.config.retry_after_ms,
                slot.in_flight.load(Ordering::SeqCst),
            );
        }
        match forward_once(shared, w, request) {
            Ok(response) => {
                shared.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                forwarded_counter().incr();
                if hops > 0 {
                    shared.stats.rerouted.fetch_add(hops, Ordering::Relaxed);
                    REROUTED
                        .get_or_init(|| metrics.counter("serve.router.rerouted"))
                        .add(hops);
                }
                if matches!(request.body, RequestBody::SessionOpen(_)) {
                    return adopt_session(shared, request.id, w, response);
                }
                return response;
            }
            Err(ForwardFail::Shutdown) => {
                shared.stats.unavailable.fetch_add(1, Ordering::Relaxed);
                return Response::error(request.id, ErrorCode::Unavailable, "router shutting down");
            }
            Err(ForwardFail::Conn) => {
                mark_down(shared, w);
                hops += 1;
            }
        }
    }
}

/// The `serve.router.forwarded` counter, shared by both forward paths.
fn forwarded_counter() -> &'static Arc<Counter> {
    static FORWARDED: OnceLock<Arc<Counter>> = OnceLock::new();
    FORWARDED.get_or_init(|| MetricsRegistry::global().counter("serve.router.forwarded"))
}

/// Pin a session follow-up to the worker that owns the session.
fn forward_session_follow_up(shared: &Shared, mut request: Request, session: u64) -> Response {
    let route = {
        let sessions = shared.sessions.lock().expect("sessions poisoned");
        sessions.get(&session).map(|r| (r.worker, r.remote))
    };
    let Some((worker, remote)) = route else {
        return Response::error(
            request.id,
            ErrorCode::SessionNotFound,
            format!("session {session} is not open on this router"),
        );
    };
    if !shared.slots[worker].healthy.load(Ordering::SeqCst) {
        shared
            .sessions
            .lock()
            .expect("sessions poisoned")
            .remove(&session);
        shared.stats.unavailable.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            request.id,
            ErrorCode::Unavailable,
            format!("session {session} was lost: its worker is down"),
        );
    }
    rewrite_session_id(&mut request.body, remote);
    match forward_once(shared, worker, &request) {
        Ok(response) => {
            shared.stats.forwarded.fetch_add(1, Ordering::Relaxed);
            forwarded_counter().incr();
            if matches!(request.body, RequestBody::SessionClose { .. }) {
                shared
                    .sessions
                    .lock()
                    .expect("sessions poisoned")
                    .remove(&session);
            }
            rewrite_result_session(response, session)
        }
        Err(ForwardFail::Shutdown) => {
            shared.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            Response::error(request.id, ErrorCode::Unavailable, "router shutting down")
        }
        Err(ForwardFail::Conn) => {
            // The streaming state died with the worker; a session
            // follow-up is not idempotent, so no failover retry.
            mark_down(shared, worker);
            shared.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            Response::error(
                request.id,
                ErrorCode::Unavailable,
                format!("session {session} was lost: its worker died mid-request"),
            )
        }
    }
}

/// On a successful `SessionOpen`, record the route and swap the
/// worker-local session id for a router-scoped one.
fn adopt_session(shared: &Shared, id: u64, worker: usize, response: Response) -> Response {
    let ResponsePayload::Ok { kind, result } = response.payload else {
        return response;
    };
    let Some(remote) = result.get("session").and_then(Json::as_u64) else {
        return Response::error(
            id,
            ErrorCode::Internal,
            "worker session_open result lacks `session`",
        );
    };
    let router_session = shared.next_session.fetch_add(1, Ordering::SeqCst);
    shared
        .sessions
        .lock()
        .expect("sessions poisoned")
        .insert(router_session, SessionRoute { worker, remote });
    static OPENED: OnceLock<Arc<Counter>> = OnceLock::new();
    shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
    OPENED
        .get_or_init(|| MetricsRegistry::global().counter("serve.router.sessions.opened"))
        .incr();
    rewrite_result_session(
        Response {
            id,
            payload: ResponsePayload::Ok { kind, result },
        },
        router_session,
    )
}

/// Substitute the worker-local session id into a session-affine body.
fn rewrite_session_id(body: &mut RequestBody, remote: u64) {
    if let RequestBody::SessionPush { session, .. }
    | RequestBody::SessionVerdict { session }
    | RequestBody::SessionClose { session } = body
    {
        *session = remote;
    }
}

/// Rewrite a worker response's `session` field back to the
/// router-scoped id, so clients only ever see one id space.
fn rewrite_result_session(response: Response, router_session: u64) -> Response {
    let Response { id, payload } = response;
    let payload = match payload {
        ResponsePayload::Ok { kind, result } => {
            let result = match result {
                Json::Obj(mut pairs) => {
                    for (k, v) in &mut pairs {
                        if k == "session" {
                            *v = Json::num(router_session as f64);
                        }
                    }
                    Json::Obj(pairs)
                }
                other => other,
            };
            ResponsePayload::Ok { kind, result }
        }
        other => other,
    };
    Response { id, payload }
}

fn router_stats(shared: &Shared) -> Json {
    let stats = &shared.stats;
    let workers = shared
        .slots
        .iter()
        .map(|slot| {
            Json::obj(vec![
                ("addr", Json::str(slot.addr.as_str())),
                ("healthy", Json::Bool(slot.healthy.load(Ordering::SeqCst))),
                (
                    "in_flight",
                    Json::num(slot.in_flight.load(Ordering::SeqCst) as f64),
                ),
            ])
        })
        .collect();
    let sessions_open = shared.sessions.lock().expect("sessions poisoned").len();
    Json::obj(vec![
        ("role", Json::str("router")),
        ("protocol_version", Json::num(PROTOCOL_VERSION as f64)),
        (
            "router",
            Json::obj(vec![
                (
                    "route_table_version",
                    Json::num(stats.route_version.load(Ordering::Relaxed) as f64),
                ),
                (
                    "forwarded",
                    Json::num(stats.forwarded.load(Ordering::Relaxed) as f64),
                ),
                (
                    "rerouted",
                    Json::num(stats.rerouted.load(Ordering::Relaxed) as f64),
                ),
                (
                    "rejected",
                    Json::num(stats.rejected.load(Ordering::Relaxed) as f64),
                ),
                (
                    "unavailable",
                    Json::num(stats.unavailable.load(Ordering::Relaxed) as f64),
                ),
                ("sessions_open", Json::num(sessions_open as f64)),
                (
                    "sessions_opened",
                    Json::num(stats.sessions_opened.load(Ordering::Relaxed) as f64),
                ),
                (
                    "warmed",
                    Json::num(stats.warmed.load(Ordering::Relaxed) as f64),
                ),
                ("workers", Json::Arr(workers)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Worker transport
// ---------------------------------------------------------------------------

enum ForwardFail {
    /// The router is shutting down; answer `unavailable`, don't blame
    /// the worker.
    Shutdown,
    /// Transport-level failure: connect, write, read, or desync. The
    /// worker is presumed dead.
    Conn,
}

/// Decrement-on-drop guard for a worker's in-flight gauge.
struct InFlight<'a>(&'a AtomicU64);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One strict request→response exchange with worker `w`, through its
/// connection pool. Any failure drops the connection (never returned to
/// the pool half-used).
fn forward_once(shared: &Shared, w: usize, request: &Request) -> Result<Response, ForwardFail> {
    let slot = &shared.slots[w];
    slot.in_flight.fetch_add(1, Ordering::SeqCst);
    let _guard = InFlight(&slot.in_flight);
    let mut conn = checkout(slot).map_err(|_| ForwardFail::Conn)?;
    let written = write_request(
        &mut conn.writer,
        &mut conn.scratch,
        request.id,
        request.deadline_ms,
        &request.body,
        slot.reads_blocks.load(Ordering::SeqCst),
    );
    if written.is_err() {
        return Err(ForwardFail::Conn);
    }
    let deadline = Instant::now() + Duration::from_millis(shared.config.forward_timeout_ms);
    let mut timed_out = false;
    let mut should_abort = || {
        if shared.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        timed_out = Instant::now() >= deadline;
        timed_out
    };
    let json = conn
        .reader
        .read_frame(shared.config.max_frame_len, &mut should_abort)
        .map_err(|e| match e {
            FrameError::Aborted if !timed_out => ForwardFail::Shutdown,
            _ => ForwardFail::Conn,
        })?;
    let response = Response::from_json(&json).map_err(|_| ForwardFail::Conn)?;
    if response.id != request.id {
        // Desynchronized stream; the connection is unusable.
        return Err(ForwardFail::Conn);
    }
    checkin(slot, conn);
    Ok(response)
}

fn checkout(slot: &WorkerSlot) -> std::io::Result<WorkerConn> {
    if let Some(conn) = slot.pool.lock().expect("pool poisoned").pop() {
        return Ok(conn);
    }
    let addr =
        slot.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "unresolvable worker")
        })?;
    let stream = TcpStream::connect_timeout(&addr, PROBE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let writer = stream.try_clone()?;
    Ok(WorkerConn {
        writer,
        reader: FrameReader::new(stream),
        scratch: Vec::new(),
    })
}

fn checkin(slot: &WorkerSlot, conn: WorkerConn) {
    let mut pool = slot.pool.lock().expect("pool poisoned");
    if pool.len() < POOL_MAX {
        pool.push(conn);
    }
}

/// Mark worker `w` unhealthy: bump the route-table version and drop
/// its pooled connections. Its session routes stay, so a follow-up finds
/// its owner down and answers `unavailable` (dropping the route) no
/// matter which thread noticed the death first.
fn mark_down(shared: &Shared, w: usize) {
    if shared.slots[w].healthy.swap(false, Ordering::SeqCst) {
        shared.stats.route_version.fetch_add(1, Ordering::Relaxed);
    }
    shared.slots[w].pool.lock().expect("pool poisoned").clear();
}

// ---------------------------------------------------------------------------
// Health probing / cache warming
// ---------------------------------------------------------------------------

/// One ping round trip to worker `w`, recording whether its version
/// reads block frames. Uses the connection pool, so a successful probe
/// leaves a warm connection behind.
fn probe_worker(shared: &Shared, w: usize) -> bool {
    let slot = &shared.slots[w];
    let Ok(mut conn) = checkout(slot) else {
        return false;
    };
    let deadline_ms = Some(PROBE_TIMEOUT.as_millis() as u64);
    let ping = &RequestBody::Ping;
    let sent = write_request(
        &mut conn.writer,
        &mut conn.scratch,
        0,
        deadline_ms,
        ping,
        false,
    );
    if sent.is_err() {
        return false;
    }
    let deadline = Instant::now() + PROBE_TIMEOUT;
    let mut should_abort = || shared.shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline;
    let Ok(json) = conn
        .reader
        .read_frame(shared.config.max_frame_len, &mut should_abort)
    else {
        return false;
    };
    let Ok(Response {
        id: 0,
        payload: ResponsePayload::Ok { result, .. },
    }) = Response::from_json(&json)
    else {
        return false;
    };
    let version = result.get("version").and_then(Json::as_u64).unwrap_or(0);
    slot.reads_blocks
        .store(version >= BLOCK_FRAME_VERSION, Ordering::SeqCst);
    checkin(slot, conn);
    true
}

fn prober_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for w in 0..shared.slots.len() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let was = shared.slots[w].healthy.load(Ordering::SeqCst);
            let now = probe_worker(shared, w);
            if was && !now {
                mark_down(shared, w);
            } else if !was && now {
                bring_up(shared, w);
            }
        }
        // Sleep in READ_POLL steps so shutdown is not stuck behind a
        // long probe interval.
        let until = Instant::now() + Duration::from_millis(shared.config.probe_interval_ms);
        while Instant::now() < until {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(READ_POLL.min(until.saturating_duration_since(Instant::now())));
        }
    }
}

/// Re-enable a worker that came (back) up: drop the session routes
/// still pointing at it (a restarted worker has lost their state), warm
/// its caches from a healthy peer, so its first routed request per
/// warmed shard is a memo-cache hit, then flip it healthy and bump the
/// route version.
fn bring_up(shared: &Shared, w: usize) {
    shared
        .sessions
        .lock()
        .expect("sessions poisoned")
        .retain(|_, route| route.worker != w);
    if shared.config.warm_on_rejoin {
        let peer = shared
            .slots
            .iter()
            .enumerate()
            .find(|(i, s)| *i != w && s.healthy.load(Ordering::SeqCst))
            .map(|(_, s)| s.addr.clone());
        if let Some(peer) = peer {
            // A failed warm only costs the joiner cold-cache misses;
            // it still takes traffic.
            if let Ok(installed) = warm_worker(&peer, &shared.slots[w].addr, SNAPSHOT_MAX_ENTRIES) {
                static WARMED: OnceLock<Arc<Counter>> = OnceLock::new();
                shared.stats.warmed.fetch_add(1, Ordering::Relaxed);
                WARMED
                    .get_or_init(|| {
                        MetricsRegistry::global().counter("serve.router.warmed_entries")
                    })
                    .add(installed);
            }
        }
    }
    shared.slots[w].healthy.store(true, Ordering::SeqCst);
    shared.stats.route_version.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{CharacterizeSpec, SessionSpec, TraceSource};
    use crate::server::{ServeConfig, Server};
    use crate::service::Service;

    fn start_worker() -> Server {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let service = Service::standard().expect("standard service");
        Server::start(config, service).expect("start worker")
    }

    fn test_trace(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 20.0 + 6.0 * f64::sin(i as f64 / 9.0) + 2.5 * f64::sin(i as f64 / 2.0))
            .collect()
    }

    #[test]
    fn router_shards_sessions_and_serves_local_kinds() {
        let w1 = start_worker();
        let w2 = start_worker();
        let config = RouterConfig::new(
            "127.0.0.1:0",
            vec![w1.local_addr().to_string(), w2.local_addr().to_string()],
        );
        let router = Router::start(config).expect("start router");
        assert_eq!(router.healthy_workers(), 2);
        let mut client = Client::connect(router.local_addr()).expect("connect");

        // Ping and Stats are answered by the router itself.
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
        let block = stats.get("router").expect("router block");
        assert_eq!(
            block
                .get("workers")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );

        // Same calibration key forwards twice; both answers arrive.
        let spec = CharacterizeSpec {
            trace: TraceSource::Inline(test_trace(256)),
            window: 64,
            gauss_windows: 40,
            ..CharacterizeSpec::default()
        };
        let a = client.characterize(spec.clone(), None).unwrap();
        let b = client.characterize(spec, None).unwrap();
        assert_eq!(a.render(), b.render(), "same spec, same worker, same bits");

        // A streaming session through the router: router-scoped id.
        let session = client
            .session_open(SessionSpec {
                window: 64,
                gauss_windows: 40,
                ..SessionSpec::default()
            })
            .unwrap();
        client.session_push(session, test_trace(256)).unwrap();
        let verdict = client.session_verdict(session, None).unwrap();
        assert_eq!(
            verdict.get("session").and_then(Json::as_u64),
            Some(session),
            "verdict must carry the router-scoped id"
        );
        client.session_close(session).unwrap();
        // Follow-up after close: structured session_not_found from the
        // router, connection stays usable.
        match client.session_push(session, vec![1.0]) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::SessionNotFound);
            }
            other => panic!("expected session_not_found, got {other:?}"),
        }
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);

        // Snapshot administration is refused at the router.
        match client.snapshot_export(16) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest);
            }
            other => panic!("expected bad_request, got {other:?}"),
        }

        let report = router.shutdown();
        assert!(report.forwarded >= 6, "report: {report:?}");
        assert_eq!(report.sessions_opened, 1);
        assert_eq!(report.rerouted, 0);
        let _ = w1.shutdown();
        let _ = w2.shutdown();
    }

    /// Open a session through a one-worker router with probing parked.
    fn router_with_open_session() -> (Server, Router, Client, u64) {
        let worker = start_worker();
        let mut config = RouterConfig::new("127.0.0.1:0", vec![worker.local_addr().to_string()]);
        config.probe_interval_ms = 60_000;
        config.warm_on_rejoin = false;
        let router = Router::start(config).expect("start router");
        let mut client = Client::connect(router.local_addr()).expect("connect");
        let session = client
            .session_open(SessionSpec {
                window: 64,
                gauss_windows: 40,
                ..SessionSpec::default()
            })
            .unwrap();
        (worker, router, client, session)
    }

    #[test]
    fn follow_up_after_mark_down_is_unavailable() {
        let (worker, router, mut client, session) = router_with_open_session();
        // The worker is dead before the router notices, so the prober
        // can only agree with the mark-down, never undo it.
        let _ = worker.shutdown();
        mark_down(&router.shared, 0);
        match client.session_push(session, vec![1.0]) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Unavailable);
            }
            other => panic!("expected unavailable, got {other:?}"),
        }
        // The follow-up dropped the route.
        match client.session_push(session, vec![1.0]) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::SessionNotFound);
            }
            other => panic!("expected session_not_found, got {other:?}"),
        }
        let _ = router.shutdown();
    }

    #[test]
    fn bring_up_drops_routes_to_the_rejoined_worker() {
        let (worker, router, mut client, session) = router_with_open_session();
        mark_down(&router.shared, 0);
        bring_up(&router.shared, 0);
        match client.session_push(session, vec![1.0]) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::SessionNotFound);
            }
            other => panic!("expected session_not_found, got {other:?}"),
        }
        let _ = router.shutdown();
        let _ = worker.shutdown();
    }

    #[test]
    fn router_fails_over_when_a_worker_dies() {
        let w1 = start_worker();
        let w2 = start_worker();
        let mut config = RouterConfig::new(
            "127.0.0.1:0",
            vec![w1.local_addr().to_string(), w2.local_addr().to_string()],
        );
        // Long probe interval: the *forward path* must detect the death.
        config.probe_interval_ms = 60_000;
        config.warm_on_rejoin = false;
        let router = Router::start(config).expect("start router");
        assert_eq!(router.healthy_workers(), 2);

        // Kill one worker, then route requests across many shards so
        // some of them hash to the dead worker and must re-route.
        let _ = w1.shutdown();
        let mut client = Client::connect(router.local_addr()).expect("connect");
        for window in [16usize, 32, 64, 128] {
            let spec = CharacterizeSpec {
                trace: TraceSource::Inline(test_trace(256)),
                window,
                gauss_windows: 20,
                ..CharacterizeSpec::default()
            };
            let result = client.characterize(spec, None).unwrap();
            assert!(result.get("scales").is_some(), "window {window} answered");
        }
        assert_eq!(router.healthy_workers(), 1, "dead worker marked down");
        let report = router.shutdown();
        assert_eq!(report.forwarded, 4, "every request got exactly one answer");
        let _ = w2.shutdown();
    }

    #[test]
    fn router_rejects_unroutable_states() {
        // No worker listening at all: every shard-keyed request answers
        // a structured `unavailable`, never a hang or a transport error.
        let dead = {
            // Grab a port that nothing listens on.
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut config = RouterConfig::new("127.0.0.1:0", vec![dead]);
        config.probe_interval_ms = 60_000;
        let router = Router::start(config).expect("start router");
        assert_eq!(router.healthy_workers(), 0);
        let mut client = Client::connect(router.local_addr()).expect("connect");
        match client.characterize(
            CharacterizeSpec {
                trace: TraceSource::Inline(test_trace(64)),
                window: 16,
                gauss_windows: 10,
                ..CharacterizeSpec::default()
            },
            None,
        ) {
            Err(crate::client::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Unavailable);
            }
            other => panic!("expected unavailable, got {other:?}"),
        }
        // Ping still works: the router itself is alive.
        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
        let report = router.shutdown();
        assert_eq!(report.forwarded, 0);
        assert!(report.unavailable >= 1);
    }
}
