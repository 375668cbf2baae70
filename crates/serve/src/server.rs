//! Threaded TCP server: admission control, worker pool, deadlines,
//! graceful shutdown.
//!
//! ```text
//!  accept thread ──► connection threads (1/conn, read + decode)
//!                          │  try_push            ▲ write responses
//!                          ▼                      │ (shared writer)
//!                    bounded queue ──► worker pool (N, run handlers)
//! ```
//!
//! The accept and connection threads are the front shared with the
//! cluster router (the crate-private `front` module); this module supplies
//! what happens to a decoded request — admission — and the pool behind it.
//!
//! Design points:
//!
//! * **Backpressure is explicit.** The admission queue is bounded;
//!   when it is full the *connection thread* answers
//!   [`ResponsePayload::Rejected`] with a retry hint immediately —
//!   overload degrades into fast, structured rejections instead of
//!   unbounded queueing and blown deadlines.
//! * **Deadlines are cooperative.** A request's deadline is checked at
//!   dequeue (cheap drop of work that is already too late) and then
//!   threaded into the handlers, which poll it between analysis stages
//!   and — for closed-loop simulations — every few thousand simulated
//!   cycles ([`didt_core::control::DEADLINE_CHECK_INTERVAL`]).
//! * **The pool is one FIFO queue.** Every worker blocks on the
//!   admission queue and runs jobs one at a time in arrival order.
//!   Same-calibration requests share work through the memo caches, not
//!   through the pool: a warm gain-model hit costs well under a
//!   microsecond, so grouping jobs by key would buy nothing.
//! * **Workers never die.** Handler panics are caught per request
//!   ([`std::panic::catch_unwind`]), counted, and answered as
//!   `internal` errors; the pool keeps its width for the life of the
//!   server (protocol tests assert this by hammering the server with
//!   malformed traffic and then checking it still answers).
//! * **Shutdown drains.** [`Server::shutdown`] stops the accept loop
//!   and the connection readers (each after its current frame), closes
//!   the queue, lets the workers finish every admitted job (responses
//!   still reach their sockets through the shared writers), then joins
//!   everything.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use didt_telemetry::{Counter, Histogram, MetricsRegistry};

use crate::front::{send_response, ConnWriter, Front, Handler};
use crate::protocol::{ErrorCode, Request, Response, ResponsePayload, MAX_FRAME_LEN};
use crate::service::Service;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool width.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects.
    pub queue_depth: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline_ms: Option<u64>,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// Backoff hint sent with rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: didt_bench::default_threads().clamp(1, 8),
            queue_depth: 64,
            default_deadline_ms: None,
            max_frame_len: MAX_FRAME_LEN,
            retry_after_ms: 50,
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded queue
// ---------------------------------------------------------------------------

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking producers (admission either
/// succeeds instantly or reports "full"), blocking consumers.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    takers: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            takers: Condvar::new(),
            capacity,
        }
    }

    /// Admit `item`, or return it when the queue is full or closed.
    /// On success returns the occupancy after the push.
    fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.takers.notify_one();
        Ok(depth)
    }

    /// Occupancy right now.
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Block for the next item; `None` once the queue is closed *and*
    /// drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.takers.wait(inner).expect("queue poisoned");
        }
    }

    /// Stop admitting; wake every blocked consumer.
    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.takers.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Job {
    request: Request,
    deadline: Option<Instant>,
    enqueued: Instant,
    writer: ConnWriter,
}

struct Shared {
    service: Service,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    config: ServeConfig,
}

impl Handler for Shared {
    fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    fn handle(&self, request: Request, writer: &ConnWriter) -> std::io::Result<()> {
        admit(self, request, writer)
    }

    fn protocol_error(&self) {
        self.service
            .stats()
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Final counters returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests answered.
    pub served: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Deadline expiries (queue or simulation).
    pub deadline_exceeded: u64,
    /// Undecodable frames/requests.
    pub protocol_errors: u64,
    /// Handler panics caught by workers.
    pub worker_panics: u64,
}

/// A running dI/dt characterization server.
pub struct Server {
    shared: Arc<Shared>,
    front: Front<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pool, and start accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind failure.
    pub fn start(config: ServeConfig, service: Service) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let stats = service.stats();
        stats
            .workers
            .store(config.workers as u64, Ordering::Relaxed);
        stats
            .queue_capacity
            .store(config.queue_depth as u64, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_depth),
            service,
            shutdown: AtomicBool::new(false),
            config,
        });

        // Jobs admitted before the pool is up simply wait in the queue.
        let front = Front::start(
            listener,
            "didt-serve",
            shared.config.max_frame_len,
            Arc::clone(&shared),
        )?;
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("didt-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.pop() {
                            process_job(&shared, job);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            shared,
            front,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Stop accepting, drain admitted work, join every thread.
    #[must_use]
    pub fn shutdown(mut self) -> ShutdownReport {
        // The connection readers are joined before the queue closes, so
        // no admission races the close.
        self.front.stop();
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let stats = self.shared.service.stats();
        ShutdownReport {
            served: stats.served.load(Ordering::Relaxed),
            rejected: stats.rejected.load(Ordering::Relaxed),
            deadline_exceeded: stats.deadline_exceeded.load(Ordering::Relaxed),
            protocol_errors: stats.protocol_errors.load(Ordering::Relaxed),
            worker_panics: stats.worker_panics.load(Ordering::Relaxed),
        }
    }
}

/// Queue `request`, or answer `Rejected` at once when the queue is full.
fn admit(shared: &Shared, request: Request, writer: &ConnWriter) -> std::io::Result<()> {
    static REJECTED: OnceLock<Arc<Counter>> = OnceLock::new();
    let id = request.id;
    let deadline = request
        .deadline_ms
        .or(shared.config.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        request,
        deadline,
        enqueued: Instant::now(),
        writer: Arc::clone(writer),
    };
    if shared.queue.try_push(job).is_ok() {
        return Ok(());
    }
    let stats = shared.service.stats();
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    REJECTED
        .get_or_init(|| MetricsRegistry::global().counter("serve.rejected"))
        .incr();
    send_response(
        writer,
        &Response::rejected(id, shared.config.retry_after_ms, shared.queue.len() as u64),
    )
}

/// Run one job: queue-wait accounting, deadline check, the handler
/// under `catch_unwind`, response write.
fn process_job(shared: &Shared, job: Job) {
    static QUEUE_WAIT: OnceLock<Arc<Histogram>> = OnceLock::new();
    static DEADLINE_EXCEEDED: OnceLock<Arc<Counter>> = OnceLock::new();
    static WORKER_PANICS: OnceLock<Arc<Counter>> = OnceLock::new();
    static ERRORS: OnceLock<Arc<Counter>> = OnceLock::new();
    let stats = shared.service.stats();
    let metrics = MetricsRegistry::global();
    let now = Instant::now();
    QUEUE_WAIT
        .get_or_init(|| metrics.histogram("serve.queue_wait_ns"))
        .record_duration(now.duration_since(job.enqueued));
    let id = job.request.id;
    let response = if job.deadline.is_some_and(|d| now >= d) {
        stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        DEADLINE_EXCEEDED
            .get_or_init(|| metrics.counter("serve.deadline_exceeded"))
            .incr();
        Response::error(
            id,
            ErrorCode::DeadlineExceeded,
            "deadline expired while queued",
        )
    } else {
        let service = &shared.service;
        let request = &job.request;
        let deadline = job.deadline;
        match catch_unwind(AssertUnwindSafe(|| service.handle(request, deadline))) {
            Ok(response) => response,
            Err(_) => {
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                WORKER_PANICS
                    .get_or_init(|| metrics.counter("serve.worker_panics"))
                    .incr();
                Response::error(id, ErrorCode::Internal, "request handler panicked")
            }
        }
    };
    stats.served.fetch_add(1, Ordering::Relaxed);
    if matches!(response.payload, ResponsePayload::Error { .. }) {
        ERRORS
            .get_or_init(|| metrics.counter("serve.errors"))
            .incr();
    }
    // A peer that vanished mid-request is its own problem; the
    // worker moves on.
    let _ = send_response(&job.writer, &response);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_rejects_when_full_and_drains_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3));
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_wakes_blocked_consumer_on_close() {
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let taker = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(taker.join().unwrap(), None);
    }
}
