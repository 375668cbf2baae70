//! The sharded router over real worker processes' TCP protocol:
//! deterministic shard placement, hot disjoint caches, failover on a
//! worker that disconnects mid-request, session affinity dying with
//! its owner, and request samples framed the way each peer reads them
//! (block frames to v3, JSON arrays to v2).

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use didt_serve::{
    decode_request, write_frame, CharacterizeSpec, Client, ClientError, ErrorCode, FrameReader,
    HashRing, Request, RequestBody, Response, ResponsePayload, Router, RouterConfig, ServeConfig,
    Server, Service, SessionSpec, TraceSource, MAX_FRAME_LEN,
};
use didt_telemetry::Json;

fn start_worker() -> Server {
    Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Service::standard().expect("service"),
    )
    .expect("worker start")
}

/// A router whose prober stays out of the way: worker death must be
/// discovered (and counted) by the forward path.
fn quiet_router(workers: Vec<String>) -> Router {
    let mut config = RouterConfig::new("127.0.0.1:0".to_string(), workers);
    config.probe_interval_ms = 60_000;
    config.warm_on_rejoin = false;
    Router::start(config).expect("router start")
}

/// Deterministic per-key trace, shared by every request for that key.
fn key_trace(window: usize, pct: f64) -> Vec<f64> {
    (0..1024)
        .map(|i| {
            let t = i as f64;
            20.0 + (window as f64).sqrt() * (t / 7.3).sin() + (pct / 40.0) * (t / 2.1).sin()
        })
        .collect()
}

fn key_spec(window: usize, pct: f64) -> CharacterizeSpec {
    CharacterizeSpec {
        trace: TraceSource::Inline(key_trace(window, pct)),
        pdn_pct: pct,
        window,
        gauss_windows: 20,
        ..CharacterizeSpec::default()
    }
}

const KEYS: [(usize, f64); 8] = [
    (16, 100.0),
    (16, 150.0),
    (32, 100.0),
    (32, 150.0),
    (64, 100.0),
    (64, 150.0),
    (128, 100.0),
    (128, 150.0),
];

/// Per-worker (served, gains calibrations) from its own Stats.
fn worker_counts(addr: &str) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("stats connect");
    let stats = client.stats().expect("stats");
    let served = stats.get("served").and_then(Json::as_u64).unwrap_or(0);
    let gains_computed = stats
        .get("cache")
        .and_then(Json::as_arr)
        .and_then(|classes| {
            classes
                .iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some("gains"))
                .and_then(|c| c.get("computed"))
                .and_then(Json::as_u64)
        })
        .unwrap_or(0);
    (served, gains_computed)
}

#[test]
fn sharding_is_stable_and_keeps_worker_caches_disjoint() {
    let workers: Vec<Server> = (0..2).map(|_| start_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let router = quiet_router(addrs.clone());
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let sweep = |client: &mut Client| {
        for &(w, p) in &KEYS {
            client
                .characterize(key_spec(w, p), None)
                .expect("characterize");
        }
    };
    sweep(&mut client);
    let after_first: Vec<(u64, u64)> = addrs.iter().map(|a| worker_counts(a)).collect();
    sweep(&mut client);
    let after_second: Vec<(u64, u64)> = addrs.iter().map(|a| worker_counts(a)).collect();

    // Every key calibrated exactly once across the fleet: the shards
    // are disjoint, and both workers own a non-empty share.
    let total_gains: u64 = after_first.iter().map(|&(_, g)| g).sum();
    assert_eq!(total_gains, KEYS.len() as u64, "one calibration per key");
    for (i, &(served, _)) in after_first.iter().enumerate() {
        assert!(served > 0, "worker {i} received no traffic");
    }
    for (i, (&(s1, g1), &(s2, g2))) in after_first.iter().zip(&after_second).enumerate() {
        // Identical requests route identically: had any key moved, its
        // new owner would have calibrated it afresh. The second sweep
        // must add traffic but not one calibration.
        assert!(s2 > s1, "worker {i} got no second-sweep traffic");
        assert_eq!(g2, g1, "worker {i} recalibrated a warm key");
    }

    drop(client);
    let report = router.shutdown();
    assert_eq!(report.rerouted, 0, "healthy fleet must never reroute");
    for w in workers {
        assert_eq!(w.shutdown().worker_panics, 0);
    }
}

/// Request kinds a peer read, each with whether it came as a block
/// frame.
type Seen = Arc<Mutex<Vec<(&'static str, bool)>>>;

/// A fake protocol-v2 worker that answers health probes, then hangs up
/// on the first real request *after reading its frame* — a mid-request
/// disconnect from the router's point of view. It records the kind and
/// framing of each request it hangs up on.
fn treacherous_worker() -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>, Seen) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let seen = Seen::default();
    let record = Arc::clone(&seen);
    let handle = std::thread::spawn(move || {
        // Poll for connections so the thread can exit with the test
        // instead of parking in accept() on a socket nobody will dial.
        while !stop_flag.load(Ordering::Relaxed) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(_) => return,
            };
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(false).ok();
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = FrameReader::new(stream);
            let give_up = Instant::now() + Duration::from_secs(30);
            loop {
                let mut abort = || Instant::now() >= give_up;
                let Ok(payload) = reader.read_payload(MAX_FRAME_LEN, &mut abort) else {
                    break;
                };
                let block = payload.first() == Some(&0);
                let Ok(request) = decode_request(payload) else {
                    break;
                };
                if matches!(request.body, RequestBody::Ping) {
                    let pong = Response::ok(
                        request.id,
                        "pong",
                        Json::obj(vec![("version", Json::num(2.0))]),
                    );
                    if write_frame(&mut writer, &pong.to_json()).is_err() {
                        break;
                    }
                } else {
                    // Read the frame, then vanish mid-request.
                    let kind = request.body.kind();
                    record.lock().expect("seen poisoned").push((kind, block));
                    break;
                }
            }
        }
    });
    (addr, stop, handle, seen)
}

#[test]
fn worker_disconnect_mid_request_reroutes_without_loss() {
    let real = start_worker();
    let (fake_addr, fake_stop, fake_handle, fake_seen) = treacherous_worker();
    let addrs = vec![real.local_addr().to_string(), fake_addr];
    let router = quiet_router(addrs);
    assert_eq!(router.healthy_workers(), 2, "fake worker must pass probes");

    // The fake worker owns some of the keys (deterministic ring, same
    // replica count as the router's default).
    let ring = HashRing::new(2, 64);
    let owned_by_fake = KEYS
        .iter()
        .filter(|&&(w, p)| {
            let key = Request {
                id: 0,
                deadline_ms: None,
                body: RequestBody::Characterize(key_spec(w, p)),
            }
            .shard_key()
            .expect("shard key");
            ring.route(key) == 1
        })
        .count();
    assert!(owned_by_fake > 0, "key set never touches the fake worker");

    // Every request is answered despite the mid-request disconnects.
    let mut client = Client::connect(router.local_addr()).expect("connect");
    for &(w, p) in &KEYS {
        client
            .characterize(key_spec(w, p), None)
            .expect("characterize despite disconnect");
    }
    assert_eq!(router.healthy_workers(), 1, "fake worker marked down");

    drop(client);
    let report = router.shutdown();
    assert!(
        report.rerouted >= 1,
        "mid-request disconnect must surface as a reroute"
    );
    assert_eq!(real.shutdown().worker_panics, 0);
    fake_stop.store(true, Ordering::Relaxed);
    fake_handle.join().expect("fake worker thread");
    // The v2 worker was sent JSON arrays, never a block frame.
    let seen = fake_seen.lock().expect("seen poisoned");
    assert!(
        !seen.is_empty()
            && seen
                .iter()
                .all(|&(kind, block)| kind == "characterize" && !block)
    );
}

#[test]
fn client_sends_json_arrays_to_a_v2_peer() {
    let (addr, stop, handle, seen) = treacherous_worker();
    let mut client = Client::connect(addr.as_str()).expect("connect");
    // The client pings first, reads version 2, and sends JSON; the fake
    // then hangs up, so the call itself fails.
    assert!(client.characterize(key_spec(16, 100.0), None).is_err());
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("fake worker thread");
    assert_eq!(
        *seen.lock().expect("seen poisoned"),
        [("characterize", false)]
    );
}

/// A TCP tap in front of a real worker: forwards every frame both ways
/// and records each request's kind and framing. With `as_v2`, it
/// rewrites `Ping` answers to report protocol version 2, so senders
/// treat the worker as a v2 peer.
struct Tap {
    addr: String,
    seen: Seen,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
}

impl Tap {
    fn start(upstream: SocketAddr, as_v2: bool) -> Tap {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Seen::default();
        let (stop_flag, record) = (Arc::clone(&stop), Arc::clone(&seen));
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((down, _)) => {
                        let record = Arc::clone(&record);
                        conns.push(std::thread::spawn(move || {
                            tap_conn(&down, upstream, as_v2, &record);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for conn in conns {
                conn.join().expect("tap connection");
            }
        });
        Tap {
            addr,
            seen,
            stop,
            accept,
        }
    }

    /// Stop accepting, wait for every tapped connection to close, and
    /// return what the requests looked like.
    fn finish(self) -> Vec<(&'static str, bool)> {
        self.stop.store(true, Ordering::Relaxed);
        self.accept.join().expect("tap accept");
        self.seen.lock().expect("seen poisoned").clone()
    }
}

fn tap_conn(down: &TcpStream, upstream: SocketAddr, as_v2: bool, seen: &Mutex<Vec<(&str, bool)>>) {
    let never = &mut || false;
    down.set_nonblocking(false).expect("blocking");
    let up = TcpStream::connect(upstream).expect("connect upstream");
    std::thread::scope(|scope| {
        // Replies flow back until the worker side closes.
        scope.spawn(|| {
            let mut replies = FrameReader::new(up.try_clone().expect("clone"));
            let mut down = down.try_clone().expect("clone");
            while let Ok(json) = replies.read_frame(MAX_FRAME_LEN, &mut || false) {
                let reply = Response::from_json(&json).expect("response");
                let json = match reply.payload {
                    ResponsePayload::Ok { kind, .. } if as_v2 && kind == "ping" => {
                        let version = Json::obj(vec![("version", Json::num(2.0))]);
                        Response::ok(reply.id, "ping", version).to_json()
                    }
                    _ => json,
                };
                if write_frame(&mut down, &json).is_err() {
                    break;
                }
            }
        });
        let mut requests = FrameReader::new(down.try_clone().expect("clone"));
        let mut up_w = up.try_clone().expect("clone");
        while let Ok(payload) = requests.read_payload(MAX_FRAME_LEN, never) {
            let kind = decode_request(payload).expect("request").body.kind();
            seen.lock()
                .expect("seen poisoned")
                .push((kind, payload[0] == 0));
            let frame = [&(payload.len() as u32).to_be_bytes()[..], payload].concat();
            if std::io::Write::write_all(&mut up_w, &frame).is_err() {
                break;
            }
        }
        let _ = up.shutdown(Shutdown::Both);
    });
}

#[test]
fn sessions_die_with_their_owner_not_the_connection() {
    let worker = start_worker();
    let router = quiet_router(vec![worker.local_addr().to_string()]);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let session = client
        .session_open(SessionSpec {
            window: 16,
            gauss_windows: 20,
            ..SessionSpec::default()
        })
        .expect("open");
    client
        .session_push(session, key_trace(16, 100.0))
        .expect("push");

    // The owner dies; streaming state is not idempotent, so follow-ups
    // must fail structured — never silently retried elsewhere.
    assert_eq!(worker.shutdown().worker_panics, 0);
    match client.session_push(session, vec![1.0; 8]) {
        Err(ClientError::Server {
            code: ErrorCode::Unavailable,
            ..
        }) => {}
        other => panic!("push to a dead owner returned {other:?}"),
    }
    // New shardable work has no healthy target either...
    match client.characterize(key_spec(16, 100.0), None) {
        Err(ClientError::Server {
            code: ErrorCode::Unavailable,
            ..
        }) => {}
        other => panic!("characterize with no workers returned {other:?}"),
    }
    // ... but the router connection itself is alive and in sync.
    assert!(client.ping().is_ok());

    drop(client);
    let _ = router.shutdown();
}

/// A sender frames samples by what the peer's `Ping` reports: blocks
/// to a v3 worker, JSON arrays to a v2 one, whether the sender is a
/// client or the router forwarding for one. Requests without samples
/// are always JSON.
#[test]
fn samples_go_as_blocks_to_v3_peers_and_as_json_to_v2_peers() {
    let worker = start_worker();
    for (routed, as_v2) in [(false, false), (false, true), (true, false), (true, true)] {
        let tap = Tap::start(worker.local_addr(), as_v2);
        let router = routed.then(|| quiet_router(vec![tap.addr.clone()]));
        let addr = router
            .as_ref()
            .map_or(tap.addr.clone(), |r| r.local_addr().to_string());
        let mut client = Client::connect(addr.as_str()).expect("connect");
        client
            .characterize(key_spec(16, 100.0), None)
            .expect("characterize");
        let session = client
            .session_open(SessionSpec {
                window: 16,
                gauss_windows: 20,
                ..SessionSpec::default()
            })
            .expect("open");
        client
            .session_push(session, key_trace(16, 100.0))
            .expect("push");
        client.session_close(session).expect("close");
        drop(client);
        if let Some(router) = router {
            let _ = router.shutdown();
        }
        let seen = tap.finish();
        let case = format!("routed {routed}, v2 {as_v2}: {seen:?}");
        let carrying: Vec<bool> = seen
            .iter()
            .filter(|(kind, _)| matches!(*kind, "characterize" | "session_push"))
            .map(|&(_, block)| block)
            .collect();
        assert_eq!(carrying, [!as_v2, !as_v2], "{case}");
        assert!(
            seen.iter()
                .filter(|(kind, _)| !matches!(*kind, "characterize" | "session_push"))
                .all(|&(_, block)| !block),
            "{case}"
        );
    }
    assert_eq!(worker.shutdown().worker_panics, 0);
}
