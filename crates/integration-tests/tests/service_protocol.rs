//! Protocol robustness: hostile and unlucky clients against a live
//! didt-serve server.
//!
//! Every test drives a real TCP connection and asserts the server
//! answers with a structured error (or hangs up cleanly) — never a
//! panic, never a leaked worker. Each test ends with a graceful
//! shutdown and checks `ShutdownReport::worker_panics == 0`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use didt_bench::{ControllerSpec, RunParams, SweepContext, SweepPoint};
use didt_core::control::ClosedLoopResult;
use didt_serve::{
    write_frame, CharacterizeSpec, Client, ClientError, ClosedLoopSpec, ErrorCode, FrameError,
    FrameReader, ServeConfig, Server, Service, SessionSpec, TraceSource, MAX_FRAME_LEN,
};
use didt_telemetry::Json;
use didt_uarch::Benchmark;

fn start_server(config: ServeConfig) -> Server {
    Server::start(config, Service::standard().expect("service")).expect("server start")
}

fn small_server() -> Server {
    start_server(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
}

/// Raw connection with a bounded read so a silent server fails the
/// test instead of hanging it.
fn raw_connect(addr: SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let reader = FrameReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_with_deadline(reader: &mut FrameReader<TcpStream>) -> Result<Json, FrameError> {
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut abort = move || Instant::now() >= give_up;
    reader.read_frame(MAX_FRAME_LEN, &mut abort)
}

fn error_code(response: &Json) -> Option<&str> {
    response.get("code").and_then(Json::as_str)
}

fn tiny_characterize() -> CharacterizeSpec {
    CharacterizeSpec {
        trace: TraceSource::Synth {
            benchmark: "gzip".to_string(),
            seed: 7,
            warmup: 100,
            cycles: 2_048,
        },
        window: 64,
        gauss_windows: 20,
        ..CharacterizeSpec::default()
    }
}

#[test]
fn malformed_json_payload_gets_error_and_connection_survives() {
    let server = small_server();
    let (mut stream, mut reader) = raw_connect(server.local_addr());

    // A well-framed payload that is not JSON: structured bad_request,
    // framing stays in sync.
    let garbage = b"{this is not json";
    stream
        .write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(garbage).unwrap();
    let reply = read_with_deadline(&mut reader).expect("error reply");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(error_code(&reply), Some("bad_request"));

    // Valid JSON that is not a request: still recoverable.
    write_frame(&mut stream, &Json::str("not a request")).unwrap();
    let reply = read_with_deadline(&mut reader).expect("error reply");
    assert_eq!(error_code(&reply), Some("bad_request"));

    // A 1 MB frame of nothing but '[': the parser refuses the nesting
    // instead of recursing off the end of the stack.
    let deep = vec![b'['; 1_000_000];
    stream
        .write_all(&(deep.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&deep).unwrap();
    let reply = read_with_deadline(&mut reader).expect("error reply");
    assert_eq!(error_code(&reply), Some("bad_request"));

    // The same connection still serves real requests afterwards.
    let ping = Json::obj(vec![("id", Json::Num(9.0)), ("kind", Json::str("ping"))]);
    write_frame(&mut stream, &ping).unwrap();
    let reply = read_with_deadline(&mut reader).expect("ping reply");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(9));

    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.protocol_errors >= 3);
}

#[test]
fn oversized_length_prefix_is_answered_then_closed() {
    let server = small_server();
    let (mut stream, mut reader) = raw_connect(server.local_addr());

    // Announce a 4 GiB frame. The payload can never be resynchronized,
    // so the server must answer once and hang up.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let reply = read_with_deadline(&mut reader).expect("error reply");
    assert_eq!(error_code(&reply), Some("bad_request"));
    match read_with_deadline(&mut reader) {
        Err(FrameError::Closed) => {}
        other => panic!("expected connection close, got {other:?}"),
    }

    // The listener is unaffected: fresh connections still work.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.ping().is_ok());

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.protocol_errors >= 1);
}

#[test]
fn http_lines_read_as_oversized_frames_not_panics() {
    // An HTTP client hitting the port by mistake: the first 4 bytes
    // ("GET ") decode as a ~1.2 GB length prefix.
    let server = small_server();
    let (mut stream, mut reader) = raw_connect(server.local_addr());
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: didt\r\n\r\n")
        .unwrap();
    let reply = read_with_deadline(&mut reader).expect("error reply");
    assert_eq!(error_code(&reply), Some("bad_request"));

    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn truncated_payload_and_disconnect_leaves_server_healthy() {
    let server = small_server();

    // Promise 300 bytes, deliver 10, vanish.
    {
        let (mut stream, _reader) = raw_connect(server.local_addr());
        stream.write_all(&300u32.to_be_bytes()).unwrap();
        stream.write_all(b"{\"id\": 1, ").unwrap();
    }
    // Deliver only half a length prefix, vanish.
    {
        let (mut stream, _reader) = raw_connect(server.local_addr());
        stream.write_all(&[0, 0]).unwrap();
    }

    // Give the reader threads a poll interval to observe the EOFs, then
    // prove the server still answers.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if client.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "server stopped answering");
    }

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.protocol_errors >= 1, "mid-frame EOF must be counted");
}

#[test]
fn disconnect_while_request_is_in_flight_does_not_leak_or_panic() {
    let server = small_server();

    // Queue a real analysis, then drop the connection before the worker
    // can reply. The worker's write fails; nothing else may.
    {
        let (mut stream, _reader) = raw_connect(server.local_addr());
        let req = didt_serve::Request {
            id: 1,
            deadline_ms: None,
            body: didt_serve::RequestBody::Characterize(tiny_characterize()),
        };
        write_frame(&mut stream, &req.to_json()).unwrap();
    }

    // The pool must still drain and serve new work.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let result = client.characterize(tiny_characterize(), Some(60_000));
    assert!(result.is_ok(), "post-disconnect request failed: {result:?}");

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn overload_rejections_are_structured_and_backpressure_is_reported() {
    // One worker, queue depth one: concurrent clients must overflow the
    // admission queue and get structured Rejected responses.
    let server = start_server(ServeConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 17,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let mut rejected = 0u64;
    let mut ok = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut counts = (0u64, 0u64);
                    for _ in 0..3 {
                        match client.characterize(tiny_characterize(), Some(60_000)) {
                            Ok(_) => counts.0 += 1,
                            Err(ClientError::Rejected { retry_after_ms }) => {
                                assert_eq!(retry_after_ms, 17);
                                counts.1 += 1;
                            }
                            Err(other) => panic!("unexpected failure: {other}"),
                        }
                    }
                    counts
                })
            })
            .collect();
        for h in handles {
            let (o, r) = h.join().expect("client thread");
            ok += o;
            rejected += r;
        }
    });

    assert!(ok >= 1, "at least one request must be served");
    assert!(rejected >= 1, "tiny queue must shed load");
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.rejected, rejected);
}

#[test]
fn expired_deadline_is_a_clean_structured_error() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A controlled leg is required: the uncontrolled baseline is shared
    // cache state and deliberately never aborted, so `None` would reuse
    // it and finish "instantly" no matter the budget.
    let spec = ClosedLoopSpec {
        benchmark: "swim".to_string(),
        pdn_pct: 100.0,
        monitor_terms: 13,
        controller: didt_bench::ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        instructions: 2_000_000,
        warmup_cycles: 1_000,
        replay: None,
    };
    match client.closed_loop(spec, Some(1)) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded);
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    // The worker that aborted is still alive and useful.
    assert!(client.ping().is_ok());

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert!(report.deadline_exceeded >= 1);
}

#[test]
fn stats_reports_sim_throughput_and_queue_wait_quantiles() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // One real closed-loop run so the simulator throughput counters and
    // the worker queue-wait histogram both have data.
    let spec = ClosedLoopSpec {
        benchmark: "gzip".to_string(),
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: didt_bench::ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
        instructions: 2_000,
        warmup_cycles: 500,
        replay: None,
    };
    client
        .closed_loop(spec, Some(120_000))
        .expect("closed loop run");

    let stats = client.stats().expect("stats");
    let sim = stats.get("sim").expect("stats must report a `sim` block");
    assert!(
        sim.get("cycles").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
        "sim.cycles must count the closed-loop run: {stats:?}"
    );
    assert!(
        sim.get("cycles_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "sim.cycles_per_sec must be positive after a run: {stats:?}"
    );

    // The closed-loop request and the stats request itself both went
    // through the worker queue, so the histogram has at least two
    // samples and ordered quantiles.
    let wait = stats
        .get("queue_wait_ns")
        .expect("stats must report `queue_wait_ns`");
    let q = |k: &str| wait.get(k).and_then(Json::as_f64).expect(k);
    assert!(q("count") >= 2.0, "queue_wait_ns.count: {wait:?}");
    assert!(q("p50") <= q("p95"), "quantiles out of order: {wait:?}");
    assert!(q("p95") <= q("p99"), "quantiles out of order: {wait:?}");

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

/// ClosedLoop through the wire codec is the batch runner's point, bit
/// for bit: every numeric field of both legs and the seed survive the
/// frame encode/decode unchanged, on a fresh context of its own.
#[test]
fn closed_loop_over_tcp_matches_batch_runner_bitwise() {
    let wavelet = ControllerSpec::WaveletThreshold {
        low: 0.975,
        high: 1.025,
        hysteresis: 0.004,
        delay: 1,
    };
    let points = [
        (Benchmark::Gzip, 150.0, wavelet),
        (Benchmark::Swim, 150.0, wavelet),
        (Benchmark::Gzip, 125.0, ControllerSpec::None),
    ];
    let run = RunParams {
        instructions: 2_000,
        warmup_cycles: 1_000,
    };
    let leg_fields = |r: &ClosedLoopResult| {
        [
            ("cycles", r.cycles as f64),
            ("instructions", r.instructions as f64),
            ("low_emergencies", r.low_emergencies as f64),
            ("high_emergencies", r.high_emergencies as f64),
            ("stall_cycles", r.stall_cycles as f64),
            ("nop_cycles", r.nop_cycles as f64),
            ("false_positives", r.false_positives as f64),
            ("v_min", r.v_min),
            ("v_max", r.v_max),
            ("mean_power", r.mean_power),
        ]
    };

    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ctx = SweepContext::standard().expect("context");
    for (benchmark, pdn_pct, controller) in points {
        let spec = ClosedLoopSpec {
            benchmark: benchmark.name().to_string(),
            pdn_pct,
            monitor_terms: 13,
            controller,
            instructions: run.instructions,
            warmup_cycles: run.warmup_cycles,
            replay: None,
        };
        let tcp = client
            .closed_loop(spec, Some(120_000))
            .expect("tcp closed loop");
        let point = SweepPoint {
            benchmark,
            pdn_pct,
            monitor_terms: 13,
            controller,
        };
        let want = ctx.run_point(&point, run).expect("batch point");
        let case = format!("{} at {pdn_pct} %, {}", benchmark.name(), controller.tag());
        for (leg, result) in [
            ("baseline", &want.baseline),
            ("controlled", &want.controlled),
        ] {
            for (field, value) in leg_fields(result) {
                let got = tcp
                    .get(leg)
                    .and_then(|l| l.get(field))
                    .and_then(Json::as_f64);
                assert_eq!(
                    got.map(f64::to_bits),
                    Some(value.to_bits()),
                    "{case}: {leg}.{field}"
                );
            }
        }
        assert_eq!(
            tcp.get("seed_hex").and_then(Json::as_str),
            Some(didt_telemetry::seed_to_hex(want.seed).as_str()),
            "{case}: seed"
        );
    }

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

/// A deterministic pseudo-random trace: the same bytes on every run,
/// so bit-level comparisons are meaningful.
fn deterministic_trace(n: usize) -> Vec<f64> {
    let mut x = 0x1234_5678_9abc_def1u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) * 80.0 - 40.0
        })
        .collect()
}

fn inline_characterize(trace: Vec<f64>) -> CharacterizeSpec {
    CharacterizeSpec {
        trace: TraceSource::Inline(trace),
        window: 64,
        gauss_windows: 20,
        ..CharacterizeSpec::default()
    }
}

fn scale_variances_of(result: &Json) -> Vec<f64> {
    result
        .get("scales")
        .and_then(Json::as_arr)
        .expect("scales array")
        .iter()
        .map(|s| s.get("variance").and_then(Json::as_f64).expect("variance"))
        .collect()
}

/// The wire must not perturb a Haar answer: a Characterize answer over
/// TCP is bit-identical to the same request handled in process, and a
/// request that omits the family fields is bit-identical to one that
/// spells out haar/periodic. The periodic rows agree with the zero-pad
/// boundary's to round-off, also on a 1,111-sample trace, whose ragged
/// tail the periodic Haar analysis zero-pads to the next multiple of the
/// window.
#[test]
fn characterize_over_tcp_is_bit_identical_to_batch_for_haar() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let trace = deterministic_trace(2_048);

    // Over TCP, with the family fields defaulted (a pre-family client).
    let spec = inline_characterize(trace.clone());
    let tcp = client
        .characterize(spec.clone(), Some(60_000))
        .expect("tcp characterize");
    assert_eq!(tcp.get("family").and_then(Json::as_str), Some("haar"));
    assert_eq!(tcp.get("boundary").and_then(Json::as_str), Some("periodic"));

    // The same request handled in process (no transport): every float
    // must survive the frame encode/decode bit for bit, so the rendered
    // JSON is identical character for character.
    let service = Service::standard().expect("service");
    let request = didt_serve::Request {
        id: 1,
        deadline_ms: None,
        body: didt_serve::RequestBody::Characterize(spec),
    };
    let batch = match service.handle(&request, None).payload {
        didt_serve::ResponsePayload::Ok { result, .. } => result,
        other => panic!("in-process characterize failed: {other:?}"),
    };
    assert_eq!(
        tcp.render(),
        batch.render(),
        "TCP transport must not perturb a single bit of the Haar answer"
    );

    // Spelling the defaults out must change nothing either.
    let explicit = client
        .characterize(
            CharacterizeSpec {
                family: didt_dsp::WaveletFamily::Haar,
                boundary: didt_dsp::BoundaryMode::Periodic,
                ..inline_characterize(trace)
            },
            Some(60_000),
        )
        .expect("explicit haar characterize");
    assert_eq!(tcp.render(), explicit.render());

    // Haar's 2-tap filter never reads past a zero-padded tail, so the
    // zero-pad boundary mode sees the same nonzero coefficients as the
    // periodic analysis, and the per-scale variances agree to round-off.
    for len in [2_048, 1_111] {
        let [periodic, zero_pad] = [
            didt_dsp::BoundaryMode::Periodic,
            didt_dsp::BoundaryMode::ZeroPad,
        ]
        .map(|boundary| {
            let spec = CharacterizeSpec {
                boundary,
                ..inline_characterize(deterministic_trace(len))
            };
            let result = client
                .characterize(spec, Some(60_000))
                .expect("characterize");
            scale_variances_of(&result)
        });
        assert_eq!(periodic.len(), zero_pad.len(), "{len} samples");
        for (level, (p, z)) in periodic.iter().zip(&zero_pad).enumerate() {
            assert!(
                (p - z).abs() <= 1e-12 * p.abs().max(1e-12),
                "{len} samples, level {}: periodic {p} vs zero-pad {z}",
                level + 1
            );
        }
    }

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

/// Non-Haar families over the wire: a db3/symmetric request runs the
/// batch engine end to end and echoes its basis; a periodic dbN request
/// on an indivisible trace is a structured bad_request, not a panic.
#[test]
fn characterize_family_requests_over_tcp() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let result = client
        .characterize(
            CharacterizeSpec {
                family: didt_dsp::WaveletFamily::Db3,
                boundary: didt_dsp::BoundaryMode::Symmetric,
                ..inline_characterize(deterministic_trace(2_000))
            },
            Some(60_000),
        )
        .expect("db3 characterize");
    assert_eq!(result.get("family").and_then(Json::as_str), Some("db3"));
    assert_eq!(
        result.get("boundary").and_then(Json::as_str),
        Some("symmetric")
    );
    let scales = scale_variances_of(&result);
    assert_eq!(scales.len(), 6, "64-cycle window decomposes to 6 levels");
    assert!(scales.iter().all(|v| v.is_finite() && *v >= 0.0));

    // db3's 6-tap filter clamps the periodic pyramid to 4 levels, and
    // 2002 is not divisible by 2^4: the server must point at the
    // expansive modes, and keep serving.
    match client.characterize(
        CharacterizeSpec {
            family: didt_dsp::WaveletFamily::Db3,
            boundary: didt_dsp::BoundaryMode::Periodic,
            ..inline_characterize(deterministic_trace(2_002))
        },
        Some(60_000),
    ) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(
                message.contains("divisible"),
                "error must explain the length constraint: {message}"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert!(client.ping().is_ok());

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

/// A significance outside (0, 1) — 0 included — is refused before any
/// analysis runs, both by one-shot `Characterize` and at session open,
/// and the connection keeps serving.
#[test]
fn significance_outside_open_unit_interval_is_a_bad_request() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let expect_bad = |outcome: Result<_, ClientError>, what: &str| match outcome {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest, "{what}");
            // The edge check's message, not an error from deep inside
            // the analysis.
            assert!(
                message.contains("`significance` must be in (0, 1)"),
                "{what}: {message}"
            );
        }
        other => panic!("{what}: expected bad_request, got {other:?}"),
    };
    for significance in [0.0, -0.0, 1.0, -0.5, 1.5] {
        expect_bad(
            client
                .characterize(
                    CharacterizeSpec {
                        significance,
                        ..tiny_characterize()
                    },
                    Some(60_000),
                )
                .map(|_| ()),
            &format!("characterize at {significance}"),
        );
        expect_bad(
            client
                .session_open(SessionSpec {
                    significance,
                    ..SessionSpec::default()
                })
                .map(|_| ()),
            &format!("session open at {significance}"),
        );
        assert!(client.ping().is_ok());
    }

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn shutdown_drains_admitted_work() {
    let server = small_server();
    let addr = server.local_addr();

    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.characterize(tiny_characterize(), Some(60_000))
    });
    // Let the request reach the queue before pulling the plug.
    std::thread::sleep(Duration::from_millis(50));
    let report = server.shutdown();

    // The in-flight request either completed before the drain finished
    // or the client saw a clean transport close — never a worker panic.
    let _ = worker.join().expect("client thread");
    assert_eq!(report.worker_panics, 0);
}

/// The frame reader's buffers must stop growing after the first
/// request of a given size on a connection: no per-request allocation
/// growth (satellite of the work-stealing PR; the reader reuses its
/// payload scratch instead of collecting a fresh `Vec` per frame).
#[test]
fn frame_reader_reuses_buffers_across_requests() {
    let server = small_server();
    let (mut stream, mut reader) = raw_connect(server.local_addr());
    let reuse_before = didt_telemetry::MetricsRegistry::global()
        .counter("serve.frame.buf_reuse")
        .get();

    let ping = |id: f64| Json::obj(vec![("id", Json::Num(id)), ("kind", Json::str("ping"))]);
    // Warm the connection: first responses size the client reader's
    // buffers (and the first request sizes the server reader's). All
    // ids render at the same width so every frame is the same length.
    for id in 90..92 {
        write_frame(&mut stream, &ping(f64::from(id))).unwrap();
        read_with_deadline(&mut reader).expect("ping reply");
    }
    let payload_cap = reader.payload_capacity();
    let buf_cap = reader.buf_capacity();
    assert!(payload_cap > 0, "scratch must be warmed by the first frame");

    let rounds = 30u32;
    for id in 0..rounds {
        write_frame(&mut stream, &ping(f64::from(10 + id))).unwrap();
        read_with_deadline(&mut reader).expect("ping reply");
    }
    assert_eq!(
        reader.payload_capacity(),
        payload_cap,
        "payload scratch must not grow per request"
    );
    assert_eq!(
        reader.buf_capacity(),
        buf_cap,
        "stream buffer must not grow per request"
    );
    // Both sides of the connection run in this process and share the
    // metrics registry: the server's reader decoded every request after
    // its first into a reused buffer, and the client's reader did the
    // same for responses.
    let reuse_after = didt_telemetry::MetricsRegistry::global()
        .counter("serve.frame.buf_reuse")
        .get();
    assert!(
        reuse_after >= reuse_before + u64::from(rounds),
        "buf_reuse counter must track reused decodes: before {reuse_before}, after {reuse_after}"
    );

    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

/// Concurrency in the worker pool is invisible on the wire: a
/// pipelined burst mixing two Characterize calibration keys with Pings,
/// served by three workers, answers every id exactly once, and every
/// Characterize result renders byte-equal to `Service::handle` on the
/// same request in process.
#[test]
fn pipelined_mixed_burst_is_answered_once_and_matches_in_process_handle() {
    let server = start_server(ServeConfig {
        workers: 3,
        queue_depth: 32,
        ..ServeConfig::default()
    });
    let (mut stream, mut reader) = raw_connect(server.local_addr());

    let trace = deterministic_trace(1_024);
    let body = |i: u64| match i % 3 {
        0 => didt_serve::RequestBody::Ping,
        1 => didt_serve::RequestBody::Characterize(inline_characterize(trace.clone())),
        _ => didt_serve::RequestBody::Characterize(CharacterizeSpec {
            window: 32,
            ..inline_characterize(trace.clone())
        }),
    };
    let requests: Vec<didt_serve::Request> = (0..12u64)
        .map(|i| didt_serve::Request {
            id: 500 + i,
            deadline_ms: None,
            body: body(i),
        })
        .collect();
    // Write the whole burst before reading anything, so the queue holds
    // it while all three workers pop.
    for request in &requests {
        write_frame(&mut stream, &request.to_json()).unwrap();
    }
    let mut answers = std::collections::BTreeMap::new();
    for _ in &requests {
        let reply = read_with_deadline(&mut reader).expect("burst reply");
        let response = didt_serve::Response::from_json(&reply).expect("response shape");
        let didt_serve::ResponsePayload::Ok { result, .. } = response.payload else {
            panic!("burst request {} failed: {reply:?}", response.id);
        };
        assert!(
            answers.insert(response.id, result).is_none(),
            "id {} answered twice",
            response.id
        );
    }
    assert_eq!(
        answers.keys().copied().collect::<Vec<_>>(),
        (500..512).collect::<Vec<_>>(),
        "every pipelined request must be answered exactly once"
    );

    let reference = Service::standard().expect("service");
    for request in &requests {
        if !matches!(request.body, didt_serve::RequestBody::Characterize(_)) {
            continue;
        }
        let didt_serve::ResponsePayload::Ok { result, .. } =
            reference.handle(request, None).payload
        else {
            panic!("in-process characterize {} failed", request.id);
        };
        assert_eq!(
            answers[&request.id].render(),
            result.render(),
            "pooled answer {} must be byte-equal to the in-process answer",
            request.id
        );
    }

    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.served, requests.len() as u64);
}

/// Ping `addr` back-to-back from a client thread, call `shutdown`, and
/// require the client to see its connection close before its 20 s cap.
/// A peer that never pauses never lets a read time out, so shutdown
/// must check its flag before every frame, not only on timeouts.
fn shutdown_closes_busy_connection(addr: SocketAddr, shutdown: impl FnOnce()) {
    let cap = Duration::from_secs(20);
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let pinger = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let t0 = Instant::now();
        let mut answered = 0u64;
        while t0.elapsed() < cap {
            if client.ping().is_err() {
                return (answered, Some(t0.elapsed()));
            }
            answered += 1;
            if answered == 10 {
                started_tx.send(()).expect("signal");
            }
        }
        (answered, None)
    });
    started_rx
        .recv_timeout(cap)
        .expect("the pinger got ten answers");
    shutdown();
    let (answered, closed_after) = pinger.join().expect("pinger thread");
    assert!(answered >= 10, "answered {answered}");
    assert!(
        closed_after.is_some(),
        "the busy connection outlived shutdown: the client pinged for the full {cap:?}"
    );
}

#[test]
fn shutdown_closes_a_connection_that_never_pauses() {
    let server = small_server();
    let worker = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let router = didt_serve::Router::start(didt_serve::RouterConfig::new(
        "127.0.0.1:0",
        vec![worker.local_addr().to_string()],
    ))
    .expect("router start");

    let addr = server.local_addr();
    shutdown_closes_busy_connection(addr, move || {
        assert_eq!(server.shutdown().worker_panics, 0);
    });
    let addr = router.local_addr();
    shutdown_closes_busy_connection(addr, move || {
        let _ = router.shutdown();
    });
    assert_eq!(worker.shutdown().worker_panics, 0);
}
