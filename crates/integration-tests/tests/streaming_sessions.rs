//! Streaming characterization sessions over real TCP.
//!
//! The acceptance contract (ISSUE 9): a session fed ragged chunks
//! through `SessionPush` must produce a verdict **bit-identical** to a
//! one-shot `Characterize` over the concatenated samples — and the
//! wire protocol must stay in sync under hostile framing: partial
//! session frames split across reads, pushes after close, and
//! overload rejections absorbed by the client's retry schedule.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_serve::{
    CharacterizeSpec, Client, ClientConfig, ClientError, ClosedLoopSpec, ErrorCode, FrameReader,
    Request, RequestBody, ResponsePayload, ServeConfig, Server, Service, SessionSpec, TraceSource,
    MAX_FRAME_LEN,
};
use didt_telemetry::Json;

fn start_server(config: ServeConfig) -> Server {
    Server::start(config, Service::standard().expect("service")).expect("server start")
}

/// Deterministic synthetic current trace.
fn trace(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            20.0 + 4.0 * (t / 7.3).sin() + 2.5 * (t / 2.1).sin()
        })
        .collect()
}

fn spec_for(window: usize, samples: Vec<f64>) -> CharacterizeSpec {
    CharacterizeSpec {
        trace: TraceSource::Inline(samples),
        window,
        gauss_windows: 25,
        ..CharacterizeSpec::default()
    }
}

/// Drop the session id the verdict carries on top of the report.
fn strip_session(verdict: Json) -> Json {
    match verdict {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "session").collect()),
        other => other,
    }
}

#[test]
fn session_verdict_bit_identical_to_one_shot_over_tcp() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Haar/periodic at three windows (1,111 samples leave a ragged tail
    // the analysis zero-pads), and one expansive non-Haar basis.
    for (window, family, boundary) in [
        (16usize, WaveletFamily::Haar, BoundaryMode::Periodic),
        (64, WaveletFamily::Haar, BoundaryMode::Periodic),
        (256, WaveletFamily::Haar, BoundaryMode::Periodic),
        (64, WaveletFamily::Db4, BoundaryMode::Symmetric),
    ] {
        let samples = trace(1111);
        let one_shot = client
            .characterize(
                CharacterizeSpec {
                    family,
                    boundary,
                    ..spec_for(window, samples.clone())
                },
                None,
            )
            .expect("one-shot characterize");

        let session = client
            .session_open(SessionSpec {
                window,
                gauss_windows: 25,
                family,
                boundary,
                ..SessionSpec::default()
            })
            .expect("session open");
        // Ragged chunks, deliberately misaligned with the window.
        let mut offset = 0usize;
        for chunk in [1usize, 3, 50, window - 1, window, 700, usize::MAX] {
            let end = samples.len().min(offset.saturating_add(chunk));
            client
                .session_push(session, samples[offset..end].to_vec())
                .expect("push");
            offset = end;
            if offset == samples.len() {
                break;
            }
        }
        let verdict = client.session_verdict(session, None).expect("verdict");
        client.session_close(session).expect("close");

        assert_eq!(
            strip_session(verdict).render(),
            one_shot.render(),
            "{}/{} at window {window}: streamed verdict must be byte-identical to one-shot",
            family.name(),
            boundary.name()
        );
    }

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn partial_session_frames_split_across_reads_stay_in_sync() {
    let server = start_server(ServeConfig::default());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(stream);
    let give_up = Instant::now() + Duration::from_secs(30);
    let read = |reader: &mut FrameReader<TcpStream>| {
        let mut abort = || Instant::now() >= give_up;
        reader.read_frame(MAX_FRAME_LEN, &mut abort).expect("reply")
    };

    // Open a session with an ordinary frame.
    let open = Request {
        id: 1,
        deadline_ms: None,
        body: RequestBody::SessionOpen(SessionSpec {
            window: 16,
            gauss_windows: 25,
            ..SessionSpec::default()
        }),
    };
    didt_serve::write_frame(&mut writer, &open.to_json()).expect("open frame");
    let reply = read(&mut reader);
    let session = reply
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Json::as_u64)
        .expect("session id");

    // Push frames whose bytes arrive in three bursts: the length
    // prefix alone, half the payload, then the rest after a pause. The
    // server's resumable FrameReader must reassemble every one.
    for id in 2..5u64 {
        let push = Request {
            id,
            deadline_ms: None,
            body: RequestBody::SessionPush {
                session,
                samples: trace(37),
            },
        };
        let payload = push.to_json().render().into_bytes();
        writer
            .write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
        let half = payload.len() / 2;
        writer.write_all(&payload[..half]).expect("first half");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
        writer.write_all(&payload[half..]).expect("second half");
        let reply = read(&mut reader);
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
    }

    // The split frames really landed: the verdict sees 3 * 37 samples.
    let verdict = Request {
        id: 9,
        deadline_ms: None,
        body: RequestBody::SessionVerdict { session },
    };
    didt_serve::write_frame(&mut writer, &verdict.to_json()).expect("verdict frame");
    let reply = read(&mut reader);
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        reply
            .get("result")
            .and_then(|r| r.get("trace_len"))
            .and_then(Json::as_u64),
        Some(111),
        "verdict must cover every sample from the split frames"
    );

    drop(writer);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.protocol_errors, 0, "split frames are not errors");
}

#[test]
fn push_after_close_is_structured_error_and_connection_survives() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let session = client
        .session_open(SessionSpec {
            window: 16,
            gauss_windows: 25,
            ..SessionSpec::default()
        })
        .expect("open");
    client.session_push(session, trace(64)).expect("push");
    client.session_close(session).expect("close");

    // Pushing into the closed session must be a structured error — not
    // a desync, not a hangup.
    match client.session_push(session, trace(8)) {
        Err(ClientError::Server {
            code: ErrorCode::SessionNotFound,
            ..
        }) => {}
        other => panic!("push after close returned {other:?}"),
    }
    // Same connection, still in sync: a fresh session works end to end.
    let session2 = client
        .session_open(SessionSpec {
            window: 16,
            gauss_windows: 25,
            ..SessionSpec::default()
        })
        .expect("reopen");
    client.session_push(session2, trace(64)).expect("push 2");
    assert!(client.session_verdict(session2, None).is_ok());
    client.session_close(session2).expect("close 2");

    drop(client);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn client_retry_schedule_absorbs_overload_rejections() {
    // A deliberately tiny server: 1 worker, queue depth 2. Concurrent
    // clients with the opt-in retry config must see every request
    // eventually succeed — rejections are absorbed by backoff, never
    // surfaced, and never turn into transport errors.
    let server = start_server(ServeConfig {
        workers: 1,
        queue_depth: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let spec = ClosedLoopSpec {
        benchmark: "gzip".to_string(),
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: didt_bench::ControllerSpec::None,
        instructions: 2_000,
        warmup_cycles: 500,
        replay: None,
    };
    let ok = AtomicU64::new(0);
    let surfaced_rejections = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let addr = addr.clone();
            let spec = spec.clone();
            let (ok, surfaced, errors) = (&ok, &surfaced_rejections, &errors);
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client.set_config(ClientConfig::with_retries(10));
                for _ in 0..5 {
                    match client.call(RequestBody::ClosedLoop(spec.clone()), None) {
                        Ok(resp) => match resp.payload {
                            ResponsePayload::Ok { .. } => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            ResponsePayload::Rejected { .. } => {
                                surfaced.fetch_add(1, Ordering::Relaxed);
                            }
                            ResponsePayload::Error { .. } => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let report = server.shutdown();
    assert_eq!(ok.load(Ordering::Relaxed), 30, "every request must land");
    assert_eq!(
        surfaced_rejections.load(Ordering::Relaxed),
        0,
        "retries must absorb overload"
    );
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    assert_eq!(report.worker_panics, 0);
}
