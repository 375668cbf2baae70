//! Block frames (protocol v3): request samples as raw little-endian
//! `f64`s after a JSON header.
//!
//! Properties pinned here:
//!
//! * any finite `f64` bit pattern — signed zeros and subnormals
//!   included — survives encode/decode with equal `to_bits`, for both
//!   kinds that carry samples;
//! * a malformed block frame is a structured `bad_request` from a live
//!   server, and a `Ping` on the same connection still succeeds. The
//!   malformations: every strict prefix of a valid payload, a header
//!   length past the payload end, a block that is not a whole number
//!   of samples or disagrees with the header's count, a header with no
//!   block reference, and a non-finite sample (which gets the same
//!   answer the JSON path gives a `null` sample);
//! * the server answers the same `Characterize` sent as v2 JSON and as
//!   a block frame with byte-identical response frames, and a session
//!   fed a mix of both framings still equals the one-shot answer.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use didt_serve::{
    decode_request, write_request, CharacterizeSpec, FrameReader, Request, RequestBody,
    ServeConfig, Server, Service, SessionSpec, TraceSource, MAX_FRAME_LEN,
};
use didt_telemetry::Json;
use proptest::prelude::*;

/// Bit patterns every roundtrip case includes.
const SPECIAL_BITS: [u64; 8] = [
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x0000_0000_0000_0001, // smallest subnormal
    0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
    0x0010_0000_0000_0000, // MIN_POSITIVE
    0x7FEF_FFFF_FFFF_FFFF, // MAX
    0xFFEF_FFFF_FFFF_FFFF, // MIN
    0x3FF0_0000_0000_0001, // 1 + ulp
];

/// Finite samples from raw bit patterns: the specials first, and any
/// non-finite pattern folded onto a finite one by clearing an exponent
/// bit.
fn finite_samples(bits: &[u64]) -> Vec<f64> {
    bits.iter()
        .enumerate()
        .map(|(i, &b)| {
            let b = SPECIAL_BITS.get(i).copied().unwrap_or(b);
            let x = f64::from_bits(b);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(b & !(1 << 62))
            }
        })
        .collect()
}

fn inline_body(samples: Vec<f64>) -> RequestBody {
    RequestBody::Characterize(CharacterizeSpec {
        trace: TraceSource::Inline(samples),
        window: 16,
        gauss_windows: 20,
        ..CharacterizeSpec::default()
    })
}

/// The payload (no length prefix) `write_request` puts on the wire.
fn payload(id: u64, body: &RequestBody, blocks: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, &mut Vec::new(), id, None, body, blocks).expect("encode");
    wire.split_off(4)
}

/// A block payload with its header replaced by `header`.
fn with_header(header: &str, block: &[u8]) -> Vec<u8> {
    let mut p = vec![0u8];
    p.extend_from_slice(&(header.len() as u32).to_le_bytes());
    p.extend_from_slice(header.as_bytes());
    p.extend_from_slice(block);
    p
}

/// Split a valid block payload into its header text and block bytes.
fn split_block(p: &[u8]) -> (String, Vec<u8>) {
    assert_eq!(p[0], 0, "not a block frame");
    let len = u32::from_le_bytes(p[1..5].try_into().unwrap()) as usize;
    let header = String::from_utf8(p[5..5 + len].to_vec()).expect("UTF-8 header");
    (header, p[5 + len..].to_vec())
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let reader = FrameReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn send(&mut self, payload: &[u8]) {
        self.stream
            .write_all(&(payload.len() as u32).to_be_bytes())
            .expect("prefix");
        self.stream.write_all(payload).expect("payload");
    }

    /// The next response frame's raw payload.
    fn reply_bytes(&mut self) -> Vec<u8> {
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut abort = move || Instant::now() >= give_up;
        self.reader
            .read_payload(MAX_FRAME_LEN, &mut abort)
            .expect("reply")
            .to_vec()
    }

    fn reply(&mut self) -> Json {
        Json::parse(std::str::from_utf8(&self.reply_bytes()).expect("UTF-8")).expect("JSON reply")
    }

    /// Send `payload`, expect a `bad_request`; returns (id, message).
    fn bad_request(&mut self, payload: &[u8], what: &str) -> (u64, String) {
        self.send(payload);
        let reply = self.reply();
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("bad_request"),
            "{what}: {}",
            reply.render()
        );
        let id = reply.get("id").and_then(Json::as_u64).expect("id");
        let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
        (id, message.to_string())
    }

    fn ping_ok(&mut self, id: u64) {
        self.send(&payload(id, &RequestBody::Ping, true));
        let reply = self.reply();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
    }
}

fn start_server() -> Server {
    Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Service::standard().expect("service"),
    )
    .expect("server start")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Finite samples of any bit pattern come back with equal
    /// `to_bits`, as an inline trace and as a session push.
    #[test]
    fn finite_samples_roundtrip_bit_exactly(
        bits in prop::collection::vec(any::<u64>(), 0..=300),
        session in any::<u64>(),
    ) {
        let samples = finite_samples(&bits);
        let want: Vec<u64> = samples.iter().map(|x| x.to_bits()).collect();
        let push = RequestBody::SessionPush { session: session >> 12, samples: samples.clone() };
        for body in [inline_body(samples), push] {
            let p = payload(5, &body, true);
            prop_assert_eq!(p[0], 0);
            let back = decode_request(&p).expect("decode");
            let got: Vec<u64> =
                back.body.samples().expect("samples").iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(back.body, body);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every malformation is a structured `bad_request` from a live
    /// server, and the connection keeps serving.
    #[test]
    fn malformed_block_frames_are_bad_requests(
        bits in prop::collection::vec(any::<u64>(), 0..=24),
        id in 1u64..=1_000_000,
        push in any::<bool>(),
        junk in prop::collection::vec(any::<u8>(), 1..=7),
        extra in 1u32..=1_000,
        bad_at in any::<u64>(),
        bad_kind in 0usize..4,
    ) {
        let samples = finite_samples(&bits);
        let body = if push {
            RequestBody::SessionPush { session: 1, samples: samples.clone() }
        } else {
            inline_body(samples.clone())
        };
        let valid = payload(id, &body, true);
        let (header, block) = split_block(&valid);
        let server = start_server();
        let mut conn = Conn::open(server.local_addr());

        // Every strict prefix of the payload, each as its own intact frame.
        for cut in 0..valid.len() {
            conn.bad_request(&valid[..cut], &format!("prefix of {cut} bytes"));
        }
        conn.ping_ok(1);

        // A header length past the end of the payload.
        let mut long = valid.clone();
        let past = (valid.len() - 5) as u32 + extra;
        long[1..5].copy_from_slice(&past.to_le_bytes());
        prop_assert_eq!(conn.bad_request(&long, "header past end").0, 0);
        conn.ping_ok(2);

        // A block that is not a whole number of samples.
        let mut ragged = valid.clone();
        ragged.extend_from_slice(&junk);
        prop_assert_eq!(conn.bad_request(&ragged, "ragged block").0, id);
        // A block one sample longer, and (when there is one) one
        // sample shorter, than the header's count.
        let mut longer = valid.clone();
        longer.extend_from_slice(&1.0f64.to_le_bytes());
        prop_assert_eq!(conn.bad_request(&longer, "count too small").0, id);
        if !block.is_empty() {
            let shorter = &valid[..valid.len() - 8];
            prop_assert_eq!(conn.bad_request(shorter, "count too large").0, id);
        }
        conn.ping_ok(3);

        // Headers with no block reference: the v2 document with its
        // array, and a kind that carries no samples.
        let json_header = Request { id, deadline_ms: None, body: body.clone() }.to_json().render();
        let (got, _) = conn.bad_request(&with_header(&json_header, &block), "array header");
        prop_assert_eq!(got, id);
        let ping_header = format!(r#"{{"id": {id}, "kind": "ping"}}"#);
        prop_assert_eq!(conn.bad_request(&with_header(&ping_header, &block), "ping header").0, id);
        conn.ping_ok(4);

        // A non-finite sample: the answer the JSON path gives the same
        // request, whose renderer writes the sample as `null`.
        let mut poisoned = samples;
        poisoned.push(0.5);
        let at = (bad_at % poisoned.len() as u64) as usize;
        let signalling_nan = f64::from_bits(0x7FF0_0000_0000_0001);
        poisoned[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, signalling_nan][bad_kind];
        let poisoned_body = match &body {
            RequestBody::SessionPush { session, .. } => {
                RequestBody::SessionPush { session: *session, samples: poisoned }
            }
            _ => inline_body(poisoned),
        };
        let as_block = conn.bad_request(&payload(id, &poisoned_body, true), "non-finite block");
        let as_json = conn.bad_request(&payload(id, &poisoned_body, false), "null in JSON");
        prop_assert_eq!(&as_block, &as_json);
        prop_assert_eq!(as_block.0, id);
        conn.ping_ok(5);

        // The unbroken frame decodes.
        prop_assert!(header.contains(r#""block""#), "{}", header);
        prop_assert_eq!(decode_request(&valid).expect("valid frame").body, body);

        drop(conn);
        let report = server.shutdown();
        prop_assert_eq!(report.worker_panics, 0);
    }
}

/// A deterministic pseudo-random current trace.
fn trace(n: usize) -> Vec<f64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            20.0 + (x as f64 / u64::MAX as f64) * 30.0
        })
        .collect()
}

#[test]
fn json_and_block_requests_get_byte_identical_responses() {
    let server = start_server();
    let mut conn = Conn::open(server.local_addr());
    let body = RequestBody::Characterize(CharacterizeSpec {
        trace: TraceSource::Inline(trace(4_096)),
        window: 256,
        pdn_pct: 150.0,
        ..CharacterizeSpec::default()
    });
    conn.send(&payload(11, &body, false));
    let json = conn.reply_bytes();
    conn.send(&payload(11, &body, true));
    let block = conn.reply_bytes();
    assert!(json.starts_with(b"{"), "a JSON response");
    assert_eq!(
        json, block,
        "the framing of the request must not reach the answer"
    );

    drop(conn);
    assert_eq!(server.shutdown().worker_panics, 0);
}

#[test]
fn session_fed_both_framings_equals_the_one_shot_answer() {
    let server = start_server();
    let mut conn = Conn::open(server.local_addr());
    let samples = trace(1_500);
    let ok_result = |conn: &mut Conn| {
        let reply = conn.reply();
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            reply.render()
        );
        reply.get("result").cloned().expect("result")
    };

    conn.send(&payload(1, &inline_body(samples.clone()), true));
    let one_shot = ok_result(&mut conn);

    let open = RequestBody::SessionOpen(SessionSpec {
        window: 16,
        gauss_windows: 20,
        ..SessionSpec::default()
    });
    conn.send(&payload(2, &open, true));
    let session = ok_result(&mut conn)
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id");
    // Ragged chunks, alternating block and JSON framing.
    for (i, chunk) in samples.chunks(97).enumerate() {
        let push = RequestBody::SessionPush {
            session,
            samples: chunk.to_vec(),
        };
        conn.send(&payload(10 + i as u64, &push, i % 2 == 0));
        ok_result(&mut conn);
    }
    conn.send(&payload(99, &RequestBody::SessionVerdict { session }, true));
    let verdict = match ok_result(&mut conn) {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "session").collect()),
        other => other,
    };
    assert_eq!(verdict.render(), one_shot.render());

    drop(conn);
    assert_eq!(server.shutdown().worker_panics, 0);
}
