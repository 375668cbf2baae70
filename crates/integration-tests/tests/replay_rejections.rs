//! A served replay streams its recording chunk by chunk, so a file
//! that goes bad late must still be rejected whole: no answer before
//! the end chunk verifies, the reader's own error text, and no
//! `trace.replay_cycles` for the rejected file. Then the same server
//! answers a good file bit for bit as the batch runner does.
//!
//! The Stats counters are process-global, so this file holds one test
//! and nothing else replays in its process.

use std::path::Path;

use didt_bench::{ControllerSpec, PointResult, RunParams, SweepContext, SweepPoint};
use didt_core::control::{ClosedLoop, ClosedLoopConfig, ClosedLoopResult, NoControl};
use didt_serve::{Client, ClientError, ClosedLoopSpec, ErrorCode, ServeConfig, Server, Service};
use didt_telemetry::Json;
use didt_trace::{read_path, Record, TraceMeta, TraceReader, TraceWriter};
use didt_uarch::Benchmark;

const RUN: RunParams = RunParams {
    instructions: 3_000,
    warmup_cycles: 800,
};

const WAVELET: ControllerSpec = ControllerSpec::WaveletThreshold {
    low: 0.985,
    high: 1.015,
    hysteresis: 0.004,
    delay: 1,
};

fn write(path: &Path, meta: &TraceMeta, records: &[Record], chunk: usize) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_records(Vec::new(), meta, chunk).unwrap();
    w.extend_from_slice(records).unwrap();
    let bytes = w.finish().unwrap();
    std::fs::write(path, &bytes).unwrap();
    bytes
}

/// Data chunks the library reader accepts before it stops.
fn accepted_chunks(path: &Path) -> u64 {
    let Ok(mut reader) = TraceReader::open(path) else {
        return 0;
    };
    let mut chunk = Vec::new();
    let mut accepted = 0;
    while let Ok(true) = reader.next_chunk(&mut chunk) {
        accepted += 1;
    }
    accepted
}

/// `(read_chunks, replay_cycles)` from the server's Stats.
fn trace_counters(client: &mut Client) -> (u64, u64) {
    let stats = client.stats().unwrap();
    let trace = stats.get("trace").expect("trace block");
    let get = |k: &str| trace.get(k).and_then(Json::as_u64).unwrap();
    (get("read_chunks"), get("replay_cycles"))
}

fn spec(path: &Path, monitor_terms: usize) -> ClosedLoopSpec {
    ClosedLoopSpec {
        benchmark: Benchmark::Gzip.name().to_string(),
        pdn_pct: 200.0,
        monitor_terms,
        controller: WAVELET,
        instructions: RUN.instructions,
        warmup_cycles: RUN.warmup_cycles,
        replay: Some(path.display().to_string()),
    }
}

fn leg_bits(leg: &Json) -> Vec<u64> {
    [
        "cycles",
        "instructions",
        "low_emergencies",
        "high_emergencies",
        "stall_cycles",
        "nop_cycles",
        "false_positives",
        "v_min",
        "v_max",
        "mean_power",
    ]
    .iter()
    .map(|k| leg.get(k).and_then(Json::as_f64).unwrap().to_bits())
    .collect()
}

fn result_bits(r: &ClosedLoopResult) -> Vec<u64> {
    [
        r.cycles as f64,
        r.instructions as f64,
        r.low_emergencies as f64,
        r.high_emergencies as f64,
        r.stall_cycles as f64,
        r.nop_cycles as f64,
        r.false_positives as f64,
        r.v_min,
        r.v_max,
        r.mean_power,
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect()
}

fn assert_answers(answer: &Json, want: &PointResult) {
    assert_eq!(
        leg_bits(answer.get("baseline").unwrap()),
        result_bits(&want.baseline)
    );
    assert_eq!(
        leg_bits(answer.get("controlled").unwrap()),
        result_bits(&want.controlled)
    );
}

#[test]
fn a_bad_recording_is_rejected_whole_and_the_server_answers_the_next() {
    let dir = std::env::temp_dir().join(format!("didt_replay_rejections_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ctx = SweepContext::standard().unwrap();
    let cfg = ClosedLoopConfig {
        seed: didt_bench::workload_seed(Benchmark::Gzip, 200.0),
        warmup_cycles: RUN.warmup_cycles,
        instructions: RUN.instructions,
        ..ClosedLoopConfig::standard(Benchmark::Gzip)
    };
    let harness = ClosedLoop::new(*ctx.system().processor(), *ctx.pdn(200.0).unwrap(), cfg);
    let live = harness.run_recording(&mut NoControl).unwrap();
    let meta = live.meta();
    // Chunks of 1,000 records: the pre-roll ends inside the first and
    // the last is short.
    let chunk = 1_000;
    let chunks = live.records.len().div_ceil(chunk) as u64;
    assert!(chunks >= 3);

    let good = dir.join("good.dtrc");
    let good_bytes = write(&good, &meta, &live.records, chunk);
    // The last data chunk's CRC is the 4 bytes before the 20-byte end
    // chunk; flip a byte just inside its payload.
    let corrupt = dir.join("corrupt-last-chunk.dtrc");
    let mut bytes = good_bytes.clone();
    let pos = bytes.len() - 20 - 4 - 1;
    bytes[pos] ^= 0x10;
    std::fs::write(&corrupt, &bytes).unwrap();
    let truncated = dir.join("truncated.dtrc");
    std::fs::write(&truncated, &good_bytes[..good_bytes.len() * 2 / 3]).unwrap();
    let long_pre_roll = dir.join("pre-roll-beyond-records.dtrc");
    let mut bad_meta = meta.clone();
    bad_meta.pre_roll = live.records.len() as u64 + 1;
    write(&long_pre_roll, &bad_meta, &live.records, chunk);

    // What the batch runner answers, and what each file's reader
    // accepts, computed before the server's counters are read.
    let point = SweepPoint {
        benchmark: Benchmark::Gzip,
        pdn_pct: 200.0,
        monitor_terms: 13,
        controller: WAVELET,
    };
    let want = ctx
        .run_replay(&point, RUN, &live.records, live.pre_roll)
        .unwrap();
    assert!(want.controlled.stall_cycles + want.controlled.nop_cycles > 0);
    let rejected = [
        (&corrupt, "CRC mismatch in data chunk", chunks - 1),
        (&truncated, "truncated", accepted_chunks(&truncated)),
        (&long_pre_roll, "pre_roll", chunks),
    ];
    assert_eq!(accepted_chunks(&corrupt), chunks - 1);
    assert_eq!(accepted_chunks(&long_pre_roll), chunks);

    let server = Server::start(
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            ..ServeConfig::default()
        },
        Service::standard().unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (path, names, accepted) in rejected {
        // The message is the reader's own, as a whole-file read words it.
        let want_message = format!(
            "recorded trace `{}`: {}",
            path.display(),
            read_path(path).unwrap_err()
        );
        assert!(want_message.contains(names), "{want_message}");
        let (chunks_before, cycles_before) = trace_counters(&mut client);
        // A point that cannot be set up (no wavelet terms) still gets
        // the file's rejection: the file is read first.
        for terms in [13, 0] {
            match client.closed_loop(spec(path, terms), Some(60_000)) {
                Err(ClientError::Server { code, message }) => {
                    assert_eq!(code, ErrorCode::BadRequest, "{message}");
                    assert_eq!(message, want_message);
                }
                other => panic!(
                    "{} with {terms} terms was answered: {other:?}",
                    path.display()
                ),
            }
        }
        let (chunks_after, cycles_after) = trace_counters(&mut client);
        assert_eq!(
            cycles_after,
            cycles_before,
            "{}: replay_cycles moved",
            path.display()
        );
        assert_eq!(
            chunks_after - chunks_before,
            2 * accepted,
            "{}: read_chunks",
            path.display()
        );
    }

    // The same server, the same connection: a good file answers bit for
    // bit what the batch runner does, and counts every record once.
    let (chunks_before, cycles_before) = trace_counters(&mut client);
    let answer = client.closed_loop(spec(&good, 13), Some(60_000)).unwrap();
    assert_answers(&answer, &want);
    let (chunks_after, cycles_after) = trace_counters(&mut client);
    assert_eq!(cycles_after - cycles_before, live.records.len() as u64);
    assert_eq!(chunks_after - chunks_before, chunks);

    drop(client);
    assert_eq!(server.shutdown().worker_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}
