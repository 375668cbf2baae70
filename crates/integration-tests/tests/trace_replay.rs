//! End-to-end trace toolchain: record a closed-loop run, persist it as
//! a `.dtrc` file, read it back, and replay it — the replayed metrics
//! must be bit-identical to the live run, with the file (not shared
//! process memory) as the only carrier. Plus the determinism contracts
//! of BBV-style phase clustering: fixed seeds give identical
//! clusterings, and the chunking of the trace file is invisible to the
//! clustering downstream of it. And the one-pass block replay against a
//! per-cycle reference of the two-leg replay loop, bit for bit, and the
//! replay streamed chunk by chunk from a `.dtrc` reader against the
//! replay of the same records held whole.

use std::path::PathBuf;
use std::sync::OnceLock;

use didt_bench::{capture_records, ControllerSpec, RunParams, SweepContext, SweepPoint};
use didt_core::control::{
    ClosedLoop, ClosedLoopConfig, ClosedLoopResult, DidtController, NoControl, REPLAY_BLOCK,
};
use didt_core::monitor::CycleSense;
use didt_dsp::{BoundaryMode, WaveletFamily};
use didt_pdn::SecondOrderPdn;
use didt_trace::{
    cluster_records, read_path, write_path, PhaseConfig, Record, RecordKind, TraceMeta,
    TraceReader, TraceWriter,
};
use didt_uarch::{Benchmark, ControlAction};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("didt_trace_replay_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn replay_from_file_is_bit_identical_to_the_live_run() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let cfg = ClosedLoopConfig {
        seed: didt_bench::workload_seed(Benchmark::Mcf, 150.0),
        warmup_cycles: 800,
        instructions: 3_000,
        ..ClosedLoopConfig::standard(Benchmark::Mcf)
    };
    let harness = ClosedLoop::new(*ctx.system().processor(), *pdn, cfg);
    let live = harness.run_recording(&mut NoControl).unwrap();

    let dir = temp_dir("bitident");
    let path = dir.join("mcf.dtrc");
    write_path(&path, &live.meta(), &live.records).unwrap();
    let (meta, records) = read_path(&path).unwrap();
    assert_eq!(meta.pre_roll as usize, live.pre_roll);
    assert_eq!(records.len(), live.records.len());
    assert!(
        records.iter().zip(&live.records).all(|(a, b)| a.bits_eq(b)),
        "file round-trip must be bit-identical"
    );

    let replayed = harness
        .replay(&mut NoControl, &records, meta.pre_roll as usize)
        .unwrap();
    assert_eq!(
        live.result, replayed,
        "replaying the persisted trace must reproduce the live metrics"
    );
    // The batch-runner replay entry point agrees, and with no controller
    // both legs are the same replayed result.
    let point = SweepPoint {
        benchmark: Benchmark::Mcf,
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: didt_bench::ControllerSpec::None,
    };
    let run = didt_bench::RunParams {
        instructions: 3_000,
        warmup_cycles: 800,
    };
    let pr = ctx
        .run_replay(&point, run, &records, meta.pre_roll as usize)
        .unwrap();
    assert_eq!(pr.baseline, live.result);
    assert_eq!(pr.controlled, live.result);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clustering_is_deterministic_and_chunking_invariant() {
    let records = capture_records(
        Benchmark::Swim,
        &didt_uarch::ProcessorConfig::default(),
        0xD1D7_2004,
        1_000,
        16_384,
    );
    let cfg = PhaseConfig {
        interval: 512,
        clusters: 4,
        levels: 3,
        ..PhaseConfig::default()
    };
    let a = cluster_records(&records, &cfg).unwrap();
    let b = cluster_records(&records, &cfg).unwrap();
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.representatives, b.representatives);
    assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
        for (x, y) in ca.iter().zip(cb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    // Weights are a probability distribution over representatives.
    let total: f64 = a.representatives.iter().map(|r| r.weight).sum();
    assert!((total - 1.0).abs() < 1e-12, "weights sum to {total}");

    // Chunk size is a storage choice, never a semantic one: the same
    // records through two differently-chunked files cluster identically.
    let meta = TraceMeta::new(RecordKind::Full, "swim");
    let mut files = Vec::new();
    for chunk in [64usize, 5_000] {
        let mut w = TraceWriter::with_chunk_records(Vec::new(), &meta, chunk).unwrap();
        for r in records.iter() {
            w.push(*r).unwrap();
        }
        files.push(w.finish().unwrap());
    }
    assert_ne!(
        files[0].len(),
        files[1].len(),
        "chunkings should differ on the wire"
    );
    let (_, ra) = didt_trace::read_all(&files[0][..]).unwrap();
    let (_, rb) = didt_trace::read_all(&files[1][..]).unwrap();
    let ca = cluster_records(&ra, &cfg).unwrap();
    let cb = cluster_records(&rb, &cfg).unwrap();
    assert_eq!(ca.assignments, cb.assignments);
    assert_eq!(ca.representatives, cb.representatives);
    assert_eq!(
        a.assignments, ca.assignments,
        "file round-trip must not move clusters"
    );
}

#[test]
fn replay_engages_a_controller_deterministically_through_a_file() {
    let ctx = SweepContext::standard().unwrap();
    let pdn = ctx.pdn(150.0).unwrap();
    let cfg = ClosedLoopConfig {
        seed: didt_bench::workload_seed(Benchmark::Gzip, 150.0),
        warmup_cycles: 800,
        instructions: 3_000,
        ..ClosedLoopConfig::standard(Benchmark::Gzip)
    };
    let harness = ClosedLoop::new(*ctx.system().processor(), *pdn, cfg);
    let live = harness.run_recording(&mut NoControl).unwrap();
    let dir = temp_dir("controller");
    let path = dir.join("gzip.dtrc");
    write_path(&path, &live.meta(), &live.records).unwrap();
    let (meta, records) = read_path(&path).unwrap();

    let point = SweepPoint {
        benchmark: Benchmark::Gzip,
        pdn_pct: 150.0,
        monitor_terms: 13,
        controller: didt_bench::ControllerSpec::WaveletThreshold {
            low: 0.975,
            high: 1.025,
            hysteresis: 0.004,
            delay: 1,
        },
    };
    let run = didt_bench::RunParams {
        instructions: 3_000,
        warmup_cycles: 800,
    };
    let x = ctx
        .run_replay(&point, run, &records, meta.pre_roll as usize)
        .unwrap();
    let y = ctx
        .run_replay(&point, run, &records, meta.pre_roll as usize)
        .unwrap();
    assert_eq!(x.baseline, y.baseline);
    assert_eq!(x.controlled, y.controlled);
    // The baseline leg of a replay is the recorded run itself.
    assert_eq!(x.baseline, live.result);
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-cycle replay loop the block replay replaced: the controller
/// decides each cycle before the PDN steps, and every tally happens in
/// that one loop.
fn reference_replay(
    pdn: &SecondOrderPdn,
    cfg: &ClosedLoopConfig,
    controller: &mut dyn DidtController,
    records: &[Record],
    pre_roll: usize,
) -> ClosedLoopResult {
    let mut pdn_sim = pdn.simulator();
    let mut sense = CycleSense {
        current: 0.0,
        voltage: pdn.vdd(),
    };
    let mut v_last = pdn.vdd();
    for r in &records[..pre_roll] {
        v_last = pdn_sim.step(r.current);
    }
    if pre_roll > 0 {
        sense = CycleSense {
            current: records[pre_roll - 1].current,
            voltage: v_last,
        };
    }
    let mut result = ClosedLoopResult {
        v_min: f64::INFINITY,
        v_max: f64::NEG_INFINITY,
        ..ClosedLoopResult::default()
    };
    let mut power_accum = 0.0;
    let mut committed: u64 = 0;
    for r in &records[pre_roll..] {
        let action = controller.decide(sense);
        let v = pdn_sim.step(r.current);
        committed += u64::from(r.committed);
        result.cycles += 1;
        power_accum += r.power;
        result.v_min = result.v_min.min(v);
        result.v_max = result.v_max.max(v);
        if v < cfg.v_fault_low {
            result.low_emergencies += 1;
        } else if v > cfg.v_fault_high {
            result.high_emergencies += 1;
        }
        match action {
            ControlAction::StallIssue => {
                result.stall_cycles += 1;
                if v > cfg.v_fault_low + cfg.control_margin + cfg.fp_guard {
                    result.false_positives += 1;
                }
            }
            ControlAction::InjectNops => {
                result.nop_cycles += 1;
                if v < cfg.v_fault_high - cfg.control_margin - cfg.fp_guard {
                    result.false_positives += 1;
                }
            }
            ControlAction::Normal => {}
        }
        sense = CycleSense {
            current: r.current,
            voltage: v,
        };
    }
    result.instructions = committed;
    result.mean_power = if result.cycles > 0 {
        power_accum / result.cycles as f64
    } else {
        0.0
    };
    if result.cycles == 0 {
        result.v_min = pdn.vdd();
        result.v_max = pdn.vdd();
    }
    result
}

fn result_bits(r: &ClosedLoopResult) -> [u64; 10] {
    [
        r.cycles,
        r.instructions,
        r.low_emergencies,
        r.high_emergencies,
        r.stall_cycles,
        r.nop_cycles,
        r.false_positives,
        r.v_min.to_bits(),
        r.v_max.to_bits(),
        r.mean_power.to_bits(),
    ]
}

/// Every `ControllerSpec`, with control points tight enough to engage
/// on short record slices.
const SPECS: [ControllerSpec; 7] = [
    ControllerSpec::None,
    ControllerSpec::AnalogThreshold {
        low: 0.985,
        high: 1.015,
        hysteresis: 0.004,
    },
    ControllerSpec::FullConvolution {
        low: 0.985,
        high: 1.015,
        hysteresis: 0.004,
    },
    ControllerSpec::PipelineDamping {
        window: 15,
        max_delta: 6.0,
    },
    ControllerSpec::WaveletThreshold {
        low: 0.985,
        high: 1.015,
        hysteresis: 0.004,
        delay: 1,
    },
    ControllerSpec::BiquadRecursive {
        low: 0.985,
        high: 1.015,
        hysteresis: 0.004,
        delay: 2,
    },
    ControllerSpec::WaveletFamilyThreshold {
        low: 0.985,
        high: 1.015,
        hysteresis: 0.004,
        delay: 1,
        family: WaveletFamily::Db3,
        boundary: BoundaryMode::Periodic,
    },
];

/// One context for every case, so PDNs and monitor designs build once.
fn shared_context() -> &'static SweepContext {
    static CTX: OnceLock<std::sync::Arc<SweepContext>> = OnceLock::new();
    CTX.get_or_init(|| SweepContext::standard().unwrap())
}

/// A recorded stream long enough for every slice the property takes.
fn shared_records() -> &'static [Record] {
    static RECORDS: OnceLock<Vec<Record>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        capture_records(
            Benchmark::Gzip,
            &didt_uarch::ProcessorConfig::default(),
            0xD1D7_2004,
            1_000,
            8 * REPLAY_BLOCK,
        )
    })
}

/// Scored-cycle counts at the kernel's lane edges and the replay's
/// block edges.
const EDGE_COUNTS: [usize; 9] = [
    0,
    1,
    7,
    8,
    9,
    REPLAY_BLOCK - 1,
    REPLAY_BLOCK,
    REPLAY_BLOCK + 1,
    2 * REPLAY_BLOCK + 9,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run_replay`'s one-pass block replay equals the per-cycle
    /// two-leg loop (a `NoControl` leg, then a controlled leg unless
    /// the point has no controller) on all ten fields of both legs, for
    /// every scheme, both impedances, scored counts at every lane and
    /// block edge plus one drawn at random, and pre-roll 0, 1 and the
    /// whole slice.
    #[test]
    fn block_replay_equals_the_per_cycle_two_leg_loop(
        offset in 0usize..4 * REPLAY_BLOCK,
        stressed in any::<bool>(),
        drawn in 0usize..3 * REPLAY_BLOCK,
    ) {
        let ctx = shared_context();
        let stream = &shared_records()[offset..];
        let pct = if stressed { 200.0 } else { 150.0 };
        let pdn = *ctx.pdn(pct).unwrap();
        let run = RunParams {
            instructions: 3_000,
            warmup_cycles: 800,
        };
        let mut engaged = 0u64;
        for scored in EDGE_COUNTS.into_iter().chain([drawn]) {
            // (records, pre_roll): no warm-in, one warm-in record, and a
            // slice that is all warm-in.
            for (len, pre_roll) in [(scored, 0), (scored + 1, 1), (scored, scored)] {
                let records = &stream[..len];
                for controller in SPECS {
                    let point = SweepPoint {
                        benchmark: Benchmark::Gzip,
                        pdn_pct: pct,
                        monitor_terms: 13,
                        controller,
                    };
                    let cfg = ClosedLoopConfig::standard(Benchmark::Gzip);
                    let want_base = reference_replay(&pdn, &cfg, &mut NoControl, records, pre_roll);
                    let want_ctl = if matches!(controller, ControllerSpec::None) {
                        want_base
                    } else {
                        let mut ctl = ctx.controller(&point).unwrap();
                        reference_replay(&pdn, &cfg, ctl.as_mut(), records, pre_roll)
                    };
                    let got = ctx.run_replay(&point, run, records, pre_roll).unwrap();
                    let got = (result_bits(&got.baseline), result_bits(&got.controlled));
                    let want = (result_bits(&want_base), result_bits(&want_ctl));
                    prop_assert!(
                        got == want,
                        "{} at {pct} %, {len} records, pre-roll {pre_roll}: {got:?} != {want:?}",
                        controller.tag()
                    );
                    engaged += want_ctl.stall_cycles + want_ctl.nop_cycles;
                }
            }
        }
        prop_assert!(engaged > 0, "no scheme engaged at offset {offset}");
    }

    /// `run_replay_stream` over a `.dtrc` stream equals `run_replay`
    /// over the same records on every field of both legs, for every
    /// scheme, any chunk size, and a pre-roll that ends anywhere — in
    /// the first chunk, on a chunk edge, or past several chunks — so
    /// pre-roll and replay blocks carried across chunk edges move no
    /// bit.
    #[test]
    fn streamed_replay_equals_the_record_replay(
        offset in 0usize..4 * REPLAY_BLOCK,
        len in 0usize..3 * REPLAY_BLOCK,
        pre_frac in 0.0f64..=1.0,
        chunk in 1usize..=700,
    ) {
        let ctx = shared_context();
        let records = &shared_records()[offset..][..len];
        let pre_roll = ((len as f64) * pre_frac) as usize;
        let mut meta = TraceMeta::new(RecordKind::Full, "gzip");
        meta.pre_roll = pre_roll as u64;
        let mut w = TraceWriter::with_chunk_records(Vec::new(), &meta, chunk).unwrap();
        w.extend_from_slice(records).unwrap();
        let bytes = w.finish().unwrap();
        let run = RunParams {
            instructions: 3_000,
            warmup_cycles: 800,
        };
        for controller in SPECS {
            let point = SweepPoint {
                benchmark: Benchmark::Gzip,
                pdn_pct: 200.0,
                monitor_terms: 13,
                controller,
            };
            let want = ctx.run_replay(&point, run, records, pre_roll).unwrap();
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let got = ctx.run_replay_stream(&point, run, &mut reader, None).unwrap();
            let got = (result_bits(&got.baseline), result_bits(&got.controlled));
            let want = (result_bits(&want.baseline), result_bits(&want.controlled));
            prop_assert!(
                got == want,
                "{}, {len} records in chunks of {chunk}, pre-roll {pre_roll}: {got:?} != {want:?}",
                controller.tag()
            );
        }
    }
}
