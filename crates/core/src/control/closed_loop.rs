//! The closed-loop simulation harness: processor ⇄ controller ⇄ PDN.

use crate::control::{DidtController, NoControl};
use crate::monitor::CycleSense;
use crate::DidtError;
use didt_pdn::{SecondOrderPdn, VoltageSimulator};
use didt_trace::{Record, RecordKind, ReplayColumns, TraceMeta};
use didt_uarch::{Benchmark, ControlAction, Processor, ProcessorConfig, WorkloadGenerator};

/// Configuration of one closed-loop experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopConfig {
    /// Benchmark to run.
    pub benchmark: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Warmup cycles before measurement (caches, predictors, PDN state).
    pub warmup_cycles: u64,
    /// Program instructions to commit in the measured region.
    pub instructions: u64,
    /// Absolute voltage fault band: a cycle outside
    /// `[v_fault_low, v_fault_high]` is an emergency.
    pub v_fault_low: f64,
    /// Upper fault bound.
    pub v_fault_high: f64,
    /// Distance (volts) between the fault points and the controller's
    /// control points; used to classify false positives.
    pub control_margin: f64,
    /// Guard (volts) beyond the control point: a stall (or no-op) cycle
    /// whose true voltage sits more than `control_margin + fp_guard`
    /// inside the fault band is a false positive — control engaged with
    /// no emergency imminent.
    pub fp_guard: f64,
}

impl ClosedLoopConfig {
    /// Standard configuration for a benchmark: 20 k warmup cycles,
    /// 100 k instructions, ±5 % band around 1.0 V, 10 mV guard.
    #[must_use]
    pub fn standard(benchmark: Benchmark) -> Self {
        ClosedLoopConfig {
            benchmark,
            seed: 0xD1D7,
            warmup_cycles: 20_000,
            instructions: 100_000,
            v_fault_low: 0.95,
            v_fault_high: 1.05,
            control_margin: 0.02,
            fp_guard: 0.005,
        }
    }
}

/// Outcome of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClosedLoopResult {
    /// Cycles taken in the measured region.
    pub cycles: u64,
    /// Program instructions committed in the measured region.
    pub instructions: u64,
    /// Cycles with the true voltage below the lower fault bound.
    pub low_emergencies: u64,
    /// Cycles with the true voltage above the upper fault bound.
    pub high_emergencies: u64,
    /// Cycles where issue was stalled.
    pub stall_cycles: u64,
    /// Cycles where no-ops were injected.
    pub nop_cycles: u64,
    /// Stall/nop cycles engaged while the voltage was comfortably safe.
    pub false_positives: u64,
    /// Minimum true voltage observed.
    pub v_min: f64,
    /// Maximum true voltage observed.
    pub v_max: f64,
    /// Mean power over the measured region (watts).
    pub mean_power: f64,
}

impl ClosedLoopResult {
    /// Total emergencies (both polarities).
    #[must_use]
    pub fn emergencies(&self) -> u64 {
        self.low_emergencies + self.high_emergencies
    }

    /// Fraction of cycles under control (stall or nop).
    #[must_use]
    pub fn control_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.stall_cycles + self.nop_cycles) as f64 / self.cycles as f64
        }
    }

    /// False positives as a fraction of control engagements.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        let engaged = self.stall_cycles + self.nop_cycles;
        if engaged == 0 {
            0.0
        } else {
            self.false_positives as f64 / engaged as f64
        }
    }

    /// Slowdown relative to a baseline run of the same instruction count:
    /// `cycles / baseline_cycles - 1`.
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &ClosedLoopResult) -> f64 {
        if baseline.cycles == 0 {
            0.0
        } else {
            self.cycles as f64 / baseline.cycles as f64 - 1.0
        }
    }
}

/// Reusable per-worker simulation scratch for closed-loop runs.
///
/// A sweep worker (or a `didt-serve` request worker) runs thousands of
/// closed-loop simulations back to back; each one needs a fully built
/// [`Processor`] (window ring, cache arrays, predictor tables, timing
/// wheel) and a warmup trace buffer. Holding one `SimScratch` per
/// worker and running through
/// [`ClosedLoop::run_with_deadline_scratch`] reuses all of those
/// allocations across runs: the processor is rewound in place with
/// [`Processor::reset`] (bit-identical to a fresh build) and the trace
/// buffer keeps its capacity.
///
/// The scratch is inert state — results are bit-identical with or
/// without it, for any sequence of runs on any mix of configs (a
/// geometry change falls back to a rebuild inside `reset`).
#[derive(Debug, Default)]
pub struct SimScratch {
    cpu: Option<Processor<WorkloadGenerator>>,
    warm_trace: Vec<f64>,
}

impl SimScratch {
    /// Empty scratch; buffers are built on first use.
    #[must_use]
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// The closed-loop harness.
///
/// # Examples
///
/// ```no_run
/// # fn main() -> Result<(), didt_core::DidtError> {
/// use didt_core::control::{ClosedLoop, ClosedLoopConfig, NoControl, ThresholdController};
/// use didt_core::monitor::AnalogSensor;
/// use didt_core::DidtSystem;
/// use didt_uarch::Benchmark;
///
/// let sys = DidtSystem::standard()?;
/// let pdn = sys.pdn_at(150.0)?;
/// let cfg = ClosedLoopConfig::standard(Benchmark::Gzip);
/// let loop_ = ClosedLoop::new(*sys.processor(), pdn, cfg);
/// let base = loop_.run(&mut NoControl)?;
/// let mut ctl = ThresholdController::new(AnalogSensor::new(1.0, 2), 0.97, 1.03, 0.005);
/// let controlled = loop_.run(&mut ctl)?;
/// assert!(controlled.emergencies() <= base.emergencies());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    processor: ProcessorConfig,
    pdn: SecondOrderPdn,
    config: ClosedLoopConfig,
}

impl ClosedLoop {
    /// Create a harness for a processor/PDN pair and experiment config.
    #[must_use]
    pub fn new(processor: ProcessorConfig, pdn: SecondOrderPdn, config: ClosedLoopConfig) -> Self {
        ClosedLoop {
            processor,
            pdn,
            config,
        }
    }

    /// The experiment configuration.
    #[must_use]
    pub fn config(&self) -> &ClosedLoopConfig {
        &self.config
    }

    /// Run the loop under `controller` until the configured instruction
    /// count commits, returning the measured metrics.
    ///
    /// # Errors
    ///
    /// Returns [`DidtError::InvalidConfig`] when the run fails to make
    /// forward progress (a pathological controller that stalls forever).
    pub fn run(&self, controller: &mut dyn DidtController) -> Result<ClosedLoopResult, DidtError> {
        self.run_with_deadline_scratch(controller, None, &mut SimScratch::new())
    }

    /// [`Self::run`] with a cooperative wall-clock deadline, reusing a
    /// caller-held [`SimScratch`].
    ///
    /// The simulation checks the clock every
    /// [`DEADLINE_CHECK_INTERVAL`] cycles (warmup included) and aborts
    /// with [`DidtError::DeadlineExceeded`] once `deadline` has passed.
    /// With `deadline: None` the check is compiled to a no-op branch and
    /// the result is **bit-identical** to [`Self::run`] — the clock is
    /// never read, so timing cannot perturb the simulation. Service
    /// paths (`didt-serve`) rely on this to abort long requests cleanly
    /// without poisoning shared caches: the partial run is dropped
    /// whole.
    ///
    /// The processor and warmup buffer inside `scratch` are rewound, not
    /// rebuilt, so a worker looping over sweep points (or service
    /// requests) allocates the simulator once. Bit-identical to a fresh
    /// scratch.
    ///
    /// # Errors
    ///
    /// [`DidtError::DeadlineExceeded`] past the deadline, plus every
    /// error of [`Self::run`]. The scratch stays valid (and reusable)
    /// after an error.
    pub fn run_with_deadline_scratch(
        &self,
        controller: &mut dyn DidtController,
        deadline: Option<std::time::Instant>,
        scratch: &mut SimScratch,
    ) -> Result<ClosedLoopResult, DidtError> {
        self.run_inner(controller, deadline, scratch, None)
    }

    /// Run the loop while recording it as a replayable trace: the
    /// warmup currents become kind-2 pre-roll records (current only —
    /// they exist to settle the PDN filter state on replay) and every
    /// measured cycle becomes a full record (current, power, committed,
    /// per-cycle L2 misses and mispredicts).
    ///
    /// The returned [`ClosedLoopResult`] is **bit-identical** to
    /// [`Self::run`] with the same controller — recording only observes
    /// the run. Replaying the records of an *uncontrolled* run through
    /// [`Self::replay`] with [`crate::control::NoControl`] reproduces
    /// the result bit for bit (the integration suite pins this).
    ///
    /// # Errors
    ///
    /// Identical to [`Self::run`].
    pub fn run_recording(
        &self,
        controller: &mut dyn DidtController,
    ) -> Result<RecordedRun, DidtError> {
        let mut scratch = SimScratch::new();
        let mut records = Vec::new();
        let result = self.run_inner(controller, None, &mut scratch, Some(&mut records))?;
        Ok(RecordedRun {
            result,
            records,
            pre_roll: self.config.warmup_cycles as usize,
            benchmark: self.config.benchmark,
            seed: self.config.seed,
        })
    }

    /// Score a recorded current stream through this harness's PDN and
    /// fault bands instead of simulating the processor.
    ///
    /// Records `[0, pre_roll)` are fed to the PDN without scoring (the
    /// warm-in of TRACE_FORMAT.md §6); records `[pre_roll, len)` are
    /// scored exactly like live measured cycles. The controller is
    /// consulted every scored cycle and its stall/nop decisions are
    /// tallied (engagement and false positives) — but replay is
    /// open-loop: the recorded current stream is fixed, so decisions
    /// cannot bend the voltage the way they would live. Use it to
    /// re-score a workload against different fault bands, PDNs or
    /// monitor configurations at far beyond simulator speed; every
    /// replayed record counts into the global `trace.replay_cycles`
    /// counter.
    ///
    /// This is one [`Replay`] pass fed the whole slice: see there for
    /// how the pass scores a block of cycles at a time.
    ///
    /// # Errors
    ///
    /// [`DidtError::InvalidConfig`] when `pre_roll` exceeds the record
    /// count.
    pub fn replay(
        &self,
        controller: &mut dyn DidtController,
        records: &[Record],
        pre_roll: usize,
    ) -> Result<ClosedLoopResult, DidtError> {
        let mut replay = self.start_replay(controller, pre_roll);
        replay.feed_records(records);
        replay.finish()
    }

    /// [`Self::replay`] plus the uncontrolled leg, from the same single
    /// pass: `(uncontrolled, controlled)`; see
    /// [`Replay::finish_with_baseline`].
    ///
    /// # Errors
    ///
    /// Identical to [`Self::replay`].
    pub fn replay_with_baseline(
        &self,
        controller: &mut dyn DidtController,
        records: &[Record],
        pre_roll: usize,
    ) -> Result<(ClosedLoopResult, ClosedLoopResult), DidtError> {
        let mut replay = self.start_replay(controller, pre_roll);
        replay.feed_records(records);
        replay.finish_with_baseline()
    }

    /// Open a replay pass under `controller` whose first `pre_roll`
    /// records warm the PDN unscored. Feed it the recording in order, in
    /// pieces of any size ([`Replay::feed_records`] or, straight from a
    /// `.dtrc` reader, [`Replay::feed`]), then finish it: the result has
    /// the bits of one [`Self::replay`] over the concatenated records.
    pub fn start_replay<'a>(
        &'a self,
        controller: &'a mut dyn DidtController,
        pre_roll: usize,
    ) -> Replay<'a> {
        let vdd = self.pdn.vdd();
        let sense = CycleSense {
            current: 0.0,
            voltage: vdd,
        };
        Replay {
            _span: didt_telemetry::span("core.closed_loop.replay"),
            harness: self,
            controller,
            pdn_sim: self.pdn.simulator(),
            pre_roll,
            fed: 0,
            sense,
            result: ClosedLoopResult {
                v_min: f64::INFINITY,
                v_max: f64::NEG_INFINITY,
                ..ClosedLoopResult::default()
            },
            power_accum: 0.0,
            committed: 0,
            filled: 0,
            senses: [sense; REPLAY_BLOCK],
            volts: [0.0; REPLAY_BLOCK],
            actions: [ControlAction::Normal; REPLAY_BLOCK],
        }
    }

    fn run_inner(
        &self,
        controller: &mut dyn DidtController,
        deadline: Option<std::time::Instant>,
        scratch: &mut SimScratch,
        rec: Option<&mut Vec<Record>>,
    ) -> Result<ClosedLoopResult, DidtError> {
        let _span = didt_telemetry::span("core.closed_loop.run");
        let gen = WorkloadGenerator::new(self.config.benchmark.profile(), self.config.seed);
        match scratch.cpu.as_mut() {
            Some(cpu) => cpu.reset(self.processor, gen),
            None => scratch.cpu = Some(Processor::new(self.processor, gen)),
        }
        let cpu = scratch.cpu.as_mut().expect("installed above");
        scratch.warm_trace.clear();
        let started = std::time::Instant::now();
        let result = self.run_core(controller, deadline, cpu, &mut scratch.warm_trace, rec);
        if let Ok(r) = &result {
            // Global simulator throughput: consumers (didt-serve stats,
            // perf tooling) derive cycles/s as sim.cycles / sim.wall_ns.
            // Timing wraps the run — the clock value never reaches the
            // simulation, so results stay bit-identical.
            let (cycles, wall_ns) = sim_throughput_counters();
            cycles.add(self.config.warmup_cycles + r.cycles);
            wall_ns.add(started.elapsed().as_nanos() as u64);
        }
        result
    }

    fn run_core(
        &self,
        controller: &mut dyn DidtController,
        deadline: Option<std::time::Instant>,
        cpu: &mut Processor<WorkloadGenerator>,
        warm_trace: &mut Vec<f64>,
        mut rec: Option<&mut Vec<Record>>,
    ) -> Result<ClosedLoopResult, DidtError> {
        let mut since_check: u32 = 0;
        let mut simulated: u64 = 0;
        // One macro, two loops: the deadline test must not touch the
        // clock unless a deadline was actually set.
        macro_rules! check_deadline {
            () => {
                simulated += 1;
                if let Some(deadline) = deadline {
                    since_check += 1;
                    if since_check >= DEADLINE_CHECK_INTERVAL {
                        since_check = 0;
                        if std::time::Instant::now() >= deadline {
                            return Err(DidtError::DeadlineExceeded {
                                after_cycles: simulated,
                            });
                        }
                    }
                }
            };
        }
        let mut pdn_sim = self.pdn.simulator();
        let mut sense = CycleSense {
            current: 0.0,
            voltage: self.pdn.vdd(),
        };
        // Warmup: run uncontrolled to populate caches, predictors and the
        // PDN filter state. The action cannot change mid-warmup, so the
        // processor leg is batched (`step_trace`) and the PDN filter
        // replays the captured currents afterwards — the filter consumes
        // the identical sequence in the identical order, so its state is
        // bit-identical to the interleaved formulation. With a deadline
        // set, batches stop at the same cycles the per-cycle loop would
        // have read the clock, preserving `after_cycles` on abort.
        let mut remaining = self.config.warmup_cycles;
        while remaining > 0 {
            let chunk = if deadline.is_some() {
                remaining.min(u64::from(DEADLINE_CHECK_INTERVAL - since_check))
            } else {
                remaining
            };
            cpu.step_trace(chunk, ControlAction::Normal, warm_trace);
            simulated += chunk;
            remaining -= chunk;
            if let Some(deadline) = deadline {
                since_check += chunk as u32;
                if since_check >= DEADLINE_CHECK_INTERVAL {
                    since_check = 0;
                    if std::time::Instant::now() >= deadline {
                        return Err(DidtError::DeadlineExceeded {
                            after_cycles: simulated,
                        });
                    }
                }
            }
        }
        let mut v_last = self.pdn.vdd();
        for &current in warm_trace.iter() {
            v_last = pdn_sim.step(current);
        }
        if let Some(&current) = warm_trace.last() {
            sense = CycleSense {
                current,
                voltage: v_last,
            };
        }
        // Recording: the warmup currents become the trace's pre-roll —
        // replay feeds them to the PDN unscored, reconstructing the
        // exact filter state the measured region started from.
        if let Some(rec) = rec.as_deref_mut() {
            rec.reserve(warm_trace.len());
            for &current in warm_trace.iter() {
                rec.push(Record::current_only(current));
            }
        }
        let mut event_base = if rec.is_some() {
            let s = cpu.stats();
            Some((s.l2_misses, s.branch_mispredicts))
        } else {
            None
        };
        let mut result = ClosedLoopResult {
            v_min: f64::INFINITY,
            v_max: f64::NEG_INFINITY,
            ..ClosedLoopResult::default()
        };
        let mut power_accum = 0.0;
        // Committed instructions are accumulated from the per-cycle
        // outputs instead of re-reading the full stats struct every
        // cycle; the sum is the same delta by construction.
        let mut committed: u64 = 0;
        let cycle_budget = self.config.instructions * 400 + 1_000_000;
        while committed < self.config.instructions {
            check_deadline!();
            if result.cycles > cycle_budget {
                return Err(DidtError::InvalidConfig {
                    name: "controller",
                    reason: "closed loop made no forward progress within budget",
                });
            }
            let action = controller.decide(sense);
            let out = cpu.step(action);
            committed += u64::from(out.committed);
            if let Some(rec) = rec.as_deref_mut() {
                let s = cpu.stats();
                let (l2_base, misp_base) = event_base.expect("set when recording");
                rec.push(Record {
                    current: out.current,
                    power: out.power,
                    committed: out.committed.min(u32::from(u16::MAX)) as u16,
                    l2_misses: (s.l2_misses - l2_base).min(u64::from(u16::MAX)) as u16,
                    mispredicts: (s.branch_mispredicts - misp_base).min(u64::from(u16::MAX)) as u16,
                });
                event_base = Some((s.l2_misses, s.branch_mispredicts));
            }
            let v = pdn_sim.step(out.current);
            result.cycles += 1;
            power_accum += out.power;
            result.v_min = result.v_min.min(v);
            result.v_max = result.v_max.max(v);
            if v < self.config.v_fault_low {
                result.low_emergencies += 1;
            } else if v > self.config.v_fault_high {
                result.high_emergencies += 1;
            }
            match action {
                ControlAction::StallIssue => {
                    result.stall_cycles += 1;
                    // Engaged while the voltage sat comfortably above even
                    // the control point: no emergency was imminent.
                    let fp_line =
                        self.config.v_fault_low + self.config.control_margin + self.config.fp_guard;
                    if v > fp_line {
                        result.false_positives += 1;
                    }
                }
                ControlAction::InjectNops => {
                    result.nop_cycles += 1;
                    let fp_line = self.config.v_fault_high
                        - self.config.control_margin
                        - self.config.fp_guard;
                    if v < fp_line {
                        result.false_positives += 1;
                    }
                }
                ControlAction::Normal => {}
            }
            sense = CycleSense {
                current: out.current,
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
            // Nothing was measured (e.g. `instructions: 0`): pin the
            // extrema to the nominal rail instead of leaking the
            // ±infinity sentinels into manifests.
            result.v_min = self.pdn.vdd();
            result.v_max = self.pdn.vdd();
        }
        record_run_metrics(controller.name(), &result);
        Ok(result)
    }
}

/// A closed-loop run captured as a replayable trace by
/// [`ClosedLoop::run_recording`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRun {
    /// The run's measured metrics (bit-identical to an unrecorded run).
    pub result: ClosedLoopResult,
    /// Pre-roll warmup records followed by the measured region.
    pub records: Vec<Record>,
    /// How many leading records are unscored warm-in (the run's warmup
    /// cycle count).
    pub pre_roll: usize,
    /// Benchmark the run executed.
    pub benchmark: Benchmark,
    /// Workload seed the run used.
    pub seed: u64,
}

impl RecordedRun {
    /// `.dtrc` header metadata for persisting this run (kind 2 /
    /// `Full`, pre-roll and provenance filled in).
    #[must_use]
    pub fn meta(&self) -> TraceMeta {
        let mut meta = TraceMeta::new(RecordKind::Full, self.benchmark.name());
        meta.seed = self.seed;
        meta.pre_roll = self.pre_roll as u64;
        meta
    }
}

/// One open-loop replay pass over a recording fed in pieces, opened by
/// [`ClosedLoop::start_replay`]. [`ClosedLoop::replay`] feeds it one
/// record slice; a served replay feeds it one decoded `.dtrc` chunk at
/// a time, so no whole recording is ever held.
///
/// Because the stream is fixed, the pass works in blocks of
/// [`REPLAY_BLOCK`] scored cycles: the PDN steps each cycle of a block
/// and tallies what no action can change, then the block's senses go to
/// [`DidtController::decide_block`] at once, and a short second loop
/// tallies the returned actions. A block that a piece ends inside is
/// carried over to the next piece, and so is the pre-roll, so where the
/// pieces break changes no block and no bit.
pub struct Replay<'a> {
    _span: didt_telemetry::Span,
    harness: &'a ClosedLoop,
    controller: &'a mut dyn DidtController,
    pdn_sim: VoltageSimulator,
    pre_roll: usize,
    /// Records fed so far, pre-roll included.
    fed: usize,
    /// What the controller sees before the next cycle: the previous
    /// cycle's current and voltage.
    sense: CycleSense,
    result: ClosedLoopResult,
    power_accum: f64,
    committed: u64,
    /// Scored cycles of the open block.
    filled: usize,
    senses: [CycleSense; REPLAY_BLOCK],
    volts: [f64; REPLAY_BLOCK],
    actions: [ControlAction; REPLAY_BLOCK],
}

impl Replay<'_> {
    /// Feed the next records.
    pub fn feed_records(&mut self, records: &[Record]) {
        self.feed_cycles(records.iter().map(|r| (r.current, r.power, r.committed)));
    }

    /// Feed the next records as one decoded `.dtrc` chunk's columns.
    pub fn feed(&mut self, columns: &ReplayColumns) {
        self.feed_cycles(
            columns
                .current()
                .iter()
                .zip(columns.power())
                .zip(columns.committed())
                .map(|((&current, &power), &committed)| (current, power, committed)),
        );
    }

    /// The one scoring loop: each `(current, power, committed)` cycle
    /// either warms the PDN (pre-roll) or joins the open block.
    fn feed_cycles(&mut self, cycles: impl Iterator<Item = (f64, f64, u16)>) {
        let mut cycles = cycles;
        let warm = self.pre_roll.saturating_sub(self.fed);
        for (current, _, _) in cycles.by_ref().take(warm) {
            let voltage = self.pdn_sim.step(current);
            self.sense = CycleSense { current, voltage };
            self.fed += 1;
        }
        let (v_low, v_high) = (
            self.harness.config.v_fault_low,
            self.harness.config.v_fault_high,
        );
        loop {
            let start = self.filled;
            let mut sense = self.sense;
            let mut result = self.result;
            let mut power_accum = self.power_accum;
            let mut committed = self.committed;
            let mut filled = start;
            // The PDN loop: the voltage and every tally no action can
            // change. `senses[j]` is what the controller sees before
            // cycle `j` of the block.
            for ((s, v_out), (current, power, commits)) in self.senses[start..]
                .iter_mut()
                .zip(&mut self.volts[start..])
                .zip(cycles.by_ref())
            {
                *s = sense;
                let v = self.pdn_sim.step(current);
                committed += u64::from(commits);
                power_accum += power;
                result.v_min = result.v_min.min(v);
                result.v_max = result.v_max.max(v);
                if v < v_low {
                    result.low_emergencies += 1;
                } else if v > v_high {
                    result.high_emergencies += 1;
                }
                *v_out = v;
                sense = CycleSense {
                    current,
                    voltage: v,
                };
                filled += 1;
            }
            self.fed += filled - start;
            self.sense = sense;
            self.result = result;
            self.power_accum = power_accum;
            self.committed = committed;
            self.filled = filled;
            if filled < REPLAY_BLOCK {
                return;
            }
            self.decide_block();
        }
    }

    /// Hand the open block to the controller and tally its actions.
    fn decide_block(&mut self) {
        let n = self.filled;
        self.filled = 0;
        self.controller
            .decide_block(&self.senses[..n], &mut self.actions[..n]);
        let config = &self.harness.config;
        let stall_fp_line = config.v_fault_low + config.control_margin + config.fp_guard;
        let nop_fp_line = config.v_fault_high - config.control_margin - config.fp_guard;
        for (&action, &v) in self.actions[..n].iter().zip(&self.volts[..n]) {
            match action {
                ControlAction::StallIssue => {
                    self.result.stall_cycles += 1;
                    if v > stall_fp_line {
                        self.result.false_positives += 1;
                    }
                }
                ControlAction::InjectNops => {
                    self.result.nop_cycles += 1;
                    if v < nop_fp_line {
                        self.result.false_positives += 1;
                    }
                }
                ControlAction::Normal => {}
            }
        }
    }

    /// Score the last block and close the pass; records no per-scheme
    /// metrics.
    fn close(&mut self) -> Result<ClosedLoopResult, DidtError> {
        if self.pre_roll > self.fed {
            return Err(DidtError::InvalidConfig {
                name: "replay",
                reason: "pre_roll exceeds the record count",
            });
        }
        if self.filled > 0 {
            self.decide_block();
        }
        replay_cycles_counter().add(self.fed as u64);
        let mut result = self.result;
        result.cycles = (self.fed - self.pre_roll) as u64;
        result.instructions = self.committed;
        result.mean_power = if result.cycles > 0 {
            self.power_accum / result.cycles as f64
        } else {
            0.0
        };
        if result.cycles == 0 {
            let vdd = self.harness.pdn.vdd();
            result.v_min = vdd;
            result.v_max = vdd;
        }
        Ok(result)
    }

    /// The controlled result, counted as one run of the controller's
    /// scheme. The records count into `trace.replay_cycles` here, so a
    /// pass that is dropped unfinished counts none.
    ///
    /// # Errors
    ///
    /// [`DidtError::InvalidConfig`] when the pre-roll exceeds the
    /// records fed.
    pub fn finish(mut self) -> Result<ClosedLoopResult, DidtError> {
        let result = self.close()?;
        record_run_metrics(self.controller.name(), &result);
        Ok(result)
    }

    /// [`Self::finish`] plus the uncontrolled leg: `(uncontrolled,
    /// controlled)`.
    ///
    /// In open-loop replay the recorded currents fix every voltage, so
    /// an uncontrolled replay differs from a controlled one only in the
    /// counts that come from actions: the uncontrolled leg is the
    /// controlled result with its stall, no-op and false-positive counts
    /// at zero, bit for bit what replaying under [`NoControl`] returns.
    /// Each leg counts one run into its scheme's `closed_loop.<scheme>.*`
    /// metrics; the records count into `trace.replay_cycles` once.
    ///
    /// # Errors
    ///
    /// As [`Self::finish`].
    pub fn finish_with_baseline(
        mut self,
    ) -> Result<(ClosedLoopResult, ClosedLoopResult), DidtError> {
        let controlled = self.close()?;
        let baseline = ClosedLoopResult {
            stall_cycles: 0,
            nop_cycles: 0,
            false_positives: 0,
            ..controlled
        };
        record_run_metrics(NoControl.name(), &baseline);
        record_run_metrics(self.controller.name(), &controlled);
        Ok((baseline, controlled))
    }
}

/// The process-global `trace.replay_cycles` counter, resolved once.
fn replay_cycles_counter() -> &'static std::sync::Arc<didt_telemetry::Counter> {
    use std::sync::OnceLock;
    static COUNTER: OnceLock<std::sync::Arc<didt_telemetry::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        didt_telemetry::MetricsRegistry::global().counter(didt_trace::REPLAY_CYCLES_COUNTER)
    })
}

/// Cycles a [`Replay`] pass steps through the PDN before handing them
/// to the controller at once. Scratch is a few stack arrays of this
/// length, whatever the recording's length.
pub const REPLAY_BLOCK: usize = 256;

/// Cycles simulated between wall-clock reads in
/// [`ClosedLoop::run_with_deadline_scratch`]. At the simulator's throughput
/// (millions of cycles per second) this bounds deadline overshoot to
/// well under a millisecond while keeping the common case — thousands
/// of cycles with no clock syscall — free.
pub const DEADLINE_CHECK_INTERVAL: u32 = 4096;

/// The process-global simulator throughput counters (`sim.cycles`,
/// `sim.wall_ns`), resolved from the registry once. Every completed
/// closed-loop run adds its total simulated cycles (warmup + measured)
/// and its wall time; `sim.cycles / sim.wall_ns` is the process's
/// aggregate simulation rate.
fn sim_throughput_counters() -> &'static (
    std::sync::Arc<didt_telemetry::Counter>,
    std::sync::Arc<didt_telemetry::Counter>,
) {
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<(
        std::sync::Arc<didt_telemetry::Counter>,
        std::sync::Arc<didt_telemetry::Counter>,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let metrics = didt_telemetry::MetricsRegistry::global();
        (
            metrics.counter("sim.cycles"),
            metrics.counter("sim.wall_ns"),
        )
    })
}

/// The four registry counters a closed-loop scheme reports into,
/// resolved once per scheme name (see [`scheme_counters`]).
struct SchemeCounters {
    runs: std::sync::Arc<didt_telemetry::Counter>,
    cycles: std::sync::Arc<didt_telemetry::Counter>,
    emergencies: std::sync::Arc<didt_telemetry::Counter>,
    false_positives: std::sync::Arc<didt_telemetry::Counter>,
}

/// Counter handles for `scheme`, building (and `format!`-ing) the four
/// registry names only on the first run of each scheme — a 100-point
/// sweep reuses the cached `Arc`s instead of feeding the registry four
/// fresh `String`s per run.
fn scheme_counters(scheme: &str) -> std::sync::Arc<SchemeCounters> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<SchemeCounters>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("scheme counter cache poisoned");
    if let Some(counters) = map.get(scheme) {
        return Arc::clone(counters);
    }
    let metrics = didt_telemetry::MetricsRegistry::global();
    let counters = Arc::new(SchemeCounters {
        runs: metrics.counter(&format!("closed_loop.{scheme}.runs")),
        cycles: metrics.counter(&format!("closed_loop.{scheme}.cycles")),
        emergencies: metrics.counter(&format!("closed_loop.{scheme}.emergencies")),
        false_positives: metrics.counter(&format!("closed_loop.{scheme}.false_positives")),
    });
    map.insert(scheme.to_string(), Arc::clone(&counters));
    counters
}

/// Fold one finished run into the process-global metrics registry so
/// per-controller emergency rates can be derived from the counters
/// (`emergencies / cycles` per scheme name).
fn record_run_metrics(scheme: &str, result: &ClosedLoopResult) {
    let counters = scheme_counters(scheme);
    counters.runs.incr();
    counters.cycles.add(result.cycles);
    counters.emergencies.add(result.emergencies());
    counters.false_positives.add(result.false_positives);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{NoControl, ThresholdController};
    use crate::monitor::AnalogSensor;
    use crate::system::DidtSystem;

    fn small_cfg(benchmark: Benchmark) -> ClosedLoopConfig {
        ClosedLoopConfig {
            warmup_cycles: 5_000,
            instructions: 10_000,
            ..ClosedLoopConfig::standard(benchmark)
        }
    }

    #[test]
    fn baseline_run_produces_metrics() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Gzip));
        let r = harness.run(&mut NoControl).unwrap();
        assert!(r.instructions >= 10_000);
        assert!(r.cycles > 0);
        assert!(r.v_min < r.v_max);
        assert!(r.mean_power > 10.0);
        assert_eq!(r.control_fraction(), 0.0);
    }

    #[test]
    fn analog_control_never_slower_than_50_percent_and_caps_droop() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(200.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Mgrid));
        let base = harness.run(&mut NoControl).unwrap();
        let mut ctl = ThresholdController::new(AnalogSensor::new(1.0, 1), 0.97, 1.03, 0.004);
        let controlled = harness.run(&mut ctl).unwrap();
        assert!(controlled.low_emergencies <= base.low_emergencies);
        assert!(controlled.slowdown_vs(&base) < 0.5);
        // Control perturbs execution timing, so the exact minimum can
        // shift a little; it must not get *materially* worse.
        assert!(
            controlled.v_min >= base.v_min - 0.005,
            "controlled v_min {} vs base {}",
            controlled.v_min,
            base.v_min
        );
    }

    #[test]
    fn deterministic_runs() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Twolf));
        let a = harness.run(&mut NoControl).unwrap();
        let b = harness.run(&mut NoControl).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_instruction_run_pins_extrema_to_vdd() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let vdd = pdn.vdd();
        let cfg = ClosedLoopConfig {
            instructions: 0,
            ..small_cfg(Benchmark::Gzip)
        };
        let harness = ClosedLoop::new(*sys.processor(), pdn, cfg);
        let r = harness.run(&mut NoControl).unwrap();
        assert_eq!(r.cycles, 0);
        // The ±infinity accumulator sentinels must not leak out.
        assert_eq!(r.v_min, vdd);
        assert_eq!(r.v_max, vdd);
        assert!(r.v_min.is_finite() && r.v_max.is_finite());
        assert_eq!(r.mean_power, 0.0);
    }

    #[test]
    fn scheme_counters_accumulate_across_runs() {
        let metrics = didt_telemetry::MetricsRegistry::global();
        let runs = metrics.counter("closed_loop.counter-test-scheme.runs");
        let cycles = metrics.counter("closed_loop.counter-test-scheme.cycles");
        let before_runs = runs.get();
        let before_cycles = cycles.get();
        let result = ClosedLoopResult {
            cycles: 123,
            low_emergencies: 2,
            false_positives: 1,
            ..ClosedLoopResult::default()
        };
        record_run_metrics("counter-test-scheme", &result);
        record_run_metrics("counter-test-scheme", &result);
        assert_eq!(runs.get() - before_runs, 2);
        assert_eq!(cycles.get() - before_cycles, 246);
        // The cached handles point at the same registry counters.
        let again = scheme_counters("counter-test-scheme");
        assert_eq!(again.runs.get(), runs.get());
    }

    #[test]
    fn no_deadline_is_bit_identical_to_plain_run() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Swim));
        let plain = harness.run(&mut NoControl).unwrap();
        let with_none = harness
            .run_with_deadline_scratch(&mut NoControl, None, &mut SimScratch::new())
            .unwrap();
        assert_eq!(plain, with_none);
        // A generous deadline also changes nothing: the checks only
        // read the clock, never the simulation state.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let with_far = harness
            .run_with_deadline_scratch(&mut NoControl, Some(far), &mut SimScratch::new())
            .unwrap();
        assert_eq!(plain, with_far);
    }

    #[test]
    fn expired_deadline_aborts_cleanly() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let cfg = ClosedLoopConfig {
            warmup_cycles: 50_000,
            instructions: 1_000_000,
            ..ClosedLoopConfig::standard(Benchmark::Gzip)
        };
        let harness = ClosedLoop::new(*sys.processor(), pdn, cfg);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        match harness.run_with_deadline_scratch(&mut NoControl, Some(past), &mut SimScratch::new())
        {
            Err(DidtError::DeadlineExceeded { after_cycles }) => {
                // The abort fires at the first check interval.
                assert!(after_cycles <= u64::from(DEADLINE_CHECK_INTERVAL) + 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_mixed_runs() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let mut scratch = SimScratch::new();
        // Run several different benchmarks through ONE scratch and
        // compare each against a fresh-allocation run: the rewound
        // processor must be indistinguishable from a new one.
        for bench in [
            Benchmark::Gzip,
            Benchmark::Mcf,
            Benchmark::Swim,
            Benchmark::Gzip,
        ] {
            let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(bench));
            let fresh = harness.run(&mut NoControl).unwrap();
            let reused = harness
                .run_with_deadline_scratch(&mut NoControl, None, &mut scratch)
                .unwrap();
            assert_eq!(fresh, reused, "{bench:?} diverged under scratch reuse");
        }
        // A controlled run through the same scratch also matches.
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Mgrid));
        let mut a = ThresholdController::new(AnalogSensor::new(1.0, 1), 0.97, 1.03, 0.004);
        let mut b = ThresholdController::new(AnalogSensor::new(1.0, 1), 0.97, 1.03, 0.004);
        let fresh = harness.run(&mut a).unwrap();
        let reused = harness
            .run_with_deadline_scratch(&mut b, None, &mut scratch)
            .unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn sim_throughput_counters_accumulate() {
        let metrics = didt_telemetry::MetricsRegistry::global();
        let cycles = metrics.counter("sim.cycles");
        let wall = metrics.counter("sim.wall_ns");
        let (c0, w0) = (cycles.get(), wall.get());
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Gzip));
        let r = harness.run(&mut NoControl).unwrap();
        assert!(cycles.get() - c0 >= r.cycles + 5_000);
        assert!(wall.get() > w0, "wall-clock counter must advance");
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Gzip));
        let plain = harness.run(&mut NoControl).unwrap();
        let recorded = harness.run_recording(&mut NoControl).unwrap();
        assert_eq!(plain, recorded.result);
        assert_eq!(recorded.pre_roll, 5_000);
        assert_eq!(recorded.records.len() as u64, 5_000 + plain.cycles);
        let meta = recorded.meta();
        assert_eq!(meta.kind, RecordKind::Full);
        assert_eq!(meta.pre_roll, 5_000);
        assert_eq!(meta.name, "gzip");
    }

    #[test]
    fn uncontrolled_replay_is_bit_identical_to_live() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Mcf));
        let recorded = harness.run_recording(&mut NoControl).unwrap();
        let replayed = harness
            .replay(&mut NoControl, &recorded.records, recorded.pre_roll)
            .unwrap();
        assert_eq!(recorded.result, replayed);
    }

    #[test]
    fn replay_tallies_controller_engagement_deterministically() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(200.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Mgrid));
        let recorded = harness.run_recording(&mut NoControl).unwrap();
        let mut a = ThresholdController::new(AnalogSensor::new(1.0, 1), 0.97, 1.03, 0.004);
        let mut b = ThresholdController::new(AnalogSensor::new(1.0, 1), 0.97, 1.03, 0.004);
        let ra = harness
            .replay(&mut a, &recorded.records, recorded.pre_roll)
            .unwrap();
        let rb = harness
            .replay(&mut b, &recorded.records, recorded.pre_roll)
            .unwrap();
        assert_eq!(ra, rb);
        // Open-loop replay cannot change the stream: the cycle count is
        // exactly the recorded measured region.
        assert_eq!(ra.cycles, recorded.result.cycles);
        // An aggressive threshold on a stressed PDN must engage.
        assert!(ra.stall_cycles + ra.nop_cycles > 0);
    }

    #[test]
    fn replay_rejects_out_of_range_pre_roll() {
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Gzip));
        let records = vec![Record::current_only(20.0); 10];
        assert!(matches!(
            harness.replay(&mut NoControl, &records, 11),
            Err(DidtError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn replay_counts_replay_cycles() {
        let counter =
            didt_telemetry::MetricsRegistry::global().counter(didt_trace::REPLAY_CYCLES_COUNTER);
        let before = counter.get();
        let sys = DidtSystem::standard().unwrap();
        let pdn = sys.pdn_at(150.0).unwrap();
        let harness = ClosedLoop::new(*sys.processor(), pdn, small_cfg(Benchmark::Gzip));
        let records = vec![Record::current_only(20.0); 256];
        harness.replay(&mut NoControl, &records, 16).unwrap();
        assert!(counter.get() >= before + 256);
    }

    #[test]
    fn result_helper_math() {
        let base = ClosedLoopResult {
            cycles: 1000,
            ..ClosedLoopResult::default()
        };
        let slow = ClosedLoopResult {
            cycles: 1100,
            stall_cycles: 50,
            nop_cycles: 50,
            false_positives: 25,
            ..ClosedLoopResult::default()
        };
        assert!((slow.slowdown_vs(&base) - 0.1).abs() < 1e-12);
        assert!((slow.control_fraction() - 100.0 / 1100.0).abs() < 1e-12);
        assert!((slow.false_positive_rate() - 0.25).abs() < 1e-12);
    }
}
