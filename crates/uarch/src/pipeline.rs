//! The cycle-level out-of-order core.
//!
//! A SimpleScalar-RUU-style machine: a unified instruction window (RUU)
//! with a load/store queue, fetched from a synthetic instruction stream,
//! issued out of order to the Table 1 functional-unit pool, committed in
//! order. Every cycle produces a [`CycleOutput`] with the Wattch-style
//! power/current draw — the signal all dI/dt analysis consumes.
//!
//! The pipeline accepts an external [`ControlAction`] each cycle, which
//! is how microarchitectural dI/dt control couples in: `StallIssue`
//! suppresses instruction issue (cutting current draw), `InjectNops`
//! replaces fetched instructions with no-ops (raising current draw when
//! the machine is otherwise idle).
//!
//! # Fast-path layout
//!
//! The per-cycle state lives in flat structure-of-arrays form (`RobRing`
//! internally): the instruction window is a power-of-two ring of parallel
//! arrays rather than a `VecDeque` of structs, and the issue/writeback
//! loops are event-driven instead of window scans:
//!
//! * **Writeback** drains a timing wheel keyed by completion cycle, so
//!   only instructions finishing *this* cycle are touched.
//! * **Issue** walks a ready bitmask in ring (oldest-first) order; an
//!   entry enters the mask when its front-end delay elapses and its last
//!   outstanding dependency completes (a wakeup list per completion-ring
//!   slot), exactly the predicate the original full-window scan
//!   evaluated per cycle.
//!
//! Both paths make the same decisions in the same order as the original
//! O(window)-per-cycle formulation — the golden fingerprint suite in
//! `integration-tests` pins every benchmark's trace to the pre-rewrite
//! simulator.

use crate::branch::BranchPredictor;
use crate::cache::{AccessLevel, Cache, Hierarchy};
use crate::config::ProcessorConfig;
use crate::op::{MicroOp, OpClass};
use crate::power::{CycleActivity, PowerModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-cycle control input from a dI/dt controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlAction {
    /// Run normally.
    #[default]
    Normal,
    /// Suppress instruction issue this cycle (voltage-low response).
    StallIssue,
    /// Fill idle issue slots with injected no-ops (voltage-high
    /// response: keeps current draw up without displacing program work).
    InjectNops,
}

/// What one simulated cycle produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutput {
    /// Current drawn this cycle, in amperes.
    pub current: f64,
    /// Power drawn this cycle, in watts.
    pub power: f64,
    /// Program (non-nop) instructions committed this cycle.
    pub committed: u32,
}

/// What a batched [`Processor::step_n`] call produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutput {
    /// Program instructions committed across the whole batch.
    pub committed: u64,
    /// Output of the final cycle in the batch (all zeros when `n == 0`).
    pub last: CycleOutput,
}

/// Aggregate statistics for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Program instructions committed.
    pub committed: u64,
    /// No-ops injected into idle issue slots by dI/dt control.
    pub nops_injected: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Branches executed.
    pub branches: u64,
    /// Branches mispredicted.
    pub branch_mispredicts: u64,
    /// L1 data-cache misses.
    pub l1d_misses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// L2 misses (data side).
    pub l2_misses: u64,
    /// L2 accesses (data side).
    pub l2_accesses: u64,
    /// I-cache misses.
    pub l1i_misses: u64,
    /// Mean power over the run, in watts.
    pub mean_power: f64,
}

impl SimStats {
    /// Committed program instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// L2 misses per 1000 committed instructions — the paper's axis for
    /// separating Figures 10 and 11.
    #[must_use]
    pub fn l2_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.committed as f64
        }
    }

    /// Branch misprediction rate.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }
}

/// Window-entry states, kept as raw bytes so the issue/writeback scans
/// are single-byte compares over a dense array.
const ST_WAITING: u8 = 0;
const ST_EXECUTING: u8 = 1;
const ST_DONE: u8 = 2;

/// Completion-time ring capacity; must exceed max dependency distance +
/// window size (64 + 80) and be a power of two.
const RING: usize = 256;

/// Dependency slot meaning "no dependency": index of the sentinel slot
/// in `completed_at`, which is pinned to 0 (always satisfied) so the
/// dependency check is one branch-free indexed compare.
const DEP_NONE: u32 = RING as u32;

/// Null link in the per-slot dependency wakeup chains.
const NONE_LINK: u32 = u32::MAX;

/// Cycles over which one cycle's event power is spread (deep-pipeline
/// power staging, per the paper's Wattch modification).
const POWER_SPREAD: usize = 4;
const _: () = assert!(POWER_SPREAD.is_power_of_two());

/// Seed of the data-dependent switching-noise RNG.
const JITTER_SEED: u64 = 0x57A7_1CAC;

fn fresh_completed_at() -> [u64; RING + 1] {
    let mut c = [u64::MAX; RING + 1];
    c[RING] = 0; // the always-ready DEP_NONE sentinel
    c
}

/// Timing-wheel size for a configuration: a power of two strictly above
/// the largest possible issue-to-completion latency (the full L1→L2→
/// memory miss path; divides and everything else sit far below 64).
fn wheel_span(config: &ProcessorConfig) -> usize {
    let max_lat = (config.l1d.latency + config.l2.latency + config.memory_latency).max(64);
    (max_lat as usize + 1).next_power_of_two()
}

/// The instruction window as a flat structure-of-arrays ring.
///
/// Capacity is the configured window size rounded up to a power of two,
/// so position arithmetic is a mask. Alongside the per-entry pipeline
/// fields it carries the scheduler's per-entry state: the ready bitmask
/// (issue candidates in ring order), the outstanding-dependency count,
/// the front-end release flag, and the wakeup-chain links.
#[derive(Debug, Clone)]
struct RobRing {
    seq: Vec<u64>,
    op: Vec<OpClass>,
    frontend_ready: Vec<u64>,
    state: Vec<u8>,
    done_at: Vec<u64>,
    addr: Vec<u64>,
    mispredicted: Vec<bool>,
    /// One bit per position: waiting, released, and all deps complete.
    ready: Vec<u64>,
    /// Dependencies not yet completed (0, 1 or 2).
    deps_outstanding: Vec<u8>,
    /// Front-end delay elapsed (the entry left the in-flight stages).
    released: Vec<bool>,
    /// Next links in the two wakeup chains this entry may sit on
    /// (index 0: via dep1, index 1: via dep2); `NONE_LINK` terminates.
    waker_next: Vec<[u32; 2]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl RobRing {
    fn with_capacity(entries: usize) -> Self {
        let cap = entries.next_power_of_two().max(2);
        RobRing {
            seq: vec![0; cap],
            op: vec![OpClass::Nop; cap],
            frontend_ready: vec![0; cap],
            state: vec![ST_WAITING; cap],
            done_at: vec![0; cap],
            addr: vec![0; cap],
            mispredicted: vec![false; cap],
            ready: vec![0; cap.div_ceil(64)],
            deps_outstanding: vec![0; cap],
            released: vec![false; cap],
            waker_next: vec![[NONE_LINK; 2]; cap],
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.ready.fill(0);
    }

    #[inline]
    fn set_ready(&mut self, pos: usize) {
        self.ready[pos >> 6] |= 1u64 << (pos & 63);
    }
}

/// The simulated processor, generic over its instruction source.
///
/// # Examples
///
/// ```
/// use didt_uarch::{Benchmark, Processor, ProcessorConfig, WorkloadGenerator};
/// use didt_uarch::pipeline::ControlAction;
///
/// let gen = WorkloadGenerator::new(Benchmark::Gzip.profile(), 1);
/// let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
/// let mut total = 0u32;
/// for _ in 0..30_000 {
///     total += cpu.step(ControlAction::Normal).committed;
/// }
/// assert!(total > 6_000); // sustains real throughput from a cold start
/// ```
#[derive(Debug, Clone)]
pub struct Processor<W> {
    config: ProcessorConfig,
    power_model: PowerModel,
    workload: W,
    icache: Cache,
    data: Hierarchy,
    bpred: BranchPredictor,
    rob: RobRing,
    lsq_occupancy: usize,
    /// Completion cycles indexed by `seq & (RING - 1)`, plus the pinned
    /// sentinel at index `RING` that makes `DEP_NONE` always satisfied.
    completed_at: [u64; RING + 1],
    /// Head of the wakeup chain per completion-ring slot: window
    /// positions waiting on that slot, encoded `(pos << 1) | dep_index`.
    waker_head: [u32; RING],
    /// Timing wheel: positions completing at cycle `c` live in bucket
    /// `c & wheel_mask`. All op latencies are below the wheel span, so a
    /// bucket drained at cycle `c` holds exactly the cycle-`c` finishers.
    wheel: Vec<Vec<u32>>,
    wheel_mask: usize,
    /// Fetched entries whose front-end delay has not yet elapsed; they
    /// form the youngest suffix of the window, starting at
    /// `release_cursor` (front-end delay is constant, so fetch order is
    /// release order).
    unreleased: u32,
    release_cursor: usize,
    next_seq: u64,
    cycle: u64,
    /// Cycle at which fetch may resume; `u64::MAX` while waiting on an
    /// unresolved mispredicted branch.
    fetch_resume_at: u64,
    int_div_busy_until: u64,
    fp_div_busy_until: u64,
    /// Instruction that could not enter the LSQ last cycle, retried first.
    pending: Option<MicroOp>,
    /// Data-dependent switching-activity noise source (deterministic).
    jitter_rng: SmallRng,
    /// Pipelined-structure power spreading: event energy of a cycle is
    /// charged over this many consecutive cycles (the paper's Wattch
    /// modification "to spread the power usage of pipelined structures
    /// over multiple stages").
    spread: [f64; POWER_SPREAD],
    spread_idx: usize,
    stats: SimStats,
    power_accum: f64,
}

impl<W: Iterator<Item = MicroOp>> Processor<W> {
    /// Build a processor running the given instruction stream.
    #[must_use]
    pub fn new(config: ProcessorConfig, workload: W) -> Self {
        Processor {
            config,
            power_model: PowerModel::table1(),
            workload,
            icache: Cache::new(config.l1i),
            data: {
                let mut h = Hierarchy::new(config.l1d, config.l2, config.memory_latency);
                h.set_prefetch(config.stream_prefetch);
                h
            },
            bpred: BranchPredictor::new(config.predictor),
            rob: RobRing::with_capacity(config.ruu_entries),
            lsq_occupancy: 0,
            completed_at: fresh_completed_at(),
            waker_head: [NONE_LINK; RING],
            wheel: {
                let span = wheel_span(&config);
                vec![Vec::new(); span]
            },
            wheel_mask: wheel_span(&config) - 1,
            unreleased: 0,
            release_cursor: 0,
            next_seq: 0,
            cycle: 0,
            fetch_resume_at: 0,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            pending: None,
            jitter_rng: SmallRng::seed_from_u64(JITTER_SEED),
            spread: [0.0; POWER_SPREAD],
            spread_idx: 0,
            stats: SimStats::default(),
            power_accum: 0.0,
        }
    }

    /// Rewind the machine to the power-on state of `Processor::new(config,
    /// workload)` while reusing every existing allocation (caches,
    /// predictor tables, window arrays). With an unchanged `config` this
    /// is bit-identical to building a fresh processor — the scratch-reuse
    /// path sweeps and the serve workers lean on — and falls back to a
    /// full rebuild when the geometry changed.
    pub fn reset(&mut self, config: ProcessorConfig, workload: W) {
        if config != self.config {
            *self = Processor::new(config, workload);
            return;
        }
        self.workload = workload;
        self.icache.reset();
        self.data.reset();
        self.bpred.reset();
        self.rob.clear();
        self.lsq_occupancy = 0;
        self.completed_at = fresh_completed_at();
        self.waker_head = [NONE_LINK; RING];
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.unreleased = 0;
        self.release_cursor = 0;
        self.next_seq = 0;
        self.cycle = 0;
        self.fetch_resume_at = 0;
        self.int_div_busy_until = 0;
        self.fp_div_busy_until = 0;
        self.pending = None;
        self.jitter_rng = SmallRng::seed_from_u64(JITTER_SEED);
        self.spread = [0.0; POWER_SPREAD];
        self.spread_idx = 0;
        self.stats = SimStats::default();
        self.power_accum = 0.0;
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Occupied instruction-window entries — diagnostic hook.
    #[must_use]
    pub fn window_occupancy(&self) -> usize {
        self.rob.len
    }

    /// Statistics so far (mean power is finalized on read).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.mean_power = if s.cycles == 0 {
            0.0
        } else {
            self.power_accum / s.cycles as f64
        };
        s
    }

    /// Advance the machine one cycle under `action`, returning the
    /// cycle's power/current draw.
    pub fn step(&mut self, action: ControlAction) -> CycleOutput {
        let mut activity = CycleActivity {
            window_occupancy: self.rob.len as u32,
            lsq_occupancy: self.lsq_occupancy as u32,
            ..CycleActivity::default()
        };

        self.commit(&mut activity);
        self.writeback();
        self.release_frontend();
        let issued = if action == ControlAction::StallIssue {
            0
        } else {
            self.issue(&mut activity)
        };
        if action == ControlAction::InjectNops {
            // The no-op injector drives otherwise-idle issue slots with
            // dummy operations, lifting current draw without perturbing
            // the program in the window (paper §5: "no-ops are issued to
            // functional units to increase the current consumption").
            let free = self.config.issue_width - issued.min(self.config.issue_width);
            activity.nops += free;
            self.stats.nops_injected += u64::from(free);
        }
        self.fetch(&mut activity);

        // Wrong-path front-end toggling while recovering from a
        // mispredict (fetch blocked on an unresolved branch).
        if self.fetch_resume_at > self.cycle {
            activity.wrong_path_fetch = self.config.fetch_width / 2;
        }

        let raw_power = self.power_model.cycle_power(&activity);
        // Occupancy/CAM and clock-tree power are deterministic, so a
        // fully stalled cycle draws exactly the same power every time —
        // which is what makes long memory-stall windows non-Gaussian and
        // low-variance, as the paper observes (§4.1, Figures 7 and 11).
        let idle_power = self
            .power_model
            .idle_power(activity.window_occupancy, activity.lsq_occupancy);
        let mut event_power = raw_power - idle_power;
        // Data-dependent switching: jitter the event-driven share of the
        // power (operand-dependent datapath activity).
        if self.power_model.data_jitter > 0.0 && event_power > 0.0 {
            // Unit-variance CLT pseudo-Gaussian from six uniforms.
            let g: f64 = ((0..6).map(|_| self.jitter_rng.random::<f64>()).sum::<f64>() - 3.0)
                / (0.5f64).sqrt();
            event_power = (event_power * (1.0 + self.power_model.data_jitter * g)).max(0.0);
        }
        // Spread event energy across the deep pipeline's stages: charge
        // 1/POWER_SPREAD now and in each of the next stages' cycles.
        // (The rotating window covers every slot, so this is an
        // unconditional add to all of them.)
        let share = event_power / POWER_SPREAD as f64;
        for s in &mut self.spread {
            *s += share;
        }
        let power = idle_power + self.spread[self.spread_idx];
        self.spread[self.spread_idx] = 0.0;
        self.spread_idx = (self.spread_idx + 1) & (POWER_SPREAD - 1);
        let current = power / self.config.vdd;
        self.power_accum += power;
        self.stats.cycles += 1;
        self.cycle += 1;
        CycleOutput {
            current,
            power,
            committed: activity.committed,
        }
    }

    /// Advance the machine `n` cycles under a constant `action`,
    /// equivalent to calling [`Processor::step`] `n` times (the proptest
    /// suite pins the equivalence for arbitrary action schedules). Batch
    /// callers — warmup legs, measured closed-loop runs — use this to
    /// amortize dispatch and skip per-cycle bookkeeping reads.
    pub fn step_n(&mut self, n: u64, action: ControlAction) -> BatchOutput {
        let mut committed = 0u64;
        let mut last = CycleOutput {
            current: 0.0,
            power: 0.0,
            committed: 0,
        };
        for _ in 0..n {
            last = self.step(action);
            committed += u64::from(last.committed);
        }
        BatchOutput { committed, last }
    }

    /// Advance `n` cycles under a constant `action`, appending each
    /// cycle's current draw to `trace`. Returns the instructions
    /// committed across the batch. Bit-identical to per-cycle `step`
    /// with a push per cycle.
    pub fn step_trace(&mut self, n: u64, action: ControlAction, trace: &mut Vec<f64>) -> u64 {
        trace.reserve(n as usize);
        let mut committed = 0u64;
        for _ in 0..n {
            let out = self.step(action);
            trace.push(out.current);
            committed += u64::from(out.committed);
        }
        committed
    }

    fn commit(&mut self, activity: &mut CycleActivity) {
        let mut committed = 0;
        while committed < self.config.commit_width && self.rob.len > 0 {
            let h = self.rob.head;
            if self.rob.state[h] != ST_DONE {
                break;
            }
            if self.rob.op[h].is_memory() {
                self.lsq_occupancy -= 1;
            }
            self.rob.head = (h + 1) & self.rob.mask;
            self.rob.len -= 1;
            self.stats.committed += 1;
            committed += 1;
        }
        activity.committed = committed;
    }

    /// Complete every instruction whose latency expires this cycle: drain
    /// the cycle's timing-wheel bucket, publish completion times, and wake
    /// dependents. Identical decisions (and, for mispredict resolution,
    /// identical last-wins ring order — same-latency branches enter a
    /// bucket oldest-first) to the original full-window scan.
    fn writeback(&mut self) {
        let idx = (self.cycle as usize) & self.wheel_mask;
        if self.wheel[idx].is_empty() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.wheel[idx]);
        let mut resolve_mispredict = None;
        for &raw in &bucket {
            let p = raw as usize;
            debug_assert_eq!(self.rob.state[p], ST_EXECUTING);
            debug_assert_eq!(self.rob.done_at[p], self.cycle);
            let done = self.rob.done_at[p];
            self.rob.state[p] = ST_DONE;
            let slot = (self.rob.seq[p] as usize) & (RING - 1);
            self.completed_at[slot] = done;
            if self.rob.mispredicted[p] {
                resolve_mispredict = Some(done);
            }
            // Wake everything chained on this completion slot.
            let mut link = std::mem::replace(&mut self.waker_head[slot], NONE_LINK);
            while link != NONE_LINK {
                let pos = (link >> 1) as usize;
                let which = (link & 1) as usize;
                link = self.rob.waker_next[pos][which];
                self.rob.deps_outstanding[pos] -= 1;
                if self.rob.deps_outstanding[pos] == 0 && self.rob.released[pos] {
                    self.rob.set_ready(pos);
                }
            }
        }
        bucket.clear();
        self.wheel[idx] = bucket;
        if let Some(done) = resolve_mispredict {
            // Front-end refill after redirect.
            self.fetch_resume_at = done + u64::from(self.config.frontend_depth);
        }
    }

    /// Mark entries whose front-end delay elapsed as released; those with
    /// no outstanding dependencies become issue candidates. Fetch order is
    /// release order (the delay is constant), so this is a FIFO drain of
    /// the window's youngest suffix.
    fn release_frontend(&mut self) {
        let cycle = self.cycle;
        while self.unreleased > 0 {
            let p = self.release_cursor;
            if self.rob.frontend_ready[p] > cycle {
                break;
            }
            self.rob.released[p] = true;
            if self.rob.deps_outstanding[p] == 0 {
                self.rob.set_ready(p);
            }
            self.release_cursor = (p + 1) & self.rob.mask;
            self.unreleased -= 1;
        }
    }

    fn issue(&mut self, activity: &mut CycleActivity) -> u32 {
        if self.rob.ready.iter().all(|&w| w == 0) {
            return 0;
        }
        let mut issued = 0;
        let mut int_alu = 0;
        let mut int_mult = 0;
        let mut fp_alu = 0;
        let mut fp_mult = 0;
        let mut mem_ports = 0;
        let cycle = self.cycle;
        let units = self.config.units;
        let width = self.config.issue_width;
        // Oldest-first issue priority: walk the ready bitmask in ring
        // order from the head. Every set bit is a waiting entry whose
        // front-end delay elapsed and whose dependencies all completed —
        // the exact set the original full-window scan would attempt, in
        // the same order, so functional-unit arbitration is identical.
        let nwords = self.rob.ready.len();
        let hw = self.rob.head >> 6;
        let hb = self.rob.head & 63;
        'scan: for i in 0..=nwords {
            let w = (hw + i) % nwords;
            let mut bits = self.rob.ready[w];
            if i == 0 {
                bits &= !0u64 << hb;
            } else if i == nwords {
                bits &= !(!0u64 << hb);
            }
            while bits != 0 {
                if issued >= width {
                    break 'scan;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = (w << 6) | b;
                debug_assert_eq!(self.rob.state[p], ST_WAITING);
                let op = self.rob.op[p];
                // Functional-unit availability.
                let lat: u32 = match op {
                    OpClass::IntAlu | OpClass::Branch | OpClass::Nop => {
                        if int_alu >= units.int_alu {
                            continue;
                        }
                        int_alu += 1;
                        match op {
                            OpClass::Nop => activity.nops += 1,
                            _ => activity.int_alu += 1,
                        }
                        op.base_latency()
                    }
                    OpClass::IntMult => {
                        if int_mult >= units.int_mult || self.int_div_busy_until > cycle {
                            continue;
                        }
                        int_mult += 1;
                        activity.int_mult += 1;
                        op.base_latency()
                    }
                    OpClass::IntDiv => {
                        if int_mult >= units.int_mult || self.int_div_busy_until > cycle {
                            continue;
                        }
                        int_mult += 1;
                        self.int_div_busy_until = cycle + u64::from(op.base_latency());
                        activity.int_div += 1;
                        op.base_latency()
                    }
                    OpClass::FpAlu => {
                        if fp_alu >= units.fp_alu {
                            continue;
                        }
                        fp_alu += 1;
                        activity.fp_alu += 1;
                        op.base_latency()
                    }
                    OpClass::FpMult => {
                        if fp_mult >= units.fp_mult || self.fp_div_busy_until > cycle {
                            continue;
                        }
                        fp_mult += 1;
                        activity.fp_mult += 1;
                        op.base_latency()
                    }
                    OpClass::FpDiv => {
                        if fp_mult >= units.fp_mult || self.fp_div_busy_until > cycle {
                            continue;
                        }
                        fp_mult += 1;
                        self.fp_div_busy_until = cycle + u64::from(op.base_latency());
                        activity.fp_div += 1;
                        op.base_latency()
                    }
                    OpClass::Load => {
                        if mem_ports >= units.mem_ports {
                            continue;
                        }
                        mem_ports += 1;
                        let (level, lat) = self.data.access(self.rob.addr[p]);
                        activity.loads += 1;
                        self.stats.l1d_accesses += 1;
                        match level {
                            AccessLevel::L1 => {}
                            AccessLevel::L2 => {
                                self.stats.l1d_misses += 1;
                                self.stats.l2_accesses += 1;
                                activity.l2_accesses += 1;
                            }
                            AccessLevel::Memory => {
                                self.stats.l1d_misses += 1;
                                self.stats.l2_accesses += 1;
                                self.stats.l2_misses += 1;
                                activity.l2_accesses += 1;
                                activity.mem_accesses += 1;
                            }
                        }
                        lat
                    }
                    OpClass::Store => {
                        if mem_ports >= units.mem_ports {
                            continue;
                        }
                        mem_ports += 1;
                        // Stores complete into the store buffer; the line fill
                        // still exercises the hierarchy for power/miss stats.
                        let (level, _) = self.data.access(self.rob.addr[p]);
                        activity.stores += 1;
                        self.stats.l1d_accesses += 1;
                        match level {
                            AccessLevel::L1 => {}
                            AccessLevel::L2 => {
                                self.stats.l1d_misses += 1;
                                self.stats.l2_accesses += 1;
                                activity.l2_accesses += 1;
                            }
                            AccessLevel::Memory => {
                                self.stats.l1d_misses += 1;
                                self.stats.l2_accesses += 1;
                                self.stats.l2_misses += 1;
                                activity.l2_accesses += 1;
                                activity.mem_accesses += 1;
                            }
                        }
                        1
                    }
                };
                self.rob.state[p] = ST_EXECUTING;
                debug_assert!((lat as usize) <= self.wheel_mask);
                let done = cycle + u64::from(lat);
                self.rob.done_at[p] = done;
                self.rob.ready[w] &= !(1u64 << b);
                self.wheel[(done as usize) & self.wheel_mask].push(p as u32);
                issued += 1;
            }
        }
        issued
    }

    fn fetch(&mut self, activity: &mut CycleActivity) {
        if self.cycle < self.fetch_resume_at {
            return;
        }
        let mut fetched = 0;
        while fetched < self.config.fetch_width {
            if self.rob.len >= self.config.ruu_entries {
                break;
            }
            let uop = if let Some(p) = self.pending.take() {
                p
            } else {
                match self.workload.next() {
                    Some(u) => u,
                    None => break,
                }
            };
            if uop.op.is_memory() && self.lsq_occupancy >= self.config.lsq_entries {
                // Structural stall: buffer the instruction and retry it
                // at the head of the next fetch group.
                self.pending = Some(uop);
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.completed_at[(seq as usize) & (RING - 1)] = u64::MAX;
            let dep_slot = |dist: u32| -> u32 {
                if dist == 0 || u64::from(dist) > seq {
                    DEP_NONE
                } else {
                    (((seq - u64::from(dist)) as usize) & (RING - 1)) as u32
                }
            };
            let mut mispredicted = false;
            // I-cache.
            if !uop.is_nop_pc() && !self.icache.access(uop.pc) {
                self.stats.l1i_misses += 1;
                // Refill from L2 stalls the front end.
                self.fetch_resume_at = self.cycle + u64::from(self.config.l2.latency);
            }
            activity.fetched += 1;
            self.stats.fetched += 1;
            if uop.op.is_memory() {
                self.lsq_occupancy += 1;
            }
            let mut stop_group = false;
            if uop.op == OpClass::Branch {
                activity.branches += 1;
                self.stats.branches += 1;
                let predicted = self.bpred.predict_and_update(uop.pc, uop.taken);
                if uop.taken {
                    if !self.bpred.btb_lookup(uop.pc) {
                        self.bpred.btb_insert(uop.pc);
                    }
                    stop_group = true; // taken branch ends the fetch group
                }
                if predicted != uop.taken {
                    self.stats.branch_mispredicts += 1;
                    mispredicted = true;
                    // Block fetch until the branch resolves.
                    self.fetch_resume_at = u64::MAX;
                    stop_group = true;
                }
            }
            let tail = (self.rob.head + self.rob.len) & self.rob.mask;
            self.rob.seq[tail] = seq;
            self.rob.op[tail] = uop.op;
            self.rob.frontend_ready[tail] = self.cycle + u64::from(self.config.frontend_depth);
            self.rob.state[tail] = ST_WAITING;
            self.rob.done_at[tail] = u64::MAX;
            self.rob.addr[tail] = uop.addr;
            self.rob.mispredicted[tail] = mispredicted;
            // Register on the wakeup chains of still-outstanding
            // dependencies (a slot already holding a finite completion
            // time is satisfied forever — time only moves forward). Two
            // deps on the same slot collapse to one chain membership so a
            // single completion satisfies both.
            let d1 = dep_slot(uop.dep1);
            let mut d2 = dep_slot(uop.dep2);
            if d2 == d1 {
                d2 = DEP_NONE;
            }
            let mut outstanding = 0u8;
            for (which, d) in [(0usize, d1), (1usize, d2)] {
                let d = d as usize;
                if d != DEP_NONE as usize && self.completed_at[d] == u64::MAX {
                    outstanding += 1;
                    self.rob.waker_next[tail][which] = std::mem::replace(
                        &mut self.waker_head[d],
                        ((tail as u32) << 1) | which as u32,
                    );
                }
            }
            self.rob.deps_outstanding[tail] = outstanding;
            self.rob.released[tail] = false;
            self.unreleased += 1;
            self.rob.len += 1;
            fetched += 1;
            if stop_group || self.cycle < self.fetch_resume_at {
                break;
            }
        }
        activity.dispatched = fetched;
    }
}

// Small extension so fetch() can skip I-cache traffic for injected nops.
impl MicroOp {
    fn is_nop_pc(&self) -> bool {
        self.op == OpClass::Nop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Benchmark, WorkloadGenerator};

    fn run(bench: Benchmark, cycles: u64) -> (SimStats, Vec<f64>) {
        let gen = WorkloadGenerator::new(bench.profile(), 11);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        let mut trace = Vec::with_capacity(cycles as usize);
        for _ in 0..cycles {
            trace.push(cpu.step(ControlAction::Normal).current);
        }
        (cpu.stats(), trace)
    }

    #[test]
    fn reaches_reasonable_ipc_on_cache_friendly_load() {
        // Warm caches/predictors, then measure steady state.
        let gen = WorkloadGenerator::new(Benchmark::Gzip.profile(), 11);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        for _ in 0..30_000 {
            cpu.step(ControlAction::Normal);
        }
        let before = cpu.stats().committed;
        for _ in 0..30_000 {
            cpu.step(ControlAction::Normal);
        }
        let ipc = (cpu.stats().committed - before) as f64 / 30_000.0;
        assert!(ipc > 0.4, "gzip steady-state ipc {ipc}");
        assert!(ipc <= 4.0);
    }

    #[test]
    fn memory_bound_benchmark_has_low_ipc_and_high_mpki() {
        let (mcf, _) = run(Benchmark::Mcf, 60_000);
        let (gzip, _) = run(Benchmark::Gzip, 60_000);
        assert!(
            mcf.ipc() < gzip.ipc(),
            "mcf {} vs gzip {}",
            mcf.ipc(),
            gzip.ipc()
        );
        assert!(
            mcf.l2_mpki() > 3.0 * gzip.l2_mpki().max(0.01),
            "mcf mpki {} gzip mpki {}",
            mcf.l2_mpki(),
            gzip.l2_mpki()
        );
    }

    #[test]
    fn current_trace_is_bounded_and_varies() {
        let (_, trace) = run(Benchmark::Gcc, 20_000);
        let min = trace.iter().copied().fold(f64::INFINITY, f64::min);
        let max = trace.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min >= 9.0, "min current {min}");
        assert!(max <= 120.0, "max current {max}");
        assert!(max - min > 10.0, "no variation: {min}..{max}");
    }

    #[test]
    fn stall_issue_cuts_current() {
        let gen = WorkloadGenerator::new(Benchmark::Sixtrack.profile(), 5);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        for _ in 0..20_000 {
            cpu.step(ControlAction::Normal);
        }
        let mut normal = 0.0;
        for _ in 0..5000 {
            normal += cpu.step(ControlAction::Normal).current;
        }
        normal /= 5000.0;
        // Let in-flight work (up to memory_latency = 250 cycles of it)
        // drain before measuring: the assertion is about steady-state
        // stalled current, not the ramp-down.
        for _ in 0..400 {
            cpu.step(ControlAction::StallIssue);
        }
        let mut stalled = 0.0;
        for _ in 0..200 {
            stalled += cpu.step(ControlAction::StallIssue).current;
        }
        stalled /= 200.0;
        // A stalled machine cannot drop below the clock-tree base plus
        // the occupancy (CAM) power of the full window it is holding, so
        // the meaningful property is that stalling eliminates the
        // event-driven power — current collapses to that idle floor.
        let m = crate::power::PowerModel::table1();
        let cfg = ProcessorConfig::table1();
        let floor = (m.base
            + m.window_entry * cfg.ruu_entries as f64
            + m.lsq_entry * cfg.lsq_entries as f64)
            / cfg.vdd;
        assert!(stalled < normal, "stalled {stalled} vs normal {normal}");
        assert!(
            stalled <= floor + 0.1,
            "stalled {stalled} above idle floor {floor}"
        );
    }

    #[test]
    fn stall_issue_stops_commits() {
        let gen = WorkloadGenerator::new(Benchmark::Gzip.profile(), 5);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        for _ in 0..2000 {
            cpu.step(ControlAction::Normal);
        }
        // After draining in-flight work, stalling issue halts commits.
        let mut committed = 0;
        for _ in 0..300 {
            committed += cpu.step(ControlAction::StallIssue).committed;
        }
        // In-flight instructions may drain early in the stall window, but
        // the tail must be fully quiet.
        let mut tail = 0;
        for _ in 0..100 {
            tail += cpu.step(ControlAction::StallIssue).committed;
        }
        assert_eq!(
            tail, 0,
            "commits during sustained stall (drain saw {committed})"
        );
    }

    #[test]
    fn inject_nops_raises_current_when_memory_bound() {
        // Park the machine on a memory-bound workload, then inject nops:
        // current must rise (idle issue slots get filled).
        let gen = WorkloadGenerator::new(Benchmark::Mcf.profile(), 5);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        for _ in 0..20_000 {
            cpu.step(ControlAction::Normal);
        }
        let mut normal = 0.0;
        for _ in 0..500 {
            normal += cpu.step(ControlAction::Normal).current;
        }
        normal /= 500.0;
        let mut with_nops = 0.0;
        for _ in 0..500 {
            with_nops += cpu.step(ControlAction::InjectNops).current;
        }
        with_nops /= 500.0;
        assert!(
            with_nops > normal + 2.0,
            "nops {with_nops} vs normal {normal}"
        );
    }

    #[test]
    fn nop_injection_is_tracked_and_does_not_block_program() {
        let gen = WorkloadGenerator::new(Benchmark::Gzip.profile(), 5);
        let mut cpu = Processor::new(ProcessorConfig::table1(), gen);
        for _ in 0..2000 {
            cpu.step(ControlAction::Normal);
        }
        let before = cpu.stats();
        for _ in 0..2000 {
            cpu.step(ControlAction::InjectNops);
        }
        let s = cpu.stats();
        // Idle slots got filled...
        assert!(s.nops_injected > 1000, "nops injected {}", s.nops_injected);
        // ...while the program kept committing at a similar rate.
        assert!(s.committed > before.committed);
    }

    #[test]
    fn branch_mispredicts_happen_and_stall_fetch() {
        let (stats, _) = run(Benchmark::Gcc, 60_000);
        assert!(stats.branches > 500, "branches {}", stats.branches);
        let rate = stats.mispredict_rate();
        assert!((0.01..0.4).contains(&rate), "mispredict rate {rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, a) = run(Benchmark::Vpr, 5000);
        let (_, b) = run(Benchmark::Vpr, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_workload_idles() {
        let mut cpu = Processor::new(ProcessorConfig::table1(), std::iter::empty());
        let mut last = 0.0;
        for _ in 0..100 {
            last = cpu.step(ControlAction::Normal).current;
        }
        // Only base power.
        assert!((last - 10.0).abs() < 1.0, "idle current {last}");
        assert_eq!(cpu.stats().committed, 0);
    }

    #[test]
    fn unpipelined_divides_serialize() {
        // A stream of only IntDiv ops: the single unpipelined divider
        // bounds throughput at one per 20 cycles.
        let stream = std::iter::repeat(MicroOp {
            op: OpClass::IntDiv,
            dep1: 0,
            dep2: 0,
            addr: 0,
            taken: false,
            branch_site: 0,
            pc: 0x40_0000,
        });
        let mut cpu = Processor::new(ProcessorConfig::table1(), stream);
        for _ in 0..4_000 {
            cpu.step(ControlAction::Normal);
        }
        let ipc = cpu.stats().ipc();
        assert!(ipc < 0.06, "div-only ipc {ipc} exceeds the divider bound");
        assert!(ipc > 0.03, "div-only ipc {ipc} below the divider bound");
    }

    #[test]
    fn lsq_full_stalls_but_preserves_instructions() {
        // All loads that miss to memory: the 40-entry LSQ fills, fetch
        // stalls via the pending-retry path, and every instruction still
        // commits exactly once (none dropped or duplicated).
        let mut n = 0u64;
        let stream = std::iter::from_fn(move || {
            n += 1;
            Some(MicroOp {
                op: OpClass::Load,
                dep1: 0,
                dep2: 0,
                // New line every access, 64 MB apart reuse: always misses.
                addr: 0x8000_0000 + n * 64 * 131,
                taken: false,
                branch_site: 0,
                pc: 0x40_0000,
            })
        });
        let mut cfg = ProcessorConfig::table1();
        cfg.stream_prefetch = false;
        let mut cpu = Processor::new(cfg, stream);
        let mut committed = 0u64;
        for _ in 0..60_000 {
            committed += u64::from(cpu.step(ControlAction::Normal).committed);
        }
        assert_eq!(committed, cpu.stats().committed);
        // Rough bandwidth check: 2 ports, 269-cycle misses, 40-entry LSQ
        // allows ~40 outstanding → IPC around 40/269 ≈ 0.15.
        let ipc = cpu.stats().ipc();
        assert!((0.05..0.4).contains(&ipc), "mem-bound load ipc {ipc}");
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // Jump over a large code footprint: I-cache misses must register
        // and fetch must stall (low IPC despite trivial instructions).
        let mut n = 0u64;
        let stream = std::iter::from_fn(move || {
            n += 1;
            Some(MicroOp {
                op: OpClass::IntAlu,
                dep1: 0,
                dep2: 0,
                addr: 0,
                taken: false,
                branch_site: 0,
                // stride through 1 MB of code
                pc: 0x40_0000 + (n * 64) % (1 << 20),
            })
        });
        let mut cpu = Processor::new(ProcessorConfig::table1(), stream);
        for _ in 0..30_000 {
            cpu.step(ControlAction::Normal);
        }
        let s = cpu.stats();
        assert!(s.l1i_misses > 1_000, "i$ misses {}", s.l1i_misses);
    }

    #[test]
    fn lsq_bounded() {
        let (stats, _) = run(Benchmark::Swim, 20_000);
        // Sanity: the run completes without panicking and commits work.
        assert!(stats.committed > 1000);
    }

    #[test]
    fn step_n_matches_repeated_step_on_mixed_schedule() {
        // Alternate all three actions in irregular batch sizes: the
        // batched path must replay the exact same machine.
        let schedule = [
            (ControlAction::Normal, 777u64),
            (ControlAction::StallIssue, 63),
            (ControlAction::InjectNops, 129),
            (ControlAction::Normal, 2048),
            (ControlAction::StallIssue, 1),
            (ControlAction::Normal, 500),
        ];
        let gen_a = WorkloadGenerator::new(Benchmark::Gcc.profile(), 7);
        let gen_b = WorkloadGenerator::new(Benchmark::Gcc.profile(), 7);
        let mut a = Processor::new(ProcessorConfig::table1(), gen_a);
        let mut b = Processor::new(ProcessorConfig::table1(), gen_b);
        for &(action, n) in &schedule {
            let mut committed = 0u64;
            let mut last = None;
            for _ in 0..n {
                let out = a.step(action);
                committed += u64::from(out.committed);
                last = Some(out);
            }
            let batch = b.step_n(n, action);
            assert_eq!(batch.committed, committed);
            assert_eq!(Some(batch.last), last);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn step_trace_matches_per_cycle_capture() {
        let gen_a = WorkloadGenerator::new(Benchmark::Swim.profile(), 3);
        let gen_b = WorkloadGenerator::new(Benchmark::Swim.profile(), 3);
        let mut a = Processor::new(ProcessorConfig::table1(), gen_a);
        let mut b = Processor::new(ProcessorConfig::table1(), gen_b);
        let mut expect = Vec::new();
        let mut committed = 0u64;
        for _ in 0..3000 {
            let out = a.step(ControlAction::Normal);
            expect.push(out.current);
            committed += u64::from(out.committed);
        }
        let mut got = Vec::new();
        let got_committed = b.step_trace(3000, ControlAction::Normal, &mut got);
        assert_eq!(got, expect);
        assert_eq!(got_committed, committed);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh_processor() {
        let cfg = ProcessorConfig::table1();
        // Dirty a processor thoroughly on one benchmark...
        let mut cpu = Processor::new(cfg, WorkloadGenerator::new(Benchmark::Mcf.profile(), 9));
        cpu.step_n(20_000, ControlAction::Normal);
        // ...then recycle it onto another and compare against cold-start.
        cpu.reset(cfg, WorkloadGenerator::new(Benchmark::Gcc.profile(), 4));
        let mut fresh = Processor::new(cfg, WorkloadGenerator::new(Benchmark::Gcc.profile(), 4));
        for _ in 0..20_000 {
            let a = cpu.step(ControlAction::Normal);
            let b = fresh.step(ControlAction::Normal);
            assert_eq!(a, b);
        }
        assert_eq!(cpu.stats(), fresh.stats());
    }

    #[test]
    fn reset_with_new_geometry_rebuilds() {
        let mut cpu = Processor::new(
            ProcessorConfig::table1(),
            WorkloadGenerator::new(Benchmark::Gzip.profile(), 1),
        );
        cpu.step_n(1000, ControlAction::Normal);
        let wide = ProcessorConfig::with_width(8);
        cpu.reset(wide, WorkloadGenerator::new(Benchmark::Gzip.profile(), 1));
        assert_eq!(cpu.config(), &wide);
        assert_eq!(cpu.cycle(), 0);
        let mut fresh = Processor::new(wide, WorkloadGenerator::new(Benchmark::Gzip.profile(), 1));
        for _ in 0..5000 {
            assert_eq!(
                cpu.step(ControlAction::Normal),
                fresh.step(ControlAction::Normal)
            );
        }
    }
}
