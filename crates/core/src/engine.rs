//! The shared clock engine every pipeline model runs on.
//!
//! The paper builds all of its machines from the same pieces: one
//! Table-1 front end, one memory hierarchy, one six-class cycle
//! accounting. This module owns those pieces once:
//!
//! * [`Core`] — the machine state every model has: front end, decoded
//!   program, architectural [`Scoreboard`], memory image, hierarchy,
//!   MSHRs, clock and the cycle/stall/memory/branch accounting;
//! * [`Engine`] — the clock loop, livelock guard, class/cause
//!   transitions and queue samples, event-driven fast-forward, miss
//!   draining, report assembly and the `run*` entry points;
//! * [`Policy`] — what distinguishes one model from another: how a
//!   cycle issues ([`Policy::step`]) plus a few small hooks.
//!
//! A policy returns one verdict per cycle, its refined [`StallAttr`].
//! The engine charges causes only; the cycle's Figure-6 class is the
//! cause's parent ([`StallCause::class`]), and the report's class
//! breakdown is the collapse of the cause breakdown.
//!
//! The three policies are [`crate::baseline::BaselinePolicy`],
//! [`crate::two_pass::TwoPassPolicy`] and
//! [`crate::runahead::RunaheadPolicy`]; [`crate::Baseline`],
//! [`crate::TwoPass`] and [`crate::Runahead`] name their engines, and
//! [`run_model`] picks one by [`ModelKind`].

use crate::accounting::{CauseBreakdown, StallAttr, StallCause, StallProfile};
use crate::baseline::BaselinePolicy;
use crate::config::{MachineConfig, L1I_GEOMETRY};
use crate::decoded::DecodedProgram;
use crate::exec_common::fitting_prefix_classes;
use crate::frontend::{Frontend, FrontendConfig};
use crate::metrics::{MetricsBuilder, MetricsSnapshot};
use crate::report::{BranchStats, MemAccessStats, ModelKind, Pipe, SimReport};
use crate::runahead::RunaheadPolicy;
use crate::sink::{SinkHandle, TraceSink};
use crate::trace::{Trace, TraceEvent};
use crate::two_pass::TwoPassPolicy;
use ff_isa::reg::TOTAL_REGS;
use ff_isa::{load_write, MemoryImage, Program, RegId};
use ff_mem::{DataHierarchy, MemLevel, MshrFile};

/// One cycle's outcome: its refined attribution (whose cause names the
/// Figure-6 class) and the fast-forward wake hint — the earliest cycle
/// at which the stall could change, or `None` when the next cycle may
/// already differ (progress was made, or no such cycle is knowable).
pub type Step = (StallAttr, Option<u64>);

/// Final architectural register bits, as compared against the golden
/// interpreter.
pub type RegBits = [u64; TOTAL_REGS];

/// The architectural register file with its issue-time scoreboard.
#[derive(Debug)]
pub struct Scoreboard {
    /// Raw register bits.
    pub(crate) regs: RegBits,
    /// Cycle at which each register's latest value becomes readable.
    pub(crate) ready_at: [u64; TOTAL_REGS],
    /// Refined stall cause charged if a consumer blocks on the register.
    cause: [StallCause; TOTAL_REGS],
    /// Static pc of the register's pending producer (stall blame).
    pub(crate) pc: [usize; TOTAL_REGS],
}

impl Scoreboard {
    pub(crate) fn new() -> Self {
        Scoreboard {
            regs: [0; TOTAL_REGS],
            ready_at: [0; TOTAL_REGS],
            cause: [StallCause::DepOther; TOTAL_REGS],
            pc: [0; TOTAL_REGS],
        }
    }

    /// Writes a result produced by the instruction at `pc`; a consumer
    /// that blocks on it is charged `cause` (`StallCause::load(level)`
    /// for a load whose data waits on `level`).
    #[inline]
    pub(crate) fn write(
        &mut self,
        reg: RegId,
        bits: u64,
        ready_at: u64,
        cause: StallCause,
        pc: usize,
    ) {
        let i = reg.index();
        self.regs[i] = bits;
        self.ready_at[i] = ready_at;
        self.cause[i] = cause;
        self.pc[i] = pc;
    }

    /// Attributes a block on register index `idx`: the cause and the
    /// producer's pc recorded when the register was written.
    #[inline]
    pub(crate) fn block(&self, idx: usize) -> StallAttr {
        StallAttr::at(self.cause[idx], self.pc[idx])
    }
}

/// The machine state every model shares.
#[derive(Debug)]
pub struct Core<'p> {
    pub(crate) cfg: MachineConfig,
    pub(crate) frontend: Frontend<'p>,
    /// Per-pc pre-decoded metadata (sources, dests, FU class, latency).
    pub(crate) code: DecodedProgram,
    /// Architectural registers (the B-file, in two-pass terms).
    pub(crate) arch: Scoreboard,
    pub(crate) mem_img: MemoryImage,
    pub(crate) hier: DataHierarchy,
    pub(crate) mshrs: MshrFile,
    pub(crate) cycle: u64,
    pub(crate) retired: u64,
    pub(crate) halted: bool,
    /// In-flight fills awaiting a `MissEnd` event, as `(fill_at, addr,
    /// level)`. Populated only while a trace sink is attached.
    pending_misses: Vec<(u64, u64, MemLevel)>,
    /// Per-cause accounting (the class breakdown is its collapse).
    breakdown2: CauseBreakdown,
    /// Per-PC stall attribution for the profile table.
    profile: StallProfile,
    pub(crate) mem_stats: MemAccessStats,
    pub(crate) branches: BranchStats,
}

impl<'p> Core<'p> {
    fn new(program: &'p Program, mem: MemoryImage, cfg: MachineConfig) -> Self {
        let fe_cfg = FrontendConfig {
            fetch_width: cfg.issue_width,
            buffer_capacity: cfg.fetch_buffer,
            icache_miss_latency: cfg.icache_miss_latency,
            icache: L1I_GEOMETRY,
        };
        Core {
            frontend: Frontend::new(program, cfg.predictor.build(), fe_cfg),
            code: DecodedProgram::new(program, &cfg.latencies),
            arch: Scoreboard::new(),
            mem_img: mem,
            hier: DataHierarchy::new(cfg.hierarchy).expect("valid hierarchy"),
            mshrs: MshrFile::new(cfg.max_outstanding_loads),
            cfg,
            cycle: 0,
            retired: 0,
            halted: false,
            pending_misses: Vec::new(),
            breakdown2: CauseBreakdown::new(),
            profile: StallProfile::new(),
            mem_stats: MemAccessStats::default(),
            branches: BranchStats::default(),
        }
    }

    /// How many of the instructions at `pcs` fit one cycle's issue
    /// slots (always at least one).
    #[inline]
    pub(crate) fn fitting_prefix(&self, pcs: impl Iterator<Item = usize>) -> usize {
        fitting_prefix_classes(
            pcs.map(|pc| self.code.at(pc).fu),
            &self.cfg.fu_slots,
            self.cfg.issue_width,
        )
    }

    /// The front-end stall of a cycle with nothing to issue as of cycle
    /// `at`: a refill penalty expires at a known cycle; a merely-empty
    /// buffer can complete a group on any fetch tick.
    #[inline]
    pub(crate) fn frontend_stall(&self, at: u64) -> Step {
        if self.frontend.is_refilling(at) {
            (StallAttr::new(StallCause::FeRefill), Some(self.frontend.resume_at()))
        } else {
            (StallAttr::new(StallCause::FeEmpty), None)
        }
    }

    /// Sends a load to the hierarchy and books its fill: L1 hits bypass
    /// the MSHRs; misses allocate or merge. Records the access against
    /// `pipe` and returns the data-ready cycle and the level the data is
    /// *effectively* waiting on (a fill-clamped L1 hit reports the
    /// in-flight fill's level, for stall attribution).
    #[inline]
    pub(crate) fn book_load(
        &mut self,
        addr: u64,
        pipe: Pipe,
        sink: &mut SinkHandle,
    ) -> (u64, MemLevel) {
        let out = self.hier.load(addr);
        self.mem_stats.record_load(pipe, out.level, out.latency);
        let done = self.cycle + out.latency;
        let line = self.cfg.hierarchy.l2.line_of(addr);
        if out.level == MemLevel::L1 {
            // Tags fill at access time, so a "hit" may name a line whose
            // fill is still in flight: complete no earlier than the fill.
            return match self.mshrs.pending_fill(self.cycle, line) {
                Some((fill_done, fill_level)) if fill_done > done => (fill_done, fill_level),
                _ => (done, MemLevel::L1),
            };
        }
        let level = out.level;
        let fill_at = self.mshrs.request(self.cycle, line, done, level).unwrap_or(done).max(done);
        if sink.is_on() {
            sink.emit_with(|| TraceEvent::MissBegin {
                cycle: self.cycle,
                pipe,
                level,
                addr,
                fill_at,
            });
            self.pending_misses.push((fill_at, addr, level));
        }
        (fill_at, level)
    }

    /// Loads `size` bytes at `addr` from architectural memory, timed by
    /// [`Core::book_load`]: returns the register bits, the data-ready
    /// cycle and the effective level.
    #[inline]
    pub(crate) fn load(
        &mut self,
        addr: u64,
        size: u64,
        signed: bool,
        pipe: Pipe,
        sink: &mut SinkHandle,
    ) -> (u64, u64, MemLevel) {
        let bits = load_write(self.mem_img.load(addr, size), size, signed);
        let (done, level) = self.book_load(addr, pipe, sink);
        (bits, done, level)
    }

    /// Commits a store to architectural memory and the hierarchy.
    #[inline]
    pub(crate) fn store(&mut self, addr: u64, size: u64, bits: u64) {
        self.mem_img.write(addr, size, bits);
        let _ = self.hier.store(addr);
    }

    /// Retires a conditional branch: trains the predictor and counts the
    /// outcome, crediting a misprediction's repair to `pipe`'s DET stage.
    #[inline]
    pub(crate) fn retire_branch(&mut self, pc: usize, taken: bool, mispredicted: bool, pipe: Pipe) {
        self.branches.retired += 1;
        self.frontend.predictor_mut().update(pc as u64, taken);
        if mispredicted {
            self.branches.mispredicted += 1;
            match pipe {
                Pipe::A => self.branches.repaired_in_a += 1,
                Pipe::B => self.branches.repaired_in_b += 1,
            }
        }
    }

    /// Charges `span` cycles of `attr` to every accounting view.
    #[inline]
    fn charge(&mut self, attr: StallAttr, span: u64) {
        self.breakdown2.charge_n(attr.cause, span);
        if let Some(pc) = attr.pc {
            self.profile.record_n(pc, attr.cause, span);
        }
    }

    /// Emits `MissEnd` for every booked fill that has completed.
    #[inline]
    fn drain_pending_misses(&mut self, sink: &mut SinkHandle) {
        let now = self.cycle;
        let mut i = 0;
        while i < self.pending_misses.len() {
            if self.pending_misses[i].0 <= now {
                let (fill_at, addr, level) = self.pending_misses.swap_remove(i);
                sink.emit_with(|| TraceEvent::MissEnd { cycle: fill_at, addr, level });
            } else {
                i += 1;
            }
        }
    }

    /// Emits this cycle's queue/MSHR occupancy sample.
    #[inline]
    fn sample(&self, depth: usize, sink: &mut SinkHandle) {
        sink.emit_with(|| TraceEvent::QueueSample {
            cycle: self.cycle,
            depth: depth as u32,
            mshr: self.mshrs.outstanding(self.cycle) as u32,
        });
    }
}

/// How one pipeline model issues; the [`Engine`] does everything else.
pub trait Policy: Sized {
    /// The model's private state for machine `cfg`.
    fn new(cfg: &MachineConfig) -> Self;

    /// The model this policy implements.
    fn kind(&self) -> ModelKind;

    /// Simulates one cycle's issue on `core` (the engine has already
    /// ticked the front end). Must return a wake hint only when every
    /// cycle up to it would repeat this stall with the front end inert.
    fn step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step;

    /// Coupling-queue depth reported in occupancy samples.
    fn queue_depth(&self) -> usize {
        0
    }

    /// Bulk-charges model-specific counters for a fast-forwarded span
    /// of `span` cycles that repeat the last step's stall.
    fn charge_span(&mut self, _span: u64) {}

    /// Whether no further progress is possible (checked while not
    /// halted, after the clock advances).
    fn drained(&self, core: &Core<'_>) -> bool;

    /// Adds model-specific results to `report` (before its metrics are
    /// collected) and extra counters to `extra` (appended after them).
    fn report(self, _report: &mut SimReport, _extra: &mut MetricsBuilder) {}

    /// Audit probe: asserts that fast-forwarding `[core.cycle, target)`
    /// is legal — the last skipped cycle still repeats `attr` with
    /// nothing issuable.
    #[cfg(feature = "audit")]
    fn audit_span(&mut self, core: &mut Core<'_>, attr: StallAttr, target: u64);
}

/// A pipeline model: the shared [`Core`] driven by policy `P` (see
/// [`crate::Baseline`], [`crate::TwoPass`] and [`crate::Runahead`]).
#[derive(Debug)]
pub struct Engine<'p, P> {
    core: Core<'p>,
    policy: P,
}

impl<'p, P: Policy> Engine<'p, P> {
    /// Creates a machine over `program` with initial data memory `mem`.
    #[must_use]
    pub fn new(program: &'p Program, mem: MemoryImage, cfg: MachineConfig) -> Self {
        let policy = P::new(&cfg);
        Engine { core: Core::new(program, mem, cfg), policy }
    }

    /// Runs until `halt` retires or `max_instrs` instructions retire.
    #[must_use]
    pub fn run(self, max_instrs: u64) -> SimReport {
        self.run_to_end(max_instrs, None).0
    }

    /// Runs with every pipeline event streamed into `sink` (see
    /// [`crate::sink`] for bounded and streaming sinks).
    #[must_use]
    pub fn run_with_sink(self, max_instrs: u64, sink: &mut dyn TraceSink) -> SimReport {
        self.run_to_end(max_instrs, Some(sink)).0
    }

    /// Runs with event tracing enabled, returning the report and the
    /// recorded in-memory [`Trace`].
    #[must_use]
    pub fn run_traced(self, max_instrs: u64) -> (SimReport, Trace) {
        let mut trace = Trace::new();
        let report = self.run_with_sink(max_instrs, &mut trace);
        (report, trace)
    }

    /// Runs to completion and returns both the report and the final
    /// architectural state (register bits and memory) for differential
    /// testing against the golden interpreter.
    #[must_use]
    pub fn run_with_state(self, max_instrs: u64) -> (SimReport, RegBits, MemoryImage) {
        self.run_to_end(max_instrs, None)
    }

    /// Runs with tracing *and* returns the final architectural state —
    /// one simulation serving both the retirement-order and final-state
    /// halves of a differential check (see `ff-verify`).
    #[must_use]
    pub fn run_traced_with_state(
        self,
        max_instrs: u64,
    ) -> (SimReport, Trace, RegBits, MemoryImage) {
        let mut trace = Trace::new();
        let (report, regs, mem) = self.run_to_end(max_instrs, Some(&mut trace));
        (report, trace, regs, mem)
    }

    fn run_to_end(
        mut self,
        max_instrs: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> (SimReport, RegBits, MemoryImage) {
        let mut handle = sink.map_or_else(SinkHandle::off, SinkHandle::on);
        self.run_loop(max_instrs, &mut handle);
        handle.finish();
        self.into_report()
    }

    fn run_loop(&mut self, max_instrs: u64, sink: &mut SinkHandle) {
        // A forward-progress guard: any livelock is a simulator bug and
        // must surface as a panic, not a hang.
        let cycle_cap = max_instrs.saturating_mul(500).max(1_000_000);
        let mut last_attr: Option<StallAttr> = None;
        while !self.core.halted && self.core.retired < max_instrs {
            let core = &mut self.core;
            assert!(
                core.cycle < cycle_cap,
                "{} simulation livelocked at cycle {} (retired {}, queue {}, fetch drained: {})",
                self.policy.kind(),
                core.cycle,
                core.retired,
                self.policy.queue_depth(),
                core.frontend.is_drained()
            );
            core.frontend.tick(core.cycle);
            if sink.is_on() {
                core.drain_pending_misses(sink);
            }
            let (attr, wake) = self.policy.step(core, sink);
            core.charge(attr, 1);
            if sink.is_on() {
                let to = attr.cause.class();
                let from = last_attr.map(|a| a.cause.class());
                if from != Some(to) {
                    let from = from.unwrap_or(to);
                    sink.emit_with(|| TraceEvent::ClassTransition { cycle: core.cycle, from, to });
                }
                if last_attr != Some(attr) {
                    sink.emit_with(|| TraceEvent::CauseTransition {
                        cycle: core.cycle,
                        cause: attr.cause,
                        pc: attr.pc.map(|p| p as u64),
                    });
                    last_attr = Some(attr);
                }
                core.sample(self.policy.queue_depth(), sink);
            }
            core.cycle += 1;
            if !core.halted && self.policy.drained(core) {
                break; // defensive: no further progress possible
            }
            if core.cfg.fast_forward && attr.cause != StallCause::Issue {
                self.fast_forward(attr, wake, sink);
            }
        }
    }

    /// Event-driven fast-forward: having just charged a stall cycle with
    /// wake hint `wake`, jump the clock across the provably identical
    /// stall span `[cycle, target)`, bulk-charging the attribution and
    /// replaying the per-cycle trace stream so results are byte-identical
    /// to ticking every cycle.
    fn fast_forward(&mut self, attr: StallAttr, wake: Option<u64>, sink: &mut SinkHandle) {
        let Some(wake) = wake else { return };
        let core = &mut self.core;
        // The front end must be inert across the span: either stopped /
        // buffer-full (inert until the engine itself makes progress) or
        // refilling, which caps the jump at the refill arrival. An
        // actively fetching front end yields `resume_at <= now`, making
        // the span empty.
        let target = if core.frontend.is_stopped_or_full() {
            wake
        } else {
            wake.min(core.frontend.resume_at())
        };
        if target <= core.cycle {
            return;
        }
        #[cfg(feature = "audit")]
        self.policy.audit_span(core, attr, target);
        let span = target - core.cycle;
        core.charge(attr, span);
        self.policy.charge_span(span);
        if sink.is_on() {
            // Replay the skipped cycles' trace output exactly: the class
            // and cause are unchanged (no transitions fire), so each
            // cycle contributes its completed-fill events and its
            // occupancy sample, in per-cycle order. Between two fills
            // (a booked `MissEnd` or an MSHR entry completing) nothing
            // changes, so each such sub-span is one run of identical
            // samples.
            let depth = self.policy.queue_depth() as u32;
            let mut c = core.cycle;
            while c < target {
                core.cycle = c;
                core.drain_pending_misses(sink);
                let next_fill = core.pending_misses.iter().map(|m| m.0).min();
                let end =
                    next_fill.into_iter().chain(core.mshrs.next_wakeup(c)).fold(target, u64::min);
                sink.emit_samples(c..end, depth, core.mshrs.outstanding(c) as u32);
                c = end;
            }
        }
        core.cycle = target;
    }

    fn into_report(self) -> (SimReport, RegBits, MemoryImage) {
        let Engine { core, policy } = self;
        let mut report = SimReport {
            model: policy.kind(),
            cycles: core.cycle,
            retired: core.retired,
            breakdown: core.breakdown2.collapse(),
            breakdown2: core.breakdown2,
            stall_profile: core.profile,
            mem: core.mem_stats,
            branches: core.branches,
            hierarchy: *core.hier.stats(),
            mshr: core.mshrs.stats(),
            two_pass: None,
            metrics: MetricsSnapshot::default(),
        };
        let mut extra = MetricsBuilder::new();
        policy.report(&mut report, &mut extra);
        report.collect_metrics();
        report.metrics.counters.extend(extra.build().counters);
        (report, core.arch.regs, core.mem_img)
    }
}

/// Builds model `kind` over `program` and runs it for at most
/// `max_instrs` instructions, streaming events into `sink` when one is
/// given. `cfg` is used as is except that `two_pass.regroup` follows the
/// kind (on for `2Pre` only). Returns the report and the final
/// architectural state.
///
/// # Examples
///
/// ```
/// use ff_core::{run_model, MachineConfig, ModelKind};
/// use ff_isa::{MemoryImage, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.halt();
/// let program = b.build()?;
/// for kind in ModelKind::ALL {
///     let cfg = MachineConfig::paper_table1();
///     let (report, _, _) = run_model(kind, &program, MemoryImage::new(), cfg, 10, None);
///     assert_eq!((report.model, report.retired), (kind, 1));
/// }
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
#[must_use]
pub fn run_model(
    kind: ModelKind,
    program: &Program,
    mem: MemoryImage,
    mut cfg: MachineConfig,
    max_instrs: u64,
    sink: Option<&mut dyn TraceSink>,
) -> (SimReport, RegBits, MemoryImage) {
    match kind {
        ModelKind::Baseline => {
            Engine::<BaselinePolicy>::new(program, mem, cfg).run_to_end(max_instrs, sink)
        }
        ModelKind::TwoPass | ModelKind::TwoPassRegroup => {
            cfg.two_pass.regroup = kind == ModelKind::TwoPassRegroup;
            Engine::<TwoPassPolicy>::new(program, mem, cfg).run_to_end(max_instrs, sink)
        }
        ModelKind::Runahead => {
            Engine::<RunaheadPolicy>::new(program, mem, cfg).run_to_end(max_instrs, sink)
        }
    }
}
