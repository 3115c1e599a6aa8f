//! The flea-flicker two-pass pipeline (the paper's contribution).
//!
//! Two in-order back ends coupled by a FIFO queue:
//!
//! * the **A-pipe** dispatches one issue group per cycle and *never
//!   stalls on unanticipated latency*: instructions whose operands are
//!   unavailable are suppressed (deferred), their destinations marked
//!   invalid in the [`afile::AFile`], and independent instructions keep
//!   executing — including down mispredicted paths of branches whose
//!   resolution was deferred;
//! * the **coupling queue** ([`queue::CouplingQueue`]) carries every
//!   instruction, in order, with either its pre-computed results (the
//!   coupling result store) or a deferred marker;
//! * the **B-pipe** merges pre-computed results into the architectural
//!   B-file (waiting out "dangling dependences" on still-in-flight A-pipe
//!   loads), executes deferred instructions, commits stores in order,
//!   checks pre-executed loads against the ALAT, resolves deferred
//!   branches (B-DET), and feeds committed values back to the A-file.
//!
//! Memory correctness follows the paper's §3.4: A-pipe stores go to a
//! speculative store buffer (forwarded to younger A-pipe loads); loads
//! pre-executed past *deferred* stores allocate ALAT entries that
//! B-executed stores invalidate; a missing entry at merge triggers a
//! store-conflict flush.

pub mod afile;
pub mod queue;

use crate::accounting::{StallAttr, StallCause};
use crate::config::{FeedbackLatency, MachineConfig};
use crate::engine::{Core, Engine, Policy, Step};
use crate::frontend::FetchedInsn;
use crate::metrics::MetricsBuilder;
use crate::report::{ModelKind, Pipe, SimReport, TwoPassStats};
use crate::sink::SinkHandle;
use crate::trace::{FlushKind, TraceEvent};
use afile::{AFile, SourceState};
use ff_isa::{evaluate, Effect, RegId, Writes};
use ff_mem::{Alat, AlatCheck, ForwardResult, MemLevel, StoreBuffer};
use queue::{BranchInfo, CouplingQueue, CqEntry, CqState, LoadInfo, StoreInfo};
use std::collections::VecDeque;

/// A pending B→A committed-result update.
#[derive(Debug, Clone, Copy)]
struct FeedbackMsg {
    apply_at: u64,
    reg: RegId,
    seq: u64,
    bits: u64,
}

/// A flush decision made while merging a bundle.
#[derive(Debug, Clone, Copy)]
struct FlushPlan {
    boundary_seq: u64,
    redirect_pc: usize,
    penalty: u64,
    kind: FlushKind,
}

/// Why the A-pipe dispatched nothing this cycle (`None` from
/// [`TwoPassPolicy::a_step`] means it made progress). Fast-forward may skip a
/// span only for reasons that are provably stable while both pipes are
/// inert: `FpBlock` depends on A-file producer timers that advance with
/// the clock, so it never skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AIdle {
    /// The A-pipe already dispatched `halt`.
    Halted,
    /// The §3.5 deferral throttle holds dispatch.
    Throttled,
    /// The fetch buffer holds no complete issue group.
    NoGroup,
    /// The coupling queue has no free slot.
    QueueFull,
    /// `stall_on_anticipable_fp` blocks on an in-flight FP producer.
    FpBlock,
}

/// A register written by an earlier entry of the bundle under check:
/// `avail = true` means available at merge time (pre-executed), `false`
/// means produced later this cycle (deferred) and unusable by bundle
/// peers. The writer's pc and refined cause ride along for attribution.
#[derive(Debug, Clone, Copy)]
struct BundleWrite {
    reg: usize,
    avail: bool,
    pc: usize,
    cause: StallCause,
}

/// The two-pass pipeline simulator.
///
/// # Examples
///
/// ```
/// use ff_core::{MachineConfig, TwoPass};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
///
/// let sim = TwoPass::new(&program, MemoryImage::new(), MachineConfig::paper_table1());
/// let report = sim.run(1_000);
/// assert_eq!(report.retired, 2);
/// assert!(report.two_pass.is_some());
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
pub type TwoPass<'p> = Engine<'p, TwoPassPolicy>;

/// The two-pass issue policy: the A-pipe, the coupling queue and the
/// B-pipe. The B-pipe's architectural file is the engine's scoreboard.
#[derive(Debug)]
pub struct TwoPassPolicy {
    /// `2P`, or `2Pre` when the machine regroups.
    kind: ModelKind,
    /// Reusable scratch for the bundle dependence check (allocation-free
    /// steady state).
    bundle_scratch: Vec<BundleWrite>,
    afile: AFile,
    store_buffer: StoreBuffer,
    alat: Alat,
    cq: CouplingQueue,
    feedback: Vec<FeedbackMsg>,
    a_halted: bool,
    deferred_stores_in_cq: usize,
    /// Sliding-window deferral history for the §3.5 throttle: one bit
    /// per recent dispatch, true = deferred.
    defer_window: VecDeque<bool>,
    /// Whether the throttle currently holds the A-pipe.
    throttled: bool,
    /// Why the A-pipe sat idle in the last step, if it did.
    a_idle: Option<AIdle>,
    stats: TwoPassStats,
}

impl Policy for TwoPassPolicy {
    fn new(cfg: &MachineConfig) -> Self {
        TwoPassPolicy {
            kind: if cfg.two_pass.regroup { ModelKind::TwoPassRegroup } else { ModelKind::TwoPass },
            bundle_scratch: Vec::new(),
            afile: AFile::new(),
            store_buffer: StoreBuffer::new(cfg.two_pass.store_buffer_size),
            alat: Alat::new(cfg.two_pass.alat),
            cq: CouplingQueue::new(cfg.two_pass.queue_size),
            feedback: Vec::new(),
            a_halted: false,
            deferred_stores_in_cq: 0,
            defer_window: VecDeque::new(),
            throttled: false,
            a_idle: None,
            stats: TwoPassStats::default(),
        }
    }

    fn kind(&self) -> ModelKind {
        self.kind
    }

    /// One cycle: feedback lands, the B-pipe merges, then the A-pipe
    /// dispatches. The cycle is charged by the B-pipe's outcome.
    fn step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step {
        self.apply_feedback(core.cycle);
        let (attr, b_wake) = self.b_step(core, sink);
        #[cfg(feature = "audit")]
        let b_fingerprint = audit_b_fingerprint(core);
        self.a_idle = if core.halted { Some(AIdle::Halted) } else { self.a_step(core, sink) };
        #[cfg(feature = "audit")]
        {
            self.audit_a_isolation(core, b_fingerprint);
            self.audit_cq_discipline(core.cycle);
        }
        self.charge_span(1);

        // Fast-forward may skip only while the A-pipe is idle for a
        // clock-independent reason — `FpBlock` depends on A-file timers
        // that advance with the clock; a throttle or full queue can only
        // be released by B-pipe progress, a missing group only by fetch
        // progress — and must stop at the next feedback arrival, which
        // updates the A-file (and the applied/stale counters) on time.
        let wake = match self.a_idle {
            Some(idle) if idle != AIdle::FpBlock => b_wake,
            _ => None,
        };
        let wake = wake.map(|w| self.feedback.iter().map(|m| m.apply_at).fold(w, u64::min));
        (attr, wake)
    }

    #[inline]
    fn queue_depth(&self) -> usize {
        self.cq.len()
    }

    /// Charges the queue occupancy and the A-pipe's idle reason for
    /// `span` cycles (one per step, or a whole fast-forwarded span).
    #[inline]
    fn charge_span(&mut self, span: u64) {
        let depth = self.cq.len() as u64;
        self.stats.queue_occupancy_sum += depth * span;
        self.stats.queue_depth_hist.observe_n(depth, span);
        match self.a_idle {
            Some(AIdle::Throttled) => self.stats.throttled_cycles += span,
            Some(AIdle::QueueFull) => self.stats.queue_full_cycles += span,
            _ => {}
        }
    }

    #[inline]
    fn drained(&self, core: &Core<'_>) -> bool {
        core.frontend.is_drained() && self.cq.is_empty()
    }

    fn report(mut self, report: &mut SimReport, _extra: &mut MetricsBuilder) {
        self.stats.store_buffer = self.store_buffer.stats();
        self.stats.alat = self.alat.stats();
        report.two_pass = Some(self.stats);
    }

    /// Fast-forward legality: the cycle just before the landing cycle —
    /// the last one skipped — must re-derive the *same* B-pipe stall, the
    /// A-pipe idle reason must still hold, and no B→A feedback message
    /// may land inside the span. Re-deriving at `target - 1` covers the
    /// whole span: every stall predicate here is monotone in the clock
    /// (a `ready_at`/fill/refill boundary not yet crossed at `target - 1`
    /// was not crossed earlier either).
    #[cfg(feature = "audit")]
    fn audit_span(&mut self, core: &mut Core<'_>, attr: StallAttr, target: u64) {
        let idle = self.a_idle.expect("fast-forward skips only an idle A-pipe");
        let start = core.cycle;
        assert!(
            self.feedback.iter().all(|m| m.apply_at >= target),
            "audit: fast-forwarded span [{start}, {target}) crosses a feedback arrival",
        );
        core.cycle = target - 1;
        let probed = match self.head_group(core) {
            Err((attr, _)) => Some(attr),
            Ok(glen) => match self.bundle_block(core, glen) {
                Some((idx, internal, attr, _)) if !internal || idx == 0 => Some(attr),
                _ => None,
            },
        };
        assert_eq!(
            probed,
            Some(attr),
            "audit: fast-forwarded span [{start}, {target}) had an enabled B-pipe event",
        );
        let still_idle = match idle {
            AIdle::Halted => self.a_halted,
            AIdle::Throttled => {
                self.throttled
                    && core
                        .cfg
                        .two_pass
                        .throttle
                        .is_some_and(|t| self.cq.len() > t.resume_occupancy)
            }
            AIdle::NoGroup => core.frontend.complete_group_len().is_none(),
            AIdle::QueueFull => self.cq.free() == 0,
            AIdle::FpBlock => false, // never skipped
        };
        assert!(
            still_idle,
            "audit: fast-forwarded span [{start}, {target}) had an enabled A-pipe event \
             (idle reason {idle:?} no longer holds)",
        );
        core.cycle = start;
    }
}

impl TwoPassPolicy {
    // ---- feedback path --------------------------------------------------

    fn push_feedback(&mut self, core: &Core<'_>, reg: RegId, seq: u64, bits: u64, completion: u64) {
        if let FeedbackLatency::Cycles(lat) = core.cfg.two_pass.feedback_latency {
            self.feedback.push(FeedbackMsg { apply_at: completion + lat, reg, seq, bits });
        }
    }

    fn apply_feedback(&mut self, now: u64) {
        let mut i = 0;
        while i < self.feedback.len() {
            if self.feedback[i].apply_at <= now {
                let m = self.feedback.swap_remove(i);
                if self.afile.feedback_update(m.reg, m.seq, m.bits, now) {
                    self.stats.feedback_applied += 1;
                } else {
                    self.stats.feedback_stale += 1;
                }
            } else {
                i += 1;
            }
        }
    }

    // ---- B-pipe ---------------------------------------------------------

    /// Dependence/dangling/structural check over the first `len` queue
    /// entries as one issue bundle. `None` means the bundle can issue
    /// whole. Otherwise reports the index of the first blocked entry,
    /// whether the block is *internal* — a
    /// dependence on a deferred bundle peer, which time will not resolve
    /// (the bundle must split there) — or *external* (stall the group,
    /// EPIC-style), the refined attribution of the blocking producer,
    /// and, for external blocks, the cycle the block resolves (the
    /// producer's `ready_at`, or the earliest MSHR fill for a structural
    /// block) — the fast-forward wake hint.
    fn bundle_block(
        &mut self,
        core: &Core<'_>,
        len: usize,
    ) -> Option<(usize, bool, StallAttr, Option<u64>)> {
        // Reuse the scratch buffer across cycles: take it out of `self`
        // so the scan can borrow the rest of the machine immutably.
        let mut written = std::mem::take(&mut self.bundle_scratch);
        written.clear();
        let result = self.bundle_block_scan(core, len, &mut written);
        self.bundle_scratch = written;
        result
    }

    fn bundle_block_scan(
        &self,
        core: &Core<'_>,
        len: usize,
        written: &mut Vec<BundleWrite>,
    ) -> Option<(usize, bool, StallAttr, Option<u64>)> {
        let now = core.cycle;
        let find = |written: &[BundleWrite], idx: usize| {
            written.iter().rev().position(|w| w.reg == idx).map(|p| written.len() - 1 - p)
        };
        for i in 0..len {
            let e = self.cq.get(i).expect("bundle in range");
            let d = core.code.at(e.pc);
            match e.state {
                CqState::Executed { ready_at, writes, load, .. } => {
                    if ready_at > now {
                        let cause = load.map_or(d.dep_cause, |li| StallCause::load(li.level));
                        return Some((i, false, StallAttr::at(cause, e.pc), Some(ready_at)));
                    }
                    for w in writes.iter() {
                        written.push(BundleWrite {
                            reg: w.reg.index(),
                            avail: true,
                            pc: e.pc,
                            cause: d.dep_cause,
                        });
                    }
                }
                CqState::Deferred => {
                    for src in d.srcs.iter() {
                        let idx = src.index();
                        match find(written, idx) {
                            Some(w) if written[w].avail => {}
                            Some(w) => {
                                let attr = StallAttr::at(written[w].cause, written[w].pc);
                                return Some((i, true, attr, None));
                            }
                            None => {
                                let ready = core.arch.ready_at[idx];
                                if ready > now {
                                    return Some((i, false, core.arch.block(idx), Some(ready)));
                                }
                            }
                        }
                    }
                    if d.is_load && !core.mshrs.has_room(now) {
                        let attr = StallAttr::at(StallCause::ResMshr, e.pc);
                        let wake = core.mshrs.next_wakeup(now);
                        return Some((i, false, attr, wake));
                    }
                    // WAW against a deferred peer also forces a split:
                    // sequential apply order must be preserved in time.
                    for dst in d.dests.iter() {
                        if let Some(w) = find(written, dst.index()) {
                            if !written[w].avail {
                                let attr = StallAttr::at(written[w].cause, written[w].pc);
                                return Some((i, true, attr, None));
                            }
                        }
                    }
                    for dst in d.dests.iter() {
                        written.push(BundleWrite {
                            reg: dst.index(),
                            avail: false,
                            pc: e.pc,
                            cause: d.dep_cause,
                        });
                    }
                }
            }
        }
        None
    }

    /// Length of the group at the queue head that the B-pipe may
    /// consume this cycle, or — when nothing is consumable — the stall.
    fn head_group(&self, core: &Core<'_>) -> Result<usize, Step> {
        if let Some(g) = self.cq.head_group_len(core.cycle) {
            return Ok(g);
        }
        // A group larger than the coupling queue can never present a
        // group_end marker: when the queue is completely full of one
        // unterminated group, consume it as a chunk (hardware would
        // issue an oversized group over multiple cycles anyway).
        if self.cq.free() == 0
            && self.cq.get(self.cq.len() - 1).is_some_and(|e| e.enq_cycle < core.cycle)
        {
            return Ok(self.cq.len());
        }
        // Nothing consumable: starving on fetch, or waiting for the
        // A-pipe's one-cycle head start, which has no wake hint — the
        // A-pipe may make progress the very next cycle.
        let fe = &core.frontend;
        Err(if fe.is_refilling(core.cycle) || fe.complete_group_len().is_none() {
            core.frontend_stall(core.cycle)
        } else {
            (StallAttr::new(StallCause::APipe), None)
        })
    }

    /// The B-pipe's cycle. The second element is the fast-forward wake
    /// hint: the earliest cycle at which this stall could resolve, when
    /// one is knowable.
    fn b_step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step {
        let glen = match self.head_group(core) {
            Ok(g) => g,
            Err(stall) => return stall,
        };

        // An internal (bundle-peer) dependence splits the group — time
        // alone would never resolve it; an external one stalls the whole
        // group at EPIC issue-group granularity.
        let mut issue_len = glen;
        if let Some((idx, internal, attr, wake)) = self.bundle_block(core, glen) {
            if !internal || idx == 0 {
                return (attr, wake);
            }
            issue_len = idx;
        }

        let cq = &self.cq;
        let queued_pcs = |n| (0..n).map(move |i| cq.get(i).unwrap().pc);
        let mut bundle = core.fitting_prefix(queued_pcs(issue_len)).min(issue_len);

        // Instruction regrouping (2Pre): remove the stop bit after the
        // head group when pre-execution has made the next group
        // independent of it. The regrouper looks ahead one group per
        // cycle ("re-groups but does not reorder", §3.1).
        if core.cfg.two_pass.regroup && bundle == glen && issue_len == glen {
            if let Some(next_len) = self.cq.group_len_after(bundle, core.cycle) {
                let cand = bundle + next_len;
                let fits = core.fitting_prefix(queued_pcs(cand)) >= cand;
                // Any block — internal or external — vetoes the merge.
                if fits && self.bundle_block(core, cand).is_none() {
                    bundle = cand;
                    self.stats.regroup_merges += 1;
                }
            }
        }

        let head_seq = self.cq.get(0).map(|e| e.seq);
        let mut processed = 0;
        let mut flush: Option<FlushPlan> = None;
        for i in 0..bundle {
            let entry = *self.cq.get(i).expect("bundle in range");
            processed += 1;
            let done = self.merge_entry(core, &entry, &mut flush, sink);
            if done || flush.is_some() {
                break;
            }
        }
        self.cq.consume(processed);
        if processed > 0 {
            if let Some(head_seq) = head_seq {
                sink.emit_with(|| TraceEvent::GroupDispatch {
                    cycle: core.cycle,
                    pipe: Pipe::B,
                    head_seq,
                    len: processed as u32,
                });
            }
        }
        if let Some(plan) = flush {
            self.do_flush(core, plan, sink);
        }
        (StallAttr::new(StallCause::Issue), None)
    }

    /// Retires one queue entry into architectural state. Returns `true`
    /// when the machine halted.
    fn merge_entry(
        &mut self,
        core: &mut Core<'_>,
        entry: &CqEntry,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) -> bool {
        core.retired += 1;
        let resident = core.cycle.saturating_sub(entry.enq_cycle);
        self.stats.slip_hist.observe(resident);
        sink.emit_with(|| TraceEvent::CqDequeue {
            cycle: core.cycle,
            seq: entry.seq,
            pc: entry.pc,
            resident,
        });
        if entry.state.is_deferred() {
            sink.emit_with(|| TraceEvent::BExec {
                cycle: core.cycle,
                seq: entry.seq,
                pc: entry.pc,
            });
        }
        sink.emit_with(|| TraceEvent::BRetire {
            cycle: core.cycle,
            seq: entry.seq,
            pc: entry.pc,
            was_deferred: entry.state.is_deferred(),
        });
        let d = core.code.at(entry.pc);
        let (is_fp, is_halt, cause) = (d.is_fp, d.is_halt, d.dep_cause);
        if is_fp {
            self.stats.fp_retired += 1;
        }
        #[cfg(feature = "audit")]
        if let CqState::Executed { ready_at, .. } = entry.state {
            assert!(
                ready_at <= core.cycle,
                "audit: pc {} (seq {}) merges at cycle {} but its A-pipe result \
                 is not ready until cycle {ready_at}",
                entry.pc,
                entry.seq,
                core.cycle
            );
        }
        match entry.state {
            CqState::Executed { writes, load, store, branch, .. } => {
                for w in writes.iter() {
                    core.arch.write(w.reg, w.bits, core.cycle, cause, entry.pc);
                    self.push_feedback(core, w.reg, entry.seq, w.bits, core.cycle);
                }
                if let Some(li) = load {
                    if self.alat.check_and_remove(entry.seq) == AlatCheck::Conflict {
                        self.store_conflict_flush(core, entry, li, flush, sink);
                        return false;
                    }
                }
                if let Some(si) = store {
                    core.store(si.addr, si.size, si.bits);
                    let _ = self.store_buffer.remove(entry.seq);
                    self.stats.stores_retired += 1;
                }
                if let Some(bi) = branch.filter(|bi| bi.conditional) {
                    core.retire_branch(entry.pc, bi.taken, bi.mispredicted, Pipe::A);
                }
                if is_halt {
                    core.halted = true;
                    return true;
                }
            }
            CqState::Deferred => {
                return self.execute_deferred(core, entry, flush, sink);
            }
        }
        false
    }

    /// Executes a deferred entry in the B-pipe. Returns `true` on halt.
    fn execute_deferred(
        &mut self,
        core: &mut Core<'_>,
        entry: &CqEntry,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) -> bool {
        let d = core.code.at(entry.pc);
        let (lat, cause, has_qp) = (d.latency, d.dep_cause, d.insn.qp.is_some());
        #[cfg(feature = "audit")]
        audit_deferred_sources(core, entry.pc);
        match evaluate(&d.insn, &core.arch.regs) {
            Effect::Nullified | Effect::Nop => {}
            Effect::Write(writes) => {
                for w in writes.iter() {
                    core.arch.write(w.reg, w.bits, core.cycle + lat, cause, entry.pc);
                    self.push_feedback(core, w.reg, entry.seq, w.bits, core.cycle + lat);
                }
            }
            Effect::Load { addr, size, signed, dest } => {
                self.b_load(core, entry, addr, size, signed, dest, sink);
            }
            Effect::Store { addr, size, bits } => {
                core.store(addr, size, bits);
                // A deferred store executed in the B-pipe invalidates the
                // ALAT entries of younger pre-executed loads (§3.4).
                let _ = self.alat.store_invalidate(addr, size);
                self.stats.stores_retired += 1;
                self.deferred_stores_in_cq = self.deferred_stores_in_cq.saturating_sub(1);
            }
            Effect::Branch { taken, target } => {
                debug_assert!(has_qp, "unconditional branches never defer");
                let mispredicted = taken != entry.predicted_taken;
                core.retire_branch(entry.pc, taken, mispredicted, Pipe::B);
                if mispredicted {
                    *flush = Some(FlushPlan {
                        boundary_seq: entry.seq,
                        redirect_pc: if taken { target } else { entry.pc + 1 },
                        penalty: core.cfg.bdet_penalty(),
                        kind: FlushKind::BdetMispredict,
                    });
                }
            }
            Effect::Halt => {
                // Halt has no sources and cannot defer; defensive only.
                core.halted = true;
                return true;
            }
        }
        false
    }

    /// Executes a load against architectural memory in the B-pipe and
    /// feeds its value back to the A-file.
    #[allow(clippy::too_many_arguments)]
    fn b_load(
        &mut self,
        core: &mut Core<'_>,
        entry: &CqEntry,
        addr: u64,
        size: u64,
        signed: bool,
        dest: RegId,
        sink: &mut SinkHandle,
    ) {
        let (bits, done, level) = core.load(addr, size, signed, Pipe::B, sink);
        core.arch.write(dest, bits, done, StallCause::load(level), entry.pc);
        self.push_feedback(core, dest, entry.seq, bits, done);
    }

    /// Handles an ALAT miss at merge: re-execute the load against
    /// architectural memory and flush all younger speculative state.
    fn store_conflict_flush(
        &mut self,
        core: &mut Core<'_>,
        entry: &CqEntry,
        li: LoadInfo,
        flush: &mut Option<FlushPlan>,
        sink: &mut SinkHandle,
    ) {
        self.stats.store_conflict_flushes += 1;
        if li.risky {
            self.stats.loads_past_deferred_store_conflicting += 1;
        }
        // Re-execute the offending load with correct memory.
        let effect = evaluate(&core.code.at(entry.pc).insn, &core.arch.regs);
        if let Effect::Load { addr, size, signed, dest } = effect {
            self.b_load(core, entry, addr, size, signed, dest, sink);
        }
        *flush = Some(FlushPlan {
            boundary_seq: entry.seq,
            redirect_pc: entry.pc + 1,
            penalty: core.cfg.bdet_penalty(),
            kind: FlushKind::StoreConflict,
        });
    }

    fn do_flush(&mut self, core: &mut Core<'_>, plan: FlushPlan, sink: &mut SinkHandle) {
        sink.emit_with(|| TraceEvent::Flush {
            cycle: core.cycle,
            kind: plan.kind,
            boundary_seq: plan.boundary_seq,
        });
        // `boundary_seq` is the seq of the flush-triggering instruction
        // (mispredicted branch / conflicting load); it retires in B, so
        // flush_after keeps it and squashes only strictly younger work.
        if sink.is_on() {
            for e in self.cq.iter() {
                if e.seq > plan.boundary_seq {
                    let (seq, pc) = (e.seq, e.pc);
                    sink.emit_with(|| TraceEvent::Squash { cycle: core.cycle, seq, pc });
                }
            }
        }
        let _ = self.cq.flush_after(plan.boundary_seq);
        core.frontend.redirect(plan.redirect_pc, core.cycle + plan.penalty);
        let _ = self.afile.repair_from(&core.arch, core.cycle);
        self.store_buffer.flush_after(plan.boundary_seq);
        self.alat.flush_after(plan.boundary_seq);
        self.feedback.retain(|m| m.seq <= plan.boundary_seq);
        self.a_halted = false;
        self.throttled = false;
        self.defer_window.clear();
        let code = &core.code;
        self.deferred_stores_in_cq =
            self.cq.iter().filter(|e| e.state.is_deferred() && code.at(e.pc).is_store).count();
    }

    // ---- A-pipe ---------------------------------------------------------

    /// Whether the instruction must defer based on A-file source state.
    /// Predication refines this: a ready-and-false qualifying predicate
    /// nullifies the instruction regardless of its other operands.
    fn must_defer(&self, core: &Core<'_>, pc: usize) -> bool {
        let d = core.code.at(pc);
        if let Some(qp) = d.insn.qp {
            match self.afile.source_state(RegId::Pred(qp), core.cycle) {
                SourceState::Deferred | SourceState::InFlight { .. } => return true,
                SourceState::Ready => {
                    let qp_true = ff_isa::RegRead::read(&self.afile, RegId::Pred(qp)) != 0;
                    if !qp_true {
                        return false; // nullified: executes (as a no-op)
                    }
                }
            }
        }
        d.op_srcs
            .iter()
            .any(|src| !matches!(self.afile.source_state(src, core.cycle), SourceState::Ready))
    }

    /// Records a dispatch outcome in the throttle window and returns
    /// whether the A-pipe should pause (deferral rate above threshold
    /// with a deep queue backlog).
    fn throttle_check(&mut self, core: &Core<'_>) -> bool {
        let Some(t) = core.cfg.two_pass.throttle else { return false };
        if self.throttled {
            if self.cq.len() <= t.resume_occupancy {
                self.throttled = false;
                self.defer_window.clear();
            }
        } else if self.defer_window.len() >= t.window {
            let deferred = self.defer_window.iter().filter(|&&d| d).count();
            if deferred as f64 / self.defer_window.len() as f64 > t.defer_threshold
                && self.cq.len() > t.resume_occupancy
            {
                self.throttled = true;
            }
        }
        self.throttled
    }

    fn note_dispatch(&mut self, core: &Core<'_>, deferred: bool) {
        if let Some(t) = core.cfg.two_pass.throttle {
            self.defer_window.push_back(deferred);
            while self.defer_window.len() > t.window {
                self.defer_window.pop_front();
            }
        }
    }

    /// Dispatches one issue group into the coupling queue. Returns the
    /// reason nothing was dispatched, or `None` on progress — the
    /// fast-forward layer skips a stalled span only when the reason is
    /// stable under an advancing clock (see [`AIdle`]).
    fn a_step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Option<AIdle> {
        if self.a_halted {
            return Some(AIdle::Halted);
        }
        if self.throttle_check(core) {
            return Some(AIdle::Throttled);
        }
        let Some(glen) = core.frontend.complete_group_len() else {
            return Some(AIdle::NoGroup);
        };
        let mut n = core.fitting_prefix((0..glen).map(|i| core.frontend.peek(i).pc)).min(glen);

        // Dispatch only as much as the coupling queue can hold; pushing
        // nothing when the group doesn't fit whole would deadlock against
        // a B-pipe waiting for the group's end marker.
        let free = self.cq.free();
        if free == 0 {
            return Some(AIdle::QueueFull);
        }
        n = n.min(free);

        // Optional policy: stall (like the baseline) on anticipable FP
        // latencies instead of deferring whole FP chains (§4, 175.vpr).
        if core.cfg.two_pass.stall_on_anticipable_fp {
            for i in 0..glen {
                let blocked = core.code.at(core.frontend.peek(i).pc).srcs.iter().any(|src| {
                    self.afile.source_state(src, core.cycle) == SourceState::InFlight { fp: true }
                });
                if blocked {
                    return Some(AIdle::FpBlock);
                }
            }
        }

        let head_seq = core.frontend.peek(0).seq;
        let mut processed = 0;
        let mut redirect: Option<(usize, u64)> = None;
        for i in 0..n {
            let f = *core.frontend.peek(i);
            processed += 1;
            self.stats.dispatched_a += 1;
            sink.emit_with(|| TraceEvent::Fetch { cycle: core.cycle, seq: f.seq, pc: f.pc });

            let (state, stop) = if self.must_defer(core, f.pc) {
                (CqState::Deferred, false)
            } else {
                self.a_execute(core, &f, &mut redirect, sink)
            };

            self.note_dispatch(core, state.is_deferred());
            if state.is_deferred() {
                let d = core.code.at(f.pc);
                self.stats.deferred += 1;
                if d.is_store {
                    self.stats.stores_deferred += 1;
                    self.deferred_stores_in_cq += 1;
                }
                if d.is_fp {
                    self.stats.fp_deferred += 1;
                }
                for dst in d.dests.iter() {
                    self.afile.mark_deferred(dst, f.seq);
                }
            } else {
                self.stats.executed_in_a += 1;
            }

            match state {
                CqState::Executed { ready_at, .. } => sink.emit_with(|| TraceEvent::AExec {
                    cycle: core.cycle,
                    seq: f.seq,
                    pc: f.pc,
                    ready_at,
                }),
                CqState::Deferred => {
                    sink.emit_with(|| TraceEvent::Defer { cycle: core.cycle, seq: f.seq, pc: f.pc })
                }
            }
            sink.emit_with(|| TraceEvent::ADispatch {
                cycle: core.cycle,
                seq: f.seq,
                pc: f.pc,
                deferred: state.is_deferred(),
            });
            self.cq.push(CqEntry {
                seq: f.seq,
                pc: f.pc,
                // Squashing the rest of the group (A-DET mispredict,
                // taken branch, halt) truncates it: the B-pipe must see
                // this entry as the group's end or it would wait forever
                // for members that will never arrive.
                group_end: f.group_end || stop,
                predicted_taken: f.predicted_taken,
                enq_cycle: core.cycle,
                state,
            });
            sink.emit_with(|| TraceEvent::CqEnqueue {
                cycle: core.cycle,
                seq: f.seq,
                pc: f.pc,
                depth: self.cq.len() as u32,
            });

            if stop {
                break;
            }
        }
        core.frontend.consume(processed);
        if processed > 0 {
            sink.emit_with(|| TraceEvent::GroupDispatch {
                cycle: core.cycle,
                pipe: Pipe::A,
                head_seq,
                len: processed as u32,
            });
        }
        if let Some((pc, at)) = redirect {
            sink.emit_with(|| TraceEvent::ARedirect { cycle: core.cycle, pc });
            core.frontend.redirect(pc, at);
        }
        None
    }

    /// Executes one instruction in the A-pipe. Returns the queue state
    /// plus whether group processing must stop (taken branch, A-DET
    /// squash, halt). May fall back to `Deferred` for structural reasons
    /// (partial store forward, MSHR or store-buffer full).
    fn a_execute(
        &mut self,
        core: &mut Core<'_>,
        f: &FetchedInsn,
        redirect: &mut Option<(usize, u64)>,
        sink: &mut SinkHandle,
    ) -> (CqState, bool) {
        let now = core.cycle;
        let d = core.code.at(f.pc);
        let lat = d.latency;
        let conditional = d.insn.qp.is_some();
        let executed = |store, branch| CqState::Executed {
            writes: Writes::default(),
            ready_at: now,
            load: None,
            store,
            branch,
        };
        match evaluate(&d.insn, &self.afile) {
            Effect::Nullified | Effect::Nop => (executed(None, None), false),
            Effect::Write(writes) => {
                for w in writes.iter() {
                    self.afile.write_executed(w.reg, w.bits, f.seq, now + lat, d.is_fp);
                }
                (CqState::executed(writes, now + lat), false)
            }
            Effect::Load { addr, size, signed, dest } => {
                self.a_load(core, f, addr, size, signed, dest, sink)
            }
            Effect::Store { addr, size, bits } => {
                if self.store_buffer.is_full() {
                    return (CqState::Deferred, false);
                }
                self.store_buffer.insert(f.seq, addr, size, bits).expect("checked capacity");
                (executed(Some(StoreInfo { addr, size, bits }), None), false)
            }
            Effect::Branch { taken, target } => {
                let mispredicted = conditional && taken != f.predicted_taken;
                if mispredicted {
                    let correct = if taken { target } else { f.pc + 1 };
                    *redirect = Some((correct, now + core.cfg.adet_penalty()));
                }
                let bi = BranchInfo { taken, mispredicted, conditional };
                // Stop on squash or on an actually-taken branch (the
                // front end ended the group there if predicted taken).
                (executed(None, Some(bi)), mispredicted || taken)
            }
            Effect::Halt => {
                self.a_halted = true;
                (executed(None, None), true)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn a_load(
        &mut self,
        core: &mut Core<'_>,
        f: &FetchedInsn,
        addr: u64,
        size: u64,
        signed: bool,
        dest: RegId,
        sink: &mut SinkHandle,
    ) -> (CqState, bool) {
        let now = core.cycle;
        let risky = self.deferred_stores_in_cq > 0;

        let (bits, ready_at, level) = match self.store_buffer.forward(f.seq, addr, size) {
            ForwardResult::Partial => return (CqState::Deferred, false),
            ForwardResult::Forwarded(raw) => {
                // Store-buffer bypass at L1 speed.
                let lat = core.cfg.hierarchy.l1_latency;
                core.mem_stats.record_load(Pipe::A, MemLevel::L1, lat);
                (ff_isa::load_write(raw, size, signed), now + lat, MemLevel::L1)
            }
            ForwardResult::NoConflict => {
                if !core.mshrs.has_room(now) && core.hier.probe(addr) != MemLevel::L1 {
                    return (CqState::Deferred, false);
                }
                core.load(addr, size, signed, Pipe::A, sink)
            }
        };

        self.alat.allocate(f.seq, addr, size);
        if risky {
            self.stats.loads_past_deferred_store += 1;
        }
        self.afile.write_executed(dest, bits, f.seq, ready_at, false);

        let mut writes = Writes::default();
        writes.push(ff_isa::RegWrite { reg: dest, bits });
        (
            CqState::Executed {
                writes,
                ready_at,
                load: Some(LoadInfo { addr, size, risky, level }),
                store: None,
                branch: None,
            },
            false,
        )
    }
}

/// FNV-1a fingerprint of the B-visible architectural registers,
/// snapshotted between the B-step and the A-step of one cycle.
#[cfg(feature = "audit")]
fn audit_b_fingerprint(core: &Core<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &bits in core.arch.regs.iter() {
        h ^= bits;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// B-side scoreboard discipline: a deferred instruction executes only
/// once every source register's producer latency has elapsed (the
/// bundle dependence check must have stalled or split first).
#[cfg(feature = "audit")]
fn audit_deferred_sources(core: &Core<'_>, pc: usize) {
    for src in core.code.at(pc).srcs.iter() {
        let idx = src.index();
        assert!(
            core.arch.ready_at[idx] <= core.cycle,
            "audit: deferred pc {pc} reads {src} at cycle {} before its \
             producer (pc {}) completes at cycle {}",
            core.cycle,
            core.arch.pc[idx],
            core.arch.ready_at[idx]
        );
    }
}

/// Per-cycle invariant auditing (the `audit` cargo feature).
///
/// These checks assert the model's internal contracts every simulated
/// cycle and panic on the first violation. They cost real time and are
/// compiled out by default; `ff-verify --features audit` (or any build
/// with `ff-core/audit`) turns them on for every two-pass simulation.
#[cfg(feature = "audit")]
impl TwoPassPolicy {
    /// A-pipe isolation: the A-step must never update B-visible register
    /// state — A-pipe results reach the B-file only by merging through
    /// the coupling queue. (A-pipe stores are likewise confined to the
    /// speculative store buffer; memory is cross-checked end-to-end by
    /// `ff-verify`'s differential oracle rather than per cycle.)
    fn audit_a_isolation(&self, core: &Core<'_>, before: u64) {
        assert!(
            audit_b_fingerprint(core) == before,
            "audit: A-step mutated B-visible registers at cycle {}",
            core.cycle
        );
    }

    /// Coupling-queue FIFO discipline: sequence numbers strictly
    /// increase from head to tail (program order, no duplicates even
    /// across flushes) and enqueue cycles never decrease.
    fn audit_cq_discipline(&self, now: u64) {
        let mut prev: Option<(u64, u64)> = None;
        for e in self.cq.iter() {
            if let Some((seq, enq)) = prev {
                assert!(
                    e.seq > seq,
                    "audit: coupling queue out of order at cycle {now}: seq {} follows seq {seq}",
                    e.seq
                );
                assert!(
                    e.enq_cycle >= enq,
                    "audit: coupling queue enqueue cycles regress at cycle {now}: \
                     seq {} enqueued at {} after {enq}",
                    e.seq,
                    e.enq_cycle
                );
            }
            assert!(
                e.enq_cycle <= now,
                "audit: coupling queue entry seq {} enqueued in the future ({} > {now})",
                e.seq,
                e.enq_cycle,
            );
            prev = Some((e.seq, e.enq_cycle));
        }
    }
}

#[cfg(test)]
mod tests;
