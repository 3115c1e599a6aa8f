//! The baseline in-order EPIC pipeline (the paper's `base` machine).
//!
//! Issue-group-granularity stalls are the defining behaviour: if any
//! instruction in the group at the head of the fetch buffer has an
//! unready operand, the *whole group and everything behind it* waits —
//! the "artificial dependences" of the paper's Figure 1. Loads are
//! non-blocking (stall-on-use): a load's consumers, not the load itself,
//! expose its latency.
//!
//! Branch mispredictions resolve when the branch issues; the redirect
//! penalty (`frontend_depth + exec_to_det`) is charged as front-end dead
//! time. Wrong-path instructions therefore never corrupt architectural
//! state, and the final registers/memory match the golden interpreter
//! exactly — a property the test suite checks differentially.

use crate::accounting::{StallAttr, StallCause};
use crate::config::MachineConfig;
use crate::engine::{Core, Engine, Policy, Step};
use crate::report::{ModelKind, Pipe};
use crate::sink::SinkHandle;
use crate::trace::TraceEvent;
use ff_isa::{evaluate, Effect};

/// The baseline in-order pipeline simulator.
///
/// # Examples
///
/// ```
/// use ff_core::{Baseline, MachineConfig};
/// use ff_isa::{MemoryImage, ProgramBuilder};
/// use ff_isa::reg::IntReg;
///
/// let mut b = ProgramBuilder::new();
/// b.movi(IntReg::n(1), 5);
/// b.stop();
/// b.halt();
/// let program = b.build()?;
///
/// let sim = Baseline::new(&program, MemoryImage::new(), MachineConfig::paper_table1());
/// let report = sim.run(1_000);
/// assert_eq!(report.retired, 2);
/// assert!(report.cycles > 0);
/// # Ok::<(), ff_isa::BuildProgramError>(())
/// ```
pub type Baseline<'p> = Engine<'p, BaselinePolicy>;

/// The baseline issue stage: one pipe in which an instruction issues,
/// executes and retires in the same cycle.
#[derive(Debug, Default)]
pub struct BaselinePolicy;

impl BaselinePolicy {
    /// Classifies the issue group at the head of the fetch buffer as of
    /// cycle `at`: either the stall (with its fast-forward wake hint) or
    /// how many group members issue now. Side-effect free, so the audit
    /// probe re-runs it on a skipped cycle.
    fn classify(core: &Core<'_>, at: u64) -> Result<usize, Step> {
        let fe = &core.frontend;
        let Some(group_len) = fe.complete_group_len() else {
            return Err(core.frontend_stall(at));
        };

        // Dependence check over the whole architectural group: EPIC
        // stalls the group if *any* member is unready, even one that
        // would issue in a later split chunk. A destination still being
        // produced stalls too (EPIC WAW).
        for i in 0..group_len {
            let d = core.code.at(fe.peek(i).pc);
            for reg in d.srcs.iter().chain(d.dests.iter()) {
                let ready = core.arch.ready_at[reg.index()];
                if ready > at {
                    return Err((core.arch.block(reg.index()), Some(ready)));
                }
            }
        }

        // Structural: split oversubscribed groups; the prefix issues now.
        let n = core.fitting_prefix((0..group_len).map(|i| fe.peek(i).pc));

        // Conservative MSHR gate: a group containing a load needs room
        // for a possible fill.
        if let Some(i) = (0..n).find(|&i| core.code.at(fe.peek(i).pc).is_load) {
            if !core.mshrs.has_room(at) {
                let attr = StallAttr::at(StallCause::ResMshr, fe.peek(i).pc);
                return Err((attr, core.mshrs.next_wakeup(at)));
            }
        }
        Ok(n)
    }

    /// Issues the first `n` members of the head group in order.
    fn issue(core: &mut Core<'_>, n: usize, sink: &mut SinkHandle) {
        let head_seq = core.frontend.peek(0).seq;
        let mut issued = 0;
        let mut redirect: Option<(usize, u64)> = None;
        for i in 0..n {
            let f = *core.frontend.peek(i);
            core.retired += 1;
            issued += 1;
            // One pipe: fetch, dispatch, and retire are the same event here.
            sink.emit_with(|| TraceEvent::Fetch { cycle: core.cycle, seq: f.seq, pc: f.pc });
            sink.emit_with(|| TraceEvent::BRetire {
                cycle: core.cycle,
                seq: f.seq,
                pc: f.pc,
                was_deferred: false,
            });
            let d = core.code.at(f.pc);
            let (lat, cause, conditional) = (d.latency, d.dep_cause, d.insn.qp.is_some());
            match evaluate(&d.insn, &core.arch.regs) {
                Effect::Nullified | Effect::Nop => {}
                Effect::Write(writes) => {
                    for w in writes.iter() {
                        core.arch.write(w.reg, w.bits, core.cycle + lat, cause, f.pc);
                    }
                }
                Effect::Load { addr, size, signed, dest } => {
                    let (bits, done, level) = core.load(addr, size, signed, Pipe::B, sink);
                    core.arch.write(dest, bits, done, StallCause::load(level), f.pc);
                }
                Effect::Store { addr, size, bits } => core.store(addr, size, bits),
                Effect::Branch { taken, target } => {
                    // Unconditional branches: fetch already followed them.
                    let mispredicted = conditional && taken != f.predicted_taken;
                    if conditional {
                        core.retire_branch(f.pc, taken, mispredicted, Pipe::A);
                    }
                    if mispredicted {
                        let correct = if taken { target } else { f.pc + 1 };
                        redirect = Some((correct, core.cycle + core.cfg.adet_penalty()));
                        break; // younger same-group instructions squash
                    }
                    if taken {
                        break; // taken branch ends the group
                    }
                }
                Effect::Halt => {
                    core.halted = true;
                    break;
                }
            }
        }

        core.frontend.consume(issued);
        if issued > 0 {
            sink.emit_with(|| TraceEvent::GroupDispatch {
                cycle: core.cycle,
                pipe: Pipe::B,
                head_seq,
                len: issued as u32,
            });
        }
        if let Some((pc, at)) = redirect {
            sink.emit_with(|| TraceEvent::ARedirect { cycle: core.cycle, pc });
            core.frontend.redirect(pc, at);
        }
    }
}

impl Policy for BaselinePolicy {
    fn new(_cfg: &MachineConfig) -> Self {
        BaselinePolicy
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Baseline
    }

    fn step(&mut self, core: &mut Core<'_>, sink: &mut SinkHandle) -> Step {
        match Self::classify(core, core.cycle) {
            Ok(n) => {
                Self::issue(core, n, sink);
                (StallAttr::new(StallCause::Issue), None)
            }
            Err(stall) => stall,
        }
    }

    #[inline]
    fn drained(&self, core: &Core<'_>) -> bool {
        core.frontend.is_drained() && core.frontend.complete_group_len().is_none()
    }

    #[cfg(feature = "audit")]
    fn audit_span(&mut self, core: &mut Core<'_>, attr: StallAttr, target: u64) {
        let probed = Self::classify(core, target - 1).err().map(|(attr, _)| attr);
        assert_eq!(
            probed,
            Some(attr),
            "fast-forwarded span [{}, {target}) had an enabled event",
            core.cycle,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::CycleClass;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::{ArchState, CmpKind, MemoryImage, Program, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    fn cfg() -> MachineConfig {
        MachineConfig::paper_table1()
    }

    /// Pointer-chase loop: each load's address depends on the previous
    /// load's value — maximal exposure of memory latency.
    fn chase_program(len: i64) -> (Program, MemoryImage) {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x10000); // node pointer
        b.movi(r(2), 0);
        b.stop();
        let top = b.here();
        b.ld8(r(1), r(1), 0);
        b.stop();
        b.addi(r(2), r(2), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(2), len);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut mem = MemoryImage::new();
        // Chain nodes 4KB apart so each hop misses L1.
        for i in 0..len as u64 {
            mem.write_u64(0x10000 + i * 4096, 0x10000 + (i + 1) * 4096);
        }
        (program, mem)
    }

    #[test]
    fn matches_interpreter_on_loop() {
        let (program, mem) = chase_program(8);
        let mut interp = ArchState::new(&program, mem.clone());
        interp.run(1_000_000);

        let sim = Baseline::new(&program, mem, cfg());
        let (report, regs, sim_mem) = sim.run_with_state(1_000_000);
        assert_eq!(report.retired, interp.instr_count());
        assert_eq!(&regs, interp.reg_bits());
        assert_eq!(&sim_mem, interp.mem());
    }

    #[test]
    fn breakdown_sums_to_total_cycles() {
        let (program, mem) = chase_program(16);
        let report = Baseline::new(&program, mem, cfg()).run(1_000_000);
        assert_eq!(report.breakdown.total(), report.cycles);
        assert!(report.cycles > 0);
    }

    #[test]
    fn pointer_chase_is_load_stall_dominated() {
        let (program, mem) = chase_program(64);
        let report = Baseline::new(&program, mem, cfg()).run(1_000_000);
        assert!(
            report.breakdown.load_stalls() > report.cycles / 3,
            "dependent misses should dominate: {}",
            report.breakdown
        );
    }

    #[test]
    fn ipc_reasonable_on_independent_alu_loop() {
        // A loop so the I-cache warms up; body is 8 groups of 4
        // independent ALU ops plus the loop-control chain.
        let mut b = ProgramBuilder::new();
        b.movi(r(9), 0);
        b.stop();
        let top = b.here();
        for _ in 0..8 {
            b.addi(r(1), r(1), 1);
            b.addi(r(2), r(2), 1);
            b.addi(r(3), r(3), 1);
            b.addi(r(4), r(4), 1);
            b.stop();
        }
        b.addi(r(9), r(9), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(9), 64);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(100_000);
        assert!(report.ipc() > 2.0, "got ipc {}", report.ipc());
    }

    #[test]
    fn mispredicted_branches_charge_front_end_stalls() {
        // Data-dependent unpredictable branch pattern via xorshift bits.
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0x9E3779B97F4A7C15u64 as i64);
        b.movi(r(2), 0);
        b.stop();
        let top = b.here();
        // advance PRNG
        b.shli(r(3), r(1), 13);
        b.stop();
        b.xor(r(1), r(1), r(3));
        b.stop();
        b.shri(r(3), r(1), 7);
        b.stop();
        b.xor(r(1), r(1), r(3));
        b.stop();
        b.andi(r(4), r(1), 1);
        b.stop();
        b.cmpi(CmpKind::Eq, p(1), p(2), r(4), 1);
        b.stop();
        let skip = b.new_label();
        b.br_cond(p(1), skip);
        b.stop();
        b.addi(r(5), r(5), 1);
        b.stop();
        b.bind(skip);
        b.addi(r(2), r(2), 1);
        b.stop();
        b.cmpi(CmpKind::Lt, p(3), p(4), r(2), 200);
        b.stop();
        b.br_cond(p(3), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(1_000_000);
        assert!(report.branches.mispredicted > 20, "{:?}", report.branches);
        assert!(report.breakdown[CycleClass::FrontEndStall] > 0);
        // All baseline repairs happen at the (single) DET stage.
        assert_eq!(report.branches.repaired_in_a, report.branches.mispredicted);
    }

    #[test]
    fn run_traced_smoke() {
        let (program, mem) = chase_program(8);
        let plain = Baseline::new(&program, mem.clone(), cfg()).run(1_000_000);
        let (report, trace) = Baseline::new(&program, mem, cfg()).run_traced(1_000_000);
        assert_eq!(report.cycles, plain.cycles, "tracing must not perturb timing");
        let retires =
            trace.events().iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count()
                as u64;
        assert_eq!(retires, report.retired);
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::GroupDispatch { .. })));
        assert!(trace.events().iter().any(|e| matches!(e, TraceEvent::ClassTransition { .. })));
        assert!(
            trace.events().iter().any(|e| matches!(e, TraceEvent::MissBegin { .. }))
                && trace.events().iter().any(|e| matches!(e, TraceEvent::MissEnd { .. })),
            "a pointer chase must record cache misses"
        );
        // The baseline has no coupling queue: every sample reports depth 0.
        assert!(trace
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::QueueSample { depth, .. } if *depth != 0)));
    }

    #[test]
    fn halting_immediately_is_fine() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(10);
        assert_eq!(report.retired, 1);
    }

    #[test]
    fn instruction_budget_stops_run() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.addi(r(1), r(1), 1);
        b.stop();
        b.br(top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let report = Baseline::new(&program, MemoryImage::new(), cfg()).run(1000);
        assert!(report.retired >= 1000);
        assert!(report.retired < 1100);
    }
}
