//! Two-pass engine tests: differential correctness against the golden
//! interpreter, cycle-accounting invariants, and the paper's qualitative
//! behaviours (miss absorption, overlap, deferred-branch flushes,
//! store-conflict recovery).

use super::*;
use crate::accounting::{CycleBreakdown, CycleClass};
use crate::baseline::Baseline;
use crate::report::SimReport;
use crate::trace::{FlushKind, TraceEvent};
use ff_isa::reg::{FpReg, IntReg, PredReg};
use ff_isa::{ArchState, CmpKind, MemoryImage, Program, ProgramBuilder};

fn r(i: u8) -> IntReg {
    IntReg::n(i)
}

fn fr(i: u8) -> FpReg {
    FpReg::n(i)
}

fn p(i: u8) -> PredReg {
    PredReg::n(i)
}

fn cfg() -> MachineConfig {
    MachineConfig::paper_table1()
}

fn cfg_regroup() -> MachineConfig {
    let mut c = cfg();
    c.two_pass.regroup = true;
    c
}

/// Asserts two-pass final state matches the golden interpreter.
fn assert_matches_interpreter(program: &Program, mem: &MemoryImage, config: MachineConfig) {
    let mut interp = ArchState::new(program, mem.clone());
    interp.run(10_000_000);
    assert!(interp.is_halted(), "test programs must halt");

    let sim = TwoPass::new(program, mem.clone(), config);
    let (report, regs, sim_mem) = sim.run_with_state(10_000_000);
    assert_eq!(report.retired, interp.instr_count(), "retired count mismatch");
    for (i, &have) in regs.iter().enumerate() {
        assert_eq!(have, interp.reg_bits()[i], "register {} mismatch", RegId::from_index(i));
    }
    assert_eq!(&sim_mem, interp.mem(), "memory mismatch");
    assert_eq!(report.breakdown.total(), report.cycles, "cycle accounting must sum");
}

/// Pointer-chase program: `len` dependent loads, nodes one stride apart.
fn chase(len: i64, stride: u64) -> (Program, MemoryImage) {
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x100000);
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
    for i in 0..len as u64 {
        mem.write_u64(0x100000 + i * stride, 0x100000 + (i + 1) * stride);
    }
    (program, mem)
}

/// Independent streaming loads: `len` iterations, each loading from an
/// induction-variable address (no load→load dependence).
fn stream(len: i64, stride: u64) -> (Program, MemoryImage) {
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x200000);
    b.movi(r(2), 0);
    b.movi(r(3), 0);
    b.stop();
    let top = b.here();
    b.ld8(r(4), r(1), 0);
    b.addi(r(2), r(2), 1);
    b.stop();
    b.addi(r(1), r(1), stride as i64);
    b.stop();
    b.add(r(3), r(3), r(4));
    b.cmpi(CmpKind::Lt, p(1), p(2), r(2), len);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    for i in 0..len as u64 {
        mem.write_u64(0x200000 + i * stride, i + 1);
    }
    (program, mem)
}

/// A program engineered to hit a store conflict: a store whose data
/// depends on a missing load defers; a younger load to the same address
/// pre-executes in the A-pipe and reads stale memory.
fn store_conflict_program() -> (Program, MemoryImage) {
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x300000); // miss address
    b.movi(r(3), 0x400000); // conflict address
    b.stop();
    b.ld8(r(2), r(1), 0); // misses to memory
    b.stop();
    b.st8(r(2), r(3), 0); // data not ready -> deferred
    b.stop();
    b.ld8(r(4), r(3), 0); // address ready -> pre-executes, stale!
    b.stop();
    b.addi(r(5), r(4), 7); // consumer of the stale value
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    mem.write_u64(0x300000, 1234);
    mem.write_u64(0x400000, 999); // stale value the A-pipe will read
    (program, mem)
}

// ---- differential correctness -----------------------------------------

#[test]
fn matches_interpreter_on_pointer_chase() {
    let (program, mem) = chase(32, 4096);
    assert_matches_interpreter(&program, &mem, cfg());
    assert_matches_interpreter(&program, &mem, cfg_regroup());
}

#[test]
fn matches_interpreter_on_streaming_loads() {
    let (program, mem) = stream(64, 4096);
    assert_matches_interpreter(&program, &mem, cfg());
    assert_matches_interpreter(&program, &mem, cfg_regroup());
}

#[test]
fn matches_interpreter_on_store_conflict() {
    let (program, mem) = store_conflict_program();
    let mut interp = ArchState::new(&program, mem.clone());
    interp.run(1_000);

    let sim = TwoPass::new(&program, mem.clone(), cfg());
    let (report, regs, _) = sim.run_with_state(1_000);
    let tp = report.two_pass.unwrap();
    assert!(tp.store_conflict_flushes >= 1, "conflict must be detected: {tp:?}");
    // r4 must hold the stored value (1234), not the stale 999.
    assert_eq!(regs[RegId::Int(r(4)).index()], 1234);
    assert_eq!(regs[RegId::Int(r(5)).index()], 1241);
    for (i, &have) in regs.iter().enumerate() {
        assert_eq!(have, interp.reg_bits()[i], "reg {}", RegId::from_index(i));
    }
}

#[test]
fn matches_interpreter_with_unpredictable_branches() {
    // Data-dependent branches from a PRNG; exercises deferred-branch
    // resolution in the B-pipe when the condition depends on a missing
    // load.
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x500000);
    b.movi(r(2), 0);
    b.movi(r(5), 0);
    b.stop();
    let top = b.here();
    b.ld8(r(3), r(1), 0); // miss: next-node pointer
    b.stop();
    b.ld8(r(4), r(1), 8); // miss: data value deciding the branch
    b.stop();
    b.mov(r(1), r(3));
    b.stop();
    b.andi(r(6), r(4), 1);
    b.stop();
    b.cmpi(CmpKind::Eq, p(1), p(2), r(6), 1); // depends on missing load
    b.stop();
    let skip = b.new_label();
    b.br_cond(p(1), skip); // deferred, possibly mispredicted
    b.stop();
    b.addi(r(5), r(5), 3);
    b.stop();
    b.bind(skip);
    b.addi(r(2), r(2), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(3), p(4), r(2), 48);
    b.stop();
    b.br_cond(p(3), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();

    let mut mem = MemoryImage::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    for i in 0..48u64 {
        mem.write_u64(0x500000 + i * 4096, 0x500000 + (i + 1) * 4096);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(0x500000 + i * 4096 + 8, x);
    }
    assert_matches_interpreter(&program, &mem, cfg());
    assert_matches_interpreter(&program, &mem, cfg_regroup());

    // And the machine must actually have repaired mispredictions in B.
    let report = TwoPass::new(&program, mem, cfg()).run(1_000_000);
    assert!(report.branches.repaired_in_b > 0, "{:?}", report.branches);
}

#[test]
fn matches_interpreter_with_predication_and_fp() {
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x600000);
    b.movi(r(2), 0);
    b.fmovi(fr(1), 0.0);
    b.stop();
    let top = b.here();
    b.ldf(fr(2), r(1), 0);
    b.stop();
    b.addi(r(1), r(1), 8);
    b.stop();
    b.fcmp(CmpKind::Lt, p(1), p(2), fr(2), fr(1));
    b.stop();
    // Predicated accumulate on both sides.
    b.with_pred(p(1));
    b.fsub(fr(1), fr(1), fr(2));
    b.with_pred(p(2));
    b.fadd(fr(1), fr(1), fr(2));
    b.stop();
    b.addi(r(2), r(2), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(3), p(4), r(2), 32);
    b.stop();
    b.br_cond(p(3), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    for i in 0..32 {
        mem.write_f64(0x600000 + i * 8, (i as f64) - 16.0);
    }
    assert_matches_interpreter(&program, &mem, cfg());
}

#[test]
fn matches_interpreter_with_store_buffer_forwarding() {
    // Store then load the same address within the A-pipe window. A
    // leading main-memory miss dangles at the head of the B-pipe, so the
    // store is still speculative (un-merged) when the load pre-executes —
    // forcing a store-buffer forward.
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x700000);
    b.movi(r(2), 77);
    b.movi(r(8), 0x780000);
    b.stop();
    b.ld8(r(9), r(8), 0); // cold miss: dangles ~145 cycles in B
    b.stop();
    b.st8(r(2), r(1), 0);
    b.stop();
    b.ld8(r(3), r(1), 0); // must forward 77 from the store buffer
    b.stop();
    b.addi(r(4), r(3), 1);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mem = MemoryImage::new();
    assert_matches_interpreter(&program, &mem, cfg());

    let (report, trace) = TwoPass::new(&program, MemoryImage::new(), cfg()).run_traced(1_000);
    assert_eq!(report.two_pass.unwrap().store_conflict_flushes, 0);
    // The load (pc 5) pre-executes at L1 speed although its line is
    // cold: the store buffer, not the hierarchy, supplied the value.
    let l1 = cfg().hierarchy.l1_latency;
    let pre_executed = trace.events().iter().any(|e| {
        matches!(*e, TraceEvent::AExec { cycle, pc: 5, ready_at, .. } if ready_at == cycle + l1)
    });
    assert!(pre_executed, "the load was not forwarded in the A-pipe");
    let a_miss = trace
        .events()
        .iter()
        .any(|e| matches!(*e, TraceEvent::MissBegin { pipe: Pipe::A, addr: 0x700000, .. }));
    assert!(!a_miss, "a forwarded load books no fill");
}

/// Runs `program` on 2P, checks it against the interpreter, and returns
/// the report plus the pcs of the pre-executed (buffered) stores that a
/// `kind` flush squashed.
fn squashed_buffered_stores(
    program: &Program,
    mem: &MemoryImage,
    config: MachineConfig,
    kind: FlushKind,
) -> (SimReport, Vec<usize>) {
    assert_matches_interpreter(program, mem, config.clone());
    let (report, trace) = TwoPass::new(program, mem.clone(), config).run_traced(10_000);
    let mut buffered = std::collections::HashSet::new();
    let mut squashed = Vec::new();
    let mut in_flush = false;
    for e in trace.events() {
        match *e {
            TraceEvent::AExec { seq, pc, .. } if program.get(pc).unwrap().op.is_store() => {
                buffered.insert(seq);
            }
            TraceEvent::Flush { kind: k, .. } => in_flush = k == kind,
            TraceEvent::Squash { seq, pc, .. } if in_flush && buffered.contains(&seq) => {
                squashed.push(pc);
            }
            TraceEvent::Squash { .. } => {}
            _ => in_flush = false,
        }
    }
    (report, squashed)
}

#[test]
fn buffered_stores_merge_across_store_conflict_and_bdet_flushes() {
    // Store-conflict flush: a store older than the conflicting load
    // merges before it; one younger is buffered, squashed with the
    // flush, buffered again on the refetched path and merges from there.
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x300000); // miss address
    b.movi(r(3), 0x400000); // conflict address
    b.movi(r(6), 0x500000); // buffered-store area
    b.movi(r(7), 55);
    b.stop();
    b.st8(r(7), r(6), 0); // pre-executed, older than the flush
    b.stop();
    b.ld8(r(2), r(1), 0); // misses to memory
    b.stop();
    b.st8(r(2), r(3), 0); // data not ready -> deferred
    b.stop();
    b.ld8(r(4), r(3), 0); // pre-executes stale -> store-conflict flush
    b.stop();
    b.st8(r(7), r(6), 8); // pre-executed, younger: squashed, then again
    b.stop();
    b.addi(r(5), r(4), 7);
    b.stop();
    b.st8(r(5), r(6), 16);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    mem.write_u64(0x300000, 1234);
    mem.write_u64(0x400000, 999);
    let (report, squashed) =
        squashed_buffered_stores(&program, &mem, cfg(), FlushKind::StoreConflict);
    let tp = report.two_pass.unwrap();
    assert_eq!(tp.store_conflict_flushes, 1, "{tp:?}");
    assert_eq!(squashed, vec![8], "the younger buffered store is squashed");
    assert_eq!(tp.stores_retired, 4, "each store commits exactly once");

    // B-DET flush: a deferred branch, predicted not taken, is taken. The
    // wrong path falls through both stores after the branch, buffering
    // and then losing them; the store at the target is buffered again
    // after the redirect and, like the one before the branch, merges
    // from the buffer.
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x300000);
    b.movi(r(6), 0x500000);
    b.movi(r(7), 11);
    b.stop();
    b.st8(r(7), r(6), 0); // pre-executed, older than the branch
    b.stop();
    b.ld8(r(4), r(1), 0); // misses: the branch condition waits on it
    b.stop();
    b.cmpi(CmpKind::Eq, p(1), p(2), r(4), 1);
    b.stop();
    let target = b.new_label();
    b.br_cond(p(1), target); // deferred; taken, predicted not taken
    b.stop();
    b.st8(r(7), r(6), 8); // wrong path: buffered, then squashed
    b.stop();
    b.bind(target);
    b.addi(r(8), r(7), 1);
    b.stop();
    b.st8(r(8), r(6), 16); // on both paths: squashed, then buffered again
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    mem.write_u64(0x300000, 1);
    let mut config = cfg();
    config.predictor = ff_predict::PredictorConfig::StaticNotTaken;
    let (report, squashed) =
        squashed_buffered_stores(&program, &mem, config, FlushKind::BdetMispredict);
    let tp = report.two_pass.unwrap();
    assert_eq!(report.branches.repaired_in_b, 1, "{:?}", report.branches);
    assert_eq!(squashed, vec![7, 9], "the wrong-path buffered stores are squashed");
    assert_eq!(tp.stores_retired, 2, "only the correct-path stores commit");
}

// ---- qualitative paper behaviours --------------------------------------

#[test]
fn two_pass_overlaps_independent_misses() {
    // Streaming misses: the baseline serializes stall-on-use pairs; the
    // two-pass machine defers consumers and overlaps the misses.
    let (program, mem) = stream(256, 4096);
    let base = Baseline::new(&program, mem.clone(), cfg()).run(10_000_000);
    let tp = TwoPass::new(&program, mem, cfg()).run(10_000_000);
    assert!(
        (tp.cycles as f64) < 0.8 * base.cycles as f64,
        "two-pass should absorb independent misses: base={} 2p={}",
        base.cycles,
        tp.cycles
    );
    assert!(tp.breakdown.load_stalls() < base.breakdown.load_stalls());
}

#[test]
fn a_pipe_initiates_most_loads_on_streams() {
    let (program, mem) = stream(256, 4096);
    let report = TwoPass::new(&program, mem, cfg()).run(10_000_000);
    let a = report.mem.loads_in(Pipe::A);
    let b = report.mem.loads_in(Pipe::B);
    assert!(a > 3 * b, "most loads should start in the A-pipe: A={a} B={b}");
}

#[test]
fn dependent_chase_defers_loads_to_b() {
    // In a pointer chase every load's address depends on the previous
    // miss, so loads cannot pre-execute: they go to the B-pipe.
    let (program, mem) = chase(64, 4096);
    let report = TwoPass::new(&program, mem, cfg()).run(10_000_000);
    let tp = report.two_pass.unwrap();
    assert!(tp.deferred > 0);
    assert!(
        report.mem.loads_in(Pipe::B) > report.mem.loads_in(Pipe::A),
        "chase loads should execute in B: {:?}",
        report.mem
    );
}

#[test]
fn queue_occupancy_stays_within_capacity() {
    let (program, mem) = stream(128, 4096);
    let report = TwoPass::new(&program, mem, cfg()).run(10_000_000);
    let tp = report.two_pass.unwrap();
    let avg = tp.queue_occupancy_sum as f64 / report.cycles as f64;
    assert!(avg <= 64.0, "avg occupancy {avg}");
}

#[test]
fn regrouping_merges_groups_and_does_not_slow_down() {
    let (program, mem) = stream(128, 4096);
    let plain = TwoPass::new(&program, mem.clone(), cfg()).run(10_000_000);
    let re = TwoPass::new(&program, mem, cfg_regroup()).run(10_000_000);
    assert_eq!(re.model, ModelKind::TwoPassRegroup);
    let tp = re.two_pass.unwrap();
    assert!(tp.regroup_merges > 0, "regrouper should fire");
    assert!(re.cycles <= plain.cycles + plain.cycles / 10);
}

#[test]
fn infinite_feedback_latency_increases_deferrals() {
    // A loop-invariant value produced by a *deferred* instruction and
    // read every iteration thereafter: with feedback the A-file heals
    // after the B-pipe commits the producer; without it every consumer
    // defers forever.
    let mut b = ProgramBuilder::new();
    b.movi(r(8), 0xA00000);
    b.movi(r(2), 0);
    b.stop();
    b.ld8(r(9), r(8), 0); // cold miss, executes in A, dangling
    b.stop();
    b.add(r(10), r(9), r(8)); // r9 in flight -> deferred -> r10 invalid
    b.stop();
    let top = b.here();
    b.xor(r(11), r(10), r(2)); // reads the invariant r10
    b.stop();
    b.addi(r(2), r(2), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), r(2), 400);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    mem.write_u64(0xA00000, 5);

    let finite = TwoPass::new(&program, mem.clone(), cfg()).run(10_000_000);
    let mut inf_cfg = cfg();
    inf_cfg.two_pass.feedback_latency = FeedbackLatency::Infinite;
    let infinite = TwoPass::new(&program, mem, inf_cfg).run(10_000_000);
    let f = finite.two_pass.unwrap();
    let i = infinite.two_pass.unwrap();
    assert!(
        i.deferred > f.deferred,
        "without feedback more instructions defer: finite={} inf={}",
        f.deferred,
        i.deferred
    );
    assert_eq!(i.feedback_applied, 0);
}

#[test]
fn stall_on_fp_option_reduces_fp_deferrals() {
    // FP chain: each fadd depends on the previous through a 4-cycle
    // latency, which the unmodified A-pipe defers wholesale.
    let mut b = ProgramBuilder::new();
    b.movi(r(2), 0);
    b.fmovi(fr(1), 1.0);
    b.fmovi(fr(2), 0.5);
    b.stop();
    let top = b.here();
    b.fadd(fr(1), fr(1), fr(2));
    b.stop();
    b.fmul(fr(1), fr(1), fr(2));
    b.stop();
    b.addi(r(2), r(2), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), r(2), 64);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();

    let plain = TwoPass::new(&program, MemoryImage::new(), cfg()).run(1_000_000);
    let mut stall_cfg = cfg();
    stall_cfg.two_pass.stall_on_anticipable_fp = true;
    let stalling = TwoPass::new(&program, MemoryImage::new(), stall_cfg.clone()).run(1_000_000);

    let p_tp = plain.two_pass.unwrap();
    let s_tp = stalling.two_pass.unwrap();
    assert!(
        s_tp.fp_deferred < p_tp.fp_deferred,
        "stall-on-fp should cut FP deferrals: plain={} stalling={}",
        p_tp.fp_deferred,
        s_tp.fp_deferred
    );
    // And the architectural result must be identical.
    assert_matches_interpreter(&program, &MemoryImage::new(), stall_cfg);
}

#[test]
fn feedback_updates_apply_and_match_dyn_ids() {
    let (program, mem) = chase(32, 4096);
    let report = TwoPass::new(&program, mem, cfg()).run(10_000_000);
    let tp = report.two_pass.unwrap();
    assert!(tp.feedback_applied > 0, "{tp:?}");
}

#[test]
fn a_pipe_stall_class_appears_when_b_catches_up() {
    // Straight-line ALU code drains the queue as fast as A fills it, so
    // B regularly waits on the one-cycle-ahead rule.
    let mut b = ProgramBuilder::new();
    b.movi(r(9), 0);
    b.stop();
    let top = b.here();
    for _ in 0..4 {
        b.addi(r(1), r(1), 1);
        b.stop();
    }
    b.addi(r(9), r(9), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), r(9), 32);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let report = TwoPass::new(&program, MemoryImage::new(), cfg()).run(1_000_000);
    assert!(report.breakdown[CycleClass::APipeStall] > 0, "{}", report.breakdown);
}

#[test]
fn risky_loads_are_mostly_clean_in_conflict_free_code() {
    // Deferred stores to one region, pre-executed loads from another.
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0x800000); // load region
    b.movi(r(3), 0x900000); // store region
    b.movi(r(2), 0);
    b.stop();
    let top = b.here();
    b.ld8(r(4), r(1), 0); // miss -> r4 pending
    b.stop();
    b.st8(r(4), r(3), 0); // data dep -> deferred store
    b.stop();
    b.ld8(r(5), r(1), 8); // pre-executes past the deferred store: risky
    b.stop();
    b.addi(r(1), r(1), 4096);
    b.addi(r(3), r(3), 64);
    b.stop();
    b.addi(r(2), r(2), 1);
    b.stop();
    b.cmpi(CmpKind::Lt, p(1), p(2), r(2), 32);
    b.stop();
    b.br_cond(p(1), top);
    b.stop();
    b.halt();
    let program = b.build().unwrap();
    let mut mem = MemoryImage::new();
    for i in 0..33u64 {
        mem.write_u64(0x800000 + i * 4096, i);
        mem.write_u64(0x800000 + i * 4096 + 8, i * 2);
    }
    assert_matches_interpreter(&program, &mem, cfg());
    let report = TwoPass::new(&program, mem, cfg()).run(1_000_000);
    let tp = report.two_pass.unwrap();
    assert!(tp.loads_past_deferred_store > 0);
    assert!(tp.risky_load_clean_fraction() > 0.9, "{tp:?}");
}

#[test]
fn throttle_engages_on_deferral_heavy_code_and_stays_correct() {
    // A pure dependent chase defers nearly everything: the §3.5 throttle
    // must engage, and architectural results must be unaffected.
    let (program, mem) = chase(48, 4096);
    let mut cfg = crate::config::MachineConfig::paper_table1();
    cfg.two_pass.throttle = Some(crate::config::ThrottleConfig {
        window: 16,
        defer_threshold: 0.2,
        resume_occupancy: 4,
    });
    assert_matches_interpreter(&program, &mem, cfg.clone());
    let report = TwoPass::new(&program, mem, cfg).run(1_000_000);
    let tp = report.two_pass.unwrap();
    assert!(tp.throttled_cycles > 0, "throttle should engage on a chase: {tp:?}");
}

#[test]
fn throttle_does_not_fire_on_pre_executable_code() {
    let (program, mem) = stream(64, 4096);
    let mut cfg = crate::config::MachineConfig::paper_table1();
    cfg.two_pass.throttle = Some(crate::config::ThrottleConfig::default());
    let report = TwoPass::new(&program, mem, cfg).run(1_000_000);
    let tp = report.two_pass.unwrap();
    assert_eq!(tp.throttled_cycles, 0, "streams execute in A; no throttling: {tp:?}");
}

#[test]
fn throttle_limits_queue_occupancy() {
    let (program, mem) = chase(64, 4096);
    let plain = TwoPass::new(&program, mem.clone(), cfg()).run(1_000_000);
    let mut t_cfg = cfg();
    t_cfg.two_pass.throttle = Some(crate::config::ThrottleConfig {
        window: 16,
        defer_threshold: 0.2,
        resume_occupancy: 4,
    });
    let throttled = TwoPass::new(&program, mem, t_cfg).run(1_000_000);
    let p_occ = plain.two_pass.unwrap().queue_occupancy_sum as f64 / plain.cycles as f64;
    let t_occ = throttled.two_pass.unwrap().queue_occupancy_sum as f64 / throttled.cycles as f64;
    assert!(
        t_occ < p_occ,
        "throttling should shrink average queue occupancy: {t_occ:.1} vs {p_occ:.1}"
    );
}

#[test]
fn run_traced_records_the_instruction_lifecycle() {
    let (program, mem) = stream(16, 4096);
    let (report, trace) = TwoPass::new(&program, mem, cfg()).run_traced(10_000);
    assert!(!trace.is_empty());
    // Every retired instruction has a BRetire event.
    let retires = trace
        .events()
        .iter()
        .filter(|e| matches!(e, crate::trace::TraceEvent::BRetire { .. }))
        .count() as u64;
    assert_eq!(retires, report.retired);
}

#[test]
fn traced_and_untraced_runs_are_cycle_identical() {
    let (program, mem) = chase(24, 4096);
    let plain = TwoPass::new(&program, mem.clone(), cfg()).run(100_000);
    let (traced, trace) = TwoPass::new(&program, mem, cfg()).run_traced(100_000);
    assert_eq!(plain.cycles, traced.cycles, "tracing must not perturb timing");
    assert_eq!(plain.retired, traced.retired);
    assert!(trace.len() as u64 >= 2 * traced.retired, "dispatch+retire per instruction");
}

#[test]
fn class_transitions_reconstruct_the_cycle_breakdown() {
    use crate::trace::TraceEvent;
    // A real kernel with misses and branches exercises several classes.
    let (program, mem) = chase(32, 4096);
    let (report, trace) = TwoPass::new(&program, mem, cfg()).run_traced(100_000);

    // Replay the transitions: each one charges its `to` class from its
    // cycle until the next transition (or the end of the run).
    let transitions: Vec<(u64, CycleClass)> = trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::ClassTransition { cycle, to, .. } => Some((cycle, to)),
            _ => None,
        })
        .collect();
    assert!(transitions.len() > 1, "a chase must switch classes at least once");
    assert_eq!(transitions[0].0, 0, "the first transition opens at cycle 0");
    let mut rebuilt = CycleBreakdown::new();
    for (i, &(cycle, class)) in transitions.iter().enumerate() {
        let end = transitions.get(i + 1).map_or(report.cycles, |&(c, _)| c);
        rebuilt.charge_n(class, end - cycle);
    }
    assert_eq!(rebuilt, report.breakdown, "transitions must tile the whole run");
}

#[test]
fn queue_samples_and_dequeues_match_the_report() {
    let (program, mem) = stream(32, 4096);
    let (report, trace) = TwoPass::new(&program, mem, cfg()).run_traced(100_000);
    let tp = report.two_pass.unwrap();
    let (mut samples, mut depth_sum, mut dequeues) = (0, 0, 0);
    for e in trace.events() {
        match *e {
            TraceEvent::QueueSample { depth, .. } => {
                samples += 1;
                depth_sum += u64::from(depth);
            }
            TraceEvent::CqDequeue { .. } => dequeues += 1,
            _ => {}
        }
    }
    // One depth sample per cycle, summing to the occupancy counter, and
    // one dequeue (slip sample) per retired instruction.
    assert_eq!(samples, report.cycles);
    assert_eq!(depth_sum, tp.queue_occupancy_sum);
    assert_eq!(dequeues, report.retired);
}

#[test]
fn ring_and_jsonl_sinks_capture_a_real_run() {
    use crate::sink::{parse_jsonl_line, JsonlSink, RingSink};
    let (program, mem) = stream(16, 4096);
    let mut ring = RingSink::new(64);
    let report = TwoPass::new(&program, mem.clone(), cfg()).run_with_sink(10_000, &mut ring);
    assert!(report.retired > 0);
    assert_eq!(ring.len(), 64, "a real run overflows a small ring");
    assert!(ring.dropped() > 0);

    let mut jsonl = JsonlSink::new(Vec::new());
    let report2 = TwoPass::new(&program, mem, cfg()).run_with_sink(10_000, &mut jsonl);
    assert_eq!(report2.cycles, report.cycles, "sink choice must not affect timing");
    let written = jsonl.written();
    let bytes = jsonl.into_inner().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(text.lines().count() as u64, written);
    for line in text.lines() {
        parse_jsonl_line(line).expect("every emitted line parses back");
    }
}
