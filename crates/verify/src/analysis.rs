//! Static performance analysis: cycle lower bounds, per-instruction
//! slack, and the static critical path.
//!
//! Two complementary views of the same latency-weighted dependence
//! structure:
//!
//! * [`cycle_bounds`] replays the golden interpreter's dynamic
//!   instruction stream and computes *sound* cycle lower bounds for
//!   every pipeline model: the dependence-height bound (longest
//!   register-dependence chain, weighted by producer latencies under an
//!   all-hit load assumption) and the resource bound (per-[`FuClass`]
//!   slot pressure and issue-width pressure under the Table-1 slot
//!   mix). No model of this machine can finish faster — loads never
//!   complete below the L1 latency (MSHR merges are clamped), dependent
//!   groups never issue in the same cycle, and every dynamic
//!   instruction occupies an issue slot. The all-*miss* dependence
//!   height is also reported as the opposite extreme (it bounds a
//!   machine whose every access goes to memory, not this one).
//! * [`ScheduleGraph`] is the *static* schedule view over the program
//!   text: a group-level linear-region dependence graph giving each
//!   instruction an earliest and latest start cycle, per-instruction
//!   slack, and the binding critical path — the substrate for the
//!   schedule-quality lints ([`Check::LoadUse`],
//!   [`Check::ChainOpportunity`]) and for `ff_verify slack`/`explain`.
//!
//! The dynamic bounds are theorems about the machine; the static graph
//! is a scheduler's-eye heuristic (straight-line, register deps only,
//! no memory edges) and is deliberately *not* claimed as a bound.

use crate::diag::{AnalysisReport, Check, Diagnostic};
use ff_core::{run_model, MachineConfig, ModelKind, OpLatencies};
use ff_isa::{ArchState, FuClass, Instruction, MemoryImage, Program, RegId, TOTAL_REGS};
use serde::Serialize;

/// Minimum length (in linked operations) at which a serial single-cycle
/// same-FU-class dependence chain is reported as a chaining/fusion
/// opportunity. Chosen above the longest chain any Table 2 kernel
/// carries (the compress-like mixing sequence), so the paper suite
/// stays `--strict`-clean while hand-written pathologies fire.
pub const CHAIN_LINT_MIN_LEN: usize = 8;

/// A fixed latency assignment: the machine's [`OpLatencies`] plus one
/// assumed load latency (the hierarchy normally decides per access).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    lat: OpLatencies,
    load: u64,
}

impl LatencyModel {
    /// Every load hits L1. A *lower-bound* assumption for this machine:
    /// no load completes faster (MSHR merges clamp to the requester's
    /// own hierarchy latency).
    #[must_use]
    pub fn all_hit(cfg: &MachineConfig) -> Self {
        LatencyModel { lat: cfg.latencies, load: cfg.all_hit_load_latency() }
    }

    /// Every load goes to main memory — the opposite extreme, bounding
    /// an all-miss machine rather than this one.
    #[must_use]
    pub fn all_miss(cfg: &MachineConfig) -> Self {
        LatencyModel { lat: cfg.latencies, load: cfg.all_miss_load_latency() }
    }

    /// The assumed load latency.
    #[must_use]
    pub fn load_latency(&self) -> u64 {
        self.load
    }

    /// Latency of one instruction under this model.
    #[must_use]
    pub fn insn_latency(&self, insn: &Instruction) -> u64 {
        self.lat.for_class(insn.op.latency_class(), self.load)
    }
}

/// Static cycle lower bounds for one (program, memory) pair, computed
/// from the golden interpreter's dynamic instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CycleBounds {
    /// Dynamic instructions executed (including nullified ones and
    /// `halt`) — identical to every model's retired count.
    pub retired: u64,
    /// Whether the program halted within the replay budget. Bounds for
    /// a non-halting replay cover only the executed prefix.
    pub halted: bool,
    /// Longest latency-weighted register-dependence chain under the
    /// all-hit load assumption: no model finishes in fewer cycles.
    pub dep_height_all_hit: u64,
    /// The same chain height when every load pays the full memory
    /// latency (bounds an all-miss machine, not this one).
    pub dep_height_all_miss: u64,
    /// `ceil(retired / issue_width)`: every dynamic instruction —
    /// nullified or not — occupies an issue slot.
    pub width_bound: u64,
    /// Per-class `ceil(count / slots)` in [`FuClass::index`] order.
    pub fu_bounds: [u64; 4],
    /// Dynamic instruction counts per [`FuClass`], same order.
    pub class_counts: [u64; 4],
}

impl CycleBounds {
    /// The resource bound: issue-width pressure or the most contended
    /// functional-unit class, whichever is worse.
    #[must_use]
    pub fn resource_bound(&self) -> u64 {
        let fu = self.fu_bounds.iter().copied().max().unwrap_or(0);
        self.width_bound.max(fu)
    }

    /// The combined lower bound: dependence height (all-hit) or
    /// resource pressure, whichever is larger. Sound for every model:
    /// `lower_bound() <= measured cycles`.
    #[must_use]
    pub fn lower_bound(&self) -> u64 {
        self.dep_height_all_hit.max(self.resource_bound())
    }
}

/// What the bounds must stay below: the measured cycle count of every
/// pipeline model on `program` (each run for at most `budget`
/// instructions), labelled `Base`, `2P`, `2Pre` and `Ra`.
#[must_use]
pub fn measured_cycles(
    program: &Program,
    mem: &MemoryImage,
    cfg: &MachineConfig,
    budget: u64,
) -> Vec<(&'static str, u64)> {
    let run = |kind| run_model(kind, program, mem.clone(), cfg.clone(), budget, None).0.cycles;
    ["Base", "2P", "2Pre", "Ra"].into_iter().zip(ModelKind::ALL.map(run)).collect()
}

/// The [`CycleBounds`] of a run of at most `budget` instructions beside
/// its [`measured_cycles`]. The interpreter replays up to
/// `budget × issue_width` instructions, so the replay always covers
/// the full stream the models retire.
#[must_use]
pub fn bounds_vs_measured(
    program: &Program,
    mem: &MemoryImage,
    cfg: &MachineConfig,
    budget: u64,
) -> (CycleBounds, Vec<(&'static str, u64)>) {
    let replay = budget.saturating_mul(cfg.issue_width.max(1) as u64);
    (cycle_bounds(program, mem, cfg, replay), measured_cycles(program, mem, cfg, budget))
}

/// Replays `program` on the golden interpreter (up to `budget` dynamic
/// instructions) and computes [`CycleBounds`].
///
/// The dependence height is the longest chain of *issue* times: each
/// executed instruction starts no earlier than every source's
/// definition time (producer start + producer latency), nullified
/// instructions wait only for their qualifying predicate, and the
/// height counts `max(start) + 1` — the machine must be live in the
/// cycle the last instruction issues, but need not wait for a trailing
/// unconsumed result to complete.
#[must_use]
pub fn cycle_bounds(
    program: &Program,
    mem: &MemoryImage,
    cfg: &MachineConfig,
    budget: u64,
) -> CycleBounds {
    let hit = LatencyModel::all_hit(cfg);
    let miss = LatencyModel::all_miss(cfg);
    let lat_hit: Vec<u64> = program.iter().map(|i| hit.insn_latency(i)).collect();
    let lat_miss: Vec<u64> = program.iter().map(|i| miss.insn_latency(i)).collect();
    let facts: Vec<_> = program.iter().map(Instruction::facts).collect();

    let mut def_hit = vec![0u64; TOTAL_REGS];
    let mut def_miss = vec![0u64; TOTAL_REGS];
    let mut height_hit = 0u64;
    let mut height_miss = 0u64;
    let mut class_counts = [0u64; 4];

    let mut st = ArchState::new(program, mem.clone());
    while !st.is_halted() && st.instr_count() < budget {
        let pc = st.pc();
        let f = &facts[pc];
        let insn = program.get(pc).expect("validated program pc in range");
        let nullified = insn.qp.is_some_and(|q| !st.pred(q));

        let (start_hit, start_miss) = if nullified {
            let q = RegId::Pred(insn.qp.expect("nullified implies a qp")).index();
            (def_hit[q], def_miss[q])
        } else {
            let mut h = 0u64;
            let mut m = 0u64;
            for s in f.srcs.iter() {
                h = h.max(def_hit[s.index()]);
                m = m.max(def_miss[s.index()]);
            }
            (h, m)
        };
        height_hit = height_hit.max(start_hit + 1);
        height_miss = height_miss.max(start_miss + 1);
        if !nullified {
            for d in f.dests.iter() {
                def_hit[d.index()] = start_hit + lat_hit[pc];
                def_miss[d.index()] = start_miss + lat_miss[pc];
            }
        }
        class_counts[f.fu.index()] += 1;

        if !st.step() {
            break;
        }
    }

    let retired = st.instr_count();
    let width = cfg.issue_width.max(1) as u64;
    let slots = [
        cfg.fu_slots.alu.max(1),
        cfg.fu_slots.mem.max(1),
        cfg.fu_slots.fp.max(1),
        cfg.fu_slots.branch.max(1),
    ];
    let mut fu_bounds = [0u64; 4];
    for i in 0..4 {
        fu_bounds[i] = class_counts[i].div_ceil(slots[i] as u64);
    }
    CycleBounds {
        retired,
        halted: st.is_halted(),
        dep_height_all_hit: if retired == 0 { 0 } else { height_hit },
        dep_height_all_miss: if retired == 0 { 0 } else { height_miss },
        width_bound: retired.div_ceil(width),
        fu_bounds,
        class_counts,
    }
}

/// One register dependence in the static schedule graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer pc (the last writer of the register in program order).
    pub producer: usize,
    /// Consumer pc.
    pub consumer: usize,
    /// Producer latency under the all-hit model.
    pub latency: u64,
}

/// One instruction on the static critical path, with its earliest
/// start cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CriticalStep {
    /// Static instruction index.
    pub pc: usize,
    /// Earliest start cycle of its issue group.
    pub start: u64,
}

/// A group-level, latency-weighted static dependence graph over the
/// program *text*: straight-line (last-writer-in-program-order edges,
/// no back edges, no memory edges), all-hit load latencies.
///
/// Forward propagation gives each issue group an earliest start cycle
/// `E(g)` (groups issue in order, at most one per cycle, consumers
/// after producer latency); backward propagation gives a latest start
/// `L(g)` that would not lengthen the schedule. `L − E` is slack. This
/// is the scheduler's-eye view the quality lints run on — a heuristic
/// model of one pass over the code, not a bound on looped execution.
#[derive(Debug)]
pub struct ScheduleGraph {
    group_of: Vec<usize>,
    /// `[lo, hi]` instruction span per group.
    groups: Vec<(usize, usize)>,
    edges_in: Vec<Vec<DepEdge>>,
    edges_out: Vec<Vec<DepEdge>>,
    earliest: Vec<u64>,
    latest: Vec<u64>,
    lat: Vec<u64>,
    /// Last group an instruction of group `g` could be rescheduled
    /// into without crossing a control transfer or entering a join.
    region_last: Vec<usize>,
}

impl ScheduleGraph {
    /// Builds the graph for a validated program.
    #[must_use]
    pub fn of_program(program: &Program, cfg: &MachineConfig) -> Self {
        let instrs: Vec<Instruction> = program.iter().copied().collect();
        Self::new(&instrs, cfg)
    }

    /// Builds the graph for a raw instruction sequence.
    #[must_use]
    pub fn new(instrs: &[Instruction], cfg: &MachineConfig) -> Self {
        let n = instrs.len();
        let hit = LatencyModel::all_hit(cfg);
        let lat: Vec<u64> = instrs.iter().map(|i| hit.insn_latency(i)).collect();

        let mut group_of = vec![0usize; n];
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut start = true;
        for (pc, insn) in instrs.iter().enumerate() {
            if start {
                groups.push((pc, pc));
            } else if let Some(last) = groups.last_mut() {
                last.1 = pc;
            }
            group_of[pc] = groups.len() - 1;
            start = insn.stop;
        }

        let mut edges_in: Vec<Vec<DepEdge>> = vec![Vec::new(); n];
        let mut edges_out: Vec<Vec<DepEdge>> = vec![Vec::new(); n];
        let mut last_writer = [usize::MAX; TOTAL_REGS];
        for (pc, insn) in instrs.iter().enumerate() {
            for src in insn.sources() {
                let w = last_writer[src.index()];
                // Same-group edges (an intra-group RAW is itself an
                // error finding) cannot constrain group start times.
                if w != usize::MAX
                    && group_of[w] != group_of[pc]
                    && !edges_in[pc].iter().any(|e| e.producer == w)
                {
                    let e = DepEdge { producer: w, consumer: pc, latency: lat[w] };
                    edges_in[pc].push(e);
                    edges_out[w].push(e);
                }
            }
            for d in insn.dests() {
                last_writer[d.index()] = pc;
            }
        }

        let g = groups.len();
        let mut earliest = vec![0u64; g];
        for gi in 0..g {
            let mut e = if gi == 0 { 0 } else { earliest[gi - 1] + 1 };
            let (lo, hi) = groups[gi];
            for ins in &edges_in[lo..=hi] {
                for dep in ins {
                    e = e.max(earliest[group_of[dep.producer]] + dep.latency);
                }
            }
            earliest[gi] = e;
        }
        let mut latest = vec![0u64; g];
        if g > 0 {
            latest[g - 1] = earliest[g - 1];
            for gi in (0..g.saturating_sub(1)).rev() {
                let mut l = latest[gi + 1].saturating_sub(1);
                let (lo, hi) = groups[gi];
                for outs in &edges_out[lo..=hi] {
                    for dep in outs {
                        l = l.min(latest[group_of[dep.consumer]].saturating_sub(dep.latency));
                    }
                }
                latest[gi] = l;
            }
        }

        // Straight-line region limits: an instruction may slide down to
        // (and into) the group holding the next control transfer, but
        // not past it, and never into a join group — there it would
        // also execute on the other incoming path.
        let mut has_branch = vec![false; g];
        let mut is_join_group = vec![false; g];
        for (pc, insn) in instrs.iter().enumerate() {
            if let ff_isa::Opcode::Br { target } = insn.op {
                has_branch[group_of[pc]] = true;
                if target < n {
                    is_join_group[group_of[target]] = true;
                }
            }
        }
        let mut region_last = vec![0usize; g];
        if g > 0 {
            region_last[g - 1] = g - 1;
            for gi in (0..g.saturating_sub(1)).rev() {
                region_last[gi] =
                    if has_branch[gi] || is_join_group[gi + 1] { gi } else { region_last[gi + 1] };
            }
        }

        ScheduleGraph { group_of, groups, edges_in, edges_out, earliest, latest, lat, region_last }
    }

    /// Number of issue groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The issue group containing `pc`.
    #[must_use]
    pub fn group_of(&self, pc: usize) -> usize {
        self.group_of[pc]
    }

    /// Earliest start cycle of the instruction at `pc` (its group's).
    #[must_use]
    pub fn earliest_start(&self, pc: usize) -> u64 {
        self.earliest[self.group_of[pc]]
    }

    /// Latest start cycle of the instruction at `pc` that keeps every
    /// consumer's latest start (and the schedule length) intact. An
    /// instruction may move past its own group's boundary; only its
    /// consumers and the final group pin it down.
    #[must_use]
    pub fn latest_start(&self, pc: usize) -> u64 {
        let Some(&last) = self.latest.last() else { return 0 };
        let mut l = last;
        for dep in &self.edges_out[pc] {
            l = l.min(self.latest[self.group_of[dep.consumer]].saturating_sub(dep.latency));
        }
        l
    }

    /// Schedulable slack of the instruction at `pc`, in cycles:
    /// `latest_start − earliest_start`. Zero means it is on the static
    /// critical path.
    #[must_use]
    pub fn slack(&self, pc: usize) -> u64 {
        self.latest_start(pc).saturating_sub(self.earliest_start(pc))
    }

    /// [`ScheduleGraph::slack`] additionally clamped to the
    /// instruction's straight-line region: a real scheduler cannot move
    /// an instruction past a control transfer or into a join group, so
    /// only slack inside the region is actionable.
    #[must_use]
    pub fn region_slack(&self, pc: usize) -> u64 {
        let limit = self.earliest[self.region_last[self.group_of[pc]]];
        self.latest_start(pc).min(limit).saturating_sub(self.earliest_start(pc))
    }

    /// Static schedule length in cycles: the last group's start + 1.
    #[must_use]
    pub fn schedule_length(&self) -> u64 {
        self.earliest.last().map_or(0, |e| e + 1)
    }

    /// Register dependences into the instruction at `pc`.
    #[must_use]
    pub fn deps_of(&self, pc: usize) -> &[DepEdge] {
        &self.edges_in[pc]
    }

    /// The binding dependence edge that sets group `g`'s start time, if
    /// its start is not purely sequential. Deterministic: the lowest
    /// (consumer, producer) pair wins.
    fn binding_edge_into(&self, g: usize) -> Option<(usize, usize)> {
        let (lo, hi) = self.groups[g];
        for pc in lo..=hi {
            for dep in &self.edges_in[pc] {
                let wg = self.group_of[dep.producer];
                if wg < g && self.earliest[wg] + dep.latency == self.earliest[g] {
                    return Some((dep.producer, pc));
                }
            }
        }
        None
    }

    /// The static critical path: the chain of binding dependence links
    /// walked backward from the final group, in program order. Empty
    /// when no dependence binds any group start (the schedule is purely
    /// sequential).
    #[must_use]
    pub fn critical_path(&self) -> Vec<CriticalStep> {
        let mut steps: Vec<CriticalStep> = Vec::new();
        if self.groups.is_empty() {
            return steps;
        }
        let push = |steps: &mut Vec<CriticalStep>, s: CriticalStep| {
            if steps.last().map(|p| p.pc) != Some(s.pc) {
                steps.push(s);
            }
        };
        let mut g = self.groups.len() - 1;
        loop {
            match self.binding_edge_into(g) {
                Some((w, r)) => {
                    push(&mut steps, CriticalStep { pc: r, start: self.earliest[g] });
                    let wg = self.group_of[w];
                    push(&mut steps, CriticalStep { pc: w, start: self.earliest[wg] });
                    g = wg;
                }
                None => {
                    if g == 0 {
                        break;
                    }
                    g -= 1;
                }
            }
        }
        steps.reverse();
        steps
    }
}

/// The schedule-quality lints, run over the [`ScheduleGraph`].
///
/// * [`Check::LoadUse`] — a load's consumer sits closer (in groups)
///   than the all-hit load latency, so even an L1 hit stalls it, while
///   the consumer has enough slack to be pushed out of the shadow
///   (SSR's statically checkable load-use placement).
/// * [`Check::ChainOpportunity`] — a serial chain of
///   [`CHAIN_LINT_MIN_LEN`]+ single-cycle operations on one FU class;
///   a chained/fused unit or re-association would shorten the
///   dependence height.
pub(crate) fn check_schedule(
    instrs: &[Instruction],
    cfg: &MachineConfig,
    report: &mut AnalysisReport,
) {
    if instrs.is_empty() {
        return;
    }
    let graph = ScheduleGraph::new(instrs, cfg);
    let shadow = LatencyModel::all_hit(cfg).load_latency();

    // Load-use placement.
    for (pc, _) in instrs.iter().enumerate() {
        for dep in graph.deps_of(pc) {
            if !instrs[dep.producer].op.is_load() {
                continue;
            }
            let gap = (graph.group_of(pc) - graph.group_of(dep.producer)) as u64;
            if gap < shadow && graph.region_slack(pc) >= shadow - gap {
                report.diagnostics.push(Diagnostic::at(
                    Check::LoadUse,
                    pc,
                    format!(
                        "consumes the load at pc {} only {gap} group(s) later; even an \
                         L1 hit needs {shadow} cycles, and this instruction has {} \
                         cycle(s) of schedulable slack to move out of the shadow",
                        dep.producer,
                        graph.region_slack(pc)
                    ),
                ));
            }
        }
    }

    // Chaining opportunity: longest serial single-cycle same-class
    // chain ending at each pc, reported once at each maximal chain end.
    let single = |pc: usize| graph.lat[pc] == cfg.latencies.int && !instrs[pc].op.is_load();
    let link = |w: usize, r: usize| {
        instrs[w].op.fu_class() == instrs[r].op.fu_class()
            && single(w)
            && single(r)
            && graph.group_of(w) < graph.group_of(r)
    };
    let mut chain_len = vec![0usize; instrs.len()];
    for pc in 0..instrs.len() {
        if !single(pc) {
            continue;
        }
        chain_len[pc] = 1;
        for dep in graph.deps_of(pc) {
            if link(dep.producer, pc) {
                chain_len[pc] = chain_len[pc].max(chain_len[dep.producer] + 1);
            }
        }
    }
    for pc in 0..instrs.len() {
        if chain_len[pc] < CHAIN_LINT_MIN_LEN {
            continue;
        }
        let extended = graph.edges_out[pc].iter().any(|e| link(pc, e.consumer));
        if extended {
            continue;
        }
        report.diagnostics.push(Diagnostic::at(
            Check::ChainOpportunity,
            pc,
            format!(
                "ends a serial chain of {} dependent single-cycle {} operations; a \
                 chained/fused unit or re-association would shorten the dependence \
                 height",
                chain_len[pc],
                instrs[pc].op.fu_class().label()
            ),
        ));
    }
    debug_assert_eq!(FuClass::ALL.len(), 4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::IntReg;
    use ff_isa::{MemSize, Opcode};

    fn cfg() -> MachineConfig {
        MachineConfig::paper_table1()
    }

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn movi(d: u8, imm: i64) -> Instruction {
        Instruction::new(Opcode::MovI { d: r(d), imm })
    }

    fn add(d: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Opcode::Add { d: r(d), a: r(a), b: r(b) })
    }

    fn program(instrs: Vec<Instruction>) -> Program {
        Program::new(instrs).expect("valid test program")
    }

    #[test]
    fn latency_models_bracket_loads() {
        let c = cfg();
        let hit = LatencyModel::all_hit(&c);
        let miss = LatencyModel::all_miss(&c);
        assert_eq!(hit.load_latency(), c.hierarchy.l1_latency);
        assert_eq!(miss.load_latency(), c.hierarchy.mem_latency);
        let ld = Instruction::new(Opcode::Ld {
            d: r(1),
            base: r(2),
            off: 0,
            size: MemSize::B8,
            signed: false,
        });
        assert_eq!(hit.insn_latency(&ld), c.hierarchy.l1_latency);
        assert_eq!(miss.insn_latency(&ld), c.hierarchy.mem_latency);
        let mov = movi(1, 0);
        assert_eq!(hit.insn_latency(&mov), c.latencies.int);
        assert_eq!(miss.insn_latency(&mov), c.latencies.int);
    }

    #[test]
    fn dep_height_of_a_serial_chain() {
        // movi ;; add ;; add ;; halt — three chained int ops: the last
        // add starts at cycle 2, so the height is 3 (halt reads nothing
        // and can start at 0).
        let p = program(vec![
            movi(1, 1).with_stop(),
            add(1, 1, 1).with_stop(),
            add(1, 1, 1).with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let b = cycle_bounds(&p, &MemoryImage::default(), &cfg(), 1_000);
        assert!(b.halted);
        assert_eq!(b.retired, 4);
        assert_eq!(b.dep_height_all_hit, 3);
        assert_eq!(b.dep_height_all_miss, 3);
        assert_eq!(b.width_bound, 1);
        assert_eq!(b.class_counts, [3, 0, 0, 1]);
        assert_eq!(b.fu_bounds, [1, 0, 0, 1]);
        assert_eq!(b.resource_bound(), 1);
        assert_eq!(b.lower_bound(), 3);
    }

    #[test]
    fn trailing_unconsumed_result_does_not_extend_height() {
        // The fdiv result is never read: the machine may halt while it
        // is still in flight, so the height counts its *start*, not its
        // completion.
        let p = program(vec![
            Instruction::new(Opcode::FMovI { d: ff_isa::reg::FpReg::n(1), imm: 1.0 }).with_stop(),
            Instruction::new(Opcode::FDiv {
                d: ff_isa::reg::FpReg::n(2),
                a: ff_isa::reg::FpReg::n(1),
                b: ff_isa::reg::FpReg::n(1),
            })
            .with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let c = cfg();
        let b = cycle_bounds(&p, &MemoryImage::default(), &c, 1_000);
        // fmovi starts at 0 (fp_arith latency 4); fdiv starts at 4.
        assert_eq!(b.dep_height_all_hit, c.latencies.fp_arith + 1);
    }

    #[test]
    fn bounds_on_empty_budget_are_zero() {
        let p = program(vec![movi(1, 1).with_stop(), Instruction::new(Opcode::Halt)]);
        let b = cycle_bounds(&p, &MemoryImage::default(), &cfg(), 0);
        assert_eq!(b.retired, 0);
        assert!(!b.halted);
        assert_eq!(b.lower_bound(), 0);
    }

    #[test]
    fn width_bound_counts_every_dynamic_instruction() {
        // 17 movis in three groups + halt = 18 instructions, 8-issue:
        // ceil(18/8) = 3.
        let mut v: Vec<Instruction> = (0u8..17).map(|i| movi((i % 8) + 1, i64::from(i))).collect();
        v[7] = v[7].with_stop();
        v[15] = v[15].with_stop();
        v[16] = v[16].with_stop();
        v.push(Instruction::new(Opcode::Halt));
        let p = program(v);
        let b = cycle_bounds(&p, &MemoryImage::default(), &cfg(), 1_000);
        assert_eq!(b.retired, 18);
        assert_eq!(b.width_bound, 3);
    }

    fn mul(d: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Opcode::Mul { d: r(d), a: r(a), b: r(b) })
    }

    /// g0: movi r1 ;; g1: mul r2=r1 (3 cy) ;; g2: movi r3 ;;
    /// g3: add r4=r2 ;; g4: halt — the mul edge binds g3 to cycle 4.
    fn mul_chain() -> Vec<Instruction> {
        vec![
            movi(1, 1).with_stop(),
            mul(2, 1, 1).with_stop(),
            movi(3, 7).with_stop(),
            add(4, 2, 2).with_stop(),
            Instruction::new(Opcode::Halt),
        ]
    }

    #[test]
    fn schedule_graph_earliest_latest_and_slack() {
        let g = ScheduleGraph::new(&mul_chain(), &cfg());
        assert_eq!(g.group_count(), 5);
        assert_eq!(g.earliest_start(0), 0);
        assert_eq!(g.earliest_start(1), 1);
        assert_eq!(g.earliest_start(3), 4, "bound by the 3-cycle mul, not the +1 chain");
        assert_eq!(g.schedule_length(), 6);
        // The independent movi r3 can slide to the final group's start.
        assert!(g.slack(2) > 0, "independent movi should have slack");
        assert_eq!(g.slack(0), 0, "chain head is critical");
        assert_eq!(g.slack(1), 0, "the mul is critical");
        assert_eq!(g.slack(3), g.latest_start(3) - 4);
    }

    #[test]
    fn critical_path_walks_the_binding_chain() {
        let g = ScheduleGraph::new(&mul_chain(), &cfg());
        let path = g.critical_path();
        let pcs: Vec<usize> = path.iter().map(|s| s.pc).collect();
        assert_eq!(pcs, vec![0, 1, 3], "{path:?}");
        assert!(path.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(path.last().map(|s| s.start), Some(4));
    }

    #[test]
    fn load_use_lint_needs_both_shadow_and_slack() {
        let c = cfg();
        let mk = |gap_filler: usize| {
            let mut v = vec![
                movi(1, 0x4000).with_stop(),
                Instruction::new(Opcode::Ld {
                    d: r(2),
                    base: r(1),
                    off: 0,
                    size: MemSize::B8,
                    signed: false,
                })
                .with_stop(),
            ];
            for _ in 0..gap_filler {
                v.push(Instruction::new(Opcode::Nop).with_stop());
            }
            v.push(add(3, 2, 1).with_stop());
            // Independent tail so the consumer has slack.
            v.push(movi(4, 1).with_stop());
            v.push(movi(5, 2).with_stop());
            v.push(Instruction::new(Opcode::Halt));
            v
        };
        // Consumer right in the next group: inside the 2-cycle shadow.
        let mut rep = AnalysisReport::default();
        check_schedule(&mk(0), &c, &mut rep);
        assert!(rep.has(Check::LoadUse), "{:?}", rep.diagnostics);
        // Two groups of separation: out of the shadow, no finding.
        let mut rep = AnalysisReport::default();
        check_schedule(&mk(2), &c, &mut rep);
        assert!(!rep.has(Check::LoadUse), "{:?}", rep.diagnostics);
    }

    #[test]
    fn chain_lint_fires_at_threshold_only() {
        let c = cfg();
        let mk = |links: usize| {
            let mut v = vec![movi(1, 1).with_stop()];
            for _ in 0..links {
                v.push(add(1, 1, 1).with_stop());
            }
            v.push(Instruction::new(Opcode::Halt));
            v
        };
        let mut rep = AnalysisReport::default();
        check_schedule(&mk(CHAIN_LINT_MIN_LEN), &c, &mut rep);
        assert!(rep.has(Check::ChainOpportunity), "{:?}", rep.diagnostics);
        let mut rep = AnalysisReport::default();
        check_schedule(&mk(CHAIN_LINT_MIN_LEN - 2), &c, &mut rep);
        assert!(!rep.has(Check::ChainOpportunity), "{:?}", rep.diagnostics);
    }
}
