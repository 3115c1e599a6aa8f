//! Static legality analysis of EPIC programs.
//!
//! [`analyze_program`] runs every check over a validated
//! [`ff_isa::Program`]; [`analyze_instructions`] accepts a raw
//! instruction sequence so that even structurally broken inputs (which
//! [`ff_isa::Program::new`] would reject) produce diagnostics instead
//! of construction errors.
//!
//! The check families, in the order they run:
//!
//! 1. **Structure** — non-empty, cannot fall off the end, branch
//!    targets in range and on issue-group starts. These mirror
//!    `Program::new`'s invariants; any structural error stops the
//!    deeper passes (the control-flow graph would be meaningless).
//! 2. **Issue-group legality** — no intra-group RAW or WAW under stop-bit
//!    semantics. The check is *predicate-aware*: two same-group writes
//!    to one register guarded by qualifying predicates that are the
//!    complementary `pt`/`pf` outputs of one earlier unpredicated
//!    compare are provably disjoint (at most one executes) and do not
//!    conflict — the standard EPIC if-conversion idiom.
//! 3. **Dataflow** — may-reaching definitions find reads of registers
//!    no path ever defines (they observe the power-on zero); backward
//!    liveness finds writes that are overwritten before any read on
//!    every path; forward reachability finds unreachable issue groups.
//!    All registers are treated as live at `halt`, because the final
//!    register file is architecturally observable (the differential
//!    oracle compares it).
//! 4. **Resources** — per-group functional-unit demand against the
//!    [`MachineConfig`] slot mix, and group width against the issue
//!    width. Oversubscribed groups are *legal* (the machine issues them
//!    over multiple cycles) but defeat the point of a hand schedule.

use crate::diag::{AnalysisReport, Check, Diagnostic};
use ff_core::MachineConfig;
use ff_isa::reg::REGS_PER_FILE;
use ff_isa::{FuClass, Instruction, Opcode, PredReg, Program, RegId, TOTAL_REGS};

/// A 192-bit register set, one bit per [`RegId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RegSet([u64; 3]);

impl RegSet {
    const EMPTY: RegSet = RegSet([0; 3]);
    const ALL: RegSet = RegSet([u64::MAX; 3]);

    fn insert(&mut self, r: RegId) {
        let i = r.index();
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn contains(self, r: RegId) -> bool {
        let i = r.index();
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every register in `other`.
    fn subtract(&mut self, other: RegSet) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a &= !b;
        }
    }

    /// Unions `other` in; returns whether anything changed.
    fn union(&mut self, other: RegSet) -> bool {
        let before = *self;
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a |= b;
        }
        *self != before
    }
}

/// Successor pcs of the instruction at `pc` (at most two).
fn successors(instrs: &[Instruction], pc: usize) -> ([usize; 2], usize) {
    let insn = &instrs[pc];
    match insn.op {
        Opcode::Halt => ([0, 0], 0),
        Opcode::Br { target } if insn.qp.is_none() => ([target, 0], 1),
        Opcode::Br { target } => ([pc + 1, target], 2),
        _ => ([pc + 1, 0], 1),
    }
}

/// The complementary `pt`/`pf` outputs of a compare, if `op` is one.
fn cmp_outputs(op: &Opcode) -> Option<(PredReg, PredReg)> {
    match *op {
        Opcode::Cmp { pt, pf, .. } | Opcode::CmpI { pt, pf, .. } | Opcode::FCmp { pt, pf, .. } => {
            Some((pt, pf))
        }
        _ => None,
    }
}

/// Tracks which predicate registers are currently known to hold
/// complementary values, and which compare established that.
///
/// The map is maintained along the linear instruction walk and cleared
/// at control-flow join points (branch targets), where another path may
/// have left the predicates in an unrelated state.
#[derive(Debug)]
struct ComplementMap {
    /// `partner[p] = Some((q, pc))` means `p == !q`, established by the
    /// unpredicated compare at `pc`.
    partner: [Option<(PredReg, usize)>; REGS_PER_FILE],
}

impl ComplementMap {
    fn new() -> Self {
        ComplementMap { partner: [None; REGS_PER_FILE] }
    }

    fn clear(&mut self) {
        self.partner = [None; REGS_PER_FILE];
    }

    /// Whether `a` and `b` are known-complementary predicates.
    fn complementary(&self, a: PredReg, b: PredReg) -> bool {
        matches!(self.partner[a.raw() as usize], Some((q, _)) if q == b)
    }

    /// Accounts for the writes of the instruction at `pc`.
    fn update(&mut self, insn: &Instruction, pc: usize) {
        // Any write to a predicate invalidates what we knew about it
        // and its partner.
        for d in insn.dests() {
            if let RegId::Pred(p) = d {
                if let Some((q, _)) = self.partner[p.raw() as usize].take() {
                    self.partner[q.raw() as usize] = None;
                }
            }
        }
        // An *unpredicated* compare with distinct outputs establishes a
        // fresh complementary pair. A predicated compare does not: if
        // nullified, both outputs keep their old, unrelated values.
        if insn.qp.is_none() {
            if let Some((pt, pf)) = cmp_outputs(&insn.op) {
                if pt != pf {
                    self.partner[pt.raw() as usize] = Some((pf, pc));
                    self.partner[pf.raw() as usize] = Some((pt, pc));
                }
            }
        }
    }
}

/// Analyzes a validated program. Equivalent to
/// [`analyze_instructions`] on its instruction sequence; structural
/// checks are still run (and, by construction, pass).
#[must_use]
pub fn analyze_program(program: &Program, cfg: &MachineConfig) -> AnalysisReport {
    let instrs: Vec<Instruction> = program.iter().copied().collect();
    analyze_instructions(&instrs, cfg)
}

/// Analyzes a raw instruction sequence, including ones
/// [`ff_isa::Program::new`] would reject.
///
/// Structural defects are reported as diagnostics; if any are found the
/// deeper passes (group legality, dataflow, resources) are skipped,
/// since the control-flow graph cannot be trusted.
#[must_use]
pub fn analyze_instructions(instrs: &[Instruction], cfg: &MachineConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();

    check_structure(instrs, &mut report);
    if !report.is_legal() {
        report.sort();
        return report;
    }

    let group_starts = compute_group_starts(instrs);
    check_group_legality(instrs, &group_starts, &mut report);
    check_dataflow(instrs, &group_starts, &mut report);
    check_resources(instrs, &group_starts, cfg, &mut report);
    crate::analysis::check_schedule(instrs, cfg, &mut report);

    report.sort();
    report
}

/// Whether `pc` starts an issue group (index 0, or right after a stop
/// bit).
fn compute_group_starts(instrs: &[Instruction]) -> Vec<bool> {
    let mut starts = vec![false; instrs.len()];
    let mut start = true;
    for (pc, insn) in instrs.iter().enumerate() {
        starts[pc] = start;
        start = insn.stop;
    }
    starts
}

fn check_structure(instrs: &[Instruction], report: &mut AnalysisReport) {
    if instrs.is_empty() {
        report
            .diagnostics
            .push(Diagnostic::global(Check::Empty, "program contains no instructions".into()));
        return;
    }

    let last_pc = instrs.len() - 1;
    let last = &instrs[last_pc];
    let terminates = matches!(last.op, Opcode::Halt)
        || (matches!(last.op, Opcode::Br { .. }) && last.qp.is_none());
    if !terminates {
        report.diagnostics.push(Diagnostic::at(
            Check::MissingTerminator,
            last_pc,
            format!(
                "final instruction `{last}` can fall off the end; \
                 it must be `halt` or an unconditional branch"
            ),
        ));
    }

    let group_starts = compute_group_starts(instrs);
    for (pc, insn) in instrs.iter().enumerate() {
        if let Opcode::Br { target } = insn.op {
            if target >= instrs.len() {
                report.diagnostics.push(Diagnostic::at(
                    Check::TargetOutOfRange,
                    pc,
                    format!(
                        "branch targets instruction {target}, but the program \
                         ends at {}",
                        instrs.len() - 1
                    ),
                ));
            } else if !group_starts[target] {
                report.diagnostics.push(Diagnostic::at(
                    Check::TargetSplitsGroup,
                    pc,
                    format!(
                        "branch targets instruction {target}, which is in the \
                         middle of an issue group; targets must follow a stop bit"
                    ),
                ));
            }
        }
    }
}

/// Intra-group RAW/WAW detection with predicate-aware refinement.
fn check_group_legality(
    instrs: &[Instruction],
    group_starts: &[bool],
    report: &mut AnalysisReport,
) {
    let is_join = join_points(instrs);
    let mut comp = ComplementMap::new();
    // Writers in the currently open group: (reg, writer pc, writer qp).
    let mut writers: Vec<(RegId, usize, Option<PredReg>)> = Vec::new();

    for (pc, insn) in instrs.iter().enumerate() {
        if group_starts[pc] {
            writers.clear();
        }
        if is_join[pc] {
            comp.clear();
        }

        // Intra-instruction duplicate destination (cmp with pt == pf).
        let dests = insn.dests();
        let dup = dests
            .iter()
            .enumerate()
            .find(|&(i, d)| dests.iter().take(i).any(|e| e == d))
            .map(|(_, d)| d);
        if let Some(d) = dup {
            report.diagnostics.push(Diagnostic::at(
                Check::DuplicateDest,
                pc,
                format!("instruction writes {d} twice; the result is order-dependent"),
            ));
        }

        // RAW: a source written earlier in this group. The qualifying
        // predicate itself is always read (it decides nullification),
        // so predicate disjointness cannot excuse a hazard on it.
        for src in insn.sources() {
            if let Some(&(_, wpc, wqp)) = writers.iter().find(|&&(r, _, _)| r == src) {
                let src_is_own_qp = insn.qp.is_some_and(|q| RegId::Pred(q) == src);
                let disjoint = !src_is_own_qp
                    && matches!((insn.qp, wqp), (Some(a), Some(b)) if comp.complementary(a, b));
                if !disjoint {
                    report.diagnostics.push(Diagnostic::at(
                        Check::GroupRaw,
                        pc,
                        format!(
                            "{src} is read here but written at pc {wpc} in the same \
                             issue group; group members must only read pre-group state"
                        ),
                    ));
                }
            }
        }

        // WAW: a destination already written in this group.
        for d in dests {
            if let Some(&(_, wpc, wqp)) = writers.iter().find(|&&(r, _, _)| r == d) {
                let disjoint =
                    matches!((insn.qp, wqp), (Some(a), Some(b)) if comp.complementary(a, b));
                if !disjoint {
                    report.diagnostics.push(Diagnostic::at(
                        Check::GroupWaw,
                        pc,
                        format!(
                            "{d} is written here and at pc {wpc} in the same issue \
                             group without provably disjoint predicates"
                        ),
                    ));
                }
            }
        }

        for d in dests {
            writers.push((d, pc, insn.qp));
        }
        comp.update(insn, pc);
    }
}

/// Pcs reachable via branches, where linear-path facts (predicate
/// complements, pending if-conversion pairs) can no longer be assumed.
fn join_points(instrs: &[Instruction]) -> Vec<bool> {
    let mut is_join = vec![false; instrs.len()];
    for insn in instrs {
        if let Opcode::Br { target } = insn.op {
            if target < instrs.len() {
                is_join[target] = true;
            }
        }
    }
    is_join
}

/// Per-pc kill sets for the backward liveness pass.
///
/// An unpredicated write kills its destinations outright. A lone
/// predicated write kills nothing — when nullified, the old value
/// survives. But the if-conversion diamond, two writes to one register
/// guarded by the complementary `pt`/`pf` outputs of one compare,
/// *jointly* kills: exactly one of the pair executes, so the value that
/// reached the pair is dead below it. The joint kill is attributed to
/// the *earlier* pair member (the value is only guaranteed overwritten
/// once both have been passed), and only holds along straight-line
/// flow: any intervening read of the register, unrelated write to it,
/// control transfer, or join point cancels the pairing — the same
/// disjointness discipline the intra-group WAW check applies.
fn compute_kills(instrs: &[Instruction]) -> Vec<RegSet> {
    let mut kills: Vec<RegSet> = instrs
        .iter()
        .map(|insn| {
            let mut s = RegSet::EMPTY;
            if insn.qp.is_none() {
                for d in insn.dests() {
                    s.insert(d);
                }
            }
            s
        })
        .collect();

    let is_join = join_points(instrs);
    let mut comp = ComplementMap::new();
    // Predicated writes awaiting a complementary partner:
    // (writer pc, destination, qualifying predicate).
    let mut pending: Vec<(usize, RegId, PredReg)> = Vec::new();
    for (pc, insn) in instrs.iter().enumerate() {
        if is_join[pc] {
            comp.clear();
            pending.clear();
        }
        // A read between the pair members may observe the old value
        // (the first write may be nullified): the pair no longer kills.
        for s in insn.sources() {
            pending.retain(|&(_, d, _)| d != s);
        }
        match insn.qp {
            None => {
                for d in insn.dests() {
                    pending.retain(|&(_, pd, _)| pd != d);
                }
            }
            Some(a) => {
                for d in insn.dests() {
                    if let Some(i) =
                        pending.iter().position(|&(_, pd, b)| pd == d && comp.complementary(a, b))
                    {
                        let (wpc, _, _) = pending.remove(i);
                        kills[wpc].insert(d);
                    } else {
                        pending.retain(|&(_, pd, _)| pd != d);
                        pending.push((pc, d, a));
                    }
                }
            }
        }
        // Any control transfer breaks the straight-line guarantee that
        // both pair members are passed.
        if matches!(insn.op, Opcode::Br { .. } | Opcode::Halt) {
            pending.clear();
        }
        comp.update(insn, pc);
    }
    kills
}

/// Reachability, may-reaching definitions (undefined reads), and
/// backward liveness (dead writes).
fn check_dataflow(instrs: &[Instruction], group_starts: &[bool], report: &mut AnalysisReport) {
    let n = instrs.len();

    // --- Forward reachability from the entry point. -------------------
    let mut reachable = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if reachable[pc] {
            continue;
        }
        reachable[pc] = true;
        let (succ, cnt) = successors(instrs, pc);
        for &s in &succ[..cnt] {
            if s < n && !reachable[s] {
                stack.push(s);
            }
        }
    }
    for pc in 0..n {
        if group_starts[pc] && !reachable[pc] {
            report.diagnostics.push(Diagnostic::at(
                Check::Unreachable,
                pc,
                "this issue group is unreachable from the entry point".into(),
            ));
        }
    }

    // --- May-reaching definitions: undefined reads. -------------------
    // defs_in[pc] = registers defined on *some* path reaching pc. A read
    // of a register outside this set can only observe the power-on zero.
    let mut defs_in = vec![RegSet::EMPTY; n];
    let mut defs_known = vec![false; n];
    defs_known[0] = true;
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let mut out = defs_in[pc];
        for d in instrs[pc].dests() {
            out.insert(d);
        }
        let (succ, cnt) = successors(instrs, pc);
        for &s in &succ[..cnt] {
            if s >= n {
                continue;
            }
            let changed = defs_in[s].union(out) | !defs_known[s];
            defs_known[s] = true;
            if changed {
                work.push(s);
            }
        }
    }
    for (pc, insn) in instrs.iter().enumerate() {
        if !reachable[pc] {
            continue;
        }
        for src in insn.sources() {
            if !defs_in[pc].contains(src) {
                let note = match src {
                    RegId::Pred(_) => "it always reads false, nullifying the instruction",
                    _ => "it always reads the power-on zero",
                };
                report.diagnostics.push(Diagnostic::at(
                    Check::UndefinedRead,
                    pc,
                    format!("{src} is read here but no instruction on any path defines it; {note}"),
                ));
            }
        }
    }

    // --- Backward liveness: dead writes. ------------------------------
    // All registers are live at `halt`: the final register file is
    // architecturally observable. Kill sets come from `compute_kills`:
    // unpredicated writes kill, lone predicated writes do not (when
    // nullified the old value survives), and complementary-predicate
    // if-conversion pairs jointly kill at the earlier member.
    let kills = compute_kills(instrs);
    let mut live_in = vec![RegSet::EMPTY; n];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let insn = &instrs[pc];
            let mut live = if matches!(insn.op, Opcode::Halt) {
                RegSet::ALL
            } else {
                let (succ, cnt) = successors(instrs, pc);
                let mut out = RegSet::EMPTY;
                for &s in &succ[..cnt] {
                    if s < n {
                        out.union(live_in[s]);
                    }
                }
                out
            };
            live.subtract(kills[pc]);
            for s in insn.sources() {
                live.insert(s);
            }
            if live_in[pc] != live {
                live_in[pc] = live;
                changed = true;
            }
        }
    }
    for (pc, insn) in instrs.iter().enumerate() {
        if !reachable[pc] || insn.dests().is_empty() {
            continue;
        }
        let live_out = {
            let (succ, cnt) = successors(instrs, pc);
            let mut out = RegSet::EMPTY;
            for &s in &succ[..cnt] {
                if s < n {
                    out.union(live_in[s]);
                }
            }
            out
        };
        // Only report when *every* output of the instruction is dead: a
        // compare whose `pf` is unused while `pt` feeds a branch is
        // normal codegen, not a defect.
        if insn.dests().iter().all(|d| !live_out.contains(d)) {
            let names: Vec<String> = insn.dests().iter().map(|d| d.to_string()).collect();
            report.diagnostics.push(Diagnostic::at(
                Check::DeadWrite,
                pc,
                format!(
                    "{} {} overwritten on every path before being read",
                    names.join(", "),
                    if names.len() == 1 { "is" } else { "are" }
                ),
            ));
        }
    }
    debug_assert_eq!(TOTAL_REGS, 3 * REGS_PER_FILE);
}

/// Per-group functional-unit demand and width against the machine.
fn check_resources(
    instrs: &[Instruction],
    group_starts: &[bool],
    cfg: &MachineConfig,
    report: &mut AnalysisReport,
) {
    let n = instrs.len();
    let mut pc = 0;
    while pc < n {
        let mut end = pc;
        while end + 1 < n && !group_starts[end + 1] {
            end += 1;
        }
        let len = end - pc + 1;
        let mut counts = [0usize; 4];
        for insn in &instrs[pc..=end] {
            counts[insn.op.fu_class().index()] += 1;
        }
        for fu in FuClass::ALL {
            let (have, avail, label) = (counts[fu.index()], cfg.fu_slots[fu], fu.label());
            if have > avail {
                report.diagnostics.push(Diagnostic::at(
                    Check::FuOversubscribed,
                    pc,
                    format!(
                        "issue group has {have} {label} operations but the machine \
                         issues at most {avail} per cycle; the group cannot issue \
                         in one cycle"
                    ),
                ));
            }
        }
        if len > cfg.issue_width {
            report.diagnostics.push(Diagnostic::at(
                Check::GroupTooWide,
                pc,
                format!(
                    "issue group spans {len} instructions but the machine is \
                     {}-issue; it takes {} cycles to issue",
                    cfg.issue_width,
                    len.div_ceil(cfg.issue_width)
                ),
            ));
        }
        pc = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::reg::{IntReg, PredReg};
    use ff_isa::CmpKind;

    fn cfg() -> MachineConfig {
        MachineConfig::paper_table1()
    }

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    fn halt() -> Instruction {
        Instruction::new(Opcode::Halt)
    }

    #[test]
    fn clean_program_is_clean() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 1 }).with_stop(),
            Instruction::new(Opcode::AddI { d: r(2), a: r(1), imm: 1 }).with_stop(),
            Instruction::new(Opcode::St {
                src: r(2),
                base: r(1),
                off: 0,
                size: ff_isa::MemSize::B8,
            })
            .with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn complementary_predicates_do_not_conflict() {
        // cmp establishes p1 = !p2; the two guarded writes to r3 in one
        // group are the classic if-conversion diamond and must be legal.
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 5 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 0,
            })
            .with_stop(),
            Instruction::new(Opcode::MovI { d: r(3), imm: 10 }).predicated(p(1)),
            Instruction::new(Opcode::MovI { d: r(3), imm: 20 }).predicated(p(2)).with_stop(),
            Instruction::new(Opcode::St {
                src: r(3),
                base: r(1),
                off: 0,
                size: ff_isa::MemSize::B8,
            })
            .with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.is_legal(), "{:?}", rep.diagnostics);
        assert!(!rep.has(Check::GroupWaw));
    }

    #[test]
    fn unrelated_predicates_still_conflict() {
        // p1 and p3 come from different compares: not provably disjoint.
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 5 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 0,
            }),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Gt,
                pt: p(3),
                pf: p(4),
                a: r(1),
                imm: 9,
            })
            .with_stop(),
            Instruction::new(Opcode::MovI { d: r(3), imm: 10 }).predicated(p(1)),
            Instruction::new(Opcode::MovI { d: r(3), imm: 20 }).predicated(p(3)).with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::GroupWaw), "{:?}", rep.diagnostics);
    }

    #[test]
    fn predicated_compare_does_not_establish_complement() {
        // The guarded cmp may be nullified, leaving p1/p2 unrelated.
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 5 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(5),
                pf: p(6),
                a: r(1),
                imm: 3,
            })
            .with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 0,
            })
            .predicated(p(5))
            .with_stop(),
            Instruction::new(Opcode::MovI { d: r(3), imm: 10 }).predicated(p(1)),
            Instruction::new(Opcode::MovI { d: r(3), imm: 20 }).predicated(p(2)).with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::GroupWaw), "{:?}", rep.diagnostics);
    }

    #[test]
    fn complement_survives_linear_flow_but_not_joins() {
        // After a branch target, the complement is forgotten: a second
        // path may have redefined the predicates independently.
        let instrs = vec![
            // 0
            Instruction::new(Opcode::MovI { d: r(1), imm: 5 }).with_stop(),
            // 1
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 0,
            })
            .with_stop(),
            // 2: conditional branch to 4 makes 4 a join point
            Instruction::new(Opcode::Br { target: 4 }).predicated(p(1)).with_stop(),
            // 3
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(3),
                a: r(1),
                imm: 1,
            })
            .with_stop(),
            // 4: join — p1/p2 complement no longer holds
            Instruction::new(Opcode::MovI { d: r(3), imm: 10 }).predicated(p(1)),
            // 5
            Instruction::new(Opcode::MovI { d: r(3), imm: 20 }).predicated(p(2)).with_stop(),
            // 6
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::GroupWaw), "{:?}", rep.diagnostics);
    }

    #[test]
    fn qp_read_of_same_group_compare_is_raw() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 5 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 0,
            }),
            Instruction::new(Opcode::MovI { d: r(3), imm: 1 }).predicated(p(1)).with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::GroupRaw), "{:?}", rep.diagnostics);
    }

    #[test]
    fn undefined_read_and_defined_read() {
        let instrs = vec![
            Instruction::new(Opcode::AddI { d: r(2), a: r(9), imm: 1 }).with_stop(),
            Instruction::new(Opcode::St {
                src: r(2),
                base: r(2),
                off: 0,
                size: ff_isa::MemSize::B8,
            })
            .with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        let undef: Vec<_> =
            rep.diagnostics.iter().filter(|d| d.check == Check::UndefinedRead).collect();
        assert_eq!(undef.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(undef[0].pc, Some(0));
        assert!(undef[0].message.contains("r9"));
    }

    #[test]
    fn loop_carried_definition_is_not_undefined() {
        // r2 is defined on the back-edge path before its read.
        let instrs = vec![
            // 0
            Instruction::new(Opcode::MovI { d: r(2), imm: 0 }).with_stop(),
            // 1: loop top
            Instruction::new(Opcode::AddI { d: r(2), a: r(2), imm: 1 }).with_stop(),
            // 2
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(2),
                imm: 3,
            })
            .with_stop(),
            // 3
            Instruction::new(Opcode::Br { target: 1 }).predicated(p(1)).with_stop(),
            // 4
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(!rep.has(Check::UndefinedRead), "{:?}", rep.diagnostics);
    }

    #[test]
    fn dead_write_found_but_final_writes_live_at_halt() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 1 }).with_stop(), // dead: rewritten
            Instruction::new(Opcode::MovI { d: r(1), imm: 2 }).with_stop(), // live at halt
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        let dead: Vec<_> = rep.diagnostics.iter().filter(|d| d.check == Check::DeadWrite).collect();
        assert_eq!(dead.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(dead[0].pc, Some(0));
    }

    #[test]
    fn compare_with_one_live_output_is_not_dead() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 0 }).with_stop(),
            // loop top (1): p2 is never read, but p1 is — not a dead write.
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 3,
            })
            .with_stop(),
            Instruction::new(Opcode::AddI { d: r(1), a: r(1), imm: 1 }).with_stop(),
            Instruction::new(Opcode::Br { target: 1 }).predicated(p(1)).with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(!rep.has(Check::DeadWrite), "{:?}", rep.diagnostics);
    }

    #[test]
    fn unreachable_group_detected() {
        let instrs = vec![
            Instruction::new(Opcode::Br { target: 2 }).with_stop(), // 0: skips group 1
            Instruction::new(Opcode::Nop).with_stop(),              // 1: unreachable
            halt(),                                                 // 2
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        let unreach: Vec<_> =
            rep.diagnostics.iter().filter(|d| d.check == Check::Unreachable).collect();
        assert_eq!(unreach.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(unreach[0].pc, Some(1));
    }

    #[test]
    fn structural_defects_reported_not_panicked() {
        let rep = analyze_instructions(&[], &cfg());
        assert!(rep.has(Check::Empty));

        let rep = analyze_instructions(&[Instruction::new(Opcode::Nop)], &cfg());
        assert!(rep.has(Check::MissingTerminator));

        let rep = analyze_instructions(
            &[Instruction::new(Opcode::Br { target: 7 }).with_stop(), halt()],
            &cfg(),
        );
        assert!(rep.has(Check::TargetOutOfRange));

        let rep = analyze_instructions(
            &[
                Instruction::new(Opcode::Br { target: 1 }).predicated(p(1)),
                Instruction::new(Opcode::Nop).with_stop(),
                halt(),
            ],
            &cfg(),
        );
        assert!(rep.has(Check::TargetSplitsGroup));
    }

    #[test]
    fn duplicate_dest_compare_rejected() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 0 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Eq,
                pt: p(1),
                pf: p(1),
                a: r(1),
                imm: 0,
            })
            .with_stop(),
            halt(),
        ];
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::DuplicateDest), "{:?}", rep.diagnostics);
        assert!(!rep.is_legal());
    }

    #[test]
    fn oversubscribed_memory_ports_flagged() {
        let m = cfg();
        assert_eq!(m.fu_slots.mem, 3);
        let mut instrs: Vec<Instruction> = (0..4)
            .map(|i| {
                Instruction::new(Opcode::St {
                    src: r(1),
                    base: r(2),
                    off: 8 * i,
                    size: ff_isa::MemSize::B8,
                })
            })
            .collect();
        instrs.insert(0, Instruction::new(Opcode::MovI { d: r(1), imm: 1 }));
        instrs.insert(1, Instruction::new(Opcode::MovI { d: r(2), imm: 64 }));
        // Make the stores one group: [movi, movi ;;][st x4 ;;][halt]
        instrs[1] = instrs[1].with_stop();
        instrs[5] = instrs[5].with_stop();
        instrs.push(halt());
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::FuOversubscribed), "{:?}", rep.diagnostics);
        assert!(rep.is_legal(), "resource findings must not be errors");
    }

    #[test]
    fn group_wider_than_issue_width_flagged() {
        let mut instrs: Vec<Instruction> = (0..9).map(|_| Instruction::new(Opcode::Nop)).collect();
        instrs[8] = instrs[8].with_stop();
        instrs.push(halt());
        let rep = analyze_instructions(&instrs, &cfg());
        assert!(rep.has(Check::GroupTooWide), "{:?}", rep.diagnostics);
    }

    #[test]
    fn analyze_program_agrees_with_analyze_instructions() {
        let instrs = vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 1 }).with_stop(),
            Instruction::new(Opcode::AddI { d: r(2), a: r(1), imm: 1 }).with_stop(),
            halt(),
        ];
        let program = Program::new(instrs.clone()).unwrap();
        assert_eq!(analyze_program(&program, &cfg()), analyze_instructions(&instrs, &cfg()));
    }
}
