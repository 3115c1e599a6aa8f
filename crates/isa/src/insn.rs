//! Instructions: an operation plus EPIC schedule annotations.

use crate::op::{FuClass, LatencyClass, Opcode, RegList};
use crate::reg::{PredReg, RegId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One instruction of a compiled EPIC schedule.
///
/// Beyond the operation itself, an instruction carries the two pieces of
/// EPIC schedule state the simulator depends on:
///
/// * `qp` — the optional *qualifying predicate*. When the named predicate
///   register is false at execution, the instruction is nullified (no
///   register writes, no memory access, and a `br` falls through).
/// * `stop` — the Itanium-style *stop bit*. A stop bit after an
///   instruction ends the current issue group; the in-order machine stalls
///   at issue-group granularity, which is precisely the "artificial
///   dependence" problem the two-pass design attacks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// The operation and its operands.
    pub op: Opcode,
    /// Qualifying predicate; `None` executes unconditionally.
    pub qp: Option<PredReg>,
    /// Stop bit: `true` ends the issue group after this instruction.
    pub stop: bool,
}

impl Instruction {
    /// Creates an unpredicated instruction without a stop bit.
    #[must_use]
    pub fn new(op: Opcode) -> Self {
        Instruction { op, qp: None, stop: false }
    }

    /// Adds a qualifying predicate.
    #[must_use]
    pub fn predicated(mut self, qp: PredReg) -> Self {
        self.qp = Some(qp);
        self
    }

    /// Sets the stop bit.
    #[must_use]
    pub fn with_stop(mut self) -> Self {
        self.stop = true;
        self
    }

    /// All registers this instruction reads, *including* the qualifying
    /// predicate.
    ///
    /// This is the set a dependence checker must see ready before the
    /// instruction can execute.
    #[must_use]
    pub fn sources(&self) -> RegList {
        let mut l = self.op.sources();
        if let Some(qp) = self.qp {
            // RegList has capacity 4: ops read at most 2 registers, and no
            // opcode reads a predicate directly, so qp always fits and
            // never duplicates an existing entry.
            l.push(RegId::Pred(qp));
        }
        l
    }

    /// All registers this instruction writes (when not nullified).
    #[must_use]
    pub fn dests(&self) -> RegList {
        self.op.dests()
    }

    /// Extracts this instruction's static analysis facts in one walk.
    ///
    /// This is the single shared definition of "what does this
    /// instruction read, write, and occupy" used by both the pipeline
    /// models (`ff-core`'s pre-decoded program store) and the static
    /// legality checker (`ff-verify`); keep additions here so the two
    /// never drift.
    #[must_use]
    pub fn facts(&self) -> InsnFacts {
        InsnFacts {
            srcs: self.sources(),
            op_srcs: self.op.sources(),
            dests: self.dests(),
            fu: self.op.fu_class(),
            lc: self.op.latency_class(),
            is_load: self.op.is_load(),
            is_store: self.op.is_store(),
            is_branch: self.op.is_branch(),
            is_fp: self.op.is_fp(),
            is_halt: matches!(self.op, Opcode::Halt),
        }
    }
}

/// Statically derivable facts about one instruction: operand registers,
/// functional-unit class, latency class, and kind flags.
///
/// Produced by [`Instruction::facts`]; see there for why this lives in
/// `ff-isa` rather than in each analysis client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsnFacts {
    /// All sources, *including* the qualifying predicate.
    pub srcs: RegList,
    /// Operation sources only (excludes the qualifying predicate).
    pub op_srcs: RegList,
    /// Destination registers.
    pub dests: RegList,
    /// Functional-unit class, for slot packing.
    pub fu: FuClass,
    /// Coarse latency class (the machine config maps it to cycles).
    pub lc: LatencyClass,
    /// Whether this is a load (integer or FP).
    pub is_load: bool,
    /// Whether this is a store (integer or FP).
    pub is_store: bool,
    /// Whether this is a branch.
    pub is_branch: bool,
    /// Whether this uses the FP subpipeline.
    pub is_fp: bool,
    /// Whether this is `halt`.
    pub is_halt: bool,
}

impl From<Opcode> for Instruction {
    fn from(op: Opcode) -> Self {
        Instruction::new(op)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(qp) = self.qp {
            write!(f, "({qp}) ")?;
        }
        write!(f, "{}", self.op)?;
        if self.stop {
            write!(f, " ;;")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CmpKind, MemSize};
    use crate::reg::IntReg;

    #[test]
    fn sources_include_qualifying_predicate() {
        let insn =
            Instruction::new(Opcode::Add { d: IntReg::n(1), a: IntReg::n(2), b: IntReg::n(3) })
                .predicated(PredReg::n(5));
        assert!(insn.sources().contains(RegId::Pred(PredReg::n(5))));
        assert_eq!(insn.sources().len(), 3);
    }

    #[test]
    fn duplicate_qp_and_source_not_double_counted() {
        // A cmp reading p5 as qp while also being guarded by p5 can't
        // happen for int ops (preds aren't int sources), but duplicate
        // sources can: add r1 = r2, r2.
        let insn =
            Instruction::new(Opcode::Add { d: IntReg::n(1), a: IntReg::n(2), b: IntReg::n(2) })
                .predicated(PredReg::n(3));
        // r2 appears twice from the op walk; qp dedup only guards the qp
        // insertion path, so expect 3 entries: r2, r2, p3.
        assert_eq!(insn.sources().len(), 3);
    }

    #[test]
    fn display_shows_predicate_and_stop() {
        let insn = Instruction::new(Opcode::Br { target: 4 }).predicated(PredReg::n(1)).with_stop();
        assert_eq!(insn.to_string(), "(p1) br 4 ;;");
    }

    #[test]
    fn builder_style_constructors_compose() {
        let insn = Instruction::new(Opcode::CmpI {
            kind: CmpKind::Lt,
            pt: PredReg::n(1),
            pf: PredReg::n(2),
            a: IntReg::n(9),
            imm: 100,
        })
        .with_stop();
        assert!(insn.stop);
        assert!(insn.qp.is_none());
        assert_eq!(insn.dests().len(), 2);
    }

    #[test]
    fn facts_agree_with_per_field_derivation() {
        let insns = [
            Instruction::new(Opcode::Add { d: IntReg::n(1), a: IntReg::n(2), b: IntReg::n(3) })
                .predicated(PredReg::n(5)),
            Instruction::new(Opcode::Ld {
                d: IntReg::n(4),
                base: IntReg::n(2),
                off: 8,
                size: MemSize::B8,
                signed: false,
            }),
            Instruction::new(Opcode::St {
                src: IntReg::n(1),
                base: IntReg::n(2),
                off: 0,
                size: MemSize::B4,
            }),
            Instruction::new(Opcode::Br { target: 0 }),
            Instruction::new(Opcode::Halt),
        ];
        for insn in insns {
            let f = insn.facts();
            assert_eq!(f.srcs, insn.sources());
            assert_eq!(f.op_srcs, insn.op.sources());
            assert_eq!(f.dests, insn.dests());
            assert_eq!(f.fu, insn.op.fu_class());
            assert_eq!(f.lc, insn.op.latency_class());
            assert_eq!(f.is_load, insn.op.is_load());
            assert_eq!(f.is_store, insn.op.is_store());
            assert_eq!(f.is_branch, insn.op.is_branch());
            assert_eq!(f.is_fp, insn.op.is_fp());
            assert_eq!(f.is_halt, matches!(insn.op, Opcode::Halt));
        }
    }

    #[test]
    fn instructions_stay_compact() {
        assert_eq!(std::mem::size_of::<Opcode>(), 16);
        assert_eq!(std::mem::size_of::<Instruction>(), 24);
    }

    #[test]
    fn store_with_qp_has_three_sources() {
        let insn = Instruction::new(Opcode::St {
            src: IntReg::n(1),
            base: IntReg::n(2),
            off: 0,
            size: MemSize::B8,
        })
        .predicated(PredReg::n(4));
        assert_eq!(insn.sources().len(), 3);
    }
}
