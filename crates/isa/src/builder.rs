//! Assembler-style program construction with labels.
//!
//! [`ProgramBuilder`] is how kernels are written: push instructions,
//! mark issue-group boundaries with [`ProgramBuilder::stop`], and use
//! labels for branch targets. `build` patches label fixups and runs full
//! [`Program`] validation.
//!
//! # Examples
//!
//! A counted loop:
//!
//! ```
//! use ff_isa::{ProgramBuilder, CmpKind};
//! use ff_isa::reg::{IntReg, PredReg};
//!
//! let (i, n) = (IntReg::n(1), IntReg::n(2));
//! let (pt, pf) = (PredReg::n(1), PredReg::n(2));
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(i, 0);
//! b.movi(n, 10);
//! b.stop();
//! let top = b.here();
//! b.addi(i, i, 1);
//! b.stop();
//! b.cmp(CmpKind::Lt, pt, pf, i, n);
//! b.stop();
//! b.br_cond(pt, top);
//! b.stop();
//! b.halt();
//! let program = b.build()?;
//! assert!(program.group_count() >= 4);
//! # Ok::<(), ff_isa::BuildProgramError>(())
//! ```

use crate::insn::Instruction;
use crate::op::{MemSize, Opcode};
use crate::program::{Program, ValidateProgramError};
use crate::reg::{IntReg, PredReg};
use std::fmt;

/// An abstract branch target handed out by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// A label used as a branch target was never bound.
    UnboundLabel(Label),
    /// The finished sequence failed [`Program`] validation.
    Invalid(ValidateProgramError),
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::UnboundLabel(l) => write!(f, "label {:?} was never bound", l),
            BuildProgramError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for BuildProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildProgramError::Invalid(e) => Some(e),
            BuildProgramError::UnboundLabel(_) => None,
        }
    }
}

impl From<ValidateProgramError> for BuildProgramError {
    fn from(e: ValidateProgramError) -> Self {
        BuildProgramError::Invalid(e)
    }
}

/// Incremental program constructor with label fix-ups.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instruction>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
    pending_qp: Option<PredReg>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Allocates a label that can be bound later with
    /// [`ProgramBuilder::bind`] (for forward branches).
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position. Forces an issue-group
    /// boundary by setting the stop bit of the previous instruction, since
    /// branch targets must begin a group.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.stop();
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Whether `label` has been bound to a position.
    #[must_use]
    pub fn is_bound(&self, label: Label) -> bool {
        self.labels[label.0].is_some()
    }

    /// Allocates a label bound to the current position (for backward
    /// branches).
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Sets the stop bit on the most recent instruction, ending the
    /// current issue group. Idempotent; no-op at the very start.
    pub fn stop(&mut self) {
        if let Some(last) = self.instrs.last_mut() {
            last.stop = true;
        }
    }

    /// Applies a qualifying predicate to the *next* pushed instruction.
    pub fn with_pred(&mut self, qp: PredReg) -> &mut Self {
        self.pending_qp = Some(qp);
        self
    }

    /// Pushes a raw opcode (honouring any pending predicate).
    pub fn push(&mut self, op: Opcode) -> &mut Self {
        let mut insn = Instruction::new(op);
        insn.qp = self.pending_qp.take();
        self.instrs.push(insn);
        self
    }

    /// Finishes the program: patches label fixups and validates.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProgramError::UnboundLabel`] if a branch references
    /// a label that was never bound, or [`BuildProgramError::Invalid`] if
    /// the finished sequence fails [`Program`] validation.
    pub fn build(mut self) -> Result<Program, BuildProgramError> {
        for &(pc, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(BuildProgramError::UnboundLabel(label))?;
            if let Opcode::Br { target: ref mut t } = self.instrs[pc].op {
                *t = target;
            }
        }
        Ok(Program::new(self.instrs)?)
    }

    // The helper of every other opcode is generated by its row of the
    // opcode table in `op.rs`.

    /// `d = mem8[base + off]`
    pub fn ld8(&mut self, d: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::Ld { d, base, off, size: MemSize::B8, signed: false })
    }

    /// `d = mem4[base + off]` zero-extended
    pub fn ld4(&mut self, d: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::Ld { d, base, off, size: MemSize::B4, signed: false })
    }

    /// `d = mem1[base + off]` zero-extended
    pub fn ld1(&mut self, d: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::Ld { d, base, off, size: MemSize::B1, signed: false })
    }

    /// `mem8[base + off] = src`
    pub fn st8(&mut self, src: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::St { src, base, off, size: MemSize::B8 })
    }

    /// `mem4[base + off] = src`
    pub fn st4(&mut self, src: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::St { src, base, off, size: MemSize::B4 })
    }

    /// `mem1[base + off] = src`
    pub fn st1(&mut self, src: IntReg, base: IntReg, off: i64) -> &mut Self {
        self.push(Opcode::St { src, base, off, size: MemSize::B1 })
    }

    /// Unconditional branch to `label`.
    pub fn br(&mut self, label: Label) -> &mut Self {
        let pc = self.instrs.len();
        self.fixups.push((pc, label));
        self.push(Opcode::Br { target: usize::MAX })
    }

    /// Conditional branch to `label` when predicate `qp` is true.
    pub fn br_cond(&mut self, qp: PredReg, label: Label) -> &mut Self {
        let pc = self.instrs.len();
        self.fixups.push((pc, label));
        self.with_pred(qp);
        self.push(Opcode::Br { target: usize::MAX })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ArchState;
    use crate::mem_image::MemoryImage;
    use crate::op::CmpKind;

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    #[test]
    fn backward_branch_loop_executes() {
        let mut b = ProgramBuilder::new();
        b.movi(r(1), 0);
        b.stop();
        let top = b.here();
        b.addi(r(1), r(1), 2);
        b.stop();
        b.cmpi(CmpKind::Lt, p(1), p(2), r(1), 10);
        b.stop();
        b.br_cond(p(1), top);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(1000);
        assert_eq!(st.int(r(1)), 10);
    }

    #[test]
    fn forward_branch_skips_code() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.movi(r(1), 1);
        b.stop();
        b.br(skip);
        b.stop();
        b.movi(r(1), 99); // never executed
        b.stop();
        b.bind(skip);
        b.addi(r(2), r(1), 1);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(100);
        assert_eq!(st.int(r(1)), 1);
        assert_eq!(st.int(r(2)), 2);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let ghost = b.new_label();
        b.br(ghost);
        b.stop();
        b.halt();
        match b.build() {
            Err(BuildProgramError::UnboundLabel(_)) => {}
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    fn bind_forces_group_boundary() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.nop(); // no explicit stop before bind
        b.bind(l);
        b.br(l); // branch back to the bound pc
        b.stop();
        b.halt();
        // would fail validation if `l` weren't a group start
        let program = b.build().unwrap();
        assert!(program.is_group_start(1));
    }

    #[test]
    fn with_pred_applies_to_next_instruction_only() {
        let mut b = ProgramBuilder::new();
        b.with_pred(p(3));
        b.movi(r(1), 5);
        b.movi(r(2), 6);
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        assert_eq!(program.fetch(0).qp, Some(p(3)));
        assert_eq!(program.fetch(1).qp, None);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn stop_is_idempotent_and_safe_when_empty() {
        let mut b = ProgramBuilder::new();
        b.stop(); // no instructions yet: no-op
        b.nop();
        b.stop();
        b.stop();
        b.halt();
        let program = b.build().unwrap();
        assert!(program.fetch(0).stop);
    }
}
