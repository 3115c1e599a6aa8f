//! Golden-model functional interpreter.
//!
//! [`ArchState`] executes a [`Program`] one instruction at a time with no
//! timing model. The pipeline simulators are differentially tested against
//! it: for any program, the final architectural register file, memory, and
//! retired-instruction count must match this interpreter exactly.

use crate::mem_image::MemoryImage;
use crate::program::Program;
use crate::reg::{FpReg, IntReg, PredReg, RegId, TOTAL_REGS};
use crate::semantics::{evaluate, load_write, Effect, RegRead};

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The program executed `halt`.
    Halted,
    /// The dynamic instruction limit was reached first.
    InstrLimit,
}

/// Summary of a completed interpreter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed (including nullified ones).
    pub instrs: u64,
    /// Why execution stopped.
    pub stop: StopReason,
}

/// Complete architectural state: program counter, the three register
/// files (as one flat raw-bits array), and data memory.
///
/// # Examples
///
/// ```
/// use ff_isa::{ArchState, Instruction, MemoryImage, Opcode, Program};
/// use ff_isa::reg::IntReg;
///
/// let program = Program::new(vec![
///     Instruction::new(Opcode::MovI { d: IntReg::n(1), imm: 7 }).with_stop(),
///     Instruction::new(Opcode::Halt),
/// ])?;
/// let mut state = ArchState::new(&program, MemoryImage::new());
/// let summary = state.run(1_000);
/// assert_eq!(summary.instrs, 2);
/// assert_eq!(state.int(IntReg::n(1)), 7);
/// # Ok::<(), ff_isa::ValidateProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArchState<'p> {
    program: &'p Program,
    pc: usize,
    regs: [u64; TOTAL_REGS],
    mem: MemoryImage,
    halted: bool,
    instrs: u64,
}

impl<'p> ArchState<'p> {
    /// Creates a fresh state at `pc = 0` with all registers zero.
    #[must_use]
    pub fn new(program: &'p Program, mem: MemoryImage) -> Self {
        ArchState { program, pc: 0, regs: [0; TOTAL_REGS], mem, halted: false, instrs: 0 }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the program has executed `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.instrs
    }

    /// Raw register-file image (for differential comparison).
    #[must_use]
    pub fn reg_bits(&self) -> &[u64; TOTAL_REGS] {
        &self.regs
    }

    /// The data memory.
    #[must_use]
    pub fn mem(&self) -> &MemoryImage {
        &self.mem
    }

    /// Mutable access to data memory (e.g. to pre-load inputs).
    pub fn mem_mut(&mut self) -> &mut MemoryImage {
        &mut self.mem
    }

    /// Integer register value.
    #[must_use]
    pub fn int(&self, r: IntReg) -> u64 {
        self.regs[RegId::Int(r).index()]
    }

    /// Floating-point register value.
    #[must_use]
    pub fn fp(&self, r: FpReg) -> f64 {
        f64::from_bits(self.regs[RegId::Fp(r).index()])
    }

    /// Predicate register value.
    #[must_use]
    pub fn pred(&self, r: PredReg) -> bool {
        self.regs[RegId::Pred(r).index()] != 0
    }

    /// Sets an integer register (e.g. to pass kernel arguments).
    pub fn set_int(&mut self, r: IntReg, value: u64) {
        self.regs[RegId::Int(r).index()] = value;
    }

    /// Executes one instruction. Returns `false` once halted (further
    /// calls are no-ops).
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(insn) = self.program.get(self.pc) else {
            // Validated programs cannot fall off the end; treat it as halt
            // defensively for robustness under manual state manipulation.
            self.halted = true;
            return false;
        };
        self.instrs += 1;
        let mut next_pc = self.pc + 1;
        match evaluate(insn, &self.regs) {
            Effect::Nullified | Effect::Nop => {}
            Effect::Write(writes) => {
                for w in writes.iter() {
                    self.regs[w.reg.index()] = w.bits;
                }
            }
            Effect::Load { addr, size, signed, dest } => {
                let raw = self.mem.load(addr, size);
                self.regs[dest.index()] = load_write(raw, size, signed);
            }
            Effect::Store { addr, size, bits } => {
                self.mem.write(addr, size, bits);
            }
            Effect::Branch { taken, target } => {
                if taken {
                    next_pc = target;
                }
            }
            Effect::Halt => {
                self.halted = true;
                return false;
            }
        }
        self.pc = next_pc;
        true
    }

    /// Runs until `halt` or until `max_instrs` dynamic instructions.
    pub fn run(&mut self, max_instrs: u64) -> RunSummary {
        let start = self.instrs;
        while !self.halted && self.instrs - start < max_instrs {
            if !self.step() {
                break;
            }
        }
        RunSummary {
            instrs: self.instrs,
            stop: if self.halted { StopReason::Halted } else { StopReason::InstrLimit },
        }
    }
}

impl RegRead for ArchState<'_> {
    fn read(&self, r: RegId) -> u64 {
        self.regs[r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Instruction;
    use crate::op::{CmpKind, MemSize, Opcode};

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    fn prog(instrs: Vec<Instruction>) -> Program {
        Program::new(instrs).expect("valid test program")
    }

    #[test]
    fn counted_loop_sums_array() {
        // r1 = base, r2 = i, r3 = sum, loop 4 elements of 8 bytes
        let program = prog(vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 0x1000 }),
            Instruction::new(Opcode::MovI { d: r(2), imm: 0 }),
            Instruction::new(Opcode::MovI { d: r(3), imm: 0 }).with_stop(),
            // loop: (pc 3)
            Instruction::new(Opcode::ShlI { d: r(4), a: r(2), sh: 3 }).with_stop(),
            Instruction::new(Opcode::Add { d: r(5), a: r(1), b: r(4) }).with_stop(),
            Instruction::new(Opcode::Ld {
                d: r(6),
                base: r(5),
                off: 0,
                size: MemSize::B8,
                signed: false,
            })
            .with_stop(),
            Instruction::new(Opcode::Add { d: r(3), a: r(3), b: r(6) }),
            Instruction::new(Opcode::AddI { d: r(2), a: r(2), imm: 1 }).with_stop(),
            Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(2),
                imm: 4,
            })
            .with_stop(),
            Instruction::new(Opcode::Br { target: 3 }).predicated(p(1)).with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let mut mem = MemoryImage::new();
        mem.write_u64s(0x1000, [10, 20, 30, 40]);
        let mut st = ArchState::new(&program, mem);
        let summary = st.run(10_000);
        assert_eq!(summary.stop, StopReason::Halted);
        assert_eq!(st.int(r(3)), 100);
        assert_eq!(st.int(r(2)), 4);
    }

    #[test]
    fn instruction_limit_stops_infinite_loop() {
        let program = prog(vec![Instruction::new(Opcode::Br { target: 0 })]);
        let mut st = ArchState::new(&program, MemoryImage::new());
        let summary = st.run(500);
        assert_eq!(summary.stop, StopReason::InstrLimit);
        assert_eq!(summary.instrs, 500);
        assert!(!st.is_halted());
    }

    #[test]
    fn store_then_load_round_trips_through_memory() {
        let program = prog(vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 0x40 }),
            Instruction::new(Opcode::MovI { d: r(2), imm: -1 }).with_stop(),
            Instruction::new(Opcode::St { src: r(2), base: r(1), off: 0, size: MemSize::B4 })
                .with_stop(),
            Instruction::new(Opcode::Ld {
                d: r(3),
                base: r(1),
                off: 0,
                size: MemSize::B4,
                signed: true,
            })
            .with_stop(),
            Instruction::new(Opcode::Ld {
                d: r(4),
                base: r(1),
                off: 0,
                size: MemSize::B4,
                signed: false,
            })
            .with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(100);
        assert_eq!(st.int(r(3)), u64::MAX); // sign-extended
        assert_eq!(st.int(r(4)), 0xFFFF_FFFF); // zero-extended
    }

    #[test]
    fn nullified_store_does_not_write_memory() {
        let program = prog(vec![
            Instruction::new(Opcode::MovI { d: r(1), imm: 0x40 }),
            Instruction::new(Opcode::MovI { d: r(2), imm: 7 }).with_stop(),
            Instruction::new(Opcode::St { src: r(2), base: r(1), off: 0, size: MemSize::B8 })
                .predicated(p(5))
                .with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(100);
        assert_eq!(st.mem().read_u64(0x40), 0);
    }

    #[test]
    fn halt_reports_once_and_stays_halted() {
        let program = prog(vec![Instruction::new(Opcode::Halt)]);
        let mut st = ArchState::new(&program, MemoryImage::new());
        assert!(!st.step()); // halt executes, returns false
        assert!(st.is_halted());
        assert_eq!(st.instr_count(), 1);
        assert!(!st.step());
        assert_eq!(st.instr_count(), 1);
    }

    #[test]
    fn set_int_passes_arguments() {
        let program = prog(vec![
            Instruction::new(Opcode::AddI { d: r(2), a: r(1), imm: 1 }).with_stop(),
            Instruction::new(Opcode::Halt),
        ]);
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.set_int(r(1), 41);
        st.run(10);
        assert_eq!(st.int(r(2)), 42);
    }
}
