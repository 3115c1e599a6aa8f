//! Shared functional semantics.
//!
//! Both the golden interpreter and the cycle-accurate pipeline models
//! execute instructions through [`evaluate`], which turns an instruction
//! plus a register-file view into an [`Effect`]. The pipelines differ in
//! *when* values become visible, never in *what* an instruction computes —
//! keeping the two-pass model's A-pipe, B-pipe, and the baseline machine
//! bit-identical in architectural outcome by construction.
//!
//! Register values are passed as raw 64-bit images: floating-point
//! registers hold IEEE-754 bit patterns and predicates hold 0 or 1. This
//! lets register files, scoreboards, and the A-file store one flat `u64`
//! array indexed by [`RegId::index`].

use crate::insn::Instruction;
use crate::op::{MemSize, Opcode};
use crate::reg::{FpReg, IntReg, PredReg, RegId};

/// Read access to a register file, in raw-bits representation.
pub trait RegRead {
    /// Returns the raw 64-bit image of `r`.
    fn read(&self, r: RegId) -> u64;

    /// Convenience: integer register value.
    fn read_int(&self, r: IntReg) -> u64 {
        self.read(RegId::Int(r))
    }

    /// Convenience: floating-point register value.
    fn read_fp(&self, r: FpReg) -> f64 {
        f64::from_bits(self.read(RegId::Fp(r)))
    }

    /// Convenience: predicate register value.
    fn read_pred(&self, r: PredReg) -> bool {
        self.read(RegId::Pred(r)) != 0
    }
}

impl RegRead for [u64; crate::reg::TOTAL_REGS] {
    fn read(&self, r: RegId) -> u64 {
        self[r.index()]
    }
}

/// A register write produced by execution: destination and raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegWrite {
    /// Destination register.
    pub reg: RegId,
    /// Raw 64-bit value image.
    pub bits: u64,
}

/// Up to two register writes (compares write both predicate targets).
pub type Writes = arrayvec2::ArrayVec2;

/// Minimal two-element inline vector for [`RegWrite`]s.
pub mod arrayvec2 {
    use super::RegWrite;

    /// Inline vector holding zero, one, or two register writes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ArrayVec2 {
        items: [Option<RegWrite>; 2],
        len: u8,
    }

    impl ArrayVec2 {
        /// Appends a write.
        ///
        /// # Panics
        ///
        /// Panics if two writes are already present.
        pub fn push(&mut self, w: RegWrite) {
            self.items[self.len as usize] = Some(w);
            self.len += 1;
        }

        /// Number of writes.
        #[must_use]
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// Whether there are no writes.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Iterates over the writes.
        pub fn iter(&self) -> impl Iterator<Item = RegWrite> + '_ {
            self.items.iter().take(self.len as usize).map(|w| w.unwrap())
        }
    }
}

/// The architectural effect of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Qualifying predicate was false: no effect (branches report
    /// [`Effect::Branch`] with `taken: false` instead).
    Nullified,
    /// Pure computation: one or two register writes.
    Write(Writes),
    /// A load: the machine must read memory and then produce the register
    /// write via [`load_write`].
    Load {
        /// Effective byte address.
        addr: u64,
        /// Access width in bytes.
        size: u64,
        /// Whether the loaded value is sign-extended.
        signed: bool,
        /// Destination register.
        dest: RegId,
    },
    /// A store of the low `size` bytes of `bits`.
    Store {
        /// Effective byte address.
        addr: u64,
        /// Access width in bytes.
        size: u64,
        /// Raw value image to store.
        bits: u64,
    },
    /// A resolved branch.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// Target instruction index when taken.
        target: usize,
    },
    /// Program termination.
    Halt,
    /// An executed no-op (including a `nop` with a true predicate).
    Nop,
}

impl Effect {
    /// The register writes of a [`Effect::Write`], or an empty set.
    #[must_use]
    pub fn writes(&self) -> Writes {
        match self {
            Effect::Write(w) => *w,
            _ => Writes::default(),
        }
    }
}

fn one(reg: impl Into<RegId>, bits: u64) -> Effect {
    let mut w = Writes::default();
    w.push(RegWrite { reg: reg.into(), bits });
    Effect::Write(w)
}

fn two(r1: impl Into<RegId>, b1: u64, r2: impl Into<RegId>, b2: u64) -> Effect {
    let mut w = Writes::default();
    w.push(RegWrite { reg: r1.into(), bits: b1 });
    w.push(RegWrite { reg: r2.into(), bits: b2 });
    Effect::Write(w)
}

/// Converts raw loaded bytes into the register image for a load's
/// destination, applying zero- or sign-extension.
#[must_use]
pub fn load_write(raw: u64, size: u64, signed: bool) -> u64 {
    if !signed || size == 8 {
        return raw;
    }
    let shift = 64 - 8 * size as u32;
    (((raw << shift) as i64) >> shift) as u64
}

/// Executes the functional semantics of `insn` against a register view.
///
/// Memory is *not* accessed here: loads and stores come back as
/// [`Effect::Load`] / [`Effect::Store`] with the effective address
/// computed, so the caller can route the access through its timing model
/// (cache hierarchy, store buffer, ALAT) of choice.
// `inline`: the interpreter's speed rests on this being inlined into
// `ArchState::step`, which must not depend on which codegen unit the
// compiler happens to put each module in.
#[must_use]
#[inline]
pub fn evaluate<R: RegRead + ?Sized>(insn: &Instruction, regs: &R) -> Effect {
    use Opcode::*;

    let qp_true = insn.qp.is_none_or(|p| regs.read_pred(p));
    if !qp_true {
        // A nullified branch is still a branch to the front end: it simply
        // falls through, which we report as an untaken branch so the
        // pipelines resolve the prediction uniformly.
        if let Br { target } = insn.op {
            return Effect::Branch { taken: false, target };
        }
        return Effect::Nullified;
    }

    let int = |r: IntReg| regs.read_int(r);
    let fp = |r: FpReg| regs.read_fp(r);

    match insn.op {
        Add { d, a, b } => one(d, int(a).wrapping_add(int(b))),
        AddI { d, a, imm } => one(d, int(a).wrapping_add(imm as u64)),
        Sub { d, a, b } => one(d, int(a).wrapping_sub(int(b))),
        And { d, a, b } => one(d, int(a) & int(b)),
        AndI { d, a, imm } => one(d, int(a) & imm as u64),
        Or { d, a, b } => one(d, int(a) | int(b)),
        Xor { d, a, b } => one(d, int(a) ^ int(b)),
        XorI { d, a, imm } => one(d, int(a) ^ imm as u64),
        Shl { d, a, b } => one(d, int(a).wrapping_shl(int(b) as u32 & 63)),
        ShlI { d, a, sh } => one(d, int(a).wrapping_shl(u32::from(sh) & 63)),
        Shr { d, a, b } => one(d, int(a).wrapping_shr(int(b) as u32 & 63)),
        ShrI { d, a, sh } => one(d, int(a).wrapping_shr(u32::from(sh) & 63)),
        Mul { d, a, b } => one(d, int(a).wrapping_mul(int(b))),
        Mov { d, a } => one(d, int(a)),
        MovI { d, imm } => one(d, imm as u64),
        Cmp { kind, pt, pf, a, b } => {
            let t = kind.eval_int(int(a), int(b));
            two(pt, u64::from(t), pf, u64::from(!t))
        }
        CmpI { kind, pt, pf, a, imm } => {
            let t = kind.eval_int(int(a), imm as u64);
            two(pt, u64::from(t), pf, u64::from(!t))
        }
        Ld { d, base, off, size, signed } => Effect::Load {
            addr: int(base).wrapping_add(off as u64),
            size: size.bytes(),
            signed,
            dest: RegId::Int(d),
        },
        St { src, base, off, size } => Effect::Store {
            addr: int(base).wrapping_add(off as u64),
            size: size.bytes(),
            bits: int(src) & mask(size),
        },
        LdF { d, base, off } => Effect::Load {
            addr: int(base).wrapping_add(off as u64),
            size: 8,
            signed: false,
            dest: RegId::Fp(d),
        },
        StF { src, base, off } => Effect::Store {
            addr: int(base).wrapping_add(off as u64),
            size: 8,
            bits: fp(src).to_bits(),
        },
        FAdd { d, a, b } => one(d, (fp(a) + fp(b)).to_bits()),
        FSub { d, a, b } => one(d, (fp(a) - fp(b)).to_bits()),
        FMul { d, a, b } => one(d, (fp(a) * fp(b)).to_bits()),
        FDiv { d, a, b } => one(d, (fp(a) / fp(b)).to_bits()),
        FMov { d, a } => one(d, fp(a).to_bits()),
        FMovI { d, imm } => one(d, imm.to_bits()),
        ICvtF { d, a } => one(d, (int(a) as i64 as f64).to_bits()),
        FCvtI { d, a } => one(d, (fp(a) as i64) as u64),
        FCmp { kind, pt, pf, a, b } => {
            let t = kind.eval_fp(fp(a), fp(b));
            two(pt, u64::from(t), pf, u64::from(!t))
        }
        Br { target } => Effect::Branch { taken: true, target },
        Halt => Effect::Halt,
        Nop => Effect::Nop,
    }
}

fn mask(size: MemSize) -> u64 {
    match size {
        MemSize::B8 => u64::MAX,
        s => (1u64 << (8 * s.bytes())) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpKind;
    use crate::reg::TOTAL_REGS;

    fn regs() -> [u64; TOTAL_REGS] {
        [0u64; TOTAL_REGS]
    }

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    fn f(i: u8) -> FpReg {
        FpReg::n(i)
    }

    fn p(i: u8) -> PredReg {
        PredReg::n(i)
    }

    #[test]
    fn add_wraps() {
        let mut rf = regs();
        rf[r(1).raw() as usize] = u64::MAX;
        rf[r(2).raw() as usize] = 2;
        let e = evaluate(&Instruction::new(Opcode::Add { d: r(3), a: r(1), b: r(2) }), &rf);
        let w: Vec<_> = e.writes().iter().collect();
        assert_eq!(w[0].bits, 1);
    }

    #[test]
    fn nullified_instruction_has_no_effect() {
        let rf = regs(); // p4 == 0
        let e = evaluate(&Instruction::new(Opcode::MovI { d: r(1), imm: 9 }).predicated(p(4)), &rf);
        assert_eq!(e, Effect::Nullified);
    }

    #[test]
    fn nullified_branch_reports_untaken() {
        let rf = regs();
        let e = evaluate(&Instruction::new(Opcode::Br { target: 0 }).predicated(p(4)), &rf);
        assert_eq!(e, Effect::Branch { taken: false, target: 0 });
    }

    #[test]
    fn taken_predicated_branch() {
        let mut rf = regs();
        rf[RegId::Pred(p(4)).index()] = 1;
        let e = evaluate(&Instruction::new(Opcode::Br { target: 0 }).predicated(p(4)), &rf);
        assert_eq!(e, Effect::Branch { taken: true, target: 0 });
    }

    #[test]
    fn cmp_writes_complementary_predicates() {
        let mut rf = regs();
        rf[r(1).raw() as usize] = 5;
        let e = evaluate(
            &Instruction::new(Opcode::CmpI {
                kind: CmpKind::Lt,
                pt: p(1),
                pf: p(2),
                a: r(1),
                imm: 10,
            }),
            &rf,
        );
        let w: Vec<_> = e.writes().iter().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].bits, 1);
        assert_eq!(w[1].bits, 0);
    }

    #[test]
    fn load_computes_effective_address() {
        let mut rf = regs();
        rf[r(2).raw() as usize] = 0x1000;
        let e = evaluate(
            &Instruction::new(Opcode::Ld {
                d: r(1),
                base: r(2),
                off: -16,
                size: MemSize::B4,
                signed: true,
            }),
            &rf,
        );
        assert_eq!(e, Effect::Load { addr: 0x0FF0, size: 4, signed: true, dest: RegId::Int(r(1)) });
    }

    #[test]
    fn store_masks_value_to_width() {
        let mut rf = regs();
        rf[r(1).raw() as usize] = 0xAABB_CCDD_EEFF_1122;
        rf[r(2).raw() as usize] = 0x2000;
        let e = evaluate(
            &Instruction::new(Opcode::St { src: r(1), base: r(2), off: 0, size: MemSize::B2 }),
            &rf,
        );
        assert_eq!(e, Effect::Store { addr: 0x2000, size: 2, bits: 0x1122 });
    }

    #[test]
    fn load_write_sign_extends() {
        assert_eq!(load_write(0x80, 1, true), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(load_write(0x80, 1, false), 0x80);
        assert_eq!(load_write(0x7F, 1, true), 0x7F);
        assert_eq!(load_write(0xFFFF_FFFF, 4, true), u64::MAX);
    }

    #[test]
    fn fp_ops_round_trip_through_bits() {
        let mut rf = regs();
        rf[RegId::Fp(f(1)).index()] = 1.5f64.to_bits();
        rf[RegId::Fp(f(2)).index()] = 2.25f64.to_bits();
        let e = evaluate(&Instruction::new(Opcode::FMul { d: f(3), a: f(1), b: f(2) }), &rf);
        let w: Vec<_> = e.writes().iter().collect();
        assert_eq!(f64::from_bits(w[0].bits), 3.375);
    }

    #[test]
    fn conversions() {
        let mut rf = regs();
        rf[r(1).raw() as usize] = (-7i64) as u64;
        let e = evaluate(&Instruction::new(Opcode::ICvtF { d: f(1), a: r(1) }), &rf);
        assert_eq!(f64::from_bits(e.writes().iter().next().unwrap().bits), -7.0);

        rf[RegId::Fp(f(2)).index()] = (-2.9f64).to_bits();
        let e = evaluate(&Instruction::new(Opcode::FCvtI { d: r(2), a: f(2) }), &rf);
        assert_eq!(e.writes().iter().next().unwrap().bits as i64, -2);
    }

    #[test]
    fn halt_and_nop() {
        let rf = regs();
        assert_eq!(evaluate(&Instruction::new(Opcode::Halt), &rf), Effect::Halt);
        assert_eq!(evaluate(&Instruction::new(Opcode::Nop), &rf), Effect::Nop);
    }
}
