//! Operation definitions for the EPIC-style ISA.
//!
//! [`Opcode`] is a closed IR-style enum: each variant embeds its operand
//! register names and immediates. This keeps an instruction fully
//! self-describing — the pipeline models never consult a side table to
//! discover what an instruction reads or writes; they call
//! [`Opcode::sources`] and [`Opcode::dests`].
//!
//! Each opcode is declared once, as one row of the `opcodes!` table in
//! this module: its fields, mnemonic, operand text, functional-unit and
//! latency class, and which fields it reads and writes. The table
//! generates the enum, those walks and classes, `mnemonic`, `Display`,
//! the assembler's reading of each instruction and the
//! [`ProgramBuilder`](crate::ProgramBuilder) helpers. Only the semantics,
//! [`crate::semantics::evaluate`], is written by hand.

use crate::asm::{Cursor, ParseAsmError};
use crate::reg::{FpReg, IntReg, PredReg, RegId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison condition for [`Opcode::Cmp`], [`Opcode::CmpI`] and
/// [`Opcode::FCmp`].
///
/// Integer comparisons interpret their operands as signed two's-complement
/// values unless the condition is one of the explicitly unsigned variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-than-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-than-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-than-or-equal.
    Geu,
}

impl CmpKind {
    /// Evaluates the condition on two integer operands.
    #[must_use]
    pub fn eval_int(self, a: u64, b: u64) -> bool {
        match self {
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
            CmpKind::Lt => (a as i64) < (b as i64),
            CmpKind::Le => (a as i64) <= (b as i64),
            CmpKind::Gt => (a as i64) > (b as i64),
            CmpKind::Ge => (a as i64) >= (b as i64),
            CmpKind::Ltu => a < b,
            CmpKind::Geu => a >= b,
        }
    }

    /// Evaluates the condition on two floating-point operands.
    ///
    /// NaN compares false under every condition except [`CmpKind::Ne`],
    /// matching IEEE-754 unordered-comparison semantics.
    #[must_use]
    pub fn eval_fp(self, a: f64, b: f64) -> bool {
        match self {
            CmpKind::Eq => a == b,
            CmpKind::Ne => a != b,
            CmpKind::Lt => a < b,
            CmpKind::Le => a <= b,
            CmpKind::Gt => a > b,
            CmpKind::Ge => a >= b,
            CmpKind::Ltu => a < b,
            CmpKind::Geu => a >= b,
        }
    }
}

impl fmt::Display for CmpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The spelling less the `.` that joins it to its mnemonic.
        f.write_str(&self.spelling()[1..])
    }
}

/// Access width of an integer memory operation, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemSize {
    /// The access width in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }
}

/// The functional-unit class an operation executes on.
///
/// The simulated machine (paper Table 1) provides per-cycle issue slots for
/// 5 ALU, 3 memory, 3 floating-point, and 3 branch operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuClass {
    /// Integer ALU (arithmetic, logic, compares, moves).
    Alu,
    /// Memory port (loads and stores, integer and FP).
    Mem,
    /// Floating-point unit.
    Fp,
    /// Branch unit.
    Branch,
}

impl FuClass {
    /// Every class, in [`FuClass::index`] order.
    pub const ALL: [FuClass; 4] = [FuClass::Alu, FuClass::Mem, FuClass::Fp, FuClass::Branch];

    /// Dense index (0..4) for per-class count arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            FuClass::Alu => 0,
            FuClass::Mem => 1,
            FuClass::Fp => 2,
            FuClass::Branch => 3,
        }
    }

    /// Human-readable slot label ("ALU", "memory", "FP", "branch").
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FuClass::Alu => "ALU",
            FuClass::Mem => "memory",
            FuClass::Fp => "FP",
            FuClass::Branch => "branch",
        }
    }
}

/// Coarse latency class of an operation; the pipeline configuration maps
/// each class to a cycle count.
///
/// Loads are *variable* latency — the memory hierarchy decides — so they
/// carry no fixed class value here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Single-cycle integer operation.
    Int,
    /// Pipelined integer multiply.
    Mul,
    /// Pipelined FP add/sub/mul/convert/compare.
    FpArith,
    /// Unpipelined FP divide.
    FpDiv,
    /// Load: latency determined by the memory hierarchy.
    Load,
    /// Store: occupies a memory port for one cycle.
    Store,
    /// Branch: direction known at execute.
    Branch,
}

/// A field spelled into its mnemonic rather than written as an operand:
/// `ld4s` is `ld` + [`MemSize`] + signedness, `cmp.lt` is `cmp` +
/// [`CmpKind`].
pub(crate) trait Spelled: Copy + 'static {
    /// Every value, so a spelling can be read back.
    const ALL: &'static [Self];
    /// The text this value adds to the mnemonic.
    fn spelling(self) -> &'static str;
}

impl Spelled for MemSize {
    const ALL: &'static [Self] = &[MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
    fn spelling(self) -> &'static str {
        match self {
            MemSize::B1 => "1",
            MemSize::B2 => "2",
            MemSize::B4 => "4",
            MemSize::B8 => "8",
        }
    }
}

/// A load's signedness: `ld4s` sign-extends, `ld4` zero-extends.
impl Spelled for bool {
    const ALL: &'static [Self] = &[false, true];
    fn spelling(self) -> &'static str {
        if self {
            "s"
        } else {
            ""
        }
    }
}

impl Spelled for CmpKind {
    const ALL: &'static [Self] = &[
        CmpKind::Eq,
        CmpKind::Ne,
        CmpKind::Lt,
        CmpKind::Le,
        CmpKind::Gt,
        CmpKind::Ge,
        CmpKind::Ltu,
        CmpKind::Geu,
    ];
    fn spelling(self) -> &'static str {
        match self {
            CmpKind::Eq => ".eq",
            CmpKind::Ne => ".ne",
            CmpKind::Lt => ".lt",
            CmpKind::Le => ".le",
            CmpKind::Gt => ".gt",
            CmpKind::Ge => ".ge",
            CmpKind::Ltu => ".ltu",
            CmpKind::Geu => ".geu",
        }
    }
}

/// Reads the longest spelling of a `T` off the front of `text` (so
/// `.ltu` is never read as `.lt`), returning it and the unread rest.
fn read_spelled<T: Spelled>(text: &str) -> Option<(T, &str)> {
    let value = T::ALL
        .iter()
        .copied()
        .filter(|v| text.starts_with(v.spelling()))
        .max_by_key(|v| v.spelling().len())?;
    Some((value, &text[value.spelling().len()..]))
}

/// Writes (`@write`) or reads (`@read`) the operand text of an
/// [`opcodes!`] row. The text names fields where their values go: `,`
/// prints as `, `, any other punctuation with a space on each side,
/// `[..]` around what it encloses, and `#field` in hex. The assembler
/// reads the fields in the order they appear and skips the punctuation,
/// which its tokenizer drops.
macro_rules! operand_text {
    (@write $f:ident;) => {};
    (@write $f:ident; $($text:tt)+) => {
        $f.write_str(" ")?;
        operand_text!(@w $f; $($text)+);
    };
    (@w $f:ident;) => {};
    (@w $f:ident; [$($inner:tt)*] $($rest:tt)*) => {
        $f.write_str("[")?;
        operand_text!(@w $f; $($inner)*);
        $f.write_str("]")?;
        operand_text!(@w $f; $($rest)*);
    };
    (@w $f:ident; , $($rest:tt)*) => {
        $f.write_str(", ")?;
        operand_text!(@w $f; $($rest)*);
    };
    (@w $f:ident; #$field:ident $($rest:tt)*) => {
        write!($f, "{:#x}", $field)?;
        operand_text!(@w $f; $($rest)*);
    };
    (@w $f:ident; $field:ident $($rest:tt)*) => {
        write!($f, "{}", $field)?;
        operand_text!(@w $f; $($rest)*);
    };
    (@w $f:ident; $punct:tt $($rest:tt)*) => {
        $f.write_str(concat!(" ", stringify!($punct), " "))?;
        operand_text!(@w $f; $($rest)*);
    };
    (@read $ops:ident;) => {};
    (@read $ops:ident; [$($inner:tt)*] $($rest:tt)*) => {
        operand_text!(@read $ops; $($inner)* $($rest)*);
    };
    (@read $ops:ident; #$field:ident $($rest:tt)*) => {
        operand_text!(@read $ops; $field $($rest)*);
    };
    (@read $ops:ident; $field:ident $($rest:tt)*) => {
        let $field = $ops.operand()?;
        operand_text!(@read $ops; $($rest)*);
    };
    (@read $ops:ident; $punct:tt $($rest:tt)*) => {
        operand_text!(@read $ops; $($rest)*);
    };
}

/// The [`ProgramBuilder`](crate::ProgramBuilder) helper of one
/// [`opcodes!`] row: named after the mnemonic, taking the variant's
/// fields in order.
macro_rules! builder_helper {
    // A branch takes a label: `ProgramBuilder::br` and `br_cond`.
    ($(#[$doc:meta])* br $($rest:tt)*) => {};
    ($(#[$doc:meta])* $mn:ident $V:ident $({ $($field:ident: $ty:ty),* })?) => {
        $(#[$doc])*
        pub fn $mn(&mut self, $($($field: $ty),*)?) -> &mut Self {
            self.push(Opcode::$V { $($($field),*)? })
        }
    };
}

/// Declares every opcode once and generates everything that walks them.
/// A row reads
///
/// ```text
/// Variant { field: Type, .. } => mnemonic spelled.. (operand text) Fu Lc [reads] [writes];
/// ```
///
/// * `spelled` names the fields written into the mnemonic, each through
///   [`Spelled`]: `ld size signed` prints `ld4s`, `cmp kind` prints
///   `cmp.lt`;
/// * the operand text follows the mnemonic (see [`operand_text!`]);
/// * `Fu` is a [`FuClass`] and `Lc` a [`LatencyClass`] variant;
/// * `reads` and `writes` list the register fields in
///   [`Opcode::sources`] and [`Opcode::dests`] order.
///
/// From the rows come [`Opcode`] itself, its register walks, classes,
/// mnemonic and `Display`, the assembler's reading of each instruction
/// and one [`ProgramBuilder`](crate::ProgramBuilder) helper per row.
/// Only the semantics, [`crate::semantics::evaluate`], is written by
/// hand.
macro_rules! opcodes {
    ($(
        $(#[$doc:meta])*
        $V:ident $({ $($field:ident: $ty:ty),* })?
            => $mn:ident $($spelled:ident)* ($($text:tt)*) $fu:ident $lc:ident
            [$($src:ident),*] [$($dst:ident),*];
    )*) => {
        /// A machine operation together with its operand fields.
        ///
        /// Every variant names the registers it reads and writes directly; use
        /// [`Opcode::sources`] / [`Opcode::dests`] for generic dependence walks.
        #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
        #[allow(missing_docs)] // operand fields are self-describing (d/a/b/imm/base/off)
        pub enum Opcode {
            $($(#[$doc])* $V $({ $($field: $ty),* })?,)*
        }

        impl Opcode {
            /// The registers this operation reads, excluding any qualifying
            /// predicate (which lives on the [`crate::insn::Instruction`]).
            #[must_use]
            pub fn sources(&self) -> RegList {
                let mut l = RegList::default();
                match *self {
                    $(Opcode::$V { $($src,)* .. } => { $(l.push($src);)* })*
                }
                l
            }

            /// The registers this operation writes.
            #[must_use]
            pub fn dests(&self) -> RegList {
                let mut l = RegList::default();
                match *self {
                    $(Opcode::$V { $($dst,)* .. } => { $(l.push($dst);)* })*
                }
                l
            }

            /// The functional-unit class this operation issues to.
            #[must_use]
            pub fn fu_class(&self) -> FuClass {
                match self {
                    $(Opcode::$V { .. } => FuClass::$fu,)*
                }
            }

            /// The latency class of this operation.
            #[must_use]
            pub fn latency_class(&self) -> LatencyClass {
                match self {
                    $(Opcode::$V { .. } => LatencyClass::$lc,)*
                }
            }

            /// The mnemonic for display purposes.
            #[must_use]
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $(Opcode::$V { .. } => stringify!($mn),)*
                }
            }

            /// Reads the operation spelled `mnemonic` whose operand
            /// tokens `ops` yields, as [`Display`](fmt::Display) prints it.
            pub(crate) fn parse_text(
                mnemonic: &str,
                ops: &mut Cursor<'_>,
            ) -> Result<Opcode, ParseAsmError> {
                $('row: {
                    let Some(rest) = mnemonic.strip_prefix(stringify!($mn)) else { break 'row };
                    $(let Some(($spelled, rest)) = read_spelled(rest) else { break 'row };)*
                    if !rest.is_empty() {
                        break 'row;
                    }
                    operand_text!(@read ops; $($text)*);
                    return Ok(Opcode::$V { $($($field),*)? });
                })*
                Err(ops.error(format!("unknown mnemonic `{mnemonic}`")))
            }
        }

        impl fmt::Display for Opcode {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {
                    $(Opcode::$V { $($($field),*)? } => {
                        f.write_str(stringify!($mn))?;
                        $(f.write_str($spelled.spelling())?;)*
                        operand_text!(@write f; $($text)*);
                    })*
                }
                Ok(())
            }
        }

        impl crate::builder::ProgramBuilder {
            $(builder_helper! { $(#[$doc])* $mn $V $({ $($field: $ty),* })? })*
        }
    };
}

opcodes! {
    // ---- integer ALU -------------------------------------------------
    /// `d = a + b`
    Add { d: IntReg, a: IntReg, b: IntReg } => add (d = a, b) Alu Int [a, b] [d];
    /// `d = a + imm`
    AddI { d: IntReg, a: IntReg, imm: i64 } => addi (d = a, imm) Alu Int [a] [d];
    /// `d = a - b`
    Sub { d: IntReg, a: IntReg, b: IntReg } => sub (d = a, b) Alu Int [a, b] [d];
    /// `d = a & b`
    And { d: IntReg, a: IntReg, b: IntReg } => and (d = a, b) Alu Int [a, b] [d];
    /// `d = a & imm`
    AndI { d: IntReg, a: IntReg, imm: i64 } => andi (d = a, #imm) Alu Int [a] [d];
    /// `d = a | b`
    Or { d: IntReg, a: IntReg, b: IntReg } => or (d = a, b) Alu Int [a, b] [d];
    /// `d = a ^ b`
    Xor { d: IntReg, a: IntReg, b: IntReg } => xor (d = a, b) Alu Int [a, b] [d];
    /// `d = a ^ imm`
    XorI { d: IntReg, a: IntReg, imm: i64 } => xori (d = a, #imm) Alu Int [a] [d];
    /// `d = a << (b & 63)`
    Shl { d: IntReg, a: IntReg, b: IntReg } => shl (d = a, b) Alu Int [a, b] [d];
    /// `d = a << sh`
    ShlI { d: IntReg, a: IntReg, sh: u8 } => shli (d = a, sh) Alu Int [a] [d];
    /// `d = a >> (b & 63)` (logical)
    Shr { d: IntReg, a: IntReg, b: IntReg } => shr (d = a, b) Alu Int [a, b] [d];
    /// `d = a >> sh` (logical)
    ShrI { d: IntReg, a: IntReg, sh: u8 } => shri (d = a, sh) Alu Int [a] [d];
    /// `d = a * b` (wrapping, low 64 bits)
    Mul { d: IntReg, a: IntReg, b: IntReg } => mul (d = a, b) Alu Mul [a, b] [d];
    /// `d = a`
    Mov { d: IntReg, a: IntReg } => mov (d = a) Alu Int [a] [d];
    /// `d = imm`
    MovI { d: IntReg, imm: i64 } => movi (d = imm) Alu Int [] [d];
    /// `pt = cmp(a, b); pf = !cmp(a, b)`
    Cmp { kind: CmpKind, pt: PredReg, pf: PredReg, a: IntReg, b: IntReg }
        => cmp kind (pt, pf = a, b) Alu Int [a, b] [pt, pf];
    /// `pt = cmp(a, imm); pf = !cmp(a, imm)`
    CmpI { kind: CmpKind, pt: PredReg, pf: PredReg, a: IntReg, imm: i64 }
        => cmpi kind (pt, pf = a, imm) Alu Int [a] [pt, pf];

    // ---- memory ------------------------------------------------------
    /// `d = mem[a + off]` (zero- or sign-extended to 64 bits)
    Ld { d: IntReg, base: IntReg, off: i64, size: MemSize, signed: bool }
        => ld size signed (d = [base + off]) Mem Load [base] [d];
    /// `mem[base + off] = src` (low `size` bytes)
    St { src: IntReg, base: IntReg, off: i64, size: MemSize }
        => st size ([base + off] = src) Mem Store [src, base] [];
    /// `d = mem[base + off]` as an 8-byte IEEE-754 double
    LdF { d: FpReg, base: IntReg, off: i64 } => ldf (d = [base + off]) Mem Load [base] [d];
    /// `mem[base + off] = src` as an 8-byte IEEE-754 double
    StF { src: FpReg, base: IntReg, off: i64 }
        => stf ([base + off] = src) Mem Store [src, base] [];

    // ---- floating point ------------------------------------------------
    /// `d = a + b`
    FAdd { d: FpReg, a: FpReg, b: FpReg } => fadd (d = a, b) Fp FpArith [a, b] [d];
    /// `d = a - b`
    FSub { d: FpReg, a: FpReg, b: FpReg } => fsub (d = a, b) Fp FpArith [a, b] [d];
    /// `d = a * b`
    FMul { d: FpReg, a: FpReg, b: FpReg } => fmul (d = a, b) Fp FpArith [a, b] [d];
    /// `d = a / b`
    FDiv { d: FpReg, a: FpReg, b: FpReg } => fdiv (d = a, b) Fp FpDiv [a, b] [d];
    /// `d = a`
    FMov { d: FpReg, a: FpReg } => fmov (d = a) Fp FpArith [a] [d];
    /// `d = imm`
    FMovI { d: FpReg, imm: f64 } => fmovi (d = imm) Fp FpArith [] [d];
    /// `d = (f64) a` — integer-to-FP convert (signed)
    ICvtF { d: FpReg, a: IntReg } => icvtf (d = a) Fp FpArith [a] [d];
    /// `d = (i64) a` — FP-to-integer convert (truncating)
    FCvtI { d: IntReg, a: FpReg } => fcvti (d = a) Fp FpArith [a] [d];
    /// `pt = cmp(a, b); pf = !cmp(a, b)` on FP operands
    FCmp { kind: CmpKind, pt: PredReg, pf: PredReg, a: FpReg, b: FpReg }
        => fcmp kind (pt, pf = a, b) Fp FpArith [a, b] [pt, pf];

    // ---- control ------------------------------------------------------
    /// Branch to the issue group starting at instruction index `target`.
    ///
    /// With a qualifying predicate on the instruction this is a
    /// conditional branch; without one it is unconditional.
    Br { target: usize } => br (target) Branch Branch [] [];
    /// Terminates the program.
    Halt => halt () Branch Branch [] [];
    /// No operation (occupies an ALU slot).
    Nop => nop () Alu Int [] [];
}

/// A fixed-capacity list of register names, used for source/dest walks
/// without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegList {
    regs: [Option<RegId>; 4],
    len: u8,
}

impl RegList {
    pub(crate) fn push(&mut self, r: impl Into<RegId>) {
        self.regs[self.len as usize] = Some(r.into());
        self.len += 1;
    }

    /// Number of registers in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the registers in the list.
    pub fn iter(&self) -> impl Iterator<Item = RegId> + '_ {
        self.regs.iter().take(self.len as usize).map(|r| r.unwrap())
    }

    /// Whether the list contains `r`.
    #[must_use]
    pub fn contains(&self, r: RegId) -> bool {
        self.iter().any(|x| x == r)
    }
}

impl IntoIterator for RegList {
    type Item = RegId;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter { list: self, at: 0 }
    }
}

/// Owning iterator for [`RegList`].
#[derive(Debug, Clone)]
pub struct IntoIter {
    list: RegList,
    at: u8,
}

impl Iterator for IntoIter {
    type Item = RegId;

    fn next(&mut self) -> Option<RegId> {
        if self.at < self.list.len {
            let r = self.list.regs[self.at as usize];
            self.at += 1;
            r
        } else {
            None
        }
    }
}

impl Opcode {
    /// Whether this operation is a load (integer or FP).
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.latency_class() == LatencyClass::Load
    }

    /// Whether this operation is a store (integer or FP).
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.latency_class() == LatencyClass::Store
    }

    /// Whether this operation is a branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Opcode::Br { .. })
    }

    /// Whether this operation uses the floating-point subpipeline.
    #[must_use]
    pub fn is_fp(&self) -> bool {
        self.fu_class() == FuClass::Fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> IntReg {
        IntReg::n(i)
    }

    #[test]
    fn cmp_kind_signed_vs_unsigned() {
        let neg1 = u64::MAX;
        assert!(CmpKind::Lt.eval_int(neg1, 0)); // -1 < 0 signed
        assert!(!CmpKind::Ltu.eval_int(neg1, 0)); // max > 0 unsigned
        assert!(CmpKind::Geu.eval_int(neg1, 0));
        assert!(CmpKind::Ge.eval_int(0, neg1));
    }

    #[test]
    fn cmp_kind_fp_nan_is_unordered() {
        assert!(!CmpKind::Eq.eval_fp(f64::NAN, f64::NAN));
        assert!(CmpKind::Ne.eval_fp(f64::NAN, 1.0));
        assert!(!CmpKind::Lt.eval_fp(f64::NAN, 1.0));
    }

    #[test]
    fn sources_and_dests_of_three_operand_alu() {
        let op = Opcode::Add { d: r(1), a: r(2), b: r(3) };
        let srcs: Vec<_> = op.sources().into_iter().collect();
        assert_eq!(srcs, vec![RegId::Int(r(2)), RegId::Int(r(3))]);
        let dests: Vec<_> = op.dests().into_iter().collect();
        assert_eq!(dests, vec![RegId::Int(r(1))]);
    }

    #[test]
    fn cmp_writes_two_predicates() {
        let op = Opcode::CmpI {
            kind: CmpKind::Eq,
            pt: PredReg::n(1),
            pf: PredReg::n(2),
            a: r(4),
            imm: 0,
        };
        assert_eq!(op.dests().len(), 2);
        assert!(op.dests().contains(RegId::Pred(PredReg::n(1))));
        assert!(op.dests().contains(RegId::Pred(PredReg::n(2))));
    }

    #[test]
    fn store_reads_data_and_base() {
        let op = Opcode::St { src: r(5), base: r(6), off: 8, size: MemSize::B8 };
        assert_eq!(op.sources().len(), 2);
        assert!(op.dests().is_empty());
        assert!(op.is_store());
        assert!(!op.is_load());
        assert_eq!(op.fu_class(), FuClass::Mem);
    }

    #[test]
    fn fu_and_latency_classes() {
        assert_eq!(Opcode::Nop.fu_class(), FuClass::Alu);
        assert_eq!(
            Opcode::FDiv { d: FpReg::n(1), a: FpReg::n(2), b: FpReg::n(3) }.latency_class(),
            LatencyClass::FpDiv
        );
        assert_eq!(Opcode::Br { target: 0 }.fu_class(), FuClass::Branch);
        assert_eq!(Opcode::Mul { d: r(1), a: r(1), b: r(1) }.latency_class(), LatencyClass::Mul);
        assert_eq!(
            Opcode::Ld { d: r(1), base: r(2), off: 0, size: MemSize::B8, signed: false }
                .latency_class(),
            LatencyClass::Load
        );
    }

    #[test]
    fn display_formats_assembly_like() {
        let op = Opcode::Ld { d: r(4), base: r(2), off: 16, size: MemSize::B4, signed: false };
        assert_eq!(op.to_string(), "ld4 r4 = [r2 + 16]");
        let br = Opcode::Br { target: 12 };
        assert_eq!(br.to_string(), "br 12");
    }

    #[test]
    fn reg_list_capacity_handles_max_operands() {
        let mut l = RegList::default();
        l.push(r(0));
        l.push(r(1));
        l.push(r(2));
        l.push(r(3));
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
    }
}
