//! Register name types for the EPIC-style ISA.
//!
//! The machine has three architectural register files, mirroring the
//! register classes of EPIC architectures such as Itanium:
//!
//! * 64 general (integer) registers `r0..r63` — [`IntReg`]
//! * 64 floating-point registers `f0..f63` — [`FpReg`]
//! * 64 one-bit predicate registers `p0..p63` — [`PredReg`]
//!
//! All three are thin validated newtypes over a register index
//! ([C-NEWTYPE]). [`RegId`] unifies the three classes into a single flat
//! namespace of `3 * 64 = 192` slots so that pipeline scoreboards and the
//! two-pass A-file can be indexed by one dense integer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of registers in each architectural register file.
pub const REGS_PER_FILE: usize = 64;

/// Total number of architectural registers across all three files.
///
/// This is the size of a flat scoreboard indexed by [`RegId::index`].
pub const TOTAL_REGS: usize = 3 * REGS_PER_FILE;

/// Error returned when constructing a register name from an out-of-range
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRegError {
    /// The rejected index.
    pub index: u8,
}

impl fmt::Display for InvalidRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "register index {} out of range (must be < {})", self.index, REGS_PER_FILE)
    }
}

impl std::error::Error for InvalidRegError {}

macro_rules! reg_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $what:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u8);

        impl $name {
            /// Creates a register name, validating the index.
            ///
            /// # Errors
            ///
            /// Returns [`InvalidRegError`] if `index >= 64`.
            pub fn new(index: u8) -> Result<Self, InvalidRegError> {
                if (index as usize) < REGS_PER_FILE {
                    Ok(Self(index))
                } else {
                    Err(InvalidRegError { index })
                }
            }

            /// Creates a register name without validating the index.
            ///
            /// # Panics
            ///
            /// Panics if `index >= 64`. Intended for literals in
            /// hand-written kernels where the index is obviously valid.
            #[must_use]
            pub const fn n(index: u8) -> Self {
                assert!((index as usize) < REGS_PER_FILE);
                Self(index)
            }

            /// Returns the register index within its file (`0..64`).
            #[must_use]
            pub const fn raw(self) -> u8 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl crate::asm::Operand for $name {
            const WHAT: &'static str = $what;
            fn parse(tok: &str) -> Option<Self> {
                Self::new(tok.strip_prefix($prefix)?.parse().ok()?).ok()
            }
        }
    };
}

reg_newtype!(
    /// A general-purpose (integer) register name, `r0..r63`.
    IntReg,
    "r",
    "integer register"
);
reg_newtype!(
    /// A floating-point register name, `f0..f63`.
    FpReg,
    "f",
    "FP register"
);
reg_newtype!(
    /// A one-bit predicate register name, `p0..p63`.
    PredReg,
    "p",
    "predicate register"
);

/// A register name in the unified flat namespace of all three files.
///
/// Scoreboards, the two-pass A-file, and dependence trackers index their
/// storage by [`RegId::index`], which maps integer registers to `0..64`,
/// floating-point registers to `64..128`, and predicates to `128..192`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegId {
    /// A general (integer) register.
    Int(IntReg),
    /// A floating-point register.
    Fp(FpReg),
    /// A predicate register.
    Pred(PredReg),
}

impl RegId {
    /// Returns the dense index of this register in `0..TOTAL_REGS`.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            RegId::Int(r) => r.raw() as usize,
            RegId::Fp(r) => REGS_PER_FILE + r.raw() as usize,
            RegId::Pred(r) => 2 * REGS_PER_FILE + r.raw() as usize,
        }
    }

    /// Reconstructs a register name from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= TOTAL_REGS`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < TOTAL_REGS, "register index {index} out of range");
        let within = (index % REGS_PER_FILE) as u8;
        match index / REGS_PER_FILE {
            0 => RegId::Int(IntReg(within)),
            1 => RegId::Fp(FpReg(within)),
            _ => RegId::Pred(PredReg(within)),
        }
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegId::Int(r) => r.fmt(f),
            RegId::Fp(r) => r.fmt(f),
            RegId::Pred(r) => r.fmt(f),
        }
    }
}

impl From<IntReg> for RegId {
    fn from(r: IntReg) -> Self {
        RegId::Int(r)
    }
}

impl From<FpReg> for RegId {
    fn from(r: FpReg) -> Self {
        RegId::Fp(r)
    }
}

impl From<PredReg> for RegId {
    fn from(r: PredReg) -> Self {
        RegId::Pred(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_in_range_indices() {
        for i in 0..64 {
            assert_eq!(IntReg::new(i).unwrap().raw(), i);
            assert_eq!(FpReg::new(i).unwrap().raw(), i);
            assert_eq!(PredReg::new(i).unwrap().raw(), i);
        }
    }

    #[test]
    fn new_rejects_out_of_range_indices() {
        assert!(IntReg::new(64).is_err());
        assert!(FpReg::new(200).is_err());
        assert!(PredReg::new(255).is_err());
    }

    #[test]
    fn invalid_reg_error_displays_index() {
        let err = IntReg::new(99).unwrap_err();
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn display_uses_file_prefix() {
        assert_eq!(IntReg::n(7).to_string(), "r7");
        assert_eq!(FpReg::n(12).to_string(), "f12");
        assert_eq!(PredReg::n(0).to_string(), "p0");
        assert_eq!(RegId::Fp(FpReg::n(3)).to_string(), "f3");
    }

    #[test]
    fn reg_id_index_is_dense_and_disjoint() {
        assert_eq!(RegId::Int(IntReg::n(0)).index(), 0);
        assert_eq!(RegId::Int(IntReg::n(63)).index(), 63);
        assert_eq!(RegId::Fp(FpReg::n(0)).index(), 64);
        assert_eq!(RegId::Fp(FpReg::n(63)).index(), 127);
        assert_eq!(RegId::Pred(PredReg::n(0)).index(), 128);
        assert_eq!(RegId::Pred(PredReg::n(63)).index(), 191);
    }

    #[test]
    fn reg_id_round_trips_through_index() {
        for i in 0..TOTAL_REGS {
            assert_eq!(RegId::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_id_from_index_panics_out_of_range() {
        let _ = RegId::from_index(TOTAL_REGS);
    }
}
