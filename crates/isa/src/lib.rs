//! # ff-isa — EPIC-style ISA substrate
//!
//! The instruction-set substrate for the flea-flicker two-pass pipelining
//! reproduction (Barnes et al., MICRO 2003). The paper evaluates its
//! microarchitecture on an Itanium-like EPIC machine; this crate provides
//! the equivalent medium from scratch:
//!
//! * three 64-entry register files (integer, FP, predicate) — [`reg`]
//! * a predicated, wide-word operation set with explicit issue groups
//!   delimited by stop bits — [`op`], [`insn`]
//! * validated programs and an assembler-style builder — [`program`],
//!   [`builder`]
//! * sparse byte-addressable data memory — [`mem_image`]
//! * shared functional semantics and a golden-model interpreter —
//!   [`semantics`], [`interp`]
//!
//! The defining EPIC property modeled here: **the program encoding is the
//! schedule**. Stop bits partition the instruction stream into issue
//! groups; an in-order machine stalls whole groups when any member's
//! operands are not ready. The two-pass microarchitecture (in `ff-core`)
//! exists to absorb exactly those stalls.
//!
//! # Examples
//!
//! Build and run a small program on the golden interpreter:
//!
//! ```
//! use ff_isa::{ArchState, MemoryImage, ProgramBuilder};
//! use ff_isa::reg::IntReg;
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(IntReg::n(1), 20);
//! b.stop();
//! b.addi(IntReg::n(2), IntReg::n(1), 22);
//! b.stop();
//! b.halt();
//! let program = b.build()?;
//!
//! let mut state = ArchState::new(&program, MemoryImage::new());
//! state.run(100);
//! assert_eq!(state.int(IntReg::n(2)), 42);
//! # Ok::<(), ff_isa::BuildProgramError>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod builder;
pub mod insn;
pub mod interp;
pub mod mem_image;
pub mod op;
pub mod program;
pub mod reg;
pub mod semantics;

pub use asm::{parse_program, ParseAsmError};
pub use builder::{BuildProgramError, Label, ProgramBuilder};
pub use insn::{InsnFacts, Instruction};
pub use interp::{ArchState, RunSummary, StopReason};
pub use mem_image::{MemoryImage, PageHasher};
pub use op::{CmpKind, FuClass, LatencyClass, MemSize, Opcode, RegList};
pub use program::{check_group_hazards, GroupHazard, Program, ValidateProgramError};
pub use reg::{FpReg, IntReg, InvalidRegError, PredReg, RegId, REGS_PER_FILE, TOTAL_REGS};
pub use semantics::{evaluate, load_write, Effect, RegRead, RegWrite, Writes};
