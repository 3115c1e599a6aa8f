//! # ff-verify — static legality checking and invariant auditing
//!
//! Verification layer for the flea-flicker reproduction, in two halves:
//!
//! * [`static_check`] — a static analyzer over `ff-isa` programs
//!   enforcing the EPIC contract the simulators assume: issue groups
//!   free of intra-group RAW/WAW dependences (with predicate-aware
//!   refinement for if-converted diamonds), structurally sound control
//!   flow, whole-program dataflow hygiene (no reads of never-defined
//!   registers, no fully dead writes, no unreachable groups), and
//!   per-group functional-unit demand within the machine's slot mix.
//!   Findings are structured [`diag::Diagnostic`]s with stable check
//!   codes, renderable as annotated issue-group listings.
//! * [`oracle`] — a dynamic differential oracle running each program
//!   through the golden interpreter and all pipeline models, demanding
//!   bit-identical final state and identical retirement order.
//! * [`analysis`] — a static performance analyzer on top of the same
//!   dependence facts: sound per-kernel cycle lower bounds (dependence
//!   height under all-hit/all-miss load assumptions, per-FU-class and
//!   issue-width resource pressure), per-instruction slack, the static
//!   critical path, and the schedule-quality lints built on them.
//!
//! The `ff_verify` CLI (`cargo run -p ff-bench --bin ff_verify`, in
//! ff-bench beside the other binaries and their shared argument
//! parser) fronts all three: it lints the ten paper kernels, random
//! generator output, runs the oracle over random seeds, and reports
//! bounds/slack/critical paths per kernel.
//!
//! Building with the `audit` feature additionally enables `ff-core`'s
//! per-cycle invariant checks (coupling-queue FIFO discipline, A-pipe
//! isolation, scoreboard latency accounting) inside every simulation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod diag;
pub mod oracle;
pub mod static_check;

pub use analysis::{
    cycle_bounds, measured_cycles, CriticalStep, CycleBounds, DepEdge, LatencyModel, ScheduleGraph,
    CHAIN_LINT_MIN_LEN,
};
pub use diag::{AnalysisReport, Check, Diagnostic, Severity, ANALYSIS_SCHEMA_VERSION};
pub use oracle::{differential_oracle, OracleFailure, OracleReport};
pub use static_check::{analyze_instructions, analyze_program};
