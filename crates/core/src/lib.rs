//! # ff-core — the flea-flicker two-pass pipeline models
//!
//! Cycle-level simulators reproducing Barnes et al., *"Beating in-order
//! stalls with 'flea-flicker' two-pass pipelining"* (MICRO 2003):
//!
//! * [`engine`] — the one clock engine every model runs on: shared
//!   machine state, the cycle loop, fast-forward, tracing hooks and
//!   report assembly, generic over an issue [`engine::Policy`]
//! * three policies — [`baseline`], the traditional in-order EPIC
//!   machine (`base`); [`two_pass`], the paper's contribution: A-pipe +
//!   coupling queue + B-pipe (`2P`, and `2Pre` with regrouping); and
//!   [`runahead`], the baseline issue stage plus checkpointed runahead
//!   episodes (the §2 comparator)
//! * [`run_model`] — builds and runs any [`ModelKind`]
//! * [`config`], [`accounting`], [`report`] — machine configuration,
//!   the six-class cycle accounting of Figure 6, and run reports
//!
//! All models execute programs *functionally* while modeling timing, so
//! caches see real addresses and predictors real outcomes, and every
//! model's final architectural state is differentially checked against
//! the `ff-isa` golden interpreter.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod accounting;
pub mod baseline;
pub mod config;
pub mod decoded;
pub mod engine;
pub mod exec_common;
pub mod frontend;
mod jsonl;
pub mod metrics;
pub mod report;
pub mod runahead;
pub mod sink;
pub mod trace;
pub mod two_pass;

pub use accounting::{
    CauseBreakdown, CycleBreakdown, CycleClass, StallAttr, StallCause, StallProfile, StallSite,
    N_CAUSES,
};
pub use baseline::Baseline;
pub use config::{
    FeedbackLatency, FuSlots, MachineConfig, OpLatencies, ThrottleConfig, TwoPassConfig,
    L1I_GEOMETRY,
};
pub use engine::run_model;
pub use metrics::{
    CounterEntry, Histogram, HistogramEntry, MetricSource, MetricsBuilder, MetricsSnapshot,
};
pub use report::{
    BranchStats, MemAccessStats, ModelKind, Pipe, SimReport, TwoPassStats, REPORT_SCHEMA_VERSION,
};
pub use runahead::{Runahead, RunaheadStats};
pub use sink::{parse_jsonl_line, JsonlSink, RingSink, SinkHandle, TraceSink};
pub use trace::{FlushKind, Trace, TraceEvent};
pub use two_pass::TwoPass;
