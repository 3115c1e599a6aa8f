//! Pipeline event tracing.
//!
//! [`TraceEvent`] is a model-agnostic pipeline event vocabulary shared
//! by all four engines: instruction lifecycle (A-dispatch, B-retire),
//! control (flushes, redirects), issue-group dispatch, per-cycle stall
//! class transitions, cache-miss begin/end, coupling-queue/MSHR
//! occupancy samples, and runahead episode boundaries — enough to
//! reconstruct the paper's Figure 4 execution snapshots and the
//! Figure 6 stall structure offline.
//!
//! Events flow into a [`crate::sink::TraceSink`]; [`Trace`] is the
//! in-memory sink. Tracing is opt-in (`run_traced` / `run_with_sink`
//! on each model) and costs one branch-on-None per probe when off.
//! This crate only produces events: the views that read them (the
//! pipeline diagram, the Konata and Chrome exports, slip and CPI
//! replay) live in `ff-bench`'s `traceview` module.

use crate::accounting::{CycleClass, StallCause};
use crate::report::Pipe;
use ff_mem::MemLevel;
use serde::{Deserialize, Serialize};

/// Why speculative state was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushKind {
    /// A deferred branch resolved mispredicted at B-DET.
    BdetMispredict,
    /// An ALAT miss at merge (store conflict).
    StoreConflict,
}

impl FlushKind {
    /// Short label used in trace rendering.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FlushKind::BdetMispredict => "bdet-mispredict",
            FlushKind::StoreConflict => "store-conflict",
        }
    }
}

/// One traced pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The front end delivered an instruction to its pipe.
    ///
    /// In these one-cycle-frontend models fetch completes the same
    /// cycle the instruction dispatches, so `Fetch` shares its cycle
    /// with the matching [`TraceEvent::ADispatch`] (or, for the
    /// single-pipe models, [`TraceEvent::BRetire`]).
    Fetch {
        /// Cycle the instruction left the front end.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
    },
    /// The A-pipe executed an instruction (A-exec begin; the result is
    /// architecturally visible to the B-pipe at `ready_at`).
    AExec {
        /// Cycle A-execution began.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
        /// Cycle the result is ready for merge (begin + latency; for
        /// loads this is the fill-completion cycle).
        ready_at: u64,
    },
    /// The A-pipe deferred an instruction instead of executing it
    /// (unready operand, structural limit, or restricted-variant rule).
    Defer {
        /// Cycle of the defer decision.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
    },
    /// An instruction entered the coupling queue.
    CqEnqueue {
        /// Cycle of the enqueue.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
        /// Queue occupancy counting this entry.
        depth: u32,
    },
    /// An instruction left the coupling queue for merge.
    CqDequeue {
        /// Cycle of the dequeue.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
        /// Cycles the entry sat in the queue (dequeue − enqueue).
        resident: u64,
    },
    /// The B-pipe executed a deferred instruction at merge (B-exec).
    BExec {
        /// Cycle of B-execution.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
    },
    /// A speculative in-flight instruction was squashed by a flush.
    ///
    /// Emitted once per coupling-queue entry younger than the flush
    /// boundary; the matching [`TraceEvent::Flush`] carries the cause.
    Squash {
        /// Cycle of the squash (the flush cycle).
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
    },
    /// An instruction entered the A-pipe (and the coupling queue).
    ADispatch {
        /// Cycle of dispatch.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
        /// Whether the A-pipe deferred it.
        deferred: bool,
    },
    /// An instruction retired from the B-pipe (architectural commit).
    BRetire {
        /// Cycle of retire.
        cycle: u64,
        /// Dynamic sequence number.
        seq: u64,
        /// Static instruction index.
        pc: usize,
        /// Whether the B-pipe had to execute it (it was deferred).
        was_deferred: bool,
    },
    /// Speculative state was flushed.
    Flush {
        /// Cycle of the flush.
        cycle: u64,
        /// What triggered it.
        kind: FlushKind,
        /// Instructions younger than this sequence number were squashed.
        boundary_seq: u64,
    },
    /// An A-DET misprediction redirected fetch.
    ARedirect {
        /// Cycle of the redirect decision.
        cycle: u64,
        /// New fetch target.
        pc: usize,
    },
    /// An issue group was dispatched by one pipe.
    GroupDispatch {
        /// Cycle of dispatch.
        cycle: u64,
        /// Which pipe dispatched (the baseline and runahead models use
        /// [`Pipe::B`], their only pipe).
        pipe: Pipe,
        /// Sequence number of the group's first instruction.
        head_seq: u64,
        /// Number of instructions dispatched together.
        len: u32,
    },
    /// The architectural pipe's cycle class changed.
    ClassTransition {
        /// First cycle charged to the new class.
        cycle: u64,
        /// Class of the preceding cycles (equals `to` on the first
        /// transition of a run).
        from: CycleClass,
        /// Class charged from this cycle on.
        to: CycleClass,
    },
    /// The architectural pipe's refined stall attribution changed.
    ///
    /// Emitted alongside [`TraceEvent::ClassTransition`], but also fires
    /// when only the *cause* or the blamed *pc* changes within one class
    /// (e.g. a load stall migrating from one static load to the next).
    CauseTransition {
        /// First cycle charged to the new attribution.
        cycle: u64,
        /// Cause charged from this cycle on.
        cause: StallCause,
        /// Static pc of the blocking instruction, when one exists.
        pc: Option<u64>,
    },
    /// A demand access missed a cache level and booked a fill.
    MissBegin {
        /// Cycle the miss was initiated.
        cycle: u64,
        /// Pipe that initiated the access.
        pipe: Pipe,
        /// The level that serviced the miss (`L2` = hit in L2 after
        /// missing L1, ... `Mem` = main memory).
        level: MemLevel,
        /// Accessed byte address.
        addr: u64,
        /// Cycle the fill completes.
        fill_at: u64,
    },
    /// A previously booked fill completed.
    MissEnd {
        /// Completion cycle.
        cycle: u64,
        /// Accessed byte address of the originating miss.
        addr: u64,
        /// The level that serviced it.
        level: MemLevel,
    },
    /// Per-cycle occupancy sample of bounded resources.
    QueueSample {
        /// Sampled cycle.
        cycle: u64,
        /// Coupling-queue depth (0 for models without one).
        depth: u32,
        /// Outstanding MSHR fills.
        mshr: u32,
    },
    /// The runahead model entered a speculative episode.
    RunaheadEnter {
        /// Entry cycle.
        cycle: u64,
        /// PC of the stalled group (the resume point).
        pc: usize,
    },
    /// The runahead model left a speculative episode.
    RunaheadExit {
        /// Exit cycle.
        cycle: u64,
        /// PC execution resumes at.
        pc: usize,
        /// Speculative instructions discarded by this episode.
        discarded: u64,
    },
}

impl TraceEvent {
    /// The cycle the event was recorded at.
    #[must_use]
    pub const fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::AExec { cycle, .. }
            | TraceEvent::Defer { cycle, .. }
            | TraceEvent::CqEnqueue { cycle, .. }
            | TraceEvent::CqDequeue { cycle, .. }
            | TraceEvent::BExec { cycle, .. }
            | TraceEvent::Squash { cycle, .. }
            | TraceEvent::ADispatch { cycle, .. }
            | TraceEvent::BRetire { cycle, .. }
            | TraceEvent::Flush { cycle, .. }
            | TraceEvent::ARedirect { cycle, .. }
            | TraceEvent::GroupDispatch { cycle, .. }
            | TraceEvent::ClassTransition { cycle, .. }
            | TraceEvent::CauseTransition { cycle, .. }
            | TraceEvent::MissBegin { cycle, .. }
            | TraceEvent::MissEnd { cycle, .. }
            | TraceEvent::QueueSample { cycle, .. }
            | TraceEvent::RunaheadEnter { cycle, .. }
            | TraceEvent::RunaheadExit { cycle, .. } => cycle,
        }
    }
}

/// An in-memory event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// All events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accessor_covers_every_variant() {
        let events = [
            TraceEvent::ADispatch { cycle: 1, seq: 0, pc: 0, deferred: false },
            TraceEvent::BRetire { cycle: 2, seq: 0, pc: 0, was_deferred: false },
            TraceEvent::Flush { cycle: 3, kind: FlushKind::StoreConflict, boundary_seq: 0 },
            TraceEvent::ARedirect { cycle: 4, pc: 0 },
            TraceEvent::GroupDispatch { cycle: 5, pipe: Pipe::B, head_seq: 0, len: 1 },
            TraceEvent::ClassTransition {
                cycle: 6,
                from: CycleClass::Unstalled,
                to: CycleClass::LoadStall,
            },
            TraceEvent::CauseTransition { cycle: 7, cause: StallCause::LoadMem, pc: Some(4) },
            TraceEvent::MissBegin {
                cycle: 8,
                pipe: Pipe::B,
                level: MemLevel::Mem,
                addr: 0,
                fill_at: 152,
            },
            TraceEvent::MissEnd { cycle: 9, addr: 0, level: MemLevel::Mem },
            TraceEvent::QueueSample { cycle: 10, depth: 0, mshr: 0 },
            TraceEvent::RunaheadEnter { cycle: 11, pc: 0 },
            TraceEvent::RunaheadExit { cycle: 12, pc: 0, discarded: 5 },
            TraceEvent::Fetch { cycle: 13, seq: 0, pc: 0 },
            TraceEvent::AExec { cycle: 14, seq: 0, pc: 0, ready_at: 15 },
            TraceEvent::Defer { cycle: 15, seq: 0, pc: 0 },
            TraceEvent::CqEnqueue { cycle: 16, seq: 0, pc: 0, depth: 1 },
            TraceEvent::CqDequeue { cycle: 17, seq: 0, pc: 0, resident: 1 },
            TraceEvent::BExec { cycle: 18, seq: 0, pc: 0 },
            TraceEvent::Squash { cycle: 19, seq: 0, pc: 0 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.cycle(), i as u64 + 1);
        }
    }
}
