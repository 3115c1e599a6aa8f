//! Offline analysis of JSONL pipeline traces (the `ff-trace` tool).
//!
//! Everything here operates on a `Vec<TraceEvent>` loaded from the
//! stream a [`ff_core::JsonlSink`] wrote, so analyses run without the
//! simulator: queue-depth and MSHR occupancy distributions, per-class
//! stall intervals reconstructed from [`TraceEvent::ClassTransition`],
//! A-to-B slip and deferral run-length distributions, a Figure-4-style
//! per-cycle ASCII snapshot, and a Chrome trace-event JSON export
//! loadable in Perfetto (one track per pipe stage). Every view that
//! follows single instructions pairs their lifecycle events through
//! one [`FlightReplay`].

use ff_core::{CauseBreakdown, CycleClass, Histogram, Pipe, StallCause, StallProfile, TraceEvent};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::BufRead;

/// Reads a JSONL trace, one event per line. Blank lines are skipped.
///
/// Lines are read into one reused buffer, so loading allocates only
/// the returned events.
///
/// # Errors
/// Returns a message naming the 1-based line that failed to read or
/// parse, and what was wrong with it.
pub fn load_events(mut reader: impl BufRead) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut buf = Vec::new();
    for n in 1.. {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("line {n}: {e}")),
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|_| format!("line {n}: stream did not contain valid UTF-8"))?
            .trim();
        if line.is_empty() {
            continue;
        }
        events.push(ff_core::sink::parse_jsonl_line(line).map_err(|e| format!("line {n}: {e}"))?);
    }
    Ok(events)
}

/// One past the last cycle any event touches (the run length when the
/// trace covers a whole run, since models sample every cycle).
#[must_use]
pub fn end_cycle(events: &[TraceEvent]) -> u64 {
    events.iter().map(TraceEvent::cycle).max().map_or(0, |c| c + 1)
}

// ---- summary -----------------------------------------------------------

/// Per-kind event counts and headline figures for one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: u64,
    /// One past the last event cycle.
    pub cycles: u64,
    /// A-pipe dispatches.
    pub dispatches: u64,
    /// Dispatches the A-pipe deferred.
    pub deferred: u64,
    /// B-pipe retires (architectural commits).
    pub retires: u64,
    /// Retires the B-pipe had to execute itself.
    pub b_executed: u64,
    /// Flushes: `[B-DET mispredict, store conflict]`.
    pub flushes: [u64; 2],
    /// A-DET fetch redirects.
    pub redirects: u64,
    /// Issue groups per pipe (`[A, B]`).
    pub groups: [u64; 2],
    /// Cache misses initiated, by servicing level (`[L1, L2, L3, Mem]`;
    /// the L1 slot stays 0 — an L1 hit is not a miss).
    pub misses: [u64; 4],
    /// Per-cycle occupancy samples.
    pub samples: u64,
    /// Front-end instruction deliveries.
    pub fetches: u64,
    /// In-flight instructions squashed by flushes.
    pub squashes: u64,
    /// Runahead episodes entered.
    pub ra_enters: u64,
    /// Speculative instructions discarded across all episodes.
    pub ra_discarded: u64,
    /// Cycles charged to each [`CycleClass`] (display order).
    pub class_cycles: [u64; 6],
}

/// Tallies a trace into a [`TraceSummary`].
#[must_use]
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len() as u64,
        cycles: end_cycle(events),
        ..TraceSummary::default()
    };
    for e in events {
        match *e {
            TraceEvent::ADispatch { deferred, .. } => {
                s.dispatches += 1;
                s.deferred += u64::from(deferred);
            }
            TraceEvent::BRetire { was_deferred, .. } => {
                s.retires += 1;
                s.b_executed += u64::from(was_deferred);
            }
            TraceEvent::Flush { kind, .. } => s.flushes[kind as usize] += 1,
            TraceEvent::ARedirect { .. } => s.redirects += 1,
            TraceEvent::GroupDispatch { pipe, .. } => s.groups[pipe.index()] += 1,
            TraceEvent::MissBegin { level, .. } => s.misses[level.index()] += 1,
            TraceEvent::Fetch { .. } => s.fetches += 1,
            TraceEvent::Squash { .. } => s.squashes += 1,
            TraceEvent::MissEnd { .. }
            | TraceEvent::ClassTransition { .. }
            | TraceEvent::CauseTransition { .. }
            | TraceEvent::AExec { .. }
            | TraceEvent::Defer { .. }
            | TraceEvent::CqEnqueue { .. }
            | TraceEvent::CqDequeue { .. }
            | TraceEvent::BExec { .. } => {}
            TraceEvent::QueueSample { .. } => s.samples += 1,
            TraceEvent::RunaheadEnter { .. } => s.ra_enters += 1,
            TraceEvent::RunaheadExit { discarded, .. } => s.ra_discarded += discarded,
        }
    }
    for iv in class_intervals(events) {
        s.class_cycles[iv.class.index()] += iv.len;
    }
    s
}

// ---- per-class stall intervals -----------------------------------------

/// A maximal run of consecutive cycles charged to one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassInterval {
    /// The class charged.
    pub class: CycleClass,
    /// First cycle of the run.
    pub start: u64,
    /// Run length in cycles (always at least 1).
    pub len: u64,
}

/// Replays [`TraceEvent::ClassTransition`] events into the maximal
/// per-class intervals they delimit. Transitions tile the run: each
/// interval extends to the next transition, the last to [`end_cycle`].
#[must_use]
pub fn class_intervals(events: &[TraceEvent]) -> Vec<ClassInterval> {
    tile(
        events,
        |e| match *e {
            TraceEvent::ClassTransition { to, .. } => Some(to),
            _ => None,
        },
        |class, start, len| ClassInterval { class, start, len },
    )
}

/// Tiles the transitions `pick` selects into maximal intervals: each
/// runs from its transition's cycle to the next transition's, the last
/// to [`end_cycle`]. Empty intervals are dropped.
fn tile<K, T>(
    events: &[TraceEvent],
    pick: impl Fn(&TraceEvent) -> Option<K>,
    interval: impl Fn(K, u64, u64) -> T,
) -> Vec<T> {
    let mut intervals = Vec::new();
    let mut close = |open: Option<(u64, K)>, until: u64| match open {
        Some((start, key)) if until > start => intervals.push(interval(key, start, until - start)),
        _ => {}
    };
    let mut open = None;
    for e in events {
        if let Some(key) = pick(e) {
            close(open.replace((e.cycle(), key)), e.cycle());
        }
    }
    close(open, end_cycle(events));
    intervals
}

/// Total cycles per class (display order), from interval replay.
#[must_use]
pub fn class_totals(intervals: &[ClassInterval]) -> [u64; 6] {
    let mut totals = [0u64; 6];
    for iv in intervals {
        totals[iv.class.index()] += iv.len;
    }
    totals
}

/// Interval-*length* distribution per class: how long each stall kind
/// persists once entered (display order).
#[must_use]
pub fn interval_histograms(intervals: &[ClassInterval]) -> [Histogram; 6] {
    let mut hists = [Histogram::default(); 6];
    for iv in intervals {
        hists[iv.class.index()].observe(iv.len);
    }
    hists
}

// ---- refined cause intervals and the CPI stack -------------------------

/// A maximal run of consecutive cycles charged to one refined
/// [`StallCause`], with the blamed static PC when the cause names one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseInterval {
    /// The refined cause charged.
    pub cause: StallCause,
    /// Static PC of the blamed (producing) instruction, if any.
    pub pc: Option<u64>,
    /// First cycle of the run.
    pub start: u64,
    /// Run length in cycles (always at least 1).
    pub len: u64,
}

/// Replays [`TraceEvent::CauseTransition`] events into maximal
/// per-cause intervals, exactly as [`class_intervals`] does for classes.
#[must_use]
pub fn cause_intervals(events: &[TraceEvent]) -> Vec<CauseInterval> {
    tile(
        events,
        |e| match *e {
            TraceEvent::CauseTransition { cause, pc, .. } => Some((cause, pc)),
            _ => None,
        },
        |(cause, pc), start, len| CauseInterval { cause, pc, start, len },
    )
}

/// Total cycles per refined cause, from interval replay. Collapses onto
/// the six-class totals of [`class_intervals`] when the trace carries
/// both transition streams.
#[must_use]
pub fn cause_breakdown(intervals: &[CauseInterval]) -> CauseBreakdown {
    let mut b = CauseBreakdown::new();
    for iv in intervals {
        b.charge_n(iv.cause, iv.len);
    }
    b
}

/// Reconstructs the per-PC stall profile from interval replay: every
/// cycle of an attributable interval is charged to its blamed PC.
/// Agrees with [`ff_core::SimReport::stall_profile`] for a full trace.
#[must_use]
pub fn stall_profile(intervals: &[CauseInterval]) -> StallProfile {
    let mut p = StallProfile::new();
    for iv in intervals {
        if let (true, Some(pc)) = (iv.cause.has_site(), iv.pc) {
            p.record_n(pc as usize, iv.cause, iv.len);
        }
    }
    p
}

/// A hierarchical CPI stack: per-class rows with nested per-cause rows,
/// each carrying cycles, the fraction of total cycles, and the CPI
/// contribution (cycles per retired instruction).
#[derive(Debug, Clone, serde::Serialize)]
pub struct CpiStack {
    /// Total cycles covered.
    pub cycles: u64,
    /// Instructions retired (0 when the trace carries no retires).
    pub retired: u64,
    /// Overall cycles-per-instruction.
    pub cpi: f64,
    /// One row per non-empty class, in display order.
    pub classes: Vec<CpiClassRow>,
}

/// One class level of the CPI stack.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CpiClassRow {
    /// Class label (display order).
    pub class: String,
    /// Cycles charged to the class.
    pub cycles: u64,
    /// Fraction of total cycles.
    pub fraction: f64,
    /// CPI contribution of this class.
    pub cpi: f64,
    /// Refined causes under this class, zero-count causes omitted.
    pub causes: Vec<CpiCauseRow>,
}

/// One refined-cause leaf of the CPI stack.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CpiCauseRow {
    /// Dotted cause label.
    pub cause: String,
    /// Cycles charged to the cause.
    pub cycles: u64,
    /// Fraction of total cycles.
    pub fraction: f64,
    /// CPI contribution of this cause.
    pub cpi: f64,
}

/// Builds the hierarchical CPI stack from a refined breakdown.
#[must_use]
pub fn cpi_stack(breakdown: &CauseBreakdown, retired: u64) -> CpiStack {
    let cycles = breakdown.total();
    let per_instr = |n: u64| if retired == 0 { 0.0 } else { n as f64 / retired as f64 };
    let frac = |n: u64| if cycles == 0 { 0.0 } else { n as f64 / cycles as f64 };
    let mut classes = Vec::new();
    for class in CycleClass::ALL {
        let class_cycles = breakdown.class_total(class);
        if class_cycles == 0 {
            continue;
        }
        let causes = StallCause::ALL
            .iter()
            .filter(|c| c.class() == class)
            .filter_map(|&c| {
                let n = breakdown[c];
                (n > 0).then(|| CpiCauseRow {
                    cause: c.label().to_string(),
                    cycles: n,
                    fraction: frac(n),
                    cpi: per_instr(n),
                })
            })
            .collect();
        classes.push(CpiClassRow {
            class: class.label().to_string(),
            cycles: class_cycles,
            fraction: frac(class_cycles),
            cpi: per_instr(class_cycles),
            causes,
        });
    }
    CpiStack { cycles, retired, cpi: per_instr(cycles), classes }
}

/// Renders a [`CpiStack`] as an indented text table.
#[must_use]
pub fn render_cpi_stack(stack: &CpiStack) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "cycles={} retired={} cpi={:.3}", stack.cycles, stack.retired, stack.cpi);
    let _ = writeln!(out, "{:<24} {:>12} {:>8} {:>8}", "class / cause", "cycles", "frac", "cpi");
    for class in &stack.classes {
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>7.1}% {:>8.3}",
            class.class,
            class.cycles,
            100.0 * class.fraction,
            class.cpi
        );
        for cause in &class.causes {
            let _ = writeln!(
                out,
                "  {:<22} {:>12} {:>7.1}% {:>8.3}",
                cause.cause,
                cause.cycles,
                100.0 * cause.fraction,
                cause.cpi
            );
        }
    }
    out
}

// ---- occupancy ---------------------------------------------------------

/// Exact occupancy distributions from [`TraceEvent::QueueSample`].
#[derive(Debug, Clone, Default)]
pub struct OccupancyStats {
    /// Coupling-queue depth → cycles observed at that depth.
    pub depth: BTreeMap<u32, u64>,
    /// Outstanding MSHR fills → cycles observed at that count.
    pub mshr: BTreeMap<u32, u64>,
    /// Power-of-two summary of the depth distribution.
    pub depth_hist: Histogram,
    /// Power-of-two summary of the MSHR distribution.
    pub mshr_hist: Histogram,
}

/// Builds queue-depth and MSHR occupancy distributions.
#[must_use]
pub fn occupancy(events: &[TraceEvent]) -> OccupancyStats {
    let mut o = OccupancyStats::default();
    for e in events {
        if let TraceEvent::QueueSample { depth, mshr, .. } = *e {
            *o.depth.entry(depth).or_insert(0) += 1;
            *o.mshr.entry(mshr).or_insert(0) += 1;
            o.depth_hist.observe(u64::from(depth));
            o.mshr_hist.observe(u64::from(mshr));
        }
    }
    o
}

// ---- slip and deferral runs --------------------------------------------

/// A-to-B slip, coupling-queue residency, and deferral run-length
/// distributions, with the bookkeeping needed to reconcile them against
/// the per-cycle [`TraceEvent::QueueSample`] occupancy integral.
#[derive(Debug, Clone, Default)]
pub struct SlipStats {
    /// Cycles between an instruction's A-dispatch and its B-retire
    /// (re-dispatched instructions count their final flight).
    pub slip: Histogram,
    /// Exact coupling-queue residency of every dequeued entry, from
    /// [`TraceEvent::CqDequeue`]. For the two-pass models dequeue *is*
    /// the merge, so this distribution equals `slip` exactly.
    pub residency: Histogram,
    /// Lengths of maximal runs of consecutively *deferred* dispatches —
    /// how much work each miss shadow pushes to the B-pipe.
    pub deferral_runs: Histogram,
    /// In-flight entries squashed by flushes.
    pub squashed: u64,
    /// Queue-cycles spent by squashed entries before their squash.
    pub squashed_resident: u64,
    /// Queue-cycles of entries still enqueued when the trace ends
    /// (counted through the last occupancy sample).
    pub leftover_resident: u64,
}

impl SlipStats {
    /// Total queue-cycles accounted to individual instructions:
    /// dequeued residency plus partial residency of squashed and
    /// still-enqueued entries. For a full trace this equals the sum of
    /// the per-cycle queue-depth samples (Little's-law tie-out: the
    /// occupancy integral is exactly the per-instruction residency).
    #[must_use]
    pub fn accounted_queue_cycles(&self) -> u64 {
        self.residency.sum() + self.squashed_resident + self.leftover_resident
    }
}

/// Matches dispatches to retires through the [`FlightReplay`], measures
/// deferral run lengths along the dispatch stream, and takes exact
/// residency from the dequeues.
#[must_use]
pub fn slip_stats(events: &[TraceEvent]) -> SlipStats {
    let mut s = SlipStats::default();
    let mut replay = FlightReplay::default();
    let mut last_sample: Option<u64> = None;
    let mut run = 0u64;
    for e in events {
        match *e {
            TraceEvent::ADispatch { deferred: true, .. } => run += 1,
            TraceEvent::ADispatch { deferred: false, .. } if run > 0 => {
                s.deferral_runs.observe(run);
                run = 0;
            }
            TraceEvent::CqDequeue { resident, .. } => s.residency.observe(resident),
            TraceEvent::QueueSample { cycle, .. } => last_sample = Some(cycle),
            _ => {}
        }
        let Some((f, _)) = replay.apply(e) else { continue };
        if let (Some(retire), Some((dispatch, _))) = (f.retire, f.dispatch) {
            s.slip.observe(retire.saturating_sub(dispatch));
        } else if let Some(squash) = f.squash {
            s.squashed += 1;
            s.squashed_resident += queued_since(f).map_or(0, |enq| squash.saturating_sub(enq));
        }
    }
    if run > 0 {
        s.deferral_runs.observe(run);
    }
    // Entries still enqueued at trace end were sampled from their
    // enqueue cycle through the final occupancy sample.
    if let Some(last) = last_sample {
        for enq in replay.in_flight().filter_map(queued_since) {
            s.leftover_resident += (last + 1).saturating_sub(enq);
        }
    }
    s
}

/// Enqueue cycle of a flight still waiting in the coupling queue.
fn queued_since(f: &Flight) -> Option<u64> {
    f.enqueue.filter(|_| f.dequeue.is_none()).map(|(c, _)| c)
}

// ---- per-instruction lifecycle -----------------------------------------

/// One flight of a dynamic instruction through the pipeline,
/// reconstructed from the lifecycle events by [`FlightReplay`]. A
/// sequence number fetched again after a flush starts a fresh flight;
/// the squashed flight keeps its `squash` cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flight {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// How many flights the trace opened before this one.
    pub order: u64,
    /// Cycle the front end delivered the instruction.
    pub fetch: Option<u64>,
    /// Cycle the A-pipe executed it, with the result-ready cycle.
    pub a_exec: Option<(u64, u64)>,
    /// Cycle the A-pipe deferred it.
    pub defer: Option<u64>,
    /// A-dispatch cycle and whether the dispatch deferred.
    pub dispatch: Option<(u64, bool)>,
    /// Coupling-queue enqueue cycle and post-push depth.
    pub enqueue: Option<(u64, u32)>,
    /// Coupling-queue dequeue cycle and residency.
    pub dequeue: Option<(u64, u64)>,
    /// Cycle the B-pipe executed it at merge.
    pub b_exec: Option<u64>,
    /// Architectural retire cycle.
    pub retire: Option<u64>,
    /// Cycle a flush squashed it.
    pub squash: Option<u64>,
}

impl Flight {
    /// Whether this flight reached an end state (retired or squashed).
    #[must_use]
    pub fn closed(&self) -> bool {
        self.retire.is_some() || self.squash.is_some()
    }

    /// Earliest cycle any lifecycle event touched this flight.
    #[must_use]
    pub fn first_cycle(&self) -> u64 {
        self.cycles().min().unwrap_or(0)
    }

    /// Latest cycle any lifecycle event touched this flight.
    #[must_use]
    pub fn last_cycle(&self) -> u64 {
        self.cycles().max().unwrap_or(0)
    }

    fn cycles(&self) -> impl Iterator<Item = u64> {
        [
            self.fetch,
            self.a_exec.map(|(c, _)| c),
            self.defer,
            self.dispatch.map(|(c, _)| c),
            self.enqueue.map(|(c, _)| c),
            self.dequeue.map(|(c, _)| c),
            self.b_exec,
            self.retire,
            self.squash,
        ]
        .into_iter()
        .flatten()
    }
}

/// Pairs each lifecycle event with its [`Flight`]; every view that
/// follows instructions through the pipeline goes through it.
///
/// A [`TraceEvent::Fetch`] opens a flight. Any other lifecycle event
/// joins the open flight of its sequence number, or opens one when the
/// trace starts after the fetch (ring-buffer tails, windows). A retire
/// or squash closes the flight and drops it, so the replay holds only
/// instructions still in flight.
#[derive(Debug, Clone, Default)]
pub struct FlightReplay {
    /// Sequence number → slot in `slots` of each open flight.
    open: HashMap<u64, usize>,
    /// Flight records. A closed flight's slot goes on `free` but keeps
    /// its record until the next flight opens there, so `apply` can
    /// return it.
    slots: Vec<Flight>,
    /// Slots of closed flights.
    free: Vec<usize>,
    /// Sequence number and slot of the last open flight an event
    /// touched: the events of one instruction come in runs.
    last: Option<(u64, usize)>,
    /// Flights opened so far.
    opened: u64,
}

impl FlightReplay {
    /// Records one event in its flight. Returns `None` for an event
    /// outside the instruction lifecycle; otherwise the flight with the
    /// event recorded, and whether this event opened it.
    pub fn apply(&mut self, e: &TraceEvent) -> Option<(&Flight, bool)> {
        let (seq, pc) = match *e {
            TraceEvent::Fetch { seq, pc, .. }
            | TraceEvent::AExec { seq, pc, .. }
            | TraceEvent::Defer { seq, pc, .. }
            | TraceEvent::ADispatch { seq, pc, .. }
            | TraceEvent::CqEnqueue { seq, pc, .. }
            | TraceEvent::CqDequeue { seq, pc, .. }
            | TraceEvent::BExec { seq, pc, .. }
            | TraceEvent::BRetire { seq, pc, .. }
            | TraceEvent::Squash { seq, pc, .. } => (seq, pc),
            _ => return None,
        };
        let fetch = matches!(e, TraceEvent::Fetch { .. });
        let closes = matches!(e, TraceEvent::BRetire { .. } | TraceEvent::Squash { .. });
        let (slot, opened) = match self.last {
            Some((last, slot)) if last == seq && !fetch && !closes => (slot, false),
            _ => match self.open.entry(seq) {
                Entry::Occupied(o) if closes => (o.remove(), false),
                Entry::Occupied(o) => (*o.get(), fetch),
                Entry::Vacant(v) => {
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(Flight::default());
                        self.slots.len() - 1
                    });
                    if !closes {
                        v.insert(slot);
                    }
                    (slot, true)
                }
            },
        };
        self.last = (!closes).then_some((seq, slot));
        if closes {
            self.free.push(slot);
        }
        let f = &mut self.slots[slot];
        if opened {
            *f = Flight { seq, pc, order: self.opened, ..Flight::default() };
            self.opened += 1;
        }
        match *e {
            TraceEvent::Fetch { cycle, .. } => f.fetch = Some(cycle),
            TraceEvent::AExec { cycle, ready_at, .. } => f.a_exec = Some((cycle, ready_at)),
            TraceEvent::Defer { cycle, .. } => f.defer = Some(cycle),
            TraceEvent::ADispatch { cycle, deferred, .. } => f.dispatch = Some((cycle, deferred)),
            TraceEvent::CqEnqueue { cycle, depth, .. } => f.enqueue = Some((cycle, depth)),
            TraceEvent::CqDequeue { cycle, resident, .. } => f.dequeue = Some((cycle, resident)),
            TraceEvent::BExec { cycle, .. } => f.b_exec = Some(cycle),
            TraceEvent::BRetire { cycle, .. } => f.retire = Some(cycle),
            TraceEvent::Squash { cycle, .. } => f.squash = Some(cycle),
            _ => unreachable!("non-lifecycle events returned above"),
        }
        Some((f, opened))
    }

    /// The flights opened but neither retired nor squashed yet, in no
    /// particular order.
    pub fn in_flight(&self) -> impl Iterator<Item = &Flight> {
        self.open.values().map(|&slot| &self.slots[slot])
    }
}

/// Replays the lifecycle events into per-flight records, in order of
/// first appearance (see [`FlightReplay`] for how events pair up).
#[must_use]
pub fn lifecycles(events: &[TraceEvent]) -> Vec<Flight> {
    let mut replay = FlightReplay::default();
    let mut flights = Vec::new();
    for e in events {
        match replay.apply(e) {
            Some((f, true)) => flights.push(*f),
            Some((f, false)) => flights[f.order as usize] = *f,
            None => {}
        }
    }
    flights
}

// ---- ASCII pipeview ----------------------------------------------------

/// Window selection for [`pipeview`]: a half-open cycle range plus an
/// inclusive sequence-number range.
#[derive(Debug, Clone, Copy)]
pub struct PipeviewOpts {
    /// First cycle column.
    pub from: u64,
    /// One past the last cycle column.
    pub to: u64,
    /// Lowest sequence number shown.
    pub seq_from: u64,
    /// Highest sequence number shown.
    pub seq_to: u64,
}

impl Default for PipeviewOpts {
    fn default() -> Self {
        Self { from: 0, to: 80, seq_from: 0, seq_to: u64::MAX }
    }
}

/// Renders an ASCII pipeline diagram: one row per dynamic-instruction
/// flight, one column per cycle. Stage letters:
///
/// * `F` — fetched (single-pipe models retire the same cycle, so `R`
///   wins the cell),
/// * `A` — executed in the A-pipe,
/// * `d` — deferred by the A-pipe,
/// * `q` — waiting in the coupling queue,
/// * `B` — executed by the B-pipe at merge (retires that cycle),
/// * `R` — merged/retired a pre-computed result,
/// * `x` — squashed by a flush.
#[must_use]
pub fn pipeview(events: &[TraceEvent], opts: PipeviewOpts) -> String {
    let end = end_cycle(events);
    let to = opts.to.min(end.max(1));
    let from = opts.from.min(to);
    let width = (to - from) as usize;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeview cycles {from}..{to}  \
         (F fetch, A a-exec, d defer, q queue, B b-exec, R merge/retire, x squash)"
    );
    // Ruler: a label every 10 columns.
    let mut ruler = String::new();
    for col in (0..width).step_by(10) {
        let label = (from + col as u64).to_string();
        let pad = col.saturating_sub(ruler.len());
        ruler.push_str(&" ".repeat(pad));
        if ruler.len() <= col {
            ruler.push_str(&label);
        }
    }
    let _ = writeln!(out, "{:>7} {:>6}  {}", "seq", "pc", ruler);
    // A zero-width window (from >= to after clamping to the trace end,
    // e.g. `--from 100 --to 50` or a window entirely past the last
    // cycle) renders no flights: a flight still alive at the clamp
    // boundary would otherwise pass the retain filter and print a
    // zero-column row.
    let mut flights = if width == 0 { Vec::new() } else { lifecycles(events) };
    flights.retain(|f| {
        f.seq >= opts.seq_from
            && f.seq <= opts.seq_to
            && f.first_cycle() < to
            && f.last_cycle() >= from
    });
    flights.sort_by_key(|f| (f.first_cycle(), f.seq));
    let mut rows = 0usize;
    for f in &flights {
        let mut cells = vec![b'.'; width];
        let mut put = |cycle: u64, ch: u8| {
            if cycle >= from && cycle < to {
                cells[(cycle - from) as usize] = ch;
            }
        };
        if let Some(c) = f.fetch {
            put(c, b'F');
        }
        if let Some((c, _)) = f.a_exec {
            put(c, b'A');
        }
        if let Some(c) = f.defer {
            put(c, b'd');
        }
        if let Some((enq, _)) = f.enqueue {
            // The queue span runs from the cycle after enqueue to the
            // cycle before dequeue/squash (or the trace end while the
            // entry is still in flight).
            let until = f.dequeue.map(|(c, _)| c).or(f.squash).unwrap_or(end);
            for c in enq + 1..until {
                put(c, b'q');
            }
        }
        if let Some(c) = f.retire {
            put(c, if f.b_exec.is_some() { b'B' } else { b'R' });
        }
        if let Some(c) = f.squash {
            put(c, b'x');
        }
        let _ = writeln!(
            out,
            "{:>7} {:>6}  {}",
            f.seq,
            f.pc,
            std::str::from_utf8(&cells).expect("ascii cells")
        );
        rows += 1;
    }
    if rows == 0 {
        let _ = writeln!(out, "(no flights in window)");
    }
    out
}

// ---- Konata (Kanata log) export ----------------------------------------

/// Converts a trace to the Kanata log format the
/// [Konata](https://github.com/shioyadan/Konata) pipeline viewer loads.
/// Lane 0 carries the A-pipe stages (`F` fetch, `A` a-exec, `d` defer),
/// lane 1 the B-pipe stages (`q` queue wait, `B` b-exec, `R` merge) —
/// the A→B slip is the horizontal gap between the lanes. Squashed
/// flights end with a flush-type retire record, so Konata greys them.
#[must_use]
pub fn konata(events: &[TraceEvent]) -> String {
    let mut out = String::from("Kanata\t0004\n");
    let mut cur: Option<u64> = None;
    let mut retired = 0u64;
    let mut replay = FlightReplay::default();
    for e in events {
        let Some((f, opened)) = replay.apply(e) else { continue };
        let stage = match *e {
            TraceEvent::Fetch { .. } => Some((0, 'F')),
            TraceEvent::AExec { .. } => Some((0, 'A')),
            TraceEvent::Defer { .. } => Some((0, 'd')),
            TraceEvent::CqEnqueue { .. } => Some((1, 'q')),
            TraceEvent::BExec { .. } => Some((1, 'B')),
            TraceEvent::BRetire { .. } => Some((u8::from(f.enqueue.is_some()), 'R')),
            _ => None,
        };
        if !opened && stage.is_none() && !f.closed() {
            continue;
        }
        let cycle = e.cycle();
        match cur {
            None => {
                let _ = writeln!(out, "C=\t{cycle}");
                cur = Some(cycle);
            }
            Some(at) if cycle > at => {
                let _ = writeln!(out, "C\t{}", cycle - at);
                cur = Some(cycle);
            }
            Some(_) => {}
        }
        let (id, seq) = (f.order, f.seq);
        if opened {
            let _ = writeln!(out, "I\t{id}\t{seq}\t0");
            let _ = writeln!(out, "L\t{id}\t0\tpc={} seq={seq}", f.pc);
        }
        if let Some((lane, stage)) = stage {
            let _ = writeln!(out, "S\t{id}\t{lane}\t{stage}");
        }
        if f.retire.is_some() {
            let _ = writeln!(out, "R\t{id}\t{retired}\t0");
            retired += 1;
        } else if f.squash.is_some() {
            let _ = writeln!(out, "R\t{id}\t0\t1");
        }
    }
    out
}

// ---- Figure-4-style snapshot -------------------------------------------

/// Renders a per-cycle ASCII view of `[start, end)`, in the spirit of
/// the paper's Figure 4 execution snapshots: what the A-pipe dispatched
/// (`*` = deferred), what the B-pipe retired (`!` = B-executed),
/// coupling-queue/MSHR occupancy, the cycle's class, and control events
/// (flushes, redirects, miss completions, runahead boundaries).
#[must_use]
pub fn snapshot(events: &[TraceEvent], start: u64, end: u64) -> String {
    #[derive(Default)]
    struct Row {
        a: Vec<String>,
        b: Vec<String>,
        sample: Option<(u32, u32)>,
        notes: Vec<String>,
    }
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    let in_window = |c: u64| c >= start && c < end;
    for e in events {
        let cycle = e.cycle();
        if !in_window(cycle) {
            continue;
        }
        let row = rows.entry(cycle).or_default();
        match *e {
            TraceEvent::ADispatch { pc, deferred, .. } => {
                row.a.push(format!("{pc}{}", if deferred { "*" } else { "" }));
            }
            TraceEvent::BRetire { pc, was_deferred, .. } => {
                row.b.push(format!("{pc}{}", if was_deferred { "!" } else { "" }));
            }
            TraceEvent::QueueSample { depth, mshr, .. } => row.sample = Some((depth, mshr)),
            TraceEvent::Flush { kind, boundary_seq, .. } => {
                row.notes.push(format!("FLUSH {} >{boundary_seq}", kind.label()));
            }
            TraceEvent::ARedirect { pc, .. } => row.notes.push(format!("redirect pc={pc}")),
            TraceEvent::MissBegin { pipe, level, fill_at, .. } => {
                row.notes.push(format!("{pipe}-miss {level} fill@{fill_at}"));
            }
            TraceEvent::MissEnd { level, .. } => row.notes.push(format!("fill {level}")),
            TraceEvent::RunaheadEnter { pc, .. } => row.notes.push(format!("ra-enter pc={pc}")),
            TraceEvent::RunaheadExit { pc, discarded, .. } => {
                row.notes.push(format!("ra-exit pc={pc} -{discarded}"));
            }
            TraceEvent::Squash { seq, .. } => row.notes.push(format!("squash seq={seq}")),
            TraceEvent::GroupDispatch { .. }
            | TraceEvent::ClassTransition { .. }
            | TraceEvent::CauseTransition { .. }
            | TraceEvent::Fetch { .. }
            | TraceEvent::AExec { .. }
            | TraceEvent::Defer { .. }
            | TraceEvent::CqEnqueue { .. }
            | TraceEvent::CqDequeue { .. }
            | TraceEvent::BExec { .. } => {}
        }
    }
    // The class at each cycle comes from the interval replay, which sees
    // the whole trace (the governing transition may precede the window).
    let intervals = class_intervals(events);
    let class_at = |cycle: u64| {
        intervals
            .iter()
            .rev()
            .find(|iv| iv.start <= cycle && cycle < iv.start + iv.len)
            .map_or("?", |iv| iv.class.label())
    };
    let mut out = String::new();
    let _ = writeln!(out, "cycles {start}..{end}  (* deferred, ! B-executed)");
    let _ = writeln!(
        out,
        "{:>8}  {:<11} {:>3} {:>4}  {:<24} {:<24} notes",
        "cycle", "class", "cq", "mshr", "A dispatch (pc)", "B retire (pc)"
    );
    for (cycle, row) in &rows {
        let (cq, mshr) = row
            .sample
            .map_or(("-".to_string(), "-".to_string()), |(d, m)| (d.to_string(), m.to_string()));
        let _ = writeln!(
            out,
            "{cycle:>8}  {:<11} {cq:>3} {mshr:>4}  {:<24} {:<24} {}",
            class_at(*cycle),
            row.a.join(","),
            row.b.join(","),
            row.notes.join("; ")
        );
    }
    if rows.is_empty() {
        let _ = writeln!(out, "(no events in window)");
    }
    out
}

// ---- Chrome trace-event export -----------------------------------------

/// Track (thread) ids of the Chrome export, one per pipe stage.
const TID_A_GROUPS: u32 = 1;
const TID_B_GROUPS: u32 = 2;
const TID_INFLIGHT: u32 = 3;
const TID_MISS_A: u32 = 4;
const TID_MISS_B: u32 = 5;
const TID_CLASS: u32 = 6;
const TID_CONTROL: u32 = 7;
const TID_RUNAHEAD: u32 = 8;
const TID_FRONTEND: u32 = 9;
const TID_CQ: u32 = 10;
const TID_BEXEC: u32 = 11;

/// Converts a trace to Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). One simulated cycle maps to 1 µs of trace
/// time. Tracks, one per pipe stage:
///
/// 1. A-pipe issue groups,
/// 2. B-pipe issue groups,
/// 3. in-flight instructions (dispatch→retire slices),
/// 4. cache misses initiated by the A-pipe (slices spanning the fill),
/// 5. the same for the B-pipe,
/// 6. the cycle-class timeline,
/// 7. control events (flushes, redirects),
/// 8. runahead episodes,
/// 9. front-end residency (fetch until the A-pipe executes or defers),
/// 10. coupling-queue residency (enqueue until merge),
/// 11. B-pipe execution of deferred instructions,
///
/// plus counter tracks for coupling-queue depth and MSHR occupancy
/// (emitted on change). Instructions whose full lifecycle was traced
/// additionally get a flow arrow (`ph` `s`/`t`/`f`, keyed by sequence
/// number) linking their front-end, queue, and in-flight slices.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let end = end_cycle(events);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, json: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&json);
    };
    for (tid, name) in [
        (TID_A_GROUPS, "A-pipe dispatch"),
        (TID_B_GROUPS, "B-pipe retire"),
        (TID_INFLIGHT, "in-flight (A to B)"),
        (TID_MISS_A, "misses (A-pipe)"),
        (TID_MISS_B, "misses (B-pipe)"),
        (TID_CLASS, "cycle class"),
        (TID_CONTROL, "control"),
        (TID_RUNAHEAD, "runahead"),
        (TID_FRONTEND, "front-end (fetch to A)"),
        (TID_CQ, "coupling-queue residency"),
        (TID_BEXEC, "B-pipe execute"),
    ] {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    let mut replay = FlightReplay::default();
    let mut ra_entered: Option<(u64, usize)> = None;
    let mut last_sample: Option<(u32, u32)> = None;
    for e in events {
        let flight = replay.apply(e).map(|(f, _)| f);
        match *e {
            TraceEvent::BRetire { cycle, seq, was_deferred, .. } => {
                let f = flight.expect("a retire is a lifecycle event");
                // Untraced dispatch (single-pipe models, ring-buffer
                // tails) still yields a 1-cycle retire slice.
                let (start, deferred) = f.dispatch.unwrap_or((cycle, was_deferred));
                let pc = f.pc;
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_INFLIGHT},\"ts\":{start},\
                         \"dur\":{},\"name\":\"pc{pc}\",\"args\":{{\"seq\":{seq},\
                         \"deferred\":{deferred},\"b_executed\":{was_deferred}}}}}",
                        (cycle - start).max(1)
                    ),
                );
                // Flow arrows anchor on the front-end and queue slices,
                // so only a flight that drew its front-end slice gets
                // one, and every emitted arrow is complete.
                let fe_ts = f.fetch.filter(|_| f.a_exec.is_some() || f.defer.is_some());
                let cq_ts = f.enqueue.filter(|_| f.dequeue.is_some()).map(|(c, _)| c);
                if let Some(fe_ts) = fe_ts {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"s\",\"cat\":\"lifecycle\",\"name\":\"seq\",\
                             \"id\":{seq},\"pid\":1,\"tid\":{TID_FRONTEND},\"ts\":{fe_ts}}}"
                        ),
                    );
                    if let Some(cq_ts) = cq_ts {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"ph\":\"t\",\"cat\":\"lifecycle\",\"name\":\"seq\",\
                                 \"id\":{seq},\"pid\":1,\"tid\":{TID_CQ},\"ts\":{cq_ts}}}"
                            ),
                        );
                    }
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"lifecycle\",\"name\":\"seq\",\
                             \"id\":{seq},\"pid\":1,\"tid\":{TID_INFLIGHT},\"ts\":{start}}}"
                        ),
                    );
                }
            }
            TraceEvent::GroupDispatch { cycle, pipe, head_seq, len } => {
                let tid = if pipe == Pipe::A { TID_A_GROUPS } else { TID_B_GROUPS };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{cycle},\"dur\":1,\
                         \"name\":\"group\",\"args\":{{\"head_seq\":{head_seq},\"len\":{len}}}}}"
                    ),
                );
            }
            TraceEvent::MissBegin { cycle, pipe, level, addr, fill_at } => {
                let tid = if pipe == Pipe::A { TID_MISS_A } else { TID_MISS_B };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{cycle},\"dur\":{},\
                         \"name\":\"{level}\",\"args\":{{\"addr\":{addr}}}}}",
                        fill_at.saturating_sub(cycle).max(1)
                    ),
                );
            }
            TraceEvent::Flush { cycle, kind, boundary_seq } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{TID_CONTROL},\
                         \"ts\":{cycle},\"name\":\"flush: {}\",\
                         \"args\":{{\"boundary_seq\":{boundary_seq}}}}}",
                        kind.label()
                    ),
                );
            }
            TraceEvent::ARedirect { cycle, pc } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{TID_CONTROL},\
                         \"ts\":{cycle},\"name\":\"A-redirect\",\"args\":{{\"pc\":{pc}}}}}"
                    ),
                );
            }
            TraceEvent::QueueSample { cycle, depth, mshr } => {
                if last_sample != Some((depth, mshr)) {
                    last_sample = Some((depth, mshr));
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"C\",\"pid\":1,\"ts\":{cycle},\"name\":\"occupancy\",\
                             \"args\":{{\"coupling_queue\":{depth},\"mshr\":{mshr}}}}}"
                        ),
                    );
                }
            }
            TraceEvent::RunaheadEnter { cycle, pc } => ra_entered = Some((cycle, pc)),
            TraceEvent::RunaheadExit { cycle, discarded, .. } => {
                if let Some((entered, pc)) = ra_entered.take() {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_RUNAHEAD},\"ts\":{entered},\
                             \"dur\":{},\"name\":\"episode\",\"args\":{{\"pc\":{pc},\
                             \"discarded\":{discarded}}}}}",
                            (cycle - entered).max(1)
                        ),
                    );
                }
            }
            TraceEvent::Squash { cycle, seq, pc } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{TID_CONTROL},\
                         \"ts\":{cycle},\"name\":\"squash\",\"args\":{{\"seq\":{seq},\
                         \"pc\":{pc}}}}}"
                    ),
                );
            }
            TraceEvent::AExec { cycle, seq, pc, ready_at } => {
                if let Some(fetch) = flight.and_then(|f| f.fetch) {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_FRONTEND},\"ts\":{fetch},\
                             \"dur\":{},\"name\":\"pc{pc}\",\"args\":{{\"seq\":{seq},\
                             \"outcome\":\"a-exec\",\"ready_at\":{ready_at}}}}}",
                            (cycle - fetch).max(1)
                        ),
                    );
                }
            }
            TraceEvent::Defer { cycle, seq, pc } => {
                if let Some(fetch) = flight.and_then(|f| f.fetch) {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_FRONTEND},\"ts\":{fetch},\
                             \"dur\":{},\"name\":\"pc{pc}\",\"args\":{{\"seq\":{seq},\
                             \"outcome\":\"defer\"}}}}",
                            (cycle - fetch).max(1)
                        ),
                    );
                }
            }
            TraceEvent::CqDequeue { cycle, seq, pc, resident } => {
                if let Some((enq, depth)) = flight.and_then(|f| f.enqueue) {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_CQ},\"ts\":{enq},\
                             \"dur\":{},\"name\":\"pc{pc}\",\"args\":{{\"seq\":{seq},\
                             \"depth\":{depth},\"resident\":{resident}}}}}",
                            (cycle - enq).max(1)
                        ),
                    );
                }
            }
            TraceEvent::BExec { cycle, seq, pc } => {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_BEXEC},\"ts\":{cycle},\
                         \"dur\":1,\"name\":\"pc{pc}\",\"args\":{{\"seq\":{seq}}}}}"
                    ),
                );
            }
            TraceEvent::Fetch { .. }
            | TraceEvent::ADispatch { .. }
            | TraceEvent::CqEnqueue { .. }
            | TraceEvent::ClassTransition { .. }
            | TraceEvent::CauseTransition { .. }
            | TraceEvent::MissEnd { .. } => {}
        }
    }
    if let Some((entered, pc)) = ra_entered {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_RUNAHEAD},\"ts\":{entered},\"dur\":{},\
                 \"name\":\"episode (unfinished)\",\"args\":{{\"pc\":{pc}}}}}",
                (end - entered).max(1)
            ),
        );
    }
    for iv in class_intervals(events) {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_CLASS},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\"}}",
                iv.start,
                iv.len,
                iv.class.label()
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Renders a histogram as `lo..hi count bar` lines for terminal output.
#[must_use]
pub fn render_histogram(h: &Histogram) -> String {
    let mut out = String::new();
    if h.count() == 0 {
        let _ = writeln!(out, "  (empty)");
        return out;
    }
    let peak = h.buckets().map(|(_, _, n)| n).max().unwrap_or(1);
    for (lo, hi, n) in h.buckets() {
        let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
        let range = if lo == hi { format!("{lo}") } else { format!("{lo}..{hi}") };
        let _ = writeln!(out, "  {range:>14}  {n:>10}  {bar}");
    }
    let _ = writeln!(
        out,
        "  n={} mean={:.2} p50<={} p99<={} max={}",
        h.count(),
        h.mean(),
        h.quantile_bound(0.50),
        h.quantile_bound(0.99),
        h.max()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_core::{JsonlSink, MachineConfig, TwoPass};
    use ff_workloads::Scale;
    use serde::Value;
    use std::io::BufReader;

    fn traced_jsonl() -> (ff_core::SimReport, Vec<u8>) {
        let w = ff_workloads::benchmark_by_name("mcf-like", Scale::Tiny).unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        let r = TwoPass::new(&w.program, w.memory.clone(), MachineConfig::paper_table1())
            .run_with_sink(w.budget, &mut sink);
        assert!(!sink.errored());
        (r, sink.into_inner().unwrap())
    }

    #[test]
    fn load_round_trips_and_class_totals_match_breakdown() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        assert!(!events.is_empty());
        assert_eq!(end_cycle(&events), report.cycles);
        let totals = class_totals(&class_intervals(&events));
        let mut expected = [0u64; 6];
        for (class, n) in report.breakdown.iter() {
            expected[class.index()] = n;
        }
        assert_eq!(totals, expected, "replayed class cycles disagree with the breakdown");
        let s = summarize(&events);
        assert_eq!(s.retires, report.retired);
        assert_eq!(s.class_cycles, totals);
        assert_eq!(s.samples, report.cycles);
    }

    #[test]
    fn occupancy_and_slip_agree_with_always_on_stats() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let tp = report.two_pass.unwrap();
        let o = occupancy(&events);
        assert_eq!(o.depth_hist.count(), report.cycles);
        assert_eq!(o.depth_hist.sum(), tp.queue_depth_hist.sum());
        let s = slip_stats(&events);
        assert_eq!(s.slip.count(), report.retired);
        assert_eq!(s.slip.sum(), tp.slip_hist.sum());
        // `deferred` increments exactly once per deferred dispatch, and
        // every deferred dispatch lands in exactly one run.
        assert_eq!(s.deferral_runs.sum(), tp.deferred);
        // Dequeue happens at merge and enqueue at dispatch, so the
        // exact residency distribution *is* the slip distribution and
        // must also equal the simulator's always-on slip histogram.
        assert_eq!(s.residency, s.slip, "CQ residency must equal A->B slip");
        assert_eq!(s.residency, tp.slip_hist, "replayed residency disagrees with report");
        // Little's law tie-out: the per-cycle occupancy integral equals
        // per-instruction residency (incl. squashed/leftover partials).
        assert_eq!(o.depth_hist.sum(), s.accounted_queue_cycles());
    }

    #[test]
    fn lifecycles_are_complete_and_cycle_monotone() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let flights = lifecycles(&events);
        let retired = flights.iter().filter(|f| f.retire.is_some()).count() as u64;
        assert_eq!(retired, report.retired, "one retiring flight per retired instruction");
        for f in &flights {
            let fetch = f.fetch.expect("every flight starts with a fetch");
            let (dispatch, deferred) = f.dispatch.expect("two-pass flights dispatch");
            let (enq, _) = f.enqueue.expect("two-pass flights enqueue");
            assert_eq!(fetch, dispatch, "fetch and dispatch share the cycle");
            assert_eq!(dispatch, enq, "dispatch and enqueue share the cycle");
            if deferred {
                assert_eq!(f.defer, Some(dispatch));
                assert!(f.a_exec.is_none());
            } else {
                let (a, ready) = f.a_exec.expect("non-deferred flights a-exec");
                assert_eq!(a, dispatch);
                assert!(ready >= a, "result ready no earlier than exec");
                assert!(f.defer.is_none());
            }
            match (f.retire, f.squash) {
                (Some(r), None) => {
                    let (deq, resident) = f.dequeue.expect("retired flights dequeue");
                    assert_eq!(deq, r, "dequeue is the merge");
                    assert_eq!(resident, r - enq, "residency is deq - enq");
                    assert_eq!(f.b_exec.is_some(), deferred, "B executes iff deferred");
                }
                (None, Some(x)) => assert!(x >= enq, "squash after enqueue"),
                (r, x) => panic!("flight seq={} must close exactly once: {r:?}/{x:?}", f.seq),
            }
        }
    }

    #[test]
    fn a_retire_with_no_earlier_event_opens_a_flight_that_keeps_its_pc() {
        // A trace window that opens mid-run: only the retire is in it.
        let retire = TraceEvent::BRetire { cycle: 40, seq: 7, pc: 23, was_deferred: false };
        let mut replay = FlightReplay::default();
        let (&f, opened) = replay.apply(&retire).unwrap();
        assert!(opened, "an unknown sequence number opens a flight");
        assert_eq!(f, Flight { seq: 7, pc: 23, retire: Some(40), ..Flight::default() });
        assert_eq!(replay.in_flight().count(), 0, "the retire closed it");
        assert_eq!(lifecycles(&[retire]), [f]);
    }

    #[test]
    fn a_fetch_after_a_squash_opens_a_fresh_flight() {
        let events = [
            TraceEvent::Fetch { cycle: 1, seq: 6, pc: 3 },
            TraceEvent::AExec { cycle: 1, seq: 6, pc: 3, ready_at: 2 },
            TraceEvent::CqEnqueue { cycle: 1, seq: 6, pc: 3, depth: 1 },
            TraceEvent::Squash { cycle: 3, seq: 6, pc: 3 },
            // The refetched path puts another instruction at seq 6.
            TraceEvent::Fetch { cycle: 8, seq: 6, pc: 4 },
            TraceEvent::BRetire { cycle: 10, seq: 6, pc: 4, was_deferred: false },
        ];
        let flights = lifecycles(&events);
        assert_eq!(flights.len(), 2, "{flights:?}");
        let (squashed, retired) = (flights[0], flights[1]);
        assert_eq!((squashed.order, squashed.pc, squashed.squash), (0, 3, Some(3)));
        assert_eq!(squashed.retire, None, "the squashed flight never retires");
        assert_eq!(squashed.enqueue, Some((1, 1)));
        assert_eq!(
            retired,
            Flight {
                seq: 6,
                pc: 4,
                order: 1,
                fetch: Some(8),
                retire: Some(10),
                ..Flight::default()
            }
        );
    }

    #[test]
    fn the_replay_holds_no_open_flight_once_every_flight_closed() {
        let mut replay = FlightReplay::default();
        for seq in 0..3 {
            replay.apply(&TraceEvent::Fetch { cycle: 1, seq, pc: 0 });
            replay.apply(&TraceEvent::ADispatch { cycle: 1, seq, pc: 0, deferred: false });
        }
        assert_eq!(replay.in_flight().count(), 3);
        assert!(replay.apply(&TraceEvent::QueueSample { cycle: 1, depth: 3, mshr: 0 }).is_none());
        replay.apply(&TraceEvent::BRetire { cycle: 4, seq: 0, pc: 0, was_deferred: false });
        replay.apply(&TraceEvent::Squash { cycle: 5, seq: 2, pc: 0 });
        let open: Vec<u64> = replay.in_flight().map(|f| f.seq).collect();
        assert_eq!(open, [1]);
        let (f, opened) = replay.apply(&TraceEvent::Squash { cycle: 5, seq: 1, pc: 0 }).unwrap();
        assert!(!opened && f.closed(), "the squash closes the open flight");
        assert_eq!(f.dispatch, Some((1, false)), "the closed flight keeps its history");
        assert_eq!(replay.in_flight().count(), 0);
    }

    #[test]
    fn pipeview_renders_flights_and_respects_the_window() {
        let (_, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let text = pipeview(&events, PipeviewOpts::default());
        assert!(text.contains("pipeview cycles 0..80"), "{text}");
        assert!(text.lines().count() > 5, "expected rows:\n{text}");
        // mcf-like under two-pass defers load consumers: both stage
        // letters and queue spans must appear.
        for ch in ['F', 'q', 'R'] {
            assert!(text.contains(ch), "missing stage letter {ch}:\n{text}");
        }
        let empty = pipeview(
            &events,
            PipeviewOpts { from: u64::MAX - 2, to: u64::MAX, ..PipeviewOpts::default() },
        );
        assert!(empty.contains("no flights"), "{empty}");
        let seq_window =
            pipeview(&events, PipeviewOpts { seq_from: 3, seq_to: 5, ..PipeviewOpts::default() });
        for line in seq_window.lines().skip(2) {
            if let Some(seq) = line.split_whitespace().next().and_then(|s| s.parse::<u64>().ok()) {
                assert!((3..=5).contains(&seq), "seq {seq} outside window:\n{seq_window}");
            }
        }
    }

    #[test]
    fn konata_export_has_one_retire_record_per_retired_instruction() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let text = konata(&events);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("Kanata\t0004"));
        assert!(lines.next().unwrap().starts_with("C=\t"), "second line sets the cycle");
        let mut inserts = 0u64;
        let mut retires = 0u64;
        let mut flushes = 0u64;
        for line in text.lines() {
            let mut cols = line.split('\t');
            match cols.next() {
                Some("I") => inserts += 1,
                Some("R") => {
                    let ty = cols.nth(2).expect("R has a type column");
                    if ty == "0" {
                        retires += 1;
                    } else {
                        flushes += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(retires, report.retired);
        let flights = lifecycles(&events);
        assert_eq!(inserts, flights.len() as u64, "one I record per flight");
        assert_eq!(
            flushes,
            flights.iter().filter(|f| f.squash.is_some()).count() as u64,
            "one flush-retire per squashed flight"
        );
    }

    #[test]
    fn snapshot_covers_the_window() {
        let (_, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let text = snapshot(&events, 0, 40);
        assert!(text.contains("cycle"));
        // Every cycle in the window has a queue sample, so rows exist.
        assert!(text.lines().count() > 10, "snapshot too short:\n{text}");
        let empty = snapshot(&events, u64::MAX - 10, u64::MAX);
        assert!(empty.contains("no events"));
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_tracks() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let json = chrome_trace(&events);
        let v: Value = serde_json::from_str(&json).expect("chrome export must parse as JSON");
        let list = v.get("traceEvents").expect("traceEvents key");
        let Value::Array(items) = list else { panic!("traceEvents must be an array") };
        // 11 metadata records + at least one slice per retired instruction.
        assert!(items.len() as u64 > 11 + report.retired);
        let mut saw_inflight = 0u64;
        let mut saw_class = 0u64;
        for item in items {
            let ph = item.get("ph").and_then(Value::as_str).expect("ph");
            assert!(matches!(ph, "M" | "X" | "i" | "C" | "s" | "t" | "f"), "unexpected phase {ph}");
            if ph == "X" {
                let tid = item.get("tid").and_then(Value::as_u64).expect("tid");
                if tid == u64::from(TID_INFLIGHT) {
                    saw_inflight += 1;
                }
                if tid == u64::from(TID_CLASS) {
                    saw_class += 1;
                }
            }
        }
        assert_eq!(saw_inflight, report.retired, "one in-flight slice per retire");
        assert_eq!(saw_class as usize, class_intervals(&events).len());
    }

    #[test]
    fn chrome_export_has_lifecycle_tracks_and_balanced_flows() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let json = chrome_trace(&events);
        let v: Value = serde_json::from_str(&json).expect("chrome export must parse as JSON");
        let Some(Value::Array(items)) = v.get("traceEvents") else { panic!("traceEvents") };
        let (mut frontend, mut cq, mut bexec) = (0u64, 0u64, 0u64);
        let (mut s, mut t, mut f) = (0u64, 0u64, 0u64);
        for item in items {
            let ph = item.get("ph").and_then(Value::as_str).expect("ph");
            let tid = item.get("tid").and_then(Value::as_u64).unwrap_or(0);
            match (ph, tid as u32) {
                ("X", TID_FRONTEND) => frontend += 1,
                ("X", TID_CQ) => cq += 1,
                ("X", TID_BEXEC) => bexec += 1,
                ("s", _) => s += 1,
                ("t", _) => t += 1,
                ("f", _) => f += 1,
                _ => {}
            }
        }
        // Every retired instruction of a fully traced two-pass run
        // passed through the coupling queue and carries a complete
        // flow arrow; the B-exec track only holds deferred work.
        assert_eq!(cq, report.retired, "one queue-residency slice per retire");
        assert_eq!(s, report.retired, "one flow start per retire");
        assert_eq!(s, f, "flow starts and finishes must pair up");
        assert!(t <= s, "flow steps need a matching start");
        assert!(frontend >= s, "front-end slices cover at least the retired flights");
        assert!(bexec > 0 && bexec < report.retired, "B-exec covers only deferred work");
        let lifecycle_events = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Fetch { .. }
                        | TraceEvent::AExec { .. }
                        | TraceEvent::Defer { .. }
                        | TraceEvent::CqEnqueue { .. }
                        | TraceEvent::CqDequeue { .. }
                        | TraceEvent::BExec { .. }
                )
            })
            .count();
        assert!(lifecycle_events > 0, "trace must carry lifecycle events");
    }

    #[test]
    fn cause_replay_agrees_with_report_refined_accounting() {
        let (report, bytes) = traced_jsonl();
        let events = load_events(BufReader::new(bytes.as_slice())).unwrap();
        let ivs = cause_intervals(&events);
        assert!(!ivs.is_empty());
        let b2 = cause_breakdown(&ivs);
        assert_eq!(b2, report.breakdown2, "replayed causes disagree with breakdown2");
        assert_eq!(b2.collapse(), report.breakdown, "causes must collapse onto classes");
        let p = stall_profile(&ivs);
        assert_eq!(p, report.stall_profile, "replayed profile disagrees with the report");

        let stack = cpi_stack(&b2, report.retired);
        assert_eq!(stack.cycles, report.cycles);
        let class_sum: u64 = stack.classes.iter().map(|c| c.cycles).sum();
        assert_eq!(class_sum, report.cycles, "CPI stack classes must tile the run");
        for class in &stack.classes {
            let cause_sum: u64 = class.causes.iter().map(|c| c.cycles).sum();
            assert_eq!(cause_sum, class.cycles, "causes must tile class {}", class.class);
        }
        let text = render_cpi_stack(&stack);
        assert!(text.contains("cpi="), "{text}");
        let json = serde_json::to_string_pretty(&stack).unwrap();
        assert!(json.contains("\"classes\""));
    }

    #[test]
    fn load_reports_the_bad_line() {
        let text = "not json\n";
        let err = load_events(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let text = "{\"Fetch\":{\"cycle\":1,\"seq\":2,\"pc\":3}}\n\n\
                    {\"QueueSample\":{\"cycle\":2,\"mshr\":0}}\n";
        let err = load_events(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err, "line 3: missing field `depth` in QueueSample");
        let text = "{\"QueueSample\":{\"cycle\":2,\"depth\":4294967296,\"mshr\":0}}";
        let err = load_events(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err, "line 1: field `depth` in QueueSample: expected u32, found 4294967296");
    }

    #[test]
    fn render_histogram_handles_empty_and_filled() {
        let empty = Histogram::default();
        assert!(render_histogram(&empty).contains("empty"));
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        let text = render_histogram(&h);
        assert!(text.contains("n=5"));
        assert!(text.contains('#'));
    }
}
