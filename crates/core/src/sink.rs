//! Trace sinks: where [`TraceEvent`]s go.
//!
//! The grow-only [`Trace`] is fine for unit tests and short windows,
//! but a multi-million-instruction run emits tens of millions of
//! events. [`TraceSink`] decouples event *production* (the models)
//! from *retention policy*:
//!
//! * [`Trace`] — keep everything in memory.
//! * [`RingSink`] — keep only the last `capacity` events, O(1) memory.
//! * [`JsonlSink`] — stream every event as one JSON line to any
//!   [`std::io::Write`], O(1) memory; the `ff-trace` tool reads this
//!   format back. A hand-written codec writes and reads the lines with
//!   no per-event allocation, byte for byte in the layout of the
//!   `serde` derive on [`TraceEvent`], which stays as the tests'
//!   oracle.
//!
//! Besides single events, a sink takes runs of identical occupancy
//! samples from fast-forwarded stalls through
//! [`TraceSink::emit_samples`]. Its contract: the call is equivalent to
//! one `emit(QueueSample { cycle, depth, mshr })` per cycle of the
//! range, in order. The default does exactly that; an override may only
//! do it faster.
//!
//! Models never see a sink directly; they receive a [`SinkHandle`],
//! which is `None`-cheap when tracing is off: every probe site is
//! `sink.emit_with(|| ...)`, a single branch before the closure (and
//! its event construction) runs.

use crate::jsonl::{Line, SampleLines, LINE_MAX};
use crate::trace::{Trace, TraceEvent};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;

/// A consumer of pipeline trace events.
pub trait TraceSink {
    /// Accepts one event.
    fn emit(&mut self, e: TraceEvent);

    /// Accepts one `QueueSample` per cycle of `cycles`, all with the
    /// same `depth` and `mshr`. Must be equivalent to emitting them one
    /// by one, in cycle order, which is what the default does.
    fn emit_samples(&mut self, cycles: Range<u64>, depth: u32, mshr: u32) {
        for cycle in cycles {
            self.emit(TraceEvent::QueueSample { cycle, depth, mshr });
        }
    }

    /// Flushes any buffered output. Called once when a traced run ends.
    fn finish(&mut self) {}
}

impl TraceSink for Trace {
    fn emit(&mut self, e: TraceEvent) {
        self.push(e);
    }
}

/// A bounded sink retaining only the most recent events.
///
/// When full, the oldest event is dropped to admit the new one;
/// [`RingSink::dropped`] counts the evictions so analysis code can
/// tell a complete trace from a tail window.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { buf: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the retained window into an owned [`Trace`].
    #[must_use]
    pub fn into_trace(self) -> Trace {
        let mut t = Trace::new();
        for e in self.buf {
            t.push(e);
        }
        t
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, e: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }
}

/// Bytes of encoded lines the sink holds before handing them to its
/// writer in one `write_all`.
const WRITE_AT: usize = 8 * 1024;

/// Streams each event as one JSON object per line (JSONL).
///
/// Each event is encoded straight into a fixed internal buffer by the
/// crate's hand-written codec, with no per-event allocation or capacity
/// check; the buffer goes to the writer whenever it passes 8 KiB. A run
/// of occupancy samples ([`TraceSink::emit_samples`]) encodes the text
/// after the cycle once and rewrites only the cycle. Buffered lines are
/// written and flushed by [`TraceSink::finish`] (done automatically by
/// `run_with_sink`), by [`JsonlSink::into_inner`], and — so a panic or
/// an early return cannot truncate the tail of a trace — by `Drop`.
pub struct JsonlSink<W: io::Write> {
    /// `None` only after [`JsonlSink::into_inner`] moved the writer out
    /// (so `Drop` has nothing left to flush).
    out: Option<W>,
    /// Encoded lines not yet handed to `out` are `buf[..len]`. `len`
    /// stays below `WRITE_AT`, so a whole line always fits past it.
    buf: Box<[u8]>,
    len: usize,
    written: u64,
    errored: bool,
}

impl<W: io::Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("buffered", &self.len)
            .field("written", &self.written)
            .field("errored", &self.errored)
            .finish_non_exhaustive()
    }
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer. Lines are flushed on [`TraceSink::finish`] and
    /// on drop.
    pub fn new(out: W) -> Self {
        Self {
            out: Some(out),
            buf: vec![0; WRITE_AT + LINE_MAX].into_boxed_slice(),
            len: 0,
            written: 0,
            errored: false,
        }
    }

    /// Number of events successfully serialized.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Whether any write or flush failed (subsequent events are
    /// dropped).
    #[must_use]
    pub fn errored(&self) -> bool {
        self.errored
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.write_buf()?;
        let mut out = self.out.take().expect("writer present until into_inner");
        out.flush()?;
        Ok(out)
    }

    /// Hands the buffered lines to the writer (dropping them on error).
    fn write_buf(&mut self) -> io::Result<()> {
        let Some(out) = self.out.as_mut() else { return Ok(()) };
        let r = out.write_all(&self.buf[..self.len]);
        self.len = 0;
        r
    }

    /// The room for the next line, just past the buffered ones.
    #[inline]
    fn next_line(&mut self) -> &mut Line {
        self.buf[self.len..].first_chunk_mut().expect("a line fits past the buffered ones")
    }

    /// Books a line of `len` bytes just written at [`Self::next_line`],
    /// handing the buffer to the writer once it passes `WRITE_AT`.
    /// Returns `false` when that write failed.
    #[inline]
    fn commit(&mut self, len: usize) -> bool {
        self.len += len;
        self.written += 1;
        if self.len >= WRITE_AT && self.write_buf().is_err() {
            self.errored = true;
        }
        !self.errored
    }

    /// Writes the buffered lines and flushes the writer.
    fn flush(&mut self) -> io::Result<()> {
        self.write_buf()?;
        self.out.as_mut().map_or(Ok(()), io::Write::flush)
    }
}

impl<W: io::Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, e: TraceEvent) {
        if self.errored {
            return;
        }
        let len = crate::jsonl::encode(&e, self.next_line());
        self.commit(len);
    }

    fn emit_samples(&mut self, cycles: Range<u64>, depth: u32, mshr: u32) {
        if self.errored {
            return;
        }
        let lines = SampleLines::new(depth, mshr);
        for cycle in cycles {
            let len = lines.encode(cycle, self.next_line());
            if !self.commit(len) {
                return;
            }
        }
    }

    fn finish(&mut self) {
        if self.flush().is_err() {
            self.errored = true;
        }
    }
}

impl<W: io::Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Parses one JSONL line produced by [`JsonlSink`] back into an event.
///
/// The line may hold the fields in any order and any JSON whitespace.
///
/// # Errors
/// Returns a message naming the missing, unknown or malformed field,
/// or the byte where the line stops being a serialized [`TraceEvent`].
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, String> {
    crate::jsonl::decode(line)
}

/// A maybe-absent borrowed sink, threaded through the model step
/// functions. `off()` costs one `Option` discriminant test per probe.
pub struct SinkHandle<'a> {
    inner: Option<&'a mut dyn TraceSink>,
}

impl std::fmt::Debug for SinkHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkHandle").field("on", &self.is_on()).finish()
    }
}

impl<'a> SinkHandle<'a> {
    /// Tracing disabled: every probe is a cheap not-taken branch.
    #[must_use]
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// Tracing enabled, events forwarded to `sink`.
    pub fn on(sink: &'a mut dyn TraceSink) -> Self {
        Self { inner: Some(sink) }
    }

    /// Whether a sink is attached (lets callers skip probe-only work
    /// such as bookkeeping for miss-completion events).
    #[must_use]
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits the event built by `f` — but only if tracing is on. The
    /// closure keeps event construction off the hot path entirely.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.inner.as_deref_mut() {
            sink.emit(f());
        }
    }

    /// Forwards a run of identical occupancy samples (see
    /// [`TraceSink::emit_samples`]) if tracing is on.
    #[inline]
    pub fn emit_samples(&mut self, cycles: Range<u64>, depth: u32, mshr: u32) {
        if let Some(sink) = self.inner.as_deref_mut() {
            sink.emit_samples(cycles, depth, mshr);
        }
    }

    /// Signals end-of-run to the attached sink, if any.
    pub fn finish(&mut self) {
        if let Some(sink) = self.inner.as_deref_mut() {
            sink.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::QueueSample { cycle, depth: cycle as u32, mshr: 0 }
    }

    #[test]
    fn ring_sink_evicts_oldest_first() {
        let mut ring = RingSink::new(3);
        for c in 0..5 {
            ring.emit(ev(c));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "must retain the most recent window in order");
        let trace = ring.into_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events()[0].cycle(), 2);
    }

    #[test]
    fn ring_sink_capacity_floor_is_one() {
        let mut ring = RingSink::new(0);
        ring.emit(ev(1));
        ring.emit(ev(2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events().next().unwrap().cycle(), 2);
    }

    #[test]
    fn ring_sink_capacity_one_wraps_indefinitely() {
        let mut ring = RingSink::new(1);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        for c in 0..1000 {
            ring.emit(ev(c));
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 999);
        assert_eq!(ring.events().next().unwrap().cycle(), 999);
        let trace = ring.into_trace();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn ring_sink_wraps_exactly_at_capacity_boundary() {
        let mut ring = RingSink::new(4);
        for c in 0..4 {
            ring.emit(ev(c));
        }
        assert_eq!(ring.dropped(), 0, "nothing dropped while at capacity");
        ring.emit(ev(4));
        assert_eq!(ring.dropped(), 1, "first eviction exactly one past capacity");
        let cycles: Vec<u64> = ring.events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![1, 2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        use crate::accounting::CycleClass;
        use crate::report::Pipe;
        use crate::trace::FlushKind;
        use ff_mem::MemLevel;
        let events = vec![
            TraceEvent::ADispatch { cycle: 1, seq: 2, pc: 3, deferred: true },
            TraceEvent::BRetire { cycle: 4, seq: 2, pc: 3, was_deferred: true },
            TraceEvent::Flush { cycle: 5, kind: FlushKind::StoreConflict, boundary_seq: 1 },
            TraceEvent::ARedirect { cycle: 6, pc: 9 },
            TraceEvent::GroupDispatch { cycle: 7, pipe: Pipe::A, head_seq: 10, len: 4 },
            TraceEvent::ClassTransition {
                cycle: 8,
                from: CycleClass::Unstalled,
                to: CycleClass::LoadStall,
            },
            TraceEvent::CauseTransition {
                cycle: 8,
                cause: crate::accounting::StallCause::LoadL2,
                pc: Some(3),
            },
            TraceEvent::CauseTransition {
                cycle: 8,
                cause: crate::accounting::StallCause::FeRefill,
                pc: None,
            },
            TraceEvent::MissBegin {
                cycle: 9,
                pipe: Pipe::B,
                level: MemLevel::Mem,
                addr: 0xdead_beef,
                fill_at: 161,
            },
            TraceEvent::MissEnd { cycle: 161, addr: 0xdead_beef, level: MemLevel::Mem },
            TraceEvent::QueueSample { cycle: 10, depth: 7, mshr: 3 },
            TraceEvent::RunaheadEnter { cycle: 11, pc: 40 },
            TraceEvent::RunaheadExit { cycle: 12, pc: 40, discarded: 17 },
            TraceEvent::Fetch { cycle: 13, seq: 21, pc: 5 },
            TraceEvent::AExec { cycle: 13, seq: 21, pc: 5, ready_at: 14 },
            TraceEvent::Defer { cycle: 13, seq: 22, pc: 6 },
            TraceEvent::CqEnqueue { cycle: 13, seq: 22, pc: 6, depth: 2 },
            TraceEvent::CqDequeue { cycle: 20, seq: 22, pc: 6, resident: 7 },
            TraceEvent::BExec { cycle: 20, seq: 22, pc: 6 },
            TraceEvent::Squash { cycle: 21, seq: 23, pc: 7 },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for e in &events {
            sink.emit(*e);
        }
        sink.finish();
        assert_eq!(sink.written(), events.len() as u64);
        assert!(!sink.errored());
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<TraceEvent> = text.lines().map(|l| parse_jsonl_line(l).unwrap()).collect();
        assert_eq!(parsed, events);
    }

    /// A writer whose backing store outlives the sink, to observe what
    /// reached it and when.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_buffers_writes_and_flushes_on_drop() {
        let shared = SharedBuf::default();
        {
            let mut sink = JsonlSink::new(shared.clone());
            sink.emit(ev(1));
            assert_eq!(sink.written(), 1);
            // The event sits in the internal BufWriter: nothing has
            // reached the underlying writer yet.
            assert!(shared.0.borrow().is_empty(), "JsonlSink must buffer its writes");
        }
        // Dropping the sink (no finish, no into_inner) flushed the tail.
        let text = String::from_utf8(shared.0.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        let parsed = parse_jsonl_line(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed, ev(1));
    }

    #[test]
    fn jsonl_sink_finish_flushes_without_consuming() {
        let shared = SharedBuf::default();
        let mut sink = JsonlSink::new(shared.clone());
        sink.emit(ev(7));
        sink.finish();
        assert_eq!(String::from_utf8(shared.0.borrow().clone()).unwrap().lines().count(), 1);
    }

    /// A writer that takes every byte but fails to flush, like a file
    /// on a full disk.
    struct FailingFlush;

    impl io::Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn jsonl_sink_finish_reports_a_failed_flush() {
        let mut sink = JsonlSink::new(FailingFlush);
        sink.emit(ev(1));
        assert!(!sink.errored());
        sink.finish();
        assert!(sink.errored(), "a failed final flush must not read as success");
    }

    #[test]
    fn jsonl_sink_writes_through_once_the_buffer_fills() {
        let shared = SharedBuf::default();
        let mut sink = JsonlSink::new(shared.clone());
        let mut c = 0;
        while shared.0.borrow().is_empty() {
            sink.emit(ev(c));
            c += 1;
        }
        assert!(shared.0.borrow().len() >= WRITE_AT);
        assert!(shared.0.borrow().ends_with(b"}}\n"), "only whole lines are written");
        drop(sink);
        let text = String::from_utf8(shared.0.borrow().clone()).unwrap();
        let cycles: Vec<u64> = text.lines().map(|l| parse_jsonl_line(l).unwrap().cycle()).collect();
        assert_eq!(cycles, (0..c).collect::<Vec<_>>());
    }

    /// What a sink writes for `samples` runs, each handed over whole
    /// (`bulk`) or one event at a time.
    fn sample_bytes(samples: &[(Range<u64>, u32, u32)], bulk: bool) -> (Vec<u8>, u64) {
        let shared = SharedBuf::default();
        let mut sink = JsonlSink::new(shared.clone());
        for (cycles, depth, mshr) in samples {
            if bulk {
                sink.emit_samples(cycles.clone(), *depth, *mshr);
            } else {
                for cycle in cycles.clone() {
                    sink.emit(TraceEvent::QueueSample { cycle, depth: *depth, mshr: *mshr });
                }
            }
        }
        let written = sink.written();
        drop(sink);
        let bytes = shared.0.borrow().clone();
        (bytes, written)
    }

    #[test]
    fn jsonl_emit_samples_writes_the_bytes_of_one_emit_per_cycle() {
        // Runs that cross digit-count changes of the cycle, one that
        // spans several 8 KiB hand-offs, empty runs, and wide counts.
        let samples = [
            (0..12, 0, 0),
            (12..12, 3, 3),
            (95..105, 7, 16),
            (998..1_003, u32::MAX, 9),
            (9_990..10_600, 10, u32::MAX),
            (99_999..100_001, 1, 2),
            (u64::MAX - 3..u64::MAX, 4, 5),
        ];
        let (bulk, bulk_written) = sample_bytes(&samples, true);
        let (single, single_written) = sample_bytes(&samples, false);
        assert!(bulk.len() > 3 * WRITE_AT, "the runs cross several hand-offs");
        assert_eq!(bulk_written, single_written);
        assert!(bulk == single, "emit_samples bytes differ from per-event emit");
        // And the trait default is one emit per cycle too.
        let mut trace = Trace::new();
        trace.emit_samples(95..98, 7, 16);
        let want: Vec<_> =
            (95..98).map(|cycle| TraceEvent::QueueSample { cycle, depth: 7, mshr: 16 }).collect();
        assert_eq!(trace.events(), want.as_slice());
    }

    #[test]
    fn handle_off_never_builds_the_event() {
        let mut built = false;
        let mut h = SinkHandle::off();
        h.emit_with(|| {
            built = true;
            ev(0)
        });
        assert!(!built);
        assert!(!h.is_on());
    }

    #[test]
    fn handle_on_forwards() {
        let mut trace = Trace::new();
        let mut h = SinkHandle::on(&mut trace);
        assert!(h.is_on());
        h.emit_with(|| ev(5));
        h.finish();
        assert_eq!(trace.len(), 1);
    }
}
