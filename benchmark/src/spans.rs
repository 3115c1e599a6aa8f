//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer
//! of the simulator (a crate's public function), with the span that
//! caused it and the request it belongs to. Spans stay in memory and are
//! written once, at exit, as Chrome trace-event JSON; the per-layer
//! numbers are read back from them. When the recorder is off, `enter`
//! and `exit` touch no clock.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `ff-core.run.2p`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside requests).
    pub req: u64,
    /// Units of work done inside the span (instructions, events, ...).
    pub work: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Records spans while on; does nothing while off.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Self-time of one span name, aggregated over the run.
#[derive(Debug, Clone, Serialize, serde::Deserialize)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub calls: u64,
    /// Total duration in milliseconds.
    pub total_ms: f64,
    /// Duration minus the time covered by child spans, in milliseconds.
    pub self_ms: f64,
}

impl Recorder {
    /// A recorder that starts off.
    pub fn new() -> Self {
        Recorder { on: false, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Turns recording on or off. Spans already open stay open.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req, work: 0 });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Recorder::enter`], crediting `work`.
    pub fn exit(&mut self, open: Open, work: u64) {
        let Open(Some(id)) = open else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the work it did.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.enter(name, req);
        let (out, work) = f();
        self.exit(open, work);
        out
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(total ns, total work, calls)` over the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0, 0), |(ns, work, n), s| (ns + s.dur_ns(), work + s.work, n + 1))
    }

    /// Per-name self time, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns().saturating_sub(*child);
        }
        let mut rows: Vec<SelfTime> = by_name
            .into_iter()
            .map(|(name, (calls, total, own))| SelfTime {
                name: name.to_string(),
                calls,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }

    /// The spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let args = serde_json::json!({
                    "id": id, "parent": s.parent, "req": s.req, "work": s.work,
                });
                serde_json::json!({
                    "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": s.start_ns as f64 / 1e3, "dur": s.dur_ns() as f64 / 1e3,
                    "args": args,
                })
            })
            .collect();
        let file = serde_json::json!({ "traceEvents": events });
        serde_json::to_string(&file).expect("serializable trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new();
        let open = r.enter("a", 0);
        r.exit(open, 1);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        r.set_on(true);
        let outer = r.enter("outer", 1);
        let inner = r.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner, 5);
        r.exit(outer, 0);
        let rows = r.self_times();
        let outer = rows.iter().find(|s| s.name == "outer").unwrap();
        let inner = rows.iter().find(|s| s.name == "inner").unwrap();
        assert!(inner.self_ms >= 2.0);
        assert!(outer.self_ms < outer.total_ms);
        assert!((outer.self_ms + inner.total_ms - outer.total_ms).abs() < 1e-9);
        assert_eq!(r.totals("inner").1, 5);
        assert_eq!(r.spans()[1].parent, Some(0));
    }
}
