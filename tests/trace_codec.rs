//! The hand-written JSONL trace codec against the `serde` derive on
//! `TraceEvent`, its oracle: on every kernel and model the sink writes
//! exactly serde's bytes and `load_events` reads back exactly serde's
//! events, and on mutated or truncated lines the reader never accepts
//! anything serde would read differently.

use ff_bench::traceview;
use fleaflicker::core::{
    parse_jsonl_line, run_model, CycleClass, FlushKind, JsonlSink, MachineConfig, ModelKind, Pipe,
    StallCause, Trace, TraceEvent, TraceSink,
};
use fleaflicker::mem::MemLevel;
use fleaflicker::workloads::{paper_benchmarks, Scale};
use proptest::prelude::*;

/// Keeps every event and streams it to a JSONL sink.
struct Tee {
    events: Vec<TraceEvent>,
    jsonl: JsonlSink<Vec<u8>>,
}

impl TraceSink for Tee {
    fn emit(&mut self, e: TraceEvent) {
        self.events.push(e);
        self.jsonl.emit(e);
    }

    fn finish(&mut self) {
        self.jsonl.finish();
    }
}

#[test]
fn sink_bytes_and_replay_match_serde_on_every_kernel_and_model() {
    for w in paper_benchmarks(Scale::Tiny) {
        for kind in ModelKind::ALL {
            let ctx = format!("{} on {kind}", w.name);
            let mut tee = Tee { events: Vec::new(), jsonl: JsonlSink::new(Vec::new()) };
            let cfg = MachineConfig::paper_table1();
            let (report, _, _) =
                run_model(kind, &w.program, w.memory.clone(), cfg, w.budget, Some(&mut tee));
            assert!(report.retired > 0 && !tee.events.is_empty(), "{ctx}: nothing traced");
            assert!(!tee.jsonl.errored(), "{ctx}: sink errored");
            assert_eq!(tee.jsonl.written(), tee.events.len() as u64, "{ctx}");
            let bytes = tee.jsonl.into_inner().unwrap();

            let mut expected = String::new();
            for e in &tee.events {
                expected += &serde_json::to_string(e).unwrap();
                expected.push('\n');
            }
            assert!(bytes == expected.as_bytes(), "{ctx}: sink bytes differ from serde's");

            let loaded = traceview::load_events(bytes.as_slice()).unwrap();
            let by_serde: Vec<TraceEvent> =
                expected.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
            assert!(loaded == by_serde, "{ctx}: load_events differs from serde's parse");
            assert!(loaded == tee.events, "{ctx}: replay differs from the emitted events");
        }
    }
}

/// A bare `JsonlSink` — not behind `Tee`, so the engine's bulk
/// occupancy samples reach its `emit_samples` override rather than the
/// per-event default — writes serde's bytes for the in-memory trace of
/// the same run.
#[test]
fn bare_sink_bytes_match_serde_on_every_kernel_and_model() {
    for w in paper_benchmarks(Scale::Tiny) {
        for kind in ModelKind::ALL {
            let ctx = format!("{} on {kind}", w.name);
            let run = |sink: &mut dyn TraceSink| {
                let cfg = MachineConfig::paper_table1();
                run_model(kind, &w.program, w.memory.clone(), cfg, w.budget, Some(sink)).0
            };
            let mut trace = Trace::new();
            let mut jsonl = JsonlSink::new(Vec::new());
            assert_eq!(run(&mut trace), run(&mut jsonl), "{ctx}: reports differ");
            assert!(!jsonl.errored(), "{ctx}: sink errored");
            assert_eq!(jsonl.written(), trace.len() as u64, "{ctx}");
            let bytes = jsonl.into_inner().unwrap();
            let mut expected = String::new();
            for e in trace.events() {
                expected += &serde_json::to_string(e).unwrap();
                expected.push('\n');
            }
            assert!(bytes == expected.as_bytes(), "{ctx}: sink bytes differ from serde's");
        }
    }
}

/// One event of any variant, its fields drawn from `vals`.
fn event(variant: u8, vals: [u64; 4], flag: bool) -> TraceEvent {
    let [a, b, c, d] = vals;
    let (pc, narrow) = (b as usize, c as u32);
    let pipe = if flag { Pipe::A } else { Pipe::B };
    let level = MemLevel::ALL[d as usize % MemLevel::ALL.len()];
    let class = |x: u64| CycleClass::ALL[x as usize % CycleClass::ALL.len()];
    match variant % 19 {
        0 => TraceEvent::Fetch { cycle: a, seq: d, pc },
        1 => TraceEvent::AExec { cycle: a, seq: d, pc, ready_at: c },
        2 => TraceEvent::Defer { cycle: a, seq: d, pc },
        3 => TraceEvent::CqEnqueue { cycle: a, seq: d, pc, depth: narrow },
        4 => TraceEvent::CqDequeue { cycle: a, seq: d, pc, resident: c },
        5 => TraceEvent::BExec { cycle: a, seq: d, pc },
        6 => TraceEvent::Squash { cycle: a, seq: d, pc },
        7 => TraceEvent::ADispatch { cycle: a, seq: d, pc, deferred: flag },
        8 => TraceEvent::BRetire { cycle: a, seq: d, pc, was_deferred: flag },
        9 => TraceEvent::Flush {
            cycle: a,
            kind: if flag { FlushKind::StoreConflict } else { FlushKind::BdetMispredict },
            boundary_seq: d,
        },
        10 => TraceEvent::ARedirect { cycle: a, pc },
        11 => TraceEvent::GroupDispatch { cycle: a, pipe, head_seq: d, len: narrow },
        12 => TraceEvent::ClassTransition { cycle: a, from: class(c), to: class(d) },
        13 => TraceEvent::CauseTransition {
            cycle: a,
            cause: StallCause::ALL[c as usize % StallCause::ALL.len()],
            pc: flag.then_some(b),
        },
        14 => TraceEvent::MissBegin { cycle: a, pipe, level, addr: b, fill_at: c },
        15 => TraceEvent::MissEnd { cycle: a, addr: b, level },
        16 => TraceEvent::QueueSample { cycle: a, depth: narrow, mshr: d as u32 },
        17 => TraceEvent::RunaheadEnter { cycle: a, pc },
        _ => TraceEvent::RunaheadExit { cycle: a, pc, discarded: c },
    }
}

/// The line the sink writes for `e`, without its newline.
fn line_of(e: TraceEvent) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    sink.emit(e);
    let mut line = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    line.pop();
    line
}

/// Spreads a random draw over every magnitude, edges included.
fn magnitude(raw: u64) -> u64 {
    match raw % 8 {
        0 => 0,
        1 => u64::MAX,
        _ => raw >> (raw % 64),
    }
}

/// Text a mutation splices in: JSON punctuation and literals, a
/// repeated and an unknown field, and a multi-byte character.
const SPLICES: [&str; 20] = [
    "{",
    "}",
    "\"",
    ":",
    ",",
    " ",
    "\t",
    "\\",
    "-",
    ".",
    "e",
    "0",
    "7",
    "null",
    "true",
    "\"A\"",
    "[]",
    "é",
    "\"cycle\":1,",
    "\"x\":0,",
];

/// Numbers at and just past the `u32` and `u64` edges.
const EDGES: [&str; 4] =
    ["4294967295", "4294967296", "18446744073709551615", "18446744073709551616"];

/// Applies one mutation to `line`, at char boundaries so the text stays
/// a `&str`.
fn mutate(line: &mut String, op: u8, at: u64, pick: usize) {
    let bounds: Vec<usize> = (0..=line.len()).filter(|&i| line.is_char_boundary(i)).collect();
    let i = bounds[at as usize % bounds.len()];
    let next = bounds.iter().copied().find(|&j| j > i).unwrap_or(i);
    match op % 5 {
        0 => line.truncate(i),
        1 => line.replace_range(i..next, ""),
        2 => line.insert_str(i, SPLICES[pick % SPLICES.len()]),
        3 => line.replace_range(i..next, SPLICES[pick % SPLICES.len()]),
        _ => {
            // Replace the digit run at `i`, if any, with an edge number.
            let end = line[i..].find(|c: char| !c.is_ascii_digit()).map_or(line.len(), |n| i + n);
            line.replace_range(i..end, EDGES[pick % EDGES.len()]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn reader_accepts_only_what_serde_reads_identically(
        pick in (0u8..19, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        flag in any::<bool>(),
        muts in prop::collection::vec((0u8..5, any::<u64>(), 0usize..64), 0..4),
    ) {
        let (variant, a, b, c, d) = pick;
        let e = event(variant, [a, b, c, d].map(magnitude), flag);
        let mut line = line_of(e);
        prop_assert_eq!(parse_jsonl_line(&line), Ok(e));
        for (op, at, splice) in muts {
            mutate(&mut line, op, at, splice);
        }
        if let Ok(got) = parse_jsonl_line(&line) {
            let oracle = serde_json::from_str::<TraceEvent>(&line);
            prop_assert_eq!(oracle, Ok(got), "accepted {:?}", line);
        }
    }
}

#[test]
fn narrow_fields_are_range_checked() {
    let lines = [
        r#"{"CqEnqueue":{"cycle":1,"seq":2,"pc":3,"depth":N}}"#,
        r#"{"GroupDispatch":{"cycle":1,"pipe":"A","head_seq":2,"len":N}}"#,
        r#"{"QueueSample":{"cycle":1,"depth":N,"mshr":0}}"#,
        r#"{"QueueSample":{"cycle":1,"depth":0,"mshr":N}}"#,
    ];
    for line in lines {
        let at_max = line.replace('N', &u32::MAX.to_string());
        assert_eq!(parse_jsonl_line(&at_max).ok(), serde_json::from_str(&at_max).ok());
        assert!(parse_jsonl_line(&at_max).is_ok(), "{at_max}");
        let past = line.replace('N', &(u64::from(u32::MAX) + 1).to_string());
        let err = parse_jsonl_line(&past).unwrap_err();
        assert!(err.contains("expected u32, found 4294967296"), "{past}: {err}");
    }
    let past_u64 = r#"{"ARedirect":{"cycle":1,"pc":18446744073709551616}}"#;
    let err = parse_jsonl_line(past_u64).unwrap_err();
    assert!(err.contains("field `pc` in ARedirect: expected usize"), "{err}");
}
