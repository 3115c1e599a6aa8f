//! Lifecycle-trace integration tests: every retired instruction on
//! every model and kernel must leave exactly one well-formed,
//! cycle-monotone lifecycle in the trace stream, the replayed class and
//! cause transitions must rebuild the report's accounting, and the
//! Konata export of a representative kernel is pinned against a golden
//! file.

use ff_bench::traceview::{self, Flight};
use fleaflicker::core::{
    run_model, CycleClass, JsonlSink, MachineConfig, ModelKind, SimReport, TraceEvent, TraceSink,
};
use fleaflicker::workloads::{paper_benchmarks, Scale, Workload};
use std::io::BufReader;

/// Runs `model` over `w` with a JSONL sink and reads the stream back.
fn traced(
    w: &Workload,
    run: impl FnOnce(&Workload, &mut dyn TraceSink) -> SimReport,
) -> (SimReport, Vec<TraceEvent>) {
    let mut sink = JsonlSink::new(Vec::new());
    let report = run(w, &mut sink);
    assert!(!sink.errored(), "{}: sink errored", w.name);
    let bytes = sink.into_inner().unwrap();
    let events = traceview::load_events(BufReader::new(bytes.as_slice()))
        .unwrap_or_else(|e| panic!("{}: trace replay: {e}", w.name));
    (report, events)
}

/// Replaying the class and cause transitions must rebuild the report's
/// class breakdown, cause breakdown and per-PC stall profile exactly.
fn check_accounting_replay(
    name: &str,
    label: ModelKind,
    report: &SimReport,
    events: &[TraceEvent],
) {
    let classes = traceview::class_totals(&traceview::class_intervals(events));
    let expected = CycleClass::ALL.map(|c| report.breakdown[c]);
    assert_eq!(classes, expected, "{name}: {label} replayed classes disagree with breakdown");
    let causes = traceview::cause_intervals(events);
    assert_eq!(
        traceview::cause_breakdown(&causes),
        report.breakdown2,
        "{name}: {label} replayed causes disagree with breakdown2"
    );
    assert_eq!(
        traceview::stall_profile(&causes),
        report.stall_profile,
        "{name}: {label} replayed profile disagrees with the stall profile"
    );
}

/// The lifecycle completeness invariant for the two-pass models: one
/// closed flight per retired instruction, monotone in
/// fetch ≤ A-exec ≤ CQ-enqueue ≤ CQ-dequeue ≤ retire, with squashed
/// flights never retiring.
fn check_two_pass_lifecycles(name: &str, label: ModelKind, report: &SimReport, flights: &[Flight]) {
    let retired = flights.iter().filter(|f| f.retire.is_some()).count() as u64;
    assert_eq!(retired, report.retired, "{name}: {label} one lifecycle per retire");
    for f in flights {
        let ctx = format!("{name}: {label} seq={}", f.seq);
        assert!(!(f.retire.is_some() && f.squash.is_some()), "{ctx} both retired and squashed");
        let fetch = f.fetch.unwrap_or_else(|| panic!("{ctx} has no fetch"));
        // The A-pipe either executed or deferred, in the fetch cycle or
        // later, and enqueued the result in the same cycle.
        let a_cycle = match (f.a_exec, f.defer) {
            (Some((c, ready)), None) => {
                assert!(ready >= c, "{ctx} result ready before A-exec");
                c
            }
            (None, Some(c)) => c,
            other => panic!("{ctx} A-pipe outcome must be exec xor defer, got {other:?}"),
        };
        assert!(fetch <= a_cycle, "{ctx} A-pipe before fetch");
        let (enq, depth) = f.enqueue.unwrap_or_else(|| panic!("{ctx} never enqueued"));
        assert_eq!(enq, a_cycle, "{ctx} enqueue cycle");
        assert!(depth >= 1, "{ctx} post-push depth");
        match (f.retire, f.squash) {
            (Some(retire), None) => {
                let (deq, resident) = f.dequeue.unwrap_or_else(|| panic!("{ctx} never dequeued"));
                assert!(enq <= deq, "{ctx} dequeue before enqueue");
                assert_eq!(deq, retire, "{ctx} merge and retire are one cycle");
                assert_eq!(resident, deq - enq, "{ctx} residency");
                // Deferred work B-executes at merge; pre-computed work
                // merges without a B-pipe pass.
                assert_eq!(f.b_exec.is_some(), f.defer.is_some(), "{ctx} B-exec iff deferred");
                if let Some(b) = f.b_exec {
                    assert_eq!(b, retire, "{ctx} B-exec cycle");
                }
            }
            (None, Some(squash)) => {
                assert!(enq <= squash, "{ctx} squash before enqueue");
                assert!(f.dequeue.is_none(), "{ctx} squashed after dequeue");
            }
            (None, None) => {
                // In-flight at halt: legal only for a still-enqueued tail.
                assert!(f.dequeue.is_none(), "{ctx} dequeued but never closed");
            }
            (Some(_), Some(_)) => unreachable!(),
        }
    }
}

/// Single-pipe models collapse the lifecycle: fetch and retire are the
/// same event, and nothing touches the coupling queue.
fn check_single_pipe_lifecycles(
    name: &str,
    label: ModelKind,
    report: &SimReport,
    flights: &[Flight],
) {
    let retired = flights.iter().filter(|f| f.retire.is_some()).count() as u64;
    assert_eq!(retired, report.retired, "{name}: {label} one lifecycle per retire");
    for f in flights {
        let ctx = format!("{name}: {label} seq={}", f.seq);
        let fetch = f.fetch.unwrap_or_else(|| panic!("{ctx} has no fetch"));
        let retire = f.retire.unwrap_or_else(|| panic!("{ctx} has no retire"));
        assert_eq!(fetch, retire, "{ctx} one-pipe fetch/retire cycle");
        assert!(
            f.enqueue.is_none() && f.dequeue.is_none() && f.squash.is_none(),
            "{ctx} single-pipe flight touched the coupling queue"
        );
    }
}

#[test]
fn every_retired_instruction_has_a_well_formed_lifecycle_on_every_model() {
    let cfg = MachineConfig::paper_table1();
    for w in paper_benchmarks(Scale::Tiny) {
        for kind in ModelKind::ALL {
            let (r, events) = traced(&w, |w, sink| {
                run_model(kind, &w.program, w.memory.clone(), cfg.clone(), w.budget, Some(sink)).0
            });
            check_accounting_replay(w.name, kind, &r, &events);
            let flights = traceview::lifecycles(&events);
            if r.two_pass.is_some() {
                check_two_pass_lifecycles(w.name, kind, &r, &flights);
            } else {
                check_single_pipe_lifecycles(w.name, kind, &r, &flights);
            }
        }
    }
}

#[test]
fn konata_export_of_gap_like_matches_the_golden_file() {
    use fleaflicker::core::TwoPass;
    let w = fleaflicker::workloads::benchmark_by_name("gap-like", Scale::Tiny).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let _ = TwoPass::new(&w.program, w.memory.clone(), MachineConfig::paper_table1())
        .run_with_sink(w.budget, &mut sink);
    let bytes = sink.into_inner().unwrap();
    let events = traceview::load_events(BufReader::new(bytes.as_slice())).unwrap();
    let text = traceview::konata(&events);
    let golden = include_str!("golden/gap_like_2p.kanata");
    // Pinned like GOLDEN_TINY: a diff here is a conscious re-baselining
    // of the export format or the simulated schedule, never drift.
    assert_eq!(text, golden, "konata export drifted from tests/golden/gap_like_2p.kanata");
}
