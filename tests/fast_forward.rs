//! Fast-forward equivalence: event-driven cycle skipping is a pure
//! simulator-throughput optimisation, so every model on every kernel
//! must produce an *identical* report, identical final architectural
//! state, and a byte-identical trace stream with `fast_forward` on and
//! off. Any divergence here means the skip legality analysis is wrong.

use ff_isa::reg::TOTAL_REGS;
use fleaflicker::core::{
    run_model, Baseline, JsonlSink, MachineConfig, ModelKind, SimReport, TraceSink,
};
use fleaflicker::workloads::{paper_benchmarks, Scale, Workload};

/// Runs one model twice — traced and untraced — and returns the report,
/// final registers, and the raw JSONL trace bytes.
fn run_all(
    w: &Workload,
    kind: ModelKind,
    fast_forward: bool,
) -> (SimReport, [u64; TOTAL_REGS], Vec<u8>) {
    let mut cfg = MachineConfig::paper_table1();
    cfg.fast_forward = fast_forward;
    let run = |sink: Option<&mut dyn TraceSink>| {
        run_model(kind, &w.program, w.memory.clone(), cfg.clone(), w.budget, sink)
    };
    let mut sink = JsonlSink::new(Vec::new());
    let (traced_report, _, _) = run(Some(&mut sink));
    assert!(!sink.errored(), "{}: {kind}: sink errored", w.name);
    let bytes = sink.into_inner().unwrap();

    let (report, regs, _mem) = run(None);
    // Traced and untraced runs of the same machine must agree (the
    // trace replay path may not perturb simulation).
    assert_eq!(traced_report, report, "{}: {kind}: traced vs untraced report", w.name);
    (report, regs, bytes)
}

#[test]
fn fast_forward_is_byte_identical_on_every_model_and_kernel() {
    for w in paper_benchmarks(Scale::Tiny) {
        for kind in ModelKind::ALL {
            let (on, on_regs, on_bytes) = run_all(&w, kind, true);
            let (off, off_regs, off_bytes) = run_all(&w, kind, false);
            assert_eq!(on, off, "{}: {kind}: report differs with fast-forward", w.name);
            assert_eq!(on_regs, off_regs, "{}: {kind}: final registers differ", w.name);
            assert!(
                on_bytes == off_bytes,
                "{}: {kind}: trace stream differs with fast-forward ({} vs {} bytes)",
                w.name,
                on_bytes.len(),
                off_bytes.len()
            );
        }
    }
}

#[test]
fn fast_forward_targets_a_genuinely_miss_dominated_kernel() {
    // A guard for the perf gate's premise: on the pointer-chasing
    // kernel the skipped spans must dwarf the busy cycles, i.e. load
    // stalls dominate. If this drifts, `ff_report perf --ff-gate` is
    // measuring the wrong workload.
    let w = fleaflicker::workloads::benchmark_by_name("mcf-like", Scale::Tiny).unwrap();
    let report =
        Baseline::new(&w.program, w.memory.clone(), MachineConfig::paper_table1()).run(w.budget);
    let load_stalls = report.breakdown.load_stalls();
    assert!(
        load_stalls * 2 > report.cycles,
        "{}: expected a miss-dominated kernel (load stalls {load_stalls} of {} cycles)",
        w.name,
        report.cycles
    );
}
