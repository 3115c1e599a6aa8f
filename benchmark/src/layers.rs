//! Per-layer metrics of the traced run.
//!
//! The traced passes give spans around each model's construction and
//! run and around the trace analyses. The probes below add what a pass
//! cannot show from outside: the workload's own address and branch
//! streams replayed through `ff-mem` and `ff-predict` alone, trace
//! emission with the sink on and off, and the calls the differential
//! oracle makes. Every timing is read back from the spans; the counts
//! come from the simulator's reports.

use crate::metrics::{Better, Measured};
use crate::spans::Recorder;
use crate::workload::{self, Inputs, Machine, Pass, LABELS, MODELS, NEW_SPANS, RUN_SPANS};
use ff_core::{CycleClass, JsonlSink, TraceEvent, TraceSink};
use ff_isa::{evaluate, ArchState, Effect};
use ff_mem::DataHierarchy;
use ff_workloads::Workload;
use std::hint::black_box;

/// Instructions per program replayed through the cache and predictor.
const STREAM_INSTRS: u64 = 200_000;
/// Instructions per program traced to JSONL or run by the oracle probe.
const PROBE_INSTRS: u64 = 20_000;
/// Programs probed per workload (the random programs are alike).
const PROBE_PROGRAMS: usize = 64;

const ORACLE_MODEL_SPANS: [&str; 4] = [
    "ff-verify.oracle.model.base",
    "ff-verify.oracle.model.2p",
    "ff-verify.oracle.model.2pre",
    "ff-verify.oracle.model.runahead",
];

/// Exact counts the probes collect.
#[derive(Debug, Default)]
pub struct Probe {
    loads_at: [u64; 4],
    trace_instrs: u64,
    trace_events: u64,
    trace_bytes: u64,
    ra_episodes: u64,
    ra_discarded: u64,
    ra_retired: u64,
}

/// Counts runahead episodes and the instructions they discard.
#[derive(Debug, Default)]
struct EpisodeCounter {
    episodes: u64,
    discarded: u64,
}

impl TraceSink for EpisodeCounter {
    fn emit(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::RunaheadEnter { .. } => self.episodes += 1,
            TraceEvent::RunaheadExit { discarded, .. } => self.discarded += discarded,
            _ => {}
        }
    }
}

/// `(is_store, address)` per memory access and `(pc, taken)` per branch.
type Streams = (Vec<(bool, u64)>, Vec<(u64, bool)>);

/// The load/store address stream and conditional-branch stream of the
/// first `cap` instructions, from the golden interpreter.
fn capture(w: &Workload, cap: u64) -> Streams {
    let (mut mem, mut branches) = (Vec::new(), Vec::new());
    let mut st = ArchState::new(&w.program, w.memory.clone());
    while !st.is_halted() && st.instr_count() < cap {
        let pc = st.pc();
        match evaluate(w.program.fetch(pc), &st) {
            Effect::Load { addr, .. } => mem.push((false, addr)),
            Effect::Store { addr, .. } => mem.push((true, addr)),
            Effect::Branch { taken, .. } => branches.push((pc as u64, taken)),
            _ => {}
        }
        if !st.step() {
            break;
        }
    }
    (mem, branches)
}

/// Runs every probe on the workload's programs, recording spans.
pub fn probe(inputs: &Inputs, rec: &mut Recorder) -> Probe {
    let cfgs = workload::configs();
    let cfg = &cfgs[0];
    let mut out = Probe::default();
    let mut trace = Vec::new();
    for w in inputs.programs.iter().take(PROBE_PROGRAMS) {
        let (mem, branches) = capture(w, STREAM_INSTRS);
        let mut h = DataHierarchy::new(cfg.hierarchy).expect("Table-1 geometry is valid");
        rec.time("ff-mem.replay", 0, || {
            for &(store, addr) in &mem {
                black_box(if store { h.store(addr) } else { h.load(addr) });
            }
            ((), mem.len() as u64)
        });
        for (a, b) in out.loads_at.iter_mut().zip(h.stats().load_hits) {
            *a += b;
        }
        let mut predictor = cfg.predictor.build();
        rec.time("ff-predict.replay", 0, || {
            for &(pc, taken) in &branches {
                black_box(predictor.predict(pc));
                predictor.update(pc, taken);
            }
            ((), branches.len() as u64)
        });

        // Trace emission: the same capped 2P run with the sink off and
        // with a JSONL sink writing to memory.
        let budget = w.budget.min(PROBE_INSTRS);
        rec.time("ff-core.sink.off", 0, || {
            let r = Machine::new(1, w, &cfgs).run(budget, None);
            ((), r.retired)
        });
        trace.clear();
        let (retired, events) = rec.time("ff-core.sink.jsonl", 0, || {
            let mut sink = JsonlSink::new(&mut trace);
            let r = Machine::new(1, w, &cfgs).run(budget, Some(&mut sink));
            let events = sink.written();
            sink.into_inner().expect("writing to memory cannot fail");
            ((r.retired, events), events)
        });
        out.trace_instrs += retired;
        out.trace_events += events;
        out.trace_bytes += trace.len() as u64;
        workload::analyse(&trace, retired, rec, 0);

        let mut counter = EpisodeCounter::default();
        let r = Machine::new(3, w, &cfgs).run(w.budget, Some(&mut counter));
        out.ra_episodes += counter.episodes;
        out.ra_discarded += counter.discarded;
        out.ra_retired += r.retired;

        // The oracle, then the public calls it is made of.
        rec.time("ff-verify.lint", 0, || (ff_verify::analyze_program(&w.program, cfg), 1));
        rec.time("ff-verify.oracle", 0, || {
            (ff_verify::differential_oracle(&w.program, &w.memory, cfg, budget), 1)
        });
        rec.time("ff-verify.oracle.interp", 0, || {
            let mut st = ArchState::new(&w.program, w.memory.clone());
            let mut pcs = Vec::new();
            while !st.is_halted() && st.instr_count() < budget {
                pcs.push(st.pc());
                if !st.step() {
                    break;
                }
            }
            black_box((st.reg_bits(), st.mem().clone(), pcs));
            ((), 1)
        });
        for (m, name) in ORACLE_MODEL_SPANS.iter().enumerate() {
            rec.time(name, 0, || {
                (black_box(Machine::new(m, w, &cfgs).run_traced_with_state(budget)), 1)
            });
        }
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Builds every per-layer metric.
///
/// `pass` is any timed pass (their simulated outcomes are identical),
/// `traced_passes` how many passes ran with spans on, and `overhead`
/// the traced passes' median time over the untraced ones', minus one.
pub fn metrics(
    rec: &Recorder,
    probe: &Probe,
    inputs: &Inputs,
    pass: &Pass,
    traced_passes: u64,
    overhead: f64,
) -> Vec<Measured> {
    let mut out = Vec::new();
    let t = |name: &str| {
        let (ns, work, calls) = rec.totals(name);
        (ns as f64, work as f64, calls as f64)
    };
    let mut timing = |layer: &str, name: String, unit: &str, better: Better, value: f64| {
        out.push(Measured::layer(layer, &name, unit, better, value));
    };

    let (ns, _, calls) = t("ff-workloads.build");
    timing(
        "ff-workloads",
        "workloads.build_ms".into(),
        "ms",
        Better::Lower,
        ratio(ns / 1e6, calls),
    );
    for (m, label) in LABELS.iter().enumerate() {
        let (ns, _, calls) = t(NEW_SPANS[m]);
        timing(
            "ff-core",
            format!("core.new_us.{label}"),
            "us",
            Better::Lower,
            ratio(ns / 1e3, calls),
        );
    }
    for (m, label) in LABELS.iter().enumerate() {
        let (ns, instrs, _) = t(RUN_SPANS[m]);
        timing(
            "ff-core",
            format!("core.ns_per_instr.{label}"),
            "ns",
            Better::Lower,
            ratio(ns, instrs),
        );
        let cycles = (pass.totals[m].cycles * traced_passes) as f64;
        timing(
            "ff-core",
            format!("core.ns_per_cycle.{label}"),
            "ns",
            Better::Lower,
            ratio(ns, cycles),
        );
    }
    let (ns, instrs, _) = t("ff-isa.interp");
    timing("ff-isa", "isa.interp_mips".into(), "Minstr/s", Better::Higher, ratio(instrs * 1e3, ns));
    let (ns, accesses, _) = t("ff-mem.replay");
    timing("ff-mem", "mem.replay_ns_per_access".into(), "ns", Better::Lower, ratio(ns, accesses));
    let (ns, branches, _) = t("ff-predict.replay");
    timing(
        "ff-predict",
        "predict.replay_ns_per_branch".into(),
        "ns",
        Better::Lower,
        ratio(ns, branches),
    );
    let (off_ns, _, _) = t("ff-core.sink.off");
    let (on_ns, events, _) = t("ff-core.sink.jsonl");
    timing(
        "ff-core",
        "trace.emit_ns_per_event".into(),
        "ns",
        Better::Lower,
        ratio(on_ns - off_ns, events),
    );
    for stage in ["parse", "cpi", "slip"] {
        let (ns, events, _) = t(&format!("ff-bench.traceview.{stage}"));
        let name = format!("traceview.{stage}_ns_per_event");
        timing("ff-bench", name, "ns", Better::Lower, ratio(ns, events));
    }
    let (ns, instrs, _) = t("ff-bench.traceview");
    timing(
        "ff-bench",
        "traceview.analyze_mips".into(),
        "Minstr/s",
        Better::Higher,
        ratio(instrs * 1e3, ns),
    );
    for (span, name) in [
        ("ff-verify.lint", "verify.lint_us".to_string()),
        ("ff-verify.oracle", "verify.oracle_us".to_string()),
        ("ff-verify.oracle.interp", "verify.oracle.interp_us".to_string()),
    ]
    .into_iter()
    .chain(
        ORACLE_MODEL_SPANS
            .iter()
            .zip(LABELS)
            .map(|(s, l)| (*s, format!("verify.oracle.model_us.{l}"))),
    ) {
        let (ns, _, calls) = t(span);
        timing("ff-verify", name, "us", Better::Lower, ratio(ns / 1e3, calls));
    }
    timing("benchmark", "bench.span_overhead".into(), "ratio", Better::Lower, overhead);

    // Exact counts must not move at all under a simulator-speed change;
    // their direction only says which way the modelled machine gains.
    let mut exact = |layer: &str, name: String, unit: &str, value: f64| {
        let gain = name.starts_with("sim.speedup.") || name.contains(".l1");
        let better = if gain { Better::Higher } else { Better::Lower };
        out.push(Measured::exact(layer, &name, unit, better, value));
    };
    let loads: u64 = probe.loads_at.iter().sum();
    for (level, n) in ["l1", "l2", "l3", "mem"].iter().zip(probe.loads_at) {
        exact("ff-mem", format!("mem.replay_frac.{level}"), "ratio", ratio(n as f64, loads as f64));
    }
    let (instrs, events, bytes) =
        (probe.trace_instrs as f64, probe.trace_events as f64, probe.trace_bytes as f64);
    exact("ff-core", "trace.events_per_instr".into(), "ratio", ratio(events, instrs));
    exact("ff-core", "trace.bytes_per_event".into(), "B", ratio(bytes, events));
    exact("ff-core", "trace.bytes_per_instr".into(), "B", ratio(bytes, instrs));
    sim_metrics(inputs, pass, probe, &mut exact);
    out
}

/// The modelled machine's statistics (simulated, not host, quantities).
fn sim_metrics(
    inputs: &Inputs,
    pass: &Pass,
    probe: &Probe,
    exact: &mut impl FnMut(&str, String, &str, f64),
) {
    let tot = &pass.totals;
    for (m, label) in LABELS.iter().enumerate() {
        let retired = tot[m].retired as f64;
        exact(
            "ff-core",
            format!("sim.cpi.{label}"),
            "cycles/instr",
            ratio(tot[m].cycles as f64, retired),
        );
        for class in CycleClass::ALL {
            if class == CycleClass::APipeStall && !matches!(*label, "2p" | "2pre") {
                continue; // structurally zero: only two-pass has an A-pipe
            }
            let name = format!("sim.cpi.{}.{label}", class.label());
            exact("ff-core", name, "cycles/instr", ratio(tot[m].classes[class] as f64, retired));
        }
    }
    // Geometric mean over programs of base cycles / model cycles.
    let programs = inputs.programs.len();
    for (m, label) in LABELS.iter().enumerate().skip(1) {
        let log_sum: f64 = pass
            .cells
            .chunks(MODELS.len())
            .map(|row| (row[0].cycles as f64 / row[m].cycles as f64).ln())
            .sum();
        exact("ff-core", format!("sim.speedup.{label}"), "x", (log_sum / programs as f64).exp());
    }
    let tp = &tot[1];
    let loads: u64 = tp.loads.iter().sum();
    for (level, n) in ["l1", "l2", "l3", "mem"].iter().zip(tp.loads) {
        exact("ff-mem", format!("sim.loads_at.{level}.2p"), "ratio", ratio(n as f64, loads as f64));
    }
    exact(
        "ff-mem",
        "sim.mshr.full_stall_cycles.2p".into(),
        "count",
        tp.mshr_full_stall_cycles as f64,
    );
    for m in [0, 1] {
        let rate = ratio(tot[m].mispredicted as f64, tot[m].branches as f64);
        exact("ff-predict", format!("sim.branch.mispredict_rate.{}", LABELS[m]), "ratio", rate);
    }
    let retired = tp.retired as f64;
    exact(
        "ff-core",
        "sim.2p.deferral_rate".into(),
        "ratio",
        ratio(tp.deferred as f64, tp.dispatched_a as f64),
    );
    exact(
        "ff-core",
        "sim.2p.dispatch_per_retire".into(),
        "ratio",
        ratio(tp.dispatched_a as f64, retired),
    );
    let occupancy = ratio(tp.queue_occupancy_sum as f64, tp.cycles as f64);
    exact("ff-core", "sim.2p.queue_occupancy_avg".into(), "count", occupancy);
    exact("ff-core", "sim.2p.queue_full_cycles".into(), "count", tp.queue_full_cycles as f64);
    exact(
        "ff-core",
        "sim.2p.store_conflict_flushes".into(),
        "count",
        tp.store_conflict_flushes as f64,
    );
    exact("ff-core", "sim.runahead.episodes".into(), "count", probe.ra_episodes as f64);
    let discarded = ratio(probe.ra_discarded as f64, probe.ra_retired as f64);
    exact("ff-core", "sim.runahead.discarded_per_retire".into(), "ratio", discarded);
}
