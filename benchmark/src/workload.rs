//! The four workloads: inputs made from the seed, one pass over them,
//! and the checks on every output.
//!
//! Every workload runs all four machine models, one request at a time
//! (a closed loop with a single client). What differs is the programs
//! and what a request does with them; see the README for why each was
//! chosen.

use crate::spans::Recorder;
use ff_bench::traceview;
use ff_core::{
    Baseline, CauseBreakdown, CycleBreakdown, JsonlSink, MachineConfig, ModelKind, Runahead,
    SimReport, TraceSink, TwoPass, N_CAUSES,
};
use ff_isa::ArchState;
use ff_workloads::random::{random_program, GeneratorConfig};
use ff_workloads::synth::{AccessPattern, BranchBehavior, SynthSpec};
use ff_workloads::{kernels, Workload};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// The four models, in report order.
pub const MODELS: [ModelKind; 4] =
    [ModelKind::Baseline, ModelKind::TwoPass, ModelKind::TwoPassRegroup, ModelKind::Runahead];

/// Metric-name label of each model in [`MODELS`].
pub const LABELS: [&str; 4] = ["base", "2p", "2pre", "runahead"];

/// Span names per model, indexed like [`MODELS`].
pub const NEW_SPANS: [&str; 4] =
    ["ff-core.new.base", "ff-core.new.2p", "ff-core.new.2pre", "ff-core.new.runahead"];
/// Span names per model, indexed like [`MODELS`].
pub const RUN_SPANS: [&str; 4] =
    ["ff-core.run.base", "ff-core.run.2p", "ff-core.run.2pre", "ff-core.run.runahead"];

/// Dynamic-instruction budget for random programs (as `ff_verify oracle`).
const ORACLE_BUDGET: u64 = 2_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Eight paper kernels whose stalls are short: host time goes to
    /// the issue stage, coupling queue and predictor.
    IssueBound,
    /// Two paper kernels and three seeded synthetic kernels whose loads
    /// stall most cycles: host time goes to fast-forward, the memory
    /// hierarchy and runahead episodes.
    MissBound,
    /// Two paper kernels recorded to an in-memory JSONL trace and
    /// analysed back: host time goes to trace emission and replay.
    Traced,
    /// Many small random programs, each linted and checked by the
    /// differential oracle: per-run fixed cost dominates.
    OracleRandom,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] =
        [Kind::IssueBound, Kind::MissBound, Kind::Traced, Kind::OracleRandom];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::IssueBound => "issue-bound",
            Kind::MissBound => "miss-bound",
            Kind::Traced => "traced",
            Kind::OracleRandom => "oracle-random",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// SplitMix64 of `seed` and `salt`: every seeded choice goes through it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn named(mut w: Workload, name: &'static str) -> Workload {
    w.name = name;
    w
}

/// Builds the workload's programs from the seed. The paper kernels have
/// fixed data, so the seed moves their iteration counts by a few
/// iterations (well under 1% of the work); the synthetic kernels and
/// random programs take their data from it.
pub fn build_programs(kind: Kind, seed: u64, tiny: bool) -> Vec<Workload> {
    let f = if tiny { 1 } else { 256 };
    let iters = |base: u64, salt: u64| base * f + mix(seed, salt) % if tiny { 4 } else { 64 };
    let synth = |iterations: u64, footprint_bytes: u64, access, store_every, salt| {
        SynthSpec {
            iterations,
            footprint_bytes,
            access,
            alu_chain: 2,
            fp_chain: 0,
            store_every,
            branch: BranchBehavior::None,
            seed: mix(seed, salt),
        }
        .build()
    };
    match kind {
        Kind::IssueBound => vec![
            kernels::go_like(iters(100, 1)),
            kernels::compress_like(iters(150, 2)),
            kernels::li_like(iters(150, 3)),
            kernels::vpr_like(iters(100, 4)),
            kernels::equake_like(iters(60, 5)),
            kernels::parser_like(iters(80, 6)),
            kernels::vortex_like(iters(100, 7)),
            kernels::twolf_like(iters(100, 8)),
        ],
        Kind::MissBound => {
            // Placed against the Table-1 caches (L1 16 KB, L2 256 KB,
            // L3 1.5 MB): random indexing over 8 MB is memory-resident,
            // the 4096-node chase over 32 MB is L3-resident after its
            // first lap, and the 128 KB stream is L2-resident.
            let (n, kb) = if tiny { (200, 1) } else { (10_000, 1024) };
            vec![
                kernels::mcf_like(iters(120, 11)),
                kernels::gap_like(iters(30, 12)),
                named(
                    synth(2 * n, 8 * kb * 1024, AccessPattern::RandomIndex, true, 13),
                    "random-8m",
                ),
                named(
                    synth(n, 32 * kb * 1024, AccessPattern::PointerChase, false, 14),
                    "chase-32m",
                ),
                named(
                    synth(4 * n, 128 * 1024, AccessPattern::Stream { stride: 64 }, false, 15),
                    "stream-128k",
                ),
            ]
        }
        Kind::Traced => {
            let n = if tiny { 10 } else { 600 };
            vec![kernels::go_like(n + mix(seed, 21) % 8), kernels::mcf_like(n + mix(seed, 22) % 8)]
        }
        Kind::OracleRandom => {
            let n = if tiny { 16 } else { 1000 };
            let gen = GeneratorConfig::default();
            (0..n)
                .map(|i| {
                    let (program, memory) = random_program(mix(seed, 1000 + i), &gen);
                    Workload {
                        name: "random",
                        spec_ref: "random",
                        description: "random_program output",
                        program,
                        memory,
                        budget: ORACLE_BUDGET,
                    }
                })
                .collect()
        }
    }
}

/// The machine configuration of each model in [`MODELS`].
pub fn configs() -> [MachineConfig; 4] {
    let base = MachineConfig::paper_table1();
    let mut regroup = base.clone();
    regroup.two_pass.regroup = true;
    [base.clone(), base.clone(), regroup, base]
}

/// A constructed model, ready to run.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one lives at a time, for one request
pub enum Machine<'p> {
    /// `base`.
    Base(Baseline<'p>),
    /// `2P` or `2Pre`.
    TwoPass(TwoPass<'p>),
    /// `runahead`.
    Runahead(Runahead<'p>),
}

impl<'p> Machine<'p> {
    /// Constructs model `m` (an index into [`MODELS`]) on `w`.
    pub fn new(m: usize, w: &'p Workload, cfgs: &[MachineConfig; 4]) -> Self {
        let (program, memory, cfg) = (&w.program, w.memory.clone(), cfgs[m].clone());
        match MODELS[m] {
            ModelKind::Baseline => Machine::Base(Baseline::new(program, memory, cfg)),
            ModelKind::TwoPass | ModelKind::TwoPassRegroup => {
                Machine::TwoPass(TwoPass::new(program, memory, cfg))
            }
            ModelKind::Runahead => Machine::Runahead(Runahead::new(program, memory, cfg)),
        }
    }

    /// Runs to completion, streaming events into `sink` when given.
    pub fn run(self, budget: u64, sink: Option<&mut dyn TraceSink>) -> SimReport {
        match (self, sink) {
            (Machine::Base(m), None) => m.run(budget),
            (Machine::Base(m), Some(s)) => m.run_with_sink(budget, s),
            (Machine::TwoPass(m), None) => m.run(budget),
            (Machine::TwoPass(m), Some(s)) => m.run_with_sink(budget, s),
            (Machine::Runahead(m), None) => m.run(budget),
            (Machine::Runahead(m), Some(s)) => m.run_with_sink(budget, s),
        }
    }

    /// The run the differential oracle makes: traced into memory, with
    /// the final architectural state.
    pub fn run_traced_with_state(self, budget: u64) -> (SimReport, ff_core::Trace) {
        let (report, trace, regs, mem) = match self {
            Machine::Base(m) => m.run_traced_with_state(budget),
            Machine::TwoPass(m) => m.run_traced_with_state(budget),
            Machine::Runahead(m) => m.run_traced_with_state(budget),
        };
        black_box((regs, mem));
        (report, trace)
    }
}

/// The simulated outcome of one (program, model) run that must repeat
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Cycles per refined stall cause.
    pub causes: [u64; N_CAUSES],
}

impl Cell {
    fn of(r: &SimReport) -> Cell {
        let mut causes = [0; N_CAUSES];
        for (slot, (_, n)) in causes.iter_mut().zip(r.breakdown2.iter()) {
            *slot = n;
        }
        Cell { cycles: r.cycles, retired: r.retired, causes }
    }

    fn add(&mut self, o: &Cell) {
        self.cycles += o.cycles;
        self.retired += o.retired;
        for (a, b) in self.causes.iter_mut().zip(o.causes) {
            *a += b;
        }
    }
}

/// Simulated statistics of one model summed over a workload's programs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Six-class cycle breakdown.
    pub classes: CycleBreakdown,
    /// Loads serviced per level (L1, L2, L3, memory).
    pub loads: [u64; 4],
    /// Rejected MSHR requests.
    pub mshr_full_stall_cycles: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Of those, mispredicted.
    pub mispredicted: u64,
    /// Two-pass: instructions dispatched into the A-pipe.
    pub dispatched_a: u64,
    /// Two-pass: instructions deferred to the B-pipe.
    pub deferred: u64,
    /// Two-pass: coupling-queue occupancy summed over cycles.
    pub queue_occupancy_sum: u64,
    /// Two-pass: cycles the queue was full.
    pub queue_full_cycles: u64,
    /// Two-pass: store-conflict flushes.
    pub store_conflict_flushes: u64,
}

impl Totals {
    fn add(&mut self, r: &SimReport) {
        self.cycles += r.cycles;
        self.retired += r.retired;
        self.classes += r.breakdown;
        for (a, b) in self.loads.iter_mut().zip(r.hierarchy.load_hits) {
            *a += b;
        }
        self.mshr_full_stall_cycles += r.mshr.full_stall_cycles;
        self.branches += r.branches.retired;
        self.mispredicted += r.branches.mispredicted;
        if let Some(tp) = &r.two_pass {
            self.dispatched_a += tp.dispatched_a;
            self.deferred += tp.deferred;
            self.queue_occupancy_sum += tp.queue_occupancy_sum;
            self.queue_full_cycles += tp.queue_full_cycles;
            self.store_conflict_flushes += tp.store_conflict_flushes;
        }
    }
}

/// A workload's inputs, built once per set-up.
#[derive(Debug)]
pub struct Inputs {
    /// The programs, with data and budgets.
    pub programs: Vec<Workload>,
    /// Instructions the golden interpreter executes per program.
    pub reference: Vec<u64>,
    /// Request order: seeded shuffle of `(program, model)` pairs.
    pub order: Vec<(usize, usize)>,
}

/// One set-up: builds the inputs, runs the reference interpreter and
/// constructs every model once.
pub fn setup(kind: Kind, seed: u64, tiny: bool, rec: &mut Recorder) -> Inputs {
    let programs = rec.time("ff-workloads.build", 0, || {
        let p = build_programs(kind, seed, tiny);
        let n = p.len() as u64;
        (p, n)
    });
    let reference = programs
        .iter()
        .map(|w| {
            rec.time("ff-isa.interp", 0, || {
                let n = ArchState::new(&w.program, w.memory.clone()).run(w.budget).instrs;
                (n, n)
            })
        })
        .collect();
    let cfgs = configs();
    for w in &programs {
        for (m, name) in NEW_SPANS.iter().enumerate() {
            rec.time(name, 0, || {
                drop(black_box(Machine::new(m, w, &cfgs)));
                ((), 1)
            });
        }
    }
    let mut order: Vec<(usize, usize)> =
        (0..programs.len()).flat_map(|p| (0..MODELS.len()).map(move |m| (p, m))).collect();
    let mut state = mix(seed, 0x0D0E);
    for i in (1..order.len()).rev() {
        state = mix(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    Inputs { programs, reference, order }
}

/// What one pass over the inputs measured and found.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub secs: f64,
    /// Host seconds inside each model's runs.
    pub model_secs: [f64; 4],
    /// Instructions each model retired.
    pub model_instrs: [u64; 4],
    /// Latency of every request in microseconds, in request order.
    pub request_us: Vec<f64>,
    /// Per `(program, model)` outcome, indexed `program * 4 + model`.
    pub cells: Vec<Cell>,
    /// Host seconds of each `(program, model)` run, indexed like `cells`.
    pub cell_secs: Vec<f64>,
    /// Simulated statistics per model.
    pub totals: [Totals; 4],
    /// Checked operations.
    pub attempted: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn record(&mut self, p: usize, m: usize, r: &SimReport, secs: f64, reference: u64) {
        self.model_secs[m] += secs;
        self.model_instrs[m] += r.retired;
        self.cells[p * MODELS.len() + m] = Cell::of(r);
        self.cell_secs[p * MODELS.len() + m] = secs;
        self.totals[m].add(r);
        self.check(r.retired == reference, || {
            format!(
                "program {p} on {}: retired {}, interpreter ran {reference}",
                LABELS[m], r.retired
            )
        });
    }
}

/// Runs one pass: every request of the workload once, in the seeded
/// order. `trace` is reused across passes.
pub fn run_pass(kind: Kind, inputs: &Inputs, trace: &mut Vec<u8>, rec: &mut Recorder) -> Pass {
    let cfgs = configs();
    let cells = inputs.programs.len() * MODELS.len();
    let mut pass = Pass {
        cells: vec![Cell::default(); cells],
        cell_secs: vec![0.0; cells],
        ..Pass::default()
    };
    let pass_span = rec.enter("bench.pass", 0);
    let start = Instant::now();
    if kind == Kind::OracleRandom {
        oracle_requests(inputs, &cfgs, &mut pass, rec);
    }
    // In oracle-random the requests are the oracle checks above; the
    // plain runs below only measure each model's throughput.
    let request_name = if kind == Kind::OracleRandom { "bench.model_run" } else { "bench.request" };
    for (req, &(p, m)) in inputs.order.iter().enumerate() {
        let w = &inputs.programs[p];
        let req = req as u64 + 1;
        let request = rec.enter(request_name, req);
        let t = Instant::now();
        let machine = rec.time(NEW_SPANS[m], req, || (Machine::new(m, w, &cfgs), 1));
        let run = rec.enter(RUN_SPANS[m], req);
        let report = if kind == Kind::Traced {
            trace.clear();
            let mut sink = JsonlSink::new(&mut *trace);
            let r = machine.run(w.budget, Some(&mut sink));
            sink.into_inner().expect("writing to memory cannot fail");
            r
        } else {
            machine.run(w.budget, None)
        };
        rec.exit(run, report.retired);
        let secs = t.elapsed().as_secs_f64();
        let replay = (kind == Kind::Traced).then(|| analyse(trace, report.retired, rec, req));
        let check = rec.enter("bench.check", req);
        pass.record(p, m, &report, secs, inputs.reference[p]);
        if let Some(replay) = replay {
            pass.check(replay == report.breakdown2, || {
                format!("program {p} on {}: trace replay disagrees with the report", LABELS[m])
            });
        }
        rec.exit(check, 1);
        rec.exit(request, 1);
        if kind != Kind::OracleRandom {
            pass.request_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    pass.secs = start.elapsed().as_secs_f64();
    rec.exit(pass_span, 1);
    pass
}

/// Parses a JSONL trace the sink wrote.
fn decode(trace: &[u8]) -> Vec<ff_core::TraceEvent> {
    traceview::load_events(trace).expect("the sink writes parseable JSONL")
}

/// Reads a recorded trace back through the `ff-bench` analyses (CPI
/// stack and slip) and returns the replayed cause breakdown.
pub fn analyse(trace: &[u8], retired: u64, rec: &mut Recorder, req: u64) -> CauseBreakdown {
    let all = rec.enter("ff-bench.traceview", req);
    let events = rec.time("ff-bench.traceview.parse", req, || {
        let e = decode(trace);
        let n = e.len() as u64;
        (e, n)
    });
    let n = events.len() as u64;
    let replay = rec.time("ff-bench.traceview.cpi", req, || {
        let replay = traceview::cause_breakdown(&traceview::cause_intervals(&events));
        black_box(traceview::cpi_stack(&replay, retired));
        (replay, n)
    });
    rec.time("ff-bench.traceview.slip", req, || (black_box(traceview::slip_stats(&events)), n));
    rec.exit(all, retired);
    replay
}

/// The oracle-random requests: each program linted and checked by the
/// differential oracle (interpreter plus all four models).
fn oracle_requests(
    inputs: &Inputs,
    cfgs: &[MachineConfig; 4],
    pass: &mut Pass,
    rec: &mut Recorder,
) {
    for (p, w) in inputs.programs.iter().enumerate() {
        let req = (inputs.order.len() + p) as u64 + 1;
        let request = rec.enter("bench.request", req);
        let t = Instant::now();
        let lint = rec
            .time("ff-verify.lint", req, || (ff_verify::analyze_program(&w.program, &cfgs[0]), 1));
        let oracle = rec.time("ff-verify.oracle", req, || {
            (ff_verify::differential_oracle(&w.program, &w.memory, &cfgs[0], w.budget), 1)
        });
        pass.request_us.push(t.elapsed().as_secs_f64() * 1e6);
        let reference = inputs.reference[p];
        pass.check(
            lint.errors() == 0 && oracle.ok() && oracle.halted && oracle.instrs == reference,
            || {
                let failures: Vec<String> = oracle.failures.iter().map(ToString::to_string).collect();
                format!(
                    "program {p}: {} lint errors, halted {}, {} instrs (interpreter {reference}), {}",
                    lint.errors(),
                    oracle.halted,
                    oracle.instrs,
                    failures.join("; ")
                )
            },
        );
        rec.exit(request, 1);
    }
}

/// Expected seed-1 outcome of one (program, model) pair; cells of
/// programs sharing a name are summed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedCell {
    /// Program name.
    pub program: String,
    /// Model label.
    pub model: String,
    /// Summed outcome.
    pub cell: Cell,
}

/// Sums a pass's cells by (program name, model), in input order.
pub fn aggregate(inputs: &Inputs, cells: &[Cell]) -> Vec<ExpectedCell> {
    let mut out: Vec<ExpectedCell> = Vec::new();
    for (p, w) in inputs.programs.iter().enumerate() {
        for (m, label) in LABELS.iter().enumerate() {
            let cell = &cells[p * MODELS.len() + m];
            match out.iter_mut().find(|e| e.program == w.name && e.model == *label) {
                Some(e) => e.cell.add(cell),
                None => out.push(ExpectedCell {
                    program: w.name.to_string(),
                    model: label.to_string(),
                    cell: *cell,
                }),
            }
        }
    }
    out
}

/// Where the seed-1 expectations of `kind` live.
pub fn expected_path(kind: Kind) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.json", kind.name()))
}

/// Reads the committed seed-1 expectations of `kind`.
pub fn load_expected(kind: Kind) -> Result<Vec<ExpectedCell>, String> {
    let path = expected_path(kind);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_and_repeats() {
        for kind in Kind::ALL {
            let a = build_programs(kind, 1, true);
            let b = build_programs(kind, 1, true);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.program, y.program);
                assert_eq!(x.memory, y.memory);
            }
        }
        let a = build_programs(Kind::OracleRandom, 1, true);
        let b = build_programs(Kind::OracleRandom, 2, true);
        assert_ne!(a[0].program, b[0].program);
    }

    #[test]
    fn order_is_a_permutation() {
        let mut rec = Recorder::new();
        let inputs = setup(Kind::IssueBound, 3, true, &mut rec);
        let mut order = inputs.order.clone();
        order.sort_unstable();
        let all: Vec<_> =
            (0..inputs.programs.len()).flat_map(|p| (0..4).map(move |m| (p, m))).collect();
        assert_eq!(order, all);
    }
}
