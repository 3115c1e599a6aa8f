//! Experiment grids: one cell-builder (and, where normalization crosses
//! cells, a finalize pass) per paper table/figure.
//!
//! Each experiment is expressed as a [`Cell`] grid the shared
//! [`crate::sweep`] engine runs in parallel with result caching. A cell
//! simulates exactly one (kernel, model, config) point and returns one
//! typed row; quantities that relate cells — "normalized to the
//! baseline run of the same benchmark" — are computed afterwards by the
//! experiment's `*_finalize` function, which is pure and deterministic,
//! so cached and freshly simulated cells produce identical output.
//!
//! The `fig6(scale)`-style functions run the same grids serially
//! in-process (no cache, no threads) for Criterion benches and library
//! callers.

use crate::sweep::Cell;
use ff_core::{
    Baseline, CycleClass, FeedbackLatency, MachineConfig, ModelKind, Pipe, Runahead, SimReport,
    ThrottleConfig, TwoPass,
};
use ff_isa::ArchState;
use ff_mem::MemLevel;
use ff_predict::PredictorConfig;
use ff_workloads::{benchmark_by_name, paper_benchmarks, Scale, Workload};
use serde::{Deserialize, Serialize};

/// The three paper machines, in display order.
pub const MODELS: [&str; 3] = ["base", "2P", "2Pre"];

/// Looks a built-in benchmark up by name, panicking with a clear
/// message otherwise (cells run under panic isolation).
fn workload(name: &str, scale: Scale) -> Workload {
    benchmark_by_name(name, scale).expect("built-in benchmark")
}

/// The Table 1 machine with the simulator fast-forward knob applied.
/// Every experiment grid goes through this so `--no-fast-forward`
/// reaches each cell; results are byte-identical either way.
fn machine(fast_forward: bool) -> MachineConfig {
    let mut cfg = MachineConfig::paper_table1();
    cfg.fast_forward = fast_forward;
    cfg
}

/// Runs one workload on one of the Table 1 machines (`base`, `2P`,
/// `2Pre`).
#[must_use]
pub fn run_model(w: &Workload, model: &str) -> SimReport {
    run_model_ff(w, model, true)
}

/// [`run_model`] with the event-driven fast-forward knob explicit.
#[must_use]
pub fn run_model_ff(w: &Workload, model: &str, fast_forward: bool) -> SimReport {
    let kind = model.parse().unwrap_or_else(|e| panic!("{e}"));
    ff_core::run_model(kind, &w.program, w.memory.clone(), machine(fast_forward), w.budget, None).0
}

/// Benchmark-name list for grid building (kernels are constructed
/// inside cells, not captured).
fn benchmark_names(scale: Scale) -> Vec<&'static str> {
    paper_benchmarks(scale).iter().map(|w| w.name).collect()
}

// ---- Figure 6 ----------------------------------------------------------

/// One bar of Figure 6: a (benchmark, model) pair's normalized cycles
/// with the six-class breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Kernel name.
    pub benchmark: String,
    /// `base`, `2P`, or `2Pre`.
    pub model: String,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles normalized to the baseline run of the same benchmark
    /// (filled in by [`fig6_finalize`]).
    pub normalized: f64,
    /// Fraction of cycles in each [`CycleClass`] (display order).
    pub class_fractions: [f64; 6],
    /// Fraction of cycles in each refined [`ff_core::StallCause`]
    /// (cause-index order); sums per class to `class_fractions`.
    pub cause_fractions: [f64; ff_core::N_CAUSES],
    /// Retired instructions (identical across models by construction).
    pub retired: u64,
}

fn fig6_row(benchmark: &str, r: &SimReport) -> Fig6Row {
    let mut class_fractions = [0.0; 6];
    for (i, class) in CycleClass::ALL.iter().enumerate() {
        class_fractions[i] = r.breakdown.fraction(*class);
    }
    let mut cause_fractions = [0.0; ff_core::N_CAUSES];
    for (i, cause) in ff_core::StallCause::ALL.iter().enumerate() {
        cause_fractions[i] = r.breakdown2.fraction(*cause);
    }
    Fig6Row {
        benchmark: benchmark.to_string(),
        model: r.model.to_string(),
        cycles: r.cycles,
        normalized: 0.0,
        class_fractions,
        cause_fractions,
        retired: r.retired,
    }
}

/// Figure 6 grid: 10 benchmarks × {base, 2P, 2Pre}.
#[must_use]
pub fn fig6_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<Fig6Row>> {
    let mut cells = Vec::new();
    for name in benchmark_names(scale) {
        for model in MODELS {
            cells.push(Cell::new(name, model, "", move || {
                let w = workload(name, scale);
                fig6_row(w.name, &run_model_ff(&w, model, fast_forward))
            }));
        }
    }
    cells
}

/// Fills `normalized` from each benchmark's `base` row.
pub fn fig6_finalize(rows: &mut [Fig6Row]) {
    let base: Vec<(String, u64)> = rows
        .iter()
        .filter(|r| r.model == "base")
        .map(|r| (r.benchmark.clone(), r.cycles))
        .collect();
    for r in rows {
        if let Some((_, b)) = base.iter().find(|(name, _)| *name == r.benchmark) {
            r.normalized = r.cycles as f64 / *b as f64;
        }
    }
}

/// Figure 6, serial and uncached (benches, library use).
#[must_use]
pub fn fig6(scale: Scale) -> Vec<Fig6Row> {
    let mut rows: Vec<Fig6Row> = fig6_cells(scale, true).iter().map(|c| (c.run)()).collect();
    fig6_finalize(&mut rows);
    rows
}

// ---- Figure 7 ----------------------------------------------------------

/// One bar of Figure 7: latency-weighted initiated access cycles by pipe
/// and service level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Kernel name.
    pub benchmark: String,
    /// `base`, `2P`, or `2Pre`.
    pub model: String,
    /// `cells[pipe][level]`: initiated access cycles (A=0, B=1; levels
    /// L1, L2, L3, Mem).
    pub cells: [[u64; 4]; 2],
    /// Loads initiated per pipe.
    pub loads: [u64; 2],
}

/// Figure 7 grid: 10 benchmarks × {base, 2P, 2Pre}.
#[must_use]
pub fn fig7_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<Fig7Row>> {
    let mut cells = Vec::new();
    for name in benchmark_names(scale) {
        for model in MODELS {
            cells.push(Cell::new(name, model, "", move || {
                let w = workload(name, scale);
                let r = run_model_ff(&w, model, fast_forward);
                Fig7Row {
                    benchmark: w.name.to_string(),
                    model: r.model.to_string(),
                    cells: r.mem.load_latency_cycles,
                    loads: [r.mem.loads_in(Pipe::A), r.mem.loads_in(Pipe::B)],
                }
            }));
        }
    }
    cells
}

/// Figure 7, serial and uncached (benches, library use).
#[must_use]
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    fig7_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- Figure 8 ----------------------------------------------------------

/// The latencies Figure 8 sweeps.
pub const FIG8_LATENCIES: [FeedbackLatency; 5] = [
    FeedbackLatency::Cycles(1),
    FeedbackLatency::Cycles(2),
    FeedbackLatency::Cycles(4),
    FeedbackLatency::Cycles(8),
    FeedbackLatency::Infinite,
];

/// The paper evaluates the feedback path on three benchmarks.
pub const FIG8_BENCHMARKS: [&str; 3] = ["mcf-like", "equake-like", "twolf-like"];

fn latency_label(lat: FeedbackLatency) -> String {
    match lat {
        FeedbackLatency::Cycles(c) => c.to_string(),
        FeedbackLatency::Infinite => "inf".to_string(),
    }
}

/// One point of Figure 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Kernel name.
    pub benchmark: String,
    /// Feedback latency label (`"1"`, ..., `"inf"`).
    pub latency: String,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles normalized to the 1-cycle-feedback run (filled in by
    /// [`fig8_finalize`]).
    pub normalized: f64,
    /// Instructions deferred to the B-pipe.
    pub deferred: u64,
    /// Deferred / dispatched.
    pub deferral_rate: f64,
}

/// Figure 8 grid: 3 benchmarks × 5 feedback latencies, on the two-pass
/// machine.
#[must_use]
pub fn fig8_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<Fig8Row>> {
    let mut cells = Vec::new();
    for name in FIG8_BENCHMARKS {
        for lat in FIG8_LATENCIES {
            let label = latency_label(lat);
            cells.push(Cell::new(name, "2P", format!("latency={label}"), move || {
                let w = workload(name, scale);
                let mut cfg = machine(fast_forward);
                cfg.two_pass.feedback_latency = lat;
                let r = TwoPass::new(&w.program, w.memory.clone(), cfg).run(w.budget);
                let tp = r.two_pass.expect("two-pass stats");
                Fig8Row {
                    benchmark: w.name.to_string(),
                    latency: latency_label(lat),
                    cycles: r.cycles,
                    normalized: 0.0,
                    deferred: tp.deferred,
                    deferral_rate: tp.deferral_rate(),
                }
            }));
        }
    }
    cells
}

/// Fills `normalized` from each benchmark's 1-cycle-feedback row.
pub fn fig8_finalize(rows: &mut [Fig8Row]) {
    let base: Vec<(String, u64)> =
        rows.iter().filter(|r| r.latency == "1").map(|r| (r.benchmark.clone(), r.cycles)).collect();
    for r in rows {
        if let Some((_, b)) = base.iter().find(|(name, _)| *name == r.benchmark) {
            r.normalized = r.cycles as f64 / *b as f64;
        }
    }
}

/// Figure 8, serial and uncached (benches, library use).
#[must_use]
pub fn fig8(scale: Scale) -> Vec<Fig8Row> {
    let mut rows: Vec<Fig8Row> = fig8_cells(scale, true).iter().map(|c| (c.run)()).collect();
    fig8_finalize(&mut rows);
    rows
}

// ---- §4 branch statistics ----------------------------------------------

/// Branch-resolution split for one benchmark (paper: 32% A / 68% B on
/// average).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BranchRow {
    /// Kernel name.
    pub benchmark: String,
    /// Conditional branches retired.
    pub retired: u64,
    /// Mispredictions.
    pub mispredicted: u64,
    /// Misprediction rate.
    pub rate: f64,
    /// Fraction of mispredictions repaired at A-DET.
    pub repaired_in_a_frac: f64,
    /// Fraction repaired at B-DET.
    pub repaired_in_b_frac: f64,
}

/// Branch-statistics grid: 10 benchmarks on the two-pass machine.
#[must_use]
pub fn branch_stats_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<BranchRow>> {
    benchmark_names(scale)
        .into_iter()
        .map(|name| {
            Cell::new(name, "2P", "", move || {
                let w = workload(name, scale);
                let r = run_model_ff(&w, "2P", fast_forward);
                let b = r.branches;
                BranchRow {
                    benchmark: w.name.to_string(),
                    retired: b.retired,
                    mispredicted: b.mispredicted,
                    rate: b.mispredict_rate(),
                    repaired_in_a_frac: b.a_repair_fraction(),
                    repaired_in_b_frac: if b.mispredicted == 0 {
                        0.0
                    } else {
                        b.repaired_in_b as f64 / b.mispredicted as f64
                    },
                }
            })
        })
        .collect()
}

/// Branch statistics, serial and uncached (benches, library use).
#[must_use]
pub fn branch_stats(scale: Scale) -> Vec<BranchRow> {
    branch_stats_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- §4 store-conflict statistics ----------------------------------------

/// Store-conflict exposure for one benchmark (paper: 97% of risky loads
/// clean; 1.6% of stores cause conflict flushes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConflictRow {
    /// Kernel name.
    pub benchmark: String,
    /// A-pipe loads initiated while a deferred store was queued.
    pub risky_loads: u64,
    /// Fraction of those that never conflicted.
    pub risky_clean_frac: f64,
    /// Store-conflict flushes taken.
    pub conflict_flushes: u64,
    /// Stores retired.
    pub stores_retired: u64,
    /// Conflict flushes per retired store.
    pub flushes_per_store: f64,
}

/// Store-conflict grid: 10 benchmarks on the two-pass machine.
#[must_use]
pub fn conflict_stats_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<ConflictRow>> {
    benchmark_names(scale)
        .into_iter()
        .map(|name| {
            Cell::new(name, "2P", "", move || {
                let w = workload(name, scale);
                let r = run_model_ff(&w, "2P", fast_forward);
                let tp = r.two_pass.expect("two-pass stats");
                ConflictRow {
                    benchmark: w.name.to_string(),
                    risky_loads: tp.loads_past_deferred_store,
                    risky_clean_frac: tp.risky_load_clean_fraction(),
                    conflict_flushes: tp.store_conflict_flushes,
                    stores_retired: tp.stores_retired,
                    flushes_per_store: if tp.stores_retired == 0 {
                        0.0
                    } else {
                        tp.store_conflict_flushes as f64 / tp.stores_retired as f64
                    },
                }
            })
        })
        .collect()
}

/// Store-conflict statistics, serial and uncached (benches, library
/// use).
#[must_use]
pub fn conflict_stats(scale: Scale) -> Vec<ConflictRow> {
    conflict_stats_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- §3.1 queue-size ablation ---------------------------------------------

/// One point of the coupling-queue size sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueRow {
    /// Kernel name.
    pub benchmark: String,
    /// Queue capacity.
    pub size: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Normalized to the 64-entry (paper) configuration (filled in by
    /// [`queue_sweep_finalize`]).
    pub normalized: f64,
    /// Cycles the A-pipe spent blocked on a full queue.
    pub queue_full_cycles: u64,
}

/// Queue sizes swept by the ablation.
pub const QUEUE_SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// The benchmarks the queue-size ablation sweeps.
pub const QUEUE_SWEEP_BENCHMARKS: [&str; 4] =
    ["mcf-like", "compress-like", "equake-like", "li-like"];

/// §3.1 grid: benchmarks × queue sizes on the two-pass machine.
#[must_use]
pub fn queue_sweep_cells(
    scale: Scale,
    benchmarks: &[&'static str],
    fast_forward: bool,
) -> Vec<Cell<QueueRow>> {
    let mut cells = Vec::new();
    for &name in benchmarks {
        for size in QUEUE_SIZES {
            cells.push(Cell::new(name, "2P", format!("queue={size}"), move || {
                let w = workload(name, scale);
                let mut cfg = machine(fast_forward);
                cfg.two_pass.queue_size = size;
                let r = TwoPass::new(&w.program, w.memory.clone(), cfg).run(w.budget);
                let tp = r.two_pass.expect("two-pass stats");
                QueueRow {
                    benchmark: w.name.to_string(),
                    size,
                    cycles: r.cycles,
                    normalized: 0.0,
                    queue_full_cycles: tp.queue_full_cycles,
                }
            }));
        }
    }
    cells
}

/// Fills `normalized` from each benchmark's 64-entry (paper) row.
pub fn queue_sweep_finalize(rows: &mut [QueueRow]) {
    let base: Vec<(String, u64)> =
        rows.iter().filter(|r| r.size == 64).map(|r| (r.benchmark.clone(), r.cycles)).collect();
    for r in rows {
        if let Some((_, b)) = base.iter().find(|(name, _)| *name == r.benchmark) {
            r.normalized = r.cycles as f64 / *b as f64;
        }
    }
}

/// §3.1 queue sweep, serial and uncached (benches, library use).
#[must_use]
pub fn queue_sweep(scale: Scale, benchmarks: &[&'static str]) -> Vec<QueueRow> {
    let mut rows: Vec<QueueRow> =
        queue_sweep_cells(scale, benchmarks, true).iter().map(|c| (c.run)()).collect();
    queue_sweep_finalize(&mut rows);
    rows
}

// ---- §4 stall-on-FP ablation -----------------------------------------------

/// Effect of stalling the A-pipe on anticipable FP latencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpStallRow {
    /// Kernel name.
    pub benchmark: String,
    /// Cycles with the default (defer-everything) policy.
    pub defer_cycles: u64,
    /// Cycles with stall-on-anticipable-FP.
    pub stall_cycles: u64,
    /// FP operations deferred under each policy.
    pub defer_fp_deferred: u64,
    /// FP operations deferred when stalling.
    pub stall_fp_deferred: u64,
    /// FP deferral rate under the default policy.
    pub defer_fp_rate: f64,
}

/// The benchmarks the FP-stall ablation compares.
pub const FP_STALL_BENCHMARKS: [&str; 2] = ["vpr-like", "equake-like"];

/// §4 grid: one cell per benchmark, running both FP policies.
#[must_use]
pub fn fp_stall_cells(
    scale: Scale,
    benchmarks: &[&'static str],
    fast_forward: bool,
) -> Vec<Cell<FpStallRow>> {
    benchmarks
        .iter()
        .map(|&name| {
            Cell::new(name, "2P", "policy=defer+stall", move || {
                let w = workload(name, scale);
                let plain_cfg = machine(fast_forward);
                let mut stall_cfg = plain_cfg.clone();
                stall_cfg.two_pass.stall_on_anticipable_fp = true;
                let plain = TwoPass::new(&w.program, w.memory.clone(), plain_cfg).run(w.budget);
                let stall = TwoPass::new(&w.program, w.memory.clone(), stall_cfg).run(w.budget);
                let ptp = plain.two_pass.expect("two-pass stats");
                let stp = stall.two_pass.expect("two-pass stats");
                FpStallRow {
                    benchmark: w.name.to_string(),
                    defer_cycles: plain.cycles,
                    stall_cycles: stall.cycles,
                    defer_fp_deferred: ptp.fp_deferred,
                    stall_fp_deferred: stp.fp_deferred,
                    defer_fp_rate: if ptp.fp_retired == 0 {
                        0.0
                    } else {
                        ptp.fp_deferred as f64 / ptp.fp_retired as f64
                    },
                }
            })
        })
        .collect()
}

/// §4 FP-stall ablation, serial and uncached (benches, library use).
#[must_use]
pub fn fp_stall_ablation(scale: Scale, benchmarks: &[&'static str]) -> Vec<FpStallRow> {
    fp_stall_cells(scale, benchmarks, true).iter().map(|c| (c.run)()).collect()
}

// ---- §2 runahead comparison ---------------------------------------------

/// Baseline vs runahead vs two-pass on one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunaheadRow {
    /// Kernel name.
    pub benchmark: String,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Runahead cycles.
    pub runahead_cycles: u64,
    /// Two-pass cycles.
    pub two_pass_cycles: u64,
    /// Runahead speedup over baseline.
    pub runahead_speedup: f64,
    /// Two-pass speedup over baseline.
    pub two_pass_speedup: f64,
}

/// §2 grid: one cell per benchmark, running base, runahead, and 2P.
#[must_use]
pub fn runahead_compare_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<RunaheadRow>> {
    benchmark_names(scale)
        .into_iter()
        .map(|name| {
            Cell::new(name, "base+runahead+2P", "", move || {
                let w = workload(name, scale);
                let cfg = machine(fast_forward);
                let base = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(w.budget);
                let ra = Runahead::new(&w.program, w.memory.clone(), cfg.clone()).run(w.budget);
                let tp = TwoPass::new(&w.program, w.memory.clone(), cfg).run(w.budget);
                debug_assert_eq!(ra.model, ModelKind::Runahead);
                RunaheadRow {
                    benchmark: w.name.to_string(),
                    base_cycles: base.cycles,
                    runahead_cycles: ra.cycles,
                    two_pass_cycles: tp.cycles,
                    runahead_speedup: base.cycles as f64 / ra.cycles as f64,
                    two_pass_speedup: base.cycles as f64 / tp.cycles as f64,
                }
            })
        })
        .collect()
}

/// §2 runahead comparison, serial and uncached (benches, library use).
#[must_use]
pub fn runahead_compare(scale: Scale) -> Vec<RunaheadRow> {
    runahead_compare_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- predictor ablation ---------------------------------------------------

/// One point of the branch-predictor sensitivity sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictorRow {
    /// Kernel name.
    pub benchmark: String,
    /// Predictor label (see [`PREDICTORS`]).
    pub predictor: String,
    /// Baseline cycles under this predictor.
    pub base_cycles: u64,
    /// Two-pass cycles under this predictor.
    pub two_pass_cycles: u64,
    /// Two-pass cycles / baseline cycles.
    pub normalized: f64,
    /// Two-pass misprediction rate.
    pub mispredict_rate: f64,
}

/// The predictors the ablation sweeps (label, configuration).
pub const PREDICTORS: [&str; 5] =
    ["static-NT", "bimodal-1k", "gshare-1k (paper)", "local-1k", "tournament-1k"];

/// The benchmarks the predictor ablation sweeps.
pub const PREDICTOR_BENCHMARKS: [&str; 3] = ["099.go", "300.twolf", "181.mcf"];

fn predictor_by_label(label: &str) -> PredictorConfig {
    match label {
        "static-NT" => PredictorConfig::StaticNotTaken,
        "bimodal-1k" => PredictorConfig::Bimodal { bits: 10 },
        "gshare-1k (paper)" => PredictorConfig::paper_table1(),
        "local-1k" => PredictorConfig::Local { bits: 10, history_bits: 10 },
        "tournament-1k" => PredictorConfig::Tournament { bits: 10 },
        other => panic!("unknown predictor label `{other}`"),
    }
}

/// Predictor-ablation grid: benchmarks × predictors, each cell running
/// baseline and two-pass.
#[must_use]
pub fn predictor_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<PredictorRow>> {
    let mut cells = Vec::new();
    for name in PREDICTOR_BENCHMARKS {
        for label in PREDICTORS {
            cells.push(Cell::new(name, "base+2P", format!("predictor={label}"), move || {
                let w = workload(name, scale);
                let mut cfg = machine(fast_forward);
                cfg.predictor = predictor_by_label(label);
                let base = Baseline::new(&w.program, w.memory.clone(), cfg.clone()).run(w.budget);
                let tp = TwoPass::new(&w.program, w.memory.clone(), cfg).run(w.budget);
                PredictorRow {
                    benchmark: w.name.to_string(),
                    predictor: label.to_string(),
                    base_cycles: base.cycles,
                    two_pass_cycles: tp.cycles,
                    normalized: tp.cycles as f64 / base.cycles as f64,
                    mispredict_rate: tp.branches.mispredict_rate(),
                }
            }));
        }
    }
    cells
}

/// Predictor ablation, serial and uncached (benches, library use).
#[must_use]
pub fn predictor_ablation(scale: Scale) -> Vec<PredictorRow> {
    predictor_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- §3.5 throttle ablation -----------------------------------------------

/// A-pipe issue-moderation effect on one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThrottleRow {
    /// Kernel name.
    pub benchmark: String,
    /// Cycles without the throttle.
    pub plain_cycles: u64,
    /// Cycles with the throttle engaged.
    pub throttled_cycles: u64,
    /// Throttled / plain cycles.
    pub normalized: f64,
    /// Cycles the throttle held the A-pipe.
    pub throttle_engaged_cycles: u64,
    /// Average coupling-queue occupancy without the throttle.
    pub plain_avg_occupancy: f64,
    /// Average coupling-queue occupancy with the throttle.
    pub throttled_avg_occupancy: f64,
}

/// §3.5 grid: one cell per benchmark, running plain and throttled.
#[must_use]
pub fn throttle_cells(scale: Scale, fast_forward: bool) -> Vec<Cell<ThrottleRow>> {
    benchmark_names(scale)
        .into_iter()
        .map(|name| {
            Cell::new(name, "2P", "throttle=w32-t0.5-r8", move || {
                let w = workload(name, scale);
                let plain_cfg = machine(fast_forward);
                let mut t_cfg = plain_cfg.clone();
                t_cfg.two_pass.throttle =
                    Some(ThrottleConfig { window: 32, defer_threshold: 0.5, resume_occupancy: 8 });
                let plain = TwoPass::new(&w.program, w.memory.clone(), plain_cfg).run(w.budget);
                let thr = TwoPass::new(&w.program, w.memory.clone(), t_cfg).run(w.budget);
                let ps = plain.two_pass.expect("two-pass stats");
                let ts = thr.two_pass.expect("two-pass stats");
                ThrottleRow {
                    benchmark: w.name.to_string(),
                    plain_cycles: plain.cycles,
                    throttled_cycles: thr.cycles,
                    normalized: thr.cycles as f64 / plain.cycles as f64,
                    throttle_engaged_cycles: ts.throttled_cycles,
                    plain_avg_occupancy: ps.queue_occupancy_sum as f64 / plain.cycles as f64,
                    throttled_avg_occupancy: ts.queue_occupancy_sum as f64 / thr.cycles as f64,
                }
            })
        })
        .collect()
}

/// §3.5 throttle ablation, serial and uncached (benches, library use).
#[must_use]
pub fn throttle_ablation(scale: Scale) -> Vec<ThrottleRow> {
    throttle_cells(scale, true).iter().map(|c| (c.run)()).collect()
}

// ---- Table 2 --------------------------------------------------------------

/// One Table 2 row: a benchmark and its dynamic instruction count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// SPEC reference, e.g. `"181.mcf"`.
    pub spec_ref: String,
    /// Kernel name, e.g. `"mcf-like"`.
    pub benchmark: String,
    /// Dynamic instructions retired by the golden interpreter.
    pub instructions: u64,
    /// One-line synthetic-input description.
    pub description: String,
}

/// Table 2 grid: one interpreter run per benchmark.
#[must_use]
pub fn table2_cells(scale: Scale) -> Vec<Cell<Table2Row>> {
    benchmark_names(scale)
        .into_iter()
        .map(|name| {
            Cell::new(name, "interp", "", move || {
                let w = workload(name, scale);
                let mut interp = ArchState::new(&w.program, w.memory.clone());
                interp.run(w.budget);
                Table2Row {
                    spec_ref: w.spec_ref.to_string(),
                    benchmark: w.name.to_string(),
                    instructions: interp.instr_count(),
                    description: w.description.to_string(),
                }
            })
        })
        .collect()
}

// ---- shared display helpers ------------------------------------------------

/// Formats a `[pipe][level]` cell table fragment for Figure 7 output.
#[must_use]
pub fn level_label(i: usize) -> &'static str {
    match i {
        0 => "L1",
        1 => "L2",
        2 => "L3",
        _ => "Mem",
    }
}

/// All memory levels in display order (re-export convenience).
pub const LEVELS: [MemLevel; 4] = MemLevel::ALL;
