//! The experiment registry: every paper table and figure as one named
//! [`Experiment`] — a [`Cell`] grid, a finalize pass, and a renderer
//! that declares each column of its table once (see [`crate::fmt`]).
//!
//! An experiment is data: each cell names the [`Run`]s it reads (a
//! kernel on one model of one machine) and a pure function from their
//! reports to one typed row. The shared [`crate::sweep`] engine
//! simulates each distinct run once — Table 2, Figures 6 and 7 and the
//! §4 statistics all read the same Table-1 runs — in parallel and
//! cached. The one quantity that relates rows — cycles "normalized to
//! the reference run of the same benchmark" — is filled in afterwards
//! by `normalize`, which is pure and deterministic, so cached and
//! freshly simulated runs produce identical output.
//!
//! [`REGISTRY`] lists every experiment: `ff_exp <name>` runs one, and
//! `ff_report drift` runs them all, through one [`RunStore`], against
//! the committed `results/<name>.txt`.

use crate::fmt::{pct, ratio, Table};
use crate::sweep::{run_sweep, Cell, Run, RunStore, SweepOpts, SweepStats};
use ff_core::{
    CycleClass, FeedbackLatency, MachineConfig, ModelKind, Pipe, SimReport, StallCause,
    ThrottleConfig, L1I_GEOMETRY,
};
use ff_mem::CacheGeometry;
use ff_predict::PredictorConfig;
use ff_workloads::PAPER_BENCHMARKS;
use serde::{Deserialize, Serialize, Value};

// ---- registry ---------------------------------------------------------------

/// What one experiment run produced.
#[derive(Debug)]
pub struct Output {
    /// The finalized rows (for `table1`, its key/value object).
    pub rows: Value,
    /// What `ff_exp` prints: the rendered table, or the pretty-printed
    /// rows under `--json`.
    pub text: String,
    /// Sweep bookkeeping (all zero for `table1`, which simulates
    /// nothing).
    pub stats: SweepStats,
}

/// One paper table or figure, runnable by name.
pub trait Experiment: Sync {
    /// Registry name: the `ff_exp` argument and the stem of the
    /// committed `results/<name>.txt`.
    fn name(&self) -> &'static str;
    /// One-line description, also the heading of the rendered table.
    fn title(&self) -> &'static str;
    /// Runs the experiment under the shared sweep options, reusing the
    /// reports `store` holds and adding the ones it simulates or loads.
    fn run(&self, opts: &SweepOpts, store: &mut RunStore) -> Output;
}

/// Every experiment, in paper order.
pub static REGISTRY: [&dyn Experiment; 12] = [
    &Table1,
    &Grid {
        name: "table2",
        title: "Table 2 — benchmarks and dynamic instruction counts",
        cells: table2_cells,
        finalize: no_finalize,
        render: render_table2,
    },
    &Grid {
        name: "fig6",
        title: "Figure 6 — normalized execution cycles",
        cells: fig6_cells,
        finalize: |rows| {
            normalize(rows, |r| (&r.benchmark, r.cycles, r.model == "base", &mut r.normalized))
        },
        render: render_fig6,
    },
    &Grid {
        name: "fig7",
        title: "Figure 7 — initiated access cycles by pipe and level",
        cells: fig7_cells,
        finalize: no_finalize,
        render: render_fig7,
    },
    &Grid {
        name: "fig8",
        title: "Figure 8 — B→A feedback latency sweep",
        cells: fig8_cells,
        finalize: |rows| {
            normalize(rows, |r| (&r.benchmark, r.cycles, r.latency == "1", &mut r.normalized))
        },
        render: render_fig8,
    },
    &Grid {
        name: "branch_stats",
        title: "Branch misprediction split on the two-pass machine",
        cells: branch_stats_cells,
        finalize: no_finalize,
        render: render_branch_stats,
    },
    &Grid {
        name: "conflict_stats",
        title: "Store-conflict exposure on the two-pass machine",
        cells: conflict_stats_cells,
        finalize: no_finalize,
        render: render_conflict_stats,
    },
    &Grid {
        name: "ablate_queue",
        title: "Coupling-queue size sweep",
        cells: queue_sweep_cells,
        finalize: |rows| {
            normalize(rows, |r| (&r.benchmark, r.cycles, r.size == 64, &mut r.normalized))
        },
        render: render_queue_sweep,
    },
    &Grid {
        name: "ablate_fp_stall",
        title: "Stall-on-anticipable-FP policy ablation",
        cells: fp_stall_cells,
        finalize: no_finalize,
        render: render_fp_stall,
    },
    &Grid {
        name: "ablate_predictor",
        title: "Branch-predictor ablation",
        cells: predictor_cells,
        finalize: no_finalize,
        render: render_predictor,
    },
    &Grid {
        name: "ablate_throttle",
        title: "A-pipe deferral throttle ablation",
        cells: throttle_cells,
        finalize: no_finalize,
        render: render_throttle,
    },
    &Grid {
        name: "runahead_compare",
        title: "Runahead vs two-pass",
        cells: runahead_compare_cells,
        finalize: no_finalize,
        render: render_runahead_compare,
    },
];

/// Looks an experiment up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// A swept experiment: grid builder, cross-row finalize pass, renderer.
struct Grid<R> {
    name: &'static str,
    title: &'static str,
    cells: fn(&MachineConfig) -> Vec<Cell<R>>,
    finalize: fn(&mut [R]),
    /// The table that follows the title line.
    render: fn(&[R]) -> String,
}

impl<R: Serialize> Experiment for Grid<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn run(&self, opts: &SweepOpts, store: &mut RunStore) -> Output {
        let base =
            MachineConfig { fast_forward: opts.fast_forward, ..MachineConfig::paper_table1() };
        let run = run_sweep(self.name, opts, store, (self.cells)(&base));
        let stats = run.stats;
        let mut rows = run.into_rows();
        (self.finalize)(&mut rows);
        let value = rows.to_value();
        let text = if opts.json {
            json_text(&value)
        } else {
            format!("{} ({} scale)\n\n{}", self.title, opts.scale.label(), (self.render)(&rows))
        };
        Output { rows: value, text, stats }
    }
}

fn no_finalize<R>(_: &mut [R]) {}

/// Sets each row's normalized cycles: its cycles over those of its
/// benchmark's reference row. `parts` splits a row into its benchmark,
/// its cycles, whether it is the reference, and the slot to fill.
fn normalize<R>(rows: &mut [R], parts: fn(&mut R) -> (&str, u64, bool, &mut f64)) {
    let mut refs: Vec<(String, u64)> = Vec::new();
    for r in rows.iter_mut() {
        if let (benchmark, cycles, true, _) = parts(r) {
            refs.push((benchmark.to_string(), cycles));
        }
    }
    for r in rows {
        let (benchmark, cycles, _, normalized) = parts(r);
        if let Some((_, b)) = refs.iter().find(|(name, _)| name == benchmark) {
            *normalized = cycles as f64 / *b as f64;
        }
    }
}

fn json_text(rows: &Value) -> String {
    serde_json::to_string_pretty(rows).expect("serializable rows") + "\n"
}

// ---- shared cell plumbing ---------------------------------------------------

/// The three paper machines, in display order.
const PAPER_MODELS: [ModelKind; 3] =
    [ModelKind::Baseline, ModelKind::TwoPass, ModelKind::TwoPassRegroup];

/// `n / d`, or 0 when `d` is 0.
fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The paper benchmarks' names, in Table 2 order.
fn benchmark_names() -> [&'static str; 10] {
    PAPER_BENCHMARKS.map(|b| b.name)
}

/// `base` with one setting changed.
fn with(base: &MachineConfig, edit: impl FnOnce(&mut MachineConfig)) -> MachineConfig {
    let mut cfg = base.clone();
    edit(&mut cfg);
    cfg
}

/// One cell per benchmark of `names` and point of `points`: `runs`
/// lists the (model, machine) pairs a point reads, and `row` turns
/// their reports, in that order, into the cell's row.
fn grid<P: Copy + 'static, R: 'static>(
    names: &[&'static str],
    points: &[P],
    runs: impl Fn(P) -> Vec<(ModelKind, MachineConfig)>,
    row: fn(&'static str, P, &[&SimReport]) -> R,
) -> Vec<Cell<R>> {
    let mut cells = Vec::new();
    for &kernel in names {
        for &p in points {
            let runs = runs(p).into_iter().map(|(model, config)| Run { kernel, model, config });
            cells.push(Cell::new(runs.collect(), move |r| row(kernel, p, r)));
        }
    }
    cells
}

// ---- Table 1 ----------------------------------------------------------------

/// Table 1 is static: the machine configuration itself, no simulation.
/// `--json` emits the key/value pairs as a JSON object.
struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table 1 — experimental machine configuration"
    }

    fn run(&self, opts: &SweepOpts, _: &mut RunStore) -> Output {
        let c = MachineConfig::paper_table1();
        let h = &c.hierarchy;
        let cache = |latency: String, g: &CacheGeometry| {
            format!("{latency}, {}KB, {}-way, {}B lines", g.size_bytes / 1024, g.ways, g.line_bytes)
        };
        let rows: Vec<(&str, String)> = vec![
            (
                "Functional Units",
                format!(
                    "{}-issue, {} ALU, {} Memory, {} FP, {} Branch",
                    c.issue_width, c.fu_slots.alu, c.fu_slots.mem, c.fu_slots.fp, c.fu_slots.branch
                ),
            ),
            ("L1I Cache", cache("2 cycle".into(), &L1I_GEOMETRY) + " (modeled pipelined)"),
            ("L1D Cache", cache(format!("{} cycle", h.l1_latency), &h.l1)),
            ("L2 Cache", cache(format!("{} cycles", h.l2_latency), &h.l2)),
            (
                "L3 Cache",
                format!(
                    "{} cycles, {}MB (x0.5), {}-way, {}B lines",
                    h.l3_latency,
                    h.l3.size_bytes as f64 / (1024.0 * 1024.0),
                    h.l3.ways,
                    h.l3.line_bytes
                ),
            ),
            ("Max Outstanding Loads", format!("{}", c.max_outstanding_loads)),
            ("Main memory", format!("{} cycles", h.mem_latency)),
            ("Branch Predictor", format!("{:?}", c.predictor)),
            ("Two-pass Coupling Queue", format!("{} entry", c.two_pass.queue_size)),
            ("Two-pass ALAT", format!("{:?}", c.two_pass.alat)),
            ("A-DET redirect penalty", format!("{} cycles", c.adet_penalty())),
            ("B-DET redirect penalty", format!("{} cycles", c.bdet_penalty())),
            ("B->A feedback latency", format!("{:?}", c.two_pass.feedback_latency)),
        ];
        let value = Value::Object(
            rows.iter().map(|(k, v)| (k.to_string(), Value::Str(v.clone()))).collect(),
        );
        let text = if opts.json {
            json_text(&value)
        } else {
            let mut text = format!("{}\n\n", self.title());
            for (k, v) in &rows {
                text.push_str(&format!("{k:<26} {v}\n"));
            }
            text
        };
        Output { rows: value, text, stats: SweepStats::default() }
    }
}

// ---- Table 2 ----------------------------------------------------------------

/// One Table 2 row: a benchmark and its dynamic instruction count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// SPEC reference, e.g. `"181.mcf"`.
    pub spec_ref: String,
    /// Kernel name, e.g. `"mcf-like"`.
    pub benchmark: String,
    /// Dynamic instructions retired (by the base run; every model and
    /// the golden interpreter retire the same count).
    pub instructions: u64,
    /// One-line synthetic-input description.
    pub description: String,
}

/// Table 2 grid: each benchmark's base run.
#[must_use]
pub fn table2_cells(base: &MachineConfig) -> Vec<Cell<Table2Row>> {
    PAPER_BENCHMARKS
        .map(|b| {
            let run = Run { kernel: b.name, model: ModelKind::Baseline, config: base.clone() };
            Cell::new(vec![run], move |r| Table2Row {
                spec_ref: b.spec_ref.to_string(),
                benchmark: b.name.to_string(),
                instructions: r[0].retired,
                description: b.description.to_string(),
            })
        })
        .into()
}

fn render_table2(rows: &[Table2Row]) -> String {
    Table::new(rows)
        .sep(" ")
        .rule(100)
        .left("Benchmark", 14, |r| r.spec_ref.clone())
        .left("Stands for", 13, |r| r.benchmark.clone())
        .col("Instructions", 13, |r| r.instructions)
        .sep("  ")
        .ragged("Synthetic input", 0, |r| r.description.clone())
        .render()
}

// ---- Figure 6 ---------------------------------------------------------------

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
    /// (filled in by `normalize`).
    pub normalized: f64,
    /// Fraction of cycles in each [`CycleClass`] (display order).
    pub class_fractions: [f64; 6],
    /// Fraction of cycles in each refined [`StallCause`] (cause-index
    /// order); sums per class to `class_fractions`.
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
    for (i, cause) in StallCause::ALL.iter().enumerate() {
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
pub fn fig6_cells(base: &MachineConfig) -> Vec<Cell<Fig6Row>> {
    let names = benchmark_names();
    grid(&names, &PAPER_MODELS, |m| vec![(m, base.clone())], |name, _, r| fig6_row(name, r[0]))
}

fn render_fig6(rows: &[Fig6Row]) -> String {
    let class = |i: usize| move |r: &Fig6Row| pct(r.class_fractions[i]);
    let mut out = Table::new(rows)
        .gap_after(|r, _| r.model == "2Pre")
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("model", 5, |r| r.model.clone())
        .col("norm", 6, |r| ratio(r.normalized))
        .col("unstall", 8, class(0))
        .col("load", 7, class(1))
        .col("nonload", 8, class(2))
        .col("resrc", 6, class(3))
        .col("front", 6, class(4))
        .col("a-pipe", 6, class(5))
        .col("cycles", 10, |r| r.cycles)
        .render();
    // Paper headline: 2Pre averages 1.08x over 2P; mcf-like sees a large
    // overall cycle reduction. (With no rows of a model, its mean is 0/0.)
    let mean = |model: &str| {
        let xs: Vec<f64> = rows.iter().filter(|r| r.model == model).map(|r| r.normalized).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let (tp, re) = (mean("2P"), mean("2Pre"));
    if tp.is_finite() && re.is_finite() {
        out += &format!(
            "mean normalized cycles: 2P={tp:.3}  2Pre={re:.3}  (2Pre speedup over 2P: {:.3}x)\n",
            tp / re
        );
    }

    // Refined stall causes: only the columns that are nonzero somewhere,
    // so the compact table stays readable at every scale.
    let mut causes = Table::new(rows)
        .rule(0)
        .gap_after(|r, _| r.model == "2Pre")
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("model", 5, |r| r.model.clone());
    for i in (0..ff_core::N_CAUSES).filter(|&i| rows.iter().any(|r| r.cause_fractions[i] > 0.0)) {
        causes = causes.col(StallCause::ALL[i].label(), 9, move |r| pct(r.cause_fractions[i]));
    }
    out + "\nrefined stall causes (fraction of cycles; zero columns omitted)\n\n" + &causes.render()
}

// ---- Figure 7 ---------------------------------------------------------------

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
pub fn fig7_cells(base: &MachineConfig) -> Vec<Cell<Fig7Row>> {
    let names = benchmark_names();
    grid(&names, &PAPER_MODELS, |m| vec![(m, base.clone())], |name, _, r| fig7_row(name, r[0]))
}

fn fig7_row(benchmark: &str, r: &SimReport) -> Fig7Row {
    Fig7Row {
        benchmark: benchmark.to_string(),
        model: r.model.to_string(),
        cells: r.mem.load_latency_cycles,
        loads: [r.mem.loads_in(Pipe::A), r.mem.loads_in(Pipe::B)],
    }
}

fn render_fig7(rows: &[Fig7Row]) -> String {
    let a_frac = |r: &Fig7Row| {
        let a: u64 = r.cells[0].iter().sum();
        let b: u64 = r.cells[1].iter().sum();
        format!("{:.1}%", 100.0 * a as f64 / (a + b).max(1) as f64)
    };
    Table::new(rows)
        .sep(" ")
        .rule(132)
        .gap_after(|r, _| r.model == "2Pre")
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("model", 5, |r| r.model.clone())
        .col("|", 1, |_| "|")
        .col("A/L1", 9, |r| r.cells[0][0])
        .col("A/L2", 9, |r| r.cells[0][1])
        .col("A/L3", 9, |r| r.cells[0][2])
        .col("A/Mem", 10, |r| r.cells[0][3])
        .col("|", 1, |_| "|")
        .col("B/L1", 9, |r| r.cells[1][0])
        .col("B/L2", 9, |r| r.cells[1][1])
        .col("B/L3", 9, |r| r.cells[1][2])
        .col("B/Mem", 10, |r| r.cells[1][3])
        .col("|", 1, |_| "|")
        .col("A-frac", 6, a_frac)
        .render()
        + "(paper: for most benchmarks the majority of access latency is initiated in the A-pipe)\n"
}

// ---- Figure 8 ---------------------------------------------------------------

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
    /// `normalize`).
    pub normalized: f64,
    /// Instructions deferred to the B-pipe.
    pub deferred: u64,
    /// Deferred / dispatched.
    pub deferral_rate: f64,
}

/// Figure 8 grid: 3 benchmarks × 5 feedback latencies, on the two-pass
/// machine.
#[must_use]
pub fn fig8_cells(base: &MachineConfig) -> Vec<Cell<Fig8Row>> {
    let runs = |lat| vec![(ModelKind::TwoPass, with(base, |c| c.two_pass.feedback_latency = lat))];
    grid(&FIG8_BENCHMARKS, &FIG8_LATENCIES, runs, |name, lat, r| {
        let tp = r[0].two_pass.expect("two-pass stats");
        Fig8Row {
            benchmark: name.to_string(),
            latency: latency_label(lat),
            cycles: r[0].cycles,
            normalized: 0.0,
            deferred: tp.deferred,
            deferral_rate: tp.deferral_rate(),
        }
    })
}

fn render_fig8(rows: &[Fig8Row]) -> String {
    Table::new(rows)
        .gap_after(|r, _| r.latency == "inf")
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("latency", 8, |r| r.latency.clone())
        .col("cycles", 10, |r| r.cycles)
        .col("norm", 6, |r| ratio(r.normalized))
        .col("deferred", 10, |r| r.deferred)
        .col("defer%", 7, |r| pct(r.deferral_rate))
        .render()
        + "(paper: tolerant of moderate latency, especially up to ~4 cycles; 'inf' inflates deferral)\n"
}

// ---- §4 branch statistics ---------------------------------------------------

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
pub fn branch_stats_cells(base: &MachineConfig) -> Vec<Cell<BranchRow>> {
    let runs = |()| vec![(ModelKind::TwoPass, base.clone())];
    grid(&benchmark_names(), &[()], runs, |name, (), r| {
        let b = r[0].branches;
        BranchRow {
            benchmark: name.to_string(),
            retired: b.retired,
            mispredicted: b.mispredicted,
            rate: b.mispredict_rate(),
            repaired_in_a_frac: b.a_repair_fraction(),
            repaired_in_b_frac: frac(b.repaired_in_b, b.mispredicted),
        }
    })
}

/// Mispredictions of row `r` repaired at A-DET, recovered from its
/// fraction (rounded: 1/49 × 49 is 0.999…).
fn repaired_in_a(r: &BranchRow) -> u64 {
    (r.repaired_in_a_frac * r.mispredicted as f64).round() as u64
}

fn render_branch_stats(rows: &[BranchRow]) -> String {
    let mut out = Table::new(rows)
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("branches", 9, |r| r.retired)
        .col("mispred", 8, |r| r.mispredicted)
        .col("rate", 6, |r| pct(r.rate))
        .col("A-DET", 6, |r| pct(r.repaired_in_a_frac))
        .col("B-DET", 6, |r| pct(r.repaired_in_b_frac))
        .render();
    let misp: u64 = rows.iter().map(|r| r.mispredicted).sum();
    let in_a: u64 = rows.iter().map(repaired_in_a).sum();
    if misp > 0 {
        out += &format!(
            "\naggregate: {:.0}% repaired at A-DET, {:.0}% at B-DET (paper: 32% / 68%)\n",
            100.0 * in_a as f64 / misp as f64,
            100.0 * (misp - in_a) as f64 / misp as f64
        );
    }
    out
}

// ---- §4 store-conflict statistics -------------------------------------------

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
pub fn conflict_stats_cells(base: &MachineConfig) -> Vec<Cell<ConflictRow>> {
    let runs = |()| vec![(ModelKind::TwoPass, base.clone())];
    grid(&benchmark_names(), &[()], runs, |name, (), r| {
        let tp = r[0].two_pass.expect("two-pass stats");
        ConflictRow {
            benchmark: name.to_string(),
            risky_loads: tp.loads_past_deferred_store,
            risky_clean_frac: tp.risky_load_clean_fraction(),
            conflict_flushes: tp.store_conflict_flushes,
            stores_retired: tp.stores_retired,
            flushes_per_store: frac(tp.store_conflict_flushes, tp.stores_retired),
        }
    })
}

fn render_conflict_stats(rows: &[ConflictRow]) -> String {
    Table::new(rows)
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("risky-lds", 10, |r| r.risky_loads)
        .col("clean", 7, |r| pct(r.risky_clean_frac))
        .col("flushes", 8, |r| r.conflict_flushes)
        .col("stores", 8, |r| r.stores_retired)
        .col("fl/st", 6, |r| pct(r.flushes_per_store))
        .render()
        + "\n(paper: 97% of risky loads conflict-free; 1.6% of stores cause conflict flushes)\n"
}

// ---- §3.1 queue-size ablation -----------------------------------------------

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
    /// `normalize`).
    pub normalized: f64,
    /// Cycles the A-pipe spent blocked on a full queue.
    pub queue_full_cycles: u64,
}

/// Queue sizes swept by the ablation.
pub const QUEUE_SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// The benchmarks the queue-size ablation sweeps.
pub const QUEUE_SWEEP_BENCHMARKS: [&str; 4] =
    ["mcf-like", "compress-like", "equake-like", "li-like"];

/// §3.1 grid: [`QUEUE_SWEEP_BENCHMARKS`] × [`QUEUE_SIZES`] on the
/// two-pass machine.
#[must_use]
pub fn queue_sweep_cells(base: &MachineConfig) -> Vec<Cell<QueueRow>> {
    let runs = |size| vec![(ModelKind::TwoPass, with(base, |c| c.two_pass.queue_size = size))];
    grid(&QUEUE_SWEEP_BENCHMARKS, &QUEUE_SIZES, runs, |name, size, r| QueueRow {
        benchmark: name.to_string(),
        size,
        cycles: r[0].cycles,
        normalized: 0.0,
        queue_full_cycles: r[0].two_pass.expect("two-pass stats").queue_full_cycles,
    })
}

fn render_queue_sweep(rows: &[QueueRow]) -> String {
    "(compress/equake/li vary smoothly around 64, as the paper reports; mcf-like\n \
     shows a deterministic phase effect of queue-full backpressure — see EXPERIMENTS.md)\n\n"
        .to_string()
        + &Table::new(rows)
            .gap_after(|r, _| r.size == 256)
            .col("benchmark", 14, |r| r.benchmark.clone())
            .col("size", 5, |r| r.size)
            .col("cycles", 10, |r| r.cycles)
            .col("vs 64", 6, |r| ratio(r.normalized))
            .col("full-stalls", 12, |r| r.queue_full_cycles)
            .render()
}

// ---- §4 stall-on-FP ablation ------------------------------------------------

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

/// §4 grid: one cell per [`FP_STALL_BENCHMARKS`] entry, reading the
/// two-pass run under both FP policies.
#[must_use]
pub fn fp_stall_cells(base: &MachineConfig) -> Vec<Cell<FpStallRow>> {
    let stall = with(base, |c| c.two_pass.stall_on_anticipable_fp = true);
    let runs = |()| vec![(ModelKind::TwoPass, base.clone()), (ModelKind::TwoPass, stall.clone())];
    grid(&FP_STALL_BENCHMARKS, &[()], runs, |name, (), r| {
        let ptp = r[0].two_pass.expect("two-pass stats");
        let stp = r[1].two_pass.expect("two-pass stats");
        FpStallRow {
            benchmark: name.to_string(),
            defer_cycles: r[0].cycles,
            stall_cycles: r[1].cycles,
            defer_fp_deferred: ptp.fp_deferred,
            stall_fp_deferred: stp.fp_deferred,
            defer_fp_rate: frac(ptp.fp_deferred, ptp.fp_retired),
        }
    })
}

fn render_fp_stall(rows: &[FpStallRow]) -> String {
    Table::new(rows)
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("defer-cyc", 10, |r| r.defer_cycles)
        .col("stall-cyc", 10, |r| r.stall_cycles)
        .col("speedup", 8, |r| ratio(r.defer_cycles as f64 / r.stall_cycles as f64))
        .col("fp-def", 8, |r| r.defer_fp_deferred)
        .col("fp-def'", 8, |r| r.stall_fp_deferred)
        .col("fp-rate", 8, |r| pct(r.defer_fp_rate))
        .render()
        + "\n(paper: vpr defers 98% of its FP instructions in chains; stalling on these anticipable latencies is advisable)\n"
}

// ---- §2 runahead comparison -------------------------------------------------

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

/// §2 grid: one cell per benchmark, reading its base, runahead, and 2P
/// runs.
#[must_use]
pub fn runahead_compare_cells(base: &MachineConfig) -> Vec<Cell<RunaheadRow>> {
    let models = [ModelKind::Baseline, ModelKind::Runahead, ModelKind::TwoPass];
    let runs = |()| models.map(|m| (m, base.clone())).to_vec();
    grid(&benchmark_names(), &[()], runs, |name, (), r| {
        let [base, ra, tp] = [r[0].cycles, r[1].cycles, r[2].cycles];
        RunaheadRow {
            benchmark: name.to_string(),
            base_cycles: base,
            runahead_cycles: ra,
            two_pass_cycles: tp,
            runahead_speedup: base as f64 / ra as f64,
            two_pass_speedup: base as f64 / tp as f64,
        }
    })
}

fn render_runahead_compare(rows: &[RunaheadRow]) -> String {
    Table::new(rows)
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("base", 10, |r| r.base_cycles)
        .col("runahead", 10, |r| r.runahead_cycles)
        .col("2P", 10, |r| r.two_pass_cycles)
        .col("RA-spdup", 9, |r| ratio(r.runahead_speedup))
        .col("2P-spdup", 9, |r| ratio(r.two_pass_speedup))
        .render()
}

// ---- predictor ablation -----------------------------------------------------

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
pub const PREDICTOR_BENCHMARKS: [&str; 3] = ["go-like", "twolf-like", "mcf-like"];

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

/// Predictor-ablation grid: benchmarks × predictors, each cell reading
/// the baseline and two-pass runs.
#[must_use]
pub fn predictor_cells(base: &MachineConfig) -> Vec<Cell<PredictorRow>> {
    let runs = |label| {
        let cfg = with(base, |c| c.predictor = predictor_by_label(label));
        vec![(ModelKind::Baseline, cfg.clone()), (ModelKind::TwoPass, cfg)]
    };
    grid(&PREDICTOR_BENCHMARKS, &PREDICTORS, runs, |name, label, r| PredictorRow {
        benchmark: name.to_string(),
        predictor: label.to_string(),
        base_cycles: r[0].cycles,
        two_pass_cycles: r[1].cycles,
        normalized: r[1].cycles as f64 / r[0].cycles as f64,
        mispredict_rate: r[1].branches.mispredict_rate(),
    })
}

fn render_predictor(rows: &[PredictorRow]) -> String {
    Table::new(rows)
        .gap_after(|r, next| next.is_some_and(|n| n.benchmark != r.benchmark))
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("predictor", 22, |r| r.predictor.clone())
        .col("base-cyc", 10, |r| r.base_cycles)
        .col("2P-cyc", 10, |r| r.two_pass_cycles)
        .col("2P-norm", 8, |r| ratio(r.normalized))
        .col("mispred%", 9, |r| pct(r.mispredict_rate))
        .render()
}

// ---- §3.5 throttle ablation -------------------------------------------------

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

/// The throttle setting the §3.5 ablation engages.
const THROTTLE: ThrottleConfig =
    ThrottleConfig { window: 32, defer_threshold: 0.5, resume_occupancy: 8 };

/// §3.5 grid: one cell per benchmark, reading its plain and throttled
/// two-pass runs.
#[must_use]
pub fn throttle_cells(base: &MachineConfig) -> Vec<Cell<ThrottleRow>> {
    let throttled = with(base, |c| c.two_pass.throttle = Some(THROTTLE));
    let runs =
        |()| vec![(ModelKind::TwoPass, base.clone()), (ModelKind::TwoPass, throttled.clone())];
    grid(&benchmark_names(), &[()], runs, |name, (), r| {
        let (plain, thr) = (r[0], r[1]);
        let ps = plain.two_pass.expect("two-pass stats");
        let ts = thr.two_pass.expect("two-pass stats");
        ThrottleRow {
            benchmark: name.to_string(),
            plain_cycles: plain.cycles,
            throttled_cycles: thr.cycles,
            normalized: thr.cycles as f64 / plain.cycles as f64,
            throttle_engaged_cycles: ts.throttled_cycles,
            plain_avg_occupancy: ps.queue_occupancy_sum as f64 / plain.cycles as f64,
            throttled_avg_occupancy: ts.queue_occupancy_sum as f64 / thr.cycles as f64,
        }
    })
}

fn render_throttle(rows: &[ThrottleRow]) -> String {
    Table::new(rows)
        .col("benchmark", 14, |r| r.benchmark.clone())
        .col("plain-cyc", 10, |r| r.plain_cycles)
        .col("thrl-cyc", 10, |r| r.throttled_cycles)
        .col("delta", 7, |r| ratio(r.normalized))
        .col("thrl-cycles", 12, |r| r.throttle_engaged_cycles)
        .col("avg-occ", 8, |r| format!("{:.1}", r.plain_avg_occupancy))
        .col("occ'", 8, |r| format!("{:.1}", r.throttled_avg_occupancy))
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_aggregate_counts_one_a_det_repair_in_forty_nine() {
        let row = BranchRow {
            benchmark: "x-like".to_string(),
            retired: 100,
            mispredicted: 49,
            rate: 0.49,
            repaired_in_a_frac: 1.0 / 49.0,
            repaired_in_b_frac: 48.0 / 49.0,
        };
        assert_eq!(repaired_in_a(&row), 1);
        let text = render_branch_stats(&[row]);
        assert!(
            text.ends_with("aggregate: 2% repaired at A-DET, 98% at B-DET (paper: 32% / 68%)\n")
        );
    }
}
