//! Parallel, cached experiment sweep engine.
//!
//! The unit of work is a [`Run`]: one kernel, at the sweep's scale, on
//! one [`ModelKind`] of one full [`MachineConfig`]. An experiment is a
//! grid of [`Cell`]s, each naming the runs it reads and a pure function
//! from their [`SimReport`]s to its row. [`run_sweep`] collects the runs
//! of the cells `--filter` keeps, keeps each distinct run once, and
//!
//! * **reuses what it can** — a run already in the caller's
//!   [`RunStore`] (an in-process memo; `ff_report drift` passes one
//!   store through every experiment) is not simulated again, and a run
//!   stored as a [`KIND_RUN`] warehouse record under `results/cache/`
//!   is loaded instead of simulated;
//! * **simulates the rest in parallel** — across `--jobs` worker
//!   threads ([`std::thread::scope`], dynamic load balancing via a
//!   shared work index), each panic isolated to its run: a cell that
//!   reads a failed run fails ([`CellResult::outcome`]), every other
//!   cell still gets its row;
//! * **builds the rows serially, in grid order** — so the output is
//!   byte-identical whatever `--jobs` is and wherever each report came
//!   from.
//!
//! A run's cache key ([`run_key`]) is its content: kernel, scale,
//! budget, model, the canonical serialized machine (with `fast_forward`
//! normalised out, since it never changes a report) and
//! [`CODE_VERSION`]. Editing a configuration therefore never returns a
//! stale report, and renaming an experiment or changing its rows never
//! invalidates one.
//!
//! Every experiment in [`crate::experiments::REGISTRY`] shares one CLI,
//! parsed by [`SweepOpts`]: `ff_exp <name>` followed by [`COMMAND`]'s
//! arguments.

use std::collections::HashMap;
use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::cli::Command;
use crate::report::warehouse::{
    record, record_key, runs_dir_for, SweepLogEntry, Warehouse, KIND_RUN,
};
use ff_core::{MachineConfig, ModelKind, SimReport};
use ff_workloads::{paper_benchmarks, Scale, Workload};
use serde::{Deserialize, Serialize, Value};

/// Simulator-semantics version, part of every run's cache key: bump it
/// whenever a change to the simulator or to a kernel can alter a
/// report, and every cached run is invalidated at once. A change to a
/// machine configuration needs no bump: the configuration is in the key.
pub const CODE_VERSION: &str = "3";

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

// ---- CLI ----------------------------------------------------------------

/// `ff_exp <name>`: the arguments every experiment shares.
pub static COMMAND: Command = Command {
    spec: "<name> [tiny|test|ref] [--scale tiny|test|ref] [--jobs N|max] [--filter GLOB] \
           [--no-cache] [--cache-dir DIR] [--json] [--no-fast-forward]",
    about: "regenerate one paper table or figure",
};

/// Options shared by every experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepOpts {
    /// Workload scale (positional `tiny|test|ref` or `--scale S`).
    pub scale: Scale,
    /// Emit machine-readable JSON rows instead of a table (`--json`).
    pub json: bool,
    /// Worker threads (`--jobs N`, `--jobs max`; default: all cores).
    pub jobs: usize,
    /// Whether the result cache is consulted and written
    /// (`--no-cache` disables both).
    pub cache: bool,
    /// Keep only cells whose kernel or model matches this glob
    /// (`--filter GLOB`, `*` and `?` wildcards).
    pub filter: Option<String>,
    /// Cache directory (`--cache-dir DIR`).
    pub cache_dir: PathBuf,
    /// Simulate every cycle instead of event-driven fast-forwarding
    /// (`--no-fast-forward`). Results are byte-identical either way —
    /// this is the escape hatch for timing the per-cycle engine and for
    /// the CI determinism diff. Deliberately *not* part of cache keys.
    pub fast_forward: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            scale: Scale::Test,
            json: false,
            jobs: default_jobs(),
            cache: true,
            filter: None,
            cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
            fast_forward: true,
        }
    }
}

/// Number of worker threads used when `--jobs` is absent or `max`.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl SweepOpts {
    /// Parses `ff_exp`'s arguments after the experiment name against
    /// [`COMMAND`]. `--scale` takes precedence over the positional scale.
    ///
    /// # Errors
    ///
    /// Returns a usage message when an argument is unknown or a flag is
    /// malformed (bad `--jobs` value, missing flag argument, unknown
    /// scale).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<SweepOpts, String> {
        let args = COMMAND.parse(args)?;
        let positional = args.positional().first().map(|s| s.parse()).transpose()?;
        let jobs = match args.value("--jobs") {
            None | Some("max") => default_jobs(),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad --jobs value `{v}` (need >= 1 or max)")),
            },
        };
        Ok(SweepOpts {
            scale: args.get("--scale")?.or(positional).unwrap_or(Scale::Test),
            json: args.has("--json"),
            jobs,
            cache: !args.has("--no-cache"),
            filter: args.value("--filter").map(String::from),
            cache_dir: PathBuf::from(args.value("--cache-dir").unwrap_or(DEFAULT_CACHE_DIR)),
            fast_forward: !args.has("--no-fast-forward"),
        })
    }
}

// ---- runs and cells -----------------------------------------------------

/// One simulation: a kernel, at the sweep's scale, on one model of one
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Paper kernel name, e.g. `"mcf-like"`.
    pub kernel: &'static str,
    /// The model simulated.
    pub model: ModelKind,
    /// The machine it runs on.
    pub config: MachineConfig,
}

/// Reports of the runs simulated or loaded so far, by [`run_key`]. The
/// sweeps that share one store simulate each distinct run once.
#[derive(Debug, Default)]
pub struct RunStore {
    reports: HashMap<String, SimReport>,
}

/// One row of an experiment: the runs it reads and the pure function
/// that turns their reports into the row.
pub struct Cell<R> {
    /// Kernel (workload) name, e.g. `"mcf-like"` — `--filter` target.
    pub kernel: String,
    /// The distinct models of its runs joined by `+`, e.g. `"base+2P"`
    /// — `--filter` target.
    pub model: String,
    /// The runs the row reads.
    pub runs: Vec<Run>,
    /// Builds the row from the reports of `runs`, in their order.
    #[allow(clippy::type_complexity)]
    pub row: Box<dyn Fn(&[&SimReport]) -> R>,
}

impl<R> Cell<R> {
    /// A cell reading `runs` (all of one kernel), labelled by its
    /// kernel and models.
    pub fn new(runs: Vec<Run>, row: impl Fn(&[&SimReport]) -> R + 'static) -> Self {
        let mut models: Vec<String> = Vec::new();
        for m in runs.iter().map(|r| r.model.to_string()) {
            if !models.contains(&m) {
                models.push(m);
            }
        }
        Cell {
            kernel: runs.first().map_or("", |r| r.kernel).to_string(),
            model: models.join("+"),
            runs,
            row: Box::new(row),
        }
    }
}

/// One cell's result, in grid order.
#[derive(Debug)]
pub struct CellResult<R> {
    /// Kernel name (echoed from the cell).
    pub kernel: String,
    /// Model label (echoed from the cell).
    pub model: String,
    /// The row, or the panic message of a run the cell reads.
    pub outcome: Result<R, String>,
}

/// Sweep bookkeeping, printed to stderr by [`run_sweep`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells in the grid before filtering.
    pub grid: usize,
    /// Cells dropped by `--filter`.
    pub filtered_out: usize,
    /// Distinct runs the kept cells read.
    pub runs: usize,
    /// Runs simulated by this sweep.
    pub computed: usize,
    /// Runs loaded from the disk cache.
    pub cached: usize,
    /// Runs whose simulation panicked.
    pub failed: usize,
    /// Wall-clock time of the whole sweep, in milliseconds.
    pub wall_ms: u64,
}

impl SweepStats {
    /// Runs this sweep did not have to simulate: loaded from the disk
    /// cache or already in the [`RunStore`].
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.runs - self.cache_misses()
    }

    /// Runs this sweep simulated (successfully or not).
    #[must_use]
    pub fn cache_misses(&self) -> usize {
        self.computed + self.failed
    }
}

/// The outcome of one sweep: per-cell results in grid order plus stats.
#[derive(Debug)]
pub struct SweepRun<R> {
    /// Per-cell results, in the same order the grid listed them.
    pub cells: Vec<CellResult<R>>,
    /// Bookkeeping counters.
    pub stats: SweepStats,
}

impl<R> SweepRun<R> {
    /// The successful rows, in grid order (failed cells are skipped).
    #[must_use]
    pub fn into_rows(self) -> Vec<R> {
        self.cells.into_iter().filter_map(|c| c.outcome.ok()).collect()
    }
}

// ---- engine -------------------------------------------------------------

/// Builds the rows of `cells`, simulating each distinct run they read
/// that neither `store` nor the disk cache holds, across `opts.jobs`
/// worker threads. See the module docs for the guarantees.
pub fn run_sweep<R>(
    experiment: &str,
    opts: &SweepOpts,
    store: &mut RunStore,
    cells: Vec<Cell<R>>,
) -> SweepRun<R> {
    let started = Instant::now();
    let mut stats = SweepStats { grid: cells.len(), ..SweepStats::default() };
    let kept = |c: &Cell<R>| {
        opts.filter.as_deref().is_none_or(|p| glob_match(p, &c.kernel) || glob_match(p, &c.model))
    };
    let cells: Vec<Cell<R>> = cells.into_iter().filter(kept).collect();
    stats.filtered_out = stats.grid - cells.len();

    // Each distinct run once; `reads[c]` indexes cell c's runs in `keys`.
    let workloads = paper_benchmarks(opts.scale);
    let budget = |kernel: &str| workloads.iter().find(|w| w.name == kernel).map_or(0, |w| w.budget);
    let (mut keys, mut runs): (Vec<String>, Vec<&Run>) = (Vec::new(), Vec::new());
    let mut reads: Vec<Vec<usize>> = Vec::with_capacity(cells.len());
    for cell in &cells {
        let mut read = Vec::with_capacity(cell.runs.len());
        for run in &cell.runs {
            let key = run_key(run, opts.scale, budget(run.kernel));
            read.push(keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                runs.push(run);
                keys.len() - 1
            }));
        }
        reads.push(read);
    }
    stats.runs = keys.len();

    // What the store lacks comes from the disk cache, else the pool.
    let cache = Warehouse::open(&opts.cache_dir);
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        if store.reports.contains_key(key) {
            continue;
        }
        let hit = opts.cache.then(|| cache.get(key).ok()).flatten();
        match hit.and_then(|rec| SimReport::from_value(&rec.payload).ok()) {
            Some(report) => {
                stats.cached += 1;
                store.reports.insert(key.clone(), report);
            }
            None => pending.push(i),
        }
    }

    // Workers pull the next pending run off a shared index — dynamic
    // load balancing without per-thread queues — into its own slot.
    let slots: Vec<OnceLock<Result<SimReport, String>>> =
        pending.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let progress = Progress::new(experiment, pending.len(), keys.len(), started);
    std::thread::scope(|s| {
        for _ in 0..opts.jobs.min(pending.len()) {
            s.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(slot) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| simulate(runs[i], &workloads)));
                let _ = slots[slot].set(out.map_err(|p| panic_message(&*p)));
                progress.tick();
            });
        }
    });
    progress.finish();
    let mut failures: Vec<Option<String>> = vec![None; keys.len()];
    for (slot, &i) in slots.into_iter().zip(&pending) {
        match slot.into_inner().expect("the pool drained every pending run") {
            Ok(report) => {
                stats.computed += 1;
                if opts.cache {
                    // Best-effort: an unwritable cache only costs a re-run.
                    let axes = run_axes(runs[i], opts.scale, budget(runs[i].kernel));
                    let _ = cache.put(&record(KIND_RUN, &axes, report.to_value()));
                }
                store.reports.insert(keys[i].clone(), report);
            }
            Err(msg) => {
                stats.failed += 1;
                failures[i] = Some(msg);
            }
        }
    }

    let mut results = Vec::with_capacity(cells.len());
    for (cell, read) in cells.into_iter().zip(reads) {
        let reports: Result<Vec<&SimReport>, String> = read
            .iter()
            .map(|&i| {
                store
                    .reports
                    .get(&keys[i])
                    .ok_or_else(|| failures[i].clone().expect("a run without a report failed"))
            })
            .collect();
        let outcome = reports.map(|reports| (cell.row)(&reports));
        if let Err(msg) = &outcome {
            eprintln!("sweep {experiment}: cell {}/{} FAILED: {msg}", cell.kernel, cell.model);
        }
        results.push(CellResult { kernel: cell.kernel, model: cell.model, outcome });
    }

    stats.wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    // Persist the invocation summary into the run warehouse next to
    // the cache directory (the dashboard's hit-rate history).
    // Best-effort: a read-only checkout must not fail the sweep.
    let entry = SweepLogEntry {
        experiment: experiment.to_string(),
        date: crate::selfprof::today_utc(),
        scale: opts.scale.label().to_string(),
        code: CODE_VERSION.to_string(),
        jobs: opts.jobs as u64,
        runs: stats.runs as u64,
        computed: stats.computed as u64,
        cached: stats.cached as u64,
        failed: stats.failed as u64,
        wall_ms: stats.wall_ms,
    };
    let _ = Warehouse::open(runs_dir_for(&opts.cache_dir)).append_sweep_log(&entry);
    let cells_kept = stats.grid - stats.filtered_out;
    if opts.json {
        // Machine-readable bookkeeping. Stays on stderr: `--json` row
        // output owns stdout and must remain byte-identical run to run.
        let summary = Value::Object(vec![
            ("sweep".to_string(), Value::Str(experiment.to_string())),
            ("cells".to_string(), Value::UInt(cells_kept as u64)),
            ("filtered_out".to_string(), Value::UInt(stats.filtered_out as u64)),
            ("runs".to_string(), Value::UInt(stats.runs as u64)),
            ("computed".to_string(), Value::UInt(stats.computed as u64)),
            ("failed".to_string(), Value::UInt(stats.failed as u64)),
            ("cache_hits".to_string(), Value::UInt(stats.cache_hits() as u64)),
            ("cache_misses".to_string(), Value::UInt(stats.cache_misses() as u64)),
            ("wall_ms".to_string(), Value::UInt(stats.wall_ms)),
        ]);
        if let Ok(line) = serde_json::to_string(&summary) {
            eprintln!("{line}");
        }
    } else {
        eprintln!(
            "sweep {experiment}: {cells_kept} cells ({} filtered out) reading {} runs — {} \
             computed, {} cached, {} failed in {} ms [jobs={}, scale={}{}]",
            stats.filtered_out,
            stats.runs,
            stats.computed,
            stats.cached,
            stats.failed,
            stats.wall_ms,
            opts.jobs,
            opts.scale.label(),
            if opts.cache { "" } else { ", cache off" },
        );
    }
    SweepRun { cells: results, stats }
}

/// Simulates one run on its kernel, looked up among `workloads`.
fn simulate(run: &Run, workloads: &[Workload]) -> SimReport {
    let w = workloads.iter().find(|w| w.name == run.kernel);
    let w = w.unwrap_or_else(|| panic!("unknown kernel `{}`", run.kernel));
    ff_core::run_model(run.model, &w.program, w.memory.clone(), run.config.clone(), w.budget, None)
        .0
}

/// Live progress line of the simulations, written to stderr only when stderr
/// is a terminal (CI logs stay clean; stdout is never touched).
struct Progress {
    label: String,
    /// Runs that must be simulated.
    total: usize,
    /// Runs already in the store or loaded from the cache.
    hits: usize,
    done: AtomicUsize,
    started: Instant,
    live: bool,
    last_draw: Mutex<Option<Instant>>,
}

impl Progress {
    fn new(experiment: &str, total: usize, runs: usize, started: Instant) -> Progress {
        Progress {
            label: experiment.to_string(),
            total,
            hits: runs.saturating_sub(total),
            done: AtomicUsize::new(0),
            started,
            live: std::io::stderr().is_terminal(),
            last_draw: Mutex::new(None),
        }
    }

    /// Records one finished run and redraws (throttled to ~10 Hz).
    fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.live {
            return;
        }
        let now = Instant::now();
        let mut last = self.last_draw.lock().unwrap();
        if done < self.total {
            if let Some(prev) = *last {
                if now.duration_since(prev).as_millis() < 100 {
                    return;
                }
            }
        }
        *last = Some(now);
        let elapsed = self.started.elapsed().as_secs_f64();
        eprint!("\r\x1b[2K{}", progress_line(&self.label, done, self.total, self.hits, elapsed));
    }

    /// Clears the progress line so the final summary starts clean.
    fn finish(&self) {
        if self.live && self.last_draw.lock().unwrap().is_some() {
            eprint!("\r\x1b[2K");
        }
    }
}

/// Formats the live progress line. Pure, so the edge cases are unit
/// testable: `done == 0` or `elapsed == 0` must not divide by zero,
/// `done > total` (a bookkeeping race) must not underflow, and an
/// all-cache-hit sweep (`total == 0`, e.g. finishing inside one
/// throttle interval) must not print `inf`/`NaN` anywhere.
#[must_use]
fn progress_line(label: &str, done: usize, total: usize, hits: usize, elapsed: f64) -> String {
    let elapsed = if elapsed.is_finite() { elapsed.max(0.0) } else { 0.0 };
    let remaining = total.saturating_sub(done);
    let eta = if done > 0 { elapsed / done as f64 * remaining as f64 } else { 0.0 };
    let eta = if eta.is_finite() { eta } else { 0.0 };
    let kept = total.saturating_add(hits);
    let hit_pct = if kept > 0 { 100.0 * hits as f64 / kept as f64 } else { 0.0 };
    format!(
        "sweep {label}: {done}/{total} runs  elapsed {elapsed:.1}s  eta {eta:.1}s  \
         cache {hit_pct:.0}% hit"
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- cache --------------------------------------------------------------

/// The axes of a run's cache record, in key order.
fn run_axes(run: &Run, scale: Scale, budget: u64) -> [(&'static str, String); 6] {
    let config = MachineConfig { fast_forward: true, ..run.config.clone() };
    [
        ("kernel", run.kernel.to_string()),
        ("scale", scale.label().to_string()),
        ("budget", budget.to_string()),
        ("model", run.model.to_string()),
        ("config", serde_json::to_string(&config.to_value()).expect("a serializable machine")),
        ("code", CODE_VERSION.to_string()),
    ]
}

/// The warehouse key of a run's cached report, at `scale` with its
/// kernel's instruction `budget`.
#[must_use]
pub fn run_key(run: &Run, scale: Scale, budget: u64) -> String {
    record_key(KIND_RUN, &run_axes(run, scale, budget))
}

// ---- filtering ----------------------------------------------------------

/// Case-sensitive glob match supporting `*` (any run) and `?` (any one
/// character).
#[must_use]
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (None, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match("mcf-like", "mcf-like"));
        assert!(glob_match("mcf*", "mcf-like"));
        assert!(glob_match("*like", "mcf-like"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("2P", "2P"));
        assert!(glob_match("?P", "2P"));
        assert!(!glob_match("2P", "2Pre"));
        assert!(glob_match("2P*", "2Pre"));
        assert!(!glob_match("mcf", "mcf-like"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
    }

    #[test]
    fn opts_parse_flags() {
        let opts = SweepOpts::parse(
            ["tiny", "--jobs", "3", "--filter", "mcf*", "--no-cache", "--json"].map(String::from),
        )
        .unwrap();
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!(opts.jobs, 3);
        assert_eq!(opts.filter.as_deref(), Some("mcf*"));
        assert!(!opts.cache);
        assert!(opts.json);
        assert!(opts.fast_forward, "fast-forward is on unless asked off");
    }

    #[test]
    fn opts_parse_no_fast_forward() {
        let opts = SweepOpts::parse(["--no-fast-forward"].map(String::from)).unwrap();
        assert!(!opts.fast_forward);
    }

    #[test]
    fn progress_line_survives_every_degenerate_input() {
        // Normal case: half done in 2s → 2s eta.
        let line = progress_line("fig6", 5, 10, 10, 2.0);
        assert!(line.contains("5/10"), "{line}");
        assert!(line.contains("eta 2.0s"), "{line}");
        assert!(line.contains("cache 50% hit"), "{line}");
        // No divisions blow up and nothing prints inf/NaN.
        for (done, total, hits, elapsed) in [
            (0usize, 0usize, 0usize, 0.0f64),
            (0, 10, 0, 0.0),
            (1, 0, 0, 0.0),  // done > total: bookkeeping race
            (3, 2, 0, 1.0),  // ditto
            (0, 0, 7, 0.05), // all-cache-hit, sub-throttle finish
            (1, 1, 0, f64::INFINITY),
            (1, 1, 0, f64::NAN),
            (usize::MAX, usize::MAX, usize::MAX, 1e300),
        ] {
            let line = progress_line("x", done, total, hits, elapsed);
            assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        }
        // All-cache-hit reports 100%.
        let line = progress_line("x", 0, 0, 7, 0.05);
        assert!(line.contains("cache 100% hit"), "{line}");
    }

    #[test]
    fn opts_parse_equals_and_scale_flag() {
        let opts =
            SweepOpts::parse(["--scale=ref", "--jobs=max", "--cache-dir=/tmp/c"].map(String::from))
                .unwrap();
        assert_eq!(opts.scale, Scale::Reference);
        assert_eq!(opts.jobs, default_jobs());
        assert_eq!(opts.cache_dir, PathBuf::from("/tmp/c"));
    }

    #[test]
    fn opts_reject_bad_jobs() {
        assert!(SweepOpts::parse(["--jobs", "0"].map(String::from)).is_err());
        assert!(SweepOpts::parse(["--jobs", "many"].map(String::from)).is_err());
        assert!(SweepOpts::parse(["--scale", "huge"].map(String::from)).is_err());
    }

    #[test]
    fn opts_reject_unknown_arguments() {
        let err = SweepOpts::parse(["tiny", "--no-cahce"].map(String::from)).unwrap_err();
        assert!(err.contains("--no-cahce"), "{err}");
        assert!(SweepOpts::parse(["huge"].map(String::from)).is_err());
    }

    /// Every copy of `v` with one number or boolean changed, named by
    /// the path to it.
    fn perturbed(v: &Value) -> Vec<(String, Value)> {
        let each = |items: Vec<(String, Value)>, rebuild: &dyn Fn(Vec<Value>) -> Value| {
            let mut out = Vec::new();
            for (i, (name, item)) in items.iter().enumerate() {
                for (path, changed) in perturbed(item) {
                    let mut values: Vec<Value> = items.iter().map(|(_, v)| v.clone()).collect();
                    values[i] = changed;
                    out.push((format!("{name}.{path}"), rebuild(values)));
                }
            }
            out
        };
        match v {
            Value::Bool(b) => vec![(String::new(), Value::Bool(!b))],
            Value::UInt(n) => vec![(String::new(), Value::UInt(n + 1))],
            Value::Int(n) => vec![(String::new(), Value::Int(n - 1))],
            Value::Float(x) => vec![(String::new(), Value::Float(x + 0.25))],
            Value::Null | Value::Str(_) => Vec::new(),
            Value::Array(items) => {
                let items = items.iter().enumerate().map(|(i, v)| (i.to_string(), v.clone()));
                each(items.collect(), &Value::Array)
            }
            Value::Object(fields) => {
                let names: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
                each(fields.clone(), &|values| {
                    Value::Object(names.iter().cloned().zip(values).collect())
                })
            }
        }
    }

    #[test]
    fn run_key_changes_with_every_leaf_of_the_machine_but_fast_forward() {
        let table1 = MachineConfig::paper_table1();
        let run = |config| Run { kernel: "mcf-like", model: ModelKind::TwoPass, config };
        let key = |config| run_key(&run(config), Scale::Tiny, 1024);
        let base = key(table1.clone());
        let variants = perturbed(&table1.to_value());
        assert_eq!(variants.len(), 35, "numeric and boolean leaves of the Table-1 machine");
        for (path, value) in variants {
            let config =
                MachineConfig::from_value(&value).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_ne!(config, table1, "{path} did not round-trip");
            let moved = key(config) != base;
            assert_eq!(moved, path != "fast_forward.", "{path}");
        }
        // The leaves a number cannot reach: an enum tag and an absent option.
        let alat = ff_mem::AlatConfig::Finite { entries: 32 };
        let throttle =
            ff_core::ThrottleConfig { window: 1, defer_threshold: 1.0, resume_occupancy: 1 };
        let mut other = table1.clone();
        other.two_pass.alat = alat;
        assert_ne!(key(other), base);
        let mut other = table1.clone();
        other.two_pass.throttle = Some(throttle);
        assert_ne!(key(other), base);
    }

    #[test]
    fn run_key_distinguishes_every_other_axis() {
        let run = |kernel, model| Run { kernel, model, config: MachineConfig::paper_table1() };
        let keys = [
            run_key(&run("mcf-like", ModelKind::TwoPass), Scale::Tiny, 1024),
            run_key(&run("gap-like", ModelKind::TwoPass), Scale::Tiny, 1024),
            run_key(&run("mcf-like", ModelKind::TwoPassRegroup), Scale::Tiny, 1024),
            run_key(&run("mcf-like", ModelKind::TwoPass), Scale::Test, 1024),
            run_key(&run("mcf-like", ModelKind::TwoPass), Scale::Tiny, 1025),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert!(keys[0].ends_with(&format!(";code={CODE_VERSION}")), "{}", keys[0]);
    }
}
