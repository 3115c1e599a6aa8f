//! Parallel, cached experiment sweep engine.
//!
//! An experiment is a grid of [`Cell`]s — one (kernel, model, params)
//! triple each — that the engine fans out across worker threads
//! ([`std::thread::scope`], dynamic load balancing via a shared work
//! index), with:
//!
//! * **deterministic result ordering** — results are collected by cell
//!   index, so the output is byte-identical whatever `--jobs` is or how
//!   the scheduler interleaves workers;
//! * **per-cell panic isolation** — a diverging or asserting simulation
//!   marks its own cell failed ([`CellResult::outcome`]) instead of
//!   killing the whole sweep;
//! * **a result cache** — every computed cell is stored as a
//!   [`KIND_CELL`] warehouse record under `results/cache/`, keyed by
//!   (experiment, kernel, model, params, scale, code version), so
//!   unchanged cells are loaded instead of re-simulated.
//!
//! Every experiment in [`crate::experiments::REGISTRY`] shares one CLI,
//! parsed by [`SweepOpts`]: `ff_exp <name>` followed by [`COMMAND`]'s
//! arguments.

use std::io::IsTerminal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::cli::Command;
use crate::report::warehouse::{
    record, record_key, runs_dir_for, SweepLogEntry, Warehouse, KIND_CELL,
};
use ff_workloads::Scale;
use serde::{Deserialize, Serialize, Value};

/// Cache schema / simulator-semantics version. Part of every cache key:
/// bump it whenever a change anywhere in the simulator (or in a row
/// type) can alter cell results, and every previously cached cell is
/// invalidated at once.
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

// ---- cells --------------------------------------------------------------

/// One unit of sweep work: a (kernel, model, params) grid point and the
/// closure that simulates it.
pub struct Cell<R> {
    /// Kernel (workload) name, e.g. `"mcf-like"` — `--filter` target.
    pub kernel: String,
    /// Model or policy label, e.g. `"2P"` — `--filter` target.
    pub model: String,
    /// Extra configuration key material, e.g. `"latency=4"` (empty when
    /// the experiment has no extra axis).
    pub params: String,
    /// Computes the cell's row. Must be deterministic: the cache
    /// replays results across processes.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn() -> R + Send + Sync>,
}

impl<R> Cell<R> {
    /// A new cell; `params` may be empty.
    pub fn new(
        kernel: impl Into<String>,
        model: impl Into<String>,
        params: impl Into<String>,
        run: impl Fn() -> R + Send + Sync + 'static,
    ) -> Self {
        Cell {
            kernel: kernel.into(),
            model: model.into(),
            params: params.into(),
            run: Box::new(run),
        }
    }
}

impl<R> std::fmt::Debug for Cell<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("kernel", &self.kernel)
            .field("model", &self.model)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// Where a successful cell's row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Simulated in this run.
    Computed,
    /// Loaded from the result cache.
    Cached,
}

/// One cell's result, in grid order.
#[derive(Debug)]
pub struct CellResult<R> {
    /// Kernel name (echoed from the cell).
    pub kernel: String,
    /// Model label (echoed from the cell).
    pub model: String,
    /// Params (echoed from the cell).
    pub params: String,
    /// The row, or the panic message of a failed cell.
    pub outcome: Result<(R, CellSource), String>,
}

/// Sweep bookkeeping, printed to stderr by [`run_sweep`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells in the grid before filtering.
    pub grid: usize,
    /// Cells dropped by `--filter`.
    pub filtered_out: usize,
    /// Cells simulated this run.
    pub computed: usize,
    /// Cells loaded from the cache.
    pub cached: usize,
    /// Cells whose simulation panicked.
    pub failed: usize,
    /// Wall-clock time of the whole sweep, in milliseconds.
    pub wall_ms: u64,
}

impl SweepStats {
    /// Cells satisfied from the result cache (alias of `cached`, named
    /// to match the `--json` summary counter).
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cached
    }

    /// Cells the cache could not satisfy (simulated or failed).
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
        self.cells.into_iter().filter_map(|c| c.outcome.ok().map(|(row, _)| row)).collect()
    }
}

// ---- engine -------------------------------------------------------------

/// Runs `cells` across `opts.jobs` worker threads, consulting the
/// result cache first. See the module docs for the guarantees.
pub fn run_sweep<R>(experiment: &str, opts: &SweepOpts, cells: Vec<Cell<R>>) -> SweepRun<R>
where
    R: Serialize + Deserialize + Send,
{
    let started = Instant::now();
    let mut stats = SweepStats { grid: cells.len(), ..SweepStats::default() };
    let cells: Vec<Cell<R>> = match &opts.filter {
        Some(pat) => {
            let kept: Vec<Cell<R>> = cells
                .into_iter()
                .filter(|c| glob_match(pat, &c.kernel) || glob_match(pat, &c.model))
                .collect();
            stats.filtered_out = stats.grid - kept.len();
            kept
        }
        None => cells,
    };

    // Phase 1: satisfy what we can from the cache (serial: pure I/O).
    let cache = Warehouse::open(&opts.cache_dir);
    let mut slots: Vec<Option<Result<(R, CellSource), String>>> = Vec::new();
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let hit = if opts.cache {
            let key = cache_key(experiment, cell, opts.scale);
            cache.get(&key).ok().and_then(|rec| R::from_value(&rec.payload).ok())
        } else {
            None
        };
        match hit {
            Some(row) => slots.push(Some(Ok((row, CellSource::Cached)))),
            None => {
                slots.push(None);
                pending.push(i);
            }
        }
    }

    // Phase 2: fan the remaining cells out over the worker pool. Workers
    // pull the next un-run cell off a shared index — dynamic load
    // balancing without any per-thread queues — and write into their
    // cell's slot, so result order never depends on scheduling.
    if !pending.is_empty() {
        let computed: Vec<Mutex<Option<Result<R, String>>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = opts.jobs.min(pending.len()).max(1);
        let progress = Progress::new(experiment, pending.len(), slots.len(), started);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&cell_idx) = pending.get(slot) else { break };
                    let cell = &cells[cell_idx];
                    let out = catch_unwind(AssertUnwindSafe(|| (cell.run)()));
                    *computed[slot].lock().unwrap() = Some(out.map_err(|p| panic_message(&*p)));
                    progress.tick();
                });
            }
        });
        progress.finish();
        for (slot, &cell_idx) in pending.iter().enumerate() {
            let result = computed[slot]
                .lock()
                .unwrap()
                .take()
                .expect("worker pool drained every pending cell");
            if let Ok(row) = &result {
                if opts.cache {
                    // Best-effort: an unwritable cache only costs a re-run.
                    let axes = cell_axes(experiment, &cells[cell_idx], opts.scale);
                    let _ = cache.put(&record(KIND_CELL, &axes, row.to_value()));
                }
            }
            slots[cell_idx] = Some(result.map(|row| (row, CellSource::Computed)));
        }
    }

    let mut results = Vec::with_capacity(cells.len());
    for (cell, slot) in cells.into_iter().zip(slots) {
        let outcome = slot.expect("every kept cell resolved");
        match &outcome {
            Ok((_, CellSource::Cached)) => stats.cached += 1,
            Ok((_, CellSource::Computed)) => stats.computed += 1,
            Err(msg) => {
                stats.failed += 1;
                eprintln!(
                    "sweep {experiment}: cell {}/{}{}{} FAILED: {msg}",
                    cell.kernel,
                    cell.model,
                    if cell.params.is_empty() { "" } else { "/" },
                    cell.params
                );
            }
        }
        results.push(CellResult {
            kernel: cell.kernel,
            model: cell.model,
            params: cell.params,
            outcome,
        });
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
        cells: (stats.grid - stats.filtered_out) as u64,
        computed: stats.computed as u64,
        cached: stats.cached as u64,
        failed: stats.failed as u64,
        wall_ms: stats.wall_ms,
    };
    let _ = Warehouse::open(runs_dir_for(&opts.cache_dir)).append_sweep_log(&entry);
    if opts.json {
        // Machine-readable bookkeeping. Stays on stderr: `--json` row
        // output owns stdout and must remain byte-identical run to run.
        let summary = Value::Object(vec![
            ("sweep".to_string(), Value::Str(experiment.to_string())),
            ("cells".to_string(), Value::UInt((stats.grid - stats.filtered_out) as u64)),
            ("filtered_out".to_string(), Value::UInt(stats.filtered_out as u64)),
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
            "sweep {experiment}: {} cells ({} filtered out) — {} computed, {} cached, {} failed \
             in {} ms [jobs={}, scale={}{}]",
            stats.grid - stats.filtered_out,
            stats.filtered_out,
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

/// Live progress line for phase 2, written to stderr only when stderr
/// is a terminal (CI logs stay clean; stdout is never touched).
struct Progress {
    label: String,
    /// Cells that must be simulated this run.
    total: usize,
    /// Cells already satisfied from the cache before phase 2 started.
    hits: usize,
    done: AtomicUsize,
    started: Instant,
    live: bool,
    last_draw: Mutex<Option<Instant>>,
}

impl Progress {
    fn new(experiment: &str, total: usize, kept: usize, started: Instant) -> Progress {
        Progress {
            label: experiment.to_string(),
            total,
            hits: kept.saturating_sub(total),
            done: AtomicUsize::new(0),
            started,
            live: std::io::stderr().is_terminal(),
            last_draw: Mutex::new(None),
        }
    }

    /// Records one finished cell and redraws (throttled to ~10 Hz).
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
        "sweep {label}: {done}/{total} cells  elapsed {elapsed:.1}s  eta {eta:.1}s  \
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

fn cell_axes<'a, R>(
    experiment: &'a str,
    cell: &'a Cell<R>,
    scale: Scale,
) -> [(&'a str, &'a str); 6] {
    [
        ("experiment", experiment),
        ("kernel", &cell.kernel),
        ("model", &cell.model),
        ("params", &cell.params),
        ("scale", scale.label()),
        ("code", CODE_VERSION),
    ]
}

/// The warehouse key of one cell's cached row.
#[must_use]
pub fn cache_key<R>(experiment: &str, cell: &Cell<R>, scale: Scale) -> String {
    record_key(KIND_CELL, &cell_axes(experiment, cell, scale))
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

    #[test]
    fn cache_key_distinguishes_every_axis() {
        let cell = |k: &str, m: &str, p: &str| Cell::new(k, m, p, || 0u64);
        let keys = [
            cache_key("e1", &cell("k", "m", "p"), Scale::Tiny),
            cache_key("e2", &cell("k", "m", "p"), Scale::Tiny),
            cache_key("e1", &cell("k2", "m", "p"), Scale::Tiny),
            cache_key("e1", &cell("k", "m2", "p"), Scale::Tiny),
            cache_key("e1", &cell("k", "m", "p2"), Scale::Tiny),
            cache_key("e1", &cell("k", "m", "p"), Scale::Test),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
