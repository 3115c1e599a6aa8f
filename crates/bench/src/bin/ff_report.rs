//! ff_report — the cross-run results warehouse CLI: capture golden
//! reports, diff runs for CPI regressions, extract Pareto frontiers
//! from stored sweeps, build the static HTML dashboard, and check the
//! committed `results/*.txt` outputs for drift.
//!
//! ```text
//! ff_exp fig6 test        # a full cached sweep stores its rows itself
//! ff_report pareto ablate_queue --cost size
//! ff_report capture --bench mcf-like --model 2P --scale test
//! ff_report html --out results/dashboard.html
//! ff_report diff 'golden;kernel=...;code=3' 'golden;kernel=...;code=3'
//! ```

use ff_bench::experiments::REGISTRY;
use ff_bench::fmt;
use ff_bench::report::{
    diff_reports, golden_record, mark_frontier, perf_record, render_dashboard, sweep_points,
    DashboardData, Warehouse, DEFAULT_RUNS_DIR, KIND_GOLDEN, KIND_PERF,
};
use ff_bench::selfprof::PerfSnapshot;
use ff_bench::sweep::SweepOpts;
use ff_core::{MachineConfig, ModelKind, StallCause};
use ff_workloads::Scale;
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ff_report <command> [options]

commands:
  capture                simulate one config and store its golden SimReport
                         --bench NAME --model base|2P|2Pre|runahead
                         [--scale S] [--degrade CAUSE=FACTOR] [--dir DIR]
  ingest-perf [PERFDIR]  store every perf/BENCH_*.json snapshot [--dir DIR]
  list                   list warehouse records [--dir DIR]
  diff KEY_A KEY_B       per-cause CPI regression diff of two golden runs;
                         exits 2 on regression [--threshold F] [--dir DIR]
  pareto EXP --cost F    Pareto frontier (perf vs. structure cost) over a
                         stored sweep grid [--scale S] [--dir DIR] [--json]
  html                   build the static dashboard [--out FILE] [--dir DIR]
                         [--perf-dir PERFDIR] [--generated-at TEXT]
  drift                  regenerate the checked-in results/*.txt at test
                         scale and fail on any diff [--results-dir DIR]
                         [--scale S] [--bless] [--use-cache]

the warehouse directory defaults to results/runs; `ff_exp <name>` stores
each complete cached sweep there";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take a value.
const VALUE_FLAGS: [&str; 11] = [
    "--scale",
    "--dir",
    "--bench",
    "--model",
    "--degrade",
    "--threshold",
    "--cost",
    "--out",
    "--perf-dir",
    "--generated-at",
    "--results-dir",
];

/// Flags that take no value; any flag in neither list is a usage error.
const BOOL_FLAGS: [&str; 3] = ["--json", "--bless", "--use-cache"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = raw.peekable();
        while let Some(a) = it.next() {
            if let Some(flag) = a.strip_prefix("--").map(|_| a.clone()) {
                let (name, inline) = match flag.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => (flag, None),
                };
                if VALUE_FLAGS.contains(&name.as_str()) {
                    let value = match inline {
                        Some(v) => v,
                        None => it.next().ok_or_else(|| format!("{name} requires a value"))?,
                    };
                    args.flags.push((name, Some(value)));
                } else if BOOL_FLAGS.contains(&name.as_str()) {
                    args.flags.push((name, inline));
                } else {
                    return Err(format!("unknown flag `{name}`"));
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.opt("--scale") {
            None => Ok(Scale::Test),
            Some(v) => Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`")),
        }
    }

    fn warehouse(&self) -> Warehouse {
        Warehouse::open(self.opt("--dir").unwrap_or(DEFAULT_RUNS_DIR))
    }
}

/// Multiplies one stall cause's charged cycles by `factor` — a
/// synthetic regression for exercising the diff gate in CI and tests.
/// The class breakdown and total cycles move by the same amount, so
/// the two-level sum invariants keep holding.
fn degrade(report: &mut ff_core::SimReport, spec: &str) -> Result<String, String> {
    let (label, factor) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad --degrade `{spec}` (want CAUSE=FACTOR)"))?;
    let cause =
        StallCause::from_label(label).ok_or_else(|| format!("unknown stall cause `{label}`"))?;
    let factor: f64 = factor.parse().map_err(|e| format!("bad --degrade factor: {e}"))?;
    if factor.is_nan() || factor < 1.0 {
        return Err(format!("--degrade factor must be >= 1.0, got {factor}"));
    }
    let old = report.breakdown2[cause];
    let added = (old as f64 * (factor - 1.0)).round() as u64;
    report.breakdown2.charge_n(cause, added);
    report.breakdown.charge_n(cause.class(), added);
    report.cycles += added;
    report.collect_metrics();
    Ok(format!("degrade={label}x{factor}"))
}

fn cmd_capture(args: &Args) -> Result<ExitCode, String> {
    let bench = args.opt("--bench").ok_or("capture needs --bench NAME")?;
    let model: ModelKind = args.opt("--model").ok_or("capture needs --model NAME")?.parse()?;
    let scale = args.scale()?;
    let w = ff_workloads::benchmark_by_name(bench, scale)
        .ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let cfg = MachineConfig::paper_table1();
    let (mut report, _, _) =
        ff_core::run_model(model, &w.program, w.memory.clone(), cfg, w.budget, None);
    let params = match args.opt("--degrade") {
        Some(spec) => degrade(&mut report, spec)?,
        None => String::new(),
    };
    let rec = golden_record(bench, &model.to_string(), &params, scale.label(), &report);
    let path = args.warehouse().put(&rec)?;
    println!(
        "stored {} (cycles={} retired={} cpi={:.3}, hash {}) at {}",
        rec.key,
        report.cycles,
        report.retired,
        report.cpi(),
        rec.content_hash,
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn perf_snapshots_in(dir: &Path) -> Vec<(String, Value)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<(String, Value)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            let stem = path.file_stem()?.to_str()?.to_string();
            if !stem.starts_with("BENCH_") || path.extension().is_none_or(|x| x != "json") {
                return None;
            }
            let text = std::fs::read_to_string(&path).ok()?;
            Some((stem, serde_json::from_str(&text).ok()?))
        })
        .collect();
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

fn cmd_ingest_perf(args: &Args) -> Result<ExitCode, String> {
    let dir = args.positional.first().map_or("perf", String::as_str);
    let snapshots = perf_snapshots_in(Path::new(dir));
    if snapshots.is_empty() {
        return Err(format!("no BENCH_*.json snapshots in {dir}"));
    }
    let wh = args.warehouse();
    for (stem, value) in &snapshots {
        let rec = perf_record(stem, value.clone());
        wh.put(&rec)?;
        println!("stored {} (hash {})", rec.key, rec.content_hash);
    }
    println!("{} snapshots ingested", snapshots.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &Args) -> Result<ExitCode, String> {
    let records = args.warehouse().list()?;
    if records.is_empty() {
        println!("(empty warehouse)");
        return Ok(ExitCode::SUCCESS);
    }
    print!("{}", fmt::header(&[("kind", 6), ("hash", 16), ("key", 48)]));
    for rec in &records {
        println!("{:>6}  {:>16}  {}", rec.kind, rec.content_hash, rec.key);
    }
    Ok(ExitCode::SUCCESS)
}

fn golden_report(wh: &Warehouse, key: &str) -> Result<ff_core::SimReport, String> {
    let rec = wh.get(key)?;
    if rec.kind != KIND_GOLDEN {
        return Err(format!("`{key}` is a {} record, not a golden report", rec.kind));
    }
    ff_core::SimReport::from_value(&rec.payload).map_err(|e| format!("parse `{key}`: {e}"))
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [key_a, key_b] = args.positional.as_slice() else {
        return Err("diff needs KEY_A and KEY_B (see `ff_report list`)".to_string());
    };
    let threshold: f64 = match args.opt("--threshold") {
        Some(v) => v.parse().map_err(|e| format!("bad --threshold: {e}"))?,
        None => 0.05,
    };
    let wh = args.warehouse();
    let a = golden_report(&wh, key_a)?;
    let b = golden_report(&wh, key_b)?;
    let diff = diff_reports(&a, &b, threshold);
    println!("A: {key_a}");
    println!("B: {key_b}");
    println!();
    let head = fmt::header(&[("cause", 18), ("cpi A", 9), ("cpi B", 9), ("delta", 9), ("rel", 8)]);
    print!("{head}");
    let rows = diff.causes.iter().chain(std::iter::once(&diff.total));
    for row in rows {
        if row.cpi_a == 0.0 && row.cpi_b == 0.0 {
            continue;
        }
        let rel = if row.rel.is_infinite() { "new".to_string() } else { fmt::pct(row.rel) };
        println!(
            "{:>18}  {:>9.4}  {:>9.4}  {:>+9.4}  {:>8}{}",
            row.cause,
            row.cpi_a,
            row.cpi_b,
            row.delta,
            rel,
            if row.regression { "  <-- REGRESSION" } else { "" }
        );
    }
    if diff.regressed() {
        println!("\nCPI regression beyond {:.0}% threshold", 100.0 * threshold);
        return Ok(ExitCode::from(2));
    }
    println!("\nno cause regressed beyond the {:.0}% threshold", 100.0 * threshold);
    Ok(ExitCode::SUCCESS)
}

fn cmd_pareto(args: &Args) -> Result<ExitCode, String> {
    let [experiment] = args.positional.as_slice() else {
        return Err("pareto needs EXPERIMENT".to_string());
    };
    let cost_field = args.opt("--cost").ok_or("pareto needs --cost FIELD (e.g. --cost size)")?;
    let scale = args.scale()?;
    let key = format!(
        "sweep;experiment={experiment};scale={};code={}",
        scale.label(),
        ff_bench::sweep::CODE_VERSION
    );
    let rec = args.warehouse().get(&key)?;
    let mut points = sweep_points(&rec.payload, cost_field)?;
    mark_frontier(&mut points);
    points.sort_by(|a, b| a.group.cmp(&b.group).then(a.cost.total_cmp(&b.cost)));
    if args.has("--json") {
        let rows: Vec<Value> = points
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("group".to_string(), Value::Str(p.group.clone())),
                    ("cost".to_string(), Value::Float(p.cost)),
                    ("perf".to_string(), Value::Float(p.perf)),
                    ("cycles".to_string(), Value::UInt(p.cycles)),
                    ("on_frontier".to_string(), Value::Bool(p.on_frontier)),
                ])
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&Value::Array(rows)).unwrap_or_default());
        return Ok(ExitCode::SUCCESS);
    }
    println!("Pareto frontier of {experiment} (perf vs. {cost_field}); * = on frontier\n");
    let head =
        fmt::header(&[("group", 20), (cost_field, 10), ("perf", 12), ("cycles", 12), ("", 2)]);
    print!("{head}");
    for p in &points {
        println!(
            "{:>20}  {:>10}  {:>12.6}  {:>12}  {}",
            p.group,
            p.cost,
            p.perf,
            p.cycles,
            if p.on_frontier { "*" } else { "" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_html(args: &Args) -> Result<ExitCode, String> {
    let wh = args.warehouse();
    let records = wh.list()?;
    let sweep_log = wh.sweep_log();
    // Perf trajectory: warehouse perf records, plus (and overridden
    // by) whatever currently sits in the perf directory — the
    // dashboard always reflects every committed BENCH file even when
    // ingest-perf hasn't run since the last snapshot.
    let mut perf: Vec<(String, PerfSnapshot)> = Vec::new();
    for rec in records.iter().filter(|r| r.kind == KIND_PERF) {
        let stem =
            rec.meta.iter().find(|(k, _)| k == "file").map_or("", |(_, v)| v.as_str()).to_string();
        if let Ok(snap) = PerfSnapshot::from_value(&rec.payload) {
            perf.push((stem, snap));
        }
    }
    let perf_dir = args.opt("--perf-dir").unwrap_or("perf");
    for (stem, value) in perf_snapshots_in(Path::new(perf_dir)) {
        if let Ok(snap) = PerfSnapshot::from_value(&value) {
            perf.retain(|(s, _)| *s != stem);
            perf.push((stem, snap));
        }
    }
    let bounds = ff_bench::report::compute_bounds_rows();
    let data = DashboardData {
        records: &records,
        sweep_log: &sweep_log,
        perf: &perf,
        bounds: &bounds,
        generated_at: args.opt("--generated-at"),
    };
    let html = render_dashboard(&data);
    let out = PathBuf::from(args.opt("--out").unwrap_or("results/dashboard.html"));
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&out, &html).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} bytes, {} records, {} perf snapshots, {} sweep log entries)",
        out.display(),
        html.len(),
        records.len(),
        perf.len(),
        sweep_log.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_drift(args: &Args) -> Result<ExitCode, String> {
    let results_dir = PathBuf::from(args.opt("--results-dir").unwrap_or("results"));
    let bless = args.has("--bless");
    let opts =
        SweepOpts { scale: args.scale()?, cache: args.has("--use-cache"), ..SweepOpts::default() };
    let mut drifted: Vec<&str> = Vec::new();
    for experiment in REGISTRY {
        let name = experiment.name();
        let fresh = experiment.run(&opts).text;
        let committed_path = results_dir.join(format!("{name}.txt"));
        let committed = std::fs::read_to_string(&committed_path).unwrap_or_default();
        if fresh == committed {
            println!("   ok  {name}");
        } else if bless {
            std::fs::write(&committed_path, &fresh)
                .map_err(|e| format!("write {}: {e}", committed_path.display()))?;
            println!("blessed {name} ({})", committed_path.display());
        } else {
            println!("DRIFT  {name} (vs {})", committed_path.display());
            drifted.push(name);
        }
    }
    if drifted.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "\n{} committed output(s) drifted: {}\nregenerate with: ff_report drift --bless",
            drifted.len(),
            drifted.join(", ")
        );
        Ok(ExitCode::from(2))
    }
}

fn run() -> Result<ExitCode, String> {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        return Err(USAGE.to_string());
    };
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return Ok(ExitCode::from(2));
        }
    };
    match command.as_str() {
        "capture" => cmd_capture(&args),
        "ingest-perf" => cmd_ingest_perf(&args),
        "list" => cmd_list(&args),
        "diff" => cmd_diff(&args),
        "pareto" => cmd_pareto(&args),
        "html" => cmd_html(&args),
        "drift" => cmd_drift(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
