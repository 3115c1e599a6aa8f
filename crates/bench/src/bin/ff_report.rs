//! ff_report — the cross-run results warehouse CLI: capture golden
//! reports, diff runs for CPI regressions, extract Pareto frontiers
//! from stored sweeps, build the static HTML dashboard, check the
//! committed `results/*.txt` outputs for drift, and self-profile the
//! simulator into the `perf/BENCH_*.json` trajectory.
//!
//! ```text
//! ff_exp fig6 test        # a full cached sweep stores its rows itself
//! ff_report pareto ablate_queue --cost size
//! ff_report capture --bench mcf-like --model 2P --scale test
//! ff_report html --out results/dashboard.html
//! ff_report diff 'golden;kernel=...;code=3' 'golden;kernel=...;code=3'
//! ff_report perf --scale ref --report-only --ff-gate 3
//! ```
//!
//! `perf` measures wall time per component and simulated instructions
//! per host second per model, writes `PERFDIR/BENCH_<date>.json`, and
//! compares it against the latest previous snapshot there, flagging any
//! section that slipped by more than `--threshold` (relative, default
//! 0.2). It exits 2 on a regression unless `--report-only` is given (CI
//! runs report-only: the numbers are a trajectory, not a gate; container
//! load makes wall time noisy). `--repeat N` measures N times and keeps
//! each section's median, so a before/after pair of snapshots compares
//! like with like instead of two single draws.

use ff_bench::cli::{Cli, Command, Parsed};
use ff_bench::experiments::REGISTRY;
use ff_bench::fmt::{pct, Table};
use ff_bench::report::{
    diff_reports, golden_record, mark_frontier, perf_record, render_dashboard, sweep_points,
    DashboardData, Warehouse, DEFAULT_RUNS_DIR, KIND_GOLDEN, KIND_PERF,
};
use ff_bench::selfprof::{HostInfo, PerfSnapshot, SelfProfiler};
use ff_bench::sweep::{RunStore, SweepOpts};
use ff_core::{run_model, MachineConfig, ModelKind, StallCause, TwoPass};
use ff_workloads::{paper_benchmarks, Scale};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "ff_report",
    commands: &[
        Command {
            spec: "capture [--bench NAME] [--model base|2P|2Pre|runahead] [--scale tiny|test|ref] \
                   [--degrade CAUSE=FACTOR] [--dir DIR]",
            about: "simulate one config (--bench, --model) and store its golden SimReport",
        },
        Command {
            spec: "ingest-perf [PERFDIR] [--dir DIR]",
            about: "store every BENCH_*.json snapshot of PERFDIR (default perf)",
        },
        Command {
            spec: "list [--dir DIR]",
            about: "list warehouse records; `ff_exp` stores complete cached sweeps there",
        },
        Command {
            spec: "diff <KEY_A> <KEY_B> [--threshold F] [--dir DIR]",
            about: "per-cause CPI regression diff of two golden runs; exits 2 on regression",
        },
        Command {
            spec: "pareto <EXP> [--cost FIELD] [--scale tiny|test|ref] [--dir DIR] [--json]",
            about: "Pareto frontier (perf vs. the --cost field) over a stored sweep grid",
        },
        Command {
            spec: "html [--out FILE] [--dir DIR] [--perf-dir PERFDIR] [--generated-at TEXT]",
            about: "build the static dashboard (default results/dashboard.html)",
        },
        Command {
            spec: "drift [--results-dir DIR] [--scale tiny|test|ref] [--bless] [--use-cache]",
            about: "regenerate the checked-in results/*.txt and fail on any diff",
        },
        Command {
            spec: "perf [--scale tiny|test|ref] [--threshold F] [--perf-dir PERFDIR] \
                   [--report-only] [--tag TAG] [--ff-gate RATIO] [--repeat N]",
            about: "self-profile into PERFDIR/BENCH_<date>.json, diff vs the latest snapshot",
        },
    ],
};

fn warehouse(args: &Parsed) -> Warehouse {
    Warehouse::open(args.value("--dir").unwrap_or(DEFAULT_RUNS_DIR))
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

fn cmd_capture(args: &Parsed) -> Result<ExitCode, String> {
    let bench = args.value("--bench").ok_or("capture needs --bench NAME")?;
    let model: ModelKind = args.get("--model")?.ok_or("capture needs --model NAME")?;
    let scale = args.get("--scale")?.unwrap_or(Scale::Test);
    let w = ff_workloads::benchmark_by_name(bench, scale)
        .ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let cfg = MachineConfig::paper_table1();
    let (mut report, _, _) =
        ff_core::run_model(model, &w.program, w.memory.clone(), cfg, w.budget, None);
    let params = match args.value("--degrade") {
        Some(spec) => degrade(&mut report, spec)?,
        None => String::new(),
    };
    let rec = golden_record(bench, &model.to_string(), &params, scale.label(), &report);
    let path = warehouse(args).put(&rec)?;
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

/// Every `BENCH_*.json` in `dir` by stem, oldest first (dates are
/// zero-padded ISO, so lexicographic is chronological), each read and
/// parsed or the reason it could not be.
fn perf_snapshots_in(dir: &Path) -> Vec<(String, Result<Value, String>)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<(String, Result<Value, String>)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            let stem = path.file_stem()?.to_str()?.to_string();
            if !stem.starts_with("BENCH_") || path.extension().is_none_or(|x| x != "json") {
                return None;
            }
            let value = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))
                .and_then(|text| {
                    serde_json::from_str(&text)
                        .map_err(|e| format!("parse {}: {e}", path.display()))
                });
            Some((stem, value))
        })
        .collect();
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

/// The snapshots of `dir` that read and parse.
fn readable_snapshots_in(dir: &Path) -> Vec<(String, Value)> {
    perf_snapshots_in(dir).into_iter().filter_map(|(stem, v)| Some((stem, v.ok()?))).collect()
}

fn cmd_ingest_perf(args: &Parsed) -> Result<ExitCode, String> {
    let dir = args.positional().first().map_or("perf", String::as_str);
    let snapshots = readable_snapshots_in(Path::new(dir));
    if snapshots.is_empty() {
        return Err(format!("no BENCH_*.json snapshots in {dir}"));
    }
    let wh = warehouse(args);
    for (stem, value) in &snapshots {
        let rec = perf_record(stem, value.clone());
        wh.put(&rec)?;
        println!("stored {} (hash {})", rec.key, rec.content_hash);
    }
    println!("{} snapshots ingested", snapshots.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &Parsed) -> Result<ExitCode, String> {
    let records = warehouse(args).list()?;
    if records.is_empty() {
        println!("(empty warehouse)");
        return Ok(ExitCode::SUCCESS);
    }
    print!(
        "{}",
        Table::new(&records)
            .col("kind", 6, |r| r.kind.clone())
            .col("hash", 16, |r| r.content_hash.clone())
            .ragged("key", 0, |r| r.key.clone())
            .render()
    );
    Ok(ExitCode::SUCCESS)
}

fn golden_report(wh: &Warehouse, key: &str) -> Result<ff_core::SimReport, String> {
    let rec = wh.get(key)?;
    if rec.kind != KIND_GOLDEN {
        return Err(format!("`{key}` is a {} record, not a golden report", rec.kind));
    }
    ff_core::SimReport::from_value(&rec.payload).map_err(|e| format!("parse `{key}`: {e}"))
}

fn cmd_diff(args: &Parsed) -> Result<ExitCode, String> {
    let (key_a, key_b) = (&args.positional()[0], &args.positional()[1]);
    let threshold: f64 = args.get("--threshold")?.unwrap_or(0.05);
    let wh = warehouse(args);
    let a = golden_report(&wh, key_a)?;
    let b = golden_report(&wh, key_b)?;
    let diff = diff_reports(&a, &b, threshold);
    println!("A: {key_a}");
    println!("B: {key_b}");
    println!();
    let rows: Vec<_> = diff
        .causes
        .iter()
        .chain(std::iter::once(&diff.total))
        .filter(|row| row.cpi_a != 0.0 || row.cpi_b != 0.0)
        .collect();
    print!(
        "{}",
        Table::new(&rows)
            .col("cause", 18, |r| r.cause.clone())
            .col("cpi A", 9, |r| format!("{:.4}", r.cpi_a))
            .col("cpi B", 9, |r| format!("{:.4}", r.cpi_b))
            .col("delta", 9, |r| format!("{:+.4}", r.delta))
            .col("rel", 8, |r| if r.rel.is_infinite() { "new".to_string() } else { pct(r.rel) })
            .sep("")
            .ragged("", 0, |r| if r.regression { "  <-- REGRESSION" } else { "" })
            .render()
    );
    if diff.regressed() {
        println!("\nCPI regression beyond {:.0}% threshold", 100.0 * threshold);
        return Ok(ExitCode::from(2));
    }
    println!("\nno cause regressed beyond the {:.0}% threshold", 100.0 * threshold);
    Ok(ExitCode::SUCCESS)
}

fn cmd_pareto(args: &Parsed) -> Result<ExitCode, String> {
    let experiment = &args.positional()[0];
    let cost_field = args.value("--cost").ok_or("pareto needs --cost FIELD (e.g. --cost size)")?;
    let scale = args.get("--scale")?.unwrap_or(Scale::Test);
    let key = format!(
        "sweep;experiment={experiment};scale={};code={}",
        scale.label(),
        ff_bench::sweep::CODE_VERSION
    );
    let rec = warehouse(args).get(&key)?;
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
    print!(
        "{}",
        Table::new(&points)
            .col("group", 20, |p| p.group.clone())
            .col(cost_field, 10, |p| p.cost)
            .col("perf", 12, |p| format!("{:.6}", p.perf))
            .col("cycles", 12, |p| p.cycles)
            .ragged("", 2, |p| if p.on_frontier { "*" } else { "" })
            .render()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_html(args: &Parsed) -> Result<ExitCode, String> {
    let wh = warehouse(args);
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
    let perf_dir = args.value("--perf-dir").unwrap_or("perf");
    for (stem, value) in readable_snapshots_in(Path::new(perf_dir)) {
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
        generated_at: args.value("--generated-at"),
    };
    let html = render_dashboard(&data);
    let out = PathBuf::from(args.value("--out").unwrap_or("results/dashboard.html"));
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

fn cmd_drift(args: &Parsed) -> Result<ExitCode, String> {
    let results_dir = PathBuf::from(args.value("--results-dir").unwrap_or("results"));
    let bless = args.has("--bless");
    let opts = SweepOpts {
        scale: args.get("--scale")?.unwrap_or(Scale::Test),
        cache: args.has("--use-cache"),
        ..SweepOpts::default()
    };
    // One store for the whole registry: each distinct run simulates once.
    let mut store = RunStore::default();
    let mut drifted: Vec<&str> = Vec::new();
    for experiment in REGISTRY {
        let name = experiment.name();
        let fresh = experiment.run(&opts, &mut store).text;
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

/// Measures every component into a profiler: workload construction,
/// all four machine models end to end over the paper grid, and the
/// JSONL trace-sink overhead on one representative run.
fn measure(scale: Scale) -> SelfProfiler {
    let mut p = SelfProfiler::new();
    let workloads = p.time("workload.build", || paper_benchmarks(scale));

    let cfg = MachineConfig::paper_table1();
    for kind in ModelKind::ALL {
        let section = format!("sim.{}", kind.to_string().to_lowercase());
        for w in &workloads {
            p.time_work(&section, || {
                let (r, _, _) =
                    run_model(kind, &w.program, w.memory.clone(), cfg.clone(), w.budget, None);
                ((), r.retired)
            });
        }
    }

    // Trace-sink overhead: 2P runs streaming every event to a JSONL sink
    // that discards its bytes. Compare against sim.2p's per-instruction
    // cost to see what recording costs. The first kernel (go-like) is
    // issue-bound; mcf-like spends most cycles fast-forwarded, so its
    // section measures the bulk occupancy-sample replay.
    let mcf_like = workloads.iter().find(|w| w.name == "mcf-like");
    let traced = [("trace.jsonl_sink", workloads.first()), ("trace.jsonl_sink.mcf", mcf_like)];
    for (section, w) in traced {
        let Some(w) = w else { continue };
        p.time_work(section, || {
            let mut sink = ff_core::JsonlSink::new(std::io::sink());
            let r = TwoPass::new(&w.program, w.memory.clone(), cfg.clone())
                .run_with_sink(w.budget, &mut sink);
            ((), r.retired)
        });
    }

    // Event-driven fast-forward effectiveness: the most miss-dominated
    // paper kernel (the one with the most skippable stall cycles) with
    // the event layer on and off, on the single-pipe baseline and the
    // two-pass machine. The throughput *ratio* of each on/off pair
    // backs `--ff-gate`.
    if let Some(w) = mcf_like {
        // Alternate the legs across repetitions so slow drift in host
        // load (the dominant noise source) cancels out of the ratio.
        for _ in 0..3 {
            for kind in [ModelKind::Baseline, ModelKind::TwoPass] {
                for (leg, fast_forward) in [("on", true), ("off", false)] {
                    let cfg = MachineConfig { fast_forward, ..MachineConfig::paper_table1() };
                    p.time_work(&format!("ff.{leg}.{}", kind.to_string().to_lowercase()), || {
                        let (r, _, _) =
                            run_model(kind, &w.program, w.memory.clone(), cfg, w.budget, None);
                        ((), r.retired)
                    });
                }
            }
        }
    }
    p
}

/// Fast-forward speedups per model: `(model, ff.on/ff.off throughput)`
/// for every model with both legs measured.
fn ff_ratios(profiler: &SelfProfiler) -> Vec<(String, f64)> {
    let rate = |name: &str| {
        profiler.sections().iter().find(|s| s.name == name).and_then(|s| s.instrs_per_sec())
    };
    ["base", "2p"]
        .iter()
        .filter_map(|model| {
            match (rate(&format!("ff.on.{model}")), rate(&format!("ff.off.{model}"))) {
                (Some(on), Some(off)) if off > 0.0 => Some((model.to_string(), on / off)),
                _ => None,
            }
        })
        .collect()
}

fn cmd_perf(args: &Parsed) -> Result<ExitCode, String> {
    let scale = args.get("--scale")?.unwrap_or(Scale::Tiny);
    let threshold: f64 = args.get("--threshold")?.unwrap_or(0.2);
    // Minimum fast-forward speedup (ff-on / ff-off throughput on the
    // miss-dominated reference kernel). Unlike the wall-time gate this
    // ratio is host-load-immune — both legs run under the same noise —
    // so it stays a hard gate even under `--report-only`.
    let ff_gate: Option<f64> = args.get("--ff-gate")?;
    let dir = PathBuf::from(args.value("--perf-dir").unwrap_or("perf"));
    // An unreadable or unparsable latest snapshot is an error, not a
    // reason to fall back to an older one.
    let prev = match perf_snapshots_in(&dir).pop() {
        Some((stem, value)) => {
            let path = dir.join(format!("{stem}.json"));
            let snap = PerfSnapshot::from_value(&value?)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            Some((path, snap))
        }
        None => None,
    };

    let host = HostInfo::detect();
    let repeat: usize = args.get("--repeat")?.unwrap_or(1);
    if repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    let runs: Vec<SelfProfiler> = (0..repeat).map(|_| measure(scale)).collect();
    let profiler = SelfProfiler::median(&runs);
    if repeat == 1 {
        println!("perf snapshot ({} scale)", scale.label());
    } else {
        println!("perf snapshot ({} scale, median of {repeat} runs)", scale.label());
    }
    let facet = |s: &str| if s.is_empty() { "unknown" } else { s }.to_string();
    println!(
        "host: {} | opt-level {} | {}\n",
        facet(&host.rustc),
        facet(&host.opt_level),
        facet(&host.cpu)
    );
    print!(
        "{}",
        Table::new(profiler.sections())
            .col("section", 20, |s| s.name.clone())
            .col("seconds", 9, |s| format!("{:.4}", s.seconds))
            .col("instrs", 12, |s| s.instrs)
            .col("instrs/sec", 12, |s| {
                s.instrs_per_sec().map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
            })
            .render()
    );

    let speedups = ff_ratios(&profiler);
    if !speedups.is_empty() {
        let rendered: Vec<String> = speedups.iter().map(|(m, r)| format!("{m} {r:.1}x")).collect();
        println!("\nfast-forward speedup on mcf-like (ff.on / ff.off): {}", rendered.join(", "));
    }

    let mut snapshot = profiler.into_snapshot(scale.label());
    snapshot.host = host;
    let mut regressed = false;
    if let Some((path, prev)) = prev {
        println!("\nvs {} ({}, {} scale):", path.display(), prev.date, prev.scale);
        if !prev.host.is_empty() && prev.host != snapshot.host {
            println!("  note: host/toolchain differs from previous snapshot");
        }
        if prev.scale != snapshot.scale {
            println!("  scale differs — comparison skipped");
        } else {
            for d in prev.compare(&snapshot, threshold) {
                let unit = if d.throughput { "instrs/sec" } else { "sec" };
                let tag = if d.regression { "  <-- REGRESSION" } else { "" };
                println!(
                    "  {:>20}  {:>10.3} -> {:>10.3} {unit}  ({:+.1}%){tag}",
                    d.name,
                    d.prev,
                    d.cur,
                    (d.ratio - 1.0) * 100.0
                );
                regressed |= d.regression;
            }
        }
    } else {
        println!("\nno previous snapshot in {} — baseline recorded", dir.display());
    }

    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    // An optional tag keeps a same-day re-measurement from clobbering the
    // committed baseline; a tagged stem sorts after the untagged one, so
    // a tagged snapshot is also the one the next comparison picks up.
    let name = match args.value("--tag") {
        Some(tag) => format!("BENCH_{}_{tag}.json", snapshot.date),
        None => format!("BENCH_{}.json", snapshot.date),
    };
    let out = dir.join(name);
    let json = serde_json::to_string_pretty(&snapshot).expect("serializable snapshot");
    std::fs::write(&out, json + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());

    // The fast-forward gate is deliberately NOT silenced by
    // --report-only: it is a same-process ratio, so the host-load noise
    // that makes absolute wall times ungateable cancels out. A ratio
    // near 1.0 means something silently disabled the event layer.
    if let Some(min) = ff_gate {
        let best = speedups.iter().map(|&(_, r)| r).fold(f64::NEG_INFINITY, f64::max);
        if speedups.is_empty() {
            println!("--ff-gate given but fast-forward sections were not measured");
            return Ok(ExitCode::from(2));
        }
        if best < min {
            println!("fast-forward speedup {best:.1}x below --ff-gate {min}");
            return Ok(ExitCode::from(2));
        }
    }

    if regressed && !args.has("--report-only") {
        println!("perf regression beyond {:.0}% threshold", threshold * 100.0);
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).is_some_and(|a| matches!(a.as_str(), "help" | "--help" | "-h")) {
        println!("{}", CLI.usage());
        return ExitCode::SUCCESS;
    }
    CLI.run(|args| match args.command() {
        "capture" => cmd_capture(args),
        "ingest-perf" => cmd_ingest_perf(args),
        "list" => cmd_list(args),
        "diff" => cmd_diff(args),
        "pareto" => cmd_pareto(args),
        "html" => cmd_html(args),
        "drift" => cmd_drift(args),
        "perf" => cmd_perf(args),
        other => unreachable!("`{other}` is declared but not dispatched"),
    })
}
