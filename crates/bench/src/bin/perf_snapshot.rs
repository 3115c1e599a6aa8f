//! perf_snapshot — measures the simulator's own performance (wall
//! time per component, simulated instructions per host second per
//! model) and tracks the trajectory across commits.
//!
//! Writes `perf/BENCH_<date>.json` and compares the fresh measurement
//! against the most recent previous snapshot in the same directory,
//! flagging any section that slipped by more than `--threshold`
//! (relative, default 0.2). Exit status is 2 on regression unless
//! `--report-only` is given (CI runs report-only: the numbers are a
//! trajectory, not a gate — container load makes wall time noisy).

use ff_bench::selfprof::{PerfSnapshot, SelfProfiler};
use ff_bench::{experiments, fmt};
use ff_core::{run_model, MachineConfig, ModelKind, TwoPass};
use ff_workloads::{paper_benchmarks, Scale};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perf_snapshot [--scale tiny|test|ref] [--threshold F] \
[--dir DIR] [--report-only] [--tag TAG] [--ff-gate RATIO]";

struct Opts {
    scale: Scale,
    threshold: f64,
    dir: PathBuf,
    report_only: bool,
    tag: Option<String>,
    /// Minimum fast-forward speedup (ff-on / ff-off throughput on the
    /// miss-dominated reference kernel). Unlike the wall-time gate this
    /// ratio is host-load-immune — both legs run under the same noise —
    /// so it stays a hard gate even under `--report-only`.
    ff_gate: Option<f64>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        scale: Scale::Tiny,
        threshold: 0.2,
        dir: PathBuf::from("perf"),
        report_only: false,
        tag: None,
        ff_gate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--threshold" => {
                let v = args.next().ok_or("--threshold needs a value")?;
                opts.threshold = v.parse().map_err(|e| format!("bad --threshold: {e}"))?;
            }
            "--dir" => opts.dir = PathBuf::from(args.next().ok_or("--dir needs a value")?),
            "--report-only" => opts.report_only = true,
            "--tag" => opts.tag = Some(args.next().ok_or("--tag needs a value")?),
            "--ff-gate" => {
                let v = args.next().ok_or("--ff-gate needs a value")?;
                opts.ff_gate = Some(v.parse().map_err(|e| format!("bad --ff-gate: {e}"))?);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
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

    // Trace-sink overhead: the same 2P run, streaming every event to a
    // JSONL sink that discards its bytes. Compare against sim.2p's
    // per-instruction cost to see what recording costs.
    if let Some(w) = workloads.first() {
        p.time_work("trace.jsonl_sink", || {
            let mut sink = ff_core::JsonlSink::new(std::io::sink());
            let r =
                TwoPass::new(&w.program, w.memory.clone(), cfg).run_with_sink(w.budget, &mut sink);
            ((), r.retired)
        });
    }

    // Event-driven fast-forward effectiveness: the most miss-dominated
    // paper kernel (the one with the most skippable stall cycles) with
    // the event layer on and off, on the single-pipe baseline and the
    // two-pass machine. The throughput *ratio* of each on/off pair
    // backs `--ff-gate`.
    if let Some(w) = workloads.iter().find(|w| w.name == "mcf-like") {
        // Alternate the legs across repetitions so slow drift in host
        // load (the dominant noise source) cancels out of the ratio.
        for _ in 0..3 {
            for model in ["base", "2P"] {
                for (leg, ff) in [("on", true), ("off", false)] {
                    p.time_work(&format!("ff.{leg}.{}", model.to_lowercase()), || {
                        let r = experiments::run_model_ff(w, model, ff);
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

/// The lexicographically latest `BENCH_*.json` in `dir`, if any.
/// Dates are zero-padded ISO, so lexicographic == chronological.
fn latest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    found.sort();
    found.pop()
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_opts()?;
    let prev = latest_snapshot(&opts.dir)
        .map(|path| -> Result<(PathBuf, PerfSnapshot), String> {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let snap = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            Ok((path, snap))
        })
        .transpose()?;

    let host = ff_bench::selfprof::HostInfo::detect();
    let profiler = measure(opts.scale);
    println!("perf snapshot ({} scale)", opts.scale.label());
    let facet = |s: &str| if s.is_empty() { "unknown" } else { s }.to_string();
    println!(
        "host: {} | opt-level {} | {}\n",
        facet(&host.rustc),
        facet(&host.opt_level),
        facet(&host.cpu)
    );
    fmt::header(&[("section", 18), ("seconds", 9), ("instrs", 12), ("instrs/sec", 12)]);
    for s in profiler.sections() {
        println!(
            "{:>18}  {:>9.4}  {:>12}  {:>12}",
            s.name,
            s.seconds,
            s.instrs,
            s.instrs_per_sec().map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
        );
    }

    let speedups = ff_ratios(&profiler);
    if !speedups.is_empty() {
        let rendered: Vec<String> = speedups.iter().map(|(m, r)| format!("{m} {r:.1}x")).collect();
        println!("\nfast-forward speedup on mcf-like (ff.on / ff.off): {}", rendered.join(", "));
    }

    let mut snapshot = profiler.into_snapshot(opts.scale.label());
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
            for d in prev.compare(&snapshot, opts.threshold) {
                let unit = if d.throughput { "instrs/sec" } else { "sec" };
                let tag = if d.regression { "  <-- REGRESSION" } else { "" };
                println!(
                    "  {:>18}  {:>10.3} -> {:>10.3} {unit}  ({:+.1}%){tag}",
                    d.name,
                    d.prev,
                    d.cur,
                    (d.ratio - 1.0) * 100.0
                );
                regressed |= d.regression;
            }
        }
    } else {
        println!("\nno previous snapshot in {} — baseline recorded", opts.dir.display());
    }

    fs::create_dir_all(&opts.dir).map_err(|e| format!("mkdir {}: {e}", opts.dir.display()))?;
    // An optional tag keeps a same-day re-measurement from clobbering the
    // committed baseline; `_` sorts after `.json`'s `.`, so a tagged
    // snapshot is also the one the next comparison picks up.
    let name = match &opts.tag {
        Some(tag) => format!("BENCH_{}_{tag}.json", snapshot.date),
        None => format!("BENCH_{}.json", snapshot.date),
    };
    let out = opts.dir.join(name);
    let json = serde_json::to_string_pretty(&snapshot).expect("serializable snapshot");
    fs::write(&out, json + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());

    // The fast-forward gate is deliberately NOT silenced by
    // --report-only: it is a same-process ratio, so the host-load noise
    // that makes absolute wall times ungateable cancels out. A ratio
    // near 1.0 means something silently disabled the event layer.
    if let Some(min) = opts.ff_gate {
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

    if regressed && !opts.report_only {
        println!("perf regression beyond {:.0}% threshold", opts.threshold * 100.0);
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
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
