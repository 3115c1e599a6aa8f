//! `ff-trace` — record and analyze JSONL pipeline traces.
//!
//! The commands and their flags are declared in `CLI` below, which is
//! also the usage text `ff_trace` prints on a malformed command line.
//!
//! `record` runs a built-in benchmark on the chosen model with a
//! streaming [`ff_core::JsonlSink`]; the analysis subcommands work on
//! the resulting file (or any JSONL trace). `cpi` renders a
//! hierarchical CPI stack (six classes refined into per-cause rows);
//! `profile` ranks the static PCs the machine stalled on, `perf
//! report`-style, annotating them with kernel source when `--bench` is
//! given. `pipeview` draws an ASCII pipeline diagram (one row per
//! dynamic instruction, one column per cycle); `konata` exports the
//! Kanata log format the Konata pipeline viewer
//! (<https://github.com/shioyadan/Konata>) loads, with the A-pipe on
//! lane 0 and the B-pipe on lane 1. `chrome` emits Chrome trace-event
//! JSON loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use ff_bench::cli::{Cli, Command, Parsed};
use ff_bench::fmt::Table;
use ff_bench::traceview;
use ff_core::{run_model, CycleClass, JsonlSink, MachineConfig, ModelKind, TraceEvent};
use ff_workloads::Scale;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "ff_trace",
    commands: &[
        Command {
            spec: "record <out.jsonl> [--model base|2p|2pre|runahead] [--bench NAME] \
                   [--scale tiny|test|ref] [--max N]",
            about: "run a built-in benchmark with a streaming JSONL sink",
        },
        Command { spec: "summary <trace.jsonl>", about: "event counts and cycle-class totals" },
        Command { spec: "cpi <trace.jsonl> [--json]", about: "hierarchical CPI stack" },
        Command {
            spec: "profile <trace.jsonl> [--top N] [--bench NAME] [--scale tiny|test|ref]",
            about: "static PCs ranked by stall cycles, annotated with --bench's source",
        },
        Command { spec: "queue <trace.jsonl>", about: "coupling-queue depth and MSHR occupancy" },
        Command { spec: "stalls <trace.jsonl>", about: "stall-interval lengths per cycle class" },
        Command { spec: "slip <trace.jsonl>", about: "A-to-B slip, residency and deferral runs" },
        Command {
            spec: "pipeview <trace.jsonl> [--from C] [--to C] [--seq-from S] [--seq-to S]",
            about: "ASCII pipeline diagram",
        },
        Command {
            spec: "konata <trace.jsonl> [out.kanata]",
            about: "Konata pipeline-viewer log, to stdout or a file",
        },
        Command {
            spec: "snapshot <trace.jsonl> [--start C] [--end C]",
            about: "in-flight instructions per cycle",
        },
        Command {
            spec: "chrome <trace.jsonl> <out.json>",
            about: "Chrome trace-event JSON for Perfetto",
        },
    ],
};

fn main() -> ExitCode {
    CLI.run(|args| {
        let path = &args.positional()[0];
        match args.command() {
            "record" => record(args),
            "summary" => load(path).map(|ev| print!("{}", render_summary(&ev))),
            "cpi" => cpi_cmd(args),
            "profile" => profile_cmd(args),
            "queue" => load(path).map(|ev| print!("{}", render_queue(&ev))),
            "stalls" => load(path).map(|ev| print!("{}", render_stalls(&ev))),
            "slip" => load(path).map(|ev| print!("{}", render_slip(&ev))),
            "pipeview" => pipeview_cmd(args),
            "konata" => konata_cmd(args),
            "snapshot" => snapshot_cmd(args),
            "chrome" => chrome_cmd(args),
            other => unreachable!("`{other}` is declared but not dispatched"),
        }
        .map(|()| ExitCode::SUCCESS)
    })
}

fn record(args: &Parsed) -> Result<(), String> {
    let model = args.value("--model").unwrap_or("2p");
    let kind: ModelKind = model.parse().map_err(|e| format!("{e}\n{}", CLI.usage()))?;
    let bench = args.value("--bench").unwrap_or("mcf-like");
    let scale = args.get("--scale")?.unwrap_or(Scale::Tiny);
    let max: Option<u64> = args.get("--max")?;
    let out = &args.positional()[0];
    let w = ff_workloads::benchmark_by_name(bench, scale)
        .ok_or_else(|| format!("unknown benchmark `{bench}` (see `ff_exp table2` for names)"))?;
    let budget = max.unwrap_or(w.budget);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut sink = JsonlSink::new(file);
    let cfg = MachineConfig::paper_table1();
    let (report, _, _) =
        run_model(kind, &w.program, w.memory.clone(), cfg, budget, Some(&mut sink));
    if sink.errored() {
        return Err(format!("write error while streaming to {out}"));
    }
    let events = sink.written();
    sink.into_inner().map_err(|e| format!("flush {out}: {e}"))?;
    println!(
        "{bench} on {model}: {} cycles, {} retired -> {events} events in {out}",
        report.cycles, report.retired
    );
    Ok(())
}

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    traceview::load_events(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn render_summary(events: &[TraceEvent]) -> String {
    let s = traceview::summarize(events);
    let mut out = String::new();
    out.push_str(&format!(
        "events           {}\ncycles           {}\nfetches          {}\n\
         A dispatches     {} ({} deferred)\n\
         B retires        {} ({} B-executed)\nissue groups     A={} B={}\n\
         flushes          bdet={} store-conflict={}\nsquashes         {}\nA redirects      {}\n\
         misses           L2={} L3={} Mem={}\nrunahead         episodes={} discarded={}\n",
        s.events,
        s.cycles,
        s.fetches,
        s.dispatches,
        s.deferred,
        s.retires,
        s.b_executed,
        s.groups[0],
        s.groups[1],
        s.flushes[0],
        s.flushes[1],
        s.squashes,
        s.redirects,
        s.misses[1],
        s.misses[2],
        s.misses[3],
        s.ra_enters,
        s.ra_discarded,
    ));
    out.push_str("cycle classes\n");
    for class in CycleClass::ALL {
        let n = s.class_cycles[class.index()];
        let frac = if s.cycles == 0 { 0.0 } else { n as f64 / s.cycles as f64 };
        out.push_str(&format!("  {:<12} {n:>10}  {:>5.1}%\n", class.label(), frac * 100.0));
    }
    out
}

fn cpi_cmd(args: &Parsed) -> Result<(), String> {
    let path = &args.positional()[0];
    let events = load(path)?;
    let intervals = traceview::cause_intervals(&events);
    if intervals.is_empty() {
        return Err(format!("{path}: no cause transitions (trace predates refined accounting?)"));
    }
    let breakdown = traceview::cause_breakdown(&intervals);
    let retired = events.iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count() as u64;
    let stack = traceview::cpi_stack(&breakdown, retired);
    if args.has("--json") {
        println!("{}", serde_json::to_string_pretty(&stack).expect("serializable stack"));
    } else {
        print!("{}", traceview::render_cpi_stack(&stack));
    }
    Ok(())
}

fn profile_cmd(args: &Parsed) -> Result<(), String> {
    let top = args.get("--top")?.unwrap_or(20);
    let scale = args.get("--scale")?.unwrap_or(Scale::Tiny);
    let program = args
        .value("--bench")
        .map(|b| {
            ff_workloads::benchmark_by_name(b, scale)
                .map(|w| w.program)
                .ok_or_else(|| format!("unknown benchmark `{b}` (see `ff_exp table2` for names)"))
        })
        .transpose()?;
    let path = &args.positional()[0];
    let events = load(path)?;
    let intervals = traceview::cause_intervals(&events);
    if intervals.is_empty() {
        return Err(format!("{path}: no cause transitions (trace predates refined accounting?)"));
    }
    let profile = traceview::stall_profile(&intervals);
    let total = profile.total();
    let cycles = traceview::end_cycle(&events);
    println!(
        "stall profile: {} attributable stall cycles over {} total ({} sites)",
        total,
        cycles,
        profile.len()
    );
    let sites = profile.top(top);
    let table = Table::new(&sites)
        .rule(0)
        .col("pc", 6, |s| s.pc)
        .left("cause", 16, |s| s.cause.label())
        .sep(" ")
        .col("cycles", 12, |s| s.cycles)
        .sep("  ")
        .col("share", 6, |s| {
            let share = if total == 0 { 0.0 } else { 100.0 * s.cycles as f64 / total as f64 };
            format!("{share:.1}%")
        })
        .ragged("instruction", 0, |s| {
            program.as_ref().and_then(|p| p.get(s.pc)).map_or_else(String::new, ToString::to_string)
        });
    print!("{}", table.render());
    Ok(())
}

fn render_queue(events: &[TraceEvent]) -> String {
    let o = traceview::occupancy(events);
    let mut out = String::from("coupling-queue depth (cycles at each depth)\n");
    out.push_str(&traceview::render_histogram(&o.depth_hist));
    out.push_str("mshr occupancy (cycles at each count)\n");
    out.push_str(&traceview::render_histogram(&o.mshr_hist));
    out.push_str("exact depths: ");
    let exact: Vec<String> = o.depth.iter().map(|(d, n)| format!("{d}:{n}")).collect();
    out.push_str(&exact.join(" "));
    out.push('\n');
    out
}

fn render_stalls(events: &[TraceEvent]) -> String {
    let intervals = traceview::class_intervals(events);
    let totals = traceview::class_totals(&intervals);
    let hists = traceview::interval_histograms(&intervals);
    let mut out = String::from("stall intervals per cycle class (interval-length distribution)\n");
    for class in CycleClass::ALL {
        let i = class.index();
        if hists[i].count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "\n{} — {} cycles in {} intervals\n",
            class.label(),
            totals[i],
            hists[i].count()
        ));
        out.push_str(&traceview::render_histogram(&hists[i]));
    }
    out
}

fn render_slip(events: &[TraceEvent]) -> String {
    let s = traceview::slip_stats(events);
    let o = traceview::occupancy(events);
    let mut out = String::from("A-to-B slip (cycles from dispatch to retire)\n");
    out.push_str(&traceview::render_histogram(&s.slip));
    if s.residency.count() > 0 {
        out.push_str("coupling-queue residency (exact, per dequeued entry)\n");
        out.push_str(&traceview::render_histogram(&s.residency));
    }
    out.push_str("deferral run lengths (consecutive deferred dispatches)\n");
    out.push_str(&traceview::render_histogram(&s.deferral_runs));
    // Little's-law reconciliation: the per-cycle queue-depth integral
    // must be fully explained by per-instruction residency.
    let integral = o.depth_hist.sum();
    let accounted = s.accounted_queue_cycles();
    out.push_str(&format!(
        "queue-cycle reconciliation: occupancy integral={integral} accounted={accounted} \
         (dequeued={} squashed={} leftover={}){}\n",
        s.residency.sum(),
        s.squashed_resident,
        s.leftover_resident,
        if integral == accounted { "" } else { "  <-- MISMATCH" },
    ));
    out
}

fn pipeview_cmd(args: &Parsed) -> Result<(), String> {
    let mut opts = traceview::PipeviewOpts::default();
    if let Some(v) = args.get::<u64>("--from")? {
        opts.from = v;
        opts.to = v.saturating_add(80);
    }
    if let Some(v) = args.get("--to")? {
        opts.to = v;
    }
    if let Some(v) = args.get("--seq-from")? {
        opts.seq_from = v;
    }
    if let Some(v) = args.get("--seq-to")? {
        opts.seq_to = v;
    }
    let events = load(&args.positional()[0])?;
    print!("{}", traceview::pipeview(&events, opts));
    Ok(())
}

fn konata_cmd(args: &Parsed) -> Result<(), String> {
    let events = load(&args.positional()[0])?;
    let text = traceview::konata(&events);
    match args.positional().get(1) {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "{} events -> {out} ({} bytes); open it in Konata \
                 (https://github.com/shioyadan/Konata)",
                events.len(),
                text.len()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn snapshot_cmd(args: &Parsed) -> Result<(), String> {
    let start: u64 = args.get("--start")?.unwrap_or(0);
    let end = args.get("--end")?.unwrap_or_else(|| start.saturating_add(64));
    let events = load(&args.positional()[0])?;
    print!("{}", traceview::snapshot(&events, start, end));
    Ok(())
}

fn chrome_cmd(args: &Parsed) -> Result<(), String> {
    let (path, out) = (&args.positional()[0], &args.positional()[1]);
    let events = load(path)?;
    let json = traceview::chrome_trace(&events);
    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{} events -> {out} ({} bytes); load it at https://ui.perfetto.dev",
        events.len(),
        json.len()
    );
    Ok(())
}
