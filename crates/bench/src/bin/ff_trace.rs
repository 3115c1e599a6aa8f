//! `ff-trace` — record and analyze JSONL pipeline traces.
//!
//! ```text
//! ff_trace record <out.jsonl> [--model base|2p|2pre|runahead] [--bench NAME]
//!                             [--scale tiny|test|ref] [--max N]
//! ff_trace summary  <trace.jsonl>
//! ff_trace cpi      <trace.jsonl> [--json]
//! ff_trace profile  <trace.jsonl> [--top N] [--bench NAME --scale S]
//! ff_trace queue    <trace.jsonl>
//! ff_trace stalls   <trace.jsonl>
//! ff_trace slip     <trace.jsonl>
//! ff_trace pipeview <trace.jsonl> [--from C] [--to C] [--seq-from S] [--seq-to S]
//! ff_trace konata   <trace.jsonl> [<out.kanata>]
//! ff_trace snapshot <trace.jsonl> [--start C] [--end C]
//! ff_trace chrome   <trace.jsonl> <out.json>
//! ```
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

use ff_bench::traceview;
use ff_core::{run_model, CycleClass, JsonlSink, MachineConfig, ModelKind, TraceEvent};
use ff_workloads::Scale;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ff_trace record <out.jsonl> [--model base|2p|2pre|runahead] [--bench NAME]
                              [--scale tiny|test|ref] [--max N]
  ff_trace summary  <trace.jsonl>
  ff_trace cpi      <trace.jsonl> [--json]
  ff_trace profile  <trace.jsonl> [--top N] [--bench NAME --scale S]
  ff_trace queue    <trace.jsonl>
  ff_trace stalls   <trace.jsonl>
  ff_trace slip     <trace.jsonl>
  ff_trace pipeview <trace.jsonl> [--from C] [--to C] [--seq-from S] [--seq-to S]
  ff_trace konata   <trace.jsonl> [<out.kanata>]
  ff_trace snapshot <trace.jsonl> [--start C] [--end C]
  ff_trace chrome   <trace.jsonl> <out.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("summary") => analyze(&args[1..], |ev| print!("{}", render_summary(&ev))),
        Some("cpi") => cpi_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("queue") => analyze(&args[1..], |ev| print!("{}", render_queue(&ev))),
        Some("stalls") => analyze(&args[1..], |ev| print!("{}", render_stalls(&ev))),
        Some("slip") => analyze(&args[1..], |ev| print!("{}", render_slip(&ev))),
        Some("pipeview") => pipeview_cmd(&args[1..]),
        Some("konata") => konata_cmd(&args[1..]),
        Some("snapshot") => snapshot_cmd(&args[1..]),
        Some("chrome") => chrome_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a `--flag value` pair out of `args`, returning the rest.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value\n{USAGE}"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Parses `--scale` out of `args`; `tiny` when absent.
fn scale_opt(args: &mut Vec<String>) -> Result<Scale, String> {
    take_opt(args, "--scale")?.map_or(Ok(Scale::Tiny), |s| {
        Scale::parse(&s).ok_or_else(|| format!("unknown scale `{s}`\n{USAGE}"))
    })
}

fn record(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let model = take_opt(&mut args, "--model")?.unwrap_or_else(|| "2p".to_string());
    let kind: ModelKind = model.parse().map_err(|e| format!("{e}\n{USAGE}"))?;
    let bench = take_opt(&mut args, "--bench")?.unwrap_or_else(|| "mcf-like".to_string());
    let scale = scale_opt(&mut args)?;
    let max = take_opt(&mut args, "--max")?
        .map(|v| v.parse::<u64>().map_err(|e| format!("bad --max: {e}")))
        .transpose()?;
    let [out] = args.as_slice() else {
        return Err(format!("record takes one output path\n{USAGE}"));
    };
    let w = ff_workloads::benchmark_by_name(&bench, scale)
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

fn analyze(args: &[String], render: impl FnOnce(Vec<TraceEvent>)) -> Result<(), String> {
    let [path] = args else {
        return Err(format!("expected one trace path\n{USAGE}"));
    };
    render(load(path)?);
    Ok(())
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

fn cpi_cmd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json = if let Some(i) = args.iter().position(|a| a == "--json") {
        args.remove(i);
        true
    } else {
        false
    };
    let [path] = args.as_slice() else {
        return Err(format!("cpi takes one trace path\n{USAGE}"));
    };
    let events = load(path)?;
    let intervals = traceview::cause_intervals(&events);
    if intervals.is_empty() {
        return Err(format!("{path}: no cause transitions (trace predates refined accounting?)"));
    }
    let breakdown = traceview::cause_breakdown(&intervals);
    let retired = events.iter().filter(|e| matches!(e, TraceEvent::BRetire { .. })).count() as u64;
    let stack = traceview::cpi_stack(&breakdown, retired);
    if json {
        println!("{}", serde_json::to_string_pretty(&stack).expect("serializable stack"));
    } else {
        print!("{}", traceview::render_cpi_stack(&stack));
    }
    Ok(())
}

fn profile_cmd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let top = take_opt(&mut args, "--top")?
        .map(|v| v.parse::<usize>().map_err(|e| format!("bad --top: {e}")))
        .transpose()?
        .unwrap_or(20);
    let bench = take_opt(&mut args, "--bench")?;
    let scale = scale_opt(&mut args)?;
    let program = bench
        .map(|b| {
            ff_workloads::benchmark_by_name(&b, scale)
                .map(|w| w.program)
                .ok_or_else(|| format!("unknown benchmark `{b}` (see `ff_exp table2` for names)"))
        })
        .transpose()?;
    let [path] = args.as_slice() else {
        return Err(format!("profile takes one trace path\n{USAGE}"));
    };
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
    println!("{:>6}  {:<16} {:>12}  {:>6}  instruction", "pc", "cause", "cycles", "share");
    for site in profile.top(top) {
        let share = if total == 0 { 0.0 } else { 100.0 * site.cycles as f64 / total as f64 };
        let insn = program
            .as_ref()
            .and_then(|p| p.get(site.pc))
            .map_or_else(String::new, ToString::to_string);
        println!(
            "{:>6}  {:<16} {:>12}  {share:>5.1}%  {insn}",
            site.pc,
            site.cause.label(),
            site.cycles
        );
    }
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

fn pipeview_cmd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let mut opts = traceview::PipeviewOpts::default();
    let parse = |flag: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|v| v.parse::<u64>().map_err(|e| format!("bad {flag}: {e}"))).transpose()
    };
    if let Some(v) = parse("--from", take_opt(&mut args, "--from")?)? {
        opts.from = v;
        opts.to = v.saturating_add(80);
    }
    if let Some(v) = parse("--to", take_opt(&mut args, "--to")?)? {
        opts.to = v;
    }
    if let Some(v) = parse("--seq-from", take_opt(&mut args, "--seq-from")?)? {
        opts.seq_from = v;
    }
    if let Some(v) = parse("--seq-to", take_opt(&mut args, "--seq-to")?)? {
        opts.seq_to = v;
    }
    let [path] = args.as_slice() else {
        return Err(format!("pipeview takes one trace path\n{USAGE}"));
    };
    let events = load(path)?;
    print!("{}", traceview::pipeview(&events, opts));
    Ok(())
}

fn konata_cmd(args: &[String]) -> Result<(), String> {
    let (path, out) = match args {
        [path] => (path, None),
        [path, out] => (path, Some(out)),
        _ => return Err(format!("konata takes a trace path and an optional output path\n{USAGE}")),
    };
    let events = load(path)?;
    let text = traceview::konata(&events);
    match out {
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

fn snapshot_cmd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let start = take_opt(&mut args, "--start")?
        .map(|v| v.parse::<u64>().map_err(|e| format!("bad --start: {e}")))
        .transpose()?
        .unwrap_or(0);
    let end = take_opt(&mut args, "--end")?
        .map(|v| v.parse::<u64>().map_err(|e| format!("bad --end: {e}")))
        .transpose()?;
    let [path] = args.as_slice() else {
        return Err(format!("snapshot takes one trace path\n{USAGE}"));
    };
    let events = load(path)?;
    let end = end.unwrap_or_else(|| start.saturating_add(64));
    print!("{}", traceview::snapshot(&events, start, end));
    Ok(())
}

fn chrome_cmd(args: &[String]) -> Result<(), String> {
    let [path, out] = args else {
        return Err(format!("chrome takes a trace path and an output path\n{USAGE}"));
    };
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
