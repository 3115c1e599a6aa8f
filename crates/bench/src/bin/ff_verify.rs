//! `ff_verify` — static EPIC legality checking, performance-bound
//! analysis, and differential auditing.
//!
//! The commands and their flags are declared in `CLI` below, which is
//! also the usage text `ff_verify` prints on a malformed command line.
//!
//! `lint` runs the static checker over one paper kernel (by kernel name
//! or SPEC reference); `all` covers the whole Table 2 suite plus every
//! structural fixture of the random generator; `random` lints `N`
//! generator seeds; `oracle` runs the full differential oracle
//! (interpreter vs. all pipeline models) over `N` random seeds.
//!
//! `bounds` computes the static cycle lower bound (dependence height
//! and resource pressure) for one kernel — or, with no kernel, the
//! whole suite — runs all four pipeline models, and reports the
//! measured-minus-bound schedule overhead; it fails if any bound
//! exceeds a measured cycle count (a soundness violation). `slack`
//! prints the per-instruction static schedule with earliest/latest
//! start and slack; `explain` annotates the static critical path.
//!
//! All `--json` output is wrapped in `{"schema": N, "targets": [...]}`
//! where `N` is [`ff_verify::ANALYSIS_SCHEMA_VERSION`].
//!
//! Exit status is nonzero if any *error* diagnostic fires, any oracle
//! divergence is found, any bound exceeds a measured run, or — under
//! `--strict` — any diagnostic at all.

use ff_bench::cli::{Cli, Command, Parsed};
use ff_core::MachineConfig;
use ff_isa::Program;
use ff_verify::{
    analyze_program, cycle_bounds, differential_oracle, measured_cycles, AnalysisReport,
    CycleBounds, ScheduleGraph, Severity, ANALYSIS_SCHEMA_VERSION,
};
use ff_workloads::random::{random_program, GeneratorConfig};
use ff_workloads::{Scale, Workload};
use serde::Serialize;
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "ff_verify",
    commands: &[
        Command {
            spec: "lint <kernel> [--scale tiny|test|ref] [--strict] [--json]",
            about: "lint one paper kernel (by name or SPEC reference)",
        },
        Command {
            spec: "all [--scale tiny|test|ref] [--strict] [--json]",
            about: "lint the whole Table 2 suite",
        },
        Command { spec: "random <N> [--strict] [--json]", about: "lint N generator seeds" },
        Command {
            spec: "oracle <N> [--budget B] [--json]",
            about: "differential oracle (interpreter vs. every model) over N random seeds",
        },
        Command {
            spec: "bounds [kernel] [--scale tiny|test|ref] [--json]",
            about: "static cycle lower bounds vs. all four models, one kernel or the suite",
        },
        Command {
            spec: "slack <kernel> [--scale tiny|test|ref] [--json]",
            about: "per-instruction static schedule with slack",
        },
        Command {
            spec: "explain <kernel> [--scale tiny|test|ref] [--json]",
            about: "annotated static critical path",
        },
    ],
};

const ORACLE_BUDGET: u64 = 2_000_000;

fn main() -> ExitCode {
    CLI.run(|args| {
        let pass = match args.command() {
            "lint" => lint_cmd(args),
            "all" => all_cmd(args),
            "random" => random_cmd(args),
            "oracle" => oracle_cmd(args),
            "bounds" => bounds_cmd(args),
            "slack" => slack_cmd(args),
            "explain" => explain_cmd(args),
            other => unreachable!("`{other}` is declared but not dispatched"),
        }?;
        Ok(if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
    })
}

fn scale(args: &Parsed) -> Result<Scale, String> {
    Ok(args.get("--scale")?.unwrap_or(Scale::Tiny))
}

fn lookup(name: &str, scale: Scale) -> Result<Workload, String> {
    ff_workloads::benchmark_by_name(name, scale)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try e.g. `mcf-like` or `181.mcf`)"))
}

/// Prints `targets` wrapped in the versioned JSON envelope every
/// `--json` mode shares: `{"schema": N, "targets": [...]}`.
fn print_json<T: Serialize>(targets: &T) {
    let e = serde_json::json!({ "schema": ANALYSIS_SCHEMA_VERSION, "targets": targets });
    println!("{}", serde_json::to_string_pretty(&e).expect("serializable report"));
}

/// One linted program in `--json` output.
#[derive(Debug, Serialize)]
struct TargetJson {
    target: String,
    errors: usize,
    warnings: usize,
    infos: usize,
    diagnostics: Vec<DiagnosticJson>,
}

#[derive(Debug, Serialize)]
struct DiagnosticJson {
    check: String,
    severity: String,
    pc: Option<usize>,
    message: String,
}

fn target_json(target: &str, report: &AnalysisReport) -> TargetJson {
    TargetJson {
        target: target.to_string(),
        errors: report.errors(),
        warnings: report.warnings(),
        infos: report.count(Severity::Info),
        diagnostics: report
            .diagnostics
            .iter()
            .map(|d| DiagnosticJson {
                check: d.check.code().to_string(),
                severity: d.severity.label().to_string(),
                pc: d.pc,
                message: d.message.clone(),
            })
            .collect(),
    }
}

/// Whether `report` passes under the chosen strictness.
fn passes(report: &AnalysisReport, strict: bool) -> bool {
    if strict {
        report.diagnostics.is_empty()
    } else {
        report.is_legal()
    }
}

/// Lints one named program, printing findings; returns pass/fail.
fn lint_one(
    name: &str,
    program: &Program,
    cfg: &MachineConfig,
    strict: bool,
    json_out: Option<&mut Vec<TargetJson>>,
) -> bool {
    let report = analyze_program(program, cfg);
    let ok = passes(&report, strict);
    if let Some(out) = json_out {
        out.push(target_json(name, &report));
    } else if report.diagnostics.is_empty() {
        println!(
            "{name}: clean ({} instructions, {} groups)",
            program.len(),
            program.group_count()
        );
    } else {
        println!(
            "{name}: {} error(s), {} warning(s), {} info(s)",
            report.errors(),
            report.warnings(),
            report.count(Severity::Info)
        );
        print!("{}", report.render(program));
    }
    ok
}

fn lint_cmd(args: &Parsed) -> Result<bool, String> {
    let w = lookup(&args.positional()[0], scale(args)?)?;
    let cfg = MachineConfig::paper_table1();
    let mut sink = args.has("--json").then(Vec::new);
    let ok = lint_one(w.name, &w.program, &cfg, args.has("--strict"), sink.as_mut());
    if let Some(sink) = sink {
        print_json(&sink);
    }
    Ok(ok)
}

fn all_cmd(args: &Parsed) -> Result<bool, String> {
    let cfg = MachineConfig::paper_table1();
    let strict = args.has("--strict");
    let mut sink = args.has("--json").then(Vec::new);
    let mut ok = true;
    for w in ff_workloads::paper_benchmarks(scale(args)?) {
        ok &= lint_one(w.name, &w.program, &cfg, strict, sink.as_mut());
    }
    if let Some(sink) = sink {
        print_json(&sink);
    } else if ok {
        println!("all kernels pass");
    }
    Ok(ok)
}

/// The seed count `N` of `random` and `oracle`.
fn seed_count(args: &Parsed) -> Result<u64, String> {
    args.positional()[0].parse().map_err(|e| format!("bad seed count: {e}"))
}

fn random_cmd(args: &Parsed) -> Result<bool, String> {
    let n = seed_count(args)?;
    let cfg = MachineConfig::paper_table1();
    let gen_cfg = GeneratorConfig::default();
    let strict = args.has("--strict");
    let mut sink = args.has("--json").then(Vec::new);
    let mut ok = true;
    for seed in 0..n {
        let (program, _) = random_program(seed, &gen_cfg);
        ok &= lint_one(&format!("random-{seed}"), &program, &cfg, strict, sink.as_mut());
    }
    if let Some(sink) = sink {
        print_json(&sink);
    } else if ok {
        println!("{n} random programs pass");
    }
    Ok(ok)
}

#[derive(Debug, Serialize)]
struct OracleJson {
    seed: u64,
    instrs: u64,
    halted: bool,
    failures: Vec<String>,
}

fn oracle_cmd(args: &Parsed) -> Result<bool, String> {
    let json = args.has("--json");
    let budget = args.get("--budget")?.unwrap_or(ORACLE_BUDGET);
    let n = seed_count(args)?;
    let cfg = MachineConfig::paper_table1();
    let gen_cfg = GeneratorConfig::default();
    let mut rows = Vec::new();
    let mut ok = true;
    for seed in 0..n {
        let (program, mem) = random_program(seed, &gen_cfg);
        let report = differential_oracle(&program, &mem, &cfg, budget);
        ok &= report.ok();
        if json {
            rows.push(OracleJson {
                seed,
                instrs: report.instrs,
                halted: report.halted,
                failures: report.failures.iter().map(ToString::to_string).collect(),
            });
        } else if report.ok() {
            println!("seed {seed}: ok ({} instructions)", report.instrs);
        } else {
            println!("seed {seed}: DIVERGED");
            for f in &report.failures {
                println!("  {f}");
            }
        }
    }
    if json {
        print_json(&rows);
    } else if ok {
        println!("{n} seeds match across all models");
    }
    Ok(ok)
}

/// Interpreter replay budget: the workload's dynamic-instruction budget
/// with `issue_width` headroom, so the replay always covers the full
/// stream the models retire.
fn replay_budget(w: &Workload, cfg: &MachineConfig) -> u64 {
    w.budget.saturating_mul(cfg.issue_width.max(1) as u64)
}

#[derive(Debug, Serialize)]
struct MeasuredJson {
    model: String,
    cycles: u64,
    /// `cycles - lower_bound`: cycles the model spends above the static
    /// floor (schedule overhead).
    overhead: u64,
}

#[derive(Debug, Serialize)]
struct BoundsJson {
    target: String,
    bounds: CycleBounds,
    resource_bound: u64,
    lower_bound: u64,
    measured: Vec<MeasuredJson>,
    /// Whether `lower_bound <= cycles` held for every model.
    sound: bool,
}

fn bounds_row(w: &Workload, cfg: &MachineConfig) -> BoundsJson {
    let b = cycle_bounds(&w.program, &w.memory, cfg, replay_budget(w, cfg));
    let measured: Vec<MeasuredJson> = measured_cycles(&w.program, &w.memory, cfg, w.budget)
        .into_iter()
        .map(|(model, cycles)| MeasuredJson {
            model: model.to_string(),
            cycles,
            overhead: cycles.saturating_sub(b.lower_bound()),
        })
        .collect();
    let sound = b.halted && measured.iter().all(|m| b.lower_bound() <= m.cycles);
    BoundsJson {
        target: w.name.to_string(),
        bounds: b,
        resource_bound: b.resource_bound(),
        lower_bound: b.lower_bound(),
        measured,
        sound,
    }
}

fn print_bounds_row(row: &BoundsJson) {
    let b = &row.bounds;
    let measured: Vec<String> = row
        .measured
        .iter()
        .map(|m| format!("{} {} (+{})", m.model, m.cycles, m.overhead))
        .collect();
    println!(
        "{:12} retired {:6}  bound {:6} (dep {} / res {})  measured: {}{}",
        row.target,
        b.retired,
        row.lower_bound,
        b.dep_height_all_hit,
        row.resource_bound,
        measured.join("  "),
        if row.sound { "" } else { "  ** BOUND VIOLATED **" }
    );
}

fn bounds_cmd(args: &Parsed) -> Result<bool, String> {
    let scale = scale(args)?;
    let workloads: Vec<Workload> = match args.positional().first() {
        None => ff_workloads::paper_benchmarks(scale),
        Some(name) => vec![lookup(name, scale)?],
    };
    let cfg = MachineConfig::paper_table1();
    let rows: Vec<BoundsJson> = workloads.iter().map(|w| bounds_row(w, &cfg)).collect();
    let ok = rows.iter().all(|r| r.sound);
    if args.has("--json") {
        print_json(&rows);
    } else {
        for row in &rows {
            print_bounds_row(row);
        }
        if ok {
            println!("all bounds hold (lower bound <= measured cycles for every model)");
        }
    }
    Ok(ok)
}

#[derive(Debug, Serialize)]
struct SlackRowJson {
    pc: usize,
    group: usize,
    earliest: u64,
    latest: u64,
    slack: u64,
    region_slack: u64,
    insn: String,
}

#[derive(Debug, Serialize)]
struct SlackJson {
    target: String,
    schedule_length: u64,
    rows: Vec<SlackRowJson>,
}

fn slack_table(w: &Workload, cfg: &MachineConfig) -> SlackJson {
    let graph = ScheduleGraph::of_program(&w.program, cfg);
    let rows = w
        .program
        .iter()
        .enumerate()
        .map(|(pc, insn)| SlackRowJson {
            pc,
            group: graph.group_of(pc),
            earliest: graph.earliest_start(pc),
            latest: graph.latest_start(pc),
            slack: graph.slack(pc),
            region_slack: graph.region_slack(pc),
            insn: insn.to_string(),
        })
        .collect();
    SlackJson { target: w.name.to_string(), schedule_length: graph.schedule_length(), rows }
}

fn slack_cmd(args: &Parsed) -> Result<bool, String> {
    let w = lookup(&args.positional()[0], scale(args)?)?;
    let cfg = MachineConfig::paper_table1();
    let table = slack_table(&w, &cfg);
    if args.has("--json") {
        print_json(&std::slice::from_ref(&table));
    } else {
        println!(
            "{}: static schedule length {} cycle(s) ({} instructions, {} groups)",
            table.target,
            table.schedule_length,
            w.program.len(),
            w.program.group_count()
        );
        println!(
            "{:>4} {:>5} {:>8} {:>6} {:>5} {:>6}  instruction",
            "pc", "group", "earliest", "latest", "slack", "region"
        );
        for r in &table.rows {
            let mark = if r.slack == 0 { "*" } else { " " };
            println!(
                "{:>4} {:>5} {:>8} {:>6} {:>4}{} {:>6}  {}",
                r.pc, r.group, r.earliest, r.latest, r.slack, mark, r.region_slack, r.insn
            );
        }
        println!("(* = zero slack: on the static critical path)");
    }
    Ok(true)
}

#[derive(Debug, Serialize)]
struct CriticalJson {
    pc: usize,
    start: u64,
    insn: String,
}

#[derive(Debug, Serialize)]
struct ExplainJson {
    target: String,
    schedule_length: u64,
    lower_bound: u64,
    dep_height_all_hit: u64,
    dep_height_all_miss: u64,
    resource_bound: u64,
    measured: Vec<MeasuredJson>,
    critical_path: Vec<CriticalJson>,
}

fn explain_cmd(args: &Parsed) -> Result<bool, String> {
    let w = lookup(&args.positional()[0], scale(args)?)?;
    let cfg = MachineConfig::paper_table1();
    let row = bounds_row(&w, &cfg);
    let graph = ScheduleGraph::of_program(&w.program, &cfg);
    let path: Vec<CriticalJson> = graph
        .critical_path()
        .into_iter()
        .map(|s| CriticalJson {
            pc: s.pc,
            start: s.start,
            insn: w.program.get(s.pc).map(ToString::to_string).unwrap_or_default(),
        })
        .collect();
    let out = ExplainJson {
        target: row.target.clone(),
        schedule_length: graph.schedule_length(),
        lower_bound: row.lower_bound,
        dep_height_all_hit: row.bounds.dep_height_all_hit,
        dep_height_all_miss: row.bounds.dep_height_all_miss,
        resource_bound: row.resource_bound,
        measured: row.measured,
        critical_path: path,
    };
    if args.has("--json") {
        print_json(&std::slice::from_ref(&out));
    } else {
        println!(
            "{}: dynamic lower bound {} cycle(s) over {} retired",
            out.target, out.lower_bound, row.bounds.retired
        );
        println!(
            "  dependence height {} (all-hit) / {} (all-miss); resource bound {}",
            out.dep_height_all_hit, out.dep_height_all_miss, out.resource_bound
        );
        for m in &out.measured {
            println!(
                "  measured {:5} {:6} cycle(s) = bound + {} schedule overhead",
                format!("{}:", m.model),
                m.cycles,
                m.overhead
            );
        }
        println!("  static straight-line schedule: {} cycle(s)", out.schedule_length);
        if out.critical_path.is_empty() {
            println!("  critical path: none (purely sequential schedule)");
        } else {
            println!("  static critical path (earliest start -> instruction):");
            for s in &out.critical_path {
                println!("    @{:>4}  {:4}: {}", s.start, s.pc, s.insn);
            }
        }
    }
    Ok(row.sound)
}
