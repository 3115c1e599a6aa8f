//! ff_benchmark — the repository benchmark.
//!
//! ```text
//! ff_benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--spans DIR] [--out FILE] [--tiny]
//! ff_benchmark compare A.json B.json
//! ff_benchmark bless [--workload W]
//! ```
//!
//! `run` with `--workload` measures that workload in this process and
//! prints a table, then one JSON summary line (the last line of stdout).
//! Without it, each workload runs in a child process of its own, one at
//! a time. `--trace 1` adds traced passes and layer probes: the summary
//! then carries the per-layer metrics, `--spans DIR` writes the spans as
//! Chrome trace JSON. `--out` writes every sample for `compare`. Exits
//! non-zero when any output check fails.

mod compare;
mod layers;
mod metrics;
mod run;
mod spans;
mod workload;

use metrics::{RunFile, WorkloadResult, SCHEMA};
use run::Options;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::Kind;

const USAGE: &str = "usage:
  ff_benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--spans DIR] [--out FILE] [--tiny]
  ff_benchmark compare A.json B.json
  ff_benchmark bless [--workload W]
workloads: issue-bound, miss-bound, traced, oracle-random";

/// Parsed `run` / `bless` flags.
#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    opts: Options,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    /// Internal: print only the full result record (used by the parent
    /// `run` that spawns one child per workload).
    child: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Options { seed: 1, seconds: 20.0, trace: false, tiny: false },
        spans: None,
        out: None,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Kind::parse(v).ok_or_else(|| format!("unknown workload `{v}`\n{USAGE}"))?);
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds must be within 0..=3600, got {s}"));
                }
                a.opts.seconds = s;
            }
            "--trace" => {
                a.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--tiny" => a.opts.tiny = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_run_file(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let file: RunFile = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if file.schema != SCHEMA {
        return Err(format!("{path}: results schema {}, this build reads {SCHEMA}", file.schema));
    }
    Ok(file)
}

fn run_file(workloads: Vec<WorkloadResult>) -> RunFile {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    RunFile { schema: SCHEMA, host: ff_bench::selfprof::HostInfo::detect(), cpus, workloads }
}

/// Runs one workload in this process.
fn run_one(kind: Kind, a: &Args) -> Result<WorkloadResult, String> {
    let (result, rec) = run::run_workload(kind, &a.opts)?;
    if let (Some(dir), true) = (&a.spans, a.opts.trace) {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        write(&dir.join(format!("{}.trace.json", kind.name())), &rec.chrome_json())?;
    }
    Ok(result)
}

/// Runs every workload, each in a child process of its own.
fn run_children(a: &Args) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut results = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--child", "--workload", kind.name()])
            .args(["--seed", &a.opts.seed.to_string(), "--seconds", &a.opts.seconds.to_string()])
            .args(["--trace", if a.opts.trace { "1" } else { "0" }]);
        if a.opts.tiny {
            cmd.arg("--tiny");
        }
        if let Some(dir) = &a.spans {
            cmd.arg("--spans").arg(dir);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        let result: WorkloadResult = serde_json::from_str(line).map_err(|e| {
            format!("{}: child exited with {} and no result ({e})", kind.name(), out.status)
        })?;
        println!("{}", result.table());
        results.push(result);
    }
    Ok(results)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse(args)?;
    let results = match a.workload {
        Some(kind) => {
            let result = run_one(kind, &a)?;
            if a.child {
                println!("{}", serde_json::to_string(&result).expect("serializable result"));
                return Ok(ExitCode::SUCCESS);
            }
            print!("{}", result.table());
            vec![result]
        }
        None => run_children(&a)?,
    };
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if let Some(path) = &a.out {
        let file = run_file(results.clone());
        write(path, &(serde_json::to_string_pretty(&file).expect("serializable results") + "\n"))?;
    }
    match results.as_slice() {
        [one] => println!("{}", one.summary_line()),
        all => {
            let attempted: u64 = all.iter().map(|r| r.attempted).sum();
            println!(
                "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed}}}",
                failed == 0
            );
        }
    }
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two results files\n{USAGE}"));
    };
    let (table, bad) = compare::compare(&read_run_file(a)?, &read_run_file(b)?);
    print!("{table}");
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn cmd_bless(args: &[String]) -> Result<ExitCode, String> {
    let a = parse(args)?;
    let kinds = a.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    for kind in kinds {
        let cells = run::bless(kind)?;
        let path = workload::expected_path(kind);
        write(&path, &(serde_json::to_string_pretty(&cells).expect("serializable cells") + "\n"))?;
        println!("wrote {} ({} cells)", path.display(), cells.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("bless") => cmd_bless(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
