//! CLI contract tests for `ff_exp` and the `ff_report` commands that
//! read what it stores: usage errors exit 2 and list the registry, a
//! full cached sweep is queryable without an ingest step, and a bad
//! model name is a clean error rather than a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use ff_bench::experiments::REGISTRY;

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-exp-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn missing_or_unknown_experiment_exits_2_and_lists_the_registry() {
    for args in [&[][..], &["fig9"][..], &["fig6", "--no-cahce"][..], &["table1", "--json=yes"][..]]
    {
        let out = run(env!("CARGO_BIN_EXE_ff_exp"), args);
        assert_eq!(out.status.code(), Some(2), "ff_exp {args:?}");
        assert!(out.stdout.is_empty(), "ff_exp {args:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: ff_exp <name>"), "{stderr}");
        for experiment in REGISTRY {
            assert!(stderr.contains(experiment.name()), "{stderr}");
        }
    }
}

#[test]
fn a_full_cached_sweep_is_readable_by_pareto_without_ingest() {
    let dir = temp_dir("pareto");
    let cache = dir.join("cache");
    let out = run(
        env!("CARGO_BIN_EXE_ff_exp"),
        &["ablate_queue", "tiny", "--cache-dir", cache.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let runs = dir.join("runs");
    let out = run(
        env!("CARGO_BIN_EXE_ff_report"),
        &[
            "pareto",
            "ablate_queue",
            "--cost",
            "size",
            "--scale",
            "tiny",
            "--json",
            "--dir",
            runs.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"on_frontier\": true"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ff_report_list_heads_the_key_column_where_the_keys_start() {
    let dir = temp_dir("list");
    let dir_arg = dir.to_str().unwrap();
    let perf = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perf");
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &["ingest-perf", perf, "--dir", dir_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &["list", "--dir", dir_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("a header line");
    let first = lines.find(|l| !l.starts_with('-')).expect("a record line");
    assert_eq!(header.find("key"), first.find("perf;file="), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig7_after_fig6_simulates_nothing() {
    let dir = temp_dir("shared-runs");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let sweep = |name: &str| {
        let out =
            run(env!("CARGO_BIN_EXE_ff_exp"), &[name, "tiny", "--json", "--cache-dir", cache]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(sweep("fig6").contains("\"computed\":30,"));
    let fig7 = sweep("fig7");
    assert!(fig7.contains("\"computed\":0,") && fig7.contains("\"cache_hits\":30,"), "{fig7}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_rejects_an_unknown_model_and_keys_known_ones_canonically() {
    let dir = temp_dir("capture");
    let dir_arg = dir.to_str().unwrap();
    let capture = |model: &str| {
        let args = ["capture", "--bench", "mcf-like", "--model", model, "--scale", "tiny"];
        run(env!("CARGO_BIN_EXE_ff_report"), &[&args[..], &["--dir", dir_arg]].concat())
    };
    let out = capture("3P");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown model"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.exists(), "a rejected capture stores nothing");

    let out = capture("2p");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("golden;kernel=mcf-like;model=2P;"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ff_report_rejects_an_unknown_flag_before_writing_anything() {
    let dir = temp_dir("bogus-flag");
    let out_file = dir.join("dashboard.html");
    let (out_arg, dir_arg) = (out_file.to_str().unwrap(), dir.to_str().unwrap());
    for (args, why) in [
        (&["html", "--bogus", "--out", out_arg][..], "unknown flag `--bogus`"),
        (&["html", "--bless", "--out", out_arg][..], "`--bless` is not a flag of `html`"),
        (&["list", "--cost", "size", "--dir", dir_arg][..], "`--cost` is not a flag of `list`"),
        (&["list", "--json=no", "--dir", dir_arg][..], "`--json` is not a flag of `list`"),
        (&["perf", "--bogus", "--perf-dir", dir_arg][..], "unknown flag `--bogus`"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_ff_report"), args);
        assert_eq!(out.status.code(), Some(2), "ff_report {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{stderr}");
        assert!(stderr.contains("usage: ff_report"), "{stderr}");
        assert!(out.stdout.is_empty(), "ff_report {args:?} printed output");
        assert!(!dir.exists(), "ff_report {args:?} wrote {}", dir.display());
    }
}

#[test]
fn ff_report_perf_writes_a_snapshot_that_html_reads_and_gates_fast_forward() {
    let dir = temp_dir("perf");
    let perf_dir = dir.join("perf");
    let perf_arg = perf_dir.to_str().unwrap();
    // An unmeetable --ff-gate exits 2 even under --report-only, after
    // the snapshot is written.
    let gated =
        ["perf", "--scale=tiny", "--perf-dir", perf_arg, "--report-only", "--ff-gate", "1e9"];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &gated);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no previous snapshot in"), "{stdout}");
    assert!(stdout.contains("below --ff-gate"), "{stdout}");
    let snapshots: Vec<_> =
        std::fs::read_dir(&perf_dir).unwrap().map(|e| e.unwrap().path()).collect();
    let [snapshot] = snapshots.as_slice() else { panic!("want one snapshot: {snapshots:?}") };
    let text = std::fs::read_to_string(snapshot).unwrap();
    for section in ["sim.base", "sim.runahead", "trace.jsonl_sink", "ff.on.2p", "ff.off.base"] {
        assert!(text.contains(&format!("\"{section}\"")), "{section} missing:\n{text}");
    }

    // A second run compares against the first under its tag.
    let tagged = ["perf", "--scale", "tiny", "--perf-dir", perf_arg, "--report-only", "--tag", "x"];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &tagged);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("vs {}", snapshot.display())), "{stdout}");

    let html = dir.join("d.html");
    let runs = dir.join("runs");
    let out = run(
        env!("CARGO_BIN_EXE_ff_report"),
        &[
            "html",
            "--perf-dir",
            perf_arg,
            "--out",
            html.to_str().unwrap(),
            "--dir",
            runs.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 perf snapshots"));

    // The latest snapshot unparsable is an error, not a fall-back.
    std::fs::write(perf_dir.join("BENCH_9999-12-31.json"), "{ not json").unwrap();
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &tagged);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse") && stderr.contains("BENCH_9999-12-31.json"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
