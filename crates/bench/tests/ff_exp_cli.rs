//! CLI contract tests for `ff_exp` and the `ff_report` commands that
//! read what it stores: usage errors exit 2 and list the registry,
//! pareto reads a cached sweep's runs without simulating them, and a
//! bad model name or a golden capture the dashboard cannot parse is a
//! clean error rather than a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use ff_bench::experiments::REGISTRY;
use ff_bench::report::{RunRecord, Warehouse};
use ff_core::{CycleClass, SimReport, StallCause};
use serde::{Deserialize, Value};

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
fn pareto_after_a_cached_sweep_simulates_nothing() {
    let dir = temp_dir("pareto");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let out = run(env!("CARGO_BIN_EXE_ff_exp"), &["ablate_queue", "tiny", "--cache-dir", cache]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let args = ["pareto", "ablate_queue", "--cost", "size", "--scale", "tiny", "--json"];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &[&args[..], &["--cache-dir", cache]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("20 runs — 0 computed, 20 cached, 0 failed"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"on_frontier\": true"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ff_report_list_heads_the_key_column_where_the_keys_start() {
    let dir = temp_dir("list");
    let dir_arg = dir.to_str().unwrap();
    let capture = ["capture", "--bench", "mcf-like", "--model", "2P", "--scale", "tiny"];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &[&capture[..], &["--dir", dir_arg]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &["list", "--dir", dir_arg]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("a header line");
    let first = lines.find(|l| !l.starts_with('-')).expect("a record line");
    assert_eq!(header.find("key"), first.find("golden;kernel="), "{stdout}");
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
fn a_degraded_capture_moves_only_the_degraded_cycles() {
    let dir = temp_dir("degrade");
    let dir_arg = dir.to_str().unwrap();
    let capture = ["capture", "--bench", "mcf-like", "--model", "runahead", "--scale", "tiny"];
    for degrade in [&[][..], &["--degrade", "load.mem=1.5"][..]] {
        let args = [&capture[..], degrade, &["--dir", dir_arg]].concat();
        let out = run(env!("CARGO_BIN_EXE_ff_report"), &args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let records = Warehouse::open(&dir).list().unwrap();
    let [clean, degraded] = records.as_slice() else { panic!("want two records: {records:?}") };
    assert!(degraded.key.contains("params=degrade=load.memx1.5"), "{}", degraded.key);
    let report = |rec: &RunRecord| SimReport::from_value(&rec.payload).unwrap();
    let (clean, degraded) = (report(clean), report(degraded));
    assert!(clean.runahead.is_some_and(|ra| ra.episodes > 0), "{:?}", clean.runahead);
    let added = (clean.breakdown2[StallCause::LoadMem] as f64 * 0.5).round() as u64;
    assert!(added > 0, "tiny mcf-like must stall on memory");
    let mut want = clean.clone();
    want.cycles += added;
    want.breakdown.charge_n(CycleClass::LoadStall, added);
    want.breakdown2.charge_n(StallCause::LoadMem, added);
    assert_eq!(degraded, want, "degrade moves only the degraded cycles");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn html_names_a_golden_capture_in_an_old_report_layout_and_writes_nothing() {
    let dir = temp_dir("old-golden");
    let dir_arg = dir.to_str().unwrap();
    let capture = ["capture", "--bench", "li-like", "--model", "base", "--scale", "tiny"];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &[&capture[..], &["--dir", dir_arg]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let wh = Warehouse::open(&dir);
    let [rec]: [RunRecord; 1] = wh.list().unwrap().try_into().unwrap();
    // The layout that carried a flat `metrics` copy and no `runahead`.
    let Value::Object(mut fields) = rec.payload.clone() else { panic!("{:?}", rec.payload) };
    fields.retain(|(name, _)| name != "runahead");
    let metrics = serde_json::from_str(r#"{"counters": [], "histograms": []}"#).unwrap();
    fields.push(("metrics".to_string(), metrics));
    wh.put(&RunRecord { payload: Value::Object(fields), ..rec.clone() }).unwrap();

    let out_file = dir.join("dashboard.html");
    let html =
        ["html", "--dir", dir_arg, "--perf-dir", dir_arg, "--out", out_file.to_str().unwrap()];
    let out = run(env!("CARGO_BIN_EXE_ff_report"), &html);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("parse {}: missing field `runahead`", rec.key)), "{stderr}");
    assert!(!out_file.exists(), "a failed render writes nothing");
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
