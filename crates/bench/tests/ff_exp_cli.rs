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
    for args in [&[][..], &["fig9"][..], &["fig6", "--no-cahce"][..]] {
        let out = run(env!("CARGO_BIN_EXE_ff_exp"), args);
        assert_eq!(out.status.code(), Some(2), "ff_exp {args:?}");
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
    let out = run(
        env!("CARGO_BIN_EXE_ff_report"),
        &["html", "--bogus", "--out", out_file.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--bogus`"), "{stderr}");
    assert!(stderr.contains("usage: ff_report"), "{stderr}");
    assert!(!out_file.exists(), "ff_report wrote {}", out_file.display());
    assert!(!dir.exists());
}
