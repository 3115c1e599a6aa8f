//! CLI contract tests for the `ff_trace` binary: bad invocations must
//! exit nonzero with the usage text, and the analysis subcommands must
//! work end-to-end on a freshly recorded trace.

use ff_bench::report::warehouse::fnv1a64;
use std::path::Path;
use std::process::Command;

fn ff_trace(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ff_trace")).args(args).output().expect("spawn ff_trace")
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = ff_trace(&["frobnicate"]);
    assert!(!out.status.success(), "unknown subcommand must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr must print usage, got:\n{stderr}");
    assert!(stderr.contains("ff_trace cpi"), "usage must list cpi:\n{stderr}");
}

#[test]
fn no_arguments_exits_nonzero_with_usage() {
    let out = ff_trace(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_trace_file_exits_nonzero() {
    let subs = [
        "summary", "cpi", "profile", "queue", "stalls", "slip", "pipeview", "konata", "snapshot",
        "chrome",
    ];
    for sub in subs {
        let mut args = vec![sub, "/nonexistent/path/trace.jsonl"];
        if sub == "chrome" {
            args.push("/nonexistent/path/trace.chrome.json");
        }
        let out = ff_trace(&args);
        assert!(!out.status.success(), "{sub} on a missing file must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot open"), "{sub} stderr:\n{stderr}");
    }
}

#[test]
fn record_with_a_bad_model_leaves_an_existing_file_alone() {
    let dir = std::env::temp_dir().join(format!("ff_trace_bad_model_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let before = b"{\"ARedirect\":{\"cycle\":4,\"pc\":9}}\n";
    std::fs::write(&trace, before).unwrap();
    // A bad value exits 1, a malformed command line 2.
    for (flags, code) in [(&["--model", "3p"][..], 1), (&["--bogus"][..], 2), (&["--max"][..], 2)] {
        let out = ff_trace(&[&["record", trace.to_str().unwrap()][..], flags].concat());
        assert_eq!(out.status.code(), Some(code), "record {flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "stderr must print usage, got:\n{stderr}");
        assert_eq!(std::fs::read(&trace).unwrap(), before, "record {flags:?} touched the trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_equals_value_reads_like_scale_space_value() {
    let dir = std::env::temp_dir().join(format!("ff_trace_scale_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outputs = Vec::new();
    for (name, flags) in [("a", &["--scale=tiny"][..]), ("b", &["--scale", "tiny"][..])] {
        let trace = dir.join(format!("{name}.jsonl"));
        let out =
            ff_trace(&[&["record", trace.to_str().unwrap(), "--max", "500"][..], flags].concat());
        assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
        outputs.push(std::fs::read(&trace).unwrap());
    }
    assert_eq!(outputs[0], outputs[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_then_cpi_and_profile_produce_output() {
    let dir = std::env::temp_dir().join(format!("ff_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let trace_str = trace.to_str().unwrap();

    let out = ff_trace(&["record", trace_str, "--model", "2p", "--bench", "mcf-like"]);
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(Path::new(trace_str).exists());

    let out = ff_trace(&["cpi", trace_str]);
    assert!(out.status.success(), "cpi failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cpi="), "cpi output:\n{text}");
    assert!(text.contains("load.mem") || text.contains("issue"), "cpi output:\n{text}");

    let out = ff_trace(&["cpi", trace_str, "--json"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"classes\""));

    let out = ff_trace(&["profile", trace_str, "--top", "3", "--bench", "mcf-like"]);
    assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stall profile:"), "profile output:\n{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A `pipeview` window that excludes every instruction — past the end
/// of the trace, inverted (`--from` > `--to`), at the unsigned extreme,
/// or selecting no sequence numbers — must exit 0 with a clean empty
/// diagram, never a panic or zero-column garbage rows.
#[test]
fn pipeview_degenerate_windows_render_clean_empty_diagrams() {
    let dir = std::env::temp_dir().join(format!("ff_trace_pipeview_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let trace_str = trace.to_str().unwrap();

    let out = ff_trace(&["record", trace_str, "--bench", "mcf-like", "--max", "2000"]);
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));

    let windows: &[&[&str]] = &[
        &["--from", "99999999"],                // entirely past the trace end
        &["--from", "100", "--to", "50"],       // inverted window
        &["--from", "18446744073709551615"],    // u64::MAX: `from + 80` must not overflow
        &["--to", "0"],                         // empty prefix
        &["--seq-from", "999999"],              // no matching sequence numbers
        &["--seq-from", "10", "--seq-to", "5"], // inverted sequence window
    ];
    for window in windows {
        let mut args = vec!["pipeview", trace_str];
        args.extend_from_slice(window);
        let out = ff_trace(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "pipeview {window:?} failed:\n{stderr}");
        assert!(
            stdout.contains("(no flights in window)"),
            "pipeview {window:?} must note the empty window:\n{stdout}"
        );
        assert!(stdout.starts_with("pipeview cycles"), "header missing for {window:?}:\n{stdout}");
        // Exactly header + ruler + note: no garbled flight rows.
        assert_eq!(stdout.lines().count(), 3, "unexpected rows for {window:?}:\n{stdout}");
    }

    // A normal window on the same trace still renders flight rows.
    let out = ff_trace(&["pipeview", trace_str, "--from", "0", "--to", "40"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("(no flights in window)"), "real window came up empty:\n{stdout}");
    assert!(stdout.lines().count() > 3, "expected flight rows:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Every text view of `ff_trace` on gap-like at `tiny` scale, on the
/// two-pass and the runahead model (`profile` on the two-pass model
/// only), is pinned byte for byte against
/// `tests/golden/ff_trace/`. The Chrome export is too large to commit,
/// so it is pinned by its length and FNV-1a hash.
#[test]
fn views_of_gap_like_match_the_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ff_trace");
    let dir = std::env::temp_dir().join(format!("ff_trace_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chrome_pins =
        [("2p", 276_725, 0x07d7_8d60_5526_67c7), ("runahead", 87_037, 0x2304_79fb_1087_694d)];
    for (model, chrome_len, chrome_hash) in chrome_pins {
        let trace = dir.join(format!("{model}.jsonl"));
        let trace = trace.to_str().unwrap();
        let out = ff_trace(&["record", trace, "--model", model, "--bench", "gap-like"]);
        assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
        let mut views: Vec<(&str, &[&str])> = vec![
            ("summary", &[]),
            ("cpi", &[]),
            ("queue", &[]),
            ("stalls", &[]),
            ("slip", &[]),
            ("pipeview", &[]),
            ("snapshot", &["--start", "0", "--end", "64"]),
        ];
        if model == "2p" {
            views.push(("profile", &["--bench", "gap-like"]));
        }
        for (view, extra) in &views {
            let mut args = vec![*view, trace];
            args.extend_from_slice(extra);
            let out = ff_trace(&args);
            assert!(
                out.status.success(),
                "{view} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let path = golden.join(format!("gap_like_{model}.{view}.txt"));
            let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                out.stdout == want,
                "{model} {view} differs from {}:\n{}",
                path.display(),
                String::from_utf8_lossy(&out.stdout)
            );
        }
        let json = dir.join(format!("{model}.chrome.json"));
        let out = ff_trace(&["chrome", trace, json.to_str().unwrap()]);
        assert!(out.status.success(), "chrome failed: {}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&json).unwrap();
        assert_eq!(bytes.len(), chrome_len, "{model} chrome export length");
        assert_eq!(fnv1a64(&bytes), chrome_hash, "{model} chrome export hash");
    }
    std::fs::remove_dir_all(&dir).ok();
}
