//! CLI contract tests for the `ff_verify` binary: a malformed command
//! line exits 2 with the usage before any check runs, and both flag
//! spellings select the same scale.

use std::process::{Command, Output};

fn ff_verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ff_verify")).args(args).output().expect("spawn ff_verify")
}

#[test]
fn a_malformed_command_line_exits_2_with_the_usage_and_no_output() {
    for args in [
        &["all", "--bogus"][..],
        &["all", "extra"][..],
        &["lint"][..],
        &["lint", "mcf-like", "--json=yes"][..],
        &["oracle", "3", "--budget"][..],
        &["random", "3", "--scale", "tiny"][..],
        &["frobnicate"][..],
        &[][..],
    ] {
        let out = ff_verify(args);
        assert_eq!(out.status.code(), Some(2), "ff_verify {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: ff_verify"), "{stderr}");
        assert!(stderr.contains("ff_verify explain <kernel>"), "{stderr}");
        assert!(out.stdout.is_empty(), "ff_verify {args:?} printed output");
    }
}

#[test]
fn a_bad_value_exits_1() {
    for args in [&["lint", "mcf-like", "--scale", "huge"][..], &["random", "many"][..]] {
        let out = ff_verify(args);
        assert_eq!(out.status.code(), Some(1), "ff_verify {args:?}");
    }
}

#[test]
fn scale_equals_value_reads_like_scale_space_value() {
    let a = ff_verify(&["lint", "mcf-like", "--scale=test", "--json"]);
    let b = ff_verify(&["lint", "mcf-like", "--scale", "test", "--json"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout);
    assert!(String::from_utf8_lossy(&a.stdout).contains("\"target\": \"mcf-like\""));
}
