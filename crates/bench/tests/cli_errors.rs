//! Bad outside input to the bench binaries is a one-line error and exit
//! status 2, never a panic (status 101).

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn unknown_scenario_exits_2() {
    for bin in [env!("CARGO_BIN_EXE_campaign"), env!("CARGO_BIN_EXE_cluster")] {
        assert_usage_error(&run(bin, &["--scenario", "no_such"]), "unknown scenario");
    }
}

#[test]
fn unwritable_out_exits_2() {
    // A path beneath a regular file can never be created.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml").join("rows.jsonl");
    let out = out.to_str().expect("utf-8 path");
    let cases = [
        (env!("CARGO_BIN_EXE_campaign"), "transient_blip"),
        (env!("CARGO_BIN_EXE_cluster"), "steady"),
    ];
    for (bin, scenario) in cases {
        let args = ["--scenario", scenario, "--rounds", "20", "--out", out];
        assert_usage_error(&run(bin, &args), "cannot write");
    }
}

#[test]
fn unwritable_trace_exits_2() {
    // A trace path beneath a regular file can never be opened.
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml").join("x.jsonl");
    let trace = trace.to_str().expect("utf-8 path");
    for bin in [env!("CARGO_BIN_EXE_failure_drill"), env!("CARGO_BIN_EXE_fig6")] {
        let args = ["--rounds", "30", "--trace", trace];
        assert_usage_error(&run(bin, &args), "cannot open trace output");
    }
}

#[test]
fn threads_flag_is_rejected() {
    assert_usage_error(&run(env!("CARGO_BIN_EXE_fig6"), &["--threads", "2"]), "--threads");
}
