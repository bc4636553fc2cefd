//! The benchmark's own tests: the smoke mode passes (every workload
//! runs, every metric is present with its unit, every gate fires on a
//! violated input), and the result line carries exactly the metrics
//! `BENCHMARK.json` declares.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

fn perfbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--out-dir")
        .arg(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_out"))
        .output()
        .expect("perfbench runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

/// The result line: the last line of standard output.
fn result(stdout: &str) -> Value {
    let last = stdout
        .lines()
        .last()
        .expect("perfbench printed a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    field(&doc, section)
        .as_array()
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string field").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on a result line, checking each value
/// is a number.
fn reported(line: &Value) -> Vec<(String, String)> {
    field(line, "metrics")
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(name, m)| {
            assert!(
                field(m, "value").as_f64().is_some(),
                "{name} has a numeric value"
            );
            (
                name.clone(),
                field(m, "unit").as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn smoke_mode_passes() {
    let (ok, stdout) = perfbench(&["--smoke"]);
    assert!(ok, "smoke mode failed:\n{stdout}");
    assert_eq!(field(&result(&stdout), "correct"), &Value::Bool(true));
}

#[test]
fn result_lines_match_benchmark_json() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = perfbench(&[
            "--workload",
            "cluster_churn",
            "--seconds",
            "0",
            "--trace",
            trace,
        ]);
        assert!(ok, "trace {trace} run failed:\n{stdout}");
        let line = result(&stdout);
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
        assert!(field(&line, "attempted").as_u64().is_some_and(|n| n >= 1));
        assert_eq!(field(&line, "failed").as_u64(), Some(0));
        assert_eq!(
            reported(&line),
            declared(section),
            "trace {trace} vs BENCHMARK.json {section}"
        );
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
