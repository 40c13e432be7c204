//! Self-tests of the benchmark at a short length: every workload emits
//! every metric by name and unit with its checks passing, and a wrong
//! expected digest is reported as a failure, not a pass.
//!
//! Run in release mode (the workloads are sized for optimized code):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use atlas_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

/// Runs the benchmark binary; returns its exit code and last stdout line.
fn run(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (output.status.code().unwrap_or(-1), last)
}

/// Asserts the result line reports every metric of `metrics` with its
/// unit and a numeric value.
fn assert_metrics(line: &str, metrics: &[(&str, &str)]) {
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("metric {name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        value
            .trim()
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("metric {name} has a non-numeric value {value}"));
        assert!(
            tail.trim_start()
                .starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "metric {name} lacks unit {unit}: {tail}"
        );
    }
}

fn short(workload: &str, trace: &str) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        let args = short(workload, "0");
        let (code, line) = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(code, 0, "{workload}: {line}");
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        assert_metrics(&line, END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let args = short(workload, "1");
        let (code, line) = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(code, 0, "{workload}: {line}");
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        assert_metrics(&line, PER_LAYER);
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    for trace in ["0", "1"] {
        let mut args = short("batch-javalib", trace);
        args.extend([
            "--expect-digest".to_string(),
            "0x0123456789abcdef".to_string(),
        ]);
        let (code, line) = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(
            code, 1,
            "trace {trace}: a digest mismatch must fail: {line}"
        );
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
        assert!(!line.contains("\"failed\": 0, "), "{line}");
    }
}

#[test]
fn bad_arguments_are_rejected() {
    let (code, line) = run(&["--workload", "no-such-workload"]);
    assert_eq!(code, 2);
    assert!(line.is_empty(), "no result line for a bad command: {line}");
}
