//! Flag errors at the process boundary: a malformed command line exits
//! with status 1 before any inference runs, and the message names the
//! flag and the rejected value.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `batch` binary with `args` in a fresh working directory and
/// small budgets (so a binary that wrongly accepted the flags would still
/// finish quickly), returning its output and the directory.
fn run_batch(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("atlas-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    let output = Command::new(env!("CARGO_BIN_EXE_batch"))
        .args(args)
        .current_dir(&dir)
        .env_remove("ATLAS_STORE")
        .env("ATLAS_SAMPLES", "100")
        .env("ATLAS_APPS", "1")
        .env("ATLAS_THREADS", "1")
        .output()
        .expect("spawn batch binary");
    (output, dir)
}

/// Asserts the run failed up front: status 1, nothing on stdout, and no
/// inference banner on stderr.  Returns stderr.
fn assert_rejected(output: &Output) -> String {
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "no report may be printed");
    assert!(
        !stderr.contains("samples/cluster"),
        "rejected before inference:\n{stderr}"
    );
    assert!(stderr.contains("usage: batch"), "{stderr}");
    stderr
}

#[test]
fn unparsable_number_names_the_flag_and_the_value() {
    let (output, dir) = run_batch("threads", &["--threads", "abc"]);
    let stderr = assert_rejected(&output);
    assert!(stderr.contains("--threads"), "{stderr}");
    assert!(stderr.contains("\"abc\""), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_flag_is_never_taken_as_the_previous_flags_value() {
    let (output, dir) = run_batch("store", &["--store", "--expect-warm"]);
    let stderr = assert_rejected(&output);
    assert!(stderr.contains("--store"), "{stderr}");
    assert!(
        !dir.join("--expect-warm").exists(),
        "no store directory named after the next flag"
    );
    let _ = std::fs::remove_dir_all(dir);
}
