//! `cargo xtask probe` tells a command-line mistake from a bad trace:
//! only the former prints the usage text.

use aria_probe::{schema, Trace};
use std::path::PathBuf;
use std::process::Command;

/// Runs `xtask probe ARGS`; returns whether it succeeded, and its stderr.
fn probe(args: &[&str]) -> (bool, String) {
    let mut xtask = Command::new(env!("CARGO_BIN_EXE_xtask"));
    let output = xtask.arg("probe").args(args).output().expect("xtask runs");
    (output.status.success(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn a_trace_failing_its_schema_prints_the_error_without_the_usage() {
    let text = schema::to_jsonl(&Trace::default());
    let stale = text.replacen("\"version\":4,", "\"version\":3,", 1);
    assert_ne!(stale, text, "the header carries the version stamp");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("probe-cli-v3.jsonl");
    std::fs::write(&path, stale).expect("write the trace");
    let (ok, stderr) = probe(&["summary", path.to_str().expect("utf-8 path")]);
    assert!(!ok, "a v3-stamped trace must be refused");
    assert!(stderr.contains("unsupported schema version 3"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_command_line_mistake_prints_the_usage() {
    let (ok, stderr) = probe(&["summary"]);
    assert!(!ok);
    assert!(stderr.contains("summary needs exactly one TRACE.jsonl path"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
