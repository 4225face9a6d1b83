//! Smoke test of the `benchmark` binary in `--quick` mode (60-node
//! worlds, a 40-driver mesh, no UDP): every name `BENCHMARK.json`
//! declares is reported with its unit, counts repeat exactly, and a
//! wrong pinned fingerprint fails the run.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const BENCHMARK: &str = env!("CARGO_BIN_EXE_benchmark");
const SPEC: &str = include_str!("../../BENCHMARK.json");
/// The workloads `--quick` covers; `live_udp` needs real sockets.
const QUICK_WORKLOADS: [&str; 4] = ["sim_paper", "sim_deadline", "sim_scale", "driver_mesh"];

fn run(args: &[&str]) -> Output {
    Command::new(BENCHMARK)
        .args(args)
        .output()
        .expect("spawn benchmark")
}

fn quick(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--quick",
        "--seconds",
        "0.1",
        "--seed",
        "1",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn last_line(output: &Output) -> String {
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines().last().unwrap_or_default().to_string()
}

/// `(name, unit)` of every metric declared under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .expect("section exists");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field exists") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("field closes")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The reported value of `name` if it appears with `unit`.
fn reported(line: &str, name: &str, unit: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}"))
        .then(|| value.parse().ok())?
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let names = declared(section);
        assert!(!names.is_empty());
        for workload in QUICK_WORKLOADS {
            let output = quick(workload, trace, &[]);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {output:?}"
            );
            let line = last_line(&output);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            for (name, unit) in &names {
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                let value = reported(&line, name, unit);
                assert!(
                    value.is_some(),
                    "{workload}: {name} [{unit}] missing from {line}"
                );
                if section == "end_to_end" {
                    assert!(value > Some(0.0), "{workload}: {name} must never be 0");
                }
            }
            // Nothing is reported that the spec does not declare.
            assert_eq!(
                line.matches("\"unit\": ").count(),
                names.len(),
                "{workload}: {line}"
            );
        }
    }
}

#[test]
fn counts_repeat_exactly() {
    for (workload, counts) in [
        (
            "sim_paper",
            &["core.world.events", "core.world.msgs.request"][..],
        ),
        ("driver_mesh", &["core.driver.inputs", "codec.frames"][..]),
    ] {
        let (first, second) = (quick(workload, "1", &[]), quick(workload, "1", &[]));
        let fingerprint = |output: &Output| -> String {
            let text = String::from_utf8_lossy(&output.stdout);
            text.lines()
                .find(|l| l.starts_with("# fingerprint"))
                .expect("fingerprint")
                .to_string()
        };
        assert_eq!(fingerprint(&first), fingerprint(&second));
        for name in counts {
            let value = reported(&last_line(&first), name, "count").expect("count reported");
            assert!(value > 0.0, "{name} is zero");
            assert_eq!(
                Some(value),
                reported(&last_line(&second), name, "count"),
                "{name}"
            );
        }
    }
}

/// The traced run writes its spans beside the executable: one JSON
/// object per line, each span inside its parent, one root per repetition.
#[test]
fn traced_run_writes_nested_spans() {
    let output = quick("driver_mesh", "1", &[]);
    assert!(output.status.success(), "{output:?}");
    let file = std::path::Path::new(BENCHMARK).with_file_name("perfbench-spans-driver_mesh.jsonl");
    let text = std::fs::read_to_string(&file).expect("spans file");
    let number = |line: &str, key: &str| -> Option<u64> {
        let rest = line.split(&format!("\"{key}\":")).nth(1)?;
        rest.split([',', '}']).next()?.parse().ok()
    };
    // (rep, start, end) of every span so far, by position in the file.
    let mut spans: Vec<(u64, u64, u64)> = Vec::new();
    let mut first_of_rep = 0;
    let (mut roots, mut nested) = (0, 0);
    for line in text.lines() {
        let field = |key: &str| number(line, key).unwrap_or_else(|| panic!("{key} in {line}"));
        let (rep, id, start, end) = (
            field("rep"),
            field("id"),
            field("start_ns"),
            field("end_ns"),
        );
        assert!(line.contains("\"name\":\""), "{line}");
        assert!(start <= end, "{line}");
        if spans.last().is_some_and(|last| last.0 != rep) {
            first_of_rep = spans.len();
        }
        assert_eq!(id as usize, spans.len() - first_of_rep, "{line}");
        match number(line, "parent") {
            None => {
                assert!(line.contains("\"parent\":null"), "{line}");
                assert!(line.contains("\"name\":\"bench.rep\""), "{line}");
                roots += 1;
            }
            Some(parent) => {
                let (parent_rep, parent_start, parent_end) = spans[first_of_rep + parent as usize];
                assert_eq!(parent_rep, rep, "{line}");
                assert!(parent_start <= start && end <= parent_end, "{line}");
                nested += 1;
            }
        }
        spans.push((rep, start, end));
    }
    assert!(
        roots >= 2,
        "one root span per traced repetition, found {roots}"
    );
    assert!(
        nested > 1000,
        "handle/encode/decode spans under the pump, found {nested}"
    );
}

#[test]
fn pinned_fingerprints_hold_and_a_wrong_pin_fails_the_run() {
    // The shipped pins cover quick mode at seed 1, so the runs above
    // already passed them; a pin that disagrees must fail.
    let pins = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-pins.txt");
    std::fs::write(
        &pins,
        "quick sim_paper 1 completed=1 messages=2 completion_mean_secs=3.0\n",
    )
    .expect("write pins");
    let output = quick(
        "sim_paper",
        "0",
        &["--pins", pins.to_str().expect("utf-8 path")],
    );
    std::fs::remove_file(&pins).expect("remove pins");
    assert_eq!(output.status.code(), Some(1));
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("VIOLATION fingerprint moved"), "{text}");
    assert!(
        last_line(&output).starts_with("{\"correct\": false"),
        "{text}"
    );
}

#[test]
fn bad_arguments_are_one_line_errors() {
    for args in [
        &["--workload", "sim_papr"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&output.stderr).lines().count(),
            1,
            "{args:?}"
        );
    }
}
