//! The repo's reference benchmark: five named workloads over the
//! simulator, a sans-io `NodeDriver` mesh and a live UDP cluster, every
//! layer measured from outside through public functions.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!           [--quick] [--pins FILE]
//! ```
//!
//! One invocation runs one workload in this process (so `VmHWM` is that
//! workload's alone); without `--workload` each of the five runs in a
//! child process in turn. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones, and writes the recorded spans beside
//! the executable. The last line of standard output is the result
//! object; see `README.md` for every name.

// Measuring wall time is this program's purpose: it times the product
// crates from outside and never feeds a reading back in, so the
// workspace's determinism ban on `Instant` (clippy.toml) does not apply.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod live;
mod mesh;
mod replay;
mod report;
mod sim;
mod spans;
mod util;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The workloads, with the reason each one exists.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim_paper",
        "iMixed at paper scale (500 nodes, 1000 jobs): cache-resident state, so handler \
         dispatch, ETTC cost evaluation, INFORM floods and EventQueue ops dominate",
    ),
    (
        "sim_deadline",
        "iDeadlineH at paper scale: the same layers with all-EDF queues and the NAL cost \
         (full queue walk) in place of ETTC",
    ),
    (
        "sim_scale",
        "100000 nodes on random-regular(4), 200 jobs: memory-bound run, and the only \
         workload whose set-up is as long as its run",
    ),
    (
        "driver_mesh",
        "500 NodeDrivers, 1000 jobs (sim_paper's dimensions) pumped in virtual time \
         through aria_codec: the live protocol path's pure CPU, which sim_* bypass",
    ),
    (
        "live_udp",
        "8 aria-node processes on loopback UDP, 4 jobs/s open loop: real sockets, timer \
         loop, trace flushing and process spawn",
    ),
];

/// Seed-`S` fingerprints that must not move; see `pins.txt`.
const PINS: &str = include_str!("../pins.txt");

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    /// Drives every generated input.
    pub seed: u64,
    /// How long the repetition loop measures.
    pub seconds: f64,
    trace: bool,
    /// Small worlds for the smoke test; numbers are not comparable.
    pub quick: bool,
    pins: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 18.0,
        trace: false,
        quick: false,
        pins: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--pins" => args.pins = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
            return Err(format!(
                "unknown workload `{name}` (one of: {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// First line of `program args...`'s output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Compares the run's seed-`S` fingerprint with its pin, if one exists.
/// Pin lines read `<full|quick> <workload> <seed> <fingerprint>`.
fn check_pin(args: &Args, workload: &str, report: &mut Report) -> Result<(), String> {
    let text = match &args.pins {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => PINS.to_string(),
    };
    let mode = if args.quick { "quick" } else { "full" };
    let key = format!("{mode} {workload} {} ", args.seed);
    for line in text.lines() {
        if let Some(pinned) = line.strip_prefix(&key) {
            if pinned.trim() != report.fingerprint {
                report.violation(format!(
                    "fingerprint moved: pinned `{}`, measured `{}`",
                    pinned.trim(),
                    report.fingerprint
                ));
            }
        }
    }
    Ok(())
}

/// Runs one workload in this process and prints its result.
fn run_workload(args: &Args, workload: &str) -> Result<bool, String> {
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("validated name")
        .1;
    println!("# workload {workload}: {why}");
    println!(
        "# seed {} seconds {} trace {} quick {} nproc {} rustc `{}` commit {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        std::thread::available_parallelism().map_or(1, usize::from),
        tool_line("rustc", &["-V"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );

    // Scratch files live beside the executable, inside the build
    // directory, and are removed when the run succeeds; the traced run's
    // spans stay until the workload's next traced run.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = exe.with_file_name(format!(
        "perfbench-scratch-{workload}-{}",
        std::process::id()
    ));
    let spans_file = exe.with_file_name(format!("perfbench-spans-{workload}.jsonl"));

    let mut report = Report::default();
    let mut tracer = spans::Tracer::new();
    let sim_kind = match workload {
        "sim_paper" => Some(sim::Kind::Paper),
        "sim_deadline" => Some(sim::Kind::Deadline),
        "sim_scale" => Some(sim::Kind::Scale),
        _ => None,
    };
    match (sim_kind, workload, args.trace) {
        (Some(kind), _, false) => sim::run(kind, args, &mut report),
        (Some(kind), _, true) => sim::run_traced(kind, args, &mut report, &mut tracer),
        (None, "driver_mesh", false) => mesh::run(args, &mut report),
        (None, "driver_mesh", true) => mesh::run_traced(args, &mut report, &mut tracer),
        (None, "live_udp", false) => live::run(args, &scratch, &mut report),
        (None, "live_udp", true) => live::run_traced(args, &scratch, &mut report, &mut tracer),
        _ => unreachable!("workload names are validated while parsing"),
    }
    if !report.fingerprint.is_empty() {
        check_pin(args, workload, &mut report)?;
        println!("# fingerprint {}", report.fingerprint);
    }
    if args.trace {
        // Written under a name of this process's own and renamed, so a
        // reader never sees a half-written file.
        let partial = spans_file.with_extension(format!("jsonl.{}", std::process::id()));
        tracer
            .write_jsonl(&partial)
            .and_then(|()| std::fs::rename(&partial, &spans_file))
            .map_err(|e| format!("{}: {e}", spans_file.display()))?;
        println!("# spans written to {}", spans_file.display());
    }
    for note in &report.notes {
        println!("# {note}");
    }
    let json = if args.trace {
        report.result_line(PER_LAYER, false)
    } else {
        report.result_line(END_TO_END, true)
    };
    for violation in &report.violations {
        println!("# VIOLATION {violation}");
    }
    let correct = report.correct();
    if correct && scratch.exists() {
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    }
    println!("{json}");
    Ok(correct)
}

/// Runs every workload, each in its own child process.
fn run_all() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    for (workload, _) in WORKLOADS {
        let forwarded = std::env::args().skip(1);
        let status = Command::new(&exe)
            .args(forwarded)
            .args(["--workload", workload])
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(workload) => run_workload(&args, workload),
        None => run_all(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
