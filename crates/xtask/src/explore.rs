//! `cargo xtask explore` — bounded exhaustive exploration of the ARiA
//! message state machine (see `crates/model` and DESIGN.md §"Exhaustive
//! exploration").
//!
//! ```text
//! cargo xtask explore                          # default 3-node / 1-job world
//! cargo xtask explore --nodes 4 --depth 2000   # wider world, deeper bound
//! cargo xtask explore --drops 1 --dups 1       # with fault injection
//! cargo xtask explore --self-check             # prove violations are caught
//! ```
//!
//! Exit status is non-zero when a property is violated; the counterexample
//! is printed as a minimal replayable action trace.

use aria_model::{Explorer, ModelConfig, Property};
use std::process::ExitCode;

/// Parses the CLI flags and runs the exploration.
pub fn run(args: &[String]) -> ExitCode {
    let mut config = ModelConfig::default();
    let mut self_check = false;
    let mut workers = aria_sim::pool::default_lanes();
    // `--trace-out PATH` takes a string value, so it is stripped before
    // the numeric-flag loop below.
    let mut args = args.to_vec();
    let mut trace_out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--trace-out") {
        if pos + 1 >= args.len() {
            eprintln!("xtask explore: --trace-out needs a path");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        trace_out = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag} {what}: {e}"))
        };
        let parsed = match flag.as_str() {
            "--nodes" => number("nodes").map(|v| config.nodes = v as usize),
            "--jobs" => number("jobs").map(|v| config.jobs = v as usize),
            "--seed" => number("seed").map(|v| config.seed = v),
            "--depth" => number("depth").map(|v| config.max_depth = v as usize),
            "--states" => number("states").map(|v| config.max_states = v as usize),
            "--drops" => number("drops").map(|v| config.drops = v as u32),
            "--dups" => number("dups").map(|v| config.dups = v as u32),
            "--workers" => number("workers").map(|v| workers = (v as usize).max(1)),
            "--no-por" => {
                config.por = false;
                Ok(())
            }
            "--rescheduling" => {
                config.rescheduling = true;
                Ok(())
            }
            "--self-check" => {
                self_check = true;
                Ok(())
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(message) = parsed {
            eprintln!("xtask explore: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if self_check {
        return self_check_explorer(config, trace_out.as_deref(), workers);
    }
    explore(config, trace_out.as_deref(), workers)
}

const USAGE: &str = "usage: cargo xtask explore [--nodes N] [--jobs N] [--seed N] [--depth N] \
                     [--states N] [--drops N] [--dups N] [--workers N] [--no-por] \
                     [--rescheduling] [--self-check] [--trace-out PATH]";

/// Replays a counterexample with a probe attached and writes the
/// recording as `aria-probe` JSONL — the same schema scenario runs
/// export, so `cargo xtask probe timeline/summary/diff` work on checker
/// counterexamples too.
fn export_trace(explorer: &Explorer, trace: &[aria_model::ModelAction], path: &str) {
    let (trace, _) = explorer.replay_traced(trace);
    match std::fs::write(path, aria_probe::schema::to_jsonl(&trace)) {
        Ok(()) => eprintln!(
            "xtask explore: counterexample trace written to {path} ({} probe event(s))",
            trace.entries.len()
        ),
        Err(error) => eprintln!("xtask explore: cannot write {path}: {error}"),
    }
}

/// Runs one exploration and reports the counters (or the counterexample).
/// `run_parallel` is answer-identical to the serial search at any worker
/// count (pinned by the `aria-model` tests), so the fan-out changes only
/// the wall clock — never the counters or the counterexample.
fn explore(config: ModelConfig, trace_out: Option<&str>, workers: usize) -> ExitCode {
    // `workers` is deliberately absent from the report: exploration
    // output is byte-identical at every worker count, and CI diffs it.
    println!(
        "xtask explore: {} nodes, {} job(s), seed {}, depth ≤ {}, states ≤ {}, \
         drops {}, dups {}, por {}",
        config.nodes,
        config.jobs,
        config.seed,
        config.max_depth,
        config.max_states,
        config.drops,
        config.dups,
        if config.por { "on" } else { "off" },
    );
    let explorer = Explorer::new(config);
    let (stats, violation) = explorer.run_parallel(workers);
    println!(
        "xtask explore: {} state(s) visited, {} dedup hit(s), {} transition(s), \
         max depth {}, {} terminal state(s) ({} distinct)",
        stats.states,
        stats.dedup_hits,
        stats.transitions,
        stats.max_depth,
        stats.terminals,
        stats.terminal_fingerprints.len(),
    );
    if stats.truncated {
        println!("xtask explore: search TRUNCATED by the depth/state bounds (not exhaustive)");
    } else {
        println!("xtask explore: enumeration exhaustive within the fault budgets");
    }
    match violation {
        None => {
            println!("xtask explore: all properties hold");
            ExitCode::SUCCESS
        }
        Some(violation) => {
            eprintln!("{violation}");
            if let Some(path) = trace_out {
                export_trace(&explorer, &violation.trace, path);
            }
            ExitCode::FAILURE
        }
    }
}

/// Proves the checker still finds violations: explores under the
/// deliberately-false "no job ever starts" property, demands a
/// counterexample, and replays its trace to the same violation.
fn self_check_explorer(config: ModelConfig, trace_out: Option<&str>, workers: usize) -> ExitCode {
    let config = ModelConfig { property: Property::SelfCheckNoExecution, ..config };
    let explorer = Explorer::new(config);
    let (_, violation) = explorer.run_parallel(workers);
    let Some(violation) = violation else {
        eprintln!("explore --self-check: the deliberately-false property was NOT caught");
        return ExitCode::FAILURE;
    };
    let (_, replayed) = explorer.replay(&violation.trace);
    if replayed.as_deref() != Some(violation.message.as_str()) {
        eprintln!(
            "explore --self-check: the counterexample did not replay \
             (expected `{}`, replay said `{:?}`)",
            violation.message, replayed
        );
        return ExitCode::FAILURE;
    }
    println!(
        "xtask explore --self-check: seeded violation caught and replayed \
         ({} action(s)):",
        violation.trace.len()
    );
    print!("{violation}");
    if let Some(path) = trace_out {
        export_trace(&explorer, &violation.trace, path);
    }
    ExitCode::SUCCESS
}
