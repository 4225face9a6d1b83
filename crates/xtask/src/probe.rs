//! `cargo xtask probe` — run scenarios with the observability probe
//! attached and work with the exported traces (see `crates/probe` and
//! DESIGN.md §"Observability").
//!
//! ```text
//! cargo xtask probe run --scenario iMixed --seed 1 --scale 40 80 --out t.jsonl
//! cargo xtask probe timeline t.jsonl --job 3      # one job's event timeline
//! cargo xtask probe summary t.jsonl               # whole-trace counters
//! cargo xtask probe diff a.jsonl b.jsonl          # first divergent event
//! ```
//!
//! `diff` exits 0 when the two traces are identical event-for-event and
//! 1 at the first divergence (printed with sim-time and node), which
//! makes it usable directly as a determinism gate in CI.

use aria_probe::schema;
use aria_scenarios::{Runner, Scenario};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask probe <run|timeline|summary|diff> ...
  run      --scenario NAME [--seed N] [--scale NODES JOBS] [--out PATH]
  timeline TRACE.jsonl [--job N]
  summary  TRACE.jsonl
  diff     LEFT.jsonl RIGHT.jsonl";

/// Dispatches the probe subcommands.
pub fn run(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => run_scenario(&args[1..]),
        Some("timeline") => timeline(&args[1..]),
        Some("summary") => summary(&args[1..]),
        Some("diff") => diff(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("xtask probe: {message}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Loads and schema-validates one trace file.
fn load(path: &str) -> Result<aria_probe::Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    schema::from_jsonl(&text).map_err(|error| format!("{path}: {error}"))
}

/// `probe run` — executes one probed scenario run, writes the trace as
/// JSONL, and prints a small JSON stats block (wall time, processed
/// events, events/second) to stdout.
fn run_scenario(args: &[String]) -> ExitCode {
    let mut scenario = Scenario::IMixed;
    let mut seed = 1u64;
    let mut scale: Option<(usize, usize)> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--scenario" => {
                let Some(name) = iter.next() else { return fail("--scenario needs a name") };
                match Scenario::from_name(name) {
                    Some(s) => scenario = s,
                    None => return fail(&format!("unknown scenario `{name}` (paper names, e.g. iMixed)")),
                }
            }
            "--seed" => {
                let Some(v) = iter.next() else { return fail("--seed needs a value") };
                match v.parse() {
                    Ok(v) => seed = v,
                    Err(error) => return fail(&format!("--seed {v}: {error}")),
                }
            }
            "--scale" => {
                let (Some(n), Some(j)) = (iter.next(), iter.next()) else {
                    return fail("--scale needs NODES and JOBS");
                };
                match (n.parse(), j.parse()) {
                    (Ok(n), Ok(j)) => scale = Some((n, j)),
                    _ => return fail(&format!("--scale {n} {j}: not integers")),
                }
            }
            "--out" => {
                let Some(path) = iter.next() else { return fail("--out needs a path") };
                out = Some(path.clone());
            }
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }
    let runner = match scale {
        Some((nodes, jobs)) => Runner::scaled(nodes, jobs),
        None => Runner::paper(),
    };
    let (stats, trace) = runner.run_once_traced(scenario, seed);
    if let Err(error) = schema::validate(&trace) {
        eprintln!("xtask probe run: exported trace fails its own schema: {error}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &out {
        if let Err(error) = std::fs::write(path, schema::to_jsonl(&trace)) {
            eprintln!("xtask probe run: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "xtask probe run: {} probe event(s) written to {path} ({} evicted by ring)",
            trace.entries.len(),
            trace.dropped
        );
    }
    // Hand-rolled JSON in the style of `bench_scale`'s report lines.
    println!("{{");
    println!("  \"scenario\": \"{}\",", trace.meta.scenario);
    println!("  \"seed\": {},", trace.meta.seed);
    println!("  \"nodes\": {},", trace.meta.nodes);
    println!("  \"jobs\": {},", trace.meta.jobs);
    println!("  \"wall_time_secs\": {:.6},", stats.wall_time_secs);
    println!("  \"events\": {},", stats.events);
    println!("  \"events_per_sec\": {:.0},", stats.events_per_sec());
    println!(
        "  \"trace\": {{\"entries\": {}, \"dropped\": {}}},",
        trace.entries.len(),
        trace.dropped
    );
    println!(
        "  \"fingerprint\": {{\"completed\": {}, \"messages\": {}, \"completion_mean_secs\": {:.3}}}",
        stats.completed,
        stats.traffic.total_messages(),
        stats.completion.mean()
    );
    println!("}}");
    ExitCode::SUCCESS
}

/// `probe timeline` — renders one job's lifecycle, or lists every job's
/// lifecycle summary when `--job` is omitted.
fn timeline(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut job: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--job" => {
                let Some(v) = iter.next() else { return fail("--job needs a value") };
                match v.parse() {
                    Ok(v) => job = Some(v),
                    Err(error) => return fail(&format!("--job {v}: {error}")),
                }
            }
            _ if path.is_none() => path = Some(arg),
            other => return fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else { return fail("timeline needs a TRACE.jsonl path") };
    let trace = match load(path) {
        Ok(trace) => trace,
        Err(message) => return fail(&message),
    };
    match job {
        Some(id) => print!("{}", aria_probe::render_timeline(&trace, aria_grid::JobId::new(id))),
        None => {
            let lifecycles = aria_probe::lifecycles(&trace);
            println!("{} job(s) in {}:", lifecycles.len(), path);
            for (job, lc) in &lifecycles {
                println!(
                    "  {job}: {} assignment(s) ({} reschedule(s)), {} recovery(ies), {}",
                    lc.assignments,
                    lc.reschedules,
                    lc.recoveries,
                    if lc.completed {
                        "completed"
                    } else if lc.abandoned {
                        "abandoned"
                    } else if lc.lost {
                        "lost"
                    } else {
                        "in flight"
                    }
                );
            }
            println!("(re-run with --job N for one job's full event timeline)");
        }
    }
    ExitCode::SUCCESS
}

/// `probe summary` — whole-trace counters: events by kind, flood
/// fan-out, offers per request, queue-depth histogram, busiest node.
fn summary(args: &[String]) -> ExitCode {
    let [path] = args else { return fail("summary needs exactly one TRACE.jsonl path") };
    match load(path) {
        Ok(trace) => {
            println!("{} seed {} ({} nodes, {} jobs)", trace.meta.scenario, trace.meta.seed, trace.meta.nodes, trace.meta.jobs);
            print!("{}", aria_probe::summarize(&trace).render());
            ExitCode::SUCCESS
        }
        Err(message) => fail(&message),
    }
}

/// `probe diff` — exit 0 when the traces match event-for-event, exit 1
/// with the first divergent entry (sim-time, node, event) otherwise.
fn diff(args: &[String]) -> ExitCode {
    let [left_path, right_path] = args else {
        return fail("diff needs exactly two TRACE.jsonl paths");
    };
    let (left, right) = match (load(left_path), load(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(message), _) | (_, Err(message)) => return fail(&message),
    };
    match aria_probe::first_divergence(&left, &right) {
        None => {
            println!(
                "xtask probe diff: traces are identical ({} event(s) each)",
                left.entries.len()
            );
            ExitCode::SUCCESS
        }
        Some(divergence) => {
            println!(
                "xtask probe diff: {left_path} ({} events) vs {right_path} ({} events)",
                left.entries.len(),
                right.entries.len()
            );
            println!("{divergence}");
            ExitCode::FAILURE
        }
    }
}
