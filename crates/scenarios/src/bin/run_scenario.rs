//! Runs a single Table II scenario and writes the full measurement set
//! as CSV (gauge series, per-job records, traffic) for external
//! analysis.
//!
//! ```text
//! run-scenario SCENARIO [--seed N] [--scale NODES JOBS] [--out DIR]
//!
//! SCENARIO   a Table II name, e.g. iMixed, DeadlineH (case-insensitive)
//! --seed     RNG seed                       (default: 1)
//! --scale    shrink the grid for quick runs (default: paper scale)
//! --out      report directory               (default: ./reports/<scenario>-<seed>)
//! ```
//!
//! Example:
//!
//! ```text
//! cargo run --release -p aria-scenarios --bin run-scenario -- iMixed --seed 3 --out /tmp/imixed
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use aria_probe::NullProbe;
use aria_scenarios::{Runner, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scenario: Scenario,
    seed: u64,
    scale: Option<(usize, usize)>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut seed = 1;
    let mut scale = None;
    let mut out = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--scale" => {
                let nodes = iter.next().ok_or("--scale needs NODES and JOBS")?;
                let jobs = iter.next().ok_or("--scale needs NODES and JOBS")?;
                scale = Some((
                    nodes.parse().map_err(|_| format!("bad node count: {nodes}"))?,
                    jobs.parse().map_err(|_| format!("bad job count: {jobs}"))?,
                ));
            }
            "--out" => out = Some(PathBuf::from(iter.next().ok_or("--out needs a directory")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: run-scenario SCENARIO [--seed N] [--scale NODES JOBS] [--out DIR]"
                        .into(),
                )
            }
            name => {
                scenario = Some(
                    Scenario::from_name(name)
                        .ok_or_else(|| format!("unknown scenario `{name}` (see Table II)"))?,
                );
            }
        }
    }
    let scenario = scenario.ok_or("a scenario name is required (e.g. iMixed)")?;
    Ok(Args { scenario, seed, scale, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let runner = match args.scale {
        Some((nodes, jobs)) => Runner::scaled(nodes, jobs),
        None => Runner::paper(),
    };
    let config = runner.config_for(args.scenario);
    eprintln!(
        "running {} (seed {}, {} nodes, {} jobs)...",
        args.scenario,
        args.seed,
        config.nodes,
        runner.schedule_for(args.scenario).count()
    );
    let (_, world) = runner.run_config(args.scenario, config, args.seed, false, NullProbe);

    let metrics = world.metrics();
    let dir = args.out.unwrap_or_else(|| {
        PathBuf::from("reports").join(format!("{}-{}", args.scenario.name(), args.seed))
    });
    if let Err(error) = aria_metrics::write_report(&dir, metrics) {
        eprintln!("cannot write report to {}: {error}", dir.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{}: {} jobs completed, mean completion {:.0}s, {:.2} MB traffic",
        args.scenario,
        metrics.completed_count(),
        metrics.completion_summary().mean(),
        metrics.traffic().total_bytes() as f64 / 1e6,
    );
    println!("report written to {}/{{series,jobs,traffic}}.csv", dir.display());
    ExitCode::SUCCESS
}
