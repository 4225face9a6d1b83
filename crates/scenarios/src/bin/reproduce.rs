//! Reproduces the ARiA paper's tables and figures.
//!
//! ```text
//! reproduce [IDS...] [--seeds N] [--scale NODES JOBS] [--workers W] [--out DIR]
//!
//! IDS       table1 table2 fig1 .. fig10 baselines ablations all
//!                                              (default: all)
//! --seeds   number of seeds per scenario       (default: 10, paper value)
//! --scale   shrink the grid for quick runs     (default: paper scale)
//! --workers lanes, the calling thread included (default: all cores)
//! --out     also write each artifact to DIR/<id>.txt
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p aria-scenarios --bin reproduce -- all
//! cargo run --release -p aria-scenarios --bin reproduce -- fig4 fig10 --seeds 3
//! cargo run --release -p aria-scenarios --bin reproduce -- fig1 --scale 100 200
//! cargo run --release -p aria-scenarios --bin reproduce -- ablations --out results
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use aria_probe::{Progress, ProgressSink, StderrSink};
use aria_scenarios::{Campaign, Runner};
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    seeds: u64,
    scale: Option<(usize, usize)>,
    workers: Option<usize>,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { ids: Vec::new(), seeds: 10, scale: None, workers: None, out: None };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = iter.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad seed count: {v}"))?;
                if args.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--scale" => {
                let nodes = iter.next().ok_or("--scale needs NODES and JOBS")?;
                let jobs = iter.next().ok_or("--scale needs NODES and JOBS")?;
                args.scale = Some((
                    nodes.parse().map_err(|_| format!("bad node count: {nodes}"))?,
                    jobs.parse().map_err(|_| format!("bad job count: {jobs}"))?,
                ));
            }
            "--out" => {
                let dir = iter.next().ok_or("--out needs a directory")?;
                args.out = Some(dir.into());
            }
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a value")?;
                args.workers = Some(v.parse().map_err(|_| format!("bad worker count: {v}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: reproduce [IDS...] [--seeds N] [--scale NODES JOBS] [--workers W] [--out DIR]"
                        .into(),
                )
            }
            id => args.ids.push(id.to_string()),
        }
    }
    if args.ids.is_empty() {
        args.ids.push("all".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let mut runner = match args.scale {
        Some((nodes, jobs)) => Runner::scaled(nodes, jobs),
        None => Runner::paper(),
    };
    if let Some(workers) = args.workers {
        runner = runner.workers(workers);
    }
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    // Progress goes through the aria-probe reporting layer, so every
    // long-running tool in the workspace renders it identically (and
    // tests can capture it with a MemorySink).
    let mut progress = StderrSink;
    progress.report(&Progress::new(
        "reproduce",
        format!(
            "{} over {} seed(s){}",
            args.ids.join(", "),
            args.seeds,
            match args.scale {
                Some((n, j)) => format!(" at reduced scale ({n} nodes, {j} jobs)"),
                None => " at paper scale (500 nodes, 1000 jobs)".into(),
            }
        ),
    ));

    if let Some(dir) = &args.out {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let total = args.ids.len();
    let mut campaign = Campaign::new(runner, seeds);
    for (done, id) in args.ids.iter().enumerate() {
        progress.report(&Progress::new("reproduce", format!("rendering {id}")).with_step(done + 1, total));
        match campaign.render(id) {
            Some(output) => {
                println!("{output}");
                if let Some(dir) = &args.out {
                    let path = dir.join(format!("{}.txt", id.to_ascii_lowercase()));
                    if let Err(error) = std::fs::write(&path, &output) {
                        eprintln!("cannot write {}: {error}", path.display());
                        return ExitCode::FAILURE;
                    }
                    progress.report(&Progress::new("reproduce", format!("wrote {}", path.display())));
                }
            }
            None => {
                eprintln!(
                    "unknown artifact id: {id} (expected table1, table2, fig1..fig10, baselines, ablations, all)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    progress.report(&Progress::new("reproduce", format!("done ({total} artifact(s))")));
    ExitCode::SUCCESS
}
