//! `aria-cluster` — spawn a localhost ARiA cluster, run a workload,
//! merge the probe traces and report completion metrics.
//!
//! ```text
//! aria-cluster [--nodes N] [--jobs J] [--ert-ms MS] [--loss P]
//!              [--loss-window N:FROM_MS:UNTIL_MS]... [--drop-first-assign]
//!              [--kill V:T_MS[:RESTART_MS]]... [--submit-gap-ms MS]
//!              [--soak-secs S] [--max-node-rss-mb MB]
//!              [--seed S] [--dir PATH] [--node-binary PATH]
//!              [--deadline-secs S]
//! ```
//!
//! The workload is an iMixed-style blend: jobs alternate between short
//! and long expected running times and between two resource classes, so
//! discovery, queueing and (with `--loss`) the retransmit path all get
//! exercised. Every job takes the JSDL round trip before submission.
//!
//! `--kill V:T[:R]` SIGKILLs node V at T ms after workload start and
//! (optionally) restarts it at R ms; kill victims are automatically
//! excluded from submission targets, since a job whose *initiator* dies
//! is unrecoverable by design. `--soak-secs` switches to a rolling
//! soak: a paced workload spanning S seconds with periodic kill/restart
//! churn over the last two nodes and a VmHWM memory high-water check.
//!
//! Exits non-zero if any job is lost, completes other than once, or
//! misses the liveness bound; churn runs additionally require
//! `peer-dead` (and, with restarts, `peer-rejoined`) probe events in
//! the merged trace.

use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_node::cluster::{
    live_timing, liveness_bound, run_cluster, ChurnAction, ChurnEvent, ClusterSpec,
};
use aria_sim::SimDuration;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    nodes: u32,
    jobs: u64,
    ert_ms: u64,
    loss: f64,
    loss_windows: Vec<(u32, u64, u64)>,
    drop_first_assign: bool,
    /// (victim, kill at ms, restart at ms).
    kills: Vec<(u32, u64, Option<u64>)>,
    submit_gap_ms: u64,
    soak_secs: Option<u64>,
    max_node_rss_mb: Option<u64>,
    seed: u64,
    dir: PathBuf,
    node_binary: PathBuf,
    deadline: Duration,
    deadline_set: bool,
}

/// Parses `a:b` / `a:b:c` colon-separated integer tuples.
fn split_ints(flag: &str, raw: &str, min: usize, max: usize) -> Result<Vec<u64>, String> {
    let parts: Result<Vec<u64>, _> = raw.split(':').map(str::parse).collect();
    let parts = parts.map_err(|e| format!("{flag} `{raw}`: {e}"))?;
    if parts.len() < min || parts.len() > max {
        return Err(format!("{flag} `{raw}`: expected {min}..={max} `:`-separated integers"));
    }
    Ok(parts)
}

/// The node-index field of a `--kill`/`--loss-window` spec.
fn node_id(flag: &str, raw: u64) -> Result<u32, String> {
    u32::try_from(raw).map_err(|e| format!("{flag} node `{raw}`: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        nodes: 5,
        jobs: 8,
        ert_ms: 1000,
        loss: 0.0,
        loss_windows: Vec::new(),
        drop_first_assign: false,
        kills: Vec::new(),
        submit_gap_ms: 5,
        soak_secs: None,
        max_node_rss_mb: None,
        seed: 42,
        dir: std::env::temp_dir().join("aria-cluster"),
        node_binary: sibling_binary()?,
        deadline: Duration::from_secs(45),
        deadline_set: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => args.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--jobs" => args.jobs = value("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--ert-ms" => args.ert_ms = value("--ert-ms")?.parse().map_err(|e| format!("{e}"))?,
            "--loss" => args.loss = value("--loss")?.parse().map_err(|e| format!("{e}"))?,
            "--loss-window" => {
                let v = split_ints("--loss-window", &value("--loss-window")?, 3, 3)?;
                args.loss_windows.push((node_id("--loss-window", v[0])?, v[1], v[2]));
            }
            "--drop-first-assign" => args.drop_first_assign = true,
            "--kill" => {
                let v = split_ints("--kill", &value("--kill")?, 2, 3)?;
                args.kills.push((node_id("--kill", v[0])?, v[1], v.get(2).copied()));
            }
            "--submit-gap-ms" => {
                args.submit_gap_ms =
                    value("--submit-gap-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--soak-secs" => {
                args.soak_secs = Some(value("--soak-secs")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--max-node-rss-mb" => {
                args.max_node_rss_mb =
                    Some(value("--max-node-rss-mb")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--node-binary" => args.node_binary = PathBuf::from(value("--node-binary")?),
            "--deadline-secs" => {
                args.deadline = Duration::from_secs(
                    value("--deadline-secs")?.parse().map_err(|e| format!("{e}"))?,
                );
                args.deadline_set = true;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    for &(victim, _, _) in &args.kills {
        if victim >= args.nodes {
            return Err(format!("--kill victim {victim} is not a node (nodes={})", args.nodes));
        }
    }
    Ok(args)
}

/// The `aria-node` binary next to this one in the target directory.
fn sibling_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    let name = if cfg!(windows) { "aria-node.exe" } else { "aria-node" };
    Ok(dir.join(name))
}

/// An iMixed-style blend: alternating short/long ERTs over two resource
/// classes, all satisfiable by the cluster's profiles.
fn workload(jobs: u64, ert_ms: u64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            let ert = SimDuration::from_millis(if i % 2 == 0 { ert_ms } else { ert_ms * 3 });
            let requirements = if i % 3 == 0 {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 8, 50)
            } else {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 2, 10)
            };
            JobSpec::batch(JobId::new(i), requirements, ert)
        })
        .collect()
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aria-cluster: {e}");
            std::process::exit(2);
        }
    };

    // Soak mode: a rolling workload spanning the requested wall-clock,
    // with periodic kill/restart churn over the last two nodes while
    // submissions go to the others.
    if let Some(soak_secs) = args.soak_secs {
        if args.nodes < 4 {
            eprintln!("aria-cluster: --soak-secs needs at least 4 nodes");
            std::process::exit(2);
        }
        // ~1.3 jobs/s of 1–3 s work keeps the rolling queue shallow
        // even with one node down. ERTs stay whole seconds (JSDL).
        args.submit_gap_ms = args.submit_gap_ms.max(750);
        args.jobs = (soak_secs * 1000 / args.submit_gap_ms).max(4);
        // Kill one of the last two nodes every 12 s, restart it 4 s
        // later; the victim alternates so both see kill and rejoin.
        let mut t = 8_000u64;
        let mut victim = args.nodes - 1;
        while t + 6_000 < soak_secs * 1000 {
            args.kills.push((victim, t, Some(t + 4_000)));
            victim = if victim == args.nodes - 1 { args.nodes - 2 } else { args.nodes - 1 };
            t += 12_000;
        }
        if args.max_node_rss_mb.is_none() {
            args.max_node_rss_mb = Some(512);
        }
        if !args.deadline_set {
            args.deadline = Duration::from_secs(soak_secs + 30);
        }
    }

    let victims: Vec<u32> = {
        let mut v: Vec<u32> = args.kills.iter().map(|&(n, _, _)| n).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let submit_to: Vec<u32> = (0..args.nodes).filter(|n| !victims.contains(n)).collect();
    if submit_to.is_empty() {
        eprintln!("aria-cluster: every node is a kill victim; nothing safe to submit to");
        std::process::exit(2);
    }
    let mut churn: Vec<ChurnEvent> = Vec::new();
    for &(victim, kill_ms, restart_ms) in &args.kills {
        churn.push(ChurnEvent {
            at: Duration::from_millis(kill_ms),
            action: ChurnAction::Kill(victim),
        });
        if let Some(restart_ms) = restart_ms {
            churn.push(ChurnEvent {
                at: Duration::from_millis(restart_ms),
                action: ChurnAction::Restart(victim),
            });
        }
    }
    let restarts = churn.iter().any(|ev| matches!(ev.action, ChurnAction::Restart(_)));

    let jobs = workload(args.jobs, args.ert_ms);
    let driver = live_timing();
    let max_ert = jobs.iter().map(|j| j.ert).max().unwrap_or(SimDuration::ZERO);
    let bound = liveness_bound(&driver, Duration::from_millis(max_ert.as_millis()));
    let spec = ClusterSpec {
        nodes: args.nodes,
        jobs: jobs.clone(),
        profiles: vec![
            NodeProfile::new(
                Architecture::Amd64,
                OperatingSystem::Linux,
                64,
                1000,
                PerfIndex::BASELINE,
            ),
            NodeProfile::new(
                Architecture::Amd64,
                OperatingSystem::Linux,
                16,
                200,
                PerfIndex::new(1.5).expect("valid index"),
            ),
        ],
        policies: vec![Policy::Fcfs, Policy::Sjf],
        driver,
        loss: args.loss,
        loss_windows: args.loss_windows.clone(),
        drop_first_assign: args.drop_first_assign,
        seed: args.seed,
        submit_gap: Duration::from_millis(args.submit_gap_ms),
        submit_to,
        churn,
        dir: args.dir,
        node_binary: args.node_binary,
        deadline: args.deadline,
    };
    let outcome = match run_cluster(&spec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("aria-cluster: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "aria-cluster: nodes={} jobs={} completed={} retransmits={} injected_drops={} \
         lost_events={} peer_dead={} peer_rejoined={} max_rss_kb={} wakeups={} \
         wakeups_per_node_s={:.1} trace={}",
        spec.nodes,
        jobs.len(),
        outcome.completed.len(),
        outcome.retransmits,
        outcome.injected_drops,
        outcome.lost_events,
        outcome.peer_dead_events,
        outcome.peer_rejoined_events,
        outcome.max_node_rss_kb,
        outcome.node_wakeups,
        outcome.wakeups_per_node_sec(),
        outcome.merged_path.display(),
    );
    if let Err(violation) = outcome.check_conservation(&jobs) {
        eprintln!("aria-cluster: CONSERVATION VIOLATED: {violation}");
        std::process::exit(1);
    }
    println!("aria-cluster: job conservation holds ({} jobs, exactly once each)", jobs.len());
    if let Err(violation) = outcome.check_liveness(&jobs, bound) {
        eprintln!("aria-cluster: LIVENESS VIOLATED: {violation}");
        std::process::exit(1);
    }
    println!(
        "aria-cluster: liveness holds (every job within {:.1}s of submission)",
        bound.as_secs_f64()
    );
    if !args.kills.is_empty() && outcome.peer_dead_events == 0 {
        eprintln!("aria-cluster: CHURN UNOBSERVED: kills ran but no peer-dead events in trace");
        std::process::exit(1);
    }
    if restarts && outcome.peer_rejoined_events == 0 {
        eprintln!("aria-cluster: CHURN UNOBSERVED: restarts ran but no peer-rejoined events");
        std::process::exit(1);
    }
    if let Some(cap_mb) = args.max_node_rss_mb {
        if outcome.max_node_rss_kb > cap_mb * 1024 {
            eprintln!(
                "aria-cluster: MEMORY HIGH-WATER EXCEEDED: {} KiB > {} MiB cap",
                outcome.max_node_rss_kb, cap_mb
            );
            std::process::exit(1);
        }
        println!(
            "aria-cluster: node memory high-water {} KiB within the {} MiB cap",
            outcome.max_node_rss_kb, cap_mb
        );
    }
}
