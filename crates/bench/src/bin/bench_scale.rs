//! Scale benchmark harness: events/sec and peak RSS at 5k/50k/500k
//! nodes, written to `BENCH_scale.json`.
//!
//! Each tier runs a mixed-policy world with dynamic rescheduling (the
//! iMixed protocol setting) over a `random-regular(4)` overlay — the
//! O(n·d) builder, because the BLATANT-S convergence loop is superlinear
//! in `n` and stops being tractable past a few thousand nodes (see
//! DESIGN.md §12). Job counts shrink as tiers grow so a tier measures
//! protocol throughput, not submission volume.
//!
//! Peak RSS is a *process-wide* high-water mark (`VmHWM` in
//! `/proc/self/status`), so the driver runs every tier in its own child
//! process; a tier that dies or exceeds its time budget is reported as
//! failed instead of sinking the whole run.
//!
//! The `--threads` axis measures *aggregate* parallel throughput on the
//! mid (50k) tier: N independent worlds run concurrently on scoped
//! threads (the `Runner::run_many` shape). `--parallel` sweeps thread
//! counts and writes `BENCH_parallel.json`. Both reports record the
//! host's core count: on a single-core runner the speedup floor gate is
//! informational only, because threads cannot beat physics.
//!
//! ```text
//! cargo run --release -p aria-bench --bin bench_scale            # all tiers -> BENCH_scale.json
//! cargo run --release -p aria-bench --bin bench_scale -- --tier 5000   # one tier, JSON to stdout
//! cargo run --release -p aria-bench --bin bench_scale -- \
//!     --tier 5000 --min-events-per-sec 500000 --max-peak-rss-mb 2048   # CI smoke gate
//! cargo run --release -p aria-bench --bin bench_scale -- --parallel    # -> BENCH_parallel.json
//! cargo run --release -p aria-bench --bin bench_scale -- \
//!     --threads 4 --min-thread-speedup 2                               # CI parallel smoke gate
//! ```

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "measuring wall time and spawning timed threads is this harness's purpose"
)]

use aria_core::{OverlayKind, World, WorldConfig};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};
use std::time::{Duration, Instant};

const SEED: u64 = 1;
const TIERS: &[usize] = &[5_000, 50_000, 500_000];
/// Wall-clock budget per tier before the driver kills the child and
/// reports the tier as failed (the 500k tier is an *attempt* by design).
const TIER_TIMEOUT: Duration = Duration::from_secs(1500);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(threads) = flag_value(&args, "--threads") {
        return run_threads(threads.max(1), &args);
    }
    if args.iter().any(|a| a == "--parallel") {
        return run_parallel_driver(&args);
    }
    match flag_value(&args, "--tier") {
        Some(nodes) => run_tier(nodes, &args),
        None => run_driver(&args),
    }
}

/// Host core count as the scheduler sees it (cgroup/affinity aware).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `--flag N` lookup; panics on a malformed value.
fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    let at = args.iter().position(|a| a == flag)?;
    let raw = args.get(at + 1).unwrap_or_else(|| panic!("{flag} needs a value"));
    Some(raw.parse().unwrap_or_else(|_| panic!("{flag} value {raw:?} is not a number")))
}

/// Jobs submitted at a tier: enough to load the grid, scaled down as
/// floods get bigger (a saturating REQUEST flood costs O(min(N, fanout ·
/// branching^hops)) messages, so events/job grows with N).
fn tier_jobs(nodes: usize) -> usize {
    match nodes {
        n if n <= 5_000 => 2_000,
        n if n <= 50_000 => 1_000,
        _ => 200,
    }
}

/// The world a tier runs: paper protocol parameters, mixed FCFS/SJF
/// policies, rescheduling on, 12h horizon, scalable overlay.
fn tier_config(nodes: usize) -> WorldConfig {
    WorldConfig {
        nodes,
        overlay: OverlayKind::RandomRegular { degree: 4 },
        horizon: SimTime::from_hours(12),
        ..WorldConfig::paper_baseline()
    }
}

/// Worker mode: one tier in this process, a single JSON object to
/// stdout, progress to stderr. Exits non-zero if a `--min-events-per-sec`
/// floor or `--max-peak-rss-mb` ceiling (the CI smoke gate) is violated.
fn run_tier(nodes: usize, args: &[String]) {
    let jobs = tier_jobs(nodes);
    eprintln!("bench_scale: tier {nodes} nodes, {jobs} jobs, seed {SEED}");
    let build_start = Instant::now();
    let mut world = World::new(tier_config(nodes), SEED);
    let build_secs = build_start.elapsed().as_secs_f64();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(10), jobs);
    let mut generator = JobGenerator::paper_batch();
    world.submit_schedule(&schedule, &mut generator);

    let run_start = Instant::now();
    world.run();
    let run_secs = run_start.elapsed().as_secs_f64();

    let events = world.processed_events();
    let eps = events as f64 / run_secs;
    let (flood_slots, spilled) = world.flood_stats();
    let completed = world.metrics().completed_count();
    let messages = world.metrics().traffic().total_messages();
    let peak_rss_kb = peak_rss_kb();
    let json = format!(
        "{{ \"nodes\": {nodes}, \"jobs\": {jobs}, \"overlay\": \"random-regular-4\", \
         \"horizon_hours\": 12, \"build_secs\": {build_secs:.3}, \"run_secs\": {run_secs:.3}, \
         \"events\": {events}, \"events_per_sec\": {eps:.0}, \"completed\": {completed}, \
         \"messages\": {messages}, \"flood_slots\": {flood_slots}, \
         \"spilled_flood_slots\": {spilled}, \"peak_rss_mb\": {rss:.1} }}",
        rss = peak_rss_kb as f64 / 1024.0,
    );
    println!("{json}");
    eprintln!(
        "bench_scale: tier {nodes}: {events} events in {run_secs:.1}s ({eps:.0}/s), \
         peak RSS {:.0} MB, {flood_slots} flood slot(s), {spilled} spilled",
        peak_rss_kb as f64 / 1024.0
    );

    let mut violations = 0;
    if let Some(floor) = flag_value(args, "--min-events-per-sec") {
        if eps < floor as f64 {
            eprintln!("bench_scale: FAIL {eps:.0} events/s under the {floor} floor");
            violations += 1;
        }
    }
    if let Some(ceiling) = flag_value(args, "--max-peak-rss-mb") {
        if peak_rss_kb > ceiling as u64 * 1024 {
            eprintln!(
                "bench_scale: FAIL peak RSS {:.0} MB over the {ceiling} MB ceiling",
                peak_rss_kb as f64 / 1024.0
            );
            violations += 1;
        }
    }
    if violations > 0 {
        std::process::exit(1);
    }
}

/// The fixed workload of the parallel axis: the mid tier of the scale
/// sweep, so `BENCH_parallel.json` is directly comparable to
/// `BENCH_scale.json`'s 50k entry.
const PARALLEL_NODES: usize = 50_000;

/// Builds one parallel-axis world, workload already submitted.
fn parallel_world(seed: u64) -> World {
    let jobs = tier_jobs(PARALLEL_NODES);
    let mut world = World::new(tier_config(PARALLEL_NODES), seed);
    let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(10), jobs);
    let mut generator = JobGenerator::paper_batch();
    world.submit_schedule(&schedule, &mut generator);
    world
}

/// One serial reference run: (events, run seconds).
fn measure_serial() -> (u64, f64) {
    let mut world = parallel_world(SEED);
    let start = Instant::now();
    world.run();
    (world.processed_events(), start.elapsed().as_secs_f64())
}

/// Aggregate lane: `threads` independent worlds (distinct seeds) run
/// concurrently, one scoped thread each — the multi-scenario shape of
/// `Runner::run_many`, measured without the pool cap because the axis
/// exists precisely to chart raw thread scaling. Returns (total events,
/// wall seconds over all runs).
fn measure_aggregate(threads: usize) -> (u64, f64) {
    let mut worlds: Vec<World> =
        (0..threads as u64).map(|i| parallel_world(SEED + 1 + i)).collect();
    let start = Instant::now();
    let events: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = worlds
            .iter_mut()
            .map(|world| {
                scope.spawn(|| {
                    world.run();
                    world.processed_events()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench world thread panicked")).sum()
    });
    (events, start.elapsed().as_secs_f64())
}

/// One thread-count entry of the parallel report: its JSON line and the
/// aggregate speedup over the serial reference.
fn threads_entry(threads: usize, serial_eps: f64) -> (String, f64) {
    let (agg_events, agg_secs) = measure_aggregate(threads);
    let agg_eps = agg_events as f64 / agg_secs;
    let agg_speedup = agg_eps / serial_eps;
    eprintln!("bench_scale: threads {threads}: aggregate {agg_eps:.0} ev/s ({agg_speedup:.2}x)");
    let line = format!(
        "{{ \"threads\": {threads}, \"aggregate_events\": {agg_events}, \
         \"aggregate_wall_secs\": {agg_secs:.3}, \"aggregate_events_per_sec\": {agg_eps:.0}, \
         \"aggregate_speedup\": {agg_speedup:.3} }}"
    );
    (line, agg_speedup)
}

/// `--threads N` — the CI parallel smoke gate: serial reference plus one
/// thread-count entry. `--min-thread-speedup X` fails the run when the
/// aggregate lane scales worse than `X` — enforced only on multi-core
/// hosts, since a single core cannot exhibit wall-clock speedup.
fn run_threads(threads: usize, args: &[String]) {
    let cores = cores();
    eprintln!(
        "bench_scale: parallel axis, {threads} thread(s) on {cores} core(s), \
         {PARALLEL_NODES} nodes, {} jobs, seed {SEED}",
        tier_jobs(PARALLEL_NODES)
    );
    let (serial_events, serial_secs) = measure_serial();
    let serial_eps = serial_events as f64 / serial_secs;
    eprintln!("bench_scale: serial reference {serial_eps:.0} ev/s ({serial_events} events)");
    let (entry, agg_speedup) = threads_entry(threads, serial_eps);
    println!(
        "{{ \"benchmark\": \"bench_parallel\", \"cores\": {cores}, \
         \"serial_events_per_sec\": {serial_eps:.0}, \"entry\": {entry} }}"
    );
    if let Some(floor) = flag_value(args, "--min-thread-speedup") {
        if cores < 2 {
            eprintln!(
                "bench_scale: --min-thread-speedup {floor} not enforced on a \
                 single-core host (measured {agg_speedup:.2}x)"
            );
        } else if agg_speedup < floor as f64 {
            eprintln!(
                "bench_scale: FAIL aggregate speedup {agg_speedup:.2}x under the {floor}x floor"
            );
            std::process::exit(1);
        }
    }
}

/// `--parallel` — sweeps the thread axis and writes `BENCH_parallel.json`.
fn run_parallel_driver(args: &[String]) {
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let cores = cores();
    eprintln!(
        "bench_scale: parallel sweep on {cores} core(s), {PARALLEL_NODES} nodes, {} jobs",
        tier_jobs(PARALLEL_NODES)
    );
    let (serial_events, serial_secs) = measure_serial();
    let serial_eps = serial_events as f64 / serial_secs;
    eprintln!("bench_scale: serial reference {serial_eps:.0} ev/s ({serial_events} events)");
    let entries: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| format!("    {}", threads_entry(threads, serial_eps).0))
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"bench_parallel\",\n  \"seed\": {SEED},\n  \"cores\": {cores},\n  \
         \"nodes\": {PARALLEL_NODES},\n  \"jobs\": {},\n  \
         \"serial_events\": {serial_events},\n  \"serial_run_secs\": {serial_secs:.3},\n  \
         \"serial_events_per_sec\": {serial_eps:.0},\n  \"threads\": [\n{}\n  ]\n}}\n",
        tier_jobs(PARALLEL_NODES),
        entries.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("bench_scale: report -> {out_path}");
    print!("{json}");
}

/// Driver mode: every tier in a fresh child process (per-tier `VmHWM`),
/// results assembled into one JSON report.
fn run_driver(args: &[String]) {
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let exe = std::env::current_exe().expect("own executable path");
    let mut tiers = Vec::new();
    for &nodes in TIERS {
        match run_tier_process(&exe, nodes) {
            Ok(line) => tiers.push(format!("    {line}")),
            Err(reason) => {
                eprintln!("bench_scale: tier {nodes} failed: {reason}");
                tiers.push(format!(
                    "    {{ \"nodes\": {nodes}, \"jobs\": {}, \"failed\": \"{reason}\" }}",
                    tier_jobs(nodes)
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"benchmark\": \"bench_scale\",\n  \"seed\": {SEED},\n  \
         \"tier_timeout_secs\": {},\n  \"tiers\": [\n{}\n  ]\n}}\n",
        TIER_TIMEOUT.as_secs(),
        tiers.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("bench_scale: report -> {out_path}");
    print!("{json}");
}

/// Runs one tier as a child process under the tier time budget; returns
/// the tier's JSON line from its stdout.
fn run_tier_process(exe: &std::path::Path, nodes: usize) -> Result<String, String> {
    let mut child = std::process::Command::new(exe)
        .arg("--tier")
        .arg(nodes.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break,
            Ok(Some(status)) => return Err(format!("exit status {status}")),
            Ok(None) if start.elapsed() > TIER_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {}s", TIER_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(200)),
            Err(e) => return Err(format!("wait: {e}")),
        }
    }
    let mut out = String::new();
    use std::io::Read as _;
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .map_err(|e| format!("read stdout: {e}"))?;
    let line = out.lines().find(|l| l.trim_start().starts_with('{'));
    line.map(str::to_string).ok_or_else(|| "no JSON line on stdout".to_string())
}

/// This process's peak resident set (`VmHWM`) in kB, from
/// `/proc/self/status`; 0 when unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0);
        }
    }
    0
}
