//! `live_udp`: eight `aria-node` processes on loopback UDP, driven by one
//! `run_cluster` call.
//!
//! The only workload that crosses real sockets, the monotonic timer
//! loop, per-line trace flushing and process spawn. Traffic crosses the
//! host's loopback interface, not a link: wire latency and link rates
//! are not measured here.
//!
//! Load is an open loop: one job of ERT 1 s every 250 ms (4 jobs/s over
//! 8 nodes, ~50 % utilisation). Latency is as `run_cluster` records it,
//! from the actual send; its pacing loop polls at ≤ 20 ms and the
//! generator's lateness cannot be read from outside.

use crate::report::Report;
use crate::spans::{Name, Spans, Tracer};
use crate::util::{cpu_secs, latency_p50_p85, median};
use crate::Args;
use aria_core::config::ProtocolTiming;
use aria_core::driver::{DriverConfig, MembershipConfig};
use aria_core::AriaConfig;
use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_jsdl::JobDefinition;
use aria_node::cluster::{liveness_bound, run_cluster, ClusterOutcome, ClusterSpec};
use aria_probe::ProbeEvent;
use aria_sim::{SimDuration, SimRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const NODES: u32 = 8;
const SUBMIT_GAP: Duration = Duration::from_millis(250);
const ERT: SimDuration = SimDuration::from_secs(1);
/// How many times set-up is repeated for its median.
const SETUP_REPS: usize = 100;

/// `aria-cluster`'s live timing: the paper's protocol shape with the
/// constants scaled to a loopback timescale (300 ms accept window,
/// 500 ms heartbeats).
fn live_timing() -> DriverConfig {
    let mut aria = AriaConfig::default().with_timing(ProtocolTiming {
        accept_window: SimDuration::from_millis(300),
        request_retry: SimDuration::from_millis(1000),
        max_request_rounds: 50,
        assign_ack_timeout: SimDuration::from_millis(200),
        assign_max_retries: 4,
    });
    aria.inform_period = SimDuration::from_millis(2000);
    DriverConfig {
        aria,
        failsafe: true,
        failsafe_detection: SimDuration::from_millis(3000),
        membership: MembershipConfig {
            heartbeat_period: SimDuration::from_millis(500),
            suspect_misses: 3,
            dead_misses: 8,
        },
    }
}

/// The `aria-node` binary next to this one in the target directory.
fn node_binary() -> PathBuf {
    let me = std::env::current_exe().expect("own executable path");
    me.with_file_name(if cfg!(windows) {
        "aria-node.exe"
    } else {
        "aria-node"
    })
}

/// Everything before `run_cluster`: the seeded workload (resource
/// classes vary with the seed; every one fits the homogeneous profile),
/// a check that each job survives the JSDL round trip `run_cluster`
/// insists on, an empty scratch directory and the spec.
fn prepare(seed: u64, jobs: u64, dir: &Path) -> std::io::Result<ClusterSpec> {
    let mut rng = SimRng::seed_from(seed);
    let jobs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let memory = *rng.choose(&[1u16, 2, 4, 8, 16]);
            let disk = *rng.choose(&[1u16, 2, 4, 8, 16]);
            let requirements =
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, memory, disk);
            JobSpec::batch(JobId::new(i), requirements, ERT)
        })
        .collect();
    for job in &jobs {
        let xml = JobDefinition::from_job_spec(job, None).to_xml();
        let back = JobDefinition::parse(&xml).and_then(|def| def.to_job_spec(job.id));
        if back.ok() != Some(*job) {
            return Err(std::io::Error::other(format!(
                "{} does not survive JSDL",
                job.id
            )));
        }
    }
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let submit_span = SUBMIT_GAP * jobs.len() as u32;
    Ok(ClusterSpec {
        nodes: NODES,
        jobs,
        profiles: vec![NodeProfile::new(
            Architecture::Amd64,
            OperatingSystem::Linux,
            64,
            1000,
            PerfIndex::BASELINE,
        )],
        policies: vec![Policy::Fcfs, Policy::Sjf],
        driver: live_timing(),
        loss: 0.0,
        loss_windows: Vec::new(),
        drop_first_assign: false,
        seed,
        submit_gap: SUBMIT_GAP,
        submit_to: Vec::new(),
        churn: Vec::new(),
        dir: dir.to_path_buf(),
        node_binary: node_binary(),
        deadline: submit_span + Duration::from_secs(30),
    })
}

/// One cluster run with its timings.
struct Run {
    spec: ClusterSpec,
    outcome: ClusterOutcome,
    setup_s: f64,
    run_s: f64,
    children_cpu_s: f64,
}

fn run_once<S: Spans>(
    args: &Args,
    scratch: &Path,
    report: &mut Report,
    spans: &mut S,
) -> Option<Run> {
    // Open loop at a fixed rate: the measured span sets the job count.
    let jobs = ((args.seconds / SUBMIT_GAP.as_secs_f64()).round() as u64).max(8);
    let dir = scratch.join("cluster");
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut spec = None;
    spans.enter(Name::REP);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        spans.enter(Name::SETUP);
        let prepared = prepare(args.seed, jobs, &dir);
        spans.exit();
        setups.push(start.elapsed().as_secs_f64());
        spec = Some(prepared);
    }
    let spec = match spec.expect("set-up ran") {
        Ok(spec) => spec,
        Err(e) => {
            spans.exit();
            report.violation(format!("set-up failed: {e}"));
            return None;
        }
    };
    let children_before = cpu_secs().1;
    let start = Instant::now();
    spans.enter(Name::CLUSTER_RUN);
    let outcome = run_cluster(&spec);
    spans.exit();
    let run_s = start.elapsed().as_secs_f64();
    let children_cpu_s = cpu_secs().1 - children_before;
    spans.exit();
    report.attempted += jobs;
    match outcome {
        Ok(outcome) => Some(Run {
            spec,
            outcome,
            setup_s: median(&setups),
            run_s,
            children_cpu_s,
        }),
        Err(e) => {
            report.failed += jobs;
            report.violation(format!("run_cluster failed: {e}"));
            None
        }
    }
}

/// The conservation and liveness oracles, and the failure count.
/// Returns how many jobs completed exactly once.
fn check(run: &Run, report: &mut Report) -> u64 {
    let jobs = &run.spec.jobs;
    if let Err(violation) = run.outcome.check_conservation(jobs) {
        report.violation(format!("conservation: {violation}"));
    }
    let bound = liveness_bound(&run.spec.driver, Duration::from_millis(ERT.as_millis()));
    if let Err(violation) = run.outcome.check_liveness(jobs, bound) {
        report.violation(format!("liveness: {violation}"));
    }
    let mut completions = vec![0u32; jobs.len()];
    for entry in &run.outcome.merged.entries {
        if let ProbeEvent::Completed { job, .. } = entry.event {
            if let Some(slot) = completions.get_mut(job.raw() as usize) {
                *slot += 1;
            }
        }
    }
    let exactly_once = completions.iter().filter(|&&c| c == 1).count() as u64;
    report.failed += jobs.len() as u64 - exactly_once;
    exactly_once
}

fn latencies_ms(outcome: &ClusterOutcome) -> Vec<f64> {
    outcome
        .latencies
        .values()
        .map(|d| d.as_secs_f64() * 1000.0)
        .collect()
}

/// The untraced run: end-to-end metrics only.
///
/// The run phase is paced by the open loop (`jobs × 250 ms` plus spawn
/// and drain), so `run_s` and `events_per_s` (jobs completed ÷ `run_s`)
/// barely move with the code; what a change can move here is the job
/// latency and the CPU per job.
pub fn run(args: &Args, scratch: &Path, report: &mut Report) {
    let Some(run) = run_once(args, scratch, report, &mut crate::spans::Off) else {
        return;
    };
    let completed = check(&run, report);
    let jobs = run.spec.jobs.len() as f64;
    let (p50_ms, p85_ms) = latency_p50_p85(&latencies_ms(&run.outcome));
    report.set("setup_s", run.setup_s);
    report.set("run_s", run.run_s);
    report.set("events_per_s", completed as f64 / run.run_s);
    report.set("peak_rss_mb", run.outcome.max_node_rss_kb as f64 / 1024.0);
    report.set("cpu_ms_per_job", run.children_cpu_s * 1000.0 / jobs);
    report.set("job_latency_p50_ms", p50_ms);
    report.set("job_latency_p85_ms", p85_ms);
    report.notes.push(format!(
        "{NODES} nodes over loopback (not a link), {} jobs at {} ms gaps, {} latency samples",
        run.spec.jobs.len(),
        SUBMIT_GAP.as_millis(),
        run.outcome.latencies.len()
    ));
}

/// The traced run. The benchmark cannot open spans inside `run_cluster`
/// or the node processes, so the one cluster run carries a single span
/// and the per-layer numbers come from `ClusterOutcome`, the merged
/// probe trace and `/proc`; the span adds nothing measurable, which is
/// what the overhead ratio of 1 states.
pub fn run_traced(args: &Args, scratch: &Path, report: &mut Report, tracer: &mut Tracer) {
    let run = run_once(args, scratch, report, tracer);
    let folded = tracer.fold();
    let Some(run) = run else { return };
    check(&run, report);
    let jobs = run.spec.jobs.len() as f64;
    report.set(
        "bench.trace_overhead_ratio",
        folded.total_s(Name::CLUSTER_RUN) / run.run_s,
    );
    let last_latency_s = run
        .spec
        .jobs
        .last()
        .and_then(|job| run.outcome.latencies.get(&job.id))
        .map_or(0.0, Duration::as_secs_f64);
    let submit_span_s = SUBMIT_GAP.as_secs_f64() * (jobs - 1.0);
    report.set(
        "node.cluster.harness_overhead_s",
        run.run_s - submit_span_s - last_latency_s,
    );
    report.set(
        "node.runtime.cpu_ms_per_job",
        run.children_cpu_s * 1000.0 / jobs,
    );
    report.set(
        "node.runtime.peak_rss_kb",
        run.outcome.max_node_rss_kb as f64,
    );
    let summary = aria_probe::summarize(&run.outcome.merged);
    for (kind, label) in [
        ("flood-hop", "flood_hop"),
        ("bid-sent", "bid_sent"),
        ("assigned", "assigned"),
        ("ack-received", "ack_received"),
    ] {
        let count = summary.by_kind.get(kind).copied().unwrap_or(0);
        report.set(
            &format!("node.runtime.events_per_job.{label}"),
            count as f64 / jobs,
        );
    }
    report.set("node.runtime.retransmits", run.outcome.retransmits as f64);
    report.set(
        "node.runtime.trace_dropped",
        run.outcome.merged.dropped as f64,
    );
}
