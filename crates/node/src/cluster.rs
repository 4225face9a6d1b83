//! Multi-process localhost cluster harness.
//!
//! [`run_cluster`] spawns N `aria-node` processes on loopback UDP,
//! submits a JSDL workload (each job is written to disk as a JSDL
//! document and parsed back before submission — the live counterpart of
//! the paper's job-profile interchange), collects completion reports,
//! shuts the nodes down and merges their per-node probe traces into one
//! schema-valid JSONL stream that `cargo xtask probe timeline/summary`
//! reads exactly like a simulator trace.
//!
//! ## Chaos
//!
//! A [`ClusterSpec::churn`] schedule executes deterministic
//! process-level faults while the workload runs: SIGKILL a node at time
//! T, restart it (a fresh incarnation on the same port, a varied seed,
//! its own trace file) at T'. Scheduled per-node loss windows
//! ([`ClusterSpec::loss_windows`]) approximate asymmetric partitions on
//! loopback. Two oracles then read the run: job conservation
//! ([`ClusterOutcome::check_conservation`] — every job completes exactly
//! once, nothing lost) and liveness
//! ([`ClusterOutcome::check_liveness`] — every job submitted to a
//! surviving node completes within a bound derived from the timing
//! config, see [`liveness_bound`]).
//!
//! Every spawned child is held by a kill-on-drop guard: a harness panic
//! or oracle failure reaps the whole cluster instead of leaking node
//! processes. Trace collection tolerates killed incarnations by falling
//! back to the flushed `<trace>.part` stream (with a synthesized
//! header), and bounds how long it waits for any one node's file.

use crate::config::NodeConfig;
use aria_core::config::ProtocolTiming;
use aria_core::driver::{DriverConfig, LiveMsg, MembershipConfig};
use aria_core::AriaConfig;
use aria_grid::{JobId, JobSpec, NodeProfile, Policy};
use aria_jsdl::JobDefinition;
use aria_overlay::NodeId;
use aria_probe::schema;
use aria_probe::{ProbeEvent, Trace, TraceEntry, TraceMeta};
use aria_sim::SimDuration;
use std::collections::BTreeMap;
use std::io;
use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One scheduled process-level fault, relative to workload start.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// When (since the first submission) the action fires.
    pub at: Duration,
    /// What happens.
    pub action: ChurnAction,
}

/// A process-level fault the harness injects.
#[derive(Debug, Clone, Copy)]
pub enum ChurnAction {
    /// SIGKILL the node — no shutdown handshake, no trace finalization.
    Kill(u32),
    /// Start a fresh incarnation of a killed node on its original port.
    Restart(u32),
}

/// What to run: node count, workload, fault knobs and file layout.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes to spawn.
    pub nodes: u32,
    /// The workload; each spec takes the JSDL round trip before submission.
    pub jobs: Vec<JobSpec>,
    /// Per-node profiles; cycled if shorter than `nodes`.
    pub profiles: Vec<NodeProfile>,
    /// Per-node policies; cycled if shorter than `nodes`.
    pub policies: Vec<Policy>,
    /// Driver configuration template (timing usually tightened for live
    /// runs; the defaults are the paper's simulation timescale).
    pub driver: DriverConfig,
    /// Inbound protocol-message loss probability injected at each node.
    pub loss: f64,
    /// Per-node scheduled loss windows `(node, from_ms, until_ms)`
    /// since that node's start: `loss` applies only inside the window.
    /// Nodes not listed are lossy for their whole run (when `loss > 0`).
    pub loss_windows: Vec<(u32, u64, u64)>,
    /// Deterministically drop the first inbound ASSIGN at every node.
    pub drop_first_assign: bool,
    /// Base RNG seed; node k runs with `seed + k` (restarted
    /// incarnations perturb it further).
    pub seed: u64,
    /// Gap between successive job submissions.
    pub submit_gap: Duration,
    /// Nodes that receive submissions (round-robin); empty = all nodes.
    /// Chaos runs keep this disjoint from kill victims: a job whose
    /// initiator dies is unrecoverable by design (§III-D recovers
    /// delegations, not initiators).
    pub submit_to: Vec<u32>,
    /// The fault schedule, executed while the workload runs.
    pub churn: Vec<ChurnEvent>,
    /// Scratch directory for configs, JSDL files and traces.
    pub dir: PathBuf,
    /// Path to the `aria-node` binary.
    pub node_binary: PathBuf,
    /// Wall-clock budget for the whole run.
    pub deadline: Duration,
}

/// What the run produced.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Completion reports: which node finished each job.
    pub completed: BTreeMap<JobId, NodeId>,
    /// Wall-clock submission→completion latency per job.
    pub latencies: BTreeMap<JobId, Duration>,
    /// The merged, re-sequenced, schema-validated probe trace.
    pub merged: Trace,
    /// Path the merged JSONL was written to (`cluster.jsonl`).
    pub merged_path: PathBuf,
    /// ASSIGN retransmissions observed across the cluster.
    pub retransmits: u64,
    /// Fault-stage drops recorded across the cluster.
    pub injected_drops: u64,
    /// `job-lost` events observed (must be 0 for a conserving run).
    pub lost_events: u64,
    /// `peer-dead` events in the merged trace.
    pub peer_dead_events: u64,
    /// `peer-rejoined` events in the merged trace.
    pub peer_rejoined_events: u64,
    /// Highest per-node peak RSS (VmHWM) sampled before shutdown, in
    /// KiB; 0 where /proc is unavailable or every node was killed.
    pub max_node_rss_kb: u64,
    /// Times the nodes blocked and were woken (`voluntary_ctxt_switches`),
    /// summed over every incarnation, each sampled where VmHWM is: before
    /// its kill or before shutdown. 0 where /proc is unavailable.
    pub node_wakeups: u64,
    /// The wall-clock seconds `node_wakeups` covers: every sampled
    /// incarnation's life from spawn to its sample.
    pub node_secs: f64,
}

impl ClusterOutcome {
    /// The job-conservation oracle over the merged trace: every
    /// submitted job completed on exactly one node, and nothing was
    /// lost. Returns a description of the first violation.
    pub fn check_conservation(&self, jobs: &[JobSpec]) -> Result<(), String> {
        if self.lost_events > 0 {
            return Err(format!("{} job-lost event(s) in the merged trace", self.lost_events));
        }
        let mut completions: BTreeMap<JobId, u64> = BTreeMap::new();
        for entry in &self.merged.entries {
            if let ProbeEvent::Completed { job, .. } = entry.event {
                *completions.entry(job).or_default() += 1;
            }
        }
        for spec in jobs {
            match completions.get(&spec.id).copied().unwrap_or(0) {
                1 => {}
                0 => return Err(format!("{} never completed", spec.id)),
                n => return Err(format!("{} completed {n} times", spec.id)),
            }
        }
        Ok(())
    }

    /// Node wakeups per node-second of sampled life; 0 where /proc is
    /// unavailable.
    pub fn wakeups_per_node_sec(&self) -> f64 {
        if self.node_secs > 0.0 {
            self.node_wakeups as f64 / self.node_secs
        } else {
            0.0
        }
    }

    /// The liveness oracle: every submitted job was reported complete,
    /// and none took longer than `bound` wall-clock from submission.
    /// Run it with [`liveness_bound`] over specs whose initiators
    /// survive the churn schedule.
    pub fn check_liveness(&self, jobs: &[JobSpec], bound: Duration) -> Result<(), String> {
        for spec in jobs {
            match self.latencies.get(&spec.id) {
                None => return Err(format!("{} never reported completion", spec.id)),
                Some(lat) if *lat > bound => {
                    return Err(format!(
                        "{} took {:.1}s, liveness bound is {:.1}s",
                        spec.id,
                        lat.as_secs_f64(),
                        bound.as_secs_f64()
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Protocol timing tightened from the paper's simulation timescale to a
/// live loopback one (shape preserved, constants scaled) so a whole run
/// fits in a few wall-clock seconds. The failure detector matches:
/// suspect after 1.5 s of silence, dead after 4 s.
pub fn live_timing() -> DriverConfig {
    let aria = AriaConfig {
        timing: ProtocolTiming {
            accept_window: SimDuration::from_millis(300),
            request_retry: SimDuration::from_millis(1000),
            max_request_rounds: 50,
            assign_ack_timeout: SimDuration::from_millis(200),
            assign_max_retries: 4,
        },
        inform_period: SimDuration::from_millis(2000),
        ..AriaConfig::default()
    };
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

/// A wall-clock completion bound derived from the protocol timing: a
/// few discovery rounds (a satisfiable job on a non-starved cluster
/// rarely needs more — the full retry budget covers capacity
/// starvation, which is not what this oracle tests), the whole ASSIGN
/// retransmit ladder, failure detection, failsafe recovery with one
/// more discovery, then execution itself (three serialized ERTs cover
/// queueing behind recovered work), plus scheduling slack. Loose on
/// purpose — it is a liveness oracle ("completes on protocol
/// timescales"), not a performance SLO — but it stays well under a
/// typical harness deadline, so it still has teeth.
pub fn liveness_bound(driver: &DriverConfig, max_ert: Duration) -> Duration {
    let t = driver.aria.timing;
    let per_round = dur(t.accept_window) + dur(t.request_retry);
    let discovery = per_round * t.max_request_rounds.clamp(1, 3);
    let assign = dur(t.assign_ack_timeout) * (t.assign_max_retries + 1);
    let detection = dur(driver.membership.heartbeat_period) * (driver.membership.dead_misses + 1);
    let failsafe = dur(driver.failsafe_detection);
    2 * discovery + assign + detection + failsafe + 3 * max_ert + Duration::from_secs(5)
}

fn dur(d: SimDuration) -> Duration {
    Duration::from_millis(d.as_millis())
}

/// Owns a spawned node process and kills it on drop, so a harness panic
/// or early return reaps the whole cluster instead of leaking children.
struct ChildGuard {
    child: Child,
    spawned: Instant,
}

impl ChildGuard {
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn has_exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// The number in a `/proc/<pid>/status` field (`VmHWM` in KiB,
/// `voluntary_ctxt_switches`, …); `None` off Linux or once the process
/// is gone.
fn status_field(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What `/proc` says about the node processes, accumulated over the run.
#[derive(Default)]
struct NodeSamples {
    max_rss_kb: u64,
    wakeups: u64,
    secs: f64,
}

impl NodeSamples {
    /// Samples one live incarnation; call it once per incarnation, just
    /// before it is killed or shut down.
    fn sample(&mut self, node: &ChildGuard) {
        let pid = node.child.id();
        self.max_rss_kb = self.max_rss_kb.max(status_field(pid, "VmHWM").unwrap_or(0));
        if let Some(wakeups) = status_field(pid, "voluntary_ctxt_switches") {
            self.wakeups += wakeups;
            self.secs += node.spawned.elapsed().as_secs_f64();
        }
    }
}

/// How long trace collection waits for any single node's final file
/// before falling back to its `.part` stream.
const TRACE_COLLECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Reads one incarnation's trace: the finalized file if it appears
/// within the timeout, else the flushed `.part` stream with a
/// synthesized header (a torn final line — a write cut by SIGKILL — is
/// dropped). `None` if the incarnation left nothing readable.
fn collect_trace(path: &Path, node: u32) -> io::Result<Option<Trace>> {
    let started = Instant::now();
    loop {
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            match schema::from_jsonl(&text) {
                Ok(trace) => return Ok(Some(trace)),
                // A shutdown may still be mid-write; retry within budget.
                Err(_) if started.elapsed() < TRACE_COLLECT_TIMEOUT => {}
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("node {node} trace {}: {e}", path.display()),
                    ))
                }
            }
        }
        let part = path.with_extension("jsonl.part");
        if started.elapsed() >= TRACE_COLLECT_TIMEOUT
            || (!path.exists() && part.exists() && started.elapsed() >= Duration::from_millis(200))
        {
            let Ok(text) = std::fs::read_to_string(&part) else { return Ok(None) };
            let mut lines: Vec<&str> = text.lines().collect();
            if !text.ends_with('\n') {
                lines.pop(); // torn by the kill mid-write
            }
            let meta = TraceMeta { scenario: "live-node".to_string(), seed: 0, nodes: 0, jobs: 0 };
            let mut doc = schema::header_line(&meta, lines.len() as u64, 0);
            doc.push('\n');
            for line in &lines {
                doc.push_str(line);
                doc.push('\n');
            }
            return match schema::from_jsonl(&doc) {
                Ok(trace) => Ok(Some(trace)),
                Err(e) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node {node} partial trace {}: {e}", part.display()),
                )),
            };
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs the cluster end to end. See the module docs for the phases.
pub fn run_cluster(spec: &ClusterSpec) -> io::Result<ClusterOutcome> {
    assert!(spec.nodes >= 2, "a cluster needs at least two nodes");
    assert!(!spec.jobs.is_empty(), "a cluster run needs a workload");
    std::fs::create_dir_all(&spec.dir)?;

    // The report socket stays bound for the whole run; node ports are
    // reserved by binding and immediately released (fine on loopback —
    // nothing else races for just-freed ephemeral ports in CI).
    let report = UdpSocket::bind("127.0.0.1:0")?;
    let report_addr = report.local_addr()?;
    let reservations: Vec<UdpSocket> =
        (0..spec.nodes).map(|_| UdpSocket::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    let node_addrs: Vec<String> = reservations
        .iter()
        .map(|s| Ok(format!("127.0.0.1:{}", s.local_addr()?.port())))
        .collect::<io::Result<_>>()?;
    drop(reservations);

    // The JSDL leg: write each job out as a JSDL document and submit
    // what parses back, so the wire workload went through the standard
    // interchange format, not a Rust-only shortcut.
    let mut workload = Vec::with_capacity(spec.jobs.len());
    for job in &spec.jobs {
        let path = spec.dir.join(format!("job-{:06}.xml", job.id.raw()));
        let xml = JobDefinition::from_job_spec(job, Some(&format!("cluster-{}", job.id))).to_xml();
        std::fs::write(&path, &xml)?;
        let text = std::fs::read_to_string(&path)?;
        let parsed = JobDefinition::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let round_tripped = parsed
            .to_job_spec(job.id)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        // JSDL carries ERT in whole seconds; a sub-second ERT would
        // silently become a zero-cost job. Refuse rather than run a
        // different workload than the caller asked for.
        if round_tripped != *job {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} does not survive the JSDL round trip (sub-second ERT or deadline?): \
                     submitted {:?}, parsed back {:?}",
                    job.id, job, round_tripped
                ),
            ));
        }
        workload.push(round_tripped);
    }

    let peers: Vec<(NodeId, String)> = node_addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| (NodeId::from_index(i), addr.clone()))
        .collect();

    // One incarnation's config + spawn; `incarnation` 0 is the initial
    // boot, restarts count up and get their own seed and trace file.
    let make_config = |i: u32, incarnation: u32| -> (NodeConfig, PathBuf, PathBuf) {
        let suffix =
            if incarnation == 0 { format!("node-{i}") } else { format!("node-{i}-r{incarnation}") };
        let trace = spec.dir.join(format!("{suffix}.jsonl"));
        let loss_window =
            spec.loss_windows.iter().find(|(n, _, _)| *n == i).map(|&(_, from, until)| {
                (SimDuration::from_millis(from), SimDuration::from_millis(until))
            });
        let config = NodeConfig {
            id: NodeId::new(i),
            bind: node_addrs[i as usize].clone(),
            report: Some(report_addr.to_string()),
            seed: spec.seed + u64::from(i) + 1000 * u64::from(incarnation),
            policy: spec.policies[i as usize % spec.policies.len()],
            profile: spec.profiles[i as usize % spec.profiles.len()],
            driver: spec.driver,
            peers: peers.clone(),
            trace: Some(trace.to_string_lossy().into_owned()),
            loss: spec.loss,
            loss_window,
            drop_first_assign: spec.drop_first_assign,
        };
        (config, trace, spec.dir.join(format!("{suffix}.toml")))
    };
    let spawn = |config: &NodeConfig, config_path: &Path| -> io::Result<ChildGuard> {
        std::fs::write(config_path, config.to_toml())?;
        Ok(ChildGuard {
            child: Command::new(&spec.node_binary)
                .arg(config_path)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?,
            spawned: Instant::now(),
        })
    };

    let mut children: Vec<ChildGuard> = Vec::with_capacity(spec.nodes as usize);
    // Every incarnation's trace, tagged by node: killed incarnations
    // contribute their `.part` streams at merge time.
    let mut trace_paths: Vec<(u32, PathBuf)> = Vec::new();
    let mut incarnations = vec![0u32; spec.nodes as usize];
    for i in 0..spec.nodes {
        let (config, trace, config_path) = make_config(i, 0);
        trace_paths.push((i, trace));
        children.push(spawn(&config, &config_path)?);
    }

    // Give every child time to bind before the first submission; a
    // datagram sent to an unbound port is silently gone.
    std::thread::sleep(Duration::from_millis(500));

    let submit_targets: Vec<usize> = if spec.submit_to.is_empty() {
        (0..spec.nodes as usize).collect()
    } else {
        spec.submit_to.iter().map(|&n| n as usize).collect()
    };
    let mut churn: Vec<ChurnEvent> = spec.churn.clone();
    churn.sort_by_key(|ev| ev.at);
    let mut churn_next = 0usize;
    // A short workload can drain before the failure detector fires, so
    // the run also stays up long enough for every scheduled fault to
    // play out: a kill needs `dead_after` of silence before survivors
    // declare the corpse, a restart needs a few heartbeats to rejoin.
    let membership = &spec.driver.membership;
    let settle_until = churn
        .iter()
        .map(|ev| {
            ev.at
                + match ev.action {
                    ChurnAction::Kill(_) => {
                        Duration::from_millis(membership.dead_after().as_millis())
                    }
                    ChurnAction::Restart(_) => {
                        Duration::from_millis(membership.heartbeat_period.as_millis()) * 3
                    }
                }
                + Duration::from_secs(1)
        })
        .max()
        .unwrap_or(Duration::ZERO);

    // The main loop interleaves paced submission, the churn schedule
    // and completion collection, so kills land mid-workload.
    let started = Instant::now();
    let mut submitted_at: BTreeMap<JobId, Instant> = BTreeMap::new();
    let mut next_submit = 0usize;
    let mut completed: BTreeMap<JobId, NodeId> = BTreeMap::new();
    let mut latencies: BTreeMap<JobId, Duration> = BTreeMap::new();
    let mut samples = NodeSamples::default();
    let mut buf = vec![0u8; 64 * 1024];
    report.set_read_timeout(Some(Duration::from_millis(20)))?;
    while (completed.len() < workload.len()
        || next_submit < workload.len()
        || started.elapsed() < settle_until)
        && started.elapsed() < spec.deadline
    {
        while churn_next < churn.len() && started.elapsed() >= churn[churn_next].at {
            match churn[churn_next].action {
                ChurnAction::Kill(victim) => {
                    // Sample the high-water mark before the process goes.
                    samples.sample(&children[victim as usize]);
                    children[victim as usize].kill_now();
                }
                ChurnAction::Restart(node) => {
                    incarnations[node as usize] += 1;
                    let (config, trace, config_path) =
                        make_config(node, incarnations[node as usize]);
                    trace_paths.push((node, trace));
                    children[node as usize] = spawn(&config, &config_path)?;
                }
            }
            churn_next += 1;
        }
        while next_submit < workload.len()
            && started.elapsed()
                >= spec.submit_gap * u32::try_from(next_submit).expect("fewer than 2^32 jobs")
        {
            let job = &workload[next_submit];
            let target_node = submit_targets[next_submit % submit_targets.len()];
            let target: std::net::SocketAddr = node_addrs[target_node].parse().unwrap();
            report.send_to(&aria_codec::encode(&LiveMsg::Submit { spec: *job }), target)?;
            submitted_at.insert(job.id, Instant::now());
            next_submit += 1;
        }
        let Ok((len, _src)) = report.recv_from(&mut buf) else { continue };
        if let Ok(LiveMsg::Done { job, node }) = aria_codec::decode(&buf[..len]) {
            if completed.insert(job, node).is_none() {
                if let Some(at) = submitted_at.get(&job) {
                    latencies.insert(job, at.elapsed());
                }
            }
        }
    }

    // Sample everything still running, then shut down; retry the
    // datagram until the child exits in case a copy is lost, then
    // escalate to kill so the harness always terminates inside its
    // budget.
    for child in &children {
        samples.sample(child);
    }
    for (i, child) in children.iter_mut().enumerate() {
        let target: std::net::SocketAddr = node_addrs[i].parse().unwrap();
        let mut exited = child.has_exited();
        for _ in 0..50 {
            if exited {
                break;
            }
            report.send_to(&aria_codec::encode(&LiveMsg::Shutdown), target)?;
            std::thread::sleep(Duration::from_millis(40));
            exited = child.has_exited();
        }
        if !exited {
            child.kill_now();
        }
    }

    // Merge: order all retained entries by (time, node, seq) and
    // re-sequence, producing one stream the schema validator accepts.
    // Times are per-incarnation (each process clock starts at zero), so
    // the merged order is per-node-causal, not globally causal — the
    // oracles only count events, they never compare cross-node times.
    let mut tagged: Vec<(u32, TraceEntry)> = Vec::new();
    let mut dropped = 0;
    let mut injected_drops = 0;
    for (node, path) in &trace_paths {
        let Some(trace) = collect_trace(path, *node)? else { continue };
        dropped += trace.dropped;
        for entry in trace.entries {
            if matches!(entry.event, ProbeEvent::MessageDropped { .. }) {
                injected_drops += 1;
            }
            tagged.push((*node, entry));
        }
    }
    tagged.sort_by_key(|(node, entry)| (entry.at, *node, entry.seq));
    let entries: Vec<TraceEntry> = tagged
        .into_iter()
        .enumerate()
        .map(|(seq, (_node, entry))| TraceEntry { seq: seq as u64, ..entry })
        .collect();
    let count = |pred: fn(&ProbeEvent) -> bool| -> u64 {
        entries.iter().filter(|e| pred(&e.event)).count() as u64
    };
    let retransmits = count(|e| matches!(e, ProbeEvent::AssignRetransmit { .. }));
    let lost_events = count(|e| matches!(e, ProbeEvent::JobLost { .. }));
    let peer_dead_events = count(|e| matches!(e, ProbeEvent::PeerDead { .. }));
    let peer_rejoined_events = count(|e| matches!(e, ProbeEvent::PeerRejoined { .. }));
    let merged = Trace {
        meta: TraceMeta {
            scenario: "live-cluster".to_string(),
            seed: spec.seed,
            nodes: u64::from(spec.nodes),
            jobs: workload.len() as u64,
        },
        dropped,
        entries,
    };
    schema::validate(&merged)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
    let merged_path = spec.dir.join("cluster.jsonl");
    std::fs::write(&merged_path, schema::to_jsonl(&merged))?;

    Ok(ClusterOutcome {
        completed,
        latencies,
        merged,
        merged_path,
        retransmits,
        injected_drops,
        lost_events,
        peer_dead_events,
        peer_rejoined_events,
        max_node_rss_kb: samples.max_rss_kb,
        node_wakeups: samples.wakeups,
        node_secs: samples.secs,
    })
}
