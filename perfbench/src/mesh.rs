//! `driver_mesh`: 500 sans-io `NodeDriver`s pumped in virtual time by the
//! benchmark's own event queue, every sent message taking the
//! `aria_codec` encode → decode trip before delivery.
//!
//! The live protocol path with no sockets and no sleeps: what remains is
//! the CPU cost of `core::driver` and `codec`, with counts that repeat
//! exactly for a seed. The mesh has `sim_paper`'s dimensions — nodes,
//! jobs, submission rate, protocol timing, horizon — so the two `run_s`
//! compare directly. The number of inputs (and with it `run_s` and the
//! peak RSS) differs by ±8 % from seed to seed: that, not the host, sets
//! this workload's spread, so an untraced run measures at least twelve
//! seeds however short `--seconds` is.

use crate::report::Report;
use crate::spans::{Folded, Name, Off, Spans, Tracer, INPUT_KINDS, MSG_KINDS};
use crate::util::{
    cpu_secs, fresh_memory, latency_p50_p85, median_of, peak_rss_kb, repeat, SeedPlan,
};
use crate::Args;
use aria_core::driver::{
    DriverConfig, Input, LiveMsg, MembershipConfig, NodeDriver, Output, Timer,
};
use aria_core::PolicyMix;
use aria_overlay::{builders, LatencyModel, NodeId};
use aria_probe::MsgKind;
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{JobGenerator, ProfileGenerator};
use std::time::Instant;

/// Largest UDP payload that fits one Ethernet frame (1500 − IP − UDP).
const MTU_PAYLOAD: usize = 1472;

/// Mesh dimensions.
struct Size {
    nodes: usize,
    jobs: usize,
    /// One job is submitted per gap, at a random node.
    submit_gap: SimDuration,
    /// Periodic INFORM ticks stop here; in-flight work still drains.
    horizon: SimTime,
    /// Distinct seeds an untraced run measures at least, however short
    /// `--seconds` is.
    min_seeds: usize,
}

fn size(quick: bool) -> Size {
    if quick {
        Size {
            nodes: 40,
            jobs: 60,
            submit_gap: SimDuration::from_secs(10),
            horizon: SimTime::from_hours(3),
            min_seeds: 2,
        }
    } else {
        Size {
            nodes: 500,
            jobs: 1000,
            submit_gap: SimDuration::from_secs(10),
            horizon: SimTime::from_mins(41 * 60 + 40),
            // A repetition's cost and memory follow its input count,
            // which differs by ±8 % from seed to seed: over ten `--seed`
            // values the peak-RSS median of the six seeds that fit 18 s
            // spread by 9-12 %, that of twelve seeds (~35 s) by 7 %.
            min_seeds: 12,
        }
    }
}

fn msg_kind(msg: &LiveMsg) -> usize {
    match msg.kind() {
        MsgKind::Request => 0,
        MsgKind::Accept => 1,
        MsgKind::Inform => 2,
        MsgKind::Assign => 3,
        MsgKind::Ack => 4,
    }
}

fn input_kind(input: &Input) -> usize {
    match input {
        Input::Submit(_) => 0,
        Input::Timer(_) => 1,
        Input::Msg { msg, .. } => 2 + msg_kind(msg),
    }
}

/// The drivers, the pending inputs and everything counted along the way.
struct Mesh {
    drivers: Vec<NodeDriver>,
    queue: EventQueue<(u32, Input)>,
    latency: LatencyModel,
    latency_rng: SimRng,
    horizon: SimTime,
    inputs: u64,
    outputs: u64,
    probe_events: u64,
    frames: [u64; 5],
    bytes: [u64; 5],
    frames_over_mtu: u64,
    flood_frames: u64,
    visited_total: u64,
    /// Per job, in submission order (job ids count up from 0).
    submitted_at: Vec<SimTime>,
    completions: Vec<u32>,
    /// Virtual submission → completion times.
    latencies_ms: Vec<f64>,
    abandoned: u64,
    lost: u64,
}

impl Mesh {
    /// Builds the overlay, the drivers and the submission schedule, all
    /// from `seed`.
    fn new(size: &Size, seed: u64) -> Mesh {
        let mut rng = SimRng::seed_from(seed);
        let mut overlay_rng = rng.fork(1);
        let mut profile_rng = rng.fork(2);
        let mut workload_rng = rng.fork(3);
        let latency_rng = rng.fork(4);
        let latency = LatencyModel::default();
        let topology = builders::random_regular(size.nodes, 4, &latency, &mut overlay_rng);
        let profiles = ProfileGenerator::paper().generate_many(size.nodes, &mut profile_rng);
        let policies = PolicyMix::paper_mixed();
        // Paper timing with rescheduling on; the failure detector is off
        // so no heartbeat traffic dilutes the protocol path.
        let config = DriverConfig {
            membership: MembershipConfig {
                heartbeat_period: SimDuration::ZERO,
                ..MembershipConfig::default()
            },
            ..DriverConfig::default()
        };
        let peers: Vec<NodeId> = topology.nodes().collect();
        let drivers = peers
            .iter()
            .map(|&id| {
                NodeDriver::new(
                    id,
                    profiles[id.index()],
                    policies.sample(&mut profile_rng),
                    config,
                    rng.next_u64(),
                    peers.clone(),
                    topology.neighbors(id).to_vec(),
                )
            })
            .collect();
        let mut queue = EventQueue::new();
        let mut generator = JobGenerator::paper_batch();
        let mut submitted_at = Vec::with_capacity(size.jobs);
        for i in 0..size.jobs {
            let at = SimTime::from_mins(1) + size.submit_gap * i as u64;
            let job = generator.generate_feasible(at, &profiles, &mut workload_rng);
            assert_eq!(job.id.raw(), i as u64, "job ids count up from 0");
            let initiator = workload_rng.index(size.nodes) as u32;
            queue.schedule(at, (initiator, Input::Submit(job)));
            submitted_at.push(at);
        }
        Mesh {
            drivers,
            queue,
            latency,
            latency_rng,
            horizon: size.horizon,
            inputs: 0,
            outputs: 0,
            probe_events: 0,
            frames: [0; 5],
            bytes: [0; 5],
            frames_over_mtu: 0,
            flood_frames: 0,
            visited_total: 0,
            submitted_at,
            completions: vec![0; size.jobs],
            latencies_ms: Vec::with_capacity(size.jobs),
            abandoned: 0,
            lost: 0,
        }
    }

    /// Executes one driver's outputs the way a runtime would: messages
    /// cross the codec and a sampled link latency, timers go back on
    /// the queue.
    fn apply<S: Spans>(&mut self, now: SimTime, node: u32, outputs: Vec<Output>, spans: &mut S) {
        self.outputs += outputs.len() as u64;
        for output in outputs {
            match output {
                Output::Send { to, msg } => {
                    let kind = msg_kind(&msg);
                    spans.enter(Name::encode(kind));
                    let frame = aria_codec::encode(&msg);
                    spans.exit();
                    spans.enter(Name::decode(kind));
                    let decoded = aria_codec::decode(&frame);
                    spans.exit();
                    self.frames[kind] += 1;
                    self.bytes[kind] += frame.len() as u64;
                    self.frames_over_mtu += u64::from(frame.len() > MTU_PAYLOAD);
                    if let LiveMsg::Request { visited, .. } | LiveMsg::Inform { visited, .. } = &msg
                    {
                        self.flood_frames += 1;
                        self.visited_total += visited.len() as u64;
                    }
                    let decoded = decoded.expect("a frame the codec encoded decodes");
                    assert_eq!(decoded, msg, "codec round trip changed a message");
                    let at = now + self.latency.sample(&mut self.latency_rng);
                    let from = NodeId::new(node);
                    self.queue
                        .schedule(at, (to.raw(), Input::Msg { from, msg: decoded }));
                }
                Output::StartTimer { after, timer } => {
                    self.queue
                        .schedule(now + after, (node, Input::Timer(timer)));
                }
                Output::Probe(_) => self.probe_events += 1,
                Output::Completed { job } => {
                    let job = job.raw() as usize;
                    self.completions[job] += 1;
                    let latency = now.saturating_since(self.submitted_at[job]);
                    self.latencies_ms.push(latency.as_millis() as f64);
                }
                Output::Abandoned { .. } => self.abandoned += 1,
                Output::Lost { .. } => self.lost += 1,
            }
        }
    }

    /// Pumps the queue dry. Past the horizon the periodic INFORM ticks
    /// are dropped (like `World`, whose periodic activity stops at its
    /// horizon) so the queue drains.
    fn pump<S: Spans>(&mut self, spans: &mut S) {
        for node in 0..self.drivers.len() {
            let outputs = self.drivers[node].start(SimTime::ZERO);
            self.apply(SimTime::ZERO, node as u32, outputs, spans);
        }
        while let Some((now, (node, input))) = self.queue.pop() {
            if now > self.horizon && input == Input::Timer(Timer::InformTick) {
                continue;
            }
            self.inputs += 1;
            spans.enter(Name::handle(input_kind(&input)));
            let outputs = self.drivers[node as usize].handle(now, input);
            spans.exit();
            self.apply(now, node, outputs, spans);
        }
    }

    /// Counts that must repeat exactly for a fixed seed.
    fn fingerprint(&self) -> String {
        format!(
            "completed={} inputs={} frames={} bytes={} probe_events={}",
            self.completions.iter().filter(|&&c| c > 0).count(),
            self.inputs,
            self.frames.iter().sum::<u64>(),
            self.bytes.iter().sum::<u64>(),
            self.probe_events
        )
    }
}

/// One repetition's measurements.
struct Rep {
    seed: u64,
    setup_s: f64,
    run_s: f64,
    run_cpu_s: f64,
    peak_rss_kb: u64,
    mesh: Mesh,
}

fn run_once<S: Spans>(size: &Size, seed: u64, spans: &mut S) -> Rep {
    fresh_memory();
    spans.enter(Name::REP);
    let start = Instant::now();
    spans.enter(Name::SETUP);
    let mut mesh = Mesh::new(size, seed);
    spans.exit();
    let setup_s = start.elapsed().as_secs_f64();
    let cpu_before = cpu_secs().0;
    let start = Instant::now();
    spans.enter(Name::MESH_PUMP);
    mesh.pump(spans);
    spans.exit();
    let run_s = start.elapsed().as_secs_f64();
    let run_cpu_s = cpu_secs().0 - cpu_before;
    spans.exit();
    // The drivers' state is no longer needed; only the counts are.
    let peak_rss_kb = peak_rss_kb();
    mesh.drivers = Vec::new();
    mesh.queue = EventQueue::new();
    Rep {
        seed,
        setup_s,
        run_s,
        run_cpu_s,
        peak_rss_kb,
        mesh,
    }
}

/// Output checks: each job completed exactly once, none lost or
/// abandoned, and equal seeds gave equal counts.
fn check(reps: &[Rep], report: &mut Report) {
    for rep in reps {
        let mesh = &rep.mesh;
        let jobs = mesh.completions.len() as u64;
        let exactly_once = mesh.completions.iter().filter(|&&c| c == 1).count() as u64;
        report.attempted += jobs;
        report.failed += jobs - exactly_once;
        if exactly_once != jobs || mesh.lost > 0 || mesh.abandoned > 0 {
            report.violation(format!(
                "seed {}: {exactly_once} of {jobs} jobs completed exactly once, {} lost, {} abandoned",
                rep.seed, mesh.lost, mesh.abandoned
            ));
        }
        let first = reps
            .iter()
            .find(|r| r.seed == rep.seed)
            .expect("rep is in reps");
        if first.mesh.fingerprint() != mesh.fingerprint() {
            report.violation(format!(
                "seed {} did not repeat: `{}` then `{}`",
                rep.seed,
                first.mesh.fingerprint(),
                mesh.fingerprint()
            ));
        }
    }
    report.fingerprint = reps[0].mesh.fingerprint();
}

/// The untraced run: end-to-end metrics only.
pub fn run(args: &Args, report: &mut Report) {
    let size = size(args.quick);
    let min_reps = size.min_seeds + 1;
    let all = repeat(
        args.seed,
        args.seconds,
        min_reps,
        SeedPlan::Advance,
        |seed| run_once(&size, seed, &mut Off),
    );
    check(&all, report);
    let reps = SeedPlan::Advance.measured(&all);
    let jobs = (reps.len() * size.jobs) as f64;
    let cpu_s: f64 = reps.iter().map(|r| r.run_cpu_s).sum();
    report.set("setup_s", median_of(reps, |r| r.setup_s));
    report.set("run_s", median_of(reps, |r| r.run_s));
    report.set(
        "events_per_s",
        median_of(reps, |r| r.mesh.inputs as f64 / r.run_s),
    );
    report.set(
        "peak_rss_mb",
        median_of(reps, |r| r.peak_rss_kb as f64 / 1024.0),
    );
    report.set("cpu_ms_per_job", cpu_s * 1000.0 / jobs);
    report.set(
        "job_latency_p50_ms",
        median_of(reps, |r| latency_p50_p85(&r.mesh.latencies_ms).0),
    );
    report.set(
        "job_latency_p85_ms",
        median_of(reps, |r| latency_p50_p85(&r.mesh.latencies_ms).1),
    );
    report.notes.push(format!(
        "{} repetition(s), {} drivers, {} jobs each; seed {}: {}",
        all.len(),
        size.nodes,
        size.jobs,
        args.seed,
        report.fingerprint
    ));
}

/// The traced run: every `handle`, `encode` and `decode` call is a span
/// under the pump loop's span, so self times are true, not estimated.
pub fn run_traced(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let size = size(args.quick);
    let untraced = repeat(
        args.seed,
        args.seconds / 2.0,
        2,
        SeedPlan::Advance,
        |seed| run_once(&size, seed, &mut Off),
    );
    let mut folds: Vec<Folded> = Vec::new();
    let mut traced = repeat(
        args.seed,
        args.seconds / 2.0,
        2,
        SeedPlan::Advance,
        |seed| {
            let rep = run_once(&size, seed, tracer);
            folds.push(tracer.fold());
            rep
        },
    );
    // handle + encode + decode + the pump's self time add up to the pump
    // span by construction; the span must in turn match the run phase.
    for (rep, fold) in traced.iter().zip(&folds) {
        let pump_s = fold.total_s(Name::MESH_PUMP);
        if (pump_s - rep.run_s).abs() > 0.05 * rep.run_s {
            report.violation(format!(
                "seed {}: spans cover {pump_s:.3} s of a {:.3} s run phase",
                rep.seed, rep.run_s
            ));
        }
    }
    let over_folds = |f: &dyn Fn(&Folded) -> f64| median_of(&folds, f);
    let sum_s = |names: &[Name]| {
        over_folds(&|fold: &Folded| names.iter().map(|&n| fold.total_s(n)).sum::<f64>())
    };
    let handles: Vec<Name> = (0..INPUT_KINDS.len()).map(Name::handle).collect();
    let encodes: Vec<Name> = (0..MSG_KINDS.len()).map(Name::encode).collect();
    let decodes: Vec<Name> = (0..MSG_KINDS.len()).map(Name::decode).collect();

    report.set(
        "bench.trace_overhead_ratio",
        median_of(&traced, |r| r.run_s) / median_of(&untraced, |r| r.run_s),
    );
    report.set("core.driver.handle_s", sum_s(&handles));
    report.set("codec.encode_s", sum_s(&encodes));
    report.set("codec.decode_s", sum_s(&decodes));
    // The pump span's self time: the harness's own queue, latency
    // sampling and bookkeeping, so the shares sum to the traced `run_s`.
    report.set(
        "bench.mesh.queue_s",
        over_folds(&|fold: &Folded| fold.self_s(Name::MESH_PUMP)),
    );
    for (kind, label) in INPUT_KINDS.iter().enumerate() {
        let ns = over_folds(&|fold: &Folded| fold.mean_ns(Name::handle(kind)));
        report.set(&format!("core.driver.handle_ns.{label}"), ns);
    }
    // Counts are reported for seed S, whose fingerprint is pinned.
    let first = &traced[0].mesh;
    for (kind, label) in MSG_KINDS.iter().enumerate() {
        report.set(
            &format!("codec.encode_ns.{label}"),
            over_folds(&|fold: &Folded| fold.mean_ns(Name::encode(kind))),
        );
        report.set(
            &format!("codec.decode_ns.{label}"),
            over_folds(&|fold: &Folded| fold.mean_ns(Name::decode(kind))),
        );
        let frames = first.frames[kind].max(1) as f64;
        report.set(
            &format!("codec.bytes_per_frame.{label}"),
            first.bytes[kind] as f64 / frames,
        );
    }
    let frames = first.frames.iter().sum::<u64>() as f64;
    report.set("core.driver.inputs", first.inputs as f64);
    report.set(
        "core.driver.outputs_per_input",
        first.outputs as f64 / first.inputs as f64,
    );
    report.set(
        "core.driver.visited_len_mean",
        first.visited_total as f64 / first.flood_frames.max(1) as f64,
    );
    report.set("codec.frames", frames);
    report.set(
        "codec.frames_over_mtu_ratio",
        first.frames_over_mtu as f64 / frames.max(1.0),
    );

    traced.extend(untraced);
    check(&traced, report);
}
