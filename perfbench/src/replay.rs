//! Isolated replays at fixed sizes: each layer's public operation, timed
//! on its own with inputs generated from the seed.
//!
//! `World::run` cannot be opened from outside, so these are the only
//! view inside it: an in-situ operation count times the isolated cost
//! per operation gives a layer's *estimated* share of a run.

use crate::report::Report;
use crate::Args;
use aria_core::driver::Timer;
use aria_grid::{JobId, JobSpec, NodeProfile, Policy, SchedulerQueue};
use aria_jsdl::JobDefinition;
use aria_node::TimerWheel;
use aria_overlay::{builders, Blatant, LatencyModel};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{JobGenerator, ProfileGenerator};
use std::hint::black_box;
use std::time::Instant;

/// The replay results the share estimates need.
pub struct Replays {
    push_pop_ns: [(u64, f64); 3],
    /// `cost_of_candidate` on an ETTC (batch) queue one job deep.
    pub ettc_ns_d1: f64,
    /// `cost_of_candidate` on a NAL (EDF) queue one job deep.
    pub nal_ns_d1: f64,
    /// Enqueue + start + complete on an FCFS queue.
    pub cycle_ns_fcfs: f64,
    /// Enqueue + start + complete on an SJF queue.
    pub cycle_ns_sjf: f64,
    /// Enqueue + start + complete on an EDF queue.
    pub cycle_ns_edf: f64,
}

impl Replays {
    /// The event-queue cost per push + pop at the measured depth nearest
    /// (in ratio) to `depth`.
    pub fn push_pop_ns_near(&self, depth: u64) -> f64 {
        let distance = |d: u64| (d as f64 / depth.max(1) as f64).ln().abs();
        self.push_pop_ns
            .iter()
            .min_by(|a, b| distance(a.0).total_cmp(&distance(b.0)))
            .expect("three depths measured")
            .1
    }

    /// Runs every replay and records its metric. `scale_tier` adds the
    /// 100 000-node overlay build, which only `sim_scale` can afford.
    pub fn run(args: &Args, scale_tier: bool, report: &mut Report) -> Replays {
        let mut rng = SimRng::seed_from(args.seed ^ 0x5EED_0F8E_91A7);
        let ops = if args.quick { 20_000 } else { 1_000_000 };

        let push_pop_ns =
            [(1_000, "d1e3"), (100_000, "d1e5"), (1_000_000, "d1e6")].map(|(depth, label)| {
                let depth = if args.quick { depth.min(10_000) } else { depth };
                let ns = event_queue_hold(depth, ops, &mut rng);
                report.set(&format!("sim.event.push_pop_ns.{label}"), ns);
                (depth as u64, ns)
            });

        let profiles = ProfileGenerator::paper().generate_many(500, &mut rng);
        let mut cost = |policy: Policy, prefix: &str| -> f64 {
            let mut at_depth_1 = 0.0;
            for depth in [1usize, 50, 500] {
                let ns = cost_of_candidate(policy, depth, ops / 10, &profiles, &mut rng);
                report.set(&format!("grid.queue.{prefix}.d{depth}"), ns);
                if depth == 1 {
                    at_depth_1 = ns;
                }
            }
            at_depth_1
        };
        let ettc_ns_d1 = cost(Policy::Fcfs, "ettc_ns");
        let nal_ns_d1 = cost(Policy::Edf, "nal_ns");
        let mut cycle = |policy: Policy, label: &str| -> f64 {
            let ns = queue_cycle(policy, ops / 10, &profiles, &mut rng);
            report.set(&format!("grid.queue.cycle_ns.{label}"), ns);
            ns
        };
        let cycle_ns_fcfs = cycle(Policy::Fcfs, "fcfs");
        let cycle_ns_sjf = cycle(Policy::Sjf, "sjf");
        let cycle_ns_edf = cycle(Policy::Edf, "edf");

        overlays(args, scale_tier, &mut rng, report);

        let mut generator = JobGenerator::paper_batch();
        let count = ops / 10;
        let start = Instant::now();
        for i in 0..count {
            let at = SimTime::from_secs(i as u64);
            black_box(generator.generate_feasible(at, &profiles, &mut rng));
        }
        report.set(
            "workload.jobs.generate_feasible_ns",
            start.elapsed().as_nanos() as f64 / count as f64,
        );

        for (depth, label) in [(16usize, "d16"), (4096, "d4096")] {
            report.set(
                &format!("node.timer.arm_pop_ns.{label}"),
                timer_hold(depth, ops, &mut rng),
            );
        }

        let specs: Vec<JobSpec> = (0..(ops / 500).max(10))
            .map(|i| {
                // JSDL carries whole seconds, so the round trip is exact
                // only for whole-second ERTs.
                let job = generator.generate_feasible(SimTime::ZERO, &profiles, &mut rng);
                JobSpec {
                    id: JobId::new(i as u64),
                    ert: SimDuration::from_secs(job.ert.as_secs().max(1)),
                    ..job
                }
            })
            .collect();
        let start = Instant::now();
        for spec in &specs {
            let xml = JobDefinition::from_job_spec(spec, Some("perfbench")).to_xml();
            let parsed = JobDefinition::parse(&xml).and_then(|def| def.to_job_spec(spec.id));
            if parsed.as_ref().ok() != Some(spec) {
                report.violation(format!("{} does not survive the JSDL round trip", spec.id));
            }
        }
        report.set(
            "jsdl.roundtrip_us_per_job",
            start.elapsed().as_nanos() as f64 / 1e3 / specs.len() as f64,
        );

        Replays {
            push_pop_ns,
            ettc_ns_d1,
            nal_ns_d1,
            cycle_ns_fcfs,
            cycle_ns_sjf,
            cycle_ns_edf,
        }
    }
}

/// The classic hold model: a queue kept at `depth` pending events, each
/// operation popping the earliest and scheduling one replacement a
/// random delay ahead. Returns nanoseconds per pop + push.
fn event_queue_hold(depth: usize, ops: usize, rng: &mut SimRng) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        queue.schedule(SimTime::from_millis(rng.u64_range(0, 60_000)), i as u64);
    }
    let start = Instant::now();
    for _ in 0..ops {
        let (now, event) = queue.pop().expect("the hold model never drains");
        queue.schedule(
            now + SimDuration::from_millis(rng.u64_range(1, 60_000)),
            black_box(event),
        );
    }
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    black_box(queue.len());
    ns
}

/// The same hold model over the live node's `TimerWheel`.
fn timer_hold(depth: usize, ops: usize, rng: &mut SimRng) -> f64 {
    let mut wheel = TimerWheel::new();
    for _ in 0..depth {
        wheel.arm(
            SimTime::from_millis(rng.u64_range(0, 60_000)),
            Timer::DispatchRetry,
        );
    }
    let start = Instant::now();
    for _ in 0..ops {
        let due = wheel.next_deadline().expect("the hold model never drains");
        let timer = wheel
            .pop_due(due)
            .expect("a timer is due at its own deadline");
        wheel.arm(
            due + SimDuration::from_millis(rng.u64_range(1, 60_000)),
            black_box(timer),
        );
    }
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    black_box(wheel.len());
    ns
}

/// A queue of `policy` holding one running and `depth` waiting jobs.
fn loaded_queue(
    policy: Policy,
    depth: usize,
    profile: &NodeProfile,
    jobs: &mut impl FnMut() -> JobSpec,
) -> SchedulerQueue {
    let mut queue = SchedulerQueue::new(policy);
    for _ in 0..=depth {
        queue.enqueue(jobs(), SimTime::ZERO, profile);
        queue.start_next(SimTime::ZERO);
    }
    queue
}

/// A stream of feasible jobs of the kind `policy` schedules (deadline
/// jobs for EDF, batch jobs otherwise), with distinct ids.
fn job_stream<'a>(
    policy: Policy,
    profiles: &'a [NodeProfile],
    rng: &'a mut SimRng,
) -> impl FnMut() -> JobSpec + 'a {
    let mut generator = if policy == Policy::Edf {
        JobGenerator::paper_deadline()
    } else {
        JobGenerator::paper_batch()
    };
    let mut next = 0u64;
    move || {
        let job = generator.generate_feasible(SimTime::from_mins(1), profiles, rng);
        next += 1;
        JobSpec {
            id: JobId::new(next),
            ..job
        }
    }
}

/// Nanoseconds per `cost_of_candidate` on a queue `depth` deep.
fn cost_of_candidate(
    policy: Policy,
    depth: usize,
    ops: usize,
    profiles: &[NodeProfile],
    rng: &mut SimRng,
) -> f64 {
    let profile = profiles[0];
    let mut jobs = job_stream(policy, profiles, rng);
    let queue = loaded_queue(policy, depth, &profile, &mut jobs);
    let candidates: Vec<JobSpec> = (0..64).map(|_| jobs()).collect();
    let now = SimTime::from_mins(2);
    let start = Instant::now();
    for i in 0..ops {
        black_box(queue.cost_of_candidate(black_box(&candidates[i % 64]), now, &profile));
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Nanoseconds per enqueue + `start_next` + `complete_running` on a
/// queue kept 50 jobs deep.
fn queue_cycle(policy: Policy, ops: usize, profiles: &[NodeProfile], rng: &mut SimRng) -> f64 {
    let profile = profiles[0];
    let mut jobs = job_stream(policy, profiles, rng);
    let mut queue = loaded_queue(policy, 50, &profile, &mut jobs);
    let arrivals: Vec<JobSpec> = (0..ops).map(|_| jobs()).collect();
    let now = SimTime::from_mins(2);
    let start = Instant::now();
    for job in arrivals {
        queue.enqueue(job, now, &profile);
        black_box(queue.complete_running());
        black_box(queue.start_next(now));
    }
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    black_box(queue.waiting_len());
    ns
}

/// Overlay construction: BLATANT-S builds and joins, the random-regular
/// builder, and the path length the paper bounds at 9 hops.
fn overlays(args: &Args, scale_tier: bool, rng: &mut SimRng, report: &mut Report) {
    let latency = LatencyModel::default();
    let mut blatant = Blatant::new(9.0, latency);
    let small = if args.quick { 100 } else { 500 };
    let start = Instant::now();
    let mut topology = blatant.build(small, rng);
    report.set(
        "overlay.blatant.build_s.n500",
        start.elapsed().as_secs_f64(),
    );
    let path_len = topology.sampled_path_length(small, rng);
    report.set("overlay.topology.sampled_path_len.n500", path_len);
    if path_len > blatant.target_path_length() {
        report.violation(format!(
            "BLATANT-S path length {path_len:.3} exceeds the 9-hop bound"
        ));
    }
    let joins = 100;
    let start = Instant::now();
    for _ in 0..joins {
        black_box(blatant.integrate_node(&mut topology, rng));
    }
    report.set(
        "overlay.blatant.join_us",
        start.elapsed().as_nanos() as f64 / 1e3 / joins as f64,
    );

    let start = Instant::now();
    black_box(
        blatant
            .build(if args.quick { 200 } else { 2_000 }, rng)
            .link_count(),
    );
    report.set(
        "overlay.blatant.build_s.n2000",
        start.elapsed().as_secs_f64(),
    );

    let start = Instant::now();
    let nodes = if args.quick { 1_000 } else { 10_000 };
    black_box(builders::random_regular(nodes, 4, &latency, rng).link_count());
    report.set(
        "overlay.builders.random_regular_s.n1e4",
        start.elapsed().as_secs_f64(),
    );
    if scale_tier {
        let start = Instant::now();
        black_box(builders::random_regular(100_000, 4, &latency, rng).link_count());
        report.set(
            "overlay.builders.random_regular_s.n1e5",
            start.elapsed().as_secs_f64(),
        );
    }
}
