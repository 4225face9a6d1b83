//! The three simulator workloads: `sim_paper`, `sim_deadline` and
//! `sim_scale`, all driven through `World`'s public surface.

use crate::replay::Replays;
use crate::report::Report;
use crate::spans::{Folded, Name, Off, Spans, Tracer};
use crate::util::{
    cpu_secs, fresh_memory, latency_p50_p85, median_of, peak_rss_kb, repeat, SeedPlan,
};
use crate::Args;
use aria_core::{OverlayKind, World, WorldConfig};
use aria_metrics::TrafficClass;
use aria_probe::{Probe, ProbeEvent, RingRecorder, TraceMeta};
use aria_scenarios::Scenario;
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, JobGeneratorConfig, SubmissionSchedule};
use std::time::Instant;

/// Which simulator workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Scenario::IMixed` at paper scale.
    Paper,
    /// `Scenario::IDeadlineH` at paper scale.
    Deadline,
    /// 100 000 nodes on a random-regular(4) overlay.
    Scale,
}

/// The inputs of one repetition, all derived from the workload kind
/// (the seed is passed to `World::new`, which forks every stream).
struct Inputs {
    config: WorldConfig,
    schedule: SubmissionSchedule,
    jobs: JobGeneratorConfig,
}

fn inputs(kind: Kind, quick: bool) -> Inputs {
    match kind {
        Kind::Paper | Kind::Deadline => {
            let scenario = if kind == Kind::Paper {
                Scenario::IMixed
            } else {
                Scenario::IDeadlineH
            };
            let mut config = scenario.world_config();
            let mut schedule = scenario.submission_schedule();
            if quick {
                config.nodes = 60;
                config.overlay_path_length = 4.0;
                config.horizon = SimTime::from_hours(6);
                schedule = SubmissionSchedule::new(schedule.start(), schedule.interval(), 100);
            }
            Inputs {
                config,
                schedule,
                jobs: scenario.job_config(),
            }
        }
        Kind::Scale => {
            let (nodes, jobs) = if quick { (2_000, 40) } else { (100_000, 200) };
            Inputs {
                config: WorldConfig {
                    nodes,
                    overlay: OverlayKind::RandomRegular { degree: 4 },
                    horizon: SimTime::from_hours(12),
                    ..WorldConfig::paper_baseline()
                },
                schedule: SubmissionSchedule::new(
                    SimTime::from_mins(1),
                    SimDuration::from_secs(10),
                    jobs,
                ),
                jobs: JobGeneratorConfig::paper_batch(),
            }
        }
    }
}

/// Simulated statistics that must repeat exactly for a fixed seed.
fn fingerprint<P: Probe>(world: &World<P>) -> String {
    let metrics = world.metrics();
    format!(
        "completed={} messages={} completion_mean_secs={:.6}",
        metrics.completed_count(),
        metrics.traffic().total_messages(),
        metrics.completion_summary().mean()
    )
}

/// One repetition's measurements.
struct Rep {
    seed: u64,
    new_s: f64,
    submit_s: f64,
    run_s: f64,
    run_cpu_s: f64,
    peak_rss_kb: u64,
    events: u64,
    submitted: u64,
    completed: u64,
    /// Simulated submission → completion times of the completed jobs.
    latency_p50_ms: f64,
    latency_p85_ms: f64,
    fingerprint: String,
    msgs: [u64; 4],
    flood_stats: (usize, usize),
}

/// Builds, loads and runs one world, timing each phase from outside.
fn run_once<P: Probe, S: Spans>(
    inputs: &Inputs,
    seed: u64,
    probe: P,
    spans: &mut S,
    run: impl FnOnce(&mut World<P>),
) -> (Rep, World<P>) {
    fresh_memory();
    spans.enter(Name::REP);
    let t0 = Instant::now();
    spans.enter(Name::WORLD_NEW);
    let mut world = World::with_probe(inputs.config.clone(), seed, probe);
    spans.exit();
    let t1 = Instant::now();
    spans.enter(Name::WORLD_SUBMIT);
    let mut generator = JobGenerator::new(inputs.jobs);
    world.submit_schedule(&inputs.schedule, &mut generator);
    spans.exit();
    let t2 = Instant::now();
    let cpu_before = cpu_secs().0;
    spans.enter(Name::WORLD_RUN);
    run(&mut world);
    spans.exit();
    let run_s = t2.elapsed().as_secs_f64();
    let run_cpu_s = cpu_secs().0 - cpu_before;
    spans.exit();
    let traffic = world.metrics().traffic();
    let latencies_ms: Vec<f64> = world
        .metrics()
        .records()
        .values()
        .filter_map(|record| Some(record.completion_time()?.as_millis() as f64))
        .collect();
    let (latency_p50_ms, latency_p85_ms) = latency_p50_p85(&latencies_ms);
    let rep = Rep {
        seed,
        new_s: (t1 - t0).as_secs_f64(),
        submit_s: (t2 - t1).as_secs_f64(),
        run_s,
        run_cpu_s,
        peak_rss_kb: peak_rss_kb(),
        events: world.processed_events(),
        submitted: inputs.schedule.count() as u64,
        completed: world.metrics().completed_count(),
        latency_p50_ms,
        latency_p85_ms,
        fingerprint: fingerprint(&world),
        msgs: TrafficClass::ALL.map(|class| traffic.messages(class)),
        flood_stats: world.flood_stats(),
    };
    (rep, world)
}

/// One repetition of the uninstrumented simulator under `World::run`.
fn run_plain<S: Spans>(inputs: &Inputs, seed: u64, spans: &mut S) -> Rep {
    let run = |world: &mut World| {
        world.run();
    };
    run_once(inputs, seed, aria_probe::NullProbe, spans, run).0
}

/// Output checks over a run's repetitions: every job completed, and
/// equal seeds gave equal fingerprints and event counts.
fn check(reps: &[Rep], report: &mut Report) {
    for rep in reps {
        report.attempted += rep.submitted;
        report.failed += rep.submitted.saturating_sub(rep.completed);
        if rep.completed != rep.submitted {
            report.violation(format!(
                "seed {}: completed {} of {} jobs",
                rep.seed, rep.completed, rep.submitted
            ));
        }
        let first = reps
            .iter()
            .find(|r| r.seed == rep.seed)
            .expect("rep is in reps");
        if (&first.fingerprint, first.events) != (&rep.fingerprint, rep.events) {
            report.violation(format!(
                "seed {} did not repeat: `{}` ({} events) then `{}` ({} events)",
                rep.seed, first.fingerprint, first.events, rep.fingerprint, rep.events
            ));
        }
    }
    report.fingerprint = reps[0].fingerprint.clone();
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let inputs = inputs(kind, args.quick);
    let (plan, min_reps) = if kind == Kind::Scale {
        (SeedPlan::Fixed, 2)
    } else {
        (SeedPlan::Advance, 3)
    };
    let all = repeat(args.seed, args.seconds, min_reps, plan, |seed| {
        run_plain(&inputs, seed, &mut Off)
    });
    check(&all, report);
    let reps = plan.measured(&all);
    let jobs: u64 = reps.iter().map(|r| r.submitted).sum();
    let cpu_s: f64 = reps.iter().map(|r| r.run_cpu_s).sum();
    report.set("setup_s", median_of(reps, |r| r.new_s + r.submit_s));
    report.set("run_s", median_of(reps, |r| r.run_s));
    report.set(
        "events_per_s",
        median_of(reps, |r| r.events as f64 / r.run_s),
    );
    report.set(
        "peak_rss_mb",
        median_of(reps, |r| r.peak_rss_kb as f64 / 1024.0),
    );
    report.set("cpu_ms_per_job", cpu_s * 1000.0 / jobs as f64);
    report.set("job_latency_p50_ms", median_of(reps, |r| r.latency_p50_ms));
    report.set("job_latency_p85_ms", median_of(reps, |r| r.latency_p85_ms));
    report.notes.push(format!(
        "{} repetition(s), {} nodes, {} jobs each, {} events at seed {}",
        all.len(),
        inputs.config.nodes,
        inputs.schedule.count(),
        reps[0].events,
        args.seed
    ));
}

/// The traced run: the same repetitions with and without spans, one
/// extra repetition under a `RingRecorder`, the sharded executor on
/// `sim_scale`, and the isolated replays that turn in-situ counts into
/// estimated shares.
pub fn run_traced(kind: Kind, args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let inputs = inputs(kind, args.quick);
    let (plan, min_reps) = if kind == Kind::Scale {
        (SeedPlan::Fixed, 1)
    } else {
        (SeedPlan::Advance, 2)
    };
    let untraced = repeat(args.seed, args.seconds / 2.0, min_reps, plan, |seed| {
        run_plain(&inputs, seed, &mut Off)
    });
    let mut folds: Vec<Folded> = Vec::new();
    let mut traced = repeat(args.seed, args.seconds / 2.0, min_reps, plan, |seed| {
        let rep = run_plain(&inputs, seed, tracer);
        folds.push(tracer.fold());
        rep
    });
    let span_s = |name: Name| median_of(&folds, |f| f.total_s(name));
    let run_s = median_of(&traced, |r| r.run_s);
    report.set(
        "bench.trace_overhead_ratio",
        run_s / median_of(&untraced, |r| r.run_s),
    );
    report.set("core.world.new_s", span_s(Name::WORLD_NEW));
    report.set("core.world.submit_s", span_s(Name::WORLD_SUBMIT));
    report.set("core.world.run_s", span_s(Name::WORLD_RUN));

    // Counts are reported for seed S, whose fingerprint is pinned.
    let first = &traced[0];
    let jobs = first.submitted as f64;
    report.set("core.world.events", first.events as f64);
    report.set(
        "core.world.ns_per_event",
        first.run_s * 1e9 / first.events as f64,
    );
    report.set("core.world.events_per_job", first.events as f64 / jobs);
    for (class, count) in ["request", "accept", "inform", "assign"]
        .iter()
        .zip(first.msgs)
    {
        report.set(&format!("core.world.msgs.{class}"), count as f64);
    }
    report.set("core.world.flood_slots", first.flood_stats.0 as f64);
    report.set("core.world.spilled_flood_slots", first.flood_stats.1 as f64);
    let (events, accepts, first_run_s) = (first.events as f64, first.msgs[1] as f64, first.run_s);

    // One repetition of seed S with the ring recorder attached.
    let ring = RingRecorder::with_capacity(RingRecorder::DEFAULT_CAPACITY * 2);
    let (ring_rep, world) = run_once(&inputs, args.seed, ring, tracer, |w| {
        w.run();
    });
    tracer.fold();
    report.set(
        "probe.record.ring_overhead_ratio",
        ring_rep.run_s / first_run_s,
    );
    let trace = world.into_probe().into_trace(TraceMeta {
        scenario: "perfbench".to_string(),
        seed: args.seed,
        nodes: inputs.config.nodes as u64,
        jobs: ring_rep.submitted,
    });
    report.set("probe.record.events_recorded", trace.recorded() as f64);
    // The ring keeps the newest entries: on `sim_scale` the flood ratios
    // describe the retained tail of the run, not all of it.
    let summary = aria_probe::summarize(&trace);
    report.set("core.world.hops_per_request", summary.hops_per_request());
    report.set(
        "core.world.offers_per_request",
        summary.offers_per_request(),
    );
    let peak_pending = trace
        .entries
        .iter()
        .filter_map(|e| match e.event {
            ProbeEvent::Gauge { peak_events, .. } => Some(peak_events),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    report.set("sim.event.peak_pending", peak_pending as f64);
    let entries = trace.entries.len().max(1) as f64;
    let start = Instant::now();
    let jsonl = aria_probe::schema::to_jsonl(&trace);
    report.set(
        "probe.schema.to_jsonl_ns_per_entry",
        start.elapsed().as_nanos() as f64 / entries,
    );
    let start = Instant::now();
    let parsed = aria_probe::schema::from_jsonl(&jsonl);
    report.set(
        "probe.schema.from_jsonl_ns_per_entry",
        start.elapsed().as_nanos() as f64 / entries,
    );
    match parsed {
        Ok(parsed) if parsed.entries.len() == trace.entries.len() => {}
        Ok(parsed) => report.violation(format!(
            "probe trace lost entries in the JSONL round trip: {} of {}",
            parsed.entries.len(),
            trace.entries.len()
        )),
        Err(e) => report.violation(format!("probe trace does not parse back: {e}")),
    }
    drop((trace, jsonl));

    if kind == Kind::Scale {
        let (sharded, _) = run_once(&inputs, args.seed, aria_probe::NullProbe, tracer, |w| {
            w.run_sharded(2);
        });
        tracer.fold();
        report.set("core.shard.sharded2_speedup", first_run_s / sharded.run_s);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        report.set("core.shard.cores", cores as f64);
        traced.push(sharded);
    }
    traced.push(ring_rep);
    traced.extend(untraced);
    check(&traced, report);

    let replays = Replays::run(args, kind == Kind::Scale && !args.quick, report);
    // Estimated shares: in-situ operation counts times isolated cost per
    // operation, over the run they were counted in. Every event is one
    // push and one pop at roughly the peak depth; every ACCEPT is one
    // cost evaluation and every job one queue cycle, on the shallow
    // queues (depth ~1) these workloads keep.
    let push_pop_ns = replays.push_pop_ns_near(peak_pending);
    report.set(
        "sim.event.share_est",
        events * push_pop_ns / 1e9 / first_run_s,
    );
    let (cost_ns, cycle_ns) = if kind == Kind::Deadline {
        (replays.nal_ns_d1, replays.cycle_ns_edf)
    } else {
        (
            replays.ettc_ns_d1,
            (replays.cycle_ns_fcfs + replays.cycle_ns_sjf) / 2.0,
        )
    };
    report.set(
        "grid.queue.share_est",
        (accepts * cost_ns + jobs * cycle_ns) / 1e9 / first_run_s,
    );
}
