//! Cross-crate integration tests: whole grids simulated end to end,
//! checking the headline behaviors the paper reports.

use aria_core::{Baseline, Comparator, PolicyMix, World, WorldConfig};
use aria_grid::Policy;
use aria_scenarios::{Runner, Scenario};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

/// A moderately loaded world used by several tests.
fn loaded_world(rescheduling: bool, seed: u64) -> World {
    let mut config = WorldConfig::small_test(80);
    config.aria.rescheduling = rescheduling;
    let mut world = World::new(config, seed);
    let mut jobs = JobGenerator::paper_batch();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(15), 200);
    world.submit_schedule(&schedule, &mut jobs);
    world
}

#[test]
fn every_submitted_job_completes() {
    for rescheduling in [false, true] {
        let mut world = loaded_world(rescheduling, 1);
        world.run();
        assert_eq!(world.metrics().completed_count(), 200, "rescheduling={rescheduling}");
        assert!(world.abandoned_jobs().is_empty());
        // Release builds clamp past-scheduled events instead of asserting;
        // the counter proves no clamp ever happened.
        assert_eq!(world.clamped_events(), 0);
    }
}

#[test]
fn rescheduling_improves_mean_completion_under_load() {
    // At this reduced scale single seeds are noisy (the paper's result is
    // at 500 nodes / 1000 jobs), so compare seed-averaged means.
    let seeds = [1, 2, 3, 4, 5];
    let mean_over_seeds = |rescheduling: bool| {
        let mut total_moves = 0.0;
        let mean = seeds
            .iter()
            .map(|&seed| {
                let mut world = loaded_world(rescheduling, seed);
                world.run();
                total_moves += world.metrics().reschedule_summary().sum();
                world.metrics().completion_summary().mean()
            })
            .sum::<f64>()
            / seeds.len() as f64;
        (mean, total_moves)
    };
    let (plain_mean, _) = mean_over_seeds(false);
    let (dynamic_mean, moves) = mean_over_seeds(true);
    assert!(
        dynamic_mean < plain_mean,
        "rescheduling should cut completion time: {dynamic_mean} vs {plain_mean}"
    );
    // And it should actually have moved jobs, not won by accident.
    assert!(moves > 0.0);
}

#[test]
fn rescheduling_raises_utilization() {
    // Compare average idle-node counts over the busy first 10 hours.
    // Single seeds are noisy at this scale, so average a few.
    let busy_window = |world: &World| {
        let series = world.metrics().idle_series();
        let samples = usize::try_from(
            SimTime::from_hours(10).as_millis() / world.config().sample_period.as_millis(),
        )
        .unwrap();
        let values = &series.values()[..samples.min(series.len())];
        values.iter().sum::<f64>() / values.len() as f64
    };
    let seeds = [1, 2, 3, 4, 5];
    let mean_idle = |rescheduling: bool| {
        seeds
            .iter()
            .map(|&seed| {
                let mut world = loaded_world(rescheduling, seed);
                world.run();
                busy_window(&world)
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let (plain, dynamic) = (mean_idle(false), mean_idle(true));
    assert!(
        dynamic <= plain,
        "rescheduling should not leave more nodes idle: {dynamic} vs {plain}"
    );
}

#[test]
fn deadline_rescheduling_cuts_misses() {
    let run = |rescheduling: bool| {
        let mut config = WorldConfig::small_test(80);
        config.policies = PolicyMix::Uniform(Policy::Edf);
        config.aria.rescheduling = rescheduling;
        let mut world = World::new(config, 4);
        let mut jobs = JobGenerator::paper_deadline();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(15), 200);
        world.submit_schedule(&schedule, &mut jobs);
        world.run();
        let stats = world.metrics().deadline_stats();
        assert_eq!(stats.met() + stats.missed(), 200);
        stats.missed()
    };
    let plain = run(false);
    let dynamic = run(true);
    assert!(
        dynamic <= plain,
        "rescheduling should not increase missed deadlines ({dynamic} vs {plain})"
    );
}

#[test]
fn distributed_protocol_approaches_central_baseline() {
    // The omniscient centralized scheduler is an upper bound on initial
    // placement; ARiA with rescheduling should land within a reasonable
    // factor of it on the same workload scale.
    let mut central = Baseline::new(
        Comparator::Central,
        80,
        PolicyMix::paper_mixed(),
        SimTime::from_hours(12),
        SimDuration::from_mins(5),
        5,
    );
    let mut jobs = JobGenerator::paper_batch();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(15), 200);
    central.submit_schedule(&schedule, &mut jobs);
    central.run();
    let central_mean = central.metrics().completion_summary().mean();

    let mut world = loaded_world(true, 5);
    world.run();
    let aria_mean = world.metrics().completion_summary().mean();

    assert!(central_mean > 0.0);
    assert!(
        aria_mean < central_mean * 2.0,
        "ARiA ({aria_mean:.0}s) should be within 2x of the central baseline ({central_mean:.0}s)"
    );
}

#[test]
fn multireq_baseline_completes_but_wastes_replicas() {
    let mut grid = Baseline::new(
        Comparator::MultiRequest { replicas: 3 },
        80,
        PolicyMix::paper_mixed(),
        SimTime::from_hours(12),
        SimDuration::from_mins(5),
        8,
    );
    let mut jobs = JobGenerator::paper_batch();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(15), 200);
    grid.submit_schedule(&schedule, &mut jobs);
    grid.run();
    assert_eq!(grid.metrics().completed_count(), 200);
    // The paper's criticism of this scheme: schedulers get loaded with
    // jobs that are frequently cancelled.
    assert!(grid.revoked_replicas() > 100, "revoked {}", grid.revoked_replicas());
    // ARiA on the same scale moves jobs without any wasted enqueue: its
    // reassignments remove the job from the old queue first.
    let mut world = loaded_world(true, 8);
    world.run();
    assert_eq!(world.metrics().completed_count(), 200);
}

#[test]
fn scenario_catalog_runs_at_reduced_scale() {
    // Smoke-run one representative scenario of each family end to end.
    let runner = Runner::scaled(40, 20);
    for scenario in [
        Scenario::Mixed,
        Scenario::IMixed,
        Scenario::IDeadlineH,
        Scenario::IExpanding,
        Scenario::IAccuracyBad,
        Scenario::IInform4,
    ] {
        let result = runner.run(scenario, &[1]);
        assert_eq!(result.runs[0].completed, 20, "{scenario} lost jobs");
    }
}

#[test]
fn expanding_grid_uses_new_nodes() {
    let mut config = WorldConfig::small_test(60);
    config.joins =
        (0..30u64).map(|i| SimTime::from_mins(20) + SimDuration::from_mins(2) * i).collect();
    let mut world = World::new(config, 6);
    let mut jobs = JobGenerator::paper_batch();
    // Sustained pressure so late joiners still see waiting jobs.
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(20), 250);
    world.submit_schedule(&schedule, &mut jobs);
    world.run();
    assert_eq!(world.topology().len(), 90);
    assert!(world.topology().is_connected());
    // At least one job must have executed on a joined node (raw id >= 60).
    let on_new = world
        .metrics()
        .records()
        .values()
        .filter(|r| r.executed_on.is_some_and(|n| n >= 60))
        .count();
    assert!(on_new > 0, "no job ever ran on a newly joined node");
}
