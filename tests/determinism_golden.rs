//! Golden determinism test: a run is a pure function of `(config, seed)`.
//!
//! The dense-state hot path (interned job payloads, recycled flood slots,
//! buffered fan-out sampling, the radix event queue and its sorted tick
//! lane) is required to be a pure representation change: every metric
//! must stay bit-for-bit identical across refactors. These tests pin
//! small scaled runs to recorded values — if an "optimization" perturbs
//! RNG draws or event ordering, the numbers here move and the diff is
//! caught at review time instead of silently invalidating previous
//! results.

use aria_core::{OverlayKind, World, WorldConfig};
use aria_metrics::TrafficClass;
use aria_scenarios::{RunStats, Runner, Scenario};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

fn run(seed: u64) -> RunStats {
    Runner::scaled(30, 15).run_once(Scenario::IMixed, seed)
}

/// Two fresh runs of the same `(config, seed)` must agree exactly —
/// including float-valued summaries, which must be bit-for-bit equal.
#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    for seed in [11, 12] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.traffic.total_messages(), b.traffic.total_messages());
        assert_eq!(a.completion.mean().to_bits(), b.completion.mean().to_bits());
        assert_eq!(a.waiting.mean().to_bits(), b.waiting.mean().to_bits());
        assert_eq!(a.completion_p50.to_bits(), b.completion_p50.to_bits());
        assert_eq!(a.completed_series.values(), b.completed_series.values());
        assert_eq!(a.idle_series.values(), b.idle_series.values());
    }
}

/// The recorded goldens. Exact integer equality; floats to a tolerance
/// far below any behavioral change (they shift by whole seconds when a
/// single RNG draw moves).
#[test]
fn scaled_imixed_matches_recorded_goldens() {
    struct Golden {
        seed: u64,
        completed: u64,
        total_messages: u64,
        request: u64,
        accept: u64,
        inform: u64,
        assign: u64,
        completion_mean: f64,
        completion_p50: f64,
        completion_p95: f64,
        waiting_mean: f64,
    }
    let goldens = [
        Golden {
            seed: 11,
            completed: 15,
            total_messages: 592,
            request: 498,
            accept: 80,
            inform: 0,
            assign: 14,
            completion_mean: 5829.008133333,
            completion_p50: 5927.978,
            completion_p95: 12122.997,
            waiting_mean: 5.1552,
        },
        Golden {
            seed: 12,
            completed: 15,
            total_messages: 1442,
            request: 561,
            accept: 74,
            inform: 793,
            assign: 14,
            completion_mean: 6236.439333333,
            completion_p50: 5704.358,
            completion_p95: 11251.252,
            waiting_mean: 542.790133333,
        },
    ];
    for golden in goldens {
        let stats = run(golden.seed);
        let seed = golden.seed;
        assert_eq!(stats.completed, golden.completed, "seed {seed}: completed");
        assert_eq!(stats.abandoned, 0, "seed {seed}: abandoned");
        assert_eq!(
            stats.traffic.total_messages(),
            golden.total_messages,
            "seed {seed}: total messages"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Request),
            golden.request,
            "seed {seed}: REQUEST count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Accept),
            golden.accept,
            "seed {seed}: ACCEPT count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Inform),
            golden.inform,
            "seed {seed}: INFORM count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Assign),
            golden.assign,
            "seed {seed}: ASSIGN count"
        );
        let close = |actual: f64, expected: f64, what: &str| {
            assert!(
                (actual - expected).abs() < 1e-6,
                "seed {seed}: {what} drifted: {actual} vs {expected}"
            );
        };
        close(stats.completion.mean(), golden.completion_mean, "completion mean");
        close(stats.completion_p50, golden.completion_p50, "completion p50");
        close(stats.completion_p95, golden.completion_p95, "completion p95");
        close(stats.waiting.mean(), golden.waiting_mean, "waiting mean");
        assert_eq!(stats.reschedules, 0.0, "seed {seed}: reschedules");
    }
}

/// A world's processed-event count and fingerprint after a full run.
/// The count includes every periodic INFORM tick, so a change that drops
/// or adds ticks moves it even when no message or completion changes.
fn events_and_fingerprint(
    config: WorldConfig,
    seed: u64,
    schedule: SubmissionSchedule,
) -> (u64, String) {
    let mut world = World::new(config, seed);
    world.submit_schedule(&schedule, &mut JobGenerator::paper_batch());
    world.run();
    let metrics = world.metrics();
    let fingerprint = format!(
        "completed={} messages={} completion_mean_secs={:.6} crashed={} recovered={}",
        metrics.completed_count(),
        metrics.traffic().total_messages(),
        metrics.completion_summary().mean(),
        world.crashed_nodes().len(),
        world.recovered_count(),
    );
    (world.processed_events(), fingerprint)
}

/// The reduced large-grid shape: 2000 nodes on a random-regular(4)
/// overlay with rescheduling on, 40 jobs. Almost every event is an
/// INFORM tick on an empty queue.
#[test]
fn random_regular_world_pins_its_event_count() {
    let config = WorldConfig {
        nodes: 2_000,
        overlay: OverlayKind::RandomRegular { degree: 4 },
        horizon: SimTime::from_hours(12),
        ..WorldConfig::paper_baseline()
    };
    assert!(config.aria.rescheduling);
    let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(10), 40);
    assert_eq!(
        events_and_fingerprint(config, 1, schedule),
        (
            369_049,
            String::from(
                "completed=40 messages=78784 completion_mean_secs=4549.531400 crashed=0 recovered=0"
            )
        )
    );
}

/// A crash-churn world whose last crash comes after its queues drained:
/// the victim's next tick finds no waiting job anywhere while crashed
/// nodes exist, and must still end its chain (a tick that re-armed it
/// would add 24 events).
#[test]
fn crash_churn_world_pins_its_event_count() {
    let mut config = WorldConfig::small_test(40);
    // The last crash comes after every job has completed.
    config.crashes = vec![SimTime::from_mins(30), SimTime::from_hours(2), SimTime::from_hours(10)];
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(30), 60);
    assert_eq!(
        events_and_fingerprint(config, 7, schedule),
        (
            24_039,
            String::from(
                "completed=60 messages=18190 completion_mean_secs=8534.577767 crashed=3 recovered=1"
            )
        )
    );
}
