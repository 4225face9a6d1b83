//! Golden protocol-invariant test: the full state-machine audit holds on
//! every event of realistic runs, and auditing is observation-free.
//!
//! [`aria_core::World::check_invariants`] cross-checks queues, flood
//! slots, offer windows and job conservation against the pending event
//! census (see DESIGN.md "Determinism rules"). These tests drive it two
//! ways:
//!
//! * `Runner::run_once_checked` re-runs catalog scenarios — including
//!   INFORM/reschedule-heavy and expanding ones — with the audit after
//!   *every* drained event, and every statistic must match the unchecked
//!   run bit-for-bit: a checker that perturbs the run is worthless.
//! * A crash-churn world (no catalog scenario injects failures) runs
//!   checked through node crashes, failsafe recoveries and job loss,
//!   where the conservation invariant has the most ways to break.

use aria_core::{World, WorldConfig};
use aria_metrics::TrafficClass;
use aria_scenarios::{RunStats, Runner, Scenario};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, JobGeneratorConfig, SubmissionSchedule};

/// Asserts two runs produced identical statistics, bit-for-bit on floats.
fn assert_identical(checked: &RunStats, plain: &RunStats, label: &str) {
    assert_eq!(checked.completed, plain.completed, "{label}: completed");
    assert_eq!(checked.abandoned, plain.abandoned, "{label}: abandoned");
    for class in TrafficClass::ALL {
        assert_eq!(
            checked.traffic.messages(class),
            plain.traffic.messages(class),
            "{label}: {class:?} messages"
        );
    }
    let bitwise = [
        (checked.completion.mean(), plain.completion.mean(), "completion mean"),
        (checked.waiting.mean(), plain.waiting.mean(), "waiting mean"),
        (checked.execution.mean(), plain.execution.mean(), "execution mean"),
        (checked.completion_p50, plain.completion_p50, "completion p50"),
        (checked.completion_p95, plain.completion_p95, "completion p95"),
        (checked.reschedules, plain.reschedules, "reschedules"),
    ];
    for (a, b, what) in bitwise {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: {what} ({a} vs {b})");
    }
    assert_eq!(
        checked.completed_series.values(),
        plain.completed_series.values(),
        "{label}: completed series"
    );
    assert_eq!(checked.idle_series.values(), plain.idle_series.values(), "{label}: idle series");
    assert_eq!(checked.deadline.met(), plain.deadline.met(), "{label}: deadlines met");
    assert_eq!(checked.deadline.missed(), plain.deadline.missed(), "{label}: deadlines missed");
}

/// The determinism-golden scenario, audited on every event: the checked
/// run must satisfy all invariants *and* reproduce the unchecked run
/// exactly (same goldens as `determinism_golden.rs`).
#[test]
fn checked_imixed_reproduces_the_unchecked_run() {
    let runner = Runner::scaled(30, 15);
    for seed in [11, 12] {
        let checked = runner.run_once_checked(Scenario::IMixed, seed);
        let plain = runner.run_once(Scenario::IMixed, seed);
        assert_eq!(checked.completed, 15, "seed {seed}: completed");
        assert_identical(&checked, &plain, &format!("iMixed seed {seed}"));
    }
}

/// Scenarios that stress the machinery the audit covers hardest:
/// INFORM-driven rescheduling (live job movement between queues),
/// deadline queues (EDF ordering), and overlay growth mid-run.
#[test]
fn checked_runs_hold_across_protocol_variants() {
    let runner = Runner::scaled(25, 12);
    for scenario in [Scenario::IHighLoad, Scenario::IInform1, Scenario::IDeadline] {
        let checked = runner.run_once_checked(scenario, 9);
        let plain = runner.run_once(scenario, 9);
        assert_identical(&checked, &plain, &format!("{scenario:?} seed 9"));
    }
    let runner = Runner::scaled(40, 10);
    let checked = runner.run_once_checked(Scenario::IExpanding, 2);
    let plain = runner.run_once(Scenario::IExpanding, 2);
    assert_identical(&checked, &plain, "iExpanding seed 2");
}

/// Crash churn: nodes die mid-run, queues are lost, the failsafe
/// recovers jobs. No catalog scenario injects failures, so this builds
/// the world directly. The audit runs after every event — including the
/// ones where a job is momentarily only reachable through a pending
/// `RecoverJob` — and conservation must still close the books.
#[test]
fn checked_run_survives_crash_churn() {
    for (failsafe, seed) in [(true, 5), (true, 17), (false, 5)] {
        let mut config = WorldConfig::small_test(35);
        config.failsafe = failsafe;
        config.crashes = (0..6).map(|i| SimTime::from_mins(15 + 12 * i)).collect();
        let mut world = World::new(config, seed);
        let mut jobs = JobGenerator::new(JobGeneratorConfig::paper_batch());
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(2), SimDuration::from_secs(30), 25);
        world.submit_schedule(&schedule, &mut jobs);
        world.run_checked();

        let completed = usize::try_from(world.metrics().completed_count()).unwrap();
        let lost = world.lost_jobs().len();
        let abandoned = world.abandoned_jobs().len();
        assert_eq!(
            completed + lost + abandoned,
            25,
            "failsafe={failsafe} seed {seed}: completed={completed} lost={lost} \
             abandoned={abandoned}"
        );
        assert_eq!(world.crashed_nodes().len(), 6, "failsafe={failsafe} seed {seed}");
        assert_eq!(world.clamped_events(), 0);
    }
}
