//! ARiA is local-scheduler agnostic: the protocol never inspects queue
//! order, only the cost quotes. This example runs the same workload over
//! grids using the paper's policies (FCFS, SJF) and the future-work
//! extensions implemented here (LJF, Priority), including a grid mixing
//! all four.
//!
//! ```text
//! cargo run --release -p aria-scenarios --example custom_policy
//! ```

use aria_core::{PolicyMix, ReservationPlan, World, WorldConfig};
use aria_grid::Policy;
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

fn run(policies: PolicyMix, label: &str) {
    run_with(policies, label, None);
}

fn run_with(policies: PolicyMix, label: &str, reservations: Option<ReservationPlan>) {
    let mut config = WorldConfig::small_test(120);
    config.policies = policies;
    config.reservations = reservations;
    let mut world = World::new(config, 11);
    let mut jobs = JobGenerator::paper_batch();
    // A brisk workload so queues build up and policy order matters.
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(10), 300);
    world.submit_schedule(&schedule, &mut jobs);
    world.run();
    let metrics = world.metrics();
    println!(
        "{label:24} completion {:6.1}min  waiting {:6.1}min  reschedules {:4.0}",
        metrics.completion_summary().mean() / 60.0,
        metrics.waiting_summary().mean() / 60.0,
        metrics.reschedule_summary().sum(),
    );
}

fn main() {
    println!("same workload, different local scheduling policies:\n");
    run(PolicyMix::Uniform(Policy::Fcfs), "all FCFS");
    run(PolicyMix::Uniform(Policy::Sjf), "all SJF");
    run(PolicyMix::Uniform(Policy::Ljf), "all LJF (extension)");
    run(PolicyMix::Uniform(Policy::Priority), "all Priority (extension)");
    run(
        PolicyMix::Random(vec![Policy::Fcfs, Policy::Sjf, Policy::Ljf, Policy::Priority]),
        "four-way mix",
    );
    println!("\nwith advance reservations blocking the executors (paper future work):\n");
    run_with(
        PolicyMix::Uniform(Policy::Fcfs),
        "FCFS + reservations",
        Some(ReservationPlan::moderate()),
    );
    run_with(
        PolicyMix::Uniform(Policy::Backfill),
        "Backfill + reservations",
        Some(ReservationPlan::moderate()),
    );
    println!(
        "\nthe protocol ran unchanged in every case — nodes only ever\n\
         exchanged REQUEST/ACCEPT/INFORM/ASSIGN messages and ETTC costs."
    );
}
