//! Failure injection: nodes crash mid-workload, taking their queues with
//! them, and the §III-D failsafe (initiators tracking their jobs'
//! assignees) rediscovers the lost jobs.
//!
//! ```text
//! cargo run --release -p aria-scenarios --example churn_failsafe
//! ```

use aria_core::{World, WorldConfig};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

fn run(failsafe: bool) {
    let mut config = WorldConfig::small_test(100);
    config.failsafe = failsafe;
    // Ten crashes spread across the loaded phase.
    config.crashes = (0..10u64).map(|i| SimTime::from_mins(40 + 15 * i)).collect();

    let mut world = World::new(config, 17);
    let mut jobs = JobGenerator::paper_batch();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(15), 300);
    world.submit_schedule(&schedule, &mut jobs);
    world.run();

    let metrics = world.metrics();
    println!(
        "failsafe {:3}: {} crashed nodes, {}/{} jobs completed, {} recovered, {} lost",
        if failsafe { "ON" } else { "off" },
        world.crashed_nodes().len(),
        metrics.completed_count(),
        300,
        world.recovered_count(),
        world.lost_jobs().len(),
    );
    if !world.abandoned_jobs().is_empty() {
        println!(
            "             {} jobs abandoned (their matching nodes died with the crashes)",
            world.abandoned_jobs().len()
        );
    }
}

fn main() {
    println!("300 jobs over 100 nodes; 10 nodes crash while the grid is loaded\n");
    run(true);
    run(false);
    println!(
        "\nwith the failsafe, initiators notice their assignee's crash and\n\
         re-run the REQUEST discovery phase for every job that was lost."
    );
}
