//! Quickstart: spin up a small ARiA grid, submit a workload, and read
//! the results.
//!
//! ```text
//! cargo run --release -p aria-scenarios --example quickstart
//! ```

use aria_core::{World, WorldConfig};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

fn main() {
    // 1. A grid of 100 heterogeneous nodes connected by a self-organized
    //    overlay, with mixed FCFS/SJF local schedulers and dynamic
    //    rescheduling enabled (all defaults from the ICDCS 2010 paper).
    let config = WorldConfig::small_test(100);
    let mut world = World::new(config, /* seed */ 7);

    println!(
        "grid: {} nodes, {} overlay links, avg path length {:.1}",
        world.topology().len(),
        world.topology().link_count(),
        world.topology().avg_path_length(),
    );

    // 2. Submit 200 randomly generated batch jobs, one every 30 seconds.
    let mut jobs = JobGenerator::paper_batch();
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(30), 200);
    world.submit_schedule(&schedule, &mut jobs);

    // 3. Run the discrete-event simulation to completion.
    world.run();
    let metrics = world.metrics();

    // 4. Read the results.
    println!("completed jobs:      {}", metrics.completed_count());
    println!(
        "avg completion time: {:.1} min (waiting {:.1} + execution {:.1})",
        metrics.completion_summary().mean() / 60.0,
        metrics.waiting_summary().mean() / 60.0,
        metrics.execution_summary().mean() / 60.0,
    );
    println!(
        "dynamic reschedules: {:.0} across {} jobs",
        metrics.reschedule_summary().sum(),
        metrics.records().len(),
    );
    let traffic = metrics.traffic();
    println!(
        "traffic: {} messages, {:.2} MB total ({:.1} KB per node)",
        traffic.total_messages(),
        traffic.total_bytes() as f64 / 1e6,
        traffic.bytes_per_node(world.topology().len()) / 1e3,
    );
}
