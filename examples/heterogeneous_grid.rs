//! The paper's motivating workload: a heterogeneous grid where half the
//! nodes run FCFS and half run SJF, compared with and without ARiA's
//! dynamic rescheduling phase (the Mixed vs iMixed scenarios, scaled
//! down).
//!
//! ```text
//! cargo run --release -p aria-scenarios --example heterogeneous_grid
//! ```

use aria_grid::Policy;
use aria_metrics::TrafficClass;
use aria_overlay::NodeId;
use aria_scenarios::{Runner, Scenario};

fn main() {
    let runner = Runner::scaled(150, 400);
    let seeds = [1, 2, 3];

    // Show what "heterogeneous" means: architectures, operating systems
    // and local schedulers all vary per node.
    let world = aria_core::World::new(Scenario::IMixed.world_config(), seeds[0]);
    let sample: Vec<String> = (0..5)
        .map(|i| {
            let node = NodeId::new(i);
            format!("  n{i}: {} [{}]", world.profile_of(node), world.policy_of(node))
        })
        .collect();
    println!("sample of node profiles:\n{}", sample.join("\n"));
    let fcfs =
        world.topology().nodes().filter(|&node| world.policy_of(node) == Policy::Fcfs).count();
    println!("policy split: {fcfs} FCFS / {} SJF\n", world.topology().len() - fcfs);

    // Run the same workload with and without dynamic rescheduling.
    let results = runner.run_many(&[Scenario::Mixed, Scenario::IMixed], &seeds);
    println!("scenario   completion  waiting  reschedules  INFORM msgs");
    for r in &results {
        println!(
            "{:9} {:8.1}min {:7.1}min {:10.0} {:12.0}",
            r.scenario.name(),
            r.completion().mean() / 60.0,
            r.waiting().mean() / 60.0,
            r.avg_reschedules(),
            r.avg_messages(TrafficClass::Inform),
        );
    }

    let plain = results[0].completion().mean();
    let resched = results[1].completion().mean();
    println!(
        "\ndynamic rescheduling changes mean completion time by {:+.1}%",
        (resched - plain) / plain * 100.0
    );
}
