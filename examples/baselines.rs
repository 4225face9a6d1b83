//! ARiA against its three comparators: an omniscient centralized
//! meta-scheduler (the architecture the paper argues against), the
//! gossip load caches of the paper's reference [25] and the
//! multiple-simultaneous-requests scheme of its reference [13].
//!
//! ```text
//! cargo run --release -p aria-scenarios --example baselines
//! ```

use aria_core::{Baseline, Comparator, PolicyMix, World, WorldConfig};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

const NODES: usize = 100;
const JOBS: usize = 300;

fn schedule() -> SubmissionSchedule {
    SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(10), JOBS)
}

fn main() {
    println!("{JOBS} jobs over {NODES} nodes, four schedulers:\n");
    println!("{:<28} {:>12} {:>10} {:>14}", "scheduler", "completion", "waiting", "messages");

    let seed = 1u64;
    // 1. ARiA: fully distributed, with dynamic rescheduling.
    let mut world = World::new(WorldConfig::small_test(NODES), seed);
    let mut jobs = JobGenerator::paper_batch();
    world.submit_schedule(&schedule(), &mut jobs);
    world.run();
    let m = world.metrics();
    println!(
        "{:<28} {:>9.1}min {:>7.1}min {:>14}",
        "ARiA (distributed)",
        m.completion_summary().mean() / 60.0,
        m.waiting_summary().mean() / 60.0,
        m.traffic().total_messages(),
    );

    // 2–4. The comparators, on the same node and job models.
    let comparators = [
        // Centralized omniscient scheduler: perfect knowledge, no
        // messages — the upper bound ARiA gives up for scalability.
        ("centralized (omniscient)", Comparator::Central),
        // Gossip dissemination: placements from cached (stale) state.
        ("gossip caches [25]", Comparator::Gossip),
        // Multiple simultaneous requests (k = 3) with revocation.
        ("multi-request (k=3) [13]", Comparator::MultiRequest { replicas: 3 }),
    ];
    for (name, comparator) in comparators {
        let mut grid = Baseline::new(
            comparator,
            NODES,
            PolicyMix::paper_mixed(),
            SimTime::from_hours(12),
            SimDuration::from_mins(5),
            seed,
        );
        let mut jobs = JobGenerator::paper_batch();
        grid.submit_schedule(&schedule(), &mut jobs);
        grid.run();
        let m = grid.metrics();
        let last = match comparator {
            Comparator::MultiRequest { .. } => format!("{} revoked", grid.revoked_replicas()),
            _ => m.traffic().total_messages().to_string(),
        };
        println!(
            "{:<28} {:>9.1}min {:>7.1}min {:>14}",
            name,
            m.completion_summary().mean() / 60.0,
            m.waiting_summary().mean() / 60.0,
            last,
        );
    }

    println!(
        "\nthe centralized scheduler makes the best possible *static*\n\
         placement — yet ARiA tends to beat it, because dynamic\n\
         rescheduling keeps correcting placements as queues evolve.\n\
         the multi-request scheme gets late binding too, but pays with\n\
         cancelled replicas clogging the queues (the drawback §II points\n\
         out); ARiA moves jobs without ever double-enqueuing them."
    );
}
