//! Wakeup budget of the live node loop: a real 3-node UDP cluster on
//! 127.0.0.1, paced submissions, and a bound on how often the node
//! processes block and are woken (`voluntary_ctxt_switches`, summed by
//! `run_cluster` over every node).
//!
//! A node wakes for its own timers and for the frames it receives, the
//! heartbeats above all: 2(N − 1) = 4 receipts per node-second here at
//! the 500 ms heartbeat period. A loop that polls on a fixed short tick
//! adds its tick rate on top: a 50 ms tick read 22.0–23.1 wakeups per
//! node-second on this workload, sleeping until the next timer reads
//! 9.3–10.7 (2-core x86-64 guest). The bound sits between the two, with
//! room for scheduler noise.

use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_node::cluster::{live_timing, run_cluster, ClusterSpec};
use aria_sim::SimDuration;
use std::path::PathBuf;
use std::time::Duration;

/// Wakeups per node-second the cluster may not exceed.
const MAX_WAKEUPS_PER_NODE_SEC: f64 = 15.0;

#[test]
fn nodes_sleep_until_their_next_timer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wakeups");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs: Vec<JobSpec> = (0..8)
        .map(|i| {
            let requirements =
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 2, 10);
            JobSpec::batch(JobId::new(i), requirements, SimDuration::from_secs(1))
        })
        .collect();
    let spec = ClusterSpec {
        nodes: 3,
        jobs: jobs.clone(),
        profiles: vec![NodeProfile::new(
            Architecture::Amd64,
            OperatingSystem::Linux,
            64,
            1000,
            PerfIndex::BASELINE,
        )],
        policies: vec![Policy::Fcfs],
        driver: live_timing(),
        loss: 0.0,
        loss_windows: Vec::new(),
        drop_first_assign: false,
        seed: 7,
        submit_gap: Duration::from_millis(500),
        submit_to: Vec::new(),
        churn: Vec::new(),
        dir,
        node_binary: PathBuf::from(env!("CARGO_BIN_EXE_aria-node")),
        deadline: Duration::from_secs(45),
    };
    let outcome = run_cluster(&spec).expect("cluster run succeeds");
    outcome.check_conservation(&jobs).expect("job conservation holds");

    if outcome.node_wakeups == 0 {
        eprintln!("no /proc wakeup counts on this platform; the budget is not checked");
        return;
    }
    let rate = outcome.wakeups_per_node_sec();
    eprintln!(
        "{} wakeups over {:.1} node-seconds: {rate:.1} per node-second",
        outcome.node_wakeups, outcome.node_secs
    );
    assert!(
        rate <= MAX_WAKEUPS_PER_NODE_SEC,
        "{rate:.1} wakeups per node-second exceeds {MAX_WAKEUPS_PER_NODE_SEC}: \
         is the node loop polling again?"
    );
}
