//! Process-level churn integration tests: a real 5-node UDP cluster on
//! 127.0.0.1 where one node is SIGKILLed mid-workload.
//!
//! With a restart, the victim must be declared dead by its peers
//! (`peer-dead` in the merged trace), readmitted on rejoin
//! (`peer-rejoined`), and every job must still complete exactly once
//! within the liveness bound. Without a restart, conservation must hold
//! anyway: delegations to the corpse come back via peer-death recovery
//! and the §III-D failsafe. Submissions go only to surviving nodes — a
//! job whose *initiator* dies is unrecoverable by design.

use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_node::cluster::{
    live_timing, liveness_bound, run_cluster, ChurnAction, ChurnEvent, ClusterOutcome, ClusterSpec,
};
use aria_sim::SimDuration;
use std::path::PathBuf;
use std::time::Duration;

/// Whole-second ERTs (JSDL carries seconds) over two resource classes.
fn workload(jobs: u64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            let ert = SimDuration::from_secs(if i % 2 == 0 { 1 } else { 2 });
            let requirements = if i % 3 == 0 {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 8, 50)
            } else {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 2, 10)
            };
            JobSpec::batch(JobId::new(i), requirements, ert)
        })
        .collect()
}

fn churn_spec(dir_name: &str, jobs: &[JobSpec], churn: Vec<ChurnEvent>) -> ClusterSpec {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    ClusterSpec {
        nodes: 5,
        jobs: jobs.to_vec(),
        profiles: vec![
            NodeProfile::new(
                Architecture::Amd64,
                OperatingSystem::Linux,
                64,
                1000,
                PerfIndex::BASELINE,
            ),
            NodeProfile::new(
                Architecture::Amd64,
                OperatingSystem::Linux,
                16,
                200,
                PerfIndex::new(1.5).expect("valid index"),
            ),
        ],
        policies: vec![Policy::Fcfs, Policy::Sjf],
        driver: live_timing(),
        loss: 0.0,
        loss_windows: Vec::new(),
        drop_first_assign: false,
        seed: 42,
        // Paced submission so the kill lands mid-workload.
        submit_gap: Duration::from_millis(300),
        submit_to: vec![0, 1, 2, 3], // node 4 is the victim
        churn,
        dir,
        node_binary: PathBuf::from(env!("CARGO_BIN_EXE_aria-node")),
        deadline: Duration::from_secs(50),
    }
}

fn check_both_oracles(outcome: &ClusterOutcome, jobs: &[JobSpec]) {
    outcome.check_conservation(jobs).expect("job conservation holds");
    let max_ert = jobs.iter().map(|j| j.ert.as_millis()).max().unwrap_or(0);
    let bound = liveness_bound(&live_timing(), Duration::from_millis(max_ert));
    outcome.check_liveness(jobs, bound).expect("liveness holds");
    assert_eq!(outcome.lost_events, 0, "no job-lost events in the merged trace");
}

#[test]
fn sigkill_and_restart_conserves_and_rejoins() {
    let jobs = workload(8);
    let spec = churn_spec(
        "churn-restart",
        &jobs,
        vec![
            ChurnEvent { at: Duration::from_millis(1500), action: ChurnAction::Kill(4) },
            ChurnEvent { at: Duration::from_millis(8000), action: ChurnAction::Restart(4) },
        ],
    );
    let outcome = run_cluster(&spec).expect("cluster run succeeds");
    check_both_oracles(&outcome, &jobs);
    assert!(
        outcome.peer_dead_events >= 1,
        "survivors must declare the SIGKILLed node dead (got {})",
        outcome.peer_dead_events
    );
    assert!(
        outcome.peer_rejoined_events >= 1,
        "survivors must readmit the restarted node (got {})",
        outcome.peer_rejoined_events
    );
}

#[test]
fn sigkill_without_restart_still_conserves() {
    let jobs = workload(8);
    let spec = churn_spec(
        "churn-no-restart",
        &jobs,
        vec![ChurnEvent { at: Duration::from_millis(1500), action: ChurnAction::Kill(4) }],
    );
    let outcome = run_cluster(&spec).expect("cluster run succeeds");
    check_both_oracles(&outcome, &jobs);
    assert!(
        outcome.peer_dead_events >= 1,
        "survivors must declare the SIGKILLed node dead (got {})",
        outcome.peer_dead_events
    );
    assert_eq!(outcome.peer_rejoined_events, 0, "nobody restarted, nobody rejoins");
}
