//! Loopback integration test: a real 5-node UDP cluster on 127.0.0.1
//! completes a small iMixed-style workload with zero lost jobs while the
//! fault stage drops the first inbound ASSIGN at every node and rolls
//! dice on everything else — so the test only passes if the ASSIGN→ACK
//! retransmit path actually fires over real sockets.
//!
//! This is the live counterpart of the simulator's job-conservation
//! oracle: same probe schema, same merged-trace validation, real I/O.

use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_node::cluster::{live_timing, run_cluster, ClusterSpec};
use aria_probe::{schema, ProbeEvent};
use aria_sim::SimDuration;
use std::path::PathBuf;
use std::time::Duration;

/// Alternating short/long ERTs over two requirement classes, all
/// satisfiable by both profiles below. ERTs are whole seconds — JSDL
/// carries seconds, so anything finer would truncate to a zero-cost job
/// (and `run_cluster` refuses such workloads).
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

#[test]
fn lossy_five_node_cluster_conserves_every_job() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("loopback-lossy");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = workload(8);
    let spec = ClusterSpec {
        nodes: 5,
        jobs: jobs.clone(),
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
        loss: 0.05,
        loss_windows: Vec::new(),
        drop_first_assign: true,
        seed: 42,
        submit_gap: Duration::from_millis(5),
        submit_to: Vec::new(),
        churn: Vec::new(),
        dir,
        node_binary: PathBuf::from(env!("CARGO_BIN_EXE_aria-node")),
        deadline: Duration::from_secs(45),
    };
    let outcome = run_cluster(&spec).expect("cluster run succeeds");

    // The conservation oracle over the merged trace: every job
    // completed exactly once, nothing lost.
    outcome.check_conservation(&jobs).expect("job conservation holds");
    assert_eq!(outcome.completed.len(), jobs.len(), "every job reported Done");
    assert_eq!(outcome.lost_events, 0, "no job-lost events in the merged trace");

    // drop_first_assign guarantees at least one ASSIGN was eaten at the
    // first assignee, so completion *requires* the retransmit path.
    assert!(
        outcome.retransmits >= 1,
        "dropped ASSIGNs must surface as assign-retransmit events (got {})",
        outcome.retransmits
    );
    assert!(outcome.injected_drops >= 1, "the fault stage recorded its drops");

    // The merged stream is schema-valid (run_cluster validated it) and
    // carries the live scenario tag plus per-job lifecycle events.
    assert_eq!(outcome.merged.meta.scenario, "live-cluster");
    assert_eq!(outcome.merged.meta.nodes, 5);
    for spec in &jobs {
        let submitted = outcome
            .merged
            .entries
            .iter()
            .any(|e| matches!(e.event, ProbeEvent::JobSubmitted { job, .. } if job == spec.id));
        let started = outcome
            .merged
            .entries
            .iter()
            .any(|e| matches!(e.event, ProbeEvent::Started { job, .. } if job == spec.id));
        assert!(submitted, "{} has a job-submitted event", spec.id);
        assert!(started, "{} has a started event", spec.id);
    }
    assert!(outcome.merged_path.is_file(), "merged JSONL written to disk");

    // Each node's streamed trace became its final file, whole: the
    // partial is gone and nothing was dropped.
    for i in 0..spec.nodes {
        let path = spec.dir.join(format!("node-{i}.jsonl"));
        let trace = schema::from_jsonl(&std::fs::read_to_string(&path).expect("final trace"))
            .expect("final trace is schema-valid");
        assert_eq!(trace.dropped, 0, "{}", path.display());
        assert!(!path.with_extension("jsonl.part").exists(), "{} left its partial", path.display());
    }
}
