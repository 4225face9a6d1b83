//! Golden observability test: the probe records faithfully and changes
//! nothing.
//!
//! Three contracts are pinned here:
//!
//! 1. A probed run exports schema-valid JSONL whose per-job lifecycles
//!    are complete (submission through a terminal state) and whose
//!    round-trip through the schema is lossless.
//! 2. Attaching a recording probe is observationally free: every metric
//!    of a probed run is bit-for-bit identical to the unprobed run of
//!    the same `(config, seed)`.
//! 3. Trace diffing is a determinism oracle: same-seed traces never
//!    diverge, and different-seed traces report a located first
//!    divergent event rather than a bare mismatch.
//!
//! The exported bytes themselves are pinned too, and corrupted copies of
//! the export must fail with a `SchemaError`, never a panic.

use aria_core::{FaultPlan, PartitionWindow};
use aria_probe::{
    first_divergence, lifecycles, schema, summarize, MsgKind, ProbeEvent, RingRecorder, Trace,
    TraceMeta,
};
use aria_scenarios::{RunStats, Runner, Scenario};
use aria_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

fn traced(seed: u64) -> (RunStats, Trace) {
    Runner::scaled(30, 15).run_once_traced(Scenario::IMixed, seed)
}

/// The JSONL export of the seed-11 trace, built once per test binary.
fn exported() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| schema::to_jsonl(&traced(11).1))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parses `text`; anything accepted must survive a second round trip.
fn parse_stably(text: &str) -> Result<Trace, schema::SchemaError> {
    let parsed = schema::from_jsonl(text)?;
    assert_eq!(schema::from_jsonl(&schema::to_jsonl(&parsed)).as_ref(), Ok(&parsed));
    Ok(parsed)
}

#[test]
fn probed_run_exports_schema_valid_jsonl_with_complete_lifecycles() {
    let (stats, trace) = traced(11);
    schema::validate(&trace).expect("exported trace must satisfy its own schema");
    let text = schema::to_jsonl(&trace);
    let parsed = schema::from_jsonl(&text).expect("exported JSONL must parse back");
    assert_eq!(parsed, trace, "JSONL round-trip must be lossless");
    assert_eq!(trace.meta.scenario, "iMixed");
    assert_eq!(trace.meta.seed, 11);
    assert_eq!(trace.meta.nodes, 30);
    assert_eq!(trace.meta.jobs, 15);
    assert_eq!(trace.dropped, 0, "a scaled run must fit the default ring");

    let lifecycles = lifecycles(&trace);
    assert_eq!(lifecycles.len() as u64, trace.meta.jobs, "every job must appear in the trace");
    for (job, lc) in &lifecycles {
        assert!(lc.is_complete(), "{job} has an incomplete lifecycle: {lc:?}");
        assert!(lc.assignments >= 1, "{job} reached a terminal state without assignment");
    }
    let completed = lifecycles.values().filter(|lc| lc.completed).count() as u64;
    assert_eq!(completed, stats.completed, "lifecycle view must agree with the metrics");

    let summary = summarize(&trace);
    assert_eq!(summary.events, trace.entries.len() as u64);
    assert!(summary.request_rounds >= trace.meta.jobs, "each job opens at least one round");
    assert!(summary.offers > 0, "an iMixed run must collect ACCEPT offers");
}

/// A traced scaled iMixed run on a faulty transport (loss, duplicates,
/// jitter, one partition window) with two node crashes. The JSONL bytes
/// are pinned, and the trace must reach the ASSIGN retransmit ladder,
/// dropped ASSIGNs, failsafe recovery and lost jobs.
#[test]
fn faulty_run_exports_pinned_jsonl_through_every_failure_path() {
    let runner = Runner::scaled(30, 15);
    let mut config = runner.config_for(Scenario::IMixed);
    config.fault = FaultPlan {
        loss: 0.4,
        duplicate: 0.05,
        jitter_ms: 800,
        partitions: vec![PartitionWindow {
            start: SimTime::from_mins(21),
            duration: SimDuration::from_mins(3),
        }],
        keep: None,
    };
    config.crashes = vec![SimTime::from_secs(1330), SimTime::from_mins(60)];
    let (_, world) =
        runner.run_config(Scenario::IMixed, config, 12, false, RingRecorder::default());
    let meta = TraceMeta { scenario: Scenario::IMixed.to_string(), seed: 12, nodes: 30, jobs: 15 };
    let trace = world.into_probe().into_trace(meta);
    assert_eq!(trace.dropped, 0, "a scaled run must fit the default ring");
    let saw = |want: fn(&ProbeEvent) -> bool| trace.entries.iter().any(|e| want(&e.event));
    assert!(saw(|e| matches!(e, ProbeEvent::AssignRetransmit { .. })));
    assert!(saw(|e| matches!(e, ProbeEvent::MessageDropped { kind: MsgKind::Assign, .. })));
    assert!(saw(|e| matches!(e, ProbeEvent::RecoveryStarted { .. })));
    assert!(saw(|e| matches!(e, ProbeEvent::JobLost { .. })));
    let text = schema::to_jsonl(&trace);
    assert_eq!((text.len(), fnv1a(text.as_bytes())), (196_649, 0x6bbc_e1ef_f68c_c370));
}

#[test]
fn exported_jsonl_is_byte_identical() {
    // Recorded from the hand-written per-kind writer that the event table
    // replaced: the generated writer must emit exactly the same bytes.
    let text = exported();
    assert_eq!((text.len(), fnv1a(text.as_bytes())), (140_054, 0xec53_f039_0e0d_d159));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn corrupted_exports_yield_ok_or_schema_error(
        cut in 0..exported().len(),
        flip in (0..exported().len(), any::<u8>()),
        splice in (0..exported().len(), 0..exported().len()),
        copy in (0..exported().lines().count(), 0..exported().lines().count()),
    ) {
        let text = exported();
        let lossy = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        // Truncated: only dropping the final newline keeps the file whole.
        let truncated = parse_stably(&lossy(&text.as_bytes()[..cut]));
        prop_assert_eq!(truncated.is_ok(), cut == text.len() - 1);
        // One byte overwritten.
        let mut flipped = text.as_bytes().to_vec();
        flipped[flip.0] = flip.1;
        let _ = parse_stably(&lossy(&flipped));
        // Spliced: the head of one line joined to the tail of a later one.
        let (from, to) = (splice.0.min(splice.1), splice.0.max(splice.1));
        let _ = parse_stably(&lossy(&[&text.as_bytes()[..from], &text.as_bytes()[to..]].concat()));
        // One line copied over another: a header out of place or a
        // repeated seq, so only copying a line onto itself survives.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[copy.1] = lines[copy.0];
        prop_assert_eq!(parse_stably(&lines.join("\n")).is_ok(), copy.0 == copy.1);
    }
}

#[test]
fn attaching_the_probe_does_not_change_the_run() {
    let baseline = Runner::scaled(30, 15).run_once(Scenario::IMixed, 11);
    let (probed, _) = traced(11);
    assert_eq!(probed.completed, baseline.completed);
    assert_eq!(probed.abandoned, baseline.abandoned);
    assert_eq!(probed.events, baseline.events, "processed event count must not move");
    assert_eq!(probed.traffic.total_messages(), baseline.traffic.total_messages());
    assert_eq!(probed.completion.mean().to_bits(), baseline.completion.mean().to_bits());
    assert_eq!(probed.waiting.mean().to_bits(), baseline.waiting.mean().to_bits());
    assert_eq!(probed.completed_series.values(), baseline.completed_series.values());
}

#[test]
fn runs_report_wall_time_and_event_throughput() {
    let (stats, trace) = traced(11);
    assert!(stats.wall_time_secs > 0.0, "a run takes nonzero wall time");
    assert!(stats.events > 0, "a run processes events");
    assert!(stats.events >= trace.entries.len() as u64 / 2, "event count must be plausible");
    assert!(stats.events_per_sec() > 0.0);
}

#[test]
fn same_seed_traces_do_not_diverge() {
    let (_, a) = traced(11);
    let (_, b) = traced(11);
    assert_eq!(first_divergence(&a, &b), None, "same (config, seed) must replay exactly");
}

#[test]
fn different_seeds_report_a_located_first_divergence() {
    let (_, a) = traced(11);
    let (_, b) = traced(12);
    let divergence = first_divergence(&a, &b).expect("different seeds must diverge");
    // Everything before the divergence matches; the divergence itself
    // carries both entries so the report can show sim-time and node.
    assert_eq!(a.entries[..divergence.index], b.entries[..divergence.index]);
    assert!(divergence.left.is_some() || divergence.right.is_some());
    let rendered = divergence.to_string();
    assert!(rendered.contains("first divergence"), "{rendered}");
}
