//! Every probe kind the simulator constructs is emitted by some run. A
//! kind that drops out of this sweep marks a `World` branch that no run
//! reaches any more: it gets a run here, or the branch is deleted.

use aria_core::{FaultPlan, PartitionWindow, ReservationPlan, WorldConfig};
use aria_probe::{Probe, ProbeEvent};
use aria_scenarios::{Runner, Scenario};
use aria_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// A probe that keeps only the kinds it saw.
#[derive(Default)]
struct Kinds(BTreeSet<&'static str>);

impl Probe for Kinds {
    fn record(&mut self, _now: SimTime, event: ProbeEvent) {
        self.0.insert(event.kind());
    }
}

#[test]
fn every_world_probe_kind_is_emitted() {
    let runner = Runner::scaled(30, 15);
    let run = |scenario: Scenario, edit: fn(&mut WorldConfig)| {
        let mut config = runner.config_for(scenario);
        edit(&mut config);
        let (_, world) = runner.run_config(scenario, config, 12, false, Kinds::default());
        world.into_probe().0
    };
    let mut kinds = BTreeSet::new();
    kinds.extend(run(Scenario::IMixed, |_| {}));
    kinds.extend(run(Scenario::IExpanding, |_| {}));
    // Reservations hold the deadline queues, and no offer can arrive
    // within the window: a job its initiator cannot run retries once,
    // then is abandoned.
    kinds.extend(run(Scenario::IDeadline, |c| {
        c.reservations = Some(ReservationPlan::moderate());
        c.aria.timing.accept_window = SimDuration::from_millis(1);
        c.aria.timing.max_request_rounds = 2;
    }));
    // Every message arrives twice, so every remote ASSIGN has a copy.
    kinds.extend(run(Scenario::IMixed, |c| {
        c.fault = FaultPlan { duplicate: 1.0, ..FaultPlan::none() };
    }));
    // The lossy, partitioned transport and the two crashes of
    // `probe_golden`'s failure-path golden.
    kinds.extend(run(Scenario::IMixed, |c| {
        c.fault = FaultPlan {
            loss: 0.4,
            duplicate: 0.05,
            jitter_ms: 800,
            partitions: vec![PartitionWindow {
                start: SimTime::from_mins(21),
                duration: SimDuration::from_mins(3),
            }],
            keep: None,
        };
        c.crashes = vec![SimTime::from_secs(1330), SimTime::from_mins(60)];
    }));
    // Every kind but the `peer-*` ones, which only `NodeDriver`'s
    // failure detector emits.
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        [
            "ack-received",
            "assign-retransmit",
            "assigned",
            "bid-sent",
            "completed",
            "duplicate-suppressed",
            "enqueued",
            "flood-hop",
            "gauge",
            "inform-round",
            "job-abandoned",
            "job-lost",
            "job-submitted",
            "message-dropped",
            "node-crashed",
            "node-joined",
            "offer-received",
            "partition-healed",
            "partition-started",
            "recovery-started",
            "request-round",
            "retry-scheduled",
            "started",
        ]
    );
}
