//! The structured event catalog: one [`ProbeEvent`] per protocol
//! transition the simulator can take.
//!
//! Events are small `Copy` values — recording one through the [`Probe`]
//! trait never allocates, so the hot path stays allocation-free whether
//! the probe is a ring recorder or the no-op [`NullProbe`].
//!
//! Every kind is declared once, in the `probe_events!` table below: its
//! variant, wire name and fields in wire order. The table generates the
//! enum, [`ProbeEvent::kind`] and the per-kind JSONL writer and reader
//! that [`crate::schema`] drives. A field's wire key is its name, unless the
//! row renames it (`kind as flood_kind`).
//!
//! [`Probe`]: crate::Probe
//! [`NullProbe`]: crate::NullProbe

use crate::schema::{push_escaped, put, Field, Fields, JsonValue, SchemaError};
use aria_grid::JobId;
use aria_overlay::NodeId;
use std::fmt;

/// A fieldless enum whose variants travel by name: one table gives both
/// directions, [`name`](FloodKind::name) and the trace field encoding.
macro_rules! named_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident = $wire:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[allow(clippy::disallowed_methods, reason = "derived PartialOrd over the variants")]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Stable schema name.
            pub const fn name(self) -> &'static str {
                match self { $($name::$variant => $wire,)* }
            }
        }

        impl Field for $name {
            const EXPECTED: &'static str = "a known name";
            fn write(self, out: &mut String) {
                push_escaped(out, self.name());
            }
            fn read(value: &JsonValue<'_>) -> Option<Self> {
                match value {
                    JsonValue::Str(name) => match name.as_ref() {
                        $($wire => Some($name::$variant),)*
                        _ => None,
                    },
                    _ => None,
                }
            }
        }
    };
}

named_enum! {
    /// Which flood a hop or bid belongs to: a REQUEST discovery round or an
    /// INFORM rescheduling advertisement.
    FloodKind {
        /// REQUEST flood (§III-B job advertisement).
        Request = "request",
        /// INFORM flood (§III-D rescheduling advertisement).
        Inform = "inform",
    }
}

named_enum! {
    /// The wire message class of a dropped message.
    MsgKind {
        /// REQUEST flood hop.
        Request = "request",
        /// ACCEPT cost offer.
        Accept = "accept",
        /// INFORM flood hop.
        Inform = "inform",
        /// ASSIGN delegation.
        Assign = "assign",
        /// ACK delivery acknowledgement (fault-layer ASSIGN hardening).
        Ack = "ack",
    }
}

/// The wire key of a table field: its name, or the `as` rename.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:ident) => {
        stringify!($key)
    };
}

/// Generates [`ProbeEvent`] and its schema plumbing from one row per
/// kind: `Variant "wire-name" { field [as key]: Type, … }`.
macro_rules! probe_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident $wire:literal {
            $($(#[$fmeta:meta])* $field:ident $(as $key:ident)?: $ty:ty,)*
        }
    )*) => {
        /// One observable protocol transition.
        ///
        /// Every variant is stamped with the sim-time at which the
        /// transition happened when it is recorded (see [`TraceEntry`]);
        /// the payloads here carry only the *what*, never wall-clock data.
        ///
        /// Costs are carried as raw scheduler-cost milliseconds
        /// ([`aria_grid::Cost::as_millis`]) so the event stays `Copy` and
        /// the JSONL schema stays integer-only.
        ///
        /// [`TraceEntry`]: crate::TraceEntry
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ProbeEvent {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl ProbeEvent {
            /// Stable schema name of this event kind (the JSONL `"kind"`).
            pub const fn kind(&self) -> &'static str {
                match self { $(ProbeEvent::$variant { .. } => $wire,)* }
            }

            /// Appends this event's fields, in wire order, to a trace line.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match *self {
                    $(ProbeEvent::$variant { $($field),* } => {
                        $(put(out, wire_key!($field $($key)?), $field);)*
                    })*
                }
            }

            /// Reads the event of wire kind `kind` from a parsed line.
            pub(crate) fn read_fields(kind: &str, fields: &Fields<'_>) -> Result<Self, SchemaError> {
                Ok(match kind {
                    $($wire => ProbeEvent::$variant {
                        $($field: fields.get(wire_key!($field $($key)?))?,)*
                    },)*
                    other => return Err(fields.error(format!("unknown event kind \"{other}\""))),
                })
            }
        }

        /// Every wire kind name, in table order.
        #[cfg(test)]
        pub(crate) const KINDS: &[&str] = &[$($wire),*];
    };
}

probe_events! {
    /// A job entered the grid at its initiator (§III-B).
    JobSubmitted "job-submitted" {
        /// The submitted job.
        job: JobId,
        /// The node it was submitted to.
        initiator: NodeId,
    }
    /// The initiator opened a REQUEST round: a fresh flood was seeded and
    /// the offer window scheduled.
    RequestRound "request-round" {
        /// The advertised job.
        job: JobId,
        /// The flooding initiator.
        initiator: NodeId,
        /// Retry round (0 = first attempt).
        round: u32,
        /// Flood id seeded for this round.
        flood: u32,
        /// Number of neighbors the flood was seeded to.
        seeds: u32,
    }
    /// A flood hop arrived at a node (REQUEST or INFORM).
    FloodHop "flood-hop" {
        /// REQUEST or INFORM flood.
        kind as flood_kind: FloodKind,
        /// The advertised job.
        job: JobId,
        /// Flood id the hop belongs to.
        flood: u32,
        /// The node the hop arrived at.
        node: NodeId,
        /// Remaining hop budget on arrival.
        hops_left: u32,
        /// Whether duplicate suppression discarded the hop.
        duplicate: bool,
    }
    /// A node answered a flood with an ACCEPT cost offer (§III-C).
    BidSent "bid-sent" {
        /// Flood kind the bid answers.
        kind as flood_kind: FloodKind,
        /// The job being bid on.
        job: JobId,
        /// The offering node.
        from: NodeId,
        /// The initiator (REQUEST) or current assignee (INFORM).
        to: NodeId,
        /// Offered cost in scheduler-cost milliseconds.
        cost_ms: i64,
    }
    /// An ACCEPT landed inside an open offer window at the initiator.
    OfferReceived "offer-received" {
        /// The job the offer concerns.
        job: JobId,
        /// The collecting initiator.
        initiator: NodeId,
        /// The offering node.
        from: NodeId,
        /// Offered cost in scheduler-cost milliseconds.
        cost_ms: i64,
        /// Whether this offer became the current best.
        best: bool,
    }
    /// A job was delegated with ASSIGN — initial assignment when
    /// `reschedule` is false, an INFORM-triggered steal otherwise.
    Assigned "assigned" {
        /// The delegated job.
        job: JobId,
        /// The assigning node (initiator, or current holder on a steal).
        by: NodeId,
        /// The new executor.
        to: NodeId,
        /// Whether this is a §III-D reschedule rather than the initial
        /// assignment.
        reschedule: bool,
    }
    /// An offer window closed empty; a fresh REQUEST round was scheduled.
    RetryScheduled "retry-scheduled" {
        /// The unplaced job.
        job: JobId,
        /// The retrying initiator.
        initiator: NodeId,
        /// The upcoming round number.
        round: u32,
    }
    /// The initiator gave up on a job after exhausting its retry budget.
    JobAbandoned "job-abandoned" {
        /// The abandoned job.
        job: JobId,
        /// The abandoning initiator.
        initiator: NodeId,
    }
    /// A job entered a node's scheduler queue.
    Enqueued "enqueued" {
        /// The queued job.
        job: JobId,
        /// The executing node.
        node: NodeId,
        /// Waiting-queue depth after the insert.
        depth: u32,
    }
    /// A job left the waiting queue and began executing.
    Started "started" {
        /// The started job.
        job: JobId,
        /// The executing node.
        node: NodeId,
    }
    /// A job finished executing.
    Completed "completed" {
        /// The finished job.
        job: JobId,
        /// The executing node.
        node: NodeId,
    }
    /// A waiting job's assignee flooded an INFORM advertisement (§III-D).
    InformRound "inform-round" {
        /// The advertised job.
        job: JobId,
        /// The current assignee.
        node: NodeId,
        /// Flood id seeded for the advertisement.
        flood: u32,
        /// The assignee's advertised cost in scheduler-cost milliseconds.
        cost_ms: i64,
    }
    /// A node joined the overlay mid-run (§V-D churn).
    NodeJoined "node-joined" {
        /// The new node.
        node: NodeId,
    }
    /// A node crashed, dropping its queue and in-flight work.
    NodeCrashed "node-crashed" {
        /// The crashed node.
        node: NodeId,
        /// Jobs resident on the node at crash time.
        lost_jobs: u32,
    }
    /// The failsafe initiator noticed a dead assignee and re-advertised
    /// the job (§III-E).
    RecoveryStarted "recovery-started" {
        /// The recovered job.
        job: JobId,
        /// The initiator running the failsafe.
        initiator: NodeId,
    }
    /// A job was lost for good (dead initiator, failsafe disabled, …).
    JobLost "job-lost" {
        /// The lost job.
        job: JobId,
    }
    /// A message addressed to a crashed node — or claimed by the fault
    /// layer (loss, open partition cut) — was dropped by the transport.
    MessageDropped "message-dropped" {
        /// Wire class of the dropped message.
        kind as msg_kind: MsgKind,
        /// The job the message concerned.
        job: JobId,
        /// The unreachable destination.
        to: NodeId,
    }
    /// An unacknowledged ASSIGN was retransmitted by the fault-layer
    /// hardening.
    AssignRetransmit "assign-retransmit" {
        /// The job whose ASSIGN went unacknowledged.
        job: JobId,
        /// The assignee being retried.
        to: NodeId,
        /// Retry attempt number (1 = first retransmit).
        attempt: u32,
    }
    /// An assignee's ACK reached the assigner; the retransmit timer is
    /// disarmed.
    AckReceived "ack-received" {
        /// The acknowledged job.
        job: JobId,
        /// The acknowledging assignee.
        from: NodeId,
    }
    /// A duplicate delivery was recognized and suppressed instead of
    /// re-applied. Flood duplicates keep reporting through
    /// [`ProbeEvent::FloodHop`] `duplicate`; this covers the
    /// point-to-point kinds.
    DuplicateSuppressed "duplicate-suppressed" {
        /// Wire class of the suppressed duplicate.
        kind as msg_kind: MsgKind,
        /// The job the duplicate concerned.
        job: JobId,
        /// The node that suppressed it.
        node: NodeId,
    }
    /// A scheduled overlay partition window opened.
    PartitionStarted "partition-started" {
        /// Index of the window in the fault plan.
        window: u32,
    }
    /// A scheduled overlay partition window healed.
    PartitionHealed "partition-healed" {
        /// Index of the window in the fault plan.
        window: u32,
    }
    /// A failure detector marked a silent peer as suspected.
    ///
    /// Suspicion is telemetry-only: the peer stays in fan-out sampling
    /// and bid candidacy until it is declared dead.
    PeerSuspected "peer-suspected" {
        /// The silent peer.
        peer: NodeId,
        /// The node whose detector raised the suspicion.
        by: NodeId,
    }
    /// A failure detector declared a peer dead: excluded from fan-out and
    /// assignment, delegations to it recovered.
    PeerDead "peer-dead" {
        /// The dead peer.
        peer: NodeId,
        /// The node whose detector declared it.
        by: NodeId,
    }
    /// A previously dead peer came back (restart or partition heal) and
    /// re-entered live membership.
    PeerRejoined "peer-rejoined" {
        /// The returning peer.
        peer: NodeId,
        /// The node whose detector readmitted it.
        by: NodeId,
    }
    /// Periodic world sample: node occupancy and event-queue pressure.
    ///
    /// All four gauges are u64: at 100k+ node scales the queued-job and
    /// event-queue counts overflow a u32.
    Gauge "gauge" {
        /// Nodes with an empty scheduler.
        idle: u64,
        /// Jobs waiting in scheduler queues, grid-wide.
        queued: u64,
        /// Pending entries in the simulation event queue.
        pending_events: u64,
        /// High-water mark of the event queue so far.
        peak_events: u64,
    }
}

impl ProbeEvent {
    /// The job this event concerns, if any.
    pub const fn job(&self) -> Option<JobId> {
        match *self {
            ProbeEvent::JobSubmitted { job, .. }
            | ProbeEvent::RequestRound { job, .. }
            | ProbeEvent::FloodHop { job, .. }
            | ProbeEvent::BidSent { job, .. }
            | ProbeEvent::OfferReceived { job, .. }
            | ProbeEvent::Assigned { job, .. }
            | ProbeEvent::RetryScheduled { job, .. }
            | ProbeEvent::JobAbandoned { job, .. }
            | ProbeEvent::Enqueued { job, .. }
            | ProbeEvent::Started { job, .. }
            | ProbeEvent::Completed { job, .. }
            | ProbeEvent::InformRound { job, .. }
            | ProbeEvent::RecoveryStarted { job, .. }
            | ProbeEvent::JobLost { job }
            | ProbeEvent::MessageDropped { job, .. }
            | ProbeEvent::AssignRetransmit { job, .. }
            | ProbeEvent::AckReceived { job, .. }
            | ProbeEvent::DuplicateSuppressed { job, .. } => Some(job),
            ProbeEvent::NodeJoined { .. }
            | ProbeEvent::NodeCrashed { .. }
            | ProbeEvent::PartitionStarted { .. }
            | ProbeEvent::PartitionHealed { .. }
            | ProbeEvent::PeerSuspected { .. }
            | ProbeEvent::PeerDead { .. }
            | ProbeEvent::PeerRejoined { .. }
            | ProbeEvent::Gauge { .. } => None,
        }
    }

    /// The node where this event happened, if the event is localized.
    ///
    /// For message-shaped events this is the *acting* node (the flood
    /// arrival node, the bidder, the collecting initiator, the assigner);
    /// for [`ProbeEvent::MessageDropped`] it is the unreachable
    /// destination.
    pub const fn node(&self) -> Option<NodeId> {
        match *self {
            ProbeEvent::JobSubmitted { initiator, .. }
            | ProbeEvent::RequestRound { initiator, .. }
            | ProbeEvent::OfferReceived { initiator, .. }
            | ProbeEvent::RetryScheduled { initiator, .. }
            | ProbeEvent::JobAbandoned { initiator, .. }
            | ProbeEvent::RecoveryStarted { initiator, .. } => Some(initiator),
            ProbeEvent::FloodHop { node, .. }
            | ProbeEvent::Enqueued { node, .. }
            | ProbeEvent::Started { node, .. }
            | ProbeEvent::Completed { node, .. }
            | ProbeEvent::InformRound { node, .. }
            | ProbeEvent::NodeJoined { node }
            | ProbeEvent::NodeCrashed { node, .. } => Some(node),
            ProbeEvent::BidSent { from, .. } => Some(from),
            ProbeEvent::Assigned { by, .. } => Some(by),
            ProbeEvent::MessageDropped { to, .. } | ProbeEvent::AssignRetransmit { to, .. } => {
                Some(to)
            }
            ProbeEvent::AckReceived { from, .. } => Some(from),
            ProbeEvent::DuplicateSuppressed { node, .. } => Some(node),
            ProbeEvent::PeerSuspected { by, .. }
            | ProbeEvent::PeerDead { by, .. }
            | ProbeEvent::PeerRejoined { by, .. } => Some(by),
            ProbeEvent::JobLost { .. }
            | ProbeEvent::PartitionStarted { .. }
            | ProbeEvent::PartitionHealed { .. }
            | ProbeEvent::Gauge { .. } => None,
        }
    }
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProbeEvent::JobSubmitted { job, initiator } => {
                write!(f, "{job} submitted at {initiator}")
            }
            ProbeEvent::RequestRound { job, initiator, round, flood, seeds } => {
                write!(
                    f,
                    "{job} REQUEST round {round} from {initiator} (flood-{flood}, {seeds} seeds)"
                )
            }
            ProbeEvent::FloodHop { kind, job, flood, node, hops_left, duplicate } => {
                let dup = if duplicate { ", duplicate" } else { "" };
                write!(
                    f,
                    "{} hop for {job} at {node} (flood-{flood}, ttl={hops_left}{dup})",
                    kind.name().to_ascii_uppercase()
                )
            }
            ProbeEvent::BidSent { kind, job, from, to, cost_ms } => {
                write!(
                    f,
                    "{from} bids {cost_ms}ms on {job} to {to} ({} reply)",
                    kind.name().to_ascii_uppercase()
                )
            }
            ProbeEvent::OfferReceived { job, initiator, from, cost_ms, best } => {
                let mark = if best { ", new best" } else { "" };
                write!(f, "{initiator} collects offer {cost_ms}ms for {job} from {from}{mark}")
            }
            ProbeEvent::Assigned { job, by, to, reschedule } => {
                if reschedule {
                    write!(f, "{job} rescheduled: {by} yields to {to}")
                } else {
                    write!(f, "{job} assigned by {by} to {to}")
                }
            }
            ProbeEvent::RetryScheduled { job, initiator, round } => {
                write!(f, "{job} offer window empty at {initiator}; retry round {round}")
            }
            ProbeEvent::JobAbandoned { job, initiator } => {
                write!(f, "{job} abandoned by {initiator}")
            }
            ProbeEvent::Enqueued { job, node, depth } => {
                write!(f, "{job} enqueued at {node} (depth {depth})")
            }
            ProbeEvent::Started { job, node } => write!(f, "{job} started on {node}"),
            ProbeEvent::Completed { job, node } => write!(f, "{job} completed on {node}"),
            ProbeEvent::InformRound { job, node, flood, cost_ms } => {
                write!(f, "{node} INFORMs for {job} at {cost_ms}ms (flood-{flood})")
            }
            ProbeEvent::NodeJoined { node } => write!(f, "{node} joined"),
            ProbeEvent::NodeCrashed { node, lost_jobs } => {
                write!(f, "{node} crashed ({lost_jobs} resident jobs)")
            }
            ProbeEvent::RecoveryStarted { job, initiator } => {
                write!(f, "{initiator} recovers {job} (failsafe)")
            }
            ProbeEvent::JobLost { job } => write!(f, "{job} lost"),
            ProbeEvent::MessageDropped { kind, job, to } => {
                // Dead destination or lossy transport — the cause is the
                // neighboring crash/fault event, not repeated here.
                write!(
                    f,
                    "{} for {job} dropped on its way to {to}",
                    kind.name().to_ascii_uppercase()
                )
            }
            ProbeEvent::AssignRetransmit { job, to, attempt } => {
                write!(f, "ASSIGN for {job} retransmitted to {to} (attempt {attempt})")
            }
            ProbeEvent::AckReceived { job, from } => {
                write!(f, "ACK for {job} from {from}")
            }
            ProbeEvent::DuplicateSuppressed { kind, job, node } => {
                write!(
                    f,
                    "duplicate {} for {job} suppressed at {node}",
                    kind.name().to_ascii_uppercase()
                )
            }
            ProbeEvent::PartitionStarted { window } => {
                write!(f, "partition window {window} opened")
            }
            ProbeEvent::PartitionHealed { window } => {
                write!(f, "partition window {window} healed")
            }
            ProbeEvent::PeerSuspected { peer, by } => {
                write!(f, "{by} suspects {peer} (missed heartbeats)")
            }
            ProbeEvent::PeerDead { peer, by } => {
                write!(f, "{by} declares {peer} dead")
            }
            ProbeEvent::PeerRejoined { peer, by } => {
                write!(f, "{by} readmits {peer} to live membership")
            }
            ProbeEvent::Gauge { idle, queued, pending_events, peak_events } => {
                write!(
                    f,
                    "gauge: {idle} idle nodes, {queued} queued jobs, {pending_events} pending events (peak {peak_events})"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_copy_small() {
        // The hot path records by value; keep the payload a few words.
        assert!(std::mem::size_of::<ProbeEvent>() <= 40, "{}", std::mem::size_of::<ProbeEvent>());
    }

    #[test]
    fn job_and_node_accessors() {
        let e = ProbeEvent::JobSubmitted { job: JobId::new(7), initiator: NodeId::new(3) };
        assert_eq!(e.job(), Some(JobId::new(7)));
        assert_eq!(e.node(), Some(NodeId::new(3)));
        let g = ProbeEvent::Gauge { idle: 1, queued: 2, pending_events: 3, peak_events: 4 };
        assert_eq!(g.job(), None);
        assert_eq!(g.node(), None);
        assert_eq!(g.kind(), "gauge");
    }

    #[test]
    fn display_is_human_readable() {
        let e = ProbeEvent::Assigned {
            job: JobId::new(1),
            by: NodeId::new(0),
            to: NodeId::new(9),
            reschedule: true,
        };
        assert_eq!(e.to_string(), "job-000001 rescheduled: n0 yields to n9");
    }

    #[test]
    fn name_tables_roundtrip() {
        fn read(name: &str) -> JsonValue<'_> {
            JsonValue::Str(name.into())
        }
        for kind in [FloodKind::Request, FloodKind::Inform] {
            assert_eq!(FloodKind::read(&read(kind.name())), Some(kind));
        }
        let msgs =
            [MsgKind::Request, MsgKind::Accept, MsgKind::Inform, MsgKind::Assign, MsgKind::Ack];
        for kind in msgs {
            assert_eq!(MsgKind::read(&read(kind.name())), Some(kind));
        }
        assert_eq!(MsgKind::read(&read("heartbeat")), None);
    }
}
