//! The ARiA wire messages (Table I of the paper).

use aria_grid::{Cost, JobId};
use aria_metrics::TrafficClass;
use aria_overlay::NodeId;
use std::fmt;

/// Identifier of one flood (a REQUEST round or one INFORM advertisement).
///
/// The selective flooding protocol suppresses duplicates per flood: a
/// node processes each flood at most once. Retransmissions of a job's
/// REQUEST use a fresh flood id so the new round reaches nodes again.
///
/// Flood ids index the world's dense flood table and are recycled once a
/// flood's last in-flight message lands, so the id space stays as small
/// as the peak number of concurrent floods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct FloodId(pub u32);

impl fmt::Display for FloodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flood-{}", self.0)
    }
}

/// An ARiA protocol message.
///
/// Field layout follows Table I; `hops_left` and `flood` are transport
/// bookkeeping for the bounded selective flood (the paper's hop limits
/// live in the protocol configuration, §IV-E).
///
/// On the wire the paper's REQUEST/INFORM/ASSIGN carry the full job
/// profile; the simulator interns each profile once in the world's job
/// table at submission and ships only the [`JobId`], so a forwarded flood
/// hop copies a handful of words instead of the whole spec. Traffic
/// accounting still charges the paper's full message sizes (§V-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// REQUEST — `initiator address · job UUID · job profile`.
    ///
    /// Broadcast by a job's initiator to discover candidate executors.
    Request {
        /// The node the job was submitted to.
        initiator: NodeId,
        /// The advertised job.
        job: JobId,
        /// Remaining hop budget.
        hops_left: u32,
        /// Flood this message belongs to.
        flood: FloodId,
    },
    /// ACCEPT — `node address · job UUID · cost`.
    ///
    /// A cost offer, sent to the initiator (REQUEST replies) or to the
    /// current assignee (INFORM replies).
    Accept {
        /// The offering node.
        from: NodeId,
        /// The job being bid on.
        job: JobId,
        /// The offered cost (lower is better).
        cost: Cost,
    },
    /// INFORM — `assignee address · job UUID · job profile · cost`.
    ///
    /// Rescheduling advertisement flooded by the job's current assignee.
    Inform {
        /// The node currently holding the job.
        assignee: NodeId,
        /// The advertised job.
        job: JobId,
        /// The assignee's current cost for the job.
        cost: Cost,
        /// Remaining hop budget.
        hops_left: u32,
        /// Flood this message belongs to.
        flood: FloodId,
    },
    /// ASSIGN — `initiator address · job UUID · job profile`.
    ///
    /// Delegates a job to a node. Receivers may not decline (§III-A).
    /// The simulator omits the initiator address: its failsafe reads a
    /// job's initiator from the world's job table, and only the live
    /// codec's ASSIGN carries it (DESIGN.md §15).
    Assign {
        /// The delegated job.
        job: JobId,
    },
    /// ACK — `node address · job UUID`.
    ///
    /// Delivery acknowledgement for an ASSIGN, sent by the assignee back
    /// to the assigner. Not part of the paper's Table I: on its reliable
    /// transport ASSIGNs cannot be lost, so ACKs are only emitted when a
    /// [`crate::fault::FaultPlan`] is active and the retransmit layer is
    /// armed.
    Ack {
        /// The acknowledging assignee.
        from: NodeId,
        /// The job whose ASSIGN landed.
        job: JobId,
    },
}

impl Message {
    /// The traffic class of this message, for bandwidth accounting
    /// (REQUEST/INFORM/ASSIGN = 1 KiB, ACCEPT = 128 B; §V-E). ACKs are
    /// tiny control replies and are charged like ACCEPTs.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            Message::Request { .. } => TrafficClass::Request,
            Message::Accept { .. } | Message::Ack { .. } => TrafficClass::Accept,
            Message::Inform { .. } => TrafficClass::Inform,
            Message::Assign { .. } => TrafficClass::Assign,
        }
    }

    /// The job this message concerns.
    pub fn job_id(&self) -> JobId {
        match self {
            Message::Request { job, .. }
            | Message::Inform { job, .. }
            | Message::Assign { job, .. }
            | Message::Accept { job, .. }
            | Message::Ack { job, .. } => *job,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Request { initiator, job, hops_left, flood } => {
                write!(f, "REQUEST[{job} from {initiator} ttl={hops_left} {flood}]")
            }
            Message::Accept { from, job, cost } => {
                write!(f, "ACCEPT[{job} from {from} cost={cost}]")
            }
            Message::Inform { assignee, job, cost, hops_left, flood } => {
                write!(f, "INFORM[{job} held by {assignee} cost={cost} ttl={hops_left} {flood}]")
            }
            Message::Assign { job } => write!(f, "ASSIGN[{job}]"),
            Message::Ack { from, job } => {
                write!(f, "ACK[{job} from {from}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: JobId = JobId::new(5);

    #[test]
    fn traffic_classes_match_table() {
        let request = Message::Request {
            initiator: NodeId::new(0),
            job: JOB,
            hops_left: 9,
            flood: FloodId(1),
        };
        let accept = Message::Accept {
            from: NodeId::new(1),
            job: JOB,
            cost: Cost::from_ettc(aria_sim::SimDuration::from_hours(1)),
        };
        let inform = Message::Inform {
            assignee: NodeId::new(2),
            job: JOB,
            cost: Cost::from_ettc(aria_sim::SimDuration::from_hours(2)),
            hops_left: 8,
            flood: FloodId(2),
        };
        let assign = Message::Assign { job: JOB };
        let ack = Message::Ack { from: NodeId::new(3), job: JOB };
        assert_eq!(request.traffic_class(), TrafficClass::Request);
        assert_eq!(accept.traffic_class(), TrafficClass::Accept);
        assert_eq!(inform.traffic_class(), TrafficClass::Inform);
        assert_eq!(assign.traffic_class(), TrafficClass::Assign);
        // ACKs ride the small-control-message class.
        assert_eq!(ack.traffic_class(), TrafficClass::Accept);
    }

    #[test]
    fn job_id_is_uniform_across_variants() {
        let msgs = [
            Message::Request {
                initiator: NodeId::new(0),
                job: JOB,
                hops_left: 9,
                flood: FloodId(1),
            },
            Message::Accept { from: NodeId::new(1), job: JOB, cost: Cost::from_nal(-5) },
            Message::Inform {
                assignee: NodeId::new(2),
                job: JOB,
                cost: Cost::from_nal(-5),
                hops_left: 8,
                flood: FloodId(2),
            },
            Message::Assign { job: JOB },
            Message::Ack { from: NodeId::new(3), job: JOB },
        ];
        for m in msgs {
            assert_eq!(m.job_id(), JOB);
        }
    }

    #[test]
    fn messages_stay_small() {
        // The point of interning job specs: a flood hop copies a few
        // words, not a whole profile.
        assert!(std::mem::size_of::<Message>() <= 32, "{}", std::mem::size_of::<Message>());
    }

    #[test]
    fn display_mentions_message_kind() {
        let m = Message::Assign { job: JOB };
        assert!(m.to_string().starts_with("ASSIGN["));
        assert!(FloodId(3).to_string().contains('3'));
    }
}
