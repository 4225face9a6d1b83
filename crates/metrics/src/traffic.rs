//! Per-message-type traffic accounting (§V-E, Figure 10).

use std::fmt;
use std::ops::AddAssign;

/// The four ARiA message types, for traffic classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// REQUEST — job discovery flood.
    Request,
    /// ACCEPT — cost offer.
    Accept,
    /// INFORM — rescheduling advertisement flood.
    Inform,
    /// ASSIGN — job delegation.
    Assign,
}

impl TrafficClass {
    /// All classes, in presentation order.
    pub const ALL: [TrafficClass; 4] =
        [TrafficClass::Request, TrafficClass::Accept, TrafficClass::Inform, TrafficClass::Assign];

    /// Size of one message of this class, as assumed by the paper:
    /// "REQUEST, INFORM, and ASSIGN messages carry 1KBytes of
    /// information, whereas ACCEPT messages only 128bytes" (§V-E).
    pub fn message_bytes(self) -> u64 {
        match self {
            TrafficClass::Accept => 128,
            _ => 1024,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrafficClass::Request => "REQUEST",
            TrafficClass::Accept => "ACCEPT",
            TrafficClass::Inform => "INFORM",
            TrafficClass::Assign => "ASSIGN",
        })
    }
}

/// Counts messages (and therefore bytes) per [`TrafficClass`].
///
/// # Example
///
/// ```
/// use aria_metrics::{TrafficClass, TrafficLedger};
///
/// let mut ledger = TrafficLedger::new();
/// ledger.record(TrafficClass::Request);
/// ledger.record(TrafficClass::Accept);
/// assert_eq!(ledger.bytes(TrafficClass::Request), 1024);
/// assert_eq!(ledger.total_bytes(), 1024 + 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficLedger {
    counts: [u64; 4],
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    fn slot(class: TrafficClass) -> usize {
        match class {
            TrafficClass::Request => 0,
            TrafficClass::Accept => 1,
            TrafficClass::Inform => 2,
            TrafficClass::Assign => 3,
        }
    }

    /// Records one transmitted message.
    pub fn record(&mut self, class: TrafficClass) {
        self.counts[Self::slot(class)] += 1;
    }

    /// Number of messages of a class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.counts[Self::slot(class)]
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bytes transmitted for a class.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.messages(class) * class.message_bytes()
    }

    /// Total bytes across classes.
    pub fn total_bytes(&self) -> u64 {
        TrafficClass::ALL.iter().map(|&c| self.bytes(c)).sum()
    }

    /// Average bytes per node for a grid of `nodes` nodes.
    pub fn bytes_per_node(&self, nodes: usize) -> f64 {
        if nodes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / nodes as f64
        }
    }

    /// Average bandwidth in bits per second over a window of `secs`
    /// simulated seconds, per node.
    pub fn bandwidth_bps(&self, nodes: usize, secs: u64) -> f64 {
        if secs == 0 {
            0.0
        } else {
            self.bytes_per_node(nodes) * 8.0 / secs as f64
        }
    }
}

impl AddAssign for TrafficLedger {
    fn add_assign(&mut self, rhs: TrafficLedger) {
        for i in 0..4 {
            self.counts[i] += rhs.counts[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_message_sizes() {
        assert_eq!(TrafficClass::Request.message_bytes(), 1024);
        assert_eq!(TrafficClass::Inform.message_bytes(), 1024);
        assert_eq!(TrafficClass::Assign.message_bytes(), 1024);
        assert_eq!(TrafficClass::Accept.message_bytes(), 128);
    }

    #[test]
    fn ledger_counts_per_class() {
        let mut ledger = TrafficLedger::new();
        for _ in 0..3 {
            ledger.record(TrafficClass::Inform);
        }
        ledger.record(TrafficClass::Assign);
        assert_eq!(ledger.messages(TrafficClass::Inform), 3);
        assert_eq!(ledger.messages(TrafficClass::Request), 0);
        assert_eq!(ledger.total_messages(), 4);
        assert_eq!(ledger.bytes(TrafficClass::Inform), 3 * 1024);
        assert_eq!(ledger.total_bytes(), 4 * 1024);
    }

    #[test]
    fn per_node_and_bandwidth() {
        let mut ledger = TrafficLedger::new();
        for _ in 0..1000 {
            ledger.record(TrafficClass::Request);
        }
        assert_eq!(ledger.bytes_per_node(500), 2048.0);
        // 2048 bytes over 1024 seconds => 16 bps.
        assert_eq!(ledger.bandwidth_bps(500, 1024), 16.0);
        assert_eq!(ledger.bytes_per_node(0), 0.0);
        assert_eq!(ledger.bandwidth_bps(500, 0), 0.0);
    }

    #[test]
    fn ledgers_merge_with_add_assign() {
        let mut a = TrafficLedger::new();
        a.record(TrafficClass::Request);
        let mut b = TrafficLedger::new();
        b.record(TrafficClass::Request);
        b.record(TrafficClass::Accept);
        a += b;
        assert_eq!(a.messages(TrafficClass::Request), 2);
        assert_eq!(a.messages(TrafficClass::Accept), 1);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = TrafficClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["REQUEST", "ACCEPT", "INFORM", "ASSIGN"]);
    }
}
