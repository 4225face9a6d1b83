//! Derived views over a recorded [`Trace`]: per-job causal lifecycle
//! timelines, per-node utilization/queue-depth histograms, and flood
//! fan-out / offers-per-request counters.
//!
//! All views iterate the trace in record order and aggregate into
//! `BTreeMap`s, so rendering is deterministic for a given trace.

use crate::event::{FloodKind, ProbeEvent};
use crate::record::{Trace, TraceEntry};
use aria_grid::JobId;
use aria_overlay::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// All job ids mentioned anywhere in the trace, ascending.
pub fn job_ids(trace: &Trace) -> BTreeSet<JobId> {
    trace.entries.iter().filter_map(|e| e.event.job()).collect()
}

/// The entries concerning one job, in record order.
pub fn job_timeline(trace: &Trace, job: JobId) -> Vec<&TraceEntry> {
    trace.entries.iter().filter(|e| e.event.job() == Some(job)).collect()
}

/// Renders a job's causal timeline as indented human-readable lines.
pub fn render_timeline(trace: &Trace, job: JobId) -> String {
    let entries = job_timeline(trace, job);
    let mut out = String::new();
    let _ = writeln!(out, "timeline for {job} ({} events):", entries.len());
    for e in entries {
        let _ = writeln!(out, "  [{:>10}] #{:<6} {}", e.at.to_string(), e.seq, e.event);
    }
    out
}

/// The terminal-state summary of one job's recorded lifecycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lifecycle {
    /// A `job-submitted` event was seen.
    pub submitted: bool,
    /// Number of `assigned` events (initial + steals).
    pub assignments: u32,
    /// Number of `assigned` events with `reschedule=true`.
    pub reschedules: u32,
    /// An execution start was seen.
    pub started: bool,
    /// The job ran to completion.
    pub completed: bool,
    /// The initiator abandoned the job.
    pub abandoned: bool,
    /// The job was lost to a crash.
    pub lost: bool,
    /// Number of failsafe recoveries.
    pub recoveries: u32,
}

impl Lifecycle {
    /// Whether the recorded lifecycle runs from submission to a terminal
    /// state (complete, abandoned, or lost).
    pub fn is_complete(&self) -> bool {
        self.submitted && (self.completed || self.abandoned || self.lost)
    }
}

/// Folds the trace into per-job lifecycle summaries, keyed ascending.
pub fn lifecycles(trace: &Trace) -> BTreeMap<JobId, Lifecycle> {
    let mut map: BTreeMap<JobId, Lifecycle> = BTreeMap::new();
    for entry in &trace.entries {
        let Some(job) = entry.event.job() else { continue };
        let lc = map.entry(job).or_default();
        match entry.event {
            ProbeEvent::JobSubmitted { .. } => lc.submitted = true,
            ProbeEvent::Assigned { reschedule, .. } => {
                lc.assignments += 1;
                if reschedule {
                    lc.reschedules += 1;
                }
            }
            ProbeEvent::Started { .. } => lc.started = true,
            ProbeEvent::Completed { .. } => lc.completed = true,
            ProbeEvent::JobAbandoned { .. } => lc.abandoned = true,
            ProbeEvent::JobLost { .. } => lc.lost = true,
            ProbeEvent::RecoveryStarted { .. } => lc.recoveries += 1,
            _ => {}
        }
    }
    map
}

/// Per-node activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActivity {
    /// Jobs started on this node.
    pub starts: u64,
    /// Jobs completed on this node.
    pub completions: u64,
    /// Flood hops that arrived here (duplicates included).
    pub flood_hops: u64,
    /// ACCEPT offers sent from here.
    pub bids: u64,
    /// Deepest waiting queue observed at enqueue time.
    pub peak_queue_depth: u32,
}

/// Aggregate counters over a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Entries retained in the trace.
    pub events: u64,
    /// Entries the bounded ring evicted before export.
    pub dropped: u64,
    /// Event count per schema kind.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// REQUEST rounds opened (a job retry opens a new round).
    pub request_rounds: u64,
    /// Non-duplicate REQUEST flood hops.
    pub request_hops: u64,
    /// REQUEST flood hops discarded as duplicates.
    pub duplicate_request_hops: u64,
    /// INFORM advertisements flooded.
    pub inform_rounds: u64,
    /// Non-duplicate INFORM flood hops.
    pub inform_hops: u64,
    /// ACCEPT offers collected inside open windows.
    pub offers: u64,
    /// Enqueue-time waiting-depth histogram (depth → occurrences).
    pub queue_depth_histogram: BTreeMap<u32, u64>,
    /// Per-node activity, keyed ascending.
    pub per_node: BTreeMap<NodeId, NodeActivity>,
}

impl TraceSummary {
    /// Average non-duplicate REQUEST hops per REQUEST round — the flood
    /// fan-out actually achieved.
    pub fn hops_per_request(&self) -> f64 {
        self.request_hops as f64 / (self.request_rounds.max(1)) as f64
    }

    /// Average in-window offers collected per REQUEST round.
    pub fn offers_per_request(&self) -> f64 {
        self.offers as f64 / (self.request_rounds.max(1)) as f64
    }

    /// Renders the summary as human-readable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} events ({} evicted by ring)", self.events, self.dropped);
        let _ = writeln!(out, "by kind:");
        for (kind, count) in &self.by_kind {
            let _ = writeln!(out, "  {kind:<18} {count}");
        }
        let _ = writeln!(
            out,
            "flood: {} REQUEST rounds, {:.2} hops/request ({} duplicate), {:.2} offers/request",
            self.request_rounds,
            self.hops_per_request(),
            self.duplicate_request_hops,
            self.offers_per_request(),
        );
        let _ = writeln!(
            out,
            "inform: {} rounds, {} non-duplicate hops",
            self.inform_rounds, self.inform_hops
        );
        if !self.queue_depth_histogram.is_empty() {
            let _ = writeln!(out, "enqueue depth histogram:");
            for (depth, count) in &self.queue_depth_histogram {
                let _ = writeln!(out, "  depth {depth:>3}: {count}");
            }
        }
        let busiest = self.per_node.iter().max_by_key(|(id, a)| (a.starts, std::cmp::Reverse(*id)));
        if let Some((node, activity)) = busiest {
            let _ = writeln!(
                out,
                "busiest node: {node} ({} starts, {} completions, peak queue depth {})",
                activity.starts, activity.completions, activity.peak_queue_depth
            );
        }
        out
    }
}

/// Folds a trace into [`TraceSummary`] counters.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let mut s = TraceSummary {
        events: trace.entries.len() as u64,
        dropped: trace.dropped,
        ..Default::default()
    };
    for entry in &trace.entries {
        *s.by_kind.entry(entry.event.kind()).or_default() += 1;
        match entry.event {
            ProbeEvent::RequestRound { .. } => s.request_rounds += 1,
            ProbeEvent::InformRound { .. } => s.inform_rounds += 1,
            ProbeEvent::OfferReceived { .. } => s.offers += 1,
            ProbeEvent::FloodHop { kind, node, duplicate, .. } => {
                match (kind, duplicate) {
                    (FloodKind::Request, false) => s.request_hops += 1,
                    (FloodKind::Request, true) => s.duplicate_request_hops += 1,
                    (FloodKind::Inform, false) => s.inform_hops += 1,
                    (FloodKind::Inform, true) => {}
                }
                s.per_node.entry(node).or_default().flood_hops += 1;
            }
            ProbeEvent::BidSent { from, .. } => s.per_node.entry(from).or_default().bids += 1,
            ProbeEvent::Enqueued { node, depth, .. } => {
                *s.queue_depth_histogram.entry(depth).or_default() += 1;
                let a = s.per_node.entry(node).or_default();
                a.peak_queue_depth = a.peak_queue_depth.max(depth);
            }
            ProbeEvent::Started { node, .. } => s.per_node.entry(node).or_default().starts += 1,
            ProbeEvent::Completed { node, .. } => {
                s.per_node.entry(node).or_default().completions += 1
            }
            _ => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceMeta;
    use aria_sim::SimTime;

    fn entry(seq: u64, secs: u64, event: ProbeEvent) -> TraceEntry {
        TraceEntry { seq, at: SimTime::from_secs(secs), event }
    }

    fn sample() -> Trace {
        let job = JobId::new(1);
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        Trace {
            meta: TraceMeta::default(),
            dropped: 0,
            entries: vec![
                entry(0, 1, ProbeEvent::JobSubmitted { job, initiator: n0 }),
                entry(
                    1,
                    1,
                    ProbeEvent::RequestRound { job, initiator: n0, round: 0, flood: 0, seeds: 2 },
                ),
                entry(
                    2,
                    2,
                    ProbeEvent::FloodHop {
                        kind: FloodKind::Request,
                        job,
                        flood: 0,
                        node: n1,
                        hops_left: 7,
                        duplicate: false,
                    },
                ),
                entry(
                    3,
                    2,
                    ProbeEvent::OfferReceived {
                        job,
                        initiator: n0,
                        from: n1,
                        cost_ms: 100,
                        best: true,
                    },
                ),
                entry(4, 3, ProbeEvent::Assigned { job, by: n0, to: n1, reschedule: false }),
                entry(5, 3, ProbeEvent::Enqueued { job, node: n1, depth: 1 }),
                entry(6, 4, ProbeEvent::Started { job, node: n1 }),
                entry(7, 9, ProbeEvent::Completed { job, node: n1 }),
            ],
        }
    }

    #[test]
    fn lifecycle_is_complete_for_finished_job() {
        let lcs = lifecycles(&sample());
        let lc = lcs[&JobId::new(1)];
        assert!(lc.submitted && lc.started && lc.completed);
        assert!(lc.is_complete());
        assert_eq!(lc.assignments, 1);
        assert_eq!(lc.reschedules, 0);
    }

    #[test]
    fn incomplete_lifecycle_is_flagged() {
        let mut t = sample();
        t.entries.truncate(6); // chop start + completion
        let lc = lifecycles(&t)[&JobId::new(1)];
        assert!(!lc.is_complete());
    }

    #[test]
    fn summary_counts_floods_and_offers() {
        let s = summarize(&sample());
        assert_eq!(s.events, 8);
        assert_eq!(s.request_rounds, 1);
        assert_eq!(s.request_hops, 1);
        assert_eq!(s.offers, 1);
        assert_eq!(s.offers_per_request(), 1.0);
        assert_eq!(s.by_kind["assigned"], 1);
        let n1 = &s.per_node[&NodeId::new(1)];
        assert_eq!(n1.starts, 1);
        assert_eq!(n1.completions, 1);
        assert_eq!(n1.peak_queue_depth, 1);
        assert_eq!(s.queue_depth_histogram[&1], 1);
    }

    #[test]
    fn timeline_filters_by_job() {
        let t = sample();
        assert_eq!(job_timeline(&t, JobId::new(1)).len(), 8);
        assert!(job_timeline(&t, JobId::new(2)).is_empty());
        let rendered = render_timeline(&t, JobId::new(1));
        assert!(rendered.contains("submitted"), "{rendered}");
        assert!(rendered.contains("completed"), "{rendered}");
    }
}
