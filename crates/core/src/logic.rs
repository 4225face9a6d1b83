//! The pure per-node decision kernels of the ARiA protocol.
//!
//! Every *decision* a node takes — whether to bid, what a flood hop
//! answers and whether it forwards ([`flood_hop`]), which offer wins,
//! whether a rescheduling steal pays off, when a discovery round is
//! retried or abandoned, how an unacknowledged ASSIGN backs off — lives
//! here as a pure function of its inputs. Two callers drive the exact
//! same kernels, each from one handler per protocol step (one flood
//! hop for REQUEST and INFORM, one delegation, one give-up):
//!
//! * the simulator's [`crate::World`] handlers, where the surrounding
//!   data plane is the global event queue, the interned job table and
//!   the world-wide flood table; and
//! * the sans-io [`crate::driver::NodeDriver`], where the data plane is
//!   one node's local books and the outputs are wire messages and timer
//!   requests executed by a real UDP runtime (`aria-node`).
//!
//! Keeping the decisions here means the live binary cannot drift from
//! the simulated protocol: a change to an admission rule or a backoff
//! schedule lands on both at once, and the simulator's golden tests pin
//! it bit-for-bit.

use aria_grid::{Cost, CostKind, JobSpec, NodeProfile, Policy};
use aria_overlay::NodeId;
use aria_sim::SimDuration;

/// Whether a node both matches a job's requirements and bids in the
/// job's cost family — batch (ETTC) offers are never mixed with
/// deadline (NAL) offers (§III-C).
pub fn can_bid(profile: &NodeProfile, policy: Policy, job: &JobSpec) -> bool {
    job.requirements.matches(profile) && (policy.cost_kind() == CostKind::Nal) == job.is_deadline()
}

/// Whether a freshly arrived offer beats the best one collected so far
/// (strictly lower cost; the first offer always wins).
pub fn better_offer(best: Option<(Cost, NodeId)>, cost: Cost) -> bool {
    match best {
        None => true,
        Some((incumbent, _)) => cost < incumbent,
    }
}

/// Whether a candidate cost undercuts an incumbent cost by strictly
/// more than the rescheduling threshold (§III-D) — the gate for both
/// sending a rescheduling bid and honoring one.
pub fn undercuts(candidate: Cost, incumbent: Cost, threshold: SimDuration) -> bool {
    candidate.improvement_over(incumbent) > threshold.as_millis() as i64
}

/// The next discovery round after an offer window closed empty, or
/// `None` when the retry budget is exhausted and the job is abandoned.
pub fn next_round(round: u32, max_request_rounds: u32) -> Option<u32> {
    let next = round + 1;
    (next < max_request_rounds).then_some(next)
}

/// Whether a node that can satisfy a flood hop also keeps forwarding it
/// (the paper's text has matching nodes reply *instead of* forwarding;
/// `forward_on_match` exposes the alternative), and whether hop budget
/// remains.
pub fn should_forward(bids: bool, forward_on_match: bool, hops_left: u32) -> bool {
    (!bids || forward_on_match) && hops_left > 1
}

/// What a node does with a fresh flood copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The cost to send back in an ACCEPT, if the node answers.
    pub offer: Option<Cost>,
    /// Whether the node forwards the flood.
    pub forward: bool,
}

/// The one hop rule of both floods. `quote` is the node's cost for the
/// job, `None` when it cannot bid (callers quote only bidders: the NAL
/// quote walks the whole queue). A REQUEST (`incumbent` `None`) gets an
/// offer from every bidder; an INFORM only from a bidder that
/// [`undercuts`] the advertised cost. Forwarding follows whether the
/// node *can bid*, not whether it offered.
pub fn flood_hop(
    quote: Option<Cost>,
    incumbent: Option<Cost>,
    threshold: SimDuration,
    forward_on_match: bool,
    hops_left: u32,
) -> Hop {
    Hop {
        offer: quote.filter(|&q| incumbent.is_none_or(|c| undercuts(q, c, threshold))),
        forward: should_forward(quote.is_some(), forward_on_match, hops_left),
    }
}

/// Whether an unacknowledged ASSIGN may be retransmitted once more.
pub fn may_retransmit(attempt: u32, max_retries: u32) -> bool {
    attempt < max_retries
}

/// The bounded exponential backoff before retransmit `attempt` of an
/// unacknowledged ASSIGN (attempt 1 waits two timeouts, attempt 2 four,
/// capped at 2^16 to keep the shift defined).
pub fn assign_backoff(ack_timeout: SimDuration, attempt: u32) -> SimDuration {
    ack_timeout * (1u64 << attempt.min(16))
}

/// Removes and returns the cheapest recorded offer (ties keep the
/// earliest-recorded one; `swap_remove` keeps the scan linear).
pub fn pop_best_offer(offers: &mut Vec<(Cost, NodeId)>) -> Option<(Cost, NodeId)> {
    if offers.is_empty() {
        return None;
    }
    let mut best = 0;
    for i in 1..offers.len() {
        if offers[i].0 < offers[best].0 {
            best = i;
        }
    }
    Some(offers.swap_remove(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem};
    use aria_sim::SimTime;

    fn amd64_linux() -> NodeProfile {
        NodeProfile::new(
            Architecture::Amd64,
            OperatingSystem::Linux,
            64,
            1000,
            aria_grid::PerfIndex::BASELINE,
        )
    }

    fn requirements() -> JobRequirements {
        JobRequirements {
            arch: Architecture::Amd64,
            os: OperatingSystem::Linux,
            min_memory_gb: 1,
            min_disk_gb: 1,
        }
    }

    fn batch_spec(id: u64) -> JobSpec {
        JobSpec::batch(aria_grid::JobId::new(id), requirements(), SimDuration::from_mins(10))
    }

    #[test]
    fn bidding_requires_matching_profile_and_cost_family() {
        let profile = amd64_linux();
        let spec = batch_spec(1);
        assert!(can_bid(&profile, Policy::Fcfs, &spec));
        // Deadline policies quote NAL; they must not bid on batch jobs.
        assert!(!can_bid(&profile, Policy::Edf, &spec));
        let deadline = JobSpec::with_deadline(
            aria_grid::JobId::new(2),
            requirements(),
            SimDuration::from_mins(10),
            SimTime::from_hours(1),
        );
        assert!(can_bid(&profile, Policy::Edf, &deadline));
        assert!(!can_bid(&profile, Policy::Fcfs, &deadline));
    }

    #[test]
    fn first_offer_wins_then_only_strict_improvements() {
        let a = NodeId::new(1);
        assert!(better_offer(None, Cost::from_nal(100)));
        assert!(!better_offer(Some((Cost::from_nal(100), a)), Cost::from_nal(100)));
        assert!(better_offer(Some((Cost::from_nal(100), a)), Cost::from_nal(99)));
    }

    #[test]
    fn undercut_threshold_is_strict() {
        let t = SimDuration::from_mins(3);
        let incumbent = Cost::from_nal(1_000_000);
        assert!(!undercuts(Cost::from_nal(1_000_000 - 180_000), incumbent, t));
        assert!(undercuts(Cost::from_nal(1_000_000 - 180_001), incumbent, t));
    }

    #[test]
    fn rounds_exhaust_into_abandonment() {
        assert_eq!(next_round(0, 50), Some(1));
        assert_eq!(next_round(48, 50), Some(49));
        assert_eq!(next_round(49, 50), None);
        assert_eq!(next_round(0, 1), None);
    }

    #[test]
    fn forwarding_stops_on_match_unless_configured() {
        assert!(should_forward(false, false, 2));
        assert!(!should_forward(true, false, 2));
        assert!(should_forward(true, true, 2));
        assert!(!should_forward(false, false, 1));
    }

    #[test]
    fn inform_bidders_offer_only_when_undercutting_and_forward_only_unable() {
        let t = SimDuration::from_mins(3);
        let (quote, advertised) = (Cost::from_nal(100_000), Cost::from_nal(300_000));
        let request = flood_hop(Some(quote), None, t, false, 2);
        assert_eq!(request, Hop { offer: Some(quote), forward: false });
        let undercut = flood_hop(Some(quote), Some(advertised), t, false, 2);
        assert_eq!(undercut, Hop { offer: Some(quote), forward: false });
        // A bidder that does not undercut stays silent and still stops.
        let close = flood_hop(Some(quote), Some(Cost::from_nal(200_000)), t, false, 2);
        assert_eq!(close, Hop { offer: None, forward: false });
        let relayed = flood_hop(Some(quote), Some(Cost::from_nal(200_000)), t, true, 2);
        assert_eq!(relayed, Hop { offer: None, forward: true });
        assert_eq!(
            flood_hop(None, Some(advertised), t, false, 2),
            Hop { offer: None, forward: true }
        );
        assert_eq!(flood_hop(None, None, t, false, 1), Hop { offer: None, forward: false });
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let t = SimDuration::from_secs(2);
        assert_eq!(assign_backoff(t, 1), SimDuration::from_secs(4));
        assert_eq!(assign_backoff(t, 2), SimDuration::from_secs(8));
        assert_eq!(assign_backoff(t, 16), assign_backoff(t, 40));
        assert!(may_retransmit(3, 4));
        assert!(!may_retransmit(4, 4));
    }

    #[test]
    fn pop_best_offer_takes_cheapest_then_drains() {
        let (a, b, c) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let mut offers =
            vec![(Cost::from_nal(30), a), (Cost::from_nal(10), b), (Cost::from_nal(20), c)];
        assert_eq!(pop_best_offer(&mut offers), Some((Cost::from_nal(10), b)));
        assert_eq!(pop_best_offer(&mut offers), Some((Cost::from_nal(20), c)));
        assert_eq!(pop_best_offer(&mut offers), Some((Cost::from_nal(30), a)));
        assert_eq!(pop_best_offer(&mut offers), None);
    }
}
