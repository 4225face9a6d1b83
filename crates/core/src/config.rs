//! Protocol and simulation configuration (§IV-E defaults).

use crate::fault::FaultPlan;
use crate::net::NetModel;
use aria_grid::Policy;
use aria_overlay::LatencyModel;
use aria_sim::{SimDuration, SimRng, SimTime};
use aria_workload::{ArtModel, ClampedNormal};

/// The protocol's reliability-critical timing knobs, factored into one
/// struct so the simulator ([`AriaConfig`]) and the live node runtime
/// (`aria-node`'s config) share a single source of defaults — sim and
/// live cannot silently disagree on offer windows or the ASSIGN-ACK
/// retransmit schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolTiming {
    /// How long an initiator collects ACCEPT offers before delegating.
    pub accept_window: SimDuration,
    /// Delay before re-flooding a REQUEST that received no offer.
    pub request_retry: SimDuration,
    /// Give up re-flooding after this many attempts (safety valve for
    /// infeasible jobs; the record then stays incomplete).
    pub max_request_rounds: u32,
    /// How long an assigner waits for the assignee's ACK before
    /// retransmitting an ASSIGN.
    pub assign_ack_timeout: SimDuration,
    /// ASSIGN retransmit budget before falling back to the next-best
    /// offer and then the §III-D failsafe.
    pub assign_max_retries: u32,
}

impl Default for ProtocolTiming {
    fn default() -> Self {
        ProtocolTiming {
            accept_window: SimDuration::from_secs(5),
            request_retry: SimDuration::from_secs(60),
            max_request_rounds: 50,
            assign_ack_timeout: SimDuration::from_secs(2),
            assign_max_retries: 4,
        }
    }
}

/// Tunable parameters of the ARiA protocol.
///
/// Defaults reproduce the paper's baseline (§IV-E): REQUEST floods travel
/// at most 9 hops contacting up to 4 random neighbors per step; INFORM
/// floods use at most 8 hops and 2 neighbors; at most 2 jobs are
/// advertised every 5 minutes; rescheduling requires a 3-minute
/// improvement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AriaConfig {
    /// Hop budget for REQUEST floods (paper: 9).
    pub request_hops: u32,
    /// Neighbors contacted per REQUEST forwarding step (paper: 4).
    pub request_fanout: usize,
    /// Hop budget for INFORM floods (paper: 8).
    pub inform_hops: u32,
    /// Neighbors contacted per INFORM forwarding step (paper: 2).
    pub inform_fanout: usize,
    /// Whether dynamic rescheduling (INFORM phase) is enabled — the
    /// paper's `i*` scenarios.
    pub rescheduling: bool,
    /// How often an assignee advertises jobs for rescheduling (paper:
    /// every 5 minutes).
    pub inform_period: SimDuration,
    /// Maximum jobs advertised per period (paper baseline: 2; the
    /// *iInform1*/*iInform4* scenarios use 1 and 4).
    pub inform_batch: usize,
    /// Minimum cost improvement for a rescheduling offer/move (paper
    /// baseline: 3 minutes; *iInform15m*/*iInform30m* raise it).
    pub reschedule_threshold: SimDuration,
    /// Offer window, re-flood schedule and ASSIGN retransmit schedule.
    /// The simulator arms the ASSIGN ACK/retransmit knobs only under an
    /// active [`FaultPlan`]; on a reliable transport they are dead
    /// config.
    pub timing: ProtocolTiming,
    /// Number of overlay hops a point-to-point reply (ACCEPT/ASSIGN)
    /// traverses for latency purposes. Replies are *counted* as one
    /// message (§V-E sizes) but *timed* as a short overlay route.
    pub reply_hops: u32,
    /// Whether a node that can satisfy a REQUEST/INFORM also keeps
    /// forwarding it. The paper's text has matching nodes reply instead
    /// of forwarding; this flag exposes the alternative for ablation.
    pub forward_on_match: bool,
}

impl Default for AriaConfig {
    fn default() -> Self {
        AriaConfig {
            request_hops: 9,
            request_fanout: 4,
            inform_hops: 8,
            inform_fanout: 2,
            rescheduling: true,
            inform_period: SimDuration::from_mins(5),
            inform_batch: 2,
            reschedule_threshold: SimDuration::from_mins(3),
            timing: ProtocolTiming::default(),
            reply_hops: 4,
            forward_on_match: false,
        }
    }
}

impl AriaConfig {
    /// The paper's baseline with rescheduling disabled (plain scenarios).
    pub fn without_rescheduling() -> Self {
        AriaConfig { rescheduling: false, ..AriaConfig::default() }
    }

    /// This config with `timing` in place of its own.
    pub fn with_timing(self, timing: ProtocolTiming) -> Self {
        AriaConfig { timing, ..self }
    }
}

/// Which overlay family connects the grid (paper future work §VI:
/// "experiments with different types of peer-to-peer overlay networks").
///
/// The paper's evaluation uses the self-organized BLATANT-S overlay; the
/// alternatives let the meta-scheduling performance be studied as a
/// function of the overlay topology.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OverlayKind {
    /// BLATANT-S-style swarm-maintained overlay with the given average
    /// path length bound (the paper's setting; default bound 9).
    #[default]
    Blatant,
    /// Connected random graph with average degree `degree`.
    RandomRegular {
        /// Target average degree (≥ 2).
        degree: usize,
    },
    /// Watts-Strogatz small world (`k` lattice neighbors, rewiring
    /// probability `beta`).
    SmallWorld {
        /// Lattice degree (even, ≥ 2).
        k: usize,
        /// Rewiring probability in `[0, 1]`.
        beta: f64,
    },
    /// A bidirectional ring — the degenerate baseline (linear diameter).
    Ring,
}

/// Advance-reservation load for a world (paper future work §VI): how
/// many executor windows each node commits ahead of time, outside the
/// meta-scheduler's control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservationPlan {
    /// Expected number of reservation windows per node over the horizon.
    pub mean_per_node: f64,
    /// Window length distribution.
    pub duration: ClampedNormal,
}

impl ReservationPlan {
    /// A moderate default: two windows per node over the horizon, each
    /// 1-4 hours long (mean 2h).
    pub fn moderate() -> Self {
        ReservationPlan {
            mean_per_node: 2.0,
            duration: ClampedNormal::new(
                SimDuration::from_hours(2),
                SimDuration::from_hours(1),
                SimDuration::from_hours(1),
                SimDuration::from_hours(4),
            ),
        }
    }
}

/// How local scheduling policies are distributed over the grid's nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyMix {
    /// Every node runs the same policy.
    Uniform(Policy),
    /// Each node draws one policy uniformly at random from the list
    /// (the paper's *Mixed* scenarios use `[FCFS, SJF]` one-to-one).
    Random(Vec<Policy>),
}

impl PolicyMix {
    /// The paper's *Mixed* scenario: FCFS and SJF, one-to-one at random.
    pub fn paper_mixed() -> Self {
        PolicyMix::Random(vec![Policy::Fcfs, Policy::Sjf])
    }

    /// Samples the policy for one node.
    pub fn sample(&self, rng: &mut SimRng) -> Policy {
        match self {
            PolicyMix::Uniform(policy) => *policy,
            PolicyMix::Random(policies) => *rng.choose(policies),
        }
    }
}

/// Full configuration of a simulated grid world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Number of nodes in the initial overlay (paper: 500).
    pub nodes: usize,
    /// Overlay family (paper: the self-organized BLATANT-S overlay).
    pub overlay: OverlayKind,
    /// Target average path length of the self-organized overlay
    /// (paper: 9 hops). Only used by [`OverlayKind::Blatant`].
    pub overlay_path_length: f64,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Local scheduling policy distribution.
    pub policies: PolicyMix,
    /// Protocol parameters.
    pub aria: AriaConfig,
    /// Actual-running-time error model (paper baseline: ±10 %).
    pub art: ArtModel,
    /// End of the simulated observation window (paper: 41h40m).
    /// Gauge sampling and INFORM ticks stop here; in-flight work still
    /// drains so every assigned job completes.
    pub horizon: SimTime,
    /// Gauge sampling period for the time-series figures.
    pub sample_period: SimDuration,
    /// Nodes joining after the start (the *Expanding* scenarios): each
    /// entry is a join instant.
    pub joins: Vec<SimTime>,
    /// Failure injection: at each instant one random alive node crashes,
    /// losing its waiting and running jobs (§III-D's "event of an
    /// assignee's crash"). Empty in all paper scenarios.
    pub crashes: Vec<SimTime>,
    /// The failsafe mechanism of §III-D: initiators track their jobs'
    /// assignees, detect a crash after [`WorldConfig::failsafe_detection`]
    /// and re-run the discovery phase for the lost jobs.
    pub failsafe: bool,
    /// How long until an initiator notices its job's assignee crashed.
    pub failsafe_detection: SimDuration,
    /// Advance-reservation load committed on the nodes' executors
    /// (`None` in all paper scenarios).
    pub reservations: Option<ReservationPlan>,
    /// The transport model resolving initiator placement, fanout picks
    /// and latencies ([`NetModel::Sampled`] in every paper scenario;
    /// [`NetModel::Lockstep`] only in exhaustive-exploration worlds).
    pub net: NetModel,
    /// Transport fault injection ([`FaultPlan::none`] — i.e. a reliable
    /// network — in every paper scenario; the chaos harness and the
    /// `loss-sweep` study activate it).
    pub fault: FaultPlan,
}

impl WorldConfig {
    /// The paper's baseline world: 500 nodes, mixed FCFS/SJF policies,
    /// 41h40m horizon, one gauge sample per minute.
    pub fn paper_baseline() -> Self {
        WorldConfig {
            nodes: 500,
            overlay: OverlayKind::Blatant,
            overlay_path_length: 9.0,
            latency: LatencyModel::default(),
            policies: PolicyMix::paper_mixed(),
            aria: AriaConfig::default(),
            art: ArtModel::paper_baseline(),
            horizon: SimTime::from_mins(41 * 60 + 40),
            sample_period: SimDuration::from_mins(5),
            joins: Vec::new(),
            crashes: Vec::new(),
            failsafe: true,
            failsafe_detection: SimDuration::from_mins(5),
            reservations: None,
            net: NetModel::Sampled,
            fault: FaultPlan::none(),
        }
    }

    /// The paper's *Expanding* world: 200 extra nodes joining every 50 s
    /// from 1h23m (reaching 700 nodes around 4h10m).
    pub fn paper_expanding() -> Self {
        let first_join = SimTime::from_mins(83);
        let joins = (0..200u64).map(|i| first_join + SimDuration::from_secs(50) * i).collect();
        WorldConfig { joins, ..WorldConfig::paper_baseline() }
    }

    /// A small, fast world for tests and examples: `n` nodes, shorter
    /// horizon, everything else at paper defaults.
    pub fn small_test(n: usize) -> Self {
        WorldConfig {
            nodes: n,
            overlay_path_length: 4.0,
            horizon: SimTime::from_hours(12),
            ..WorldConfig::paper_baseline()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_iv_e() {
        let c = AriaConfig::default();
        assert_eq!(c.request_hops, 9);
        assert_eq!(c.request_fanout, 4);
        assert_eq!(c.inform_hops, 8);
        assert_eq!(c.inform_fanout, 2);
        assert_eq!(c.inform_batch, 2);
        assert_eq!(c.inform_period, SimDuration::from_mins(5));
        assert_eq!(c.reschedule_threshold, SimDuration::from_mins(3));
        assert!(c.rescheduling);
        assert!(!c.forward_on_match);
        // ASSIGN hardening knobs (only live under an active FaultPlan).
        assert_eq!(c.timing.assign_ack_timeout, SimDuration::from_secs(2));
        assert_eq!(c.timing.assign_max_retries, 4);
    }

    #[test]
    fn timing_slice_roundtrips_and_sources_the_defaults() {
        let c = AriaConfig::default();
        // One source of truth: the default protocol timing *is* the
        // default timing slice of AriaConfig.
        assert_eq!(c.timing, ProtocolTiming::default());
        assert_eq!(c.with_timing(c.timing), c);
        // An override lands on exactly the timing fields.
        let fast = ProtocolTiming {
            accept_window: SimDuration::from_millis(300),
            request_retry: SimDuration::from_secs(1),
            max_request_rounds: 10,
            assign_ack_timeout: SimDuration::from_millis(200),
            assign_max_retries: 6,
        };
        let tuned = c.with_timing(fast);
        assert_eq!(tuned.timing, fast);
        assert_eq!(tuned.with_timing(ProtocolTiming::default()), c);
    }

    #[test]
    fn without_rescheduling_only_flips_the_flag() {
        let base = AriaConfig::default();
        let plain = AriaConfig::without_rescheduling();
        assert!(!plain.rescheduling);
        assert_eq!(AriaConfig { rescheduling: true, ..plain }, base);
    }

    #[test]
    fn policy_mix_uniform_always_same() {
        let mut rng = SimRng::seed_from(1);
        let mix = PolicyMix::Uniform(Policy::Fcfs);
        for _ in 0..10 {
            assert_eq!(mix.sample(&mut rng), Policy::Fcfs);
        }
    }

    #[test]
    fn policy_mix_random_is_roughly_even() {
        let mut rng = SimRng::seed_from(2);
        let mix = PolicyMix::paper_mixed();
        let n = 10_000;
        let fcfs = (0..n).filter(|_| mix.sample(&mut rng) == Policy::Fcfs).count();
        assert!((fcfs as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn overlay_kind_defaults_to_blatant() {
        assert_eq!(OverlayKind::default(), OverlayKind::Blatant);
        assert_eq!(WorldConfig::paper_baseline().overlay, OverlayKind::Blatant);
    }

    #[test]
    fn paper_baseline_window() {
        let w = WorldConfig::paper_baseline();
        assert_eq!(w.nodes, 500);
        assert_eq!(w.horizon, SimTime::from_mins(2500)); // 41h40m
        assert!(w.joins.is_empty());
        // No failure injection in any paper scenario, but the failsafe is
        // armed by default.
        assert!(w.crashes.is_empty());
        assert!(w.failsafe);
        assert!(w.reservations.is_none());
        // The paper assumes a reliable transport: no fault injection.
        assert_eq!(w.fault, FaultPlan::none());
        assert!(!w.fault.is_active());
    }

    #[test]
    fn moderate_reservation_plan_is_sane() {
        let plan = ReservationPlan::moderate();
        assert!(plan.mean_per_node > 0.0);
        assert!(plan.duration.min >= SimDuration::from_hours(1));
    }

    #[test]
    fn expanding_world_joins_200_nodes() {
        let w = WorldConfig::paper_expanding();
        assert_eq!(w.joins.len(), 200);
        assert_eq!(w.joins[0], SimTime::from_mins(83));
        // Last join around 4h10m.
        let last = *w.joins.last().unwrap();
        assert!(last <= SimTime::from_mins(4 * 60 + 10));
        assert!(last > SimTime::from_mins(4 * 60 + 5));
    }
}
