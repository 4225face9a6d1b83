//! The sans-io per-node protocol driver.
//!
//! [`NodeDriver`] is one grid node's complete ARiA state machine with
//! every I/O concern factored out: inputs are decoded wire messages,
//! timer fires and local job submissions; outputs are send-this-message,
//! start-this-timer and probe-record effects. The driver never touches a
//! socket, a clock or a wall-time source — the caller owns all of them:
//!
//! * the **live runtime** (`aria-node`) feeds it UDP datagrams decoded by
//!   `aria-codec` and timer fires from a monotonic-clock timer wheel,
//!   and executes `Send` outputs on a real socket;
//! * **tests** drive whole in-memory clusters of drivers through a
//!   deterministic message/timer queue (see the module tests), which is
//!   how sim-vs-live equivalence is pinned.
//!
//! ## Relation to the simulator
//!
//! The simulator's [`crate::World`] is *not* N drivers in a trench coat:
//! for speed it interns job specs in a global table, dedups floods in
//! world-wide visited sets and draws all randomness from one event-order
//! stream, none of which exists on a real network. What the two share is
//! the layer where protocol behaviour is decided: every admission,
//! comparison, retry and backoff decision in this file is a call into
//! [`crate::logic`], the same kernels the `World` handlers call. The
//! golden determinism/probe tests pin the simulator bit-for-bit, the
//! kernel unit tests pin the decisions, and the cluster tests below pin
//! that a network of drivers reaches the same outcomes (min-cost
//! winners, exactly-once completion) the simulator reaches.
//!
//! ## Live-specific behaviour
//!
//! Real transports are lossy, so the driver permanently runs what the
//! simulator only arms under an active [`crate::FaultPlan`]: ASSIGNs are
//! ACKed, unacknowledged ASSIGNs retransmit on the shared bounded
//! backoff schedule ([`crate::logic::assign_backoff`]), exhausted
//! retransmits fall back to the next-best recorded offer and then to the
//! §III-D failsafe. Flood dedup uses a per-node seen set plus a
//! visited list carried in the message (selective flooding, the paper's
//! reference \[28\]) instead of the simulator's global visited table.

use crate::config::AriaConfig;
use crate::logic;
use aria_grid::{Cost, JobId, JobSpec, NodeProfile, Policy, SchedulerQueue};
use aria_overlay::NodeId;
use aria_probe::{FloodKind, MsgKind, ProbeEvent};
use aria_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Globally unique flood identifier on the live network: the origin node
/// plus a per-origin sequence number. (The simulator's dense
/// [`crate::FloodId`] table indexes recycled slots; live floods from
/// different nodes must never collide, so the id carries its origin.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FloodUid {
    /// The node that seeded the flood.
    pub origin: NodeId,
    /// The origin's flood counter at seeding time.
    pub seq: u32,
}

/// A self-contained ARiA wire message (Table I plus membership and
/// harness control frames).
///
/// Unlike the simulator's interned [`crate::Message`], live messages
/// carry the full [`JobSpec`] where the paper's wire format carries the
/// job profile — there is no global job table to look payloads up in.
/// `visited` implements selective flooding: the nodes a flood already
/// traversed, so forwarding avoids them (bounded by
/// [`NodeDriver::MAX_VISITED`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LiveMsg {
    /// REQUEST — flooded job advertisement (§III-B).
    Request {
        /// The job's initiator (offers and the final report go here).
        initiator: NodeId,
        /// The advertised job, full profile included.
        spec: JobSpec,
        /// Remaining hop budget.
        hops_left: u32,
        /// Flood this copy belongs to.
        flood: FloodUid,
        /// Nodes the flood already traversed (selective flooding).
        visited: Vec<NodeId>,
    },
    /// ACCEPT — cost offer to an initiator (REQUEST) or holder (INFORM).
    Accept {
        /// The offering node.
        from: NodeId,
        /// The job being bid on.
        job: JobId,
        /// The offered cost (lower is better).
        cost: Cost,
    },
    /// INFORM — flooded rescheduling advertisement (§III-D).
    Inform {
        /// The node currently holding the job.
        assignee: NodeId,
        /// The advertised job, full profile included.
        spec: JobSpec,
        /// The holder's current cost.
        cost: Cost,
        /// Remaining hop budget.
        hops_left: u32,
        /// Flood this copy belongs to.
        flood: FloodUid,
        /// Nodes the flood already traversed.
        visited: Vec<NodeId>,
    },
    /// ASSIGN — delegates a job to a node (may not decline, §III-A).
    Assign {
        /// The job's initiator, for failsafe tracking.
        initiator: NodeId,
        /// The delegated job, full profile included.
        spec: JobSpec,
    },
    /// ACK — assignee's delivery acknowledgement for an ASSIGN.
    Ack {
        /// The acknowledging assignee.
        from: NodeId,
        /// The job whose ASSIGN landed.
        job: JobId,
    },
    /// A node announcing itself to the overlay (static-bootstrap hello).
    Join {
        /// The joining node.
        node: NodeId,
    },
    /// A node announcing departure.
    Leave {
        /// The departing node.
        node: NodeId,
    },
    /// Periodic liveness beacon: "I am still here" (failure detection).
    Heartbeat {
        /// The beaconing node.
        node: NodeId,
    },
    /// Holder update to a job's initiator after a §III-D steal moved the
    /// job without the initiator in the loop, so failsafe delegation
    /// tracking follows the job.
    Holding {
        /// The job that moved.
        job: JobId,
        /// The node now holding it.
        node: NodeId,
    },
    /// Harness → node: submit a job at this node (it becomes initiator).
    Submit {
        /// The submitted job.
        spec: JobSpec,
    },
    /// Node → harness: a job finished executing here.
    Done {
        /// The completed job.
        job: JobId,
        /// The executing node.
        node: NodeId,
    },
    /// Harness → node: flush telemetry and exit the event loop.
    Shutdown,
}

impl LiveMsg {
    /// The probe-schema kind tag of a protocol message (control frames
    /// report as the closest small-message class, [`MsgKind::Ack`]).
    pub fn kind(&self) -> MsgKind {
        match self {
            LiveMsg::Request { .. } => MsgKind::Request,
            LiveMsg::Accept { .. } => MsgKind::Accept,
            LiveMsg::Inform { .. } => MsgKind::Inform,
            LiveMsg::Assign { .. } => MsgKind::Assign,
            LiveMsg::Ack { .. }
            | LiveMsg::Join { .. }
            | LiveMsg::Leave { .. }
            | LiveMsg::Heartbeat { .. }
            | LiveMsg::Holding { .. }
            | LiveMsg::Submit { .. }
            | LiveMsg::Done { .. }
            | LiveMsg::Shutdown => MsgKind::Ack,
        }
    }

    /// Whether this is a protocol message (subject to simulated loss at
    /// the codec boundary) rather than a harness control frame.
    /// Heartbeats are protocol: injected loss windows must be able to
    /// starve a failure detector, or partitions cannot be approximated.
    pub fn is_protocol(&self) -> bool {
        matches!(
            self,
            LiveMsg::Request { .. }
                | LiveMsg::Accept { .. }
                | LiveMsg::Inform { .. }
                | LiveMsg::Assign { .. }
                | LiveMsg::Ack { .. }
                | LiveMsg::Heartbeat { .. }
                | LiveMsg::Holding { .. }
        )
    }
}

/// A timer the driver asked its runtime to start. The runtime owes the
/// driver exactly one [`Input::Timer`] fire per request; cancellation is
/// the driver's problem (stale fires are recognized and ignored, the
/// same way the simulator treats stale events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// The initiator's ACCEPT collection window closed.
    AcceptWindow {
        /// The advertised job.
        job: JobId,
    },
    /// Re-flood a REQUEST that received no offers.
    RetryRequest {
        /// The unplaced job.
        job: JobId,
        /// The upcoming round number.
        round: u32,
    },
    /// An ASSIGN's ACK did not arrive in time.
    AssignTimeout {
        /// The delegated job.
        job: JobId,
        /// Epoch guard: a newer delegation invalidates older timers.
        epoch: u32,
    },
    /// The locally running job finished.
    ExecutionComplete {
        /// The running job.
        job: JobId,
    },
    /// Re-check the local dispatch queue (reservation windows).
    DispatchRetry,
    /// Periodic INFORM advertisement tick (§III-D).
    InformTick,
    /// Failsafe: re-discover a job whose delegation evaporated.
    Recover {
        /// The possibly-lost job.
        job: JobId,
    },
    /// Periodic failure-detector sweep + outgoing heartbeat fan-out.
    HeartbeatTick,
}

/// One input to the driver: a decoded message, a timer fire or a local
/// job submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A wire message arrived from `from`.
    Msg {
        /// The sending node.
        from: NodeId,
        /// The decoded message.
        msg: LiveMsg,
    },
    /// A previously requested timer fired.
    Timer(Timer),
    /// A job was submitted at this node (it becomes the initiator).
    Submit(JobSpec),
}

/// One effect the runtime must execute for the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to encode and transmit.
        msg: LiveMsg,
    },
    /// Start a timer firing `after` from now.
    StartTimer {
        /// Relative delay.
        after: SimDuration,
        /// The timer to deliver back via [`Input::Timer`].
        timer: Timer,
    },
    /// Record a telemetry event (the existing probe schema).
    Probe(ProbeEvent),
    /// A job finished executing on this node (harness notification).
    Completed {
        /// The finished job.
        job: JobId,
    },
    /// A job was abandoned after exhausting its discovery retry budget.
    Abandoned {
        /// The abandoned job.
        job: JobId,
    },
    /// A job is lost for good (failsafe disabled or initiator gone).
    Lost {
        /// The lost job.
        job: JobId,
    },
}

/// Failure-detection knobs: how often heartbeats go out and how many
/// silent periods demote a peer to suspect and then to dead.
///
/// The derived timeouts are `heartbeat_period * suspect_misses` and
/// `heartbeat_period * dead_misses`. Suspicion is telemetry-only (it
/// tolerates jitter without protocol consequences); death excludes the
/// peer from fan-out sampling and bid candidacy and triggers immediate
/// recovery of delegations to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Heartbeat transmit + detector sweep period. `ZERO` disables the
    /// failure detector entirely (the pre-membership static behaviour).
    pub heartbeat_period: SimDuration,
    /// Silent periods before a peer is suspected.
    pub suspect_misses: u32,
    /// Silent periods before a suspected peer is declared dead.
    pub dead_misses: u32,
}

impl MembershipConfig {
    /// Silence after which a peer is suspected.
    pub fn suspect_after(&self) -> SimDuration {
        self.heartbeat_period * u64::from(self.suspect_misses)
    }

    /// Silence after which a peer is declared dead.
    pub fn dead_after(&self) -> SimDuration {
        self.heartbeat_period * u64::from(self.dead_misses)
    }
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            heartbeat_period: SimDuration::from_secs(1),
            suspect_misses: 3,
            dead_misses: 8,
        }
    }
}

/// Driver-level configuration: the shared protocol parameters plus the
/// failsafe knobs the simulator keeps on [`crate::WorldConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Protocol parameters (§IV-E); the timing slice
    /// ([`AriaConfig::timing`]) is shared verbatim with the node
    /// runtime's config file.
    pub aria: AriaConfig,
    /// Whether the §III-D failsafe re-discovers evaporated delegations.
    pub failsafe: bool,
    /// How long until a delegation is presumed evaporated.
    pub failsafe_detection: SimDuration,
    /// Heartbeat/suspect/dead failure-detection knobs.
    pub membership: MembershipConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            aria: AriaConfig::default(),
            failsafe: true,
            failsafe_detection: SimDuration::from_mins(5),
            membership: MembershipConfig::default(),
        }
    }
}

/// Liveness verdict the failure detector holds for a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    /// Heard from recently.
    Alive,
    /// Missed enough heartbeats to worry; still sampled and assignable.
    Suspect,
    /// Missed enough heartbeats to act: excluded and recovered from.
    Dead,
}

/// Per-peer failure-detector bookkeeping.
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    last_seen: SimTime,
    state: PeerState,
}

/// An initiator's open offer-collection window.
#[derive(Debug, Clone)]
struct PendingRound {
    round: u32,
    best: Option<(Cost, NodeId)>,
}

/// An in-flight (unacknowledged) ASSIGN delegation.
#[derive(Debug, Clone, Copy)]
struct ArmedAssign {
    to: NodeId,
    attempt: u32,
    epoch: u32,
    reschedule: bool,
}

/// One grid node's complete sans-io protocol state machine.
pub struct NodeDriver {
    id: NodeId,
    profile: NodeProfile,
    queue: SchedulerQueue,
    cfg: DriverConfig,
    rng: SimRng,
    /// All known overlay members (flood seeding picks random subsets)
    /// with per-peer failure-detector state. Never contains this node.
    membership: BTreeMap<NodeId, PeerHealth>,
    /// Direct overlay neighbors (flood forwarding targets); filtered by
    /// liveness at sampling time.
    neighbors: Vec<NodeId>,
    /// Flood dedup: floods this node already processed, FIFO-bounded.
    seen: BTreeSet<FloodUid>,
    seen_order: VecDeque<FloodUid>,
    flood_seq: u32,
    /// Specs of jobs this node initiated or holds (the live substitute
    /// for the simulator's interned job table).
    specs: BTreeMap<JobId, JobSpec>,
    /// Initiator of each job this node learned about via ASSIGN.
    initiator_of: BTreeMap<JobId, NodeId>,
    /// Open offer windows for jobs this node is initiating.
    pending: BTreeMap<JobId, PendingRound>,
    /// Every offer recorded while a job's discovery/steal is in flight
    /// (retransmit-exhaustion fallback pops the next best from here).
    offers: BTreeMap<JobId, Vec<(Cost, NodeId)>>,
    /// Armed ASSIGN retransmit state per delegated job.
    armed: BTreeMap<JobId, ArmedAssign>,
    assign_epoch: u32,
    /// Jobs that finished executing here (idempotent-ASSIGN suppression).
    completed: BTreeSet<JobId>,
    /// ACKed delegations this initiator still tracks: job → current
    /// holder, updated by ACK/Holding, cleared by the executor's Done.
    /// When the holder is declared dead the job is recovered (§III-D).
    delegated: BTreeMap<JobId, NodeId>,
    /// Jobs this initiator knows completed remotely (Done received).
    settled: BTreeSet<JobId>,
    /// FIFO ring of terminal jobs; overflow purges their bookkeeping.
    retired_order: VecDeque<JobId>,
    /// Reused candidate buffer for fan-out sampling (flood seeds and
    /// forwarding targets), so a flood hop allocates no list of its own.
    scratch: Vec<NodeId>,
}

impl NodeDriver {
    /// Flood dedup memory: floods remembered per node before the oldest
    /// entries are forgotten.
    pub const MAX_SEEN: usize = 8192;
    /// Upper bound on the visited list carried by a flood message (the
    /// per-node seen sets still dedup anything the list no longer
    /// covers).
    pub const MAX_VISITED: usize = 256;
    /// Terminal-job memory: how many retired (completed, settled, lost
    /// or abandoned) jobs keep their spec/initiator/dedup bookkeeping.
    /// Within this retention window duplicate ASSIGNs are still
    /// suppressed; beyond it the oldest entries are purged so a
    /// long-haul soak cannot grow memory without bound.
    pub const MAX_RETIRED: usize = 4096;

    /// Builds a driver for node `id`. `peers` is the full known overlay
    /// membership (used to seed REQUEST floods at random members, like
    /// the simulator's §III-B "random subset of nodes of the overlay"),
    /// `neighbors` the direct overlay links floods forward along.
    pub fn new(
        id: NodeId,
        profile: NodeProfile,
        policy: Policy,
        cfg: DriverConfig,
        seed: u64,
        peers: Vec<NodeId>,
        neighbors: Vec<NodeId>,
    ) -> Self {
        let membership = peers
            .into_iter()
            .filter(|&n| n != id)
            .map(|n| (n, PeerHealth { last_seen: SimTime::ZERO, state: PeerState::Alive }))
            .collect();
        NodeDriver {
            id,
            profile,
            queue: SchedulerQueue::new(policy),
            cfg,
            rng: SimRng::seed_from(seed),
            membership,
            neighbors,
            seen: BTreeSet::new(),
            seen_order: VecDeque::new(),
            flood_seq: 0,
            specs: BTreeMap::new(),
            initiator_of: BTreeMap::new(),
            pending: BTreeMap::new(),
            offers: BTreeMap::new(),
            armed: BTreeMap::new(),
            assign_epoch: 0,
            completed: BTreeSet::new(),
            delegated: BTreeMap::new(),
            settled: BTreeSet::new(),
            retired_order: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Jobs completed on this node so far.
    pub fn completed_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.completed.iter().copied()
    }

    /// Initial outputs before any input arrives: the periodic INFORM
    /// tick when dynamic rescheduling is enabled, plus — when the
    /// failure detector is on — a `Join` broadcast (so peers that had
    /// declared this node dead readmit a restarted incarnation) and the
    /// first heartbeat tick. `now` baselines every peer's last-seen
    /// clock so nobody is declared dead for silence predating startup.
    pub fn start(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        for health in self.membership.values_mut() {
            health.last_seen = now;
        }
        if self.cfg.aria.rescheduling {
            out.push(Output::StartTimer {
                after: self.cfg.aria.inform_period,
                timer: Timer::InformTick,
            });
        }
        let period = self.cfg.membership.heartbeat_period;
        if !period.is_zero() {
            for &peer in self.membership.keys() {
                out.push(Output::Send { to: peer, msg: LiveMsg::Join { node: self.id } });
            }
            out.push(Output::StartTimer { after: period, timer: Timer::HeartbeatTick });
        }
        out
    }

    /// Advances the state machine by one input and returns the effects
    /// the runtime must execute. `now` is the runtime's monotonic clock
    /// mapped to [`SimTime`] (live) or the simulated clock (tests).
    pub fn handle(&mut self, now: SimTime, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Submit(spec) => self.submit(now, spec, &mut out),
            Input::Timer(timer) => self.timer(now, timer, &mut out),
            Input::Msg { from, msg } => self.message(now, from, msg, &mut out),
        }
        out
    }

    // --- submission & REQUEST phase (§III-B) -----------------------------

    fn submit(&mut self, now: SimTime, spec: JobSpec, out: &mut Vec<Output>) {
        let job = spec.id;
        self.specs.insert(job, spec);
        self.initiator_of.insert(job, self.id);
        out.push(Output::Probe(ProbeEvent::JobSubmitted { job, initiator: self.id }));
        self.start_round(now, job, 0, out);
    }

    fn start_round(&mut self, now: SimTime, job: JobId, round: u32, out: &mut Vec<Output>) {
        // A fresh discovery supersedes leftovers: recorded offers are
        // stale and any armed retransmit is obsolete (its pending
        // timeout goes stale through the disarm).
        self.offers.insert(job, Vec::new());
        self.armed.remove(&job);
        let spec = self.specs[&job];
        let own_bid = if logic::can_bid(&self.profile, self.queue.policy(), &spec) {
            Some((self.queue.cost_of_candidate(&spec, now, &self.profile), self.id))
        } else {
            None
        };
        self.pending.insert(job, PendingRound { round, best: own_bid });

        let flood = self.next_flood();
        // Dead peers are excluded from flood seeding: their bids cannot
        // arrive and assigning to them is recovery work waiting to
        // happen. Suspects stay in — suspicion tolerates jitter.
        let mut seeds = std::mem::take(&mut self.scratch);
        seeds.clear();
        seeds.extend(
            self.membership.iter().filter(|(_, h)| h.state != PeerState::Dead).map(|(&n, _)| n),
        );
        self.rng.sample_in_place(&mut seeds, self.cfg.aria.request_fanout);
        for &seed in &seeds {
            out.push(Output::Send {
                to: seed,
                msg: LiveMsg::Request {
                    initiator: self.id,
                    spec,
                    hops_left: self.cfg.aria.request_hops,
                    flood,
                    visited: vec![self.id],
                },
            });
        }
        out.push(Output::Probe(ProbeEvent::RequestRound {
            job,
            initiator: self.id,
            round,
            flood: flood.seq,
            seeds: seeds.len() as u32,
        }));
        self.scratch = seeds;
        out.push(Output::StartTimer {
            after: self.cfg.aria.accept_window,
            timer: Timer::AcceptWindow { job },
        });
    }

    // --- timers ----------------------------------------------------------

    fn timer(&mut self, now: SimTime, timer: Timer, out: &mut Vec<Output>) {
        match timer {
            Timer::AcceptWindow { job } => self.close_window(now, job, out),
            Timer::RetryRequest { job, round } => {
                if !self.completed.contains(&job) && !self.pending.contains_key(&job) {
                    self.start_round(now, job, round, out);
                }
            }
            Timer::AssignTimeout { job, epoch } => self.assign_timeout(now, job, epoch, out),
            Timer::ExecutionComplete { job } => self.complete_execution(now, job, out),
            Timer::DispatchRetry => self.try_start(now, out),
            Timer::InformTick => self.inform_tick(now, out),
            Timer::Recover { job } => self.recover(now, job, out),
            Timer::HeartbeatTick => self.heartbeat_tick(now, out),
        }
    }

    fn close_window(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        let Some(pending) = self.pending.remove(&job) else {
            return;
        };
        // The best bidder may have been declared dead while the window
        // was open; fall back to the next-best live offer, then to the
        // ordinary empty-window retry path.
        let winner = match pending.best {
            Some((_cost, w)) if w == self.id || !self.is_dead(w) => Some(w),
            Some(_) => self.pop_live_offer(job, None).map(|(_, next)| next),
            None => None,
        };
        match winner {
            Some(winner) => {
                out.push(Output::Probe(ProbeEvent::Assigned {
                    job,
                    by: self.id,
                    to: winner,
                    reschedule: false,
                }));
                if winner == self.id {
                    self.enqueue_job(now, job, out);
                } else {
                    let spec = self.specs[&job];
                    self.arm_assign(job, winner, false, out);
                    out.push(Output::Send {
                        to: winner,
                        msg: LiveMsg::Assign { initiator: self.id, spec },
                    });
                }
            }
            None => match logic::next_round(pending.round, self.cfg.aria.max_request_rounds) {
                Some(round) => {
                    out.push(Output::Probe(ProbeEvent::RetryScheduled {
                        job,
                        initiator: self.id,
                        round,
                    }));
                    out.push(Output::StartTimer {
                        after: self.cfg.aria.request_retry,
                        timer: Timer::RetryRequest { job, round },
                    });
                }
                None => {
                    out.push(Output::Probe(ProbeEvent::JobAbandoned { job, initiator: self.id }));
                    out.push(Output::Abandoned { job });
                    self.retire(job);
                }
            },
        }
    }

    fn assign_timeout(&mut self, now: SimTime, job: JobId, epoch: u32, out: &mut Vec<Output>) {
        let Some(a) = self.armed.get(&job).copied() else {
            return; // ACKed, superseded, or recovered — stand down
        };
        if a.epoch != epoch {
            return; // a newer delegation owns the timer now
        }
        if self.completed.contains(&job) || self.holds(job) {
            self.armed.remove(&job);
            return;
        }
        // A dead assignee short-circuits the remaining retransmit
        // budget: the failure detector already out-waited any backoff,
        // so go straight to the recorded-offer fallback / failsafe.
        if !self.is_dead(a.to) && logic::may_retransmit(a.attempt, self.cfg.aria.assign_max_retries)
        {
            let attempt = a.attempt + 1;
            self.armed.insert(job, ArmedAssign { attempt, ..a });
            out.push(Output::Probe(ProbeEvent::AssignRetransmit { job, to: a.to, attempt }));
            let initiator = self.initiator_of.get(&job).copied().unwrap_or(self.id);
            let spec = self.specs[&job];
            out.push(Output::Send { to: a.to, msg: LiveMsg::Assign { initiator, spec } });
            out.push(Output::StartTimer {
                after: logic::assign_backoff(self.cfg.aria.assign_ack_timeout, attempt),
                timer: Timer::AssignTimeout { job, epoch },
            });
            return;
        }
        // Retries exhausted (or the target died): delegation abandoned.
        self.armed.remove(&job);
        self.delegation_failed(now, job, a.to, a.reschedule, out);
    }

    /// Pops the best recorded offer for `job` from a node that is not
    /// `exclude` and not declared dead (this node itself always counts
    /// as live).
    fn pop_live_offer(&mut self, job: JobId, exclude: Option<NodeId>) -> Option<(Cost, NodeId)> {
        let mut list = self.offers.remove(&job)?;
        let mut found = None;
        while let Some((cost, next)) = logic::pop_best_offer(&mut list) {
            if Some(next) != exclude && (next == self.id || !self.is_dead(next)) {
                found = Some((cost, next));
                break;
            }
        }
        self.offers.insert(job, list);
        found
    }

    /// The delegation of `job` to `failed` is abandoned (retransmit
    /// budget exhausted, or the target was declared dead): fall back to
    /// the next-best live recorded offer, then to the §III-D failsafe.
    fn delegation_failed(
        &mut self,
        now: SimTime,
        job: JobId,
        failed: NodeId,
        reschedule: bool,
        out: &mut Vec<Output>,
    ) {
        if self.completed.contains(&job) || self.settled.contains(&job) || self.holds(job) {
            return;
        }
        if let Some((_cost, next)) = self.pop_live_offer(job, Some(failed)) {
            out.push(Output::Probe(ProbeEvent::Assigned {
                job,
                by: self.id,
                to: next,
                reschedule,
            }));
            if next == self.id {
                self.enqueue_job(now, job, out);
            } else {
                let initiator = self.initiator_of.get(&job).copied().unwrap_or(self.id);
                let spec = self.specs[&job];
                self.arm_assign(job, next, reschedule, out);
                out.push(Output::Send { to: next, msg: LiveMsg::Assign { initiator, spec } });
            }
            return;
        }
        // No viable offer left: the failsafe is the last resort.
        if self.cfg.failsafe {
            out.push(Output::StartTimer {
                after: self.cfg.failsafe_detection,
                timer: Timer::Recover { job },
            });
        } else {
            out.push(Output::Probe(ProbeEvent::JobLost { job }));
            out.push(Output::Lost { job });
            self.retire(job);
        }
    }

    fn recover(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        if self.completed.contains(&job)
            || self.settled.contains(&job)
            || self.holds(job)
            || self.pending.contains_key(&job)
        {
            return; // demonstrably fine, or discovery already underway
        }
        match self.initiator_of.get(&job) {
            Some(&initiator) if initiator == self.id => {
                out.push(Output::Probe(ProbeEvent::RecoveryStarted { job, initiator }));
                self.start_round(now, job, 0, out);
            }
            _ => {
                out.push(Output::Probe(ProbeEvent::JobLost { job }));
                out.push(Output::Lost { job });
                self.retire(job);
            }
        }
    }

    // --- failure detection & membership ----------------------------------

    /// One detector sweep: demote silent peers (alive → suspect → dead,
    /// with the suspect probe always preceding the dead probe), recover
    /// delegations to the newly dead, then heartbeat every known peer —
    /// dead ones included, so a healed partition or restarted peer hears
    /// us and readmits both sides cheaply.
    fn heartbeat_tick(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let m = self.cfg.membership;
        if m.heartbeat_period.is_zero() {
            return;
        }
        let suspect_after = m.suspect_after();
        let dead_after = m.dead_after();
        let mut newly_dead = Vec::new();
        for (&peer, health) in self.membership.iter_mut() {
            if health.state == PeerState::Dead {
                continue;
            }
            let silent = now.saturating_since(health.last_seen);
            if silent >= dead_after {
                if health.state == PeerState::Alive {
                    out.push(Output::Probe(ProbeEvent::PeerSuspected { peer, by: self.id }));
                }
                health.state = PeerState::Dead;
                out.push(Output::Probe(ProbeEvent::PeerDead { peer, by: self.id }));
                newly_dead.push(peer);
            } else if silent >= suspect_after && health.state == PeerState::Alive {
                health.state = PeerState::Suspect;
                out.push(Output::Probe(ProbeEvent::PeerSuspected { peer, by: self.id }));
            }
        }
        for peer in newly_dead {
            self.peer_died(now, peer, out);
        }
        for &peer in self.membership.keys() {
            out.push(Output::Send { to: peer, msg: LiveMsg::Heartbeat { node: self.id } });
        }
        out.push(Output::StartTimer { after: m.heartbeat_period, timer: Timer::HeartbeatTick });
    }

    /// Any message from a peer proves it is alive: refresh its last-seen
    /// clock, readmit it if it was dead, admit it if it was unknown.
    fn note_alive(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        if peer == self.id {
            return;
        }
        match self.membership.get_mut(&peer) {
            Some(health) => {
                let was_dead = health.state == PeerState::Dead;
                health.last_seen = now;
                health.state = PeerState::Alive;
                if was_dead {
                    out.push(Output::Probe(ProbeEvent::PeerRejoined { peer, by: self.id }));
                }
            }
            None => {
                self.membership
                    .insert(peer, PeerHealth { last_seen: now, state: PeerState::Alive });
                out.push(Output::Probe(ProbeEvent::NodeJoined { node: peer }));
            }
        }
    }

    /// Declares a peer dead out of band (graceful `Leave`); the detector
    /// path goes through [`Self::heartbeat_tick`].
    fn mark_dead(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        let Some(health) = self.membership.get_mut(&peer) else {
            return;
        };
        if health.state == PeerState::Dead {
            return;
        }
        health.state = PeerState::Dead;
        out.push(Output::Probe(ProbeEvent::PeerDead { peer, by: self.id }));
        self.peer_died(now, peer, out);
    }

    /// A peer was declared dead: every delegation pointed at it is
    /// recovered now instead of waiting out retransmit/failsafe timers.
    fn peer_died(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        // Un-ACKed ASSIGNs armed at this node: immediate offer fallback.
        let armed_jobs: Vec<JobId> = self
            .armed
            .iter()
            .filter(|(_, a)| a.to == peer)
            .map(|(&job, _)| job)
            .collect();
        for job in armed_jobs {
            let a = self.armed.remove(&job).expect("collected above");
            self.delegation_failed(now, job, a.to, a.reschedule, out);
        }
        // ACKed delegations tracked by this initiator: failsafe now.
        let held: Vec<JobId> = self
            .delegated
            .iter()
            .filter(|&(_, &holder)| holder == peer)
            .map(|(&job, _)| job)
            .collect();
        for job in held {
            self.delegated.remove(&job);
            self.recover(now, job, out);
        }
    }

    fn is_dead(&self, node: NodeId) -> bool {
        self.membership.get(&node).is_some_and(|h| h.state == PeerState::Dead)
    }

    /// The job's executor reported completion: stop tracking it.
    fn settle(&mut self, job: JobId) {
        self.delegated.remove(&job);
        self.offers.remove(&job);
        if self.settled.insert(job) {
            self.retire(job);
        }
    }

    /// Marks a job terminal (completed, settled, lost or abandoned) and
    /// bounds per-job bookkeeping: the FIFO ring keeps the most recent
    /// [`Self::MAX_RETIRED`] terminal jobs — their completed/settled
    /// entries still suppress duplicates — and purges everything about
    /// jobs evicted past the window.
    fn retire(&mut self, job: JobId) {
        if self.retired_order.contains(&job) {
            return;
        }
        self.retired_order.push_back(job);
        if self.retired_order.len() > Self::MAX_RETIRED {
            if let Some(old) = self.retired_order.pop_front() {
                self.specs.remove(&old);
                self.initiator_of.remove(&old);
                self.pending.remove(&old);
                self.offers.remove(&old);
                self.armed.remove(&old);
                self.completed.remove(&old);
                self.delegated.remove(&old);
                self.settled.remove(&old);
            }
        }
    }

    fn inform_tick(&mut self, now: SimTime, out: &mut Vec<Output>) {
        if !self.cfg.aria.rescheduling {
            return;
        }
        let candidates = self.queue.inform_candidates(now, self.cfg.aria.inform_batch);
        for job in candidates {
            let Some(spec) = self.specs.get(&job).copied() else {
                continue;
            };
            let cost =
                self.queue.cost_of_waiting(job, now).expect("inform candidate has a cost");
            let flood = self.next_flood();
            out.push(Output::Probe(ProbeEvent::InformRound {
                job,
                node: self.id,
                flood: flood.seq,
                cost_ms: cost.as_millis(),
            }));
            // Known wire quirk: `forward` appends this node again, so an
            // originated INFORM goes out carrying `[self, self]`. The
            // benchmark's pinned `bytes=` figures depend on it; dropping
            // the duplicate is a deliberate re-pin, not a cleanup.
            let msg = LiveMsg::Inform {
                assignee: self.id,
                spec,
                cost,
                hops_left: self.cfg.aria.inform_hops,
                flood,
                visited: vec![self.id],
            };
            self.forward(msg, self.cfg.aria.inform_fanout, out);
        }
        out.push(Output::StartTimer {
            after: self.cfg.aria.inform_period,
            timer: Timer::InformTick,
        });
    }

    // --- message handling ------------------------------------------------

    fn message(&mut self, now: SimTime, from: NodeId, msg: LiveMsg, out: &mut Vec<Output>) {
        // Any inbound traffic is proof of life for its sender (a `Leave`
        // immediately overrides this below).
        self.note_alive(now, from, out);
        match msg {
            LiveMsg::Request { initiator, spec, hops_left, flood, visited } => {
                let fresh = self.record_flood(flood);
                out.push(Output::Probe(ProbeEvent::FloodHop {
                    kind: FloodKind::Request,
                    job: spec.id,
                    flood: flood.seq,
                    node: self.id,
                    hops_left,
                    duplicate: !fresh,
                }));
                if !fresh {
                    return;
                }
                let bids = logic::can_bid(&self.profile, self.queue.policy(), &spec);
                if bids {
                    let cost = self.queue.cost_of_candidate(&spec, now, &self.profile);
                    out.push(Output::Probe(ProbeEvent::BidSent {
                        kind: FloodKind::Request,
                        job: spec.id,
                        from: self.id,
                        to: initiator,
                        cost_ms: cost.as_millis(),
                    }));
                    out.push(Output::Send {
                        to: initiator,
                        msg: LiveMsg::Accept { from: self.id, job: spec.id, cost },
                    });
                }
                if logic::should_forward(bids, self.cfg.aria.forward_on_match, hops_left) {
                    let forwarded =
                        LiveMsg::Request { initiator, spec, hops_left: hops_left - 1, flood, visited };
                    self.forward(forwarded, self.cfg.aria.request_fanout, out);
                }
            }
            LiveMsg::Inform { assignee, spec, cost, hops_left, flood, visited } => {
                let fresh = self.record_flood(flood);
                out.push(Output::Probe(ProbeEvent::FloodHop {
                    kind: FloodKind::Inform,
                    job: spec.id,
                    flood: flood.seq,
                    node: self.id,
                    hops_left,
                    duplicate: !fresh,
                }));
                if !fresh {
                    return;
                }
                let bids = logic::can_bid(&self.profile, self.queue.policy(), &spec);
                if bids {
                    let my_cost = self.queue.cost_of_candidate(&spec, now, &self.profile);
                    if logic::undercuts(my_cost, cost, self.cfg.aria.reschedule_threshold) {
                        out.push(Output::Probe(ProbeEvent::BidSent {
                            kind: FloodKind::Inform,
                            job: spec.id,
                            from: self.id,
                            to: assignee,
                            cost_ms: my_cost.as_millis(),
                        }));
                        out.push(Output::Send {
                            to: assignee,
                            msg: LiveMsg::Accept { from: self.id, job: spec.id, cost: my_cost },
                        });
                    }
                }
                if logic::should_forward(bids, self.cfg.aria.forward_on_match, hops_left) {
                    let forwarded = LiveMsg::Inform {
                        assignee,
                        spec,
                        cost,
                        hops_left: hops_left - 1,
                        flood,
                        visited,
                    };
                    self.forward(forwarded, self.cfg.aria.inform_fanout, out);
                }
            }
            LiveMsg::Accept { from, job, cost } => self.accept(now, from, job, cost, out),
            LiveMsg::Assign { initiator, spec } => self.assigned(now, from, initiator, spec, out),
            LiveMsg::Ack { from, job } => {
                if let Some(a) = self.armed.get(&job) {
                    if a.to == from {
                        self.armed.remove(&job);
                        out.push(Output::Probe(ProbeEvent::AckReceived { job, from }));
                        // The initiator keeps tracking ACKed delegations
                        // until the executor's Done settles them, so a
                        // holder dying post-ACK is recoverable.
                        if self.initiator_of.get(&job) == Some(&self.id)
                            && !self.settled.contains(&job)
                            && !self.completed.contains(&job)
                        {
                            self.delegated.insert(job, from);
                        }
                    }
                }
            }
            LiveMsg::Join { node } => self.note_alive(now, node, out),
            LiveMsg::Leave { node } => self.mark_dead(now, node, out),
            LiveMsg::Heartbeat { .. } => {} // note_alive above did the work
            LiveMsg::Holding { job, node } => {
                // Holder update for a job this node initiated: failsafe
                // tracking follows the job through §III-D steals.
                if self.initiator_of.get(&job) == Some(&self.id)
                    && !self.settled.contains(&job)
                    && !self.completed.contains(&job)
                {
                    self.delegated.insert(job, node);
                }
            }
            LiveMsg::Submit { spec } => self.submit(now, spec, out),
            // The executor of a delegated job reports completion to the
            // job's initiator (Shutdown is intercepted by the runtime).
            LiveMsg::Done { job, .. } => self.settle(job),
            LiveMsg::Shutdown => {}
        }
    }

    fn accept(&mut self, now: SimTime, from: NodeId, job: JobId, cost: Cost, out: &mut Vec<Output>) {
        // Offer for a job this node initiated and is still collecting?
        if let Some(pending) = self.pending.get_mut(&job) {
            let better = logic::better_offer(pending.best, cost);
            if better {
                pending.best = Some((cost, from));
            }
            // Remember every offer: the retransmit-exhaustion fallback
            // pops the next best (always on, live transports are lossy).
            self.offers.entry(job).or_default().push((cost, from));
            out.push(Output::Probe(ProbeEvent::OfferReceived {
                job,
                initiator: self.id,
                from,
                cost_ms: cost.as_millis(),
                best: better,
            }));
            return;
        }
        // Otherwise: a rescheduling offer for a job this node holds.
        if !self.cfg.aria.rescheduling {
            return;
        }
        let Some(current) = self.queue.cost_of_waiting(job, now) else {
            return; // already moved, started, or never here: stale offer
        };
        if !logic::undercuts(cost, current, self.cfg.aria.reschedule_threshold) {
            return; // conditions changed; the move no longer pays off
        }
        self.queue.remove_waiting(job).expect("cost_of_waiting implies waiting");
        let initiator = self.initiator_of.get(&job).copied().unwrap_or(self.id);
        let spec = self.specs[&job];
        out.push(Output::Probe(ProbeEvent::Assigned {
            job,
            by: self.id,
            to: from,
            reschedule: true,
        }));
        self.offers.insert(job, Vec::new());
        self.arm_assign(job, from, true, out);
        out.push(Output::Send { to: from, msg: LiveMsg::Assign { initiator, spec } });
    }

    /// Delivers an ASSIGN idempotently and always ACKs: a duplicate (the
    /// job is already queued, running or completed here, or this node
    /// reopened discovery for it) is suppressed instead of
    /// double-enqueued, and the re-ACK stands the assigner's retransmit
    /// timer down even when the original ACK was lost.
    fn assigned(
        &mut self,
        now: SimTime,
        from: NodeId,
        initiator: NodeId,
        spec: JobSpec,
        out: &mut Vec<Output>,
    ) {
        let job = spec.id;
        self.specs.insert(job, spec);
        self.initiator_of.insert(job, initiator);
        if self.completed.contains(&job)
            || self.settled.contains(&job)
            || self.pending.contains_key(&job)
            || self.holds(job)
        {
            out.push(Output::Probe(ProbeEvent::DuplicateSuppressed {
                kind: MsgKind::Assign,
                job,
                node: self.id,
            }));
            out.push(Output::Send { to: from, msg: LiveMsg::Ack { from: self.id, job } });
            return;
        }
        self.enqueue_job(now, job, out);
        out.push(Output::Send { to: from, msg: LiveMsg::Ack { from: self.id, job } });
        if initiator != self.id && initiator != from {
            // A steal moved the job here without the initiator in the
            // loop: tell it who holds the job now.
            out.push(Output::Send {
                to: initiator,
                msg: LiveMsg::Holding { job, node: self.id },
            });
        }
    }

    // --- local execution -------------------------------------------------

    fn enqueue_job(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        let spec = self.specs[&job];
        self.queue.enqueue(spec, now, &self.profile);
        out.push(Output::Probe(ProbeEvent::Enqueued {
            job,
            node: self.id,
            depth: self.queue.waiting_len() as u32,
        }));
        self.try_start(now, out);
    }

    fn try_start(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let Some(running) = self.queue.start_next(now) else {
            if let Some(at) = self.queue.next_dispatch_at(now) {
                out.push(Output::StartTimer {
                    after: at.saturating_since(now),
                    timer: Timer::DispatchRetry,
                });
            }
            return;
        };
        let job = running.spec.id;
        // Live nodes "execute" for the profile-scaled expected running
        // time: there is no ART error model on a real node — the actual
        // time is whatever the execution takes.
        let runtime = running.expected_end.saturating_since(running.started_at);
        out.push(Output::Probe(ProbeEvent::Started { job, node: self.id }));
        out.push(Output::StartTimer { after: runtime, timer: Timer::ExecutionComplete { job } });
    }

    fn complete_execution(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        let finished = self.queue.complete_running().expect("completion timer for running job");
        debug_assert_eq!(finished.spec.id, job, "completion timer job mismatch");
        self.completed.insert(job);
        self.offers.remove(&job);
        out.push(Output::Probe(ProbeEvent::Completed { job, node: self.id }));
        out.push(Output::Completed { job });
        // Tell the initiator so it stops tracking the delegation (and
        // never tries to recover an already-finished job).
        if let Some(&initiator) = self.initiator_of.get(&job) {
            if initiator != self.id {
                out.push(Output::Send {
                    to: initiator,
                    msg: LiveMsg::Done { job, node: self.id },
                });
            }
        }
        self.retire(job);
        self.try_start(now, out);
    }

    // --- flood plumbing --------------------------------------------------

    fn next_flood(&mut self) -> FloodUid {
        let flood = FloodUid { origin: self.id, seq: self.flood_seq };
        self.flood_seq = self.flood_seq.wrapping_add(1);
        self.record_flood(flood);
        flood
    }

    /// Marks a flood as seen; returns `true` when it was fresh.
    fn record_flood(&mut self, flood: FloodUid) -> bool {
        if !self.seen.insert(flood) {
            return false;
        }
        self.seen_order.push_back(flood);
        if self.seen_order.len() > Self::MAX_SEEN {
            if let Some(evicted) = self.seen_order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }

    /// Forwards a flood message to up to `fanout` random neighbors not
    /// yet visited (selective flooding, \[28\]). `msg` carries the
    /// incoming copy's visited list; the outgoing copies carry it
    /// extended with this node, bounded by [`Self::MAX_VISITED`]. Every
    /// target but the last gets a clone; the last gets `msg` itself.
    fn forward(&mut self, mut msg: LiveMsg, fanout: usize, out: &mut Vec<Output>) {
        let visited = match &mut msg {
            LiveMsg::Request { visited, .. } | LiveMsg::Inform { visited, .. } => visited,
            _ => unreachable!("only REQUEST/INFORM flood"),
        };
        let mut targets = std::mem::take(&mut self.scratch);
        targets.clear();
        targets.extend(
            self.neighbors
                .iter()
                .copied()
                .filter(|n| *n != self.id && !visited.contains(n) && !self.is_dead(*n)),
        );
        self.rng.sample_in_place(&mut targets, fanout);
        if let Some((&last, rest)) = targets.split_last() {
            if visited.len() < Self::MAX_VISITED {
                visited.push(self.id);
            }
            for &target in rest {
                out.push(Output::Send { to: target, msg: msg.clone() });
            }
            out.push(Output::Send { to: last, msg });
        }
        self.scratch = targets;
    }

    /// Arms the ACK/retransmit machinery for an ASSIGN about to be sent.
    fn arm_assign(&mut self, job: JobId, to: NodeId, reschedule: bool, out: &mut Vec<Output>) {
        self.assign_epoch = self.assign_epoch.wrapping_add(1);
        let epoch = self.assign_epoch;
        self.armed.insert(job, ArmedAssign { to, attempt: 0, epoch, reschedule });
        out.push(Output::StartTimer {
            after: self.cfg.aria.assign_ack_timeout,
            timer: Timer::AssignTimeout { job, epoch },
        });
    }

    /// Whether this node currently holds the job (waiting or running).
    fn holds(&self, job: JobId) -> bool {
        self.queue.is_waiting(job)
            || self.queue.running().is_some_and(|r| r.spec.id == job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem, PerfIndex};
    use aria_sim::EventQueue;

    /// A queued cluster event; the queue orders it by (time, sequence).
    struct Ev {
        node: usize,
        /// Process-incarnation stamp: events queued for an earlier
        /// incarnation of `node` are dropped (a SIGKILL loses timers
        /// and in-flight datagrams alike).
        epoch: u32,
        input: Input,
    }

    fn profile(perf: f64) -> NodeProfile {
        NodeProfile::new(
            Architecture::Amd64,
            OperatingSystem::Linux,
            64,
            1000,
            PerfIndex::new(perf).unwrap(),
        )
    }

    fn spec(id: u64, mins: u64) -> JobSpec {
        JobSpec::batch(
            JobId::new(id),
            JobRequirements {
                arch: Architecture::Amd64,
                os: OperatingSystem::Linux,
                min_memory_gb: 1,
                min_disk_gb: 1,
            },
            SimDuration::from_mins(mins),
        )
    }

    /// A deterministic in-memory cluster: N drivers, one global
    /// time-ordered queue carrying messages (fixed link latency) and
    /// timers. This is exactly the live runtime's event loop with the
    /// socket and clock replaced by the queue — the harness the
    /// loopback test then runs over real UDP.
    struct Cluster {
        drivers: Vec<NodeDriver>,
        queue: EventQueue<Ev>,
        now: SimTime,
        /// Process liveness per node: a killed node receives nothing and
        /// fires no timers until restarted.
        alive: Vec<bool>,
        /// Incarnation counter per node; bumped on restart.
        epoch: Vec<u32>,
        completed: Vec<(JobId, NodeId)>,
        lost: Vec<JobId>,
        abandoned: Vec<JobId>,
        assigned: Vec<(JobId, NodeId, bool)>,
        retransmits: u32,
        /// Membership probe events: (observing node, event).
        membership_events: Vec<(NodeId, ProbeEvent)>,
        /// Non-heartbeat sends addressed to currently-dead processes
        /// (resettable; exclusion tests zero it after detection).
        sends_to_down: u32,
        /// Drop the first ASSIGN copy addressed to each entry.
        drop_first_assign_to: Vec<NodeId>,
        /// Every `Send` the drivers emitted, folded in order.
        sends: SendDigest,
    }

    /// An order-sensitive digest of a stream of `Output::Send`s: FNV-1a
    /// 64 over each send's target, kind and, for floods, flood id, hop
    /// budget and visited list.
    #[derive(Debug)]
    struct SendDigest {
        count: u64,
        informs: u64,
        visited_entries: u64,
        hash: u64,
    }

    impl SendDigest {
        fn new() -> Self {
            SendDigest { count: 0, informs: 0, visited_entries: 0, hash: 0xcbf2_9ce4_8422_2325 }
        }

        fn word(&mut self, word: u64) {
            for b in word.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn fold(&mut self, to: NodeId, msg: &LiveMsg) {
            self.word(u64::from(to.raw()));
            self.word(msg.kind() as u64);
            self.count += 1;
            if let LiveMsg::Request { hops_left, flood, visited, .. }
            | LiveMsg::Inform { hops_left, flood, visited, .. } = msg
            {
                self.informs += u64::from(matches!(msg, LiveMsg::Inform { .. }));
                self.word(u64::from(flood.origin.raw()));
                self.word(u64::from(flood.seq));
                self.word(u64::from(*hops_left));
                self.visited_entries += visited.len() as u64;
                for node in visited {
                    self.word(u64::from(node.raw()));
                }
            }
        }
    }

    impl Cluster {
        const LATENCY: SimDuration = SimDuration::from_millis(5);

        fn new(n: u32, cfg: DriverConfig) -> Self {
            let drivers = (0..n).map(|i| Self::make_driver(n, i, cfg, 1000 + u64::from(i))).collect();
            Cluster {
                drivers,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                alive: vec![true; n as usize],
                epoch: vec![0; n as usize],
                completed: Vec::new(),
                lost: Vec::new(),
                abandoned: Vec::new(),
                assigned: Vec::new(),
                retransmits: 0,
                membership_events: Vec::new(),
                sends_to_down: 0,
                drop_first_assign_to: Vec::new(),
                sends: SendDigest::new(),
            }
        }

        fn make_driver(n: u32, i: u32, cfg: DriverConfig, seed: u64) -> NodeDriver {
            // Ring + full peer list: every node forwards along a couple
            // of neighbors, floods seed anywhere.
            let peers: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            let neighbors = vec![
                NodeId::new((i + 1) % n),
                NodeId::new((i + n - 1) % n),
                NodeId::new((i + 2) % n),
            ];
            NodeDriver::new(
                NodeId::new(i),
                profile(1.0 + f64::from(i % 2) * 0.5),
                Policy::Fcfs,
                cfg,
                seed,
                peers,
                neighbors,
            )
        }

        fn push(&mut self, at: SimTime, node: usize, input: Input) {
            self.queue.schedule(at, Ev { node, epoch: self.epoch[node], input });
        }

        fn submit(&mut self, at: SimTime, node: u32, spec: JobSpec) {
            self.push(at, node as usize, Input::Submit(spec));
        }

        fn start(&mut self) {
            for i in 0..self.drivers.len() {
                let outputs = self.drivers[i].start(self.now);
                self.apply(i, outputs);
            }
        }

        /// SIGKILL analog: the node stops processing anything. Queued
        /// events addressed to it die with the incarnation.
        fn kill(&mut self, node: usize) {
            self.alive[node] = false;
        }

        /// Restart analog: a fresh driver (empty state, new RNG stream)
        /// boots at `at` under the same node id.
        fn restart(&mut self, at: SimTime, node: usize, cfg: DriverConfig, seed: u64) {
            let n = self.drivers.len() as u32;
            self.drivers[node] = Self::make_driver(n, node as u32, cfg, seed);
            self.alive[node] = true;
            self.epoch[node] = self.epoch[node].wrapping_add(1);
            let prev = self.now;
            self.now = at;
            let outputs = self.drivers[node].start(at);
            self.apply(node, outputs);
            self.now = prev.max(at);
        }

        fn apply(&mut self, node: usize, outputs: Vec<Output>) {
            let now = self.now;
            for output in outputs {
                match output {
                    Output::Send { to, msg } => {
                        self.sends.fold(to, &msg);
                        if matches!(msg, LiveMsg::Assign { .. }) {
                            if let Some(slot) =
                                self.drop_first_assign_to.iter().position(|&n| n == to)
                            {
                                self.drop_first_assign_to.remove(slot);
                                continue; // injected loss: first copy gone
                            }
                        }
                        if !self.alive[to.index()]
                            && !matches!(
                                msg,
                                LiveMsg::Heartbeat { .. } | LiveMsg::Join { .. } | LiveMsg::Done { .. }
                            )
                        {
                            self.sends_to_down += 1;
                        }
                        let from = self.drivers[node].id();
                        self.push(
                            now + Self::LATENCY,
                            to.index(),
                            Input::Msg { from, msg },
                        );
                    }
                    Output::StartTimer { after, timer } => {
                        self.push(now + after, node, Input::Timer(timer));
                    }
                    Output::Probe(ev) => {
                        if let ProbeEvent::Assigned { job, to, reschedule, .. } = ev {
                            self.assigned.push((job, to, reschedule));
                        }
                        if let ProbeEvent::AssignRetransmit { .. } = ev {
                            self.retransmits += 1;
                        }
                        if matches!(
                            ev,
                            ProbeEvent::PeerSuspected { .. }
                                | ProbeEvent::PeerDead { .. }
                                | ProbeEvent::PeerRejoined { .. }
                        ) {
                            self.membership_events.push((self.drivers[node].id(), ev));
                        }
                    }
                    Output::Completed { job } => {
                        self.completed.push((job, self.drivers[node].id()));
                    }
                    Output::Lost { job } => self.lost.push(job),
                    Output::Abandoned { job } => self.abandoned.push(job),
                }
            }
        }

        /// Drains the queue up to `horizon`; events scheduled past it
        /// stay queued for a later `run` call. Events addressed to a
        /// dead process, or to a node that restarted since they were
        /// queued, are dropped.
        fn run(&mut self, horizon: SimTime) {
            while let Some((at, Ev { node, epoch, input })) = self.queue.pop_due(horizon) {
                if !self.alive[node] || self.epoch[node] != epoch {
                    continue;
                }
                self.now = at;
                let outputs = self.drivers[node].handle(at, input);
                self.apply(node, outputs);
            }
            self.now = self.now.max(horizon);
        }

        fn saw_membership_event(&self, by: u32, want: &ProbeEvent) -> bool {
            self.membership_events
                .iter()
                .any(|(observer, ev)| observer.index() == by as usize && ev == want)
        }
    }

    fn fast_cfg() -> DriverConfig {
        DriverConfig {
            aria: AriaConfig {
                accept_window: SimDuration::from_millis(300),
                request_retry: SimDuration::from_secs(2),
                assign_ack_timeout: SimDuration::from_millis(200),
                ..AriaConfig::default()
            },
            failsafe: true,
            failsafe_detection: SimDuration::from_secs(2),
            membership: MembershipConfig::default(),
        }
    }

    /// `fast_cfg` with an aggressive failure detector: suspect after
    /// 1.5 s of silence, dead after 4 s.
    fn churn_cfg() -> DriverConfig {
        DriverConfig {
            membership: MembershipConfig {
                heartbeat_period: SimDuration::from_millis(500),
                suspect_misses: 3,
                dead_misses: 8,
            },
            ..fast_cfg()
        }
    }

    #[test]
    fn cluster_completes_every_job_exactly_once() {
        let mut cluster = Cluster::new(5, fast_cfg());
        cluster.start();
        for j in 0..10u64 {
            cluster.submit(SimTime::from_millis(j * 50), (j % 5) as u32, spec(j, 5));
        }
        cluster.run(SimTime::from_hours(2));
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        assert!(cluster.abandoned.is_empty(), "abandoned: {:?}", cluster.abandoned);
        let mut done: Vec<u64> = cluster.completed.iter().map(|(j, _)| j.raw()).collect();
        done.sort_unstable();
        assert_eq!(done, (0..10).collect::<Vec<_>>(), "exactly-once completion");
    }

    /// Golden: every message a small rescheduling cluster sends — target,
    /// kind, flood id, hop budget and each visited entry, in order — is
    /// pinned. A change to how floods carry their visited lists, or to
    /// any RNG draw behind fan-out sampling, moves this digest.
    #[test]
    fn golden_cluster_sends() {
        // Bidders keep forwarding, so floods travel past the first hop.
        let mut cfg = fast_cfg();
        cfg.aria.forward_on_match = true;
        let mut cluster = Cluster::new(5, cfg);
        cluster.start();
        for j in 0..10u64 {
            cluster.submit(SimTime::from_secs(j * 20), (j % 5) as u32, spec(j, 30));
        }
        cluster.run(SimTime::from_hours(2));
        assert_eq!(cluster.completed.len(), 10);
        let d = &cluster.sends;
        assert_eq!(
            (d.count, d.informs, d.visited_entries, d.hash),
            (144_476, 268, 1054, 0x5c6e_1efd_8f6a_47c7)
        );
    }

    /// Node 0 with five neighbours (1–5), of which 3 is declared dead;
    /// the test requests carry neighbour 2 in their visited list. It
    /// forwards REQUESTs even though it can bid on them.
    fn forwarding_driver(fanout: usize, seed: u64) -> NodeDriver {
        let mut cfg = fast_cfg();
        cfg.aria.request_fanout = fanout;
        cfg.aria.forward_on_match = true;
        let peers: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let neighbors = [1, 2, 3, 4, 5].map(NodeId::new).to_vec();
        let mut driver =
            NodeDriver::new(NodeId::new(0), profile(1.0), Policy::Fcfs, cfg, seed, peers, neighbors);
        let leave = LiveMsg::Leave { node: NodeId::new(3) };
        driver.handle(SimTime::ZERO, Input::Msg { from: NodeId::new(3), msg: leave });
        driver
    }

    fn request(seq: u32, visited: Vec<NodeId>) -> LiveMsg {
        LiveMsg::Request {
            initiator: NodeId::new(9),
            spec: spec(1, 5),
            hops_left: 4,
            flood: FloodUid { origin: NodeId::new(9), seq },
            visited,
        }
    }

    /// The flood copies `handle` emits for a delivered REQUEST.
    fn forwarded(driver: &mut NodeDriver, msg: LiveMsg) -> Vec<(NodeId, Vec<NodeId>, u32)> {
        let out = driver.handle(SimTime::ZERO, Input::Msg { from: NodeId::new(9), msg });
        out.into_iter()
            .filter_map(|o| match o {
                Output::Send { to, msg: LiveMsg::Request { visited, hops_left, .. } } => {
                    Some((to, visited, hops_left))
                }
                _ => None,
            })
            .collect()
    }

    /// `forward`'s contract: up to `fanout` copies, each to a distinct
    /// live neighbour that is neither this node nor in the incoming
    /// visited list, each carrying that list extended with this node
    /// (unchanged once it is full) and one hop less.
    #[test]
    fn forward_extends_visited_and_skips_visited_self_and_dead() {
        let me = NodeId::new(0);
        let v = vec![NodeId::new(9), NodeId::new(2)];
        for seed in 0..8 {
            let mut driver = forwarding_driver(2, seed);
            let copies = forwarded(&mut driver, request(seed as u32, v.clone()));
            assert_eq!(copies.len(), 2, "seed {seed}: fan-out 2 of three candidates");
            assert_ne!(copies[0].0, copies[1].0, "seed {seed}: targets are distinct");
            for (to, visited, hops_left) in &copies {
                assert!(!v.contains(to) && *to != me, "seed {seed}: sent to visited {to:?}");
                assert_ne!(*to, NodeId::new(3), "seed {seed}: sent to the dead neighbour");
                assert_eq!(*visited, [v.as_slice(), &[me]].concat());
                assert_eq!(*hops_left, 3);
            }
        }
        // Fan-out above the candidate count sends one copy per candidate.
        let mut driver = forwarding_driver(4, 1);
        let mut targets: Vec<NodeId> =
            forwarded(&mut driver, request(0, v.clone())).into_iter().map(|c| c.0).collect();
        targets.sort();
        assert_eq!(targets, [1, 4, 5].map(NodeId::new));
        // A full list travels on unchanged.
        let full: Vec<NodeId> =
            (0..NodeDriver::MAX_VISITED as u32).map(|i| NodeId::new(100 + i)).collect();
        let mut driver = forwarding_driver(2, 1);
        let copies = forwarded(&mut driver, request(0, full.clone()));
        assert_eq!(copies.len(), 2);
        assert!(copies.iter().all(|(_, visited, _)| *visited == full));
    }

    /// A freshly originated INFORM carries its origin twice (`[self,
    /// self]`): the known wire quirk documented at `inform_tick`.
    #[test]
    fn originated_inform_carries_its_origin_twice() {
        let mut driver = forwarding_driver(2, 1);
        let now = SimTime::from_secs(1);
        // A waiting job behind a running one is an INFORM candidate.
        for j in 0..2 {
            let assign = LiveMsg::Assign { initiator: NodeId::new(0), spec: spec(j, 30) };
            driver.handle(now, Input::Msg { from: NodeId::new(1), msg: assign });
        }
        let out = driver.handle(now, Input::Timer(Timer::InformTick));
        let me = NodeId::new(0);
        let visited: Vec<&Vec<NodeId>> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send { msg: LiveMsg::Inform { visited, .. }, .. } => Some(visited),
                _ => None,
            })
            .collect();
        assert_eq!(visited.len(), 2, "inform fan-out 2");
        assert!(visited.iter().all(|v| **v == [me, me]));
    }

    /// The initial-assignment decision matches the simulator's: the
    /// winner of a discovery round quotes the global minimum cost among
    /// reachable bidders (ties break to the earliest offer, exactly
    /// [`logic::better_offer`]'s rule — the same kernel `World` calls).
    #[test]
    fn winner_quotes_the_minimum_cost() {
        let mut cluster = Cluster::new(5, fast_cfg());
        cluster.start();
        // Load nodes 0-3 with local work so their quotes differ; node 4
        // stays idle and must win the later submission.
        for j in 0..4u64 {
            cluster.submit(SimTime::ZERO, j as u32, spec(j, 30));
        }
        cluster.run(SimTime::from_secs(10));
        let probe_spec = spec(99, 5);
        let quotes: Vec<(Cost, NodeId)> = cluster
            .drivers
            .iter()
            .map(|d| {
                (
                    d.queue.cost_of_candidate(&probe_spec, cluster.now, &d.profile),
                    d.id(),
                )
            })
            .collect();
        let best = quotes.iter().map(|&(c, _)| c).min().unwrap();
        let at = cluster.now;
        cluster.assigned.clear();
        cluster.submit(at, 0, probe_spec);
        cluster.run(SimTime::from_hours(2));
        let (_job, winner, _) = cluster
            .assigned
            .iter()
            .find(|(j, _, _)| j.raw() == 99)
            .copied()
            .expect("job 99 was assigned");
        let (winner_cost, _) = quotes.iter().find(|&&(_, id)| id == winner).unwrap();
        assert_eq!(
            *winner_cost, best,
            "assignment went to {winner:?} quoting {winner_cost}, but the minimum was {best}"
        );
    }

    #[test]
    fn dropped_assign_retransmits_and_still_completes() {
        let mut cluster = Cluster::new(5, fast_cfg());
        cluster.start();
        // Make node 0 busy so the job is delegated remotely, then drop
        // the first ASSIGN copy to every possible winner.
        cluster.submit(SimTime::ZERO, 0, spec(0, 60));
        cluster.run(SimTime::from_secs(5));
        cluster.drop_first_assign_to = (0..5).map(NodeId::new).collect();
        let at = cluster.now;
        cluster.submit(at, 0, spec(1, 5));
        cluster.run(SimTime::from_hours(3));
        assert!(cluster.retransmits >= 1, "the lost ASSIGN must retransmit");
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        assert!(
            cluster.completed.iter().any(|(j, _)| j.raw() == 1),
            "job 1 completes after the retransmit"
        );
    }

    #[test]
    fn duplicate_assign_is_suppressed_and_reacked() {
        let cfg = fast_cfg();
        let peers = vec![NodeId::new(0), NodeId::new(1)];
        let mut driver = NodeDriver::new(
            NodeId::new(1),
            profile(1.0),
            Policy::Fcfs,
            cfg,
            7,
            peers.clone(),
            peers,
        );
        let s = spec(3, 10);
        let assign = LiveMsg::Assign { initiator: NodeId::new(0), spec: s };
        let now = SimTime::from_secs(1);
        let first =
            driver.handle(now, Input::Msg { from: NodeId::new(0), msg: assign.clone() });
        assert!(first.iter().any(|o| matches!(o, Output::Send { msg: LiveMsg::Ack { .. }, .. })));
        assert!(first
            .iter()
            .any(|o| matches!(o, Output::Probe(ProbeEvent::Enqueued { .. }))));
        let dup = driver.handle(now, Input::Msg { from: NodeId::new(0), msg: assign });
        assert!(dup
            .iter()
            .any(|o| matches!(o, Output::Probe(ProbeEvent::DuplicateSuppressed { .. }))));
        assert!(dup.iter().any(|o| matches!(o, Output::Send { msg: LiveMsg::Ack { .. }, .. })));
        assert!(
            !dup.iter().any(|o| matches!(o, Output::Probe(ProbeEvent::Enqueued { .. }))),
            "duplicate must not double-enqueue"
        );
    }

    #[test]
    fn flood_dedup_is_bounded() {
        let cfg = DriverConfig::default();
        let peers = vec![NodeId::new(0)];
        let mut driver =
            NodeDriver::new(NodeId::new(0), profile(1.0), Policy::Fcfs, cfg, 7, peers.clone(), peers);
        let total = NodeDriver::MAX_SEEN as u32 + 100;
        for i in 0..total {
            driver.record_flood(FloodUid { origin: NodeId::new(9), seq: i });
        }
        assert_eq!(driver.seen.len(), NodeDriver::MAX_SEEN);
        assert_eq!(driver.seen_order.len(), NodeDriver::MAX_SEEN);
        // Every flood inside the retention window still dedups — no
        // false re-forward of anything recent.
        for i in 100..total {
            assert!(
                !driver.record_flood(FloodUid { origin: NodeId::new(9), seq: i }),
                "flood {i} inside the retention window must still dedup"
            );
        }
        // ...and the bound held through the re-checks.
        assert_eq!(driver.seen.len(), NodeDriver::MAX_SEEN);
    }

    /// Terminal-job bookkeeping (specs, completions, delegation state)
    /// is bounded by [`NodeDriver::MAX_RETIRED`]: a soak that executes
    /// far more jobs than the ring holds can't grow memory without
    /// bound, yet recent jobs still suppress duplicate ASSIGNs.
    #[test]
    fn job_bookkeeping_is_bounded() {
        let cfg = fast_cfg();
        let peers = vec![NodeId::new(0), NodeId::new(1)];
        let mut driver = NodeDriver::new(
            NodeId::new(1),
            profile(1.0),
            Policy::Fcfs,
            cfg,
            7,
            peers.clone(),
            peers,
        );
        let total = NodeDriver::MAX_RETIRED as u64 + 500;
        let mut now = SimTime::ZERO;
        for j in 0..total {
            now += SimDuration::from_secs(1);
            let assign = LiveMsg::Assign { initiator: NodeId::new(0), spec: spec(j, 1) };
            let out = driver.handle(now, Input::Msg { from: NodeId::new(0), msg: assign });
            // Fire the execution-complete timer the enqueue scheduled.
            let timers: Vec<Timer> = out
                .iter()
                .filter_map(|o| match o {
                    Output::StartTimer { timer: t @ Timer::ExecutionComplete { .. }, .. } => {
                        Some(*t)
                    }
                    _ => None,
                })
                .collect();
            for t in timers {
                now += SimDuration::from_mins(2);
                driver.handle(now, Input::Timer(t));
            }
        }
        let cap = NodeDriver::MAX_RETIRED + 1;
        assert!(driver.specs.len() <= cap, "specs grew to {}", driver.specs.len());
        assert!(driver.completed.len() <= cap, "completed grew to {}", driver.completed.len());
        assert!(
            driver.initiator_of.len() <= cap,
            "initiator_of grew to {}",
            driver.initiator_of.len()
        );
        // A recent job (inside the ring) still dedups on re-delivery.
        let recent = total - 1;
        let dup = driver.handle(
            now,
            Input::Msg {
                from: NodeId::new(0),
                msg: LiveMsg::Assign { initiator: NodeId::new(0), spec: spec(recent, 1) },
            },
        );
        assert!(
            dup.iter()
                .any(|o| matches!(o, Output::Probe(ProbeEvent::DuplicateSuppressed { .. }))),
            "recently retired job must still suppress duplicates"
        );
    }

    // --- churn: failure detection, exclusion, rejoin ----------------------

    /// A SIGKILLed node is suspected, then declared dead, by every
    /// survivor; afterwards no REQUEST flood or ASSIGN is addressed to
    /// the corpse and the surviving cluster still completes everything.
    #[test]
    fn killed_node_is_declared_dead_and_excluded() {
        let mut cluster = Cluster::new(5, churn_cfg());
        cluster.start();
        cluster.run(SimTime::from_secs(2));
        cluster.kill(4);
        // dead_after = 4s; give the sweep plenty of slack.
        cluster.run(SimTime::from_secs(12));
        let victim = NodeId::new(4);
        for by in 0..4u32 {
            let observer = NodeId::new(by);
            assert!(
                cluster.saw_membership_event(
                    by,
                    &ProbeEvent::PeerSuspected { peer: victim, by: observer }
                ),
                "node {by} never suspected the victim"
            );
            assert!(
                cluster
                    .saw_membership_event(by, &ProbeEvent::PeerDead { peer: victim, by: observer }),
                "node {by} never declared the victim dead"
            );
        }
        // From here on, protocol traffic must avoid the corpse.
        cluster.sends_to_down = 0;
        let at = cluster.now;
        for j in 0..6u64 {
            cluster.submit(at + SimDuration::from_millis(j * 50), (j % 4) as u32, spec(j, 5));
        }
        cluster.run(at + SimDuration::from_hours(2));
        assert_eq!(
            cluster.sends_to_down, 0,
            "protocol traffic was addressed to a node already declared dead"
        );
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        assert!(cluster.abandoned.is_empty(), "abandoned: {:?}", cluster.abandoned);
        let mut done: Vec<u64> = cluster.completed.iter().map(|(j, _)| j.raw()).collect();
        done.sort_unstable();
        assert_eq!(done, (0..6).collect::<Vec<_>>(), "exactly-once completion");
        assert!(
            cluster.completed.iter().all(|&(_, on)| on != victim),
            "a dead node completed work"
        );
    }

    /// The assignee dies *after* ACKing: the initiator's failure
    /// detector notices, recovers the delegation (§III-D path), and the
    /// job completes elsewhere exactly once.
    #[test]
    fn killed_assignee_recovers_via_peer_death() {
        let mut cluster = Cluster::new(3, churn_cfg());
        cluster.start();
        cluster.run(SimTime::from_secs(1));
        // Saturate every node with a long job; the fast node (1, perf
        // 1.5) then quotes the lowest completion time for the short
        // job, so node 0 must delegate it remotely.
        let at = cluster.now;
        for j in 0..3u64 {
            cluster.submit(at + SimDuration::from_millis(j * 500), 0, spec(100 + j, 60));
        }
        cluster.run(at + SimDuration::from_secs(3));
        let at = cluster.now;
        cluster.submit(at, 0, spec(1, 5));
        cluster.run(at + SimDuration::from_secs(2));
        let (_j, assignee, _) = cluster
            .assigned
            .iter()
            .find(|(j, _, _)| j.raw() == 1)
            .copied()
            .expect("job 1 was assigned");
        assert_ne!(assignee, NodeId::new(0), "job 1 should have been delegated");
        cluster.kill(assignee.index());
        cluster.run(cluster.now + SimDuration::from_hours(3));
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        let finishers: Vec<NodeId> = cluster
            .completed
            .iter()
            .filter(|(j, _)| j.raw() == 1)
            .map(|&(_, on)| on)
            .collect();
        assert_eq!(finishers.len(), 1, "job 1 must complete exactly once: {finishers:?}");
        assert_ne!(finishers[0], assignee, "the dead assignee can't have finished it");
    }

    /// A restarted node rejoins: every survivor emits `peer-rejoined`,
    /// and the fresh incarnation receives (and completes) new work.
    #[test]
    fn restarted_node_rejoins_and_receives_work() {
        let mut cluster = Cluster::new(5, churn_cfg());
        cluster.start();
        cluster.run(SimTime::from_secs(2));
        cluster.kill(4);
        cluster.run(SimTime::from_secs(12));
        let victim = NodeId::new(4);
        for by in 0..4u32 {
            assert!(
                cluster
                    .saw_membership_event(by, &ProbeEvent::PeerDead { peer: victim, by: NodeId::new(by) }),
                "node {by} never declared the victim dead"
            );
        }
        cluster.restart(SimTime::from_secs(12), 4, churn_cfg(), 9004);
        cluster.run(SimTime::from_secs(16));
        for by in 0..4u32 {
            assert!(
                cluster.saw_membership_event(
                    by,
                    &ProbeEvent::PeerRejoined { peer: victim, by: NodeId::new(by) }
                ),
                "node {by} never readmitted the restarted victim"
            );
        }
        // New work flows to the rejoined node: long jobs submitted at a
        // 1 s spacing saturate nodes 0-3 so node 4 must win some.
        let at = cluster.now;
        for j in 0..6u64 {
            cluster.submit(at + SimDuration::from_secs(j), (j % 4) as u32, spec(j, 10));
        }
        cluster.run(at + SimDuration::from_hours(2));
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        assert!(cluster.abandoned.is_empty(), "abandoned: {:?}", cluster.abandoned);
        let mut done: Vec<u64> = cluster.completed.iter().map(|(j, _)| j.raw()).collect();
        done.sort_unstable();
        assert_eq!(done, (0..6).collect::<Vec<_>>(), "exactly-once completion");
        assert!(
            cluster.completed.iter().any(|&(_, on)| on == victim),
            "the rejoined node never received work: {:?}",
            cluster.completed
        );
    }

    /// An ASSIGN in flight to a peer the detector later declares dead
    /// must not burn the whole retransmit budget: peer-death
    /// short-circuits straight to the recorded-offer fallback.
    #[test]
    fn dead_assignee_short_circuits_retransmits() {
        let mut cluster = Cluster::new(3, {
            let mut cfg = churn_cfg();
            // Slow ACK timeout so detection (4 s) beats the first
            // retransmit attempt window comfortably.
            cfg.aria.assign_ack_timeout = SimDuration::from_secs(6);
            cfg
        });
        cluster.start();
        cluster.run(SimTime::from_secs(1));
        // Saturate every node so the short job is delegated remotely.
        let at = cluster.now;
        for j in 0..3u64 {
            cluster.submit(at + SimDuration::from_millis(j * 500), 0, spec(100 + j, 60));
        }
        cluster.run(at + SimDuration::from_secs(3));
        // Drop the first ASSIGN copy to everyone, and kill whichever
        // node wins right after the window closes: the ASSIGN is never
        // ACKed and the assignee never comes back.
        cluster.drop_first_assign_to = (0..3).map(NodeId::new).collect();
        let at = cluster.now;
        cluster.submit(at, 0, spec(1, 5));
        cluster.run(at + SimDuration::from_millis(400));
        let (_j, assignee, _) = cluster
            .assigned
            .iter()
            .find(|(j, _, _)| j.raw() == 1)
            .copied()
            .expect("job 1 was assigned");
        assert_ne!(assignee, NodeId::new(0));
        // Only the victim's first copy matters; keep later recovery
        // re-assigns (of the saturating jobs) clean.
        cluster.drop_first_assign_to.clear();
        cluster.kill(assignee.index());
        cluster.run(cluster.now + SimDuration::from_hours(3));
        assert_eq!(
            cluster.retransmits, 0,
            "peer-death must pre-empt the retransmit ladder"
        );
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        let finishers: Vec<NodeId> = cluster
            .completed
            .iter()
            .filter(|(j, _)| j.raw() == 1)
            .map(|&(_, on)| on)
            .collect();
        assert_eq!(finishers.len(), 1, "job 1 completes exactly once: {finishers:?}");
        assert_ne!(finishers[0], assignee);
    }
}
