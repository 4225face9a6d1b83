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
//! §III-D failsafe. Flood dedup uses a per-node seen set (an
//! open-addressed table of packed flood ids, FIFO-bounded) plus a
//! visited list carried in the message (selective flooding, the paper's
//! reference \[28\]) instead of the simulator's global visited table.

use crate::config::AriaConfig;
use crate::dense::PendingRequest;
use crate::logic;
use aria_grid::{Cost, JobId, JobSpec, NodeProfile, Policy, SchedulerQueue};
use aria_overlay::NodeId;
use aria_probe::{FloodKind, MsgKind, ProbeEvent};
use aria_sim::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Globally unique flood identifier on the live network: the origin node
/// plus a per-origin sequence number. (The simulator's dense
/// [`crate::FloodId`] table indexes recycled slots; live floods from
/// different nodes must never collide, so the id carries its origin.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
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
    /// A job is lost for good: its delegation failed with the failsafe
    /// disabled.
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

/// Failure-detector bookkeeping of a member past the direct-indexed
/// range of [`Membership`].
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    last_seen: SimTime,
    state: PeerState,
}

/// Every known overlay member with its failure-detector state. Ids
/// inside the configured range are direct-indexed: a one-byte state
/// (`None` for a non-member) and a last-seen clock per id, so an inbound
/// frame costs one byte load and one store, and the liveness checks of a
/// flood forward share a few cache lines. Ids past that range (a sparse
/// configured list, senders admitted off the wire) sit in a short sorted
/// tail, all above the direct range, so the direct range followed by the
/// tail is ascending id order. Never contains the owning node.
struct Membership {
    /// `state[id]`: the member's verdict, `None` for a non-member. Sized
    /// once from the configured peers, never from an id read off the wire.
    state: Vec<Option<PeerState>>,
    /// `last_seen[id]`, meaningful where `state[id]` is `Some`.
    last_seen: Vec<SimTime>,
    /// Members with ids past the direct range, ascending.
    tail: Vec<(NodeId, PeerHealth)>,
    len: usize,
    /// How many members came from the configured `peers` list; the rest
    /// were admitted off the wire.
    configured: usize,
}

impl Membership {
    /// The configured peers, sorted and deduplicated, without `own`.
    /// The direct range covers ids below the largest configured id + 1,
    /// capped at four slots per configured peer so a sparse id space
    /// stays small.
    fn new(own: NodeId, peers: Vec<NodeId>) -> Self {
        let mut ids = peers;
        ids.retain(|&n| n != own);
        ids.sort_unstable();
        ids.dedup();
        let span = ids.last().map_or(0, |n| n.index().saturating_add(1)).min(4 * ids.len());
        let mut membership = Membership {
            state: vec![None; span],
            last_seen: vec![SimTime::ZERO; span],
            tail: Vec::new(),
            len: 0,
            configured: ids.len(),
        };
        for id in ids {
            membership.insert(id, SimTime::ZERO);
        }
        membership
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Members admitted off the wire rather than configured.
    fn admitted(&self) -> usize {
        self.len - self.configured
    }

    fn tail_position(&self, node: NodeId) -> Result<usize, usize> {
        self.tail.binary_search_by_key(&node, |&(id, _)| id)
    }

    fn state(&self, node: NodeId) -> Option<PeerState> {
        match self.state.get(node.index()) {
            Some(&state) => state,
            None => self.tail_position(node).ok().map(|pos| self.tail[pos].1.state),
        }
    }

    fn state_mut(&mut self, node: NodeId) -> Option<&mut PeerState> {
        if node.index() < self.state.len() {
            return self.state[node.index()].as_mut();
        }
        let pos = self.tail_position(node).ok()?;
        Some(&mut self.tail[pos].1.state)
    }

    /// Whether the failure detector declared `node` dead.
    fn is_dead(&self, node: NodeId) -> bool {
        self.state(node) == Some(PeerState::Dead)
    }

    /// A frame from `node` arrived at `now`: a member is marked alive
    /// with a fresh last-seen clock. Returns its previous state, or
    /// `None` (and changes nothing) for a non-member.
    fn heard(&mut self, node: NodeId, now: SimTime) -> Option<PeerState> {
        let i = node.index();
        if i < self.state.len() {
            let previous = self.state[i]?;
            self.state[i] = Some(PeerState::Alive);
            self.last_seen[i] = now;
            return Some(previous);
        }
        let pos = self.tail_position(node).ok()?;
        let health = &mut self.tail[pos].1;
        let previous = health.state;
        *health = PeerHealth { last_seen: now, state: PeerState::Alive };
        Some(previous)
    }

    /// Adds a member that is not yet known, alive and last seen at `now`.
    fn insert(&mut self, node: NodeId, now: SimTime) {
        let i = node.index();
        if i < self.state.len() {
            assert!(self.state[i].is_none(), "insert admits unknown members only");
            self.state[i] = Some(PeerState::Alive);
            self.last_seen[i] = now;
        } else {
            let pos = self.tail_position(node).expect_err("insert admits unknown members only");
            self.tail.insert(pos, (node, PeerHealth { last_seen: now, state: PeerState::Alive }));
        }
        self.len += 1;
    }

    /// Members with their state, in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, PeerState)> + '_ {
        let direct = self
            .state
            .iter()
            .enumerate()
            .filter_map(|(i, state)| state.map(|state| (NodeId::from_index(i), state)));
        direct.chain(self.tail.iter().map(|&(id, health)| (id, health.state)))
    }

    fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Visits every member in ascending id order with its state and
    /// last-seen clock.
    fn for_each_mut(&mut self, mut visit: impl FnMut(NodeId, &mut PeerState, &mut SimTime)) {
        let direct = self.state.iter_mut().zip(&mut self.last_seen).enumerate();
        for (i, (state, last_seen)) in direct {
            if let Some(state) = state {
                visit(NodeId::from_index(i), state, last_seen);
            }
        }
        for (id, health) in &mut self.tail {
            visit(*id, &mut health.state, &mut health.last_seen);
        }
    }

    #[cfg(test)]
    fn last_seen(&self, node: NodeId) -> Option<SimTime> {
        match self.state.get(node.index()) {
            Some(state) => state.map(|_| self.last_seen[node.index()]),
            None => self.tail_position(node).ok().map(|pos| self.tail[pos].1.last_seen),
        }
    }
}

/// Flood dedup set. A flood id whose origin and seq both fit in 16 bits
/// (every flood of an overlay under 65 536 nodes until its origin has
/// sent 65 536 floods) is packed into a `u32` and kept in a table half
/// the size; any other is packed into a `u64` (origin high, seq low) in
/// a second table. Each id has exactly one home table, so every answer
/// is exact.
#[derive(Default)]
struct FloodSet {
    narrow: OpenSet<u32>,
    wide: OpenSet<u64>,
}

impl FloodSet {
    fn narrow_key(flood: FloodUid) -> Option<u32> {
        let (origin, seq) = (flood.origin.raw(), flood.seq);
        (origin <= 0xFFFF && seq <= 0xFFFF).then_some(origin << 16 | seq)
    }

    fn wide_key(flood: FloodUid) -> u64 {
        u64::from(flood.origin.raw()) << 32 | u64::from(flood.seq)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.narrow.len + self.wide.len
    }

    #[cfg(test)]
    fn contains(&self, flood: FloodUid) -> bool {
        match Self::narrow_key(flood) {
            Some(key) => self.narrow.contains(key),
            None => self.wide.contains(Self::wide_key(flood)),
        }
    }

    /// Adds `flood`; returns `true` when it was not yet present.
    fn insert(&mut self, flood: FloodUid) -> bool {
        match Self::narrow_key(flood) {
            Some(key) => self.narrow.insert(key),
            None => self.wide.insert(Self::wide_key(flood)),
        }
    }

    /// Removes `flood`; returns `true` when it was present.
    fn remove(&mut self, flood: FloodUid) -> bool {
        match Self::narrow_key(flood) {
            Some(key) => self.narrow.remove(key),
            None => self.wide.remove(Self::wide_key(flood)),
        }
    }
}

/// The key of an [`OpenSet`] slot: an unsigned integer whose maximum
/// marks an empty slot.
trait SlotKey: Copy + Eq + Into<u64> {
    const EMPTY: Self;
}

impl SlotKey for u32 {
    const EMPTY: u32 = u32::MAX;
}

impl SlotKey for u64 {
    const EMPTY: u64 = u64::MAX;
}

/// A set of integer keys in a power-of-two open-addressing table with
/// linear probing and backward-shift deletion, so neither lookups nor
/// removals leave tombstones. The one key equal to the empty-slot
/// marker lives in a flag beside the table.
#[derive(Default)]
struct OpenSet<K> {
    slots: Vec<K>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top
    /// bits.
    shift: u32,
    len: usize,
    marker_present: bool,
}

impl<K: SlotKey> OpenSet<K> {
    /// 2^64 / golden ratio: Fibonacci hashing.
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
    const MIN_SLOTS: usize = 16;

    #[cfg(test)]
    fn contains(&self, key: K) -> bool {
        if key == K::EMPTY {
            self.marker_present
        } else {
            !self.slots.is_empty() && self.probe(key).1
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "the shift leaves log2(capacity) bits")]
    fn home(&self, key: K) -> usize {
        (key.into().wrapping_mul(Self::MULTIPLIER) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot ending its probe run.
    fn probe(&self, key: K) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                k if k == K::EMPTY => return (i, false),
                k if k == key => return (i, true),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds `key`; returns `true` when it was not yet present.
    fn insert(&mut self, key: K) -> bool {
        if key == K::EMPTY {
            let fresh = !self.marker_present;
            self.marker_present = true;
            self.len += usize::from(fresh);
            return fresh;
        }
        // Grow at 7/8 load: lower load factors cost peak RSS across a
        // mesh of drivers for no measurable probe saving.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let (i, found) = self.probe(key);
        if found {
            return false;
        }
        self.slots[i] = key;
        self.len += 1;
        true
    }

    /// Removes `key`; returns `true` when it was present.
    fn remove(&mut self, key: K) -> bool {
        if key == K::EMPTY {
            let present = std::mem::take(&mut self.marker_present);
            self.len -= usize::from(present);
            return present;
        }
        if self.slots.is_empty() {
            return false;
        }
        let (mut hole, found) = self.probe(key);
        if !found {
            return false;
        }
        // Backward shift: walk the rest of the probe run and move each
        // entry whose home slot lies cyclically at or before the hole
        // into it (it stays reachable from its home); the hole then
        // moves to the slot that entry left.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j];
            if k == K::EMPTY {
                break;
            }
            let displacement = j.wrapping_sub(self.home(k)) & mask;
            if displacement >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = k;
                hole = j;
            }
        }
        self.slots[hole] = K::EMPTY;
        self.len -= 1;
        true
    }

    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![K::EMPTY; size]);
        self.shift = 64 - size.trailing_zeros();
        for key in old.into_iter().filter(|&k| k != K::EMPTY) {
            let (i, _) = self.probe(key);
            self.slots[i] = key;
        }
    }
}

/// An in-flight (unacknowledged) ASSIGN delegation. Unlike the
/// simulator's [`crate::dense::AssignInFlight`] it has no `by` (the
/// assigner is always this node) and its epoch counter is per node.
#[derive(Debug, Clone, Copy)]
struct ArmedAssign {
    to: NodeId,
    attempt: u32,
    epoch: u32,
    reschedule: bool,
}

/// Everything this node knows about one job (DESIGN §16 "Bounded
/// bookkeeping"): opened by a submission or an ASSIGN, dropped when a
/// steal away from a non-initiator is ACKed or the ring evicts it.
struct JobBook {
    spec: JobSpec,
    initiator: NodeId,
    /// The open offer window while this node initiates a round.
    pending: Option<PendingRequest>,
    /// Offers recorded while a discovery or steal is in flight; the
    /// retransmit-exhaustion fallback pops the next best.
    offers: Vec<(Cost, NodeId)>,
    /// The un-ACKed ASSIGN this node sent.
    armed: Option<ArmedAssign>,
    /// The ACKed holder this initiator follows (ACK, `Holding`) until
    /// the `Done`; its death triggers recovery (§III-D).
    holder: Option<NodeId>,
    /// Executed here: later ASSIGNs are duplicates.
    completed: bool,
    /// This initiator received the executor's `Done`.
    settled: bool,
    /// Terminal here and queued in the retirement ring.
    retired: bool,
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
    membership: Membership,
    /// Direct overlay neighbors (flood forwarding targets); filtered by
    /// liveness at sampling time.
    neighbors: Vec<NodeId>,
    /// Flood dedup: floods this node already processed, FIFO-bounded.
    seen: FloodSet,
    seen_order: VecDeque<FloodUid>,
    flood_seq: u32,
    /// Per-job state: the live substitute for the simulator's job table.
    books: BTreeMap<JobId, JobBook>,
    assign_epoch: u32,
    /// FIFO ring of retired books; overflow drops the oldest.
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
    /// or abandoned) jobs keep their book. Within this retention window
    /// duplicate ASSIGNs are still suppressed; beyond it the oldest
    /// books are dropped so a long-haul soak cannot grow memory without
    /// bound.
    pub const MAX_RETIRED: usize = 4096;
    /// Membership bound: how many senders outside the configured `peers`
    /// list are admitted as members. A frame from a sender past the
    /// bound is still handled, but the sender is not admitted.
    pub const MAX_ADMITTED: usize = 1024;

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
        NodeDriver {
            id,
            profile,
            queue: SchedulerQueue::new(policy),
            cfg,
            rng: SimRng::seed_from(seed),
            membership: Membership::new(id, peers),
            neighbors,
            seen: FloodSet::default(),
            seen_order: VecDeque::new(),
            flood_seq: 0,
            books: BTreeMap::new(),
            assign_epoch: 0,
            retired_order: VecDeque::new(),
            scratch: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Initial outputs before any input arrives: the periodic INFORM
    /// tick when dynamic rescheduling is enabled, plus — when the
    /// failure detector is on — a `Join` broadcast (so peers that had
    /// declared this node dead readmit a restarted incarnation) and the
    /// first heartbeat tick. `now` baselines every peer's last-seen
    /// clock so nobody is declared dead for silence predating startup.
    pub fn start(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.membership.for_each_mut(|_, _, last_seen| *last_seen = now);
        if self.cfg.aria.rescheduling {
            out.push(Output::StartTimer {
                after: self.cfg.aria.inform_period,
                timer: Timer::InformTick,
            });
        }
        let period = self.cfg.membership.heartbeat_period;
        if !period.is_zero() {
            for peer in self.membership.ids() {
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
        self.open_book(spec, self.id);
        out.push(Output::Probe(ProbeEvent::JobSubmitted { job, initiator: self.id }));
        self.start_round(now, job, 0, out);
    }

    /// Opens the job's book, or refreshes the spec and initiator of the
    /// one already open.
    fn open_book(&mut self, spec: JobSpec, initiator: NodeId) -> &mut JobBook {
        let book = self.books.entry(spec.id).or_insert_with(|| JobBook {
            spec,
            initiator,
            pending: None,
            offers: Vec::new(),
            armed: None,
            holder: None,
            completed: false,
            settled: false,
            retired: false,
        });
        book.spec = spec;
        book.initiator = initiator;
        book
    }

    fn start_round(&mut self, now: SimTime, job: JobId, round: u32, out: &mut Vec<Output>) {
        // A fresh discovery supersedes leftovers: recorded offers are
        // stale and any armed retransmit is obsolete (its pending
        // timeout goes stale through the disarm).
        let book = self.books.get_mut(&job).expect("discovery runs for a booked job");
        book.offers = Vec::new();
        book.armed = None;
        let spec = book.spec;
        let own_bid = if logic::can_bid(&self.profile, self.queue.policy(), &spec) {
            Some((self.queue.cost_of_candidate(&spec, now, &self.profile), self.id))
        } else {
            None
        };
        book.pending = Some(PendingRequest { round, best: own_bid });

        let flood = self.next_flood();
        // Dead peers are excluded from flood seeding: their bids cannot
        // arrive and assigning to them is recovery work waiting to
        // happen. Suspects stay in — suspicion tolerates jitter.
        let mut seeds = std::mem::take(&mut self.scratch);
        seeds.clear();
        seeds.extend(
            self.membership.iter().filter(|&(_, state)| state != PeerState::Dead).map(|(n, _)| n),
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
        #[expect(clippy::cast_possible_truncation, reason = "at most request_fanout seeds")]
        out.push(Output::Probe(ProbeEvent::RequestRound {
            job,
            initiator: self.id,
            round,
            flood: flood.seq,
            seeds: seeds.len() as u32,
        }));
        self.scratch = seeds;
        out.push(Output::StartTimer {
            after: self.cfg.aria.timing.accept_window,
            timer: Timer::AcceptWindow { job },
        });
    }

    // --- timers ----------------------------------------------------------

    fn timer(&mut self, now: SimTime, timer: Timer, out: &mut Vec<Output>) {
        match timer {
            Timer::AcceptWindow { job } => self.close_window(now, job, out),
            Timer::RetryRequest { job, round } => {
                if self.books.get(&job).is_some_and(|b| !b.completed && b.pending.is_none()) {
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
        let Some(pending) = self.books.get_mut(&job).and_then(|b| b.pending.take()) else {
            return;
        };
        // The best bidder may have been declared dead while the window
        // was open; fall back to the next-best live offer, then to the
        // ordinary empty-window retry path.
        let winner = match pending.best {
            Some((_cost, w)) if w == self.id || !self.membership.is_dead(w) => Some(w),
            Some(_) => self.pop_live_offer(job, None).map(|(_, next)| next),
            None => None,
        };
        match winner {
            Some(winner) => self.delegate(now, job, winner, false, out),
            None => match logic::next_round(pending.round, self.cfg.aria.timing.max_request_rounds)
            {
                Some(round) => {
                    out.push(Output::Probe(ProbeEvent::RetryScheduled {
                        job,
                        initiator: self.id,
                        round,
                    }));
                    out.push(Output::StartTimer {
                        after: self.cfg.aria.timing.request_retry,
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
        let Some(book) = self.books.get_mut(&job) else {
            return;
        };
        let Some(a) = book.armed.filter(|a| a.epoch == epoch) else {
            return; // ACKed, superseded by a newer delegation, or recovered
        };
        if book.completed || holds(&self.queue, job) {
            book.armed = None;
            return;
        }
        // A dead assignee short-circuits the remaining retransmit
        // budget: the failure detector already out-waited any backoff,
        // so go straight to the recorded-offer fallback / failsafe.
        if !self.membership.is_dead(a.to)
            && logic::may_retransmit(a.attempt, self.cfg.aria.timing.assign_max_retries)
        {
            let attempt = a.attempt + 1;
            book.armed = Some(ArmedAssign { attempt, ..a });
            out.push(Output::Probe(ProbeEvent::AssignRetransmit { job, to: a.to, attempt }));
            let (initiator, spec) = (book.initiator, book.spec);
            out.push(Output::Send { to: a.to, msg: LiveMsg::Assign { initiator, spec } });
            out.push(Output::StartTimer {
                after: logic::assign_backoff(self.cfg.aria.timing.assign_ack_timeout, attempt),
                timer: Timer::AssignTimeout { job, epoch },
            });
            return;
        }
        // Retries exhausted (or the target died): delegation abandoned.
        book.armed = None;
        self.delegation_failed(now, job, a, out);
    }

    /// Pops the best recorded offer for `job` from a node that is not
    /// `exclude` and not declared dead (this node itself always counts
    /// as live).
    fn pop_live_offer(&mut self, job: JobId, exclude: Option<NodeId>) -> Option<(Cost, NodeId)> {
        let offers = &mut self.books.get_mut(&job)?.offers;
        while let Some((cost, next)) = logic::pop_best_offer(offers) {
            if Some(next) != exclude && (next == self.id || !self.membership.is_dead(next)) {
                return Some((cost, next));
            }
        }
        None
    }

    /// The ASSIGN `failed` of `job` is abandoned (retransmit budget
    /// exhausted, or the target was declared dead): fall back to the
    /// next-best live recorded offer. Failing that, a failed §III-D
    /// steal keeps the job here, where it waited before the move (its
    /// initiator still follows this node as the holder); a failed
    /// initial delegation goes to the initiator's failsafe.
    fn delegation_failed(
        &mut self,
        now: SimTime,
        job: JobId,
        failed: ArmedAssign,
        out: &mut Vec<Output>,
    ) {
        if self.books.get(&job).is_some_and(|b| b.completed || b.settled) || holds(&self.queue, job)
        {
            return;
        }
        if let Some((_cost, next)) = self.pop_live_offer(job, Some(failed.to)) {
            self.delegate(now, job, next, failed.reschedule, out);
        } else if failed.reschedule {
            self.delegate(now, job, self.id, true, out);
        } else if self.cfg.failsafe {
            // No viable offer left: the failsafe is the last resort.
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

    /// The §III-D failsafe at the job's initiator, the only node that
    /// arms it or tracks a holder: re-discover the job unless it is
    /// demonstrably fine.
    fn recover(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        let Some(book) = self.books.get(&job) else {
            return; // retired and evicted: long settled
        };
        if book.completed || book.settled || book.pending.is_some() || holds(&self.queue, job) {
            return; // demonstrably fine, or discovery already underway
        }
        out.push(Output::Probe(ProbeEvent::RecoveryStarted { job, initiator: self.id }));
        self.start_round(now, job, 0, out);
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
        let me = self.id;
        let mut newly_dead = Vec::new();
        self.membership.for_each_mut(|peer, state, last_seen| {
            if *state == PeerState::Dead {
                return;
            }
            let silent = now.saturating_since(*last_seen);
            if silent >= dead_after {
                if *state == PeerState::Alive {
                    out.push(Output::Probe(ProbeEvent::PeerSuspected { peer, by: me }));
                }
                *state = PeerState::Dead;
                out.push(Output::Probe(ProbeEvent::PeerDead { peer, by: me }));
                newly_dead.push(peer);
            } else if silent >= suspect_after && *state == PeerState::Alive {
                *state = PeerState::Suspect;
                out.push(Output::Probe(ProbeEvent::PeerSuspected { peer, by: me }));
            }
        });
        for peer in newly_dead {
            self.peer_died(now, peer, out);
        }
        for peer in self.membership.ids() {
            out.push(Output::Send { to: peer, msg: LiveMsg::Heartbeat { node: self.id } });
        }
        out.push(Output::StartTimer { after: m.heartbeat_period, timer: Timer::HeartbeatTick });
    }

    /// Any message from a peer proves it is alive: refresh its last-seen
    /// clock, readmit it if it was dead, admit it if it was unknown and
    /// fewer than [`Self::MAX_ADMITTED`] unconfigured senders are in.
    fn note_alive(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        if peer == self.id {
            return;
        }
        let room = self.membership.admitted() < Self::MAX_ADMITTED;
        match self.membership.heard(peer, now) {
            Some(PeerState::Dead) => {
                out.push(Output::Probe(ProbeEvent::PeerRejoined { peer, by: self.id }));
            }
            Some(_) => {}
            None if room => {
                self.membership.insert(peer, now);
                out.push(Output::Probe(ProbeEvent::NodeJoined { node: peer }));
            }
            None => {} // past the admission bound: handled, not admitted
        }
    }

    /// Declares a peer dead out of band (graceful `Leave`); the detector
    /// path goes through [`Self::heartbeat_tick`].
    fn mark_dead(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        let Some(state) = self.membership.state_mut(peer) else {
            return;
        };
        if *state == PeerState::Dead {
            return;
        }
        *state = PeerState::Dead;
        out.push(Output::Probe(ProbeEvent::PeerDead { peer, by: self.id }));
        self.peer_died(now, peer, out);
    }

    /// A peer was declared dead: every delegation pointed at it is
    /// recovered now instead of waiting out retransmit/failsafe timers.
    fn peer_died(&mut self, now: SimTime, peer: NodeId, out: &mut Vec<Output>) {
        // Un-ACKed ASSIGNs armed at this node: immediate offer fallback.
        let armed: Vec<JobId> = self.jobs_where(|b| b.armed.is_some_and(|a| a.to == peer));
        for job in armed {
            if let Some(a) = self.books.get_mut(&job).and_then(|b| b.armed.take()) {
                self.delegation_failed(now, job, a, out);
            }
        }
        // ACKed delegations tracked by this initiator: failsafe now.
        for job in self.jobs_where(|b| b.holder == Some(peer)) {
            if let Some(book) = self.books.get_mut(&job) {
                book.holder = None;
            }
            self.recover(now, job, out);
        }
    }

    /// The booked jobs matching `pred`, in `JobId` order.
    fn jobs_where(&self, pred: impl Fn(&JobBook) -> bool) -> Vec<JobId> {
        self.books.iter().filter(|(_, b)| pred(b)).map(|(&job, _)| job).collect()
    }

    /// The job's executor reported completion: stop tracking it. A
    /// `Done` for a job this node has no book for creates nothing.
    fn settle(&mut self, job: JobId) {
        let Some(book) = self.books.get_mut(&job).filter(|b| !b.settled) else {
            return;
        };
        book.settled = true;
        book.holder = None;
        book.offers = Vec::new();
        self.retire(job);
    }

    /// Marks a booked job terminal (completed, settled, lost or
    /// abandoned) and bounds the books: the FIFO ring keeps the most
    /// recent [`Self::MAX_RETIRED`] retired books, whose flags still
    /// suppress duplicates, and drops the book it evicts.
    fn retire(&mut self, job: JobId) {
        match self.books.get_mut(&job) {
            Some(book) if !book.retired => book.retired = true,
            _ => return,
        }
        self.retired_order.push_back(job);
        if self.retired_order.len() > Self::MAX_RETIRED {
            if let Some(old) = self.retired_order.pop_front() {
                self.books.remove(&old);
            }
        }
    }

    fn inform_tick(&mut self, now: SimTime, out: &mut Vec<Output>) {
        if !self.cfg.aria.rescheduling {
            return;
        }
        for (job, cost) in self.queue.inform_offers(now, self.cfg.aria.inform_batch) {
            let Some(spec) = self.books.get(&job).map(|b| b.spec) else {
                continue;
            };
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
            LiveMsg::Request { .. } | LiveMsg::Inform { .. } => self.flood_hop(now, msg, out),
            LiveMsg::Accept { from, job, cost } => self.accept(now, from, job, cost, out),
            LiveMsg::Assign { initiator, spec } => self.assigned(now, from, initiator, spec, out),
            LiveMsg::Ack { from, job } => self.acked(from, job, out),
            LiveMsg::Join { node } => self.note_alive(now, node, out),
            LiveMsg::Leave { node } => self.mark_dead(now, node, out),
            LiveMsg::Heartbeat { .. } => {} // note_alive above did the work
            LiveMsg::Holding { job, node } => {
                // Holder update for a job this node initiated: failsafe
                // tracking follows the job through §III-D steals.
                if let Some(book) = self.books.get_mut(&job).filter(|b| b.initiator == self.id) {
                    book.holder = Some(node);
                }
            }
            LiveMsg::Submit { spec } => self.submit(now, spec, out),
            // The executor of a delegated job reports completion to the
            // job's initiator (Shutdown is intercepted by the runtime).
            LiveMsg::Done { job, .. } => self.settle(job),
            LiveMsg::Shutdown => {}
        }
    }

    /// A REQUEST or INFORM copy arrives: a fresh copy may be answered
    /// with an ACCEPT (§III-B, §III-D) and forwarded.
    fn flood_hop(&mut self, now: SimTime, mut msg: LiveMsg, out: &mut Vec<Output>) {
        let aria = &self.cfg.aria;
        let (kind, spec, flood, hops_left, reply_to, incumbent, fanout) = match &mut msg {
            LiveMsg::Request { initiator, spec, hops_left, flood, .. } => (
                FloodKind::Request,
                *spec,
                *flood,
                hops_left,
                *initiator,
                None,
                aria.request_fanout,
            ),
            LiveMsg::Inform { assignee, spec, cost, hops_left, flood, .. } => (
                FloodKind::Inform,
                *spec,
                *flood,
                hops_left,
                *assignee,
                Some(*cost),
                aria.inform_fanout,
            ),
            _ => unreachable!("only REQUEST/INFORM flood"),
        };
        let fresh = self.record_flood(flood);
        out.push(Output::Probe(ProbeEvent::FloodHop {
            kind,
            job: spec.id,
            flood: flood.seq,
            node: self.id,
            hops_left: *hops_left,
            duplicate: !fresh,
        }));
        if !fresh {
            return;
        }
        let quote = logic::can_bid(&self.profile, self.queue.policy(), &spec)
            .then(|| self.queue.cost_of_candidate(&spec, now, &self.profile));
        let hop = logic::flood_hop(
            quote,
            incumbent,
            self.cfg.aria.reschedule_threshold,
            self.cfg.aria.forward_on_match,
            *hops_left,
        );
        if let Some(cost) = hop.offer {
            let (job, from) = (spec.id, self.id);
            out.push(Output::Probe(ProbeEvent::BidSent {
                kind,
                job,
                from,
                to: reply_to,
                cost_ms: cost.as_millis(),
            }));
            out.push(Output::Send { to: reply_to, msg: LiveMsg::Accept { from, job, cost } });
        }
        if hop.forward {
            *hops_left -= 1;
            self.forward(msg, fanout, out);
        }
    }

    /// An ACK for an ASSIGN this node armed at `from`.
    fn acked(&mut self, from: NodeId, job: JobId, out: &mut Vec<Output>) {
        let Some(book) = self.books.get_mut(&job).filter(|b| b.armed.is_some_and(|a| a.to == from))
        else {
            return;
        };
        book.armed = None;
        out.push(Output::Probe(ProbeEvent::AckReceived { job, from }));
        if book.initiator == self.id {
            // The initiator keeps tracking ACKed delegations until the
            // executor's Done settles them, so a holder dying post-ACK
            // is recoverable. (Once the job is settled or completed,
            // recovering it is a no-op, so a late holder is harmless.)
            book.holder = Some(from);
        } else if !book.retired {
            // A steal moved the job on from here, and only its
            // initiator tracks it further: nothing reads this book
            // again. A retired book stays for the ring to evict.
            self.books.remove(&job);
        }
    }

    fn accept(
        &mut self,
        now: SimTime,
        from: NodeId,
        job: JobId,
        cost: Cost,
        out: &mut Vec<Output>,
    ) {
        let Some(book) = self.books.get_mut(&job) else {
            return; // no discovery here and nothing held: stale offer
        };
        // Offer for a job this node initiated and is still collecting?
        if let Some(pending) = &mut book.pending {
            let better = logic::better_offer(pending.best, cost);
            if better {
                pending.best = Some((cost, from));
            }
            // Remember every offer: the retransmit-exhaustion fallback
            // pops the next best (always on, live transports are lossy).
            book.offers.push((cost, from));
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
        book.offers = Vec::new();
        self.delegate(now, job, from, true, out);
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
        let book = self.open_book(spec, initiator);
        if book.completed || book.settled || book.pending.is_some() || holds(&self.queue, job) {
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
            out.push(Output::Send { to: initiator, msg: LiveMsg::Holding { job, node: self.id } });
        }
    }

    // --- local execution -------------------------------------------------

    fn enqueue_job(&mut self, now: SimTime, job: JobId, out: &mut Vec<Output>) {
        let spec = self.books[&job].spec;
        self.queue.enqueue(spec, now, &self.profile);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "queues hold far fewer than 2^32 jobs"
        )]
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
        let initiator = self.books.get_mut(&job).map(|book| {
            book.completed = true;
            book.offers = Vec::new();
            book.initiator
        });
        out.push(Output::Probe(ProbeEvent::Completed { job, node: self.id }));
        out.push(Output::Completed { job });
        // Tell the initiator so it stops tracking the delegation (and
        // never tries to recover an already-finished job).
        if let Some(initiator) = initiator.filter(|&i| i != self.id) {
            out.push(Output::Send { to: initiator, msg: LiveMsg::Done { job, node: self.id } });
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
                self.seen.remove(evicted);
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
                .filter(|n| *n != self.id && !visited.contains(n) && !self.membership.is_dead(*n)),
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

    /// Delegates `job` to `to`: a local enqueue when this node picked
    /// itself, otherwise an ASSIGN armed for ACK and retransmit.
    fn delegate(
        &mut self,
        now: SimTime,
        job: JobId,
        to: NodeId,
        reschedule: bool,
        out: &mut Vec<Output>,
    ) {
        out.push(Output::Probe(ProbeEvent::Assigned { job, by: self.id, to, reschedule }));
        if to == self.id {
            self.enqueue_job(now, job, out);
            return;
        }
        self.assign_epoch = self.assign_epoch.wrapping_add(1);
        let epoch = self.assign_epoch;
        let book = self.books.get_mut(&job).expect("an ASSIGN goes out for a booked job");
        book.armed = Some(ArmedAssign { to, attempt: 0, epoch, reschedule });
        out.push(Output::StartTimer {
            after: self.cfg.aria.timing.assign_ack_timeout,
            timer: Timer::AssignTimeout { job, epoch },
        });
        let (initiator, spec) = (book.initiator, book.spec);
        out.push(Output::Send { to, msg: LiveMsg::Assign { initiator, spec } });
    }
}

/// Whether `queue` holds the job (waiting or running).
fn holds(queue: &SchedulerQueue, job: JobId) -> bool {
    queue.is_waiting(job) || queue.running().is_some_and(|r| r.spec.id == job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolTiming;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem, PerfIndex};
    use aria_sim::EventQueue;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

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
        /// How often each probe kind, output and fired timer occurred.
        emitted: Emitted,
    }

    /// Occurrences by name: probe kinds, `Output` variants and the
    /// `Timer` variants a cluster fired.
    struct Emitted {
        probes: BTreeMap<&'static str, u64>,
        outputs: BTreeMap<&'static str, u64>,
        timers: BTreeMap<&'static str, u64>,
    }

    impl Emitted {
        const fn new() -> Self {
            Emitted { probes: BTreeMap::new(), outputs: BTreeMap::new(), timers: BTreeMap::new() }
        }

        fn count(map: &mut BTreeMap<&'static str, u64>, name: &'static str, n: u64) {
            *map.entry(name).or_insert(0) += n;
        }

        fn output(&mut self, output: &Output) {
            let name = match output {
                Output::Send { .. } => "Send",
                Output::StartTimer { .. } => "StartTimer",
                Output::Probe(ev) => {
                    Self::count(&mut self.probes, ev.kind(), 1);
                    "Probe"
                }
                Output::Completed { .. } => "Completed",
                Output::Abandoned { .. } => "Abandoned",
                Output::Lost { .. } => "Lost",
            };
            Self::count(&mut self.outputs, name, 1);
        }

        fn timer(&mut self, timer: Timer) {
            let name = match timer {
                Timer::AcceptWindow { .. } => "AcceptWindow",
                Timer::RetryRequest { .. } => "RetryRequest",
                Timer::AssignTimeout { .. } => "AssignTimeout",
                Timer::ExecutionComplete { .. } => "ExecutionComplete",
                Timer::DispatchRetry => "DispatchRetry",
                Timer::InformTick => "InformTick",
                Timer::Recover { .. } => "Recover",
                Timer::HeartbeatTick => "HeartbeatTick",
            };
            Self::count(&mut self.timers, name, 1);
        }

        fn merge(&mut self, other: &Emitted) {
            for (mine, theirs) in [
                (&mut self.probes, &other.probes),
                (&mut self.outputs, &other.outputs),
                (&mut self.timers, &other.timers),
            ] {
                for (&name, &n) in theirs {
                    Self::count(mine, name, n);
                }
            }
        }
    }

    thread_local! {
        /// What every cluster dropped on this thread emitted, for
        /// `every_driver_branch_is_reached`, which runs its schedules on
        /// its own test thread.
        static SWEPT: RefCell<Emitted> = const { RefCell::new(Emitted::new()) };
    }

    impl Drop for Cluster {
        fn drop(&mut self) {
            SWEPT.with(|swept| swept.borrow_mut().merge(&self.emitted));
        }
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
            let drivers =
                (0..n).map(|i| Self::make_driver(n, i, cfg, 1000 + u64::from(i))).collect();
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
                emitted: Emitted::new(),
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
            let n = u32::try_from(self.drivers.len()).unwrap();
            self.drivers[node] = Self::make_driver(n, u32::try_from(node).unwrap(), cfg, seed);
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
                self.emitted.output(&output);
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
                                LiveMsg::Heartbeat { .. }
                                    | LiveMsg::Join { .. }
                                    | LiveMsg::Done { .. }
                            )
                        {
                            self.sends_to_down += 1;
                        }
                        let from = self.drivers[node].id();
                        self.push(now + Self::LATENCY, to.index(), Input::Msg { from, msg });
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
                if let Input::Timer(timer) = input {
                    self.emitted.timer(timer);
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
            aria: AriaConfig::default().with_timing(ProtocolTiming {
                accept_window: SimDuration::from_millis(300),
                request_retry: SimDuration::from_secs(2),
                assign_ack_timeout: SimDuration::from_millis(200),
                ..ProtocolTiming::default()
            }),
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

    /// Golden: the failure paths of a lockstep cluster. The first ASSIGN
    /// to every node is dropped, node 3 is killed while it holds work,
    /// and floods stop at bidders (`forward_on_match` off). Every send is
    /// pinned, and so are the assigned, lost and completed sequences.
    #[test]
    fn golden_churn_sends() {
        let mut cluster = Cluster::new(5, churn_cfg());
        cluster.drop_first_assign_to = (0..5).map(NodeId::new).collect();
        cluster.start();
        for j in 0..12u64 {
            cluster.submit(SimTime::from_secs(1 + j * 2), (j % 5) as u32, spec(j, 10 + 5 * j));
        }
        cluster.run(SimTime::from_secs(40));
        assert!(cluster.assigned.iter().any(|&(_, to, _)| to == NodeId::new(3)));
        cluster.kill(3);
        cluster.run(SimTime::from_hours(4));
        let assigned: Vec<_> =
            cluster.assigned.iter().map(|&(j, to, steal)| (j.raw(), to.raw(), steal)).collect();
        let completed: Vec<_> =
            cluster.completed.iter().map(|&(j, on)| (j.raw(), on.raw())).collect();
        assert_eq!(
            assigned,
            [
                (0, 3, false),
                (1, 1, false),
                (2, 3, false),
                (3, 4, false),
                (4, 1, false),
                (5, 0, false),
                (6, 2, false),
                (7, 3, false),
                (8, 1, false),
                (9, 4, false),
                (10, 3, false),
                (11, 0, false),
                (0, 2, false),
                (10, 2, false),
                (2, 2, false),
                (7, 2, false),
                (7, 1, true),
            ]
        );
        assert_eq!(cluster.lost, []);
        assert_eq!(
            completed,
            [
                (1, 1),
                (3, 4),
                (4, 1),
                (5, 0),
                (6, 2),
                (2, 2),
                (8, 1),
                (0, 2),
                (9, 4),
                (7, 1),
                (11, 0),
                (10, 2)
            ]
        );
        assert_eq!(cluster.retransmits, 5);
        let d = &cluster.sends;
        assert_eq!(
            (d.count, d.informs, d.visited_entries, d.hash),
            (461_410, 112, 284, 0xfa5e_b719_22a3_4c80)
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
        let mut driver = NodeDriver::new(
            NodeId::new(0),
            profile(1.0),
            Policy::Fcfs,
            cfg,
            seed,
            peers,
            neighbors,
        );
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
        for seed in 0..8u32 {
            let mut driver = forwarding_driver(2, seed.into());
            let copies = forwarded(&mut driver, request(seed, v.clone()));
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
            (0..NodeDriver::MAX_VISITED).map(|i| NodeId::from_index(100 + i)).collect();
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
        for j in 0..4u32 {
            cluster.submit(SimTime::ZERO, j, spec(j.into(), 30));
        }
        cluster.run(SimTime::from_secs(10));
        let probe_spec = spec(99, 5);
        let quotes: Vec<(Cost, NodeId)> = cluster
            .drivers
            .iter()
            .map(|d| (d.queue.cost_of_candidate(&probe_spec, cluster.now, &d.profile), d.id()))
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
        let first = driver.handle(now, Input::Msg { from: NodeId::new(0), msg: assign.clone() });
        assert!(first.iter().any(|o| matches!(o, Output::Send { msg: LiveMsg::Ack { .. }, .. })));
        assert!(first.iter().any(|o| matches!(o, Output::Probe(ProbeEvent::Enqueued { .. }))));
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
        let mut driver = NodeDriver::new(
            NodeId::new(0),
            profile(1.0),
            Policy::Fcfs,
            cfg,
            7,
            peers.clone(),
            peers,
        );
        let total = u32::try_from(NodeDriver::MAX_SEEN).unwrap() + 100;
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

    /// One step of the flood-set model property: insert a flood, evict
    /// the oldest one (the `MAX_SEEN` FIFO's move) or remove an arbitrary
    /// one, present or not.
    #[derive(Debug, Clone, Copy)]
    enum SeenOp {
        Insert(FloodUid),
        EvictOldest,
        Remove(FloodUid),
    }

    /// `raw`, except that `edge_at` stands for `u32::MAX`, the largest
    /// id on the wire.
    fn edge_u32(raw: u32, edge_at: u32) -> u32 {
        if raw == edge_at {
            u32::MAX
        } else {
            raw
        }
    }

    /// A part (origin or seq) of a flood id in a small key space: `raw`
    /// below `small`, then the edges where a flood id changes table (past
    /// 16 bits) or packs to a table's empty-slot marker (both parts
    /// `0xFFFF` in the narrow table, both `u32::MAX` in the wide one).
    fn flood_part(raw: u32, small: u32) -> u32 {
        match raw.checked_sub(small) {
            None => raw,
            Some(edge) => [0xFFFF, 0x1_0000, u32::MAX][edge as usize],
        }
    }

    fn flood_id(origin: u32, seq: u32) -> FloodUid {
        FloodUid { origin: NodeId::new(flood_part(origin, 3)), seq: flood_part(seq, 11) }
    }

    prop_compose! {
        fn arb_flood()(origin in 0u32..6, seq in 0u32..14) -> FloodUid {
            flood_id(origin, seq)
        }
    }

    prop_compose! {
        fn arb_seen_op()(kind in 0u8..8, flood in arb_flood()) -> SeenOp {
            match kind {
                0..=4 => SeenOp::Insert(flood),
                5..=6 => SeenOp::EvictOldest,
                _ => SeenOp::Remove(flood),
            }
        }
    }

    proptest! {
        /// The open-addressed flood set against a `BTreeSet` + `VecDeque`
        /// reference: identical fresh/duplicate and present/absent
        /// answers and lengths under any interleaving of inserts and
        /// evictions, and identical membership of every key afterwards.
        #[test]
        fn flood_set_matches_the_btreeset_reference(
            ops in proptest::collection::vec(arb_seen_op(), 1..400),
        ) {
            let mut set = FloodSet::default();
            let mut order = VecDeque::new();
            let mut model = BTreeSet::new();
            let mut model_order = VecDeque::new();
            for op in ops {
                match op {
                    SeenOp::Insert(flood) => {
                        let fresh = set.insert(flood);
                        prop_assert_eq!(fresh, model.insert(flood), "insert {:?}", flood);
                        if fresh {
                            order.push_back(flood);
                            model_order.push_back(flood);
                        }
                    }
                    SeenOp::EvictOldest => {
                        if let (Some(evicted), Some(model_evicted)) =
                            (order.pop_front(), model_order.pop_front())
                        {
                            prop_assert_eq!(set.remove(evicted), model.remove(&model_evicted));
                        }
                    }
                    SeenOp::Remove(flood) => {
                        order.retain(|&f| f != flood);
                        model_order.retain(|&f| f != flood);
                        let removed = model.remove(&flood);
                        prop_assert_eq!(set.remove(flood), removed, "remove {:?}", flood);
                    }
                }
                prop_assert_eq!(set.len(), model.len());
            }
            for origin in 0..6 {
                for seq in 0..14 {
                    let flood = flood_id(origin, seq);
                    prop_assert_eq!(set.contains(flood), model.contains(&flood), "{:?}", flood);
                }
            }
        }

        /// The membership table against a `BTreeMap`: after the
        /// constructor's normalisation and random admissions (ids inside
        /// the direct index, past it, and at `u32::MAX`), every lookup
        /// and the iteration order agree, and the index never grows.
        #[test]
        fn membership_matches_the_btreemap_reference(
            own in 0u32..8,
            peers in proptest::collection::vec(0u32..40, 0..24),
            admits in proptest::collection::vec(0u32..72, 0..48),
        ) {
            let node = |raw: u32| NodeId::new(edge_u32(raw, 71));
            let mut members = Membership::new(node(own), peers.iter().map(|&p| node(p)).collect());
            let mut model: BTreeMap<NodeId, SimTime> = peers
                .iter()
                .filter(|&&p| p != own)
                .map(|&p| (node(p), SimTime::ZERO))
                .collect();
            let index_len = members.state.len();
            for (t, &raw) in admits.iter().enumerate() {
                let peer = node(raw);
                let last_seen = SimTime::from_secs(t as u64 + 1);
                if raw != own && !model.contains_key(&peer) {
                    members.insert(peer, last_seen);
                    model.insert(peer, last_seen);
                }
            }
            prop_assert_eq!(members.state.len(), index_len);
            prop_assert_eq!(members.len(), model.len());
            for raw in 0..72 {
                let peer = node(raw);
                let want = model.get(&peer).copied();
                prop_assert_eq!(members.last_seen(peer), want, "lookup {}", raw);
                prop_assert_eq!(members.state(peer).is_some(), want.is_some(), "state {}", raw);
            }
            let ids: Vec<NodeId> = members.ids().collect();
            prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
            let mut iterated: Vec<(NodeId, SimTime)> = Vec::new();
            members.for_each_mut(|n, _, last_seen| iterated.push((n, *last_seen)));
            let expected: Vec<(NodeId, SimTime)> = model.into_iter().collect();
            prop_assert_eq!(iterated, expected);
        }
    }

    /// A sparse configured id space keeps the direct index at four slots
    /// per configured peer: a far peer lives in the sorted tail, where
    /// every lookup still finds it.
    #[test]
    fn sparse_peers_cap_the_direct_index() {
        let far = NodeId::new(1_000_000);
        let members = Membership::new(NodeId::new(0), vec![NodeId::new(1), NodeId::new(2), far]);
        assert!(members.state.len() <= 12, "a direct index of {} slots", members.state.len());
        assert_eq!(members.tail.iter().map(|&(id, _)| id).collect::<Vec<_>>(), [far]);
        assert_eq!(members.state(far), Some(PeerState::Alive));
        assert_eq!(members.last_seen(far), Some(SimTime::ZERO));
        assert_eq!(members.ids().collect::<Vec<_>>(), [1, 2, 1_000_000].map(NodeId::new));
    }

    /// However many distinct unknown senders the wire carries, at most
    /// [`NodeDriver::MAX_ADMITTED`] are admitted beyond the configured
    /// peers, and none of them resizes the direct index. Frames past
    /// the bound are still handled, and a configured peer still dies
    /// and rejoins.
    #[test]
    fn membership_is_bounded() {
        // Sparse configured ids leave unconfigured ids inside the index.
        let peers: Vec<NodeId> = [0, 2, 4, 6, 8].map(NodeId::new).to_vec();
        let mut driver = NodeDriver::new(
            NodeId::new(0),
            profile(1.0),
            Policy::Fcfs,
            churn_cfg(),
            7,
            peers.clone(),
            peers.clone(),
        );
        let configured = driver.membership.len();
        let index_len = driver.membership.state.len();
        let now = SimTime::from_secs(1);
        driver.start(now);
        let senders = std::iter::once(u32::MAX)
            .chain((1..).filter(|&raw| raw % 2 == 1 || raw > 8))
            .take(100_000)
            .map(NodeId::new);
        let mut joined = 0;
        for (i, node) in senders.enumerate() {
            let msg = if i % 2 == 0 { LiveMsg::Heartbeat { node } } else { LiveMsg::Join { node } };
            let out = driver.handle(now, Input::Msg { from: node, msg });
            joined += out
                .iter()
                .filter(|o| matches!(o, Output::Probe(ProbeEvent::NodeJoined { .. })))
                .count();
            assert!(driver.membership.len() <= configured + NodeDriver::MAX_ADMITTED);
            assert_eq!(driver.membership.state.len(), index_len, "the index grew");
        }
        assert_eq!(joined, NodeDriver::MAX_ADMITTED);
        assert_eq!(driver.membership.len(), configured + NodeDriver::MAX_ADMITTED);
        assert!(driver.membership.state(NodeId::new(u32::MAX)).is_some(), "edge id admitted");
        // Past the bound a frame is handled without admitting its sender.
        let stranger = NodeId::new(200_000);
        let msg = request(0, vec![stranger]);
        let out = driver.handle(now, Input::Msg { from: stranger, msg });
        assert!(out.iter().any(|o| matches!(o, Output::Probe(ProbeEvent::FloodHop { .. }))));
        assert!(!out.iter().any(|o| matches!(o, Output::Probe(ProbeEvent::NodeJoined { .. }))));
        assert_eq!(driver.membership.len(), configured + NodeDriver::MAX_ADMITTED);
        // A configured peer's Leave and rejoin still go through.
        let peer = NodeId::new(4);
        let me = NodeId::new(0);
        let leave_and_return = [LiveMsg::Leave { node: peer }, LiveMsg::Heartbeat { node: peer }];
        let churn: Vec<ProbeEvent> = leave_and_return
            .into_iter()
            .flat_map(|msg| driver.handle(now, Input::Msg { from: peer, msg }))
            .filter_map(|o| match o {
                Output::Probe(ev @ ProbeEvent::PeerDead { .. })
                | Output::Probe(ev @ ProbeEvent::PeerRejoined { .. }) => Some(ev),
                _ => None,
            })
            .collect();
        assert_eq!(
            churn,
            [ProbeEvent::PeerDead { peer, by: me }, ProbeEvent::PeerRejoined { peer, by: me }]
        );
    }

    /// `NodeDriver::new` sorts and deduplicates `peers` and drops the
    /// node's own id: a shuffled, duplicated list holding the own id
    /// yields the same start-up frames and the same first REQUEST round
    /// as the sorted, unique list.
    #[test]
    fn constructor_normalises_peers() {
        let build = |peers: Vec<NodeId>| {
            let neighbors = [1, 2, 3].map(NodeId::new).to_vec();
            let me = NodeId::new(0);
            NodeDriver::new(me, profile(1.0), Policy::Fcfs, churn_cfg(), 7, peers, neighbors)
        };
        let sorted: Vec<NodeId> = (1..10).map(NodeId::new).collect();
        let messy = [7, 0, 3, 9, 3, 1, 8, 0, 2, 5, 4, 6, 9, 1].map(NodeId::new).to_vec();
        let (mut clean, mut normalised) = (build(sorted), build(messy));
        let now = SimTime::from_secs(1);
        assert_eq!(normalised.start(now), clean.start(now));
        let submit = |driver: &mut NodeDriver| driver.handle(now, Input::Submit(spec(1, 5)));
        let (want, got) = (submit(&mut clean), submit(&mut normalised));
        assert_eq!(got, want);
        let targets: Vec<NodeId> = got
            .iter()
            .filter_map(|o| match o {
                Output::Send { to, msg: LiveMsg::Request { .. } } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 4, "the default REQUEST fan-out samples 4 of 9 peers");
    }

    /// Terminal-job bookkeeping (one book per job) is bounded by
    /// [`NodeDriver::MAX_RETIRED`]: a soak that executes
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
        assert!(driver.books.len() <= cap, "books grew to {}", driver.books.len());
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
            dup.iter().any(|o| matches!(o, Output::Probe(ProbeEvent::DuplicateSuppressed { .. }))),
            "recently retired job must still suppress duplicates"
        );
    }

    /// A node a §III-D steal moved a job away from drops the job's book
    /// once the steal is ACKed (unless it is the job's initiator), so at
    /// quiescence every book left anywhere is a retired one.
    #[test]
    fn stolen_away_jobs_leave_no_record() {
        let mut cluster = Cluster::new(5, fast_cfg());
        cluster.start();
        for j in 0..40u64 {
            cluster.submit(SimTime::ZERO, (j % 5) as u32, spec(j, 60 + (j * 37 % 11) * 20));
        }
        cluster.run(SimTime::from_hours(96));
        assert_eq!(cluster.completed.len(), 40, "every job completes");
        let steals = cluster.assigned.iter().filter(|&&(_, _, reschedule)| reschedule).count();
        assert!(steals >= 1, "the workload must exercise §III-D steals");
        for driver in &cluster.drivers {
            let open: Vec<JobId> =
                driver.books.iter().filter(|(_, b)| !b.retired).map(|(&j, _)| j).collect();
            assert!(open.is_empty(), "node {:?} keeps unretired books {open:?}", driver.id());
            assert_eq!(driver.books.len(), driver.retired_order.len());
        }
    }

    /// Frames about jobs a node never saw (`Done`, `Ack`, `Holding`,
    /// `Accept`) create no book and no ring entry.
    #[test]
    fn frames_about_unseen_jobs_create_no_record() {
        let peers = vec![NodeId::new(0), NodeId::new(1)];
        let mut driver = NodeDriver::new(
            NodeId::new(0),
            profile(1.0),
            Policy::Fcfs,
            fast_cfg(),
            7,
            peers.clone(),
            peers,
        );
        let from = NodeId::new(1);
        for j in 0..10_000u64 {
            let job = JobId::new(j);
            for msg in [
                LiveMsg::Done { job, node: from },
                LiveMsg::Ack { from, job },
                LiveMsg::Holding { job, node: from },
                LiveMsg::Accept { from, job, cost: Cost::from_ettc(SimDuration::from_secs(1)) },
            ] {
                driver.handle(SimTime::from_secs(1), Input::Msg { from, msg });
            }
        }
        assert!(driver.books.is_empty(), "{} books opened", driver.books.len());
        assert!(driver.retired_order.is_empty(), "{} ring entries", driver.retired_order.len());
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
        let finishers: Vec<NodeId> =
            cluster.completed.iter().filter(|(j, _)| j.raw() == 1).map(|&(_, on)| on).collect();
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
                cluster.saw_membership_event(
                    by,
                    &ProbeEvent::PeerDead { peer: victim, by: NodeId::new(by) }
                ),
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
            cfg.aria.timing.assign_ack_timeout = SimDuration::from_secs(6);
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
        assert_eq!(cluster.retransmits, 0, "peer-death must pre-empt the retransmit ladder");
        assert!(cluster.lost.is_empty(), "lost: {:?}", cluster.lost);
        let finishers: Vec<NodeId> =
            cluster.completed.iter().filter(|(j, _)| j.raw() == 1).map(|&(_, on)| on).collect();
        assert_eq!(finishers.len(), 1, "job 1 completes exactly once: {finishers:?}");
        assert_ne!(finishers[0], assignee);
    }

    // --- give-up paths ----------------------------------------------------

    /// A job no node can run (it asks for more memory than any node
    /// has) closes every accept window empty: each round but the last
    /// schedules the next one, and the last abandons the job and
    /// retires its book.
    #[test]
    fn unplaceable_job_retries_then_is_abandoned() {
        let mut cfg = fast_cfg();
        cfg.aria.timing.max_request_rounds = 3;
        let mut cluster = Cluster::new(3, cfg);
        cluster.start();
        let mut job = spec(1, 5);
        job.requirements.min_memory_gb = 128;
        cluster.submit(SimTime::ZERO, 0, job);
        cluster.run(SimTime::from_mins(1));
        let emitted = &cluster.emitted;
        assert_eq!(emitted.probes.get("request-round"), Some(&3));
        assert_eq!(emitted.probes.get("retry-scheduled"), Some(&2));
        assert_eq!(emitted.timers.get("RetryRequest"), Some(&2));
        assert_eq!(emitted.probes.get("job-abandoned"), Some(&1));
        assert_eq!(cluster.abandoned, [job.id]);
        assert!(cluster.assigned.is_empty() && cluster.completed.is_empty());
        let initiator = &cluster.drivers[0];
        assert!(initiator.books[&job.id].retired);
        assert_eq!(initiator.retired_order, [job.id]);
    }

    /// An ACK timeout shorter than the round trip retransmits every
    /// remote ASSIGN before its ACK lands: the assignee suppresses the
    /// copy and re-ACKs it, and every job still completes exactly once.
    #[test]
    fn early_retransmits_are_suppressed() {
        let mut cfg = fast_cfg();
        cfg.aria.timing.assign_ack_timeout = SimDuration::from_millis(8);
        let mut cluster = Cluster::new(5, cfg);
        cluster.start();
        for j in 0..10u64 {
            cluster.submit(SimTime::from_millis(j * 50), (j % 5) as u32, spec(j, 5));
        }
        cluster.run(SimTime::from_hours(2));
        assert!(cluster.retransmits >= 1, "no remote ASSIGN");
        let duplicates = cluster.emitted.probes.get("duplicate-suppressed").copied();
        assert_eq!(duplicates, Some(u64::from(cluster.retransmits)));
        let mut done: Vec<u64> = cluster.completed.iter().map(|(j, _)| j.raw()).collect();
        done.sort_unstable();
        assert_eq!(done, (0..10).collect::<Vec<_>>(), "exactly-once completion");
    }

    /// Node 0 submits `job` at `at`, and node 1, the faster of two idle
    /// nodes, wins it. Node 1 then dies before the ASSIGN lands: the
    /// first copy is dropped, and the node is killed before the first
    /// retransmit.
    fn fail_initial_assign(cluster: &mut Cluster, at: SimTime, job: JobSpec) {
        cluster.drop_first_assign_to = vec![NodeId::new(1)];
        cluster.submit(at, 0, job);
        cluster.run(at + SimDuration::from_millis(350));
        assert_eq!(cluster.assigned.last(), Some(&(job.id, NodeId::new(1), false)));
        cluster.kill(1);
    }

    /// A §III-D steal whose ASSIGN never lands keeps the job at the
    /// stealer, where it waited before the move, and a failed initial
    /// ASSIGN with no other offer left falls to the initiator's
    /// failsafe.
    ///
    /// Node 2 is down while initiator 0 places job 1 with the fast
    /// node 1, where it waits behind a long job. Node 2 restarts idle,
    /// undercuts job 1 at node 1's first INFORM, and node 1 steals the
    /// job; node 2 dies before the ASSIGN lands, and node 1's detector
    /// declares it dead. Then node 1 dies holding job 2's ASSIGN.
    #[test]
    fn failed_steal_keeps_its_job() {
        let mut cluster = Cluster::new(3, churn_cfg());
        cluster.start();
        cluster.kill(2);
        // Long jobs fill node 1 and then node 0, so job 1 waits at 1.
        for (j, at, mins) in [(100, 6, 60), (101, 7, 60), (1, 8, 5)] {
            cluster.submit(SimTime::from_secs(at), 0, spec(j, mins));
        }
        cluster.restart(SimTime::from_secs(10), 2, churn_cfg(), 9002);
        cluster.drop_first_assign_to = vec![NodeId::new(2)];
        cluster.run(SimTime::from_millis(300_100)); // node 1's INFORM tick is at 300 s
        let assigned: Vec<_> =
            cluster.assigned.iter().map(|&(j, to, steal)| (j.raw(), to.raw(), steal)).collect();
        assert_eq!(assigned, [(100, 1, false), (101, 0, false), (1, 1, false), (1, 2, true)]);
        cluster.kill(2);
        cluster.run(SimTime::from_hours(2));
        let (stealer, victim) = (NodeId::new(1), NodeId::new(2));
        assert!(
            cluster.saw_membership_event(1, &ProbeEvent::PeerDead { peer: victim, by: stealer })
        );
        assert_eq!(cluster.lost, []);
        assert_eq!(cluster.assigned.last(), Some(&(JobId::new(1), stealer, true)));
        assert!(cluster.completed.contains(&(JobId::new(1), stealer)));
        assert_eq!(cluster.emitted.timers.get("Recover"), None);

        fail_initial_assign(&mut cluster, SimTime::from_hours(2), spec(2, 5));
        cluster.run(SimTime::from_hours(3));
        assert_eq!(cluster.emitted.timers.get("Recover"), Some(&1));
        assert_eq!(cluster.emitted.probes.get("recovery-started"), Some(&1));
        assert!(cluster.completed.contains(&(JobId::new(2), NodeId::new(0))));
        assert_eq!(cluster.lost, []);
        let mut done: Vec<u64> = cluster.completed.iter().map(|(j, _)| j.raw()).collect();
        done.sort_unstable();
        assert_eq!(done, [1, 2, 100, 101], "exactly-once completion");
    }

    /// With the failsafe off, a job whose initial ASSIGN fails with no
    /// other offer left is lost for good.
    #[test]
    fn failsafe_off_loses_a_job_whose_assign_fails() {
        let mut cluster = Cluster::new(2, DriverConfig { failsafe: false, ..churn_cfg() });
        cluster.start();
        let job = spec(1, 5);
        fail_initial_assign(&mut cluster, SimTime::from_secs(1), job);
        cluster.run(SimTime::from_hours(1));
        assert_eq!(cluster.lost, [job.id]);
        assert_eq!(cluster.emitted.probes.get("job-lost"), Some(&1));
        assert!(cluster.completed.is_empty());
        assert!(cluster.drivers[0].books[&job.id].retired);
    }

    /// Every branch of the driver is reached by a lockstep test: over
    /// the churn schedules, the give-up paths and a node that joins
    /// unannounced, the clusters emit every probe kind the driver
    /// constructs and every `Output` variant, and fire every `Timer`
    /// variant but one. A branch that goes dead drops out of a set.
    #[test]
    fn every_driver_branch_is_reached() {
        SWEPT.with(|swept| *swept.borrow_mut() = Emitted::new());
        golden_churn_sends();
        killed_node_is_declared_dead_and_excluded();
        killed_assignee_recovers_via_peer_death();
        restarted_node_rejoins_and_receives_work();
        dead_assignee_short_circuits_retransmits();
        early_retransmits_are_suppressed();
        unplaceable_job_retries_then_is_abandoned();
        failed_steal_keeps_its_job();
        failsafe_off_loses_a_job_whose_assign_fails();
        {
            // Nodes 0 and 1 are configured without node 2: its start-up
            // `Join` admits it.
            let mut cluster = Cluster::new(3, churn_cfg());
            for i in 0..2 {
                cluster.drivers[i as usize] = Cluster::make_driver(2, i, churn_cfg(), 1000);
            }
            cluster.start();
            cluster.run(SimTime::from_secs(1));
        }
        let swept = SWEPT.with(|swept| swept.replace(Emitted::new()));
        let names = |map: &BTreeMap<&'static str, u64>| map.keys().copied().collect::<Vec<_>>();
        assert_eq!(
            names(&swept.probes),
            [
                "ack-received",
                "assign-retransmit",
                "assigned",
                "bid-sent",
                "completed",
                "duplicate-suppressed",
                "enqueued",
                "flood-hop",
                "inform-round",
                "job-abandoned",
                "job-lost",
                "job-submitted",
                "node-joined",
                "offer-received",
                "peer-dead",
                "peer-rejoined",
                "peer-suspected",
                "recovery-started",
                "request-round",
                "retry-scheduled",
                "started",
            ]
        );
        assert_eq!(
            names(&swept.outputs),
            ["Abandoned", "Completed", "Lost", "Probe", "Send", "StartTimer"]
        );
        // `DispatchRetry` cannot fire: the driver commits no
        // reservations, so `next_dispatch_at` is `None` whenever
        // `start_next` is. ROADMAP item 2(g) deletes the variant once
        // perfbench stops using it as its timer-wheel payload.
        assert_eq!(
            names(&swept.timers),
            [
                "AcceptWindow",
                "AssignTimeout",
                "ExecutionComplete",
                "HeartbeatTick",
                "InformTick",
                "Recover",
                "RetryRequest",
            ]
        );
    }
}
