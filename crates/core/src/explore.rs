//! Exploration hooks: the [`World`] as an explicit transition system.
//!
//! The event-queue driver ([`World::run`]) is one particular scheduler
//! over the world's pending events: it always fires the earliest
//! `(time, seq)` entry. This module exposes the same state under a
//! different driver contract — a pure, clonable `step(state, action)`
//! transition function — so the bounded model checker (`aria-model`)
//! can enumerate *every* delivery ordering instead of the one the queue
//! happens to produce.
//!
//! ## Time semantics
//!
//! Message delivery timestamps are transport artifacts: under arbitrary
//! non-negative link latencies, any pending message may arrive at any
//! point from its send instant onward. The checker therefore treats the
//! event queue as two pools:
//!
//! * **Deliveries** — every pending [`Event::Deliver`] is enabled, in
//!   any order. Acting on one keeps the clock (the delivery happens
//!   "now"; under [`crate::NetModel::Lockstep`] all sends carry zero
//!   latency, so pending deliveries are never post-dated).
//! * **Timers** — every other event fires at its scheduled instant, so
//!   only the earliest one (by `(time, seq)`, the queue's own order) is
//!   enabled; firing it advances the clock.
//!
//! Under this contract the event-queue driver's pop order is just one
//! explorable path: [`World::next_queued_action`] reproduces it exactly,
//! which the `aria-model` cross-validation golden pins bit-for-bit.
//!
//! ## Canonicalization
//!
//! [`World::fingerprint`] hashes a canonical rendering of the state in
//! which pending deliveries form a **multiset** (send times and queue
//! sequence numbers erased — they are scheduler bookkeeping, not
//! protocol state) and timers keep their firing times but only their
//! *relative* order as a tie-break. Two worlds reached by different
//! action orders that agree on everything observable therefore hash
//! equal, which is what makes breadth-first dedup sound.

use crate::msg::Message;
use crate::world::{Event, World};
use aria_grid::{Cost, JobId};
use aria_overlay::NodeId;
use aria_sim::SimTime;
use std::fmt;
use std::fmt::Write as _;

/// One transition of the explored state machine.
///
/// `Deliver` and `Timer` cover everything the event-queue driver can do;
/// `Drop` and `Duplicate` are fault injections (message loss and
/// at-least-once transport) the driver never performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Deliver one pending copy of `msg` to `to` (clock unchanged).
    Deliver {
        /// The recipient.
        to: NodeId,
        /// The message, exactly as pending in the queue.
        msg: Message,
    },
    /// Remove one pending copy of `msg` without delivering it, running
    /// the same bookkeeping as a crashed-recipient loss.
    Drop {
        /// The would-be recipient.
        to: NodeId,
        /// The lost message.
        msg: Message,
    },
    /// Enqueue a second in-flight copy of a pending message
    /// (at-least-once transport). Floods dedup via their visited sets;
    /// ACCEPT/ASSIGN/ACK exercise the idempotent handlers (a duplicated
    /// ASSIGN must suppress, not double-enqueue).
    Duplicate {
        /// The recipient of the extra copy.
        to: NodeId,
        /// The duplicated message.
        msg: Message,
    },
    /// Fire the earliest pending non-delivery event, advancing the
    /// clock to its scheduled instant.
    Timer,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { to, msg } => write!(f, "deliver {msg} -> {to}"),
            Action::Drop { to, msg } => write!(f, "drop    {msg} -> {to}"),
            Action::Duplicate { to, msg } => write!(f, "dup     {msg} -> {to}"),
            Action::Timer => write!(f, "timer"),
        }
    }
}

/// One distinct pending delivery, with its multiset count and the
/// partial-order-reduction classification computed by the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingDelivery {
    /// The recipient.
    pub to: NodeId,
    /// The pending message.
    pub msg: Message,
    /// How many identical copies are pending (≥ 1; > 1 only after
    /// [`Action::Duplicate`]).
    pub count: u32,
    /// Whether delivering this message is *inert*: provably commutes
    /// with every other enabled action and is invisible to all checked
    /// properties, so a checker may explore it alone (see
    /// [`World::pending_deliveries`]).
    pub inert: bool,
}

impl<P: aria_probe::Probe> World<P> {
    /// Every distinct pending delivery, in canonical `(recipient,
    /// message)` order, with multiset counts.
    ///
    /// ## Inertness (partial-order reduction)
    ///
    /// A delivery is classified `inert` when its handling provably
    /// cannot interact with any other enabled or future action, so a
    /// checker that explores *only* that action from this state loses no
    /// reachable behavior (a singleton ample set). The world grants the
    /// classification only in these statically-checkable cases, both for
    /// flood messages (REQUEST/INFORM) of some flood `F`:
    ///
    /// * **Duplicate arrival** — the recipient is already in `F`'s
    ///   visited set: handling only decrements `F`'s in-flight count.
    /// * **Dead leaf hop** — the recipient is unvisited but cannot bid
    ///   on the job and the hop budget is exhausted (`hops_left == 1`),
    ///   so handling inserts the recipient into `F`'s visited set and
    ///   decrements the count, sending nothing; this is inert only if no
    ///   other pending copy of `F` can still forward (`hops_left > 1`),
    ///   since forwarding reads the visited set.
    ///
    /// Both cases additionally require at least one *other* pending
    /// message of `F` (so the slot is not recycled by this delivery:
    /// recycling order feeds the flood-id free-list, which the canonical
    /// fingerprint deliberately keeps). ACCEPT/ASSIGN deliveries are
    /// never inert — the stale-ACCEPT races are exactly what the checker
    /// exists to explore.
    pub fn pending_deliveries(&self) -> Vec<PendingDelivery> {
        let mut pending: Vec<(NodeId, Message)> = Vec::new();
        for (_, _, event) in self.events.entries() {
            if let Event::Deliver { to, msg } = *event {
                pending.push((to, msg));
            }
        }
        pending.sort_by_cached_key(|(to, msg)| (*to, format!("{msg:?}")));
        let mut out: Vec<PendingDelivery> = Vec::new();
        for (to, msg) in pending.iter().copied() {
            match out.last_mut() {
                Some(last) if last.to == to && last.msg == msg => last.count += 1,
                _ => out.push(PendingDelivery { to, msg, count: 1, inert: false }),
            }
        }
        for entry in &mut out {
            entry.inert = self.delivery_is_inert(entry.to, entry.msg, &pending);
        }
        out
    }

    /// See [`World::pending_deliveries`] for the soundness argument.
    fn delivery_is_inert(&self, to: NodeId, msg: Message, pending: &[(NodeId, Message)]) -> bool {
        let (flood, hops_left, job) = match msg {
            Message::Request { flood, hops_left, job, .. }
            | Message::Inform { flood, hops_left, job, .. } => (flood, hops_left, job),
            Message::Accept { .. } | Message::Assign { .. } | Message::Ack { .. } => return false,
        };
        let same_flood = |m: &Message| match *m {
            Message::Request { flood: f, .. } | Message::Inform { flood: f, .. } => f == flood,
            _ => false,
        };
        // The slot must survive this delivery: another copy of the flood
        // must stay pending.
        if pending.iter().filter(|(_, m)| same_flood(m)).count() < 2 {
            return false;
        }
        if self.floods.get(flood).visited.contains(to) {
            return true; // duplicate arrival: pure bookkeeping
        }
        // Dead leaf hop: recipient mute (no bid, no forward), and nobody
        // else can still read the visited set it grows. This message
        // itself has no hops budget, so "no same-flood message with
        // budget" excludes it automatically.
        let spec = self.jobs.spec(job);
        let node = &self.nodes[to.index()];
        hops_left == 1
            && node.alive
            && !Self::node_can_bid(node, &spec)
            && !pending.iter().any(|(_, m)| {
                same_flood(m)
                    && matches!(
                        *m,
                        Message::Request { hops_left: h, .. }
                        | Message::Inform { hops_left: h, .. } if h > 1
                    )
            })
    }

    /// The earliest pending non-delivery event — what [`Action::Timer`]
    /// would fire — as `(instant, description)`.
    pub fn next_timer(&self) -> Option<(SimTime, String)> {
        self.events
            .entries()
            .filter(|(_, _, e)| !matches!(e, Event::Deliver { .. }))
            .min_by_key(|&(at, seq, _)| (at, seq))
            .map(|(at, _, e)| (at, format!("{e:?}")))
    }

    /// The action the event-queue driver would take next, or `None` once
    /// the queue is drained. Stepping a cloned world with this choice in
    /// a loop reproduces [`World::run`] bit-for-bit (the cross-validation
    /// golden in `aria-model` pins this).
    pub fn next_queued_action(&self) -> Option<Action> {
        self.events.peek().map(|(_, event)| match *event {
            Event::Deliver { to, msg } => Action::Deliver { to, msg },
            _ => Action::Timer,
        })
    }

    /// Applies one enabled action to the state.
    ///
    /// # Panics
    ///
    /// Panics if the action is not enabled: no matching pending delivery
    /// for `Deliver`/`Drop`/`Duplicate`, or an empty timer pool for
    /// `Timer`.
    pub fn step(&mut self, action: Action) {
        match action {
            Action::Deliver { to, msg } => {
                let (at, _) = self
                    .events
                    .remove_where(|e| *e == Event::Deliver { to, msg })
                    .expect("Deliver action must match a pending delivery");
                // Exploration never post-dates sends past the clock
                // (Lockstep latencies are zero); the max only engages
                // when replaying the event-queue driver's own order over
                // sampled latencies, where it reproduces `pop` exactly.
                let now = self.events.now().max(at);
                self.events.advance_clock(now);
                self.processed += 1;
                self.handle(now, Event::Deliver { to, msg });
            }
            Action::Drop { to, msg } => {
                self.events
                    .remove_where(|e| *e == Event::Deliver { to, msg })
                    .expect("Drop action must match a pending delivery");
                self.lose_message(self.events.now(), to, msg);
            }
            Action::Duplicate { to, msg } => {
                assert!(
                    self.events.entries().any(|(_, _, e)| *e == Event::Deliver { to, msg }),
                    "Duplicate action must match a pending delivery"
                );
                // Flood copies carry an in-flight share each; the other
                // kinds have no per-copy bookkeeping.
                if let Message::Request { flood, .. } | Message::Inform { flood, .. } = msg {
                    self.floods.get_mut(flood).in_flight += 1;
                }
                // The copy is a transport artifact: it pays no traffic
                // (record_message charged the logical send already).
                // Scheduling outside `transmit` is deliberate: action replay
                // re-enqueues an already-transmitted delivery; this is the
                // exploration driver, not handler code.
                self.events.schedule(self.events.now(), Event::Deliver { to, msg });
            }
            Action::Timer => {
                let (at, event) = self
                    .events
                    .remove_where(|e| !matches!(e, Event::Deliver { .. }))
                    .expect("Timer action requires a pending non-delivery event");
                self.events.advance_clock(at);
                self.processed += 1;
                self.handle(at, event);
            }
        }
    }

    // --- canonical state ---------------------------------------------------

    /// A canonical, deterministic rendering of the complete protocol
    /// state (see the module docs for what is erased and why). Intended
    /// for fingerprinting and counterexample diagnostics, not parsing.
    pub fn canonical_state(&self) -> String {
        let mut s = String::new();
        let w = &mut s;
        let _ = writeln!(w, "now {:?}", self.events.now());
        let _ = writeln!(w, "topology {:?}", self.topology);
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                w,
                "node {i} alive={} profile={:?} queue={:?}",
                node.alive, node.profile, node.queue
            );
        }
        for slot in self.jobs.iter() {
            let _ = writeln!(w, "job {:?}", slot);
        }
        for (id, slot) in self.floods.slots() {
            let _ = writeln!(w, "flood {id} {:?}", slot);
        }
        let _ = writeln!(w, "flood-free {:?}", self.floods.free_ids());

        // Timers: firing times plus *relative* order; raw sequence
        // numbers are path-dependent bookkeeping and are erased.
        let mut timers: Vec<(SimTime, u64, String)> = self
            .events
            .entries()
            .filter(|(_, _, e)| !matches!(e, Event::Deliver { .. }))
            .map(|(at, seq, e)| (at, seq, format!("{e:?}")))
            .collect();
        timers.sort_by_key(|&(at, seq, _)| (at, seq));
        for (rank, (at, _, event)) in timers.iter().enumerate() {
            let _ = writeln!(w, "timer {rank} at={at:?} {event}");
        }
        // Deliveries: a multiset, send times and sequence erased.
        for d in self.pending_deliveries() {
            let _ = writeln!(w, "pending x{} {:?} -> {}", d.count, d.msg, d.to);
        }

        let _ = writeln!(w, "metrics {:?}", self.metrics);
        let _ = writeln!(w, "abandoned {:?}", self.abandoned);
        let _ = writeln!(w, "crashed {:?}", self.crashed);
        let _ = writeln!(w, "lost {:?}", self.lost);
        let _ = writeln!(w, "recovered {}", self.recovered);
        let _ = writeln!(w, "rng {:?}", self.rng);
        s
    }

    /// FNV-1a hash of [`World::canonical_state`] — the checker's dedup
    /// key. Everything observable is included (metrics, RNG state, the
    /// flood free-list order); scratch buffers and the processed-event
    /// counter are not.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in self.canonical_state().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    // --- property probes ---------------------------------------------------

    /// Whether `job`'s initiator is currently collecting offers (its
    /// ACCEPT window is open).
    pub fn offer_window_open(&self, job: JobId) -> bool {
        self.jobs.slot(job).pending.is_some()
    }

    /// The best offer collected so far for `job`, while its window is
    /// open (`None` inside an open window means not even the initiator
    /// could bid).
    pub fn offer_best(&self, job: JobId) -> Option<(Cost, NodeId)> {
        self.jobs.slot(job).pending.as_ref().and_then(|p| p.best)
    }

    /// The node `job` was submitted to, once the submission event fired.
    pub fn initiator_of(&self, job: JobId) -> Option<NodeId> {
        self.jobs.slot(job).initiator
    }

    /// The node whose queue currently holds `job` (waiting or running).
    pub fn holder_of(&self, job: JobId) -> Option<NodeId> {
        self.nodes.iter().enumerate().find_map(|(i, state)| {
            let held = state.queue.is_waiting(job)
                || state.queue.running().is_some_and(|r| r.spec.id == job);
            (state.alive && held).then(|| NodeId::from_index(i))
        })
    }

    /// Whether `job` has a completed record.
    pub fn is_completed(&self, job: JobId) -> bool {
        self.metrics.records().get(&job).is_some_and(|r| r.is_completed())
    }

    /// How many times `job` was completed (a duplicated execution would
    /// trip the collector's own audit first, but the checker asserts it
    /// independently).
    pub fn completion_count(&self) -> u64 {
        self.metrics.completed_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyMix, WorldConfig};
    use crate::net::NetModel;
    use aria_grid::{JobId, JobRequirements, JobSpec, Policy};
    use aria_sim::SimDuration;
    use aria_workload::ArtModel;

    /// A tiny deterministic lockstep world for exploration tests.
    fn lockstep_world(nodes: usize, seed: u64) -> World {
        let mut config = WorldConfig::small_test(nodes);
        config.net = NetModel::Lockstep;
        config.art = ArtModel::Exact;
        config.aria.rescheduling = false;
        config.policies = PolicyMix::Uniform(Policy::Fcfs);
        config.horizon = aria_sim::SimTime::from_mins(30);
        config.sample_period = SimDuration::from_mins(30);
        World::new(config, seed)
    }

    /// A job every node in `world` can run.
    fn universal_job(world: &World, id: u64) -> JobSpec {
        let p = world.profile_of(NodeId::new(0));
        let req = JobRequirements::new(p.arch, p.os, 1, 1);
        JobSpec::batch(JobId::new(id), req, SimDuration::from_mins(5))
    }

    #[test]
    fn queued_action_replay_matches_run_bit_for_bit() {
        let build = |seed| {
            let mut world = lockstep_world(4, seed);
            let job = universal_job(&world, 0);
            world.submit_job(aria_sim::SimTime::from_mins(1), job);
            world
        };
        for seed in [3, 4] {
            let mut driver = build(seed);
            let mut stepper = build(seed);
            driver.run();
            while let Some(action) = stepper.next_queued_action() {
                stepper.step(action);
            }
            assert_eq!(driver.fingerprint(), stepper.fingerprint(), "seed {seed}");
            assert_eq!(driver.canonical_state(), stepper.canonical_state());
        }
    }

    #[test]
    fn sampled_queued_action_replay_matches_run_too() {
        // The step contract also reproduces `pop` over *sampled*
        // latencies (clock advances via the max with the entry time).
        let build = || {
            let mut world = World::new(WorldConfig::small_test(10), 5);
            let job = universal_job(&world, 0);
            world.submit_job(aria_sim::SimTime::from_mins(1), job);
            world
        };
        let mut driver = build();
        let mut stepper = build();
        driver.run();
        while let Some(action) = stepper.next_queued_action() {
            stepper.step(action);
        }
        assert_eq!(driver.canonical_state(), stepper.canonical_state());
    }

    #[test]
    fn fingerprint_ignores_delivery_send_order() {
        // Submit two jobs at the same instant: their REQUEST seeds are
        // interchangeable in-flight messages. Delivering disjoint-flood
        // messages in either order must converge to the same state.
        let mut world = lockstep_world(5, 7);
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 1));
        // Fire timers until both submissions seeded their floods.
        while world.pending_deliveries().len() < 2 {
            world.step(Action::Timer);
        }
        let deliveries = world.pending_deliveries();
        let (a, b) = (deliveries[0], deliveries[deliveries.len() - 1]);
        assert_ne!(a, b);
        let mut ab = world.clone();
        ab.step(Action::Deliver { to: a.to, msg: a.msg });
        ab.step(Action::Deliver { to: b.to, msg: b.msg });
        let mut ba = world.clone();
        ba.step(Action::Deliver { to: b.to, msg: b.msg });
        ba.step(Action::Deliver { to: a.to, msg: a.msg });
        // Note: these two messages belong to two *different* floods, so
        // they commute exactly (same-flood arrivals need not).
        assert_eq!(ab.canonical_state(), ba.canonical_state());
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn drop_runs_the_loss_bookkeeping() {
        let mut world = lockstep_world(4, 9);
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
        while world.pending_deliveries().is_empty() {
            world.step(Action::Timer);
        }
        // Drop every pending request copy: the flood drains, its slot is
        // recycled, and the invariants still hold.
        while let Some(d) = world.pending_deliveries().first().copied() {
            world.step(Action::Drop { to: d.to, msg: d.msg });
        }
        world.try_check_invariants().expect("invariants after drops");
        assert_eq!(world.floods.free_ids().len(), 1, "the request flood slot is recycled");
    }

    #[test]
    fn duplicate_adds_a_pending_copy_and_keeps_invariants() {
        let mut world = lockstep_world(4, 11);
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
        while world.pending_deliveries().is_empty() {
            world.step(Action::Timer);
        }
        let d = world.pending_deliveries()[0];
        world.step(Action::Duplicate { to: d.to, msg: d.msg });
        let again = world.pending_deliveries();
        let copy = again.iter().find(|p| p.to == d.to && p.msg == d.msg).unwrap();
        assert_eq!(copy.count, d.count + 1);
        world.try_check_invariants().expect("invariants after duplicate");
        // The duplicate is inert bookkeeping once its target is visited;
        // delivering both copies converges.
        world.step(Action::Deliver { to: d.to, msg: d.msg });
        world.step(Action::Deliver { to: d.to, msg: d.msg });
        world.try_check_invariants().expect("invariants after double delivery");
    }

    #[test]
    fn duplicate_arrivals_are_classified_inert() {
        let mut world = lockstep_world(4, 13);
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
        while world.pending_deliveries().is_empty() {
            world.step(Action::Timer);
        }
        let d = world.pending_deliveries()[0];
        assert!(!d.inert, "a first arrival at an unvisited node is not inert");
        world.step(Action::Duplicate { to: d.to, msg: d.msg });
        world.step(Action::Deliver { to: d.to, msg: d.msg });
        // The remaining copy now targets a visited node. It is inert iff
        // another copy of the flood is still pending to keep the slot
        // alive — seed fanout > 1 guarantees that here.
        let rest = world.pending_deliveries();
        let dup = rest.iter().find(|p| p.to == d.to && p.msg == d.msg);
        if let Some(dup) = dup {
            let same_flood_pending = rest.iter().map(|p| p.count).sum::<u32>() >= 2;
            assert_eq!(dup.inert, same_flood_pending);
        }
    }

    #[test]
    fn duplicated_assign_is_suppressed_not_double_enqueued() {
        // An at-least-once transport may deliver the same ASSIGN twice;
        // the second copy must not enqueue the job a second time (the
        // queue validator would catch the duplicate) nor complete it
        // twice.
        let mut exercised = false;
        'seeds: for seed in 0..30u64 {
            let mut world = lockstep_world(4, seed);
            world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
            loop {
                let assign = world
                    .pending_deliveries()
                    .iter()
                    .find(|d| matches!(d.msg, Message::Assign { .. }))
                    .copied();
                if let Some(d) = assign {
                    world.step(Action::Duplicate { to: d.to, msg: d.msg });
                    world.step(Action::Deliver { to: d.to, msg: d.msg });
                    assert_eq!(world.holder_of(d.msg.job_id()), Some(d.to));
                    world.step(Action::Deliver { to: d.to, msg: d.msg });
                    world.try_check_invariants().expect("invariants after duplicate ASSIGN");
                    while let Some(action) = world.next_queued_action() {
                        world.step(action);
                    }
                    assert_eq!(world.completion_count(), 1);
                    exercised = true;
                    break 'seeds;
                }
                match world.next_queued_action() {
                    Some(action) => world.step(action),
                    // The winner was the initiator (local enqueue, no
                    // ASSIGN on the wire): try the next seed.
                    None => continue 'seeds,
                }
            }
        }
        assert!(exercised, "no seed produced a remote ASSIGN");
    }

    #[test]
    fn invariant_violations_are_reported_not_panicked() {
        let mut world = lockstep_world(4, 15);
        world.submit_job(aria_sim::SimTime::from_mins(1), universal_job(&world, 0));
        world.run();
        assert_eq!(world.try_check_invariants(), Ok(()));
        // Corrupt the books: claim in-flight traffic on a live flood that
        // has none pending.
        let flood = world.floods.alloc(NodeId::new(0), 4);
        world.floods.get_mut(flood).in_flight = 3;
        let err = world.try_check_invariants().unwrap_err();
        assert!(err.starts_with("invariant:"), "unexpected message: {err}");
    }
}
