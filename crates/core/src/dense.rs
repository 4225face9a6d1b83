//! Dense, allocation-free protocol state tables.
//!
//! The per-run hot path (one [`crate::World`] event per flood hop) used to
//! chase `HashMap`s keyed by job and flood ids and to allocate a fresh
//! `HashSet` visited-set per flood. Job and flood ids are dense by
//! construction — the workload generator numbers jobs from zero and the
//! world numbers floods as it opens them — so all of that state lives in
//! plain `Vec`s here:
//!
//! * [`JobTable`] — one slot per job id holding the interned [`JobSpec`]
//!   plus the initiator/assignee/pending-request tracking that used to be
//!   three separate maps. Messages and events carry bare [`JobId`]s and
//!   look the payload up on delivery.
//! * [`FloodTable`] — one slot per *active* flood, recycled through a
//!   free-list the moment a flood's last in-flight message lands, so a
//!   whole run reuses a handful of slots (and their visited sets).
//! * [`VisitedSet`] (in [`crate::visited`]) — a tiered set over node
//!   indices replacing the per-flood `HashSet<NodeId>`: an inline sorted
//!   small-set for the common few-dozen-hop flood, spilling to a bitset
//!   past a threshold so per-live-flood memory is O(reach), not O(N).

use crate::msg::FloodId;
use crate::visited::VisitedSet;
use aria_grid::{Cost, JobId, JobSpec};
use aria_overlay::NodeId;

/// Book-keeping for one active flood: duplicate suppression plus the
/// in-flight message count that decides when the slot can be recycled.
#[derive(Debug, Default, Clone)]
pub(crate) struct FloodSlot {
    /// Nodes this flood has already reached (selective flooding, \[28\]).
    pub visited: VisitedSet,
    /// Messages of this flood currently in flight.
    pub in_flight: u32,
}

/// The active floods, indexed by [`FloodId`] and recycled via free-list.
///
/// A flood id stays valid exactly as long as messages of that flood are
/// in flight; once the count drains to zero the world releases the slot
/// and the id may be reissued. Callers therefore never hold a `FloodId`
/// across a release.
#[derive(Debug, Default, Clone)]
pub(crate) struct FloodTable {
    slots: Vec<FloodSlot>,
    free: Vec<u32>,
}

impl FloodTable {
    /// Opens a new flood originating at `origin`, reusing a drained slot
    /// when one is available.
    pub fn alloc(&mut self, origin: NodeId, nodes: usize) -> FloodId {
        let id = match self.free.pop() {
            Some(id) => {
                let slot = &mut self.slots[id as usize];
                // Re-arm for the *current* world: a recycled slot must not
                // keep its pre-join capacity and re-grow word by word.
                slot.visited.reset(nodes);
                debug_assert_eq!(slot.in_flight, 0, "recycled flood still in flight");
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("fewer than 2^32 live floods");
                self.slots
                    .push(FloodSlot { visited: VisitedSet::with_capacity(nodes), in_flight: 0 });
                id
            }
        };
        self.slots[id as usize].visited.insert(origin);
        FloodId(id)
    }

    /// The slot of a live flood.
    pub fn get(&self, id: FloodId) -> &FloodSlot {
        &self.slots[id.0 as usize]
    }

    /// The slot of a live flood, mutably.
    pub fn get_mut(&mut self, id: FloodId) -> &mut FloodSlot {
        &mut self.slots[id.0 as usize]
    }

    /// Returns a drained flood's slot to the free-list.
    pub fn release(&mut self, id: FloodId) {
        debug_assert_eq!(self.slots[id.0 as usize].in_flight, 0, "release of in-flight flood");
        debug_assert!(!self.free.contains(&id.0), "double release of {id}");
        self.free.push(id.0);
    }

    /// How many slots were ever allocated (diagnostics only).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Diagnostics for the scale bench: `(slots ever allocated, slots
    /// whose visited set ever spilled to the bitset tier)`. The first
    /// bounds live-flood book-keeping; the second bounds its memory.
    pub fn stats(&self) -> (usize, usize) {
        let spilled = self.slots.iter().filter(|s| s.visited.is_spilled()).count();
        (self.slots.len(), spilled)
    }

    /// Iterates over every slot ever allocated, live or recycled, with
    /// its raw id (inspection hook for `World::check_invariants`).
    #[expect(clippy::cast_possible_truncation, reason = "`alloc` checks each id fits u32")]
    pub fn slots(&self) -> impl Iterator<Item = (u32, &FloodSlot)> + '_ {
        self.slots.iter().enumerate().map(|(i, slot)| (i as u32, slot))
    }

    /// The raw ids currently on the free-list (recycled slots).
    pub fn free_ids(&self) -> &[u32] {
        &self.free
    }
}

/// An initiator's open offer collection for one job (§III-B).
#[derive(Debug, Clone)]
pub(crate) struct PendingRequest {
    /// REQUEST round counter (retries re-flood with a fresh round).
    pub round: u32,
    /// Best offer so far.
    pub best: Option<(Cost, NodeId)>,
}

/// An unacknowledged ASSIGN with its retransmit state. Only armed while
/// the world's fault plan is active — on a reliable transport ASSIGNs
/// cannot be lost and no slot ever carries one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AssignInFlight {
    /// The assignee the ASSIGN was sent to.
    pub to: NodeId,
    /// The assigner awaiting the ACK (initiator, or current holder on a
    /// §III-D steal) — the node the assignee ACKs back to.
    pub by: NodeId,
    /// Retry counter (0 = original send, bumped per retransmit).
    pub attempt: u32,
    /// Arm generation: stale retransmit timers from a superseded arm
    /// carry an older epoch and are ignored.
    pub epoch: u32,
    /// Whether the ASSIGN was a reschedule steal rather than the initial
    /// delegation.
    pub reschedule: bool,
}

/// Everything the world tracks per job, in one dense slot.
#[derive(Debug, Clone)]
pub(crate) struct JobSlot {
    /// The job's full description, interned at submission; messages and
    /// events carry only the [`JobId`].
    pub spec: JobSpec,
    /// The node the job was submitted to (set when the submission event
    /// fires; carried in ASSIGN messages and driving the §III-D failsafe).
    pub initiator: Option<NodeId>,
    /// The node currently holding the job, if assigned.
    pub assignee: Option<NodeId>,
    /// The open offer collection, while the initiator is collecting.
    pub pending: Option<PendingRequest>,
    /// The in-flight unacknowledged ASSIGN, while the fault-layer
    /// retransmit timer is armed (always `None` on a reliable transport).
    pub assign: Option<AssignInFlight>,
    /// Monotone arm counter backing [`AssignInFlight::epoch`].
    pub assign_epoch: u32,
    /// Offers recorded during the job's last REQUEST round, for the
    /// next-best fallback when ASSIGN retries exhaust. Only populated
    /// while the fault plan is active, so the reliable-transport hot
    /// path never allocates here.
    pub offers: Vec<(Cost, NodeId)>,
}

/// Per-job protocol state indexed by raw job id.
///
/// Job ids are dense in the simulator (the generator numbers them from
/// zero), so the table is a `Vec` with one slot per id; sparse hand-picked
/// ids in tests simply leave gaps.
#[derive(Debug, Default, Clone)]
pub(crate) struct JobTable {
    slots: Vec<Option<JobSlot>>,
}

/// A job's slot: job ids are dense, assigned in submission order.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "job ids count submissions")]
fn job_index(id: JobId) -> usize {
    id.raw() as usize
}

impl JobTable {
    /// Interns a job's spec at submission time.
    pub fn register(&mut self, spec: JobSpec) {
        let index = job_index(spec.id);
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        self.slots[index] = Some(JobSlot {
            spec,
            initiator: None,
            assignee: None,
            pending: None,
            assign: None,
            assign_epoch: 0,
            offers: Vec::new(),
        });
    }

    /// The slot of a registered job.
    pub fn slot(&self, id: JobId) -> &JobSlot {
        self.slots[job_index(id)].as_ref().expect("job registered at submission")
    }

    /// The slot of a registered job, mutably.
    pub fn slot_mut(&mut self, id: JobId) -> &mut JobSlot {
        self.slots[job_index(id)].as_mut().expect("job registered at submission")
    }

    /// The job's interned spec.
    pub fn spec(&self, id: JobId) -> JobSpec {
        self.slot(id).spec
    }

    /// Removes and returns the job's open offer collection, if any.
    pub fn take_pending(&mut self, id: JobId) -> Option<PendingRequest> {
        self.slot_mut(id).pending.take()
    }

    /// Iterates over every registered job's slot (inspection hook for
    /// `World::check_invariants`; gaps from sparse ids are skipped).
    pub fn iter(&self) -> impl Iterator<Item = &JobSlot> + '_ {
        self.slots.iter().flatten()
    }

    /// Drops every open offer collection whose initiator is `node`,
    /// returning the affected jobs (crash handling; rare).
    pub fn drop_pending_of(&mut self, node: NodeId) -> Vec<JobId> {
        let mut dropped = Vec::new();
        for slot in self.slots.iter_mut().flatten() {
            if slot.pending.is_some() && slot.initiator == Some(node) {
                slot.pending = None;
                dropped.push(slot.spec.id);
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem};
    use aria_sim::SimDuration;

    fn spec(id: u64) -> JobSpec {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        JobSpec::batch(JobId::new(id), req, SimDuration::from_hours(1))
    }

    #[test]
    fn flood_slots_are_recycled_through_the_free_list() {
        let mut floods = FloodTable::default();
        let a = floods.alloc(NodeId::new(0), 50);
        let b = floods.alloc(NodeId::new(1), 50);
        assert_ne!(a, b);
        assert_eq!(floods.capacity(), 2);
        floods.release(a);
        // The next flood reuses a's slot with a cleared visited set.
        let c = floods.alloc(NodeId::new(2), 50);
        assert_eq!(c, a);
        assert_eq!(floods.capacity(), 2);
        assert!(!floods.get(c).visited.contains(NodeId::new(0)));
        assert!(floods.get(c).visited.contains(NodeId::new(2)));
    }

    #[test]
    fn recycled_flood_slots_are_resized_to_the_current_world() {
        // Regression: a slot whose visited set spilled at a 64-node world
        // used to keep that capacity across recycling, re-growing word by
        // word after overlay joins. `alloc` must re-arm it to the current
        // node count up front.
        let mut floods = FloodTable::default();
        let id = floods.alloc(NodeId::new(0), 64);
        for i in 0..=crate::visited::SMALL_CAP {
            floods.get_mut(id).visited.insert(NodeId::from_index(i));
        }
        assert_eq!(floods.get(id).visited.spill_capacity(), 64);
        floods.release(id);
        // The world grew to 256 nodes before the slot is reused.
        let recycled = floods.alloc(NodeId::new(1), 256);
        assert_eq!(recycled, id);
        assert_eq!(
            floods.get(recycled).visited.spill_capacity(),
            256,
            "recycled slot must be sized to the current world at alloc time"
        );
        assert!(!floods.get(recycled).visited.contains(NodeId::new(0)));
        assert!(floods.get(recycled).visited.contains(NodeId::new(1)));
    }

    #[test]
    fn free_ids_and_slots_expose_the_free_list_state() {
        let mut floods = FloodTable::default();
        let a = floods.alloc(NodeId::new(0), 10);
        let b = floods.alloc(NodeId::new(1), 10);
        assert!(floods.free_ids().is_empty());
        floods.release(a);
        assert_eq!(floods.free_ids(), [a.0]);
        // The live slot is still enumerable next to the freed one.
        assert_eq!(floods.slots().count(), 2);
        let (live, slot) = floods.slots().find(|&(id, _)| id == b.0).unwrap();
        assert_eq!(live, b.0);
        assert!(slot.visited.contains(NodeId::new(1)));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double release")]
    fn releasing_a_flood_twice_panics_in_debug() {
        let mut floods = FloodTable::default();
        let id = floods.alloc(NodeId::new(0), 10);
        floods.release(id);
        floods.release(id);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "release of in-flight flood")]
    fn releasing_an_in_flight_flood_panics_in_debug() {
        let mut floods = FloodTable::default();
        let id = floods.alloc(NodeId::new(0), 10);
        floods.get_mut(id).in_flight = 3;
        floods.release(id);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recycled flood still in flight")]
    fn recycling_a_corrupted_slot_panics_in_debug() {
        let mut floods = FloodTable::default();
        let id = floods.alloc(NodeId::new(0), 10);
        floods.release(id);
        // Corrupt the freed slot behind the free-list's back: the next
        // alloc must refuse to hand out a slot that claims live traffic.
        floods.get_mut(id).in_flight = 1;
        floods.alloc(NodeId::new(1), 10);
    }

    #[test]
    fn flood_alloc_marks_origin_visited() {
        let mut floods = FloodTable::default();
        let id = floods.alloc(NodeId::new(9), 20);
        assert!(floods.get(id).visited.contains(NodeId::new(9)));
        assert_eq!(floods.get(id).in_flight, 0);
    }

    #[test]
    fn job_table_tracks_slots_by_raw_id() {
        let mut jobs = JobTable::default();
        jobs.register(spec(0));
        jobs.register(spec(5)); // sparse ids leave gaps
        assert_eq!(jobs.spec(JobId::new(5)).id, JobId::new(5));
        jobs.slot_mut(JobId::new(5)).initiator = Some(NodeId::new(2));
        jobs.slot_mut(JobId::new(5)).pending = Some(PendingRequest { round: 0, best: None });
        assert!(jobs.take_pending(JobId::new(5)).is_some());
        assert!(jobs.take_pending(JobId::new(5)).is_none(), "pending is taken once");
    }

    #[test]
    fn drop_pending_of_clears_only_the_crashed_initiator() {
        let mut jobs = JobTable::default();
        for id in 0..4 {
            jobs.register(spec(id));
            let slot = jobs.slot_mut(JobId::new(id));
            slot.initiator = Some(NodeId::new((id % 2) as u32));
            slot.pending = Some(PendingRequest { round: 0, best: None });
        }
        let dropped = jobs.drop_pending_of(NodeId::new(0));
        assert_eq!(dropped, [JobId::new(0), JobId::new(2)]);
        assert!(jobs.slot(JobId::new(1)).pending.is_some());
        assert!(jobs.slot(JobId::new(3)).pending.is_some());
    }
}
