//! The local scheduler: a single-executor queue ordered by a pluggable
//! policy, exposing the ETTC/NAL cost introspection used by ARiA.

use crate::job::{JobId, JobSpec};
use crate::reservation::{Reservation, ReservationCalendar, ReservationConflict};
use crate::resources::NodeProfile;
use aria_sim::{SimDuration, SimTime};
use std::fmt;

/// Local scheduling policy (§IV-C plus the future-work extensions of §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First-Come-First-Served: jobs run in arrival (ASSIGN) order.
    Fcfs,
    /// Shortest-Job-First: jobs with smaller ERT run first.
    Sjf,
    /// Longest-Job-First (extension): jobs with larger ERT run first.
    Ljf,
    /// FCFS with EASY-style backfill (extension, §VI): when the head job
    /// does not fit before the next advance reservation, the first later
    /// job that does fit jumps ahead.
    Backfill,
    /// Priority scheduling (extension): higher [`crate::JobPriority`]
    /// first, FIFO within a priority level.
    Priority,
    /// Earliest-Deadline-First: jobs with an earlier deadline run first.
    /// The only deadline policy considered by the paper.
    Edf,
}

impl Policy {
    /// The cost function family this policy participates in (§III-C).
    pub fn cost_kind(self) -> CostKind {
        match self {
            Policy::Edf => CostKind::Nal,
            _ => CostKind::Ettc,
        }
    }

    /// Whether this is a batch (non-deadline) policy.
    pub fn is_batch(self) -> bool {
        self.cost_kind() == CostKind::Ettc
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::Ljf => "LJF",
            Policy::Backfill => "BACKFILL",
            Policy::Priority => "PRIORITY",
            Policy::Edf => "EDF",
        };
        f.write_str(name)
    }
}

/// Which cost function a node's offers are expressed in.
///
/// The paper assumes offers of different kinds are never mixed: batch
/// schedulers bid with ETTC, deadline schedulers with NAL (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Estimated Time To Completion — relative, lower is better.
    Ettc,
    /// Negative Accumulated Lateness — signed, lower is better.
    Nal,
}

impl fmt::Display for CostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CostKind::Ettc => "ETTC",
            CostKind::Nal => "NAL",
        })
    }
}

/// A scheduling cost in milliseconds; **lower is better** (§III-C).
///
/// ETTC costs are non-negative (a relative time to completion); NAL costs
/// are signed (negative when every queued job meets its deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct Cost(i64);

impl Cost {
    /// Builds an ETTC cost from a relative completion time.
    pub fn from_ettc(ettc: SimDuration) -> Self {
        Cost(ettc.as_millis() as i64)
    }

    /// Builds a NAL cost from the signed accumulated-lateness sum (ms).
    pub fn from_nal(nal_ms: i64) -> Self {
        Cost(nal_ms)
    }

    /// Raw signed milliseconds.
    pub fn as_millis(self) -> i64 {
        self.0
    }

    /// How much better (`> 0`) this cost is than `other`, in milliseconds.
    pub fn improvement_over(self, other: Cost) -> i64 {
        other.0 - self.0
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A job waiting in a [`SchedulerQueue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// The job description.
    pub spec: JobSpec,
    /// When the job entered this queue (local ASSIGN reception time).
    pub enqueued_at: SimTime,
    /// `ERT / p` on this node.
    pub ertp: SimDuration,
}

/// The job currently executing on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// The job description.
    pub spec: JobSpec,
    /// Execution start instant.
    pub started_at: SimTime,
    /// Estimated completion (`started_at + ERTp`); the *actual* completion
    /// is scheduled by the simulation from the ART error model and may
    /// differ.
    pub expected_end: SimTime,
}

/// A node's local scheduler (§III-A): holds at most one running job and a
/// policy-ordered queue of waiting jobs. No preemption, no migration of
/// running jobs.
///
/// # Example
///
/// ```
/// use aria_grid::{Architecture, JobId, JobRequirements, JobSpec, NodeProfile};
/// use aria_grid::{OperatingSystem, PerfIndex, Policy, SchedulerQueue};
/// use aria_sim::{SimDuration, SimTime};
///
/// let profile = NodeProfile::new(
///     Architecture::Amd64, OperatingSystem::Linux, 8, 8, PerfIndex::BASELINE,
/// );
/// let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
/// let mut q = SchedulerQueue::new(Policy::Sjf);
/// q.enqueue(JobSpec::batch(JobId::new(1), req, SimDuration::from_hours(3)), SimTime::ZERO, &profile);
/// q.enqueue(JobSpec::batch(JobId::new(2), req, SimDuration::from_hours(1)), SimTime::ZERO, &profile);
/// // SJF: the shorter job 2 runs first.
/// let running = q.start_next(SimTime::ZERO).unwrap();
/// assert_eq!(running.spec.id, JobId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct SchedulerQueue {
    policy: Policy,
    running: Option<RunningJob>,
    waiting: Vec<QueuedJob>,
    calendar: ReservationCalendar,
}

impl SchedulerQueue {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: Policy) -> Self {
        SchedulerQueue {
            policy,
            running: None,
            waiting: Vec::new(),
            calendar: ReservationCalendar::new(),
        }
    }

    /// The node's advance-reservation calendar.
    pub fn calendar(&self) -> &ReservationCalendar {
        &self.calendar
    }

    /// Commits an advance reservation on this node's executor.
    ///
    /// # Errors
    ///
    /// Returns [`ReservationConflict`] if the window overlaps a committed
    /// one. Overlaps with currently queued/running *jobs* are fine: jobs
    /// are dispatched around reservations, never the other way round.
    pub fn add_reservation(&mut self, window: Reservation) -> Result<(), ReservationConflict> {
        self.calendar.try_add(window)
    }

    /// The queue's policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The currently executing job, if any.
    pub fn running(&self) -> Option<&RunningJob> {
        self.running.as_ref()
    }

    /// The waiting jobs, in execution order under the current policy.
    pub fn waiting(&self) -> &[QueuedJob] {
        &self.waiting
    }

    /// Number of waiting jobs.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether the node has neither a running nor a waiting job.
    ///
    /// This is the paper's *idle node* definition for Figures 3, 5 and 6.
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.waiting.is_empty()
    }

    /// Inserts a job into the waiting queue at its policy position.
    ///
    /// Ordering is stable: a new job never jumps ahead of an equal-keyed
    /// earlier arrival.
    pub fn enqueue(&mut self, spec: JobSpec, now: SimTime, profile: &NodeProfile) {
        let job = QueuedJob { spec, enqueued_at: now, ertp: profile.ert_on(spec.ert) };
        let pos = self.insertion_index(&job.spec);
        self.waiting.insert(pos, job);
    }

    /// Starts the next waiting job if the executor is free.
    ///
    /// Returns the newly running job, or `None` if a job is already
    /// running or the queue is empty.
    pub fn start_next(&mut self, now: SimTime) -> Option<&RunningJob> {
        if self.running.is_some() || self.waiting.is_empty() {
            return None;
        }
        if self.calendar.active_at(now).is_some() {
            return None; // the executor is reserved right now
        }
        let fits = |job: &QueuedJob| !self.calendar.blocks(now, job.ertp);
        let pick = if fits(&self.waiting[0]) {
            Some(0)
        } else if self.policy == Policy::Backfill {
            // EASY backfill: the first later job that fits the gap runs,
            // without delaying the head (the head cannot start anyway).
            self.waiting.iter().position(fits)
        } else {
            None
        };
        let job = self.waiting.remove(pick?);
        self.running =
            Some(RunningJob { spec: job.spec, started_at: now, expected_end: now + job.ertp });
        self.running.as_ref()
    }

    /// When dispatch should be retried after [`SchedulerQueue::start_next`]
    /// returned `None` while jobs are waiting: the end of the reservation
    /// window currently (or next) blocking the executor. `None` when the
    /// executor is busy, nothing waits, or something is startable now.
    pub fn next_dispatch_at(&self, now: SimTime) -> Option<SimTime> {
        if self.running.is_some() || self.waiting.is_empty() {
            return None;
        }
        if let Some(active) = self.calendar.active_at(now) {
            return Some(active.end);
        }
        let fits = |job: &QueuedJob| !self.calendar.blocks(now, job.ertp);
        let startable = match self.policy {
            Policy::Backfill => self.waiting.iter().any(fits),
            _ => fits(&self.waiting[0]),
        };
        if startable {
            None
        } else {
            self.calendar.next_after(now).map(|w| w.end)
        }
    }

    /// Marks the running job as completed and returns it.
    ///
    /// The caller (the simulation) decides the actual completion instant;
    /// this method only clears the executor.
    pub fn complete_running(&mut self) -> Option<RunningJob> {
        self.running.take()
    }

    /// Removes a waiting job (it is being rescheduled away).
    ///
    /// Returns `None` if the job is not waiting here — e.g. it already
    /// started executing, in which case the paper forbids moving it.
    pub fn remove_waiting(&mut self, id: JobId) -> Option<QueuedJob> {
        let pos = self.waiting.iter().position(|j| j.spec.id == id)?;
        Some(self.waiting.remove(pos))
    }

    /// Whether the given job is waiting (not running) here.
    pub fn is_waiting(&self, id: JobId) -> bool {
        self.waiting.iter().any(|j| j.spec.id == id)
    }

    /// Removes and returns every waiting job (used when a node crashes
    /// and its queue contents are lost).
    pub fn drain_waiting(&mut self) -> Vec<QueuedJob> {
        std::mem::take(&mut self.waiting)
    }

    /// Remaining estimated execution time of the running job.
    pub fn remaining_running(&self, now: SimTime) -> SimDuration {
        self.running.as_ref().map_or(SimDuration::ZERO, |r| r.expected_end.saturating_since(now))
    }

    /// Total estimated backlog: remaining running time plus all waiting
    /// `ERTp`s.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.waiting.iter().fold(self.remaining_running(now), |acc, j| acc + j.ertp)
    }

    /// The cost this node would quote for a new candidate job (§III-C).
    ///
    /// Dispatches on the policy's [`CostKind`]: ETTC for batch policies,
    /// NAL for deadline policies.
    pub fn cost_of_candidate(&self, spec: &JobSpec, now: SimTime, profile: &NodeProfile) -> Cost {
        match self.policy.cost_kind() {
            CostKind::Ettc => Cost::from_ettc(self.ettc_of_candidate(spec, now, profile)),
            CostKind::Nal => Cost::from_nal(self.nal_of_candidate(spec, now, profile)),
        }
    }

    /// The current cost of a job already waiting in this queue, as
    /// advertised in INFORM messages (§III-D).
    ///
    /// Returns `None` if the job is not waiting here.
    pub fn cost_of_waiting(&self, id: JobId, now: SimTime) -> Option<Cost> {
        match self.policy.cost_kind() {
            CostKind::Ettc => self.ettc_of_waiting(id, now).map(Cost::from_ettc),
            CostKind::Nal => {
                self.is_waiting(id).then(|| Cost::from_nal(nal(self.completions(now, None))))
            }
        }
    }

    /// Estimated Time To Completion for a candidate job: the relative
    /// time at which the candidate would finish, given the running job
    /// and the waiting jobs that would precede it under the policy.
    pub fn ettc_of_candidate(
        &self,
        spec: &JobSpec,
        now: SimTime,
        profile: &NodeProfile,
    ) -> SimDuration {
        let candidate = QueuedJob { spec: *spec, enqueued_at: now, ertp: profile.ert_on(spec.ert) };
        let (_, etc) = self
            .completions(now, Some(&candidate))
            .find(|(job, _)| job.spec.id == spec.id)
            .expect("candidate appears in its own simulation");
        etc.saturating_since(now)
    }

    /// ETTC of a job already waiting in the queue, or `None` if absent.
    pub fn ettc_of_waiting(&self, id: JobId, now: SimTime) -> Option<SimDuration> {
        self.completions(now, None)
            .find(|(job, _)| job.spec.id == id)
            .map(|(_, etc)| etc.saturating_since(now))
    }

    /// Negative Accumulated Lateness for a candidate job (§III-C):
    ///
    /// ```text
    /// NALcost(j) = Σ_{job ∈ Q'} δ(job, Q') · |γ_job|,   Q' = Q ∪ {j}
    /// γ_job = deadline_job − ETC_job
    /// δ = −1 if every job in Q' is on time; else 0 for on-time jobs and
    ///     1 for late jobs.
    /// ```
    ///
    /// Lower is better: a queue where everything is comfortably early is
    /// strongly negative, a queue with misses is positive.
    pub fn nal_of_candidate(&self, spec: &JobSpec, now: SimTime, profile: &NodeProfile) -> i64 {
        let candidate = QueuedJob { spec: *spec, enqueued_at: now, ertp: profile.ert_on(spec.ert) };
        nal(self.completions(now, Some(&candidate)))
    }

    /// The waiting jobs in execution order, `extra` spliced in at its
    /// policy position, each with its Estimated Time of Completion: the
    /// one model behind every ETTC and NAL quote and every INFORM pick.
    ///
    /// Dispatch is simulated lazily from the end of the running job. With
    /// an empty calendar this is exactly the paper's model: remaining
    /// running time plus the `ERTp`s of the jobs ahead. With reservations,
    /// each job starts at its earliest fitting gap (sequential walk;
    /// dynamic backfill reordering is not anticipated in the estimate).
    fn completions<'a>(
        &'a self,
        now: SimTime,
        extra: Option<&'a QueuedJob>,
    ) -> impl Iterator<Item = (&'a QueuedJob, SimTime)> {
        let at = extra.map_or(self.waiting.len(), |e| self.insertion_index(&e.spec));
        let (ahead, rest) = self.waiting.split_at(at);
        let mut t = now + self.remaining_running(now);
        ahead.iter().chain(extra).chain(rest).map(move |job| {
            t = self.calendar.earliest_fit(t, job.ertp) + job.ertp;
            (job, t)
        })
    }

    /// The waiting jobs an assignee should advertise for rescheduling,
    /// best candidates first, at most `limit` of them, each with the cost
    /// it is advertised at (§III-D): batch policies pick the
    /// longest-waiting jobs at their ETTC, deadline policies the jobs with
    /// the least slack at the queue's NAL. Ties go to the smaller id.
    pub fn inform_offers(&self, now: SimTime, limit: usize) -> Vec<(JobId, Cost)> {
        if self.waiting.is_empty() {
            // Most ticks of a large grid find an empty queue; answer them
            // without reading the executor state or collecting the walk.
            return Vec::new();
        }
        let mut walk: Vec<_> = self.completions(now, None).collect();
        let queue_nal = match self.policy.cost_kind() {
            CostKind::Ettc => None,
            CostKind::Nal => Some(Cost::from_nal(nal(walk.iter().copied()))),
        };
        walk.sort_unstable_by_key(|&(job, etc)| {
            let key = match queue_nal {
                None => -(now.saturating_since(job.enqueued_at).as_millis() as i64),
                Some(_) => job.spec.deadline.map_or(i64::MAX, |d| d.signed_delta(etc)),
            };
            (key, job.spec.id)
        });
        let price = |etc: SimTime| queue_nal.unwrap_or(Cost::from_ettc(etc.saturating_since(now)));
        walk.into_iter().take(limit).map(|(job, etc)| (job.spec.id, price(etc))).collect()
    }

    /// The ordering key a job sorts by under this queue's policy
    /// (smaller runs earlier; equal keys keep arrival order).
    fn policy_key(&self, s: &JobSpec) -> i64 {
        match self.policy {
            Policy::Fcfs | Policy::Backfill => 0,
            Policy::Sjf => s.ert.as_millis() as i64,
            Policy::Ljf => -(s.ert.as_millis() as i64),
            Policy::Priority => -(s.priority.0 as i64),
            Policy::Edf => s.deadline.map_or(i64::MAX, |d| d.as_millis() as i64),
        }
    }

    /// Position at which a job would be inserted under the policy.
    fn insertion_index(&self, spec: &JobSpec) -> usize {
        let candidate_key = self.policy_key(spec);
        // Stable: insert after all entries with key <= candidate's.
        self.waiting.partition_point(|j| self.policy_key(&j.spec) <= candidate_key)
    }

    /// Audits the queue's internal invariants, panicking on violation:
    ///
    /// * the waiting list is sorted by the policy's ordering key
    ///   (non-decreasing, so equal-keyed jobs keep arrival order);
    /// * no job id appears twice among the waiting jobs;
    /// * the running job is not simultaneously waiting.
    ///
    /// Read-only and side-effect free. Called per drained event by
    /// `World::check_invariants` (debug builds / checked runs).
    pub fn validate(&self) {
        for pair in self.waiting.windows(2) {
            assert!(
                self.policy_key(&pair[0].spec) <= self.policy_key(&pair[1].spec),
                "queue invariant: waiting list violates {} order ({} before {})",
                self.policy,
                pair[0].spec.id,
                pair[1].spec.id,
            );
        }
        for (i, job) in self.waiting.iter().enumerate() {
            assert!(
                !self.waiting[i + 1..].iter().any(|other| other.spec.id == job.spec.id),
                "queue invariant: {} queued twice on one node",
                job.spec.id,
            );
        }
        if let Some(running) = &self.running {
            assert!(
                !self.is_waiting(running.spec.id),
                "queue invariant: {} both running and waiting",
                running.spec.id,
            );
        }
    }
}

/// NAL (§III-C) of jobs paired with their ETCs: minus the total slack
/// when every job is on time, else the total lateness of the late jobs.
/// A job without a deadline is on time with zero slack: it occupies
/// executor time but contributes no lateness of its own.
fn nal<'a>(completions: impl Iterator<Item = (&'a QueuedJob, SimTime)>) -> i64 {
    let (slack, late) = completions.fold((0, 0), |(slack, late), (job, etc)| {
        match job.spec.deadline.map_or(0, |d| d.signed_delta(etc)) {
            gamma if gamma >= 0 => (slack + gamma, late),
            gamma => (slack, late - gamma),
        }
    });
    if late == 0 {
        -slack
    } else {
        late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobPriority, JobRequirements};
    use crate::resources::{Architecture, OperatingSystem, PerfIndex};

    fn profile() -> NodeProfile {
        NodeProfile::new(Architecture::Amd64, OperatingSystem::Linux, 8, 8, PerfIndex::BASELINE)
    }

    fn fast_profile() -> NodeProfile {
        NodeProfile::new(
            Architecture::Amd64,
            OperatingSystem::Linux,
            8,
            8,
            PerfIndex::new(2.0).unwrap(),
        )
    }

    fn req() -> JobRequirements {
        JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1)
    }

    fn batch(id: u64, hours: u64) -> JobSpec {
        JobSpec::batch(JobId::new(id), req(), SimDuration::from_hours(hours))
    }

    fn deadline(id: u64, ert_hours: u64, deadline_hours: u64) -> JobSpec {
        JobSpec::with_deadline(
            JobId::new(id),
            req(),
            SimDuration::from_hours(ert_hours),
            SimTime::from_hours(deadline_hours),
        )
    }

    fn ids(q: &SchedulerQueue) -> Vec<u64> {
        q.waiting().iter().map(|j| j.spec.id.raw()).collect()
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        for (i, h) in [(1, 3), (2, 1), (3, 2)] {
            q.enqueue(batch(i, h), SimTime::from_mins(i), &profile());
        }
        assert_eq!(ids(&q), [1, 2, 3]);
    }

    #[test]
    fn sjf_orders_by_ert_stable() {
        let mut q = SchedulerQueue::new(Policy::Sjf);
        q.enqueue(batch(1, 3), SimTime::ZERO, &profile());
        q.enqueue(batch(2, 1), SimTime::ZERO, &profile());
        q.enqueue(batch(3, 2), SimTime::ZERO, &profile());
        q.enqueue(batch(4, 1), SimTime::ZERO, &profile()); // ties with 2: stays after
        assert_eq!(ids(&q), [2, 4, 3, 1]);
    }

    #[test]
    fn ljf_orders_by_ert_descending() {
        let mut q = SchedulerQueue::new(Policy::Ljf);
        q.enqueue(batch(1, 1), SimTime::ZERO, &profile());
        q.enqueue(batch(2, 3), SimTime::ZERO, &profile());
        q.enqueue(batch(3, 2), SimTime::ZERO, &profile());
        assert_eq!(ids(&q), [2, 3, 1]);
    }

    #[test]
    fn priority_orders_descending_fifo_within_level() {
        let mut q = SchedulerQueue::new(Policy::Priority);
        q.enqueue(batch(1, 1).priority(JobPriority(1)), SimTime::ZERO, &profile());
        q.enqueue(batch(2, 1).priority(JobPriority(5)), SimTime::ZERO, &profile());
        q.enqueue(batch(3, 1).priority(JobPriority(5)), SimTime::ZERO, &profile());
        q.enqueue(batch(4, 1).priority(JobPriority(3)), SimTime::ZERO, &profile());
        assert_eq!(ids(&q), [2, 3, 4, 1]);
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        q.enqueue(deadline(1, 1, 10), SimTime::ZERO, &profile());
        q.enqueue(deadline(2, 1, 5), SimTime::ZERO, &profile());
        q.enqueue(deadline(3, 1, 7), SimTime::ZERO, &profile());
        assert_eq!(ids(&q), [2, 3, 1]);
    }

    #[test]
    fn start_next_pops_head_and_sets_expected_end() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        q.enqueue(batch(1, 2), SimTime::ZERO, &fast_profile());
        let now = SimTime::from_mins(5);
        let running = q.start_next(now).unwrap();
        assert_eq!(running.spec.id.raw(), 1);
        // 2h ERT on a p=2 node => 1h ERTp.
        assert_eq!(running.expected_end, now + SimDuration::from_hours(1));
        assert!(q.waiting().is_empty());
        // Executor busy: no second start.
        assert!(q.start_next(now).is_none());
        let done = q.complete_running().unwrap();
        assert_eq!(done.spec.id.raw(), 1);
        assert!(q.is_idle());
    }

    #[test]
    fn start_next_on_empty_queue_is_none() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        assert!(q.start_next(SimTime::ZERO).is_none());
        assert!(q.complete_running().is_none());
    }

    #[test]
    fn remove_waiting_only_removes_waiting() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        q.enqueue(batch(1, 1), SimTime::ZERO, &profile());
        q.enqueue(batch(2, 1), SimTime::ZERO, &profile());
        q.start_next(SimTime::ZERO);
        // Job 1 is running: cannot be removed.
        assert!(q.remove_waiting(JobId::new(1)).is_none());
        assert!(q.is_waiting(JobId::new(2)));
        let removed = q.remove_waiting(JobId::new(2)).unwrap();
        assert_eq!(removed.spec.id.raw(), 2);
        assert!(!q.is_waiting(JobId::new(2)));
    }

    #[test]
    fn ettc_accounts_for_running_and_queue_position() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.enqueue(batch(1, 2), SimTime::ZERO, &p);
        q.start_next(SimTime::ZERO);
        q.enqueue(batch(2, 3), SimTime::ZERO, &p);
        // At t=1h: 1h left of job 1, then 3h of job 2, then the candidate's 1h.
        let now = SimTime::from_hours(1);
        let ettc = q.ettc_of_candidate(&batch(3, 1), now, &p);
        assert_eq!(ettc, SimDuration::from_hours(5));
    }

    #[test]
    fn ettc_on_idle_node_is_own_ertp() {
        let q = SchedulerQueue::new(Policy::Fcfs);
        let ettc = q.ettc_of_candidate(&batch(1, 3), SimTime::ZERO, &fast_profile());
        assert_eq!(ettc, SimDuration::from_mins(90));
    }

    #[test]
    fn sjf_candidate_jumps_queue_in_ettc() {
        let mut q = SchedulerQueue::new(Policy::Sjf);
        let p = profile();
        q.enqueue(batch(1, 4), SimTime::ZERO, &p);
        // Short candidate is inserted before the 4h job.
        let ettc = q.ettc_of_candidate(&batch(2, 1), SimTime::ZERO, &p);
        assert_eq!(ettc, SimDuration::from_hours(1));
        // Long candidate queues behind it.
        let ettc_long = q.ettc_of_candidate(&batch(3, 4), SimTime::ZERO, &p);
        assert_eq!(ettc_long, SimDuration::from_hours(8));
    }

    #[test]
    fn ettc_of_waiting_matches_position() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.enqueue(batch(1, 2), SimTime::ZERO, &p);
        q.enqueue(batch(2, 3), SimTime::ZERO, &p);
        assert_eq!(
            q.ettc_of_waiting(JobId::new(1), SimTime::ZERO),
            Some(SimDuration::from_hours(2))
        );
        assert_eq!(
            q.ettc_of_waiting(JobId::new(2), SimTime::ZERO),
            Some(SimDuration::from_hours(5))
        );
        assert_eq!(q.ettc_of_waiting(JobId::new(9), SimTime::ZERO), None);
    }

    #[test]
    fn nal_all_on_time_is_negative_slack_sum() {
        let q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        // Idle node, candidate finishes at 1h, deadline 5h => gamma = 4h.
        let nal = q.nal_of_candidate(&deadline(1, 1, 5), SimTime::ZERO, &p);
        assert_eq!(nal, -(4 * 3_600_000));
    }

    #[test]
    fn nal_miss_contributes_positive_lateness() {
        let q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        // Candidate finishes at 3h but deadline is 1h => late by 2h.
        let nal = q.nal_of_candidate(&deadline(1, 3, 1), SimTime::ZERO, &p);
        assert_eq!(nal, 2 * 3_600_000);
    }

    #[test]
    fn nal_mixed_queue_zeroes_on_time_jobs() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        // Existing job: 2h ERT, deadline 10h — comfortably on time.
        q.enqueue(deadline(1, 2, 10), SimTime::ZERO, &p);
        // Candidate with deadline 1h runs first (EDF) and finishes at 3h?
        // No: EDF puts deadline-1h candidate before the 10h job, so it
        // finishes at 3h only if it runs second. Candidate ERT 3h, runs
        // first, finishes at 3h, deadline 1h => late by 2h. Existing job
        // then finishes at 5h, deadline 10h => on time, contributes 0.
        let nal = q.nal_of_candidate(&deadline(2, 3, 1), SimTime::ZERO, &p);
        assert_eq!(nal, 2 * 3_600_000);
    }

    #[test]
    fn nal_prefers_less_loaded_node() {
        let p = profile();
        let empty = SchedulerQueue::new(Policy::Edf);
        let mut loaded = SchedulerQueue::new(Policy::Edf);
        loaded.enqueue(deadline(1, 3, 20), SimTime::ZERO, &p);
        let candidate = deadline(9, 2, 20);
        let cost_empty = loaded.policy(); // silence unused warning path
        let _ = cost_empty;
        let nal_empty = empty.nal_of_candidate(&candidate, SimTime::ZERO, &p);
        let nal_loaded = loaded.nal_of_candidate(&candidate, SimTime::ZERO, &p);
        // Both on time everywhere; the loaded node has less slack in
        // total? Empty: candidate gamma = 18h => -18h. Loaded: candidate
        // finishes 2h (EDF by deadline ties stable => candidate after job
        // 1? ties: equal deadlines, stable puts candidate after job 1).
        // Job1 finishes 3h (slack 17h), candidate finishes 5h (slack 15h)
        // => NAL = -32h. Lower (better) on the loaded node!
        // This mirrors the paper's observation that NAL rewards overall
        // slack, not just the candidate's own completion.
        assert!(nal_loaded < nal_empty);
        assert_eq!(nal_empty, -(18 * 3_600_000));
        assert_eq!(nal_loaded, -(32 * 3_600_000));
    }

    #[test]
    fn cost_of_candidate_dispatches_on_policy() {
        let p = profile();
        let batch_q = SchedulerQueue::new(Policy::Sjf);
        let c = batch_q.cost_of_candidate(&batch(1, 2), SimTime::ZERO, &p);
        assert_eq!(c, Cost::from_ettc(SimDuration::from_hours(2)));

        let edf_q = SchedulerQueue::new(Policy::Edf);
        let c = edf_q.cost_of_candidate(&deadline(1, 1, 3), SimTime::ZERO, &p);
        assert_eq!(c, Cost::from_nal(-2 * 3_600_000));
    }

    #[test]
    fn cost_ordering_lower_is_better() {
        let a = Cost::from_ettc(SimDuration::from_hours(1));
        let b = Cost::from_ettc(SimDuration::from_hours(2));
        assert!(a < b);
        assert_eq!(b.improvement_over(a), -3_600_000);
        assert_eq!(a.improvement_over(b), 3_600_000);
        let n = Cost::from_nal(-5000);
        assert!(n < a);
    }

    #[test]
    fn inform_candidates_batch_prefers_longest_waiting() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.enqueue(batch(1, 1), SimTime::from_mins(0), &p);
        q.enqueue(batch(2, 1), SimTime::from_mins(30), &p);
        q.enqueue(batch(3, 1), SimTime::from_mins(10), &p);
        let offers = q.inform_offers(SimTime::from_hours(1), 2);
        // Each pick is advertised at its own ETTC: job 1 ends at 2h, job 3 at 4h.
        let hours = |h| Cost::from_ettc(SimDuration::from_hours(h));
        assert_eq!(offers, [(JobId::new(1), hours(1)), (JobId::new(3), hours(3))]);
    }

    #[test]
    fn inform_candidates_edf_prefers_least_slack() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        q.enqueue(deadline(1, 2, 30), SimTime::ZERO, &p);
        q.enqueue(deadline(2, 2, 5), SimTime::ZERO, &p);
        q.enqueue(deadline(3, 2, 10), SimTime::ZERO, &p);
        let offers = q.inform_offers(SimTime::ZERO, 2);
        // EDF order: 2 (ETC 2h, slack 3h), 3 (ETC 4h, slack 6h), 1 (ETC 6h, slack 24h).
        let picks: Vec<JobId> = offers.iter().map(|&(id, _)| id).collect();
        assert_eq!(picks, [JobId::new(2), JobId::new(3)]);
        // Every pick is advertised at the queue's NAL: -(3h + 6h + 24h).
        assert!(offers.iter().all(|&(_, cost)| cost == Cost::from_nal(-33 * 3_600_000)));
    }

    #[test]
    fn inform_candidates_respects_limit_and_empty() {
        let q = SchedulerQueue::new(Policy::Fcfs);
        assert!(q.inform_offers(SimTime::ZERO, 2).is_empty());
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        q.enqueue(batch(1, 1), SimTime::ZERO, &profile());
        assert_eq!(q.inform_offers(SimTime::from_mins(1), 4).len(), 1);
        assert!(q.inform_offers(SimTime::from_mins(1), 0).is_empty());
    }

    #[test]
    fn inform_offers_edf_slack_honours_reservations() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        q.add_reservation(Reservation::new(SimTime::from_hours(2), SimTime::from_hours(11)))
            .unwrap();
        q.enqueue(deadline(1, 2, 10), SimTime::ZERO, &p); // A: runs first, ends 2h, slack 8h
        q.enqueue(deadline(2, 1, 12), SimTime::ZERO, &p); // B: pushed past the window to 12h, slack 0
                                                          // A calendar-blind model would see B end at 3h (slack 9h) and pick A.
        let offers = q.inform_offers(SimTime::ZERO, 1);
        assert_eq!(offers, [(JobId::new(2), Cost::from_nal(-8 * 3_600_000))]);
    }

    #[test]
    fn backlog_sums_running_and_waiting() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.enqueue(batch(1, 2), SimTime::ZERO, &p);
        q.enqueue(batch(2, 3), SimTime::ZERO, &p);
        q.start_next(SimTime::ZERO);
        assert_eq!(q.backlog(SimTime::from_hours(1)), SimDuration::from_hours(4));
        assert_eq!(q.backlog(SimTime::from_hours(10)), SimDuration::from_hours(3));
    }

    #[test]
    fn remaining_running_saturates_past_expected_end() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        q.enqueue(batch(1, 1), SimTime::ZERO, &profile());
        q.start_next(SimTime::ZERO);
        assert_eq!(q.remaining_running(SimTime::from_hours(2)), SimDuration::ZERO);
    }

    #[test]
    fn drain_waiting_empties_queue_but_not_executor() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.enqueue(batch(1, 1), SimTime::ZERO, &p);
        q.enqueue(batch(2, 2), SimTime::ZERO, &p);
        q.enqueue(batch(3, 3), SimTime::ZERO, &p);
        q.start_next(SimTime::ZERO);
        let drained = q.drain_waiting();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].spec.id.raw(), 2);
        assert_eq!(q.waiting_len(), 0);
        assert!(q.running().is_some(), "draining must not touch the executor");
        assert!(q.drain_waiting().is_empty());
    }

    #[test]
    fn reservations_gate_dispatch() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        // Reserve [1h, 2h); a 2h job at t=0 cannot start (would overlap).
        q.add_reservation(Reservation::new(SimTime::from_hours(1), SimTime::from_hours(2)))
            .unwrap();
        q.enqueue(batch(1, 2), SimTime::ZERO, &p);
        assert!(q.start_next(SimTime::ZERO).is_none());
        // Dispatch should be retried when the reservation ends.
        assert_eq!(q.next_dispatch_at(SimTime::ZERO), Some(SimTime::from_hours(2)));
        // Inside the window: executor reserved.
        assert!(q.start_next(SimTime::from_mins(90)).is_none());
        assert_eq!(q.next_dispatch_at(SimTime::from_mins(90)), Some(SimTime::from_hours(2)));
        // After the window the job starts.
        assert!(q.start_next(SimTime::from_hours(2)).is_some());
        assert_eq!(q.next_dispatch_at(SimTime::from_hours(2)), None);
    }

    #[test]
    fn short_job_fits_before_reservation() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.add_reservation(Reservation::new(SimTime::from_hours(3), SimTime::from_hours(4)))
            .unwrap();
        q.enqueue(batch(1, 2), SimTime::ZERO, &p);
        let running = q.start_next(SimTime::ZERO).unwrap();
        assert_eq!(running.spec.id.raw(), 1);
    }

    #[test]
    fn backfill_lets_fitting_job_jump_ahead() {
        let p = profile();
        let setup = |policy: Policy| {
            let mut q = SchedulerQueue::new(policy);
            q.add_reservation(Reservation::new(SimTime::from_hours(2), SimTime::from_hours(3)))
                .unwrap();
            q.enqueue(batch(1, 3), SimTime::ZERO, &p); // head: does not fit before 2h
            q.enqueue(batch(2, 1), SimTime::ZERO, &p); // fits the 2h gap
            q
        };
        // Plain FCFS: strict order, nothing starts until the window ends.
        let mut fcfs = setup(Policy::Fcfs);
        assert!(fcfs.start_next(SimTime::ZERO).is_none());
        assert_eq!(fcfs.next_dispatch_at(SimTime::ZERO), Some(SimTime::from_hours(3)));
        // Backfill: job 2 jumps ahead into the gap.
        let mut backfill = setup(Policy::Backfill);
        let running = backfill.start_next(SimTime::ZERO).unwrap();
        assert_eq!(running.spec.id.raw(), 2);
        assert_eq!(backfill.waiting()[0].spec.id.raw(), 1);
    }

    #[test]
    fn ettc_accounts_for_reservations() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        let p = profile();
        q.add_reservation(Reservation::new(SimTime::from_hours(1), SimTime::from_hours(5)))
            .unwrap();
        // A 2h candidate cannot finish before the window: it runs at 5h,
        // completing at 7h => ETTC 7h.
        let ettc = q.ettc_of_candidate(&batch(1, 2), SimTime::ZERO, &p);
        assert_eq!(ettc, SimDuration::from_hours(7));
        // A 1h candidate fits before the window: ETTC 1h.
        let ettc = q.ettc_of_candidate(&batch(2, 1), SimTime::ZERO, &p);
        assert_eq!(ettc, SimDuration::from_hours(1));
    }

    #[test]
    fn nal_accounts_for_reservations() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        q.add_reservation(Reservation::new(SimTime::from_hours(1), SimTime::from_hours(6)))
            .unwrap();
        // 2h job with a 4h deadline: without the reservation it would be
        // on time; the window pushes completion to 8h => 4h late.
        let nal = q.nal_of_candidate(&deadline(1, 2, 4), SimTime::ZERO, &p);
        assert_eq!(nal, 4 * 3_600_000);
    }

    #[test]
    fn conflicting_reservation_is_rejected() {
        let mut q = SchedulerQueue::new(Policy::Fcfs);
        q.add_reservation(Reservation::new(SimTime::from_hours(1), SimTime::from_hours(2)))
            .unwrap();
        let err = q
            .add_reservation(Reservation::new(SimTime::from_mins(90), SimTime::from_hours(3)))
            .unwrap_err();
        assert_eq!(err.existing.start, SimTime::from_hours(1));
        assert_eq!(q.calendar().windows().len(), 1);
    }

    #[test]
    fn edf_jobs_without_deadline_go_last() {
        let mut q = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        q.enqueue(batch(1, 1), SimTime::ZERO, &p);
        q.enqueue(deadline(2, 1, 50), SimTime::ZERO, &p);
        assert_eq!(ids(&q), [2, 1]);
    }
}
