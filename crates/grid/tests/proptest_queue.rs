//! Property-based tests for the local scheduler queue: conservation,
//! policy ordering, and cost-function invariants under arbitrary job
//! streams.

use aria_grid::{
    Architecture, Cost, JobId, JobPriority, JobRequirements, JobSpec, NodeProfile, OperatingSystem,
    PerfIndex, Policy, Reservation, SchedulerQueue,
};
use aria_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn profile(perf: f64) -> NodeProfile {
    NodeProfile::new(
        Architecture::Amd64,
        OperatingSystem::Linux,
        8,
        8,
        PerfIndex::new(perf).expect("valid perf"),
    )
}

prop_compose! {
    fn arb_job()(
        id in 0u64..10_000,
        ert_mins in 30u64..300,
        deadline_mins in proptest::option::of(60u64..3000),
        priority in 0u8..8,
    ) -> JobSpec {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let base = match deadline_mins {
            Some(d) => JobSpec::with_deadline(
                JobId::new(id),
                req,
                SimDuration::from_mins(ert_mins),
                SimTime::from_mins(d),
            ),
            None => JobSpec::batch(JobId::new(id), req, SimDuration::from_mins(ert_mins)),
        };
        base.priority(JobPriority(priority))
    }
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Sjf),
        Just(Policy::Ljf),
        Just(Policy::Backfill),
        Just(Policy::Priority),
        Just(Policy::Edf),
    ]
}

/// The sort key the queue must keep its waiting list ordered by.
fn policy_key(policy: Policy, spec: &JobSpec) -> i64 {
    match policy {
        Policy::Fcfs | Policy::Backfill => 0,
        Policy::Sjf => spec.ert.as_millis() as i64,
        Policy::Ljf => -(spec.ert.as_millis() as i64),
        Policy::Priority => -(spec.priority.0 as i64),
        Policy::Edf => spec.deadline.map_or(i64::MAX, |d| d.as_millis() as i64),
    }
}

/// The paper's NAL (§III-C) over a queue's execution order, with ETCs
/// from prefix sums of the `ERTp`s after `start`:
/// `Σ δ·|γ|` with `γ = deadline − ETC` (0 without a deadline) and
/// `δ = −1` when every `γ ≥ 0`, else `0` for on-time and `1` for late jobs.
fn reference_nal(queue: &SchedulerQueue, start: SimTime) -> i64 {
    let mut etc = start;
    let gammas: Vec<i64> = queue
        .waiting()
        .iter()
        .map(|job| {
            etc += job.ertp;
            job.spec.deadline.map_or(0, |d| d.signed_delta(etc))
        })
        .collect();
    let all_on_time = gammas.iter().all(|&g| g >= 0);
    gammas
        .iter()
        .map(|&g| match (all_on_time, g >= 0) {
            (true, _) => -g.abs(),
            (false, true) => 0,
            (false, false) => g.abs(),
        })
        .sum()
}

proptest! {
    /// Jobs are conserved: everything enqueued either waits, runs, or has
    /// completed, with no duplicates and no losses.
    #[test]
    fn jobs_are_conserved(
        jobs in proptest::collection::vec(arb_job(), 1..40),
        perf in 1.0f64..2.0,
        drain in 0usize..40,
    ) {
        let p = profile(perf);
        let mut queue = SchedulerQueue::new(Policy::Fcfs);
        let mut ids: Vec<JobId> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            // Skip duplicate ids the generator may produce.
            if ids.contains(&job.id) {
                continue;
            }
            ids.push(job.id);
            queue.enqueue(*job, SimTime::from_mins(i as u64), &p);
        }
        let mut completed = 0usize;
        for _ in 0..drain {
            if queue.start_next(SimTime::ZERO).is_some() {
                queue.complete_running();
                completed += 1;
            }
        }
        let waiting = queue.waiting_len();
        let running = usize::from(queue.running().is_some());
        prop_assert_eq!(completed + waiting + running, ids.len());
    }

    /// The waiting list is always sorted by the policy key (stable order).
    #[test]
    fn waiting_list_is_policy_ordered(
        jobs in proptest::collection::vec(arb_job(), 1..50),
        policy in arb_policy(),
    ) {
        let p = profile(1.0);
        let mut queue = SchedulerQueue::new(policy);
        for job in &jobs {
            queue.enqueue(*job, SimTime::ZERO, &p);
        }
        let keys: Vec<i64> =
            queue.waiting().iter().map(|j| policy_key(policy, &j.spec)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "unsorted: {keys:?}");
    }

    /// ETTC is at least the candidate's own scaled running time and grows
    /// (weakly) with queue contention ahead of it.
    #[test]
    fn ettc_lower_bound_is_own_ertp(
        jobs in proptest::collection::vec(arb_job(), 0..30),
        candidate in arb_job(),
        perf in 1.0f64..2.0,
    ) {
        let p = profile(perf);
        let mut queue = SchedulerQueue::new(Policy::Fcfs);
        let empty_ettc = queue.ettc_of_candidate(&candidate, SimTime::ZERO, &p);
        prop_assert_eq!(empty_ettc, p.ert_on(candidate.ert));
        for job in &jobs {
            queue.enqueue(*job, SimTime::ZERO, &p);
        }
        let loaded_ettc = queue.ettc_of_candidate(&candidate, SimTime::ZERO, &p);
        prop_assert!(loaded_ettc >= empty_ettc);
    }

    /// Under FCFS, adding any job to the queue never *decreases* another
    /// candidate's ETTC (no spooky speedups).
    #[test]
    fn fcfs_ettc_is_monotone_in_load(
        existing in arb_job(),
        extra in arb_job(),
        candidate in arb_job(),
    ) {
        let p = profile(1.5);
        let mut queue = SchedulerQueue::new(Policy::Fcfs);
        queue.enqueue(existing, SimTime::ZERO, &p);
        let before = queue.ettc_of_candidate(&candidate, SimTime::ZERO, &p);
        let extra = JobSpec { id: JobId::new(99_999), ..extra };
        queue.enqueue(extra, SimTime::ZERO, &p);
        let after = queue.ettc_of_candidate(&candidate, SimTime::ZERO, &p);
        prop_assert!(after >= before);
    }

    /// NAL is total and finite for any queue, and a queue where every job
    /// (including the candidate) has a huge deadline is all-on-time, i.e.
    /// the cost is non-positive.
    #[test]
    fn nal_sign_follows_feasibility(
        erts in proptest::collection::vec(30u64..120, 0..10),
        candidate_ert in 30u64..120,
    ) {
        let p = profile(1.0);
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let mut queue = SchedulerQueue::new(Policy::Edf);
        for (i, ert) in erts.iter().enumerate() {
            // Deadlines far beyond any possible backlog (10 jobs * 2h).
            let job = JobSpec::with_deadline(
                JobId::new(i as u64),
                req,
                SimDuration::from_mins(*ert),
                SimTime::from_hours(1000),
            );
            queue.enqueue(job, SimTime::ZERO, &p);
        }
        let relaxed = JobSpec::with_deadline(
            JobId::new(777),
            req,
            SimDuration::from_mins(candidate_ert),
            SimTime::from_hours(1000),
        );
        prop_assert!(queue.nal_of_candidate(&relaxed, SimTime::ZERO, &p) < 0);

        // An impossible candidate (deadline already passed) flips the cost
        // positive.
        let impossible = JobSpec::with_deadline(
            JobId::new(778),
            req,
            SimDuration::from_mins(candidate_ert),
            SimTime::ZERO,
        );
        prop_assert!(
            queue.nal_of_candidate(&impossible, SimTime::from_mins(1), &p) > 0
        );
    }

    /// Cost comparison is consistent with `improvement_over`.
    #[test]
    fn cost_improvement_is_antisymmetric(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let ca = Cost::from_nal(a);
        let cb = Cost::from_nal(b);
        prop_assert_eq!(ca.improvement_over(cb), -(cb.improvement_over(ca)));
        prop_assert_eq!(ca < cb, ca.improvement_over(cb) > 0);
    }

    /// `remove_waiting` removes exactly the requested job and preserves
    /// the order of the rest.
    #[test]
    fn remove_waiting_preserves_others(
        jobs in proptest::collection::vec(arb_job(), 2..30),
        pick in 0usize..30,
    ) {
        let p = profile(1.0);
        let mut queue = SchedulerQueue::new(Policy::Sjf);
        let mut seen = std::collections::BTreeSet::new();
        for job in &jobs {
            if seen.insert(job.id) {
                queue.enqueue(*job, SimTime::ZERO, &p);
            }
        }
        let order_before: Vec<JobId> = queue.waiting().iter().map(|j| j.spec.id).collect();
        let victim = order_before[pick % order_before.len()];
        let removed = queue.remove_waiting(victim).expect("victim is waiting");
        prop_assert_eq!(removed.spec.id, victim);
        let order_after: Vec<JobId> = queue.waiting().iter().map(|j| j.spec.id).collect();
        let expected: Vec<JobId> =
            order_before.into_iter().filter(|&id| id != victim).collect();
        prop_assert_eq!(order_after, expected);
    }

    /// INFORM offers come from the same completion walk as the quotes:
    /// each advertised cost is the job's `cost_of_waiting`, the picks are
    /// distinct waiting jobs, and there are `min(k, waiting_len)` of them.
    /// On an empty calendar, `nal_of_candidate` is the paper's formula.
    #[test]
    fn inform_offers_price_like_quotes(
        jobs in proptest::collection::vec(arb_job(), 0..30),
        candidate in arb_job(),
        policy in arb_policy(),
        reservation in proptest::option::of((0u64..600, 30u64..300)),
        run_one in any::<bool>(),
        now_mins in 0u64..600,
        k in 0usize..8,
    ) {
        let p = profile(1.5);
        let mut queue = SchedulerQueue::new(policy);
        if let Some((start, mins)) = reservation {
            let window =
                Reservation::starting_at(SimTime::from_mins(start), SimDuration::from_mins(mins));
            queue.add_reservation(window).expect("first reservation never conflicts");
        }
        for (i, job) in jobs.iter().enumerate() {
            if !queue.is_waiting(job.id) {
                queue.enqueue(*job, SimTime::from_mins(i as u64), &p);
            }
        }
        if run_one {
            queue.start_next(SimTime::ZERO);
        }
        let now = SimTime::from_mins(now_mins);

        let offers = queue.inform_offers(now, k);
        prop_assert_eq!(offers.len(), k.min(queue.waiting_len()));
        for (i, &(id, cost)) in offers.iter().enumerate() {
            prop_assert!(queue.is_waiting(id));
            prop_assert!(offers[..i].iter().all(|&(other, _)| other != id), "{id} offered twice");
            prop_assert_eq!(Some(cost), queue.cost_of_waiting(id, now));
        }

        if reservation.is_none() {
            let candidate = JobSpec { id: JobId::new(99_999), ..candidate };
            let mut with_candidate = queue.clone();
            with_candidate.enqueue(candidate, now, &p);
            let start = now + queue.remaining_running(now);
            prop_assert_eq!(
                queue.nal_of_candidate(&candidate, now, &p),
                reference_nal(&with_candidate, start)
            );
        }
    }
}
