//! The comparators ARiA is argued against, over one grid substrate.
//!
//! The paper motivates ARiA against "centralized or hierarchical
//! meta-schedulers that have a global view of the resources" (§II) and
//! contrasts it with two decentralized schemes from its related work:
//! multiple simultaneous requests (its reference \[13\]: Subramani et
//! al., HPDC 2002) and gossip-disseminated load caches (\[25\]: Erdil &
//! Lewis, P2P 2007). A [`Baseline`] grid runs any of them on the same
//! node and job models as the distributed [`crate::World`]; the
//! [`Comparator`] only decides where a submitted job is queued.
//!
//! * [`Comparator::Central`] sees every queue instantly and queues each
//!   job at the globally cheapest matching node (ETTC/NAL), with zero
//!   messaging cost or latency. It is an *upper bound* on
//!   initial-placement quality: ARiA's discovery flood only samples the
//!   grid, while the central scheduler inspects all of it. It has no
//!   rescheduling phase.
//! * [`Comparator::Gossip`]: nodes periodically push load digests to
//!   random overlay neighbors, every node accumulates a (staleness-prone)
//!   cache of remote backlogs, and a job is placed straight from a random
//!   initiator's cache — no discovery round trip, but decisions are made
//!   on old news. It pays a constant gossip bandwidth where ARiA pays
//!   per-job flood bandwidth for fresh offers. Node resource *profiles*
//!   are static metadata assumed globally known — in a deployment they
//!   would ride along the same gossip messages once.
//! * [`Comparator::MultiRequest`] queues each job at the `replicas`
//!   least-loaded matching sites at once ("submitting a job to the least
//!   loaded sites and subsequently revoking it on all but the one that
//!   has commenced its execution"); when one copy starts, the others are
//!   revoked after a small notification latency. The paper calls out the
//!   drawback: many schedulers are loaded with jobs that are frequently
//!   cancelled.

use aria_grid::{JobId, JobSpec, NodeProfile, SchedulerQueue};
use aria_metrics::{MetricsCollector, TrafficClass};
use aria_overlay::{builders, LatencyModel, NodeId, Topology};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{ArtModel, JobGenerator, ProfileGenerator, SubmissionSchedule};
use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::config::PolicyMix;
use crate::logic;

/// How often each gossip node pushes a digest (anti-entropy period).
const GOSSIP_PERIOD: SimDuration = SimDuration::from_mins(1);
/// Neighbors contacted per gossip round.
const GOSSIP_FANOUT: usize = 2;
/// Entries carried per gossip digest.
const DIGEST_SIZE: usize = 16;
/// Delay before a multi-request revocation reaches a replica's site.
const REVOKE_LATENCY: SimDuration = SimDuration::from_millis(300);

/// How a [`Baseline`] grid places submitted jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// An omniscient centralized meta-scheduler (§II).
    ///
    /// # Example
    ///
    /// ```
    /// use aria_core::{Baseline, Comparator, PolicyMix};
    /// use aria_grid::Policy;
    /// use aria_workload::{JobGenerator, SubmissionSchedule};
    /// use aria_sim::{SimDuration, SimTime};
    ///
    /// let mut central = Baseline::new(
    ///     Comparator::Central,
    ///     50,
    ///     PolicyMix::Uniform(Policy::Fcfs),
    ///     SimTime::from_hours(12),
    ///     SimDuration::from_mins(5),
    ///     1,
    /// );
    /// let mut jobs = JobGenerator::paper_batch();
    /// let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 10);
    /// central.submit_schedule(&schedule, &mut jobs);
    /// assert_eq!(central.run().completed_count(), 10);
    /// ```
    Central,
    /// Placement from gossip-disseminated load caches (\[25\]).
    ///
    /// # Example
    ///
    /// ```
    /// use aria_core::{Baseline, Comparator, PolicyMix};
    /// use aria_workload::{JobGenerator, SubmissionSchedule};
    /// use aria_sim::{SimDuration, SimTime};
    ///
    /// let mut grid = Baseline::new(
    ///     Comparator::Gossip,
    ///     50,
    ///     PolicyMix::paper_mixed(),
    ///     SimTime::from_hours(12),
    ///     SimDuration::from_mins(5),
    ///     1,
    /// );
    /// let mut jobs = JobGenerator::paper_batch();
    /// let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_mins(1), 10);
    /// grid.submit_schedule(&schedule, &mut jobs);
    /// assert_eq!(grid.run().completed_count(), 10);
    /// ```
    Gossip,
    /// Multiple simultaneous requests with revocation (\[13\]).
    ///
    /// # Example
    ///
    /// ```
    /// use aria_core::{Baseline, Comparator, PolicyMix};
    /// use aria_grid::Policy;
    /// use aria_workload::{JobGenerator, SubmissionSchedule};
    /// use aria_sim::{SimDuration, SimTime};
    ///
    /// let mut grid = Baseline::new(
    ///     Comparator::MultiRequest { replicas: 3 },
    ///     50,
    ///     PolicyMix::Uniform(Policy::Fcfs),
    ///     SimTime::from_hours(12),
    ///     SimDuration::from_mins(5),
    ///     1,
    /// );
    /// let mut jobs = JobGenerator::paper_batch();
    /// let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 10);
    /// grid.submit_schedule(&schedule, &mut jobs);
    /// assert_eq!(grid.run().completed_count(), 10);
    /// ```
    MultiRequest {
        /// Sites each job is queued at; at least one.
        replicas: usize,
    },
}

/// One cached observation of a remote node's load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheEntry {
    /// The remote queue's estimated backlog when observed.
    backlog: SimDuration,
    /// When the observation was made (at the observed node).
    observed_at: SimTime,
}

/// A gossip digest: the sender's freshest observations, freshest first.
type Digest = Vec<(usize, CacheEntry)>;

/// The total freshness order of cache entries: newest first, ties by id.
fn freshness(&(node, entry): &(usize, CacheEntry)) -> (Reverse<SimTime>, usize) {
    (Reverse(entry.observed_at), node)
}

/// One gossip node's view of the grid: a dense row of observations
/// indexed by node id, and the [`DIGEST_SIZE`] freshest of them in
/// [`freshness`] order, kept exact as the row changes.
///
/// The list stays exact because an entry's key only ever gets fresher:
/// an entry that drops out of the top k can only come back by being
/// updated, which goes through [`Cache::observe`].
#[derive(Debug, Clone)]
struct Cache {
    row: Vec<Option<CacheEntry>>,
    freshest: Digest,
}

impl Cache {
    fn new(nodes: usize) -> Self {
        Cache { row: vec![None; nodes], freshest: Vec::with_capacity(DIGEST_SIZE + 1) }
    }

    /// Records an observation of `node` at least as fresh as the cached one.
    fn observe(&mut self, node: usize, entry: CacheEntry) {
        self.row[node] = Some(entry);
        if let Some(pos) = self.freshest.iter().position(|&(i, _)| i == node) {
            self.freshest.remove(pos);
        }
        let key = freshness(&(node, entry));
        let pos = self.freshest.partition_point(|e| freshness(e) < key);
        if pos < DIGEST_SIZE {
            self.freshest.insert(pos, (node, entry));
            self.freshest.truncate(DIGEST_SIZE);
        }
    }

    /// Anti-entropy merge into `own`'s cache: keep the freshest
    /// observation per node (a node is its own best source of truth).
    fn merge(&mut self, own: usize, digest: &[(usize, CacheEntry)]) {
        for &(node, entry) in digest {
            let stale = self.row[node].is_some_and(|e| e.observed_at >= entry.observed_at);
            if node != own && !stale {
                self.observe(node, entry);
            }
        }
    }
}

/// Gossip's own state: the peering overlay and every node's cache.
#[derive(Debug)]
struct Gossip {
    topology: Topology,
    latency: LatencyModel,
    caches: Vec<Cache>,
    /// Scratch buffer for per-round neighbor sampling.
    peers: Vec<NodeId>,
}

/// Each comparator's own state.
#[derive(Debug)]
enum Rule {
    Central,
    Gossip(Gossip),
    MultiRequest { replicas: usize },
}

impl Rule {
    fn gossip(&mut self) -> &mut Gossip {
        match self {
            Rule::Gossip(gossip) => gossip,
            _ => unreachable!("only a gossip grid schedules gossip events"),
        }
    }
}

#[derive(Debug, Clone)]
enum Event {
    Submit {
        job: JobSpec,
    },
    Complete {
        node: usize,
    },
    Sample,
    /// Multi-request: cancel a queued replica of a job started elsewhere.
    Revoke {
        node: usize,
        job: JobId,
    },
    /// Gossip: one node's periodic digest push.
    GossipTick {
        node: usize,
    },
    /// Gossip: a digest arriving at its neighbor.
    DeliverDigest {
        to: usize,
        digest: Digest,
    },
}

/// A grid scheduled by one of ARiA's comparators, over the same node and
/// job models as the distributed [`crate::World`].
///
/// Each [`Comparator`] variant carries an example run.
#[derive(Debug)]
pub struct Baseline {
    profiles: Vec<NodeProfile>,
    queues: Vec<SchedulerQueue>,
    events: EventQueue<Event>,
    metrics: MetricsCollector,
    rng: SimRng,
    art: ArtModel,
    horizon: SimTime,
    sample_period: SimDuration,
    rule: Rule,
    /// Sites still holding a queued copy of each unstarted job: one for
    /// Central and Gossip, up to `replicas` for MultiRequest.
    sites: BTreeMap<JobId, Vec<usize>>,
    /// Replicas enqueued then cancelled (multi-request's wasted work).
    revoked_replicas: u64,
}

impl Baseline {
    /// Builds a grid of `nodes` nodes scheduled by `comparator`;
    /// deterministic in the seed, with the same profile distributions as
    /// the distributed world. Gossip peers over a degree-4 random overlay.
    ///
    /// # Panics
    ///
    /// Panics if a [`Comparator::MultiRequest`] asks for zero replicas.
    pub fn new(
        comparator: Comparator,
        nodes: usize,
        policies: PolicyMix,
        horizon: SimTime,
        sample_period: SimDuration,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        // Gossip forks its overlay stream before the profile stream.
        let rule = match comparator {
            Comparator::Central => Rule::Central,
            Comparator::Gossip => {
                let latency = LatencyModel::default();
                let topology = builders::random_regular(nodes, 4, &latency, &mut rng.fork(1));
                let caches = vec![Cache::new(nodes); nodes];
                Rule::Gossip(Gossip { topology, latency, caches, peers: Vec::new() })
            }
            Comparator::MultiRequest { replicas } => {
                assert!(replicas > 0, "at least one replica is required");
                Rule::MultiRequest { replicas }
            }
        };
        // Every profile is drawn before every policy.
        let mut profile_rng = rng.fork(2);
        let generator = ProfileGenerator::paper();
        let profiles: Vec<NodeProfile> =
            (0..nodes).map(|_| generator.generate(&mut profile_rng)).collect();
        let queues: Vec<SchedulerQueue> =
            (0..nodes).map(|_| SchedulerQueue::new(policies.sample(&mut profile_rng))).collect();
        let mut events = EventQueue::new();
        events.schedule(SimTime::ZERO, Event::Sample);
        if comparator == Comparator::Gossip {
            // Stagger the gossip rounds like ARiA staggers INFORM ticks.
            for node in 0..nodes {
                let offset = SimDuration::from_millis(rng.u64_range(0, GOSSIP_PERIOD.as_millis()));
                events.schedule(SimTime::ZERO + offset, Event::GossipTick { node });
            }
        }
        Baseline {
            profiles,
            queues,
            events,
            metrics: MetricsCollector::new(sample_period),
            rng,
            art: ArtModel::paper_baseline(),
            horizon,
            sample_period,
            rule,
            sites: BTreeMap::new(),
            revoked_replicas: 0,
        }
    }

    /// Replicas that were enqueued and later revoked — the overload the
    /// paper criticizes multiple simultaneous requests for (always zero
    /// for the other comparators).
    pub fn revoked_replicas(&self) -> u64 {
        self.revoked_replicas
    }

    /// Schedules a job submission.
    pub fn submit_job(&mut self, at: SimTime, job: JobSpec) {
        self.events.schedule(at, Event::Submit { job });
    }

    /// Generates and schedules one feasible job per schedule instant.
    pub fn submit_schedule(&mut self, schedule: &SubmissionSchedule, jobs: &mut JobGenerator) {
        let mut workload_rng = self.rng.fork(3);
        for at in schedule.times() {
            let job = jobs.generate_feasible(at, &self.profiles, &mut workload_rng);
            self.submit_job(at, job);
        }
    }

    /// Runs to completion and returns the metrics.
    pub fn run(&mut self) -> &MetricsCollector {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Submit { job } => self.submit(now, job),
                Event::Complete { node } => self.complete(now, node),
                Event::Sample => self.sample(now),
                Event::Revoke { node, job } => {
                    if self.queues[node].remove_waiting(job).is_some() {
                        self.revoked_replicas += 1;
                    }
                }
                Event::GossipTick { node } => self.gossip_tick(now, node),
                Event::DeliverDigest { to, digest } => {
                    self.rule.gossip().caches[to].merge(to, &digest)
                }
            }
        }
        &self.metrics
    }

    /// Queues a submitted job at the sites its comparator picks; a job
    /// no node can run is left with an incomplete record.
    fn submit(&mut self, now: SimTime, job: JobSpec) {
        self.metrics.job_submitted(&job, now);
        let sites = self.place(now, &job);
        if sites.is_empty() {
            return;
        }
        self.metrics.job_assigned(job.id, now, false);
        self.sites.insert(job.id, sites.clone());
        for site in sites {
            let profile = self.profiles[site];
            self.queues[site].enqueue(job, now, &profile);
            self.try_start(now, site);
        }
    }

    /// The comparator's placement rule: the sites to queue `job` at.
    fn place(&mut self, now: SimTime, job: &JobSpec) -> Vec<usize> {
        let nodes = self.queues.len();
        let eligible =
            |i: &usize| logic::can_bid(&self.profiles[*i], self.queues[*i].policy(), job);
        match &self.rule {
            // The globally cheapest matching node.
            Rule::Central => (0..nodes)
                .filter(eligible)
                .min_by_key(|&i| self.queues[i].cost_of_candidate(job, now, &self.profiles[i]))
                .into_iter()
                .collect(),
            // The matching node with the smallest *observed* backlog in a
            // random initiator's cache (ties: lowest id). Only when the
            // cache knows no matching node (cold start) does a random
            // matching node take it — a real system would flood or wait;
            // this keeps the comparison fair to gossip.
            Rule::Gossip(gossip) => {
                let initiator = self.rng.index(nodes);
                let cached_best = gossip.caches[initiator]
                    .row
                    .iter()
                    .enumerate()
                    .filter_map(|(i, entry)| Some((i, (*entry)?)))
                    .filter(|(i, _)| eligible(i))
                    .min_by_key(|&(i, entry)| (entry.backlog, i))
                    .map(|(i, _)| i);
                let target = cached_best.or_else(|| {
                    let candidates: Vec<usize> = (0..nodes).filter(eligible).collect();
                    (!candidates.is_empty()).then(|| *self.rng.choose(&candidates))
                });
                if target.is_some() {
                    // The placement travels as one ASSIGN-class message.
                    self.metrics.record_message(TrafficClass::Assign);
                }
                target.into_iter().collect()
            }
            // The `replicas` least-loaded matching sites (queue load only:
            // no cost bidding).
            Rule::MultiRequest { replicas } => {
                let mut candidates: Vec<(SimDuration, usize)> =
                    (0..nodes).filter(eligible).map(|i| (self.queues[i].backlog(now), i)).collect();
                candidates.sort_unstable();
                candidates.into_iter().take(*replicas).map(|(_, i)| i).collect()
            }
        }
    }

    /// Starts the next queued job at `node`. The first copy of a job to
    /// start wins and its other sites are sent revocations; a copy whose
    /// job already started elsewhere (its revocation still in flight) is
    /// cancelled on the spot and the next queued job is tried.
    fn try_start(&mut self, now: SimTime, node: usize) {
        while let Some(running) = self.queues[node].start_next(now) {
            let spec = running.spec;
            let ertp = running.expected_end.saturating_since(running.started_at);
            let Some(sites) = self.sites.remove(&spec.id) else {
                self.revoked_replicas += 1;
                self.queues[node].complete_running();
                continue;
            };
            for other in sites.into_iter().filter(|&other| other != node) {
                self.events
                    .schedule(now + REVOKE_LATENCY, Event::Revoke { node: other, job: spec.id });
            }
            let art = self.art.actual_running_time(spec.ert, ertp, &mut self.rng);
            self.metrics.job_started(spec.id, NodeId::from_index(node).raw(), now);
            self.events.schedule(now + art, Event::Complete { node });
            return;
        }
    }

    fn complete(&mut self, now: SimTime, node: usize) {
        let finished = self.queues[node].complete_running().expect("running job completes");
        self.metrics.job_completed(finished.spec.id, now);
        self.try_start(now, node);
    }

    fn sample(&mut self, now: SimTime) {
        let idle = self.queues.iter().filter(|q| q.is_idle()).count();
        let queued = self.queues.iter().map(|q| q.waiting_len()).sum();
        self.metrics.sample_gauges(idle, queued);
        let next = now + self.sample_period;
        if next <= self.horizon {
            self.events.schedule(next, Event::Sample);
        }
    }

    /// One gossip round: refresh the node's own entry, then push its
    /// freshest observations to `GOSSIP_FANOUT` random neighbors.
    fn gossip_tick(&mut self, now: SimTime, node: usize) {
        if now > self.horizon {
            return; // stop the periodic chain
        }
        let own = CacheEntry { backlog: self.queues[node].backlog(now), observed_at: now };
        let gossip = self.rule.gossip();
        gossip.caches[node].observe(node, own);
        let node_id = NodeId::from_index(node);
        gossip.topology.sample_neighbors_into(
            node_id,
            GOSSIP_FANOUT,
            None,
            &mut self.rng,
            &mut gossip.peers,
        );
        for &neighbor in &gossip.peers {
            // Gossip digests are INFORM-sized state messages.
            self.metrics.record_message(TrafficClass::Inform);
            let delay = gossip.latency.sample(&mut self.rng);
            let digest = gossip.caches[node].freshest.clone();
            self.events
                .schedule(now + delay, Event::DeliverDigest { to: neighbor.index(), digest });
        }
        self.events.schedule(now + GOSSIP_PERIOD, Event::GossipTick { node });
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aria_grid::Policy;
    use proptest::prelude::*;

    /// A one-line fingerprint of a small run: 60 nodes (FCFS, SJF and
    /// EDF, so some jobs match no eligible node), 60 batch jobs ten
    /// seconds apart. It covers the completed count, the messages per
    /// traffic class, the revoked replicas, the completion and waiting
    /// means bit for bit, and an FNV-1a hash of every job record's id,
    /// first assignment, start, executing node and completion, in id
    /// order.
    pub(crate) fn golden(comparator: Comparator, seed: u64) -> String {
        let mix = PolicyMix::Random(vec![Policy::Fcfs, Policy::Sjf, Policy::Edf]);
        let (horizon, period) = (SimTime::from_hours(12), SimDuration::from_mins(5));
        let mut grid = Baseline::new(comparator, 60, mix, horizon, period, seed);
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(10), 60);
        grid.submit_schedule(&schedule, &mut JobGenerator::paper_batch());
        grid.run();
        let metrics = &grid.metrics;
        let millis = |t: Option<SimTime>| t.map_or(u64::MAX, SimTime::as_millis);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for r in metrics.records().values() {
            let node = r.executed_on.map_or(u64::MAX, u64::from);
            let fields = [
                r.id.raw(),
                millis(r.first_assigned_at),
                millis(r.started_at),
                node,
                millis(r.completed_at),
            ];
            for byte in fields.iter().flat_map(|v| v.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let messages: Vec<u64> =
            TrafficClass::ALL.iter().map(|&class| metrics.traffic().messages(class)).collect();
        format!(
            "completed={} msgs={messages:?} revoked={} completion=0x{:016x} \
             waiting=0x{:016x} records=0x{hash:016x}",
            metrics.completed_count(),
            grid.revoked_replicas,
            metrics.completion_summary().mean().to_bits(),
            metrics.waiting_summary().mean().to_bits(),
        )
    }

    /// How many distinct nodes the average gossip cache knows.
    pub(crate) fn avg_cache_coverage(grid: &Baseline) -> f64 {
        let Rule::Gossip(gossip) = &grid.rule else { return 0.0 };
        let known: usize = gossip.caches.iter().map(|c| c.row.iter().flatten().count()).sum();
        known as f64 / gossip.caches.len().max(1) as f64
    }

    const NODES: usize = 40;

    proptest! {
        /// After any run of own-entry refreshes and digest merges, a
        /// cache's freshest list is exactly the first `DIGEST_SIZE`
        /// entries of a full freshness sort of its row, and the row holds
        /// the freshest observation seen per node.
        #[test]
        fn freshest_list_is_the_top_of_a_full_sort(
            own in 0usize..NODES,
            ops in proptest::collection::vec(
                (0u8..4, proptest::collection::vec((0usize..NODES, 0u64..200, 0u64..1000), 1..20)),
                1..150,
            ),
        ) {
            let mut cache = Cache::new(NODES);
            let mut model: Vec<Option<CacheEntry>> = vec![None; NODES];
            let mut clock = 0;
            let entry = |t: u64, backlog: u64| CacheEntry {
                backlog: SimDuration::from_secs(backlog),
                observed_at: SimTime::from_secs(t),
            };
            for (kind, observations) in ops {
                if kind == 0 {
                    // A gossip tick: the own entry, observed now.
                    clock += 1 + observations[0].1;
                    let own_entry = entry(clock, observations[0].2);
                    cache.observe(own, own_entry);
                    model[own] = Some(own_entry);
                } else {
                    // A digest, stale or fresh per entry, possibly naming
                    // the receiver itself.
                    let digest: Digest = observations
                        .iter()
                        .map(|&(node, t, backlog)| (node, entry(t, backlog)))
                        .collect();
                    cache.merge(own, &digest);
                    for &(node, e) in &digest {
                        let fresher = model[node].is_none_or(|m| m.observed_at < e.observed_at);
                        if node != own && fresher {
                            model[node] = Some(e);
                        }
                    }
                }
                prop_assert_eq!(&cache.row, &model);
                let mut sorted: Digest =
                    model.iter().enumerate().filter_map(|(i, e)| Some((i, (*e)?))).collect();
                sorted.sort_by_key(freshness);
                sorted.truncate(DIGEST_SIZE);
                prop_assert_eq!(&cache.freshest, &sorted);
            }
        }
    }
}
