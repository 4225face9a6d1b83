//! The gossip-dissemination baseline (reference \[25\] of the paper:
//! Erdil & Lewis, P2P 2007).
//!
//! The paper's related work contrasts ARiA's on-demand REQUEST floods
//! with protocols that "disseminat\[e\] the state of the available
//! resources across the grid; this information is cached by remote nodes
//! and used to optimally allocate incoming jobs". This module implements
//! that scheme over the same substrate: nodes periodically push load
//! digests to random overlay neighbors, every node accumulates a
//! (staleness-prone) cache of remote backlogs, and job submissions are
//! placed straight from the initiator's cache — no discovery round trip,
//! but decisions are made on old news.
//!
//! The comparison it enables: proactive state dissemination pays a
//! constant gossip bandwidth and places jobs instantly on cached (stale)
//! state, while ARiA pays per-job flood bandwidth for fresh offers plus
//! rescheduling. Node resource *profiles* (architecture, OS, capacities)
//! are static metadata assumed globally known here — in a deployment they
//! would ride along the same gossip messages once.

use aria_grid::{JobSpec, NodeProfile, SchedulerQueue};
use aria_metrics::{MetricsCollector, TrafficClass};
use aria_overlay::{builders, LatencyModel, Topology};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{ArtModel, JobGenerator, ProfileGenerator, SubmissionSchedule};
use std::collections::BTreeMap;

use crate::config::PolicyMix;

/// One cached observation of a remote node's load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheEntry {
    /// The remote queue's estimated backlog when observed.
    backlog: SimDuration,
    /// When the observation was made (at the observed node).
    observed_at: SimTime,
}

/// A gossip digest: a bounded set of the sender's freshest observations.
type Digest = Vec<(usize, CacheEntry)>;

#[derive(Debug, Clone)]
enum Event {
    Submit { job: JobSpec },
    Complete { node: usize },
    GossipTick { node: usize },
    DeliverDigest { to: usize, digest: Digest },
    Sample,
}

/// A grid scheduled from gossip-disseminated load caches.
///
/// # Example
///
/// ```
/// use aria_core::{GossipScheduler, PolicyMix};
/// use aria_workload::{JobGenerator, SubmissionSchedule};
/// use aria_sim::{SimDuration, SimTime};
///
/// let mut grid = GossipScheduler::new(
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
#[derive(Debug)]
pub struct GossipScheduler {
    profiles: Vec<NodeProfile>,
    queues: Vec<SchedulerQueue>,
    caches: Vec<BTreeMap<usize, CacheEntry>>,
    topology: Topology,
    events: EventQueue<Event>,
    metrics: MetricsCollector,
    rng: SimRng,
    art: ArtModel,
    horizon: SimTime,
    sample_period: SimDuration,
    /// How often each node pushes a digest (anti-entropy period).
    gossip_period: SimDuration,
    /// Neighbors contacted per gossip round.
    fanout: usize,
    /// Entries carried per digest.
    digest_size: usize,
    latency: LatencyModel,
    /// Scratch buffer for per-round neighbor sampling (reused so the
    /// gossip hot loop does not allocate).
    peers: Vec<aria_overlay::NodeId>,
}

impl GossipScheduler {
    /// Builds a gossiping grid; deterministic in the seed, with the same
    /// node distributions as the ARiA [`crate::World`] and a degree-4
    /// random overlay for gossip peering.
    pub fn new(
        nodes: usize,
        policies: PolicyMix,
        horizon: SimTime,
        sample_period: SimDuration,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut overlay_rng = rng.fork(1);
        let mut profile_rng = rng.fork(2);
        let latency = LatencyModel::default();
        let topology = builders::random_regular(nodes, 4, &latency, &mut overlay_rng);
        let generator = ProfileGenerator::paper();
        let profiles: Vec<NodeProfile> =
            (0..nodes).map(|_| generator.generate(&mut profile_rng)).collect();
        let queues: Vec<SchedulerQueue> =
            (0..nodes).map(|_| SchedulerQueue::new(policies.sample(&mut profile_rng))).collect();

        let mut events = EventQueue::new();
        events.schedule(SimTime::ZERO, Event::Sample);
        let gossip_period = SimDuration::from_mins(1);
        let mut scheduler = GossipScheduler {
            profiles,
            queues,
            caches: vec![BTreeMap::new(); nodes],
            topology,
            events,
            metrics: MetricsCollector::new(sample_period),
            rng,
            art: ArtModel::paper_baseline(),
            horizon,
            sample_period,
            gossip_period,
            fanout: 2,
            digest_size: 16,
            latency,
            peers: Vec::new(),
        };
        // Stagger the gossip rounds like ARiA staggers INFORM ticks.
        for node in 0..nodes {
            let offset = SimDuration::from_millis(
                scheduler.rng.u64_range(0, gossip_period.as_millis().max(1)),
            );
            scheduler.events.schedule(SimTime::ZERO + offset, Event::GossipTick { node });
        }
        scheduler
    }

    /// Node profiles (for feasibility resampling).
    pub fn profiles(&self) -> &[NodeProfile] {
        &self.profiles
    }

    /// Schedules a job submission (to a random initiator at event time).
    pub fn submit_job(&mut self, at: SimTime, job: JobSpec) {
        self.events.schedule(at, Event::Submit { job });
    }

    /// Generates and schedules one feasible job per schedule instant.
    pub fn submit_schedule(&mut self, schedule: &SubmissionSchedule, jobs: &mut JobGenerator) {
        let mut workload_rng = self.rng.fork(3);
        let profiles = self.profiles.clone();
        for at in schedule.times() {
            let job = jobs.generate_feasible(at, &profiles, &mut workload_rng);
            self.submit_job(at, job);
        }
    }

    /// Runs to completion and returns the metrics.
    pub fn run(&mut self) -> &MetricsCollector {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Submit { job } => self.place(now, job),
                Event::Complete { node } => self.complete(now, node),
                Event::GossipTick { node } => self.gossip_tick(now, node),
                Event::DeliverDigest { to, digest } => self.merge_digest(to, digest),
                Event::Sample => self.sample(now),
            }
        }
        &self.metrics
    }

    /// Places a job from the initiator's cache: the cached matching node
    /// with the smallest *observed* backlog (ties: oldest id). Nodes the
    /// initiator has never heard of count as idle candidates only when
    /// the cache has no matching entry at all (cold-start fallback).
    fn place(&mut self, now: SimTime, job: JobSpec) {
        self.metrics.job_submitted(&job, now);
        let initiator = self.rng.index(self.queues.len());
        let matches = |i: usize| {
            job.requirements.matches(&self.profiles[i])
                && self.queues[i].policy().is_batch() != job.is_deadline()
        };
        let cached_best = self.caches[initiator]
            .iter()
            .filter(|(&i, _)| matches(i))
            .min_by_key(|(&i, entry)| (entry.backlog, i))
            .map(|(&i, _)| i);
        let target = cached_best.or_else(|| {
            // Cold start: the cache knows no matching node yet; fall back
            // to a random matching node (a real system would flood or
            // wait — this keeps the comparison fair to gossip).
            let candidates: Vec<usize> = (0..self.queues.len()).filter(|&i| matches(i)).collect();
            if candidates.is_empty() {
                None
            } else {
                Some(*self.rng.choose(&candidates))
            }
        });
        let Some(target) = target else {
            return; // infeasible: the record stays incomplete
        };
        // The placement travels as one ASSIGN-class message.
        self.metrics.record_message(TrafficClass::Assign);
        self.metrics.job_assigned(job.id, now, false);
        let profile = self.profiles[target];
        self.queues[target].enqueue(job, now, &profile);
        self.try_start(now, target);
    }

    fn try_start(&mut self, now: SimTime, node: usize) {
        let Some(running) = self.queues[node].start_next(now) else {
            return;
        };
        let spec = running.spec;
        let ertp = running.expected_end.saturating_since(running.started_at);
        let art = self.art.actual_running_time(spec.ert, ertp, &mut self.rng);
        self.metrics.job_started(spec.id, node as u32, now);
        self.events.schedule(now + art, Event::Complete { node });
    }

    fn complete(&mut self, now: SimTime, node: usize) {
        let finished = self.queues[node].complete_running().expect("running job completes");
        self.metrics.job_completed(finished.spec.id, now);
        self.try_start(now, node);
    }

    /// One gossip round: push the freshest `digest_size` observations
    /// (own state always included) to `fanout` random neighbors.
    fn gossip_tick(&mut self, now: SimTime, node: usize) {
        if now > self.horizon {
            return; // stop the periodic chain
        }
        // Refresh the node's own entry.
        let own = CacheEntry { backlog: self.queues[node].backlog(now), observed_at: now };
        self.caches[node].insert(node, own);

        // The freshest `digest_size` entries, freshest first: a partial
        // select, then a sort of the few kept. The key is total (node ids
        // are unique), so this is exactly the prefix of a full sort.
        let mut entries: Vec<(usize, CacheEntry)> =
            self.caches[node].iter().map(|(&i, &e)| (i, e)).collect();
        let key = |&(i, e): &(usize, CacheEntry)| (std::cmp::Reverse(e.observed_at), i);
        if entries.len() > self.digest_size {
            entries.select_nth_unstable_by_key(self.digest_size, key);
            entries.truncate(self.digest_size);
        }
        entries.sort_unstable_by_key(key);

        let node_id = aria_overlay::NodeId::new(node as u32);
        // Reuse the scratch peer buffer; the draw sequence matches the
        // allocating sampler, so seeded runs are unchanged.
        let mut peers = std::mem::take(&mut self.peers);
        self.topology.sample_neighbors_into(node_id, self.fanout, None, &mut self.rng, &mut peers);
        for &neighbor in &peers {
            // Gossip digests are INFORM-sized state messages.
            self.metrics.record_message(TrafficClass::Inform);
            let delay = self.latency.sample(&mut self.rng);
            self.events.schedule(
                now + delay,
                Event::DeliverDigest { to: neighbor.index(), digest: entries.clone() },
            );
        }
        self.peers = peers;
        self.events.schedule(now + self.gossip_period, Event::GossipTick { node });
    }

    /// Anti-entropy merge: keep the freshest observation per node.
    fn merge_digest(&mut self, to: usize, digest: Digest) {
        for (node, entry) in digest {
            if node == to {
                continue; // a node is its own best source of truth
            }
            match self.caches[to].get(&node) {
                Some(existing) if existing.observed_at >= entry.observed_at => {}
                _ => {
                    self.caches[to].insert(node, entry);
                }
            }
        }
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

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// How many distinct remote nodes the average cache currently knows.
    pub fn avg_cache_coverage(&self) -> f64 {
        if self.caches.is_empty() {
            return 0.0;
        }
        self.caches.iter().map(BTreeMap::len).sum::<usize>() as f64 / self.caches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(seed: u64) -> GossipScheduler {
        GossipScheduler::new(
            40,
            PolicyMix::paper_mixed(),
            SimTime::from_hours(12),
            SimDuration::from_mins(5),
            seed,
        )
    }

    fn submit(grid: &mut GossipScheduler, count: usize, interval_secs: u64) {
        let mut jobs = JobGenerator::paper_batch();
        let schedule = SubmissionSchedule::new(
            SimTime::from_mins(5),
            SimDuration::from_secs(interval_secs),
            count,
        );
        grid.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn completes_all_jobs() {
        let mut grid = scheduler(1);
        submit(&mut grid, 40, 30);
        assert_eq!(grid.run().completed_count(), 40);
    }

    #[test]
    fn gossip_spreads_state_across_the_grid() {
        let mut grid = scheduler(2);
        // No jobs: just let gossip run for a while.
        grid.run();
        // After 12h of one-minute rounds every cache should know a large
        // share of the 40-node grid.
        assert!(
            grid.avg_cache_coverage() > 30.0,
            "avg cache coverage {}",
            grid.avg_cache_coverage()
        );
    }

    #[test]
    fn gossip_traffic_is_constant_state_dissemination() {
        let mut grid = scheduler(3);
        submit(&mut grid, 20, 60);
        let metrics = grid.run();
        // Inform-class messages: fanout 2 per node per minute over 12h.
        let informs = metrics.traffic().messages(TrafficClass::Inform);
        let expected = 40 * 2 * 12 * 60;
        assert!(
            (informs as f64) > expected as f64 * 0.9 && (informs as f64) < expected as f64 * 1.1,
            "informs = {informs}, expected ≈ {expected}"
        );
        // One ASSIGN per placed job, no REQUEST floods at all.
        assert_eq!(metrics.traffic().messages(TrafficClass::Request), 0);
        assert_eq!(metrics.traffic().messages(TrafficClass::Assign), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut grid = scheduler(seed);
            submit(&mut grid, 25, 20);
            grid.run().completion_summary().mean()
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn placements_respect_requirements() {
        let mut grid = scheduler(5);
        submit(&mut grid, 30, 20);
        grid.run();
        for record in grid.metrics().records().values() {
            assert!(record.is_completed());
            assert_eq!(record.reschedules, 0); // no rescheduling phase
        }
    }
}
