//! The discrete-event simulation world: grid nodes running the ARiA
//! protocol over a self-organized overlay.
//!
//! The world owns the overlay topology, the per-node scheduler state, the
//! event queue and the metrics collector. Scenario code builds a world
//! from a [`WorldConfig`], schedules job submissions, then calls
//! [`World::run`] which processes events to completion.
//!
//! ## Transport model
//!
//! * Flood messages (REQUEST, INFORM) travel hop by hop: each forwarding
//!   step pays the link's one-way latency and one message of traffic.
//! * Point-to-point replies (ACCEPT, ASSIGN) are routed by the overlay;
//!   they are timed as [`crate::AriaConfig::reply_hops`] link traversals but
//!   counted once for traffic (§V-E counts logical messages).
//! * Duplicate suppression follows the selective flooding protocol of
//!   the paper's reference \[28\]: a node processes each flood once, and
//!   forwarding avoids nodes the flood already visited.
//! * With an active [`crate::FaultPlan`] the transport additionally
//!   drops, duplicates, jitters and partitions messages, drawing from a
//!   dedicated seeded stream so fault schedules replay bit-for-bit (see
//!   [`crate::fault`]); [`FaultPlan::none`] skips the whole layer.
//!
//! ## Hot-path representation
//!
//! One run processes millions of events, most of them flood hops, so the
//! per-event state is dense and allocation-free (see the private `dense`
//! module's docs for the tables themselves):
//!
//! * Job specs are interned once at submission in a `Vec`-backed job
//!   table (which also carries each job's initiator, assignee and open
//!   offer collection); messages and events ship bare [`JobId`]s and the
//!   deliver path looks the payload up by index. The paper's wire format
//!   still *carries* the profile — traffic accounting charges the full
//!   §V-E message sizes — the simulator just refuses to copy it per hop.
//! * Flood state (visited bitset + in-flight count) lives in slots
//!   indexed by [`FloodId`] and recycled through a free-list as soon as a
//!   flood's last in-flight message lands, so a run touches a handful of
//!   slots instead of allocating a `HashSet` per flood.
//! * Forward fan-out sampling fills reusable scratch buffers instead of
//!   collecting fresh `Vec`s, drawing the exact same RNG sequence as the
//!   allocating sampler it replaced (`SimRng::choose_multiple_into`).
//!
//! All of this is representation only: event order, RNG draws and thus
//! every metric are bit-for-bit identical to the naive hash-map layout.

use crate::config::{OverlayKind, WorldConfig};
use crate::dense::{AssignInFlight, FloodTable, JobTable, PendingRequest};
use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::logic;
use crate::msg::{FloodId, Message};
use aria_grid::{Cost, JobId, JobSpec, NodeProfile, Policy, SchedulerQueue};
use aria_metrics::MetricsCollector;
use aria_overlay::{builders, Blatant, NodeId, Topology};
use aria_probe::{FloodKind, MsgKind, NullProbe, Probe, ProbeEvent};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{JobGenerator, ProfileGenerator, SubmissionSchedule};

/// How often [`World::run`] audits the protocol state machine in debug
/// builds: every this-many drained events (plus once after the queue
/// drains). [`World::check_invariants`] walks every node, job and
/// pending event, so running it per event would turn a million-event
/// debug run quadratic; a power-of-two stride keeps the audit cheap
/// while still catching corruption within 64 events of its cause.
/// [`World::run_checked`] checks every event regardless.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
const INVARIANT_STRIDE: u64 = 64;

/// A simulation event.
///
/// Events are small and `Copy`: job payloads live in the world's job
/// table and events carry only the [`JobId`].
///
/// `pub(crate)` so [`crate::explore`] can enumerate and inject pending
/// events; outside the crate the queue stays opaque.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// A message arrives at a node.
    Deliver { to: NodeId, msg: Message },
    /// A user submits a job to a random node.
    Submit { job: JobId },
    /// An initiator stops collecting ACCEPT offers for a job.
    AcceptWindowClosed { initiator: NodeId, job: JobId },
    /// An initiator re-floods a REQUEST that received no offers.
    RetryRequest { initiator: NodeId, job: JobId, round: u32 },
    /// A node finishes executing a job.
    ExecutionComplete { node: NodeId, job: JobId },
    /// A node considers advertising jobs for rescheduling.
    InformTick { node: NodeId },
    /// Dispatch is retried once a blocking reservation window has ended.
    DispatchRetry { node: NodeId },
    /// A new node joins the overlay (Expanding scenarios).
    Join,
    /// A random alive node crashes, losing its queue (failure injection).
    Crash,
    /// An initiator's failsafe re-discovers a job lost to a crash.
    RecoverJob {
        /// The lost job.
        job: JobId,
    },
    /// An unacknowledged ASSIGN's retransmit timer fires (fault layer;
    /// `epoch` guards against stale timers after a newer delegation).
    AssignTimeout { job: JobId, epoch: u32 },
    /// A scheduled partition window opens (fault layer).
    PartitionStart { window: u32 },
    /// A scheduled partition window heals (fault layer).
    PartitionEnd { window: u32 },
    /// Periodic gauge sampling.
    Sample,
}

/// Per-node protocol state.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    pub(crate) profile: NodeProfile,
    pub(crate) queue: SchedulerQueue,
    /// Crashed nodes stop participating entirely (failure injection).
    pub(crate) alive: bool,
}

/// A simulated ARiA grid.
///
/// See the [crate-level example](crate) for typical usage.
///
/// `Clone` snapshots the complete simulation state — event queue, RNG,
/// dense tables and metrics — so the bounded model checker
/// (`aria-model`) can fork a world per frontier state. The scratch
/// buffers clone too (cheap, and their contents never carry state
/// between events). Fields are `pub(crate)` for [`crate::explore`];
/// the public API stays the accessor surface below.
///
/// ## Observability
///
/// The world is generic over a [`Probe`] sink and calls
/// [`Probe::record`] at every protocol transition. The default
/// `World<NullProbe>` monomorphizes those calls to nothing — the
/// uninstrumented hot path that `perfbench`'s `sim_paper` times
/// (`probe.record.ring_overhead_ratio` is a recorder's cost over it).
/// Build an instrumented world with
/// [`World::with_probe`] (e.g. an `aria_probe::RingRecorder`) and
/// extract the recording with [`World::into_probe`] after the run.
/// Probes observe only: they receive copies of protocol facts and
/// sim-time stamps, and nothing flows back into the simulation.
#[derive(Debug, Clone)]
pub struct World<P: Probe = NullProbe> {
    pub(crate) config: WorldConfig,
    pub(crate) topology: Topology,
    pub(crate) blatant: Blatant,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) events: EventQueue<Event>,
    pub(crate) rng: SimRng,
    pub(crate) metrics: MetricsCollector,
    /// Active floods, slot-recycled (see [`crate::dense`]).
    pub(crate) floods: FloodTable,
    /// Per-job protocol state: interned spec, initiator, assignee and the
    /// initiator's open offer collection, all in one dense slot.
    pub(crate) jobs: JobTable,
    /// Jobs whose REQUEST rounds were exhausted without an offer.
    pub(crate) abandoned: Vec<JobId>,
    /// Nodes taken down by failure injection.
    pub(crate) crashed: Vec<NodeId>,
    /// Jobs irrecoverably lost to crashes (failsafe off or initiator dead).
    pub(crate) lost: Vec<JobId>,
    /// Jobs re-discovered by the failsafe after a crash.
    pub(crate) recovered: u64,
    /// Events handled so far (drives throughput reporting in the bench
    /// harness).
    pub(crate) processed: u64,
    /// The alive nodes, ascending by id, maintained incrementally by
    /// `join_node`/`crash_node` so candidate rebuilds and gauge samples
    /// never walk all N nodes. Invariant (audited): exactly the nodes
    /// with `NodeState::alive`, sorted, no duplicates.
    pub(crate) alive: Vec<NodeId>,
    /// How many alive nodes are idle (no running job, empty waiting
    /// list), maintained at every queue transition; equals the full scan
    /// the per-sample gauge used to do.
    pub(crate) idle_alive: usize,
    /// Total waiting jobs across alive nodes, maintained at every queue
    /// transition (the other half of the per-sample gauge scan).
    pub(crate) queued_alive: u64,
    /// Scratch buffer for fan-out candidate lists (hot path; reused so
    /// flood forwarding never allocates).
    pub(crate) candidates: Vec<NodeId>,
    /// Scratch buffer for sampled fan-out targets.
    pub(crate) picked: Vec<NodeId>,
    /// Whether the configured [`FaultPlan`] injects anything. Cached so
    /// the hot transport path pays one predictable branch when it does
    /// not (the common case).
    pub(crate) fault_active: bool,
    /// Dedicated RNG stream for fault draws. Forked from the world seed
    /// only when the plan is active, so an inactive plan leaves the main
    /// RNG sequence untouched — bit-for-bit with pre-fault builds.
    pub(crate) fault_rng: SimRng,
    /// Next injection index: increments on every fault that fires, even
    /// when a shrinker allow-list vetoes its effect (the index space must
    /// not shift between shrink candidates).
    pub(crate) fault_seq: u64,
    /// Every fault injection that took effect, in firing order.
    pub(crate) fault_log: Vec<FaultRecord>,
    /// How many [`Event::PartitionStart`] windows are currently open.
    pub(crate) partitions_open: u32,
    /// The observability sink (see the struct docs); [`NullProbe`] by
    /// default, which compiles every `record` call away.
    pub(crate) probe: P,
}

impl World {
    /// Builds an uninstrumented world (`NullProbe`): overlay, node
    /// profiles, scheduler policies and the periodic event scaffolding.
    /// Deterministic in `(config, seed)`.
    pub fn new(config: WorldConfig, seed: u64) -> Self {
        World::with_probe(config, seed, NullProbe)
    }
}

impl<P: Probe> World<P> {
    /// Builds a world with an explicit [`Probe`] sink. Identical to
    /// [`World::new`] in every simulated respect — the probe observes,
    /// it never participates — so a probed run stays bit-for-bit
    /// deterministic in `(config, seed)`.
    pub fn with_probe(config: WorldConfig, seed: u64, probe: P) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut overlay_rng = rng.fork(1);
        let mut profile_rng = rng.fork(2);
        // The fault stream is forked only when the plan can inject
        // anything: forking draws from the parent, so an unconditional
        // fork would shift every later draw and break `FaultPlan::none`'s
        // bit-for-bit equivalence with pre-fault builds.
        let fault_active = config.fault.is_active();
        let fault_rng = if fault_active { rng.fork(7) } else { SimRng::seed_from(0) };

        let mut blatant = Blatant::new(config.overlay_path_length, config.latency);
        let topology = match config.overlay {
            OverlayKind::Blatant => blatant.build(config.nodes, &mut overlay_rng),
            OverlayKind::RandomRegular { degree } => {
                builders::random_regular(config.nodes, degree, &config.latency, &mut overlay_rng)
            }
            OverlayKind::SmallWorld { k, beta } => {
                builders::watts_strogatz(config.nodes, k, beta, &config.latency, &mut overlay_rng)
            }
            OverlayKind::Ring => builders::ring(config.nodes, &config.latency, &mut overlay_rng),
        };

        let generator = ProfileGenerator::paper();
        let nodes: Vec<NodeState> = (0..config.nodes)
            .map(|_| NodeState {
                profile: generator.generate(&mut profile_rng),
                queue: SchedulerQueue::new(config.policies.sample(&mut profile_rng)),
                alive: true,
            })
            .collect();

        let mut events = EventQueue::new();
        events.schedule(SimTime::ZERO, Event::Sample);
        for at in &config.joins {
            events.schedule(*at, Event::Join);
        }
        for at in &config.crashes {
            events.schedule(*at, Event::Crash);
        }
        #[expect(clippy::cast_possible_truncation, reason = "a plan holds a handful of windows")]
        for (i, window) in config.fault.partitions.iter().enumerate() {
            events.schedule(window.start, Event::PartitionStart { window: i as u32 });
            events.schedule(window.end(), Event::PartitionEnd { window: i as u32 });
        }
        // Every node starts alive and idle with an empty waiting list.
        let alive: Vec<NodeId> = (0..nodes.len()).map(NodeId::from_index).collect();
        let idle_alive = nodes.len();
        let mut world = World {
            config,
            topology,
            blatant,
            nodes,
            events,
            rng,
            metrics: MetricsCollector::new(SimDuration::from_mins(5)),
            floods: FloodTable::default(),
            jobs: JobTable::default(),
            abandoned: Vec::new(),
            crashed: Vec::new(),
            lost: Vec::new(),
            recovered: 0,
            processed: 0,
            alive,
            idle_alive,
            queued_alive: 0,
            candidates: Vec::new(),
            picked: Vec::new(),
            fault_active,
            fault_rng,
            fault_seq: 0,
            fault_log: Vec::new(),
            partitions_open: 0,
            probe,
        };
        world.metrics = MetricsCollector::new(world.config.sample_period);
        if let Some(plan) = world.config.reservations {
            world.commit_reservations(plan);
        }
        if world.config.aria.rescheduling {
            world.schedule_first_inform_ticks();
        }
        world
    }

    /// Arms every node's periodic INFORM tick in the event queue's sorted
    /// lane. One offset is drawn per node, in node order, exactly as
    /// [`World::schedule_first_inform_tick`] would draw them; the ticks
    /// then enter the lane ascending by `(offset, node)`, which is the
    /// `(time, seq)` order scheduling them one by one gives. Every
    /// re-arm lands one period after a tick that has just fired, so the
    /// lane stays sorted for the rest of the run.
    fn schedule_first_inform_ticks(&mut self) {
        let period = self.config.aria.inform_period.as_millis().max(1);
        let mut firsts: Vec<(u64, usize)> =
            (0..self.config.nodes).map(|i| (self.rng.u64_range(0, period), i)).collect();
        firsts.sort_unstable();
        self.events.reserve(firsts.len());
        let now = self.events.now();
        for (offset, i) in firsts {
            let at = now + SimDuration::from_millis(offset);
            self.events.schedule_sorted(at, Event::InformTick { node: NodeId::from_index(i) });
        }
    }

    fn schedule_first_inform_tick(&mut self, node: NodeId) {
        let period = self.config.aria.inform_period.as_millis();
        let offset = SimDuration::from_millis(self.rng.u64_range(0, period.max(1)));
        let at = self.events.now() + offset;
        self.events.schedule(at, Event::InformTick { node });
    }

    // --- public accessors --------------------------------------------------

    /// The world's configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The overlay topology (immutable view).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The resource profile of a node.
    pub fn profile_of(&self, node: NodeId) -> &NodeProfile {
        &self.nodes[node.index()].profile
    }

    /// The local scheduling policy of a node.
    pub fn policy_of(&self, node: NodeId) -> Policy {
        self.nodes[node.index()].queue.policy()
    }

    /// Profiles of all current nodes (used for feasibility resampling).
    pub fn profiles(&self) -> Vec<NodeProfile> {
        self.nodes.iter().map(|n| n.profile).collect()
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// Jobs that exhausted every REQUEST round without finding a single
    /// candidate (only possible when feasibility resampling is off).
    pub fn abandoned_jobs(&self) -> &[JobId] {
        &self.abandoned
    }

    /// Nodes taken down by failure injection, in crash order.
    pub fn crashed_nodes(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Jobs irrecoverably lost to crashes.
    pub fn lost_jobs(&self) -> &[JobId] {
        &self.lost
    }

    /// Number of failsafe job recoveries performed.
    pub fn recovered_count(&self) -> u64 {
        self.recovered
    }

    /// Every fault injection that took effect so far, in firing order.
    /// Empty unless the configured [`FaultPlan`] is active.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Whether a node is alive (not crashed).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.index()].alive
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The attached observability sink.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the world and returns the probe — the way to extract a
    /// recorded trace after a run.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// How many events were scheduled in the past and clamped to the
    /// current instant (see [`EventQueue::clamped_count`]). A causally
    /// sound run leaves this at zero; tests assert on it after
    /// [`World::run`] so release builds cannot silently reorder events.
    pub fn clamped_events(&self) -> u64 {
        self.events.clamped_count()
    }

    // --- workload injection -------------------------------------------------

    /// Schedules a single job submission at `at` (the initiator is drawn
    /// at event time, so late submissions may land on joined nodes).
    ///
    /// The spec is interned here; everything downstream refers to the job
    /// by id.
    pub fn submit_job(&mut self, at: SimTime, job: JobSpec) {
        self.jobs.register(job);
        self.events.schedule(at, Event::Submit { job: job.id });
    }

    /// Generates and schedules one feasible job per instant of
    /// `schedule`, using this world's node profiles for feasibility.
    pub fn submit_schedule(&mut self, schedule: &SubmissionSchedule, jobs: &mut JobGenerator) {
        let profiles = self.profiles();
        let mut workload_rng = self.rng.fork(3);
        for at in schedule.times() {
            let job = jobs.generate_feasible(at, &profiles, &mut workload_rng);
            self.submit_job(at, job);
        }
    }

    // --- main loop -----------------------------------------------------------

    /// Runs the simulation until every event has been processed (all
    /// periodic activity stops at the configured horizon, so the event
    /// queue always drains) and returns the collected metrics.
    pub fn run(&mut self) -> &MetricsCollector {
        while let Some((now, event)) = self.events.pop() {
            self.processed += 1;
            self.handle(now, event);
            #[cfg(debug_assertions)]
            if self.processed.is_multiple_of(INVARIANT_STRIDE) {
                self.check_invariants();
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        &self.metrics
    }

    /// Forwards to [`World::run`]; the shard count is ignored.
    ///
    /// Exists solely because the frozen reference benchmark
    /// (`perfbench/src/sim.rs`) still calls it after the sharded executor
    /// was deleted (DESIGN.md §13); the `[benchmark]` PR that drops that
    /// call removes this forwarder with it.
    pub fn run_sharded(&mut self, _shards: usize) -> &MetricsCollector {
        self.run()
    }

    /// Runs to completion like [`World::run`], auditing the full protocol
    /// state machine with [`World::check_invariants`] after **every**
    /// drained event, in every build profile: [`World::run_audited`]
    /// with its first violation raised as a panic.
    ///
    /// The checks are read-only, so a checked run produces bit-for-bit
    /// the same metrics as [`World::run`] — the `invariants_golden` test
    /// pins that equivalence. Use this in tests and CI; per-event
    /// auditing is too slow for paper-scale campaigns.
    pub fn run_checked(&mut self) -> &MetricsCollector {
        if let Err(violation) = self.run_audited() {
            panic!("{violation}");
        }
        &self.metrics
    }

    /// Runs to completion, auditing with [`World::try_check_invariants`]
    /// after every drained event, and returns the first invariant
    /// violation instead of panicking. The chaos harness (`cargo xtask
    /// chaos`) uses this as its oracle: a violation under a randomized
    /// fault schedule must become a shrinkable report, not a crash.
    pub fn run_audited(&mut self) -> Result<(), String> {
        while let Some((now, event)) = self.events.pop() {
            self.processed += 1;
            self.handle(now, event);
            self.try_check_invariants()?;
        }
        Ok(())
    }

    /// Total number of events handled by the `run*` loops.
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Flood-table diagnostics: `(slots ever allocated, slots whose
    /// visited set ever spilled past the inline tier)`. The scale bench
    /// reports both to show live-flood memory stays O(reach), not O(N).
    pub fn flood_stats(&self) -> (usize, usize) {
        self.floods.stats()
    }

    // --- protocol state-machine auditing ---------------------------------------

    /// Audits the complete protocol state machine, panicking on the first
    /// violated invariant. Read-only: a passing check has no effect on
    /// the run whatsoever.
    ///
    /// This consolidates what used to be scattered `debug_assert`s into
    /// one pass, and cross-checks state that no single call site can see:
    ///
    /// * **Causality** — no event was ever scheduled in the past
    ///   ([`EventQueue::clamped_count`] is zero).
    /// * **Queue integrity** — every node's queue is ordered per its
    ///   policy and duplicate-free ([`SchedulerQueue::validate`]); crashed
    ///   nodes hold no jobs; no job is held by two nodes at once.
    /// * **Overlay integrity** — neighbor lists are sorted, symmetric and
    ///   latency-consistent, and the maintained link counter equals a
    ///   recount ([`Topology::validate`]), so crash/join rewiring is
    ///   audited too.
    /// * **Flood table integrity** — the free-list is duplicate-free,
    ///   recycled slots have nothing in flight, and every live slot's
    ///   `in_flight` count equals the number of REQUEST/INFORM messages
    ///   of that flood actually pending in the event queue (live slots
    ///   with zero in flight would be leaks: the world recycles them
    ///   eagerly).
    /// * **Offer-window discipline** — an open offer collection implies
    ///   an alive initiator, a pending `AcceptWindowClosed` event for the
    ///   job (ACCEPTs are only gathered inside their window, §III-B/C),
    ///   and a job not yet queued anywhere.
    /// * **Job conservation** — every registered job is accounted for in
    ///   exactly the protocol stages REQUEST/ACCEPT/ASSIGN/INFORM allow:
    ///   completed, queued or running on one node, collecting offers,
    ///   referenced by a pending submission/retry/recovery/delivery
    ///   event, abandoned, or lost to a crash. Completed jobs appear in
    ///   no queue.
    /// * **Record sanity** — per-job timestamps are monotone
    ///   (submitted ≤ assigned ≤ started ≤ completed), reschedules stay
    ///   below assignments, and a world with rescheduling disabled never
    ///   records a reschedule (the PR-1 stale-ACCEPT regression).
    ///
    /// [`World::run`] calls this every `INVARIANT_STRIDE` (64) events in
    /// debug builds (and once after the queue drains);
    /// [`World::run_checked`] calls it after every event in every
    /// profile. Cost is `O(nodes + jobs + pending events)`.
    pub fn check_invariants(&self) {
        if let Err(violation) = self.try_check_invariants() {
            panic!("{violation}");
        }
    }

    /// Non-panicking form of [`World::check_invariants`]: `Err` carries
    /// the first violated invariant's message (same `invariant: ...` text
    /// the panicking wrapper raises). The bounded model checker treats
    /// this as a per-state safety property, so a violation becomes a
    /// replayable counterexample trace instead of a panic.
    pub fn try_check_invariants(&self) -> Result<(), String> {
        use std::collections::BTreeMap;

        /// Early-returns the formatted message when the condition fails.
        macro_rules! ensure {
            ($cond:expr, $($arg:tt)+) => {
                if !$cond {
                    return Err(format!($($arg)+));
                }
            };
        }

        // Causality: nothing was ever scheduled in the past.
        ensure!(
            self.events.clamped_count() == 0,
            "invariant: {} event(s) were scheduled in the past and clamped",
            self.events.clamped_count()
        );

        // Queue integrity; collect who holds which job, and recount the
        // incrementally maintained alive index and gauge counters against
        // the ground truth this loop walks anyway.
        let mut held: BTreeMap<JobId, NodeId> = BTreeMap::new();
        let mut alive_recount: Vec<NodeId> = Vec::new();
        let mut idle_recount = 0usize;
        let mut queued_recount = 0u64;
        for (i, state) in self.nodes.iter().enumerate() {
            let node = NodeId::from_index(i);
            state.queue.validate();
            if !state.alive {
                ensure!(state.queue.is_idle(), "invariant: crashed node {node} still holds jobs");
                continue;
            }
            alive_recount.push(node);
            idle_recount += usize::from(state.queue.is_idle());
            queued_recount += state.queue.waiting_len() as u64;
            let running = state.queue.running().map(|r| r.spec.id);
            for id in state.queue.waiting().iter().map(|j| j.spec.id).chain(running) {
                if let Some(elsewhere) = held.insert(id, node) {
                    return Err(format!("invariant: {id} held by both {elsewhere} and {node}"));
                }
            }
        }
        ensure!(
            self.alive == alive_recount,
            "invariant: alive index ({} node(s)) disagrees with node flags ({} alive)",
            self.alive.len(),
            alive_recount.len()
        );
        ensure!(
            self.idle_alive == idle_recount,
            "invariant: idle gauge counts {} but {} alive node(s) are idle",
            self.idle_alive,
            idle_recount
        );
        ensure!(
            self.queued_alive == queued_recount,
            "invariant: queued gauge counts {} but {} job(s) are waiting on alive nodes",
            self.queued_alive,
            queued_recount
        );

        // Overlay integrity: crash and join rewiring must leave the graph
        // symmetric, sorted and in step with its maintained link counter.
        ensure!(
            self.topology.len() == self.nodes.len(),
            "invariant: overlay has {} node(s) but the world has {}",
            self.topology.len(),
            self.nodes.len()
        );
        self.topology.validate().map_err(|violation| format!("invariant: {violation}"))?;

        // Event-queue integrity: the radix lists, their masks and the
        // slot free list must describe one consistent pending set.
        self.events
            .validate()
            .map_err(|violation| format!("invariant: event queue: {violation}"))?;

        // Pending-event census: per-flood in-flight counts, open accept
        // windows, and jobs kept alive by an in-flight event.
        let mut in_flight: BTreeMap<u32, u32> = BTreeMap::new();
        let mut windows: Vec<JobId> = Vec::new();
        let mut referenced: Vec<JobId> = Vec::new();
        for (_, event) in self.events.iter() {
            match *event {
                Event::Deliver { msg, .. } => match msg {
                    Message::Request { flood, job, .. } | Message::Inform { flood, job, .. } => {
                        *in_flight.entry(flood.0).or_insert(0) += 1;
                        referenced.push(job);
                    }
                    Message::Assign { job, .. }
                    | Message::Accept { job, .. }
                    | Message::Ack { job, .. } => {
                        referenced.push(job);
                    }
                },
                Event::Submit { job }
                | Event::RetryRequest { job, .. }
                | Event::ExecutionComplete { job, .. }
                | Event::AssignTimeout { job, .. }
                | Event::RecoverJob { job } => referenced.push(job),
                Event::AcceptWindowClosed { job, .. } => windows.push(job),
                Event::InformTick { .. }
                | Event::DispatchRetry { .. }
                | Event::Join
                | Event::Crash
                | Event::PartitionStart { .. }
                | Event::PartitionEnd { .. }
                | Event::Sample => {}
            }
        }
        referenced.sort_unstable();
        windows.sort_unstable();

        // Flood table: free-list duplicate-free, recycled slots drained,
        // live slots' in-flight counts match the census exactly.
        let mut free = self.floods.free_ids().to_vec();
        free.sort_unstable();
        ensure!(
            free.windows(2).all(|w| w[0] != w[1]),
            "invariant: flood free-list holds a slot twice"
        );
        for (id, slot) in self.floods.slots() {
            let censused = in_flight.get(&id).copied().unwrap_or(0);
            if free.binary_search(&id).is_ok() {
                ensure!(
                    slot.in_flight == 0,
                    "invariant: recycled flood slot {id} claims {} in flight",
                    slot.in_flight
                );
                ensure!(
                    censused == 0,
                    "invariant: {censused} message(s) pending for recycled flood slot {id}"
                );
            } else {
                ensure!(
                    slot.in_flight == censused,
                    "invariant: flood {id} counts {} in flight but {censused} are pending",
                    slot.in_flight
                );
                ensure!(slot.in_flight > 0, "invariant: drained flood slot {id} was not recycled");
                ensure!(
                    !slot.visited.is_empty(),
                    "invariant: live flood {id} has an empty visited set (origin missing)"
                );
            }
        }

        // Per-job accounting.
        for slot in self.jobs.iter() {
            let id = slot.spec.id;
            let record = self.metrics.records().get(&id);
            let completed = record.is_some_and(|r| r.is_completed());
            if completed {
                ensure!(
                    !held.contains_key(&id),
                    "invariant: completed job {id} still sits in a queue"
                );
            }
            if slot.pending.is_some() {
                let Some(initiator) = slot.initiator else {
                    return Err(format!("invariant: {id} collects offers without an initiator"));
                };
                ensure!(
                    self.nodes[initiator.index()].alive,
                    "invariant: {id} collects offers at crashed initiator {initiator}"
                );
                ensure!(
                    windows.binary_search(&id).is_ok(),
                    "invariant: {id} collects offers with no open ACCEPT window"
                );
                ensure!(
                    !held.contains_key(&id),
                    "invariant: {id} collects offers while already queued"
                );
                ensure!(!completed, "invariant: completed job {id} collects offers");
            }
            let accounted = completed
                || held.contains_key(&id)
                || slot.pending.is_some()
                || referenced.binary_search(&id).is_ok()
                || windows.binary_search(&id).is_ok()
                || self.abandoned.contains(&id)
                || self.lost.contains(&id);
            ensure!(
                accounted,
                "invariant: {id} vanished — not queued, collecting, in flight, completed, \
                 abandoned or lost"
            );
            if let Some(r) = record {
                ensure!(
                    r.first_assigned_at.is_none_or(|t| t >= r.submitted_at),
                    "invariant: {id} assigned before submission"
                );
                ensure!(
                    r.started_at.is_none_or(
                        |t| Some(t) >= r.first_assigned_at.or(Some(t)) && t >= r.submitted_at
                    ),
                    "invariant: {id} started before assignment"
                );
                ensure!(
                    r.completed_at.is_none_or(|t| Some(t) >= r.started_at.or(Some(t))),
                    "invariant: {id} completed before it started"
                );
                if r.assignments > 0 {
                    ensure!(
                        r.reschedules < r.assignments,
                        "invariant: {id} has {} reschedules out of {} assignments",
                        r.reschedules,
                        r.assignments
                    );
                }
                if !self.config.aria.rescheduling {
                    ensure!(
                        r.reschedules == 0,
                        "invariant: {id} was rescheduled with rescheduling disabled"
                    );
                }
            }
        }
        Ok(())
    }

    pub(crate) fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Deliver { to, msg } => self.deliver(now, to, msg),
            Event::Submit { job } => self.submit(now, job),
            Event::AcceptWindowClosed { initiator, job } => {
                self.close_accept_window(now, initiator, job)
            }
            Event::RetryRequest { initiator, job, round } => {
                if self.nodes[initiator.index()].alive {
                    self.start_request_round(now, initiator, job, round);
                } else {
                    self.lose(now, job);
                }
            }
            Event::ExecutionComplete { node, job } => self.complete_execution(now, node, job),
            Event::InformTick { node } => self.inform_tick(now, node),
            Event::DispatchRetry { node } => {
                if self.nodes[node.index()].alive {
                    self.try_start(now, node);
                }
            }
            Event::Join => self.join_node(now),
            Event::Crash => self.crash_node(now),
            Event::RecoverJob { job } => self.recover_job(now, job),
            Event::AssignTimeout { job, epoch } => self.assign_timeout(now, job, epoch),
            Event::PartitionStart { window } => {
                self.partitions_open += 1;
                self.probe.record(now, ProbeEvent::PartitionStarted { window });
            }
            Event::PartitionEnd { window } => {
                self.partitions_open -= 1;
                self.probe.record(now, ProbeEvent::PartitionHealed { window });
            }
            Event::Sample => self.sample(now),
        }
    }

    // --- submission & REQUEST phase (§III-B) ---------------------------------

    fn submit(&mut self, now: SimTime, job: JobId) {
        self.fill_alive_candidates();
        let initiator = self.config.net.pick_initiator(&mut self.rng, &self.candidates, job);
        let spec = self.jobs.spec(job);
        self.metrics.job_submitted(&spec, now);
        self.jobs.slot_mut(job).initiator = Some(initiator);
        self.probe.record(now, ProbeEvent::JobSubmitted { job, initiator });
        self.start_request_round(now, initiator, job, 0);
    }

    fn start_request_round(&mut self, now: SimTime, initiator: NodeId, job: JobId, round: u32) {
        if self.fault_active {
            // A fresh discovery supersedes the fault layer's leftovers:
            // recorded offers are stale and any armed ASSIGN retransmit
            // is obsolete (its pending timeout goes stale via `assign`).
            let slot = self.jobs.slot_mut(job);
            slot.offers.clear();
            slot.assign = None;
        }
        let spec = self.jobs.spec(job);
        // The initiator is itself a candidate when it matches the job.
        let own_bid = {
            let node = &self.nodes[initiator.index()];
            if Self::node_can_bid(node, &spec) {
                Some((node.queue.cost_of_candidate(&spec, now, &node.profile), initiator))
            } else {
                None
            }
        };
        self.jobs.slot_mut(job).pending = Some(PendingRequest { round, best: own_bid });

        // §III-B: the initiator broadcasts "to a random subset of nodes
        // of the overlay" — the flood's seeds are random overlay members
        // (reached via routed delivery); only the subsequent forwarding
        // steps use direct neighbors.
        let flood = self.floods.alloc(initiator, self.nodes.len());
        let request =
            Message::Request { initiator, job, hops_left: self.config.aria.request_hops, flood };
        self.candidates.clear();
        // The alive index walks only live nodes (ascending, like the old
        // full topology scan, so the fan-out draws are bit-identical).
        for i in 0..self.alive.len() {
            let n = self.alive[i];
            if n != initiator {
                self.candidates.push(n);
            }
        }
        self.config.net.pick_targets(
            &mut self.rng,
            &self.candidates,
            self.config.aria.request_fanout,
            &mut self.picked,
        );
        for i in 0..self.picked.len() {
            let seed = self.picked[i];
            self.floods.get_mut(flood).in_flight += 1;
            self.send_routed(now, initiator, seed, request);
        }
        #[expect(clippy::cast_possible_truncation, reason = "at most request_fanout seeds")]
        self.probe.record(
            now,
            ProbeEvent::RequestRound {
                job,
                initiator,
                round,
                flood: flood.0,
                seeds: self.picked.len() as u32,
            },
        );
        // An unseedable flood (no other node alive) is over before it
        // starts; recycle its slot.
        self.cleanup_flood(flood);
        self.events.schedule(
            now + self.config.aria.timing.accept_window,
            Event::AcceptWindowClosed { initiator, job },
        );
    }

    fn close_accept_window(&mut self, now: SimTime, initiator: NodeId, job: JobId) {
        if !self.nodes[initiator.index()].alive {
            return; // the crash handler already accounted for the loss
        }
        let Some(pending) = self.jobs.take_pending(job) else {
            return;
        };
        match pending.best {
            Some((_cost, winner)) => self.delegate(now, job, initiator, winner, false),
            None => {
                match logic::next_round(pending.round, self.config.aria.timing.max_request_rounds) {
                    Some(round) => {
                        self.probe
                            .record(now, ProbeEvent::RetryScheduled { job, initiator, round });
                        self.events.schedule(
                            now + self.config.aria.timing.request_retry,
                            Event::RetryRequest { initiator, job, round },
                        );
                    }
                    None => {
                        self.probe.record(now, ProbeEvent::JobAbandoned { job, initiator });
                        self.abandoned.push(job);
                    }
                }
            }
        }
    }

    // --- message handling -----------------------------------------------------

    /// Accounts for a message that will never be processed: the books of
    /// [`World::drop_in_transit`], after which a flood copy may recycle
    /// its slot once nothing else is in flight.
    ///
    /// Two callers share these books exactly: [`World::deliver`] when the
    /// recipient crashed while the message was in flight, and the model
    /// checker's `Drop` fault action (`crate::explore`).
    pub(crate) fn lose_message(&mut self, now: SimTime, to: NodeId, msg: Message) {
        self.drop_in_transit(now, to, msg);
        if let Message::Request { flood, .. } | Message::Inform { flood, .. } = msg {
            self.cleanup_flood(flood);
        }
    }

    /// The probe-schema kind tag of a message.
    pub(crate) fn msg_kind(msg: Message) -> MsgKind {
        match msg {
            Message::Request { .. } => MsgKind::Request,
            Message::Accept { .. } => MsgKind::Accept,
            Message::Inform { .. } => MsgKind::Inform,
            Message::Assign { .. } => MsgKind::Assign,
            Message::Ack { .. } => MsgKind::Ack,
        }
    }

    fn deliver(&mut self, now: SimTime, to: NodeId, msg: Message) {
        if !self.nodes[to.index()].alive {
            // The recipient crashed while the message was in flight.
            self.lose_message(now, to, msg);
            return;
        }
        match msg {
            Message::Request { .. } | Message::Inform { .. } => self.flood_hop(now, to, msg),
            Message::Accept { from, job, cost } => self.handle_accept(now, to, from, job, cost),
            Message::Assign { job } => self.handle_assign(now, to, job),
            Message::Ack { from, job } => self.handle_ack(now, from, job),
        }
    }

    /// A REQUEST or INFORM copy reaches `to`: a fresh copy may be
    /// answered with an ACCEPT (§III-B, §III-D) and forwarded.
    fn flood_hop(&mut self, now: SimTime, to: NodeId, mut msg: Message) {
        let aria = &self.config.aria;
        let (kind, job, flood, hops_left, reply_to, incumbent, fanout) = match &mut msg {
            Message::Request { initiator, job, hops_left, flood } => {
                (FloodKind::Request, *job, *flood, hops_left, *initiator, None, aria.request_fanout)
            }
            Message::Inform { assignee, job, cost, hops_left, flood } => (
                FloodKind::Inform,
                *job,
                *flood,
                hops_left,
                *assignee,
                Some(*cost),
                aria.inform_fanout,
            ),
            _ => unreachable!("only REQUEST/INFORM flood"),
        };
        let fresh = self.flood_arrival(flood, to);
        self.probe.record(
            now,
            ProbeEvent::FloodHop {
                kind,
                job,
                flood: flood.0,
                node: to,
                hops_left: *hops_left,
                duplicate: !fresh,
            },
        );
        if !fresh {
            return;
        }
        let spec = self.jobs.spec(job);
        let node = &self.nodes[to.index()];
        let quote = Self::node_can_bid(node, &spec)
            .then(|| node.queue.cost_of_candidate(&spec, now, &node.profile));
        let hop = logic::flood_hop(
            quote,
            incumbent,
            self.config.aria.reschedule_threshold,
            self.config.aria.forward_on_match,
            *hops_left,
        );
        if let Some(cost) = hop.offer {
            self.probe.record(
                now,
                ProbeEvent::BidSent {
                    kind,
                    job,
                    from: to,
                    to: reply_to,
                    cost_ms: cost.as_millis(),
                },
            );
            self.send_routed(now, to, reply_to, Message::Accept { from: to, job, cost });
        }
        if hop.forward {
            *hops_left -= 1;
            self.forward_flood(now, to, msg, fanout);
        }
        self.cleanup_flood(flood);
    }

    fn handle_accept(&mut self, now: SimTime, to: NodeId, from: NodeId, job: JobId, cost: Cost) {
        // Offer for a job this node initiated and is still collecting?
        {
            let fault_active = self.fault_active;
            let slot = self.jobs.slot_mut(job);
            if slot.initiator == Some(to) {
                if let Some(pending) = slot.pending.as_mut() {
                    let better = logic::better_offer(pending.best, cost);
                    if better {
                        pending.best = Some((cost, from));
                    }
                    if fault_active {
                        // Remember every offer: if the winner's ASSIGN
                        // exhausts its retransmits, the next-best offer
                        // is the fallback (before the §III-D failsafe).
                        slot.offers.push((cost, from));
                    }
                    self.probe.record(
                        now,
                        ProbeEvent::OfferReceived {
                            job,
                            initiator: to,
                            from,
                            cost_ms: cost.as_millis(),
                            best: better,
                        },
                    );
                    return;
                }
            }
        }
        // Otherwise: a rescheduling offer for a job this node holds. With
        // dynamic rescheduling disabled this path must be inert — an ACCEPT
        // that misses its collection window (or a stray reply) must not move
        // jobs, or assignment accounting drifts (reschedules without moves).
        if !self.config.aria.rescheduling {
            return;
        }
        let threshold = self.config.aria.reschedule_threshold;
        let node = &mut self.nodes[to.index()];
        let Some(current) = node.queue.cost_of_waiting(job, now) else {
            return; // already moved, started, or never here: stale offer
        };
        if !logic::undercuts(cost, current, threshold) {
            return; // conditions changed; the move no longer pays off
        }
        node.queue.remove_waiting(job).expect("cost_of_waiting implies waiting");
        // Gauge upkeep: `to` is alive (it received the offer) and just
        // gave up a waiting job, possibly going idle.
        self.queued_alive -= 1;
        self.idle_alive += usize::from(self.nodes[to.index()].queue.is_idle());
        self.delegate(now, job, to, from, true);
    }

    /// Delegates `job` from `by` to `to`: a local enqueue when `by`
    /// picked itself, otherwise an ASSIGN (armed for ACK and retransmit
    /// under the fault layer).
    fn delegate(&mut self, now: SimTime, job: JobId, by: NodeId, to: NodeId, reschedule: bool) {
        self.metrics.job_assigned(job, now, reschedule);
        self.probe.record(now, ProbeEvent::Assigned { job, by, to, reschedule });
        if to == by {
            self.enqueue_job(now, to, job);
            return;
        }
        if self.fault_active {
            self.arm_assign(now, job, by, to, reschedule);
        }
        self.send_routed(now, by, to, Message::Assign { job });
    }

    /// Delivers an ASSIGN idempotently: a duplicate (the job is already
    /// queued, running or completed, or its initiator reopened discovery)
    /// is suppressed instead of double-enqueued. With the fault layer
    /// active the assignee acknowledges the delegation so the assigner's
    /// retransmit timer stands down; a suppressed duplicate re-ACKs, so
    /// a lost ACK cannot retransmit forever.
    fn handle_assign(&mut self, now: SimTime, to: NodeId, job: JobId) {
        let completed = self.metrics.records().get(&job).is_some_and(|r| r.is_completed());
        let stale = self.jobs.slot(job).pending.is_some();
        if completed || stale || self.job_is_held(job) {
            self.probe.record(
                now,
                ProbeEvent::DuplicateSuppressed { kind: MsgKind::Assign, job, node: to },
            );
            self.send_ack(now, to, job);
            return;
        }
        self.enqueue_job(now, to, job);
        self.send_ack(now, to, job);
    }

    /// ACKs a delivered ASSIGN back to its assigner — but only when the
    /// armed delegation actually names this assignee, so a stale copy
    /// (retransmitted to a node the job has since moved away from) cannot
    /// stand down a newer delegation's timer.
    fn send_ack(&mut self, now: SimTime, to: NodeId, job: JobId) {
        if !self.fault_active {
            return;
        }
        if let Some(a) = self.jobs.slot(job).assign {
            if a.to == to {
                self.send_routed(now, to, a.by, Message::Ack { from: to, job });
            }
        }
    }

    /// An ASSIGN acknowledgement landed back at the assigner: disarm the
    /// retransmit timer (its pending timeout goes stale). Late and
    /// duplicate ACKs — the slot already stood down, or a newer
    /// delegation names a different assignee — are ignored.
    fn handle_ack(&mut self, now: SimTime, from: NodeId, job: JobId) {
        let slot = self.jobs.slot_mut(job);
        if let Some(a) = slot.assign {
            if a.to == from {
                slot.assign = None;
                self.probe.record(now, ProbeEvent::AckReceived { job, from });
            }
        }
    }

    /// Arms the ACK/retransmit machinery for an ASSIGN about to be sent
    /// (fault layer only): records the in-flight delegation under a fresh
    /// epoch and schedules the first timeout.
    fn arm_assign(&mut self, now: SimTime, job: JobId, by: NodeId, to: NodeId, reschedule: bool) {
        let slot = self.jobs.slot_mut(job);
        slot.assign_epoch = slot.assign_epoch.wrapping_add(1);
        let epoch = slot.assign_epoch;
        slot.assign = Some(AssignInFlight { to, by, attempt: 0, epoch, reschedule });
        self.events.schedule(
            now + self.config.aria.timing.assign_ack_timeout,
            Event::AssignTimeout { job, epoch },
        );
    }

    /// An ASSIGN's ACK did not arrive in time: retransmit with bounded
    /// exponential backoff; when retries exhaust (or an endpoint died),
    /// fall back to the next-best recorded offer, then to the §III-D
    /// failsafe as the last resort.
    ///
    /// Exactly one timeout is pending per armed epoch: each handler
    /// schedules at most one successor, and a stale epoch (a newer
    /// delegation re-armed the slot) or a disarmed slot returns
    /// immediately.
    fn assign_timeout(&mut self, now: SimTime, job: JobId, epoch: u32) {
        let Some(a) = self.jobs.slot(job).assign else {
            return; // ACKed, superseded, or recovered — stand down
        };
        if a.epoch != epoch {
            return; // a newer delegation owns the timer now
        }
        let completed = self.metrics.records().get(&job).is_some_and(|r| r.is_completed());
        if completed || self.job_is_held(job) {
            // The ASSIGN landed but its ACK was lost; nothing to redo.
            self.jobs.slot_mut(job).assign = None;
            return;
        }
        let alive = self.nodes[a.by.index()].alive && self.nodes[a.to.index()].alive;
        if logic::may_retransmit(a.attempt, self.config.aria.timing.assign_max_retries) && alive {
            let attempt = a.attempt + 1;
            self.jobs.slot_mut(job).assign = Some(AssignInFlight { attempt, ..a });
            self.probe.record(now, ProbeEvent::AssignRetransmit { job, to: a.to, attempt });
            self.send_routed(now, a.by, a.to, Message::Assign { job });
            let backoff =
                logic::assign_backoff(self.config.aria.timing.assign_ack_timeout, attempt);
            self.events.schedule(now + backoff, Event::AssignTimeout { job, epoch });
            return;
        }
        // Retries exhausted: this delegation is abandoned.
        self.jobs.slot_mut(job).assign = None;
        let mut fallback = None;
        while let Some((cost, next)) = self.pop_best_offer(job) {
            if next != a.to && self.nodes[next.index()].alive {
                fallback = Some((cost, next));
                break;
            }
        }
        match fallback {
            Some((_cost, next)) => self.delegate(now, job, a.by, next, a.reschedule),
            // No viable offer left: the failsafe is the last resort.
            None => self.failsafe_or_lose(now, job),
        }
    }

    /// Removes and returns the cheapest recorded offer for a job (the
    /// list is only populated while a fault plan is active).
    fn pop_best_offer(&mut self, job: JobId) -> Option<(Cost, NodeId)> {
        logic::pop_best_offer(&mut self.jobs.slot_mut(job).offers)
    }

    /// Whether the job's recorded assignee is alive and actually holds it
    /// (waiting in its queue or running on it).
    fn job_is_held(&self, job: JobId) -> bool {
        let Some(holder) = self.jobs.slot(job).assignee else {
            return false;
        };
        let state = &self.nodes[holder.index()];
        state.alive
            && (state.queue.is_waiting(job)
                || state.queue.running().is_some_and(|r| r.spec.id == job))
    }

    // --- local execution --------------------------------------------------------

    fn enqueue_job(&mut self, now: SimTime, node: NodeId, job: JobId) {
        self.jobs.slot_mut(job).assignee = Some(node);
        let spec = self.jobs.spec(job);
        let state = &mut self.nodes[node.index()];
        let profile = state.profile;
        // Gauge upkeep (callers guarantee `node` is alive): the job lands
        // waiting, and an idle node stops being idle.
        self.idle_alive -= usize::from(state.queue.is_idle());
        self.queued_alive += 1;
        state.queue.enqueue(spec, now, &profile);
        #[expect(clippy::cast_possible_truncation, reason = "queues hold far fewer than 2^32 jobs")]
        let depth = state.queue.waiting_len() as u32;
        self.probe.record(now, ProbeEvent::Enqueued { job, node, depth });
        self.try_start(now, node);
    }

    fn try_start(&mut self, now: SimTime, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        let Some(running) = state.queue.start_next(now) else {
            // Jobs may be waiting behind an advance reservation: retry
            // when the blocking window ends.
            if let Some(at) = state.queue.next_dispatch_at(now) {
                self.events.schedule(at, Event::DispatchRetry { node });
            }
            return;
        };
        // Gauge upkeep: a waiting job became the running one. The node
        // was not idle before (non-empty waiting list) and is not now.
        self.queued_alive -= 1;
        let spec = running.spec;
        let ertp = running.expected_end.saturating_since(running.started_at);
        let art = self.config.art.actual_running_time(spec.ert, ertp, &mut self.rng);
        self.metrics.job_started(spec.id, node.raw(), now);
        self.probe.record(now, ProbeEvent::Started { job: spec.id, node });
        self.events.schedule(now + art, Event::ExecutionComplete { node, job: spec.id });
    }

    fn complete_execution(&mut self, now: SimTime, node: NodeId, job: JobId) {
        if !self.nodes[node.index()].alive {
            return; // the executor crashed mid-run; the job was lost there
        }
        let state = &mut self.nodes[node.index()];
        let finished = state.queue.complete_running().expect("completion event for running job");
        // Gauge upkeep: the node goes idle unless more work is waiting
        // (in which case `try_start` below promotes it immediately).
        self.idle_alive += usize::from(state.queue.is_idle());
        debug_assert_eq!(finished.spec.id, job, "completion event job mismatch");
        self.metrics.job_completed(job, now);
        self.probe.record(now, ProbeEvent::Completed { job, node });
        self.try_start(now, node);
    }

    /// Commits randomly placed advance reservations on every node
    /// (build time; `plan.mean_per_node` expected windows each).
    fn commit_reservations(&mut self, plan: crate::config::ReservationPlan) {
        let mut rng = self.rng.fork(6);
        let horizon_ms = self.config.horizon.as_millis().max(1);
        for i in 0..self.nodes.len() {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "floor() of a small non-negative mean"
            )]
            let mut count = plan.mean_per_node.floor() as u64;
            if rng.chance(plan.mean_per_node.fract()) {
                count += 1;
            }
            for _ in 0..count {
                let start = SimTime::from_millis(rng.u64_range(0, horizon_ms));
                let duration = plan.duration.sample(&mut rng);
                let window = aria_grid::Reservation::starting_at(start, duration);
                // Overlapping draws are simply skipped: the plan is a
                // statistical load, not an exact schedule.
                let _ = self.nodes[i].queue.add_reservation(window);
            }
        }
    }

    // --- dynamic rescheduling (§III-D) -------------------------------------------

    fn inform_tick(&mut self, now: SimTime, node: NodeId) {
        if now > self.config.horizon {
            return; // stop the periodic chain
        }
        let next = now + self.config.aria.inform_period;
        if self.queued_alive == 0 && self.crashed.is_empty() {
            // Every node is alive and none holds a waiting job, so this
            // one has nothing to advertise: re-arm without reading it.
            self.events.schedule_sorted(next, Event::InformTick { node });
            return;
        }
        if !self.nodes[node.index()].alive {
            return; // stop the periodic chain
        }
        let offers =
            self.nodes[node.index()].queue.inform_offers(now, self.config.aria.inform_batch);
        for (id, cost) in offers {
            let flood = self.floods.alloc(node, self.nodes.len());
            self.probe.record(
                now,
                ProbeEvent::InformRound {
                    job: id,
                    node,
                    flood: flood.0,
                    cost_ms: cost.as_millis(),
                },
            );
            let inform = Message::Inform {
                assignee: node,
                job: id,
                cost,
                hops_left: self.config.aria.inform_hops,
                flood,
            };
            self.forward_flood(now, node, inform, self.config.aria.inform_fanout);
            // If every neighbor had already seen the flood (or the node is
            // isolated), nothing went out: recycle the slot immediately.
            self.cleanup_flood(flood);
        }
        self.events.schedule_sorted(next, Event::InformTick { node });
    }

    // --- overlay growth (Expanding scenarios) -------------------------------------

    fn join_node(&mut self, now: SimTime) {
        let mut overlay_rng = self.rng.fork(4);
        let id = self.blatant.integrate_node(&mut self.topology, &mut overlay_rng);
        let mut profile_rng = self.rng.fork(5);
        let generator = ProfileGenerator::paper();
        self.nodes.push(NodeState {
            profile: generator.generate(&mut profile_rng),
            queue: SchedulerQueue::new(self.config.policies.sample(&mut profile_rng)),
            alive: true,
        });
        debug_assert_eq!(self.nodes.len(), self.topology.len());
        // Index upkeep: the joiner gets the next id, so appending keeps
        // the alive index sorted; it starts idle with an empty queue.
        debug_assert!(self.alive.last().is_none_or(|&last| last < id));
        self.alive.push(id);
        self.idle_alive += 1;
        self.probe.record(now, ProbeEvent::NodeJoined { node: id });
        if self.config.aria.rescheduling && now <= self.config.horizon {
            self.schedule_first_inform_tick(id);
        }
    }

    // --- failure injection & failsafe recovery (§III-D) ----------------------------

    /// All currently alive nodes, ascending (a copy of the maintained
    /// index; the hot submission path uses
    /// [`World::fill_alive_candidates`] instead).
    #[cfg(test)]
    fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive.clone()
    }

    /// Fills the scratch candidate buffer with all alive nodes, in the
    /// same order `alive_nodes` produces them.
    fn fill_alive_candidates(&mut self) {
        self.candidates.clear();
        self.candidates.extend_from_slice(&self.alive);
    }

    /// Crashes one random alive node: its links vanish, its waiting and
    /// running jobs are lost, and (with the failsafe armed) the jobs'
    /// initiators rediscover them after the detection delay.
    fn crash_node(&mut self, now: SimTime) {
        if self.alive.len() <= 2 {
            return; // refuse to kill a grid that small
        }
        let victim = *self.rng.choose(&self.alive);
        self.nodes[victim.index()].alive = false;
        self.crashed.push(victim);
        // Index and gauge upkeep, before the queue is drained below: the
        // victim's idle state and waiting jobs leave the alive totals.
        let slot = self.alive.binary_search(&victim).expect("victim was in the alive index");
        self.alive.remove(slot);
        self.idle_alive -= usize::from(self.nodes[victim.index()].queue.is_idle());
        self.queued_alive -= self.nodes[victim.index()].queue.waiting_len() as u64;

        // The victim's links disappear with it.
        let neighbors: Vec<NodeId> = self.topology.neighbors(victim).to_vec();
        for &n in &neighbors {
            self.topology.disconnect(victim, n);
        }
        // Overlay self-healing (BLATANT-S maintenance, abstracted): alive
        // neighbors that lost their redundancy re-link to random peers.
        // The alive index yields the same ascending candidate order the
        // old full topology scan did, so the re-link draws are unchanged.
        for &orphan in &neighbors {
            if !self.nodes[orphan.index()].alive || self.topology.degree(orphan) >= 2 {
                continue;
            }
            let candidates: Vec<NodeId> = self
                .alive
                .iter()
                .copied()
                .filter(|&n| n != orphan && !self.topology.are_connected(orphan, n))
                .collect();
            if !candidates.is_empty() {
                let peer = *self.rng.choose(&candidates);
                let latency = self.config.latency.sample(&mut self.rng);
                self.topology.connect(orphan, peer, latency);
            }
        }

        // Jobs held by the victim are lost with its queue.
        let state = &mut self.nodes[victim.index()];
        let mut lost_jobs: Vec<JobId> =
            state.queue.drain_waiting().into_iter().map(|j| j.spec.id).collect();
        if let Some(running) = state.queue.complete_running() {
            lost_jobs.push(running.spec.id);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "queues hold far fewer than 2^32 jobs"
        )]
        self.probe.record(
            now,
            ProbeEvent::NodeCrashed { node: victim, lost_jobs: lost_jobs.len() as u32 },
        );
        // Jobs the victim was *initiating* lose their offer collection;
        // nobody else tracks them, so they are gone for good.
        for job in self.jobs.drop_pending_of(victim) {
            self.lose(now, job);
        }
        for job in lost_jobs {
            self.failsafe_or_lose(now, job);
        }
    }

    /// A job's delegation evaporated: the §III-D failsafe rediscovers it
    /// after the detection delay; without the failsafe it is lost.
    fn failsafe_or_lose(&mut self, now: SimTime, job: JobId) {
        if self.config.failsafe {
            self.events.schedule(now + self.config.failsafe_detection, Event::RecoverJob { job });
        } else {
            self.lose(now, job);
        }
    }

    /// Gives up on a job for good.
    fn lose(&mut self, now: SimTime, job: JobId) {
        self.probe.record(now, ProbeEvent::JobLost { job });
        self.lost.push(job);
    }

    /// The initiator-side failsafe: re-run the discovery phase for a job
    /// lost to a crash, unless it is demonstrably fine (completed, or
    /// alive and queued elsewhere) or its initiator died too.
    fn recover_job(&mut self, now: SimTime, job: JobId) {
        if self.metrics.records().get(&job).is_some_and(|r| r.is_completed()) {
            return;
        }
        if self.job_is_held(job) {
            return; // false alarm: the job found another home
        }
        if self.jobs.slot(job).pending.is_some() {
            return; // discovery already underway (a duplicate recovery)
        }
        match self.jobs.slot(job).initiator {
            Some(initiator) if self.nodes[initiator.index()].alive => {
                self.recovered += 1;
                self.probe.record(now, ProbeEvent::RecoveryStarted { job, initiator });
                self.start_request_round(now, initiator, job, 0);
            }
            _ => self.lose(now, job),
        }
    }

    // --- sampling -------------------------------------------------------------------

    fn sample(&mut self, now: SimTime) {
        // The incrementally maintained gauge counters replace what used
        // to be two full scans over all N nodes per sample (the audit
        // recounts them against the ground truth).
        let idle = self.idle_alive;
        let queued = self.queued_alive;
        #[expect(clippy::cast_possible_truncation, reason = "bounded by the jobs submitted")]
        self.metrics.sample_gauges(idle, queued as usize);
        self.probe.record(
            now,
            ProbeEvent::Gauge {
                idle: idle as u64,
                queued,
                pending_events: self.events.len() as u64,
                peak_events: self.events.peak_len() as u64,
            },
        );
        let next = now + self.config.sample_period;
        if next <= self.config.horizon {
            self.events.schedule(next, Event::Sample);
        }
    }

    // --- transport helpers ------------------------------------------------------------

    /// Whether a node both matches a job's requirements and bids in the
    /// job's cost family (batch offers are never mixed with deadline
    /// offers, §III-C).
    pub(crate) fn node_can_bid(node: &NodeState, job: &JobSpec) -> bool {
        logic::can_bid(&node.profile, node.queue.policy(), job)
    }

    /// Marks a flood message's arrival. Returns `false` (and finishes the
    /// book-keeping) if this node already saw the flood.
    fn flood_arrival(&mut self, flood: FloodId, at: NodeId) -> bool {
        let slot = self.floods.get_mut(flood);
        slot.in_flight -= 1;
        if !slot.visited.insert(at) {
            self.cleanup_flood(flood);
            return false;
        }
        true
    }

    /// Finishes a flood message's book-keeping: recycles the slot once
    /// nothing is in flight.
    fn cleanup_flood(&mut self, flood: FloodId) {
        if self.floods.get(flood).in_flight == 0 {
            self.floods.release(flood);
        }
    }

    /// Forwards a flood message from `from` to up to `fanout` random
    /// neighbors not yet visited by the flood (selective flooding, \[28\]).
    ///
    /// Allocation-free: candidates and sampled targets go through the
    /// world's scratch buffers, and the visited check is a bit probe.
    fn forward_flood(&mut self, now: SimTime, from: NodeId, msg: Message, fanout: usize) {
        let flood = match msg {
            Message::Request { flood, .. } | Message::Inform { flood, .. } => flood,
            _ => unreachable!("only REQUEST/INFORM flood"),
        };
        self.candidates.clear();
        let visited = &self.floods.get(flood).visited;
        for &n in self.topology.neighbors(from) {
            if !visited.contains(n) {
                self.candidates.push(n);
            }
        }
        self.config.net.pick_targets(&mut self.rng, &self.candidates, fanout, &mut self.picked);
        for i in 0..self.picked.len() {
            let target = self.picked[i];
            let link =
                self.topology.latency(from, target).expect("forwarding along an existing link");
            let latency = self.config.net.flood_latency(link);
            self.floods.get_mut(flood).in_flight += 1;
            self.metrics.record_message(msg.traffic_class());
            self.transmit(now, from, target, msg, latency);
        }
    }

    /// Sends a point-to-point message (ACCEPT/ASSIGN/ACK): counted once,
    /// timed as a few overlay hops. `from` is the logical sender — the
    /// transport only needs it to decide which side of a partition cut
    /// the message originates on.
    fn send_routed(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: Message) {
        let latency = self.config.net.reply_latency(
            &mut self.rng,
            &self.config.latency,
            self.config.aria.reply_hops,
        );
        self.metrics.record_message(msg.traffic_class());
        self.transmit(now, from, to, msg, latency);
    }

    // --- fault layer (see `crate::fault`) -----------------------------------------

    /// The final transport step for one message copy: applies the active
    /// [`FaultPlan`] (partition cut, loss, duplication, jitter), then
    /// schedules delivery. With no active plan this is exactly the one
    /// `events.schedule` the pre-fault transport performed — no RNG
    /// draws, no bookkeeping — which is what keeps [`FaultPlan::none`]
    /// bit-for-bit inert.
    ///
    /// Traffic was already charged by the caller: a lost message was
    /// still transmitted (§V-E counts logical messages), and a duplicate
    /// is transport-level noise, not an extra protocol message.
    ///
    /// This is the only place handler code may schedule
    /// [`Event::Deliver`]: every cross-node effect funnels through here,
    /// so the fault layer sees each message exactly once and handlers
    /// touch non-local node state only via explicit transmit edges.
    fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Message,
        latency: SimDuration,
    ) {
        if !self.fault_active {
            self.events.schedule(now + latency, Event::Deliver { to, msg });
            return;
        }
        // Partition first: an open cut severs the link outright, no
        // randomness involved (the injection index still lets the
        // shrinker veto individual crossings).
        if self.partitions_open > 0
            && FaultPlan::crosses_cut(from, to)
            && self.fault_fires(FaultKind::Partition, now, to, msg)
        {
            self.drop_in_transit(now, to, msg);
            return;
        }
        let loss = self.config.fault.loss;
        if loss > 0.0
            && self.fault_rng.chance(loss)
            && self.fault_fires(FaultKind::Loss, now, to, msg)
        {
            self.drop_in_transit(now, to, msg);
            return;
        }
        let jitter = self.jitter();
        self.events.schedule(now + latency + jitter, Event::Deliver { to, msg });
        let duplicate = self.config.fault.duplicate;
        if duplicate > 0.0
            && self.fault_rng.chance(duplicate)
            && self.fault_fires(FaultKind::Duplicate, now, to, msg)
        {
            // The second copy carries its own in-flight share for flood
            // accounting and its own jitter draw.
            if let Message::Request { flood, .. } | Message::Inform { flood, .. } = msg {
                self.floods.get_mut(flood).in_flight += 1;
            }
            let extra = self.jitter();
            self.events.schedule(now + latency + jitter + extra, Event::Deliver { to, msg });
        }
    }

    /// One uniformly-drawn jitter increment from the plan (zero when the
    /// plan has no jitter, without consuming a draw).
    fn jitter(&mut self) -> SimDuration {
        let ms = self.config.fault.jitter_ms;
        if ms == 0 {
            return SimDuration::from_millis(0);
        }
        SimDuration::from_millis(self.fault_rng.u64_range(0, ms + 1))
    }

    /// Assigns the next injection index and decides whether the fault
    /// takes effect. The index advances on every firing — vetoed or not —
    /// so the index space is identical across shrink candidates; only
    /// kept firings reach the fault log.
    fn fault_fires(&mut self, kind: FaultKind, now: SimTime, to: NodeId, msg: Message) -> bool {
        let index = self.fault_seq;
        self.fault_seq += 1;
        if !self.config.fault.keeps(index) {
            return false;
        }
        self.fault_log.push(FaultRecord {
            index,
            kind,
            at: now,
            to,
            msg: Self::msg_kind(msg),
            job: msg.job_id(),
        });
        true
    }

    /// Books a message copy that will never be processed: it releases a
    /// flood copy's in-flight share, a lost ASSIGN triggers the
    /// initiator's failsafe (or loses the job outright), a lost ACCEPT is
    /// simply a missed offer.
    ///
    /// The fault layer calls this directly for a copy it claims at send
    /// time, where floods are *not* recycled: every flood sender ends its
    /// loop with a `cleanup_flood`, and recycling mid-loop would hand the
    /// slot to the caller's next in-flight increment.
    fn drop_in_transit(&mut self, now: SimTime, to: NodeId, msg: Message) {
        self.probe.record(
            now,
            ProbeEvent::MessageDropped { kind: Self::msg_kind(msg), job: msg.job_id(), to },
        );
        match msg {
            Message::Request { flood, .. } | Message::Inform { flood, .. } => {
                self.floods.get_mut(flood).in_flight -= 1;
            }
            Message::Assign { job, .. } => {
                if self.jobs.slot(job).assign.is_some() {
                    // The fault layer's retransmit timer owns recovery of
                    // this delegation; arming the failsafe here too would
                    // double-recover the job.
                    return;
                }
                // The delegation evaporates.
                self.failsafe_or_lose(now, job);
            }
            // A lost offer is a missed opportunity; a lost ACK leaves the
            // retransmit timer armed, and the resulting duplicate ASSIGN
            // is suppressed and re-acknowledged on arrival.
            Message::Accept { .. } | Message::Ack { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AriaConfig, PolicyMix};
    use aria_grid::{Architecture, JobRequirements, OperatingSystem};
    use aria_metrics::TrafficClass;
    use proptest::prelude::*;

    fn small_world(seed: u64) -> World {
        World::new(WorldConfig::small_test(40), seed)
    }

    fn submit_batch(world: &mut World, count: usize) {
        let mut jobs = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), count);
        world.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn all_jobs_complete_exactly_once() {
        let mut world = small_world(1);
        submit_batch(&mut world, 30);
        let metrics = world.run();
        assert_eq!(metrics.completed_count(), 30);
        assert_eq!(metrics.records().len(), 30);
        for record in metrics.records().values() {
            assert!(record.is_completed(), "{} did not complete", record.id);
            assert!(record.assignments >= 1);
        }
        assert!(world.abandoned_jobs().is_empty());
    }

    #[test]
    fn jobs_execute_only_on_matching_nodes() {
        let mut world = small_world(2);
        let profiles = world.profiles();
        let mut jobs = JobGenerator::paper_batch();
        let mut rng = SimRng::seed_from(99);
        let mut specs = Vec::new();
        for i in 0..20 {
            let at = SimTime::from_mins(i + 1);
            let spec = jobs.generate_feasible(at, &profiles, &mut rng);
            specs.push(spec);
            world.submit_job(at, spec);
        }
        world.run();
        for spec in specs {
            let record = &world.metrics().records()[&spec.id];
            let node = record.executed_on.expect("completed");
            let profile = world.profile_of(NodeId::new(node));
            assert!(
                spec.requirements.matches(profile),
                "{} ran on non-matching node {node}",
                spec.id
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut world = small_world(seed);
            submit_batch(&mut world, 25);
            world.run();
            let m = world.metrics();
            (
                m.completion_summary().mean(),
                m.traffic().total_messages(),
                m.idle_series().values().to_vec(),
            )
        };
        assert_eq!(run(7), run(7));
        let (mean_a, msgs_a, _) = run(7);
        let (mean_b, msgs_b, _) = run(8);
        assert!(mean_a != mean_b || msgs_a != msgs_b, "different seeds should differ");
    }

    #[test]
    fn traffic_has_paper_shape() {
        let mut world = small_world(3);
        submit_batch(&mut world, 30);
        let metrics = world.run();
        let traffic = metrics.traffic();
        assert!(traffic.messages(TrafficClass::Request) > 0);
        assert!(traffic.messages(TrafficClass::Accept) > 0);
        assert!(traffic.messages(TrafficClass::Assign) >= 30 - traffic_local_assigns(metrics));
        // INFORM flows only in rescheduling runs; here it is on.
        assert!(traffic.messages(TrafficClass::Inform) > 0);
    }

    fn traffic_local_assigns(metrics: &MetricsCollector) -> u64 {
        // Jobs assigned to their own initiator produce no ASSIGN message.
        metrics.records().len() as u64
    }

    #[test]
    fn disabling_rescheduling_silences_inform() {
        let mut config = WorldConfig::small_test(40);
        config.aria = AriaConfig::without_rescheduling();
        let mut world = World::new(config, 4);
        submit_batch(&mut world, 30);
        let metrics = world.run();
        assert_eq!(metrics.completed_count(), 30);
        assert_eq!(metrics.traffic().messages(TrafficClass::Inform), 0);
        assert_eq!(metrics.reschedule_summary().max(), 0.0);
    }

    #[test]
    fn rescheduling_actually_moves_jobs_under_load() {
        let mut config = WorldConfig::small_test(40);
        config.policies = PolicyMix::Uniform(Policy::Fcfs);
        let mut world = World::new(config, 5);
        // Heavy burst: many jobs in two minutes forces queues to build up,
        // so INFORM floods find better homes as executions drain.
        let mut jobs = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(2), 120);
        world.submit_schedule(&schedule, &mut jobs);
        let metrics = world.run();
        assert_eq!(metrics.completed_count(), 120);
        assert!(
            metrics.reschedule_summary().sum() > 0.0,
            "expected at least one dynamic reschedule under load"
        );
    }

    #[test]
    fn deadline_world_completes_and_reports_stats() {
        let mut config = WorldConfig::small_test(40);
        config.policies = PolicyMix::Uniform(Policy::Edf);
        let mut world = World::new(config, 6);
        let mut jobs = JobGenerator::paper_deadline();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 30);
        world.submit_schedule(&schedule, &mut jobs);
        let metrics = world.run();
        assert_eq!(metrics.completed_count(), 30);
        let stats = metrics.deadline_stats();
        assert_eq!(stats.met() + stats.missed(), 30);
    }

    #[test]
    fn batch_jobs_are_not_bid_on_by_deadline_nodes() {
        // A pure-EDF world receiving batch jobs: nobody may bid, so jobs
        // are retried and eventually abandoned.
        let mut config = WorldConfig::small_test(20);
        config.policies = PolicyMix::Uniform(Policy::Edf);
        config.aria.timing.max_request_rounds = 2;
        let mut world = World::new(config, 7);
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let job = JobSpec::batch(JobId::new(0), req, SimDuration::from_hours(1));
        world.submit_job(SimTime::from_mins(1), job);
        let metrics = world.run();
        assert_eq!(metrics.completed_count(), 0);
        assert_eq!(world.abandoned_jobs(), [JobId::new(0)]);
    }

    #[test]
    fn infeasible_job_is_retried_then_abandoned() {
        let mut config = WorldConfig::small_test(20);
        config.aria.timing.max_request_rounds = 3;
        let mut world = World::new(config, 8);
        // Demand an impossible amount of memory.
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, u16::MAX, 1);
        let job = JobSpec::batch(JobId::new(0), req, SimDuration::from_hours(1));
        world.submit_job(SimTime::from_mins(1), job);
        world.run();
        assert_eq!(world.abandoned_jobs().len(), 1);
        // Three REQUEST rounds of traffic were spent.
        assert!(world.metrics().traffic().messages(TrafficClass::Request) > 0);
    }

    #[test]
    fn expanding_world_grows_and_completes() {
        let mut config = WorldConfig::small_test(30);
        config.joins =
            (0..10u64).map(|i| SimTime::from_mins(30) + SimDuration::from_mins(i)).collect();
        let mut world = World::new(config, 9);
        submit_batch(&mut world, 20);
        world.run();
        assert_eq!(world.metrics().completed_count(), 20);
        assert_eq!(world.topology().len(), 40);
        assert!(world.topology().is_connected());
        assert_eq!(world.profiles().len(), 40);
    }

    #[test]
    fn alternative_overlays_schedule_jobs_too() {
        use crate::config::OverlayKind;
        for overlay in [
            OverlayKind::RandomRegular { degree: 4 },
            OverlayKind::SmallWorld { k: 4, beta: 0.2 },
            OverlayKind::Ring,
        ] {
            let mut config = WorldConfig::small_test(40);
            config.overlay = overlay;
            let mut world = World::new(config, 13);
            assert!(world.topology().is_connected(), "{overlay:?} disconnected");
            submit_batch(&mut world, 15);
            world.run();
            assert_eq!(world.metrics().completed_count(), 15, "{overlay:?} lost jobs");
        }
    }

    #[test]
    fn reservations_delay_but_never_lose_jobs() {
        use crate::config::ReservationPlan;
        let run = |plan: Option<ReservationPlan>, seed: u64| {
            let mut config = WorldConfig::small_test(40);
            config.reservations = plan;
            let mut world = World::new(config, seed);
            submit_batch(&mut world, 30);
            world.run();
            assert_eq!(world.metrics().completed_count(), 30);
            world.metrics().completion_summary().mean()
        };
        let free = run(None, 31);
        let reserved = run(Some(ReservationPlan::moderate()), 31);
        assert!(
            reserved >= free,
            "reservation load should not speed jobs up ({reserved} vs {free})"
        );
    }

    #[test]
    fn backfill_grid_completes_under_reservations() {
        use crate::config::ReservationPlan;
        let run = |policy: Policy, seed: u64| {
            let mut config = WorldConfig::small_test(40);
            config.policies = PolicyMix::Uniform(policy);
            config.reservations = Some(ReservationPlan::moderate());
            let mut world = World::new(config, seed);
            submit_batch(&mut world, 30);
            world.run();
            assert_eq!(world.metrics().completed_count(), 30, "{policy} lost jobs");
            world.metrics().waiting_summary().mean()
        };
        // Both complete; backfill should not be slower than strict FCFS
        // under the same reservation load (same seed, same workload).
        let fcfs = run(Policy::Fcfs, 33);
        let backfill = run(Policy::Backfill, 33);
        assert!(
            backfill <= fcfs * 1.1,
            "backfill waits ({backfill}) should not exceed FCFS ({fcfs}) by much"
        );
    }

    #[test]
    fn crashes_lose_nodes_but_failsafe_recovers_jobs() {
        let mut config = WorldConfig::small_test(50);
        // Crash five nodes while the workload is in flight.
        config.crashes = (0..5u64).map(|i| SimTime::from_mins(40 + 10 * i)).collect();
        let mut world = World::new(config, 21);
        submit_batch(&mut world, 40);
        world.run();
        assert_eq!(world.crashed_nodes().len(), 5);
        // Crashed nodes are disconnected; the survivors stay connected
        // (self-healing) — check by BFS over alive nodes only: every
        // alive node must reach some other alive node's neighborhood.
        for &dead in world.crashed_nodes() {
            assert!(!world.is_alive(dead));
            assert_eq!(world.topology().degree(dead), 0);
        }
        // Everything either completed or is explicitly accounted lost.
        let completed = usize::try_from(world.metrics().completed_count()).unwrap();
        let lost = world.lost_jobs().len();
        let abandoned = world.abandoned_jobs().len();
        assert_eq!(completed + lost + abandoned, 40, "job accounting broken");
        // The failsafe did real work on at least one seed/crash combo.
        assert!(
            world.recovered_count() > 0 || lost == 0,
            "crashes during load should trigger recoveries"
        );
        // No double execution: every completed record completed once.
        assert_eq!(
            world.metrics().records().values().filter(|r| r.is_completed()).count(),
            completed
        );
    }

    #[test]
    fn failsafe_off_loses_crashed_jobs() {
        let mut config = WorldConfig::small_test(30);
        config.failsafe = false;
        // Heavy burst then a crash right in the middle of the backlog.
        config.crashes = vec![SimTime::from_mins(30)];
        let mut world = World::new(config, 3);
        let mut jobs = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(5), 60);
        world.submit_schedule(&schedule, &mut jobs);
        world.run();
        let completed = usize::try_from(world.metrics().completed_count()).unwrap();
        let lost = world.lost_jobs().len();
        assert_eq!(completed + lost + world.abandoned_jobs().len(), 60);
        assert!(lost > 0, "a crash mid-backlog with no failsafe must lose jobs");
    }

    #[test]
    fn crash_refuses_to_kill_tiny_grids() {
        let mut config = WorldConfig::small_test(2);
        config.crashes = vec![SimTime::from_mins(1)];
        let mut world = World::new(config, 23);
        world.run();
        assert!(world.crashed_nodes().is_empty());
    }

    #[test]
    fn gauge_series_span_the_horizon() {
        let mut world = small_world(10);
        submit_batch(&mut world, 5);
        world.run();
        let expected =
            (world.config().horizon.as_millis() / world.config().sample_period.as_millis()) + 1;
        let metrics = world.metrics();
        assert_eq!(metrics.idle_series().len() as u64, expected);
        // Completed series is monotone non-decreasing.
        let completed = metrics.completed_series().values();
        assert!(completed.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*completed.last().unwrap(), 5.0);
    }

    #[test]
    fn waiting_time_reflects_queueing() {
        let mut world = small_world(12);
        submit_batch(&mut world, 40);
        world.run();
        let waiting = world.metrics().waiting_summary();
        assert_eq!(waiting.count(), 40);
        // Every job waits at least the accept window before starting.
        assert!(waiting.min() >= world.config().aria.timing.accept_window.as_secs_f64());
    }

    /// Regression: a dropped *reschedule* (steal) ASSIGN must never strand
    /// the job. The holder has already dequeued it when the ASSIGN goes
    /// out, so without the ACK/retransmit ladder (and the failsafe behind
    /// it) nobody would hold the job any more.
    ///
    /// The test drives the event loop by hand: it waits for a moment
    /// where a job sits waiting on its holder expensively enough to
    /// steal, injects an irresistible rescheduling bid through the real
    /// ACCEPT handler, and then plays lossy network for that one job —
    /// every ASSIGN about it is dropped until the failsafe fires.
    #[test]
    fn dropped_steal_assign_retransmits_then_failsafe_recovers() {
        let mut config = WorldConfig::small_test(10);
        // Smallest active plan: the fault layer (and with it ASSIGN
        // arming) is on, but the transport stays effectively reliable.
        config.fault.jitter_ms = 1;
        let mut world = World::new(config, 23);
        // A burst dense enough that queues build past the steal threshold.
        let mut jobs = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(5), 20);
        world.submit_schedule(&schedule, &mut jobs);

        // Step until some job is waiting on its holder with a queue cost
        // big enough that a crafted bid clears the steal threshold.
        let threshold = world.config.aria.reschedule_threshold.as_millis() as i64;
        let mut steal: Option<(SimTime, JobId, NodeId)> = None;
        while steal.is_none() {
            let (now, event) = world.events.pop().expect("no stealable moment in this run");
            world.handle(now, event);
            steal = world.metrics.records().keys().find_map(|&job| {
                let holder = world.jobs.slot(job).assignee?;
                let cost = world.nodes[holder.index()].queue.cost_of_waiting(job, now)?;
                (cost.as_millis() > threshold + 1).then_some((now, job, holder))
            });
        }
        let (now, job, holder) = steal.unwrap();
        let spec = world.jobs.spec(job);
        let thief = world
            .topology
            .nodes()
            .find(|&n| {
                n != holder
                    && world.nodes[n.index()].alive
                    && World::<NullProbe>::node_can_bid(&world.nodes[n.index()], &spec)
            })
            .expect("some other node can bid for the job");

        // The real steal path: dequeues from the holder, arms the
        // retransmit record, sends the ASSIGN.
        world.handle_accept(now, holder, thief, job, Cost::from_ettc(SimDuration::from_millis(1)));
        let armed = world.jobs.slot(job).assign.expect("steal ASSIGN must be armed");
        assert!(armed.reschedule, "the armed record must know it was a steal");
        assert_eq!(armed.to, thief);
        assert!(
            !world.nodes[holder.index()].queue.is_waiting(job),
            "the holder released the job when delegating"
        );

        // Lossy network for this one job: drop every ASSIGN about it —
        // the original, all retransmits, and every fallback — until the
        // failsafe takes over. No crash happens, so the only possible
        // recovery is the retransmit-exhaustion one.
        let mut drops = 0usize;
        let mut max_attempt = 0u32;
        while let Some((t, event)) = world.events.pop() {
            if let Some(a) = world.jobs.slot(job).assign {
                max_attempt = max_attempt.max(a.attempt);
            }
            if world.recovered_count() == 0 {
                if let Event::Deliver { to, msg: msg @ Message::Assign { job: j, .. } } = event {
                    if j == job {
                        drops += 1;
                        world.drop_in_transit(t, to, msg);
                        continue;
                    }
                }
            }
            world.handle(t, event);
        }

        let retries = world.config.aria.timing.assign_max_retries;
        assert!(
            drops > retries as usize,
            "the full retransmit ladder must have been exhausted (only {drops} drops)"
        );
        assert_eq!(max_attempt, retries, "every retry attempt must have been armed");
        assert_eq!(world.recovered_count(), 1, "the failsafe must recover the stranded job");
        assert_eq!(world.metrics().completed_count(), 20, "no job may be stranded");
        assert!(world.lost_jobs().is_empty());
        assert!(world.abandoned_jobs().is_empty());
        // No double-count: each record completed exactly once, and the
        // full post-run audit holds.
        assert_eq!(world.metrics().records().values().filter(|r| r.is_completed()).count(), 20);
        world.check_invariants();
    }

    /// Repeatedly crashing nodes must keep the surviving overlay
    /// connected: the self-healing re-link in `crash_node` (including its
    /// `degree >= 2` orphan-skip branch) has to hold the alive subgraph
    /// together all the way down to the 2-node refusal floor.
    #[test]
    fn repeated_crashes_keep_the_surviving_overlay_connected() {
        let mut world = small_world(17);
        let total = world.config.nodes;
        for wave in 0..total as u64 {
            world.crash_node(SimTime::from_mins(wave + 1));
            let alive = world.alive_nodes();
            assert_eq!(
                alive_component_size(&world, &alive),
                alive.len(),
                "alive overlay split after crash wave {wave} ({} survivors)",
                alive.len()
            );
        }
        // The refusal floor: crashes stop at two survivors.
        assert_eq!(world.alive_nodes().len(), 2);
        assert_eq!(world.crashed_nodes().len(), total - 2);
    }

    /// The maintained alive index (and the gauge counters riding on it)
    /// must stay equal to a full scan of all node slots — the
    /// implementation it replaced — under any interleaving of joins,
    /// crashes, and ordinary protocol progress.
    #[derive(Debug, Clone, Copy)]
    enum ChurnOp {
        Join,
        Crash,
        Step,
    }

    prop_compose! {
        fn arb_churn_op()(kind in 0u8..8) -> ChurnOp {
            match kind {
                0..=1 => ChurnOp::Join,
                2..=3 => ChurnOp::Crash,
                _ => ChurnOp::Step,
            }
        }
    }

    proptest! {
        #[test]
        fn alive_index_and_gauges_match_a_full_scan_under_churn(
            seed in 0u64..64,
            ops in proptest::collection::vec(arb_churn_op(), 1..50),
        ) {
            let mut world = small_world(seed);
            submit_batch(&mut world, 10);
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    ChurnOp::Join => world.join_node(now),
                    ChurnOp::Crash => world.crash_node(now),
                    ChurnOp::Step => {
                        // Let the protocol move: floods, accepts, queue
                        // promotions, completions all mutate the gauges.
                        for _ in 0..50 {
                            let Some((t, event)) = world.events.pop() else { break };
                            now = t;
                            world.handle(t, event);
                        }
                    }
                }
                let scan: Vec<NodeId> = world
                    .topology
                    .nodes()
                    .filter(|&n| world.nodes[n.index()].alive)
                    .collect();
                prop_assert_eq!(world.alive_nodes(), scan.clone(), "alive index diverged");
                world.fill_alive_candidates();
                prop_assert_eq!(world.candidates.clone(), scan.clone(), "candidate fill diverged");
                let idle = scan
                    .iter()
                    .filter(|&&n| world.nodes[n.index()].queue.is_idle())
                    .count();
                let queued: u64 = scan
                    .iter()
                    .map(|&n| world.nodes[n.index()].queue.waiting_len() as u64)
                    .sum();
                prop_assert_eq!(world.idle_alive, idle, "idle gauge diverged");
                prop_assert_eq!(world.queued_alive, queued, "queued gauge diverged");
            }
        }
    }

    /// Size of the connected component containing `alive[0]`, walking
    /// only links between alive nodes.
    fn alive_component_size(world: &World, alive: &[NodeId]) -> usize {
        let mut seen = vec![false; world.topology.len()];
        let mut stack = vec![alive[0]];
        seen[alive[0].index()] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for &peer in world.topology.neighbors(n) {
                if world.nodes[peer.index()].alive && !seen[peer.index()] {
                    seen[peer.index()] = true;
                    stack.push(peer);
                }
            }
        }
        count
    }
}
