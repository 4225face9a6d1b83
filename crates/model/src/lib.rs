//! # aria-model — exhaustive exploration of the ARiA message state machine
//!
//! The paper's correctness argument for REQUEST/ACCEPT/ASSIGN/INFORM is
//! empirical: 26 scenarios × 10 seeded runs, each exercising the *one*
//! delivery ordering its event queue happens to produce. This crate adds
//! the missing analysis tier — an explicit-state bounded model checker
//! that drives the **real** `aria-core` handler code (not a
//! re-implementation) over *every* reachable delivery ordering of small
//! worlds, with optional message loss and duplication.
//!
//! ## How it works
//!
//! * A world is built under [`aria_core::NetModel::Lockstep`]: transport
//!   decisions are pure functions of the state and carry zero latency,
//!   so the only nondeterminism left is the *order* of pending
//!   deliveries and timers — exactly what [`aria_core::Action`]
//!   enumerates.
//! * [`Explorer`] runs a breadth-first search over
//!   `World::step(action)`, deduplicating states by
//!   `World::fingerprint()` (BFS makes the first counterexample a
//!   minimal-length one by construction).
//! * Each discovered state is checked against [`Property`] — the world's
//!   own `try_check_invariants()` plus the temporal properties the
//!   single-ordering gates cannot see (cheapest-offer discipline via an
//!   independent shadow of the offer window, job conservation at
//!   terminal states, flood hop bounds).
//! * A simple partial-order reduction collapses provably-commuting
//!   deliveries (see `World::pending_deliveries` for the soundness
//!   argument); `por: false` turns it off, and an equivalence test pins
//!   that the reachable terminal states are identical either way.
//!
//! Counterexamples are replayable: [`Violation`] carries the exact
//! action trace from the initial state, [`Explorer::replay`] re-runs it
//! on a fresh world, and `cargo xtask explore` prints it ready to paste
//! into a regression test.

use aria_core::{Action, Message, NetModel, OverlayKind, PolicyMix, World, WorldConfig};
use aria_grid::{Cost, JobId, JobRequirements, JobSpec, Policy};
use aria_overlay::NodeId;
use aria_probe::{NullProbe, Probe, RingRecorder, Trace, TraceMeta};
use aria_sim::{SimDuration, SimTime};
use aria_workload::ArtModel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

// Re-exported so `cargo xtask explore` can hold counterexample traces
// without depending on `aria-core` directly.
pub use aria_core::Action as ModelAction;

/// Which property set the checker enforces per state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Property {
    /// The real protocol properties: state-machine invariants,
    /// offer-window discipline with an independent cheapest-offer
    /// shadow, flood hop bounds, and job conservation at terminal
    /// states.
    #[default]
    Protocol,
    /// A deliberately false property — "no job ever starts executing" —
    /// used by `cargo xtask explore --self-check` to prove the checker
    /// still *finds* violations and that its traces replay.
    SelfCheckNoExecution,
}

/// One small-world exploration problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Grid size (the intended range is 3–5 nodes).
    pub nodes: usize,
    /// Number of jobs submitted (1–3), all at the same instant so their
    /// floods race.
    pub jobs: usize,
    /// World build seed (profiles and policies; transport is lockstep
    /// and draws nothing).
    pub seed: u64,
    /// Maximum trace length explored before a path is truncated.
    pub max_depth: usize,
    /// Maximum distinct states visited before the search is truncated.
    pub max_states: usize,
    /// Fault budget: how many messages may be dropped along one path.
    pub drops: u32,
    /// Fault budget: how many flood messages may be duplicated along one
    /// path.
    pub dups: u32,
    /// Apply the partial-order reduction (inert deliveries explored
    /// alone).
    pub por: bool,
    /// Enable the INFORM/rescheduling phase (enlarges the state space
    /// considerably; off by default).
    pub rescheduling: bool,
    /// The property set to enforce.
    pub property: Property,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            nodes: 3,
            jobs: 1,
            seed: 1,
            max_depth: 2000,
            max_states: 200_000,
            drops: 0,
            dups: 0,
            por: true,
            rescheduling: false,
            property: Property::Protocol,
        }
    }
}

impl ModelConfig {
    /// Builds the initial world: a ring overlay under lockstep
    /// transport, exact running-time estimates, uniform FCFS policies,
    /// and `jobs` simultaneously submitted jobs that the seed node's
    /// profile can run (other nodes bid only if their drawn profile
    /// matches — mixed bidder/forwarder roles are part of the model).
    pub fn build_world(&self) -> World {
        self.build_world_with(NullProbe)
    }

    /// Like [`ModelConfig::build_world`], but with an explicit [`Probe`]
    /// attached — used by [`Explorer::replay_traced`] to export
    /// counterexample traces in the `aria-probe` schema.
    pub fn build_world_with<P: Probe>(&self, probe: P) -> World<P> {
        assert!(self.nodes >= 3, "crash-refusal and ring overlays need ≥ 3 nodes");
        let mut config = WorldConfig::small_test(self.nodes);
        config.net = NetModel::Lockstep;
        config.overlay = OverlayKind::Ring;
        config.art = ArtModel::Exact;
        config.policies = PolicyMix::Uniform(Policy::Fcfs);
        config.aria.rescheduling = self.rescheduling;
        config.aria.timing.max_request_rounds = 2;
        // A short horizon keeps the periodic chains (gauge samples,
        // INFORM ticks) finite and small.
        config.horizon = SimTime::from_mins(30);
        config.sample_period = SimDuration::from_mins(30);
        let mut world = World::with_probe(config, self.seed, probe);
        let anchor = *world.profiles().first().expect("non-empty world");
        for i in 0..self.jobs {
            let req = JobRequirements::new(anchor.arch, anchor.os, 1, 1);
            let spec = JobSpec::batch(JobId::new(i as u64), req, SimDuration::from_mins(5));
            world.submit_job(SimTime::from_mins(1), spec);
        }
        world
    }

    fn job_ids(&self) -> impl Iterator<Item = JobId> {
        (0..self.jobs as u64).map(JobId::new)
    }
}

/// Aggregate counters of one exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states discovered (after dedup), including the root.
    pub states: u64,
    /// Transitions that led to an already-visited state.
    pub dedup_hits: u64,
    /// Transitions taken (edges explored).
    pub transitions: u64,
    /// Length of the longest explored trace.
    pub max_depth: usize,
    /// Deadlock-free end states (event pool drained).
    pub terminals: u64,
    /// Fingerprints of the terminal states (for cross-validation against
    /// the event-queue driver).
    pub terminal_fingerprints: BTreeSet<u64>,
    /// Whether any bound (`max_depth`/`max_states`) cut the search — if
    /// `false`, the enumeration was exhaustive.
    pub truncated: bool,
}

/// A property violation with its replayable counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated property's message.
    pub message: String,
    /// The action trace from the initial state to the violating state.
    /// BFS discovery order makes it minimal-length.
    pub trace: Vec<Action>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property violated: {}", self.message)?;
        writeln!(f, "counterexample ({} action(s) from the initial state):", self.trace.len())?;
        for (i, action) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:>3}. {action}")?;
        }
        Ok(())
    }
}

/// The offer-window shadow: an independent record of the cheapest
/// eligible offer per open window, updated by the *checker* as ACCEPTs
/// are delivered, against which the protocol's own `pending.best` is
/// compared every state.
type Shadow = BTreeMap<JobId, Option<(Cost, NodeId)>>;

/// One frontier entry of the search. Generic over the attached probe so
/// [`Explorer::replay_traced`] can re-drive the same checking machinery
/// with a recorder where the BFS uses the free [`NullProbe`].
#[derive(Debug, Clone)]
struct SearchNode<P: Probe = NullProbe> {
    world: World<P>,
    shadow: Shadow,
    drops_left: u32,
    dups_left: u32,
    trace: Vec<Action>,
}

/// The explicit-state bounded model checker.
#[derive(Debug, Clone)]
pub struct Explorer {
    config: ModelConfig,
}

impl Explorer {
    /// Creates a checker for one exploration problem.
    pub fn new(config: ModelConfig) -> Self {
        Explorer { config }
    }

    /// The configured problem.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Runs the breadth-first exploration. Returns the counters and the
    /// first violation found (with its minimal trace), if any.
    pub fn run(&self) -> (ExploreStats, Option<Violation>) {
        let mut stats = ExploreStats::default();
        let root = self.root();
        if let Some(message) = self.check_state(&root, true) {
            stats.states = 1;
            return (stats, Some(Violation { message, trace: Vec::new() }));
        }
        let mut visited: BTreeSet<(u64, u64, u32, u32)> = BTreeSet::new();
        visited.insert(Self::key(&root));
        let mut frontier: VecDeque<SearchNode> = VecDeque::new();
        frontier.push_back(root);
        stats.states = 1;

        while let Some(node) = frontier.pop_front() {
            stats.max_depth = stats.max_depth.max(node.trace.len());
            let actions = self.enabled(&node);
            if actions.is_empty() {
                stats.terminals += 1;
                stats.terminal_fingerprints.insert(node.world.fingerprint());
                if let Some(message) = self.check_terminal(&node) {
                    return (stats, Some(Violation { message, trace: node.trace }));
                }
                continue;
            }
            if node.trace.len() >= self.config.max_depth {
                stats.truncated = true;
                continue;
            }
            for action in actions {
                stats.transitions += 1;
                let next = self.apply(&node, action);
                if let Some(message) = self.check_state(&next, false) {
                    return (stats, Some(Violation { message, trace: next.trace }));
                }
                if !visited.insert(Self::key(&next)) {
                    stats.dedup_hits += 1;
                    continue;
                }
                stats.states += 1;
                if stats.states >= self.config.max_states as u64 {
                    stats.truncated = true;
                    return (stats, None);
                }
                frontier.push_back(next);
            }
        }
        (stats, None)
    }

    /// Like [`Explorer::run`], but precomputing each BFS level's
    /// transitions on up to `workers` lanes of [`aria_sim::pool::map`]
    /// (the calling thread included). The expensive work per edge —
    /// cloning the parent world and stepping the real handlers, then
    /// running the per-state safety checks — is a pure function of the
    /// frozen `(state, action)` pair, so the edges of one level fan out
    /// freely; every *stateful* decision (counter updates, dedup against
    /// `visited`, both truncation bounds, and which violation is
    /// reported first) is then made serially in the exact order
    /// [`Explorer::run`] makes it. The two are therefore
    /// answer-identical at any worker count — same [`ExploreStats`],
    /// same minimal counterexample — which
    /// `run_parallel_is_bit_identical_to_run` pins.
    ///
    /// A FIFO frontier already visits states in level order, so the
    /// level-synchronous loop below is the serial iteration order, not
    /// an approximation of it.
    pub fn run_parallel(&self, workers: usize) -> (ExploreStats, Option<Violation>) {
        // One lane gains nothing from holding a whole level's edges.
        if workers <= 1 {
            return self.run();
        }
        let mut stats = ExploreStats::default();
        let root = self.root();
        if let Some(message) = self.check_state(&root, true) {
            stats.states = 1;
            return (stats, Some(Violation { message, trace: Vec::new() }));
        }
        let mut visited: BTreeSet<(u64, u64, u32, u32)> = BTreeSet::new();
        visited.insert(Self::key(&root));
        stats.states = 1;
        let mut level: Vec<SearchNode> = vec![root];

        while !level.is_empty() {
            // Cheap serial prepass: the enabled-action menu per node.
            // Terminal and depth-truncated nodes expand no edges, so
            // only the rest contribute work items.
            let menus: Vec<Vec<Action>> = level.iter().map(|n| self.enabled(n)).collect();
            let mut items: Vec<(usize, Action)> = Vec::new();
            for (i, menu) in menus.iter().enumerate() {
                if menu.is_empty() || level[i].trace.len() >= self.config.max_depth {
                    continue;
                }
                items.extend(menu.iter().map(|&action| (i, action)));
            }
            // The first few levels of every search are tiny; a fan-out
            // there costs more than the edges themselves.
            let lanes = if items.len() < 8 { 1 } else { workers };
            let mut results = aria_sim::pool::map(&items, lanes, |&(i, action)| {
                let next = self.apply(&level[i], action);
                let verdict = self.check_state(&next, false);
                (next, verdict)
            })
            .into_iter();

            // Serial consumption, replicating `run()` decision for
            // decision. Edges computed past an early return are simply
            // discarded — they were pure, so nothing observable leaks.
            let mut next_level: Vec<SearchNode> = Vec::new();
            for (i, node) in level.iter().enumerate() {
                stats.max_depth = stats.max_depth.max(node.trace.len());
                if menus[i].is_empty() {
                    stats.terminals += 1;
                    stats.terminal_fingerprints.insert(node.world.fingerprint());
                    if let Some(message) = self.check_terminal(node) {
                        return (stats, Some(Violation { message, trace: node.trace.clone() }));
                    }
                    continue;
                }
                if node.trace.len() >= self.config.max_depth {
                    stats.truncated = true;
                    continue;
                }
                for _ in &menus[i] {
                    let (next, verdict) = results.next().expect("one result per work item");
                    stats.transitions += 1;
                    if let Some(message) = verdict {
                        return (stats, Some(Violation { message, trace: next.trace }));
                    }
                    if !visited.insert(Self::key(&next)) {
                        stats.dedup_hits += 1;
                        continue;
                    }
                    stats.states += 1;
                    if stats.states >= self.config.max_states as u64 {
                        stats.truncated = true;
                        return (stats, None);
                    }
                    next_level.push(next);
                }
            }
            level = next_level;
        }
        (stats, None)
    }

    /// Replays an action trace on a fresh world, re-checking every
    /// intermediate state. Returns the final world and the first
    /// property violation hit along the way (a genuine counterexample
    /// must reproduce its violation here).
    pub fn replay(&self, trace: &[Action]) -> (World, Option<String>) {
        self.replay_on(NullProbe, trace)
    }

    /// Like [`Explorer::replay`], but records every protocol transition
    /// of the replay through an `aria-probe` [`RingRecorder`] and returns
    /// the recording — so a checker counterexample exports in the same
    /// JSONL schema (and through the same tooling: timelines, summaries,
    /// `probe diff`) as a scenario run. The second element is the first
    /// property violation hit along the way, as in [`Explorer::replay`].
    pub fn replay_traced(&self, trace: &[Action]) -> (Trace, Option<String>) {
        let (world, violation) = self.replay_on(RingRecorder::default(), trace);
        let meta = TraceMeta {
            scenario: format!("model-{}n-{}j", self.config.nodes, self.config.jobs),
            seed: self.config.seed,
            nodes: self.config.nodes as u64,
            jobs: self.config.jobs as u64,
        };
        (world.into_probe().into_trace(meta), violation)
    }

    fn replay_on<P: Probe + Clone>(
        &self,
        probe: P,
        trace: &[Action],
    ) -> (World<P>, Option<String>) {
        let mut node = self.root_with(probe);
        if let Some(message) = self.check_state(&node, true) {
            return (node.world, Some(message));
        }
        for &action in trace {
            node = self.apply(&node, action);
            if let Some(message) = self.check_state(&node, false) {
                return (node.world, Some(message));
            }
        }
        if self.enabled(&node).is_empty() {
            if let Some(message) = self.check_terminal(&node) {
                return (node.world, Some(message));
            }
        }
        (node.world, None)
    }

    fn root(&self) -> SearchNode {
        self.root_with(NullProbe)
    }

    fn root_with<P: Probe>(&self, probe: P) -> SearchNode<P> {
        let world = self.config.build_world_with(probe);
        SearchNode {
            world,
            shadow: Shadow::new(),
            drops_left: self.config.drops,
            dups_left: self.config.dups,
            trace: Vec::new(),
        }
    }

    /// The dedup key: world fingerprint, shadow fingerprint and the
    /// remaining fault budgets. (With correct handlers the shadow always
    /// equals the protocol's own `pending.best`, so it adds no states —
    /// it only separates states when the property is about to fail.)
    fn key(node: &SearchNode) -> (u64, u64, u32, u32) {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in format!("{:?}", node.shadow).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        (node.world.fingerprint(), hash, node.drops_left, node.dups_left)
    }

    /// The actions explored from a state, after the partial-order
    /// reduction.
    fn enabled<P: Probe>(&self, node: &SearchNode<P>) -> Vec<Action> {
        let deliveries = node.world.pending_deliveries();
        // POR: explore a provably-inert delivery alone. Disabled while
        // duplication budget remains — a duplicate of the inert message
        // itself would be lost from the reduced successor.
        if self.config.por && node.dups_left == 0 {
            if let Some(inert) = deliveries.iter().find(|d| d.inert) {
                return vec![Action::Deliver { to: inert.to, msg: inert.msg }];
            }
        }
        let mut actions = Vec::new();
        for d in &deliveries {
            actions.push(Action::Deliver { to: d.to, msg: d.msg });
            if node.drops_left > 0 {
                actions.push(Action::Drop { to: d.to, msg: d.msg });
            }
            if node.dups_left > 0 {
                // Every message kind is duplicable: floods dedup via
                // their visited sets, ACCEPT/ASSIGN/ACK exercise the
                // idempotent handlers (a duplicated ASSIGN suppressing
                // instead of double-enqueueing is exactly what the
                // checker should be able to refute).
                actions.push(Action::Duplicate { to: d.to, msg: d.msg });
            }
        }
        if node.world.next_timer().is_some() {
            actions.push(Action::Timer);
        }
        actions
    }

    /// Applies one action, maintaining the offer shadow:
    ///
    /// * an ACCEPT delivered to the job's initiator while its window is
    ///   open lowers the shadow minimum (strict `<`, mirroring the
    ///   first-received-wins tie-break the protocol specifies);
    /// * a window that opened during the step seeds its shadow from the
    ///   initiator's own bid (nothing else can have been delivered yet);
    /// * a window that closed drops its shadow.
    fn apply<P: Probe + Clone>(&self, node: &SearchNode<P>, action: Action) -> SearchNode<P> {
        let mut next = node.clone();
        next.trace.push(action);
        match action {
            Action::Drop { .. } => next.drops_left -= 1,
            Action::Duplicate { .. } => next.dups_left -= 1,
            _ => {}
        }
        if let Action::Deliver { to, msg: Message::Accept { from, job, cost } } = action {
            if next.world.initiator_of(job) == Some(to) && next.world.offer_window_open(job) {
                let entry = next.shadow.entry(job).or_insert(None);
                let better = match *entry {
                    None => true,
                    Some((best, _)) => cost < best,
                };
                if better {
                    *entry = Some((cost, from));
                }
            }
        }
        next.world.step(action);
        for job in self.config.job_ids() {
            if next.world.offer_window_open(job) {
                next.shadow.entry(job).or_insert_with(|| next.world.offer_best(job));
            } else {
                next.shadow.remove(&job);
            }
        }
        next
    }

    /// Per-state safety checks. `root` skips the pre-submission phase
    /// where no job is registered yet.
    fn check_state<P: Probe>(&self, node: &SearchNode<P>, root: bool) -> Option<String> {
        if let Err(message) = node.world.try_check_invariants() {
            return Some(message);
        }
        // Flood hop bounds: a pending flood message always has between 1
        // and the configured budget of hops left (bounded termination).
        let aria = &node.world.config().aria;
        for d in node.world.pending_deliveries() {
            let bound = match d.msg {
                Message::Request { hops_left, .. } => Some((hops_left, aria.request_hops)),
                Message::Inform { hops_left, .. } => Some((hops_left, aria.inform_hops)),
                _ => None,
            };
            if let Some((hops_left, max)) = bound {
                if hops_left < 1 || hops_left > max {
                    return Some(format!(
                        "flood hop budget out of bounds: {} pending for {} with hops_left={} \
                         (limit {})",
                        d.msg, d.to, hops_left, max
                    ));
                }
            }
        }
        if !root {
            // Cheapest-offer discipline: inside an open window the
            // protocol's recorded best must equal the checker's
            // independent shadow of the eligible offers delivered so far.
            for job in self.config.job_ids() {
                if node.world.offer_window_open(job) {
                    let shadow = node.shadow.get(&job).copied().unwrap_or(None);
                    let best = node.world.offer_best(job);
                    if best != shadow {
                        return Some(format!(
                            "cheapest-offer violation for {job}: window records {best:?} but \
                             the delivered offers say {shadow:?}"
                        ));
                    }
                }
            }
        }
        // No duplicated execution: the collector's completion counter
        // must match the number of completed records, each completed
        // once, and never exceed the submitted jobs.
        let completed_records =
            node.world.metrics().records().values().filter(|r| r.is_completed()).count() as u64;
        if node.world.completion_count() != completed_records
            || completed_records > self.config.jobs as u64
        {
            return Some(format!(
                "job duplication: {} completions over {} completed record(s) of {} job(s)",
                node.world.completion_count(),
                completed_records,
                self.config.jobs
            ));
        }
        if self.config.property == Property::SelfCheckNoExecution {
            for record in node.world.metrics().records().values() {
                if record.started_at.is_some() {
                    return Some(format!(
                        "self-check property: {} started executing (deliberately false)",
                        record.id
                    ));
                }
            }
        }
        None
    }

    /// Terminal-state checks: job conservation across every explored
    /// ordering — completed, abandoned or (with drops) explicitly lost,
    /// never silently vanished, never duplicated.
    fn check_terminal<P: Probe>(&self, node: &SearchNode<P>) -> Option<String> {
        let world = &node.world;
        let completed = world.completion_count();
        let abandoned = world.abandoned_jobs().len() as u64;
        let lost = world.lost_jobs().len() as u64;
        let submitted = self.config.jobs as u64;
        if completed + abandoned + lost != submitted {
            return Some(format!(
                "job conservation violated at terminal state: completed={completed} \
                 abandoned={abandoned} lost={lost}, submitted={submitted}"
            ));
        }
        if self.config.drops == 0 && lost != 0 {
            return Some(format!("{lost} job(s) lost without any message loss injected"));
        }
        for job in self.config.job_ids() {
            if world.is_completed(job) && world.holder_of(job).is_some() {
                return Some(format!("{job} completed but still sits in a queue"));
            }
            if world.offer_window_open(job) {
                return Some(format!("{job} still collects offers at a terminal state"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_one_job_world_is_exhaustively_clean() {
        let explorer = Explorer::new(ModelConfig::default());
        let (stats, violation) = explorer.run();
        assert!(violation.is_none(), "unexpected violation:\n{}", violation.unwrap());
        assert!(!stats.truncated, "the 3-node/1-job world must be exhaustible");
        assert!(stats.states > 10, "only {} states — exploration did not branch", stats.states);
        assert!(stats.terminals >= 1);
        assert!(stats.dedup_hits > 0, "orderings must reconverge for dedup to matter");
    }

    #[test]
    fn por_preserves_the_terminal_states() {
        let with = Explorer::new(ModelConfig { por: true, ..ModelConfig::default() });
        let without = Explorer::new(ModelConfig { por: false, ..ModelConfig::default() });
        let (s1, v1) = with.run();
        let (s2, v2) = without.run();
        assert!(v1.is_none() && v2.is_none());
        assert!(!s1.truncated && !s2.truncated);
        assert_eq!(
            s1.terminal_fingerprints, s2.terminal_fingerprints,
            "the reduction must not change the reachable end states"
        );
        assert!(
            s1.states <= s2.states,
            "the reduction must not enlarge the search ({} > {})",
            s1.states,
            s2.states
        );
    }

    #[test]
    fn drops_are_survived_by_the_failsafe_accounting() {
        let explorer =
            Explorer::new(ModelConfig { drops: 1, max_states: 400_000, ..ModelConfig::default() });
        let (stats, violation) = explorer.run();
        assert!(violation.is_none(), "unexpected violation:\n{}", violation.unwrap());
        assert!(stats.states > 0);
    }

    #[test]
    fn duplicated_floods_do_not_break_suppression() {
        let explorer =
            Explorer::new(ModelConfig { dups: 1, max_states: 400_000, ..ModelConfig::default() });
        let (stats, violation) = explorer.run();
        assert!(violation.is_none(), "unexpected violation:\n{}", violation.unwrap());
        assert!(stats.states > 0);
    }

    #[test]
    fn self_check_property_fails_with_a_replayable_minimal_trace() {
        let config =
            ModelConfig { property: Property::SelfCheckNoExecution, ..ModelConfig::default() };
        let explorer = Explorer::new(config);
        let (_, violation) = explorer.run();
        let violation = violation.expect("the deliberately-false property must be caught");
        assert!(violation.message.contains("self-check property"));
        assert!(!violation.trace.is_empty());
        // The trace replays to the same violation on a fresh world.
        let (_, replayed) = explorer.replay(&violation.trace);
        assert_eq!(replayed.as_deref(), Some(violation.message.as_str()));
        // Minimality: chopping the last action must not violate.
        let (_, shorter) = explorer.replay(&violation.trace[..violation.trace.len() - 1]);
        assert!(
            shorter.is_none() || shorter.as_deref() != Some(violation.message.as_str()),
            "the trace has a redundant tail"
        );
    }

    #[test]
    fn counterexample_traces_export_in_the_probe_schema() {
        let config =
            ModelConfig { property: Property::SelfCheckNoExecution, ..ModelConfig::default() };
        let explorer = Explorer::new(config);
        let (_, violation) = explorer.run();
        let violation = violation.expect("the deliberately-false property must be caught");
        let (trace, replayed) = explorer.replay_traced(&violation.trace);
        assert_eq!(replayed.as_deref(), Some(violation.message.as_str()));
        assert!(!trace.entries.is_empty(), "a counterexample replay must record transitions");
        assert!(trace.meta.scenario.starts_with("model-"));
        // Round-trips through the versioned JSONL schema.
        let jsonl = aria_probe::schema::to_jsonl(&trace);
        let back = aria_probe::schema::from_jsonl(&jsonl).expect("schema-valid export");
        assert_eq!(back, trace);
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run() {
        let cases = [
            // Exhaustive clean search: stats must match field for field.
            ModelConfig::default(),
            // Violation path: the same minimal counterexample must come
            // out first at any worker count.
            ModelConfig { property: Property::SelfCheckNoExecution, ..ModelConfig::default() },
            // Truncation path: the mid-level max_states cut must land on
            // the same edge.
            ModelConfig { drops: 1, max_states: 3_000, ..ModelConfig::default() },
        ];
        for config in cases {
            let explorer = Explorer::new(config);
            let serial = explorer.run();
            for workers in [2, 8] {
                let parallel = explorer.run_parallel(workers);
                assert_eq!(
                    serial,
                    parallel,
                    "parallel exploration diverged at workers={workers} for {:?}",
                    explorer.config()
                );
            }
        }
    }

    #[test]
    fn two_jobs_race_without_violations() {
        let explorer = Explorer::new(ModelConfig {
            jobs: 2,
            nodes: 3,
            max_states: 400_000,
            ..ModelConfig::default()
        });
        let (stats, violation) = explorer.run();
        assert!(violation.is_none(), "unexpected violation:\n{}", violation.unwrap());
        assert!(stats.states > 100, "two racing floods must branch the search");
    }
}
