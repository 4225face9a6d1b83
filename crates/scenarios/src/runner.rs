//! Multi-seed scenario execution.

use crate::catalog::Scenario;
use aria_core::{World, WorldConfig};
use aria_metrics::{DeadlineStats, TrafficClass, TrafficLedger};
use aria_probe::{NullProbe, Probe, RingRecorder, Trace, TraceMeta};
use aria_sim::{Summary, TimeSeries};
use aria_workload::JobGenerator;

/// Compact statistics of one `(scenario, seed)` simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Seed of the run.
    pub seed: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs abandoned after exhausting REQUEST rounds.
    pub abandoned: usize,
    /// Completed-jobs time series (Figure 1).
    pub completed_series: TimeSeries,
    /// Idle-nodes time series (Figures 3, 5, 6).
    pub idle_series: TimeSeries,
    /// Waiting times, seconds (Figure 2).
    pub waiting: Summary,
    /// Execution times, seconds (Figure 2).
    pub execution: Summary,
    /// Completion times, seconds (Figures 2, 7, 8, 9).
    pub completion: Summary,
    /// Median completion time, seconds.
    pub completion_p50: f64,
    /// 95th-percentile completion time, seconds.
    pub completion_p95: f64,
    /// Deadline statistics (Figure 4).
    pub deadline: DeadlineStats,
    /// Message traffic (Figure 10).
    pub traffic: TrafficLedger,
    /// Total dynamic reschedules across jobs.
    pub reschedules: f64,
    /// Wall-clock duration of the simulation loop, seconds. Pure
    /// observability — measured around the run from outside and never
    /// fed back into the simulation (which keeps runs deterministic).
    pub wall_time_secs: f64,
    /// Events drained by the run's event loop.
    pub events: u64,
}

impl RunStats {
    /// Drained events per wall-clock second (0 when the run was too
    /// fast for the clock to register).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_time_secs > 0.0 {
            self.events as f64 / self.wall_time_secs
        } else {
            0.0
        }
    }
}

/// All runs of one scenario plus cross-seed aggregation helpers.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario.
    pub scenario: Scenario,
    /// Per-seed run statistics.
    pub runs: Vec<RunStats>,
}

impl ScenarioResult {
    /// Point-wise average of the completed-jobs series across seeds.
    pub fn avg_completed_series(&self) -> TimeSeries {
        TimeSeries::average(self.runs.iter().map(|r| &r.completed_series))
            .expect("runs share one sampling period")
    }

    /// Point-wise average of the idle-nodes series across seeds.
    pub fn avg_idle_series(&self) -> TimeSeries {
        TimeSeries::average(self.runs.iter().map(|r| &r.idle_series))
            .expect("runs share one sampling period")
    }

    /// Waiting-time summary merged across seeds (seconds).
    pub fn waiting(&self) -> Summary {
        self.merge(|r| r.waiting)
    }

    /// Execution-time summary merged across seeds (seconds).
    pub fn execution(&self) -> Summary {
        self.merge(|r| r.execution)
    }

    /// Completion-time summary merged across seeds (seconds).
    pub fn completion(&self) -> Summary {
        self.merge(|r| r.completion)
    }

    fn merge(&self, pick: impl Fn(&RunStats) -> Summary) -> Summary {
        let mut merged = Summary::new();
        for run in &self.runs {
            merged.merge(&pick(run));
        }
        merged
    }

    /// Averages one per-run statistic across seeds (0 with no runs).
    ///
    /// All the `avg_*` accessors below are this one fold with a
    /// different projection.
    pub fn avg_over_runs(&self, stat: impl Fn(&RunStats) -> f64) -> f64 {
        self.runs.iter().map(stat).sum::<f64>() / self.runs.len().max(1) as f64
    }

    /// Average per-run missed deadlines.
    pub fn avg_missed_deadlines(&self) -> f64 {
        self.avg_over_runs(|r| r.deadline.missed() as f64)
    }

    /// Average lateness (slack of met deadlines) across runs, seconds.
    pub fn avg_lateness_secs(&self) -> f64 {
        self.avg_over_runs(|r| r.deadline.avg_lateness().as_secs_f64())
    }

    /// Average missed time across runs, seconds.
    pub fn avg_missed_time_secs(&self) -> f64 {
        self.avg_over_runs(|r| r.deadline.avg_missed_time().as_secs_f64())
    }

    /// Average per-run message count for a traffic class.
    pub fn avg_messages(&self, class: TrafficClass) -> f64 {
        self.avg_over_runs(|r| r.traffic.messages(class) as f64)
    }

    /// Average per-run bytes for a traffic class.
    pub fn avg_bytes(&self, class: TrafficClass) -> f64 {
        self.avg_messages(class) * class.message_bytes() as f64
    }

    /// Average per-run total bytes across classes.
    pub fn avg_total_bytes(&self) -> f64 {
        TrafficClass::ALL.iter().map(|&c| self.avg_bytes(c)).sum()
    }

    /// Average per-run dynamic reschedule count.
    pub fn avg_reschedules(&self) -> f64 {
        self.avg_over_runs(|r| r.reschedules)
    }

    /// Median completion time averaged across runs, seconds.
    pub fn avg_completion_p50(&self) -> f64 {
        self.avg_over_runs(|r| r.completion_p50)
    }

    /// 95th-percentile completion time averaged across runs, seconds.
    pub fn avg_completion_p95(&self) -> f64 {
        self.avg_over_runs(|r| r.completion_p95)
    }
}

/// Executes scenarios across seeds.
///
/// At paper scale each run simulates 500-700 nodes for 41h40m of grid
/// time; [`Runner::scaled`] provides a shrunken variant for tests,
/// examples and quick iterations.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    /// Override for the node count (`None` = paper scale).
    nodes: Option<usize>,
    /// Override for the job count (`None` = paper scale).
    jobs: Option<usize>,
    /// Lanes of the seed fan-out, the calling thread included; the
    /// extra threads are capped by the shared [`aria_sim::pool`] budget.
    workers: usize,
}

impl Runner {
    /// A full paper-scale runner.
    pub fn paper() -> Self {
        Runner { nodes: None, jobs: None, workers: aria_sim::pool::default_lanes() }
    }

    /// A scaled-down runner with the given node and job counts
    /// (submission interval and horizon are kept, so load *per node*
    /// rises as the grid shrinks).
    pub fn scaled(nodes: usize, jobs: usize) -> Self {
        Runner { nodes: Some(nodes), jobs: Some(jobs), workers: aria_sim::pool::default_lanes() }
    }

    /// Sets the number of lanes, the calling thread included
    /// (builder-style); 1 runs everything on the caller.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The node count used for `fallback`-sized worlds under this
    /// runner's scale overrides.
    pub fn nodes_or(&self, fallback: usize) -> usize {
        self.nodes.unwrap_or(fallback)
    }

    /// The submission schedule for a scenario under this runner's scale
    /// overrides.
    pub fn schedule_for(&self, scenario: Scenario) -> aria_workload::SubmissionSchedule {
        let schedule = scenario.submission_schedule();
        match self.jobs {
            Some(jobs) => {
                aria_workload::SubmissionSchedule::new(schedule.start(), schedule.interval(), jobs)
            }
            None => schedule,
        }
    }

    /// Builds the world for one run of `scenario` (applying any scale
    /// overrides) and executes it with the scenario's workload.
    pub fn run_once(&self, scenario: Scenario, seed: u64) -> RunStats {
        self.run_config(scenario, self.config_for(scenario), seed, false, NullProbe).0
    }

    /// Like [`Runner::run_once`], but audits the full protocol state
    /// machine after every drained event via
    /// [`World::check_invariants`], in every build profile.
    ///
    /// The audit is read-only, so the returned statistics are
    /// bit-for-bit identical to [`Runner::run_once`] for the same
    /// `(scenario, seed)` — `tests/invariants_golden.rs` asserts
    /// exactly that. Orders of magnitude slower; test-scale worlds only.
    pub fn run_once_checked(&self, scenario: Scenario, seed: u64) -> RunStats {
        self.run_config(scenario, self.config_for(scenario), seed, true, NullProbe).0
    }

    /// Runs one `(scenario, seed)` with a structured-event trace
    /// attached: every protocol transition is recorded into a bounded
    /// [`RingRecorder`] and returned as an exportable [`Trace`]
    /// alongside the usual statistics.
    ///
    /// The probe observes without participating, so the statistics are
    /// bit-for-bit identical to [`Runner::run_once`] for the same
    /// `(scenario, seed)` — `tests/probe_golden.rs` pins that.
    pub fn run_once_traced(&self, scenario: Scenario, seed: u64) -> (RunStats, Trace) {
        let config = self.config_for(scenario);
        let (stats, world) =
            self.run_config(scenario, config, seed, false, RingRecorder::default());
        let meta = TraceMeta {
            scenario: scenario.to_string(),
            seed,
            nodes: world.config().nodes as u64,
            jobs: self.schedule_for(scenario).count() as u64,
        };
        (stats, world.into_probe().into_trace(meta))
    }

    /// Runs `scenario`'s workload (under this runner's job count) on an
    /// explicit world configuration — normally an edited copy of
    /// [`Runner::config_for`] — with the probe attached, auditing every
    /// event when `checked`. Returns the statistics together with the
    /// finished world (so callers can extract the probe or inspect final
    /// state). Every `run_once*` entry point ends here; the ablation
    /// campaign calls it with edits of iMixed's config and the loss
    /// sweep ([`crate::sweep`]) with a lossy [`aria_core::FaultPlan`].
    pub fn run_config<P: Probe>(
        &self,
        scenario: Scenario,
        config: WorldConfig,
        seed: u64,
        checked: bool,
        probe: P,
    ) -> (RunStats, World<P>) {
        let mut world = World::with_probe(config, seed, probe);
        let mut generator = JobGenerator::new(scenario.job_config());
        world.submit_schedule(&self.schedule_for(scenario), &mut generator);
        // Timing the loop from outside is pure observability: the
        // reading is reported, never fed back into the simulation.
        #[expect(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "wall time is reported, never fed back into the simulation"
        )]
        let start = std::time::Instant::now();
        if checked {
            world.run_checked();
        } else {
            world.run();
        }
        let wall_time_secs = start.elapsed().as_secs_f64();

        let metrics = world.metrics();
        let completions: Vec<f64> = metrics
            .records()
            .values()
            .filter_map(|r| r.completion_time())
            .map(|d| d.as_secs_f64())
            .collect();
        let stats = RunStats {
            seed,
            completed: metrics.completed_count(),
            abandoned: world.abandoned_jobs().len(),
            completed_series: metrics.completed_series().clone(),
            idle_series: metrics.idle_series().clone(),
            waiting: metrics.waiting_summary(),
            execution: metrics.execution_summary(),
            completion: metrics.completion_summary(),
            completion_p50: aria_sim::stats::percentile(&completions, 0.5),
            completion_p95: aria_sim::stats::percentile(&completions, 0.95),
            deadline: metrics.deadline_stats(),
            traffic: *metrics.traffic(),
            reschedules: metrics.reschedule_summary().sum(),
            wall_time_secs,
            events: world.processed_events(),
        };
        (stats, world)
    }

    /// The world configuration of one run of `scenario`: the scenario's
    /// config under this runner's scale overrides. `run-scenario`, the
    /// ablation campaign and every `run_once*` entry point start here.
    pub fn config_for(&self, scenario: Scenario) -> WorldConfig {
        let mut config = scenario.world_config();
        if let Some(nodes) = self.nodes {
            let shrink = nodes as f64 / config.nodes as f64;
            config.nodes = nodes;
            // Scale the expanding-scenario joins with the grid.
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "shrink is in [0, 1], so round(len * shrink) fits"
            )]
            let keep = (config.joins.len() as f64 * shrink).round() as usize;
            config.joins.truncate(keep);
            // Small overlays cannot sustain a 9-hop average path bound.
            config.overlay_path_length = config.overlay_path_length.min((nodes as f64).log2());
        }
        config
    }

    /// Runs one scenario over the given seeds.
    pub fn run(&self, scenario: Scenario, seeds: &[u64]) -> ScenarioResult {
        let results = self.run_many(&[scenario], seeds);
        results.into_iter().next().expect("one scenario requested")
    }

    /// Runs several scenarios over the given seeds, fanning the
    /// `(scenario, seed)` pairs out over this runner's lanes.
    pub fn run_many(&self, scenarios: &[Scenario], seeds: &[u64]) -> Vec<ScenarioResult> {
        self.fan_out(scenarios, seeds, |&scenario, seed| self.run_once(scenario, seed))
            .into_iter()
            .zip(scenarios)
            .map(|(runs, &scenario)| ScenarioResult { scenario, runs })
            .collect()
    }

    /// Runs `scenario`'s workload on each of `configs` over the given
    /// seeds (see [`Runner::run_config`]), fanned out like
    /// [`Runner::run_many`]; one result per config, in order.
    pub(crate) fn run_configs(
        &self,
        scenario: Scenario,
        configs: &[WorldConfig],
        seeds: &[u64],
    ) -> Vec<ScenarioResult> {
        self.fan_out(configs, seeds, |config, seed| {
            self.run_config(scenario, config.clone(), seed, false, NullProbe).0
        })
        .into_iter()
        .map(|runs| ScenarioResult { scenario, runs })
        .collect()
    }

    /// Calls `run(item, seed)` for every item and seed as one
    /// [`aria_sim::pool::map`] over the pairs on this runner's lanes;
    /// returns each item's runs in `seeds` order.
    pub(crate) fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        seeds: &[u64],
        run: impl Fn(&T, u64) -> R + Sync,
    ) -> Vec<Vec<R>> {
        let pairs: Vec<(&T, u64)> =
            items.iter().flat_map(|item| seeds.iter().map(move |&seed| (item, seed))).collect();
        let mut runs =
            aria_sim::pool::map(&pairs, self.workers, |&(item, seed)| run(item, seed)).into_iter();
        items.iter().map(|_| runs.by_ref().take(seeds.len()).collect()).collect()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Runner {
        Runner::scaled(30, 15)
    }

    #[test]
    fn run_once_completes_all_jobs() {
        let stats = tiny().run_once(Scenario::IMixed, 3);
        assert_eq!(stats.completed, 15);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.completion.count(), 15);
        assert!(stats.traffic.total_messages() > 0);
    }

    #[test]
    fn run_aggregates_over_seeds() {
        let result = tiny().run(Scenario::Mixed, &[1, 2]);
        assert_eq!(result.runs.len(), 2);
        assert_eq!(result.runs[0].seed, 1);
        assert_eq!(result.runs[1].seed, 2);
        assert_eq!(result.completion().count(), 30);
        let avg = result.avg_completed_series();
        assert!(!avg.is_empty());
        assert_eq!(*avg.values().last().unwrap(), 15.0);
    }

    #[test]
    fn percentiles_bracket_the_mean() {
        let result = tiny().run(Scenario::IMixed, &[4]);
        let run = &result.runs[0];
        assert!(run.completion_p50 > 0.0);
        assert!(run.completion_p95 >= run.completion_p50);
        assert!(run.completion.min() <= result.avg_completion_p50());
        assert!(result.avg_completion_p95() <= run.completion.max());
    }

    #[test]
    fn run_many_keeps_scenario_order() {
        let results = tiny().run_many(&[Scenario::Mixed, Scenario::IMixed], &[1]);
        assert_eq!(results[0].scenario, Scenario::Mixed);
        assert_eq!(results[1].scenario, Scenario::IMixed);
    }

    #[test]
    fn plain_scenarios_have_no_inform_traffic() {
        let result = tiny().run(Scenario::Mixed, &[5]);
        assert_eq!(result.avg_messages(TrafficClass::Inform), 0.0);
        assert_eq!(result.avg_reschedules(), 0.0);
    }

    #[test]
    fn deadline_scenario_reports_deadline_stats() {
        let result = tiny().run(Scenario::IDeadline, &[7]);
        let run = &result.runs[0];
        assert_eq!(run.deadline.met() + run.deadline.missed(), run.completed);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Every field but the wall-clock reading, seed by seed; `{:?}`
        // prints each float exactly.
        let timeless =
            |r: &RunStats| format!("{:?}", RunStats { wall_time_secs: 0.0, ..r.clone() });
        let serial = tiny().workers(1).run(Scenario::Mixed, &[1, 2]);
        let parallel = tiny().workers(4).run(Scenario::Mixed, &[1, 2]);
        assert_eq!(serial.runs.len(), 2);
        assert_eq!(parallel.runs.len(), 2);
        for (serial, parallel) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(timeless(serial), timeless(parallel), "seed {}", serial.seed);
        }
    }

    #[test]
    fn scaled_runner_shrinks_expanding_joins() {
        let stats = Runner::scaled(50, 10).run_once(Scenario::IExpanding, 2);
        assert_eq!(stats.completed, 10);
    }
}
