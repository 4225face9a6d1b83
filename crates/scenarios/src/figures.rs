//! Textual reproduction of every table and figure in the paper.
//!
//! Each `figN` method runs (or reuses) the scenarios that figure needs
//! and renders the same rows/series the paper plots. Output is plain
//! text with CSV-style series so results can be diffed, parsed or
//! re-plotted.

use crate::catalog::Scenario;
use crate::plot::ascii_chart;
use crate::runner::{Runner, ScenarioResult};
use aria_core::WorldConfig;
use aria_metrics::TrafficClass;
use aria_sim::TimeSeries;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A figure/table reproduction campaign with scenario-result caching:
/// figures sharing scenarios (e.g. Figures 1-3) pay for each simulation
/// only once.
#[derive(Debug)]
pub struct Campaign {
    runner: Runner,
    seeds: Vec<u64>,
    cache: BTreeMap<&'static str, ScenarioResult>,
}

impl Campaign {
    /// Creates a campaign over the given runner and seeds.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(runner: Runner, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "at least one seed is required");
        Campaign { runner, seeds, cache: BTreeMap::new() }
    }

    /// Runs any scenarios not yet cached and returns results in order.
    fn results(&mut self, scenarios: &[Scenario]) -> Vec<ScenarioResult> {
        let missing: Vec<Scenario> =
            scenarios.iter().copied().filter(|s| !self.cache.contains_key(s.name())).collect();
        if !missing.is_empty() {
            for result in self.runner.run_many(&missing, &self.seeds) {
                self.cache.insert(result.scenario.name(), result);
            }
        }
        scenarios.iter().map(|s| self.cache[s.name()].clone()).collect()
    }

    /// Table I: protocol messages and their fields/sizes.
    pub fn table1(&mut self) -> String {
        let mut out = String::from("# Table I: protocol messages and fields\n");
        let rows = [
            ("ACCEPT", "Node's address | Job UUID | Cost", TrafficClass::Accept),
            ("REQUEST", "Initiator's address | Job UUID | Job Profile", TrafficClass::Request),
            ("INFORM", "Assignee's address | Job UUID | Job Profile | Cost", TrafficClass::Inform),
            ("ASSIGN", "Initiator's address | Job UUID | Job Profile", TrafficClass::Assign),
        ];
        for (name, fields, class) in rows {
            let _ = writeln!(out, "{name:8} [{} bytes]  {fields}", class.message_bytes());
        }
        out
    }

    /// Table II: the scenario matrix.
    pub fn table2(&mut self) -> String {
        let mut out = String::from("# Table II: summary of evaluation scenarios\n");
        for scenario in Scenario::ALL {
            let _ = writeln!(out, "{:14} {}", scenario.name(), scenario.description());
        }
        out
    }

    /// The six scheduling-policy scenarios shared by Figures 1-3.
    const POLICY_SCENARIOS: [Scenario; 6] = [
        Scenario::Fcfs,
        Scenario::Sjf,
        Scenario::Mixed,
        Scenario::IFcfs,
        Scenario::ISjf,
        Scenario::IMixed,
    ];

    /// The six load scenarios shared by Figures 6-7.
    const LOAD_SCENARIOS: [Scenario; 6] = [
        Scenario::LowLoad,
        Scenario::ILowLoad,
        Scenario::Mixed,
        Scenario::IMixed,
        Scenario::HighLoad,
        Scenario::IHighLoad,
    ];

    /// Figure 1: completed jobs over time per scheduling policy.
    pub fn fig1(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        let mut out = String::from("# Figure 1: completed jobs over time\n");
        out.push_str(&series_block(&results, |r| r.avg_completed_series()));
        out
    }

    /// Figure 2: average job completion time split into waiting and
    /// execution time.
    pub fn fig2(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        completion_block("# Figure 2: job completion time (s)\n", &results)
    }

    /// Figure 3: idle nodes over time per scheduling policy.
    pub fn fig3(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        let mut out = String::from("# Figure 3: idle nodes over time\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 4: deadline scheduling performance.
    pub fn fig4(&mut self) -> String {
        let scenarios =
            [Scenario::Deadline, Scenario::IDeadline, Scenario::DeadlineH, Scenario::IDeadlineH];
        let results = self.results(&scenarios);
        let mut out = String::from(
            "# Figure 4: deadline scheduling performance\nscenario,missed_deadlines,avg_lateness_s,avg_missed_time_s\n",
        );
        for r in &results {
            let _ = writeln!(
                out,
                "{},{:.1},{:.0},{:.0}",
                r.scenario,
                r.avg_missed_deadlines(),
                r.avg_lateness_secs(),
                r.avg_missed_time_secs()
            );
        }
        out
    }

    /// Figure 5: idle nodes over time in an expanding network.
    pub fn fig5(&mut self) -> String {
        let results = self.results(&[Scenario::Expanding, Scenario::IExpanding]);
        let mut out = String::from("# Figure 5: idle nodes over time (expanding network)\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 6: idle nodes over time under low/baseline/high load.
    pub fn fig6(&mut self) -> String {
        let results = self.results(&Self::LOAD_SCENARIOS);
        let mut out = String::from("# Figure 6: idle nodes over time (load)\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 7: job completion time under low/baseline/high load.
    pub fn fig7(&mut self) -> String {
        let results = self.results(&Self::LOAD_SCENARIOS);
        completion_block("# Figure 7: job completion time under load (s)\n", &results)
    }

    /// Figure 8: job completion time across rescheduling policies.
    pub fn fig8(&mut self) -> String {
        let scenarios = [
            Scenario::IInform1,
            Scenario::IMixed,
            Scenario::IInform4,
            Scenario::IInform15m,
            Scenario::IInform30m,
        ];
        let results = self.results(&scenarios);
        completion_block("# Figure 8: job completion time (rescheduling policies) (s)\n", &results)
    }

    /// Figure 9: sensitivity to ERT accuracy.
    pub fn fig9(&mut self) -> String {
        let scenarios = [
            Scenario::Precise,
            Scenario::IPrecise,
            Scenario::Mixed,
            Scenario::IMixed,
            Scenario::Accuracy25,
            Scenario::IAccuracy25,
            Scenario::AccuracyBad,
            Scenario::IAccuracyBad,
        ];
        let results = self.results(&scenarios);
        completion_block("# Figure 9: sensitivity to ERT accuracy (s)\n", &results)
    }

    /// Figure 10: network overhead per message type for representative
    /// scenarios.
    pub fn fig10(&mut self) -> String {
        let scenarios = [
            Scenario::Mixed,
            Scenario::IMixed,
            Scenario::IInform1,
            Scenario::IInform4,
            Scenario::IExpanding,
            Scenario::IDeadline,
        ];
        let results = self.results(&scenarios);
        let mut out = String::from(
            "# Figure 10: network overhead comparison\nscenario,request_MB,accept_MB,inform_MB,assign_MB,total_MB,per_node_MB,bandwidth_bps\n",
        );
        for r in &results {
            let mb = |class| r.avg_bytes(class) / 1e6;
            let nodes = r.scenario.world_config().nodes;
            let horizon_secs = r.scenario.world_config().horizon.as_millis() / 1000;
            let per_node = r.avg_total_bytes() / nodes as f64;
            let _ = writeln!(
                out,
                "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.0}",
                r.scenario,
                mb(TrafficClass::Request),
                mb(TrafficClass::Accept),
                mb(TrafficClass::Inform),
                mb(TrafficClass::Assign),
                r.avg_total_bytes() / 1e6,
                per_node / 1e6,
                per_node * 8.0 / horizon_secs as f64,
            );
        }
        out
    }

    /// Beyond the paper: the baseline-scheduler comparison at the
    /// campaign's scale — ARiA (iMixed) against the omniscient
    /// centralized scheduler, gossip state dissemination (\[25\]) and
    /// multiple simultaneous requests (\[13\]), on statistically identical
    /// workloads.
    pub fn baselines(&mut self) -> String {
        use aria_core::{Baseline, Comparator, PolicyMix};
        use aria_sim::Summary;

        let aria = self.results(&[Scenario::IMixed]).remove(0);
        let config = Scenario::IMixed.world_config();
        let (nodes, horizon, period) =
            (self.runner.nodes_or(config.nodes), config.horizon, config.sample_period);
        let schedule = self.runner.schedule_for(Scenario::IMixed);

        let mut out = String::from(
            "# Baselines: ARiA vs centralized / gossip [25] / multi-request [13]
scheduler,completion_s,waiting_s,messages
",
        );
        let _ = writeln!(
            out,
            "ARiA(iMixed),{:.0},{:.0},{:.0}",
            aria.completion().mean(),
            aria.waiting().mean(),
            aria.runs.iter().map(|r| r.traffic.total_messages() as f64).sum::<f64>()
                / aria.runs.len() as f64,
        );

        // One run per (comparator, seed) on the runner's lanes, each
        // yielding its completion and waiting summaries and the row's
        // last column: messages sent, or the revoked replicas where the
        // row names them.
        type LastColumn = fn(&Baseline) -> u64;
        let messages = |grid: &Baseline| grid.metrics().traffic().total_messages();
        let rows: [(Comparator, &str, LastColumn, &str); 3] = [
            (Comparator::Central, "central", messages, ""),
            (Comparator::Gossip, "gossip", messages, ""),
            (
                Comparator::MultiRequest { replicas: 3 },
                "multireq_k3",
                Baseline::revoked_replicas,
                " revoked replicas",
            ),
        ];
        let runs = self.runner.fan_out(&rows, &self.seeds, |&(comparator, _, last, _), seed| {
            let mut jobs = aria_workload::JobGenerator::new(Scenario::IMixed.job_config());
            let mut grid =
                Baseline::new(comparator, nodes, PolicyMix::paper_mixed(), horizon, period, seed);
            grid.submit_schedule(&schedule, &mut jobs);
            let metrics = grid.run();
            let (completion, waiting) = (metrics.completion_summary(), metrics.waiting_summary());
            (completion, waiting, last(&grid) as f64)
        });
        // Merged in seed order per row, as a serial loop over the seeds
        // would, so the floats and the text do not depend on the lanes.
        let n = self.seeds.len() as f64;
        for ((_, name, _, suffix), runs) in rows.iter().zip(&runs) {
            let (mut completion, mut waiting, mut last) = (Summary::new(), Summary::new(), 0.0);
            for (run_completion, run_waiting, run_last) in runs {
                completion.merge(run_completion);
                waiting.merge(run_waiting);
                last += run_last;
            }
            let _ = writeln!(
                out,
                "{name},{:.0},{:.0},{:.0}{suffix}",
                completion.mean(),
                waiting.mean(),
                last / n,
            );
        }
        out
    }

    /// Beyond the paper: the design-choice ablations (DESIGN.md §7) at
    /// the campaign's scale and seeds. The reference row runs iMixed
    /// as configured; each other row runs its workload on one edit of
    /// its world config (`ABLATION_ROWS`): matching nodes keep
    /// forwarding the REQUEST flood or not, the overlay family and the
    /// local scheduler (the paper's §VI future work), and strict FCFS
    /// against EASY backfill under moderate advance reservations.
    pub fn ablations(&mut self) -> String {
        let base = self.runner.config_for(Scenario::IMixed);
        let configs: Vec<WorldConfig> = ABLATION_ROWS
            .iter()
            .map(|(_, _, edit)| {
                let mut config = base.clone();
                edit(&mut config);
                config
            })
            .collect();
        let results = self.runner.run_configs(Scenario::IMixed, &configs, &self.seeds);
        let jobs = self.runner.schedule_for(Scenario::IMixed).count() as f64;

        let mut out = String::from(
            "# Ablations: iMixed with one design choice varied
ablation,variant,completion_s,waiting_s,request_msgs_per_job,accept_msgs_per_job,messages
",
        );
        for ((ablation, variant, _), r) in ABLATION_ROWS.iter().zip(&results) {
            let _ = writeln!(
                out,
                "{ablation},{variant},{:.0},{:.0},{:.1},{:.1},{:.0}",
                r.completion().mean(),
                r.waiting().mean(),
                r.avg_messages(TrafficClass::Request) / jobs,
                r.avg_messages(TrafficClass::Accept) / jobs,
                r.avg_over_runs(|run| run.traffic.total_messages() as f64),
            );
        }
        out
    }

    /// All tables and figures, in order.
    pub fn all(&mut self) -> String {
        let mut out = String::new();
        out.push_str(&self.table1());
        out.push('\n');
        out.push_str(&self.table2());
        for fig in [
            Self::fig1 as fn(&mut Self) -> String,
            Self::fig2,
            Self::fig3,
            Self::fig4,
            Self::fig5,
            Self::fig6,
            Self::fig7,
            Self::fig8,
            Self::fig9,
            Self::fig10,
            Self::baselines,
            Self::ablations,
        ] {
            out.push('\n');
            out.push_str(&fig(self));
        }
        out
    }

    /// Renders one artifact by its id (`table1`, `table2`, `fig1`..`fig10`,
    /// `baselines`, `ablations` or `all`). Returns `None` for unknown ids.
    pub fn render(&mut self, id: &str) -> Option<String> {
        let id = id.to_ascii_lowercase();
        Some(match id.as_str() {
            "table1" => self.table1(),
            "table2" => self.table2(),
            "fig1" => self.fig1(),
            "fig2" => self.fig2(),
            "fig3" => self.fig3(),
            "fig4" => self.fig4(),
            "fig5" => self.fig5(),
            "fig6" => self.fig6(),
            "fig7" => self.fig7(),
            "fig8" => self.fig8(),
            "fig9" => self.fig9(),
            "fig10" => self.fig10(),
            "baselines" => self.baselines(),
            "ablations" => self.ablations(),
            "all" => self.all(),
            _ => return None,
        })
    }
}

/// An edit of iMixed's world config: one ablation variant.
type Edit = fn(&mut WorldConfig);

/// The ablation rows: each names the design choice and its variant and
/// edits iMixed's world config to match. The first row is iMixed
/// itself, the reference the others vary one choice of.
const ABLATION_ROWS: [(&str, &str, Edit); 11] = {
    use aria_core::{OverlayKind, PolicyMix, ReservationPlan};
    use aria_grid::Policy;
    [
        ("reference", "iMixed", |_| {}),
        ("forward_on_match", "true", |c| c.aria.forward_on_match = true),
        ("overlay", "random_regular_4", |c| c.overlay = OverlayKind::RandomRegular { degree: 4 }),
        ("overlay", "small_world_4_0.2", |c| {
            c.overlay = OverlayKind::SmallWorld { k: 4, beta: 0.2 }
        }),
        ("overlay", "ring", |c| c.overlay = OverlayKind::Ring),
        ("policies", "FCFS", |c| c.policies = PolicyMix::Uniform(Policy::Fcfs)),
        ("policies", "SJF", |c| c.policies = PolicyMix::Uniform(Policy::Sjf)),
        ("policies", "LJF", |c| c.policies = PolicyMix::Uniform(Policy::Ljf)),
        ("policies", "PRIORITY", |c| c.policies = PolicyMix::Uniform(Policy::Priority)),
        ("reservations", "FCFS", |c| {
            c.reservations = Some(ReservationPlan::moderate());
            c.policies = PolicyMix::Uniform(Policy::Fcfs);
        }),
        ("reservations", "BACKFILL", |c| {
            c.reservations = Some(ReservationPlan::moderate());
            c.policies = PolicyMix::Uniform(Policy::Backfill);
        }),
    ]
};

/// Renders one time series per scenario as CSV (a `time_h` column then
/// one column per scenario, downsampled to half-hour points) followed by
/// an ASCII chart of the same data.
fn series_block(
    results: &[ScenarioResult],
    series: impl Fn(&ScenarioResult) -> TimeSeries,
) -> String {
    let columns: Vec<(String, TimeSeries)> =
        results.iter().map(|r| (r.scenario.to_string(), series(r))).collect();
    let period_mins =
        columns.first().map(|(_, s)| s.period().as_millis() / 60_000).unwrap_or(5).max(1);
    let stride = usize::try_from((30 / period_mins).max(1)).expect("at most 30");
    let thinned: Vec<(String, TimeSeries)> =
        columns.into_iter().map(|(name, s)| (name, s.thin(stride))).collect();

    let mut out = String::from("time_h");
    for (name, _) in &thinned {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    let rows = thinned.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = thinned[0].1.time_at(i);
        let _ = write!(out, "{:.2}", t.as_hours_f64());
        for (_, s) in &thinned {
            match s.values().get(i) {
                Some(v) => {
                    let _ = write!(out, ",{v:.1}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    let charted: Vec<(&str, &TimeSeries)> =
        thinned.iter().map(|(name, s)| (name.as_str(), s)).collect();
    out.push('\n');
    out.push_str(&ascii_chart(&charted, 72, 16));
    out
}

/// Renders the waiting/execution/completion means per scenario, plus
/// median and tail percentiles of the completion time.
fn completion_block(header: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::from(header);
    out.push_str("scenario,waiting_s,execution_s,completion_s,completion_p50_s,completion_p95_s\n");
    for r in results {
        let _ = writeln!(
            out,
            "{},{:.0},{:.0},{:.0},{:.0},{:.0}",
            r.scenario,
            r.waiting().mean(),
            r.execution().mean(),
            r.completion().mean(),
            r.avg_completion_p50(),
            r.avg_completion_p95(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Campaign {
        Campaign::new(Runner::scaled(30, 10), vec![1])
    }

    #[test]
    fn tables_render_without_running_simulations() {
        let mut c = campaign();
        let t1 = c.table1();
        assert!(t1.contains("REQUEST") && t1.contains("128 bytes"));
        let t2 = c.table2();
        assert!(t2.contains("iMixed"));
        assert_eq!(t2.lines().count(), 27); // header + 26 scenarios
    }

    #[test]
    fn fig4_lists_four_deadline_scenarios() {
        let mut c = campaign();
        let fig = c.fig4();
        for name in ["Deadline", "iDeadline", "DeadlineH", "iDeadlineH"] {
            assert!(fig.contains(&format!("\n{name},")), "{fig}");
        }
    }

    #[test]
    fn fig10_totals_are_consistent() {
        let mut c = campaign();
        let fig = c.fig10();
        // Plain Mixed has zero INFORM traffic.
        let mixed_row = fig.lines().find(|l| l.starts_with("Mixed,")).unwrap();
        let cols: Vec<&str> = mixed_row.split(',').collect();
        assert_eq!(cols[3], "0.00", "plain Mixed should have no INFORM bytes: {mixed_row}");
    }

    #[test]
    fn caching_avoids_rerunning_scenarios() {
        let mut c = campaign();
        let fig1 = c.fig1();
        let fig3 = c.fig3(); // shares all six scenarios with fig1
        assert!(fig1.contains("iMixed"));
        assert!(fig3.contains("iMixed"));
        assert_eq!(c.cache.len(), 6);
    }

    #[test]
    fn render_dispatches_ids() {
        let mut c = campaign();
        assert!(c.render("table1").is_some());
        assert!(c.render("TABLE2").is_some());
        assert!(c.render("ABLATIONS").is_some());
        assert!(c.render("nope").is_none());
    }

    #[test]
    fn series_block_has_header_and_rows() {
        let mut c = campaign();
        let fig = c.fig5();
        let mut lines = fig.lines();
        assert!(lines.next().unwrap().starts_with("# Figure 5"));
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_h,Expanding,iExpanding"), "{header}");
        assert!(lines.count() > 10);
    }

    #[test]
    fn ablation_rows_each_change_the_reference() {
        let base = Runner::paper().config_for(Scenario::IMixed);
        let (reference, rows) = ABLATION_ROWS.split_first().unwrap();
        assert_eq!(reference.0, "reference");
        let mut seen = Vec::new();
        for (ablation, variant, edit) in rows {
            let mut config = base.clone();
            edit(&mut config);
            assert_ne!(config, base, "{ablation},{variant} re-runs iMixed unedited");
            assert!(!seen.contains(&config), "{ablation},{variant} repeats an earlier row");
            seen.push(config);
        }
    }
}
