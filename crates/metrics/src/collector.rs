//! The per-run metrics collector.

use crate::deadline::DeadlineStats;
use crate::record::JobRecord;
use crate::traffic::{TrafficClass, TrafficLedger};
use aria_grid::{JobId, JobSpec};
use aria_sim::{SimDuration, SimTime, Summary, TimeSeries};
use std::collections::BTreeMap;

/// Collects everything one simulation run produces: job life-cycle
/// records, gauge time series sampled at a fixed period, and the traffic
/// ledger.
///
/// The simulation calls the `job_*` methods as protocol events occur,
/// [`MetricsCollector::record_message`] for every transmitted message,
/// and [`MetricsCollector::sample_gauges`] at each sampling tick.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    completed_count: u64,
    records: BTreeMap<JobId, JobRecord>,
    completed_series: TimeSeries,
    idle_series: TimeSeries,
    queued_series: TimeSeries,
    traffic: TrafficLedger,
}

impl MetricsCollector {
    /// Creates a collector sampling gauges every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        MetricsCollector {
            completed_count: 0,
            records: BTreeMap::new(),
            completed_series: TimeSeries::new(period),
            idle_series: TimeSeries::new(period),
            queued_series: TimeSeries::new(period),
            traffic: TrafficLedger::new(),
        }
    }

    // --- event hooks -----------------------------------------------------

    /// A job entered the grid.
    pub fn job_submitted(&mut self, spec: &JobSpec, now: SimTime) {
        self.records.insert(spec.id, JobRecord::new(spec, now));
    }

    /// An ASSIGN was sent for a job (`reschedule` distinguishes dynamic
    /// moves from the initial delegation).
    pub fn job_assigned(&mut self, id: JobId, now: SimTime, reschedule: bool) {
        if let Some(r) = self.records.get_mut(&id) {
            r.assignments += 1;
            if reschedule {
                r.reschedules += 1;
            }
            if r.first_assigned_at.is_none() {
                r.first_assigned_at = Some(now);
            }
        }
    }

    /// A job started executing on node `node`.
    pub fn job_started(&mut self, id: JobId, node: u32, now: SimTime) {
        if let Some(r) = self.records.get_mut(&id) {
            r.started_at = Some(now);
            r.executed_on = Some(node);
        }
    }

    /// A job finished executing.
    pub fn job_completed(&mut self, id: JobId, now: SimTime) {
        if let Some(r) = self.records.get_mut(&id) {
            debug_assert!(r.completed_at.is_none(), "{id} completed twice");
            r.completed_at = Some(now);
            self.completed_count += 1;
        }
    }

    /// One protocol message was transmitted over one overlay hop.
    pub fn record_message(&mut self, class: TrafficClass) {
        self.traffic.record(class);
    }

    /// Samples the periodic gauges: number of currently idle nodes and
    /// total queued (waiting, not running) jobs across the grid.
    pub fn sample_gauges(&mut self, idle_nodes: usize, queued_jobs: usize) {
        self.completed_series.push(self.completed_count as f64);
        self.idle_series.push(idle_nodes as f64);
        self.queued_series.push(queued_jobs as f64);
    }

    // --- queries ----------------------------------------------------------

    /// Jobs completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// All job records, keyed by id.
    pub fn records(&self) -> &BTreeMap<JobId, JobRecord> {
        &self.records
    }

    /// Completed-jobs-over-time series (Figure 1).
    pub fn completed_series(&self) -> &TimeSeries {
        &self.completed_series
    }

    /// Idle-nodes-over-time series (Figures 3, 5, 6).
    pub fn idle_series(&self) -> &TimeSeries {
        &self.idle_series
    }

    /// Queued-jobs-over-time series (auxiliary).
    pub fn queued_series(&self) -> &TimeSeries {
        &self.queued_series
    }

    /// The traffic ledger (Figure 10).
    pub fn traffic(&self) -> &TrafficLedger {
        &self.traffic
    }

    /// Summary of waiting times over completed jobs, in seconds.
    pub fn waiting_summary(&self) -> Summary {
        self.records.values().filter_map(|r| r.waiting_time()).map(|d| d.as_secs_f64()).collect()
    }

    /// Summary of execution times over completed jobs, in seconds.
    pub fn execution_summary(&self) -> Summary {
        self.records.values().filter_map(|r| r.execution_time()).map(|d| d.as_secs_f64()).collect()
    }

    /// Summary of completion times over completed jobs, in seconds
    /// (Figures 2, 7, 8, 9).
    pub fn completion_summary(&self) -> Summary {
        self.records.values().filter_map(|r| r.completion_time()).map(|d| d.as_secs_f64()).collect()
    }

    /// Summary of per-job reschedule counts.
    pub fn reschedule_summary(&self) -> Summary {
        self.records.values().map(|r| r.reschedules as f64).collect()
    }

    /// Deadline statistics over completed deadline jobs (Figure 4).
    pub fn deadline_stats(&self) -> DeadlineStats {
        DeadlineStats::from_records(self.records.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem};

    fn spec(id: u64) -> JobSpec {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        JobSpec::batch(JobId::new(id), req, SimDuration::from_hours(1))
    }

    fn collector() -> MetricsCollector {
        MetricsCollector::new(SimDuration::from_mins(1))
    }

    #[test]
    fn life_cycle_is_recorded() {
        let mut m = collector();
        let s = spec(1);
        m.job_submitted(&s, SimTime::from_mins(10));
        m.job_assigned(s.id, SimTime::from_mins(11), false);
        m.job_assigned(s.id, SimTime::from_mins(20), true);
        m.job_started(s.id, 4, SimTime::from_mins(30));
        m.job_completed(s.id, SimTime::from_mins(90));

        let r = &m.records()[&s.id];
        assert_eq!(r.assignments, 2);
        assert_eq!(r.reschedules, 1);
        assert_eq!(r.first_assigned_at, Some(SimTime::from_mins(11)));
        assert_eq!(r.executed_on, Some(4));
        assert_eq!(m.completed_count(), 1);
    }

    #[test]
    fn events_for_unknown_jobs_are_ignored() {
        let mut m = collector();
        m.job_assigned(JobId::new(9), SimTime::ZERO, false);
        m.job_started(JobId::new(9), 1, SimTime::ZERO);
        m.job_completed(JobId::new(9), SimTime::ZERO);
        assert_eq!(m.completed_count(), 0);
        assert!(m.records().is_empty());
    }

    #[test]
    fn gauge_series_accumulate() {
        let mut m = collector();
        let s = spec(1);
        m.job_submitted(&s, SimTime::ZERO);
        m.sample_gauges(10, 3);
        m.job_started(s.id, 0, SimTime::from_secs(30));
        m.job_completed(s.id, SimTime::from_secs(60));
        m.sample_gauges(12, 2);
        assert_eq!(m.completed_series().values(), [0.0, 1.0]);
        assert_eq!(m.idle_series().values(), [10.0, 12.0]);
        assert_eq!(m.queued_series().values(), [3.0, 2.0]);
    }

    #[test]
    fn summaries_cover_completed_jobs_only() {
        let mut m = collector();
        for id in 0..3 {
            m.job_submitted(&spec(id), SimTime::ZERO);
        }
        m.job_started(JobId::new(0), 0, SimTime::from_mins(10));
        m.job_completed(JobId::new(0), SimTime::from_mins(70));
        m.job_started(JobId::new(1), 1, SimTime::from_mins(20));
        // job 1 still running, job 2 still waiting

        assert_eq!(m.completion_summary().count(), 1);
        assert_eq!(m.waiting_summary().count(), 2); // jobs 0 and 1 started
        assert_eq!(m.execution_summary().count(), 1);
        assert_eq!(m.completion_summary().mean(), 70.0 * 60.0);
    }

    #[test]
    fn traffic_is_ledgered() {
        let mut m = collector();
        m.record_message(TrafficClass::Request);
        m.record_message(TrafficClass::Accept);
        assert_eq!(m.traffic().total_messages(), 2);
        assert_eq!(m.traffic().total_bytes(), 1024 + 128);
    }

    #[test]
    fn reschedule_summary_counts_moves() {
        let mut m = collector();
        for id in 0..2 {
            m.job_submitted(&spec(id), SimTime::ZERO);
        }
        m.job_assigned(JobId::new(0), SimTime::ZERO, false);
        m.job_assigned(JobId::new(0), SimTime::ZERO, true);
        m.job_assigned(JobId::new(0), SimTime::ZERO, true);
        m.job_assigned(JobId::new(1), SimTime::ZERO, false);
        let s = m.reschedule_summary();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.max(), 2.0);
    }
}
