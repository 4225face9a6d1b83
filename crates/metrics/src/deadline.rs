//! Deadline-scheduling performance (Figure 4): missed deadlines, average
//! lateness over met deadlines, average missed time over failed ones.

use crate::record::JobRecord;
use aria_sim::SimDuration;
use std::fmt;

/// Aggregate deadline statistics over a set of completed jobs.
///
/// The paper's vocabulary (§V-A):
/// * **missed deadlines** — jobs completing after their deadline;
/// * **lateness** — "the time left from completion to the deadline",
///   averaged over successfully met deadlines;
/// * **missed time** — "time past the deadline", averaged over failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlineStats {
    met: u64,
    missed: u64,
    slack_ms_sum: u64,
    missed_ms_sum: u64,
}

impl DeadlineStats {
    /// Computes statistics from completed deadline jobs (records without
    /// a deadline or not yet completed are ignored).
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a JobRecord>,
    {
        let mut stats = DeadlineStats::default();
        for record in records {
            let Some(slack) = record.deadline_slack() else { continue };
            if slack >= 0 {
                stats.met += 1;
                stats.slack_ms_sum += slack.unsigned_abs();
            } else {
                stats.missed += 1;
                stats.missed_ms_sum += slack.unsigned_abs();
            }
        }
        stats
    }

    /// Number of deadlines met.
    pub fn met(&self) -> u64 {
        self.met
    }

    /// Number of deadlines missed.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Average lateness (slack) of met deadlines.
    pub fn avg_lateness(&self) -> SimDuration {
        self.slack_ms_sum.checked_div(self.met).map_or(SimDuration::ZERO, SimDuration::from_millis)
    }

    /// Average time past the deadline of missed deadlines.
    pub fn avg_missed_time(&self) -> SimDuration {
        self.missed_ms_sum
            .checked_div(self.missed)
            .map_or(SimDuration::ZERO, SimDuration::from_millis)
    }
}

impl fmt::Display for DeadlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "met={} missed={} avg_lateness={} avg_missed_time={}",
            self.met,
            self.missed,
            self.avg_lateness(),
            self.avg_missed_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobId, JobRequirements, JobSpec, OperatingSystem};
    use aria_sim::SimTime;

    fn record(id: u64, deadline_mins: Option<u64>, completed_mins: u64) -> JobRecord {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let spec = match deadline_mins {
            None => JobSpec::batch(JobId::new(id), req, SimDuration::from_hours(1)),
            Some(d) => JobSpec::with_deadline(
                JobId::new(id),
                req,
                SimDuration::from_hours(1),
                SimTime::from_mins(d),
            ),
        };
        let mut r = JobRecord::new(&spec, SimTime::ZERO);
        r.started_at = Some(SimTime::from_mins(1));
        r.completed_at = Some(SimTime::from_mins(completed_mins));
        r
    }

    #[test]
    fn counts_met_and_missed() {
        let records = [
            record(1, Some(100), 60),  // met with 40m slack
            record(2, Some(100), 150), // missed by 50m
            record(3, Some(200), 100), // met with 100m slack
            record(4, None, 60),       // batch: ignored
        ];
        let stats = DeadlineStats::from_records(records.iter());
        assert_eq!(stats.met(), 2);
        assert_eq!(stats.missed(), 1);
        assert_eq!(stats.avg_lateness(), SimDuration::from_mins(70));
        assert_eq!(stats.avg_missed_time(), SimDuration::from_mins(50));
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = DeadlineStats::from_records([].iter());
        assert_eq!(stats.met(), 0);
        assert_eq!(stats.missed(), 0);
        assert_eq!(stats.avg_lateness(), SimDuration::ZERO);
        assert_eq!(stats.avg_missed_time(), SimDuration::ZERO);
    }

    #[test]
    fn incomplete_jobs_are_ignored() {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        let spec = JobSpec::with_deadline(
            JobId::new(1),
            req,
            SimDuration::from_hours(1),
            SimTime::from_mins(100),
        );
        let incomplete = JobRecord::new(&spec, SimTime::ZERO);
        let stats = DeadlineStats::from_records([incomplete].iter());
        assert_eq!(stats.met() + stats.missed(), 0);
    }

    #[test]
    fn exact_deadline_counts_as_met() {
        let stats = DeadlineStats::from_records([record(1, Some(60), 60)].iter());
        assert_eq!(stats.met(), 1);
        assert_eq!(stats.avg_lateness(), SimDuration::ZERO);
    }

    #[test]
    fn display_mentions_all_fields() {
        let stats = DeadlineStats::from_records([record(1, Some(100), 60)].iter());
        let s = stats.to_string();
        assert!(s.contains("met=1") && s.contains("missed=0"), "{s}");
    }
}
