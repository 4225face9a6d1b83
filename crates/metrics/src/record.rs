//! Per-job life-cycle records.

use aria_grid::{JobId, JobSpec};
use aria_sim::{SimDuration, SimTime};

/// The observable life cycle of one job, from submission to completion.
///
/// All of the paper's per-job metrics derive from this record: waiting
/// time and execution time (Figure 2), completion time (Figures 7, 8, 9)
/// and deadline lateness (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// Baseline running-time estimate carried by the job.
    pub ert: SimDuration,
    /// The job's deadline, if it has one.
    pub deadline: Option<SimTime>,
    /// When the job entered the grid (REQUEST issued by its initiator).
    pub submitted_at: SimTime,
    /// When the first ASSIGN was sent, if any.
    pub first_assigned_at: Option<SimTime>,
    /// Total number of ASSIGN messages for this job (initial + moves).
    pub assignments: u32,
    /// Number of dynamic reschedules (assignments after the first).
    pub reschedules: u32,
    /// When execution started.
    pub started_at: Option<SimTime>,
    /// Raw id of the node that executed the job.
    pub executed_on: Option<u32>,
    /// When execution completed.
    pub completed_at: Option<SimTime>,
}

impl JobRecord {
    /// Creates a fresh record for a submitted job.
    pub fn new(spec: &JobSpec, submitted_at: SimTime) -> Self {
        JobRecord {
            id: spec.id,
            ert: spec.ert,
            deadline: spec.deadline,
            submitted_at,
            first_assigned_at: None,
            assignments: 0,
            reschedules: 0,
            started_at: None,
            executed_on: None,
            completed_at: None,
        }
    }

    /// Whether the job finished executing.
    pub fn is_completed(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Time from submission to execution start (the paper's *waiting
    /// time*), or `None` if the job has not started.
    pub fn waiting_time(&self) -> Option<SimDuration> {
        Some(self.started_at?.saturating_since(self.submitted_at))
    }

    /// Time from execution start to completion (the paper's *execution
    /// time*), or `None` if the job has not completed.
    pub fn execution_time(&self) -> Option<SimDuration> {
        Some(self.completed_at?.saturating_since(self.started_at?))
    }

    /// Time from submission to completion (the paper's *completion
    /// time*), or `None` if the job has not completed.
    pub fn completion_time(&self) -> Option<SimDuration> {
        Some(self.completed_at?.saturating_since(self.submitted_at))
    }

    /// Signed slack at completion: `deadline − completion` in
    /// milliseconds (positive = met with room, negative = missed).
    ///
    /// `None` for jobs without a deadline or not yet completed.
    pub fn deadline_slack(&self) -> Option<i64> {
        Some(self.deadline?.signed_delta(self.completed_at?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::{Architecture, JobRequirements, OperatingSystem};

    fn spec(deadline: Option<SimTime>) -> JobSpec {
        let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
        match deadline {
            None => JobSpec::batch(JobId::new(1), req, SimDuration::from_hours(2)),
            Some(d) => JobSpec::with_deadline(JobId::new(1), req, SimDuration::from_hours(2), d),
        }
    }

    fn completed_record(deadline: Option<SimTime>, completed: SimTime) -> JobRecord {
        let mut r = JobRecord::new(&spec(deadline), SimTime::from_mins(10));
        r.first_assigned_at = Some(SimTime::from_mins(11));
        r.assignments = 1;
        r.started_at = Some(SimTime::from_mins(40));
        r.executed_on = Some(3);
        r.completed_at = Some(completed);
        r
    }

    #[test]
    fn fresh_record_has_no_derived_times() {
        let r = JobRecord::new(&spec(None), SimTime::ZERO);
        assert!(!r.is_completed());
        assert_eq!(r.waiting_time(), None);
        assert_eq!(r.execution_time(), None);
        assert_eq!(r.completion_time(), None);
        assert_eq!(r.deadline_slack(), None);
    }

    #[test]
    fn derived_times_decompose_completion() {
        let r = completed_record(None, SimTime::from_mins(160));
        assert_eq!(r.waiting_time(), Some(SimDuration::from_mins(30)));
        assert_eq!(r.execution_time(), Some(SimDuration::from_mins(120)));
        assert_eq!(r.completion_time(), Some(SimDuration::from_mins(150)));
        // completion = waiting + execution
        assert_eq!(
            r.completion_time().unwrap(),
            r.waiting_time().unwrap() + r.execution_time().unwrap()
        );
    }

    #[test]
    fn met_deadline_has_positive_slack() {
        let r = completed_record(Some(SimTime::from_mins(200)), SimTime::from_mins(160));
        assert_eq!(r.deadline_slack(), Some(40 * 60_000));
    }

    #[test]
    fn missed_deadline_has_negative_slack() {
        let r = completed_record(Some(SimTime::from_mins(100)), SimTime::from_mins(160));
        assert_eq!(r.deadline_slack(), Some(-60 * 60_000));
    }

    #[test]
    fn batch_jobs_never_miss() {
        let r = completed_record(None, SimTime::from_mins(160));
        assert_eq!(r.deadline_slack(), None);
    }
}
