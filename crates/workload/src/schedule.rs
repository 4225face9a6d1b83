//! Fixed-rate job submission schedules (§IV-E).

use aria_sim::{SimDuration, SimTime};

/// A fixed-interval submission process: `count` jobs, the first at
/// `start`, one every `interval` after that.
///
/// The paper's baseline submits 1000 jobs every 10 s starting 20 minutes
/// into the simulation (ending at 3h07m); the low-load variant halves
/// the rate, the high-load variant doubles it.
///
/// # Example
///
/// ```
/// use aria_workload::SubmissionSchedule;
/// use aria_sim::SimTime;
///
/// let schedule = SubmissionSchedule::paper_baseline();
/// assert_eq!(schedule.count(), 1000);
/// assert_eq!(schedule.time_of(0), SimTime::from_mins(20));
/// // Last submission: 20m + 999 * 10s  ≈ 3h06m30s.
/// assert_eq!(schedule.last_time().as_secs(), 20 * 60 + 999 * 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmissionSchedule {
    start: SimTime,
    interval: SimDuration,
    count: usize,
}

impl SubmissionSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `count > 1` and `interval` is zero.
    pub fn new(start: SimTime, interval: SimDuration, count: usize) -> Self {
        assert!(count <= 1 || !interval.is_zero(), "interval must be positive");
        SubmissionSchedule { start, interval, count }
    }

    /// The paper's baseline: 1000 jobs, one every 10 s, from t = 20 min.
    pub fn paper_baseline() -> Self {
        SubmissionSchedule::new(SimTime::from_mins(20), SimDuration::from_secs(10), 1000)
    }

    /// The *LowLoad* schedule: rate halved (one job every 20 s).
    pub fn paper_low_load() -> Self {
        SubmissionSchedule::new(SimTime::from_mins(20), SimDuration::from_secs(20), 1000)
    }

    /// The *HighLoad* schedule: rate doubled (one job every 5 s).
    pub fn paper_high_load() -> Self {
        SubmissionSchedule::new(SimTime::from_mins(20), SimDuration::from_secs(5), 1000)
    }

    /// First submission instant.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Interval between submissions.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Total number of submissions.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Instant of the `i`-th submission.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    pub fn time_of(&self, i: usize) -> SimTime {
        assert!(i < self.count, "submission index out of range");
        self.start + self.interval * i as u64
    }

    /// Instant of the final submission.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn last_time(&self) -> SimTime {
        self.time_of(self.count - 1)
    }

    /// Iterator over all submission instants.
    pub fn times(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..self.count).map(|i| self.time_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_window() {
        let s = SubmissionSchedule::paper_baseline();
        assert_eq!(s.time_of(0), SimTime::from_mins(20));
        // The paper quotes submissions running "up to 3h 7m".
        let last = s.last_time();
        assert!(last <= SimTime::from_mins(3 * 60 + 7));
        assert!(last > SimTime::from_mins(3 * 60 + 6));
    }

    #[test]
    fn low_load_ends_near_5h54() {
        let s = SubmissionSchedule::paper_low_load();
        let last = s.last_time();
        assert!(last <= SimTime::from_mins(5 * 60 + 54));
        assert!(last > SimTime::from_mins(5 * 60 + 52));
    }

    #[test]
    fn high_load_ends_near_1h45() {
        let s = SubmissionSchedule::paper_high_load();
        let last = s.last_time();
        assert!(last <= SimTime::from_mins(60 + 45));
        assert!(last > SimTime::from_mins(60 + 43));
    }

    #[test]
    fn times_iterator_is_complete_and_ordered() {
        let s = SubmissionSchedule::new(SimTime::ZERO, SimDuration::from_secs(1), 5);
        let times: Vec<u64> = s.times().map(|t| t.as_secs()).collect();
        assert_eq!(times, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_job_schedule_allows_zero_interval() {
        let s = SubmissionSchedule::new(SimTime::from_secs(9), SimDuration::ZERO, 1);
        assert_eq!(s.last_time(), SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        SubmissionSchedule::paper_baseline().time_of(1000);
    }
}
