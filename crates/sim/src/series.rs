//! Periodically sampled time series (the raw material of the paper's
//! time-evolution figures: completed jobs, idle nodes, ...).

use crate::time::{SimDuration, SimTime};

/// A fixed-interval time series of `f64` samples.
///
/// The simulation samples gauges (e.g. number of idle nodes) at a fixed
/// period; series from different seeds can then be averaged point-wise
/// because they share the same time base.
///
/// # Example
///
/// ```
/// use aria_sim::{TimeSeries, SimTime, SimDuration};
/// let mut ts = TimeSeries::new(SimDuration::from_mins(10));
/// ts.push(5.0);
/// ts.push(7.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.time_at(1), SimTime::from_mins(10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    period: SimDuration,
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given sampling period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        TimeSeries { period, samples: Vec::new() }
    }

    /// Sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Appends the next sample (taken at `len() * period`).
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.samples
    }

    /// Instant of the `i`-th sample.
    pub fn time_at(&self, i: usize) -> SimTime {
        SimTime::ZERO + self.period * i as u64
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().enumerate().map(|(i, &v)| (self.time_at(i), v))
    }

    /// Point-wise average of several series sharing the same period.
    ///
    /// Shorter series are treated as absent past their end (the average is
    /// taken over the series that still have data at that index), so
    /// averaging runs with slightly different lengths keeps the tail.
    ///
    /// Returns `None` if `series` is empty or the periods disagree.
    pub fn average<'a, I>(series: I) -> Option<TimeSeries>
    where
        I: IntoIterator<Item = &'a TimeSeries>,
    {
        let all: Vec<&TimeSeries> = series.into_iter().collect();
        let first = *all.first()?;
        if all.iter().any(|s| s.period != first.period) {
            return None;
        }
        let max_len = all.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut out = TimeSeries::new(first.period);
        for i in 0..max_len {
            let (sum, n) = all
                .iter()
                .filter_map(|s| s.samples.get(i))
                .fold((0.0, 0u32), |(sum, n), v| (sum + v, n + 1));
            out.push(sum / n as f64);
        }
        Some(out)
    }

    /// Largest sample value, or 0 for an empty series.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest sample value, or 0 for an empty series.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Value of the series at an arbitrary instant (sample-and-hold), or
    /// `None` before the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let idx = usize::try_from(t.as_millis() / self.period.as_millis()).unwrap_or(usize::MAX);
        self.samples.get(idx.min(self.samples.len().saturating_sub(1))).copied()
    }

    /// Downsamples by keeping every `stride`-th point (useful for compact
    /// textual figure output).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn thin(&self, stride: usize) -> TimeSeries {
        assert!(stride > 0, "stride must be positive");
        TimeSeries {
            period: self.period * stride as u64,
            samples: self.samples.iter().step_by(stride).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(period_mins: u64, vals: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new(SimDuration::from_mins(period_mins));
        for &v in vals {
            ts.push(v);
        }
        ts
    }

    #[test]
    fn timestamps_follow_period() {
        let ts = series(5, &[1.0, 2.0, 3.0]);
        let times: Vec<u64> = ts.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, [0, 300, 600]);
    }

    #[test]
    fn average_pointwise() {
        let a = series(1, &[1.0, 2.0, 3.0]);
        let b = series(1, &[3.0, 4.0, 5.0]);
        let avg = TimeSeries::average([&a, &b]).unwrap();
        assert_eq!(avg.values(), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn average_handles_ragged_lengths() {
        let a = series(1, &[1.0, 2.0, 3.0, 4.0]);
        let b = series(1, &[3.0, 4.0]);
        let avg = TimeSeries::average([&a, &b]).unwrap();
        assert_eq!(avg.values(), [2.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn average_rejects_mismatched_periods() {
        let a = series(1, &[1.0]);
        let b = series(2, &[1.0]);
        assert!(TimeSeries::average([&a, &b]).is_none());
        assert!(TimeSeries::average(std::iter::empty()).is_none());
    }

    #[test]
    fn value_at_sample_and_hold() {
        let ts = series(10, &[5.0, 7.0, 9.0]);
        assert_eq!(ts.value_at(SimTime::ZERO), Some(5.0));
        assert_eq!(ts.value_at(SimTime::from_mins(14)), Some(7.0));
        // Past the end: hold the last sample.
        assert_eq!(ts.value_at(SimTime::from_hours(10)), Some(9.0));
    }

    #[test]
    fn thin_keeps_every_stride() {
        let ts = series(1, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let thin = ts.thin(2);
        assert_eq!(thin.values(), [0.0, 2.0, 4.0]);
        assert_eq!(thin.period(), SimDuration::from_mins(2));
    }

    #[test]
    fn min_max() {
        let ts = series(1, &[3.0, -1.0, 7.0]);
        assert_eq!(ts.max(), 7.0);
        assert_eq!(ts.min(), -1.0);
        let empty = TimeSeries::new(SimDuration::from_mins(1));
        assert_eq!(empty.max(), 0.0);
        assert_eq!(empty.min(), 0.0);
    }
}
