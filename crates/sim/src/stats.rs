//! Summary statistics used throughout the measurement layer.

use std::fmt;

/// Single-pass summary of a set of `f64` observations.
///
/// Tracks count, mean, variance (Welford's online algorithm), minimum and
/// maximum. Cheap to update and merge, which is what the multi-seed
/// scenario runner needs when aggregating runs.
///
/// # Example
///
/// ```
/// use aria_sim::Summary;
/// let s: Summary = [2.0, 4.0, 6.0].into_iter().collect();
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 for an empty summary.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 for an empty summary.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} std={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// Percentile of a sample (nearest-rank on a copy; `q` in `[0, 1]`).
///
/// Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "ceil of q * len with q in [0, 1] is a rank in [0, len], clamped below"
)]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile must be within [0,1]");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn mean_variance_match_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: Summary = data.into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = data.split_at(37);
        let mut a: Summary = left.iter().copied().collect();
        let b: Summary = right.iter().copied().collect();
        a.merge(&b);
        let full: Summary = data.iter().copied().collect();
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-9);
        assert!((a.variance() - full.variance()).abs() < 1e-9);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert_eq!(percentile(&v, 0.3), 20.0);
        assert_eq!(percentile(&v, 0.5), 35.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Summary = [1.0].into_iter().collect();
        assert!(s.to_string().contains("n=1"));
    }
}
