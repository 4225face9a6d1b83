//! The link latency model ("a custom simulator reproducing realistic
//! round-trip delays", §IV-A).

use aria_sim::{SimDuration, SimRng};

/// Samples one-way link latencies.
///
/// Latencies are drawn log-uniformly between `min` and `max`: most links
/// are fast (LAN/metro), a heavy tail reaches intercontinental delays —
/// a standard first-order model of Internet RTT distributions. The
/// default range (5–150 ms one-way, i.e. 10–300 ms RTT) spans campus
/// links to transoceanic paths.
///
/// # Example
///
/// ```
/// use aria_overlay::LatencyModel;
/// use aria_sim::SimRng;
///
/// let model = LatencyModel::default();
/// let mut rng = SimRng::seed_from(1);
/// let one_way = model.sample(&mut rng);
/// assert!(one_way >= model.min() && one_way <= model.max());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    min_ms: u64,
    max_ms: u64,
}

impl LatencyModel {
    /// Creates a model sampling one-way latencies in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or `min > max`.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(!min.is_zero(), "minimum latency must be positive");
        assert!(min <= max, "latency range is inverted");
        LatencyModel { min_ms: min.as_millis(), max_ms: max.as_millis() }
    }

    /// A fixed latency for every link (useful in tests).
    pub fn constant(latency: SimDuration) -> Self {
        LatencyModel::new(latency, latency)
    }

    /// Smallest possible one-way latency.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_millis(self.min_ms)
    }

    /// Largest possible one-way latency.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_millis(self.max_ms)
    }

    /// Samples a one-way link latency.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "exp() of a value in [ln(min), ln(max)], rounded: a whole millisecond count"
    )]
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.min_ms == self.max_ms {
            return SimDuration::from_millis(self.min_ms);
        }
        let (lo, hi) = ((self.min_ms as f64).ln(), (self.max_ms as f64).ln());
        SimDuration::from_millis(rng.f64_range(lo, hi).exp().round() as u64)
    }
}

impl Default for LatencyModel {
    /// 5–150 ms one-way (10–300 ms round trip).
    fn default() -> Self {
        LatencyModel::new(SimDuration::from_millis(5), SimDuration::from_millis(150))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let model = LatencyModel::default();
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let l = model.sample(&mut rng);
            assert!(l >= model.min() && l <= model.max(), "latency {l} out of range");
        }
    }

    #[test]
    fn constant_model_is_constant() {
        let model = LatencyModel::constant(SimDuration::from_millis(25));
        let mut rng = SimRng::seed_from(5);
        for _ in 0..100 {
            assert_eq!(model.sample(&mut rng), SimDuration::from_millis(25));
        }
    }

    #[test]
    fn log_uniform_prefers_low_latencies() {
        let model = LatencyModel::default();
        let mut rng = SimRng::seed_from(9);
        let n = 20_000;
        let below_median_range = (0..n)
            .filter(|_| model.sample(&mut rng) < SimDuration::from_millis((5 + 150) / 2))
            .count();
        // Log-uniform: far more than half of the mass below the arithmetic
        // midpoint.
        assert!(below_median_range as f64 / n as f64 > 0.7);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        LatencyModel::new(SimDuration::from_millis(10), SimDuration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_min_panics() {
        LatencyModel::new(SimDuration::ZERO, SimDuration::from_millis(5));
    }
}
