//! The random distributions of the paper's evaluation (§IV-B, §IV-D).

use aria_grid::{Architecture, OperatingSystem};
use aria_sim::{SimDuration, SimRng};

/// The TOP500-derived categorical distributions used for both node
/// profiles and job requirements (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CategoricalField;

impl CategoricalField {
    /// Architecture weights, aligned with [`Architecture::ALL`]:
    /// AMD64 87.2 %, POWER 11 %, IA-64 1.2 %, SPARC 0.2 %, MIPS 0.2 %,
    /// NEC 0.2 %.
    pub const ARCH_WEIGHTS: [f64; 6] = [0.872, 0.11, 0.012, 0.002, 0.002, 0.002];

    /// Operating-system weights, aligned with [`OperatingSystem::ALL`]:
    /// LINUX 88.6 %, SOLARIS 5.8 %, UNIX 4.4 %, WINDOWS 1 %, BSD 0.2 %.
    pub const OS_WEIGHTS: [f64; 5] = [0.886, 0.058, 0.044, 0.01, 0.002];

    /// Samples an architecture from the TOP500 distribution.
    pub fn architecture(rng: &mut SimRng) -> Architecture {
        Architecture::ALL[rng.weighted_index(&Self::ARCH_WEIGHTS)]
    }

    /// Samples an operating system from the TOP500 distribution.
    pub fn operating_system(rng: &mut SimRng) -> OperatingSystem {
        OperatingSystem::ALL[rng.weighted_index(&Self::OS_WEIGHTS)]
    }
}

/// Memory/disk capacities: independently and uniformly one of
/// {1, 2, 4, 8, 16} GB (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CapacityDistribution;

impl CapacityDistribution {
    /// The capacity levels, in GB.
    pub const LEVELS: [u16; 5] = [1, 2, 4, 8, 16];

    /// Samples a capacity in GB.
    pub fn sample(rng: &mut SimRng) -> u16 {
        *rng.choose(&Self::LEVELS)
    }
}

/// A normal distribution clamped to `[min, max]` over durations, as used
/// for ERTs: `N(2h30m, 1h15m)` bounded to `[1h, 4h]` (§IV-D).
///
/// Clamping (rather than rejection) follows the paper's wording of using
/// "a lower bound of 1h and an upper bound of 4h to avoid extreme cases".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampedNormal {
    /// Mean of the underlying normal.
    pub mean: SimDuration,
    /// Standard deviation of the underlying normal.
    pub std_dev: SimDuration,
    /// Lower clamp.
    pub min: SimDuration,
    /// Upper clamp.
    pub max: SimDuration,
}

impl ClampedNormal {
    /// Creates a clamped normal.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(
        mean: SimDuration,
        std_dev: SimDuration,
        min: SimDuration,
        max: SimDuration,
    ) -> Self {
        assert!(min <= max, "clamp range is inverted");
        ClampedNormal { mean, std_dev, min, max }
    }

    /// The paper's ERT distribution: `N(2h30m, 1h15m)` in `[1h, 4h]`.
    pub fn paper_ert() -> Self {
        ClampedNormal::new(
            SimDuration::from_mins(150),
            SimDuration::from_mins(75),
            SimDuration::from_hours(1),
            SimDuration::from_hours(4),
        )
    }

    /// Deadline slack for the *Deadline* scenarios: on average 7h30m
    /// after expected completion (3× the ERT distribution's mean and
    /// spread). The slack may clamp to zero — a freshly submitted job can
    /// have almost no room beyond its own running time, which is what
    /// makes deadline misses possible at all.
    pub fn paper_deadline_slack() -> Self {
        ClampedNormal::new(
            SimDuration::from_mins(450),
            SimDuration::from_mins(225),
            SimDuration::ZERO,
            SimDuration::from_hours(15),
        )
    }

    /// Deadline slack for the *DeadlineH* (hard) scenarios: on average
    /// 2h30m after expected completion — "the aforementioned
    /// distribution" (§IV-D), again floored at zero.
    pub fn paper_tight_deadline_slack() -> Self {
        ClampedNormal::new(
            SimDuration::from_mins(150),
            SimDuration::from_mins(75),
            SimDuration::ZERO,
            SimDuration::from_hours(5),
        )
    }

    /// Samples a duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let value = rng.normal(self.mean.as_secs_f64(), self.std_dev.as_secs_f64());
        SimDuration::from_secs_f64(value).max(self.min).min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_frequencies_match_top500() {
        let mut rng = SimRng::seed_from(1);
        let n = 200_000;
        let mut amd64 = 0;
        let mut power = 0;
        for _ in 0..n {
            match CategoricalField::architecture(&mut rng) {
                Architecture::Amd64 => amd64 += 1,
                Architecture::Power => power += 1,
                _ => {}
            }
        }
        assert!((amd64 as f64 / n as f64 - 0.872).abs() < 0.005);
        assert!((power as f64 / n as f64 - 0.11).abs() < 0.005);
    }

    #[test]
    fn os_frequencies_match_top500() {
        let mut rng = SimRng::seed_from(2);
        let n = 200_000;
        let linux = (0..n)
            .filter(|_| CategoricalField::operating_system(&mut rng) == OperatingSystem::Linux)
            .count();
        assert!((linux as f64 / n as f64 - 0.886).abs() < 0.005);
    }

    #[test]
    fn weights_sum_to_one() {
        assert!((CategoricalField::ARCH_WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((CategoricalField::OS_WEIGHTS.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacities_are_uniform_over_levels() {
        let mut rng = SimRng::seed_from(3);
        let n = 50_000;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..n {
            *counts.entry(CapacityDistribution::sample(&mut rng)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 5);
        for level in CapacityDistribution::LEVELS {
            let freq = counts[&level] as f64 / n as f64;
            assert!((freq - 0.2).abs() < 0.01, "level {level}: {freq}");
        }
    }

    #[test]
    fn ert_distribution_is_clamped() {
        let dist = ClampedNormal::paper_ert();
        let mut rng = SimRng::seed_from(4);
        for _ in 0..10_000 {
            let ert = dist.sample(&mut rng);
            assert!(ert >= SimDuration::from_hours(1));
            assert!(ert <= SimDuration::from_hours(4));
        }
    }

    #[test]
    fn ert_mean_is_near_two_and_a_half_hours() {
        let dist = ClampedNormal::paper_ert();
        let mut rng = SimRng::seed_from(5);
        let n = 50_000;
        let mean_secs: f64 =
            (0..n).map(|_| dist.sample(&mut rng).as_secs_f64()).sum::<f64>() / n as f64;
        // Clamping pulls slightly toward the middle; stay within 5 minutes.
        assert!((mean_secs - 9000.0).abs() < 300.0, "mean = {mean_secs}s");
    }

    #[test]
    fn slack_distributions_scale() {
        let soft = ClampedNormal::paper_deadline_slack();
        let hard = ClampedNormal::paper_tight_deadline_slack();
        assert_eq!(soft.mean, SimDuration::from_mins(450));
        assert_eq!(hard.mean, SimDuration::from_mins(150));
        assert_eq!(soft.min, SimDuration::ZERO);
        assert_eq!(hard.min, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_clamp_panics() {
        ClampedNormal::new(
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
            SimDuration::from_mins(20),
            SimDuration::from_mins(5),
        );
    }
}
