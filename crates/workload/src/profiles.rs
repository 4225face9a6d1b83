//! Random node-profile generation (§IV-B).

use crate::distributions::{CapacityDistribution, CategoricalField};
use aria_grid::{NodeProfile, PerfIndex};
use aria_sim::SimRng;

/// Generates heterogeneous node profiles with the paper's distributions:
/// TOP500 architectures and operating systems, uniform memory/disk over
/// {1, 2, 4, 8, 16} GB, and a performance index `p ~ U[1, 2]`.
///
/// # Example
///
/// ```
/// use aria_workload::ProfileGenerator;
/// use aria_sim::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let profile = ProfileGenerator::paper().generate(&mut rng);
/// assert!(profile.performance.value() >= 1.0 && profile.performance.value() <= 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileGenerator;

impl ProfileGenerator {
    /// The paper's profile generator.
    pub fn paper() -> Self {
        ProfileGenerator
    }

    /// Samples one node profile.
    pub fn generate(&self, rng: &mut SimRng) -> NodeProfile {
        NodeProfile::new(
            CategoricalField::architecture(rng),
            CategoricalField::operating_system(rng),
            CapacityDistribution::sample(rng),
            CapacityDistribution::sample(rng),
            PerfIndex::new(rng.f64_range(1.0, 2.0)).expect("sampled within [1,2]"),
        )
    }

    /// Samples `n` node profiles.
    pub fn generate_many(&self, n: usize, rng: &mut SimRng) -> Vec<NodeProfile> {
        (0..n).map(|_| self.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_grid::Architecture;

    #[test]
    fn profiles_respect_all_distributions() {
        let mut rng = SimRng::seed_from(8);
        let profiles = ProfileGenerator::paper().generate_many(20_000, &mut rng);
        let amd64 = profiles.iter().filter(|p| p.arch == Architecture::Amd64).count() as f64;
        assert!((amd64 / profiles.len() as f64 - 0.872).abs() < 0.01);
        for p in &profiles {
            assert!([1, 2, 4, 8, 16].contains(&p.memory_gb));
            assert!([1, 2, 4, 8, 16].contains(&p.disk_gb));
            assert!((1.0..=2.0).contains(&p.performance.value()));
        }
    }

    #[test]
    fn memory_and_disk_are_independent() {
        let mut rng = SimRng::seed_from(9);
        let profiles = ProfileGenerator::paper().generate_many(20_000, &mut rng);
        let equal = profiles.iter().filter(|p| p.memory_gb == p.disk_gb).count() as f64;
        // Independent uniform over 5 levels: ~20 % equal pairs.
        assert!((equal / profiles.len() as f64 - 0.2).abs() < 0.02);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ProfileGenerator::paper().generate_many(50, &mut SimRng::seed_from(4));
        let b = ProfileGenerator::paper().generate_many(50, &mut SimRng::seed_from(4));
        assert_eq!(a, b);
    }
}
