//! Random job generation (§IV-D).

use crate::distributions::{CapacityDistribution, CategoricalField, ClampedNormal};
use aria_grid::{JobId, JobRequirements, JobSpec, NodeProfile};
use aria_sim::{SimRng, SimTime};

/// Configuration of the random job generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobGeneratorConfig {
    /// ERT distribution (the paper's `N(2h30m, 1h15m)` in `[1h, 4h]`).
    pub ert: ClampedNormal,
    /// When `Some`, jobs carry a deadline `submit + ERT + slack` with the
    /// slack drawn from this distribution (§IV-D).
    pub deadline_slack: Option<ClampedNormal>,
    /// Resample a job's requirements until at least one node of the given
    /// grid can satisfy them (see [`JobGenerator::generate_feasible`]).
    /// Keeps the paper's property that all 1000 jobs eventually complete.
    pub ensure_feasible: bool,
}

impl JobGeneratorConfig {
    /// Batch jobs with the paper's ERT distribution.
    pub fn paper_batch() -> Self {
        JobGeneratorConfig {
            ert: ClampedNormal::paper_ert(),
            deadline_slack: None,
            ensure_feasible: true,
        }
    }

    /// Deadline jobs with the soft (7h30m average) slack.
    pub fn paper_deadline() -> Self {
        JobGeneratorConfig {
            deadline_slack: Some(ClampedNormal::paper_deadline_slack()),
            ..Self::paper_batch()
        }
    }

    /// Deadline jobs with the hard (2h30m average) slack (*DeadlineH*).
    pub fn paper_tight_deadline() -> Self {
        JobGeneratorConfig {
            deadline_slack: Some(ClampedNormal::paper_tight_deadline_slack()),
            ..Self::paper_batch()
        }
    }
}

/// Generates randomized jobs with unique ids.
///
/// Requirements follow the same distributions as node profiles, so a
/// typical job matches roughly a fifth of a heterogeneous grid — rare
/// architecture + large memory demands can be very selective.
///
/// # Example
///
/// ```
/// use aria_workload::JobGenerator;
/// use aria_sim::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed_from(3);
/// let mut gen = JobGenerator::paper_batch();
/// let a = gen.generate(SimTime::from_mins(20), &mut rng);
/// let b = gen.generate(SimTime::from_mins(20), &mut rng);
/// assert_ne!(a.id, b.id);
/// ```
#[derive(Debug, Clone)]
pub struct JobGenerator {
    config: JobGeneratorConfig,
    next_id: u64,
}

impl JobGenerator {
    /// Creates a generator from a configuration.
    pub fn new(config: JobGeneratorConfig) -> Self {
        JobGenerator { config, next_id: 0 }
    }

    /// Batch generator with the paper's distributions.
    pub fn paper_batch() -> Self {
        JobGenerator::new(JobGeneratorConfig::paper_batch())
    }

    /// Deadline generator with the paper's soft slack.
    pub fn paper_deadline() -> Self {
        JobGenerator::new(JobGeneratorConfig::paper_deadline())
    }

    /// The generator's configuration.
    pub fn config(&self) -> &JobGeneratorConfig {
        &self.config
    }

    /// Generates the next job, submitted at `submit`.
    pub fn generate(&mut self, submit: SimTime, rng: &mut SimRng) -> JobSpec {
        let id = JobId::new(self.next_id);
        self.next_id += 1;
        let requirements = Self::sample_requirements(rng);
        let ert = self.config.ert.sample(rng);
        match self.config.deadline_slack {
            None => JobSpec::batch(id, requirements, ert),
            Some(slack) => {
                let deadline = submit + ert + slack.sample(rng);
                JobSpec::with_deadline(id, requirements, ert, deadline)
            }
        }
    }

    /// Generates the next job, resampling its requirements (when
    /// `ensure_feasible` is set) until at least one profile in `grid`
    /// matches.
    ///
    /// Gives up after 1000 attempts and returns the last sample, so a
    /// pathological grid cannot hang the generator.
    pub fn generate_feasible(
        &mut self,
        submit: SimTime,
        grid: &[NodeProfile],
        rng: &mut SimRng,
    ) -> JobSpec {
        let mut job = self.generate(submit, rng);
        if !self.config.ensure_feasible {
            return job;
        }
        let mut attempts = 0;
        while !grid.iter().any(|p| job.requirements.matches(p)) && attempts < 1000 {
            job.requirements = Self::sample_requirements(rng);
            attempts += 1;
        }
        job
    }

    fn sample_requirements(rng: &mut SimRng) -> JobRequirements {
        JobRequirements::new(
            CategoricalField::architecture(rng),
            CategoricalField::operating_system(rng),
            CapacityDistribution::sample(rng),
            CapacityDistribution::sample(rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileGenerator;
    use aria_sim::SimDuration;

    #[test]
    fn ids_are_unique_and_sequential() {
        let mut rng = SimRng::seed_from(1);
        let mut generator = JobGenerator::paper_batch();
        let jobs: Vec<JobSpec> =
            (0..100).map(|_| generator.generate(SimTime::ZERO, &mut rng)).collect();
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, JobId::new(i as u64));
        }
    }

    #[test]
    fn batch_jobs_have_no_deadline() {
        let mut rng = SimRng::seed_from(2);
        let mut generator = JobGenerator::paper_batch();
        for _ in 0..50 {
            assert!(!generator.generate(SimTime::ZERO, &mut rng).is_deadline());
        }
    }

    #[test]
    fn deadline_lies_beyond_submit_plus_ert() {
        let mut rng = SimRng::seed_from(3);
        let mut generator = JobGenerator::paper_deadline();
        let submit = SimTime::from_hours(2);
        for _ in 0..200 {
            let job = generator.generate(submit, &mut rng);
            let deadline = job.deadline.expect("deadline generator emits deadlines");
            assert!(deadline >= submit + job.ert);
            assert!(deadline <= submit + job.ert + SimDuration::from_hours(15));
        }
    }

    #[test]
    fn tight_deadlines_are_tighter() {
        let mut rng = SimRng::seed_from(4);
        let mut soft = JobGenerator::paper_deadline();
        let mut hard = JobGenerator::new(JobGeneratorConfig::paper_tight_deadline());
        let n = 2000;
        let avg = |generator: &mut JobGenerator, rng: &mut SimRng| -> f64 {
            (0..n)
                .map(|_| {
                    let j = generator.generate(SimTime::ZERO, rng);
                    (j.deadline.unwrap().saturating_since(SimTime::ZERO) - j.ert).as_secs_f64()
                })
                .sum::<f64>()
                / n as f64
        };
        let soft_slack = avg(&mut soft, &mut rng);
        let hard_slack = avg(&mut hard, &mut rng);
        assert!(soft_slack > 2.5 * hard_slack, "soft {soft_slack}s vs hard {hard_slack}s");
    }

    #[test]
    fn generate_feasible_matches_some_node() {
        let mut rng = SimRng::seed_from(5);
        let grid = ProfileGenerator::paper().generate_many(50, &mut rng);
        let mut generator = JobGenerator::paper_batch();
        for _ in 0..300 {
            let job = generator.generate_feasible(SimTime::ZERO, &grid, &mut rng);
            assert!(
                grid.iter().any(|p| job.requirements.matches(p)),
                "infeasible job {job} escaped the resampler"
            );
        }
    }

    #[test]
    fn generate_feasible_without_flag_does_not_resample() {
        let mut rng = SimRng::seed_from(6);
        let config =
            JobGeneratorConfig { ensure_feasible: false, ..JobGeneratorConfig::paper_batch() };
        let mut generator = JobGenerator::new(config);
        // Empty grid: nothing can match, but generation still succeeds.
        let job = generator.generate_feasible(SimTime::ZERO, &[], &mut rng);
        assert_eq!(job.id, JobId::new(0));
    }

    #[test]
    fn feasible_generation_terminates_on_impossible_grid() {
        let mut rng = SimRng::seed_from(7);
        let mut generator = JobGenerator::paper_batch();
        // No profiles at all: the resampler caps attempts and returns.
        let job = generator.generate_feasible(SimTime::ZERO, &[], &mut rng);
        assert_eq!(job.id, JobId::new(0));
    }
}
