//! Property-based tests for workload generation: distribution clamps,
//! feasibility and the ART error models.

use aria_sim::{SimDuration, SimRng, SimTime};
use aria_workload::{
    ArtModel, ClampedNormal, JobGenerator, JobGeneratorConfig, ProfileGenerator, SubmissionSchedule,
};
use proptest::prelude::*;

proptest! {
    /// Clamped normals always respect their bounds, for arbitrary
    /// parameters (including degenerate std-dev and mean outside the
    /// clamp window).
    #[test]
    fn clamped_normal_respects_bounds(
        seed in any::<u64>(),
        mean_mins in 0u64..600,
        std_mins in 0u64..300,
        lo_mins in 0u64..200,
        width_mins in 0u64..400,
    ) {
        let dist = ClampedNormal::new(
            SimDuration::from_mins(mean_mins),
            SimDuration::from_mins(std_mins),
            SimDuration::from_mins(lo_mins),
            SimDuration::from_mins(lo_mins + width_mins),
        );
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            let sample = dist.sample(&mut rng);
            prop_assert!(sample >= SimDuration::from_mins(lo_mins));
            prop_assert!(sample <= SimDuration::from_mins(lo_mins + width_mins));
        }
    }

    /// Every generated job respects the paper's ERT window, and deadline
    /// jobs are never due before they could possibly finish.
    #[test]
    fn generated_jobs_are_well_formed(
        seed in any::<u64>(),
        submit_mins in 0u64..10_000,
        deadline in any::<bool>(),
    ) {
        let config = if deadline {
            JobGeneratorConfig::paper_deadline()
        } else {
            JobGeneratorConfig::paper_batch()
        };
        let mut generator = JobGenerator::new(config);
        let mut rng = SimRng::seed_from(seed);
        let submit = SimTime::from_mins(submit_mins);
        for _ in 0..50 {
            let job = generator.generate(submit, &mut rng);
            prop_assert!(job.ert >= SimDuration::from_hours(1));
            prop_assert!(job.ert <= SimDuration::from_hours(4));
            match job.deadline {
                Some(d) => prop_assert!(d >= submit + job.ert),
                None => prop_assert!(!deadline),
            }
        }
    }

    /// Feasibility resampling always yields a job matched by some node of
    /// a non-trivial grid.
    #[test]
    fn feasible_jobs_match_the_grid(seed in any::<u64>(), grid_size in 5usize..80) {
        let mut rng = SimRng::seed_from(seed);
        let grid = ProfileGenerator::paper().generate_many(grid_size, &mut rng);
        let mut generator = JobGenerator::paper_batch();
        for _ in 0..30 {
            let job = generator.generate_feasible(SimTime::ZERO, &grid, &mut rng);
            prop_assert!(grid.iter().any(|p| job.requirements.matches(p)));
        }
    }

    /// ART models: symmetric drift bounded by ε·ERT, optimistic never
    /// faster than the estimate, exact is exact.
    #[test]
    fn art_models_respect_their_contracts(
        seed in any::<u64>(),
        ert_mins in 60u64..240,
        perf in 1.0f64..2.0,
        epsilon in 0.0f64..0.5,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let ert = SimDuration::from_mins(ert_mins);
        let ertp = ert.div_f64(perf);
        let exact = ArtModel::Exact.actual_running_time(ert, ertp, &mut rng);
        prop_assert_eq!(exact, ertp.max(SimDuration::from_secs(1)));

        let symmetric = ArtModel::Symmetric { epsilon };
        for _ in 0..20 {
            let art = symmetric.actual_running_time(ert, ertp, &mut rng);
            let drift = art.as_millis() as i64 - ertp.as_millis() as i64;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "test bound, +1 below absorbs the truncation"
            )]
            let bound = (ert.as_millis() as f64 * epsilon) as i64 + ertp.as_millis() as i64;
            prop_assert!(drift.abs() <= bound + 1);
        }

        let optimistic = ArtModel::Optimistic { epsilon };
        for _ in 0..20 {
            let art = optimistic.actual_running_time(ert, ertp, &mut rng);
            prop_assert!(art >= ertp.min(art)); // never panics; and...
            prop_assert!(art.as_millis() + 1 >= ertp.as_millis().min(art.as_millis()));
            prop_assert!(art >= ertp || art == SimDuration::from_secs(1).max(art));
            prop_assert!(art >= ertp, "optimistic ART {art} < estimate {ertp}");
        }
    }

    /// Submission schedules are arithmetic progressions with exactly
    /// `count` strictly increasing instants.
    #[test]
    fn schedules_are_arithmetic(
        start_mins in 0u64..100,
        interval_secs in 1u64..120,
        count in 1usize..500,
    ) {
        let schedule = SubmissionSchedule::new(
            SimTime::from_mins(start_mins),
            SimDuration::from_secs(interval_secs),
            count,
        );
        let times: Vec<SimTime> = schedule.times().collect();
        prop_assert_eq!(times.len(), count);
        prop_assert_eq!(times[0], SimTime::from_mins(start_mins));
        for pair in times.windows(2) {
            prop_assert_eq!(
                pair[1].saturating_since(pair[0]),
                SimDuration::from_secs(interval_secs)
            );
        }
        prop_assert_eq!(*times.last().unwrap(), schedule.last_time());
    }

    /// Job ids keep incrementing across mixed generate calls.
    #[test]
    fn job_ids_never_repeat(seed in any::<u64>(), n in 1usize..100) {
        let mut rng = SimRng::seed_from(seed);
        let grid = ProfileGenerator::paper().generate_many(10, &mut rng);
        let mut generator = JobGenerator::paper_batch();
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..n {
            let job = if i % 2 == 0 {
                generator.generate(SimTime::ZERO, &mut rng)
            } else {
                generator.generate_feasible(SimTime::ZERO, &grid, &mut rng)
            };
            prop_assert!(ids.insert(job.id), "duplicate id {}", job.id);
        }
    }
}
