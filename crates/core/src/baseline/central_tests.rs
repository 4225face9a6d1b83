//! Tests of [`Comparator::Central`], the omniscient centralized scheduler.

mod tests {
    use crate::baseline::tests::golden;
    use crate::{Baseline, Comparator, PolicyMix};
    use aria_grid::Policy;
    use aria_sim::{SimDuration, SimTime};
    use aria_workload::{JobGenerator, SubmissionSchedule};

    fn scheduler(seed: u64) -> Baseline {
        Baseline::new(
            Comparator::Central,
            40,
            PolicyMix::paper_mixed(),
            SimTime::from_hours(12),
            SimDuration::from_mins(5),
            seed,
        )
    }

    fn submit(central: &mut Baseline, count: usize) {
        let mut jobs = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), count);
        central.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn completes_all_feasible_jobs() {
        let mut central = scheduler(1);
        submit(&mut central, 30);
        let metrics = central.run();
        assert_eq!(metrics.completed_count(), 30);
    }

    #[test]
    fn placements_match_requirements() {
        let mut central = scheduler(2);
        submit(&mut central, 25);
        central.run();
        // All jobs ran, and record metadata is complete.
        for record in central.metrics().records().values() {
            assert!(record.executed_on.is_some());
            assert_eq!(record.assignments, 1);
            assert_eq!(record.reschedules, 0);
        }
    }

    #[test]
    fn no_messages_are_exchanged() {
        let mut central = scheduler(3);
        submit(&mut central, 10);
        assert_eq!(central.run().traffic().total_messages(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            golden(Comparator::Central, 1),
            "completed=60 msgs=[0, 0, 0, 0] revoked=0 completion=0x40c19a32e978d4fe \
             waiting=0x40ac8156bb98c7e2 records=0x044dde423f6b6063"
        );
        assert_eq!(
            golden(Comparator::Central, 2),
            "completed=58 msgs=[0, 0, 0, 0] revoked=0 completion=0x40c66ddf6411cbe2 \
             waiting=0x40b5a3bc944daecb records=0x9a6c46aff7709c3d"
        );
    }

    #[test]
    fn edf_only_grid_rejects_batch_jobs() {
        let mut central = Baseline::new(
            Comparator::Central,
            10,
            PolicyMix::Uniform(Policy::Edf),
            SimTime::from_hours(4),
            SimDuration::from_mins(5),
            5,
        );
        let mut jobs = JobGenerator::paper_batch();
        let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 5);
        central.submit_schedule(&schedule, &mut jobs);
        assert_eq!(central.run().completed_count(), 0);
    }
}
