//! Tests of [`Comparator::MultiRequest`], multiple simultaneous requests
//! with revocation.

mod tests {
    use crate::baseline::tests::golden;
    use crate::{Baseline, Comparator, PolicyMix};
    use aria_sim::{SimDuration, SimTime};
    use aria_workload::{JobGenerator, SubmissionSchedule};

    fn scheduler(replicas: usize, seed: u64) -> Baseline {
        Baseline::new(
            Comparator::MultiRequest { replicas },
            40,
            PolicyMix::paper_mixed(),
            SimTime::from_hours(12),
            SimDuration::from_mins(5),
            seed,
        )
    }

    fn submit(grid: &mut Baseline, count: usize, interval_secs: u64) {
        let mut jobs = JobGenerator::paper_batch();
        let schedule = SubmissionSchedule::new(
            SimTime::from_mins(1),
            SimDuration::from_secs(interval_secs),
            count,
        );
        grid.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn completes_every_job_exactly_once() {
        let mut grid = scheduler(3, 1);
        submit(&mut grid, 40, 30);
        let metrics = grid.run();
        assert_eq!(metrics.completed_count(), 40);
        for record in metrics.records().values() {
            assert!(record.is_completed());
        }
    }

    #[test]
    fn revocations_happen_under_replication() {
        let mut grid = scheduler(3, 2);
        submit(&mut grid, 60, 10);
        grid.run();
        assert!(grid.revoked_replicas() > 0, "3-way replication must cancel surplus replicas");
        // Each job wastes at most replicas-1 queue slots.
        assert!(grid.revoked_replicas() <= 60 * 2);
    }

    #[test]
    fn single_replica_never_revokes() {
        let mut grid = scheduler(1, 3);
        submit(&mut grid, 30, 20);
        let metrics = grid.run();
        assert_eq!(metrics.completed_count(), 30);
        assert_eq!(grid.revoked_replicas(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let k3 = Comparator::MultiRequest { replicas: 3 };
        assert_eq!(
            golden(k3, 1),
            "completed=60 msgs=[0, 0, 0, 0] revoked=102 completion=0x40c0978e0e78f7f3 \
             waiting=0x40a88d66d3a06d3e records=0xd8ed7b5a83974d2f"
        );
        assert_eq!(
            golden(k3, 2),
            "completed=58 msgs=[0, 0, 0, 0] revoked=92 completion=0x40c398d7d995148c \
             waiting=0x40adb52743ddd1ce records=0x458c4b9535fec23a"
        );
    }

    #[test]
    fn replication_does_not_lose_or_duplicate_completions() {
        for replicas in [1, 2, 4, 8] {
            let mut grid = scheduler(replicas, 11);
            submit(&mut grid, 50, 5);
            let metrics = grid.run();
            assert_eq!(
                metrics.completed_count(),
                50,
                "replicas={replicas} lost or duplicated completions"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        scheduler(0, 1);
    }
}
