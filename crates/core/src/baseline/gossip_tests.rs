//! Tests of [`Comparator::Gossip`], placement from gossiped load caches.

mod tests {
    use crate::baseline::tests::{avg_cache_coverage, golden};
    use crate::{Baseline, Comparator, PolicyMix};
    use aria_metrics::TrafficClass;
    use aria_sim::{SimDuration, SimTime};
    use aria_workload::{JobGenerator, SubmissionSchedule};

    fn scheduler(seed: u64) -> Baseline {
        Baseline::new(
            Comparator::Gossip,
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
            SimTime::from_mins(5),
            SimDuration::from_secs(interval_secs),
            count,
        );
        grid.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn completes_all_jobs() {
        let mut grid = scheduler(1);
        submit(&mut grid, 40, 30);
        assert_eq!(grid.run().completed_count(), 40);
    }

    #[test]
    fn gossip_spreads_state_across_the_grid() {
        let mut grid = scheduler(2);
        // No jobs: just let gossip run for a while.
        grid.run();
        // After 12h of one-minute rounds every cache should know a large
        // share of the 40-node grid.
        let coverage = avg_cache_coverage(&grid);
        assert!(coverage > 30.0, "avg cache coverage {coverage}");
    }

    #[test]
    fn gossip_traffic_is_constant_state_dissemination() {
        let mut grid = scheduler(3);
        submit(&mut grid, 20, 60);
        let metrics = grid.run();
        // Inform-class messages: fanout 2 per node per minute over 12h.
        let informs = metrics.traffic().messages(TrafficClass::Inform);
        let expected = 40 * 2 * 12 * 60;
        assert!(
            (informs as f64) > expected as f64 * 0.9 && (informs as f64) < expected as f64 * 1.1,
            "informs = {informs}, expected ≈ {expected}"
        );
        // One ASSIGN per placed job, no REQUEST floods at all.
        assert_eq!(metrics.traffic().messages(TrafficClass::Request), 0);
        assert_eq!(metrics.traffic().messages(TrafficClass::Assign), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            golden(Comparator::Gossip, 1),
            "completed=60 msgs=[0, 0, 86400, 60] revoked=0 completion=0x40d0658066666668 \
             waiting=0x40c37d930925d1db records=0x8e6075a14e8b3724"
        );
        assert_eq!(
            golden(Comparator::Gossip, 2),
            "completed=60 msgs=[0, 0, 86400, 60] revoked=0 completion=0x40cd24ff525460a8 \
             waiting=0x40c101dc045e7b28 records=0xda001bc53b168051"
        );
    }

    #[test]
    fn placements_respect_requirements() {
        let mut grid = scheduler(5);
        submit(&mut grid, 30, 20);
        grid.run();
        for record in grid.metrics().records().values() {
            assert!(record.is_completed());
            assert_eq!(record.reschedules, 0); // no rescheduling phase
        }
    }
}
