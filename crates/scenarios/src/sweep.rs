//! `loss-sweep` — the robustness campaign beyond the paper's reliable
//! transport.
//!
//! The paper's evaluation (§IV) only injects whole-node crashes; this
//! module reruns the iMixed scenario under increasing per-message loss
//! (plus optional duplicates/jitter/partitions, passed to
//! [`Runner::run_config`]) and reports the job-conservation
//! ledger at every rate:
//!
//! ```text
//! completed + lost + abandoned == submitted
//! ```
//!
//! Two properties are worth pinning (and the tests below do):
//!
//! * **Conservation is loss-independent.** No loss rate may leak a job
//!   out of the ledger — a dropped ASSIGN either gets retransmitted,
//!   falls back to another offer, or trips the §III-D failsafe.
//! * **Moderate loss degrades gracefully.** With the failsafe on, loss
//!   up to ~10% completes the full workload with zero lost jobs; the
//!   retransmit/fallback machinery absorbs the drops.

use crate::catalog::Scenario;
use crate::runner::Runner;
use aria_core::{FaultPlan, WorldConfig};
use aria_probe::NullProbe;

/// One point of a loss sweep: the job-conservation ledger of a single
/// `(scenario, seed)` run at a fixed loss rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Per-message loss probability of this run.
    pub loss: f64,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs lost (holder crashed / delegation evaporated with the
    /// failsafe unable to recover them).
    pub lost: usize,
    /// Jobs abandoned after exhausting their REQUEST rounds.
    pub abandoned: usize,
    /// Jobs recovered by the §III-D failsafe.
    pub recovered: u64,
    /// Transport fault injections that fired during the run.
    pub injections: usize,
}

impl SweepPoint {
    /// Does the run's ledger balance? Every submitted job must end in
    /// exactly one terminal column.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.completed + (self.lost + self.abandoned) as u64 == self.submitted as u64
    }
}

/// Runs one iMixed simulation at the given loss rate and returns its
/// conservation ledger.
pub fn run_point(runner: &Runner, loss: f64, seed: u64) -> SweepPoint {
    let fault = FaultPlan { loss, ..FaultPlan::none() };
    run_point_with(runner, fault, seed)
}

/// Like [`run_point`], but with a full [`FaultPlan`] (duplicates,
/// jitter, partitions) instead of a bare loss rate.
pub fn run_point_with(runner: &Runner, fault: FaultPlan, seed: u64) -> SweepPoint {
    let scenario = Scenario::IMixed;
    let loss = fault.loss;
    let config = WorldConfig { fault, ..runner.config_for(scenario) };
    let (stats, world) = runner.run_config(scenario, config, seed, false, NullProbe);
    SweepPoint {
        loss,
        submitted: runner.schedule_for(scenario).count(),
        completed: stats.completed,
        lost: world.lost_jobs().len(),
        abandoned: world.abandoned_jobs().len(),
        recovered: world.recovered_count(),
        injections: world.fault_log().len(),
    }
}

/// Sweeps the iMixed scenario over the given loss rates with one run
/// per rate (same seed throughout, so rates differ only in transport
/// behaviour).
pub fn loss_sweep(runner: &Runner, losses: &[f64], seed: u64) -> Vec<SweepPoint> {
    losses.iter().map(|&loss| run_point(runner, loss, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_core::PartitionWindow;
    use aria_sim::{SimDuration, SimTime};

    fn runner() -> Runner {
        Runner::scaled(30, 15)
    }

    #[test]
    fn zero_loss_point_matches_the_reliable_run() {
        let point = run_point(&runner(), 0.0, 7);
        let baseline = runner().run_once(Scenario::IMixed, 7);
        assert_eq!(point.completed, baseline.completed);
        assert_eq!(point.abandoned, baseline.abandoned);
        assert_eq!(point.injections, 0, "a 0% plan must never fire");
        assert!(point.conserved());
    }

    #[test]
    fn moderate_loss_completes_everything_with_the_failsafe() {
        // The graceful-degradation acceptance bar: at <= 10% loss the
        // retransmit/fallback/failsafe stack absorbs every drop.
        for seed in [1, 7, 42] {
            let point = run_point(&runner(), 0.10, seed);
            assert!(point.conserved(), "ledger must balance: {point:?}");
            assert_eq!(point.lost, 0, "no job may be lost at 10% loss: {point:?}");
            assert_eq!(
                point.completed, point.submitted as u64,
                "10% loss must still complete the workload: {point:?}"
            );
            assert!(point.injections > 0, "a 10% run must actually drop messages");
        }
    }

    #[test]
    fn conservation_holds_across_the_whole_sweep() {
        let points = loss_sweep(&runner(), &[0.0, 0.05, 0.25, 0.5], 3);
        assert_eq!(points.len(), 4);
        for point in &points {
            assert!(point.conserved(), "ledger must balance at every rate: {point:?}");
        }
    }

    #[test]
    fn partitions_and_duplicates_preserve_the_ledger() {
        let fault = FaultPlan {
            loss: 0.05,
            duplicate: 0.10,
            jitter_ms: 500,
            partitions: vec![PartitionWindow {
                start: SimTime::from_mins(30),
                duration: SimDuration::from_mins(20),
            }],
            keep: None,
        };
        let point = run_point_with(&runner(), fault, 11);
        assert!(point.conserved(), "ledger must balance under mixed faults: {point:?}");
        assert!(point.injections > 0);
    }
}
