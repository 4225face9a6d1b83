//! Actual Running Time (ART) error models (§IV-E).
//!
//! The meta-scheduler only ever sees the *estimate* (ERT); the simulator
//! derives the true execution time as
//!
//! ```text
//! ART(j, ε) = ERTp(j) + drift(j, ε),    drift = U[-1, 1] · ERT(j) · ε
//! ```
//!
//! with the *optimistic* variant replacing `drift` by `|drift|` (the
//! estimate is then always lower than reality, *AccuracyBad*).

use aria_sim::{SimDuration, SimRng};

/// How the Actual Running Time deviates from the estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArtModel {
    /// The estimate is perfect (`ε = 0`; *Precise* scenarios).
    Exact,
    /// Symmetric relative error: `drift = U[-1,1] · ERT · ε`
    /// (baseline `ε = 0.1`, *Accuracy25* uses `ε = 0.25`).
    Symmetric {
        /// Relative error bound `ε`.
        epsilon: f64,
    },
    /// Optimistic estimation: the ERT is always lower than reality
    /// (`drift = |U[-1,1] · ERT · ε|`; *AccuracyBad*).
    Optimistic {
        /// Relative error bound `ε`.
        epsilon: f64,
    },
}

impl ArtModel {
    /// The paper's baseline model: symmetric ±10 %.
    pub fn paper_baseline() -> Self {
        ArtModel::Symmetric { epsilon: 0.1 }
    }

    /// Samples the actual running time of a job with baseline estimate
    /// `ert` and node-scaled estimate `ertp`.
    ///
    /// The result never goes below one simulated second: even a wildly
    /// overestimated job takes *some* time to run.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rounded and clamped to >= 1 s first; an overflow saturates"
    )]
    pub fn actual_running_time(
        &self,
        ert: SimDuration,
        ertp: SimDuration,
        rng: &mut SimRng,
    ) -> SimDuration {
        let drift_ms = |epsilon: f64, rng: &mut SimRng| {
            rng.f64_range(-1.0, 1.0) * ert.as_millis() as f64 * epsilon
        };
        let art_ms = match *self {
            ArtModel::Exact => ertp.as_millis() as f64,
            ArtModel::Symmetric { epsilon } => ertp.as_millis() as f64 + drift_ms(epsilon, rng),
            ArtModel::Optimistic { epsilon } => {
                ertp.as_millis() as f64 + drift_ms(epsilon, rng).abs()
            }
        };
        SimDuration::from_millis(art_ms.round().max(1000.0) as u64)
    }
}

impl Default for ArtModel {
    fn default() -> Self {
        ArtModel::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERT: SimDuration = SimDuration::from_hours(2);
    const ERTP: SimDuration = SimDuration::from_mins(90);

    #[test]
    fn exact_model_returns_ertp() {
        let mut rng = SimRng::seed_from(1);
        let art = ArtModel::Exact.actual_running_time(ERT, ERTP, &mut rng);
        assert_eq!(art, ERTP);
    }

    #[test]
    fn symmetric_drift_is_bounded_by_epsilon_of_ert() {
        let mut rng = SimRng::seed_from(2);
        let model = ArtModel::Symmetric { epsilon: 0.1 };
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "test bound, +1 absorbs the truncation"
        )]
        let bound = (ERT.as_millis() as f64 * 0.1) as u64 + 1;
        for _ in 0..5000 {
            let art = model.actual_running_time(ERT, ERTP, &mut rng);
            let drift = art.as_millis() as i64 - ERTP.as_millis() as i64;
            assert!(drift.unsigned_abs() <= bound);
        }
    }

    #[test]
    fn symmetric_drift_is_roughly_centered() {
        let mut rng = SimRng::seed_from(3);
        let model = ArtModel::Symmetric { epsilon: 0.25 };
        let n = 20_000;
        let mean_drift: f64 = (0..n)
            .map(|_| {
                model.actual_running_time(ERT, ERTP, &mut rng).as_millis() as f64
                    - ERTP.as_millis() as f64
            })
            .sum::<f64>()
            / n as f64;
        // drift spans ±30min of ERT*0.25; the mean should sit near zero.
        assert!(mean_drift.abs() < 30_000.0, "mean drift {mean_drift}ms");
    }

    #[test]
    fn optimistic_never_finishes_early() {
        let mut rng = SimRng::seed_from(4);
        let model = ArtModel::Optimistic { epsilon: 0.1 };
        for _ in 0..5000 {
            let art = model.actual_running_time(ERT, ERTP, &mut rng);
            assert!(art >= ERTP, "optimistic ART {art} below estimate {ERTP}");
        }
    }

    #[test]
    fn art_never_below_one_second() {
        let mut rng = SimRng::seed_from(5);
        let tiny = SimDuration::from_millis(10);
        let model = ArtModel::Symmetric { epsilon: 1.0 };
        for _ in 0..100 {
            let art = model.actual_running_time(SimDuration::from_hours(4), tiny, &mut rng);
            assert!(art >= SimDuration::from_secs(1));
        }
    }

    #[test]
    fn default_is_paper_baseline() {
        assert_eq!(ArtModel::default(), ArtModel::Symmetric { epsilon: 0.1 });
    }
}
