//! # aria-workload — synthetic grid workload and node-profile generation
//!
//! Implements the randomized evaluation inputs of the ARiA paper (§IV):
//!
//! * [`ProfileGenerator`] — heterogeneous node profiles following the
//!   TOP500-derived architecture/OS distributions, uniform memory/disk in
//!   {1, 2, 4, 8, 16} GB and performance index `p ~ U[1, 2]`.
//! * [`JobGenerator`] — jobs whose requirements follow the same
//!   distributions as node profiles and whose ERT follows a clamped
//!   normal `N(2h30m, 1h15m)` bounded to `[1h, 4h]`; optional deadlines
//!   at `submit + ERT + slack`.
//! * [`SubmissionSchedule`] — the fixed-rate submission processes of the
//!   scenarios (1 job / 10 s baseline, halved and doubled for the
//!   low/high-load scenarios).
//! * [`ArtModel`] — the Actual Running Time error models of §IV-E
//!   (`ART = ERTp + drift`, `drift = U[-1,1] · ERT · ε`, with the
//!   *optimistic* variant that only underestimates).
//!
//! ## Example
//!
//! ```
//! use aria_workload::{JobGenerator, ProfileGenerator};
//! use aria_sim::{SimRng, SimTime, SimDuration};
//!
//! let mut rng = SimRng::seed_from(7);
//! let profiles: Vec<_> = (0..10).map(|_| ProfileGenerator::paper().generate(&mut rng)).collect();
//! let mut jobs = JobGenerator::paper_batch();
//! let job = jobs.generate(SimTime::from_mins(20), &mut rng);
//! assert!(job.ert >= SimDuration::from_hours(1) && job.ert <= SimDuration::from_hours(4));
//! # let _ = profiles;
//! ```

pub mod accuracy;
pub mod distributions;
pub mod jobs;
pub mod profiles;
pub mod schedule;

pub use accuracy::ArtModel;
pub use distributions::{CapacityDistribution, CategoricalField, ClampedNormal};
pub use jobs::{JobGenerator, JobGeneratorConfig};
pub use profiles::ProfileGenerator;
pub use schedule::SubmissionSchedule;
