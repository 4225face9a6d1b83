//! # aria-grid — grid resource model, jobs and local scheduling policies
//!
//! This crate models the computing side of a grid node as assumed by the
//! ARiA protocol (Brocco et al., ICDCS 2010):
//!
//! * [`NodeProfile`] — hardware/software description of a node
//!   (architecture, operating system, memory, disk) plus the paper's
//!   *performance index* `p ∈ [1, 2]` relating the node to the grid-wide
//!   baseline used for Estimated Running Times (ERT).
//! * [`JobSpec`] / [`JobRequirements`] — jobs with a resource profile, an
//!   ERT and, for deadline scheduling, a completion deadline.
//! * [`SchedulerQueue`] — a local scheduler: one job executes at a time,
//!   waiting jobs are ordered by a [`Policy`] (FCFS, SJF, EDF, and the
//!   paper's future-work extensions LJF and Priority). The queue exposes
//!   the *cost* introspection the protocol needs: Estimated Time To
//!   Completion (ETTC) for batch policies and Negative Accumulated
//!   Lateness (NAL) for deadline policies.
//!
//! The protocol itself lives in `aria-core`; this crate is deliberately
//! free of any networking or messaging concern so the scheduling logic can
//! be tested exhaustively in isolation.
//!
//! ## Example
//!
//! ```
//! use aria_grid::{JobRequirements, JobSpec, JobId, NodeProfile, Policy, SchedulerQueue};
//! use aria_grid::{Architecture, OperatingSystem, PerfIndex};
//! use aria_sim::{SimDuration, SimTime};
//!
//! let profile = NodeProfile::new(
//!     Architecture::Amd64, OperatingSystem::Linux, 8, 16, PerfIndex::new(1.5)?,
//! );
//! let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 4, 4);
//! assert!(req.matches(&profile));
//!
//! let mut queue = SchedulerQueue::new(Policy::Sjf);
//! let job = JobSpec::batch(JobId::new(1), req, SimDuration::from_hours(3));
//! // On this node the job runs in 2h (ERT / p = 3h / 1.5).
//! assert_eq!(profile.ert_on(job.ert), SimDuration::from_hours(2));
//! queue.enqueue(job, SimTime::ZERO, &profile);
//! assert_eq!(queue.waiting_len(), 1);
//! # Ok::<(), aria_grid::InvalidPerfIndex>(())
//! ```

pub mod job;
pub mod queue;
pub mod reservation;
pub mod resources;

pub use job::{JobId, JobPriority, JobRequirements, JobSpec};
pub use queue::{Cost, CostKind, Policy, QueuedJob, RunningJob, SchedulerQueue};
pub use reservation::{Reservation, ReservationCalendar, ReservationConflict};
pub use resources::{Architecture, InvalidPerfIndex, NodeProfile, OperatingSystem, PerfIndex};
