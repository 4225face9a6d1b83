//! # aria-metrics — measurement infrastructure for the ARiA evaluation
//!
//! Everything the paper's figures are made of:
//!
//! * [`JobRecord`] — the life cycle of one job (submission, assignments,
//!   reschedules, execution start/end) and the derived waiting /
//!   execution / completion times of Figure 2.
//! * [`MetricsCollector`] — per-run collector: gauge time series
//!   (completed jobs, idle nodes — Figures 1, 3, 5, 6), job records, and
//!   the traffic ledger.
//! * [`TrafficLedger`] / [`TrafficClass`] — per-message-type traffic
//!   accounting with the paper's message sizes (REQUEST/INFORM/ASSIGN =
//!   1 KiB, ACCEPT = 128 B; Figure 10).
//! * [`DeadlineStats`] — missed deadlines, average lateness of met
//!   deadlines, average missed time (Figure 4).
//! * [`report`] — CSV export of series, job records and traffic for
//!   external plotting.
//!
//! ## Example
//!
//! ```
//! use aria_metrics::{MetricsCollector, TrafficClass};
//! use aria_grid::{JobId, JobSpec, JobRequirements, Architecture, OperatingSystem};
//! use aria_sim::{SimDuration, SimTime};
//!
//! let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
//! let job = JobSpec::batch(JobId::new(0), req, SimDuration::from_hours(2));
//!
//! let mut m = MetricsCollector::new(SimDuration::from_mins(1));
//! m.job_submitted(&job, SimTime::ZERO);
//! m.job_assigned(job.id, SimTime::from_secs(2), false);
//! m.job_started(job.id, 7, SimTime::from_mins(5));
//! m.job_completed(job.id, SimTime::from_mins(125));
//! m.record_message(TrafficClass::Request);
//!
//! assert_eq!(m.completed_count(), 1);
//! let record = &m.records()[&job.id];
//! assert_eq!(record.waiting_time(), Some(SimDuration::from_mins(5)));
//! assert_eq!(record.execution_time(), Some(SimDuration::from_mins(120)));
//! ```

pub mod collector;
pub mod deadline;
pub mod record;
pub mod report;
pub mod traffic;

pub use collector::MetricsCollector;
pub use deadline::DeadlineStats;
pub use record::JobRecord;
pub use report::{records_csv, series_csv, traffic_csv, write_report};
pub use traffic::{TrafficClass, TrafficLedger};
