//! # aria-scenarios — the paper's evaluation campaign
//!
//! Everything needed to regenerate the ARiA paper's evaluation (§IV, §V):
//!
//! * [`Scenario`] — the 26 scenarios of Table II, each mapping to a
//!   [`aria_core::WorldConfig`] plus a workload definition.
//! * [`Runner`] — multi-seed scenario execution (one simulation per
//!   `(scenario, seed)` pair, fanned out over worker threads) producing
//!   [`ScenarioResult`]s with per-run statistics and cross-seed
//!   aggregates.
//! * [`figures`] — textual reproductions of every table and figure:
//!   Table I/II and Figures 1-10.
//!
//! The `reproduce` binary drives the whole campaign:
//!
//! ```text
//! cargo run --release -p aria-scenarios --bin reproduce -- all --seeds 10
//! cargo run --release -p aria-scenarios --bin reproduce -- fig4 fig10
//! ```
//!
//! ## Example
//!
//! ```
//! use aria_scenarios::{Runner, Scenario};
//!
//! // A scaled-down run of the Mixed scenario (40 nodes, 30 jobs).
//! let runner = Runner::scaled(40, 30);
//! let result = runner.run(Scenario::Mixed, &[1]);
//! assert_eq!(result.runs.len(), 1);
//! assert_eq!(result.runs[0].completed, 30);
//! ```

pub mod catalog;
pub mod figures;
pub mod plot;
pub mod runner;
pub mod sweep;

pub use catalog::Scenario;
pub use figures::Campaign;
pub use runner::{RunStats, Runner, ScenarioResult};
pub use sweep::{loss_sweep, SweepPoint};
