//! # aria-core — the ARiA fully distributed grid meta-scheduling protocol
//!
//! This crate implements the paper's primary contribution (Brocco,
//! Malatras, Huang, Hirsbrunner: *ARiA: A Protocol for Dynamic Fully
//! Distributed Grid Meta-Scheduling*, ICDCS 2010): a lightweight
//! peer-to-peer protocol whose name spells its four message types —
//! **A**ccept, **R**equest, **i**nform, **A**ssign.
//!
//! ## Protocol phases
//!
//! 1. **Job submission** (§III-B): a job submitted to any node (its
//!    *initiator*) is advertised with a bounded [`Message::Request`]
//!    flood over the overlay.
//! 2. **Job acceptance** (§III-C): matching nodes reply with
//!    [`Message::Accept`] carrying a *cost* — Estimated Time To
//!    Completion for batch schedulers, Negative Accumulated Lateness for
//!    deadline schedulers. The initiator delegates the job to the
//!    cheapest offer with [`Message::Assign`].
//! 3. **Dynamic rescheduling** (§III-D): while a job waits, its current
//!    *assignee* periodically floods [`Message::Inform`] messages; nodes
//!    able to undercut the advertised cost by more than a threshold
//!    reply with an ACCEPT and the job moves.
//!
//! ## Crate layout
//!
//! * [`msg`] — the wire messages of Table I.
//! * [`config`] — protocol and simulation parameters (§IV-E defaults).
//! * [`world`] — the discrete-event simulation world coupling the
//!   overlay (`aria-overlay`), the local schedulers (`aria-grid`), the
//!   workload models (`aria-workload`) and the measurement layer
//!   (`aria-metrics`).
//! * [`baseline`] — the comparators on one grid substrate: an
//!   omniscient centralized meta-scheduler (the upper bound on initial
//!   placement), gossip state dissemination (the paper's reference
//!   \[25\]: cached remote loads instead of on-demand floods) and
//!   multiple simultaneous requests (its reference \[13\]).
//! * [`net`] — the transport nondeterminism switch: [`NetModel::Sampled`]
//!   draws the paper's latencies and fanout choices bit-for-bit,
//!   [`NetModel::Lockstep`] makes them pure functions of the state so a
//!   model checker can own the delivery order.
//! * [`explore`] — the exploration surface on [`World`]: enumerating
//!   pending deliveries, applying one [`Action`] at a time, canonical
//!   state fingerprints. Driven by the `aria-model` checker.
//! * [`fault`] — deterministic transport fault injection
//!   ([`FaultPlan`]): per-message loss, duplicates, latency jitter and
//!   scheduled overlay partitions, replayable from the world seed and
//!   shrinkable by injection index (`cargo xtask chaos`).
//!
//! ## Example
//!
//! ```
//! use aria_core::{World, WorldConfig};
//! use aria_workload::{JobGenerator, SubmissionSchedule};
//! use aria_sim::{SimDuration, SimTime};
//!
//! // A small grid: 50 nodes, mixed FCFS/SJF schedulers, rescheduling on.
//! let config = WorldConfig::small_test(50);
//! let mut world = World::new(config, 42);
//!
//! // Submit 20 feasible jobs, one per minute, to random nodes.
//! let mut jobs = JobGenerator::paper_batch();
//! let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 20);
//! world.submit_schedule(&schedule, &mut jobs);
//! let metrics = world.run();
//! assert_eq!(metrics.completed_count(), 20);
//! ```

pub mod baseline;
pub mod config;
mod dense;
pub mod driver;
pub mod explore;
pub mod fault;
pub mod logic;
pub mod msg;
pub mod net;
mod visited;
pub mod world;

pub use baseline::{Baseline, Comparator};
pub use config::{AriaConfig, OverlayKind, PolicyMix, ReservationPlan, WorldConfig};
pub use explore::{Action, PendingDelivery};
pub use fault::{FaultKind, FaultPlan, FaultRecord, PartitionWindow};
pub use msg::{FloodId, Message};
pub use net::NetModel;
pub use world::World;

// Each comparator's tests keep a module of the comparator's name.
#[cfg(test)]
#[path = "baseline/central_tests.rs"]
mod central;
#[cfg(test)]
#[path = "baseline/gossip_tests.rs"]
mod gossip;
#[cfg(test)]
#[path = "baseline/multireq_tests.rs"]
mod multireq;
