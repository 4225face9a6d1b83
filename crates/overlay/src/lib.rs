//! # aria-overlay — self-organized peer-to-peer overlay
//!
//! The ARiA protocol assumes "all nodes are connected through some sort of
//! peer-to-peer overlay network enabling communication between any pair of
//! nodes" (§III-A). The paper's evaluation uses **BLATANT-S** (Brocco &
//! Hirsbrunner, GridPeer 2009): a fully distributed, bio-inspired
//! algorithm that maintains an overlay with *bounded average path length*
//! and a *minimal number of links*.
//!
//! This crate provides:
//!
//! * [`Topology`] — an undirected overlay graph with per-link one-way
//!   latencies ("realistic round-trip delays", §IV-A) and graph analysis
//!   (average path length, degree, connectivity).
//! * [`Blatant`] — a swarm-inspired maintainer reproducing the BLATANT-S
//!   contract: ant-like agents random-walk the overlay, proposing shortcut
//!   links where the path-length bound is violated and pruning links that
//!   do not contribute to the solution. `Blatant::build` produces the
//!   paper's evaluation overlay: 500 nodes, average path length ≈ 9,
//!   average degree ≈ 4. [`Blatant::integrate_node`] grows the overlay
//!   one node at a time (the *Expanding* scenarios).
//! * [`builders`] — baseline overlay families (ring, random regular,
//!   Watts-Strogatz small world) used by the future-work ablation
//!   "experiments with different types of peer-to-peer overlay networks"
//!   (§VI).
//!
//! ## Example
//!
//! ```
//! use aria_overlay::{Blatant, LatencyModel};
//! use aria_sim::SimRng;
//!
//! let mut rng = SimRng::seed_from(1);
//! let topo = Blatant::new(9.0, LatencyModel::default())
//!     .build(100, &mut rng);
//! assert!(topo.is_connected());
//! assert!(topo.avg_path_length() <= 9.0);
//! ```

pub mod blatant;
pub mod builders;
pub mod latency;
pub mod topology;

pub use blatant::Blatant;
pub use latency::LatencyModel;
pub use topology::{NodeId, Topology};
