//! # aria-node — the live ARiA node runtime and cluster harness
//!
//! Everything the sans-io layers deliberately exclude lives here: real
//! UDP sockets, a monotonic clock, process management. The crate is the
//! *only* workspace member allowed to touch those APIs (`cargo xtask
//! lint` enforces the boundary via the io-purity rule); all protocol
//! behaviour comes from [`aria_core::driver::NodeDriver`] and through it
//! the same `aria_core::logic` kernels the simulator runs.
//!
//! * [`config`] — strict TOML-subset node configuration (static
//!   peer-list overlay bootstrap, shared [`ProtocolTiming`] slice).
//! * [`timer`] — the monotonic timer wheel backing driver timers.
//! * [`runtime`] — the blocking UDP event loop (`aria-node` binary).
//! * [`cluster`] — the multi-process localhost harness
//!   (`aria-cluster` binary and the loopback integration test).
//!
//! [`ProtocolTiming`]: aria_core::config::ProtocolTiming

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the live runtime: real sockets and the monotonic clock, banned in every other \
              crate by clippy.toml, are this crate's job"
)]

pub mod cluster;
pub mod config;
pub mod runtime;
pub mod timer;

pub use cluster::{run_cluster, ClusterOutcome, ClusterSpec};
pub use config::{ConfigError, NodeConfig};
pub use runtime::RunReport;
pub use timer::TimerWheel;
