//! # aria-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the ARiA reproduction: a small,
//! deterministic discrete-event simulation kernel with millisecond
//! resolution, a seedable random number source, and the statistics
//! utilities used by the measurement layer.
//!
//! The engine is deliberately generic: it knows nothing about grids,
//! overlays or scheduling. Higher layers define an event payload type and
//! drive the simulation loop themselves, which keeps the kernel trivially
//! testable and reusable.
//!
//! ## Determinism
//!
//! Two runs with the same event schedule and the same [`SimRng`] seed
//! produce bit-identical results: ties in event time are broken by a
//! monotonically increasing sequence number assigned at scheduling time.
//!
//! ## Example
//!
//! ```
//! use aria_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(5), "hello");
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(1), "world");
//!
//! let (t1, e1) = queue.pop().unwrap();
//! assert_eq!((t1.as_secs(), e1), (1, "world"));
//! let (t2, e2) = queue.pop().unwrap();
//! assert_eq!((t2.as_secs(), e2), (5, "hello"));
//! assert!(queue.pop().is_none());
//! ```

pub mod event;
pub mod pool;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
