//! # aria-probe — deterministic structured event tracing
//!
//! A zero-cost observability layer for the ARiA simulator. The world
//! is generic over a [`Probe`]; every protocol transition (submission,
//! flood hops, offers, assignments, reschedules, queue movement,
//! execution, churn, drops) calls [`Probe::record`] with a small `Copy`
//! [`ProbeEvent`]. Monomorphization makes the disabled case free:
//! [`NullProbe::record`] is an empty inline body, so `World<NullProbe>`
//! (the default) compiles to exactly the uninstrumented hot path.
//!
//! With a [`RingRecorder`] plugged in instead, the most recent events
//! are retained in a bounded ring with **sim-time** stamps (wall-clock
//! never appears in a trace) and exported as versioned JSONL
//! ([`schema`]). On top of the raw stream sit derived views
//! ([`views`]): per-job causal lifecycle timelines, per-node
//! utilization/queue-depth histograms, flood fan-out and
//! offers-per-request counters — and a trace differ ([`diff`]) that
//! finds the first divergent event between two runs.
//!
//! ## Determinism rules for probe code
//!
//! Probe code is sim-reachable and obeys the same rules as the
//! simulator (the workspace determinism gate covers this crate):
//!
//! * timestamps are [`aria_sim::SimTime`] only — never wall-clock;
//! * aggregation uses ordered containers (`BTreeMap`/`BTreeSet`), so
//!   every view renders identically for identical traces;
//! * recording is allocation-free at steady state and events are
//!   `Copy`, so instrumentation cannot perturb the run it observes.
//!
//! ## Example
//!
//! ```
//! use aria_probe::{Probe, ProbeEvent, RingRecorder, TraceMeta};
//! use aria_grid::JobId;
//! use aria_overlay::NodeId;
//! use aria_sim::SimTime;
//!
//! let mut recorder = RingRecorder::with_capacity(1024);
//! recorder.record(
//!     SimTime::from_secs(60),
//!     ProbeEvent::JobSubmitted { job: JobId::new(0), initiator: NodeId::new(3) },
//! );
//! let trace = recorder.into_trace(TraceMeta::default());
//! let jsonl = aria_probe::schema::to_jsonl(&trace);
//! let back = aria_probe::schema::from_jsonl(&jsonl).unwrap();
//! assert_eq!(back, trace);
//! ```

#![deny(missing_docs)]

pub mod diff;
pub mod event;
pub mod record;
pub mod schema;
pub mod views;

pub use diff::{first_divergence, Divergence};
pub use event::{FloodKind, MsgKind, ProbeEvent};
pub use record::{RingRecorder, Trace, TraceEntry, TraceMeta};
pub use schema::{SchemaError, SCHEMA_NAME, SCHEMA_VERSION};
pub use views::{job_timeline, lifecycles, render_timeline, summarize, Lifecycle, TraceSummary};

use aria_sim::SimTime;

/// A sink for structured protocol events, threaded through the
/// simulator's hot path by monomorphization.
///
/// ## Contract
///
/// * [`record`](Probe::record) must be cheap and must never panic: the
///   world calls it mid-transition.
/// * Implementations must not feed information back into the
///   simulation — a probe observes, it never participates. (The world
///   only ever calls `record`, so the type system enforces this.)
/// * `now` is simulated time; implementations must not consult
///   wall-clock time or any other ambient state, so that recording is
///   deterministic and a probed run stays bit-for-bit identical to an
///   unprobed one.
pub trait Probe {
    /// Records one protocol transition at sim-time `now`.
    fn record(&mut self, now: SimTime, event: ProbeEvent);

    /// Whether this probe retains events. `false` lets callers skip
    /// work that only matters when a trace is actually recorded.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
}

/// The default probe: records nothing, compiles to nothing.
///
/// `World<NullProbe>` is the uninstrumented simulator — the empty
/// `record` body is inlined and dead-code eliminated, which is verified
/// by the bit-for-bit determinism, invariants and probe goldens and by
/// the `perfbench` `sim_paper` workload (its pin and its `run_s`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn record(&mut self, _now: SimTime, _event: ProbeEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}
