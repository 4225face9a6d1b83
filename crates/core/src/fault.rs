//! Deterministic transport fault injection.
//!
//! The paper's evaluation (§IV) assumes a reliable transport: the only
//! failure it injects is whole-node crashes with §III-D failsafe
//! recovery. [`FaultPlan`] adds the missing lossy-network dimension —
//! per-message loss, duplicate delivery, latency jitter and scheduled
//! overlay partitions — while keeping every schedule replayable:
//!
//! * All probabilistic draws come from a **dedicated fault RNG stream**
//!   forked from the world seed, so a fault schedule is a pure function
//!   of `(config, seed)` and never perturbs the protocol's own draws.
//! * [`FaultPlan::none`] (the default) is **bit-for-bit inert**: the
//!   world skips the fault path entirely (no RNG fork, no draws, no
//!   bookkeeping), so the determinism/invariant/probe goldens and the
//!   `perfbench` fingerprints (`perfbench/pins.txt`) are unchanged.
//! * Every fault that *fires* is assigned a sequential **injection
//!   index** and recorded in the world's fault log. The chaos harness
//!   (`cargo xtask chaos`) shrinks a failing schedule by re-running with
//!   a [`FaultPlan::keep`] allow-list: only the listed injection indices
//!   take effect, every other firing is vetoed after its RNG draw. Any
//!   subset is therefore itself a deterministic, replayable schedule.
//!
//! Partitions are modelled as a parity cut: while a
//! [`PartitionWindow`] is open, every message crossing between
//! even-index and odd-index nodes is dropped (and logged as a
//! [`FaultKind::Partition`] injection). The split is deterministic by
//! construction — no RNG is involved in *which* nodes separate, only
//! the window timing chosen by the plan author.

use aria_grid::JobId;
use aria_overlay::NodeId;
use aria_probe::MsgKind;
use aria_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A scheduled overlay partition: the parity cut opens at `start` and
/// heals `duration` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// When the cut opens.
    pub start: SimTime,
    /// How long it stays open.
    pub duration: SimDuration,
}

impl PartitionWindow {
    /// When the cut heals.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A replayable transport fault schedule (see the module docs).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Per-message duplicate-delivery probability in `[0, 1]`.
    pub duplicate: f64,
    /// Maximum extra per-message latency, drawn uniformly from
    /// `[0, jitter_ms]` milliseconds.
    pub jitter_ms: u64,
    /// Scheduled overlay partitions (parity cut, see module docs).
    pub partitions: Vec<PartitionWindow>,
    /// Shrinker allow-list: when `Some`, only the listed injection
    /// indices (sorted) take effect; every other firing is vetoed
    /// *after* its RNG draw, so the trajectory stays a deterministic
    /// function of `(config, seed, keep)`.
    pub keep: Option<Vec<u64>>,
}

impl FaultPlan {
    /// The reliable-transport plan: no faults, bit-for-bit identical to
    /// a world without the fault layer.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan can inject anything at all. The world gates
    /// every fault-path branch (including the fault RNG fork) on this,
    /// which is what makes [`FaultPlan::none`] zero-overhead.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.duplicate > 0.0
            || self.jitter_ms > 0
            || !self.partitions.is_empty()
    }

    /// Whether the injection at `index` is allowed to take effect.
    #[must_use]
    pub fn keeps(&self, index: u64) -> bool {
        match &self.keep {
            None => true,
            Some(kept) => kept.binary_search(&index).is_ok(),
        }
    }

    /// Which side of the parity cut `node` is on.
    #[must_use]
    pub fn side(node: NodeId) -> bool {
        node.index() % 2 == 1
    }

    /// Whether a message from `from` to `to` crosses the cut.
    #[must_use]
    pub fn crosses_cut(from: NodeId, to: NodeId) -> bool {
        FaultPlan::side(from) != FaultPlan::side(to)
    }
}

/// What kind of fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was dropped by the lossy link.
    Loss,
    /// A second copy of the message was delivered.
    Duplicate,
    /// The message was dropped because it crossed an open partition cut.
    Partition,
}

impl FaultKind {
    /// Stable lower-case name (used in the chaos harness output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Partition => "partition",
        }
    }
}

/// One fault that fired, as recorded in the world's fault log. The
/// chaos harness shrinks over the `index` values and prints the minimal
/// surviving list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Sequential injection index (the shrinker's handle).
    pub index: u64,
    /// What fired.
    pub kind: FaultKind,
    /// When it fired.
    pub at: SimTime,
    /// The message's destination node.
    pub to: NodeId,
    /// The message kind affected.
    pub msg: MsgKind,
    /// The job the message was about.
    pub job: JobId,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{index} {kind} {msg}[job {job:?}] -> {to:?} at {at}",
            index = self.index,
            kind = self.kind.name(),
            msg = self.msg.name(),
            job = self.job,
            to = self.to,
            at = self.at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_default() {
        let plan = FaultPlan::none();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.is_active());
        assert!(plan.keeps(0), "no allow-list means everything fires");
    }

    #[test]
    fn any_single_knob_activates_the_plan() {
        assert!(FaultPlan { loss: 0.1, ..FaultPlan::none() }.is_active());
        assert!(FaultPlan { duplicate: 0.1, ..FaultPlan::none() }.is_active());
        assert!(FaultPlan { jitter_ms: 5, ..FaultPlan::none() }.is_active());
        let window =
            PartitionWindow { start: SimTime::from_mins(1), duration: SimDuration::from_mins(2) };
        assert!(FaultPlan { partitions: vec![window], ..FaultPlan::none() }.is_active());
        assert_eq!(window.end(), SimTime::from_mins(3));
    }

    #[test]
    fn keep_list_vetoes_everything_not_listed() {
        let plan = FaultPlan { loss: 1.0, keep: Some(vec![2, 5]), ..FaultPlan::none() };
        assert!(!plan.keeps(0));
        assert!(plan.keeps(2));
        assert!(!plan.keeps(3));
        assert!(plan.keeps(5));
    }

    #[test]
    fn the_parity_cut_separates_even_from_odd() {
        let even = NodeId::new(4);
        let odd = NodeId::new(7);
        assert!(FaultPlan::crosses_cut(even, odd));
        assert!(!FaultPlan::crosses_cut(even, NodeId::new(0)));
        assert!(!FaultPlan::crosses_cut(odd, NodeId::new(1)));
    }
}
