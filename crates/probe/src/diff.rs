//! Trace diffing: find where two event streams first stop matching.
//!
//! Bit-for-bit goldens tell you *that* two runs match; this tells you
//! *where* they stopped matching — the first entry whose (seq, sim-time,
//! event) triple differs, or the point where one trace ends early.

use crate::record::{Trace, TraceEntry};
use std::fmt;

/// The first point where two traces disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based entry index into both traces.
    pub index: usize,
    /// The left trace's entry, if it still has one at `index`.
    pub left: Option<TraceEntry>,
    /// The right trace's entry, if it still has one at `index`.
    pub right: Option<TraceEntry>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at entry {}:", self.index)?;
        match &self.left {
            Some(e) => writeln!(
                f,
                "  left : seq {} at {} {} — {}",
                e.seq,
                e.at,
                e.event.node().map_or_else(|| "(global)".to_string(), |n| n.to_string()),
                e.event
            )?,
            None => writeln!(f, "  left : <trace ended>")?,
        }
        match &self.right {
            Some(e) => write!(
                f,
                "  right: seq {} at {} {} — {}",
                e.seq,
                e.at,
                e.event.node().map_or_else(|| "(global)".to_string(), |n| n.to_string()),
                e.event
            ),
            None => write!(f, "  right: <trace ended>"),
        }
    }
}

/// Compares two traces entry-by-entry, returning the first mismatch.
///
/// Header metadata (scenario, seed) is deliberately ignored: diffing two
/// runs with different seeds is exactly the nondeterminism-bisection use
/// case, and the interesting answer is the first divergent *event*.
pub fn first_divergence(left: &Trace, right: &Trace) -> Option<Divergence> {
    let n = left.entries.len().max(right.entries.len());
    for index in 0..n {
        let l = left.entries.get(index).copied();
        let r = right.entries.get(index).copied();
        if l != r {
            return Some(Divergence { index, left: l, right: r });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProbeEvent;
    use crate::record::TraceMeta;
    use aria_grid::JobId;
    use aria_overlay::NodeId;
    use aria_sim::SimTime;

    fn trace(entries: Vec<TraceEntry>) -> Trace {
        Trace { meta: TraceMeta::default(), dropped: 0, entries }
    }

    fn submitted(seq: u64, job: u64, node: u32) -> TraceEntry {
        TraceEntry {
            seq,
            at: SimTime::from_secs(seq),
            event: ProbeEvent::JobSubmitted { job: JobId::new(job), initiator: NodeId::new(node) },
        }
    }

    #[test]
    fn identical_traces_do_not_diverge() {
        let a = trace(vec![submitted(0, 1, 2), submitted(1, 2, 3)]);
        let b = a.clone();
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn differing_entry_is_located() {
        let a = trace(vec![submitted(0, 1, 2), submitted(1, 2, 3)]);
        let b = trace(vec![submitted(0, 1, 2), submitted(1, 2, 4)]);
        let d = first_divergence(&a, &b).expect("divergence");
        assert_eq!(d.index, 1);
        let rendered = d.to_string();
        assert!(rendered.contains("n3"), "{rendered}");
        assert!(rendered.contains("n4"), "{rendered}");
        assert!(rendered.contains("0h00m01s"), "{rendered}");
    }

    #[test]
    fn shorter_trace_diverges_at_its_end() {
        let a = trace(vec![submitted(0, 1, 2), submitted(1, 2, 3)]);
        let b = trace(vec![submitted(0, 1, 2)]);
        let d = first_divergence(&a, &b).expect("divergence");
        assert_eq!(d.index, 1);
        assert!(d.left.is_some());
        assert!(d.right.is_none());
        assert!(d.to_string().contains("<trace ended>"));
    }

    #[test]
    fn metadata_differences_alone_do_not_diverge() {
        let mut a = trace(vec![submitted(0, 1, 2)]);
        let mut b = a.clone();
        a.meta.seed = 1;
        b.meta.seed = 2;
        assert_eq!(first_divergence(&a, &b), None);
    }
}
