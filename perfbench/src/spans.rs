//! In-memory span recording for the traced run.
//!
//! The benchmark measures every layer from outside, so a span is opened
//! around each call into a product crate's public function. A span holds
//! its name, start, end, the span that was open when it started (its
//! parent) and the repetition it belongs to. A layer's *self time* is its
//! spans' duration minus what their child spans cover.
//!
//! Workload code is generic over [`Spans`]: the untraced run uses
//! [`Off`], whose methods compile to nothing, so end-to-end numbers carry
//! no tracing cost at all.

use std::io::Write as _;
use std::time::Instant;

/// A span name: an index into [`NAMES`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Name(pub u8);

/// The five wire-message classes, in the order of `aria_probe::MsgKind`
/// (control frames count as `ack`, like `LiveMsg::kind`).
pub const MSG_KINDS: [&str; 5] = ["request", "accept", "inform", "assign", "ack"];

/// `NodeDriver` input classes: a submission, a timer fire, or a message
/// of one of the [`MSG_KINDS`].
pub const INPUT_KINDS: [&str; 7] = [
    "submit",
    "timer",
    "msg_request",
    "msg_accept",
    "msg_inform",
    "msg_assign",
    "msg_ack",
];

impl Name {
    /// One repetition of a workload; the root of its span tree.
    pub const REP: Name = Name(0);
    /// `World::new` / `World::with_probe`.
    pub const WORLD_NEW: Name = Name(1);
    /// `World::submit_schedule`.
    pub const WORLD_SUBMIT: Name = Name(2);
    /// `World::run`.
    pub const WORLD_RUN: Name = Name(3);
    /// The mesh harness's own pump loop (its self time is the harness).
    pub const MESH_PUMP: Name = Name(4);
    /// `run_cluster`.
    pub const CLUSTER_RUN: Name = Name(5);
    /// Everything a repetition does before its first event.
    pub const SETUP: Name = Name(6);

    /// `NodeDriver::handle` for input class `kind` (index into [`INPUT_KINDS`]).
    pub const fn handle(kind: usize) -> Name {
        Name(7 + kind as u8)
    }

    /// `aria_codec::encode` of message class `kind` (index into [`MSG_KINDS`]).
    pub const fn encode(kind: usize) -> Name {
        Name(14 + kind as u8)
    }

    /// `aria_codec::decode` of message class `kind`.
    pub const fn decode(kind: usize) -> Name {
        Name(19 + kind as u8)
    }

    /// The span's printable name.
    pub fn as_str(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

/// Number of distinct span names.
pub const NAME_COUNT: usize = 24;

const NAMES: [&str; NAME_COUNT] = [
    "bench.rep",
    "core.world.new",
    "core.world.submit",
    "core.world.run",
    "bench.mesh.pump",
    "node.cluster.run",
    "bench.setup",
    "core.driver.handle.submit",
    "core.driver.handle.timer",
    "core.driver.handle.msg_request",
    "core.driver.handle.msg_accept",
    "core.driver.handle.msg_inform",
    "core.driver.handle.msg_assign",
    "core.driver.handle.msg_ack",
    "codec.encode.request",
    "codec.encode.accept",
    "codec.encode.inform",
    "codec.encode.assign",
    "codec.encode.ack",
    "codec.decode.request",
    "codec.decode.accept",
    "codec.decode.inform",
    "codec.decode.assign",
    "codec.decode.ack",
];

/// Where workload code reports span boundaries.
pub trait Spans {
    /// Opens a span as a child of the innermost open one.
    fn enter(&mut self, name: Name);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// The untraced run: records nothing, compiles to nothing.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn enter(&mut self, _name: Name) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy)]
pub struct Span {
    name: Name,
    /// Index of the parent span in the same repetition; `NO_PARENT` for a root.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Per-name totals of one repetition's spans.
#[derive(Clone, Copy, Default)]
pub struct Folded {
    /// Spans closed, per name.
    pub count: [u64; NAME_COUNT],
    /// Summed span durations, per name, in nanoseconds.
    pub total_ns: [u64; NAME_COUNT],
    /// Summed durations minus child spans, per name, in nanoseconds.
    pub self_ns: [u64; NAME_COUNT],
}

impl Folded {
    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: Name) -> f64 {
        self.total_ns[name.0 as usize] as f64 / 1e9
    }

    /// Self seconds of spans named `name`.
    pub fn self_s(&self, name: Name) -> f64 {
        self.self_ns[name.0 as usize] as f64 / 1e9
    }

    /// Mean nanoseconds per span named `name`; 0 when none closed.
    pub fn mean_ns(&self, name: Name) -> f64 {
        let count = self.count[name.0 as usize];
        if count == 0 {
            0.0
        } else {
            self.total_ns[name.0 as usize] as f64 / count as f64
        }
    }
}

/// The traced run's recorder: spans of the current repetition, plus a
/// bounded sample kept for the span dump.
pub struct Tracer {
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<(u32, Span)>,
}

impl Tracer {
    /// Spans kept for the dump; a mesh repetition alone records millions.
    const KEEP: usize = 200_000;

    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Folds the finished repetition's spans into per-name totals and
    /// clears them for the next one.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open: enter/exit calls must pair up.
    pub fn fold(&mut self) -> Folded {
        assert!(
            self.open.is_empty(),
            "span left open at the end of a repetition"
        );
        let mut folded = Folded::default();
        for span in &self.spans {
            let dur = span.end_ns - span.start_ns;
            let slot = span.name.0 as usize;
            folded.count[slot] += 1;
            folded.total_ns[slot] += dur;
            folded.self_ns[slot] += dur;
        }
        // Children lie inside their parents, so the subtraction cannot
        // underflow once every span's own duration has been added.
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = self.spans[span.parent as usize].name.0 as usize;
                folded.self_ns[parent] -= span.end_ns - span.start_ns;
            }
        }
        let room = Self::KEEP.saturating_sub(self.kept.len());
        self.kept
            .extend(self.spans.iter().take(room).map(|s| (self.rep, *s)));
        self.spans.clear();
        self.rep += 1;
        folded
    }

    /// Writes the kept spans as JSON lines: repetition, index within the
    /// repetition, parent index (or null), name, start and end.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut index = 0u32;
        let mut rep = u32::MAX;
        for (span_rep, span) in &self.kept {
            if *span_rep != rep {
                rep = *span_rep;
                index = 0;
            }
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"rep\":{rep},\"id\":{index},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.name.as_str(),
                span.start_ns,
                span.end_ns
            )?;
            index += 1;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Spans for Tracer {
    #[inline]
    fn enter(&mut self, name: Name) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = end_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.enter(Name::REP);
        tracer.enter(Name::WORLD_NEW);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.exit();
        tracer.enter(Name::WORLD_RUN);
        tracer.exit();
        tracer.exit();
        let folded = tracer.fold();
        assert_eq!(folded.count[Name::REP.0 as usize], 1);
        let rep = Name::REP.0 as usize;
        let children = folded.total_ns[Name::WORLD_NEW.0 as usize]
            + folded.total_ns[Name::WORLD_RUN.0 as usize];
        assert_eq!(folded.self_ns[rep], folded.total_ns[rep] - children);
        assert!(folded.total_s(Name::WORLD_NEW) >= 0.002);
        assert_eq!(folded.mean_ns(Name::MESH_PUMP), 0.0);
    }

    #[test]
    fn names_line_up_with_their_tables() {
        assert_eq!(Name::handle(0).as_str(), "core.driver.handle.submit");
        assert_eq!(Name::handle(6).as_str(), "core.driver.handle.msg_ack");
        assert_eq!(Name::encode(0).as_str(), "codec.encode.request");
        assert_eq!(Name::decode(4).as_str(), "codec.decode.ack");
    }
}
