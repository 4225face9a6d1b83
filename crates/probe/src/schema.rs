//! The versioned JSONL trace schema: export, parsing, validation.
//!
//! A trace file is line-oriented JSON:
//!
//! * line 1 — the header object:
//!   `{"schema":"aria-probe-trace","version":4,"scenario":…,"seed":…,
//!   "nodes":…,"jobs":…,"events":…,"dropped":…}`
//! * every following line — one event object:
//!   `{"seq":…,"t_ms":…,"kind":"…", <kind-specific integer/bool/string
//!   fields>}`
//!
//! Which kinds exist and their fields are declared once, in the event
//! table of [`crate::event`]; this module
//! holds only what every kind shares: the header, escaping, the
//! flat-object cursor, [`validate`] and [`from_jsonl`].
//!
//! ## Version policy
//!
//! [`SCHEMA_VERSION`] is bumped on any breaking change (field renamed or
//! removed, meaning changed, kind renamed) and on every new kind: readers
//! ignore unknown *fields* but reject unknown *kinds*. Writers stamp the
//! current version and readers accept exactly that version, rejecting any
//! other at the header rather than guessing. Adding a kind is one row in
//! the event table plus a bump of [`SCHEMA_VERSION`]; a reader built
//! before the bump then refuses the whole file. History: v1 — the
//! original 18 kinds; v2 — the fault-layer kinds and the `ack` message
//! kind; v3 — `gauge` fields widened from u32 to u64; v4 — the
//! live-membership kinds. Nothing in the workspace writes or keeps a
//! trace of an older version, so there is no reader for one.
//!
//! The schema is deliberately integer/bool/string-only (sim-time in
//! milliseconds, costs in scheduler-cost milliseconds) so traces diff
//! bit-for-bit and no float formatting ambiguity exists.
//!
//! The writer/parser pair below is hand-written and dependency-free:
//! the workspace builds offline, with no JSON crate.

use crate::event::ProbeEvent;
use crate::record::{Trace, TraceEntry, TraceMeta};
use aria_grid::JobId;
use aria_overlay::NodeId;
use aria_sim::SimTime;
use std::borrow::Cow;
use std::fmt::{self, Write};

/// Identifies the trace format in the header line.
pub const SCHEMA_NAME: &str = "aria-probe-trace";

/// Current schema version; see the module docs for the bump policy.
pub const SCHEMA_VERSION: u64 = 4;

/// A parse or validation failure, with the 1-based line it occurred on
/// (line 0 = whole-file problems).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based offending line; 0 for file-level errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace schema error: {}", self.message)
        } else {
            write!(f, "trace schema error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SchemaError {}

fn err(line: usize, message: impl Into<String>) -> SchemaError {
    SchemaError { line, message: message.into() }
}

/// A parsed JSON scalar. The schema is integer/bool/string-only by
/// design; floats are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JsonValue<'a> {
    Int(i64),
    Bool(bool),
    Str(Cow<'a, str>),
}

/// How one event field type travels on the wire; the event table writes
/// and reads every field through this. `FloodKind` and `MsgKind` get
/// theirs from their name tables in [`crate::event`].
pub(crate) trait Field: Sized {
    /// What the value must be, for the error on a mistyped field.
    const EXPECTED: &'static str;
    /// Appends the JSON value.
    fn write(self, out: &mut String);
    /// Decodes a parsed value; `None` if it has the wrong type or range.
    fn read(value: &JsonValue<'_>) -> Option<Self>;
}

macro_rules! integer_field {
    ($($ty:ty => $expected:literal),*) => {$(
        impl Field for $ty {
            const EXPECTED: &'static str = $expected;
            fn write(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(value: &JsonValue<'_>) -> Option<Self> {
                match *value {
                    JsonValue::Int(v) => v.try_into().ok(),
                    _ => None,
                }
            }
        }
    )*};
}

integer_field!(u64 => "an integer >= 0", u32 => "an integer in u32 range", i64 => "an integer");

impl Field for bool {
    const EXPECTED: &'static str = "a boolean";
    fn write(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
    fn read(value: &JsonValue<'_>) -> Option<Self> {
        match *value {
            JsonValue::Bool(v) => Some(v),
            _ => None,
        }
    }
}

macro_rules! id_field {
    ($($ty:ident($raw:ty)),*) => {$(
        impl Field for $ty {
            const EXPECTED: &'static str = <$raw>::EXPECTED;
            fn write(self, out: &mut String) {
                self.raw().write(out);
            }
            fn read(value: &JsonValue<'_>) -> Option<Self> {
                <$raw>::read(value).map($ty::new)
            }
        }
    )*};
}

id_field!(JobId(u64), NodeId(u32));

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

pub(crate) fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `,"key":value`.
pub(crate) fn put<T: Field>(out: &mut String, key: &str, value: T) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.write(out);
}

/// One header line (no trailing newline) for a trace with the given meta
/// and counts. The live runtime streams its event lines first and writes
/// this ahead of them at shutdown, once the event count is known.
pub fn header_line(meta: &TraceMeta, events: u64, dropped: u64) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"schema\":");
    push_escaped(&mut out, SCHEMA_NAME);
    put(&mut out, "version", SCHEMA_VERSION);
    out.push_str(",\"scenario\":");
    push_escaped(&mut out, &meta.scenario);
    put(&mut out, "seed", meta.seed);
    put(&mut out, "nodes", meta.nodes);
    put(&mut out, "jobs", meta.jobs);
    put(&mut out, "events", events);
    put(&mut out, "dropped", dropped);
    out.push('}');
    out
}

/// One event line (no trailing newline) — the streaming counterpart of
/// [`to_jsonl`], byte-identical to the line that function would emit.
pub fn entry_line(entry: &TraceEntry) -> String {
    let mut out = String::with_capacity(96);
    write_entry(&mut out, entry);
    out
}

/// Appends one event line (without trailing newline).
fn write_entry(out: &mut String, entry: &TraceEntry) {
    out.push_str("{\"seq\":");
    entry.seq.write(out);
    put(out, "t_ms", entry.at.as_millis());
    out.push_str(",\"kind\":");
    push_escaped(out, entry.event.kind());
    entry.event.write_fields(out);
    out.push('}');
}

/// Serializes a trace to JSONL (one header line, one line per entry,
/// trailing newline).
pub fn to_jsonl(trace: &Trace) -> String {
    // ~96 bytes per line is a comfortable overestimate; avoids rehashing
    // growth for big traces.
    let mut out = String::with_capacity(96 * (trace.entries.len() + 1));
    out.push_str(&header_line(&trace.meta, trace.entries.len() as u64, trace.dropped));
    out.push('\n');
    for entry in &trace.entries {
        write_entry(&mut out, entry);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), SchemaError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == byte => Ok(()),
            _ => Err(err(self.line, format!("expected '{}'", byte as char))),
        }
    }

    /// A string, borrowed from the line unless it carries escapes. Every
    /// slice boundary sits next to an ASCII `"` or `\`, so slicing the
    /// `&str` never splits a character.
    fn string(&mut self) -> Result<Cow<'a, str>, SchemaError> {
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            match self.bump() {
                None => return Err(err(self.line, "unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos - 1]);
                    let c = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| err(self.line, "bad \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        _ => return Err(err(self.line, "unsupported string escape")),
                    };
                    s.push(c);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(err(self.line, "raw control byte in string")),
                Some(_) => {}
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue<'a>, SchemaError> {
        self.skip_ws();
        let rest = &self.text.as_bytes()[self.pos..];
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if rest.starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if rest.starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            Some(b'-') | Some(b'0'..=b'9') => {
                let start = self.pos;
                self.pos += usize::from(rest[0] == b'-');
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
                    return Err(err(self.line, "float values are not part of the schema"));
                }
                let text = &self.text[start..self.pos];
                text.parse::<i64>()
                    .map(JsonValue::Int)
                    .map_err(|_| err(self.line, format!("integer out of range: {text}")))
            }
            _ => Err(err(self.line, "expected a string, integer or boolean value")),
        }
    }
}

/// The (key, value) pairs of one flat JSON object line, in file order.
pub(crate) struct Fields<'a> {
    line: usize,
    pairs: Vec<(Cow<'a, str>, JsonValue<'a>)>,
}

impl<'a> Fields<'a> {
    /// Parses line number `line`. Nested objects/arrays are rejected —
    /// the schema is flat — and so are duplicate keys, which would make
    /// the object ambiguous.
    fn parse(text: &'a str, line: usize) -> Result<Self, SchemaError> {
        let mut fields = Fields { line, pairs: Vec::with_capacity(10) };
        let mut cur = Cursor { text, pos: 0, line };
        cur.expect(b'{')?;
        cur.skip_ws();
        if cur.peek() == Some(b'}') {
            cur.bump();
        } else {
            loop {
                let key = cur.string()?;
                if fields.pairs.iter().any(|(k, _)| *k == key) {
                    return Err(err(line, format!("duplicate key \"{key}\"")));
                }
                cur.expect(b':')?;
                let value = cur.value()?;
                fields.pairs.push((key, value));
                cur.skip_ws();
                match cur.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(err(line, "expected ',' or '}'")),
                }
            }
        }
        cur.skip_ws();
        if cur.peek().is_some() {
            return Err(err(line, "trailing bytes after object"));
        }
        Ok(fields)
    }

    /// An error located on this object's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> SchemaError {
        err(self.line, message)
    }

    fn value(&self, key: &str) -> Result<&JsonValue<'a>, SchemaError> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| self.error(format!("missing field \"{key}\"")))
    }

    /// The typed value of field `key`.
    pub(crate) fn get<T: Field>(&self, key: &str) -> Result<T, SchemaError> {
        T::read(self.value(key)?)
            .ok_or_else(|| self.error(format!("field \"{key}\" must be {}", T::EXPECTED)))
    }

    fn text(&self, key: &str) -> Result<&str, SchemaError> {
        match self.value(key)? {
            JsonValue::Str(s) => Ok(s),
            _ => Err(self.error(format!("field \"{key}\" must be a string"))),
        }
    }
}

/// Structural validation shared by the parser and in-memory producers:
/// strictly increasing `seq`, non-decreasing sim-time.
pub fn validate(trace: &Trace) -> Result<(), SchemaError> {
    for (i, pair) in trace.entries.windows(2).enumerate() {
        let (p, e) = (&pair[0], &pair[1]);
        let line = i + 3; // 1-based, after the header line
        if e.seq <= p.seq {
            let message = format!("seq must be strictly increasing ({} after {})", e.seq, p.seq);
            return Err(err(line, message));
        }
        if e.at < p.at {
            return Err(err(line, format!("sim-time went backwards ({} after {})", e.at, p.at)));
        }
    }
    Ok(())
}

/// Parses and validates a JSONL trace produced by [`to_jsonl`].
///
/// Unknown *fields* are ignored (additive schema evolution); unknown
/// *kinds*, duplicate keys and any version other than [`SCHEMA_VERSION`]
/// are errors.
pub fn from_jsonl(text: &str) -> Result<Trace, SchemaError> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (header_idx, header_text) =
        lines.next().ok_or_else(|| err(0, "empty trace: missing header line"))?;
    let header = Fields::parse(header_text, header_idx + 1)?;
    let schema = header.text("schema")?;
    if schema != SCHEMA_NAME {
        return Err(header.error(format!("unknown schema \"{schema}\"")));
    }
    let version: u64 = header.get("version")?;
    if version != SCHEMA_VERSION {
        return Err(header.error(format!(
            "unsupported schema version {version} (reader supports {SCHEMA_VERSION})"
        )));
    }
    let meta = TraceMeta {
        scenario: header.text("scenario")?.to_string(),
        seed: header.get("seed")?,
        nodes: header.get("nodes")?,
        jobs: header.get("jobs")?,
    };
    let declared_events: u64 = header.get("events")?;
    let dropped = header.get("dropped")?;

    let mut entries = Vec::new();
    for (idx, line) in lines {
        let f = Fields::parse(line, idx + 1)?;
        let seq = f.get("seq")?;
        let at = SimTime::from_millis(f.get("t_ms")?);
        let event = ProbeEvent::read_fields(f.text("kind")?, &f)?;
        entries.push(TraceEntry { seq, at, event });
    }
    if entries.len() as u64 != declared_events {
        let found = entries.len();
        return Err(err(0, format!("header declares {declared_events} events, file has {found}")));
    }
    let trace = Trace { meta, dropped, entries };
    validate(&trace)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FloodKind, MsgKind, KINDS};

    fn trace_of(scenario: &str, events: Vec<ProbeEvent>) -> Trace {
        let entries = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceEntry {
                seq: i as u64,
                at: SimTime::from_millis(1000 * i as u64),
                event,
            })
            .collect();
        Trace {
            meta: TraceMeta { scenario: scenario.to_string(), seed: 5, nodes: 32, jobs: 10 },
            dropped: 0,
            entries,
        }
    }

    fn sample_trace() -> Trace {
        let job = JobId::new(3);
        let (n0, n5) = (NodeId::new(0), NodeId::new(5));
        let entries = vec![
            (60_000, ProbeEvent::JobSubmitted { job, initiator: n0 }),
            (60_000, ProbeEvent::RequestRound { job, initiator: n0, round: 0, flood: 0, seeds: 4 }),
            (
                60_040,
                ProbeEvent::FloodHop {
                    kind: FloodKind::Request,
                    job,
                    flood: 0,
                    node: n5,
                    hops_left: 8,
                    duplicate: false,
                },
            ),
            (
                60_080,
                ProbeEvent::BidSent {
                    kind: FloodKind::Request,
                    job,
                    from: n5,
                    to: n0,
                    cost_ms: -12_000,
                },
            ),
            (90_000, ProbeEvent::Assigned { job, by: n0, to: n5, reschedule: false }),
            (91_000, ProbeEvent::Gauge { idle: 29, queued: 1, pending_events: 7, peak_events: 40 }),
        ];
        Trace {
            meta: TraceMeta { scenario: "iMixed".to_string(), seed: 11, nodes: 30, jobs: 15 },
            dropped: 0,
            entries: entries
                .into_iter()
                .enumerate()
                .map(|(seq, (ms, event))| TraceEntry {
                    seq: seq as u64,
                    at: SimTime::from_millis(ms),
                    event,
                })
                .collect(),
        }
    }

    /// One event of every kind, in table order, with distinct values.
    fn every_kind() -> Trace {
        let job = JobId::new(3);
        let (a, b) = (NodeId::new(1), NodeId::new(7));
        trace_of(
            "every-kind",
            vec![
                ProbeEvent::JobSubmitted { job, initiator: a },
                ProbeEvent::RequestRound { job, initiator: a, round: 1, flood: 2, seeds: 4 },
                ProbeEvent::FloodHop {
                    kind: FloodKind::Inform,
                    job,
                    flood: 2,
                    node: b,
                    hops_left: 8,
                    duplicate: true,
                },
                ProbeEvent::BidSent {
                    kind: FloodKind::Request,
                    job,
                    from: b,
                    to: a,
                    cost_ms: -12_000,
                },
                ProbeEvent::OfferReceived {
                    job,
                    initiator: a,
                    from: b,
                    cost_ms: 9_500,
                    best: true,
                },
                ProbeEvent::Assigned { job, by: a, to: b, reschedule: true },
                ProbeEvent::RetryScheduled { job, initiator: a, round: 2 },
                ProbeEvent::JobAbandoned { job, initiator: a },
                ProbeEvent::Enqueued { job, node: b, depth: 5 },
                ProbeEvent::Started { job, node: b },
                ProbeEvent::Completed { job, node: b },
                ProbeEvent::InformRound { job, node: b, flood: 6, cost_ms: 40_000 },
                ProbeEvent::NodeJoined { node: NodeId::new(31) },
                ProbeEvent::NodeCrashed { node: b, lost_jobs: 2 },
                ProbeEvent::RecoveryStarted { job, initiator: a },
                ProbeEvent::JobLost { job: JobId::new(9) },
                ProbeEvent::MessageDropped { kind: MsgKind::Accept, job, to: b },
                ProbeEvent::AssignRetransmit { job, to: b, attempt: 1 },
                ProbeEvent::AckReceived { job, from: b },
                ProbeEvent::DuplicateSuppressed { kind: MsgKind::Ack, job, node: b },
                ProbeEvent::PartitionStarted { window: 0 },
                ProbeEvent::PartitionHealed { window: 0 },
                ProbeEvent::PeerSuspected { peer: b, by: a },
                ProbeEvent::PeerDead { peer: b, by: a },
                ProbeEvent::PeerRejoined { peer: b, by: a },
                ProbeEvent::Gauge {
                    idle: 29,
                    queued: u64::from(u32::MAX) + 1,
                    pending_events: 7,
                    peak_events: 40,
                },
            ],
        )
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn every_kind_roundtrips_byte_for_byte() {
        let trace = every_kind();
        let kinds: Vec<&str> = trace.entries.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, KINDS, "the sample must cover every kind of the table, in order");
        assert_eq!(KINDS.len(), 26);
        let text = to_jsonl(&trace);
        assert_eq!(from_jsonl(&text).expect("parse"), trace);
        // Pinned from the hand-written per-kind writer the table replaced.
        assert_eq!((text.len(), fnv1a(text.as_bytes())), (2081, 0x70e7_d1d5_c3d7_6215));
    }

    /// Round-trips the sample's events of the given kinds on their own.
    fn kinds_roundtrip(kinds: &[&str]) {
        let mut trace = every_kind();
        trace.entries.retain(|e| kinds.contains(&e.event.kind()));
        let kept: Vec<&str> = trace.entries.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kept, kinds);
        assert_eq!(from_jsonl(&to_jsonl(&trace)).expect("parse"), trace);
    }

    #[test]
    fn v2_fault_kinds_roundtrip() {
        kinds_roundtrip(&[
            "assign-retransmit",
            "ack-received",
            "duplicate-suppressed",
            "partition-started",
            "partition-healed",
        ]);
    }

    #[test]
    fn v4_membership_kinds_roundtrip() {
        kinds_roundtrip(&["peer-suspected", "peer-dead", "peer-rejoined"]);
    }

    #[test]
    fn kinds_newer_than_the_header_are_rejected() {
        // A v3 stamp on a trace holding v4 kinds is refused at the
        // header, before any of its events is read.
        let text = to_jsonl(&every_kind()).replacen("\"version\":4", "\"version\":3", 1);
        let e = from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.message.contains("unsupported schema version 3"), "{e}");
    }

    #[test]
    fn header_is_first_line_and_versioned() {
        let text = to_jsonl(&sample_trace());
        let header = text.lines().next().unwrap();
        assert!(header.starts_with("{\"schema\":\"aria-probe-trace\",\"version\":4,"));
        assert!(header.contains("\"scenario\":\"iMixed\""));
        assert!(header.contains("\"events\":6"));
    }

    #[test]
    fn gauge_values_above_u32_survive() {
        // Gauges beyond u32::MAX round-trip exactly instead of
        // truncating (the 100k-node regime).
        let big = u64::from(u32::MAX) + 17;
        let trace = trace_of(
            "scale",
            vec![ProbeEvent::Gauge {
                idle: 100_000,
                queued: big,
                pending_events: big + 1,
                peak_events: big + 2,
            }],
        );
        let back = from_jsonl(&to_jsonl(&trace)).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn streaming_lines_match_to_jsonl() {
        // The live runtime writes header_line + entry_line incrementally;
        // the result must be byte-identical to a one-shot to_jsonl dump.
        let trace = every_kind();
        let mut streamed = header_line(&trace.meta, trace.entries.len() as u64, trace.dropped);
        streamed.push('\n');
        for entry in &trace.entries {
            streamed.push_str(&entry_line(entry));
            streamed.push('\n');
        }
        assert_eq!(streamed, to_jsonl(&trace));
    }

    #[test]
    fn negative_costs_survive() {
        let trace = sample_trace();
        let back = from_jsonl(&to_jsonl(&trace)).unwrap();
        match back.entries[3].event {
            ProbeEvent::BidSent { cost_ms, .. } => assert_eq!(cost_ms, -12_000),
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // Only the current version is read: the previous and the next
        // stamp are refused at the header like nonsense ones, whatever
        // kinds follow.
        for version in [0, 3, 5, 99] {
            let text = to_jsonl(&sample_trace())
                .replace("\"version\":4", &format!("\"version\":{version}"));
            let e = from_jsonl(&text).unwrap_err();
            assert_eq!(e.line, 1, "{e}");
            assert!(e.message.contains(&format!("unsupported schema version {version}")), "{e}");
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let text = to_jsonl(&sample_trace()).replace("\"kind\":\"gauge\"", "\"kind\":\"mystery\"");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("unknown event kind"), "{e}");
    }

    #[test]
    fn missing_field_is_rejected_with_line_number() {
        let text =
            to_jsonl(&sample_trace()).replace(",\"initiator\":0,\"round\":0", ",\"round\":0");
        let e = from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("missing field \"initiator\""), "{e}");
    }

    #[test]
    fn duplicate_keys_are_rejected_with_line_number() {
        let text = to_jsonl(&sample_trace()).replace("{\"seq\":0,", "{\"seq\":0,\"seq\":5,");
        let e = from_jsonl(&text).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "duplicate key \"seq\""));
        let text = to_jsonl(&sample_trace()).replace("\"seed\":11", "\"seed\":11,\"seed\":12");
        assert_eq!(from_jsonl(&text).unwrap_err().line, 1);
    }

    #[test]
    fn mistyped_fields_are_rejected() {
        for (from, to, expected) in [
            (r#""hops_left":8"#, r#""hops_left":4294967296"#, "an integer in u32 range"),
            (
                r#""job":3,"initiator":0,"round""#,
                r#""job":-3,"initiator":0,"round""#,
                "an integer >= 0",
            ),
            (r#""duplicate":false"#, r#""duplicate":0"#, "a boolean"),
            (
                r#""flood_kind":"request","job":3,"flood""#,
                r#""flood_kind":"gossip","job":3,"flood""#,
                "a known name",
            ),
        ] {
            let text = to_jsonl(&sample_trace()).replacen(from, to, 1);
            let key = from.split('"').nth(1).unwrap();
            let e = from_jsonl(&text).unwrap_err();
            assert_eq!(e.message, format!("field \"{key}\" must be {expected}"));
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let text = to_jsonl(&sample_trace())
            .replace("\"kind\":\"gauge\"", "\"kind\":\"gauge\",\"future_field\":\"ok\"");
        assert!(from_jsonl(&text).is_ok());
    }

    #[test]
    fn floats_are_rejected() {
        let text = to_jsonl(&sample_trace()).replace("\"idle\":29", "\"idle\":29.5");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("float"), "{e}");
    }

    #[test]
    fn non_monotonic_seq_is_rejected() {
        let mut trace = sample_trace();
        trace.entries[3].seq = 1;
        let e = validate(&trace).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("strictly increasing"), "{e}");
    }

    #[test]
    fn event_count_mismatch_is_rejected() {
        let mut text = to_jsonl(&sample_trace());
        text.push('\n');
        let text = text.replace("\"events\":6", "\"events\":7");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("declares 7 events"), "{e}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut trace = sample_trace();
        trace.meta.scenario = "odd \"name\"\twith\\stuff\u{1} — ünïcode".to_string();
        let back = from_jsonl(&to_jsonl(&trace)).unwrap();
        assert_eq!(back.meta.scenario, trace.meta.scenario);
        let text = to_jsonl(&trace).replace("\\u0001", "\\u+001");
        assert!(from_jsonl(&text).unwrap_err().message.contains("bad \\u escape"));
    }
}
