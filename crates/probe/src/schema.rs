//! The versioned JSONL trace schema: export, parsing, validation.
//!
//! A trace file is line-oriented JSON:
//!
//! * line 1 — the header object:
//!   `{"schema":"aria-probe-trace","version":1,"scenario":…,"seed":…,
//!   "nodes":…,"jobs":…,"events":…,"dropped":…}`
//! * every following line — one event object:
//!   `{"seq":…,"t_ms":…,"kind":"…", <kind-specific integer/bool/string
//!   fields>}`
//!
//! ## Version policy
//!
//! [`SCHEMA_VERSION`] is bumped on any breaking change (field renamed or
//! removed, meaning changed, kind renamed) and on additive changes that
//! old readers would reject — readers ignore unknown *fields* but reject
//! unknown *kinds*, so a new kind bumps the version too. Writers always
//! stamp the current version; readers accept the current version and
//! every earlier one (older traces only use older kinds), and reject
//! newer versions rather than guessing.
//!
//! Version history:
//!
//! * **v1** — the original 18-kind catalog.
//! * **v2** — adds the fault-layer kinds `assign-retransmit`,
//!   `ack-received`, `duplicate-suppressed`, `partition-started`,
//!   `partition-healed` and the `ack` message kind. v1 traces still
//!   validate.
//! * **v3** — widens the four `gauge` fields from u32 to u64 (the wire
//!   form is unchanged — JSON integers — but v3 writers may emit values
//!   above `u32::MAX` at 100k+ node scales). v1/v2 traces still
//!   validate.
//! * **v4** — adds the live-membership kinds `peer-suspected`,
//!   `peer-dead` and `peer-rejoined` emitted by the `NodeDriver`
//!   failure detector. v1/v2/v3 traces still validate.
//!
//! The schema is deliberately integer/bool/string-only (sim-time in
//! milliseconds, costs in scheduler-cost milliseconds) so traces diff
//! bit-for-bit and no float formatting ambiguity exists.
//!
//! The dependency-free writer/parser pair below exists because the
//! workspace builds offline: the vendored `serde` is a no-op derive
//! stub, so JSON is emitted and consumed by hand.

use crate::event::{FloodKind, MsgKind, ProbeEvent};
use crate::record::{Trace, TraceEntry, TraceMeta};
use aria_grid::JobId;
use aria_overlay::NodeId;
use aria_sim::SimTime;
use std::fmt;

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

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_u64(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_i64(out: &mut String, key: &str, value: i64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_bool(out: &mut String, key: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

fn push_str(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    push_escaped(out, value);
}

fn push_job(out: &mut String, key: &str, job: JobId) {
    push_u64(out, key, job.raw());
}

fn push_node(out: &mut String, key: &str, node: NodeId) {
    push_u64(out, key, u64::from(node.raw()));
}

/// Appends the header line (without trailing newline) for `trace`.
fn write_header(out: &mut String, trace: &Trace) {
    out.push_str(&header_line(&trace.meta, trace.entries.len() as u64, trace.dropped));
}

/// One header line (no trailing newline) for a trace with the given meta
/// and counts.
///
/// This is the streaming form used by the live runtime: event lines are
/// appended to a `.part` file as they happen, and the header — whose
/// event count is only known at shutdown — is prepended when the trace
/// is finalized.
pub fn header_line(meta: &TraceMeta, events: u64, dropped: u64) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"schema\":");
    push_escaped(&mut out, SCHEMA_NAME);
    push_u64(&mut out, "version", SCHEMA_VERSION);
    push_str(&mut out, "scenario", &meta.scenario);
    push_u64(&mut out, "seed", meta.seed);
    push_u64(&mut out, "nodes", meta.nodes);
    push_u64(&mut out, "jobs", meta.jobs);
    push_u64(&mut out, "events", events);
    push_u64(&mut out, "dropped", dropped);
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
    out.push_str(&entry.seq.to_string());
    push_u64(out, "t_ms", entry.at.as_millis());
    push_str(out, "kind", entry.event.kind());
    match entry.event {
        ProbeEvent::JobSubmitted { job, initiator } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
        }
        ProbeEvent::RequestRound { job, initiator, round, flood, seeds } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
            push_u64(out, "round", u64::from(round));
            push_u64(out, "flood", u64::from(flood));
            push_u64(out, "seeds", u64::from(seeds));
        }
        ProbeEvent::FloodHop { kind, job, flood, node, hops_left, duplicate } => {
            push_str(out, "flood_kind", kind.name());
            push_job(out, "job", job);
            push_u64(out, "flood", u64::from(flood));
            push_node(out, "node", node);
            push_u64(out, "hops_left", u64::from(hops_left));
            push_bool(out, "duplicate", duplicate);
        }
        ProbeEvent::BidSent { kind, job, from, to, cost_ms } => {
            push_str(out, "flood_kind", kind.name());
            push_job(out, "job", job);
            push_node(out, "from", from);
            push_node(out, "to", to);
            push_i64(out, "cost_ms", cost_ms);
        }
        ProbeEvent::OfferReceived { job, initiator, from, cost_ms, best } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
            push_node(out, "from", from);
            push_i64(out, "cost_ms", cost_ms);
            push_bool(out, "best", best);
        }
        ProbeEvent::Assigned { job, by, to, reschedule } => {
            push_job(out, "job", job);
            push_node(out, "by", by);
            push_node(out, "to", to);
            push_bool(out, "reschedule", reschedule);
        }
        ProbeEvent::RetryScheduled { job, initiator, round } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
            push_u64(out, "round", u64::from(round));
        }
        ProbeEvent::JobAbandoned { job, initiator } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
        }
        ProbeEvent::Enqueued { job, node, depth } => {
            push_job(out, "job", job);
            push_node(out, "node", node);
            push_u64(out, "depth", u64::from(depth));
        }
        ProbeEvent::Started { job, node } | ProbeEvent::Completed { job, node } => {
            push_job(out, "job", job);
            push_node(out, "node", node);
        }
        ProbeEvent::InformRound { job, node, flood, cost_ms } => {
            push_job(out, "job", job);
            push_node(out, "node", node);
            push_u64(out, "flood", u64::from(flood));
            push_i64(out, "cost_ms", cost_ms);
        }
        ProbeEvent::NodeJoined { node } => {
            push_node(out, "node", node);
        }
        ProbeEvent::NodeCrashed { node, lost_jobs } => {
            push_node(out, "node", node);
            push_u64(out, "lost_jobs", u64::from(lost_jobs));
        }
        ProbeEvent::RecoveryStarted { job, initiator } => {
            push_job(out, "job", job);
            push_node(out, "initiator", initiator);
        }
        ProbeEvent::JobLost { job } => {
            push_job(out, "job", job);
        }
        ProbeEvent::MessageDropped { kind, job, to } => {
            push_str(out, "msg_kind", kind.name());
            push_job(out, "job", job);
            push_node(out, "to", to);
        }
        ProbeEvent::AssignRetransmit { job, to, attempt } => {
            push_job(out, "job", job);
            push_node(out, "to", to);
            push_u64(out, "attempt", u64::from(attempt));
        }
        ProbeEvent::AckReceived { job, from } => {
            push_job(out, "job", job);
            push_node(out, "from", from);
        }
        ProbeEvent::DuplicateSuppressed { kind, job, node } => {
            push_str(out, "msg_kind", kind.name());
            push_job(out, "job", job);
            push_node(out, "node", node);
        }
        ProbeEvent::PartitionStarted { window } | ProbeEvent::PartitionHealed { window } => {
            push_u64(out, "window", u64::from(window));
        }
        ProbeEvent::PeerSuspected { peer, by }
        | ProbeEvent::PeerDead { peer, by }
        | ProbeEvent::PeerRejoined { peer, by } => {
            push_node(out, "peer", peer);
            push_node(out, "by", by);
        }
        ProbeEvent::Gauge { idle, queued, pending_events, peak_events } => {
            push_u64(out, "idle", idle);
            push_u64(out, "queued", queued);
            push_u64(out, "pending_events", pending_events);
            push_u64(out, "peak_events", peak_events);
        }
    }
    out.push('}');
}

/// Serializes a trace to JSONL (one header line, one line per entry,
/// trailing newline).
pub fn to_jsonl(trace: &Trace) -> String {
    // ~96 bytes per line is a comfortable overestimate; avoids rehashing
    // growth for big traces.
    let mut out = String::with_capacity(96 * (trace.entries.len() + 1));
    write_header(&mut out, trace);
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

/// A parsed JSON scalar. The schema is integer/bool/string-only by
/// design; floats are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JsonValue {
    Int(i64),
    Bool(bool),
    Str(String),
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            other => Err(err(
                self.line,
                format!(
                    "expected '{}', found {}",
                    byte as char,
                    other.map_or("end of line".to_string(), |b| format!("'{}'", b as char))
                ),
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(err(self.line, "unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| err(self.line, "bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        s.push(
                            char::from_u32(code)
                                .ok_or_else(|| err(self.line, "bad \\u code point"))?,
                        );
                    }
                    _ => return Err(err(self.line, "unsupported string escape")),
                },
                Some(b) if b < 0x20 => return Err(err(self.line, "raw control byte in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-wise.
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(err(self.line, "invalid UTF-8 in string")),
                        };
                        let end = start + width;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .and_then(|c| std::str::from_utf8(c).ok())
                            .ok_or_else(|| err(self.line, "invalid UTF-8 in string"))?;
                        s.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, SchemaError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => {
                let word: &[u8] = if self.peek() == Some(b't') { b"true" } else { b"false" };
                if self.bytes[self.pos..].starts_with(word) {
                    self.pos += word.len();
                    Ok(JsonValue::Bool(word == b"true"))
                } else {
                    Err(err(self.line, "malformed boolean"))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
                    return Err(err(self.line, "float values are not part of the schema"));
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
                text.parse::<i64>()
                    .map(JsonValue::Int)
                    .map_err(|_| err(self.line, format!("integer out of range: {text}")))
            }
            _ => Err(err(self.line, "expected a string, integer or boolean value")),
        }
    }
}

/// Parses one flat JSON object line into its (key, value) pairs in file
/// order. Nested objects/arrays are rejected — the schema is flat.
fn parse_flat_object(line: &str, lineno: usize) -> Result<Vec<(String, JsonValue)>, SchemaError> {
    let mut cur = Cursor { bytes: line.as_bytes(), pos: 0, line: lineno };
    cur.expect(b'{')?;
    let mut fields = Vec::new();
    cur.skip_ws();
    if cur.peek() == Some(b'}') {
        cur.bump();
        return Ok(fields);
    }
    loop {
        cur.skip_ws();
        let key = cur.parse_string()?;
        cur.expect(b':')?;
        let value = cur.parse_value()?;
        fields.push((key, value));
        cur.skip_ws();
        match cur.bump() {
            Some(b',') => continue,
            Some(b'}') => break,
            _ => return Err(err(lineno, "expected ',' or '}'")),
        }
    }
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err(err(lineno, "trailing bytes after object"));
    }
    Ok(fields)
}

struct Fields {
    line: usize,
    pairs: Vec<(String, JsonValue)>,
}

impl Fields {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn int(&self, key: &str) -> Result<i64, SchemaError> {
        match self.get(key) {
            Some(JsonValue::Int(v)) => Ok(*v),
            Some(_) => Err(err(self.line, format!("field \"{key}\" must be an integer"))),
            None => Err(err(self.line, format!("missing field \"{key}\""))),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, SchemaError> {
        let v = self.int(key)?;
        u64::try_from(v).map_err(|_| err(self.line, format!("field \"{key}\" must be >= 0")))
    }

    fn u32(&self, key: &str) -> Result<u32, SchemaError> {
        let v = self.int(key)?;
        u32::try_from(v).map_err(|_| err(self.line, format!("field \"{key}\" out of u32 range")))
    }

    fn boolean(&self, key: &str) -> Result<bool, SchemaError> {
        match self.get(key) {
            Some(JsonValue::Bool(v)) => Ok(*v),
            Some(_) => Err(err(self.line, format!("field \"{key}\" must be a boolean"))),
            None => Err(err(self.line, format!("missing field \"{key}\""))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, SchemaError> {
        match self.get(key) {
            Some(JsonValue::Str(v)) => Ok(v),
            Some(_) => Err(err(self.line, format!("field \"{key}\" must be a string"))),
            None => Err(err(self.line, format!("missing field \"{key}\""))),
        }
    }

    fn job(&self, key: &str) -> Result<JobId, SchemaError> {
        Ok(JobId::new(self.u64(key)?))
    }

    fn node(&self, key: &str) -> Result<NodeId, SchemaError> {
        Ok(NodeId::new(self.u32(key)?))
    }

    fn flood_kind(&self) -> Result<FloodKind, SchemaError> {
        match self.str("flood_kind")? {
            "request" => Ok(FloodKind::Request),
            "inform" => Ok(FloodKind::Inform),
            other => Err(err(self.line, format!("unknown flood_kind \"{other}\""))),
        }
    }

    fn msg_kind(&self) -> Result<MsgKind, SchemaError> {
        match self.str("msg_kind")? {
            "request" => Ok(MsgKind::Request),
            "accept" => Ok(MsgKind::Accept),
            "inform" => Ok(MsgKind::Inform),
            "assign" => Ok(MsgKind::Assign),
            "ack" => Ok(MsgKind::Ack),
            other => Err(err(self.line, format!("unknown msg_kind \"{other}\""))),
        }
    }
}

fn event_from_fields(f: &Fields) -> Result<ProbeEvent, SchemaError> {
    let kind = f.str("kind")?;
    Ok(match kind {
        "job-submitted" => {
            ProbeEvent::JobSubmitted { job: f.job("job")?, initiator: f.node("initiator")? }
        }
        "request-round" => ProbeEvent::RequestRound {
            job: f.job("job")?,
            initiator: f.node("initiator")?,
            round: f.u32("round")?,
            flood: f.u32("flood")?,
            seeds: f.u32("seeds")?,
        },
        "flood-hop" => ProbeEvent::FloodHop {
            kind: f.flood_kind()?,
            job: f.job("job")?,
            flood: f.u32("flood")?,
            node: f.node("node")?,
            hops_left: f.u32("hops_left")?,
            duplicate: f.boolean("duplicate")?,
        },
        "bid-sent" => ProbeEvent::BidSent {
            kind: f.flood_kind()?,
            job: f.job("job")?,
            from: f.node("from")?,
            to: f.node("to")?,
            cost_ms: f.int("cost_ms")?,
        },
        "offer-received" => ProbeEvent::OfferReceived {
            job: f.job("job")?,
            initiator: f.node("initiator")?,
            from: f.node("from")?,
            cost_ms: f.int("cost_ms")?,
            best: f.boolean("best")?,
        },
        "assigned" => ProbeEvent::Assigned {
            job: f.job("job")?,
            by: f.node("by")?,
            to: f.node("to")?,
            reschedule: f.boolean("reschedule")?,
        },
        "retry-scheduled" => ProbeEvent::RetryScheduled {
            job: f.job("job")?,
            initiator: f.node("initiator")?,
            round: f.u32("round")?,
        },
        "job-abandoned" => {
            ProbeEvent::JobAbandoned { job: f.job("job")?, initiator: f.node("initiator")? }
        }
        "enqueued" => ProbeEvent::Enqueued {
            job: f.job("job")?,
            node: f.node("node")?,
            depth: f.u32("depth")?,
        },
        "started" => ProbeEvent::Started { job: f.job("job")?, node: f.node("node")? },
        "completed" => ProbeEvent::Completed { job: f.job("job")?, node: f.node("node")? },
        "inform-round" => ProbeEvent::InformRound {
            job: f.job("job")?,
            node: f.node("node")?,
            flood: f.u32("flood")?,
            cost_ms: f.int("cost_ms")?,
        },
        "node-joined" => ProbeEvent::NodeJoined { node: f.node("node")? },
        "node-crashed" => {
            ProbeEvent::NodeCrashed { node: f.node("node")?, lost_jobs: f.u32("lost_jobs")? }
        }
        "recovery-started" => {
            ProbeEvent::RecoveryStarted { job: f.job("job")?, initiator: f.node("initiator")? }
        }
        "job-lost" => ProbeEvent::JobLost { job: f.job("job")? },
        "message-dropped" => ProbeEvent::MessageDropped {
            kind: f.msg_kind()?,
            job: f.job("job")?,
            to: f.node("to")?,
        },
        "assign-retransmit" => ProbeEvent::AssignRetransmit {
            job: f.job("job")?,
            to: f.node("to")?,
            attempt: f.u32("attempt")?,
        },
        "ack-received" => ProbeEvent::AckReceived { job: f.job("job")?, from: f.node("from")? },
        "duplicate-suppressed" => ProbeEvent::DuplicateSuppressed {
            kind: f.msg_kind()?,
            job: f.job("job")?,
            node: f.node("node")?,
        },
        "partition-started" => ProbeEvent::PartitionStarted { window: f.u32("window")? },
        "partition-healed" => ProbeEvent::PartitionHealed { window: f.u32("window")? },
        "peer-suspected" => {
            ProbeEvent::PeerSuspected { peer: f.node("peer")?, by: f.node("by")? }
        }
        "peer-dead" => ProbeEvent::PeerDead { peer: f.node("peer")?, by: f.node("by")? },
        "peer-rejoined" => ProbeEvent::PeerRejoined { peer: f.node("peer")?, by: f.node("by")? },
        "gauge" => ProbeEvent::Gauge {
            idle: f.u64("idle")?,
            queued: f.u64("queued")?,
            pending_events: f.u64("pending_events")?,
            peak_events: f.u64("peak_events")?,
        },
        other => return Err(err(f.line, format!("unknown event kind \"{other}\""))),
    })
}

/// Structural validation shared by the parser and in-memory producers:
/// strictly increasing `seq`, non-decreasing sim-time.
pub fn validate(trace: &Trace) -> Result<(), SchemaError> {
    let mut prev: Option<&TraceEntry> = None;
    for (i, entry) in trace.entries.iter().enumerate() {
        if let Some(p) = prev {
            if entry.seq <= p.seq {
                return Err(err(
                    i + 2, // 1-based, after the header line
                    format!("seq must be strictly increasing ({} after {})", entry.seq, p.seq),
                ));
            }
            if entry.at < p.at {
                return Err(err(
                    i + 2,
                    format!("sim-time went backwards ({} after {})", entry.at, p.at),
                ));
            }
        }
        prev = Some(entry);
    }
    Ok(())
}

/// Parses and validates a JSONL trace produced by [`to_jsonl`].
///
/// Unknown *fields* are ignored (additive schema evolution); unknown
/// *kinds* and version mismatches are errors.
pub fn from_jsonl(text: &str) -> Result<Trace, SchemaError> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (header_idx, header_line) =
        lines.next().ok_or_else(|| err(0, "empty trace: missing header line"))?;
    let header =
        Fields { line: header_idx + 1, pairs: parse_flat_object(header_line, header_idx + 1)? };
    let schema = header.str("schema")?;
    if schema != SCHEMA_NAME {
        return Err(err(header_idx + 1, format!("unknown schema \"{schema}\"")));
    }
    let version = header.u64("version")?;
    if !(1..=SCHEMA_VERSION).contains(&version) {
        return Err(err(
            header_idx + 1,
            format!("unsupported schema version {version} (reader supports 1..={SCHEMA_VERSION})"),
        ));
    }
    let meta = TraceMeta {
        scenario: header.str("scenario")?.to_string(),
        seed: header.u64("seed")?,
        nodes: header.u64("nodes")?,
        jobs: header.u64("jobs")?,
    };
    let declared_events = header.u64("events")?;
    let dropped = header.u64("dropped")?;

    let mut entries = Vec::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let f = Fields { line: lineno, pairs: parse_flat_object(line, lineno)? };
        entries.push(TraceEntry {
            seq: f.u64("seq")?,
            at: SimTime::from_millis(f.u64("t_ms")?),
            event: event_from_fields(&f)?,
        });
    }
    if entries.len() as u64 != declared_events {
        return Err(err(
            0,
            format!("header declares {declared_events} events, file has {}", entries.len()),
        ));
    }
    let trace = Trace { meta, dropped, entries };
    validate(&trace)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FloodKind;

    fn sample_trace() -> Trace {
        let job = JobId::new(3);
        let n0 = NodeId::new(0);
        let n5 = NodeId::new(5);
        let entries = vec![
            TraceEntry {
                seq: 0,
                at: SimTime::from_secs(60),
                event: ProbeEvent::JobSubmitted { job, initiator: n0 },
            },
            TraceEntry {
                seq: 1,
                at: SimTime::from_secs(60),
                event: ProbeEvent::RequestRound { job, initiator: n0, round: 0, flood: 0, seeds: 4 },
            },
            TraceEntry {
                seq: 2,
                at: SimTime::from_millis(60_040),
                event: ProbeEvent::FloodHop {
                    kind: FloodKind::Request,
                    job,
                    flood: 0,
                    node: n5,
                    hops_left: 8,
                    duplicate: false,
                },
            },
            TraceEntry {
                seq: 3,
                at: SimTime::from_millis(60_080),
                event: ProbeEvent::BidSent {
                    kind: FloodKind::Request,
                    job,
                    from: n5,
                    to: n0,
                    cost_ms: -12_000,
                },
            },
            TraceEntry {
                seq: 4,
                at: SimTime::from_secs(90),
                event: ProbeEvent::Assigned { job, by: n0, to: n5, reschedule: false },
            },
            TraceEntry {
                seq: 5,
                at: SimTime::from_secs(91),
                event: ProbeEvent::Gauge { idle: 29, queued: 1, pending_events: 7, peak_events: 40 },
            },
        ];
        Trace {
            meta: TraceMeta { scenario: "iMixed".to_string(), seed: 11, nodes: 30, jobs: 15 },
            dropped: 0,
            entries,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, trace);
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
    fn v1_traces_still_validate() {
        // The sample trace only uses v1 kinds; a v1-stamped file of it
        // must keep parsing under the v4 reader.
        let text = to_jsonl(&sample_trace()).replace("\"version\":4", "\"version\":1");
        let back = from_jsonl(&text).expect("v1 trace rejected");
        assert_eq!(back, sample_trace());
    }

    #[test]
    fn v2_traces_still_validate() {
        // v3/v4 were additive; a v2-stamped trace (gauge values all
        // within u32, no membership kinds) must keep parsing under the
        // v4 reader.
        let text = to_jsonl(&sample_trace()).replace("\"version\":4", "\"version\":2");
        let back = from_jsonl(&text).expect("v2 trace rejected");
        assert_eq!(back, sample_trace());
    }

    #[test]
    fn v3_traces_still_validate() {
        // v4 only added membership kinds; a v3-stamped trace without
        // them must keep parsing under the v4 reader.
        let text = to_jsonl(&sample_trace()).replace("\"version\":4", "\"version\":3");
        let back = from_jsonl(&text).expect("v3 trace rejected");
        assert_eq!(back, sample_trace());
    }

    #[test]
    fn gauge_values_above_u32_survive() {
        // The v3 widening: gauges beyond u32::MAX round-trip exactly
        // instead of truncating (the 100k-node regime).
        let big = u64::from(u32::MAX) + 17;
        let entries = vec![TraceEntry {
            seq: 0,
            at: SimTime::from_secs(1),
            event: ProbeEvent::Gauge {
                idle: 100_000,
                queued: big,
                pending_events: big + 1,
                peak_events: big + 2,
            },
        }];
        let trace = Trace {
            meta: TraceMeta { scenario: "scale".to_string(), seed: 1, nodes: 100_000, jobs: 0 },
            dropped: 0,
            entries,
        };
        let back = from_jsonl(&to_jsonl(&trace)).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn v2_fault_kinds_roundtrip() {
        let job = JobId::new(3);
        let entries = vec![
            TraceEntry {
                seq: 0,
                at: SimTime::from_secs(10),
                event: ProbeEvent::PartitionStarted { window: 0 },
            },
            TraceEntry {
                seq: 1,
                at: SimTime::from_secs(11),
                event: ProbeEvent::MessageDropped { kind: MsgKind::Ack, job, to: NodeId::new(4) },
            },
            TraceEntry {
                seq: 2,
                at: SimTime::from_secs(12),
                event: ProbeEvent::AssignRetransmit { job, to: NodeId::new(4), attempt: 1 },
            },
            TraceEntry {
                seq: 3,
                at: SimTime::from_secs(13),
                event: ProbeEvent::DuplicateSuppressed {
                    kind: MsgKind::Assign,
                    job,
                    node: NodeId::new(4),
                },
            },
            TraceEntry {
                seq: 4,
                at: SimTime::from_secs(14),
                event: ProbeEvent::AckReceived { job, from: NodeId::new(4) },
            },
            TraceEntry {
                seq: 5,
                at: SimTime::from_secs(15),
                event: ProbeEvent::PartitionHealed { window: 0 },
            },
        ];
        let trace = Trace {
            meta: TraceMeta { scenario: "chaos".to_string(), seed: 7, nodes: 10, jobs: 1 },
            dropped: 0,
            entries,
        };
        let back = from_jsonl(&to_jsonl(&trace)).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn v4_membership_kinds_roundtrip() {
        let peer = NodeId::new(3);
        let by = NodeId::new(1);
        let entries = vec![
            TraceEntry {
                seq: 0,
                at: SimTime::from_secs(5),
                event: ProbeEvent::PeerSuspected { peer, by },
            },
            TraceEntry {
                seq: 1,
                at: SimTime::from_secs(9),
                event: ProbeEvent::PeerDead { peer, by },
            },
            TraceEntry {
                seq: 2,
                at: SimTime::from_secs(30),
                event: ProbeEvent::PeerRejoined { peer, by },
            },
        ];
        let trace = Trace {
            meta: TraceMeta { scenario: "churn".to_string(), seed: 7, nodes: 5, jobs: 0 },
            dropped: 0,
            entries,
        };
        let back = from_jsonl(&to_jsonl(&trace)).expect("parse");
        assert_eq!(back, trace);
    }

    #[test]
    fn streaming_lines_match_to_jsonl() {
        // The live runtime writes header_line + entry_line incrementally;
        // the result must be byte-identical to a one-shot to_jsonl dump.
        let trace = sample_trace();
        let mut streamed =
            header_line(&trace.meta, trace.entries.len() as u64, trace.dropped);
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
        // Future versions are rejected (the reader will not guess)...
        let text = to_jsonl(&sample_trace()).replace("\"version\":4", "\"version\":99");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("unsupported schema version"), "{e}");
        // ...and so is the nonsense version 0.
        let text = to_jsonl(&sample_trace()).replace("\"version\":4", "\"version\":0");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("unsupported schema version"), "{e}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let text = to_jsonl(&sample_trace()).replace("\"kind\":\"gauge\"", "\"kind\":\"mystery\"");
        let e = from_jsonl(&text).unwrap_err();
        assert!(e.message.contains("unknown event kind"), "{e}");
    }

    #[test]
    fn missing_field_is_rejected_with_line_number() {
        let text = to_jsonl(&sample_trace()).replace(",\"initiator\":0,\"round\":0", ",\"round\":0");
        let e = from_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("missing field \"initiator\""), "{e}");
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
        trace.meta.scenario = "odd \"name\"\twith\\stuff\u{1}".to_string();
        let back = from_jsonl(&to_jsonl(&trace)).unwrap();
        assert_eq!(back.meta.scenario, trace.meta.scenario);
    }
}
