//! # aria-codec — the ARiA live-node wire format
//!
//! A length-prefixed, versioned binary codec for [`LiveMsg`], the
//! self-contained messages exchanged by `aria-node` runtimes over UDP.
//! The simulator never touches this layer (its messages live in the
//! in-memory event queue); the codec sits exactly at the sans-io
//! boundary: [`encode`] turns a driver's `Send` output into a datagram,
//! [`decode`] turns a received datagram into a driver input.
//!
//! ## Frame layout
//!
//! ```text
//! [len: u32 LE] [version: u8] [kind: u8] [body…]
//! └── payload length (version byte onward), bounded by MAX_PAYLOAD ──┘
//! ```
//!
//! All integers are little-endian fixed width. Node ids are `u32`, job
//! ids `u64`, durations/instants unsigned milliseconds, costs signed
//! milliseconds. Enums travel as their index into the crate-published
//! `ALL` tables ([`aria_grid::Architecture::ALL`] and friends), so the
//! wire values are stable across enum reorderings that keep the table.
//!
//! ## Validation contract
//!
//! [`decode`] is **strict** and **total**: it never panics on arbitrary
//! bytes (fuzzed in the crate tests), rejects unknown versions and kinds,
//! rejects any frame whose body is shorter *or longer* than its message
//! (exact consumption — trailing bytes are an error, not padding), and
//! bounds every length field before allocating. A datagram either parses
//! to exactly one [`LiveMsg`] or yields a [`CodecError`].

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use aria_core::driver::{FloodUid, LiveMsg};
use aria_grid::{
    Architecture, Cost, JobId, JobPriority, JobRequirements, JobSpec, OperatingSystem,
};
use aria_overlay::NodeId;
use aria_sim::{SimDuration, SimTime};
use std::fmt;

/// Current wire-format version, first payload byte of every frame.
pub const VERSION: u8 = 1;

/// Upper bound on a frame's payload (version byte onward). Generous for
/// the largest legal message (an INFORM with a full visited list) while
/// keeping hostile length prefixes from driving allocations.
pub const MAX_PAYLOAD: usize = 16 * 1024;

/// Upper bound on the visited list a flood message may carry; mirrors
/// `NodeDriver::MAX_VISITED` with headroom so the codec never rejects a
/// frame the driver can produce.
pub const MAX_VISITED_WIRE: usize = 1024;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the frame does.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    /// The length prefix is too small to hold version and kind bytes.
    Undersized(usize),
    /// Unknown wire-format version.
    BadVersion(u8),
    /// Unknown message kind tag.
    BadKind(u8),
    /// An enum field carried an out-of-table index.
    BadEnum {
        /// Which field rejected the value.
        field: &'static str,
        /// The rejected wire value.
        value: u8,
    },
    /// A visited list claimed more entries than [`MAX_VISITED_WIRE`].
    VisitedTooLong(usize),
    /// The frame's body is longer than its message (strict decoding
    /// treats padding as corruption).
    TrailingBytes(usize),
    /// The buffer continues past the end of the frame (a datagram must
    /// hold exactly one frame).
    TrailingFrame(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte bound")
            }
            CodecError::Undersized(len) => {
                write!(f, "payload length {len} cannot hold a version and kind")
            }
            CodecError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::BadEnum { field, value } => {
                write!(f, "field {field} rejects wire value {value}")
            }
            CodecError::VisitedTooLong(n) => {
                write!(f, "visited list claims {n} entries, bound is {MAX_VISITED_WIRE}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} unconsumed byte(s) inside the frame"),
            CodecError::TrailingFrame(n) => write!(f, "{n} byte(s) after the frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Message kind tags (payload byte 1).
mod kind {
    pub const REQUEST: u8 = 1;
    pub const ACCEPT: u8 = 2;
    pub const INFORM: u8 = 3;
    pub const ASSIGN: u8 = 4;
    pub const ACK: u8 = 5;
    pub const JOIN: u8 = 6;
    pub const LEAVE: u8 = 7;
    pub const SUBMIT: u8 = 8;
    pub const DONE: u8 = 9;
    pub const SHUTDOWN: u8 = 10;
    pub const HEARTBEAT: u8 = 11;
    pub const HOLDING: u8 = 12;
}

// --- encoding ------------------------------------------------------------

/// Encodes one message as a complete frame (length prefix included),
/// in a single allocation of exactly the frame's size.
pub fn encode(msg: &LiveMsg) -> Vec<u8> {
    let len = frame_len(msg);
    let mut out = Vec::with_capacity(len);
    put_u32(&mut out, (len - 4) as u32);
    match msg {
        LiveMsg::Request { initiator, spec, hops_left, flood, visited } => {
            out.extend_from_slice(&[VERSION, kind::REQUEST]);
            put_node(&mut out, *initiator);
            put_spec(&mut out, spec);
            put_u32(&mut out, *hops_left);
            put_flood(&mut out, *flood);
            put_visited(&mut out, visited);
        }
        LiveMsg::Accept { from, job, cost } => {
            out.extend_from_slice(&[VERSION, kind::ACCEPT]);
            put_node(&mut out, *from);
            put_job(&mut out, *job);
            put_i64(&mut out, cost.as_millis());
        }
        LiveMsg::Inform { assignee, spec, cost, hops_left, flood, visited } => {
            out.extend_from_slice(&[VERSION, kind::INFORM]);
            put_node(&mut out, *assignee);
            put_spec(&mut out, spec);
            put_i64(&mut out, cost.as_millis());
            put_u32(&mut out, *hops_left);
            put_flood(&mut out, *flood);
            put_visited(&mut out, visited);
        }
        LiveMsg::Assign { initiator, spec } => {
            out.extend_from_slice(&[VERSION, kind::ASSIGN]);
            put_node(&mut out, *initiator);
            put_spec(&mut out, spec);
        }
        LiveMsg::Ack { from, job } => {
            out.extend_from_slice(&[VERSION, kind::ACK]);
            put_node(&mut out, *from);
            put_job(&mut out, *job);
        }
        LiveMsg::Join { node } => {
            out.extend_from_slice(&[VERSION, kind::JOIN]);
            put_node(&mut out, *node);
        }
        LiveMsg::Leave { node } => {
            out.extend_from_slice(&[VERSION, kind::LEAVE]);
            put_node(&mut out, *node);
        }
        LiveMsg::Submit { spec } => {
            out.extend_from_slice(&[VERSION, kind::SUBMIT]);
            put_spec(&mut out, spec);
        }
        LiveMsg::Done { job, node } => {
            out.extend_from_slice(&[VERSION, kind::DONE]);
            put_job(&mut out, *job);
            put_node(&mut out, *node);
        }
        LiveMsg::Shutdown => out.extend_from_slice(&[VERSION, kind::SHUTDOWN]),
        LiveMsg::Heartbeat { node } => {
            out.extend_from_slice(&[VERSION, kind::HEARTBEAT]);
            put_node(&mut out, *node);
        }
        LiveMsg::Holding { job, node } => {
            out.extend_from_slice(&[VERSION, kind::HOLDING]);
            put_job(&mut out, *job);
            put_node(&mut out, *node);
        }
    }
    debug_assert_eq!(out.len(), len, "frame_len disagrees with the encoder");
    debug_assert!(len - 4 <= MAX_PAYLOAD, "encoder produced an oversized frame");
    out
}

/// The exact encoded size of `msg`: length prefix, version and kind
/// bytes, then the body [`encode`] writes.
fn frame_len(msg: &LiveMsg) -> usize {
    const NODE: usize = 4;
    const JOB: usize = 8;
    const COST: usize = 8;
    const HOPS: usize = 4;
    const FLOOD: usize = 8;
    fn spec(spec: &JobSpec) -> usize {
        // id, arch, os, memory, disk, ert, deadline tag, priority: 24 B,
        // plus the deadline instant when there is one.
        let deadline = if spec.deadline.is_some() { 8 } else { 0 };
        JOB + 1 + 1 + 2 + 2 + 8 + 1 + 1 + deadline
    }
    fn visited(visited: &[NodeId]) -> usize {
        2 + NODE * visited.len()
    }
    let body = match msg {
        LiveMsg::Request { spec: s, visited: v, .. } => NODE + spec(s) + HOPS + FLOOD + visited(v),
        LiveMsg::Accept { .. } => NODE + JOB + COST,
        LiveMsg::Inform { spec: s, visited: v, .. } => {
            NODE + spec(s) + COST + HOPS + FLOOD + visited(v)
        }
        LiveMsg::Assign { spec: s, .. } => NODE + spec(s),
        LiveMsg::Ack { .. } | LiveMsg::Done { .. } | LiveMsg::Holding { .. } => NODE + JOB,
        LiveMsg::Join { .. } | LiveMsg::Leave { .. } | LiveMsg::Heartbeat { .. } => NODE,
        LiveMsg::Submit { spec: s } => spec(s),
        LiveMsg::Shutdown => 0,
    };
    4 + 2 + body
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_node(out: &mut Vec<u8>, node: NodeId) {
    put_u32(out, node.raw());
}

fn put_job(out: &mut Vec<u8>, job: JobId) {
    put_u64(out, job.raw());
}

fn put_flood(out: &mut Vec<u8>, flood: FloodUid) {
    put_node(out, flood.origin);
    put_u32(out, flood.seq);
}

fn put_visited(out: &mut Vec<u8>, visited: &[NodeId]) {
    debug_assert!(visited.len() <= MAX_VISITED_WIRE, "visited list over the wire bound");
    put_u16(out, visited.len() as u16);
    for &node in visited {
        put_node(out, node);
    }
}

fn enum_index<T: PartialEq + Copy>(table: &[T], value: T) -> u8 {
    table
        .iter()
        .position(|t| *t == value)
        .expect("value is in its own ALL table") as u8
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_job(out, spec.id);
    out.push(enum_index(&Architecture::ALL, spec.requirements.arch));
    out.push(enum_index(&OperatingSystem::ALL, spec.requirements.os));
    put_u16(out, spec.requirements.min_memory_gb);
    put_u16(out, spec.requirements.min_disk_gb);
    put_u64(out, spec.ert.as_millis());
    match spec.deadline {
        None => out.push(0),
        Some(at) => {
            out.push(1);
            put_u64(out, at.as_millis());
        }
    }
    out.push(spec.priority.0);
}

// --- decoding ------------------------------------------------------------

/// Decodes a buffer holding exactly one frame (as every `aria-node`
/// datagram does). Strict: unknown versions/kinds, short reads, bad enum
/// values and any unconsumed bytes are errors, never panics.
pub fn decode(buf: &[u8]) -> Result<LiveMsg, CodecError> {
    if buf.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(CodecError::Oversized(len));
    }
    if len < 2 {
        return Err(CodecError::Undersized(len));
    }
    let rest = &buf[4..];
    if rest.len() < len {
        return Err(CodecError::Truncated);
    }
    if rest.len() > len {
        return Err(CodecError::TrailingFrame(rest.len() - len));
    }
    let mut r = Reader { buf: &rest[..len] };
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        kind::REQUEST => LiveMsg::Request {
            initiator: r.node()?,
            spec: r.spec()?,
            hops_left: r.u32()?,
            flood: r.flood()?,
            visited: r.visited()?,
        },
        kind::ACCEPT => LiveMsg::Accept {
            from: r.node()?,
            job: r.job()?,
            cost: Cost::from_nal(r.i64()?),
        },
        kind::INFORM => LiveMsg::Inform {
            assignee: r.node()?,
            spec: r.spec()?,
            cost: Cost::from_nal(r.i64()?),
            hops_left: r.u32()?,
            flood: r.flood()?,
            visited: r.visited()?,
        },
        kind::ASSIGN => LiveMsg::Assign { initiator: r.node()?, spec: r.spec()? },
        kind::ACK => LiveMsg::Ack { from: r.node()?, job: r.job()? },
        kind::JOIN => LiveMsg::Join { node: r.node()? },
        kind::LEAVE => LiveMsg::Leave { node: r.node()? },
        kind::SUBMIT => LiveMsg::Submit { spec: r.spec()? },
        kind::DONE => LiveMsg::Done { job: r.job()?, node: r.node()? },
        kind::SHUTDOWN => LiveMsg::Shutdown,
        kind::HEARTBEAT => LiveMsg::Heartbeat { node: r.node()? },
        kind::HOLDING => LiveMsg::Holding { job: r.job()?, node: r.node()? },
        other => return Err(CodecError::BadKind(other)),
    };
    if !r.buf.is_empty() {
        return Err(CodecError::TrailingBytes(r.buf.len()));
    }
    Ok(msg)
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    fn node(&mut self) -> Result<NodeId, CodecError> {
        Ok(NodeId::new(self.u32()?))
    }

    fn job(&mut self) -> Result<JobId, CodecError> {
        Ok(JobId::new(self.u64()?))
    }

    fn flood(&mut self) -> Result<FloodUid, CodecError> {
        Ok(FloodUid { origin: self.node()?, seq: self.u32()? })
    }

    fn visited(&mut self) -> Result<Vec<NodeId>, CodecError> {
        let count = self.u16()? as usize;
        if count > MAX_VISITED_WIRE {
            return Err(CodecError::VisitedTooLong(count));
        }
        // The count is validated against the remaining bytes before any
        // allocation sized by it.
        if self.buf.len() < count * 4 {
            return Err(CodecError::Truncated);
        }
        // One slot of headroom: a node that forwards the flood appends
        // itself to this list, which would otherwise reallocate it.
        let mut visited = Vec::with_capacity(count + 1);
        for _ in 0..count {
            visited.push(self.node()?);
        }
        Ok(visited)
    }

    fn spec(&mut self) -> Result<JobSpec, CodecError> {
        let id = self.job()?;
        let arch_idx = self.u8()?;
        let arch = *Architecture::ALL
            .get(arch_idx as usize)
            .ok_or(CodecError::BadEnum { field: "architecture", value: arch_idx })?;
        let os_idx = self.u8()?;
        let os = *OperatingSystem::ALL
            .get(os_idx as usize)
            .ok_or(CodecError::BadEnum { field: "operating-system", value: os_idx })?;
        let min_memory_gb = self.u16()?;
        let min_disk_gb = self.u16()?;
        let ert = SimDuration::from_millis(self.u64()?);
        let deadline = match self.u8()? {
            0 => None,
            1 => Some(SimTime::from_millis(self.u64()?)),
            other => return Err(CodecError::BadEnum { field: "deadline-tag", value: other }),
        };
        let priority = JobPriority(self.u8()?);
        Ok(JobSpec {
            id,
            requirements: JobRequirements { arch, os, min_memory_gb, min_disk_gb },
            ert,
            deadline,
            priority,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::batch(
            JobId::new(7),
            JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 4, 10),
            SimDuration::from_secs(90),
        )
    }

    /// The golden byte-level encoding of a REQUEST frame. Any change to
    /// this layout is a wire-format break and must bump [`VERSION`].
    #[test]
    fn golden_request_encoding() {
        let msg = LiveMsg::Request {
            initiator: NodeId::new(3),
            spec: spec(),
            hops_left: 9,
            flood: FloodUid { origin: NodeId::new(3), seq: 2 },
            visited: vec![NodeId::new(3), NodeId::new(1)],
        };
        let bytes = encode(&msg);
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            52, 0, 0, 0,              // payload length = 52
            1,                        // version
            1,                        // kind = REQUEST
            3, 0, 0, 0,               // initiator n3
            7, 0, 0, 0, 0, 0, 0, 0,   // job id 7
            0,                        // arch = Amd64 (ALL[0])
            0,                        // os = Linux (ALL[0])
            4, 0,                     // min memory 4 GB
            10, 0,                    // min disk 10 GB
            0x90, 0x5F, 1, 0, 0, 0, 0, 0, // ert 90 000 ms
            0,                        // no deadline
            0,                        // default priority
            9, 0, 0, 0,               // hops_left
            3, 0, 0, 0,               // flood origin n3
            2, 0, 0, 0,               // flood seq 2
            2, 0,                     // visited count
            3, 0, 0, 0,               // visited[0] = n3
            1, 0, 0, 0,               // visited[1] = n1
        ];
        assert_eq!(bytes, expected);
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn golden_shutdown_is_the_minimal_frame() {
        let bytes = encode(&LiveMsg::Shutdown);
        assert_eq!(bytes, vec![2, 0, 0, 0, 1, 10]);
        assert_eq!(decode(&bytes).unwrap(), LiveMsg::Shutdown);
    }

    /// Membership frames are additive kinds under the same version:
    /// their byte layout is part of the wire contract too.
    #[test]
    fn golden_membership_frames() {
        let hb = encode(&LiveMsg::Heartbeat { node: NodeId::new(5) });
        assert_eq!(hb, vec![6, 0, 0, 0, 1, 11, 5, 0, 0, 0]);
        assert_eq!(decode(&hb).unwrap(), LiveMsg::Heartbeat { node: NodeId::new(5) });

        let holding = encode(&LiveMsg::Holding { job: JobId::new(9), node: NodeId::new(2) });
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            14, 0, 0, 0,             // payload length = 14
            1,                       // version
            12,                      // kind = HOLDING
            9, 0, 0, 0, 0, 0, 0, 0,  // job id 9
            2, 0, 0, 0,              // holder n2
        ];
        assert_eq!(holding, expected);
        assert_eq!(
            decode(&holding).unwrap(),
            LiveMsg::Holding { job: JobId::new(9), node: NodeId::new(2) }
        );
    }

    #[test]
    fn rejects_bad_version_kind_and_sizes() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        assert_eq!(decode(&[2, 0, 0]), Err(CodecError::Truncated));
        assert_eq!(decode(&[2, 0, 0, 0, 9, 10]), Err(CodecError::BadVersion(9)));
        assert_eq!(decode(&[2, 0, 0, 0, 1, 77]), Err(CodecError::BadKind(77)));
        assert_eq!(decode(&[1, 0, 0, 0, 1]), Err(CodecError::Undersized(1)));
        assert_eq!(
            decode(&[255, 255, 255, 255, 1, 10]),
            Err(CodecError::Oversized(u32::MAX as usize))
        );
        // One valid frame followed by another is not one datagram.
        let mut two = encode(&LiveMsg::Shutdown);
        two.extend(encode(&LiveMsg::Shutdown));
        assert_eq!(decode(&two), Err(CodecError::TrailingFrame(6)));
        // Length prefix claiming more than the message body consumes.
        let mut padded = encode(&LiveMsg::Shutdown);
        padded.extend_from_slice(&[0, 0]);
        padded[..4].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(decode(&padded), Err(CodecError::TrailingBytes(2)));
    }

    #[test]
    fn rejects_out_of_table_enums_and_hostile_visited_counts() {
        let mut assign = encode(&LiveMsg::Assign { initiator: NodeId::new(0), spec: spec() });
        // Byte 18 is the architecture index (4 len + 2 header + 4 node + 8 job).
        assign[18] = 200;
        assert_eq!(
            decode(&assign),
            Err(CodecError::BadEnum { field: "architecture", value: 200 })
        );
        let mut request = encode(&LiveMsg::Request {
            initiator: NodeId::new(0),
            spec: spec(),
            hops_left: 1,
            flood: FloodUid { origin: NodeId::new(0), seq: 0 },
            visited: Vec::new(),
        });
        // The final two bytes are the visited count; claim an absurd one.
        let n = request.len();
        request[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode(&request), Err(CodecError::VisitedTooLong(u16::MAX as usize)));
    }
}
