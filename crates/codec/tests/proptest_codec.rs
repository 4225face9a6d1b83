//! Property-based tests: every [`LiveMsg`] survives an encode/decode
//! round trip exactly, and the decoder is panic-free (and strict) on
//! arbitrary and corrupted bytes.

use aria_codec::{decode, encode, CodecError, MAX_PAYLOAD, MAX_VISITED_WIRE};
use aria_core::driver::{FloodUid, LiveMsg};
use aria_grid::{
    Architecture, Cost, JobId, JobPriority, JobRequirements, JobSpec, OperatingSystem,
};
use aria_overlay::NodeId;
use aria_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_arch() -> impl Strategy<Value = Architecture> {
    proptest::sample::select(Architecture::ALL.to_vec())
}

fn arb_os() -> impl Strategy<Value = OperatingSystem> {
    proptest::sample::select(OperatingSystem::ALL.to_vec())
}

prop_compose! {
    fn arb_spec()(
        id in 0u64..u64::MAX,
        arch in arb_arch(),
        os in arb_os(),
        mem in 0u16..u16::MAX,
        disk in 0u16..u16::MAX,
        ert_ms in 0u64..100_000_000_000,
        deadline_ms in proptest::option::of(0u64..100_000_000_000),
        priority in 0u8..u8::MAX,
    ) -> JobSpec {
        JobSpec {
            id: JobId::new(id),
            requirements: JobRequirements::new(arch, os, mem, disk),
            ert: SimDuration::from_millis(ert_ms),
            deadline: deadline_ms.map(SimTime::from_millis),
            priority: JobPriority(priority),
        }
    }
}

prop_compose! {
    fn arb_flood()(origin in 0u32..1_000_000, seq in 0u32..u32::MAX) -> FloodUid {
        FloodUid { origin: NodeId::new(origin), seq }
    }
}

prop_compose! {
    /// Visited lists up to the wire bound, weighted toward the short
    /// lists real floods carry: three arms in five stay under 40
    /// entries, one spans 40 up to the bound, one sits exactly on it.
    fn arb_visited()(raw in prop_oneof![
        proptest::collection::vec(0u32..1_000_000, 0..40),
        proptest::collection::vec(0u32..1_000_000, 0..40),
        proptest::collection::vec(0u32..1_000_000, 0..40),
        proptest::collection::vec(0u32..1_000_000, 40..MAX_VISITED_WIRE + 1),
        proptest::collection::vec(0u32..1_000_000, MAX_VISITED_WIRE..MAX_VISITED_WIRE + 1),
    ]) -> Vec<NodeId> {
        raw.into_iter().map(NodeId::new).collect()
    }
}

prop_compose! {
    /// One arbitrary message of any of the twelve wire kinds.
    fn arb_msg()(
        kind in 0u8..12,
        spec in arb_spec(),
        node_a in 0u32..1000,
        node_b in 0u32..1000,
        job in 0u64..1_000_000,
        cost_ms in -1_000_000_000_000i64..1_000_000_000_000,
        hops_left in 0u32..64,
        flood in arb_flood(),
        visited in arb_visited(),
    ) -> LiveMsg {
        let a = NodeId::new(node_a);
        let b = NodeId::new(node_b);
        let job = JobId::new(job);
        let cost = Cost::from_nal(cost_ms);
        match kind {
            0 => LiveMsg::Request { initiator: a, spec, hops_left, flood, visited },
            1 => LiveMsg::Accept { from: a, job, cost },
            2 => LiveMsg::Inform { assignee: a, spec, cost, hops_left, flood, visited },
            3 => LiveMsg::Assign { initiator: a, spec },
            4 => LiveMsg::Ack { from: a, job },
            5 => LiveMsg::Join { node: a },
            6 => LiveMsg::Leave { node: a },
            7 => LiveMsg::Submit { spec },
            8 => LiveMsg::Done { job, node: b },
            9 => LiveMsg::Heartbeat { node: a },
            10 => LiveMsg::Holding { job, node: b },
            _ => LiveMsg::Shutdown,
        }
    }
}

proptest! {
    /// Every message survives encode → decode exactly.
    #[test]
    fn round_trips(msg in arb_msg()) {
        let bytes = encode(&msg);
        prop_assert!(bytes.len() - 4 <= MAX_PAYLOAD, "encoder stays under the payload bound");
        let back = decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, msg);
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn decoder_is_panic_free_on_garbage(bytes in proptest::collection::vec(0u8..255, 0..200)) {
        let _ = decode(&bytes);
    }

    /// Single-byte corruption of a valid frame never panics, and
    /// anything that still decodes re-encodes cleanly (the decoder only
    /// accepts well-formed messages).
    #[test]
    fn corrupt_byte_never_panics(msg in arb_msg(), pos in 0usize..4096, delta in 1u8..255) {
        let mut bytes = encode(&msg);
        let pos = pos % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        if let Ok(decoded) = decode(&bytes) {
            let _ = encode(&decoded);
        }
    }

    /// Truncation at every length yields an error, never a panic or a
    /// bogus success (a strict frame cannot parse from a prefix).
    #[test]
    fn every_truncation_is_rejected(msg in arb_msg(), cut in 0usize..4096) {
        let bytes = encode(&msg);
        let cut = cut % bytes.len();
        let result = decode(&bytes[..cut]);
        prop_assert!(result.is_err(), "prefix of {} bytes decoded: {:?}", cut, result);
    }
}

fn one_hop_request() -> LiveMsg {
    LiveMsg::Request {
        initiator: NodeId::new(1),
        spec: JobSpec::batch(
            JobId::new(1),
            JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1),
            SimDuration::from_secs(60),
        ),
        hops_left: 3,
        flood: FloodUid { origin: NodeId::new(1), seq: 0 },
        visited: vec![NodeId::new(1)],
    }
}

/// `one_hop_request`'s frame with its visited count rewritten to `count`.
fn with_visited_count(count: u16) -> Vec<u8> {
    let mut bytes = encode(&one_hop_request());
    let count_at = bytes.len() - 4 - 2; // one visited entry + the count field
    bytes[count_at..count_at + 2].copy_from_slice(&count.to_le_bytes());
    bytes
}

/// Pinned case: flipping the visited-count bytes of a REQUEST to a huge
/// value must be rejected by the bound check, not attempt an allocation.
#[test]
fn hostile_visited_count_is_bounded() {
    let bytes = with_visited_count(u16::MAX);
    assert_eq!(decode(&bytes), Err(CodecError::VisitedTooLong(u16::MAX as usize)));
}

/// A count inside the bound but longer than the body is caught by the
/// remaining-bytes check that precedes the list's allocation.
#[test]
fn visited_count_past_the_body_is_truncated() {
    let bytes = with_visited_count(u16::try_from(MAX_VISITED_WIRE).unwrap());
    assert_eq!(decode(&bytes), Err(CodecError::Truncated));
}
