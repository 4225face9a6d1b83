//! Golden overlays: an FNV-1a hash of every (neighbor, latency) pair of
//! each builder's output at a fixed seed. The simulator's determinism
//! goldens only cover the overlays their scenarios happen to build; this
//! pins the graphs themselves, so a builder change that alters a single
//! RNG draw fails here, next to the code that caused it.
//!
//! The pinned values were recorded before `Topology::link_count` became
//! a maintained counter (PR 15): the builders must keep producing these
//! exact graphs no matter how fast they get.

use aria_overlay::{builders, Blatant, LatencyModel, Topology};
use aria_sim::SimRng;

/// FNV-1a over the node count, then per node its degree followed by each
/// `(neighbor, latency_ms)` in adjacency order.
fn graph_hash(topo: &Topology) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    feed(topo.len() as u64);
    for u in topo.nodes() {
        feed(topo.degree(u) as u64);
        for &v in topo.neighbors(u) {
            feed(u64::from(v.raw()));
            feed(topo.latency(u, v).expect("neighbors are linked").as_millis());
        }
    }
    hash
}

#[test]
fn random_regular_1000_4_is_pinned() {
    let mut rng = SimRng::seed_from(1);
    let topo = builders::random_regular(1000, 4, &LatencyModel::default(), &mut rng);
    assert_eq!(topo.link_count(), 2000);
    assert_eq!(graph_hash(&topo), 0x1409_bf6b_f275_a980, "random_regular(1000, 4) changed");
}

#[test]
fn watts_strogatz_1000_4_02_is_pinned() {
    let mut rng = SimRng::seed_from(2);
    let topo = builders::watts_strogatz(1000, 4, 0.2, &LatencyModel::default(), &mut rng);
    assert_eq!(topo.link_count(), 2000);
    assert_eq!(graph_hash(&topo), 0x4885_5756_4934_ab07, "watts_strogatz(1000, 4, 0.2) changed");
}

#[test]
fn blatant_500_target_9_is_pinned() {
    let mut rng = SimRng::seed_from(3);
    let topo = Blatant::new(9.0, LatencyModel::default()).build(500, &mut rng);
    assert_eq!(graph_hash(&topo), 0x6e9a_8c2f_65ff_384b, "Blatant::new(9.0).build(500) changed");
}
