//! Baseline overlay families.
//!
//! The paper's future work calls for "experiments with different types of
//! peer-to-peer overlay networks in order to gain a better understanding
//! of its correlation to the meta-scheduling performance" (§VI). These
//! builders provide classic topologies for that ablation:
//! a ring, a random regular-ish graph, and a Watts-Strogatz small world.

use crate::latency::LatencyModel;
use crate::topology::{NodeId, Topology};
use aria_sim::SimRng;

/// A bidirectional ring of `n` nodes.
///
/// The worst overlay for flooding-based discovery: path lengths grow
/// linearly with `n`.
pub fn ring(n: usize, latency: &LatencyModel, rng: &mut SimRng) -> Topology {
    let mut topo = Topology::with_nodes(n);
    if n < 2 {
        return topo;
    }
    for i in 0..n {
        let next = NodeId::from_index((i + 1) % n);
        topo.connect(NodeId::from_index(i), next, latency.sample(rng));
    }
    topo
}

/// A connected random graph of *average* degree `d`.
///
/// Built as a ring (for guaranteed connectivity) plus uniformly random
/// chords until the graph holds `n·d/2` links. Despite the name the
/// result is only regular on average: the ring guarantees every node
/// degree ≥ 2, and chord endpoints are unconstrained, so individual
/// degrees scatter around `d`.
///
/// Chords are drawn by rejection (a draw that hits a self-pair or an
/// existing link is discarded), capped at `20·n·d` attempts so the loop
/// always terminates. Reaching `n·d/2` links is therefore likely, not
/// promised: for `d` close to `n` the last free pairs are found slowly
/// (≈ `(n²/2)·ln(n²/2)` expected draws for the complete graph) and an
/// unlucky run ends short of the target instead of spinning. At `d ≪ n`
/// — every overlay the simulator builds — almost no draw is rejected.
///
/// Linear in `n·d`: the loop condition reads [`Topology::link_count`],
/// which is O(1).
///
/// # Panics
///
/// Panics if `d < 2` or `d >= n`.
pub fn random_regular(n: usize, d: usize, latency: &LatencyModel, rng: &mut SimRng) -> Topology {
    assert!(d >= 2, "degree must be at least 2 for connectivity");
    assert!(n == 0 || d < n, "degree must be below the node count");
    let mut topo = ring(n, latency, rng);
    if n < 3 {
        return topo;
    }
    let target_links = n * d / 2;
    let mut attempts = 0;
    while topo.link_count() < target_links && attempts < n * d * 20 {
        attempts += 1;
        let a = NodeId::from_index(rng.index(n));
        let b = NodeId::from_index(rng.index(n));
        if a != b && !topo.are_connected(a, b) {
            topo.connect(a, b, latency.sample(rng));
        }
    }
    topo
}

/// A Watts-Strogatz small-world overlay: a ring lattice where each node
/// links to its `k/2` nearest neighbors on each side, with every link
/// rewired to a random endpoint with probability `beta`.
///
/// Rewiring never disconnects the lattice backbone below degree 2.
///
/// # Panics
///
/// Panics if `k` is odd, `k < 2`, `k >= n` (for `n > 0`), or `beta` is
/// outside `[0, 1]`.
pub fn watts_strogatz(
    n: usize,
    k: usize,
    beta: f64,
    latency: &LatencyModel,
    rng: &mut SimRng,
) -> Topology {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and at least 2");
    assert!(n == 0 || k < n, "k must be below the node count");
    assert!((0.0..=1.0).contains(&beta), "beta must be within [0, 1]");
    let mut topo = Topology::with_nodes(n);
    if n < 2 {
        return topo;
    }
    for i in 0..n {
        for j in 1..=k / 2 {
            let neighbor = NodeId::from_index((i + j) % n);
            topo.connect(NodeId::from_index(i), neighbor, latency.sample(rng));
        }
    }
    // Rewire each lattice link with probability beta.
    for i in 0..n {
        let a = NodeId::from_index(i);
        for j in 1..=k / 2 {
            let b = NodeId::from_index((i + j) % n);
            if !rng.chance(beta) || !topo.are_connected(a, b) {
                continue;
            }
            if topo.degree(a) <= 2 || topo.degree(b) <= 2 {
                continue;
            }
            let c = NodeId::from_index(rng.index(n));
            if c != a && !topo.are_connected(a, c) {
                topo.disconnect(a, b);
                topo.connect(a, c, latency.sample(rng));
            }
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(17)
    }

    #[test]
    fn ring_has_n_links_and_degree_two() {
        let t = ring(50, &LatencyModel::default(), &mut rng());
        assert!(t.is_connected());
        assert_eq!(t.link_count(), 50);
        assert!(t.nodes().all(|n| t.degree(n) == 2));
        // APL of a ring is ~ n/4.
        assert!((t.avg_path_length() - 12.75).abs() < 0.3);
    }

    #[test]
    fn ring_degenerate_sizes() {
        assert_eq!(ring(0, &LatencyModel::default(), &mut rng()).len(), 0);
        assert_eq!(ring(1, &LatencyModel::default(), &mut rng()).link_count(), 0);
        let two = ring(2, &LatencyModel::default(), &mut rng());
        assert_eq!(two.link_count(), 1);
    }

    #[test]
    fn random_regular_hits_degree_target() {
        let t = random_regular(200, 4, &LatencyModel::default(), &mut rng());
        assert!(t.is_connected());
        assert!((t.avg_degree() - 4.0).abs() < 0.2, "avg degree {}", t.avg_degree());
        // Random graphs have logarithmic path lengths.
        assert!(t.avg_path_length() < 6.0);
    }

    #[test]
    fn random_regular_dense_corner_yields_the_complete_graph() {
        // d = n - 1 asks for every pair. The rejection sampler needs
        // ~50·H(35) ≈ 210 draws for the 35 chords the ring leaves open;
        // the cap is 20·n·d = 1800, so at this seed (and nearly every
        // other) the build is complete rather than cut short.
        let t = random_regular(10, 9, &LatencyModel::default(), &mut rng());
        assert_eq!(t.link_count(), 45);
        assert!(t.nodes().all(|n| t.degree(n) == 9));
    }

    #[test]
    fn random_regular_only_guarantees_the_ring_degree_floor() {
        // The average reaches `d`; individual nodes may stay below it.
        let t = random_regular(200, 4, &LatencyModel::default(), &mut rng());
        assert_eq!(t.link_count(), 400);
        assert!(t.nodes().all(|n| t.degree(n) >= 2));
        assert!(t.nodes().any(|n| t.degree(n) < 4));
    }

    #[test]
    fn watts_strogatz_shortens_paths_with_beta() {
        let lattice = watts_strogatz(200, 4, 0.0, &LatencyModel::default(), &mut rng());
        let small_world = watts_strogatz(200, 4, 0.2, &LatencyModel::default(), &mut rng());
        assert!(lattice.is_connected());
        assert!(small_world.is_connected());
        assert!(
            small_world.avg_path_length() < lattice.avg_path_length(),
            "rewiring should shorten paths: {} vs {}",
            small_world.avg_path_length(),
            lattice.avg_path_length()
        );
        assert!((small_world.avg_degree() - 4.0).abs() < 0.5);
    }

    #[test]
    fn builders_are_deterministic() {
        let a = random_regular(100, 4, &LatencyModel::default(), &mut SimRng::seed_from(3));
        let b = random_regular(100, 4, &LatencyModel::default(), &mut SimRng::seed_from(3));
        for n in a.nodes() {
            assert_eq!(a.neighbors(n), b.neighbors(n));
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_panics() {
        watts_strogatz(10, 3, 0.1, &LatencyModel::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn low_degree_panics() {
        random_regular(10, 1, &LatencyModel::default(), &mut rng());
    }
}
