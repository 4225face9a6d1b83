//! A BLATANT-S-style swarm overlay maintainer.
//!
//! BLATANT-S (\[28\] in the paper) keeps a peer-to-peer overlay with a
//! *bounded average path length* and a *minimal number of links* by
//! letting ant-like agents wander the topology: construction ants add a
//! shortcut when they find themselves far (in hops) from their nest, and
//! pruning ants remove links whose endpoints remain close without them.
//!
//! The re-implementation here reproduces that contract inside the
//! simulator. Ants are simulated as bounded random walks over the current
//! topology; distance checks that a real deployment would estimate from
//! ant pheromone tables are answered exactly by bounded BFS (the
//! simulator owns the global graph anyway). What matters for ARiA is the
//! *product*: a connected overlay whose average path length converges
//! just below the target bound with a small average degree — 500 nodes at
//! target 9 settle around degree 4, matching §IV-A.

use crate::latency::LatencyModel;
use crate::topology::{NodeId, Topology};
use aria_sim::SimRng;

/// Swarm-based overlay builder/maintainer with a path-length bound.
///
/// # Example
///
/// ```
/// use aria_overlay::{Blatant, LatencyModel};
/// use aria_sim::SimRng;
///
/// let mut rng = SimRng::seed_from(42);
/// let mut blatant = Blatant::new(9.0, LatencyModel::default());
/// let mut topo = blatant.build(200, &mut rng);
/// assert!(topo.is_connected());
/// assert!(topo.avg_path_length() <= 9.0);
///
/// // Grow the overlay by one node (Expanding scenarios).
/// let newcomer = blatant.integrate_node(&mut topo, &mut rng);
/// assert!(topo.degree(newcomer) >= 2);
/// ```
#[derive(Debug, Clone)]
pub struct Blatant {
    target_path_length: f64,
    latency: LatencyModel,
    /// Length of an ant's random walk, in hops.
    walk_length: u32,
    /// Links below this degree are never pruned (keeps the graph robust).
    min_degree: usize,
}

impl Blatant {
    /// Creates a maintainer with the given average-path-length bound.
    ///
    /// # Panics
    ///
    /// Panics if `target_path_length < 2`.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "ceil of a config value asserted >= 2; an absurd bound saturates"
    )]
    pub fn new(target_path_length: f64, latency: LatencyModel) -> Self {
        assert!(target_path_length >= 2.0, "path length bound must be at least 2");
        Blatant {
            target_path_length,
            latency,
            walk_length: (target_path_length * 2.0).ceil() as u32,
            min_degree: 2,
        }
    }

    /// The configured average-path-length bound.
    pub fn target_path_length(&self) -> f64 {
        self.target_path_length
    }

    /// The hop distance above which an ant adds or keeps a shortcut:
    /// half the average bound, rounded up. Stricter than the average
    /// target, which is what drags the *average* below it.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "ceil of a bound asserted >= 2 in `new`; an absurd bound saturates"
    )]
    fn local_bound(&self) -> u32 {
        (self.target_path_length / 2.0).ceil() as u32
    }

    /// Builds an overlay of `n` nodes whose average path length is below
    /// the bound.
    ///
    /// Starts from a latency-weighted ring (which guarantees
    /// connectivity, as in BLATANT-S bootstrap), then alternates
    /// construction and pruning ant waves until the path length converges
    /// under the bound and redundant links are gone.
    pub fn build(&mut self, n: usize, rng: &mut SimRng) -> Topology {
        let mut topo = Topology::with_nodes(n);
        if n < 2 {
            return topo;
        }
        for i in 0..n {
            let next = NodeId::from_index((i + 1) % n);
            topo.connect(NodeId::from_index(i), next, self.latency.sample(rng));
        }
        if n <= 3 {
            return topo;
        }

        // Construction waves: dispatch ants until the sampled average
        // path length is under the bound (aiming slightly below so that
        // the exact value also satisfies it).
        let sample_sources = 32.min(n);
        let mut waves = 0;
        // One hop buffer for every ant walk of the build.
        let mut hop = Vec::new();
        while topo.sampled_path_length(sample_sources, rng) > self.target_path_length * 0.95 {
            self.construction_wave(&mut topo, n, rng, &mut hop);
            waves += 1;
            assert!(waves < 10_000, "overlay construction failed to converge");
        }

        // Densification: BLATANT-S keeps a few redundant links per node
        // for robustness (the paper's overlay attains average degree ≈ 4).
        // Low-degree nodes send discovery ants and link to their endpoint.
        // The discovery walk is short so the added links stay *local*:
        // they improve fault tolerance without acting as long-range
        // shortcuts, which keeps the average path length near the bound.
        let mut low: Vec<NodeId> = topo.nodes().filter(|&v| topo.degree(v) < 4).collect();
        rng.shuffle(&mut low);
        for nest in low {
            let hops = 2 + rng.u64_range(0, 2);
            let here = random_walk(&topo, nest, None, hops, rng, &mut hop);
            if here != nest && !topo.are_connected(nest, here) {
                topo.connect(nest, here, self.latency.sample(rng));
            }
        }

        // Pruning waves: remove links that do not contribute, re-adding
        // none (a removal is kept only if the endpoints remain close).
        for _ in 0..n / 2 {
            self.pruning_ant(&mut topo, rng);
        }
        topo
    }

    /// One wave of construction ants (one ant per √n nodes, at least 4).
    fn construction_wave(
        &self,
        topo: &mut Topology,
        n: usize,
        rng: &mut SimRng,
        hop: &mut Vec<NodeId>,
    ) {
        let ants = n.isqrt().max(4);
        for _ in 0..ants {
            self.construction_ant(topo, rng, hop);
        }
    }

    /// A construction ant: random-walks from its nest and proposes a
    /// shortcut to where it ends up if the nest is too far away.
    fn construction_ant(&self, topo: &mut Topology, rng: &mut SimRng, hop: &mut Vec<NodeId>) {
        let nest = NodeId::from_index(rng.index(topo.len()));
        let here = random_walk(topo, nest, None, self.walk_length.into(), rng, hop);
        if here == nest || topo.are_connected(nest, here) {
            return;
        }
        if topo.bounded_distance(nest, here, self.local_bound()).is_none() {
            topo.connect(nest, here, self.latency.sample(rng));
        }
    }

    /// A pruning ant: picks a random link and removes it if both
    /// endpoints keep an alternative path within the bound and neither
    /// drops below the minimum degree.
    fn pruning_ant(&self, topo: &mut Topology, rng: &mut SimRng) {
        if topo.is_empty() {
            return;
        }
        let a = NodeId::from_index(rng.index(topo.len()));
        if topo.degree(a) <= self.min_degree {
            return;
        }
        let b = *rng.choose(topo.neighbors(a));
        if topo.degree(b) <= self.min_degree {
            return;
        }
        topo.disconnect(a, b);
        if topo.bounded_distance(a, b, self.local_bound()).is_none() {
            // The link was load-bearing: restore it.
            topo.connect(a, b, self.latency.sample(rng));
        }
    }

    /// Connects a newly joining node into an existing overlay
    /// (Expanding scenarios, §IV-E).
    ///
    /// The newcomer bootstraps off one random contact, then discovery
    /// ants walk outward from the contact and report distinct attachment
    /// points, mirroring how BLATANT-S merges new nodes without central
    /// coordination. The newcomer ends with 2–4 links.
    pub fn integrate_node(&mut self, topo: &mut Topology, rng: &mut SimRng) -> NodeId {
        let newcomer = topo.add_node();
        if topo.len() == 1 {
            return newcomer;
        }
        let contact = NodeId::from_index(rng.index(topo.len() - 1));
        topo.connect(newcomer, contact, self.latency.sample(rng));

        let extra_links = 1 + rng.index(3);
        let mut hop = Vec::new();
        for _ in 0..extra_links {
            let here =
                random_walk(topo, contact, Some(newcomer), self.walk_length.into(), rng, &mut hop);
            if here != newcomer && !topo.are_connected(newcomer, here) {
                topo.connect(newcomer, here, self.latency.sample(rng));
            }
        }
        newcomer
    }
}

/// An ant's non-backtracking random walk: up to `hops` steps from
/// `start`, each to one random neighbor other than the node just left
/// (`prev` is what the first step avoids); stops early at a dead end.
/// Returns where the ant ends up.
///
/// `hop` is the caller's reusable one-element sample buffer:
/// [`Topology::sample_neighbors_into`] draws the same random sequence as
/// the allocating variant, so walks are bit-identical either way.
fn random_walk(
    topo: &Topology,
    start: NodeId,
    mut prev: Option<NodeId>,
    hops: u64,
    rng: &mut SimRng,
    hop: &mut Vec<NodeId>,
) -> NodeId {
    let mut here = start;
    for _ in 0..hops {
        topo.sample_neighbors_into(here, 1, prev, rng, hop);
        let Some(&next) = hop.first() else { break };
        prev = Some(here);
        here = next;
    }
    here
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, target: f64, seed: u64) -> Topology {
        let mut rng = SimRng::seed_from(seed);
        Blatant::new(target, LatencyModel::default()).build(n, &mut rng)
    }

    #[test]
    fn tiny_overlays_are_rings() {
        let t = build(3, 3.0, 1);
        assert!(t.is_connected());
        assert_eq!(t.link_count(), 3);
        let t = build(1, 3.0, 1);
        assert_eq!(t.link_count(), 0);
        let t = build(0, 3.0, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn built_overlay_meets_path_length_bound() {
        for seed in [1, 2, 3] {
            let t = build(200, 9.0, seed);
            assert!(t.is_connected(), "seed {seed}: disconnected");
            let apl = t.avg_path_length();
            assert!(apl <= 9.0, "seed {seed}: APL {apl} > 9");
            assert!(apl >= 3.0, "seed {seed}: suspiciously dense (APL {apl})");
        }
    }

    #[test]
    fn degree_stays_small() {
        let t = build(300, 9.0, 7);
        let avg = t.avg_degree();
        assert!(avg < 8.0, "avg degree {avg} too large for a minimal-link overlay");
        assert!(avg >= 2.0, "avg degree {avg} below the connectivity floor");
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = build(100, 6.0, 5);
        let b = build(100, 6.0, 5);
        for n in a.nodes() {
            assert_eq!(a.neighbors(n), b.neighbors(n));
        }
        let c = build(100, 6.0, 6);
        let differs = a.nodes().any(|n| a.neighbors(n) != c.neighbors(n));
        assert!(differs, "different seeds should give different overlays");
    }

    #[test]
    fn integrate_node_keeps_overlay_connected() {
        let mut rng = SimRng::seed_from(13);
        let mut blatant = Blatant::new(6.0, LatencyModel::default());
        let mut topo = blatant.build(80, &mut rng);
        for _ in 0..40 {
            let newcomer = blatant.integrate_node(&mut topo, &mut rng);
            assert!(topo.degree(newcomer) >= 1);
            assert!(topo.degree(newcomer) <= 4);
        }
        assert_eq!(topo.len(), 120);
        assert!(topo.is_connected());
        // Growth should not blow the path-length bound up badly.
        assert!(topo.avg_path_length() <= 6.0 * 1.5);
    }

    #[test]
    fn pruning_preserves_connectivity() {
        let mut rng = SimRng::seed_from(21);
        let mut blatant = Blatant::new(5.0, LatencyModel::default());
        let mut topo = blatant.build(120, &mut rng);
        // Hammer the overlay with extra pruning waves.
        for _ in 0..500 {
            blatant.pruning_ant(&mut topo, &mut rng);
        }
        assert!(topo.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn absurd_target_panics() {
        Blatant::new(1.0, LatencyModel::default());
    }
}
