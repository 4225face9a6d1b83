//! Property-based tests for the overlay: graph symmetry, maintenance
//! invariants and builder guarantees under arbitrary seeds and sizes.

use aria_overlay::{builders, Blatant, LatencyModel, NodeId, Topology};
use aria_sim::{SimDuration, SimRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// connect/disconnect keep the adjacency perfectly symmetric.
    #[test]
    fn adjacency_stays_symmetric(
        n in 2usize..40,
        ops in proptest::collection::vec((0u32..40, 0u32..40, any::<bool>()), 0..200),
    ) {
        let mut topo = Topology::with_nodes(n);
        for (a, b, add) in ops {
            let a = NodeId::from_index(a as usize % n);
            let b = NodeId::from_index(b as usize % n);
            if add {
                topo.connect(a, b, SimDuration::from_millis(10));
            } else {
                topo.disconnect(a, b);
            }
        }
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                prop_assert!(topo.are_connected(v, u), "{u}->{v} not symmetric");
                prop_assert_eq!(topo.latency(u, v), topo.latency(v, u));
                prop_assert_ne!(u, v, "self-link crept in");
            }
        }
    }

    /// The maintained link counter tracks a from-scratch recount through
    /// every kind of mutation: new links, latency updates on existing
    /// links, rejected self-links, removals (hit and miss) and node
    /// additions.
    #[test]
    fn link_counter_matches_recount_after_every_step(
        n in 1usize..30,
        ops in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64, 1u64..200), 0..300),
    ) {
        let mut topo = Topology::with_nodes(n);
        for (op, a, b, ms) in ops {
            let len = topo.len();
            let a = NodeId::from_index(a as usize % len);
            let b = NodeId::from_index(b as usize % len);
            let latency = SimDuration::from_millis(ms);
            match op {
                0 | 1 => topo.connect(a, b, latency),
                // Re-connect an existing link: a pure latency update.
                2 => {
                    if let Some(&peer) = topo.neighbors(a).first() {
                        topo.connect(peer, a, latency);
                    }
                }
                3 => {
                    topo.disconnect(a, b);
                }
                _ => {
                    topo.connect(a, a, latency);
                    topo.add_node();
                }
            }
            let half_links: usize = topo.nodes().map(|u| topo.degree(u)).sum();
            prop_assert_eq!(topo.link_count(), half_links / 2);
            prop_assert_eq!(half_links % 2, 0);
            prop_assert_eq!(topo.avg_degree(), half_links as f64 / topo.len() as f64);
            prop_assert_eq!(topo.validate(), Ok(()));
        }
    }

    /// The swarm-built overlay is always connected and within the path
    /// length bound, for any seed and reasonable size.
    #[test]
    fn blatant_builds_connected_bounded_overlays(
        seed in 0u64..10_000,
        n in 10usize..150,
        target in 4.0f64..10.0,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let topo = Blatant::new(target, LatencyModel::default()).build(n, &mut rng);
        prop_assert_eq!(topo.len(), n);
        prop_assert!(topo.is_connected());
        prop_assert!(topo.avg_path_length() <= target + 1e-9);
        // Minimal-link goal: never denser than ~4x a ring.
        prop_assert!(topo.link_count() <= n * 4);
    }

    /// Node joins preserve connectivity and never leave the newcomer
    /// isolated or over-connected.
    #[test]
    fn joins_preserve_connectivity(
        seed in 0u64..10_000,
        joins in 1usize..30,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut blatant = Blatant::new(6.0, LatencyModel::default());
        let mut topo = blatant.build(40, &mut rng);
        for _ in 0..joins {
            let newcomer = blatant.integrate_node(&mut topo, &mut rng);
            prop_assert!(topo.degree(newcomer) >= 1);
            prop_assert!(topo.degree(newcomer) <= 4);
        }
        prop_assert!(topo.is_connected());
        prop_assert_eq!(topo.len(), 40 + joins);
    }

    /// BFS distances satisfy the triangle property along edges: adjacent
    /// nodes' distances from any source differ by at most one.
    #[test]
    fn bfs_distances_are_lipschitz_on_edges(seed in 0u64..10_000) {
        let mut rng = SimRng::seed_from(seed);
        let topo = builders::random_regular(60, 4, &LatencyModel::default(), &mut rng);
        let dist = topo.bfs_distances(NodeId::new(0));
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                let (du, dv) = (dist[u.index()].unwrap(), dist[v.index()].unwrap());
                prop_assert!(du.abs_diff(dv) <= 1, "edge {u}-{v}: {du} vs {dv}");
            }
        }
    }

    /// bounded_distance agrees with full BFS whenever it returns a value,
    /// and only returns None when the true distance exceeds the bound.
    #[test]
    fn bounded_distance_agrees_with_bfs(
        seed in 0u64..10_000,
        limit in 1u32..8,
        from in 0u32..50,
        to in 0u32..50,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let topo = builders::watts_strogatz(50, 4, 0.1, &LatencyModel::default(), &mut rng);
        let from = NodeId::new(from);
        let to = NodeId::new(to);
        let truth = topo.bfs_distances(from)[to.index()];
        match topo.bounded_distance(from, to, limit) {
            Some(d) => prop_assert_eq!(Some(d), truth),
            None => prop_assert!(truth.is_none() || truth.unwrap() > limit),
        }
    }

    /// Neighbor sampling honors the exclusion and the bound, and samples
    /// only real neighbors.
    #[test]
    fn sample_neighbors_is_sound(
        seed in 0u64..10_000,
        k in 0usize..8,
        node in 0u32..40,
        exclude in proptest::option::of(0u32..40),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let topo = builders::random_regular(40, 4, &LatencyModel::default(), &mut rng);
        let node = NodeId::new(node);
        let exclude = exclude.map(NodeId::new);
        let picked = topo.sample_neighbors(node, k, exclude, &mut rng);
        prop_assert!(picked.len() <= k);
        let mut unique = picked.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), picked.len(), "duplicate sample");
        for p in picked {
            prop_assert!(topo.are_connected(node, p));
            prop_assert_ne!(Some(p), exclude);
        }
    }

    /// Latencies sampled for links always stay within the model's range.
    #[test]
    fn builder_latencies_in_range(seed in 0u64..10_000) {
        let model = LatencyModel::new(
            SimDuration::from_millis(5),
            SimDuration::from_millis(150),
        );
        let mut rng = SimRng::seed_from(seed);
        let topo = builders::random_regular(30, 4, &model, &mut rng);
        for u in topo.nodes() {
            for &v in topo.neighbors(u) {
                let latency = topo.latency(u, v).unwrap();
                prop_assert!(latency >= model.min() && latency <= model.max());
            }
        }
    }
}
