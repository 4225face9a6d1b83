//! Builder scaling: a 200k-node overlay must build in linear time.
//!
//! `random_regular` polls `Topology::link_count` once per chord attempt.
//! While that accessor summed all `n` adjacency lists the build was
//! O(n²) — minutes at this size in a debug build, 234 s at the scale
//! bench's 500k tier. With the maintained counter it takes about a
//! second here, so a regression to a per-attempt O(n) scan shows up as
//! this test hanging the suite.

use aria_overlay::{builders, LatencyModel};
use aria_sim::SimRng;

#[test]
fn random_regular_200k_reaches_its_link_target_and_is_connected() {
    let (n, d) = (200_000, 4);
    let mut rng = SimRng::seed_from(1);
    let topo = builders::random_regular(n, d, &LatencyModel::default(), &mut rng);
    assert_eq!(topo.len(), n);
    assert_eq!(topo.link_count(), n * d / 2);
    assert_eq!(topo.avg_degree(), d as f64);
    assert!(topo.is_connected());
    assert_eq!(topo.validate(), Ok(()));
}
