//! The overlay graph: nodes, undirected latency-weighted links, and the
//! graph measurements quoted by the paper (average path length, degree).

use aria_sim::{SimDuration, SimRng};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of an overlay node (dense, assigned in creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[allow(clippy::disallowed_methods, reason = "derived PartialOrd over integers, not floats")]
pub struct NodeId(u32);

impl NodeId {
    /// Wraps a raw index.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The index as `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the node at slice index `index`: the inverse of
    /// [`NodeId::index`].
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ids are dense u32 slice indices; a world never holds 2^32 nodes"
    )]
    pub const fn from_index(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "node index overflows a NodeId");
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An undirected overlay network with per-link one-way latencies.
///
/// Neighbor lists are kept sorted so that iteration order — and therefore
/// every simulation run — is deterministic. The undirected link count is
/// maintained on every real insert/remove, so [`Topology::link_count`]
/// and [`Topology::avg_degree`] are O(1) and safe to poll from a build
/// loop; [`Topology::validate`] recounts it.
///
/// # Example
///
/// ```
/// use aria_overlay::Topology;
/// use aria_sim::SimDuration;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node();
/// let b = topo.add_node();
/// topo.connect(a, b, SimDuration::from_millis(20));
/// assert_eq!(topo.neighbors(a), [b]);
/// assert_eq!(topo.latency(a, b), Some(SimDuration::from_millis(20)));
/// ```
#[derive(Clone, Default)]
pub struct Topology {
    /// Sorted neighbor lists, indexed by node.
    adjacency: Vec<Vec<NodeId>>,
    /// One-way link latencies, parallel to `adjacency`.
    latencies: Vec<Vec<SimDuration>>,
    /// Number of directed half-links, i.e. the sum of all neighbor-list
    /// lengths (twice the undirected link count once both halves of a
    /// `connect`/`disconnect` are in).
    half_links: usize,
}

/// Renders the graph only: `half_links` is a function of `adjacency`, and
/// leaving it out keeps every `{:?}`-derived state fingerprint
/// (`World::canonical_state`) byte-identical to the pre-counter layout.
impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("adjacency", &self.adjacency)
            .field("latencies", &self.latencies)
            .finish()
    }
}

impl Topology {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Creates an overlay with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Topology { adjacency: vec![Vec::new(); n], latencies: vec![Vec::new(); n], half_links: 0 }
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.adjacency.len());
        self.adjacency.push(Vec::new());
        self.latencies.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the overlay has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(NodeId::from_index)
    }

    /// Creates an undirected link with the given one-way latency.
    ///
    /// Connecting a pair twice updates the latency. Self-links are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
        assert!(a.index() < self.len() && b.index() < self.len(), "unknown node");
        if a == b {
            return;
        }
        self.insert_half(a, b, latency);
        self.insert_half(b, a, latency);
    }

    fn insert_half(&mut self, from: NodeId, to: NodeId, latency: SimDuration) {
        match self.adjacency[from.index()].binary_search(&to) {
            Ok(pos) => self.latencies[from.index()][pos] = latency,
            Err(pos) => {
                self.adjacency[from.index()].insert(pos, to);
                self.latencies[from.index()].insert(pos, latency);
                self.half_links += 1;
            }
        }
    }

    /// Removes the undirected link between `a` and `b`, if present.
    ///
    /// Returns whether a link was removed.
    pub fn disconnect(&mut self, a: NodeId, b: NodeId) -> bool {
        let removed = self.remove_half(a, b);
        if removed {
            self.remove_half(b, a);
        }
        removed
    }

    fn remove_half(&mut self, from: NodeId, to: NodeId) -> bool {
        if from.index() >= self.len() {
            return false;
        }
        match self.adjacency[from.index()].binary_search(&to) {
            Ok(pos) => {
                self.adjacency[from.index()].remove(pos);
                self.latencies[from.index()].remove(pos);
                self.half_links -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `a` and `b` are directly linked.
    pub fn are_connected(&self, a: NodeId, b: NodeId) -> bool {
        a.index() < self.len() && self.adjacency[a.index()].binary_search(&b).is_ok()
    }

    /// The sorted neighbor list of a node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// One-way latency of the direct link `a`–`b`, or `None` if not
    /// linked.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        let pos = self.adjacency[a.index()].binary_search(&b).ok()?;
        Some(self.latencies[a.index()][pos])
    }

    /// Degree of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Average node degree. O(1): read off the maintained link counter.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.half_links as f64 / self.len() as f64
    }

    /// Number of undirected links. O(1): the counter is maintained by
    /// `connect`/`disconnect`, so builders may poll this per attempt.
    pub fn link_count(&self) -> usize {
        self.half_links / 2
    }

    /// Audits the graph's structural invariants, returning the first
    /// violation:
    ///
    /// * every neighbor list is strictly ascending (sorted, duplicate-free)
    ///   and names only existing nodes, never the node itself;
    /// * `latencies` is parallel to `adjacency`;
    /// * adjacency is symmetric, with the same latency in both directions;
    /// * the maintained link counter equals a from-scratch recount.
    ///
    /// Read-only. `World::try_check_invariants` calls this so that crash
    /// and join rewiring is covered by the periodic debug audit. Cost is
    /// `O(nodes + links · log degree)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.latencies.len() != self.adjacency.len() {
            return Err(format!(
                "topology: {} latency list(s) for {} node(s)",
                self.latencies.len(),
                self.adjacency.len()
            ));
        }
        // Shapes first, for every node: the symmetry probes below index
        // a *neighbor's* latency list.
        for u in self.nodes() {
            let (neighbors, latencies) = (&self.adjacency[u.index()], &self.latencies[u.index()]);
            if latencies.len() != neighbors.len() {
                return Err(format!(
                    "topology: {u} has {} neighbor(s) but {} latencies",
                    neighbors.len(),
                    latencies.len()
                ));
            }
        }
        let mut recount = 0usize;
        for u in self.nodes() {
            let (neighbors, latencies) = (&self.adjacency[u.index()], &self.latencies[u.index()]);
            if let Some(pair) = neighbors.windows(2).find(|pair| pair[0] >= pair[1]) {
                return Err(format!(
                    "topology: neighbor list of {u} is not strictly ascending ({} before {})",
                    pair[0], pair[1]
                ));
            }
            for (&v, &latency) in neighbors.iter().zip(latencies) {
                if v == u || v.index() >= self.len() {
                    return Err(format!("topology: {u} lists invalid neighbor {v}"));
                }
                match self.latency(v, u) {
                    Some(back) if back == latency => {}
                    Some(back) => {
                        return Err(format!(
                            "topology: link {u}-{v} has latency {latency:?} one way and {back:?} the other"
                        ));
                    }
                    None => {
                        return Err(format!("topology: link {u}->{v} has no reverse half"));
                    }
                }
            }
            recount += neighbors.len();
        }
        if self.half_links != recount {
            return Err(format!(
                "topology: link counter holds {} half-link(s) but the adjacency lists hold {recount}",
                self.half_links
            ));
        }
        Ok(())
    }

    /// Up to `k` distinct random neighbors of `node`, excluding `exclude`.
    ///
    /// This is the neighbor sampling used when forwarding REQUEST and
    /// INFORM floods ("at most k random neighbors of the current node are
    /// contacted", §IV-E).
    pub fn sample_neighbors(
        &self,
        node: NodeId,
        k: usize,
        exclude: Option<NodeId>,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.sample_neighbors_into(node, k, exclude, rng, &mut out);
        out
    }

    /// Allocation-free [`Topology::sample_neighbors`]: fills `out`
    /// (cleared first) with the sample, reusing its capacity. Draws the
    /// same random sequence as the allocating variant, so callers can
    /// switch without perturbing seeded runs.
    pub fn sample_neighbors_into(
        &self,
        node: NodeId,
        k: usize,
        exclude: Option<NodeId>,
        rng: &mut SimRng,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        out.extend(self.adjacency[node.index()].iter().copied().filter(|&n| Some(n) != exclude));
        rng.sample_in_place(out, k);
    }

    /// Breadth-first hop distances from `source` (`None` = unreachable).
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.len()];
        dist[source.index()] = Some(0);
        let mut frontier = VecDeque::from([source]);
        while let Some(u) = frontier.pop_front() {
            let du = dist[u.index()].expect("frontier nodes have distances");
            for &v in &self.adjacency[u.index()] {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    frontier.push_back(v);
                }
            }
        }
        dist
    }

    /// Hop distance between two nodes, bounded by `limit` (`None` if the
    /// target is farther than `limit` or unreachable).
    ///
    /// Used by the swarm maintainer to test whether a link is redundant
    /// without paying for a full BFS.
    pub fn bounded_distance(&self, from: NodeId, to: NodeId, limit: u32) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.len()];
        dist[from.index()] = 0;
        let mut frontier = VecDeque::from([from]);
        while let Some(u) = frontier.pop_front() {
            let du = dist[u.index()];
            if du >= limit {
                continue;
            }
            for &v in &self.adjacency[u.index()] {
                if dist[v.index()] == u32::MAX {
                    if v == to {
                        return Some(du + 1);
                    }
                    dist[v.index()] = du + 1;
                    frontier.push_back(v);
                }
            }
        }
        None
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.bfs_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// Exact average shortest-path length over all connected ordered
    /// pairs (0 for graphs with fewer than 2 nodes).
    pub fn avg_path_length(&self) -> f64 {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for source in self.nodes() {
            for d in self.bfs_distances(source).iter().flatten() {
                if *d > 0 {
                    total += u64::from(*d);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// Average shortest-path length estimated from `samples` BFS sources
    /// (exact if `samples >= len`).
    pub fn sampled_path_length(&self, samples: usize, rng: &mut SimRng) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        if samples >= self.len() {
            return self.avg_path_length();
        }
        let all: Vec<NodeId> = self.nodes().collect();
        let sources = rng.choose_multiple(&all, samples);
        let mut total = 0u64;
        let mut pairs = 0u64;
        for source in sources {
            for d in self.bfs_distances(source).iter().flatten() {
                if *d > 0 {
                    total += u64::from(*d);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn line(n: u32) -> Topology {
        let mut t = Topology::with_nodes(n as usize);
        for i in 0..n - 1 {
            t.connect(NodeId(i), NodeId(i + 1), ms(10));
        }
        t
    }

    #[test]
    fn connect_is_symmetric_and_sorted() {
        let mut t = Topology::with_nodes(4);
        t.connect(NodeId(0), NodeId(3), ms(5));
        t.connect(NodeId(0), NodeId(1), ms(7));
        assert_eq!(t.neighbors(NodeId(0)), [NodeId(1), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(3)), [NodeId(0)]);
        assert!(t.are_connected(NodeId(3), NodeId(0)));
        assert_eq!(t.latency(NodeId(3), NodeId(0)), Some(ms(5)));
    }

    #[test]
    fn reconnect_updates_latency() {
        let mut t = Topology::with_nodes(2);
        t.connect(NodeId(0), NodeId(1), ms(5));
        t.connect(NodeId(0), NodeId(1), ms(9));
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.latency(NodeId(0), NodeId(1)), Some(ms(9)));
    }

    #[test]
    fn self_links_are_ignored() {
        let mut t = Topology::with_nodes(1);
        t.connect(NodeId(0), NodeId(0), ms(1));
        assert_eq!(t.degree(NodeId(0)), 0);
    }

    #[test]
    fn disconnect_removes_both_halves() {
        let mut t = Topology::with_nodes(2);
        t.connect(NodeId(0), NodeId(1), ms(5));
        assert!(t.disconnect(NodeId(0), NodeId(1)));
        assert!(!t.are_connected(NodeId(0), NodeId(1)));
        assert_eq!(t.degree(NodeId(1)), 0);
        assert!(!t.disconnect(NodeId(0), NodeId(1)));
    }

    #[test]
    fn bfs_distances_on_a_line() {
        let t = line(5);
        let d = t.bfs_distances(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_reports_unreachable() {
        let mut t = Topology::with_nodes(3);
        t.connect(NodeId(0), NodeId(1), ms(1));
        let d = t.bfs_distances(NodeId(0));
        assert_eq!(d[2], None);
        assert!(!t.is_connected());
    }

    #[test]
    fn avg_path_length_line_of_three() {
        // Distances: 0-1:1, 0-2:2, 1-2:1 => mean = (1+2+1)/3 = 4/3.
        let t = line(3);
        assert!((t.avg_path_length() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_path_length_close_to_exact() {
        let mut rng = SimRng::seed_from(11);
        let mut t = line(60);
        // add some chords
        for i in (0..50).step_by(7) {
            t.connect(NodeId(i), NodeId(i + 9), ms(10));
        }
        let exact = t.avg_path_length();
        let sampled = t.sampled_path_length(30, &mut rng);
        assert!((exact - sampled).abs() / exact < 0.25, "exact={exact} sampled={sampled}");
        // With samples >= n it is exact.
        assert_eq!(t.sampled_path_length(100, &mut rng), exact);
    }

    #[test]
    fn bounded_distance_respects_limit() {
        let t = line(10);
        assert_eq!(t.bounded_distance(NodeId(0), NodeId(3), 5), Some(3));
        assert_eq!(t.bounded_distance(NodeId(0), NodeId(9), 5), None);
        assert_eq!(t.bounded_distance(NodeId(4), NodeId(4), 0), Some(0));
    }

    #[test]
    fn sample_neighbors_excludes_and_bounds() {
        let mut t = Topology::with_nodes(6);
        for i in 1..6 {
            t.connect(NodeId(0), NodeId(i), ms(1));
        }
        let mut rng = SimRng::seed_from(3);
        let picked = t.sample_neighbors(NodeId(0), 3, Some(NodeId(2)), &mut rng);
        assert_eq!(picked.len(), 3);
        assert!(!picked.contains(&NodeId(2)));
        let all = t.sample_neighbors(NodeId(0), 10, None, &mut rng);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn degree_and_link_count() {
        let t = line(4);
        assert_eq!(t.link_count(), 3);
        assert!((t.avg_degree() - 1.5).abs() < 1e-12);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn link_counter_ignores_latency_updates_and_self_links() {
        let mut t = line(4);
        t.connect(NodeId(0), NodeId(1), ms(99)); // latency update
        t.connect(NodeId(2), NodeId(2), ms(1)); // self-link
        assert!(!t.disconnect(NodeId(0), NodeId(3))); // not linked
        assert_eq!(t.link_count(), 3);
        assert!(t.disconnect(NodeId(1), NodeId(2)));
        assert_eq!(t.link_count(), 2);
        assert!((t.avg_degree() - 1.0).abs() < 1e-12);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn validate_reports_each_structural_violation() {
        let good = line(3);
        assert_eq!(good.validate(), Ok(()));

        let mut drifted = good.clone();
        drifted.half_links += 1;
        assert!(drifted.validate().unwrap_err().contains("link counter"));

        let mut one_sided = good.clone();
        one_sided.adjacency[2].clear();
        one_sided.latencies[2].clear();
        assert!(one_sided.validate().unwrap_err().contains("no reverse half"));

        let mut lopsided = good.clone();
        lopsided.latencies[0][0] = ms(11);
        assert!(lopsided.validate().unwrap_err().contains("one way"));

        let mut unsorted = good.clone();
        unsorted.adjacency[1].reverse();
        assert!(unsorted.validate().unwrap_err().contains("strictly ascending"));

        // Node 1 probes node 2's list before node 2 itself is reached.
        let mut ragged = good.clone();
        ragged.latencies[2].pop();
        assert!(ragged.validate().unwrap_err().contains("latencies"));

        let mut dangling = good;
        dangling.adjacency[0][0] = NodeId(7);
        assert!(dangling.validate().unwrap_err().contains("invalid neighbor"));
    }

    #[test]
    fn debug_rendering_shows_the_graph_only() {
        // `World::canonical_state` fingerprints this rendering; the link
        // counter is derived state and must not appear in it.
        let t = line(2);
        assert_eq!(
            format!("{t:?}"),
            "Topology { adjacency: [[NodeId(1)], [NodeId(0)]], \
             latencies: [[SimDuration(10)], [SimDuration(10)]] }"
        );
    }

    #[test]
    fn empty_topology_is_connected_and_zero() {
        let t = Topology::new();
        assert!(t.is_connected());
        assert_eq!(t.avg_degree(), 0.0);
        assert_eq!(t.avg_path_length(), 0.0);
    }
}
