//! Tiered per-flood visited sets.
//!
//! A flood's duplicate-suppression set used to be a [`NodeBitset`] sized
//! to the whole world: O(N) words per live flood, which is exactly the
//! memory wall between the paper's 500 nodes and a 100k+ node grid.
//! Most floods only ever visit a few dozen nodes (the hop budget and
//! fan-out bound the reach long before the world does), so
//! [`VisitedSet`] stores members in an inline sorted array first and
//! spills to the bitset tier only past [`SMALL_CAP`] members:
//!
//! * **Small tier** — a fixed `[u32; SMALL_CAP]` kept sorted; membership
//!   is a binary search, insertion a short `copy_within`. No heap at all.
//! * **Spill tier** — the classic [`NodeBitset`], sized to the world at
//!   the moment the slot was (re)armed. A slot that once spilled keeps
//!   its word allocation across recycling, so paper-scale runs (where
//!   floods saturate the overlay) reuse a handful of bitsets exactly as
//!   before.
//!
//! Both tiers track an explicit population count, so `len`/`is_empty`
//! are O(1) — the invariant audit probes every live flood's set and must
//! not pay an O(N/64) word scan per probe.
//!
//! The set semantics (`insert` returns *fresh*, `contains`, O(1)
//! emptiness) are identical across tiers and to the old all-bitset
//! representation; the proptests at the bottom pin that equivalence, and
//! the 500-node goldens pin it end-to-end. Representation only — no RNG
//! draw or event ordering depends on the tier.

use aria_overlay::NodeId;

/// Members held inline before spilling to the bitset tier. Sized so the
/// common few-dozen-hop flood never allocates, while one slot stays a
/// cache-friendly couple of lines.
pub(crate) const SMALL_CAP: usize = 32;

/// A bitset over node indices, sized in 64-bit words.
///
/// Out-of-range queries answer `false` and out-of-range inserts grow the
/// set, so floods opened before an overlay join keep working after it.
/// The population count is tracked, making [`NodeBitset::is_empty`] O(1).
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeBitset {
    words: Vec<u64>,
    /// Number of set bits (kept in lock-step by `insert`/`clear`).
    ones: u32,
}

impl NodeBitset {
    /// An empty set with capacity for `nodes` indices. Production sets
    /// start unallocated (a spill tier materializes lazily); the tests
    /// and the equivalence reference build sized sets directly.
    #[cfg(test)]
    pub fn with_capacity(nodes: usize) -> Self {
        NodeBitset { words: vec![0; nodes.div_ceil(64)], ones: 0 }
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let index = node.index();
        self.words.get(index / 64).is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Inserts `node`, growing the set if needed. Returns `false` if the
    /// node was already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let index = node.index();
        if index / 64 >= self.words.len() {
            self.words.resize(index / 64 + 1, 0);
        }
        let word = &mut self.words[index / 64];
        let bit = 1 << (index % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.ones += u32::from(fresh);
        fresh
    }

    /// Empties the set, keeping its capacity (constant-time per word).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Whether the set contains no nodes at all (O(1): tracked count).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of members (O(1): tracked count).
    pub fn len(&self) -> usize {
        self.ones as usize
    }

    /// Re-sizes an *empty* set's capacity to `nodes` indices, so a
    /// recycled set matches the current world instead of re-growing word
    /// by word on its first out-of-range insert.
    pub fn reset_capacity(&mut self, nodes: usize) {
        debug_assert!(self.is_empty(), "reset_capacity on a non-empty set");
        self.words.resize(nodes.div_ceil(64), 0);
    }

    /// Capacity in indices (diagnostics and tests).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }
}

/// A flood's visited set: inline sorted small-set first, bitset past
/// [`SMALL_CAP`] members (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct VisitedSet {
    /// Population count across whichever tier is active (O(1) `len`).
    len: u32,
    /// Whether the bitset tier is authoritative.
    spilled: bool,
    /// World size recorded at (re)arm time; sizes the spill allocation.
    world: u32,
    /// The inline sorted tier: `small[..len]` ascending while not spilled.
    small: [u32; SMALL_CAP],
    /// The spill tier. Unallocated until the first spill; retained (and
    /// re-sized to the current world) across [`VisitedSet::reset`] so
    /// recycled flood slots reuse the words.
    bits: NodeBitset,
}

impl Default for VisitedSet {
    fn default() -> Self {
        VisitedSet::with_capacity(0)
    }
}

impl VisitedSet {
    /// An empty set for a world of `nodes` indices. Allocation-free: the
    /// bitset tier materializes only if the set spills.
    #[expect(clippy::cast_possible_truncation, reason = "node indices are u32 (NodeId)")]
    pub fn with_capacity(nodes: usize) -> Self {
        VisitedSet {
            len: 0,
            spilled: false,
            world: nodes as u32,
            small: [0; SMALL_CAP],
            bits: NodeBitset::default(),
        }
    }

    /// Re-arms a recycled set for a world of `nodes` indices: empties it
    /// and, if a spill allocation exists, re-sizes it to the *current*
    /// world up front (a recycled slot must not keep its pre-join
    /// capacity and re-grow on the first out-of-range insert).
    #[expect(clippy::cast_possible_truncation, reason = "node indices are u32 (NodeId)")]
    pub fn reset(&mut self, nodes: usize) {
        self.len = 0;
        self.spilled = false;
        self.world = nodes as u32;
        if !self.bits.words_unallocated() {
            self.bits.clear();
            self.bits.reset_capacity(nodes);
        }
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        if self.spilled {
            return self.bits.contains(node);
        }
        self.small[..self.len as usize].binary_search(&node.raw()).is_ok()
    }

    /// Inserts `node`. Returns `false` if the node was already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        if self.spilled {
            let fresh = self.bits.insert(node);
            self.len += u32::from(fresh);
            return fresh;
        }
        let raw = node.raw();
        let len = self.len as usize;
        match self.small[..len].binary_search(&raw) {
            Ok(_) => false,
            Err(pos) if len < SMALL_CAP => {
                self.small.copy_within(pos..len, pos + 1);
                self.small[pos] = raw;
                self.len += 1;
                true
            }
            Err(_) => {
                self.spill();
                let fresh = self.bits.insert(node);
                debug_assert!(fresh, "spilled member was not in the small tier");
                self.len += 1;
                true
            }
        }
    }

    /// Moves every small-tier member into the bitset tier.
    fn spill(&mut self) {
        debug_assert!(!self.spilled);
        // Size to the world as recorded at arm time (an id beyond it —
        // post-join traffic — still grows the bitset on insert).
        self.bits.clear();
        self.bits.reset_capacity(self.world as usize);
        for &raw in &self.small[..self.len as usize] {
            self.bits.insert(NodeId::new(raw));
        }
        self.spilled = true;
    }

    /// Whether the set contains no nodes at all (O(1): tracked count).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of members (O(1): tracked count).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set has spilled to the bitset tier (diagnostics: the
    /// scale bench reports how many flood slots ever left the inline
    /// tier).
    pub fn is_spilled(&self) -> bool {
        self.spilled
    }

    /// Capacity of the spill allocation in indices (tests only; 0 while
    /// the set has never spilled).
    #[cfg(test)]
    pub fn spill_capacity(&self) -> usize {
        self.bits.capacity()
    }
}

impl NodeBitset {
    /// Whether the word vector was never allocated (fresh set that has
    /// not served as a spill tier yet).
    fn words_unallocated(&self) -> bool {
        self.words.is_empty() && self.ones == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bitset_inserts_and_contains() {
        let mut set = NodeBitset::with_capacity(100);
        assert!(!set.contains(NodeId::new(3)));
        assert!(set.insert(NodeId::new(3)));
        assert!(set.contains(NodeId::new(3)));
        assert!(set.insert(NodeId::new(64))); // second word
        assert!(set.contains(NodeId::new(64)));
        assert!(!set.contains(NodeId::new(65)));
    }

    #[test]
    fn bitset_double_visit_is_reported() {
        let mut set = NodeBitset::with_capacity(10);
        assert!(set.insert(NodeId::new(7)));
        assert!(!set.insert(NodeId::new(7)), "second insert must report a duplicate");
        assert!(set.contains(NodeId::new(7)));
    }

    #[test]
    fn bitset_out_of_range_is_absent_and_insert_grows() {
        let mut set = NodeBitset::with_capacity(10);
        // Beyond capacity: contains answers false rather than panicking
        // (floods opened before an overlay join see the new node ids).
        assert!(!set.contains(NodeId::new(1000)));
        assert!(set.insert(NodeId::new(1000)));
        assert!(set.contains(NodeId::new(1000)));
        assert!(!set.contains(NodeId::new(999)));
    }

    #[test]
    fn bitset_clear_keeps_capacity() {
        let mut set = NodeBitset::with_capacity(128);
        set.insert(NodeId::new(90));
        set.clear();
        assert!(!set.contains(NodeId::new(90)));
        assert!(set.insert(NodeId::new(90)));
    }

    #[test]
    fn bitset_is_empty_tracks_contents() {
        let mut set = NodeBitset::with_capacity(100);
        assert!(set.is_empty());
        set.insert(NodeId::new(64)); // a high word alone must count
        assert!(!set.is_empty());
        assert_eq!(set.len(), 1);
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn bitset_reset_capacity_resizes_an_empty_set() {
        let mut set = NodeBitset::with_capacity(64);
        assert_eq!(set.capacity(), 64);
        set.insert(NodeId::new(5));
        set.clear();
        set.reset_capacity(256);
        assert_eq!(set.capacity(), 256);
        assert!(set.is_empty());
        set.reset_capacity(64);
        assert_eq!(set.capacity(), 64);
    }

    #[test]
    fn visited_set_stays_inline_below_the_threshold() {
        let mut set = VisitedSet::with_capacity(100_000);
        for i in 0..SMALL_CAP {
            assert!(set.insert(NodeId::from_index(i * 3)));
        }
        assert!(!set.is_spilled(), "{SMALL_CAP} members must fit inline");
        assert_eq!(set.spill_capacity(), 0, "no heap until the spill");
        assert_eq!(set.len(), SMALL_CAP);
        assert!(set.contains(NodeId::new(0)));
        assert!(set.contains(NodeId::from_index((SMALL_CAP - 1) * 3)));
        assert!(!set.contains(NodeId::new(1)));
        assert!(!set.insert(NodeId::new(0)), "duplicate must be reported inline");
    }

    #[test]
    fn visited_set_spills_past_the_threshold_and_keeps_semantics() {
        let mut set = VisitedSet::with_capacity(1000);
        for i in 0..=SMALL_CAP {
            assert!(set.insert(NodeId::from_index(i)));
        }
        assert!(set.is_spilled());
        assert_eq!(set.len(), SMALL_CAP + 1);
        assert_eq!(set.spill_capacity(), 1024, "spill sized to the world (word-rounded)");
        for i in 0..=SMALL_CAP {
            assert!(set.contains(NodeId::from_index(i)));
            assert!(!set.insert(NodeId::from_index(i)), "duplicate after spill");
        }
        assert!(!set.contains(NodeId::new(999)));
    }

    #[test]
    fn visited_set_insert_beyond_world_grows_like_the_bitset() {
        let mut set = VisitedSet::with_capacity(64);
        for i in 0..=SMALL_CAP {
            set.insert(NodeId::from_index(i));
        }
        // Post-join id beyond the armed world: answers false, then grows.
        assert!(!set.contains(NodeId::new(5000)));
        assert!(set.insert(NodeId::new(5000)));
        assert!(set.contains(NodeId::new(5000)));
    }

    #[test]
    fn visited_set_reset_resizes_a_spilled_slot_to_the_current_world() {
        let mut set = VisitedSet::with_capacity(64);
        for i in 0..=SMALL_CAP {
            set.insert(NodeId::from_index(i));
        }
        assert_eq!(set.spill_capacity(), 64);
        // The world grew (joins) before the slot is recycled: the spill
        // allocation must be re-sized up front, not re-grown on demand.
        set.reset(256);
        assert!(set.is_empty());
        assert!(!set.is_spilled(), "reset returns to the inline tier");
        assert_eq!(set.spill_capacity(), 256);
        assert!(!set.contains(NodeId::new(3)), "reset must empty the set");
        assert!(set.insert(NodeId::new(3)));
    }

    #[test]
    fn visited_set_reset_of_inline_slot_stays_allocation_free() {
        let mut set = VisitedSet::with_capacity(64);
        set.insert(NodeId::new(1));
        set.reset(100_000);
        assert_eq!(set.spill_capacity(), 0, "no spill ever happened: no words");
        assert!(set.is_empty());
    }

    /// One step of the equivalence property below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32),
        Contains(u32),
        Reset(u16),
    }

    prop_compose! {
        fn arb_op()(kind in 0u8..7, raw in 0u32..6000, nodes in 1u16..2048) -> Op {
            match kind {
                0..=3 => Op::Insert(raw),
                4..=5 => Op::Contains(raw),
                _ => Op::Reset(nodes),
            }
        }
    }

    proptest! {
        /// Satellite-4 equivalence: the tiered set and the plain bitset
        /// must agree on insert-freshness, membership, count and
        /// emptiness under arbitrary interleavings of inserts, membership
        /// probes and recycling resets with world growth (overlay joins)
        /// in between.
        #[test]
        fn tiered_set_matches_the_bitset_reference(
            world in 1usize..2048,
            ops in proptest::collection::vec(arb_op(), 1..200),
        ) {
            let mut tiered = VisitedSet::with_capacity(world);
            let mut reference = NodeBitset::with_capacity(world);
            for op in ops {
                match op {
                    Op::Insert(raw) => {
                        let node = NodeId::new(raw);
                        prop_assert_eq!(tiered.insert(node), reference.insert(node));
                    }
                    Op::Contains(raw) => {
                        let node = NodeId::new(raw);
                        prop_assert_eq!(tiered.contains(node), reference.contains(node));
                    }
                    Op::Reset(nodes) => {
                        // A recycled slot in a (possibly re-sized) world.
                        tiered.reset(nodes as usize);
                        reference = NodeBitset::with_capacity(nodes as usize);
                    }
                }
                prop_assert_eq!(tiered.is_empty(), reference.is_empty());
                prop_assert_eq!(tiered.len(), reference.len());
            }
        }
    }
}
