//! Pure scheduling decisions: which segment next, from which source.

use rand::rngs::StdRng;
use rand::Rng;
use splicecast_netsim::NodeId;

/// Picks the next segment to request: streaming is sequential, so it is the
/// lowest-indexed segment that is neither held nor already in flight.
pub fn next_wanted<H, F>(segment_count: u32, held: H, in_flight: F) -> Option<u32>
where
    H: Fn(u32) -> bool,
    F: Fn(u32) -> bool,
{
    next_wanted_from(0, segment_count, held, in_flight)
}

/// Like [`next_wanted`], but starts scanning at `from`. Callers that track a
/// low-water mark (segments below it are all held) avoid re-walking the
/// played-out prefix on every scheduling pass.
pub fn next_wanted_from<H, F>(from: u32, segment_count: u32, held: H, in_flight: F) -> Option<u32>
where
    H: Fn(u32) -> bool,
    F: Fn(u32) -> bool,
{
    (from..segment_count).find(|&i| !held(i) && !in_flight(i))
}

/// One segment's holder set: a hybrid representation that starts as a
/// sorted sparse vector and promotes to a dense per-peer-slot bitset once
/// the population crosses the index's threshold.
///
/// Both representations iterate holders in ascending `NodeId` order —
/// sparse by sortedness, dense by walking words from bit 0 up (bit *i* of
/// the bitset is the node with dense index *i*, and dense indices are
/// assigned in ascending `NodeId` order) — so scheduling picks are
/// bit-identical whichever representation a set happens to be in.
#[derive(Debug, Clone)]
enum HolderSet {
    /// Sorted by `NodeId`, binary-searched; cheap while small.
    Sparse(Vec<NodeId>),
    /// One bit per node index; O(1) insert/remove and 1 bit/peer instead
    /// of 32 once a set approaches swarm population.
    Dense(Box<[u64]>),
}

impl Default for HolderSet {
    fn default() -> Self {
        HolderSet::Sparse(Vec::new())
    }
}

impl HolderSet {
    fn contains(&self, peer: NodeId) -> bool {
        match self {
            HolderSet::Sparse(v) => v.binary_search(&peer).is_ok(),
            HolderSet::Dense(words) => {
                let i = peer.index();
                words
                    .get(i / 64)
                    .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            HolderSet::Sparse(v) => v.len(),
            HolderSet::Dense(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Heap bytes behind this set (allocator-visible capacity).
    fn heap_bytes(&self) -> usize {
        match self {
            HolderSet::Sparse(v) => v.capacity() * std::mem::size_of::<NodeId>(),
            HolderSet::Dense(words) => words.len() * std::mem::size_of::<u64>(),
        }
    }

    /// Rebuilds the sorted sparse form (demotion after removals).
    fn to_sparse(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    fn iter(&self) -> HolderIter<'_> {
        match self {
            HolderSet::Sparse(v) => HolderIter::Sparse(v.iter()),
            HolderSet::Dense(words) => HolderIter::Dense {
                words,
                word_ix: 0,
                current: words.first().copied().unwrap_or(0),
            },
        }
    }
}

/// Ascending-`NodeId` iterator over one segment's holders, independent of
/// the set's current representation.
#[derive(Debug, Clone)]
pub enum HolderIter<'a> {
    #[doc(hidden)]
    Sparse(std::slice::Iter<'a, NodeId>),
    #[doc(hidden)]
    Dense {
        words: &'a [u64],
        word_ix: usize,
        current: u64,
    },
}

impl Iterator for HolderIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            HolderIter::Sparse(it) => it.next().copied(),
            HolderIter::Dense {
                words,
                word_ix,
                current,
            } => {
                while *current == 0 {
                    *word_ix += 1;
                    *current = *words.get(*word_ix)?;
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(NodeId::from_index(*word_ix * 64 + bit))
            }
        }
    }
}

/// An incrementally maintained per-segment holder index: for each segment,
/// the set of handshaken peers known to hold it, as a hybrid
/// `HolderSet`.
///
/// This replaces the O(peers) rescan of every `PeerView` per scheduling
/// decision with an O(holders-of-one-segment) walk. Maintenance happens at
/// the points where knowledge changes — `Bitfield`/`Have`/`HaveBundle`
/// arrival, handshake completion, and peer eviction — which are each cheap
/// and already O(changed bits).
///
/// Determinism contract: iterating [`HolderIndex::of`] visits candidates
/// in ascending `NodeId` order in both representations, so picks are
/// bit-identical to walking the `BTreeMap` of peer views (and to a
/// sparse-only index — see the sparse-vs-hybrid differential test).
#[derive(Debug, Clone)]
pub struct HolderIndex {
    per_segment: Vec<HolderSet>,
    /// Sparse sets promote to dense when their population exceeds this.
    promote_at: usize,
    /// When `true`, never promote (differential-testing reference mode).
    sparse_only: bool,
    /// Cumulative sparse→dense promotions.
    dense_promotions: u64,
}

impl Default for HolderIndex {
    fn default() -> Self {
        HolderIndex::new(0)
    }
}

/// Promotion threshold for a swarm of `universe` node slots: the
/// break-even point where a dense bitset (`universe/8` bytes) costs no
/// more than the sparse vector it replaces (4 bytes per holder), with a
/// floor so tiny swarms never bother promoting.
fn promote_threshold(universe: usize) -> usize {
    (universe / 32).max(8)
}

impl HolderIndex {
    /// An empty index over `segment_count` segments with a minimal
    /// promotion threshold (tests and tiny swarms).
    pub fn new(segment_count: u32) -> Self {
        HolderIndex::with_universe(segment_count, 0)
    }

    /// An empty index over `segment_count` segments sized for a swarm of
    /// `universe` node slots: the sparse→dense promotion threshold is set
    /// at the memory break-even point `max(8, universe/32)`.
    pub fn with_universe(segment_count: u32, universe: usize) -> Self {
        HolderIndex {
            per_segment: vec![HolderSet::default(); segment_count as usize],
            promote_at: promote_threshold(universe),
            sparse_only: false,
            dense_promotions: 0,
        }
    }

    /// Pins every set to the sparse representation forever. Reference
    /// mode for the sparse-vs-hybrid differential test; behaviour must be
    /// bit-identical to the hybrid default.
    pub fn sparse_only(mut self) -> Self {
        self.sparse_only = true;
        self
    }

    /// Records `peer` as a holder of `segment`. Returns `true` when the
    /// entry is new. Out-of-range segments are ignored. A sparse set that
    /// crosses the promotion threshold converts to the dense form.
    pub fn insert(&mut self, segment: u32, peer: NodeId) -> bool {
        let Some(holders) = self.per_segment.get_mut(segment as usize) else {
            return false;
        };
        match holders {
            HolderSet::Sparse(v) => match v.binary_search(&peer) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, peer);
                    if !self.sparse_only && v.len() > self.promote_at {
                        let top = v.last().expect("non-empty after insert").index();
                        let mut words = vec![0u64; top / 64 + 1].into_boxed_slice();
                        for n in v.iter() {
                            let i = n.index();
                            words[i / 64] |= 1u64 << (i % 64);
                        }
                        *holders = HolderSet::Dense(words);
                        self.dense_promotions += 1;
                    }
                    true
                }
            },
            HolderSet::Dense(words) => {
                let i = peer.index();
                if i / 64 >= words.len() {
                    let mut grown = vec![0u64; i / 64 + 1].into_boxed_slice();
                    grown[..words.len()].copy_from_slice(words);
                    *words = grown;
                }
                let fresh = words[i / 64] & (1u64 << (i % 64)) == 0;
                words[i / 64] |= 1u64 << (i % 64);
                fresh
            }
        }
    }

    /// Removes `peer` as a holder of `segment`. Returns `true` when an
    /// entry was removed. A dense set that drains below half the
    /// promotion threshold demotes back to sparse (hysteresis, so a set
    /// hovering at the threshold does not flap).
    pub fn remove(&mut self, segment: u32, peer: NodeId) -> bool {
        let Some(holders) = self.per_segment.get_mut(segment as usize) else {
            return false;
        };
        let removed = match holders {
            HolderSet::Sparse(v) => match v.binary_search(&peer) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            HolderSet::Dense(words) => {
                let i = peer.index();
                let had = words
                    .get(i / 64)
                    .is_some_and(|w| w & (1u64 << (i % 64)) != 0);
                if had {
                    words[i / 64] &= !(1u64 << (i % 64));
                }
                had
            }
        };
        if removed {
            Self::maybe_shrink(holders, self.promote_at);
        }
        removed
    }

    /// Removes `peer` from every segment's holder set (peer eviction).
    /// Returns the number of entries removed.
    ///
    /// Shrinks-on-evict: a sparse set whose capacity has drifted to more
    /// than twice its population is reallocated down, and a dense set
    /// that drained below half the promotion threshold demotes back to
    /// sparse — so long-lived swarms with churn do not keep
    /// peak-population storage pinned for every segment.
    pub fn remove_peer(&mut self, peer: NodeId) -> u64 {
        let mut removed = 0;
        for holders in &mut self.per_segment {
            match holders {
                HolderSet::Sparse(v) => {
                    if let Ok(pos) = v.binary_search(&peer) {
                        v.remove(pos);
                        removed += 1;
                        Self::maybe_shrink(holders, self.promote_at);
                    }
                }
                HolderSet::Dense(words) => {
                    let i = peer.index();
                    if words
                        .get(i / 64)
                        .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
                    {
                        words[i / 64] &= !(1u64 << (i % 64));
                        removed += 1;
                        Self::maybe_shrink(holders, self.promote_at);
                    }
                }
            }
        }
        removed
    }

    /// Post-removal storage hygiene for one set: demote a drained dense
    /// set, shrink an over-capacity sparse one.
    fn maybe_shrink(holders: &mut HolderSet, promote_at: usize) {
        match holders {
            HolderSet::Sparse(v) => {
                if v.capacity() > 8 && v.capacity() > v.len() * 2 {
                    v.shrink_to_fit();
                }
            }
            HolderSet::Dense(_) => {
                if holders.len() < promote_at / 2 {
                    *holders = HolderSet::Sparse(holders.to_sparse());
                }
            }
        }
    }

    /// Frees one segment's holder set entirely, returning its memory to
    /// the allocator and resetting it to the sparse representation. The
    /// leecher calls this for segments it has acquired (and has no raced
    /// in-flight entry left for): the scheduler can never pick them
    /// again, so their sets would be dead weight.
    pub fn purge_segment(&mut self, segment: u32) {
        if let Some(holders) = self.per_segment.get_mut(segment as usize) {
            *holders = HolderSet::default();
        }
    }

    /// Iterates the holders of `segment` in ascending `NodeId` order.
    pub fn of(&self, segment: u32) -> HolderIter<'_> {
        static EMPTY: [NodeId; 0] = [];
        self.per_segment
            .get(segment as usize)
            .map(HolderSet::iter)
            .unwrap_or(HolderIter::Sparse(EMPTY.iter()))
    }

    /// Whether `peer` is indexed as a holder of `segment`.
    pub fn contains(&self, segment: u32, peer: NodeId) -> bool {
        self.per_segment
            .get(segment as usize)
            .is_some_and(|h| h.contains(peer))
    }

    /// Whether `segment`'s set is currently in the dense representation.
    pub fn is_dense(&self, segment: u32) -> bool {
        matches!(
            self.per_segment.get(segment as usize),
            Some(HolderSet::Dense(_))
        )
    }

    /// Cumulative sparse→dense promotions over this index's lifetime.
    pub fn dense_promotions(&self) -> u64 {
        self.dense_promotions
    }

    /// Point-in-time representation census: `(non-empty sparse sets,
    /// dense sets)`.
    pub fn census(&self) -> (u64, u64) {
        let mut sparse = 0;
        let mut dense = 0;
        for holders in &self.per_segment {
            match holders {
                HolderSet::Sparse(v) if !v.is_empty() => sparse += 1,
                HolderSet::Sparse(_) => {}
                HolderSet::Dense(_) => dense += 1,
            }
        }
        (sparse, dense)
    }

    /// Bytes of heap behind this index: the per-segment spine plus every
    /// set's *capacity* (allocator-visible cost, not just population).
    pub fn heap_bytes(&self) -> usize {
        let spine = self.per_segment.capacity() * std::mem::size_of::<HolderSet>();
        let sets: usize = self.per_segment.iter().map(HolderSet::heap_bytes).sum();
        spine + sets
    }

    /// Live entries across every segment.
    pub fn live_entries(&self) -> u64 {
        self.per_segment.iter().map(|h| h.len() as u64).sum()
    }
}

/// A candidate upload source with its current load (requests we already
/// have outstanding to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceCandidate {
    /// The peer that holds the segment.
    pub peer: NodeId,
    /// Our outstanding requests to that peer.
    pub outstanding: u32,
}

/// Picks the least-loaded candidate, breaking ties uniformly at random.
/// Spreading by load is what lets the swarm shift traffic off the seeder as
/// replicas appear.
pub fn pick_source(candidates: &[SourceCandidate], rng: &mut StdRng) -> Option<NodeId> {
    let min = candidates.iter().map(|c| c.outstanding).min()?;
    let tied = candidates.iter().filter(|c| c.outstanding == min).count();
    // The second filter pass replaces collecting the tied peers into a
    // Vec; the RNG is consulted exactly as before, so seeded runs pick
    // the same sources.
    let pick = if tied == 1 { 0 } else { rng.gen_range(0..tied) };
    candidates
        .iter()
        .filter(|c| c.outstanding == min)
        .nth(pick)
        .map(|c| c.peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn next_wanted_is_sequential() {
        let held = [true, true, false, false, true];
        let in_flight = [false, false, true, false, false];
        let next = next_wanted(5, |i| held[i as usize], |i| in_flight[i as usize]);
        assert_eq!(next, Some(3));
    }

    #[test]
    fn next_wanted_exhausted() {
        assert_eq!(next_wanted(3, |_| true, |_| false), None);
        assert_eq!(next_wanted(3, |_| false, |_| true), None);
        assert_eq!(next_wanted(0, |_| false, |_| false), None);
    }

    #[test]
    fn pick_source_prefers_least_loaded() {
        let mut rng = StdRng::seed_from_u64(1);
        let candidates = [
            SourceCandidate {
                peer: node(1),
                outstanding: 3,
            },
            SourceCandidate {
                peer: node(2),
                outstanding: 0,
            },
            SourceCandidate {
                peer: node(3),
                outstanding: 1,
            },
        ];
        for _ in 0..10 {
            assert_eq!(pick_source(&candidates, &mut rng), Some(node(2)));
        }
    }

    #[test]
    fn pick_source_breaks_ties_randomly() {
        let mut rng = StdRng::seed_from_u64(7);
        let candidates = [
            SourceCandidate {
                peer: node(1),
                outstanding: 0,
            },
            SourceCandidate {
                peer: node(2),
                outstanding: 0,
            },
        ];
        let picks: std::collections::HashSet<NodeId> = (0..64)
            .map(|_| pick_source(&candidates, &mut rng).unwrap())
            .collect();
        assert_eq!(
            picks.len(),
            2,
            "both tied candidates should be picked eventually"
        );
    }

    #[test]
    fn pick_source_empty_is_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pick_source(&[], &mut rng), None);
    }

    fn holders(idx: &HolderIndex, segment: u32) -> Vec<NodeId> {
        idx.of(segment).collect()
    }

    #[test]
    fn holder_index_insert_is_sorted_and_deduplicated() {
        let mut idx = HolderIndex::new(3);
        assert!(idx.insert(0, node(5)));
        assert!(idx.insert(0, node(2)));
        assert!(idx.insert(0, node(9)));
        assert!(!idx.insert(0, node(5)), "duplicate insert is a no-op");
        assert_eq!(holders(&idx, 0), vec![node(2), node(5), node(9)]);
        assert_eq!(idx.of(1).count(), 0);
    }

    #[test]
    fn holder_index_remove() {
        let mut idx = HolderIndex::new(2);
        idx.insert(1, node(3));
        idx.insert(1, node(4));
        assert!(idx.remove(1, node(3)));
        assert!(!idx.remove(1, node(3)), "double remove is a no-op");
        assert_eq!(holders(&idx, 1), vec![node(4)]);
    }

    #[test]
    fn holder_index_remove_peer_sweeps_all_segments() {
        let mut idx = HolderIndex::new(4);
        for seg in 0..4 {
            idx.insert(seg, node(7));
        }
        idx.insert(2, node(8));
        assert_eq!(idx.remove_peer(node(7)), 4);
        assert_eq!(idx.remove_peer(node(7)), 0);
        assert_eq!(holders(&idx, 2), vec![node(8)]);
    }

    #[test]
    fn holder_index_out_of_range_is_ignored() {
        let mut idx = HolderIndex::new(1);
        assert!(!idx.insert(5, node(1)));
        assert!(!idx.remove(5, node(1)));
        assert_eq!(idx.of(5).count(), 0);
    }

    /// Crossing the promotion threshold flips a set to the dense bitset;
    /// membership and ascending iteration order are unchanged.
    #[test]
    fn holder_set_promotes_to_dense_past_threshold() {
        // `new` uses the floor threshold of 8.
        let mut idx = HolderIndex::new(2);
        // Insert in a scrambled order, crossing the threshold mid-way.
        let order = [13usize, 2, 30, 7, 21, 4, 18, 9, 26, 11, 5];
        for (k, &i) in order.iter().enumerate() {
            assert!(idx.insert(0, node(i)));
            assert_eq!(idx.is_dense(0), k + 1 > 8, "after {} inserts", k + 1);
        }
        assert_eq!(idx.dense_promotions(), 1);
        let mut expected: Vec<NodeId> = order.iter().map(|&i| node(i)).collect();
        expected.sort();
        assert_eq!(holders(&idx, 0), expected);
        assert!(idx.contains(0, node(30)) && !idx.contains(0, node(3)));
        assert!(!idx.insert(0, node(21)), "duplicate insert in dense form");
        assert_eq!(idx.census(), (0, 1));

        // The sparse-only reference never promotes but sees the same set.
        let mut sparse = HolderIndex::new(2).sparse_only();
        for &i in &order {
            sparse.insert(0, node(i));
        }
        assert!(!sparse.is_dense(0));
        assert_eq!(sparse.dense_promotions(), 0);
        assert_eq!(holders(&sparse, 0), expected);
        assert_eq!(sparse.census(), (1, 0));
    }

    /// Removals drain a dense set back below half the threshold and it
    /// demotes to sparse (hysteresis: not at the threshold itself).
    #[test]
    fn holder_set_demotes_with_hysteresis() {
        let mut idx = HolderIndex::new(1);
        for i in 0..12 {
            idx.insert(0, node(i));
        }
        assert!(idx.is_dense(0));
        // Down to 4 = threshold/2: still dense.
        for i in 0..8 {
            assert!(idx.remove(0, node(i)));
        }
        assert!(idx.is_dense(0), "hysteresis holds at threshold/2");
        // One more removal crosses the demotion floor.
        assert!(idx.remove(0, node(8)));
        assert!(!idx.is_dense(0));
        assert_eq!(holders(&idx, 0), vec![node(9), node(10), node(11)]);

        // `remove_peer` sweeps demote too.
        let mut idx = HolderIndex::new(1);
        for i in 0..12 {
            idx.insert(0, node(i));
        }
        for i in 0..9 {
            assert_eq!(idx.remove_peer(node(i)), 1);
        }
        assert!(!idx.is_dense(0));
        assert_eq!(holders(&idx, 0), vec![node(9), node(10), node(11)]);
    }

    /// A dense set grows its word array when a higher node index arrives
    /// than the set was sized for at promotion time.
    #[test]
    fn dense_set_grows_for_late_high_indices() {
        let mut idx = HolderIndex::new(1);
        for i in 0..10 {
            idx.insert(0, node(i));
        }
        assert!(idx.is_dense(0));
        assert!(idx.insert(0, node(700)));
        assert!(idx.contains(0, node(700)));
        let got = holders(&idx, 0);
        assert_eq!(got.len(), 11);
        assert_eq!(*got.last().unwrap(), node(700));
    }

    /// The universe hint raises the promotion threshold to the memory
    /// break-even point.
    #[test]
    fn universe_hint_sets_promotion_threshold() {
        let mut idx = HolderIndex::with_universe(1, 2048);
        for i in 0..64 {
            idx.insert(0, node(i));
        }
        assert!(!idx.is_dense(0), "64 holders sit at the 2048/32 threshold");
        idx.insert(0, node(64));
        assert!(idx.is_dense(0), "65th holder crosses it");
    }

    /// `purge_segment` resets a dense set back to an empty sparse one.
    #[test]
    fn purge_resets_representation() {
        let mut idx = HolderIndex::new(1);
        for i in 0..10 {
            idx.insert(0, node(i));
        }
        assert!(idx.is_dense(0));
        idx.purge_segment(0);
        assert!(!idx.is_dense(0));
        assert_eq!(idx.of(0).count(), 0);
        assert_eq!(idx.census(), (0, 0));
        assert_eq!(idx.heap_bytes(), std::mem::size_of::<HolderSet>());
    }
}
