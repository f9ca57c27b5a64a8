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

/// Ascending-`NodeId` iterator over one segment's holders in the retired
/// [`HolderIndex`]: a walk over the set's words from bit 0 up (bit *i* is
/// the node with index *i*).
#[derive(Debug, Clone)]
pub struct HolderIter<'a> {
    words: &'a [u64],
    word_ix: usize,
    current: u64,
}

impl Iterator for HolderIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_ix += 1;
            self.current = *self.words.get(self.word_ix)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::from_index(self.word_ix * 64 + bit))
    }
}

/// Retired: a per-segment holder index, one bitset over the node universe
/// per segment. No leecher keeps one any more (a pick walks the
/// neighbour views); it stays only for the microbenchmarks in
/// `benchmark/src/drivers.rs`, which time exactly this surface
/// (ROADMAP 5(d)).
///
/// A set costs nothing until its first holder arrives; it is then
/// allocated at the universe's width (widened if a higher node index
/// arrives). [`HolderIndex::of`] visits holders in ascending `NodeId`
/// order.
#[derive(Debug, Clone, Default)]
pub struct HolderIndex {
    per_segment: Vec<Box<[u64]>>,
    /// Words a set is allocated with: ⌈universe/64⌉.
    words: usize,
}

/// The word holding `peer`'s bit, and the bit's mask within it.
fn slot(peer: NodeId) -> (usize, u64) {
    let i = peer.index();
    (i / 64, 1u64 << (i % 64))
}

impl HolderIndex {
    /// An empty index over `segment_count` segments of a swarm of
    /// `universe` node slots: each set is allocated that wide at its first
    /// insert.
    pub fn with_universe(segment_count: u32, universe: usize) -> Self {
        HolderIndex {
            per_segment: vec![Box::default(); segment_count as usize],
            words: universe.div_ceil(64),
        }
    }

    /// Records `peer` as a holder of `segment`. Returns `true` when the
    /// entry is new. Out-of-range segments are ignored.
    pub fn insert(&mut self, segment: u32, peer: NodeId) -> bool {
        let Some(set) = self.per_segment.get_mut(segment as usize) else {
            return false;
        };
        let (word, bit) = slot(peer);
        if word >= set.len() {
            let mut wider = vec![0u64; self.words.max(word + 1)].into_boxed_slice();
            wider[..set.len()].copy_from_slice(set);
            *set = wider;
        }
        let fresh = set[word] & bit == 0;
        set[word] |= bit;
        fresh
    }

    /// Removes `peer` from every segment's holder set. Returns the number
    /// of entries removed.
    pub fn remove_peer(&mut self, peer: NodeId) -> u64 {
        let (word, bit) = slot(peer);
        let mut removed = 0;
        for w in self
            .per_segment
            .iter_mut()
            .filter_map(|set| set.get_mut(word))
        {
            removed += u64::from(*w & bit != 0);
            *w &= !bit;
        }
        removed
    }

    /// Iterates the holders of `segment` in ascending `NodeId` order.
    pub fn of(&self, segment: u32) -> HolderIter<'_> {
        let words = self
            .per_segment
            .get(segment as usize)
            .map_or(&[][..], |set| &set[..]);
        HolderIter {
            words,
            word_ix: 0,
            current: words.first().copied().unwrap_or(0),
        }
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
    use proptest::prelude::*;
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
        let mut idx = HolderIndex::with_universe(3, 64);
        assert!(idx.insert(0, node(5)));
        assert!(idx.insert(0, node(2)));
        assert!(idx.insert(0, node(9)));
        assert!(!idx.insert(0, node(5)), "duplicate insert is a no-op");
        assert_eq!(holders(&idx, 0), vec![node(2), node(5), node(9)]);
        assert_eq!(idx.of(1).count(), 0);
    }

    #[test]
    fn holder_index_remove_peer_sweeps_all_segments() {
        let mut idx = HolderIndex::with_universe(4, 64);
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
        let mut idx = HolderIndex::with_universe(1, 64);
        assert!(!idx.insert(5, node(1)));
        assert_eq!(idx.of(5).count(), 0);
    }

    /// A set widens when a higher node index arrives than the universe it
    /// was allocated for.
    #[test]
    fn set_widens_for_late_high_indices() {
        let mut idx = HolderIndex::with_universe(1, 64);
        for i in 0..10 {
            idx.insert(0, node(i));
        }
        assert!(idx.insert(0, node(700)));
        assert!(!idx.insert(0, node(700)));
        let got = holders(&idx, 0);
        assert_eq!(got.len(), 11);
        assert_eq!(*got.last().unwrap(), node(700));
        assert_eq!(idx.remove_peer(node(700)), 1);
        assert_eq!(holders(&idx, 0).len(), 10);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, usize),
        RemovePeer(usize),
    }

    /// Four segments (one past the index's three, so out-of-range calls
    /// are exercised) and node indices up to 300, past the 64-slot
    /// universe the index is built with, so sets must widen.
    fn op() -> impl Strategy<Value = Op> {
        let seg = || 0u32..4;
        let peer = || 0usize..300;
        prop_oneof![
            (seg(), peer()).prop_map(|(s, p)| Op::Insert(s, p)),
            (seg(), peer()).prop_map(|(s, p)| Op::Insert(s, p)),
            (seg(), peer()).prop_map(|(s, p)| Op::Insert(s, p)),
            peer().prop_map(Op::RemovePeer),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 2048 }))]

        /// The index against a `BTreeSet<(segment, NodeId)>`: every return
        /// value, and after every step each segment's holders (ascending).
        #[test]
        fn every_step_matches_a_btreeset_model(ops in prop::collection::vec(op(), 1..300)) {
            const SEGMENTS: u32 = 3;
            let mut real = HolderIndex::with_universe(SEGMENTS, 64);
            let mut model = std::collections::BTreeSet::<(u32, NodeId)>::new();
            for op in ops {
                match op {
                    Op::Insert(s, p) => {
                        let fresh = s < SEGMENTS && model.insert((s, node(p)));
                        prop_assert_eq!(real.insert(s, node(p)), fresh);
                    }
                    Op::RemovePeer(p) => {
                        let before = model.len();
                        model.retain(|&(_, n)| n != node(p));
                        prop_assert_eq!(real.remove_peer(node(p)), (before - model.len()) as u64);
                    }
                }
                for s in 0..=SEGMENTS {
                    let expected: Vec<NodeId> =
                        model.range((s, node(0))..(s + 1, node(0))).map(|&(_, n)| n).collect();
                    prop_assert_eq!(holders(&real, s), expected);
                }
            }
        }
    }
}
