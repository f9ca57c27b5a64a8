//! A leecher's neighbour views, stored as columns indexed by node id.
//!
//! Each neighbour's view is what the leecher knows of it (§III's
//! per-neighbour availability map): whether it is known at all (`live`),
//! whether we greeted it, whether it greeted us (`handshaken`) and which
//! segments it showed us (its holdings row). Node ids are small dense
//! integers, so a view is one slot of each of four columns: a bit in each
//! of three bitsets and `⌈segments/64⌉` words of one row-major holdings
//! table, bit *i* being segment *i*. How many of our requests a neighbour
//! holds is no column: the leecher counts it from its in-flight records.
//! Walks go in ascending id order — the order every ordering-sensitive
//! walk in the leecher relies on — and skip absent slots 64 at a time.
//! The price is one slot per node id up to the largest one seen, occupied
//! or not.

use splicecast_netsim::NodeId;
use splicecast_protocol::Bitfield;

#[derive(Debug)]
pub(crate) struct Views {
    /// Segments in the video: the width of a holdings row, in bits.
    segments: u32,
    live: Vec<u64>,
    /// We have sent them our handshake.
    greeted: Vec<u64>,
    /// They have sent us their handshake.
    handshaken: Vec<u64>,
    /// Row `i` is node `i`'s holdings; no bit at or above `segments` is
    /// ever set.
    holdings: Vec<u64>,
}

/// Whether bit `index` of `set` is set; bits past the end are clear.
#[inline]
fn bit(set: &[u64], index: usize) -> bool {
    set.get(index / 64)
        .is_some_and(|word| word >> (index % 64) & 1 != 0)
}

#[inline]
fn put(set: &mut [u64], index: usize, value: bool) {
    let mask = 1u64 << (index % 64);
    if value {
        set[index / 64] |= mask;
    } else {
        set[index / 64] &= !mask;
    }
}

/// Writes `value` into `node`'s bit of `column` if `node` has a view.
#[inline]
fn put_if_live(live: &[u64], column: &mut [u64], node: NodeId, value: bool) {
    if bit(live, node.index()) {
        put(column, node.index(), value);
    }
}

/// The indices of the set bits of `words`, ascending: bit `i` of word `w`
/// is index `64·w + i`. A zero word costs one test.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

impl Views {
    /// No views, with room for every node id below `slots` (larger ids
    /// still work; the columns grow to reach them), over a video of
    /// `segments` segments.
    pub fn with_slots(slots: usize, segments: u32) -> Self {
        let set = vec![0; slots.div_ceil(64)];
        Views {
            segments,
            live: set.clone(),
            greeted: set.clone(),
            handshaken: set,
            holdings: vec![0; slots * (segments as usize).div_ceil(64)],
        }
    }

    /// Number of views (not slots).
    pub fn len(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn contains(&self, node: NodeId) -> bool {
        bit(&self.live, node.index())
    }

    /// The view's bit of `column`: clear when there is no view.
    fn flag(&self, column: &[u64], node: NodeId) -> bool {
        self.contains(node) && bit(column, node.index())
    }

    /// A fresh view of `node` with nothing known, replacing any.
    pub fn insert(&mut self, node: NodeId) {
        let index = node.index();
        let slots = index + 1;
        if self.live.len() * 64 < slots {
            for set in [&mut self.live, &mut self.greeted, &mut self.handshaken] {
                set.resize(slots.div_ceil(64), 0);
            }
        }
        let row_end = slots * self.row_words();
        if self.holdings.len() < row_end {
            self.holdings.resize(row_end, 0);
        }
        put(&mut self.live, index, true);
        put(&mut self.greeted, index, false);
        put(&mut self.handshaken, index, false);
        self.row_mut(index).fill(0);
    }

    /// Inserts a fresh view of `node` unless it has one.
    pub fn get_or_insert(&mut self, node: NodeId) {
        if !self.contains(node) {
            self.insert(node);
        }
    }

    /// Drops the view of `node`, returning whether there was one.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let had = self.contains(node);
        if had {
            put(&mut self.live, node.index(), false);
        }
        had
    }

    /// Whether we have sent `node` our handshake.
    pub fn greeted(&self, node: NodeId) -> bool {
        self.flag(&self.greeted, node)
    }

    pub fn set_greeted(&mut self, node: NodeId, value: bool) {
        put_if_live(&self.live, &mut self.greeted, node, value);
    }

    /// Whether `node` has sent us its handshake.
    pub fn handshaken(&self, node: NodeId) -> bool {
        self.flag(&self.handshaken, node)
    }

    pub fn set_handshaken(&mut self, node: NodeId, value: bool) {
        put_if_live(&self.live, &mut self.handshaken, node, value);
    }

    /// Words per holdings row.
    fn row_words(&self) -> usize {
        (self.segments as usize).div_ceil(64)
    }

    fn row(&self, index: usize) -> &[u64] {
        let words = self.row_words();
        &self.holdings[index * words..][..words]
    }

    fn row_mut(&mut self, index: usize) -> &mut [u64] {
        let words = self.row_words();
        &mut self.holdings[index * words..][..words]
    }

    /// Whether `node`'s view shows `segment`.
    pub fn holds(&self, node: NodeId, segment: u32) -> bool {
        self.contains(node)
            && segment < self.segments
            && bit(self.row(node.index()), segment as usize)
    }

    /// Sets `segment` in `node`'s view, returning whether the bit is new:
    /// false when it was set already, is out of range, or `node` has no
    /// view.
    pub fn learn(&mut self, node: NodeId, segment: u32) -> bool {
        if !self.contains(node) || segment >= self.segments || self.holds(node, segment) {
            return false;
        }
        put(self.row_mut(node.index()), segment as usize, true);
        true
    }

    /// Replaces `node`'s holdings with `shown`, if `node` has a view and
    /// `shown` is as wide as the video (a mismatched one is ignored).
    pub fn replace_holdings(&mut self, node: NodeId, shown: &Bitfield) {
        if !self.contains(node) || shown.len() != self.segments {
            return;
        }
        let row = self.row_mut(node.index());
        row.fill(0);
        for segment in shown.iter_set() {
            put(row, segment as usize, true);
        }
    }

    /// Sets every segment in `node`'s view, if it has one.
    pub fn fill(&mut self, node: NodeId) {
        if !self.contains(node) {
            return;
        }
        let tail = self.segments % 64;
        let row = self.row_mut(node.index());
        row.fill(u64::MAX);
        if tail != 0 {
            *row.last_mut().expect("a partial word is a word") = (1 << tail) - 1;
        }
    }

    /// The nodes with a view, in ascending [`NodeId`] order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        set_bits(self.live.iter().copied()).map(NodeId::from_index)
    }

    /// The handshaken nodes whose views show `segment`, in ascending
    /// [`NodeId`] order: one walk of `live & handshaken`, one row word
    /// tested per set bit.
    ///
    /// # Panics
    ///
    /// Panics when `segment` is not a segment of the video.
    pub fn holders(&self, segment: u32) -> impl Iterator<Item = NodeId> + '_ {
        assert!(
            segment < self.segments,
            "segment {segment} out of range {}",
            self.segments
        );
        let (words, word, shift) = (self.row_words(), segment as usize / 64, segment % 64);
        let known = self.live.iter().zip(&self.handshaken).map(|(l, h)| l & h);
        set_bits(known)
            .filter(move |&index| self.holdings[index * words + word] >> shift & 1 != 0)
            .map(NodeId::from_index)
    }

    /// Bytes the columns occupy: every allocated slot, occupied or not.
    pub fn table_bytes(&self) -> usize {
        use std::mem::size_of;
        let sets = self.live.capacity() + self.greeted.capacity() + self.handshaken.capacity();
        (sets + self.holdings.capacity()) * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// One view, written out: greeted, handshaken, holdings.
    #[derive(Debug, Clone, PartialEq)]
    struct Model {
        greeted: bool,
        handshaken: bool,
        holdings: Bitfield,
    }

    impl Model {
        fn fresh(segments: u32) -> Self {
            Model {
                greeted: false,
                handshaken: false,
                holdings: Bitfield::new(segments),
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize),
        GetOrInsert(usize),
        Remove(usize),
        /// Column 0 or 1: greeted, handshaken.
        Flag(usize, u8, bool),
        /// A segment index, taken modulo two past the video's length.
        Learn(usize, u32),
        /// Set bits modulo the field's length; `wide` makes the field one
        /// bit longer than the video, which the table must ignore.
        Replace(usize, Vec<u32>, bool),
        Fill(usize),
    }

    /// Mostly a few ids, so one view sees many operations (an arm drawn
    /// thrice is a weight), and some around the first bitset word's end
    /// and past the presized universe.
    fn op() -> impl Strategy<Value = Op> {
        let node = || prop_oneof![0usize..6, 0usize..6, 0usize..6, 60usize..70, 0usize..140];
        prop_oneof![
            node().prop_map(Op::Insert),
            node().prop_map(Op::GetOrInsert),
            node().prop_map(Op::Remove),
            (node(), 0u8..2, any::<bool>()).prop_map(|(n, c, v)| Op::Flag(n, c, v)),
            (node(), 0u8..2, any::<bool>()).prop_map(|(n, c, v)| Op::Flag(n, c, v)),
            (node(), any::<u32>()).prop_map(|(n, s)| Op::Learn(n, s)),
            (node(), any::<u32>()).prop_map(|(n, s)| Op::Learn(n, s)),
            (
                node(),
                proptest::collection::vec(any::<u32>(), 0..24),
                0u8..5,
            )
                .prop_map(|(n, bits, coin)| Op::Replace(n, bits, coin == 0)),
            node().prop_map(Op::Fill),
        ]
    }

    /// `node`'s view as the table answers it, or `None` without one.
    fn read(views: &Views, node: NodeId) -> Option<Model> {
        let mut holdings = Bitfield::new(views.segments);
        for s in (0..views.segments).filter(|&s| views.holds(node, s)) {
            holdings.set(s);
        }
        let view = Model {
            greeted: views.greeted(node),
            handshaken: views.handshaken(node),
            holdings,
        };
        if views.contains(node) {
            Some(view)
        } else {
            assert_eq!(view, Model::fresh(views.segments));
            None
        }
    }

    /// No holdings row has a bit at or above the video's length, live or
    /// not.
    fn rows_are_clean(views: &Views) -> bool {
        let tail = views.segments % 64;
        let words = views.row_words();
        tail == 0
            || views
                .holdings
                .chunks(words)
                .all(|row| row[words - 1] >> tail == 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

        /// Any operation sequence leaves the table equal to a `BTreeMap`
        /// of written-out views driven the same way: same answers, same
        /// ascending `iter`, the model's handshaken holders for every
        /// segment, and no stray bit past the video — whether the table
        /// was presized past the ids, short of them, or not at all, and
        /// whatever the row width.
        #[test]
        fn matches_a_btreemap_model(
            presize in prop_oneof![Just(0usize), Just(7), Just(64)],
            segments in prop_oneof![Just(1u32), Just(60), Just(64), Just(65), Just(197)],
            ops in proptest::collection::vec(op(), 0..160),
        ) {
            let mut views = Views::with_slots(presize, segments);
            let mut model: BTreeMap<NodeId, Model> = BTreeMap::new();
            for op in ops {
                let node = match op {
                    Op::Insert(n) => {
                        let node = NodeId::from_index(n);
                        views.insert(node);
                        model.insert(node, Model::fresh(segments));
                        node
                    }
                    Op::GetOrInsert(n) => {
                        let node = NodeId::from_index(n);
                        views.get_or_insert(node);
                        model.entry(node).or_insert_with(|| Model::fresh(segments));
                        node
                    }
                    Op::Remove(n) => {
                        let node = NodeId::from_index(n);
                        prop_assert_eq!(views.remove(node), model.remove(&node).is_some());
                        node
                    }
                    Op::Flag(n, column, value) => {
                        let node = NodeId::from_index(n);
                        type Field = fn(&mut Model) -> &mut bool;
                        let (set, field): (fn(&mut Views, NodeId, bool), Field) = match column {
                            0 => (Views::set_greeted, |m| &mut m.greeted),
                            _ => (Views::set_handshaken, |m| &mut m.handshaken),
                        };
                        set(&mut views, node, value);
                        if let Some(m) = model.get_mut(&node) {
                            *field(m) = value;
                        }
                        node
                    }
                    Op::Learn(n, raw) => {
                        let node = NodeId::from_index(n);
                        let segment = raw % (segments + 2);
                        let fresh = match model.get_mut(&node) {
                            Some(m) if segment < segments && !m.holdings.get(segment) => {
                                m.holdings.set(segment);
                                true
                            }
                            _ => false,
                        };
                        prop_assert_eq!(views.learn(node, segment), fresh);
                        node
                    }
                    Op::Replace(n, bits, wide) => {
                        let node = NodeId::from_index(n);
                        let len = segments + u32::from(wide);
                        let mut shown = Bitfield::new(len);
                        for bit in bits {
                            shown.set(bit % len);
                        }
                        views.replace_holdings(node, &shown);
                        if let (Some(m), false) = (model.get_mut(&node), wide) {
                            m.holdings = shown;
                        }
                        node
                    }
                    Op::Fill(n) => {
                        let node = NodeId::from_index(n);
                        views.fill(node);
                        if let Some(m) = model.get_mut(&node) {
                            m.holdings = Bitfield::full(segments);
                        }
                        node
                    }
                };
                prop_assert_eq!(read(&views, node), model.get(&node).cloned());
                prop_assert_eq!(views.len(), model.len());
                prop_assert!(views.iter().eq(model.keys().copied()));
                for w in 0..segments {
                    let want = model
                        .iter()
                        .filter(|(_, m)| m.handshaken && m.holdings.get(w))
                        .map(|(&n, _)| n);
                    prop_assert!(views.holders(w).eq(want), "holders of {}", w);
                }
                prop_assert!(!views.holds(node, segments));
                prop_assert!(rows_are_clean(&views));
            }
            for n in 0..150 {
                let node = NodeId::from_index(n);
                prop_assert_eq!(read(&views, node), model.get(&node).cloned());
            }
        }
    }

    #[test]
    fn fresh_view_defaults() {
        let mut views = Views::with_slots(4, 10);
        let node = NodeId::from_index(2);
        views.insert(node);
        assert!(!views.greeted(node));
        assert!(!views.handshaken(node));
        assert!(!(0..10).any(|s| views.holds(node, s)));
    }

    #[test]
    fn flags_are_independent() {
        let mut views = Views::with_slots(4, 4);
        let (v, other) = (NodeId::from_index(1), NodeId::from_index(3));
        views.insert(v);
        views.insert(other);
        views.set_greeted(v, true);
        views.set_handshaken(v, true);
        assert!(views.greeted(v) && views.handshaken(v));
        views.set_handshaken(v, false);
        assert!(!views.handshaken(v));
        assert!(
            views.greeted(v) && views.contains(v),
            "clearing one flag must not disturb the others"
        );
        views.set_greeted(v, false);
        assert!(!views.greeted(v) && views.contains(v));
        assert!(
            !views.greeted(other) && !views.handshaken(other) && views.contains(other),
            "nor another node's"
        );
    }

    /// A slot is three bits of flags and `⌈segments/64⌉` row words:
    /// 8.375 bytes at 60 two-second segments, 32.375 at 197 GOP segments.
    #[test]
    fn slot_bytes_follow_the_columns() {
        assert_eq!(Views::with_slots(64, 60).table_bytes(), 64 * 67 / 8);
        assert_eq!(Views::with_slots(64, 197).table_bytes(), 64 * 259 / 8);
    }

    /// Empty slots cost as much as occupied ones, and a view adds nothing.
    #[test]
    fn table_bytes_counts_every_slot() {
        let mut views = Views::with_slots(64, 60);
        assert_eq!(views.table_bytes(), 536, "empty slots cost as much");
        let node = NodeId::from_index(5);
        views.insert(node);
        views.fill(node);
        assert_eq!(views.table_bytes(), 536, "a view costs nothing extra");
        assert!(views.holds(node, 59));
        assert_eq!(Views::with_slots(0, 60).table_bytes(), 0);
    }
}
