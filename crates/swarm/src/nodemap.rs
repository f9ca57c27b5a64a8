//! A map keyed by [`NodeId`], stored as a table indexed by the id.
//!
//! Node ids are small dense integers, so per-neighbour state is a row
//! lookup, not a tree descent. Iteration is in ascending id order by
//! construction — the order the `BTreeMap`s this replaced walked in, which
//! every ordering-sensitive walk in the leecher relies on. The price is one
//! slot per node id up to the largest one seen, occupied or not.

use std::ops::Index;

use splicecast_netsim::NodeId;

#[derive(Debug, Clone)]
pub(crate) struct NodeMap<V> {
    slots: Vec<Option<V>>,
    live: usize,
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        NodeMap {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<V> NodeMap<V> {
    /// An empty map with room for every node id below `slots` (larger ids
    /// still work; the table grows to reach them).
    pub fn with_slots(slots: usize) -> Self {
        NodeMap {
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            live: 0,
        }
    }

    /// Number of entries (not slots).
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn contains_key(&self, node: &NodeId) -> bool {
        self.get(node).is_some()
    }

    pub fn get(&self, node: &NodeId) -> Option<&V> {
        self.slots.get(node.index())?.as_ref()
    }

    pub fn get_mut(&mut self, node: &NodeId) -> Option<&mut V> {
        self.slots.get_mut(node.index())?.as_mut()
    }

    /// The entry for `node`, created with `make` if absent.
    pub fn get_or_insert_with(&mut self, node: NodeId, make: impl FnOnce() -> V) -> &mut V {
        let index = node.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        if slot.is_none() {
            self.live += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Sets the entry for `node`, returning the one it replaced.
    pub fn insert(&mut self, node: NodeId, value: V) -> Option<V> {
        let old = self.remove(&node);
        self.get_or_insert_with(node, || value);
        old
    }

    pub fn remove(&mut self, node: &NodeId) -> Option<V> {
        let old = self.slots.get_mut(node.index())?.take();
        self.live -= usize::from(old.is_some());
        old
    }

    /// Entries in ascending [`NodeId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| Some((NodeId::from_index(index), slot.as_ref()?)))
    }

    /// Values in ascending [`NodeId`] order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }

    /// Bytes the table itself occupies: every allocated slot, occupied or
    /// not. Heap the values own is the caller's to add.
    pub fn table_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<V>>()
    }
}

impl<V> Index<&NodeId> for NodeMap<V> {
    type Output = V;

    fn index(&self, node: &NodeId) -> &V {
        self.get(node).expect("no entry for node")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, u32),
        Remove(usize),
        Bump(usize),
        GetOrInsert(usize, u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        let node = 0usize..40;
        prop_oneof![
            (node.clone(), any::<u32>()).prop_map(|(n, v)| Op::Insert(n, v)),
            node.clone().prop_map(Op::Remove),
            node.clone().prop_map(Op::Bump),
            (node, any::<u32>()).prop_map(|(n, v)| Op::GetOrInsert(n, v)),
        ]
    }

    proptest! {
        /// Any operation sequence leaves the table equal to a `BTreeMap`
        /// driven the same way: same answers, same contents in the same
        /// (ascending) order, exact `len` — whether the table was presized
        /// past the ids, short of them, or not at all.
        #[test]
        fn matches_a_btreemap_model(
            presize in prop_oneof![Just(0usize), Just(7), Just(64)],
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut map = NodeMap::with_slots(presize);
            let mut model = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(n, v) => {
                        let node = NodeId::from_index(n);
                        prop_assert_eq!(map.insert(node, v), model.insert(node, v));
                    }
                    Op::Remove(n) => {
                        let node = NodeId::from_index(n);
                        prop_assert_eq!(map.remove(&node), model.remove(&node));
                    }
                    Op::Bump(n) => {
                        let node = NodeId::from_index(n);
                        let (got, want) = (map.get_mut(&node), model.get_mut(&node));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            *got = got.wrapping_add(1);
                            *want = want.wrapping_add(1);
                        }
                    }
                    Op::GetOrInsert(n, v) => {
                        let node = NodeId::from_index(n);
                        let got = *map.get_or_insert_with(node, || v);
                        prop_assert_eq!(got, *model.entry(node).or_insert(v));
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                let got: Vec<(NodeId, u32)> = map.iter().map(|(n, &v)| (n, v)).collect();
                let want: Vec<(NodeId, u32)> = model.iter().map(|(&n, &v)| (n, v)).collect();
                prop_assert_eq!(got, want);
                prop_assert!(map.values().eq(model.values()));
            }
            for n in 0..70 {
                let node = NodeId::from_index(n);
                prop_assert_eq!(map.get(&node), model.get(&node));
                prop_assert_eq!(map.contains_key(&node), model.contains_key(&node));
            }
        }
    }

    #[test]
    fn table_bytes_counts_every_slot() {
        let mut map = NodeMap::<u64>::with_slots(10);
        assert_eq!(map.table_bytes(), 10 * 16, "empty slots cost as much");
        map.insert(NodeId::from_index(3), 7);
        assert_eq!(map.table_bytes(), 10 * 16);
        assert_eq!(map[&NodeId::from_index(3)], 7);
        assert_eq!(NodeMap::<u64>::default().table_bytes(), 0);
    }
}
