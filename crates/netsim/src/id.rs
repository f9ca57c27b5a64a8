//! Opaque identifiers used throughout the simulator.

use std::fmt;

/// Identifies a node (host) in the simulated network.
///
/// Node ids are dense indices assigned by [`crate::star`] (the hub is 0,
/// the leaves follow in order), so they can be used to index per-node
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a dense index.
    ///
    /// Only valid when `index` was previously obtained from
    /// [`NodeId::index`] for the same network.
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies an undirected link: the access link of one leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The dense index of this link.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Identifies one direction of a link (the unit of capacity sharing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirLinkId(pub(crate) u32);

impl DirLinkId {
    pub(crate) fn new(link: LinkId, forward: bool) -> Self {
        DirLinkId(link.0 * 2 + u32::from(!forward))
    }

    /// The forward (leaf -> hub) direction of a link.
    pub fn new_forward(link: LinkId) -> Self {
        DirLinkId::new(link, true)
    }

    /// The backward (hub -> leaf) direction of a link.
    pub fn new_backward(link: LinkId) -> Self {
        DirLinkId::new(link, false)
    }

    /// The undirected link this direction belongs to.
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }

    /// True when this is the forward (leaf -> hub) direction of the link.
    pub fn is_forward(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The dense index of this directed link.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DirLinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.link(),
            if self.is_forward() { ">" } else { "<" }
        )
    }
}

/// Identifies a bulk TCP transfer (flow). Unique over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u64);

impl FlowId {
    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The flow-table slot the id names (its low half; the high half is
    /// the slot's generation).
    pub(crate) const fn slot(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_link_round_trip() {
        let l = LinkId(7);
        let fwd = DirLinkId::new(l, true);
        let back = DirLinkId::new(l, false);
        assert_eq!(fwd.link(), l);
        assert_eq!(back.link(), l);
        assert!(fwd.is_forward());
        assert!(!back.is_forward());
        assert_ne!(fwd, back);
    }

    #[test]
    fn node_id_index_round_trip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.to_string(), "n42");
    }

    #[test]
    fn display_forms() {
        assert_eq!(LinkId(3).to_string(), "l3");
        assert_eq!(DirLinkId::new(LinkId(3), true).to_string(), "l3>");
        assert_eq!(FlowId(9).to_string(), "f9");
    }
}
