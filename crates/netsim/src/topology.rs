//! The network: the paper's star of access links around one hub, and the
//! two-hop routes over it.

use std::ops::Deref;

use crate::error::NetError;
use crate::id::{DirLinkId, LinkId, NodeId};
use crate::link::{Link, LinkSpec};
use crate::time::SimDuration;

/// The static network over which the simulator runs: a star, built by
/// [`star`].
///
/// Node 0 is the hub; leaf node `k` hangs off it on access link `k - 1`,
/// whose forward direction is leaf → hub. A route is therefore known
/// without a search: up the source's access link, then down the
/// destination's, leaving out the hop at a hub end. Link *capacities* may
/// change during a run (see [`crate::Simulator::schedule_capacity`]); the
/// star itself may not.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::{star, DirLinkId, LinkSpec, SimDuration};
///
/// let s = star(&[LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(10), 0.0); 2]);
/// let route = s.network.route(s.leaves[0], s.leaves[1]).unwrap();
/// assert_eq!(*route, [DirLinkId::new_forward(s.links[0]), DirLinkId::new_backward(s.links[1])]);
/// ```
#[derive(Debug)]
pub struct Network {
    /// Access link `k`, the one of leaf node `k + 1`.
    links: Vec<Link>,
}

/// Aggregate path properties used by the TCP and message models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProperties {
    /// Sum of one-way link latencies along the path.
    pub latency: SimDuration,
    /// Probability that a packet is lost somewhere along the path.
    pub loss: f64,
    /// Capacity of the narrowest link, in bits per second.
    pub min_capacity_bps: f64,
}

impl Network {
    /// Number of nodes, the hub included.
    pub fn node_count(&self) -> usize {
        self.links.len() + 1
    }

    /// Number of links (one per leaf).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The spec of one direction of a link.
    pub fn dir_spec(&self, dir: DirLinkId) -> &LinkSpec {
        self.links[dir.link().index()].spec(dir.is_forward())
    }

    /// Replaces the capacity of one direction of a link. Takes effect for
    /// all traffic from the moment it is applied (flows adapt at their next
    /// round). There is no setter for latency or loss: they are fixed for
    /// a run, and the FIFO clamp's expiry depends on that (see
    /// [`LinkSpec`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` is not positive/finite.
    pub fn set_capacity(&mut self, dir: DirLinkId, capacity_bps: f64) {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive, got {capacity_bps}"
        );
        self.links[dir.link().index()]
            .spec_mut(dir.is_forward())
            .capacity_bps = capacity_bps;
    }

    /// The route from `src` to `dst` (empty when `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] for out-of-range ids.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Route, NetError> {
        let n = self.node_count();
        if src.index() >= n || dst.index() >= n {
            return Err(NetError::UnknownNode);
        }
        Ok(Route::between(src, dst))
    }

    /// The spec of the link direction down to `node`, the last hop of every
    /// route to it; `None` for the hub, which has no access link.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id.
    pub(crate) fn down_spec(&self, node: NodeId) -> Option<&LinkSpec> {
        assert!(node.index() < self.node_count(), "unknown node {node:?}");
        access_link(node).map(|link| self.dir_spec(DirLinkId::new_backward(link)))
    }

    /// Aggregate latency/loss/capacity along a path.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn path_properties(&self, path: &[DirLinkId]) -> PathProperties {
        assert!(!path.is_empty(), "empty path has no properties");
        let mut latency = SimDuration::ZERO;
        let mut pass = 1.0f64;
        let mut min_cap = f64::INFINITY;
        for &dir in path {
            let spec = self.dir_spec(dir);
            latency += spec.latency;
            pass *= 1.0 - spec.loss;
            min_cap = min_cap.min(spec.capacity_bps);
        }
        PathProperties {
            latency,
            loss: 1.0 - pass,
            min_capacity_bps: min_cap,
        }
    }
}

/// The directed links from one node of the star to another: up the
/// source's access link, then down the destination's, with no hop at a hub
/// end and none to the node itself. Computed from its two ends, it
/// dereferences to its hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The hops in order; the unused tail stays at `DirLinkId(0)`.
    hops: [DirLinkId; 2],
    len: usize,
}

impl Route {
    /// The route from `src` to `dst`; the ids are not range-checked.
    pub(crate) fn between(src: NodeId, dst: NodeId) -> Route {
        let up = access_link(src).map(DirLinkId::new_forward);
        let down = access_link(dst).map(DirLinkId::new_backward);
        let (mut hops, mut len) = ([DirLinkId(0); 2], 0);
        for hop in [up, down].into_iter().flatten().filter(|_| src != dst) {
            hops[len] = hop;
            len += 1;
        }
        Route { hops, len }
    }
}

impl Deref for Route {
    type Target = [DirLinkId];

    fn deref(&self) -> &[DirLinkId] {
        &self.hops[..self.len]
    }
}

/// The access link of a leaf; the hub has none.
fn access_link(node: NodeId) -> Option<LinkId> {
    node.index().checked_sub(1).map(|k| LinkId(k as u32))
}

/// A star topology: every leaf connects to a central hub.
///
/// This is the paper's GENI setup: "the nodes are connected in a star
/// topology using another virtual node".
#[derive(Debug)]
pub struct Star {
    /// The built network.
    pub network: Network,
    /// The central switch node (no application runs on it).
    pub hub: NodeId,
    /// The leaf nodes, in the order their specs were given.
    pub leaves: Vec<NodeId>,
    /// The access link of each leaf, in the same order.
    pub links: Vec<LinkId>,
}

/// Builds a star with one access link per leaf, each with its own spec.
///
/// The path between any two leaves is two hops (leaf → hub → leaf), so the
/// leaf-to-leaf one-way latency is the sum of the two access-link latencies
/// and the end-to-end loss compounds across both links.
///
/// # Panics
///
/// Panics if `leaf_specs` is empty.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::{star, LinkSpec, SimDuration};
///
/// let spec = LinkSpec::from_bytes_per_sec(128_000.0, SimDuration::from_millis(25), 0.0253);
/// let star = star(&vec![spec; 20]);
/// assert_eq!(star.leaves.len(), 20);
/// ```
pub fn star(leaf_specs: &[LinkSpec]) -> Star {
    assert!(!leaf_specs.is_empty(), "star needs at least one leaf");
    let links = leaf_specs
        .iter()
        .map(|&spec| Link {
            forward: spec,
            backward: spec,
        })
        .collect();
    Star {
        network: Network { links },
        hub: NodeId(0),
        leaves: (1..=leaf_specs.len()).map(NodeId::from_index).collect(),
        links: (0..leaf_specs.len()).map(|k| LinkId(k as u32)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bytes_per_sec: f64, ms: u64, loss: f64) -> LinkSpec {
        LinkSpec::from_bytes_per_sec(bytes_per_sec, SimDuration::from_millis(ms), loss)
    }

    /// Three leaves with different capacities, latencies and losses.
    fn asymmetric_specs() -> [LinkSpec; 3] {
        [
            spec(1000.0, 25, 0.05),
            spec(250.0, 7, 0.01),
            spec(4000.0, 60, 0.3),
        ]
    }

    #[test]
    fn star_routes_through_hub() {
        let s = star(&[spec(1000.0, 25, 0.0); 3]);
        let net = s.network;
        let route = net.route(s.leaves[0], s.leaves[2]).unwrap();
        assert_eq!(route.len(), 2);
        let props = net.path_properties(&route);
        assert_eq!(props.latency, SimDuration::from_millis(50));
    }

    #[test]
    fn path_to_self_is_empty() {
        let s = star(&[spec(1000.0, 25, 0.0); 2]);
        assert!(s
            .network
            .route(s.leaves[0], s.leaves[0])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_node_is_an_error() {
        let s = star(&[spec(1000.0, 25, 0.0); 2]);
        assert_eq!(
            s.network.route(s.leaves[0], NodeId::from_index(3)),
            Err(NetError::UnknownNode)
        );
        assert_eq!(
            s.network.route(NodeId::from_index(9), s.hub),
            Err(NetError::UnknownNode)
        );
    }

    #[test]
    fn loss_compounds_along_path() {
        let s = star(&[spec(1000.0, 0, 0.1); 2]);
        let net = s.network;
        let route = net.route(s.leaves[0], s.leaves[1]).unwrap();
        let props = net.path_properties(&route);
        assert!((props.loss - (1.0 - 0.9 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn min_capacity_is_bottleneck() {
        let s = star(&asymmetric_specs());
        let net = s.network;
        let route = net.route(s.leaves[2], s.leaves[1]).unwrap();
        assert_eq!(net.path_properties(&route).min_capacity_bps, 2000.0);
        let route = net.route(s.leaves[0], s.leaves[2]).unwrap();
        assert_eq!(net.path_properties(&route).min_capacity_bps, 8000.0);
    }

    #[test]
    fn capacity_can_be_modulated() {
        let s = star(&[spec(1000.0, 25, 0.0); 2]);
        let mut net = s.network;
        let route = net.route(s.leaves[0], s.leaves[1]).unwrap();
        net.set_capacity(route[0], 400.0);
        assert_eq!(net.dir_spec(route[0]).capacity_bps, 400.0);
        // The reverse direction is untouched.
        let rev = net.route(s.leaves[1], s.leaves[0]).unwrap();
        assert_eq!(net.dir_spec(rev[1]).capacity_bps, 8000.0);
    }

    /// Every ordered pair, the hub included, against the closed form: up
    /// the source's access link, then down the destination's, with no hop
    /// at a hub end; the latency is the sum, the loss
    /// `1 - (1 - l_up)(1 - l_down)` to the bit, the capacity the smaller.
    #[test]
    fn every_route_is_up_then_down_in_closed_form() {
        let specs = asymmetric_specs();
        let s = star(&specs);
        let net = &s.network;
        // The hub has no access link; leaf `k` has `specs[k - 1]` on `links[k - 1]`.
        let access = |node: NodeId| node.index().checked_sub(1).map(|k| (s.links[k], specs[k]));
        for src in (0..net.node_count()).map(NodeId::from_index) {
            for dst in (0..net.node_count()).map(NodeId::from_index) {
                let route = net.route(src, dst).unwrap();
                if src == dst {
                    assert!(route.is_empty());
                    continue;
                }
                let (up, down) = (access(src), access(dst));
                let want: Vec<DirLinkId> = up
                    .map(|(l, _)| DirLinkId::new_forward(l))
                    .into_iter()
                    .chain(down.map(|(l, _)| DirLinkId::new_backward(l)))
                    .collect();
                assert_eq!(*route, want, "{src} -> {dst}");
                let props = net.path_properties(&route);
                let (latency, loss, capacity) = match (up, down) {
                    (Some((_, u)), Some((_, d))) => (
                        u.latency + d.latency,
                        1.0 - (1.0 - u.loss) * (1.0 - d.loss),
                        u.capacity_bps.min(d.capacity_bps),
                    ),
                    (Some((_, h)), None) | (None, Some((_, h))) => {
                        (h.latency, 1.0 - (1.0 - h.loss), h.capacity_bps)
                    }
                    (None, None) => unreachable!("only the hub has no access link"),
                };
                assert_eq!(props.latency, latency, "{src} -> {dst}");
                assert_eq!(props.loss.to_bits(), loss.to_bits(), "{src} -> {dst}");
                assert_eq!(props.min_capacity_bps, capacity, "{src} -> {dst}");
            }
            let stranger = NodeId::from_index(net.node_count());
            assert_eq!(net.route(src, stranger), Err(NetError::UnknownNode));
            assert_eq!(net.route(stranger, src), Err(NetError::UnknownNode));
        }
    }
}
