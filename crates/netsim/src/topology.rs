//! The network graph: nodes, links, routing, and topology builders.

use std::collections::VecDeque;

use crate::error::NetError;
use crate::id::{DirLinkId, LinkId, NodeId};
use crate::link::{Link, LinkSpec};
use crate::time::SimDuration;

/// The static network graph over which the simulator runs.
///
/// Routing is shortest-path (hop count) with deterministic tie-breaking:
/// one breadth-first tree per *source*, built on the source's first use and
/// covering every destination. Link *capacities* may change during a run
/// (see [`crate::Simulator::schedule_capacity`]); the graph itself may not.
///
/// # Examples
///
/// ```
/// use splicecast_netsim::{LinkSpec, Network, SimDuration};
///
/// let mut net = Network::new();
/// let a = net.add_node();
/// let b = net.add_node();
/// net.connect_symmetric(a, b, LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(10), 0.0));
/// let path = net.path(a, b).unwrap();
/// assert_eq!(path.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    links: Vec<Link>,
    adj: Vec<Vec<(NodeId, LinkId)>>,
    /// Shortest-path tree per source node, `None` until the source first
    /// routes; emptied whenever the graph changes.
    trees: Vec<Option<Box<[Hop]>>>,
    /// Searches run so far (the locality test counts them).
    #[cfg(test)]
    pub(crate) trees_built: usize,
}

/// One node's entry in a source's shortest-path tree: the node the search
/// first reached it from and the directed link it arrived over.
#[derive(Debug, Clone, Copy)]
struct Hop {
    prev: u32,
    dir: DirLinkId,
}

/// `Hop::prev` of the source itself and of every node its search never
/// reached.
const NO_PREV: u32 = u32::MAX;

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
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        self.trees.clear();
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Connects `a` and `b` with independent per-direction specs.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist or `a == b`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        forward: LinkSpec,
        backward: LinkSpec,
    ) -> LinkId {
        assert!(a.index() < self.adj.len(), "unknown node {a}");
        assert!(b.index() < self.adj.len(), "unknown node {b}");
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            forward,
            backward,
        });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        self.trees.clear();
        id
    }

    /// Connects `a` and `b` with the same spec in both directions.
    pub fn connect_symmetric(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        self.connect(a, b, spec, spec)
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The spec of one direction of a link.
    pub fn dir_spec(&self, dir: DirLinkId) -> &LinkSpec {
        self.links[dir.link().index()].spec(dir.is_forward())
    }

    /// Replaces the capacity of one direction of a link. Takes effect for
    /// all traffic from the moment it is applied (flows adapt at their next
    /// round).
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

    /// Shortest path from `src` to `dst` as a sequence of directed links.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] when the nodes are disconnected and
    /// [`NetError::UnknownNode`] for out-of-range ids.
    pub fn path(&mut self, src: NodeId, dst: NodeId) -> Result<Vec<DirLinkId>, NetError> {
        let mut path = Vec::new();
        self.route(src, dst, &mut path)?;
        Ok(path)
    }

    /// [`Network::path`] into a buffer the caller reuses, for hot paths
    /// that only *look at* the route: `out` is cleared and, on success,
    /// holds the route (nothing when `src == dst`).
    ///
    /// # Errors
    ///
    /// Same as [`Network::path`].
    pub fn route(
        &mut self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<DirLinkId>,
    ) -> Result<(), NetError> {
        out.clear();
        let n = self.adj.len();
        if src.index() >= n || dst.index() >= n {
            return Err(NetError::UnknownNode);
        }
        if src == dst {
            return Ok(());
        }
        if self.trees.len() < n {
            self.trees.resize_with(n, || None);
        }
        if self.trees[src.index()].is_none() {
            self.trees[src.index()] = Some(self.build_tree(src));
        }
        let tree = self.trees[src.index()].as_deref().expect("built above");
        if tree[dst.index()].prev == NO_PREV {
            return Err(NetError::NoRoute { src, dst });
        }
        // The tree is walked destination -> source and then reversed:
        // `path_properties` multiplies `1 - loss` hop by hop, and from three
        // hops up the float product depends on the order.
        let mut cur = dst.index();
        while cur != src.index() {
            let hop = tree[cur];
            out.push(hop.dir);
            cur = hop.prev as usize;
        }
        out.reverse();
        Ok(())
    }

    /// Breadth-first search over the whole graph from `src`. Each node's
    /// `prev` is fixed at its first discovery, so the tree holds, for every
    /// destination, exactly the route a search stopping at that destination
    /// finds.
    fn build_tree(&mut self, src: NodeId) -> Box<[Hop]> {
        #[cfg(test)]
        {
            self.trees_built += 1;
        }
        let unreached = Hop {
            prev: NO_PREV,
            dir: DirLinkId(0),
        };
        let mut tree = vec![unreached; self.adj.len()].into_boxed_slice();
        let mut queue = VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            // Adjacency lists are in insertion order, so ties break
            // deterministically by link creation order.
            for &(next, link) in &self.adj[cur.index()] {
                if next != src && tree[next.index()].prev == NO_PREV {
                    tree[next.index()] = Hop {
                        prev: cur.0,
                        dir: self.links[link.index()].direction_from(link, cur),
                    };
                    queue.push_back(next);
                }
            }
        }
        tree
    }

    /// The per-pair search the trees replaced, kept as their oracle: stops
    /// once `dst` is dequeued.
    #[cfg(test)]
    fn bfs(&self, src: NodeId, dst: NodeId) -> Option<Vec<DirLinkId>> {
        let n = self.adj.len();
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[src.index()] = true;
        queue.push_back(src);
        while let Some(cur) = queue.pop_front() {
            if cur == dst {
                break;
            }
            for &(next, link) in &self.adj[cur.index()] {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    prev[next.index()] = Some((cur, link));
                    queue.push_back(next);
                }
            }
        }
        if !seen[dst.index()] {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (from, link) = prev[cur.index()].expect("bfs backtrack");
            path.push(self.links[link.index()].direction_from(link, from));
            cur = from;
        }
        path.reverse();
        Some(path)
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
    pub links: Vec<crate::id::LinkId>,
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
    let mut network = Network::new();
    let hub = network.add_node();
    let mut links = Vec::with_capacity(leaf_specs.len());
    let leaves = leaf_specs
        .iter()
        .map(|spec| {
            let leaf = network.add_node();
            links.push(network.connect_symmetric(leaf, hub, *spec));
            leaf
        })
        .collect();
    Star {
        network,
        hub,
        leaves,
        links,
    }
}

/// Builds a full mesh of `n` nodes where every pair shares a direct link.
pub fn full_mesh(n: usize, spec: LinkSpec) -> (Network, Vec<NodeId>) {
    assert!(n >= 2, "full mesh needs at least two nodes");
    let mut network = Network::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| network.add_node()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            network.connect_symmetric(nodes[i], nodes[j], spec);
        }
    }
    (network, nodes)
}

/// Builds a dumbbell: `left` and `right` groups of hosts on access links,
/// joined by a single shared bottleneck link.
pub fn dumbbell(
    left: usize,
    right: usize,
    access: LinkSpec,
    bottleneck: LinkSpec,
) -> (Network, Vec<NodeId>, Vec<NodeId>) {
    assert!(
        left >= 1 && right >= 1,
        "dumbbell needs hosts on both sides"
    );
    let mut network = Network::new();
    let left_router = network.add_node();
    let right_router = network.add_node();
    network.connect_symmetric(left_router, right_router, bottleneck);
    let lefts = (0..left)
        .map(|_| {
            let n = network.add_node();
            network.connect_symmetric(n, left_router, access);
            n
        })
        .collect();
    let rights = (0..right)
        .map(|_| {
            let n = network.add_node();
            network.connect_symmetric(n, right_router, access);
            n
        })
        .collect();
    (network, lefts, rights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bytes_per_sec: f64, ms: u64, loss: f64) -> LinkSpec {
        LinkSpec::from_bytes_per_sec(bytes_per_sec, SimDuration::from_millis(ms), loss)
    }

    #[test]
    fn star_routes_through_hub() {
        let s = star(&[spec(1000.0, 25, 0.0); 3]);
        let mut net = s.network;
        let path = net.path(s.leaves[0], s.leaves[2]).unwrap();
        assert_eq!(path.len(), 2);
        let props = net.path_properties(&path);
        assert_eq!(props.latency, SimDuration::from_millis(50));
    }

    #[test]
    fn path_to_self_is_empty() {
        let s = star(&[spec(1000.0, 25, 0.0); 2]);
        let mut net = s.network;
        assert!(net.path(s.leaves[0], s.leaves[0]).unwrap().is_empty());
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut net = Network::new();
        let a = net.add_node();
        let b = net.add_node();
        assert!(matches!(net.path(a, b), Err(NetError::NoRoute { .. })));
    }

    #[test]
    fn unknown_node_is_an_error() {
        let mut net = Network::new();
        let a = net.add_node();
        assert!(matches!(
            net.path(a, NodeId::from_index(9)),
            Err(NetError::UnknownNode)
        ));
    }

    #[test]
    fn loss_compounds_along_path() {
        let s = star(&[spec(1000.0, 0, 0.1); 2]);
        let mut net = s.network;
        let path = net.path(s.leaves[0], s.leaves[1]).unwrap();
        let props = net.path_properties(&path);
        assert!((props.loss - (1.0 - 0.9 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn min_capacity_is_bottleneck() {
        let (mut net, lefts, rights) = dumbbell(1, 1, spec(1000.0, 1, 0.0), spec(100.0, 1, 0.0));
        let path = net.path(lefts[0], rights[0]).unwrap();
        assert_eq!(path.len(), 3);
        let props = net.path_properties(&path);
        assert_eq!(props.min_capacity_bps, 800.0);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let (mut net, nodes) = full_mesh(4, spec(1000.0, 5, 0.0));
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(net.path(nodes[i], nodes[j]).unwrap().len(), 1);
                }
            }
        }
    }

    #[test]
    fn capacity_can_be_modulated() {
        let s = star(&[spec(1000.0, 25, 0.0); 2]);
        let mut net = s.network;
        let path = net.path(s.leaves[0], s.leaves[1]).unwrap();
        net.set_capacity(path[0], 400.0);
        assert_eq!(net.dir_spec(path[0]).capacity_bps, 400.0);
        // The reverse direction is untouched.
        let rev = net.path(s.leaves[1], s.leaves[0]).unwrap();
        assert_eq!(net.dir_spec(rev[1]).capacity_bps, 8000.0);
    }

    /// Every ordered pair: the tree's answer is the per-pair search's.
    fn assert_routes_match_per_pair_search(net: &mut Network) {
        let n = net.node_count();
        let mut route = Vec::new();
        for s in (0..n).map(NodeId::from_index) {
            for d in (0..n).map(NodeId::from_index) {
                let got = net.route(s, d, &mut route);
                match net.bfs(s, d) {
                    Some(want) => {
                        assert_eq!(got, Ok(()));
                        assert_eq!(route, want, "{s} -> {d}");
                        assert_eq!(want.is_empty(), s == d);
                    }
                    None => {
                        assert_eq!(got, Err(NetError::NoRoute { src: s, dst: d }));
                        assert!(route.is_empty());
                    }
                }
            }
        }
        assert!(net.trees_built <= n, "one search per source at most");
    }

    proptest::proptest! {
        /// Random graphs — a star plus random extra links (equal-length
        /// alternatives, so tie-breaking is exercised) plus a few nodes
        /// that may stay isolated or form their own component — route
        /// exactly as the per-pair search did, and a `connect()` after
        /// routes were served is seen by later answers.
        #[test]
        fn trees_match_the_per_pair_search(
            leaves in 1usize..12,
            strays in 0usize..4,
            extra in proptest::collection::vec((proptest::any::<u32>(), proptest::any::<u32>()), 0..16),
        ) {
            let mut net = star(&vec![spec(1000.0, 5, 0.01); leaves]).network;
            for _ in 0..strays {
                net.add_node();
            }
            let n = net.node_count();
            let pick = |x: u32| NodeId::from_index(x as usize % n);
            let (early, late) = extra.split_at(extra.len() / 2);
            for &(a, b) in early {
                if pick(a) != pick(b) {
                    net.connect_symmetric(pick(a), pick(b), spec(1000.0, 5, 0.01));
                }
            }
            assert_routes_match_per_pair_search(&mut net);
            for &(a, b) in late {
                if pick(a) != pick(b) {
                    net.connect_symmetric(pick(a), pick(b), spec(1000.0, 5, 0.01));
                }
            }
            net.trees_built = 0;
            assert_routes_match_per_pair_search(&mut net);
        }
    }

    #[test]
    fn builders_route_as_the_per_pair_search_did() {
        assert_routes_match_per_pair_search(&mut full_mesh(7, spec(1000.0, 5, 0.0)).0);
        let (mut net, ..) = dumbbell(4, 3, spec(1000.0, 1, 0.0), spec(100.0, 1, 0.0));
        assert_routes_match_per_pair_search(&mut net);
        assert_eq!(
            net.route(
                NodeId::from_index(0),
                NodeId::from_index(99),
                &mut Vec::new()
            ),
            Err(NetError::UnknownNode)
        );
    }

    #[test]
    fn a_new_link_changes_later_routes() {
        let s = star(&[spec(1000.0, 25, 0.0); 3]);
        let mut net = s.network;
        assert_eq!(net.path(s.leaves[0], s.leaves[2]).unwrap().len(), 2);
        let shortcut = net.connect_symmetric(s.leaves[0], s.leaves[2], spec(1000.0, 1, 0.0));
        assert_eq!(
            net.path(s.leaves[0], s.leaves[2]).unwrap(),
            vec![DirLinkId::new_forward(shortcut)]
        );
        assert_eq!(
            net.path(s.leaves[2], s.leaves[0]).unwrap(),
            vec![DirLinkId::new_backward(shortcut)]
        );
    }

    /// `1 - loss` is multiplied hop by hop from the source; with three
    /// distinct losses the reverse-order product differs in its last bit,
    /// which is why `route` reverses its tree walk.
    #[test]
    fn three_hop_loss_is_the_forward_order_product() {
        let (la, lb, lc) = (0.05, 0.01, 0.3);
        let mut net = Network::new();
        let nodes: Vec<NodeId> = (0..4).map(|_| net.add_node()).collect();
        for (i, loss) in [la, lb, lc].into_iter().enumerate() {
            net.connect_symmetric(nodes[i], nodes[i + 1], spec(1000.0, 1, loss));
        }
        let forward = ((1.0 - la) * (1.0 - lb)) * (1.0 - lc);
        let backward = ((1.0 - lc) * (1.0 - lb)) * (1.0 - la);
        assert_ne!(forward.to_bits(), backward.to_bits(), "order matters here");
        let path = net.path(nodes[0], nodes[3]).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(
            net.path_properties(&path).loss.to_bits(),
            (1.0 - forward).to_bits()
        );
        let back = net.path(nodes[3], nodes[0]).unwrap();
        assert_eq!(
            net.path_properties(&back).loss.to_bits(),
            (1.0 - backward).to_bits()
        );
    }

    #[test]
    fn routes_are_deterministic() {
        let (mut net, nodes) = full_mesh(6, spec(1000.0, 5, 0.0));
        let p1 = net.path(nodes[0], nodes[5]).unwrap();
        let p2 = net.path(nodes[0], nodes[5]).unwrap();
        assert_eq!(p1, p2);
    }
}
