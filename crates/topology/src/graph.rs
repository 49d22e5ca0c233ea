//! Expansion of a hierarchical topology into an explicit directed link
//! graph, with dimension-ordered routing.
//!
//! The analytical backend never needs individual links (it works from the
//! per-dimension aggregate bandwidth), but the packet-level backend
//! ([`astra-garnet`](https://crates.io/crates/astra-garnet)) simulates every
//! physical link. This module materializes those links: ring neighbors,
//! fully-connected pairs, and explicit switch nodes with up/down links.

use astra_des::{Bandwidth, Time};
use std::collections::BTreeMap;
use std::fmt;

use crate::{BuildingBlock, NpuId, Topology};

/// Identifier of a node in the link graph: an NPU or a switch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a directed link in the graph.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// What a graph node represents.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An NPU endpoint (id matches the topology's [`NpuId`]).
    Npu(NpuId),
    /// The switch fabric of one `Switch(k)` group.
    Switch {
        /// Which topology dimension the switch belongs to.
        dim: usize,
        /// Index of the group within that dimension.
        group: usize,
    },
}

/// Static properties of one directed link.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkProps {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Serialization bandwidth of this individual link.
    pub bandwidth: Bandwidth,
    /// Propagation latency of this link.
    pub latency: Time,
    /// Topology dimension the link implements.
    pub dim: usize,
}

/// An explicit directed link graph expanded from a [`Topology`].
///
/// # Example
///
/// ```
/// use astra_topology::{LinkGraph, Topology};
///
/// let topo = Topology::parse("R(4)_SW(2)").unwrap();
/// let graph = LinkGraph::new(&topo);
/// // Ring links + per-NPU up/down links to the two switches.
/// assert_eq!(graph.num_links(), 4 * 2 * 2 + 8 * 2);
/// let path = graph.route(0, 3); // wraps the short way around the ring
/// assert_eq!(path.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LinkGraph {
    nodes: Vec<NodeKind>,
    links: Vec<LinkProps>,
    adjacency: BTreeMap<(NodeId, NodeId), LinkId>,
    topo: Topology,
}

impl LinkGraph {
    /// Expands `topo` into its explicit link graph.
    pub fn new(topo: &Topology) -> Self {
        let mut graph = LinkGraph {
            nodes: (0..topo.npus()).map(NodeKind::Npu).collect(),
            links: Vec::new(),
            adjacency: BTreeMap::new(),
            topo: topo.clone(),
        };
        for (dim_idx, dim) in topo.dims().iter().enumerate() {
            let k = dim.npus();
            let link_bw = dim.link_bandwidth();
            let latency = dim.link_latency();
            for (group_idx, members) in dim_groups(topo, dim_idx).into_iter().enumerate() {
                match dim.block() {
                    BuildingBlock::Ring(_) => {
                        for i in 0..k {
                            let a = NodeId(members[i]);
                            let b = NodeId(members[(i + 1) % k]);
                            graph.add_link(a, b, link_bw, latency, dim_idx);
                            graph.add_link(b, a, link_bw, latency, dim_idx);
                        }
                    }
                    BuildingBlock::FullyConnected(_) => {
                        for i in 0..k {
                            for j in 0..k {
                                if i != j {
                                    graph.add_link(
                                        NodeId(members[i]),
                                        NodeId(members[j]),
                                        link_bw,
                                        latency,
                                        dim_idx,
                                    );
                                }
                            }
                        }
                    }
                    BuildingBlock::Switch(_) => {
                        let sw = NodeId(graph.nodes.len());
                        graph.nodes.push(NodeKind::Switch {
                            dim: dim_idx,
                            group: group_idx,
                        });
                        for &m in &members {
                            graph.add_link(NodeId(m), sw, link_bw, latency, dim_idx);
                            graph.add_link(sw, NodeId(m), link_bw, latency, dim_idx);
                        }
                    }
                }
            }
        }
        graph
    }

    fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: Bandwidth,
        latency: Time,
        dim: usize,
    ) {
        // Ring(2) generates the same neighbor twice; keep a single link pair.
        if self.adjacency.contains_key(&(src, dst)) {
            return;
        }
        let id = LinkId(self.links.len());
        self.links.push(LinkProps {
            src,
            dst,
            bandwidth,
            latency,
            dim,
        });
        self.adjacency.insert((src, dst), id);
    }

    /// The graph node representing an NPU.
    pub fn npu_node(&self, npu: NpuId) -> NodeId {
        NodeId(npu)
    }

    /// Number of nodes (NPUs + switches).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0]
    }

    /// Properties of a link.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, link: LinkId) -> LinkProps {
        self.links[link.0]
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, LinkProps)> + '_ {
        self.links.iter().enumerate().map(|(i, &p)| (LinkId(i), p))
    }

    /// The direct link from `src` to `dst`, if one exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.adjacency.get(&(src, dst)).copied()
    }

    /// Iterates over the outgoing neighbors of a node in ascending
    /// destination order (deterministic: the adjacency map is ordered).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adjacency
            .range((node, NodeId(0))..=(node, NodeId(usize::MAX)))
            .map(|(&(_, dst), &link)| (dst, link))
    }

    /// Overwrites a link's bandwidth and latency in place. Used by fault
    /// injection to degrade individual links; the graph structure (nodes,
    /// link ids, adjacency) is never changed.
    pub(crate) fn degrade_link(&mut self, id: LinkId, bandwidth: Bandwidth, latency: Time) {
        self.links[id.0].bandwidth = bandwidth;
        self.links[id.0].latency = latency;
    }

    /// The topology this graph was expanded from.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Computes the dimension-ordered route between two NPUs: coordinates
    /// are corrected dimension by dimension (innermost first), taking the
    /// shortest direction around rings and traversing switches via their
    /// up/down links.
    ///
    /// # Panics
    ///
    /// Panics if either NPU id is out of range.
    pub fn route(&self, src: NpuId, dst: NpuId) -> Vec<LinkId> {
        let mut path = Vec::new();
        let mut cur = src;
        let dst_coords = self.topo.coords(dst);
        for (dim_idx, &want) in dst_coords.iter().enumerate() {
            let dim = self.topo.dims()[dim_idx];
            let k = dim.npus();
            let stride = self.topo.dim_stride(dim_idx);
            loop {
                let cur_c = self.topo.coords(cur)[dim_idx];
                if cur_c == want {
                    break;
                }
                let next = match dim.block() {
                    BuildingBlock::Ring(_) => {
                        let fwd = (want + k - cur_c) % k;
                        let step_c = if fwd <= k - fwd {
                            (cur_c + 1) % k
                        } else {
                            (cur_c + k - 1) % k
                        };
                        cur - cur_c * stride + step_c * stride
                    }
                    BuildingBlock::FullyConnected(_) | BuildingBlock::Switch(_) => {
                        cur - cur_c * stride + want * stride
                    }
                };
                match dim.block() {
                    BuildingBlock::Switch(_) => {
                        // Up to the switch, down to the destination plane.
                        let up = self
                            .outgoing_switch(NodeId(cur), dim_idx)
                            // astra-lint: allow(panic, the graph was built with one up-link per NPU per switch dimension)
                            .expect("switch up-link exists");
                        path.push(up);
                        let sw = self.links[up.0].dst;
                        let down = self
                            .link_between(sw, NodeId(next))
                            // astra-lint: allow(panic, the graph was built with one down-link per switch per member)
                            .expect("switch down-link exists");
                        path.push(down);
                    }
                    _ => {
                        let link = self
                            .link_between(NodeId(cur), NodeId(next))
                            // astra-lint: allow(panic, ring/FC construction adds every hop the router can emit)
                            .expect("direct link exists");
                        path.push(link);
                    }
                }
                cur = next;
            }
        }
        path
    }

    fn outgoing_switch(&self, node: NodeId, dim: usize) -> Option<LinkId> {
        self.links.iter().enumerate().find_map(|(i, l)| {
            if l.src == node
                && l.dim == dim
                && matches!(self.nodes[l.dst.0], NodeKind::Switch { .. })
            {
                Some(LinkId(i))
            } else {
                None
            }
        })
    }
}

impl fmt::Display for LinkGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LinkGraph({} nodes, {} links, topology {})",
            self.num_nodes(),
            self.num_links(),
            self.topo
        )
    }
}

/// Enumerates the NPU groups of one dimension, each ordered by its
/// coordinate along that dimension.
fn dim_groups(topo: &Topology, dim: usize) -> Vec<Vec<NpuId>> {
    let mut groups = Vec::new();
    let mut seen = vec![false; topo.npus()];
    for id in 0..topo.npus() {
        if seen[id] {
            continue;
        }
        let group = topo.dim_group(id, dim);
        for &m in &group {
            seen[m] = true;
        }
        groups.push(group);
    }
    groups
}

/// A backend's memo from `(src, dst)` to the index of its resolved route.
///
/// Backends look a route up once per message, so the memo is a flat row of
/// `(dst, index)` pairs per source, sorted by destination, and a lookup is
/// a binary search over contiguous memory rather than a walk down an
/// ordered map. On the benchmark's backend-collective and pipeline
/// requests no source memoizes more than three destinations.
#[derive(Clone, Debug, Default)]
pub struct RouteIndex {
    by_src: Vec<Vec<(NpuId, usize)>>,
    len: usize,
}

impl RouteIndex {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The route index memoized for `(src, dst)`, if any.
    pub fn get(&self, src: NpuId, dst: NpuId) -> Option<usize> {
        let row = self.by_src.get(src)?;
        row.binary_search_by_key(&dst, |&(d, _)| d)
            .ok()
            .map(|at| row[at].1)
    }

    /// Memoizes `index` for `(src, dst)`. Callers insert a pair only after
    /// [`RouteIndex::get`] missed it, so the pair must be new.
    pub fn insert(&mut self, src: NpuId, dst: NpuId, index: usize) {
        if self.by_src.len() <= src {
            self.by_src.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.by_src[src];
        let at = row.partition_point(|&(d, _)| d < dst);
        debug_assert!(
            row.get(at).is_none_or(|&(d, _)| d != dst),
            "route ({src}, {dst}) memoized twice"
        );
        row.insert(at, (dst, index));
        self.len += 1;
    }

    /// Distinct `(src, dst)` pairs memoized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_link_counts() {
        let topo = Topology::parse("R(4)").unwrap();
        let g = LinkGraph::new(&topo);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_links(), 8); // 4 undirected ring edges, both directions
    }

    #[test]
    fn ring2_deduplicates_links() {
        let topo = Topology::parse("R(2)").unwrap();
        let g = LinkGraph::new(&topo);
        assert_eq!(g.num_links(), 2); // one each way, not doubled
    }

    #[test]
    fn fc_link_counts() {
        let topo = Topology::parse("FC(4)").unwrap();
        let g = LinkGraph::new(&topo);
        assert_eq!(g.num_links(), 12); // k*(k-1)
    }

    #[test]
    fn switch_creates_fabric_node() {
        let topo = Topology::parse("SW(4)").unwrap();
        let g = LinkGraph::new(&topo);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_links(), 8); // up+down per NPU
        assert!(matches!(
            g.node_kind(NodeId(4)),
            NodeKind::Switch { dim: 0, group: 0 }
        ));
    }

    #[test]
    fn multi_dim_switch_groups() {
        let topo = Topology::parse("R(4)_SW(2)").unwrap();
        let g = LinkGraph::new(&topo);
        // 4 ring groups of... dimension 2 has 4 groups ({0,4},{1,5},{2,6},{3,7}),
        // each with its own switch.
        let switches = (0..g.num_nodes())
            .filter(|&n| matches!(g.node_kind(NodeId(n)), NodeKind::Switch { .. }))
            .count();
        assert_eq!(switches, 4);
    }

    #[test]
    fn route_within_ring_takes_shortest_direction() {
        let topo = Topology::parse("R(8)").unwrap();
        let g = LinkGraph::new(&topo);
        assert_eq!(g.route(0, 2).len(), 2);
        assert_eq!(g.route(0, 7).len(), 1); // wraps backwards
        assert_eq!(g.route(3, 3).len(), 0);
    }

    #[test]
    fn route_is_dimension_ordered() {
        let topo = Topology::parse("R(4)_SW(2)").unwrap();
        let g = LinkGraph::new(&topo);
        // NPU 0 -> NPU 6: fix ring coordinate (0 -> 2: 2 hops), then switch (2 links).
        let path = g.route(0, 6);
        assert_eq!(path.len(), 4);
        let dims: Vec<usize> = path.iter().map(|&l| g.link(l).dim).collect();
        assert_eq!(dims, vec![0, 0, 1, 1]);
        // Path is connected from src to dst.
        assert_eq!(g.link(path[0]).src, g.npu_node(0));
        assert_eq!(g.link(*path.last().unwrap()).dst, g.npu_node(6));
        for w in path.windows(2) {
            assert_eq!(g.link(w[0]).dst, g.link(w[1]).src);
        }
    }

    #[test]
    fn route_hop_count_matches_topology_hops() {
        let topo = Topology::parse("R(4)_FC(3)_SW(2)").unwrap();
        let g = LinkGraph::new(&topo);
        for &(a, b) in &[(0usize, 23usize), (5, 17), (1, 2), (0, 0), (11, 13)] {
            assert_eq!(g.route(a, b).len(), topo.hops(a, b), "route {a}->{b}");
        }
    }

    #[test]
    fn link_bandwidth_is_per_link_share() {
        let topo = Topology::parse("R(8)@200").unwrap();
        let g = LinkGraph::new(&topo);
        let (_, props) = g.links().next().unwrap();
        assert_eq!(props.bandwidth.as_gbps_f64(), 100.0); // 200 split over 2 ring directions
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "memoized twice")]
    fn route_index_rejects_a_pair_twice() {
        let mut idx = RouteIndex::new();
        idx.insert(3, 7, 0);
        idx.insert(3, 7, 1);
    }

    #[test]
    fn route_index_memoizes_pairs() {
        let mut idx = RouteIndex::new();
        assert!(idx.is_empty());
        idx.insert(3, 7, 0);
        idx.insert(3, 1, 1);
        idx.insert(0, 7, 2);
        idx.insert(3, 4, 3);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.get(3, 7), Some(0));
        assert_eq!(idx.get(3, 4), Some(3));
        assert_eq!(idx.get(3, 1), Some(1));
        assert_eq!(idx.get(0, 7), Some(2));
        assert_eq!(idx.get(0, 1), None);
        assert_eq!(idx.get(9, 1), None);
    }
}
