//! Multi-dimensional hierarchical network topologies (ASTRA-sim 2.0 §IV-B).
//!
//! State-of-the-art training platforms interconnect NPUs with *stacked*
//! network building blocks: a first dimension of NVLink-class links, scaled
//! up with intra-node switches, scaled out with NICs, and so on. This crate
//! implements the paper's taxonomy for describing such platforms:
//!
//! * [`BuildingBlock`] — the three basic blocks `Ring(k)`,
//!   `FullyConnected(k)` and `Switch(k)` (Fig. 3a), each of which has a
//!   well-known congestion-free topology-aware collective algorithm
//!   (Table I),
//! * [`Topology`] — an arbitrary stack of [`Dimension`]s with heterogeneous
//!   bandwidths and latencies (Fig. 3b),
//! * the notation parser ([`Topology::parse`]) for strings such as
//!   `"Ring(4)_Switch(2)"` or `"R(16)@200_FC(8)@100_SW(4)@50"` (Fig. 3c),
//! * [`presets`] — every topology named in the paper (Fig. 3c examples and
//!   the Table II case-study systems),
//! * [`LinkGraph`] — expansion into an explicit directed link graph with
//!   dimension-ordered routing, consumed by the packet-level backend.
//!
//! # Example
//!
//! ```
//! use astra_topology::Topology;
//!
//! // NVIDIA DGX-1 / Meta Zion class system: 4-NPU ring scaled out by a switch.
//! let topo = Topology::parse("Ring(4)_Switch(2)").unwrap();
//! assert_eq!(topo.npus(), 8);
//! assert_eq!(topo.coords(6), vec![2, 1]);
//! assert_eq!(topo.to_string(), "Ring(4)_Switch(2)");
//! ```

mod block;
mod dimension;
pub mod faults;
mod graph;
mod notation;
pub mod presets;
mod topo;

pub use block::BuildingBlock;
pub use dimension::Dimension;
pub use faults::{
    route_avoiding, DimDegrade, FaultError, FaultEvent, FaultKind, FaultSchedule, FaultedGraph,
};
pub use graph::{LinkGraph, LinkId, LinkProps, NodeId, NodeKind, RouteIndex};
pub use notation::ParseTopologyError;
pub use topo::{NpuId, Topology};
