//! The ASTRA-sim execution-trace (ET) format (§IV-A, Fig. 1b).

use astra_collectives::Collective;
use astra_des::DataSize;
use astra_topology::NpuId;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Index of a node within one NPU's program.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

/// Index of a communicator group within a trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GroupId(pub u32);

/// Whether a memory node loads or stores its tensor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryDirection {
    /// Memory → NPU.
    Load,
    /// NPU → memory.
    Store,
}

/// Where a memory node's tensor lives (§IV-D).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorLocation {
    /// Local HBM.
    Local,
    /// The disaggregated remote pool; `gathered` requests in-switch
    /// collective handling (All-Gather on load / Reduce-Scatter on store).
    Remote {
        /// Use in-switch collective gathering/scattering.
        gathered: bool,
    },
}

/// The operation an ET node performs — the paper's three node types with
/// their metadata (Fig. 1b), plus explicit peer-to-peer send/receive for
/// pipeline parallelism.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EtOp {
    /// Computation: `#FP ops` and the tensor footprint touched (for the
    /// roofline model).
    Compute {
        /// Floating-point operations.
        flops: f64,
        /// Bytes moved through local memory by this computation.
        tensor: DataSize,
    },
    /// A local or remote memory access of `size` bytes.
    Memory {
        /// Load or store.
        direction: MemoryDirection,
        /// Local HBM or the remote pool.
        location: TensorLocation,
        /// Tensor size.
        size: DataSize,
    },
    /// A collective communication of `size` bytes over a communicator
    /// group.
    Collective {
        /// Which collective pattern.
        collective: Collective,
        /// Payload size (see [`Collective`] size conventions).
        size: DataSize,
        /// The participating group.
        group: GroupId,
    },
    /// Peer-to-peer send (pipeline-parallel activations/gradients).
    PeerSend {
        /// Destination NPU.
        peer: NpuId,
        /// Message size.
        size: DataSize,
        /// Matching tag: a `PeerRecv` with the same `(src, dst, tag)`
        /// completes when this send is delivered.
        tag: u64,
    },
    /// Peer-to-peer receive.
    PeerRecv {
        /// Source NPU.
        peer: NpuId,
        /// Message size.
        size: DataSize,
        /// Matching tag.
        tag: u64,
    },
}

/// One node of an execution trace: an operation plus its dependencies
/// (indices of earlier nodes in the same NPU's program).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EtNode {
    /// Human-readable name (e.g. `"layer3.bwd"`), for reports and debugging.
    pub name: String,
    /// The operation.
    pub op: EtOp,
    /// Intra-NPU dependencies: this node is ready when all of them are done.
    pub deps: Vec<NodeId>,
}

/// A complete multi-NPU execution trace: one program (DAG) per NPU plus the
/// communicator groups the programs reference.
///
/// Traces serialize to/from JSON (the "ASTRA-sim ET" interchange format).
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_workload::{EtOp, ExecutionTrace, TraceBuilder};
///
/// let mut b = TraceBuilder::new(2);
/// let g = b.add_group(vec![0, 1]);
/// for npu in 0..2 {
///     let c = b.node(npu, "fwd", EtOp::Compute { flops: 1e9, tensor: DataSize::from_mib(1) }, &[]);
///     b.node(npu, "sync", EtOp::Collective {
///         collective: astra_collectives::Collective::AllReduce,
///         size: DataSize::from_mib(64),
///         group: g,
///     }, &[c]);
/// }
/// let trace: ExecutionTrace = b.build().unwrap();
/// let json = trace.to_json().unwrap();
/// assert_eq!(ExecutionTrace::from_json(&json).unwrap(), trace);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    name: String,
    npus: usize,
    groups: Vec<Vec<NpuId>>,
    programs: Vec<Vec<EtNode>>,
}

impl ExecutionTrace {
    /// Number of NPUs the trace targets.
    pub fn npus(&self) -> usize {
        self.npus
    }

    /// The trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program (topologically ordered node list) of one NPU.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn program(&self, npu: NpuId) -> &[EtNode] {
        &self.programs[npu]
    }

    /// The members of a communicator group.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn group(&self, id: GroupId) -> &[NpuId] {
        &self.groups[id.0 as usize]
    }

    /// All communicator groups.
    pub fn groups(&self) -> &[Vec<NpuId>] {
        &self.groups
    }

    /// Total node count across all NPUs.
    pub fn total_nodes(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }

    /// Serializes to the JSON ET interchange format.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails (it cannot for
    /// well-formed traces).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a JSON ET produced by [`ExecutionTrace::to_json`] (or an
    /// external converter emitting the same schema) and runs the structural
    /// checks of [`TraceBuilder::build`] on it.
    ///
    /// # Errors
    ///
    /// Returns [`JsonEtError::Json`] on malformed input and
    /// [`JsonEtError::Invalid`] when the parsed trace breaks a structural
    /// rule (see [`TraceError`]).
    pub fn from_json(json: &str) -> Result<Self, JsonEtError> {
        let trace: ExecutionTrace = serde_json::from_str(json).map_err(JsonEtError::Json)?;
        TraceBuilder {
            name: trace.name,
            npus: trace.npus,
            groups: trace.groups,
            programs: trace.programs,
        }
        .build()
        .map_err(JsonEtError::Invalid)
    }
}

/// Errors from loading a JSON ET.
#[derive(Debug)]
pub enum JsonEtError {
    /// The text is not JSON or does not follow the ET schema.
    Json(serde_json::Error),
    /// The trace parsed but breaks a structural rule.
    Invalid(TraceError),
}

impl fmt::Display for JsonEtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonEtError::Json(e) => write!(f, "invalid ASTRA-sim JSON ET: {e}"),
            JsonEtError::Invalid(e) => write!(f, "invalid ASTRA-sim JSON ET: {e}"),
        }
    }
}

impl Error for JsonEtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JsonEtError::Json(e) => Some(e),
            JsonEtError::Invalid(e) => Some(e),
        }
    }
}

/// Errors detected while building or loading a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The trace targets no NPUs, or its program count differs from its
    /// NPU count.
    BadNpuCount {
        /// Declared NPU count.
        npus: usize,
        /// Number of per-NPU programs.
        programs: usize,
    },
    /// A communicator group has no members.
    EmptyGroup {
        /// Offending group id.
        group: u32,
    },
    /// A communicator group's members are not strictly ascending (unsorted
    /// or duplicated).
    UnsortedGroup {
        /// Offending group id.
        group: u32,
    },
    /// A communicator group names an out-of-range NPU.
    BadGroupMember {
        /// Offending group id.
        group: u32,
    },
    /// A node referenced a dependency that does not precede it.
    BadDependency {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A collective referenced an unknown group.
    BadGroup {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A collective's group does not contain the NPU issuing it.
    NotAMember {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// A peer id was out of range.
    BadPeer {
        /// NPU owning the node.
        npu: NpuId,
        /// Offending node index.
        node: u32,
    },
    /// Sends and receives with the same `(src, dst, tag)` do not pair up.
    UnmatchedPeerMessage {
        /// Sender NPU.
        src: NpuId,
        /// Receiver NPU.
        dst: NpuId,
        /// Message tag.
        tag: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadNpuCount { npus, programs } => {
                write!(f, "trace declares {npus} NPUs but has {programs} programs")
            }
            TraceError::EmptyGroup { group } => write!(f, "group {group} has no members"),
            TraceError::UnsortedGroup { group } => {
                write!(f, "group {group} members are not sorted and distinct")
            }
            TraceError::BadGroupMember { group } => {
                write!(f, "group {group} names an out-of-range NPU")
            }
            TraceError::BadDependency { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} depends on a later or missing node"
                )
            }
            TraceError::BadGroup { npu, node } => {
                write!(f, "node {node} on NPU {npu} references an unknown group")
            }
            TraceError::NotAMember { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} issues a collective for a group it is not in"
                )
            }
            TraceError::BadPeer { npu, node } => {
                write!(
                    f,
                    "node {node} on NPU {npu} references an out-of-range peer"
                )
            }
            TraceError::UnmatchedPeerMessage { src, dst, tag } => {
                write!(f, "unmatched peer message {src}->{dst} tag {tag}")
            }
        }
    }
}

impl Error for TraceError {}

/// Builds a single NPU's program (a dependency-ordered node list with
/// NPU-local [`NodeId`]s) independently of any [`TraceBuilder`].
///
/// Node ids are indices into this one program, exactly as in
/// [`TraceBuilder::node`], so a program can be constructed on a worker
/// thread and installed with [`TraceBuilder::set_program`] afterwards —
/// the unit of work the parallel trace generators fan out.
///
/// # Example
///
/// ```
/// use astra_des::DataSize;
/// use astra_workload::{EtOp, ProgramBuilder, TraceBuilder};
///
/// let mut b = TraceBuilder::new(1);
/// let mut p = ProgramBuilder::new();
/// let c = p.node("fwd", EtOp::Compute { flops: 1e9, tensor: DataSize::from_mib(1) }, &[]);
/// p.node("bwd", EtOp::Compute { flops: 2e9, tensor: DataSize::from_mib(1) }, &[c]);
/// b.set_program(0, p);
/// assert_eq!(b.build().unwrap().program(0).len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    nodes: Vec<EtNode>,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an empty program with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        ProgramBuilder {
            nodes: Vec::with_capacity(capacity),
        }
    }

    /// Appends a node and returns its id. Dependencies must be earlier
    /// nodes of this program (validated by [`TraceBuilder::build`]).
    pub fn node(&mut self, name: impl Into<String>, op: EtOp, deps: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(EtNode {
            name: name.into(),
            op,
            deps: deps.to_vec(),
        });
        id
    }

    /// Rewrites every collective's group id through `f`, leaving all other
    /// node state (names, ops, dependencies) untouched.
    ///
    /// This lets a trace generator clone one representative program and
    /// retarget the clone at another NPU's communicator groups instead of
    /// rebuilding the program node by node — the programs of the hybrid
    /// (MP×DP) generator, for instance, differ only in which group ids
    /// their collectives reference.
    pub fn map_groups(&mut self, mut f: impl FnMut(GroupId) -> GroupId) {
        for node in &mut self.nodes {
            if let EtOp::Collective { group, .. } = &mut node.op {
                *group = f(*group);
            }
        }
    }

    /// Id of the most recently added node, if any.
    pub fn last_node(&self) -> Option<NodeId> {
        let len = self.nodes.len();
        (len > 0).then(|| NodeId((len - 1) as u32))
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Validated, incremental construction of an [`ExecutionTrace`].
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    name: String,
    npus: usize,
    groups: Vec<Vec<NpuId>>,
    programs: Vec<Vec<EtNode>>,
}

impl TraceBuilder {
    /// Starts a trace for `npus` NPUs.
    ///
    /// # Panics
    ///
    /// Panics if `npus == 0`.
    pub fn new(npus: usize) -> Self {
        assert!(npus > 0, "trace needs at least one NPU");
        TraceBuilder {
            name: "trace".to_owned(),
            npus,
            groups: Vec::new(),
            programs: vec![Vec::new(); npus],
        }
    }

    /// Sets the trace name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Registers a communicator group and returns its id. Members are
    /// de-duplicated and sorted.
    pub fn add_group(&mut self, mut members: Vec<NpuId>) -> GroupId {
        members.sort_unstable();
        members.dedup();
        // Reuse identical groups to keep traces small.
        if let Some(pos) = self.groups.iter().position(|g| *g == members) {
            return GroupId(pos as u32);
        }
        self.groups.push(members);
        GroupId((self.groups.len() - 1) as u32)
    }

    /// Appends a node to `npu`'s program and returns its id. Dependencies
    /// must be earlier nodes of the same NPU (topological insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn node(
        &mut self,
        npu: NpuId,
        name: impl Into<String>,
        op: EtOp,
        deps: &[NodeId],
    ) -> NodeId {
        assert!(npu < self.npus, "NPU {npu} out of range");
        let id = NodeId(self.programs[npu].len() as u32);
        self.programs[npu].push(EtNode {
            name: name.into(),
            op,
            deps: deps.to_vec(),
        });
        id
    }

    /// Id of the most recently added node of `npu`, if any.
    pub fn last_node(&self, npu: NpuId) -> Option<NodeId> {
        let len = self.programs[npu].len();
        (len > 0).then(|| NodeId((len - 1) as u32))
    }

    /// Replaces `npu`'s program wholesale with one built off-builder via a
    /// [`ProgramBuilder`] — the installation step of the parallel trace
    /// generators, which construct per-NPU programs on worker threads and
    /// merge them deterministically in NPU order.
    ///
    /// # Panics
    ///
    /// Panics if `npu` is out of range.
    pub fn set_program(&mut self, npu: NpuId, program: ProgramBuilder) {
        assert!(npu < self.npus, "NPU {npu} out of range");
        self.programs[npu] = program.nodes;
    }

    /// Validates and finalizes the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first structural problem
    /// found (program count not matching the NPU count, an empty, unsorted
    /// or out-of-range group, dangling dependency, unknown group,
    /// non-member collective, out-of-range peer, or unmatched send/recv).
    /// The simulator relies on every one of these rules.
    pub fn build(self) -> Result<ExecutionTrace, TraceError> {
        if self.npus == 0 || self.programs.len() != self.npus {
            return Err(TraceError::BadNpuCount {
                npus: self.npus,
                programs: self.programs.len(),
            });
        }
        for (gi, members) in self.groups.iter().enumerate() {
            let group = gi as u32;
            match members.last() {
                None => return Err(TraceError::EmptyGroup { group }),
                Some(&last) if last >= self.npus => {
                    return Err(TraceError::BadGroupMember { group })
                }
                Some(_) => {}
            }
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err(TraceError::UnsortedGroup { group });
            }
        }
        let mut sends: std::collections::BTreeMap<(NpuId, NpuId, u64), i64> =
            std::collections::BTreeMap::new();
        for (npu, program) in self.programs.iter().enumerate() {
            for (idx, node) in program.iter().enumerate() {
                let idx_u32 = idx as u32;
                for dep in &node.deps {
                    if dep.0 >= idx_u32 {
                        return Err(TraceError::BadDependency { npu, node: idx_u32 });
                    }
                }
                match node.op {
                    EtOp::Collective { group, .. } => {
                        let members = self
                            .groups
                            .get(group.0 as usize)
                            .ok_or(TraceError::BadGroup { npu, node: idx_u32 })?;
                        // Members are sorted (checked above), so membership
                        // is a binary search — this check runs once per
                        // collective node across every NPU's program.
                        if members.binary_search(&npu).is_err() {
                            return Err(TraceError::NotAMember { npu, node: idx_u32 });
                        }
                    }
                    EtOp::PeerSend { peer, tag, .. } => {
                        if peer >= self.npus {
                            return Err(TraceError::BadPeer { npu, node: idx_u32 });
                        }
                        *sends.entry((npu, peer, tag)).or_insert(0) += 1;
                    }
                    EtOp::PeerRecv { peer, tag, .. } => {
                        if peer >= self.npus {
                            return Err(TraceError::BadPeer { npu, node: idx_u32 });
                        }
                        *sends.entry((peer, npu, tag)).or_insert(0) -= 1;
                    }
                    _ => {}
                }
            }
        }
        if let Some(((src, dst, tag), _)) = sends.iter().find(|(_, &count)| count != 0) {
            return Err(TraceError::UnmatchedPeerMessage {
                src: *src,
                dst: *dst,
                tag: *tag,
            });
        }
        Ok(ExecutionTrace {
            name: self.name,
            npus: self.npus,
            groups: self.groups,
            programs: self.programs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute() -> EtOp {
        EtOp::Compute {
            flops: 1e9,
            tensor: DataSize::from_mib(1),
        }
    }

    #[test]
    fn builds_simple_trace() {
        let mut b = TraceBuilder::new(2).with_name("unit");
        let g = b.add_group(vec![0, 1]);
        for npu in 0..2 {
            let c = b.node(npu, "fwd", compute(), &[]);
            b.node(
                npu,
                "ar",
                EtOp::Collective {
                    collective: Collective::AllReduce,
                    size: DataSize::from_mib(8),
                    group: g,
                },
                &[c],
            );
        }
        let t = b.build().unwrap();
        assert_eq!(t.name(), "unit");
        assert_eq!(t.npus(), 2);
        assert_eq!(t.total_nodes(), 4);
        assert_eq!(t.group(g), &[0, 1]);
        assert_eq!(t.program(1)[1].deps, vec![NodeId(0)]);
    }

    #[test]
    fn groups_are_deduplicated() {
        let mut b = TraceBuilder::new(4);
        let g1 = b.add_group(vec![2, 0]);
        let g2 = b.add_group(vec![0, 2]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn rejects_forward_dependency() {
        let mut b = TraceBuilder::new(1);
        b.node(0, "x", compute(), &[NodeId(5)]);
        assert!(matches!(
            b.build(),
            Err(TraceError::BadDependency { npu: 0, node: 0 })
        ));
    }

    #[test]
    fn rejects_unknown_group() {
        let mut b = TraceBuilder::new(1);
        b.node(
            0,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(1),
                group: GroupId(9),
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::BadGroup { .. })));
    }

    #[test]
    fn rejects_collective_from_non_member() {
        let mut b = TraceBuilder::new(3);
        let g = b.add_group(vec![0, 1]);
        b.node(
            2,
            "ar",
            EtOp::Collective {
                collective: Collective::AllGather,
                size: DataSize::from_mib(1),
                group: g,
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::NotAMember { .. })));
    }

    #[test]
    fn rejects_unmatched_send() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 1,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        assert!(matches!(
            b.build(),
            Err(TraceError::UnmatchedPeerMessage {
                src: 0,
                dst: 1,
                tag: 7
            })
        ));
    }

    #[test]
    fn matched_send_recv_pass_validation() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 1,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        b.node(
            1,
            "recv",
            EtOp::PeerRecv {
                peer: 0,
                size: DataSize::from_mib(1),
                tag: 7,
            },
            &[],
        );
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_out_of_range_peer() {
        let mut b = TraceBuilder::new(2);
        b.node(
            0,
            "send",
            EtOp::PeerSend {
                peer: 5,
                size: DataSize::from_mib(1),
                tag: 0,
            },
            &[],
        );
        assert!(matches!(b.build(), Err(TraceError::BadPeer { .. })));
    }

    #[test]
    fn json_roundtrip() {
        let mut b = TraceBuilder::new(2).with_name("roundtrip");
        let g = b.add_group(vec![0, 1]);
        for npu in 0..2 {
            let c = b.node(npu, "fwd", compute(), &[]);
            let m = b.node(
                npu,
                "load",
                EtOp::Memory {
                    direction: MemoryDirection::Load,
                    location: TensorLocation::Remote { gathered: true },
                    size: DataSize::from_mib(4),
                },
                &[c],
            );
            b.node(
                npu,
                "a2a",
                EtOp::Collective {
                    collective: Collective::AllToAll,
                    size: DataSize::from_mib(2),
                    group: g,
                },
                &[m],
            );
        }
        let t = b.build().unwrap();
        let json = t.to_json().unwrap();
        assert_eq!(ExecutionTrace::from_json(&json).unwrap(), t);
    }

    /// A two-NPU trace with one collective per NPU and one send/recv pair,
    /// assembled without validation so tests can break one rule at a time.
    fn raw_trace() -> ExecutionTrace {
        let ar = |group| EtNode {
            name: "ar".into(),
            op: EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(1),
                group: GroupId(group),
            },
            deps: vec![NodeId(0)],
        };
        let peer = |op| EtNode {
            name: "p2p".into(),
            op,
            deps: vec![],
        };
        let size = DataSize::from_mib(1);
        ExecutionTrace {
            name: "raw".into(),
            npus: 2,
            groups: vec![vec![0, 1]],
            programs: vec![
                vec![
                    peer(EtOp::PeerSend {
                        peer: 1,
                        size,
                        tag: 3,
                    }),
                    ar(0),
                ],
                vec![
                    peer(EtOp::PeerRecv {
                        peer: 0,
                        size,
                        tag: 3,
                    }),
                    ar(0),
                ],
            ],
        }
    }

    /// Serializes `trace` and loads it back, returning the validation error.
    fn load_error(trace: &ExecutionTrace) -> TraceError {
        match ExecutionTrace::from_json(&trace.to_json().unwrap()) {
            Err(JsonEtError::Invalid(e)) => e,
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn loading_accepts_a_valid_trace() {
        let t = raw_trace();
        assert_eq!(ExecutionTrace::from_json(&t.to_json().unwrap()).unwrap(), t);
    }

    #[test]
    fn loading_rejects_dependency_out_of_range() {
        let mut t = raw_trace();
        t.programs[1][1].deps = vec![NodeId(999_999)];
        assert_eq!(
            load_error(&t),
            TraceError::BadDependency { npu: 1, node: 1 }
        );
    }

    #[test]
    fn loading_rejects_dependency_on_itself() {
        let mut t = raw_trace();
        t.programs[0][1].deps = vec![NodeId(1)];
        assert_eq!(
            load_error(&t),
            TraceError::BadDependency { npu: 0, node: 1 }
        );
    }

    #[test]
    fn loading_rejects_unknown_group_id() {
        let mut t = raw_trace();
        t.programs[0][1].op = EtOp::Collective {
            collective: Collective::AllReduce,
            size: DataSize::from_mib(1),
            group: GroupId(7),
        };
        assert_eq!(load_error(&t), TraceError::BadGroup { npu: 0, node: 1 });
    }

    #[test]
    fn loading_rejects_collective_from_non_member() {
        let mut t = raw_trace();
        t.groups[0] = vec![0];
        assert_eq!(load_error(&t), TraceError::NotAMember { npu: 1, node: 1 });
    }

    #[test]
    fn loading_rejects_empty_group() {
        let mut t = raw_trace();
        t.groups.push(vec![]);
        assert_eq!(load_error(&t), TraceError::EmptyGroup { group: 1 });
    }

    #[test]
    fn loading_rejects_unsorted_group() {
        let mut t = raw_trace();
        t.groups[0] = vec![1, 0];
        assert_eq!(load_error(&t), TraceError::UnsortedGroup { group: 0 });
    }

    #[test]
    fn loading_rejects_duplicated_group_member() {
        let mut t = raw_trace();
        t.groups[0] = vec![0, 1, 1];
        assert_eq!(load_error(&t), TraceError::UnsortedGroup { group: 0 });
    }

    #[test]
    fn loading_rejects_out_of_range_group_member() {
        let mut t = raw_trace();
        t.groups[0] = vec![0, 1, 2];
        assert_eq!(load_error(&t), TraceError::BadGroupMember { group: 0 });
    }

    #[test]
    fn loading_rejects_out_of_range_peer() {
        let mut t = raw_trace();
        t.programs[0][0].op = EtOp::PeerSend {
            peer: 9,
            size: DataSize::from_mib(1),
            tag: 3,
        };
        assert_eq!(load_error(&t), TraceError::BadPeer { npu: 0, node: 0 });
    }

    #[test]
    fn loading_rejects_unmatched_send() {
        let mut t = raw_trace();
        t.programs[1][0].op = EtOp::PeerRecv {
            peer: 0,
            size: DataSize::from_mib(1),
            tag: 4,
        };
        assert_eq!(
            load_error(&t),
            TraceError::UnmatchedPeerMessage {
                src: 0,
                dst: 1,
                tag: 3
            }
        );
    }

    #[test]
    fn loading_rejects_program_count_mismatch() {
        let mut t = raw_trace();
        t.npus = 3;
        assert_eq!(
            load_error(&t),
            TraceError::BadNpuCount {
                npus: 3,
                programs: 2
            }
        );
        t.npus = 0;
        t.programs.clear();
        t.groups.clear();
        assert_eq!(
            load_error(&t),
            TraceError::BadNpuCount {
                npus: 0,
                programs: 0
            }
        );
    }

    #[test]
    fn builder_rejects_empty_and_out_of_range_groups() {
        let mut b = TraceBuilder::new(2);
        b.add_group(vec![]);
        assert_eq!(b.build(), Err(TraceError::EmptyGroup { group: 0 }));
        let mut b = TraceBuilder::new(2);
        b.add_group(vec![0, 5]);
        assert_eq!(b.build(), Err(TraceError::BadGroupMember { group: 0 }));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = TraceError::UnmatchedPeerMessage {
            src: 3,
            dst: 4,
            tag: 9,
        };
        let msg = err.to_string();
        assert!(msg.contains('3') && msg.contains('4') && msg.contains('9'));
    }
}
