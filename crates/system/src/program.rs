//! The execution trace compiled into the flat arrays the engine reads on
//! every node: one dependency CSR for all NPUs and one packed 8-byte op
//! word per node.
//!
//! NPUs advance in lockstep, so consecutive engine events touch the state
//! of different NPUs. Reading the trace's ~80-byte `EtNode`s and one set
//! of vectors per NPU spreads that state over memory; here each node's
//! dependency counter, dependents and pre-priced operation sit in dense
//! arrays shared by all NPUs.

use astra_des::Time;
use astra_topology::NpuId;
use astra_workload::{EtOp, ExecutionTrace, TensorLocation};

use crate::engine::{SimError, SystemConfig, COMM, COMPUTE, LOCAL, REMOTE};

/// A node's operation packed into one word: a 2-bit tag over a 62-bit
/// payload.
///
/// | tag | payload |
/// |---|---|
/// | compute | service time in ps, before any straggler stretch |
/// | local memory | service time in ps |
/// | collective | group id (high 31 bits), rank of the issuing NPU in the group (low 31 bits) |
/// | trace | none: read the node's [`EtOp`] from the trace |
///
/// Remote-memory and p2p nodes, a collective issued by a non-member, and
/// any value that does not fit its field take the `trace` word: the
/// engine dispatches those on the trace's op, with the same results and
/// errors.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct OpWord(u64);

/// An [`OpWord`], unpacked.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// A compute op and its roofline service time.
    Compute(Time),
    /// A local-memory access and its service time.
    LocalMemory(Time),
    /// A collective of group `group`, issued by the member at `rank`.
    Collective {
        /// Group id.
        group: u32,
        /// Index of the issuing NPU in the group's sorted member list.
        rank: usize,
    },
    /// Anything else: dispatch on the trace's op.
    Trace,
}

impl OpWord {
    const TAG_SHIFT: u32 = 62;
    const PAYLOAD: u64 = (1 << Self::TAG_SHIFT) - 1;
    const FIELD_BITS: u32 = 31;
    const FIELD: u64 = (1 << Self::FIELD_BITS) - 1;

    const COMPUTE: u64 = 0;
    const LOCAL_MEMORY: u64 = 1;
    const COLLECTIVE: u64 = 2;
    const TRACE: u64 = 3;

    /// The word of a node the engine reads from the trace.
    pub(crate) const TRACE_OP: OpWord = OpWord(Self::TRACE << Self::TAG_SHIFT);

    fn service(tag: u64, service: Time) -> OpWord {
        if service.as_ps() > Self::PAYLOAD {
            return Self::TRACE_OP;
        }
        OpWord(tag << Self::TAG_SHIFT | service.as_ps())
    }

    /// A compute op taking `service` before any straggler stretch.
    pub(crate) fn compute(service: Time) -> OpWord {
        Self::service(Self::COMPUTE, service)
    }

    /// A local-memory access taking `service`.
    pub(crate) fn local_memory(service: Time) -> OpWord {
        Self::service(Self::LOCAL_MEMORY, service)
    }

    /// A collective of `group` issued by the member at `rank`.
    pub(crate) fn collective(group: u32, rank: usize) -> OpWord {
        let (group, rank) = (u64::from(group), rank as u64);
        if group > Self::FIELD || rank > Self::FIELD {
            return Self::TRACE_OP;
        }
        OpWord(Self::COLLECTIVE << Self::TAG_SHIFT | group << Self::FIELD_BITS | rank)
    }

    /// Compiles one trace op of `npu`: prices compute and local-memory
    /// ops, and looks the issuing NPU up in a collective's group.
    fn compile(op: &EtOp, npu: NpuId, trace: &ExecutionTrace, config: &SystemConfig) -> OpWord {
        match *op {
            EtOp::Compute { flops, tensor } => {
                Self::compute(config.roofline.compute_time(flops, tensor))
            }
            EtOp::Memory {
                location: TensorLocation::Local,
                size,
                ..
            } => Self::local_memory(config.local_memory.access_time(size)),
            EtOp::Collective { group, .. } => trace
                .groups()
                .get(group.0 as usize)
                .and_then(|members| members.binary_search(&npu).ok())
                .map_or(Self::TRACE_OP, |rank| Self::collective(group.0, rank)),
            EtOp::Memory {
                location: TensorLocation::Remote { .. },
                ..
            }
            | EtOp::PeerSend { .. }
            | EtOp::PeerRecv { .. } => Self::TRACE_OP,
        }
    }

    /// Unpacks the word.
    #[inline]
    pub(crate) fn decode(self) -> Op {
        let payload = self.0 & Self::PAYLOAD;
        match self.0 >> Self::TAG_SHIFT {
            Self::COMPUTE => Op::Compute(Time::from_ps(payload)),
            Self::LOCAL_MEMORY => Op::LocalMemory(Time::from_ps(payload)),
            Self::COLLECTIVE => Op::Collective {
                group: (payload >> Self::FIELD_BITS) as u32,
                rank: (payload & Self::FIELD) as usize,
            },
            _ => Op::Trace,
        }
    }
}

/// A trace compiled for one run, indexed by global node id: NPU `n`'s
/// node `i` is node `node_base[n] + i`.
pub(crate) struct Program {
    /// First global node id of each NPU, then the total node count.
    pub(crate) node_base: Vec<usize>,
    /// Per node: the dependencies not yet complete. Mutated by the run.
    pub(crate) remaining_deps: Vec<u32>,
    /// Compressed sparse rows of dependents: node `g`'s dependents are
    /// the NPU-local node ids `dep_targets[dep_offsets[g]..dep_offsets[g + 1]]`,
    /// in ascending order.
    pub(crate) dep_offsets: Vec<u32>,
    pub(crate) dep_targets: Vec<u32>,
    /// Per node: the operation, pre-priced where the word holds it.
    pub(crate) ops: Vec<OpWord>,
    /// Per NPU and activity category (the engine's `COMPUTE`, `COMM`,
    /// `REMOTE`, `LOCAL` order): how many busy intervals its nodes can
    /// log at most, one per node.
    pub(crate) log_capacity: Vec<[usize; 4]>,
    /// Whether any node accesses remote memory.
    pub(crate) uses_remote: bool,
}

impl Program {
    /// Compiles `trace` for a run under `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::Internal`] when the trace has more NPUs or dependency
    /// edges than the engine's 32-bit ids and row offsets address.
    pub(crate) fn compile(trace: &ExecutionTrace, config: &SystemConfig) -> Result<Self, SimError> {
        let npus = trace.npus();
        let total = trace.total_nodes();
        let mut node_base = Vec::with_capacity(npus + 1);
        let mut remaining_deps = Vec::with_capacity(total);
        let mut ops = Vec::with_capacity(total);
        let mut log_capacity = Vec::with_capacity(npus);
        let mut uses_remote = false;
        // Row `g`'s dependent count goes to `dep_offsets[g + 2]`; after the
        // prefix sum `dep_offsets[g + 1]` is where row `g` starts, and
        // filling the rows through it as a cursor leaves it where row `g`
        // ends, which is where row `g + 1` starts. The last slot is only
        // ever a count, and is dropped.
        let mut dep_offsets = vec![0u32; total + 2];
        let mut edges = 0usize;
        node_base.push(0);
        for npu in 0..npus {
            let base = node_base[npu];
            let program = trace.program(npu);
            let counts = &mut dep_offsets[base + 2..base + program.len() + 2];
            let mut logs = [0; 4];
            for node in program {
                for d in &node.deps {
                    counts[d.0 as usize] += 1;
                }
                edges += node.deps.len();
                remaining_deps.push(node.deps.len() as u32);
                ops.push(OpWord::compile(&node.op, npu, trace, config));
                logs[log_category(&node.op)] += 1;
                uses_remote |= matches!(
                    node.op,
                    EtOp::Memory {
                        location: TensorLocation::Remote { .. },
                        ..
                    }
                );
            }
            log_capacity.push(logs);
            node_base.push(base + program.len());
        }
        if u32::try_from(npus).is_err() || u32::try_from(edges).is_err() {
            return Err(SimError::Internal(
                "the trace has more NPUs or dependency edges than 32-bit ids address",
            ));
        }
        for i in 1..dep_offsets.len() {
            dep_offsets[i] += dep_offsets[i - 1];
        }
        let mut dep_targets = vec![0u32; edges];
        for (npu, &base) in node_base[..npus].iter().enumerate() {
            let program = trace.program(npu);
            let cursors = &mut dep_offsets[base + 1..base + program.len() + 1];
            for (idx, node) in program.iter().enumerate() {
                for d in &node.deps {
                    let slot = &mut cursors[d.0 as usize];
                    dep_targets[*slot as usize] = idx as u32;
                    *slot += 1;
                }
            }
        }
        dep_offsets.pop();
        Ok(Program {
            node_base,
            remaining_deps,
            dep_offsets,
            dep_targets,
            ops,
            log_capacity,
            uses_remote,
        })
    }
}

/// The interval log the engine records a node's busy time in.
fn log_category(op: &EtOp) -> usize {
    match *op {
        EtOp::Compute { .. } => COMPUTE,
        EtOp::Memory {
            location: TensorLocation::Local,
            ..
        } => LOCAL,
        // In-switch collective transfers are communication through the
        // pool fabric; plain transfers are remote-memory time.
        EtOp::Memory {
            location: TensorLocation::Remote { gathered },
            ..
        } => {
            if gathered {
                COMM
            } else {
                REMOTE
            }
        }
        EtOp::Collective { .. } | EtOp::PeerSend { .. } | EtOp::PeerRecv { .. } => COMM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_collectives::Collective;
    use astra_des::DataSize;
    use astra_workload::TraceBuilder;

    #[test]
    fn every_kind_round_trips() {
        for ps in [0, 1, 350_000, OpWord::PAYLOAD] {
            let t = Time::from_ps(ps);
            assert_eq!(OpWord::compute(t).decode(), Op::Compute(t));
            assert_eq!(OpWord::local_memory(t).decode(), Op::LocalMemory(t));
        }
        let max = OpWord::FIELD as u32;
        for (group, rank) in [
            (0, 0),
            (7, 1023),
            (max, 0),
            (0, max as usize),
            (max, max as usize),
        ] {
            assert_eq!(
                OpWord::collective(group, rank).decode(),
                Op::Collective { group, rank }
            );
        }
        assert_eq!(OpWord::TRACE_OP.decode(), Op::Trace);
    }

    #[test]
    fn values_past_their_field_fall_back_to_the_trace_op() {
        let big = Time::from_ps(1 << 62);
        assert_eq!(OpWord::compute(big), OpWord::TRACE_OP);
        assert_eq!(OpWord::local_memory(Time::MAX), OpWord::TRACE_OP);
        assert_eq!(OpWord::collective(1 << 31, 0), OpWord::TRACE_OP);
        assert_eq!(OpWord::collective(0, 1 << 31), OpWord::TRACE_OP);
        assert_eq!(OpWord::collective(u32::MAX, usize::MAX), OpWord::TRACE_OP);
    }

    #[test]
    fn rows_list_dependents_in_node_order_across_npus() {
        let compute = EtOp::Compute {
            flops: 1e9,
            tensor: DataSize::ZERO,
        };
        let mut b = TraceBuilder::new(3);
        let g = b.add_group(vec![0, 2]);
        // NPU 0: a diamond. NPU 1: one node. NPU 2: a chain ending in a
        // collective.
        let a = b.node(0, "a", compute, &[]);
        let l = b.node(0, "l", compute, &[a]);
        let r = b.node(0, "r", compute, &[a]);
        b.node(0, "join", compute, &[l, r, a]);
        b.node(1, "solo", compute, &[]);
        let first = b.node(2, "first", compute, &[]);
        b.node(
            2,
            "ar",
            EtOp::Collective {
                collective: Collective::AllReduce,
                size: DataSize::from_mib(1),
                group: g,
            },
            &[first],
        );
        let p = Program::compile(&b.build().unwrap(), &SystemConfig::default()).unwrap();
        assert_eq!(p.node_base, [0, 4, 5, 7]);
        assert_eq!(p.remaining_deps, [0, 1, 1, 3, 0, 0, 1]);
        assert_eq!(p.dep_offsets, [0, 3, 4, 5, 5, 5, 6, 6]);
        assert_eq!(p.dep_targets, [1, 2, 3, 3, 3, 1]);
        let service = SystemConfig::default()
            .roofline
            .compute_time(1e9, DataSize::ZERO);
        assert_eq!(p.ops[0].decode(), Op::Compute(service));
        assert_eq!(p.ops[6].decode(), Op::Collective { group: 0, rank: 1 });
    }
}
