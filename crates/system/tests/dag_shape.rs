//! Pins the engine's results on a trace shaped to stress its dependency
//! graph: one node with ~1000 dependents, one node with ~1000 deps, and
//! every NPU interleaving collectives on the two groups it belongs to.
//! The engine's dependency adjacency and its per-(group, member)
//! collective instance counters must reproduce the pinned times exactly.
//! A second trace has members run several instances ahead of their
//! groups, which keeps more than one instance per group waiting.

use astra_collectives::{Collective, SchedulerPolicy};
use astra_des::{DataSize, QueueBackend, Time};
use astra_system::{simulate, SystemConfig};
use astra_topology::Topology;
use astra_workload::{EtOp, ExecutionTrace, NodeId, TraceBuilder};

const FAN: u32 = 1000;

const NPUS: usize = 8;

/// Eight NPUs on a 2×2×2 grid. NPU `n` belongs to its pair group (dim 0)
/// and its plane group (dims 1 and 2, where the schedulers differ), and
/// alternates collectives between them.
fn fan_trace() -> ExecutionTrace {
    let mut b = TraceBuilder::new(NPUS).with_name("dag-shape");
    let pairs: Vec<_> = (0..NPUS / 2)
        .map(|k| b.add_group(vec![2 * k, 2 * k + 1]))
        .collect();
    let planes: Vec<_> = (0..2)
        .map(|c| b.add_group((0..NPUS / 2).map(|k| 2 * k + c).collect()))
        .collect();
    for npu in 0..NPUS {
        let compute = |flops: f64| EtOp::Compute {
            flops,
            tensor: DataSize::from_kib(64),
        };
        // Fan-out: every node below depends on the root.
        let root = b.node(npu, "root", compute(3e9 * (npu as f64 + 1.0)), &[]);
        let fan: Vec<NodeId> = (0..FAN)
            .map(|i| {
                let flops = 1e7 * f64::from(i % 7 + 1) * (npu as f64 + 1.0);
                b.node(npu, format!("fan{i}"), compute(flops), &[root])
            })
            .collect();
        // Interleaved collectives on the pair and plane groups. Each waits
        // on a different slice of the fan, so members arrive at different
        // instants and back-to-back instances contend on the same links.
        let groups = [pairs[npu / 2], planes[npu % 2]];
        let mut colls = Vec::new();
        for k in 0..6u32 {
            let (collective, mib) = match k % 3 {
                0 => (Collective::AllReduce, 64),
                1 => (Collective::AllGather, 16),
                _ => (Collective::ReduceScatter, 40),
            };
            let deps = [fan[(k * 150 + 7 * npu as u32) as usize]];
            colls.push(b.node(
                npu,
                format!("coll{k}"),
                EtOp::Collective {
                    collective,
                    size: DataSize::from_mib(mib + u64::from(k)),
                    group: groups[k as usize % 2],
                },
                &deps,
            ));
        }
        // Fan-in: one node waits on the whole fan and every collective.
        let mut all = fan;
        all.extend(colls);
        b.node(npu, "join", compute(5e8), &all);
    }
    b.build().unwrap()
}

fn run(scheduler: SchedulerPolicy) -> (u64, Vec<u64>) {
    let topo = Topology::parse("R(2)@100_SW(2)@25_SW(2)@50").unwrap();
    let config = SystemConfig {
        scheduler,
        ..SystemConfig::default()
    };
    let report = simulate(&fan_trace(), &topo, &config).unwrap();
    // Six collectives per NPU: 4 pair groups and 2 plane groups, each
    // running 3 instances.
    assert_eq!(report.collectives, 18);
    let finish = report.per_npu_finish.iter().map(|t| t.as_ps()).collect();
    (report.total_time.as_ps(), finish)
}

#[test]
fn fan_out_fan_in_trace_has_the_expected_shape() {
    let trace = fan_trace();
    for npu in 0..NPUS {
        let program = trace.program(npu);
        let root_dependents = program
            .iter()
            .filter(|n| n.deps.contains(&NodeId(0)))
            .count();
        assert_eq!(root_dependents, FAN as usize);
        assert_eq!(program.last().unwrap().deps.len(), FAN as usize + 6);
    }
}

#[test]
fn baseline_times_are_pinned() {
    let (total, finish) = run(SchedulerPolicy::Baseline);
    assert_eq!(Time::from_ps(total), Time::from_ps(4_544_155_496));
    let (even, odd) = (4_437_745_254, 4_544_155_496);
    assert_eq!(finish, [even, odd].repeat(NPUS / 2));
}

#[test]
fn themis_times_are_pinned() {
    let (total, finish) = run(SchedulerPolicy::Themis);
    assert_eq!(Time::from_ps(total), Time::from_ps(2_669_047_656));
    let (even, odd) = (2_562_637_414, 2_669_047_656);
    assert_eq!(finish, [even, odd].repeat(NPUS / 2));
}

/// Eight NPUs on the same 2×2×2 grid, in three kinds of overlapping
/// groups: pairs (dim 0), quads (dims 0 and 1) and planes (dims 1 and 2).
/// Each even NPU issues three collectives on its pair at once, before its
/// odd partner, busy with a long compute op, has issued its first; so the
/// pair has three instances open at the same time. The quads and planes
/// mix eager and late members.
fn run_ahead_trace() -> ExecutionTrace {
    let mut b = TraceBuilder::new(NPUS).with_name("run-ahead");
    let pairs: Vec<_> = (0..NPUS / 2)
        .map(|k| b.add_group(vec![2 * k, 2 * k + 1]))
        .collect();
    let quads: Vec<_> = (0..2)
        .map(|h| b.add_group((4 * h..4 * h + 4).collect()))
        .collect();
    let planes: Vec<_> = (0..2)
        .map(|c| b.add_group((0..NPUS / 2).map(|k| 2 * k + c).collect()))
        .collect();
    let collective = |collective, mib: u64, group| EtOp::Collective {
        collective,
        size: DataSize::from_mib(mib),
        group,
    };
    for npu in 0..NPUS {
        let (pair, quad, plane) = (pairs[npu / 2], quads[npu / 4], planes[npu % 2]);
        let pair_ops = [
            collective(Collective::AllReduce, 8, pair),
            collective(Collective::AllGather, 4, pair),
            collective(Collective::ReduceScatter, 6, pair),
        ];
        let mut nodes = Vec::new();
        if npu % 2 == 0 {
            let c: Vec<NodeId> = pair_ops
                .iter()
                .enumerate()
                .map(|(k, &op)| b.node(npu, format!("pair{k}"), op, &[]))
                .collect();
            nodes.push(b.node(
                npu,
                "quad",
                collective(Collective::AllReduce, 16, quad),
                &[c[1]],
            ));
            nodes.push(b.node(
                npu,
                "plane",
                collective(Collective::AllGather, 12, plane),
                &[c[2]],
            ));
            nodes.extend(c);
        } else {
            let root = b.node(
                npu,
                "root",
                EtOp::Compute {
                    flops: 5e10 * (npu as f64 + 1.0),
                    tensor: DataSize::from_kib(64),
                },
                &[],
            );
            let c0 = b.node(npu, "pair0", pair_ops[0], &[root]);
            nodes.push(b.node(
                npu,
                "quad",
                collective(Collective::AllReduce, 16, quad),
                &[root],
            ));
            let c1 = b.node(npu, "pair1", pair_ops[1], &[c0]);
            let c2 = b.node(npu, "pair2", pair_ops[2], &[c1]);
            nodes.push(b.node(
                npu,
                "plane",
                collective(Collective::AllGather, 12, plane),
                &[c2],
            ));
            nodes.extend([root, c0, c1, c2]);
        }
        b.node(
            npu,
            "join",
            EtOp::Compute {
                flops: 2e9,
                tensor: DataSize::from_kib(64),
            },
            &nodes,
        );
    }
    b.build().unwrap()
}

#[test]
fn members_running_ahead_of_their_groups_are_pinned() {
    let topo = Topology::parse("R(2)@100_SW(2)@25_SW(2)@50").unwrap();
    for queue_backend in QueueBackend::ALL {
        let config = SystemConfig {
            queue_backend,
            ..SystemConfig::default()
        };
        let report = simulate(&run_ahead_trace(), &topo, &config).unwrap();
        // 4 pairs × 3 instances, 2 quads and 2 planes × 1.
        assert_eq!(report.collectives, 16, "{queue_backend}");
        assert_eq!(report.total_time, Time::from_ps(2_164_161_358));
        let finish: Vec<u64> = report.per_npu_finish.iter().map(|t| t.as_ps()).collect();
        let (low, high) = (2_110_413_358, 2_164_161_358);
        assert_eq!(finish, [[low; 4], [high; 4]].concat(), "{queue_backend}");
    }
}
