//! Collective scheduling policies (§V-A.1).
//!
//! A hierarchical collective must pick, per chunk, the order in which it
//! visits the topology dimensions. The *baseline* policy always uses the
//! natural ascending order (Dim 1 → N), which loads the first dimension
//! with the largest phase and can leave other dimensions idle. The
//! *Themis*-style policy (Rashidi et al., ISCA 2022) is a greedy scheduler
//! that assigns each chunk the dimension order minimizing the projected
//! maximum per-dimension load, approaching full utilization of the
//! aggregate per-NPU bandwidth on multi-dimensional topologies.

use astra_des::Time;
use astra_topology::Dimension;
use serde::{Deserialize, Serialize};

use crate::engine::{phase_chain_cost, phase_service};
use crate::Collective;

/// Which collective scheduling policy to use.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerPolicy {
    /// Fixed ascending dimension order for every chunk (original ASTRA-sim
    /// multi-rail scheduling).
    #[default]
    Baseline,
    /// Greedy bandwidth-aware load balancing across dimensions (Themis).
    Themis,
}

impl SchedulerPolicy {
    /// Plans the dimension visit orders for a collective of `chunks`
    /// chunks of `chunk_size` each over `dims`, as run-length pairs
    /// `(order, chunks_with_that_order)` whose counts sum to `chunks`.
    /// `initial_loads` is the pre-existing backlog on each dimension (time
    /// until its links drain), which the bandwidth-aware policy balances
    /// against.
    ///
    /// The engine's fluid pipeline model sums per-dimension service over
    /// chunks and takes the maximum chunk chain, neither of which depends
    /// on the order chunks are issued in, so each distinct order appears
    /// once.
    pub(crate) fn plan_orders(
        &self,
        collective: Collective,
        chunk_size: astra_des::DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) -> Vec<(Vec<usize>, u64)> {
        let identity: Vec<usize> = (0..dims.len()).collect();
        match self {
            SchedulerPolicy::Baseline => vec![(identity, chunks)],
            SchedulerPolicy::Themis => {
                if dims.len() == 1 {
                    // A 1-D topology has nothing to balance (the paper's
                    // W-1D systems show no gain from smart scheduling).
                    return vec![(identity, chunks)];
                }
                plan_themis(collective, chunk_size, dims, chunks, initial_loads)
            }
        }
    }
}

/// Greedy min-makespan planning: for every chunk, evaluate candidate
/// dimension orders and commit the one that minimizes the resulting maximum
/// per-dimension accumulated load. Returns how many chunks each chosen
/// candidate order received.
fn plan_themis(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    chunks: u64,
    initial_loads: &[Time],
) -> Vec<(Vec<usize>, u64)> {
    let candidates = candidate_orders(dims.len());
    // Pre-compute the per-dimension cost vector of each candidate order.
    // Every candidate is a permutation, so it charges every dimension.
    let costs: Vec<Vec<(usize, Time)>> = candidates
        .iter()
        .map(|order| order_costs(collective, chunk_size, dims, order))
        .collect();

    let mut loads = initial_loads.to_vec();
    let mut picks = vec![0u64; candidates.len()];
    for _ in 0..chunks {
        let mut best: Option<(Time, usize)> = None;
        for (ci, cost) in costs.iter().enumerate() {
            let makespan = cost
                .iter()
                .map(|&(d, t)| loads[d] + t)
                .fold(Time::ZERO, Time::max);
            if best.is_none_or(|(m, _)| makespan < m) {
                best = Some((makespan, ci));
            }
        }
        // astra-lint: allow(panic, the candidate set is a non-empty permutation pool by construction)
        let (_, ci) = best.expect("at least one candidate order");
        for &(d, t) in &costs[ci] {
            loads[d] += t;
        }
        picks[ci] += 1;
    }
    let greedy: Vec<(Vec<usize>, u64)> = candidates
        .into_iter()
        .zip(picks)
        .filter(|&(_, n)| n > 0)
        .collect();

    // Guard: for latency-dominated (small) collectives, diversified orders
    // lengthen the pipeline-fill chain more than balancing saves. Estimate
    // both plans under the engine's fluid pipeline model and keep the
    // better one, so Themis is never worse than the baseline order.
    let baseline = vec![((0..dims.len()).collect(), chunks)];
    let estimate = |plan: &[(Vec<usize>, u64)]| {
        estimate_finish(collective, chunk_size, dims, plan, chunks, initial_loads)
    };
    if estimate(&baseline) < estimate(&greedy) {
        baseline
    } else {
        greedy
    }
}

/// Mirror of the engine's fluid pipeline model: first chunk's chain plus
/// the bottleneck dimension's backlog and remaining service.
fn estimate_finish(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    plan: &[(Vec<usize>, u64)],
    chunks: u64,
    initial_loads: &[Time],
) -> Time {
    let mut loads = initial_loads.to_vec();
    let mut chain = Time::ZERO;
    let visits = collective.phase_visits();
    for (order, n) in plan {
        let mut divisor = 1u64;
        let mut this_chain = Time::ZERO;
        for &d in order {
            loads[d] += phase_service(collective, chunk_size, &dims[d], divisor) * visits * *n;
            this_chain += phase_chain_cost(collective, chunk_size, &dims[d], divisor) * visits;
            if collective != Collective::AllToAll {
                divisor = divisor.saturating_mul(dims[d].npus() as u64);
            }
        }
        chain = chain.max(this_chain);
    }
    chain
        + loads
            .iter()
            .map(|&l| (l * (chunks - 1)) / chunks)
            .fold(Time::ZERO, Time::max)
}

/// Per-dimension occupancy cost of running one chunk with the given visit
/// order. Only link occupancy (serialization) counts: propagation latency
/// does not hold the dimension and must not skew the balance.
fn order_costs(
    collective: Collective,
    chunk_size: astra_des::DataSize,
    dims: &[Dimension],
    order: &[usize],
) -> Vec<(usize, Time)> {
    let mut divisor = 1u64;
    let visits = collective.phase_visits();
    let mut out = Vec::with_capacity(order.len());
    for &d in order {
        let service = phase_service(collective, chunk_size, &dims[d], divisor);
        out.push((d, service * visits));
        if collective != Collective::AllToAll {
            divisor = divisor.saturating_mul(dims[d].npus() as u64);
        }
    }
    out
}

/// All permutations for small dimension counts; a bandwidth-descending
/// greedy subset (rotations of the bandwidth-sorted order) beyond that.
fn candidate_orders(n: usize) -> Vec<Vec<usize>> {
    if n <= 5 {
        permutations(n)
    } else {
        let base: Vec<usize> = (0..n).collect();
        (0..n)
            .map(|r| {
                let mut v = base.clone();
                v.rotate_left(r);
                v
            })
            .collect()
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    permute(&mut items, 0, &mut out);
    out
}

fn permute(items: &mut Vec<usize>, at: usize, out: &mut Vec<Vec<usize>>) {
    if at == items.len() {
        out.push(items.clone());
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, out);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::DataSize;
    use astra_topology::Topology;

    /// Expands run-length `(order, n)` pairs back into one order per chunk.
    fn expand(plan: &[(Vec<usize>, u64)]) -> Vec<Vec<usize>> {
        plan.iter()
            .flat_map(|(order, n)| std::iter::repeat_n(order.clone(), *n as usize))
            .collect()
    }

    /// The per-chunk greedy planner the run-length planner replaced: a
    /// projected copy of the loads per candidate per chunk, and the
    /// fluid-model guard evaluated chunk by chunk.
    fn reference_plan(
        collective: Collective,
        chunk_size: DataSize,
        dims: &[Dimension],
        chunks: u64,
        initial_loads: &[Time],
    ) -> Vec<Vec<usize>> {
        let identity: Vec<usize> = (0..dims.len()).collect();
        if dims.len() == 1 {
            return vec![identity; chunks as usize];
        }
        let candidates = candidate_orders(dims.len());
        let costs: Vec<Vec<(usize, Time)>> = candidates
            .iter()
            .map(|order| order_costs(collective, chunk_size, dims, order))
            .collect();
        let mut loads = initial_loads.to_vec();
        let mut greedy = Vec::new();
        for _ in 0..chunks {
            let mut best: Option<(Time, usize)> = None;
            for (ci, cost) in costs.iter().enumerate() {
                let mut projected = loads.clone();
                for &(d, t) in cost {
                    projected[d] += t;
                }
                let makespan = projected.iter().copied().fold(Time::ZERO, Time::max);
                if best.is_none_or(|(m, _)| makespan < m) {
                    best = Some((makespan, ci));
                }
            }
            let (_, ci) = best.unwrap();
            for &(d, t) in &costs[ci] {
                loads[d] += t;
            }
            greedy.push(candidates[ci].clone());
        }
        let estimate = |plan: &[Vec<usize>]| {
            let pairs: Vec<(Vec<usize>, u64)> = plan.iter().map(|o| (o.clone(), 1)).collect();
            estimate_finish(collective, chunk_size, dims, &pairs, chunks, initial_loads)
        };
        let baseline = vec![identity; chunks as usize];
        if estimate(&baseline) < estimate(&greedy) {
            baseline
        } else {
            greedy
        }
    }

    #[test]
    fn baseline_is_identity_for_all_chunks() {
        let topo = Topology::parse("R(2)_FC(8)_SW(4)").unwrap();
        let plan = SchedulerPolicy::Baseline.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            4,
            &[Time::ZERO; 3],
        );
        assert_eq!(plan.len(), 1, "one run for the whole collective");
        assert_eq!(expand(&plan), vec![vec![0, 1, 2]; 4]);
    }

    #[test]
    fn themis_single_dim_is_identity() {
        let topo = Topology::parse("SW(512)@500").unwrap();
        let plan = SchedulerPolicy::Themis.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            8,
            &[Time::ZERO],
        );
        assert_eq!(plan.len(), 1, "one run for the whole collective");
        assert_eq!(expand(&plan), vec![vec![0]; 8]);
    }

    #[test]
    fn themis_produces_valid_permutations() {
        let topo = Topology::parse("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50").unwrap();
        let plan = SchedulerPolicy::Themis.plan_orders(
            Collective::AllReduce,
            DataSize::from_mib(32),
            topo.dims(),
            32,
            &[Time::ZERO; 4],
        );
        let chunks = expand(&plan);
        assert_eq!(chunks.len(), 32);
        for order in &chunks {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "not a permutation: {order:?}");
        }
        // Load balancing requires order diversity on a heterogeneous system.
        let distinct: std::collections::BTreeSet<_> = chunks.iter().cloned().collect();
        assert!(distinct.len() > 1, "Themis never varied the order");
        // Each distinct order is one run.
        assert_eq!(distinct.len(), plan.len());
    }

    #[test]
    fn themis_matches_the_per_chunk_planner() {
        let cases = [
            ("R(2)@250_FC(8)@200_R(8)@100_SW(4)@50", 64),
            ("R(4)@100_SW(2)@50", 17),
            ("FC(4)@300_R(4)@100_SW(4)@25", 128),
            ("R(2)@200_R(2)@150_R(2)@100_R(2)@75_R(2)@50_R(2)@25", 40),
        ];
        for (notation, chunks) in cases {
            let topo = Topology::parse(notation).unwrap();
            let dims = topo.dims();
            for collective in Collective::ALL {
                for kib in [1, 64, 32 * 1024, 1024 * 1024] {
                    let chunk_size = DataSize::from_kib(kib);
                    for backlog_us in [0, 7, 900] {
                        let loads: Vec<Time> = (0..dims.len())
                            .map(|d| Time::from_us(backlog_us * (d as u64 % 3)))
                            .collect();
                        let mut got = expand(
                            &SchedulerPolicy::Themis
                                .plan_orders(collective, chunk_size, dims, chunks, &loads),
                        );
                        let mut want = reference_plan(collective, chunk_size, dims, chunks, &loads);
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(
                            got, want,
                            "{notation} {collective} {kib} KiB {backlog_us} us"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn permutations_complete() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(candidate_orders(4).len(), 24);
        // Fallback keeps candidate count linear for many dimensions.
        assert_eq!(candidate_orders(7).len(), 7);
    }
}
