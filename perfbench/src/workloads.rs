//! The three workloads and their request lists.
//!
//! Requests only set options that pick a *model* (topology, workload,
//! parallelism, memory, `network`, `collectives`, `chunks`), never one
//! that only picks between bit-identical implementations (`queue`,
//! `sim_threads`, `p2p`): removing such an option must not touch a
//! workload, and a changed default must still show in the digests.

use std::collections::BTreeSet;

use astra_core::Topology;
use astra_serve::SimRequest;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold single runs on the analytical network with closed-form
    /// collectives: the engine event loop does nearly all the work.
    TrainAnalytical,
    /// Cold single runs with backend-executed collectives on the
    /// batched, flow and packet backends, plus one traced run.
    TrainBackend,
    /// A seeded request list through one `WarmCache`, one closed-loop
    /// client: the scoring-oracle use.
    ServeSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainAnalytical,
        Workload::TrainBackend,
        Workload::ServeSweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainAnalytical => "train-analytical",
            Workload::TrainBackend => "train-backend",
            Workload::ServeSweep => "serve-sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One request of a workload's list.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request as JSON without an `id`: the digest-table key.
    pub key: String,
    /// The JSONL line handed to the program (`serve-sweep`: with an `id`).
    pub line: String,
    /// `key` parsed, for the layer-by-layer path of the `train-*` lists.
    pub req: SimRequest,
    /// Run with telemetry on and render the trace to Chrome JSON.
    pub traced: bool,
}

impl Request {
    fn new(key: String, line: String, traced: bool) -> Self {
        let req = SimRequest::from_json_line(&key)
            .unwrap_or_else(|e| panic!("benchmark request {key} does not parse: {e}"));
        assert!(
            req.queue.is_none() && req.p2p.is_none() && req.sim_threads.is_none(),
            "benchmark requests set model options only: {key}"
        );
        Request {
            line: line.clone(),
            key,
            req,
            traced,
        }
    }

    fn plain(key: &str) -> Self {
        Self::new(key.to_owned(), key.to_owned(), false)
    }
}

/// Five requests of distinct cost, so the per-request median and p90
/// fall inside one request's samples instead of between two requests'.
const TRAIN_ANALYTICAL: [&str; 5] = [
    r#"{"topology":"R(16)@200_SW(64)@50","workload":"dlrm"}"#,
    r#"{"topology":"R(16)@200_SW(64)@50","workload":"gpt3"}"#,
    r#"{"topology":"R(16)@200_SW(64)@50","workload":"t1t"}"#,
    r#"{"topology":"R(16)@200_SW(64)@50","workload":"gpt3","fsdp":true}"#,
    r#"{"topology":"SW(16)@256_SW(16)@100","workload":"moe","memory":"hiermem-opt"}"#,
];

/// With the traced request below, five requests (see [`TRAIN_ANALYTICAL`]).
const TRAIN_BACKEND: [&str; 4] = [
    r#"{"topology":"R(8)@200_SW(16)@50","workload":"gpt3","network":"batched","collectives":"backend"}"#,
    r#"{"topology":"R(8)@200_SW(16)@50","workload":"gpt3","network":"flow","collectives":"backend"}"#,
    r#"{"topology":"R(8)@100_R(8)@100","workload":"gpt3","pipeline":8,"network":"packet"}"#,
    r#"{"topology":"R(8)@100_R(8)@100","workload":"t1t","network":"packet","collectives":"backend"}"#,
];

/// Kept at 16 NPUs: the same trace at 128 NPUs renders to about 1 GB.
const TRAIN_BACKEND_TRACED: &str = r#"{"topology":"R(4)@200_SW(4)@50","workload":"gpt3","network":"batched","collectives":"backend"}"#;

/// `serve-sweep` topologies: 64 and 128 NPUs, switch and ring fabrics.
const SERVE_TOPOLOGIES: [&str; 3] = [
    "R(4)@200_SW(16)@50",
    "R(8)@100_R(8)@100",
    "R(8)@200_SW(16)@50",
];

/// `serve-sweep` execution modes as request fields. Backend collectives
/// run 16 chunks, not the default 128: at 128 the six GPT-3 backend
/// requests alone would take most of a pass and repeat `train-backend`.
const SERVE_MODES: [&str; 5] = [
    "",
    r#","network":"flow","collectives":"backend","chunks":16"#,
    r#","network":"batched","collectives":"backend","chunks":16"#,
    r#","pipeline":8"#,
    r#","fsdp":true"#,
];

/// Exact repeats added to the grid in a `serve-sweep` list: 18 of its 72
/// requests (25%). No measured traffic backs this share. It keeps the
/// result-cache hits (~0.01 ms) in the lowest quarter of the latency
/// order, so `request_ms.p50` lands inside the misses (1-100 ms); near
/// 50% it would straddle the hit/miss gap and jump with the seed.
const SERVE_REPEATS: usize = 18;

/// Every distinct `serve-sweep` request: topologies × workloads × modes.
/// `moe` ignores the parallelism modes, so it runs the first three only.
pub fn serve_grid() -> Vec<String> {
    let mut grid = Vec::new();
    for topology in SERVE_TOPOLOGIES {
        for workload in ["gpt3", "t1t", "dlrm", "moe"] {
            let (memory, modes) = if workload == "moe" {
                (r#","memory":"hiermem-opt""#, &SERVE_MODES[..3])
            } else {
                ("", &SERVE_MODES[..])
            };
            for mode in modes {
                grid.push(format!(
                    r#"{{"topology":"{topology}","workload":"{workload}"{memory}{mode}}}"#
                ));
            }
        }
    }
    grid
}

/// Every request any workload can run, for regenerating the digests.
pub fn universe() -> Vec<Request> {
    let mut all: Vec<Request> = TRAIN_ANALYTICAL
        .iter()
        .chain(&TRAIN_BACKEND)
        .map(|key| Request::plain(key))
        .collect();
    all.push(Request::new(
        TRAIN_BACKEND_TRACED.to_owned(),
        TRAIN_BACKEND_TRACED.to_owned(),
        true,
    ));
    all.extend(serve_grid().iter().map(|key| Request::plain(key)));
    all
}

/// SplitMix64: a small deterministic generator for the request lists.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The request list of `workload` for `seed`. The `train-*` lists are
/// fixed configurations in a seeded order. `serve-sweep` runs every grid
/// point once plus [`SERVE_REPEATS`] seeded exact repeats, in a seeded
/// order: the seed moves which requests repeat and which request first
/// pays for a shared trace or topology, while the pass's total work stays
/// put, so host time is comparable across seeds.
pub fn requests(workload: Workload, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::TrainAnalytical => {
            let mut list: Vec<Request> =
                TRAIN_ANALYTICAL.iter().map(|k| Request::plain(k)).collect();
            rng.shuffle(&mut list);
            list
        }
        Workload::TrainBackend => {
            let mut list: Vec<Request> = TRAIN_BACKEND.iter().map(|k| Request::plain(k)).collect();
            list.push(Request::new(
                TRAIN_BACKEND_TRACED.to_owned(),
                TRAIN_BACKEND_TRACED.to_owned(),
                true,
            ));
            rng.shuffle(&mut list);
            list
        }
        Workload::ServeSweep => {
            let grid = serve_grid();
            let mut keys = grid.clone();
            for _ in 0..SERVE_REPEATS {
                keys.push(grid[rng.below(grid.len())].clone());
            }
            rng.shuffle(&mut keys);
            keys.into_iter()
                .enumerate()
                .map(|(i, key)| {
                    let line = format!(r#"{{"id":"r{i}",{}"#, &key[1..]);
                    Request::new(key, line, false)
                })
                .collect()
        }
    }
}

/// How a `serve-sweep` list shares work, in list order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mix {
    /// Requests whose exact configuration ran earlier (result-cache reads).
    pub repeats: usize,
    /// New configurations whose trace or topology an earlier request
    /// already used (partial hits).
    pub shared: usize,
    /// New configurations sharing nothing with earlier requests.
    pub fresh: usize,
}

/// The generation inputs of a request's trace, as the trace cache keys it.
fn trace_key(req: &SimRequest, npus: usize) -> String {
    let workload = req.workload.as_deref().unwrap_or("");
    if workload == "moe" {
        return format!("moe/{npus}");
    }
    format!(
        "{workload}/mp={:?}/pipeline={:?}/fsdp={}/{npus}",
        req.mp, req.pipeline, req.fsdp
    )
}

/// Classifies every request of `list` against the ones before it.
pub fn mix(list: &[Request]) -> Mix {
    let mut seen_keys = BTreeSet::new();
    let mut seen_traces = BTreeSet::new();
    let mut seen_topologies = BTreeSet::new();
    let mut mix = Mix::default();
    for r in list {
        let npus = Topology::parse(&r.req.topology).map_or(0, |t| t.npus());
        let trace = trace_key(&r.req, npus);
        if !seen_keys.insert(r.key.clone()) {
            mix.repeats += 1;
        } else if seen_traces.contains(&trace) || seen_topologies.contains(&r.req.topology) {
            mix.shared += 1;
        } else {
            mix.fresh += 1;
        }
        seen_traces.insert(trace);
        seen_topologies.insert(r.req.topology.clone());
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_lists_are_seeded_and_keep_their_mix_of_work() {
        let a = requests(Workload::ServeSweep, 1);
        let b = requests(Workload::ServeSweep, 1);
        let c = requests(Workload::ServeSweep, 2);
        let lines = |l: &[Request]| l.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        let grid = serve_grid();
        assert_eq!(a.len(), grid.len() + SERVE_REPEATS);
        let distinct: BTreeSet<&str> = a.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(distinct.len(), grid.len(), "every grid point runs");
        let m = mix(&a);
        assert_eq!(m.repeats, SERVE_REPEATS);
        assert_eq!(m.repeats + m.shared + m.fresh, a.len());
        assert!(m.fresh > 0 && m.shared > 0);
    }

    #[test]
    fn train_lists_are_seeded_orders_of_fixed_requests() {
        let keys = |seed| {
            let mut k: Vec<String> = requests(Workload::TrainBackend, seed)
                .into_iter()
                .map(|r| r.key)
                .collect();
            k.sort();
            k
        };
        assert_eq!(keys(1), keys(7));
        let traced = requests(Workload::TrainBackend, 3)
            .iter()
            .filter(|r| r.traced)
            .count();
        assert_eq!(traced, 1);
    }
}
