//! One request, run through the library's public functions layer by layer
//! (paper Fig. 1: workload → system/collectives → network), with a span
//! around each call when the traced pass asks for one.
//!
//! The `train-*` path calls the layer crates directly: `Topology::parse`,
//! trace generation, `simulate_with` / `simulate_traced_with`,
//! `TraceFormat::render` and report serialization. It maps a request to a
//! `SystemConfig` and a trace the way `astra serve` does, and hands the
//! engine fresh shared tables the way `astra_serve::execute_once` (the
//! CLI's path) does; the committed digests, taken through `execute_once`,
//! check that mapping on every pass. The `serve-sweep` path calls the
//! service's public API.

use crate::stats::{now, share};
use std::collections::BTreeMap;
use std::sync::Arc;

use astra_core::lowering::lower;
use astra_core::{
    simulate_traced_with, simulate_with, BuildingBlock, CollectiveMode, Dimension, EtOp,
    ExecutionTrace, LoweringKey, NetworkBackendKind, Parallelism, PoolArchitecture, Roofline,
    SharedDelayMemo, SharedLoweringCache, SharedRouteTable, SimReport, SystemConfig, Topology,
    TraceFormat, WarmState,
};
use astra_serve::{execute, report_value, CacheSummary, SimRequest, WarmCache};
use astra_workload::parallelism::{generate_disaggregated_moe, generate_trace, OffloadPlan};

/// A layer boundary the traced pass records a span at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Topology::parse`.
    TopologyParse,
    /// `generate_trace` / `generate_disaggregated_moe`.
    WorkloadGenerate,
    /// `simulate_with` on the analytical network (engine only).
    SystemSimulate,
    /// `simulate_with` on the train-batched packet backend.
    BatchedSimulate,
    /// `simulate_with` on the per-packet backend.
    PacketSimulate,
    /// `simulate_with` on the flow backend.
    FlowSimulate,
    /// `simulate_traced_with` with telemetry on.
    TracedSimulate,
    /// `TraceFormat::Chrome.render`.
    TelemetryRender,
    /// `report_value` plus JSON serialization.
    ReportSerialize,
    /// `SimRequest::from_json_line`.
    ServeParse,
    /// `astra_serve::execute`.
    ServeExecute,
}

impl Layer {
    const COUNT: usize = 11;
}

/// Seconds spent per layer in one pass, plus per-request `execute` times
/// split by result-cache outcome.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    on: bool,
    secs: [f64; Layer::COUNT],
    /// `execute` times of result-cache hits.
    pub execute_hits: Vec<f64>,
    /// `execute` times of result-cache misses.
    pub execute_misses: Vec<f64>,
}

impl Spans {
    /// Span recording on (`true`) or off.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds recorded at `layer`.
    pub fn get(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Seconds recorded across all layers.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        self.secs[layer as usize] += start.elapsed().as_secs_f64();
        out
    }
}

/// Work counts of one pass, summed over the requests that simulated.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Execution-trace nodes generated.
    pub trace_nodes: u64,
    /// Collectives plus p2p messages of analytical-network runs.
    pub system_events: u64,
    /// Chunk-level ops executed by backend collectives.
    pub chunk_ops: u64,
    /// Lowered-program memo hits.
    pub lowering_hits: u64,
    /// Lowered-program memo misses.
    pub lowering_misses: u64,
    /// Analytical delay-memo hits.
    pub delay_hits: u64,
    /// Analytical delay-memo misses.
    pub delay_misses: u64,
    /// Network events of the batched backend.
    pub batched_events: u64,
    /// Packet-train splits of the batched backend.
    pub train_splits: u64,
    /// Network events of the per-packet backend.
    pub packet_events: u64,
    /// Network events of the flow backend.
    pub flow_events: u64,
    /// Bytes of rendered telemetry traces.
    pub trace_bytes: u64,
}

impl Counts {
    fn add(&mut self, req: &SimRequest, report: &SimReport) {
        let n = &report.network;
        match req.network.unwrap_or_default() {
            NetworkBackendKind::Analytical => {
                self.system_events += report.collectives + report.p2p_messages;
                self.delay_hits += report.cache.delay_hits;
                self.delay_misses += report.cache.delay_misses;
            }
            NetworkBackendKind::Batched => {
                self.batched_events += n.events;
                self.train_splits += n.train_splits;
            }
            NetworkBackendKind::Packet => self.packet_events += n.events,
            NetworkBackendKind::Flow => self.flow_events += n.events,
        }
        self.chunk_ops += report.collective_ops;
        self.lowering_hits += report.cache.lowering_hits;
        self.lowering_misses += report.cache.lowering_misses;
    }
}

/// The outputs of one request that the digests cover.
pub struct Outcome {
    /// `report_value` JSON text.
    pub report_json: String,
    /// Chrome trace JSON of a traced request.
    pub trace_json: Option<String>,
}

/// The `SystemConfig` a request describes (the mapping `astra serve`
/// applies to the model options the benchmark sets).
pub fn system_config(req: &SimRequest) -> Result<SystemConfig, String> {
    let mut config = SystemConfig {
        network_backend: req.network.unwrap_or_default(),
        collective_mode: req.collectives.unwrap_or_default(),
        ..SystemConfig::default()
    };
    if let Some(chunks) = req.chunks {
        config.collective_chunks = chunks;
    }
    if let Some(memory) = &req.memory {
        use astra_core::memory_presets as presets;
        config.remote_memory = Some(match memory.as_str() {
            "hiermem-base" => PoolArchitecture::Hierarchical(presets::hiermem_baseline()),
            "hiermem-opt" => PoolArchitecture::Hierarchical(presets::hiermem_opt()),
            "zero-infinity" => PoolArchitecture::ZeroInfinity(presets::zero_infinity()),
            other => return Err(format!("unknown memory system `{other}`")),
        });
        config.roofline = Roofline::table5_gpu();
        config.local_memory = presets::case_study_hbm();
    }
    Ok(config)
}

/// Generates the execution trace a request describes.
pub fn generate(req: &SimRequest, npus: usize) -> Result<ExecutionTrace, String> {
    let name = req.workload.as_deref().unwrap_or("");
    let (model, default) = match name {
        "dlrm" => (astra_core::models::dlrm_57m(), Parallelism::Data),
        "gpt3" | "t1t" => {
            let model = if name == "gpt3" {
                astra_core::models::gpt3_175b()
            } else {
                astra_core::models::transformer_1t()
            };
            let mp = req.mp.unwrap_or(model.default_mp).min(npus);
            (model, Parallelism::Hybrid { mp })
        }
        "moe" => {
            return generate_disaggregated_moe(
                &astra_core::models::moe_1t(),
                npus,
                &OffloadPlan::default(),
            )
            .map_err(|e| format!("workload: {e}"));
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let parallelism = match (req.pipeline, req.fsdp) {
        (Some(stages), _) => Parallelism::Pipeline {
            stages,
            microbatches: stages,
        },
        (None, true) => Parallelism::FullyShardedData,
        (None, false) => default,
    };
    generate_trace(&model, parallelism, npus).map_err(|e| format!("workload: {e}"))
}

/// A report's `report_value` JSON text: the bytes the digests cover.
pub fn serialize(report: &SimReport) -> String {
    serde_json::to_string(&report_value(report)).expect("JSON value trees always serialize")
}

/// The warm handles a cold CLI run hands the engine: `execute_once` runs
/// each request against a new `WarmCache`, so its shared delay memo,
/// lowering cache and route table start empty but are consulted and
/// filled as in any `astra serve` request.
fn cold_warm_state() -> WarmState {
    WarmState {
        delay_memo: Some(Arc::new(SharedDelayMemo::default())),
        lowering: Some(Arc::new(SharedLoweringCache::default())),
        routes: Some(Arc::new(SharedRouteTable::default())),
    }
}

fn simulate_layer(req: &SimRequest) -> Layer {
    match req.network.unwrap_or_default() {
        NetworkBackendKind::Analytical => Layer::SystemSimulate,
        NetworkBackendKind::Batched => Layer::BatchedSimulate,
        NetworkBackendKind::Packet => Layer::PacketSimulate,
        NetworkBackendKind::Flow => Layer::FlowSimulate,
    }
}

/// Runs one `train-*` request cold: parse → generate → simulate →
/// serialize (→ render, when traced).
pub fn run_train(
    req: &SimRequest,
    traced: bool,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    let topo = spans
        .time(Layer::TopologyParse, || Topology::parse(&req.topology))
        .map_err(|e| format!("topology: {e}"))?;
    let mut config = system_config(req)?;
    let trace = spans.time(Layer::WorkloadGenerate, || generate(req, topo.npus()))?;
    let warm = cold_warm_state();
    let (report, trace_json) = if traced {
        config.telemetry = true;
        let (result, sim_trace) = spans.time(Layer::TracedSimulate, || {
            simulate_traced_with(&trace, &topo, &config, &warm)
        });
        let report = result.map_err(|e| format!("simulation: {e}"))?;
        let sim_trace = sim_trace.ok_or("telemetry was on but no trace came back")?;
        let json = spans.time(Layer::TelemetryRender, || {
            TraceFormat::Chrome.render(&sim_trace)
        });
        counts.trace_bytes += json.len() as u64;
        (report, Some(json))
    } else {
        let report = spans
            .time(simulate_layer(req), || {
                simulate_with(&trace, &topo, &config, &warm)
            })
            .map_err(|e| format!("simulation: {e}"))?;
        (report, None)
    };
    let report_json = spans.time(Layer::ReportSerialize, || serialize(&report));
    counts.trace_nodes += trace.total_nodes() as u64;
    counts.add(req, &report);
    Ok(Outcome {
        report_json,
        trace_json,
    })
}

/// Runs one `serve-sweep` line through the service: parse → execute →
/// serialize, against the pass's shared `cache`.
pub fn run_serve(
    line: &str,
    cache: &WarmCache,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<Outcome, String> {
    let req = spans
        .time(Layer::ServeParse, || SimRequest::from_json_line(line))
        .map_err(|e| e.message)?;
    let hits_before = spans.on.then(|| cache.summary().result_hits);
    let start = now();
    let result = execute(&req, cache);
    let secs = start.elapsed().as_secs_f64();
    let report = result.map_err(|e| e.message)?;
    if let Some(before) = hits_before {
        spans.secs[Layer::ServeExecute as usize] += secs;
        if cache.summary().result_hits > before {
            spans.execute_hits.push(secs);
        } else {
            spans.execute_misses.push(secs);
            counts.add(&req, &report);
        }
    }
    let report_json = spans.time(Layer::ReportSerialize, || serialize(&report));
    Ok(Outcome {
        report_json,
        trace_json: None,
    })
}

/// The dimensions a communicator group spans, as the engine lowers them:
/// one sub-dimension per topology dimension along which members differ,
/// sized by the distinct coordinates and keeping the base block kind,
/// bandwidth and latency.
fn group_dims(topo: &Topology, members: &[usize]) -> Vec<Dimension> {
    let coords: Vec<Vec<usize>> = members.iter().map(|&m| topo.coords(m)).collect();
    let mut dims = Vec::new();
    for (d, base) in topo.dims().iter().enumerate() {
        let mut along: Vec<usize> = coords.iter().map(|c| c[d]).collect();
        along.sort_unstable();
        along.dedup();
        let k = along.len();
        if k > 1 {
            let block = match base.block() {
                BuildingBlock::Ring(_) => BuildingBlock::Ring(k),
                BuildingBlock::FullyConnected(_) => BuildingBlock::FullyConnected(k),
                BuildingBlock::Switch(_) => BuildingBlock::Switch(k),
            };
            dims.push(
                Dimension::new(block)
                    .with_bandwidth(base.bandwidth())
                    .with_link_latency(base.link_latency()),
            );
        }
    }
    dims
}

/// Seconds `collectives::lowering::lower` takes over the distinct
/// programs of a backend-collective request. Standalone: the trace is
/// generated outside the timed part.
pub fn lower_probe(req: &SimRequest) -> Result<f64, String> {
    if req.collectives != Some(CollectiveMode::Backend) {
        return Ok(0.0);
    }
    let topo = Topology::parse(&req.topology).map_err(|e| format!("topology: {e}"))?;
    let chunks = system_config(req)?.collective_chunks;
    let trace = generate(req, topo.npus())?;
    let mut group_dims_memo: BTreeMap<u32, Vec<Dimension>> = BTreeMap::new();
    let mut programs = BTreeMap::new();
    for npu in 0..trace.npus() {
        for node in trace.program(npu) {
            if let EtOp::Collective {
                collective,
                size,
                group,
            } = &node.op
            {
                let dims = group_dims_memo
                    .entry(group.0)
                    .or_insert_with(|| group_dims(&topo, trace.group(*group)));
                programs
                    .entry(LoweringKey::new(*collective, *size, dims, chunks))
                    .or_insert_with(|| (*collective, *size, dims.clone()));
            }
        }
    }
    let start = now();
    let ops: usize = programs
        .values()
        .map(|(collective, size, dims)| {
            std::hint::black_box(lower(*collective, *size, dims, chunks))
                .ops()
                .len()
        })
        .sum();
    std::hint::black_box(ops);
    Ok(start.elapsed().as_secs_f64())
}

/// Seconds of an untraced `simulate_with` on a traced request's config:
/// the base that `telemetry.record_ms` is measured against.
pub fn untraced_simulate_probe(req: &SimRequest) -> Result<f64, String> {
    let topo = Topology::parse(&req.topology).map_err(|e| format!("topology: {e}"))?;
    let config = system_config(req)?;
    let trace = generate(req, topo.npus())?;
    let warm = cold_warm_state();
    let start = now();
    let report =
        simulate_with(&trace, &topo, &config, &warm).map_err(|e| format!("simulation: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(report);
    Ok(secs)
}

/// Result, trace and lowering hit ratios of a pass's warm caches.
pub fn cache_ratios(s: &CacheSummary) -> (f64, f64, f64) {
    // One client: every trace or lowering miss inserts exactly one entry.
    (
        share(s.result_hits, s.result_queries),
        share(s.trace_queries - s.trace_entries, s.trace_queries),
        share(s.lowering_queries - s.lowering_entries, s.lowering_queries),
    )
}
