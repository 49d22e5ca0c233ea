//! Host-time benchmark of the astra-sim2 simulator.
//!
//! ```text
//! taskset -c 0 cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-analytical|train-backend|serve-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one process and one workload. It sets up the workload's
//! request list, then repeats passes over it for `--seconds`, checking
//! every simulated output against the committed digests. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` alternates untraced and
//! traced passes and prints the per-layer metrics. The last line of
//! standard output is the result as one JSON object. See `README.md`.
//!
//! `--write-digests` regenerates `digests.tsv` from the current program,
//! through `astra_serve::execute_once` and `execute_traced`.

mod digest;
mod layers;
mod stamp;
mod stats;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use astra_serve::{CacheSummary, SimRequest, WarmCache};

use digest::{Kind, Table};
use layers::{Counts, Layer, Outcome, Spans};
use stats::{median, now, quantile, share, spread};
use workloads::{Request, Workload};

/// Set-ups before each pass; `setup_s` is the median over the run.
const SETUPS_PER_PASS: usize = 25;
/// Repeats of each standalone probe in a traced run; the median counts.
const PROBE_REPEATS: usize = 3;
/// Samples a percentile needs beyond it before it is trusted.
const MIN_BEYOND: usize = 10;
/// Share of a traced pass that harness overhead or unattributed time may
/// take before the per-layer split is flagged.
const MAX_HARNESS_SHARE: f64 = 0.05;

/// Share of host CPU time the hypervisor may steal during the passes
/// before host times are flagged.
const MAX_STEAL_SHARE: f64 = 0.05;

/// End-to-end metrics, as `BENCHMARK.json` lists them: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("request_ms.p50", "ms"),
    ("request_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: (name, unit).
const PER_LAYER: [(&str, &str); 36] = [
    ("topology.parse_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("workload.trace_nodes", "count"),
    ("system.simulate_ms", "ms"),
    ("system.events", "count"),
    ("system.ns_per_event", "ns"),
    ("collectives.lower_ms", "ms"),
    ("collectives.chunk_ops", "count"),
    ("collectives.lowering_hit_ratio", "share"),
    ("garnet.batched.simulate_ms", "ms"),
    ("garnet.batched.events", "count"),
    ("garnet.batched.ns_per_event", "ns"),
    ("garnet.batched.train_splits", "count"),
    ("garnet.packet.simulate_ms", "ms"),
    ("garnet.packet.events", "count"),
    ("garnet.packet.ns_per_event", "ns"),
    ("network.flow.simulate_ms", "ms"),
    ("network.flow.events", "count"),
    ("network.flow.ns_per_event", "ns"),
    ("network.analytical.delay_hit_ratio", "share"),
    ("telemetry.record_ms", "ms"),
    ("telemetry.render_ms", "ms"),
    ("telemetry.trace_mb", "MB"),
    ("report.serialize_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.execute_ms.hit_p50", "ms"),
    ("serve.execute_ms.miss_p50", "ms"),
    ("serve.result_hit_ratio", "share"),
    ("serve.trace_hit_ratio", "share"),
    ("serve.lowering_hit_ratio", "share"),
    ("serve.route_queries", "count"),
    ("harness.untraced_pass_s", "s"),
    ("harness.traced_pass_s", "s"),
    ("harness.overhead_ms", "ms"),
    ("harness.unattributed_ms", "ms"),
    ("error_rate", "share"),
];

/// The checkout the benchmark was built in.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark directory sits inside the repository")
        .to_owned()
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <train-analytical|train-backend|serve-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-digests";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric spec from `BENCHMARK.json`.
struct Spec {
    name: String,
    unit: String,
    bound: Option<f64>,
}

fn specs(doc: &serde_json::Value, section: &str) -> Result<Vec<Spec>, String> {
    let Some(items) = doc[section].as_array() else {
        return Err(format!("BENCHMARK.json: `{section}` is not a list"));
    };
    items
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_owned(),
                unit: m["unit"]
                    .as_str()
                    .ok_or("metric without a unit")?
                    .to_owned(),
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

/// The harness's own inputs, read once and never timed: the metric lists
/// and the committed digests.
struct Harness {
    digests: Table,
    end_to_end: Vec<Spec>,
    per_layer: Vec<Spec>,
}

fn load() -> Result<Harness, String> {
    let read =
        |path: PathBuf| fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
    let doc = serde_json::parse(&read(root().join("BENCHMARK.json"))?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = specs(&doc, "end_to_end")?;
    let per_layer = specs(&doc, "per_layer")?;
    for (listed, code) in [(&end_to_end, &END_TO_END[..]), (&per_layer, &PER_LAYER[..])] {
        let listed: Vec<(&str, &str)> = listed
            .iter()
            .map(|s| (s.name.as_str(), s.unit.as_str()))
            .collect();
        if listed != code {
            return Err("BENCHMARK.json lists other metrics than the benchmark computes".into());
        }
    }
    Ok(Harness {
        digests: Table::parse(&read(bench_dir().join(digest::FILE))?)?,
        end_to_end,
        per_layer,
    })
}

/// The program's set-up for one pass, the span `setup_s` times: the
/// request list generated and parsed by `SimRequest::from_json_line`, and
/// on `serve-sweep` the pass's `WarmCache`. A `train-*` request builds
/// its own cold tables, as `astra_serve::execute_once` does.
struct Setup {
    requests: Vec<Request>,
    cache: Option<WarmCache>,
}

fn setup(workload: Workload, seed: u64) -> Setup {
    Setup {
        requests: workloads::requests(workload, seed),
        cache: (workload == Workload::ServeSweep).then(WarmCache::new),
    }
}

/// One pass over the request list.
struct Pass {
    /// Sum of request wall times (digest checks excluded).
    secs: f64,
    /// Process CPU time over the pass, digest checks included.
    cpu_secs: f64,
    latencies: Vec<f64>,
    failures: Vec<String>,
    spans: Spans,
    counts: Counts,
    cache: CacheSummary,
}

fn check(digests: &Table, r: &Request, out: &Outcome) -> Result<(), String> {
    digests.check(&r.key, Kind::Report, out.report_json.as_bytes())?;
    match (&out.trace_json, r.traced) {
        (Some(trace), true) => digests.check(&r.key, Kind::Trace, trace.as_bytes()),
        (None, false) => Ok(()),
        _ => Err(format!(
            "trace output does not match the request: {}",
            r.key
        )),
    }
}

fn run_pass(workload: Workload, harness: &Harness, setup: &Setup, traced: bool) -> Pass {
    let mut spans = Spans::new(traced);
    let mut counts = Counts::default();
    let cpu_start = stamp::cpu_secs();
    let mut latencies = Vec::with_capacity(setup.requests.len());
    let mut failures = Vec::new();
    for r in &setup.requests {
        let start = now();
        let outcome = match workload {
            Workload::ServeSweep => {
                let cache = setup.cache.as_ref().expect("serve-sweep sets up a cache");
                layers::run_serve(&r.line, cache, &mut spans, &mut counts)
            }
            Workload::TrainAnalytical | Workload::TrainBackend => {
                layers::run_train(&r.req, r.traced, &mut spans, &mut counts)
            }
        };
        let secs = start.elapsed().as_secs_f64();
        match outcome.and_then(|out| check(&harness.digests, r, &out)) {
            Ok(()) => latencies.push(secs),
            Err(e) => failures.push(e),
        }
    }
    Pass {
        secs: latencies.iter().sum(),
        cpu_secs: stamp::cpu_secs() - cpu_start,
        latencies,
        failures,
        spans,
        counts,
        cache: setup
            .cache
            .as_ref()
            .map_or_else(CacheSummary::default, WarmCache::summary),
    }
}

/// Sets the workload up [`SETUPS_PER_PASS`] times, timing each, and
/// returns the last set-up for the next pass.
fn timed_setup(args: &Args, setup_secs: &mut Vec<f64>) -> Setup {
    let mut last = None;
    for _ in 0..SETUPS_PER_PASS {
        let start = now();
        let s = setup(args.workload, args.seed);
        setup_secs.push(start.elapsed().as_secs_f64());
        last = Some(s);
    }
    last.expect("SETUPS_PER_PASS is positive")
}

/// Runs passes until `seconds` have elapsed (at least one). Every pass
/// gets its own set-up, so the set-up samples span the run as the passes
/// do. Returns the request list, the passes and the set-up samples.
fn run_passes(args: &Args, harness: &Harness) -> (Vec<Request>, Vec<Pass>, Vec<f64>) {
    let start = now();
    let mut passes = Vec::new();
    let mut setup_secs = Vec::new();
    loop {
        if args.trace {
            let s = timed_setup(args, &mut setup_secs);
            passes.push(run_pass(args.workload, harness, &s, false));
        }
        let s = timed_setup(args, &mut setup_secs);
        passes.push(run_pass(args.workload, harness, &s, args.trace));
        if start.elapsed().as_secs_f64() >= args.seconds {
            return (s.requests, passes, setup_secs);
        }
    }
}

/// A run's metrics and the flags raised while computing them.
struct Report {
    metrics: Vec<(&'static str, f64)>,
    flags: Vec<String>,
}

fn bound(specs: &[Spec], name: &str) -> f64 {
    specs
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| s.bound)
        .unwrap_or(f64::INFINITY)
}

fn end_to_end(harness: &Harness, passes: &[Pass], setup_secs: &[f64]) -> Report {
    let mut flags = Vec::new();
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
    let p90 = quantile(&latencies, 0.9);
    let beyond = latencies.iter().filter(|&&l| l > p90).count();
    if passes.len() < 3 {
        flags.push(format!("pass_s: few_passes ({} passes)", passes.len()));
    }
    for (name, samples) in [("pass_s", pass_secs.as_slice()), ("setup_s", setup_secs)] {
        let s = spread(samples);
        if s > bound(&harness.end_to_end, name) {
            flags.push(format!(
                "{name}: within-run spread {s:.3} wider than its bound ({} samples)",
                samples.len()
            ));
        }
    }
    if beyond < MIN_BEYOND {
        flags.push(format!(
            "request_ms.p90: few_samples ({} samples, {beyond} beyond p90)",
            latencies.len()
        ));
    }
    Report {
        metrics: vec![
            ("pass_s", median(&pass_secs)),
            ("request_ms.p50", median(&latencies) * 1e3),
            ("request_ms.p90", p90 * 1e3),
            ("peak_rss_mb", stamp::peak_rss_mb()),
            ("setup_s", median(setup_secs)),
        ],
        flags,
    }
}

fn ns_per_event(ms: f64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        ms * 1e6 / events as f64
    }
}

/// Median over `PROBE_REPEATS` runs of a probe, in ms.
fn probe_ms(mut probe: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let runs = (0..PROBE_REPEATS)
        .map(|_| probe())
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&runs) * 1e3)
}

fn per_layer(
    workload: Workload,
    requests: &[Request],
    passes: &[Pass],
    error_rate: f64,
) -> Result<Report, String> {
    let mut flags = Vec::new();
    let (untraced, traced): (Vec<&Pass>, Vec<&Pass>) =
        passes.iter().partition(|p| !p.spans.is_on());
    let last = traced.last().ok_or("no traced pass ran")?;
    let c = &last.counts;
    let layer_ms = |layer: Layer| {
        median(
            &traced
                .iter()
                .map(|p| p.spans.get(layer))
                .collect::<Vec<_>>(),
        ) * 1e3
    };
    let pass_s = |ps: &[&Pass]| median(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());
    let (untraced_s, traced_s) = (pass_s(&untraced), pass_s(&traced));
    let unattributed_ms = median(
        &traced
            .iter()
            .map(|p| p.secs - p.spans.total())
            .collect::<Vec<_>>(),
    ) * 1e3;

    // Standalone probes, outside the passes.
    let mut lower_ms = 0.0;
    let mut record_base_ms = 0.0;
    let mut parse_ms = layer_ms(Layer::TopologyParse);
    match workload {
        Workload::ServeSweep => {
            // `execute` parses the topology of every result-cache miss:
            // each distinct request once.
            let mut distinct: Vec<&Request> = Vec::new();
            for r in requests {
                if !distinct.iter().any(|d| d.key == r.key) {
                    distinct.push(r);
                }
            }
            parse_ms = probe_ms(|| {
                let start = now();
                for r in &distinct {
                    std::hint::black_box(astra_core::Topology::parse(&r.req.topology))
                        .map_err(|e| e.to_string())?;
                }
                Ok(start.elapsed().as_secs_f64())
            })?;
        }
        Workload::TrainAnalytical | Workload::TrainBackend => {
            for r in requests {
                lower_ms += probe_ms(|| layers::lower_probe(&r.req))?;
                if r.traced {
                    record_base_ms += probe_ms(|| layers::untraced_simulate_probe(&r.req))?;
                }
            }
        }
    }

    let batched_ms = layer_ms(Layer::BatchedSimulate) + record_base_ms;
    let record_ms = layer_ms(Layer::TracedSimulate) - record_base_ms;
    let system_ms = layer_ms(Layer::SystemSimulate);
    let packet_ms = layer_ms(Layer::PacketSimulate);
    let flow_ms = layer_ms(Layer::FlowSimulate);
    let execute_p50_ms = |f: fn(&Spans) -> &Vec<f64>| {
        median(
            &traced
                .iter()
                .flat_map(|p| f(&p.spans).clone())
                .collect::<Vec<_>>(),
        ) * 1e3
    };
    let (result_ratio, trace_ratio, lowering_ratio) = layers::cache_ratios(&last.cache);
    let overhead_ms = (traced_s - untraced_s) * 1e3;
    if traced_s > 0.0 && overhead_ms.abs() / 1e3 > MAX_HARNESS_SHARE * traced_s {
        flags.push(format!(
            "harness.overhead_ms: {overhead_ms:.1} ms exceeds {MAX_HARNESS_SHARE} of the pass"
        ));
    }
    if traced_s > 0.0 && unattributed_ms.abs() / 1e3 > MAX_HARNESS_SHARE * traced_s {
        flags.push(format!("harness.unattributed_ms: {unattributed_ms:.1} ms exceeds {MAX_HARNESS_SHARE} of the pass"));
    }
    if record_ms < 0.0 {
        flags.push("telemetry.record_ms: negative (traced faster than the untraced probe)".into());
    }
    if traced.len() < 3 {
        flags.push(format!(
            "per-layer times: few_passes ({} traced passes)",
            traced.len()
        ));
    }
    Ok(Report {
        metrics: vec![
            ("topology.parse_ms", parse_ms),
            ("workload.generate_ms", layer_ms(Layer::WorkloadGenerate)),
            ("workload.trace_nodes", c.trace_nodes as f64),
            ("system.simulate_ms", system_ms),
            ("system.events", c.system_events as f64),
            (
                "system.ns_per_event",
                ns_per_event(system_ms, c.system_events),
            ),
            ("collectives.lower_ms", lower_ms),
            ("collectives.chunk_ops", c.chunk_ops as f64),
            (
                "collectives.lowering_hit_ratio",
                share(c.lowering_hits, c.lowering_hits + c.lowering_misses),
            ),
            ("garnet.batched.simulate_ms", batched_ms),
            ("garnet.batched.events", c.batched_events as f64),
            (
                "garnet.batched.ns_per_event",
                ns_per_event(batched_ms, c.batched_events),
            ),
            ("garnet.batched.train_splits", c.train_splits as f64),
            ("garnet.packet.simulate_ms", packet_ms),
            ("garnet.packet.events", c.packet_events as f64),
            (
                "garnet.packet.ns_per_event",
                ns_per_event(packet_ms, c.packet_events),
            ),
            ("network.flow.simulate_ms", flow_ms),
            ("network.flow.events", c.flow_events as f64),
            (
                "network.flow.ns_per_event",
                ns_per_event(flow_ms, c.flow_events),
            ),
            (
                "network.analytical.delay_hit_ratio",
                share(c.delay_hits, c.delay_hits + c.delay_misses),
            ),
            ("telemetry.record_ms", record_ms),
            ("telemetry.render_ms", layer_ms(Layer::TelemetryRender)),
            ("telemetry.trace_mb", c.trace_bytes as f64 / 1e6),
            ("report.serialize_ms", layer_ms(Layer::ReportSerialize)),
            ("serve.parse_ms", layer_ms(Layer::ServeParse)),
            (
                "serve.execute_ms.hit_p50",
                execute_p50_ms(|s| &s.execute_hits),
            ),
            (
                "serve.execute_ms.miss_p50",
                execute_p50_ms(|s| &s.execute_misses),
            ),
            ("serve.result_hit_ratio", result_ratio),
            ("serve.trace_hit_ratio", trace_ratio),
            ("serve.lowering_hit_ratio", lowering_ratio),
            ("serve.route_queries", last.cache.route_queries as f64),
            ("harness.untraced_pass_s", untraced_s),
            ("harness.traced_pass_s", traced_s),
            ("harness.overhead_ms", overhead_ms),
            ("harness.unattributed_ms", unattributed_ms),
            ("error_rate", error_rate),
        ],
        flags,
    })
}

fn write_digests() -> Result<(), String> {
    let mut table = Table::default();
    let all = workloads::universe();
    for r in &all {
        let req = SimRequest::from_json_line(&r.key).map_err(|e| e.message)?;
        let report = if r.traced {
            let (report, trace) =
                astra_serve::execute_traced(&req, &WarmCache::new()).map_err(|e| e.message)?;
            let trace = trace.ok_or("telemetry was on but no trace came back")?;
            let json = astra_core::TraceFormat::Chrome.render(&trace);
            table.insert(&r.key, Kind::Trace, json.as_bytes());
            report
        } else {
            astra_serve::execute_once(&req).map_err(|e| e.message)?
        };
        table.insert(&r.key, Kind::Report, layers::serialize(&report).as_bytes());
        eprintln!("digested {}", r.key);
    }
    let path = bench_dir().join(digest::FILE);
    fs::write(&path, table.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} requests to {}", all.len(), path.display());
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--write-digests"] {
        return match write_digests() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(raw.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let harness = match load() {
        Ok(harness) => harness,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal_before = stamp::steal_ticks();
    let (requests, passes, setup_secs) = run_passes(&args, &harness);
    let steal_after = stamp::steal_ticks();
    let steal_share = share(
        steal_after.0 - steal_before.0,
        steal_after.1 - steal_before.1,
    );
    let attempted: usize = passes
        .iter()
        .map(|p| p.latencies.len() + p.failures.len())
        .sum();
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    for f in failures.iter().take(5) {
        eprintln!("perfbench: failed: {f}");
    }
    let error_rate = failures.len() as f64 / attempted.max(1) as f64;
    let (specs, mut report) = if args.trace {
        match per_layer(args.workload, &requests, &passes, error_rate) {
            Ok(report) => (&harness.per_layer, report),
            Err(e) => {
                eprintln!("perfbench: per-layer probe failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (
            &harness.end_to_end,
            end_to_end(&harness, &passes, &setup_secs),
        )
    };

    let mix = workloads::mix(&requests);
    let n = requests.len() as f64;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} passes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        passes.len()
    );
    println!("# stamp {{{}}}", stamp::stamp(&root()));
    let samples = |f: fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("# pass_s samples [{}]", samples(|p| p.secs));
    println!("# pass_cpu_s samples [{}]", samples(|p| p.cpu_secs));
    println!("# host {{\"steal_share\":{steal_share}}}");
    if steal_share > MAX_STEAL_SHARE {
        report.flags.push(format!(
            "host: hypervisor stole {steal_share:.3} of CPU time during the passes"
        ));
    }
    println!(
        "# mix {{\"requests\":{},\"exact_repeat_share\":{},\"shared_share\":{},\"fresh_share\":{}}}",
        requests.len(),
        mix.repeats as f64 / n,
        mix.shared as f64 / n,
        mix.fresh as f64 / n
    );
    println!(
        "# metric error_rate = {error_rate} share ({} of {attempted} failed)",
        failures.len()
    );
    let mut fields = Vec::new();
    for spec in specs {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map_or(0.0, |&(_, v)| v);
        println!(
            "# metric {} = {} {}",
            spec.name,
            json_number(value),
            spec.unit
        );
        fields.push(format!(
            r#""{}":{{"value":{},"unit":"{}"}}"#,
            spec.name,
            json_number(value),
            spec.unit
        ));
    }
    let flags: Vec<String> = report.flags.iter().map(|f| format!("{f:?}")).collect();
    println!("# flags [{}]", flags.join(","));
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        failures.is_empty(),
        attempted,
        failures.len(),
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Table {
        let text =
            fs::read_to_string(bench_dir().join(digest::FILE)).expect("digests.tsv is committed");
        Table::parse(&text).expect("digests.tsv parses")
    }

    /// A cheap `serve-sweep` grid point with backend collectives, so the
    /// `chunks` option changes its simulated result.
    const CHEAP: &str = r#"{"topology":"R(4)@200_SW(16)@50","workload":"dlrm","network":"flow","collectives":"backend","chunks":16}"#;

    fn run(key: &str) -> Outcome {
        let req = SimRequest::from_json_line(key).expect("request parses");
        layers::run_train(&req, false, &mut Spans::new(false), &mut Counts::default())
            .expect("request runs")
    }

    #[test]
    fn the_layered_path_reproduces_the_committed_digest() {
        let out = run(CHEAP);
        assert!(committed()
            .check(CHEAP, Kind::Report, out.report_json.as_bytes())
            .is_ok());
    }

    #[test]
    fn a_perturbed_request_is_caught() {
        let perturbed = CHEAP.replace(r#""chunks":16"#, r#""chunks":7"#);
        let out = run(&perturbed);
        let table = committed();
        // Checked against the original request's digest: the output moved.
        assert!(table
            .check(CHEAP, Kind::Report, out.report_json.as_bytes())
            .is_err());
        // Checked under its own text: no committed digest exists.
        assert!(table
            .check(&perturbed, Kind::Report, out.report_json.as_bytes())
            .is_err());
    }

    #[test]
    fn benchmark_json_matches_the_computed_metrics() {
        assert!(load().is_ok());
    }
}
