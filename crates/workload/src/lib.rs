//! Workload layer: graph-based execution traces (ASTRA-sim 2.0 §IV-A).
//!
//! ASTRA-sim 2.0 replaces the hard-coded training loops of the original
//! simulator with a *graph-based execution engine*: the workload is an
//! execution trace (ET) — a per-NPU DAG of compute, memory, and
//! communication nodes whose edges encode dependencies. Because every NPU
//! has its own graph, arbitrary parallelization strategies (including
//! pipeline parallelism, where NPUs run *different* programs) can be
//! expressed without touching the simulator.
//!
//! This crate provides:
//!
//! * [`ExecutionTrace`] / [`EtNode`] / [`EtOp`] — the ASTRA-sim ET format
//!   (compute / memory / communication nodes with metadata, Fig. 1b),
//!   fully serde-serializable as JSON,
//! * [`TraceBuilder`] — validated construction of traces,
//! * [`TraceConverter`] and [`JsonEtConverter`] — the converter interface
//!   for foreign trace formats (the role the paper's PyTorch/FlexFlow
//!   converters play),
//! * [`Roofline`] — the internal roofline model used to turn compute-node
//!   metadata (#FP ops, tensor size) into cycles,
//! * [`models`] — the Table III workload presets (DLRM, GPT-3,
//!   Transformer-1T) plus the §V-B MoE-1T model,
//! * [`parallelism`] — trace generators for data/model/hybrid/pipeline/MoE
//!   parallelism (the strategies of §II-A).
//!
//! # Example
//!
//! ```
//! use astra_workload::{models, parallelism, Parallelism};
//!
//! let model = models::gpt3_175b();
//! let trace = parallelism::generate_trace(&model, Parallelism::Hybrid { mp: 16 }, 64).unwrap();
//! assert_eq!(trace.npus(), 64);
//! assert!(trace.program(0).len() > 0);
//! ```

mod convert;
pub mod footprint;
pub mod models;
pub mod parallelism;
mod pytorch;
mod roofline;
mod stats;
mod trace;
mod warm;

pub use convert::{JsonEtConverter, TraceConverter};
pub use footprint::Footprint;
pub use models::{LayerSpec, Model};
pub use parallelism::Parallelism;
pub use pytorch::{PyTorchEgConverter, PyTorchEgError};
pub use roofline::Roofline;
pub use stats::TraceStats;
pub use trace::{
    EtNode, EtOp, ExecutionTrace, GroupId, JsonEtError, MemoryDirection, NodeId, ProgramBuilder,
    TensorLocation, TraceBuilder, TraceError,
};
pub use warm::SharedTraceCache;
