//! # npu-compiler — ML-compiler backend for the ReGate NPU simulator
//!
//! The paper's simulator frontend applies "common ML compiler optimizations
//! used in production, such as tiling, operator fusion, and operator
//! reordering", and its backend consumes tile-level information per
//! operator (§4.4). ReGate additionally adds two compiler passes to the
//! backend: *component idleness analysis* and *`setpm` instrumentation*
//! (§4.3), inserted after instruction scheduling and SRAM allocation.
//!
//! This crate implements the operator-level backend:
//!
//! * [`tiling`] — per-operator tile selection, SRAM demand (the paper's
//!   Figure 7 metric), and post-tiling HBM traffic;
//! * [`fusion`] — producer→consumer fusion of vector post-processing into
//!   the matrix operator that feeds it;
//! * [`lowering`] — the compiled, tile-annotated operator stream consumed
//!   by the performance simulator ([`CompiledGraph`]);
//! * [`sram_alloc`] — double-buffered scratchpad allocation with buffer
//!   lifetimes (the input to software SRAM power gating);
//! * [`collective`] — per-hop lowering of ring collectives onto an
//!   explicit link graph.
//!
//! The two ReGate passes work on the simulated timeline rather than on a
//! per-tile instruction schedule: `npu-sim` finds each component's idle
//! intervals, and the `regate` crate prices the `setpm` pairs a compiler
//! would emit for them (and counts them for Figure 20).
//!
//! ## Example
//!
//! ```
//! use npu_arch::{NpuGeneration, NpuSpec, ParallelismConfig};
//! use npu_models::{LlamaModel, LlmPhase, Workload};
//! use npu_compiler::Compiler;
//!
//! let spec = NpuSpec::generation(NpuGeneration::D);
//! let workload = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
//! let graph = workload.build_graph(&ParallelismConfig::single());
//! let compiled = Compiler::new(spec).compile(&graph);
//! assert_eq!(compiled.len(), graph.len());
//! assert!(compiled.ops().iter().any(|op| op.fused_vu_elements > 0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collective;
pub mod fusion;
pub mod lowering;
pub mod sram_alloc;
pub mod tiling;

pub use collective::CollectivePlan;
pub use fusion::FusionPlan;
pub use lowering::{CompiledGraph, CompiledOp, Compiler};
pub use sram_alloc::{BufferLifetime, SegmentLifetime, SramAllocation, SramPeak};
pub use tiling::TileChoice;
