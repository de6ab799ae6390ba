//! # SparseWeaver
//!
//! A full-system reproduction of *"SparseWeaver: Converting Sparse Operations
//! as Dense Operations on GPUs for Graph Workloads"* (HPCA 2025).
//!
//! SparseWeaver is a hardware/software collaborative graph-processing
//! framework: a lightweight GPU functional unit (**Weaver**) converts sparse
//! edge-gather operations into dense, SIMD-friendly work distributions,
//! eliminating the warp-level workload imbalance that sparse, skewed
//! real-world graphs inflict on lockstep GPU execution.
//!
//! This crate is a facade that re-exports the whole workspace:
//!
//! - [`graph`] — CSR graphs, generators, datasets, statistics.
//! - [`isa`] — the kernel IR, the Weaver ISA extension, assembler/disassembler.
//! - [`mem`] — caches, DRAM model, memory hierarchy.
//! - [`weaver`] — the Weaver functional unit (ST/DT tables, the S0–S8 FSM),
//!   the EGHW hardware baseline, and the FPGA area model.
//! - [`sim`] — the cycle-level SIMT GPU simulator.
//! - [`trace`] — structured simulation tracing & metrics: typed events,
//!   counter sampling, Chrome-trace (Perfetto) and metrics-JSON export.
//! - [`fault`] — deterministic fault injection: seeded bit flips and
//!   Weaver-protocol faults, campaign classification
//!   (see `docs/robustness.md`).
//! - [`lint`] — the kernel-IR static verifier: CFG/dataflow analysis with
//!   divergence, barrier-deadlock, and Weaver-protocol checks
//!   (see `docs/lint-rules.md`).
//! - [`shutdown`] — cooperative shutdown plumbing: SIGINT/SIGTERM handling
//!   and the wall-clock watchdog behind `--max-wall-secs`
//!   (see `docs/robustness.md`).
//! - [`core`] — the graph framework: algorithms, scheduling schemes, the
//!   kernel compiler, host runtime, analytic models, auto-tuner.
//! - [`cli`] — the command-line front end the tools in `src/bin/` share:
//!   one flag parser and one set of argument readers.
//!
//! ## Quickstart
//!
//! ```rust
//! use sparseweaver::core::prelude::*;
//!
//! // A small skewed graph and a PageRank run under the SparseWeaver schedule.
//! let graph = sparseweaver::graph::generators::powerlaw(200, 2_000, 2.2, 7);
//! let mut session = Session::new(GpuConfig::vortex_default());
//! let report = session.run(&graph, &PageRank::new(5), Schedule::SparseWeaver)?;
//! println!("cycles = {}", report.cycles);
//! # Ok::<(), sparseweaver::core::FrameworkError>(())
//! ```
#![forbid(unsafe_code)]

pub use sparseweaver_core as core;
pub use sparseweaver_fault as fault;
pub use sparseweaver_graph as graph;
pub use sparseweaver_isa as isa;
pub use sparseweaver_lint as lint;
pub use sparseweaver_mem as mem;
pub use sparseweaver_shutdown as shutdown;
pub use sparseweaver_sim as sim;
pub use sparseweaver_trace as trace;
pub use sparseweaver_weaver as weaver;

pub mod cli;

/// The workspace version, printed by every tool's `--version`
/// (see [`cli::version`]).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
