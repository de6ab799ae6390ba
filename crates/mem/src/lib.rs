//! Memory substrate for the SparseWeaver GPU simulator.
//!
//! The Vortex GPU the paper builds on has per-core L1 caches, a shared L2,
//! an optional L3 (Fig. 14), and DRAM whose relative speed is swept in
//! Fig. 12 ("n GHz GPU versus 1 GHz DRAM"). Graph processing is memory
//! intensive, and the paper's argument for integrating Weaver *into* the
//! GPU pipeline — rather than doing memory accesses from dedicated hardware
//! like EGHW — is precisely that the GPU can hide memory latency with
//! warp-level parallelism. The timing model here is what makes that
//! argument reproducible:
//!
//! - [`MainMemory`] — flat, byte-addressed functional storage. Data always
//!   lives here; caches are *timing-only* (tags, no data), which keeps the
//!   simulator functional-first and makes cache configuration sweeps safe
//!   by construction.
//! - [`Cache`] — set-associative, write-back, write-allocate, LRU.
//! - [`Hierarchy`] — per-core L1s in front of a shared L2, optional L3,
//!   then DRAM; each level has a port model whose queueing delay produces
//!   the "wait for L1 queue (LG throttle)" stalls of Fig. 4.
//! - [`Hooks`] — the optional observers (tracer, profiler, memory-trace
//!   recorder, fault injector) the GPU lends down each call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod hooks;
pub mod main_memory;
pub mod mtrace;
pub mod replay;

pub use cache::{Cache, CacheConfig, CacheConfigError, CacheStats};
pub use hierarchy::{
    Hierarchy, HierarchyConfig, HierarchyConfigError, HitLevel, LevelStats, MemAccess, MemPort,
    PortOccupancy,
};
pub use hooks::Hooks;
pub use main_memory::{MainMemory, MemFault};
pub use mtrace::{MemRecord, MemTrace, Recorder, RecorderSummary};
pub use replay::{ReplayError, VerifyOutcome};

/// Cache line size in bytes, fixed at 64 as on Vortex.
pub const LINE_BYTES: u64 = 64;

/// Returns the line-aligned address containing `addr`.
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
