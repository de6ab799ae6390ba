//! A cycle-level SIMT GPU simulator in the spirit of Vortex's SimX.
//!
//! The paper models SparseWeaver on the open-source RISC-V Vortex GPU,
//! whose SimX simulator achieves cycle accuracy within 6% of the RTL. This
//! crate provides the equivalent substrate for the reproduction (see
//! `DESIGN.md`, substitution 1):
//!
//! - multi-core, multi-warp, lockstep-lane execution with an explicit
//!   IPDOM divergence stack driven by `split`/`join`;
//! - per-warp in-order issue with a register scoreboard, so load latency
//!   is hidden exactly the way real GPUs hide it — by switching warps;
//! - a round-robin warp scheduler issuing at most one instruction per core
//!   per cycle;
//! - memory accesses coalesced per warp into 64-byte lines and sent
//!   through the `sparseweaver-mem` hierarchy;
//! - core-wide barriers (the registration/distribution synchronization of
//!   Section III-C);
//! - the Weaver unit and the EGHW baseline integrated as per-core
//!   functional units behind the four `WEAVER_*` instructions;
//! - stall attribution matching the Nsight categories of Fig. 4 (memory /
//!   shared / execution dependency / L1 queue / barrier / Weaver) and
//!   phase attribution for the breakdowns of Figs. 17–18.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod gpu;
pub mod hang;
pub mod stats;
pub mod warp;

pub use config::{ConfigError, GpuConfig, WeaverMode};
pub use gpu::{Gpu, Occupancy};
pub use hang::{CoreHang, HangReport, WarpHang};
pub use stats::{KernelStats, Phase, StallBreakdown};

/// Simulation errors: kernel bugs surfaced by the machine model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A uniform branch saw lanes disagree (divergence must use
    /// `split`/`join`).
    DivergentBranch {
        /// Kernel name.
        kernel: String,
        /// Program counter of the branch.
        pc: u32,
    },
    /// All cores are blocked and nothing will ever become ready.
    Deadlock {
        /// Kernel name.
        kernel: String,
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Machine snapshot at the moment of the hang.
        hang: Box<HangReport>,
    },
    /// A `join` executed with an empty divergence stack.
    UnbalancedJoin {
        /// Kernel name.
        kernel: String,
        /// Program counter of the join.
        pc: u32,
    },
    /// The kernel exceeded the configured cycle budget.
    CycleLimit {
        /// Kernel name.
        kernel: String,
        /// The exceeded limit.
        limit: u64,
        /// Machine snapshot at the moment the limit tripped.
        hang: Box<HangReport>,
    },
    /// Every core is waiting on a Weaver response that will never arrive
    /// (the unit dropped it, per the injected Table-II protocol fault).
    /// Distinguished from [`SimError::Deadlock`] so the runtime can retry
    /// and, on exhaustion, fall back to the software `S_wm` schedule.
    WeaverTimeout {
        /// Kernel name.
        kernel: String,
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Machine snapshot at the moment of the hang.
        hang: Box<HangReport>,
    },
    /// An instruction word failed to decode (corrupted fetch).
    IllegalInstruction {
        /// Kernel name.
        kernel: String,
        /// Program counter of the corrupt word.
        pc: u32,
        /// The 32-bit instruction word that failed to decode.
        word: u32,
    },
    /// A detected machine fault: out-of-bounds memory access, a `tmc`
    /// that would deactivate every lane, an ST-capacity violation, …
    Fault {
        /// Kernel name.
        kernel: String,
        /// What faulted.
        what: String,
    },
    /// The kernel touches more registers than one warp's register-file
    /// allotment; not even a single warp can hold its context.
    RegisterPressure {
        /// Kernel name.
        kernel: String,
        /// Registers the kernel touches ([`sparseweaver_isa::Program::register_high_water`]).
        high_water: usize,
        /// Per-warp limit ([`GpuConfig::regfile_regs_per_warp`]).
        limit: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DivergentBranch { kernel, pc } => {
                write!(f, "divergent uniform branch in `{kernel}` at pc {pc}")
            }
            SimError::Deadlock { kernel, cycle, .. } => {
                write!(f, "deadlock in `{kernel}` at cycle {cycle}")
            }
            SimError::UnbalancedJoin { kernel, pc } => {
                write!(f, "unbalanced join in `{kernel}` at pc {pc}")
            }
            SimError::CycleLimit { kernel, limit, .. } => {
                write!(f, "`{kernel}` exceeded the cycle limit of {limit}")
            }
            SimError::WeaverTimeout { kernel, cycle, .. } => {
                write!(
                    f,
                    "weaver response timed out in `{kernel}` at cycle {cycle}"
                )
            }
            SimError::IllegalInstruction { kernel, pc, word } => {
                write!(
                    f,
                    "illegal instruction in `{kernel}` at pc {pc} (word {word:#010x})"
                )
            }
            SimError::Fault { kernel, what } => {
                write!(f, "machine fault in `{kernel}`: {what}")
            }
            SimError::RegisterPressure {
                kernel,
                high_water,
                limit,
            } => {
                write!(
                    f,
                    "`{kernel}` touches {high_water} registers but the register \
                     file allots {limit} per warp"
                )
            }
        }
    }
}

impl SimError {
    /// The attached machine snapshot, when this error is a hang
    /// (deadlock, cycle limit, or Weaver timeout).
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Deadlock { hang, .. }
            | SimError::CycleLimit { hang, .. }
            | SimError::WeaverTimeout { hang, .. } => Some(hang),
            _ => None,
        }
    }
}

impl std::error::Error for SimError {}
