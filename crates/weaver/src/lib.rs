//! The Weaver functional unit and its hardware baseline.
//!
//! Weaver is the paper's lightweight per-core hardware that converts sparse
//! edge-gather operations into dense, SIMD-friendly work distributions
//! (Section III-B). It keeps two tables in shared memory:
//!
//! - the **Sparse Workload Information Table (ST)** — one `(VID, loc, deg)`
//!   entry per hardware thread, filled in the registration stage and
//!   indexed by warp ID and thread ID so that an in-order scan yields
//!   vertex-ID order despite out-of-order warp execution;
//! - the **Dense Work ID Table (DT)** — one row of generated edge IDs per
//!   warp, written when a decode request completes and read back by
//!   `WEAVER_DEC_LOC`.
//!
//! Between them sits the Fig. 6 finite state machine with its two small
//! buffers: **CED** (Current Entry Data) holding the ST entry being
//! decoded, and **OD** (Output Data) accumulating one work item per lane.
//! The FSM can fill one OD buffer from multiple low-degree entries
//! (S3→S4→S2) and multiple OD buffers from one high-degree entry
//! (S5→S6→S2).
//!
//! The crate also contains:
//!
//! - [`eghw`] — the *edge-generating hardware* baseline of Case Study 1,
//!   which performs topology and edge-information reads from its own
//!   state machine (and therefore cannot hide memory latency behind
//!   warp-level parallelism);
//! - [`area`] — the parametric FPGA area model reproducing Table IV.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod eghw;
pub mod fsm;
pub mod tables;
pub mod unit;

pub use fsm::{DecodeBatch, FsmState, WeaverFsm};
pub use tables::{DenseTable, SparseTable, StEntry};
pub use unit::{DecResponse, StOverflow, WeaverConfig, WeaverUnit};

/// The value returned for lanes with no work: the paper's "empty Work ID".
pub const EMPTY_WORK_ID: i64 = -1;
