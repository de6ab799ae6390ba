//! The SparseWeaver graph-processing framework (Section IV).
//!
//! This crate is the user-facing layer of the reproduction. Like the
//! paper's framework, it takes a graph algorithm expressed as user-defined
//! functions (init / gather / apply / filter), a graph in a storage format
//! with a `getNeighbor`/`getEdge` interface, and a gather direction — and
//! compiles GPU kernels for a chosen *scheduling scheme*:
//!
//! - [`Schedule::Svm`] — vertex mapping (the naive baseline);
//! - [`Schedule::Sem`] — edge mapping (balanced, but 2|E| edge reads);
//! - [`Schedule::Swm`] — warp mapping with shared-memory prefix sums and
//!   per-edge binary search;
//! - [`Schedule::Scm`] — CTA/core mapping, block-level balancing;
//! - [`Schedule::SparseWeaver`] — the paper's hardware/software co-design
//!   (Fig. 9 kernels driving the Weaver unit);
//! - [`Schedule::Eghw`] — the edge-generating-hardware baseline of Case
//!   Study 1.
//!
//! The [`compiler`] module is the analog of the paper's PoCL/LLVM
//! extensions: a frontend that stitches schedule templates together with
//! algorithm snippets, and a backend concern (thread-mask activation)
//! folded into the Weaver template. The [`runtime`] module is the host
//! runtime: device memory layout, kernel launches, convergence loops. The
//! [`algorithms`] module ships PageRank, BFS, SSSP, Connected Components
//! and the GCN operators used in the evaluation, each with a host-side
//! reference implementation that every schedule is checked against.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod analytic;
pub mod autotune;
pub mod campaign;
pub mod checkpoint;
pub mod compiler;
pub mod output;
pub mod profile;
pub mod replay;
pub mod runtime;
pub mod schedule;
pub mod session;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use output::AlgoOutput;
pub use runtime::Runtime;
pub use schedule::Schedule;
pub use session::{RunReport, Session};

/// Framework-level errors.
#[derive(Debug)]
pub enum FrameworkError {
    /// The simulator rejected a kernel (a compiler bug) or hit a limit.
    Sim(sparseweaver_sim::SimError),
    /// The static verifier rejected a kernel before launch (see the
    /// `sparseweaver-lint` crate and `docs/lint-rules.md`).
    Lint {
        /// Name of the rejected kernel.
        kernel: String,
        /// Number of error-severity findings.
        errors: usize,
        /// The rendered diagnostics.
        details: String,
    },
    /// Host-side I/O failed (e.g. creating a `--trace-out` file).
    Io {
        /// What was being done, plus the underlying error.
        what: String,
    },
    /// The graph does not fit the device model.
    GraphTooLarge {
        /// What overflowed.
        what: String,
    },
    /// An algorithm failed to converge within its iteration bound.
    NoConvergence {
        /// Algorithm name.
        algorithm: String,
        /// Iterations attempted.
        iterations: u64,
    },
    /// Writing, reading, or restoring a checkpoint failed (see
    /// [`checkpoint::CheckpointError`]).
    Checkpoint(checkpoint::CheckpointError),
    /// The run was stopped early by a signal, the wall-clock watchdog, or
    /// a `--stop-after-launches` bound. State up to the stop point was
    /// persisted (a final checkpoint or campaign-journal entry) so the
    /// run can be resumed.
    Interrupted {
        /// What stopped the run and where its state was saved.
        what: String,
    },
}

impl std::fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkError::Sim(e) => write!(f, "simulation error: {e}"),
            FrameworkError::Lint {
                kernel,
                errors,
                details,
            } => write!(
                f,
                "kernel `{kernel}` rejected by the static verifier \
                 ({errors} error(s)):\n{details}"
            ),
            FrameworkError::Io { what } => write!(f, "I/O error: {what}"),
            FrameworkError::GraphTooLarge { what } => {
                write!(f, "graph too large for the device model: {what}")
            }
            FrameworkError::NoConvergence {
                algorithm,
                iterations,
            } => write!(f, "{algorithm} did not converge in {iterations} iterations"),
            FrameworkError::Checkpoint(e) => write!(f, "{e}"),
            FrameworkError::Interrupted { what } => write!(f, "run interrupted: {what}"),
        }
    }
}

impl std::error::Error for FrameworkError {}

impl From<sparseweaver_sim::SimError> for FrameworkError {
    fn from(e: sparseweaver_sim::SimError) -> Self {
        FrameworkError::Sim(e)
    }
}

impl From<checkpoint::CheckpointError> for FrameworkError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        FrameworkError::Checkpoint(e)
    }
}

impl From<sparseweaver_trace::codec::CodecError> for FrameworkError {
    fn from(e: sparseweaver_trace::codec::CodecError) -> Self {
        FrameworkError::Checkpoint(e.into())
    }
}

/// Convenient imports for framework users.
pub mod prelude {
    pub use crate::algorithms::{Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
    pub use crate::output::AlgoOutput;
    pub use crate::schedule::Schedule;
    pub use crate::session::{RunReport, Session};
    pub use crate::FrameworkError;
    pub use sparseweaver_graph::Direction;
    pub use sparseweaver_lint::LintLevel;
    pub use sparseweaver_sim::GpuConfig;
}
