//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Each invocation measures one workload in its own process. A timed run
//! (`--trace 0`) reports the end-to-end metrics with every hook off; a
//! traced run (`--trace 1`) reports per-layer metrics by timing each
//! layer through its public functions. See `README.md` beside this crate.

pub mod host;
pub mod report;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;

pub use report::{Outcome, END_TO_END, PER_LAYER};
pub use workload::{Scale, Workload, NAMES};

/// Runs workload `w` timed (`trace == false`) or traced. A traced run
/// whose layer call fails returns the error message.
///
/// # Errors
///
/// See [`traced::run`].
pub fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced::run(w, seed)
    } else {
        Ok(timed::run(w, seed, seconds))
    }
}
