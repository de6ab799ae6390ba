//! The SparseWeaver experiment harness.
//!
//! One function per table/figure of the paper's evaluation (Section V),
//! each returning a plain-text report with the same rows/series the paper
//! plots. The `experiments` binary drives them from the command line.
//! `tests/speed_gates.rs` holds the simulator's two self-baselined speed
//! gates (fast-forward, hooks off), `#[ignore]`d outside the release
//! `bench-gate` run.
//!
//! Absolute numbers differ from the paper (our substrate is a from-scratch
//! simulator on scaled dataset stand-ins — see `DESIGN.md`); the *shape* —
//! who wins, by roughly what factor, where crossovers fall — is what each
//! report reproduces, and `EXPERIMENTS.md` records paper-vs-measured for
//! every artifact.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::Table;
