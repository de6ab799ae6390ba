//! Structured tracing and metrics for the SparseWeaver simulator.
//!
//! The simulator crates (`sparseweaver-sim`, `-mem`, `-weaver`) reach an
//! optional [`Tracer`] on their hot paths through the hooks the GPU lends
//! down each call. With no tracer attached every hook is a single
//! `Option` branch, so the cycle model and its statistics are
//! bit-identical to an uninstrumented build. With one attached,
//! instrumentation emits typed [`TraceEvent`]s into a bounded
//! [`TraceSink`] and the GPU launch loop records periodic
//! [`MetricSample`]s of the counter registry.
//!
//! The collected [`TraceReport`] exports to two formats:
//!
//! - [`export::chrome_trace_json`] — the Chrome trace-event format, which
//!   loads directly in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. One simulated cycle is mapped to one microsecond.
//! - [`export::metrics_json`] — a flat metrics document with the sampled
//!   counter time series (stall breakdown, phase cycles, cache hits,
//!   DRAM traffic, Weaver activity) plus per-kernel spans and totals.
//!
//! # Example
//!
//! ```
//! use sparseweaver_trace::{EventData, TraceConfig, Tracer};
//!
//! let mut t = Tracer::new(TraceConfig::default());
//! t.kernel_begin("demo");
//! t.emit(3, 0, EventData::WarpIssue { warp: 1, pc: 0, active: 4 });
//! t.kernel_end(10, &Default::default());
//! let report = t.take_report();
//! assert_eq!(report.kernels[0].cycles, 10);
//! assert_eq!(report.events.len(), 3); // launch, issue, end
//! ```

pub mod codec;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod tracer;

pub use event::{EventData, MemLevel, Phase, StallCause, TableOp, TraceEvent, WeaverState};
pub use metrics::{CounterSnapshot, KernelSpan, MetricSample};
pub use profile::{ImbalanceSummary, LatencyHistogram, ProfileReport, Profiler};
pub use sink::{FileSink, RingSink, TraceSink};
pub use tracer::{Category, CategoryMask, TraceConfig, TraceReport, Tracer};
