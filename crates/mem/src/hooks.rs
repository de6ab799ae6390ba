//! The simulator's optional observers, carried as one value.

use sparseweaver_fault::FaultInjector;
use sparseweaver_trace::{Profiler, Tracer};

use crate::mtrace::Recorder;

/// The observers of one run: structured-event tracer, latency profiler,
/// memory-trace recorder and fault injector.
///
/// The GPU owns one `Hooks` and lends it as `&mut Hooks` to the component
/// it calls — a core's issue step, the cache hierarchy, a Weaver unit,
/// device-memory reads — so no component stores an observer. With every
/// field `None` (the default) each hook is a single `Option` check and the
/// cycle model is exactly the uninstrumented simulator.
#[derive(Debug, Default)]
pub struct Hooks {
    /// Typed events and periodic counter samples.
    pub tracer: Option<Tracer>,
    /// Latency histograms and issue counters.
    pub profiler: Option<Profiler>,
    /// `swmtrace-v1` capture of every hierarchy request.
    pub recorder: Option<Recorder>,
    /// Seeded bit flips and Weaver protocol faults.
    pub fault: Option<FaultInjector>,
}
