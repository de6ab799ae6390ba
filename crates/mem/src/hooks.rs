//! The simulator's optional observers, and one method per observation
//! that fans it out to them. Each instrumented site makes one call; only
//! this module knows which sink consumes what:
//!
//! | Method                        | Tracer                       | Profiler        | Recorder         |
//! |-------------------------------|------------------------------|-----------------|------------------|
//! | `launch_begin`                | `KernelLaunch`               | launch boundary | kernel record    |
//! | `mem_access` (core, atomic)   | `CacheAccess`                | level latency   | access / atomic  |
//! | `mem_access` (EGHW unit port) |                              |                 | unqueued access  |
//! | `warp_issue`                  | `WarpIssue`                  | issue counters  | warp context     |
//! | `weaver_dec`                  |                              | decode latency  |                  |
//! | `barrier`                     |                              |                 | barrier record   |
//! | `weaver_retry`                | `WeaverRetry`, retry total   |                 |                  |
//! | `trace`                       | tracer-only events           |                 |                  |
//! | `record_sample`, `kernel_end` | counter samples, `KernelEnd` |                 |                  |
//! | `save`, `restore`             | checkpointed (synced first)  | checkpointed    | not checkpointed |
//!
//! The fault injector acts on the machine rather than observing it, so
//! the sites that flip bits or drop responses use [`Hooks::fault`]
//! directly; only its checkpoint state goes through [`Hooks::save`].
//!
//! Adding a sink is one field on [`Hooks`] plus one line in each method
//! whose observation it consumes; no simulator layer changes. The methods
//! are `#[inline]`, so with every sink detached a call site is one
//! `Option` check per sink.

use sparseweaver_fault::FaultInjector;
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::{CounterSnapshot, EventData, Profiler, Tracer};

use crate::hierarchy::{MemAccess, MemPort};
use crate::mtrace::Recorder;

/// The observers of one run. The GPU owns one `Hooks` and lends it as
/// `&mut Hooks` down each call, so no component stores an observer; with
/// every field `None` (the default) the cycle model is exactly the
/// uninstrumented simulator.
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

impl Hooks {
    /// Whether a tracer is attached.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// An event only the tracer consumes.
    #[inline]
    pub fn trace(&mut self, cycle: u64, core: u32, data: EventData) {
        if let Some(t) = &mut self.tracer {
            t.emit(cycle, core, data);
        }
    }

    /// A kernel launch: simulated time restarts at zero.
    #[inline]
    pub fn launch_begin(&mut self, kernel: &str) {
        if let Some(r) = &mut self.recorder {
            r.kernel_launch(kernel);
        }
        if let Some(t) = &mut self.tracer {
            t.kernel_begin(kernel);
        }
        if let Some(p) = &mut self.profiler {
            p.launch_begin();
        }
    }

    /// One served hierarchy request, in service order.
    #[inline]
    pub fn mem_access(&mut self, a: &MemAccess) {
        if a.port != MemPort::Unit {
            if let Some(t) = &mut self.tracer {
                t.emit(
                    a.cycle,
                    a.core as u32,
                    EventData::CacheAccess {
                        level: a.level,
                        write: a.write,
                        queue_delay: a.queue_delay,
                    },
                );
            }
            if let Some(p) = &mut self.profiler {
                p.mem_latency(a.level, a.latency);
            }
        }
        if let Some(r) = &mut self.recorder {
            r.access(a);
        }
    }

    /// Warp `warp` of `core` issues the instruction at `pc` with `active`
    /// lanes; the recorder tags the requests that follow with the warp.
    #[inline]
    pub fn warp_issue(&mut self, cycle: u64, core: usize, warp: usize, pc: u32, active: u32) {
        if let Some(t) = &mut self.tracer {
            t.emit(
                cycle,
                core as u32,
                EventData::WarpIssue {
                    warp: warp as u32,
                    pc,
                    active,
                },
            );
        }
        if let Some(p) = &mut self.profiler {
            p.warp_issue(core, warp);
        }
        if let Some(r) = &mut self.recorder {
            r.set_warp(warp as u32);
        }
    }

    /// A Weaver or EGHW decode request issued at `cycle` and answered at
    /// `ready_at` (a dropped response is not reported).
    #[inline]
    pub fn weaver_dec(&mut self, core: usize, warp: usize, cycle: u64, ready_at: u64) {
        if let Some(p) = &mut self.profiler {
            p.weaver_dec(core, warp, cycle, ready_at);
        }
    }

    /// Warp `warp` of `core` arrives at a barrier.
    #[inline]
    pub fn barrier(&mut self, core: usize, warp: u32, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.barrier(core, warp, cycle);
        }
    }

    /// Whether the tracer wants a counter sample at `cycle`.
    #[inline]
    pub fn sample_due(&self, cycle: u64) -> bool {
        self.tracer.as_ref().is_some_and(|t| t.sample_due(cycle))
    }

    /// A periodic counter sample of the running launch.
    pub fn record_sample(&mut self, cycle: u64, launch: &CounterSnapshot) {
        if let Some(t) = &mut self.tracer {
            t.record_sample(cycle, launch);
        }
    }

    /// The end of a launch after `cycles`, with its final counters.
    pub fn kernel_end(&mut self, cycles: u64, launch: &CounterSnapshot) {
        if let Some(t) = &mut self.tracer {
            t.kernel_end(cycles, launch);
        }
    }

    /// Attempt `attempt` of `kernel` after a Weaver response timeout.
    pub fn weaver_retry(&mut self, kernel: String, attempt: u32) {
        if let Some(t) = &mut self.tracer {
            t.emit(0, 0, EventData::WeaverRetry { kernel, attempt });
            t.add_totals(&CounterSnapshot {
                weaver_retries: 1,
                ..CounterSnapshot::default()
            });
        }
    }

    /// Saves the checkpointed observers: the tracer (synced first, so
    /// its sink state names every byte it wrote), the profiler and the
    /// fault injector. The recorder is not checkpointed.
    pub fn save(&mut self, e: &mut Enc) {
        if let Some(t) = &mut self.tracer {
            t.sync();
        }
        e.opt(self.tracer.as_ref(), Tracer::save);
        e.opt(self.profiler.as_ref(), Profiler::save);
        e.opt(self.fault.as_ref(), FaultInjector::save);
    }

    /// Restores what [`Hooks::save`] wrote into the attached observers.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] when the section is malformed or the attached
    /// observers do not match the saved ones.
    pub fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.restore_opt("tracer", self.tracer.as_mut())?;
        d.restore_opt("profiler", self.profiler.as_mut())?;
        d.restore_opt("fault injector", self.fault.as_mut())
    }
}
