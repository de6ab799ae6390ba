//! The tracer: categories, configuration, the collector the simulator
//! feeds, and the final report.

use std::fmt;

use crate::event::{EventData, TraceEvent};
use crate::metrics::{CounterSnapshot, KernelSpan, MetricSample};
use crate::sink::{RingSink, TraceSink};

/// Event categories, selectable via `swsim run --trace-level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// Kernel launch/end boundaries (always useful; every level keeps it).
    Kernel = 1 << 0,
    /// Warp scheduling: issues, stalls, divergence, phase boundaries.
    Warp = 1 << 1,
    /// Memory hierarchy: cache accesses and DRAM transactions.
    Mem = 1 << 2,
    /// Weaver unit: FSM transitions and ST/DT table operations.
    Weaver = 1 << 3,
}

/// A set of [`Category`] bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(pub u8);

impl CategoryMask {
    /// No categories (events disabled; metrics sampling still works).
    pub const NONE: CategoryMask = CategoryMask(0);
    /// Every category.
    pub const ALL: CategoryMask = CategoryMask(0b1111);

    /// A mask of exactly one category.
    pub fn only(cat: Category) -> CategoryMask {
        CategoryMask(cat as u8)
    }

    /// Whether `cat` is in the set.
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat as u8 != 0
    }

    /// The union with `cat`.
    pub fn with(self, cat: Category) -> CategoryMask {
        CategoryMask(self.0 | cat as u8)
    }

    /// Parses a `--trace-level` value. Kernel boundaries are always
    /// included; `all` enables everything.
    pub fn parse(level: &str) -> Option<CategoryMask> {
        let base = CategoryMask::only(Category::Kernel);
        match level {
            "warp" => Some(base.with(Category::Warp)),
            "mem" => Some(base.with(Category::Mem)),
            "weaver" => Some(base.with(Category::Weaver)),
            "all" => Some(CategoryMask::ALL),
            _ => None,
        }
    }
}

/// Tracer configuration, threaded through `Session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Which event categories to record.
    pub categories: CategoryMask,
    /// Sample the counter registry every this many cycles (0 disables
    /// periodic sampling; kernel-end samples are still taken).
    pub sample_every: u64,
    /// Ring-buffer capacity in events.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            categories: CategoryMask::ALL,
            sample_every: 0,
            ring_capacity: RingSink::DEFAULT_CAPACITY,
        }
    }
}

/// The collecting tracer. The simulator reaches it through the
/// `tracer` field of the hooks the GPU lends down each call.
pub struct Tracer {
    mask: CategoryMask,
    sink: Box<dyn TraceSink>,
    sample_every: u64,
    next_sample: u64,
    /// Global-cycle base: total cycles of completed launches so far.
    base: u64,
    /// Counter totals committed by completed launches.
    committed: CounterSnapshot,
    samples: Vec<MetricSample>,
    kernels: Vec<KernelSpan>,
    current_kernel: Option<String>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("mask", &self.mask)
            .field("sample_every", &self.sample_every)
            .field("base", &self.base)
            .field("buffered", &self.sink.buffered())
            .field("dropped", &self.sink.dropped())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer with a [`RingSink`] of the configured capacity.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer::with_sink(cfg, Box::new(RingSink::new(cfg.ring_capacity)))
    }

    /// Creates a tracer over a caller-provided sink.
    pub fn with_sink(cfg: TraceConfig, sink: Box<dyn TraceSink>) -> Self {
        Tracer {
            mask: cfg.categories,
            sink,
            sample_every: cfg.sample_every,
            next_sample: if cfg.sample_every > 0 {
                cfg.sample_every
            } else {
                u64::MAX
            },
            base: 0,
            committed: CounterSnapshot::default(),
            samples: Vec::new(),
            kernels: Vec::new(),
            current_kernel: None,
        }
    }

    /// Records an event at launch-relative `cycle` (shifted onto the
    /// global timeline) if its category is enabled.
    pub fn emit(&mut self, cycle: u64, core: u32, data: EventData) {
        if self.mask.contains(data.category()) {
            self.sink.record(TraceEvent {
                cycle: self.base + cycle,
                core,
                data,
            });
        }
    }

    /// Whether a periodic sample is due at launch-relative `cycle`.
    pub fn sample_due(&self, cycle: u64) -> bool {
        cycle >= self.next_sample
    }

    /// Records a sample. `launch_counters` are measured since the current
    /// launch began; the tracer folds them onto committed totals.
    pub fn record_sample(&mut self, cycle: u64, launch_counters: &CounterSnapshot) {
        let mut counters = self.committed;
        counters.add(launch_counters);
        self.samples.push(MetricSample {
            cycle: self.base + cycle,
            counters,
        });
        if self.sample_every > 0 {
            while self.next_sample <= cycle {
                self.next_sample += self.sample_every;
            }
        }
    }

    /// Marks the start of a kernel launch.
    pub fn kernel_begin(&mut self, name: &str) {
        self.current_kernel = Some(name.to_string());
        self.next_sample = if self.sample_every > 0 {
            self.sample_every
        } else {
            u64::MAX
        };
        self.emit(
            0,
            0,
            EventData::KernelLaunch {
                name: name.to_string(),
            },
        );
    }

    /// Marks the end of a launch: commits its final counters, records a
    /// closing sample, and advances the global time base.
    pub fn kernel_end(&mut self, cycles: u64, final_counters: &CounterSnapshot) {
        let name = self
            .current_kernel
            .take()
            .unwrap_or_else(|| "kernel".to_string());
        self.emit(
            cycles,
            0,
            EventData::KernelEnd {
                name: name.clone(),
                cycles,
            },
        );
        self.committed.add(final_counters);
        self.samples.push(MetricSample {
            cycle: self.base + cycles,
            counters: self.committed,
        });
        self.kernels.push(KernelSpan {
            name,
            start: self.base,
            cycles,
        });
        self.base += cycles;
    }

    /// Folds `extra` directly onto the committed totals, outside any
    /// launch. The runtime uses this for counters it owns — retry and
    /// fallback decisions happen between launches, not inside one.
    pub fn add_totals(&mut self, extra: &CounterSnapshot) {
        self.committed.add(extra);
    }

    /// Pushes the sink's buffered output to its destination; call before
    /// saving a checkpoint so the saved byte count matches the file.
    pub fn sync(&mut self) {
        self.sink.sync();
    }

    /// Drains everything collected so far into a [`TraceReport`].
    pub fn take_report(&mut self) -> TraceReport {
        // Drain first: streaming sinks flush on drain, which is where a
        // truncated file latches its error.
        let events = self.sink.drain();
        TraceReport {
            events,
            samples: std::mem::take(&mut self.samples),
            kernels: std::mem::take(&mut self.kernels),
            dropped: self.sink.dropped(),
            sample_every: self.sample_every,
            totals: self.committed,
            total_cycles: self.base,
            sink_error: self.sink.io_error(),
        }
    }
}

// The tracer's resumable state: the global time base, committed counter
// totals, collected samples and kernel spans, and the sink's own state.
// Only valid between launches (no kernel in flight); the sampling cadence
// and category mask come from configuration and are rebuilt by the
// resuming session. `Tracer::sync` first, so a file sink's saved byte
// count matches the file.
crate::snapshot_fields!(Tracer {
    base,
    committed,
    samples,
    kernels,
    sink
});

/// Everything a traced run collected, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Buffered events (the newest `ring_capacity` of them).
    pub events: Vec<TraceEvent>,
    /// Periodic + kernel-end counter samples, in cycle order.
    pub samples: Vec<MetricSample>,
    /// Kernel launches on the global timeline.
    pub kernels: Vec<KernelSpan>,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// The configured sampling interval (0 = kernel-end samples only).
    pub sample_every: u64,
    /// Final cumulative counter totals.
    pub totals: CounterSnapshot,
    /// Total cycles across all launches.
    pub total_cycles: u64,
    /// The sink's first I/O error, if any (streaming sinks only): the
    /// on-disk trace is incomplete and downstream consumers should treat
    /// it — and report it — as truncated.
    pub sink_error: Option<std::io::ErrorKind>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sample_every: u64) -> TraceConfig {
        TraceConfig {
            categories: CategoryMask::ALL,
            sample_every,
            ring_capacity: 64,
        }
    }

    #[test]
    fn level_parsing() {
        assert_eq!(CategoryMask::parse("all"), Some(CategoryMask::ALL));
        let warp = CategoryMask::parse("warp").unwrap();
        assert!(warp.contains(Category::Warp));
        assert!(warp.contains(Category::Kernel));
        assert!(!warp.contains(Category::Mem));
        assert_eq!(CategoryMask::parse("bogus"), None);
    }

    #[test]
    fn disabled_categories_are_filtered() {
        let mut t = Tracer::new(TraceConfig {
            categories: CategoryMask::only(Category::Kernel),
            ..TraceConfig::default()
        });
        t.kernel_begin("k");
        t.emit(1, 0, EventData::DramTransaction { write: false });
        t.kernel_end(5, &CounterSnapshot::default());
        let r = t.take_report();
        assert_eq!(r.events.len(), 2); // launch + end only
    }

    #[test]
    fn sampling_cadence_hits_every_interval() {
        let mut t = Tracer::new(cfg(100));
        t.kernel_begin("k");
        let mut sampled = Vec::new();
        let mut counters = CounterSnapshot::default();
        // The launch loop advances in irregular jumps; samples land on the
        // first opportunity at-or-after each multiple of the interval.
        for cycle in [40u64, 99, 100, 150, 320, 321, 400, 990] {
            if t.sample_due(cycle) {
                counters.instructions += 1;
                t.record_sample(cycle, &counters);
                sampled.push(cycle);
            }
        }
        assert_eq!(sampled, vec![100, 320, 400, 990]);
        t.kernel_end(1000, &counters);
        let r = t.take_report();
        // 4 periodic samples + 1 kernel-end sample.
        assert_eq!(r.samples.len(), 5);
        assert_eq!(r.samples.last().unwrap().cycle, 1000);
        // Cumulative counters are monotone.
        for w in r.samples.windows(2) {
            assert!(w[1].counters.instructions >= w[0].counters.instructions);
        }
    }

    #[test]
    fn no_sampling_when_interval_is_zero() {
        let mut t = Tracer::new(cfg(0));
        t.kernel_begin("k");
        assert!(!t.sample_due(1_000_000));
        t.kernel_end(10, &CounterSnapshot::default());
        assert_eq!(t.take_report().samples.len(), 1); // kernel-end only
    }

    #[test]
    fn global_timeline_spans_launches() {
        let mut t = Tracer::new(cfg(0));
        t.kernel_begin("a");
        t.emit(3, 1, EventData::DramTransaction { write: false });
        t.kernel_end(10, &CounterSnapshot::default());
        t.kernel_begin("b");
        t.emit(2, 0, EventData::DramTransaction { write: true });
        t.kernel_end(20, &CounterSnapshot::default());
        let r = t.take_report();
        assert_eq!(r.total_cycles, 30);
        assert_eq!(r.kernels[1].start, 10);
        let cycles: Vec<u64> = r.events.iter().map(|e| e.cycle).collect();
        // a: launch@0, dram@3, end@10; b: launch@10, dram@12, end@30.
        assert_eq!(cycles, vec![0, 3, 10, 10, 12, 30]);
    }

    #[test]
    fn committed_totals_accumulate_across_launches() {
        let mut t = Tracer::new(cfg(0));
        let one = CounterSnapshot {
            instructions: 7,
            ..CounterSnapshot::default()
        };
        t.kernel_begin("a");
        t.kernel_end(10, &one);
        t.kernel_begin("b");
        t.kernel_end(10, &one);
        let r = t.take_report();
        assert_eq!(r.totals.instructions, 14);
        assert_eq!(r.samples[0].counters.instructions, 7);
        assert_eq!(r.samples[1].counters.instructions, 14);
    }
}
