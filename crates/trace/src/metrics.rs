//! The counter registry sampled into periodic metrics.

use crate::event::Phase;

/// A snapshot of every counter the metrics layer tracks.
///
/// The GPU launch loop builds launch-relative snapshots from its existing
/// statistics structures (core stats, cache stats, Weaver counters); the
/// tracer folds them onto the committed totals of previously completed
/// launches, so sampled values are cumulative over the whole run and
/// monotonically non-decreasing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Thread-instructions executed.
    pub thread_instructions: u64,
    /// Stall cycles waiting on global memory.
    pub stall_memory: u64,
    /// Stall cycles waiting on shared memory.
    pub stall_shared: u64,
    /// Stall cycles waiting on ALU/FPU results.
    pub stall_exec_dep: u64,
    /// L1 port-contention delay (per access).
    pub stall_l1_queue: u64,
    /// Warp-cycles parked at barriers.
    pub stall_barrier: u64,
    /// Stall cycles waiting on the Weaver/EGHW unit.
    pub stall_weaver: u64,
    /// Core-cycles attributed to each [`Phase`].
    pub phase_cycles: [u64; Phase::COUNT],
    /// L1 accesses / hits (summed over cores).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L3 accesses (0 when no L3 is configured).
    pub l3_accesses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// DRAM transactions.
    pub dram_accesses: u64,
    /// Shared-memory reads (per-core scratch, summed over cores).
    pub shared_reads: u64,
    /// Shared-memory writes.
    pub shared_writes: u64,
    /// Functional device-memory reads (byte-level `MainMemory` traffic).
    pub mem_reads: u64,
    /// Functional device-memory writes.
    pub mem_writes: u64,
    /// Weaver ST slots fetched.
    pub weaver_st_fetches: u64,
    /// Weaver decode requests served.
    pub weaver_dec_requests: u64,
    /// Weaver ST registrations.
    pub weaver_registrations: u64,
    /// Faults injected by the deterministic injector (all sites).
    pub faults_injected: u64,
    /// Weaver responses dropped by the injector (Table-II protocol
    /// faults).
    pub weaver_drops: u64,
    /// Launch retries the runtime performed after a Weaver timeout.
    pub weaver_retries: u64,
    /// Falls back to the software `S_wm` schedule after retry
    /// exhaustion.
    pub weaver_fallbacks: u64,
    /// Register high-water of the currently running kernel (gauge).
    pub kernel_high_water: u64,
    /// Register-file occupancy cap for that kernel: the most warps per
    /// core the file can hold resident (gauge).
    pub occupancy_cap: u64,
    /// Warps actually resident per core this launch (gauge).
    pub warps_resident: u64,
    /// Warps per core the machine was configured with (gauge); a
    /// `warps_resident` below this means the register file is the
    /// binding occupancy limit.
    pub warps_configured: u64,
}

impl CounterSnapshot {
    /// Adds another snapshot field-wise. The occupancy fields are gauges,
    /// not counters: the most recent non-zero value wins instead of
    /// summing, so folding a launch snapshot onto committed totals keeps
    /// the running kernel's occupancy.
    pub fn add(&mut self, other: &CounterSnapshot) {
        self.instructions += other.instructions;
        self.thread_instructions += other.thread_instructions;
        self.stall_memory += other.stall_memory;
        self.stall_shared += other.stall_shared;
        self.stall_exec_dep += other.stall_exec_dep;
        self.stall_l1_queue += other.stall_l1_queue;
        self.stall_barrier += other.stall_barrier;
        self.stall_weaver += other.stall_weaver;
        for i in 0..Phase::COUNT {
            self.phase_cycles[i] += other.phase_cycles[i];
        }
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l3_accesses += other.l3_accesses;
        self.l3_hits += other.l3_hits;
        self.dram_accesses += other.dram_accesses;
        self.shared_reads += other.shared_reads;
        self.shared_writes += other.shared_writes;
        self.mem_reads += other.mem_reads;
        self.mem_writes += other.mem_writes;
        self.weaver_st_fetches += other.weaver_st_fetches;
        self.weaver_dec_requests += other.weaver_dec_requests;
        self.weaver_registrations += other.weaver_registrations;
        self.faults_injected += other.faults_injected;
        self.weaver_drops += other.weaver_drops;
        self.weaver_retries += other.weaver_retries;
        self.weaver_fallbacks += other.weaver_fallbacks;
        for (dst, src) in [
            (&mut self.kernel_high_water, other.kernel_high_water),
            (&mut self.occupancy_cap, other.occupancy_cap),
            (&mut self.warps_resident, other.warps_resident),
            (&mut self.warps_configured, other.warps_configured),
        ] {
            if src != 0 {
                *dst = src;
            }
        }
    }
}

crate::snapshot_fields!(CounterSnapshot {
    instructions,
    thread_instructions,
    stall_memory,
    stall_shared,
    stall_exec_dep,
    stall_l1_queue,
    stall_barrier,
    stall_weaver,
    phase_cycles,
    l1_accesses,
    l1_hits,
    l2_accesses,
    l2_hits,
    l3_accesses,
    l3_hits,
    dram_accesses,
    shared_reads,
    shared_writes,
    mem_reads,
    mem_writes,
    weaver_st_fetches,
    weaver_dec_requests,
    weaver_registrations,
    faults_injected,
    weaver_drops,
    weaver_retries,
    weaver_fallbacks,
    kernel_high_water,
    occupancy_cap,
    warps_resident,
    warps_configured,
});

/// One periodic sample: cumulative counters at a global cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricSample {
    /// Global cycle of the sample.
    pub cycle: u64,
    /// Cumulative counter values at that cycle.
    pub counters: CounterSnapshot,
}

crate::snapshot_fields!(MetricSample { cycle, counters });

/// One kernel launch on the global timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSpan {
    /// Kernel (program) name.
    pub name: String,
    /// Global cycle at which the launch started.
    pub start: u64,
    /// Launch duration in cycles.
    pub cycles: u64,
}

crate::snapshot_fields!(KernelSpan {
    name,
    start,
    cycles
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_addition_is_fieldwise() {
        let mut a = CounterSnapshot {
            instructions: 1,
            dram_accesses: 2,
            ..CounterSnapshot::default()
        };
        a.phase_cycles[Phase::GatherSum as usize] = 5;
        let mut b = CounterSnapshot {
            instructions: 10,
            l1_hits: 3,
            ..CounterSnapshot::default()
        };
        b.phase_cycles[Phase::GatherSum as usize] = 7;
        a.add(&b);
        assert_eq!(a.instructions, 11);
        assert_eq!(a.dram_accesses, 2);
        assert_eq!(a.l1_hits, 3);
        assert_eq!(a.phase_cycles[Phase::GatherSum as usize], 12);
    }

    #[test]
    fn occupancy_gauges_take_the_latest_nonzero_value() {
        let mut a = CounterSnapshot {
            occupancy_cap: 4,
            warps_resident: 4,
            warps_configured: 32,
            ..CounterSnapshot::default()
        };
        let b = CounterSnapshot {
            kernel_high_water: 12,
            occupancy_cap: 2,
            warps_resident: 2,
            ..CounterSnapshot::default()
        };
        a.add(&b);
        assert_eq!(a.kernel_high_water, 12);
        assert_eq!(a.occupancy_cap, 2, "gauge overwritten, not summed");
        assert_eq!(a.warps_resident, 2);
        assert_eq!(a.warps_configured, 32, "zero does not clear a gauge");
    }
}
