//! Kernel statistics: cycles, stall breakdown, phase attribution.

use sparseweaver_mem::LevelStats;
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::snapshot_fields;

// One definition shared with the trace-event taxonomy: the statistics
// below and the tracer's phase-cycle series index the same enum.
pub use sparseweaver_trace::Phase;

/// Core-cycle stall attribution, mirroring the Nsight categories the paper
/// lists under Fig. 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Waiting on a global-memory load result ("Memory / long scoreboard").
    pub memory: u64,
    /// Waiting on a shared-memory result ("Shared / short scoreboard").
    pub shared: u64,
    /// Waiting on an ALU/FPU result ("Execution dependency / Wait").
    pub exec_dep: u64,
    /// L1 port-contention delay ("LG throttle"), summed over *accesses* —
    /// different units than the issue-slot categories, so it is excluded
    /// from [`StallBreakdown::total`] and best read per access.
    pub l1_queue: u64,
    /// Warp-cycles parked at a barrier — counted per *warp*, not per
    /// issue slot (a parked warp does not block other warps from
    /// issuing), so it is excluded from [`StallBreakdown::total`].
    pub barrier: u64,
    /// Waiting on a Weaver/EGHW unit response.
    pub weaver: u64,
}

impl StallBreakdown {
    /// Total issue-slot stall cycles (excludes the per-access
    /// [`StallBreakdown::l1_queue`] counter and the per-warp
    /// [`StallBreakdown::barrier`] counter).
    pub fn total(&self) -> u64 {
        self.memory + self.shared + self.exec_dep + self.weaver
    }

    /// Accumulates another breakdown.
    pub fn add(&mut self, other: &StallBreakdown) {
        self.memory += other.memory;
        self.shared += other.shared;
        self.exec_dep += other.exec_dep;
        self.l1_queue += other.l1_queue;
        self.barrier += other.barrier;
        self.weaver += other.weaver;
    }
}

snapshot_fields!(StallBreakdown {
    memory,
    shared,
    exec_dep,
    l1_queue,
    barrier,
    weaver
});

/// What kind of producer a scoreboard entry is waiting on (drives stall
/// attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PendKind {
    /// Nothing pending.
    #[default]
    None,
    /// Global memory load/atomic.
    Memory,
    /// Shared-memory access.
    Shared,
    /// ALU/FPU result.
    Exec,
    /// Weaver/EGHW response.
    Weaver,
}

impl Snapshot for PendKind {
    fn save(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        const ALL: [PendKind; 5] = [
            PendKind::None,
            PendKind::Memory,
            PendKind::Shared,
            PendKind::Exec,
            PendKind::Weaver,
        ];
        let id = d.u8()?;
        *self = ALL
            .get(id as usize)
            .copied()
            .ok_or_else(|| d.corrupt(format!("invalid producer kind id {id}")))?;
        Ok(())
    }
}

/// Statistics for one kernel launch (or an accumulation of launches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Wall-clock cycles (max over cores).
    pub cycles: u64,
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Thread-instructions executed (issued x active lanes).
    pub thread_instructions: u64,
    /// Stall attribution in core-cycles.
    pub stalls: StallBreakdown,
    /// Core-cycles attributed to each [`Phase`].
    pub phase_cycles: [u64; Phase::COUNT],
    /// Memory hierarchy activity during the launch.
    pub mem: LevelStats,
    /// Weaver counters: `(st_fetches, dec_requests, registrations)`.
    pub weaver_counters: (u64, u64, u64),
    /// Sum over cycles of non-halted warps (for warp/instruction metrics).
    pub warp_cycles: u64,
    /// Number of kernel launches folded into these stats.
    pub launches: u64,
}

snapshot_fields!(KernelStats {
    cycles,
    instructions,
    thread_instructions,
    stalls,
    phase_cycles,
    mem,
    weaver_counters,
    warp_cycles,
    launches,
});

impl KernelStats {
    /// Average number of resident (non-halted) warps per issued
    /// instruction — the "Warp/Instruction" metric of Fig. 4.
    pub fn warps_per_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.warp_cycles as f64 / self.instructions as f64
        }
    }

    /// Issue efficiency: instructions per core-cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Folds another launch's stats into this accumulation: cycles add
    /// (sequential launches), counters add.
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.thread_instructions += other.thread_instructions;
        self.stalls.add(&other.stalls);
        for i in 0..Phase::COUNT {
            self.phase_cycles[i] += other.phase_cycles[i];
        }
        self.mem.add(&other.mem);
        self.weaver_counters.0 += other.weaver_counters.0;
        self.weaver_counters.1 += other.weaver_counters.1;
        self.weaver_counters.2 += other.weaver_counters.2;
        self.warp_cycles += other.warp_cycles;
        self.launches += other.launches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = StallBreakdown {
            memory: 5,
            shared: 1,
            exec_dep: 2,
            l1_queue: 3,
            barrier: 4,
            weaver: 6,
        };
        // l1_queue (3, per-access) and barrier (4, per-warp) are excluded.
        assert_eq!(b.total(), 14);
        let mut c = b;
        c.add(&b);
        assert_eq!(c.total(), 28);
        assert_eq!(c.l1_queue, 6);
        assert_eq!(c.barrier, 8);
    }

    #[test]
    fn metrics_guard_division_by_zero() {
        let s = KernelStats::default();
        assert_eq!(s.warps_per_instruction(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn accumulate_adds_everything() {
        let mut a = KernelStats {
            cycles: 10,
            instructions: 5,
            launches: 1,
            ..KernelStats::default()
        };
        let b = a.clone();
        a.accumulate(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.instructions, 10);
        assert_eq!(a.launches, 2);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::EdgeSchedule.label(), "Work ID calc");
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn accumulate_keeps_l3_stats() {
        use sparseweaver_mem::CacheStats;

        // Launches on an L3-configured GPU must not lose their L3 activity
        // when folded into a run-level accumulation that started without.
        let mut total = KernelStats::default();
        let launch = KernelStats {
            mem: sparseweaver_mem::LevelStats {
                l3: Some(CacheStats {
                    accesses: 12,
                    hits: 9,
                    misses: 3,
                    writebacks: 1,
                }),
                ..Default::default()
            },
            ..KernelStats::default()
        };
        total.accumulate(&launch);
        total.accumulate(&launch);
        let l3 = total.mem.l3.expect("L3 stats preserved");
        assert_eq!(l3.accesses, 24);
        assert_eq!(l3.hits, 18);
        assert_eq!(l3.writebacks, 2);
    }
}
