//! The whole GPU: cores + memory hierarchy + the global cycle loop.

use sparseweaver_fault::{FaultCounts, FaultInjector};
use sparseweaver_isa::{DecodedProgram, Program};
use sparseweaver_mem::{Hierarchy, Hooks, LevelStats, MainMemory};
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::{CounterSnapshot, EventData, StallCause};
use sparseweaver_weaver::eghw::EghwLayout;

use crate::config::GpuConfig;
use crate::core::{Blocked, Core, CoreStats, IssueOutcome};
use crate::stats::{KernelStats, PendKind};
use crate::SimError;

/// The simulated GPU.
///
/// Functional state lives in [`MainMemory`]; the hierarchy and cores only
/// decide timing. Caches stay warm across launches (iterative graph
/// algorithms relaunch kernels every superstep, as on real hardware).
///
/// # Examples
///
/// ```
/// use sparseweaver_isa::{Asm, CsrKind, Width};
/// use sparseweaver_sim::{Gpu, GpuConfig};
///
/// // Each thread stores its global thread ID to memory.
/// let mut a = Asm::new("tid_store");
/// let tid = a.reg();
/// let addr = a.reg();
/// a.csr(tid, CsrKind::GlobalTid);
/// a.muli(addr, tid, 8);
/// a.stg(tid, addr, 0, Width::B8);
/// a.halt();
/// let prog = a.finish();
///
/// let mut gpu = Gpu::new(GpuConfig::small_test());
/// let bytes = 8 * gpu.config().total_threads();
/// gpu.mem_mut().grow_to(bytes);
/// let stats = gpu.launch(&prog, &[])?;
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.mem().read(8 * 5, 8), 5);
/// # Ok::<(), sparseweaver_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: MainMemory,
    hierarchy: Hierarchy,
    cores: Vec<Core>,
    hooks: Hooks,
    occupancy: Occupancy,
    configured_warps_per_core: usize,
    fast_forward: bool,
}

/// Register-file occupancy of the most recent launch.
///
/// `resident < configured` means the register file — not the warp
/// scheduler — was the binding limit on parallelism for that kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Registers the launched kernel touches
    /// ([`Program::register_high_water`]).
    pub kernel_high_water: usize,
    /// Warps per core the register file can hold for that kernel
    /// ([`GpuConfig::occupancy_cap`]).
    pub cap: usize,
    /// Warps per core actually resident this launch.
    pub resident: usize,
    /// Warps per core the machine was configured with (see
    /// [`Gpu::set_configured_warps_per_core`]).
    pub configured: usize,
}

sparseweaver_trace::snapshot_fields!(Occupancy {
    kernel_high_water,
    cap,
    resident,
    configured
});

impl Gpu {
    /// Builds a GPU from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`GpuConfig::validate`]).
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid GPU configuration: {e}"));
        Gpu {
            mem: MainMemory::new(1 << 20),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            cores: (0..cfg.num_cores).map(|i| Core::new(i, &cfg)).collect(),
            configured_warps_per_core: cfg.warps_per_core,
            cfg,
            hooks: Hooks::default(),
            occupancy: Occupancy::default(),
            fast_forward: true,
        }
    }

    /// Enables or disables the idle-cycle fast-forward cache (on by
    /// default).
    ///
    /// With fast-forward on, a core that reports [`IssueOutcome::Blocked`]
    /// is not re-scanned until the global clock reaches the block's
    /// `next_ready` cycle; the whole blocked span is charged to the
    /// attribution counters once, and while a tracer is attached a
    /// `WarpStall` event is emitted for every skipped scan. This
    /// is bit-identical to re-scanning because warp wake-ups are purely
    /// core-local: the scoreboard's ready cycles are fixed at issue time,
    /// and barriers and the Weaver unit only advance on the owning core's
    /// own issues. Disabling it restores the per-cycle re-scan — useful as
    /// a determinism cross-check; both paths must produce the same stats,
    /// traces, and outputs.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Register-file occupancy of the most recent launch (zeros before
    /// the first launch).
    pub fn occupancy(&self) -> Occupancy {
        self.occupancy
    }

    /// Records the warp count the *user* configured, when it differs from
    /// this machine's physical `warps_per_core`.
    ///
    /// A session that pre-clamps its machine to the occupancy cap (so
    /// kernel geometry and physical warps agree) builds the `Gpu` with the
    /// clamped warp count; calling this with the original keeps
    /// [`Occupancy::configured`] — and the exported `warps_configured`
    /// gauge — honest about what the cap displaced.
    pub fn set_configured_warps_per_core(&mut self, configured: usize) {
        self.configured_warps_per_core = configured.max(self.cfg.warps_per_core);
    }

    /// Attaches the run's observers, replacing (and dropping) any attached
    /// before.
    ///
    /// Every launch lends them as `&mut Hooks` to the components it calls,
    /// which report each observation through one [`Hooks`] method; the
    /// fault injector corrupts device reads, register files and
    /// instruction fetches and drops or delays Weaver responses. With
    /// [`Hooks::default`] attached — the default — every hook is a `None`
    /// check and the cycle model is untouched.
    pub fn attach_hooks(&mut self, hooks: Hooks) {
        self.hooks = hooks;
    }

    /// Detaches and returns the observers, leaving none attached.
    pub fn take_hooks(&mut self) -> Hooks {
        std::mem::take(&mut self.hooks)
    }

    /// The attached observers.
    pub fn hooks(&self) -> &Hooks {
        &self.hooks
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Read access to device memory.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable access to device memory (host-side data movement).
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Cumulative memory-hierarchy statistics.
    pub fn mem_stats(&self) -> LevelStats {
        self.hierarchy.stats()
    }

    /// Flushes caches and resets memory statistics (between independent
    /// experiments).
    pub fn reset_memory_system(&mut self) {
        self.hierarchy.reset();
    }

    /// Installs the EGHW graph layout on every core.
    pub fn set_eghw_layout(&mut self, layout: EghwLayout) {
        for c in &mut self.cores {
            c.set_eghw_layout(layout);
        }
    }

    /// Runs `program` to completion on all cores and returns its stats.
    ///
    /// Before the first cycle, the launch sizes each core's resident warp
    /// set to what the register file can hold for this kernel
    /// ([`GpuConfig::occupancy_cap`] of its register high-water); excess
    /// warps are parked for the whole launch and the thread-geometry CSRs
    /// report the reduced machine.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on kernel bugs (divergent uniform branches,
    /// unbalanced joins, touching more registers than a warp's allotment),
    /// deadlock, or exceeding the cycle budget.
    pub fn launch(&mut self, program: &Program, args: &[u64]) -> Result<KernelStats, SimError> {
        let high_water = program.register_high_water();
        if high_water > self.cfg.regfile_regs_per_warp {
            return Err(SimError::RegisterPressure {
                kernel: program.name().to_string(),
                high_water,
                limit: self.cfg.regfile_regs_per_warp,
            });
        }
        let cap = self.cfg.occupancy_cap(high_water);
        let resident = cap.min(self.cfg.warps_per_core);
        self.occupancy = Occupancy {
            kernel_high_water: high_water,
            cap,
            resident,
            configured: self.configured_warps_per_core,
        };
        for c in &mut self.cores {
            c.reset_for_launch(resident);
        }
        self.hierarchy.reset_ports();
        self.hooks.launch_begin(program.name());
        let mem_before = self.hierarchy.stats();
        let traffic_before = self.mem.traffic();
        let fault_before = self.fault_counts();
        let num_cores = self.cores.len();
        // Decode once; the per-cycle issue path never touches the word
        // decoder again (the fetch-flip fault path re-encodes per fetch).
        let decoded = DecodedProgram::new(program);
        let mut cycle: u64 = 0;
        let mut warp_cycles: u64 = 0;
        let mut barrier_warp_cycles: u64 = 0;
        // Each core's open blocked span: the outcome that opened it and the
        // cycle it opened at. Its stall cycles are charged once, when it
        // closes: when the core is probed again, at a trace sample, or at
        // launch end. With fast-forward on, a blocked core is not probed
        // again before its `next_ready`.
        let mut spans: Vec<Option<(Blocked, u64)>> = vec![None; num_cores];

        let exit = 'run: loop {
            if cycle > self.cfg.max_cycles {
                break Err(SimError::CycleLimit {
                    kernel: program.name().to_string(),
                    limit: self.cfg.max_cycles,
                    hang: Box::new(self.build_hang_report(program.name(), cycle)),
                });
            }
            let mut any_issued = false;
            let mut all_finished = true;
            let mut wake = u64::MAX;
            for (i, span) in spans.iter_mut().enumerate() {
                if let Some((b, since)) = *span {
                    if self.fast_forward && cycle < b.next_ready {
                        all_finished = false;
                        wake = wake.min(b.next_ready);
                        continue;
                    }
                    charge_stall(&mut self.cores[i].stats, &b, cycle - since);
                    *span = None;
                }
                let outcome = self.cores[i].try_issue(
                    cycle,
                    program,
                    &decoded,
                    args,
                    &mut self.hierarchy,
                    &mut self.mem,
                    &mut self.hooks,
                    num_cores,
                );
                match outcome {
                    Ok(IssueOutcome::Issued) => {
                        any_issued = true;
                        all_finished = false;
                    }
                    Ok(IssueOutcome::Blocked(b)) => {
                        all_finished = false;
                        wake = wake.min(b.next_ready);
                        *span = Some((b, cycle));
                    }
                    Ok(IssueOutcome::Finished) => {
                        if self.cores[i].stats.finish_cycle == 0 {
                            self.cores[i].stats.finish_cycle = cycle;
                        }
                    }
                    Err(e) => break 'run Err(e),
                }
            }
            if all_finished {
                break Ok(());
            }
            // How far to advance: 1 cycle if anything issued, else jump to
            // the earliest wake-up.
            let delta = if any_issued {
                1
            } else {
                if wake == u64::MAX {
                    let hang = Box::new(self.build_hang_report(program.name(), cycle));
                    let kernel = program.name().to_string();
                    // A deadlock whose proximate cause is a dropped Weaver
                    // response is a protocol timeout: the runtime can retry
                    // the launch and fall back to the software `S_wm`
                    // schedule, neither of which helps a true deadlock.
                    if self
                        .hooks
                        .fault
                        .as_ref()
                        .is_some_and(FaultInjector::weaver_faulty)
                    {
                        break Err(SimError::WeaverTimeout {
                            kernel,
                            cycle,
                            hang,
                        });
                    }
                    break Err(SimError::Deadlock {
                        kernel,
                        cycle,
                        hang,
                    });
                }
                wake - cycle
            };
            if self.hooks.tracing() {
                for (i, span) in spans.iter().enumerate() {
                    if let Some((b, _)) = span {
                        self.hooks.trace(
                            cycle,
                            i as u32,
                            EventData::WarpStall {
                                cause: stall_cause(b),
                                phase: b.phase,
                                cycles: delta,
                            },
                        );
                    }
                }
            }
            // Warp residency accounting.
            for c in &self.cores {
                if !c.finished() {
                    warp_cycles += c.resident_warps() as u64 * delta;
                    barrier_warp_cycles += c.warps_at_barrier() as u64 * delta;
                }
            }
            cycle += delta;
            if self.hooks.sample_due(cycle) {
                charge_spans(&mut self.cores, &mut spans, cycle);
                let stats = self.fold_stats(cycle, warp_cycles, barrier_warp_cycles, &mem_before);
                let snap = self.launch_snapshot(&stats, traffic_before, &fault_before);
                self.hooks.record_sample(cycle, &snap);
            }
        };
        charge_spans(&mut self.cores, &mut spans, cycle);
        exit?;

        let stats = self.fold_stats(cycle, warp_cycles, barrier_warp_cycles, &mem_before);
        if self.hooks.tracing() {
            let snap = self.launch_snapshot(&stats, traffic_before, &fault_before);
            self.hooks.kernel_end(cycle, &snap);
        }
        Ok(stats)
    }

    /// Folds the per-core counters and the hierarchy's activity since
    /// `mem_before` into the stats of a launch that has run `cycles`
    /// cycles so far.
    fn fold_stats(
        &self,
        cycles: u64,
        warp_cycles: u64,
        barrier_warp_cycles: u64,
        mem_before: &LevelStats,
    ) -> KernelStats {
        let mem_after = self.hierarchy.stats();
        let mut stats = KernelStats {
            cycles,
            launches: 1,
            warp_cycles,
            mem: LevelStats {
                l1: diff_cache(mem_after.l1, mem_before.l1),
                l2: diff_cache(mem_after.l2, mem_before.l2),
                l3: match (mem_after.l3, mem_before.l3) {
                    (Some(a), Some(b)) => Some(diff_cache(a, b)),
                    (a, _) => a,
                },
                dram_accesses: mem_after.dram_accesses - mem_before.dram_accesses,
            },
            ..KernelStats::default()
        };
        stats.stalls.barrier += barrier_warp_cycles;
        for c in &self.cores {
            stats.instructions += c.stats.instructions;
            stats.thread_instructions += c.stats.thread_instructions;
            stats.stalls.add(&c.stats.stalls);
            for p in 0..crate::stats::Phase::COUNT {
                stats.phase_cycles[p] += c.stats.phase_cycles[p];
            }
            let (f, d, r) = c.weaver.counters();
            stats.weaver_counters.0 += f;
            stats.weaver_counters.1 += d;
            stats.weaver_counters.2 += r;
        }
        stats
    }

    /// Cumulative injection counters (zeros with no injector attached).
    fn fault_counts(&self) -> FaultCounts {
        self.hooks
            .fault
            .as_ref()
            .map(FaultInjector::counts)
            .unwrap_or_default()
    }

    /// Snapshots the whole machine for hang diagnostics: per-warp
    /// scheduling state on every core plus memory-port occupancy.
    fn build_hang_report(&self, kernel: &str, cycle: u64) -> crate::hang::HangReport {
        crate::hang::HangReport {
            kernel: kernel.to_string(),
            cycle,
            cores: self.cores.iter().map(|c| c.hang_state(cycle)).collect(),
            ports: self.hierarchy.port_occupancy(),
        }
    }

    /// Launch-relative counter snapshot for the tracer: the launch's
    /// `stats` so far plus what only the tracer reads (shared and device
    /// traffic, fault counts, occupancy). The tracer folds it onto
    /// committed totals from earlier launches.
    fn launch_snapshot(
        &self,
        stats: &KernelStats,
        traffic_before: (u64, u64),
        fault_before: &FaultCounts,
    ) -> CounterSnapshot {
        let (stalls, mem) = (&stats.stalls, &stats.mem);
        let l3 = mem.l3.unwrap_or_default();
        let (weaver_st_fetches, weaver_dec_requests, weaver_registrations) = stats.weaver_counters;
        let (shared_reads, shared_writes) = self
            .cores
            .iter()
            .map(|c| c.shared.traffic())
            .fold((0, 0), |(r, w), (cr, cw)| (r + cr, w + cw));
        let (mem_reads, mem_writes) = self.mem.traffic();
        let counts = self.fault_counts();
        CounterSnapshot {
            instructions: stats.instructions,
            thread_instructions: stats.thread_instructions,
            stall_memory: stalls.memory,
            stall_shared: stalls.shared,
            stall_exec_dep: stalls.exec_dep,
            stall_l1_queue: stalls.l1_queue,
            stall_barrier: stalls.barrier,
            stall_weaver: stalls.weaver,
            phase_cycles: stats.phase_cycles,
            l1_accesses: mem.l1.accesses,
            l1_hits: mem.l1.hits,
            l2_accesses: mem.l2.accesses,
            l2_hits: mem.l2.hits,
            l3_accesses: l3.accesses,
            l3_hits: l3.hits,
            dram_accesses: mem.dram_accesses,
            shared_reads,
            shared_writes,
            mem_reads: mem_reads - traffic_before.0,
            mem_writes: mem_writes - traffic_before.1,
            weaver_st_fetches,
            weaver_dec_requests,
            weaver_registrations,
            faults_injected: counts.total() - fault_before.total(),
            weaver_drops: counts.weaver_drops - fault_before.weaver_drops,
            kernel_high_water: self.occupancy.kernel_high_water as u64,
            occupancy_cap: self.occupancy.cap as u64,
            warps_resident: self.occupancy.resident as u64,
            warps_configured: self.occupancy.configured as u64,
            ..CounterSnapshot::default()
        }
    }
}

/// Charges each open blocked span's stall cycles up to `cycle` to its
/// core and restarts the span at `cycle`.
fn charge_spans(cores: &mut [Core], spans: &mut [Option<(Blocked, u64)>], cycle: u64) {
    for (core, span) in cores.iter_mut().zip(spans) {
        if let Some((b, since)) = span {
            charge_stall(&mut core.stats, b, cycle - *since);
            *since = cycle;
        }
    }
}

/// Attributes `cycles` stall cycles to a blocked core, by the same cause
/// the stall event reports.
fn charge_stall(s: &mut CoreStats, b: &Blocked, cycles: u64) {
    *match stall_cause(b) {
        StallCause::Memory => &mut s.stalls.memory,
        StallCause::Shared => &mut s.stalls.shared,
        StallCause::ExecDep => &mut s.stalls.exec_dep,
        StallCause::Weaver => &mut s.stalls.weaver,
        StallCause::Barrier => &mut s.stalls.barrier,
    } += cycles;
    s.phase_cycles[b.phase as usize] += cycles;
}

/// Maps a blocked core's reason to the trace-event stall taxonomy.
fn stall_cause(b: &Blocked) -> StallCause {
    if b.barrier {
        StallCause::Barrier
    } else {
        match b.reason {
            PendKind::Memory => StallCause::Memory,
            PendKind::Shared => StallCause::Shared,
            PendKind::Weaver => StallCause::Weaver,
            PendKind::Exec | PendKind::None => StallCause::ExecDep,
        }
    }
}

fn diff_cache(
    a: sparseweaver_mem::CacheStats,
    b: sparseweaver_mem::CacheStats,
) -> sparseweaver_mem::CacheStats {
    sparseweaver_mem::CacheStats {
        accesses: a.accesses - b.accesses,
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        writebacks: a.writebacks - b.writebacks,
    }
}

/// The complete dynamic machine state: per-core state (warps, Weaver/EGHW
/// units, shared memory), the cache hierarchy's arrays and port clocks,
/// device-memory contents and traffic counters, and the occupancy gauges
/// of the most recent launch.
///
/// Saved between launches (the cycle loop is not re-entrant), the state
/// plus the configuration determines every later launch: restoring it
/// into a freshly built `Gpu` of the same configuration is bit-identical
/// to never having stopped. Configuration and the attached [`Hooks`] are
/// not part of the state; a shape mismatch (core count, warp count, cache
/// geometry, table sizes) is a [`CodecError::Restore`] naming the first
/// offending component.
impl Snapshot for Gpu {
    fn save(&self, e: &mut Enc) {
        e.seq(&self.cores);
        self.hierarchy.save(e);
        self.mem.save(e);
        self.occupancy.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.restore_seq("core", &mut self.cores)?;
        self.hierarchy
            .restore(d)
            .map_err(|e| e.within("hierarchy"))?;
        self.mem.restore(d)?;
        self.occupancy.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseweaver_isa::{Asm, AtomOp, CsrKind, VoteOp, Width};

    fn gpu() -> Gpu {
        let mut g = Gpu::new(GpuConfig::small_test());
        g.mem_mut().grow_to(1 << 20);
        g
    }

    /// Hooks with only a tracer, sampling every `sample_every` cycles.
    fn tracing(sample_every: u64) -> Hooks {
        Hooks {
            tracer: Some(sparseweaver_trace::Tracer::new(
                sparseweaver_trace::TraceConfig {
                    sample_every,
                    ..sparseweaver_trace::TraceConfig::default()
                },
            )),
            ..Hooks::default()
        }
    }

    fn take_trace_report(g: &mut Gpu) -> sparseweaver_trace::TraceReport {
        g.take_hooks()
            .tracer
            .expect("attached tracer")
            .take_report()
    }

    #[test]
    fn empty_program_finishes() {
        let mut g = gpu();
        let p = Asm::new("empty").finish();
        let s = g.launch(&p, &[]).unwrap();
        assert_eq!(s.instructions, 0);
    }

    #[test]
    fn every_thread_writes_its_tid() {
        let mut g = gpu();
        let total = g.config().total_threads();
        let mut a = Asm::new("tids");
        let tid = a.reg();
        let addr = a.reg();
        a.csr(tid, CsrKind::GlobalTid);
        a.muli(addr, tid, 8);
        a.stg(tid, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        for t in 0..total as u64 {
            assert_eq!(g.mem().read(t * 8, 8), t, "thread {t}");
        }
    }

    #[test]
    fn kernel_args_reach_threads() {
        let mut g = gpu();
        let mut a = Asm::new("args");
        let v = a.reg();
        let addr = a.reg();
        a.ldarg(v, 3);
        a.li(addr, 64);
        a.stg(v, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[0, 0, 0, 777]).unwrap();
        assert_eq!(g.mem().read(64, 8), 777);
    }

    #[test]
    fn divergent_if_else_runs_both_sides() {
        let mut g = gpu();
        let mut a = Asm::new("diverge");
        let lane = a.reg();
        let is_even = a.reg();
        let addr = a.reg();
        let val = a.reg();
        let tid = a.reg();
        a.csr(lane, CsrKind::LaneId);
        a.csr(tid, CsrKind::GlobalTid);
        a.alui(sparseweaver_isa::AluOp::And, is_even, lane, 1);
        a.seqi(is_even, is_even, 0);
        a.muli(addr, tid, 8);
        a.if_else(is_even, |a| a.li(val, 100), |a| a.li(val, 200));
        a.stg(val, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        for t in 0..g.config().total_threads() as u64 {
            let expect = if (t % g.config().threads_per_warp as u64).is_multiple_of(2) {
                100
            } else {
                200
            };
            assert_eq!(g.mem().read(t * 8, 8), expect, "thread {t}");
        }
    }

    #[test]
    fn divergent_uniform_branch_is_an_error() {
        let mut g = gpu();
        let mut a = Asm::new("bad_branch");
        let lane = a.reg();
        let zero = a.zero();
        a.csr(lane, CsrKind::LaneId);
        let l = a.new_label();
        a.beq(lane, zero, l); // lane-dependent: illegal uniform branch
        a.bind(l);
        a.halt();
        let p = a.finish();
        match g.launch(&p, &[]) {
            Err(SimError::DivergentBranch { .. }) => {}
            other => panic!("expected divergence error, got {other:?}"),
        }
    }

    #[test]
    fn barrier_joins_all_warps() {
        let mut g = gpu();
        // Warp 0 writes, everyone barriers, then all read and verify via
        // a store the host checks.
        let mut a = Asm::new("barrier");
        let wid = a.reg();
        let addr = a.reg();
        let v = a.reg();
        let tid = a.reg();
        a.csr(wid, CsrKind::WarpId);
        a.csr(tid, CsrKind::GlobalTid);
        a.li(addr, 0);
        let skip = a.reg();
        a.seqi(skip, wid, 0);
        a.if_nonzero(skip, |a| {
            let c = a.reg();
            a.li(c, 42);
            a.sts(c, addr, 0, Width::B8);
            a.free(c);
        });
        a.bar();
        a.lds(v, addr, 0, Width::B8);
        let out = a.reg();
        a.muli(out, tid, 8);
        a.stg(v, out, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        // Every thread in every core observed 42 after the barrier.
        for t in 0..g.config().total_threads() as u64 {
            assert_eq!(g.mem().read(t * 8, 8), 42, "thread {t}");
        }
    }

    #[test]
    fn mem_recorder_capture_replays_bit_identically() {
        use sparseweaver_mem::{mtrace, replay, Recorder};

        // A kernel mixing loads, stores, atomics, and a barrier; two
        // launches so the capture crosses a port-clock reset.
        let mut a = Asm::new("capture_mix");
        let tid = a.reg();
        let addr = a.reg();
        let v = a.reg();
        let one = a.reg();
        a.csr(tid, CsrKind::GlobalTid);
        a.muli(addr, tid, 8);
        a.stg(tid, addr, 0, Width::B8);
        a.bar();
        a.ldg(v, addr, 0, Width::B8);
        a.li(addr, 128);
        a.li(one, 1);
        a.atom(AtomOp::Add, v, addr, one);
        a.halt();
        let p = a.finish();

        let mut g = gpu();
        g.attach_hooks(Hooks {
            recorder: Some(Recorder::in_memory(&g.config().hierarchy)),
            ..Hooks::default()
        });
        g.launch(&p, &[]).unwrap();
        g.launch(&p, &[]).unwrap();
        let live = g.mem_stats();
        let mut rec = g.take_hooks().recorder.expect("attached recorder");
        let summary = rec.finalize(&live);
        assert!(summary.sink_error.is_none());
        assert!(summary.records > 0);

        let trace = mtrace::parse(&rec.take_bytes().unwrap()).expect("well-formed capture");
        let (kernels, accesses, _unqueued, atomics, barriers) = trace.counts();
        assert_eq!(kernels, 2);
        assert!(accesses > 0 && atomics > 0 && barriers > 0);
        let outcome = replay::verify(&trace).expect("valid capture config");
        assert_eq!(outcome.replayed, live, "replay must be bit-identical");
        assert!(outcome.matches());
    }

    #[test]
    fn mem_recorder_does_not_change_stats_or_output() {
        use sparseweaver_mem::Recorder;

        let mut a = Asm::new("rec_neutral");
        let tid = a.reg();
        let addr = a.reg();
        a.csr(tid, CsrKind::GlobalTid);
        a.muli(addr, tid, 8);
        a.stg(tid, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();

        let mut plain = gpu();
        let s1 = plain.launch(&p, &[]).unwrap();
        let mut recorded = gpu();
        recorded.attach_hooks(Hooks {
            recorder: Some(Recorder::in_memory(&recorded.config().hierarchy)),
            ..Hooks::default()
        });
        let s2 = recorded.launch(&p, &[]).unwrap();
        assert_eq!(s1.cycles, s2.cycles);
        assert_eq!(s1.mem, s2.mem);
        assert_eq!(plain.mem_stats(), recorded.mem_stats());
    }

    #[test]
    fn atomics_count_threads_exactly() {
        let mut g = gpu();
        let total = g.config().total_threads() as u64;
        let mut a = Asm::new("atomic_count");
        let addr = a.reg();
        let one = a.reg();
        let old = a.reg();
        a.li(addr, 128);
        a.li(one, 1);
        a.atom(AtomOp::Add, old, addr, one);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        assert_eq!(g.mem().read(128, 8), total);
    }

    #[test]
    fn vote_ballot_semantics() {
        let mut g = gpu();
        let mut a = Asm::new("ballot");
        let lane = a.reg();
        let pred = a.reg();
        let b = a.reg();
        let addr = a.reg();
        a.csr(lane, CsrKind::LaneId);
        a.alui(sparseweaver_isa::AluOp::And, pred, lane, 1);
        a.vote(VoteOp::Ballot, b, pred);
        a.li(addr, 256);
        a.stg(b, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        // Lanes 1 and 3 of a 4-lane warp have odd lane IDs.
        assert_eq!(g.mem().read(256, 8), 0b1010);
    }

    #[test]
    fn weaver_distribution_loop_end_to_end() {
        // Registration of two vertices, then the Fig. 9 distribution loop
        // writes one record per generated (vid, eid) work item.
        let mut g = gpu();
        let mut a = Asm::new("weaver_loop");
        let ctid = a.reg();
        let vid = a.reg();
        let loc = a.reg();
        let deg = a.reg();
        let cid = a.reg();
        a.csr(ctid, CsrKind::CoreTid);
        a.csr(cid, CsrKind::CoreId);
        // Threads 0 and 1 of core 0 register vertices 5 (deg 3, loc 10)
        // and 6 (deg 2, loc 13).
        let is_reg = a.reg();
        let t = a.reg();
        a.seqi(t, cid, 0);
        a.sltui(is_reg, ctid, 2);
        a.and(is_reg, is_reg, t);
        a.if_nonzero(is_reg, |a| {
            a.addi(vid, ctid, 5);
            a.muli(loc, ctid, 3);
            a.addi(loc, loc, 10);
            let three = a.reg();
            a.li(three, 3);
            a.sub(deg, three, ctid);
            a.free(three);
            a.weaver_reg(vid, loc, deg);
        });
        a.bar();
        // Distribution loop.
        let top = a.new_label();
        let done = a.new_label();
        let wv = a.reg();
        let we = a.reg();
        let has = a.reg();
        let any = a.reg();
        a.bind(top);
        a.weaver_dec_id(wv);
        a.snei(has, wv, -1);
        a.vote(VoteOp::Any, any, has);
        a.beq(any, a.zero(), done);
        a.weaver_dec_loc(we);
        // Record: mem[16 * eid] = vid + 1 (nonzero marker).
        a.if_nonzero(has, |a| {
            let addr = a.reg();
            let val = a.reg();
            a.muli(addr, we, 16);
            a.addi(val, wv, 1);
            a.stg(val, addr, 0, Width::B8);
            a.free(addr);
            a.free(val);
        });
        a.jmp(top);
        a.bind(done);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        // vertex 5: eids 10, 11, 12 -> marker 6; vertex 6: eids 13, 14 -> 7.
        for e in 10..13u64 {
            assert_eq!(g.mem().read(e * 16, 8), 6, "eid {e}");
        }
        for e in 13..15u64 {
            assert_eq!(g.mem().read(e * 16, 8), 7, "eid {e}");
        }
    }

    #[test]
    fn stats_populated() {
        let mut g = gpu();
        let mut a = Asm::new("stats");
        let r = a.reg();
        let addr = a.reg();
        a.li(addr, 4096);
        a.ldg(r, addr, 0, Width::B8);
        a.addi(r, r, 1);
        a.stg(r, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        let s = g.launch(&p, &[]).unwrap();
        assert!(s.cycles > 0);
        assert!(s.instructions > 0);
        assert!(s.mem.l1.accesses > 0);
        assert!(s.warps_per_instruction() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut g = gpu();
            let mut a = Asm::new("det");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.halt();
            let p = a.finish();
            g.launch(&p, &[]).unwrap().cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_atomics_count_within_core() {
        // Every thread of a core adds 1 to the same scratchpad counter.
        let mut g = gpu();
        let mut a = Asm::new("shared_atomic");
        let addr = a.reg();
        let one = a.reg();
        let old = a.reg();
        a.li(addr, 128);
        a.li(one, 1);
        a.atom_shared(AtomOp::Add, old, addr, one);
        a.bar();
        // Thread 0 of each core writes the counter to global memory at
        // core_id * 8.
        let ctid = a.reg();
        let is0 = a.reg();
        a.csr(ctid, CsrKind::CoreTid);
        a.seqi(is0, ctid, 0);
        a.if_nonzero(is0, |a| {
            let v = a.reg();
            let out = a.reg();
            a.lds(v, addr, 0, Width::B8);
            a.csr(out, CsrKind::CoreId);
            a.muli(out, out, 8);
            a.stg(v, out, 0, Width::B8);
            a.free(out);
            a.free(v);
        });
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        let tpc = g.config().threads_per_core() as u64;
        for c in 0..g.config().num_cores as u64 {
            assert_eq!(g.mem().read(c * 8, 8), tpc, "core {c}");
        }
    }

    #[test]
    fn mem_stats_accumulate_and_reset() {
        let mut g = gpu();
        let mut a = Asm::new("touch");
        let addr = a.reg();
        let v = a.reg();
        a.li(addr, 4096);
        a.ldg(v, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        let after_one = g.mem_stats().l1.accesses;
        assert!(after_one > 0);
        g.launch(&p, &[]).unwrap();
        assert!(g.mem_stats().l1.accesses > after_one, "cumulative");
        g.reset_memory_system();
        assert_eq!(g.mem_stats().l1.accesses, 0);
    }

    #[test]
    fn tracer_collects_events_and_samples() {
        let mut g = gpu();
        g.attach_hooks(tracing(4));
        let mut a = Asm::new("traced_kernel");
        let r = a.reg();
        let addr = a.reg();
        a.li(addr, 4096);
        a.ldg(r, addr, 0, Width::B8);
        a.addi(r, r, 1);
        a.stg(r, addr, 0, Width::B8);
        a.halt();
        let p = a.finish();
        let s = g.launch(&p, &[]).unwrap();
        let report = take_trace_report(&mut g);
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.kernels[0].name, "traced_kernel");
        assert_eq!(report.kernels[0].cycles, s.cycles);
        // Kernel launch/end markers plus issue, stall and cache events.
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.data, sparseweaver_trace::EventData::WarpIssue { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.data, sparseweaver_trace::EventData::CacheAccess { .. })));
        // The closing sample agrees with KernelStats.
        let last = report.samples.last().expect("kernel-end sample");
        assert_eq!(last.counters.instructions, s.instructions);
        assert_eq!(last.counters.l1_accesses, s.mem.l1.accesses);
        assert_eq!(last.counters.dram_accesses, s.mem.dram_accesses);
        assert_eq!(
            last.counters.stall_memory
                + last.counters.stall_shared
                + last.counters.stall_exec_dep
                + last.counters.stall_weaver,
            s.stalls.total()
        );
    }

    #[test]
    fn tracing_does_not_change_kernel_stats() {
        let program = {
            let mut a = Asm::new("identical");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.atom(AtomOp::Add, v, addr, tid);
            a.halt();
            a.finish()
        };
        let run = |traced: bool| {
            let mut g = gpu();
            if traced {
                g.attach_hooks(tracing(2));
            }
            g.launch(&program, &[]).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiling_does_not_change_kernel_stats_and_is_ff_invariant() {
        use sparseweaver_trace::Profiler;

        let program = {
            let mut a = Asm::new("profiled");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.atom(AtomOp::Add, v, addr, tid);
            a.halt();
            a.finish()
        };
        let run = |profiled: bool, fast_forward: bool| {
            let mut g = gpu();
            g.set_fast_forward(fast_forward);
            g.attach_hooks(Hooks {
                profiler: profiled.then(Profiler::default),
                ..Hooks::default()
            });
            let stats = g.launch(&program, &[]).unwrap();
            let profiler = g.take_hooks().profiler;
            (stats, profiler.map(|mut p| p.take_report()))
        };
        let (plain, none) = run(false, true);
        let (profiled_ff, prof_ff) = run(true, true);
        let (profiled_scan, prof_scan) = run(true, false);
        assert!(none.is_none());
        assert_eq!(plain, profiled_ff, "profiling perturbed the stats");
        assert_eq!(plain, profiled_scan);
        let (prof_ff, prof_scan) = (prof_ff.unwrap(), prof_scan.unwrap());
        // Hooks fire at issue/access time, which fast-forward replays
        // identically — the profiles must match structurally.
        assert_eq!(prof_ff, prof_scan, "profile differs under fast-forward");
        assert!(prof_ff.core_issues.iter().sum::<u64>() > 0);
        assert!(prof_ff.mem[0].count + prof_ff.mem[3].count > 0);
    }

    #[test]
    fn fast_forward_toggle_is_bit_identical() {
        // A kernel mixing memory, barrier, and atomic stalls: the
        // fast-forward cache must replay stall attribution and cycle
        // counts exactly as the per-cycle re-scan does.
        let program = {
            let mut a = Asm::new("ff_identical");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.atom(AtomOp::Add, v, addr, tid);
            a.halt();
            a.finish()
        };
        let run = |ff: bool| {
            let mut g = gpu();
            g.set_fast_forward(ff);
            let stats = g.launch(&program, &[]).unwrap();
            let words: Vec<u64> = (0..g.config().total_threads() as u64)
                .map(|t| g.mem().read(t * 8, 8))
                .collect();
            (stats, words)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fast_forward_traces_are_identical() {
        let program = {
            let mut a = Asm::new("ff_traced");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.halt();
            a.finish()
        };
        let run = |ff: bool| {
            let mut g = gpu();
            g.set_fast_forward(ff);
            g.attach_hooks(tracing(2));
            g.launch(&program, &[]).unwrap();
            let report = take_trace_report(&mut g);
            (
                format!("{:?}", report.events),
                format!("{:?}", report.samples),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn per_cycle_samples_see_every_stall_cycle() {
        // Stall cycles are charged when a blocked span closes; a sample
        // must close every open span first, or it under-reports them.
        let program = {
            let mut a = Asm::new("sampled_stalls");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.atom(AtomOp::Add, v, addr, tid);
            a.ldg(v, addr, 8, Width::B8);
            a.halt();
            a.finish()
        };
        let untraced = gpu().launch(&program, &[]).unwrap();
        for ff in [true, false] {
            let mut g = gpu();
            g.set_fast_forward(ff);
            g.attach_hooks(tracing(1));
            let stats = g.launch(&program, &[]).unwrap();
            assert_eq!(stats, untraced, "ff {ff}: tracing changed the stats");
            let report = take_trace_report(&mut g);
            assert_eq!(report.dropped, 0);
            let stalls = |c: &CounterSnapshot| {
                (
                    [
                        c.stall_memory,
                        c.stall_shared,
                        c.stall_exec_dep,
                        c.stall_weaver,
                        c.stall_barrier,
                    ],
                    c.phase_cycles,
                )
            };
            let [.., last, end] = &report.samples[..] else {
                panic!("ff {ff}: too few samples");
            };
            assert!(last.cycle == end.cycle && stalls(&last.counters).0[0] > 0);
            assert_eq!(stalls(&last.counters), stalls(&end.counters), "ff {ff}");
            // Every sample holds exactly the stall cycles the events
            // reported before it.
            for sample in &report.samples {
                let mut memory = 0;
                for e in report.events.iter().filter(|e| e.cycle < sample.cycle) {
                    if let EventData::WarpStall {
                        cause: StallCause::Memory,
                        cycles,
                        ..
                    } = e.data
                    {
                        memory += cycles;
                    }
                }
                assert_eq!(sample.counters.stall_memory, memory, "ff {ff}");
            }
        }
    }

    /// A kernel that touches `extra` registers beyond its working set
    /// before every thread stores its global TID.
    fn hungry_tid_kernel(extra: usize) -> sparseweaver_isa::Program {
        let mut a = Asm::new("hungry_tids");
        let regs: Vec<_> = (0..extra).map(|_| a.reg()).collect();
        for (i, &r) in regs.iter().enumerate() {
            a.li(r, i as i64);
        }
        let tid = a.reg();
        let addr = a.reg();
        a.csr(tid, CsrKind::GlobalTid);
        a.muli(addr, tid, 8);
        a.stg(tid, addr, 0, Width::B8);
        a.halt();
        a.finish()
    }

    #[test]
    fn register_file_caps_resident_warps() {
        let cfg = GpuConfig::regfile_limited();
        let mut g = Gpu::new(cfg);
        g.mem_mut().grow_to(1 << 20);
        // 14 extra + tid + addr = 16 touched registers: cap = 32/16 = 2
        // of the 4 configured warps.
        let p = hungry_tid_kernel(14);
        g.launch(&p, &[]).unwrap();
        let occ = g.occupancy();
        assert_eq!(occ.kernel_high_water, 16);
        assert_eq!(occ.cap, 2);
        assert_eq!(occ.resident, 2);
        assert_eq!(occ.configured, 4);
        // The kernel saw the reduced machine: exactly
        // cores x resident x lanes global TIDs were written.
        let threads = cfg.num_cores * occ.resident * cfg.threads_per_warp;
        for t in 0..threads as u64 {
            assert_eq!(g.mem().read(t * 8, 8), t, "thread {t}");
        }
        assert_eq!(g.mem().read(threads as u64 * 8, 8), 0, "no extra thread");
    }

    #[test]
    fn uncapped_kernel_keeps_all_warps_resident() {
        let mut g = gpu();
        let p = hungry_tid_kernel(0);
        g.launch(&p, &[]).unwrap();
        let occ = g.occupancy();
        assert_eq!(occ.resident, g.config().warps_per_core);
        assert_eq!(occ.configured, g.config().warps_per_core);
        assert!(occ.kernel_high_water > 0);
    }

    #[test]
    fn kernel_over_the_per_warp_allotment_is_rejected() {
        let mut cfg = GpuConfig::small_test();
        cfg.regfile_regs_per_warp = 8;
        cfg.regs_per_core = 32;
        let mut g = Gpu::new(cfg);
        g.mem_mut().grow_to(1 << 20);
        let p = hungry_tid_kernel(14); // 16 > 8 per-warp allotment
        match g.launch(&p, &[]) {
            Err(SimError::RegisterPressure {
                high_water, limit, ..
            }) => {
                assert_eq!(high_water, 16);
                assert_eq!(limit, 8);
            }
            other => panic!("expected register-pressure error, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_gauges_reach_the_trace_samples() {
        let mut g = Gpu::new(GpuConfig::regfile_limited());
        g.mem_mut().grow_to(1 << 20);
        g.attach_hooks(tracing(0));
        let p = hungry_tid_kernel(14);
        g.launch(&p, &[]).unwrap();
        let report = take_trace_report(&mut g);
        let last = report.samples.last().expect("kernel-end sample");
        assert_eq!(last.counters.kernel_high_water, 16);
        assert_eq!(last.counters.occupancy_cap, 2);
        assert_eq!(last.counters.warps_resident, 2);
        assert_eq!(last.counters.warps_configured, 4);
    }

    #[test]
    fn barriers_ignore_parked_warps() {
        // The barrier test kernel, on a capped machine: halted (parked)
        // warps must count as arrived or the barrier deadlocks.
        let mut g = Gpu::new(GpuConfig::regfile_limited());
        g.mem_mut().grow_to(1 << 20);
        let mut a = Asm::new("capped_barrier");
        let regs: Vec<_> = (0..12).map(|_| a.reg()).collect();
        for (i, &r) in regs.iter().enumerate() {
            a.li(r, i as i64);
        }
        let wid = a.reg();
        let addr = a.reg();
        let v = a.reg();
        a.csr(wid, CsrKind::WarpId);
        a.li(addr, 0);
        let skip = a.reg();
        a.seqi(skip, wid, 0);
        a.if_nonzero(skip, |a| {
            let c = a.reg();
            a.li(c, 42);
            a.sts(c, addr, 0, Width::B8);
            a.free(c);
        });
        a.bar();
        a.lds(v, addr, 0, Width::B8);
        let out = a.reg();
        a.csr(out, CsrKind::GlobalTid);
        a.muli(out, out, 8);
        a.stg(v, out, 0, Width::B8);
        a.halt();
        let p = a.finish();
        g.launch(&p, &[]).unwrap();
        let occ = g.occupancy();
        assert!(
            occ.resident < g.config().warps_per_core,
            "test needs a binding cap (hw {})",
            occ.kernel_high_water
        );
        let threads = g.config().num_cores * occ.resident * g.config().threads_per_warp;
        for t in 0..threads as u64 {
            assert_eq!(g.mem().read(t * 8, 8), 42, "thread {t}");
        }
    }

    #[test]
    fn save_restore_between_launches_is_bit_identical() {
        // An iterative kernel whose behavior depends on memory left by the
        // previous launch and on warm caches: run 4 launches straight,
        // versus 2 launches, checkpoint, restore into a fresh machine, and
        // run the remaining 2. Stats and memory must match exactly.
        let program = {
            let mut a = Asm::new("iterate");
            let tid = a.reg();
            let addr = a.reg();
            let v = a.reg();
            a.csr(tid, CsrKind::GlobalTid);
            a.muli(addr, tid, 8);
            a.ldg(v, addr, 0, Width::B8);
            a.add(v, v, tid);
            a.stg(v, addr, 0, Width::B8);
            a.bar();
            a.atom(AtomOp::Add, v, addr, tid);
            a.halt();
            a.finish()
        };
        let mut straight = gpu();
        let mut straight_stats = Vec::new();
        for _ in 0..4 {
            straight_stats.push(straight.launch(&program, &[]).unwrap());
        }

        let mut first = gpu();
        let mut resumed_stats = Vec::new();
        for _ in 0..2 {
            resumed_stats.push(first.launch(&program, &[]).unwrap());
        }
        let state = saved(&first);
        drop(first);
        let mut second = gpu();
        let mut d = Dec::new(&state);
        second.restore(&mut d).unwrap();
        d.finish().unwrap();
        // The snapshot round-trips exactly.
        assert_eq!(saved(&second), state);
        for _ in 0..2 {
            resumed_stats.push(second.launch(&program, &[]).unwrap());
        }

        assert_eq!(straight_stats, resumed_stats);
        assert_eq!(straight.mem_stats(), second.mem_stats());
        assert_eq!(straight.mem().traffic(), second.mem().traffic());
        for t in 0..straight.config().total_threads() as u64 {
            assert_eq!(straight.mem().read(t * 8, 8), second.mem().read(t * 8, 8));
        }
    }

    fn saved(g: &Gpu) -> Vec<u8> {
        let mut e = Enc::new();
        g.save(&mut e);
        e.into_bytes()
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        // The state opens with the core count: claim one core fewer.
        let mut state = saved(&gpu());
        let cores = u64::from_le_bytes(state[..8].try_into().unwrap());
        state[..8].copy_from_slice(&(cores - 1).to_le_bytes());
        let mut h = gpu();
        assert!(matches!(
            h.restore(&mut Dec::new(&state)),
            Err(CodecError::Restore { what }) if what.starts_with("core:")
        ));
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut cfg = GpuConfig::small_test();
        cfg.max_cycles = 50;
        let mut g = Gpu::new(cfg);
        let mut a = Asm::new("spin");
        let top = a.new_label();
        a.bind(top);
        a.nop();
        a.jmp(top);
        let p = a.finish();
        match g.launch(&p, &[]) {
            Err(SimError::CycleLimit { .. }) => {}
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }
}
