//! One SIMT core: warp scheduler, instruction execution, barriers,
//! shared memory, and the Weaver/EGHW functional-unit port.

use sparseweaver_isa::{
    BrCond, DecodedInstr, DecodedProgram, Instr, Program, Reg, Space, VoteOp, Width, NUM_REGS, ZERO,
};
use sparseweaver_mem::{Hierarchy, Hooks, MainMemory};
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::EventData;
use sparseweaver_weaver::eghw::{EghwLayout, EghwUnit};
use sparseweaver_weaver::{DenseTable, WeaverUnit, EMPTY_WORK_ID};

use crate::config::{GpuConfig, WeaverMode};
use crate::stats::{PendKind, Phase, StallBreakdown};
use crate::warp::{full_mask, lanes_of, SimtEntry, Warp, WarpState};
use crate::SimError;

/// The widest warp [`GpuConfig::validate`] admits: one bit per lane in a
/// `u64` mask. Sizes the core's reusable lane rows.
const MAX_LANES: usize = 64;

/// Why a core could not issue this cycle, and when it can retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// Earliest cycle at which some warp becomes ready (`u64::MAX` when
    /// progress depends on an event such as a barrier release).
    pub next_ready: u64,
    /// The producer the soonest-ready warp is waiting on.
    pub reason: PendKind,
    /// Whether the block is a barrier wait.
    pub barrier: bool,
    /// Phase of the blocking warp (for Fig. 17/18 attribution).
    pub phase: Phase,
}

/// Outcome of one issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// An instruction was issued.
    Issued,
    /// No warp was ready.
    Blocked(Blocked),
    /// All warps have halted.
    Finished,
}

/// Per-core counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Thread-instructions (issued x active lanes).
    pub thread_instructions: u64,
    /// Stall attribution.
    pub stalls: StallBreakdown,
    /// Core-cycles per phase (issue + stall cycles).
    pub phase_cycles: [u64; Phase::COUNT],
    /// Finish cycle of this core for the current launch.
    pub finish_cycle: u64,
}

sparseweaver_trace::snapshot_fields!(CoreStats {
    instructions,
    thread_instructions,
    stalls,
    phase_cycles,
    finish_cycle
});

/// One SIMT core.
#[derive(Debug)]
pub struct Core {
    id: usize,
    warps: Vec<Warp>,
    /// Per warp, the earliest cycle its resolved front instruction can
    /// issue (the latest scoreboard-ready cycle over its registers): `0`
    /// while the front is unresolved, `u64::MAX` while the warp is halted
    /// or at the barrier. Only the issuing warp's scoreboard changes, so
    /// the value holds until that warp issues, halts, or leaves the
    /// barrier. Written only by [`Core::set_front`]. Derived state, like
    /// the masks below: rebuilt on launch and restore.
    front_ready: Vec<u64>,
    /// The producer of the register that sets `front_ready`.
    front_kind: Vec<PendKind>,
    /// Running warps the next issue attempt probes: front unresolved
    /// (`front_ready == 0`) or due. Bit `w` is warp `w`.
    open: u64,
    /// Running warps whose front issues at a known later cycle (or never,
    /// on a dropped Weaver response): every running warp not in `open`.
    waiting: u64,
    /// The soonest `front_ready` in `waiting` (`u64::MAX` when none).
    next_wake: u64,
    /// Reusable lane rows, so no instruction zero-fills one: `row` takes
    /// results, loaded values and line keys, `addrs` memory addresses.
    /// Only lanes an instruction writes are ever read back.
    row: [u64; MAX_LANES],
    addrs: [u64; MAX_LANES],
    /// Warps currently parked at the barrier.
    at_barrier: usize,
    /// Scratchpad ("shared") memory, byte-addressed from 0.
    pub shared: MainMemory,
    /// The Weaver functional unit.
    pub weaver: WeaverUnit,
    /// The EGHW baseline unit.
    pub eghw: EghwUnit,
    eghw_dt: DenseTable,
    next_warp: usize,
    resident: usize,
    /// Warps participating in the current launch (the rest are parked by
    /// the register-file occupancy cap and stay halted throughout).
    active_warps: usize,
    /// Counters for the current launch.
    pub stats: CoreStats,
    lanes: usize,
    shared_latency: u64,
    alu_latency: u64,
    fpu_latency: u64,
    weaver_mode: WeaverMode,
    auto_mask: bool,
}

impl Core {
    /// Builds core `id` from the machine configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        let mut core = Core {
            id,
            warps: (0..cfg.warps_per_core)
                .map(|_| Warp::new(cfg.threads_per_warp))
                .collect(),
            front_ready: vec![0; cfg.warps_per_core],
            front_kind: vec![PendKind::None; cfg.warps_per_core],
            open: 0,
            waiting: 0,
            next_wake: u64::MAX,
            row: [0; MAX_LANES],
            addrs: [0; MAX_LANES],
            at_barrier: 0,
            shared: MainMemory::new(cfg.shared_mem_bytes),
            weaver: WeaverUnit::new(cfg.weaver, cfg.warps_per_core, cfg.threads_per_warp),
            eghw: EghwUnit::new(cfg.warps_per_core, cfg.threads_per_warp),
            eghw_dt: DenseTable::new(cfg.warps_per_core, cfg.threads_per_warp),
            next_warp: 0,
            resident: cfg.warps_per_core,
            active_warps: cfg.warps_per_core,
            stats: CoreStats::default(),
            lanes: cfg.threads_per_warp,
            shared_latency: cfg.shared_latency,
            alu_latency: cfg.alu_latency,
            fpu_latency: cfg.fpu_latency,
            weaver_mode: cfg.weaver_mode,
            auto_mask: cfg.weaver.auto_mask,
        };
        core.rebuild_schedule();
        core
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of non-halted warps.
    pub fn resident_warps(&self) -> usize {
        self.resident
    }

    /// Whether every warp has halted.
    pub fn finished(&self) -> bool {
        self.resident == 0
    }

    /// Number of warps currently parked at the barrier.
    pub fn warps_at_barrier(&self) -> usize {
        self.at_barrier
    }

    /// Installs the EGHW graph layout for the next launch.
    pub fn set_eghw_layout(&mut self, layout: EghwLayout) {
        self.eghw.set_layout(layout);
    }

    /// A structured snapshot of this core for a [`crate::HangReport`].
    pub fn hang_state(&self, cycle: u64) -> crate::hang::CoreHang {
        let warps = self
            .warps
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (next_ready, waiting_on) = match w.soonest_pending(cycle) {
                    Some((t, k)) => (
                        t,
                        match k {
                            PendKind::Memory => "memory",
                            PendKind::Shared => "shared",
                            PendKind::Weaver => "weaver",
                            PendKind::Exec => "exec",
                            PendKind::None => "none",
                        },
                    ),
                    None => (0, "none"),
                };
                crate::hang::WarpHang {
                    warp: i,
                    pc: w.pc,
                    state: match w.state {
                        WarpState::Running => "running",
                        WarpState::AtBarrier => "at_barrier",
                        WarpState::Halted => "halted",
                    }
                    .to_string(),
                    active_mask: w.active,
                    stack_depth: w.simt.len(),
                    waiting_on: waiting_on.to_string(),
                    next_ready,
                }
            })
            .collect();
        crate::hang::CoreHang {
            core: self.id,
            resident_warps: self.resident,
            barrier_arrivals: self.warps_at_barrier(),
            weaver_fsm_state: self.weaver.fsm_state_id(),
            warps,
        }
    }

    /// Warps taking part in the current launch. Below the physical warp
    /// count when the register-file occupancy cap parked the rest.
    pub fn active_warps(&self) -> usize {
        self.active_warps
    }

    /// Resets warps and counters for a new launch (units keep their
    /// configuration; tables are cleared).
    ///
    /// Only the first `resident` warps participate; the remainder are
    /// parked as halted for the whole launch — the register file cannot
    /// hold their contexts. Parked warps count as arrived at barriers
    /// (like any halted warp) and are excluded from the thread-geometry
    /// CSRs, so kernels see a machine with `resident` warps per core.
    pub fn reset_for_launch(&mut self, resident: usize) {
        let resident = resident.clamp(1, self.warps.len());
        for w in &mut self.warps {
            w.reset();
        }
        for w in &mut self.warps[resident..] {
            w.state = WarpState::Halted;
        }
        self.rebuild_schedule();
        self.shared.reset_traffic();
        self.next_warp = 0;
        self.resident = resident;
        self.active_warps = resident;
        self.stats = CoreStats::default();
        self.weaver.reset();
        self.eghw.reset();
        self.eghw_dt.clear();
    }

    /// Rebuilds the derived scheduler state from the warp states: every
    /// running warp's front is unresolved (open), and the barrier count is
    /// recounted.
    fn rebuild_schedule(&mut self) {
        (self.open, self.waiting, self.next_wake) = (0, 0, u64::MAX);
        for w in 0..self.warps.len() {
            let ready = if self.warps[w].state == WarpState::Running {
                0
            } else {
                u64::MAX
            };
            self.set_front(w, ready, PendKind::None);
        }
        self.at_barrier = self.count_at_barrier();
    }

    /// Caches warp `w`'s front-ready cycle and its producer, and files the
    /// warp in the masks: `0` opens it, a later cycle makes a running warp
    /// wait, and a parked warp (`u64::MAX`, halted or at the barrier)
    /// leaves both. The only writer of `front_ready`.
    fn set_front(&mut self, w: usize, ready: u64, kind: PendKind) {
        let bit = 1u64 << w;
        self.front_ready[w] = ready;
        self.front_kind[w] = kind;
        self.open &= !bit;
        self.waiting &= !bit;
        if ready == 0 {
            self.open |= bit;
        } else if self.warps[w].state == WarpState::Running {
            self.waiting |= bit;
            self.next_wake = self.next_wake.min(ready);
        }
    }

    /// Opens every waiting warp whose front is due at `cycle` and re-arms
    /// `next_wake` with the soonest one still waiting.
    fn wake(&mut self, cycle: u64) {
        let mut next = u64::MAX;
        for w in lanes_of(self.waiting) {
            let ready = self.front_ready[w];
            if ready <= cycle {
                self.waiting &= !(1 << w);
                self.open |= 1 << w;
            } else {
                next = next.min(ready);
            }
        }
        self.next_wake = next;
    }

    fn count_at_barrier(&self) -> usize {
        self.warps
            .iter()
            .filter(|w| w.state == WarpState::AtBarrier)
            .count()
    }

    /// Releases the barrier once every non-halted warp has arrived.
    fn maybe_release_barrier(&mut self) {
        if self.at_barrier == 0 || self.at_barrier != self.resident {
            return;
        }
        for w in 0..self.warps.len() {
            if self.warps[w].state == WarpState::AtBarrier {
                self.warps[w].state = WarpState::Running;
                self.set_front(w, 0, PendKind::None);
            }
        }
        self.at_barrier = 0;
    }

    /// Halts a running warp (only a running warp executes `halt` or runs
    /// off the end of the program).
    fn halt_warp(&mut self, warp: usize) {
        debug_assert_eq!(self.warps[warp].state, WarpState::Running);
        self.warps[warp].state = WarpState::Halted;
        self.set_front(warp, u64::MAX, PendKind::None);
        self.resident -= 1;
        self.maybe_release_barrier();
    }

    /// Consumes zero-cost `Phase` markers and returns the warp's next real
    /// instruction, halting the warp if it runs off the end.
    fn resolve_front<'p>(
        &mut self,
        warp: usize,
        decoded: &'p DecodedProgram,
        cycle: u64,
        hooks: &mut Hooks,
    ) -> Option<&'p DecodedInstr> {
        loop {
            if self.warps[warp].state != WarpState::Running {
                return None;
            }
            match decoded.get(self.warps[warp].pc) {
                None => {
                    self.halt_warp(warp);
                    return None;
                }
                Some(d) if !matches!(d.instr, Instr::Phase(_)) => return Some(d),
                Some(d) => {
                    let Instr::Phase(p) = d.instr else {
                        unreachable!()
                    };
                    let phase = match p {
                        0 => Phase::Init,
                        1 => Phase::Registration,
                        2 => Phase::EdgeSchedule,
                        3 => Phase::EdgeInfoAccess,
                        4 => Phase::GatherSum,
                        _ => Phase::Other,
                    };
                    if self.warps[warp].phase != phase {
                        hooks.trace(
                            cycle,
                            self.id as u32,
                            EventData::PhaseBegin {
                                warp: warp as u32,
                                phase,
                            },
                        );
                    }
                    self.warps[warp].phase = phase;
                    self.warps[warp].pc += 1;
                }
            }
        }
    }

    /// Attempts to issue one instruction at `cycle`, reporting the issue
    /// and what it executes to `hooks`, which it lends on to the
    /// hierarchy, device memory and the Weaver unit.
    ///
    /// # Errors
    ///
    /// Propagates kernel bugs surfaced by the machine model (divergent
    /// uniform branches, unbalanced joins).
    #[allow(clippy::too_many_arguments)]
    pub fn try_issue(
        &mut self,
        cycle: u64,
        program: &Program,
        decoded: &DecodedProgram,
        args: &[u64],
        hier: &mut Hierarchy,
        mem: &mut MainMemory,
        hooks: &mut Hooks,
        num_cores: usize,
    ) -> Result<IssueOutcome, SimError> {
        if self.finished() {
            return Ok(IssueOutcome::Finished);
        }
        if cycle >= self.next_wake {
            self.wake(cycle);
        }
        #[cfg(debug_assertions)]
        self.check_schedule(cycle, decoded);
        let n = self.warps.len();
        let start = self.next_warp % n;
        // Round-robin over the open warps from `start`, wrapping: first
        // those at or above `start`, then those below it. `unpassed` holds
        // the slots the walk has not reached yet, and `open` is re-read
        // after every probe, so a warp the barrier releases in mid-scan is
        // probed exactly when its slot is still ahead.
        let upper = u64::MAX << start;
        let mut unpassed = u64::MAX;
        loop {
            let ahead = self.open & unpassed;
            let pick = if ahead & upper != 0 {
                ahead & upper
            } else {
                ahead
            };
            if pick == 0 {
                break;
            }
            let w = pick.trailing_zeros() as usize;
            let through = u64::MAX >> (63 - w);
            unpassed = if w >= start {
                !through | !upper
            } else {
                !through & !upper
            };
            let Some(d) = self.resolve_front(w, decoded, cycle, hooks) else {
                continue;
            };
            // Scoreboard: all sources and the destination must be ready.
            let (when, kind) = front_wait(&self.warps[w], d);
            if when > cycle {
                self.set_front(w, when, kind);
                continue;
            }
            let warp = &self.warps[w];
            hooks.warp_issue(cycle, self.id, w, warp.pc, warp.active_count());
            let instr = self.fetch_with_faults(d.instr, w, program, hooks)?;
            // The issue moves the front; `exec` marks a halt or barrier.
            self.set_front(w, 0, PendKind::None);
            self.exec(w, instr, cycle, args, hier, mem, hooks, num_cores, program)?;
            self.next_warp = if w + 1 == n { 0 } else { w + 1 };
            self.stats.instructions += 1;
            self.stats.phase_cycles[self.warps[w].phase as usize] += 1;
            return Ok(IssueOutcome::Issued);
        }
        if self.finished() {
            return Ok(IssueOutcome::Finished);
        }
        // Blocked: the soonest-ready running warp (lowest index on a tie).
        // Every waiting warp's cycle is cached. A warp still open is one a
        // halt released from the barrier after the walk had passed it; its
        // front is read raw, unresolved.
        let mut best: Option<(u64, PendKind, Phase)> = None;
        for i in lanes_of(self.open | self.waiting) {
            let w = &self.warps[i];
            let (when, kind) = if self.front_ready[i] != 0 {
                (self.front_ready[i], self.front_kind[i])
            } else {
                let Some(d) = decoded.get(w.pc) else {
                    continue;
                };
                front_wait(w, d)
            };
            if best.is_none_or(|(t, _, _)| when < t) {
                best = Some((when, kind, w.phase));
            }
        }
        let blocked = match best {
            Some((when, kind, phase)) => Blocked {
                next_ready: when.max(cycle + 1),
                reason: kind,
                barrier: false,
                phase,
            },
            None => {
                // Only barrier-parked warps remain runnable-later.
                let phase = self
                    .warps
                    .iter()
                    .find(|w| w.state == WarpState::AtBarrier)
                    .map(|w| w.phase)
                    .unwrap_or(Phase::Other);
                Blocked {
                    next_ready: u64::MAX,
                    reason: PendKind::None,
                    barrier: true,
                    phase,
                }
            }
        };
        Ok(IssueOutcome::Blocked(blocked))
    }

    /// Debug cross-check of the ready masks at `cycle`, after the wake
    /// step: `open`, `waiting` and `next_wake` equal a recomputation from
    /// `front_ready` and the warp states; every waiting warp's front is
    /// resolved and its cached cycle matches the scoreboard; a parked warp
    /// is cached as never ready; and the barrier count matches the states.
    #[cfg(debug_assertions)]
    fn check_schedule(&self, cycle: u64, decoded: &DecodedProgram) {
        let (mut open, mut waiting, mut next_wake) = (0u64, 0u64, u64::MAX);
        for (w, warp) in self.warps.iter().enumerate() {
            let ready = self.front_ready[w];
            if warp.state != WarpState::Running {
                assert_eq!(ready, u64::MAX, "parked warp {w}");
                continue;
            }
            if ready <= cycle {
                open |= 1 << w;
                continue;
            }
            waiting |= 1 << w;
            next_wake = next_wake.min(ready);
            let d = decoded.get(warp.pc).expect("waiting warp past the end");
            assert!(
                !matches!(d.instr, Instr::Phase(_)),
                "waiting warp {w} has an unresolved phase marker"
            );
            assert_eq!(
                (ready, self.front_kind[w]),
                front_wait(warp, d),
                "stale ready cycle for warp {w}"
            );
        }
        assert_eq!(
            (self.open, self.waiting, self.next_wake),
            (open, waiting, next_wake),
            "ready masks (open, waiting, next_wake) at cycle {cycle}"
        );
        assert_eq!(self.at_barrier, self.count_at_barrier());
    }

    /// Models a transient bit flip between I-cache and decode: when the
    /// injector flips a bit, the fetched instruction is re-encoded, that
    /// bit of its 32-bit word flips, and the corrupt word is decoded
    /// again. A word that no longer decodes is an
    /// [`SimError::IllegalInstruction`] (detected crash); one that still
    /// decodes executes as the mutated instruction.
    fn fetch_with_faults(
        &mut self,
        instr: Instr,
        w: usize,
        program: &Program,
        hooks: &mut Hooks,
    ) -> Result<Instr, SimError> {
        let Some(f) = hooks.fault.as_mut().filter(|f| f.spec().fetch_rate > 0.0) else {
            return Ok(instr);
        };
        let Some(bit) = f.fetch_flip() else {
            return Ok(instr);
        };
        let (word, payload) = sparseweaver_isa::encode::encode_instr(&instr);
        let corrupt = word ^ (1 << bit);
        sparseweaver_isa::encode::decode_instr(corrupt, payload).map_err(|_| {
            SimError::IllegalInstruction {
                kernel: program.name().to_string(),
                pc: self.warps[w].pc,
                word: corrupt,
            }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &mut self,
        w: usize,
        instr: Instr,
        cycle: u64,
        args: &[u64],
        hier: &mut Hierarchy,
        mem: &mut MainMemory,
        hooks: &mut Hooks,
        num_cores: usize,
        program: &Program,
    ) -> Result<(), SimError> {
        use sparseweaver_isa::CsrKind;

        let lanes = self.lanes;
        let core_id = self.id;
        self.stats.thread_instructions += self.warps[w].active_count() as u64;
        // Transient register-file upset: one bit of one register word of
        // the executing warp may flip, visible to all subsequent reads.
        if let Some(f) = &mut hooks.fault {
            if let Some((lane, reg, bit)) = f.reg_event(lanes as u64, NUM_REGS as u64) {
                self.warps[w].flip_bit(lane, reg, bit);
            }
        }
        let warp = &mut self.warps[w];
        warp.pc += 1;

        match instr {
            Instr::Nop | Instr::Phase(_) => {}
            Instr::Halt => {
                self.halt_warp(w);
            }
            Instr::Bar => {
                hooks.barrier(core_id, w as u32, cycle);
                self.warps[w].state = WarpState::AtBarrier;
                self.set_front(w, u64::MAX, PendKind::None);
                self.at_barrier += 1;
                self.maybe_release_barrier();
            }
            Instr::LdImm { rd, imm } => {
                warp.write_lanes(rd, warp.active, |_| imm as u64);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                op.apply_lanes(warp.row(rs1), warp.row(rs2), &mut self.row[..lanes]);
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::AluI { op, rd, rs1, imm } => {
                op.apply_lanes_scalar(warp.row(rs1), imm as u64, &mut self.row[..lanes]);
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::Fpu { op, rd, rs1, rs2 } => {
                op.apply_lanes(warp.row(rs1), warp.row(rs2), &mut self.row[..lanes]);
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.fpu_latency, PendKind::Exec);
            }
            Instr::FCmp { op, rd, rs1, rs2 } => {
                op.apply_lanes(warp.row(rs1), warp.row(rs2), &mut self.row[..lanes]);
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.fpu_latency, PendKind::Exec);
            }
            Instr::CvtIF { rd, rs1 } => {
                for (o, &v) in self.row.iter_mut().zip(warp.row(rs1)) {
                    *o = ((v as i64) as f64).to_bits();
                }
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.fpu_latency, PendKind::Exec);
            }
            Instr::CvtFI { rd, rs1 } => {
                for (o, &v) in self.row.iter_mut().zip(warp.row(rs1)) {
                    *o = f64::from_bits(v) as i64 as u64;
                }
                warp.write_row(rd, &self.row, warp.active);
                warp.set_pending(rd, cycle + self.fpu_latency, PendKind::Exec);
            }
            Instr::Csr { rd, kind } => {
                // Geometry reflects *resident* warps: a parked warp must
                // not widen the kernel's iteration space, or its share of
                // the work would silently go undone.
                let wpc = self.active_warps;
                // Lane `l` reads `base + l * step`.
                let (base, step) = match kind {
                    CsrKind::LaneId => (0, 1),
                    CsrKind::WarpId => (w, 0),
                    CsrKind::CoreId => (core_id, 0),
                    CsrKind::GlobalTid => (core_id * wpc * lanes + w * lanes, 1),
                    CsrKind::CoreTid => (w * lanes, 1),
                    CsrKind::NumCores => (num_cores, 0),
                    CsrKind::WarpsPerCore => (wpc, 0),
                    CsrKind::ThreadsPerWarp => (lanes, 0),
                    CsrKind::ThreadsPerCore => (wpc * lanes, 0),
                    CsrKind::NumThreads => (num_cores * wpc * lanes, 0),
                };
                warp.write_lanes(rd, full_mask(lanes), |l| (base + l * step) as u64);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::LdArg { rd, idx } => {
                let v = args.get(idx as usize).copied().unwrap_or(0);
                warp.write_lanes(rd, full_mask(lanes), |_| v);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::Ld {
                rd,
                addr,
                offset,
                width,
                space,
            } => {
                self.exec_load(
                    w, rd, addr, offset, width, space, cycle, hier, mem, hooks, program,
                )?;
            }
            Instr::St {
                src,
                addr,
                offset,
                width,
                space,
            } => {
                self.exec_store(
                    w, src, addr, offset, width, space, cycle, hier, mem, hooks, program,
                )?;
            }
            Instr::Atom {
                op,
                rd,
                addr,
                src,
                space,
            } => {
                let mask = warp.active;
                let (addrs, operands) = (warp.row(addr), warp.row(src));
                let olds = &mut self.row;
                let mut max_done = cycle;
                let kind = match space {
                    Space::Global => {
                        for l in lanes_of(mask) {
                            let a = addrs[l];
                            let r = hier.atomic(core_id, a, cycle, hooks);
                            max_done = max_done.max(cycle + r.latency);
                            olds[l] = mem
                                .try_read(a, 8, hooks.fault.as_mut())
                                .map_err(|e| mem_fault(program, &e))?;
                            mem.try_write(a, op.combine(olds[l], operands[l]), 8)
                                .map_err(|e| mem_fault(program, &e))?;
                        }
                        PendKind::Memory
                    }
                    Space::Shared => {
                        // Scratchpad atomics: serialized lane by lane at
                        // shared-memory latency (bank conflicts on the
                        // same counter are the realistic cost).
                        for (i, l) in lanes_of(mask).enumerate() {
                            let a = addrs[l];
                            olds[l] = self
                                .shared
                                .try_read(a, 8, None)
                                .map_err(|e| mem_fault(program, &e))?;
                            self.shared
                                .try_write(a, op.combine(olds[l], operands[l]), 8)
                                .map_err(|e| mem_fault(program, &e))?;
                            max_done = max_done.max(cycle + self.shared_latency + i as u64);
                        }
                        PendKind::Shared
                    }
                };
                let warp = &mut self.warps[w];
                warp.write_row(rd, &self.row, mask);
                warp.set_pending(rd, max_done, kind);
            }
            Instr::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval_lanes(warp.row(rs1), warp.row(rs2)) & warp.active;
                if taken != 0 && taken != warp.active {
                    return Err(SimError::DivergentBranch {
                        kernel: program.name().to_string(),
                        pc: warp.pc - 1,
                    });
                }
                if taken != 0 {
                    warp.pc = target;
                }
            }
            Instr::Jmp { target } => {
                warp.pc = target;
            }
            Instr::Split {
                rs1,
                else_target,
                end_target,
            } => {
                let split_pc = warp.pc - 1;
                let m = warp.active;
                let t = nonzero_lanes(warp, rs1) & m;
                let f = m & !t;
                let mut entry = SimtEntry {
                    saved_mask: m,
                    else_mask: f,
                    else_pc: else_target,
                    end_pc: end_target,
                    in_else: false,
                };
                if t != 0 {
                    warp.active = t;
                } else {
                    entry.in_else = true;
                    warp.active = f;
                    warp.pc = else_target;
                }
                warp.simt.push(entry);
                // A split only diverges when both sides have lanes.
                if t != 0 && f != 0 {
                    hooks.trace(
                        cycle,
                        core_id as u32,
                        EventData::Divergence {
                            warp: w as u32,
                            pc: split_pc,
                            taken: t.count_ones(),
                            not_taken: f.count_ones(),
                        },
                    );
                }
            }
            Instr::Join => {
                let Some(top) = warp.simt.last_mut() else {
                    return Err(SimError::UnbalancedJoin {
                        kernel: program.name().to_string(),
                        pc: warp.pc - 1,
                    });
                };
                if !top.in_else && top.else_mask != 0 {
                    top.in_else = true;
                    warp.active = top.else_mask;
                    warp.pc = top.else_pc;
                } else {
                    warp.active = top.saved_mask;
                    warp.pc = top.end_pc;
                    warp.simt.pop();
                }
            }
            Instr::Vote { op, rd, rs1 } => {
                let ballot = nonzero_lanes(warp, rs1) & warp.active;
                let v = match op {
                    VoteOp::All => (ballot == warp.active) as u64,
                    VoteOp::Any => (ballot != 0) as u64,
                    VoteOp::Ballot => ballot,
                };
                warp.write_lanes(rd, full_mask(lanes), |_| v);
                warp.set_pending(rd, cycle + self.alu_latency, PendKind::Exec);
            }
            Instr::Tmc { rs1 } => {
                let m = warp.read_uniform(rs1) & full_mask(lanes);
                if m == 0 {
                    return Err(SimError::Fault {
                        kernel: program.name().to_string(),
                        what: format!("tmc at pc {} would deactivate every lane", warp.pc - 1),
                    });
                }
                warp.active = m;
            }
            Instr::WeaverReg { vid, loc, deg } => {
                let mask = warp.active;
                let vids = warp.row(vid);
                match self.weaver_mode {
                    WeaverMode::Weaver => {
                        let (locs, degs) = (warp.row(loc), warp.row(deg));
                        let records = lanes_of(mask)
                            .map(|l| (l, vids[l] as u32, locs[l] as u32, degs[l] as u32));
                        self.weaver
                            .reg(w, records, cycle, core_id as u32, hooks)
                            .map_err(|e| SimError::Fault {
                                kernel: program.name().to_string(),
                                what: e.to_string(),
                            })?;
                    }
                    WeaverMode::Eghw => {
                        let records = lanes_of(mask).map(|l| (l, vids[l] as u32));
                        self.eghw.reg(w, records, cycle);
                    }
                }
            }
            Instr::WeaverDecId { rd } => {
                // Both units answer per-lane vertex IDs (`-1` = no work).
                let (vids, ready_at, exhausted, dropped) = match self.weaver_mode {
                    WeaverMode::Weaver => {
                        let r = self.weaver.dec_id(w, cycle, core_id as u32, hooks);
                        (r.batch.vids, r.ready_at, r.batch.exhausted, r.dropped)
                    }
                    WeaverMode::Eghw => {
                        let batch = self.eghw.dec(cycle, |a, wd, _unit_now| {
                            // The unit has its own memory port (SCU/GraphPEG
                            // style): full lookup latency, no GPU port queue.
                            let lat = hier.access_unqueued(core_id, a, false, hooks).latency;
                            // The unit's port cannot raise a bus error; an
                            // out-of-bounds lookup reads as zero.
                            (mem.try_read(a, wd, hooks.fault.as_mut()).unwrap_or(0), lat)
                        });
                        let staging = eghw_staging_base(self.shared.len(), self.warps.len(), lanes);
                        for l in 0..lanes {
                            let slot = staging + ((w * lanes + l) as u64) * 8;
                            // Staged through the fallible path: a scratchpad
                            // too small for the staging area is a typed fault
                            // naming the kernel, not a process abort.
                            self.shared
                                .try_write(slot, batch.others[l].max(0) as u64, 4)
                                .map_err(|e| mem_fault(program, &e))?;
                            self.shared
                                .try_write(slot + 4, batch.weights[l].max(0) as u64, 4)
                                .map_err(|e| mem_fault(program, &e))?;
                        }
                        self.eghw_dt.store_row(w, &batch.eids);
                        (batch.vids, batch.ready_at, batch.exhausted, false)
                    }
                };
                // A dropped response never arrives (`ready_at` is
                // `u64::MAX`): it has no latency to record.
                if !dropped {
                    hooks.weaver_dec(core_id, w, cycle, ready_at);
                }
                let warp = &mut self.warps[w];
                warp.write_lanes(rd, full_mask(lanes), |l| vids[l] as u64);
                warp.set_pending(rd, ready_at, PendKind::Weaver);
                if self.auto_mask && !exhausted {
                    let filled = vids
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != EMPTY_WORK_ID);
                    warp.active = filled.fold(0, |m, (l, _)| m | 1 << l) & full_mask(lanes);
                }
            }
            Instr::WeaverDecLoc { rd } => match self.weaver_mode {
                WeaverMode::Weaver => {
                    let (eids, ready) = self.weaver.dec_loc(w, cycle, core_id as u32, hooks);
                    let warp = &mut self.warps[w];
                    warp.write_lanes(rd, full_mask(lanes), |l| eids[l] as u64);
                    warp.set_pending(rd, ready, PendKind::Weaver);
                }
                WeaverMode::Eghw => {
                    let eids = self.eghw_dt.load_row(w);
                    let warp = &mut self.warps[w];
                    warp.write_lanes(rd, full_mask(lanes), |l| eids[l] as u64);
                    warp.set_pending(rd, cycle + self.shared_latency + 1, PendKind::Shared);
                }
            },
            Instr::WeaverSkip { vid } => {
                if self.weaver_mode == WeaverMode::Weaver {
                    let row = warp.row(vid);
                    self.weaver
                        .skip(lanes_of(warp.active).map(|l| row[l] as u32), cycle);
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        w: usize,
        rd: sparseweaver_isa::Reg,
        addr: sparseweaver_isa::Reg,
        offset: i32,
        width: Width,
        space: Space,
        cycle: u64,
        hier: &mut Hierarchy,
        mem: &mut MainMemory,
        hooks: &mut Hooks,
        program: &Program,
    ) -> Result<(), SimError> {
        let mask = self.warps[w].active;
        lane_addrs(&mut self.addrs, &self.warps[w], addr, offset);
        let (ready_at, kind) = match space {
            Space::Shared => {
                for l in lanes_of(mask) {
                    self.row[l] = self
                        .shared
                        .try_read(self.addrs[l], width.bytes(), None)
                        .map_err(|e| mem_fault(program, &e))?;
                }
                (cycle + self.shared_latency, PendKind::Shared)
            }
            Space::Global => {
                let max_lat = self.access_lines(mask, false, cycle, hier, hooks);
                for l in lanes_of(mask) {
                    self.row[l] = mem
                        .try_read(self.addrs[l], width.bytes(), hooks.fault.as_mut())
                        .map_err(|e| mem_fault(program, &e))?;
                }
                (cycle + max_lat, PendKind::Memory)
            }
        };
        let warp = &mut self.warps[w];
        warp.write_row(rd, &self.row, mask);
        warp.set_pending(rd, ready_at, kind);
        Ok(())
    }

    /// Coalesces the addresses in `addrs` of the lanes in `mask` into
    /// unique lines and sends one hierarchy access per line, in address
    /// order for determinism. Returns the slowest access's latency. The
    /// lines are sorted in `row`, which this overwrites.
    fn access_lines(
        &mut self,
        mask: u64,
        write: bool,
        cycle: u64,
        hier: &mut Hierarchy,
        hooks: &mut Hooks,
    ) -> u64 {
        let mut n = 0;
        for l in lanes_of(mask) {
            self.row[n] = sparseweaver_mem::line_of(self.addrs[l]);
            n += 1;
        }
        let lines = &mut self.row[..n];
        lines.sort_unstable();
        let mut max_lat = 0u64;
        let mut prev = None;
        for &line in lines.iter() {
            if prev == Some(line) {
                continue;
            }
            prev = Some(line);
            let r = hier.access(self.id, line, write, cycle, hooks);
            max_lat = max_lat.max(r.latency);
            self.stats.stalls.l1_queue += r.queue_delay;
        }
        max_lat
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        w: usize,
        src: sparseweaver_isa::Reg,
        addr: sparseweaver_isa::Reg,
        offset: i32,
        width: Width,
        space: Space,
        cycle: u64,
        hier: &mut Hierarchy,
        mem: &mut MainMemory,
        hooks: &mut Hooks,
        program: &Program,
    ) -> Result<(), SimError> {
        let mask = self.warps[w].active;
        lane_addrs(&mut self.addrs, &self.warps[w], addr, offset);
        match space {
            Space::Shared => {
                let vals = self.warps[w].row(src);
                for l in lanes_of(mask) {
                    self.shared
                        .try_write(self.addrs[l], vals[l], width.bytes())
                        .map_err(|e| mem_fault(program, &e))?;
                }
            }
            Space::Global => {
                self.access_lines(mask, true, cycle, hier, hooks);
                let vals = self.warps[w].row(src);
                for l in lanes_of(mask) {
                    mem.try_write(self.addrs[l], vals[l], width.bytes())
                        .map_err(|e| mem_fault(program, &e))?;
                }
            }
        }
        // Stores are fire-and-forget: the warp continues immediately.
        Ok(())
    }
}

/// When `d` can issue on `warp`: the latest ready cycle over its source
/// and destination registers, and that register's producer (`(0, Exec)`
/// when nothing is pending).
fn front_wait(warp: &Warp, d: &DecodedInstr) -> (u64, PendKind) {
    let mut when = 0u64;
    let mut kind = PendKind::Exec;
    for r in d.regs() {
        let (t, k) = warp.reg_pending(r);
        if t > when {
            when = t;
            kind = k;
        }
    }
    (when, kind)
}

/// Bit `l` set for every lane `l` whose `reg` is non-zero.
fn nonzero_lanes(warp: &Warp, reg: Reg) -> u64 {
    BrCond::Ne.eval_lanes(warp.row(reg), warp.row(ZERO))
}

/// Writes the per-lane addresses `reg + offset` of a memory instruction
/// into `addrs`.
fn lane_addrs(addrs: &mut [u64; MAX_LANES], warp: &Warp, reg: Reg, offset: i32) {
    for (a, &base) in addrs.iter_mut().zip(warp.row(reg)) {
        *a = base.wrapping_add(offset as i64 as u64);
    }
}

/// Maps a typed device-memory fault to a [`SimError::Fault`].
fn mem_fault(program: &Program, e: &sparseweaver_mem::MemFault) -> SimError {
    SimError::Fault {
        kernel: program.name().to_string(),
        what: e.to_string(),
    }
}

/// Where the EGHW staging buffer lives in shared memory: the top
/// `warps x lanes x 8` bytes.
pub fn eghw_staging_base(shared_bytes: usize, warps: usize, lanes: usize) -> u64 {
    (shared_bytes - warps * lanes * 8) as u64
}

/// Every warp context, the scratchpad, the Weaver and EGHW units, the
/// EGHW DT mirror, the scheduler cursors and the per-launch counters. The
/// restoring core must be built from the same configuration.
impl Snapshot for Core {
    fn save(&self, e: &mut Enc) {
        e.seq(&self.warps);
        self.shared.save(e);
        self.weaver.save(e);
        self.eghw.save(e);
        self.eghw_dt.save(e);
        self.next_warp.save(e);
        self.resident.save(e);
        self.active_warps.save(e);
        self.stats.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.restore_seq("warp", &mut self.warps)?;
        self.shared.restore(d)?;
        self.weaver.restore(d).map_err(|e| e.within("weaver"))?;
        self.eghw.restore(d).map_err(|e| e.within("eghw"))?;
        self.eghw_dt.restore(d).map_err(|e| e.within("eghw dt"))?;
        self.next_warp.restore(d)?;
        self.resident.restore(d)?;
        self.active_warps.restore(d)?;
        self.stats.restore(d)?;
        self.rebuild_schedule();
        Ok(())
    }
}
