//! Integration tests of the SIMT machine model itself: nested divergence,
//! votes under partial masks, coalescing, atomic contention, barrier
//! interactions — written as raw IR kernels against the simulator.

use sparseweaver::isa::{Asm, AtomOp, CsrKind, VoteOp, Width};
use sparseweaver::sim::{Gpu, GpuConfig, SimError};

fn gpu() -> Gpu {
    let mut g = Gpu::new(GpuConfig::small_test());
    g.mem_mut().grow_to(1 << 20);
    g
}

#[test]
fn nested_divergence_three_deep() {
    // Classify each lane by its low three bits through nested ifs, then
    // store a distinct value per class.
    let mut a = Asm::new("nested");
    let lane = a.reg();
    let tid = a.reg();
    let out = a.reg();
    let b0 = a.reg();
    let b1 = a.reg();
    let b2 = a.reg();
    a.csr(lane, CsrKind::GlobalTid);
    a.csr(tid, CsrKind::GlobalTid);
    a.li(out, 0);
    a.alui(sparseweaver::isa::AluOp::And, b0, lane, 1);
    a.alui(sparseweaver::isa::AluOp::And, b1, lane, 2);
    a.alui(sparseweaver::isa::AluOp::And, b2, lane, 4);
    a.if_else(
        b0,
        |a| {
            a.if_else(
                b1,
                |a| {
                    a.if_else(b2, |a| a.li(out, 7), |a| a.li(out, 3));
                },
                |a| {
                    a.if_else(b2, |a| a.li(out, 5), |a| a.li(out, 1));
                },
            );
        },
        |a| {
            a.if_else(
                b1,
                |a| {
                    a.if_else(b2, |a| a.li(out, 6), |a| a.li(out, 2));
                },
                |a| {
                    a.if_else(b2, |a| a.li(out, 4), |a| a.li(out, 0));
                },
            );
        },
    );
    let addr = a.reg();
    a.muli(addr, tid, 8);
    a.stg(out, addr, 0, Width::B8);
    a.halt();
    let p = a.finish();

    let mut g = gpu();
    g.launch(&p, &[]).unwrap();
    for t in 0..g.config().total_threads() as u64 {
        assert_eq!(g.mem().read(t * 8, 8), t & 7, "thread {t}");
    }
}

#[test]
fn vote_all_under_partial_mask() {
    // Inside a split, vote::All must consider only the active lanes.
    let mut a = Asm::new("vote_mask");
    let lane = a.reg();
    let odd = a.reg();
    let one = a.reg();
    let allr = a.reg();
    let addr = a.reg();
    a.csr(lane, CsrKind::LaneId);
    a.alui(sparseweaver::isa::AluOp::And, odd, lane, 1);
    a.li(one, 1);
    a.li(allr, 99);
    a.if_nonzero(odd, |a| {
        // Among odd lanes, "odd" is all-true.
        a.vote(VoteOp::All, allr, odd);
    });
    a.csr(addr, CsrKind::GlobalTid);
    a.muli(addr, addr, 8);
    a.stg(allr, addr, 0, Width::B8);
    a.halt();
    let p = a.finish();

    let mut g = gpu();
    g.launch(&p, &[]).unwrap();
    let lanes = g.config().threads_per_warp as u64;
    for t in 0..g.config().total_threads() as u64 {
        let expect = 1; // vote result broadcast to every lane
        let _ = lanes;
        assert_eq!(g.mem().read(t * 8, 8), expect, "thread {t}");
    }
}

#[test]
fn coalesced_load_is_one_line_access() {
    // All lanes read within one 64B line: exactly one L1 access per warp.
    let mut a = Asm::new("coalesced");
    let addr = a.reg();
    let v = a.reg();
    a.li(addr, 4096);
    a.ldg(v, addr, 0, Width::B4);
    a.halt();
    let p = a.finish();
    let mut g = gpu();
    let s = g.launch(&p, &[]).unwrap();
    let warps = g.config().num_cores * g.config().warps_per_core;
    assert_eq!(s.mem.l1.accesses, warps as u64);
}

#[test]
fn scattered_load_touches_many_lines() {
    // Each lane reads its own line: lanes-per-warp accesses per warp.
    let mut a = Asm::new("scattered");
    let tid = a.reg();
    let addr = a.reg();
    let v = a.reg();
    a.csr(tid, CsrKind::GlobalTid);
    a.muli(addr, tid, 64);
    a.ldg(v, addr, 0, Width::B4);
    a.halt();
    let p = a.finish();
    let mut g = gpu();
    let s = g.launch(&p, &[]).unwrap();
    assert_eq!(s.mem.l1.accesses, g.config().total_threads() as u64);
}

#[test]
fn atomic_min_and_max_converge() {
    let mut a = Asm::new("minmax");
    let tid = a.reg();
    let lo = a.reg();
    let hi = a.reg();
    let old = a.reg();
    a.csr(tid, CsrKind::GlobalTid);
    a.addi(tid, tid, 100); // values 100..
    a.li(lo, 0x100);
    a.li(hi, 0x200);
    a.atom(AtomOp::MinU, old, lo, tid);
    a.atom(AtomOp::MaxU, old, hi, tid);
    a.halt();
    let p = a.finish();
    let mut g = gpu();
    g.mem_mut().write(0x100, u64::MAX, 8);
    g.launch(&p, &[]).unwrap();
    let n = g.config().total_threads() as u64;
    assert_eq!(g.mem().read(0x100, 8), 100);
    assert_eq!(g.mem().read(0x200, 8), 100 + n - 1);
}

#[test]
fn unbalanced_join_is_reported() {
    let mut a = Asm::new("bad_join");
    a.emit(sparseweaver::isa::Instr::Join);
    a.halt();
    let p = a.finish();
    match gpu().launch(&p, &[]) {
        Err(SimError::UnbalancedJoin { .. }) => {}
        other => panic!("expected unbalanced join, got {other:?}"),
    }
}

#[test]
fn barrier_after_partial_halt_does_not_deadlock() {
    // Odd warps halt immediately; even warps barrier twice. The barrier
    // must release among the surviving warps.
    let mut a = Asm::new("halt_bar");
    let wid = a.reg();
    let odd = a.reg();
    a.csr(wid, CsrKind::WarpId);
    a.alui(sparseweaver::isa::AluOp::And, odd, wid, 1);
    let survive = a.new_label();
    a.beq(odd, a.zero(), survive);
    a.halt();
    a.bind(survive);
    a.bar();
    a.bar();
    let addr = a.reg();
    let one = a.reg();
    a.li(addr, 0x300);
    a.li(one, 1);
    let old = a.reg();
    a.atom(AtomOp::Add, old, addr, one);
    a.halt();
    let p = a.finish();
    let mut g = gpu();
    g.launch(&p, &[]).unwrap();
    // Every surviving (even) warp of every core counted all its lanes.
    let cfg = g.config();
    let survivors = cfg.num_cores * cfg.warps_per_core / 2;
    assert_eq!(
        g.mem().read(0x300, 8),
        (survivors * cfg.threads_per_warp) as u64
    );
}

#[test]
fn stores_from_divergent_paths_do_not_leak() {
    // Lanes in the else-path must not observe or perform then-path stores.
    let mut a = Asm::new("store_mask");
    let lane = a.reg();
    let cond = a.reg();
    let tid = a.reg();
    let addr = a.reg();
    a.csr(lane, CsrKind::LaneId);
    a.csr(tid, CsrKind::GlobalTid);
    a.sltui(cond, lane, 2);
    a.muli(addr, tid, 8);
    let v = a.reg();
    a.if_else(
        cond,
        |a| {
            a.li(v, 111);
            a.stg(v, addr, 0, Width::B8);
        },
        |a| {
            a.li(v, 222);
            a.stg(v, addr, 0, Width::B8);
        },
    );
    a.halt();
    let p = a.finish();
    let mut g = gpu();
    g.launch(&p, &[]).unwrap();
    let lanes = g.config().threads_per_warp as u64;
    for t in 0..g.config().total_threads() as u64 {
        let expect = if t % lanes < 2 { 111 } else { 222 };
        assert_eq!(g.mem().read(t * 8, 8), expect, "thread {t}");
    }
}

/// Even warps start a long load and park at a barrier; odd warps do a little
/// ALU work past phase markers and then run off the end of the program
/// (no `halt`). The last odd warp's halt happens while the scheduler is
/// scanning for a ready warp, and it releases barrier warps the scan has
/// already passed.
fn barrier_released_by_run_off_halt() -> sparseweaver::isa::Program {
    use sparseweaver::isa::AluOp;
    let mut a = Asm::new("run_off_release");
    let wid = a.reg();
    let odd = a.reg();
    let tid = a.reg();
    let addr = a.reg();
    let v = a.reg();
    a.csr(wid, CsrKind::WarpId);
    a.alui(AluOp::And, odd, wid, 1);
    let odd_path = a.new_label();
    a.bne(odd, a.zero(), odd_path);
    // Even warps.
    a.csr(tid, CsrKind::GlobalTid);
    a.muli(addr, tid, 64);
    a.ldg(v, addr, 0x4000, Width::B8);
    a.bar();
    a.phase(1);
    a.phase(2);
    a.add(v, v, tid);
    a.stg(v, addr, 0, Width::B8);
    a.bar();
    a.phase(4);
    a.halt();
    // Odd warps: no halt, they fall off the end.
    a.bind(odd_path);
    a.phase(2);
    a.addi(v, wid, 1);
    a.phase(3);
    a.addi(v, v, 2);
    a.phase(4);
    a.addi(v, v, 3);
    a.addi(v, v, 4);
    a.addi(v, v, 5);
    a.finish()
}

/// `(stats, PhaseBegin events)` of one run of `p`, with fast-forward on
/// and off (which must agree).
fn stats_and_phases(
    p: &sparseweaver::isa::Program,
) -> (sparseweaver::sim::KernelStats, Vec<(u64, u32, u32, u8)>) {
    use sparseweaver::mem::Hooks;
    use sparseweaver::trace::{EventData, TraceConfig, Tracer};

    let run = |ff: bool| {
        let mut g = gpu();
        g.set_fast_forward(ff);
        g.attach_hooks(Hooks {
            tracer: Some(Tracer::new(TraceConfig::default())),
            ..Hooks::default()
        });
        let stats = g.launch(p, &[]).unwrap();
        let report = g.take_hooks().tracer.unwrap().take_report();
        let phases: Vec<(u64, u32, u32, u8)> = report
            .events
            .iter()
            .filter_map(|e| match e.data {
                EventData::PhaseBegin { warp, phase } => Some((e.cycle, e.core, warp, phase as u8)),
                _ => None,
            })
            .collect();
        (stats, phases)
    };
    let on = run(true);
    assert_eq!(run(false), on, "fast-forward on and off differ");
    on
}

#[test]
fn run_off_halt_releasing_passed_barrier_warps_is_deterministic() {
    let (stats, phases) = stats_and_phases(&barrier_released_by_run_off_halt());
    assert_eq!(
        format!("{stats:?}"),
        "KernelStats { cycles: 177, instructions: 76, thread_instructions: 304, \
         stalls: StallBreakdown { memory: 266, shared: 0, exec_dep: 2, l1_queue: 64, \
         barrier: 52, weaver: 0 }, phase_cycles: [42, 0, 282, 4, 16, 0], \
         mem: LevelStats { l1: CacheStats { accesses: 32, hits: 0, misses: 32, writebacks: 0 }, \
         l2: CacheStats { accesses: 32, hits: 0, misses: 32, writebacks: 0 }, l3: None, \
         dram_accesses: 32 }, weaver_counters: (0, 0, 0), warp_cycles: 802, launches: 1 }"
    );
    // (cycle, core, warp, phase) of every PhaseBegin, in emission order.
    assert_eq!(
        phases,
        [
            (13, 0, 1, 2),
            (13, 1, 1, 2),
            (15, 0, 3, 2),
            (15, 1, 3, 2),
            (17, 0, 1, 3),
            (17, 1, 1, 3),
            (19, 0, 3, 3),
            (19, 1, 3, 3),
            (21, 0, 1, 4),
            (21, 1, 1, 4),
            (23, 0, 3, 4),
            (23, 1, 3, 4),
            (31, 0, 0, 1),
            (31, 0, 0, 2),
            (31, 0, 2, 1),
            (31, 0, 2, 2),
            (31, 1, 0, 1),
            (31, 1, 0, 2),
            (31, 1, 2, 1),
            (31, 1, 2, 2),
            (165, 0, 0, 4),
            (166, 0, 2, 4),
            (175, 1, 0, 4),
            (176, 1, 2, 4),
        ]
    );
}

/// Warps 1–3 park at a barrier while warp 0 takes a short path and runs
/// off the end of the program. The scan that halts warp 0 starts at warp 0
/// (warp 3 issued last), so the barrier it releases lies *ahead* of the
/// scan, and warp 1 issues in that same scan.
fn barrier_released_ahead_of_the_scan() -> sparseweaver::isa::Program {
    let mut a = Asm::new("release_ahead");
    let wid = a.reg();
    let v = a.reg();
    a.csr(wid, CsrKind::WarpId);
    let warp0 = a.new_label();
    a.beq(wid, a.zero(), warp0);
    a.bar();
    a.phase(2);
    a.addi(v, wid, 1);
    a.phase(4);
    a.addi(v, v, 2);
    a.halt();
    // Warp 0: no halt, it falls off the end.
    a.bind(warp0);
    a.li(v, 1);
    a.finish()
}

#[test]
fn run_off_halt_releasing_barrier_warps_ahead_of_the_scan_issues_them_at_once() {
    let (stats, phases) = stats_and_phases(&barrier_released_ahead_of_the_scan());
    assert_eq!(
        format!("{stats:?}"),
        "KernelStats { cycles: 21, instructions: 42, thread_instructions: 168, \
         stalls: StallBreakdown { memory: 0, shared: 0, exec_dep: 0, l1_queue: 0, \
         barrier: 12, weaver: 0 }, phase_cycles: [24, 0, 6, 0, 12, 0], \
         mem: LevelStats { l1: CacheStats { accesses: 0, hits: 0, misses: 0, writebacks: 0 }, \
         l2: CacheStats { accesses: 0, hits: 0, misses: 0, writebacks: 0 }, l3: None, \
         dram_accesses: 0 }, weaver_counters: (0, 0, 0), warp_cycles: 138, launches: 1 }"
    );
    // Warp 0 halts at cycle 12; warp 1 resolves its phase marker and
    // issues in that same scan.
    assert_eq!(
        phases,
        [
            (12, 0, 1, 2),
            (12, 1, 1, 2),
            (13, 0, 2, 2),
            (13, 1, 2, 2),
            (14, 0, 3, 2),
            (14, 1, 3, 2),
            (15, 0, 1, 4),
            (15, 1, 1, 4),
            (16, 0, 2, 4),
            (16, 1, 2, 4),
            (17, 0, 3, 4),
            (17, 1, 3, 4),
        ]
    );
}
