//! Cross-validation of the coalescing advisor (SW-L521/SW-L522) against
//! the simulator's measured memory behaviour.
//!
//! The advisor is a *static* prediction: from the abstract lane-affinity
//! of an address register it estimates how many cache-line fills a warp's
//! access costs. This test checks the prediction against ground truth —
//! two kernels that differ only in lane stride run on the same machine
//! with a latency profiler attached, and the kernel the advisor calls
//! coalesced must be measurably cheaper (fewer DRAM line fills, lower
//! mean request latency) than the one it flags for replay.

use sparseweaver::isa::{Asm, CsrKind, Program, Width};
use sparseweaver::lint::{analyze, AnalyzeGeom};
use sparseweaver::mem::Hooks;
use sparseweaver::sim::{Gpu, GpuConfig};
use sparseweaver::trace::Profiler;

/// Loads per thread; each round starts past every line the previous one
/// touched so no round rides the last one's fills.
const ROUNDS: i64 = 4;

/// A streaming kernel: every lane reads and writes `tid * stride`, so a
/// `stride` equal to the access width packs a warp into contiguous bytes
/// and a stride of a whole line gives every lane its own line.
fn strided_kernel(name: &str, stride: i64, total_threads: i64) -> Program {
    let mut a = Asm::new(name);
    let tid = a.reg();
    let addr = a.reg();
    let v = a.reg();
    let acc = a.reg();
    a.csr(tid, CsrKind::GlobalTid);
    a.muli(addr, tid, stride);
    a.li(acc, 0);
    let span = i32::try_from(total_threads * stride).expect("span fits an offset");
    for i in 0..ROUNDS {
        a.ldg(v, addr, i as i32 * span, Width::B8);
        a.add(acc, acc, v);
    }
    a.stg(acc, addr, 0, Width::B8);
    a.halt();
    a.finish()
}

fn geom_of(cfg: &GpuConfig) -> AnalyzeGeom {
    AnalyzeGeom {
        num_cores: cfg.num_cores as u64,
        warps_per_core: cfg.warps_per_core as u64,
        threads_per_warp: cfg.threads_per_warp as u64,
        shared_mem_bytes: cfg.shared_mem_bytes as u64,
    }
}

/// Runs `program` with a profiler and returns (DRAM fills, mean request
/// latency over every hierarchy level).
fn measure(cfg: GpuConfig, program: &Program) -> (u64, f64) {
    let mut g = Gpu::new(cfg);
    g.attach_hooks(Hooks {
        profiler: Some(Profiler::default()),
        ..Hooks::default()
    });
    g.launch(program, &[]).expect("kernel runs clean");
    let report = g.take_hooks().profiler.expect("attached").take_report();
    let dram = report.mem[3].count;
    let (sum, count) = report
        .mem
        .iter()
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    assert!(count > 0, "profiler recorded no memory requests");
    (dram, sum as f64 / count as f64)
}

#[test]
fn advisor_prediction_matches_measured_fill_cost() {
    let cfg = GpuConfig::small_test();
    let geom = geom_of(&cfg);
    let threads = cfg.total_threads() as i64;
    let line = 64i64; // sparseweaver_mem::LINE_BYTES

    let coalesced = strided_kernel("coalesced_stream", 8, threads);
    let divergent = strided_kernel("divergent_stream", line, threads);

    // Static side: the advisor must call the dense kernel coalesced
    // (SW-L521, no replay advisory) and flag the line-strided one for
    // replay (SW-L522 naming its line-fill estimate).
    let coal_report = analyze(&coalesced, &geom);
    assert!(
        coal_report
            .diagnostics
            .iter()
            .any(|d| d.rule.id() == "SW-L521"),
        "coalesced kernel missing SW-L521:\n{}",
        coal_report.to_text()
    );
    assert!(
        !coal_report
            .diagnostics
            .iter()
            .any(|d| d.rule.id() == "SW-L522"),
        "coalesced kernel wrongly flagged for replay:\n{}",
        coal_report.to_text()
    );
    let div_report = analyze(&divergent, &geom);
    let replay = div_report
        .diagnostics
        .iter()
        .find(|d| d.rule.id() == "SW-L522")
        .unwrap_or_else(|| {
            panic!(
                "divergent kernel missing SW-L522:\n{}",
                div_report.to_text()
            )
        });
    assert!(
        replay.message.contains("line fill"),
        "replay advisory should estimate line fills: {}",
        replay.message
    );

    // Dynamic side: same machine, same request count per thread — the
    // kernel the advisor blessed must be measurably cheaper.
    let (coal_dram, coal_mean) = measure(cfg, &coalesced);
    let (div_dram, div_mean) = measure(cfg, &divergent);
    assert!(
        coal_dram < div_dram,
        "predicted-coalesced kernel should fill fewer DRAM lines: {coal_dram} vs {div_dram}"
    );
    assert!(
        coal_mean < div_mean,
        "predicted-coalesced kernel should have lower mean fill latency: \
         {coal_mean:.1} vs {div_mean:.1} cycles"
    );
}
