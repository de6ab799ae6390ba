//! The memory-trace capture/replay determinism contract, end to end:
//!
//! - For every algorithm under both hardware schedules, a capture taken
//!   with `Session::mem_trace_out` replays bit-identically: the replayed
//!   [`LevelStats`] (including DRAM counters) equal the live run's, and
//!   the live footer equals the report's accumulated memory stats.
//! - Idle-cycle fast-forward is invisible to the capture: with it on or
//!   off the trace files are byte-identical.
//! - Cache sweeps are jobs-invariant: `--jobs 1` and `--jobs 8` render
//!   byte-identical `replay.json` artifacts.
//!
//! See `docs/performance.md` for the swmtrace-v1 format and the
//! invariants behind these claims.

use sparseweaver::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use sparseweaver::core::replay::{render, sweep, trace_fingerprint, SweepSpec};
use sparseweaver::core::{Schedule, Session};
use sparseweaver::graph::generators;
use sparseweaver::mem::mtrace::parse;
use sparseweaver::mem::replay::verify;
use sparseweaver::sim::GpuConfig;

fn algorithms() -> Vec<Box<dyn Algorithm>> {
    vec![
        Box::new(Bfs::new(0)),
        Box::new(Sssp::new(0)),
        Box::new(PageRank::new(2)),
        Box::new(ConnectedComponents::new()),
        Box::new(Spmv::new()),
    ]
}

/// Captures one run to a temp file and returns `(trace bytes, report)`.
fn capture(
    g: &sparseweaver::graph::Csr,
    cfg: GpuConfig,
    algo: &dyn Algorithm,
    schedule: Schedule,
    fast_forward: bool,
    tag: &str,
) -> (Vec<u8>, sparseweaver::core::RunReport) {
    let path = std::env::temp_dir().join(format!("sw_replay_{tag}.swmtrace"));
    let mut s = Session::new(cfg);
    s.fast_forward = fast_forward;
    s.mem_trace_out = Some(path.clone());
    let report = s.run(g, algo, schedule).expect("run");
    let mt = report.mem_trace.as_ref().expect("capture summary");
    assert_eq!(mt.sink_error, None, "capture must be complete");
    let bytes = std::fs::read(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(mt.bytes, bytes.len() as u64, "summary byte count");
    (bytes, report)
}

#[test]
fn capture_replays_bit_identically_for_every_algorithm_and_schedule() {
    let g = generators::with_random_weights(&generators::powerlaw(120, 720, 1.9, 5), 32, 1);
    let cfg = GpuConfig::small_test();
    for schedule in [Schedule::SparseWeaver, Schedule::Swm] {
        for algo in algorithms() {
            let label = format!("{} under {:?}", algo.name(), schedule);
            let tag = format!("{}_{:?}", algo.name(), schedule);
            let (bytes, report) = capture(&g, cfg, algo.as_ref(), schedule, true, &tag);
            let trace = parse(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
            let outcome = verify(&trace).expect("capture config is valid");
            assert!(
                outcome.matches(),
                "{label}: replay diverged\n  live:     {:?}\n  replayed: {:?}",
                outcome.live,
                outcome.replayed
            );
            // The footer is the live hierarchy's cumulative stats, which
            // must equal the report's accumulated per-launch deltas.
            assert_eq!(
                outcome.live, report.stats.mem,
                "{label}: footer stats differ from the report's"
            );
            let (kernels, accesses, _, _, _) = trace.counts();
            assert!(kernels > 0, "{label}: no kernel launches recorded");
            assert!(accesses > 0, "{label}: no accesses recorded");
        }
    }
}

#[test]
fn fast_forward_is_invisible_to_the_capture() {
    let g = generators::with_random_weights(&generators::powerlaw(100, 600, 1.9, 3), 32, 2);
    let cfg = GpuConfig::small_test();
    for algo in [
        Box::new(Bfs::new(0)) as Box<dyn Algorithm>,
        Box::new(Spmv::new()),
    ] {
        let (on, _) = capture(
            &g,
            cfg,
            algo.as_ref(),
            Schedule::SparseWeaver,
            true,
            "ff_on",
        );
        let (off, _) = capture(
            &g,
            cfg,
            algo.as_ref(),
            Schedule::SparseWeaver,
            false,
            "ff_off",
        );
        assert_eq!(
            on,
            off,
            "{}: fast-forward changed the trace bytes",
            algo.name()
        );
    }
}

#[test]
fn sweep_artifact_is_byte_identical_across_jobs() {
    let g = generators::with_random_weights(&generators::powerlaw(120, 720, 1.9, 5), 32, 1);
    let cfg = GpuConfig::small_test();
    let (bytes, _) = capture(
        &g,
        cfg,
        &Bfs::new(0),
        Schedule::SparseWeaver,
        true,
        "sweep_jobs",
    );
    let trace = parse(&bytes).expect("well-formed");
    let fp = trace_fingerprint(&bytes);
    let run = |jobs: usize| {
        let spec = SweepSpec {
            l1_sizes: vec![1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072],
            ways: vec![2, 4],
            jobs,
        };
        let result = sweep(&trace, fp, &spec).expect("sweep");
        assert!(result.verified(), "jobs={jobs}: capture self-check failed");
        render(&result, &trace)
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel, "replay.json must be jobs-invariant");
    assert_eq!(serial.matches("\"name\"").count(), 16, "16 grid points");
}
