//! Byte pins of every observer artifact: the streamed trace JSONL (all
//! categories, periodic samples on), `profile.json` and the
//! `swmtrace-v1` capture of two small runs, as FNV-1a digests.
//!
//! - SSSP under SparseWeaver: queued loads, atomics, Weaver decodes,
//!   divergence.
//! - BFS under EGHW: unit-port lookups (unqueued hierarchy accesses) and
//!   barriers.
//!
//! The digests were recorded before the observation sites moved behind
//! one `Hooks` method each; any change in what a sink sees, or in the
//! order it sees it, changes a digest.

use std::path::PathBuf;

use sparseweaver::core::algorithms::{Algorithm, Bfs, Sssp};
use sparseweaver::core::profile::{self, Fnv64};
use sparseweaver::core::{Schedule, Session};
use sparseweaver::graph::{generators, Csr};
use sparseweaver::mem::mtrace::parse;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::TraceConfig;

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

fn temp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sw_observer_digests_{tag}_{}.{ext}",
        std::process::id()
    ))
}

fn graph() -> Csr {
    generators::with_random_weights(&generators::uniform(60, 240, 3), 64, 0xC11)
}

/// Runs `algo` under `schedule` with every observer attached and returns
/// the `(trace JSONL, profile.json, swmtrace)` bytes.
fn artifacts(tag: &str, algo: &dyn Algorithm, schedule: Schedule) -> [Vec<u8>; 3] {
    let g = graph();
    let cfg = GpuConfig::small_test();
    let (trace_path, mem_path) = (temp(tag, "jsonl"), temp(tag, "swmtrace"));
    let mut s = Session::new(cfg);
    s.trace = Some(TraceConfig {
        sample_every: 100,
        ..TraceConfig::default()
    });
    s.trace_out = Some(trace_path.clone());
    s.profile = true;
    s.mem_trace_out = Some(mem_path.clone());
    let report = s.run(&g, algo, schedule).expect("run");
    assert_eq!(report.sink_error, None);
    assert_eq!(report.mem_trace.and_then(|m| m.sink_error), None);
    let trace = std::fs::read(&trace_path).expect("trace file");
    let mem = std::fs::read(&mem_path).expect("memory trace file");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&mem_path);
    let prof = profile::render(&report, &cfg, &g).into_bytes();
    [trace, prof, mem]
}

fn event_count(jsonl: &[u8], name: &str) -> usize {
    let needle = format!("\"name\":\"{name}\"");
    std::str::from_utf8(jsonl)
        .expect("UTF-8 trace")
        .lines()
        .filter(|l| l.contains(&needle))
        .count()
}

#[test]
fn sssp_sparseweaver_artifacts_are_pinned() {
    let [trace, prof, mem] = artifacts("sssp_sw", &Sssp::new(0), Schedule::SparseWeaver);
    // The run exercises what the pin is meant to cover.
    for name in [
        "issue",
        "divergence",
        "dram",
        "weaver:dt_write",
        "phase:Registration",
    ] {
        assert!(event_count(&trace, name) > 0, "no `{name}` events");
    }
    let (_, accesses, _, atomics, _) = parse(&mem).expect("capture parses").counts();
    assert!(accesses > 0 && atomics > 0);
    assert_eq!(
        [digest(&trace), digest(&prof), digest(&mem)],
        [
            0x5778_f685_c0af_46a1,
            0xa02b_215e_c2f6_04e7,
            0x3a4b_06ba_8766_b4f2
        ],
        "sizes {} {} {}",
        trace.len(),
        prof.len(),
        mem.len()
    );
}

#[test]
fn bfs_eghw_artifacts_are_pinned() {
    let [trace, prof, mem] = artifacts("bfs_eghw", &Bfs::new(0), Schedule::Eghw);
    assert!(event_count(&trace, "stall:weaver") > 0);
    let (_, accesses, unqueued, _, barriers) = parse(&mem).expect("capture parses").counts();
    assert!(accesses > 0 && unqueued > 0 && barriers > 0);
    assert_eq!(
        [digest(&trace), digest(&prof), digest(&mem)],
        [
            0xc1f6_ee5d_91b2_f11a,
            0x3c4b_7278_ddad_29ef,
            0x2cf7_66ea_be6e_acf4
        ],
        "sizes {} {} {}",
        trace.len(),
        prof.len(),
        mem.len()
    );
}
