//! The fast-path engine's determinism contract, end to end:
//!
//! - Idle-cycle fast-forward is a pure wall-clock optimisation — with it
//!   on or off, every algorithm produces bit-identical [`RunReport`]s
//!   (cycle counts, stats, per-kernel breakdowns, outputs) and, with
//!   profiling on, byte-identical `profile.json` artifacts.
//! - Parallel campaigns fold results in run-index order — any `--jobs`
//!   value renders byte-identical summary JSON and identical merged
//!   profiles.
//!
//! See `docs/performance.md` for the invariants behind both claims.

use sparseweaver::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use sparseweaver::core::campaign::{run_campaign, CampaignConfig};
use sparseweaver::core::{profile, Schedule, Session};
use sparseweaver::fault::FaultSpec;
use sparseweaver::graph::generators;
use sparseweaver::isa::NUM_REGS;
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

#[test]
fn fast_forward_reports_are_identical_for_every_algorithm() {
    let g = generators::with_random_weights(&generators::powerlaw(120, 720, 1.9, 5), 32, 1);
    let cfg = GpuConfig::small_test();
    for schedule in [Schedule::SparseWeaver, Schedule::Swm] {
        for algo in algorithms() {
            let run = |fast_forward: bool| {
                let mut s = Session::new(cfg);
                s.fast_forward = fast_forward;
                s.profile = true;
                s.run(&g, algo.as_ref(), schedule).expect("run")
            };
            let on = run(true);
            let off = run(false);
            let label = format!("{} under {:?}", algo.name(), schedule);
            assert_eq!(on.cycles, off.cycles, "{label}: cycle counts differ");
            assert_eq!(on.stats, off.stats, "{label}: stats differ");
            assert_eq!(
                on.per_kernel, off.per_kernel,
                "{label}: per-kernel breakdowns differ"
            );
            assert_eq!(on.output, off.output, "{label}: outputs differ");
            // The profiler observes the same issue/fill/response stream
            // whether idle cycles are simulated or skipped...
            assert_eq!(on.profile, off.profile, "{label}: profiles differ");
            // ...and the rendered artifact is byte-identical.
            assert_eq!(
                profile::render(&on, &cfg, &g),
                profile::render(&off, &cfg, &g),
                "{label}: rendered profile.json differs"
            );
        }
    }
}

#[test]
fn a_64_warp_core_matches_the_reference_with_fast_forward_on_and_off() {
    // The widest core `GpuConfig::validate` admits, every warp resident:
    // warp 63 is bit 63 of each core's ready masks.
    let mut cfg = GpuConfig::small_test();
    cfg.warps_per_core = 64;
    cfg.regs_per_core = NUM_REGS * 64;
    cfg.weaver.st_capacity = 64 * cfg.threads_per_warp;
    let g = generators::with_random_weights(&generators::powerlaw(300, 1800, 1.9, 5), 32, 1);
    for schedule in [Schedule::SparseWeaver, Schedule::Swm] {
        for algo in algorithms() {
            let run = |fast_forward: bool| {
                let mut s = Session::new(cfg);
                s.fast_forward = fast_forward;
                s.run(&g, algo.as_ref(), schedule).expect("run")
            };
            let on = run(true);
            let off = run(false);
            let label = format!("{} under {:?}", algo.name(), schedule);
            assert_eq!(on.occupancy.resident, 64, "{label}: warps parked");
            assert_eq!(on.cycles, off.cycles, "{label}: cycle counts differ");
            assert_eq!(on.stats, off.stats, "{label}: stats differ");
            assert_eq!(
                on.per_kernel, off.per_kernel,
                "{label}: per-kernel breakdowns differ"
            );
            assert_eq!(on.output, off.output, "{label}: outputs differ");
            let mismatch = on.output.mismatch(&algo.reference(&g), 1e-9);
            assert_eq!(mismatch, None, "{label}: differs from the host reference");
        }
    }
}

#[test]
fn campaign_summary_json_is_byte_identical_across_jobs() {
    let g = generators::with_random_weights(&generators::uniform(24, 72, 7), 64, 0xC11);
    let cfg = GpuConfig::small_test();
    let spec = FaultSpec::parse("reg=0.002,mem=0.001,fetch=0.001,weaver-drop=0.02").unwrap();
    let run = |jobs: usize| {
        let mut campaign = CampaignConfig::new(spec, 2025, 16);
        campaign.jobs = jobs;
        campaign.profile = true;
        run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).expect("campaign")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.panics, parallel.panics);
    // The merged profile folds in run-index order: identical histograms
    // and issue counters for every worker count.
    assert_eq!(
        serial.profile, parallel.profile,
        "merged campaign profile depends on worker scheduling"
    );
    assert!(serial.profile.is_some());
}
