//! Metrics-driven validation of the analytic warp-iteration model:
//! instead of checking end-to-end cycles only, run PageRank under
//! `S_vm` / `S_em` / `S_wm` with tracing on, extract the measured
//! edge-processing phase cycles from the rendered `metrics.json`, and
//! check [`analytic::expected_warp_iterations`] against the measurement.
//!
//! The model predicts *warp iterations* of the gather loop; the
//! simulator attributes every issued-instruction and stall cycle to the
//! warp's current phase. The "Gather & Sum" phase is exactly the
//! per-iteration body the model counts (work-ID calculation is
//! per-schedule overhead outside the model), so each predicted iteration
//! costs at least one attributed cycle there — the measurement bounds
//! the prediction from above, and on a skewed graph the model's ranking
//! of the schedules must agree with the measured ranking.

use sparseweaver::core::algorithms::PageRank;
use sparseweaver::core::{analytic, Schedule, Session};
use sparseweaver::graph::{generators, Csr};
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::{export, json, TraceConfig};

/// The phase label of the gather-loop body the model describes, as
/// rendered into `metrics.json` (`Phase::label`).
const GATHER_PHASE: &str = "Gather & Sum";

/// Runs PageRank traced and extracts the gather-loop body's cycle total
/// out of the run's `metrics.json` — the same artifact
/// `swsim --metrics-out` writes.
fn measured_gather_cycles(g: &Csr, cfg: GpuConfig, schedule: Schedule) -> u64 {
    let mut s = Session::new(cfg);
    s.trace = Some(TraceConfig::default());
    let report = s.run(g, &PageRank::new(1), schedule).expect("run");
    let metrics = export::metrics_json(report.trace.as_ref().expect("trace attached"), None, None);
    let v = json::parse(&metrics).expect("metrics.json parses");
    v.get("totals")
        .and_then(|t| t.get("phase_cycles"))
        .and_then(|p| p.get(GATHER_PHASE))
        .and_then(|x| x.as_num())
        .unwrap_or_else(|| panic!("phase {GATHER_PHASE:?} missing from metrics.json")) as u64
}

#[test]
fn warp_iteration_model_matches_measured_phase_cycles() {
    // Skewed enough that the schedules genuinely differ.
    let g = generators::powerlaw(200, 1600, 1.8, 9);
    let cfg = GpuConfig::small_test();
    let tpw = cfg.threads_per_warp;
    let block = cfg.threads_per_core();
    // PageRank gathers over incoming edges: the model sees the reverse view.
    let view = g.reverse();

    let schedules = [Schedule::Svm, Schedule::Sem, Schedule::Swm];
    let predicted: Vec<u64> = schedules
        .iter()
        .map(|&s| analytic::expected_warp_iterations(&view, s, tpw, block))
        .collect();
    let measured: Vec<u64> = schedules
        .iter()
        .map(|&s| measured_gather_cycles(&g, cfg, s))
        .collect();

    for (i, &s) in schedules.iter().enumerate() {
        // Phase attribution must actually reach the gather loop.
        assert!(measured[i] > 0, "{s:?}: no gather-phase cycles measured");
        // Every predicted warp iteration costs at least one attributed
        // cycle, so the measurement bounds the model from above.
        assert!(
            measured[i] >= predicted[i],
            "{s:?}: measured gather cycles {} below predicted iterations {}",
            measured[i],
            predicted[i]
        );
    }

    // Ranking agreement: wherever the model separates two schedules
    // decisively (>= 1.5x), the measured gather cycles must order the
    // same way.
    for i in 0..schedules.len() {
        for j in 0..schedules.len() {
            if predicted[i] as f64 >= 1.5 * predicted[j] as f64 {
                assert!(
                    measured[i] > measured[j],
                    "model ranks {:?} ({}) decisively above {:?} ({}), but measured {} <= {}",
                    schedules[i],
                    predicted[i],
                    schedules[j],
                    predicted[j],
                    measured[i],
                    measured[j]
                );
            }
        }
    }
}
