//! The timed run: end-to-end metrics with every hook off.
//!
//! One process measures one workload: repeated set-up, one untimed
//! warm-up call, then timed reps whose median is `run_s`. Each rep is
//! checked after its clock stops, so checking never enters `run_s`.
//!
//! Times are on-CPU seconds scaled to the reference machine's quiet phase
//! by the interleaved [`Probe`]: a rep taking `t` while the probe took `p`
//! around it counts as `t * PROBE_REF_S / p`. On a 2-vCPU KVM guest,
//! busy and quiet phases of the host moved identical reps by up to 1.5x
//! for minutes at a time. Unscaled, the `run_s` of ten runs of one workload
//! spread by up to 32% of their median, which is more than any regression
//! bound tolerates; scaled, the same runs spread by about half as much.
//! The unscaled times are in the diagnostics line.

use sparseweaver_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use sparseweaver_core::{FrameworkError, RunReport};
use sparseweaver_fault::CampaignSummary;

use crate::host::{cpu_now, peak_rss_mb, Probe, Snapshot, PROBE_REF_S};
use crate::report::Outcome;
use crate::stats::{iqr_frac, median};
use crate::workload::{Inputs, Workload};

/// Fewest timed reps a run takes, however long each one is.
const MIN_REPS: usize = 3;
/// Most timed reps a run takes, however short each one is.
const MAX_REPS: usize = 1_000;
/// Set-up is timed in batches of at least [`SETUP_BATCH_S`] of CPU, so
/// clock reads do not weigh on microsecond set-ups, until
/// [`SETUP_BUDGET_S`] is spent (and at least [`MIN_REPS`] batches).
/// `setup_s` is the median batch's time per set-up, so a single slow
/// set-up does not move it.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_BATCH_S: f64 = 0.01;
const MAX_BATCH: usize = 100_000;
/// Tolerance of the PageRank comparison against the host reference, as
/// in the repository's schedule-equivalence tests.
pub const TOLERANCE: f64 = 1e-9;

/// Timed calls: on-CPU seconds as measured, the same scaled by the probe
/// runs around each call, and every probe run.
#[derive(Debug, Default)]
struct Reps {
    cpu: Vec<f64>,
    scaled: Vec<f64>,
    probes: Vec<f64>,
}

/// Runs `w` for about `seconds` and returns its end-to-end metrics.
/// Diagnostics (unscaled times, steal, probe times) go to stderr.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let start = Snapshot::now();
    let mut probe = Probe::new();
    let probe_before = probe.run();

    // One untimed set-up sizes the batches.
    let t = cpu_now();
    let mut inputs = Some(w.setup(seed));
    let per_batch = ((SETUP_BATCH_S / (cpu_now() - t)) as usize).clamp(1, MAX_BATCH);
    let (mut setups, mut spent) = (Vec::new(), 0.0);
    while setups.len() < MIN_REPS || spent < SETUP_BUDGET_S {
        // Drop the previous inputs first so peak RSS holds one copy.
        drop(inputs.take());
        let t = cpu_now();
        for _ in 1..per_batch {
            std::hint::black_box(w.setup(seed));
        }
        inputs = Some(w.setup(seed));
        let dt = cpu_now() - t;
        spent += dt;
        setups.push(dt / per_batch as f64);
    }
    let setup_probe = (probe_before + probe.run()) / 2.0;
    let mut inputs = inputs.expect("set-up ran at least once");

    let mut out = Outcome::default();
    let (reps, sim_cycles) = match w.campaign(seed) {
        None => measure_runs(w, &mut inputs, seconds, &mut probe, &mut out),
        Some(campaign) => {
            measure_campaign(w, &campaign, &mut inputs, seconds, &mut probe, &mut out)
        }
    };
    let (wall_s, cpu_s, steal_s) = start.since();

    let setup_cpu_s = median(&setups);
    out.set("setup_s", setup_cpu_s * PROBE_REF_S / setup_probe);
    out.set("run_s", median(&reps.scaled));
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.set(
        "ok_frac",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.set("sim_cycles", sim_cycles as f64);
    eprintln!(
        "perfbench diagnostics: {{\"workload\": \"{}\", \"seed\": {seed}, \"setups\": {}, \
         \"setups_per_batch\": {per_batch}, \
         \"setup_cpu_s\": {setup_cpu_s}, \"setup_probe_s\": {setup_probe}, \"reps\": {}, \
         \"run_cpu_s\": {}, \"run_cpu_s_reps\": {:?}, \"run_s_reps\": {:?}, \
         \"run_s_iqr_frac\": {}, \"probe_s\": {:?}, \"host.wall_s\": {wall_s}, \
         \"host.cpu_s\": {cpu_s}, \"host.steal_s\": {steal_s}, \"host.calib_s\": {}}}",
        w.name,
        setups.len(),
        reps.cpu.len(),
        median(&reps.cpu),
        reps.cpu,
        reps.scaled,
        iqr_frac(&reps.scaled),
        reps.probes,
        median(&reps.probes),
    );
    out
}

/// Number of timed reps that fill `seconds`, given one call's wall time.
fn rep_count(seconds: f64, one_call_wall_s: f64) -> usize {
    ((seconds / one_call_wall_s.max(1e-6)) as usize).clamp(MIN_REPS, MAX_REPS)
}

/// One untimed warm-up `call`, then as many timed calls as fill
/// `seconds`, with a probe run before the first and after each one.
/// Every result goes to `check` after its clock stops.
fn timed_reps<R>(
    seconds: f64,
    probe: &mut Probe,
    mut call: impl FnMut() -> R,
    mut check: impl FnMut(R),
) -> Reps {
    let warm = std::time::Instant::now();
    let r = call();
    let n = rep_count(seconds, warm.elapsed().as_secs_f64());
    check(r);
    let mut reps = Reps::default();
    let mut before = probe.run();
    reps.probes.push(before);
    for _ in 0..n {
        let t = cpu_now();
        let r = std::hint::black_box(call());
        let dt = cpu_now() - t;
        let after = probe.run();
        check(r);
        reps.cpu.push(dt);
        reps.scaled
            .push(dt * PROBE_REF_S / ((before + after) / 2.0));
        reps.probes.push(after);
        before = after;
    }
    reps
}

/// `Session::run` reps; returns their times and the run's cycles.
fn measure_runs(
    w: &Workload,
    inputs: &mut Inputs,
    seconds: f64,
    probe: &mut Probe,
    out: &mut Outcome,
) -> (Reps, u64) {
    let algo = w.algorithm();
    let reference = algo.reference(&inputs.graph);
    let Inputs { graph, session } = inputs;
    let mut first_cycles = None;
    let reps = timed_reps(
        seconds,
        probe,
        || session.run(graph, algo.as_ref(), w.schedule),
        |r: Result<RunReport, FrameworkError>| {
            out.attempted += 1;
            let ok = match r {
                Ok(report) => {
                    let cycles = *first_cycles.get_or_insert(report.cycles);
                    report.output.approx_eq(&reference, TOLERANCE) && report.cycles == cycles
                }
                Err(e) => {
                    eprintln!("perfbench: {} run failed: {e}", w.name);
                    false
                }
            };
            out.failed += u64::from(!ok);
        },
    );
    (reps, first_cycles.unwrap_or(0))
}

/// `run_campaign` reps; returns their times and the cycles of one
/// fault-free run on the campaign graph (the campaign's golden run).
fn measure_campaign(
    w: &Workload,
    campaign: &CampaignConfig,
    inputs: &mut Inputs,
    seconds: f64,
    probe: &mut Probe,
    out: &mut Outcome,
) -> (Reps, u64) {
    let algo = w.algorithm();
    let reference = algo.reference(&inputs.graph);
    let Inputs { graph, session } = inputs;

    // The golden run every injected run is classified against must itself
    // match the host reference.
    out.attempted += 1;
    let golden_cycles = match session.run(graph, algo.as_ref(), w.schedule) {
        Ok(r) => {
            out.failed += u64::from(!r.output.approx_eq(&reference, TOLERANCE));
            r.cycles
        }
        Err(e) => {
            eprintln!("perfbench: {} golden run failed: {e}", w.name);
            out.failed += 1;
            0
        }
    };

    let runs = u64::from(campaign.runs);
    let mut first: Option<CampaignSummary> = None;
    let reps = timed_reps(
        seconds,
        probe,
        || run_campaign(&w.config, graph, algo.as_ref(), w.schedule, campaign),
        |r: Result<CampaignResult, FrameworkError>| {
            out.attempted += runs;
            out.failed += match r {
                Ok(result) => {
                    let same =
                        first.get_or_insert_with(|| result.summary.clone()) == &result.summary;
                    if result.summary.is_classified() && same {
                        result.panics
                    } else {
                        runs
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {} campaign failed: {e}", w.name);
                    runs
                }
            };
        },
    );
    (reps, golden_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_count_fills_the_budget_within_limits() {
        assert_eq!(rep_count(20.0, 2.5), 8);
        assert_eq!(rep_count(20.0, 30.0), MIN_REPS);
        assert_eq!(rep_count(20.0, 0.0), MAX_REPS);
    }
}
