//! Fault-injection campaign runner.
//!
//! A campaign is N seeded runs of one `(graph, algorithm, schedule)`
//! configuration under a [`FaultSpec`], each classified against a
//! fault-free golden run into the four-way taxonomy of
//! [`Outcome`]: **masked** (output matches the golden run), **SDC**
//! (silent data corruption), **detected crash** (a typed error surfaced
//! the fault), or **hang** (deadlock / cycle limit / Weaver timeout).
//!
//! Per-run seeds derive from the campaign seed via
//! [`sparseweaver_fault::child_seed`], so the whole campaign — including
//! its rendered summary — is byte-for-byte reproducible from
//! `(spec, seed, runs)`. The `swfault` binary is a thin CLI over this
//! module; the property tests drive it directly.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use sparseweaver_fault::{CampaignSummary, FaultSpec, Outcome, SplitMix64};
use sparseweaver_graph::Csr;
use sparseweaver_sim::{GpuConfig, SimError};
use sparseweaver_trace::codec::OutStream;
use sparseweaver_trace::json::{self, Envelope, Schema, Value};
use sparseweaver_trace::ProfileReport;

use crate::algorithms::Algorithm;
use crate::checkpoint::CheckpointError;
use crate::compiler::KernelCache;
use crate::schedule::Schedule;
use crate::session::Session;
use crate::FrameworkError;

/// Float tolerance for golden-output comparison (integer outputs compare
/// exactly).
pub const GOLDEN_TOL: f64 = 1e-9;

/// The schema of the campaign journal's header line.
pub const JOURNAL_SCHEMA: Schema = Schema::new("sparseweaver-fault-journal", 2);

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// What to inject, at which rates.
    pub spec: FaultSpec,
    /// Campaign seed; run `i` uses `child_seed(seed, i)`.
    pub seed: u64,
    /// Number of injected runs.
    pub runs: u32,
    /// Bound on launch retries after a Weaver response timeout.
    pub max_weaver_retries: u32,
    /// Worker threads for the injected runs (0 or 1 = serial). Each run
    /// owns its `Gpu` and injector, and results are folded in run-index
    /// order, so every `jobs` value produces byte-identical output.
    pub jobs: usize,
    /// Whether a run whose Weaver retries are exhausted may degrade to
    /// the software `S_wm` schedule (the [`Session`] default). With
    /// fallback off, exhausted retries surface as a Weaver timeout and
    /// classify as a hang — the knob that gives campaigns deterministic
    /// `hang` coverage.
    pub fallback: bool,
    /// When set, every injected run attaches a latency profiler and the
    /// per-run [`sparseweaver_trace::ProfileReport`]s are merged (in
    /// run-index order) into [`CampaignResult::profile`].
    pub profile: bool,
}

impl CampaignConfig {
    /// A campaign with `spec`, `seed`, and `runs`, serial execution,
    /// [`DEFAULT_WEAVER_RETRIES`](crate::runtime::DEFAULT_WEAVER_RETRIES)
    /// Weaver retries, and fallback enabled — the `swfault` defaults.
    pub fn new(spec: FaultSpec, seed: u64, runs: u32) -> Self {
        CampaignConfig {
            spec,
            seed,
            runs,
            max_weaver_retries: crate::runtime::DEFAULT_WEAVER_RETRIES,
            jobs: 1,
            fallback: true,
            profile: false,
        }
    }
}

/// Journal and early-stop controller for [`run_campaign_with`], kept
/// separate from [`CampaignConfig`] (which stays `Copy`).
#[derive(Debug, Clone, Default)]
pub struct CampaignCtl {
    /// Append-only JSONL journal: a header line identifying the campaign
    /// (a [`JOURNAL_SCHEMA`] envelope with the config/graph fingerprints,
    /// then spec, seed, runs, schedule and algorithm) followed by one line
    /// per completed run, appended and flushed as runs finish. Survives a
    /// kill at any point: the header and every fully written line stay
    /// valid, and a torn final line is cut off on resume.
    pub journal: Option<PathBuf>,
    /// Resume from the journal: already-journaled run indices are folded
    /// from their recorded outcomes and only missing indices re-execute.
    /// The golden run always re-executes (it is deterministic). Requires
    /// [`CampaignCtl::journal`].
    pub resume: bool,
    /// Cooperative stop flag, checked at run boundaries: queued runs are
    /// skipped (runs already executing complete and are journaled) and
    /// the campaign returns [`FrameworkError::Interrupted`].
    pub stop: Option<Arc<AtomicBool>>,
}

/// One classified run of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// Run index within the campaign.
    pub index: u32,
    /// The derived injector seed this run used.
    pub seed: u64,
    /// The four-way classification.
    pub outcome: Outcome,
    /// Human-readable detail: the error text for crashes and hangs, the
    /// first diverging index for SDC, retry/fallback notes for masked
    /// runs.
    pub detail: String,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Aggregated counts, renderable as deterministic JSON.
    pub summary: CampaignSummary,
    /// Per-run classifications, in run order.
    pub runs: Vec<CampaignRun>,
    /// Runs that escaped classification by panicking. The simulator's
    /// contract is typed errors, never panics — any non-zero value here
    /// is a bug in the machine model, and `swfault` fails the campaign
    /// on it.
    pub panics: u64,
    /// Merged latency/imbalance profile across the injected runs, when
    /// [`CampaignConfig::profile`] was set. Folded in run-index order,
    /// so it is identical for every `jobs` value.
    pub profile: Option<ProfileReport>,
    /// The first I/O error hit while appending to the campaign journal,
    /// if any: the journal on disk is missing entries, so a later
    /// `--resume` will (harmlessly, deterministically) re-execute them.
    pub journal_error: Option<std::io::ErrorKind>,
}

/// Raw result of one injected run, before the index-ordered fold into
/// the summary. `outcome == None` means the run panicked (journaled, so a
/// resume retries it); `skipped` means a stop request kept the run from
/// starting (never journaled).
struct RunOutput {
    seed: u64,
    faults_total: Option<u64>,
    retries: u64,
    fell_back: bool,
    outcome: Option<(Outcome, String)>,
    profile: Option<ProfileReport>,
    skipped: bool,
}

/// Runs a full campaign: one fault-free golden run, then
/// [`CampaignConfig::runs`] injected runs classified against it.
///
/// Every injected run executes inside `catch_unwind`, so a panic in the
/// machine model is recorded in [`CampaignResult::panics`] instead of
/// aborting the campaign.
///
/// With [`CampaignConfig::jobs`] > 1 the injected runs execute on a
/// thread pool. Each run builds its own [`Session`] (and thus its own
/// `Gpu` and fault injector) from a seed derived purely from
/// `(campaign seed, run index)`, and results are collected and folded in
/// run-index order — so the summary, the per-run list, and the rendered
/// JSON are byte-identical for every `jobs` value. Every run's session
/// compiles into the golden run's kernel cache, so a campaign
/// compiles each kernel once, the `S_wm` fallback kernels included.
///
/// # Errors
///
/// Returns an error only if the *golden* (fault-free) run fails — an
/// injected run can never fail the campaign, it is classified.
pub fn run_campaign(
    cfg: &GpuConfig,
    graph: &Csr,
    algorithm: &dyn Algorithm,
    schedule: Schedule,
    campaign: &CampaignConfig,
) -> Result<CampaignResult, FrameworkError> {
    run_campaign_with(
        cfg,
        graph,
        algorithm,
        schedule,
        campaign,
        &CampaignCtl::default(),
    )
}

/// [`run_campaign`] with a journal and stop controller: completed runs
/// are appended to an on-disk journal as they finish, a stop request ends
/// the campaign at a run boundary with [`FrameworkError::Interrupted`],
/// and [`CampaignCtl::resume`] re-executes only the runs the journal is
/// missing — rendering a [`CampaignSummary`] byte-identical to the
/// uninterrupted campaign's, at any [`CampaignConfig::jobs`] value.
///
/// # Errors
///
/// Everything [`run_campaign`] returns, plus journal errors: a journal
/// whose header does not match this campaign's identity (spec, seed,
/// runs, schedule, algorithm, config/graph fingerprints) or whose body is
/// corrupt is refused with a typed [`CheckpointError`], and a stop
/// request surfaces as [`FrameworkError::Interrupted`] after in-flight
/// runs were journaled.
pub fn run_campaign_with(
    cfg: &GpuConfig,
    graph: &Csr,
    algorithm: &dyn Algorithm,
    schedule: Schedule,
    campaign: &CampaignConfig,
    ctl: &CampaignCtl,
) -> Result<CampaignResult, FrameworkError> {
    run_campaign_in(
        cfg,
        graph,
        algorithm,
        schedule,
        campaign,
        ctl,
        &KernelCache::default(),
    )
}

/// [`run_campaign_with`], compiling every run's kernels into `kernels`.
fn run_campaign_in(
    cfg: &GpuConfig,
    graph: &Csr,
    algorithm: &dyn Algorithm,
    schedule: Schedule,
    campaign: &CampaignConfig,
    ctl: &CampaignCtl,
    kernels: &KernelCache,
) -> Result<CampaignResult, FrameworkError> {
    if ctl.journal.is_some() && campaign.profile {
        // Per-run profiles are not journaled, so a resumed merge would
        // silently miss the already-completed runs' histograms.
        return Err(FrameworkError::Io {
            what: "the campaign journal does not record per-run profiles; \
                   disable profiling to use a journal"
                .to_string(),
        });
    }
    if ctl.resume && ctl.journal.is_none() {
        return Err(FrameworkError::Io {
            what: "campaign resume requires a journal path".to_string(),
        });
    }
    let fingerprints = (
        Some(crate::profile::config_fingerprint(cfg)),
        Some(crate::profile::graph_fingerprint(graph)),
    );

    // Journal setup: load completed entries on resume, then open for
    // appending (or start fresh with a header line).
    let mut completed: BTreeMap<u32, RunOutput> = BTreeMap::new();
    let mut journal = None;
    if let Some(path) = &ctl.journal {
        let header = journal_header(campaign, schedule, algorithm.name(), fingerprints);
        let io_err = |what: &str, e: std::io::Error| FrameworkError::Io {
            what: format!("{what} campaign journal {}: {e}", path.display()),
        };
        let loaded = if ctl.resume {
            load_journal(path, &header, campaign)?
        } else {
            None
        };
        let out = match loaded {
            Some((entries, complete)) => {
                completed = entries;
                let mut out = OutStream::open(path, OpenOptions::new().append(true))
                    .map_err(|e| io_err("opening", e))?;
                // Cut a torn final line, so the next entry starts a line
                // of its own instead of being glued onto the fragment.
                out.truncate(complete)
                    .map_err(|e| io_err("truncating", e))?;
                out
            }
            None => {
                let mut out = OutStream::create(path).map_err(|e| io_err("creating", e))?;
                out.write(format!("{header}\n").as_bytes());
                out.flush();
                if let Some(kind) = out.error() {
                    return Err(io_err("writing", kind.into()));
                }
                out
            }
        };
        journal = Some(Mutex::new(out));
    }
    // After the journal is vetted: a journal refused on resume costs no
    // simulation.
    let mut golden = Session::new(*cfg);
    golden.set_kernel_cache(kernels.clone());
    let golden = golden.run(graph, algorithm, schedule)?.output;

    let run_one = |index: u32| -> RunOutput {
        let seed = SplitMix64::child_seed(campaign.seed, index as u64);
        // A stop request skips queued runs; runs already executing finish
        // and are journaled, so nothing completed is ever lost.
        if ctl.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst)) {
            return RunOutput {
                seed,
                faults_total: None,
                retries: 0,
                fell_back: false,
                outcome: None,
                profile: None,
                skipped: true,
            };
        }
        let mut session = Session::new(*cfg);
        session.set_kernel_cache(kernels.clone());
        session.inject = Some(campaign.spec);
        session.inject_seed = seed;
        session.max_weaver_retries = campaign.max_weaver_retries;
        session.fallback = campaign.fallback;
        session.profile = campaign.profile;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let result = session.run(graph, algorithm, schedule);
            (result, session.last_faults())
        }));
        let out = match caught {
            Err(_) => RunOutput {
                seed,
                faults_total: None,
                retries: 0,
                fell_back: false,
                outcome: None,
                profile: None,
                skipped: false,
            },
            Ok((result, faults)) => {
                let (retries, fell_back, profile) = match &result {
                    Ok(report) => (
                        report.weaver_retries,
                        report.fell_back_from.is_some(),
                        report.profile.clone(),
                    ),
                    Err(_) => (0, false, None),
                };
                let outcome = match result {
                    Ok(report) => match report.output.mismatch(&golden, GOLDEN_TOL) {
                        None => {
                            let mut detail = String::from("output matches golden");
                            if report.weaver_retries > 0 {
                                detail.push_str(&format!(
                                    " after {} retr{}",
                                    report.weaver_retries,
                                    if report.weaver_retries == 1 {
                                        "y"
                                    } else {
                                        "ies"
                                    }
                                ));
                            }
                            if let Some(from) = report.fell_back_from {
                                detail.push_str(&format!(" (fell back from {from:?} to S_wm)"));
                            }
                            (Outcome::Masked, detail)
                        }
                        Some(at) => (Outcome::Sdc, format!("output diverges at index {at}")),
                    },
                    Err(FrameworkError::Sim(
                        e @ (SimError::Deadlock { .. }
                        | SimError::CycleLimit { .. }
                        | SimError::WeaverTimeout { .. }),
                    )) => (Outcome::Hang, e.to_string()),
                    Err(e) => (Outcome::DetectedCrash, e.to_string()),
                };
                RunOutput {
                    seed,
                    faults_total: faults.map(|f| f.total()),
                    retries,
                    fell_back,
                    outcome: Some(outcome),
                    profile,
                    skipped: false,
                }
            }
        };
        if let Some(j) = &journal {
            // Append and flush as the run completes: a kill afterwards
            // finds this run durable. Append errors are latched, not
            // fatal — a lost entry only means a resume re-runs it.
            let line = format!("{}\n", journal_line(index, &out));
            let mut j = j.lock().expect("journal mutex");
            j.write(line.as_bytes());
            j.flush();
        }
        out
    };

    let todo: Vec<u32> = (0..campaign.runs)
        .filter(|i| !completed.contains_key(i))
        .collect();
    let outputs: Vec<(u32, RunOutput)> = if campaign.jobs > 1 && todo.len() > 1 {
        let pool = ThreadPoolBuilder::new()
            .num_threads(campaign.jobs)
            .build()
            .expect("campaign thread pool");
        pool.install(|| {
            todo.clone()
                .into_par_iter()
                .map(|i| (i, run_one(i)))
                .collect()
        })
    } else {
        todo.iter().map(|&i| (i, run_one(i))).collect()
    };
    for (index, out) in outputs {
        if !out.skipped {
            completed.insert(index, out);
        }
    }

    // Fold in run-index order: the summary counters and the JSON they
    // render to must not depend on worker scheduling — or on how many
    // invocations (via the journal) it took to complete the campaign.
    let mut summary = CampaignSummary {
        config_fingerprint: fingerprints.0,
        input_fingerprint: fingerprints.1,
        spec: campaign.spec.to_string(),
        seed: campaign.seed,
        ..CampaignSummary::default()
    };
    let mut runs = Vec::with_capacity(campaign.runs as usize);
    let mut panics = 0u64;
    let mut missing = 0u32;
    let mut merged_profile = campaign.profile.then(ProfileReport::default);
    for index in 0..campaign.runs {
        let Some(out) = completed.remove(&index) else {
            missing += 1;
            continue;
        };
        if let (Some(acc), Some(p)) = (merged_profile.as_mut(), out.profile.as_ref()) {
            acc.merge(p);
        }
        let Some((outcome, detail)) = out.outcome else {
            panics += 1;
            continue;
        };
        summary.faults_injected += out.faults_total.unwrap_or(0);
        summary.retries += out.retries;
        if out.fell_back {
            summary.fallbacks += 1;
        }
        summary.record(outcome);
        runs.push(CampaignRun {
            index,
            seed: out.seed,
            outcome,
            detail,
        });
    }
    if missing > 0 {
        let saved = match &ctl.journal {
            Some(path) => format!("completed runs are journaled in {}", path.display()),
            None => "no journal was configured, completed runs are lost".to_string(),
        };
        return Err(FrameworkError::Interrupted {
            what: format!(
                "campaign stopped with {missing} of {} runs not started; {saved}",
                campaign.runs
            ),
        });
    }

    Ok(CampaignResult {
        summary,
        runs,
        panics,
        profile: merged_profile,
        journal_error: journal.and_then(|j| j.into_inner().expect("journal mutex").error()),
    })
}

/// The journal's identity line: everything that must match for a resume
/// to be sound. Large integers (seeds, fingerprints) are hex strings so
/// the JSON round-trips exactly through an `f64`-based parser.
fn journal_header(
    campaign: &CampaignConfig,
    schedule: Schedule,
    algorithm: &str,
    (config, graph): (Option<u64>, Option<u64>),
) -> String {
    Envelope::new(JOURNAL_SCHEMA, config, graph).object(|o| {
        o.field("spec", campaign.spec.to_string())
            .field("seed", format!("{:#018x}", campaign.seed))
            .field("runs", campaign.runs)
            .field("schedule", schedule.paper_name())
            .field("algo", algorithm);
    })
}

/// One journal line per completed run, ending in a `check` member: the
/// FNV-1a hash of the line rendered without it, so a damaged value is
/// refused rather than folded into the summary. Panicked runs record
/// `"outcome":null` and are re-executed on resume.
fn journal_line(index: u32, out: &RunOutput) -> String {
    let line = |check: Option<String>| {
        json::object(|o| {
            o.field("index", index)
                .field("seed", format!("{:#018x}", out.seed));
            match &out.outcome {
                None => {
                    o.field("outcome", None::<&str>);
                }
                Some((outcome, detail)) => {
                    o.field("outcome", outcome.label())
                        .field("detail", detail)
                        .field("faults", out.faults_total)
                        .field("retries", out.retries)
                        .field("fell_back", out.fell_back);
                }
            }
            if let Some(check) = check {
                o.field("check", check);
            }
        })
    };
    let mut h = crate::profile::Fnv64::default();
    h.write(line(None).as_bytes());
    line(Some(format!("{:016x}", h.finish())))
}

/// A loaded journal: the completed runs by index, and the length of the
/// journal's complete lines.
type LoadedJournal = (BTreeMap<u32, RunOutput>, u64);

/// Loads a journal for resumption. Returns the completed runs keyed by
/// index and the length of the journal's complete lines, `None` when the
/// file is missing or its header line never made it to disk intact
/// (start fresh), or an error when the journal belongs to a different
/// campaign or a complete line is corrupt. The torn final line a kill
/// can leave behind (no closing newline) is ignored; its run simply
/// re-executes, and the caller cuts the fragment off before appending.
fn load_journal(
    path: &Path,
    expected_header: &str,
    campaign: &CampaignConfig,
) -> Result<Option<LoadedJournal>, FrameworkError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(FrameworkError::Io {
                what: format!("reading campaign journal {}: {e}", path.display()),
            })
        }
    };
    let complete = text.rfind('\n').map_or(0, |i| i + 1);
    let mut lines = text[..complete].lines();
    let Some(header) = lines.next() else {
        // The kill landed mid-header: nothing usable, start over.
        return Ok(None);
    };
    if header != expected_header {
        return Err(CheckpointError::Restore {
            what: format!(
                "campaign journal {} was written by a different campaign \
                 (header {header:?}, expected {expected_header:?})",
                path.display()
            ),
        }
        .into());
    }
    let mut entries = BTreeMap::new();
    for (i, line) in lines.enumerate() {
        let corrupt = |what: String| -> FrameworkError {
            CheckpointError::Corrupt {
                what: format!("campaign journal {} line {}: {what}", path.display(), i + 2),
            }
            .into()
        };
        let parsed = json::parse(line).map_err(|e| corrupt(e.to_string()))?;
        let num = |key: &str| parsed.get(key).and_then(Value::as_num);
        let text = |key: &str| parsed.get(key).and_then(Value::as_str);
        let index = num("index").ok_or_else(|| corrupt("missing run index".into()))? as u32;
        if index >= campaign.runs {
            return Err(corrupt(format!(
                "run index {index} out of range (campaign has {} runs)",
                campaign.runs
            )));
        }
        let seed = SplitMix64::child_seed(campaign.seed, index as u64);
        // Members are read leniently: only the exact line this build
        // writes for the entry they describe, seed and checksum included,
        // is trusted.
        let entry = RunOutput {
            seed,
            faults_total: num("faults").map(|v| v as u64),
            retries: num("retries").unwrap_or(0.0) as u64,
            fell_back: parsed.get("fell_back") == Some(&Value::Bool(true)),
            outcome: text("outcome")
                .and_then(Outcome::from_label)
                .map(|o| (o, text("detail").unwrap_or_default().to_string())),
            profile: None,
            skipped: false,
        };
        if journal_line(index, &entry) != line {
            return Err(corrupt(format!(
                "damaged entry for run {index} (checksum or seed mismatch)"
            )));
        }
        // A run journaled twice (e.g. a panic retried on an earlier
        // resume) keeps the latest entry.
        entries.insert(index, entry);
    }
    // Panicked entries re-execute: drop them after parsing (their lines
    // stay valid, the re-run appends a fresh entry).
    entries.retain(|_, out| out.outcome.is_some());
    Ok(Some((entries, complete as u64)))
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::algorithms::Bfs;
    use sparseweaver_graph::generators;

    fn campaign_with_jobs(spec: &str, seed: u64, runs: u32, jobs: usize) -> CampaignResult {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let mut campaign = CampaignConfig::new(FaultSpec::parse(spec).unwrap(), seed, runs);
        campaign.jobs = jobs;
        run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap()
    }

    fn small_campaign(spec: &str, seed: u64, runs: u32) -> CampaignResult {
        campaign_with_jobs(spec, seed, runs, 1)
    }

    #[test]
    fn fault_free_spec_is_all_masked() {
        let r = small_campaign("reg=0.0", 1, 3);
        assert_eq!(r.summary.masked, 3);
        assert_eq!(r.summary.faults_injected, 0);
        assert!(r.summary.is_classified());
        assert_eq!(r.panics, 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = small_campaign("reg=0.002,mem=0.001", 42, 4);
        let b = small_campaign("reg=0.002,mem=0.001", 42, 4);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn weaver_drops_end_masked_via_retry_or_fallback() {
        let r = small_campaign("weaver-drop=1.0", 7, 2);
        // Every response drops: retries exhaust, the run degrades to
        // S_wm, and the output still matches the golden run.
        assert_eq!(r.summary.masked, 2, "summary: {:?}", r.summary);
        assert_eq!(r.summary.fallbacks, 2);
        assert!(r.summary.retries >= 2);
        assert!(r.summary.faults_injected > 0);
        assert_eq!(r.panics, 0);
    }

    /// Runs with and without fallbacks, on two workers, compile into the
    /// golden run's cache: it ends up holding each kernel of the `S_sw`
    /// and the `S_wm` schedule exactly once.
    #[test]
    fn a_campaign_compiles_each_kernel_once() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let mut campaign = CampaignConfig::new(FaultSpec::parse("weaver-drop=0.02").unwrap(), 3, 6);
        campaign.jobs = 2;
        let kernels = KernelCache::default();
        let ctl = CampaignCtl::default();
        let sw = Schedule::SparseWeaver;
        let r = run_campaign_in(&cfg, &g, &Bfs::new(0), sw, &campaign, &ctl, &kernels).unwrap();
        assert!(
            r.summary.fallbacks > 0 && r.summary.fallbacks < 6,
            "{:?}",
            r.summary
        );

        // Every distinct kernel: those a fault-free run of each schedule
        // compiles, each into a cache of its own.
        let mut expected = HashSet::new();
        for schedule in [sw, Schedule::Swm] {
            let mut s = Session::new(cfg);
            s.run(&g, &Bfs::new(0), schedule).unwrap();
            expected.extend(s.kernel_cache().sources());
        }
        let sources = kernels.sources();
        assert_eq!(sources.len(), expected.len(), "one entry per kernel");
        assert_eq!(sources.into_iter().collect::<HashSet<_>>(), expected);
        // A second campaign on the same cache compiles nothing more.
        run_campaign_in(&cfg, &g, &Bfs::new(0), sw, &campaign, &ctl, &kernels).unwrap();
        assert_eq!(kernels.len(), expected.len());
    }

    #[test]
    fn every_run_is_classified_under_heavy_injection() {
        let r = small_campaign("reg=0.01,mem=0.01,fetch=0.005", 3, 6);
        assert!(r.summary.is_classified(), "summary: {:?}", r.summary);
        assert_eq!(r.panics, 0);
        assert_eq!(r.runs.len(), 6);
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let serial = campaign_with_jobs("reg=0.005,mem=0.002,fetch=0.002", 11, 8, 1);
        let parallel = campaign_with_jobs("reg=0.005,mem=0.002,fetch=0.002", 11, 8, 4);
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(serial.panics, parallel.panics);
    }

    #[test]
    fn fixed_seed_campaign_covers_all_four_classes() {
        // The no-fallback golden campaign of
        // `scripts/check_fault_campaign.sh` at reduced run count: same
        // graph, spec, seed, and retry bound as the committed
        // `fault_campaign_hang_golden.json`, and the same coverage claim
        // — every outcome class, including hang, appears.
        let g = generators::with_random_weights(&generators::uniform(24, 72, 7), 64, 0xC11);
        let cfg = GpuConfig::small_test();
        let mut campaign = CampaignConfig::new(
            FaultSpec::parse("reg=0.002,mem=0.001,fetch=0.001,weaver-drop=0.02").unwrap(),
            7,
            30,
        );
        campaign.fallback = false;
        let r = run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap();
        assert!(r.summary.is_classified(), "summary: {:?}", r.summary);
        assert!(r.summary.masked > 0, "no masked runs: {:?}", r.summary);
        assert!(r.summary.sdc > 0, "no SDC runs: {:?}", r.summary);
        assert!(
            r.summary.detected_crash > 0,
            "no detected crashes: {:?}",
            r.summary
        );
        assert!(r.summary.hang > 0, "no hangs: {:?}", r.summary);
        assert_eq!(r.panics, 0);
    }

    #[test]
    fn profiled_campaign_merges_identically_across_jobs() {
        let run = |jobs: usize| {
            let g = generators::uniform(24, 72, 7);
            let cfg = GpuConfig::small_test();
            let mut campaign =
                CampaignConfig::new(FaultSpec::parse("reg=0.002,mem=0.001").unwrap(), 13, 6);
            campaign.jobs = jobs;
            campaign.profile = true;
            run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.summary, parallel.summary);
        let sp = serial.profile.expect("profile aggregated");
        let pp = parallel.profile.expect("profile aggregated");
        assert_eq!(sp, pp, "merged profile depends on worker scheduling");
        assert!(sp.core_issues.iter().sum::<u64>() > 0);
        // An unprofiled campaign carries no profile at all.
        let plain = small_campaign("reg=0.0", 1, 1);
        assert!(plain.profile.is_none());
    }

    #[test]
    fn journaled_campaign_resumes_byte_identically() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let campaign = CampaignConfig::new(
            FaultSpec::parse("reg=0.005,mem=0.002,fetch=0.002").unwrap(),
            11,
            8,
        );
        let golden =
            run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap();

        let path = std::env::temp_dir().join("sw_campaign_journal_resume.jsonl");
        let ctl = CampaignCtl {
            journal: Some(path.clone()),
            ..CampaignCtl::default()
        };
        let full = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &ctl,
        )
        .unwrap();
        assert_eq!(full.summary, golden.summary);
        assert!(full.journal_error.is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 9, "header + one line per run");

        // Keep the header and the first three completed entries, as if
        // the campaign had been killed mid-flight...
        let partial: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&path, format!("{}\n", partial.join("\n"))).unwrap();
        // ...and resume at a different worker count.
        let mut parallel = campaign;
        parallel.jobs = 4;
        let resume_ctl = CampaignCtl {
            journal: Some(path.clone()),
            resume: true,
            ..CampaignCtl::default()
        };
        let resumed = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &parallel,
            &resume_ctl,
        )
        .unwrap();
        assert_eq!(resumed.summary, golden.summary);
        assert_eq!(resumed.summary.to_json(), golden.summary.to_json());
        assert_eq!(resumed.runs, golden.runs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_tolerates_torn_final_line() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let campaign = CampaignConfig::new(FaultSpec::parse("reg=0.002,mem=0.001").unwrap(), 42, 4);
        let golden =
            run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap();

        let path = std::env::temp_dir().join("sw_campaign_journal_torn.jsonl");
        let ctl = CampaignCtl {
            journal: Some(path.clone()),
            ..CampaignCtl::default()
        };
        run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &ctl,
        )
        .unwrap();
        // Cut the final line mid-write, as a kill would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 17]).unwrap();
        let resume_ctl = CampaignCtl {
            journal: Some(path.clone()),
            resume: true,
            ..CampaignCtl::default()
        };
        // Each resume re-runs the torn entry's run and appends it on a
        // line of its own, so every later resume still reads the journal.
        for resume in 1..=3 {
            let resumed = run_campaign_with(
                &cfg,
                &g,
                &Bfs::new(0),
                Schedule::SparseWeaver,
                &campaign,
                &resume_ctl,
            )
            .unwrap_or_else(|e| panic!("resume {resume}: {e}"));
            assert_eq!(resumed.summary.to_json(), golden.summary.to_json());
        }
        let resumed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(resumed, text, "the journal is whole again");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_refuses_a_different_campaign() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let campaign = CampaignConfig::new(FaultSpec::parse("reg=0.002").unwrap(), 1, 2);
        let path = std::env::temp_dir().join("sw_campaign_journal_mismatch.jsonl");
        let ctl = CampaignCtl {
            journal: Some(path.clone()),
            ..CampaignCtl::default()
        };
        run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &ctl,
        )
        .unwrap();
        // A different seed is a different campaign: the journal must not
        // be folded into it.
        let mut other = campaign;
        other.seed = 2;
        let resume_ctl = CampaignCtl {
            journal: Some(path.clone()),
            resume: true,
            ..CampaignCtl::default()
        };
        let err = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &other,
            &resume_ctl,
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                FrameworkError::Checkpoint(CheckpointError::Restore { .. })
            ),
            "unexpected error: {err:?}"
        );
        // Corrupting a non-final line is refused too.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = "{\"index\":0,\"seed\":\"0xdead\",\"outcome\":\"masked\"}".into();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &resume_ctl,
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                FrameworkError::Checkpoint(CheckpointError::Corrupt { .. })
            ),
            "unexpected error: {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stopped_campaign_is_interrupted_and_resumable() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let campaign = CampaignConfig::new(FaultSpec::parse("reg=0.002,mem=0.001").unwrap(), 9, 6);
        let golden =
            run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap();

        let path = std::env::temp_dir().join("sw_campaign_journal_stop.jsonl");
        // A pre-set stop flag: every queued run is skipped, completed
        // entries (none) stay journaled, and the campaign reports the
        // interruption.
        let stop = Arc::new(AtomicBool::new(true));
        let ctl = CampaignCtl {
            journal: Some(path.clone()),
            stop: Some(stop),
            ..CampaignCtl::default()
        };
        let err = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &ctl,
        )
        .unwrap_err();
        assert!(
            matches!(&err, FrameworkError::Interrupted { .. }),
            "unexpected error: {err:?}"
        );
        // The journal header survived, so a resume completes the campaign.
        let resume_ctl = CampaignCtl {
            journal: Some(path.clone()),
            resume: true,
            ..CampaignCtl::default()
        };
        let resumed = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &resume_ctl,
        )
        .unwrap();
        assert_eq!(resumed.summary.to_json(), golden.summary.to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_rejects_profiled_campaigns() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let mut campaign = CampaignConfig::new(FaultSpec::parse("reg=0.002").unwrap(), 1, 2);
        campaign.profile = true;
        let ctl = CampaignCtl {
            journal: Some(std::env::temp_dir().join("sw_campaign_journal_profile.jsonl")),
            ..CampaignCtl::default()
        };
        let err = run_campaign_with(
            &cfg,
            &g,
            &Bfs::new(0),
            Schedule::SparseWeaver,
            &campaign,
            &ctl,
        )
        .unwrap_err();
        assert!(matches!(&err, FrameworkError::Io { .. }));
    }

    #[test]
    fn fallback_off_surfaces_weaver_timeouts_as_hangs() {
        let g = generators::uniform(24, 72, 7);
        let cfg = GpuConfig::small_test();
        let mut campaign = CampaignConfig::new(FaultSpec::parse("weaver-drop=1.0").unwrap(), 7, 2);
        campaign.fallback = false;
        let r = run_campaign(&cfg, &g, &Bfs::new(0), Schedule::SparseWeaver, &campaign).unwrap();
        // With every response dropped and no S_wm degradation, retries
        // exhaust and both runs land in the hang class.
        assert_eq!(r.summary.hang, 2, "summary: {:?}", r.summary);
        assert_eq!(r.summary.fallbacks, 0);
        assert_eq!(r.panics, 0);
    }
}
