//! `swfault` — run deterministic fault-injection campaigns against the
//! simulated SparseWeaver GPU.
//!
//! ```text
//! swfault --inject reg=0.002,mem=0.001 --runs 200 --seed 42
//! swfault --inject weaver-drop=1.0 --algo bfs --schedule sw --details
//! swfault --inject fetch=0.005 --gen powerlaw:200:2000:2.2:7 --out summary.json
//! ```
//!
//! A campaign executes one fault-free golden run, then N seeded injected
//! runs, classifying each as **masked**, **SDC**, **detected-crash** or
//! **hang** (see `docs/robustness.md`). The summary JSON is byte-identical
//! for identical `(spec, seed, runs)` — CI diffs it against a golden file
//! via `scripts/check_fault_campaign.sh`.

use std::path::{Path, PathBuf};
use std::process::exit;

use sparseweaver::cli::{self, usage_err, CliError, FlagSpec};
use sparseweaver::core::campaign::{run_campaign_with, CampaignConfig, CampaignCtl};
use sparseweaver::core::runtime::DEFAULT_WEAVER_RETRIES;
use sparseweaver::core::{FrameworkError, Schedule};
use sparseweaver::fault::FaultSpec;
use sparseweaver::graph::generators;
use sparseweaver::trace::codec::write_atomic;

fn usage() -> ! {
    eprintln!(
        "swfault — SparseWeaver fault-injection campaign runner

USAGE:
  swfault --inject SPEC [--runs N] [--seed N]
          [--graph FILE | --dataset ID | --gen GSPEC]
          [--algo ALGO] [--schedule S] [--iters N] [--source V]
          [--config vortex|eval|small|8core|regfile]
          [--retries N] [--jobs N] [--no-fallback]
          [--out FILE] [--details]
          [--journal FILE [--resume]] [--max-wall-secs N]
  swfault --version

  SPEC:  comma-separated site=rate clauses, sites:
         reg | mem | fetch | weaver-drop | weaver-delay[:<cycles>]
         e.g. `reg=0.001,mem=0.0005,weaver-drop=0.01`
  ALGO:  pr | bfs | sssp | cc | spmv          (default bfs)
  S:     svm | em | wm | cm | sw | eghw       (default sw)
  GSPEC: powerlaw:V:E:ALPHA:SEED | uniform:V:E:SEED | rmat:SCALE:E:SEED |
         grid:W:H:KEEP:SEED

  --runs N       injected runs (default 200)
  --seed N       campaign seed; run i uses child_seed(seed, i) (default 0)
  --retries N    launch retries after a Weaver response timeout (default 2)
  --jobs N       worker threads for injected runs (default 1). Any value
                 produces byte-identical output; results fold in run order.
  --no-fallback  forbid degrading to S_wm when Weaver retries exhaust —
                 such runs classify as hangs instead of masked
  --out FILE     also write the summary JSON to FILE (`-` = stdout, which
                 already carries it)
  --details      print one line per run (index, seed, class, detail)

  With no graph flag, a small built-in uniform graph is used so a default
  campaign finishes quickly.

JOURNAL / RESUME:
  --journal FILE  append-only JSONL journal: a header identifying the
                 campaign, then one line per completed run, flushed as
                 runs finish. With a journal, SIGINT/SIGTERM stop the
                 campaign gracefully at a run boundary (exit 5)
  --resume       re-run only the indices the journal is missing, then
                 render the summary — byte-identical to the uninterrupted
                 campaign at any --jobs value. The journal must have been
                 written by the same campaign (spec, seed, runs, graph,
                 config); a torn final line from a kill is tolerated
  --max-wall-secs N  wall-clock watchdog: request a graceful stop after N
                 seconds

EXIT CODES:
  0 campaign ran, every run classified, no panics | 1 campaign failed
  (golden run error, a run escaped classification, or a panic in the
  machine model) | 2 usage error | 5 stopped early by a signal or the
  watchdog — completed runs are journaled, finish with --resume"
    );
    exit(2)
}

const FLAGS: FlagSpec = FlagSpec {
    values: &[
        "inject",
        "runs",
        "seed",
        "graph",
        "dataset",
        "gen",
        "algo",
        "schedule",
        "iters",
        "source",
        "config",
        "retries",
        "jobs",
        "out",
        "journal",
        "max-wall-secs",
    ],
    switches: &["no-fallback", "details", "resume"],
    short: &[],
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::version("swfault", &args) {
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("{e}");
        match e {
            CliError::Usage(_) => usage(),
            CliError::Input(_) => exit(1),
        }
    }
}

/// Reads every flag, then runs the campaign. Argument errors return
/// before the golden run starts; run failures exit directly.
fn run(args: &[String]) -> Result<(), CliError> {
    let flags = cli::parse(args, &FLAGS, "swfault")?;
    flags.no_positionals()?;
    let Some(spec_text) = flags.get("inject") else {
        return usage_err("--inject SPEC is required");
    };
    let spec =
        FaultSpec::parse(spec_text).or_else(|e| usage_err(format!("bad --inject spec: {e}")))?;
    let mut campaign = CampaignConfig::new(
        spec,
        cli::number(&flags, "seed", 0)?,
        cli::number(&flags, "runs", 200)?,
    );
    campaign.max_weaver_retries = cli::number(&flags, "retries", DEFAULT_WEAVER_RETRIES)?;
    campaign.jobs = cli::number(&flags, "jobs", 1)?;
    campaign.fallback = !flags.has("no-fallback");
    let schedule = cli::schedule(&flags)?.unwrap_or(Schedule::SparseWeaver);
    let cfg = cli::config(&flags, "small")?;
    if flags.get("journal").is_some_and(cli::is_stdio) {
        return usage_err("--journal expects a file path (the journal is append-only JSONL)");
    }
    if flags.has("resume") && !flags.has("journal") {
        return usage_err("--resume requires --journal FILE (the journal records completed runs)");
    }
    let max_wall_secs: u64 = cli::number(&flags, "max-wall-secs", 0)?;
    // Small default so `swfault --inject ... --runs 200` stays fast.
    let graph = cli::graph(&flags)?.unwrap_or_else(|| {
        generators::with_random_weights(&generators::uniform(24, 72, 7), 64, 0xC11)
    });
    let algo = cli::algorithm(&flags, &graph, Some("bfs"), |_| 0)?;
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if campaign.jobs > hardware {
        eprintln!(
            "warning: --jobs {} exceeds the {hardware} hardware thread(s) available — \
             extra workers only add contention",
            campaign.jobs
        );
    }

    let mut ctl = CampaignCtl {
        journal: flags.get("journal").map(PathBuf::from),
        resume: flags.has("resume"),
        stop: None,
    };
    if ctl.journal.is_some() || max_wall_secs > 0 {
        let stop = sparseweaver::shutdown::stop_flag();
        sparseweaver::shutdown::install_signal_handler(&stop);
        if max_wall_secs > 0 {
            sparseweaver::shutdown::spawn_watchdog(&stop, max_wall_secs);
        }
        ctl.stop = Some(stop);
    }

    let started = std::time::Instant::now();
    let result = run_campaign_with(&cfg, &graph, algo.as_ref(), schedule, &campaign, &ctl)
        .unwrap_or_else(|e| match e {
            FrameworkError::Interrupted { .. } => {
                eprintln!("campaign stopped: {e}");
                exit(5)
            }
            _ => {
                eprintln!("campaign failed: {e}");
                exit(1)
            }
        });
    let elapsed = started.elapsed();
    if let Some(kind) = result.journal_error {
        eprintln!(
            "warning: journal append failed ({kind:?}) — a later --resume may re-run \
             some completed runs"
        );
    }

    if flags.has("details") {
        for run in &result.runs {
            eprintln!(
                "run {:>4}  seed {:#018x}  {:<14} {}",
                run.index,
                run.seed,
                run.outcome.label(),
                run.detail
            );
        }
    }
    let json = result.summary.to_json();
    println!("{json}");
    // Human-facing throughput line on stderr only: stdout must stay
    // byte-identical so `scripts/check_fault_campaign.sh` can diff it.
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        f64::from(campaign.runs) / secs
    } else {
        f64::INFINITY
    };
    let s = &result.summary;
    eprintln!(
        "{} runs in {:.3}s ({:.1} runs/s, jobs={}): \
         masked {} | sdc {} | detected-crash {} | hang {}",
        campaign.runs, secs, rate, campaign.jobs, s.masked, s.sdc, s.detected_crash, s.hang
    );
    if let Some(path) = flags.get("out") {
        if cli::is_stdio(path) {
            // The summary JSON already went to stdout above; writing it
            // again would duplicate the artifact.
            eprintln!("summary already on stdout (--out -)");
        } else {
            write_atomic(Path::new(path), format!("{json}\n").as_bytes()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!("summary written to {path}");
        }
    }
    if result.panics > 0 {
        eprintln!(
            "FAIL: {} run(s) panicked — the machine model must surface faults as typed errors",
            result.panics
        );
        exit(1)
    }
    if !result.summary.is_classified() {
        eprintln!("FAIL: outcome classes do not sum to the number of runs");
        exit(1)
    }
    Ok(())
}
