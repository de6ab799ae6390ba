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

use std::collections::HashMap;
use std::path::Path;
use std::process::exit;

use sparseweaver::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use sparseweaver::core::campaign::{run_campaign_with, CampaignConfig, CampaignCtl};
use sparseweaver::core::runtime::DEFAULT_WEAVER_RETRIES;
use sparseweaver::core::{FrameworkError, Schedule};
use sparseweaver::fault::FaultSpec;
use sparseweaver::graph::{dataset, generators, io, Csr, DatasetId};
use sparseweaver::sim::GpuConfig;
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
  GSPEC: powerlaw:V:E:ALPHA:SEED | uniform:V:E:SEED | rmat:SCALE:E:SEED

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

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let allowed = [
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
        "no-fallback",
        "out",
        "details",
        "journal",
        "resume",
        "max-wall-secs",
    ];
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument `{}`", args[i]);
            usage()
        };
        if !allowed.contains(&name) {
            eprintln!("unknown flag `--{name}`");
            usage()
        }
        let next_is_value = args
            .get(i + 1)
            .map(|n| !n.starts_with("--"))
            .unwrap_or(false);
        if next_is_value {
            flags.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(name.to_string(), String::new());
            i += 1;
        }
    }
    flags
}

fn numeric_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> T {
    match flags.get(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{name} expects a number, got `{v}`");
            exit(2)
        }),
    }
}

fn parse_schedule(s: &str) -> Schedule {
    match s {
        "svm" | "S_vm" => Schedule::Svm,
        "em" | "sem" | "S_em" => Schedule::Sem,
        "wm" | "swm" | "S_wm" => Schedule::Swm,
        "cm" | "scm" | "S_cm" => Schedule::Scm,
        "sw" | "weaver" | "sparseweaver" => Schedule::SparseWeaver,
        "eghw" => Schedule::Eghw,
        other => {
            eprintln!("unknown schedule `{other}`");
            usage()
        }
    }
}

fn parse_gen(spec: &str) -> Csr {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |i: usize| -> u64 {
        parts
            .get(i)
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("bad generator spec `{spec}`");
                exit(2)
            })
    };
    let fnum = |i: usize| -> f64 {
        parts
            .get(i)
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("bad generator spec `{spec}`");
                exit(2)
            })
    };
    let base = match parts.first().copied() {
        Some("powerlaw") => generators::powerlaw(num(1) as usize, num(2) as usize, fnum(3), num(4)),
        Some("uniform") => generators::uniform(num(1) as usize, num(2) as usize, num(3)),
        Some("rmat") => generators::rmat(num(1) as u32, num(2) as usize, 0.57, 0.19, 0.19, num(3)),
        _ => {
            eprintln!("bad generator spec `{spec}`");
            usage()
        }
    };
    generators::with_random_weights(&base, 64, 0xC11)
}

fn load_graph(flags: &HashMap<String, String>) -> Csr {
    if let Some(path) = flags.get("graph") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        match io::parse_edge_list(&text) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                exit(1)
            }
        }
    } else if let Some(id) = flags.get("dataset") {
        let id = DatasetId::ALL
            .into_iter()
            .find(|d| {
                d.short_name().eq_ignore_ascii_case(id) || d.full_name().eq_ignore_ascii_case(id)
            })
            .unwrap_or_else(|| {
                eprintln!("unknown dataset `{id}` — see `swsim datasets`");
                exit(2)
            });
        dataset(id).graph
    } else if let Some(spec) = flags.get("gen") {
        parse_gen(spec)
    } else {
        // Small default so `swfault --inject ... --runs 200` stays fast.
        generators::with_random_weights(&generators::uniform(24, 72, 7), 64, 0xC11)
    }
}

fn config_for(flags: &HashMap<String, String>) -> GpuConfig {
    match flags.get("config").map(String::as_str) {
        None | Some("small") => GpuConfig::small_test(),
        Some("eval") | Some("evaluation") => GpuConfig::evaluation_default(),
        Some("vortex") => GpuConfig::vortex_default(),
        Some("8core") => GpuConfig::eight_core(),
        Some("regfile") => GpuConfig::regfile_limited(),
        Some(other) => {
            eprintln!("unknown config `{other}`");
            usage()
        }
    }
}

fn make_algo(flags: &HashMap<String, String>, graph: &Csr) -> Box<dyn Algorithm> {
    let iters: u32 = numeric_flag(flags, "iters", 5);
    let source: u32 = numeric_flag(flags, "source", 0);
    let _ = graph;
    match flags.get("algo").map(String::as_str) {
        None | Some("bfs") => Box::new(Bfs::new(source)),
        Some("pr") | Some("pagerank") => Box::new(PageRank::new(iters)),
        Some("sssp") => Box::new(Sssp::new(source)),
        Some("cc") => Box::new(ConnectedComponents::new()),
        Some("spmv") => Box::new(Spmv::new()),
        Some(other) => {
            eprintln!("unknown algorithm `{other}` (pr | bfs | sssp | cc | spmv)");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("swfault {}", sparseweaver::VERSION);
        return;
    }
    let flags = parse_flags(&args);
    let Some(spec_text) = flags.get("inject") else {
        eprintln!("--inject SPEC is required");
        usage()
    };
    let spec = FaultSpec::parse(spec_text).unwrap_or_else(|e| {
        eprintln!("bad --inject spec: {e}");
        exit(2)
    });
    let mut campaign = CampaignConfig::new(
        spec,
        numeric_flag(&flags, "seed", 0),
        numeric_flag(&flags, "runs", 200),
    );
    campaign.max_weaver_retries = numeric_flag(&flags, "retries", DEFAULT_WEAVER_RETRIES);
    campaign.jobs = numeric_flag(&flags, "jobs", 1);
    campaign.fallback = !flags.contains_key("no-fallback");
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if campaign.jobs > hardware {
        eprintln!(
            "warning: --jobs {} exceeds the {hardware} hardware thread(s) available — \
             extra workers only add contention",
            campaign.jobs
        );
    }
    let graph = load_graph(&flags);
    let algo = make_algo(&flags, &graph);
    let schedule = parse_schedule(flags.get("schedule").map(String::as_str).unwrap_or("sw"));
    let cfg = config_for(&flags);

    let journal = match flags.get("journal") {
        Some(p) if p.is_empty() || p == "-" => {
            eprintln!("--journal expects a file path (the journal is append-only JSONL)");
            exit(2)
        }
        Some(p) => Some(std::path::PathBuf::from(p)),
        None => None,
    };
    let resume = flags.contains_key("resume");
    if resume && journal.is_none() {
        eprintln!("--resume requires --journal FILE (the journal records completed runs)");
        exit(2)
    }
    let max_wall_secs: u64 = numeric_flag(&flags, "max-wall-secs", 0);
    let mut ctl = CampaignCtl {
        journal,
        resume,
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

    if flags.contains_key("details") {
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
        if path.is_empty() {
            eprintln!("--out expects a file path (or `-` for stdout)");
            exit(2)
        }
        if path == "-" {
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
}
