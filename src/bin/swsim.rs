//! `swsim` — run graph algorithms on the simulated SparseWeaver GPU from
//! the command line.
//!
//! ```text
//! swsim run   --dataset D_hw --algo pr --schedule sw [--iters 5] [--json]
//! swsim run   --graph edges.txt --algo bfs --schedule svm --source 0
//! swsim run   --gen powerlaw:2000:30000:1.9:42 --algo sssp --schedule sw
//! swsim gen   --dataset D_g500 -o g500.el
//! swsim disasm --algo pr --schedule sw
//! swsim datasets
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

use sparseweaver::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use sparseweaver::core::runtime::CheckpointCtl;
use sparseweaver::core::{Checkpoint, FrameworkError, Schedule, Session};
use sparseweaver::fault::FaultSpec;
use sparseweaver::graph::{dataset, generators, io, Csr, DatasetId};
use sparseweaver::lint::LintLevel;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::codec::write_atomic;
use sparseweaver::trace::{export, CategoryMask, TraceConfig};

fn usage() -> ! {
    eprintln!(
        "swsim — SparseWeaver GPU simulator CLI

USAGE:
  swsim run    (--graph FILE | --dataset ID | --gen SPEC) --algo ALGO --schedule S
               [--iters N] [--source V] [--config vortex|eval|small|8core|regfile]
               [--json] [--all-schedules]
               [--trace FILE [--trace-level warp|mem|weaver|all]] [--metrics-out FILE]
               [--sample-every N] [--trace-out FILE.jsonl] [--profile-out FILE]
               [--mem-trace-out FILE] [--lint off|warn|deny] [--analyze]
               [--regalloc on|off] [--inject SPEC [--seed N]] [--hang-report FILE]
               [--checkpoint-out FILE [--checkpoint-every N]] [--max-wall-secs N]
               [--stop-after-launches N]
  swsim resume CKPT [--checkpoint-out FILE] [--checkpoint-every N]
               [--max-wall-secs N] [--stop-after-launches N] [--json]
  swsim gen    (--dataset ID | --gen SPEC) -o FILE
  swsim disasm --algo ALGO --schedule S [--config ...]
  swsim datasets
  swsim --version

  ALGO:  pr | bfs | sssp | cc | spmv   (sssp accepts --worklist)
  S:     svm | em | wm | cm | sw | eghw
  SPEC:  powerlaw:V:E:ALPHA:SEED | uniform:V:E:SEED | rmat:SCALE:E:SEED | grid:W:H:KEEP:SEED
  ID:    one of `swsim datasets` (e.g. D_hw)

TRACING:
  --trace FILE        write a Chrome-trace JSON (load in Perfetto / chrome://tracing)
  --trace-level L     event categories: warp | mem | weaver | all (default all)
  --sample-every N    counter-sample interval in cycles (default 1000)
  --metrics-out FILE  write a metrics-JSON document (counter time series)
  --trace-out FILE    stream events as JSONL (one object per line, nothing evicted)

PROFILING:
  --profile-out FILE  write a deterministic profile.json artifact: top-down
                      cycle accounting, latency histograms (per memory
                      level, Weaver round-trips, gather iterations) with
                      p50/p90/p99, and core/warp load-imbalance summaries;
                      read it with the `swprof` tool

MEMORY TRACE:
  --mem-trace-out FILE  capture a compact binary per-warp memory-access
                      trace (swmtrace-v1: coalesced line accesses with
                      core/warp/cycle/rw/level, kernel launches, barriers)
                      for offline cache-geometry sweeps with `swreplay`

  Artifact flags (--metrics-out, --trace-out, --hang-report, --profile-out,
  --mem-trace-out) accept `-` as the path to write to stdout instead of a file; the run
  summary then moves to stderr so stdout is exactly the artifact.

LINTING:
  --lint LEVEL        static kernel verifier: off | warn | deny (default deny);
                      `deny` rejects kernels with error findings before launch
                      (see also the standalone `swlint` tool)
  --analyze           also run the abstract-interpretation analyzer (SW-L5xx:
                      value ranges, static OOB/race proofs, coalescing
                      advisories) over each schedule's kernels before running,
                      printing its findings; a *proved* out-of-bounds access
                      (SW-L501) rejects the kernel under --lint deny

REGISTER ALLOCATION:
  --regalloc on|off   liveness-based register allocation before launch
                      (default on); `off` runs template output verbatim

FAULT INJECTION:
  --inject SPEC       deterministic fault injection, e.g.
                      `reg=0.001,mem=0.0005,weaver-drop=0.01`; sites:
                      reg | mem | fetch | weaver-drop | weaver-delay
                      (see docs/robustness.md and the `swfault` tool)
  --seed N            injector seed (default 0); same seed, same faults
  --hang-report FILE  on deadlock / cycle limit / Weaver timeout, write a
                      structured hang report (per-warp PC, thread masks,
                      Weaver FSM state, queue occupancy) as JSON
  --fallback on|off   graceful degradation to S_wm after Weaver-timeout
                      retries exhaust (default on); `off` surfaces the
                      timeout as a hang instead

CHECKPOINT / RESUME:
  --checkpoint-out FILE  write a binary `swckpt` checkpoint (format
                      version 2) of the complete simulator state
                      (atomically: temp file + rename) at launch
                      boundaries; `swsim resume FILE` continues the run
                      bit-identically. Incompatible with --all-schedules,
                      --mem-trace-out, and `--trace-out -`
  --checkpoint-every N  checkpoint every N completed kernel launches
                      (default 0: only when the run is stopped early)
  --max-wall-secs N   wall-clock watchdog: request a graceful stop after N
                      seconds (a final checkpoint is written when
                      --checkpoint-out is set)
  --stop-after-launches N  deterministic stop bound: behave exactly like a
                      signal/watchdog stop once N launches have completed
                      (counted cumulatively across a resume)

  With any of these flags, SIGINT/SIGTERM also request a graceful stop at
  the next launch boundary instead of killing the process mid-write.
  `swsim resume` rebuilds the run from the flags embedded in the
  checkpoint; only the flags listed above may be given again (stop budgets
  are per-invocation and are not inherited). A damaged, version-1, or
  mismatched checkpoint exits 1 with a typed error, refused before the
  run or while the machine state is restored.

EXIT CODES:
  0 success | 1 run error | 2 usage error, or a kernel rejected by the
  static verifier (--lint deny) | 3 run succeeded but the --trace-out
  stream hit an I/O error (file truncated) | 4 hang — deadlock, cycle
  limit or Weaver timeout (report written if --hang-report was given) |
  5 stopped early by a signal, the watchdog, or --stop-after-launches
  (resumable from the checkpoint if --checkpoint-out was set)"
    );
    exit(2)
}

/// Flags each subcommand accepts; anything else is a usage error.
fn check_flags(cmd: &str, flags: &HashMap<String, String>) {
    let allowed: &[&str] = match cmd {
        "run" => &[
            "graph",
            "dataset",
            "gen",
            "algo",
            "schedule",
            "iters",
            "source",
            "config",
            "json",
            "all-schedules",
            "worklist",
            "trace",
            "trace-level",
            "sample-every",
            "metrics-out",
            "trace-out",
            "profile-out",
            "mem-trace-out",
            "lint",
            "analyze",
            "regalloc",
            "inject",
            "seed",
            "hang-report",
            "fallback",
            "checkpoint-out",
            "checkpoint-every",
            "max-wall-secs",
            "stop-after-launches",
        ],
        "resume" => &[
            "checkpoint-out",
            "checkpoint-every",
            "max-wall-secs",
            "stop-after-launches",
            "json",
        ],
        "gen" => &["graph", "dataset", "gen", "out"],
        "disasm" => &["algo", "schedule", "config"],
        "datasets" => &[],
        _ => return,
    };
    for k in flags.keys() {
        if !allowed.contains(&k.as_str()) {
            eprintln!("unknown flag `--{k}` for `swsim {cmd}`");
            exit(2)
        }
    }
}

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
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
        } else if a == "-o" {
            flags.insert("out".into(), args.get(i + 1).cloned().unwrap_or_default());
            i += 2;
        } else {
            pos.push(a.clone());
            i += 1;
        }
    }
    (pos, flags)
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

fn parse_dataset(s: &str) -> DatasetId {
    DatasetId::ALL
        .into_iter()
        .find(|d| d.short_name().eq_ignore_ascii_case(s) || d.full_name().eq_ignore_ascii_case(s))
        .unwrap_or_else(|| {
            eprintln!("unknown dataset `{s}` — see `swsim datasets`");
            exit(2)
        })
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
        Some("grid") => {
            generators::road_grid(num(1) as usize, num(2) as usize, fnum(3), 0.01, num(4))
        }
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
        dataset(parse_dataset(id)).graph
    } else if let Some(spec) = flags.get("gen") {
        parse_gen(spec)
    } else {
        eprintln!("one of --graph / --dataset / --gen is required");
        usage()
    }
}

fn config_for(flags: &HashMap<String, String>) -> GpuConfig {
    match flags.get("config").map(String::as_str) {
        None | Some("eval") | Some("evaluation") => GpuConfig::evaluation_default(),
        Some("vortex") => GpuConfig::vortex_default(),
        Some("small") => GpuConfig::small_test(),
        Some("8core") => GpuConfig::eight_core(),
        Some("regfile") => GpuConfig::regfile_limited(),
        Some(other) => {
            eprintln!("unknown config `{other}`");
            usage()
        }
    }
}

/// Parses `--regalloc on|off` (default: on).
fn regalloc_flag(flags: &HashMap<String, String>) -> bool {
    match flags.get("regalloc").map(String::as_str) {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            eprintln!("--regalloc expects on|off, got `{other}`");
            exit(2)
        }
    }
}

/// Parses a numeric flag strictly: present-but-malformed is a usage error,
/// absent falls back to `default`.
fn numeric_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: impl FnOnce() -> T,
) -> T {
    match flags.get(name) {
        None => default(),
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{name} expects a number, got `{v}`");
            exit(2)
        }),
    }
}

fn make_algo(flags: &HashMap<String, String>, graph: &Csr) -> Box<dyn Algorithm> {
    let iters: u32 = numeric_flag(flags, "iters", || 5);
    let source: u32 = numeric_flag(flags, "source", || {
        (0..graph.num_vertices() as u32)
            .max_by_key(|&v| graph.degree(v))
            .unwrap_or(0)
    });
    match flags.get("algo").map(String::as_str) {
        Some("pr") | Some("pagerank") => Box::new(PageRank::new(iters)),
        Some("bfs") => Box::new(Bfs::new(source)),
        Some("sssp") => Box::new(Sssp::new(source).with_worklist(flags.contains_key("worklist"))),
        Some("cc") => Box::new(ConnectedComponents::new()),
        Some("spmv") => Box::new(Spmv::new()),
        _ => {
            eprintln!("--algo is required (pr | bfs | sssp | cc | spmv)");
            usage()
        }
    }
}

/// Validates `run` flag combinations, returning the tracing configuration
/// (if any), the output paths for the two export formats, and the
/// streaming JSONL path.
#[allow(clippy::type_complexity)]
fn trace_setup(
    flags: &HashMap<String, String>,
) -> (
    Option<TraceConfig>,
    Option<String>,
    Option<String>,
    Option<String>,
) {
    let path_flag = |name: &str| -> Option<String> {
        flags.get(name).map(|v| {
            if v.is_empty() {
                eprintln!("--{name} expects a file path");
                exit(2)
            }
            v.clone()
        })
    };
    let trace_path = path_flag("trace");
    let metrics_path = path_flag("metrics-out");
    let trace_out = path_flag("trace-out");
    let tracing = trace_path.is_some() || metrics_path.is_some() || trace_out.is_some();
    if !tracing {
        for dependent in ["trace-level", "sample-every"] {
            if flags.contains_key(dependent) {
                eprintln!("--{dependent} requires --trace, --metrics-out or --trace-out");
                exit(2)
            }
        }
        return (None, None, None, None);
    }
    if flags.contains_key("all-schedules") {
        eprintln!("tracing flags trace a single schedule; drop --all-schedules");
        exit(2)
    }
    let categories = match flags.get("trace-level") {
        None => CategoryMask::ALL,
        Some(level) => CategoryMask::parse(level).unwrap_or_else(|| {
            eprintln!("unknown trace level `{level}` (warp | mem | weaver | all)");
            exit(2)
        }),
    };
    let sample_every: u64 = numeric_flag(flags, "sample-every", || 1000);
    let cfg = TraceConfig {
        categories,
        sample_every,
        ..TraceConfig::default()
    };
    (Some(cfg), trace_path, metrics_path, trace_out)
}

/// Parses `--lint LEVEL` (default: deny).
fn lint_level(flags: &HashMap<String, String>) -> LintLevel {
    match flags.get("lint") {
        None => LintLevel::default(),
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        }),
    }
}

/// Writes an artifact to `path`, or to stdout when `path` is `-`. The
/// confirmation line is suppressed in `--json` mode, skipped for stdout
/// itself, and routed to stderr when some other artifact is streaming
/// to stdout (it would corrupt that artifact's document).
fn write_artifact(path: &str, body: String, what: &str, json: bool, stdout_is_artifact: bool) {
    if path == "-" {
        print!("{body}");
        return;
    }
    // Atomic (temp file + rename): a crash or full disk mid-write never
    // leaves a half-written artifact at the destination path.
    write_atomic(Path::new(path), body.as_bytes()).unwrap_or_else(|e| {
        eprintln!("cannot write {what} to {path}: {e}");
        exit(1)
    });
    if !json {
        if stdout_is_artifact {
            eprintln!("{what} written to {path}");
        } else {
            println!("{what} written to {path}");
        }
    }
}

/// Shared driver behind `swsim run` and `swsim resume`. `argv` is the
/// argument vector embedded into checkpoints (for `run`, this invocation's
/// own arguments; for `resume`, the original run's, kept canonical so a
/// resumed run's checkpoints are themselves resumable). `resume` carries
/// the loaded checkpoint when continuing an interrupted run.
fn cmd_run(argv: Vec<String>, flags: HashMap<String, String>, resume: Option<Checkpoint>) {
    let sources = ["graph", "dataset", "gen"]
        .iter()
        .filter(|s| flags.contains_key(**s))
        .count();
    if sources > 1 {
        eprintln!("--graph, --dataset and --gen are mutually exclusive");
        exit(2)
    }
    if flags.contains_key("all-schedules") && flags.contains_key("schedule") {
        eprintln!("--schedule conflicts with --all-schedules");
        exit(2)
    }
    let (trace_cfg, trace_path, metrics_path, trace_out) = trace_setup(&flags);
    let profile_out = flags.get("profile-out").map(|v| {
        if v.is_empty() {
            eprintln!("--profile-out expects a file path (or `-` for stdout)");
            exit(2)
        }
        v.clone()
    });
    if profile_out.is_some() && flags.contains_key("all-schedules") {
        eprintln!("--profile-out profiles a single schedule; drop --all-schedules");
        exit(2)
    }
    let mem_trace_out = flags.get("mem-trace-out").map(|v| {
        if v.is_empty() {
            eprintln!("--mem-trace-out expects a file path (or `-` for stdout)");
            exit(2)
        }
        v.clone()
    });
    if mem_trace_out.is_some() && flags.contains_key("all-schedules") {
        eprintln!("--mem-trace-out captures a single schedule; drop --all-schedules");
        exit(2)
    }
    let opt_numeric = |name: &str| -> Option<u64> {
        flags.get(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{name} expects a number, got `{v}`");
                exit(2)
            })
        })
    };
    let checkpoint_out = flags.get("checkpoint-out").map(|v| {
        if v.is_empty() {
            eprintln!("--checkpoint-out expects a file path");
            exit(2)
        }
        if v == "-" {
            eprintln!("--checkpoint-out is a binary artifact and cannot stream to stdout");
            exit(2)
        }
        v.clone()
    });
    let checkpoint_every: u64 = numeric_flag(&flags, "checkpoint-every", || 0);
    let max_wall_secs = opt_numeric("max-wall-secs");
    let stop_after_launches = opt_numeric("stop-after-launches");
    if flags.contains_key("checkpoint-every") && checkpoint_out.is_none() {
        eprintln!("--checkpoint-every requires --checkpoint-out");
        exit(2)
    }
    if checkpoint_out.is_some() {
        if flags.contains_key("all-schedules") {
            eprintln!("--checkpoint-out checkpoints a single schedule; drop --all-schedules");
            exit(2)
        }
        if mem_trace_out.is_some() {
            eprintln!(
                "--checkpoint-out cannot be combined with --mem-trace-out: the \
                 memory-trace recorder is not part of the checkpointed state"
            );
            exit(2)
        }
        if trace_out.as_deref() == Some("-") {
            eprintln!(
                "--checkpoint-out cannot be combined with `--trace-out -`: a stdout \
                 event stream cannot be rewound on resume"
            );
            exit(2)
        }
    }
    let graph = load_graph(&flags);
    let algo = make_algo(&flags, &graph);
    let cfg = config_for(&flags);
    let mut session = Session::new(cfg);
    session.profile = profile_out.is_some();
    session.trace = trace_cfg;
    session.trace_out = trace_out.clone().map(std::path::PathBuf::from);
    session.mem_trace_out = mem_trace_out.clone().map(std::path::PathBuf::from);
    session.lint = lint_level(&flags);
    session.analyze = flags.contains_key("analyze");
    session.regalloc = regalloc_flag(&flags);
    if let Some(spec) = flags.get("inject") {
        session.inject = Some(FaultSpec::parse(spec).unwrap_or_else(|e| {
            eprintln!("bad --inject spec: {e}");
            exit(2)
        }));
        session.inject_seed = numeric_flag(&flags, "seed", || 0);
    } else if flags.contains_key("seed") {
        eprintln!("--seed requires --inject");
        exit(2)
    }
    session.fallback = match flags.get("fallback").map(String::as_str) {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            eprintln!("--fallback expects on|off, got `{other}`");
            exit(2)
        }
    };
    // Checkpointing and graceful shutdown: any of the stop/checkpoint
    // flags routes SIGINT/SIGTERM (and the wall-clock watchdog) to a
    // cooperative stop at the next launch boundary.
    if checkpoint_out.is_some() || max_wall_secs.is_some() || stop_after_launches.is_some() {
        let stop = sparseweaver::shutdown::stop_flag();
        sparseweaver::shutdown::install_signal_handler(&stop);
        if let Some(secs) = max_wall_secs {
            sparseweaver::shutdown::spawn_watchdog(&stop, secs);
        }
        session.checkpoint = Some(CheckpointCtl {
            out: checkpoint_out.clone().map(PathBuf::from),
            every: checkpoint_every,
            argv: argv.clone(),
            stop: Some(stop),
            stop_after_launches,
            ..CheckpointCtl::default()
        });
    }
    let hang_report_path = flags.get("hang-report").map(|v| {
        if v.is_empty() {
            eprintln!("--hang-report expects a file path");
            exit(2)
        }
        v.clone()
    });
    let json = flags.contains_key("json");
    // With an artifact streaming to stdout (path `-`), the run summary
    // moves to stderr so stdout parses as one clean document.
    let stdout_is_artifact = [
        &trace_path,
        &metrics_path,
        &trace_out,
        &profile_out,
        &mem_trace_out,
    ]
    .iter()
    .any(|p| p.as_deref() == Some("-"))
        || hang_report_path.as_deref() == Some("-");
    macro_rules! summary {
        ($($t:tt)*) => {
            if stdout_is_artifact { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }
    let mut sink_failed = false;
    let schedules: Vec<Schedule> = if let Some(ck) = &resume {
        // The checkpoint records the schedule that was actually executing
        // (after a graceful-degradation fallback this is `S_wm`, not the
        // originally requested scheme).
        vec![ck.schedule]
    } else if flags.contains_key("all-schedules") {
        Schedule::ALL.to_vec()
    } else {
        vec![parse_schedule(
            flags
                .get("schedule")
                .map(String::as_str)
                .unwrap_or_else(|| usage()),
        )]
    };
    if !json {
        summary!(
            "graph: {} vertices, {} edges | algorithm: {}",
            graph.num_vertices(),
            graph.num_edges(),
            algo.name()
        );
    }
    let mut baseline = None;
    for schedule in schedules {
        if session.analyze {
            match session.analyze_kernels(algo.as_ref(), schedule) {
                Ok(reports) => {
                    for r in &reports {
                        if json {
                            summary!("{}", r.to_json());
                        } else if !r.is_clean() || r.advice_count() > 0 {
                            for line in r.to_text().lines().skip(1) {
                                summary!("  {line}");
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("analyze failed: {e}");
                    exit(1)
                }
            }
        }
        let result = match &resume {
            Some(ck) => session.resume(&graph, algo.as_ref(), ck),
            None => session.run(&graph, algo.as_ref(), schedule),
        };
        let report = match result {
            Ok(report) => report,
            Err(e @ FrameworkError::Lint { .. }) => {
                eprintln!("run failed: {e}");
                exit(2)
            }
            Err(e @ FrameworkError::Interrupted { .. }) => {
                eprintln!("run stopped: {e}");
                exit(5)
            }
            Err(FrameworkError::Sim(e)) if e.hang_report().is_some() => {
                eprintln!("run failed: {e}");
                if let Some(path) = &hang_report_path {
                    let hang = e.hang_report().expect("variant carries a report");
                    let mut body = hang.to_json();
                    body.push('\n');
                    if path == "-" {
                        print!("{body}");
                    } else {
                        write_atomic(Path::new(path), body.as_bytes()).unwrap_or_else(|err| {
                            eprintln!("cannot write hang report to {path}: {err}");
                            exit(1)
                        });
                        eprintln!("hang report written to {path}");
                    }
                }
                exit(4)
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                exit(1)
            }
        };
        if json {
            summary!(
                "{}",
                json_line(&[
                    ("schedule", format!("{:?}", schedule.paper_name())),
                    ("algorithm", format!("{:?}", report.algorithm)),
                    ("cycles", report.cycles.to_string()),
                    ("instructions", report.stats.instructions.to_string()),
                    ("launches", report.stats.launches.to_string()),
                    ("ipc", format!("{:.4}", report.stats.ipc())),
                    ("dram_accesses", report.stats.mem.dram_accesses.to_string()),
                    (
                        "kernel_high_water",
                        report.occupancy.kernel_high_water.to_string()
                    ),
                    ("warps_resident", report.occupancy.resident.to_string()),
                    ("warps_configured", report.occupancy.configured.to_string()),
                ])
            );
        } else {
            let speed = baseline
                .map(|b: u64| format!("  {:.2}x vs first", b as f64 / report.cycles.max(1) as f64))
                .unwrap_or_default();
            let occ = &report.occupancy;
            let capped = if occ.resident < occ.configured {
                format!(
                    "  [regfile cap: {}/{} warps resident, hw {}]",
                    occ.resident, occ.configured, occ.kernel_high_water
                )
            } else {
                String::new()
            };
            summary!(
                "{:<13} {:>12} cycles  {:>10} instrs  ipc {:>5.2}  {} launches{speed}{capped}",
                schedule.to_string(),
                report.cycles,
                report.stats.instructions,
                report.stats.ipc(),
                report.stats.launches,
            );
        }
        if let Some(kind) = report.sink_error {
            eprintln!("warning: trace event stream is incomplete ({kind:?}); events were lost");
            sink_failed = true;
        }
        if let Some(mt) = &report.mem_trace {
            match mt.sink_error {
                Some(kind) => {
                    eprintln!(
                        "warning: memory trace is incomplete ({kind:?}); the capture is truncated"
                    );
                    sink_failed = true;
                }
                None => {
                    if let Some(path) = &mem_trace_out {
                        if !json && path != "-" {
                            summary!(
                                "memory trace written to {path} ({} records, {} bytes)",
                                mt.records,
                                mt.bytes
                            );
                        }
                    }
                }
            }
        }
        if baseline.is_none() {
            baseline = Some(report.cycles);
        }
        if let Some(trace) = &report.trace {
            if let Some(path) = &trace_path {
                write_artifact(
                    path,
                    export::chrome_trace_json(trace),
                    "chrome trace",
                    json,
                    stdout_is_artifact,
                );
            }
            if let Some(path) = &metrics_path {
                write_artifact(
                    path,
                    export::metrics_json(trace),
                    "metrics",
                    json,
                    stdout_is_artifact,
                );
            }
            if let Some(path) = &trace_out {
                if !json && path != "-" {
                    summary!("event stream written to {path}");
                }
            }
        }
        if let Some(path) = &profile_out {
            let body = sparseweaver::core::profile::render(&report, &cfg, &graph);
            write_artifact(path, body, "profile", json, stdout_is_artifact);
        }
    }
    if sink_failed {
        exit(3)
    }
}

/// `swsim resume CKPT`: loads the checkpoint, rebuilds the run from the
/// flags embedded in it, and continues to completion (bit-identical to
/// the uninterrupted run). Stop budgets (`--max-wall-secs`,
/// `--stop-after-launches`) are per-invocation and deliberately not
/// inherited from the embedded flags — the bound that interrupted the
/// original run would otherwise re-fire immediately. The checkpoint
/// output path and cadence *are* inherited, so a resumed run keeps
/// writing resumable checkpoints unless overridden.
fn cmd_resume(pos: Vec<String>, flags: HashMap<String, String>) {
    let Some(path) = pos.first() else {
        eprintln!("swsim resume needs a checkpoint path");
        usage()
    };
    let ck = Checkpoint::load(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot resume from {path}: {e}");
        exit(1)
    });
    if ck.argv.first().map(String::as_str) != Some("run") {
        eprintln!(
            "checkpoint {path} embeds an unexpected command {:?} (expected `run`)",
            ck.argv.first()
        );
        exit(1)
    }
    let (_pos, mut eff) = parse_flags(&ck.argv[1..]);
    check_flags("run", &eff);
    eff.remove("max-wall-secs");
    eff.remove("stop-after-launches");
    for k in [
        "checkpoint-out",
        "checkpoint-every",
        "max-wall-secs",
        "stop-after-launches",
        "json",
    ] {
        if let Some(v) = flags.get(k) {
            eff.insert(k.to_string(), v.clone());
        }
    }
    cmd_run(ck.argv.clone(), eff, Some(ck))
}

fn json_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            if v.starts_with('"') || v.parse::<f64>().is_ok() {
                format!("\"{k}\":{v}")
            } else {
                format!("\"{k}\":\"{v}\"")
            }
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn cmd_gen(flags: HashMap<String, String>) {
    let graph = load_graph(&flags);
    let out = flags.get("out").cloned().unwrap_or_else(|| usage());
    let mut body = Vec::new();
    io::write_edge_list(&graph, &mut body).unwrap_or_else(|e| {
        eprintln!("cannot render edge list for {out}: {e}");
        exit(1)
    });
    write_atomic(Path::new(&out), &body).unwrap_or_else(|e| {
        eprintln!("cannot write edge list to {out}: {e}");
        exit(1)
    });
    println!(
        "wrote {} vertices, {} edges to {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
}

fn cmd_disasm(flags: HashMap<String, String>) {
    use sparseweaver::core::compiler::{build_gather_kernel, EdgeRegs, GatherOps};
    // A representative gather (PR-shaped accumulate) for inspection.
    struct Demo;
    impl GatherOps for Demo {
        fn emit_pro(&self, a: &mut sparseweaver::isa::Asm) -> Vec<sparseweaver::isa::Reg> {
            let p = a.reg();
            a.ldarg(p, 8);
            vec![p]
        }
        fn emit_compute(
            &self,
            a: &mut sparseweaver::isa::Asm,
            pro: &[sparseweaver::isa::Reg],
            e: &EdgeRegs,
            _x: bool,
        ) {
            let addr = a.reg();
            let old = a.reg();
            let one = a.reg();
            a.slli(addr, e.base, 3);
            a.add(addr, addr, pro[0]);
            a.li(one, 1);
            a.atom(sparseweaver::isa::AtomOp::Add, old, addr, one);
            a.free(one);
            a.free(old);
            a.free(addr);
        }
    }
    let schedule = parse_schedule(flags.get("schedule").map(String::as_str).unwrap_or("sw"));
    let cfg = config_for(&flags);
    let kernel = build_gather_kernel("demo", &Demo, schedule, &cfg);
    print!("{kernel}");
}

fn cmd_datasets() {
    println!(
        "{:<8} {:<20} {:>12} {:>12}",
        "id", "name", "paper |V|", "paper |E|"
    );
    for id in DatasetId::ALL {
        let (v, e) = id.paper_size();
        println!(
            "{:<8} {:<20} {:>12} {:>12}",
            id.short_name(),
            id.full_name(),
            v,
            e
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("swsim {}", sparseweaver::VERSION);
        return;
    }
    let Some(cmd) = args.first() else { usage() };
    let (pos, flags) = parse_flags(&args[1..]);
    check_flags(cmd, &flags);
    match cmd.as_str() {
        "run" => cmd_run(args.clone(), flags, None),
        "resume" => cmd_resume(pos, flags),
        "gen" => cmd_gen(flags),
        "disasm" => cmd_disasm(flags),
        "datasets" => cmd_datasets(),
        _ => usage(),
    }
}
