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

use std::path::{Path, PathBuf};
use std::process::exit;

use sparseweaver::cli::{self, usage_err, Args, CliError, FlagSpec};
use sparseweaver::core::profile::{config_fingerprint, graph_fingerprint};
use sparseweaver::core::runtime::CheckpointCtl;
use sparseweaver::core::{Checkpoint, FrameworkError, Schedule, Session};
use sparseweaver::fault::FaultSpec;
use sparseweaver::graph::{io, Csr, DatasetId};
use sparseweaver::lint::LintLevel;
use sparseweaver::trace::{export, json, CategoryMask, TraceConfig};

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
               [--inject SPEC [--seed N]] [--hang-report FILE]
               [--checkpoint-out FILE [--checkpoint-every N]] [--max-wall-secs N]
               [--stop-after-launches N]
  swsim resume CKPT [--checkpoint-out FILE] [--checkpoint-every N]
               [--max-wall-secs N] [--stop-after-launches N] [--json]
  swsim gen    (--dataset ID | --gen SPEC) -o FILE   (`-o -` writes to stdout)
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
  mismatched checkpoint, or one embedding a flag this build refuses,
  exits 1 with a typed error, refused before the run or while the
  machine state is restored.

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

/// `swsim run` flags; `swsim resume` re-parses the embedded argv with it.
const RUN: FlagSpec = FlagSpec {
    values: &[
        "graph",
        "dataset",
        "gen",
        "algo",
        "schedule",
        "iters",
        "source",
        "config",
        "trace",
        "trace-level",
        "sample-every",
        "metrics-out",
        "trace-out",
        "profile-out",
        "mem-trace-out",
        "lint",
        "inject",
        "seed",
        "hang-report",
        "fallback",
        "checkpoint-out",
        "checkpoint-every",
        "max-wall-secs",
        "stop-after-launches",
    ],
    switches: &["json", "all-schedules", "worklist", "analyze"],
    short: &[],
};

/// The `swsim resume` flags, each overriding the embedded run's.
const RESUME: FlagSpec = FlagSpec {
    values: &[
        "checkpoint-out",
        "checkpoint-every",
        "max-wall-secs",
        "stop-after-launches",
    ],
    switches: &["json"],
    short: &[],
};

const GEN: FlagSpec = FlagSpec {
    values: &["graph", "dataset", "gen", "out"],
    switches: &[],
    short: &[("-o", "out")],
};

const DISASM: FlagSpec = FlagSpec {
    values: &["algo", "schedule", "config"],
    ..FlagSpec::NONE
};

fn required_graph(flags: &Args) -> Result<Csr, CliError> {
    cli::graph(flags)?
        .ok_or_else(|| CliError::Usage("one of --graph / --dataset / --gen is required".into()))
}

/// Validates `run` flag combinations, returning the tracing configuration
/// (if any), the output paths for the two export formats, and the
/// streaming JSONL path.
#[allow(clippy::type_complexity)]
fn trace_setup(
    flags: &Args,
) -> Result<
    (
        Option<TraceConfig>,
        Option<String>,
        Option<String>,
        Option<String>,
    ),
    CliError,
> {
    let path = |name: &str| flags.get(name).map(String::from);
    let trace_path = path("trace");
    let metrics_path = path("metrics-out");
    let trace_out = path("trace-out");
    let tracing = trace_path.is_some() || metrics_path.is_some() || trace_out.is_some();
    if !tracing {
        for dependent in ["trace-level", "sample-every"] {
            if flags.has(dependent) {
                return usage_err(format!(
                    "--{dependent} requires --trace, --metrics-out or --trace-out"
                ));
            }
        }
        return Ok((None, None, None, None));
    }
    if flags.has("all-schedules") {
        return usage_err("tracing flags trace a single schedule; drop --all-schedules");
    }
    let categories = match flags.get("trace-level") {
        None => CategoryMask::ALL,
        Some(level) => CategoryMask::parse(level).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown trace level `{level}` (warp | mem | weaver | all)"
            ))
        })?,
    };
    let cfg = TraceConfig {
        categories,
        sample_every: cli::number(flags, "sample-every", 1000)?,
        ..TraceConfig::default()
    };
    Ok((Some(cfg), trace_path, metrics_path, trace_out))
}

/// Writes a one-line JSON artifact to `path`, or to stdout when `path`
/// is `-`. The confirmation line is suppressed in `--json` mode, skipped
/// for stdout itself, and routed to stderr when some other artifact is
/// streaming to stdout (it would corrupt that artifact's document).
fn write_artifact(path: &str, body: String, what: &str, json: bool, stdout_is_artifact: bool) {
    // A file is written atomically (temp file + rename): a crash or full
    // disk mid-write never leaves a half-written artifact at its path.
    cli::write_output(path, (body + "\n").as_bytes()).unwrap_or_else(|e| {
        eprintln!("cannot write {what} to {path}: {e}");
        exit(1)
    });
    if !json && !cli::is_stdio(path) {
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
fn cmd_run(argv: Vec<String>, flags: Args, resume: Option<Checkpoint>) -> Result<(), CliError> {
    flags.no_positionals()?;
    let all_schedules = flags.has("all-schedules");
    if all_schedules && flags.has("schedule") {
        return usage_err("--schedule conflicts with --all-schedules");
    }
    let (trace_cfg, trace_path, metrics_path, trace_out) = trace_setup(&flags)?;
    let profile_out = flags.get("profile-out").map(String::from);
    if profile_out.is_some() && all_schedules {
        return usage_err("--profile-out profiles a single schedule; drop --all-schedules");
    }
    let mem_trace_out = flags.get("mem-trace-out").map(String::from);
    if mem_trace_out.is_some() && all_schedules {
        return usage_err("--mem-trace-out captures a single schedule; drop --all-schedules");
    }
    let checkpoint_out = flags.get("checkpoint-out").map(String::from);
    let checkpoint_every: u64 = cli::number(&flags, "checkpoint-every", 0)?;
    let max_wall_secs = cli::opt_number(&flags, "max-wall-secs")?;
    let stop_after_launches = cli::opt_number(&flags, "stop-after-launches")?;
    if flags.has("checkpoint-every") && checkpoint_out.is_none() {
        return usage_err("--checkpoint-every requires --checkpoint-out");
    }
    if let Some(out) = &checkpoint_out {
        if cli::is_stdio(out) {
            return usage_err("--checkpoint-out is a binary artifact and cannot stream to stdout");
        }
        if all_schedules {
            return usage_err(
                "--checkpoint-out checkpoints a single schedule; drop --all-schedules",
            );
        }
        if mem_trace_out.is_some() {
            return usage_err(
                "--checkpoint-out cannot be combined with --mem-trace-out: the \
                 memory-trace recorder is not part of the checkpointed state",
            );
        }
        if trace_out.as_deref().is_some_and(cli::is_stdio) {
            return usage_err(
                "--checkpoint-out cannot be combined with `--trace-out -`: a stdout \
                 event stream cannot be rewound on resume",
            );
        }
    }
    let inject = match flags.get("inject") {
        Some(spec) => {
            Some(FaultSpec::parse(spec).or_else(|e| usage_err(format!("bad --inject spec: {e}")))?)
        }
        None if flags.has("seed") => return usage_err("--seed requires --inject"),
        None => None,
    };
    let cfg = cli::config(&flags, "eval")?;
    let mut session = Session::new(cfg);
    session.profile = profile_out.is_some();
    session.trace = trace_cfg;
    session.trace_out = trace_out.clone().map(PathBuf::from);
    session.mem_trace_out = mem_trace_out.clone().map(PathBuf::from);
    session.lint = flags
        .get("lint")
        .map_or(Ok(LintLevel::default()), str::parse)
        .map_err(CliError::Usage)?;
    session.analyze = flags.has("analyze");
    session.inject = inject;
    session.inject_seed = cli::number(&flags, "seed", 0)?;
    session.fallback = cli::on_off(&flags, "fallback", true)?;
    let schedules: Vec<Schedule> = if let Some(ck) = &resume {
        // The checkpoint records the schedule that was actually executing
        // (after a graceful-degradation fallback this is `S_wm`, not the
        // originally requested scheme).
        vec![ck.schedule]
    } else if all_schedules {
        Schedule::ALL.to_vec()
    } else {
        match cli::schedule(&flags)? {
            Some(s) => vec![s],
            None => return usage_err("--schedule is required (or --all-schedules)"),
        }
    };
    let graph = required_graph(&flags)?;
    let algo = cli::algorithm(&flags, &graph, None, cli::max_degree_vertex)?;
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
    let hang_report_path = flags.get("hang-report").map(String::from);
    let json = flags.has("json");
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
    .any(|p| p.as_deref().is_some_and(cli::is_stdio))
        || hang_report_path.as_deref().is_some_and(cli::is_stdio);
    macro_rules! summary {
        ($($t:tt)*) => {
            if stdout_is_artifact { eprintln!($($t)*) } else { println!($($t)*) }
        };
    }
    let mut sink_failed = false;
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
                    // A failed run reports on stderr.
                    let body = hang.to_json(
                        Some(config_fingerprint(&cfg)),
                        Some(graph_fingerprint(&graph)),
                    );
                    write_artifact(path, body, "hang report", json, true);
                }
                exit(4)
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                exit(1)
            }
        };
        if json {
            let record = json::object(|o| {
                let occ = &report.occupancy;
                o.field("schedule", schedule.paper_name())
                    .field("algorithm", &report.algorithm)
                    .field("cycles", report.cycles)
                    .field("instructions", report.stats.instructions)
                    .field("launches", report.stats.launches)
                    .field("ipc", (report.stats.ipc() * 1e4).round() / 1e4)
                    .field("dram_accesses", report.stats.mem.dram_accesses)
                    .field("kernel_high_water", occ.kernel_high_water)
                    .field("warps_resident", occ.resident)
                    .field("warps_configured", occ.configured);
            });
            summary!("{record}");
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
                        if !json && !cli::is_stdio(path) {
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
                    export::metrics_json(
                        trace,
                        Some(config_fingerprint(&cfg)),
                        Some(graph_fingerprint(&graph)),
                    ),
                    "metrics",
                    json,
                    stdout_is_artifact,
                );
            }
            if let Some(path) = &trace_out {
                if !json && !cli::is_stdio(path) {
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
    Ok(())
}

/// `swsim resume CKPT`: loads the checkpoint, rebuilds the run from the
/// flags embedded in it, and continues to completion (bit-identical to
/// the uninterrupted run). Stop budgets (`--max-wall-secs`,
/// `--stop-after-launches`) are per-invocation and deliberately not
/// inherited from the embedded flags — the bound that interrupted the
/// original run would otherwise re-fire immediately. The checkpoint
/// output path and cadence *are* inherited, so a resumed run keeps
/// writing resumable checkpoints unless overridden.
fn cmd_resume(flags: Args) -> Result<(), CliError> {
    let [path] = flags.positional.as_slice() else {
        return usage_err("swsim resume needs a checkpoint path");
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
    // The embedded argv is the checkpoint's content, not the user's
    // command line: a flag this build refuses makes the checkpoint
    // unusable (exit 1), not the invocation malformed (exit 2).
    let mut eff = cli::parse(&ck.argv[1..], &RUN, "swsim run").map_err(|e| {
        CliError::Input(format!(
            "cannot resume from {path}: the checkpoint's embedded run is refused: {e}"
        ))
    })?;
    eff.flags.remove("max-wall-secs");
    eff.flags.remove("stop-after-launches");
    eff.flags.extend(flags.flags);
    cmd_run(ck.argv.clone(), eff, Some(ck))
}

fn cmd_gen(flags: Args) -> Result<(), CliError> {
    flags.no_positionals()?;
    let Some(out) = flags.get("out") else {
        return usage_err("swsim gen needs -o FILE");
    };
    let graph = required_graph(&flags)?;
    let mut body = Vec::new();
    io::write_edge_list(&graph, &mut body).unwrap_or_else(|e| {
        eprintln!("cannot render edge list for {out}: {e}");
        exit(1)
    });
    cli::write_output(out, &body).unwrap_or_else(|e| {
        eprintln!("cannot write edge list to {out}: {e}");
        exit(1)
    });
    let note = format!(
        "wrote {} vertices, {} edges to {out}",
        graph.num_vertices(),
        graph.num_edges()
    );
    // With the edge list on stdout, the note must not corrupt it.
    if cli::is_stdio(out) {
        eprintln!("{note}");
    } else {
        println!("{note}");
    }
    Ok(())
}

fn cmd_disasm(flags: Args) -> Result<(), CliError> {
    flags.no_positionals()?;
    let schedule = cli::schedule(&flags)?.unwrap_or(Schedule::SparseWeaver);
    let cfg = cli::config(&flags, "eval")?;
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
    let kernel = build_gather_kernel("demo", &Demo, schedule, &cfg);
    print!("{kernel}");
    Ok(())
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
    if cli::version("swsim", &args) {
        return;
    }
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cli::parse(rest, &RUN, "swsim run").and_then(|f| cmd_run(args.clone(), f, None)),
        "resume" => cli::parse(rest, &RESUME, "swsim resume").and_then(cmd_resume),
        "gen" => cli::parse(rest, &GEN, "swsim gen").and_then(cmd_gen),
        "disasm" => cli::parse(rest, &DISASM, "swsim disasm").and_then(cmd_disasm),
        "datasets" => cli::parse(rest, &FlagSpec::NONE, "swsim datasets")
            .and_then(|f| f.no_positionals())
            .map(|()| cmd_datasets()),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("{e}");
        match e {
            CliError::Usage(_) => usage(),
            CliError::Input(_) => exit(1),
        }
    }
}
