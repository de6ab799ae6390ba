//! `swlint` — static verifier for SparseWeaver kernel IR.
//!
//! Compiles the built-in algorithm kernels (without touching a simulated
//! device) and runs the `sparseweaver-lint` CFG/dataflow verifier over
//! each: use-before-def, dead writes, unreachable code, divergence-stack
//! balance, barrier-under-divergence deadlocks, `tmc 0` wedges, and the
//! Weaver registration protocol. Rule catalog: `docs/lint-rules.md`.
//!
//! With `--analyze`, additionally runs the abstract-interpretation
//! engine (SW-L5xx): value ranges, warp uniformity, static OOB/race
//! checks, and the coalescing advisor, against the launch geometry of
//! the selected `--config`.
//!
//! ```text
//! swlint                         # every algorithm x every schedule
//! swlint --algo bfs --schedule sw
//! swlint --json                  # one LintReport JSON object per line
//! swlint --analyze [--json]      # + SW-L5xx abstract interpretation;
//!                                # --json opens with the artifact envelope
//! swlint --analyze --facts       # dump the raw fixpoint facts
//! swlint --version
//! ```
//!
//! Exit status: 0 when every kernel is clean, 1 when any error-severity
//! finding fires, 2 on usage errors.
//!
//! That the verifier still fires is checked by the seeded fixtures'
//! unit tests: `cargo test -p sparseweaver-lint fixtures`.

use std::collections::HashSet;
use std::process::exit;

use sparseweaver::cli::{self, usage_err, Args, CliError, FlagSpec};
use sparseweaver::core::algorithms::{
    Algorithm, Bfs, ConnectedComponents, Gcn, PageRank, Spmv, Sssp,
};
use sparseweaver::core::profile::config_fingerprint;
use sparseweaver::core::session::geom_of;
use sparseweaver::core::Schedule;
use sparseweaver::graph::Direction;
use sparseweaver::isa::Program;
use sparseweaver::lint::{analyze_with_facts, lint, LintReport, ANALYZE_SCHEMA};
use sparseweaver::trace::json::Envelope;

fn usage() -> ! {
    eprintln!(
        "swlint — SparseWeaver kernel-IR static verifier

USAGE:
  swlint [--algo ALGO] [--schedule S] [--config vortex|eval|small|8core|regfile]
         [--regalloc on|off] [--regs] [--json] [--analyze] [--facts]
  swlint --version

  ALGO:  pr | pr-push | bfs | sssp | sssp-wl | cc | spmv | gcn   (default: all)
  S:     svm | em | wm | cm | sw | eghw                          (default: all)

  --json      one LintReport JSON object per kernel, one per line
              (with --analyze, a second object per kernel for SW-L5xx,
              after a first line holding the artifact envelope)
  --analyze   also run the abstract-interpretation engine (SW-L5xx:
              static OOB, barrier-interval races, coalescing/bank
              advisories, uniform branches) against the launch geometry
              of --config; findings carry kernel + schedule context
  --facts     with --analyze, dump the raw value/access facts the
              fixpoint computed (implies --analyze)
  --regalloc  on|off: run liveness-based register allocation before
              linting, as the runtime does before launching (default on)
  --regs      print one `LABEL PRE POST` register-high-water line per
              kernel instead of lint reports (drives the CI register-
              pressure budget); the exit code still reflects lint errors

Rule catalog: docs/lint-rules.md (SW-L1xx dataflow, SW-L2xx divergence
stack, SW-L3xx barrier/mask, SW-L4xx Weaver protocol, SW-L5xx abstract
interpretation)."
    );
    exit(2)
}

const FLAGS: FlagSpec = FlagSpec {
    values: &["algo", "schedule", "config", "regalloc"],
    switches: &["json", "regs", "analyze", "facts"],
    short: &[],
};

/// Applies register allocation when `regalloc` is on, mirroring what the
/// runtime launches; identity when the allocator bails out.
fn maybe_allocate(program: Program, regalloc: bool) -> Program {
    if !regalloc {
        return program;
    }
    let result = sparseweaver::core::compiler::regalloc::allocate(&program);
    if result.applied {
        result.program
    } else {
        program
    }
}

/// An algorithm under the name `--algo` selects it by.
type Named = (&'static str, Box<dyn Algorithm>);

/// The built-in algorithms, keyed the way `--algo` selects them. Kernel
/// parameters (source vertex, iteration counts) do not affect the emitted
/// instruction stream, so fixed placeholders suffice.
fn algorithms(selected: Option<&str>) -> Result<Vec<Named>, CliError> {
    let all: Vec<Named> = vec![
        ("pr", Box::new(PageRank::new(1))),
        (
            "pr-push",
            Box::new(PageRank::new(1).with_direction(Direction::Push)),
        ),
        ("bfs", Box::new(Bfs::new(0))),
        ("sssp", Box::new(Sssp::new(0))),
        ("sssp-wl", Box::new(Sssp::new(0).with_worklist(true))),
        ("cc", Box::new(ConnectedComponents::new())),
        ("spmv", Box::new(Spmv::new())),
    ];
    match selected {
        None => Ok(all),
        Some(name) => {
            let found: Vec<_> = all.into_iter().filter(|(n, _)| *n == name).collect();
            if found.is_empty() && name != "gcn" {
                return usage_err(format!(
                    "unknown algorithm `{name}` (pr | pr-push | bfs | sssp | sssp-wl | cc | spmv | gcn)"
                ));
            }
            Ok(found)
        }
    }
}

fn report_line(label: &str, program: &Program, report: &LintReport, json: bool) {
    if json {
        println!("{}", report.to_json());
        return;
    }
    if report.is_clean() && report.warning_count() == 0 {
        println!("ok    {label:<28} {:>4} instrs", program.len());
    } else {
        println!(
            "FAIL  {label:<28} {:>4} instrs  {} error(s), {} warning(s)",
            program.len(),
            report.error_count(),
            report.warning_count()
        );
        for line in report.to_text().lines() {
            println!("      {line}");
        }
    }
}

fn cmd_lint(flags: &Args) -> Result<i32, CliError> {
    let json = flags.has("json");
    let regalloc = cli::on_off(flags, "regalloc", true)?;
    let regs_mode = flags.has("regs");
    let facts_mode = flags.has("facts");
    let analyze_mode = flags.has("analyze") || facts_mode;
    let cfg = cli::config(flags, "eval")?;
    // The launch geometry the analyzer checks against, from the same
    // `--config` the simulator would launch with.
    let geom = geom_of(&cfg);
    let schedules = match cli::schedule(flags)? {
        Some(s) => vec![s],
        None => Schedule::ALL.to_vec(),
    };
    let algo_filter = flags.get("algo");
    let algos = algorithms(algo_filter)?;
    if json && analyze_mode && !regs_mode {
        let envelope = Envelope::new(ANALYZE_SCHEMA, Some(config_fingerprint(&cfg)), None);
        println!("{}", envelope.object(|_| {}));
    }
    let mut seen: HashSet<String> = HashSet::new();
    let mut kernels = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut advisories = 0usize;
    let mut diverged = 0usize;
    let mut process = |label: String, schedule: Schedule, program: Program| {
        let pre = program.register_high_water();
        let program = maybe_allocate(program, regalloc);
        let report = lint(&program);
        kernels += 1;
        errors += report.error_count();
        warnings += report.warning_count();
        if regs_mode {
            println!("{label} {pre} {}", program.register_high_water());
            return;
        }
        report_line(&label, &program, &report, json);
        if analyze_mode {
            let (areport, facts) = analyze_with_facts(&program, &geom);
            let areport = areport.with_context(program.name(), schedule.paper_name());
            errors += areport.error_count();
            warnings += areport.warning_count();
            advisories += areport.advice_count();
            if !facts.converged {
                diverged += 1;
            }
            if json {
                println!("{}", areport.to_json());
            } else if !areport.diagnostics.is_empty() {
                for line in areport.to_text().lines().skip(1) {
                    println!("      {line}");
                }
            }
            if facts_mode && !json {
                for line in facts.to_text().lines() {
                    println!("      {line}");
                }
            }
        }
    };
    for (name, algo) in algos {
        for &schedule in &schedules {
            for program in algo.kernels(schedule, &cfg) {
                // Schedule-independent kernels (init/apply) repeat across
                // schedules under the same name; lint each stream once.
                // The algorithm label stays in the key: variants like
                // pr-push emit different streams under shared names.
                let label = format!("{name}:{}", program.name());
                if !seen.insert(label.clone()) {
                    continue;
                }
                process(label, schedule, program);
            }
        }
    }
    if algo_filter.is_none() || algo_filter == Some("gcn") {
        let gcn = Gcn::new(8);
        for &schedule in &schedules {
            for program in gcn.kernels(schedule, &cfg) {
                let label = format!("gcn:{}", program.name());
                if !seen.insert(label.clone()) {
                    continue;
                }
                process(label, schedule, program);
            }
        }
    }
    if !json && !regs_mode {
        if analyze_mode {
            println!(
                "{kernels} kernel(s) linted+analyzed: {errors} error(s), {warnings} warning(s), \
                 {advisories} advisories"
            );
        } else {
            println!("{kernels} kernel(s) linted: {errors} error(s), {warnings} warning(s)");
        }
    }
    if diverged > 0 {
        eprintln!("{diverged} kernel(s) hit the fixpoint safety cap");
        return Ok(1);
    }
    Ok(if errors > 0 { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::version("swlint", &args) {
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let code = cli::parse(&args, &FLAGS, "swlint")
        .and_then(|flags| {
            flags.no_positionals()?;
            cmd_lint(&flags)
        })
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        });
    exit(code)
}
