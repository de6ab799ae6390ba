//! Lint coverage for the shipped kernels and the `swlint` binary.
//!
//! Positive path: every built-in algorithm kernel, across every schedule,
//! must lint clean — zero errors *and* zero warnings. These are the same
//! streams `Session::run` launches, so a regression here would also trip
//! the runtime's `LintLevel::Deny` gate.
//!
//! The `swlint` binary must report with the documented exit codes. The
//! negative path, that each seeded ill-formed fixture triggers its
//! documented rule (`docs/lint-rules.md`), is the lint crate's own unit
//! test (`crates/lint/src/fixtures.rs`).

use std::process::Command;

use sparseweaver::core::algorithms::{
    Algorithm, Bfs, ConnectedComponents, Gcn, PageRank, Spmv, Sssp,
};
use sparseweaver::core::compiler::regalloc;
use sparseweaver::core::{Schedule, Session};
use sparseweaver::graph::Direction;
use sparseweaver::lint::{analyze, analyze_with_facts, lint, AnalyzeGeom};
use sparseweaver::sim::GpuConfig;

fn algorithms() -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        ("pr", Box::new(PageRank::new(1)) as Box<dyn Algorithm>),
        (
            "pr-push",
            Box::new(PageRank::new(1).with_direction(Direction::Push)),
        ),
        ("bfs", Box::new(Bfs::new(0))),
        ("sssp", Box::new(Sssp::new(0))),
        ("sssp-wl", Box::new(Sssp::new(0).with_worklist(true))),
        ("cc", Box::new(ConnectedComponents::new())),
        ("spmv", Box::new(Spmv::new())),
    ]
}

fn configs() -> Vec<(&'static str, GpuConfig)> {
    let mut no_mask = GpuConfig::small_test();
    no_mask.weaver.auto_mask = false;
    vec![
        ("small", GpuConfig::small_test()),
        ("eval", GpuConfig::evaluation_default()),
        ("small/no-auto-mask", no_mask),
    ]
}

#[test]
fn every_builtin_algorithm_kernel_lints_clean() {
    let mut linted = 0usize;
    for (cfg_name, cfg) in configs() {
        for (algo_name, algo) in algorithms() {
            for schedule in Schedule::ALL {
                for program in algo.kernels(schedule, &cfg) {
                    let report = lint(&program);
                    assert!(
                        report.is_clean() && report.warning_count() == 0,
                        "{algo_name}:{} ({schedule:?}, {cfg_name}):\n{}",
                        program.name(),
                        report.to_text()
                    );
                    linted += 1;
                }
            }
        }
    }
    // Every algorithm contributes at least one kernel per schedule.
    assert!(linted >= configs().len() * algorithms().len() * Schedule::ALL.len());
}

#[test]
fn gcn_kernels_lint_clean() {
    for (cfg_name, cfg) in configs() {
        for dim in [1, 8, 16] {
            let gcn = Gcn::new(dim);
            for schedule in Schedule::ALL {
                for program in gcn.kernels(schedule, &cfg) {
                    let report = lint(&program);
                    assert!(
                        report.is_clean() && report.warning_count() == 0,
                        "gcn(dim={dim}):{} ({schedule:?}, {cfg_name}):\n{}",
                        program.name(),
                        report.to_text()
                    );
                }
            }
        }
    }
}

/// Register allocation over the whole kernel zoo: every rewritten stream
/// still lints clean with zero warnings (in particular zero SW-L103
/// dead-write findings), and the pass never increases a kernel's register
/// high-water.
#[test]
fn regalloc_keeps_every_kernel_clean_and_never_grows_pressure() {
    let mut allocated = 0usize;
    for (cfg_name, cfg) in configs() {
        for (algo_name, algo) in algorithms() {
            for schedule in Schedule::ALL {
                for program in algo.kernels(schedule, &cfg) {
                    let pre = program.register_high_water();
                    let result = regalloc::allocate(&program);
                    assert!(
                        result.applied,
                        "{algo_name}:{} ({schedule:?}, {cfg_name}): allocator bailed out",
                        program.name()
                    );
                    let post = result.program.register_high_water();
                    assert!(
                        post <= pre,
                        "{algo_name}:{} ({schedule:?}, {cfg_name}): high-water grew {pre} -> {post}",
                        program.name()
                    );
                    let report = lint(&result.program);
                    assert!(
                        report.is_clean() && report.warning_count() == 0,
                        "{algo_name}:{} ({schedule:?}, {cfg_name}) after regalloc:\n{}",
                        program.name(),
                        report.to_text()
                    );
                    allocated += 1;
                }
            }
        }
    }
    assert!(allocated >= configs().len() * algorithms().len() * Schedule::ALL.len());
}

/// Register allocation is semantics-preserving end to end: with it on and
/// off, every schedule computes identical PageRank vectors (including the
/// shared-memory-scan schedules whose kernels bake thread geometry).
#[test]
fn regalloc_on_off_produce_identical_outputs_for_every_schedule() {
    let graph = sparseweaver::graph::generators::powerlaw(48, 240, 1.8, 3);
    for schedule in Schedule::ALL {
        let mut on = Session::new(GpuConfig::small_test());
        let mut off = Session::new(GpuConfig::small_test());
        off.regalloc = false;
        let r_on = on.run(&graph, &PageRank::new(2), schedule).unwrap();
        let r_off = off.run(&graph, &PageRank::new(2), schedule).unwrap();
        assert!(
            r_on.output.approx_eq(&r_off.output, 1e-12),
            "register allocation changed {schedule:?} output"
        );
    }
}

/// The abstract-interpretation fixpoint converges on every built-in
/// kernel under every schedule, and its JSON report is byte-identical
/// across runs (the CI golden gate depends on this determinism).
#[test]
fn analyzer_converges_and_is_deterministic_on_every_builtin_kernel() {
    let cfg = GpuConfig::small_test();
    let geom = AnalyzeGeom {
        num_cores: cfg.num_cores as u64,
        warps_per_core: cfg.warps_per_core as u64,
        threads_per_warp: cfg.threads_per_warp as u64,
        shared_mem_bytes: cfg.shared_mem_bytes as u64,
    };
    let mut analyzed = 0usize;
    for (algo_name, algo) in algorithms() {
        for schedule in Schedule::ALL {
            for program in algo.kernels(schedule, &cfg) {
                let (first, facts) = analyze_with_facts(&program, &geom);
                assert!(
                    facts.converged,
                    "{algo_name}:{} ({schedule:?}): fixpoint diverged",
                    program.name()
                );
                // A proved out-of-bounds access in a shipped kernel
                // would also trip the runtime launch gate.
                assert_eq!(
                    first.error_count(),
                    0,
                    "{algo_name}:{} ({schedule:?}):\n{}",
                    program.name(),
                    first.to_text()
                );
                let second = analyze(&program, &geom);
                assert_eq!(
                    first.to_json(),
                    second.to_json(),
                    "analyzer output must be deterministic"
                );
                analyzed += 1;
            }
        }
    }
    assert!(analyzed >= algorithms().len() * Schedule::ALL.len());
}

/// `Session::analyze_kernels` stamps every report with the kernel name
/// and the schedule's paper notation, in both the struct fields and the
/// JSON document.
#[test]
fn session_analyze_kernels_attaches_kernel_and_schedule_context() {
    let session = Session::new(GpuConfig::small_test());
    let reports = session
        .analyze_kernels(&PageRank::new(1), Schedule::SparseWeaver)
        .expect("kernel generation succeeds");
    assert!(!reports.is_empty());
    for r in &reports {
        let kernel = r.kernel.as_deref().expect("kernel context set");
        assert!(kernel.starts_with("pagerank"), "{kernel}");
        assert_eq!(r.schedule.as_deref(), Some("SparseWeaver"));
        let json = r.to_json();
        assert!(json.contains(&format!("\"kernel\":\"{kernel}\"")), "{json}");
        assert!(json.contains("\"schedule\":\"SparseWeaver\""), "{json}");
    }
}

// ---------------------------------------------------------------- swlint CLI

fn swlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swlint"))
}

#[test]
fn swlint_all_clean_exits_zero() {
    let out = swlint()
        .args(["--config", "small"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
    assert!(!text.contains("FAIL"), "{text}");
}

#[test]
fn swlint_json_emits_one_report_per_line() {
    let out = swlint()
        .args([
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        assert!(line.starts_with("{\"program\":"), "{line}");
        assert!(line.contains("\"errors\":0"), "{line}");
    }
    assert!(!text.trim().is_empty());
}

#[test]
fn swlint_rejects_unknown_flags_and_values_with_exit_2() {
    for args in [
        &["--bogus"][..],
        &["--selftest"][..],
        &["--algo", "nope"][..],
        &["--schedule", "nope"][..],
        &["--config", "nope"][..],
    ] {
        let out = swlint().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn swlint_version_matches_workspace_version() {
    for flag in ["--version", "-V"] {
        let out = swlint().arg(flag).output().expect("spawn");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with("swlint ") && text.contains(env!("CARGO_PKG_VERSION")),
            "{text}"
        );
    }
}

// ------------------------------------------------------------- swsim flags

fn swsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swsim"))
}

#[test]
fn swsim_rejects_bad_lint_level_with_exit_2() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "bfs",
            "--schedule",
            "svm",
            "--config",
            "small",
            "--lint",
            "bogus",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lint level"));
}

#[test]
fn swlint_regs_prints_pre_and_post_high_water_per_kernel() {
    let out = swlint()
        .args(["--config", "small", "--regs"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let mut kernels = 0;
    for line in text.lines().filter(|l| l.contains(':')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 3, "expected `LABEL PRE POST`: {line}");
        let pre: usize = fields[1].parse().expect("pre high-water");
        let post: usize = fields[2].parse().expect("post high-water");
        assert!(post <= pre, "{line}: allocation grew register pressure");
        kernels += 1;
    }
    assert!(kernels > 30, "only {kernels} kernels listed:\n{text}");
}

#[test]
fn swsim_rejects_bad_regalloc_value_with_exit_2() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "bfs",
            "--schedule",
            "svm",
            "--config",
            "small",
            "--regalloc",
            "bogus",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--regalloc expects on|off"));
}

/// The acceptance scenario for the occupancy model: on the
/// register-file-limited config the cap binds (resident < configured),
/// and both export documents carry it.
#[test]
fn swsim_regfile_config_shows_binding_occupancy_cap_in_exports() {
    let metrics = std::env::temp_dir().join("sw_cli_occupancy_metrics.json");
    let trace = std::env::temp_dir().join("sw_cli_occupancy_trace.json");
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:60:240:7",
            "--algo",
            "pr",
            "--schedule",
            "svm",
            "--config",
            "regfile",
            "--metrics-out",
        ])
        .arg(&metrics)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[regfile cap:"), "{stdout}");
    let metrics_doc = std::fs::read_to_string(&metrics).unwrap();
    let occ = metrics_doc
        .split("\"occupancy\":{")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .expect("occupancy object in metrics.json");
    let field = |name: &str| -> u64 {
        occ.split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse().ok())
            })
            .unwrap_or_else(|| panic!("missing {name} in {occ}"))
    };
    let resident = field("warps_resident");
    let configured = field("warps_configured");
    assert!(resident >= 1 && resident < configured, "{occ}");
    assert!(field("kernel_high_water") > 0, "{occ}");
    let trace_doc = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_doc.contains("\"name\":\"occupancy\""),
        "no counter track"
    );
    assert!(
        trace_doc.contains("\"name\":\"warps:core0\""),
        "no warp track"
    );
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn swsim_trace_out_streams_jsonl_file() {
    let path = std::env::temp_dir().join("sw_cli_trace_out.jsonl");
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "bfs",
            "--schedule",
            "svm",
            "--config",
            "small",
            "--trace-out",
        ])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("event stream written to"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().count() > 2);
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(text.contains("kernel_launch"));
    let _ = std::fs::remove_file(&path);
}
