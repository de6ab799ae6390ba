//! End-to-end tests of the command-line tools: `swsim`, `swfault`,
//! `swlint`, `swprof` and `swreplay`.

use std::process::Command;

fn swsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swsim"))
}

fn swfault() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swfault"))
}

fn swprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swprof"))
}

fn swlint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swlint"))
}

/// `swsim run --analyze` surfaces the analyzer's coalescing advisories
/// ahead of the run summary and still exits 0 (advisories never gate).
#[test]
fn swsim_run_analyze_prints_advisories_and_exits_zero() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:60:240:3",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--iters",
            "2",
            "--analyze",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SW-L521"), "no coalescing advisory:\n{text}");
    assert!(
        text.contains("@ SparseWeaver]"),
        "no schedule context:\n{text}"
    );
    assert!(text.contains("cycles"), "run summary missing:\n{text}");
}

#[test]
fn datasets_lists_all_nine() {
    let out = swsim().arg("datasets").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in [
        "D_bh", "D_bm", "D_rn", "D_rc", "D_g500", "D_co", "D_hw", "D_uk", "D_wk",
    ] {
        assert!(text.contains(id), "missing {id}");
    }
}

#[test]
fn run_json_emits_parseable_record() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:60:240:3",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--iters",
            "2",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next().expect("one json line");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"schedule\":\"SparseWeaver\""));
    assert!(line.contains("\"cycles\":"));
}

#[test]
fn gen_then_run_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("swsim_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.el");
    let out = swsim()
        .args(["gen", "--gen", "powerlaw:50:300:1.8:4", "-o"])
        .arg(&path)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = swsim()
        .args(["run", "--graph"])
        .arg(&path)
        .args(["--algo", "bfs", "--schedule", "svm", "--config", "small"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("S_vm"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disasm_prints_fig9_structure() {
    let out = swsim()
        .args(["disasm", "--schedule", "sw", "--config", "small"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("weaver.reg"));
    assert!(text.contains("weaver.dec.id"));
    assert!(text.contains("weaver.dec.loc"));
    assert!(text.contains("bar"));
    assert!(text.contains("tmc"));
}

#[test]
fn all_schedules_flag_runs_the_whole_set() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "cc",
            "--all-schedules",
            "--config",
            "small",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for s in [
        "S_vm",
        "S_em",
        "S_wm",
        "S_cm",
        "S_twc",
        "SparseWeaver",
        "EGHW",
    ] {
        assert!(text.contains(s), "missing {s}");
    }
}

#[test]
fn unknown_arguments_fail_with_usage() {
    let out = swsim().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn version_flag_prints_version_and_succeeds() {
    for (name, exe) in [
        ("swsim", env!("CARGO_BIN_EXE_swsim")),
        ("swfault", env!("CARGO_BIN_EXE_swfault")),
        ("swlint", env!("CARGO_BIN_EXE_swlint")),
        ("swprof", env!("CARGO_BIN_EXE_swprof")),
        ("swreplay", env!("CARGO_BIN_EXE_swreplay")),
    ] {
        for flag in ["--version", "-V"] {
            let out = Command::new(exe).arg(flag).output().expect("spawn");
            assert!(out.status.success(), "{name} {flag}");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(
                text.starts_with(&format!("{name} ")) && text.contains(env!("CARGO_PKG_VERSION")),
                "{text}"
            );
        }
    }
}

/// Every bad flag combination must exit with code 2, not succeed, not panic.
#[test]
fn bad_flag_combinations_exit_with_code_2() {
    let cases: &[&[&str]] = &[
        // Unknown flag for the subcommand.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--bogus",
        ],
        &["datasets", "--algo", "pr"],
        // Conflicting graph sources.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--dataset",
            "D_hw",
            "--algo",
            "pr",
            "--schedule",
            "sw",
        ],
        // --schedule with --all-schedules.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--all-schedules",
        ],
        // Trace modifiers without tracing.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--trace-level",
            "all",
        ],
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--sample-every",
            "100",
        ],
        // Tracing across all schedules is not a single timeline.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--all-schedules",
            "--trace",
            "/tmp/t.json",
        ],
        // Bad numerics and bad level.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--iters",
            "lots",
        ],
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--trace",
            "/tmp/t.json",
            "--sample-every",
            "soon",
        ],
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--trace",
            "/tmp/t.json",
            "--trace-level",
            "everything",
        ],
        // Profiling across all schedules would overwrite one artifact.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--all-schedules",
            "--profile-out",
            "/tmp/p.json",
        ],
        // Artifact flags with a missing path value.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--profile-out",
        ],
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
            "--metrics-out",
        ],
        // Generator specs that break a generator's preconditions.
        &[
            "run",
            "--gen",
            "rmat:31:10:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
        ],
        &[
            "run",
            "--gen",
            "uniform:0:5:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
        ],
        &[
            "run",
            "--gen",
            "powerlaw:0:5:2.0:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
        ],
        &[
            "run",
            "--gen",
            "powerlaw:10:20:nan:1",
            "--algo",
            "pr",
            "--schedule",
            "sw",
        ],
        // A traversal source past the last vertex.
        &[
            "run",
            "--gen",
            "uniform:40:160:1",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--source",
            "500",
        ],
    ];
    for args in cases {
        let out = swsim().args(*args).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} stderr: {}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Exit 1 with line-and-snippet context when the edge list is corrupt.
#[test]
fn corrupt_graph_file_exits_1_with_line_context() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/corrupt.el");
    let out = swsim()
        .args([
            "run",
            "--graph",
            fixture,
            "--algo",
            "bfs",
            "--schedule",
            "svm",
            "--config",
            "small",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 4"), "stderr: {err}");
    assert!(err.contains("`2 banana`"), "stderr: {err}");
}

/// An edge list whose largest id implies more vertices than memory holds
/// exits 1 naming that line, instead of aborting on the allocation. The
/// shell's `ulimit -v` bounds the child alone (and `&&` never runs it
/// unbounded), so the 16 GiB offset array fails to allocate rather than
/// being attempted.
#[test]
fn vertex_id_too_large_to_allocate_exits_1_with_line_context() {
    let path = std::env::temp_dir().join(format!("sw_huge_id_{}.el", std::process::id()));
    std::fs::write(&path, "0 1\n1 4294967294\n").expect("write edge list");
    let out = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -v 2097152 && exec "$0" run --graph "$1" --algo bfs --schedule sw --config small"#)
        .arg(env!("CARGO_BIN_EXE_swsim"))
        .arg(&path)
        .output()
        .expect("spawn");
    std::fs::remove_file(&path).expect("remove edge list");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("line 2"), "stderr: {err}");
    assert!(err.contains("too many to allocate"), "stderr: {err}");
    assert!(err.contains("`1 4294967294`"), "stderr: {err}");
}

/// A malformed --inject spec and --seed without --inject are usage errors.
#[test]
fn bad_injection_flags_exit_with_code_2() {
    let cases: &[&[&str]] = &[
        &[
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--inject",
            "gamma-rays=0.5",
        ],
        &[
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--seed",
            "3",
        ],
        &[
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--inject",
            "reg=0.1",
            "--fallback",
            "sometimes",
        ],
    ];
    for args in cases {
        let out = swsim().args(*args).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} stderr: {}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Weaver-drop injection with graceful degradation enabled (the default)
/// still exits 0: retries exhaust, the run falls back to S_wm, and the
/// output matches the fault-free result.
#[test]
fn weaver_drop_with_fallback_succeeds() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--inject",
            "weaver-drop=1.0",
            "--seed",
            "5",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// With fallback disabled, the same injection surfaces as a hang:
/// exit 4 and a structured hang report written to --hang-report.
#[test]
fn weaver_drop_without_fallback_exits_4_and_writes_hang_report() {
    let dir = std::env::temp_dir().join("swsim_cli_hang_test");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("hang.json");
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--inject",
            "weaver-drop=1.0",
            "--seed",
            "5",
            "--fallback",
            "off",
            "--hang-report",
        ])
        .arg(&report)
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&report).unwrap();
    assert!(body.contains("\"schema\":\"sparseweaver-hang-report\",\"version\":2,"));
    assert!(body.contains("\"warps\""));
    assert!(body.contains("\"weaver_fsm_state\""));
    let _ = std::fs::remove_file(&report);
}

/// A --trace-out stream that hits an I/O error mid-run exits 3 (the run
/// itself succeeded, but the on-disk event timeline is incomplete).
#[test]
#[cfg(target_os = "linux")]
fn trace_out_stream_error_exits_3() {
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "svm",
            "--config",
            "small",
            "--trace-out",
            "/dev/full",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A small fixed-seed campaign via `swfault`: deterministic summary,
/// every run classified, no panics.
#[test]
fn swfault_campaign_is_deterministic_and_classified() {
    let run = || {
        let out = swfault()
            .args([
                "--inject",
                "reg=0.002,mem=0.001",
                "--runs",
                "5",
                "--seed",
                "42",
            ])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give a byte-identical summary");
    assert!(a.contains("\"schema\":\"sparseweaver-fault-campaign\",\"version\":2,"));
    assert!(a.contains("\"runs\":5"));
}

#[test]
fn swfault_rejects_bad_spec_with_usage_error() {
    let out = swfault()
        .args(["--inject", "cosmic=1.0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

/// `swfault` shares `swsim`'s argument readers: a bad graph source or
/// traversal source is a usage error before the golden run.
#[test]
fn swfault_rejects_bad_arguments_with_code_2() {
    for extra in [
        &["--source", "500"] as &[&str],
        &["--gen", "rmat:31:10:1"],
        &["--gen", "powerlaw:10:20:nan:1"],
        &["--algo", "bfs", "--details", "extra"],
    ] {
        let out = swfault()
            .args(["--inject", "reg=0.01", "--runs", "2"])
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} stderr: {}",
            extra,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// `swfault --gen` accepts the road-grid spec, as `swsim` does.
#[test]
fn swfault_campaign_runs_on_a_generated_grid() {
    let out = swfault()
        .args([
            "--inject",
            "reg=0.01",
            "--runs",
            "2",
            "--gen",
            "grid:8:8:0.6:1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"runs\":2"));
}

#[test]
fn trace_flags_write_both_output_files() {
    let dir = std::env::temp_dir().join("swsim_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("out.trace.json");
    let metrics = dir.join("metrics.json");
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:60:240:3",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--trace",
        ])
        .arg(&trace)
        .args([
            "--trace-level",
            "all",
            "--sample-every",
            "200",
            "--metrics-out",
        ])
        .arg(&metrics)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_body = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_body.contains("\"traceEvents\""));
    let metrics_body = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_body.contains("\"schema\":\"sparseweaver-metrics\",\"version\":2,"));
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// `-` as an artifact path writes to stdout instead of a file named `-`.
#[test]
fn dash_paths_write_artifacts_to_stdout() {
    let dir = std::env::temp_dir().join("swsim_cli_dash_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base: &[&str] = &[
        "run",
        "--gen",
        "uniform:24:72:7",
        "--algo",
        "bfs",
        "--schedule",
        "sw",
        "--config",
        "small",
        "--json",
    ];
    // --metrics-out -: stdout is exactly the artifact (the --json run
    // summary moves to stderr), so the whole stream parses as one doc.
    let out = swsim()
        .args(base)
        .args(["--metrics-out", "-"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = sparseweaver::trace::json::parse(&text).expect("stdout is pure JSON");
    assert_eq!(
        (
            doc.get("schema").and_then(|s| s.as_str()),
            doc.get("version").and_then(|v| v.as_num())
        ),
        (Some("sparseweaver-metrics"), Some(2.0))
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("\"schedule\""),
        "run summary moved to stderr"
    );
    // --profile-out -
    let out = swsim()
        .args(base)
        .args(["--profile-out", "-"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = sparseweaver::trace::json::parse(&text).expect("stdout is pure JSON");
    assert_eq!(
        (
            doc.get("schema").and_then(|s| s.as_str()),
            doc.get("version").and_then(|v| v.as_num())
        ),
        (Some("sparseweaver-profile"), Some(2.0))
    );
    // --trace-out - streams JSONL events to stdout.
    let out = swsim()
        .args(base)
        .args(["--trace-out", "-"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernel_launch"), "events on stdout: {text}");
    // --hang-report - prints the report to stdout on exit 4.
    let out = swsim()
        .args([
            "run",
            "--gen",
            "uniform:24:72:7",
            "--algo",
            "bfs",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--inject",
            "weaver-drop=1.0",
            "--seed",
            "5",
            "--fallback",
            "off",
            "--hang-report",
            "-",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\":\"sparseweaver-hang-report\",\"version\":2,"));
    // In no case did a file literally named `-` appear.
    assert!(!dir.join("-").exists(), "a file named `-` was created");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `swfault --out -` leaves stdout byte-identical to a run without --out:
/// the summary JSON is already there, and no file is created.
#[test]
fn swfault_out_dash_keeps_stdout_identical_and_writes_no_file() {
    let dir = std::env::temp_dir().join("swfault_cli_dash_test");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |extra: &[&str]| {
        let out = swfault()
            .args(["--inject", "reg=0.002", "--runs", "3", "--seed", "9"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let plain = run(&[]);
    let dashed = run(&["--out", "-"]);
    assert_eq!(plain, dashed, "--out - must not change stdout");
    assert!(!dir.join("-").exists(), "a file named `-` was created");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end profile pipeline: swsim writes the artifact, swprof reads
/// and diffs it, regression gating drives the exit code.
#[test]
fn profile_artifact_round_trips_through_swprof() {
    let dir = std::env::temp_dir().join("swprof_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let profile_for = |schedule: &str, path: &std::path::Path| {
        let out = swsim()
            .args([
                "run",
                "--gen",
                "uniform:60:240:3",
                "--algo",
                "bfs",
                "--schedule",
                schedule,
                "--config",
                "small",
                "--profile-out",
            ])
            .arg(path)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let sw = dir.join("sw.json");
    let wm = dir.join("wm.json");
    profile_for("sw", &sw);
    profile_for("wm", &wm);

    // report: human output carries the breakdown; --json is parseable.
    let out = swprof().arg("report").arg(&sw).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("issue-slot breakdown"), "{text}");
    assert!(text.contains("stall: weaver"), "{text}");
    assert!(text.contains("latency histograms"), "{text}");
    let out = swprof()
        .arg("report")
        .arg(&sw)
        .arg("--json")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(line.trim_end().starts_with('{') && line.trim_end().ends_with('}'));
    assert!(line.contains("\"totals.stalls.weaver\":"));

    // Self-diff: byte-identical artifacts, nothing changes, exit 0.
    let out = swprof()
        .arg("diff")
        .arg(&sw)
        .arg(&sw)
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("no metric changed"));

    // S_wm -> SparseWeaver shifts the stall composition toward the
    // memory/weaver categories: the strict gate flags it, exit 1.
    let out = swprof()
        .arg("diff")
        .arg(&wm)
        .arg(&sw)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("totals.stalls.weaver"), "{text}");
    assert!(text.contains("REGRESSED"), "{text}");
    assert!(text.contains("improved"), "{text}");

    // A non-profile document is rejected with exit 1.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"schema\":\"something-else\"}\n").unwrap();
    let out = swprof().arg("report").arg(&bogus).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every enveloped artifact kind diffs against itself with exit 0, and
/// two artifacts of different kinds are refused with exit 1, naming both.
#[test]
fn swprof_diffs_every_artifact_kind_and_refuses_mixed_kinds() {
    let dir = std::env::temp_dir().join("swprof_cli_kinds_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |cmd: &mut Command| {
        let out = cmd.current_dir(&dir).output().expect("spawn");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let base = [
        "run",
        "--gen",
        "uniform:24:72:7",
        "--algo",
        "bfs",
        "--schedule",
        "sw",
        "--config",
        "small",
    ];
    let (code, err) = run(swsim().args(base).args([
        "--profile-out",
        "profile.json",
        "--metrics-out",
        "metrics.json",
        "--mem-trace-out",
        "capture.swmtrace",
    ]));
    assert_eq!(code, Some(0), "{err}");
    let (code, err) = run(Command::new(env!("CARGO_BIN_EXE_swreplay")).args([
        "sweep",
        "--trace",
        "capture.swmtrace",
        "--l1-sizes",
        "1024,4096",
        "--ways",
        "2",
        "--out",
        "replay.json",
    ]));
    assert_eq!(code, Some(0), "{err}");
    let (code, err) = run(swsim().args(base).args([
        "--inject",
        "weaver-drop=1.0",
        "--seed",
        "5",
        "--fallback",
        "off",
        "--hang-report",
        "hang.json",
    ]));
    assert_eq!(code, Some(4), "{err}");
    let (code, err) = run(swfault().args([
        "--inject",
        "reg=0.002",
        "--runs",
        "3",
        "--seed",
        "9",
        "--out",
        "campaign.json",
    ]));
    assert_eq!(code, Some(0), "{err}");

    for kind in ["profile", "replay", "metrics", "campaign", "hang"] {
        let file = format!("{kind}.json");
        let (code, err) = run(swprof().args(["diff", &file, &file, "--tolerance", "0"]));
        assert_eq!(code, Some(0), "{kind} self-diff: {err}");
        assert!(!err.contains("warning"), "{kind} self-diff warned: {err}");
    }
    let (code, err) = run(swprof().args(["diff", "profile.json", "replay.json"]));
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("sparseweaver-profile v2") && err.contains("sparseweaver-replay v2"),
        "{err}"
    );

    // The analyzer stream opens with the same envelope.
    let out = swlint()
        .args(["--analyze", "--json", "--algo", "bfs", "--schedule", "sw"])
        .output()
        .expect("spawn");
    let text = String::from_utf8_lossy(&out.stdout);
    let first = sparseweaver::trace::json::parse(text.lines().next().expect("a line")).unwrap();
    let envelope = sparseweaver::trace::json::Envelope::read(&first).expect("envelope line");
    assert_eq!(
        (envelope.schema.as_str(), envelope.version),
        ("sparseweaver-analyze", 2)
    );
    assert_eq!(envelope.tool, sparseweaver::VERSION);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `swsim gen -o -` writes the edge list to stdout, like every other
/// output flag, and its confirmation to stderr.
#[test]
fn gen_dash_out_writes_the_edge_list_to_stdout() {
    let dir = std::env::temp_dir().join("swsim_cli_gen_dash_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = swsim()
        .args(["gen", "--gen", "uniform:10:20:1", "-o", "-"])
        .current_dir(&dir)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let g = sparseweaver::graph::io::parse_edge_list(&text).expect("stdout is the edge list");
    assert_eq!(g.num_vertices(), 10);
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote 10 vertices"));
    assert!(!dir.join("-").exists(), "a file named `-` was created");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swprof_version_succeeds_and_usage_errors_exit_2() {
    let out = swprof().arg("--version").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("swprof "));

    for args in [
        &["frobnicate"] as &[&str],
        &["--selftest"],
        &["report"],
        &["diff", "only-one.json"],
        &["report", "a.json", "--bogus"],
    ] {
        let out = swprof().args(args).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} stderr: {}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// An interrupted `swsim run` (via the deterministic `--stop-after-launches`
/// bound) exits 5, writes a checkpoint, and `swsim resume` finishes the run
/// with metrics bytes identical to an uninterrupted golden run.
#[test]
fn swsim_checkpoint_stop_and_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join("swsim_cli_ckpt_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("run.swckpt");
    let golden = dir.join("golden.json");
    let resumed = dir.join("resumed.json");
    let base = [
        "run",
        "--gen",
        "powerlaw:48:240:1.8:7",
        "--algo",
        "pr",
        "--iters",
        "3",
        "--schedule",
        "sw",
        "--config",
        "small",
    ];

    let out = swsim()
        .args(base)
        .args(["--metrics-out", golden.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "golden: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = swsim()
        .args(base)
        .args([
            "--checkpoint-out",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--stop-after-launches",
            "2",
            "--metrics-out",
            resumed.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(5),
        "interrupted run must exit 5; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ck.exists(), "checkpoint file must exist after the stop");
    assert!(
        !resumed.exists(),
        "an interrupted run must not publish a metrics artifact"
    );

    let out = swsim()
        .args(["resume", ck.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a = std::fs::read(&golden).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed metrics must be byte-identical to golden");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A switch never consumes the token after it: `swsim resume --json CKPT`
/// prints the same bytes as `swsim resume CKPT --json`.
#[test]
fn swsim_resume_flags_may_precede_the_checkpoint_path() {
    let dir = std::env::temp_dir().join("swsim_cli_resume_order_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("run.swckpt");
    let out = swsim()
        .args([
            "run",
            "--gen",
            "powerlaw:48:240:1.8:7",
            "--algo",
            "pr",
            "--iters",
            "3",
            "--schedule",
            "sw",
            "--config",
            "small",
            "--checkpoint-out",
            ck.to_str().unwrap(),
            "--stop-after-launches",
            "2",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let saved = std::fs::read(&ck).unwrap();
    let resume = |args: [&str; 3]| {
        // Each resume starts from the same checkpoint bytes.
        std::fs::write(&ck, &saved).unwrap();
        let out = swsim().args(args).output().expect("spawn");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let path = ck.to_str().unwrap();
    let switch_first = resume(["resume", "--json", path]);
    let path_first = resume(["resume", path, "--json"]);
    assert!(!switch_first.is_empty());
    assert_eq!(switch_first, path_first);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint flag combinations that cannot work are usage errors (exit 2),
/// and resuming from garbage is a run error (exit 1), not a panic.
#[test]
fn swsim_checkpoint_flag_gates_and_corrupt_checkpoint() {
    let dir = std::env::temp_dir().join("swsim_cli_ckpt_gate_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = ["run", "--gen", "uniform:24:72:3", "--algo", "bfs"];
    for extra in [
        &["--checkpoint-every", "4"] as &[&str],
        &["--checkpoint-out", "-"],
        &["--checkpoint-out", "x.swckpt", "--all-schedules"],
    ] {
        let out = swsim().args(base).args(extra).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} stderr: {}",
            extra,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let bogus = dir.join("bogus.swckpt");
    std::fs::write(&bogus, b"not a checkpoint at all").unwrap();
    let out = swsim()
        .args(["resume", bogus.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint"),
        "error must name the checkpoint: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `swfault --resume` without a journal is a usage error; an interrupted
/// journal resumed at a different `--jobs` renders the summary byte-identical
/// to the uninterrupted campaign.
#[test]
fn swfault_journal_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join("swfault_cli_journal_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let base = [
        "--inject",
        "reg=0.002,mem=0.001",
        "--runs",
        "8",
        "--seed",
        "42",
    ];

    let out = swfault()
        .args(base)
        .arg("--resume")
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--resume without --journal must be a usage error"
    );

    let out = swfault().args(base).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let golden = out.stdout.clone();

    let out = swfault()
        .args(base)
        .args(["--journal", journal.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, golden, "a journaled campaign changes no bytes");

    // Simulate a kill by dropping the last 4 completed-run records.
    let text = std::fs::read_to_string(&journal).unwrap();
    let keep: Vec<&str> = text.lines().take(5).collect();
    std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();

    let out = swfault()
        .args(base)
        .args(["--journal", journal.to_str().unwrap(), "--resume"])
        .args(["--jobs", "4"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, golden,
        "resumed summary must be byte-identical at any --jobs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
