//! `swprof` — read, summarize, and diff SparseWeaver profile artifacts.
//!
//! Consumes the deterministic `profile.json` documents written by
//! `swsim run --profile-out` (schema `sparseweaver-profile-v1`) and turns
//! them into the paper's Fig. 4-style breakdowns, or into a run-to-run
//! differential report with regression gating for CI.
//!
//! ```text
//! swprof report profile.json            # Fig. 4-style cycle breakdown
//! swprof report profile.json --json     # flat metric map, one object
//! swprof diff base.json cand.json       # per-metric deltas, strict gate
//! swprof diff base.json cand.json --tolerance 5
//! swprof --selftest                     # verify the diff engine itself
//! swprof --version
//! ```
//!
//! Exit status: 0 success (and, for `diff`, no regression beyond the
//! tolerance); 1 on read/parse failures, regressions, or a broken
//! selftest; 2 on usage errors. `swlint --selftest` follows the same
//! convention: healthy exits 0, a fixture miss exits 1.

use std::process::exit;

use sparseweaver::cli::{self, usage_err, Args, CliError, FlagSpec};
use sparseweaver::core::profile::{
    comparability_issues, diff, flat_metrics, lower_is_better, regressions, MetricDelta,
    PROFILE_SCHEMA,
};
use sparseweaver::trace::json::{self, escape, Value};

fn usage() -> ! {
    eprintln!(
        "swprof — SparseWeaver profile artifact reader

USAGE:
  swprof report FILE [--json]
  swprof diff BASELINE CANDIDATE [--tolerance PCT] [--all] [--json]
  swprof --selftest [--json]
  swprof --version

  FILE is a profile.json written by `swsim run --profile-out` (schema
  {PROFILE_SCHEMA}); `-` reads from stdin.

REPORT:
  Renders the artifact as a Fig. 4-style top-down cycle breakdown: issue
  slots split into issued / stall categories / idle, per-kernel phase
  tables, latency histogram quantiles, and load-imbalance summaries.
  --json prints the flat `metric: value` map instead.

DIFF:
  Compares two artifacts metric by metric. Lower-is-better metrics
  (cycles, stalls, idle, latency quantiles, imbalance ratios) whose
  candidate value exceeds the baseline by more than the tolerance are
  regressions and make the exit code 1.
  --tolerance PCT  allowed growth before a metric regresses (default 0:
                   any growth fails — right for byte-deterministic reruns)
  --all            print unchanged metrics too
  --json           one JSON object per metric delta, one per line

SELFTEST:
  Exercises parse / flatten / diff / regression gating on built-in
  fixtures. Exits 0 when the engine is healthy, 1 when broken — the
  same convention as swlint --selftest."
    );
    exit(2)
}

const FLAGS: FlagSpec = FlagSpec {
    values: &["tolerance"],
    switches: &["json", "all", "selftest"],
    short: &[],
};

fn load_profile(path: &str) -> Value {
    let text = cli::read_input(path)
        .and_then(|b| String::from_utf8(b).map_err(|_| format!("{path}: not valid UTF-8")))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
    let doc = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid JSON: {e}");
        exit(1)
    });
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == PROFILE_SCHEMA => doc,
        Some(s) => {
            eprintln!("{path}: schema `{s}`, expected `{PROFILE_SCHEMA}`");
            exit(1)
        }
        None => {
            eprintln!("{path}: missing `schema` field — not a profile artifact");
            exit(1)
        }
    }
}

/// Formats a parsed JSON number: integers without a decimal point,
/// everything else with three places.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn num_at(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for p in path {
        match v.get(p) {
            Some(child) => v = child,
            None => return 0.0,
        }
    }
    v.as_num().unwrap_or(0.0)
}

fn str_at<'a>(doc: &'a Value, path: &[&str]) -> &'a str {
    let mut v = doc;
    for p in path {
        match v.get(p) {
            Some(child) => v = child,
            None => return "?",
        }
    }
    v.as_str().unwrap_or("?")
}

fn breakdown_line(label: &str, slots: f64, total: f64) {
    let pct = if total > 0.0 {
        slots / total * 100.0
    } else {
        0.0
    };
    let bar = "#".repeat((pct / 2.0).round() as usize);
    println!("  {label:<18} {:>14}  {pct:>5.1}%  {bar}", fmt_num(slots));
}

fn cmd_report(path: &str, json_mode: bool) -> i32 {
    let doc = load_profile(path);
    if json_mode {
        let metrics = flat_metrics(&doc);
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{}\":{}", escape(name), fmt_num(*v)))
            .collect();
        println!("{{{}}}", body.join(","));
        return 0;
    }
    println!(
        "profile: {} on {} | graph {} vertices, {} edges",
        str_at(&doc, &["schedule"]),
        str_at(&doc, &["algorithm"]),
        fmt_num(num_at(&doc, &["graph", "vertices"])),
        fmt_num(num_at(&doc, &["graph", "edges"])),
    );
    println!(
        "config: {} cores x {} warps (fingerprint {}, graph {})",
        fmt_num(num_at(&doc, &["config", "cores"])),
        fmt_num(num_at(&doc, &["config", "warps_per_core"])),
        str_at(&doc, &["config", "fingerprint"]),
        str_at(&doc, &["graph", "fingerprint"]),
    );
    let slots = num_at(&doc, &["totals", "issue_slots"]);
    println!(
        "\nissue-slot breakdown ({} cycles x cores = {} slots):",
        fmt_num(num_at(&doc, &["totals", "cycles"])),
        fmt_num(slots)
    );
    breakdown_line("issued", num_at(&doc, &["totals", "issued"]), slots);
    for cat in ["memory", "shared", "exec_dep", "weaver"] {
        breakdown_line(
            &format!("stall: {cat}"),
            num_at(&doc, &["totals", "stalls", cat]),
            slots,
        );
    }
    breakdown_line("idle", num_at(&doc, &["totals", "idle"]), slots);
    println!(
        "  other units: l1_queue {} (per access), barrier {} (warp-cycles)",
        fmt_num(num_at(&doc, &["totals", "other_units", "l1_queue"])),
        fmt_num(num_at(&doc, &["totals", "other_units", "barrier"])),
    );
    if let Some(kernels) = doc.get("per_kernel").and_then(Value::as_arr) {
        println!("\nper-kernel:");
        println!(
            "  {:<24} {:>8} {:>12} {:>12}  top phase",
            "kernel", "launches", "cycles", "instrs"
        );
        for k in kernels {
            let name = k.get("name").and_then(Value::as_str).unwrap_or("?");
            let top_phase = match k.get("phases") {
                Some(Value::Obj(phases)) => {
                    phases
                        .iter()
                        .filter_map(|(label, v)| v.as_num().map(|n| (label.as_str(), n)))
                        .fold(
                            ("-", 0.0),
                            |best, cur| if cur.1 > best.1 { cur } else { best },
                        )
                        .0
                }
                _ => "-",
            };
            println!(
                "  {:<24} {:>8} {:>12} {:>12}  {}",
                name,
                fmt_num(num_at(k, &["launches"])),
                fmt_num(num_at(k, &["cycles"])),
                fmt_num(num_at(k, &["instructions"])),
                top_phase
            );
        }
    }
    if let Some(Value::Obj(hists)) = doc.get("histograms") {
        println!("\nlatency histograms (cycles):");
        println!(
            "  {:<18} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in hists {
            println!(
                "  {:<18} {:>10} {:>8} {:>8} {:>8} {:>8}",
                name,
                fmt_num(num_at(h, &["count"])),
                fmt_num(num_at(h, &["p50"])),
                fmt_num(num_at(h, &["p90"])),
                fmt_num(num_at(h, &["p99"])),
                fmt_num(num_at(h, &["max"])),
            );
        }
    }
    if let Some(Value::Obj(imb)) = doc.get("imbalance") {
        println!("\nload imbalance (issued instructions; max/mean, permille):");
        for (name, s) in imb {
            println!(
                "  {:<12} {:>4} entities  min {:>10}  max {:>10}  mean {:>10}  ratio {}",
                name,
                fmt_num(num_at(s, &["entities"])),
                fmt_num(num_at(s, &["min"])),
                fmt_num(num_at(s, &["max"])),
                fmt_num(num_at(s, &["mean"])),
                fmt_num(num_at(s, &["imbalance_permille"])),
            );
        }
    }
    0
}

fn delta_json(d: &MetricDelta) -> String {
    let opt = |v: Option<f64>| v.map(fmt_num).unwrap_or_else(|| "null".into());
    format!(
        "{{\"metric\":\"{}\",\"baseline\":{},\"candidate\":{},\"delta\":{},\"lower_is_better\":{}}}",
        escape(&d.name),
        opt(d.a),
        opt(d.b),
        opt(d.delta()),
        lower_is_better(&d.name),
    )
}

fn cmd_diff(path_a: &str, path_b: &str, tolerance: f64, flags: &Args) -> i32 {
    let json_mode = flags.has("json");
    let show_all = flags.has("all");
    let a = load_profile(path_a);
    let b = load_profile(path_b);
    for issue in comparability_issues(&a, &b) {
        eprintln!("warning: {issue}");
    }
    let deltas = diff(&a, &b);
    let regs = regressions(&deltas, tolerance);
    if json_mode {
        for d in &deltas {
            if show_all || d.a != d.b {
                println!("{}", delta_json(d));
            }
        }
    } else {
        println!(
            "{:<44} {:>14} {:>14} {:>12} {:>9}",
            "metric", "baseline", "candidate", "delta", "change"
        );
        let mut shown = 0usize;
        for d in &deltas {
            if !show_all && d.a == d.b {
                continue;
            }
            shown += 1;
            let is_reg = regs.iter().any(|r| r.name == d.name);
            let marker = if is_reg {
                "  REGRESSED"
            } else if lower_is_better(&d.name) && d.delta().is_some_and(|x| x < 0.0) {
                "  improved"
            } else {
                ""
            };
            let opt = |v: Option<f64>| v.map(fmt_num).unwrap_or_else(|| "-".into());
            let pct = d
                .pct()
                .map(|p| format!("{p:>+8.2}%"))
                .unwrap_or_else(|| "        -".into());
            println!(
                "{:<44} {:>14} {:>14} {:>12} {pct}{marker}",
                d.name,
                opt(d.a),
                opt(d.b),
                opt(d.delta()),
            );
        }
        if shown == 0 {
            println!("(no metric changed)");
        }
        println!(
            "\n{} metric(s) compared, {} changed, {} regression(s) at {tolerance}% tolerance",
            deltas.len(),
            deltas.iter().filter(|d| d.a != d.b).count(),
            regs.len()
        );
    }
    if regs.is_empty() {
        0
    } else {
        1
    }
}

/// A minimal but schema-complete artifact for the selftest fixtures.
fn fixture(cycles: u64, mem_stall: u64, p99: u64, graph_fp: &str) -> String {
    format!(
        r#"{{"schema":"{PROFILE_SCHEMA}","schedule":"S_weaver","algorithm":"bfs",
  "fell_back_from":null,
  "config":{{"cores":2,"warps_per_core":4,"threads_per_warp":4,"fingerprint":"00aa"}},
  "graph":{{"vertices":10,"edges":20,"fingerprint":"{graph_fp}"}},
  "totals":{{"cycles":{cycles},"issue_slots":{slots},"issued":40,
    "thread_instructions":160,
    "stalls":{{"memory":{mem_stall},"shared":1,"exec_dep":2,"weaver":3,"total":{stall_total}}},
    "idle":{idle},"other_units":{{"l1_queue":5,"barrier":6}}}},
  "per_kernel":[{{"name":"gather","launches":1,"cycles":{cycles},"instructions":40,
    "phases":{{"Init":1,"Gather & Sum":{cycles}}},
    "stalls":{{"memory":{mem_stall},"shared":1,"exec_dep":2,"weaver":3,"total":{stall_total}}},
    "other_units":{{"l1_queue":5,"barrier":6}}}}],
  "histograms":{{"mem_l1":{{"count":30,"sum":90,"min":1,"max":{p99},
    "p50":3,"p90":{p99},"p99":{p99},"buckets":[[3,25],[{p99},5]]}}}},
  "imbalance":{{"core_issue":{{"entities":2,"min":18,"max":22,"mean":20,
    "imbalance_permille":1100}}}}}}"#,
        slots = cycles * 2,
        stall_total = mem_stall + 1 + 2 + 3,
        idle = (cycles * 2).saturating_sub(40 + mem_stall + 6),
    )
}

fn cmd_selftest(json_mode: bool) -> i32 {
    let mut ok = true;
    let mut check = |label: &str, pass: bool| {
        ok &= pass;
        if json_mode {
            println!("{{\"check\":\"{}\",\"ok\":{pass}}}", escape(label));
        } else if pass {
            println!("ok    {label}");
        } else {
            println!("FAIL  {label}");
        }
    };

    let base = json::parse(&fixture(100, 10, 8, "00bb")).expect("fixture parses");
    check(
        "fixture parses with the profile schema",
        base.get("schema").and_then(Value::as_str) == Some(PROFILE_SCHEMA),
    );

    let m1 = flat_metrics(&base);
    let m2 = flat_metrics(&base);
    check("flat_metrics is deterministic", m1 == m2);
    check(
        "flat_metrics is sorted and covers nested paths",
        m1.windows(2).all(|w| w[0].0 < w[1].0)
            && m1.iter().any(|(n, _)| n == "totals.stalls.memory")
            && m1.iter().any(|(n, _)| n == "per_kernel.gather.cycles"),
    );

    let self_deltas = diff(&base, &base);
    check(
        "self-diff has no changes and no regressions",
        self_deltas.iter().all(|d| d.a == d.b) && regressions(&self_deltas, 0.0).is_empty(),
    );

    // +20% cycles and +8x memory stall: both lower-is-better.
    let worse = json::parse(&fixture(120, 80, 8, "00bb")).expect("fixture parses");
    let deltas = diff(&base, &worse);
    let regs5 = regressions(&deltas, 5.0);
    check(
        "cycle/stall growth regresses at 5% tolerance",
        regs5.iter().any(|d| d.name == "totals.cycles")
            && regs5.iter().any(|d| d.name == "totals.stalls.memory"),
    );
    check(
        "a generous tolerance forgives the cycle growth",
        !regressions(&deltas, 25.0)
            .iter()
            .any(|d| d.name == "totals.cycles"),
    );

    // p99 latency shrink + count growth: improvement and neutral.
    let faster = json::parse(&fixture(100, 10, 3, "00bb")).expect("fixture parses");
    let deltas = diff(&base, &faster);
    check(
        "latency quantile shrink is not a regression",
        regressions(&deltas, 0.0).is_empty(),
    );
    check(
        "neutral metrics never regress",
        !lower_is_better("totals.issued") && !lower_is_better("histograms.mem_l1.count"),
    );

    let other_graph = json::parse(&fixture(100, 10, 8, "00cc")).expect("fixture parses");
    check(
        "fingerprint mismatch is reported as incomparable",
        comparability_issues(&base, &other_graph)
            .iter()
            .any(|i| i.contains("graph fingerprint"))
            && comparability_issues(&base, &base).is_empty(),
    );

    if !json_mode {
        println!(
            "selftest: diff engine {}",
            if ok { "healthy" } else { "BROKEN" }
        );
    }
    // Well-formed fixtures: healthy exits 0 (cf. swlint --selftest).
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::version("swprof", &args) {
        return;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let code = run(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    exit(code)
}

fn run(args: &[String]) -> Result<i32, CliError> {
    let flags = cli::parse(args, &FLAGS, "swprof")?;
    let pos = &flags.positional;
    if flags.has("selftest") {
        if !pos.is_empty() {
            return usage_err("--selftest takes no subcommand");
        }
        return Ok(cmd_selftest(flags.has("json")));
    }
    match pos.first().map(String::as_str) {
        Some("report") => match pos.as_slice() {
            [_, path] => Ok(cmd_report(path, flags.has("json"))),
            _ => usage_err("`swprof report` takes exactly one FILE"),
        },
        Some("diff") => match pos.as_slice() {
            [_, a, b] => Ok(cmd_diff(
                a,
                b,
                cli::number(&flags, "tolerance", 0.0)?,
                &flags,
            )),
            _ => usage_err("`swprof diff` takes exactly BASELINE and CANDIDATE"),
        },
        _ => usage(),
    }
}
