//! `swprof` — read, summarize, and diff SparseWeaver artifacts.
//!
//! Consumes any enveloped JSON artifact (profile, replay, metrics,
//! campaign summary, hang report). A `profile.json` written by
//! `swsim run --profile-out` renders as the paper's Fig. 4-style
//! breakdown; every kind flattens to named metrics, and two artifacts of
//! one kind diff into a run-to-run differential report with regression
//! gating for CI.
//!
//! ```text
//! swprof report profile.json            # Fig. 4-style cycle breakdown
//! swprof report replay.json             # any other kind: its metrics
//! swprof report profile.json --json     # flat metric map, one object
//! swprof diff base.json cand.json       # per-metric deltas, strict gate
//! swprof diff base.json cand.json --tolerance 5
//! swprof --selftest                     # verify the diff engine itself
//! swprof --version
//! ```
//!
//! Exit status: 0 success (and, for `diff`, no regression beyond the
//! tolerance); 1 on read/parse failures, artifacts of different kinds,
//! regressions, or a broken selftest; 2 on usage errors. `swlint --selftest` follows the same
//! convention: healthy exits 0, a fixture miss exits 1.

use std::process::exit;

use sparseweaver::cli::{self, usage_err, Args, CliError, FlagSpec};
use sparseweaver::core::profile::{
    diff, flat_metrics, lower_is_better, regressions, MetricDelta, PROFILE_SCHEMA,
};
use sparseweaver::core::replay::REPLAY_SCHEMA;
use sparseweaver::trace::json::{self, Envelope, Schema, Value};

fn usage() -> ! {
    eprintln!(
        "swprof — SparseWeaver artifact reader

USAGE:
  swprof report FILE [--json]
  swprof diff BASELINE CANDIDATE [--tolerance PCT] [--all] [--json]
  swprof --selftest [--json]
  swprof --version

  FILE is an enveloped JSON artifact: profile.json (`swsim run
  --profile-out`), replay.json, metrics.json, a campaign summary or a
  hang report; `-` reads from stdin.

REPORT:
  Renders a profile as a Fig. 4-style top-down cycle breakdown: issue
  slots split into issued / stall categories / idle, per-kernel phase
  tables, latency histogram quantiles, and load-imbalance summaries.
  Any other kind prints its metrics, one per line.
  --json prints the flat `metric: value` map instead.

DIFF:
  Compares two artifacts of one kind metric by metric; artifacts of
  different schemas or versions are refused (exit 1), and differing
  config or input fingerprints draw a warning. Lower-is-better metrics
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

/// Reads and parses an artifact and its envelope; exits 1 on failure.
fn load(path: &str) -> (Value, Envelope) {
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
    match Envelope::read(&doc) {
        Ok(envelope) => (doc, envelope),
        Err(e) => {
            eprintln!("{path}: not a SparseWeaver artifact: {e}");
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

fn at<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

fn num_at(doc: &Value, path: &[&str]) -> f64 {
    at(doc, path).and_then(Value::as_num).unwrap_or(0.0)
}

fn str_at<'a>(doc: &'a Value, path: &[&str]) -> &'a str {
    at(doc, path).and_then(Value::as_str).unwrap_or("?")
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
    let (doc, envelope) = load(path);
    let metrics = flat_metrics(&doc);
    if json_mode {
        let body = json::object(|o| {
            for (name, v) in &metrics {
                o.field(name, v);
            }
        });
        println!("{body}");
        return 0;
    }
    if envelope.schema != PROFILE_SCHEMA.id {
        println!("{} v{} artifact", envelope.schema, envelope.version);
        for (name, v) in &metrics {
            println!("  {name:<60} {:>14}", fmt_num(*v));
        }
        return 0;
    }
    let fingerprint = |fp: Option<u64>| fp.map_or("-".into(), |v| format!("{v:016x}"));
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
        fingerprint(envelope.config),
        fingerprint(envelope.input),
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
    json::object(|o| {
        o.field("metric", &d.name)
            .field("baseline", d.a)
            .field("candidate", d.b)
            .field("delta", d.delta())
            .field("lower_is_better", lower_is_better(&d.name));
    })
}

fn cmd_diff(path_a: &str, path_b: &str, tolerance: f64, flags: &Args) -> i32 {
    let json_mode = flags.has("json");
    let show_all = flags.has("all");
    let (a, envelope_a) = load(path_a);
    let (b, envelope_b) = load(path_b);
    match envelope_a.comparable(&envelope_b) {
        Ok(warnings) => {
            for w in warnings {
                eprintln!("warning: {w}");
            }
        }
        Err(e) => {
            eprintln!("{path_a} vs {path_b}: {e}");
            return 1;
        }
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

/// The selftest's profile: the members its checks read.
const PROFILE_FIXTURE: &str = r#"{"schedule":"S_weaver","algorithm":"bfs",
  "totals":{"cycles":100,"issued":40,"stalls":{"memory":10,"weaver":3},"idle":144},
  "per_kernel":[{"name":"gather","cycles":100}],
  "histograms":{"mem_l1":{"count":30,"p50":3,"p99":8,"buckets":[[3,25],[8,5]]}}}"#;

/// The selftest's `replay.json`: one sweep entry.
const REPLAY_FIXTURE: &str = r#"{"sweep":[{"name":"l1=4096x2",
  "stats":{"l1":{"accesses":100,"hits":60},"dram_accesses":7}}]}"#;

/// `body` under a `schema` envelope with input fingerprint `input`, and
/// the numbers at the dotted `patch` paths replaced.
fn fixture(schema: Schema, input: u64, body: &str, patch: &[(&str, f64)]) -> Value {
    let envelope = Envelope::new(schema, Some(0xaa), Some(input)).object(|_| {});
    let (Ok(Value::Obj(mut doc)), Ok(Value::Obj(body))) =
        (json::parse(&envelope), json::parse(body))
    else {
        unreachable!("fixtures are objects");
    };
    doc.extend(body);
    let mut doc = Value::Obj(doc);
    for (path, v) in patch {
        let mut at = &mut doc;
        for key in path.split('.') {
            at = match at {
                Value::Obj(m) => m.get_mut(key),
                Value::Arr(a) => key.parse().ok().and_then(|i: usize| a.get_mut(i)),
                _ => None,
            }
            .expect("fixture path exists");
        }
        *at = Value::Num(*v);
    }
    doc
}

fn cmd_selftest(json_mode: bool) -> i32 {
    let mut ok = true;
    let mut check = |label: &str, pass: bool| {
        ok &= pass;
        if json_mode {
            let line = json::object(|o| {
                o.field("check", label).field("ok", pass);
            });
            println!("{line}");
        } else if pass {
            println!("ok    {label}");
        } else {
            println!("FAIL  {label}");
        }
    };
    let envelope = |doc: &Value| Envelope::read(doc).expect("fixture has an envelope");

    let profile =
        |input, patch: &[(&str, f64)]| fixture(PROFILE_SCHEMA, input, PROFILE_FIXTURE, patch);
    let base = profile(0xbb, &[]);
    check(
        "fixture parses with the profile envelope",
        envelope(&base).schema == PROFILE_SCHEMA.id,
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
    let worse = profile(
        0xbb,
        &[("totals.cycles", 120.0), ("totals.stalls.memory", 80.0)],
    );
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
    let faster = profile(0xbb, &[("histograms.mem_l1.p99", 3.0)]);
    let deltas = diff(&base, &faster);
    check(
        "latency quantile shrink is not a regression",
        regressions(&deltas, 0.0).is_empty(),
    );
    check(
        "neutral metrics never regress",
        !lower_is_better("totals.issued") && !lower_is_better("histograms.mem_l1.count"),
    );

    let other_graph = envelope(&profile(0xcc, &[]));
    check(
        "fingerprint mismatch is reported as a warning",
        envelope(&base)
            .comparable(&other_graph)
            .is_ok_and(|w| w.iter().any(|i| i.contains("input fingerprint")))
            && envelope(&base).comparable(&envelope(&base)) == Ok(vec![]),
    );

    let replay = fixture(REPLAY_SCHEMA, 0xbb, REPLAY_FIXTURE, &[]);
    let refusal = envelope(&base).comparable(&envelope(&replay));
    check(
        "artifacts of different schemas are refused, naming both",
        refusal.is_err_and(|e| e.contains(PROFILE_SCHEMA.id) && e.contains(REPLAY_SCHEMA.id)),
    );

    let fewer_hits = fixture(
        REPLAY_SCHEMA,
        0xbb,
        REPLAY_FIXTURE,
        &[("sweep.0.stats.l1.hits", 50.0)],
    );
    let deltas = diff(&replay, &fewer_hits);
    let hits = deltas
        .iter()
        .find(|d| d.name == "sweep.l1=4096x2.stats.l1.hits");
    check(
        "a replay-shaped artifact diffs per sweep entry",
        envelope(&replay).comparable(&envelope(&fewer_hits)) == Ok(vec![])
            && hits.is_some_and(|d| d.delta() == Some(-10.0))
            && diff(&replay, &replay).iter().all(|d| d.a == d.b),
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
