//! `swreplay` — replay captured memory traces against arbitrary cache
//! geometries.
//!
//! Consumes the binary `swmtrace-v1` captures written by
//! `swsim run --mem-trace-out` and re-runs *only* the memory hierarchy
//! against them — no cores, no decode, no Weaver — which makes a
//! cache-geometry sweep orders of magnitude faster than re-simulating.
//!
//! ```text
//! swreplay verify --trace t.swmtrace          # replay == live, bit for bit?
//! swreplay info --trace t.swmtrace            # header + record counts
//! swreplay sweep --trace t.swmtrace \
//!     --l1-sizes 4096,8192,16384 --ways 2,4 --jobs 8 --out replay.json
//! swreplay --version
//! ```
//!
//! Exit status: 0 success; 1 the capture-config replay did not reproduce
//! the live stats (a simulator bug — the hierarchy is meant to be a pure
//! function of its call sequence); 2 usage error; 3 trace file I/O
//! error; 4 corrupt or truncated trace (the error names the byte
//! offset).

use std::process::exit;

use sparseweaver::cli::{self, usage_err, Args, CliError, FlagSpec};
use sparseweaver::core::replay::{
    level_stats_fields, render, sweep, trace_fingerprint, SweepSpec, REPLAY_SCHEMA,
};
use sparseweaver::mem::mtrace::parse;
use sparseweaver::mem::replay::verify;
use sparseweaver::mem::{LevelStats, MemTrace};
use sparseweaver::trace::json;

fn usage() -> ! {
    eprintln!(
        "swreplay — SparseWeaver memory-trace replay and cache-sweep driver

USAGE:
  swreplay verify --trace FILE [--json]
  swreplay sweep  --trace FILE [--l1-sizes CSV] [--ways CSV]
                  [--jobs N] [--out FILE]
  swreplay info   --trace FILE [--json]
  swreplay --version

  FILE is an swmtrace-v1 capture written by `swsim run --mem-trace-out`;
  `-` reads the trace from stdin.

VERIFY:
  Replays the trace under its own capture configuration and compares the
  resulting LevelStats against the live run's stats recorded in the
  trace footer. They must match bit for bit; a mismatch exits 1.

SWEEP:
  Replays the trace under every L1 geometry in the
  `--l1-sizes` x `--ways` cross product (the capture configuration with
  its L1 replaced) and writes a deterministic `{}` JSON
  artifact: per-config LevelStats and DRAM counters, FNV config
  fingerprints, and the capture self-check. Output bytes are identical
  for any `--jobs` value.
  --l1-sizes CSV  L1 sizes in bytes
                  (default 4096,8192,16384,32768,65536,131072,262144,524288)
  --ways CSV      L1 associativities (default 2,4)
  --jobs N        worker threads (default 1)
  --out FILE      artifact path (default `-`, stdout)

INFO:
  Prints the capture header (hierarchy configuration), record counts,
  and the live run's footer stats without replaying anything.

EXIT CODES:
  0 success | 1 capture-config replay mismatch | 2 usage error |
  3 trace I/O error | 4 corrupt or truncated trace",
        REPLAY_SCHEMA.id
    );
    exit(2)
}

/// `swreplay verify` and `swreplay info` flags.
const INSPECT: FlagSpec = FlagSpec {
    values: &["trace"],
    switches: &["json"],
    short: &[],
};

const SWEEP: FlagSpec = FlagSpec {
    values: &["trace", "l1-sizes", "ways", "jobs", "out"],
    ..FlagSpec::NONE
};

/// The `--trace` path, which every subcommand requires.
fn trace_path(flags: &Args) -> Result<&str, CliError> {
    flags
        .get("trace")
        .ok_or_else(|| CliError::Usage("--trace FILE is required (`-` for stdin)".into()))
}

/// Reads the trace file at `path` (or stdin for `-`) and parses it. I/O
/// failures exit 3; parse failures exit 4 with the offending byte offset.
fn load_trace(path: &str) -> (Vec<u8>, MemTrace) {
    let bytes = cli::read_input(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(3)
    });
    match parse(&bytes) {
        Ok(trace) => (bytes, trace),
        Err(e) => {
            eprintln!("invalid memory trace {path}: {e}");
            exit(4)
        }
    }
}

fn csv_u64(flags: &Args, name: &str, default: &[u64]) -> Result<Vec<u64>, CliError> {
    match flags.get(name) {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim().parse().map_err(|_| {
                    CliError::Usage(format!("--{name}: `{s}` is not an unsigned integer"))
                })
            })
            .collect(),
    }
}

fn csv_u32(flags: &Args, name: &str, default: &[u32]) -> Result<Vec<u32>, CliError> {
    csv_u64(
        flags,
        name,
        &default.iter().map(|&w| w as u64).collect::<Vec<_>>(),
    )?
    .into_iter()
    .map(|w| {
        u32::try_from(w)
            .map_err(|_| CliError::Usage(format!("--{name}: `{w}` does not fit in 32 bits")))
    })
    .collect()
}

fn stats_line(prefix: &str, s: &LevelStats) {
    println!(
        "{prefix}L1 {}/{} hits | L2 {}/{} hits{} | DRAM {} accesses",
        s.l1.hits,
        s.l1.accesses,
        s.l2.hits,
        s.l2.accesses,
        match &s.l3 {
            Some(l3) => format!(" | L3 {}/{} hits", l3.hits, l3.accesses),
            None => String::new(),
        },
        s.dram_accesses
    );
}

fn cmd_verify(flags: Args) -> Result<(), CliError> {
    let (_, trace) = load_trace(trace_path(&flags)?);
    let outcome = match verify(&trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            exit(4)
        }
    };
    if flags.has("json") {
        let doc = json::object(|o| {
            o.field("verified", outcome.matches())
                .obj("live", |o| level_stats_fields(o, &outcome.live))
                .obj("replayed", |o| level_stats_fields(o, &outcome.replayed));
        });
        println!("{doc}");
    } else if outcome.matches() {
        println!("verified: replay reproduces the live run bit for bit");
        stats_line("  ", &outcome.live);
    } else {
        println!("MISMATCH: replay diverged from the live run");
        stats_line("  live:     ", &outcome.live);
        stats_line("  replayed: ", &outcome.replayed);
    }
    if !outcome.matches() {
        exit(1)
    }
    Ok(())
}

fn cmd_info(flags: Args) -> Result<(), CliError> {
    let (bytes, trace) = load_trace(trace_path(&flags)?);
    let (kernels, accesses, unqueued, atomics, barriers) = trace.counts();
    let cfg = &trace.config;
    if flags.has("json") {
        let doc = json::object(|o| {
            o.field("fingerprint", format!("{:016x}", trace_fingerprint(&bytes)))
                .field("bytes", bytes.len())
                .field("records", trace.records.len())
                .field("kernels", kernels)
                .field("accesses", accesses)
                .field("unqueued", unqueued)
                .field("atomics", atomics)
                .field("barriers", barriers)
                .field("cores", cfg.num_cores)
                .field("l1_bytes", cfg.l1.size_bytes)
                .field("l1_ways", cfg.l1.ways)
                .field("l2_bytes", cfg.l2.size_bytes)
                .field("l2_ways", cfg.l2.ways)
                .obj("live", |o| level_stats_fields(o, &trace.live_stats));
        });
        println!("{doc}");
        return Ok(());
    }
    println!(
        "swmtrace-v1 capture: {} records in {} bytes (fingerprint {:016x})",
        trace.records.len(),
        bytes.len(),
        trace_fingerprint(&bytes)
    );
    println!(
        "  captured on: {} cores | L1 {}B x{} | L2 {}B x{}{}",
        cfg.num_cores,
        cfg.l1.size_bytes,
        cfg.l1.ways,
        cfg.l2.size_bytes,
        cfg.l2.ways,
        match &cfg.l3 {
            Some(l3) => format!(" | L3 {}B x{}", l3.size_bytes, l3.ways),
            None => String::new(),
        }
    );
    println!(
        "  records: {kernels} kernel launches, {accesses} accesses \
         ({unqueued} unqueued), {atomics} atomics, {barriers} barriers"
    );
    stats_line("  live: ", &trace.live_stats);
    Ok(())
}

fn cmd_sweep(flags: Args) -> Result<(), CliError> {
    let path = trace_path(&flags)?;
    let spec = SweepSpec {
        l1_sizes: csv_u64(
            &flags,
            "l1-sizes",
            &[4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288],
        )?,
        ways: csv_u32(&flags, "ways", &[2, 4])?,
        jobs: cli::number(&flags, "jobs", 1)?,
    };
    if spec.jobs == 0 {
        return usage_err("--jobs must be at least 1");
    }
    let out = flags.get("out").unwrap_or("-");
    let (bytes, trace) = load_trace(path);
    let result = match sweep(&trace, trace_fingerprint(&bytes), &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            exit(2)
        }
    };
    let body = render(&result, &trace) + "\n";
    if let Err(e) = cli::write_output(out, body.as_bytes()) {
        eprintln!("cannot write replay artifact to {out}: {e}");
        exit(3)
    }
    if !cli::is_stdio(out) {
        eprintln!(
            "replay artifact written to {out} ({} configs, verified: {})",
            result.entries.len(),
            result.verified()
        );
    }
    // The swept numbers are only trustworthy if the capture-config
    // replay reproduced the live run.
    if !result.verified() {
        eprintln!("MISMATCH: capture-config replay diverged from the live run");
        exit(1)
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cli::version("swreplay", &args) {
        return;
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage()
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    let spec = match cmd {
        "verify" | "info" => &INSPECT,
        "sweep" => &SWEEP,
        other => {
            eprintln!("unknown subcommand `{other}`");
            usage()
        }
    };
    let result = cli::parse(rest, spec, &format!("swreplay {cmd}")).and_then(|flags| {
        flags.no_positionals()?;
        match cmd {
            "verify" => cmd_verify(flags),
            "info" => cmd_info(flags),
            _ => cmd_sweep(flags),
        }
    });
    if let Err(e) = result {
        eprintln!("{e}");
        usage()
    }
}
