//! The command-line front end shared by the tools in `src/bin/`.
//!
//! Every tool names the same evaluation grid: schedules, algorithms,
//! generated or Table III graphs, and machine presets. This module holds
//! the one flag parser and the one set of readers for those names, so a
//! spelling accepted by `swsim` is accepted by `swfault` and `swlint` too.
//!
//! **Flag grammar.** A tool declares its flags once in a [`FlagSpec`]:
//! value flags (`--name VALUE`), switches (`--name`), and short
//! spellings of value flags (`swsim gen -o FILE`). A switch never
//! consumes the token after it; a value flag always takes the next
//! token, which must be non-empty and must not itself start with `--`.
//! Anything else not starting with `--` is a positional. Unknown flags
//! and value flags without a value are usage errors. A repeated flag
//! keeps its last value.
//!
//! **Errors.** Readers return a [`CliError`] rather than exiting, and each
//! tool's `main` maps it once: a usage error prints its message and the
//! tool's usage text and exits 2; an unreadable or unparsable input file
//! exits 1. Every argument is validated before any generator or
//! algorithm runs, so a bad argument never reaches an `assert!` in the
//! library.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::path::Path;

use crate::core::algorithms::{Algorithm, Bfs, ConnectedComponents, PageRank, Spmv, Sssp};
use crate::graph::{dataset, generators, io, Csr, DatasetId, VertexId};
use crate::sim::GpuConfig;
use crate::trace::codec::write_atomic;

/// A command-line error, mapped to an exit code once by each tool's `main`.
#[derive(Debug)]
pub enum CliError {
    /// A bad, missing or unknown argument (exit 2).
    Usage(String),
    /// An input file that cannot be read or parsed (exit 1).
    Input(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Input(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// Shorthand for returning a usage error.
pub fn usage_err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// The flags one tool (or one subcommand) accepts.
#[derive(Debug)]
pub struct FlagSpec {
    /// Flags that take a value: `--name VALUE`.
    pub values: &'static [&'static str],
    /// Flags that take no value: `--name`.
    pub switches: &'static [&'static str],
    /// Short spellings of value flags, e.g. `("-o", "out")`.
    pub short: &'static [(&'static str, &'static str)],
}

impl FlagSpec {
    /// Accepts no flags at all.
    pub const NONE: FlagSpec = FlagSpec {
        values: &[],
        switches: &[],
        short: &[],
    };
}

/// Parsed command-line arguments: positionals in order, and each flag
/// present (switches map to an empty value).
#[derive(Debug, Default)]
pub struct Args {
    /// Tokens that are not flags or flag values, in order.
    pub positional: Vec<String>,
    /// Flag name (without `--`) to value.
    pub flags: HashMap<String, String>,
}

impl Args {
    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A usage error for tools and subcommands that take no positionals.
    pub fn no_positionals(&self) -> Result<(), CliError> {
        match self.positional.first() {
            Some(p) => usage_err(format!("unexpected argument `{p}`")),
            None => Ok(()),
        }
    }
}

/// Parses `args` against `spec`. `context` names the tool (and
/// subcommand) in the unknown-flag message, e.g. `swsim run`.
pub fn parse(args: &[String], spec: &FlagSpec, context: &str) -> Result<Args, CliError> {
    let mut out = Args::default();
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        let name = match token.strip_prefix("--") {
            Some(name) => name,
            None => match spec.short.iter().find(|(s, _)| s == token) {
                Some((_, long)) => long,
                None => {
                    out.positional.push(token.clone());
                    continue;
                }
            },
        };
        if spec.switches.contains(&name) {
            out.flags.insert(name.to_string(), String::new());
        } else if spec.values.contains(&name) {
            match tokens.next() {
                Some(v) if !v.is_empty() && !v.starts_with("--") => {
                    out.flags.insert(name.to_string(), v.clone());
                }
                _ => return usage_err(format!("--{name} expects a value")),
            }
        } else {
            return usage_err(format!("unknown flag `--{name}` for `{context}`"));
        }
    }
    Ok(out)
}

/// Handles `--version` / `-V` anywhere on the command line: prints
/// `TOOL VERSION` and returns true when the tool should stop.
pub fn version(tool: &str, args: &[String]) -> bool {
    let asked = args.iter().any(|a| a == "--version" || a == "-V");
    if asked {
        println!("{tool} {}", crate::VERSION);
    }
    asked
}

/// Whether `path` is `-`, the command-line name for stdin (an input)
/// or stdout (an output).
pub fn is_stdio(path: &str) -> bool {
    path == "-"
}

/// Reads the whole file at `path`, or stdin for `-`. The error message
/// names the source.
pub fn read_input(path: &str) -> Result<Vec<u8>, String> {
    if is_stdio(path) {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map(|_| buf)
            .map_err(|e| format!("cannot read stdin: {e}"))
    } else {
        std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// Writes `body` to stdout for `-`, else atomically to the file at
/// `path` (see [`write_atomic`]).
pub fn write_output(path: &str, body: &[u8]) -> std::io::Result<()> {
    if is_stdio(path) {
        std::io::stdout().write_all(body)
    } else {
        write_atomic(Path::new(path), body)
    }
}

/// Reads `--name` as a number, or `None` when absent.
pub fn opt_number<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, CliError> {
    match args.get(name) {
        None => Ok(None),
        Some(v) => match v.parse() {
            Ok(n) => Ok(Some(n)),
            Err(_) => usage_err(format!("--{name} expects a number, got `{v}`")),
        },
    }
}

/// Reads `--name` as a number, or `default` when absent.
pub fn number<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, CliError> {
    Ok(opt_number(args, name)?.unwrap_or(default))
}

/// Reads `--name on|off`, or `default` when absent.
pub fn on_off(args: &Args, name: &str, default: bool) -> Result<bool, CliError> {
    match args.get(name) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => usage_err(format!("--{name} expects on|off, got `{other}`")),
    }
}

/// Reads `--config PRESET`; `default` names the tool's preset.
pub fn config(args: &Args, default: &str) -> Result<GpuConfig, CliError> {
    match args.get("config").unwrap_or(default) {
        "vortex" => Ok(GpuConfig::vortex_default()),
        "eval" | "evaluation" => Ok(GpuConfig::evaluation_default()),
        "small" => Ok(GpuConfig::small_test()),
        "8core" => Ok(GpuConfig::eight_core()),
        "regfile" => Ok(GpuConfig::regfile_limited()),
        other => usage_err(format!("unknown config `{other}`")),
    }
}

/// Reads `--schedule S`, or `None` when absent. Spellings are
/// [`Schedule`](crate::core::Schedule)'s `FromStr`.
pub fn schedule(args: &Args) -> Result<Option<crate::core::Schedule>, CliError> {
    args.get("schedule")
        .map(|s| s.parse().map_err(CliError::Usage))
        .transpose()
}

/// Reads the graph source: `--graph FILE`, `--dataset ID` or
/// `--gen SPEC` (at most one), or `None` when none is given.
pub fn graph(args: &Args) -> Result<Option<Csr>, CliError> {
    if ["graph", "dataset", "gen"]
        .iter()
        .filter(|s| args.has(s))
        .count()
        > 1
    {
        return usage_err("--graph, --dataset and --gen are mutually exclusive");
    }
    if let Some(path) = args.get("graph") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
        let g = io::parse_edge_list(&text)
            .map_err(|e| CliError::Input(format!("cannot parse {path}: {e}")))?;
        Ok(Some(g))
    } else if let Some(id) = args.get("dataset") {
        Ok(Some(dataset(dataset_id(id)?).graph))
    } else if let Some(spec) = args.get("gen") {
        generate(spec).map(Some)
    } else {
        Ok(None)
    }
}

fn dataset_id(s: &str) -> Result<DatasetId, CliError> {
    DatasetId::ALL
        .into_iter()
        .find(|d| d.short_name().eq_ignore_ascii_case(s) || d.full_name().eq_ignore_ascii_case(s))
        .ok_or_else(|| CliError::Usage(format!("unknown dataset `{s}` — see `swsim datasets`")))
}

/// Validates a generator spec and generates the graph, with the random
/// edge weights SSSP needs. Specs: `powerlaw:V:E:ALPHA:SEED`,
/// `uniform:V:E:SEED`, `rmat:SCALE:E:SEED`, `grid:W:H:KEEP:SEED`.
/// A spec that would break a generator's preconditions is a usage error.
pub fn generate(spec: &str) -> Result<Csr, CliError> {
    let bad = |why: &str| CliError::Usage(format!("bad generator spec `{spec}`{why}"));
    let parts: Vec<&str> = spec.split(':').collect();
    let field = |i: usize| parts.get(i).copied().unwrap_or("");
    let int = |i: usize| field(i).parse::<u64>().map_err(|_| bad(""));
    let real = |i: usize| field(i).parse::<f64>().map_err(|_| bad(""));
    // Vertex ids are `VertexId`; a larger count would silently truncate.
    let vertices = |n: u64| match usize::try_from(n) {
        Ok(n) if n <= VertexId::MAX as usize => Ok(n),
        _ => Err(bad(": too many vertices")),
    };
    // Vertex and edge counts; edges need at least one vertex.
    let counts = || {
        let (v, e) = (vertices(int(1)?)?, int(2)? as usize);
        if v == 0 && e > 0 {
            return Err(bad(": cannot place edges in an empty graph"));
        }
        Ok((v, e))
    };
    let base = match field(0) {
        "powerlaw" => {
            let (v, e) = counts()?;
            let alpha = real(3)?;
            if !alpha.is_finite() {
                return Err(bad(": ALPHA must be finite"));
            }
            generators::powerlaw(v, e, alpha, int(4)?)
        }
        "uniform" => {
            let (v, e) = counts()?;
            generators::uniform(v, e, int(3)?)
        }
        "rmat" => {
            let scale = int(1)?;
            if scale >= 31 {
                return Err(bad(": SCALE must be below 31"));
            }
            generators::rmat(scale as u32, int(2)? as usize, 0.57, 0.19, 0.19, int(3)?)
        }
        "grid" => {
            let (w, h) = (int(1)?, int(2)?);
            let n = w.checked_mul(h).ok_or_else(|| bad(": too many vertices"))?;
            vertices(n)?;
            generators::road_grid(w as usize, h as usize, real(3)?, 0.01, int(4)?)
        }
        _ => return Err(bad("")),
    };
    Ok(generators::with_random_weights(&base, 64, 0xC11))
}

/// The highest-degree vertex: `swsim`'s default traversal source.
pub fn max_degree_vertex(graph: &Csr) -> VertexId {
    (0..graph.num_vertices() as VertexId)
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0)
}

/// Reads `--algo` with `--iters`, `--source` and `--worklist`.
/// `default_algo` is used when `--algo` is absent (`None`: it is
/// required); `default_source` picks the source when `--source` is
/// absent. A `bfs`/`sssp` source outside the graph is a usage error.
pub fn algorithm(
    args: &Args,
    graph: &Csr,
    default_algo: Option<&str>,
    default_source: impl FnOnce(&Csr) -> VertexId,
) -> Result<Box<dyn Algorithm>, CliError> {
    const NAMES: &str = "pr | bfs | sssp | cc | spmv";
    let Some(name) = args.get("algo").or(default_algo) else {
        return usage_err(format!("--algo is required ({NAMES})"));
    };
    let iters: u32 = number(args, "iters", 5)?;
    let source = match opt_number::<VertexId>(args, "source")? {
        Some(s) => s,
        None => default_source(graph),
    };
    let nv = graph.num_vertices();
    if matches!(name, "bfs" | "sssp") && nv > 0 && source as usize >= nv {
        return usage_err(format!(
            "--source {source} is out of range: the graph has {nv} vertices"
        ));
    }
    Ok(match name {
        "pr" | "pagerank" => Box::new(PageRank::new(iters)),
        "bfs" => Box::new(Bfs::new(source)),
        "sssp" => Box::new(Sssp::new(source).with_worklist(args.has("worklist"))),
        "cc" => Box::new(ConnectedComponents::new()),
        "spmv" => Box::new(Spmv::new()),
        other => return usage_err(format!("unknown algorithm `{other}` ({NAMES})")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FlagSpec = FlagSpec {
        values: &["trace", "out"],
        switches: &["json"],
        short: &[("-o", "out")],
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn switches_never_consume_the_next_token() {
        let a = parse(&strings(&["--json", "CKPT", "-o", "f"]), &SPEC, "t").unwrap();
        assert_eq!(a.positional, ["CKPT"]);
        assert!(a.has("json"));
        assert_eq!(a.get("out"), Some("f"));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        for args in [
            &["--bogus"] as &[&str],
            &["--trace"],
            &["--trace", "--json"],
        ] {
            let e = parse(&strings(args), &SPEC, "t").unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{args:?}");
        }
        // `-` is a value (stdout), not a flag.
        let a = parse(&strings(&["--trace", "-"]), &SPEC, "t").unwrap();
        assert_eq!(a.get("trace"), Some("-"));
    }

    #[test]
    fn generator_specs_that_break_preconditions_are_usage_errors() {
        for spec in [
            "rmat:31:10:1",
            "uniform:0:5:1",
            "powerlaw:0:5:2.0:1",
            "powerlaw:10:20:nan:1",
            "grid:4294967296:4294967296:0.5:1",
            "grid:8:8",
            "hexagon:1:2:3",
        ] {
            let e = generate(spec).unwrap_err();
            assert!(
                e.to_string().starts_with("bad generator spec"),
                "{spec}: {e}"
            );
        }
        assert_eq!(generate("grid:8:8:0.6:1").unwrap().num_vertices(), 64);
        assert_eq!(generate("uniform:0:0:1").unwrap().num_vertices(), 0);
    }
}
