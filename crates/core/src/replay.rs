//! The `replay.json` artifact: a byte-deterministic cache sweep driven
//! by a captured `swmtrace-v1` memory trace.
//!
//! The offline half of the memory-study mode. A live run captures its
//! hierarchy request stream once (`swsim run --mem-trace-out`); this
//! module replays that stream against a grid of alternative cache
//! geometries — no cores, no decode, no Weaver — and renders the
//! per-configuration [`LevelStats`] under the same artifact discipline
//! as `profile.json`: one enveloped, all-integer JSON document with FNV-1a
//! fingerprints and identical bytes across `--jobs` settings. The capture configuration itself is
//! always replayed first and checked bit-for-bit against the live stats
//! in the trace footer, so every sweep carries its own correctness
//! anchor.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use sparseweaver_mem::mtrace::MemTrace;
use sparseweaver_mem::replay::{replay, verify, ReplayError};
use sparseweaver_mem::{CacheConfig, CacheStats, HierarchyConfig, LevelStats};
use sparseweaver_trace::json::{Envelope, Obj, Schema};

use crate::profile::{config_fingerprint, Fnv64};

/// The schema of every `replay.json` artifact.
pub const REPLAY_SCHEMA: Schema = Schema::new("sparseweaver-replay", 2);

/// The sweep grid: the capture configuration with its L1 geometry
/// replaced by each `(size, ways)` pair of the cross product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// L1 sizes to sweep, in bytes.
    pub l1_sizes: Vec<u64>,
    /// L1 associativities to sweep.
    pub ways: Vec<u32>,
    /// Worker threads (`1` = fully serial). Output bytes are identical
    /// for any value: results are collected in grid order.
    pub jobs: usize,
}

/// A sweep rejected before any replay ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The grid is empty (no sizes or no way counts).
    EmptyGrid,
    /// One grid point has an invalid cache geometry — the typed surface
    /// of the set-aliasing bug: a non-power-of-two set count is refused
    /// up front, never silently masked into the wrong set.
    BadGridPoint {
        /// The offending point's label (`l1=<size>x<ways>`).
        label: String,
        /// The underlying geometry error.
        source: sparseweaver_mem::CacheConfigError,
    },
    /// Replaying failed (bad capture header or core mismatch).
    Replay(ReplayError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyGrid => write!(f, "sweep grid is empty"),
            SweepError::BadGridPoint { label, source } => {
                write!(f, "invalid sweep point {label}: {source}")
            }
            SweepError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ReplayError> for SweepError {
    fn from(e: ReplayError) -> Self {
        SweepError::Replay(e)
    }
}

/// One grid point's replayed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEntry {
    /// Human-readable point label (`l1=<size>x<ways>`).
    pub label: String,
    /// The full hierarchy configuration replayed.
    pub config: HierarchyConfig,
    /// FNV-1a fingerprint of the configuration's `Debug` rendering.
    pub fingerprint: u64,
    /// Replayed cumulative stats under this configuration.
    pub stats: LevelStats,
}

/// The whole sweep: the self-check against the live run plus every grid
/// point, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// FNV-1a fingerprint of the raw trace file bytes.
    pub trace_fingerprint: u64,
    /// The capture configuration (from the trace header).
    pub capture_config: HierarchyConfig,
    /// The live run's stats (from the trace footer).
    pub live: LevelStats,
    /// Stats from replaying under the capture configuration.
    pub replayed: LevelStats,
    /// Grid results, one per `(size, ways)` pair in `l1_sizes` x `ways`
    /// order.
    pub entries: Vec<SweepEntry>,
}

impl SweepResult {
    /// Whether the capture-config replay reproduced the live run bit for
    /// bit — the precondition for trusting the swept numbers.
    pub fn verified(&self) -> bool {
        self.replayed == self.live
    }
}

fn config_label(size: u64, ways: u32) -> String {
    format!("l1={size}x{ways}")
}

/// Replays `trace` against the `spec` grid.
///
/// Every grid geometry is validated up front ([`CacheConfig::checked`]),
/// then the capture-config self-check and all grid points fan out on the
/// thread pool when `spec.jobs > 1`. Results are collected in grid
/// order, so the rendered artifact is byte-identical for any job count.
///
/// # Errors
///
/// Returns a [`SweepError`] on an empty grid, an invalid grid geometry,
/// or a trace whose own capture configuration cannot be replayed.
pub fn sweep(
    trace: &MemTrace,
    trace_fingerprint: u64,
    spec: &SweepSpec,
) -> Result<SweepResult, SweepError> {
    if spec.l1_sizes.is_empty() || spec.ways.is_empty() {
        return Err(SweepError::EmptyGrid);
    }
    let mut grid: Vec<(String, HierarchyConfig)> = Vec::new();
    for &size in &spec.l1_sizes {
        for &ways in &spec.ways {
            let label = config_label(size, ways);
            let l1 =
                CacheConfig::checked(size, ways).map_err(|source| SweepError::BadGridPoint {
                    label: label.clone(),
                    source,
                })?;
            let mut cfg = trace.config;
            cfg.l1 = l1;
            grid.push((label, cfg));
        }
    }

    let outcome = verify(trace)?;
    let run_point = |(label, cfg): &(String, HierarchyConfig)| -> Result<SweepEntry, SweepError> {
        let stats = replay(trace, cfg)?;
        Ok(SweepEntry {
            label: label.clone(),
            config: *cfg,
            fingerprint: config_fingerprint(cfg),
            stats,
        })
    };
    let results: Vec<Result<SweepEntry, SweepError>> = if spec.jobs > 1 && grid.len() > 1 {
        let pool = ThreadPoolBuilder::new()
            .num_threads(spec.jobs)
            .build()
            .expect("sweep thread pool");
        pool.install(|| {
            (0..grid.len())
                .into_par_iter()
                .map(|i| run_point(&grid[i]))
                .collect()
        })
    } else {
        grid.iter().map(run_point).collect()
    };
    let entries = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SweepResult {
        trace_fingerprint,
        capture_config: trace.config,
        live: trace.live_stats,
        replayed: outcome.replayed,
        entries,
    })
}

fn cache_stats_fields(o: &mut Obj<'_>, s: &CacheStats) {
    o.field("accesses", s.accesses)
        .field("hits", s.hits)
        .field("misses", s.misses)
        .field("writebacks", s.writebacks);
}

/// One hierarchy's counters as JSON members: `l1`, `l2` and `l3` (each
/// `accesses`/`hits`/`misses`/`writebacks`, `l3` `null` when absent),
/// then `dram_accesses`.
pub fn level_stats_fields(o: &mut Obj<'_>, s: &LevelStats) {
    o.obj("l1", |o| cache_stats_fields(o, &s.l1))
        .obj("l2", |o| cache_stats_fields(o, &s.l2));
    match &s.l3 {
        Some(l3) => o.obj("l3", |o| cache_stats_fields(o, l3)),
        None => o.field("l3", None::<u64>),
    };
    o.field("dram_accesses", s.dram_accesses);
}

fn hierarchy_fields(o: &mut Obj<'_>, cfg: &HierarchyConfig) {
    o.field("cores", cfg.num_cores)
        .field("l1_bytes", cfg.l1.size_bytes)
        .field("l1_ways", cfg.l1.ways)
        .field("l2_bytes", cfg.l2.size_bytes)
        .field("l2_ways", cfg.l2.ways);
    match &cfg.l3 {
        Some(l3) => o.obj("l3", |o| {
            o.field("bytes", l3.size_bytes).field("ways", l3.ways);
        }),
        None => o.field("l3", None::<u64>),
    };
    o.field("dram_freq_ratio", cfg.dram_freq_ratio);
}

/// Renders the `replay.json` artifact: a [`REPLAY_SCHEMA`] envelope whose
/// config fingerprint is the capture configuration's and whose input
/// fingerprint is the trace file's, then the trace census, the capture
/// self-check and one `sweep` entry per grid point, named by its label.
///
/// All-integer and byte-deterministic for a given `(trace, result)`
/// pair; `counts` is the trace's per-kind record census
/// ([`MemTrace::counts`]).
pub fn render(result: &SweepResult, trace: &MemTrace) -> String {
    let (kernels, accesses, unqueued, atomics, barriers) = trace.counts();
    let envelope = Envelope::new(
        REPLAY_SCHEMA,
        Some(config_fingerprint(&result.capture_config)),
        Some(result.trace_fingerprint),
    );
    envelope.object(|o| {
        o.obj("trace", |o| {
            o.field("records", trace.records.len())
                .field("kernels", kernels)
                .field("accesses", accesses)
                .field("unqueued", unqueued)
                .field("atomics", atomics)
                .field("barriers", barriers);
        })
        .obj("capture", |o| {
            o.obj("config", |o| hierarchy_fields(o, &result.capture_config))
                .obj("live", |o| level_stats_fields(o, &result.live))
                .obj("replayed", |o| level_stats_fields(o, &result.replayed))
                .field("verified", result.verified());
        })
        .arr("sweep", |a| {
            for e in &result.entries {
                a.obj(|o| {
                    o.field("name", &e.label)
                        .obj("config", |o| {
                            hierarchy_fields(o, &e.config);
                            o.field("fingerprint", format!("{:016x}", e.fingerprint));
                        })
                        .obj("stats", |o| level_stats_fields(o, &e.stats));
                });
            }
        });
    })
}

/// Fingerprints raw trace-file bytes (FNV-1a), for the artifact header.
pub fn trace_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseweaver_mem::mtrace::{parse, Recorder};
    use sparseweaver_mem::{Hierarchy, Hooks};

    fn captured() -> (Vec<u8>, MemTrace) {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l1 = CacheConfig::new(1024, 2);
        cfg.l2 = CacheConfig::new(8192, 4);
        let mut live = Hierarchy::new(cfg);
        let mut hooks = Hooks {
            recorder: Some(Recorder::in_memory(&cfg)),
            ..Hooks::default()
        };
        fn rec(hooks: &mut Hooks) -> &mut Recorder {
            hooks.recorder.as_mut().expect("recording")
        }
        rec(&mut hooks).kernel_launch("k");
        for i in 0..400u64 {
            rec(&mut hooks).set_warp((i % 4) as u32);
            live.access(
                (i % 2) as usize,
                (i * 192) % 16384,
                i % 5 == 0,
                i * 2,
                &mut hooks,
            );
            if i % 13 == 0 {
                live.atomic(1, (i * 64) % 4096, i * 2, &mut hooks);
            }
        }
        rec(&mut hooks).finalize(&live.stats());
        let bytes = rec(&mut hooks).take_bytes().unwrap();
        let trace = parse(&bytes).unwrap();
        (bytes, trace)
    }

    fn spec(jobs: usize) -> SweepSpec {
        SweepSpec {
            l1_sizes: vec![512, 1024, 4096, 16384],
            ways: vec![2, 4],
            jobs,
        }
    }

    #[test]
    fn sweep_verifies_and_orders_entries() {
        let (bytes, trace) = captured();
        let result = sweep(&trace, trace_fingerprint(&bytes), &spec(1)).unwrap();
        assert!(result.verified());
        assert_eq!(result.entries.len(), 8);
        assert_eq!(result.entries[0].label, "l1=512x2");
        assert_eq!(result.entries[7].label, "l1=16384x4");
        // The grid point matching the capture config reproduces it.
        let same = &result.entries[2];
        assert_eq!(same.label, "l1=1024x2");
        assert_eq!(same.stats, result.live);
    }

    #[test]
    fn rendered_artifact_is_jobs_invariant() {
        let (bytes, trace) = captured();
        let fp = trace_fingerprint(&bytes);
        let serial = render(&sweep(&trace, fp, &spec(1)).unwrap(), &trace);
        let parallel = render(&sweep(&trace, fp, &spec(8)).unwrap(), &trace);
        assert_eq!(serial, parallel, "replay.json must not depend on --jobs");
        let doc = sparseweaver_trace::json::parse(&serial).unwrap();
        let env = Envelope::read(&doc).unwrap();
        assert_eq!(
            (env.schema.as_str(), env.version, env.input),
            (REPLAY_SCHEMA.id, REPLAY_SCHEMA.version, Some(fp))
        );
        assert_eq!(
            doc.get("capture").and_then(|c| c.get("verified")),
            Some(&sparseweaver_trace::json::Value::Bool(true))
        );
    }

    #[test]
    fn bad_grid_point_is_typed_up_front() {
        let (bytes, trace) = captured();
        let bad = SweepSpec {
            l1_sizes: vec![192],
            ways: vec![1],
            jobs: 1,
        };
        let e = sweep(&trace, trace_fingerprint(&bytes), &bad).expect_err("non-pow2 sets");
        match &e {
            SweepError::BadGridPoint { label, .. } => assert_eq!(label, "l1=192x1"),
            other => panic!("expected BadGridPoint, got {other:?}"),
        }
        assert!(e.to_string().contains("power of two"), "{e}");
    }

    #[test]
    fn empty_grid_is_typed() {
        let (bytes, trace) = captured();
        let empty = SweepSpec {
            l1_sizes: vec![],
            ways: vec![2],
            jobs: 1,
        };
        assert_eq!(
            sweep(&trace, trace_fingerprint(&bytes), &empty),
            Err(SweepError::EmptyGrid)
        );
    }
}
