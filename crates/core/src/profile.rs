//! The `profile.json` artifact: a self-contained, byte-deterministic
//! snapshot of one run's performance profile.
//!
//! A profile artifact bundles, in one file:
//!
//! - an **envelope** with the fingerprints of the machine configuration
//!   and the graph, so two artifacts can be checked for comparability
//!   before their numbers are;
//! - **top-down cycle accounting** in the style of the paper's Fig. 4:
//!   every issue slot of the run is attributed to issued instructions, to
//!   one of the issue-slot stall categories of
//!   [`sparseweaver_sim::StallBreakdown`], or to idle;
//! - **per-kernel tables** with per-phase cycle attribution;
//! - the profiler's **latency histograms** (per memory level, Weaver
//!   request round-trips, gather-loop iteration gaps) with p50/p90/p99;
//! - **load-imbalance summaries** across cores and warps.
//!
//! Everything in the artifact is integer arithmetic over deterministic
//! simulator counters, so the rendered bytes are identical across
//! `--jobs` settings and with the fast-forward engine on or off. The
//! companion `swprof` binary renders reports and run-to-run diffs from
//! these files; [`flat_metrics`], [`diff`] and [`regressions`] are the
//! library half of that tool.

use sparseweaver_graph::Csr;
use sparseweaver_sim::{GpuConfig, KernelStats, Phase};
use sparseweaver_trace::json::{Envelope, Obj, Schema, Value};
use sparseweaver_trace::{ImbalanceSummary, LatencyHistogram, ProfileReport};

use crate::session::RunReport;

/// The schema of every `profile.json` artifact.
pub const PROFILE_SCHEMA: Schema = Schema::new("sparseweaver-profile", 2);

/// A 64-bit FNV-1a hasher — tiny, stable across platforms, and good
/// enough to detect "these two profiles came from different inputs".
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds a byte slice into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints a machine configuration: a `GpuConfig`, or the cache
/// `HierarchyConfig` a memory trace was captured on. The full `Debug`
/// rendering is hashed so every field (including nested hierarchy and
/// Weaver parameters) participates without this module chasing struct
/// changes.
pub fn config_fingerprint(cfg: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv64::default();
    h.write(format!("{cfg:?}").as_bytes());
    h.finish()
}

/// Fingerprints a graph: vertex/edge counts plus the raw CSR arrays.
pub fn graph_fingerprint(graph: &Csr) -> u64 {
    let mut h = Fnv64::default();
    h.write_u64(graph.num_vertices() as u64);
    h.write_u64(graph.num_edges() as u64);
    for &o in graph.offsets() {
        h.write(&o.to_le_bytes());
    }
    for &t in graph.targets() {
        h.write(&t.to_le_bytes());
    }
    for &w in graph.weights() {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

fn histogram_fields(o: &mut Obj<'_>, h: &LatencyHistogram) {
    o.field("count", h.count)
        .field("sum", h.sum)
        .field("min", h.min_or_zero())
        .field("max", h.max)
        .field("p50", h.p50())
        .field("p90", h.p90())
        .field("p99", h.p99())
        .arr("buckets", |a| {
            for (i, &count) in h.buckets.iter().enumerate() {
                if count > 0 {
                    a.arr(|b| {
                        b.item(LatencyHistogram::bucket_upper(i)).item(count);
                    });
                }
            }
        });
}

fn stalls_fields(o: &mut Obj<'_>, s: &sparseweaver_sim::StallBreakdown) {
    o.field("memory", s.memory)
        .field("shared", s.shared)
        .field("exec_dep", s.exec_dep)
        .field("weaver", s.weaver)
        .field("total", s.total());
}

fn other_units_fields(o: &mut Obj<'_>, s: &sparseweaver_sim::StallBreakdown) {
    o.field("l1_queue", s.l1_queue).field("barrier", s.barrier);
}

fn kernel_fields(o: &mut Obj<'_>, name: &str, stats: &KernelStats) {
    o.field("name", name)
        .field("launches", stats.launches)
        .field("cycles", stats.cycles)
        .field("instructions", stats.instructions)
        .obj("phases", |o| {
            for (phase, cycles) in Phase::ALL.iter().zip(&stats.phase_cycles) {
                o.field(phase.label(), cycles);
            }
        })
        .obj("stalls", |o| stalls_fields(o, &stats.stalls))
        .obj("other_units", |o| other_units_fields(o, &stats.stalls));
}

fn imbalance_fields(o: &mut Obj<'_>, s: &ImbalanceSummary) {
    o.field("entities", s.entities)
        .field("min", s.min)
        .field("max", s.max)
        .field("mean", s.mean)
        .field("imbalance_permille", s.imbalance_permille);
}

/// Renders the `profile.json` artifact for one run.
///
/// The output is one JSON document under a [`PROFILE_SCHEMA`] envelope
/// carrying the config and graph fingerprints, all-integer and
/// byte-deterministic for a given `(report, cfg, graph)` triple. When
/// the run was executed without [`crate::Session::profile`], the
/// histogram and imbalance sections are present but empty — the cycle
/// accounting comes from [`KernelStats`], which is always collected.
pub fn render(report: &RunReport, cfg: &GpuConfig, graph: &Csr) -> String {
    let empty = ProfileReport::default();
    let prof = report.profile.as_ref().unwrap_or(&empty);
    let stats = &report.stats;

    // Top-down accounting (Fig. 4): each core offers one issue slot per
    // cycle; a slot was spent issuing, stalled for an issue-slot cause,
    // or idle (no resident warp ready — includes drained tail cycles).
    let issue_slots = report.cycles.saturating_mul(cfg.num_cores as u64);
    let idle = issue_slots.saturating_sub(stats.instructions + stats.stalls.total());

    let envelope = Envelope::new(
        PROFILE_SCHEMA,
        Some(config_fingerprint(cfg)),
        Some(graph_fingerprint(graph)),
    );
    envelope.object(|o| {
        o.field("schedule", report.schedule.to_string())
            .field("algorithm", &report.algorithm)
            .field(
                "fell_back_from",
                report.fell_back_from.map(|s| s.to_string()),
            )
            .obj("config", |o| {
                o.field("cores", cfg.num_cores)
                    .field("warps_per_core", cfg.warps_per_core)
                    .field("threads_per_warp", cfg.threads_per_warp);
            })
            .obj("graph", |o| {
                o.field("vertices", graph.num_vertices())
                    .field("edges", graph.num_edges());
            })
            .obj("totals", |o| {
                o.field("cycles", report.cycles)
                    .field("issue_slots", issue_slots)
                    .field("issued", stats.instructions)
                    .field("thread_instructions", stats.thread_instructions)
                    .obj("stalls", |o| stalls_fields(o, &stats.stalls))
                    .field("idle", idle)
                    .obj("other_units", |o| other_units_fields(o, &stats.stalls));
            })
            .arr("per_kernel", |a| {
                for (name, ks) in &report.per_kernel {
                    a.obj(|o| kernel_fields(o, name, ks));
                }
            })
            .obj("histograms", |o| {
                for (i, h) in prof.mem.iter().enumerate() {
                    let key = format!("mem_{}", ProfileReport::mem_level_label(i));
                    o.obj(&key, |o| histogram_fields(o, h));
                }
                o.obj("weaver_latency", |o| histogram_fields(o, &prof.weaver))
                    .obj("gather_iteration", |o| {
                        histogram_fields(o, &prof.gather_iteration)
                    });
            })
            .obj("imbalance", |o| {
                o.obj("core_issue", |o| {
                    imbalance_fields(o, &prof.core_imbalance())
                })
                .obj("warp_issue", |o| {
                    imbalance_fields(o, &prof.warp_imbalance())
                });
            });
    })
}

/// One named scalar metric extracted from a profile document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted metric path, e.g. `totals.stalls.memory`.
    pub name: String,
    /// Value in the first (baseline) profile, if present.
    pub a: Option<f64>,
    /// Value in the second (candidate) profile, if present.
    pub b: Option<f64>,
}

impl MetricDelta {
    /// `b - a` when both sides are present.
    pub fn delta(&self) -> Option<f64> {
        Some(self.b? - self.a?)
    }

    /// Percent change relative to the baseline, when defined.
    pub fn pct(&self) -> Option<f64> {
        let (a, b) = (self.a?, self.b?);
        if a == 0.0 {
            None
        } else {
            Some((b - a) / a * 100.0)
        }
    }
}

fn flatten_into(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((prefix.to_string(), *n)),
        Value::Obj(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&path, child, out);
            }
        }
        Value::Arr(items) => {
            // Arrays of named objects (per_kernel) flatten by name;
            // anonymous arrays (histogram buckets) are summarized by
            // their quantile fields already and are skipped.
            for item in items {
                if let Some(name) = item.get("name").and_then(Value::as_str) {
                    flatten_into(&format!("{prefix}.{name}"), item, out);
                }
            }
        }
        _ => {}
    }
}

/// Extracts every numeric metric from a parsed profile document as
/// `(dotted_path, value)` pairs in a deterministic (sorted) order.
/// Histogram bucket arrays are skipped — their content is summarized by
/// the `count`/`sum`/`p*` fields.
pub fn flat_metrics(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into("", doc, &mut out);
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

/// Whether a metric regressing *upward* is bad. Cycle counts, stall
/// attributions, idle slots, latency quantiles and imbalance ratios are
/// lower-is-better; raw event counts are neutral (a different schedule
/// legitimately issues a different number of instructions).
pub fn lower_is_better(name: &str) -> bool {
    if name.ends_with(".name") {
        return false;
    }
    name.contains(".stalls.")
        || name.ends_with(".idle")
        || name == "totals.cycles"
        || name.ends_with(".cycles")
        || name.ends_with(".p50")
        || name.ends_with(".p90")
        || name.ends_with(".p99")
        || name.ends_with(".imbalance_permille")
}

/// Computes per-metric deltas between two parsed profile documents.
/// The result covers the union of both metric sets, sorted by name;
/// a metric missing on one side has `None` there.
pub fn diff(a: &Value, b: &Value) -> Vec<MetricDelta> {
    let fa = flat_metrics(a);
    let fb = flat_metrics(b);
    let mut names: Vec<&String> = fa.iter().map(|(n, _)| n).collect();
    names.extend(fb.iter().map(|(n, _)| n));
    names.sort();
    names.dedup();
    let lookup = |set: &[(String, f64)], name: &str| {
        set.binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| set[i].1)
    };
    names
        .into_iter()
        .map(|name| MetricDelta {
            name: name.clone(),
            a: lookup(&fa, name),
            b: lookup(&fb, name),
        })
        .collect()
}

/// Filters `deltas` down to regressions: lower-is-better metrics whose
/// candidate value exceeds the baseline by more than `tolerance_pct`
/// percent (a baseline of zero regresses on any positive candidate).
pub fn regressions(deltas: &[MetricDelta], tolerance_pct: f64) -> Vec<MetricDelta> {
    deltas
        .iter()
        .filter(|d| lower_is_better(&d.name))
        .filter(|d| match (d.a, d.b) {
            (Some(a), Some(b)) => b > a + a.abs() * tolerance_pct / 100.0 && b > a,
            _ => false,
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;
    use crate::schedule::Schedule;
    use crate::session::Session;
    use sparseweaver_trace::json;

    fn profiled_run() -> (RunReport, GpuConfig, Csr) {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let cfg = GpuConfig::small_test();
        let mut s = Session::new(cfg);
        s.profile = true;
        let r = s
            .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
            .unwrap();
        (r, cfg, g)
    }

    #[test]
    fn fingerprints_separate_different_inputs() {
        let cfg_a = GpuConfig::small_test();
        let mut cfg_b = GpuConfig::small_test();
        cfg_b.num_cores += 1;
        assert_eq!(config_fingerprint(&cfg_a), config_fingerprint(&cfg_a));
        assert_ne!(config_fingerprint(&cfg_a), config_fingerprint(&cfg_b));

        let g_a = sparseweaver_graph::generators::uniform(30, 90, 7);
        let g_b = sparseweaver_graph::generators::uniform(30, 90, 8);
        assert_eq!(graph_fingerprint(&g_a), graph_fingerprint(&g_a));
        assert_ne!(graph_fingerprint(&g_a), graph_fingerprint(&g_b));
    }

    #[test]
    fn rendered_profile_parses_and_balances() {
        let (r, cfg, g) = profiled_run();
        let text = render(&r, &cfg, &g);
        let doc = json::parse(&text).expect("valid JSON");
        let env = Envelope::read(&doc).expect("envelope");
        assert_eq!(
            (env.schema.as_str(), env.version),
            (PROFILE_SCHEMA.id, PROFILE_SCHEMA.version)
        );
        assert_eq!(env.config, Some(config_fingerprint(&cfg)));
        assert_eq!(env.input, Some(graph_fingerprint(&g)));
        let totals = doc.get("totals").expect("totals");
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap() as u64;
        let slots = num(totals, "issue_slots");
        let issued = num(totals, "issued");
        let idle = num(totals, "idle");
        let stall_total = num(totals.get("stalls").unwrap(), "total");
        // Top-down accounting closes: every slot is attributed.
        assert_eq!(slots, issued + stall_total + idle);
        assert_eq!(slots, num(totals, "cycles") * cfg.num_cores as u64);
        // Histograms made it into the artifact.
        let weaver = doc
            .get("histograms")
            .unwrap()
            .get("weaver_latency")
            .unwrap();
        assert!(num(weaver, "count") > 0);
        assert!(num(weaver, "p99") >= num(weaver, "p50"));
    }

    #[test]
    fn render_is_deterministic() {
        let (r, cfg, g) = profiled_run();
        assert_eq!(render(&r, &cfg, &g), render(&r, &cfg, &g));
        let (r2, cfg2, g2) = profiled_run();
        assert_eq!(render(&r, &cfg, &g), render(&r2, &cfg2, &g2));
    }

    #[test]
    fn flat_metrics_cover_kernels_by_name() {
        let (r, cfg, g) = profiled_run();
        let doc = json::parse(&render(&r, &cfg, &g)).unwrap();
        let metrics = flat_metrics(&doc);
        assert!(
            metrics.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted, unique"
        );
        assert!(metrics.iter().any(|(n, _)| n == "totals.stalls.memory"));
        assert!(metrics
            .iter()
            .any(|(n, _)| n.starts_with("per_kernel.") && n.ends_with(".cycles")));
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "histograms.weaver_latency.p99"));
        // Bucket arrays are summarized, not flattened.
        assert!(!metrics.iter().any(|(n, _)| n.contains("buckets")));
        assert_eq!(metrics, flat_metrics(&doc), "deterministic");
        // A replay artifact's sweep entries flatten by name too, so two
        // sweeps diff entry by entry.
        let replay = |hits: &str| {
            let doc = r#"{"sweep":[{"name":"l1=4096x2",
                "stats":{"l1":{"accesses":100,"hits":HITS},"dram_accesses":7}}]}"#;
            json::parse(&doc.replace("HITS", hits)).unwrap()
        };
        let deltas = diff(&replay("60"), &replay("50"));
        let hits = deltas
            .iter()
            .find(|d| d.name == "sweep.l1=4096x2.stats.l1.hits")
            .unwrap();
        assert_eq!(hits.delta(), Some(-10.0));
        assert!(diff(&replay("60"), &replay("60"))
            .iter()
            .all(|d| d.a == d.b));
    }

    #[test]
    fn diff_flags_only_lower_is_better_regressions() {
        let a = json::parse(
            r#"{"totals":{"cycles":100,"issued":50,"stalls":{"memory":10}},
                "histograms":{"mem_l1":{"count":5,"p99":8}}}"#,
        )
        .unwrap();
        let b = json::parse(
            r#"{"totals":{"cycles":120,"issued":70,"stalls":{"memory":12}},
                "histograms":{"mem_l1":{"count":9,"p99":8}}}"#,
        )
        .unwrap();
        let self_deltas = diff(&a, &a);
        assert!(self_deltas.iter().all(|d| d.a == d.b));
        assert!(regressions(&self_deltas, 0.0).is_empty());
        let deltas = diff(&a, &b);
        let cycles = deltas.iter().find(|d| d.name == "totals.cycles").unwrap();
        assert_eq!(cycles.delta(), Some(20.0));
        assert_eq!(cycles.pct(), Some(20.0));
        // 20% growth in cycles and stalls regresses at 5% tolerance but
        // not at 25%.
        let regs: Vec<_> = regressions(&deltas, 5.0)
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(regs, ["totals.cycles", "totals.stalls.memory"]);
        assert!(regressions(&deltas, 25.0).is_empty());
        // A latency quantile that shrinks is an improvement.
        let faster = json::parse(
            r#"{"totals":{"cycles":100,"issued":50,"stalls":{"memory":10}},
                "histograms":{"mem_l1":{"count":5,"p99":3}}}"#,
        )
        .unwrap();
        let deltas = diff(&a, &faster);
        assert!(deltas
            .iter()
            .any(|d| d.name == "histograms.mem_l1.p99" && d.delta() == Some(-5.0)));
        assert!(regressions(&deltas, 0.0).is_empty());
        // issued and count grew too, but they are neutral metrics.
        assert!(!lower_is_better("totals.issued"));
        assert!(!lower_is_better("histograms.mem_l1.count"));
        assert!(lower_is_better("histograms.mem_l1.p99"));
        assert!(lower_is_better("imbalance.core_issue.imbalance_permille"));
    }

    #[test]
    fn envelope_carries_the_fingerprints() {
        let (r, cfg, g) = profiled_run();
        let read =
            |cfg: &GpuConfig| Envelope::read(&json::parse(&render(&r, cfg, &g)).unwrap()).unwrap();
        let doc = read(&cfg);
        assert_eq!(doc.comparable(&doc), Ok(vec![]));
        let mut cfg2 = cfg;
        cfg2.num_cores += 2;
        let issues = doc.comparable(&read(&cfg2)).unwrap();
        assert_eq!(issues.len(), 1);
        assert!(issues[0].contains("config fingerprint"));
    }

    #[test]
    fn unprofiled_report_still_renders() {
        let g = sparseweaver_graph::generators::uniform(30, 90, 3);
        let cfg = GpuConfig::small_test();
        let mut s = Session::new(cfg);
        let r = s.run(&g, &PageRank::new(1), Schedule::Svm).unwrap();
        assert!(r.profile.is_none());
        let doc = json::parse(&render(&r, &cfg, &g)).unwrap();
        let weaver = doc
            .get("histograms")
            .unwrap()
            .get("weaver_latency")
            .unwrap();
        assert_eq!(weaver.get("count").and_then(Value::as_num), Some(0.0));
    }
}
