//! Golden key-set snapshot of the `metrics.json` schema
//! (`sparseweaver-metrics`, version 2).
//!
//! Downstream consumers address this document by key path:
//! `tests/analytic_validation.rs` reads `totals.phase_cycles."Gather &
//! Sum"`, and the `scripts/check_*.sh` CI gates `jq` their way through
//! `totals` and `samples`. Removing or renaming a key breaks them
//! silently — this test pins the complete key set so any schema change
//! has to be made consciously, here, together with a version review.
//!
//! Adding a key is a schema *extension*: extend [`GOLDEN_KEYS`] in the
//! same change. Removing or renaming one is a schema *break*: bump
//! `METRICS_SCHEMA.version` and update every consumer listed above.

use std::collections::BTreeSet;

use sparseweaver::core::algorithms::PageRank;
use sparseweaver::core::{Schedule, Session};
use sparseweaver::graph::generators;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::json::{self, Value};
use sparseweaver::trace::{export, TraceConfig};

/// Every key path the version-2 metrics document guarantees, envelope
/// included. Array elements are addressed as `[]` (all elements share one
/// shape).
const GOLDEN_KEYS: &[&str] = &[
    "config_fingerprint",
    "dropped_events",
    "input_fingerprint",
    "kernels",
    "kernels[].cycles",
    "kernels[].name",
    "kernels[].start",
    "sample_every",
    "samples",
    "samples[].counters",
    "samples[].cycle",
    "schema",
    "tool",
    "total_cycles",
    "totals",
    "version",
];

/// Key paths guaranteed inside every counter snapshot (`totals` and each
/// `samples[].counters` render through the same exporter).
const GOLDEN_COUNTER_KEYS: &[&str] = &[
    "cache",
    "cache.dram_accesses",
    "cache.l1_accesses",
    "cache.l1_hits",
    "cache.l2_accesses",
    "cache.l2_hits",
    "cache.l3_accesses",
    "cache.l3_hits",
    "device_mem",
    "device_mem.reads",
    "device_mem.writes",
    "faults",
    "faults.injected",
    "faults.weaver_drops",
    "faults.weaver_fallbacks",
    "faults.weaver_retries",
    "instructions",
    "occupancy",
    "occupancy.cap",
    "occupancy.kernel_high_water",
    "occupancy.warps_configured",
    "occupancy.warps_resident",
    "phase_cycles",
    "phase_cycles.Edge info access",
    "phase_cycles.Gather & Sum",
    "phase_cycles.Init",
    "phase_cycles.Other",
    "phase_cycles.Registration",
    "phase_cycles.Work ID calc",
    "shared",
    "shared.reads",
    "shared.writes",
    "stalls",
    "stalls.barrier",
    "stalls.exec_dep",
    "stalls.l1_queue",
    "stalls.memory",
    "stalls.shared",
    "stalls.stall_total",
    "stalls.weaver",
    "thread_instructions",
    "weaver",
    "weaver.dec_requests",
    "weaver.registrations",
    "weaver.st_fetches",
];

fn collect_keys(prefix: &str, v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Obj(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(path.clone());
                collect_keys(&path, child, out);
            }
        }
        Value::Arr(items) => {
            for item in items {
                collect_keys(&format!("{prefix}[]"), item, out);
            }
        }
        _ => {}
    }
}

fn metrics_document() -> Value {
    let g = generators::uniform(40, 160, 5);
    let mut s = Session::new(GpuConfig::small_test());
    s.trace = Some(TraceConfig {
        sample_every: 200,
        ..TraceConfig::default()
    });
    let r = s
        .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
        .expect("run");
    let trace = r.trace.expect("trace collected");
    json::parse(&export::metrics_json(&trace, Some(1), Some(2))).expect("metrics.json parses")
}

#[test]
fn metrics_json_key_set_matches_the_golden_snapshot() {
    let doc = metrics_document();

    // Top-level shape, with the counter subtrees handled separately.
    let mut top = BTreeSet::new();
    collect_keys("", &doc, &mut top);
    let top: BTreeSet<String> = top
        .into_iter()
        .filter(|k| !k.starts_with("totals.") && !k.starts_with("samples[].counters."))
        .collect();
    let expected: BTreeSet<String> = GOLDEN_KEYS.iter().map(|s| s.to_string()).collect();
    let missing: Vec<&String> = expected.difference(&top).collect();
    let extra: Vec<&String> = top.difference(&expected).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "metrics.json top-level key set drifted.\n\
         missing (schema break — bump the version): {missing:?}\n\
         extra (schema extension — add to GOLDEN_KEYS): {extra:?}"
    );

    // Counter snapshots: totals and every sample share one shape.
    let expected: BTreeSet<String> = GOLDEN_COUNTER_KEYS.iter().map(|s| s.to_string()).collect();
    let samples = doc.get("samples").and_then(Value::as_arr).expect("samples");
    assert!(!samples.is_empty(), "a profiled run produces samples");
    let snapshots = std::iter::once(("totals", doc.get("totals").expect("totals"))).chain(
        samples
            .iter()
            .map(|s| ("samples[].counters", s.get("counters").expect("counters"))),
    );
    for (what, counters) in snapshots {
        let mut keys = BTreeSet::new();
        collect_keys("", counters, &mut keys);
        let missing: Vec<&String> = expected.difference(&keys).collect();
        let extra: Vec<&String> = keys.difference(&expected).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{what} counter key set drifted.\n\
             missing (schema break — bump the version): {missing:?}\n\
             extra (schema extension — add to GOLDEN_COUNTER_KEYS): {extra:?}"
        );
    }
}

#[test]
fn metrics_json_schema_version_is_pinned() {
    let doc = metrics_document();
    let envelope = json::Envelope::read(&doc).expect("metrics.json opens with an envelope");
    assert_eq!(
        (envelope.schema.as_str(), envelope.version),
        ("sparseweaver-metrics", 2),
        "schema version changed — update every consumer, then this pin"
    );
    assert_eq!((envelope.config, envelope.input), (Some(1), Some(2)));
    // The exact lookups downstream consumers perform today.
    let gather = doc
        .get("totals")
        .and_then(|t| t.get("phase_cycles"))
        .and_then(|p| p.get("Gather & Sum"))
        .and_then(Value::as_num);
    assert!(
        gather.is_some(),
        "tests/analytic_validation.rs reads totals.phase_cycles.\"Gather & Sum\""
    );
    let stall_total = doc
        .get("totals")
        .and_then(|t| t.get("stalls"))
        .and_then(|s| s.get("stall_total"))
        .and_then(Value::as_num);
    assert!(stall_total.is_some(), "stalls.stall_total is exported");
}
