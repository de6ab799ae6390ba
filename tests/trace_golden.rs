//! Golden tests for the observability layer: a small powerlaw run must
//! produce well-formed Chrome-trace JSON and a consistent metrics document,
//! and tracing must be invisible to the cycle model.

use sparseweaver::core::algorithms::{Bfs, PageRank};
use sparseweaver::core::{profile, RunReport, Schedule, Session};
use sparseweaver::graph::Csr;
use sparseweaver::sim::GpuConfig;
use sparseweaver::trace::{export, json, TraceConfig};

fn graph() -> Csr {
    sparseweaver::graph::generators::powerlaw(80, 500, 1.9, 42)
}

fn traced_session() -> Session {
    let mut s = Session::new(GpuConfig::small_test());
    s.trace = Some(TraceConfig {
        sample_every: 200,
        ..TraceConfig::default()
    });
    s
}

#[test]
fn powerlaw_run_emits_well_formed_chrome_trace() {
    let g = graph();
    let mut s = traced_session();
    let report = s
        .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
        .unwrap();
    let trace = report.trace.expect("trace collected");
    let body = export::chrome_trace_json(&trace);

    let doc = json::parse(&body).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph present");
        assert!(matches!(ph, "M" | "X" | "i" | "C"), "unexpected phase {ph}");
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        if ph == "M" {
            continue;
        }
        assert!(e.get("ts").and_then(|v| v.as_num()).is_some(), "ts missing");
        assert!(e.get("pid").and_then(|v| v.as_num()).is_some());
        assert!(e.get("tid").and_then(|v| v.as_num()).is_some());
        if ph == "X" {
            let dur = e.get("dur").and_then(|v| v.as_num()).expect("dur");
            assert!(dur >= 1.0, "complete events span at least a cycle");
        }
    }
    // The run's kernel spans and counter tracks made it into the timeline.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(names.contains(&"stalls"));
    assert!(names.contains(&"phase_cycles"));
    assert!(names.contains(&"cache"));
    assert!(names.iter().any(|n| n.starts_with("weaver")));
}

#[test]
fn metrics_document_matches_the_run() {
    let g = graph();
    let mut s = traced_session();
    let report = s.run(&g, &Bfs::new(0), Schedule::SparseWeaver).unwrap();
    let stats = report.stats.clone();
    let trace = report.trace.expect("trace collected");
    let body = export::metrics_json(&trace, None, None);

    let doc = json::parse(&body).expect("valid JSON");
    let envelope = json::Envelope::read(&doc).expect("envelope");
    assert_eq!(
        (envelope.schema.as_str(), envelope.version),
        ("sparseweaver-metrics", 2)
    );
    assert_eq!(
        doc.get("total_cycles").and_then(|v| v.as_num()),
        Some(report.cycles as f64)
    );
    let samples = doc
        .get("samples")
        .and_then(|v| v.as_arr())
        .expect("samples array");
    assert!(!samples.is_empty());
    // The series is monotone in cycle and in every cumulative counter.
    let mut prev_cycle = -1.0;
    let mut prev_instr = -1.0;
    for sample in samples {
        let cycle = sample.get("cycle").and_then(|v| v.as_num()).expect("cycle");
        assert!(cycle >= prev_cycle, "cycles must be non-decreasing");
        prev_cycle = cycle;
        let counters = sample.get("counters").expect("counters");
        let instr = counters
            .get("instructions")
            .and_then(|v| v.as_num())
            .expect("instructions");
        assert!(instr >= prev_instr, "counters are cumulative");
        prev_instr = instr;
        counters
            .get("stalls")
            .and_then(|v| v.get("memory"))
            .and_then(|v| v.as_num())
            .expect("stall breakdown present");
        counters
            .get("phase_cycles")
            .and_then(|v| v.get("Gather & Sum"))
            .and_then(|v| v.as_num())
            .expect("phase-cycle series present");
    }
    // The final sample equals the run totals.
    let last = samples.last().unwrap().get("counters").unwrap();
    assert_eq!(
        last.get("instructions").and_then(|v| v.as_num()),
        Some(stats.instructions as f64)
    );
    assert_eq!(
        last.get("cache")
            .and_then(|v| v.get("dram_accesses"))
            .and_then(|v| v.as_num()),
        Some(stats.mem.dram_accesses as f64)
    );
}

/// The artifacts of one PageRank run with the chosen sinks attached:
/// `(report, Chrome trace, profile.json, swmtrace bytes)`.
fn observed(
    g: &Csr,
    schedule: Schedule,
    trace: bool,
    profile: bool,
    mem: bool,
) -> (RunReport, Option<String>, Option<String>, Option<Vec<u8>>) {
    let cfg = GpuConfig::small_test();
    let mut s = if trace {
        traced_session()
    } else {
        Session::new(cfg)
    };
    s.profile = profile;
    let path = std::env::temp_dir().join(format!(
        "sw_trace_golden_{schedule:?}_{trace}{profile}_{}.swmtrace",
        std::process::id()
    ));
    if mem {
        s.mem_trace_out = Some(path.clone());
    }
    let report = s.run(g, &PageRank::new(2), schedule).unwrap();
    let chrome = report.trace.as_ref().map(export::chrome_trace_json);
    let prof = profile.then(|| profile::render(&report, &cfg, g));
    let capture = mem.then(|| std::fs::read(&path).expect("memory trace"));
    let _ = std::fs::remove_file(&path);
    (report, chrome, prof, capture)
}

#[test]
fn tracing_leaves_kernel_stats_bit_identical() {
    let g = graph();
    // Svm exercises the plain-core path, SparseWeaver additionally the
    // Weaver-unit tracer hooks, Eghw the unit-port hierarchy lookups.
    for schedule in [Schedule::Svm, Schedule::SparseWeaver, Schedule::Eghw] {
        let mut plain = Session::new(GpuConfig::small_test());
        let mut traced = traced_session();
        let a = plain.run(&g, &PageRank::new(2), schedule).unwrap();
        let b = traced.run(&g, &PageRank::new(2), schedule).unwrap();
        assert_eq!(
            a.stats, b.stats,
            "{schedule:?} stats diverged under tracing"
        );
        assert_eq!(a.per_kernel, b.per_kernel);
        assert!(
            a.output.approx_eq(&b.output, 0.0),
            "outputs must match exactly"
        );

        // Every sink at once: the cycle model is untouched, and each sink
        // writes exactly what it writes alone.
        let (all, chrome, prof, capture) = observed(&g, schedule, true, true, true);
        assert_eq!(a.stats, all.stats, "{schedule:?} stats diverged");
        assert_eq!(a.per_kernel, all.per_kernel);
        assert!(chrome.is_some() && prof.is_some() && capture.is_some());
        let alone = "differs from the one its sink writes alone";
        let trace_alone = observed(&g, schedule, true, false, false).1;
        assert!(chrome == trace_alone, "{schedule:?} trace {alone}");
        let prof_alone = observed(&g, schedule, false, true, false).2;
        assert!(prof == prof_alone, "{schedule:?} profile {alone}");
        let capture_alone = observed(&g, schedule, false, false, true).3;
        assert!(capture == capture_alone, "{schedule:?} capture {alone}");
    }
}
