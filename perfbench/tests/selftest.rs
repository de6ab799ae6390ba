//! Self-tests of the benchmark as a whole: every workload at tiny size
//! through both runs, the metric catalog against `BENCHMARK.json`, and
//! the campaign workload anchored to the committed golden summary.

use perfbench::{measure, Outcome, Scale, Workload, END_TO_END, NAMES, PER_LAYER};
use sparseweaver_core::campaign::run_campaign;

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn assert_reports_exactly(o: &Outcome, catalog: &[(&str, &str)], what: &str) {
    let json = o.to_json(catalog);
    for (name, unit) in catalog {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&key)
            .unwrap_or_else(|| panic!("{what}: no {name}"));
        let tail = &json[at..];
        let unit_at = tail.find("\"unit\": ").expect("unit follows value") + 9;
        assert!(
            tail[unit_at..].starts_with(&format!("{unit}\"")),
            "{what}: {name} has the wrong unit"
        );
    }
    assert_eq!(o.metrics.len(), catalog.len(), "{what}: extra metrics");
}

/// Runs sequentially in one test: the traced runs share the capture
/// directory, which each removes when done.
#[test]
fn every_workload_runs_timed_and_traced_at_tiny_size() {
    for name in NAMES {
        let w = Workload::named(name, Scale::Tiny).expect("known workload");

        let timed = measure(&w, 3, 0.01, false).expect("timed run");
        assert!(timed.correct(), "{name}: timed checks failed");
        assert_reports_exactly(&timed, &END_TO_END, name);
        assert_eq!(timed.get("ok_frac"), Some(1.0));
        assert!(timed.get("sim_cycles").is_some_and(|c| c > 0.0));

        let traced = measure(&w, 3, 0.01, true).expect("traced run");
        assert!(traced.correct(), "{name}: traced checks failed");
        assert_reports_exactly(&traced, &PER_LAYER, name);
        let registrations = traced.get("weaver.registrations").expect("reported");
        if name.ends_with("-swm") {
            for c in ["registrations", "dec_requests", "st_fetches"] {
                assert_eq!(traced.get(&format!("weaver.{c}")), Some(0.0), "{name}");
            }
        } else {
            assert!(registrations > 0.0, "{name}: the Weaver unit did no work");
        }
        let campaign_runs = traced.get("campaign.masked").expect("reported")
            + traced.get("campaign.sdc").expect("reported")
            + traced.get("campaign.detected_crash").expect("reported")
            + traced.get("campaign.hang").expect("reported");
        assert_eq!(campaign_runs > 0.0, name.starts_with("campaign"), "{name}");
    }
    assert!(!std::path::Path::new(".perfbench_tmp").exists());
}

#[test]
fn catalog_matches_benchmark_json() {
    let text = repo_file("BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for name in NAMES {
        assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\"")));
    }
    assert_eq!(text.matches("\"why\":").count(), NAMES.len());
}

/// The campaign workload is the CI golden campaign: at its seed and run
/// count it must render `scripts/fault_campaign_golden.json` byte for
/// byte, whatever the worker count.
#[test]
fn campaign_workload_reproduces_the_golden_summary() {
    let w = Workload::named("campaign-bfs-sw", Scale::Full).expect("known workload");
    let mut campaign = w.campaign(2025).expect("a campaign");
    campaign.runs = 200;
    let result = run_campaign(
        &w.config,
        &w.graph(2025),
        w.algorithm().as_ref(),
        w.schedule,
        &campaign,
    )
    .expect("golden run succeeds");
    assert_eq!(result.panics, 0);
    assert_eq!(
        format!("{}\n", result.summary.to_json()),
        repo_file("scripts/fault_campaign_golden.json")
    );
}
