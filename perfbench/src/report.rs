//! The metric catalog and the result line the benchmark prints last.

/// End-to-end metrics `(name, unit)`, reported by every timed run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("graph.gen_s", "s"),
    ("graph.edges", "count"),
    ("runtime.build_s", "s"),
    ("runtime.launches", "count"),
    ("compiler.compile_s", "s"),
    ("isa.decode_s", "s"),
    ("sim.instructions", "count"),
    ("sim.ipc", "1/cycle"),
    ("sim.ns_per_instr", "ns"),
    ("sim.stall_memory", "cycles"),
    ("sim.stall_exec", "cycles"),
    ("sim.stall_shared", "cycles"),
    ("sim.stall_weaver", "cycles"),
    ("sim.ff_off_s", "s"),
    ("sim.ff_speedup", "x"),
    ("mem.replay_s", "s"),
    ("mem.replay_frac", "ratio"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_frac", "ratio"),
    ("mem.l2_hit_frac", "ratio"),
    ("mem.dram_accesses", "count"),
    ("weaver.fsm_s", "s"),
    ("weaver.registrations", "count"),
    ("weaver.dec_requests", "count"),
    ("weaver.st_fetches", "count"),
    ("trace.profile_s", "s"),
    ("trace.profile_overhead_frac", "ratio"),
    ("campaign.golden_s", "s"),
    ("campaign.ms_per_run", "ms"),
    ("campaign.masked", "count"),
    ("campaign.sdc", "count"),
    ("campaign.detected_crash", "count"),
    ("campaign.hang", "count"),
    ("campaign.faults_injected", "count"),
    ("campaign.retries", "count"),
    ("campaign.fallbacks", "count"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("host.calib_s", "s"),
    ("host.trace_overhead_frac", "ratio"),
];

/// The outcome of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations whose correctness was checked.
    pub attempted: u64,
    /// Of those, how many failed their check.
    pub failed: u64,
    /// `(name, value)` for every metric of the catalog the run reports.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records `value` under the catalog entry `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The one-line JSON result, metrics in `catalog` order with their
    /// units. A metric of the catalog that was not recorded, or a value
    /// that is not finite, is a bug in the benchmark.
    ///
    /// # Panics
    ///
    /// Panics on a missing or non-finite metric.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not recorded"));
                assert!(v.is_finite(), "metric {name} is {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_catalog_metrics_with_units() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.set("b", 0.000125);
        o.set("a", 3553665.0);
        assert_eq!(
            o.to_json(&[("a", "cycles"), ("b", "s")]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 3553665, \"unit\": \"cycles\"}, \
             \"b\": {\"value\": 0.000125, \"unit\": \"s\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
    }

    #[test]
    #[should_panic(expected = "was not recorded")]
    fn missing_metric_is_a_bug() {
        Outcome::default().to_json(&[("a", "s")]);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
