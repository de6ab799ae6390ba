//! Deterministic, seeded fault injection for the SparseWeaver simulator.
//!
//! The fault model covers the transient-fault surface of the paper's
//! hardware/software co-design:
//!
//! - **Register-file flips** (`reg`): a single-bit upset in a register
//!   word of the executing warp, visible to subsequent reads.
//! - **Memory-word flips** (`mem`): a single-bit upset in a word read
//!   from device memory.
//! - **Instruction-fetch flips** (`fetch`): a single-bit upset in the
//!   32-bit instruction word between I-cache and decode.
//! - **Weaver response drops** (`weaver-drop`): the Table-II
//!   request/response handshake never completes — the `WEAVER_DEC_*`
//!   response is lost and the requesting warp would wait forever.
//! - **Weaver response delays** (`weaver-delay`): the response arrives,
//!   but late by a configurable number of cycles.
//!
//! Everything is driven by one [`SplitMix64`] stream seeded from the
//! campaign seed, so a given `(spec, seed)` pair replays byte-identically.
//! The crate depends only on `sparseweaver-trace` (for its JSON writer):
//! `mem`, `weaver`, and `sim` all link it without cycles.

use std::fmt;

use sparseweaver_trace::json::{Envelope, Schema};

/// The classic splitmix64 generator — tiny, fast, and fully deterministic.
///
/// We do not use the vendored `rand` crate here: campaign replays must be
/// byte-identical across versions, so the generator is pinned in-tree.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` (53 bits of entropy).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `rate` (clamped to `[0, 1]`).
    pub fn chance(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            // Still consume a draw so the stream position does not depend
            // on the rate value — this keeps campaigns with different
            // rates comparable under one seed.
            self.next_u64();
            return true;
        }
        self.next_f64() < rate
    }

    /// A uniform integer in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; bias is negligible for the small bounds used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Derive a child seed for run `index` of a campaign. Mixing through
    /// the generator keeps per-run streams statistically independent.
    pub fn child_seed(campaign_seed: u64, index: u64) -> u64 {
        let mut g = SplitMix64::new(campaign_seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        g.next_u64()
    }
}

sparseweaver_trace::snapshot_fields!(SplitMix64 { state });

/// Which rates are active, parsed from `--inject <spec>`.
///
/// Grammar (clauses comma-separated, all optional):
///
/// ```text
/// reg=<rate>              register-file flip probability per issued instruction
/// mem=<rate>              memory-word flip probability per device read
/// fetch=<rate>            instruction-word flip probability per fetch
/// weaver-drop=<rate>      response-drop probability per Weaver decode request
/// weaver-delay=<rate>:<cycles>   response-delay probability and delay length
/// ```
///
/// Example: `--inject reg=1e-4,weaver-drop=0.5`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Register-file flip probability per issued instruction.
    pub reg_rate: f64,
    /// Memory-word flip probability per device read.
    pub mem_rate: f64,
    /// Instruction-word flip probability per fetch.
    pub fetch_rate: f64,
    /// Response-drop probability per Weaver decode request.
    pub weaver_drop_rate: f64,
    /// Response-delay probability per Weaver decode request.
    pub weaver_delay_rate: f64,
    /// Delay length in cycles when a delay fires.
    pub weaver_delay_cycles: u64,
}

impl FaultSpec {
    /// Parse a `--inject` spec string.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending clause.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is missing `=<rate>`"))?;
            let parse_rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("fault clause `{clause}`: bad rate `{v}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault clause `{clause}`: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match site {
                "reg" => spec.reg_rate = parse_rate(value)?,
                "mem" => spec.mem_rate = parse_rate(value)?,
                "fetch" => spec.fetch_rate = parse_rate(value)?,
                "weaver-drop" => spec.weaver_drop_rate = parse_rate(value)?,
                "weaver-delay" => {
                    let (rate, cycles) = match value.split_once(':') {
                        Some((r, c)) => {
                            let cycles: u64 = c.parse().map_err(|_| {
                                format!("fault clause `{clause}`: bad cycle count `{c}`")
                            })?;
                            (parse_rate(r)?, cycles)
                        }
                        None => (parse_rate(value)?, 1000),
                    };
                    spec.weaver_delay_rate = rate;
                    spec.weaver_delay_cycles = cycles;
                }
                other => {
                    return Err(format!(
                        "unknown fault site `{other}` (expected reg, mem, fetch, \
                         weaver-drop, or weaver-delay)"
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Whether any site has a non-zero rate.
    pub fn is_active(&self) -> bool {
        self.reg_rate > 0.0
            || self.mem_rate > 0.0
            || self.fetch_rate > 0.0
            || self.weaver_drop_rate > 0.0
            || self.weaver_delay_rate > 0.0
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut clause = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if self.reg_rate > 0.0 {
            clause(f, format!("reg={}", self.reg_rate))?;
        }
        if self.mem_rate > 0.0 {
            clause(f, format!("mem={}", self.mem_rate))?;
        }
        if self.fetch_rate > 0.0 {
            clause(f, format!("fetch={}", self.fetch_rate))?;
        }
        if self.weaver_drop_rate > 0.0 {
            clause(f, format!("weaver-drop={}", self.weaver_drop_rate))?;
        }
        if self.weaver_delay_rate > 0.0 {
            clause(
                f,
                format!(
                    "weaver-delay={}:{}",
                    self.weaver_delay_rate, self.weaver_delay_cycles
                ),
            )?;
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// What the injector decided for one Weaver decode response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeaverFault {
    /// The response arrives normally.
    None,
    /// The response is lost; the warp would wait forever.
    Drop,
    /// The response arrives late by this many cycles.
    Delay(u64),
}

/// Injection counters, mirrored into `metrics.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Register-file bits flipped.
    pub reg_flips: u64,
    /// Memory-word bits flipped.
    pub mem_flips: u64,
    /// Instruction-word bits flipped.
    pub fetch_flips: u64,
    /// Weaver responses dropped.
    pub weaver_drops: u64,
    /// Weaver responses delayed.
    pub weaver_delays: u64,
}

sparseweaver_trace::snapshot_fields!(FaultCounts {
    reg_flips,
    mem_flips,
    fetch_flips,
    weaver_drops,
    weaver_delays,
});

impl FaultCounts {
    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.reg_flips + self.mem_flips + self.fetch_flips + self.weaver_drops + self.weaver_delays
    }
}

/// The deterministic fault injector shared across the device model.
///
/// One injector rides in the hooks the GPU lends to device memory, the
/// Weaver units and the cores at call time, so a single RNG stream decides
/// every event in device order.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: SplitMix64,
    counts: FaultCounts,
    weaver_faulty: bool,
}

impl FaultInjector {
    /// An injector for `spec` seeded with `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultInjector {
            spec,
            rng: SplitMix64::new(seed),
            counts: FaultCounts::default(),
            weaver_faulty: false,
        }
    }

    /// The active spec.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Cumulative injection counters.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Register-file event: if it fires, returns `(lane, reg, bit)` to
    /// flip in the executing warp's register file. Called once per issued
    /// instruction.
    pub fn reg_event(&mut self, lanes: u64, regs: u64) -> Option<(usize, usize, u32)> {
        if lanes == 0 || regs == 0 || !self.rng.chance(self.spec.reg_rate) {
            return None;
        }
        self.counts.reg_flips += 1;
        let lane = self.rng.below(lanes) as usize;
        let reg = self.rng.below(regs) as usize;
        let bit = self.rng.below(64) as u32;
        Some((lane, reg, bit))
    }

    /// Memory-read event: maybe flip one bit of `value` (a `width`-byte
    /// word read from device memory).
    pub fn corrupt_mem(&mut self, value: u64, width: usize) -> u64 {
        if !self.rng.chance(self.spec.mem_rate) {
            return value;
        }
        self.counts.mem_flips += 1;
        let bit = self.rng.below(8 * width.clamp(1, 8) as u64) as u32;
        value ^ (1u64 << bit)
    }

    /// Instruction-fetch event: the bit of the 32-bit instruction word
    /// to flip, when one flips. The caller encodes the instruction only
    /// then.
    pub fn fetch_flip(&mut self) -> Option<u32> {
        if !self.rng.chance(self.spec.fetch_rate) {
            return None;
        }
        self.counts.fetch_flips += 1;
        Some(self.rng.below(32) as u32)
    }

    /// Weaver protocol event for one decode response. A drop also marks
    /// the unit faulty (sticky until [`FaultInjector::clear_weaver_faulty`]).
    pub fn weaver_response(&mut self) -> WeaverFault {
        if self.rng.chance(self.spec.weaver_drop_rate) {
            self.counts.weaver_drops += 1;
            self.weaver_faulty = true;
            return WeaverFault::Drop;
        }
        if self.rng.chance(self.spec.weaver_delay_rate) {
            self.counts.weaver_delays += 1;
            return WeaverFault::Delay(self.spec.weaver_delay_cycles);
        }
        WeaverFault::None
    }

    /// Whether a response drop has marked the Weaver unit faulty.
    pub fn weaver_faulty(&self) -> bool {
        self.weaver_faulty
    }

    /// Clear the faulty mark before a retry attempt (the fault model is
    /// transient: a fresh request redraws from the stream).
    pub fn clear_weaver_faulty(&mut self) {
        self.weaver_faulty = false;
    }
}

// The injector's mutable state — RNG cursor, cumulative counters, and the
// sticky faulty mark. The spec is not part of the state: a restored
// injector is built from the same spec, which the checkpoint layer
// fingerprints separately, and its RNG stream resumes exactly where the
// state was saved.
sparseweaver_trace::snapshot_fields!(FaultInjector {
    rng,
    counts,
    weaver_faulty
});

/// The four-way classification of one fault-campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The run finished and the output matches the fault-free golden run.
    Masked,
    /// Silent data corruption: the run finished but the output diverges.
    Sdc,
    /// A typed error surfaced the fault (illegal instruction, memory
    /// fault, lint rejection, …) — the desirable failure mode.
    DetectedCrash,
    /// The run deadlocked or hit the cycle limit.
    Hang,
}

impl Outcome {
    /// The stable label used in campaign summaries.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::DetectedCrash => "detected_crash",
            Outcome::Hang => "hang",
        }
    }

    /// Maps an [`Outcome::label`] back to the class; `None` for unknown
    /// labels (a corrupt or future-format campaign journal).
    pub fn from_label(label: &str) -> Option<Outcome> {
        [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DetectedCrash,
            Outcome::Hang,
        ]
        .into_iter()
        .find(|o| o.label() == label)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The schema of [`CampaignSummary::to_json`] documents.
pub const CAMPAIGN_SCHEMA: Schema = Schema::new("sparseweaver-fault-campaign", 2);

/// Aggregated result of a fault campaign: `runs` seeded executions, each
/// classified into exactly one [`Outcome`] class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Fingerprint of the machine configuration the campaign ran on.
    pub config_fingerprint: Option<u64>,
    /// Fingerprint of the graph the campaign ran on.
    pub input_fingerprint: Option<u64>,
    /// The spec string the campaign ran under.
    pub spec: String,
    /// The campaign seed.
    pub seed: u64,
    /// Total runs executed.
    pub runs: u64,
    /// Runs whose output matched the golden run.
    pub masked: u64,
    /// Runs with silent data corruption.
    pub sdc: u64,
    /// Runs ending in a typed error.
    pub detected_crash: u64,
    /// Runs ending in deadlock or cycle-limit.
    pub hang: u64,
    /// Total faults injected across all runs.
    pub faults_injected: u64,
    /// Weaver retry attempts taken across all runs.
    pub retries: u64,
    /// Runs that fell back to the software `S_wm` schedule.
    pub fallbacks: u64,
}

impl CampaignSummary {
    /// Record one classified run.
    pub fn record(&mut self, outcome: Outcome) {
        self.runs += 1;
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::DetectedCrash => self.detected_crash += 1,
            Outcome::Hang => self.hang += 1,
        }
    }

    /// Every run is classified (the four classes partition `runs`).
    pub fn is_classified(&self) -> bool {
        self.masked + self.sdc + self.detected_crash + self.hang == self.runs
    }

    /// Deterministic JSON rendering under a [`CAMPAIGN_SCHEMA`]
    /// envelope — byte-identical for identical campaigns, so golden files
    /// can diff it directly.
    pub fn to_json(&self) -> String {
        Envelope::new(
            CAMPAIGN_SCHEMA,
            self.config_fingerprint,
            self.input_fingerprint,
        )
        .object(|o| {
            o.field("spec", &self.spec)
                .field("seed", self.seed)
                .field("runs", self.runs)
                .field("masked", self.masked)
                .field("sdc", self.sdc)
                .field("detected_crash", self.detected_crash)
                .field("hang", self.hang)
                .field("faults_injected", self.faults_injected)
                .field("retries", self.retries)
                .field("fallbacks", self.fallbacks);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 0 from the published splitmix64.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(g.next_u64(), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn chance_extremes() {
        let mut g = SplitMix64::new(1);
        assert!(!g.chance(0.0));
        assert!(g.chance(1.0));
        // rate=1.0 consumed a draw: two generators diverge only by that draw.
        let mut h = SplitMix64::new(1);
        h.next_u64();
        assert_eq!(g.next_u64(), h.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut g = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 32, 64, 1000] {
            for _ in 0..50 {
                assert!(g.below(bound) < bound);
            }
        }
    }

    #[test]
    fn spec_parses_all_sites() {
        let s = FaultSpec::parse("reg=0.1,mem=0.2,fetch=0.3,weaver-drop=0.4,weaver-delay=0.5:77")
            .unwrap();
        assert_eq!(s.reg_rate, 0.1);
        assert_eq!(s.mem_rate, 0.2);
        assert_eq!(s.fetch_rate, 0.3);
        assert_eq!(s.weaver_drop_rate, 0.4);
        assert_eq!(s.weaver_delay_rate, 0.5);
        assert_eq!(s.weaver_delay_cycles, 77);
        assert!(s.is_active());
    }

    #[test]
    fn spec_delay_default_cycles() {
        let s = FaultSpec::parse("weaver-delay=0.25").unwrap();
        assert_eq!(s.weaver_delay_cycles, 1000);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=0.1").is_err());
        assert!(FaultSpec::parse("reg").is_err());
        assert!(FaultSpec::parse("reg=nope").is_err());
        assert!(FaultSpec::parse("reg=1.5").is_err());
        assert!(FaultSpec::parse("reg=-0.1").is_err());
        assert!(FaultSpec::parse("weaver-delay=0.1:abc").is_err());
    }

    #[test]
    fn spec_empty_is_inactive() {
        let s = FaultSpec::parse("").unwrap();
        assert!(!s.is_active());
        assert_eq!(s.to_string(), "none");
    }

    #[test]
    fn spec_display_round_trips() {
        let s = FaultSpec::parse("reg=0.1,weaver-drop=0.5").unwrap();
        let again = FaultSpec::parse(&s.to_string()).unwrap();
        assert_eq!(s, again);
    }

    #[test]
    fn injector_at_rate_one_always_fires() {
        let spec = FaultSpec::parse("reg=1,mem=1,fetch=1").unwrap();
        let mut inj = FaultInjector::new(spec, 9);
        assert!(inj.reg_event(4, 16).is_some());
        assert_ne!(inj.corrupt_mem(0, 8), 0);
        assert!(inj.fetch_flip().is_some_and(|bit| bit < 32));
        let c = inj.counts();
        assert_eq!(c.reg_flips, 1);
        assert_eq!(c.mem_flips, 1);
        assert_eq!(c.fetch_flips, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn injector_at_rate_zero_never_fires() {
        let mut inj = FaultInjector::new(FaultSpec::default(), 9);
        assert!(inj.reg_event(4, 16).is_none());
        assert_eq!(inj.corrupt_mem(0xdead, 8), 0xdead);
        assert_eq!(inj.fetch_flip(), None);
        assert_eq!(inj.weaver_response(), WeaverFault::None);
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn mem_flip_respects_width() {
        let spec = FaultSpec::parse("mem=1").unwrap();
        let mut inj = FaultInjector::new(spec, 3);
        for _ in 0..100 {
            let v = inj.corrupt_mem(0, 1);
            assert!(v < 256, "1-byte read flipped a bit above bit 7: {v:#x}");
        }
    }

    #[test]
    fn drop_marks_unit_faulty_and_clear_resets() {
        let spec = FaultSpec::parse("weaver-drop=1").unwrap();
        let mut inj = FaultInjector::new(spec, 5);
        assert_eq!(inj.weaver_response(), WeaverFault::Drop);
        assert!(inj.weaver_faulty());
        inj.clear_weaver_faulty();
        assert!(!inj.weaver_faulty());
        assert_eq!(inj.counts().weaver_drops, 1);
    }

    #[test]
    fn delay_reports_cycles() {
        let spec = FaultSpec::parse("weaver-delay=1:123").unwrap();
        let mut inj = FaultInjector::new(spec, 5);
        assert_eq!(inj.weaver_response(), WeaverFault::Delay(123));
        assert!(!inj.weaver_faulty());
    }

    #[test]
    fn summary_classifies_and_serializes() {
        let mut s = CampaignSummary {
            spec: "reg=0.1".to_string(),
            seed: 42,
            ..CampaignSummary::default()
        };
        s.record(Outcome::Masked);
        s.record(Outcome::Sdc);
        s.record(Outcome::DetectedCrash);
        s.record(Outcome::Hang);
        assert!(s.is_classified());
        let json = s.to_json();
        assert!(json.contains("\"runs\":4"));
        assert!(json.contains("\"masked\":1"));
        assert!(json.contains("\"sdc\":1"));
        assert!(json.contains("\"detected_crash\":1"));
        assert!(json.contains("\"hang\":1"));
        assert!(
            json.starts_with("{\"schema\":\"sparseweaver-fault-campaign\",\"version\":2,\"tool\":")
        );
        assert!(json.contains("\"config_fingerprint\":null,\"input_fingerprint\":null,"));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Masked.to_string(), "masked");
        assert_eq!(Outcome::Sdc.to_string(), "sdc");
        assert_eq!(Outcome::DetectedCrash.to_string(), "detected_crash");
        assert_eq!(Outcome::Hang.to_string(), "hang");
    }

    #[test]
    fn child_seeds_differ_per_run() {
        let a = SplitMix64::child_seed(42, 0);
        let b = SplitMix64::child_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, SplitMix64::child_seed(42, 0));
    }
}
