//! Deterministic latency profiling: fixed-bucket histograms and
//! load-imbalance counters.
//!
//! The simulator carries an optional [`Profiler`] next to the tracer in
//! the hooks the GPU lends down each call: with none attached every hook
//! is a single `Option` branch, so profiling is zero-cost when off and the
//! cycle model is bit-identical either way. With one attached, the hooks
//! record
//!
//! - per-level memory request latency (issue→fill, queueing included),
//! - Weaver request→response latency (`WEAVER_DEC_ID` issue to ready),
//! - per-warp gather-loop iteration cycles (the gap between successive
//!   `WEAVER_DEC_ID` issues of one warp), and
//! - per-core / per-warp issue counts, from which load-imbalance metrics
//!   derive.
//!
//! Everything is integer arithmetic over fixed power-of-two buckets: the
//! drained [`ProfileReport`] — and any JSON rendered from it — is
//! byte-deterministic for a deterministic simulation, independent of
//! wall-clock time, thread count, or fast-forward mode.

use crate::event::MemLevel;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 32) holds values in `[2^(i-1), 2^i - 1]`; larger values clamp
/// into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A fixed-bucket power-of-two latency histogram.
///
/// Bucket boundaries are compile-time constants, so two histograms built
/// from the same value sequence — in any order — are identical, and
/// quantile estimates are exact functions of the bucket counts (each
/// quantile reports its bucket's inclusive upper bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket value counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

crate::snapshot_fields!(LatencyHistogram {
    buckets,
    count,
    sum,
    min,
    max
});

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `value`.
    fn index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one (bucket-wise addition);
    /// equivalent to having recorded both value sequences.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Smallest recorded value, or 0 when the histogram is empty.
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `q`-th percentile (`q` in 1..=100) as the inclusive upper bound
    /// of the first bucket whose cumulative count reaches
    /// `ceil(q/100 * count)`. Returns 0 for an empty histogram. Being a
    /// pure function of the bucket counts, it is deterministic and
    /// merge-stable.
    pub fn percentile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The true maximum never exceeds `max`, so clamp the
                // bucket bound for a tighter (still deterministic) answer.
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LatencyHistogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }
}

/// Summary statistics over a set of per-entity counts (per-core active
/// cycles, per-warp issue counts): the load-imbalance view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImbalanceSummary {
    /// Number of entities observed.
    pub entities: u64,
    /// Smallest per-entity count.
    pub min: u64,
    /// Largest per-entity count.
    pub max: u64,
    /// Mean per-entity count, rounded down (integer, for determinism).
    pub mean: u64,
    /// `max * 1000 / mean` — the imbalance ratio in permille (1000 =
    /// perfectly balanced). 0 when the mean is 0.
    pub imbalance_permille: u64,
}

impl ImbalanceSummary {
    /// Summarises a slice of per-entity counts.
    pub fn from_counts(counts: &[u64]) -> Self {
        if counts.is_empty() {
            return ImbalanceSummary::default();
        }
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        let sum: u64 = counts.iter().sum();
        let mean = sum / counts.len() as u64;
        ImbalanceSummary {
            entities: counts.len() as u64,
            min,
            max,
            mean,
            imbalance_permille: (max * 1000).checked_div(mean).unwrap_or(0),
        }
    }
}

/// Everything a [`Profiler`] collected, drained via
/// [`Profiler::take_report`]. Plain data: `Clone + PartialEq + Send`, so
/// campaign workers can ship it across threads and tests can compare
/// runs structurally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Request latency per hierarchy level, indexed by
    /// [`ProfileReport::mem_level_index`].
    pub mem: [LatencyHistogram; 4],
    /// Weaver request→response latency (`WEAVER_DEC_ID` issue to ready).
    pub weaver: LatencyHistogram,
    /// Per-warp gather-loop iteration cycles (gap between successive
    /// `WEAVER_DEC_ID` issues of one warp within a launch).
    pub gather_iteration: LatencyHistogram,
    /// Per-core issued-instruction counts. A core issues at most one
    /// instruction per cycle, so this is the core's active-cycle count.
    pub core_issues: Vec<u64>,
    /// Per-core, per-warp issued-instruction counts.
    pub warp_issues: Vec<Vec<u64>>,
}

impl ProfileReport {
    /// The `mem` index for a hierarchy level.
    pub fn mem_level_index(level: MemLevel) -> usize {
        match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::L3 => 2,
            MemLevel::Dram => 3,
        }
    }

    /// Display label for `mem[i]`.
    pub fn mem_level_label(i: usize) -> &'static str {
        ["l1", "l2", "l3", "dram"][i]
    }

    /// Per-core load imbalance (active cycles ≈ issued instructions).
    pub fn core_imbalance(&self) -> ImbalanceSummary {
        ImbalanceSummary::from_counts(&self.core_issues)
    }

    /// Per-warp load imbalance over every (core, warp) pair.
    pub fn warp_imbalance(&self) -> ImbalanceSummary {
        let flat: Vec<u64> = self.warp_issues.iter().flatten().copied().collect();
        ImbalanceSummary::from_counts(&flat)
    }

    /// Folds another report into this one: histograms merge bucket-wise,
    /// per-entity counts add element-wise (growing as needed). Used by
    /// `run_campaign` to aggregate per-run profiles; merging in run-index
    /// order keeps the result independent of worker scheduling.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (dst, src) in self.mem.iter_mut().zip(other.mem.iter()) {
            dst.merge(src);
        }
        self.weaver.merge(&other.weaver);
        self.gather_iteration.merge(&other.gather_iteration);
        merge_counts(&mut self.core_issues, &other.core_issues);
        if self.warp_issues.len() < other.warp_issues.len() {
            self.warp_issues.resize(other.warp_issues.len(), Vec::new());
        }
        for (dst, src) in self.warp_issues.iter_mut().zip(other.warp_issues.iter()) {
            merge_counts(dst, src);
        }
    }
}

fn merge_counts(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

/// The profiling collector. Like [`crate::Tracer`], it is fed by hooks on
/// the simulator's hot paths.
#[derive(Debug, Default)]
pub struct Profiler {
    report: ProfileReport,
    /// Per-core, per-warp cycle of the last `WEAVER_DEC_ID` issue, for
    /// gather-iteration gaps. Cleared at each launch boundary: iteration
    /// gaps never span launches.
    last_dec: Vec<Vec<Option<u64>>>,
}

impl Profiler {
    /// Marks a launch boundary: gather-iteration gap tracking restarts.
    pub fn launch_begin(&mut self) {
        for core in &mut self.last_dec {
            for slot in core.iter_mut() {
                *slot = None;
            }
        }
    }

    /// Records one memory request satisfied at `level` with total
    /// `latency` cycles (queueing included).
    pub fn mem_latency(&mut self, level: MemLevel, latency: u64) {
        self.report.mem[ProfileReport::mem_level_index(level)].record(latency);
    }

    /// Records a `WEAVER_DEC_ID` issued by `(core, warp)` at `cycle` whose
    /// response is ready at `ready_at`: feeds the Weaver
    /// request→response histogram and the per-warp gather-iteration
    /// histogram.
    pub fn weaver_dec(&mut self, core: usize, warp: usize, cycle: u64, ready_at: u64) {
        self.report.weaver.record(ready_at.saturating_sub(cycle));
        if self.last_dec.len() <= core {
            self.last_dec.resize(core + 1, Vec::new());
        }
        let warps = &mut self.last_dec[core];
        if warps.len() <= warp {
            warps.resize(warp + 1, None);
        }
        if let Some(prev) = warps[warp] {
            self.report
                .gather_iteration
                .record(cycle.saturating_sub(prev));
        }
        warps[warp] = Some(cycle);
    }

    /// Records one instruction issued by `(core, warp)`.
    pub fn warp_issue(&mut self, core: usize, warp: usize) {
        if self.report.core_issues.len() <= core {
            self.report.core_issues.resize(core + 1, 0);
            self.report.warp_issues.resize(core + 1, Vec::new());
        }
        self.report.core_issues[core] += 1;
        let warps = &mut self.report.warp_issues[core];
        if warps.len() <= warp {
            warps.resize(warp + 1, 0);
        }
        warps[warp] += 1;
    }

    /// Drains the collected report, leaving the profiler empty.
    pub fn take_report(&mut self) -> ProfileReport {
        self.last_dec.clear();
        std::mem::take(&mut self.report)
    }
}

crate::snapshot_fields!(ProfileReport {
    mem,
    weaver,
    gather_iteration,
    core_issues,
    warp_issues,
});

// Checkpoints are taken at launch boundaries, where the per-warp gap
// cursors are about to reset, so the report is the whole resumable state.
crate::snapshot_fields!(Profiler { report });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_power_of_two() {
        assert_eq!(LatencyHistogram::index(0), 0);
        assert_eq!(LatencyHistogram::index(1), 1);
        assert_eq!(LatencyHistogram::index(2), 2);
        assert_eq!(LatencyHistogram::index(3), 2);
        assert_eq!(LatencyHistogram::index(4), 3);
        assert_eq!(LatencyHistogram::index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_upper(2), 3);
    }

    #[test]
    fn percentiles_are_deterministic_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(3); // bucket 2, upper bound 3
        }
        for _ in 0..10 {
            h.record(100); // bucket 7, upper bound 127, clamped to max
        }
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), 3);
        assert_eq!(h.p90(), 3);
        assert_eq!(h.p99(), 100, "clamped to the observed max");
        assert_eq!(h.min_or_zero(), 3);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min_or_zero(), 0);
    }

    #[test]
    fn merge_equals_recording_both_sequences() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 7, 1000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn imbalance_summary_uses_integer_permille() {
        let s = ImbalanceSummary::from_counts(&[10, 20, 30]);
        assert_eq!(s.entities, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.mean, 20);
        assert_eq!(s.imbalance_permille, 1500);
        assert_eq!(ImbalanceSummary::from_counts(&[]).imbalance_permille, 0);
    }

    #[test]
    fn gather_iteration_gaps_reset_at_launch_boundaries() {
        let mut p = Profiler::default();
        p.launch_begin();
        p.weaver_dec(0, 1, 100, 104);
        p.weaver_dec(0, 1, 130, 133); // gap 30
        p.launch_begin();
        p.weaver_dec(0, 1, 500, 505); // no gap: new launch
        p.weaver_dec(0, 1, 520, 525); // gap 20
        let r = p.take_report();
        assert_eq!(r.weaver.count, 4);
        assert_eq!(r.weaver.min, 3);
        assert_eq!(r.weaver.max, 5);
        assert_eq!(r.gather_iteration.count, 2);
        assert_eq!(r.gather_iteration.min, 20);
        assert_eq!(r.gather_iteration.max, 30);
    }

    #[test]
    fn issue_counts_grow_per_core_and_warp() {
        let mut p = Profiler::default();
        p.warp_issue(0, 0);
        p.warp_issue(0, 2);
        p.warp_issue(1, 0);
        p.warp_issue(1, 0);
        let r = p.take_report();
        assert_eq!(r.core_issues, vec![2, 2]);
        assert_eq!(r.warp_issues, vec![vec![1, 0, 1], vec![2]]);
        assert_eq!(r.core_imbalance().imbalance_permille, 1000);
        // A second report() call finds a drained profiler.
        assert_eq!(p.take_report(), ProfileReport::default());
    }

    #[test]
    fn report_merge_is_elementwise() {
        let mut a_prof = Profiler::default();
        a_prof.warp_issue(0, 0);
        a_prof.mem_latency(MemLevel::L1, 4);
        let mut a = a_prof.take_report();
        let mut b_prof = Profiler::default();
        b_prof.warp_issue(1, 1);
        b_prof.mem_latency(MemLevel::L1, 8);
        b_prof.mem_latency(MemLevel::Dram, 100);
        let b = b_prof.take_report();
        a.merge(&b);
        assert_eq!(a.core_issues, vec![1, 1]);
        assert_eq!(a.mem[0].count, 2);
        assert_eq!(a.mem[3].count, 1);
        assert_eq!(a.warp_issues[1], vec![0, 1]);
    }
}
