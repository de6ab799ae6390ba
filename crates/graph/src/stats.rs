//! Degree-distribution statistics.
//!
//! The paper's skewness study (Section V-B, Fig. 11) cites the standard
//! skewness definition from the CRC probability tables \[54\] — the
//! Fisher–Pearson standardized third moment of the degree distribution —
//! and plots degree histograms with their "edge fraction tail". This module
//! computes both.

use crate::csr::Csr;

/// Summary statistics of a graph's out-degree distribution.
///
/// # Examples
///
/// ```
/// use sparseweaver_graph::{Csr, DegreeStats};
///
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// let s = DegreeStats::of(&g);
/// assert_eq!(s.max, 2);
/// assert!((s.mean - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min: usize,
    /// Maximum out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Population standard deviation of out-degree.
    pub stddev: f64,
    /// Fisher–Pearson skewness `E[(d - mean)^3] / stddev^3`
    /// (0 for a regular graph; large and positive for heavy-tailed graphs).
    pub skewness: f64,
    /// Coefficient of variation (`stddev / mean`), another imbalance proxy.
    pub cv: f64,
}

impl DegreeStats {
    /// Computes the statistics for `g`. All fields are zero for graphs with
    /// no vertices or a degenerate (constant-zero) distribution.
    pub fn of(g: &Csr) -> DegreeStats {
        let n = g.num_vertices();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                stddev: 0.0,
                skewness: 0.0,
                cv: 0.0,
            };
        }
        let degs: Vec<f64> = (0..n).map(|v| g.degree(v as u32) as f64).collect();
        let mean = degs.iter().sum::<f64>() / n as f64;
        let var = degs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        let stddev = var.sqrt();
        let skewness = if stddev > 0.0 {
            degs.iter().map(|d| (d - mean).powi(3)).sum::<f64>() / n as f64 / stddev.powi(3)
        } else {
            0.0
        };
        let cv = if mean > 0.0 { stddev / mean } else { 0.0 };
        DegreeStats {
            min: degs.iter().cloned().fold(f64::INFINITY, f64::min) as usize,
            max: g.max_degree(),
            mean,
            stddev,
            skewness,
            cv,
        }
    }
}

/// A log₂-bucketed degree histogram row: `(bucket upper bound, vertex
/// fraction, edge fraction)`.
///
/// This is the data behind Fig. 11a: low-skew graphs have a narrow degree
/// range and a short edge-fraction tail; high-skew graphs have a wide range
/// and a long tail.
pub type HistogramRow = (usize, f64, f64);

/// Computes a log₂-bucketed degree histogram of `g`.
///
/// Bucket `i` covers degrees `[2^(i-1) + 1 ..= 2^i]` (bucket 0 covers degree
/// 0, bucket 1 covers degree 1). Returns one row per non-empty bucket in
/// increasing degree order.
pub fn degree_histogram(g: &Csr) -> Vec<HistogramRow> {
    let n = g.num_vertices();
    let e = g.num_edges().max(1);
    if n == 0 {
        return Vec::new();
    }
    let bucket_of = |d: usize| -> usize {
        if d == 0 {
            0
        } else {
            (usize::BITS - (d - 1).leading_zeros()) as usize + 1
        }
    };
    let nbuckets = bucket_of(g.max_degree().max(1)) + 1;
    let mut vcount = vec![0usize; nbuckets];
    let mut ecount = vec![0usize; nbuckets];
    for v in 0..n {
        let d = g.degree(v as u32);
        vcount[bucket_of(d)] += 1;
        ecount[bucket_of(d)] += d;
    }
    (0..nbuckets)
        .filter(|&b| vcount[b] > 0)
        .map(|b| {
            let ub = if b == 0 { 0 } else { 1usize << (b - 1) };
            (ub, vcount[b] as f64 / n as f64, ecount[b] as f64 / e as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn regular_graph_zero_skew() {
        // A 4-cycle: every vertex has degree 2.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn star_graph_is_skewed() {
        let edges: Vec<(u32, u32)> = (1..50u32).map(|v| (0, v)).collect();
        let g = Csr::from_edges(50, &edges);
        let s = DegreeStats::of(&g);
        assert!(s.skewness > 5.0, "star should be heavily skewed: {s:?}");
        assert_eq!(s.max, 49);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = Csr::from_edges(0, &[]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.skewness, 0.0);
    }

    #[test]
    fn histogram_fractions_sum_to_one() {
        let g = generators::powerlaw(500, 3000, 1.8, 3);
        let h = degree_histogram(&g);
        let vsum: f64 = h.iter().map(|r| r.1).sum();
        let esum: f64 = h.iter().map(|r| r.2).sum();
        assert!((vsum - 1.0).abs() < 1e-9);
        assert!((esum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_increase() {
        let g = generators::powerlaw(300, 2000, 2.0, 8);
        let h = degree_histogram(&g);
        for w in h.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn skewed_graph_has_longer_tail() {
        let skewed = generators::powerlaw(4000, 12_000, 2.4, 7);
        let flat = generators::uniform(4000, 12_000, 7);
        let hs = degree_histogram(&skewed);
        let hf = degree_histogram(&flat);
        let max_bucket_s = hs.last().map(|r| r.0).unwrap_or(0);
        let max_bucket_f = hf.last().map(|r| r.0).unwrap_or(0);
        assert!(
            max_bucket_s > max_bucket_f,
            "skewed tail {max_bucket_s} should exceed uniform tail {max_bucket_f}"
        );
    }
}
