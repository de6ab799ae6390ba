//! Synthetic graph generators.
//!
//! The paper's skewness-sensitivity study (Section V-B) generates power-law
//! graphs with a fixed edge budget and varying vertex counts via the NetworkX
//! power-law generator; the nine evaluation datasets (Table III) span four
//! structural classes. This module reproduces those classes:
//!
//! - [`powerlaw`] — Zipf out-degree sequence assembled with a
//!   configuration-model style wiring (bio/web/social stand-ins and the G1–G6
//!   skew sweep);
//! - [`rmat`] — recursive-matrix generator (the graph500 stand-in);
//! - [`road_grid`] — 2-D lattice with light random rewiring (road networks:
//!   near-uniform, tiny degrees, huge diameter);
//! - [`uniform`] — Erdős–Rényi-style uniform graph (control case).
//!
//! All generators are deterministic in their seed and symmetrize their
//! output so push and pull traversals cover the same edge multiset
//! (Section V-G uses symmetric datasets).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::VertexId;

/// Samples an index from a Zipf distribution over `0..n` with exponent
/// `alpha`, using the precomputed cumulative weights in `cdf`.
fn sample_cdf(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    let x = rng.gen::<f64>() * total;
    match cdf.binary_search_by(|p| p.partial_cmp(&x).expect("no NaN in cdf")) {
        Ok(i) => i,
        Err(i) => i.min(cdf.len() - 1),
    }
}

fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(alpha);
        cdf.push(acc);
    }
    cdf
}

/// Generates a symmetric power-law graph with `num_vertices` vertices and
/// approximately `num_edges` directed edges (before mirroring; the returned
/// graph has up to twice that).
///
/// Endpoint popularity follows a Zipf law with exponent `alpha`; larger
/// `alpha` concentrates edges on fewer vertices (higher skew). With a fixed
/// edge budget, *fewer* vertices also mean lower skew pressure per vertex —
/// which is exactly the knob the paper's G1–G6 sweep turns.
///
/// # Panics
///
/// Panics if `num_vertices == 0` while `num_edges > 0`.
///
/// # Examples
///
/// ```
/// let g = sparseweaver_graph::generators::powerlaw(100, 500, 2.0, 1);
/// assert!(g.is_symmetric());
/// assert!(g.num_edges() > 0);
/// ```
pub fn powerlaw(num_vertices: usize, num_edges: usize, alpha: f64, seed: u64) -> Csr {
    assert!(
        num_vertices > 0 || num_edges == 0,
        "cannot place edges in an empty graph"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ee0_51ab);
    let mut b = GraphBuilder::new(num_vertices);
    if num_vertices <= 1 {
        return b.build();
    }
    let cdf = zipf_cdf(num_vertices, alpha);
    // Random vertex permutation so hot vertices are not clustered at low IDs;
    // real graphs have hubs scattered across the ID space.
    let mut perm: Vec<VertexId> = (0..num_vertices as VertexId).collect();
    for i in (1..num_vertices).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(20).max(64);
    while b.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let u = perm[sample_cdf(&mut rng, &cdf)];
        let v = perm[rng.gen_range(0..num_vertices)] as VertexId;
        b.add_edge(u, v);
    }
    b.symmetric(true).build()
}

/// Generates a symmetric R-MAT graph (the graph500 generator) with
/// `2^scale` vertices and approximately `num_edges` directed edges before
/// mirroring, using partition probabilities `(a, b, c)` (with
/// `d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if `a`, `b` or `c` is negative, `a + b + c > 1`, or
/// `scale >= 31`.
///
/// # Examples
///
/// ```
/// let g = sparseweaver_graph::generators::rmat(8, 1_000, 0.57, 0.19, 0.19, 3);
/// assert_eq!(g.num_vertices(), 256);
/// ```
pub fn rmat(scale: u32, num_edges: usize, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0,
        "probabilities must be non-negative"
    );
    assert!(a + b + c <= 1.0 + 1e-9, "probabilities must sum to <= 1");
    assert!(scale < 31, "scale too large");
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0000_9a7a);
    let mut builder = GraphBuilder::new(n);
    let d = (1.0 - a - b - c).max(0.0);
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(20).max(64);
    while builder.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let (mut x, mut y) = (0 as VertexId, 0 as VertexId);
        // One quadrant per level, top bit first: quadrant `q` (0 = a,
        // 1 = b, 2 = c, 3 = d) sets this level's bit of x from `q & 1`
        // and of y from `q >> 1`. Counting the thresholds below `r` picks
        // the same quadrant as comparing them in turn, without a branch.
        for level in (0..scale).rev() {
            // Slight per-level noise, as in the reference graph500 generator.
            let na = a * rng.gen_range(0.95..1.05);
            let nb = b * rng.gen_range(0.95..1.05);
            let nc = c * rng.gen_range(0.95..1.05);
            let sum = na + nb + nc + d;
            let r = rng.gen::<f64>() * sum;
            let q = (r >= na) as VertexId
                + (r >= na + nb) as VertexId
                + (r >= na + nb + nc) as VertexId;
            x |= (q & 1) << level;
            y |= (q >> 1) << level;
        }
        builder.add_edge(x, y);
    }
    builder.symmetric(true).build()
}

/// Generates a road-network-like graph: a `width x height` 4-neighbor grid
/// keeping each lattice edge with probability `keep`, plus a fraction
/// `rewire` of extra shortcut edges.
///
/// Road networks (`roadNet-CA`, `road-central` in Table III) have *more
/// vertices than edges* per the paper's table — i.e. tiny, near-uniform
/// degrees — which a sparsified lattice reproduces.
///
/// # Examples
///
/// ```
/// let g = sparseweaver_graph::generators::road_grid(16, 16, 0.4, 0.02, 9);
/// assert_eq!(g.num_vertices(), 256);
/// assert!(g.max_degree() <= 8);
/// ```
pub fn road_grid(width: usize, height: usize, keep: f64, rewire: f64, seed: u64) -> Csr {
    let n = width * height;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x60ad_6a1d);
    let mut b = GraphBuilder::new(n);
    let idx = |x: usize, y: usize| (y * width + x) as VertexId;
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width && rng.gen::<f64>() < keep {
                b.add_edge(idx(x, y), idx(x + 1, y));
            }
            if y + 1 < height && rng.gen::<f64>() < keep {
                b.add_edge(idx(x, y), idx(x, y + 1));
            }
        }
    }
    let shortcuts = ((n as f64) * rewire) as usize;
    for _ in 0..shortcuts {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        b.add_edge(u, v);
    }
    b.symmetric(true).build()
}

/// Generates a symmetric uniform random graph with `num_vertices` vertices
/// and approximately `num_edges` directed edges before mirroring.
///
/// # Examples
///
/// ```
/// let g = sparseweaver_graph::generators::uniform(50, 200, 11);
/// assert!(g.is_symmetric());
/// ```
pub fn uniform(num_vertices: usize, num_edges: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0f02_a11e);
    let mut b = GraphBuilder::new(num_vertices);
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(20).max(64);
    while b.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..num_vertices) as VertexId;
        let v = rng.gen_range(0..num_vertices) as VertexId;
        b.add_edge(u, v);
    }
    b.symmetric(true).build()
}

/// Attaches deterministic pseudo-random weights in `1..=max_weight` to a
/// graph, keeping mirrored edge pairs symmetric in weight.
///
/// SSSP needs weighted edges; BFS/PR/CC ignore them.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn with_random_weights(g: &Csr, max_weight: u32, seed: u64) -> Csr {
    assert!(max_weight > 0, "max_weight must be positive");
    // A function of the unordered pair, so the topology is unchanged and
    // only the weights are recomputed.
    let weight_of = |a: VertexId, b: VertexId| -> u32 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut h = (lo as u64) << 32 | (hi as u64);
        h ^= seed;
        // splitmix64 finalizer for a decent deterministic hash.
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % max_weight as u64) as u32 + 1
    };
    g.with_weights(weight_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn powerlaw_is_deterministic() {
        let a = powerlaw(128, 1024, 2.0, 42);
        let b = powerlaw(128, 1024, 2.0, 42);
        assert_eq!(a, b);
        let c = powerlaw(128, 1024, 2.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn powerlaw_higher_alpha_is_more_skewed() {
        // Coefficient of variation grows monotonically with alpha (the raw
        // third moment saturates once the hub exhausts distinct neighbors).
        let lo = powerlaw(2000, 12_000, 1.2, 7);
        let hi = powerlaw(2000, 12_000, 2.6, 7);
        let s_lo = DegreeStats::of(&lo).cv;
        let s_hi = DegreeStats::of(&hi).cv;
        assert!(
            s_hi > s_lo,
            "expected cv({s_hi}) > cv({s_lo}) for higher alpha"
        );
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(6, 300, 0.57, 0.19, 0.19, 5);
        assert_eq!(g.num_vertices(), 64);
        assert!(g.is_symmetric());
        assert!(g.num_edges() >= 300);
    }

    #[test]
    fn road_grid_low_degree() {
        let g = road_grid(20, 20, 0.45, 0.01, 3);
        // 4-neighbor lattice + shortcuts keeps degrees tiny.
        assert!(g.max_degree() <= 10);
        assert!(g.is_symmetric());
    }

    #[test]
    fn road_grid_keep_controls_density() {
        let sparse = road_grid(30, 30, 0.15, 0.0, 4);
        let dense = road_grid(30, 30, 0.9, 0.0, 4);
        assert!(sparse.num_edges() < dense.num_edges());
    }

    #[test]
    fn uniform_hits_target() {
        let g = uniform(100, 400, 1);
        assert!(g.num_edges() >= 400);
    }

    #[test]
    fn weights_in_range_and_symmetric() {
        let g = with_random_weights(&uniform(60, 200, 2), 64, 99);
        for (s, d, w) in g.iter_edges() {
            assert!((1..=64).contains(&w));
            // Mirrored edge carries the same weight.
            let back = g
                .neighbors(d)
                .iter()
                .position(|&x| x == s)
                .expect("symmetric");
            assert_eq!(g.neighbor_weights(d)[back], w);
        }
    }

    #[test]
    #[should_panic(expected = "max_weight")]
    fn zero_max_weight_panics() {
        with_random_weights(&uniform(4, 4, 0), 0, 0);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(powerlaw(1, 0, 2.0, 0).num_vertices(), 1);
        assert_eq!(uniform(0, 0, 0).num_vertices(), 0);
        assert_eq!(road_grid(1, 1, 0.5, 0.0, 0).num_edges(), 0);
    }
}
