//! Property tests for the graph substrate.

use proptest::prelude::*;
use sparseweaver_graph::{generators, io, Csr, GraphBuilder};

/// Weighted edge lists with repeated `(src, dst)` pairs carrying
/// different weights, and self-loops. Half the lists draw endpoints from
/// the lower half of the vertex range only, so pairs repeat often and the
/// upper vertices are isolated; the other half draw from all of it.
fn weighted_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (1usize..60, any::<bool>()).prop_flat_map(|(n, narrow)| {
        let m = if narrow { n as u32 / 2 + 1 } else { n as u32 };
        let edges = prop::collection::vec((0u32..m, 0u32..m, 0u32..4), 0..200);
        (Just(n), edges)
    })
}

/// The weights `with_random_weights` gave when it rebuilt the graph from
/// its edge list: a splitmix64 hash of the unordered pair.
fn pair_weight(a: u32, b: u32, max_weight: u32, seed: u64) -> u32 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let mut h = ((lo as u64) << 32 | hi as u64) ^ seed;
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % max_weight as u64) as u32 + 1
}

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edges = prop::collection::vec((0u32..n as u32, 0u32..n as u32), 0..200);
        (Just(n), edges)
    })
}

proptest! {
    /// Degree sums equal the edge count, always.
    #[test]
    fn degree_sum_is_edge_count((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        let sum: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    /// The build equals a stable sort of the input by `(src, dst)`:
    /// repeated pairs keep their input order and their weights.
    #[test]
    fn build_is_a_stable_sort_by_source_and_target((n, edges) in weighted_edge_list()) {
        let g = Csr::from_weighted_edges(n, &edges);
        let mut sorted = edges.clone();
        sorted.sort_by_key(|&(s, d, _)| (s, d));
        prop_assert_eq!(g.iter_edges().collect::<Vec<_>>(), sorted);
        let mut offsets = vec![0u32; n + 1];
        for &(s, _, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        prop_assert_eq!(g.offsets(), &offsets[..]);
    }

    /// The reverse graph equals a build from the flipped edges, so
    /// repeated pairs keep the graph's order.
    #[test]
    fn reverse_equals_a_build_of_flipped_edges((n, edges) in weighted_edge_list()) {
        let g = Csr::from_weighted_edges(n, &edges);
        let flipped: Vec<_> = g.iter_edges().map(|(s, d, w)| (d, s, w)).collect();
        prop_assert_eq!(g.reverse(), Csr::from_weighted_edges(n, &flipped));
    }

    /// Re-weighting in place equals rebuilding the graph from its
    /// re-weighted edge list.
    #[test]
    fn random_weights_equal_a_rebuild((n, edges) in weighted_edge_list(), seed in 0u64..1000) {
        let g = Csr::from_weighted_edges(n, &edges);
        let rebuilt: Vec<_> = g
            .iter_edges()
            .map(|(s, d, _)| (s, d, pair_weight(s, d, 16, seed)))
            .collect();
        prop_assert_eq!(
            generators::with_random_weights(&g, 16, seed),
            Csr::from_weighted_edges(n, &rebuilt)
        );
    }

    /// Reversing twice is the identity on the edge multiset.
    #[test]
    fn double_reverse_is_identity((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        prop_assert_eq!(g.reverse().reverse(), g);
    }

    /// Reversing twice is the identity also with weights, repeated pairs
    /// and isolated vertices.
    #[test]
    fn double_reverse_keeps_weights_and_repeated_pairs((n, edges) in weighted_edge_list()) {
        let g = Csr::from_weighted_edges(n, &edges);
        prop_assert_eq!(g.reverse().reverse(), g);
    }

    /// The reverse graph preserves the edge count and flips every edge.
    #[test]
    fn reverse_flips_edges((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        let r = g.reverse();
        prop_assert_eq!(r.num_edges(), g.num_edges());
        let mut fwd: Vec<_> = g.iter_edges().map(|(s, d, w)| (d, s, w)).collect();
        let mut bwd: Vec<_> = r.iter_edges().collect();
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    /// The per-edge source array is consistent with the offsets.
    #[test]
    fn sources_consistent_with_offsets((n, edges) in edge_list()) {
        let g = Csr::from_edges(n, &edges);
        for v in 0..n as u32 {
            let lo = g.offsets()[v as usize] as usize;
            let hi = g.offsets()[v as usize + 1] as usize;
            for e in lo..hi {
                prop_assert_eq!(g.sources()[e], v);
            }
        }
    }

    /// Builder symmetrization produces symmetric graphs with no
    /// self-loops and no duplicates.
    #[test]
    fn builder_symmetric_invariants((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for (s, d) in edges {
            b.add_edge(s, d);
        }
        let g = b.symmetric(true).build();
        prop_assert!(g.is_symmetric());
        let mut seen = std::collections::HashSet::new();
        for (s, d, _) in g.iter_edges() {
            prop_assert_ne!(s, d, "self loop");
            prop_assert!(seen.insert((s, d)), "duplicate edge ({}, {})", s, d);
        }
    }

    /// Edge-list text I/O round-trips the edge multiset and weights.
    #[test]
    fn io_round_trips((n, edges) in edge_list(), wseed in 0u64..100) {
        let g0 = Csr::from_edges(n, &edges);
        let g = generators::with_random_weights(&g0, 16, wseed);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).expect("write");
        let back = io::read_edge_list(&buf[..]).expect("read");
        let a: Vec<_> = g.iter_edges().collect();
        let b: Vec<_> = back.iter_edges().collect();
        prop_assert_eq!(a, b);
    }

    /// Generators honor their vertex counts and symmetry for any seed.
    #[test]
    fn generators_basic_invariants(seed in 0u64..500) {
        let p = generators::powerlaw(64, 256, 1.8, seed);
        prop_assert_eq!(p.num_vertices(), 64);
        prop_assert!(p.is_symmetric());
        let r = generators::rmat(5, 100, 0.57, 0.19, 0.19, seed);
        prop_assert_eq!(r.num_vertices(), 32);
        prop_assert!(r.is_symmetric());
        let u = generators::uniform(40, 100, seed);
        prop_assert!(u.is_symmetric());
    }
}
