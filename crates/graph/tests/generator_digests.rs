//! Byte digests of generated graphs.
//!
//! Every byte golden of the simulator (cycle counts, traces, checkpoints)
//! starts from a generated graph, so the generators and the CSR build must
//! keep producing the same bytes. Each case hashes a graph's offsets,
//! targets, sources and weights with 64-bit FNV-1a and compares against a
//! digest recorded from the sort-based CSR build that the counting-sort
//! build replaced.

use sparseweaver_graph::{generators, Csr, Direction, GraphBuilder};

/// FNV-1a over the vertex and edge counts, then every array, each value
/// as four little-endian bytes.
fn digest(g: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let counts = [g.num_vertices() as u32, g.num_edges() as u32];
    let arrays: [&[u32]; 5] = [&counts, g.offsets(), g.targets(), g.sources(), g.weights()];
    for &word in arrays.iter().flat_map(|a| a.iter()) {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The weights `swsim --gen` and the benchmark attach to every graph.
fn weighted(g: Csr) -> Csr {
    generators::with_random_weights(&g, 64, 0xC11)
}

/// Checks the push graph and its pull view against `(push, pull)`.
fn check(name: &str, g: &Csr, expected: (u64, u64)) {
    let got = (digest(g), digest(&g.view(Direction::Pull)));
    assert_eq!(
        got, expected,
        "{name}: (push, pull) digests changed: got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// The benchmark's R-MAT scale-16 graph at seed 1.
#[test]
fn rmat_scale16_benchmark_graph() {
    let g = weighted(generators::rmat(16, 500_000, 0.57, 0.19, 0.19, 1));
    check("rmat16", &g, (0x6110_49e8_bbf4_7916, 0x6110_49e8_bbf4_7916));
}

#[test]
fn rmat_scale12_other_seed() {
    let g = weighted(generators::rmat(12, 20_000, 0.57, 0.19, 0.19, 7));
    check("rmat12", &g, (0x4821_b1e9_15b1_dddd, 0x4821_b1e9_15b1_dddd));
}

/// The benchmark's road grid.
#[test]
fn road_grid_256() {
    let g = weighted(generators::road_grid(256, 256, 0.9, 0.01, 1));
    check(
        "grid256",
        &g,
        (0x2cac_c2b3_d3d6_1e21, 0x2cac_c2b3_d3d6_1e21),
    );
}

#[test]
fn powerlaw() {
    let p = weighted(generators::powerlaw(2000, 30_000, 1.9, 42));
    check(
        "powerlaw",
        &p,
        (0x5423_b047_64d7_9594, 0x5423_b047_64d7_9594),
    );
}

#[test]
fn uniform() {
    let u = weighted(generators::uniform(500, 3_000, 3));
    check(
        "uniform",
        &u,
        (0x4892_0a03_112e_3a1f, 0x4892_0a03_112e_3a1f),
    );
}

/// A directed graph whose pull view differs from the graph itself.
#[test]
fn non_symmetric_pull_view() {
    let n = 1_000u32;
    let mut b = GraphBuilder::new(n as usize);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..8_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (s, d) = ((x % n as u64) as u32, ((x >> 32) % n as u64) as u32);
        b.add_weighted_edge(s, d, (x >> 48) as u32 % 100 + 1);
    }
    let g = b.build();
    assert!(!g.is_symmetric());
    check(
        "directed",
        &g,
        (0xcb30_dc48_9743_3113, 0x49ba_5621_43cc_4539),
    );
}
