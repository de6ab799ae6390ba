//! Incremental edge-list accumulation with deduplication and symmetrization.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::csr::Csr;
use crate::VertexId;

/// Accumulates edges and produces a [`Csr`].
///
/// The generators in this crate funnel through `GraphBuilder` so that every
/// synthetic dataset gets the same clean-up treatment: self-loop removal,
/// duplicate removal, and optional symmetrization (the paper's push/pull
/// study uses symmetric datasets).
///
/// # Examples
///
/// ```
/// use sparseweaver_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate, dropped
/// b.add_edge(1, 1); // self-loop, dropped
/// let g = b.symmetric(true).build();
/// assert_eq!(g.num_edges(), 2); // (0,1) and its mirror (1,0)
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, u32)>,
    seen: HashSet<u64, BuildHasherDefault<PairHasher>>,
    symmetric: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            seen: HashSet::default(),
            symmetric: false,
            keep_self_loops: false,
        }
    }

    /// Number of (deduplicated) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Mirror every edge at [`GraphBuilder::build`] time.
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// Keep self-loops instead of dropping them (default: drop).
    pub fn keep_self_loops(&mut self, yes: bool) -> &mut Self {
        self.keep_self_loops = yes;
        self
    }

    /// Adds a unit-weight edge; duplicates and (by default) self-loops are
    /// silently dropped. Returns whether the edge was kept.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> bool {
        self.add_weighted_edge(src, dst, 1)
    }

    /// Adds a weighted edge; see [`GraphBuilder::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, weight: u32) -> bool {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        if src == dst && !self.keep_self_loops {
            return false;
        }
        if !self.seen.insert(pair(src, dst)) {
            return false;
        }
        self.edges.push((src, dst, weight));
        true
    }

    /// Finalizes the builder into a [`Csr`].
    pub fn build(&self) -> Csr {
        let mut edges = self.edges.clone();
        if self.symmetric {
            for &(s, d, w) in &self.edges {
                if s != d && !self.seen.contains(&pair(d, s)) {
                    edges.push((d, s, w));
                }
            }
        }
        Csr::from_weighted_edges(self.num_vertices, &edges)
    }
}

/// The dedup set's key: `(src, dst)` packed into one word.
fn pair(src: VertexId, dst: VertexId) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// A fixed multiply/xor-shift hash of a [`pair`] key: the 128-bit
/// product with an odd constant, its high half xored onto its low half,
/// so every key bit reaches the low bits that pick the bucket.
///
/// The dedup set is only inserted into and queried, never iterated, so
/// its hash cannot reach the built graph; a fixed hash serves as well as
/// a keyed one here and costs a fraction of SipHash.
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let p = (self.0 ^ key) as u128 * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p >> 64) as u64 ^ p as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new(4);
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(0, 1));
        assert!(!b.add_edge(2, 2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn keep_self_loops_option() {
        let mut b = GraphBuilder::new(2);
        b.keep_self_loops(true);
        assert!(b.add_edge(1, 1));
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn symmetrization_mirrors_once() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // mirror already present
        b.add_edge(1, 2);
        let g = b.symmetric(true).build();
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn weights_preserved_in_mirror() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 42);
        let g = b.symmetric(true).build();
        assert_eq!(g.neighbor_weights(0), &[42]);
        assert_eq!(g.neighbor_weights(1), &[42]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new(5);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }
}
