//! Compressed Sparse Row storage, the format the paper's framework targets.
//!
//! SparseWeaver "supports storage formats where edges are stored
//! consecutively, and sparse workloads are indicated in the offset array by
//! neighbor counts such as CSR" (Section III-D). This module provides that
//! format plus the reverse (incoming-edge) view needed for pull-direction
//! gathering and the per-edge source array needed by edge mapping.

use std::collections::TryReserveError;
use std::fmt;

use crate::{EdgeId, VertexId};

/// Gather direction (Section III-C, *SparseWeaver Input*).
///
/// `Push` traverses outgoing edges of active sources; `Pull` traverses
/// incoming edges of destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Traverse outgoing edges (scatter from sources).
    Push,
    /// Traverse incoming edges (gather into destinations).
    Pull,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Push => write!(f, "push"),
            Direction::Pull => write!(f, "pull"),
        }
    }
}

/// A directed graph in Compressed Sparse Row format.
///
/// `offsets` has `num_vertices() + 1` entries; the neighbors of vertex `v`
/// are `targets[offsets[v] .. offsets[v + 1]]` with parallel `weights`.
///
/// # Examples
///
/// ```
/// use sparseweaver_graph::Csr;
///
/// // 0 -> 1, 0 -> 2, 2 -> 1
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(2), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<EdgeId>,
    targets: Vec<VertexId>,
    weights: Vec<u32>,
    /// Source vertex of every edge, parallel to `targets`.
    ///
    /// Edge-mapped scheduling must read both endpoints per edge, which is
    /// why Table I charges it `2|E|` edge memory accesses.
    sources: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR graph from `(src, dst)` pairs with unit weights.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let weighted: Vec<(VertexId, VertexId, u32)> =
            edges.iter().map(|&(s, d)| (s, d, 1)).collect();
        Self::from_weighted_edges(num_vertices, &weighted)
    }

    /// Builds a CSR graph from `(src, dst, weight)` triples.
    ///
    /// Each neighbor list is ordered by target, which the ordered-scan
    /// design decision of Section III-C relies on. Edges that repeat a
    /// `(src, dst)` pair keep their input order, so the result equals a
    /// stable sort of `edges` by `(src, dst)`.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`, or if the arrays cannot
    /// be allocated.
    pub fn from_weighted_edges(num_vertices: usize, edges: &[(VertexId, VertexId, u32)]) -> Self {
        Self::try_from_weighted_edges(num_vertices, edges)
            .unwrap_or_else(|e| panic!("cannot build a graph of {num_vertices} vertices: {e}"))
    }

    /// `from_weighted_edges`, reporting a failed allocation instead of
    /// aborting, so a vertex count read from an input file cannot take the
    /// process down.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error if an array does not fit in memory.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub(crate) fn try_from_weighted_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId, u32)],
    ) -> Result<Self, TryReserveError> {
        for &(s, d, _) in edges {
            assert!(
                (s as usize) < num_vertices && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of range for {num_vertices} vertices"
            );
        }
        Self::counting_sort(num_vertices, edges.len(), |e| edges[e])
    }

    /// Builds the CSR of the `m` edges `edge(0) .. edge(m - 1)` (endpoints
    /// already checked) by a stable counting sort on the source.
    ///
    /// `offsets[s]` first counts the edges leaving `s`, then, summed, holds
    /// the end of row `s`; placing each edge's `(target, weight)` last to
    /// first moves each row's end down to its start, so no cursor array is
    /// needed. A row is then sorted by target only if it is out of order.
    fn counting_sort(
        num_vertices: usize,
        m: usize,
        edge: impl Fn(usize) -> (VertexId, VertexId, u32),
    ) -> Result<Self, TryReserveError> {
        let mut offsets = try_with_capacity(num_vertices + 1)?;
        offsets.resize(num_vertices + 1, 0 as EdgeId);
        for e in 0..m {
            offsets[edge(e).0 as usize] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..num_vertices] {
            end += *o;
            *o = end;
        }
        offsets[num_vertices] = end;
        let mut placed = try_with_capacity(m)?;
        placed.resize(m, (0 as VertexId, 0u32));
        for e in (0..m).rev() {
            let (s, d, w) = edge(e);
            let at = &mut offsets[s as usize];
            *at -= 1;
            placed[*at as usize] = (d, w);
        }
        let mut sources = try_with_capacity(m)?;
        for (v, bounds) in offsets.windows(2).enumerate() {
            let row = &mut placed[bounds[0] as usize..bounds[1] as usize];
            if !row.is_sorted_by_key(|&(d, _)| d) {
                row.sort_by_key(|&(d, _)| d);
            }
            sources.extend(std::iter::repeat_n(v as VertexId, row.len()));
        }
        let mut targets = try_with_capacity(m)?;
        targets.extend(placed.iter().map(|&(d, _)| d));
        let mut weights = try_with_capacity(m)?;
        weights.extend(placed.iter().map(|&(_, w)| w));
        Ok(Csr {
            offsets,
            targets,
            weights,
            sources,
        })
    }

    /// The same graph with each edge's weight set to `weight(src, dst)`.
    pub(crate) fn with_weights(&self, weight: impl Fn(VertexId, VertexId) -> u32) -> Csr {
        Csr {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: self.iter_edges().map(|(s, d, _)| weight(s, d)).collect(),
            sources: self.sources.clone(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The offset array (`num_vertices() + 1` entries).
    pub fn offsets(&self) -> &[EdgeId] {
        &self.offsets
    }

    /// The edge target array.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The per-edge weight array, parallel to [`Csr::targets`].
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The per-edge source array, parallel to [`Csr::targets`].
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbor slice of `v` (edge targets).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Weights of the edges leaving `v`, parallel to [`Csr::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_weights(&self, v: VertexId) -> &[u32] {
        let v = v as usize;
        &self.weights[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates over `(src, dst, weight)` triples in edge order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        (0..self.num_edges()).map(move |e| (self.sources[e], self.targets[e], self.weights[e]))
    }

    /// The reverse graph: an edge `(u, v, w)` becomes `(v, u, w)`.
    ///
    /// Pull-direction gathering traverses this view (incoming edges of each
    /// destination).
    ///
    /// The edges are placed in `(src, dst)` order, so each reversed row
    /// arrives sorted and the build sorts no row.
    ///
    /// # Panics
    ///
    /// Panics if the arrays cannot be allocated.
    pub fn reverse(&self) -> Csr {
        let edge = |e: usize| (self.targets[e], self.sources[e], self.weights[e]);
        Self::counting_sort(self.num_vertices(), self.num_edges(), edge)
            .unwrap_or_else(|e| panic!("cannot build the reverse graph: {e}"))
    }

    /// Returns the view of this graph for `direction`.
    ///
    /// `Push` is the graph itself (cloned); `Pull` is [`Csr::reverse`].
    pub fn view(&self, direction: Direction) -> Csr {
        match direction {
            Direction::Push => self.clone(),
            Direction::Pull => self.reverse(),
        }
    }

    /// Whether for every edge `(u, v)` the edge `(v, u)` also exists.
    ///
    /// The paper uses symmetric datasets for the push/pull breakdown
    /// (Section V-G).
    pub fn is_symmetric(&self) -> bool {
        let mut set: std::collections::HashSet<(VertexId, VertexId)> =
            std::collections::HashSet::with_capacity(self.num_edges());
        for (s, d, _) in self.iter_edges() {
            set.insert((s, d));
        }
        self.iter_edges().all(|(s, d, _)| set.contains(&(d, s)))
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

/// An empty vector with room for exactly `len` elements, or the
/// allocator's refusal.
fn try_with_capacity<T>(len: usize) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn offsets_and_degrees() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.offsets(), &[0, 2, 3, 4, 4]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn sources_parallel_targets() {
        let g = diamond();
        assert_eq!(g.sources(), &[0, 0, 1, 2]);
        assert_eq!(g.targets(), &[1, 2, 3, 3]);
    }

    #[test]
    fn reverse_swaps_endpoints() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.num_edges(), 4);
        assert_eq!(r.neighbors(3), &[1, 2]);
        assert_eq!(r.neighbors(0), &[] as &[VertexId]);
        // Reversing twice is the identity (edge multiset).
        let rr = r.reverse();
        assert_eq!(rr, g);
    }

    #[test]
    fn weighted_edges_keep_weights() {
        let g = Csr::from_weighted_edges(2, &[(0, 1, 7), (1, 0, 9)]);
        assert_eq!(g.neighbor_weights(0), &[7]);
        assert_eq!(g.neighbor_weights(1), &[9]);
        let r = g.reverse();
        assert_eq!(r.neighbor_weights(1), &[7]);
    }

    #[test]
    fn symmetric_detection() {
        let asym = diamond();
        assert!(!asym.is_symmetric());
        let sym = Csr::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Csr::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn iter_edges_in_order() {
        let g = diamond();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
    }
}
