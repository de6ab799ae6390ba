//! Analytic models: expected warp iterations (Fig. 2a) and the
//! scheduling-scheme comparison of Table I.

use sparseweaver_graph::Csr;

use crate::schedule::Schedule;

/// Expected number of warp iterations for the edge-gathering process under
/// `schedule` with `tpw`-lane warps (the model behind Fig. 2a).
///
/// - vertex mapping: each warp iterates as long as its highest-degree
///   vertex (lockstep);
/// - edge mapping: edges divide evenly across all threads;
/// - warp mapping: each warp's edges divide evenly across its lanes;
/// - CTA mapping and SparseWeaver: a whole block's edges divide evenly
///   (block-level balancing), modeled with `block` threads per block.
pub fn expected_warp_iterations(view: &Csr, schedule: Schedule, tpw: usize, block: usize) -> u64 {
    let nv = view.num_vertices();
    let ne = view.num_edges() as u64;
    if nv == 0 {
        return 0;
    }
    let degs: Vec<u64> = (0..nv as u32).map(|v| view.degree(v) as u64).collect();
    match schedule {
        Schedule::Svm => degs
            .chunks(tpw)
            .map(|w| w.iter().copied().max().unwrap_or(0))
            .sum(),
        Schedule::Sem => ne.div_ceil(tpw as u64),
        Schedule::Swm => degs
            .chunks(tpw)
            .map(|w| w.iter().sum::<u64>().div_ceil(tpw as u64))
            .sum(),
        Schedule::Stwc | Schedule::Scm | Schedule::SparseWeaver | Schedule::Eghw => degs
            .chunks(block)
            .map(|b| b.iter().sum::<u64>().div_ceil(tpw as u64))
            .sum(),
    }
}

/// One row of Table I: the implementation characteristics of a scheduling
/// scheme. `|V|`, `|E|`, `|B|` appear symbolically as in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeRow {
    /// Scheme name in paper notation.
    pub name: &'static str,
    /// Sharing granularity.
    pub granularity: &'static str,
    /// Residual imbalance level.
    pub imbalance: &'static str,
    /// Edge memory accesses.
    pub edge_mem_access: &'static str,
    /// Shared-memory footprint.
    pub shared_mem: &'static str,
    /// Global-memory footprint.
    pub global_mem: &'static str,
    /// Registration complexity `(sync, added kernels, atomics, warp shuffles)`.
    pub registration: &'static str,
    /// Distribution complexity `(binary searches, atomics, syncs)`.
    pub distribution: &'static str,
    /// Edge access locality.
    pub locality: &'static str,
}

/// Generates Table I.
pub fn scheme_table() -> Vec<SchemeRow> {
    vec![
        SchemeRow {
            name: "S_vm",
            granularity: "Thread",
            imbalance: "high",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "-",
            global_mem: "-",
            registration: "0, 0, 0, 0",
            distribution: "0, 0, 0",
            locality: "low",
        },
        SchemeRow {
            name: "S_em",
            granularity: "Kernel",
            imbalance: "low",
            edge_mem_access: "2|E|",
            shared_mem: "-",
            global_mem: "-",
            registration: "0, 0, 0, 0",
            distribution: "0, 0, 0",
            locality: "high",
        },
        SchemeRow {
            name: "S_wm",
            granularity: "Warp",
            imbalance: "mid",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "3|B|",
            global_mem: "-",
            registration: "1, 0, 0, 6",
            distribution: "|E|, 0, 0",
            locality: "mid",
        },
        SchemeRow {
            name: "S_cm",
            granularity: "Block",
            imbalance: "low",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "3|B|",
            global_mem: "-",
            registration: "17, 0, 0, 15",
            distribution: "|E|, 0, 0",
            locality: "high",
        },
        SchemeRow {
            name: "S_twc",
            granularity: "T, W, B",
            imbalance: "low",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "3|B|",
            global_mem: "3|V|",
            registration: "1, 0, 3|V|, 6",
            distribution: "|E|, 0, 0",
            locality: "mid",
        },
        SchemeRow {
            name: "S_twce",
            granularity: "T, W, B",
            imbalance: "mid",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "6|B|",
            global_mem: "-",
            registration: "1, 3, 2|V|, 0",
            distribution: "0, a|E|, a|E|",
            locality: "mid",
        },
        SchemeRow {
            name: "S_strict",
            granularity: "Kernel",
            imbalance: "low",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "3|B|",
            global_mem: "3|V|",
            registration: "17, 3, 0, 15",
            distribution: "|E|, 0, 0",
            locality: "high",
        },
        SchemeRow {
            name: "SparseWeaver",
            granularity: "Block",
            imbalance: "low",
            edge_mem_access: "2|V| + |E|",
            shared_mem: "4|B|",
            global_mem: "-",
            registration: "1, 0, 0, 0",
            distribution: "0, 0, 0",
            locality: "high",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseweaver_graph::generators;

    #[test]
    fn svm_dominated_by_max_degree() {
        // Vertex 0 has degree 7; everything else degree <= 1; 4-lane warps.
        let edges: Vec<(u32, u32)> = (1..8u32).map(|d| (0, d)).chain([(5, 6)]).collect();
        let g = Csr::from_edges(8, &edges);
        let svm = expected_warp_iterations(&g, Schedule::Svm, 4, 16);
        let swm = expected_warp_iterations(&g, Schedule::Swm, 4, 16);
        assert!(svm >= swm, "svm {svm} >= swm {swm}");
        // Warp 0 iterates 7 times (vertex 0); warp 1 once (vertex 5).
        assert_eq!(svm, 8);
    }

    #[test]
    fn em_is_edge_count_over_width() {
        let g = generators::uniform(100, 400, 1);
        let it = expected_warp_iterations(&g, Schedule::Sem, 32, 1024);
        assert_eq!(it, (g.num_edges() as u64).div_ceil(32));
    }

    #[test]
    fn skewed_graph_orders_svm_gt_swm_gt_block() {
        let g = generators::powerlaw(512, 4096, 2.0, 11);
        let svm = expected_warp_iterations(&g, Schedule::Svm, 32, 512);
        let swm = expected_warp_iterations(&g, Schedule::Swm, 32, 512);
        let blk = expected_warp_iterations(&g, Schedule::SparseWeaver, 32, 512);
        assert!(svm > swm, "svm {svm} > swm {swm}");
        assert!(swm >= blk, "swm {swm} >= block {blk}");
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(expected_warp_iterations(&g, Schedule::Svm, 32, 512), 0);
    }

    #[test]
    fn table_i_shape() {
        let t = scheme_table();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].name, "S_vm");
        assert_eq!(t[7].name, "SparseWeaver");
        // SparseWeaver's key property: no binary searches, atomics or
        // distribution syncs, one registration sync.
        assert_eq!(t[7].distribution, "0, 0, 0");
        assert_eq!(t[7].registration, "1, 0, 0, 0");
    }
}
