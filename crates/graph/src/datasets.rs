//! Scaled stand-ins for the nine evaluation graphs of Table III.
//!
//! The paper evaluates on nine graphs from the network data repository,
//! totaling more than 450M edges. Those raw files are not available offline
//! and are far beyond what a cycle-level interpreter can sweep, so each
//! dataset is replaced by a deterministic synthetic graph of the same
//! *structural class* (see `DESIGN.md`, substitution 2):
//!
//! | paper graph        | class                  | stand-in generator |
//! |--------------------|------------------------|--------------------|
//! | bio-human-gene1    | dense, skewed          | power-law, α=1.4   |
//! | bio-mouse-gene     | dense, skewed          | power-law, α=1.4   |
//! | roadNet-CA         | sparse, uniform        | sparsified grid    |
//! | road-central       | sparse, uniform        | sparsified grid    |
//! | graph500-scale19   | synthetic power-law    | R-MAT              |
//! | COLLAB             | social, skewed         | power-law, α=1.6   |
//! | hollywood-2011     | social, very skewed    | power-law, α=1.8   |
//! | web-uk-2005        | web, dense + skewed    | power-law, α=1.7   |
//! | web-wikipedia      | web, skewed            | power-law, α=2.0   |
//!
//! Scale factors are chosen so each stand-in has roughly 10⁴–10⁵ directed
//! edges: large enough that warp-level imbalance dominates, small enough
//! that the full Fig. 10 sweep simulates in minutes. What every experiment
//! reports is *relative* speedup between scheduling schemes, which is driven
//! by the degree-distribution shape the stand-ins preserve.

use crate::csr::Csr;
use crate::generators;

/// Identifier of one of the nine Table III datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// `bio-human-gene1` (D_bh): 22,284 vertices / 24,691,926 edges.
    BioHuman,
    /// `bio-mouse-gene` (D_bm): 45,102 vertices / 29,012,392 edges.
    BioMouse,
    /// `roadNet-CA` (D_rn): 1,971,282 vertices / 553,321 edges.
    RoadNetCa,
    /// `road-central` (D_rc): 14,081,817 vertices / 3,386,682 edges.
    RoadCentral,
    /// `graph500-scale19` (D_g500): 335,319 vertices / 15,459,350 edges.
    Graph500,
    /// `COLLAB` (D_co): 372,475 vertices / 49,144,316 edges.
    Collab,
    /// `hollywood-2011` (D_hw): 2,180,653 vertices / 228,985,632 edges.
    Hollywood,
    /// `web-uk-2005` (D_uk): 129,633 vertices / 23,488,098 edges.
    WebUk,
    /// `web-wikipedia` (D_wk): 2,936,414 vertices / 104,673,033 edges.
    WebWikipedia,
}

impl DatasetId {
    /// All nine datasets in Table III order.
    pub const ALL: [DatasetId; 9] = [
        DatasetId::BioHuman,
        DatasetId::BioMouse,
        DatasetId::RoadNetCa,
        DatasetId::RoadCentral,
        DatasetId::Graph500,
        DatasetId::Collab,
        DatasetId::Hollywood,
        DatasetId::WebUk,
        DatasetId::WebWikipedia,
    ];

    /// The short name used in the paper's figures (e.g. `D_bh`).
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetId::BioHuman => "D_bh",
            DatasetId::BioMouse => "D_bm",
            DatasetId::RoadNetCa => "D_rn",
            DatasetId::RoadCentral => "D_rc",
            DatasetId::Graph500 => "D_g500",
            DatasetId::Collab => "D_co",
            DatasetId::Hollywood => "D_hw",
            DatasetId::WebUk => "D_uk",
            DatasetId::WebWikipedia => "D_wk",
        }
    }

    /// The full dataset name from Table III.
    pub fn full_name(self) -> &'static str {
        match self {
            DatasetId::BioHuman => "bio-human-gene1",
            DatasetId::BioMouse => "bio-mouse-gene",
            DatasetId::RoadNetCa => "roadNet-CA",
            DatasetId::RoadCentral => "road-central",
            DatasetId::Graph500 => "graph500-scale19",
            DatasetId::Collab => "COLLAB",
            DatasetId::Hollywood => "hollywood-2011",
            DatasetId::WebUk => "web-uk-2005",
            DatasetId::WebWikipedia => "web-wikipedia",
        }
    }

    /// `(vertices, edges)` of the original graph as reported in Table III.
    pub fn paper_size(self) -> (usize, usize) {
        match self {
            DatasetId::BioHuman => (22_284, 24_691_926),
            DatasetId::BioMouse => (45_102, 29_012_392),
            DatasetId::RoadNetCa => (1_971_282, 553_321),
            DatasetId::RoadCentral => (14_081_817, 3_386_682),
            DatasetId::Graph500 => (335_319, 15_459_350),
            DatasetId::Collab => (372_475, 49_144_316),
            DatasetId::Hollywood => (2_180_653, 228_985_632),
            DatasetId::WebUk => (129_633, 23_488_098),
            DatasetId::WebWikipedia => (2_936_414, 104_673_033),
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// A generated stand-in for one Table III dataset.
#[derive(Debug, Clone)]
pub struct ScaledDataset {
    /// Which paper dataset this stands in for.
    pub id: DatasetId,
    /// The generated graph (symmetric, weighted 1..=64).
    pub graph: Csr,
}

impl ScaledDataset {
    /// The scaled vertex count.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The scaled directed edge count.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// Generates the scaled stand-in for `id`. Deterministic: repeated calls
/// return identical graphs.
///
/// # Examples
///
/// ```
/// use sparseweaver_graph::{dataset, DatasetId};
///
/// let d = dataset(DatasetId::Graph500);
/// assert!(d.graph.is_symmetric());
/// ```
pub fn dataset(id: DatasetId) -> ScaledDataset {
    let base = match id {
        // Dense skewed bio graphs: few vertices, very high average degree.
        DatasetId::BioHuman => generators::powerlaw(1_400, 42_000, 1.4, ds_seed(0)),
        DatasetId::BioMouse => generators::powerlaw(2_800, 50_000, 1.4, ds_seed(1)),
        // Road networks: |E| < |V|, near-uniform tiny degrees.
        DatasetId::RoadNetCa => generators::road_grid(124, 124, 0.15, 0.01, ds_seed(2)),
        DatasetId::RoadCentral => generators::road_grid(187, 187, 0.12, 0.005, ds_seed(3)),
        // Kronecker-style synthetic graph (graph500 reference parameters).
        DatasetId::Graph500 => generators::rmat(12, 52_000, 0.57, 0.19, 0.19, ds_seed(4)),
        // Social / collaboration graphs.
        DatasetId::Collab => generators::powerlaw(2_900, 45_000, 1.6, ds_seed(5)),
        DatasetId::Hollywood => generators::powerlaw(4_300, 60_000, 1.8, ds_seed(6)),
        // Web graphs.
        DatasetId::WebUk => generators::powerlaw(1_010, 45_000, 1.7, ds_seed(7)),
        DatasetId::WebWikipedia => generators::powerlaw(5_800, 50_000, 2.0, ds_seed(8)),
    };
    let graph = generators::with_random_weights(&base, 64, 0x5eed_0000 + id as u64);
    ScaledDataset { id, graph }
}

// Deterministic per-dataset seed.
fn ds_seed(i: u64) -> u64 {
    0x0da7_a5e7_u64.wrapping_mul(31).wrapping_add(i)
}

/// Generates all nine scaled datasets in Table III order.
pub fn all_datasets() -> Vec<ScaledDataset> {
    DatasetId::ALL.iter().map(|&id| dataset(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn deterministic() {
        let a = dataset(DatasetId::Hollywood);
        let b = dataset(DatasetId::Hollywood);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn all_symmetric_and_nonempty() {
        for d in all_datasets() {
            assert!(d.num_edges() > 0, "{} is empty", d.id);
            assert!(d.graph.is_symmetric(), "{} not symmetric", d.id);
        }
    }

    #[test]
    fn road_graphs_are_sparse_and_uniform() {
        for id in [DatasetId::RoadNetCa, DatasetId::RoadCentral] {
            let d = dataset(id);
            let s = DegreeStats::of(&d.graph);
            assert!(s.mean < 4.0, "{id}: road mean degree too high: {}", s.mean);
            assert!(s.max <= 16, "{id}: road max degree too high: {}", s.max);
        }
    }

    #[test]
    fn skewed_graphs_are_skewed() {
        for id in [
            DatasetId::BioHuman,
            DatasetId::Hollywood,
            DatasetId::WebUk,
            DatasetId::Graph500,
        ] {
            let d = dataset(id);
            let s = DegreeStats::of(&d.graph);
            assert!(s.cv > 1.0, "{id}: expected skewed degrees, got cv={}", s.cv);
        }
    }

    #[test]
    fn bio_graphs_have_high_mean_degree() {
        let d = dataset(DatasetId::BioHuman);
        let s = DegreeStats::of(&d.graph);
        assert!(s.mean > 30.0, "bio mean degree {}", s.mean);
    }

    #[test]
    fn weights_present() {
        let d = dataset(DatasetId::Collab);
        assert!(d.graph.weights().iter().all(|&w| (1..=64).contains(&w)));
    }

    #[test]
    fn paper_sizes_match_table_iii() {
        assert_eq!(DatasetId::BioHuman.paper_size(), (22_284, 24_691_926));
        assert_eq!(
            DatasetId::WebWikipedia.paper_size(),
            (2_936_414, 104_673_033)
        );
    }
}
