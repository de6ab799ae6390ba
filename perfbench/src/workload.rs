//! The benchmark's workloads: how each one builds its inputs from the
//! seed, and what it runs.

use sparseweaver_core::algorithms::{Algorithm, Bfs, PageRank, Sssp};
use sparseweaver_core::campaign::CampaignConfig;
use sparseweaver_core::runtime::DEFAULT_WEAVER_RETRIES;
use sparseweaver_core::{Schedule, Session};
use sparseweaver_fault::FaultSpec;
use sparseweaver_graph::{generators, Csr};
use sparseweaver_sim::GpuConfig;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "pr-rmat16-sw",
    "pr-rmat16-swm",
    "sssp-grid256-sw",
    "campaign-bfs-sw",
];

/// The fault spec of the committed golden campaign
/// (`scripts/fault_campaign_golden.json`).
pub const GOLDEN_SPEC: &str = "reg=0.0001,mem=0.00005,fetch=0.00005,weaver-drop=0.05";

/// Seed of the SSSP road grid. The grid does not follow the benchmark
/// seed: its 1% random long-range edges set how many rounds SSSP needs,
/// and over seeds 1–10 that swung the run from 2.19 M to 2.96 M cycles
/// (interquartile range 17% of the median), more than the spread a
/// regression bound can tolerate. Seed 1 gives the median run.
const GRID_SEED: u64 = 1;

/// Worker threads for campaign runs: the reference machine's `nproc`.
/// `run_s` is on-CPU time, which oversubscription does not inflate.
const CAMPAIGN_JOBS: usize = 2;

/// Input size: `Full` is what the benchmark measures, `Tiny` keeps every
/// code path but finishes in well under a second for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Self-test sizes.
    Tiny,
}

/// Which generator builds the graph.
#[derive(Debug, Clone, Copy)]
enum GraphSpec {
    /// `--gen rmat:SCALE:EDGES:SEED`.
    Rmat { scale: u32, edges: usize },
    /// `--gen grid:W:H:KEEP:1`, whatever the benchmark seed.
    Grid {
        width: usize,
        height: usize,
        keep: f64,
    },
    /// `swfault`'s built-in graph: `uniform(24, 72, 7)`, seed fixed.
    CampaignDefault,
}

/// What one measured call does.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// `Session::run` of PageRank with this many iterations.
    PageRank(u32),
    /// `Session::run` of SSSP from this source.
    Sssp(u32),
    /// `run_campaign` of BFS from vertex 0 with this many injected runs.
    Campaign { runs: u32 },
}

/// One named workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    graph: GraphSpec,
    /// The measured call.
    job: Job,
    /// The schedule every run uses.
    pub schedule: Schedule,
    /// The machine every run uses.
    pub config: GpuConfig,
}

/// Everything a timed rep needs, built by [`Workload::setup`].
pub struct Inputs {
    /// The weighted graph.
    pub graph: Csr,
    /// A session on the workload's machine, hooks off.
    pub session: Session,
}

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str, scale: Scale) -> Option<Workload> {
        let tiny = scale == Scale::Tiny;
        let rmat = if tiny {
            GraphSpec::Rmat {
                scale: 8,
                edges: 2_000,
            }
        } else {
            GraphSpec::Rmat {
                scale: 16,
                edges: 500_000,
            }
        };
        let eval = GpuConfig::evaluation_default();
        let w = match name {
            "pr-rmat16-sw" => Workload {
                name: NAMES[0],
                graph: rmat,
                job: Job::PageRank(3),
                schedule: Schedule::SparseWeaver,
                config: eval,
            },
            "pr-rmat16-swm" => Workload {
                name: NAMES[1],
                graph: rmat,
                job: Job::PageRank(3),
                schedule: Schedule::Swm,
                config: eval,
            },
            "sssp-grid256-sw" => Workload {
                name: NAMES[2],
                graph: if tiny {
                    GraphSpec::Grid {
                        width: 16,
                        height: 16,
                        keep: 0.9,
                    }
                } else {
                    GraphSpec::Grid {
                        width: 256,
                        height: 256,
                        keep: 0.9,
                    }
                },
                job: Job::Sssp(0),
                schedule: Schedule::SparseWeaver,
                config: eval,
            },
            "campaign-bfs-sw" => Workload {
                name: NAMES[3],
                graph: GraphSpec::CampaignDefault,
                job: Job::Campaign {
                    runs: if tiny { 8 } else { 200 },
                },
                schedule: Schedule::SparseWeaver,
                config: GpuConfig::small_test(),
            },
            _ => return None,
        };
        Some(w)
    }

    /// The weighted graph for `seed`, exactly as `swsim --gen` (and, for
    /// the campaign, `swfault` with no graph flag) builds it. Only the
    /// R-MAT graph follows `seed`.
    pub fn graph(&self, seed: u64) -> Csr {
        let base = match self.graph {
            GraphSpec::Rmat { scale, edges } => {
                generators::rmat(scale, edges, 0.57, 0.19, 0.19, seed)
            }
            GraphSpec::Grid {
                width,
                height,
                keep,
            } => generators::road_grid(width, height, keep, 0.01, GRID_SEED),
            GraphSpec::CampaignDefault => generators::uniform(24, 72, 7),
        };
        generators::with_random_weights(&base, 64, 0xC11)
    }

    /// Builds the inputs: graph generation, weights and `Session`
    /// construction — the work `setup_s` times.
    pub fn setup(&self, seed: u64) -> Inputs {
        Inputs {
            graph: self.graph(seed),
            session: Session::new(self.config),
        }
    }

    /// The algorithm the measured call runs (the campaign's is BFS).
    pub fn algorithm(&self) -> Box<dyn Algorithm> {
        match self.job {
            Job::PageRank(iters) => Box::new(PageRank::new(iters)),
            Job::Sssp(source) => Box::new(Sssp::new(source)),
            Job::Campaign { .. } => Box::new(Bfs::new(0)),
        }
    }

    /// The campaign the measured call runs, seeded from the benchmark
    /// seed, or `None` for a single-run workload.
    pub fn campaign(&self, seed: u64) -> Option<CampaignConfig> {
        match self.job {
            Job::Campaign { runs } => {
                let spec = FaultSpec::parse(GOLDEN_SPEC).expect("the golden spec parses");
                let mut c = CampaignConfig::new(spec, seed, runs);
                // `swfault`'s defaults, which the golden summary was made with.
                c.max_weaver_retries = DEFAULT_WEAVER_RETRIES;
                c.jobs = CAMPAIGN_JOBS;
                Some(c)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_at_both_scales() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Tiny] {
                assert_eq!(Workload::named(name, scale).expect(name).name, name);
            }
        }
        assert!(Workload::named("nope", Scale::Full).is_none());
    }

    #[test]
    fn only_the_rmat_graph_follows_the_seed() {
        let w = Workload::named("pr-rmat16-sw", Scale::Tiny).expect("known");
        assert_eq!(w.graph(1).targets(), w.graph(1).targets());
        assert_ne!(w.graph(1).targets(), w.graph(2).targets());
        for name in ["sssp-grid256-sw", "campaign-bfs-sw"] {
            let w = Workload::named(name, Scale::Tiny).expect("known");
            assert_eq!(w.graph(1).targets(), w.graph(2).targets());
        }
        let c = Workload::named("campaign-bfs-sw", Scale::Tiny).expect("known");
        assert_eq!(c.campaign(9).expect("campaign").seed, 9);
    }
}
