//! Criterion benches: one group per paper artifact, exercising the same
//! machinery as the `experiments` binary at reduced scale so regressions
//! in any experiment's critical path are caught quickly.
//!
//! The full-scale reports are produced by `cargo run --release -p
//! sparseweaver-bench --bin experiments`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use sparseweaver_core::algorithms::{Algorithm, Bfs, ConnectedComponents, Gcn, PageRank, Sssp};
use sparseweaver_core::{analytic, autotune, Schedule, Session};
use sparseweaver_graph::{generators, Csr, Direction};
use sparseweaver_isa::{encode, Instr, Reg};
use sparseweaver_mem::{Hierarchy, HierarchyConfig, Hooks};
use sparseweaver_sim::GpuConfig;
use sparseweaver_weaver::{area, SparseTable, StEntry, WeaverFsm};

fn small_graph() -> Csr {
    generators::with_random_weights(&generators::powerlaw(150, 900, 1.9, 7), 32, 1)
}

fn bench_session() -> Session {
    Session::new(GpuConfig::small_test())
}

fn run_pr(schedule: Schedule) -> u64 {
    let g = small_graph();
    let mut s = bench_session();
    s.run(&g, &PageRank::new(2), schedule).expect("run").cycles
}

/// Table I + Fig. 2: the analytic models.
fn analytic_models(c: &mut Criterion) {
    let g = small_graph();
    c.bench_function("table1_scheme_analysis", |b| {
        b.iter(|| black_box(analytic::scheme_table()))
    });
    c.bench_function("fig2_warp_iteration_model", |b| {
        b.iter(|| {
            for s in [Schedule::Svm, Schedule::Sem, Schedule::Swm] {
                black_box(analytic::expected_warp_iterations(&g, s, 32, 512));
            }
        })
    });
}

/// Table II: ISA encode/decode.
fn isa_encoding(c: &mut Criterion) {
    let instrs = [
        Instr::WeaverReg {
            vid: Reg(1),
            loc: Reg(2),
            deg: Reg(3),
        },
        Instr::WeaverDecId { rd: Reg(4) },
        Instr::WeaverDecLoc { rd: Reg(5) },
        Instr::WeaverSkip { vid: Reg(6) },
    ];
    c.bench_function("table2_weaver_isa_encode", |b| {
        b.iter(|| {
            for i in &instrs {
                let w = encode::encode_weaver(i).expect("weaver");
                black_box(encode::decode_weaver(w).expect("decode"));
            }
        })
    });
}

/// Table III: dataset stand-in generation.
fn dataset_generation(c: &mut Criterion) {
    c.bench_function("table3_powerlaw_generation", |b| {
        b.iter(|| black_box(generators::powerlaw(500, 4000, 1.8, 3)))
    });
    c.bench_function("table3_rmat_generation", |b| {
        b.iter(|| black_box(generators::rmat(8, 2000, 0.57, 0.19, 0.19, 3)))
    });
}

/// Figs. 3/4/10: PR under each scheduling scheme (the main sweep's inner
/// loop).
fn fig10_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_pagerank_schedules");
    group.sample_size(10);
    for s in Schedule::ALL {
        group.bench_function(s.paper_name(), |b| b.iter(|| black_box(run_pr(s))));
    }
    group.finish();
}

/// Fig. 10's other algorithms at reduced scale.
fn fig10_algorithms(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("fig10_algorithms_sparseweaver");
    group.sample_size(10);
    group.bench_function("bfs", |b| {
        b.iter_batched(
            bench_session,
            |mut s| {
                black_box(
                    s.run(&g, &Bfs::new(0), Schedule::SparseWeaver)
                        .expect("run"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sssp", |b| {
        b.iter_batched(
            bench_session,
            |mut s| {
                black_box(
                    s.run(&g, &Sssp::new(0), Schedule::SparseWeaver)
                        .expect("run"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cc", |b| {
        b.iter_batched(
            bench_session,
            |mut s| {
                black_box(
                    s.run(&g, &ConnectedComponents::new(), Schedule::SparseWeaver)
                        .expect("run"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Fig. 11: skew sweep generation + one run.
fn fig11_skew(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_skew_sensitivity");
    group.sample_size(10);
    for nv in [100usize, 400] {
        group.bench_function(format!("v{nv}"), |b| {
            b.iter(|| {
                let g = generators::powerlaw(nv, 1200, 2.0, 5);
                let mut s = bench_session();
                black_box(
                    s.run(&g, &PageRank::new(1), Schedule::SparseWeaver)
                        .expect("run"),
                )
            })
        });
    }
    group.finish();
}

/// Figs. 12/14/15: the memory hierarchy under sweep configurations.
fn memory_sweeps(c: &mut Criterion) {
    c.bench_function("fig12_dram_ratio_access_path", |b| {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.dram_freq_ratio = 6;
        let mut h = Hierarchy::new(cfg);
        let mut hooks = Hooks::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(h.access(0, (t * 64) % 100_000, false, t, &mut hooks))
        })
    });
    c.bench_function("fig15_cache_sweep_run", |b| {
        b.iter(|| {
            let mut cfg = GpuConfig::small_test();
            cfg.hierarchy.l1 = sparseweaver_mem::CacheConfig::new(2048, 4);
            let g = small_graph();
            let mut s = Session::new(cfg);
            black_box(
                s.run(&g, &PageRank::new(1), Schedule::SparseWeaver)
                    .expect("run"),
            )
        })
    });
}

/// Fig. 13: the Weaver unit's decode throughput at high table latency.
fn fig13_weaver_unit(c: &mut Criterion) {
    c.bench_function("fig13_fsm_decode_throughput", |b| {
        b.iter_batched(
            || {
                let mut st = SparseTable::new(256);
                for i in 0..256 {
                    st.register(
                        i,
                        StEntry {
                            vid: i as u32,
                            loc: (i * 4) as u32,
                            deg: (i % 9) as u32,
                        },
                    );
                }
                let mut fsm = WeaverFsm::new(32);
                fsm.load(st);
                fsm
            },
            |mut fsm| black_box(fsm.drain_all()),
            BatchSize::SmallInput,
        )
    });
}

/// Table IV / Fig. 16: the area model.
fn area_model(c: &mut Criterion) {
    c.bench_function("table4_area_model", |b| {
        b.iter(|| {
            black_box(area::table_iv(&[1, 16]));
            black_box(area::block_breakdown(16, true))
        })
    });
}

/// Figs. 17/18: phase-attributed runs (push/pull and EGHW).
fn phase_breakdowns(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("fig17_18_breakdowns");
    group.sample_size(10);
    group.bench_function("fig17_pr_push", |b| {
        b.iter(|| {
            let s = bench_session();
            let mut rt = s
                .runtime(&g, Direction::Push, Schedule::SparseWeaver)
                .expect("rt");
            black_box(PageRank::new(1).run(&mut rt).expect("run"))
        })
    });
    group.bench_function("fig18_pr_eghw", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(s.run(&g, &PageRank::new(1), Schedule::Eghw).expect("run"))
        })
    });
    group.finish();
}

/// Fig. 19: the GCN operators.
fn fig19_gcn(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("fig19_gcn");
    group.sample_size(10);
    for (name, weight_parallel) in [("weight_parallel", true), ("sparseweaver", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let s = bench_session();
                let sched = if weight_parallel {
                    Schedule::Svm
                } else {
                    Schedule::SparseWeaver
                };
                let mut rt = s.runtime(&g, Direction::Pull, sched).expect("rt");
                black_box(Gcn::new(4).run(&mut rt, weight_parallel).expect("run"))
            })
        });
    }
    group.finish();
}

/// New-component benches: S_twc, SpMV, worklist SSSP, vertex splitting.
fn extensions(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.bench_function("stwc_pagerank", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(s.run(&g, &PageRank::new(1), Schedule::Stwc).expect("run"))
        })
    });
    group.bench_function("spmv_sparseweaver", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(
                s.run(
                    &g,
                    &sparseweaver_core::algorithms::Spmv::new(),
                    Schedule::SparseWeaver,
                )
                .expect("run"),
            )
        })
    });
    group.bench_function("sssp_worklist", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(
                s.run(
                    &g,
                    &Sssp::new(0).with_worklist(true),
                    Schedule::SparseWeaver,
                )
                .expect("run"),
            )
        })
    });
    group.bench_function("vertex_split_transform", |b| {
        b.iter(|| black_box(sparseweaver_graph::transform::split_vertices(&g, 8)))
    });
    group.finish();
}

/// Observability overhead: the disabled-by-default tracer hooks must not
/// cost measurable simulation time, and enabled tracing should stay cheap.
fn trace_overhead(c: &mut Criterion) {
    use sparseweaver_trace::TraceConfig;

    let g = small_graph();
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.bench_function("tracing_off", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(
                s.run(&g, &PageRank::new(1), Schedule::SparseWeaver)
                    .expect("run"),
            )
        })
    });
    group.bench_function("tracing_on", |b| {
        b.iter(|| {
            let mut s = bench_session();
            s.trace = Some(TraceConfig {
                sample_every: 1000,
                ..TraceConfig::default()
            });
            black_box(
                s.run(&g, &PageRank::new(1), Schedule::SparseWeaver)
                    .expect("run"),
            )
        })
    });
    group.finish();
}

/// The fast-path engine's hot loop: full simulated runs (BFS and SSSP,
/// SparseWeaver and `S_wm` schedules) on a mid-size synthetic graph,
/// the same runs with idle-cycle fast-forward disabled, and a small
/// fault campaign through the parallel driver. `scripts/check_sim_speed.sh`
/// gates on this group and renders it into `BENCH_sim.json`.
fn sim_hot_loop(c: &mut Criterion) {
    use sparseweaver_core::campaign::{run_campaign, CampaignConfig};
    use sparseweaver_fault::FaultSpec;

    let g = generators::with_random_weights(&generators::powerlaw(400, 2400, 1.9, 7), 64, 1);
    let mut group = c.benchmark_group("sim_hot_loop");
    group.sample_size(10);
    for (name, schedule) in [("weaver", Schedule::SparseWeaver), ("swm", Schedule::Swm)] {
        group.bench_function(format!("bfs_{name}"), |b| {
            b.iter(|| {
                let mut s = bench_session();
                black_box(s.run(&g, &Bfs::new(0), schedule).expect("run"))
            })
        });
        group.bench_function(format!("sssp_{name}"), |b| {
            b.iter(|| {
                let mut s = bench_session();
                black_box(s.run(&g, &Sssp::new(0), schedule).expect("run"))
            })
        });
    }
    // The self-baselining pair for the CI gate: the same BFS run with the
    // per-core blocked cache disabled must not be *faster* than the
    // fast-forwarding engine.
    group.bench_function("bfs_weaver_fastforward_off", |b| {
        b.iter(|| {
            let mut s = bench_session();
            s.fast_forward = false;
            black_box(
                s.run(&g, &Bfs::new(0), Schedule::SparseWeaver)
                    .expect("run"),
            )
        })
    });
    group.bench_function("campaign_20runs", |b| {
        let small = generators::with_random_weights(&generators::uniform(24, 72, 7), 64, 0xC11);
        let campaign = CampaignConfig::new(
            FaultSpec::parse("reg=0.001,mem=0.0005").expect("spec"),
            2025,
            20,
        );
        b.iter(|| {
            black_box(
                run_campaign(
                    &GpuConfig::small_test(),
                    &small,
                    &Bfs::new(0),
                    Schedule::SparseWeaver,
                    &campaign,
                )
                .expect("campaign"),
            )
        })
    });
    group.finish();
}

/// Table V: the auto-tuner search.
fn table5_autotune(c: &mut Criterion) {
    let g = small_graph();
    let mut group = c.benchmark_group("table5_autotune");
    group.sample_size(10);
    group.bench_function("exhaustive_search", |b| {
        b.iter(|| {
            let mut s = bench_session();
            black_box(autotune::autotune(&mut s, &g, &PageRank::new(1)).expect("autotune"))
        })
    });
    group.finish();
}

criterion_group!(
    artifacts,
    analytic_models,
    isa_encoding,
    dataset_generation,
    fig10_schedules,
    fig10_algorithms,
    fig11_skew,
    memory_sweeps,
    fig13_weaver_unit,
    area_model,
    phase_breakdowns,
    fig19_gcn,
    table5_autotune,
    extensions,
    trace_overhead,
    sim_hot_loop,
);
criterion_main!(artifacts);
