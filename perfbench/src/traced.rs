//! The traced run: per-layer metrics, timed from outside through each
//! layer's public functions.
//!
//! Spans are recorded in memory around every call into a layer and
//! written to stderr, one JSON object per line, when the run ends. The
//! counts of `RunReport`/`KernelStats`/`CampaignSummary` are read at the
//! same boundaries. This run is a separate process from the timed run,
//! so its memory-trace capture, profiler and fast-forward-off rerun
//! never enter `run_s` or `peak_rss_mb`.

use std::path::PathBuf;
use std::time::Instant;

use sparseweaver_core::campaign::run_campaign;
use sparseweaver_core::{AlgoOutput, FrameworkError, RunReport, Session};
use sparseweaver_graph::Csr;
use sparseweaver_isa::DecodedProgram;
use sparseweaver_mem::{mtrace, replay};
use sparseweaver_sim::GpuConfig;
use sparseweaver_weaver::{SparseTable, StEntry, WeaverFsm};

use crate::host::{cpu_now, Probe, Snapshot};
use crate::report::{ratio, Outcome};
use crate::timed::TOLERANCE;
use crate::workload::Workload;

/// One timed interval: `[start, end]` on the wall and CPU clocks,
/// seconds since the recorder started, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Wall-clock start and end.
    pub wall: (f64, f64),
    /// On-CPU start and end.
    pub cpu: (f64, f64),
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    cpu_origin: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clocks start now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            cpu_origin: cpu_now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn clocks(&self) -> (f64, f64) {
        (
            self.origin.elapsed().as_secs_f64(),
            cpu_now() - self.cpu_origin,
        )
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let (w, c) = self.clocks();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            wall: (w, w),
            cpu: (c, c),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its CPU seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let (w, c) = self.clocks();
        let s = &mut self.spans[id];
        s.wall.1 = w;
        s.cpu.1 = c;
        s.cpu.1 - s.cpu.0
    }

    /// Runs `f` inside a span; returns its result and CPU seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let v = f();
        (v, self.exit(id))
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span; `self_cpu_s` is the span's CPU time not
    /// covered by its children.
    pub fn to_json_lines(&self) -> String {
        let mut child_cpu = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cpu[p] += s.cpu.1 - s.cpu.0;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"span\": \"{}\", \"id\": {i}, \"parent\": {parent}, \"start_s\": {}, \
                     \"end_s\": {}, \"cpu_s\": {}, \"self_cpu_s\": {}}}\n",
                    s.name,
                    s.wall.0,
                    s.wall.1,
                    s.cpu.1 - s.cpu.0,
                    s.cpu.1 - s.cpu.0 - child_cpu[i]
                )
            })
            .collect()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

/// A memory-trace capture file inside the checkout, removed (with its
/// directory, once empty) when dropped.
struct TempCapture(PathBuf);

impl TempCapture {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench_tmp");
        std::fs::create_dir_all(&dir)?;
        Ok(TempCapture(dir.join(format!(
            "{workload}-{}.swmtrace",
            std::process::id()
        ))))
    }
}

impl Drop for TempCapture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Records one correctness check.
fn check(out: &mut Outcome, ok: bool, what: &str) {
    out.attempted += 1;
    if !ok {
        out.failed += 1;
        eprintln!("perfbench: check failed: {what}");
    }
}

/// A run's report, or a failed check.
fn checked_run(
    out: &mut Outcome,
    r: Result<RunReport, FrameworkError>,
    reference: &AlgoOutput,
    cycles: Option<u64>,
    what: &str,
) -> Result<RunReport, String> {
    let report = r.map_err(|e| format!("{what}: {e}"))?;
    let same_cycles = cycles.is_none_or(|c| c == report.cycles);
    check(
        out,
        report.output.approx_eq(reference, TOLERANCE) && same_cycles,
        what,
    );
    Ok(report)
}

/// Runs the traced sequence for `w` and returns its per-layer metrics.
///
/// # Errors
///
/// Returns a message when a layer call itself fails (a compile error, a
/// failed run, an unreadable capture); mismatched outputs are counted as
/// failed checks instead.
pub fn run(w: &Workload, seed: u64) -> Result<Outcome, String> {
    let start = Snapshot::now();
    let mut sp = Spans::new();
    let mut out = Outcome::default();
    let root = sp.enter("traced");

    let (calib, _) = sp.time("host.calibrate", || Probe::new().calibrate());
    let (graph, gen_s) = sp.time("graph.generate", || w.graph(seed));
    let (mut session, _) = sp.time("session.new", || Session::new(w.config));
    let algo = w.algorithm();
    let (reference, _) = sp.time("algorithm.reference", || algo.reference(&graph));
    out.set("graph.gen_s", gen_s);
    out.set("graph.edges", graph.num_edges() as f64);

    // Host runtime and compiler, outside any run.
    let (rt, build_s) = sp.time("runtime.build", || {
        session.runtime(&graph, algo.direction(), w.schedule)
    });
    let mut rt = rt.map_err(|e| format!("Session::runtime: {e}"))?;
    let kernels = algo.kernels(w.schedule, &session.config_for(w.schedule));
    let (compiled, compile_s) = sp.time("compiler.compile", || {
        kernels
            .iter()
            .map(|k| rt.compile(k))
            .collect::<Result<Vec<_>, _>>()
    });
    let compiled = compiled.map_err(|e| format!("Runtime::compile: {e}"))?;
    drop(rt);
    out.set("runtime.build_s", build_s);
    out.set("compiler.compile_s", compile_s);

    // The simulator with every hook off: a warm-up call, an unrecorded
    // timed call, then the recorded one. The last two differ only by the
    // span recorder, so their ratio is its overhead.
    let warm = session.run(&graph, algo.as_ref(), w.schedule);
    let warm = checked_run(&mut out, warm, &reference, None, "warm-up run")?;
    let t = cpu_now();
    let plain = session.run(&graph, algo.as_ref(), w.schedule);
    let plain_s = cpu_now() - t;
    checked_run(
        &mut out,
        plain,
        &reference,
        Some(warm.cycles),
        "untraced run",
    )?;
    let (r, run_s) = sp.time("session.run", || {
        session.run(&graph, algo.as_ref(), w.schedule)
    });
    let report = checked_run(&mut out, r, &reference, Some(warm.cycles), "run")?;
    let stats = &report.stats;
    out.set("host.trace_overhead_frac", ratio(run_s, plain_s) - 1.0);
    out.set("runtime.launches", stats.launches as f64);
    out.set("sim.instructions", stats.instructions as f64);
    out.set("sim.ipc", stats.ipc());
    out.set(
        "sim.ns_per_instr",
        ratio(run_s * 1e9, stats.instructions as f64),
    );
    out.set("sim.stall_memory", stats.stalls.memory as f64);
    out.set("sim.stall_exec", stats.stalls.exec_dep as f64);
    out.set("sim.stall_shared", stats.stalls.shared as f64);
    out.set("sim.stall_weaver", stats.stalls.weaver as f64);
    let mem = &stats.mem;
    out.set("mem.l1_accesses", mem.l1.accesses as f64);
    out.set(
        "mem.l1_hit_frac",
        ratio(mem.l1.hits as f64, mem.l1.accesses as f64),
    );
    out.set(
        "mem.l2_hit_frac",
        ratio(mem.l2.hits as f64, mem.l2.accesses as f64),
    );
    out.set("mem.dram_accesses", mem.dram_accesses as f64);
    let (st_fetches, dec_requests, registrations) = stats.weaver_counters;
    out.set("weaver.registrations", registrations as f64);
    out.set("weaver.dec_requests", dec_requests as f64);
    out.set("weaver.st_fetches", st_fetches as f64);

    // Kernel decode, once per launch the run made.
    let (_, decode_s) = sp.time("isa.decode", || {
        for i in 0..stats.launches as usize {
            std::hint::black_box(DecodedProgram::new(&compiled[i % compiled.len()]));
        }
    });
    out.set("isa.decode_s", decode_s);

    // The same run with idle-cycle fast-forward off.
    session.fast_forward = false;
    let (r, ff_off_s) = sp.time("session.run[fast_forward=off]", || {
        session.run(&graph, algo.as_ref(), w.schedule)
    });
    session.fast_forward = true;
    checked_run(
        &mut out,
        r,
        &reference,
        Some(report.cycles),
        "fast-forward-off run",
    )?;
    out.set("sim.ff_off_s", ff_off_s);
    out.set("sim.ff_speedup", ratio(ff_off_s, run_s));

    // The same run with the latency profiler attached.
    session.profile = true;
    let (r, profile_s) = sp.time("session.run[profile]", || {
        session.run(&graph, algo.as_ref(), w.schedule)
    });
    session.profile = false;
    checked_run(&mut out, r, &reference, Some(report.cycles), "profiled run")?;
    out.set("trace.profile_s", profile_s);
    out.set("trace.profile_overhead_frac", ratio(profile_s, run_s) - 1.0);

    // The cache hierarchy alone: capture this run's swmtrace-v1 stream,
    // then replay it under its capture configuration.
    let capture = TempCapture::new(w.name).map_err(|e| format!("capture dir: {e}"))?;
    session.mem_trace_out = Some(capture.0.clone());
    let (r, _) = sp.time("session.run[mem_trace]", || {
        session.run(&graph, algo.as_ref(), w.schedule)
    });
    session.mem_trace_out = None;
    let captured = checked_run(&mut out, r, &reference, Some(report.cycles), "captured run")?;
    check(
        &mut out,
        captured.mem_trace.is_some_and(|m| m.sink_error.is_none()),
        "memory trace capture complete",
    );
    let (trace, _) = sp.time("mtrace.parse", || {
        std::fs::read(&capture.0)
            .map_err(|e| e.to_string())
            .and_then(|b| mtrace::parse(&b).map_err(|e| e.to_string()))
    });
    drop(capture);
    let trace = trace.map_err(|e| format!("reading the memory trace: {e}"))?;
    let (replayed, replay_s) = sp.time("mem.replay", || replay::replay(&trace, &trace.config));
    let replayed = replayed.map_err(|e| format!("mem replay: {e}"))?;
    check(
        &mut out,
        replayed == trace.live_stats,
        "replayed stats equal the capture footer",
    );
    drop(trace);
    out.set("mem.replay_s", replay_s);
    out.set("mem.replay_frac", ratio(replay_s, run_s));

    // The Weaver FSM alone, over this graph's degree sequence.
    let (decoded, fsm_s) = sp.time("weaver.fsm", || drain_fsm(&graph, &w.config));
    check(
        &mut out,
        decoded == graph.num_edges() as u64,
        "FSM decodes every edge once",
    );
    out.set("weaver.fsm_s", fsm_s);

    // The fault campaign; the run above is its golden run.
    let campaign_metrics = match w.campaign(seed) {
        Some(campaign) => {
            let (r, campaign_s) = sp.time("campaign.run", || {
                run_campaign(&w.config, &graph, algo.as_ref(), w.schedule, &campaign)
            });
            let result = r.map_err(|e| format!("run_campaign: {e}"))?;
            let s = &result.summary;
            check(
                &mut out,
                s.is_classified() && result.panics == 0,
                "campaign classified without panics",
            );
            [
                run_s,
                ratio(campaign_s * 1e3, f64::from(campaign.runs)),
                s.masked as f64,
                s.sdc as f64,
                s.detected_crash as f64,
                s.hang as f64,
                s.faults_injected as f64,
                s.retries as f64,
                s.fallbacks as f64,
            ]
        }
        None => [0.0; 9],
    };
    for (name, v) in [
        "campaign.golden_s",
        "campaign.ms_per_run",
        "campaign.masked",
        "campaign.sdc",
        "campaign.detected_crash",
        "campaign.hang",
        "campaign.faults_injected",
        "campaign.retries",
        "campaign.fallbacks",
    ]
    .into_iter()
    .zip(campaign_metrics)
    {
        out.set(name, v);
    }

    sp.exit(root);
    let (wall_s, cpu_s, steal_s) = start.since();
    out.set("host.wall_s", wall_s);
    out.set("host.cpu_s", cpu_s);
    out.set("host.steal_s", steal_s);
    out.set("host.calib_s", calib);
    eprint!("{}", sp.to_json_lines());
    Ok(out)
}

/// Drains a Weaver FSM over `graph`'s vertices in Sparse-Table-sized
/// blocks, each vertex registering its edge range as a lane would.
/// Returns the number of work items decoded.
fn drain_fsm(graph: &Csr, cfg: &GpuConfig) -> u64 {
    let cap = cfg.weaver.st_capacity.max(1);
    let offsets = graph.offsets();
    let nv = graph.num_vertices();
    let mut fsm = WeaverFsm::new(cfg.threads_per_warp);
    let mut decoded = 0;
    for base in (0..nv).step_by(cap) {
        let mut st = SparseTable::new(cap);
        for (slot, v) in (base..nv.min(base + cap)).enumerate() {
            st.register(
                slot,
                StEntry {
                    vid: v as u32,
                    loc: offsets[v],
                    deg: offsets[v + 1] - offsets[v],
                },
            );
        }
        fsm.load(st);
        decoded += fsm.drain_all().len() as u64;
    }
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut sp = Spans::new();
        let root = sp.enter("root");
        let (v, _) = sp.time("leaf", || 7);
        sp.exit(root);
        assert_eq!(v, 7);
        let s = sp.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[1].wall.0 >= s[0].wall.0 && s[1].wall.1 <= s[0].wall.1);
        let lines = sp.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"span\": \"leaf\", \"id\": 1, \"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_close_in_order() {
        let mut sp = Spans::new();
        let a = sp.enter("a");
        let _b = sp.enter("b");
        sp.exit(a);
    }

    #[test]
    fn fsm_drain_covers_every_edge() {
        let g = sparseweaver_graph::generators::rmat(7, 900, 0.57, 0.19, 0.19, 3);
        let cfg = GpuConfig::small_test();
        assert_eq!(drain_fsm(&g, &cfg), g.num_edges() as u64);
    }
}
