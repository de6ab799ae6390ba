//! Top-level entry point: run an algorithm on a graph under a schedule.

use std::path::PathBuf;

use sparseweaver_fault::{FaultCounts, FaultInjector, FaultSpec};
use sparseweaver_graph::{Csr, Direction};
use sparseweaver_lint::{AnalyzeGeom, LintLevel};
use sparseweaver_mem::{Hooks, Recorder};
use sparseweaver_sim::{Gpu, GpuConfig, KernelStats, Occupancy, SimError, WeaverMode};
use sparseweaver_trace::{
    CounterSnapshot, EventData, FileSink, ProfileReport, Profiler, TraceConfig, TraceReport, Tracer,
};

use crate::algorithms::Algorithm;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::compiler::{Compiler, KernelCache};
use crate::output::AlgoOutput;
use crate::runtime::{CheckpointCtl, Runtime};
use crate::schedule::Schedule;
use crate::FrameworkError;

/// The result of one `(graph, algorithm, schedule)` run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The schedule that produced this run.
    pub schedule: Schedule,
    /// The algorithm's name.
    pub algorithm: String,
    /// Total simulated cycles across all kernel launches.
    pub cycles: u64,
    /// Accumulated statistics.
    pub stats: KernelStats,
    /// Per-kernel accumulated statistics.
    pub per_kernel: Vec<(String, KernelStats)>,
    /// The final vertex properties.
    pub output: AlgoOutput,
    /// Structured trace + metrics, when [`Session::trace`] was set.
    pub trace: Option<TraceReport>,
    /// Latency histograms and load-imbalance counters, when
    /// [`Session::profile`] was set. Render with
    /// [`crate::profile::render`].
    pub profile: Option<ProfileReport>,
    /// The first I/O error hit while streaming the trace to
    /// [`Session::trace_out`], if any: the file on disk is missing
    /// events and must not be presented as a complete timeline.
    pub sink_error: Option<std::io::ErrorKind>,
    /// The lint enforcement level that vetted this run's kernels.
    pub lint: LintLevel,
    /// Register-file occupancy of the machine that ran this report
    /// (`resident < configured` means the register file capped
    /// parallelism).
    pub occupancy: Occupancy,
    /// Launch retries performed after Weaver response timeouts.
    pub weaver_retries: u64,
    /// When the run degraded to a software schedule after retry
    /// exhaustion, the schedule originally requested;
    /// [`RunReport::schedule`] is what actually executed.
    pub fell_back_from: Option<Schedule>,
    /// Injection counters, when a fault injector was attached.
    pub faults: Option<FaultCounts>,
    /// Capture summary (records, bytes, latched sink error) of the
    /// memory trace streamed to [`Session::mem_trace_out`], if set. A
    /// non-`None` `sink_error` means the file on disk is truncated and
    /// must not be presented as a complete capture.
    pub mem_trace: Option<sparseweaver_mem::RecorderSummary>,
}

impl RunReport {
    /// Speedup of this run over `baseline` (cycles ratio).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// A session: a machine configuration under which runs are executed.
///
/// Each run gets a *fresh* GPU (cold caches) so schedules are compared
/// fairly; the SparseWeaver/EGHW runs apply the paper's L1 penalty (the
/// 512-entry ST/DT tables halve the L1, Section V) unless
/// [`Session::l1_penalty`] is disabled.
///
/// # Examples
///
/// ```
/// use sparseweaver_core::prelude::*;
///
/// let graph = sparseweaver_graph::generators::powerlaw(64, 400, 1.8, 1);
/// let mut session = Session::new(GpuConfig::small_test());
/// let svm = session.run(&graph, &PageRank::new(2), Schedule::Svm)?;
/// let sw = session.run(&graph, &PageRank::new(2), Schedule::SparseWeaver)?;
/// assert!(svm.output.approx_eq(&sw.output, 1e-9));
/// # Ok::<(), FrameworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    cfg: GpuConfig,
    /// Apply the halved-L1 penalty to unit-backed schedules (default on).
    pub l1_penalty: bool,
    /// When set, every [`Session::run`] attaches a tracer with this
    /// configuration and the resulting [`RunReport::trace`] is populated.
    pub trace: Option<TraceConfig>,
    /// When set, traced events stream to this `.jsonl` file (one JSON
    /// object per line) instead of the in-memory ring — nothing is
    /// evicted, so arbitrarily long runs keep their full event timeline.
    /// Implies tracing with [`Session::trace`]'s configuration (or the
    /// default one when `trace` is unset).
    pub trace_out: Option<PathBuf>,
    /// When set, every [`Session::run`] attaches a latency profiler and
    /// [`RunReport::profile`] is populated (default off). Profiling is
    /// independent of tracing and adds no events — just deterministic
    /// histograms and issue counters.
    pub profile: bool,
    /// How the static verifier treats kernel findings before each launch
    /// (default: [`LintLevel::Deny`]).
    pub lint: LintLevel,
    /// Whether the abstract-interpretation analyzer (SW-L5xx: value
    /// ranges, static OOB/race proofs, coalescing advisories) also runs
    /// before each launch (default off). Analyzer *errors* (`SW-L501`,
    /// proved out-of-bounds) reject the kernel under
    /// [`LintLevel::Deny`]; warnings and advisories never block.
    pub analyze: bool,
    /// Deterministic fault-injection spec applied to every run (`None` =
    /// fault-free machine).
    pub inject: Option<FaultSpec>,
    /// Seed for the injector's RNG stream.
    pub inject_seed: u64,
    /// Bound on launch retries after a Weaver response timeout, before
    /// the run degrades to the software `S_wm` schedule.
    pub max_weaver_retries: u32,
    /// Whether a run whose retries are exhausted degrades to `S_wm`
    /// (default on). Turning it off surfaces the Weaver timeout as an
    /// error instead — useful for capturing a hang report of the faulty
    /// machine rather than masking it.
    pub fallback: bool,
    /// Whether the simulator's idle-cycle fast-forward cache is enabled
    /// (default on). Both settings are bit-identical by contract
    /// ([`sparseweaver_sim::Gpu::set_fast_forward`]); the off switch
    /// exists for determinism cross-checks and perf A/B runs.
    pub fast_forward: bool,
    /// When set, every [`Session::run`] streams a binary `swmtrace-v1`
    /// memory-access trace to this file (`-` for stdout) for offline
    /// replay with `swreplay`; [`RunReport::mem_trace`] summarizes the
    /// capture. On a graceful-degradation fallback the file is recreated
    /// for the re-run, so the capture always describes the schedule that
    /// actually executed.
    pub mem_trace_out: Option<PathBuf>,
    /// Checkpoint and early-stop policy applied to every run (default
    /// `None`). The session fills in the config/graph fingerprints and
    /// fallback provenance per run; callers set the output path, cadence,
    /// embedded argv, and stop knobs. Incompatible with
    /// [`Session::mem_trace_out`] (the memory-trace recorder is not part
    /// of the checkpointed state) and with a `-` (stdout)
    /// [`Session::trace_out`] — the CLI rejects both combinations.
    pub checkpoint: Option<CheckpointCtl>,
    /// Injection counters of the most recent [`Session::run`], kept even
    /// when the run errored (the [`RunReport`] is lost on that path).
    last_faults: Option<FaultCounts>,
    /// Every kernel this session's runs compiled. A run compiles only
    /// what is missing, so repeated runs (and the `S_wm` fallback re-run)
    /// reuse every kernel. Clones of the session share the cache, and so
    /// does every session given it by [`Session::set_kernel_cache`]: the
    /// cache is keyed by instruction stream and compiler settings, so any
    /// mix of settings, machines and algorithms may share one.
    kernels: KernelCache,
}

impl Session {
    /// Creates a session on the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](sparseweaver_sim::ConfigError)'s
    /// message if [`GpuConfig::validate`] rejects `cfg`.
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid GPU configuration: {e}"));
        Session {
            cfg,
            l1_penalty: true,
            trace: None,
            trace_out: None,
            profile: false,
            lint: LintLevel::default(),
            analyze: false,
            inject: None,
            inject_seed: 0,
            max_weaver_retries: crate::runtime::DEFAULT_WEAVER_RETRIES,
            fallback: true,
            fast_forward: true,
            mem_trace_out: None,
            checkpoint: None,
            last_faults: None,
            kernels: KernelCache::default(),
        }
    }

    /// Compiles this session's runs into `cache` from now on, e.g. the
    /// cache of another session whose runs built the same kernels.
    pub(crate) fn set_kernel_cache(&mut self, cache: KernelCache) {
        self.kernels = cache;
    }

    /// The kernels this session's runs compiled.
    #[cfg(test)]
    pub(crate) fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    /// Injection counters of the most recent [`Session::run`] (also
    /// populated when the run returned an error), or `None` when no
    /// injector was attached.
    pub fn last_faults(&self) -> Option<FaultCounts> {
        self.last_faults
    }

    /// The base machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Mutable access to the base configuration (for sweeps).
    pub fn config_mut(&mut self) -> &mut GpuConfig {
        &mut self.cfg
    }

    /// The effective configuration used for `schedule`.
    pub fn config_for(&self, schedule: Schedule) -> GpuConfig {
        let mut cfg = self.cfg;
        cfg.weaver_mode = match schedule {
            Schedule::Eghw => WeaverMode::Eghw,
            _ => WeaverMode::Weaver,
        };
        if schedule.uses_unit() && self.l1_penalty {
            cfg.hierarchy.l1 = sparseweaver_mem::CacheConfig::new(
                cfg.hierarchy.l1.size_bytes / 2,
                cfg.hierarchy.l1.ways,
            );
        }
        cfg
    }

    /// Creates a runtime for custom driving (e.g. the GCN case study).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph does not fit the device model.
    pub fn runtime<'g>(
        &self,
        graph: &'g Csr,
        direction: Direction,
        schedule: Schedule,
    ) -> Result<Runtime<'g>, FrameworkError> {
        let cfg = self.config_for(schedule);
        let mut gpu = Gpu::new(cfg);
        gpu.set_fast_forward(self.fast_forward);
        let mut rt = Runtime::new(gpu, graph, direction, schedule)?;
        rt.set_compiler(self.compiler_for(&cfg));
        Ok(rt)
    }

    /// The compiler pipeline for kernels that run on `cfg`: this
    /// session's lint level, plus the analyzer gate at `cfg`'s geometry
    /// when [`Session::analyze`] is set.
    fn compiler_for(&self, cfg: &GpuConfig) -> Compiler {
        self.compiler(self.analyze.then(|| geom_of(cfg)))
    }

    /// This session's compiler with the analyzer gate at `analyze`,
    /// compiling into the session's kernel cache.
    fn compiler(&self, analyze: Option<AnalyzeGeom>) -> Compiler {
        Compiler::with_cache(self.lint, analyze, self.kernels.clone())
    }

    /// Runs the abstract-interpretation analyzer over every kernel
    /// `algorithm` generates under `schedule`, without executing
    /// anything. Kernels are generated at the same occupancy-clamped
    /// geometry a [`Session::run`] would use, so shared-memory layouts
    /// and geometry CSR facts match the machine that would execute them.
    /// Each returned report carries its kernel name and schedule.
    pub fn analyze_kernels(
        &self,
        algorithm: &dyn Algorithm,
        schedule: Schedule,
    ) -> Result<Vec<sparseweaver_lint::LintReport>, FrameworkError> {
        let (eff, _) = self.clamped_config(algorithm, schedule)?;
        let geom = geom_of(&eff);
        Ok(algorithm
            .kernels(schedule, &eff)
            .iter()
            .map(|k| {
                sparseweaver_lint::analyze(k, &geom).with_context(k.name(), schedule.paper_name())
            })
            .collect())
    }

    /// The effective configuration for running `algorithm` under
    /// `schedule`, with `warps_per_core` pre-clamped to the register-file
    /// occupancy cap of the algorithm's hungriest (post-allocation)
    /// kernel, and the originally configured warp count. Every listed
    /// kernel of the clamped config is then in the session's kernel cache.
    ///
    /// The clamp happens *before* the machine is built because the
    /// schedule templates bake thread geometry into kernels at code
    /// generation (shared-memory layouts, scan widths): compile geometry,
    /// physical warps, and the geometry CSRs must all describe the same
    /// machine. Warp counts stay a power of two (the `S_cm` core-wide
    /// scan requires it), and kernel generation re-runs after each shrink
    /// until the cap stops binding. A regenerated kernel is a different
    /// stream, so the cache never hands back one built for another
    /// geometry.
    fn clamped_config(
        &self,
        algorithm: &dyn Algorithm,
        schedule: Schedule,
    ) -> Result<(GpuConfig, usize), FrameworkError> {
        let mut eff = self.config_for(schedule);
        let configured = eff.warps_per_core;
        // The analyzer gates (and prints for) only the geometry that
        // executes, which is known only once the loop ends, so the clamp
        // compiles without it; with the analyzer on, the executing
        // geometry's kernels compile once more, at launch, through the
        // gate.
        let compiler = self.compiler(None);
        loop {
            let kernels = algorithm.kernels(schedule, &eff);
            if kernels.is_empty() {
                // Custom-runtime algorithm: nothing to pre-compile, the
                // launch-time cap inside the GPU still applies.
                break;
            }
            let mut max_hw = 0;
            for k in &kernels {
                max_hw = max_hw.max(compiler.process(k)?.register_high_water());
            }
            let cap = eff.occupancy_cap(max_hw);
            if cap >= eff.warps_per_core {
                break;
            }
            let shrunk = prev_power_of_two(cap);
            if shrunk == eff.warps_per_core {
                break;
            }
            eff.warps_per_core = shrunk;
        }
        Ok((eff, configured))
    }

    /// Runs `algorithm` on `graph` under `schedule`.
    ///
    /// With [`Session::inject`] set, the run executes on a faulty machine:
    /// a deterministic injector seeded with [`Session::inject_seed`] is
    /// attached to the GPU. A launch whose Weaver response is dropped is
    /// retried up to [`Session::max_weaver_retries`] times, device memory
    /// rolled back to its state before the launch; when retries are
    /// exhausted the Weaver unit is considered faulty and the whole run
    /// degrades to the software `S_wm` schedule (graceful degradation —
    /// [`RunReport::fell_back_from`] records the original request).
    ///
    /// # Errors
    ///
    /// Propagates compiler/simulator/convergence errors.
    pub fn run(
        &mut self,
        graph: &Csr,
        algorithm: &dyn Algorithm,
        schedule: Schedule,
    ) -> Result<RunReport, FrameworkError> {
        self.run_with_fallback(graph, algorithm, schedule, None, None)
    }

    /// Resumes a run from a checkpoint written by an earlier, interrupted
    /// invocation with the same session settings, graph, and algorithm.
    ///
    /// The machine is rebuilt exactly as [`Session::run`] builds it —
    /// including entering the graceful-degradation re-run directly when
    /// the checkpoint records one — the checkpointed state is restored
    /// into it, and the recorded host-side decisions are replayed up to
    /// the interruption point, after which simulation continues live. The
    /// final [`RunReport`] is bit-identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ConfigMismatch`] /
    /// [`CheckpointError::GraphMismatch`] (wrapped in
    /// [`FrameworkError::Checkpoint`]) when the rebuilt machine or graph
    /// does not match the checkpoint's fingerprints, plus everything
    /// [`Session::run`] can return.
    pub fn resume(
        &mut self,
        graph: &Csr,
        algorithm: &dyn Algorithm,
        ck: &Checkpoint,
    ) -> Result<RunReport, FrameworkError> {
        self.run_with_fallback(
            graph,
            algorithm,
            ck.schedule,
            ck.fell_back_from.clone(),
            Some(ck),
        )
    }

    /// One [`Session::run`] (or, with `resume` set, its continuation from
    /// a checkpoint) under `schedule`, with graceful degradation.
    /// `fallback_from` is set when `schedule` already is the degraded
    /// `S_wm` re-run, which never times out on the unit:
    /// `(originally requested schedule, kernel that exhausted retries)`.
    fn run_with_fallback(
        &mut self,
        graph: &Csr,
        algorithm: &dyn Algorithm,
        schedule: Schedule,
        fallback_from: Option<(Schedule, String)>,
        resume: Option<&Checkpoint>,
    ) -> Result<RunReport, FrameworkError> {
        let mut fault = self.injector();
        let result = match self.run_once(
            graph,
            algorithm,
            schedule,
            &mut fault,
            fallback_from,
            resume,
        ) {
            Err(FrameworkError::Sim(SimError::WeaverTimeout { kernel, .. }))
                if self.fallback && schedule.uses_unit() =>
            {
                // Retries exhausted: the Weaver unit is faulty. Re-run the
                // whole algorithm under the software warp-mapping schedule
                // on the same (still-faulty) machine — it never consults
                // the unit, so dropped responses cannot recur. A resumed
                // attempt degrades exactly as the uninterrupted run would,
                // with a fresh (non-resumed) re-run.
                self.run_once(
                    graph,
                    algorithm,
                    Schedule::Swm,
                    &mut fault,
                    Some((schedule, kernel)),
                    None,
                )
            }
            other => other,
        };
        self.last_faults = fault.map(|f| f.counts());
        result.map(|mut report| {
            if report.fell_back_from.is_some() {
                // The launch that exhausted its budget retried exactly
                // this many times before the fallback. A resumed re-run
                // re-applies it: its checkpoint was taken after the
                // fallback began, and this count lives outside it.
                report.weaver_retries += self.max_weaver_retries as u64;
            }
            report
        })
    }

    /// A fresh injector for one [`Session::run`], when
    /// [`Session::inject`] is active.
    fn injector(&self) -> Option<FaultInjector> {
        self.inject
            .filter(|s| s.is_active())
            .map(|spec| FaultInjector::new(spec, self.inject_seed))
    }

    /// One attempt of [`Session::run`] under exactly `schedule`.
    /// `fallback_from` marks this as the graceful-degradation re-run:
    /// `(originally requested schedule, kernel that exhausted retries)`.
    /// With `resume` set, the machine is restored from that checkpoint
    /// after all observers are attached, and the side effects that the
    /// restored state already contains (the fallback-entry trace event and
    /// totals) are not re-applied.
    ///
    /// The run borrows the injector in `fault` and hands it back on every
    /// exit path, `Ok` or `Err`: its RNG cursor and counts carry from a
    /// timed-out attempt into the fallback re-run and into
    /// [`Session::last_faults`].
    fn run_once(
        &mut self,
        graph: &Csr,
        algorithm: &dyn Algorithm,
        schedule: Schedule,
        fault: &mut Option<FaultInjector>,
        fallback_from: Option<(Schedule, String)>,
        resume: Option<&Checkpoint>,
    ) -> Result<RunReport, FrameworkError> {
        let (eff, configured) = self.clamped_config(algorithm, schedule)?;
        // Fingerprint the *effective* (clamped, penalty-applied) config —
        // the machine that actually runs.
        let fps = (resume.is_some() || self.checkpoint.is_some()).then(|| {
            (
                crate::profile::config_fingerprint(&eff),
                crate::profile::graph_fingerprint(graph),
            )
        });
        if let (Some(ck), Some((cfp, gfp))) = (resume, fps) {
            ck.verify(cfp, gfp)?;
        }
        if resume.is_some() && self.mem_trace_out.is_some() {
            return Err(CheckpointError::Restore {
                what: "memory-trace capture (--mem-trace-out) is not part of the \
                       checkpointed state and cannot be resumed"
                    .to_string(),
            }
            .into());
        }
        let mut gpu = Gpu::new(eff);
        gpu.set_configured_warps_per_core(configured);
        gpu.set_fast_forward(self.fast_forward);
        let mut rt = Runtime::new(gpu, graph, algorithm.direction(), schedule)?;
        rt.set_compiler(self.compiler_for(&eff));
        let mut tracer = match &self.trace_out {
            Some(path) => {
                let cfg = self.trace.unwrap_or_default();
                // A resume appends to the existing trace file: the restored
                // sink state truncates it back to the checkpointed byte
                // count, while `create` would wipe the pre-interruption
                // events.
                let sink = if resume.is_some() {
                    FileSink::reopen(path)
                } else {
                    FileSink::create(path)
                }
                .map_err(|e| FrameworkError::Io {
                    what: format!("creating trace file {}: {e}", path.display()),
                })?;
                Some(Tracer::with_sink(cfg, Box::new(sink)))
            }
            None => self.trace.map(Tracer::new),
        };
        rt.set_max_weaver_retries(self.max_weaver_retries);
        // Created after the machine: the capture header carries the
        // effective (clamped, penalty-applied) hierarchy configuration,
        // which is what a replay must rebuild for bit-identity.
        let recorder =
            match &self.mem_trace_out {
                Some(path) => Some(Recorder::create(path, &eff.hierarchy).map_err(|e| {
                    FrameworkError::Io {
                        what: format!("creating memory trace file {}: {e}", path.display()),
                    }
                })?),
                None => None,
            };
        if let Some(policy) = &self.checkpoint {
            let mut ctl = policy.clone();
            let (cfp, gfp) = fps.expect("fingerprints computed when a policy is set");
            ctl.config_fp = cfp;
            ctl.graph_fp = gfp;
            ctl.fell_back_from = fallback_from.clone();
            rt.set_checkpoint_ctl(Some(ctl));
        }
        // On a resume the restored tracer state already contains the
        // fallback-entry event and totals — re-applying them here would
        // double-count the degradation.
        if let (None, Some(tr), Some((_, kernel))) = (resume, &mut tracer, &fallback_from) {
            tr.emit(
                0,
                0,
                EventData::WeaverFallback {
                    kernel: kernel.clone(),
                    schedule: schedule.paper_name().to_string(),
                },
            );
            // The failed attempt's tracer died with it; carry what the
            // injector did to that run (the drops that exhausted the
            // retry budget) into this run's totals so `metrics.json`
            // explains the fallback it reports.
            let pre = fault.as_ref().map(|f| f.counts()).unwrap_or_default();
            tr.add_totals(&CounterSnapshot {
                faults_injected: pre.total(),
                weaver_drops: pre.weaver_drops,
                weaver_retries: self.max_weaver_retries as u64,
                weaver_fallbacks: 1,
                ..CounterSnapshot::default()
            });
        }
        rt.attach_hooks(Hooks {
            tracer,
            // The fallback re-run gets its own fresh profiler (only the
            // schedule that actually executed is profiled): the failed
            // attempt's profiler died with its runtime.
            profiler: self.profile.then(Profiler::default),
            recorder,
            fault: fault.take(),
        });
        let output = match resume {
            Some(ck) => rt.resume_from(ck).and_then(|()| algorithm.run(&mut rt)),
            None => algorithm.run(&mut rt),
        };
        let mut hooks = rt.take_hooks();
        *fault = hooks.fault.take();
        let output = output?;
        let occupancy = rt.gpu().occupancy();
        let mem_trace = hooks
            .recorder
            .map(|mut r| r.finalize(&rt.gpu().mem_stats()));
        let weaver_retries = rt.weaver_retries();
        let (stats, per_kernel) = rt.into_stats();
        let trace = hooks.tracer.map(|mut t| t.take_report());
        let sink_error = trace.as_ref().and_then(|t| t.sink_error);
        let profile = hooks.profiler.map(|mut p| p.take_report());
        Ok(RunReport {
            schedule,
            algorithm: algorithm.name().to_string(),
            cycles: stats.cycles,
            stats,
            per_kernel,
            output,
            trace,
            profile,
            sink_error,
            lint: self.lint,
            occupancy,
            weaver_retries,
            fell_back_from: fallback_from.map(|(from, _)| from),
            faults: fault.as_ref().map(FaultInjector::counts),
            mem_trace,
        })
    }
}

/// The analyzer's view of a machine configuration: the geometry CSRs
/// and the shared-memory capacity, nothing else.
pub fn geom_of(cfg: &GpuConfig) -> AnalyzeGeom {
    AnalyzeGeom {
        num_cores: cfg.num_cores as u64,
        warps_per_core: cfg.warps_per_core as u64,
        threads_per_warp: cfg.threads_per_warp as u64,
        shared_mem_bytes: cfg.shared_mem_bytes as u64,
    }
}

/// Largest power of two `<= n` (1 for `n == 0`).
fn prev_power_of_two(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;

    #[test]
    fn l1_penalty_applies_only_to_unit_schedules() {
        let s = Session::new(GpuConfig::small_test());
        let base = s.config_for(Schedule::Svm).hierarchy.l1.size_bytes;
        let sw = s.config_for(Schedule::SparseWeaver).hierarchy.l1.size_bytes;
        assert_eq!(sw * 2, base);
        let mut s2 = s.clone();
        s2.l1_penalty = false;
        assert_eq!(
            s2.config_for(Schedule::SparseWeaver)
                .hierarchy
                .l1
                .size_bytes,
            base
        );
    }

    #[test]
    fn eghw_selects_eghw_mode() {
        let s = Session::new(GpuConfig::small_test());
        assert_eq!(s.config_for(Schedule::Eghw).weaver_mode, WeaverMode::Eghw);
        assert_eq!(s.config_for(Schedule::Svm).weaver_mode, WeaverMode::Weaver);
    }

    #[test]
    fn run_produces_report() {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let mut s = Session::new(GpuConfig::small_test());
        let r = s.run(&g, &PageRank::new(2), Schedule::Svm).unwrap();
        assert!(r.cycles > 0);
        assert_eq!(r.algorithm, "pagerank");
        assert_eq!(r.output.len(), 40);
        assert!(r.trace.is_none());
    }

    /// The injector is lent to each attempt and handed back on every exit
    /// path: the drops of the timed-out Weaver attempt reach the fallback
    /// report, and [`Session::last_faults`] survives an erroring run.
    #[test]
    fn fault_counts_survive_fallback_and_errors() {
        use crate::algorithms::Bfs;

        let g = sparseweaver_graph::generators::uniform(24, 72, 7);
        let mut s = Session::new(GpuConfig::small_test());
        s.inject = Some(FaultSpec::parse("weaver-drop=1.0").unwrap());
        let retries = u64::from(s.max_weaver_retries);

        let report = s.run(&g, &Bfs::new(0), Schedule::SparseWeaver).unwrap();
        assert_eq!(report.fell_back_from, Some(Schedule::SparseWeaver));
        let faults = report.faults.expect("injector attached");
        assert!(faults.weaver_drops > retries, "{faults:?}");

        s.fallback = false;
        let err = s.run(&g, &Bfs::new(0), Schedule::SparseWeaver).unwrap_err();
        assert!(
            matches!(err, FrameworkError::Sim(SimError::WeaverTimeout { .. })),
            "{err}"
        );
        let faults = s.last_faults().expect("kept when the run errors");
        assert!(faults.weaver_drops > retries, "{faults:?}");
    }

    #[test]
    fn a_failed_run_leaves_no_memory_trace_behind() {
        use crate::algorithms::Bfs;

        let dir = std::env::temp_dir().join(format!("sw_session_mtrace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = sparseweaver_graph::generators::uniform(24, 72, 7);
        let mut s = Session::new(GpuConfig::small_test());
        s.inject = Some(FaultSpec::parse("weaver-drop=1.0").unwrap());
        s.fallback = false;
        s.mem_trace_out = Some(dir.join("x.swmtrace"));
        assert!(s.run(&g, &Bfs::new(0), Schedule::SparseWeaver).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");

        // With fallback the failed attempt's capture is discarded and the
        // S_wm re-run publishes a complete one.
        s.fallback = true;
        let report = s.run(&g, &Bfs::new(0), Schedule::SparseWeaver).unwrap();
        assert_eq!(report.mem_trace.unwrap().sink_error, None);
        let bytes = std::fs::read(dir.join("x.swmtrace")).unwrap();
        sparseweaver_mem::mtrace::parse(&bytes).expect("complete capture");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn register_file_cap_clamps_the_machine() {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let mut s = Session::new(GpuConfig::regfile_limited());
        let r = s.run(&g, &PageRank::new(2), Schedule::Svm).unwrap();
        let occ = r.occupancy;
        assert!(occ.kernel_high_water > 8, "hw {}", occ.kernel_high_water);
        assert!(
            occ.resident < occ.configured,
            "expected a binding cap: {occ:?}"
        );
        assert_eq!(occ.configured, 4);
        // The clamped machine still computes the right answer.
        assert!(r.output.approx_eq(&PageRank::new(2).reference(&g), 1e-9));
    }

    #[test]
    fn uncapped_machine_reports_full_occupancy() {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let mut s = Session::new(GpuConfig::small_test());
        let r = s.run(&g, &PageRank::new(2), Schedule::Svm).unwrap();
        assert_eq!(r.occupancy.resident, 4);
        assert_eq!(r.occupancy.configured, 4);
        assert!(r.sink_error.is_none());
    }

    #[test]
    fn trace_out_streams_events_to_jsonl() {
        let g = sparseweaver_graph::generators::uniform(30, 90, 11);
        let path = std::env::temp_dir().join("sw_session_trace_out.jsonl");
        let mut s = Session::new(GpuConfig::small_test());
        s.trace_out = Some(path.clone());
        let r = s.run(&g, &PageRank::new(1), Schedule::Svm).unwrap();
        // The report exists, but its events streamed to disk.
        let report = r.trace.expect("trace collected");
        assert!(report.events.is_empty());
        assert_eq!(report.dropped, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "expected a populated trace file");
        assert!(lines.iter().any(|l| l.contains("kernel_launch")));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn traced_run_collects_report_without_changing_stats() {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let mut s = Session::new(GpuConfig::small_test());
        let plain = s
            .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
            .unwrap();
        s.trace = Some(TraceConfig {
            sample_every: 500,
            ..TraceConfig::default()
        });
        let traced = s
            .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
            .unwrap();
        // Observability must not perturb the cycle model.
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.per_kernel, traced.per_kernel);
        let report = traced.trace.expect("trace collected");
        // One kernel span per launch, spanning the whole run.
        assert_eq!(
            report.kernels.iter().map(|k| k.cycles).sum::<u64>(),
            traced.cycles
        );
        assert_eq!(report.total_cycles, traced.cycles);
        assert!(!report.samples.is_empty());
        assert_eq!(report.totals.instructions, traced.stats.instructions);
    }

    #[test]
    fn interrupted_run_resumes_bit_identically() {
        let g = sparseweaver_graph::generators::powerlaw(48, 240, 1.8, 7);
        let algo = PageRank::new(4);
        let mut plain = Session::new(GpuConfig::small_test());
        plain.trace = Some(TraceConfig::default());
        plain.profile = true;
        let golden = plain.run(&g, &algo, Schedule::SparseWeaver).unwrap();

        let path = std::env::temp_dir().join("sw_session_resume.swckpt");
        let mut s = plain.clone();
        s.checkpoint = Some(CheckpointCtl {
            out: Some(path.clone()),
            every: 1,
            stop_after_launches: Some(3),
            ..CheckpointCtl::default()
        });
        match s.run(&g, &algo, Schedule::SparseWeaver) {
            Err(FrameworkError::Interrupted { .. }) => {}
            other => panic!("expected an interrupted run, got {other:?}"),
        }
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.launches, 3);
        // Clear the stop bound: the resumed run goes to completion (still
        // writing checkpoints on the way).
        s.checkpoint.as_mut().unwrap().stop_after_launches = None;
        let resumed = s.resume(&g, &algo, &ck).unwrap();
        assert_eq!(golden.stats, resumed.stats);
        assert_eq!(golden.per_kernel, resumed.per_kernel);
        assert_eq!(golden.cycles, resumed.cycles);
        assert!(golden.output.approx_eq(&resumed.output, 0.0));
        assert_eq!(golden.occupancy, resumed.occupancy);
        let (gt, rt) = (golden.trace.unwrap(), resumed.trace.unwrap());
        assert_eq!(gt.totals, rt.totals);
        assert_eq!(gt.samples, rt.samples);
        assert_eq!(gt.kernels, rt.kernels);
        assert_eq!(golden.profile, resumed.profile);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_fingerprint_mismatch() {
        let g = sparseweaver_graph::generators::uniform(30, 90, 11);
        let algo = PageRank::new(2);
        let path = std::env::temp_dir().join("sw_session_resume_mismatch.swckpt");
        let mut s = Session::new(GpuConfig::small_test());
        s.checkpoint = Some(CheckpointCtl {
            out: Some(path.clone()),
            every: 1,
            stop_after_launches: Some(2),
            ..CheckpointCtl::default()
        });
        match s.run(&g, &algo, Schedule::Svm) {
            Err(FrameworkError::Interrupted { .. }) => {}
            other => panic!("expected an interrupted run, got {other:?}"),
        }
        let ck = Checkpoint::load(&path).unwrap();
        // A different graph must be rejected up front.
        let other = sparseweaver_graph::generators::uniform(31, 90, 11);
        match s.resume(&other, &algo, &ck) {
            Err(FrameworkError::Checkpoint(CheckpointError::GraphMismatch { .. })) => {}
            r => panic!("expected a graph mismatch, got {r:?}"),
        }
        // So must a different machine configuration.
        let mut s2 = s.clone();
        s2.config_mut().warps_per_core *= 2;
        match s2.resume(&g, &algo, &ck) {
            Err(FrameworkError::Checkpoint(CheckpointError::ConfigMismatch { .. })) => {}
            r => panic!("expected a config mismatch, got {r:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn profiled_run_collects_report_without_changing_stats() {
        let g = sparseweaver_graph::generators::uniform(40, 160, 5);
        let mut s = Session::new(GpuConfig::small_test());
        let plain = s
            .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
            .unwrap();
        assert!(plain.profile.is_none());
        s.profile = true;
        let profiled = s
            .run(&g, &PageRank::new(2), Schedule::SparseWeaver)
            .unwrap();
        // Profiling must not perturb the cycle model either.
        assert_eq!(plain.stats, profiled.stats);
        assert_eq!(plain.per_kernel, profiled.per_kernel);
        assert_eq!(plain.cycles, profiled.cycles);
        let prof = profiled.profile.expect("profile collected");
        // Every issued instruction was counted against a warp slot.
        assert_eq!(
            prof.core_issues.iter().sum::<u64>(),
            profiled.stats.instructions
        );
        // A SparseWeaver schedule exercises the Weaver path.
        assert!(prof.weaver.count > 0, "weaver histogram populated");
        let mem_accesses: u64 = prof.mem.iter().map(|h| h.count).sum();
        assert!(mem_accesses > 0, "memory histograms populated");
    }

    /// Lists a kernel named `k` but launches a different stream under that
    /// name.
    struct RenamedKernel;

    impl RenamedKernel {
        fn kernel(extra: bool) -> sparseweaver_isa::Program {
            let mut a = sparseweaver_isa::Asm::new("k");
            if extra {
                let r = a.reg();
                a.li(r, 1);
            }
            a.halt();
            a.finish()
        }
    }

    impl Algorithm for RenamedKernel {
        fn name(&self) -> &'static str {
            "renamed"
        }

        fn direction(&self) -> Direction {
            Direction::Pull
        }

        fn run(&self, rt: &mut Runtime<'_>) -> Result<AlgoOutput, FrameworkError> {
            rt.launch(&RenamedKernel::kernel(true), &[])?;
            Ok(AlgoOutput::U64(Vec::new()))
        }

        fn reference(&self, _: &Csr) -> AlgoOutput {
            AlgoOutput::U64(Vec::new())
        }

        fn kernels(&self, _: Schedule, _: &GpuConfig) -> Vec<sparseweaver_isa::Program> {
            vec![RenamedKernel::kernel(false)]
        }
    }

    /// The cache is keyed by content, not by name: a launched stream that
    /// differs from the listed one under the same name compiles on its
    /// own instead of borrowing the listed stream's compiled kernel.
    #[test]
    fn a_stream_other_than_the_listed_one_compiles_on_its_own() {
        let g = sparseweaver_graph::generators::uniform(8, 16, 1);
        let mut s = Session::new(GpuConfig::small_test());
        let report = s.run(&g, &RenamedKernel, Schedule::Svm).unwrap();
        assert!(report.stats.instructions > 0);
        assert_eq!(
            s.kernel_cache().len(),
            2,
            "the listed and the launched stream"
        );
        s.run(&g, &RenamedKernel, Schedule::Svm).unwrap();
        assert_eq!(s.kernel_cache().len(), 2, "a second run compiles nothing");
    }

    #[test]
    fn clones_and_adopters_share_one_cache() {
        let g = sparseweaver_graph::generators::uniform(16, 40, 3);
        let mut a = Session::new(GpuConfig::small_test());
        a.run(&g, &crate::algorithms::Bfs::new(0), Schedule::SparseWeaver)
            .unwrap();
        let filled = a.kernel_cache().len();
        assert!(filled > 0);
        let mut b = Session::new(GpuConfig::small_test());
        b.set_kernel_cache(a.kernel_cache().clone());
        b.run(&g, &crate::algorithms::Bfs::new(0), Schedule::SparseWeaver)
            .unwrap();
        assert_eq!(a.kernel_cache().len(), filled, "b compiled nothing");
        // Another setting is another key: same streams, new entries.
        b.lint = LintLevel::Warn;
        b.run(&g, &crate::algorithms::Bfs::new(0), Schedule::SparseWeaver)
            .unwrap();
        assert!(a.kernel_cache().len() > filled);
    }
}
