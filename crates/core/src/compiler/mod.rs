//! The SparseWeaver compiler (Section IV-B).
//!
//! The frontend combines a *schedule template* with the algorithm's
//! user-defined snippets (filters and the gather computation) and the
//! storage-format interface (`getNeighbor` = two offset loads, `getEdge` =
//! edge/weight loads) into a complete gather kernel — the analog of the
//! paper's "Graph Kernel Generation". The backend concern, thread-mask
//! activation around the distribution loop, is folded into the Weaver
//! template (`tmc` + the hardware mask from `WEAVER_DEC_ID`).

pub mod regalloc;
mod software;
mod vertex;
pub mod virtualize;
mod weaver;

pub use regalloc::RegAlloc;
pub use vertex::build_vertex_kernel;
pub use virtualize::VirtualizedOps;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sparseweaver_isa::{Asm, CsrKind, Program, Reg, Width};
use sparseweaver_lint::{AnalyzeGeom, LintLevel};
use sparseweaver_sim::{GpuConfig, Phase};

use crate::runtime::args;
use crate::schedule::Schedule;
use crate::FrameworkError;

/// The pipeline settings a compiled kernel depends on besides its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Settings {
    level: LintLevel,
    analyze: Option<AnalyzeGeom>,
}

/// Compiled kernels, keyed by everything that decides the output: the
/// source instruction stream (its name included) and the pipeline
/// settings. A key names exactly one compiled kernel, so one cache can
/// serve every compiler, whatever its settings or machine geometry.
///
/// Clones share one map: a [`crate::Session`] hands its cache to every
/// run's compiler, and a fault campaign hands the golden run's cache to
/// every injected run and worker thread, so each kernel compiles once.
/// Only kernels that pass the pipeline are cached; a rejected kernel is
/// rejected again on every attempt.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelCache(Arc<Mutex<Kernels>>);

/// Source stream → stream to launch, per pipeline settings.
type Kernels = HashMap<Settings, HashMap<Program, Program>>;

impl KernelCache {
    /// Number of compiled kernels held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().values().map(HashMap::len).sum()
    }

    /// The source streams of every compiled kernel.
    #[cfg(test)]
    pub(crate) fn sources(&self) -> Vec<Program> {
        self.lock()
            .values()
            .flat_map(|m| m.keys().cloned())
            .collect()
    }

    /// The map. A panic while compiling (caught per run by a fault
    /// campaign) poisons the lock but never leaves a half-made entry, so
    /// the map is still sound.
    fn lock(&self) -> MutexGuard<'_, Kernels> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The compilation pipeline's verification and optimization stage.
///
/// Every kernel the runtime launches passes through this hook first —
/// the analog of a mandatory compiler pass. Under [`LintLevel::Deny`]
/// (the default) a kernel with any error-severity finding from the
/// [`sparseweaver_lint`] verifier is rejected with
/// [`FrameworkError::Lint`]; under [`LintLevel::Warn`] findings are
/// printed to stderr but the launch proceeds; [`LintLevel::Off`] skips
/// the pass entirely. Results live in a `KernelCache` keyed by the
/// source stream and these settings, so a kernel pays the pipeline once
/// per cache: once per session, and once per fault campaign. Warnings
/// print on that one compile.
///
/// [`Compiler::process`] then runs the [`regalloc`] pass over each
/// verified kernel and re-lints the rewritten stream before handing it to
/// the simulator, so a miscompile in the allocator is rejected rather
/// than silently executed. Register allocation is a fixed stage of the
/// pipeline, as in a backend toolchain; it cannot be switched off.
///
/// Every setting is fixed at construction; a different setting means a
/// new compiler, which may share the same cache.
#[derive(Debug)]
pub struct Compiler {
    settings: Settings,
    cache: KernelCache,
}

impl Default for Compiler {
    /// Lint at the default level, analyzer off.
    fn default() -> Self {
        Compiler::new(LintLevel::default(), None)
    }
}

impl Compiler {
    /// Creates a pipeline enforcing `level`, with a cache of its own.
    /// `analyze` enables the opt-in abstract-interpretation gate against
    /// that launch geometry, run alongside the structural lints: under
    /// [`LintLevel::Deny`] a kernel with a *proved* violation (SW-L501) is
    /// rejected; warnings and advisories are printed under
    /// [`LintLevel::Warn`].
    pub fn new(level: LintLevel, analyze: Option<AnalyzeGeom>) -> Self {
        Compiler::with_cache(level, analyze, KernelCache::default())
    }

    /// [`Compiler::new`], compiling into (and reusing kernels from)
    /// `cache`.
    pub(crate) fn with_cache(
        level: LintLevel,
        analyze: Option<AnalyzeGeom>,
        cache: KernelCache,
    ) -> Self {
        Compiler {
            settings: Settings { level, analyze },
            cache,
        }
    }

    /// Runs the static verifier over `program`, plus the SW-L5xx
    /// abstract-interpretation gate when enabled.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Lint`] under [`LintLevel::Deny`] when
    /// the program has error-severity findings (structural, or a proved
    /// SW-L501 bounds violation from the analyzer).
    fn check(&self, program: &Program) -> Result<(), FrameworkError> {
        let level = self.settings.level;
        if level == LintLevel::Off {
            return Ok(());
        }
        let mut report = sparseweaver_lint::lint(program);
        if let Some(geom) = self.settings.analyze {
            report
                .diagnostics
                .extend(sparseweaver_lint::analyze(program, &geom).diagnostics);
        }
        match level {
            LintLevel::Off => {}
            LintLevel::Warn => {
                if !report.diagnostics.is_empty() {
                    eprintln!("{}", report.to_text());
                }
            }
            LintLevel::Deny => {
                if !report.is_clean() {
                    return Err(FrameworkError::Lint {
                        kernel: program.name().to_string(),
                        errors: report.error_count(),
                        details: report.to_text(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the full pipeline over `program`: verification (the structural
    /// lints, plus the analyzer gate when enabled) followed by register
    /// allocation, returning the kernel the runtime should launch. A
    /// stream this cache already compiled at these settings is returned
    /// from the cache. The cache stays locked while a kernel compiles, so
    /// threads sharing it never compile one kernel twice.
    ///
    /// The rewritten stream is re-linted before being accepted: under
    /// [`LintLevel::Deny`] an allocator output with error-severity
    /// findings is rejected, and under any level a rewritten kernel whose
    /// re-lint reports errors falls back to the (already verified)
    /// original rather than executing unproven code.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Lint`] when the input fails verification,
    /// or when the rewritten stream fails the re-lint under
    /// [`LintLevel::Deny`].
    pub fn process(&self, program: &Program) -> Result<Program, FrameworkError> {
        let mut cache = self.cache.lock();
        if let Some(done) = cache.get(&self.settings).and_then(|m| m.get(program)) {
            return Ok(done.clone());
        }
        let out = self.compile(program)?;
        cache
            .entry(self.settings)
            .or_default()
            .insert(program.clone(), out.clone());
        Ok(out)
    }

    /// The pipeline behind [`Compiler::process`], uncached.
    fn compile(&self, program: &Program) -> Result<Program, FrameworkError> {
        self.check(program)?;
        let result = regalloc::allocate(program);
        if !result.applied {
            return Ok(program.clone());
        }
        let report = sparseweaver_lint::lint(&result.program);
        if report.is_clean() {
            Ok(result.program)
        } else if self.settings.level == LintLevel::Deny {
            Err(FrameworkError::Lint {
                kernel: program.name().to_string(),
                errors: report.error_count(),
                details: format!("after register allocation:\n{}", report.to_text()),
            })
        } else {
            // Warn/Off: the original stream already passed (or skipped)
            // the gate; never launch a rewrite that regressed it.
            Ok(program.clone())
        }
    }
}

/// Registers holding the common kernel arguments, loaded by the template
/// prologue.
#[derive(Debug, Clone, Copy)]
pub struct CommonRegs {
    /// Vertex count.
    pub nv: Reg,
    /// Offsets base.
    pub off: Reg,
    /// Edge-target base.
    pub edg: Reg,
    /// Weight base.
    pub wgt: Reg,
    /// Per-edge base-vertex array base.
    pub srcs: Reg,
    /// Edge count.
    pub ne: Reg,
}

/// Registers describing one edge work item inside the gather body.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRegs {
    /// The base vertex (destination in pull, source in push).
    pub base: Reg,
    /// The opposite endpoint.
    pub other: Reg,
    /// The edge index.
    pub eid: Reg,
    /// The edge weight, when the algorithm uses weights.
    pub weight: Option<Reg>,
    /// Early-exit flag the computation may set (vertex-mapped schedules
    /// break their inner loop on it; Weaver sends `WEAVER_SKIP`).
    pub satisfied: Option<Reg>,
}

/// The user-defined parts of a gather operation (the paper's UDFs).
///
/// Every emit hook receives the prologue registers it created in
/// [`GatherOps::emit_pro`] (pointer arguments hoisted out of the loops).
pub trait GatherOps {
    /// Whether `getEdge` should load the edge weight.
    fn uses_weight(&self) -> bool {
        false
    }

    /// Whether the algorithm stops gathering into a base vertex once
    /// satisfied (BFS-style early exit; drives `WEAVER_SKIP`).
    fn has_early_exit(&self) -> bool {
        false
    }

    /// Loads algorithm arguments into registers, once, before the loops.
    fn emit_pro(&self, a: &mut Asm) -> Vec<Reg> {
        let _ = a;
        Vec::new()
    }

    /// Emits the registration-time base-vertex filter: write 1 to `out`
    /// if `vid` should be processed. Returns false when there is no
    /// filter (then `out` is unused).
    fn emit_base_filter(&self, a: &mut Asm, pro: &[Reg], vid: Reg, out: Reg) -> bool {
        let _ = (a, pro, vid, out);
        false
    }

    /// Emits the other-endpoint (source in pull) filter: write 1 to `out`
    /// if the edge should be processed. Returns false when there is no
    /// filter.
    fn emit_other_filter(&self, a: &mut Asm, pro: &[Reg], other: Reg, out: Reg) -> bool {
        let _ = (a, pro, other, out);
        false
    }

    /// For early-exit algorithms: write 1 to `out` if `base` no longer
    /// needs edges (checked per edge during distribution; the Weaver
    /// template follows it with `WEAVER_SKIP`).
    fn emit_satisfied(&self, a: &mut Asm, pro: &[Reg], base: Reg, out: Reg) {
        let _ = (pro, base);
        a.li(out, 0);
    }

    /// Emits the per-edge gather-and-sum computation. `exclusive_base` is
    /// true only under vertex mapping, where the thread owns the base
    /// vertex and may update it without atomics.
    fn emit_compute(&self, a: &mut Asm, pro: &[Reg], e: &EdgeRegs, exclusive_base: bool);

    /// Optional worklist (the paper's `wset` of Fig. 9): when
    /// `Some((ptr_arg, len_arg))`, vertex-mapped templates iterate over
    /// worklist *indices* and fetch `vid = getFrontier(id)` from the
    /// `u32` array at kernel argument `ptr_arg`, whose length is kernel
    /// argument `len_arg`. Edge mapping ignores the worklist (it scans
    /// all edges and relies on [`GatherOps::emit_base_filter`] — exactly
    /// why it loses on frontier algorithms).
    fn worklist_args(&self) -> Option<(u8, u8)> {
        None
    }
}

/// Registers describing the iteration domain: either all vertices or a
/// worklist (`wset`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Domain {
    /// Number of work items (vertex count or worklist length).
    pub bound: Reg,
    /// Worklist base pointer, when iterating a worklist.
    pub wset: Option<Reg>,
}

impl Domain {
    /// Loads the iteration domain for `ops` (worklist or whole graph).
    pub(crate) fn emit(a: &mut Asm, c: &CommonRegs, ops: &dyn GatherOps) -> Domain {
        match ops.worklist_args() {
            Some((ptr_arg, len_arg)) => {
                let wset = a.reg();
                let bound = a.reg();
                a.ldarg(wset, ptr_arg);
                a.ldarg(bound, len_arg);
                Domain {
                    bound,
                    wset: Some(wset),
                }
            }
            None => Domain {
                bound: c.nv,
                wset: None,
            },
        }
    }

    /// Emits `vid <- getFrontier(id)` into a fresh register: a worklist
    /// load, or the identity when iterating all vertices.
    pub(crate) fn emit_get_frontier(&self, a: &mut Asm, id: Reg) -> Reg {
        let vid = a.reg();
        match self.wset {
            Some(wset) => {
                let addr = a.reg();
                a.slli(addr, id, 2);
                a.add(addr, addr, wset);
                a.ldg(vid, addr, 0, Width::B4);
                a.free(addr);
            }
            None => a.mv(vid, id),
        }
        vid
    }
}

/// Where `getEdge` reads the opposite endpoint and weight from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EdgeSource {
    /// Ordinary global loads from the CSR arrays (all GPU-side schemes).
    Global,
    /// The EGHW shared-memory staging buffer: `(staging base, core tid)`.
    Staging(Reg, Reg),
}

/// Emits the prologue shared by every template: loads the common argument
/// registers.
pub(crate) fn emit_prologue(a: &mut Asm) -> CommonRegs {
    a.phase(Phase::Init as u8);
    let c = CommonRegs {
        nv: a.reg(),
        off: a.reg(),
        edg: a.reg(),
        wgt: a.reg(),
        srcs: a.reg(),
        ne: a.reg(),
    };
    a.ldarg(c.nv, args::NUM_VERTICES);
    a.ldarg(c.off, args::OFFSETS);
    a.ldarg(c.edg, args::EDGES);
    a.ldarg(c.wgt, args::WEIGHTS);
    a.ldarg(c.srcs, args::SRCS);
    a.ldarg(c.ne, args::NUM_EDGES);
    c
}

/// Emits `getNeighbor`: loads `off[v]` and `off[v+1]` into fresh
/// `(start, end)` registers (the storage-format interface).
pub(crate) fn emit_get_neighbor(a: &mut Asm, c: &CommonRegs, v: Reg) -> (Reg, Reg) {
    let addr = a.reg();
    let start = a.reg();
    let end = a.reg();
    a.slli(addr, v, 2);
    a.add(addr, addr, c.off);
    a.ldg(start, addr, 0, Width::B4);
    a.ldg(end, addr, 4, Width::B4);
    a.free(addr);
    (start, end)
}

/// Emits `getEdge` + other-filter + compute for one edge work item:
/// the shared tail of every schedule template.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_edge_body(
    a: &mut Asm,
    ops: &dyn GatherOps,
    c: &CommonRegs,
    pro: &[Reg],
    base: Reg,
    eid: Reg,
    exclusive_base: bool,
    satisfied: Option<Reg>,
    source: EdgeSource,
) {
    a.phase(Phase::EdgeInfoAccess as u8);
    let other = a.reg();
    let weight = if ops.uses_weight() {
        Some(a.reg())
    } else {
        None
    };
    match source {
        EdgeSource::Global => {
            let addr = a.reg();
            a.slli(addr, eid, 2);
            a.add(addr, addr, c.edg);
            a.ldg(other, addr, 0, Width::B4);
            if let Some(w) = weight {
                a.slli(addr, eid, 2);
                a.add(addr, addr, c.wgt);
                a.ldg(w, addr, 0, Width::B4);
            }
            a.free(addr);
        }
        EdgeSource::Staging(staging, ctid) => {
            let addr = a.reg();
            a.slli(addr, ctid, 3);
            a.add(addr, addr, staging);
            a.lds(other, addr, 0, Width::B4);
            if let Some(w) = weight {
                a.lds(w, addr, 4, Width::B4);
            }
            a.free(addr);
        }
    }
    let e = EdgeRegs {
        base,
        other,
        eid,
        weight,
        satisfied,
    };
    let of = a.reg();
    let filtered = ops.emit_other_filter(a, pro, other, of);
    if filtered {
        a.if_nonzero(of, |a| {
            a.phase(Phase::GatherSum as u8);
            ops.emit_compute(a, pro, &e, exclusive_base);
            a.phase(Phase::EdgeInfoAccess as u8);
        });
    } else {
        a.phase(Phase::GatherSum as u8);
        ops.emit_compute(a, pro, &e, exclusive_base);
    }
    a.free(of);
    a.free(other);
    if let Some(w) = weight {
        a.free(w);
    }
}

/// Compiles the gather kernel for `(ops, schedule)` on `cfg`.
///
/// This is the frontend compiler's entry point: the returned [`Program`]
/// is the complete kernel of Fig. 9 (for [`Schedule::SparseWeaver`]) or
/// the corresponding software-scheme kernel.
pub fn build_gather_kernel(
    name: &str,
    ops: &dyn GatherOps,
    schedule: Schedule,
    cfg: &GpuConfig,
) -> Program {
    match schedule {
        Schedule::Svm => software::build_svm(name, ops),
        Schedule::Sem => software::build_sem(name, ops),
        Schedule::Swm => software::build_swm(name, ops, cfg),
        Schedule::Scm => software::build_scm(name, ops, cfg),
        Schedule::Stwc => software::build_stwc(name, ops, cfg),
        Schedule::SparseWeaver => weaver::build_weaver(name, ops, cfg),
        Schedule::Eghw => weaver::build_eghw(name, ops, cfg),
    }
}

/// Emits a global thread-ID register and the total thread count.
pub(crate) fn emit_tid_nt(a: &mut Asm) -> (Reg, Reg) {
    let tid = a.reg();
    let nt = a.reg();
    a.csr(tid, CsrKind::GlobalTid);
    a.csr(nt, CsrKind::NumThreads);
    (tid, nt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseweaver_isa::AtomOp;

    /// A minimal gather: count[base] += 1 per edge (weighted variant adds
    /// the weight) — enough to exercise every template end to end.
    pub(crate) struct CountOps {
        pub weighted: bool,
    }

    impl GatherOps for CountOps {
        fn uses_weight(&self) -> bool {
            self.weighted
        }

        fn emit_pro(&self, a: &mut Asm) -> Vec<Reg> {
            let count = a.reg();
            a.ldarg(count, args::ALGO0);
            vec![count]
        }

        fn emit_compute(&self, a: &mut Asm, pro: &[Reg], e: &EdgeRegs, _exclusive: bool) {
            let addr = a.reg();
            let val = a.reg();
            a.slli(addr, e.base, 3);
            a.add(addr, addr, pro[0]);
            match e.weight {
                Some(w) => a.mv(val, w),
                None => a.li(val, 1),
            }
            let old = a.reg();
            a.atom(AtomOp::Add, old, addr, val);
            a.free(old);
            a.free(addr);
            a.free(val);
        }
    }

    #[test]
    fn all_templates_compile() {
        let cfg = GpuConfig::small_test();
        for s in Schedule::ALL {
            let p = build_gather_kernel("count", &CountOps { weighted: false }, s, &cfg);
            assert!(!p.is_empty(), "{s} produced an empty kernel");
        }
    }

    #[test]
    fn all_templates_lint_clean() {
        let mut no_mask = GpuConfig::small_test();
        no_mask.weaver.auto_mask = false;
        for cfg in [GpuConfig::small_test(), no_mask] {
            for s in Schedule::ALL {
                for weighted in [false, true] {
                    let p = build_gather_kernel("count", &CountOps { weighted }, s, &cfg);
                    let report = sparseweaver_lint::lint(&p);
                    assert!(
                        report.is_clean() && report.warning_count() == 0,
                        "{s} (weighted={weighted}, auto_mask={}):\n{}",
                        cfg.weaver.auto_mask,
                        report.to_text()
                    );
                }
            }
        }
    }

    #[test]
    fn weaver_kernel_contains_weaver_instructions() {
        let cfg = GpuConfig::small_test();
        let p = build_gather_kernel(
            "count",
            &CountOps { weighted: false },
            Schedule::SparseWeaver,
            &cfg,
        );
        assert!(p.weaver_instr_count() >= 3, "reg + dec_id + dec_loc");
    }

    #[test]
    fn software_kernels_have_no_weaver_instructions() {
        let cfg = GpuConfig::small_test();
        for s in [Schedule::Svm, Schedule::Sem, Schedule::Swm, Schedule::Scm] {
            let p = build_gather_kernel("count", &CountOps { weighted: false }, s, &cfg);
            assert_eq!(p.weaver_instr_count(), 0, "{s}");
        }
    }

    #[test]
    fn every_template_counts_degrees() {
        use crate::runtime::Runtime;
        use sparseweaver_graph::Direction;
        use sparseweaver_sim::Gpu;

        // count[base] += 1 per edge => count[v] must equal degree(v) in
        // the view, under every schedule.
        let g = sparseweaver_graph::generators::powerlaw(40, 200, 1.8, 3);
        for s in Schedule::ALL {
            let mut cfg = GpuConfig::small_test();
            if s == Schedule::Eghw {
                cfg.weaver_mode = crate::session::Session::new(cfg)
                    .config_for(Schedule::Eghw)
                    .weaver_mode;
            }
            let gpu = Gpu::new(cfg);
            let mut rt = Runtime::new(gpu, &g, Direction::Push, s).unwrap();
            let count = rt.alloc_u64(g.num_vertices(), 0);
            let k = build_gather_kernel("count", &CountOps { weighted: false }, s, &cfg);
            rt.launch(&k, &[count]).unwrap();
            let got = rt.read_u64_vec(count, g.num_vertices());
            for (v, &c) in got.iter().enumerate() {
                assert_eq!(c, g.degree(v as u32) as u64, "{s}: count[{v}]");
            }
        }
    }

    #[test]
    fn weighted_kernels_load_weights() {
        let cfg = GpuConfig::small_test();
        let unweighted =
            build_gather_kernel("c", &CountOps { weighted: false }, Schedule::Svm, &cfg);
        let weighted = build_gather_kernel("c", &CountOps { weighted: true }, Schedule::Svm, &cfg);
        assert!(weighted.len() > unweighted.len());
    }
}
