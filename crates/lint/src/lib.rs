//! Static verifier for SparseWeaver kernel IR programs.
//!
//! The paper's kernels rely on Vortex-style *explicit* divergence control
//! (`split`/`join`, `tmc`) and a stateful Weaver instruction protocol
//! (`WEAVER_REG` must configure the unit before `WEAVER_DEC_ID` /
//! `WEAVER_DEC_LOC` / `WEAVER_SKIP` decode edges, Table II). Unbalanced
//! split/join stacks and barriers under divergent masks hang real hardware;
//! this crate catches them statically, before a kernel ever reaches the
//! simulator.
//!
//! The verifier runs three layers over a [`Program`]:
//!
//! 1. **CFG construction**: an abstract interpretation of the
//!    instruction stream that enumerates `(pc, divergence-stack)` states,
//!    yielding basic blocks plus the structural divergence checks
//!    (SW-L2xx/SW-L301).
//! 2. **Dataflow**: block-level bitset analyses —
//!    use-before-def, dead writes, unreachable code, `tmc 0` reachability.
//! 3. **Weaver protocol**: a three-state
//!    Unregistered/Registered/Synced machine checking that every decode is
//!    preceded by a `WEAVER_REG` and a synchronizing barrier on the paths
//!    that reach it.
//!
//! Every diagnostic carries a stable rule ID (`SW-L101`-style); the full
//! catalog lives in `docs/lint-rules.md`.
//!
//! # Examples
//!
//! ```
//! use sparseweaver_isa::{Asm, Instr};
//!
//! let mut a = Asm::new("bad");
//! a.emit(Instr::Join); // join with no enclosing split
//! a.halt();
//! let report = sparseweaver_lint::lint(&a.finish());
//! assert!(!report.is_clean());
//! assert_eq!(report.diagnostics[0].rule.id(), "SW-L201");
//! ```

#![warn(missing_docs)]

mod absint;
mod cfg;
mod dataflow;
mod domain;
pub mod facts;
pub mod fixtures;
mod memcheck;
mod uniform;
mod weaver;

pub use domain::AnalyzeGeom;
pub use facts::DataflowFacts;

use std::fmt;

use sparseweaver_isa::Program;
use sparseweaver_trace::json::{self, Obj, Schema};

/// The schema of the `swlint --analyze --json` stream, whose first line is
/// its envelope and every further line one [`LintReport::to_json`].
pub const ANALYZE_SCHEMA: Schema = Schema::new("sparseweaver-analyze", 2);

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational performance/structure advice from the
    /// analyzer (coalescing, bank conflicts, uniform branches). Never
    /// makes a program unclean.
    Advice,
    /// Suspicious but not known to break execution (dead writes,
    /// unreachable code, possibly-undefined reads).
    Warning,
    /// Would hang or corrupt execution on real hardware (and usually traps
    /// in the simulator).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Advice => write!(f, "advice"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A lint rule. Stable IDs are documented in `docs/lint-rules.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// SW-L101: a register is read before any definition reaches it.
    UseBeforeDef,
    /// SW-L102: a register may be undefined on some path to a read.
    MaybeUndefined,
    /// SW-L103: a pure computation's result is never read.
    DeadWrite,
    /// SW-L104: instructions no execution path can reach.
    UnreachableCode,
    /// SW-L201: `join` executes with an empty divergence stack.
    JoinWithoutSplit,
    /// SW-L202: a pc is reachable with two different divergence stacks.
    DivergenceStackMismatch,
    /// SW-L203: the warp halts (or falls off the end) inside a split region.
    HaltUnderDivergence,
    /// SW-L301: a core-wide barrier executes under a divergent mask.
    BarrierUnderDivergence,
    /// SW-L302: `tmc` provably sets an all-lanes-off mask.
    TmcAllLanesOff,
    /// SW-L401: a Weaver decode with no `WEAVER_REG` on any path from entry.
    WeaverDecodeUnregistered,
    /// SW-L402: a Weaver decode may run before registration is
    /// barrier-synchronized.
    WeaverDecodeUnsynced,
    /// SW-L501: a memory access is *proved* out of bounds against the
    /// launch geometry.
    OobProved,
    /// SW-L502: a store/atomic *may* be out of bounds (not provably safe).
    OobPossible,
    /// SW-L511: two shared-memory accesses (at least one a store) may
    /// race across warps within one barrier interval.
    SharedRace,
    /// SW-L521: a global access is provably coalesced (dense lane
    /// stride or uniform broadcast).
    Coalesced,
    /// SW-L522: a global access predicts line-fill replay, or a shared
    /// access predicts bank-conflict serialization.
    MemReplay,
    /// SW-L531: a split predicate is warp-uniform — a candidate for a
    /// uniform branch / S_dae address-generation slice.
    UniformSplit,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: [Rule; 17] = [
        Rule::UseBeforeDef,
        Rule::MaybeUndefined,
        Rule::DeadWrite,
        Rule::UnreachableCode,
        Rule::JoinWithoutSplit,
        Rule::DivergenceStackMismatch,
        Rule::HaltUnderDivergence,
        Rule::BarrierUnderDivergence,
        Rule::TmcAllLanesOff,
        Rule::WeaverDecodeUnregistered,
        Rule::WeaverDecodeUnsynced,
        Rule::OobProved,
        Rule::OobPossible,
        Rule::SharedRace,
        Rule::Coalesced,
        Rule::MemReplay,
        Rule::UniformSplit,
    ];

    /// The stable rule ID, e.g. `"SW-L101"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "SW-L101",
            Rule::MaybeUndefined => "SW-L102",
            Rule::DeadWrite => "SW-L103",
            Rule::UnreachableCode => "SW-L104",
            Rule::JoinWithoutSplit => "SW-L201",
            Rule::DivergenceStackMismatch => "SW-L202",
            Rule::HaltUnderDivergence => "SW-L203",
            Rule::BarrierUnderDivergence => "SW-L301",
            Rule::TmcAllLanesOff => "SW-L302",
            Rule::WeaverDecodeUnregistered => "SW-L401",
            Rule::WeaverDecodeUnsynced => "SW-L402",
            Rule::OobProved => "SW-L501",
            Rule::OobPossible => "SW-L502",
            Rule::SharedRace => "SW-L511",
            Rule::Coalesced => "SW-L521",
            Rule::MemReplay => "SW-L522",
            Rule::UniformSplit => "SW-L531",
        }
    }

    /// The rule's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::MaybeUndefined
            | Rule::DeadWrite
            | Rule::UnreachableCode
            | Rule::OobPossible
            | Rule::SharedRace => Severity::Warning,
            Rule::Coalesced | Rule::MemReplay | Rule::UniformSplit => Severity::Advice,
            _ => Severity::Error,
        }
    }

    /// One-line description used in the rule catalog.
    pub fn title(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "register read before any definition",
            Rule::MaybeUndefined => "register may be undefined on some path",
            Rule::DeadWrite => "pure computation result is never read",
            Rule::UnreachableCode => "unreachable instructions",
            Rule::JoinWithoutSplit => "join with no matching split",
            Rule::DivergenceStackMismatch => "divergence stack differs between paths",
            Rule::HaltUnderDivergence => "halt inside an open split region",
            Rule::BarrierUnderDivergence => "barrier under a divergent mask",
            Rule::TmcAllLanesOff => "tmc sets an all-lanes-off mask",
            Rule::WeaverDecodeUnregistered => "weaver decode with no WEAVER_REG on any path",
            Rule::WeaverDecodeUnsynced => "weaver decode before registration is barrier-synced",
            Rule::OobProved => "memory access proved out of bounds",
            Rule::OobPossible => "store/atomic may be out of bounds",
            Rule::SharedRace => "shared-memory accesses may race across warps",
            Rule::Coalesced => "global access is provably coalesced",
            Rule::MemReplay => "predicted line-fill replay or bank-conflict serialization",
            Rule::UniformSplit => "split predicate is warp-uniform",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// A single finding at one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Instruction index the finding anchors to.
    pub pc: u32,
    /// Human-readable explanation, usually quoting the offending
    /// instruction's disassembly.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: Rule, pc: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            pc,
            message: message.into(),
        }
    }

    /// The severity inherited from the rule.
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pc {:>4}: {}[{}]: {}",
            self.pc,
            self.severity(),
            self.rule.id(),
            self.message
        )
    }
}

/// How the compiler pipeline reacts to lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LintLevel {
    /// Skip linting entirely.
    Off,
    /// Lint and report, but never reject a kernel.
    Warn,
    /// Reject kernels with any error-severity finding (the default).
    #[default]
    Deny,
}

impl std::str::FromStr for LintLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(LintLevel::Off),
            "warn" => Ok(LintLevel::Warn),
            "deny" => Ok(LintLevel::Deny),
            other => Err(format!("unknown lint level `{other}` (off|warn|deny)")),
        }
    }
}

/// The result of linting one program.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Name of the linted kernel.
    pub program: String,
    /// Originating kernel name, when the caller knows it (campaign
    /// context). Attached to every finding in text and JSON output.
    pub kernel: Option<String>,
    /// Originating schedule (paper name, e.g. `S_vm`), when known.
    pub schedule: Option<String>,
    /// All findings, ordered by pc then rule.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Attaches kernel/schedule provenance; echoed on every finding.
    pub fn with_context(mut self, kernel: &str, schedule: &str) -> Self {
        self.kernel = Some(kernel.to_string());
        self.schedule = Some(schedule.to_string());
        self
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Number of advice-severity findings.
    pub fn advice_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Advice)
            .count()
    }

    /// Whether the program has no error-severity findings. Warnings and
    /// advice do not make a program unclean.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `kernel @ schedule` provenance prefix for one finding line.
    fn context_tag(&self) -> Option<String> {
        match (&self.kernel, &self.schedule) {
            (Some(k), Some(s)) => Some(format!("{k} @ {s}")),
            (Some(k), None) => Some(k.clone()),
            (None, Some(s)) => Some(s.clone()),
            (None, None) => None,
        }
    }

    /// Multi-line human-readable listing (one line per finding).
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "kernel `{}`: {} error(s), {} warning(s)",
            self.program,
            self.error_count(),
            self.warning_count()
        );
        if self.advice_count() > 0 {
            let _ = write!(out, ", {} advisories", self.advice_count());
        }
        out.push('\n');
        let tag = self.context_tag();
        for d in &self.diagnostics {
            match &tag {
                Some(t) => {
                    let _ = writeln!(out, "  [{t}] {d}");
                }
                None => {
                    let _ = writeln!(out, "  {d}");
                }
            }
        }
        out
    }

    /// One JSON object with the program name, counts, and every finding.
    /// Kernel/schedule provenance, when set, appears both at the top
    /// level and on every finding.
    pub fn to_json(&self) -> String {
        let context = |o: &mut Obj<'_>| {
            if let Some(k) = &self.kernel {
                o.field("kernel", k);
            }
            if let Some(s) = &self.schedule {
                o.field("schedule", s);
            }
        };
        json::object(|o| {
            o.field("program", &self.program);
            context(o);
            o.field("errors", self.error_count())
                .field("warnings", self.warning_count())
                .field("advice", self.advice_count())
                .arr("diagnostics", |a| {
                    for d in &self.diagnostics {
                        a.obj(|o| {
                            o.field("rule", d.rule.id())
                                .field("severity", d.severity().to_string())
                                .field("pc", d.pc);
                            context(o);
                            o.field("message", &d.message);
                        });
                    }
                });
        })
    }
}

/// Lints `program`, running every analysis layer.
pub fn lint(program: &Program) -> LintReport {
    let cfg = cfg::Cfg::build(program);
    let mut diagnostics = cfg.diagnostics.clone();
    diagnostics.extend(dataflow::check(program, &cfg));
    diagnostics.extend(weaver::check(program, &cfg));
    diagnostics.sort_by_key(|d| (d.pc, d.rule));
    LintReport {
        program: program.name().to_string(),
        kernel: None,
        schedule: None,
        diagnostics,
    }
}

/// A flattened abstract value for external consumers (`--facts`,
/// property tests). All claims are congruences mod 2^64 over the
/// register bit pattern `v` viewed as `i64`:
///
/// * `v ≡ warp_coeff·warp_id + Σ coeff·arg + r (mod 2^64)` for some `r`
///   in `[lo, hi]` with `r ≡ lo (mod stride)` (when `stride > 0`);
/// * `lane_stride = Some(c)`: within one warp, `v(lane) − c·lane` is
///   the same for every lane (`Some(0)` = warp-uniform);
/// * `arg_derived`: the value carries a kernel-argument base (pointer
///   or size) and is exempt from bounds checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractValue {
    /// Interval lower bound of the residual `r`.
    pub lo: i64,
    /// Interval upper bound of the residual `r`.
    pub hi: i64,
    /// Congruence stride of the residual (0 = constant).
    pub stride: u64,
    /// Coefficient of the warp-id-within-core term.
    pub warp_coeff: i64,
    /// Per-lane stride within a warp, `None` = divergent.
    pub lane_stride: Option<i64>,
    /// `(argument index, coefficient)` symbolic terms.
    pub args: Vec<(u8, i64)>,
    /// Whether a kernel-argument base taints the value.
    pub arg_derived: bool,
}

impl AbstractValue {
    fn flatten(v: &domain::AbsVal) -> Self {
        AbstractValue {
            lo: v.rest.lo,
            hi: v.rest.hi,
            stride: v.rest.stride,
            warp_coeff: v.cw,
            lane_stride: v.cl,
            args: v.syms.clone(),
            arg_derived: v.arg,
        }
    }

    fn render(&self) -> String {
        let mut s = String::new();
        for (idx, c) in &self.args {
            s.push_str(&format!("{c}·arg{idx} + "));
        }
        if self.warp_coeff != 0 {
            s.push_str(&format!("{}·warp + ", self.warp_coeff));
        }
        if self.stride == 0 {
            s.push_str(&format!("{}", self.lo));
        } else {
            s.push_str(&format!("[{}, {}]/{}", self.lo, self.hi, self.stride));
        }
        match self.lane_stride {
            Some(0) => s.push_str("  (uniform)"),
            Some(c) => s.push_str(&format!("  (lane·{c})")),
            None => s.push_str("  (divergent)"),
        }
        if self.arg_derived {
            s.push_str("  (arg)");
        }
        s
    }
}

/// One register write and the abstract value it produces.
#[derive(Debug, Clone)]
pub struct ValueFact {
    /// Instruction index of the write.
    pub pc: u32,
    /// Destination register.
    pub reg: u8,
    /// The abstract value written.
    pub value: AbstractValue,
}

/// One memory access with its abstract byte address.
#[derive(Debug, Clone)]
pub struct AccessSummary {
    /// Instruction index of the access.
    pub pc: u32,
    /// `"load"`, `"store"`, or `"atomic"`.
    pub kind: &'static str,
    /// `"global"` or `"shared"`.
    pub space: &'static str,
    /// Access width in bytes.
    pub width: u64,
    /// Barrier-region id (accesses in the same region may overlap in
    /// time across warps).
    pub region: usize,
    /// Abstract first-byte address, constant offset folded in.
    pub addr: AbstractValue,
}

/// The raw facts behind an analyzer run, for `--facts` and tests.
#[derive(Debug, Clone, Default)]
pub struct AnalysisFacts {
    /// Per-write register facts, ordered by `(pc, reg)`.
    pub values: Vec<ValueFact>,
    /// Per-access address facts, ordered by pc.
    pub accesses: Vec<AccessSummary>,
    /// False only if the fixpoint safety cap fired (facts degrade to
    /// top but stay sound).
    pub converged: bool,
}

impl AnalysisFacts {
    /// Human-readable dump, one line per fact.
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "facts: {} register write(s), {} access(es), converged: {}",
            self.values.len(),
            self.accesses.len(),
            self.converged
        );
        for v in &self.values {
            let _ = writeln!(out, "  pc {:>4}: x{} = {}", v.pc, v.reg, v.value.render());
        }
        for a in &self.accesses {
            let _ = writeln!(
                out,
                "  pc {:>4}: {} {} {}B region {} @ {}",
                a.pc,
                a.space,
                a.kind,
                a.width,
                a.region,
                a.addr.render()
            );
        }
        out
    }
}

/// Runs the abstract-interpretation analyzer over `program` against a
/// concrete launch geometry, producing the SW-L5xx findings.
pub fn analyze(program: &Program, geom: &AnalyzeGeom) -> LintReport {
    analyze_with_facts(program, geom).0
}

/// [`analyze`], also returning the raw fixpoint facts.
pub fn analyze_with_facts(program: &Program, geom: &AnalyzeGeom) -> (LintReport, AnalysisFacts) {
    let cfg = cfg::Cfg::build(program);
    let analysis = absint::analyze_program(program, &cfg, geom);
    let mut diagnostics = memcheck::check(&analysis, geom);
    diagnostics.extend(uniform::check(&analysis, geom));
    diagnostics.sort_by_key(|d| (d.pc, d.rule));
    let report = LintReport {
        program: program.name().to_string(),
        kernel: None,
        schedule: None,
        diagnostics,
    };
    let facts = AnalysisFacts {
        values: analysis
            .regs
            .iter()
            .map(|r| ValueFact {
                pc: r.pc,
                reg: r.reg,
                value: AbstractValue::flatten(&r.val),
            })
            .collect(),
        accesses: analysis
            .accesses
            .iter()
            .map(|a| AccessSummary {
                pc: a.pc,
                kind: match a.kind {
                    absint::AccessKind::Read => "load",
                    absint::AccessKind::Write => "store",
                    absint::AccessKind::Atomic => "atomic",
                },
                space: match a.space {
                    sparseweaver_isa::Space::Global => "global",
                    sparseweaver_isa::Space::Shared => "shared",
                },
                width: a.width,
                region: a.region,
                addr: AbstractValue::flatten(&a.addr),
            })
            .collect(),
        converged: analysis.converged,
    };
    (report, facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseweaver_isa::{Asm, CsrKind, Instr, Reg};

    fn rules(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn empty_and_trivial_programs_are_clean() {
        let mut a = Asm::new("trivial");
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn structured_divergence_is_clean() {
        let mut a = Asm::new("structured");
        let lane = a.reg();
        let c = a.reg();
        a.csr(lane, CsrKind::LaneId);
        a.sltui(c, lane, 2);
        a.if_nonzero(c, |a| {
            let t = a.reg();
            a.addi(t, a.zero(), 1);
            a.if_else(t, |a| a.nop(), |a| a.nop());
            a.free(t);
        });
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
        assert_eq!(r.warning_count(), 0, "{}", r.to_text());
    }

    #[test]
    fn loop_with_uniform_branch_is_clean() {
        let mut a = Asm::new("loop");
        let i = a.reg();
        let n = a.reg();
        a.li(i, 0);
        a.li(n, 8);
        let top = a.new_label();
        a.bind(top);
        a.addi(i, i, 1);
        a.bltu(i, n, top);
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
        assert_eq!(r.warning_count(), 0, "{}", r.to_text());
    }

    #[test]
    fn use_before_def_fires_l101() {
        let mut a = Asm::new("ubd");
        let x = a.reg();
        let y = a.reg();
        let z = a.reg();
        a.add(z, x, y);
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L101"), "{}", r.to_text());
        assert!(!r.is_clean());
    }

    #[test]
    fn maybe_undefined_fires_l102() {
        // `v` is defined only on the taken side of a uniform branch.
        let mut a = Asm::new("maybe");
        let c = a.reg();
        let v = a.reg();
        let out = a.reg();
        a.li(c, 1);
        let skip = a.new_label();
        a.beq(c, a.zero(), skip);
        a.li(v, 7);
        a.bind(skip);
        a.mv(out, v);
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L102"), "{}", r.to_text());
        // A may-undefined read is a warning, not an error.
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn dead_write_fires_l103_for_pure_ops_only() {
        let mut a = Asm::new("dead");
        let x = a.reg();
        let y = a.reg();
        a.li(x, 5);
        a.addi(y, x, 1); // y never read: dead
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L103"), "{}", r.to_text());

        // Discarded atomic results are idiomatic and exempt.
        let mut a = Asm::new("atom_discard");
        let addr = a.reg();
        let v = a.reg();
        let old = a.reg();
        a.li(addr, 64);
        a.li(v, 1);
        a.atom(sparseweaver_isa::AtomOp::Add, old, addr, v);
        a.halt();
        let r = lint(&a.finish());
        assert!(!rules(&r).contains(&"SW-L103"), "{}", r.to_text());
    }

    #[test]
    fn unreachable_code_fires_l104() {
        let mut a = Asm::new("unreachable");
        let end = a.new_label();
        a.jmp(end);
        a.nop();
        a.nop();
        a.bind(end);
        a.halt();
        let r = lint(&a.finish());
        let l104: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::UnreachableCode)
            .collect();
        assert_eq!(l104.len(), 1, "{}", r.to_text());
        assert_eq!(l104[0].pc, 1);
    }

    #[test]
    fn join_without_split_fires_l201() {
        let mut a = Asm::new("lone_join");
        a.emit(Instr::Join);
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L201"), "{}", r.to_text());
    }

    #[test]
    fn divergence_stack_mismatch_fires_l202() {
        // A split whose then-side branches back to the split itself: the
        // split pc is reachable at depth 0 and depth 1.
        let top = Instr::Split {
            rs1: Reg(1),
            else_target: 3,
            end_target: 4,
        };
        let p = sparseweaver_isa::Program::new(
            "respin",
            vec![
                Instr::LdImm { rd: Reg(1), imm: 1 },
                top,
                Instr::Jmp { target: 1 },
                Instr::Join,
                Instr::Halt,
            ],
        );
        let r = lint(&p);
        assert!(rules(&r).contains(&"SW-L202"), "{}", r.to_text());
    }

    #[test]
    fn halt_under_divergence_fires_l203() {
        let p = sparseweaver_isa::Program::new(
            "halt_in_split",
            vec![
                Instr::LdImm { rd: Reg(1), imm: 1 },
                Instr::Split {
                    rs1: Reg(1),
                    else_target: 3,
                    end_target: 4,
                },
                Instr::Halt, // halts with the split frame still open
                Instr::Join,
                Instr::Halt,
            ],
        );
        let r = lint(&p);
        assert!(rules(&r).contains(&"SW-L203"), "{}", r.to_text());
    }

    #[test]
    fn barrier_under_divergence_fires_l301() {
        let mut a = Asm::new("divergent_bar");
        let lane = a.reg();
        let c = a.reg();
        a.csr(lane, CsrKind::LaneId);
        a.sltui(c, lane, 1);
        a.if_nonzero(c, |a| a.bar());
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L301"), "{}", r.to_text());
    }

    #[test]
    fn uniform_barrier_is_clean() {
        let mut a = Asm::new("uniform_bar");
        a.bar();
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn tmc_zero_fires_l302() {
        // tmc x0 is always all-lanes-off.
        let mut a = Asm::new("tmc_x0");
        a.tmc(a.zero());
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L302"), "{}", r.to_text());

        // A mask that is `li 0` on every reaching definition.
        let mut a = Asm::new("tmc_const0");
        let m = a.reg();
        a.li(m, 0);
        a.tmc(m);
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L302"), "{}", r.to_text());

        // A computed mask is fine.
        let mut a = Asm::new("tmc_computed");
        let m = a.reg();
        let one = a.reg();
        a.li(one, 1);
        a.slli(m, one, 4);
        a.addi(m, m, -1);
        a.tmc(m);
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn weaver_decode_without_reg_fires_l401() {
        let mut a = Asm::new("dec_no_reg");
        let v = a.reg();
        a.weaver_dec_id(v);
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L401"), "{}", r.to_text());
    }

    #[test]
    fn weaver_decode_without_bar_fires_l402() {
        let mut a = Asm::new("dec_no_bar");
        let (vid, loc, deg, v) = (a.reg(), a.reg(), a.reg(), a.reg());
        a.li(vid, 0);
        a.li(loc, 0);
        a.li(deg, 4);
        a.weaver_reg(vid, loc, deg);
        a.weaver_dec_id(v); // no bar between reg and decode
        a.halt();
        let r = lint(&a.finish());
        assert!(rules(&r).contains(&"SW-L402"), "{}", r.to_text());
    }

    #[test]
    fn weaver_template_shape_is_clean() {
        // The paper's Fig. 9 shape: conditional registration, a barrier,
        // then a distribution loop. Must lint clean.
        let mut a = Asm::new("weaver_shape");
        let (vid, loc, deg, valid) = (a.reg(), a.reg(), a.reg(), a.reg());
        let (wv, has, any) = (a.reg(), a.reg(), a.reg());
        a.li(vid, 3);
        a.li(loc, 0);
        a.li(deg, 4);
        a.li(valid, 1);
        a.if_nonzero(valid, |a| a.weaver_reg(vid, loc, deg));
        a.bar();
        let dtop = a.new_label();
        let ddone = a.new_label();
        a.bind(dtop);
        a.weaver_dec_id(wv);
        a.snei(has, wv, -1);
        a.vote(sparseweaver_isa::VoteOp::Any, any, has);
        a.beq(any, a.zero(), ddone);
        a.if_nonzero(has, |a| {
            let we = a.reg();
            a.weaver_dec_loc(we);
            a.weaver_skip(wv);
            a.free(we);
        });
        a.jmp(dtop);
        a.bind(ddone);
        a.bar();
        a.halt();
        let r = lint(&a.finish());
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn report_text_and_json_round_trip_basics() {
        let mut a = Asm::new("bad \"name\"");
        a.emit(Instr::Join);
        a.halt();
        let r = lint(&a.finish());
        let text = r.to_text();
        assert!(text.contains("SW-L201"), "{text}");
        assert!(text.contains("error"), "{text}");
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"rule\":\"SW-L201\""), "{json}");
        assert!(json.contains("\\\"name\\\""), "{json}");
    }

    #[test]
    fn lint_level_parses() {
        assert_eq!("off".parse::<LintLevel>().unwrap(), LintLevel::Off);
        assert_eq!("warn".parse::<LintLevel>().unwrap(), LintLevel::Warn);
        assert_eq!("deny".parse::<LintLevel>().unwrap(), LintLevel::Deny);
        assert!("loud".parse::<LintLevel>().is_err());
        assert_eq!(LintLevel::default(), LintLevel::Deny);
    }

    #[test]
    fn rule_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Rule::ALL {
            assert!(r.id().starts_with("SW-L"), "{}", r.id());
            assert!(seen.insert(r.id()), "duplicate id {}", r.id());
            assert!(!r.title().is_empty());
        }
    }
}
