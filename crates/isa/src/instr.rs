//! IR instruction definitions.
//!
//! The IR is deliberately close to the Vortex RISC-V GPGPU ISA: scalar
//! per-lane registers, uniform branches, and *explicit* divergence control
//! via `split`/`join` (Vortex's IPDOM mechanism) plus `tmc` thread-mask
//! writes — the very instructions the SparseWeaver backend compiler inserts
//! around the distribution loop (Section IV-B).

use std::fmt;

/// An architectural register index (`x0..x63`). `x0` reads as zero and
/// ignores writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Matches `$op` once and, in the matching arm, runs the lane loop `$run`
/// with `$f` bound to the scalar `$method` of that arm's constant op, so
/// the loop inlines it. Listing every variant keeps the match exhaustive.
macro_rules! lane_kernels {
    ($op:expr, $ty:ident::$method:ident { $($v:ident)* }, |$f:ident| $run:expr) => {
        match $op {
            $($ty::$v => {
                let $f = |x, y| $ty::$v.$method(x, y);
                $run
            })*
        }
    };
}

/// `out[l] = f(a[l], b[l])` for every lane of `out`. The slices must be
/// equally long.
#[inline(always)]
fn zip_lanes(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// `out[l] = f(a[l], b)` for every lane of `out`: one scalar operand, as
/// an immediate is. The slices must be equally long.
#[inline(always)]
fn map_lanes(a: &[u64], b: u64, out: &mut [u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert!(a.len() == out.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x, b);
    }
}

/// Bit `l` set when `f(a[l], b[l])` holds, over at most 64 equally long
/// lanes.
#[inline(always)]
fn lane_mask(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> bool) -> u64 {
    debug_assert!(a.len() == b.len() && a.len() <= 64);
    a.iter()
        .zip(b)
        .enumerate()
        .fold(0, |m, (l, (&x, &y))| m | (f(x, y) as u64) << l)
}

/// Integer ALU operation. Values are 64-bit words; signedness is encoded in
/// the operation, as in RISC-V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    DivU,
    RemU,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    /// Set if less-than, signed (result 0/1).
    SltS,
    /// Set if less-than, unsigned (result 0/1).
    SltU,
    /// Set if equal (result 0/1).
    Seq,
    /// Set if not equal (result 0/1).
    Sne,
    MinU,
    MaxU,
    MinS,
    MaxS,
}

impl AluOp {
    /// All ALU operations (for encode/decode tables and property tests).
    pub const ALL: [AluOp; 19] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::DivU,
        AluOp::RemU,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::SltS,
        AluOp::SltU,
        AluOp::Seq,
        AluOp::Sne,
        AluOp::MinU,
        AluOp::MaxU,
        AluOp::MinS,
        AluOp::MaxS,
    ];

    /// Applies the operation to two 64-bit words.
    ///
    /// Division and remainder by zero follow the RISC-V convention
    /// (`u64::MAX` and the dividend, respectively) instead of trapping.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::DivU => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::RemU => a.checked_rem(b).unwrap_or(a),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::SltS => ((a as i64) < (b as i64)) as u64,
            AluOp::SltU => (a < b) as u64,
            AluOp::Seq => (a == b) as u64,
            AluOp::Sne => (a != b) as u64,
            AluOp::MinU => a.min(b),
            AluOp::MaxU => a.max(b),
            AluOp::MinS => ((a as i64).min(b as i64)) as u64,
            AluOp::MaxS => ((a as i64).max(b as i64)) as u64,
        }
    }

    /// [`AluOp::apply`] across a warp: `out[l] = apply(a[l], b[l])` for
    /// every lane of `out`. The op is matched once, outside the lane loop,
    /// so each arm's loop runs a constant op and can vectorise.
    pub fn apply_lanes(self, a: &[u64], b: &[u64], out: &mut [u64]) {
        lane_kernels!(
            self,
            AluOp::apply {
                Add Sub Mul DivU RemU And Or Xor Sll Srl Sra SltS SltU Seq Sne MinU MaxU MinS MaxS
            },
            |f| zip_lanes(a, b, out, f)
        )
    }

    /// [`AluOp::apply`] with a scalar second operand across a warp:
    /// `out[l] = apply(a[l], b)` for every lane of `out`, with the op
    /// matched once outside the lane loop (see [`AluOp::apply_lanes`]).
    pub fn apply_lanes_scalar(self, a: &[u64], b: u64, out: &mut [u64]) {
        lane_kernels!(
            self,
            AluOp::apply {
                Add Sub Mul DivU RemU And Or Xor Sll Srl Sra SltS SltU Seq Sne MinU MaxU MinS MaxS
            },
            |f| map_lanes(a, b, out, f)
        )
    }
}

/// The bit pattern of every NaN an [`FpuOp`] produces: the quiet NaN with
/// a clear sign and an empty payload.
const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;

/// Floating-point operation on `f64` values carried in 64-bit registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpuOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

impl FpuOp {
    /// All FPU operations.
    pub const ALL: [FpuOp; 6] = [
        FpuOp::Add,
        FpuOp::Sub,
        FpuOp::Mul,
        FpuOp::Div,
        FpuOp::Min,
        FpuOp::Max,
    ];

    /// Applies the operation to two registers holding `f64` bit patterns.
    ///
    /// A NaN result is always the canonical quiet NaN
    /// `0x7ff8_0000_0000_0000`, as on RISC-V: which operand's payload a
    /// host float unit propagates depends on operand order, and a
    /// vectorised loop may commute it. `min`/`max` return the non-NaN
    /// operand when one is NaN, and `a` when the operands compare equal
    /// (so `min(+0.0, -0.0)` is `+0.0`).
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match self {
            FpuOp::Add => x + y,
            FpuOp::Sub => x - y,
            FpuOp::Mul => x * y,
            FpuOp::Div => x / y,
            FpuOp::Min => {
                if y.is_nan() || x <= y {
                    x
                } else {
                    y
                }
            }
            FpuOp::Max => {
                if y.is_nan() || x >= y {
                    x
                } else {
                    y
                }
            }
        };
        if r.is_nan() {
            CANONICAL_NAN
        } else {
            r.to_bits()
        }
    }

    /// [`FpuOp::apply`] across a warp, with the op matched once outside
    /// the lane loop (see [`AluOp::apply_lanes`]).
    pub fn apply_lanes(self, a: &[u64], b: &[u64], out: &mut [u64]) {
        lane_kernels!(self, FpuOp::apply { Add Sub Mul Div Min Max }, |f| zip_lanes(a, b, out, f))
    }
}

/// Floating-point comparison producing 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FCmpOp {
    Lt,
    Le,
    Eq,
}

impl FCmpOp {
    /// All comparison operations.
    pub const ALL: [FCmpOp; 3] = [FCmpOp::Lt, FCmpOp::Le, FCmpOp::Eq];

    /// Applies the comparison to two registers holding `f64` bit patterns.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match self {
            FCmpOp::Lt => x < y,
            FCmpOp::Le => x <= y,
            FCmpOp::Eq => x == y,
        };
        r as u64
    }

    /// [`FCmpOp::apply`] across a warp, with the op matched once outside
    /// the lane loop (see [`AluOp::apply_lanes`]).
    pub fn apply_lanes(self, a: &[u64], b: &[u64], out: &mut [u64]) {
        lane_kernels!(self, FCmpOp::apply { Lt Le Eq }, |f| zip_lanes(a, b, out, f))
    }
}

/// Uniform branch condition. All active lanes must agree; divergent
/// branches are a compile error surfaced by the simulator (divergence is
/// expressed with `split`/`join`, as on Vortex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BrCond {
    Eq,
    Ne,
    LtS,
    GeS,
    LtU,
    GeU,
}

impl BrCond {
    /// All branch conditions.
    pub const ALL: [BrCond; 6] = [
        BrCond::Eq,
        BrCond::Ne,
        BrCond::LtS,
        BrCond::GeS,
        BrCond::LtU,
        BrCond::GeU,
    ];

    /// Evaluates the condition on two 64-bit words.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::LtS => (a as i64) < (b as i64),
            BrCond::GeS => (a as i64) >= (b as i64),
            BrCond::LtU => a < b,
            BrCond::GeU => a >= b,
        }
    }

    /// [`BrCond::eval`] across a warp of at most 64 lanes: bit `l` of the
    /// result is set when the condition holds on `a[l]` and `b[l]`.
    pub fn eval_lanes(self, a: &[u64], b: &[u64]) -> u64 {
        lane_kernels!(self, BrCond::eval { Eq Ne LtS GeS LtU GeU }, |f| lane_mask(a, b, f))
    }
}

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte (frontier flags).
    B1,
    /// 4 bytes (vertex IDs, offsets, weights).
    B4,
    /// 8 bytes (f64 vertex properties, distances).
    B8,
}

impl Width {
    /// All widths.
    pub const ALL: [Width; 3] = [Width::B1, Width::B4, Width::B8];

    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// Address space of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device global memory, through the cache hierarchy.
    Global,
    /// Per-core scratchpad (shared memory).
    Shared,
}

/// Atomic read-modify-write operation on global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Integer add; returns the old value.
    Add,
    /// Unsigned integer min; returns the old value.
    MinU,
    /// Unsigned integer max; returns the old value.
    MaxU,
    /// `f64` add; returns the old bit pattern.
    FAdd,
    /// Exchange; returns the old value.
    Exch,
}

impl AtomOp {
    /// All atomic operations.
    pub const ALL: [AtomOp; 5] = [
        AtomOp::Add,
        AtomOp::MinU,
        AtomOp::MaxU,
        AtomOp::FAdd,
        AtomOp::Exch,
    ];

    /// Combines the old memory value with the operand, returning the new
    /// memory value (the instruction's result is always the *old* value).
    pub fn combine(self, old: u64, operand: u64) -> u64 {
        match self {
            AtomOp::Add => old.wrapping_add(operand),
            AtomOp::MinU => old.min(operand),
            AtomOp::MaxU => old.max(operand),
            AtomOp::FAdd => (f64::from_bits(old) + f64::from_bits(operand)).to_bits(),
            AtomOp::Exch => operand,
        }
    }
}

/// Warp vote operations (Vortex `vote`/`ballot`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteOp {
    /// 1 if **all** active lanes have a non-zero source.
    All,
    /// 1 if **any** active lane has a non-zero source.
    Any,
    /// Bitmask of active lanes with a non-zero source.
    Ballot,
}

impl VoteOp {
    /// All vote operations.
    pub const ALL: [VoteOp; 3] = [VoteOp::All, VoteOp::Any, VoteOp::Ballot];
}

/// Read-only control/status registers (Vortex exposes these as CSRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrKind {
    /// Lane index within the warp.
    LaneId,
    /// Warp index within the core.
    WarpId,
    /// Core index within the GPU.
    CoreId,
    /// Global thread ID (`core * threads_per_core + warp * lanes + lane`).
    GlobalTid,
    /// Thread ID within the core (`warp * lanes + lane`).
    CoreTid,
    /// Number of cores.
    NumCores,
    /// Warps per core.
    WarpsPerCore,
    /// Threads (lanes) per warp.
    ThreadsPerWarp,
    /// Threads per core (`warps * lanes`).
    ThreadsPerCore,
    /// Total threads on the device.
    NumThreads,
}

impl CsrKind {
    /// All CSR kinds.
    pub const ALL: [CsrKind; 10] = [
        CsrKind::LaneId,
        CsrKind::WarpId,
        CsrKind::CoreId,
        CsrKind::GlobalTid,
        CsrKind::CoreTid,
        CsrKind::NumCores,
        CsrKind::WarpsPerCore,
        CsrKind::ThreadsPerWarp,
        CsrKind::ThreadsPerCore,
        CsrKind::NumThreads,
    ];
}

/// One IR instruction.
///
/// Branch/jump/split targets are absolute instruction indices within a
/// [`crate::Program`]; the assembler resolves labels to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Terminate this warp's kernel execution.
    Halt,
    /// Core-wide barrier: waits until every running warp in the core arrives.
    Bar,
    /// Zero-cost phase marker for cycle attribution (Figs. 17–18). Not a
    /// real instruction; consumed at fetch without an issue slot.
    Phase(u8),
    /// `rd <- imm`.
    LdImm {
        /// Destination.
        rd: Reg,
        /// Immediate value (sign-extended into 64 bits).
        imm: i64,
    },
    /// `rd <- op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd <- op(rs1, imm)`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Register operand.
        rs1: Reg,
        /// Immediate operand (sign-extended).
        imm: i64,
    },
    /// `rd <- op(rs1, rs2)` on `f64` bit patterns.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd <- cmp(rs1, rs2)` on `f64` bit patterns, result 0/1.
    FCmp {
        /// Comparison.
        op: FCmpOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd <- (f64)(i64)rs1` — signed integer to double.
    CvtIF {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `rd <- (i64)trunc(f64)rs1` — double to signed integer.
    CvtFI {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `rd <- csr`.
    Csr {
        /// Destination.
        rd: Reg,
        /// Which CSR to read.
        kind: CsrKind,
    },
    /// `rd <- kernel_args[idx]` (Vortex passes kernel arguments through a
    /// device structure; the IR models them as parameter registers).
    LdArg {
        /// Destination.
        rd: Reg,
        /// Argument index.
        idx: u8,
    },
    /// `rd <- mem[rs_addr + offset]`, zero-extended.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        addr: Reg,
        /// Byte offset.
        offset: i32,
        /// Access width.
        width: Width,
        /// Address space.
        space: Space,
    },
    /// `mem[rs_addr + offset] <- src` (truncated to `width`).
    St {
        /// Value to store.
        src: Reg,
        /// Base address register.
        addr: Reg,
        /// Byte offset.
        offset: i32,
        /// Access width.
        width: Width,
        /// Address space.
        space: Space,
    },
    /// Atomic read-modify-write: `rd <- old`, and
    /// `mem[addr] <- op(old, src)`. Width is 8 bytes. Global atomics
    /// resolve at the L2; shared atomics at the core scratchpad (the
    /// `S_twc` scheme's queue counters live there).
    Atom {
        /// Operation.
        op: AtomOp,
        /// Destination (receives old value).
        rd: Reg,
        /// Address register.
        addr: Reg,
        /// Operand register.
        src: Reg,
        /// Address space.
        space: Space,
    },
    /// Uniform conditional branch to `target` when `cond(rs1, rs2)`.
    Br {
        /// Condition.
        cond: BrCond,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
        /// Absolute target pc.
        target: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Absolute target pc.
        target: u32,
    },
    /// Divergence split on per-lane predicate `rs1 != 0` (Vortex `split`).
    ///
    /// Pushes an IPDOM entry; lanes with a zero predicate resume at
    /// `else_target` when the taken side reaches its `Join`; the full mask
    /// is restored at `end_target`.
    Split {
        /// Per-lane predicate register.
        rs1: Reg,
        /// Absolute pc of the else side.
        else_target: u32,
        /// Absolute pc just past the region's final `Join`.
        end_target: u32,
    },
    /// Divergence reconvergence (Vortex `join`).
    Join,
    /// Warp vote across active lanes.
    Vote {
        /// Vote kind.
        op: VoteOp,
        /// Destination (same value broadcast to all active lanes).
        rd: Reg,
        /// Per-lane predicate.
        rs1: Reg,
    },
    /// Thread-mask control (Vortex `tmc`): sets the warp's active mask to
    /// the value of `rs1` in lane 0.
    Tmc {
        /// Mask source register (uniform).
        rs1: Reg,
    },
    /// `WEAVER_REG vid, loc, deg` — registers one Sparse Workload
    /// Information Table entry per active lane (Table II, CUSTOM1 funct 1).
    WeaverReg {
        /// Base vertex ID.
        vid: Reg,
        /// Start location of the neighbor range in the edge array.
        loc: Reg,
        /// Neighbor degree.
        deg: Reg,
    },
    /// `WEAVER_DEC_ID` — returns the base vertex ID of this lane's next
    /// work item, or -1 when distribution is complete (Table II, CUSTOM0
    /// funct 7).
    WeaverDecId {
        /// Destination.
        rd: Reg,
    },
    /// `WEAVER_DEC_LOC` — returns the edge ID of this lane's next work item
    /// (Table II, CUSTOM0 funct 8).
    WeaverDecLoc {
        /// Destination.
        rd: Reg,
    },
    /// `WEAVER_SKIP vid` — signals that no further work should be
    /// distributed for `vid` (Table II, CUSTOM1 funct 2).
    WeaverSkip {
        /// Vertex to skip.
        vid: Reg,
    },
}

impl Instr {
    /// Source registers read by this instruction.
    pub fn sources(&self) -> Vec<Reg> {
        match *self {
            Instr::Alu { rs1, rs2, .. }
            | Instr::Fpu { rs1, rs2, .. }
            | Instr::FCmp { rs1, rs2, .. }
            | Instr::Br { rs1, rs2, .. } => vec![rs1, rs2],
            Instr::AluI { rs1, .. }
            | Instr::CvtIF { rs1, .. }
            | Instr::CvtFI { rs1, .. }
            | Instr::Split { rs1, .. }
            | Instr::Vote { rs1, .. }
            | Instr::Tmc { rs1 } => vec![rs1],
            Instr::Ld { addr, .. } => vec![addr],
            Instr::St { src, addr, .. } => vec![src, addr],
            Instr::Atom { addr, src, .. } => vec![addr, src],
            Instr::WeaverReg { vid, loc, deg } => vec![vid, loc, deg],
            Instr::WeaverSkip { vid } => vec![vid],
            _ => Vec::new(),
        }
    }

    /// Destination register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::LdImm { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::AluI { rd, .. }
            | Instr::Fpu { rd, .. }
            | Instr::FCmp { rd, .. }
            | Instr::CvtIF { rd, .. }
            | Instr::CvtFI { rd, .. }
            | Instr::Csr { rd, .. }
            | Instr::LdArg { rd, .. }
            | Instr::Ld { rd, .. }
            | Instr::Atom { rd, .. }
            | Instr::Vote { rd, .. }
            | Instr::WeaverDecId { rd }
            | Instr::WeaverDecLoc { rd } => Some(rd),
            _ => None,
        }
    }

    /// Explicit control-flow targets of this instruction (absolute pcs).
    ///
    /// `Join` transfers control through the warp's IPDOM stack rather than
    /// an encoded target, so it reports none; a CFG builder must model the
    /// matching `Split`'s `else_target`/`end_target` instead.
    pub fn branch_targets(&self) -> Vec<u32> {
        match *self {
            Instr::Br { target, .. } | Instr::Jmp { target } => vec![target],
            Instr::Split {
                else_target,
                end_target,
                ..
            } => vec![else_target, end_target],
            _ => Vec::new(),
        }
    }

    /// Whether execution can continue at `pc + 1` after this instruction.
    ///
    /// `Join` never falls through: it resumes at the pending else side or
    /// at the region's `end_target` (which may coincide with `pc + 1`).
    pub fn can_fall_through(&self) -> bool {
        !matches!(self, Instr::Halt | Instr::Jmp { .. } | Instr::Join)
    }

    /// Whether this is one of the four Weaver ISA-extension instructions.
    pub fn is_weaver(&self) -> bool {
        matches!(
            self,
            Instr::WeaverReg { .. }
                | Instr::WeaverDecId { .. }
                | Instr::WeaverDecLoc { .. }
                | Instr::WeaverSkip { .. }
        )
    }

    /// Rewrites the instruction's register operands: every source through
    /// `f_src`, the destination (if any) through `f_dst`.
    ///
    /// The closures are separate because a register-allocation pass may
    /// place the value *read* at this pc and the value *written* at this
    /// pc in different physical registers even when the instruction names
    /// the same architectural register for both (e.g. `add x1, x1, x2`
    /// starting a fresh live range for the destination).
    pub fn map_regs(
        &self,
        mut f_src: impl FnMut(Reg) -> Reg,
        mut f_dst: impl FnMut(Reg) -> Reg,
    ) -> Instr {
        match *self {
            Instr::Nop | Instr::Halt | Instr::Bar | Instr::Phase(_) | Instr::Join => *self,
            Instr::Jmp { target } => Instr::Jmp { target },
            Instr::LdImm { rd, imm } => Instr::LdImm { rd: f_dst(rd), imm },
            Instr::Alu { op, rd, rs1, rs2 } => Instr::Alu {
                op,
                rd: f_dst(rd),
                rs1: f_src(rs1),
                rs2: f_src(rs2),
            },
            Instr::AluI { op, rd, rs1, imm } => Instr::AluI {
                op,
                rd: f_dst(rd),
                rs1: f_src(rs1),
                imm,
            },
            Instr::Fpu { op, rd, rs1, rs2 } => Instr::Fpu {
                op,
                rd: f_dst(rd),
                rs1: f_src(rs1),
                rs2: f_src(rs2),
            },
            Instr::FCmp { op, rd, rs1, rs2 } => Instr::FCmp {
                op,
                rd: f_dst(rd),
                rs1: f_src(rs1),
                rs2: f_src(rs2),
            },
            Instr::CvtIF { rd, rs1 } => Instr::CvtIF {
                rd: f_dst(rd),
                rs1: f_src(rs1),
            },
            Instr::CvtFI { rd, rs1 } => Instr::CvtFI {
                rd: f_dst(rd),
                rs1: f_src(rs1),
            },
            Instr::Csr { rd, kind } => Instr::Csr {
                rd: f_dst(rd),
                kind,
            },
            Instr::LdArg { rd, idx } => Instr::LdArg { rd: f_dst(rd), idx },
            Instr::Ld {
                rd,
                addr,
                offset,
                width,
                space,
            } => Instr::Ld {
                rd: f_dst(rd),
                addr: f_src(addr),
                offset,
                width,
                space,
            },
            Instr::St {
                src,
                addr,
                offset,
                width,
                space,
            } => Instr::St {
                src: f_src(src),
                addr: f_src(addr),
                offset,
                width,
                space,
            },
            Instr::Atom {
                op,
                rd,
                addr,
                src,
                space,
            } => Instr::Atom {
                op,
                rd: f_dst(rd),
                addr: f_src(addr),
                src: f_src(src),
                space,
            },
            Instr::Br {
                cond,
                rs1,
                rs2,
                target,
            } => Instr::Br {
                cond,
                rs1: f_src(rs1),
                rs2: f_src(rs2),
                target,
            },
            Instr::Split {
                rs1,
                else_target,
                end_target,
            } => Instr::Split {
                rs1: f_src(rs1),
                else_target,
                end_target,
            },
            Instr::Vote { op, rd, rs1 } => Instr::Vote {
                op,
                rd: f_dst(rd),
                rs1: f_src(rs1),
            },
            Instr::Tmc { rs1 } => Instr::Tmc { rs1: f_src(rs1) },
            Instr::WeaverReg { vid, loc, deg } => Instr::WeaverReg {
                vid: f_src(vid),
                loc: f_src(loc),
                deg: f_src(deg),
            },
            Instr::WeaverDecId { rd } => Instr::WeaverDecId { rd: f_dst(rd) },
            Instr::WeaverDecLoc { rd } => Instr::WeaverDecLoc { rd: f_dst(rd) },
            Instr::WeaverSkip { vid } => Instr::WeaverSkip { vid: f_src(vid) },
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Bar => write!(f, "bar"),
            Instr::Phase(p) => write!(f, ".phase {p}"),
            Instr::LdImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}"),
            Instr::AluI { op, rd, rs1, imm } => write!(f, "{op:?}i {rd}, {rs1}, {imm}"),
            Instr::Fpu { op, rd, rs1, rs2 } => write!(f, "f{op:?} {rd}, {rs1}, {rs2}"),
            Instr::FCmp { op, rd, rs1, rs2 } => write!(f, "fcmp.{op:?} {rd}, {rs1}, {rs2}"),
            Instr::CvtIF { rd, rs1 } => write!(f, "cvt.i2f {rd}, {rs1}"),
            Instr::CvtFI { rd, rs1 } => write!(f, "cvt.f2i {rd}, {rs1}"),
            Instr::Csr { rd, kind } => write!(f, "csrr {rd}, {kind:?}"),
            Instr::LdArg { rd, idx } => write!(f, "ldarg {rd}, {idx}"),
            Instr::Ld {
                rd,
                addr,
                offset,
                width,
                space,
            } => write!(f, "ld.{space:?}.{width:?} {rd}, {offset}({addr})"),
            Instr::St {
                src,
                addr,
                offset,
                width,
                space,
            } => write!(f, "st.{space:?}.{width:?} {src}, {offset}({addr})"),
            Instr::Atom {
                op,
                rd,
                addr,
                src,
                space,
            } => {
                write!(f, "atom.{space:?}.{op:?} {rd}, ({addr}), {src}")
            }
            Instr::Br {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "b{cond:?} {rs1}, {rs2}, @{target}"),
            Instr::Jmp { target } => write!(f, "jmp @{target}"),
            Instr::Split {
                rs1,
                else_target,
                end_target,
            } => write!(f, "split {rs1}, else=@{else_target}, end=@{end_target}"),
            Instr::Join => write!(f, "join"),
            Instr::Vote { op, rd, rs1 } => write!(f, "vote.{op:?} {rd}, {rs1}"),
            Instr::Tmc { rs1 } => write!(f, "tmc {rs1}"),
            Instr::WeaverReg { vid, loc, deg } => {
                write!(f, "weaver.reg {vid}, {loc}, {deg}")
            }
            Instr::WeaverDecId { rd } => write!(f, "weaver.dec.id {rd}"),
            Instr::WeaverDecLoc { rd } => write!(f, "weaver.dec.loc {rd}"),
            Instr::WeaverSkip { vid } => write!(f, "weaver.skip {vid}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u64::MAX); // wraps
        assert_eq!(AluOp::SltS.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::SltU.apply((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::MinS.apply((-5i64) as u64, 3), (-5i64) as u64);
        assert_eq!(AluOp::MaxU.apply(2, 9), 9);
        assert_eq!(AluOp::Sra.apply((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Seq.apply(7, 7), 1);
        assert_eq!(AluOp::Sne.apply(7, 7), 0);
    }

    #[test]
    fn division_by_zero_riscv_convention() {
        assert_eq!(AluOp::DivU.apply(10, 0), u64::MAX);
        assert_eq!(AluOp::RemU.apply(10, 0), 10);
    }

    #[test]
    fn fpu_semantics() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(FpuOp::Add.apply(a, b)), 3.5);
        assert_eq!(f64::from_bits(FpuOp::Div.apply(a, b)), 0.75);
        assert_eq!(FCmpOp::Lt.apply(a, b), 1);
        assert_eq!(FCmpOp::Eq.apply(a, a), 1);
    }

    #[test]
    fn fpu_nan_results_are_canonical() {
        let inf = f64::INFINITY.to_bits();
        let payload = 0x7ff8_0000_dead_beef;
        assert_eq!(FpuOp::Sub.apply(inf, inf), CANONICAL_NAN);
        assert_eq!(FpuOp::Add.apply(f64::NAN.to_bits(), payload), CANONICAL_NAN);
        assert_eq!(FpuOp::Mul.apply(payload, 0), CANONICAL_NAN);
        assert_eq!(FpuOp::Min.apply(payload, payload), CANONICAL_NAN);
        let one = 1.0f64.to_bits();
        assert_eq!(FpuOp::Min.apply(payload, one), one);
        assert_eq!(FpuOp::Max.apply(one, payload), one);
        let (pz, nz) = (0.0f64.to_bits(), (-0.0f64).to_bits());
        assert_eq!(FpuOp::Min.apply(pz, nz), pz);
        assert_eq!(FpuOp::Max.apply(nz, pz), nz);
    }

    #[test]
    fn atom_semantics() {
        assert_eq!(AtomOp::Add.combine(5, 3), 8);
        assert_eq!(AtomOp::MinU.combine(5, 3), 3);
        assert_eq!(AtomOp::Exch.combine(5, 3), 3);
        let old = 1.0f64.to_bits();
        let add = 0.5f64.to_bits();
        assert_eq!(f64::from_bits(AtomOp::FAdd.combine(old, add)), 1.5);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::LtS.eval((-1i64) as u64, 0));
        assert!(!BrCond::LtU.eval((-1i64) as u64, 0));
        assert!(BrCond::GeU.eval(5, 5));
    }

    #[test]
    fn sources_and_dest() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(3),
            rs1: Reg(1),
            rs2: Reg(2),
        };
        assert_eq!(i.sources(), vec![Reg(1), Reg(2)]);
        assert_eq!(i.dest(), Some(Reg(3)));
        assert_eq!(Instr::Halt.dest(), None);
        let w = Instr::WeaverReg {
            vid: Reg(1),
            loc: Reg(2),
            deg: Reg(3),
        };
        assert_eq!(w.sources().len(), 3);
        assert!(w.is_weaver());
        assert!(!i.is_weaver());
    }

    #[test]
    fn branch_targets_and_fall_through() {
        let br = Instr::Br {
            cond: BrCond::Eq,
            rs1: Reg(1),
            rs2: Reg(2),
            target: 7,
        };
        assert_eq!(br.branch_targets(), vec![7]);
        assert!(br.can_fall_through());
        let jmp = Instr::Jmp { target: 3 };
        assert_eq!(jmp.branch_targets(), vec![3]);
        assert!(!jmp.can_fall_through());
        let split = Instr::Split {
            rs1: Reg(1),
            else_target: 4,
            end_target: 5,
        };
        assert_eq!(split.branch_targets(), vec![4, 5]);
        assert!(split.can_fall_through());
        assert!(Instr::Join.branch_targets().is_empty());
        assert!(!Instr::Join.can_fall_through());
        assert!(!Instr::Halt.can_fall_through());
        assert!(Instr::Nop.can_fall_through());
    }

    #[test]
    fn display_is_nonempty() {
        for i in [
            Instr::Nop,
            Instr::Halt,
            Instr::WeaverDecId { rd: Reg(1) },
            Instr::Split {
                rs1: Reg(1),
                else_target: 4,
                end_target: 5,
            },
        ] {
            assert!(!format!("{i}").is_empty());
        }
    }
}
