//! Abstract domains for the SW-L5xx analyzer.
//!
//! Two cooperating domains describe every register value:
//!
//! * **Intervals with stride** ([`Interval`]): a value range `[lo, hi]`
//!   plus a congruence `value ≡ lo (mod stride)` anchored at the lower
//!   bound, so induction variables like `base + 8·k` keep their
//!   alignment through joins.
//! * **Thread shape** ([`AbsVal`]): how the value varies across the
//!   launch grid, as a linear form over `warp_id`, `lane_id` and the
//!   kernel arguments.
//!
//! # The claims, precisely
//!
//! Registers hold 64-bit words and ALU arithmetic wraps (see
//! `AluOp::apply`), so all [`AbsVal`] claims are **modular**: congruences
//! mod 2^64 over the register's bit pattern viewed as `i64`. For a value
//! `v` on the thread `(warp w, lane l)` of some core:
//!
//! 1. `v ≡ cw·w + Σ coeff_i·arg_i + r (mod 2^64)` for some `r ∈ rest`
//!    (including the congruence of `rest`), where `arg_i` is the launch
//!    argument named by `syms[i]`;
//! 2. if `cl = Some(c)`, then within any single warp,
//!    `v(l) − c·l (mod 2^64)` is the same for every lane — `Some(0)` is
//!    warp-uniform, other `Some(c)` lane-affine, `None` divergent;
//! 3. `arg = true` marks values derived from a kernel argument (a device
//!    pointer or size of unknown magnitude) — bounds checks are
//!    suppressed for such addresses.
//!
//! Because the claims are modular, linear transfers (`add`/`sub`/
//! multiply-by-constant/shift-left) are unconditionally sound — wrapping
//! commutes with the congruence. Only when a claim must be *read back as
//! a plain range* ([`AbsVal::full_range`]) does potential wrap degrade
//! the answer to top; the interval helpers compute in `i128` and widen
//! whenever a bound escapes `i64`.

use sparseweaver_isa::AluOp;

/// Launch geometry the analyzer proves facts against. Mirrors the
/// simulator's `GpuConfig` fields that matter for static proofs, without
/// making the lint crate depend on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalyzeGeom {
    /// Number of cores on the device.
    pub num_cores: u64,
    /// Warps per core.
    pub warps_per_core: u64,
    /// Lanes per warp.
    pub threads_per_warp: u64,
    /// Per-core scratchpad size in bytes.
    pub shared_mem_bytes: u64,
}

impl AnalyzeGeom {
    /// Threads per core (`warps_per_core * threads_per_warp`).
    pub fn threads_per_core(&self) -> u64 {
        self.warps_per_core * self.threads_per_warp
    }
}

/// Greatest common divisor over `u128` (0 is the identity).
pub(crate) fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A value range `[lo, hi]` with congruence `value ≡ lo (mod stride)`.
///
/// Invariants kept by [`Interval::make`]: `lo <= hi`; `stride == 0` iff
/// `lo == hi`; otherwise `stride >= 1` and `(hi - lo) % stride == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    pub lo: i64,
    pub hi: i64,
    pub stride: u64,
}

impl Interval {
    /// The full `i64` range.
    pub fn top() -> Interval {
        Interval {
            lo: i64::MIN,
            hi: i64::MAX,
            stride: 1,
        }
    }

    /// A single concrete value.
    pub fn cst(v: i64) -> Interval {
        Interval {
            lo: v,
            hi: v,
            stride: 0,
        }
    }

    /// `[lo, hi]` with stride 1 (every value possible).
    pub fn range(lo: i64, hi: i64) -> Interval {
        Interval::make(lo, hi, 1)
    }

    /// Normalizing constructor: clamps the stride, anchors the
    /// congruence at `lo`, and rounds `hi` down onto the lattice
    /// `lo + k·stride` (shrinking `hi` never loses concrete values that
    /// satisfy the congruence).
    pub fn make(lo: i64, hi: i64, stride: u64) -> Interval {
        debug_assert!(lo <= hi);
        if lo >= hi {
            return Interval::cst(lo);
        }
        // An anchor at i64::MIN usually comes from widening/wrapping.
        // Power-of-2 strides stay sound there (i64::MIN ≡ 0 mod 2^k);
        // anything else degrades to stride 1.
        let stride = if lo == i64::MIN && !stride.is_power_of_two() {
            1
        } else {
            stride.max(1)
        };
        let span = hi as i128 - lo as i128;
        let hi = (lo as i128 + (span / stride as i128) * stride as i128) as i64;
        if lo == hi {
            return Interval::cst(lo);
        }
        Interval { lo, hi, stride }
    }

    /// Builds from `i128` bounds. When a bound escapes `i64` the value
    /// may wrap mod 2^64, so the range degrades to full width — but the
    /// largest power-of-2 divisor of the stride survives (it divides
    /// 2^64, so residues are preserved by wrapping).
    pub fn from_i128(lo: i128, hi: i128, stride: u128) -> Interval {
        if lo > hi {
            return Interval::top();
        }
        let stride = if stride > u64::MAX as u128 {
            1
        } else {
            stride as u64
        };
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            return Interval::wrapped(lo, stride);
        }
        Interval::make(lo as i64, hi as i64, stride)
    }

    /// Full-width interval that keeps the power-of-2 part of `stride`
    /// as its congruence, anchored at `anchor`'s residue. Sound under
    /// mod-2^64 wrapping because the kept stride divides 2^63, so
    /// `i64::MIN ≡ 0 (mod stride)` and residues survive the wrap.
    fn wrapped(anchor: i128, stride: u64) -> Interval {
        if stride == 0 {
            return Interval::top();
        }
        let s = 1u64 << stride.trailing_zeros().min(62);
        if s <= 1 {
            return Interval::top();
        }
        let r = anchor.rem_euclid(s as i128) as i64;
        let lo = i64::MIN + r;
        let span = i64::MAX as i128 - lo as i128;
        let hi = (lo as i128 + (span / s as i128) * s as i128) as i64;
        Interval { lo, hi, stride: s }
    }

    /// The single value, if this interval is a constant.
    pub fn as_const(&self) -> Option<i64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// True when the interval admits every `i64`.
    #[allow(dead_code)] // used by unit tests
    pub fn is_top(&self) -> bool {
        self.lo == i64::MIN && self.hi == i64::MAX
    }

    /// True when all values are `>= 0`.
    pub fn nonneg(&self) -> bool {
        self.lo >= 0
    }

    /// Membership test (used by tests and the soundness property).
    #[allow(dead_code)] // used by unit tests
    pub fn contains(&self, v: i64) -> bool {
        self.contains_i128(v as i128)
    }

    /// Membership test for a mathematical integer.
    pub fn contains_i128(&self, v: i128) -> bool {
        if v < self.lo as i128 || v > self.hi as i128 {
            return false;
        }
        if self.stride <= 1 {
            return true;
        }
        ((v - self.lo as i128) % self.stride as i128) == 0
    }

    /// Least upper bound: hull of the ranges, congruence folded with
    /// `gcd(s_a, s_b, |lo_a − lo_b|)` so the anchor can move to the
    /// smaller lower bound.
    pub fn join(a: Interval, b: Interval) -> Interval {
        let lo = a.lo.min(b.lo);
        let hi = a.hi.max(b.hi);
        let diff = (a.lo as i128 - b.lo as i128).unsigned_abs();
        let stride = gcd(gcd(a.stride as u128, b.stride as u128), diff);
        Interval::from_i128(lo as i128, hi as i128, stride)
    }

    /// Widening: a bound that grew jumps to ±∞. Upward-growing loops
    /// keep their anchor (and therefore their stride); a lower bound
    /// that moves discards the congruence.
    pub fn widen(old: Interval, new: Interval) -> Interval {
        let j = Interval::join(old, new);
        let hi = if j.hi > old.hi { i64::MAX } else { j.hi };
        if j.lo < old.lo {
            // Lower bound moved: blow it to the full range but keep the
            // (wrap-stable) power-of-2 part of the congruence, anchored
            // at the joined interval's residue.
            let w = Interval::wrapped(j.lo as i128, j.stride.max(1));
            return Interval::make(w.lo, hi.max(w.lo), w.stride);
        }
        Interval::make(j.lo, hi, j.stride)
    }

    /// `a + b` with congruence `gcd(s_a, s_b)` anchored at `lo_a + lo_b`.
    pub fn add(self, b: Interval) -> Interval {
        Interval::from_i128(
            self.lo as i128 + b.lo as i128,
            self.hi as i128 + b.hi as i128,
            gcd(self.stride as u128, b.stride as u128),
        )
    }

    /// `a - b` with congruence `gcd(s_a, s_b)` anchored at `lo_a − hi_b`.
    pub fn sub(self, b: Interval) -> Interval {
        Interval::from_i128(
            self.lo as i128 - b.hi as i128,
            self.hi as i128 - b.lo as i128,
            gcd(self.stride as u128, b.stride as u128),
        )
    }

    /// `a · k` for a constant `k`: exact corners, stride scaled by `|k|`.
    pub fn mul_const(self, k: i64) -> Interval {
        if k == 0 {
            return Interval::cst(0);
        }
        let c1 = self.lo as i128 * k as i128;
        let c2 = self.hi as i128 * k as i128;
        Interval::from_i128(
            c1.min(c2),
            c1.max(c2),
            self.stride as u128 * k.unsigned_abs() as u128,
        )
    }

    /// General product: corner analysis; stride only survives through
    /// the constant cases.
    fn mul(self, b: Interval) -> Interval {
        if let Some(k) = b.as_const() {
            return self.mul_const(k);
        }
        if let Some(k) = self.as_const() {
            return b.mul_const(k);
        }
        let corners = [
            self.lo as i128 * b.lo as i128,
            self.lo as i128 * b.hi as i128,
            self.hi as i128 * b.lo as i128,
            self.hi as i128 * b.hi as i128,
        ];
        let lo = *corners.iter().min().unwrap();
        let hi = *corners.iter().max().unwrap();
        Interval::from_i128(lo, hi, 1)
    }

    /// Smallest `2^k − 1` covering every value of a non-negative
    /// interval (bound for `Or`/`Xor`).
    fn pow2_mask(hi: i64) -> i64 {
        debug_assert!(hi >= 0);
        if hi == 0 {
            return 0;
        }
        let bits = 64 - (hi as u64).leading_zeros();
        if bits >= 63 {
            i64::MAX
        } else {
            (1i64 << bits) - 1
        }
    }

    /// Sound transfer for one ALU op over the **unsigned-wrapping**
    /// register semantics of `AluOp::apply`. Operands must be plain
    /// concrete ranges (thread shapes already folded in).
    pub fn binop(op: AluOp, a: Interval, b: Interval) -> Interval {
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            return Interval::cst(op.apply(x as u64, y as u64) as i64);
        }
        match op {
            AluOp::Add => a.add(b),
            AluOp::Sub => a.sub(b),
            AluOp::Mul => a.mul(b),
            AluOp::DivU => {
                if !a.nonneg() {
                    return Interval::top();
                }
                match b.as_const() {
                    // Unsigned divisor ≥ 2^63 exceeds any non-negative
                    // dividend, so the quotient is 0.
                    Some(k) if k < 0 => Interval::cst(0),
                    Some(k) if k > 0 => Interval::range(a.lo / k, a.hi / k),
                    Some(_) => Interval::cst(-1), // div by zero → u64::MAX
                    // b = 0 is still possible → quotient may be -1.
                    None => Interval::range(-1, a.hi),
                }
            }
            AluOp::RemU => {
                // For a ≥ 0: rem(a, b) ≤ a for every unsigned b
                // (b = 0 returns a; huge b returns a; small b reduces).
                if a.nonneg() {
                    Interval::range(0, a.hi)
                } else {
                    Interval::top()
                }
            }
            AluOp::And => {
                // AND with a value whose sign bit is clear clears the
                // sign bit and cannot exceed that operand.
                match (a.nonneg(), b.nonneg()) {
                    (true, true) => Interval::range(0, a.hi.min(b.hi)),
                    (true, false) => Interval::range(0, a.hi),
                    (false, true) => Interval::range(0, b.hi),
                    (false, false) => Interval::top(),
                }
            }
            AluOp::Or => {
                if a.nonneg() && b.nonneg() {
                    let hi = Interval::pow2_mask(a.hi.max(b.hi));
                    Interval::range(a.lo.max(b.lo), hi)
                } else {
                    Interval::top()
                }
            }
            AluOp::Xor => {
                if a.nonneg() && b.nonneg() {
                    Interval::range(0, Interval::pow2_mask(a.hi.max(b.hi)))
                } else {
                    Interval::top()
                }
            }
            AluOp::Sll => match b.as_const() {
                Some(s) => {
                    let s = (s as u64 & 63) as u32;
                    if s <= 62 {
                        a.mul_const(1i64 << s)
                    } else {
                        Interval::top()
                    }
                }
                None => Interval::top(),
            },
            AluOp::Srl => match b.as_const() {
                Some(s) => {
                    let s = (s as u64 & 63) as u32;
                    if s == 0 {
                        a
                    } else if a.nonneg() {
                        // Shifting preserves the congruence exactly when
                        // the stride is divisible by 2^s.
                        let stride = if a.stride.is_multiple_of(1u64 << s) {
                            a.stride >> s
                        } else {
                            1
                        };
                        Interval::make(a.lo >> s, a.hi >> s, stride)
                    } else {
                        // A negative value reinterprets as a huge u64.
                        Interval::range(0, (u64::MAX >> s) as i64)
                    }
                }
                None => {
                    if a.nonneg() {
                        Interval::range(0, a.hi)
                    } else {
                        Interval::top()
                    }
                }
            },
            AluOp::Sra => match b.as_const() {
                Some(s) => {
                    let s = (s as u64 & 63) as u32;
                    if s == 0 {
                        a
                    } else {
                        // i64 >> s is floor division by 2^s; monotone.
                        let stride = if a.stride.is_multiple_of(1u64 << s) {
                            a.stride >> s
                        } else {
                            1
                        };
                        Interval::make(a.lo >> s, a.hi >> s, stride)
                    }
                }
                // sra moves values toward 0/-1, so the result stays
                // within the operand's hull extended to cover 0.
                None => Interval::range(a.lo.min(0), a.hi.max(0)),
            },
            AluOp::SltS => {
                if a.hi < b.lo {
                    Interval::cst(1)
                } else if a.lo >= b.hi {
                    Interval::cst(0)
                } else {
                    Interval::range(0, 1)
                }
            }
            AluOp::SltU => {
                let a_neg = a.hi < 0; // unsigned ≥ 2^63 everywhere
                let b_neg = b.hi < 0;
                if (a.nonneg() && b_neg) || (a.nonneg() && b.nonneg() && a.hi < b.lo) {
                    Interval::cst(1)
                } else if (a_neg && b.nonneg()) || (a.nonneg() && b.nonneg() && a.lo >= b.hi) {
                    Interval::cst(0)
                } else {
                    Interval::range(0, 1)
                }
            }
            AluOp::Seq => {
                if a.hi < b.lo || b.hi < a.lo {
                    Interval::cst(0)
                } else {
                    Interval::range(0, 1)
                }
            }
            AluOp::Sne => {
                if a.hi < b.lo || b.hi < a.lo {
                    Interval::cst(1)
                } else {
                    Interval::range(0, 1)
                }
            }
            AluOp::MinS => Interval::from_i128(
                a.lo.min(b.lo) as i128,
                a.hi.min(b.hi) as i128,
                gcd(
                    gcd(a.stride as u128, b.stride as u128),
                    (a.lo as i128 - b.lo as i128).unsigned_abs(),
                ),
            ),
            AluOp::MaxS => Interval::from_i128(
                a.lo.max(b.lo) as i128,
                a.hi.max(b.hi) as i128,
                gcd(
                    gcd(a.stride as u128, b.stride as u128),
                    (a.lo as i128 - b.lo as i128).unsigned_abs(),
                ),
            ),
            AluOp::MinU | AluOp::MaxU => {
                if a.nonneg() && b.nonneg() {
                    let signed = if op == AluOp::MinU {
                        AluOp::MinS
                    } else {
                        AluOp::MaxS
                    };
                    Interval::binop(signed, a, b)
                } else {
                    Interval::top()
                }
            }
        }
    }
}

/// Symbolic linear combination of kernel arguments: sorted
/// `(arg_index, coefficient)` pairs with no zero coefficients. The same
/// argument index always denotes the same (launch-uniform) value, which
/// is what lets two addresses sharing a base like `n·8` cancel exactly
/// in the race check.
pub(crate) type Syms = Vec<(u8, i64)>;

/// `a + sign·b` coefficient-wise; `None` on coefficient overflow.
fn sym_combine(a: &Syms, b: &Syms, sign: i64) -> Option<Syms> {
    let mut out: Syms = a.clone();
    for &(idx, c) in b {
        let c = c.checked_mul(sign)?;
        match out.binary_search_by_key(&idx, |e| e.0) {
            Ok(i) => {
                let n = out[i].1.checked_add(c)?;
                if n == 0 {
                    out.remove(i);
                } else {
                    out[i].1 = n;
                }
            }
            Err(i) => out.insert(i, (idx, c)),
        }
    }
    Some(out)
}

/// `a · k` coefficient-wise; `None` on coefficient overflow.
fn sym_scale(a: &Syms, k: i64) -> Option<Syms> {
    if k == 0 {
        return Some(Vec::new());
    }
    a.iter()
        .map(|&(idx, c)| c.checked_mul(k).map(|n| (idx, n)))
        .collect()
}

/// Abstract register value: thread shape over an [`Interval`] core.
/// See the module docs for the exact (modular) claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AbsVal {
    pub cw: i64,
    pub rest: Interval,
    pub cl: Option<i64>,
    pub syms: Syms,
    pub arg: bool,
}

impl AbsVal {
    /// No information: any value, any shape.
    pub fn top() -> AbsVal {
        AbsVal {
            cw: 0,
            rest: Interval::top(),
            cl: None,
            syms: Vec::new(),
            arg: false,
        }
    }

    /// Any value, but identical across the lanes of each warp.
    pub fn top_uniform() -> AbsVal {
        AbsVal {
            cl: Some(0),
            ..AbsVal::top()
        }
    }

    /// A compile-time constant (identical on every thread).
    pub fn cst(v: i64) -> AbsVal {
        AbsVal {
            cw: 0,
            rest: Interval::cst(v),
            cl: Some(0),
            syms: Vec::new(),
            arg: false,
        }
    }

    /// Exactly the value of kernel argument `idx`.
    pub fn arg_base(idx: u8) -> AbsVal {
        AbsVal {
            cw: 0,
            rest: Interval::cst(0),
            cl: Some(0),
            syms: vec![(idx, 1)],
            arg: true,
        }
    }

    /// The constant value, if the same on every thread.
    pub fn as_const(&self) -> Option<i64> {
        if self.cw == 0 && self.syms.is_empty() {
            self.rest.as_const()
        } else {
            None
        }
    }

    /// Interval covering the value on **every** thread of the launch:
    /// `rest + cw·[0, warps_per_core − 1]`, or top when the value
    /// involves an argument of unknown magnitude.
    pub fn full_range(&self, geom: &AnalyzeGeom) -> Interval {
        if !self.syms.is_empty() {
            return Interval::top();
        }
        if self.cw == 0 {
            return self.rest;
        }
        let wmax = geom.warps_per_core.saturating_sub(1) as i128;
        let shift = self.cw as i128 * wmax;
        let (lo, hi) = if shift >= 0 {
            (self.rest.lo as i128, self.rest.hi as i128 + shift)
        } else {
            (self.rest.lo as i128 + shift, self.rest.hi as i128)
        };
        Interval::from_i128(
            lo,
            hi,
            gcd(self.rest.stride as u128, self.cw.unsigned_abs() as u128),
        )
    }

    /// Least upper bound. Mismatched warp coefficients or argument terms
    /// fold into the plain interval hull of both full ranges.
    pub fn join(a: &AbsVal, b: &AbsVal, geom: &AnalyzeGeom) -> AbsVal {
        let cl = if a.cl == b.cl { a.cl } else { None };
        let arg = a.arg || b.arg;
        if a.cw == b.cw && a.syms == b.syms {
            AbsVal {
                cw: a.cw,
                rest: Interval::join(a.rest, b.rest),
                cl,
                syms: a.syms.clone(),
                arg,
            }
        } else {
            AbsVal {
                cw: 0,
                rest: Interval::join(a.full_range(geom), b.full_range(geom)),
                cl,
                syms: Vec::new(),
                arg,
            }
        }
    }

    /// Widening counterpart of [`AbsVal::join`] for loop heads.
    pub fn widen(old: &AbsVal, new: &AbsVal, geom: &AnalyzeGeom) -> AbsVal {
        let j = AbsVal::join(old, new, geom);
        let base = if j.cw == old.cw && j.syms == old.syms {
            old.rest
        } else {
            old.full_range(geom)
        };
        AbsVal {
            rest: Interval::widen(base, j.rest),
            ..j
        }
    }

    /// Generic (shape-losing) transfer: interval arithmetic over the
    /// full thread ranges; lane-uniformity survives iff both operands
    /// are uniform (the op applied to equal inputs gives equal outputs).
    fn fallback(op: AluOp, a: &AbsVal, b: &AbsVal, geom: &AnalyzeGeom) -> AbsVal {
        AbsVal {
            cw: 0,
            rest: Interval::binop(op, a.full_range(geom), b.full_range(geom)),
            cl: if a.cl == Some(0) && b.cl == Some(0) {
                Some(0)
            } else {
                None
            },
            syms: Vec::new(),
            arg: a.arg || b.arg,
        }
    }

    /// `a ± b` keeping the linear shape. Sound without overflow checks
    /// on the value itself because every claim is mod 2^64; only the
    /// (rare) coefficient overflows bail out.
    fn linear(op: AluOp, a: &AbsVal, b: &AbsVal) -> Option<AbsVal> {
        let add = op == AluOp::Add;
        let sign = if add { 1 } else { -1 };
        Some(AbsVal {
            cw: if add {
                a.cw.checked_add(b.cw)?
            } else {
                a.cw.checked_sub(b.cw)?
            },
            rest: if add {
                a.rest.add(b.rest)
            } else {
                a.rest.sub(b.rest)
            },
            cl: match (a.cl, b.cl) {
                (Some(x), Some(y)) => {
                    if add {
                        x.checked_add(y)
                    } else {
                        x.checked_sub(y)
                    }
                }
                _ => None,
            },
            syms: sym_combine(&a.syms, &b.syms, sign)?,
            arg: a.arg || b.arg,
        })
    }

    /// `a · k` keeping the linear shape (mod-2^64 claims survive the
    /// multiplication; the interval part widens to top if it escapes).
    fn scale(a: &AbsVal, k: i64) -> Option<AbsVal> {
        if k == 0 {
            return Some(AbsVal::cst(0));
        }
        Some(AbsVal {
            cw: a.cw.checked_mul(k)?,
            rest: a.rest.mul_const(k),
            cl: match a.cl {
                Some(c) => Some(c.checked_mul(k)?),
                None => None,
            },
            syms: sym_scale(&a.syms, k)?,
            arg: a.arg,
        })
    }

    /// Transfer for `rd <- op(a, b)`.
    pub fn alu(op: AluOp, a: &AbsVal, b: &AbsVal, geom: &AnalyzeGeom) -> AbsVal {
        match op {
            AluOp::Add | AluOp::Sub => {
                AbsVal::linear(op, a, b).unwrap_or_else(|| AbsVal::fallback(op, a, b, geom))
            }
            AluOp::Mul => if let Some(k) = b.as_const() {
                AbsVal::scale(a, k)
            } else if let Some(k) = a.as_const() {
                AbsVal::scale(b, k)
            } else {
                None
            }
            .unwrap_or_else(|| AbsVal::fallback(op, a, b, geom)),
            AluOp::Sll => match b.as_const() {
                Some(s) if (s as u64 & 63) <= 62 => AbsVal::scale(a, 1i64 << (s as u64 & 63))
                    .unwrap_or_else(|| AbsVal::fallback(op, a, b, geom)),
                _ => AbsVal::fallback(op, a, b, geom),
            },
            _ => AbsVal::fallback(op, a, b, geom),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> AnalyzeGeom {
        AnalyzeGeom {
            num_cores: 2,
            warps_per_core: 4,
            threads_per_warp: 8,
            shared_mem_bytes: 1024,
        }
    }

    fn lane() -> AbsVal {
        AbsVal {
            cw: 0,
            rest: Interval::range(0, 7),
            cl: Some(1),
            syms: Vec::new(),
            arg: false,
        }
    }

    #[test]
    fn interval_make_normalizes() {
        let i = Interval::make(0, 10, 4);
        assert_eq!((i.lo, i.hi, i.stride), (0, 8, 4));
        assert_eq!(Interval::make(5, 5, 9), Interval::cst(5));
        // Power-of-2 congruences survive a MIN anchor (MIN ≡ 0 mod 2^k)…
        assert!(Interval::make(i64::MIN, 3, 8).stride == 8);
        // …but anything else degrades to stride 1.
        assert!(Interval::make(i64::MIN, 3, 6).stride == 1);
    }

    #[test]
    fn interval_join_keeps_congruence() {
        let a = Interval::make(0, 16, 8);
        let b = Interval::make(4, 20, 8);
        let j = Interval::join(a, b);
        assert_eq!((j.lo, j.hi, j.stride), (0, 20, 4));
        assert!(j.contains(12));
        assert!(!j.contains(13));
    }

    #[test]
    fn interval_widen_keeps_upward_stride() {
        let old = Interval::make(0, 16, 8);
        let new = Interval::make(0, 24, 8);
        let w = Interval::widen(old, new);
        assert_eq!(w.lo, 0);
        assert_eq!(w.stride, 8);
        assert_eq!(w.hi, i64::MAX - (i64::MAX % 8));
        let down = Interval::widen(old, Interval::make(-8, 16, 8));
        assert_eq!(down.lo, i64::MIN); // −8 ≡ 0 (mod 8), MIN ≡ 0 too
        assert_eq!(down.stride, 8);
        assert_eq!(down.hi, 16);
    }

    #[test]
    fn interval_binop_wraps_to_top_on_overflow() {
        let big = Interval::cst(i64::MAX);
        let j = Interval::binop(AluOp::Add, big, Interval::range(0, 1));
        assert!(j.is_top());
        // Const-const stays exact even when wrapping.
        let c = Interval::binop(AluOp::Add, big, Interval::cst(1));
        assert_eq!(c.as_const(), Some(i64::MIN));
    }

    #[test]
    fn interval_shifts() {
        let a = Interval::make(0, 64, 8);
        let l = Interval::binop(AluOp::Sll, a, Interval::cst(3));
        assert_eq!((l.lo, l.hi, l.stride), (0, 512, 64));
        let r = Interval::binop(AluOp::Srl, l, Interval::cst(3));
        assert_eq!((r.lo, r.hi, r.stride), (0, 64, 8));
        let neg = Interval::binop(AluOp::Srl, Interval::range(-4, 4), Interval::cst(1));
        assert!(neg.contains((u64::MAX >> 1) as i64));
    }

    #[test]
    fn comparison_refinement() {
        let lo = Interval::range(0, 3);
        let hi = Interval::range(10, 20);
        assert_eq!(Interval::binop(AluOp::SltU, lo, hi).as_const(), Some(1));
        assert_eq!(Interval::binop(AluOp::SltU, hi, lo).as_const(), Some(0));
        assert_eq!(Interval::binop(AluOp::Seq, lo, hi).as_const(), Some(0));
        let sneg = Interval::binop(AluOp::SltU, Interval::range(0, 5), Interval::cst(-1));
        assert_eq!(sneg.as_const(), Some(1)); // -1 is u64::MAX unsigned
    }

    #[test]
    fn absval_lane_affine_add_and_scale() {
        let g = geom();
        let scaled = AbsVal::alu(AluOp::Sll, &lane(), &AbsVal::cst(3), &g);
        assert_eq!(scaled.cl, Some(8));
        assert_eq!(
            (scaled.rest.lo, scaled.rest.hi, scaled.rest.stride),
            (0, 56, 8)
        );
        let shifted = AbsVal::alu(AluOp::Add, &scaled, &AbsVal::cst(100), &g);
        assert_eq!(shifted.cl, Some(8));
        assert_eq!(shifted.rest.lo, 100);
    }

    #[test]
    fn absval_warp_coefficient_threads_through_linear_ops() {
        let g = geom();
        let warp = AbsVal {
            cw: 1,
            rest: Interval::cst(0),
            cl: Some(0),
            syms: Vec::new(),
            arg: false,
        };
        let base = AbsVal::alu(AluOp::Mul, &warp, &AbsVal::cst(256), &g);
        assert_eq!(base.cw, 256);
        let full = base.full_range(&g);
        assert_eq!((full.lo, full.hi), (0, 768));
        assert_eq!(full.stride, 256);
    }

    #[test]
    fn absval_join_mismatched_cw_folds_to_full_range() {
        let g = geom();
        let a = AbsVal {
            cw: 8,
            rest: Interval::cst(0),
            cl: Some(0),
            syms: Vec::new(),
            arg: false,
        };
        let b = AbsVal::cst(5);
        let j = AbsVal::join(&a, &b, &g);
        assert_eq!(j.cw, 0);
        assert_eq!((j.rest.lo, j.rest.hi), (0, 24));
        assert_eq!(j.cl, Some(0));
    }

    #[test]
    fn absval_modular_add_keeps_lane_shape_across_wrap() {
        let g = geom();
        // lane + (i64::MAX - 3): some lanes wrap, but the mod-2^64
        // affinity claim survives; the readable range does not.
        let sum = AbsVal::alu(AluOp::Add, &lane(), &AbsVal::cst(i64::MAX - 3), &g);
        assert_eq!(sum.cl, Some(1));
        assert!(sum.rest.is_top());
    }

    #[test]
    fn absval_argument_bases_cancel_in_subtraction() {
        let g = geom();
        let p = AbsVal::alu(AluOp::Add, &AbsVal::arg_base(3), &AbsVal::cst(64), &g);
        let q = AbsVal::alu(AluOp::Sub, &p, &AbsVal::arg_base(3), &g);
        assert_eq!(q.as_const(), Some(64));
        assert!(q.arg); // taint survives even when the symbol cancels
                        // An argument value cannot be read back as a plain range.
        assert!(p.full_range(&g).is_top());
        assert_eq!(p.rest.as_const(), Some(64));
    }

    #[test]
    fn sym_combine_and_scale() {
        let a: Syms = vec![(0, 2), (3, 1)];
        let b: Syms = vec![(3, 1), (5, 4)];
        assert_eq!(
            sym_combine(&a, &b, 1).unwrap(),
            vec![(0, 2), (3, 2), (5, 4)]
        );
        assert_eq!(sym_combine(&a, &b, -1).unwrap(), vec![(0, 2), (5, -4)]);
        assert_eq!(sym_scale(&a, -3).unwrap(), vec![(0, -6), (3, -3)]);
        assert_eq!(sym_scale(&a, 0).unwrap(), Vec::<(u8, i64)>::new());
    }
}
