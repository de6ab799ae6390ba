//! The warp-wide lane kernels (`apply_lanes`, `apply_lanes_scalar`,
//! `eval_lanes`) must equal the scalar per-lane operations bit for bit, on
//! the edge values where a vectorised loop could round, saturate or
//! canonicalise differently.

use sparseweaver_isa::{AluOp, BrCond, FCmpOp, FpuOp};

/// Integer edge values: 0, 1 and all-ones; `i64::MIN` with `-1` (the
/// overflowing signed division); shift amounts at and past 64; and a few
/// ordinary words.
fn int_edges() -> Vec<u64> {
    vec![
        0,
        1,
        2,
        7,
        u64::MAX,
        i64::MIN as u64,
        i64::MAX as u64,
        (-1i64) as u64,
        (-8i64) as u64,
        63,
        64,
        65,
        127,
        128,
        200,
        0x0123_4567_89ab_cdef,
    ]
}

/// Float edge values as bit patterns: signed zeros, quiet and signalling
/// NaNs with payloads, infinities, subnormals and ordinary numbers.
fn float_edges() -> Vec<u64> {
    vec![
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        f64::NAN.to_bits(),
        0x7ff8_0000_dead_beef,
        0xfff8_0000_0000_0001,
        0x7ff0_0000_0000_0001,
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::MIN_POSITIVE.to_bits(),
        1,
        1.0f64.to_bits(),
        (-1.5f64).to_bits(),
        f64::MAX.to_bits(),
        3.25f64.to_bits(),
    ]
}

/// Every ordered pair of `values`, split into `a` and `b` columns.
fn all_pairs(values: &[u64]) -> (Vec<u64>, Vec<u64>) {
    values
        .iter()
        .flat_map(|&a| values.iter().map(move |&b| (a, b)))
        .unzip()
}

/// Runs `lanes` over `a`/`b` in warp-sized rows of several widths and
/// checks every lane against `scalar`.
fn check_rows(
    what: &str,
    a: &[u64],
    b: &[u64],
    scalar: impl Fn(u64, u64) -> u64,
    lanes: impl Fn(&[u64], &[u64], &mut [u64]),
) {
    for width in [1, 4, 7, 32, 64] {
        for (ra, rb) in a.chunks(width).zip(b.chunks(width)) {
            let mut out = vec![0xdead_dead; ra.len()];
            lanes(ra, rb, &mut out);
            for (l, ((&x, &y), &got)) in ra.iter().zip(rb).zip(&out).enumerate() {
                assert_eq!(
                    got,
                    scalar(x, y),
                    "{what} lane {l} of a {width}-lane row: a={x:#x} b={y:#x}"
                );
            }
        }
    }
}

#[test]
fn alu_lanes_match_scalar_apply() {
    let (a, b) = all_pairs(&int_edges());
    for op in AluOp::ALL {
        check_rows(
            &format!("{op:?}"),
            &a,
            &b,
            |x, y| op.apply(x, y),
            |ra, rb, out| op.apply_lanes(ra, rb, out),
        );
    }
}

#[test]
fn alu_scalar_operand_lanes_match_scalar_apply() {
    let a: Vec<u64> = int_edges().repeat(5);
    for op in AluOp::ALL {
        for imm in int_edges() {
            check_rows(
                &format!("{op:?} with scalar {imm:#x}"),
                &a,
                &vec![imm; a.len()],
                |x, y| op.apply(x, y),
                |ra, _, out| op.apply_lanes_scalar(ra, imm, out),
            );
        }
    }
}

#[test]
fn fpu_lanes_match_scalar_apply() {
    let (a, b) = all_pairs(&float_edges());
    for op in FpuOp::ALL {
        check_rows(
            &format!("{op:?}"),
            &a,
            &b,
            |x, y| op.apply(x, y),
            |ra, rb, out| op.apply_lanes(ra, rb, out),
        );
    }
}

#[test]
fn fcmp_lanes_match_scalar_apply() {
    let (a, b) = all_pairs(&float_edges());
    for op in FCmpOp::ALL {
        check_rows(
            &format!("{op:?}"),
            &a,
            &b,
            |x, y| op.apply(x, y),
            |ra, rb, out| op.apply_lanes(ra, rb, out),
        );
    }
}

#[test]
fn branch_lane_masks_match_scalar_eval() {
    let (a, b) = all_pairs(&int_edges());
    for cond in BrCond::ALL {
        check_rows(
            &format!("{cond:?}"),
            &a,
            &b,
            |x, y| cond.eval(x, y) as u64,
            |ra, rb, out| {
                let mask = cond.eval_lanes(ra, rb);
                assert_eq!(mask >> 1 >> (ra.len() - 1), 0, "bits past the row");
                for (l, o) in out.iter_mut().enumerate() {
                    *o = mask >> l & 1;
                }
            },
        );
    }
}
