//! Per-warp state: registers, scoreboard, IPDOM divergence stack.

use sparseweaver_isa::{Reg, NUM_REGS};
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

use crate::stats::{PendKind, Phase};

/// One IPDOM (immediate post-dominator) stack entry pushed by `split`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimtEntry {
    /// Mask to restore at reconvergence.
    pub saved_mask: u64,
    /// Lanes that take the else side.
    pub else_mask: u64,
    /// Program counter of the else side.
    pub else_pc: u32,
    /// Program counter just past the region's final `join`.
    pub end_pc: u32,
    /// Whether the else side is currently executing.
    pub in_else: bool,
}

/// Warp scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Eligible for issue.
    Running,
    /// Parked at a core barrier.
    AtBarrier,
    /// Kernel finished.
    Halted,
}

sparseweaver_trace::snapshot_fields!(SimtEntry {
    saved_mask,
    else_mask,
    else_pc,
    end_pc,
    in_else
});

impl Snapshot for WarpState {
    fn save(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        let id = d.u8()?;
        *self = [WarpState::Running, WarpState::AtBarrier, WarpState::Halted]
            .get(id as usize)
            .copied()
            .ok_or_else(|| d.corrupt(format!("invalid warp state id {id}")))?;
        Ok(())
    }
}

/// One warp: lockstep lanes with private registers and a shared program
/// counter, scoreboard and divergence stack.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Active lane mask.
    pub active: u64,
    /// Scheduling state.
    pub state: WarpState,
    /// Divergence stack.
    pub simt: Vec<SimtEntry>,
    /// Current phase for cycle attribution.
    pub phase: Phase,
    /// Register-major register file: `regs[reg * lanes + lane]`, so each
    /// register is one contiguous row of `lanes` words that a warp-wide
    /// instruction reads and writes in one pass. Row 0 (`x0`) is always
    /// zero: every writer skips it and a restore rejects a non-zero word.
    regs: Vec<u64>,
    /// Cycle at which each register's pending write completes.
    ready: [u64; NUM_REGS],
    /// What kind of producer each pending register waits on.
    pend: [PendKind; NUM_REGS],
    lanes: usize,
}

impl Warp {
    /// Creates a warp with `lanes` lanes, all active, at pc 0.
    pub fn new(lanes: usize) -> Self {
        Warp {
            pc: 0,
            active: full_mask(lanes),
            state: WarpState::Running,
            simt: Vec::new(),
            phase: Phase::Init,
            regs: vec![0; lanes * NUM_REGS],
            ready: [0; NUM_REGS],
            pend: [PendKind::None; NUM_REGS],
            lanes,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Resets for a new kernel launch.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.active = full_mask(self.lanes);
        self.state = WarpState::Running;
        self.simt.clear();
        self.phase = Phase::Init;
        self.regs.iter_mut().for_each(|r| *r = 0);
        self.ready = [0; NUM_REGS];
        self.pend = [PendKind::None; NUM_REGS];
    }

    /// Reads `reg` in `lane` (x0 is always zero).
    pub fn read(&self, lane: usize, reg: Reg) -> u64 {
        self.row(reg)[lane]
    }

    /// `reg` across all lanes, lane `l` at index `l` (x0 is all zeros).
    pub fn row(&self, reg: Reg) -> &[u64] {
        let start = reg.0 as usize * self.lanes;
        &self.regs[start..start + self.lanes]
    }

    /// Writes `vals[l]` into `reg` for every lane `l` set in `mask`, leaving
    /// the other lanes as they were (writes to x0 are ignored). `vals`
    /// holds at least one word per lane; words past the last lane are
    /// ignored, so a caller can pass a whole fixed-size row.
    pub fn write_row(&mut self, reg: Reg, vals: &[u64], mask: u64) {
        if reg.0 == 0 {
            return;
        }
        let start = reg.0 as usize * self.lanes;
        let row = &mut self.regs[start..start + self.lanes];
        if mask == full_mask(self.lanes) {
            row.copy_from_slice(&vals[..self.lanes]);
        } else {
            for l in lanes_of(mask) {
                row[l] = vals[l];
            }
        }
    }

    /// Writes `f(l)` into `reg` for every lane `l` set in `mask`, leaving
    /// the other lanes as they were (writes to x0 are ignored). For a row
    /// computed from a scalar or the lane index, with no source row that
    /// `reg` could alias.
    pub fn write_lanes(&mut self, reg: Reg, mask: u64, f: impl Fn(usize) -> u64) {
        if reg.0 == 0 {
            return;
        }
        let start = reg.0 as usize * self.lanes;
        let row = &mut self.regs[start..start + self.lanes];
        if mask == full_mask(self.lanes) {
            for (l, r) in row.iter_mut().enumerate() {
                *r = f(l);
            }
        } else {
            for l in lanes_of(mask) {
                row[l] = f(l);
            }
        }
    }

    /// Marks `reg` as pending until `ready_at` with producer `kind`.
    pub fn set_pending(&mut self, reg: Reg, ready_at: u64, kind: PendKind) {
        if reg.0 != 0 {
            self.ready[reg.0 as usize] = ready_at;
            self.pend[reg.0 as usize] = kind;
        }
    }

    /// When `reg` becomes available, and on what.
    pub fn reg_pending(&self, reg: Reg) -> (u64, PendKind) {
        (self.ready[reg.0 as usize], self.pend[reg.0 as usize])
    }

    /// The soonest-ready register still pending at `cycle`, as
    /// `(ready_at, producer)` — hang-diagnostics helper.
    pub fn soonest_pending(&self, cycle: u64) -> Option<(u64, PendKind)> {
        let mut best: Option<(u64, PendKind)> = None;
        for r in 1..NUM_REGS {
            if self.ready[r] > cycle && best.is_none_or(|(t, _)| self.ready[r] < t) {
                best = Some((self.ready[r], self.pend[r]));
            }
        }
        best
    }

    /// Flips one bit of `reg` in `lane` (fault injection). Flips into x0
    /// or out-of-range coordinates are ignored.
    pub fn flip_bit(&mut self, lane: usize, reg: usize, bit: u32) {
        if reg != 0 && reg < NUM_REGS && lane < self.lanes {
            self.regs[reg * self.lanes + lane] ^= 1u64 << (bit & 63);
        }
    }

    /// Value of `reg` in the lowest active lane (uniform reads).
    pub fn read_uniform(&self, reg: Reg) -> u64 {
        let lane = self.active.trailing_zeros() as usize;
        self.read(lane.min(self.lanes - 1), reg)
    }

    /// Number of active lanes.
    pub fn active_count(&self) -> u32 {
        self.active.count_ones()
    }
}

/// A mask with the low `lanes` bits set.
pub fn full_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// The set lanes of `mask`, ascending. It takes the mask by value, free of
/// any warp borrow, so the execution loops can walk a saved mask while
/// mutating the warp without collecting into a `Vec` first.
pub fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(l)
        }
    })
}

/// PC, mask, scheduling state, divergence stack, phase, register file
/// and scoreboard. The restoring warp must have the same lane count.
///
/// The register file is saved in the checkpoint format's lane-major word
/// order (word `lane * NUM_REGS + reg`) and transposed back into rows on
/// restore. A non-zero `x0` word is corrupt: x0 reads as zero, and a row
/// read would otherwise expose the stored word.
impl Snapshot for Warp {
    fn save(&self, e: &mut Enc) {
        self.pc.save(e);
        self.active.save(e);
        self.state.save(e);
        self.simt.save(e);
        self.phase.save(e);
        e.usize(self.regs.len());
        for lane in 0..self.lanes {
            for reg in 0..NUM_REGS {
                e.u64(self.regs[reg * self.lanes + lane]);
            }
        }
        e.seq(&self.ready);
        e.seq(&self.pend);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.pc.restore(d)?;
        self.active.restore(d)?;
        self.state.restore(d)?;
        self.simt.restore(d)?;
        self.phase.restore(d)?;
        d.expect_len("register words", self.regs.len())?;
        for lane in 0..self.lanes {
            for reg in 0..NUM_REGS {
                let word = d.u64()?;
                if reg == 0 && word != 0 {
                    return Err(d.corrupt(format!("non-zero x0 word {word:#x} in lane {lane}")));
                }
                self.regs[reg * self.lanes + lane] = word;
            }
        }
        d.restore_seq("scoreboard", &mut self.ready)?;
        d.restore_seq("scoreboard producers", &mut self.pend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_reads_zero_and_ignores_writes() {
        let mut w = Warp::new(4);
        w.write_row(Reg(0), &[99; 4], 0b1111);
        w.write_row(Reg(0), &[99; 4], 0b0100);
        w.flip_bit(2, 0, 5);
        assert_eq!(w.read(2, Reg(0)), 0);
        assert_eq!(w.row(Reg(0)), &[0; 4]);
    }

    #[test]
    fn registers_are_per_lane() {
        let mut w = Warp::new(4);
        w.write_row(Reg(5), &[10, 20, 30, 40], 0b0011);
        assert_eq!(w.read(0, Reg(5)), 10);
        assert_eq!(w.read(1, Reg(5)), 20);
        assert_eq!(w.row(Reg(5)), &[10, 20, 0, 0]);
    }

    #[test]
    fn masked_row_write_leaves_inactive_lanes() {
        let mut w = Warp::new(4);
        w.write_row(Reg(3), &[1, 2, 3, 4], 0b1111);
        w.write_row(Reg(3), &[10, 20, 30, 40], 0b0101);
        assert_eq!(w.row(Reg(3)), &[10, 2, 30, 4]);
    }

    /// Saves a warp whose word at `(lane, reg)` is `value(lane, reg)` and
    /// returns the bytes plus the offset of the first register word.
    fn saved_with_distinct_words(lanes: usize) -> (Vec<u8>, usize) {
        let mut w = Warp::new(lanes);
        w.pc = 9;
        w.active = 0b101;
        for reg in 1..NUM_REGS {
            let row: Vec<u64> = (0..lanes).map(|lane| value(lane, reg)).collect();
            w.write_row(Reg(reg as u8), &row, full_mask(lanes));
        }
        // The fields `save` writes ahead of the register words.
        let mut head = Enc::new();
        w.pc.save(&mut head);
        w.active.save(&mut head);
        w.state.save(&mut head);
        w.simt.save(&mut head);
        w.phase.save(&mut head);
        let mut e = Enc::new();
        w.save(&mut e);
        (e.into_bytes(), head.into_bytes().len())
    }

    fn value(lane: usize, reg: usize) -> u64 {
        if reg == 0 {
            0
        } else {
            0xa000_0000 + (lane as u64) * 0x100 + reg as u64
        }
    }

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn checkpoint_register_words_are_lane_major() {
        let lanes = 4;
        let (bytes, head) = saved_with_distinct_words(lanes);
        assert_eq!(word(&bytes, head), (lanes * NUM_REGS) as u64, "word count");
        let words = head + 8;
        for lane in 0..lanes {
            for reg in 0..NUM_REGS {
                let at = words + 8 * (lane * NUM_REGS + reg);
                assert_eq!(word(&bytes, at), value(lane, reg), "lane {lane} x{reg}");
            }
        }
        let mut back = Warp::new(lanes);
        let mut d = Dec::new(&bytes);
        back.restore(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.read(3, Reg(17)), value(3, 17));
        assert_eq!(back.row(Reg(0)), &[0; 4]);
        let mut again = Enc::new();
        back.save(&mut again);
        assert_eq!(again.into_bytes(), bytes, "save -> restore -> save");
    }

    #[test]
    fn checkpoint_rejects_a_non_zero_x0_word() {
        let lanes = 4;
        let (mut bytes, head) = saved_with_distinct_words(lanes);
        // Lane 2's x0 word.
        let at = head + 8 + 8 * (2 * NUM_REGS);
        bytes[at..at + 8].copy_from_slice(&5u64.to_le_bytes());
        let mut w = Warp::new(lanes);
        let err = w.restore(&mut Dec::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, CodecError::Corrupt { what } if what.contains("x0")),
            "{err:?}"
        );
        assert_eq!(w.row(Reg(0)), &[0; 4]);
    }

    #[test]
    fn scoreboard_tracks_readiness() {
        let mut w = Warp::new(4);
        assert_eq!(w.reg_pending(Reg(3)), (0, PendKind::None));
        w.set_pending(Reg(3), 100, PendKind::Memory);
        assert_eq!(w.reg_pending(Reg(3)), (100, PendKind::Memory));
    }

    #[test]
    fn x0_never_pends() {
        let mut w = Warp::new(4);
        w.set_pending(Reg(0), 100, PendKind::Memory);
        assert_eq!(w.reg_pending(Reg(0)), (0, PendKind::None));
    }

    #[test]
    fn active_lanes_iteration() {
        let mut w = Warp::new(4);
        w.active = 0b1010;
        let lanes: Vec<_> = lanes_of(w.active).collect();
        assert_eq!(lanes, vec![1, 3]);
        assert_eq!(w.active_count(), 2);
    }

    #[test]
    fn lanes_of_matches_a_naive_bit_filter() {
        for mask in [0u64, 0b1, 0b1010, 0b1111, u64::MAX >> 32, u64::MAX, 1 << 63] {
            let naive: Vec<_> = (0..64).filter(|&l| mask >> l & 1 == 1).collect();
            let via_mask: Vec<_> = lanes_of(mask).collect();
            assert_eq!(via_mask, naive, "mask {mask:b}");
        }
    }

    #[test]
    fn uniform_read_uses_lowest_active_lane() {
        let mut w = Warp::new(4);
        w.write_row(Reg(7), &[0, 42, 43, 44], 0b1111);
        w.active = 0b1110;
        assert_eq!(w.read_uniform(Reg(7)), 42);
    }

    #[test]
    fn full_mask_widths() {
        assert_eq!(full_mask(4), 0b1111);
        assert_eq!(full_mask(64), u64::MAX);
    }

    #[test]
    fn reset_restores_everything() {
        let mut w = Warp::new(4);
        w.pc = 10;
        w.active = 1;
        w.state = WarpState::Halted;
        w.write_row(Reg(1), &[5; 4], 0b1111);
        w.set_pending(Reg(1), 50, PendKind::Exec);
        w.reset();
        assert_eq!(w.pc, 0);
        assert_eq!(w.active, 0b1111);
        assert_eq!(w.state, WarpState::Running);
        assert_eq!(w.read(0, Reg(1)), 0);
        assert_eq!(w.reg_pending(Reg(1)), (0, PendKind::None));
    }
}
