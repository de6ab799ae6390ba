//! The edge-generating hardware (EGHW) baseline of Case Study 1.
//!
//! EGHW models the prior hardware schemes (SCU, GraphPEG): a per-core unit
//! that receives only vertex IDs from the GPU, then *itself* reads the
//! graph topology and the edge information from memory and stages complete
//! edge records in a shared-memory buffer that the GPU polls.
//!
//! The crucial difference from Weaver — and the reason SparseWeaver wins by
//! 3.64x in Fig. 18 — is that EGHW's memory reads happen inside a single
//! serial state machine: they cannot be overlapped with each other or
//! hidden behind other warps' execution the way the GPU pipeline hides the
//! latency of ordinary loads. The unit also costs extra shared-memory
//! traffic to stage and re-read the generated edge data.

use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

/// Graph buffer addresses the unit dereferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EghwLayout {
    /// Base address of the CSR offsets array (`u32` entries).
    pub offsets_base: u64,
    /// Base address of the edge target array (`u32` entries).
    pub edges_base: u64,
    /// Base address of the edge weight array (`u32` entries).
    pub weights_base: u64,
}

sparseweaver_trace::snapshot_fields!(EghwLayout {
    offsets_base,
    edges_base,
    weights_base
});

/// One batch of staged edge records (one per lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EghwBatch {
    /// Base vertex ID per lane (-1 when empty).
    pub vids: Vec<i64>,
    /// Edge index per lane (-1 when empty).
    pub eids: Vec<i64>,
    /// Opposite vertex ID per lane (pre-fetched by the unit).
    pub others: Vec<i64>,
    /// Edge weight per lane (pre-fetched by the unit).
    pub weights: Vec<i64>,
    /// Cycle at which the staged records are visible to the warp.
    pub ready_at: u64,
    /// Whether the work list is exhausted (all lanes -1).
    pub exhausted: bool,
    /// Number of global-memory reads the unit performed for this batch.
    pub unit_reads: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Current {
    vid: u32,
    next_eid: u32,
    remaining: u32,
}

sparseweaver_trace::snapshot_fields!(Current {
    vid,
    next_eid,
    remaining
});

/// The EGHW unit state.
///
/// Memory is reached through a caller-supplied closure so the unit stays
/// decoupled from the simulator:
/// `read(addr, width) -> (value, latency_in_cycles)`.
#[derive(Debug, Clone)]
pub struct EghwUnit {
    lanes: usize,
    layout: EghwLayout,
    /// Registered vertex IDs by hardware slot (warp * lanes + lane).
    slots: Vec<Option<u32>>,
    cursor: usize,
    current: Option<Current>,
    in_registration: bool,
    busy_until: u64,
    /// One-line stream buffers (offsets / edges / weights), as in SCU's
    /// streaming design: a read that stays within the previously fetched
    /// 64-byte line costs one cycle instead of a memory round trip.
    line_buf: [Option<u64>; 3],
    /// Total unit-issued memory reads.
    pub total_reads: u64,
}

impl EghwUnit {
    /// Creates a unit for a core with `warps` warps of `lanes` lanes.
    pub fn new(warps: usize, lanes: usize) -> Self {
        EghwUnit {
            lanes,
            layout: EghwLayout::default(),
            slots: vec![None; warps * lanes],
            cursor: 0,
            current: None,
            in_registration: false,
            busy_until: 0,
            line_buf: [None; 3],
            total_reads: 0,
        }
    }

    /// Installs the graph buffer addresses for this kernel.
    pub fn set_layout(&mut self, layout: EghwLayout) {
        self.layout = layout;
    }

    /// Registers vertex IDs from `warp` (`(lane, vid)` records). Unlike
    /// Weaver, only the vertex ID crosses the interface; the unit reads
    /// topology itself.
    pub fn reg(
        &mut self,
        warp: usize,
        records: impl IntoIterator<Item = (usize, u32)>,
        now: u64,
    ) -> u64 {
        if !self.in_registration {
            for s in &mut self.slots {
                *s = None;
            }
            self.cursor = 0;
            self.current = None;
            self.line_buf = [None; 3];
            self.in_registration = true;
        }
        let mut count = 0;
        for (lane, vid) in records {
            self.slots[warp * self.lanes + lane] = Some(vid);
            count += 1;
        }
        // Writing vids into the unit's buffer: one cycle per record.
        let start = now.max(self.busy_until);
        self.busy_until = start + count;
        self.busy_until
    }

    /// Produces the next batch of `lanes` edge records, performing the
    /// unit's own (serial, unoverlapped) memory reads through
    /// `read(addr, width, now) -> (value, latency)`. Each read is issued
    /// at the unit's advancing clock — strictly one at a time, which is
    /// exactly the weakness Case Study 1 demonstrates.
    pub fn dec<F>(&mut self, now: u64, mut read: F) -> EghwBatch
    where
        F: FnMut(u64, u64, u64) -> (u64, u64),
    {
        self.in_registration = false;
        let mut t = now.max(self.busy_until);
        let mut vids = vec![-1i64; self.lanes];
        let mut eids = vec![-1i64; self.lanes];
        let mut others = vec![-1i64; self.lanes];
        let mut weights = vec![-1i64; self.lanes];
        let mut filled = 0usize;
        let mut unit_reads = 0u32;

        let line_buf = &mut self.line_buf;
        let mut serial_read = |t: &mut u64, stream: usize, addr: u64, width: u64| -> u64 {
            let line = addr / 64;
            if line_buf[stream] == Some(line) {
                // Stream-buffer hit: the line is already latched.
                let (value, _) = read(addr, width, *t);
                *t += 1;
                return value;
            }
            let (value, lat) = read(addr, width, *t);
            *t += lat; // strictly serial: no overlap between unit reads
            line_buf[stream] = Some(line);
            unit_reads += 1;
            value
        };

        while filled < self.lanes {
            let cur = match &mut self.current {
                Some(c) if c.remaining > 0 => c,
                _ => {
                    // Advance to the next registered vertex.
                    let mut next = None;
                    while self.cursor < self.slots.len() {
                        let slot = self.slots[self.cursor];
                        self.cursor += 1;
                        if let Some(vid) = slot {
                            next = Some(vid);
                            break;
                        }
                    }
                    let Some(vid) = next else { break };
                    // Two topology reads: off[vid], off[vid+1].
                    let lo =
                        serial_read(&mut t, 0, self.layout.offsets_base + 4 * vid as u64, 4) as u32;
                    let hi = serial_read(
                        &mut t,
                        0,
                        self.layout.offsets_base + 4 * (vid as u64 + 1),
                        4,
                    ) as u32;
                    self.current = Some(Current {
                        vid,
                        next_eid: lo,
                        remaining: hi - lo,
                    });
                    continue;
                }
            };
            // One edge-info read + one weight read, then a staging write.
            let eid = cur.next_eid;
            let other = serial_read(&mut t, 1, self.layout.edges_base + 4 * eid as u64, 4);
            let weight = serial_read(&mut t, 2, self.layout.weights_base + 4 * eid as u64, 4);
            t += 1; // shared-buffer staging write
            vids[filled] = cur.vid as i64;
            eids[filled] = eid as i64;
            others[filled] = other as i64;
            weights[filled] = weight as i64;
            cur.next_eid += 1;
            cur.remaining -= 1;
            filled += 1;
        }
        self.busy_until = t;
        self.total_reads += unit_reads as u64;
        EghwBatch {
            vids,
            eids,
            others,
            weights,
            ready_at: t,
            exhausted: filled == 0,
            unit_reads,
        }
    }

    /// Resets the unit between kernels.
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.cursor = 0;
        self.current = None;
        self.in_registration = false;
        self.busy_until = 0;
        self.line_buf = [None; 3];
        self.total_reads = 0;
    }
}

/// The installed layout, registered slots, scan cursor, expansion state,
/// stream buffers and read counter. The restoring unit must have the same
/// slot count (warps × lanes).
impl Snapshot for EghwUnit {
    fn save(&self, e: &mut Enc) {
        self.layout.save(e);
        e.seq(&self.slots);
        self.cursor.save(e);
        self.current.save(e);
        self.in_registration.save(e);
        self.busy_until.save(e);
        self.line_buf.save(e);
        self.total_reads.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.layout.restore(d)?;
        d.restore_seq("slots", &mut self.slots)?;
        self.cursor.restore(d)?;
        self.current.restore(d)?;
        self.in_registration.restore(d)?;
        self.busy_until.restore(d)?;
        self.line_buf.restore(d)?;
        self.total_reads.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy memory: offsets at 0, edges at 1000, weights at 2000;
    /// every read costs `lat` cycles.
    fn mem(lat: u64) -> impl FnMut(u64, u64, u64) -> (u64, u64) {
        // Graph: v0 -> {10, 11}, v1 -> {}, v2 -> {12}.
        let offsets = [0u64, 2, 2, 3];
        let edges = [10u64, 11, 12];
        let weights = [7u64, 8, 9];
        move |addr, _w, _now| {
            let v = if addr < 1000 {
                offsets[(addr / 4) as usize]
            } else if addr < 2000 {
                edges[((addr - 1000) / 4) as usize]
            } else {
                weights[((addr - 2000) / 4) as usize]
            };
            (v, lat)
        }
    }

    fn unit() -> EghwUnit {
        let mut u = EghwUnit::new(2, 2);
        u.set_layout(EghwLayout {
            offsets_base: 0,
            edges_base: 1000,
            weights_base: 2000,
        });
        u
    }

    #[test]
    fn produces_complete_edge_records() {
        let mut u = unit();
        u.reg(0, [(0, 0), (1, 1)], 0);
        u.reg(1, [(0, 2)], 1);
        let b = u.dec(10, mem(5));
        assert_eq!(b.vids, vec![0, 0]);
        assert_eq!(b.eids, vec![0, 1]);
        assert_eq!(b.others, vec![10, 11]);
        assert_eq!(b.weights, vec![7, 8]);
        let b2 = u.dec(b.ready_at, mem(5));
        assert_eq!(b2.vids, vec![2, -1]); // v1 has no edges
        assert_eq!(b2.others[0], 12);
        assert!(u.dec(b2.ready_at, mem(5)).exhausted);
    }

    #[test]
    fn reads_are_serial() {
        let mut u = unit();
        u.reg(0, [(0, 0)], 0);
        // v0: both offsets share a line (1 miss + 1 buffered hit), the
        // edge and weight streams miss once each and then hit their
        // stream buffers: 3 serial misses at 50 cycles, plus buffered
        // hits and 2 staging writes.
        let b = u.dec(0, mem(50));
        assert_eq!(b.unit_reads, 3);
        assert!(b.ready_at >= 3 * 50 + 2, "ready_at = {}", b.ready_at);
    }

    #[test]
    fn latency_scales_with_memory_latency() {
        let go = |lat| {
            let mut u = unit();
            u.reg(0, [(0, 0)], 0);
            u.dec(0, mem(lat)).ready_at
        };
        // Unlike Weaver (Fig. 13 flat), EGHW degrades linearly with memory
        // latency — the paper's core criticism of hardware-side edge
        // generation (3 stream-buffer misses here).
        assert_eq!(go(100) - go(10), 3 * 90);
    }

    #[test]
    fn reregistration_restarts() {
        let mut u = unit();
        u.reg(0, [(0, 0)], 0);
        let _ = u.dec(0, mem(1));
        u.reg(0, [(0, 2)], 100);
        let b = u.dec(200, mem(1));
        assert_eq!(b.vids[0], 2);
    }

    #[test]
    fn zero_degree_vertices_are_skipped() {
        let mut u = unit();
        u.reg(0, [(0, 1)], 0); // v1 has degree 0
        let b = u.dec(0, mem(1));
        assert!(b.exhausted);
        assert_eq!(b.unit_reads, 1); // still pays the (buffered) topology read
    }
}
