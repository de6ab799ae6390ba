//! The Weaver decode FSM of Fig. 6.
//!
//! State meanings follow the figure:
//!
//! - **S0 `Init`** — waiting for the first decode request of a round.
//! - **S1 `LoadCed`** — the first ST entry is loaded into the CED buffer.
//! - **S2 `Decode`** — OD entries are filled from the CED.
//! - **S3 `FetchSt` / S4 `UpdateCed`** — a low-degree entry did not fill
//!   the OD; the next ST entry is fetched and decoded too.
//! - **S5 `UpdateDt`** — the OD is full; edge IDs are written to the DT.
//! - **S6 `Wait`** — waiting for the next decode request (a high-degree
//!   entry can refill multiple ODs from here, S5→S6→S2).
//! - **S7/S8 `Drain`/`End`** — all ST entries are scanned; subsequent
//!   requests return empty work IDs (-1).

use std::collections::HashSet;

use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

use crate::tables::SparseTable;
#[cfg(test)]
use crate::tables::StEntry;
use crate::EMPTY_WORK_ID;

/// FSM states (Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FsmState {
    /// S0: initialized, no entry loaded yet.
    #[default]
    Init,
    /// S1: first ST entry loaded into CED.
    LoadCed,
    /// S2: decoding CED into OD entries.
    Decode,
    /// S3: fetching the next ST entry.
    FetchSt,
    /// S4: CED updated with the fetched entry.
    UpdateCed,
    /// S5: OD complete, DT updated.
    UpdateDt,
    /// S6: waiting for the next decode request.
    Wait,
    /// S7: last entries drained.
    Drain,
    /// S8: end — only empty work IDs remain.
    End,
}

impl FsmState {
    /// The Fig. 6 state index (S0–S8), matching
    /// `sparseweaver_trace::WeaverState::from_id`.
    pub fn state_id(self) -> u8 {
        match self {
            FsmState::Init => 0,
            FsmState::LoadCed => 1,
            FsmState::Decode => 2,
            FsmState::FetchSt => 3,
            FsmState::UpdateCed => 4,
            FsmState::UpdateDt => 5,
            FsmState::Wait => 6,
            FsmState::Drain => 7,
            FsmState::End => 8,
        }
    }

    /// The state for a Fig. 6 index, the inverse of
    /// [`FsmState::state_id`]. Returns `None` for ids past S8 (a corrupt
    /// checkpoint, surfaced as a typed error by the caller).
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => FsmState::Init,
            1 => FsmState::LoadCed,
            2 => FsmState::Decode,
            3 => FsmState::FetchSt,
            4 => FsmState::UpdateCed,
            5 => FsmState::UpdateDt,
            6 => FsmState::Wait,
            7 => FsmState::Drain,
            8 => FsmState::End,
            _ => return None,
        })
    }
}

/// Saved as the Fig. 6 index; an unknown index is corrupt.
impl Snapshot for FsmState {
    fn save(&self, e: &mut Enc) {
        e.u8(self.state_id());
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        let id = d.u8()?;
        *self =
            FsmState::from_id(id).ok_or_else(|| d.corrupt(format!("invalid FSM state id {id}")))?;
        Ok(())
    }
}

/// Current Entry Data: the ST entry being decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ced {
    vid: u32,
    next_eid: u32,
    remaining: u32,
}

sparseweaver_trace::snapshot_fields!(Ced {
    vid,
    next_eid,
    remaining
});

/// The result of one decode request: one OD buffer worth of work items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeBatch {
    /// Base vertex ID per lane (`-1` for unfilled lanes).
    pub vids: Vec<i64>,
    /// Edge ID per lane (`-1` for unfilled lanes).
    pub eids: Vec<i64>,
    /// Number of ST slots fetched while filling this batch (each is one
    /// shared-memory table read — the Fig. 13 latency knob applies here).
    pub st_fetches: u32,
    /// Whether the scan is exhausted and the batch is entirely empty.
    pub exhausted: bool,
}

impl DecodeBatch {
    /// Number of filled lanes.
    pub fn filled(&self) -> usize {
        self.vids.iter().filter(|&&v| v != EMPTY_WORK_ID).count()
    }

    /// Active-lane mask (bit per lane), the hardware-controlled thread
    /// mask SparseWeaver returns "as a clue for thread activation".
    pub fn mask(&self) -> u64 {
        let mut m = 0u64;
        for (i, &v) in self.vids.iter().enumerate() {
            if v != EMPTY_WORK_ID {
                m |= 1 << i;
            }
        }
        m
    }
}

/// The Weaver FSM plus its ST scan state.
///
/// # Examples
///
/// The worked example of Fig. 6: ST entries `(0,2,1)`, `(2,10,2)`,
/// `(4,30,5)` with a 4-lane warp produce a first OD of
/// `vids (0,2,2,4)`, `eids (2,10,11,30)`:
///
/// ```
/// use sparseweaver_weaver::{SparseTable, StEntry, WeaverFsm};
///
/// let mut st = SparseTable::new(4);
/// st.register(0, StEntry { vid: 0, loc: 2, deg: 1 });
/// st.register(1, StEntry { vid: 2, loc: 10, deg: 2 });
/// st.register(2, StEntry { vid: 4, loc: 30, deg: 5 });
/// let mut fsm = WeaverFsm::new(4);
/// fsm.load(st);
/// let batch = fsm.decode();
/// assert_eq!(batch.vids, vec![0, 2, 2, 4]);
/// assert_eq!(batch.eids, vec![2, 10, 11, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct WeaverFsm {
    st: SparseTable,
    st_pos: usize,
    ced: Option<Ced>,
    skip: HashSet<u32>,
    lanes: usize,
    state: FsmState,
    trace: Vec<FsmState>,
}

impl WeaverFsm {
    /// Creates an FSM producing `lanes`-wide OD buffers over an empty ST.
    pub fn new(lanes: usize) -> Self {
        WeaverFsm {
            st: SparseTable::new(0),
            st_pos: 0,
            ced: None,
            skip: HashSet::new(),
            lanes,
            state: FsmState::Init,
            trace: Vec::new(),
        }
    }

    /// Installs a freshly registered ST and re-initializes the FSM
    /// ("the Weaver FSM is initialized to init status when a new
    /// registration request is received").
    pub fn load(&mut self, st: SparseTable) {
        self.st = st;
        self.reset();
    }

    /// Re-initializes the scan over the current ST.
    pub fn reset(&mut self) {
        self.st_pos = 0;
        self.ced = None;
        self.skip.clear();
        self.state = FsmState::Init;
        self.trace.clear();
    }

    /// Access to the current ST (for registration in place).
    pub fn st_mut(&mut self) -> &mut SparseTable {
        &mut self.st
    }

    /// Current FSM state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// State transitions recorded since the last reset (testing/tracing).
    pub fn trace(&self) -> &[FsmState] {
        &self.trace
    }

    /// Whether every ST entry has been fully decoded.
    pub fn is_end(&self) -> bool {
        self.state == FsmState::End
    }

    /// Registers a skip signal: no further work items are generated for
    /// `vid`, including the remainder of a partially decoded supernode
    /// (`WEAVER_SKIP`, used by early-exit algorithms like BFS).
    pub fn skip(&mut self, vid: u32) {
        self.skip.insert(vid);
        if let Some(ced) = &mut self.ced {
            if ced.vid == vid {
                ced.remaining = 0;
            }
        }
    }

    fn goto(&mut self, s: FsmState) {
        self.state = s;
        self.trace.push(s);
    }

    /// Fetches the next ST entry into the CED. Returns the number of table
    /// reads performed (empty slots still cost a scan step in hardware
    /// terms but are coalesced; we charge one read per slot examined).
    fn fetch_next(&mut self) -> u32 {
        let mut fetches = 0;
        while self.st_pos < self.st.capacity() {
            fetches += 1;
            let slot = self.st.get(self.st_pos);
            self.st_pos += 1;
            if let Some(e) = slot {
                if e.deg == 0 || self.skip.contains(&e.vid) {
                    continue;
                }
                self.ced = Some(Ced {
                    vid: e.vid,
                    next_eid: e.loc,
                    remaining: e.deg,
                });
                return fetches;
            }
        }
        self.ced = None;
        fetches
    }

    /// Services one decode request: fills (up to) one OD buffer.
    ///
    /// Follows Fig. 6: S2 decodes the CED; while the OD has room and the
    /// CED is exhausted, S3/S4 fetch and install the next ST entry; a full
    /// OD goes through S5 (DT update, performed by the caller with the
    /// returned edge IDs) to S6; an exhausted scan drains through S7/S8.
    pub fn decode(&mut self) -> DecodeBatch {
        if self.state == FsmState::Init {
            self.goto(FsmState::LoadCed); // S0 -> S1
        }
        let mut vids = vec![EMPTY_WORK_ID; self.lanes];
        let mut eids = vec![EMPTY_WORK_ID; self.lanes];
        let mut filled = 0usize;
        let mut st_fetches = 0u32;

        if self.state == FsmState::End {
            return DecodeBatch {
                vids,
                eids,
                st_fetches,
                exhausted: true,
            };
        }

        loop {
            // Ensure the CED holds a decodable entry.
            let needs_fetch = match &self.ced {
                Some(c) => c.remaining == 0,
                None => true,
            };
            if needs_fetch {
                self.goto(FsmState::FetchSt); // S3
                st_fetches += self.fetch_next();
                if self.ced.is_none() {
                    // Scan exhausted.
                    if filled > 0 {
                        self.goto(FsmState::Drain); // S7
                        self.goto(FsmState::UpdateDt); // deliver partial OD
                        self.goto(FsmState::Wait);
                    } else {
                        self.goto(FsmState::Drain);
                        self.goto(FsmState::End); // S8
                    }
                    break;
                }
                self.goto(FsmState::UpdateCed); // S4
            }
            self.goto(FsmState::Decode); // S2
            let ced = self.ced.as_mut().expect("CED present in decode");
            let take = (ced.remaining as usize).min(self.lanes - filled);
            for _ in 0..take {
                vids[filled] = ced.vid as i64;
                eids[filled] = ced.next_eid as i64;
                ced.next_eid += 1;
                ced.remaining -= 1;
                filled += 1;
            }
            if filled == self.lanes {
                self.goto(FsmState::UpdateDt); // S5
                self.goto(FsmState::Wait); // S6
                break;
            }
        }
        DecodeBatch {
            vids,
            eids,
            st_fetches,
            exhausted: filled == 0,
        }
    }

    /// Decodes everything remaining, returning all `(vid, eid)` work items
    /// in order (a host-side convenience for tests and analytic models).
    pub fn drain_all(&mut self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        loop {
            let b = self.decode();
            if b.exhausted {
                break;
            }
            for i in 0..self.lanes {
                if b.vids[i] != EMPTY_WORK_ID {
                    out.push((b.vids[i] as u32, b.eids[i] as u32));
                }
            }
        }
        out
    }
}

/// The installed ST, scan cursor, CED buffer, skip set (sorted, so the
/// bytes do not depend on hash order), state and transition trace. The
/// lane width is construction state.
impl Snapshot for WeaverFsm {
    fn save(&self, e: &mut Enc) {
        self.st.save(e);
        self.st_pos.save(e);
        self.ced.save(e);
        let mut skip: Vec<u32> = self.skip.iter().copied().collect();
        skip.sort_unstable();
        skip.save(e);
        self.state.save(e);
        self.trace.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.st.restore(d)?;
        self.st_pos.restore(d)?;
        self.ced.restore(d)?;
        self.skip = d.list(4, Dec::u32)?.into_iter().collect();
        self.state.restore(d)?;
        self.trace.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st_of(entries: &[(u32, u32, u32)]) -> SparseTable {
        let mut st = SparseTable::new(entries.len());
        for (i, &(vid, loc, deg)) in entries.iter().enumerate() {
            st.register(i, StEntry { vid, loc, deg });
        }
        st
    }

    #[test]
    fn figure6_worked_example() {
        // The example the paper walks through in Section III-B.
        let mut fsm = WeaverFsm::new(4);
        fsm.load(st_of(&[(0, 2, 1), (2, 10, 2), (4, 30, 5)]));
        let b1 = fsm.decode();
        assert_eq!(b1.vids, vec![0, 2, 2, 4]);
        assert_eq!(b1.eids, vec![2, 10, 11, 30]);
        assert_eq!(b1.mask(), 0b1111);
        // The supernode (vid 4, deg 5) spills into the next OD.
        let b2 = fsm.decode();
        assert_eq!(b2.vids, vec![4, 4, 4, 4]);
        assert_eq!(b2.eids, vec![31, 32, 33, 34]);
        // Scan is now exhausted.
        let b3 = fsm.decode();
        assert!(b3.exhausted);
        assert_eq!(b3.vids, vec![-1, -1, -1, -1]);
        assert!(fsm.is_end());
    }

    #[test]
    fn every_edge_emitted_exactly_once_in_vid_order() {
        let mut fsm = WeaverFsm::new(4);
        fsm.load(st_of(&[(1, 0, 3), (3, 3, 0), (5, 3, 4), (9, 7, 1)]));
        let items = fsm.drain_all();
        let expect: Vec<(u32, u32)> = (0..3)
            .map(|i| (1, i))
            .chain((3..7).map(|i| (5, i)))
            .chain(std::iter::once((9, 7u32)))
            .collect();
        assert_eq!(items, expect);
    }

    #[test]
    fn zero_degree_entries_are_filtered() {
        // Filtered vertices register degree 0 and must produce no work.
        let mut fsm = WeaverFsm::new(2);
        fsm.load(st_of(&[(0, 0, 0), (1, 0, 0), (2, 5, 1)]));
        assert_eq!(fsm.drain_all(), vec![(2, 5)]);
    }

    #[test]
    fn empty_st_is_immediately_end() {
        let mut fsm = WeaverFsm::new(4);
        fsm.load(SparseTable::new(8));
        let b = fsm.decode();
        assert!(b.exhausted);
        assert!(fsm.is_end());
    }

    #[test]
    fn partial_final_od_is_delivered() {
        let mut fsm = WeaverFsm::new(4);
        fsm.load(st_of(&[(0, 0, 6)]));
        let b1 = fsm.decode();
        assert_eq!(b1.filled(), 4);
        let b2 = fsm.decode();
        assert_eq!(b2.filled(), 2);
        assert_eq!(b2.mask(), 0b0011);
        assert_eq!(b2.vids, vec![0, 0, -1, -1]);
        assert!(!b2.exhausted);
        assert!(fsm.decode().exhausted);
    }

    #[test]
    fn skip_drops_remaining_supernode_work() {
        let mut fsm = WeaverFsm::new(2);
        fsm.load(st_of(&[(7, 0, 100), (8, 100, 1)]));
        let b1 = fsm.decode();
        assert_eq!(b1.vids, vec![7, 7]);
        // Early exit: BFS found what it needed for vertex 7.
        fsm.skip(7);
        let b2 = fsm.decode();
        assert_eq!(b2.vids, vec![8, -1]);
    }

    #[test]
    fn skip_before_fetch_drops_entry_entirely() {
        let mut fsm = WeaverFsm::new(2);
        fsm.load(st_of(&[(1, 0, 2), (2, 2, 2)]));
        fsm.skip(2);
        assert_eq!(fsm.drain_all(), vec![(1, 0), (1, 1)]);
    }

    #[test]
    fn trace_records_figure6_path() {
        let mut fsm = WeaverFsm::new(2);
        fsm.load(st_of(&[(0, 0, 2)]));
        let _ = fsm.decode();
        let t = fsm.trace();
        // S0->S1, fetch (S3/S4), decode (S2), full OD: S5 -> S6.
        assert_eq!(t[0], FsmState::LoadCed);
        assert!(t.contains(&FsmState::FetchSt));
        assert!(t.contains(&FsmState::UpdateCed));
        assert!(t.contains(&FsmState::Decode));
        assert_eq!(t[t.len() - 2], FsmState::UpdateDt);
        assert_eq!(t[t.len() - 1], FsmState::Wait);
    }

    #[test]
    fn st_fetch_count_charges_slot_scans() {
        let mut fsm = WeaverFsm::new(4);
        let mut st = SparseTable::new(6);
        st.register(
            1,
            StEntry {
                vid: 1,
                loc: 0,
                deg: 1,
            },
        );
        st.register(
            4,
            StEntry {
                vid: 4,
                loc: 1,
                deg: 1,
            },
        );
        fsm.load(st);
        let b = fsm.decode();
        // Slots 0..6 all examined: 6 fetches, 2 entries, partial OD.
        assert_eq!(b.st_fetches, 6);
        assert_eq!(b.filled(), 2);
    }

    #[test]
    fn reload_reinitializes() {
        let mut fsm = WeaverFsm::new(2);
        fsm.load(st_of(&[(0, 0, 1)]));
        let _ = fsm.drain_all();
        assert!(fsm.is_end());
        fsm.load(st_of(&[(5, 2, 1)]));
        assert_eq!(fsm.state(), FsmState::Init);
        assert_eq!(fsm.drain_all(), vec![(5, 2)]);
    }
}
