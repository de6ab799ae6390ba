//! The per-core Weaver unit: FSM + tables + timing.
//!
//! Weaver extends the Vortex Special Function Unit (Section IV-C). The
//! timing model captures the properties the paper evaluates:
//!
//! - ST/DT accesses go to shared memory, so each table read/write costs the
//!   configurable `table_latency` (the Fig. 13 sweep knob);
//! - the unit is pipelined: back-to-back decode requests from different
//!   warps overlap their table-read latency, which is why Fig. 13 is flat —
//!   *occupancy* is one slot per table access, but *latency* is hidden by
//!   warp-level parallelism;
//! - registration writes one ST entry per active lane, pipelined one per
//!   cycle.

use std::fmt;

use sparseweaver_fault::WeaverFault;
use sparseweaver_mem::Hooks;
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::{EventData, TableOp, WeaverState};

use crate::fsm::{DecodeBatch, WeaverFsm};
use crate::tables::{DenseTable, SparseTable, StEntry};

/// A registration addressed a Sparse Table slot past the configured
/// capacity — the compiler's chunked registration loop is supposed to
/// prevent this, so it surfaces as a typed error (detected crash) rather
/// than a process abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StOverflow {
    /// The slot index the registration addressed.
    pub index: usize,
    /// The configured ST capacity.
    pub capacity: usize,
}

impl fmt::Display for StOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weaver registration addressed ST slot {} but capacity is {}",
            self.index, self.capacity
        )
    }
}

/// Configuration of the Weaver unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeaverConfig {
    /// ST capacity per core (512 in the paper's evaluation).
    pub st_capacity: usize,
    /// Shared-memory read/write latency for table accesses (Fig. 13 sweeps
    /// 10–160; Vortex shared memory is a few cycles by default).
    pub table_latency: u64,
    /// Fixed pipeline overhead per unit operation.
    pub base_latency: u64,
    /// Whether `WEAVER_DEC_ID` also installs the hardware thread mask
    /// (the backend compiler's thread-activation optimization).
    pub auto_mask: bool,
}

impl Default for WeaverConfig {
    fn default() -> Self {
        WeaverConfig {
            st_capacity: 512,
            table_latency: 4,
            base_latency: 2,
            auto_mask: true,
        }
    }
}

/// A decode response delivered to the requesting warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecResponse {
    /// The OD contents: per-lane `(vid)`; `-1` means no work.
    pub batch: DecodeBatch,
    /// GPU cycle at which the response is available.
    pub ready_at: u64,
    /// The response was lost to an injected protocol fault (`ready_at` is
    /// `u64::MAX`); the requesting warp will never observe it.
    pub dropped: bool,
}

/// The per-core Weaver functional unit.
///
/// # Examples
///
/// ```
/// use sparseweaver_mem::Hooks;
/// use sparseweaver_weaver::{WeaverConfig, WeaverUnit};
///
/// let mut w = WeaverUnit::new(WeaverConfig::default(), 8, 4);
/// let hooks = &mut Hooks::default();
/// w.reg(0, [(0, 3, 0, 2), (1, 5, 2, 1)], 0, 0, hooks).unwrap();
/// let resp = w.dec_id(1, 10, 0, hooks);
/// assert_eq!(resp.batch.vids, vec![3, 3, 5, -1]);
/// ```
#[derive(Debug, Clone)]
pub struct WeaverUnit {
    cfg: WeaverConfig,
    lanes: usize,
    fsm: WeaverFsm,
    dt: DenseTable,
    /// Pending registration slots for the current round.
    staging: SparseTable,
    in_registration: bool,
    busy_until: u64,
    /// Total ST fetches (for reports).
    st_fetches: u64,
    /// Total decode requests served.
    dec_requests: u64,
    /// Total registered entries.
    registrations: u64,
}

impl WeaverUnit {
    /// Creates a unit for a core with `warps` warps of `lanes` lanes.
    pub fn new(cfg: WeaverConfig, warps: usize, lanes: usize) -> Self {
        WeaverUnit {
            lanes,
            fsm: WeaverFsm::new(lanes),
            dt: DenseTable::new(warps, lanes),
            staging: SparseTable::new(cfg.st_capacity),
            in_registration: false,
            busy_until: 0,
            st_fetches: 0,
            dec_requests: 0,
            registrations: 0,
            cfg,
        }
    }

    /// The FSM's current state id (0–8), for hang diagnostics.
    pub fn fsm_state_id(&self) -> u8 {
        self.fsm.state().state_id()
    }

    /// The unit's configuration.
    pub fn config(&self) -> WeaverConfig {
        self.cfg
    }

    /// `(st_fetches, dec_requests, registrations)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.st_fetches, self.dec_requests, self.registrations)
    }

    /// Services a `WEAVER_REG` from `warp`: one `(lane, vid, loc, deg)`
    /// record per active lane, in lane order, taken from an iterator so
    /// the caller need not pack them first. Returns the completion cycle.
    ///
    /// The first registration after a distribution round re-initializes
    /// the FSM and clears the ST ("initialized to init status when a new
    /// registration request is received").
    ///
    /// # Errors
    ///
    /// Returns [`StOverflow`] if a computed slot exceeds the ST capacity —
    /// the compiler's chunked registration loop must prevent this, so a
    /// violation (e.g. a corrupted warp index) is a detected crash.
    ///
    /// Like every entry point, it takes the owning `core`'s index, which
    /// it stamps on the events it reports to `hooks`.
    pub fn reg(
        &mut self,
        warp: usize,
        records: impl IntoIterator<Item = (usize, u32, u32, u32)>,
        now: u64,
        core: u32,
        hooks: &mut Hooks,
    ) -> Result<u64, StOverflow> {
        if !self.in_registration {
            self.staging.clear();
            self.in_registration = true;
        }
        let mut count = 0u32;
        for (lane, vid, loc, deg) in records {
            count += 1;
            let index = warp * self.lanes + lane;
            if index >= self.cfg.st_capacity {
                return Err(StOverflow {
                    index,
                    capacity: self.cfg.st_capacity,
                });
            }
            self.staging.register(index, StEntry { vid, loc, deg });
            self.registrations += 1;
        }
        hooks.trace(
            now,
            core,
            EventData::WeaverTable {
                op: TableOp::StWrite,
                count,
            },
        );
        // Pipelined table writes: one per cycle of occupancy.
        let start = now.max(self.busy_until);
        let occupancy = self.cfg.base_latency + u64::from(count);
        self.busy_until = start + occupancy;
        Ok(start + occupancy + self.cfg.table_latency)
    }

    /// Services a `WEAVER_DEC_ID` from `warp`: runs the FSM to fill one OD
    /// buffer, stores the edge IDs in the warp's DT row, and returns the
    /// per-lane vertex IDs plus the thread mask.
    ///
    /// The request's FSM transitions and table operations go to `hooks`;
    /// the fault injector decides whether the response is dropped or
    /// delayed (Table II).
    pub fn dec_id(&mut self, warp: usize, now: u64, core: u32, hooks: &mut Hooks) -> DecResponse {
        if self.in_registration {
            // Synchronization point passed: install the registered ST.
            let st = std::mem::replace(&mut self.staging, SparseTable::new(self.cfg.st_capacity));
            self.fsm.load(st);
            self.in_registration = false;
        }
        self.dec_requests += 1;
        // Capture the FSM position before decoding so the transitions this
        // request causes can be replayed into the trace.
        let pre = hooks
            .tracing()
            .then(|| (self.fsm.state(), self.fsm.trace().len()));
        let batch = self.fsm.decode();
        self.dt.store_row(warp, &batch.eids);
        self.st_fetches += batch.st_fetches as u64;
        if let Some((mut from, taken)) = pre {
            for &to in &self.fsm.trace()[taken..] {
                hooks.trace(
                    now,
                    core,
                    EventData::WeaverTransition {
                        from: WeaverState::from_id(from.state_id()),
                        to: WeaverState::from_id(to.state_id()),
                    },
                );
                from = to;
            }
            let tables = [
                (TableOp::StFetch, batch.st_fetches),
                (TableOp::DtWrite, batch.filled() as u32),
            ];
            for (op, count) in tables.into_iter().filter(|&(_, n)| n > 0) {
                hooks.trace(now, core, EventData::WeaverTable { op, count });
            }
        }
        // Occupancy: the S2 decode state "fills every entry of OD
        // simultaneously" (Fig. 6), so a request occupies the unit for one
        // cycle plus one pipelined table read per ST slot fetched. The
        // response latency additionally pays the unit's fixed depth and
        // one table read, both overlapped across requests.
        let start = now.max(self.busy_until);
        let occupancy = 1 + batch.st_fetches as u64;
        self.busy_until = start + occupancy;
        let mut ready_at = start + occupancy + self.cfg.base_latency + self.cfg.table_latency;
        // Injected Table-II protocol faults: a dropped response never
        // arrives (the requesting warp's scoreboard entry stays pending
        // forever); a delayed one arrives late.
        let mut dropped = false;
        if let Some(f) = &mut hooks.fault {
            match f.weaver_response() {
                WeaverFault::None => {}
                WeaverFault::Drop => {
                    ready_at = u64::MAX;
                    dropped = true;
                }
                WeaverFault::Delay(d) => ready_at = ready_at.saturating_add(d),
            }
        }
        DecResponse {
            batch,
            ready_at,
            dropped,
        }
    }

    /// Services a `WEAVER_DEC_LOC` from `warp`: reads the warp's DT row.
    /// Returns `(eids, ready_at)`, the row borrowed from the table.
    pub fn dec_loc(
        &mut self,
        warp: usize,
        now: u64,
        core: u32,
        hooks: &mut Hooks,
    ) -> (&[i64], u64) {
        // A DT row read is one (wide) shared-memory access; it does not
        // occupy the FSM.
        let eids = self.dt.load_row(warp);
        hooks.trace(
            now,
            core,
            EventData::WeaverTable {
                op: TableOp::DtRead,
                count: eids.len() as u32,
            },
        );
        (eids, now + self.cfg.base_latency + self.cfg.table_latency)
    }

    /// Services `WEAVER_SKIP` signals. Returns the completion cycle.
    pub fn skip(&mut self, vids: impl IntoIterator<Item = u32>, now: u64) -> u64 {
        for v in vids {
            self.fsm.skip(v);
        }
        now + self.cfg.base_latency
    }

    /// Whether the distribution scan has ended.
    pub fn is_end(&self) -> bool {
        self.fsm.is_end()
    }

    /// Resets the unit between kernels.
    pub fn reset(&mut self) {
        self.fsm = WeaverFsm::new(self.lanes);
        self.staging.clear();
        self.in_registration = false;
        self.busy_until = 0;
        self.st_fetches = 0;
        self.dec_requests = 0;
        self.registrations = 0;
    }
}

/// The FSM (with its installed ST), the DT, the staging table and the
/// counters. The restoring unit must have the same shape: warps, lanes
/// and ST capacity.
impl Snapshot for WeaverUnit {
    fn save(&self, e: &mut Enc) {
        self.fsm.save(e);
        self.dt.save(e);
        self.staging.save(e);
        self.in_registration.save(e);
        self.busy_until.save(e);
        self.st_fetches.save(e);
        self.dec_requests.save(e);
        self.registrations.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        self.fsm.restore(d).map_err(|e| e.within("fsm"))?;
        self.dt.restore(d).map_err(|e| e.within("dt"))?;
        self.staging.restore(d)?;
        if self.staging.capacity() != self.cfg.st_capacity {
            return Err(CodecError::Restore {
                what: format!(
                    "staging: checkpoint has ST capacity {}, machine has {}",
                    self.staging.capacity(),
                    self.cfg.st_capacity
                ),
            });
        }
        self.in_registration.restore(d)?;
        self.busy_until.restore(d)?;
        self.st_fetches.restore(d)?;
        self.dec_requests.restore(d)?;
        self.registrations.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> WeaverUnit {
        WeaverUnit::new(
            WeaverConfig {
                st_capacity: 16,
                table_latency: 4,
                base_latency: 2,
                auto_mask: true,
            },
            4,
            4,
        )
    }

    #[test]
    fn register_then_decode() {
        let mut w = unit();
        // Warp 0 lanes 0..2 register vertices 0 and 2.
        w.reg(
            0,
            [(0, 0, 2, 1), (1, 2, 10, 2)],
            0,
            0,
            &mut Hooks::default(),
        )
        .unwrap();
        // Warp 1 lane 0 registers vertex 4 (out-of-order warps).
        w.reg(1, [(0, 4, 30, 5)], 3, 0, &mut Hooks::default())
            .unwrap();
        let r = w.dec_id(2, 20, 0, &mut Hooks::default());
        assert_eq!(r.batch.vids, vec![0, 2, 2, 4]);
        assert_eq!(r.batch.eids, vec![2, 10, 11, 30]);
        // DEC_LOC reads the same row back.
        let (eids, _) = w.dec_loc(2, 25, 0, &mut Hooks::default());
        assert_eq!(eids, vec![2, 10, 11, 30]);
    }

    #[test]
    fn st_indexed_by_warp_and_thread() {
        let mut w = unit();
        // Registrations arrive warp 1 first, then warp 0; the scan must
        // still be in (warp, thread) index order.
        w.reg(1, [(0, 9, 0, 1)], 0, 0, &mut Hooks::default())
            .unwrap();
        w.reg(0, [(0, 3, 1, 1)], 1, 0, &mut Hooks::default())
            .unwrap();
        let r = w.dec_id(0, 10, 0, &mut Hooks::default());
        assert_eq!(r.batch.vids[0], 3);
        assert_eq!(r.batch.vids[1], 9);
    }

    #[test]
    fn new_registration_restarts_round() {
        let mut w = unit();
        w.reg(0, [(0, 1, 0, 1)], 0, 0, &mut Hooks::default())
            .unwrap();
        let r = w.dec_id(0, 5, 0, &mut Hooks::default());
        assert_eq!(r.batch.vids[0], 1);
        assert!(w.dec_id(0, 6, 0, &mut Hooks::default()).batch.exhausted);
        // Next round.
        w.reg(0, [(0, 7, 3, 1)], 10, 0, &mut Hooks::default())
            .unwrap();
        let r = w.dec_id(0, 15, 0, &mut Hooks::default());
        assert_eq!(r.batch.vids[0], 7);
        assert_eq!(r.batch.eids[0], 3);
    }

    #[test]
    fn occupancy_serializes_but_latency_pipelines() {
        let mut w = unit();
        w.reg(0, [(0, 0, 0, 8), (1, 1, 8, 8)], 0, 0, &mut Hooks::default())
            .unwrap();
        let t0 = 100;
        let a = w.dec_id(0, t0, 0, &mut Hooks::default());
        let b = w.dec_id(1, t0, 0, &mut Hooks::default());
        // Second request starts after the first's occupancy, not after its
        // full latency (pipelined unit).
        assert!(b.ready_at > a.ready_at);
        assert!(b.ready_at - a.ready_at < a.ready_at - t0 + 1);
    }

    #[test]
    fn table_latency_affects_latency_not_order() {
        let mk = |lat| {
            let mut w = WeaverUnit::new(
                WeaverConfig {
                    table_latency: lat,
                    ..WeaverConfig::default()
                },
                2,
                4,
            );
            w.reg(0, [(0, 0, 0, 4)], 0, 0, &mut Hooks::default())
                .unwrap();
            w.dec_id(0, 10, 0, &mut Hooks::default()).ready_at
        };
        let fast = mk(4);
        let slow = mk(160);
        assert_eq!(slow - fast, 156);
    }

    #[test]
    fn skip_reaches_fsm() {
        let mut w = unit();
        w.reg(0, [(0, 5, 0, 100)], 0, 0, &mut Hooks::default())
            .unwrap();
        let r = w.dec_id(0, 5, 0, &mut Hooks::default());
        assert_eq!(r.batch.vids, vec![5, 5, 5, 5]);
        w.skip([5], 6);
        assert!(w.dec_id(0, 7, 0, &mut Hooks::default()).batch.exhausted);
    }

    #[test]
    fn counters_track_activity() {
        let mut w = unit();
        w.reg(0, [(0, 0, 0, 1), (1, 1, 1, 1)], 0, 0, &mut Hooks::default())
            .unwrap();
        let _ = w.dec_id(0, 5, 0, &mut Hooks::default());
        let (fetches, decs, regs) = w.counters();
        assert_eq!(regs, 2);
        assert_eq!(decs, 1);
        assert!(fetches >= 2);
    }

    #[test]
    fn tracer_sees_tables_and_fsm_transitions() {
        use sparseweaver_trace::{TraceConfig, Tracer};

        let mut w = unit();
        let mut hooks = Hooks {
            tracer: Some(Tracer::new(TraceConfig::default())),
            ..Hooks::default()
        };
        hooks.tracer.as_mut().unwrap().kernel_begin("k");
        w.reg(0, [(0, 0, 2, 1), (1, 2, 10, 2)], 0, 3, &mut hooks)
            .unwrap();
        let _ = w.dec_id(0, 10, 3, &mut hooks);
        let _ = w.dec_loc(0, 20, 3, &mut hooks);
        let t = hooks.tracer.as_mut().unwrap();
        t.kernel_end(30, &Default::default());
        let r = t.take_report();
        let ops: Vec<&EventData> = r.events.iter().map(|e| &e.data).collect();
        assert!(ops.iter().any(|d| matches!(
            d,
            EventData::WeaverTable {
                op: TableOp::StWrite,
                count: 2
            }
        )));
        assert!(ops.iter().any(|d| matches!(
            d,
            EventData::WeaverTable {
                op: TableOp::StFetch,
                ..
            }
        )));
        assert!(ops.iter().any(|d| matches!(
            d,
            EventData::WeaverTable {
                op: TableOp::DtWrite,
                ..
            }
        )));
        assert!(ops.iter().any(|d| matches!(
            d,
            EventData::WeaverTable {
                op: TableOp::DtRead,
                count: 4
            }
        )));
        // The first decode starts from S0 and the transition chain is
        // contiguous (each `from` equals the previous `to`).
        let chain: Vec<(WeaverState, WeaverState)> = r
            .events
            .iter()
            .filter_map(|e| match e.data {
                EventData::WeaverTransition { from, to } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert!(!chain.is_empty());
        assert_eq!(chain[0].0, WeaverState::S0Init);
        for pair in chain.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
        // Every event carries the core stamp.
        assert!(r
            .events
            .iter()
            .filter(|e| !matches!(
                e.data,
                EventData::KernelLaunch { .. } | EventData::KernelEnd { .. }
            ))
            .all(|e| e.core == 3));
    }

    #[test]
    fn tracer_does_not_change_unit_behavior() {
        let mut plain = unit();
        let mut traced = unit();
        let mut hooks = Hooks {
            tracer: Some(sparseweaver_trace::Tracer::new(
                sparseweaver_trace::TraceConfig::default(),
            )),
            ..Hooks::default()
        };
        let records = [(0, 0, 0, 5), (1, 7, 5, 3)];
        plain
            .reg(0, records.iter().copied(), 0, 0, &mut Hooks::default())
            .unwrap();
        traced
            .reg(0, records.iter().copied(), 0, 0, &mut hooks)
            .unwrap();
        for i in 0..4u64 {
            let a = plain.dec_id(0, 10 + i, 0, &mut Hooks::default());
            let b = traced.dec_id(0, 10 + i, 0, &mut hooks);
            assert_eq!(a, b);
        }
        assert_eq!(plain.counters(), traced.counters());
    }

    #[test]
    fn reset_clears_state() {
        let mut w = unit();
        w.reg(0, [(0, 0, 0, 1)], 0, 0, &mut Hooks::default())
            .unwrap();
        let _ = w.dec_id(0, 5, 0, &mut Hooks::default());
        w.reset();
        assert_eq!(w.counters(), (0, 0, 0));
        assert!(w.dec_id(0, 0, 0, &mut Hooks::default()).batch.exhausted);
    }
}
