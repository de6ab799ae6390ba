//! The typed event taxonomy the simulator emits.

use crate::codec::{CodecError, Dec, Enc, Snapshot};
use crate::tracer::Category;

/// The execution phases of the gather process, used for the breakdowns of
/// Figs. 17 and 18. Kernels mark phase boundaries with the zero-cost
/// `Phase` pseudo-instruction.
///
/// This lives in the trace crate so that both the simulator's statistics
/// and the trace events share one definition; `sparseweaver-sim`
/// re-exports it as `sparseweaver_sim::stats::Phase`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Kernel prologue and property initialization.
    #[default]
    Init = 0,
    /// Registration stage (topology investigation + `WEAVER_REG`).
    Registration = 1,
    /// Work-ID calculation (edge scheduling / decode).
    EdgeSchedule = 2,
    /// Edge information access (`getEdge` loads).
    EdgeInfoAccess = 3,
    /// Gather & sum computation.
    GatherSum = 4,
    /// Apply kernels and anything else.
    Other = 5,
}

impl Phase {
    /// Number of phase slots.
    pub const COUNT: usize = 6;

    /// All phases in breakdown order.
    pub const ALL: [Phase; 6] = [
        Phase::Init,
        Phase::Registration,
        Phase::EdgeSchedule,
        Phase::EdgeInfoAccess,
        Phase::GatherSum,
        Phase::Other,
    ];

    /// Display label matching the paper's Fig. 17 legend.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Init => "Init",
            Phase::Registration => "Registration",
            Phase::EdgeSchedule => "Work ID calc",
            Phase::EdgeInfoAccess => "Edge info access",
            Phase::GatherSum => "Gather & Sum",
            Phase::Other => "Other",
        }
    }
}

/// Where in the hierarchy a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Per-core L1.
    L1,
    /// Shared L2.
    L2,
    /// Optional L3.
    L3,
    /// Main memory.
    Dram,
}

impl MemLevel {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Dram => "DRAM",
        }
    }

    /// A stable index for checkpoint encoding.
    pub fn level_id(self) -> u8 {
        match self {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::L3 => 2,
            MemLevel::Dram => 3,
        }
    }

    /// The inverse of [`MemLevel::level_id`]; `None` for unknown ids.
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => MemLevel::L1,
            1 => MemLevel::L2,
            2 => MemLevel::L3,
            3 => MemLevel::Dram,
            _ => return None,
        })
    }
}

/// Why a core could not issue (mirrors the simulator's stall breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting on a global-memory load result.
    Memory,
    /// Waiting on a shared-memory result.
    Shared,
    /// Waiting on an ALU/FPU result.
    ExecDep,
    /// Waiting on a Weaver/EGHW unit response.
    Weaver,
    /// Every resident warp is parked at a barrier.
    Barrier,
}

impl StallCause {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Memory => "memory",
            StallCause::Shared => "shared",
            StallCause::ExecDep => "exec_dep",
            StallCause::Weaver => "weaver",
            StallCause::Barrier => "barrier",
        }
    }

    /// A stable index for checkpoint encoding.
    pub fn cause_id(self) -> u8 {
        match self {
            StallCause::Memory => 0,
            StallCause::Shared => 1,
            StallCause::ExecDep => 2,
            StallCause::Weaver => 3,
            StallCause::Barrier => 4,
        }
    }

    /// The inverse of [`StallCause::cause_id`]; `None` for unknown ids.
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => StallCause::Memory,
            1 => StallCause::Shared,
            2 => StallCause::ExecDep,
            3 => StallCause::Weaver,
            4 => StallCause::Barrier,
            _ => return None,
        })
    }
}

/// The Weaver FSM states of Fig. 6 (S0–S8), decoupled from the weaver
/// crate's internal state machine so the event stream is self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WeaverState {
    /// S0: initialized, no entry loaded yet.
    S0Init = 0,
    /// S1: first ST entry loaded into CED.
    S1LoadCed = 1,
    /// S2: decoding CED into OD entries.
    S2Decode = 2,
    /// S3: fetching the next ST entry.
    S3FetchSt = 3,
    /// S4: CED updated with the fetched entry.
    S4UpdateCed = 4,
    /// S5: OD complete, DT updated.
    S5UpdateDt = 5,
    /// S6: waiting for the next decode request.
    S6Wait = 6,
    /// S7: last entries drained.
    S7Drain = 7,
    /// S8: end — only empty work IDs remain.
    S8End = 8,
}

impl WeaverState {
    /// Maps a state index (0–8) back to the state; panics on anything else.
    pub fn from_id(id: u8) -> WeaverState {
        match id {
            0 => WeaverState::S0Init,
            1 => WeaverState::S1LoadCed,
            2 => WeaverState::S2Decode,
            3 => WeaverState::S3FetchSt,
            4 => WeaverState::S4UpdateCed,
            5 => WeaverState::S5UpdateDt,
            6 => WeaverState::S6Wait,
            7 => WeaverState::S7Drain,
            8 => WeaverState::S8End,
            other => panic!("invalid Weaver FSM state id {other}"),
        }
    }

    /// Non-panicking variant of [`WeaverState::from_id`]: `None` for ids
    /// outside 0–8 (a corrupt checkpoint).
    pub fn try_from_id(id: u8) -> Option<WeaverState> {
        (id <= 8).then(|| WeaverState::from_id(id))
    }

    /// Fig. 6 label, e.g. `"S2:decode"`.
    pub fn label(self) -> &'static str {
        match self {
            WeaverState::S0Init => "S0:init",
            WeaverState::S1LoadCed => "S1:load_ced",
            WeaverState::S2Decode => "S2:decode",
            WeaverState::S3FetchSt => "S3:fetch_st",
            WeaverState::S4UpdateCed => "S4:update_ced",
            WeaverState::S5UpdateDt => "S5:update_dt",
            WeaverState::S6Wait => "S6:wait",
            WeaverState::S7Drain => "S7:drain",
            WeaverState::S8End => "S8:end",
        }
    }
}

/// Weaver table operations (sparse table ST, dense table DT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableOp {
    /// `WEAVER_REG` wrote ST entries.
    StWrite,
    /// The FSM fetched ST slots while filling an OD.
    StFetch,
    /// A decoded OD's edge IDs were stored to the warp's DT row.
    DtWrite,
    /// `WEAVER_DEC_LOC` read a DT row back.
    DtRead,
}

impl TableOp {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            TableOp::StWrite => "st_write",
            TableOp::StFetch => "st_fetch",
            TableOp::DtWrite => "dt_write",
            TableOp::DtRead => "dt_read",
        }
    }

    /// A stable index for checkpoint encoding.
    pub fn op_id(self) -> u8 {
        match self {
            TableOp::StWrite => 0,
            TableOp::StFetch => 1,
            TableOp::DtWrite => 2,
            TableOp::DtRead => 3,
        }
    }

    /// The inverse of [`TableOp::op_id`]; `None` for unknown ids.
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => TableOp::StWrite,
            1 => TableOp::StFetch,
            2 => TableOp::DtWrite,
            3 => TableOp::DtRead,
            _ => return None,
        })
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// A kernel launch began.
    KernelLaunch {
        /// Kernel (program) name.
        name: String,
    },
    /// A kernel launch completed.
    KernelEnd {
        /// Kernel (program) name.
        name: String,
        /// Launch duration in cycles.
        cycles: u64,
    },
    /// A warp crossed a `Phase` pseudo-instruction boundary.
    PhaseBegin {
        /// Warp index within the core.
        warp: u32,
        /// The phase the warp entered.
        phase: Phase,
    },
    /// A warp issued one instruction.
    WarpIssue {
        /// Warp index within the core.
        warp: u32,
        /// Program counter (instruction index).
        pc: u32,
        /// Number of active lanes.
        active: u32,
    },
    /// A core spent `cycles` unable to issue.
    WarpStall {
        /// Dominant cause (the reason of the earliest-ready warp).
        cause: StallCause,
        /// Phase the stalled warp was in.
        phase: Phase,
        /// Stalled duration in cycles.
        cycles: u64,
    },
    /// A warp diverged at a `split`.
    Divergence {
        /// Warp index within the core.
        warp: u32,
        /// Program counter of the split.
        pc: u32,
        /// Lanes taking the if side.
        taken: u32,
        /// Lanes taking the else side.
        not_taken: u32,
    },
    /// One cache-line access through the hierarchy.
    CacheAccess {
        /// Level that satisfied the access.
        level: MemLevel,
        /// Whether the access was a write.
        write: bool,
        /// Port-contention delay paid, in cycles.
        queue_delay: u64,
    },
    /// One DRAM transaction (demand fill or writeback).
    DramTransaction {
        /// Whether the transaction was a write(back).
        write: bool,
    },
    /// The Weaver FSM took one transition.
    WeaverTransition {
        /// State before.
        from: WeaverState,
        /// State after.
        to: WeaverState,
    },
    /// A Weaver ST/DT table operation.
    WeaverTable {
        /// Which table and direction.
        op: TableOp,
        /// Number of entries/slots touched.
        count: u32,
    },
    /// The runtime relaunched a kernel after a Weaver response timeout
    /// (Table-II protocol fault): memory was restored from the pre-launch
    /// snapshot and the launch retried.
    WeaverRetry {
        /// Kernel (program) name.
        kernel: String,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// Retries were exhausted and the runtime marked the Weaver unit
    /// faulty; subsequent work runs under the software `S_wm` schedule.
    WeaverFallback {
        /// Kernel (program) name that exhausted its retries.
        kernel: String,
        /// Schedule the session fell back to (e.g. `"S_wm"`).
        schedule: String,
    },
}

impl EventData {
    /// The category this event belongs to (drives `--trace-level`).
    pub fn category(&self) -> Category {
        match self {
            EventData::KernelLaunch { .. }
            | EventData::KernelEnd { .. }
            // Retry/fallback are launch-lifecycle decisions made by the
            // runtime, so they ride the always-on kernel category.
            | EventData::WeaverRetry { .. }
            | EventData::WeaverFallback { .. } => Category::Kernel,
            EventData::PhaseBegin { .. }
            | EventData::WarpIssue { .. }
            | EventData::WarpStall { .. }
            | EventData::Divergence { .. } => Category::Warp,
            EventData::CacheAccess { .. } | EventData::DramTransaction { .. } => Category::Mem,
            EventData::WeaverTransition { .. } | EventData::WeaverTable { .. } => Category::Weaver,
        }
    }
}

/// One timestamped event. `cycle` is on the *global* timeline: the tracer
/// adds the accumulated cycle count of all previously completed launches,
/// so a multi-kernel run produces one contiguous timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global cycle at which the event occurred.
    pub cycle: u64,
    /// Core that produced the event (0 for GPU-wide events).
    pub core: u32,
    /// The typed payload.
    pub data: EventData,
}

impl Snapshot for Phase {
    fn save(&self, e: &mut Enc) {
        e.u8(*self as u8);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        let id = d.u8()?;
        *self = Phase::ALL
            .get(id as usize)
            .copied()
            .ok_or_else(|| d.corrupt(format!("unknown phase id {id}")))?;
        Ok(())
    }
}

impl Snapshot for TraceEvent {
    fn save(&self, e: &mut Enc) {
        e.u64(self.cycle);
        e.u32(self.core);
        match &self.data {
            EventData::KernelLaunch { name } => {
                e.u8(0);
                e.str(name);
            }
            EventData::KernelEnd { name, cycles } => {
                e.u8(1);
                e.str(name);
                e.u64(*cycles);
            }
            EventData::PhaseBegin { warp, phase } => {
                e.u8(2);
                e.u32(*warp);
                phase.save(e);
            }
            EventData::WarpIssue { warp, pc, active } => {
                e.u8(3);
                e.u32(*warp);
                e.u32(*pc);
                e.u32(*active);
            }
            EventData::WarpStall {
                cause,
                phase,
                cycles,
            } => {
                e.u8(4);
                e.u8(cause.cause_id());
                phase.save(e);
                e.u64(*cycles);
            }
            EventData::Divergence {
                warp,
                pc,
                taken,
                not_taken,
            } => {
                e.u8(5);
                e.u32(*warp);
                e.u32(*pc);
                e.u32(*taken);
                e.u32(*not_taken);
            }
            EventData::CacheAccess {
                level,
                write,
                queue_delay,
            } => {
                e.u8(6);
                e.u8(level.level_id());
                e.bool(*write);
                e.u64(*queue_delay);
            }
            EventData::DramTransaction { write } => {
                e.u8(7);
                e.bool(*write);
            }
            EventData::WeaverTransition { from, to } => {
                e.u8(8);
                e.u8(*from as u8);
                e.u8(*to as u8);
            }
            EventData::WeaverTable { op, count } => {
                e.u8(9);
                e.u8(op.op_id());
                e.u32(*count);
            }
            EventData::WeaverRetry { kernel, attempt } => {
                e.u8(10);
                e.str(kernel);
                e.u32(*attempt);
            }
            EventData::WeaverFallback { kernel, schedule } => {
                e.u8(11);
                e.str(kernel);
                e.str(schedule);
            }
        }
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        *self = TraceEvent::decode(d)?;
        Ok(())
    }
}

impl TraceEvent {
    /// Decodes one event written by its [`Snapshot::save`].
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<TraceEvent, CodecError> {
        let cycle = d.u64()?;
        let core = d.u32()?;
        let data = match d.u8()? {
            0 => EventData::KernelLaunch { name: d.str()? },
            1 => EventData::KernelEnd {
                name: d.str()?,
                cycles: d.u64()?,
            },
            2 => EventData::PhaseBegin {
                warp: d.u32()?,
                phase: d.value()?,
            },
            3 => EventData::WarpIssue {
                warp: d.u32()?,
                pc: d.u32()?,
                active: d.u32()?,
            },
            4 => {
                let id = d.u8()?;
                EventData::WarpStall {
                    cause: StallCause::from_id(id)
                        .ok_or_else(|| d.corrupt(format!("unknown stall cause id {id}")))?,
                    phase: d.value()?,
                    cycles: d.u64()?,
                }
            }
            5 => EventData::Divergence {
                warp: d.u32()?,
                pc: d.u32()?,
                taken: d.u32()?,
                not_taken: d.u32()?,
            },
            6 => {
                let id = d.u8()?;
                EventData::CacheAccess {
                    level: MemLevel::from_id(id)
                        .ok_or_else(|| d.corrupt(format!("unknown memory level id {id}")))?,
                    write: d.bool()?,
                    queue_delay: d.u64()?,
                }
            }
            7 => EventData::DramTransaction { write: d.bool()? },
            8 => EventData::WeaverTransition {
                from: decode_weaver_state(d)?,
                to: decode_weaver_state(d)?,
            },
            9 => {
                let id = d.u8()?;
                EventData::WeaverTable {
                    op: TableOp::from_id(id)
                        .ok_or_else(|| d.corrupt(format!("unknown table op id {id}")))?,
                    count: d.u32()?,
                }
            }
            10 => EventData::WeaverRetry {
                kernel: d.str()?,
                attempt: d.u32()?,
            },
            11 => EventData::WeaverFallback {
                kernel: d.str()?,
                schedule: d.str()?,
            },
            t => return Err(d.corrupt(format!("unknown trace-event tag {t}"))),
        };
        Ok(TraceEvent { cycle, core, data })
    }
}

fn decode_weaver_state(d: &mut Dec<'_>) -> Result<WeaverState, CodecError> {
    let id = d.u8()?;
    WeaverState::try_from_id(id).ok_or_else(|| d.corrupt(format!("unknown weaver state id {id}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{FileSink, RingSink, TraceSink};

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::EdgeSchedule.label(), "Work ID calc");
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }

    #[test]
    fn weaver_state_round_trips_ids() {
        for id in 0..=8u8 {
            assert_eq!(WeaverState::from_id(id) as u8, id);
        }
    }

    #[test]
    #[should_panic(expected = "invalid Weaver FSM state id")]
    fn weaver_state_rejects_bad_id() {
        let _ = WeaverState::from_id(9);
    }

    #[test]
    fn categories_cover_the_taxonomy() {
        assert_eq!(
            EventData::KernelLaunch { name: "k".into() }.category(),
            Category::Kernel
        );
        assert_eq!(
            EventData::WarpIssue {
                warp: 0,
                pc: 0,
                active: 1
            }
            .category(),
            Category::Warp
        );
        assert_eq!(
            EventData::DramTransaction { write: false }.category(),
            Category::Mem
        );
        assert_eq!(
            EventData::WeaverTable {
                op: TableOp::StWrite,
                count: 1
            }
            .category(),
            Category::Weaver
        );
    }

    /// One event of every `EventData` variant.
    fn every_variant() -> Vec<TraceEvent> {
        let data = [
            EventData::KernelLaunch { name: "k".into() },
            EventData::KernelEnd {
                name: "k".into(),
                cycles: 11,
            },
            EventData::PhaseBegin {
                warp: 0,
                phase: Phase::GatherSum,
            },
            EventData::WarpIssue {
                warp: 1,
                pc: 2,
                active: 3,
            },
            EventData::WarpStall {
                cause: StallCause::Memory,
                phase: Phase::Init,
                cycles: 4,
            },
            EventData::Divergence {
                warp: 0,
                pc: 9,
                taken: 2,
                not_taken: 2,
            },
            EventData::CacheAccess {
                level: MemLevel::L2,
                write: true,
                queue_delay: 1,
            },
            EventData::DramTransaction { write: false },
            EventData::WeaverTransition {
                from: WeaverState::from_id(0),
                to: WeaverState::from_id(8),
            },
            EventData::WeaverTable {
                op: TableOp::StFetch,
                count: 4,
            },
            EventData::WeaverRetry {
                kernel: "k".into(),
                attempt: 1,
            },
            EventData::WeaverFallback {
                kernel: "k".into(),
                schedule: "S_wm".into(),
            },
        ];
        data.into_iter()
            .enumerate()
            .map(|(i, data)| TraceEvent {
                cycle: i as u64 * 7,
                core: i as u32 % 3,
                data,
            })
            .collect()
    }

    #[test]
    fn events_and_sinks_round_trip_through_the_codec() {
        let events = every_variant();
        let path =
            std::env::temp_dir().join(format!("sw_event_codec_{}.jsonl", std::process::id()));
        let mut ring = RingSink::new(16);
        let mut file = FileSink::create(&path).unwrap();
        for ev in &events {
            ring.record(ev.clone());
            file.record(ev.clone());
        }
        file.sync();
        let mut e = Enc::new();
        e.seq(&events);
        e.opt(Some(&ring), RingSink::save);
        e.opt(Some(&file), FileSink::save);
        e.opt(None::<&RingSink>, RingSink::save);
        let bytes = e.into_bytes();
        // The run goes on past the checkpoint and is killed.
        let saved_len = std::fs::metadata(&path).unwrap().len();
        file.record(events[0].clone());
        drop(file);

        let mut d = Dec::new(&bytes);
        assert_eq!(d.list(13, TraceEvent::decode).unwrap(), events);
        let mut ring_back = RingSink::new(16);
        d.restore_opt("ring", Some(&mut ring_back)).unwrap();
        let mut file_back = FileSink::reopen(&path).unwrap();
        d.restore_opt("file", Some(&mut file_back)).unwrap();
        d.restore_opt::<RingSink>("absent", None).unwrap();
        d.finish().unwrap();
        assert_eq!(ring_back.drain(), events);
        assert_eq!(file_back.written(), events.len() as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), saved_len);

        // A sink of the other kind, or one too small, refuses the state.
        let mut d = Dec::new(&bytes);
        d.list(13, TraceEvent::decode).unwrap();
        assert!(matches!(
            d.restore_opt("ring", Some(&mut file_back)),
            Err(CodecError::Restore { .. })
        ));
        let mut d = Dec::new(&bytes);
        d.list(13, TraceEvent::decode).unwrap();
        assert!(matches!(
            d.restore_opt("ring", Some(&mut RingSink::new(4))),
            Err(CodecError::Restore { .. })
        ));
        drop(file_back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_event_ids_are_corrupt_not_panics() {
        let mut e = Enc::new();
        every_variant()[4].save(&mut e);
        let good = e.into_bytes();
        // Tag byte sits after cycle (8) and core (4); the stall cause id
        // follows it.
        for (at, value) in [(12, 12u8), (13, 200)] {
            let mut bad = good.clone();
            bad[at] = value;
            assert!(matches!(
                TraceEvent::decode(&mut Dec::new(&bad)),
                Err(CodecError::Corrupt { .. })
            ));
        }
    }
}
