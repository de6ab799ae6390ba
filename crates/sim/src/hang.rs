//! Structured hang diagnostics.
//!
//! When a launch deadlocks or exceeds its cycle budget, the GPU snapshots
//! the whole machine into a [`HangReport`] attached to the returned
//! [`SimError`](crate::SimError). The report replaces the old
//! `SPARSEWEAVER_DEBUG_HANG` environment variable: instead of an
//! unstructured dump to stderr, callers get per-warp scheduling state,
//! barrier arrivals, Weaver FSM state, and memory-port queue occupancy,
//! all renderable as JSON (`swsim --hang-report <path>`).

use sparseweaver_mem::PortOccupancy;
use sparseweaver_trace::json::{Envelope, Schema};

/// The schema of [`HangReport::to_json`] documents.
pub const HANG_SCHEMA: Schema = Schema::new("sparseweaver-hang-report", 2);

/// One warp's scheduling state at the moment of the hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpHang {
    /// Warp index within its core.
    pub warp: usize,
    /// Program counter (instruction index).
    pub pc: u32,
    /// Scheduling state: `running`, `at_barrier`, or `halted`.
    pub state: String,
    /// Active thread mask.
    pub active_mask: u64,
    /// IPDOM divergence-stack depth.
    pub stack_depth: usize,
    /// What the warp's soonest-ready pending register waits on
    /// (`memory`, `shared`, `weaver`, `exec`, or `none`).
    pub waiting_on: String,
    /// Cycle at which that register becomes ready (`u64::MAX` = never,
    /// e.g. a dropped Weaver response).
    pub next_ready: u64,
}

/// One core's state at the moment of the hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreHang {
    /// Core index.
    pub core: usize,
    /// Warps still resident (not halted).
    pub resident_warps: usize,
    /// Warps currently arrived at the core barrier.
    pub barrier_arrivals: usize,
    /// The Weaver FSM's state id (0–8, Fig. 6).
    pub weaver_fsm_state: u8,
    /// Per-warp detail.
    pub warps: Vec<WarpHang>,
}

/// A structured snapshot of the machine at a deadlock or cycle-limit
/// abort, attached to [`SimError::Deadlock`](crate::SimError::Deadlock),
/// [`SimError::CycleLimit`](crate::SimError::CycleLimit), and
/// [`SimError::WeaverTimeout`](crate::SimError::WeaverTimeout).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HangReport {
    /// The kernel that hung.
    pub kernel: String,
    /// The cycle at which progress stopped (or the limit was exceeded).
    pub cycle: u64,
    /// Per-core machine state.
    pub cores: Vec<CoreHang>,
    /// Memory-port queue occupancy (`l1:<core>`, `l2`, `dram`, `atomic`).
    pub ports: Vec<PortOccupancy>,
}

impl HangReport {
    /// Renders the report as one JSON document under a [`HANG_SCHEMA`]
    /// envelope carrying the `config` and `input` (graph) fingerprints,
    /// if known. Key order is fixed, so output is byte-deterministic.
    pub fn to_json(&self, config: Option<u64>, input: Option<u64>) -> String {
        Envelope::new(HANG_SCHEMA, config, input).object(|o| {
            o.field("kernel", &self.kernel)
                .field("cycle", self.cycle)
                .arr("cores", |a| {
                    for c in &self.cores {
                        a.obj(|o| {
                            o.field("core", c.core)
                                .field("resident_warps", c.resident_warps)
                                .field("barrier_arrivals", c.barrier_arrivals)
                                .field("weaver_fsm_state", c.weaver_fsm_state)
                                .arr("warps", |a| {
                                    for w in &c.warps {
                                        a.obj(|o| {
                                            o.field("warp", w.warp)
                                                .field("pc", w.pc)
                                                .field("state", &w.state)
                                                .field("active_mask", w.active_mask)
                                                .field("stack_depth", w.stack_depth)
                                                .field("waiting_on", &w.waiting_on)
                                                .field("next_ready", w.next_ready);
                                        });
                                    }
                                });
                        });
                    }
                })
                .arr("ports", |a| {
                    for p in &self.ports {
                        a.obj(|o| {
                            o.field("name", &p.name)
                                .field("used", p.used)
                                .field("per_window", p.per_window)
                                .field("busy_until", p.busy_until);
                        });
                    }
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = HangReport {
            kernel: "bfs_gather".to_string(),
            cycle: 42,
            cores: vec![CoreHang {
                core: 0,
                resident_warps: 2,
                barrier_arrivals: 1,
                weaver_fsm_state: 6,
                warps: vec![WarpHang {
                    warp: 0,
                    pc: 7,
                    state: "running".to_string(),
                    active_mask: 0xf,
                    stack_depth: 1,
                    waiting_on: "weaver".to_string(),
                    next_ready: u64::MAX,
                }],
            }],
            ports: vec![PortOccupancy {
                name: "l1:0".to_string(),
                used: 1,
                per_window: 2,
                busy_until: 40,
            }],
        };
        let j = r.to_json(Some(0xc0ffee), None);
        assert!(j.starts_with("{\"schema\":\"sparseweaver-hang-report\",\"version\":2,"));
        assert!(
            j.contains("\"config_fingerprint\":\"0000000000c0ffee\",\"input_fingerprint\":null")
        );
        assert!(j.contains("\"kernel\":\"bfs_gather\""));
        assert!(j.contains("\"weaver_fsm_state\":6"));
        assert!(j.contains("\"waiting_on\":\"weaver\""));
        assert!(j.contains(&format!("\"next_ready\":{}", u64::MAX)));
        assert!(j.contains("\"name\":\"l1:0\""));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn empty_report_serializes() {
        let j = HangReport::default().to_json(None, None);
        assert!(j.contains("\"cores\":[]"));
        assert!(j.contains("\"ports\":[]"));
    }
}
