//! Trace-driven replay of the memory hierarchy.
//!
//! The replay side of the memory-study mode: re-runs *only* a
//! [`Hierarchy`] against a captured [`MemTrace`] — no cores, no decode,
//! no Weaver — under an arbitrary [`HierarchyConfig`]. Under the capture
//! configuration the replayed [`LevelStats`] are bit-identical to the
//! live run's (the hierarchy's state is a pure function of its call
//! sequence, and the trace *is* that call sequence); under a different
//! geometry the replay answers "what would the caches have done" orders
//! of magnitude faster than a full simulation.
//!
//! Record mapping:
//!
//! - `KernelLaunch` → [`Hierarchy::reset_ports`], mirroring the live
//!   `Gpu::launch` (simulated time restarts per launch).
//! - `Access` → [`Hierarchy::access`] (or
//!   [`Hierarchy::access_unqueued`] for EGHW unit-port lookups).
//! - `Atomic` → [`Hierarchy::atomic`].
//! - `Barrier` → ignored (diagnostic only; barriers don't touch the
//!   hierarchy).

use std::fmt;

use crate::hierarchy::{Hierarchy, HierarchyConfig, HierarchyConfigError, LevelStats};
use crate::hooks::Hooks;
use crate::mtrace::{MemRecord, MemTrace};

/// Why a replay could not run (distinct from a stats mismatch, which
/// [`verify`] reports as data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The replay configuration failed [`HierarchyConfig::validate`] —
    /// the typed surface of the set-aliasing bug this mode exists to
    /// sweep past, never a silent wrong answer.
    BadConfig(HierarchyConfigError),
    /// The replay configuration has fewer cores than the trace: per-core
    /// L1 streams cannot be mapped.
    TooFewCores {
        /// Cores in the trace header.
        trace_cores: usize,
        /// Cores in the replay configuration.
        config_cores: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadConfig(e) => write!(f, "invalid replay config: {e}"),
            ReplayError::TooFewCores {
                trace_cores,
                config_cores,
            } => write!(
                f,
                "replay config has {config_cores} cores but the trace was captured on \
                 {trace_cores}; per-core L1 streams cannot be mapped"
            ),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::BadConfig(e) => Some(e),
            ReplayError::TooFewCores { .. } => None,
        }
    }
}

impl From<HierarchyConfigError> for ReplayError {
    fn from(e: HierarchyConfigError) -> Self {
        ReplayError::BadConfig(e)
    }
}

/// Replays `trace` against a fresh hierarchy built from `cfg` and
/// returns the resulting cumulative stats.
///
/// # Errors
///
/// Returns a [`ReplayError`] if `cfg` fails validation or has fewer
/// cores than the trace was captured on.
pub fn replay(trace: &MemTrace, cfg: &HierarchyConfig) -> Result<LevelStats, ReplayError> {
    cfg.validate()?;
    if cfg.num_cores < trace.config.num_cores {
        return Err(ReplayError::TooFewCores {
            trace_cores: trace.config.num_cores,
            config_cores: cfg.num_cores,
        });
    }
    let mut hier = Hierarchy::new(*cfg);
    let hooks = &mut Hooks::default();
    for record in &trace.records {
        match record {
            MemRecord::KernelLaunch { .. } => hier.reset_ports(),
            MemRecord::Access {
                core,
                addr,
                write,
                cycle,
                unqueued,
                ..
            } => {
                if *unqueued {
                    hier.access_unqueued(*core as usize, *addr, *write, hooks);
                } else {
                    hier.access(*core as usize, *addr, *write, *cycle, hooks);
                }
            }
            MemRecord::Atomic {
                core, addr, cycle, ..
            } => {
                hier.atomic(*core as usize, *addr, *cycle, hooks);
            }
            MemRecord::Barrier { .. } => {}
        }
    }
    Ok(hier.stats())
}

/// Outcome of [`verify`]: the replayed stats against the live footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Stats from replaying under the capture configuration.
    pub replayed: LevelStats,
    /// The live run's stats, from the trace footer.
    pub live: LevelStats,
}

impl VerifyOutcome {
    /// Whether the replay reproduced the live run bit for bit.
    pub fn matches(&self) -> bool {
        self.replayed == self.live
    }
}

/// Replays `trace` under its own capture configuration and compares
/// against the footer stats — the self-check behind `swreplay verify`.
///
/// # Errors
///
/// Returns a [`ReplayError`] if the embedded capture configuration
/// itself fails validation (a corrupt or hand-edited header).
pub fn verify(trace: &MemTrace) -> Result<VerifyOutcome, ReplayError> {
    let replayed = replay(trace, &trace.config)?;
    Ok(VerifyOutcome {
        replayed,
        live: trace.live_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::hierarchy::HitLevel;
    use crate::mtrace::{parse, Recorder};

    fn recording(cfg: &HierarchyConfig) -> Hooks {
        Hooks {
            recorder: Some(Recorder::in_memory(cfg)),
            ..Hooks::default()
        }
    }

    fn rec(hooks: &mut Hooks) -> &mut Recorder {
        hooks.recorder.as_mut().expect("recording hooks")
    }

    /// Drives a live hierarchy through a mixed workload with a recorder
    /// attached, then checks the replay reproduces its stats exactly.
    #[test]
    fn replay_reproduces_live_stats_bit_for_bit() {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l1 = CacheConfig::new(512, 2);
        cfg.l2 = CacheConfig::new(2048, 2);
        let mut live = Hierarchy::new(cfg);
        let mut hooks = recording(&cfg);

        rec(&mut hooks).kernel_launch("k0");
        for i in 0..200u64 {
            let addr = (i * 192) % 8192;
            rec(&mut hooks).set_warp((i % 8) as u32);
            live.access((i % 2) as usize, addr, i % 3 == 0, i * 2, &mut hooks);
            if i % 7 == 0 {
                live.atomic(0, addr, i * 2 + 1, &mut hooks);
            }
            if i % 11 == 0 {
                live.access_unqueued(1, addr ^ 0x40, false, &mut hooks);
            }
        }
        // Second launch: port clocks reset, caches stay warm.
        rec(&mut hooks).kernel_launch("k1");
        live.reset_ports();
        for i in 0..50u64 {
            live.access(1, (i * 64) % 4096, false, i, &mut hooks);
        }
        let stats = live.stats();
        rec(&mut hooks).finalize(&stats);

        let trace = parse(&rec(&mut hooks).take_bytes().unwrap()).expect("well-formed");
        let outcome = verify(&trace).expect("valid capture config");
        assert_eq!(outcome.live, stats);
        assert_eq!(outcome.replayed, stats, "replay must be bit-identical");
        assert!(outcome.matches());
    }

    #[test]
    fn replay_under_bigger_l1_changes_hits_not_traffic_order() {
        let mut cfg = HierarchyConfig::vortex_default(1);
        cfg.l1 = CacheConfig::new(256, 2);
        cfg.l2 = CacheConfig::new(2048, 2);
        let mut live = Hierarchy::new(cfg);
        let mut hooks = recording(&cfg);
        rec(&mut hooks).kernel_launch("k");
        // Working set larger than the tiny L1 but smaller than a big one.
        for round in 0..4u64 {
            for i in 0..16u64 {
                live.access(0, i * 64, false, round * 100 + i, &mut hooks);
            }
        }
        rec(&mut hooks).finalize(&live.stats());
        let trace = parse(&rec(&mut hooks).take_bytes().unwrap()).unwrap();

        let mut big = cfg;
        big.l1 = CacheConfig::new(4096, 4);
        let swept = replay(&trace, &big).expect("valid sweep config");
        let base = replay(&trace, &cfg).expect("capture config");
        assert_eq!(base, trace.live_stats);
        assert_eq!(swept.l1.accesses, base.l1.accesses, "same request stream");
        assert!(
            swept.l1.hits > base.l1.hits,
            "bigger L1 must hit more: {} vs {}",
            swept.l1.hits,
            base.l1.hits
        );
        // Fewer L1 misses descend: the L2 sees less traffic, and DRAM
        // (cold misses only — the L2 holds the whole working set) never
        // sees more.
        assert!(swept.l2.accesses < base.l2.accesses);
        assert!(swept.dram_accesses <= base.dram_accesses);
    }

    #[test]
    fn bad_sweep_config_is_typed_not_silent_aliasing() {
        let cfg = HierarchyConfig::vortex_default(1);
        let mut live = Hierarchy::new(cfg);
        let mut hooks = recording(&cfg);
        rec(&mut hooks).kernel_launch("k");
        live.access(0, 0, false, 0, &mut hooks);
        rec(&mut hooks).finalize(&live.stats());
        let trace = parse(&rec(&mut hooks).take_bytes().unwrap()).unwrap();

        // 192 bytes x 1 way = 3 sets: the config that used to alias
        // silently through the pow2 mask now refuses to replay.
        let mut bad = cfg;
        bad.l1 = CacheConfig {
            size_bytes: 192,
            ways: 1,
        };
        let e = replay(&trace, &bad).expect_err("must reject");
        assert!(matches!(e, ReplayError::BadConfig(_)), "{e}");
        assert!(e.to_string().contains("power of two"), "{e}");
    }

    #[test]
    fn too_few_cores_is_typed() {
        let cfg = HierarchyConfig::vortex_default(4);
        let mut rec = Recorder::in_memory(&cfg);
        rec.finalize(&LevelStats::default());
        let trace = parse(&rec.take_bytes().unwrap()).unwrap();
        let small = HierarchyConfig::vortex_default(2);
        let e = replay(&trace, &small).expect_err("must reject");
        assert_eq!(
            e,
            ReplayError::TooFewCores {
                trace_cores: 4,
                config_cores: 2,
            }
        );
    }

    #[test]
    fn recorder_does_not_change_timing_or_stats() {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l1 = CacheConfig::new(512, 2);
        let mut plain = Hierarchy::new(cfg);
        let mut recorded = Hierarchy::new(cfg);
        let mut hooks = recording(&cfg);
        for i in 0..100u64 {
            let addr = (i * 320) % 4096;
            let a = plain.access(
                (i % 2) as usize,
                addr,
                i % 4 == 0,
                i * 3,
                &mut Hooks::default(),
            );
            let b = recorded.access((i % 2) as usize, addr, i % 4 == 0, i * 3, &mut hooks);
            assert_eq!(a, b);
            if i % 9 == 0 {
                assert_eq!(
                    plain.atomic(0, addr, i, &mut Hooks::default()),
                    recorded.atomic(0, addr, i, &mut hooks)
                );
            }
        }
        assert_eq!(plain.stats(), recorded.stats());
    }

    #[test]
    fn level_hints_match_capture_levels() {
        let cfg = HierarchyConfig::vortex_default(1);
        let mut live = Hierarchy::new(cfg);
        let mut hooks = recording(&cfg);
        rec(&mut hooks).kernel_launch("k");
        live.access(0, 64, false, 0, &mut hooks); // cold: DRAM
        live.access(0, 64, false, 10, &mut hooks); // warm: L1
        rec(&mut hooks).finalize(&live.stats());
        let trace = parse(&rec(&mut hooks).take_bytes().unwrap()).unwrap();
        let levels: Vec<HitLevel> = trace
            .records
            .iter()
            .filter_map(|r| match r {
                MemRecord::Access { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        assert_eq!(levels, vec![HitLevel::Dram, HitLevel::L1]);
    }
}
