//! The full memory hierarchy: per-core L1s, shared L2, optional L3, DRAM.

use std::fmt;

use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};
use sparseweaver_trace::EventData;

use crate::cache::{Cache, CacheConfig, CacheConfigError, CacheStats};
use crate::hooks::Hooks;

/// Configuration of the whole hierarchy.
///
/// Defaults mirror the paper's Vortex setup (Section V): 64KB L1 per core
/// and a 1MB shared L2; Fig. 14 adds an optional L3 and Fig. 12 sweeps
/// `dram_freq_ratio` from 1 to 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Number of cores (one L1 each).
    pub num_cores: usize,
    /// Per-core L1 geometry.
    pub l1: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Optional shared L3 geometry (Fig. 14).
    pub l3: Option<CacheConfig>,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Additional latency for an L2 hit.
    pub l2_latency: u64,
    /// Additional latency for an L3 hit.
    pub l3_latency: u64,
    /// DRAM access latency in *DRAM* cycles.
    pub dram_latency: u64,
    /// GPU:DRAM frequency ratio `n` (Fig. 12): DRAM latency in GPU cycles
    /// is `dram_latency * n`.
    pub dram_freq_ratio: u64,
    /// L1 accesses serviced per cycle per core.
    pub l1_ports: u64,
    /// L2 accesses serviced per cycle (shared).
    pub l2_ports: u64,
    /// DRAM requests serviced per GPU cycle (shared).
    pub dram_ports: u64,
    /// Atomic operations serviced per cycle (L2 atomic banks).
    pub atomic_ports: u64,
}

impl HierarchyConfig {
    /// The paper's Vortex configuration: 64KB L1, 1MB L2, no L3,
    /// frequency ratio 2.
    pub fn vortex_default(num_cores: usize) -> Self {
        HierarchyConfig {
            num_cores,
            l1: CacheConfig::new(64 * 1024, 4),
            l2: CacheConfig::new(1024 * 1024, 8),
            l3: None,
            l1_latency: 2,
            l2_latency: 18,
            l3_latency: 24,
            dram_latency: 50,
            dram_freq_ratio: 2,
            l1_ports: 1,
            l2_ports: 2,
            dram_ports: 1,
            atomic_ports: 8,
        }
    }

    /// The SparseWeaver configuration: L1 halved to 32KB, the penalty the
    /// paper applies for devoting storage to the 512-entry ST and DT
    /// tables (Section V).
    pub fn sparseweaver_default(num_cores: usize) -> Self {
        let mut cfg = Self::vortex_default(num_cores);
        cfg.l1 = CacheConfig::new(32 * 1024, 4);
        cfg
    }

    /// Validates every cache geometry in the configuration.
    ///
    /// Hand-built and deserialized configs (replay sweeps, trace headers)
    /// never went through [`CacheConfig::new`]'s checks; this is the
    /// typed gate such paths must pass before a [`Hierarchy`] (or a swept
    /// variant of one) is constructed, so a bad set count is an error
    /// instead of silent set aliasing.
    ///
    /// # Errors
    ///
    /// Returns a [`HierarchyConfigError`] naming the offending level if
    /// `num_cores` is zero or any of L1/L2/L3 fails
    /// [`CacheConfig::validate`].
    pub fn validate(&self) -> Result<(), HierarchyConfigError> {
        if self.num_cores == 0 {
            return Err(HierarchyConfigError::NoCores);
        }
        let level = |name: &'static str, r: Result<(), CacheConfigError>| {
            r.map_err(|source| HierarchyConfigError::Level {
                level: name,
                source,
            })
        };
        level("l1", self.l1.validate())?;
        level("l2", self.l2.validate())?;
        if let Some(l3) = &self.l3 {
            level("l3", l3.validate())?;
        }
        Ok(())
    }
}

/// A hierarchy configuration rejected by [`HierarchyConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyConfigError {
    /// The configuration has zero cores (no L1s to build).
    NoCores,
    /// One cache level has a bad geometry.
    Level {
        /// Which level (`"l1"`, `"l2"`, `"l3"`).
        level: &'static str,
        /// The underlying geometry error.
        source: CacheConfigError,
    },
}

impl fmt::Display for HierarchyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyConfigError::NoCores => write!(f, "hierarchy must have at least one core"),
            HierarchyConfigError::Level { level, source } => write!(f, "{level}: {source}"),
        }
    }
}

impl std::error::Error for HierarchyConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HierarchyConfigError::NoCores => None,
            HierarchyConfigError::Level { source, .. } => Some(source),
        }
    }
}

/// Which level serviced an access: the level the trace events and
/// latency histograms are keyed by.
pub use sparseweaver_trace::MemLevel as HitLevel;

/// The port a hierarchy request went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPort {
    /// A core's L1 port ([`Hierarchy::access`]).
    Queued,
    /// An EGHW unit's own port ([`Hierarchy::access_unqueued`]): no
    /// queueing and no GPU timestamp.
    Unit,
    /// The L2 atomic banks ([`Hierarchy::atomic`]).
    Atomic,
}

/// One hierarchy request as served: what [`Hierarchy`] returns and
/// reports to [`Hooks::mem_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Issuing core.
    pub core: usize,
    /// The requested address.
    pub addr: u64,
    /// Whether the request was a store (always set for atomics).
    pub write: bool,
    /// Issue cycle within the launch (0 for [`MemPort::Unit`]).
    pub cycle: u64,
    /// The port the request went through.
    pub port: MemPort,
    /// Cycles spent waiting for the port (for the L1 port, the "LG
    /// throttle" stall source of Fig. 4).
    pub queue_delay: u64,
    /// The deepest level reached.
    pub level: HitLevel,
    /// Total latency in GPU cycles, queueing included.
    pub latency: u64,
}

/// Aggregated statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Sum of all per-core L1 stats.
    pub l1: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// L3 stats, if configured.
    pub l3: Option<CacheStats>,
    /// DRAM requests.
    pub dram_accesses: u64,
}

sparseweaver_trace::snapshot_fields!(LevelStats {
    l1,
    l2,
    l3,
    dram_accesses
});

impl LevelStats {
    /// Adds another set of level statistics field-wise.
    ///
    /// The L3 slot folds like an optional counter set: if either side has
    /// L3 stats the sum does too, so aggregating runs with and without a
    /// configured L3 never silently drops L3 activity.
    pub fn add(&mut self, other: &LevelStats) {
        self.l1.add(&other.l1);
        self.l2.add(&other.l2);
        match (&mut self.l3, &other.l3) {
            (Some(a), Some(b)) => a.add(b),
            (None, Some(b)) => self.l3 = Some(*b),
            _ => {}
        }
        self.dram_accesses += other.dram_accesses;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Port {
    per_window: u64,
    /// GPU cycles per service window (DRAM runs `stride` GPU cycles per
    /// DRAM cycle under the Fig. 12 frequency ratio).
    stride: u64,
    cycle: u64,
    used: u64,
}

impl Port {
    fn new(per_window: u64) -> Self {
        Self::with_stride(per_window, 1)
    }

    fn with_stride(per_window: u64, stride: u64) -> Self {
        Port {
            per_window: per_window.max(1),
            stride: stride.max(1),
            cycle: 0,
            used: 0,
        }
    }

    /// Acquires one slot at or after `now`; returns the queueing delay.
    fn acquire(&mut self, now: u64) -> u64 {
        if now > self.cycle {
            // Align to the port's service window.
            self.cycle = now + (self.stride - 1) - (now + self.stride - 1) % self.stride;
            self.used = 0;
        }
        while self.used >= self.per_window {
            self.cycle += self.stride;
            self.used = 0;
        }
        self.used += 1;
        self.cycle - now
    }
}

// A port's queue state; capacity and stride come from the configuration.
sparseweaver_trace::snapshot_fields!(Port { cycle, used });

/// One port's queue state at a point in time, reported by
/// [`Hierarchy::port_occupancy`] for hang diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortOccupancy {
    /// Port name (`l1:<core>`, `l2`, `dram`, `atomic`).
    pub name: String,
    /// Slots consumed in the current service window.
    pub used: u64,
    /// Slots available per service window.
    pub per_window: u64,
    /// The cycle the current service window ends.
    pub busy_until: u64,
}

/// The memory hierarchy timing model.
///
/// # Examples
///
/// ```
/// use sparseweaver_mem::{Hierarchy, HierarchyConfig, Hooks};
///
/// let mut h = Hierarchy::new(HierarchyConfig::vortex_default(2));
/// let hooks = &mut Hooks::default();
/// let cold = h.access(0, 0x1000, false, 0, hooks);
/// let warm = h.access(0, 0x1000, false, 10, hooks);
/// assert!(warm.latency < cold.latency);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Cache,
    l3: Option<Cache>,
    l1_ports: Vec<Port>,
    l2_port: Port,
    dram_port: Port,
    atomic_port: Port,
    dram_accesses: u64,
}

impl Hierarchy {
    /// Builds the hierarchy for `cfg`.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1: (0..cfg.num_cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: Cache::new(cfg.l2),
            l3: cfg.l3.map(Cache::new),
            l1_ports: (0..cfg.num_cores)
                .map(|_| Port::new(cfg.l1_ports))
                .collect(),
            l2_port: Port::new(cfg.l2_ports),
            dram_port: Port::with_stride(cfg.dram_ports, cfg.dram_freq_ratio),
            atomic_port: Port::new(cfg.atomic_ports),
            dram_accesses: 0,
            cfg,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// A snapshot of every port's queue state — the "MSHR/queue
    /// occupancy" section of a hang report.
    pub fn port_occupancy(&self) -> Vec<PortOccupancy> {
        let snap = |name: String, p: &Port| PortOccupancy {
            name,
            used: p.used,
            per_window: p.per_window,
            busy_until: p.cycle,
        };
        let mut out: Vec<PortOccupancy> = self
            .l1_ports
            .iter()
            .enumerate()
            .map(|(i, p)| snap(format!("l1:{i}"), p))
            .collect();
        out.push(snap("l2".to_string(), &self.l2_port));
        out.push(snap("dram".to_string(), &self.dram_port));
        out.push(snap("atomic".to_string(), &self.atomic_port));
        out
    }

    /// DRAM latency in GPU cycles (base latency x frequency ratio).
    pub fn dram_cycles(&self) -> u64 {
        self.cfg.dram_latency * self.cfg.dram_freq_ratio
    }

    /// One load/store from `core` to the line containing `addr` at time
    /// `now`.
    ///
    /// `hooks` sees the request once, as a [`MemPort::Queued`]
    /// [`MemAccess`], plus one [`EventData::DramTransaction`] per DRAM
    /// transaction in the timing path. No observer changes timing or
    /// stats.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        addr: u64,
        write: bool,
        now: u64,
        hooks: &mut Hooks,
    ) -> MemAccess {
        let queue_delay = self.l1_ports[core].acquire(now);
        let t = now + queue_delay;
        let mut latency = queue_delay + self.cfg.l1_latency;
        let a1 = self.l1[core].access(addr, write);
        if let Some(victim) = a1.evicted_dirty {
            // Write-back is buffered: charged to L2 occupancy, not to this
            // request's latency.
            self.l2_port.acquire(t);
            self.l2.access(victim, true);
        }
        let level = if a1.hit {
            HitLevel::L1
        } else {
            latency += self.l2_port.acquire(t) + self.cfg.l2_latency;
            let (level, below) = self.descend(addr, Some(t), false, hooks);
            latency += below;
            level
        };
        let served = MemAccess {
            core,
            addr,
            write,
            cycle: now,
            port: MemPort::Queued,
            queue_delay,
            level,
            latency,
        };
        hooks.mem_access(&served);
        served
    }

    /// A load issued by a dedicated hardware unit with its own memory port
    /// (the EGHW baseline): full cache-lookup latency, but no GPU port
    /// queueing. Units run ahead of the GPU clock, so routing them through
    /// the shared (monotonic) port models would corrupt the port clocks.
    ///
    /// `hooks` sees it as a [`MemPort::Unit`] [`MemAccess`]: the request
    /// carries no timestamp, so only the recorder consumes it; its
    /// activity still lands in [`Hierarchy::stats`].
    pub fn access_unqueued(
        &mut self,
        core: usize,
        addr: u64,
        write: bool,
        hooks: &mut Hooks,
    ) -> MemAccess {
        let mut latency = self.cfg.l1_latency;
        let a1 = self.l1[core].access(addr, write);
        if let Some(victim) = a1.evicted_dirty {
            self.l2.access(victim, true);
        }
        let level = if a1.hit {
            HitLevel::L1
        } else {
            let (level, below) = self.descend(addr, None, write, hooks);
            latency += self.cfg.l2_latency + below;
            level
        };
        let served = MemAccess {
            core,
            addr,
            write,
            cycle: 0,
            port: MemPort::Unit,
            queue_delay: 0,
            level,
            latency,
        };
        hooks.mem_access(&served);
        served
    }

    /// An atomic read-modify-write. GPU atomics resolve at the L2 (they
    /// bypass the L1), so the minimum latency is the L2 path. `hooks`
    /// sees it as a [`MemPort::Atomic`] [`MemAccess`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn atomic(&mut self, core: usize, addr: u64, now: u64, hooks: &mut Hooks) -> MemAccess {
        let queue_delay = self.atomic_port.acquire(now);
        let (level, below) = self.descend(addr, Some(now + queue_delay), true, hooks);
        let latency = queue_delay + self.cfg.l1_latency + self.cfg.l2_latency + below;
        let served = MemAccess {
            core,
            addr,
            write: true,
            cycle: now,
            port: MemPort::Atomic,
            queue_delay,
            level,
            latency,
        };
        hooks.mem_access(&served);
        served
    }

    /// The L2-and-below part of a request; returns the serving level and
    /// the latency below the L2. A timed request (`clock` is its issue
    /// cycle past the upper ports) queues for the DRAM port and reports
    /// each DRAM transaction to `hooks`; a unit request (`None`) does
    /// neither.
    fn descend(
        &mut self,
        addr: u64,
        clock: Option<u64>,
        write: bool,
        hooks: &mut Hooks,
    ) -> (HitLevel, u64) {
        let mut dram = |write: bool| {
            if let Some(t) = clock {
                hooks.trace(t, 0, EventData::DramTransaction { write });
            }
        };
        let a2 = self.l2.access(addr, write);
        if let Some(victim) = a2.evicted_dirty {
            if let Some(l3) = &mut self.l3 {
                l3.access(victim, true);
            } else {
                self.dram_accesses += 1;
                dram(true);
            }
        }
        if a2.hit {
            return (HitLevel::L2, 0);
        }
        let mut below = 0;
        if let Some(l3) = &mut self.l3 {
            let a3 = l3.access(addr, write);
            if a3.evicted_dirty.is_some() {
                self.dram_accesses += 1;
                dram(true);
            }
            if a3.hit {
                return (HitLevel::L3, self.cfg.l3_latency);
            }
            below = self.cfg.l3_latency;
        }
        let dq = clock.map_or(0, |t| self.dram_port.acquire(t));
        self.dram_accesses += 1;
        dram(false);
        (HitLevel::Dram, below + dq + self.dram_cycles())
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> LevelStats {
        let mut l1 = CacheStats::default();
        for c in &self.l1 {
            let s = c.stats();
            l1.accesses += s.accesses;
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.writebacks += s.writebacks;
        }
        LevelStats {
            l1,
            l2: self.l2.stats(),
            l3: self.l3.as_ref().map(|c| c.stats()),
            dram_accesses: self.dram_accesses,
        }
    }

    /// Resets the port clocks (between kernel launches: simulated time
    /// restarts at zero while cache *contents* stay warm).
    pub fn reset_ports(&mut self) {
        self.l1_ports = (0..self.cfg.num_cores)
            .map(|_| Port::new(self.cfg.l1_ports))
            .collect();
        self.l2_port = Port::new(self.cfg.l2_ports);
        self.dram_port = Port::with_stride(self.cfg.dram_ports, self.cfg.dram_freq_ratio);
        self.atomic_port = Port::new(self.cfg.atomic_ports);
    }

    /// Resets statistics and flushes all caches (between independent runs).
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
            c.flush();
        }
        self.l2.reset_stats();
        self.l2.flush();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
            l3.flush();
        }
        self.dram_accesses = 0;
        self.reset_ports();
    }
}

/// Every tag array, every port queue, and the DRAM access counter. The
/// restoring hierarchy must be built from the same configuration: same
/// core count, L3 presence and cache geometries.
impl Snapshot for Hierarchy {
    fn save(&self, e: &mut Enc) {
        e.seq(&self.l1);
        self.l2.save(e);
        e.opt(self.l3.as_ref(), Cache::save);
        e.seq(&self.l1_ports);
        self.l2_port.save(e);
        self.dram_port.save(e);
        self.atomic_port.save(e);
        self.dram_accesses.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.restore_seq("l1", &mut self.l1)?;
        self.l2.restore(d).map_err(|e| e.within("l2"))?;
        d.restore_opt("l3", self.l3.as_mut())?;
        d.restore_seq("l1 port", &mut self.l1_ports)?;
        self.l2_port.restore(d)?;
        self.dram_port.restore(d)?;
        self.atomic_port.restore(d)?;
        self.dram_accesses.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l1 = CacheConfig::new(512, 2);
        cfg.l2 = CacheConfig::new(2048, 2);
        Hierarchy::new(cfg)
    }

    #[test]
    fn l1_hit_is_cheap() {
        let mut h = tiny();
        h.access(0, 64, false, 0, &mut Hooks::default());
        let r = h.access(0, 64, false, 5, &mut Hooks::default());
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, h.config().l1_latency);
    }

    #[test]
    fn cold_miss_reaches_dram() {
        let mut h = tiny();
        let r = h.access(0, 64, false, 0, &mut Hooks::default());
        assert_eq!(r.level, HitLevel::Dram);
        assert!(r.latency >= h.dram_cycles());
    }

    #[test]
    fn l2_services_other_cores_miss() {
        let mut h = tiny();
        h.access(0, 64, false, 0, &mut Hooks::default()); // brings line into L2 (and core 0's L1)
        let r = h.access(1, 64, false, 100, &mut Hooks::default());
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn freq_ratio_scales_dram() {
        let mut cfg = HierarchyConfig::vortex_default(1);
        cfg.dram_freq_ratio = 6;
        let h = Hierarchy::new(cfg);
        assert_eq!(h.dram_cycles(), cfg.dram_latency * 6);
    }

    #[test]
    fn port_contention_queues() {
        let mut h = tiny();
        // Warm the line so both accesses are L1 hits.
        h.access(0, 64, false, 0, &mut Hooks::default());
        h.reset(); // reset ports but keep... actually flushes; re-warm below.
        h.access(0, 64, false, 0, &mut Hooks::default());
        // Two hits issued the same cycle with 1 port: second queues.
        let a = h.access(0, 64, false, 50, &mut Hooks::default());
        let b = h.access(0, 64, false, 50, &mut Hooks::default());
        assert_eq!(a.queue_delay, 0);
        assert_eq!(b.queue_delay, 1);
    }

    #[test]
    fn l3_between_l2_and_dram() {
        let mut cfg = HierarchyConfig::vortex_default(1);
        cfg.l1 = CacheConfig::new(512, 2);
        cfg.l2 = CacheConfig::new(1024, 2);
        cfg.l3 = Some(CacheConfig::new(64 * 1024, 16));
        let mut h = Hierarchy::new(cfg);
        h.access(0, 64, false, 0, &mut Hooks::default()); // into all levels
                                                          // Evict from L1 and L2 with conflicting lines, then re-access: L3 hit.
        for i in 1..40u64 {
            h.access(0, 64 + i * 1024, false, i * 10, &mut Hooks::default());
        }
        let r = h.access(0, 64, false, 10_000, &mut Hooks::default());
        assert!(
            matches!(r.level, HitLevel::L3 | HitLevel::L2),
            "expected L2/L3 hit, got {:?}",
            r.level
        );
    }

    #[test]
    fn atomics_bypass_l1() {
        let mut h = tiny();
        h.access(0, 64, false, 0, &mut Hooks::default()); // L1-resident
        let r = h.atomic(0, 64, 10, &mut Hooks::default());
        assert_ne!(r.level, HitLevel::L1);
        assert!(r.latency >= h.config().l2_latency);
    }

    #[test]
    fn stats_aggregate() {
        let mut h = tiny();
        h.access(0, 0, false, 0, &mut Hooks::default());
        h.access(1, 4096, false, 0, &mut Hooks::default());
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
        assert_eq!(s.l1.misses, 2);
        assert_eq!(s.dram_accesses, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = tiny();
        h.access(0, 0, false, 0, &mut Hooks::default());
        h.reset();
        let s = h.stats();
        assert_eq!(s.l1.accesses, 0);
        assert_eq!(s.dram_accesses, 0);
        // Line is gone after flush.
        let r = h.access(0, 0, false, 0, &mut Hooks::default());
        assert_eq!(r.level, HitLevel::Dram);
    }

    #[test]
    fn level_stats_add_folds_optional_l3() {
        let mut a = LevelStats {
            l1: CacheStats {
                accesses: 10,
                hits: 8,
                misses: 2,
                writebacks: 1,
            },
            dram_accesses: 3,
            ..LevelStats::default()
        };
        let b = LevelStats {
            l1: CacheStats {
                accesses: 4,
                hits: 1,
                misses: 3,
                writebacks: 0,
            },
            l3: Some(CacheStats {
                accesses: 5,
                hits: 2,
                misses: 3,
                writebacks: 1,
            }),
            dram_accesses: 4,
            ..LevelStats::default()
        };
        a.add(&b);
        assert_eq!(a.l1.accesses, 14);
        assert_eq!(a.l1.hits, 9);
        assert_eq!(a.dram_accesses, 7);
        // None + Some adopts the L3 stats instead of dropping them.
        assert_eq!(a.l3.unwrap().accesses, 5);
        // Some + Some folds field-wise.
        a.add(&b);
        assert_eq!(a.l3.unwrap().accesses, 10);
        assert_eq!(a.l3.unwrap().writebacks, 2);
    }

    #[test]
    fn tracer_records_cache_and_dram_events() {
        use sparseweaver_trace::{TraceConfig, Tracer};

        let mut h = tiny();
        let mut hooks = Hooks {
            tracer: Some(Tracer::new(TraceConfig::default())),
            ..Hooks::default()
        };
        let t = hooks.tracer.as_mut().unwrap();
        t.kernel_begin("k");
        h.access(0, 64, false, 0, &mut hooks); // cold miss: CacheAccess(DRAM) + DramTransaction
        h.access(0, 64, false, 10, &mut hooks); // warm: CacheAccess(L1)
        let t = hooks.tracer.as_mut().unwrap();
        t.kernel_end(20, &Default::default());
        let r = t.take_report();
        assert_eq!(r.events.len(), 5); // launch, 2 cache, 1 dram, end
    }

    #[test]
    fn tracer_does_not_change_timing() {
        use sparseweaver_trace::{TraceConfig, Tracer};

        let mut plain = tiny();
        let mut traced = tiny();
        let mut hooks = Hooks {
            tracer: Some(Tracer::new(TraceConfig::default())),
            ..Hooks::default()
        };
        for i in 0..50u64 {
            let addr = (i * 192) % 4096;
            let a = plain.access(0, addr, i % 3 == 0, i * 2, &mut Hooks::default());
            let b = traced.access(0, addr, i % 3 == 0, i * 2, &mut hooks);
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn validate_names_the_offending_level() {
        let mut cfg = HierarchyConfig::vortex_default(1);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.l2 = CacheConfig {
            size_bytes: 192,
            ways: 1,
        };
        let e = cfg.validate().expect_err("bad l2");
        assert!(matches!(e, HierarchyConfigError::Level { level: "l2", .. }));
        assert!(e.to_string().starts_with("l2: "), "{e}");
        cfg.l2 = CacheConfig::new(2048, 2);
        cfg.num_cores = 0;
        assert_eq!(cfg.validate(), Err(HierarchyConfigError::NoCores));
    }

    #[test]
    fn sparseweaver_config_halves_l1() {
        let v = HierarchyConfig::vortex_default(1);
        let s = HierarchyConfig::sparseweaver_default(1);
        assert_eq!(s.l1.size_bytes * 2, v.l1.size_bytes);
    }
}
