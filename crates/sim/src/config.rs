//! GPU configuration presets.

use std::fmt;

use sparseweaver_isa::NUM_REGS;
use sparseweaver_mem::{HierarchyConfig, HierarchyConfigError};
use sparseweaver_weaver::WeaverConfig;

/// Which unit sits behind the `WEAVER_*` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeaverMode {
    /// The SparseWeaver Weaver unit (registration carries vid/loc/deg;
    /// the GPU performs edge-information loads itself).
    Weaver,
    /// The edge-generating-hardware baseline of Case Study 1 (registration
    /// carries only vids; the unit reads topology and edge info itself and
    /// stages records in shared memory).
    Eghw,
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of cores (the paper uses 2 sockets x 3 cores = 6).
    pub num_cores: usize,
    /// Warps per core (32 in the paper).
    pub warps_per_core: usize,
    /// Threads (lanes) per warp (32 in the paper).
    pub threads_per_warp: usize,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Weaver unit configuration.
    pub weaver: WeaverConfig,
    /// Which unit handles `WEAVER_*` instructions.
    pub weaver_mode: WeaverMode,
    /// Per-core shared-memory (scratchpad) size in bytes.
    pub shared_mem_bytes: usize,
    /// Shared-memory access latency in cycles.
    pub shared_latency: u64,
    /// Integer ALU result latency.
    pub alu_latency: u64,
    /// FPU result latency.
    pub fpu_latency: u64,
    /// Architectural registers each resident warp needs slots for, at
    /// most [`sparseweaver_isa::NUM_REGS`]. A kernel whose register
    /// high-water exceeds this cannot run.
    pub regfile_regs_per_warp: usize,
    /// Physical register-file capacity per core, in registers. Divided
    /// by a kernel's register demand it yields the occupancy cap — how
    /// many warps can actually be resident (see
    /// [`GpuConfig::occupancy_cap`]).
    pub regs_per_core: usize,
    /// Safety limit per kernel launch.
    pub max_cycles: u64,
}

impl GpuConfig {
    /// The paper's evaluation machine: 2 sockets x 3 cores, 32 warps/core,
    /// 32 threads/warp, 64KB L1 + 1MB L2 (Section V), with the Weaver
    /// tables' L1 penalty applied when the Weaver schedule is used.
    pub fn vortex_default() -> Self {
        GpuConfig {
            num_cores: 6,
            warps_per_core: 32,
            threads_per_warp: 32,
            hierarchy: HierarchyConfig::vortex_default(6),
            weaver: WeaverConfig::default(),
            weaver_mode: WeaverMode::Weaver,
            shared_mem_bytes: 256 * 1024,
            shared_latency: 2,
            alu_latency: 1,
            fpu_latency: 3,
            regfile_regs_per_warp: sparseweaver_isa::NUM_REGS,
            regs_per_core: sparseweaver_isa::NUM_REGS * 32,
            max_cycles: u64::MAX,
        }
    }

    /// The evaluation configuration: the paper's machine shape (6 cores,
    /// 32 warps, 32 lanes) with the cache hierarchy *scaled to the scaled
    /// datasets* (L1 8KB, L2 128KB).
    ///
    /// The Table III stand-ins are ~200x smaller than the originals; with
    /// the paper's literal 64KB/1MB caches they would be cache-resident,
    /// erasing the memory-boundedness that drives the evaluation (the
    /// paper's graphs are hundreds of times larger than the L2). Scaling
    /// the hierarchy with the data preserves the graph:cache ratio — see
    /// DESIGN.md, substitution 2.
    pub fn evaluation_default() -> Self {
        let mut cfg = Self::vortex_default();
        cfg.hierarchy.l1 = sparseweaver_mem::CacheConfig::new(8 * 1024, 4);
        cfg.hierarchy.l2 = sparseweaver_mem::CacheConfig::new(128 * 1024, 8);
        cfg
    }

    /// The 8-core, 32-warp, 32-thread configuration used for the
    /// work-table-latency sweep (Fig. 13), with evaluation-scaled caches.
    pub fn eight_core() -> Self {
        let mut cfg = Self::evaluation_default();
        cfg.num_cores = 8;
        cfg.hierarchy.num_cores = 8;
        cfg
    }

    /// A scaled-down configuration for fast unit/integration tests.
    pub fn small_test() -> Self {
        let mut h = HierarchyConfig::vortex_default(2);
        h.l1 = sparseweaver_mem::CacheConfig::new(8 * 1024, 4);
        h.l2 = sparseweaver_mem::CacheConfig::new(64 * 1024, 8);
        GpuConfig {
            num_cores: 2,
            warps_per_core: 4,
            threads_per_warp: 4,
            hierarchy: h,
            weaver: WeaverConfig {
                st_capacity: 16,
                ..WeaverConfig::default()
            },
            weaver_mode: WeaverMode::Weaver,
            shared_mem_bytes: 64 * 1024,
            shared_latency: 2,
            alu_latency: 1,
            fpu_latency: 3,
            regfile_regs_per_warp: sparseweaver_isa::NUM_REGS,
            regs_per_core: sparseweaver_isa::NUM_REGS * 4,
            max_cycles: 200_000_000,
        }
    }

    /// A register-file-limited variant of [`GpuConfig::small_test`]: the
    /// same 2-core / 4-warp / 4-lane machine with a register file sized so
    /// that typical kernels (register high-water well above 8) cannot keep
    /// all four warps resident. Used to exercise and demonstrate the
    /// occupancy cap.
    pub fn regfile_limited() -> Self {
        let mut cfg = Self::small_test();
        cfg.regfile_regs_per_warp = 32;
        cfg.regs_per_core = 32;
        cfg
    }

    /// An Ampere-A30-like stand-in for the Fig. 3/4 comparison: more
    /// cores and a larger L2 than the Vortex baseline (cache sizes scaled
    /// with the datasets like [`GpuConfig::evaluation_default`]).
    pub fn ampere_like() -> Self {
        let mut h = HierarchyConfig::vortex_default(16);
        h.l1 = sparseweaver_mem::CacheConfig::new(8 * 1024, 4);
        h.l2 = sparseweaver_mem::CacheConfig::new(256 * 1024, 16);
        let mut cfg = Self::vortex_default();
        cfg.num_cores = 16;
        cfg.hierarchy = h;
        cfg
    }

    /// An Ada-RTX4090-like stand-in: wider still, bigger L2, faster DRAM.
    pub fn ada_like() -> Self {
        let mut h = HierarchyConfig::vortex_default(24);
        h.l1 = sparseweaver_mem::CacheConfig::new(8 * 1024, 4);
        h.l2 = sparseweaver_mem::CacheConfig::new(512 * 1024, 16);
        h.dram_freq_ratio = 1;
        let mut cfg = Self::vortex_default();
        cfg.num_cores = 24;
        cfg.hierarchy = h;
        cfg
    }

    /// Total hardware threads.
    pub fn total_threads(&self) -> usize {
        self.num_cores * self.warps_per_core * self.threads_per_warp
    }

    /// Threads per core.
    pub fn threads_per_core(&self) -> usize {
        self.warps_per_core * self.threads_per_warp
    }

    /// How many warps per core the register file can keep resident for a
    /// kernel with the given register high-water.
    ///
    /// The file holds [`GpuConfig::regs_per_core`] registers; each
    /// resident warp claims one slot per architectural register the
    /// kernel touches (at least 1, at most
    /// [`GpuConfig::regfile_regs_per_warp`]). The cap is clamped to
    /// `1..=warps_per_core`: at least one warp always runs (a kernel
    /// whose demand exceeds the whole file is rejected at launch), and
    /// the scheduler cannot host more warps than exist.
    pub fn occupancy_cap(&self, high_water: usize) -> usize {
        let demand = high_water.clamp(1, self.regfile_regs_per_warp);
        (self.regs_per_core / demand).clamp(1, self.warps_per_core)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: more than 64 lanes per
    /// warp (mask width) or a lane count that is not a power of two, more
    /// than 64 warps per core (ready-mask width), core
    /// counts that disagree with the hierarchy, a zero Weaver ST capacity,
    /// zero cores or warps, a register file that cannot hold one full
    /// warp, or a cache hierarchy that [`HierarchyConfig::validate`]
    /// rejects.
    pub fn validate(&self) -> Result<(), ConfigError> {
        use ConfigError::*;
        let (lanes, cores, regs) = (
            self.threads_per_warp,
            self.num_cores,
            self.regfile_regs_per_warp,
        );
        [
            (lanes > 64, TooManyLanes),
            (!lanes.is_power_of_two(), LanesNotPowerOfTwo),
            (self.warps_per_core > 64, TooManyWarps),
            (cores != self.hierarchy.num_cores, CoreCountMismatch),
            (self.weaver.st_capacity == 0, NoStCapacity),
            (cores == 0, NoCores),
            (self.warps_per_core == 0, NoWarps),
            (!(1..=NUM_REGS).contains(&regs), RegsPerWarpOutOfRange),
            (self.regs_per_core < regs, RegisterFileTooSmall),
        ]
        .into_iter()
        .find_map(|(broken, e)| broken.then_some(e))
        .map_or_else(|| self.hierarchy.validate().map_err(Hierarchy), Err)
    }
}

/// A machine configuration rejected by [`GpuConfig::validate`], one
/// variant per condition it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// More lanes per warp than the 64-bit active mask holds.
    TooManyLanes,
    /// A lane count that is not a power of two.
    LanesNotPowerOfTwo,
    /// More warps per core than a core's 64-bit ready masks hold.
    TooManyWarps,
    /// `num_cores` differs from the hierarchy's core count.
    CoreCountMismatch,
    /// A Weaver sparse table with no entries.
    NoStCapacity,
    /// Zero cores.
    NoCores,
    /// Zero warps per core.
    NoWarps,
    /// `regfile_regs_per_warp` outside `1..=NUM_REGS`.
    RegsPerWarpOutOfRange,
    /// `regs_per_core` below `regfile_regs_per_warp`.
    RegisterFileTooSmall,
    /// A cache level with an unusable geometry.
    Hierarchy(HierarchyConfigError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::TooManyLanes => "at most 64 lanes per warp (mask width)",
            ConfigError::LanesNotPowerOfTwo => "lanes per warp must be a power of two",
            ConfigError::TooManyWarps => "at most 64 warps per core (ready-mask width)",
            ConfigError::CoreCountMismatch => "hierarchy core count must match",
            ConfigError::NoStCapacity => "Weaver ST capacity must be positive",
            ConfigError::NoCores => "at least one core required",
            ConfigError::NoWarps => "at least one warp per core required",
            ConfigError::RegsPerWarpOutOfRange => "regfile_regs_per_warp must be in 1..=NUM_REGS",
            ConfigError::RegisterFileTooSmall => "register file must hold at least one full warp",
            ConfigError::Hierarchy(e) => return write!(f, "cache hierarchy {e}"),
        })
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        GpuConfig::vortex_default().validate().unwrap();
        GpuConfig::evaluation_default().validate().unwrap();
        GpuConfig::eight_core().validate().unwrap();
        GpuConfig::small_test().validate().unwrap();
        GpuConfig::ampere_like().validate().unwrap();
        GpuConfig::ada_like().validate().unwrap();
        GpuConfig::regfile_limited().validate().unwrap();
    }

    #[test]
    fn each_broken_field_gives_its_error() {
        use ConfigError::*;
        let validate = |breaks: fn(&mut GpuConfig)| {
            let mut cfg = GpuConfig::small_test();
            breaks(&mut cfg);
            cfg.validate()
        };
        assert_eq!(validate(|c| c.threads_per_warp = 128), Err(TooManyLanes));
        assert_eq!(
            validate(|c| c.threads_per_warp = 6),
            Err(LanesNotPowerOfTwo)
        );
        assert_eq!(
            validate(|c| c.threads_per_warp = 0),
            Err(LanesNotPowerOfTwo)
        );
        assert_eq!(validate(|c| c.warps_per_core = 64), Ok(()));
        assert_eq!(validate(|c| c.warps_per_core = 65), Err(TooManyWarps));
        assert_eq!(validate(|c| c.num_cores = 4), Err(CoreCountMismatch));
        assert_eq!(validate(|c| c.weaver.st_capacity = 0), Err(NoStCapacity));
        let no_cores = validate(|c| {
            c.num_cores = 0;
            c.hierarchy.num_cores = 0;
        });
        assert_eq!(no_cores, Err(NoCores));
        assert_eq!(validate(|c| c.warps_per_core = 0), Err(NoWarps));
        assert_eq!(
            validate(|c| c.regfile_regs_per_warp = 0),
            Err(RegsPerWarpOutOfRange)
        );
        assert_eq!(
            validate(|c| c.regfile_regs_per_warp = NUM_REGS + 1),
            Err(RegsPerWarpOutOfRange)
        );
        // 16 registers per core, fewer than one warp's 64.
        assert_eq!(
            validate(|c| c.regs_per_core = 16),
            Err(RegisterFileTooSmall)
        );
    }

    #[test]
    fn default_register_files_never_cap_occupancy() {
        for cfg in [
            GpuConfig::vortex_default(),
            GpuConfig::evaluation_default(),
            GpuConfig::small_test(),
        ] {
            // Even a kernel touching every architectural register keeps
            // the machine fully occupied under the default sizing.
            assert_eq!(
                cfg.occupancy_cap(sparseweaver_isa::NUM_REGS),
                cfg.warps_per_core
            );
        }
    }

    #[test]
    fn occupancy_cap_scales_with_register_demand() {
        let cfg = GpuConfig::regfile_limited();
        assert_eq!(cfg.warps_per_core, 4);
        assert_eq!(cfg.occupancy_cap(0), 4, "zero demand counts as one slot");
        assert_eq!(cfg.occupancy_cap(8), 4);
        assert_eq!(cfg.occupancy_cap(12), 2);
        assert_eq!(cfg.occupancy_cap(16), 2);
        assert_eq!(cfg.occupancy_cap(17), 1);
        assert_eq!(cfg.occupancy_cap(32), 1);
        // Demand beyond the per-warp limit clamps rather than dividing
        // to zero; the launch-time check rejects such kernels.
        assert_eq!(cfg.occupancy_cap(64), 1);
    }

    #[test]
    fn paper_configuration() {
        let cfg = GpuConfig::vortex_default();
        assert_eq!(cfg.num_cores, 6); // 2 sockets x 3 cores
        assert_eq!(cfg.warps_per_core, 32);
        assert_eq!(cfg.threads_per_warp, 32);
        assert_eq!(cfg.total_threads(), 6 * 32 * 32);
    }

    #[test]
    fn evaluation_default_scales_caches_with_data() {
        let eval = GpuConfig::evaluation_default();
        let paper = GpuConfig::vortex_default();
        // Same machine shape, smaller caches (DESIGN.md substitution 2).
        assert_eq!(eval.num_cores, paper.num_cores);
        assert_eq!(eval.warps_per_core, paper.warps_per_core);
        assert!(eval.hierarchy.l1.size_bytes < paper.hierarchy.l1.size_bytes);
        assert!(eval.hierarchy.l2.size_bytes < paper.hierarchy.l2.size_bytes);
    }

    #[test]
    fn eight_core_configuration() {
        let cfg = GpuConfig::eight_core();
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.hierarchy.num_cores, 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn bad_cache_geometry_is_a_typed_error() {
        let mut cfg = GpuConfig::small_test();
        cfg.hierarchy.l1.ways = 3;
        let e = cfg.validate().expect_err("three-way L1");
        assert!(
            matches!(
                e,
                ConfigError::Hierarchy(HierarchyConfigError::Level { level: "l1", .. })
            ),
            "{e:?}"
        );
        assert!(e.to_string().starts_with("cache hierarchy l1: "), "{e}");
        cfg.hierarchy.l1.ways = 4;
        cfg.hierarchy.l2.size_bytes = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::Hierarchy(HierarchyConfigError::Level {
                level: "l2",
                ..
            }))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration: cache hierarchy l1: ")]
    fn bad_cache_geometry_rejected_by_gpu_new() {
        let mut cfg = GpuConfig::small_test();
        cfg.hierarchy.l1.ways = 3;
        crate::Gpu::new(cfg);
    }

    #[test]
    fn nvidia_standins_are_wider() {
        assert!(GpuConfig::ampere_like().num_cores > GpuConfig::vortex_default().num_cores);
        assert!(GpuConfig::ada_like().num_cores > GpuConfig::ampere_like().num_cores);
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration: hierarchy core count must match")]
    fn mismatched_cores_rejected() {
        let mut cfg = GpuConfig::vortex_default();
        cfg.num_cores = 4;
        crate::Gpu::new(cfg);
    }
}
