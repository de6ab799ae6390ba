//! Set-associative, write-back, write-allocate, LRU cache (timing-only).

use std::fmt;

use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

use crate::LINE_BYTES;

/// Why a cache geometry is unusable, reported by
/// [`CacheConfig::validate`]/[`CacheConfig::checked`].
///
/// [`Cache::access`] indexes sets with a `& (num_sets - 1)` mask, which
/// is only a modulo when the set count is a power of two. A geometry that
/// violates that would *silently alias* distinct sets into each other —
/// every hit/miss counter the sweep reports would be wrong with no error
/// anywhere — so it must be rejected as a typed error on every
/// construction path, including deserialized and swept configurations
/// that never go through [`CacheConfig::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// `size_bytes / (line * ways)` leaves zero sets.
    NoSets {
        /// The rejected capacity.
        size_bytes: u64,
        /// The rejected associativity.
        ways: u32,
    },
    /// The set count is not a power of two, so the set-index mask would
    /// alias sets.
    NonPowerOfTwoSets {
        /// The rejected capacity.
        size_bytes: u64,
        /// The rejected associativity.
        ways: u32,
        /// The resulting (non-power-of-two) set count.
        num_sets: u64,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::NoSets { size_bytes, ways } => {
                write!(f, "cache too small for {ways} ways ({size_bytes} bytes)")
            }
            CacheConfigError::NonPowerOfTwoSets {
                size_bytes,
                ways,
                num_sets,
            } => write!(
                f,
                "number of sets must be a power of two (got {num_sets} \
                 from {size_bytes} bytes x {ways} ways)"
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// A cache of `size_bytes` with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is a power-of-two number of non-empty
    /// sets. Fallible callers (config deserializers, sweep drivers) use
    /// [`CacheConfig::checked`] instead.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        match Self::checked(size_bytes, ways) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`CacheConfig::new`], but returns a typed
    /// [`CacheConfigError`] instead of panicking — the constructor for
    /// geometries that come from user input (deserialized configs, sweep
    /// grids).
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] unless the geometry is a
    /// power-of-two number of non-empty sets.
    pub fn checked(size_bytes: u64, ways: u32) -> Result<Self, CacheConfigError> {
        let cfg = CacheConfig { size_bytes, ways };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the geometry of an already-built value. The struct has
    /// public fields and can be deserialized, so any consumer that did
    /// not obtain it from [`CacheConfig::new`]/[`CacheConfig::checked`]
    /// must call this before building a [`Cache`] on it.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] unless the geometry is a
    /// power-of-two number of non-empty sets.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.num_sets() == 0 {
            return Err(CacheConfigError::NoSets {
                size_bytes: self.size_bytes,
                ways: self.ways,
            });
        }
        if !self.num_sets().is_power_of_two() {
            return Err(CacheConfigError::NonPowerOfTwoSets {
                size_bytes: self.size_bytes,
                ways: self.ways,
                num_sets: self.num_sets(),
            });
        }
        Ok(())
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.ways as u64)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

sparseweaver_trace::snapshot_fields!(CacheStats {
    accesses,
    hits,
    misses,
    writebacks
});

impl CacheStats {
    /// Adds another set of counters field-wise.
    pub fn add(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }

    /// Hit rate in `[0, 1]` (0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    last_use: u64,
}

sparseweaver_trace::snapshot_fields!(Line {
    valid,
    dirty,
    tag,
    last_use
});

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address of a dirty line evicted to make room, if any.
    pub evicted_dirty: Option<u64>,
}

/// A timing-only cache: tags and dirty bits, no data (data lives in
/// [`crate::MainMemory`]).
///
/// # Examples
///
/// ```
/// use sparseweaver_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(4096, 4));
/// assert!(!c.access(0, false).hit);   // cold miss
/// assert!(c.access(0, false).hit);    // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Ways per set, as an index stride into `lines`.
    ways: usize,
    /// `num_sets - 1`: a line number's set index is its low bits.
    set_mask: u64,
    /// `log2(num_sets)`: a line number's tag is the bits above the index.
    set_shift: u32,
    /// The tag array, set-major: set `s` is `lines[s * ways..][..ways]`.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects `cfg`. The geometry
    /// is re-checked here — not only in [`CacheConfig::new`] — because
    /// the config type has public fields and is decoded from trace
    /// headers: a hand-built or decoded geometry must never reach
    /// [`Cache::access`]'s power-of-two set mask and silently alias
    /// sets. Fallible callers validate the config up front and surface
    /// the typed error instead.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let num_sets = cfg.num_sets();
        let ways = cfg.ways as usize;
        Cache {
            cfg,
            ways,
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            lines: vec![Line::default(); num_sets as usize * ways],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents), e.g. between kernels.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses the line containing `addr`, allocating on miss (LRU
    /// victim). `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.tick += 1;
        let line_no = addr / LINE_BYTES;
        let set_idx = line_no & self.set_mask;
        let tag = line_no >> self.set_shift;
        self.stats.accesses += 1;

        let base = set_idx as usize * self.ways;
        let set = &mut self.lines[base..base + self.ways];
        // One pass finds the hit or the victim: the first invalid way if
        // there is one, else the first least-recently-used way. An invalid
        // way ages as 0 and a valid one as its last use with the top bit
        // set (ticks stay below 2^63), so one unsigned minimum, taken
        // without branches, makes both choices.
        let mut victim_idx = 0;
        let mut oldest = u64::MAX;
        for (i, line) in set.iter().enumerate() {
            if line.valid && line.tag == tag {
                let line = &mut set[i];
                line.last_use = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return CacheAccess {
                    hit: true,
                    evicted_dirty: None,
                };
            }
            let age = if line.valid {
                line.last_use | 1 << 63
            } else {
                0
            };
            let older = age < oldest;
            oldest = if older { age } else { oldest };
            victim_idx = if older { i } else { victim_idx };
        }
        self.stats.misses += 1;
        let victim = &mut set[victim_idx];
        let evicted_dirty = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(((victim.tag << self.set_shift) | set_idx) * LINE_BYTES)
        } else {
            None
        };
        *victim = Line {
            valid: true,
            dirty: write,
            tag,
            last_use: self.tick,
        };
        CacheAccess {
            hit: false,
            evicted_dirty,
        }
    }

    /// Invalidates everything (e.g. when reconfiguring between runs).
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
    }
}

/// The tag array in set-major order, the LRU clock, and the counters.
/// Geometry is configuration: the restoring cache must have the same line
/// count.
impl Snapshot for Cache {
    fn save(&self, e: &mut Enc) {
        e.usize(self.lines.len());
        for line in &self.lines {
            line.save(e);
        }
        self.tick.save(e);
        self.stats.save(e);
    }

    fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        d.expect_len("lines", self.lines.len())?;
        for line in &mut self.lines {
            line.restore(d)?;
        }
        self.tick.restore(d)?;
        self.stats.restore(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheConfig::new(192, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hand_built_bad_config_cannot_reach_cache() {
        // Bypass CacheConfig::new entirely (the decode/sweep path): the
        // struct literal used to slip straight into Cache::new and alias
        // sets through the `& (num_sets - 1)` mask. 192 bytes / 1 way =
        // 3 sets; the mask would fold set 2 into set 0 silently.
        let bad = CacheConfig {
            size_bytes: 192,
            ways: 1,
        };
        let _ = Cache::new(bad);
    }

    #[test]
    fn checked_and_validate_report_typed_errors() {
        let bad = CacheConfig {
            size_bytes: 192,
            ways: 1,
        };
        assert_eq!(
            bad.validate(),
            Err(CacheConfigError::NonPowerOfTwoSets {
                size_bytes: 192,
                ways: 1,
                num_sets: 3
            })
        );
        assert_eq!(
            CacheConfig::checked(64, 4),
            Err(CacheConfigError::NoSets {
                size_bytes: 64,
                ways: 4
            })
        );
        assert!(CacheConfig::checked(64, 4)
            .unwrap_err()
            .to_string()
            .contains("too small"));
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("power of two"));
        assert_eq!(CacheConfig::checked(512, 2), Ok(CacheConfig::new(512, 2)));
    }

    #[test]
    fn same_line_hits() {
        let mut c = small();
        assert!(!c.access(100, false).hit);
        assert!(c.access(101, false).hit); // same 64B line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0: line addresses stride = sets*64 = 256.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch line 0 so 256 is LRU
        c.access(512, false); // evicts 256
        assert!(c.access(0, false).hit);
        assert!(!c.access(256, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts LRU = line 0 (dirty)
        assert_eq!(out.evicted_dirty, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(0, false);
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.evicted_dirty, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // dirty via hit
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.evicted_dirty, Some(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0, false);
        c.flush();
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn hit_rate() {
        let mut c = small();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicted_line_address_reconstruction() {
        let mut c = small();
        // Fill set 1 with dirty lines: line addr 64 (set 1), 64+256, 64+512.
        c.access(64, true);
        c.access(320, true);
        let out = c.access(576, true);
        assert_eq!(out.evicted_dirty, Some(64));
    }
}
