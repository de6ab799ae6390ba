//! Seeded equivalence of [`Cache`] with the set-of-vectors cache it
//! replaced: the same hit, eviction and write-back at every access, the
//! same counters, and byte-identical snapshots that restore into either.

use sparseweaver_mem::cache::CacheAccess;
use sparseweaver_mem::{Cache, CacheConfig, CacheStats, LINE_BYTES};
use sparseweaver_trace::codec::{CodecError, Dec, Enc, Snapshot};

/// The previous implementation, kept verbatim as the reference: one
/// `Vec` of ways per set, two searches of the set, and divisions by the
/// set count.
mod reference {
    use super::*;

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

    pub struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        pub stats: CacheStats,
        tick: u64,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> Self {
            let sets = vec![vec![Line::default(); cfg.ways as usize]; cfg.num_sets() as usize];
            RefCache {
                cfg,
                sets,
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
            self.tick += 1;
            let line_addr = sparseweaver_mem::line_of(addr);
            let set_idx = ((line_addr / LINE_BYTES) & (self.cfg.num_sets() - 1)) as usize;
            let tag = line_addr / LINE_BYTES / self.cfg.num_sets();
            self.stats.accesses += 1;

            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.last_use = self.tick;
                line.dirty |= write;
                self.stats.hits += 1;
                return CacheAccess {
                    hit: true,
                    evicted_dirty: None,
                };
            }
            self.stats.misses += 1;
            let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_use)
                    .map(|(i, _)| i)
                    .expect("non-empty set")
            });
            let victim = &mut set[victim_idx];
            let evicted_dirty = if victim.valid && victim.dirty {
                self.stats.writebacks += 1;
                let victim_line = (victim.tag * self.cfg.num_sets() + set_idx as u64) * LINE_BYTES;
                Some(victim_line)
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

        pub fn flush(&mut self) {
            for set in &mut self.sets {
                for line in set.iter_mut() {
                    *line = Line::default();
                }
            }
        }
    }

    impl Snapshot for RefCache {
        fn save(&self, e: &mut Enc) {
            e.usize(self.sets.len() * self.cfg.ways as usize);
            for line in self.sets.iter().flatten() {
                line.save(e);
            }
            self.tick.save(e);
            self.stats.save(e);
        }

        fn restore(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
            d.expect_len("lines", self.sets.len() * self.cfg.ways as usize)?;
            for line in self.sets.iter_mut().flatten() {
                line.restore(d)?;
            }
            self.tick.restore(d)?;
            self.stats.restore(d)
        }
    }
}

use reference::RefCache;

/// SplitMix64: a seeded stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn save(s: &impl Snapshot) -> Vec<u8> {
    let mut e = Enc::new();
    s.save(&mut e);
    e.into_bytes()
}

fn restore(s: &mut impl Snapshot, bytes: &[u8]) {
    let mut d = Dec::new(bytes);
    s.restore(&mut d).expect("restore");
    d.finish().expect("no trailing bytes");
}

/// One address of a stream that mixes a hot region, strides that map to
/// a single set, and cold addresses well beyond the capacity.
fn address(rng: &mut Rng, cfg: CacheConfig) -> u64 {
    let capacity = cfg.size_bytes;
    let set_stride = cfg.num_sets() * LINE_BYTES;
    match rng.below(4) {
        0 => rng.below(capacity / 2 + 1),
        1 => rng.below(4 * cfg.ways as u64 + 4) * set_stride + rng.below(LINE_BYTES),
        2 => rng.below(4 * capacity),
        _ => rng.below(1 << 40),
    }
}

/// Drives both caches with `steps` accesses, asserting equal outcomes.
fn drive(cache: &mut Cache, model: &mut RefCache, rng: &mut Rng, steps: usize, what: &str) {
    let cfg = cache.config();
    for step in 0..steps {
        if rng.below(2000) == 0 {
            cache.flush();
            model.flush();
        }
        let addr = address(rng, cfg);
        let write = rng.below(10) < 3;
        let got = cache.access(addr, write);
        let want = model.access(addr, write);
        assert_eq!(
            got, want,
            "{what}: step {step}, {cfg:?} access {addr:#x} write {write}"
        );
    }
    assert_eq!(cache.stats(), model.stats, "{what}: {cfg:?} counters");
    assert_eq!(save(cache), save(model), "{what}: {cfg:?} snapshot bytes");
}

#[test]
fn flat_cache_matches_the_set_of_vectors_cache() {
    let mut rng = Rng(0x5eed_cafe);
    for ways in [1u32, 2, 3, 4, 5, 8, 12, 16] {
        for sets in [1u64, 2, 4, 16, 64, 256] {
            let cfg = CacheConfig::new(sets * ways as u64 * LINE_BYTES, ways);
            let mut cache = Cache::new(cfg);
            let mut model = RefCache::new(cfg);
            drive(&mut cache, &mut model, &mut rng, 3000, "fresh");

            // Each side restores the other's snapshot and carries on.
            let mut cache_from_model = Cache::new(cfg);
            restore(&mut cache_from_model, &save(&model));
            let mut model_from_cache = RefCache::new(cfg);
            restore(&mut model_from_cache, &save(&cache));
            drive(
                &mut cache_from_model,
                &mut model_from_cache,
                &mut rng,
                3000,
                "restored",
            );
        }
    }
}

#[test]
fn restore_rejects_another_geometry_in_both() {
    let small = CacheConfig::new(512, 2);
    let big = CacheConfig::new(1024, 2);
    let bytes = save(&Cache::new(small));
    assert_eq!(bytes, save(&RefCache::new(small)));
    assert!(Cache::new(big).restore(&mut Dec::new(&bytes)).is_err());
    assert!(RefCache::new(big).restore(&mut Dec::new(&bytes)).is_err());
}
