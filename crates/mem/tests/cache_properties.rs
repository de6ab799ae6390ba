//! Model-based property tests: the set-associative cache must agree with
//! a naive reference LRU model on every access of any trace, and the
//! hierarchy must maintain basic accounting invariants.

use proptest::prelude::*;
use sparseweaver_mem::{Cache, CacheConfig, Hierarchy, HierarchyConfig, Hooks, LINE_BYTES};

/// A naive LRU model: per set, a most-recent-first list of tags.
struct RefModel {
    sets: Vec<Vec<u64>>,
    ways: usize,
    num_sets: u64,
}

impl RefModel {
    fn new(cfg: CacheConfig) -> Self {
        RefModel {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            ways: cfg.ways as usize,
            num_sets: cfg.num_sets(),
        }
    }

    /// Returns whether the access hits.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let set = (line & (self.num_sets - 1)) as usize;
        let tag = line / self.num_sets;
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.insert(0, tag);
            true
        } else {
            list.insert(0, tag);
            list.truncate(self.ways);
            false
        }
    }
}

proptest! {
    /// Hit/miss agreement with the reference LRU on arbitrary traces.
    #[test]
    fn cache_matches_reference_lru(
        addrs in prop::collection::vec(0u64..8192, 1..300),
        writes in prop::collection::vec(any::<bool>(), 300),
    ) {
        let cfg = CacheConfig::new(1024, 2); // 8 sets x 2 ways
        let mut cache = Cache::new(cfg);
        let mut model = RefModel::new(cfg);
        for (i, &a) in addrs.iter().enumerate() {
            let got = cache.access(a, writes[i % writes.len()]);
            let want = model.access(a);
            prop_assert_eq!(got.hit, want, "access {} at {:#x}", i, a);
        }
    }

    /// Accounting: hits + misses == accesses; writebacks <= misses
    /// (a line must be brought in before it can be evicted dirty).
    #[test]
    fn cache_accounting(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        let mut cache = Cache::new(CacheConfig::new(512, 2));
        for (i, &a) in addrs.iter().enumerate() {
            cache.access(a, i % 3 == 0);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(s.writebacks <= s.misses);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
    }

    /// Hierarchy: latency is monotone in depth — an L1 hit is never
    /// slower than an L2 hit, which is never slower than DRAM; and
    /// queueing only ever adds latency.
    #[test]
    fn hierarchy_latency_monotone(
        addrs in prop::collection::vec(0u64..65536, 1..150),
    ) {
        let mut cfg = HierarchyConfig::vortex_default(2);
        cfg.l1 = sparseweaver_mem::CacheConfig::new(1024, 2);
        cfg.l2 = sparseweaver_mem::CacheConfig::new(8192, 4);
        let mut h = Hierarchy::new(cfg);
        let mut now = 0u64;
        for &a in &addrs {
            let r = h.access(0, a, false, now, &mut Hooks::default());
            let floor = match r.level {
                sparseweaver_mem::hierarchy::HitLevel::L1 => cfg.l1_latency,
                sparseweaver_mem::hierarchy::HitLevel::L2 => cfg.l1_latency + cfg.l2_latency,
                sparseweaver_mem::hierarchy::HitLevel::L3 => {
                    cfg.l1_latency + cfg.l2_latency + cfg.l3_latency
                }
                sparseweaver_mem::hierarchy::HitLevel::Dram => {
                    cfg.l1_latency + cfg.l2_latency + cfg.dram_latency * cfg.dram_freq_ratio
                }
            };
            prop_assert!(r.latency >= floor, "latency {} below floor {}", r.latency, floor);
            now += 7;
        }
        let s = h.stats();
        prop_assert_eq!(s.l1.hits + s.l1.misses, s.l1.accesses);
        // Every L2 access originates from an L1 miss or writeback.
        prop_assert!(s.l2.accesses <= s.l1.misses + s.l1.writebacks);
    }

    /// Repeating the same trace after `reset` reproduces identical stats
    /// (the determinism the whole evaluation relies on).
    #[test]
    fn hierarchy_deterministic_across_reset(
        addrs in prop::collection::vec(0u64..32768, 1..100),
    ) {
        let mut cfg = HierarchyConfig::vortex_default(1);
        cfg.l1 = sparseweaver_mem::CacheConfig::new(1024, 2);
        cfg.l2 = sparseweaver_mem::CacheConfig::new(4096, 4);
        let mut h = Hierarchy::new(cfg);
        let run = |h: &mut Hierarchy| -> Vec<u64> {
            addrs.iter().enumerate().map(|(i, &a)| {
                h.access(0, a, i % 2 == 0, i as u64 * 3, &mut Hooks::default())
                    .latency
            }).collect()
        };
        let first = run(&mut h);
        h.reset();
        let second = run(&mut h);
        prop_assert_eq!(first, second);
    }
}
