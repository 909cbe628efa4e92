//! Property tests for the cache against a reference set-associative LRU
//! model, and MSHR bounds under random access streams.

use proptest::prelude::*;
use shelfsim_mem::{Cache, CacheConfig, Hierarchy, HierarchyConfig};

/// Reference model: per-set vector of (tag, last_use, dirty), true LRU,
/// write-back and write-allocate, with its own hit and writeback counts.
struct RefCache {
    sets: Vec<Vec<(u64, u64, bool)>>,
    assoc: usize,
    block_shift: u32,
    set_mask: u64,
    tick: u64,
    accesses: u64,
    hits: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.num_sets()],
            assoc: cfg.assoc,
            block_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: (cfg.num_sets() - 1) as u64,
            tick: 0,
            accesses: 0,
            hits: 0,
            writebacks: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let set = ((addr >> self.block_shift) & self.set_mask) as usize;
        (set, addr >> self.block_shift >> self.set_mask.count_ones())
    }

    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(e) = ways.iter_mut().find(|e| e.0 == tag) {
            e.1 = self.tick;
            e.2 |= is_write;
            self.hits += 1;
            return true;
        }
        if ways.len() == self.assoc {
            let lru = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("full");
            if ways.remove(lru).2 {
                self.writebacks += 1;
            }
        }
        ways.push((tag, self.tick, is_write));
        false
    }

    fn peek(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().any(|e| e.0 == tag)
    }

    fn flush(&mut self) {
        for ways in &mut self.sets {
            ways.clear();
        }
    }
}

/// One step of a mixed cache stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64, bool),
    Peek(u64),
    Flush,
}

/// Mixed streams over 48 blocks, a third of whose accesses go to four hot
/// blocks, so same-set streaks (the MRU filter's fast path) and evictions are
/// both common; flushes are rare.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..40, 0u64..48, 0u64..64, any::<bool>()).prop_map(|(kind, block, off, write)| {
        let addr = block * 64 + off;
        match kind {
            0 => Op::Flush,
            1..=9 => Op::Peek(addr),
            10..=19 => Op::Access(addr % 256, write),
            _ => Op::Access(addr, write),
        }
    });
    prop::collection::vec(op, 1..400)
}

proptest! {
    #[test]
    fn cache_matches_reference_lru(addrs in prop::collection::vec(0u64..4096, 1..400)) {
        let cfg = CacheConfig { size_bytes: 1024, assoc: 2, block_bytes: 64, latency: 1 };
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(&cfg);
        for a in addrs {
            let got = cache.access(a, false);
            let want = reference.access(a, false);
            prop_assert_eq!(got, want, "divergence at address {:#x}", a);
        }
    }

    #[test]
    fn peek_never_changes_outcomes(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        // Interleaving peeks between accesses must not change hit/miss
        // behaviour relative to the same stream without peeks.
        let cfg = CacheConfig { size_bytes: 512, assoc: 2, block_bytes: 64, latency: 1 };
        let mut with_peeks = Cache::new(cfg);
        let mut without = Cache::new(cfg);
        for &a in &addrs {
            let _ = with_peeks.peek(a ^ 0xfff);
            let _ = with_peeks.peek(a);
            prop_assert_eq!(with_peeks.access(a, false), without.access(a, false));
        }
    }

    #[test]
    fn mixed_streams_match_reference_exactly(
        assoc in prop_oneof![Just(1usize), Just(2), Just(8)],
        sets in prop_oneof![Just(1usize), Just(2), Just(4)],
        stream in ops(),
    ) {
        let cfg = CacheConfig { size_bytes: sets * assoc * 64, assoc, block_bytes: 64, latency: 1 };
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(&cfg);
        for (i, &op) in stream.iter().enumerate() {
            match op {
                Op::Access(a, w) => {
                    prop_assert_eq!(cache.access(a, w), reference.access(a, w), "op {}: {:?}", i, op)
                }
                Op::Peek(a) => prop_assert_eq!(cache.peek(a), reference.peek(a), "op {}: {:?}", i, op),
                Op::Flush => {
                    cache.flush();
                    reference.flush();
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(
            (stats.accesses, stats.hits, stats.writebacks),
            (reference.accesses, reference.hits, reference.writebacks)
        );
    }

    #[test]
    fn hierarchy_latencies_are_ordered_and_bounded(
        addrs in prop::collection::vec(0u64..(1 << 22), 1..100),
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let max = h.latency_of(shelfsim_mem::Level::Memory) as u64;
        let mut now = 0u64;
        for a in addrs {
            if let Ok(acc) = h.access_data(a, false, now) {
                prop_assert!(acc.complete_cycle > now);
                prop_assert!(acc.complete_cycle <= now + max);
            }
            now += 3;
        }
    }

    #[test]
    fn mshr_outstanding_misses_are_bounded(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..200),
        mshrs in 1usize..8,
    ) {
        let cfg = HierarchyConfig { data_mshrs: mshrs, ..Default::default() };
        let mut h = Hierarchy::new(cfg);
        let mut outstanding: Vec<u64> = Vec::new(); // fill cycles
        for (now, a) in addrs.into_iter().enumerate() {
            let now = now as u64;
            outstanding.retain(|&f| f > now);
            match h.access_data(a, false, now) {
                Ok(acc) => {
                    if acc.complete_cycle > now + 2 {
                        // A miss: must fit in the MSHR budget.
                        if !outstanding.contains(&acc.complete_cycle) {
                            outstanding.push(acc.complete_cycle);
                        }
                        prop_assert!(outstanding.len() <= mshrs, "MSHR overflow");
                    }
                }
                Err(_) => {
                    prop_assert_eq!(outstanding.len(), mshrs, "rejected below capacity");
                }
            }
        }
    }
}
