//! A set-associative cache with true-LRU replacement.

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
    /// Access latency in cycles (hit latency).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two block size,
    /// or capacity not divisible by `assoc * block_bytes`).
    pub fn num_sets(&self) -> usize {
        assert!(
            self.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        let set_bytes = self.assoc * self.block_bytes;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes),
            "capacity {} not divisible by way size {}",
            self.size_bytes,
            set_bytes
        );
        let sets = self.size_bytes / set_bytes;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Dirty blocks evicted (writebacks to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (accesses − hits).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `0.0..=1.0`; 0.0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// One way, packed into 16 bytes: `[tag + 1, stamp << 1 | dirty]`, where
/// a larger stamp is more recently used. An invalid way is all zeros, so a
/// fresh tag array comes from zeroed memory, and every valid way's second
/// word (stamps start at 1) exceeds an invalid way's.
type Way = [u64; 2];

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Timing-only: stores tags and replacement state, never data.
///
/// Each set also records the block it touched last (its MRU block), so a
/// read of that block answers "hit" without scanning the set. Skipping its
/// LRU stamp rewrite is exact: the MRU block already holds the set's largest
/// stamp until another block of the set is touched, and victim choice is the
/// only reader of stamps.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    /// Per set: `block + 1` of the block touched last, or 0 for none, so a
    /// fresh (all-zero) array stays lazily allocated.
    mru: Vec<u64>,
    num_sets: usize,
    set_shift: u32,
    set_mask: u64,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`])
    /// or the block is a single byte (the MRU record's `block + 1` and a
    /// way's `tag + 1` must not overflow).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(
            config.block_bytes >= 2,
            "block size must be at least 2 bytes"
        );
        Cache {
            config,
            sets: vec![[0; 2]; num_sets * config.assoc],
            mru: vec![0; num_sets],
            num_sets,
            set_shift: config.block_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Adds `delta * k` to every stat counter (saturating). Used by the
    /// cycle-skip fast-forward to fold a span of `k` identical idle cycles
    /// into the stats without replaying each access.
    pub(crate) fn stats_add_scaled(&mut self, delta: &CacheStats, k: u64) {
        self.stats.accesses = self
            .stats
            .accesses
            .saturating_add(delta.accesses.saturating_mul(k));
        self.stats.hits = self.stats.hits.saturating_add(delta.hits.saturating_mul(k));
        self.stats.writebacks = self
            .stats
            .writebacks
            .saturating_add(delta.writebacks.saturating_mul(k));
    }

    /// Splits `addr` into its set index and block number.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.set_shift;
        ((block & self.set_mask) as usize, block)
    }

    /// The first word of the way that holds `block`.
    #[inline]
    fn key(&self, block: u64) -> u64 {
        (block >> self.num_sets.trailing_zeros()) + 1
    }

    /// Looks up `addr`; on a miss, allocates the block (write-allocate),
    /// evicting the LRU way. Returns `true` on a hit.
    ///
    /// `is_write` marks the block dirty; a dirty eviction counts as a
    /// writeback (timing of the writeback itself is folded into the miss
    /// latency, a standard simplification).
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set, block) = self.locate(addr);
        if !is_write && self.mru[set] == block + 1 {
            self.stats.hits += 1;
            return true;
        }
        self.access_slow(set, block, is_write)
    }

    /// [`Cache::access`] past the MRU filter: finds the hit way and the
    /// victim (the first invalid way, else the least recently used) in one
    /// scan, refreshes the hit way's stamp or fills the victim, and records
    /// `block` as MRU. Inlining is left to the compiler: forcing this out of
    /// line slowed cache warming, whose sweeps miss the filter on every
    /// access.
    fn access_slow(&mut self, set: usize, block: u64, is_write: bool) -> bool {
        self.mru[set] = block + 1;
        let key = self.key(block);
        let stamp = self.tick << 1 | is_write as u64;
        let base = set * self.config.assoc;
        let ways = &mut self.sets[base..base + self.config.assoc];

        let (mut victim, mut oldest) = (0, u64::MAX);
        for (i, way) in ways.iter_mut().enumerate() {
            if way[0] == key {
                way[1] = stamp | way[1] & 1;
                self.stats.hits += 1;
                return true;
            }
            if way[1] < oldest {
                (victim, oldest) = (i, way[1]);
            }
        }
        if oldest & 1 == 1 {
            self.stats.writebacks += 1;
        }
        ways[victim] = [key, stamp];
        false
    }

    /// Reports whether `addr` currently hits, without changing any state.
    #[inline]
    pub fn peek(&self, addr: u64) -> bool {
        let (set, block) = self.locate(addr);
        if self.mru[set] == block + 1 {
            return true;
        }
        let key = self.key(block);
        let base = set * self.config.assoc;
        self.sets[base..base + self.config.assoc]
            .iter()
            .any(|way| way[0] == key)
    }

    /// Invalidates every line (used between benchmark phases in tests).
    pub fn flush(&mut self) {
        self.sets.fill([0; 2]);
        self.mru.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            block_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x103f, false), "same block hits");
        assert!(!c.access(0x1040, false), "next block misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three blocks mapping to the same set (set stride = 4 sets * 64B = 256B).
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // touch A so B is LRU
        c.access(0x0200, false); // evicts B
        assert!(c.peek(0x0000));
        assert!(!c.peek(0x0100));
        assert!(c.peek(0x0200));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        c.access(0x0000, true);
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts dirty block A
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut c = small();
        c.access(0x0000, false);
        let before = *c.stats();
        assert!(c.peek(0x0000));
        assert!(!c.peek(0x4000));
        assert_eq!(*c.stats(), before);
        // Peeking must not refresh LRU: after A then B, a peek of A leaves A
        // the LRU way, so the next fill in the set evicts A and keeps B.
        c.access(0x0100, false);
        c.peek(0x0000);
        c.access(0x0200, false);
        assert!(!c.peek(0x0000));
        assert!(c.peek(0x0100));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0x0000, false);
        c.flush();
        assert!(!c.peek(0x0000));
    }

    #[test]
    fn filtered_reads_keep_lru_order() {
        let mut c = small();
        // A, A, A, B, A, C in one 2-way set: the A streak is filtered, the
        // later A refreshes A past B, so C evicts B.
        for addr in [0x0000, 0x0000, 0x0000, 0x0100, 0x0000, 0x0200] {
            c.access(addr, false);
        }
        assert!(c.peek(0x0000));
        assert!(!c.peek(0x0100));
        assert!(c.peek(0x0200));
        assert_eq!(c.stats().accesses, 6);
        assert_eq!(c.stats().hits, 3);
    }

    #[test]
    fn write_after_filtered_reads_marks_dirty() {
        let mut c = small();
        c.access(0x0000, false);
        c.access(0x0000, false);
        c.access(0x0000, false);
        assert!(c.access(0x0000, true), "write to the MRU block hits");
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts A, now dirty
        assert!(!c.peek(0x0000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_clears_the_mru_record() {
        let mut c = small();
        c.access(0x0000, false);
        c.access(0x0000, false);
        c.flush();
        assert!(!c.peek(0x0000));
        assert!(!c.access(0x0000, false));
    }

    fn geometry_cache(size_bytes: usize, assoc: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes,
            assoc,
            block_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn address_zero_is_not_an_invalid_way() {
        // Block 0 has tag 0, stored as key 1; a fresh way is all zeros.
        let mut c = small();
        assert!(!c.peek(0), "a fresh cache holds nothing");
        assert!(!c.access(0, false));
        assert!(c.peek(0));
        assert!(c.access(0x3f, false));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn largest_tag_round_trips() {
        let mut c = small();
        let top = u64::MAX;
        assert!(!c.access(top, true));
        assert!(c.peek(top));
        assert!(c.access(top - 63, false), "same block");
        // Two more blocks of its set evict it, dirty.
        c.access(top - 0x100, false);
        c.access(top - 0x200, false);
        assert!(!c.peek(top));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn direct_mapped_evicts_on_every_conflict() {
        // 4 sets x 1 way.
        let mut c = geometry_cache(256, 1);
        assert!(!c.access(0x000, true));
        assert!(!c.access(0x100, false), "same set, other tag");
        assert_eq!(c.stats().writebacks, 1, "the dirty block was the victim");
        assert!(!c.peek(0x000));
        assert!(c.peek(0x100));
        assert!(!c.access(0x000, false));
        assert_eq!(c.stats().writebacks, 1, "a clean victim writes nothing");
    }

    #[test]
    fn single_set_is_fully_associative_lru() {
        // 1 set x 4 ways: any four blocks fit, the fifth evicts the LRU.
        let mut c = geometry_cache(256, 4);
        for a in [0x0000, 0x1040, 0x2080, 0x30c0] {
            assert!(!c.access(a, a == 0x1040));
        }
        assert!(c.access(0x0000, false), "touch A: B is now LRU");
        assert!(!c.access(0x4000, false));
        assert!(!c.peek(0x1040));
        assert_eq!(c.stats().writebacks, 1, "B was dirty");
        for a in [0x0000, 0x2080, 0x30c0, 0x4000] {
            assert!(c.peek(a), "{a:#x}");
        }
    }

    #[test]
    fn a_read_hit_keeps_the_dirty_bit() {
        let mut c = small();
        c.access(0x0000, true);
        c.access(0x0100, false);
        // A read hit past the MRU filter refreshes A's stamp only.
        assert!(c.access(0x0000, false));
        c.access(0x0200, false); // evicts B, clean
        assert_eq!(c.stats().writebacks, 0);
        c.access(0x0300, false); // evicts A, still dirty
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_then_refill_starts_from_invalid_ways() {
        let mut c = small();
        c.access(0x0000, true);
        c.access(0x0100, true);
        c.flush();
        // The flushed dirty blocks are dropped, not written back, and the
        // refill takes the invalid ways before evicting anything.
        assert!(!c.access(0x0200, false));
        assert!(!c.access(0x0000, false));
        assert!(c.peek(0x0200) && c.peek(0x0000));
        assert_eq!(c.stats().writebacks, 0);
        // The set is full again: the next fill evicts the LRU block (0x200).
        assert!(!c.access(0x0100, false));
        assert!(!c.peek(0x0200));
        assert!(c.peek(0x0000));
    }

    #[test]
    fn peek_of_an_invalid_way_misses() {
        let mut c = small();
        // Set 0 holds one valid way and one invalid (all-zero) way.
        c.access(0x0100, false);
        assert!(!c.peek(0x0000), "tag 0 must not match the invalid way");
        assert!(!c.peek(0x0200));
        assert!(c.peek(0x0100));
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn one_byte_blocks_panic() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 8,
            assoc: 2,
            block_bytes: 1,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_block_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            block_bytes: 48,
            latency: 1,
        });
    }
}
