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

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Timing-only: stores tags and replacement state, never data.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Line>,
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
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        Cache {
            config,
            sets: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0
                };
                num_sets * config.assoc
            ],
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

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.set_shift >> self.num_sets.trailing_zeros()
    }

    /// Looks up `addr`; on a miss, allocates the block (write-allocate),
    /// evicting the LRU way. Returns `true` on a hit.
    ///
    /// `is_write` marks the block dirty; a dirty eviction counts as a
    /// writeback (timing of the writeback itself is folded into the miss
    /// latency, a standard simplification).
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = set * self.config.assoc;
        let ways = &mut self.sets[base..base + self.config.assoc];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return true;
        }

        // Miss: pick the invalid way if any, else the LRU way.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("associativity >= 1");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        false
    }

    /// Reports whether `addr` currently hits, without changing any state.
    pub fn peek(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = set * self.config.assoc;
        self.sets[base..base + self.config.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates every line (used between benchmark phases in tests).
    pub fn flush(&mut self) {
        for l in &mut self.sets {
            l.valid = false;
            l.dirty = false;
        }
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
        // Peeking also must not refresh LRU: make A LRU, peek it, then fill.
        c.access(0x0100, false);
        c.peek(0x0000); // if this refreshed LRU the next fill would evict B
                        // A is older than B; a new block must evict A... actually LRU order:
                        // A(t1), B(t2). Peek must not bump A, so the victim is A.
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
    fn miss_ratio() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
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
