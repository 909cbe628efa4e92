//! The L1I / L1D / L2 / DRAM hierarchy (paper Table I).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::{MshrFile, MshrFull};

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// First-level cache (instruction or data).
    L1,
    /// Unified second-level cache.
    L2,
    /// Main memory.
    Memory,
}

/// The outcome of a timed access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the data is available to dependents.
    pub complete_cycle: u64,
    /// Deepest level that had to be consulted.
    pub level: Level,
}

/// Data-prefetcher organization: none, as in the paper's Table I.
///
/// The type has one variant and survives only as the type of
/// [`HierarchyConfig::prefetch`]: the hierarchy's `Debug` rendering
/// (`prefetch: None`) is part of the core configuration's fingerprint,
/// which every campaign journal key is derived from. The optional
/// next-line prefetcher is [`HierarchyConfig::next_line_prefetch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PrefetchKind {
    /// No prefetcher beyond [`HierarchyConfig::next_line_prefetch`].
    #[default]
    None,
}

/// Hierarchy geometry and latencies.
///
/// The default matches paper Table I at a 2 GHz clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (100 ns at 2 GHz = 200 cycles).
    pub memory_latency: u32,
    /// Data-side MSHRs (bound on outstanding data misses).
    pub data_mshrs: usize,
    /// Instruction-side MSHRs.
    pub inst_mshrs: usize,
    /// Next-line data prefetcher: on an L1D miss, the following block is
    /// fetched alongside it (sharing the same MSHR fill). Default off — the
    /// paper's configuration does not mention one.
    pub next_line_prefetch: bool,
    /// Data-prefetcher organization (always [`PrefetchKind::None`]).
    pub prefetch: PrefetchKind,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 2,
                block_bytes: 64,
                latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 2,
                block_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 2 << 20,
                assoc: 8,
                block_bytes: 64,
                latency: 32,
            },
            memory_latency: 200,
            data_mshrs: 16,
            inst_mshrs: 8,
            next_line_prefetch: false,
            prefetch: PrefetchKind::None,
        }
    }
}

/// The memory hierarchy of one core: private L1I and L1D, a unified L2, and
/// flat-latency DRAM, with MSHR-limited misses.
///
/// Instruction and data addresses live in the same physical space but the
/// workload generator keeps them disjoint, so no coherence between L1I and
/// L1D is modeled.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    data_mshrs: MshrFile,
    inst_mshrs: MshrFile,
    block_mask: u64,
    /// Next-line prefetches issued.
    pub prefetches: u64,
}

impl Hierarchy {
    /// Builds a cold hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        assert_eq!(
            config.l1d.block_bytes, config.l2.block_bytes,
            "uniform block size expected"
        );
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            data_mshrs: MshrFile::new(config.data_mshrs),
            inst_mshrs: MshrFile::new(config.inst_mshrs),
            block_mask: !(config.l1d.block_bytes as u64 - 1),
            prefetches: 0,
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Timed data access starting at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when the access misses L1 and no MSHR is free;
    /// the issue stage must replay the access later.
    pub fn access_data(&mut self, addr: u64, is_store: bool, now: u64) -> Result<Access, MshrFull> {
        let block = addr & self.block_mask;
        // A block still being filled must not count as a hit even though its
        // tag is already installed: merge into the pending miss instead.
        if let Some(fill) = self.data_mshrs.merge_inflight(block, now) {
            self.l1d.access(addr, is_store);
            return Ok(Access {
                complete_cycle: fill,
                level: Level::L1,
            });
        }
        if self.l1d.peek(addr) {
            self.l1d.access(addr, is_store);
            return Ok(Access {
                complete_cycle: now + self.config.l1d.latency as u64,
                level: Level::L1,
            });
        }
        // L1 miss: need an MSHR. Determine the fill level first (peek so a
        // rejected request leaves no side effects).
        let (latency, level) = if self.l2.peek(addr) {
            (self.config.l1d.latency + self.config.l2.latency, Level::L2)
        } else {
            (
                self.config.l1d.latency + self.config.l2.latency + self.config.memory_latency,
                Level::Memory,
            )
        };
        let fill = self.data_mshrs.request(block, now, now + latency as u64)?;
        self.l1d.access(addr, is_store);
        self.l2.access(addr, false);
        if self.config.next_line_prefetch {
            // Piggyback the next block on this miss (no extra MSHR; the
            // fill engine streams two blocks). Tags install immediately;
            // timing error is negligible because demand hits to the
            // prefetched block would otherwise have missed entirely.
            let next = block + self.config.l1d.block_bytes as u64;
            if !self.l1d.peek(next) {
                self.prefetches += 1;
                self.l1d.access(next, false);
                self.l2.access(next, false);
            }
        }
        Ok(Access {
            complete_cycle: fill,
            level,
        })
    }

    /// Timed instruction fetch of the block containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when the fetch misses L1I and no MSHR is free.
    pub fn access_inst(&mut self, addr: u64, now: u64) -> Result<Access, MshrFull> {
        let block = addr & self.block_mask;
        if let Some(fill) = self.inst_mshrs.merge_inflight(block, now) {
            self.l1i.access(addr, false);
            return Ok(Access {
                complete_cycle: fill,
                level: Level::L1,
            });
        }
        if self.l1i.peek(addr) {
            self.l1i.access(addr, false);
            return Ok(Access {
                complete_cycle: now + self.config.l1i.latency as u64,
                level: Level::L1,
            });
        }
        let (latency, level) = if self.l2.peek(addr) {
            (self.config.l1i.latency + self.config.l2.latency, Level::L2)
        } else {
            (
                self.config.l1i.latency + self.config.l2.latency + self.config.memory_latency,
                Level::Memory,
            )
        };
        let fill = self.inst_mshrs.request(block, now, now + latency as u64)?;
        self.l1i.access(addr, false);
        self.l2.access(addr, false);
        Ok(Access {
            complete_cycle: fill,
            level,
        })
    }

    /// Warms the data path with `addr` (fills L1D and L2 tags directly,
    /// bypassing MSHRs and timing). For explicit warm-up only.
    pub fn warm_data(&mut self, addr: u64) {
        self.l1d.access(addr, false);
        self.l2.access(addr, false);
    }

    /// Warms the instruction path with `addr` (fills L1I and L2 tags
    /// directly, bypassing MSHRs and timing). For explicit warm-up only.
    pub fn warm_inst(&mut self, addr: u64) {
        self.l1i.access(addr, false);
        self.l2.access(addr, false);
    }

    /// Functional, non-mutating query: which level would a data access hit?
    ///
    /// Used by the oracle steering policy (paper §IV-A) to predict load
    /// latency without perturbing cache state.
    pub fn peek_data(&self, addr: u64) -> Level {
        if self.l1d.peek(addr) {
            Level::L1
        } else if self.l2.peek(addr) {
            Level::L2
        } else {
            Level::Memory
        }
    }

    /// The data latency the given level implies (cycles from issue to data).
    pub fn latency_of(&self, level: Level) -> u32 {
        match level {
            Level::L1 => self.config.l1d.latency,
            Level::L2 => self.config.l1d.latency + self.config.l2.latency,
            Level::Memory => {
                self.config.l1d.latency + self.config.l2.latency + self.config.memory_latency
            }
        }
    }

    /// L1I counters.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L1D counters.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Earliest pending MSHR fill (data or instruction side) strictly after
    /// `now`. This is the memory hierarchy's contribution to the engine's
    /// event horizon: a core with every stage blocked cannot change state
    /// before the first outstanding miss returns.
    pub fn next_fill_after(&self, now: u64) -> Option<u64> {
        match (
            self.data_mshrs.next_fill_after(now),
            self.inst_mshrs.next_fill_after(now),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Flat snapshot of every event counter in the hierarchy (cache stats,
    /// MSHR traffic, prefetches). The skip engine diffs two snapshots to
    /// learn the per-idle-cycle counter delta, then replays it scaled.
    pub fn counters(&self) -> HierarchyCounters {
        HierarchyCounters {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            prefetches: self.prefetches,
            data_allocations: self.data_mshrs.allocations,
            data_merges: self.data_mshrs.merges,
            data_rejections: self.data_mshrs.rejections,
            inst_allocations: self.inst_mshrs.allocations,
            inst_merges: self.inst_mshrs.merges,
            inst_rejections: self.inst_mshrs.rejections,
        }
    }

    /// Accumulates `delta * k` into the hierarchy's counters (saturating):
    /// the fast-forward analogue of replaying one probed idle cycle's
    /// counter activity `k` times. Tag/LRU state is untouched — an idle
    /// cycle by definition performed no state-changing access.
    pub fn add_scaled_counters(&mut self, delta: &HierarchyCounters, k: u64) {
        self.l1i.stats_add_scaled(&delta.l1i, k);
        self.l1d.stats_add_scaled(&delta.l1d, k);
        self.l2.stats_add_scaled(&delta.l2, k);
        self.prefetches = self
            .prefetches
            .saturating_add(delta.prefetches.saturating_mul(k));
        let m = &mut self.data_mshrs;
        m.allocations = m
            .allocations
            .saturating_add(delta.data_allocations.saturating_mul(k));
        m.merges = m.merges.saturating_add(delta.data_merges.saturating_mul(k));
        m.rejections = m
            .rejections
            .saturating_add(delta.data_rejections.saturating_mul(k));
        let m = &mut self.inst_mshrs;
        m.allocations = m
            .allocations
            .saturating_add(delta.inst_allocations.saturating_mul(k));
        m.merges = m.merges.saturating_add(delta.inst_merges.saturating_mul(k));
        m.rejections = m
            .rejections
            .saturating_add(delta.inst_rejections.saturating_mul(k));
    }
}

/// Flat, comparable snapshot of the hierarchy's event counters (see
/// [`Hierarchy::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyCounters {
    /// L1I stats.
    pub l1i: CacheStats,
    /// L1D stats.
    pub l1d: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Data-side MSHR allocations.
    pub data_allocations: u64,
    /// Data-side MSHR merges.
    pub data_merges: u64,
    /// Data-side MSHR rejections.
    pub data_rejections: u64,
    /// Instruction-side MSHR allocations.
    pub inst_allocations: u64,
    /// Instruction-side MSHR merges.
    pub inst_merges: u64,
    /// Instruction-side MSHR rejections.
    pub inst_rejections: u64,
}

impl HierarchyCounters {
    /// Field-by-field difference `self - before` (every field of `before`
    /// must be ≤ the matching field here; counters are monotone).
    pub fn diff(&self, before: &HierarchyCounters) -> HierarchyCounters {
        let dc = |a: CacheStats, b: CacheStats| CacheStats {
            accesses: a.accesses - b.accesses,
            hits: a.hits - b.hits,
            writebacks: a.writebacks - b.writebacks,
        };
        HierarchyCounters {
            l1i: dc(self.l1i, before.l1i),
            l1d: dc(self.l1d, before.l1d),
            l2: dc(self.l2, before.l2),
            prefetches: self.prefetches - before.prefetches,
            data_allocations: self.data_allocations - before.data_allocations,
            data_merges: self.data_merges - before.data_merges,
            data_rejections: self.data_rejections - before.data_rejections,
            inst_allocations: self.inst_allocations - before.inst_allocations,
            inst_merges: self.inst_merges - before.inst_merges,
            inst_rejections: self.inst_rejections - before.inst_rejections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn default_matches_table1() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1i.size_bytes, 32 << 10);
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.l2.size_bytes, 2 << 20);
        assert_eq!(c.l2.latency, 32);
        assert_eq!(c.memory_latency, 200);
    }

    #[test]
    fn cold_access_goes_to_memory_then_hits() {
        let mut h = hier();
        let a = h.access_data(0x1_0000, false, 0).unwrap();
        assert_eq!(a.level, Level::Memory);
        assert_eq!(a.complete_cycle, (2 + 32 + 200) as u64);
        let b = h.access_data(0x1_0000, false, a.complete_cycle).unwrap();
        assert_eq!(b.level, Level::L1);
        assert_eq!(b.complete_cycle, a.complete_cycle + 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hier();
        h.access_data(0x0, false, 0).unwrap();
        // Evict set 0 of the 2-way L1 (set stride 16 KB) but stay in L2.
        h.access_data(16 << 10, false, 300).unwrap();
        h.access_data(32 << 10, false, 600).unwrap();
        let a = h.access_data(0x0, false, 900).unwrap();
        assert_eq!(a.level, Level::L2);
        assert_eq!(a.complete_cycle, 900 + 2 + 32);
    }

    #[test]
    fn peek_data_reports_level_without_mutation() {
        let mut h = hier();
        assert_eq!(h.peek_data(0x2000), Level::Memory);
        let before = h.l1d_stats().accesses;
        let _ = h.peek_data(0x2000);
        assert_eq!(h.l1d_stats().accesses, before);
        h.access_data(0x2000, false, 0).unwrap();
        assert_eq!(h.peek_data(0x2000), Level::L1);
    }

    #[test]
    fn mshr_exhaustion_rejects_without_side_effects() {
        let mut h = Hierarchy::new(HierarchyConfig {
            data_mshrs: 1,
            ..Default::default()
        });
        h.access_data(0x0, false, 0).unwrap();
        let misses_before = h.l1d_stats().misses();
        assert!(h.access_data(0x4_0000, false, 1).is_err());
        assert_eq!(
            h.l1d_stats().misses(),
            misses_before,
            "rejected access must not touch tags"
        );
        assert!(!matches!(h.peek_data(0x4_0000), Level::L1));
        // After the fill completes, the MSHR frees up.
        assert!(h.access_data(0x4_0000, false, 300).is_ok());
    }

    #[test]
    fn same_block_merges_into_inflight_miss() {
        let mut h = Hierarchy::new(HierarchyConfig {
            data_mshrs: 1,
            ..Default::default()
        });
        let a = h.access_data(0x100, false, 0).unwrap();
        let b = h.access_data(0x108, false, 3).unwrap();
        assert_eq!(
            a.complete_cycle, b.complete_cycle,
            "merged miss completes with the MSHR fill"
        );
    }

    #[test]
    fn inst_and_data_sides_are_separate() {
        let mut h = hier();
        h.access_data(0x3000, false, 0).unwrap();
        let a = h.access_inst(0x3000, 300).unwrap();
        // L1I does not contain the block; it should hit L2 (filled by data miss).
        assert_eq!(a.level, Level::L2);
    }

    #[test]
    fn next_line_prefetch_pulls_in_the_following_block() {
        let cfg = HierarchyConfig {
            next_line_prefetch: true,
            ..Default::default()
        };
        let mut h = Hierarchy::new(cfg);
        let miss = h.access_data(0x8000, false, 0).unwrap();
        assert_eq!(miss.level, Level::Memory);
        assert!(h.prefetches > 0);
        // The next block is now resident: a demand access hits.
        let next = h.access_data(0x8040, false, miss.complete_cycle).unwrap();
        assert_eq!(next.level, Level::L1);
        // Without the prefetcher it would have missed.
        let mut plain = Hierarchy::new(HierarchyConfig::default());
        plain.access_data(0x8000, false, 0).unwrap();
        let n2 = plain.access_data(0x8040, false, 300).unwrap();
        assert_ne!(n2.level, Level::L1);
    }

    #[test]
    fn latency_of_levels_monotonic() {
        let h = hier();
        assert!(h.latency_of(Level::L1) < h.latency_of(Level::L2));
        assert!(h.latency_of(Level::L2) < h.latency_of(Level::Memory));
    }
}
