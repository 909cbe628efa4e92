//! Cache hierarchy model for `shelfsim`: set-associative L1I/L1D, a shared
//! L2, a flat-latency DRAM, and miss-status holding registers (MSHRs).
//!
//! The paper's configuration (Table I): 32 KB 2-way L1I (1 cycle), 32 KB
//! 2-way L1D (2 cycles), 2 MB 8-way L2 (32 cycles), 100 ns memory (200 cycles
//! at 2 GHz).
//!
//! The model is timing-only: tags and replacement state are exact, data
//! values are not stored. A *functional peek* interface reports which level
//! an address would hit in without mutating any state — the oracle steering
//! policy of paper §IV-A uses it ("we functionally query the cache
//! (atomically, instantly and not modifying state) to accurately predict
//! memory latencies").
//!
//! # Example
//!
//! ```
//! use shelfsim_mem::{Hierarchy, HierarchyConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::default());
//! let first = mem.access_data(0x4000, false, 0).expect("mshr available");
//! let again = mem.access_data(0x4000, false, first.complete_cycle).unwrap();
//! assert!(again.complete_cycle - first.complete_cycle <= mem.config().l1d.latency as u64 + 1);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod mshr;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Access, Hierarchy, HierarchyConfig, HierarchyCounters, Level, PrefetchKind};
pub use mshr::{MshrFile, MshrFull};
