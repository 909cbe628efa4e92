//! Hardware data prefetchers.
//!
//! Two classic designs:
//!
//! * **next-line** — on a miss, pull in the following block (implemented in
//!   [`crate::Hierarchy`] as a fill-engine piggyback);
//! * **stride** — a PC-indexed reference prediction table (Chen & Baer):
//!   each load PC's last address and stride are tracked with a 2-bit
//!   confidence state; once confident, the predicted next address is
//!   prefetched ahead of the demand stream.

/// Prefetcher organization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PrefetchKind {
    /// No prefetching (the paper's Table I configuration).
    #[default]
    None,
    /// Next-line on miss.
    NextLine,
    /// PC-indexed stride prediction.
    Stride,
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    /// 0 = invalid, 1 = training, 2..=3 = confident.
    state: u8,
}

/// A PC-indexed stride reference prediction table.
///
/// # Example
///
/// ```
/// use shelfsim_mem::StridePrefetcher;
///
/// let mut p = StridePrefetcher::new(64);
/// assert_eq!(p.observe(0x40, 0x1000), None);
/// assert_eq!(p.observe(0x40, 0x1040), None);        // stride learned
/// assert_eq!(p.observe(0x40, 0x1080), Some(0x10C0)); // confident: prefetch
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    /// Prefetch addresses issued.
    pub issued: u64,
}

impl StridePrefetcher {
    /// Creates a table with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries.next_power_of_two().max(1)],
            issued: 0,
        }
    }

    /// Observes a demand access by the load at `pc` to `addr`; returns an
    /// address to prefetch once the stride is confident.
    pub fn observe(&mut self, pc: u64, addr: u64) -> Option<u64> {
        let idx = ((pc >> 2) as usize) & (self.table.len() - 1);
        let e = &mut self.table[idx];
        if e.state == 0 || e.tag != pc {
            *e = StrideEntry {
                tag: pc,
                last_addr: addr,
                stride: 0,
                state: 1,
            };
            return None;
        }
        let stride = addr as i64 - e.last_addr as i64;
        e.last_addr = addr;
        if stride == e.stride && stride != 0 {
            e.state = (e.state + 1).min(3);
        } else {
            e.stride = stride;
            e.state = if e.state >= 2 { 2 } else { 1 };
            return None;
        }
        if e.state >= 2 {
            let target = addr as i64 + stride;
            if target > 0 {
                self.issued += 1;
                return Some(target as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_constant_stride() {
        let mut p = StridePrefetcher::new(16);
        assert_eq!(p.observe(0x100, 0x8000), None);
        assert_eq!(p.observe(0x100, 0x8040), None);
        assert_eq!(p.observe(0x100, 0x8080), Some(0x80C0));
        assert_eq!(p.observe(0x100, 0x80C0), Some(0x8100));
        assert_eq!(p.issued, 2);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(16);
        p.observe(0x100, 0x1000);
        p.observe(0x100, 0x1040);
        assert!(p.observe(0x100, 0x1080).is_some());
        // Pattern breaks: no prefetch until retrained.
        assert_eq!(p.observe(0x100, 0x9000), None);
        assert_eq!(p.observe(0x100, 0x9100), None);
        assert!(p.observe(0x100, 0x9200).is_some());
    }

    #[test]
    fn random_addresses_never_prefetch() {
        let mut p = StridePrefetcher::new(16);
        let mut seed = 7u64;
        for _ in 0..100 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(13);
            assert_eq!(p.observe(0x200, seed & 0xFFFF8), None);
        }
        assert_eq!(p.issued, 0);
    }

    #[test]
    fn zero_stride_does_not_prefetch() {
        let mut p = StridePrefetcher::new(16);
        for _ in 0..10 {
            assert_eq!(
                p.observe(0x300, 0x4000),
                None,
                "same-address stream is not a stride"
            );
        }
    }

    #[test]
    fn table_conflicts_retrain() {
        let mut p = StridePrefetcher::new(1); // every PC collides
        p.observe(0x100, 0x1000);
        p.observe(0x200, 0x2000); // evicts
        p.observe(0x100, 0x1040); // retrains from scratch
        assert_eq!(p.issued, 0);
    }
}
