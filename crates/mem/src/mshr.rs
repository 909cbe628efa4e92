//! Miss-status holding registers.
//!
//! Paper §III-D: "Upon a cache miss, loads (whether from the shelf or IQ) are
//! allocated a miss status holding register, which arbitrates for writeback
//! and tag wakeup when the cache miss returns." MSHRs bound the number of
//! outstanding misses; accesses to a block already in flight *merge* into the
//! existing MSHR and complete when it fills.

/// Error returned when every MSHR is occupied; the requester must retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrFull;

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("all miss status holding registers are occupied")
    }
}

impl std::error::Error for MshrFull {}

#[derive(Clone, Copy, Debug)]
struct Entry {
    block: u64,
    fill_cycle: u64,
}

/// A file of miss-status holding registers.
///
/// Entries are freed lazily: an entry whose fill cycle has passed is
/// considered free.
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    /// Number of requests that merged into an existing entry.
    pub merges: u64,
    /// Number of new entries allocated.
    pub allocations: u64,
    /// Number of requests rejected because the file was full.
    pub rejections: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merges: 0,
            allocations: 0,
            rejections: 0,
        }
    }

    /// Requests a fill for `block`.
    ///
    /// If the block is already in flight, merges and returns the existing
    /// fill cycle. Otherwise allocates an entry filling at `fill_cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when no register is free at `now`.
    pub fn request(&mut self, block: u64, now: u64, fill_cycle: u64) -> Result<u64, MshrFull> {
        self.entries.retain(|e| e.fill_cycle > now);
        if let Some(e) = self.entries.iter().find(|e| e.block == block) {
            self.merges += 1;
            return Ok(e.fill_cycle);
        }
        if self.entries.len() >= self.capacity {
            self.rejections += 1;
            return Err(MshrFull);
        }
        self.entries.push(Entry { block, fill_cycle });
        self.allocations += 1;
        Ok(fill_cycle)
    }

    /// If `block` has an in-flight fill at `now`, returns its fill cycle and
    /// counts a merge. Used to route accesses to a block that is still being
    /// fetched into the pending miss instead of treating it as a hit.
    pub fn merge_inflight(&mut self, block: u64, now: u64) -> Option<u64> {
        let e = self
            .entries
            .iter()
            .find(|e| e.block == block && e.fill_cycle > now)?;
        self.merges += 1;
        Some(e.fill_cycle)
    }

    /// Number of in-flight entries at `now`.
    pub fn in_flight(&self, now: u64) -> usize {
        self.entries.iter().filter(|e| e.fill_cycle > now).count()
    }

    /// Earliest pending fill strictly after `now`, if any in-flight entry
    /// exists. This is the memory side of the engine's event-horizon
    /// computation: a core blocked on an outstanding miss cannot change
    /// state before the first MSHR fills.
    pub fn next_fill_after(&self, now: u64) -> Option<u64> {
        self.entries
            .iter()
            .filter(|e| e.fill_cycle > now)
            .map(|e| e.fill_cycle)
            .min()
    }

    /// Total register count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_merge() {
        let mut m = MshrFile::new(2);
        let t = m.request(0x40, 0, 100).unwrap();
        assert_eq!(t, 100);
        // Same block merges, keeps the original fill time.
        let t2 = m.request(0x40, 5, 250).unwrap();
        assert_eq!(t2, 100);
        assert_eq!(m.merges, 1);
        assert_eq!(m.allocations, 1);
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(1);
        m.request(0x40, 0, 100).unwrap();
        assert_eq!(m.request(0x80, 1, 101), Err(MshrFull));
        assert_eq!(m.rejections, 1);
    }

    #[test]
    fn entries_free_after_fill() {
        let mut m = MshrFile::new(1);
        m.request(0x40, 0, 100).unwrap();
        assert_eq!(m.in_flight(50), 1);
        // At cycle 100 the fill completed; a new block may allocate.
        assert!(m.request(0x80, 100, 200).is_ok());
        assert_eq!(m.in_flight(150), 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn next_fill_after_reports_the_earliest_pending_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_fill_after(0), None);
        m.request(0x40, 0, 300).unwrap();
        m.request(0x80, 0, 120).unwrap();
        m.request(0xc0, 0, 200).unwrap();
        assert_eq!(m.next_fill_after(0), Some(120));
        // Fills at or before `now` no longer count.
        assert_eq!(m.next_fill_after(120), Some(200));
        assert_eq!(m.next_fill_after(299), Some(300));
        assert_eq!(m.next_fill_after(300), None);
    }

    #[test]
    fn error_displays() {
        assert!(MshrFull.to_string().contains("occupied"));
    }
}
