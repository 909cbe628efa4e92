//! Miss-status holding registers.
//!
//! Paper §III-D: "Upon a cache miss, loads (whether from the shelf or IQ) are
//! allocated a miss status holding register, which arbitrates for writeback
//! and tag wakeup when the cache miss returns." MSHRs bound the number of
//! outstanding misses; accesses to a block already in flight *merge* into the
//! existing MSHR and complete when it fills.

/// Error returned when every MSHR is occupied; the requester must retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrFull {
    /// The file's earliest pending fill: no register frees before it.
    pub retry_at: u64,
}

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

    /// Checks that a register is free at `now`, counting a rejection when
    /// none is.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] with the earliest pending fill when every
    /// register is in flight at `now`.
    pub(crate) fn check_free(&mut self, now: u64) -> Result<(), MshrFull> {
        self.entries.retain(|e| e.fill_cycle > now);
        if self.entries.len() < self.capacity {
            return Ok(());
        }
        self.rejections += 1;
        let retry_at = self
            .entries
            .iter()
            .map(|e| e.fill_cycle)
            .min()
            .expect("a full file has entries");
        Err(MshrFull { retry_at })
    }

    /// Allocates a register for `block`, filling at `fill_cycle`. The
    /// caller has just passed [`MshrFile::check_free`] and knows the block
    /// is not in flight.
    pub(crate) fn allocate(&mut self, block: u64, fill_cycle: u64) {
        debug_assert!(
            self.entries.len() < self.capacity,
            "allocate without a free register"
        );
        self.entries.push(Entry { block, fill_cycle });
        self.allocations += 1;
    }

    /// Whether `block` has an in-flight fill at `now` (no side effects).
    pub(crate) fn is_in_flight(&self, block: u64, now: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.block == block && e.fill_cycle > now)
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

    /// The hierarchy's miss path: merge into an in-flight fill of `block`,
    /// else allocate a register filling at `fill_cycle`.
    fn request(m: &mut MshrFile, block: u64, now: u64, fill_cycle: u64) -> Result<u64, MshrFull> {
        if let Some(fill) = m.merge_inflight(block, now) {
            return Ok(fill);
        }
        m.check_free(now)?;
        m.allocate(block, fill_cycle);
        Ok(fill_cycle)
    }

    #[test]
    fn allocate_and_merge() {
        let mut m = MshrFile::new(2);
        let t = request(&mut m, 0x40, 0, 100).unwrap();
        assert_eq!(t, 100);
        // Same block merges, keeps the original fill time.
        let t2 = request(&mut m, 0x40, 5, 250).unwrap();
        assert_eq!(t2, 100);
        assert_eq!(m.merges, 1);
        assert_eq!(m.allocations, 1);
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(1);
        request(&mut m, 0x40, 0, 100).unwrap();
        assert_eq!(
            request(&mut m, 0x80, 1, 101),
            Err(MshrFull { retry_at: 100 })
        );
        assert_eq!(m.rejections, 1);
    }

    #[test]
    fn a_rejection_names_the_earliest_fill() {
        let mut m = MshrFile::new(2);
        request(&mut m, 0x40, 0, 300).unwrap();
        request(&mut m, 0x80, 5, 120).unwrap();
        assert!(m.is_in_flight(0x80, 119));
        assert!(!m.is_in_flight(0x80, 120));
        assert_eq!(m.check_free(6), Err(MshrFull { retry_at: 120 }));
        assert_eq!(m.check_free(119), Err(MshrFull { retry_at: 120 }));
        assert_eq!(m.rejections, 2);
        // The earliest fill frees its register exactly at `retry_at`.
        assert_eq!(m.check_free(120), Ok(()));
        assert_eq!(m.rejections, 2);
    }

    #[test]
    fn entries_free_after_fill() {
        let mut m = MshrFile::new(1);
        request(&mut m, 0x40, 0, 100).unwrap();
        assert_eq!(m.in_flight(50), 1);
        // At cycle 100 the fill completed; a new block may allocate.
        assert!(request(&mut m, 0x80, 100, 200).is_ok());
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
        request(&mut m, 0x40, 0, 300).unwrap();
        request(&mut m, 0x80, 0, 120).unwrap();
        request(&mut m, 0xc0, 0, 200).unwrap();
        assert_eq!(m.next_fill_after(0), Some(120));
        // Fills at or before `now` no longer count.
        assert_eq!(m.next_fill_after(120), Some(200));
        assert_eq!(m.next_fill_after(299), Some(300));
        assert_eq!(m.next_fill_after(300), None);
    }

    #[test]
    fn error_displays() {
        assert!(MshrFull { retry_at: 9 }.to_string().contains("occupied"));
    }
}
