//! Speculation shift registers (paper §III-B, Figure 5).
//!
//! Shelf instructions have no ROB entry and overwrite live physical
//! registers, so they may write back only once they can no longer be
//! squashed. Smith & Pleszkun's result shift register tracks the maximum
//! remaining *speculation resolution* delay of in-flight instructions; a
//! shelf instruction may issue only when its execution latency is at least
//! the register's value (so its writeback lands after every elder
//! misspeculation opportunity has resolved).
//!
//! A single register suffers the paper's *starvation pathology*: younger IQ
//! instructions keep merging their resolution delays and can delay the shelf
//! head indefinitely. The production design therefore provisions **two**
//! registers: all IQ instructions update the *IQ SSR*; when the first shelf
//! instruction of a run becomes order-eligible, the IQ SSR is copied into
//! the *shelf SSR*, which then decays untouched by further IQ issues.

/// The per-thread pair of speculation shift registers.
///
/// `tick()` models the shift-right-by-one each cycle. The ablation mode
/// (`single`) collapses the pair into one register to reproduce the
/// starvation-prone variant discussed in the paper.
///
/// # Example
///
/// ```
/// use shelfsim_uarch::SsrPair;
///
/// let mut ssr = SsrPair::new(false);
/// ssr.record_iq_issue(5);
/// ssr.copy_to_shelf();
/// assert!(!ssr.shelf_allows(3)); // 3-cycle op would write back too early
/// assert!(ssr.shelf_allows(5));
/// ssr.record_iq_issue(30); // younger IQ issue no longer delays the shelf
/// assert!(ssr.shelf_allows(5));
/// ```
#[derive(Clone, Debug)]
pub struct SsrPair {
    iq: u32,
    shelf: u32,
    single: bool,
}

impl SsrPair {
    /// Creates a zeroed pair. With `single == true`, both roles share one
    /// register (the ablation variant).
    pub fn new(single: bool) -> Self {
        SsrPair {
            iq: 0,
            shelf: 0,
            single,
        }
    }

    /// One-cycle decay: both registers shift right (saturating decrement).
    pub fn tick(&mut self) {
        self.iq = self.iq.saturating_sub(1);
        self.shelf = self.shelf.saturating_sub(1);
    }

    /// An IQ instruction issued with the given speculation resolution delay;
    /// merge it into the IQ SSR.
    pub fn record_iq_issue(&mut self, resolution_delay: u32) {
        self.iq = self.iq.max(resolution_delay);
        if self.single {
            self.shelf = self.iq;
        }
    }

    /// The first shelf instruction of a run became order-eligible: snapshot
    /// the IQ SSR into the shelf SSR. At this moment all elder IQ
    /// instructions have issued and contributed their delays.
    pub fn copy_to_shelf(&mut self) {
        if !self.single {
            self.shelf = self.iq;
        }
    }

    /// May a shelf instruction with `latency_to_writeback` issue now?
    ///
    /// Paper: "A shelf instruction can only issue once its minimum execution
    /// delay compares greater than or equal to the value in the SSR."
    pub fn shelf_allows(&self, latency_to_writeback: u32) -> bool {
        latency_to_writeback >= self.shelf
    }

    /// Whether both registers have fully decayed to zero. A quiescent pair
    /// is a fixed point of [`SsrPair::tick`]: further decay changes nothing,
    /// and `shelf_allows` is `true` for every latency. The engine's cycle
    /// skipping relies on it: every pair is quiescent one tick after the
    /// last issue, so a skipped span needs no decay replay.
    pub fn is_quiescent(&self) -> bool {
        self.iq == 0 && self.shelf == 0
    }

    /// Current IQ SSR value (cycles of outstanding speculation).
    pub fn iq_value(&self) -> u32 {
        self.iq
    }

    /// Current shelf SSR value.
    pub fn shelf_value(&self) -> u32 {
        self.shelf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_reaches_zero() {
        let mut s = SsrPair::new(false);
        s.record_iq_issue(3);
        s.copy_to_shelf();
        assert!(!s.shelf_allows(0));
        s.tick();
        s.tick();
        s.tick();
        assert!(s.shelf_allows(0));
    }

    #[test]
    fn iq_issue_merges_max() {
        let mut s = SsrPair::new(false);
        s.record_iq_issue(2);
        s.record_iq_issue(7);
        s.record_iq_issue(3);
        assert_eq!(s.iq_value(), 7);
    }

    #[test]
    fn two_ssrs_prevent_starvation() {
        let mut s = SsrPair::new(false);
        s.record_iq_issue(4);
        s.copy_to_shelf();
        // Younger reordered instructions keep issuing with big delays...
        for _ in 0..10 {
            s.record_iq_issue(10);
            s.tick();
        }
        // ...but the shelf SSR decayed to zero: the head is not starved.
        assert!(s.shelf_allows(1));
        assert_eq!(s.shelf_value(), 0);
        assert!(s.iq_value() > 0);
    }

    #[test]
    fn single_ssr_exhibits_starvation() {
        let mut s = SsrPair::new(true);
        s.record_iq_issue(4);
        for _ in 0..10 {
            s.record_iq_issue(10);
            s.tick();
        }
        // The shared register is continuously re-armed: a short op stalls.
        assert!(!s.shelf_allows(1));
    }

    #[test]
    fn quiescence_is_a_tick_fixed_point() {
        let mut s = SsrPair::new(false);
        assert!(s.is_quiescent());
        s.record_iq_issue(2);
        assert!(!s.is_quiescent());
        s.copy_to_shelf();
        s.tick();
        assert!(!s.is_quiescent());
        s.tick();
        assert!(s.is_quiescent());
        s.tick();
        assert!(s.is_quiescent(), "quiescence is absorbing under decay");
        assert!(s.shelf_allows(0));
    }

    #[test]
    fn copy_is_a_snapshot_not_an_alias() {
        let mut s = SsrPair::new(false);
        s.record_iq_issue(5);
        s.copy_to_shelf();
        s.record_iq_issue(9);
        assert_eq!(s.shelf_value(), 5);
        assert_eq!(s.iq_value(), 9);
    }
}
