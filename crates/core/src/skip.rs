//! Event-driven cycle skipping: one stillness check, verified jumps.
//!
//! A memory-bound core spends most of its cycles doing *nothing*: every
//! stage blocked, waiting for a DRAM fill hundreds of cycles away. Under
//! SMT the stall is per thread: one thread waits on its own shelf head,
//! store set or MSHR fill while its siblings run. This module holds the
//! bookkeeping for skipping that dead work once every thread is still.
//!
//! # The stillness check
//!
//! `Core::tick_bounded` walks ticks one at a time. Stage code reports
//! architectural progress (fetch, dispatch, issue, writeback, commit or
//! store-buffer drain) through [`SkipEngine::note_progress`]. Only after
//! a walked tick in which *no* thread progressed does it judge the
//! threads, with `Core::is_still`, a `bool` predicate on the current
//! state. That tick already ran every stage, and each stage's verdict was
//! "blocked": commit and dispatch inputs change only through progress or
//! at a `skip_horizon` term, a dispatch head that is not yet memoized
//! matures exactly at the coming tick (a horizon term due now, which opens
//! no window), and every SSR has decayed to zero. So `is_still` checks
//! only what can change with neither: a thread is not still when it is
//! fetch-eligible, or when a source of its shelf head has passed its
//! ready cycle but its cluster-forwarding penalty ends at the coming tick
//! or later. Every other obstacle — a busy functional unit, a lost MSHR
//! arbitration, a full IQ, free list or thread-local partition, an
//! unresolved source — changes only at a `skip_horizon` term or through
//! some thread's progress. No thread progresses inside a window, and a
//! window never reaches past its horizon, so those obstacles hold for the
//! whole window.
//!
//! # Whole-core jumps
//!
//! When every thread is still, nothing can change before the event
//! horizon — the earliest pending pipeline event, ready-wheel entry,
//! MSHR fill, functional-unit release, fetch-stall expiry, frontend
//! maturation or store-buffer readiness — so every cycle up to it repeats
//! the next one. A window shorter than [`MIN_PARK_JUMP_SPAN`] is walked
//! tick by tick without re-judging. A longer one runs one tick as a
//! capture, recording the [`Counters`] delta, the [`HierarchyCounters`]
//! delta and the streak-bump mask in a [`TickDelta`]. Any walked or
//! captured tick of a window that makes progress means a judgement was
//! wrong: the window is abandoned (`park_aborts`). Otherwise
//! `fast_forward` replays the delta scaled to the horizon (`delta * k`),
//! replays the steering tables' decay exactly, and jumps the cycle
//! counter.
//!
//! Skipped cycles are accounted per horizon cause in [`SkipStats`] so runs
//! can report where their idle time went.

use crate::config::CoreConfig;
use crate::counters::Counters;
use shelfsim_mem::HierarchyCounters;

/// Maximum hardware threads the skip engine covers. Tied by definition to
/// the config validator's thread cap: a config that validates can never
/// carry more threads than the skip engine's bitmasks cover.
pub(crate) const MAX_SKIP_THREADS: usize = CoreConfig::MAX_THREADS;

// The pipeline tracks threads in u64 bitmasks (the streak mask, the
// commit and issue stages' masks); a cap past 64 would shift bits off the
// end.
const _: () = assert!(
    MAX_SKIP_THREADS <= 64,
    "thread bitmasks are u64; MAX_SKIP_THREADS must fit"
);

/// Number of [`SkipCause`] variants (array sizing).
pub const SKIP_CAUSES: usize = 8;

/// What bounded a skipped span: the horizon term that fired first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum SkipCause {
    /// A pending pipeline event (writeback / squash filter) was due.
    PipeEvent = 0,
    /// A ready-wheel entry (IQ source-ready calendar) was due.
    ReadyWheel = 1,
    /// An outstanding MSHR fill (data or instruction side) was due.
    MshrFill = 2,
    /// An unpipelined functional unit was due to free up.
    FuFree = 3,
    /// A thread's fetch stall (I-miss / redirect hold) was due to expire.
    FetchStall = 4,
    /// A frontend head was due to mature through the fetch-to-dispatch pipe.
    FrontendDecode = 5,
    /// A store-buffer head was due to become drain-eligible.
    StoreBuffer = 6,
    /// The caller's cycle budget capped the span (includes true deadlocks,
    /// where no horizon term exists at all).
    LimitCap = 7,
}

impl SkipCause {
    /// All causes, in `as usize` index order.
    pub const ALL: [SkipCause; SKIP_CAUSES] = [
        SkipCause::PipeEvent,
        SkipCause::ReadyWheel,
        SkipCause::MshrFill,
        SkipCause::FuFree,
        SkipCause::FetchStall,
        SkipCause::FrontendDecode,
        SkipCause::StoreBuffer,
        SkipCause::LimitCap,
    ];

    /// Stable lowercase name (reports, JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            SkipCause::PipeEvent => "pipe_event",
            SkipCause::ReadyWheel => "ready_wheel",
            SkipCause::MshrFill => "mshr_fill",
            SkipCause::FuFree => "fu_free",
            SkipCause::FetchStall => "fetch_stall",
            SkipCause::FrontendDecode => "frontend_decode",
            SkipCause::StoreBuffer => "store_buffer",
            SkipCause::LimitCap => "limit_cap",
        }
    }
}

/// Folds one horizon term into the running best `(cycle, cause)`.
///
/// The earlier cycle wins; when two terms land on the *same* cycle, the
/// lower [`SkipCause`] index wins. Horizon attribution therefore has a
/// total deterministic order independent of the sequence in which the
/// terms are considered, so `SkipStats::by_cause` is reproducible across
/// refactors that reorder the horizon computation.
pub(crate) fn consider(best: &mut (u64, SkipCause), cycle: u64, cause: SkipCause) {
    if cycle < best.0 || (cycle == best.0 && (cause as usize) < (best.1 as usize)) {
        *best = (cycle, cause);
    }
}

/// Minimum estimated window span (cycles) worth converting into a
/// capture-and-jump. A jump's fixed costs — two counter-block clones and
/// the scaled fast-forward replay — amortize to roughly a dozen walked
/// ticks, and SMT mixes with staggered per-thread fills open a stream of
/// shorter windows than that. Those windows are walked tick by tick
/// instead; correctness is unaffected either way (the gate consults a
/// pre-tick horizon estimate only). The gate applies to every window.
pub const MIN_PARK_JUMP_SPAN: u64 = 16;

/// Cycle-skip accounting: every skipped cycle is attributed to the horizon
/// cause that bounded its span, so `skipped_cycles == by_cause.sum()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Cycles fast-forwarded instead of ticked.
    pub skipped_cycles: u64,
    /// Fast-forward spans executed.
    pub spans: u64,
    /// Skipped cycles by bounding cause, indexed by `SkipCause as usize`.
    pub by_cause: [u64; SKIP_CAUSES],
    /// Always 0. Counted failed fixed-point comparisons of the retired
    /// probe-pair protocol; kept so existing readers of the field still
    /// build, and retired with them.
    pub probe_mismatches: u64,
    /// Always 0. Counted thread-cycles with a park bit set, before per-thread
    /// park bits were deleted; kept so existing readers still build, and
    /// retired with them.
    pub parked_thread_cycles: u64,
    /// Always 0. Counted walked ticks after which a park bit was set; kept
    /// so existing readers still build, and retired with them.
    pub reduced_ticks: u64,
    /// Whole-core fast-forwards taken with every thread still. The only
    /// way to jump, so always equal to `spans`.
    pub park_jumps: u64,
    /// Walked or captured ticks of a window that unexpectedly made
    /// progress, forcing the window to be abandoned. Nonzero values
    /// indicate a stillness soundness bug — the release-mode safety net
    /// caught it, but coverage is being lost.
    pub park_aborts: u64,
}

/// One captured tick: the per-cycle counter deltas and the streak-bump
/// mask that `fast_forward` replays across a jump.
#[derive(Clone, Debug)]
pub(crate) struct TickDelta {
    pub delta: Counters,
    pub mem_delta: HierarchyCounters,
    /// Threads whose `head_blocked_streak` was bumped during the tick.
    pub streak_bumped: u64,
}

/// The per-core skip engine: runtime toggle, per-tick progress tracking,
/// and accounting.
///
/// Deliberately *not* part of [`crate::CoreConfig`]: skipping is an engine
/// execution strategy with no architectural effect, and config hashes feed
/// campaign journals.
#[derive(Clone, Debug)]
pub(crate) struct SkipEngine {
    pub enabled: bool,
    /// Set by stage code whenever architectural progress happens this tick.
    pub progress: bool,
    /// Per-thread bitmask: `head_blocked_streak` incremented this tick.
    pub streak_bumped: u64,
    pub stats: SkipStats,
}

impl SkipEngine {
    pub(crate) fn new() -> Self {
        SkipEngine {
            enabled: true,
            progress: false,
            streak_bumped: 0,
            stats: SkipStats::default(),
        }
    }

    /// Records architectural progress this tick: no window opens after it.
    #[inline]
    pub(crate) fn note_progress(&mut self) {
        self.progress = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_match_all_order() {
        for (i, c) in SkipCause::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.as_str());
        }
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = SkipStats::default();
        assert_eq!(s.skipped_cycles, 0);
        assert_eq!(s.spans, 0);
        assert_eq!(s.by_cause, [0; SKIP_CAUSES]);
        assert_eq!(s.probe_mismatches, 0);
        assert_eq!(s.parked_thread_cycles, 0);
        assert_eq!(s.reduced_ticks, 0);
        assert_eq!(s.park_jumps, 0);
        assert_eq!(s.park_aborts, 0);
    }

    #[test]
    fn skip_thread_cap_matches_config_thread_cap() {
        // `CoreConfig::validate` rejects anything the skip bitmasks cannot
        // hold; this pins the tie so neither side can drift silently.
        assert_eq!(MAX_SKIP_THREADS, CoreConfig::MAX_THREADS);
    }

    #[test]
    fn horizon_tie_break_prefers_the_lower_cause_index() {
        // Two horizon terms landing on the same cycle must resolve to the
        // same cause regardless of consideration order.
        let mut forward = (u64::MAX, SkipCause::LimitCap);
        consider(&mut forward, 120, SkipCause::PipeEvent);
        consider(&mut forward, 120, SkipCause::MshrFill);
        let mut backward = (u64::MAX, SkipCause::LimitCap);
        consider(&mut backward, 120, SkipCause::MshrFill);
        consider(&mut backward, 120, SkipCause::PipeEvent);
        assert_eq!(forward, backward);
        assert_eq!(forward, (120, SkipCause::PipeEvent));
    }

    #[test]
    fn earlier_cycle_beats_cause_priority() {
        let mut best = (u64::MAX, SkipCause::LimitCap);
        consider(&mut best, 500, SkipCause::PipeEvent);
        consider(&mut best, 200, SkipCause::StoreBuffer);
        assert_eq!(best, (200, SkipCause::StoreBuffer));
        // A later term never displaces an earlier one.
        consider(&mut best, 300, SkipCause::PipeEvent);
        assert_eq!(best, (200, SkipCause::StoreBuffer));
    }
}
