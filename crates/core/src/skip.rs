//! Event-driven cycle skipping: parks are hints, jumps are verified.
//!
//! A memory-bound core spends most of its cycles doing *nothing*: every
//! stage blocked, waiting for a DRAM fill hundreds of cycles away. Under
//! SMT the stall is per thread: one thread waits on its own shelf head,
//! store set or MSHR fill while its siblings run. This module holds the
//! bookkeeping for skipping that dead work once every thread is still.
//!
//! # Verdicts
//!
//! After each walked tick, every thread that made no architectural
//! progress (no fetch, dispatch, issue, writeback, commit or store-buffer
//! drain) and is not already parked is examined analytically by
//! `Core::try_park`, the only stillness predicate. It returns a
//! [`Verdict`]:
//!
//! * **Park** — the thread is still by its own state alone: fetch
//!   ineligible, frontend head absent, immature or blocked on a persistent
//!   *local* (partitioned) resource, shelf head blocked on a stable local
//!   cause, ready-pool residents (if any) all loads blocked by the thread's
//!   own store set, store buffer quiet, SSR pair quiescent, commit frozen.
//!   The thread's bit in [`SkipEngine::parked`] is set.
//! * **Held** — the thread passes every local check, but at least one
//!   obstacle is a *shared* input that changes solely at a
//!   `skip_horizon` term: a ready load losing MSHR arbitration, a due
//!   store-buffer drain the hierarchy rejects, a ready entry or shelf head
//!   waiting on a busy functional unit, an IQ- or shelf-steered dispatch
//!   head held only by shared IQ or free-list space. Held lasts one loop
//!   iteration of `Core::tick_bounded`.
//! * **Reject** — anything else.
//!
//! # Parks are hints
//!
//! A park bit changes no stage: parked threads run the real fetch,
//! dispatch, issue and commit logic every walked tick. Its only effect is
//! that `tick_bounded` does not re-examine the thread after each walked
//! tick. The first architectural progress by the thread clears its bit
//! (`SkipEngine::note_progress`). A bit can therefore be stale — its
//! thread may have been woken by a fill or an event without progressing
//! yet — and is never trusted on its own.
//!
//! # Whole-core jumps
//!
//! When every thread is parked or held, nothing can change before the
//! event horizon — the earliest pending pipeline event, ready-wheel entry,
//! MSHR fill, functional-unit release, fetch-stall expiry, frontend
//! maturation or store-buffer readiness — so every cycle up to it repeats
//! the next one. Each such window opens by re-deriving the verdict of
//! every parked thread on the current state: a thread now held loses its
//! bit and counts as held, and a single reject unparks that thread and
//! abandons the window. The engine then runs one tick as a capture,
//! recording the [`Counters`] delta, the [`HierarchyCounters`] delta and
//! the streak-bump mask in a [`TickDelta`]. If the capture made progress,
//! a verdict was wrong: the jump is abandoned (`park_aborts`) and every
//! bit is cleared. Otherwise `fast_forward` replays the delta scaled to
//! the horizon (`delta * k`), replays decaying state (SSRs, steering
//! tables) exactly, and jumps the cycle counter.
//!
//! Skipped cycles are accounted per horizon cause in [`SkipStats`] so runs
//! can report where their idle time went; park coverage (thread-cycles
//! with a park bit set) is reported alongside.

use crate::config::CoreConfig;
use crate::counters::Counters;
use shelfsim_mem::HierarchyCounters;

/// Maximum hardware threads the skip engine covers. Tied by definition to
/// the config validator's thread cap: a config that validates can never
/// carry more threads than the skip engine's bitmasks cover.
pub(crate) const MAX_SKIP_THREADS: usize = CoreConfig::MAX_THREADS;

// The pipeline tracks threads in u64 bitmasks (progress, parked, streak
// masks); a cap past 64 would shift bits off the end.
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

/// Minimum estimated all-parked span (cycles) worth converting into a
/// capture-and-jump. A jump's fixed costs — two counter-block clones and
/// the scaled fast-forward replay — amortize to roughly a dozen walked
/// ticks, and SMT mixes with staggered per-thread fills open a stream of
/// shorter all-parked windows than that. Those windows are walked tick by
/// tick instead; correctness is unaffected either way (the gate consults
/// a pre-tick horizon estimate only). The gate never applies while a
/// thread is held, so a window with a held thread always jumps.
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
    /// build. Every jump now comes from verdicts (`park_jumps`).
    pub probe_mismatches: u64,
    /// Thread-cycles with a park bit set: each walked tick adds the number
    /// of threads still parked after it. Parked threads run every stage,
    /// so this measures how long verdicts stay settled, not work saved.
    pub parked_thread_cycles: u64,
    /// Walked ticks after which at least one park bit was set.
    pub reduced_ticks: u64,
    /// `Park` verdicts from the examination after a walked tick (the
    /// re-derivations that open a jump window are not counted).
    pub parks: u64,
    /// Whole-core fast-forwards taken with every thread parked or held.
    /// The only way to jump, so always equal to `spans`.
    pub park_jumps: u64,
    /// Skipped cycles of jumps taken with at least one thread held rather
    /// than parked (a subset of `skipped_cycles`): the coverage that
    /// shared-input holds add on top of parks alone.
    pub held_jump_cycles: u64,
    /// Capture ticks that unexpectedly made progress, forcing the jump to
    /// be abandoned and every park bit cleared. Nonzero values indicate
    /// a verdict soundness bug — the release-mode safety net caught it,
    /// but coverage is being lost.
    pub park_aborts: u64,
}

/// `Core::try_park`'s verdict on a thread that made no progress in a tick
/// (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Still by its own state alone: the thread's park bit is set.
    Park,
    /// Still, but only because of shared inputs that change solely at a
    /// `skip_horizon` term: counts toward the whole-core jump for one
    /// loop iteration.
    Held,
    /// Not provably still.
    Reject,
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

/// The per-core skip engine: runtime toggle, park bits, and accounting.
///
/// Deliberately *not* part of [`crate::CoreConfig`]: skipping is an engine
/// execution strategy with no architectural effect, and config hashes feed
/// campaign journals.
#[derive(Clone, Debug)]
pub(crate) struct SkipEngine {
    pub enabled: bool,
    /// Set by stage code whenever architectural progress happens this tick.
    pub progress: bool,
    /// Per-thread bitmask of this tick's progress (feeds the park
    /// predicate: only a thread whose bit stayed clear may be examined).
    pub progress_mask: u64,
    /// Per-thread bitmask: `head_blocked_streak` incremented this tick.
    pub streak_bumped: u64,
    /// Per-thread bitmask of parked threads: a hint that spares the thread
    /// re-examination after walked ticks (see the module docs). No stage
    /// reads it.
    pub parked: u64,
    pub stats: SkipStats,
}

impl SkipEngine {
    pub(crate) fn new() -> Self {
        SkipEngine {
            enabled: true,
            progress: false,
            progress_mask: 0,
            streak_bumped: 0,
            parked: 0,
            stats: SkipStats::default(),
        }
    }

    /// Records architectural progress by thread `t` this tick. Progress
    /// ends a park: the thread is examined afresh after its next still
    /// tick.
    #[inline]
    pub(crate) fn note_progress(&mut self, t: usize) {
        self.progress = true;
        self.progress_mask |= 1 << t;
        self.parked &= !(1 << t);
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
        assert_eq!(s.parks, 0);
        assert_eq!(s.park_jumps, 0);
        assert_eq!(s.held_jump_cycles, 0);
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

    #[test]
    fn park_and_unpark_track_the_mask() {
        // Parking sets a bit; a thread's own progress clears only its bit.
        let mut e = SkipEngine::new();
        e.parked = (1 << 2) | (1 << 5);
        e.note_progress(2);
        assert_eq!(e.parked, 1 << 5);
        assert_eq!(e.progress_mask, 1 << 2);
        assert!(e.progress);
    }
}
