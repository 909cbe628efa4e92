//! Event-driven cycle skipping: one certificate protocol.
//!
//! A memory-bound core spends most of its cycles doing *nothing*: every
//! stage blocked, waiting for a DRAM fill hundreds of cycles away. Under
//! SMT the stall is per thread: one thread waits on its own shelf head,
//! store set or MSHR fill while its siblings run. This module provides the
//! bookkeeping for skipping that dead work, first per thread and then, when
//! every thread is still, for the whole core.
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
//!   The thread gets a [`ParkCert`].
//! * **Held** — the thread passes every local check, but at least one
//!   obstacle is a *shared* input that changes solely at a
//!   `skip_horizon` term: a ready load losing MSHR arbitration, a due
//!   store-buffer drain the hierarchy rejects, a ready entry or shelf head
//!   waiting on a busy functional unit, an IQ- or shelf-steered dispatch
//!   head held only by shared IQ or free-list space. No certificate: the
//!   thread runs real stages, but counts toward the whole-core jump.
//! * **Reject** — anything else.
//!
//! # Reduced ticks
//!
//! Ticks with a parked thread skip its issue-stage head classification,
//! shelf-candidate evaluation and dispatch resource walk, replaying the
//! certificate's recorded per-cycle counter bumps instead (with the one
//! shared input of the dispatch walk, IQ occupancy, re-checked live each
//! cycle). Everything cheap or shared (commit, decay, occupancy integrals,
//! tracer sampling, the ready-pool scan) still runs for real, so reduced
//! ticks are bit-identical to full ticks.
//!
//! A certificate carries a **horizon**: the earliest passive wake-up
//! (fetch-stall expiry, frontend maturation, store-buffer readiness, the
//! thread's own next MSHR fill). Event wake-ups need no horizon term: the
//! wheel drains inside the tick clear a parked owner's bit the moment an
//! entry comes due, ahead of every stage that consults parked state, so
//! the moment a shared structure couples a parked thread back in it runs a
//! full tick again.
//!
//! # Whole-core jumps
//!
//! When every thread is parked or held, nothing can change before the
//! event horizon — the earliest pending pipeline event, ready-wheel entry,
//! MSHR fill, functional-unit release, fetch-stall expiry, frontend
//! maturation or store-buffer readiness — so every cycle up to it repeats
//! the next one. The engine runs that one tick as a capture, recording the
//! [`Counters`] delta, the [`HierarchyCounters`] delta and the streak-bump
//! mask in a [`TickDelta`]. If the capture made progress, a verdict was
//! wrong: the jump is abandoned (`park_aborts`) and every certificate is
//! revoked. Otherwise `fast_forward` replays the delta scaled to the
//! horizon (`delta * k`), replays decaying state (SSRs, steering tables)
//! exactly, and jumps the cycle counter.
//!
//! Skipped cycles are accounted per horizon cause in [`SkipStats`] so runs
//! can report where their idle time went; parked coverage (thread-cycles
//! mirrored instead of walked) is reported alongside.

use crate::config::CoreConfig;
use crate::counters::{Counters, LocalStall};
use shelfsim_mem::HierarchyCounters;
use shelfsim_trace::StallCause;

/// Maximum hardware threads the skip engine covers. Tied by definition to
/// the config validator's thread cap: a config that validates can never
/// carry more threads than the skip engine has park certificates for.
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
/// the scaled fast-forward replay — amortize to roughly a dozen reduced
/// ticks, and SMT mixes with staggered per-thread fills open a stream of
/// shorter all-parked windows than that. Those windows run as plain
/// reduced ticks instead; correctness is unaffected either way (the gate
/// consults a pre-tick horizon estimate only). The gate never applies
/// while a thread is held: a held thread walks full ticks, so any jump is
/// cheaper than walking.
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
    /// build. Every jump now comes from certificates (`park_jumps`).
    pub probe_mismatches: u64,
    /// Thread-cycles spent parked: each reduced tick contributes one per
    /// parked thread. The partial-progress coverage metric — these are
    /// thread-walks the engine replayed from certificates instead of
    /// evaluating.
    pub parked_thread_cycles: u64,
    /// Ticks that ran with at least one thread parked.
    pub reduced_ticks: u64,
    /// Park certificates granted.
    pub parks: u64,
    /// Whole-core fast-forwards taken with every thread parked or held.
    /// The only way to jump, so always equal to `spans`.
    pub park_jumps: u64,
    /// Skipped cycles of jumps taken with at least one thread held rather
    /// than parked (a subset of `skipped_cycles`): the coverage that
    /// shared-input holds add on top of certificates alone.
    pub held_jump_cycles: u64,
    /// Capture ticks that unexpectedly made progress, forcing the jump to
    /// be abandoned and every certificate revoked. Nonzero values indicate
    /// a verdict soundness bug — the release-mode safety net caught it,
    /// but coverage is being lost.
    pub park_aborts: u64,
}

/// Issue-stage head classification replayed for a parked thread: what the
/// real per-cycle classifier would record, proven constant by the park
/// predicate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ParkIssue {
    /// `Counters::shelf_head_stalls` bucket bumped each cycle (`None`: no
    /// shelf head; a head blocked outside the diagnostic chain, e.g. by a
    /// TSO elder load, is held rather than parked).
    pub bucket: Option<u8>,
    /// Whether the head-blocked streak (and the engine's streak-bump mask)
    /// advances each cycle.
    pub streak: bool,
    /// Issue-side tracer attribution to inject as the head cause (`None`:
    /// fall through to the live attribution logic, whose remaining inputs
    /// are frozen for a parked thread).
    pub cause: Option<StallCause>,
}

/// Dispatch-stage outcome replayed for a parked thread. The mirror runs
/// *inside* the real dispatch rotation (budget accounting, blocked-mask
/// updates and round-robin order are shared state and stay live); only the
/// head's resource walk is replaced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum ParkDispatch {
    /// Frontend empty or head still maturing through the fetch-to-dispatch
    /// pipe: the real loop's cheap pre-checks handle it; nothing to mirror.
    #[default]
    NoHead,
    /// Memory-barrier head serialized behind its thread's instruction
    /// window / store buffer: bump `stalls.barrier` once per cycle.
    Barrier,
    /// IQ-steered head with a persistent *local* full condition. The shared
    /// IQ-occupancy check still runs live each cycle (it is first in
    /// `try_dispatch`'s order and other threads change it); only when the
    /// IQ has room is the recorded local cause charged.
    IqBlocked(LocalStall),
    /// Shelf-steered head with a persistent local full condition (every
    /// check ahead of the recorded one is local and frozen).
    ShelfBlocked(LocalStall),
}

/// Proof that a thread is at a per-thread fixed point: the per-cycle
/// effects the pipeline would produce for it (replayed by reduced ticks)
/// and the first cycle at which the proof expires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ParkCert {
    /// First cycle the certificate no longer covers: the earliest passive
    /// wake-up among fetch-stall expiry, frontend-head maturation,
    /// store-buffer readiness and the thread's next claimed MSHR fill.
    /// The thread unparks at the top of this cycle's tick. (Event- and
    /// ready-wheel wake-ups are handled separately at the wheel drain
    /// points inside the tick, and can fire earlier.)
    pub horizon: u64,
    /// Issue-stage per-cycle replay.
    pub issue: ParkIssue,
    /// Dispatch-stage per-cycle replay.
    pub dispatch: ParkDispatch,
}

/// `Core::try_park`'s verdict on a thread that made no progress in a tick
/// (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Still by its own state alone: replayed by reduced ticks under the
    /// certificate.
    Park(ParkCert),
    /// Still, but only because of shared inputs that change solely at a
    /// `skip_horizon` term: walks full ticks, yet counts toward the
    /// whole-core jump.
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

/// The per-core skip engine: runtime toggle, park certificates, and
/// accounting.
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
    /// Per-thread bitmask of currently parked threads.
    pub parked: u64,
    /// Certificates for parked threads (only entries whose `parked` bit is
    /// set are meaningful).
    pub certs: [ParkCert; MAX_SKIP_THREADS],
    /// Cycle the revocation pass last ran for, deduplicating the
    /// `tick_bounded` loop-top pass against the one at the top of `tick()`
    /// (the latter keeps direct `tick()` driving sound).
    pub revoked_at: u64,
    /// Earliest certificate horizon among parked threads — the revocation
    /// pass is a two-compare no-op until this cycle arrives. Event wake-ups
    /// clear `parked` bits without touching it, so the cache may run stale-
    /// low; that only costs one wasted recomputation, never a missed wake.
    pub next_horizon: u64,
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
            certs: [ParkCert::default(); MAX_SKIP_THREADS],
            revoked_at: u64::MAX,
            next_horizon: u64::MAX,
            stats: SkipStats::default(),
        }
    }

    /// Records architectural progress by thread `t` this tick.
    ///
    /// A parked thread making progress would mean its certificate replay
    /// diverged from reality — the debug assertion is the partial-progress
    /// layer's soundness tripwire (release builds additionally guard the
    /// capture tick of every jump with a progress check).
    #[inline]
    pub(crate) fn note_progress(&mut self, t: usize) {
        self.progress = true;
        self.progress_mask |= 1 << t;
        debug_assert!(
            self.parked & (1 << t) == 0,
            "parked thread {t} made architectural progress"
        );
    }

    /// Whether thread `t` currently holds a park certificate.
    #[inline]
    pub(crate) fn is_parked(&self, t: usize) -> bool {
        self.parked & (1 << t) != 0
    }

    /// Grants thread `t` a park certificate.
    pub(crate) fn park(&mut self, t: usize, cert: ParkCert) {
        debug_assert!(!self.is_parked(t));
        self.parked |= 1 << t;
        self.next_horizon = self.next_horizon.min(cert.horizon);
        self.certs[t] = cert;
        self.stats.parks += 1;
    }

    /// Revokes every certificate (engine toggle, abort, or reset). The
    /// per-thread paths clear `parked` bits individually instead: horizon
    /// expiry in the revocation pass, event wake-ups at the wheel drains.
    pub(crate) fn unpark_all(&mut self) {
        self.parked = 0;
        self.next_horizon = u64::MAX;
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
        // `CoreConfig::validate` rejects anything the certificate file
        // cannot hold; this pins the tie so neither side
        // can drift silently.
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
        let mut e = SkipEngine::new();
        assert!(!e.is_parked(2));
        e.park(
            2,
            ParkCert {
                horizon: 400,
                ..ParkCert::default()
            },
        );
        assert!(e.is_parked(2));
        assert_eq!(e.certs[2].horizon, 400);
        assert_eq!(e.stats.parks, 1);
        e.park(5, ParkCert::default());
        assert_eq!(e.parked, (1 << 2) | (1 << 5));
        // Bulk revocation by wake mask, as the revocation pass does it.
        e.parked &= !(1 << 2);
        assert!(!e.is_parked(2));
        assert!(e.is_parked(5));
        e.unpark_all();
        assert_eq!(e.parked, 0);
    }
}
