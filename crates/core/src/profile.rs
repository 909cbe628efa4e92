//! Per-stage host-time profile of the tick loop (`--features profile`).
//!
//! With the feature on, every walked tick stamps the host clock between
//! its stages and accumulates the differences per [`Phase`]; the skip
//! engine's own bookkeeping (the stillness judgement plus the horizon,
//! and the fast-forward replay) is timed too. Issue attempts the MSHR
//! file rejects are timed one by one and split out of the issue stage.
//! With the feature off, [`StageProfile`] and the internal stopwatch are
//! zero-sized and every stamp compiles to nothing.
//!
//! The clock is the time-stamp counter on x86-64 (a few host cycles per
//! read) and `std::time::Instant` elsewhere (nanoseconds). Either way the
//! unit is the host's: compare shares, or profiles taken on one host.

/// Number of [`Phase`]s.
pub const PHASES: usize = 9;

/// A timed part of the tick loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Draining the due writeback events.
    Events = 0,
    /// The commit stage plus the store-buffer drain.
    Commit = 1,
    /// The issue stage, without the attempts in [`Phase::IssueRejected`].
    Issue = 2,
    /// Issue attempts of loads the MSHR file rejected.
    IssueRejected = 3,
    /// The dispatch stage.
    Dispatch = 4,
    /// The fetch stage.
    Fetch = 5,
    /// Per-cycle decay (SSRs, steering tables) and occupancy integrals.
    Decay = 6,
    /// The stillness judgement and the event horizon after a tick.
    Judge = 7,
    /// Capturing a window's tick delta and replaying it (`fast_forward`).
    FastForward = 8,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Events,
        Phase::Commit,
        Phase::Issue,
        Phase::IssueRejected,
        Phase::Dispatch,
        Phase::Fetch,
        Phase::Decay,
        Phase::Judge,
        Phase::FastForward,
    ];

    /// Stable lowercase name (report rows).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Events => "events",
            Phase::Commit => "commit+drain",
            Phase::Issue => "issue",
            Phase::IssueRejected => "issue:mshr-rejected",
            Phase::Dispatch => "dispatch",
            Phase::Fetch => "fetch",
            Phase::Decay => "decay+occupancy",
            Phase::Judge => "skip:judge+horizon",
            Phase::FastForward => "skip:fast-forward",
        }
    }
}

#[cfg(feature = "profile")]
pub(crate) use on::Lap;
#[cfg(feature = "profile")]
pub use on::{clock, StageProfile};

#[cfg(not(feature = "profile"))]
pub(crate) use off::Lap;
#[cfg(not(feature = "profile"))]
pub use off::{clock, StageProfile};

#[cfg(feature = "profile")]
mod on {
    use super::{Phase, PHASES};

    /// Host time per [`Phase`] and the walked ticks it was spent on.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StageProfile {
        walked_ticks: u64,
        host: [u64; PHASES],
    }

    impl StageProfile {
        /// Whether this build collects the profile.
        pub const ENABLED: bool = true;

        /// An empty profile.
        pub fn new() -> Self {
            Self::default()
        }

        /// Walked ticks so far.
        pub fn walked_ticks(&self) -> u64 {
            self.walked_ticks
        }

        /// Host clock units spent in `phase`.
        pub fn host(&self, phase: Phase) -> u64 {
            self.host[phase as usize]
        }

        /// Adds `other`'s ticks and times to this profile.
        pub fn merge(&mut self, other: &StageProfile) {
            self.walked_ticks += other.walked_ticks;
            for (a, b) in self.host.iter_mut().zip(other.host) {
                *a += b;
            }
        }

        #[inline(always)]
        pub(crate) fn count_tick(&mut self) {
            self.walked_ticks += 1;
        }

        fn add(&mut self, phase: Phase, units: u64) {
            self.host[phase as usize] = self.host[phase as usize].wrapping_add(units);
            if phase == Phase::IssueRejected {
                // The attempt ran inside the issue stage, which adds its
                // whole span when it ends: keep the two rows disjoint.
                let issue = &mut self.host[Phase::Issue as usize];
                *issue = issue.wrapping_sub(units);
            }
        }
    }

    /// The profile's host clock, for calibrating its units against wall
    /// time.
    #[inline(always)]
    pub fn clock() -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: RDTSC reads the time-stamp counter; it has no
            // preconditions.
            unsafe { std::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            use std::sync::OnceLock;
            use std::time::Instant;
            static EPOCH: OnceLock<Instant> = OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }
    }

    /// A running stopwatch over consecutive phases.
    pub(crate) struct Lap(u64);

    impl Lap {
        #[inline(always)]
        pub(crate) fn start() -> Lap {
            Lap(clock())
        }

        /// Charges the time since the last mark to `phase` and restarts.
        #[inline(always)]
        pub(crate) fn mark(&mut self, profile: &mut StageProfile, phase: Phase) {
            let now = clock();
            profile.add(phase, now.wrapping_sub(self.0));
            self.0 = now;
        }
    }
}

#[cfg(not(feature = "profile"))]
mod off {
    use super::Phase;

    /// Host time per [`Phase`]; zero-sized, as the `profile` feature is
    /// off.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StageProfile;

    impl StageProfile {
        /// Whether this build collects the profile.
        pub const ENABLED: bool = false;

        /// An empty profile.
        pub fn new() -> Self {
            StageProfile
        }

        /// Walked ticks so far: always 0 in this build.
        pub fn walked_ticks(&self) -> u64 {
            0
        }

        /// Host clock units spent in `phase`: always 0 in this build.
        pub fn host(&self, _phase: Phase) -> u64 {
            0
        }

        /// Adds `other`'s ticks and times to this profile (a no-op).
        pub fn merge(&mut self, _other: &StageProfile) {}

        #[inline(always)]
        pub(crate) fn count_tick(&mut self) {}
    }

    /// The profile's host clock: always 0 in this build.
    pub fn clock() -> u64 {
        0
    }

    /// A stopwatch that measures nothing.
    pub(crate) struct Lap;

    impl Lap {
        #[inline(always)]
        pub(crate) fn start() -> Lap {
            Lap
        }

        #[inline(always)]
        pub(crate) fn mark(&mut self, _profile: &mut StageProfile, _phase: Phase) {}
    }
}
