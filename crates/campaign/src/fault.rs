//! Deterministic fault injection: a seeded plan that makes chosen runs
//! panic, stall, or livelock, so the campaign harness's isolation, retry,
//! and resume behaviour is itself testable end-to-end.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The kind of fault injected into a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the simulation starts (exercises `catch_unwind`
    /// isolation and retry).
    Panic,
    /// An artificial stall shorter than the watchdog window: the run slows
    /// down but completes (exercises watchdog tolerance).
    Stall,
    /// A permanent stall — no thread ever commits again (exercises the
    /// watchdog abort and the deadlock taxonomy).
    Livelock,
}

impl FaultKind {
    /// Stable lowercase tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::Livelock => "livelock",
        }
    }
}

/// One injected fault: its kind and on how many leading attempts it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// The fault fires on attempts `0..fires_below`. `1` models a transient
    /// failure (retry succeeds); `u32::MAX` a persistent one (the run ends
    /// up quarantined).
    pub fires_below: u32,
}

/// Counts of each fault kind for [`FaultPlan::seeded`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultMix {
    /// Transient panics (fire on the first attempt only).
    pub panics: usize,
    /// Persistent panics (fire on every attempt → quarantine).
    pub persistent_panics: usize,
    /// Transient sub-window stalls (the watchdog must tolerate them).
    pub stalls: usize,
    /// Transient livelocks (the watchdog aborts attempt 1; retry succeeds).
    pub livelocks: usize,
}

impl FaultMix {
    /// Victim runs the mix asks for.
    pub fn total(&self) -> usize {
        self.panics + self.persistent_panics + self.stalls + self.livelocks
    }
}

/// A deterministic mapping from campaign run index to injected fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault on run `index` firing on attempts `0..fires_below`.
    pub fn inject(mut self, index: usize, kind: FaultKind, fires_below: u32) -> Self {
        self.faults.insert(
            index,
            Fault {
                kind,
                fires_below: fires_below.max(1),
            },
        );
        self
    }

    /// A seeded plan over `n_runs` runs: picks distinct victim runs with a
    /// deterministic shuffle and assigns `mix.panics` transient panics,
    /// `mix.persistent_panics` persistent panics, `mix.stalls` sub-window
    /// stalls, and `mix.livelocks` transient livelocks. Panics politely
    /// (with a message) if the mix asks for more faults than there are
    /// runs.
    pub fn seeded(seed: u64, n_runs: usize, mix: FaultMix) -> Self {
        assert!(
            mix.total() <= n_runs,
            "fault mix wants {} victims but the campaign has only {n_runs} runs",
            mix.total()
        );
        let mut order: Vec<usize> = (0..n_runs).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        order.shuffle(&mut rng);
        let mut plan = FaultPlan::new();
        let mut victims = order.into_iter();
        for _ in 0..mix.panics {
            plan = plan.inject(victims.next().expect("checked"), FaultKind::Panic, 1);
        }
        for _ in 0..mix.persistent_panics {
            plan = plan.inject(victims.next().expect("checked"), FaultKind::Panic, u32::MAX);
        }
        for _ in 0..mix.stalls {
            plan = plan.inject(victims.next().expect("checked"), FaultKind::Stall, 1);
        }
        for _ in 0..mix.livelocks {
            plan = plan.inject(victims.next().expect("checked"), FaultKind::Livelock, 1);
        }
        plan
    }

    /// The fault to apply on `attempt` (0-based) of run `index`, if any.
    pub fn fault_for(&self, index: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .get(&index)
            .filter(|f| attempt < f.fires_below)
            .map(|f| f.kind)
    }

    /// Number of runs with an injected fault.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_faults_clear_after_the_first_attempt() {
        let plan = FaultPlan::new().inject(3, FaultKind::Panic, 1);
        assert_eq!(plan.fault_for(3, 0), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(3, 1), None, "retry runs clean");
        assert_eq!(plan.fault_for(2, 0), None, "other runs unaffected");
    }

    #[test]
    fn persistent_faults_fire_on_every_attempt() {
        let plan = FaultPlan::new().inject(0, FaultKind::Livelock, u32::MAX);
        for attempt in 0..10 {
            assert_eq!(plan.fault_for(0, attempt), Some(FaultKind::Livelock));
        }
    }

    #[test]
    fn seeded_plan_is_deterministic_and_distinct() {
        let mix = FaultMix {
            panics: 2,
            persistent_panics: 1,
            stalls: 1,
            livelocks: 2,
        };
        let a = FaultPlan::seeded(9, 20, mix);
        let b = FaultPlan::seeded(9, 20, mix);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), 6, "victims are distinct runs");
        let c = FaultPlan::seeded(10, 20, mix);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    #[should_panic(expected = "victims")]
    fn seeded_plan_rejects_oversubscription() {
        let _ = FaultPlan::seeded(
            1,
            2,
            FaultMix {
                panics: 3,
                ..FaultMix::default()
            },
        );
    }
}
