//! In-flight instruction state: the simulator's per-instruction record from
//! fetch to retirement.

use shelfsim_isa::DynInst;
use shelfsim_mem::Level;
use shelfsim_uarch::{Mapping, PhysReg, Prediction, Tag};

/// Handle to an in-flight instruction in the [`Slab`].
pub type InstId = u32;

/// Which queue an instruction was dispatched to (paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steer {
    /// Conventional unordered issue queue (reordered instructions).
    Iq,
    /// The per-thread FIFO shelf (in-sequence instructions).
    Shelf,
}

/// Lifecycle of an in-flight instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// In the fetch-to-dispatch pipe.
    Frontend,
    /// Renamed and waiting in the IQ or the shelf.
    Dispatched,
    /// Issued to a functional unit, executing.
    Issued,
    /// Execution complete (written back or squash-filtered).
    Completed,
    /// Retired architecturally.
    Retired,
}

/// The full in-flight record of one dynamic instruction.
///
/// The three hottest fields — dispatch age, lifecycle stage, and squashed
/// flag — live in the [`Slab`]'s structure-of-arrays side tables, not here:
/// identity checks and stage filters in the per-cycle loops (ready-pool
/// compaction, event identity, commit gating, squash walks) touch compact
/// parallel arrays instead of dragging whole `Slot` records through the
/// cache. Access them via [`Slab::age`], [`Slab::stage`], and
/// [`Slab::is_squashed`].
#[derive(Clone, Debug)]
pub struct Slot {
    /// Owning hardware thread.
    pub thread: usize,
    /// Trace sequence number (`u64::MAX` for synthetic wrong-path
    /// instructions, which have no trace position).
    pub seq: u64,
    /// The decoded instruction.
    pub inst: DynInst,
    /// Steering decision.
    pub steer: Steer,
    /// Memoized steering decision `(steer, plt_column)` from the first
    /// dispatch attempt. A head blocked on resources retries dispatch every
    /// cycle; without the memo each retry would re-mutate the prediction
    /// tables (RCT updates, a fresh PLT column per retry — a column leak)
    /// and re-count the decision.
    pub steer_memo: Option<(Steer, Option<u8>)>,
    /// Synthetic wrong-path instruction (fetched past a mispredicted
    /// branch; never retires).
    pub wrong_path: bool,

    // ---- rename results ----
    /// Source wakeup tags.
    pub src_tags: [Option<Tag>; 2],
    /// Destination physical register (IQ: newly allocated; shelf: reused).
    pub dest_pri: Option<PhysReg>,
    /// Destination wakeup tag (IQ: == PRI; shelf: extension tag).
    pub dest_tag: Option<Tag>,
    /// The mapping this instruction replaced (for squash walk-back and
    /// retirement-time freeing).
    pub prev_mapping: Option<Mapping>,
    /// IQ entries: source tags whose producers had not yet broadcast at
    /// dispatch. The wakeup CAM only compares entries still waiting on a
    /// source (`pending_srcs > 0`); once every source has been broadcast the
    /// ready bits are latched and the comparators stay dark.
    pub pending_srcs: u8,
    /// IQ entries: cycle all sources are ready (including any cross-cluster
    /// forwarding penalty). Maintained incrementally — set from the
    /// scoreboard at dispatch for already-broadcast sources and folded in
    /// at each later broadcast — so the per-cycle select scan is a single
    /// comparison. Valid once `pending_srcs == 0`; broadcast ready times
    /// are immutable while a consumer waits (the in-order issue barrier
    /// keeps a source tag from being freed and re-broadcast before every
    /// registered consumer has issued).
    pub data_ready_cycle: u64,

    // ---- structure indices ----
    /// ROB index (IQ instructions only).
    pub rob_idx: Option<u64>,
    /// Shelf virtual index (shelf instructions only).
    pub shelf_idx: Option<u64>,
    /// LQ index (IQ loads only).
    pub lq_idx: Option<u64>,
    /// SQ index (IQ stores only).
    pub sq_idx: Option<u64>,
    /// Current position in the issue queue's backing vector (IQ residents
    /// only; maintained across swap-removes so issue and squash need no
    /// linear IQ scan to find the entry).
    pub iq_pos: u32,
    /// For shelf instructions: the issue-tracking barrier — the thread's ROB
    /// tail at dispatch; the shelf head may issue only after the tracking
    /// head passes it (§III-A).
    pub iq_barrier: u64,
    /// For shelf instructions: first of its run (triggers the IQ→shelf SSR
    /// copy when it becomes order-eligible, §III-B).
    pub first_of_run: bool,
    /// Set once this instruction performed its run's SSR copy.
    pub ssr_copied: bool,
    /// For IQ instructions: the shelf index the *next* shelf instruction
    /// would get — the shelf squash index recorded at dispatch (§III-B).
    pub shelf_squash_idx: u64,
    /// For shelf memory ops: the thread's LQ tail at dispatch (younger IQ
    /// loads to scan live at indices `>= lq_tail`... older ones below).
    pub lq_tail_at_dispatch: u64,
    /// For shelf memory ops: the thread's SQ tail at dispatch.
    pub sq_tail_at_dispatch: u64,

    // ---- timing ----
    /// Cycle fetched.
    pub fetch_cycle: u64,
    /// Cycle renamed/dispatched.
    pub dispatch_cycle: u64,
    /// Cycle issued.
    pub issue_cycle: u64,
    /// Cycle execution completes (writeback).
    pub complete_cycle: u64,

    // ---- memory ----
    /// Deepest cache level the access reached.
    pub mem_level: Option<Level>,
    /// Address has been computed and LSQ scans performed.
    pub mem_executed: bool,
    /// Age of the store this load received its value from (forwarding).
    pub forwarded_from: Option<u64>,
    /// For loads the data MSHR file rejected: the rejection's retry cycle.
    /// Before it the same cache access is certain to be rejected again
    /// (the retry contract of `Hierarchy::access_data`), so a retry only
    /// counts the rejection. 0 until a rejection.
    pub mshr_retry_at: u64,
    /// Practical-steering PLT column sampled for this load.
    pub plt_column: Option<u8>,

    // ---- control ----
    /// Prediction made at fetch (branches).
    pub prediction: Option<Prediction>,
    /// Fetch-time knowledge that the prediction was wrong; triggers a squash
    /// and redirect when the branch resolves.
    pub mispredicted: bool,

    // ---- classification (paper §II) ----
    /// Classified in-sequence at issue (issued in program order with
    /// speculation resolved — would not have stalled an in-order core).
    pub in_sequence: bool,
    /// Index in the thread's classification shadow tracker.
    pub classify_idx: u64,
}

impl Slot {
    /// Creates a fresh slot for a fetched instruction.
    pub fn new(thread: usize, seq: u64, inst: DynInst, fetch_cycle: u64) -> Self {
        Slot {
            thread,
            seq,
            inst,
            steer: Steer::Iq,
            steer_memo: None,
            wrong_path: false,
            src_tags: [None; 2],
            dest_pri: None,
            dest_tag: None,
            prev_mapping: None,
            pending_srcs: 0,
            data_ready_cycle: 0,
            rob_idx: None,
            shelf_idx: None,
            lq_idx: None,
            sq_idx: None,
            iq_pos: 0,
            iq_barrier: 0,
            first_of_run: false,
            ssr_copied: false,
            shelf_squash_idx: 0,
            lq_tail_at_dispatch: 0,
            sq_tail_at_dispatch: 0,
            fetch_cycle,
            dispatch_cycle: 0,
            issue_cycle: 0,
            complete_cycle: 0,
            mem_level: None,
            mem_executed: false,
            forwarded_from: None,
            mshr_retry_at: 0,
            plt_column: None,
            prediction: None,
            mispredicted: false,
            in_sequence: false,
            classify_idx: 0,
        }
    }
}

/// A slab of in-flight instruction slots with id recycling.
///
/// Structure-of-arrays layout for the hot per-instruction state: liveness,
/// dispatch age, lifecycle stage, and the squashed flag live in dense
/// parallel arrays indexed by [`InstId`], so the per-cycle scans (ready-pool
/// compaction, event identity checks, commit gating, squash walks) stay
/// within a few cache lines instead of striding over full [`Slot`] records.
#[derive(Clone, Debug, Default)]
pub struct Slab {
    slots: Vec<Option<Slot>>,
    /// `alive[id]`: the id refers to a live slot (mirrors `slots[id].is_some()`).
    alive: Vec<bool>,
    /// Global dispatch age of `id` (0 until dispatch assigns one).
    ages: Vec<u64>,
    /// Lifecycle stage of `id`.
    stages: Vec<Stage>,
    /// Squashed-by-misspeculation flag of `id` (a squashed shelf
    /// instruction keeps its shelf index reserved until its writeback
    /// moment, per §III-B).
    squashed: Vec<bool>,
    /// Owning hardware thread of `id`. Dense so the skip engine's wheel-
    /// drain wake path (map each due event/ready-wheel entry to the thread
    /// it wakes) walks a flat array instead of dereferencing full slots.
    threads: Vec<usize>,
    free: Vec<InstId>,
    live: usize,
}

impl Slab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a slot, returning its id. The SoA side tables start as
    /// `(age 0, Stage::Frontend, not squashed)`.
    pub fn insert(&mut self, slot: Slot) -> InstId {
        self.live += 1;
        let thread = slot.thread;
        let id = if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(slot);
            id
        } else {
            self.slots.push(Some(slot));
            (self.slots.len() - 1) as InstId
        };
        let i = id as usize;
        if i == self.alive.len() {
            self.alive.push(true);
            self.ages.push(0);
            self.stages.push(Stage::Frontend);
            self.squashed.push(false);
            self.threads.push(thread);
        } else {
            self.alive[i] = true;
            self.ages[i] = 0;
            self.stages[i] = Stage::Frontend;
            self.squashed[i] = false;
            self.threads[i] = thread;
        }
        id
    }

    /// Removes a slot, recycling its id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: InstId) {
        let slot = &mut self.slots[id as usize];
        assert!(slot.is_some(), "removing a dead instruction slot");
        *slot = None;
        self.alive[id as usize] = false;
        self.free.push(id);
        self.live -= 1;
    }

    /// Borrows a live slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get(&self, id: InstId) -> &Slot {
        self.slots[id as usize]
            .as_ref()
            .expect("dead instruction slot")
    }

    /// Mutably borrows a live slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn get_mut(&mut self, id: InstId) -> &mut Slot {
        self.slots[id as usize]
            .as_mut()
            .expect("dead instruction slot")
    }

    /// Returns `true` if `id` refers to a live slot.
    #[inline]
    pub fn contains(&self, id: InstId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// Identity check for possibly-stale `(id, age)` handles (event wheel
    /// entries, ready-pool entries, recent-load rings): the id is live *and*
    /// still refers to the same dispatched instruction.
    #[inline]
    pub fn live_with_age(&self, id: InstId, age: u64) -> bool {
        self.contains(id) && self.ages[id as usize] == age
    }

    /// Global dispatch age of a live slot.
    #[inline]
    pub fn age(&self, id: InstId) -> u64 {
        self.ages[id as usize]
    }

    /// Sets the dispatch age (rename-stage allocation).
    #[inline]
    pub fn set_age(&mut self, id: InstId, age: u64) {
        self.ages[id as usize] = age;
    }

    /// Lifecycle stage of a live slot.
    #[inline]
    pub fn stage(&self, id: InstId) -> Stage {
        self.stages[id as usize]
    }

    /// Advances the lifecycle stage.
    #[inline]
    pub fn set_stage(&mut self, id: InstId, stage: Stage) {
        self.stages[id as usize] = stage;
    }

    /// Owning hardware thread of a live slot (O(1), SoA side table).
    #[inline]
    pub fn thread_of(&self, id: InstId) -> usize {
        self.threads[id as usize]
    }

    /// Whether the slot was squashed by a misspeculation.
    #[inline]
    pub fn is_squashed(&self, id: InstId) -> bool {
        self.squashed[id as usize]
    }

    /// Marks the slot squashed (it may still be in an execution pipe).
    #[inline]
    pub fn set_squashed(&mut self, id: InstId, squashed: bool) {
        self.squashed[id as usize] = squashed;
    }

    /// Number of live slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no slots are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelfsim_isa::{ArchReg, OpClass};

    fn dummy() -> Slot {
        Slot::new(0, 0, DynInst::alu(OpClass::IntAlu, ArchReg::int(1), &[]), 0)
    }

    #[test]
    fn slab_insert_get_remove() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy());
        let b = slab.insert(dummy());
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert!(slab.contains(a));
        slab.set_age(a, 42);
        assert_eq!(slab.age(a), 42);
        assert!(slab.live_with_age(a, 42));
        assert!(!slab.live_with_age(a, 41));
        slab.remove(a);
        assert!(!slab.contains(a));
        assert!(!slab.live_with_age(a, 42));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn soa_side_tables_reset_on_id_reuse() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy());
        slab.set_age(a, 7);
        slab.set_stage(a, Stage::Issued);
        slab.set_squashed(a, true);
        slab.remove(a);
        let b = slab.insert(Slot::new(
            3,
            0,
            DynInst::alu(OpClass::IntAlu, ArchReg::int(1), &[]),
            0,
        ));
        assert_eq!(a, b, "id recycled");
        assert_eq!(slab.age(b), 0);
        assert_eq!(slab.stage(b), Stage::Frontend);
        assert!(!slab.is_squashed(b));
        assert_eq!(slab.thread_of(b), 3, "thread table follows the new owner");
    }

    #[test]
    fn ids_are_recycled() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy());
        slab.remove(a);
        let b = slab.insert(dummy());
        assert_eq!(a, b, "freed ids are reused");
    }

    #[test]
    #[should_panic(expected = "dead instruction slot")]
    fn get_dead_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(dummy());
        slab.remove(a);
        let _ = slab.get(a);
    }

    #[test]
    fn new_slot_defaults() {
        let s = dummy();
        assert!(!s.wrong_path);
        assert_eq!(s.steer, Steer::Iq);
        assert!(s.steer_memo.is_none());
    }
}
