//! The cycle-level SMT out-of-order core with the hybrid shelf window.
//!
//! One [`Core`] simulates fetch → decode/steer → rename/dispatch → issue →
//! execute → writeback → commit over a set of per-thread trace sources,
//! implementing every mechanism of paper §III:
//!
//! * per-thread FIFO **shelf** whose instructions skip ROB/IQ/LSQ/PRF
//!   allocation;
//! * **issue-tracking bitvectors** establishing in-order issue across the
//!   two queues (Figure 4), with conservative/optimistic same-cycle issue;
//! * the **speculation shift register pair** delaying shelf writebacks past
//!   the commit point (Figure 5);
//! * **shelf squash indices** and the **shelf retire pointer** coordinating
//!   misspeculation recovery and ROB retirement with a 2× virtual shelf
//!   index space;
//! * the **tag-space extension** letting shelf instructions overwrite live
//!   physical registers while the IQ wakes up unambiguously (Figures 6–8);
//! * **relaxed-memory LSQ** semantics: shelf memory ops hold no LQ/SQ
//!   entries, scan the queues associatively, forward, coalesce, and squash
//!   violating loads moderated by a store-sets predictor (§III-D).

use crate::classify::Classifier;
use crate::config::{CoreConfig, MemoryModel, SteerPolicy};
use crate::counters::{acc, Counters};
use crate::inst::{InstId, Slab, Slot, Stage, Steer};
use crate::skip::{consider, SkipCause, SkipEngine, SkipStats, TickDelta, MIN_PARK_JUMP_SPAN};
use crate::steer::{OracleSteer, PracticalSteer};
use crate::warm::{self, WarmState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shelfsim_isa::{ArchReg, DynInst, FuKind, MemInfo, OpClass};
use shelfsim_mem::{Hierarchy, Level};
use shelfsim_trace::{EndKind, Lifecycle, OccupancySample, QueueKind, StallCause, Tracer};
use shelfsim_uarch::{
    BranchPredictor, FreeList, Icount, IssueTracker, Mapping, OrderedQueue, PhysReg, RenameTable,
    Scoreboard, SsrPair, StoreSets, Tag,
};
use shelfsim_workload::TraceSource;
use std::collections::{BinaryHeap, VecDeque};

/// Consecutive data-blocked cycles at a shelf head after which the thread's
/// steering falls back to the IQ until the head drains.
const HEAD_THROTTLE_CYCLES: u32 = 8;

/// Minimum issue-to-writeback latency of an operation (the value compared
/// against the shelf SSR; loads writeback no earlier than an L1 hit).
fn min_writeback_latency(op: OpClass) -> u32 {
    match op {
        OpClass::Load => 2,
        _ => op.latency(),
    }
}

#[derive(PartialEq, Eq)]
struct Event {
    cycle: u64,
    age: u64,
    id: InstId,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (cycle, age): elder instructions' writebacks (and thus
        // squashes) are processed before younger same-cycle writebacks, so a
        // misspeculation always marks in-flight younger shelf instructions
        // squashed before they attempt to retire.
        other.cycle.cmp(&self.cycle).then(other.age.cmp(&self.age))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ring size of the event calendar. Completion cycles land within this
/// horizon of `now` in all but degenerate cases; the rest wait in an
/// overflow heap.
const EVENT_WHEEL_BUCKETS: usize = 1024;

/// Calendar queue of pending writeback events: O(1) insertion into a
/// per-cycle bucket instead of a binary-heap reshuffle on every push and
/// pop. The per-cycle drain sorts the (tiny) due bucket by age, matching
/// the elder-first processing order the heap's `(cycle, age)` key gave.
struct EventWheel {
    /// `buckets[c % EVENT_WHEEL_BUCKETS]` holds the events due at cycle `c`
    /// for cycles inside the horizon.
    buckets: Vec<Vec<Event>>,
    /// Events scheduled at or beyond `now + EVENT_WHEEL_BUCKETS`.
    overflow: BinaryHeap<Event>,
    len: usize,
}

impl EventWheel {
    fn new() -> Self {
        EventWheel {
            buckets: (0..EVENT_WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::with_capacity(16),
            len: 0,
        }
    }

    /// Schedules `ev` as of cycle `now`. Events dated `now` or earlier are
    /// clamped to `now + 1` (the heap equivalently fired them on the next
    /// drain). The strict `<` horizon check keeps the bucket currently
    /// being drained out of reach of re-entrant pushes.
    fn push(&mut self, now: u64, mut ev: Event) {
        ev.cycle = ev.cycle.max(now + 1);
        self.len += 1;
        if ev.cycle - now < EVENT_WHEEL_BUCKETS as u64 {
            self.buckets[(ev.cycle as usize) % EVENT_WHEEL_BUCKETS].push(ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Drains every event due at exactly `now` into `out` as `(age, id)`
    /// pairs. Must be called once per cycle so a bucket never wraps around
    /// with stale entries.
    fn drain_due(&mut self, now: u64, out: &mut Vec<(u64, InstId)>) {
        let idx = (now as usize) % EVENT_WHEEL_BUCKETS;
        let mut bucket = std::mem::take(&mut self.buckets[idx]);
        for ev in bucket.drain(..) {
            debug_assert_eq!(ev.cycle, now);
            out.push((ev.age, ev.id));
            self.len -= 1;
        }
        self.buckets[idx] = bucket;
        while let Some(ev) = self.overflow.peek() {
            if ev.cycle > now {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            out.push((ev.age, ev.id));
            self.len -= 1;
        }
    }

    /// Earliest pending event cycle at or after `now`, if any. The memory/
    /// pipeline side of the engine's event-horizon computation: nothing in
    /// this wheel can fire strictly before the returned cycle. Every bucket
    /// entry lies in `[now, now + EVENT_WHEEL_BUCKETS)` (pushes clamp to
    /// `push_now + 1` and per-cycle drains empty past buckets), so a single
    /// forward scan finds the earliest bucket; the overflow heap's peek is
    /// its minimum (the `Event` ordering is reversed for min-heap behavior).
    fn next_due(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<u64> = self.overflow.peek().map(|ev| ev.cycle);
        for off in 0..EVENT_WHEEL_BUCKETS as u64 {
            let c = now + off;
            if !self.buckets[(c as usize) % EVENT_WHEEL_BUCKETS].is_empty() {
                best = Some(best.map_or(c, |b| b.min(c)));
                break;
            }
        }
        best
    }
}

/// Per-thread architectural and microarchitectural state.
struct Thread {
    trace: TraceSource,
    rat: RenameTable,
    rob: OrderedQueue<InstId>,
    lq: OrderedQueue<InstId>,
    sq: OrderedQueue<InstId>,
    /// Shelf entries (physical storage); indices are allocated separately.
    shelf: VecDeque<InstId>,
    shelf_capacity: usize,
    /// Monotonic shelf index allocator (the virtual index space).
    shelf_next_idx: u64,
    /// Shelf retire bitvector: `shelf_retired[i]` covers index
    /// `shelf_retire_ptr + i`.
    shelf_retired: VecDeque<bool>,
    /// Oldest shelf index not yet written back (the shelf retire pointer).
    shelf_retire_ptr: u64,
    /// All renamed, not-yet-committed instructions in program order.
    window: VecDeque<InstId>,
    /// Fetch-to-dispatch pipe.
    frontend: VecDeque<InstId>,
    issue_tracker: IssueTracker,
    /// Tracker head captured at the start of the cycle (conservative mode).
    tracker_head_snapshot: u64,
    ssr: SsrPair,
    store_sets: StoreSets,
    /// In-flight stores as `(age, id)`, sorted ascending by age (store-set
    /// tokens). Dispatch ages are per-thread monotonic, so `push_back`
    /// maintains the order; store-set scans walk oldest-first and stop at
    /// the querying load's age.
    inflight_stores: VecDeque<(u64, InstId)>,
    /// Recently issued shelf loads, scanned by store violation checks
    /// (shelf loads hold no LQ entry).
    recent_shelf_loads: VecDeque<(InstId, u64)>,
    /// Ages of issued-but-incomplete loads, sorted ascending (TSO: shelf
    /// writebacks must wait for all elder loads to complete, §III-D).
    inflight_loads: Vec<u64>,
    bpred: BranchPredictor,
    practical: PracticalSteer,
    oracle: OracleSteer,
    /// Shadow oracle for mis-steer measurement under the practical policy.
    shadow_oracle: OracleSteer,
    classifier: Classifier,
    /// Steering decisions that disagreed with the shadow oracle.
    missteers: u64,
    /// Steering decisions compared.
    steer_decisions: u64,
    /// Thread cannot fetch until this cycle (I-miss, redirect).
    fetch_stalled_until: u64,
    /// Mispredicted branch blocking correct-path fetch.
    waiting_branch: Option<InstId>,
    wrong_path_rng: SmallRng,
    /// Post-commit store buffer: (address, earliest drain cycle).
    store_buffer: VecDeque<(u64, u64)>,
    /// Instructions in the front end + dispatched-but-unissued (ICOUNT).
    pre_issue_count: usize,
    /// Committed instruction count (real, architectural).
    committed: u64,
    /// Steering of the previously dispatched instruction (run detection).
    last_steer: Option<Steer>,
    /// Committed shelf instructions that were still marked `Completed` when
    /// a squash walked past them (must stay 0; see `squash_thread`).
    late_shelf_commits: u64,
    /// Consecutive cycles the current shelf head has been blocked on data.
    head_blocked_streak: u32,
    /// The shelf head the streak refers to.
    head_blocked_id: Option<InstId>,
}

impl Thread {
    fn shelf_index_space(&self, narrow: bool) -> u64 {
        if narrow {
            self.shelf_capacity as u64
        } else {
            2 * self.shelf_capacity as u64
        }
    }

    /// Advance the shelf retire pointer over contiguously retired indices.
    fn advance_shelf_retire(&mut self) {
        while self.shelf_retired.front() == Some(&true) {
            self.shelf_retired.pop_front();
            self.shelf_retire_ptr += 1;
        }
    }

    fn mark_shelf_retired(&mut self, idx: u64) {
        debug_assert!(idx >= self.shelf_retire_ptr);
        let off = (idx - self.shelf_retire_ptr) as usize;
        debug_assert!(
            off < self.shelf_retired.len(),
            "retiring unallocated shelf index"
        );
        self.shelf_retired[off] = true;
        self.advance_shelf_retire();
    }

    /// Drops the in-flight store with dispatch age `age` (no-op if absent).
    fn remove_inflight_store(&mut self, age: u64) {
        let (a, b) = self.inflight_stores.as_slices();
        let pos = match a.binary_search_by_key(&age, |&(g, _)| g) {
            Ok(p) => Ok(p),
            Err(_) => b
                .binary_search_by_key(&age, |&(g, _)| g)
                .map(|p| a.len() + p),
        };
        if let Ok(p) = pos {
            self.inflight_stores.remove(p);
        }
    }

    /// Records an issued-but-incomplete load (TSO ordering watch).
    fn add_inflight_load(&mut self, age: u64) {
        let pos = self.inflight_loads.binary_search(&age).unwrap_err();
        self.inflight_loads.insert(pos, age);
    }

    /// Drops a completed load from the in-flight set (no-op if absent).
    fn remove_inflight_load(&mut self, age: u64) {
        if let Ok(p) = self.inflight_loads.binary_search(&age) {
            self.inflight_loads.remove(p);
        }
    }
}

/// One architecturally committed (correct-path) instruction, as emitted by
/// the commit observer for lockstep differential validation (see the
/// `shelfsim-validate` crate). Unlike the tracer's timing-oriented
/// [`Lifecycle`] record, this carries the full decoded [`DynInst`] so a
/// functional reference model can replay the exact architectural stream:
/// PC, operation, registers, memory address, and branch outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommitEvent {
    /// Hardware thread.
    pub thread: usize,
    /// Trace sequence number (consecutive per thread on the correct path).
    pub seq: u64,
    /// The decoded dynamic instruction exactly as fetched.
    pub inst: DynInst,
    /// Commit cycle.
    pub cycle: u64,
}

/// Which seeded semantic mutation the `chaos` build injects (mutation
/// testing of the validation harness: each of these must be *caught* by
/// `shelfsim validate` — see `docs/MECHANISMS.md` §14).
#[cfg(feature = "chaos")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosKind {
    /// Silently drop one committed instruction's observer event, as if its
    /// writeback never architecturally happened.
    SkipWriteback,
    /// Hold one commit event and emit it *after* the next same-thread
    /// commit — an out-of-order retirement.
    CommitOutOfOrder,
    /// Flip an address bit in one committed store's memory info — a
    /// corrupted store value/address.
    CorruptStoreValue,
    /// Emit one squashed (but correct-path-tagged) victim as a phantom
    /// commit — a squash that failed to kill its instruction.
    DropSquash,
    /// Silently drop *all* of one thread's due pipeline events for a cycle
    /// — the partial-skip failure mode where a thread's tick is
    /// effectively skipped. The lost writebacks wedge the thread.
    SkipThreadTick,
}

#[cfg(feature = "chaos")]
impl ChaosKind {
    /// Every shipped mutation, in a stable order (the "shipped chaos set"
    /// the mutation-kill regression test iterates).
    pub const ALL: [ChaosKind; 5] = [
        ChaosKind::SkipWriteback,
        ChaosKind::CommitOutOfOrder,
        ChaosKind::CorruptStoreValue,
        ChaosKind::DropSquash,
        ChaosKind::SkipThreadTick,
    ];

    /// Stable CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosKind::SkipWriteback => "skip-writeback",
            ChaosKind::CommitOutOfOrder => "commit-out-of-order",
            ChaosKind::CorruptStoreValue => "corrupt-store-value",
            ChaosKind::DropSquash => "drop-squash",
            ChaosKind::SkipThreadTick => "skip-thread-tick",
        }
    }

    /// Parses a CLI name (the inverse of [`ChaosKind::as_str`]).
    pub fn by_name(name: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// A seeded mutation: inject `kind` at the `trigger`-th eligible event
/// (0-based; eligibility is kind-specific — commits for the first two,
/// committed stores for `CorruptStoreValue`, squash victims for
/// `DropSquash`).
#[cfg(feature = "chaos")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Which mutation to inject.
    pub kind: ChaosKind,
    /// Zero-based index of the eligible event to mutate.
    pub trigger: u64,
}

#[cfg(feature = "chaos")]
#[derive(Debug)]
struct ChaosState {
    plan: ChaosPlan,
    /// Eligible events seen so far (the trigger counter).
    seen: u64,
    /// Whether the mutation has been injected.
    fired: bool,
    /// Held-back event for [`ChaosKind::CommitOutOfOrder`].
    held: Option<CommitEvent>,
}

/// Occupancy snapshot of one thread's pipeline structures, taken when the
/// forward-progress watchdog aborts a run (see
/// [`crate::sim::DeadlockReport`]) or on demand via
/// [`Core::thread_occupancy`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadOccupancy {
    /// Hardware thread index.
    pub thread: usize,
    /// Instructions committed so far (whole run).
    pub committed: u64,
    /// ROB entries occupied.
    pub rob: usize,
    /// Load-queue entries occupied.
    pub lq: usize,
    /// Store-queue entries occupied.
    pub sq: usize,
    /// Shelf entries occupied.
    pub shelf: usize,
    /// Instructions in the in-order window (dispatched, pre-commit).
    pub window: usize,
    /// Frontend (fetch-to-dispatch) buffer occupancy.
    pub frontend: usize,
    /// Cycle until which fetch is stalled (0 = not stalled).
    pub fetch_stalled_until: u64,
}

/// The simulated core.
pub struct Core {
    cfg: CoreConfig,
    now: u64,
    slab: Slab,
    hierarchy: Hierarchy,
    /// Event counters (resettable for warm-up).
    pub counters: Counters,
    next_age: u64,
    threads: Vec<Thread>,
    /// Shared unordered issue queue (instruction ids).
    iq: Vec<InstId>,
    phys_fl: FreeList,
    ext_fl: FreeList,
    scoreboard: Scoreboard,
    /// Which cluster (queue) produced each tag's value, for the optional
    /// clustered-backend forwarding penalty.
    tag_cluster: Vec<Steer>,
    icount: Icount,
    /// Per functional-unit-kind busy-until cycles.
    fu_busy: [Vec<u64>; 4],
    events: EventWheel,
    /// Queued [`CommitEvent`]s awaiting [`Core::drain_commit_events`]
    /// (empty unless the commit observer is enabled).
    commit_events: VecDeque<CommitEvent>,
    /// Whether the commit observer is on. Off by default: the commit path
    /// pays exactly one branch, verified against the bench baseline.
    commit_observer: bool,
    /// Seeded semantic fault injection for mutation-testing the validation
    /// harness (`--features chaos` only).
    #[cfg(feature = "chaos")]
    chaos: Option<ChaosState>,
    /// Pipeline observability (lifecycle trace, occupancy sampling, stall
    /// attribution). `None` in normal runs: each stage pays exactly one
    /// `Option` check, verified against the committed bench baseline.
    tracer: Option<Box<Tracer>>,
    /// Per-tag wakeup consumer lists: IQ entries `(id, age)` registered at
    /// dispatch because the tag's producer had not yet broadcast. Drained
    /// at the tag's broadcast; stale entries (squashed consumers) are
    /// filtered by the age check then.
    tag_consumers: Vec<Vec<(InstId, u64)>>,
    /// IQ entries with `pending_srcs > 0` — the population the wakeup CAM
    /// actually compares on each broadcast.
    iq_waiting: usize,
    /// Calendar queue of IQ entries whose sources become ready at a known
    /// future cycle; drained into [`Self::ready_pool`] each cycle so the
    /// select scan never walks the whole IQ.
    ready_wheel: EventWheel,
    /// Data-ready but not-yet-issued IQ entries `(age, id)`, compacted and
    /// kept age-sorted once per cycle. Stale entries (issued, squashed, or
    /// recycled ids) are dropped at compaction time.
    ready_pool: Vec<(u64, InstId)>,
    /// Persistent scratch buffers (reused across cycles to keep the hot
    /// loop allocation-free).
    scratch_squash: Vec<InstId>,
    scratch_mshr_losers: Vec<InstId>,
    scratch_counts: Vec<usize>,
    scratch_eligible: Vec<bool>,
    /// Event-driven cycle skipping (progress tracking + accounting); see
    /// [`crate::skip`]. Runtime-toggleable, on by default, used only via
    /// [`Core::tick_bounded`] — plain [`Core::tick`] never skips.
    skip: SkipEngine,
}

impl Core {
    /// Builds a core running `traces` (one per hardware thread).
    ///
    /// # Panics
    ///
    /// Panics if the trace count does not match `cfg.threads` or the
    /// configuration is invalid.
    pub fn new(cfg: CoreConfig, traces: Vec<TraceSource>) -> Self {
        // Validate before `cold` builds the hierarchy from the config.
        cfg.validate();
        let cold = WarmState::cold(&cfg, traces);
        Self::from_warm(cfg, cold)
    }

    /// Builds a core around an already warmed hierarchy, trace positions
    /// and branch predictors (see [`WarmState`]). Equivalent to
    /// [`Core::new`] followed by the warm-up that produced `warm`, without
    /// repeating it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if `warm` was built for
    /// another thread count or hierarchy.
    pub fn from_warm(cfg: CoreConfig, warm: WarmState) -> Self {
        cfg.validate();
        let WarmState {
            hierarchy,
            threads: parts,
        } = warm;
        assert_eq!(parts.len(), cfg.threads, "one trace per hardware thread");
        assert_eq!(
            hierarchy.config(),
            &cfg.hierarchy,
            "warm state built for another hierarchy"
        );
        let num_phys = cfg.num_phys_regs();
        let num_arch = shelfsim_isa::NUM_ARCH_REGS;

        // Architectural registers of thread t occupy physical registers
        // [t*num_arch, (t+1)*num_arch); the remainder form the shared rename
        // pool managed by the physical free list.
        let mut threads = Vec::with_capacity(cfg.threads);
        for (t, (trace, bpred)) in parts.into_iter().enumerate() {
            let base = (t * num_arch) as u32;
            threads.push(Thread {
                trace,
                rat: RenameTable::new(|i| {
                    let p = PhysReg(base + i as u32);
                    Mapping {
                        pri: p,
                        tag: p.as_tag(),
                    }
                }),
                rob: OrderedQueue::new(cfg.rob_per_thread()),
                lq: OrderedQueue::new(cfg.lq_per_thread()),
                sq: OrderedQueue::new(cfg.sq_per_thread()),
                shelf: VecDeque::new(),
                shelf_capacity: cfg.shelf_per_thread(),
                shelf_next_idx: 0,
                shelf_retired: VecDeque::new(),
                shelf_retire_ptr: 0,
                window: VecDeque::new(),
                frontend: VecDeque::new(),
                issue_tracker: IssueTracker::new(),
                tracker_head_snapshot: 0,
                ssr: SsrPair::new(cfg.single_ssr),
                store_sets: StoreSets::new(1024, 64),
                inflight_stores: VecDeque::new(),
                recent_shelf_loads: VecDeque::new(),
                inflight_loads: Vec::new(),
                bpred,
                practical: PracticalSteer::new(cfg.rct_bits, cfg.plt_columns),
                oracle: OracleSteer::new(),
                shadow_oracle: OracleSteer::new(),
                classifier: Classifier::new(),
                missteers: 0,
                steer_decisions: 0,
                fetch_stalled_until: 0,
                waiting_branch: None,
                wrong_path_rng: SmallRng::seed_from_u64(0xDEAD ^ t as u64),
                store_buffer: VecDeque::new(),
                pre_issue_count: 0,
                committed: 0,
                last_steer: None,
                late_shelf_commits: 0,
                head_blocked_streak: 0,
                head_blocked_id: None,
            });
        }

        // The free list spans the whole PRF; the registers holding the
        // initial architectural state start out allocated and return to the
        // pool when their mapping is superseded and retired.
        let arch_regs = (cfg.threads * num_arch) as u32;
        let mut phys_fl = FreeList::new(0, num_phys as u32);
        for i in 0..arch_regs {
            let got = phys_fl
                .allocate()
                .expect("PRF sized for architectural state");
            assert_eq!(got, i, "architectural registers occupy the low PRF indices");
        }
        let ext_fl = FreeList::new(num_phys as u32, cfg.num_ext_tags() as u32);
        let num_tags = cfg.num_tags();
        let iq_capacity = cfg.iq_entries;

        Core {
            fu_busy: [
                vec![0; cfg.fu_int_alu],
                vec![0; cfg.fu_int_muldiv],
                vec![0; cfg.fu_fp],
                vec![0; cfg.fu_mem_ports],
            ],
            hierarchy,
            cfg,
            now: 0,
            slab: Slab::new(),
            counters: Counters::new(),
            next_age: 0,
            iq: Vec::with_capacity(iq_capacity),
            threads,
            phys_fl,
            ext_fl,
            scoreboard: Scoreboard::new(num_tags),
            tag_cluster: vec![Steer::Iq; num_tags],
            icount: Icount::new(),
            events: EventWheel::new(),
            commit_events: VecDeque::new(),
            commit_observer: false,
            #[cfg(feature = "chaos")]
            chaos: None,
            tracer: None,
            tag_consumers: vec![Vec::new(); num_tags],
            iq_waiting: 0,
            ready_wheel: EventWheel::new(),
            ready_pool: Vec::new(),
            scratch_squash: Vec::new(),
            scratch_mshr_losers: Vec::new(),
            scratch_counts: Vec::new(),
            scratch_eligible: Vec::new(),
            skip: SkipEngine::new(),
        }
    }

    /// Enables pipeline tracing: the last `window` instruction lifecycles
    /// and occupancy samples are retained (one sample every `sample_every`
    /// cycles), and per-thread dispatch/issue stall attribution is tallied
    /// every cycle. See [`shelfsim_trace::Tracer`] for the event model and
    /// drop policy.
    pub fn enable_tracer(&mut self, window: usize, sample_every: u64) {
        self.tracer = Some(Box::new(
            Tracer::new(self.cfg.threads, window).with_sampling(sample_every),
        ));
    }

    /// The tracer, if enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// The tracer, if enabled (mutable; e.g. to reset it at a measurement
    /// boundary).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Records an instruction's end of life (commit or squash) into the
    /// tracer. A no-op when tracing is off or for synthetic wrong-path
    /// instructions; frontend-stage instructions never made a steering
    /// decision and are not recorded (see the `shelfsim-trace` event
    /// model).
    #[inline]
    fn trace_end(&mut self, id: InstId, end_kind: EndKind) {
        let Some(tracer) = self.tracer.as_deref_mut() else {
            return;
        };
        let s = self.slab.get(id);
        if s.wrong_path {
            return;
        }
        let (issue, writeback) = match self.slab.stage(id) {
            Stage::Frontend => return,
            Stage::Dispatched => (None, None),
            Stage::Issued => (Some(s.issue_cycle), None),
            Stage::Completed | Stage::Retired => (Some(s.issue_cycle), Some(s.complete_cycle)),
        };
        tracer.record(Lifecycle {
            thread: s.thread as u8,
            seq: s.seq,
            pc: s.inst.pc,
            op: s.inst.op,
            queue: match s.steer {
                Steer::Iq => QueueKind::Iq,
                Steer::Shelf => QueueKind::Shelf,
            },
            fetch: s.fetch_cycle,
            dispatch: s.dispatch_cycle,
            issue,
            writeback,
            end: self.now,
            end_kind,
        });
    }

    /// Enables the commit observer: every correct-path commit is queued as
    /// a [`CommitEvent`] until drained with [`Core::drain_commit_events`].
    /// The caller must drain regularly or the queue grows unboundedly.
    pub fn enable_commit_observer(&mut self) {
        self.commit_observer = true;
    }

    /// Moves every queued commit event into `out` (in commit order,
    /// interleaved across threads), clearing the internal queue.
    pub fn drain_commit_events(&mut self, out: &mut Vec<CommitEvent>) {
        out.extend(self.commit_events.drain(..));
    }

    /// The next trace sequence number thread `t` will fetch (used by the
    /// validation harness to align its reference stream after warm-up).
    pub fn next_fetch_seq(&self, t: usize) -> u64 {
        self.threads[t].trace.next_fetch_seq()
    }

    /// Arms a seeded semantic mutation (mutation testing of the validation
    /// harness; see [`ChaosPlan`]). Only present under `--features chaos`.
    #[cfg(feature = "chaos")]
    pub fn enable_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(ChaosState {
            plan,
            seen: 0,
            fired: false,
            held: None,
        });
    }

    /// Queues a [`CommitEvent`] for a committing correct-path instruction.
    /// One branch when the observer is off.
    #[inline]
    fn observe_commit(&mut self, id: InstId) {
        if !self.commit_observer {
            return;
        }
        let s = self.slab.get(id);
        let ev = CommitEvent {
            thread: s.thread,
            seq: s.seq,
            inst: s.inst,
            cycle: self.now,
        };
        self.push_commit_event(ev);
    }

    #[cfg(not(feature = "chaos"))]
    #[inline]
    fn push_commit_event(&mut self, ev: CommitEvent) {
        self.commit_events.push_back(ev);
    }

    /// The chaos build routes every observer event through the armed
    /// mutation (if any): drop it, hold-and-swap it, or corrupt it.
    #[cfg(feature = "chaos")]
    fn push_commit_event(&mut self, mut ev: CommitEvent) {
        let mut emit_after: Option<CommitEvent> = None;
        if let Some(ch) = self.chaos.as_mut() {
            match ch.plan.kind {
                ChaosKind::SkipWriteback => {
                    if !ch.fired {
                        let n = ch.seen;
                        ch.seen += 1;
                        if n == ch.plan.trigger {
                            ch.fired = true;
                            return; // the event vanishes
                        }
                    }
                }
                ChaosKind::CommitOutOfOrder => {
                    if let Some(held) = ch.held.take() {
                        if held.thread == ev.thread {
                            // Emit the younger instruction first, then the
                            // held elder: a same-thread order inversion.
                            emit_after = Some(held);
                        } else {
                            ch.held = Some(held); // keep waiting
                        }
                    } else if !ch.fired {
                        let n = ch.seen;
                        ch.seen += 1;
                        if n == ch.plan.trigger {
                            ch.fired = true;
                            ch.held = Some(ev);
                            return; // emitted after the next same-thread event
                        }
                    }
                }
                ChaosKind::CorruptStoreValue => {
                    if !ch.fired && ev.inst.is_store() {
                        let n = ch.seen;
                        ch.seen += 1;
                        if n == ch.plan.trigger {
                            ch.fired = true;
                            if let Some(m) = ev.inst.mem.as_mut() {
                                m.addr ^= 0x40;
                            }
                        }
                    }
                }
                ChaosKind::DropSquash => {} // injected in squash_window_from
                ChaosKind::SkipThreadTick => {} // injected in process_events
            }
        }
        self.commit_events.push_back(ev);
        if let Some(h) = emit_after {
            self.commit_events.push_back(h);
        }
    }

    /// [`ChaosKind::DropSquash`]: the `trigger`-th squash victim (counting
    /// wrong-path instructions — a busted squash would leak those too)
    /// escapes the squash and shows up as a phantom commit event.
    #[cfg(feature = "chaos")]
    fn chaos_on_squash_victim(&mut self, id: InstId) {
        if !self.commit_observer
            || self
                .chaos
                .as_ref()
                .is_none_or(|c| c.plan.kind != ChaosKind::DropSquash || c.fired)
        {
            return;
        }
        let s = self.slab.get(id);
        let ev = CommitEvent {
            thread: s.thread,
            seq: s.seq,
            inst: s.inst,
            cycle: self.now,
        };
        let ch = self.chaos.as_mut().expect("checked above");
        let n = ch.seen;
        ch.seen += 1;
        if n == ch.plan.trigger {
            ch.fired = true;
            self.commit_events.push_back(ev);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The memory hierarchy (for cache statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Committed instruction count of thread `t`.
    pub fn committed(&self, t: usize) -> u64 {
        self.threads[t].committed
    }

    /// Shared-IQ occupancy (instruction ids currently waiting in the
    /// unordered issue queue, across all threads).
    pub fn iq_len(&self) -> usize {
        self.iq.len()
    }

    /// Structured occupancy snapshot of every thread's queues, for deadlock
    /// diagnosis (see [`crate::sim::DeadlockReport`]).
    pub fn thread_occupancy(&self) -> Vec<ThreadOccupancy> {
        self.threads
            .iter()
            .enumerate()
            .map(|(t, th)| ThreadOccupancy {
                thread: t,
                committed: th.committed,
                rob: th.rob.len(),
                lq: th.lq.len(),
                sq: th.sq.len(),
                shelf: th.shelf.len(),
                window: th.window.len(),
                frontend: th.frontend.len(),
                fetch_stalled_until: th.fetch_stalled_until,
            })
            .collect()
    }

    /// The per-thread classifier (in-sequence statistics).
    pub fn classifier(&self, t: usize) -> &Classifier {
        &self.threads[t].classifier
    }

    /// Finalizes per-thread classifier series (call once at the end of a
    /// measurement run).
    pub fn finish_classification(&mut self) {
        for t in &mut self.threads {
            t.classifier.finish();
        }
    }

    /// Mis-steer rate of thread `t` relative to the shadow oracle
    /// (meaningful under [`SteerPolicy::Practical`]).
    pub fn missteer_rate(&self, t: usize) -> f64 {
        let th = &self.threads[t];
        if th.steer_decisions == 0 {
            0.0
        } else {
            th.missteers as f64 / th.steer_decisions as f64
        }
    }

    /// Branch mispredict ratio of thread `t`.
    pub fn branch_mispredict_ratio(&self, t: usize) -> f64 {
        self.threads[t].bpred.mispredict_ratio()
    }

    /// Raw branch-predictor counters of thread `t`:
    /// `(lookups, mispredicts)`.
    pub fn bpred_counts(&self, t: usize) -> (u64, u64) {
        let b = &self.threads[t].bpred;
        (b.lookups, b.direction_mispredicts + b.target_mispredicts)
    }

    /// Count of shelf instructions that a squash had to skip because they
    /// had already committed; nonzero values indicate an SSR timing bug.
    pub fn late_shelf_commits(&self) -> u64 {
        self.threads.iter().map(|t| t.late_shelf_commits).sum()
    }

    /// Explicitly warms the caches with each thread's code and data
    /// footprint — the stand-in for the paper's 100M-instruction warm-up
    /// (cold compulsory misses would otherwise dominate short sampling
    /// windows). Warms the L2-resident data region, then code, then the
    /// L1-resident data region, leaving a realistic steady-state residency.
    /// Runs the same code as [`WarmState::new`].
    pub fn warm_caches(&mut self) {
        warm::warm_caches(&mut self.hierarchy, self.threads.iter().map(|t| &t.trace));
    }

    /// Functionally fast-forwards every thread by `insts` instructions,
    /// training the branch predictors and warming the caches without timing
    /// — the analogue of the paper's atomic-mode warm-up ("We warm
    /// microarchitectural structures for 100 million instructions"). The
    /// timed run continues from where the fast-forward stopped. Runs the
    /// same code as [`WarmState::new`].
    ///
    /// # Panics
    ///
    /// Panics once the core has ticked: warm-up instructions bypass the
    /// replay buffer, which is sound only while nothing is in flight.
    pub fn warm_functional(&mut self, insts: u64) {
        assert_eq!(self.now, 0, "functional warm-up after the first tick");
        for th in &mut self.threads {
            warm::warm_functional(&mut self.hierarchy, &mut th.trace, &mut th.bpred, insts);
        }
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self) {
        // Snapshot tracker heads for conservative same-cycle semantics.
        for t in &mut self.threads {
            t.tracker_head_snapshot = t.issue_tracker.head();
        }
        self.process_events();
        self.commit_stage();
        self.drain_store_buffers();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        // Per-cycle state decay.
        for ti in 0..self.threads.len() {
            self.threads[ti].ssr.tick();
            if self.cfg.steer == SteerPolicy::Practical {
                let (th, sb) = (&mut self.threads[ti], &self.scoreboard);
                let rat = &th.rat;
                let now = self.now;
                th.practical.tick(|reg| sb.is_ready(rat.get(reg).tag, now));
                if th.pre_issue_count > th.frontend.len() {
                    // Dispatched-but-unissued elders exist: the earliest-
                    // allowable shelf issue cannot be "now".
                    th.practical.hold_issue_floor();
                }
            }
        }
        // Occupancy integrals (the paper's premise made measurable: the
        // shelf shifts in-flight occupancy out of the OOO structures).
        let occ = self.occupancy_sample();
        let integrals = [occ.rob, occ.iq, occ.lq, occ.sq, occ.shelf, occ.prf];
        for (total, v) in self.counters.occupancy.iter_mut().zip(integrals) {
            acc(total, u64::from(v));
        }
        if let Some(tracer) = self.tracer.as_deref_mut() {
            if tracer.wants_sample(self.now) {
                tracer.sample(occ);
            }
        }
        #[cfg(feature = "sanitize")]
        self.audit_invariants();
        self.now += 1;
        acc(&mut self.counters.cycles, 1);
    }

    /// This cycle's occupancy of every structure, summed over threads, in
    /// the order of `Counters::occupancy` (plus the front-end depth).
    fn occupancy_sample(&self) -> OccupancySample {
        let mut occ = OccupancySample {
            cycle: self.now,
            iq: self.iq.len() as u32,
            prf: (self.phys_fl.capacity() - self.phys_fl.available()) as u32,
            ..OccupancySample::default()
        };
        for th in &self.threads {
            occ.rob += th.rob.len() as u32;
            occ.lq += th.lq.len() as u32;
            occ.sq += th.sq.len() as u32;
            occ.shelf += th.shelf.len() as u32;
            occ.frontend += th.frontend.len() as u32;
        }
        occ
    }

    // ------------------------------------------------------- cycle skipping

    /// Runtime toggle for event-driven cycle skipping (default on). Only
    /// [`Core::tick_bounded`] ever skips; plain [`Core::tick`] never does.
    /// Deliberately not a [`CoreConfig`] field: skipping is an engine
    /// execution strategy with no architectural effect.
    pub fn set_cycle_skipping(&mut self, on: bool) {
        self.skip.enabled = on;
    }

    /// Whether event-driven cycle skipping is enabled.
    pub fn cycle_skipping(&self) -> bool {
        self.skip.enabled
    }

    /// Cycle-skip accounting for this run (see [`SkipStats`]).
    pub fn skip_stats(&self) -> &SkipStats {
        &self.skip.stats
    }

    /// Advances the core by exactly `limit` cycles, fast-forwarding whole
    /// spans once every thread is still (see [`crate::skip`]).
    /// Bit-identical to `limit` calls of [`Core::tick`] — counters, commit
    /// stream, and trace tallies included. Returns the cycles advanced
    /// (always `limit`).
    pub fn tick_bounded(&mut self, limit: u64) -> u64 {
        if !self.skip.enabled {
            for _ in 0..limit {
                self.tick();
            }
            return limit;
        }
        let mut advanced = 0u64;
        // The open window's horizon, cached when every thread is judged
        // still. The window only walks ticks strictly before it, where by
        // definition nothing fires and no thread progresses, so every
        // `skip_horizon` term is static for the whole window and one
        // computation serves the jump-worthiness gate and the jump itself.
        let mut window: Option<(u64, SkipCause)> = None;
        while advanced < limit {
            // A horizon term due this very cycle means the coming tick is
            // not a fixed point.
            if let Some((horizon, cause)) = window.filter(|&(h, _)| h > self.now) {
                // The coming tick repeats until the horizon: one captured
                // tick supplies the per-cycle delta. A jump only repays its
                // fixed costs (counter clones, scaled replay) over a long
                // enough span — staggered per-thread fills in SMT mixes
                // open many short windows — so a shorter window is walked
                // tick by tick without re-judging.
                let will_jump = horizon - (self.now + 1) >= MIN_PARK_JUMP_SPAN;
                let pre = will_jump.then(|| (self.counters.clone(), self.hierarchy.counters()));
                self.walk_tick();
                advanced += 1;
                if self.skip.progress {
                    // A stillness judgement lied. The per-tick soundness
                    // net: fall back to walked ticks.
                    self.skip.stats.park_aborts += 1;
                    window = None;
                    continue;
                }
                let Some((pre_c, pre_m)) = pre else {
                    // Short window: the cached horizon stays valid until
                    // it arrives.
                    continue;
                };
                let rec = TickDelta {
                    delta: self.counters.diff(&pre_c),
                    mem_delta: self.hierarchy.counters().diff(&pre_m),
                    streak_bumped: self.skip.streak_bumped,
                };
                let budget = limit - advanced;
                let mut k = horizon - self.now;
                let mut cause = cause;
                if k > budget {
                    k = budget;
                    cause = SkipCause::LimitCap;
                }
                if k > 0 {
                    self.fast_forward(k, &rec, cause);
                    advanced += k;
                    self.skip.stats.park_jumps += 1;
                }
                // The jump lands on the horizon (or the budget cap): the
                // window is over either way.
                window = None;
                continue;
            }
            self.walk_tick();
            advanced += 1;
            // Only a tick in which no thread progressed can open a window.
            let still = !self.skip.progress && (0..self.threads.len()).all(|t| self.is_still(t));
            window = still.then(|| self.skip_horizon());
        }
        advanced
    }

    /// One tick under fresh per-tick progress tracking.
    fn walk_tick(&mut self) {
        self.skip.progress = false;
        self.skip.streak_bumped = 0;
        self.tick();
    }

    /// Whether thread `t` is still after a walked tick in which no thread
    /// progressed (see the [`crate::skip`] module docs). That tick already
    /// ran every stage on the current state and none of them moved, so
    /// only an input that can change with no progress and no `skip_horizon`
    /// term ahead of it is checked here. Commit, dispatch and issue inputs
    /// (completions, squashes, a full IQ, free list or store buffer, a busy
    /// FU, a lost MSHR arbitration, an unresolved source, a barrier's
    /// window) change only through progress or at a horizon term. The one
    /// dispatch head whose steering decision can still be unmemoized is
    /// one that matures at `now`, itself a horizon term due now, which
    /// opens no window. And every SSR is zero: an issuing tick arms it
    /// with at most 2, and it decays in that tick and the next.
    fn is_still(&self, t: usize) -> bool {
        let now = self.now;
        let th = &self.threads[t];

        // Fetch must stay ineligible: the fetch selector could pick this
        // thread, and a fetch attempt changes state (selector pointer,
        // I-cache, MSHRs) even when it fetches nothing.
        // (`!room` and `waiting_branch` change only through `t`'s own
        // progress: a dispatch pop, the branch's writeback.)
        let room = th.frontend.len() + self.cfg.fetch_width <= self.cfg.frontend_per_thread();
        if th.fetch_stalled_until <= now
            && room
            && (th.waiting_branch.is_none() || self.cfg.wrong_path_fetch)
        {
            return false;
        }

        // No shelf-head source may be mid-forwarding: a source whose
        // scoreboard cycle has passed but whose shelf-side arrival lands at
        // `now` or later flips readiness with no event or horizon term.
        if let Some(&sid) = th.shelf.front() {
            // The last tick's issue stage judged this (unchanged) head.
            debug_assert_eq!(th.head_blocked_id, Some(sid));
            for &tag in self.slab.get(sid).src_tags.iter().flatten() {
                let penalty = self.forward_penalty(tag, Steer::Shelf);
                let base = self.scoreboard.ready_at(tag);
                if penalty > 0 && base <= now && now <= base + penalty {
                    return false;
                }
            }
        }

        true
    }

    /// The event horizon: the earliest future cycle at which any stage's
    /// inputs can change. Conservative — an undershoot merely shortens a
    /// jump.
    /// `u64::MAX` means nothing is pending at all (a true deadlock; the
    /// caller's budget bounds the jump and the driver's watchdog, keyed on
    /// retired instructions, still diagnoses it).
    fn skip_horizon(&self) -> (u64, SkipCause) {
        // Boundary discipline: `now` is the cycle the *next* tick will
        // execute, so every term due at or after `now` (`>= now`, not
        // `> now`) must be considered. A term due exactly at `now` yields a
        // zero-length span and the skip is abandoned — dropping it instead
        // would let a later term bound the jump right over the due cycle.
        let now = self.now;
        let mut best = (u64::MAX, SkipCause::LimitCap);
        if let Some(c) = self.events.next_due(now) {
            consider(&mut best, c, SkipCause::PipeEvent);
        }
        if let Some(c) = self.ready_wheel.next_due(now) {
            consider(&mut best, c, SkipCause::ReadyWheel);
        }
        // `next_fill_after` is strictly-after, and a fill landing exactly
        // at `now` frees its MSHR for the next tick's retries.
        if let Some(c) = self.hierarchy.next_fill_after(now.saturating_sub(1)) {
            consider(&mut best, c, SkipCause::MshrFill);
        }
        // Unpipelined FUs free passively at their busy-until cycle; a ready
        // instruction blocked only on one must not wait for a later event.
        for units in &self.fu_busy {
            for &b in units {
                if b >= now {
                    consider(&mut best, b, SkipCause::FuFree);
                }
            }
        }
        for th in &self.threads {
            if th.fetch_stalled_until >= now {
                consider(&mut best, th.fetch_stalled_until, SkipCause::FetchStall);
            }
            // The frontend head matures through the fetch-to-dispatch pipe
            // at a known cycle with no scheduled event.
            if let Some(&head) = th.frontend.front() {
                let ready = self.slab.get(head).fetch_cycle + self.cfg.fetch_to_dispatch as u64;
                if ready >= now {
                    consider(&mut best, ready, SkipCause::FrontendDecode);
                }
            }
            if let Some(&(_, ready)) = th.store_buffer.front() {
                if ready >= now {
                    consider(&mut best, ready, SkipCause::StoreBuffer);
                }
            }
        }
        best
    }

    /// Fast-forwards `k` provably idle cycles, each a copy of the captured
    /// tick `rec`: counters replay scaled, decaying state replays exactly,
    /// the tracer receives the span's attribution and grid samples, and the
    /// cycle counter jumps.
    fn fast_forward(&mut self, k: u64, rec: &TickDelta, cause: SkipCause) {
        debug_assert!(k > 0);
        // Skip-path cycle arithmetic deals in multi-thousand-cycle jumps:
        // guard the addition like `counters::acc` does.
        debug_assert!(
            self.now.checked_add(k).is_some(),
            "cycle counter overflow: {} + {k}",
            self.now
        );
        let start = self.now;
        let end = start.saturating_add(k);

        // Scaled counter replay. `rec.delta.cycles == 1`, so the cycle
        // counter advances by `k` together with everything that must sum
        // to it (stall tallies, occupancy integrals).
        self.counters.add_scaled(&rec.delta, k);
        self.hierarchy.add_scaled_counters(&rec.mem_delta, k);

        // Exact replay of decaying state. SSRs need none: a window opens
        // only after a tick without issue, and every SSR is zero by then
        // (`OpClass::resolution_delay` is at most 2).
        debug_assert!(
            self.threads.iter().all(|th| th.ssr.is_quiescent()),
            "a window opened with a live SSR"
        );
        // Practical-steer tables decay per cycle and feed the next
        // dispatch's steering decision; replay them exactly. Scoreboard
        // readiness cannot flip inside the span: every `set_ready_at`
        // pairs with a pipeline event at the same cycle and the horizon
        // stops at the earliest event, so each replayed tick sees exactly
        // what the real tick would have seen.
        if self.cfg.steer == SteerPolicy::Practical {
            for ti in 0..self.threads.len() {
                let (th, sb) = (&mut self.threads[ti], &self.scoreboard);
                let hold = th.pre_issue_count > th.frontend.len();
                let rat = &th.rat;
                for i in 0..k {
                    let c = start + i;
                    th.practical.tick(|reg| sb.is_ready(rat.get(reg).tag, c));
                    if hold {
                        th.practical.hold_issue_floor();
                    }
                }
            }
        }

        // Blocked shelf heads saw their streak bumped in the captured tick;
        // the whole span repeats that.
        let bump = u32::try_from(k).unwrap_or(u32::MAX);
        for (ti, th) in self.threads.iter_mut().enumerate() {
            if rec.streak_bumped & (1 << ti) != 0 {
                th.head_blocked_streak = th.head_blocked_streak.saturating_add(bump);
            }
        }

        // Tracer: every skipped cycle repeats the captured tick's stall
        // attribution, and sampling-grid cycles inside the span record the
        // (constant) pre-skip occupancy, exactly as tick-by-tick would.
        if self.tracer.is_some() {
            let occ = self.occupancy_sample();
            let tracer = self.tracer.as_deref_mut().expect("tracer checked above");
            tracer.attribute_span(k);
            let every = tracer.sample_period();
            let mut c = start.next_multiple_of(every);
            while c < end {
                tracer.sample(OccupancySample { cycle: c, ..occ });
                let Some(next) = c.checked_add(every) else {
                    break;
                };
                c = next;
            }
        }

        self.now = end;
        self.skip.stats.skipped_cycles += k;
        self.skip.stats.spans += 1;
        self.skip.stats.by_cause[cause as usize] += k;
    }

    // ---------------------------------------------------------------- fetch

    fn fetch_stage(&mut self) {
        let mut counts = std::mem::take(&mut self.scratch_counts);
        let mut eligible = std::mem::take(&mut self.scratch_eligible);
        counts.clear();
        eligible.clear();
        for t in &self.threads {
            counts.push(t.pre_issue_count);
            let room = t.frontend.len() + self.cfg.fetch_width <= self.cfg.frontend_per_thread();
            let stalled = t.fetch_stalled_until > self.now;
            let wrong_path_ok = t.waiting_branch.is_none() || self.cfg.wrong_path_fetch;
            eligible.push(room && !stalled && wrong_path_ok);
        }
        let selected = self.icount.select(&counts, &eligible);
        self.scratch_counts = counts;
        self.scratch_eligible = eligible;
        let Some(t) = selected else {
            return;
        };
        if self.threads[t].waiting_branch.is_some() {
            self.fetch_wrong_path(t);
        } else {
            self.fetch_trace(t);
        }
    }

    fn fetch_trace(&mut self, t: usize) {
        let block_mask = !(self.cfg.hierarchy.l1i.block_bytes as u64 - 1);
        let l1_lat = self.cfg.hierarchy.l1i.latency as u64;
        let mut fetched = 0;
        // The I-cache block the group is currently streaming from. A fetch
        // group probes the I-cache once per block it touches: a group that
        // crosses a block boundary (or is redirected across one) must be
        // able to miss — and allocate an MSHR — on the second block too.
        let mut cur_block: Option<u64> = None;
        while fetched < self.cfg.fetch_width {
            let (seq, inst) = self.threads[t].trace.fetch();
            if cur_block != Some(inst.pc & block_mask) {
                match self.hierarchy.access_inst(inst.pc, self.now) {
                    Ok(acc) => {
                        if acc.complete_cycle > self.now + l1_lat {
                            // I-miss: stall fetch until the fill and replay
                            // this instruction then. Earlier instructions of
                            // the group (from already-resident blocks) keep
                            // their fetch.
                            self.threads[t].fetch_stalled_until = acc.complete_cycle;
                            self.threads[t].trace.rewind_to(seq);
                            return;
                        }
                    }
                    Err(_) => {
                        // No MSHR: retry next cycle.
                        self.threads[t].trace.rewind_to(seq);
                        return;
                    }
                }
                cur_block = Some(inst.pc & block_mask);
            }
            let mut slot = Slot::new(t, seq, inst, self.now);
            let mut stop_group = false;
            if inst.is_branch() {
                let br = inst.branch.expect("branches carry branch info");
                let pred = self.threads[t].bpred.predict(inst.pc, br.is_return);
                self.counters.bpred_lookups += 1;
                // The effective prediction: a taken direction without a
                // known target cannot redirect fetch, so it acts not-taken.
                let effective = shelfsim_uarch::Prediction {
                    taken: pred.taken && pred.target.is_some(),
                    ..pred
                };
                slot.prediction = Some(effective);
                // Mispredict: wrong direction, or taken with wrong/unknown
                // target.
                let dir_wrong = effective.taken != br.taken;
                let tgt_wrong = br.taken && effective.target != Some(br.next_pc);
                slot.mispredicted = dir_wrong || tgt_wrong;
                stop_group = effective.taken || slot.mispredicted;
            }
            let mispred = slot.mispredicted;
            let id = self.slab.insert(slot);
            self.skip.note_progress();
            self.threads[t].frontend.push_back(id);
            self.threads[t].pre_issue_count += 1;
            acc(&mut self.counters.fetched, 1);
            fetched += 1;
            if mispred {
                self.threads[t].waiting_branch = Some(id);
            }
            if stop_group {
                break;
            }
        }
    }

    fn fetch_wrong_path(&mut self, t: usize) {
        for _ in 0..self.cfg.fetch_width {
            let inst = self.synth_wrong_path_inst(t);
            let mut slot = Slot::new(t, u64::MAX, inst, self.now);
            slot.wrong_path = true;
            let id = self.slab.insert(slot);
            self.skip.note_progress();
            self.threads[t].frontend.push_back(id);
            self.threads[t].pre_issue_count += 1;
            acc(&mut self.counters.fetched, 1);
            self.counters.wrong_path_fetched += 1;
        }
    }

    fn synth_wrong_path_inst(&mut self, t: usize) -> DynInst {
        let rng = &mut self.threads[t].wrong_path_rng;
        let roll: f64 = rng.gen();
        let pc = 0x70_0000 + ((t as u64) << 36);
        if roll < 0.25 {
            let addr = 0x1000_0000 + ((t as u64) << 36) + (rng.gen_range(0u64..(1 << 20)) & !7);
            DynInst::load(
                ArchReg::int(rng.gen_range(8..24)),
                ArchReg::int(rng.gen_range(0..8)),
                MemInfo::new(addr, 8),
            )
            .at(pc)
        } else {
            let dest = ArchReg::int(rng.gen_range(8..24));
            let s1 = ArchReg::int(rng.gen_range(0..24));
            let s2 = ArchReg::int(rng.gen_range(0..24));
            DynInst::alu(OpClass::IntAlu, dest, &[s1, s2]).at(pc)
        }
    }

    // ------------------------------------------------------------- dispatch

    fn dispatch_stage(&mut self) {
        let n = self.threads.len();
        let mut budget = self.cfg.dispatch_width;
        // Per-thread blocked flags as a bitmask (`validate` caps threads at
        // 8, so `u64` is never too narrow), plus the structural cause each
        // blocked thread hit (read only when tracing is on).
        let mut blocked = 0u64;
        let mut progress_mask = 0u64;
        let mut stall_cause = [StallCause::Empty; 8];
        'outer: while budget > 0 {
            // Round-robin over threads with a dispatchable head.
            let mut progressed = false;
            for (t, cause_slot) in stall_cause.iter_mut().enumerate().take(n) {
                if budget == 0 {
                    break 'outer;
                }
                if blocked & (1 << t) != 0 {
                    continue;
                }
                let Some(&head) = self.threads[t].frontend.front() else {
                    continue;
                };
                let ready_cycle =
                    self.slab.get(head).fetch_cycle + self.cfg.fetch_to_dispatch as u64;
                if ready_cycle > self.now {
                    continue;
                }
                match self.try_dispatch(t, head) {
                    DispatchOutcome::Dispatched => {
                        self.threads[t].frontend.pop_front();
                        self.skip.note_progress();
                        budget -= 1;
                        progressed = true;
                        progress_mask |= 1 << t;
                    }
                    DispatchOutcome::Stalled(cause) => {
                        *cause_slot = cause;
                        blocked |= 1 << t;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if let Some(tracer) = self.tracer.as_deref_mut() {
            for (t, &cause_hit) in stall_cause.iter().enumerate().take(n) {
                let cause = if progress_mask & (1 << t) != 0 {
                    StallCause::Progress
                } else if blocked & (1 << t) != 0 {
                    cause_hit
                } else if let Some(&head) = self.threads[t].frontend.front() {
                    if self.slab.get(head).fetch_cycle + self.cfg.fetch_to_dispatch as u64
                        > self.now
                    {
                        StallCause::NotReady
                    } else {
                        // A dispatchable, unblocked head left unserved means
                        // the dispatch width went to other threads.
                        StallCause::WidthLimited
                    }
                } else {
                    StallCause::Empty
                };
                tracer.attribute_dispatch(t, cause);
            }
        }
    }

    fn try_dispatch(&mut self, t: usize, id: InstId) -> DispatchOutcome {
        let inst = self.slab.get(id).inst;
        let wrong_path = self.slab.get(id).wrong_path;

        // Memory barriers serialize at dispatch (§III-D).
        if inst.op == OpClass::MemBarrier
            && !(self.threads[t].window.is_empty() && self.threads[t].store_buffer.is_empty())
        {
            self.counters.stalls.barrier += 1;
            return DispatchOutcome::Stalled(StallCause::Barrier);
        }

        // ---- steering decision (decode-stage information only) ----
        // Memoized at the first dispatch attempt: the prediction tables
        // (RCT, PLT, shadow oracle) are consulted and updated exactly once
        // per instruction. A head blocked on resources retries dispatch
        // every cycle; re-deciding on each retry would re-mutate predictor
        // state — in particular, `PracticalSteer::decide` samples a fresh
        // PLT column per call, so retries leaked columns until the head
        // finally dispatched.
        let (steer, plt_col) = match self.slab.get(id).steer_memo {
            Some(d) => d,
            None => {
                let d = self.decide_steer(t, &inst, wrong_path);
                self.slab.get_mut(id).steer_memo = Some(d);
                d
            }
        };

        // ---- resource checks (no mutation before all pass) ----
        let th = &self.threads[t];
        match steer {
            Steer::Iq => {
                if self.iq.len() >= self.cfg.iq_entries {
                    self.counters.stalls.iq_full += 1;
                    return DispatchOutcome::Stalled(StallCause::IqFull);
                }
                if th.rob.is_full() {
                    self.counters.stalls.rob_full += 1;
                    return DispatchOutcome::Stalled(StallCause::RobFull);
                }
                if inst.is_load() && th.lq.is_full() {
                    self.counters.stalls.lq_full += 1;
                    return DispatchOutcome::Stalled(StallCause::LsqFull);
                }
                if inst.is_store() && th.sq.is_full() {
                    self.counters.stalls.sq_full += 1;
                    return DispatchOutcome::Stalled(StallCause::LsqFull);
                }
                if inst.dest.is_some() && self.phys_fl.is_empty() {
                    self.counters.stalls.no_phys_reg += 1;
                    return DispatchOutcome::Stalled(StallCause::NoRename);
                }
            }
            Steer::Shelf => {
                if th.shelf.len() >= th.shelf_capacity {
                    self.counters.stalls.shelf_full += 1;
                    return DispatchOutcome::Stalled(StallCause::ShelfFull);
                }
                // TSO: the store buffer may not coalesce, so shelf stores
                // need real SQ entries (§III-D).
                if self.cfg.memory_model == MemoryModel::Tso && inst.is_store() && th.sq.is_full() {
                    self.counters.stalls.sq_full += 1;
                    return DispatchOutcome::Stalled(StallCause::LsqFull);
                }
                if th.shelf_next_idx - th.shelf_retire_ptr
                    >= th.shelf_index_space(self.cfg.narrow_shelf_index)
                {
                    self.counters.stalls.shelf_index_full += 1;
                    return DispatchOutcome::Stalled(StallCause::ShelfFull);
                }
                if inst.dest.is_some() && self.ext_fl.is_empty() {
                    self.counters.stalls.no_ext_tag += 1;
                    return DispatchOutcome::Stalled(StallCause::NoRename);
                }
            }
        }

        // ---- rename ----
        let age = self.next_age;
        self.next_age += 1;
        let th = &mut self.threads[t];
        let mut src_tags = [None, None];
        for (i, src) in inst.srcs.iter().enumerate() {
            if let Some(r) = src {
                src_tags[i] = Some(th.rat.get(*r).tag);
                self.counters.rat_reads += 1;
                self.counters.prf_reads += 1;
            }
        }
        let (dest_pri, dest_tag, prev_mapping) = match (steer, inst.dest) {
            (_, None) => (None, None, None),
            (Steer::Iq, Some(d)) => {
                let p = PhysReg(self.phys_fl.allocate().expect("checked above"));
                self.counters.freelist_ops += 1;
                let prev = th.rat.set(
                    d,
                    Mapping {
                        pri: p,
                        tag: p.as_tag(),
                    },
                );
                self.counters.rat_reads += 1;
                self.counters.rat_writes += 1;
                self.scoreboard.mark_pending(p.as_tag());
                (Some(p), Some(p.as_tag()), Some(prev))
            }
            (Steer::Shelf, Some(d)) => {
                let tag = Tag(self.ext_fl.allocate().expect("checked above"));
                self.counters.ext_freelist_ops += 1;
                let prev = th.rat.get(d);
                th.rat.set(d, Mapping { pri: prev.pri, tag });
                self.counters.rat_reads += 1;
                self.counters.rat_writes += 1;
                self.scoreboard.mark_pending(tag);
                (Some(prev.pri), Some(tag), Some(prev))
            }
        };

        // ---- structure allocation ----
        self.slab.set_age(id, age);
        self.slab.set_stage(id, Stage::Dispatched);
        let slot = self.slab.get_mut(id);
        slot.steer = steer;
        slot.dispatch_cycle = self.now;
        slot.src_tags = src_tags;
        slot.dest_pri = dest_pri;
        slot.dest_tag = dest_tag;
        slot.prev_mapping = prev_mapping;
        slot.plt_column = plt_col;

        let th = &mut self.threads[t];
        match steer {
            Steer::Iq => {
                let rob_idx = th.rob.push(id).expect("checked above");
                th.issue_tracker.dispatch(rob_idx);
                self.counters.rob_writes += 1;
                let slot = self.slab.get_mut(id);
                slot.rob_idx = Some(rob_idx);
                slot.shelf_squash_idx = th.shelf_next_idx;
                if inst.is_load() {
                    let lq_idx = th.lq.push(id).expect("checked above");
                    self.slab.get_mut(id).lq_idx = Some(lq_idx);
                    self.counters.lq_writes += 1;
                }
                if inst.is_store() {
                    let sq_idx = th.sq.push(id).expect("checked above");
                    self.slab.get_mut(id).sq_idx = Some(sq_idx);
                    self.counters.sq_writes += 1;
                }
                self.slab.get_mut(id).iq_pos = self.iq.len() as u32;
                self.iq.push(id);
                self.counters.iq_writes += 1;
                // Wakeup-CAM registration: remember which source tags are
                // still outstanding so each broadcast touches only entries
                // actually waiting on a source, and pre-fold the ready
                // cycles of sources that already broadcast.
                let mut pending = 0u8;
                let mut ready_cycle = 0u64;
                for tag in src_tags.iter().flatten() {
                    let at = self.scoreboard.ready_at(*tag);
                    if at == Scoreboard::PENDING {
                        self.tag_consumers[tag.index()].push((id, age));
                        pending += 1;
                    } else {
                        ready_cycle = ready_cycle.max(at + self.forward_penalty(*tag, Steer::Iq));
                    }
                }
                let slot = self.slab.get_mut(id);
                slot.data_ready_cycle = ready_cycle;
                if pending > 0 {
                    slot.pending_srcs = pending;
                    self.iq_waiting += 1;
                } else {
                    // All sources already broadcast: the ready cycle is
                    // final, so schedule the entry for the select scan now
                    // (`push` clamps past cycles to `now + 1`; issue runs
                    // before dispatch, so this cycle's scan is over).
                    self.ready_wheel.push(
                        self.now,
                        Event {
                            cycle: ready_cycle,
                            age,
                            id,
                        },
                    );
                }
            }
            Steer::Shelf => {
                let shelf_idx = th.shelf_next_idx;
                th.shelf_next_idx += 1;
                th.shelf_retired.push_back(false);
                th.shelf.push_back(id);
                self.counters.shelf_writes += 1;
                let first_of_run = th.last_steer != Some(Steer::Shelf);
                let slot = self.slab.get_mut(id);
                slot.shelf_idx = Some(shelf_idx);
                slot.iq_barrier = th.issue_tracker.next_index();
                slot.first_of_run = first_of_run;
                slot.lq_tail_at_dispatch = th.lq.next_index();
                slot.sq_tail_at_dispatch = th.sq.next_index();
                if self.cfg.memory_model == MemoryModel::Tso && inst.is_store() {
                    let sq_idx = th.sq.push(id).expect("checked above");
                    self.slab.get_mut(id).sq_idx = Some(sq_idx);
                    self.counters.sq_writes += 1;
                }
            }
        }
        let th = &mut self.threads[t];
        th.last_steer = Some(steer);
        th.window.push_back(id);

        if inst.is_store() {
            th.store_sets.store_dispatched(inst.pc, age);
            th.inflight_stores.push_back((age, id));
        }

        // Classification shadow (all dispatched instructions participate so
        // tracker indices stay consecutive; wrong-path entries are squashed
        // before any younger real instruction dispatches).
        let cidx = th.classifier.dispatch();
        self.slab.get_mut(id).classify_idx = cidx;

        acc(&mut self.counters.dispatched, 1);
        if steer == Steer::Shelf {
            self.counters.dispatched_shelf += 1;
        }
        DispatchOutcome::Dispatched
    }

    fn decide_steer(&mut self, t: usize, inst: &DynInst, _wrong_path: bool) -> (Steer, Option<u8>) {
        if self.cfg.shelf_entries == 0 {
            return (Steer::Iq, None);
        }
        match self.cfg.steer {
            SteerPolicy::AlwaysIq => (Steer::Iq, None),
            SteerPolicy::AlwaysShelf => (Steer::Shelf, None),
            SteerPolicy::Practical => {
                let load_lat = self.peek_load_latency(inst);
                let throttled = self.threads[t].head_blocked_streak > HEAD_THROTTLE_CYCLES;
                let (scoreboard, now) = (&self.scoreboard, self.now);
                let th = &mut self.threads[t];
                let rat = &th.rat;
                let (mut steer, col) = th.practical.decide(
                    inst,
                    |reg| !scoreboard.is_ready(rat.get(reg).tag, now),
                    &mut self.counters,
                );
                // Adaptive throttle: a shelf head stuck on data for a long
                // stretch means the predicted schedule has collapsed for
                // this thread; stop feeding the shelf until it drains (the
                // paper's sanctioned escape hatch for pathological phases).
                if throttled {
                    steer = Steer::Iq;
                }
                let shadow = th.shadow_oracle.decide(self.now, inst, load_lat);
                th.steer_decisions += 1;
                if shadow != steer {
                    th.missteers += 1;
                }
                (steer, col)
            }
            SteerPolicy::Oracle => {
                let load_lat = self.peek_load_latency(inst);
                let throttled = self.threads[t].head_blocked_streak > HEAD_THROTTLE_CYCLES;
                let th = &mut self.threads[t];
                let mut steer = th.oracle.decide(self.now, inst, load_lat);
                if throttled {
                    steer = Steer::Iq;
                }
                th.steer_decisions += 1;
                (steer, None)
            }
        }
    }

    fn peek_load_latency(&self, inst: &DynInst) -> u32 {
        if let (true, Some(mem)) = (inst.is_load(), inst.mem) {
            self.hierarchy
                .latency_of(self.hierarchy.peek_data(mem.addr))
        } else {
            2
        }
    }

    // ---------------------------------------------------------------- issue

    fn issue_stage(&mut self) {
        // SSR run-copy pre-pass: when the first shelf instruction of a run
        // becomes order-eligible at the shelf head, snapshot IQ SSR -> shelf
        // SSR (§III-B). Uses the same head view as eligibility below.
        self.refresh_ssr_copies();

        // Judge every shelf head once. The first failing check feeds the
        // diagnostic stall buckets, the tracer's issue-side cause and the
        // head-blocked streak that drives the adaptive shelf throttle (the
        // paper's "disable by steering to the IQ" escape); a clear head is
        // the thread's shelf candidate. Every input of `shelf_hazard` is
        // per-cycle-stable or owned by the issuing thread (tracker head,
        // SSR copy, shelf front, in-flight loads), so only the thread that
        // issued is re-judged below; FU availability, the one global
        // input, is checked at pick time.
        let nthreads = self.threads.len();
        let mut head_cause: [Option<StallCause>; 8] = [None; 8];
        let mut shelf_cand: [Option<(u64, InstId)>; 8] = [None; 8];
        for t in 0..nthreads {
            let head = self.threads[t].shelf.front().copied();
            if head != self.threads[t].head_blocked_id {
                self.threads[t].head_blocked_id = head;
                self.threads[t].head_blocked_streak = 0;
            }
            let Some(id) = head else { continue };
            let hazard = self.shelf_hazard(t, id);
            let stall = match hazard {
                Some(ShelfHazard::Order) => Some((0, StallCause::ShelfHeadBlocked)),
                Some(ShelfHazard::Ssr) => Some((1, StallCause::ShelfHeadBlocked)),
                Some(ShelfHazard::Raw) => {
                    self.threads[t].head_blocked_streak += 1;
                    self.skip.streak_bumped |= 1 << t;
                    Some((2, StallCause::ShelfHeadBlocked))
                }
                // A source still in flight from the IQ cluster has not
                // arrived yet either, but it does not feed the throttle.
                Some(ShelfHazard::ForwardPenalty) => Some((2, StallCause::ShelfHeadBlocked)),
                Some(ShelfHazard::Waw) => Some((3, StallCause::ShelfHeadBlocked)),
                Some(ShelfHazard::StoreSet | ShelfHazard::ElderLoad) => {
                    Some((4, StallCause::ShelfHeadBlocked))
                }
                Some(ShelfHazard::StoreBuffer) => Some((4, StallCause::FuBusy)),
                None => {
                    let kind = self.slab.get(id).inst.op.fu_kind();
                    (!self.fu_available(kind)).then_some((4, StallCause::FuBusy))
                }
            };
            if let Some((bucket, cause)) = stall {
                self.counters.shelf_head_stalls[bucket] += 1;
                head_cause[t] = Some(cause);
            }
            shelf_cand[t] = hazard.is_none().then(|| (self.slab.age(id), id));
        }

        let mut budget = self.cfg.issue_width;
        // Which threads issued / lost MSHR arbitration this cycle, for the
        // tracer's issue-side attribution (maintaining the masks is two
        // register ops; they are read only when tracing is on).
        let mut issued_mask = 0u64;
        let mut mshr_mask = 0u64;
        // Source readiness cannot change mid-cycle (broadcasts announce
        // future ready cycles), so data-ready IQ candidates arrive through
        // the ready wheel at their (final) ready cycle and stay in the pool
        // until they issue or vanish; only the per-pick structural
        // checks (FU, store sets) re-run inside the selection loop. The
        // pool is compacted and re-sorted each cycle — it holds only ready-
        // but-unissued entries, a small set the full IQ scan used to
        // rediscover from scratch.
        let mut ready = std::mem::take(&mut self.ready_pool);
        self.ready_wheel.drain_due(self.now, &mut ready);
        ready.retain(|&(age, id)| {
            self.slab.live_with_age(id, age) && self.slab.stage(id) == Stage::Dispatched
        });
        ready.sort_unstable();
        // Loads that lost MSHR arbitration this cycle; they stay ineligible
        // until next cycle but must not block independent instructions.
        let mut mshr_losers = std::mem::take(&mut self.scratch_mshr_losers);
        mshr_losers.clear();
        // Cursor into the age-sorted pool: every condition that skips an
        // entry is sticky for the rest of the cycle (issued entries leave
        // `Stage::Dispatched`, FU counts only fall until the next
        // `process_events`, store-set membership changes only at writeback,
        // MSHR losers stay sidelined), so entries the scan rejects once
        // never need re-examining and each pick resumes where the last one
        // stopped instead of rescanning from the front.
        let mut iq_cursor = 0usize;
        while budget > 0 {
            // Oldest-first selection across the IQ and all shelf heads.
            let mut best: Option<(u64, InstId, Steer)> = None;
            while let Some(&(age, id)) = ready.get(iq_cursor) {
                // Already issued this cycle, or sidelined.
                if self.slab.stage(id) != Stage::Dispatched || mshr_losers.contains(&id) {
                    iq_cursor += 1;
                    continue;
                }
                let slot = self.slab.get(id);
                if !self.fu_available(slot.inst.op.fu_kind()) {
                    iq_cursor += 1;
                    continue;
                }
                if slot.inst.is_load() && !self.store_set_clear(id, slot) {
                    iq_cursor += 1;
                    continue;
                }
                // The pool is age-sorted: the first survivor is the oldest.
                // Leave the cursor on it — if a shelf head outranks it this
                // pick, it is still the IQ-side candidate for the next one.
                best = Some((age, id, Steer::Iq));
                break;
            }
            for cand in shelf_cand.iter().take(nthreads) {
                let Some((age, id)) = *cand else { continue };
                if mshr_losers.contains(&id) {
                    continue;
                }
                if !self.fu_available(self.slab.get(id).inst.op.fu_kind()) {
                    continue;
                }
                if best.is_none_or(|(a, _, _)| age < a) {
                    best = Some((age, id, Steer::Shelf));
                }
            }
            let Some((_, id, steer)) = best else { break };
            let issued_thread = self.slab.get(id).thread;
            if self.do_issue(id, steer) {
                self.skip.note_progress();
                budget -= 1;
                issued_mask |= 1 << issued_thread;
                // Issuing advances only the issuing thread's state (tracker
                // head or shelf front): under optimistic same-cycle
                // semantics that thread's shelf run can become
                // order-eligible mid-cycle, and its SSR copy happens
                // combinationally at that moment (§III-B), not next cycle.
                if self.cfg.same_cycle_shelf_issue {
                    self.refresh_ssr_copy(issued_thread);
                }
                shelf_cand[issued_thread] = self.threads[issued_thread]
                    .shelf
                    .front()
                    .copied()
                    .filter(|&id| self.shelf_hazard(issued_thread, id).is_none())
                    .map(|id| (self.slab.age(id), id));
            } else {
                // The candidate lost MSHR arbitration: sideline it for the
                // rest of the cycle and keep selecting. Load ordering is
                // enforced by store sets and the violation scan, not by
                // stalling the whole issue stage.
                mshr_losers.push(id);
                mshr_mask |= 1 << issued_thread;
            }
        }
        if self.tracer.is_some() {
            // Issue-side stall attribution: one cause per thread per cycle,
            // by fixed priority. Runs only with tracing on; the pool scans
            // below are off the untraced hot path.
            let mut attr = [StallCause::Empty; 8];
            for (t, a) in attr.iter_mut().enumerate().take(nthreads) {
                *a = if issued_mask & (1 << t) != 0 {
                    StallCause::Progress
                } else if mshr_mask & (1 << t) != 0 {
                    StallCause::NoMshr
                } else if let Some(c) = head_cause[t] {
                    c
                } else if shelf_cand[t].is_some()
                    || ready.iter().any(|&(_, id)| {
                        self.slab.get(id).thread == t && self.slab.stage(id) == Stage::Dispatched
                    })
                {
                    // Data-ready work existed but lost arbitration: to the
                    // issue width if it ran out, else to FU availability.
                    if budget == 0 {
                        StallCause::WidthLimited
                    } else {
                        StallCause::FuBusy
                    }
                } else if self.threads[t].pre_issue_count > self.threads[t].frontend.len() {
                    // Dispatched-but-unissued instructions exist, none
                    // data-ready.
                    StallCause::DataWait
                } else {
                    StallCause::Empty
                };
            }
            let tracer = self.tracer.as_deref_mut().expect("tracer checked above");
            for (t, &cause) in attr.iter().enumerate().take(nthreads) {
                tracer.attribute_issue(t, cause);
            }
        }
        self.ready_pool = ready;
        self.scratch_mshr_losers = mshr_losers;
    }

    /// Snapshots IQ SSR -> shelf SSR for every shelf head whose run just
    /// became order-eligible (paper §III-B run-copy).
    fn refresh_ssr_copies(&mut self) {
        for t in 0..self.threads.len() {
            self.refresh_ssr_copy(t);
        }
    }

    /// Per-thread run-copy check (issues only perturb the issuing thread's
    /// shelf head, so mid-cycle refreshes need not walk every thread).
    fn refresh_ssr_copy(&mut self, t: usize) {
        let head_view = self.tracker_head_view(t);
        let th = &mut self.threads[t];
        if let Some(&head_id) = th.shelf.front() {
            let slot = self.slab.get_mut(head_id);
            if slot.first_of_run && !slot.ssr_copied && head_view >= slot.iq_barrier {
                slot.ssr_copied = true;
                th.ssr.copy_to_shelf();
            }
        }
    }

    /// The issue-tracking head visible to shelf eligibility this cycle:
    /// live (optimistic, same-cycle bypass) or the start-of-cycle snapshot
    /// (conservative; §III-A critical-path discussion).
    fn tracker_head_view(&self, t: usize) -> u64 {
        if self.cfg.same_cycle_shelf_issue {
            self.threads[t].issue_tracker.head()
        } else {
            self.threads[t].tracker_head_snapshot
        }
    }

    /// The cross-cluster forwarding penalty (§VI) a `consumer` in one
    /// queue's cluster pays for `tag`: a value produced in the other
    /// cluster (latched at its producer's issue) arrives
    /// `cluster_forward_penalty` cycles after its scoreboard ready cycle.
    fn forward_penalty(&self, tag: Tag, consumer: Steer) -> u64 {
        if self.cfg.cluster_forward_penalty > 0 && self.tag_cluster[tag.index()] != consumer {
            self.cfg.cluster_forward_penalty as u64
        } else {
            0
        }
    }

    /// O(1) issue-queue removal via the cached backing-vector position:
    /// swap-remove the entry and re-point the element that moved into the
    /// vacated slot. Entries are position-tracked from dispatch, so neither
    /// issue nor squash needs a linear scan of the IQ.
    fn iq_remove(&mut self, id: InstId) {
        let pos = self.slab.get(id).iq_pos as usize;
        debug_assert_eq!(self.iq[pos], id);
        self.iq.swap_remove(pos);
        if let Some(&moved) = self.iq.get(pos) {
            self.slab.get_mut(moved).iq_pos = pos as u32;
        }
    }

    /// Reference recomputation of IQ source readiness (sanitizer
    /// cross-check for the incrementally maintained `data_ready_cycle`).
    #[cfg(feature = "sanitize")]
    fn iq_srcs_ready(&self, slot: &Slot) -> bool {
        slot.src_tags.iter().flatten().all(|&tag| {
            let base = self.scoreboard.ready_at(tag);
            base != Scoreboard::PENDING && base + self.forward_penalty(tag, Steer::Iq) <= self.now
        })
    }

    /// The first check that keeps thread `t`'s shelf head `id` from
    /// issuing, in a fixed order; `None` when it passes every check except
    /// FU availability, the one global input (tested at pick time).
    fn shelf_hazard(&self, t: usize, id: InstId) -> Option<ShelfHazard> {
        let th = &self.threads[t];
        let slot = self.slab.get(id);
        let now = self.now;
        // In-order issue across queues: all elder IQ instructions of the
        // run must have issued (§III-A).
        if self.tracker_head_view(t) < slot.iq_barrier {
            return Some(ShelfHazard::Order);
        }
        // Speculation: writeback must land past the shelf SSR (§III-B).
        if !th.ssr.shelf_allows(min_writeback_latency(slot.inst.op)) {
            return Some(ShelfHazard::Ssr);
        }
        // Data hazards via the scoreboard: RAW on sources, WAW on the
        // previous writer of the shared destination register (§III-C).
        let mut srcs = slot.src_tags.iter().flatten().copied();
        if srcs.any(|tag| !self.scoreboard.is_ready(tag, now)) {
            return Some(ShelfHazard::Raw);
        }
        if slot
            .prev_mapping
            .is_some_and(|p| !self.scoreboard.is_ready(p.tag, now))
        {
            return Some(ShelfHazard::Waw);
        }
        // Structural: a load's elder same-set stores must have executed,
        // and a shelf store writes straight into the store buffer at
        // writeback.
        if slot.inst.is_load() && !self.store_set_clear(id, slot) {
            return Some(ShelfHazard::StoreSet);
        }
        if slot.inst.is_store() && th.store_buffer.len() >= self.cfg.store_buffer_entries {
            return Some(ShelfHazard::StoreBuffer);
        }
        // TSO (§III-D): loads are speculative until all elder loads have
        // completed, and so is every shelf instruction behind them — hold
        // the head while any elder load is in flight.
        if self.cfg.memory_model == MemoryModel::Tso
            && th
                .inflight_loads
                .first()
                .is_some_and(|&oldest| oldest < self.slab.age(id))
        {
            return Some(ShelfHazard::ElderLoad);
        }
        // Every source's ready cycle has passed; one produced in the IQ
        // cluster may still be in flight to the shelf.
        let mut srcs = slot.src_tags.iter().flatten().copied();
        if srcs.any(|tag| {
            self.scoreboard.ready_at(tag) + self.forward_penalty(tag, Steer::Shelf) > now
        }) {
            return Some(ShelfHazard::ForwardPenalty);
        }
        None
    }

    fn store_set_clear(&self, id: InstId, slot: &Slot) -> bool {
        let th = &self.threads[slot.thread];
        let Some(set) = th.store_sets.set_of(slot.inst.pc) else {
            return true;
        };
        if th.store_sets.load_dependence(slot.inst.pc).is_none() {
            return true;
        }
        // The load belongs to a set with in-flight stores: wait until every
        // *older* store of the set has executed. (The LFST names only the
        // youngest store; hardware orders same-set stores in a chain, which
        // implies this condition.) The list is age-sorted, so the scan stops
        // at the load's own age.
        let load_age = self.slab.age(id);
        for &(age, sid) in &th.inflight_stores {
            if age >= load_age {
                break;
            }
            if !self.slab.get(sid).mem_executed
                && !self.slab.is_squashed(sid)
                && th.store_sets.set_of(self.slab.get(sid).inst.pc) == Some(set)
            {
                return false;
            }
        }
        true
    }

    /// Delivers a broadcast of `tag` to its registered IQ consumers,
    /// clearing their pending-source counts. Stale registrations (squashed
    /// consumers, possibly with a recycled id) fail the age/stage checks
    /// and are dropped.
    fn drain_tag_consumers(&mut self, tag: Tag, ready_at: u64) {
        let effective = ready_at + self.forward_penalty(tag, Steer::Iq);
        let mut consumers = std::mem::take(&mut self.tag_consumers[tag.index()]);
        for (cid, cage) in consumers.drain(..) {
            if !self.slab.live_with_age(cid, cage) || self.slab.stage(cid) != Stage::Dispatched {
                continue;
            }
            let s = self.slab.get_mut(cid);
            if s.pending_srcs == 0 {
                continue;
            }
            s.pending_srcs -= 1;
            s.data_ready_cycle = s.data_ready_cycle.max(effective);
            if s.pending_srcs == 0 {
                let ready_cycle = s.data_ready_cycle;
                self.iq_waiting -= 1;
                // Last outstanding source: the ready cycle is now final,
                // so the entry can be scheduled for the select scan.
                self.ready_wheel.push(
                    self.now,
                    Event {
                        cycle: ready_cycle,
                        age: cage,
                        id: cid,
                    },
                );
            }
        }
        // Hand the (now empty) buffer back so its allocation is reused.
        self.tag_consumers[tag.index()] = consumers;
    }

    fn fu_available(&self, kind: FuKind) -> bool {
        self.fu_busy[kind.index()].iter().any(|&b| b <= self.now)
    }

    fn fu_allocate(&mut self, kind: FuKind, busy_until: u64) {
        let unit = self.fu_busy[kind.index()]
            .iter_mut()
            .find(|b| **b <= self.now)
            .expect("availability checked");
        *unit = busy_until;
        self.counters.fu_ops[kind.index()] += 1;
    }

    /// Issues `id`; returns false if the issue had to be aborted (MSHR
    /// full) with no state modified.
    fn do_issue(&mut self, id: InstId, steer: Steer) -> bool {
        let (t, inst) = {
            let s = self.slab.get(id);
            (s.thread, s.inst)
        };
        let age = self.slab.age(id);

        // Memory timing is resolved first because it can fail (MSHR full).
        let mem_outcome = if inst.is_load() {
            match self.load_data_ready_cycle(id, &inst) {
                Some(o) => Some(o),
                None => {
                    self.counters.mshr_stalls += 1;
                    return false;
                }
            }
        } else {
            None
        };

        // ---- commit to issuing ----
        let now = self.now;
        let op = inst.op;
        let fu_busy_until = if op.pipelined() {
            now + 1
        } else {
            now + op.latency() as u64
        };
        self.fu_allocate(op.fu_kind(), fu_busy_until);

        let complete = match (op, &mem_outcome) {
            (OpClass::Load, Some((ready, _, _))) => *ready,
            (OpClass::Store, _) => now + 1,
            _ => now + op.latency() as u64,
        };

        {
            self.slab.set_stage(id, Stage::Issued);
            let slot = self.slab.get_mut(id);
            slot.issue_cycle = now;
            slot.complete_cycle = complete;
            if let Some((_, level, forwarded)) = mem_outcome {
                slot.mem_level = level;
                slot.forwarded_from = forwarded;
            }
            // Loads are visible to violation scans from issue; stores'
            // addresses become visible at writeback (store_executed).
            if inst.is_load() {
                slot.mem_executed = true;
            }
        }

        // Wakeup: consumers may issue at `complete` (non-speculative load
        // wakeup — completion is known at issue in this model, which is
        // timing-equivalent to waking on data return).
        if let Some(tag) = self.slab.get(id).dest_tag {
            self.scoreboard.set_ready_at(tag, complete);
            self.tag_cluster[tag.index()] = steer;
            // The wakeup CAM compares only IQ entries still waiting on at
            // least one un-broadcast source; entries whose ready bits are
            // already latched keep their comparators dark (`counters.rs`
            // documents the per-entry-compared semantics).
            self.counters.iq_wakeup_cam += self.iq_waiting as u64;
            self.counters.prf_writes += 1;
            self.drain_tag_consumers(tag, complete);
        }

        // Oracle schedule corrections from the actual schedule (§IV-A).
        match self.cfg.steer {
            SteerPolicy::Oracle => {
                self.threads[t].oracle.observe_issue(now);
                if let Some(dest) = inst.dest {
                    self.threads[t].oracle.correct(dest, complete);
                }
            }
            SteerPolicy::Practical => {
                self.threads[t].shadow_oracle.observe_issue(now);
                if let Some(dest) = inst.dest {
                    self.threads[t].shadow_oracle.correct(dest, complete);
                }
            }
            _ => {}
        }

        // Classification (real instructions only).
        if !self.slab.get(id).wrong_path {
            let cidx = self.slab.get(id).classify_idx;
            let in_seq = self.threads[t].classifier.issue(
                cidx,
                now,
                min_writeback_latency(op),
                op.resolution_delay(),
            );
            self.slab.get_mut(id).in_sequence = in_seq;
        } else {
            // Wrong-path instructions advance the shadow tracker too.
            let cidx = self.slab.get(id).classify_idx;
            let _ = self.threads[t].classifier.issue(
                cidx,
                now,
                min_writeback_latency(op),
                op.resolution_delay(),
            );
        }

        match steer {
            Steer::Iq => {
                let rob_idx = self.slab.get(id).rob_idx.expect("IQ inst has ROB entry");
                self.threads[t].issue_tracker.issue(rob_idx);
                self.threads[t].ssr.record_iq_issue(op.resolution_delay());
                self.iq_remove(id);
                self.counters.iq_issues += 1;
            }
            Steer::Shelf => {
                let popped = self.threads[t].shelf.pop_front();
                debug_assert_eq!(popped, Some(id));
                self.counters.shelf_reads += 1;
                if inst.is_load() {
                    self.threads[t].recent_shelf_loads.push_back((id, age));
                    if self.threads[t].recent_shelf_loads.len() > 32 {
                        self.threads[t].recent_shelf_loads.pop_front();
                    }
                }
            }
        }

        acc(&mut self.counters.issued, 1);
        if steer == Steer::Shelf {
            self.counters.issued_shelf += 1;
        }
        if inst.is_load() {
            self.threads[t].add_inflight_load(age);
        }
        self.threads[t].pre_issue_count -= 1;
        self.events.push(
            now,
            Event {
                cycle: complete,
                age,
                id,
            },
        );
        true
    }

    /// Resolves a load's data-ready cycle: store forwarding, younger-load
    /// value capture (shelf loads, §III-D), or a cache access. Returns
    /// `None` if the cache access could not allocate an MSHR.
    fn load_data_ready_cycle(
        &mut self,
        id: InstId,
        inst: &DynInst,
    ) -> Option<(u64, Option<Level>, Option<u64>)> {
        let (t, steer, lq_tail) = {
            let s = self.slab.get(id);
            (s.thread, s.steer, s.lq_tail_at_dispatch)
        };
        let age = self.slab.age(id);
        let mem = inst.mem.expect("loads access memory");
        let mut searches = 0u64;
        let th = &self.threads[t];

        // Youngest older store with a known overlapping address.
        let mut best_store: Option<u64> = None;
        for (_, &sid) in th.sq.iter() {
            let s = self.slab.get(sid);
            let sage = self.slab.age(sid);
            searches += 1;
            if sage < age && s.mem_executed {
                if let Some(smem) = s.inst.mem {
                    if smem.overlaps(&mem) && best_store.is_none_or(|a| sage > a) {
                        best_store = Some(sage);
                    }
                }
            }
        }

        let mut best_young_load: Option<u64> = None;
        if steer == Steer::Shelf {
            // Shelf loads also scan younger IQ loads that issued early and
            // must take the youngest matching value (§III-D).
            for (lq_idx, &lid) in th.lq.iter() {
                if lq_idx < lq_tail {
                    continue;
                }
                searches += 1;
                let l = self.slab.get(lid);
                let lage = self.slab.age(lid);
                if lage > age && l.mem_executed && !self.slab.is_squashed(lid) {
                    if let Some(lmem) = l.inst.mem {
                        if lmem.overlaps(&mem) {
                            best_young_load =
                                Some(best_young_load.map_or(lage, |a: u64| a.max(lage)));
                        }
                    }
                }
            }
        }
        self.counters.lsq_searches += searches;

        if let Some(young) = best_young_load {
            // Value captured from the younger load: no cache access.
            return Some((self.now + 2, None, Some(young)));
        }
        if let Some(sage) = best_store {
            // Store-to-load forwarding.
            return Some((self.now + 2, None, Some(sage)));
        }
        match self.hierarchy.access_data(mem.addr, false, self.now) {
            Ok(acc) => Some((acc.complete_cycle, Some(acc.level), None)),
            Err(_) => None,
        }
    }

    // ------------------------------------------------------------ writeback

    fn process_events(&mut self) {
        let idx = (self.now as usize) % EVENT_WHEEL_BUCKETS;
        let mut due = std::mem::take(&mut self.events.buckets[idx]);
        while let Some(ev) = self.events.overflow.peek() {
            if ev.cycle > self.now {
                break;
            }
            due.push(self.events.overflow.pop().expect("peeked"));
        }
        if !due.is_empty() {
            // Every due event carries this cycle; process elder
            // instructions first (the order the heap's `(cycle, age)` key
            // provided) so squashes mark younger in-flight work first.
            due.sort_unstable_by_key(|ev| ev.age);
            self.events.len -= due.len();
            #[cfg(feature = "chaos")]
            self.chaos_skip_thread_tick(&mut due);
            for ev in due.drain(..) {
                debug_assert_eq!(ev.cycle, self.now);
                let Event { id, age, .. } = ev;
                // The slot may be long gone (squashed and cleaned) — or the
                // id recycled. Verify identity via age.
                if !self.slab.live_with_age(id, age) {
                    continue;
                }
                self.writeback(id);
            }
        }
        // Hand the drained bucket back (re-entrant pushes cannot target it
        // inside the horizon, so nothing was added meanwhile).
        self.events.buckets[idx] = due;
    }

    /// [`ChaosKind::SkipThreadTick`]: at the `trigger`-th live due event,
    /// pick its thread as the victim and silently drop every live due
    /// event that thread has this cycle, as if its tick had been skipped.
    #[cfg(feature = "chaos")]
    fn chaos_skip_thread_tick(&mut self, due: &mut Vec<Event>) {
        {
            let Some(cs) = self.chaos.as_ref() else {
                return;
            };
            if cs.plan.kind != ChaosKind::SkipThreadTick || cs.fired {
                return;
            }
        }
        let (trigger, mut seen) = {
            let cs = self.chaos.as_ref().expect("checked above");
            (cs.plan.trigger, cs.seen)
        };
        let mut victim = None;
        for ev in due.iter() {
            if !self.slab.live_with_age(ev.id, ev.age) {
                continue;
            }
            if seen == trigger {
                victim = Some(self.slab.thread_of(ev.id));
                break;
            }
            seen += 1;
        }
        {
            let cs = self.chaos.as_mut().expect("checked above");
            cs.seen = seen;
            if victim.is_some() {
                cs.fired = true;
            }
        }
        if let Some(victim) = victim {
            due.retain(|ev| {
                !(self.slab.live_with_age(ev.id, ev.age) && self.slab.thread_of(ev.id) == victim)
            });
        }
    }

    fn writeback(&mut self, id: InstId) {
        let (t, inst, steer, wrong_path) = {
            let s = self.slab.get(id);
            (s.thread, s.inst, s.steer, s.wrong_path)
        };
        self.skip.note_progress();
        let squashed = self.slab.is_squashed(id);
        if self.slab.stage(id) == Stage::Issued {
            self.slab.set_stage(id, Stage::Completed);
        }

        if inst.is_load() {
            let age = self.slab.age(id);
            self.threads[t].remove_inflight_load(age);
        }
        if squashed {
            // A squashed in-flight instruction is filtered at writeback
            // (§III-B): no architectural effects; a shelf instruction's
            // reserved index is finally released.
            if steer == Steer::Shelf {
                if let Some(idx) = self.slab.get(id).shelf_idx {
                    self.threads[t].mark_shelf_retired(idx);
                }
            }
            if inst.is_store() {
                let age = self.slab.age(id);
                self.threads[t].remove_inflight_store(age);
            }
            // A sampled load's PLT column must not leak with the squash.
            if let Some(col) = self.slab.get_mut(id).plt_column.take() {
                self.threads[t].practical.load_completed(col);
            }
            self.slab.remove(id);
            return;
        }

        // Stores: address now visible — run ordering checks & release
        // store-set dependents.
        if inst.is_store() {
            self.store_executed(id);
        }

        // Loads: steering-table corrections. Clear the column handle so a
        // later squash walk cannot free a since-reallocated column.
        if inst.is_load() {
            if let Some(col) = self.slab.get_mut(id).plt_column.take() {
                self.threads[t].practical.load_completed(col);
            }
        }
        // Branches resolve at writeback.
        if inst.is_branch() && !wrong_path {
            self.resolve_branch(id);
            if !self.slab.contains(id) {
                return; // squash removed it (cannot happen for the branch itself)
            }
        }

        // Shelf instructions retire at writeback (§III-B): free the
        // superseded tag and release the shelf index.
        if steer == Steer::Shelf {
            let slot = self.slab.get(id);
            let idx = slot.shelf_idx.expect("shelf inst has index");
            if let Some(prev) = slot.prev_mapping {
                if prev.tag.0 != prev.pri.0 {
                    self.ext_fl.free(prev.tag.0);
                    self.counters.ext_freelist_ops += 1;
                }
            }
            // Shelf stores write through the store buffer at their commit
            // point (they are non-speculative by SSR construction).
            if inst.is_store() {
                let addr = inst.mem.expect("stores access memory").addr;
                self.threads[t].store_buffer.push_back((addr, self.now));
            }
            self.threads[t].mark_shelf_retired(idx);
        }
    }

    fn store_executed(&mut self, id: InstId) {
        let (t, pc, mem) = {
            let s = self.slab.get(id);
            (s.thread, s.inst.pc, s.inst.mem.expect("store"))
        };
        let age = self.slab.age(id);
        self.slab.get_mut(id).mem_executed = true;
        self.threads[t].store_sets.store_resolved(pc, age);
        self.threads[t].remove_inflight_store(age);

        // Memory-order violation scan: younger loads that already executed
        // with an overlapping address and did not receive their value from
        // this store or a younger one must be squashed (§III-D).
        let mut victim: Option<(InstId, u64)> = None;
        let th = &self.threads[t];
        let consider = |lid: InstId, slab: &Slab, counters: &mut Counters| {
            counters.lsq_searches += 1;
            let lage = slab.age(lid);
            if slab.is_squashed(lid) || lage <= age {
                return None;
            }
            let l = slab.get(lid);
            if !l.mem_executed {
                return None;
            }
            let lmem = l.inst.mem?;
            if !lmem.overlaps(&mem) {
                return None;
            }
            match l.forwarded_from {
                Some(f) if f >= age => None,
                _ => Some((lid, lage)),
            }
        };
        for (_, &lid) in th.lq.iter() {
            if let Some(v) = consider(lid, &self.slab, &mut self.counters) {
                if victim.is_none_or(|(_, va)| v.1 < va) {
                    victim = Some(v);
                }
            }
        }
        for i in 0..self.threads[t].recent_shelf_loads.len() {
            let (lid, lage) = self.threads[t].recent_shelf_loads[i];
            if !self.slab.live_with_age(lid, lage) {
                continue;
            }
            if let Some(v) = consider(lid, &self.slab, &mut self.counters) {
                if victim.is_none_or(|(_, va)| v.1 < va) {
                    victim = Some(v);
                }
            }
        }

        if let Some((lid, _)) = victim {
            let load_pc = self.slab.get(lid).inst.pc;
            self.threads[t].store_sets.train_violation(pc, load_pc);
            self.counters.memory_violations += 1;
            self.squash_thread(t, lid);
        }
    }

    fn resolve_branch(&mut self, id: InstId) {
        let (t, inst, pred, mispred) = {
            let s = self.slab.get(id);
            (
                s.thread,
                s.inst,
                s.prediction.expect("branches are predicted"),
                s.mispredicted,
            )
        };
        let br = inst.branch.expect("branch info");
        let fallthrough = inst.pc + 4;
        self.threads[t].bpred.update(
            inst.pc,
            pred,
            br.taken,
            br.next_pc,
            br.is_call,
            br.is_return,
            fallthrough,
        );
        if mispred {
            self.counters.branch_mispredicts += 1;
            // Squash everything younger than the branch, release the fetch
            // stall, and redirect (the fetch-to-dispatch pipe provides the
            // refill penalty).
            self.squash_younger_than(t, id);
            if self.threads[t].waiting_branch == Some(id) {
                self.threads[t].waiting_branch = None;
            }
        }
    }

    // --------------------------------------------------------------- squash

    /// Squashes `first_squashed` and everything younger in thread `t`.
    fn squash_thread(&mut self, t: usize, first_squashed: InstId) {
        let pos = self.threads[t]
            .window
            .iter()
            .position(|&x| x == first_squashed)
            .expect("squash point must be in the window");
        self.squash_window_from(t, pos);
    }

    /// Squashes everything strictly younger than `elder` in thread `t`.
    fn squash_younger_than(&mut self, t: usize, elder: InstId) {
        let pos = self.threads[t].window.iter().position(|&x| x == elder);
        match pos {
            Some(p) => self.squash_window_from(t, p + 1),
            None => {
                // The elder already left the window (committed): squash the
                // whole remaining window.
                self.squash_window_from(t, 0)
            }
        }
    }

    /// Squashes thread `t`'s window from `pos` on, plus its whole front
    /// end, and rewinds the trace to the eldest squashed correct-path
    /// instruction so it is fetched again. Memory violations re-execute the
    /// violating load this way; after a branch squash the rewind re-fetches
    /// any correct-path instructions that were flushed with the wrong path.
    fn squash_window_from(&mut self, t: usize, pos: usize) {
        // Collect ids for the youngest-first RAT walk-back into a reused
        // scratch buffer (squashes are frequent enough that a fresh Vec per
        // squash shows up in the allocator profile).
        let mut victims = std::mem::take(&mut self.scratch_squash);
        victims.clear();
        victims.extend(self.threads[t].window.iter().skip(pos).copied());
        if victims.is_empty() && self.threads[t].frontend.is_empty() {
            self.scratch_squash = victims;
            return;
        }
        let mut rewind_seq: Option<u64> = None;
        let mut min_rob: Option<u64> = None;
        let mut min_lq: Option<u64> = None;
        let mut min_sq: Option<u64> = None;
        let mut min_classify: Option<u64> = None;

        for &id in victims.iter().rev() {
            let stage = self.slab.stage(id);
            let age = self.slab.age(id);
            let slot = self.slab.get(id);
            // Completed shelf instructions are committed: a correct SSR
            // never lets a squash reach one (counted as a self-check).
            if slot.steer == Steer::Shelf && stage == Stage::Completed && !self.slab.is_squashed(id)
            {
                self.threads[t].late_shelf_commits += 1;
                continue;
            }
            let seq = slot.seq;
            let wrong_path = slot.wrong_path;
            let steer = slot.steer;
            let inst = slot.inst;
            let dest_pri = slot.dest_pri;
            let dest_tag = slot.dest_tag;
            let prev = slot.prev_mapping;
            let rob_idx = slot.rob_idx;
            let lq_idx = slot.lq_idx;
            let sq_idx = slot.sq_idx;
            let shelf_idx = slot.shelf_idx;
            let classify_idx = slot.classify_idx;
            let pending_srcs = slot.pending_srcs;

            if !wrong_path {
                rewind_seq = Some(seq);
            }
            if stage == Stage::Dispatched || stage == Stage::Issued || stage == Stage::Completed {
                min_classify = Some(classify_idx);
            }

            // Restore the RAT and free this instruction's allocations.
            if let (Some(dest), Some(p)) = (inst.dest, prev) {
                self.threads[t].rat.set(dest, p);
                self.counters.rat_writes += 1;
                match steer {
                    Steer::Iq => {
                        self.phys_fl.free(dest_pri.expect("IQ dest has PRI").0);
                        self.counters.freelist_ops += 1;
                    }
                    Steer::Shelf => {
                        self.ext_fl.free(dest_tag.expect("shelf dest has tag").0);
                        self.counters.ext_freelist_ops += 1;
                    }
                }
            }

            if let Some(r) = rob_idx {
                min_rob = Some(min_rob.map_or(r, |m: u64| m.min(r)));
            }
            if let Some(l) = lq_idx {
                min_lq = Some(min_lq.map_or(l, |m: u64| m.min(l)));
            }
            if let Some(s) = sq_idx {
                min_sq = Some(min_sq.map_or(s, |m: u64| m.min(s)));
            }

            if inst.is_store() {
                self.threads[t].store_sets.store_resolved(inst.pc, age);
                self.threads[t].remove_inflight_store(age);
            }
            if self.threads[t].waiting_branch == Some(id) {
                self.threads[t].waiting_branch = None;
            }
            // Squashed sampled loads release their PLT column here if they
            // never issued (issued ones release at their filtering event;
            // completed ones already released at writeback — their handle
            // is cleared, so the take() below is a no-op for them).
            if stage == Stage::Dispatched || stage == Stage::Completed {
                if let Some(col) = self.slab.get_mut(id).plt_column.take() {
                    self.threads[t].practical.load_completed(col);
                }
            }

            #[cfg(feature = "chaos")]
            self.chaos_on_squash_victim(id);
            self.trace_end(id, EndKind::Squash);
            match stage {
                Stage::Dispatched => {
                    // Not yet issued: fully removable now.
                    self.threads[t].pre_issue_count -= 1;
                    match steer {
                        Steer::Iq => {
                            self.iq_remove(id);
                            // Leave the waiting population; any stale
                            // consumer-list registrations are filtered at
                            // their tag's broadcast.
                            if pending_srcs > 0 {
                                self.iq_waiting -= 1;
                            }
                        }
                        Steer::Shelf => {
                            // Remove from the shelf FIFO (it must be at the
                            // tail side) and release its index immediately.
                            let back = self.threads[t].shelf.pop_back();
                            debug_assert_eq!(back, Some(id));
                            let idx = shelf_idx.expect("shelf inst has idx");
                            self.threads[t].mark_shelf_retired(idx);
                        }
                    }
                    self.counters.squashed += 1;
                    self.slab.remove(id);
                }
                Stage::Issued => {
                    // In flight: filtered at writeback. The squash kill
                    // signal reaches the writeback arbiter within a pipe
                    // drain, so the filtering (and the release of a shelf
                    // index reservation) need not wait for a cache miss to
                    // return — schedule an early filtering event; whichever
                    // event fires first wins (the guard in process_events
                    // ignores the later one).
                    self.slab.set_squashed(id, true);
                    self.counters.squashed += 1;
                    self.events.push(
                        self.now,
                        Event {
                            cycle: self.now + 4,
                            age,
                            id,
                        },
                    );
                }
                Stage::Completed => {
                    // Completed IQ instruction waiting to retire.
                    debug_assert_eq!(steer, Steer::Iq);
                    self.counters.squashed += 1;
                    self.slab.remove(id);
                }
                Stage::Frontend | Stage::Retired => unreachable!("not in window"),
            }
        }
        self.threads[t].window.truncate(pos);

        // Structure tail rollbacks.
        if let Some(r) = min_rob {
            self.threads[t].rob.truncate_from(r);
            self.threads[t].issue_tracker.squash_from(r);
        }
        if let Some(l) = min_lq {
            self.threads[t].lq.truncate_from(l);
        }
        if let Some(s) = min_sq {
            self.threads[t].sq.truncate_from(s);
        }
        if let Some(c) = min_classify {
            self.threads[t].classifier.squash_from(c);
        }
        self.threads[t].last_steer = match self.threads[t].window.back() {
            Some(&id) => Some(self.slab.get(id).steer),
            None => None,
        };

        // Flush the front end (everything there is younger than the squash
        // point); the victim scratch buffer is reused for the drain.
        victims.clear();
        victims.extend(self.threads[t].frontend.drain(..));
        for &id in &victims {
            let slot = self.slab.get(id);
            if !slot.wrong_path {
                rewind_seq = Some(rewind_seq.map_or(slot.seq, |r: u64| r.min(slot.seq)));
            }
            if self.threads[t].waiting_branch == Some(id) {
                self.threads[t].waiting_branch = None;
            }
            // A victim that attempted (and failed) dispatch may hold a
            // memoized PLT column; release it or the column leaks.
            if let Some((_, Some(col))) = self.slab.get_mut(id).steer_memo.take() {
                self.threads[t].practical.load_completed(col);
            }
            self.threads[t].pre_issue_count -= 1;
            self.slab.remove(id);
        }

        if let Some(seq) = rewind_seq {
            self.threads[t].trace.rewind_to(seq);
        }
        self.threads[t].fetch_stalled_until = self.threads[t].fetch_stalled_until.max(self.now + 2);
        self.scratch_squash = victims;
    }

    // --------------------------------------------------------------- commit

    fn commit_stage(&mut self) {
        let mut budget = self.cfg.commit_width;
        let n = self.threads.len();
        // Rotate the starting thread so no context monopolizes commit
        // bandwidth.
        let start = (self.now as usize) % n;
        for off in 0..n {
            let t = (start + off) % n;
            // TSO: shelf stores hold SQ entries until writeback; release
            // contiguously completed ones at the head.
            if self.cfg.memory_model == MemoryModel::Tso {
                while let Some(&sq_head) = self.threads[t].sq.front() {
                    let slot = self.slab.get(sq_head);
                    if slot.steer == Steer::Shelf
                        && self.slab.stage(sq_head) == Stage::Completed
                        && !self.slab.is_squashed(sq_head)
                    {
                        self.threads[t].sq.pop_front();
                        self.skip.note_progress();
                    } else {
                        break;
                    }
                }
            }
            while budget > 0 {
                let Some(&head) = self.threads[t].window.front() else {
                    break;
                };
                let slot = self.slab.get(head);
                match slot.steer {
                    Steer::Shelf => {
                        if self.slab.stage(head) != Stage::Completed || self.slab.is_squashed(head)
                        {
                            break;
                        }
                        // TSO shelf stores leave the window only after their
                        // SQ entry has been released.
                        if let Some(sq_idx) = slot.sq_idx {
                            if self.threads[t].sq.get(sq_idx).is_some() {
                                break;
                            }
                        }
                        let in_seq = slot.in_sequence;
                        let wrong_path = slot.wrong_path;
                        let seq = slot.seq;
                        if !wrong_path {
                            self.observe_commit(head);
                        }
                        self.trace_end(head, EndKind::Commit);
                        self.threads[t].window.pop_front();
                        self.skip.note_progress();
                        self.slab.remove(head);
                        if !wrong_path {
                            self.retire_real(t, seq, in_seq);
                        }
                        budget -= 1;
                    }
                    Steer::Iq => {
                        if self.slab.stage(head) != Stage::Completed {
                            self.counters.commit_stalls[0] += 1;
                            break;
                        }
                        debug_assert!(
                            !self.slab.is_squashed(head),
                            "squashed completed IQ inst left in window"
                        );
                        // ROB-head check.
                        let rob_idx = slot.rob_idx.expect("IQ inst has ROB idx");
                        debug_assert_eq!(self.threads[t].rob.head_index(), Some(rob_idx));
                        // Coordinate with shelf retirement (§III-B): elder
                        // shelf instructions must have written back.
                        if self.threads[t].shelf_retire_ptr < slot.shelf_squash_idx {
                            self.counters.commit_stalls[1] += 1;
                            break;
                        }
                        // Stores move to the store buffer; stall if full.
                        if slot.inst.is_store()
                            && self.threads[t].store_buffer.len() >= self.cfg.store_buffer_entries
                        {
                            self.counters.commit_stalls[2] += 1;
                            break;
                        }
                        let inst = slot.inst;
                        let in_seq = slot.in_sequence;
                        let wrong_path = slot.wrong_path;
                        let seq = slot.seq;
                        let prev = slot.prev_mapping;

                        self.threads[t].rob.pop_front();
                        self.counters.rob_reads += 1;
                        if inst.is_load() {
                            self.threads[t].lq.pop_front();
                        }
                        if inst.is_store() {
                            self.threads[t].sq.pop_front();
                            let addr = inst.mem.expect("store").addr;
                            self.threads[t].store_buffer.push_back((addr, self.now));
                        }
                        if let Some(p) = prev {
                            self.phys_fl.free(p.pri.0);
                            self.counters.freelist_ops += 1;
                            if p.tag.0 != p.pri.0 {
                                self.ext_fl.free(p.tag.0);
                                self.counters.ext_freelist_ops += 1;
                            }
                        }
                        if !wrong_path {
                            self.observe_commit(head);
                        }
                        self.trace_end(head, EndKind::Commit);
                        self.threads[t].window.pop_front();
                        self.skip.note_progress();
                        self.slab.remove(head);
                        if !wrong_path {
                            self.retire_real(t, seq, in_seq);
                        }
                        budget -= 1;
                    }
                }
            }
        }
    }

    /// Bookkeeping for thread `t`'s retiring trace instruction `seq`: it
    /// counts as committed, and its trace no longer keeps it for replay
    /// (every rewind targets an un-retired instruction).
    fn retire_real(&mut self, t: usize, seq: u64, in_seq: bool) {
        let th = &mut self.threads[t];
        th.committed += 1;
        th.classifier.commit(in_seq);
        th.trace.release_through(seq);
        acc(&mut self.counters.committed, 1);
    }

    fn drain_store_buffers(&mut self) {
        for t in 0..self.threads.len() {
            if let Some(&(addr, ready)) = self.threads[t].store_buffer.front() {
                if ready <= self.now && self.hierarchy.access_data(addr, true, self.now).is_ok() {
                    self.threads[t].store_buffer.pop_front();
                    self.skip.note_progress();
                }
            }
        }
    }

    // ----------------------------------------------------------- sanitizer

    /// Thread `t`'s un-retired trace instructions in the window and the
    /// front end (wrong-path ones come from no trace): how many, and the
    /// oldest sequence among them.
    #[cfg(any(test, feature = "sanitize"))]
    fn unretired_trace(&self, t: usize) -> (usize, Option<u64>) {
        let th = &self.threads[t];
        th.window
            .iter()
            .chain(&th.frontend)
            .map(|&id| self.slab.get(id))
            .filter(|s| !s.wrong_path)
            .fold((0, None), |(n, oldest), s| {
                (n + 1, Some(oldest.map_or(s.seq, |o: u64| o.min(s.seq))))
            })
    }

    /// The dynamic invariant sanitizer: audits token conservation and queue
    /// bookkeeping at the end of every cycle, panicking with a structured
    /// report on the first violating cycle (`--features sanitize` only; the
    /// default build compiles this out entirely).
    ///
    /// Audited invariants:
    ///
    /// 1. Queue occupancy never exceeds capacity (IQ, per-thread shelf).
    /// 2. Every IQ / shelf resident is a live `Dispatched` instruction.
    /// 3. Shelf virtual-index bookkeeping: the retire bitvector covers
    ///    exactly `shelf_next_idx - shelf_retire_ptr` indices.
    /// 4. ICOUNT accounting: `pre_issue_count` equals the reconstructed
    ///    front-end + dispatched-but-unissued population.
    /// 5. Physical-register conservation: allocated registers equal the
    ///    per-thread architectural state plus one rename register per
    ///    in-window IQ instruction with a destination.
    /// 6. Extension-tag conservation: allocated tags equal the RAT entries
    ///    currently holding extension mappings plus the superseded
    ///    extension mappings held by in-window instructions (IQ holders
    ///    release at retire; shelf holders release at writeback, so
    ///    completed shelf instructions no longer hold one).
    /// 7. Replay-buffer bound: each thread's trace buffers exactly from its
    ///    oldest un-retired trace instruction (in the window or front end,
    ///    or owed by a pending replay) on, so it can rewind to every one of
    ///    them and holds no retired one.
    #[cfg(feature = "sanitize")]
    fn audit_invariants(&self) {
        use std::fmt::Write as _;
        let mut v = String::new();

        if self.iq.len() > self.cfg.iq_entries {
            writeln!(
                v,
                "IQ occupancy {} > capacity {}",
                self.iq.len(),
                self.cfg.iq_entries
            )
            .expect("write");
        }
        for &id in &self.iq {
            let s = self.slab.get(id);
            if self.slab.stage(id) != Stage::Dispatched || s.steer != Steer::Iq {
                writeln!(
                    v,
                    "IQ resident {id} in stage {:?} steered {:?}",
                    self.slab.stage(id),
                    s.steer
                )
                .expect("write");
            }
        }
        let waiting = self
            .iq
            .iter()
            .filter(|&&id| self.slab.get(id).pending_srcs > 0)
            .count();
        if waiting != self.iq_waiting {
            writeln!(
                v,
                "iq_waiting {} disagrees with recount {waiting}",
                self.iq_waiting
            )
            .expect("write");
        }
        for &id in &self.iq {
            let s = self.slab.get(id);
            if s.pending_srcs == 0 && (s.data_ready_cycle <= self.now) != self.iq_srcs_ready(s) {
                writeln!(
                    v,
                    "IQ entry {id}: cached data_ready_cycle {} disagrees with \
                     scoreboard recomputation at cycle {}",
                    s.data_ready_cycle, self.now
                )
                .expect("write");
            }
        }

        let mut iq_holders = 0usize;
        let mut ext_holders = 0usize;
        for (t, th) in self.threads.iter().enumerate() {
            if th.shelf.len() > th.shelf_capacity {
                writeln!(
                    v,
                    "thread {t}: shelf occupancy {} > capacity {}",
                    th.shelf.len(),
                    th.shelf_capacity
                )
                .expect("write");
            }
            for &id in &th.shelf {
                let s = self.slab.get(id);
                if self.slab.stage(id) != Stage::Dispatched || s.steer != Steer::Shelf {
                    writeln!(
                        v,
                        "thread {t}: shelf resident {id} in stage {:?} steered {:?}",
                        self.slab.stage(id),
                        s.steer
                    )
                    .expect("write");
                }
            }

            let index_span = th.shelf_next_idx - th.shelf_retire_ptr;
            if th.shelf_retired.len() as u64 != index_span {
                writeln!(
                    v,
                    "thread {t}: shelf retire bitvector covers {} indices, but \
                     next_idx {} - retire_ptr {} = {index_span}",
                    th.shelf_retired.len(),
                    th.shelf_next_idx,
                    th.shelf_retire_ptr
                )
                .expect("write");
            }

            let (_, in_flight) = self.unretired_trace(t);
            let next = th.trace.next_fetch_seq();
            let oldest = in_flight.map_or(next, |s| s.min(next));
            let front = th.trace.oldest_rewindable();
            if front > oldest {
                writeln!(
                    v,
                    "thread {t}: replay buffer starts at seq {front}, after \
                     un-retired seq {oldest}"
                )
                .expect("write");
            } else if front < oldest {
                writeln!(
                    v,
                    "thread {t}: replay buffer still holds retired seq {front} \
                     (oldest un-retired {oldest})"
                )
                .expect("write");
            }

            let dispatched_unissued = th
                .window
                .iter()
                .filter(|&&id| self.slab.stage(id) == Stage::Dispatched)
                .count();
            let expected_pre_issue = th.frontend.len() + dispatched_unissued;
            if th.pre_issue_count != expected_pre_issue {
                writeln!(
                    v,
                    "thread {t}: pre_issue_count {} != frontend {} + dispatched {}",
                    th.pre_issue_count,
                    th.frontend.len(),
                    dispatched_unissued
                )
                .expect("write");
            }

            for &id in &th.window {
                let s = self.slab.get(id);
                if s.steer == Steer::Iq && s.dest_pri.is_some() {
                    iq_holders += 1;
                }
                if let Some(prev) = s.prev_mapping {
                    if self.ext_fl.contains_range(prev.tag.0)
                        && (s.steer == Steer::Iq || self.slab.stage(id) != Stage::Completed)
                    {
                        ext_holders += 1;
                    }
                }
            }
        }

        let arch = self.threads.len() * shelfsim_isa::NUM_ARCH_REGS;
        let expected_phys = arch + iq_holders;
        if self.phys_fl.in_use() != expected_phys {
            writeln!(
                v,
                "physical-register leak: {} allocated != {arch} architectural + \
                 {iq_holders} in-window IQ destinations",
                self.phys_fl.in_use()
            )
            .expect("write");
        }

        let rat_ext: usize = self
            .threads
            .iter()
            .map(|th| {
                th.rat
                    .iter()
                    .filter(|(_, m)| self.ext_fl.contains_range(m.tag.0))
                    .count()
            })
            .sum();
        let expected_ext = rat_ext + ext_holders;
        if self.ext_fl.in_use() != expected_ext {
            writeln!(
                v,
                "extension-tag leak: {} allocated != {rat_ext} live RAT mappings + \
                 {ext_holders} superseded in-window holders",
                self.ext_fl.in_use()
            )
            .expect("write");
        }

        assert!(
            v.is_empty(),
            "sanitizer: pipeline invariant violation(s) at cycle {}:\n{v}\
             counters: dispatched={} issued={} committed={} squashed={}",
            self.now,
            self.counters.dispatched,
            self.counters.issued,
            self.counters.committed,
            self.counters.squashed,
        );
    }
}

enum DispatchOutcome {
    Dispatched,
    Stalled(StallCause),
}

/// Why a shelf head cannot issue this cycle: the first failing check of
/// `Core::shelf_hazard`, in check order.
#[derive(Clone, Copy)]
enum ShelfHazard {
    /// An elder IQ instruction of the run has not issued (§III-A).
    Order,
    /// The writeback would land inside the shelf SSR (§III-B).
    Ssr,
    /// A source's producer has not reached its ready cycle (§III-C).
    Raw,
    /// The destination's previous writer has not reached its ready cycle.
    Waw,
    /// A load waits for an elder store of its store set.
    StoreSet,
    /// A store finds its thread's store buffer full.
    StoreBuffer,
    /// TSO: an elder load is still in flight (§III-D).
    ElderLoad,
    /// A source produced in the IQ cluster is still being forwarded (§VI).
    ForwardPenalty,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_heap_orders_by_cycle_then_age() {
        let mut heap = BinaryHeap::new();
        heap.push(Event {
            cycle: 10,
            age: 5,
            id: 0,
        });
        heap.push(Event {
            cycle: 9,
            age: 9,
            id: 1,
        });
        heap.push(Event {
            cycle: 10,
            age: 2,
            id: 2,
        });
        // Earliest cycle first; within a cycle, the elder (smaller age)
        // first — a misspeculation squash must run before younger same-cycle
        // shelf writebacks.
        assert_eq!(heap.pop().map(|e| e.id), Some(1));
        assert_eq!(heap.pop().map(|e| e.id), Some(2));
        assert_eq!(heap.pop().map(|e| e.id), Some(0));
    }

    #[test]
    fn min_writeback_latency_is_l1_floor_for_loads() {
        assert_eq!(min_writeback_latency(OpClass::Load), 2);
        assert_eq!(min_writeback_latency(OpClass::IntAlu), 1);
        assert_eq!(min_writeback_latency(OpClass::IntDiv), 12);
    }

    /// The replay buffer holds only the in-flight window: after every
    /// bounded tick block, each thread buffers at most its un-retired trace
    /// instructions plus the fetches a pending replay still owes.
    #[test]
    fn replay_buffer_holds_only_the_in_flight_window() {
        let mixes: [&[&str]; 3] = [&["mcf"], &["gcc", "lbm"], &["gcc", "mcf", "hmmer", "lbm"]];
        for mix in mixes {
            let n = mix.len();
            let designs = [
                CoreConfig::base64(n),
                CoreConfig::base128(n),
                CoreConfig::base64_shelf64(n, SteerPolicy::Practical, false),
                CoreConfig::base64_shelf64(n, SteerPolicy::Practical, true),
            ];
            for cfg in designs {
                for skipping in [true, false] {
                    let traces = mix
                        .iter()
                        .enumerate()
                        .map(|(t, name)| {
                            let profile = shelfsim_workload::suite::by_name(name).unwrap();
                            TraceSource::new(profile.build_program(3 + t as u64), t)
                        })
                        .collect();
                    let mut core = Core::new(cfg.clone(), traces);
                    core.set_cycle_skipping(skipping);
                    core.warm_caches();
                    core.warm_functional(2_000);
                    let mut peak = 0;
                    for _ in 0..8 {
                        core.tick_bounded(250);
                        for t in 0..n {
                            let trace = &core.threads[t].trace;
                            let (unretired, _) = core.unretired_trace(t);
                            let bound = unretired + trace.pending_replay();
                            assert!(
                                trace.buffered() <= bound,
                                "{mix:?} skipping={skipping} thread {t}: {} buffered > \
                                 {unretired} un-retired + {} owed",
                                trace.buffered(),
                                trace.pending_replay()
                            );
                            peak = peak.max(trace.buffered());
                        }
                    }
                    assert!(peak > 0, "{mix:?}: nothing was ever in flight");
                    assert!(core.committed(0) > 0, "{mix:?}: thread 0 never committed");
                }
            }
        }
    }

    #[test]
    fn thread_shelf_retire_machinery() {
        // Build a minimal thread via a real core to exercise the retire
        // bitvector: allocate three indices, retire out of order.
        let mut retired = std::collections::VecDeque::from([false, false, false]);
        let mut ptr = 0u64;
        let mark = |idx: u64, retired: &mut std::collections::VecDeque<bool>, ptr: &mut u64| {
            retired[(idx - *ptr) as usize] = true;
            while retired.front() == Some(&true) {
                retired.pop_front();
                *ptr += 1;
            }
        };
        mark(1, &mut retired, &mut ptr);
        assert_eq!(ptr, 0, "hole at index 0 blocks the pointer");
        mark(0, &mut retired, &mut ptr);
        assert_eq!(ptr, 2, "contiguous prefix retires");
        mark(2, &mut retired, &mut ptr);
        assert_eq!(ptr, 3);
    }
}
