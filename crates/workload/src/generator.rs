//! Functional execution of a [`Program`] into a dynamic instruction stream,
//! with a bounded replay buffer for squash-and-refetch.
//!
//! The buffer holds every fetched instruction a consumer may still rewind
//! to. A consumer that retires instructions in order reports each one with
//! [`TraceSource::release_through`], so the buffer holds exactly the
//! in-flight window: `[oldest un-retired seq, next seq)`, a few hundred
//! entries on the modelled cores. A consumer that never releases keeps at
//! most the newest `REPLAY_CAPACITY` instructions, as a ring.

use crate::program::{AccessPattern, Program, Terminator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shelfsim_isa::{BranchInfo, DynInst, MemInfo, OpClass};
use std::collections::VecDeque;
use std::sync::Arc;

/// Base virtual address of a program's data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Ring bound of the replay buffer for consumers that never call
/// [`TraceSource::release_through`]: the oldest instruction is dropped
/// once this many are buffered. It must exceed the deepest in-flight state
/// such a consumer can rewind across. Consumers that release as they
/// retire never come near it.
const REPLAY_CAPACITY: usize = 8192;

/// A per-thread dynamic instruction source.
///
/// `TraceSource` walks the program's control-flow graph, drawing loop trip
/// counts and data-dependent branch outcomes from a seeded RNG, and
/// materializing memory addresses from each static instruction's access
/// pattern. Every emitted instruction is retained in a bounded replay buffer
/// until [`TraceSource::release_through`] retires it, so the core can
/// *rewind* after a memory-order violation or memory dependence mispredict
/// (paper §III-D: "cause a pipeline flush and restart at the mispredicted
/// instruction") and receive byte-identical instructions.
///
/// The program is shared behind an [`Arc`]: cloning a source, or building
/// several sources over one program, copies no program.
///
/// All code and data addresses are offset by a per-thread base so SMT
/// threads, like the paper's multiprogrammed mixes, share no data.
#[derive(Clone, Debug)]
pub struct TraceSource {
    program: Arc<Program>,
    thread_base: u64,
    walk: WalkState,
    // Stream state.
    next_seq: u64,
    buffer: VecDeque<(u64, DynInst)>,
    /// When set, the next fetch replays from the buffer at this sequence.
    cursor: Option<u64>,
}

impl TraceSource {
    /// Creates a source for `program` running as SMT context `thread_index`.
    /// An owned [`Program`] and a shared `Arc<Program>` are both accepted.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`Program::validate`] (hand-built
    /// programs with out-of-range targets or inconsistent layout would
    /// otherwise fail deep inside the simulator).
    pub fn new(program: impl Into<Arc<Program>>, thread_index: usize) -> Self {
        let program = program.into();
        if let Err(e) = program.validate() {
            panic!("invalid program `{}`: {e}", program.name);
        }
        let n = program.num_statics as usize;
        let nb = program.blocks.len();
        let seed = program.seed ^ ((thread_index as u64) << 17) ^ 0xC0FFEE;
        TraceSource {
            // Threads live in disjoint address spaces (bit 36+) and are
            // additionally offset by a per-thread "page color" so their hot
            // blocks do not all collide in the same cache sets — as with
            // distinct physical mappings on a real OS.
            thread_base: ((thread_index as u64) << 36) + thread_index as u64 * 0x19_F040,
            walk: WalkState {
                block: 0,
                slot: 0,
                loop_remaining: vec![None; nb],
                call_stack: Vec::new(),
                stride_counters: vec![0; n],
                chase_state: (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
                rng: SmallRng::seed_from_u64(seed),
            },
            next_seq: 0,
            // Grows with the first buffered fetches, up to the in-flight
            // window of a releasing consumer.
            buffer: VecDeque::new(),
            cursor: None,
            program,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The code address range `[start, end)` of this thread's program, for
    /// explicit cache warming (the stand-in for the paper's 100M-instruction
    /// warm-up).
    pub fn code_range(&self) -> (u64, u64) {
        let start = self.program.blocks[0].start_pc + self.thread_base;
        let last = self.program.blocks.len() - 1;
        let end = self.program.fallthrough_pc(last) + self.thread_base;
        (start, end)
    }

    /// The data region address ranges `[start, end)` of this thread, from
    /// smallest (L1-resident) to largest (memory-bound).
    pub fn data_region_ranges(&self) -> [(u64, u64); 3] {
        use crate::program::Region;
        [Region::L1, Region::L2, Region::Mem].map(|r| {
            let start = DATA_BASE + self.thread_base + r.base();
            (start, start + r.size())
        })
    }

    /// Sequence number the next [`TraceSource::fetch`] will return.
    pub fn next_fetch_seq(&self) -> u64 {
        self.cursor.unwrap_or(self.next_seq)
    }

    /// Fetches the next dynamic instruction (replaying after a rewind).
    pub fn fetch(&mut self) -> (u64, DynInst) {
        if let Some(seq) = self.cursor {
            let front = self
                .buffer
                .front()
                .expect("replay cursor points into buffer")
                .0;
            let inst = self.buffer[(seq - front) as usize].1;
            let next = seq + 1;
            self.cursor = if next == self.next_seq {
                None
            } else {
                Some(next)
            };
            return (seq, inst);
        }
        let inst = self.generate();
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buffer.len() == REPLAY_CAPACITY {
            self.buffer.pop_front();
        }
        self.buffer.push_back((seq, inst));
        (seq, inst)
    }

    /// Retires every buffered instruction up to and including `seq`: none
    /// of them can be rewound to afterwards. Entries at or after a pending
    /// replay cursor are kept, since the next fetches must replay them.
    /// A consumer that commits in order calls this once per retired
    /// instruction, which bounds the buffer by its in-flight window.
    pub fn release_through(&mut self, seq: u64) {
        let keep_from = self.cursor.unwrap_or(u64::MAX).min(seq.saturating_add(1));
        while self.buffer.front().is_some_and(|&(s, _)| s < keep_from) {
            self.buffer.pop_front();
        }
    }

    /// The oldest sequence [`TraceSource::rewind_to`] still accepts: the
    /// first buffered instruction, or the next one to be generated when
    /// nothing is buffered.
    pub fn oldest_rewindable(&self) -> u64 {
        self.buffer.front().map_or(self.next_seq, |&(s, _)| s)
    }

    /// Instructions held for replay.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Fetches still owed by a pending replay (0 when none is pending).
    pub fn pending_replay(&self) -> usize {
        self.cursor.map_or(0, |c| (self.next_seq - c) as usize)
    }

    /// Advances the stream by `n` instructions one basic block at a time,
    /// passing each one's `(pc, data address, branch outcome)` to `visit`,
    /// without retaining anything for replay: the stream ends up exactly
    /// where `n` [`TraceSource::fetch`]es would leave it, but nothing
    /// before [`TraceSource::next_fetch_seq`] can be rewound to afterwards.
    /// For functional warm-up, whose instructions never enter the
    /// pipeline: it builds no [`DynInst`] and skips the replay-buffer copy,
    /// and a source that has only been walked never allocates its buffer.
    ///
    /// # Panics
    ///
    /// Panics while a rewind is pending (the next fetch must replay).
    pub fn walk(&mut self, n: u64, mut visit: impl FnMut(u64, Option<u64>, Option<BranchInfo>)) {
        assert!(self.cursor.is_none(), "walk during a pending replay");
        // Keep the buffer contiguous: everything older is unrewindable.
        self.buffer.clear();
        self.next_seq += n;
        let base = self.thread_base;
        let mut left = n;
        while left > 0 {
            let block = &self.program.blocks[self.walk.block];
            let body = &block.body[self.walk.slot..];
            let take = (body.len() as u64).min(left) as usize;
            for s in &body[..take] {
                let addr = s
                    .access
                    .map(|a| self.walk.materialize(a, s.static_id, base));
                visit(s.pc + base, addr, None);
            }
            self.walk.slot += take;
            left -= take as u64;
            if left > 0 {
                let pc = block.branch_inst.pc + base;
                visit(pc, None, Some(self.walk.terminate(&self.program, base)));
                left -= 1;
            }
        }
    }

    /// Rewinds the stream so the next fetch returns sequence `seq` again.
    ///
    /// # Panics
    ///
    /// Panics if `seq` has fallen out of the replay window or has not been
    /// fetched yet.
    pub fn rewind_to(&mut self, seq: u64) {
        assert!(
            seq < self.next_seq,
            "cannot rewind to the future (seq {seq})"
        );
        let front = self.oldest_rewindable();
        assert!(
            seq >= front,
            "seq {seq} fell out of the replay window (oldest {front})"
        );
        self.cursor = Some(seq);
    }

    fn generate(&mut self) -> DynInst {
        let base = self.thread_base;
        let block = &self.program.blocks[self.walk.block];
        if let Some(&s) = block.body.get(self.walk.slot) {
            self.walk.slot += 1;
            let mem = s
                .access
                .map(|a| MemInfo::new(self.walk.materialize(a, s.static_id, base), 8));
            return DynInst {
                pc: s.pc + base,
                op: s.op,
                dest: s.dest,
                srcs: s.srcs,
                mem,
                branch: None,
            };
        }
        let s = block.branch_inst;
        DynInst {
            pc: s.pc + base,
            op: OpClass::Branch,
            dest: None,
            srcs: s.srcs,
            mem: None,
            branch: Some(self.walk.terminate(&self.program, base)),
        }
    }
}

/// The control-flow-graph walk: where the stream is, and every piece of
/// state its branch outcomes and data addresses are drawn from. The one
/// implementation behind both [`TraceSource::fetch`] and
/// [`TraceSource::walk`], so the two draw from the RNG in the same order.
#[derive(Clone, Debug)]
struct WalkState {
    block: usize,
    /// Next body instruction of `block`; `body.len()` means its terminator.
    slot: usize,
    loop_remaining: Vec<Option<u32>>,
    call_stack: Vec<usize>,
    // Per-static-instruction address state.
    stride_counters: Vec<u64>,
    chase_state: Vec<u64>,
    rng: SmallRng,
}

impl WalkState {
    /// Resolves the current block's terminator and moves to the start of
    /// the next block.
    fn terminate(&mut self, program: &Program, thread_base: u64) -> BranchInfo {
        let b = self.block;
        // Fall-through of the last block wraps to block 0 (hand-written
        // kernels may end in a conditional).
        let fallthrough = if b + 1 < program.blocks.len() {
            b + 1
        } else {
            0
        };
        let (taken, next, is_call, is_return) = match program.blocks[b].terminator {
            Terminator::Loop { target, trip_mean } => {
                let rng = &mut self.rng;
                let rem = self.loop_remaining[b]
                    .get_or_insert_with(|| trip_mean / 2 + rng.gen_range(0..trip_mean.max(1)));
                if *rem > 0 {
                    *rem -= 1;
                    (true, target, false, false)
                } else {
                    self.loop_remaining[b] = None;
                    (false, fallthrough, false, false)
                }
            }
            Terminator::Cond { target, taken_prob } => {
                if self.rng.gen::<f64>() < taken_prob {
                    (true, target, false, false)
                } else {
                    (false, fallthrough, false, false)
                }
            }
            Terminator::Jump { target } => (true, target, false, false),
            Terminator::Call { callee } => {
                self.call_stack.push(b + 1);
                (true, callee, true, false)
            }
            Terminator::Ret => {
                let ret = self.call_stack.pop().unwrap_or(0);
                (true, ret, false, true)
            }
        };
        self.block = next;
        self.slot = 0;
        BranchInfo {
            taken,
            next_pc: program.blocks[next].start_pc + thread_base,
            is_call,
            is_return,
        }
    }

    /// The data address of one dynamic instance of `access`. Region sizes
    /// are powers of two, so offsets wrap with a mask.
    fn materialize(&mut self, access: AccessPattern, static_id: u32, thread_base: u64) -> u64 {
        let sid = static_id as usize;
        let off = match access {
            AccessPattern::Strided { region, stride } => {
                let c = self.stride_counters[sid];
                self.stride_counters[sid] = c + 1;
                region.base() + ((c * stride as u64) & (region.size() - 1))
            }
            AccessPattern::Random { region } => {
                region.base() + (self.rng.gen_range(0..region.size()) & !7)
            }
            AccessPattern::PointerChase { region } => {
                let state = self.chase_state[sid];
                self.chase_state[sid] =
                    state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xB5);
                // Cache-line-aligned hops across the region.
                region.base() + ((state & (region.size() - 1)) & !63)
            }
        };
        DATA_BASE + thread_base + (off & !7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn source(name: &str, thread: usize) -> TraceSource {
        TraceSource::new(suite::by_name(name).unwrap().build_program(11), thread)
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = source("gcc", 0);
        let mut b = source("gcc", 0);
        for _ in 0..5000 {
            assert_eq!(a.fetch(), b.fetch());
        }
    }

    #[test]
    fn threads_have_disjoint_addresses() {
        let mut a = source("gcc", 0);
        let mut b = source("gcc", 1);
        for _ in 0..2000 {
            let (_, ia) = a.fetch();
            let (_, ib) = b.fetch();
            if let (Some(ma), Some(mb)) = (ia.mem, ib.mem) {
                assert_ne!(ma.addr >> 36, mb.addr >> 36);
            }
            assert_ne!(ia.pc >> 36, ib.pc >> 36);
        }
    }

    #[test]
    fn rewind_replays_identically() {
        let mut t = source("mcf", 0);
        let mut first: Vec<(u64, DynInst)> = Vec::new();
        for _ in 0..300 {
            first.push(t.fetch());
        }
        t.rewind_to(100);
        for item in first.iter().skip(100) {
            assert_eq!(t.fetch(), *item);
        }
        // After draining the replay, generation continues seamlessly.
        let (seq, _) = t.fetch();
        assert_eq!(seq, 300);
    }

    #[test]
    fn rewind_twice_is_allowed() {
        let mut t = source("mcf", 0);
        for _ in 0..50 {
            t.fetch();
        }
        t.rewind_to(10);
        t.fetch();
        t.rewind_to(5);
        assert_eq!(t.next_fetch_seq(), 5);
        let (seq, _) = t.fetch();
        assert_eq!(seq, 5);
    }

    #[test]
    #[should_panic(expected = "future")]
    fn rewind_to_future_panics() {
        let mut t = source("gcc", 0);
        t.fetch();
        t.rewind_to(5);
    }

    /// Every program a walk must reproduce: the benchmark suite, the
    /// kernel library and the shipped `kernels/*.s` files.
    fn every_program() -> Vec<(String, Program)> {
        let mut programs: Vec<(String, Program)> = suite::all()
            .iter()
            .map(|p| (p.name.to_owned(), p.build_program(11)))
            .collect();
        for k in crate::kernels::KERNELS {
            programs.push((k.name.to_owned(), k.assemble().unwrap()));
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "s"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no kernels/*.s found");
        for f in files {
            let source = std::fs::read_to_string(&f).unwrap();
            let program = crate::asm::assemble(&source).unwrap();
            programs.push((f.display().to_string(), program));
        }
        programs
    }

    /// What a walk reports of one fetched instruction.
    fn walked(inst: &DynInst) -> (u64, Option<u64>, Option<BranchInfo>) {
        (inst.pc, inst.mem.map(|m| m.addr), inst.branch)
    }

    #[test]
    fn unbuffered_advance_matches_fetch_stream() {
        const LONG: u64 = 10_000;
        const TAIL: u64 = 500;
        for (name, program) in every_program() {
            let mut plain = TraceSource::new(program.clone(), 1);
            let expected: Vec<(u64, DynInst)> = (0..LONG + TAIL).map(|_| plain.fetch()).collect();
            let is_branch = |i: usize| expected[i].1.branch.is_some();
            // Stops between two body instructions, just before a
            // terminator and just after one.
            let mid = (1..expected.len()).find(|&i| !is_branch(i - 1) && !is_branch(i));
            let before_term = (0..expected.len()).find(|&i| is_branch(i)).unwrap();
            let stops = [0, 1, before_term, before_term + 1, LONG as usize];
            for n in stops.into_iter().chain(mid) {
                let mut warmed = TraceSource::new(program.clone(), 1);
                let mut seen = Vec::new();
                warmed.walk(n as u64, |pc, addr, branch| seen.push((pc, addr, branch)));
                let want: Vec<_> = expected[..n].iter().map(|(_, i)| walked(i)).collect();
                assert!(seen == want, "{name}: walk of {n} left the fetch stream");
                assert_eq!(warmed.next_fetch_seq(), n as u64, "{name}");
                for item in &expected[n..n + TAIL as usize] {
                    assert_eq!(warmed.fetch(), *item, "{name}: fetch after a walk of {n}");
                }
                // Rewinds inside the post-walk stream still replay exactly.
                warmed.rewind_to(n as u64 + 10);
                for item in &expected[n + 10..n + TAIL as usize] {
                    assert_eq!(warmed.fetch(), *item, "{name}: replay after a walk of {n}");
                }
            }
        }
    }

    #[test]
    fn walk_after_fetches_continues_the_stream() {
        let mut plain = source("mcf", 0);
        let expected: Vec<(u64, DynInst)> = (0..700).map(|_| plain.fetch()).collect();
        let mut t = source("mcf", 0);
        for item in &expected[..100] {
            assert_eq!(t.fetch(), *item);
        }
        let mut seen = Vec::new();
        t.walk(500, |pc, addr, branch| seen.push((pc, addr, branch)));
        let want: Vec<_> = expected[100..600].iter().map(|(_, i)| walked(i)).collect();
        assert_eq!(seen, want);
        for item in &expected[600..] {
            assert_eq!(t.fetch(), *item);
        }
    }

    #[test]
    #[should_panic(expected = "fell out of the replay window")]
    fn rewind_into_unbuffered_warmup_panics() {
        let mut t = source("gcc", 0);
        t.walk(100, |_, _, _| {});
        for _ in 0..20 {
            t.fetch();
        }
        t.rewind_to(99);
    }

    #[test]
    #[should_panic(expected = "pending replay")]
    fn unbuffered_advance_refuses_a_pending_replay() {
        let mut t = source("gcc", 0);
        for _ in 0..10 {
            t.fetch();
        }
        t.rewind_to(5);
        t.walk(1, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "fell out of the replay window")]
    fn rewind_into_a_released_seq_panics() {
        let mut t = source("gcc", 0);
        for _ in 0..50 {
            t.fetch();
        }
        t.release_through(19);
        assert_eq!(t.oldest_rewindable(), 20);
        t.rewind_to(20);
        t.rewind_to(19);
    }

    #[test]
    fn release_keeps_a_pending_replay() {
        let mut t = source("mcf", 0);
        let first: Vec<(u64, DynInst)> = (0..40).map(|_| t.fetch()).collect();
        t.rewind_to(25);
        // Releasing past the cursor stops at it: the replay still owes
        // fetches of 25..40.
        t.release_through(35);
        assert_eq!((t.oldest_rewindable(), t.buffered()), (25, 15));
        for item in &first[25..30] {
            assert_eq!(t.fetch(), *item);
        }
        t.release_through(u64::MAX);
        assert_eq!((t.oldest_rewindable(), t.buffered()), (30, 10));
        for item in &first[30..] {
            assert_eq!(t.fetch(), *item);
        }
        t.release_through(u64::MAX);
        assert_eq!((t.oldest_rewindable(), t.buffered()), (40, 0));
        assert_eq!(t.fetch().0, 40);
    }

    /// A consumer that retires in order, with rewinds into its in-flight
    /// window, sees the same fetch stream whether or not it releases what
    /// it retired; a releasing one buffers only that window.
    #[test]
    fn released_source_streams_like_an_unreleased_one() {
        let mut kept = source("xalancbmk", 2);
        let mut released = source("xalancbmk", 2);
        let mut rng = SmallRng::seed_from_u64(5);
        // Every seq below `retired` has retired; `[retired, next fetch)`
        // is in flight.
        let mut retired = 0u64;
        let mut peak = 0;
        for _ in 0..20_000 {
            assert_eq!(released.fetch(), kept.fetch());
            let in_flight = released.next_fetch_seq() - retired;
            if rng.gen_range(0..50) == 0 {
                let back = retired + rng.gen_range(0..in_flight);
                kept.rewind_to(back);
                released.rewind_to(back);
            } else if in_flight > 200 || rng.gen_range(0..3) == 0 {
                retired += rng.gen_range(1..=in_flight);
                released.release_through(retired - 1);
            }
            assert_eq!(released.oldest_rewindable(), retired);
            peak = peak.max(released.buffered());
        }
        assert!(peak <= 400, "buffered {peak} beyond the in-flight window");
        assert!(kept.buffered() > peak);
    }

    #[test]
    fn branch_outcomes_resolve_to_valid_blocks() {
        let mut t = source("xalancbmk", 0);
        let program = t.program().clone();
        let starts: Vec<u64> = program.blocks.iter().map(|b| b.start_pc).collect();
        for _ in 0..20_000 {
            let (_, inst) = t.fetch();
            if let Some(br) = inst.branch {
                if br.taken || !starts.contains(&(br.next_pc)) {
                    assert!(
                        starts.contains(&br.next_pc),
                        "taken branch must land on a block start, got {:#x}",
                        br.next_pc
                    );
                }
            }
        }
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let mut t = source("gcc", 0);
        let profile = suite::by_name("gcc").unwrap();
        let n = 50_000;
        let (mut loads, mut stores, mut branches) = (0, 0, 0);
        for _ in 0..n {
            let (_, i) = t.fetch();
            match i.op {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!((lf - profile.frac_load).abs() < 0.08, "load fraction {lf}");
        assert!(
            (sf - profile.frac_store).abs() < 0.06,
            "store fraction {sf}"
        );
        assert!(
            (bf - profile.frac_branch).abs() < 0.08,
            "branch fraction {bf}"
        );
    }

    #[test]
    fn pointer_chase_addresses_are_serialized_through_registers() {
        let mut t = source("mcf", 0);
        let mut found = false;
        for _ in 0..5000 {
            let (_, i) = t.fetch();
            if i.is_load() && i.dest.is_some() && i.srcs[0] == i.dest.map(Some).unwrap_or(None) {
                found = true;
                break;
            }
        }
        assert!(found, "mcf must emit self-dependent chase loads");
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut t = source("gcc", 0);
        let mut depth: i64 = 0;
        let mut calls = 0;
        for _ in 0..100_000 {
            let (_, i) = t.fetch();
            if let Some(b) = i.branch {
                if b.is_call {
                    depth += 1;
                    calls += 1;
                }
                if b.is_return {
                    depth -= 1;
                }
                assert!(depth >= 0, "return without call");
                assert!(depth <= 64, "unbounded call depth");
            }
        }
        assert!(calls > 0, "gcc profile should exercise calls");
    }
}
