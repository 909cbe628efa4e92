//! Functional execution of a [`Program`] into a dynamic instruction stream,
//! with bounded replay for squash-and-refetch.

use crate::program::{AccessPattern, Program, Terminator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shelfsim_isa::{BranchInfo, DynInst, MemInfo, OpClass};
use std::collections::VecDeque;

/// Base virtual address of a program's data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Replay window: must exceed the deepest possible in-flight state
/// (ROB + shelf + front end + execution pipes).
const REPLAY_CAPACITY: usize = 8192;

/// A per-thread dynamic instruction source.
///
/// `TraceSource` walks the program's control-flow graph, drawing loop trip
/// counts and data-dependent branch outcomes from a seeded RNG, and
/// materializing memory addresses from each static instruction's access
/// pattern. Every emitted instruction is retained in a bounded replay buffer
/// so the core can *rewind* after a memory-order violation or memory
/// dependence mispredict (paper §III-D: "cause a pipeline flush and restart
/// at the mispredicted instruction") and receive byte-identical
/// instructions.
///
/// All code and data addresses are offset by a per-thread base so SMT
/// threads, like the paper's multiprogrammed mixes, share no data.
#[derive(Clone, Debug)]
pub struct TraceSource {
    program: Program,
    thread_base: u64,
    // CFG walk state.
    block: usize,
    slot: usize,
    loop_remaining: Vec<Option<u32>>,
    call_stack: Vec<usize>,
    // Per-static-instruction address state.
    stride_counters: Vec<u64>,
    chase_state: Vec<u64>,
    rng: SmallRng,
    // Stream state.
    next_seq: u64,
    buffer: VecDeque<(u64, DynInst)>,
    /// When set, the next fetch replays from the buffer at this sequence.
    cursor: Option<u64>,
}

impl TraceSource {
    /// Creates a source for `program` running as SMT context `thread_index`.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`Program::validate`] (hand-built
    /// programs with out-of-range targets or inconsistent layout would
    /// otherwise fail deep inside the simulator).
    pub fn new(program: Program, thread_index: usize) -> Self {
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
            block: 0,
            slot: 0,
            loop_remaining: vec![None; nb],
            call_stack: Vec::new(),
            stride_counters: vec![0; n],
            chase_state: (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
            rng: SmallRng::seed_from_u64(seed),
            next_seq: 0,
            // Allocated by the first buffered fetch.
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
        } else if self.buffer.capacity() == 0 {
            self.buffer.reserve_exact(REPLAY_CAPACITY);
        }
        self.buffer.push_back((seq, inst));
        (seq, inst)
    }

    /// Generates the next dynamic instruction without retaining it for
    /// replay: the stream advances exactly as [`TraceSource::fetch`] would,
    /// but nothing before the returned sequence can be rewound to
    /// afterwards. For functional warm-up, whose instructions never enter
    /// the pipeline: it skips the replay-buffer copy, and a source that
    /// has only been warmed never allocates its buffer.
    ///
    /// # Panics
    ///
    /// Panics while a rewind is pending (the next fetch must replay).
    pub fn advance_unbuffered(&mut self) -> (u64, DynInst) {
        assert!(
            self.cursor.is_none(),
            "unbuffered advance during a pending replay"
        );
        if !self.buffer.is_empty() {
            // Keep the buffer contiguous: everything older is unrewindable.
            self.buffer.clear();
        }
        let inst = self.generate();
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, inst)
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
        let front = self
            .buffer
            .front()
            .map(|&(s, _)| s)
            .expect("non-empty replay buffer");
        assert!(
            seq >= front,
            "seq {seq} fell out of the replay window (oldest {front})"
        );
        self.cursor = Some(seq);
    }

    fn generate(&mut self) -> DynInst {
        let block = &self.program.blocks[self.block];
        if self.slot < block.body.len() {
            let s = block.body[self.slot];
            self.slot += 1;
            let mem = s
                .access
                .map(|a| MemInfo::new(self.materialize(a, s.static_id), 8));
            return DynInst {
                pc: s.pc + self.thread_base,
                op: s.op,
                dest: s.dest,
                srcs: s.srcs,
                mem,
                branch: None,
            };
        }
        // Terminator.
        let b = self.block;
        let s = block.branch_inst;
        let term = block.terminator;
        // Fall-through of the last block wraps to block 0 (hand-written
        // kernels may end in a conditional).
        let fallthrough = if b + 1 < self.program.blocks.len() {
            b + 1
        } else {
            0
        };
        let (taken, next, is_call, is_return) = match term {
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
        let next_pc = self.program.blocks[next].start_pc + self.thread_base;
        self.block = next;
        self.slot = 0;
        DynInst {
            pc: s.pc + self.thread_base,
            op: OpClass::Branch,
            dest: None,
            srcs: s.srcs,
            mem: None,
            branch: Some(BranchInfo {
                taken,
                next_pc,
                is_call,
                is_return,
            }),
        }
    }

    fn materialize(&mut self, access: AccessPattern, static_id: u32) -> u64 {
        let sid = static_id as usize;
        let off = match access {
            AccessPattern::Strided { region, stride } => {
                let c = self.stride_counters[sid];
                self.stride_counters[sid] = c + 1;
                let base = region.base();
                base + (c * stride as u64) % region.size()
            }
            AccessPattern::Random { region } => {
                region.base() + (self.rng.gen_range(0..region.size()) & !7)
            }
            AccessPattern::PointerChase { region } => {
                let state = self.chase_state[sid];
                self.chase_state[sid] =
                    state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xB5);
                // Cache-line-aligned hops across the region.
                region.base() + ((state % region.size()) & !63)
            }
        };
        DATA_BASE + self.thread_base + (off & !7)
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

    #[test]
    fn unbuffered_advance_matches_fetch_stream() {
        for name in ["gcc", "mcf", "xalancbmk"] {
            let (n, m) = (3_000u64, 500u64);
            let mut plain = source(name, 1);
            let mut warmed = source(name, 1);
            let expected: Vec<(u64, DynInst)> = (0..n + m).map(|_| plain.fetch()).collect();
            for item in &expected[..n as usize] {
                assert_eq!(warmed.advance_unbuffered(), *item);
            }
            assert_eq!(warmed.next_fetch_seq(), n);
            for item in &expected[n as usize..] {
                assert_eq!(warmed.fetch(), *item);
            }
            // Rewinds inside the post-warm-up stream still replay exactly.
            warmed.rewind_to(n + 10);
            for item in &expected[(n + 10) as usize..] {
                assert_eq!(warmed.fetch(), *item);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fell out of the replay window")]
    fn rewind_into_unbuffered_warmup_panics() {
        let mut t = source("gcc", 0);
        for _ in 0..100 {
            t.advance_unbuffered();
        }
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
        t.advance_unbuffered();
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
