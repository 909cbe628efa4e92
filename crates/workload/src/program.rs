//! Static synthetic programs: basic blocks, loops, calls, and memory access
//! patterns, built deterministically from a [`BenchmarkProfile`].

use crate::profile::BenchmarkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shelfsim_isa::{ArchReg, OpClass};

/// Which data region an access targets (sized to be L1-resident,
/// L2-resident, or memory-bound against the Table I hierarchy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// 16 KB region: fits in the 32 KB L1D.
    L1,
    /// 1 MB region: fits in the 2 MB L2, misses L1.
    L2,
    /// 16 MB region: exceeds the L2.
    Mem,
}

impl Region {
    /// Region size in bytes.
    pub fn size(self) -> u64 {
        match self {
            Region::L1 => 16 << 10,
            Region::L2 => 1 << 20,
            Region::Mem => 16 << 20,
        }
    }

    /// Region base offset within the program's data segment.
    pub fn base(self) -> u64 {
        match self {
            Region::L1 => 0,
            Region::L2 => 0x10_0000,
            Region::Mem => 0x100_0000,
        }
    }
}

/// The address stream of one static memory instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// `base + stride * n` within the region (streaming).
    Strided {
        /// Target region.
        region: Region,
        /// Byte stride between consecutive accesses.
        stride: u32,
    },
    /// Serialized dependent chain of cache-hostile accesses.
    PointerChase {
        /// Target region.
        region: Region,
    },
    /// Uniformly random addresses within the region.
    Random {
        /// Target region.
        region: Region,
    },
}

/// A static instruction inside a block body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticInst {
    /// Index into per-static state tables (stride counters, chase state).
    pub static_id: u32,
    /// Instruction PC.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register.
    pub dest: Option<ArchReg>,
    /// Source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Address pattern for loads/stores.
    pub access: Option<AccessPattern>,
}

/// How a block's terminating branch behaves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Terminator {
    /// Back-edge: re-execute this block `trip` times per entry (drawn
    /// around `trip_mean`), then fall through. Highly predictable.
    Loop {
        /// Block to loop back to (this block).
        target: usize,
        /// Mean trip count.
        trip_mean: u32,
    },
    /// Data-dependent forward branch to `target` with probability
    /// `taken_prob`, else fall through.
    Cond {
        /// Skip target.
        target: usize,
        /// Probability the branch is taken.
        taken_prob: f64,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: usize,
    },
    /// Call the function whose entry block is `callee`; execution resumes
    /// at the next block after the function returns.
    Call {
        /// Function entry block.
        callee: usize,
    },
    /// Return to the caller (or to block 0 if the stack is empty).
    Ret,
}

/// One basic block: a body of non-branch instructions plus a terminator
/// branch instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Non-branch body instructions.
    pub body: Vec<StaticInst>,
    /// The terminating branch.
    pub terminator: Terminator,
    /// The terminator's own static instruction (a branch reading `cond`).
    pub branch_inst: StaticInst,
    /// PC of the first body instruction.
    pub start_pc: u64,
}

impl Block {
    /// Total instructions in the block including the terminator.
    pub fn len(&self) -> usize {
        self.body.len() + 1
    }

    /// Blocks always contain at least the terminator.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A complete static program.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Benchmark name this program was built from.
    pub name: &'static str,
    /// All basic blocks; `0..main_blocks` form the main chain, the rest are
    /// function bodies reachable only through calls.
    pub blocks: Vec<Block>,
    /// Number of main-chain blocks.
    pub main_blocks: usize,
    /// Total static instruction count (for per-static state tables).
    pub num_statics: u32,
    /// Seed the program was built with (for diagnostics).
    pub seed: u64,
}

/// A structural defect found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramError(pub String);

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// PC of the instruction following the given block (the fall-through
    /// continuation).
    pub fn fallthrough_pc(&self, block: usize) -> u64 {
        self.blocks[block].start_pc + 4 * self.blocks[block].len() as u64
    }

    /// Total static footprint in instructions.
    pub fn footprint(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Checks structural well-formedness: non-empty, in-range terminator
    /// targets, contiguous PCs, dense unique static ids, memory ops carry
    /// access patterns, and branch instructions terminate every block.
    /// Hand-constructed programs (tests, external tools) should validate
    /// before running; [`crate::asm::assemble`] output always passes.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first defect found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        use shelfsim_isa::OpClass;
        if self.blocks.is_empty() {
            return Err(ProgramError("program has no blocks".into()));
        }
        let n = self.blocks.len();
        let mut seen = vec![false; self.num_statics as usize];
        let mut expected_pc = self.blocks[0].start_pc;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.start_pc != expected_pc {
                return Err(ProgramError(format!(
                    "block {i} starts at {:#x}, expected contiguous {expected_pc:#x}",
                    b.start_pc
                )));
            }
            for inst in b.body.iter().chain(std::iter::once(&b.branch_inst)) {
                let id = inst.static_id as usize;
                if id >= seen.len() || seen[id] {
                    return Err(ProgramError(format!(
                        "block {i}: static id {id} out of range or duplicated"
                    )));
                }
                seen[id] = true;
                if inst.op.is_mem() != inst.access.is_some() {
                    return Err(ProgramError(format!(
                        "block {i}: memory op / access pattern mismatch at pc {:#x}",
                        inst.pc
                    )));
                }
            }
            if b.branch_inst.op != OpClass::Branch {
                return Err(ProgramError(format!(
                    "block {i}: terminator is not a branch"
                )));
            }
            let target = match b.terminator {
                Terminator::Loop { target, trip_mean } => {
                    if trip_mean < 2 {
                        return Err(ProgramError(format!("block {i}: loop trips < 2")));
                    }
                    target
                }
                Terminator::Cond { target, taken_prob } => {
                    if !(0.0..=1.0).contains(&taken_prob) {
                        return Err(ProgramError(format!(
                            "block {i}: branch probability {taken_prob} out of range"
                        )));
                    }
                    target
                }
                Terminator::Jump { target } => target,
                Terminator::Call { callee } => callee,
                Terminator::Ret => 0,
            };
            if target >= n {
                return Err(ProgramError(format!(
                    "block {i}: terminator target {target} out of range ({n} blocks)"
                )));
            }
            expected_pc = self.fallthrough_pc(i);
        }
        if !seen.iter().all(|&s| s) {
            return Err(ProgramError("static ids are not dense".into()));
        }
        Ok(())
    }
}

/// Builds a [`Program`] from a profile and seed.
pub struct ProgramBuilder<'a> {
    profile: &'a BenchmarkProfile,
    rng: SmallRng,
    seed: u64,
    next_static: u32,
    next_pc: u64,
    /// Recently written registers (for dependence chaining).
    recent: Vec<ArchReg>,
}

const CODE_BASE: u64 = 0x40_0000;
/// Long-lived integer registers (array bases, accumulators).
const GLOBAL_INT: std::ops::Range<u8> = 0..8;
/// Rotating integer destination pool.
const DEST_INT: std::ops::Range<u8> = 8..24;
/// Rotating FP destination pool.
const DEST_FP: std::ops::Range<u8> = 8..24;
/// Dedicated pointer-chase registers.
const PTR_INT: std::ops::Range<u8> = 24..28;

impl<'a> ProgramBuilder<'a> {
    /// Creates a builder for `profile` with deterministic `seed`.
    pub fn new(profile: &'a BenchmarkProfile, seed: u64) -> Self {
        ProgramBuilder {
            profile,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_5EED),
            seed,
            next_static: 0,
            next_pc: CODE_BASE,
            recent: Vec::new(),
        }
    }

    /// Builds the program.
    pub fn build(mut self) -> Program {
        let p = self.profile;
        // Block body length targets the requested branch fraction: one
        // terminator branch per block.
        let body_len = ((1.0 / p.frac_branch.max(0.02)) - 1.0).round().max(1.0) as usize;
        let avg_block = body_len + 1;
        let num_blocks = (p.code_footprint / avg_block).max(4);
        let num_fns = (num_blocks / 12).clamp(1, 4);
        let fn_blocks = num_fns * 2;
        let main_blocks = num_blocks.saturating_sub(fn_blocks).max(2);

        let mut blocks = Vec::with_capacity(main_blocks + fn_blocks);
        // Function entry block indices, known ahead of layout.
        let fn_entries: Vec<usize> = (0..num_fns).map(|f| main_blocks + 2 * f).collect();

        for b in 0..main_blocks {
            let term = self.pick_main_terminator(b, main_blocks, &fn_entries);
            blocks.push(self.build_block(body_len, term));
        }
        for f in 0..num_fns {
            let entry = main_blocks + 2 * f;
            blocks.push(self.build_block(body_len, Terminator::Jump { target: entry + 1 }));
            blocks.push(self.build_block(body_len, Terminator::Ret));
        }

        Program {
            name: p.name,
            blocks,
            main_blocks,
            num_statics: self.next_static,
            seed: self.seed,
        }
    }

    fn pick_main_terminator(
        &mut self,
        b: usize,
        main_blocks: usize,
        fn_entries: &[usize],
    ) -> Terminator {
        if b == main_blocks - 1 {
            // Close the outer infinite loop.
            return Terminator::Jump { target: 0 };
        }
        let roll: f64 = self.rng.gen();
        if roll < 0.30 {
            let trip_mean = self.profile.mean_trip_count.max(2);
            Terminator::Loop {
                target: b,
                trip_mean,
            }
        } else if roll < 0.60 {
            // Forward conditional skips. Long, strongly-taken skips create
            // *cold* code regions, so the dynamic instruction footprint is
            // loop-dominated like real programs (most SPEC time is spent in
            // a small hot subset of the static code) — without them every
            // static block is hot and 4-thread mixes thrash the shared L1I
            // far beyond anything real workloads do.
            let cold_skip = self.rng.gen::<f64>() < 0.5;
            let (span, taken_prob) = if cold_skip {
                (8usize, 0.95)
            } else {
                let p = if self.rng.gen::<f64>() < self.profile.branch_entropy {
                    0.35 + self.rng.gen::<f64>() * 0.3 // hard-to-predict
                } else if self.rng.gen() {
                    0.05
                } else {
                    0.92
                };
                (3usize, p)
            };
            let max_skip = (main_blocks - 1 - b).clamp(1, span);
            let target = b + 1 + self.rng.gen_range(0..max_skip);
            Terminator::Cond {
                target: target.min(main_blocks - 1),
                taken_prob,
            }
        } else if roll < 0.72 && !fn_entries.is_empty() {
            let callee = fn_entries[self.rng.gen_range(0..fn_entries.len())];
            Terminator::Call { callee }
        } else {
            Terminator::Jump { target: b + 1 }
        }
    }

    fn build_block(&mut self, body_len: usize, terminator: Terminator) -> Block {
        let start_pc = self.next_pc;
        // Jitter body length +/- 30%.
        let jitter = (body_len as f64 * 0.3) as usize;
        let len = if jitter > 0 {
            body_len - jitter + self.rng.gen_range(0..=2 * jitter)
        } else {
            body_len
        };
        let len = len.max(1);
        let mut body = Vec::with_capacity(len);
        for _ in 0..len.max(1) {
            body.push(self.build_body_inst());
        }
        let branch_inst = self.build_branch_inst(&terminator);
        Block {
            body,
            terminator,
            branch_inst,
            start_pc,
        }
    }

    fn alloc_static(&mut self) -> (u32, u64) {
        let id = self.next_static;
        self.next_static += 1;
        let pc = self.next_pc;
        self.next_pc += 4;
        (id, pc)
    }

    fn pick_source(&mut self, fp: bool) -> ArchReg {
        let chained = !self.recent.is_empty() && self.rng.gen::<f64>() < self.profile.chain_density;
        if chained {
            // Prefer the most recent compatible destination.
            let pool: Vec<ArchReg> = self
                .recent
                .iter()
                .rev()
                .take(4)
                .copied()
                .filter(|r| r.is_fp() == fp)
                .collect();
            if let Some(&r) = pool.first() {
                return r;
            }
        }
        let n = self.rng.gen_range(GLOBAL_INT.start..GLOBAL_INT.end);
        if fp {
            ArchReg::fp(n)
        } else {
            ArchReg::int(n)
        }
    }

    fn pick_dest(&mut self, fp: bool) -> ArchReg {
        let r = if fp {
            ArchReg::fp(self.rng.gen_range(DEST_FP.start..DEST_FP.end))
        } else {
            ArchReg::int(self.rng.gen_range(DEST_INT.start..DEST_INT.end))
        };
        self.recent.push(r);
        if self.recent.len() > 8 {
            self.recent.remove(0);
        }
        r
    }

    fn pick_region(&mut self) -> Region {
        let roll: f64 = self.rng.gen();
        if roll < self.profile.mem_l1_frac {
            Region::L1
        } else if roll < self.profile.mem_l1_frac + self.profile.mem_l2_frac {
            Region::L2
        } else {
            Region::Mem
        }
    }

    fn build_body_inst(&mut self) -> StaticInst {
        let p = self.profile;
        // Rescale the load/store fractions to the non-branch budget.
        let scale = 1.0 / (1.0 - p.frac_branch).max(0.05);
        let roll: f64 = self.rng.gen();
        let (id, pc) = self.alloc_static();
        if roll < p.frac_load * scale {
            // Load.
            if self.rng.gen::<f64>() < p.pointer_chase {
                let ptr = ArchReg::int(self.rng.gen_range(PTR_INT.start..PTR_INT.end));
                let region = if self.rng.gen::<f64>() < 0.7 {
                    Region::Mem
                } else {
                    Region::L2
                };
                return StaticInst {
                    static_id: id,
                    pc,
                    op: OpClass::Load,
                    dest: Some(ptr),
                    srcs: [Some(ptr), None],
                    access: Some(AccessPattern::PointerChase { region }),
                };
            }
            let region = self.pick_region();
            let access = if self.rng.gen::<f64>() < 0.75 {
                let stride = *[8u32, 8, 16, 64].get(self.rng.gen_range(0..4)).unwrap();
                AccessPattern::Strided { region, stride }
            } else {
                AccessPattern::Random { region }
            };
            let dest = self.pick_dest(false);
            let base = ArchReg::int(self.rng.gen_range(GLOBAL_INT.start..GLOBAL_INT.end));
            StaticInst {
                static_id: id,
                pc,
                op: OpClass::Load,
                dest: Some(dest),
                srcs: [Some(base), None],
                access: Some(access),
            }
        } else if roll < (p.frac_load + p.frac_store) * scale {
            // Store: address mostly strided; data register chains.
            let region = self.pick_region();
            let stride = *[8u32, 8, 16, 64].get(self.rng.gen_range(0..4)).unwrap();
            let base = ArchReg::int(self.rng.gen_range(GLOBAL_INT.start..GLOBAL_INT.end));
            let data_is_fp = self.rng.gen::<f64>() < p.frac_fp;
            let data = self.pick_source(data_is_fp);
            StaticInst {
                static_id: id,
                pc,
                op: OpClass::Store,
                dest: None,
                srcs: [Some(base), Some(data)],
                access: Some(AccessPattern::Strided { region, stride }),
            }
        } else {
            // Arithmetic.
            let fp = self.rng.gen::<f64>() < p.frac_fp;
            let op = if self.rng.gen::<f64>() < p.frac_muldiv {
                match (fp, self.rng.gen::<f64>() < 0.15) {
                    (false, false) => OpClass::IntMul,
                    (false, true) => OpClass::IntDiv,
                    (true, false) => OpClass::FpMul,
                    (true, true) => OpClass::FpDiv,
                }
            } else if fp {
                OpClass::FpAlu
            } else {
                OpClass::IntAlu
            };
            let s1 = self.pick_source(fp);
            let s2 = if self.rng.gen::<f64>() < 0.7 {
                Some(self.pick_source(fp))
            } else {
                None
            };
            let dest = self.pick_dest(fp);
            StaticInst {
                static_id: id,
                pc,
                op,
                dest: Some(dest),
                srcs: [Some(s1), s2],
                access: None,
            }
        }
    }

    fn build_branch_inst(&mut self, term: &Terminator) -> StaticInst {
        let (id, pc) = self.alloc_static();
        // Conditional terminators read a recently computed register: the
        // branch outcome is data-dependent, as in real code.
        let cond = match term {
            Terminator::Cond { .. } | Terminator::Loop { .. } => {
                Some(self.recent.last().copied().unwrap_or(ArchReg::int(0)))
            }
            _ => None,
        };
        StaticInst {
            static_id: id,
            pc,
            op: OpClass::Branch,
            dest: None,
            srcs: [cond, None],
            access: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn build(name: &str, seed: u64) -> Program {
        suite::by_name(name).unwrap().build_program(seed)
    }

    #[test]
    fn block_layout_is_contiguous() {
        let p = build("gcc", 1);
        let mut expected_pc = CODE_BASE;
        for b in &p.blocks {
            assert_eq!(b.start_pc, expected_pc);
            for (i, inst) in b.body.iter().enumerate() {
                assert_eq!(inst.pc, b.start_pc + 4 * i as u64);
            }
            assert_eq!(b.branch_inst.pc, b.start_pc + 4 * b.body.len() as u64);
            expected_pc =
                p.fallthrough_pc(p.blocks.iter().position(|x| std::ptr::eq(x, b)).unwrap());
        }
    }

    #[test]
    fn terminator_targets_are_valid() {
        for name in ["gcc", "mcf", "bwaves", "lbm"] {
            let p = build(name, 2);
            for (i, b) in p.blocks.iter().enumerate() {
                match b.terminator {
                    Terminator::Loop { target, trip_mean } => {
                        assert_eq!(target, i, "loops are self-loops");
                        assert!(trip_mean >= 2);
                    }
                    Terminator::Cond { target, taken_prob } => {
                        assert!(target < p.main_blocks);
                        assert!(target > i, "cond branches are forward");
                        assert!((0.0..=1.0).contains(&taken_prob));
                    }
                    Terminator::Jump { target } => {
                        assert!(target < p.blocks.len());
                    }
                    Terminator::Call { callee } => {
                        assert!(callee >= p.main_blocks, "callees live after the main chain");
                        assert!(callee < p.blocks.len());
                    }
                    Terminator::Ret => {
                        assert!(i >= p.main_blocks, "only function blocks return");
                    }
                }
            }
        }
    }

    #[test]
    fn last_main_block_closes_outer_loop() {
        let p = build("mcf", 3);
        assert_eq!(
            p.blocks[p.main_blocks - 1].terminator,
            Terminator::Jump { target: 0 }
        );
    }

    #[test]
    fn static_ids_are_dense_and_unique() {
        let p = build("astar", 4);
        let mut seen = vec![false; p.num_statics as usize];
        for b in &p.blocks {
            for i in b.body.iter().chain(std::iter::once(&b.branch_inst)) {
                assert!(!seen[i.static_id as usize], "duplicate static id");
                seen[i.static_id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "static ids must be dense");
        assert_eq!(p.footprint(), p.num_statics as usize);
    }

    #[test]
    fn memory_bound_profile_has_big_regions() {
        let p = build("mcf", 5);
        let chases = p
            .blocks
            .iter()
            .flat_map(|b| &b.body)
            .filter(|i| matches!(i.access, Some(AccessPattern::PointerChase { .. })))
            .count();
        assert!(chases > 0, "mcf must pointer-chase");
    }

    #[test]
    fn footprint_tracks_profile() {
        let small = build("libquantum", 6).footprint();
        let large = build("gcc", 6).footprint();
        assert!(
            large > small,
            "gcc has a larger code footprint than libquantum"
        );
    }

    #[test]
    fn generated_and_assembled_programs_validate() {
        for name in ["gcc", "mcf", "lbm"] {
            suite::by_name(name)
                .unwrap()
                .build_program(3)
                .validate()
                .expect("suite program");
        }
        crate::asm::assemble("t:\n add r8, r8\n loop t, trips=5\n")
            .unwrap()
            .validate()
            .expect("assembled kernel");
    }

    #[test]
    fn validate_catches_defects() {
        let mut p = suite::by_name("lbm").unwrap().build_program(1);
        p.blocks[0].terminator = Terminator::Jump { target: 999 };
        assert!(p
            .validate()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let mut p = suite::by_name("lbm").unwrap().build_program(1);
        p.blocks[1].start_pc += 4;
        assert!(p.validate().unwrap_err().to_string().contains("contiguous"));

        let mut p = suite::by_name("lbm").unwrap().build_program(1);
        p.blocks[0].branch_inst.op = shelfsim_isa::OpClass::IntAlu;
        assert!(p
            .validate()
            .unwrap_err()
            .to_string()
            .contains("not a branch"));

        let empty = Program {
            name: "x",
            blocks: vec![],
            main_blocks: 0,
            num_statics: 0,
            seed: 0,
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn region_geometry() {
        assert!(Region::L1.size() < 32 << 10);
        assert!(Region::L2.size() < 2 << 20);
        assert!(Region::Mem.size() > 2 << 20);
        assert!(Region::L1.base() < Region::L2.base());
        assert!(Region::L2.base() + Region::L2.size() <= Region::Mem.base());
    }

    #[test]
    fn region_sizes_are_powers_of_two() {
        // Address generation wraps offsets with `size - 1` as a mask.
        for r in [Region::L1, Region::L2, Region::Mem] {
            assert!(r.size().is_power_of_two(), "{r:?}");
        }
    }
}
