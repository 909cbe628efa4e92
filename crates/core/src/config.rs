//! Core configuration (paper Table I) and the evaluated design points.

use shelfsim_mem::HierarchyConfig;

/// Memory consistency model (paper §III-D).
///
/// The paper evaluates the relaxed ARMv7 model; it scopes out stricter
/// models (TSO / sequential consistency) while describing exactly what they
/// would cost the shelf: loads remain speculative until all elder loads
/// complete, so *every* shelf instruction behind an incomplete load must
/// delay its writeback, and shelf stores must allocate store-queue entries
/// because the store buffer may not coalesce. [`MemoryModel::Tso`]
/// implements those constraints so the cost can be measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MemoryModel {
    /// Relaxed/weak ordering (ARMv7-like), the paper's evaluated model.
    #[default]
    Relaxed,
    /// Total Store Order: shelf writebacks wait for elder loads; shelf
    /// stores allocate SQ entries.
    Tso,
}

/// SMT fetch policy (paper Table I uses ICOUNT, Tullsen et al. 1996).
///
/// The paper notes that ICOUNT is *synergistic* with shelf steering: fetch
/// bandwidth flows to fast-moving threads while stalled threads' work goes
/// to the shelf. Round-robin is provided as the ablation baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// Fewest instructions in the pre-issue pipeline fetch first.
    #[default]
    Icount,
    /// Strict rotation among eligible threads.
    RoundRobin,
}

/// Instruction steering policy (paper §IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteerPolicy {
    /// Everything to the IQ: a conventional OOO core (the shelf is unused).
    AlwaysIq,
    /// Everything to the shelf: approximates an in-order core.
    AlwaysShelf,
    /// The practical RCT + PLT hardware mechanism (§IV-B).
    Practical,
    /// The greedy oracle with knowledge of the future schedule (§IV-A).
    Oracle,
}

/// Full configuration of one simulated core.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Hardware thread contexts (1, 2, 4, or 8).
    pub threads: usize,
    /// Fetch width (Table I: 8-wide fetch).
    pub fetch_width: usize,
    /// Decode/rename/dispatch width (Table I: 4-wide OOO).
    pub dispatch_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Fetch-to-dispatch depth in cycles (Table I: 6).
    pub fetch_to_dispatch: u32,
    /// Total ROB entries, statically partitioned across threads.
    pub rob_entries: usize,
    /// Total IQ entries (shared among threads).
    pub iq_entries: usize,
    /// Total load-queue entries, partitioned.
    pub lq_entries: usize,
    /// Total store-queue entries, partitioned.
    pub sq_entries: usize,
    /// Total shelf entries, partitioned (0 disables the shelf).
    pub shelf_entries: usize,
    /// Steering policy.
    pub steer: SteerPolicy,
    /// Per-thread store-buffer entries (post-commit stores draining to L1D).
    pub store_buffer_entries: usize,
    /// Functional units: simple int ALUs (also branches).
    pub fu_int_alu: usize,
    /// Functional units: int multiply/divide.
    pub fu_int_muldiv: usize,
    /// Functional units: FP.
    pub fu_fp: usize,
    /// Functional units: memory ports.
    pub fu_mem_ports: usize,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Optimistic microarchitecture assumption (§III-A): allow a shelf head
    /// to issue in the same cycle as the last older IQ instruction (the
    /// issue-tracking bitvector update is bypassed into wakeup-select).
    /// `false` models the conservative design that keeps the update off the
    /// critical path, making the shelf head see IQ issues one cycle late.
    pub same_cycle_shelf_issue: bool,
    /// Ablation (§III-B): use a single speculation shift register instead of
    /// the IQ/shelf pair, reintroducing the starvation pathology.
    pub single_ssr: bool,
    /// Ablation (§III-B): shrink the shelf index space to 1x the entry count
    /// (indices release only at writeback), recreating the resource shortage
    /// the doubled virtual index space removes.
    pub narrow_shelf_index: bool,
    /// Fetch and execute synthetic wrong-path instructions after a
    /// mispredicted branch until it resolves (they allocate real resources
    /// and are squashed at resolution).
    pub wrong_path_fetch: bool,
    /// Practical steering: RCT counter width in bits (Table I: 5).
    pub rct_bits: u32,
    /// Practical steering: PLT columns per thread (Table I: 4).
    pub plt_columns: u32,
    /// Memory consistency model (§III-D; the paper evaluates `Relaxed`).
    pub memory_model: MemoryModel,
    /// Branch direction-predictor organization.
    pub predictor: shelfsim_uarch::PredictorKind,
    /// Clustered-backend forwarding penalty (paper §VI: the shelf and the
    /// IQ may live in different clusters). A value produced in one cluster
    /// costs this many extra cycles to consume from the other. 0 = the
    /// evaluated monolithic backend.
    pub cluster_forward_penalty: u32,
    /// SMT fetch policy (Table I: ICOUNT).
    pub fetch_policy: FetchPolicy,
}

impl CoreConfig {
    /// The paper's baseline: 4-thread SMT, 64-entry ROB, 32-entry IQ/LQ/SQ,
    /// no shelf (Table I "Base 64").
    pub fn base64(threads: usize) -> Self {
        CoreConfig {
            threads,
            fetch_width: 8,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            fetch_to_dispatch: 6,
            rob_entries: 64,
            iq_entries: 32,
            lq_entries: 32,
            sq_entries: 32,
            shelf_entries: 0,
            steer: SteerPolicy::AlwaysIq,
            store_buffer_entries: 8,
            fu_int_alu: 3,
            fu_int_muldiv: 1,
            fu_fp: 2,
            fu_mem_ports: 2,
            hierarchy: HierarchyConfig::default(),
            same_cycle_shelf_issue: false,
            single_ssr: false,
            narrow_shelf_index: false,
            wrong_path_fetch: true,
            rct_bits: 5,
            plt_columns: 4,
            memory_model: MemoryModel::Relaxed,
            predictor: shelfsim_uarch::PredictorKind::Tournament,
            cluster_forward_penalty: 0,
            fetch_policy: FetchPolicy::Icount,
        }
    }

    /// The doubled design: 128-entry ROB, 64-entry IQ/LQ/SQ ("Base 128"),
    /// the paper's upper bound for the shelf's improvement.
    pub fn base128(threads: usize) -> Self {
        CoreConfig {
            rob_entries: 128,
            iq_entries: 64,
            lq_entries: 64,
            sq_entries: 64,
            ..Self::base64(threads)
        }
    }

    /// The shelf-augmented design: Base 64 plus a 64-entry shelf ("64+64").
    ///
    /// `optimistic` selects the same-cycle-issue microarchitecture
    /// assumption (the paper reports both bars in Figures 10 and 13).
    pub fn base64_shelf64(threads: usize, steer: SteerPolicy, optimistic: bool) -> Self {
        CoreConfig {
            shelf_entries: 64,
            steer,
            same_cycle_shelf_issue: optimistic,
            ..Self::base64(threads)
        }
    }

    /// Hard cap on hardware threads per core. [`CoreConfig::validate`]
    /// enforces it, and the skip engine's per-thread bitmasks are sized
    /// from the same constant — a const assertion in `skip.rs` ties the two
    /// together so raising the cap for wider SMT campaigns cannot silently
    /// overflow a mask.
    pub const MAX_THREADS: usize = 8;

    /// ROB entries available to each thread (static partitioning, §V).
    pub fn rob_per_thread(&self) -> usize {
        (self.rob_entries / self.threads).max(1)
    }

    /// LQ entries per thread.
    pub fn lq_per_thread(&self) -> usize {
        (self.lq_entries / self.threads).max(1)
    }

    /// SQ entries per thread.
    pub fn sq_per_thread(&self) -> usize {
        (self.sq_entries / self.threads).max(1)
    }

    /// Shelf entries per thread (0 when the shelf is disabled).
    pub fn shelf_per_thread(&self) -> usize {
        if self.shelf_entries == 0 {
            0
        } else {
            (self.shelf_entries / self.threads).max(1)
        }
    }

    /// Number of functional units in the pool that executes `kind`
    /// (config introspection for the static-analysis passes).
    pub fn fu_count(&self, kind: shelfsim_isa::FuKind) -> usize {
        match kind {
            shelfsim_isa::FuKind::IntAlu => self.fu_int_alu,
            shelfsim_isa::FuKind::IntMulDiv => self.fu_int_muldiv,
            shelfsim_isa::FuKind::Fp => self.fu_fp,
            shelfsim_isa::FuKind::MemPort => self.fu_mem_ports,
        }
    }

    /// Total functional units across all pools: a hard cap on sustained
    /// issue throughput regardless of width.
    pub fn fu_total(&self) -> usize {
        self.fu_int_alu + self.fu_int_muldiv + self.fu_fp + self.fu_mem_ports
    }

    /// Per-thread front-end buffer capacity (fetch pipe), partitioned.
    pub fn frontend_per_thread(&self) -> usize {
        ((self.fetch_to_dispatch as usize * self.fetch_width) / self.threads).max(self.fetch_width)
    }

    /// Physical register file size: architectural state for every thread
    /// plus one rename register per ROB entry (IQ instructions allocate; the
    /// shelf does not — that is the point of the design).
    pub fn num_phys_regs(&self) -> usize {
        self.threads * shelfsim_isa::NUM_ARCH_REGS + self.rob_entries
    }

    /// Extension tag space size (paper §III-C).
    ///
    /// An extension tag stays live for as long as the mapping it installed
    /// is current: a register whose *last* writer was a shelf instruction
    /// holds its tag until an IQ instruction re-renames the register and
    /// retires. Every RAT entry of every thread can therefore hold one
    /// extension tag simultaneously, on top of the in-flight shelf
    /// instructions (one tag each, held until their superseding writer
    /// retires — bounded by the doubled virtual index space). Undersizing
    /// this pool is not just a stall risk but a deadlock risk under
    /// all-shelf steering.
    pub fn num_ext_tags(&self) -> usize {
        if self.shelf_entries == 0 {
            0
        } else {
            self.threads * shelfsim_isa::NUM_ARCH_REGS + 2 * self.shelf_entries + 16
        }
    }

    /// Total wakeup tag space (physical + extension).
    pub fn num_tags(&self) -> usize {
        self.num_phys_regs() + self.num_ext_tags()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero widths, zero threads,
    /// shelf with no steering, etc.).
    pub fn validate(&self) {
        assert!(
            self.threads >= 1 && self.threads <= Self::MAX_THREADS,
            "1..={} threads supported",
            Self::MAX_THREADS
        );
        assert!(self.fetch_width >= 1 && self.dispatch_width >= 1);
        assert!(self.issue_width >= 1 && self.commit_width >= 1);
        assert!(
            self.rob_entries >= self.threads,
            "need at least one ROB entry per thread"
        );
        assert!(self.iq_entries >= 1);
        assert!(self.lq_entries >= self.threads && self.sq_entries >= self.threads);
        assert!(self.store_buffer_entries >= 1);
        assert!(self.fu_int_alu >= 1 && self.fu_mem_ports >= 1);
        if self.shelf_entries == 0 {
            assert_eq!(
                self.steer,
                SteerPolicy::AlwaysIq,
                "steering to a shelf requires shelf entries"
            );
        }
        assert!((1..=8).contains(&self.rct_bits));
        assert!((1..=8).contains(&self.plt_columns));
    }

    /// A deterministic 64-bit fingerprint of the full configuration
    /// (FNV-1a over the canonical `Debug` rendering). Equal configurations
    /// hash equal; any field change changes the hash. Used to key campaign
    /// journal entries and to stamp [`crate::sim::RunMeta`] so a result can
    /// be matched back to the exact design point that produced it.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cap_is_max_threads_exactly() {
        // The cap itself must validate...
        CoreConfig::base64(CoreConfig::MAX_THREADS).validate();
        // ...and one past it must panic (see the should_panic test below),
        // so the skip engine's const tie to MAX_THREADS is load-bearing.
        assert_eq!(CoreConfig::MAX_THREADS, 8);
    }

    #[test]
    #[should_panic(expected = "threads supported")]
    fn over_cap_thread_count_is_rejected() {
        CoreConfig {
            threads: CoreConfig::MAX_THREADS + 1,
            ..CoreConfig::base64(1)
        }
        .validate();
    }

    #[test]
    fn table1_baseline_values() {
        let c = CoreConfig::base64(4);
        c.validate();
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.dispatch_width, 4);
        assert_eq!(c.fetch_to_dispatch, 6);
        assert_eq!(c.rob_per_thread(), 16);
        assert_eq!(c.shelf_per_thread(), 0);
    }

    #[test]
    fn doubled_design() {
        let c = CoreConfig::base128(4);
        c.validate();
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.iq_entries, 64);
        assert_eq!(c.lq_entries, 64);
    }

    #[test]
    fn shelf_design() {
        let c = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
        c.validate();
        assert_eq!(c.shelf_entries, 64);
        assert_eq!(c.shelf_per_thread(), 16);
        assert!(c.same_cycle_shelf_issue);
        assert!(c.num_ext_tags() > 0);
    }

    #[test]
    fn phys_reg_budget_scales_with_rob_not_shelf() {
        let base = CoreConfig::base64(4);
        let shelf = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
        let big = CoreConfig::base128(4);
        assert_eq!(
            base.num_phys_regs(),
            shelf.num_phys_regs(),
            "the shelf adds no PRF"
        );
        assert!(big.num_phys_regs() > base.num_phys_regs());
    }

    #[test]
    #[should_panic(expected = "shelf")]
    fn steering_without_shelf_panics() {
        let mut c = CoreConfig::base64(4);
        c.steer = SteerPolicy::Practical;
        c.validate();
    }

    #[test]
    fn single_thread_partitions() {
        let c = CoreConfig::base64(1);
        c.validate();
        assert_eq!(c.rob_per_thread(), 64);
        assert_eq!(c.lq_per_thread(), 32);
    }
}
