//! Per-structure event counters.
//!
//! Every access to a major structure is counted so the energy model
//! (`shelfsim-energy`) can compute dynamic energy the way McPAT does:
//! events × per-event energy derived from structure geometry.

/// Wrapping-free counter increment for the hot accumulators (cycles,
/// commits, occupancy integrals): debug builds assert the add cannot
/// overflow; release builds saturate, so a pathological counter pegs at
/// `u64::MAX` instead of silently wrapping back through zero mid-way
/// through a long validation run.
#[inline]
pub fn acc(counter: &mut u64, by: u64) {
    debug_assert!(
        counter.checked_add(by).is_some(),
        "counter overflow: {counter} + {by}"
    );
    *counter = counter.saturating_add(by);
}

/// Scaled accumulate for the cycle-skip fast-forward path:
/// `counter += delta * k` with the same overflow discipline as [`acc`].
/// Skips can jump thousands of cycles at once, so the product itself is
/// checked in debug builds and saturated in release builds.
#[inline]
pub fn acc_scaled(counter: &mut u64, delta: u64, k: u64) {
    debug_assert!(
        delta
            .checked_mul(k)
            .and_then(|p| counter.checked_add(p))
            .is_some(),
        "counter overflow: {counter} + {delta} * {k}"
    );
    *counter = counter.saturating_add(delta.saturating_mul(k));
}

/// The scalar `u64` fields of [`Counters`], listed once so
/// [`Counters::diff`] and [`Counters::add_scaled`] cannot silently fall out
/// of sync with the struct definition (an exhaustive destructuring
/// generated from this list makes a missing field a compile error).
macro_rules! with_counter_fields {
    ($m:ident) => {
        $m!(
            cycles,
            fetched,
            wrong_path_fetched,
            dispatched,
            dispatched_shelf,
            issued,
            issued_shelf,
            committed,
            squashed,
            rat_reads,
            rat_writes,
            freelist_ops,
            ext_freelist_ops,
            iq_writes,
            iq_wakeup_cam,
            iq_issues,
            shelf_writes,
            shelf_reads,
            rob_writes,
            rob_reads,
            prf_reads,
            prf_writes,
            lq_writes,
            sq_writes,
            lsq_searches,
            bpred_lookups,
            branch_mispredicts,
            memory_violations,
            store_set_stalls,
            mshr_stalls,
            rct_ops,
            plt_ops
        );
    };
}

/// The fields of [`StallCounters`], listed once (same rationale).
macro_rules! with_stall_fields {
    ($m:ident) => {
        $m!(
            rob_full,
            iq_full,
            lq_full,
            sq_full,
            shelf_full,
            shelf_index_full,
            no_phys_reg,
            no_ext_tag,
            barrier
        );
    };
}

/// Dynamic event counts for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions fetched (including wrong path).
    pub fetched: u64,
    /// Synthetic wrong-path instructions fetched.
    pub wrong_path_fetched: u64,
    /// Instructions renamed/dispatched.
    pub dispatched: u64,
    /// Instructions dispatched to the shelf.
    pub dispatched_shelf: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Instructions issued from the shelf.
    pub issued_shelf: u64,
    /// Instructions committed (architectural).
    pub committed: u64,
    /// Instructions squashed after dispatch.
    pub squashed: u64,

    /// RAT read ports exercised (source lookups + prev-mapping reads).
    pub rat_reads: u64,
    /// RAT writes (destination mapping updates, including squash restores).
    pub rat_writes: u64,
    /// Free-list pushes/pops (physical list).
    pub freelist_ops: u64,
    /// Extension free-list pushes/pops.
    pub ext_freelist_ops: u64,

    /// IQ entry writes (dispatch).
    pub iq_writes: u64,
    /// IQ wakeup CAM match operations (every broadcast compares against
    /// every live source tag; we count per-entry-compared).
    pub iq_wakeup_cam: u64,
    /// IQ selection reads (issued entries drained).
    pub iq_issues: u64,

    /// Shelf FIFO writes.
    pub shelf_writes: u64,
    /// Shelf FIFO head reads (issue).
    pub shelf_reads: u64,

    /// ROB writes (dispatch).
    pub rob_writes: u64,
    /// ROB reads (commit/squash walks).
    pub rob_reads: u64,

    /// Physical register file reads.
    pub prf_reads: u64,
    /// Physical register file writes.
    pub prf_writes: u64,

    /// LQ allocations.
    pub lq_writes: u64,
    /// SQ allocations.
    pub sq_writes: u64,
    /// Associative LSQ searches (forwarding and violation scans; counted
    /// per-entry-compared, the CAM energy driver).
    pub lsq_searches: u64,

    /// Branch predictor lookups.
    pub bpred_lookups: u64,
    /// Branch mispredictions (direction or target).
    pub branch_mispredicts: u64,
    /// Memory-order violations (flush + replay).
    pub memory_violations: u64,
    /// Loads whose issue was blocked by a store-set dependence.
    pub store_set_stalls: u64,
    /// Issue attempts rejected because all data MSHRs were busy.
    pub mshr_stalls: u64,

    /// Functional-unit operations by kind: [int_alu, int_muldiv, fp, mem].
    pub fu_ops: [u64; 4],

    /// Ready-cycle-table updates (practical steering).
    pub rct_ops: u64,
    /// Parent-loads-table updates (practical steering).
    pub plt_ops: u64,

    /// Dispatch stalls by cause.
    pub stalls: StallCounters,

    /// Shelf-head stall cycles by first failing condition (diagnostic):
    /// [order barrier, SSR, RAW sources (a source not yet ready, or still
    /// being forwarded from the IQ cluster), WAW previous writer, memory
    /// ordering/structural (store set, TSO elder load, full store buffer,
    /// busy FU)].
    pub shelf_head_stalls: [u64; 5],

    /// ROB-head commit stalls by cause (diagnostic): [execution incomplete,
    /// waiting for elder shelf writebacks, store buffer full].
    pub commit_stalls: [u64; 3],

    /// Occupancy integrals (entry-cycles): divide by `cycles` for the mean
    /// occupancy of each structure. Order: [ROB, IQ, LQ, SQ, shelf,
    /// rename registers in use].
    pub occupancy: [u64; 6],
}

/// Dispatch-stage stall causes (one count per instruction-slot-cycle lost).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallCounters {
    /// ROB partition full.
    pub rob_full: u64,
    /// IQ full.
    pub iq_full: u64,
    /// LQ partition full.
    pub lq_full: u64,
    /// SQ partition full.
    pub sq_full: u64,
    /// Shelf partition full (entries).
    pub shelf_full: u64,
    /// Shelf virtual index space exhausted.
    pub shelf_index_full: u64,
    /// Physical free list empty.
    pub no_phys_reg: u64,
    /// Extension free list empty.
    pub no_ext_tag: u64,
    /// Memory barrier serialization.
    pub barrier: u64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed instructions per cycle across all threads.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of dispatched instructions steered to the shelf.
    pub fn shelf_dispatch_fraction(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.dispatched_shelf as f64 / self.dispatched as f64
        }
    }

    /// Mean occupancy of a structure over the measured window
    /// (see [`Counters::occupancy`] for the index order).
    pub fn mean_occupancy(&self, index: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy[index] as f64 / self.cycles as f64
        }
    }

    /// Field-by-field difference `self - before`.
    ///
    /// `before` must be an earlier snapshot of the same counter set (every
    /// field monotonically non-decreasing), which the skip engine's
    /// probe-and-diff protocol guarantees by construction.
    pub fn diff(&self, before: &Counters) -> Counters {
        let mut out = Counters::default();
        macro_rules! d {
            ($($f:ident),*) => { $( out.$f = self.$f - before.$f; )* };
        }
        with_counter_fields!(d);
        macro_rules! ds {
            ($($f:ident),*) => { $( out.stalls.$f = self.stalls.$f - before.stalls.$f; )* };
        }
        with_stall_fields!(ds);
        for i in 0..self.fu_ops.len() {
            out.fu_ops[i] = self.fu_ops[i] - before.fu_ops[i];
        }
        for i in 0..self.shelf_head_stalls.len() {
            out.shelf_head_stalls[i] = self.shelf_head_stalls[i] - before.shelf_head_stalls[i];
        }
        for i in 0..self.commit_stalls.len() {
            out.commit_stalls[i] = self.commit_stalls[i] - before.commit_stalls[i];
        }
        for i in 0..self.occupancy.len() {
            out.occupancy[i] = self.occupancy[i] - before.occupancy[i];
        }
        out
    }

    /// Accumulates `delta * k` into every field, with [`acc_scaled`]'s
    /// overflow discipline. This is how a skipped span of `k` identical idle
    /// cycles is folded into the run counters without visiting each cycle.
    pub fn add_scaled(&mut self, delta: &Counters, k: u64) {
        macro_rules! a {
            ($($f:ident),*) => { $( acc_scaled(&mut self.$f, delta.$f, k); )* };
        }
        with_counter_fields!(a);
        macro_rules! asx {
            ($($f:ident),*) => { $( acc_scaled(&mut self.stalls.$f, delta.stalls.$f, k); )* };
        }
        with_stall_fields!(asx);
        for i in 0..self.fu_ops.len() {
            acc_scaled(&mut self.fu_ops[i], delta.fu_ops[i], k);
        }
        for i in 0..self.shelf_head_stalls.len() {
            acc_scaled(
                &mut self.shelf_head_stalls[i],
                delta.shelf_head_stalls[i],
                k,
            );
        }
        for i in 0..self.commit_stalls.len() {
            acc_scaled(&mut self.commit_stalls[i], delta.commit_stalls[i], k);
        }
        for i in 0..self.occupancy.len() {
            acc_scaled(&mut self.occupancy[i], delta.occupancy[i], k);
        }
    }
}

/// Compile-time guard: destructures [`Counters`] without `..` so a new
/// struct field that is missing from `with_counter_fields!` fails the
/// build here instead of silently escaping `diff`/`add_scaled`.
macro_rules! exhaustiveness_guard {
    ($($f:ident),*) => {
        #[allow(dead_code, unused_variables)]
        fn _counter_field_list_is_exhaustive(c: &Counters) {
            let Counters {
                $($f,)*
                fu_ops,
                stalls,
                shelf_head_stalls,
                commit_stalls,
                occupancy,
            } = c;
        }
    };
}
with_counter_fields!(exhaustiveness_guard);

/// Same guard for [`StallCounters`] and `with_stall_fields!`.
macro_rules! stall_exhaustiveness_guard {
    ($($f:ident),*) => {
        #[allow(dead_code, unused_variables)]
        fn _stall_field_list_is_exhaustive(s: &StallCounters) {
            let StallCounters { $($f,)* } = s;
        }
    };
}
with_stall_fields!(stall_exhaustiveness_guard);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let c = Counters::new();
        assert_eq!(c.cycles, 0);
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.shelf_dispatch_fraction(), 0.0);
    }

    #[test]
    fn acc_adds_normally_below_the_limit() {
        let mut c = 0u64;
        for _ in 0..1000 {
            acc(&mut c, 3);
        }
        assert_eq!(c, 3000);
        // Near-max but not overflowing: still an ordinary add.
        let mut near = u64::MAX - 10;
        acc(&mut near, 10);
        assert_eq!(near, u64::MAX);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "counter overflow")]
    fn acc_overflow_is_caught_in_debug_builds() {
        let mut c = u64::MAX;
        acc(&mut c, 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn acc_saturates_in_release_builds() {
        let mut c = u64::MAX - 1;
        acc(&mut c, 5);
        assert_eq!(c, u64::MAX);
    }

    #[test]
    fn diff_and_add_scaled_round_trip() {
        let before = Counters {
            cycles: 100,
            committed: 40,
            lsq_searches: 7,
            occupancy: [1, 2, 3, 4, 5, 6],
            fu_ops: [10, 0, 0, 2],
            ..Default::default()
        };
        let mut after = before.clone();
        after.cycles += 1;
        after.lsq_searches += 3;
        after.stalls.rob_full += 2;
        after.occupancy[4] += 9;
        after.shelf_head_stalls[2] += 1;
        after.commit_stalls[0] += 1;
        let delta = after.diff(&before);
        assert_eq!(delta.cycles, 1);
        assert_eq!(delta.lsq_searches, 3);
        assert_eq!(delta.stalls.rob_full, 2);
        assert_eq!(delta.occupancy[4], 9);
        assert_eq!(delta.committed, 0);

        // Applying the delta k times by scaling matches k per-cycle adds.
        let mut scaled = after.clone();
        scaled.add_scaled(&delta, 5);
        let mut stepped = after.clone();
        for _ in 0..5 {
            let next = stepped.clone();
            stepped.add_scaled(&delta, 1);
            assert_eq!(stepped.diff(&next), delta);
        }
        assert_eq!(scaled, stepped);
    }

    #[test]
    fn acc_scaled_adds_normally_below_the_limit() {
        let mut c = 10u64;
        acc_scaled(&mut c, 3, 1000);
        assert_eq!(c, 3010);
        acc_scaled(&mut c, 0, u64::MAX);
        assert_eq!(c, 3010);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "counter overflow")]
    fn acc_scaled_overflow_is_caught_in_debug_builds() {
        let mut c = 1u64;
        acc_scaled(&mut c, u64::MAX / 2, 3);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn acc_scaled_saturates_in_release_builds() {
        let mut c = 1u64;
        acc_scaled(&mut c, u64::MAX / 2, 3);
        assert_eq!(c, u64::MAX);
    }

    #[test]
    fn derived_ratios() {
        let c = Counters {
            cycles: 100,
            committed: 250,
            dispatched: 300,
            dispatched_shelf: 150,
            ..Default::default()
        };
        assert!((c.ipc() - 2.5).abs() < 1e-12);
        assert!((c.shelf_dispatch_fraction() - 0.5).abs() < 1e-12);
    }
}
