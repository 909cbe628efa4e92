//! The retry contract of `Hierarchy::access_data`: an access rejected for
//! want of a data MSHR is rejected again at every cycle before the
//! rejection's `retry_at`, with no effect but the rejection count, and at
//! `retry_at` it runs exactly as if it had never been repeated.

use shelfsim_mem::{Hierarchy, HierarchyConfig, HierarchyCounters, Level, MshrFull};

/// L1D set stride of the default 32 KB 2-way cache.
const L1D_SET_STRIDE: u64 = 16 << 10;

const TARGET: u64 = 0x10_0000;

/// A hierarchy with two data MSHRs, both in flight, and a rejected access
/// to [`TARGET`] (resident in L2 or not, never in L1D): returns it, the
/// cycle of the rejection and the rejection.
fn rejected(l2_resident: bool) -> (Hierarchy, u64, MshrFull) {
    let mut h = Hierarchy::new(HierarchyConfig {
        data_mshrs: 2,
        ..Default::default()
    });
    let mut now = 0;
    if l2_resident {
        // Fill the target, then evict it from its L1D set with two other
        // blocks of that set: it stays in the 8-way L2.
        for addr in [TARGET, TARGET + L1D_SET_STRIDE, TARGET + 2 * L1D_SET_STRIDE] {
            now = h
                .access_data(addr, false, now)
                .expect("free MSHR")
                .complete_cycle;
        }
        assert_eq!(h.peek_data(TARGET), Level::L2);
    } else {
        assert_eq!(h.peek_data(TARGET), Level::Memory);
    }
    // Two misses to other blocks, three cycles apart, fill both registers.
    let first = h.access_data(0x80_0000, false, now).unwrap();
    h.access_data(0x90_0000, true, now + 3).unwrap();
    let at = now + 5;
    let err = h
        .access_data(TARGET, false, at)
        .expect_err("both MSHRs are in flight");
    assert_eq!(err.retry_at, first.complete_cycle, "the earliest fill");
    (h, at, err)
}

/// Counters with the data rejections zeroed.
fn without_rejections(mut c: HierarchyCounters) -> HierarchyCounters {
    c.data_rejections = 0;
    c
}

fn check_contract(l2_resident: bool) {
    let (mut repeated, at, err) = rejected(l2_resident);
    let untouched = repeated.clone();
    let mut counted = repeated.clone();
    for now in at..err.retry_at {
        let before = repeated.counters();
        assert!(repeated.would_reject_data(TARGET, now), "cycle {now}");
        assert_eq!(
            repeated.access_data(TARGET, false, now),
            Err(err),
            "cycle {now}"
        );
        let after = repeated.counters();
        assert_eq!(after.data_rejections, before.data_rejections + 1);
        assert_eq!(without_rejections(after), without_rejections(before));
        assert_eq!(repeated.peek_data(TARGET), untouched.peek_data(TARGET));
        counted.repeat_data_rejection();
    }
    let repeats = err.retry_at - at;
    assert_eq!(counted.counters(), repeated.counters());
    assert_eq!(
        repeated.counters().data_rejections,
        untouched.counters().data_rejections + repeats
    );

    // At `retry_at` a register is free: the access allocates, from the
    // level the target is in, on every copy alike.
    let now = err.retry_at;
    assert!(!repeated.would_reject_data(TARGET, now));
    let level = if l2_resident {
        Level::L2
    } else {
        Level::Memory
    };
    let want = Some(repeated.latency_of(level) as u64 + now);
    let mut after = Vec::new();
    for mut h in [repeated, counted, untouched] {
        let acc = h
            .access_data(TARGET, false, now)
            .expect("a register frees at retry_at");
        assert_eq!(acc.level, level);
        assert_eq!(Some(acc.complete_cycle), want);
        assert_eq!(h.peek_data(TARGET), Level::L1);
        after.push(without_rejections(h.counters()));
    }
    assert_eq!(after[0], after[1]);
    assert_eq!(after[0], after[2]);
}

#[test]
fn repeats_of_a_rejection_move_only_the_rejection_count_with_the_block_in_l2() {
    check_contract(true);
}

#[test]
fn repeats_of_a_rejection_move_only_the_rejection_count_with_the_block_absent() {
    check_contract(false);
}

#[test]
fn a_block_in_flight_merges_instead_of_being_rejected() {
    let (mut h, at, _) = rejected(false);
    // The two in-flight blocks merge even though the file is full.
    assert!(!h.would_reject_data(0x80_0000, at));
    let merged = h.access_data(0x80_0008, false, at).expect("merges");
    assert_eq!(merged.level, Level::L1);
}
