//! Event-driven cycle skipping must be *invisible*: `tick_bounded(n)` is
//! required to be bit-identical to `n` plain `tick()` calls — counters,
//! commit stream, trace tallies, occupancy samples, everything. These tests
//! drive the same workload through both engines and diff the results.

use shelfsim_core::{Core, CoreConfig, MemoryModel, SkipStats, SteerPolicy};
use shelfsim_workload::asm::assemble;
use shelfsim_workload::kernels;
use shelfsim_workload::TraceSource;

/// A pointer chase whose result is stored to a cell that the next load
/// reads back. After the first memory-order violation trains the store
/// set, that load sits data-ready in the issue pool, blocked only by its
/// elder store, which in turn waits on the chase's DRAM fill.
const STORE_SET_CHASE: &str = "\
top:
    load  r24, [r24], chase, region=mem
    store [r0], r24, stride=0, region=l1
    load  r10, [r0], stride=0, region=l1
    add   r9, r10
    loop  top, trips=300
";

/// A pointer chase whose result is stored, then a barrier. The barrier
/// waits at dispatch until the window and the store buffer drain, and
/// the store reads the chase load's result, so under a cluster-forwarding
/// penalty a shelf-steered store's source arrives from the IQ cluster a
/// few cycles after its ready cycle.
const BARRIER_CHASE: &str = "\
top:
    load  r24, [r24], chase, region=mem
    store [r0], r24, stride=0, region=l1
    barrier
    add   r8, r8
    loop  top, trips=300
";

/// Builds a core running the named kernels, one per thread: library
/// kernels, plus `store_set_chase` ([`STORE_SET_CHASE`]) and
/// `barrier_chase` ([`BARRIER_CHASE`]).
fn core_for(cfg: CoreConfig, kernel_names: &[&str]) -> Core {
    let sources = kernel_names
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let program = match *name {
                "store_set_chase" => assemble(STORE_SET_CHASE).expect("store_set_chase assembles"),
                "barrier_chase" => assemble(BARRIER_CHASE).expect("barrier_chase assembles"),
                _ => kernels::by_name(name)
                    .unwrap_or_else(|| panic!("kernel `{name}` in library"))
                    .assemble()
                    .expect("library kernels assemble"),
            };
            TraceSource::new(program, t)
        })
        .collect();
    let mut core = Core::new(cfg, sources);
    core.warm_caches();
    core
}

/// Runs the same workload twice — tick-by-tick and skip-enabled — and
/// asserts the architectural results are identical. Returns the skip
/// statistics so callers can assert the skip engine actually engaged.
fn assert_equivalent(cfg: CoreConfig, kernel_names: &[&str], cycles: u64) -> SkipStats {
    let mut plain = core_for(cfg.clone(), kernel_names);
    plain.set_cycle_skipping(false);
    plain.enable_commit_observer();
    let advanced = plain.tick_bounded(cycles);
    assert_eq!(advanced, cycles, "tick_bounded must advance exactly limit");
    assert_eq!(
        plain.skip_stats().skipped_cycles,
        0,
        "disabled engine skipped"
    );

    let mut skip = core_for(cfg, kernel_names);
    skip.enable_commit_observer();
    assert!(skip.cycle_skipping(), "skipping defaults on");
    let advanced = skip.tick_bounded(cycles);
    assert_eq!(advanced, cycles);

    assert_eq!(plain.now(), skip.now(), "cycle counters diverged");
    assert_eq!(plain.counters, skip.counters, "counters diverged");
    assert_eq!(
        plain.hierarchy().counters(),
        skip.hierarchy().counters(),
        "memory-hierarchy counters diverged"
    );
    for t in 0..kernel_names.len() {
        assert_eq!(plain.committed(t), skip.committed(t), "thread {t} commits");
    }
    let mut a = Vec::new();
    let mut b = Vec::new();
    plain.drain_commit_events(&mut a);
    skip.drain_commit_events(&mut b);
    assert_eq!(a.len(), b.len(), "commit stream lengths diverged");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.thread, y.thread);
        assert_eq!(x.seq, y.seq);
        assert_eq!(
            x.cycle, y.cycle,
            "commit cycle for t{} seq{}",
            x.seq, x.thread
        );
        assert_eq!(x.inst, y.inst);
    }

    let stats = skip.skip_stats().clone();
    assert_eq!(
        stats.skipped_cycles,
        stats.by_cause.iter().sum::<u64>(),
        "every skipped cycle must be attributed to a cause"
    );
    // One skip protocol: every span is a whole-core jump, and no window
    // tick ever contradicted its stillness judgement.
    assert_eq!(stats.spans, stats.park_jumps, "{stats:?}");
    assert_eq!(stats.probe_mismatches, 0, "{stats:?}");
    assert_eq!(stats.park_aborts, 0, "{stats:?}");
    stats
}

#[test]
fn skip_matches_tick_on_memory_bound_chase() {
    // A serialized pointer chase is the skip engine's best case: every DRAM
    // miss opens a multi-hundred-cycle idle span.
    let cfg = CoreConfig::base64_shelf64(1, SteerPolicy::Practical, true);
    let skipped = assert_equivalent(cfg, &["chase"], 40_000).skipped_cycles;
    assert!(
        skipped > 20_000,
        "chase should skip most of its cycles, skipped only {skipped}"
    );
}

#[test]
fn skip_matches_tick_on_two_thread_memory_bound_mix() {
    // Two threads: idle spans only open when *both* are still, so jumps are
    // rarer and interleaved with bursts of progress.
    let cycles = 40_000;
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    let stats = assert_equivalent(cfg.clone(), &["chase", "chase2"], cycles);
    assert!(
        stats.skipped_cycles > 0,
        "two blocked chases must still yield skips"
    );

    // A data-ready load blocked by its own thread's store set, next to a
    // live compute kernel: the block clears only at the elder store's
    // writeback, the thread's own event.
    assert_equivalent(cfg.clone(), &["store_set_chase", "reduce"], cycles);

    // Two MSHRs for four independent chases: ready loads lose MSHR
    // arbitration every cycle, a shared input that changes only at a fill,
    // and the jumps fire with them still.
    let mut saturated = cfg;
    saturated.hierarchy.data_mshrs = 2;
    let stats = assert_equivalent(saturated, &["chase2", "chase2"], cycles);
    assert!(
        stats.skipped_cycles > cycles / 2,
        "MSHR-saturated chases should jump: {stats:?}"
    );
}

#[test]
fn skip_matches_tick_on_compute_bound_kernel() {
    // A compute-bound kernel should barely skip — and must stay identical.
    let cfg = CoreConfig::base64(1);
    assert_equivalent(cfg, &["reduce"], 20_000);
}

#[test]
fn skip_matches_tick_across_designs_and_steers() {
    for (threads, kernels) in [(1usize, vec!["triad"]), (2usize, vec!["chase", "triad"])] {
        for mk in [
            CoreConfig::base64 as fn(usize) -> CoreConfig,
            CoreConfig::base128 as fn(usize) -> CoreConfig,
        ] {
            assert_equivalent(mk(threads), &kernels, 15_000);
        }
        for steer in [
            SteerPolicy::Practical,
            SteerPolicy::Oracle,
            SteerPolicy::AlwaysShelf,
        ] {
            let cfg = CoreConfig::base64_shelf64(threads, steer, true);
            assert_equivalent(cfg, &kernels, 15_000);
        }
    }
}

#[test]
fn tracer_tallies_and_samples_identical_under_skipping() {
    // Satellite: stall attribution and occupancy sampling must survive the
    // fast-forward — skipped spans are attributed to the blocking cause and
    // grid samples are emitted at pre-skip occupancy values.
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    let cycles = 30_000u64;

    let mut plain = core_for(cfg.clone(), &["chase", "chase2"]);
    plain.set_cycle_skipping(false);
    plain.enable_tracer(256, 100);
    plain.tick_bounded(cycles);

    let mut skip = core_for(cfg, &["chase", "chase2"]);
    skip.enable_tracer(256, 100);
    skip.tick_bounded(cycles);
    assert!(
        skip.skip_stats().skipped_cycles > 0,
        "memory-bound 2-thread run must skip"
    );

    let (pt, st) = (plain.tracer().unwrap(), skip.tracer().unwrap());
    for t in 0..2 {
        assert_eq!(
            pt.dispatch_stalls(t),
            st.dispatch_stalls(t),
            "dispatch stall tally diverged for thread {t}"
        );
        assert_eq!(
            pt.issue_stalls(t),
            st.issue_stalls(t),
            "issue stall tally diverged for thread {t}"
        );
        // The invariant the skip accounting must preserve: per-thread
        // per-side tallies sum exactly to the driven cycles.
        assert_eq!(st.dispatch_stalls(t).iter().sum::<u64>(), cycles);
        assert_eq!(st.issue_stalls(t).iter().sum::<u64>(), cycles);
    }
    // The tracer's own audit must agree: samples grid-aligned, tallies
    // complete, through both engines.
    pt.check_invariants(cycles)
        .expect("plain tracer invariants");
    st.check_invariants(cycles).expect("skip tracer invariants");
    let ps: Vec<_> = pt.samples().collect();
    let ss: Vec<_> = st.samples().collect();
    assert_eq!(ps, ss, "occupancy sample streams diverged");
    for w in ss.windows(2) {
        assert_eq!(
            w[1].cycle - w[0].cycle,
            100,
            "sampling grid must stay exact through skips"
        );
    }
}

#[test]
fn large_skip_spans_do_not_corrupt_cycle_arithmetic() {
    // Satellite: multi-thousand-cycle jumps exercise the skip path's
    // cycle-delta arithmetic. A chase over `mem` with a cold hierarchy
    // produces spans bounded only by the DRAM fill horizon.
    let cfg = CoreConfig::base64_shelf64(1, SteerPolicy::Practical, true);
    let mut core = core_for(cfg.clone(), &["chase"]);
    let cycles = 2_000_000u64;
    core.tick_bounded(cycles);
    assert_eq!(core.now(), cycles);
    assert_eq!(core.counters.cycles, cycles);
    let stats = core.skip_stats().clone();
    assert!(stats.spans > 0);
    assert!(stats.skipped_cycles < cycles);
    // Occupancy integrals (cycle-summed) must not have wrapped.
    for &occ in &core.counters.occupancy {
        assert!(occ < cycles * 1024, "occupancy integral implausible: {occ}");
    }
    // And the long run still matches a short tick-by-tick prefix.
    let mut prefix = core_for(cfg, &["chase"]);
    prefix.set_cycle_skipping(false);
    prefix.tick_bounded(50_000);
    assert!(prefix.committed(0) > 0);
}

#[test]
fn partial_skip_matches_tick_on_asymmetric_two_thread_mix() {
    // One mcf-like pointer chase blocked on DRAM while an hmmer-like
    // compute kernel keeps the core busy. Whole-core fixed points are rare
    // here; the few windows must still be invisible.
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    assert_equivalent(cfg, &["chase", "reduce"], 40_000);
}

#[test]
fn partial_skip_parks_blocked_threads_in_asymmetric_four_thread_mix() {
    // Two chases blocked on fills + two compute kernels running: windows
    // open only when the compute kernels stall too — and the run must
    // stay bit-identical doing it.
    let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
    let stats = assert_equivalent(cfg, &["chase", "reduce", "chase2", "triad"], 40_000);
    assert!(
        stats.skipped_cycles > 0,
        "blocked chases must skip: {stats:?}"
    );
}

#[test]
fn partial_skip_matches_tick_on_barrier_after_chase_store() {
    // A barrier behind a chase and a store holds dispatch until the DRAM
    // fill, the store's commit and the store-buffer drain; windows open
    // and close around each step. TSO also holds shelf heads behind
    // in-flight elder loads and keeps shelf stores in the SQ until they
    // complete.
    for model in [MemoryModel::Relaxed, MemoryModel::Tso] {
        for steer in [SteerPolicy::Practical, SteerPolicy::Oracle] {
            let mut cfg = CoreConfig::base64_shelf64(2, steer, true);
            cfg.memory_model = model;
            let stats = assert_equivalent(cfg, &["barrier_chase", "chase2"], 30_000);
            assert!(stats.skipped_cycles > 0, "{model:?} {steer:?}: {stats:?}");
        }
    }
}

#[test]
fn partial_skip_matches_tick_with_cluster_forwarding_penalty() {
    // A shelf head whose source comes from the IQ cluster becomes ready
    // `cluster_forward_penalty` cycles after the source's ready cycle,
    // with no event at that cycle: a window must not open across it,
    // including when the penalty ends exactly at the coming tick.
    let mut practical = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    practical.cluster_forward_penalty = 2;
    let stats = assert_equivalent(practical, &["barrier_chase", "chase2"], 30_000);
    assert!(stats.skipped_cycles > 0, "{stats:?}");

    // With TSO on top. Next to two compute kernels the only windows are
    // the ones the penalty check rejects, so the first mix skips nothing;
    // the second mix still jumps over the chases' fills.
    let mut oracle = CoreConfig::base64_shelf64(4, SteerPolicy::Oracle, true);
    oracle.memory_model = MemoryModel::Tso;
    oracle.cluster_forward_penalty = 3;
    assert_equivalent(
        oracle.clone(),
        &["barrier_chase", "reduce", "forward", "chase"],
        30_000,
    );
    let stats = assert_equivalent(
        oracle,
        &["barrier_chase", "reduce", "chase2", "chase"],
        30_000,
    );
    assert!(stats.skipped_cycles > 0, "{stats:?}");
}

#[test]
fn direct_ticks_between_bounded_blocks_stay_exact() {
    // Plain `tick()` calls between bounded blocks must run every stage
    // exactly, and each bounded block must judge stillness afresh before
    // it jumps.
    let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
    let kernels = ["chase", "reduce", "chase2", "triad"];
    let blocks = 1_000u64;

    let mut plain = core_for(cfg.clone(), &kernels);
    plain.set_cycle_skipping(false);
    plain.enable_commit_observer();
    plain.tick_bounded(blocks * 38);

    let mut mixed = core_for(cfg, &kernels);
    mixed.enable_commit_observer();
    for _ in 0..blocks {
        assert_eq!(mixed.tick_bounded(37), 37);
        mixed.tick();
    }

    assert_eq!(plain.now(), mixed.now(), "cycle counters diverged");
    assert_eq!(plain.counters, mixed.counters, "counters diverged");
    let mut a = Vec::new();
    let mut b = Vec::new();
    plain.drain_commit_events(&mut a);
    mixed.drain_commit_events(&mut b);
    assert_eq!(a, b, "commit streams diverged");
    let stats = mixed.skip_stats();
    assert!(
        stats.skipped_cycles > 0,
        "blocked chases must skip: {stats:?}"
    );
    assert_eq!(stats.park_aborts, 0, "{stats:?}");
}

#[test]
fn skip_state_resets_when_toggled_off() {
    let cfg = CoreConfig::base64_shelf64(1, SteerPolicy::Practical, true);
    let mut core = core_for(cfg, &["chase"]);
    core.tick_bounded(5_000);
    core.set_cycle_skipping(false);
    let before = core.skip_stats().skipped_cycles;
    core.tick_bounded(1_000);
    assert_eq!(
        core.skip_stats().skipped_cycles,
        before,
        "disabled engine must not skip"
    );
}
