//! Directed tests of the shelf-specific mechanisms: resource pressure on
//! the extension tag space and virtual index space, shelf sizing, the
//! conservative/optimistic issue assumption, and the commit log.

use shelfsim_core::{Core, CoreConfig, EndKind, MemoryModel, QueueKind, Simulation, SteerPolicy};
use shelfsim_trace::StallCause;

fn run(cfg: CoreConfig, mix: &[&str], seed: u64) -> shelfsim_core::RunResult {
    let mut sim = Simulation::from_names(cfg, mix, seed).expect("suite benchmarks");
    sim.run(3_000, 12_000)
}

const MIX: [&str; 4] = ["gcc", "mcf", "hmmer", "lbm"];

#[test]
fn always_shelf_exercises_index_space_pressure() {
    // With everything steered to the shelf and a narrow index space, the
    // index-full stall must appear; with the paper's 2x space it should be
    // rarer.
    let base = CoreConfig::base64_shelf64(4, SteerPolicy::AlwaysShelf, true);
    let narrow = CoreConfig {
        narrow_shelf_index: true,
        ..base.clone()
    };
    let wide_run = run(base, &MIX, 3);
    let narrow_run = run(narrow, &MIX, 3);
    assert!(
        narrow_run.counters.stalls.shelf_index_full > wide_run.counters.stalls.shelf_index_full,
        "narrow index space should stall more (narrow {} vs wide {})",
        narrow_run.counters.stalls.shelf_index_full,
        wide_run.counters.stalls.shelf_index_full
    );
    assert_eq!(narrow_run.late_shelf_commits, 0);
}

#[test]
fn tiny_extension_tag_space_stalls_but_stays_correct() {
    // Shrink the shelf so the extension tag space (2x shelf + margin)
    // becomes the bottleneck under always-shelf pressure.
    let cfg = CoreConfig {
        shelf_entries: 8, // 2 entries per thread
        steer: SteerPolicy::AlwaysShelf,
        ..CoreConfig::base64_shelf64(4, SteerPolicy::AlwaysShelf, true)
    };
    let r = run(cfg, &MIX, 5);
    assert!(r.counters.committed > 0, "must still make progress");
    assert!(
        r.counters.stalls.shelf_full > 0 || r.counters.stalls.no_ext_tag > 0,
        "an 8-entry shelf must hit capacity stalls"
    );
    assert_eq!(r.late_shelf_commits, 0);
}

#[test]
fn shelf_size_sweep_saturates() {
    let mut ipcs = Vec::new();
    for shelf in [16usize, 64, 256] {
        let cfg = CoreConfig {
            shelf_entries: shelf,
            ..CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true)
        };
        ipcs.push(run(cfg, &MIX, 9).ipc());
    }
    // 64 entries should recover most of what 256 offers.
    assert!(
        ipcs[1] > ipcs[0] * 0.98,
        "64-entry shelf >= 16-entry: {ipcs:?}"
    );
    assert!(
        ipcs[2] < ipcs[1] * 1.15,
        "sizing saturates near 64: {ipcs:?}"
    );
}

#[test]
fn conservative_mode_sees_iq_issues_late() {
    // Same workload, same steering; the conservative design can only issue
    // shelf heads against the previous cycle's tracker, so its shelf issue
    // count per cycle should not exceed the optimistic design's by much and
    // its IPC should not be higher by more than noise.
    let cons = run(
        CoreConfig::base64_shelf64(4, SteerPolicy::AlwaysShelf, false),
        &MIX,
        12,
    );
    let opt = run(
        CoreConfig::base64_shelf64(4, SteerPolicy::AlwaysShelf, true),
        &MIX,
        12,
    );
    assert!(
        opt.ipc() >= cons.ipc() * 0.98,
        "optimistic ({}) should not trail conservative ({}) under pure in-order issue",
        opt.ipc(),
        cons.ipc()
    );
}

#[test]
fn tracer_commit_records_follow_program_order() {
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    let mut sim = Simulation::from_names(cfg, &["hmmer", "gcc"], 4).expect("suite");
    sim.enable_tracer(256, 64);
    let _ = sim.run(2_000, 8_000);
    let records: Vec<_> = sim
        .tracer()
        .expect("tracer enabled")
        .lifecycles()
        .filter(|r| r.end_kind == EndKind::Commit)
        .collect();
    assert!(records.len() > 64, "ring should fill");
    let mut last_seq = [0u64; 2];
    let mut shelf_seen = false;
    for r in &records {
        let issue = r.issue.expect("committed instructions issued");
        let complete = r.writeback.expect("committed instructions wrote back");
        // Lifecycle cycles are monotone within an instruction.
        assert!(r.fetch <= r.dispatch, "fetch after dispatch: {r:?}");
        assert!(r.dispatch <= issue, "dispatch after issue: {r:?}");
        assert!(issue <= complete, "issue after complete: {r:?}");
        assert!(complete <= r.end, "complete after commit: {r:?}");
        // Per-thread commit order is program order.
        let t = usize::from(r.thread);
        assert!(
            r.seq >= last_seq[t],
            "thread {t} commit order violated: {} after {}",
            r.seq,
            last_seq[t]
        );
        last_seq[t] = r.seq;
        shelf_seen |= r.queue == QueueKind::Shelf;
    }
    assert!(
        shelf_seen,
        "practical steering should commit shelf instructions"
    );
    // Commit cycles are globally non-decreasing in ring order.
    for w in records.windows(2) {
        assert!(w[0].end <= w[1].end);
    }
}

#[test]
fn run_until_committed_reaches_target() {
    let cfg = CoreConfig::base64(2);
    let mut sim = Simulation::from_names(cfg, &["hmmer", "h264ref"], 6).expect("suite");
    let r = sim.run_until_committed(2_000, 1_000, 200_000);
    for t in &r.threads {
        assert!(
            t.committed >= 1_000,
            "{} only committed {}",
            t.benchmark,
            t.committed
        );
    }
    assert!(r.cycles < 200_000, "should finish well before the cap");
}

#[test]
fn equal_work_comparison_matches_fixed_window_direction() {
    // The shelf should win under both measurement methodologies.
    let mut base = Simulation::from_names(CoreConfig::base64(4), &MIX, 8).expect("suite");
    let b = base.run_until_committed(3_000, 800, 300_000);
    let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
    let mut shelf = Simulation::from_names(cfg, &MIX, 8).expect("suite");
    let s = shelf.run_until_committed(3_000, 800, 300_000);
    // The equal-work metric is gated by the slowest thread (mcf here),
    // which the shelf barely accelerates, so only require comparability on
    // completion time — and a clear win on aggregate throughput.
    assert!(
        s.cycles <= b.cycles * 11 / 10,
        "equal work: shelf ({}) should finish in comparable time to base ({})",
        s.cycles,
        b.cycles
    );
    let tput = |r: &shelfsim_core::RunResult| {
        r.threads.iter().map(|t| t.committed).sum::<u64>() as f64 / r.cycles as f64
    };
    assert!(
        tput(&s) > tput(&b),
        "shelf aggregate throughput ({:.3}) should beat base ({:.3})",
        tput(&s),
        tput(&b)
    );
}

/// A pointer chase followed by two independent adds.
const CHASE_THEN_ADDS: &str = "\
top:
    load  r24, [r24], chase, region=mem
    add   r8, r8
    add   r9, r9
    loop  top, trips=300
";

/// Runs [`CHASE_THEN_ADDS`] on one thread for 20,000 cycles (tracer on,
/// skipping on) and returns the shelf-head stall buckets and the tracer's
/// issue-side `shelf_head_blocked` cycles.
fn chase_head_stalls(cfg: CoreConfig) -> ([u64; 5], u64) {
    let program = shelfsim_workload::asm::assemble(CHASE_THEN_ADDS).expect("kernel assembles");
    let mut core = Core::new(cfg, vec![shelfsim_workload::TraceSource::new(program, 0)]);
    core.enable_tracer(64, 1_000);
    core.warm_caches();
    core.tick_bounded(20_000);
    let tracer = core.tracer().expect("tracer enabled");
    let blocked = StallCause::ALL
        .iter()
        .position(|&c| c == StallCause::ShelfHeadBlocked)
        .expect("a cause");
    (
        core.counters.shelf_head_stalls,
        tracer.issue_stalls(0)[blocked],
    )
}

#[test]
fn heads_held_by_tso_or_forwarding_are_counted() {
    // Everything on the shelf: under the relaxed model the head is the
    // next chase load, waiting on the previous one (RAW); under TSO it is
    // an add behind the in-flight chase load, a memory-ordering hold with
    // its FU free. Either way the head waits for the DRAM fill, and every
    // such cycle lands in a bucket and in the tracer's issue attribution.
    let mut cfg = CoreConfig::base64_shelf64(1, SteerPolicy::AlwaysShelf, true);
    let (relaxed, relaxed_blocked) = chase_head_stalls(cfg.clone());
    cfg.memory_model = MemoryModel::Tso;
    let (tso, tso_blocked) = chase_head_stalls(cfg);
    let total = |b: [u64; 5]| b.iter().sum::<u64>();
    assert!(relaxed[2] > 10_000, "{relaxed:?}");
    assert!(tso[4] > 10_000 && tso[2] == 0, "{tso:?}");
    assert!(
        total(tso).abs_diff(total(relaxed)) < 100,
        "{tso:?} vs {relaxed:?}"
    );
    assert!(
        tso_blocked.abs_diff(relaxed_blocked) < 100,
        "{tso_blocked} vs {relaxed_blocked}"
    );

    // A source forwarded from the IQ cluster arrives `penalty` cycles
    // late: those cycles are RAW-bucket cycles.
    let mut cfg = CoreConfig::base64_shelf64(1, SteerPolicy::Practical, true);
    let (plain, _) = chase_head_stalls(cfg.clone());
    cfg.cluster_forward_penalty = 3;
    let (penalized, _) = chase_head_stalls(cfg);
    assert!(penalized[2] > plain[2], "{penalized:?} vs {plain:?}");
}
