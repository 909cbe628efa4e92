//! Observability-layer tests: the fetch-group block-crossing regression,
//! cycle-exact lifecycle timestamps against a hand-derived pipeline
//! schedule, and exporter sanity on a live core.

use shelfsim::core::{Core, EndKind, FetchPolicy, QueueKind, Simulation, StallCause};
use shelfsim::workload::asm::assemble;
use shelfsim::workload::TraceSource;
use shelfsim::CoreConfig;

/// A straight-line kernel: `body` independent ALU ops (distinct
/// destinations reading the r0–r7 input pool) followed by a loop back-edge.
fn straightline_program(body: usize) -> shelfsim::workload::Program {
    let mut src = String::from("top:\n");
    for i in 0..body {
        src.push_str(&format!("    add r{}, r{}\n", 8 + (i % 16), i % 8));
    }
    src.push_str("    loop top, trips=64\n");
    assemble(&src).expect("straight-line kernel assembles")
}

/// Satellite regression: a fetch group that crosses an I-cache block
/// boundary must probe (and be able to miss on) the second block.
///
/// Geometry: instructions are 4 bytes and blocks 64 bytes, so instructions
/// 0..=15 sit in block A and 16.. in block B (the code base is
/// block-aligned). `fetch_width = 6` does not divide 16, so the third
/// fetch group (instructions 12..=17) straddles A→B.
///
/// On a cold cache, the fixed core takes the second I-miss *inside* that
/// straddling group: exactly 16 instructions (0..=15) have been fetched
/// when L1I misses reach 2. The old code probed only at `fetched == 0`,
/// streamed instructions 16..=17 out of a block it never accessed, and
/// only missed on the next group — 18 fetched. This assertion fails on
/// that behavior.
#[test]
fn icache_probes_second_block_of_straddling_group() {
    let cfg = CoreConfig {
        fetch_width: 6,
        ..CoreConfig::base64(1)
    };
    cfg.validate();
    let program = straightline_program(30);
    let mut core = Core::new(cfg, vec![TraceSource::new(program, 0)]);
    for _ in 0..3_000 {
        core.tick();
        if core.hierarchy().l1i_stats().misses() >= 2 {
            break;
        }
    }
    assert_eq!(
        core.hierarchy().l1i_stats().misses(),
        2,
        "cold block B must take its own I-miss"
    );
    assert_eq!(
        core.counters.fetched, 16,
        "the straddling group must stop at the block boundary it missed on"
    );
}

/// Tentpole correctness: exported lifecycle timestamps of a hand-built
/// two-thread program, asserted cycle-exactly against the schedule the
/// documented pipeline rules imply.
///
/// Setup: Base-64 (all-IQ), 2 threads, round-robin fetch, warm caches,
/// straight-line independent ALU ops. The rules that fix the schedule:
///
/// * round-robin fetch starts at thread 1 and alternates, one thread per
///   cycle, so thread 1 fetches at cycle 0 and thread 0 at cycle 1;
/// * a fetched instruction is dispatchable at `fetch + fetch_to_dispatch`
///   (6), and dispatch round-robins threads within the width-4 budget;
/// * ready sources put a dispatched instruction in the issue pool no
///   earlier than `dispatch + 1`; selection is oldest-first over 3 integer
///   ALUs (the binding constraint, under the width of 4);
/// * an ALU op completes `issue + 1`, and writeback precedes commit within
///   a cycle, so the ROB head can commit the cycle it completes.
///
/// Derived schedule for the first instructions of each thread:
///
/// | inst      | fetch | dispatch | issue | writeback | commit |
/// |-----------|-------|----------|-------|-----------|--------|
/// | T1 seq 0  |   0   |    6     |   7   |     8     |   8    |
/// | T1 seq 1  |   0   |    6     |   7   |     8     |   8    |
/// | T1 seq 2  |   0   |    6     |   7   |     8     |   8    |
/// | T1 seq 3  |   0   |    6     |   8   |     9     |   9    |
/// | T0 seq 0  |   1   |    7     |   8   |     9     |   9    |
///
/// (T1 seq 3 is the fourth of four simultaneously-ready ops: it loses the
/// 3-ALU arbitration at cycle 7 and issues a cycle later; T0 seq 0, fetched
/// a cycle after thread 1, dispatches at 7 and is its cycle-8 issue
/// cohort's second-oldest.)
#[test]
fn two_thread_lifecycle_timestamps_are_cycle_exact() {
    let cfg = CoreConfig {
        fetch_policy: FetchPolicy::RoundRobin,
        ..CoreConfig::base64(2)
    };
    cfg.validate();
    let program = straightline_program(200);
    let mut core = Core::new(
        cfg,
        vec![
            TraceSource::new(program.clone(), 0),
            TraceSource::new(program, 1),
        ],
    );
    core.warm_caches();
    core.enable_tracer(64, 1);
    for _ in 0..12 {
        core.tick();
    }
    let tracer = core.tracer().expect("tracer enabled");
    let find = |thread: u8, seq: u64| {
        tracer
            .lifecycles()
            .find(|lc| lc.thread == thread && lc.seq == seq)
            .unwrap_or_else(|| panic!("T{thread} seq {seq} must have ended within 12 cycles"))
    };
    let expect = [
        // (thread, seq, fetch, dispatch, issue, writeback, commit)
        (1, 0, 0, 6, 7, 8, 8),
        (1, 1, 0, 6, 7, 8, 8),
        (1, 2, 0, 6, 7, 8, 8),
        (1, 3, 0, 6, 8, 9, 9),
        (0, 0, 1, 7, 8, 9, 9),
    ];
    for (thread, seq, fetch, dispatch, issue, writeback, commit) in expect {
        let lc = find(thread, seq);
        assert_eq!(
            lc.queue,
            QueueKind::Iq,
            "base64 steers everything to the IQ"
        );
        assert_eq!(lc.end_kind, EndKind::Commit, "T{thread} seq {seq}");
        assert_eq!(
            (lc.fetch, lc.dispatch, lc.issue, lc.writeback, lc.end),
            (fetch, dispatch, Some(issue), Some(writeback), commit),
            "T{thread} seq {seq} lifecycle"
        );
    }
    // The exporters must carry the same cycles.
    let jsonl = tracer.export_jsonl();
    assert!(jsonl.contains("\"thread\":1,\"seq\":3,"));
    assert!(jsonl.contains("\"fetch\":0,\"dispatch\":6,\"issue\":8,\"writeback\":9,\"end\":9"));
    let chrome = tracer.export_chrome();
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"ph\":\"C\""));
}

/// Pins the diagnosis of the low IPC of the two-thread mix `base64
/// gcc,mcf` (see `EXPERIMENTS.md`): it is slow because both workloads are
/// memory-bound — the ROB head parks on miss loads (dispatch `rob_full`)
/// and issue waits on operands (mcf: `data_wait`) — NOT because of a
/// scheduler defect. If an engine change makes `iq_full`, `fu_busy`, or
/// `width_limited` dominate here, that is a real anomaly and this fails.
#[test]
fn two_thread_mix_is_memory_bound_not_scheduler_bound() {
    let cfg = CoreConfig::base64(2);
    let mut sim = Simulation::from_names(cfg, &["gcc", "mcf"], 7).expect("known benchmarks");
    sim.enable_tracer(64, 32);
    let r = sim.run(2_000, 8_000);
    assert!(
        r.ipc() < 0.5,
        "the mix stays memory-bound (got {})",
        r.ipc()
    );
    let tracer = sim.tracer().expect("tracer enabled");
    let argmax = |row: &[u64]| {
        StallCause::ALL[row
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| **n)
            .expect("non-empty")
            .0]
    };
    for t in 0..2 {
        assert_eq!(
            argmax(tracer.dispatch_stalls(t)),
            StallCause::RobFull,
            "thread {t}: dispatch must be ROB-head-bound, not queue/width-bound"
        );
    }
    assert_eq!(
        argmax(tracer.issue_stalls(1)),
        StallCause::DataWait,
        "mcf issue must be operand-bound (pointer chasing)"
    );
}

/// The occupancy sampler and stall attribution run on a live core and the
/// attribution accounts every sampled cycle on both sides.
#[test]
fn attribution_accounts_every_cycle() {
    let cfg = CoreConfig {
        fetch_policy: FetchPolicy::RoundRobin,
        ..CoreConfig::base64(2)
    };
    let program = straightline_program(64);
    let mut core = Core::new(
        cfg,
        vec![
            TraceSource::new(program.clone(), 0),
            TraceSource::new(program, 1),
        ],
    );
    core.warm_caches();
    core.enable_tracer(32, 1);
    let cycles = 200u64;
    for _ in 0..cycles {
        core.tick();
    }
    let tracer = core.tracer().expect("tracer enabled");
    for t in 0..2 {
        let d: u64 = tracer.dispatch_stalls(t).iter().sum();
        let i: u64 = tracer.issue_stalls(t).iter().sum();
        assert_eq!(d, cycles, "thread {t}: one dispatch attribution per cycle");
        assert_eq!(i, cycles, "thread {t}: one issue attribution per cycle");
    }
    assert!(tracer.samples().count() > 0, "sampler must have fired");
    let cycles_sampled: Vec<u64> = tracer.samples().map(|s| s.cycle).collect();
    assert!(
        cycles_sampled.windows(2).all(|w| w[0] < w[1]),
        "sample cycles must be strictly increasing"
    );
}
