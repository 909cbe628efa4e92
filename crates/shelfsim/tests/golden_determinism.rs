//! Golden end-to-end determinism: the simulator is a pure function of
//! (config, workload, seed). Two fresh processes-worth of state driven with
//! the same inputs must agree on every architectural counter bit-for-bit,
//! and a resumed campaign must reproduce its merged journal byte-for-byte.
//!
//! These tests are the safety net for engine-throughput work: any hot-path
//! "optimization" that changes scheduling order, wakeup timing, or RNG
//! consumption trips them immediately.

use shelfsim::analyze::design_by_name;
use shelfsim::campaign::{run_campaign, CampaignSpec, ShardedJournal};
use shelfsim::Simulation;

const MIX4: &[&str] = &["gcc", "mcf", "hmmer", "lbm"];
const MIX2: &[&str] = &["astar", "sjeng"];

/// Runs one design twice from scratch and demands bit-identical results.
fn assert_golden(design: &str, mix: &[&str], seed: u64, warmup: u64, measure: u64) {
    let run = |_: usize| {
        let cfg = design_by_name(design, mix.len()).expect("known design");
        let mut sim = Simulation::from_names(cfg, mix, seed).expect("suite benchmarks");
        sim.run(warmup, measure)
    };
    let (a, b) = (run(0), run(1));
    assert_eq!(
        a.counters, b.counters,
        "{design} {mix:?} seed {seed}: counters diverged between identical runs"
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.ipc().to_bits(),
        b.ipc().to_bits(),
        "{design}: IPC must match to the last bit"
    );
    for (ta, tb) in a.threads.iter().zip(&b.threads) {
        assert_eq!(ta.committed, tb.committed);
        assert_eq!(ta.cpi.to_bits(), tb.cpi.to_bits());
    }
    assert!(a.counters.committed > 0, "{design}: golden run must commit");
}

/// Every design point of the bench matrix (plus the steering variants) is
/// bit-deterministic on a 4-thread and a 2-thread mix.
#[test]
fn identical_runs_produce_identical_counters() {
    for design in [
        "base64",
        "shelf-cons",
        "shelf-opt",
        "shelf-oracle",
        "base128",
    ] {
        assert_golden(design, MIX4, 7, 1_000, 6_000);
    }
    assert_golden("shelf-opt", MIX2, 9, 500, 4_000);
}

/// The seed matters: a different seed must not silently reproduce the same
/// run (guards against the golden harness comparing constants).
#[test]
fn different_seeds_diverge() {
    let cfg = design_by_name("shelf-opt", MIX4.len()).expect("known design");
    let a = Simulation::from_names(cfg.clone(), MIX4, 7)
        .expect("suite")
        .run(1_000, 6_000);
    let b = Simulation::from_names(cfg, MIX4, 8)
        .expect("suite")
        .run(1_000, 6_000);
    assert_ne!(
        a.counters, b.counters,
        "distinct seeds should produce distinct runs"
    );
}

/// A fresh (nonexistent) journal directory.
fn temp_journal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shelfsim_golden_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journal directory's lines, sorted.
fn sorted_lines(dir: &std::path::Path) -> Vec<String> {
    let shards = ShardedJournal::new(dir).shard_files().expect("list shards");
    let text: String = shards
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read"))
        .collect();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    lines.sort();
    lines
}

fn campaign_matrix() -> Vec<shelfsim::campaign::RunSpec> {
    CampaignSpec::matrix(
        &["base64".to_owned(), "shelf-opt".to_owned()],
        &[
            vec!["gcc".to_owned(), "mcf".to_owned()],
            vec!["hmmer".to_owned(), "lbm".to_owned()],
        ],
        7,     // seed
        300,   // warm-up cycles
        1_500, // measured cycles
    )
}

/// A campaign journal is a pure function of its spec (single worker), and a
/// killed-then-resumed campaign reproduces its merged view byte-for-byte.
#[test]
fn campaign_resume_reproduces_journal_byte_for_byte() {
    let spec = |runs: Vec<shelfsim::campaign::RunSpec>, dir: &std::path::Path| {
        CampaignSpec::new(runs)
            .with_watchdog(Some(5_000))
            .with_workers(1)
            .with_journal_dir(dir)
    };
    // Reference: one uninterrupted campaign.
    let reference = temp_journal_dir("ref");
    let report = run_campaign(&spec(campaign_matrix(), &reference)).expect("reference campaign");
    assert_eq!(report.completed(), 4);
    let ref_shard = std::fs::read(reference.join("shard-000.jsonl")).expect("reference shard");
    assert!(!ref_shard.is_empty());

    // Determinism: the identical spec into a fresh directory writes the
    // same shard bytes.
    let rerun = temp_journal_dir("rerun");
    run_campaign(&spec(campaign_matrix(), &rerun)).expect("rerun campaign");
    assert_eq!(
        ref_shard,
        std::fs::read(rerun.join("shard-000.jsonl")).expect("rerun shard"),
        "identical campaigns must journal identical bytes"
    );

    // Kill/resume: journal only a prefix, then re-invoke the full campaign
    // against the same directory. The resumed half appends exactly the
    // missing lines: the merged view is byte-identical to the uninterrupted
    // one, and no line is lost or duplicated. (Raw line order differs —
    // runs execute in the order of their schedule's units, one warm group
    // each, not in matrix order, and resume appends after the prefix.)
    let resumed = temp_journal_dir("resumed");
    let prefix = spec(campaign_matrix()[..2].to_vec(), &resumed);
    assert_eq!(run_campaign(&prefix).expect("prefix").completed(), 2);
    let resumed_report = run_campaign(&spec(campaign_matrix(), &resumed)).expect("resume");
    assert_eq!(resumed_report.resumed, 2, "the journaled prefix is skipped");
    let merged = |dir| ShardedJournal::new(dir).merged_bytes().expect("merge");
    assert_eq!(
        merged(&reference),
        merged(&resumed),
        "resume must reproduce the uninterrupted merged journal byte-for-byte"
    );
    let ref_lines = sorted_lines(&reference);
    assert_eq!(ref_lines.len(), 4);
    assert_eq!(
        ref_lines,
        sorted_lines(&resumed),
        "nothing lost, nothing duplicated"
    );
}

/// Trace exports are part of the determinism contract: two fresh
/// simulations of the same (config, workload, seed) with tracing enabled
/// must export byte-identical JSONL and Chrome trace-event documents.
#[test]
fn trace_exports_are_byte_identical_across_reruns() {
    let run = |_: usize| {
        let cfg = design_by_name("shelf-opt", MIX2.len()).expect("known design");
        let mut sim = Simulation::from_names(cfg, MIX2, 11).expect("suite benchmarks");
        sim.enable_tracer(256, 8);
        sim.run(500, 4_000);
        let tracer = sim.tracer().expect("tracer enabled");
        (tracer.export_jsonl(), tracer.export_chrome())
    };
    let (jsonl_a, chrome_a) = run(0);
    let (jsonl_b, chrome_b) = run(1);
    assert!(
        jsonl_a.lines().count() > 8,
        "traced run must retain lifecycle records"
    );
    assert_eq!(jsonl_a, jsonl_b, "JSONL export must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-identical");
}

/// Tracing must not perturb the simulation: architectural counters with
/// the tracer on are bit-identical to the untraced run.
#[test]
fn tracing_does_not_perturb_architectural_state() {
    let run = |traced: bool| {
        let cfg = design_by_name("base64", MIX2.len()).expect("known design");
        let mut sim = Simulation::from_names(cfg, MIX2, 5).expect("suite benchmarks");
        if traced {
            sim.enable_tracer(128, 4);
        }
        sim.run(500, 4_000)
    };
    let (plain, traced) = (run(false), run(true));
    assert_eq!(
        plain.counters, traced.counters,
        "enabling the tracer must not change a single counter bit"
    );
}
