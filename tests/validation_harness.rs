//! Differential-validation harness acceptance tests (facade level).
//!
//! The lockstep harness must validate clean on every shipped kernel across
//! every named design point and thread count, on real suite mixes, and
//! across structure-size sensitivity sweeps; its reports must be
//! byte-deterministic; and the hardened counter arithmetic must stay exact
//! at large commit counts.

use shelfsim::analyze::{design_by_name, DESIGN_NAMES};
use shelfsim::core::thread_program_seed;
use shelfsim::validate::{
    render_json, render_text, run_lockstep, run_sweep, CleanStats, LockstepConfig, RunReport,
    SweepPoint, SweepReport, Verdict,
};
use shelfsim::workload::program::Program;
use shelfsim::workload::{balanced_random_mixes, kernels, suite};

fn kernel_programs(name: &str, threads: usize) -> Vec<Program> {
    let k = kernels::by_name(name).expect("kernel exists");
    (0..threads)
        .map(|_| k.assemble().expect("kernel assembles"))
        .collect()
}

fn quick(commits: u64) -> LockstepConfig {
    LockstepConfig {
        commits_per_thread: commits,
        max_cycles: 400_000,
        warmup_insts: 200,
        ..LockstepConfig::default()
    }
}

/// The acceptance matrix: every shipped kernel validates clean on every
/// named design point at 1, 2, and 4 hardware threads — the out-of-order
/// (and shelf, and in-order-shelf) commit streams all match the in-order
/// functional reference exactly.
#[test]
fn every_kernel_validates_clean_on_every_design_and_thread_count() {
    let mut failures = Vec::new();
    for design in DESIGN_NAMES {
        for threads in [1usize, 2, 4] {
            let cfg = design_by_name(design, threads).expect("named design resolves");
            for k in kernels::all() {
                let verdict = run_lockstep(&cfg, kernel_programs(k.name, threads), &quick(300));
                match verdict {
                    Verdict::Clean(stats) => {
                        if stats.committed != vec![300u64; threads] {
                            failures.push(format!(
                                "{design} x{threads} {}: committed {:?}",
                                k.name, stats.committed
                            ));
                        }
                    }
                    other => failures.push(format!("{design} x{threads} {}: {other:?}", k.name)),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "divergent combinations:\n{}",
        failures.join("\n")
    );
}

/// Seeded suite mixes (the campaign's workload vocabulary) validate clean
/// on the baseline and the flagship shelf design.
#[test]
fn suite_mixes_validate_clean_on_baseline_and_shelf_designs() {
    let names = suite::names();
    let seed = 7u64;
    let mixes = balanced_random_mixes(&names, 2, names.len(), seed);
    for mix in mixes.iter().take(2) {
        let programs: Vec<Program> = mix
            .benchmarks
            .iter()
            .enumerate()
            .map(|(t, b)| {
                suite::by_name(b)
                    .expect("suite benchmark exists")
                    .build_program(thread_program_seed(seed, t))
            })
            .collect();
        for design in ["base64", "shelf-opt"] {
            let cfg = design_by_name(design, programs.len()).expect("design resolves");
            let verdict = run_lockstep(&cfg, programs.iter().cloned(), &quick(500));
            assert!(verdict.is_clean(), "{design} {}: {verdict:?}", mix.label());
        }
    }
}

/// Structure-size sensitivity on a shelf design: growing ROB/IQ/LQ/SQ/shelf
/// one at a time changes *when* instructions retire, never *what* retires —
/// every point validates clean and all commit-stream fingerprints match.
#[test]
fn sensitivity_sweep_is_clean_on_a_shelf_design() {
    let cfg = design_by_name("shelf-opt", 2).expect("shelf-opt resolves");
    let report = run_sweep(&cfg, &kernel_programs("mixed", 2), &quick(500));
    assert!(report.is_clean(), "sweep violation: {:?}", report.violation);
    // base + rob/iq/lq/sq/shelf perturbations.
    assert_eq!(report.points.len(), 6);
    assert!(report.points.iter().any(|p| p.label.starts_with("shelf+")));
}

/// Byte-golden report rendering: the text and JSON renderers are pure
/// functions of the report structure, down to the exact bytes.
#[test]
fn validate_reports_match_their_goldens_byte_for_byte() {
    let stats = CleanStats {
        cycles: 1234,
        committed: vec![1_000, 1_000],
        fingerprints: vec![0xdead, 0xbeef],
    };
    let runs = vec![RunReport {
        design: "base64".to_owned(),
        threads: 2,
        workload: "kernel:daxpy".to_owned(),
        verdict: Verdict::Clean(stats.clone()),
        sweep: Some(SweepReport {
            points: vec![SweepPoint {
                label: "base".to_owned(),
                verdict: Verdict::Clean(stats),
            }],
            violation: None,
        }),
        regression: None,
    }];
    let text = render_text(&runs);
    let golden_text = "validate: 1 runs, 1 clean, 0 diverged, 0 invariant-violations\n  \
                       ok   base64         x2 kernel:daxpy  cycles=1234 committed=2000\n      \
                       sweep base       clean\n";
    assert_eq!(text, golden_text);
    let json = render_json(&runs);
    let golden_json = "{\"schema\":\"shelfsim-validate-v1\",\"runs\":1,\"clean\":1,\
                       \"diverged\":0,\"invariant\":0,\"results\":[\n  \
                       {\"design\":\"base64\",\"threads\":2,\"workload\":\"kernel:daxpy\",\
                       \"verdict\":\"clean\",\"cycles\":1234,\"committed\":2000,\
                       \"sweep\":{\"clean\":true,\"points\":[{\"label\":\"base\",\
                       \"verdict\":\"clean\"}]}}\n]}\n";
    assert_eq!(json, golden_json);
}

/// Satellite: the hardened counter arithmetic stays exact through a large
/// commit count — a 24k-commit validated run still reports every commit,
/// and `acc` itself saturates rather than wrapping at the limit.
#[test]
fn counters_stay_exact_at_large_commit_counts() {
    let lcfg = LockstepConfig {
        commits_per_thread: 12_000,
        max_cycles: 2_000_000,
        warmup_insts: 500,
        ..LockstepConfig::default()
    };
    let cfg = design_by_name("base64", 2).expect("base64 resolves");
    match run_lockstep(&cfg, kernel_programs("daxpy", 2), &lcfg) {
        Verdict::Clean(stats) => {
            assert_eq!(
                stats.committed,
                vec![12_000u64; 2],
                "no commit lost or double-counted"
            );
            assert!(stats.cycles < 2_000_000);
        }
        other => panic!("expected clean, got: {other:?}"),
    }
    // The accumulator primitive itself: normal adds are exact; at the top
    // of the range release builds peg at u64::MAX instead of wrapping.
    let mut c = u64::MAX - 5;
    shelfsim::core::counters::acc(&mut c, 5);
    assert_eq!(c, u64::MAX);
}
