//! The harness validates clean on real kernels: the out-of-order core's
//! committed stream matches the in-order functional reference exactly, for
//! baseline and shelf designs, single- and multi-threaded.

use shelfsim_core::CoreConfig;
use shelfsim_validate::{
    render_json, render_text, run_lockstep, run_sweep, LockstepConfig, RunReport, Verdict,
};
use shelfsim_workload::kernels;
use shelfsim_workload::program::Program;

fn kernel_programs(name: &str, threads: usize) -> Vec<Program> {
    let k = kernels::by_name(name).expect("kernel exists");
    (0..threads)
        .map(|_| k.assemble().expect("kernel assembles"))
        .collect()
}

fn quick() -> LockstepConfig {
    LockstepConfig {
        commits_per_thread: 1_000,
        max_cycles: 200_000,
        warmup_insts: 500,
        ..LockstepConfig::default()
    }
}

#[test]
fn daxpy_validates_clean_on_base64_for_one_and_two_threads() {
    for threads in [1usize, 2] {
        let cfg = CoreConfig::base64(threads);
        let verdict = run_lockstep(&cfg, kernel_programs("daxpy", threads), &quick());
        match verdict {
            Verdict::Clean(stats) => {
                assert_eq!(stats.committed, vec![1_000; threads]);
                assert!(stats.cycles > 0);
            }
            other => panic!("expected clean, got: {other:?}"),
        }
    }
}

#[test]
fn branchy_validates_clean_across_squashes_on_a_shelf_design() {
    use shelfsim_core::SteerPolicy;
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    let verdict = run_lockstep(&cfg, kernel_programs("branchy", 2), &quick());
    assert!(verdict.is_clean(), "got: {verdict:?}");
}

#[test]
fn structure_size_sweep_is_clean_and_streams_are_identical() {
    let cfg = CoreConfig::base64(2);
    let report = run_sweep(&cfg, &kernel_programs("mixed", 2), &quick());
    assert!(report.is_clean(), "sweep violation: {:?}", report.violation);
    // base + rob/iq/lq/sq perturbations (no shelf on base64).
    assert_eq!(report.points.len(), 5);
}

#[test]
fn reports_are_byte_deterministic() {
    let build = || {
        let cfg = CoreConfig::base64(1);
        let verdict = run_lockstep(&cfg, kernel_programs("daxpy", 1), &quick());
        let runs = vec![RunReport {
            design: "base64".to_owned(),
            threads: 1,
            workload: "kernel:daxpy".to_owned(),
            verdict,
            sweep: None,
            regression: None,
        }];
        (render_text(&runs), render_json(&runs))
    };
    let (t1, j1) = build();
    let (t2, j2) = build();
    assert_eq!(t1, t2, "text report must be byte-deterministic");
    assert_eq!(j1, j2, "json report must be byte-deterministic");
    assert!(t1.starts_with("validate: 1 runs, 1 clean, 0 diverged, 0 invariant-violations"));
    assert!(j1.starts_with("{\"schema\":\"shelfsim-validate-v1\""));
    assert!(j1.contains("\"verdict\":\"clean\""));
}
