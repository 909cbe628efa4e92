//! The cycle-skipping validation matrix: every library kernel on every
//! evaluated design at 1/2/4 threads, run through the lockstep harness with
//! skipping on and off. Both runs must validate clean against the in-order
//! reference AND produce bit-identical commit-stream fingerprints — the
//! skip engine is an execution strategy, not a model change.
//!
//! One `#[test]` per design keeps the matrix parallel across the test
//! harness's threads.

use shelfsim_analyze::design_by_name;
use shelfsim_core::CoreConfig;
use shelfsim_validate::{run_lockstep, LockstepConfig, Verdict};
use shelfsim_workload::kernels;
use shelfsim_workload::program::Program;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn quick(cycle_skipping: bool) -> LockstepConfig {
    LockstepConfig {
        commits_per_thread: 150,
        max_cycles: 400_000,
        warmup_insts: 200,
        cycle_skipping,
        ..LockstepConfig::default()
    }
}

fn programs(kernel: &str, threads: usize) -> Vec<Program> {
    let k = kernels::by_name(kernel).expect("kernel in library");
    (0..threads)
        .map(|_| k.assemble().expect("library kernels assemble"))
        .collect()
}

/// One program per named kernel — asymmetric SMT mixes where some threads
/// block on memory while others keep committing, the shape the per-thread
/// partial-skip path must handle.
fn mixed_programs(kernel_names: &[&str]) -> Vec<Program> {
    kernel_names
        .iter()
        .map(|name| {
            kernels::by_name(name)
                .expect("kernel in library")
                .assemble()
                .expect("library kernels assemble")
        })
        .collect()
}

/// mcf-like pointer chases paired with hmmer-like compute kernels.
const ASYMMETRIC_MIXES: [&[&str]; 3] = [
    &["chase", "reduce"],
    &["chase2", "triad"],
    &["chase", "reduce", "chase2", "triad"],
];

fn clean_fingerprints(verdict: Verdict, what: &str) -> Vec<u64> {
    match verdict {
        Verdict::Clean(stats) => stats.fingerprints,
        other => panic!("{what}: expected clean, got {other:?}"),
    }
}

fn run_design(design: &str) {
    for kernel in kernels::all() {
        for threads in THREAD_COUNTS {
            let cfg = design_by_name(design, threads).expect("design in registry");
            let what = format!("{design}/{}/{threads}t", kernel.name);
            let on = clean_fingerprints(
                run_lockstep(&cfg, programs(kernel.name, threads), &quick(true)),
                &format!("{what} skip-on"),
            );
            let off = clean_fingerprints(
                run_lockstep(&cfg, programs(kernel.name, threads), &quick(false)),
                &format!("{what} skip-off"),
            );
            assert_eq!(
                on, off,
                "{what}: commit-stream fingerprints differ between skip-on and skip-off"
            );
        }
    }
}

/// Runs `mix` on `cfg` with skipping on and off: both runs must validate
/// clean and leave identical fingerprints.
fn assert_skip_invisible(cfg: &CoreConfig, mix: &[&str], what: &str) {
    let on = clean_fingerprints(
        run_lockstep(cfg, mixed_programs(mix), &quick(true)),
        &format!("{what} skip-on"),
    );
    let off = clean_fingerprints(
        run_lockstep(cfg, mixed_programs(mix), &quick(false)),
        &format!("{what} skip-off"),
    );
    assert_eq!(
        on, off,
        "{what}: commit-stream fingerprints differ between skip-on and skip-off"
    );
}

/// The asymmetric leg of the matrix: whole-core fixed points are rare in
/// these mixes, so windows open only in the short gaps where the compute
/// threads stall too.
fn run_design_asymmetric(design: &str) {
    for mix in ASYMMETRIC_MIXES {
        let cfg = design_by_name(design, mix.len()).expect("design in registry");
        assert_skip_invisible(&cfg, mix, &format!("{design}/{}", mix.join("+")));
    }
}

#[test]
fn skip_matrix_base64() {
    run_design("base64");
}

#[test]
fn skip_matrix_base128() {
    run_design("base128");
}

#[test]
fn skip_matrix_shelf_cons() {
    run_design("shelf-cons");
}

#[test]
fn skip_matrix_shelf_opt() {
    run_design("shelf-opt");
}

#[test]
fn skip_matrix_shelf_oracle() {
    run_design("shelf-oracle");
}

#[test]
fn skip_matrix_shelf_inorder() {
    run_design("shelf-inorder");
}

#[test]
fn skip_matrix_asymmetric_base64() {
    run_design_asymmetric("base64");
}

#[test]
fn skip_matrix_asymmetric_shelf_opt() {
    run_design_asymmetric("shelf-opt");
}

#[test]
fn skip_matrix_asymmetric_shelf_cons() {
    run_design_asymmetric("shelf-cons");
}

#[test]
fn skip_matrix_asymmetric_shared_pressure() {
    // Two data MSHRs: ready loads lose MSHR arbitration and due store
    // drains are refused, shared inputs that change only at a fill. Such
    // threads count as still, and the windows they open must stay
    // invisible.
    let chase_pair: &[&str] = &["chase2", "chase2"];
    for design in ["base64", "shelf-opt"] {
        for mix in ASYMMETRIC_MIXES.into_iter().chain([chase_pair]) {
            let mut cfg = design_by_name(design, mix.len()).expect("design in registry");
            cfg.hierarchy.data_mshrs = 2;
            let what = format!("{design}/{}/2 data MSHRs", mix.join("+"));
            assert_skip_invisible(&cfg, mix, &what);
        }
    }
}
