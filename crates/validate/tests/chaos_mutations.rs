//! Mutation testing of the validator itself: every shipped chaos mutation
//! in the core's commit path must be detected by the lockstep harness with
//! a localized first-divergence report. Run with
//! `cargo test -p shelfsim-validate --features chaos`.
#![cfg(feature = "chaos")]

use shelfsim_core::{ChaosKind, ChaosPlan, CoreConfig, SteerPolicy};
use shelfsim_validate::{run_lockstep, LockstepConfig, Verdict};
use shelfsim_workload::kernels;
use shelfsim_workload::program::Program;

fn kernel_programs(name: &str, threads: usize) -> Vec<Program> {
    let k = kernels::by_name(name).expect("kernel exists");
    (0..threads)
        .map(|_| k.assemble().expect("kernel assembles"))
        .collect()
}

fn chaos_cfg(plan: ChaosPlan) -> LockstepConfig {
    LockstepConfig {
        commits_per_thread: 1_000,
        max_cycles: 200_000,
        warmup_insts: 500,
        chaos: Some(plan),
        ..LockstepConfig::default()
    }
}

/// The workload each mutation is armed against must have material to
/// corrupt: `forward` commits a store every iteration (store-value
/// corruption), `branchy` squashes constantly (dropped squashes), and
/// either exercises the plain commit-path mutations.
fn mutation_kernel(kind: ChaosKind) -> &'static str {
    match kind {
        ChaosKind::CorruptStoreValue => "forward",
        _ => "branchy",
    }
}

fn run_mutated(kind: ChaosKind, trigger: u64) -> Verdict {
    let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
    run_lockstep(
        &cfg,
        kernel_programs(mutation_kernel(kind), 2),
        &chaos_cfg(ChaosPlan { kind, trigger }),
    )
}

#[test]
fn every_shipped_mutation_is_detected() {
    for &kind in &ChaosKind::ALL {
        let verdict = run_mutated(kind, 100);
        match &verdict {
            Verdict::Diverged(d) => {
                // The report localizes the first divergence.
                assert!(d.thread < 2, "{kind:?}: thread out of range");
                assert!(!d.field.is_empty(), "{kind:?}: missing field");
                assert!(!d.expected.is_empty() && !d.got.is_empty(), "{kind:?}");
            }
            // A mutation that stalls retirement (e.g. a held event) may
            // surface as an invariant violation instead — still a kill.
            Verdict::Invariant(_) => {}
            Verdict::Clean(_) => panic!("{kind:?} survived the harness (not detected)"),
        }
    }
}

#[test]
fn skip_writeback_is_localized_to_a_sequence_gap() {
    match run_mutated(ChaosKind::SkipWriteback, 50) {
        Verdict::Diverged(d) => {
            assert_eq!(d.field, "seq", "a dropped commit shows up as a seq gap");
            assert!(!d.trace_window.is_empty(), "trace window dump attached");
        }
        other => panic!("expected divergence, got: {other:?}"),
    }
}

#[test]
fn corrupt_store_value_is_caught_at_the_store() {
    match run_mutated(ChaosKind::CorruptStoreValue, 80) {
        Verdict::Diverged(d) => {
            // The corrupted address diverges the mem field (or the value
            // derived from it) at the mutated commit, not later.
            assert!(
                d.field == "mem" || d.field == "value",
                "got field `{}`",
                d.field
            );
        }
        other => panic!("expected divergence, got: {other:?}"),
    }
}

#[test]
fn mutations_do_not_fire_when_the_trigger_is_never_reached() {
    // A trigger far past the validated window must leave the run clean:
    // chaos is inert until its trigger.
    let verdict = run_mutated(ChaosKind::SkipWriteback, u64::MAX);
    assert!(verdict.is_clean(), "got: {verdict:?}");
}
