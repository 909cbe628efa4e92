//! Shared warm-up: a campaign warms once per mix and clones that state for
//! every design point, and each journal line must still equal the line of
//! a run built and warmed from scratch.

use shelfsim_campaign::{
    run_campaign, CampaignSpec, FaultKind, FaultPlan, RunOutcome, RunRecord, RunSpec, RunStatus,
    ShardedJournal, SweepSpec,
};
use shelfsim_core::{Simulation, WarmKey};
use shelfsim_energy::EnergyModel;
use std::collections::HashSet;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shelfsim_shared_warmup_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Three designs over two 2-thread mixes plus their single-thread
/// references.
fn three_design_matrix() -> Vec<RunSpec> {
    SweepSpec {
        designs: vec![
            "base64".to_owned(),
            "shelf-opt".to_owned(),
            "base128".to_owned(),
        ],
        thread_counts: vec![2],
        mixes_per_count: 2,
        seed: 5,
        warmup: 200,
        measure: 800,
    }
    .expand()
}

/// The outcome of `spec` simulated on a fresh `Simulation::from_programs`.
fn fresh_outcome(spec: &RunSpec) -> RunOutcome {
    let cfg = spec.resolved_config().expect("design resolves");
    let programs = spec
        .mix
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let profile = shelfsim_workload::suite::by_name(name).expect("suite benchmark");
            let seed = shelfsim_core::thread_program_seed(spec.seed, t);
            (name.clone(), profile.build_program(seed))
        })
        .collect();
    let energy = EnergyModel::for_config(&cfg);
    let r = Simulation::from_programs(cfg, programs, spec.seed).run(spec.warmup, spec.measure);
    let er = energy.report(&r);
    RunOutcome {
        ipc: r.ipc(),
        cycles: r.cycles,
        committed: r.counters.committed,
        completion: r.completion,
        thread_cpi: r.cpis(),
        epi: er.energy_per_instruction(),
        edp: er.edp(),
    }
}

/// The journal line `record` would have with a freshly simulated outcome.
fn fresh_line(record: &RunRecord) -> String {
    RunRecord {
        outcome: Some(fresh_outcome(&record.spec)),
        ..record.clone()
    }
    .to_journal_entry()
    .to_json_line()
}

fn distinct_keys(runs: &[RunSpec]) -> usize {
    let keys: HashSet<WarmKey> = runs
        .iter()
        .map(|r| {
            let cfg = r.resolved_config().expect("design resolves");
            WarmKey::new(&cfg, &r.mix, r.seed)
        })
        .collect();
    keys.len()
}

#[test]
fn shared_warmup_matches_fresh_simulation_on_every_run() {
    let dir = tmp("equivalence");
    let runs = three_design_matrix();
    let keys = distinct_keys(&runs);
    assert_eq!(runs.len(), 3 * keys, "every mix runs on all three designs");

    let solo_dir = dir.join("solo");
    let report = run_campaign(
        &CampaignSpec::new(runs.clone())
            .with_workers(1)
            .with_journal_dir(&solo_dir),
    )
    .expect("solo campaign");
    assert_eq!(report.completed(), runs.len());
    assert_eq!(
        report.warm_builds, keys,
        "one warm-up per mix on one worker"
    );
    assert_eq!(report.warm_hits, runs.len() - keys);
    for record in &report.records {
        assert_eq!(record.status, RunStatus::Ok);
        assert_eq!(
            record.to_journal_entry().to_json_line(),
            fresh_line(record),
            "{}",
            record.spec.label()
        );
    }

    let duo_dir = dir.join("duo");
    let duo = run_campaign(
        &CampaignSpec::new(runs.clone())
            .with_workers(2)
            .with_journal_dir(&duo_dir),
    )
    .expect("two-worker campaign");
    assert_eq!(duo.completed(), runs.len());
    assert_eq!(duo.warm_builds + duo.warm_hits, runs.len());
    assert_eq!(
        ShardedJournal::new(&solo_dir)
            .merged_bytes()
            .expect("bytes"),
        ShardedJournal::new(&duo_dir).merged_bytes().expect("bytes"),
        "worker count must not change the merged journal"
    );
}

#[test]
fn transient_panic_inside_a_warm_group_retries_to_the_fresh_line() {
    let dir = tmp("fault");
    let runs = three_design_matrix();
    // The second run of the first mix's group: its design-mate before it
    // built the warmed state, so the retry starts from a clone.
    let first = &runs[0];
    let second = runs
        .iter()
        .find(|r| r.index != first.index && r.mix == first.mix)
        .expect("the mix runs on another design");
    let report = run_campaign(
        &CampaignSpec::new(runs.clone())
            .with_workers(1)
            .with_journal_dir(&dir)
            .with_faults(FaultPlan::new().inject(second.index, FaultKind::Panic, 1)),
    )
    .expect("faulted campaign");
    assert_eq!(report.completed(), runs.len());
    let record = &report.records[second.index];
    assert_eq!(record.attempts, 2, "the injected panic forced one retry");
    assert_eq!(record.to_journal_entry().to_json_line(), fresh_line(record));
    let keys = distinct_keys(&runs);
    assert_eq!(
        report.warm_builds, keys,
        "the retry reused the group's state"
    );
    assert_eq!(report.warm_hits, runs.len() - keys);
}
