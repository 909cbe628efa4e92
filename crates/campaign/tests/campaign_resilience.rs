//! End-to-end resilience tests: a fault-injected campaign must isolate
//! panics, abort livelocks via the watchdog, retry transient failures,
//! quarantine persistent ones, finish with partial results plus an error
//! taxonomy, and resume idempotently from its journal.

use shelfsim_campaign::{
    run_campaign, CampaignSpec, FailureKind, FaultKind, FaultPlan, RunStatus, ShardedJournal,
};

fn matrix() -> Vec<shelfsim_campaign::RunSpec> {
    CampaignSpec::matrix(
        &["base64".to_owned(), "shelf-opt".to_owned()],
        &[
            vec!["gcc".to_owned(), "mcf".to_owned()],
            vec!["hmmer".to_owned(), "lbm".to_owned()],
        ],
        7,     // seed
        200,   // warm-up cycles
        1_200, // measured cycles
    )
}

/// A fresh (nonexistent) journal directory.
fn temp_journal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shelfsim_campaign_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every journal line in a directory, across all shards.
fn journal_text(dir: &std::path::Path) -> String {
    ShardedJournal::new(dir)
        .shard_files()
        .expect("list shards")
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read shard"))
        .collect()
}

/// The acceptance scenario: injected panics and one injected deadlock; the
/// campaign finishes with partial results and a taxonomy, and a second
/// invocation resumes from the journal without re-running anything.
#[test]
fn faulty_campaign_retries_quarantines_and_resumes() {
    let journal = temp_journal_dir("faulty");
    let faults = FaultPlan::new()
        .inject(0, FaultKind::Panic, 1) // transient: retry succeeds
        .inject(1, FaultKind::Livelock, 1) // watchdog aborts attempt 1; retry succeeds
        .inject(3, FaultKind::Panic, u32::MAX); // persistent: quarantined
    let spec = CampaignSpec::new(matrix())
        .with_watchdog(Some(600))
        .with_max_attempts(3)
        .with_workers(2)
        .with_journal_dir(&journal)
        .with_faults(faults);

    let report = run_campaign(&spec).expect("campaign itself must not fail");
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.completed(), 3, "partial results, not an abort");
    assert_eq!(report.quarantined(), 1);
    assert_eq!(report.resumed, 0);

    // Run 0: panicked once, recovered on the diagnostics-tier retry.
    let r0 = &report.records[0];
    assert_eq!(r0.status, RunStatus::Ok);
    assert_eq!(r0.attempts, 2);
    assert_eq!(r0.failures.len(), 1);
    assert_eq!(r0.failures[0].kind, FailureKind::Panic);
    assert!(r0.failures[0].panic_msg.contains("injected fault"));
    assert_eq!(r0.failures[0].bench, "gcc+mcf");
    assert_eq!(
        r0.failures[0].seed, 7,
        "failure is a self-contained reproducer"
    );

    // Run 1: the watchdog diagnosed the injected livelock instead of
    // spinning, and the retry succeeded.
    let r1 = &report.records[1];
    assert_eq!(r1.status, RunStatus::Ok);
    assert_eq!(r1.failures[0].kind, FailureKind::Deadlock);
    assert!(r1.failures[0].cycle.is_some(), "deadlock reports its cycle");
    assert!(
        r1.failures[0].panic_msg.contains("rob="),
        "deadlock carries an occupancy snapshot: {}",
        r1.failures[0].panic_msg
    );

    // Run 3: persistent panic exhausts the attempt budget.
    let r3 = &report.records[3];
    assert_eq!(r3.status, RunStatus::Quarantined);
    assert_eq!(r3.attempts, 3);
    assert!(r3.outcome.is_none());

    // Taxonomy covers every failure mode.
    let taxonomy = report.taxonomy();
    assert_eq!(taxonomy.count("ok"), 3);
    assert_eq!(taxonomy.count("quarantined"), 1);
    assert_eq!(taxonomy.count("retried-ok"), 2);
    assert_eq!(taxonomy.count("panic"), 4, "1 transient + 3 persistent");
    assert_eq!(taxonomy.count("deadlock"), 1);

    // Aggregation covers completed runs only, grouped by design.
    let per_design = report.per_design_ipc();
    assert_eq!(per_design.len(), 2);
    assert_eq!(per_design[0].0, "base64");
    assert_eq!(per_design[0].2, 2);
    assert_eq!(per_design[1].0, "shelf-opt");
    assert_eq!(
        per_design[1].2, 1,
        "the quarantined shelf-opt run is absent"
    );

    // Re-invoking the identical campaign resumes everything from the
    // journal — no run (not even the quarantined one) re-executes, and the
    // aggregate results are identical.
    let resumed_report = run_campaign(&spec).expect("resume");
    assert_eq!(resumed_report.resumed, 4, "nothing re-ran");
    assert!(resumed_report.records.iter().all(|r| r.resumed));
    assert_eq!(resumed_report.completed(), 3);
    assert_eq!(resumed_report.quarantined(), 1);
    for (fresh, restored) in report.records.iter().zip(&resumed_report.records) {
        assert_eq!(fresh.status, restored.status);
        match (&fresh.outcome, &restored.outcome) {
            (Some(a), Some(b)) => {
                assert!((a.ipc - b.ipc).abs() < 1e-6);
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.completion, b.completion);
            }
            (None, None) => {}
            _ => panic!("outcome presence must survive resume"),
        }
    }
}

/// A campaign killed partway through (simulated by journaling only a prefix
/// of the matrix) resumes and produces results identical to an uninterrupted
/// campaign.
#[test]
fn killed_campaign_resumes_with_identical_results() {
    let journal = temp_journal_dir("killed");
    let runs = matrix();

    // Reference: the same matrix run in one uninterrupted campaign.
    let reference = run_campaign(&CampaignSpec::new(runs.clone()).with_watchdog(Some(5_000)))
        .expect("reference campaign");

    // "Kill" after two runs: execute only a prefix against the journal.
    let prefix = CampaignSpec::new(runs[..2].to_vec())
        .with_watchdog(Some(5_000))
        .with_journal_dir(&journal);
    let partial = run_campaign(&prefix).expect("prefix campaign");
    assert_eq!(partial.completed(), 2);

    // Re-invoke the FULL campaign: the journaled prefix is skipped, only
    // the remaining half executes, and results match the reference exactly.
    let full = CampaignSpec::new(runs)
        .with_watchdog(Some(5_000))
        .with_journal_dir(&journal);
    let resumed = run_campaign(&full).expect("resumed campaign");
    assert_eq!(resumed.resumed, 2, "the journaled prefix was skipped");
    assert_eq!(resumed.completed(), 4);
    for (a, b) in reference.records.iter().zip(&resumed.records) {
        let (ra, rb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert!(
            (ra.ipc - rb.ipc).abs() < 1e-6,
            "{}: {} vs {}",
            a.spec.label(),
            ra.ipc,
            rb.ipc
        );
        assert_eq!(ra.committed, rb.committed);
    }
}

/// A journal written by the retired single-file writer — including an
/// entry that predates the `validated` and `mix` fields — resumes when it
/// sits in a journal directory: every `*.jsonl` there is read as a shard.
/// New outcomes land in the worker's own shard and the old file is never
/// written.
#[test]
fn old_single_file_journal_resumes_from_a_journal_dir() {
    let spec = |runs: &[shelfsim_campaign::RunSpec], dir: &std::path::Path| {
        let spec = CampaignSpec::new(runs.to_vec()).with_watchdog(Some(5_000));
        spec.with_workers(1).with_journal_dir(dir)
    };
    let source = temp_journal_dir("legacy_source");
    run_campaign(&spec(&matrix()[..2], &source)).expect("source campaign");
    let lines: Vec<String> = journal_text(&source).lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 2);
    // The pre-validation-tier format ends after `message`.
    let cut = lines[1].find(",\"validated\"").expect("current format");
    let old_format = format!("{}}}", &lines[1][..cut]);
    assert!(!old_format.contains("\"mix\""), "{old_format}");

    let dir = temp_journal_dir("legacy_resume");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let legacy = dir.join("legacy.jsonl");
    let legacy_bytes = format!("{}\n{old_format}\n", lines[0]);
    std::fs::write(&legacy, &legacy_bytes).expect("write legacy journal");

    let report = run_campaign(&spec(&matrix()[..3], &dir)).expect("resumed campaign");
    assert_eq!(report.resumed, 2, "both old-file entries resume");
    assert_eq!(report.completed(), 3);
    let shard = std::fs::read_to_string(dir.join("shard-000.jsonl")).expect("new shard");
    assert_eq!(shard.lines().count(), 1, "only the miss lands: {shard}");
    assert_eq!(
        std::fs::read_to_string(&legacy).expect("legacy journal"),
        legacy_bytes,
        "the old file stays byte-unchanged"
    );
}

/// An injected sub-window stall slows a run down but must neither trip the
/// watchdog nor consume a retry.
#[test]
fn sub_window_stall_is_tolerated() {
    let faults = FaultPlan::new().inject(0, FaultKind::Stall, 1);
    let spec = CampaignSpec::new(matrix()[..1].to_vec())
        .with_watchdog(Some(600))
        .with_faults(faults);
    let report = run_campaign(&spec).expect("campaign");
    let r = &report.records[0];
    assert_eq!(r.status, RunStatus::Ok);
    assert_eq!(r.attempts, 1, "no retry consumed");
    assert!(r.failures.is_empty());
}

/// A livelock that survives into the diagnostics tier leaves a lifecycle
/// trace in the campaign's trace directory: the watchdog diagnoses the
/// stall and the escalated attempt dumps its JSONL window before retrying.
#[test]
fn diagnosed_livelock_dumps_a_trace_in_the_trace_dir() {
    let trace_dir =
        std::env::temp_dir().join(format!("shelfsim_campaign_traces_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let runs = matrix()[..1].to_vec();
    let key = runs[0].key();
    // Livelock on attempts 0 AND 1: attempt 1 runs in the diagnostics tier
    // (tracer enabled), fails under the watchdog, and dumps; attempt 2
    // succeeds.
    let faults = FaultPlan::new().inject(0, FaultKind::Livelock, 2);
    let spec = CampaignSpec::new(runs)
        .with_watchdog(Some(600))
        .with_max_attempts(3)
        .with_faults(faults)
        .with_trace_dir(&trace_dir);
    let report = run_campaign(&spec).expect("campaign");
    let r = &report.records[0];
    assert_eq!(r.status, RunStatus::Ok);
    assert_eq!(r.attempts, 3);
    let dump = trace_dir.join(format!("{key}-attempt1.jsonl"));
    let text = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("diagnostics attempt must dump {}: {e}", dump.display()));
    assert!(
        text.starts_with("{\"type\":\"meta\""),
        "JSONL export format"
    );
    assert!(
        text.contains("\"type\":\"stalls\""),
        "stall attribution rides along"
    );
    // Attempt 0 ran below the diagnostics tier: no trace for it.
    assert!(!trace_dir.join(format!("{key}-attempt0.jsonl")).exists());
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// Unknown designs and benchmarks quarantine immediately (config failures
/// are not retryable) with a message naming the valid options.
#[test]
fn config_failures_quarantine_without_retries() {
    let mut runs = matrix()[..1].to_vec();
    runs[0].design = "warp-drive".to_owned();
    let report = run_campaign(&CampaignSpec::new(runs)).expect("campaign");
    let r = &report.records[0];
    assert_eq!(r.status, RunStatus::Quarantined);
    assert_eq!(r.attempts, 1, "retrying an unbuildable run is pointless");
    assert_eq!(r.failures[0].kind, FailureKind::Config);
    assert!(
        r.failures[0].panic_msg.contains("base64"),
        "error names valid designs: {}",
        r.failures[0].panic_msg
    );
}

/// A structurally starved run (shelf steering with a 2-entry shelf) is
/// rejected by the static-analysis pre-flight before a single cycle is
/// simulated, journaled with an `analysis-rejected` taxonomy entry, and
/// skipped on resume. Disabling the pre-flight restores the old behavior.
#[test]
fn preflight_rejects_starved_shelf_and_resumes_the_rejection() {
    let journal = temp_journal_dir("preflight");
    let mut runs = matrix()[..2].to_vec();
    // Run 0 is starved (2 shelf entries for 2 threads of dependent chains);
    // run 1 is untouched and must still complete.
    runs[0].design = "shelf-inorder".to_owned();
    runs[0].overrides = vec![("shelf".to_owned(), "2".to_owned())];
    let spec = CampaignSpec::new(runs.clone())
        .with_watchdog(Some(5_000))
        .with_journal_dir(&journal);

    let report = run_campaign(&spec).expect("campaign");
    let r0 = &report.records[0];
    assert_eq!(r0.status, RunStatus::Rejected);
    assert_eq!(r0.attempts, 0, "no cycle simulated, no attempt consumed");
    assert_eq!(r0.failures.len(), 1);
    assert_eq!(r0.failures[0].kind, FailureKind::AnalysisRejected);
    assert!(
        r0.failures[0].panic_msg.contains("SR001"),
        "rejection carries the diagnostic: {}",
        r0.failures[0].panic_msg
    );
    assert_eq!(report.records[1].status, RunStatus::Ok);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.rejected(), 1);
    assert_eq!(report.taxonomy().count("analysis-rejected"), 1);
    let text = report.render_text();
    assert!(text.contains("1 rejected"), "{text}");
    assert!(text.contains("[rejected]"), "{text}");
    assert!(report.render_json().contains("\"rejected\":1"));

    // The rejection is journaled and survives resume without re-analysis.
    let resumed = run_campaign(&spec).expect("resume");
    assert_eq!(resumed.resumed, 2, "rejected runs resume too");
    assert_eq!(resumed.records[0].status, RunStatus::Rejected);
    assert_eq!(
        resumed.records[0].failures[0].kind,
        FailureKind::AnalysisRejected
    );

    // Opting out of the pre-flight lets the starved config reach the
    // simulator (where the watchdog, not the prover, is the safety net).
    let unchecked = run_campaign(
        &CampaignSpec::new(runs[1..].to_vec())
            .with_watchdog(Some(5_000))
            .with_preflight(false),
    )
    .expect("campaign without preflight");
    assert_eq!(unchecked.records[0].status, RunStatus::Ok);
}

/// The differential validation tier lockstep-checks every run against the
/// in-order functional reference before timing it; clean runs journal
/// `validated:clean` and the outcome survives resume.
#[test]
fn validate_tier_marks_clean_runs_and_survives_resume() {
    let journal = temp_journal_dir("validated");
    let spec = CampaignSpec::new(matrix()[..2].to_vec())
        .with_watchdog(Some(5_000))
        .with_journal_dir(&journal)
        .with_validate(true);
    let report = run_campaign(&spec).expect("campaign");
    assert_eq!(report.completed(), 2);
    assert!(
        report.records.iter().all(|r| r.validated),
        "every run lockstep-validated clean"
    );
    let text = journal_text(&journal);
    assert_eq!(text.matches("\"validated\":\"clean\"").count(), 2);

    let resumed = run_campaign(&spec).expect("resume");
    assert_eq!(resumed.resumed, 2);
    assert!(
        resumed.records.iter().all(|r| r.validated),
        "validation outcome survives resume"
    );
}

/// Reports render both human- and machine-readable summaries.
#[test]
fn report_renders_text_and_json() {
    let faults = FaultPlan::new().inject(1, FaultKind::Panic, u32::MAX);
    let spec = CampaignSpec::new(matrix()[..2].to_vec())
        .with_watchdog(Some(5_000))
        .with_max_attempts(2)
        .with_faults(faults);
    let report = run_campaign(&spec).expect("campaign");
    let text = report.render_text();
    assert!(text.contains("1 completed, 1 quarantined"), "{text}");
    assert!(text.contains("[quarantined]"), "{text}");
    assert!(text.contains("taxonomy:"), "{text}");
    let json = report.render_json();
    assert!(json.starts_with('{'), "{json}");
    assert!(json.contains("\"quarantined\":1"), "{json}");
    assert!(json.contains("\"taxonomy\""), "{json}");
}
