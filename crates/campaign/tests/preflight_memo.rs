//! Memoized pre-flight: a worker derives each thread program's pre-flight
//! facts once and re-checks them per design point. Rejections must not
//! depend on what the worker analysed before: a reused scratch, a fresh
//! scratch per run, and any worker count reject the same runs with the
//! same messages.

use shelfsim_campaign::{
    run_campaign, CampaignSpec, RunRecord, RunSpec, RunStatus, ShardedJournal,
};
use std::collections::HashSet;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shelfsim_preflight_memo_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three designs over two 2-thread mixes; every `shelf-inorder` run has a
/// starved 2-entry shelf, so the matrix mixes rejected and clean runs that
/// share their thread programs.
fn starved_matrix() -> Vec<RunSpec> {
    let mut runs = CampaignSpec::matrix(
        &[
            "base64".to_owned(),
            "shelf-inorder".to_owned(),
            "shelf-opt".to_owned(),
        ],
        &[
            vec!["gcc".to_owned(), "mcf".to_owned()],
            vec!["hmmer".to_owned(), "gcc".to_owned()],
        ],
        7,
        200,
        800,
    );
    for run in &mut runs {
        if run.design == "shelf-inorder" {
            run.overrides = vec![("shelf".to_owned(), "2".to_owned())];
        }
    }
    runs
}

/// Each record's status and last failure message.
fn verdicts(records: &[RunRecord]) -> Vec<(RunStatus, String)> {
    records
        .iter()
        .map(|r| {
            let message = r
                .failures
                .last()
                .map_or(String::new(), |f| f.panic_msg.clone());
            (r.status, message)
        })
        .collect()
}

#[test]
fn reused_scratch_rejects_like_a_fresh_scratch_per_run() {
    let runs = starved_matrix();
    let reused = run_campaign(&CampaignSpec::new(runs.clone()).with_workers(1)).expect("campaign");
    assert_eq!(reused.rejected(), 2, "both starved runs are rejected");
    assert_eq!(
        reused.completed(),
        runs.len() - 2,
        "every other run completes"
    );
    // One worker builds each distinct thread program once and serves every
    // later read (pre-flight, warm-up) from its memo.
    let distinct: HashSet<(String, u64)> = runs
        .iter()
        .flat_map(|r| {
            r.mix
                .iter()
                .enumerate()
                .map(|(t, name)| (name.clone(), shelfsim_core::thread_program_seed(r.seed, t)))
        })
        .collect();
    assert_eq!(reused.program_builds, distinct.len());
    assert!(reused.program_hits > 0);
    let counts = format!(
        "scratch: programs {} built, {} reused; warm-ups {} built, {} reused",
        reused.program_builds, reused.program_hits, reused.warm_builds, reused.warm_hits
    );
    assert!(reused.render_text().contains(&counts), "{counts}");
    assert!(reused
        .render_json()
        .contains(&format!(r#""program_builds":{},"#, distinct.len())));

    let fresh: Vec<RunRecord> = runs
        .iter()
        .map(|run| {
            let mut report =
                run_campaign(&CampaignSpec::new(vec![run.clone()])).expect("one-run campaign");
            report.records.remove(0)
        })
        .collect();
    assert_eq!(verdicts(&reused.records), verdicts(&fresh));
    for (a, b) in reused.records.iter().zip(&fresh) {
        assert_eq!(
            a.to_journal_entry().to_json_line(),
            b.to_journal_entry().to_json_line(),
            "{}",
            a.spec.label()
        );
    }
}

#[test]
fn worker_count_does_not_change_the_rejections() {
    let runs = starved_matrix();
    let mut merged = Vec::new();
    for workers in [1, 2] {
        let dir = tmp(&format!("workers{workers}"));
        let report = run_campaign(
            &CampaignSpec::new(runs.clone())
                .with_workers(workers)
                .with_journal_dir(&dir),
        )
        .expect("campaign");
        assert_eq!(report.rejected(), 2, "{workers} worker(s)");
        assert_eq!(report.taxonomy().count("analysis-rejected"), 2);
        merged.push(ShardedJournal::new(&dir).merged_bytes().expect("journal"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(merged[0], merged[1], "merged journal bytes");
}
