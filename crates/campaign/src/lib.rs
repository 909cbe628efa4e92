//! `shelfsim-campaign` — a fault-tolerant runner for the paper's sweep
//! methodology: the full benchmark × design-point × thread-count matrix
//! executed as a resilient job queue (the shape of Figs. 1, 10, 11, 14 of
//! Sleiman & Wenisch, ISCA 2016).
//!
//! A campaign of hundreds of runs must survive individual-run failure: a
//! wedged pipeline must not spin forever, a panic must not kill hours of
//! completed work, and a killed process must resume where it stopped. The
//! crate provides:
//!
//! * **Per-run isolation** ([`run_campaign`]) — every run executes on a
//!   worker thread under `catch_unwind`; a panic becomes a structured
//!   [`RunFailure`] instead of aborting the campaign.
//! * **Forward-progress watchdog** — runs execute through
//!   [`shelfsim_core::Simulation::try_run`] with a
//!   [`shelfsim_core::Watchdog`]: if no thread commits for the configured
//!   cycle window the run aborts with a deadlock diagnosis (ROB/IQ/LSQ/
//!   shelf occupancy snapshot) instead of burning the whole cycle budget.
//! * **Retry with escalation** — failed runs are retried a bounded number
//!   of times; the first retry escalates to the diagnostics tier (commit
//!   log enabled, invariant sanitizer when compiled with `--features
//!   sanitize`); runs that keep failing are quarantined and the campaign
//!   completes with partial results plus an error-taxonomy summary.
//! * **Resumable journal** ([`Journal`]) — every final run outcome is
//!   appended to a JSONL journal keyed by a configuration fingerprint;
//!   re-invoking the same campaign skips completed runs idempotently.
//! * **Deterministic fault injection** ([`FaultPlan`]) — seeded injection
//!   of panics, artificial stalls, and watchdog-window violations into
//!   chosen runs, so the isolation/retry/resume machinery is itself
//!   testable end-to-end.
//!
//! # Example
//!
//! ```
//! use shelfsim_campaign::{CampaignSpec, FaultKind, FaultPlan, run_campaign};
//!
//! let runs = CampaignSpec::matrix(
//!     &["base64".into(), "shelf-opt".into()],
//!     &[vec!["gcc".into(), "mcf".into()]],
//!     7,    // seed
//!     200,  // warm-up cycles
//!     1000, // measured cycles
//! );
//! let spec = CampaignSpec::new(runs)
//!     .with_watchdog(Some(5_000))
//!     // Run #0 panics on its first attempt, then recovers on retry.
//!     .with_faults(FaultPlan::new().inject(0, FaultKind::Panic, 1));
//! let report = run_campaign(&spec).unwrap();
//! assert_eq!(report.completed(), 2);
//! assert!(report.taxonomy().count("panic") >= 1);
//! ```

//!
//! PR 10 scaled the runner from a handful of runs to the paper's full
//! sweep surface: [`SweepSpec`] expands the benchmark × mix × design ×
//! thread-count matrix, [`pool::StealQueues`] distributes it over
//! work-stealing per-worker deques, [`ShardedJournal`] gives every worker
//! a lock-free journal shard merged deterministically on read,
//! [`ResultCache`] dedupes requested runs against all merged history by
//! config-hash key, and [`pareto_report`] reproduces the paper's Fig 13
//! STP / energy-delay / area trade-off over the journal.

pub mod cache;
pub mod fault;
pub mod journal;
pub mod pareto;
pub mod pool;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;

pub use cache::{Admission, ResultCache};
pub use fault::{Fault, FaultKind, FaultMix, FaultPlan};
pub use journal::{Journal, JournalEntry, ShardWriter, ShardedJournal};
pub use pareto::{pareto_report, ParetoPoint, ParetoReport};
pub use pool::{shard_plan, StealQueues};
pub use report::CampaignReport;
pub use runner::{
    run_campaign, warmups_needed, FailureKind, RunFailure, RunOutcome, RunRecord, RunStatus,
    WorkerScratch,
};
pub use spec::{CampaignSpec, RunSpec};
pub use sweep::SweepSpec;
