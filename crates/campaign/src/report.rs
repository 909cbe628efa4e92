//! Campaign reporting: graceful-degradation summaries over whatever subset
//! of the matrix completed, plus the error taxonomy.

use crate::journal::json_escape;
use crate::runner::{RunRecord, RunStatus};
use shelfsim_stats::{grouped_geomean, Tally};
use std::fmt::Write as _;

/// Aggregate outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Final record of every run, in matrix order.
    pub records: Vec<RunRecord>,
    /// Runs restored from the journal instead of executed.
    pub resumed: usize,
    /// Thread programs the workers generated (program-memo misses).
    pub program_builds: usize,
    /// Thread-program reads the workers' program memos served.
    pub program_hits: usize,
    /// Warm-ups the workers ran from scratch.
    pub warm_builds: usize,
    /// Executed runs that started from a clone of a kept warmed state.
    pub warm_hits: usize,
}

impl CampaignReport {
    /// Builds a report over `records`.
    pub fn new(records: Vec<RunRecord>, resumed: usize) -> Self {
        CampaignReport {
            records,
            resumed,
            program_builds: 0,
            program_hits: 0,
            warm_builds: 0,
            warm_hits: 0,
        }
    }

    /// Runs that produced results.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == RunStatus::Ok)
            .count()
    }

    /// Runs that exhausted their attempt budget.
    pub fn quarantined(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == RunStatus::Quarantined)
            .count()
    }

    /// Runs the static-analysis pre-flight rejected before simulation.
    pub fn rejected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == RunStatus::Rejected)
            .count()
    }

    /// The error taxonomy: final statuses, retry outcomes, per-kind failed
    /// attempts, and truncated measurements.
    pub fn taxonomy(&self) -> Tally {
        let mut tally = Tally::new();
        for r in &self.records {
            tally.add(r.status.as_str());
            if r.status == RunStatus::Ok && r.attempts > 1 {
                tally.add("retried-ok");
            }
            for f in &r.failures {
                tally.add(f.kind.as_str());
            }
            if let Some(o) = &r.outcome {
                if o.completion.is_truncated() {
                    tally.add("truncated");
                }
            }
        }
        tally
    }

    /// Per-design-point geometric-mean IPC over completed runs:
    /// `(design point, geomean IPC, run count)`, in name order. A design
    /// point is the design name plus its override set (`shelf-opt
    /// [shelf=16]`), so an override axis never averages different
    /// configurations together. Quarantined runs simply contribute
    /// nothing (partial results, not aborts).
    pub fn per_design_ipc(&self) -> Vec<(String, f64, usize)> {
        let pairs: Vec<(String, f64)> = self
            .records
            .iter()
            .filter_map(|r| {
                let o = r.outcome.as_ref()?;
                (o.ipc > 0.0).then(|| (r.spec.design_point(), o.ipc))
            })
            .collect();
        grouped_geomean(&pairs)
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "campaign: {} runs, {} completed, {} quarantined, {} rejected, {} resumed from journal",
            self.records.len(),
            self.completed(),
            self.quarantined(),
            self.rejected(),
            self.resumed
        )
        .expect("write");
        for r in &self.records {
            let marker = match (r.status, r.attempts, r.resumed) {
                (RunStatus::Quarantined, _, _) => "[quarantined]",
                (RunStatus::Rejected, _, _) => "[rejected]",
                (RunStatus::Ok, a, _) if a > 1 => "[retried]",
                (RunStatus::Ok, _, true) => "[resumed]",
                (RunStatus::Ok, _, false) => "[ok]",
            };
            match &r.outcome {
                Some(o) => {
                    writeln!(
                        out,
                        "  {marker:<13} {:<40} ipc {:>6.3}  {} ({} attempt{})",
                        r.spec.label(),
                        o.ipc,
                        o.completion.as_str(),
                        r.attempts,
                        if r.attempts == 1 { "" } else { "s" }
                    )
                    .expect("write");
                }
                None => {
                    let cause = r
                        .failures
                        .last()
                        .map(|f| format!("{}: {}", f.kind.as_str(), f.panic_msg))
                        .unwrap_or_else(|| "no attempts".to_owned());
                    writeln!(
                        out,
                        "  {marker:<13} {:<40} {}",
                        r.spec.label(),
                        truncate(&cause, 120)
                    )
                    .expect("write");
                }
            }
        }
        let per_design = self.per_design_ipc();
        if !per_design.is_empty() {
            // The first design listed is the comparison baseline. A
            // degenerate baseline (zero IPC — every run truncated before
            // committing) renders as `n/a` rather than killing the report.
            let base = per_design[0].1;
            writeln!(out, "per-design geomean IPC over completed runs:").expect("write");
            for (i, (design, ipc, n)) in per_design.iter().enumerate() {
                if i == 0 {
                    writeln!(out, "  {design:<14} {ipc:>6.3}  ({n} runs, baseline)")
                        .expect("write");
                } else {
                    writeln!(
                        out,
                        "  {design:<14} {ipc:>6.3}  ({n} runs, {} vs {})",
                        shelfsim_stats::render_delta(shelfsim_stats::percent_delta(base, *ipc)),
                        per_design[0].0
                    )
                    .expect("write");
                }
            }
        }
        writeln!(out, "taxonomy: {}", self.taxonomy().render()).expect("write");
        writeln!(
            out,
            "scratch: programs {} built, {} reused; warm-ups {} built, {} reused",
            self.program_builds, self.program_hits, self.warm_builds, self.warm_hits
        )
        .expect("write");
        out
    }

    /// Machine-readable summary (one JSON object).
    pub fn render_json(&self) -> String {
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                let (ipc, cycles, completion) = match &r.outcome {
                    Some(o) => (o.ipc, o.cycles, o.completion.as_str()),
                    None => (0.0, 0, ""),
                };
                let error = r
                    .failures
                    .last()
                    .map(|f| f.kind.as_str())
                    .unwrap_or_default();
                format!(
                    concat!(
                        r#"{{"key":"{}","label":"{}","status":"{}","attempts":{},"#,
                        r#""resumed":{},"ipc":{:.4},"cycles":{},"completion":"{}","error":"{}"}}"#
                    ),
                    r.spec.key(),
                    json_escape(&r.spec.label()),
                    r.status.as_str(),
                    r.attempts,
                    r.resumed,
                    ipc,
                    cycles,
                    completion,
                    error
                )
            })
            .collect();
        let taxonomy: Vec<String> = self
            .taxonomy()
            .iter()
            .map(|(k, v)| format!(r#""{}":{}"#, json_escape(k), v))
            .collect();
        let per_design: Vec<String> = self
            .per_design_ipc()
            .iter()
            .map(|(d, ipc, n)| {
                format!(
                    r#"{{"design":"{}","geomean_ipc":{:.4},"runs":{}}}"#,
                    json_escape(d),
                    ipc,
                    n
                )
            })
            .collect();
        format!(
            concat!(
                r#"{{"runs":{},"completed":{},"quarantined":{},"rejected":{},"resumed":{},"#,
                r#""scratch":{{"program_builds":{},"program_hits":{},"warm_builds":{},"#,
                r#""warm_hits":{}}},"taxonomy":{{{}}},"per_design":[{}],"records":[{}]}}"#
            ),
            self.records.len(),
            self.completed(),
            self.quarantined(),
            self.rejected(),
            self.resumed,
            self.program_builds,
            self.program_hits,
            self.warm_builds,
            self.warm_hits,
            taxonomy.join(","),
            per_design.join(","),
            records.join(",")
        )
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_owned()
    } else {
        let head: String = s.chars().take(max).collect();
        format!("{head}…")
    }
}
