//! Deterministic rendering of validation results (text and JSON).
//!
//! Both renderers are byte-deterministic functions of their inputs — the
//! golden test reruns a validation and asserts identical output — and the
//! JSON is hand-rolled the same way as the campaign journal (no serde in
//! the workspace).

use crate::lockstep::Verdict;
use crate::sweep::SweepReport;
use shelfsim_core::json_escape;
use std::fmt::Write as _;

/// One validated (design × threads × workload) combination.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Design-point name (`base64`, `shelf-opt`, ...).
    pub design: String,
    /// Hardware thread count.
    pub threads: usize,
    /// Workload label (`kernel:daxpy`, `suite:gcc+mcf`, `gen:<seed>`).
    pub workload: String,
    /// Lockstep verdict.
    pub verdict: Verdict,
    /// Sensitivity sweep outcome, when one was run for this combination.
    pub sweep: Option<SweepReport>,
    /// Path of a persisted shrunk regression case, if divergence shrinking
    /// produced one.
    pub regression: Option<String>,
}

impl RunReport {
    /// True when the lockstep verdict is clean and any sweep was clean too.
    pub fn is_clean(&self) -> bool {
        self.verdict.is_clean() && self.sweep.as_ref().is_none_or(SweepReport::is_clean)
    }
}

/// Totals across a report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Fully clean runs.
    pub clean: usize,
    /// Runs whose commit stream diverged from the reference.
    pub diverged: usize,
    /// Runs that violated a cross-cutting invariant (including sweeps).
    pub invariant: usize,
}

/// Tallies `runs` into [`Totals`] (sweep violations count as invariant
/// violations).
pub fn totals(runs: &[RunReport]) -> Totals {
    let mut t = Totals::default();
    for r in runs {
        match &r.verdict {
            Verdict::Clean(_) if r.is_clean() => t.clean += 1,
            Verdict::Clean(_) => t.invariant += 1,
            Verdict::Diverged(_) => t.diverged += 1,
            Verdict::Invariant(_) => t.invariant += 1,
        }
    }
    t
}

/// Renders the human-readable report.
pub fn render_text(runs: &[RunReport]) -> String {
    let t = totals(runs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "validate: {} runs, {} clean, {} diverged, {} invariant-violations",
        runs.len(),
        t.clean,
        t.diverged,
        t.invariant
    );
    for r in runs {
        let status = if r.is_clean() { "ok  " } else { "FAIL" };
        let _ = write!(
            out,
            "  {status} {:<14} x{} {}",
            r.design, r.threads, r.workload
        );
        match &r.verdict {
            Verdict::Clean(s) => {
                let _ = write!(
                    out,
                    "  cycles={} committed={}",
                    s.cycles,
                    s.committed.iter().sum::<u64>()
                );
            }
            Verdict::Diverged(d) => {
                let _ = write!(out, "  {d}");
            }
            Verdict::Invariant(v) => {
                let _ = write!(out, "  {v}");
            }
        }
        out.push('\n');
        if let Verdict::Diverged(d) = &r.verdict {
            for line in d.trace_window.lines() {
                let _ = writeln!(out, "      trace {line}");
            }
        }
        if let Some(sw) = &r.sweep {
            for p in &sw.points {
                let _ = writeln!(out, "      sweep {:<10} {}", p.label, p.verdict.as_str());
            }
            if let Some(v) = &sw.violation {
                let _ = writeln!(out, "      sweep VIOLATION: {v}");
            }
        }
        if let Some(path) = &r.regression {
            let _ = writeln!(out, "      regression case: {path}");
        }
    }
    out
}

/// Renders the machine-readable report (`shelfsim-validate-v1`).
pub fn render_json(runs: &[RunReport]) -> String {
    let t = totals(runs);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"shelfsim-validate-v1\",\"runs\":{},\"clean\":{},\"diverged\":{},\"invariant\":{},\"results\":[",
        runs.len(),
        t.clean,
        t.diverged,
        t.invariant
    );
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"design\":\"{}\",\"threads\":{},\"workload\":\"{}\",\"verdict\":\"{}\"",
            json_escape(&r.design),
            r.threads,
            json_escape(&r.workload),
            r.verdict.as_str()
        );
        match &r.verdict {
            Verdict::Clean(s) => {
                let _ = write!(
                    out,
                    ",\"cycles\":{},\"committed\":{}",
                    s.cycles,
                    s.committed.iter().sum::<u64>()
                );
            }
            Verdict::Diverged(d) => {
                let _ = write!(
                    out,
                    ",\"thread\":{},\"commit_index\":{},\"cycle\":{},\"field\":\"{}\",\"expected\":\"{}\",\"got\":\"{}\"",
                    d.thread,
                    d.commit_index,
                    d.cycle,
                    json_escape(d.field),
                    json_escape(&d.expected),
                    json_escape(&d.got)
                );
            }
            Verdict::Invariant(v) => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"detail\":\"{}\"",
                    json_escape(v.kind),
                    json_escape(&v.detail)
                );
            }
        }
        if let Some(sw) = &r.sweep {
            let _ = write!(out, ",\"sweep\":{{\"clean\":{}", sw.is_clean());
            if let Some(v) = &sw.violation {
                let _ = write!(out, ",\"violation\":\"{}\"", json_escape(v));
            }
            let _ = write!(out, ",\"points\":[");
            for (j, p) in sw.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"label\":\"{}\",\"verdict\":\"{}\"}}",
                    json_escape(&p.label),
                    p.verdict.as_str()
                );
            }
            out.push_str("]}");
        }
        if let Some(path) = &r.regression {
            let _ = write!(out, ",\"regression\":\"{}\"", json_escape(path));
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}
