//! Typed diagnostics shared by every analysis pass.
//!
//! A [`Diagnostic`] is one finding: a stable lint code (`SA…` for program
//! lints, `SC…` for configuration contradictions), a [`Severity`], a
//! human-readable message, and — when the subject came from a `.s` kernel
//! or a config file — a source [`Span`]. A [`Report`] collects the findings
//! of one lint run and renders them as text or JSON.

use shelfsim_core::json_escape;

/// How serious a finding is.
///
/// Only [`Severity::Error`] makes a lint run fail (nonzero CLI exit);
/// a *lint-clean* artifact additionally has no warnings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a measurement or estimate, never a defect.
    Info,
    /// Suspicious but not definitely wrong; does not fail the run.
    Warning,
    /// A definite contradiction or bug; fails the run.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Source location of a finding (1-based line in a named file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// File the finding refers to, as given to the linter.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
}

/// One analysis finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`SA001`, `SC003`, …).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Source location, when the subject has one.
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Creates a spanless diagnostic.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, file: &str, line: usize) -> Self {
        self.span = Some(Span {
            file: file.to_owned(),
            line,
        });
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.span {
            Some(s) => write!(
                f,
                "{}:{}: {} [{}] {}",
                s.file, s.line, self.severity, self.code, self.message
            ),
            None => write!(f, "{} [{}] {}", self.severity, self.code, self.message),
        }
    }
}

/// The findings of one lint run, ordered most severe first.
#[derive(Clone, Debug, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report, sorting findings by descending severity, then by
    /// source line, then by code.
    pub fn new(mut diags: Vec<Diagnostic>) -> Self {
        diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| {
                    a.span
                        .as_ref()
                        .map(|s| s.line)
                        .cmp(&b.span.as_ref().map(|s| s.line))
                })
                .then_with(|| a.code.cmp(b.code))
        });
        Report { diags }
    }

    /// The findings, most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Returns `true` if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Returns `true` if there are no errors and no warnings (informational
    /// findings are allowed).
    pub fn is_clean(&self) -> bool {
        !self.diags.iter().any(|d| d.severity >= Severity::Warning)
    }

    /// Renders the report as one diagnostic per line plus a summary line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            writeln!(out, "{d}").expect("write");
        }
        writeln!(
            out,
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )
        .expect("write");
        out
    }

    /// Renders the report as a JSON array of finding objects.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            out.push_str(&format!("\"code\":\"{}\",", d.code));
            out.push_str(&format!("\"severity\":\"{}\",", d.severity));
            out.push_str(&format!("\"message\":\"{}\"", json_escape(&d.message)));
            if let Some(s) = &d.span {
                out.push_str(&format!(
                    ",\"file\":\"{}\",\"line\":{}",
                    json_escape(&s.file),
                    s.line
                ));
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// Registry metadata for one diagnostic code: the single source of truth
/// for severity, the one-line summary shown in tables, and the long-form
/// explanation behind `shelfsim lint --explain CODE`. The README lint-code
/// table is generated from this registry by a test, so the two can never
/// drift apart.
#[derive(Clone, Copy, Debug)]
pub struct CodeInfo {
    /// Stable lint code.
    pub code: &'static str,
    /// Severity every diagnostic with this code carries.
    pub severity: Severity,
    /// One-line summary (table cell).
    pub summary: &'static str,
    /// Long-form explanation (`--explain`).
    pub explain: &'static str,
}

/// Every diagnostic code any pass in this crate can emit, in table order.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: "SA000",
        severity: Severity::Error,
        summary: "kernel source failed to assemble",
        explain: "The `.s` source could not be parsed into a program. The span points at \
                  the offending line; nothing else can be analyzed until it assembles.",
    },
    CodeInfo {
        code: "SA001",
        severity: Severity::Error,
        summary: "register read but never written and not an input register",
        explain: "A source register has no defining instruction anywhere in the program \
                  and is not one of the conventional inputs (r0-r7, f0-f7, or the chase \
                  cursors r24-r27). The value is garbage; the kernel is buggy.",
    },
    CodeInfo {
        code: "SA002",
        severity: Severity::Warning,
        summary: "basic block unreachable from the entry block",
        explain: "No path of terminator edges (loop/beq/jmp/call plus fall-through) from \
                  block 0 reaches this block, so it never executes. Usually a label typo \
                  or dead experiment code.",
    },
    CodeInfo {
        code: "SA003",
        severity: Severity::Warning,
        summary: "dead write: value overwritten before any read",
        explain: "The destination register is re-written before any instruction reads it \
                  on every forward path. Liveness is deliberately conservative across \
                  backward edges (everything is assumed live at a back edge), so \
                  loop-carried accumulators are never flagged.",
    },
    CodeInfo {
        code: "SA004",
        severity: Severity::Info,
        summary: "in-sequence series length estimate (shelf affinity)",
        explain: "Reports the mean and maximum length of runs of consecutive instructions \
                  each depending on the previous one. Paper §IV steers exactly such runs \
                  to the shelf; longer series predict more shelf coverage.",
    },
    CodeInfo {
        code: "SA005",
        severity: Severity::Warning,
        summary: "strided footprint contradicts the region= label",
        explain: "A strided access either has a stride at least as large as its region \
                  (every access aliases after wrap-around) or walks past the region's \
                  size within one loop entry. The measured locality will not match the \
                  region label the kernel claims.",
    },
    CodeInfo {
        code: "SB001",
        severity: Severity::Info,
        summary: "static IPC upper bound for a program on a config",
        explain: "The dependence-graph critical-path pass computed a sound upper bound on \
                  committed IPC from core width, functional-unit mix, and loop-carried \
                  dependence chains. Measured IPC above this bound indicates a simulator \
                  bug; see `shelfsim analyze --bounds` and docs/MECHANISMS.md §13.",
    },
    CodeInfo {
        code: "SC001",
        severity: Severity::Error,
        summary: "ROB/LQ/SQ too small for the thread count",
        explain: "Static partitioning gives each thread fewer entries than one dispatch \
                  group (ROB) or zero entries (LQ/SQ). The core cannot make progress for \
                  every thread.",
    },
    CodeInfo {
        code: "SC002",
        severity: Severity::Error,
        summary: "issue width exceeds IQ capacity",
        explain: "The scheduler can never select more instructions than the issue queue \
                  holds; an issue width above `iq_entries` is unrealizable.",
    },
    CodeInfo {
        code: "SC003",
        severity: Severity::Warning,
        summary: "LQ/SQ larger than the ROB",
        explain: "Every in-flight load/store also holds a ROB entry, so load/store queue \
                  capacity beyond the ROB size is unreachable silicon.",
    },
    CodeInfo {
        code: "SC004",
        severity: Severity::Error,
        summary: "shelf steering enabled with zero shelf entries",
        explain: "A steering policy other than always-IQ needs a shelf to steer to; with \
                  `shelf_entries = 0` steered instructions have nowhere to go.",
    },
    CodeInfo {
        code: "SC005",
        severity: Severity::Warning,
        summary: "shelf configured but unusable or never used",
        explain: "Either the shelf exists under always-IQ steering (dead silicon), or the \
                  per-thread shelf share is smaller than the dispatch width (a steered \
                  dispatch group cannot fit).",
    },
    CodeInfo {
        code: "SC006",
        severity: Severity::Warning,
        summary: "fetch width below dispatch width",
        explain: "The front end cannot sustain the dispatch rate; dispatch width is \
                  effectively capped by fetch.",
    },
    CodeInfo {
        code: "SC007",
        severity: Severity::Error,
        summary: "config file failed to parse",
        explain: "A `key = value` line in the config file has an unknown key or an \
                  unparsable value. The span points at the line.",
    },
    CodeInfo {
        code: "SR001",
        severity: Severity::Error,
        summary: "shelf share cannot hold the longest in-sequence run",
        explain: "The resource-adequacy pass could not prove deadlock-freedom: a steering \
                  policy is active but a thread's shelf share is smaller than \
                  `min(longest in-sequence dependence run, dispatch width)`, so a steered \
                  run can wedge dispatch with every shelf entry waiting on an IQ-side \
                  producer. Campaign pre-flight rejects such runs before simulating.",
    },
    CodeInfo {
        code: "SR002",
        severity: Severity::Warning,
        summary: "static outstanding-miss demand exceeds data MSHRs",
        explain: "The number of static memory accesses that target L1-exceeding regions \
                  (capped by the per-thread LQ+SQ share) is larger than the data-MSHR \
                  pool, so misses will serialize. Progress is still provable; throughput \
                  suffers.",
    },
    CodeInfo {
        code: "SR003",
        severity: Severity::Warning,
        summary: "per-thread LQ/SQ/ROB share smaller than the densest block",
        explain: "Some reachable block contains more loads/stores/instructions than one \
                  thread's queue share, so the block can never be fully in flight and \
                  dispatch will stall inside it on every entry.",
    },
    CodeInfo {
        code: "SR004",
        severity: Severity::Error,
        summary: "a required progress resource has zero capacity",
        explain: "The program uses a resource the config provides zero of (data MSHRs \
                  with memory accesses, store-buffer entries with stores, or a \
                  functional-unit kind with zero units). The first such instruction can \
                  never complete: an unconditional deadlock.",
    },
];

/// Looks up registry metadata for `code`.
pub fn code_info(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|c| c.code == code)
}

/// Renders the registry as the markdown lint-code table embedded in the
/// README (between the `lint-codes` markers). Kept here so the README
/// generator test and any future doc tooling agree byte-for-byte.
pub fn render_code_table() -> String {
    let mut out = String::from("| Code | Severity | Finding |\n|------|----------|---------|\n");
    for c in REGISTRY {
        let sev = match c.severity {
            Severity::Info => "Info",
            Severity::Warning => "Warning",
            Severity::Error => "Error",
        };
        out.push_str(&format!("| {} | {} | {} |\n", c.code, sev, c.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_drives_report_order() {
        let r = Report::new(vec![
            Diagnostic::new("SA004", Severity::Info, "note"),
            Diagnostic::new("SA001", Severity::Error, "bug"),
            Diagnostic::new("SA003", Severity::Warning, "meh"),
        ]);
        let codes: Vec<_> = r.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["SA001", "SA003", "SA004"]);
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }

    #[test]
    fn clean_means_no_errors_or_warnings() {
        let r = Report::new(vec![Diagnostic::new("SA004", Severity::Info, "note")]);
        assert!(r.is_clean());
        assert!(!r.has_errors());
    }

    #[test]
    fn text_rendering_includes_span_and_summary() {
        let r = Report::new(vec![Diagnostic::new(
            "SA001",
            Severity::Error,
            "r9 read before any write",
        )
        .with_span("k.s", 3)]);
        let text = r.render_text();
        assert!(
            text.contains("k.s:3: error [SA001] r9 read before any write"),
            "{text}"
        );
        assert!(
            text.contains("1 error(s), 0 warning(s), 0 note(s)"),
            "{text}"
        );
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let r = Report::new(vec![Diagnostic::new(
            "SC001",
            Severity::Error,
            "a \"quoted\" message",
        )
        .with_span("c.cfg", 2)]);
        let json = r.render_json();
        assert!(json.contains("\"code\":\"SC001\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"line\":2"), "{json}");
    }
}
