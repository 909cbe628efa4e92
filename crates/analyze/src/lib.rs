//! # shelfsim-analyze
//!
//! The static-analysis framework of the shelfsim workspace, sharing a
//! typed-diagnostic core ([`Diagnostic`], [`Severity`], [`Report`]) and a
//! common [`cfg::Cfg`] + worklist [`dataflow`] engine:
//!
//! * [`lint_program`] — dataflow lints over a [`shelfsim_workload::Program`]
//!   (`SA001`–`SA005`): def-before-use, unreachable blocks, dead writes,
//!   in-sequence series estimation, and footprint/region contradictions.
//! * [`lint_config`] / [`lint_config_file`] — contradiction checks over a
//!   [`shelfsim_core::CoreConfig`] (`SC001`–`SC007`), returning **all**
//!   violations rather than panicking on the first like
//!   `CoreConfig::validate`.
//! * [`lint_kernel_source`] — the `.s` front end: assemble with line
//!   tracking, then lint with source spans.
//! * [`dataflow`] — the worklist engine with reaching definitions, def-use
//!   chains, and precise live registers over the [`cfg::Cfg`].
//! * [`ipc_bound`] / [`aggregate_bound`] — sound static IPC upper bounds
//!   per program × config (`SB001`), asserted against simulator results.
//! * [`check_adequacy`] — resource-adequacy proof obligations
//!   (`SR001`–`SR004`): shelf depth vs. dependence runs, MSHR demand,
//!   per-thread queue shares, zero-capacity resources.
//! * [`preflight`] — the campaign pre-flight bundle: config lint + program
//!   lint + adequacy over the exact per-thread programs of a queued run.
//!   [`ProgramFacts`] is its design-independent half, computed once per
//!   program; [`preflight_errors`] re-checks those facts against a config
//!   and finds the same errors.
//!
//! The registry of every code ([`REGISTRY`], [`code_info`],
//! [`render_code_table`]) is the single source of truth for severities and
//! documentation; the README's lint-code table is generated from it by a
//! test so the two cannot drift.
//!
//! The remaining leg of the subsystem — the dynamic invariant *sanitizer* —
//! is not in this crate: it lives inside `shelfsim-uarch`/`shelfsim-core`
//! behind the `sanitize` feature, auditing free-list token conservation
//! and queue occupancy every cycle (see `docs/MECHANISMS.md`).
//!
//! ```
//! use shelfsim_analyze::{lint_kernel_source, Report, Severity};
//!
//! let report = Report::new(lint_kernel_source(
//!     "top:\n  add r8, r9\n  loop top, trips=10\n",
//!     "demo.s",
//! ));
//! assert!(report.has_errors()); // r9 is read but never written
//! assert_eq!(report.diagnostics()[0].code, "SA001");
//! ```

pub mod adequacy;
pub mod bounds;
pub mod cfg;
pub mod config_lint;
pub mod dataflow;
pub mod diagnostic;
pub mod program_lint;

pub use adequacy::check_adequacy;
pub use bounds::{aggregate_bound, ipc_bound, IpcBoundReport, RecurrenceBound};
pub use cfg::Cfg;
pub use config_lint::{
    apply_override, design_by_name, lint_config, lint_config_file, DESIGN_NAMES, OVERRIDE_KEYS,
};
pub use dataflow::{live_registers, BitSet, DataflowAnalysis, DefUse, ReachingDefs, Solution};
pub use diagnostic::{
    code_info, render_code_table, CodeInfo, Diagnostic, Report, Severity, Span, REGISTRY,
};
pub use program_lint::lint_program;

/// Campaign pre-flight: bundles the config lint, the program lints, and
/// the resource-adequacy pass over the exact per-thread `programs` a
/// queued run would execute, returning one combined [`Report`].
///
/// Only errors should reject a run — warnings are throughput advisories
/// and info diagnostics are measurements.
pub fn preflight(
    cfg: &shelfsim_core::CoreConfig,
    programs: &[shelfsim_workload::program::Program],
) -> Report {
    let mut diags = lint_config(cfg);
    for p in programs {
        let graph = Cfg::new(p);
        diags.extend(program_lint::lint_program_on(p, &graph, None));
        diags.extend(adequacy::check_adequacy_on(p, &graph, cfg, None));
    }
    Report::new(diags)
}

/// The design-independent half of the campaign pre-flight for one
/// program: its program-lint errors, plus the CFG facts the error-severity
/// adequacy obligations (SR001, SR004) read. Built once per program (one
/// CFG for both passes) and re-checked against any number of configs.
///
/// Only errors are kept: warnings never reject a run, and a large program
/// lints to thousands of them.
#[derive(Clone, Debug)]
pub struct ProgramFacts {
    lint_errors: Vec<Diagnostic>,
    adequacy: adequacy::AdequacyFacts,
}

impl ProgramFacts {
    /// Lints `program` and derives its adequacy facts.
    pub fn new(program: &shelfsim_workload::program::Program) -> Self {
        let graph = Cfg::new(program);
        // Copy into a fresh Vec: `into_iter().filter().collect()` reuses
        // the lint stream's buffer in place, and a memo holding that
        // buffer keeps the capacity of thousands of warnings alive.
        let lint_errors = program_lint::lint_program_on(program, &graph, None)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned()
            .collect();
        ProgramFacts {
            lint_errors,
            adequacy: adequacy::AdequacyFacts::new(program, &graph),
        }
    }

    /// The program's pre-flight errors on `cfg`: its lint errors, then
    /// the failed SR001 and SR004 obligations — the errors [`preflight`]
    /// finds for this program, in its order.
    pub fn errors(&self, cfg: &shelfsim_core::CoreConfig) -> Vec<Diagnostic> {
        let mut errors = self.lint_errors.clone();
        errors.extend(self.adequacy.errors(cfg));
        errors
    }
}

/// The error-severity findings of [`preflight`] on `cfg` and the programs
/// `facts` were built from, in the same order, without re-analysing the
/// programs: the config lint's errors plus each program's
/// [`ProgramFacts::errors`].
pub fn preflight_errors(cfg: &shelfsim_core::CoreConfig, facts: &[&ProgramFacts]) -> Report {
    let mut errors: Vec<Diagnostic> = lint_config(cfg)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    for f in facts {
        errors.extend(f.errors(cfg));
    }
    Report::new(errors)
}

/// Assembles `.s` kernel `source` and lints it with spans into `file`.
///
/// Assembly errors are reported as an `SA000` error diagnostic (with the
/// parser's line number) instead of an `Err`, so callers always get a
/// uniform diagnostic stream.
pub fn lint_kernel_source(source: &str, file: &str) -> Vec<Diagnostic> {
    match shelfsim_workload::asm::assemble_with_lines(source) {
        Ok((program, lines)) => lint_program(&program, Some((file, &lines))),
        Err(e) => vec![Diagnostic::new(
            "SA000",
            Severity::Error,
            format!("assembly failed: {}", e.message),
        )
        .with_span(file, e.line)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_source_front_end_attaches_file_spans() {
        let diags = lint_kernel_source("top:\n add r8, r20\n loop top, trips=10\n", "k.s");
        let d = diags.iter().find(|d| d.code == "SA001").expect("SA001");
        assert_eq!(d.span.as_ref().unwrap().file, "k.s");
        assert_eq!(d.span.as_ref().unwrap().line, 2);
    }

    #[test]
    fn assembly_errors_become_sa000_diagnostics() {
        let diags = lint_kernel_source("top:\n bogus r1\n", "broken.s");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SA000");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span.as_ref().unwrap().line, 2);
    }

    fn preflight_programs(seed: u64) -> Vec<shelfsim_workload::program::Program> {
        ["gcc", "mcf"]
            .iter()
            .enumerate()
            .map(|(t, name)| {
                shelfsim_workload::suite::by_name(name)
                    .expect("suite bench")
                    .build_program(shelfsim_core::thread_program_seed(seed, t))
            })
            .collect()
    }

    #[test]
    fn preflight_accepts_standard_designs_on_suite_programs() {
        let cfg = design_by_name("shelf-opt", 2).expect("known design");
        let report = preflight(&cfg, &preflight_programs(7));
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn preflight_rejects_starved_shelf_before_any_cycle() {
        let mut cfg = design_by_name("shelf-inorder", 2).expect("known design");
        apply_override(&mut cfg, "shelf", "2").expect("valid override");
        let report = preflight(&cfg, &preflight_programs(7));
        assert!(report.has_errors(), "{}", report.render_text());
        assert!(
            report.diagnostics().iter().any(|d| d.code == "SR001"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn registry_codes_are_unique_sorted_and_resolvable() {
        let codes: Vec<&str> = diagnostic::REGISTRY.iter().map(|c| c.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted, codes,
            "registry must stay sorted and duplicate-free"
        );
        assert_eq!(code_info("SR001").expect("known").severity, Severity::Error);
        assert!(code_info("XX999").is_none());
    }
}
