//! Configuration contradiction checks over a [`CoreConfig`] (`SC…` codes)
//! and a small `key = value` config-file front end.
//!
//! | Code  | Severity | Finding |
//! |-------|----------|---------|
//! | SC001 | Error    | a per-thread partition cannot hold its minimum working unit |
//! | SC002 | Error    | issue width exceeds IQ capacity |
//! | SC003 | Warning  | LQ/SQ larger than the ROB can ever fill |
//! | SC004 | Error    | shelf steering selected with zero shelf entries |
//! | SC005 | Warning  | shelf provisioned but unusable (never steered / degenerate partition) |
//! | SC006 | Warning  | fetch narrower than dispatch |
//! | SC007 | Error    | config-file parse problem (unknown key, bad value) |
//!
//! Unlike [`CoreConfig::validate`], which panics on the first contradiction,
//! [`lint_config`] returns **all** violations so a sweep script can fix a
//! whole config file in one pass.

use crate::diagnostic::{Diagnostic, Severity};
use shelfsim_core::{CoreConfig, SteerPolicy};

/// Checks `cfg` for internal contradictions, returning every violation.
pub fn lint_config(cfg: &CoreConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let err = |code, msg: String| Diagnostic::new(code, Severity::Error, msg);
    let warn = |code, msg: String| Diagnostic::new(code, Severity::Warning, msg);

    // SC001: static partitions must hold at least one working unit each.
    if cfg.rob_entries < cfg.threads * cfg.dispatch_width {
        diags.push(err(
            "SC001",
            format!(
                "rob_entries ({}) < threads ({}) x dispatch_width ({}): a thread's static \
                 ROB partition cannot hold one dispatch group",
                cfg.rob_entries, cfg.threads, cfg.dispatch_width
            ),
        ));
    }
    if cfg.lq_entries < cfg.threads {
        diags.push(err(
            "SC001",
            format!(
                "lq_entries ({}) < threads ({}): some thread's LQ partition is empty",
                cfg.lq_entries, cfg.threads
            ),
        ));
    }
    if cfg.sq_entries < cfg.threads {
        diags.push(err(
            "SC001",
            format!(
                "sq_entries ({}) < threads ({}): some thread's SQ partition is empty",
                cfg.sq_entries, cfg.threads
            ),
        ));
    }

    // SC002: issue can never reach its stated width.
    if cfg.issue_width > cfg.iq_entries {
        diags.push(err(
            "SC002",
            format!(
                "issue_width ({}) > iq_entries ({}): the IQ can never supply a full issue group",
                cfg.issue_width, cfg.iq_entries
            ),
        ));
    }

    // SC003: over-provisioned LSQ (ROB bounds in-flight memory ops).
    if cfg.lq_entries > cfg.rob_entries {
        diags.push(warn(
            "SC003",
            format!(
                "lq_entries ({}) > rob_entries ({}): the extra LQ entries can never fill \
                 (every IQ load also holds a ROB entry)",
                cfg.lq_entries, cfg.rob_entries
            ),
        ));
    }
    if cfg.sq_entries > cfg.rob_entries {
        diags.push(warn(
            "SC003",
            format!(
                "sq_entries ({}) > rob_entries ({}): the extra SQ entries can never fill",
                cfg.sq_entries, cfg.rob_entries
            ),
        ));
    }

    // SC004/SC005: steering and shelf provisioning must agree.
    if cfg.shelf_entries == 0 && cfg.steer != SteerPolicy::AlwaysIq {
        diags.push(err(
            "SC004",
            format!(
                "steer policy {:?} requires shelf entries, but shelf_entries = 0",
                cfg.steer
            ),
        ));
    }
    if cfg.shelf_entries > 0 && cfg.steer == SteerPolicy::AlwaysIq {
        diags.push(warn(
            "SC005",
            format!(
                "shelf_entries = {} but steer = AlwaysIq: the shelf is dead area that \
                 nothing is ever steered to",
                cfg.shelf_entries
            ),
        ));
    }
    if cfg.shelf_entries > 0 && cfg.shelf_per_thread() < cfg.dispatch_width {
        diags.push(warn(
            "SC005",
            format!(
                "per-thread shelf partition ({}) is smaller than dispatch_width ({}): one \
                 dispatch group of in-sequence instructions cannot be shelved without stalling",
                cfg.shelf_per_thread(),
                cfg.dispatch_width
            ),
        ));
    }

    // SC006: the front end cannot sustain the back end.
    if cfg.fetch_width < cfg.dispatch_width {
        diags.push(warn(
            "SC006",
            format!(
                "fetch_width ({}) < dispatch_width ({}): dispatch can never run at full width",
                cfg.fetch_width, cfg.dispatch_width
            ),
        ));
    }

    diags
}

/// The evaluated design-point names accepted by [`design_by_name`], in
/// presentation order. Single source of truth for CLI/campaign error
/// messages ("unknown design" suggestions).
pub const DESIGN_NAMES: [&str; 6] = [
    "base64",
    "base128",
    "shelf-cons",
    "shelf-opt",
    "shelf-oracle",
    "shelf-inorder",
];

/// Resolves an evaluated design-point name (the CLI `--design` names) to a
/// configuration.
pub fn design_by_name(name: &str, threads: usize) -> Option<CoreConfig> {
    Some(match name {
        "base64" => CoreConfig::base64(threads),
        "base128" => CoreConfig::base128(threads),
        "shelf-cons" => CoreConfig::base64_shelf64(threads, SteerPolicy::Practical, false),
        "shelf-opt" => CoreConfig::base64_shelf64(threads, SteerPolicy::Practical, true),
        "shelf-oracle" => CoreConfig::base64_shelf64(threads, SteerPolicy::Oracle, true),
        "shelf-inorder" => CoreConfig::base64_shelf64(threads, SteerPolicy::AlwaysShelf, true),
        _ => return None,
    })
}

/// Every key [`apply_override`] accepts, in documentation order.
pub const OVERRIDE_KEYS: &[&str] = &[
    "rob",
    "iq",
    "lq",
    "sq",
    "shelf",
    "fetch",
    "dispatch",
    "issue",
    "commit",
    "store-buffer",
    "rct-bits",
    "plt-columns",
    "steer",
];

/// Applies one structural `key = value` override to `cfg`.
///
/// The accepted keys are [`OVERRIDE_KEYS`]: the sizing keys `rob`, `iq`,
/// `lq`, `sq`, `shelf`, `fetch`, `dispatch`, `issue`, `commit`,
/// `store-buffer` (non-negative integers), the RCT counter width
/// `rct-bits` and PLT column count `plt-columns` (1..=8, the range
/// [`CoreConfig::validate`] enforces), and `steer`
/// (`always-iq|always-shelf|practical|oracle`). Shared by
/// [`lint_config_file`] and the CLI's `--override` flag so both front ends
/// accept the same vocabulary.
///
/// # Errors
///
/// Returns a human-readable description of what was expected.
pub fn apply_override(cfg: &mut CoreConfig, key: &str, value: &str) -> Result<(), String> {
    let int = || {
        value
            .parse::<usize>()
            .map_err(|_| format!("{key}: expected a non-negative integer, got `{value}`"))
    };
    let width = || match value.parse::<u32>() {
        Ok(n) if (1..=8).contains(&n) => Ok(n),
        _ => Err(format!(
            "{key}: expected an integer in 1..=8, got `{value}`"
        )),
    };
    match key {
        "rob" => cfg.rob_entries = int()?,
        "iq" => cfg.iq_entries = int()?,
        "lq" => cfg.lq_entries = int()?,
        "sq" => cfg.sq_entries = int()?,
        "shelf" => cfg.shelf_entries = int()?,
        "fetch" => cfg.fetch_width = int()?,
        "dispatch" => cfg.dispatch_width = int()?,
        "issue" => cfg.issue_width = int()?,
        "commit" => cfg.commit_width = int()?,
        "store-buffer" => cfg.store_buffer_entries = int()?,
        "rct-bits" => cfg.rct_bits = width()?,
        "plt-columns" => cfg.plt_columns = width()?,
        "steer" => {
            cfg.steer = match value {
                "always-iq" => SteerPolicy::AlwaysIq,
                "always-shelf" => SteerPolicy::AlwaysShelf,
                "practical" => SteerPolicy::Practical,
                "oracle" => SteerPolicy::Oracle,
                _ => {
                    return Err(format!(
                        "steer: expected always-iq|always-shelf|practical|oracle, got `{value}`"
                    ))
                }
            }
        }
        _ => {
            return Err(format!(
                "unknown config key `{key}` (expected one of: {})",
                OVERRIDE_KEYS.join(", ")
            ))
        }
    }
    Ok(())
}

/// Parses a `key = value` config file into a [`CoreConfig`] and lints it.
///
/// Lines are `key = value`; `#` and `;` start comments. The `design` key
/// picks a base design point (default `base64`), `threads` its thread
/// count (default 4); the remaining keys are [`apply_override`]'s
/// [`OVERRIDE_KEYS`].
///
/// Parse problems are reported as `SC007` errors with the offending line;
/// the configuration is still built best-effort so the contradiction
/// checks can run on what was understood.
pub fn lint_config_file(text: &str, file: &str) -> (CoreConfig, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut pairs: Vec<(usize, String, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split(['#', ';']).next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        match body.split_once('=') {
            Some((k, v)) => pairs.push((line, k.trim().to_ascii_lowercase(), v.trim().to_owned())),
            None => diags.push(
                Diagnostic::new(
                    "SC007",
                    Severity::Error,
                    format!("expected `key = value`, got `{body}`"),
                )
                .with_span(file, line),
            ),
        }
    }

    // The base design and thread count shape everything else, so resolve
    // them first regardless of where they appear in the file.
    let mut threads = 4usize;
    let mut design = "base64".to_owned();
    for (line, k, v) in &pairs {
        match k.as_str() {
            "threads" => match v.parse::<usize>() {
                Ok(n) if (1..=8).contains(&n) => threads = n,
                _ => diags.push(
                    Diagnostic::new(
                        "SC007",
                        Severity::Error,
                        format!("threads must be 1..=8, got `{v}`"),
                    )
                    .with_span(file, *line),
                ),
            },
            "design" => {
                if design_by_name(v, 1).is_some() {
                    design = v.clone();
                } else {
                    diags.push(
                        Diagnostic::new(
                            "SC007",
                            Severity::Error,
                            format!(
                                "unknown design `{v}` (base64, base128, shelf-cons, \
                                     shelf-opt, shelf-oracle, shelf-inorder)"
                            ),
                        )
                        .with_span(file, *line),
                    );
                }
            }
            _ => {}
        }
    }
    let mut cfg = design_by_name(&design, threads).expect("validated above");

    for (line, k, v) in &pairs {
        if k == "threads" || k == "design" {
            continue;
        }
        if let Err(msg) = apply_override(&mut cfg, k, v) {
            diags.push(Diagnostic::new("SC007", Severity::Error, msg).with_span(file, *line));
        }
    }

    diags.extend(lint_config(&cfg));
    (cfg, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    // ---- SC001 -----------------------------------------------------------

    #[test]
    fn sc001_flags_partitions_too_small() {
        let mut cfg = CoreConfig::base64(8);
        cfg.rob_entries = 16; // 8 threads x 4-wide dispatch needs >= 32
        cfg.lq_entries = 4;
        cfg.sq_entries = 4;
        let diags = lint_config(&cfg);
        assert_eq!(
            diags.iter().filter(|d| d.code == "SC001").count(),
            3,
            "{diags:?}"
        );
        assert!(diags
            .iter()
            .all(|d| d.code != "SC001" || d.severity == Severity::Error));
    }

    #[test]
    fn sc001_quiet_on_table1_partitions() {
        assert!(!codes(&lint_config(&CoreConfig::base64(4))).contains(&"SC001"));
    }

    // ---- SC002 -----------------------------------------------------------

    #[test]
    fn sc002_flags_issue_wider_than_iq() {
        let mut cfg = CoreConfig::base64(4);
        cfg.iq_entries = 2;
        assert!(codes(&lint_config(&cfg)).contains(&"SC002"));
    }

    #[test]
    fn sc002_quiet_when_iq_covers_issue_width() {
        assert!(!codes(&lint_config(&CoreConfig::base64(4))).contains(&"SC002"));
    }

    // ---- SC003 -----------------------------------------------------------

    #[test]
    fn sc003_flags_lsq_bigger_than_rob() {
        let mut cfg = CoreConfig::base64(4);
        cfg.lq_entries = 128;
        let diags = lint_config(&cfg);
        let d = diags
            .iter()
            .find(|d| d.code == "SC003")
            .expect("SC003 fires");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn sc003_quiet_for_balanced_lsq() {
        assert!(!codes(&lint_config(&CoreConfig::base128(4))).contains(&"SC003"));
    }

    // ---- SC004 / SC005 ---------------------------------------------------

    #[test]
    fn sc004_flags_steering_without_shelf() {
        let mut cfg = CoreConfig::base64(4);
        cfg.steer = SteerPolicy::Practical;
        let diags = lint_config(&cfg);
        let d = diags
            .iter()
            .find(|d| d.code == "SC004")
            .expect("SC004 fires");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn sc005_flags_dead_or_degenerate_shelf() {
        let mut dead = CoreConfig::base64(4);
        dead.shelf_entries = 64; // provisioned, never steered to
        assert!(codes(&lint_config(&dead)).contains(&"SC005"));

        let mut shallow = CoreConfig::base64_shelf64(8, SteerPolicy::Practical, true);
        shallow.shelf_entries = 8; // 1 entry per thread < 4-wide dispatch
        assert!(codes(&lint_config(&shallow)).contains(&"SC005"));
    }

    #[test]
    fn sc004_sc005_quiet_on_evaluated_shelf_designs() {
        let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
        let diags = lint_config(&cfg);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- SC006 -----------------------------------------------------------

    #[test]
    fn sc006_flags_fetch_narrower_than_dispatch() {
        let mut cfg = CoreConfig::base64(4);
        cfg.fetch_width = 2;
        assert!(codes(&lint_config(&cfg)).contains(&"SC006"));
    }

    #[test]
    fn sc006_quiet_on_table1_widths() {
        assert!(!codes(&lint_config(&CoreConfig::base64(4))).contains(&"SC006"));
    }

    // ---- config files ----------------------------------------------------

    #[test]
    fn config_file_round_trips_design_and_overrides() {
        let (cfg, diags) = lint_config_file(
            "# shelf design, doubled LQ\ndesign = shelf-opt\nthreads = 2\nlq = 64 ; why not\n",
            "t.cfg",
        );
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.shelf_entries, 64);
        assert_eq!(cfg.lq_entries, 64);
        assert!(cfg.same_cycle_shelf_issue);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn config_file_reports_all_contradictions_at_once() {
        let (_, diags) = lint_config_file(
            "design = base64\nthreads = 8\nrob = 16\niq = 2\nsteer = practical\n",
            "t.cfg",
        );
        let codes = codes(&diags);
        assert!(codes.contains(&"SC001"), "{diags:?}");
        assert!(codes.contains(&"SC002"), "{diags:?}");
        assert!(codes.contains(&"SC004"), "{diags:?}");
    }

    #[test]
    fn config_file_parse_errors_carry_spans() {
        let (_, diags) = lint_config_file("design = base64\nwhatever = 3\nnot a pair\n", "bad.cfg");
        let mut lines: Vec<usize> = diags
            .iter()
            .filter(|d| d.code == "SC007")
            .map(|d| d.span.as_ref().unwrap().line)
            .collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![2, 3], "{diags:?}");
    }

    #[test]
    fn every_listed_override_key_applies_and_others_are_rejected() {
        for key in OVERRIDE_KEYS {
            let value = if *key == "steer" { "oracle" } else { "3" };
            let mut cfg = CoreConfig::base64(2);
            apply_override(&mut cfg, key, value).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_ne!(cfg, CoreConfig::base64(2), "{key} changed nothing");
        }
        let mut cfg = CoreConfig::base64(2);
        let e = apply_override(&mut cfg, "warp", "9").unwrap_err();
        assert!(e.contains("unknown config key `warp`"), "{e}");
        assert!(e.contains("rct-bits"), "lists the valid keys: {e}");
        for bad in ["0", "9", "x"] {
            let e = apply_override(&mut cfg, "rct-bits", bad).unwrap_err();
            assert!(e.contains(&format!("`{bad}`")), "{e}");
        }
        apply_override(&mut cfg, "plt-columns", "2").expect("in range");
        assert_eq!(cfg.plt_columns, 2);
    }
}
