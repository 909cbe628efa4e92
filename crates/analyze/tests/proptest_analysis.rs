//! Property tests of the static-analysis framework: every generator-built
//! suite program is valid by construction, so the lints must find no
//! errors, the dataflow passes must converge, and the IPC bounds must be
//! finite, positive, and no looser than the core width. Every shipped
//! design point must be config-lint-clean at every evaluated thread count.
//! The campaign's memoized pre-flight verdict must equal the full
//! pre-flight's errors on generated programs and configs.

use proptest::prelude::*;
use shelfsim_analyze::{
    check_adequacy, design_by_name, ipc_bound, lint_config, lint_program, preflight,
    preflight_errors, Cfg, DefUse, Diagnostic, ProgramFacts, ReachingDefs, Severity, DESIGN_NAMES,
};
use shelfsim_workload::suite;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn generated_suite_programs_analyze_clean(bench in 0usize..28, seed in 0u64..10_000) {
        let profile = &suite::all()[bench];
        let program = profile.build_program(seed);

        // Lints: generator output is valid by construction, so any
        // error-severity finding is a bug in the linter or the generator.
        let errors: Vec<_> = lint_program(&program, None)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "{}/{seed}: {errors:?}", profile.name);

        // Dataflow: the worklist engine must converge quickly and the
        // def-use chains must only ever point at real sites.
        let cfg = Cfg::new(&program);
        let reaching = ReachingDefs::new(&program).solve(&cfg);
        prop_assert!(reaching.passes <= 4 * program.blocks.len() + 8);
        let du = DefUse::build(&program, &cfg);
        for (def, uses) in du.uses_of_def.iter().enumerate() {
            prop_assert!(def < du.defs.len());
            for &u in uses {
                prop_assert!(u < du.uses.len());
            }
        }

        // Bounds: sound means finite, positive, and never above the width.
        let core = design_by_name("base64", 1).expect("known design");
        let bound = ipc_bound(&program, &core);
        prop_assert!(bound.bound.is_finite() && bound.bound > 0.0);
        prop_assert!(bound.bound <= bound.width + 1e-9);

        // Adequacy: the standard design must be provably deadlock-free on
        // every generated program.
        let adequacy_errors: Vec<_> = check_adequacy(&program, &core, None)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(
            adequacy_errors.is_empty(),
            "{}/{seed}: {adequacy_errors:?}",
            profile.name
        );
    }
}

/// Every shipped design point is config-lint-clean at every thread count
/// the paper evaluates.
#[test]
fn every_design_is_lint_clean_at_every_thread_count() {
    for name in DESIGN_NAMES {
        for threads in 1..=8 {
            let cfg = design_by_name(name, threads).expect("listed design resolves");
            let errors: Vec<_> = lint_config(&cfg)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{name}/{threads}: {errors:?}");
        }
    }
}

/// An optional override value: kept at the design's default half the time.
fn knob(max: usize) -> BoxedStrategy<Option<usize>> {
    prop_oneof![Just(None), (0..=max).prop_map(Some)].boxed()
}

/// The memoized pre-flight ([`ProgramFacts`] + [`preflight_errors`]) finds
/// exactly the errors of the full [`preflight`], in code, message and
/// order, on suite programs x every design x 1-8 threads x random
/// overrides of the structures the error obligations read. The sample
/// must contain both rejected and accepted configs, and rejections by
/// both program obligations (SR001, SR004).
#[test]
fn memoized_preflight_errors_equal_the_full_preflight() {
    let case = (
        (0..DESIGN_NAMES.len(), 1usize..=8, 0u64..10_000),
        prop::collection::vec(0..suite::all().len(), 8),
        (knob(16), knob(8), knob(8), 1usize..=8),
        (knob(3), knob(2), knob(2), knob(2)),
    );
    let mut rng = proptest::test_runner::rng_for(
        "proptest_analysis::memoized_preflight_errors_equal_the_full_preflight",
    );
    let (mut rejected, mut accepted) = (0, 0);
    let mut codes = std::collections::BTreeSet::new();
    for _ in 0..ProptestConfig::default().cases {
        let value = case.generate(&mut rng);
        let ((design, threads, seed), benches, (shelf, mshrs, sb, dispatch), fus) = &value;
        let mut cfg = design_by_name(DESIGN_NAMES[*design], *threads).expect("listed design");
        let set = |slot: &mut usize, v: &Option<usize>| *slot = v.unwrap_or(*slot);
        set(&mut cfg.shelf_entries, shelf);
        set(&mut cfg.hierarchy.data_mshrs, mshrs);
        set(&mut cfg.store_buffer_entries, sb);
        cfg.dispatch_width = *dispatch;
        set(&mut cfg.fu_int_alu, &fus.0);
        set(&mut cfg.fu_int_muldiv, &fus.1);
        set(&mut cfg.fu_fp, &fus.2);
        set(&mut cfg.fu_mem_ports, &fus.3);
        let programs: Vec<_> = benches[..*threads]
            .iter()
            .enumerate()
            .map(|(t, &b)| {
                suite::all()[b].build_program(shelfsim_core::thread_program_seed(*seed, t))
            })
            .collect();

        let full = preflight(&cfg, &programs);
        let expected: Vec<&Diagnostic> = full
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let facts: Vec<ProgramFacts> = programs.iter().map(ProgramFacts::new).collect();
        let facts: Vec<&ProgramFacts> = facts.iter().collect();
        let memoized = preflight_errors(&cfg, &facts);
        let got: Vec<&Diagnostic> = memoized.diagnostics().iter().collect();
        assert_eq!(got, expected, "case {value:?}");
        codes.extend(expected.iter().map(|d| d.code));
        if expected.is_empty() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(
        rejected > 0 && accepted > 0 && codes.contains("SR001") && codes.contains("SR004"),
        "vacuous sample: {rejected} rejected ({codes:?}), {accepted} accepted"
    );
}
