//! Property tests for the CLI: arbitrary argument soup must never panic —
//! every failure is a clean `CliError`, and every unknown-option or
//! missing-value mistake exits 2 — and valid invocations round-trip.

use proptest::prelude::*;
use shelfsim_cli::{design_config, run_cli};

fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("run".to_owned()),
        Just("compare".to_owned()),
        Just("sweep".to_owned()),
        Just("suite".to_owned()),
        Just("mixes".to_owned()),
        Just("kernels".to_owned()),
        Just("--mix".to_owned()),
        Just("--design".to_owned()),
        Just("--warmup".to_owned()),
        Just("--measure".to_owned()),
        Just("--seed".to_owned()),
        Just("--tso".to_owned()),
        Just("--json".to_owned()),
        Just("--dry-run".to_owned()),
        Just("--override".to_owned()),
        Just("shelf=16,32".to_owned()),
        Just("--thread-counts".to_owned()),
        Just("1,2".to_owned()),
        Just("gcc,mcf".to_owned()),
        Just("base64".to_owned()),
        Just("shelf-opt".to_owned()),
        Just("100".to_owned()),
        Just("-5".to_owned()),
        Just("not_a_number".to_owned()),
        Just("…unicode…".to_owned()),
        "[a-z]{1,8}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cli_never_panics_on_argument_soup(tokens in prop::collection::vec(arb_token(), 0..6)) {
        // Keep any accidental simulation tiny.
        let mut args = tokens;
        if matches!(args.first().map(String::as_str), Some("run" | "compare" | "sweep")) {
            args.extend(["--warmup".into(), "10".into(), "--measure".into(), "50".into()]);
        }
        // Ok or Err(CliError); must not panic.
        if let Err(e) = run_cli(&args) {
            if e.message.contains("unknown option") || e.message.contains("requires a value") {
                prop_assert_eq!(e.code, 2, "{:?}: {}", args, e.message);
            }
        }
    }

    #[test]
    fn design_config_is_total_over_valid_names(threads in 1usize..=4) {
        for name in ["base64", "base128", "shelf-cons", "shelf-opt", "shelf-oracle", "shelf-inorder"] {
            let cfg = design_config(name, threads).expect("valid design");
            cfg.validate();
            prop_assert_eq!(cfg.threads, threads);
        }
        prop_assert!(design_config("hyperdrive", threads).is_err());
    }
}
