//! Property-based invariants of the whole simulator: for arbitrary
//! configurations, mixes, and seeds, the pipeline must terminate cleanly,
//! keep its counters consistent, preserve SSR safety, and replay
//! deterministically.

use proptest::prelude::*;
use shelfsim::{suite, CoreConfig, MemoryModel, Simulation, SteerPolicy};

fn arb_policy() -> impl Strategy<Value = SteerPolicy> {
    prop_oneof![
        Just(SteerPolicy::AlwaysIq),
        Just(SteerPolicy::AlwaysShelf),
        Just(SteerPolicy::Practical),
        Just(SteerPolicy::Oracle),
    ]
}

fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        (
            1usize..=4, // threads
            prop_oneof![Just(64usize), Just(128)],
            arb_policy(),
            any::<bool>(), // optimistic
            any::<bool>(), // single ssr
            any::<bool>(), // narrow index
            any::<bool>(), // wrong path
        ),
        (
            any::<bool>(),                                 // TSO
            0u32..=2,                                      // cluster penalty
            prop_oneof![Just(8usize), Just(16), Just(64)], // shelf entries
        ),
    )
        .prop_map(
            |((threads, rob, policy, opt, ssr, narrow, wp), (tso, cluster, shelf))| {
                let mut cfg = if rob == 64 {
                    CoreConfig::base64_shelf64(threads, policy, opt)
                } else {
                    CoreConfig {
                        shelf_entries: 64,
                        steer: policy,
                        same_cycle_shelf_issue: opt,
                        ..CoreConfig::base128(threads)
                    }
                };
                cfg.shelf_entries = shelf;
                cfg.single_ssr = ssr;
                cfg.narrow_shelf_index = narrow;
                cfg.wrong_path_fetch = wp;
                cfg.memory_model = if tso {
                    MemoryModel::Tso
                } else {
                    MemoryModel::Relaxed
                };
                cfg.cluster_forward_penalty = cluster;
                cfg
            },
        )
}

fn arb_mix(threads: usize, seed: u64) -> Vec<&'static str> {
    let names = suite::names();
    (0..threads)
        .map(|t| names[(seed as usize + 5 * t) % names.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn simulation_invariants_hold(cfg in arb_config(), seed in 0u64..1000) {
        let mix = arb_mix(cfg.threads, seed);
        let mut sim = Simulation::from_names(cfg.clone(), &mix, seed).expect("suite");
        let r = sim.run(1_000, 6_000);
        let c = &r.counters;

        // Liveness: the core must make progress under every configuration.
        prop_assert!(c.committed > 0, "no commits under {cfg:?}");

        // Flow conservation (with slack for work in flight across the
        // measurement boundary: counters reset at measure start, so an
        // instruction may be dispatched during warm-up but issue inside the
        // window; the window never holds more than a few hundred).
        const IN_FLIGHT_SLACK: u64 = 512;
        prop_assert!(c.committed <= c.dispatched + IN_FLIGHT_SLACK);
        prop_assert!(c.issued <= c.dispatched + IN_FLIGHT_SLACK);
        prop_assert!(c.issued_shelf <= c.issued);
        prop_assert!(c.dispatched_shelf <= c.dispatched);
        prop_assert!(c.dispatched <= c.fetched + IN_FLIGHT_SLACK);

        // Shelf accounting: shelf reads (issues) match issued_shelf.
        prop_assert_eq!(c.shelf_reads, c.issued_shelf);
        prop_assert!(c.shelf_writes + IN_FLIGHT_SLACK >= c.issued_shelf);

        // SSR safety: no committed shelf instruction was ever squash-walked.
        prop_assert_eq!(r.late_shelf_commits, 0);

        // Policy coherence.
        if cfg.steer == SteerPolicy::AlwaysIq {
            prop_assert_eq!(c.dispatched_shelf, 0);
        }
        if cfg.steer == SteerPolicy::AlwaysShelf {
            prop_assert_eq!(c.dispatched, c.dispatched_shelf);
        }
    }

    #[test]
    fn determinism_property(cfg in arb_config(), seed in 0u64..1000) {
        let mix = arb_mix(cfg.threads, seed);
        let r1 = Simulation::from_names(cfg.clone(), &mix, seed).expect("suite").run(500, 3_000);
        let r2 = Simulation::from_names(cfg, &mix, seed).expect("suite").run(500, 3_000);
        prop_assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn cache_stats_are_consistent(seed in 0u64..1000) {
        let mix = arb_mix(2, seed);
        let mut sim = Simulation::from_names(CoreConfig::base64(2), &mix, seed).expect("suite");
        let r = sim.run(1_000, 5_000);
        prop_assert!(r.l1d.hits <= r.l1d.accesses);
        prop_assert!(r.l1i.hits <= r.l1i.accesses);
        prop_assert!(r.l2.hits <= r.l2.accesses);
        // Every L2 access originates from an L1 miss (no prefetcher).
        prop_assert!(r.l2.accesses <= r.l1d.misses() + r.l1i.misses());
    }
}
