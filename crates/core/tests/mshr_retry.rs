//! Loads that lose MSHR arbitration for many cycles in a row.
//!
//! With one data MSHR, independent streaming loads queue behind each
//! other's DRAM fills: every cycle the oldest ready load retries, is
//! rejected, and counts `mshr_stalls` and a data rejection. The figures
//! below were recorded before the issue stage learnt to skip the cache
//! probe of a retry the full MSHR file must reject; they pin that the
//! shortcut changes nothing, tick by tick and with cycle skipping on.

use shelfsim_core::{Core, CoreConfig, SteerPolicy};
use shelfsim_workload::kernels;
use shelfsim_workload::TraceSource;

/// `(committed, mshr_stalls, lsq_searches, data_rejections)` after the run.
fn run(cfg: &CoreConfig, kernel_names: &[&str], cycles: u64, skip: bool) -> [u64; 4] {
    let sources = kernel_names
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let program = kernels::by_name(name)
                .unwrap_or_else(|| panic!("kernel `{name}` in library"))
                .assemble()
                .expect("library kernels assemble");
            TraceSource::new(program, t)
        })
        .collect();
    let mut core = Core::new(cfg.clone(), sources);
    core.warm_caches();
    core.set_cycle_skipping(skip);
    assert_eq!(core.tick_bounded(cycles), cycles);
    let c = &core.counters;
    [
        c.committed,
        c.mshr_stalls,
        c.lsq_searches,
        core.hierarchy().counters().data_rejections,
    ]
}

fn assert_pinned(cfg: CoreConfig, kernel_names: &[&str], cycles: u64, want: [u64; 4]) {
    for skip in [false, true] {
        let got = run(&cfg, kernel_names, cycles, skip);
        assert_eq!(
            got, want,
            "{kernel_names:?} with skipping {skip}: \
             [committed, mshr_stalls, lsq_searches, data_rejections]"
        );
    }
}

#[test]
fn one_mshr_stream_matches_recorded_counters() {
    // Two triad streams (loads and stores over a DRAM region) share the
    // one MSHR; the stores drain through it too.
    let mut cfg = CoreConfig::base128(2);
    cfg.hierarchy.data_mshrs = 1;
    assert_pinned(
        cfg,
        &["triad", "triad"],
        30_000,
        [6_144, 510_156, 4_005_323, 510_156],
    );
}

#[test]
fn one_mshr_shelf_mix_matches_recorded_counters() {
    // Two streams around store-to-load forwarding: the forwarding loads
    // scan the LSQ and never need the MSHR, the streams' loads (in the IQ
    // and on the shelf) wait for it.
    let mut cfg = CoreConfig::base64_shelf64(3, SteerPolicy::Practical, true);
    cfg.hierarchy.data_mshrs = 1;
    assert_pinned(
        cfg,
        &["triad", "forward", "triad"],
        30_000,
        [35_456, 258_005, 64_503, 258_005],
    );
}
