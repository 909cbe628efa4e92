//! Skip-engine coverage on three SMT mixes: cycles skipped, jumps taken,
//! and windows abandoned because a window tick made progress.
//!
//! ```bash
//! cargo run --release -p shelfsim-core --example park_coverage
//! ```
use shelfsim_core::{Core, CoreConfig, SteerPolicy};
use shelfsim_workload::{kernels, TraceSource};
fn main() {
    for (label, names) in [
        ("2t chase+reduce", vec!["chase", "reduce"]),
        (
            "4t chase/reduce/chase2/triad",
            vec!["chase", "reduce", "chase2", "triad"],
        ),
        ("4t all-chase", vec!["chase", "chase2", "chase", "chase2"]),
    ] {
        let cfg = CoreConfig::base64_shelf64(names.len(), SteerPolicy::Practical, true);
        let sources = names
            .iter()
            .enumerate()
            .map(|(t, n)| TraceSource::new(kernels::by_name(n).unwrap().assemble().unwrap(), t))
            .collect();
        let mut core = Core::new(cfg, sources);
        core.warm_caches();
        let cycles = 200_000u64;
        core.tick_bounded(cycles);
        let s = core.skip_stats();
        println!(
            "{label}: skipped={} ({:.1}%) park_jumps={} park_aborts={}",
            s.skipped_cycles,
            100.0 * s.skipped_cycles as f64 / cycles as f64,
            s.park_jumps,
            s.park_aborts
        );
    }
}
