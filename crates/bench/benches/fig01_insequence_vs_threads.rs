//! Figure 1: fraction of instructions wasting OOO resources (in-sequence)
//! as the SMT thread count grows, measured in a 128-entry OOO window.
//!
//! Paper: "as the number of threads in a 128-entry OOO instruction window is
//! increased, the fraction of in-sequence instructions more than doubles to
//! more than 50% on average."

use shelfsim::{geomean, suite};
use shelfsim_bench::{mixes, simulate, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 1: fraction of in-sequence instructions vs thread count");
    println!("# (Base-128 window, classification per paper §II)\n");
    println!(
        "{:<8} {:>14} {:>10} {:>10}",
        "threads", "mean in-seq", "min", "max"
    );

    for threads in [1usize, 2, 4, 8] {
        let mut fractions = Vec::new();
        if threads == 1 {
            for name in suite::names().iter().take(scale.mixes.max(8)) {
                let r = simulate("base128", &[name], scale);
                fractions.push(r.threads[0].in_sequence_fraction.max(1e-9));
            }
        } else {
            for mix in mixes(threads, scale) {
                let r = simulate("base128", &mix.benchmarks, scale);
                fractions.push(r.mean_in_sequence_fraction().max(1e-9));
            }
        }
        let lo = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = fractions.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<8} {:>13.1}% {:>9.1}% {:>9.1}%",
            threads,
            geomean(&fractions) * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
    println!("\n# paper shape: ~20-25% at 1 thread rising to >50% at 4-8 threads");
}
