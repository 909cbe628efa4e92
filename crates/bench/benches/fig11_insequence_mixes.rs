//! Figure 11: fraction of in-sequence instructions per thread for the mixes
//! with the minimum, median, and maximum STP improvement, plus the mean.
//!
//! Paper: "On average, about half of instructions are in-sequence, but some
//! benchmarks have fewer in-sequence instructions."

use shelfsim::stats::{mean, min_median_max_indices};
use shelfsim_bench::{figure_runs, simulate, stp_improvements, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 11: per-thread in-sequence fraction for selected 4-thread mixes\n");
    let runs = figure_runs(&["base64", "shelf-opt"], 4, scale);
    let improvements = stp_improvements(&runs.stp);
    let (lo, med, hi) = min_median_max_indices(&improvements[0]);

    // In-sequence fractions measured on the baseline (the opportunity).
    let in_sequence: Vec<Vec<f64>> = runs
        .mixes
        .iter()
        .map(|m| {
            let r = simulate("base64", &m.benchmarks, scale);
            r.threads.iter().map(|t| t.in_sequence_fraction).collect()
        })
        .collect();
    for (label, idx) in [("min", lo), ("median", med), ("max", hi)] {
        let mix = &runs.mixes[idx];
        println!("{} mix: {}", label, mix.label());
        for (b, f) in mix.benchmarks.iter().zip(&in_sequence[idx]) {
            println!("  {:<12} {:>5.1}%", b, f * 100.0);
        }
        println!("  mix mean:    {:>5.1}%\n", mean(&in_sequence[idx]) * 100.0);
    }
    let all: Vec<f64> = in_sequence.concat();
    println!(
        "arithmetic mean across all threads of all mixes: {:.1}%",
        mean(&all) * 100.0
    );
    println!("\n# paper shape: ~50% on average, with per-benchmark spread");
}
