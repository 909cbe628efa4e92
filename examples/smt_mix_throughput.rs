//! SMT mix throughput: system throughput (STP) across balanced-random mixes.
//!
//! Demonstrates the paper's evaluation methodology end to end on a small
//! sample: generate balanced-random 4-thread mixes (Velasquez et al.), run
//! every mix on the baseline and shelf designs plus each benchmark alone
//! on Base-64 as one campaign, then score every mix's STP against those
//! common Base-64 single-threaded CPIs.
//!
//! ```text
//! cargo run --release --example smt_mix_throughput [num_mixes]
//! ```

use shelfsim::geomean;
use shelfsim_bench::{figure_runs, Scale};

fn main() {
    let num_mixes: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let scale = Scale {
        warmup: 10_000,
        measure: 40_000,
        mixes: num_mixes.clamp(1, 28),
        seed: 7,
    };
    let runs = figure_runs(&["base64", "shelf-opt"], 4, scale);

    println!(
        "{:<44} {:>9} {:>9} {:>8}",
        "mix", "base STP", "shelf STP", "delta"
    );
    let mut ratios = Vec::new();
    for (i, mix) in runs.mixes.iter().enumerate() {
        let (base, shelf) = (runs.stp[0][i], runs.stp[1][i]);
        ratios.push(shelf / base);
        println!(
            "{:<44} {:>9.3} {:>9.3} {:>+7.1}%",
            mix.label(),
            base,
            shelf,
            (shelf / base - 1.0) * 100.0
        );
    }
    println!(
        "\ngeomean STP improvement: {:+.1}%",
        (geomean(&ratios) - 1.0) * 100.0
    );
}
