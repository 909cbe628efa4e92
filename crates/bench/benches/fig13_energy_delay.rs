//! Figure 13: energy-delay product of Base-64, the shelf designs, and
//! Base-128.
//!
//! Paper: "Although it consumes more power, a 128-entry design is more
//! energy-efficient on the average than a 64-entry design, improving EDP by
//! 4.9%. However, a 64+64-entry shelf-augmented design is even more energy
//! efficient ... Adding a shelf improves energy-delay product by 8.6% and
//! 10.9% on average for conservative and optimistic microarchitecture
//! assumptions."

use shelfsim::geomean;
use shelfsim::stats::min_median_max_indices;
use shelfsim_bench::{figure_runs, stp_improvements, Scale, FIG10};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 13: energy-delay product improvement over Base-64 (lower EDP = better)\n");
    let runs = figure_runs(&FIG10.map(|(d, _)| d), 4, scale);
    let edps = runs.edp;
    // Select mixes by optimistic-shelf STP improvement, as in Fig 10.
    let improvements = stp_improvements(&runs.stp);
    let (lo, med, hi) = min_median_max_indices(&improvements[1]);

    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "design", "min mix", "median mix", "max mix", "geomean"
    );
    for (di, (_, label)) in FIG10.iter().enumerate().skip(1) {
        let deltas: Vec<f64> = edps[di].iter().zip(&edps[0]).map(|(x, b)| x / b).collect();
        // EDP *improvement* = how much lower the EDP is.
        let imp = |i: usize| (1.0 - deltas[i]) * 100.0;
        println!(
            "{:<28} {:>+9.1}% {:>+9.1}% {:>+9.1}% {:>+9.1}%",
            label,
            imp(lo),
            imp(med),
            imp(hi),
            (1.0 - geomean(&deltas)) * 100.0,
        );
    }
    println!("\n# paper shape: shelf EDP gain (8.6-10.9%) exceeds Base-128's (~4.9%)");
}
