//! Seed robustness: the headline Figure 10 result re-measured across
//! independent workload seeds. A reproduction whose conclusion flips with
//! the random seed is no reproduction; this bench quantifies the spread.

use shelfsim_bench::{figure_runs, geomean_improvement, Scale};

fn main() {
    let mut scale = Scale::from_env();
    if std::env::var("SHELFSIM_MIXES").is_err() {
        scale.mixes = 8; // reduced mixes x multiple seeds
    }
    println!(
        "# Robustness: Figure 10 geomean STP improvement across seeds ({} mixes each)\n",
        scale.mixes
    );
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "seed", "shelf (opt)", "Base 128", "capture"
    );

    let mut shelf_all = Vec::new();
    for seed in [7u64, 1007, 90210] {
        let s = Scale { seed, ..scale };
        let stps = figure_runs(&["base64", "shelf-opt", "base128"], 4, s).stp;
        let shelf = geomean_improvement(&stps[1], &stps[0]);
        let big = geomean_improvement(&stps[2], &stps[0]);
        println!(
            "{:<8} {:>+13.1}% {:>+13.1}% {:>11.0}%",
            seed,
            shelf,
            big,
            shelf / big * 100.0
        );
        shelf_all.push(shelf);
    }
    let lo = shelf_all.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = shelf_all.iter().cloned().fold(0.0f64, f64::max);
    println!("\nshelf improvement range across seeds: {lo:+.1}% .. {hi:+.1}%");
    println!("# the conclusion (shelf wins, captures ~half of doubling) must hold at every seed");
}
