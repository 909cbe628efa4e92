//! Figure 14: shelf opportunity with fewer threads (1 and 2).
//!
//! Paper: "There is no opportunity for a shelf in single-threaded execution.
//! With two threads, the shelf provides a modest improvement in performance
//! and energy delay. Nevertheless, we find that the shelf does not
//! adversely affect performance."

use shelfsim_bench::{figure_runs, geomean_improvement, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 14: STP and EDP with fewer threads (64 vs 64+64)\n");
    println!("{:<10} {:>14} {:>14}", "threads", "STP delta", "EDP delta");

    for threads in [1usize, 2] {
        // At one thread the common Base-64 reference makes STP the
        // single-thread speedup over Base-64.
        let runs = figure_runs(&["base64", "shelf-opt"], threads, scale);
        println!(
            "{:<10} {:>+13.1}% {:>+13.1}%",
            threads,
            geomean_improvement(&runs.stp[1], &runs.stp[0]),
            -geomean_improvement(&runs.edp[1], &runs.edp[0]),
        );
    }
    println!("\n# paper shape: ~0% at 1 thread (no harm), modest gain at 2 threads");
    println!("# (positive EDP delta = energy-delay improvement)");
}
