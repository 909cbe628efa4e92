//! Bonus figure (no direct paper counterpart): mean structure occupancy of
//! the baseline vs the shelf design, quantifying §I's premise that
//! in-sequence instructions waste OOO-structure occupancy and §III's claim
//! that the shelf extends the window without adding rename registers.

use shelfsim::geomean;
use shelfsim_bench::{mixes, simulate, Scale, FIG10};

fn main() {
    let scale = Scale::from_env();
    println!("# Bonus: mean structure occupancy over 4-thread mixes\n");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "design", "ROB", "IQ", "LQ", "SQ", "shelf", "window", "ren-regs"
    );
    for (design, label) in [FIG10[0], FIG10[2], FIG10[3]] {
        let mut occ = [vec![], vec![], vec![], vec![], vec![], vec![]];
        let mut windows = vec![];
        for mix in mixes(4, scale) {
            let r = simulate(design, &mix.benchmarks, scale);
            for (i, v) in occ.iter_mut().enumerate() {
                v.push(r.counters.mean_occupancy(i).max(1e-9));
            }
            windows.push((r.counters.mean_occupancy(0) + r.counters.mean_occupancy(4)).max(1e-9));
        }
        println!(
            "{:<22} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>9.1}",
            label,
            geomean(&occ[0]),
            geomean(&occ[1]),
            geomean(&occ[2]),
            geomean(&occ[3]),
            geomean(&occ[4]),
            geomean(&windows),
            geomean(&occ[5]),
        );
    }
    println!("\n# expected: the shelf design's window (ROB+shelf) approaches Base-128's");
    println!("# ROB occupancy while its rename-register usage stays at Base-64 levels");
}
