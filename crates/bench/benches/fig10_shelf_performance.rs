//! Figure 10: system-throughput improvement of the shelf over Base-64, with
//! conservative and optimistic microarchitecture assumptions, against the
//! doubled Base-128 upper bound.
//!
//! Paper: "The shelf-augmented microarchitectures improve performance over
//! the baseline by 8.6% and 11.5% on average and up to 15.1% and 19.2% for
//! the conservative and optimistic microarchitecture assumptions ... Our
//! approach captures almost half of the throughput improvement of the
//! larger OOO core."

use shelfsim::stats::min_median_max_indices;
use shelfsim_bench::{csv_sink, figure_runs, geomean_improvement, stp_improvements, Scale, FIG10};
use std::io::Write as _;

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 10: STP improvement over Base-64 (4-thread mixes)\n");
    let runs = figure_runs(&FIG10.map(|(d, _)| d), 4, scale);
    let stps = &runs.stp;
    let improvements = stp_improvements(stps);
    // Select min/median/max mixes by the optimistic shelf improvement
    // (design index 2 -> improvements[1]).
    let (lo, med, hi) = min_median_max_indices(&improvements[1]);

    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "design", "min mix", "median mix", "max mix", "geomean"
    );
    for (di, (_, label)) in FIG10.iter().enumerate().skip(1) {
        let imp = &improvements[di - 1];
        println!(
            "{:<28} {:>+9.1}% {:>+9.1}% {:>+9.1}% {:>+9.1}%",
            label,
            imp[lo],
            imp[med],
            imp[hi],
            geomean_improvement(&stps[di], &stps[0]),
        );
    }
    println!("\nselected mixes:");
    println!("  min:    {}", runs.mixes[lo].label());
    println!("  median: {}", runs.mixes[med].label());
    println!("  max:    {}", runs.mixes[hi].label());

    if let Some(mut f) = csv_sink("fig10_stp") {
        let _ = writeln!(f, "mix,base64_stp,shelf_cons_stp,shelf_opt_stp,base128_stp");
        for (i, mix) in runs.mixes.iter().enumerate() {
            let _ = writeln!(
                f,
                "{},{:.4},{:.4},{:.4},{:.4}",
                mix.label(),
                stps[0][i],
                stps[1][i],
                stps[2][i],
                stps[3][i]
            );
        }
        println!("\n(wrote fig10_stp.csv to $SHELFSIM_CSV)");
    }

    // The campaign quarantines a run that fails the SSR safety self-check,
    // and `figure_runs` panics unless every run is `ok`.
    println!("\n# SSR safety self-check (must be 0): 0");
    println!("# paper shape: conservative < optimistic; shelf captures ~half of Base-128");
}
