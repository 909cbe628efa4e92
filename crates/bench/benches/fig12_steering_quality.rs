//! Figure 12: performance impact of practical steering vs the greedy oracle.
//!
//! Paper: "Approximately 16% of instructions are steered incorrectly by the
//! practical mechanism relative to the oracle. Nevertheless, the ability of
//! one SMT thread to make progress while another is stalled hides the brief
//! stalls created by incorrect steering decisions."

use shelfsim::stats::{mean, min_median_max_indices};
use shelfsim_bench::{figure_runs, geomean_improvement, simulate, stp_improvements, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 12: practical vs oracle steering (STP improvement over Base-64)\n");
    let runs = figure_runs(&["base64", "shelf-opt", "shelf-oracle"], 4, scale);
    let stps = &runs.stp;
    let improvements = stp_improvements(stps);
    let (lo, med, hi) = min_median_max_indices(&improvements[0]);

    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}",
        "steering", "min mix", "median mix", "max mix", "geomean"
    );
    for (di, label) in [(1usize, "practical (RCT/PLT)"), (2, "oracle (greedy)")] {
        let imp = &improvements[di - 1];
        println!(
            "{:<24} {:>+9.1}% {:>+9.1}% {:>+9.1}% {:>+9.1}%",
            label,
            imp[lo],
            imp[med],
            imp[hi],
            geomean_improvement(&stps[di], &stps[0]),
        );
    }

    // Per mix: the mean over threads of the practical mechanism's rate.
    let missteer: Vec<f64> = runs
        .mixes
        .iter()
        .map(|m| {
            let r = simulate("shelf-opt", &m.benchmarks, scale);
            r.threads.iter().map(|t| t.missteer_rate).sum::<f64>() / r.threads.len() as f64
        })
        .collect();
    println!(
        "\nmean mis-steer rate of the practical mechanism vs shadow oracle: {:.1}%",
        mean(&missteer) * 100.0
    );
    println!("# paper: ~16% mis-steered, with practical close to oracle in STP");
}
