//! Figure 2: weighted cumulative distribution of consecutive in-sequence and
//! reordered instruction series lengths (single-threaded, 128-entry window).
//!
//! Paper: "99% of in-sequence instructions occur in series with 30
//! instructions or fewer, while a series of reordered instructions is bound
//! by the ROB size (128 entries)."

use shelfsim::WeightedCdf;
use shelfsim_bench::{simulate, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("# Figure 2: weighted CDF of consecutive series lengths");
    println!("# (single-threaded benchmarks on the Base-128 window)\n");

    let names = shelfsim::suite::names();
    let sample = &names[..scale.mixes.max(8).min(names.len())];

    let mut per_bench: Vec<(WeightedCdf, WeightedCdf)> = Vec::new();
    for name in sample {
        let r = simulate("base128", &[name], scale);
        per_bench.push((
            r.threads[0].in_sequence_series.clone(),
            r.threads[0].reordered_series.clone(),
        ));
    }

    let lengths = [1u64, 2, 4, 8, 16, 30, 64, 128, 256];
    println!(
        "{:<8} {:>22} {:>22}",
        "length", "in-seq CDF (min/geo/max)", "reord CDF (min/geo/max)"
    );
    for &len in &lengths {
        let ins: Vec<f64> = per_bench
            .iter()
            .map(|(i, _)| i.fraction_at_or_below(len).max(1e-9))
            .collect();
        let reo: Vec<f64> = per_bench
            .iter()
            .map(|(_, r)| r.fraction_at_or_below(len).max(1e-9))
            .collect();
        println!(
            "{:<8} {:>6.2} /{:>5.2} /{:>5.2} {:>7.2} /{:>5.2} /{:>5.2}",
            len,
            min(&ins),
            shelfsim::geomean(&ins),
            max(&ins),
            min(&reo),
            shelfsim::geomean(&reo),
            max(&reo),
        );
    }

    let mut merged_in = WeightedCdf::new();
    let mut merged_re = WeightedCdf::new();
    for (i, r) in &per_bench {
        merged_in.merge(i);
        merged_re.merge(r);
    }
    println!(
        "\n# 99% of in-sequence instructions in series of length <= {}",
        merged_in.quantile(0.99).unwrap_or(0)
    );
    println!(
        "# mean series lengths: in-seq {:.1}, reordered {:.1}  (paper: 5-20 per group)",
        merged_in.mean_length(),
        merged_re.mean_length()
    );
}

fn min(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().cloned().fold(0.0, f64::max)
}
