//! Table II: core-area increase over Base-64, with and without L1 caches.
//!
//! Paper: "adding a shelf and the associated scheduling, steering, and
//! tracking structures increases the core area by 3.1%. In contrast,
//! doubling the capacity of the IQ, ROB, LQ, SQ, and instruction scheduling
//! logic for the 128-entry design increases area by 9.7%." (2.1% / 6.6%
//! with L1 caches included.)

use shelfsim::EnergyModel;
use shelfsim_bench::config;

fn main() {
    println!("# Table II: area increase over Base 64\n");
    let base = EnergyModel::for_config(&config("base64", 4));
    let shelf = EnergyModel::for_config(&config("shelf-opt", 4));
    let big = EnergyModel::for_config(&config("base128", 4));

    println!(
        "{:<14} {:>18} {:>12}",
        "L1 caches", "Base+Shelf 64+64", "Base 128"
    );
    for include_l1 in [false, true] {
        let a0 = base.core_area(include_l1);
        println!(
            "{:<14} {:>17.1}% {:>11.1}%",
            if include_l1 { "yes" } else { "no" },
            (shelf.core_area(include_l1) / a0 - 1.0) * 100.0,
            (big.core_area(include_l1) / a0 - 1.0) * 100.0,
        );
    }
    println!("\n# paper: no-L1 3.1% / 9.7%; with-L1 2.1% / 6.6%");

    println!("\nper-structure area of the shelf design (share of core, no L1):");
    let total = shelf.core_area(false);
    let mut rows: Vec<(&str, f64)> = shelf
        .structures()
        .iter()
        .map(|s| (s.name, s.area()))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (name, a) in rows {
        println!("  {:<14} {:>5.1}%", name, a / total * 100.0);
    }
}
