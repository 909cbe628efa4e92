//! Ablations: does a configuration knob move the shelf's *gain*?
//!
//! Each row applies one knob to Base 64, 64+64 optimistic and Base 128
//! alike, and prints Base 64's geomean IPC, the shelf's and Base 128's
//! geomean IPC gain over Base 64, and the shelf's capture (shelf gain ÷
//! Base 128 gain). A knob that moves IPC but not the gain or the capture
//! changes the machine, not the paper's conclusion. Knobs that only
//! concern the shelf leave the two baselines as they are.
//!
//! The knobs are the ones the paper names (single SSR and index width,
//! §III-B; same-cycle issue, §III-A; TSO, §III-D; RCT and PLT sizing,
//! §IV-B; clustering, §VI; shelf size), wrong-path fetch (gem5's O3 core
//! fetches down wrong paths) and the next-line L1D prefetcher.

use shelfsim::{geomean, CoreConfig, Mix, Simulation};
use shelfsim_bench::{config, mixes, Scale};

/// One ablation row: its label and the change it makes to a design.
/// Shelf-only knobs need no guard on the baselines, which have no shelf
/// to change, except the shelf size, which would give them one.
type Knob = (&'static str, fn(&mut CoreConfig));

const KNOBS: &[Knob] = &[
    ("none (Table I)", |_| {}),
    ("single SSR (§III-B)", |c| c.single_ssr = true),
    ("narrow shelf index 1x (§III-B)", |c| {
        c.narrow_shelf_index = true
    }),
    ("conservative same-cycle issue", |c| {
        c.same_cycle_shelf_issue = false
    }),
    ("RCT 3-bit counters", |c| c.rct_bits = 3),
    ("RCT 8-bit counters", |c| c.rct_bits = 8),
    ("PLT 1 column", |c| c.plt_columns = 1),
    ("PLT 8 columns", |c| c.plt_columns = 8),
    ("no wrong-path fetch", |c| c.wrong_path_fetch = false),
    ("TSO memory model (§III-D)", |c| {
        c.memory_model = shelfsim::core::MemoryModel::Tso
    }),
    ("cluster forwarding +1 cy (§VI)", |c| {
        c.cluster_forward_penalty = 1
    }),
    ("cluster forwarding +2 cy (§VI)", |c| {
        c.cluster_forward_penalty = 2
    }),
    ("next-line L1D prefetcher", |c| {
        c.hierarchy.next_line_prefetch = true
    }),
    ("shelf size 16", |c| resize_shelf(c, 16)),
    ("shelf size 32", |c| resize_shelf(c, 32)),
    ("shelf size 128", |c| resize_shelf(c, 128)),
];

fn resize_shelf(c: &mut CoreConfig, entries: usize) {
    if c.shelf_entries > 0 {
        c.shelf_entries = entries;
    }
}

/// Geomean IPC of `cfg` over `mixes`.
fn ipc_over_mixes(cfg: &CoreConfig, mixes: &[Mix], scale: Scale) -> f64 {
    let vals: Vec<f64> = mixes
        .iter()
        .map(|m| {
            let mut sim =
                Simulation::from_names(cfg.clone(), &m.benchmarks, scale.seed).expect("suite");
            sim.run(scale.warmup, scale.measure).ipc().max(1e-9)
        })
        .collect();
    geomean(&vals)
}

fn main() {
    let mut scale = Scale::from_env();
    // Ablations use a reduced mix count by default; override via env.
    if std::env::var("SHELFSIM_MIXES").is_err() {
        scale.mixes = 8;
    }
    let mixes = mixes(4, scale);
    let designs = ["base64", "shelf-opt", "base128"].map(|d| config(d, 4));
    println!(
        "# Ablation study: shelf (64+64 optimistic) and Base 128 geomean IPC gain over\n\
         # Base 64, {} four-thread mixes, seed {}, each knob set on all three designs\n",
        scale.mixes, scale.seed
    );
    println!(
        "{:<34} {:>8} {:>11} {:>11} {:>8}",
        "variant", "Base64", "shelf gain", "B128 gain", "capture"
    );
    for (label, apply) in KNOBS {
        let ipc: Vec<f64> = designs
            .iter()
            .map(|d| {
                let mut cfg = d.clone();
                apply(&mut cfg);
                ipc_over_mixes(&cfg, &mixes, scale)
            })
            .collect();
        let shelf = (ipc[1] / ipc[0] - 1.0) * 100.0;
        let big = (ipc[2] / ipc[0] - 1.0) * 100.0;
        println!(
            "{:<34} {:>8.3} {:>+10.2}% {:>+10.2}% {:>7.0}%",
            label,
            ipc[0],
            shelf,
            big,
            shelf / big * 100.0
        );
    }
    println!("\n# a knob changes the paper's conclusion only if it moves the shelf gain or the");
    println!("# capture beyond the seed-to-seed band (compare SHELFSIM_SEED=7, 1007, 90210)");
}
