//! Shared experiment harness for the table/figure benchmarks.
//!
//! Each `benches/figNN_*.rs` target (run via `cargo bench`) regenerates one
//! table or figure of the paper by calling into this library; the same entry
//! points are exercised (at reduced scale) by the integration tests.
//!
//! Every throughput and energy number comes from [`figure_runs`], one
//! in-memory [`run_campaign`] matrix scored with the campaign's one STP
//! definition; per-thread diagnostics the journal does not carry come
//! from [`simulate`].
//!
//! Scale knobs (environment variables):
//!
//! * `SHELFSIM_MIXES` — number of workload mixes (default 28, the paper's
//!   full set);
//! * `SHELFSIM_WARMUP` — warm-up cycles per run (default 10 000);
//! * `SHELFSIM_MEASURE` — measured cycles per run (default 40 000);
//! * `SHELFSIM_SEED` — workload/mix seed (default 7).

pub mod campaign;

use shelfsim::campaign::{JournalEntry, RunRecord, StpReferences, STP_REFERENCE};
use shelfsim::{
    balanced_random_mixes, geomean, run_campaign, suite, CampaignSpec, CoreConfig, Mix, RunResult,
    Simulation,
};
use std::collections::BTreeSet;

/// Scale parameters for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Number of mixes.
    pub mixes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Scale {
    /// Reads the scale from the environment (paper-scale defaults).
    pub fn from_env() -> Self {
        fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        Scale {
            warmup: var("SHELFSIM_WARMUP", 10_000),
            measure: var("SHELFSIM_MEASURE", 40_000),
            mixes: var("SHELFSIM_MIXES", 28),
            seed: var("SHELFSIM_SEED", 7),
        }
    }

    /// A small scale for tests.
    pub fn tiny() -> Self {
        Scale {
            warmup: 3_000,
            measure: 10_000,
            mixes: 3,
            seed: 7,
        }
    }
}

/// The design points of Figures 10 and 13 with their table-row labels,
/// baseline first.
pub const FIG10: [(&str, &str); 4] = [
    ("base64", "Base 64"),
    ("shelf-cons", "64+64 conservative"),
    ("shelf-opt", "64+64 optimistic"),
    ("base128", "Base 128"),
];

/// The core configuration of a design name (panics on an unknown name).
pub fn config(design: &str, threads: usize) -> CoreConfig {
    shelfsim::analyze::design_by_name(design, threads).expect("known design name")
}

/// Runs `design` on `benchmarks` directly, for the per-thread diagnostics
/// a journal entry does not carry (panics on an unknown name).
pub fn simulate(design: &str, benchmarks: &[&str], scale: Scale) -> RunResult {
    let cfg = config(design, benchmarks.len());
    let mut sim = Simulation::from_names(cfg, benchmarks, scale.seed).expect("suite benchmarks");
    sim.run(scale.warmup, scale.measure)
}

/// The balanced-random mixes for `threads` contexts at the given scale.
pub fn mixes(threads: usize, scale: Scale) -> Vec<Mix> {
    let names = suite::names();
    let mut all = balanced_random_mixes(&names, threads, 28, scale.seed);
    all.truncate(scale.mixes);
    all
}

/// One figure's results, indexed `[design][mix]` in the order requested.
pub struct FigureRuns {
    /// The mixes, in [`mixes`] order.
    pub mixes: Vec<Mix>,
    /// System throughput against [`STP_REFERENCE`]'s single-thread CPIs.
    pub stp: Vec<Vec<f64>>,
    /// Energy-delay product.
    pub edp: Vec<Vec<f64>>,
}

/// Runs `designs` × [`mixes`]`(threads, scale)` plus [`STP_REFERENCE`]'s
/// single-thread run of every benchmark those mixes use, as one in-memory
/// campaign (pre-flighted like any sweep) on all host cores, and scores
/// every journal entry with [`StpReferences`]. Panics, naming the run,
/// unless every run ends `ok`.
pub fn figure_runs(designs: &[&str], threads: usize, scale: Scale) -> FigureRuns {
    let mixes = mixes(threads, scale);
    let strings = |names: &[&str]| names.iter().map(|n| (*n).to_owned()).collect::<Vec<_>>();
    let mix_names: Vec<Vec<String>> = mixes.iter().map(|m| strings(&m.benchmarks)).collect();
    let matrix = |designs: &[&str], mixes: &[Vec<String>]| {
        CampaignSpec::matrix(
            &strings(designs),
            mixes,
            scale.seed,
            scale.warmup,
            scale.measure,
        )
    };
    let mut runs = matrix(designs, &mix_names);
    // A 1-thread figure of the reference design already holds them.
    if threads > 1 || !designs.contains(&STP_REFERENCE) {
        let refs: BTreeSet<Vec<String>> = mix_names.concat().into_iter().map(|b| vec![b]).collect();
        runs.extend(matrix(&[STP_REFERENCE], &Vec::from_iter(refs)));
    }
    for (i, r) in runs.iter_mut().enumerate() {
        r.index = i;
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = run_campaign(&CampaignSpec::new(runs).with_workers(workers))
        .expect("an in-memory campaign does no journal I/O");
    let entries: Vec<JournalEntry> = report
        .records
        .iter()
        .map(RunRecord::to_journal_entry)
        .collect();
    if let Some(e) = entries.iter().find(|e| e.status != "ok") {
        panic!("figure run `{}` ended {}: {}", e.label, e.status, e.message);
    }
    // Records sit at their matrix index: designs outer, mixes inner, first.
    let refs = StpReferences::from_entries(&entries);
    let table = |f: &dyn Fn(&JournalEntry) -> f64| -> Vec<Vec<f64>> {
        let rows = entries.chunks(mixes.len()).take(designs.len());
        rows.map(|row| row.iter().map(f).collect()).collect()
    };
    FigureRuns {
        stp: table(&|e| refs.stp(e).expect("every benchmark has a reference")),
        edp: table(&|e| e.edp),
        mixes,
    }
}

/// Percent improvements of each design over the first, per mix:
/// `improvements[design-1][mix]` (in percent), from `stps[design][mix]`.
pub fn stp_improvements(stps: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let improvement = |(x, b): (&f64, &f64)| (x / b - 1.0) * 100.0;
    stps[1..]
        .iter()
        .map(|d| d.iter().zip(&stps[0]).map(improvement).collect())
        .collect()
}

/// Geomean percent improvement of per-mix `design` values over `base`.
pub fn geomean_improvement(design: &[f64], base: &[f64]) -> f64 {
    let ratios: Vec<f64> = design.iter().zip(base).map(|(x, b)| x / b).collect();
    (geomean(&ratios) - 1.0) * 100.0
}

/// Optional CSV sink: when `SHELFSIM_CSV` names a directory, returns a
/// writer for `<dir>/<name>.csv` so the figure benches can emit
/// machine-readable series alongside their tables.
pub fn csv_sink(name: &str) -> Option<std::fs::File> {
    let dir = std::env::var("SHELFSIM_CSV").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::File::create(std::path::Path::new(&dir).join(format!("{name}.csv"))).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults() {
        // Not setting the vars yields paper-scale defaults.
        let s = Scale::from_env();
        assert!(s.mixes <= 28);
        assert!(s.measure > 0);
    }

    #[test]
    fn designs_have_distinct_configs() {
        let c: Vec<CoreConfig> = FIG10.iter().map(|(d, _)| config(d, 4)).collect();
        assert_ne!(c[0], c[1]);
        assert_ne!(c[1], c[2]);
        assert_ne!(c[2], c[3]);
        assert_eq!(c[3].rob_entries, 128);
    }

    #[test]
    fn tiny_evaluation_round_trip() {
        let scale = Scale {
            mixes: 1,
            ..Scale::tiny()
        };
        let runs = figure_runs(&["base64"], 4, scale);
        assert_eq!(runs.mixes.len(), 1);
        assert!(runs.stp[0][0] > 0.0);
        assert!(runs.edp[0][0] > 0.0);
        assert_eq!(
            simulate("base64", &runs.mixes[0].benchmarks, scale).late_shelf_commits,
            0
        );
    }
}
