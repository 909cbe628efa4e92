//! The three benchmark workloads and the seeded inputs each one draws.
//!
//! The suite is split by a property real programs have: the share of
//! memory accesses that miss L2 (`1 − mem_l1_frac − mem_l2_frac`). The
//! compute-bound half keeps nearly every cycle walked; the memory-bound
//! half hands most cycles to the skip engine.

use shelfsim::campaign::SweepSpec;
use shelfsim::workload::BenchmarkProfile;
use shelfsim::{balanced_random_mixes, suite};

/// The seed the goldens were recorded at (the repository's default seed).
pub const DEFAULT_SEED: u64 = 7;

/// Design points the engine workloads run every mix on.
pub const ENGINE_DESIGNS: [&str; 3] = ["base64", "shelf-opt", "base128"];

/// Every design any workload simulates (the sweep adds `shelf-cons`).
pub const ALL_DESIGNS: [&str; 4] = ["base64", "shelf-cons", "shelf-opt", "base128"];

/// Mixes drawn per engine workload: one balanced round over its 11
/// benchmarks, so every benchmark appears equally often at every seed.
const MIXES_PER_SET: usize = 11;

/// Highest L2-miss share of the compute-bound set.
const COMPUTE_MAX_SHARE: f64 = 0.03;
/// Lowest L2-miss share of the memory-bound set.
const MEMBOUND_MIN_SHARE: f64 = 0.20;
/// Slack for the profiles' decimal fractions (`1 − 0.90 − 0.07` is not
/// exactly `0.03` in binary).
const SHARE_EPS: f64 = 1e-9;

/// Share of a profile's memory accesses that miss L2.
pub fn l2_miss_share(p: &BenchmarkProfile) -> f64 {
    1.0 - p.mem_l1_frac - p.mem_l2_frac
}

/// Benchmarks whose L2-miss share is at most 0.03, in suite order.
pub fn compute_set() -> Vec<&'static str> {
    suite::all()
        .iter()
        .filter(|p| l2_miss_share(p) <= COMPUTE_MAX_SHARE + SHARE_EPS)
        .map(|p| p.name)
        .collect()
}

/// Benchmarks whose L2-miss share is at least 0.20, in suite order.
pub fn membound_set() -> Vec<&'static str> {
    suite::all()
        .iter()
        .filter(|p| l2_miss_share(p) >= MEMBOUND_MIN_SHARE - SHARE_EPS)
        .map(|p| p.name)
        .collect()
}

/// How much work one workload run does. The benchmark itself always runs
/// `Full`; the tests run `Tiny` to check the output contract quickly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Smt4Compute,
    Smt2Membound,
    SweepShort,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Smt4Compute,
        Workload::Smt2Membound,
        Workload::SweepShort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Smt4Compute => "smt4-compute",
            Workload::Smt2Membound => "smt2-membound",
            Workload::SweepShort => "sweep-short",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Architectural fingerprints recorded at [`DEFAULT_SEED`], one line
    /// per simulation (or campaign run) in run order.
    pub fn goldens(self) -> &'static str {
        match self {
            Workload::Smt4Compute => include_str!("../goldens/smt4-compute.txt"),
            Workload::Smt2Membound => include_str!("../goldens/smt2-membound.txt"),
            Workload::SweepShort => include_str!("../goldens/sweep-short.txt"),
        }
    }
}

/// One engine workload: long fixed windows over balanced mixes of one
/// benchmark set, on every [`ENGINE_DESIGNS`] point.
#[derive(Clone, Debug)]
pub struct EngineSpec {
    pub benches: Vec<&'static str>,
    pub threads: usize,
    pub designs: Vec<&'static str>,
    pub mixes: usize,
    pub warmup: u64,
    pub measure: u64,
}

impl EngineSpec {
    /// The spec of an engine workload; `None` for the sweep.
    pub fn of(workload: Workload, scale: Scale) -> Option<EngineSpec> {
        let (benches, threads, measure) = match workload {
            Workload::Smt4Compute => (compute_set(), 4, 100_000),
            Workload::Smt2Membound => (membound_set(), 2, 400_000),
            Workload::SweepShort => return None,
        };
        let full = EngineSpec {
            benches,
            threads,
            designs: ENGINE_DESIGNS.to_vec(),
            mixes: MIXES_PER_SET,
            warmup: 2_000,
            measure,
        };
        Some(match scale {
            Scale::Full => full,
            Scale::Tiny => EngineSpec {
                designs: vec!["shelf-opt"],
                mixes: 1,
                warmup: 200,
                measure: 2_000,
                ..full
            },
        })
    }

    /// The mixes drawn from `seed` (a prefix of one balanced round).
    pub fn mixes(&self, seed: u64) -> Vec<Vec<&'static str>> {
        balanced_random_mixes(&self.benches, self.threads, MIXES_PER_SET, seed)
            .into_iter()
            .take(self.mixes)
            .map(|m| m.benchmarks)
            .collect()
    }

    /// Every `(design, mix)` simulation of one pass, designs outer.
    pub fn sims(&self, seed: u64) -> Vec<(&'static str, Vec<&'static str>)> {
        let mixes = self.mixes(seed);
        self.designs
            .iter()
            .flat_map(|&d| mixes.iter().map(move |m| (d, m.clone())))
            .collect()
    }
}

/// The sweep workload's matrix: the `campaign_matrix` sweep behind
/// `BENCH_campaign.json` (4 designs × 2- and 4-thread mixes plus their
/// single-thread references, 500 + 3,000 cycles per run).
pub fn sweep_spec(seed: u64, scale: Scale) -> SweepSpec {
    match scale {
        Scale::Full => shelfsim_bench::campaign::campaign_matrix(3_000, seed),
        Scale::Tiny => SweepSpec {
            designs: vec!["base64".to_owned(), "shelf-opt".to_owned()],
            thread_counts: vec![2],
            mixes_per_count: 1,
            seed,
            warmup: 100,
            measure: 600,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_miss_split_gives_two_disjoint_sets_of_eleven() {
        let compute = compute_set();
        let membound = membound_set();
        assert_eq!(
            compute,
            [
                "perlbench",
                "bzip2",
                "gobmk",
                "hmmer",
                "sjeng",
                "h264ref",
                "gamess",
                "gromacs",
                "namd",
                "povray",
                "tonto"
            ]
        );
        assert_eq!(
            membound,
            [
                "mcf",
                "libquantum",
                "omnetpp",
                "bwaves",
                "milc",
                "zeusmp",
                "cactusADM",
                "leslie3d",
                "soplex",
                "GemsFDTD",
                "lbm"
            ]
        );
        assert!(compute.iter().all(|b| !membound.contains(b)));
    }

    #[test]
    fn seed_changes_the_drawn_mixes() {
        for w in [Workload::Smt4Compute, Workload::Smt2Membound] {
            let spec = EngineSpec::of(w, Scale::Full).expect("engine workload");
            let a = spec.mixes(DEFAULT_SEED);
            assert_eq!(a.len(), 11);
            assert_eq!(a, spec.mixes(DEFAULT_SEED), "mixes are seeded");
            assert_ne!(a, spec.mixes(DEFAULT_SEED + 1), "{}", w.name());
            for mix in &a {
                assert!(mix.iter().all(|b| spec.benches.contains(b)));
            }
        }
        let keys = |seed| -> Vec<String> {
            sweep_spec(seed, Scale::Full)
                .expand()
                .iter()
                .map(|r| r.key())
                .collect()
        };
        assert_ne!(keys(DEFAULT_SEED), keys(DEFAULT_SEED + 1));
    }
}
