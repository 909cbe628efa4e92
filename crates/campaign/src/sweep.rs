//! Sweep-scale matrix expansion: the paper's full evaluation surface
//! (benchmark × mix × design × thread count) expanded into a deterministic
//! run list for the campaign's worker pool.
//!
//! The thread-count axis is what distinguishes a sweep from a plain
//! campaign matrix: each SMT width gets its own balanced-random mix set,
//! and the single-thread axis enumerates the *distinct benchmarks those
//! mixes use* — on base64 these are exactly the single-thread CPI
//! references the Pareto report's STP computation needs (Eyerman &
//! Eeckhout's STP divides each thread's multi-thread CPI into its
//! single-thread CPI on [`crate::pareto::STP_REFERENCE`]).

use crate::spec::{CampaignSpec, RunSpec};
use shelfsim_workload::balanced_random_mixes;
use std::collections::BTreeSet;

/// The full mix-generation pool per thread count (one balanced round over
/// the 28-benchmark suite; `mixes_per_count` takes a prefix).
const MIX_POOL: usize = 28;

/// A sweep over designs × thread counts × mixes.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Design-point names (resolved per thread count via
    /// [`shelfsim_analyze::design_by_name`]).
    pub designs: Vec<String>,
    /// SMT widths to sweep. `1` is implied whenever any width ≥ 2 is
    /// present (the Pareto STP references); listing it explicitly is
    /// also fine.
    pub thread_counts: Vec<usize>,
    /// Mixes per thread count ≥ 2 (clamped to the 28-mix balanced pool).
    pub mixes_per_count: usize,
    /// Workload/mix seed.
    pub seed: u64,
    /// Warm-up cycles per run.
    pub warmup: u64,
    /// Measured cycles per run.
    pub measure: u64,
}

impl SweepSpec {
    /// The mixes for each thread count, in sweep order: multi-thread
    /// counts as given, then the implied single-thread references (every
    /// distinct benchmark the multi-thread mixes use, sorted). Each entry
    /// is `(threads, mixes)`.
    pub fn mix_plan(&self) -> Vec<(usize, Vec<Vec<String>>)> {
        let names = shelfsim_workload::suite::names();
        let take = self.mixes_per_count.clamp(1, MIX_POOL);
        let mut plan = Vec::new();
        let mut st_refs: BTreeSet<String> = BTreeSet::new();
        let mut want_st = false;
        for &t in &self.thread_counts {
            if t <= 1 {
                want_st = true;
                continue;
            }
            let mixes: Vec<Vec<String>> =
                balanced_random_mixes(&names, t, MIX_POOL, self.seed.wrapping_add(t as u64))
                    .into_iter()
                    .take(take)
                    .map(|m| m.benchmarks.iter().map(|b| (*b).to_owned()).collect())
                    .collect();
            for mix in &mixes {
                st_refs.extend(mix.iter().cloned());
            }
            plan.push((t, mixes));
        }
        // Single-thread axis: the STP references for everything above. A
        // sweep of only T=1 falls back to a balanced single-benchmark set.
        if st_refs.is_empty() && want_st {
            st_refs.extend(
                balanced_random_mixes(&names, 1, MIX_POOL, self.seed)
                    .into_iter()
                    .take(take)
                    .map(|m| m.benchmarks[0].to_owned()),
            );
        }
        if !st_refs.is_empty() {
            plan.push((1, st_refs.into_iter().map(|b| vec![b]).collect()));
        }
        plan
    }

    /// Expands the sweep into its deterministic run list: designs outer,
    /// thread counts (per [`SweepSpec::mix_plan`]) middle, mixes inner.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mixes: Vec<Vec<String>> = self.mix_plan().into_iter().flat_map(|(_, m)| m).collect();
        CampaignSpec::matrix(&self.designs, &mixes, self.seed, self.warmup, self.measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepSpec {
        SweepSpec {
            designs: vec!["base64".to_owned(), "shelf-opt".to_owned()],
            thread_counts: vec![2, 4],
            mixes_per_count: 4,
            seed: 7,
            warmup: 100,
            measure: 1_000,
        }
    }

    #[test]
    fn expansion_is_deterministic_and_includes_st_references() {
        let s = sweep();
        let a = s.expand();
        let b = s.expand();
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.key() == y.key() && x.index == y.index));

        // Every benchmark used by a multi-thread mix has a single-thread
        // reference run on every design.
        for design in &s.designs {
            let st: BTreeSet<&String> = a
                .iter()
                .filter(|r| r.design == *design && r.mix.len() == 1)
                .map(|r| &r.mix[0])
                .collect();
            for r in a.iter().filter(|r| r.design == *design && r.mix.len() > 1) {
                for b in &r.mix {
                    assert!(st.contains(b), "missing ST reference for {b}");
                }
            }
        }
        // All keys distinct.
        let keys: BTreeSet<String> = a.iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), a.len());
    }

    #[test]
    fn single_thread_only_sweep_still_expands() {
        let s = SweepSpec {
            thread_counts: vec![1],
            ..sweep()
        };
        let runs = s.expand();
        assert_eq!(runs.len(), 2 * 4, "2 designs x 4 single benchmarks");
        assert!(runs.iter().all(|r| r.mix.len() == 1));
    }

    #[test]
    fn mixes_per_count_clamps_to_pool() {
        let s = SweepSpec {
            mixes_per_count: 10_000,
            thread_counts: vec![2],
            ..sweep()
        };
        // 28 2-thread mixes over 28 benchmarks use every benchmark twice:
        // 28 mixes + 28 ST references per design.
        assert_eq!(s.expand().len(), 2 * (28 + 28));
    }
}
