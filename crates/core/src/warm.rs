//! The design-independent warm-up: cache warming and functional
//! fast-forward, the stand-in for the paper's 100M-instruction warm-up.
//!
//! Warm-up reads and writes only the memory hierarchy, each thread's
//! branch predictor, and each thread's trace position — never a window,
//! queue, shelf or steering field of the design. Every design point that
//! shares a hierarchy, a predictor and the per-thread programs therefore
//! starts its timed run from the same warmed state, and a [`WarmState`]
//! built once can seed any number of such cores ([`crate::Core::from_warm`]).
//! [`crate::Core::warm_caches`] and [`crate::Core::warm_functional`] run
//! the same two functions below on a core's own parts.

use crate::config::CoreConfig;
use crate::sim::{thread_program_seed, DEFAULT_FUNCTIONAL_WARMUP};
use shelfsim_mem::{Hierarchy, HierarchyConfig};
use shelfsim_uarch::{BranchPredictor, BranchPredictorConfig, PredictorKind};
use shelfsim_workload::{Program, TraceSource};
use std::sync::Arc;

/// The state a core's warm-up produces: the memory hierarchy plus each
/// thread's trace position and branch predictor. Cloning one and handing
/// it to [`crate::Core::from_warm`] is bit-identical to building the core
/// cold and warming it again. The traces share their programs, so a clone
/// copies no program.
#[derive(Clone, Debug)]
pub struct WarmState {
    pub(crate) hierarchy: Hierarchy,
    /// `(trace, predictor)` per hardware thread, in thread order.
    pub(crate) threads: Vec<(TraceSource, BranchPredictor)>,
}

impl WarmState {
    /// Builds and warms the state `cfg` runs `programs` (one per hardware
    /// thread, in thread order) from: the caches are warmed with each
    /// thread's footprint, then every thread is functionally fast-forwarded
    /// by [`DEFAULT_FUNCTIONAL_WARMUP`] instructions. Programs may be owned
    /// or shared (`Arc<Program>`); a shared one is not copied.
    ///
    /// # Panics
    ///
    /// Panics if the program count does not match `cfg.threads`.
    pub fn new<P: Into<Arc<Program>>>(
        cfg: &CoreConfig,
        programs: impl IntoIterator<Item = P>,
    ) -> Self {
        let traces: Vec<TraceSource> = programs
            .into_iter()
            .enumerate()
            .map(|(t, p)| TraceSource::new(p, t))
            .collect();
        cfg.validate();
        assert_eq!(traces.len(), cfg.threads, "one program per thread");
        let mut warm = Self::cold(cfg, traces);
        warm_caches(
            &mut warm.hierarchy,
            warm.threads.iter().map(|(trace, _)| trace),
        );
        for (trace, bpred) in &mut warm.threads {
            warm_functional(&mut warm.hierarchy, trace, bpred, DEFAULT_FUNCTIONAL_WARMUP);
        }
        warm
    }

    /// The unwarmed state: a cold hierarchy and fresh predictors around
    /// `traces` (what [`crate::Core::new`] starts from).
    pub(crate) fn cold(cfg: &CoreConfig, traces: Vec<TraceSource>) -> Self {
        let bpred = BranchPredictorConfig {
            kind: cfg.predictor,
            ..BranchPredictorConfig::default()
        };
        WarmState {
            hierarchy: Hierarchy::new(cfg.hierarchy),
            threads: traces
                .into_iter()
                .map(|trace| (trace, BranchPredictor::new(bpred)))
                .collect(),
        }
    }
}

/// Everything [`WarmState::new`] reads, for runs whose programs come from
/// the benchmark suite ([`crate::Simulation::new`]'s contract): the
/// hierarchy and predictor configuration, each thread's benchmark and
/// program seed, and the functional warm-up length. Two runs with equal
/// keys start from bit-identical warmed states, whatever their design.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WarmKey {
    hierarchy: HierarchyConfig,
    predictor: PredictorKind,
    /// `(benchmark, program seed)` per hardware thread.
    threads: Vec<(String, u64)>,
    functional_insts: u64,
}

impl WarmKey {
    /// The key of running `benchmarks` (one per thread) on `cfg` with
    /// workload seed `seed`.
    pub fn new(cfg: &CoreConfig, benchmarks: &[String], seed: u64) -> Self {
        WarmKey {
            hierarchy: cfg.hierarchy,
            predictor: cfg.predictor,
            threads: benchmarks
                .iter()
                .enumerate()
                .map(|(t, b)| (b.clone(), thread_program_seed(seed, t)))
                .collect(),
            functional_insts: DEFAULT_FUNCTIONAL_WARMUP,
        }
    }
}

/// Warms the caches with each thread's code and data footprint, in thread
/// order: the L2-resident data region, then code, then the L1-resident
/// data region, leaving a realistic steady-state residency.
pub(crate) fn warm_caches<'a>(
    hierarchy: &mut Hierarchy,
    traces: impl Iterator<Item = &'a TraceSource>,
) {
    let block = hierarchy.config().l1d.block_bytes as u64;
    let mut sweep = |(start, end): (u64, u64), data: bool| {
        let mut a = start;
        while a < end {
            if data {
                hierarchy.warm_data(a);
            } else {
                hierarchy.warm_inst(a);
            }
            a += block;
        }
    };
    for trace in traces {
        let regions = trace.data_region_ranges();
        // L2-resident region (fills L2), code, then the L1-resident region
        // last so it stays L1-resident.
        sweep(regions[1], true);
        sweep(trace.code_range(), false);
        sweep(regions[0], true);
    }
}

/// Functionally fast-forwards one thread by `insts` instructions: caches
/// see every fetch and data access, and the predictor trains on every
/// branch. The trace walks block by block without its replay buffer,
/// since nothing fetched before the first tick can be rewound to.
pub(crate) fn warm_functional(
    hierarchy: &mut Hierarchy,
    trace: &mut TraceSource,
    bpred: &mut BranchPredictor,
    insts: u64,
) {
    trace.walk(insts, |pc, addr, branch| {
        hierarchy.warm_inst(pc);
        if let Some(addr) = addr {
            hierarchy.warm_data(addr);
        }
        if let Some(br) = branch {
            let pred = bpred.predict(pc, br.is_return);
            bpred.update(
                pc,
                pred,
                br.taken,
                br.next_pc,
                br.is_call,
                br.is_return,
                pc + 4,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SteerPolicy;
    use crate::pipeline::Core;
    use shelfsim_workload::suite;

    const MIX: [&str; 2] = ["gcc", "mcf"];

    fn programs(seed: u64) -> Vec<Program> {
        MIX.iter()
            .enumerate()
            .map(|(t, name)| {
                suite::by_name(name)
                    .unwrap()
                    .build_program(thread_program_seed(seed, t))
            })
            .collect()
    }

    fn traces(seed: u64) -> Vec<TraceSource> {
        programs(seed)
            .into_iter()
            .enumerate()
            .map(|(t, p)| TraceSource::new(p, t))
            .collect()
    }

    /// Ticks `core` for a fixed window and returns what it produced.
    fn fingerprint(mut core: Core) -> (crate::Counters, Vec<u64>, u64) {
        core.tick_bounded(3_000);
        let committed = (0..MIX.len()).map(|t| core.committed(t)).collect();
        let l2_hits = core.hierarchy().l2_stats().hits;
        (core.counters, committed, l2_hits)
    }

    #[test]
    fn warm_state_matches_warming_the_core_in_place() {
        for cfg in [
            CoreConfig::base64(2),
            CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true),
        ] {
            let mut in_place = Core::new(cfg.clone(), traces(7));
            in_place.warm_caches();
            in_place.warm_functional(DEFAULT_FUNCTIONAL_WARMUP);
            let warm = WarmState::new(&cfg, programs(7));
            // A clone seeds a second core exactly like the original.
            let reused = Core::from_warm(cfg.clone(), warm.clone());
            let fresh = Core::from_warm(cfg, warm);
            let expected = fingerprint(in_place);
            assert_eq!(fingerprint(fresh), expected);
            assert_eq!(fingerprint(reused), expected);
        }
    }

    /// What the warm-up leaves behind, as plain numbers: `(accesses, hits,
    /// writebacks)` of L1I, L1D and L2, then `(lookups, direction
    /// mispredicts, target mispredicts, next fetch seq)` per thread.
    type WarmSummary = ([(u64, u64, u64); 3], Vec<(u64, u64, u64, u64)>);

    fn warm_summary(mix: &[&str]) -> WarmSummary {
        let programs = mix.iter().enumerate().map(|(t, name)| {
            suite::by_name(name)
                .unwrap()
                .build_program(thread_program_seed(7, t))
        });
        let warm = WarmState::new(&CoreConfig::base64(mix.len()), programs);
        let h = &warm.hierarchy;
        let caches = [h.l1i_stats(), h.l1d_stats(), h.l2_stats()]
            .map(|s| (s.accesses, s.hits, s.writebacks));
        let threads = warm
            .threads
            .iter()
            .map(|(trace, bpred)| {
                (
                    bpred.lookups,
                    bpred.direction_mispredicts,
                    bpred.target_mispredicts,
                    trace.next_fetch_seq(),
                )
            })
            .collect();
        (caches, threads)
    }

    /// Pins the warmed state of one compute-bound and one memory-bound
    /// mix at seed 7, so a warm-up speed-up that is not exact fails here.
    #[test]
    fn warm_state_golden() {
        assert_eq!(
            warm_summary(&["sjeng", "gobmk", "bzip2", "namd"]),
            (
                [
                    (400_980, 399_158, 0),
                    (204_721, 125_780, 0),
                    (605_701, 530_500, 0)
                ],
                vec![
                    (19_988, 3_951, 97, 100_000),
                    (20_127, 3_887, 290, 100_000),
                    (14_045, 586, 22, 100_000),
                    (4_967, 205, 2, 100_000),
                ]
            )
        );
        assert_eq!(
            warm_summary(&["omnetpp", "mcf"]),
            (
                [
                    (200_488, 200_000, 0),
                    (121_250, 44_661, 0),
                    (321_738, 263_923, 0)
                ],
                vec![(20_131, 3_576, 284, 100_000), (19_679, 1_421, 23, 100_000)]
            )
        );
    }

    #[test]
    fn warm_key_ignores_the_design_and_tracks_its_inputs() {
        let names: Vec<String> = MIX.iter().map(|s| (*s).to_owned()).collect();
        let base = CoreConfig::base64(2);
        let key = WarmKey::new(&base, &names, 7);
        let shelf = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
        assert_eq!(WarmKey::new(&shelf, &names, 7), key);
        assert_eq!(WarmKey::new(&CoreConfig::base128(2), &names, 7), key);

        assert_ne!(WarmKey::new(&base, &names, 8), key);
        let swapped: Vec<String> = names.iter().rev().cloned().collect();
        assert_ne!(WarmKey::new(&base, &swapped, 7), key);
        let mut other = base.clone();
        other.predictor = PredictorKind::Gshare;
        assert_ne!(WarmKey::new(&other, &names, 7), key);
        let mut other = base.clone();
        other.hierarchy.l2.size_bytes /= 2;
        assert_ne!(WarmKey::new(&other, &names, 7), key);
    }

    #[test]
    #[should_panic(expected = "another predictor")]
    fn from_warm_rejects_a_state_for_another_predictor() {
        let cfg = CoreConfig::base64(2);
        let warm = WarmState::new(&cfg, programs(7));
        let mut other = cfg;
        other.predictor = PredictorKind::Gshare;
        Core::from_warm(other, warm);
    }

    #[test]
    #[should_panic(expected = "after the first tick")]
    fn functional_warmup_after_a_tick_panics() {
        let mut core = Core::new(CoreConfig::base64(2), traces(7));
        core.tick();
        core.warm_functional(10);
    }
}
