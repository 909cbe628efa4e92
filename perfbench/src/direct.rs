//! The traced run's simulation path: the steps `Simulation::from_programs`
//! and `Simulation::try_run` take, called one by one on `Core` so each can
//! be timed on its own.

use crate::spans::Spans;
use shelfsim::core::sim::DEFAULT_FUNCTIONAL_WARMUP;
use shelfsim::core::SkipStats;
use shelfsim::mem::CacheStats;
use shelfsim::stats::WeightedCdf;
use shelfsim::workload::{Program, TraceSource};
use shelfsim::{Completion, Core, CoreConfig, Counters, RunMeta, RunResult, ThreadResult};

/// How a direct simulation runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Cycle skipping on, as every timed run has it.
    Skip,
    /// Cycle skipping off: the reference for skip equivalence.
    NoSkip,
    /// Cycle skipping on with the pipeline tracer attached, to audit that
    /// the stall tallies sum to the measured cycles.
    Audit,
}

/// One direct simulation's results.
pub struct DirectRun {
    /// The measured window, as `Simulation::try_run` reports it. Fields
    /// neither the energy model nor the fingerprint reads (in-sequence
    /// series and fractions) are left empty.
    pub result: RunResult,
    /// Host nanoseconds inside `Core::tick_bounded` (warm-up + window).
    pub tick_ns: u64,
    /// Cycles ticked (warm-up + window).
    pub cycles: u64,
    pub skip: SkipStats,
    /// Data-side MSHR rejections in the measured window.
    pub data_rejections: u64,
    /// Mean mis-steer rate over threads, when the design steers.
    pub missteer: Option<f64>,
    /// Stall-tally audit (`Mode::Audit` only).
    pub audit: Result<(), String>,
}

fn cache_delta(now: &CacheStats, then: &CacheStats) -> CacheStats {
    CacheStats {
        accesses: now.accesses - then.accesses,
        hits: now.hits - then.hits,
        writebacks: now.writebacks - then.writebacks,
    }
}

/// Builds, warms and runs one simulation on `programs` (one per thread),
/// recording `core.setup.*` and `core.tick` spans for simulation `sim`.
pub fn simulate(
    cfg: CoreConfig,
    programs: Vec<(String, Program)>,
    seed: u64,
    warmup: u64,
    measure: u64,
    mode: Mode,
    spans: &mut Spans,
    sim: usize,
) -> DirectRun {
    let names: Vec<String> = programs.iter().map(|(n, _)| n.clone()).collect();
    let meta = RunMeta {
        seed,
        benchmarks: names.clone(),
        config_hash: cfg.stable_hash(),
    };
    let steers = cfg.steer == shelfsim::SteerPolicy::Practical;
    let mut core = spans.time("core.setup.new", sim, || {
        let traces = programs
            .into_iter()
            .enumerate()
            .map(|(t, (_, p))| TraceSource::new(p, t))
            .collect();
        Core::new(cfg, traces)
    });
    spans.time("core.setup.warm_caches", sim, || core.warm_caches());
    spans.time("core.setup.warm_functional", sim, || {
        core.warm_functional(DEFAULT_FUNCTIONAL_WARMUP)
    });
    match mode {
        Mode::Skip => {}
        Mode::NoSkip => core.set_cycle_skipping(false),
        // A one-record ring sampled once: only the stall tallies matter.
        Mode::Audit => core.enable_tracer(1, u64::MAX),
    }

    let id = spans.enter("core.tick", sim);
    core.tick_bounded(warmup);
    let mut tick_ns = spans.exit(id);

    // The measurement boundary, drawn as `Simulation::try_run` draws it.
    let threads = names.len();
    let committed0: Vec<u64> = (0..threads).map(|t| core.committed(t)).collect();
    let bpred0: Vec<(u64, u64)> = (0..threads).map(|t| core.bpred_counts(t)).collect();
    let h = core.hierarchy();
    let (l1i0, l1d0, l20) = (*h.l1i_stats(), *h.l1d_stats(), *h.l2_stats());
    let rejections0 = h.counters().data_rejections;
    core.counters = Counters::new();
    if let Some(tracer) = core.tracer_mut() {
        tracer.reset();
    }

    let id = spans.enter("core.tick", sim);
    core.tick_bounded(measure);
    tick_ns += spans.exit(id);

    let audit = match core.tracer() {
        Some(tracer) => tracer.check_invariants(measure),
        None => Ok(()),
    };
    let thread_results: Vec<ThreadResult> = (0..threads)
        .map(|t| {
            let committed = core.committed(t) - committed0[t];
            let (lookups, misses) = core.bpred_counts(t);
            let (lookups, misses) = (lookups - bpred0[t].0, misses - bpred0[t].1);
            ThreadResult {
                benchmark: names[t].clone(),
                committed,
                cpi: if committed == 0 {
                    f64::INFINITY
                } else {
                    measure as f64 / committed as f64
                },
                in_sequence_fraction: 0.0,
                missteer_rate: core.missteer_rate(t),
                branch_mispredict_ratio: if lookups == 0 {
                    0.0
                } else {
                    misses as f64 / lookups as f64
                },
                in_sequence_series: WeightedCdf::new(),
                reordered_series: WeightedCdf::new(),
            }
        })
        .collect();
    let missteer = steers.then(|| {
        thread_results.iter().map(|t| t.missteer_rate).sum::<f64>() / threads as f64
    });
    let h = core.hierarchy();
    let result = RunResult {
        cycles: measure,
        threads: thread_results,
        counters: core.counters.clone(),
        l1i: cache_delta(h.l1i_stats(), &l1i0),
        l1d: cache_delta(h.l1d_stats(), &l1d0),
        l2: cache_delta(h.l2_stats(), &l20),
        late_shelf_commits: core.late_shelf_commits(),
        completion: Completion::FixedWindow,
        meta,
    };
    DirectRun {
        data_rejections: h.counters().data_rejections - rejections0,
        result,
        tick_ns,
        cycles: warmup + measure,
        skip: core.skip_stats().clone(),
        missteer,
        audit,
    }
}
