//! Simulation driver: builds workloads, warms the core, and measures a
//! fixed-cycle sampling window (the stand-in for the paper's SimPoint
//! methodology — deterministic warm-up instead of fast-forwarding).

use crate::config::CoreConfig;
use crate::counters::Counters;
use crate::pipeline::{Core, ThreadOccupancy};
use crate::warm::WarmState;
use shelfsim_mem::CacheStats;
use shelfsim_stats::WeightedCdf;
use shelfsim_workload::{suite, BenchmarkProfile, Program};

/// Instructions of functional (atomic-mode) warm-up per thread applied when
/// a [`Simulation`] is built ([`WarmState::new`]): trains branch predictors
/// and warms caches before the timed run, standing in for the paper's
/// 100M-instruction warm-up.
pub const DEFAULT_FUNCTIONAL_WARMUP: u64 = 100_000;

/// Error returned when a benchmark name is not in the suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBenchmark(pub String);

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark `{}`", self.0)
    }
}

impl std::error::Error for UnknownBenchmark {}

/// How a measured run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// A fixed-cycle measurement window ran to its end ([`Simulation::run`]).
    FixedWindow,
    /// Every thread reached its per-thread commit target
    /// ([`Simulation::run_until_committed`]).
    CommitTarget,
    /// `max_cycles` expired before every thread reached its commit target:
    /// the results cover only the measured prefix and equal-work
    /// comparisons against them are suspect.
    MaxCyclesExpired,
}

impl Completion {
    /// True when the run ended early and the results are partial.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Completion::MaxCyclesExpired)
    }

    /// Stable lowercase tag (journal/JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            Completion::FixedWindow => "fixed-window",
            Completion::CommitTarget => "commit-target",
            Completion::MaxCyclesExpired => "max-cycles-expired",
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reproducibility metadata stamped into every [`RunResult`]: enough to
/// rebuild the exact simulation that produced it (the benchmark mix, the
/// workload seed, and a fingerprint of the full configuration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Workload seed passed to [`Simulation::new`].
    pub seed: u64,
    /// Benchmark name of each thread, in thread order.
    pub benchmarks: Vec<String>,
    /// [`CoreConfig::stable_hash`] of the configuration.
    pub config_hash: u64,
}

/// Forward-progress watchdog: if no thread commits an instruction for
/// `window` consecutive driver cycles, the run is aborted with a
/// [`SimError::Deadlock`] carrying an occupancy snapshot, instead of
/// spinning until `max_cycles`/`measure_cycles` burn out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    /// Abort after this many consecutive cycles without a commit.
    pub window: u64,
}

impl Watchdog {
    /// A watchdog with the given no-commit window (cycles).
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "watchdog window must be nonzero");
        Watchdog { window }
    }
}

/// Diagnosis attached to a watchdog abort: where the pipeline was wedged.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Driver cycle (since construction) at which the watchdog fired.
    pub cycle: u64,
    /// The configured no-commit window.
    pub window: u64,
    /// Last driver cycle on which any thread committed.
    pub last_progress_cycle: u64,
    /// Shared-IQ occupancy at abort.
    pub iq: usize,
    /// Per-thread structure occupancy at abort.
    pub threads: Vec<ThreadOccupancy>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no thread committed for {} cycles (cycle {}, last progress at {}); iq={}",
            self.window, self.cycle, self.last_progress_cycle, self.iq
        )?;
        for t in &self.threads {
            write!(
                f,
                "; t{}: committed={} rob={} lq={} sq={} shelf={} window={} frontend={}",
                t.thread, t.committed, t.rob, t.lq, t.sq, t.shelf, t.window, t.frontend
            )?;
        }
        Ok(())
    }
}

/// Non-panicking failure of a simulation run (the `try_` API surface).
#[derive(Clone, Debug)]
pub enum SimError {
    /// The forward-progress watchdog fired: the pipeline stopped committing.
    Deadlock(DeadlockReport),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "deadlock: {d}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-thread results over the measured window.
#[derive(Clone, Debug)]
pub struct ThreadResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Instructions committed during the measured window.
    pub committed: u64,
    /// Cycles per committed instruction over the measured window.
    pub cpi: f64,
    /// Fraction of committed instructions classified in-sequence.
    pub in_sequence_fraction: f64,
    /// Mis-steer rate vs. the shadow oracle (practical steering runs).
    pub missteer_rate: f64,
    /// Branch mispredict ratio over the whole run.
    pub branch_mispredict_ratio: f64,
    /// Commit-order series lengths of in-sequence instructions (whole run).
    pub in_sequence_series: WeightedCdf,
    /// Commit-order series lengths of reordered instructions (whole run).
    pub reordered_series: WeightedCdf,
}

/// Results of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Measured cycles.
    pub cycles: u64,
    /// Per-thread results.
    pub threads: Vec<ThreadResult>,
    /// Event counters over the measured window (energy-model input).
    pub counters: Counters,
    /// L1I counters over the measured window.
    pub l1i: CacheStats,
    /// L1D counters over the measured window.
    pub l1d: CacheStats,
    /// L2 counters over the measured window.
    pub l2: CacheStats,
    /// SSR-safety self-check (must be 0; see `Core::late_shelf_commits`).
    pub late_shelf_commits: u64,
    /// How the measurement ended (whether a commit target was reached or
    /// `max_cycles` truncated the run).
    pub completion: Completion,
    /// Reproducibility metadata (seed, benchmarks, config fingerprint).
    pub meta: RunMeta,
}

impl RunResult {
    /// Per-thread CPIs in thread order.
    pub fn cpis(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.cpi).collect()
    }

    /// Aggregate committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        let committed: u64 = self.threads.iter().map(|t| t.committed).sum();
        if self.cycles == 0 {
            0.0
        } else {
            committed as f64 / self.cycles as f64
        }
    }

    /// Mean in-sequence fraction across threads.
    pub fn mean_in_sequence_fraction(&self) -> f64 {
        let n = self.threads.len() as f64;
        self.threads
            .iter()
            .map(|t| t.in_sequence_fraction)
            .sum::<f64>()
            / n
    }
}

/// Cumulative statistics at the start of the measured region, subtracted
/// from the end-of-run values so results cover the measured region only.
struct MeasureStart {
    committed: Vec<u64>,
    /// Per-thread `(in-sequence, reordered)` commit classification counts.
    class: Vec<(u64, u64)>,
    /// Per-thread branch-predictor `(lookups, mispredicts)`.
    bpred: Vec<(u64, u64)>,
    l1i: CacheStats,
    l1d: CacheStats,
    l2: CacheStats,
}

fn cache_delta(now: &CacheStats, then: &CacheStats) -> CacheStats {
    CacheStats {
        accesses: now.accesses - then.accesses,
        hits: now.hits - then.hits,
        writebacks: now.writebacks - then.writebacks,
    }
}

/// A configured simulation of one core and its workload mix.
pub struct Simulation {
    core: Core,
    names: Vec<String>,
    meta: RunMeta,
    /// Driver cycles issued so far (warm-up + measurement, across calls).
    driven: u64,
    /// Injected stall windows `(start, duration)` in driver cycles: while
    /// inside a window the driver burns the cycle without ticking the core,
    /// so no thread makes progress. Fault-injection hook for testing the
    /// watchdog and campaign harness (see [`Simulation::inject_stall`]).
    stalls: Vec<(u64, u64)>,
}

/// The program-build seed [`Simulation::new`] derives for hardware thread
/// `thread` from the run seed. Exposed so static analysis (campaign
/// pre-flight) can reconstruct the *exact* per-thread programs a run will
/// execute without building the simulation.
pub fn thread_program_seed(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64) << 8
}

/// Internal watchdog bookkeeping for the `try_` run loops.
struct WatchdogState {
    window: u64,
    last_total: u64,
    last_progress_cycle: u64,
}

impl Simulation {
    /// Builds a simulation from benchmark profiles (one per thread).
    ///
    /// # Panics
    ///
    /// Panics if the profile count does not match `cfg.threads`.
    pub fn new(cfg: CoreConfig, profiles: &[&BenchmarkProfile], seed: u64) -> Self {
        assert_eq!(profiles.len(), cfg.threads, "one benchmark per thread");
        let programs: Vec<(String, Program)> = profiles
            .iter()
            .enumerate()
            .map(|(t, p)| {
                (
                    p.name.to_owned(),
                    p.build_program(thread_program_seed(seed, t)),
                )
            })
            .collect();
        Self::from_programs(cfg, programs, seed)
    }

    /// Builds a simulation from pre-built programs, one `(benchmark name,
    /// program)` pair per thread. Callers that run many simulations over a
    /// repeating workload set (the campaign worker pool) memoize
    /// `build_program` results and feed them in here, skipping the
    /// per-run program-generation cost. The programs must be exactly what
    /// `profile.build_program(thread_program_seed(seed, t))` would produce
    /// for the paired names, or results stop matching their run keys.
    ///
    /// # Panics
    ///
    /// Panics if the program count does not match `cfg.threads`.
    pub fn from_programs(cfg: CoreConfig, programs: Vec<(String, Program)>, seed: u64) -> Self {
        let (names, programs): (Vec<String>, Vec<Program>) = programs.into_iter().unzip();
        let warm = WarmState::new(&cfg, programs);
        Self::from_warm(cfg, warm, names, seed)
    }

    /// Builds a simulation around an already warmed state (one built by
    /// [`WarmState::new`], or a clone of one): callers that run many design
    /// points over the same mix (the campaign worker pool) warm once and
    /// reuse the state, which is design-independent (see
    /// [`crate::WarmKey`]). `names` are the per-thread benchmark names and
    /// `seed` the workload seed the state's programs were built from;
    /// both feed [`RunMeta`].
    ///
    /// # Panics
    ///
    /// Panics if `warm` does not fit `cfg` (see [`Core::from_warm`]) or the
    /// name count does not match `cfg.threads`.
    pub fn from_warm(cfg: CoreConfig, warm: WarmState, names: Vec<String>, seed: u64) -> Self {
        assert_eq!(names.len(), cfg.threads, "one benchmark name per thread");
        let meta = RunMeta {
            seed,
            benchmarks: names.clone(),
            config_hash: cfg.stable_hash(),
        };
        Simulation {
            core: Core::from_warm(cfg, warm),
            names,
            meta,
            driven: 0,
            stalls: Vec::new(),
        }
    }

    /// Builds a simulation from benchmark names.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBenchmark`] for names not in the suite.
    pub fn from_names(
        cfg: CoreConfig,
        names: &[&str],
        seed: u64,
    ) -> Result<Self, UnknownBenchmark> {
        let profiles: Vec<&BenchmarkProfile> = names
            .iter()
            .map(|&n| suite::by_name(n).ok_or_else(|| UnknownBenchmark(n.to_owned())))
            .collect::<Result<_, _>>()?;
        Ok(Self::new(cfg, &profiles, seed))
    }

    /// Access to the underlying core (e.g., for invariant checks in tests).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Reproducibility metadata for this simulation (also stamped into
    /// every [`RunResult`] it produces).
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Injects an artificial stall: for `duration` driver cycles starting at
    /// driver cycle `at` (counted from construction, across warm-up and
    /// measurement), the driver burns cycles without ticking the core, so no
    /// thread commits. Deterministic fault-injection hook: a stall shorter
    /// than a watchdog window models a slow-but-recovering run; a stall of
    /// `u64::MAX` models a livelock the watchdog must abort.
    pub fn inject_stall(&mut self, at: u64, duration: u64) {
        self.stalls.push((at, duration));
    }

    /// One driver cycle: either a real core tick or a burned (stalled)
    /// cycle inside an injected stall window.
    fn advance(&mut self) {
        let c = self.driven;
        self.driven += 1;
        if self.stalls.iter().any(|&(s, d)| c >= s && c - s < d) {
            return;
        }
        self.core.tick();
    }

    /// Advances up to `budget` driver cycles as one bounded block: cycles
    /// inside an injected stall window burn without ticking the core, and
    /// clean stretches are handed to [`Core::tick_bounded`], which may
    /// fast-forward provably idle spans. Blocks never straddle a stall
    /// window boundary, so stall semantics are bit-identical to the
    /// cycle-by-cycle driver. Returns the cycles advanced (at least 1).
    fn advance_bounded(&mut self, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        let c = self.driven;
        // Inside a stall window: burn up to its end (the farthest end among
        // covering windows — every cycle in that range is stalled).
        if let Some(end) = self
            .stalls
            .iter()
            .filter(|&&(s, d)| c >= s && c - s < d)
            .map(|&(s, d)| s.saturating_add(d))
            .max()
        {
            let burn = budget.min(end - c);
            self.driven += burn;
            return burn;
        }
        // Clean: run the core until the next stall window opens.
        let until = self
            .stalls
            .iter()
            .map(|&(s, _)| s)
            .filter(|&s| s > c)
            .min()
            .unwrap_or(u64::MAX);
        let run = budget.min(until - c);
        self.driven += run;
        self.core.tick_bounded(run);
        run
    }

    /// Drives exactly `cycles` driver cycles in bounded blocks, checking
    /// the watchdog at block boundaries. Blocks are capped at the watchdog
    /// deadline (`last_progress_cycle + window`), so a run that stops
    /// retiring instructions is diagnosed at the same driver cycle as under
    /// the cycle-by-cycle driver — even when the skip engine is jumping the
    /// core over MSHR-fill deadlines inside a block.
    fn drive(&mut self, cycles: u64, wd: &mut Option<WatchdogState>) -> Result<(), SimError> {
        let end = self.driven + cycles;
        while self.driven < end {
            let mut budget = end - self.driven;
            if let Some(state) = wd.as_ref() {
                let deadline = state.last_progress_cycle + state.window;
                budget = budget.min(deadline.saturating_sub(self.driven)).max(1);
            }
            self.advance_bounded(budget);
            if let Some(state) = wd.as_mut() {
                self.watchdog_check(state)?;
            }
        }
        Ok(())
    }

    /// Total instructions committed across all threads (whole run).
    fn total_committed(&self) -> u64 {
        (0..self.names.len()).map(|t| self.core.committed(t)).sum()
    }

    fn watchdog_state(&self, watchdog: Option<Watchdog>) -> Option<WatchdogState> {
        watchdog.map(|w| WatchdogState {
            window: w.window,
            last_total: self.total_committed(),
            last_progress_cycle: self.driven,
        })
    }

    /// Updates `state` after one driver cycle; returns the deadlock report
    /// if the no-commit window has been exceeded.
    fn watchdog_check(&self, state: &mut WatchdogState) -> Result<(), SimError> {
        let total = self.total_committed();
        if total != state.last_total {
            state.last_total = total;
            state.last_progress_cycle = self.driven;
        } else if self.driven - state.last_progress_cycle >= state.window {
            return Err(SimError::Deadlock(DeadlockReport {
                cycle: self.driven,
                window: state.window,
                last_progress_cycle: state.last_progress_cycle,
                iq: self.core.iq_len(),
                threads: self.core.thread_occupancy(),
            }));
        }
        Ok(())
    }

    /// Enables the commit observer (see [`Core::enable_commit_observer`]):
    /// every correct-path commit is queued as a
    /// [`crate::pipeline::CommitEvent`] until drained.
    pub fn enable_commit_observer(&mut self) {
        self.core.enable_commit_observer();
    }

    /// Drains queued commit-observer events into `out` (see
    /// [`Core::drain_commit_events`]).
    pub fn drain_commit_events(&mut self, out: &mut Vec<crate::pipeline::CommitEvent>) {
        self.core.drain_commit_events(out);
    }

    /// Enables pipeline tracing: lifecycle records, occupancy samples (one
    /// every `sample_every` cycles), and per-thread stall attribution, each
    /// bounded by `window` (see [`shelfsim_trace::Tracer`]). The tracer is
    /// reset at the warm-up/measurement boundary of [`Simulation::run`] and
    /// [`Simulation::run_until_committed`], so exports cover the measured
    /// region only.
    pub fn enable_tracer(&mut self, window: usize, sample_every: u64) {
        self.core.enable_tracer(window, sample_every);
    }

    /// The pipeline tracer, if enabled.
    pub fn tracer(&self) -> Option<&shelfsim_trace::Tracer> {
        self.core.tracer()
    }

    /// Runtime toggle for event-driven cycle skipping in the fixed-window
    /// drivers (see [`Core::set_cycle_skipping`]). On by default; results
    /// are bit-identical either way.
    pub fn set_cycle_skipping(&mut self, on: bool) {
        self.core.set_cycle_skipping(on);
    }

    /// Cycle-skip accounting for this simulation's core.
    pub fn skip_stats(&self) -> &crate::skip::SkipStats {
        self.core.skip_stats()
    }

    /// Alternative measurement: after `warmup_cycles`, runs until every
    /// thread has committed at least `insts_per_thread` instructions (or
    /// `max_cycles` measured cycles elapse) and returns the results over the
    /// measured region. Useful for equal-work comparisons across designs.
    ///
    /// The result's [`RunResult::completion`] records whether the commit
    /// target was actually reached ([`Completion::CommitTarget`]) or
    /// `max_cycles` expired first ([`Completion::MaxCyclesExpired`]) — the
    /// latter used to be silent truncation.
    pub fn run_until_committed(
        &mut self,
        warmup_cycles: u64,
        insts_per_thread: u64,
        max_cycles: u64,
    ) -> RunResult {
        self.try_run_until_committed(warmup_cycles, insts_per_thread, max_cycles, None)
            .expect("infallible without a watchdog")
    }

    /// Non-panicking variant of [`Simulation::run_until_committed`] with an
    /// optional forward-progress [`Watchdog`] (active during warm-up and
    /// measurement).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the watchdog window elapses with no
    /// thread committing.
    pub fn try_run_until_committed(
        &mut self,
        warmup_cycles: u64,
        insts_per_thread: u64,
        max_cycles: u64,
        watchdog: Option<Watchdog>,
    ) -> Result<RunResult, SimError> {
        let mut wd = self.watchdog_state(watchdog);
        self.drive(warmup_cycles, &mut wd)?;
        let start = self.begin_measurement();

        let mut measured = 0u64;
        let mut completion = Completion::MaxCyclesExpired;
        // Cycle-by-cycle on purpose: the commit target must be detected at
        // the exact crossing cycle, and a bounded block can only observe it
        // at block granularity. Equal-work runs keep the plain driver.
        while measured < max_cycles {
            self.advance();
            measured += 1;
            if let Some(state) = wd.as_mut() {
                self.watchdog_check(state)?;
            }
            if (0..self.names.len())
                .all(|t| self.core.committed(t) - start.committed[t] >= insts_per_thread)
            {
                completion = Completion::CommitTarget;
                break;
            }
        }
        self.core.finish_classification();
        Ok(self.collect(measured, completion, &start))
    }

    /// Warms the core for `warmup_cycles`, then measures `measure_cycles`
    /// and returns the results.
    pub fn run(&mut self, warmup_cycles: u64, measure_cycles: u64) -> RunResult {
        self.try_run(warmup_cycles, measure_cycles, None)
            .expect("infallible without a watchdog")
    }

    /// Non-panicking variant of [`Simulation::run`] with an optional
    /// forward-progress [`Watchdog`] (active during warm-up and
    /// measurement): a wedged pipeline aborts with a diagnosis instead of
    /// burning the whole measurement window committing nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the watchdog window elapses with no
    /// thread committing.
    pub fn try_run(
        &mut self,
        warmup_cycles: u64,
        measure_cycles: u64,
        watchdog: Option<Watchdog>,
    ) -> Result<RunResult, SimError> {
        let mut wd = self.watchdog_state(watchdog);
        self.drive(warmup_cycles, &mut wd)?;
        let start = self.begin_measurement();
        self.drive(measure_cycles, &mut wd)?;
        self.core.finish_classification();
        Ok(self.collect(measure_cycles, Completion::FixedWindow, &start))
    }

    /// Opens the measured region: snapshots the cumulative per-thread and
    /// cache statistics that [`Simulation::collect`] reports as deltas,
    /// then zeroes the counters and resets the tracer.
    fn begin_measurement(&mut self) -> MeasureStart {
        let threads = 0..self.names.len();
        let start = MeasureStart {
            committed: threads.clone().map(|t| self.core.committed(t)).collect(),
            class: threads
                .clone()
                .map(|t| {
                    let c = self.core.classifier(t);
                    (c.committed_in_sequence, c.committed_reordered)
                })
                .collect(),
            bpred: threads.map(|t| self.core.bpred_counts(t)).collect(),
            l1i: *self.core.hierarchy().l1i_stats(),
            l1d: *self.core.hierarchy().l1d_stats(),
            l2: *self.core.hierarchy().l2_stats(),
        };
        self.core.counters = Counters::new();
        if let Some(tracer) = self.core.tracer_mut() {
            tracer.reset();
        }
        start
    }

    fn collect(&self, measured: u64, completion: Completion, start: &MeasureStart) -> RunResult {
        let threads = (0..self.names.len())
            .map(|t| {
                let committed = self.core.committed(t) - start.committed[t];
                let c = self.core.classifier(t);
                let in_seq = c.committed_in_sequence - start.class[t].0;
                let reordered = c.committed_reordered - start.class[t].1;
                let total = in_seq + reordered;
                ThreadResult {
                    benchmark: self.names[t].clone(),
                    committed,
                    cpi: if committed == 0 {
                        f64::INFINITY
                    } else {
                        measured as f64 / committed as f64
                    },
                    in_sequence_fraction: if total == 0 {
                        0.0
                    } else {
                        in_seq as f64 / total as f64
                    },
                    missteer_rate: self.core.missteer_rate(t),
                    branch_mispredict_ratio: {
                        let (l, m) = self.core.bpred_counts(t);
                        let (dl, dm) = (l - start.bpred[t].0, m - start.bpred[t].1);
                        if dl == 0 {
                            0.0
                        } else {
                            dm as f64 / dl as f64
                        }
                    },
                    in_sequence_series: c.in_sequence_series.clone(),
                    reordered_series: c.reordered_series.clone(),
                }
            })
            .collect();

        RunResult {
            cycles: measured,
            threads,
            counters: self.core.counters.clone(),
            l1i: cache_delta(self.core.hierarchy().l1i_stats(), &start.l1i),
            l1d: cache_delta(self.core.hierarchy().l1d_stats(), &start.l1d),
            l2: cache_delta(self.core.hierarchy().l2_stats(), &start.l2),
            late_shelf_commits: self.core.late_shelf_commits(),
            completion,
            meta: self.meta.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SteerPolicy;

    #[test]
    fn unknown_benchmark_is_an_error() {
        let cfg = CoreConfig::base64(1);
        let err = match Simulation::from_names(cfg, &["nope"], 0) {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert_eq!(err, UnknownBenchmark("nope".to_owned()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn single_thread_run_commits_instructions() {
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        let r = sim.run(300, 3_000);
        assert!(
            r.counters.committed > 500,
            "committed {}",
            r.counters.committed
        );
        assert!(r.threads[0].cpi.is_finite());
        assert!(r.threads[0].cpi > 0.2, "cpi {}", r.threads[0].cpi);
        assert_eq!(r.late_shelf_commits, 0);
    }

    #[test]
    fn four_thread_smt_run() {
        let cfg = CoreConfig::base64(4);
        let mut sim = Simulation::from_names(cfg, &["gcc", "mcf", "hmmer", "lbm"], 1).unwrap();
        let r = sim.run(300, 3_000);
        for t in &r.threads {
            assert!(t.committed > 0, "{} made no progress", t.benchmark);
        }
        assert_eq!(r.late_shelf_commits, 0);
    }

    #[test]
    fn shelf_config_runs_and_uses_the_shelf() {
        let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
        let mut sim = Simulation::from_names(cfg, &["gcc", "milc"], 2).unwrap();
        let r = sim.run(300, 3_000);
        assert!(
            r.counters.dispatched_shelf > 0,
            "practical steering never used the shelf"
        );
        assert!(r.counters.issued_shelf > 0);
        assert_eq!(r.late_shelf_commits, 0);
    }

    #[test]
    fn always_shelf_approximates_in_order() {
        // On high-ILP code the OOO baseline must clearly beat the all-shelf
        // (in-order) machine. (On chain-serial benchmarks the two can be
        // close, and the in-order machine may even edge ahead thanks to its
        // near-absence of wrong-path cache pollution.)
        let base = CoreConfig::base64(1);
        let mut sim_ooo = Simulation::from_names(base, &["hmmer"], 5).unwrap();
        let ooo = sim_ooo.run(2_000, 8_000);
        let ino_cfg = CoreConfig::base64_shelf64(1, SteerPolicy::AlwaysShelf, true);
        let mut sim_ino = Simulation::from_names(ino_cfg, &["hmmer"], 5).unwrap();
        let ino = sim_ino.run(2_000, 8_000);
        assert!(
            ino.threads[0].cpi > ooo.threads[0].cpi * 1.2,
            "OOO ({}) should clearly beat in-order ({}) on high-ILP code",
            ooo.threads[0].cpi,
            ino.threads[0].cpi
        );
        assert_eq!(ino.late_shelf_commits, 0);
    }

    #[test]
    fn fixed_window_completion_and_meta() {
        let cfg = CoreConfig::base64(1);
        let hash = cfg.stable_hash();
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        let r = sim.run(300, 2_000);
        assert_eq!(r.completion, Completion::FixedWindow);
        assert!(!r.completion.is_truncated());
        assert_eq!(r.meta.seed, 3);
        assert_eq!(r.meta.benchmarks, vec!["hmmer".to_owned()]);
        assert_eq!(r.meta.config_hash, hash);
    }

    #[test]
    fn config_hash_distinguishes_designs() {
        let a = CoreConfig::base64(2).stable_hash();
        let b = CoreConfig::base128(2).stable_hash();
        let a2 = CoreConfig::base64(2).stable_hash();
        assert_eq!(a, a2, "equal configs hash equal");
        assert_ne!(a, b, "different designs hash differently");
    }

    #[test]
    fn run_until_committed_records_truncation() {
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg.clone(), &["hmmer"], 3).unwrap();
        // An impossible target within 100 cycles: must report truncation.
        let r = sim.run_until_committed(200, 1_000_000, 100);
        assert_eq!(r.completion, Completion::MaxCyclesExpired);
        assert!(r.completion.is_truncated());
        // A tiny target with generous budget: must report target reached.
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        let r = sim.run_until_committed(200, 50, 50_000);
        assert_eq!(r.completion, Completion::CommitTarget);
        assert!(r.threads[0].committed >= 50);
    }

    #[test]
    fn watchdog_aborts_injected_livelock_within_window() {
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        // From driver cycle 500 on, the pipeline never commits again.
        sim.inject_stall(500, u64::MAX);
        let err = sim
            .try_run(200, 50_000, Some(Watchdog::new(400)))
            .expect_err("watchdog should fire");
        let SimError::Deadlock(d) = err;
        assert_eq!(d.window, 400);
        assert!(
            d.cycle <= 500 + 400 + 1,
            "fired at {} — should abort within one window of the stall",
            d.cycle
        );
        assert_eq!(d.threads.len(), 1);
        assert!(d.to_string().contains("rob="), "diagnosis: {d}");
    }

    #[test]
    fn watchdog_tolerates_slow_but_progressing_runs() {
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        // Three separate 200-cycle stalls: slow, but progress resumes well
        // inside the 400-cycle window each time.
        sim.inject_stall(400, 200);
        sim.inject_stall(900, 200);
        sim.inject_stall(1_400, 200);
        let r = sim
            .try_run(200, 3_000, Some(Watchdog::new(400)))
            .expect("progressing run must not trip the watchdog");
        assert!(r.counters.committed > 0);
    }

    #[test]
    fn watchdog_covers_the_warmup_loop() {
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg, &["hmmer"], 3).unwrap();
        sim.inject_stall(0, u64::MAX);
        let err = sim
            .try_run(10_000, 1_000, Some(Watchdog::new(300)))
            .expect_err("warm-up livelock should abort");
        let SimError::Deadlock(d) = err;
        assert!(d.cycle <= 301, "fired at {}", d.cycle);
    }

    #[test]
    fn watchdog_diagnoses_livelock_with_cycle_skipping_engaged() {
        // The skip engine jumps a memory-bound core across MSHR-fill
        // deadlines; the driver must still diagnose a deadlock within one
        // watchdog window of the last retired instruction. Blocks are
        // capped at stall boundaries, so the conservative last-progress
        // cycle is at most the stall start (2000) and the watchdog must
        // fire by 2000 + window.
        let cfg = CoreConfig::base64(1);
        let mut sim = Simulation::from_names(cfg, &["mcf"], 3).unwrap();
        assert!(sim.core().cycle_skipping(), "skipping defaults on");
        sim.inject_stall(2_000, u64::MAX);
        let err = sim
            .try_run(200, 50_000, Some(Watchdog::new(400)))
            .expect_err("watchdog should fire");
        let SimError::Deadlock(d) = err;
        assert!(
            d.cycle <= 2_000 + 400,
            "fired at {} — must abort within one window of the stall",
            d.cycle
        );
        assert!(
            sim.skip_stats().skipped_cycles > 0,
            "memory-bound run should have exercised the skip engine"
        );
    }

    #[test]
    fn skipping_and_plain_drivers_produce_identical_results() {
        let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, true);
        let mut plain = Simulation::from_names(cfg.clone(), &["mcf", "lbm"], 7).unwrap();
        plain.set_cycle_skipping(false);
        let rp = plain.run(500, 8_000);

        let mut skip = Simulation::from_names(cfg, &["mcf", "lbm"], 7).unwrap();
        let rs = skip.run(500, 8_000);
        assert!(
            skip.skip_stats().skipped_cycles > 0,
            "memory-bound mix should skip"
        );
        assert_eq!(rp.counters, rs.counters, "driver results diverged");
        for (a, b) in rp.threads.iter().zip(&rs.threads) {
            assert_eq!(a.committed, b.committed);
            assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
        }
    }

    #[test]
    fn deterministic_replay() {
        let cfg = CoreConfig::base64_shelf64(2, SteerPolicy::Practical, false);
        let r1 = Simulation::from_names(cfg.clone(), &["astar", "sjeng"], 9)
            .unwrap()
            .run(200, 2_000);
        let r2 = Simulation::from_names(cfg, &["astar", "sjeng"], 9)
            .unwrap()
            .run(200, 2_000);
        assert_eq!(r1.counters, r2.counters);
        assert_eq!(r1.threads[0].committed, r2.threads[0].committed);
    }
}
