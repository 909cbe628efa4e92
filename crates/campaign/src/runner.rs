//! The campaign executor: a worker pool that runs the job matrix with
//! per-run `catch_unwind` isolation, a forward-progress watchdog, bounded
//! retry with diagnostics escalation, quarantine, and journal-backed
//! resume.

use crate::cache::ResultCache;
use crate::fault::FaultKind;
use crate::journal::{JournalEntry, ShardWriter, ShardedJournal};
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, RunSpec};
use shelfsim_analyze::ProgramFacts;
use shelfsim_core::{Completion, CoreConfig, SimError, Simulation, WarmKey, WarmState, Watchdog};
use shelfsim_workload::Program;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Per-worker scratch reused across runs (arena-style): memoizes
/// `build_program` results keyed by `(benchmark, program seed)`, with each
/// program's pre-flight [`ProgramFacts`] once a pre-flight has read them,
/// and keeps the last warmed state under its [`WarmKey`]. A sweep matrix
/// re-runs the same mixes against every design point, and a single run
/// reads its programs up to three times (pre-flight, validation tier,
/// attempt) — the memo collapses all of those to one generation and one
/// program analysis each. Memoized programs are shared (`Arc`) with the
/// warmed states built from them, never copied. The warm-up is
/// design-independent, so consecutive runs of one mix on different designs
/// clone the kept state instead of warming again; [`run_campaign`] orders
/// its runs to make such runs consecutive.
///
/// Inside [`run_campaign`] the worker tells the scratch which [`Schedule`]
/// unit it claims, and the scratch forgets every program (with its facts)
/// that no unit from there on needs, and the kept state; the last run of
/// each unit takes the kept state instead of a clone. A scratch from
/// [`WorkerScratch::new`] is never told and keeps everything.
#[derive(Default)]
pub struct WorkerScratch {
    programs: HashMap<(String, u64), MemoEntry>,
    warm: Option<(WarmKey, WarmState)>,
    /// The run being executed is the last of its unit: it takes the kept
    /// state, and a fresh state is not kept.
    hand_off: bool,
    /// Programs generated from scratch (memo misses).
    pub builds: usize,
    /// Programs served from the memo.
    pub hits: usize,
    /// Warm-ups run from scratch.
    pub warm_builds: usize,
    /// Runs started from the kept warmed state (a clone, or the state
    /// itself for the last run of its unit).
    pub warm_hits: usize,
    /// The most programs the memo has held at once.
    pub programs_held_peak: usize,
}

/// One memoized thread program and, after the first pre-flight that read
/// it, its pre-flight facts (so campaigns without a pre-flight never
/// analyse it).
struct MemoEntry {
    program: Arc<Program>,
    facts: Option<ProgramFacts>,
}

/// The memo keys `(benchmark, program seed)` of `spec`'s thread programs,
/// in thread order.
fn program_keys(spec: &RunSpec) -> impl Iterator<Item = (String, u64)> + '_ {
    spec.mix.iter().enumerate().map(|(t, name)| {
        (
            name.clone(),
            shelfsim_core::thread_program_seed(spec.seed, t),
        )
    })
}

impl WorkerScratch {
    /// A fresh scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares for `schedule`'s unit `unit` (past the last unit once the
    /// schedule is drained): forgets every memoized program that no unit
    /// from `unit` on needs, and the kept state, which no two units share.
    fn claim(&mut self, schedule: &Schedule, unit: usize) {
        self.programs
            .retain(|key, _| schedule.last_use.get(key).is_some_and(|&last| last >= unit));
        self.warm = None;
    }

    /// The memo entry of thread program `key`, built on a miss. Errors as
    /// [`WorkerScratch::programs_for`] does.
    fn entry(&mut self, key: (String, u64)) -> Result<&mut MemoEntry, String> {
        let held = self.programs.len();
        match self.programs.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Ok(e.into_mut())
            }
            Entry::Vacant(e) => {
                let (name, seed) = e.key();
                let profile = shelfsim_workload::suite::by_name(name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                let program = Arc::new(profile.build_program(*seed));
                self.builds += 1;
                self.programs_held_peak = self.programs_held_peak.max(held + 1);
                Ok(e.insert(MemoEntry {
                    program,
                    facts: None,
                }))
            }
        }
    }

    /// The memoized programs of `spec`'s threads, shared with the memo.
    /// Errors as [`WorkerScratch::programs_for`] does.
    fn shared_programs(&mut self, spec: &RunSpec) -> Result<Vec<Arc<Program>>, String> {
        program_keys(spec)
            .map(|key| Ok(Arc::clone(&self.entry(key)?.program)))
            .collect()
    }

    /// The exact per-thread `(name, program)` pairs `spec` simulates,
    /// memoized. Errors with the unknown benchmark's message (the same
    /// text `Simulation::from_names` produces, so the `Config` failure
    /// taxonomy is unchanged).
    pub fn programs_for(&mut self, spec: &RunSpec) -> Result<Vec<(String, Program)>, String> {
        let programs = self.shared_programs(spec)?;
        Ok(spec
            .mix
            .iter()
            .cloned()
            .zip(programs.iter().map(|p| Program::clone(p)))
            .collect())
    }

    /// The pre-flight facts of each of `spec`'s thread programs, derived
    /// on first use and kept with the memoized program. Errors as
    /// [`WorkerScratch::programs_for`] does.
    fn facts_for(&mut self, spec: &RunSpec) -> Result<Vec<&ProgramFacts>, String> {
        let keys: Vec<(String, u64)> = program_keys(spec).collect();
        for key in &keys {
            let entry = self.entry(key.clone())?;
            entry
                .facts
                .get_or_insert_with(|| ProgramFacts::new(&entry.program));
        }
        Ok(keys
            .iter()
            .map(|key| self.programs[key].facts.as_ref().expect("derived above"))
            .collect())
    }

    /// The warmed state `spec` starts from on `cfg` (its resolved config):
    /// the kept state when the [`WarmKey`] matches, otherwise a fresh
    /// [`WarmState::new`] over the memoized programs, which then replaces
    /// the kept one. The kept state is cloned, unless `spec` is the last
    /// run of its campaign unit: that run takes the state itself, and a
    /// fresh state for such a run is not kept. Errors as
    /// [`WorkerScratch::programs_for`] does.
    pub fn warm_for(&mut self, spec: &RunSpec, cfg: &CoreConfig) -> Result<WarmState, String> {
        let key = WarmKey::new(cfg, &spec.mix, spec.seed);
        if self.warm.as_ref().is_some_and(|(kept, _)| *kept == key) {
            self.warm_hits += 1;
            return Ok(if self.hand_off {
                self.warm.take().expect("checked above").1
            } else {
                self.warm.as_ref().expect("checked above").1.clone()
            });
        }
        // Drop the old state first: at most one is kept alive.
        self.warm = None;
        let programs = self.shared_programs(spec)?;
        let warm = WarmState::new(cfg, programs);
        self.warm_builds += 1;
        if !self.hand_off {
            self.warm = Some((key, warm.clone()));
        }
        Ok(warm)
    }
}

/// The warm-up key of `spec`, or `None` when its design does not resolve
/// (the run fails before any warm-up).
fn warm_key(spec: &RunSpec) -> Option<WarmKey> {
    let cfg = spec.resolved_config().ok()?;
    Some(WarmKey::new(&cfg, &spec.mix, spec.seed))
}

/// The one schedule of a campaign's pending runs: the units its workers
/// claim in order, and how long each thread program is needed.
///
/// A unit is one warm group — the runs that share a [`WarmKey`], which
/// share one mix and so need the same programs — or, when there are fewer
/// groups than workers, a contiguous piece of one, so that every worker
/// has a unit. A unit warms once: its first run warms, the later ones
/// start from the kept state. Workers claim units from a shared cursor,
/// and claims only move forward, so a worker that claims unit `u` may
/// forget every program whose last unit is below `u`.
pub struct Schedule {
    /// The units in claim order, as indices into the campaign's runs.
    units: Vec<Vec<usize>>,
    /// For each thread program `(benchmark, program seed)`, the index of
    /// the last unit that needs it.
    last_use: HashMap<(String, u64), usize>,
    /// Units whose runs resolve a design and so warm up.
    warmups: usize,
}

impl Schedule {
    /// The schedule of the `pending` runs (indices into `runs`) on
    /// `workers` workers. Groups are ordered so that few thread programs
    /// are live at once: a program is live from the first unit that needs
    /// it to the last, and a worker's memo holds at most the live ones.
    /// Each next group is the unplaced one with the smallest (programs it
    /// must newly build) − (programs whose last remaining use it is), ties
    /// going to the group whose first run comes first in `pending`; runs
    /// inside a group keep their `pending` order.
    pub fn new(runs: &[RunSpec], pending: &[usize], workers: usize) -> Self {
        // Groups in the order of their first run; a run without a key (its
        // design does not resolve) is a group of its own and never warms.
        let mut group_of: HashMap<WarmKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &i in pending {
            let g = warm_key(&runs[i]).map_or(groups.len(), |key| {
                *group_of.entry(key).or_insert(groups.len())
            });
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(i);
        }
        // How many unplaced runs need each program, overall and per group.
        let mut remaining: HashMap<(String, u64), usize> = HashMap::new();
        let needs: Vec<HashMap<(String, u64), usize>> = groups
            .iter()
            .map(|members| {
                let mut need = HashMap::new();
                for &i in members {
                    for key in program_keys(&runs[i]) {
                        *remaining.entry(key.clone()).or_insert(0) += 1;
                        *need.entry(key).or_insert(0) += 1;
                    }
                }
                need
            })
            .collect();
        // A group is cut into this many contiguous pieces (at most one per
        // run), so that every worker has a unit.
        let pieces = workers.div_ceil(groups.len().max(1)).max(1);
        let mut schedule = Schedule {
            units: Vec::new(),
            last_use: HashMap::new(),
            warmups: 0,
        };
        let mut live: HashSet<(String, u64)> = HashSet::new();
        let mut unplaced: Vec<usize> = (0..groups.len()).collect();
        while !unplaced.is_empty() {
            let growth = |g: usize| -> isize {
                needs[g]
                    .iter()
                    .map(|(key, &n)| {
                        isize::from(!live.contains(key)) - isize::from(remaining[key] == n)
                    })
                    .sum()
            };
            // `unplaced` stays in first-run order, so `min_by_key` keeps the
            // earliest of equal scores.
            let (pos, &g) = unplaced
                .iter()
                .enumerate()
                .min_by_key(|&(_, &g)| growth(g))
                .expect("not empty");
            unplaced.remove(pos);
            for (key, &n) in &needs[g] {
                let left = remaining.get_mut(key).expect("counted above");
                *left -= n;
                if *left == 0 {
                    live.remove(key);
                } else {
                    live.insert(key.clone());
                }
            }
            let members = &groups[g];
            let (n, k) = (members.len(), pieces.min(members.len()));
            let cut = (0..k).map(|p| members[p * n / k..(p + 1) * n / k].to_vec());
            schedule.units.extend(cut);
            let last = schedule.units.len() - 1;
            for key in needs[g].keys() {
                schedule.last_use.insert(key.clone(), last);
            }
        }
        schedule.warmups = schedule
            .units
            .iter()
            .filter(|unit| warm_key(&runs[unit[0]]).is_some())
            .count();
        schedule
    }

    /// Warm-ups the schedule runs: one per unit whose design resolves.
    pub fn warmups(&self) -> usize {
        self.warmups
    }
}

/// Final status of one campaign run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// A (possibly retried) attempt produced results.
    Ok,
    /// Every attempt failed; the run is excluded from aggregation.
    Quarantined,
    /// The static-analysis pre-flight rejected the run before any cycle
    /// was simulated (zero attempts consumed).
    Rejected,
}

impl RunStatus {
    /// Stable lowercase tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Quarantined => "quarantined",
            RunStatus::Rejected => "rejected",
        }
    }
}

/// Classified cause of a failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked (caught by the isolation boundary).
    Panic,
    /// The forward-progress watchdog fired.
    Deadlock,
    /// The run is unbuildable (unknown design or benchmark) — retrying
    /// cannot help, so it quarantines immediately.
    Config,
    /// The static-analysis pre-flight proved the run misconfigured
    /// (config-lint, program-lint, or resource-adequacy errors) before
    /// a single cycle was simulated.
    AnalysisRejected,
    /// The validation tier's lockstep comparison against the functional
    /// reference diverged (or violated a harness invariant), or the timing
    /// run failed the SSR-safety self-check (a squash found a shelf
    /// instruction that had already committed). Deterministic, so retrying
    /// cannot help — the run quarantines immediately.
    Divergence,
}

impl FailureKind {
    /// Stable lowercase tag (taxonomy key).
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Config => "config",
            FailureKind::AnalysisRejected => "analysis-rejected",
            FailureKind::Divergence => "divergence",
        }
    }
}

/// A structured record of one failed attempt: a self-contained reproducer
/// (design + mix + seed) plus the failure diagnosis.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// Benchmark mix label.
    pub bench: String,
    /// Design-point name.
    pub design: String,
    /// Workload seed.
    pub seed: u64,
    /// Driver cycle at which a deadlock was diagnosed (`None` for panics).
    pub cycle: Option<u64>,
    /// Failure classification.
    pub kind: FailureKind,
    /// The panic payload or deadlock diagnosis.
    pub panic_msg: String,
    /// Which attempt (0-based) failed.
    pub attempt: u32,
    /// Whether the attempt ran in the escalated diagnostics tier.
    pub diagnostics: bool,
}

/// Result numbers of a successful run (the aggregation inputs; the full
/// [`shelfsim_core::RunResult`] stays inside the worker).
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Aggregate IPC.
    pub ipc: f64,
    /// Measured cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// How the measurement ended.
    pub completion: Completion,
    /// Per-thread CPIs in mix order (the Pareto report's STP inputs;
    /// empty when restored from a pre-sweep journal).
    pub thread_cpi: Vec<f64>,
    /// Energy per committed instruction in nJ ([`shelfsim_energy`] model;
    /// 0.0 when restored from a pre-sweep journal).
    pub epi: f64,
    /// Energy-delay product (nJ/instr × CPI; 0.0 when restored from a
    /// pre-sweep journal).
    pub edp: f64,
}

/// Final record of one campaign run: status, attempt history, and outcome.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run that was executed.
    pub spec: RunSpec,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Every failed attempt, in order.
    pub failures: Vec<RunFailure>,
    /// The successful outcome (`None` when quarantined).
    pub outcome: Option<RunOutcome>,
    /// True when the record was restored from the journal instead of
    /// executed (resume).
    pub resumed: bool,
    /// True when the validation tier ran and the run validated clean
    /// against the functional reference.
    pub validated: bool,
}

impl RunRecord {
    fn from_journal(spec: RunSpec, entry: &JournalEntry) -> Self {
        let status = match entry.status.as_str() {
            "ok" => RunStatus::Ok,
            "rejected" => RunStatus::Rejected,
            _ => RunStatus::Quarantined,
        };
        let outcome = (status == RunStatus::Ok).then(|| RunOutcome {
            ipc: entry.ipc,
            cycles: entry.cycles,
            committed: entry.committed,
            completion: parse_completion(&entry.completion),
            thread_cpi: entry.thread_cpis(),
            epi: entry.epi,
            edp: entry.edp,
        });
        let failures = if entry.error.is_empty() {
            Vec::new()
        } else {
            vec![RunFailure {
                bench: spec.mix.join("+"),
                design: spec.design.clone(),
                seed: spec.seed,
                cycle: None,
                kind: match entry.error.as_str() {
                    "deadlock" => FailureKind::Deadlock,
                    "config" => FailureKind::Config,
                    "analysis-rejected" => FailureKind::AnalysisRejected,
                    "divergence" => FailureKind::Divergence,
                    _ => FailureKind::Panic,
                },
                panic_msg: entry.message.clone(),
                attempt: entry.attempts.saturating_sub(1),
                diagnostics: false,
            }]
        };
        RunRecord {
            spec,
            status,
            attempts: entry.attempts,
            failures,
            outcome,
            resumed: true,
            validated: entry.validated == "clean",
        }
    }

    /// Renders the record as its journal entry (also how journal-less
    /// surfaces hand records to the Pareto report).
    pub fn to_journal_entry(&self) -> JournalEntry {
        let last_failure = self.failures.last();
        JournalEntry {
            key: self.spec.key(),
            label: self.spec.label(),
            design: self.spec.design.clone(),
            threads: self.spec.mix.len(),
            seed: self.spec.seed,
            status: self.status.as_str().to_owned(),
            attempts: self.attempts,
            ipc: self.outcome.as_ref().map_or(0.0, |o| o.ipc),
            cycles: self.outcome.as_ref().map_or(0, |o| o.cycles),
            committed: self.outcome.as_ref().map_or(0, |o| o.committed),
            completion: self
                .outcome
                .as_ref()
                .map_or(String::new(), |o| o.completion.as_str().to_owned()),
            error: last_failure.map_or(String::new(), |f| f.kind.as_str().to_owned()),
            message: last_failure.map_or(String::new(), |f| f.panic_msg.clone()),
            validated: if self.validated {
                "clean".to_owned()
            } else {
                String::new()
            },
            mix: self.spec.mix.join("+"),
            tcpi: self.outcome.as_ref().map_or(String::new(), |o| {
                o.thread_cpi
                    .iter()
                    .map(|c| format!("{c:.6}"))
                    .collect::<Vec<_>>()
                    .join(",")
            }),
            epi: self.outcome.as_ref().map_or(0.0, |o| o.epi),
            edp: self.outcome.as_ref().map_or(0.0, |o| o.edp),
        }
    }
}

fn parse_completion(tag: &str) -> Completion {
    match tag {
        "commit-target" => Completion::CommitTarget,
        "max-cycles-expired" => Completion::MaxCyclesExpired,
        _ => Completion::FixedWindow,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Refcounted suppression of the default panic hook: while at least one
/// guard is alive, caught panics do not spew backtraces to stderr. The
/// previous hook is restored when the last guard drops.
struct QuietPanics {
    active: bool,
}

type Hook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send + 'static>;
static QUIET_DEPTH: Mutex<usize> = Mutex::new(0);
static PREV_HOOK: Mutex<Option<Hook>> = Mutex::new(None);

impl QuietPanics {
    fn new(enable: bool) -> Self {
        if enable {
            let mut depth = QUIET_DEPTH.lock().expect("hook registry");
            if *depth == 0 {
                *PREV_HOOK.lock().expect("hook registry") = Some(panic::take_hook());
                panic::set_hook(Box::new(|_| {}));
            }
            *depth += 1;
        }
        QuietPanics { active: enable }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if self.active {
            let mut depth = QUIET_DEPTH.lock().expect("hook registry");
            *depth -= 1;
            if *depth == 0 {
                if let Some(prev) = PREV_HOOK.lock().expect("hook registry").take() {
                    panic::set_hook(prev);
                }
            }
        }
    }
}

/// Validation-tier budget: committed instructions per thread compared in
/// lockstep against the functional reference before the timing run.
const VALIDATE_COMMITS: u64 = 1_000;
/// Validation-tier cycle ceiling (the harness reports a stuck core beyond
/// this).
const VALIDATE_MAX_CYCLES: u64 = 200_000;

/// The validation tier: lockstep-validates the exact config and per-thread
/// programs this run would simulate. Returns the failure on divergence or
/// an invariant violation (both deterministic — the caller skips retries).
fn validate_run(
    cfg: &shelfsim_core::CoreConfig,
    programs: Vec<Arc<Program>>,
    fail: &impl Fn(FailureKind, Option<u64>, String) -> RunFailure,
) -> Result<(), RunFailure> {
    let lcfg = shelfsim_validate::LockstepConfig {
        commits_per_thread: VALIDATE_COMMITS,
        max_cycles: VALIDATE_MAX_CYCLES,
        ..Default::default()
    };
    match shelfsim_validate::run_lockstep(cfg, programs, &lcfg) {
        shelfsim_validate::Verdict::Clean(_) => Ok(()),
        shelfsim_validate::Verdict::Diverged(d) => {
            Err(fail(FailureKind::Divergence, Some(d.cycle), d.to_string()))
        }
        shelfsim_validate::Verdict::Invariant(v) => {
            Err(fail(FailureKind::Divergence, None, v.to_string()))
        }
    }
}

/// Executes one attempt of one run inside the isolation boundary.
fn run_attempt(
    spec: &RunSpec,
    watchdog: Option<Watchdog>,
    fault: Option<FaultKind>,
    attempt: u32,
    trace_dir: Option<&std::path::Path>,
    validate: bool,
    scratch: &mut WorkerScratch,
) -> Result<RunOutcome, RunFailure> {
    let diagnostics = attempt > 0;
    let fail = |kind: FailureKind, cycle: Option<u64>, msg: String| RunFailure {
        bench: spec.mix.join("+"),
        design: spec.design.clone(),
        seed: spec.seed,
        cycle,
        kind,
        panic_msg: msg,
        attempt,
        diagnostics,
    };

    let isolated = panic::catch_unwind(AssertUnwindSafe(|| -> Result<RunOutcome, RunFailure> {
        if fault == Some(FaultKind::Panic) {
            panic!(
                "injected fault: panic (run #{}, attempt {attempt})",
                spec.index
            );
        }
        let cfg = spec
            .resolved_config()
            .map_err(|msg| fail(FailureKind::Config, None, msg))?;
        if validate {
            // Differential tier: the run's exact config and programs must
            // track the functional reference before the timing run counts.
            let programs = scratch
                .shared_programs(spec)
                .map_err(|msg| fail(FailureKind::Config, None, msg))?;
            validate_run(&cfg, programs, &fail)?;
        }
        let warm = scratch
            .warm_for(spec, &cfg)
            .map_err(|msg| fail(FailureKind::Config, None, msg))?;
        // The energy model depends only on the config; capture it before
        // `cfg` moves into the simulation.
        let energy = shelfsim_energy::EnergyModel::for_config(&cfg);
        let mut sim = Simulation::from_warm(cfg, warm, spec.mix.clone(), spec.seed);
        if diagnostics && trace_dir.is_some() {
            // Escalation tier: a full lifecycle trace, dumped below on a
            // diagnosed failure. (With `--features sanitize` every attempt
            // runs the per-cycle invariant audits.)
            sim.enable_tracer(256, 64);
        }
        match fault {
            Some(FaultKind::Stall) => {
                // A recoverable slowdown: strictly inside the watchdog
                // window, so a correct watchdog must NOT fire.
                let window = watchdog.map_or(1_000, |w| w.window);
                sim.inject_stall(spec.warmup / 2 + 1, window / 2);
            }
            Some(FaultKind::Livelock) => {
                // No thread ever commits again: the watchdog must abort.
                sim.inject_stall(spec.warmup / 2 + 1, u64::MAX);
            }
            _ => {}
        }
        match sim.try_run(spec.warmup, spec.measure, watchdog) {
            Ok(r) if r.late_shelf_commits > 0 => Err(fail(
                FailureKind::Divergence,
                None,
                format!(
                    "SSR safety self-check: {} late shelf commits (must be 0)",
                    r.late_shelf_commits
                ),
            )),
            Ok(r) => {
                let er = energy.report(&r);
                Ok(RunOutcome {
                    ipc: r.ipc(),
                    cycles: r.cycles,
                    committed: r.counters.committed,
                    completion: r.completion,
                    thread_cpi: r.cpis(),
                    epi: er.energy_per_instruction(),
                    edp: er.edp(),
                })
            }
            Err(SimError::Deadlock(d)) => {
                // Best-effort trace dump: the watchdog diagnosed the stall,
                // so the tracer (when escalated) still holds the window that
                // led up to it. A panic, by contrast, unwinds past `sim` —
                // nothing to dump there.
                if let (Some(dir), Some(tracer)) = (trace_dir, sim.tracer()) {
                    let _ = std::fs::create_dir_all(dir);
                    let path = dir.join(format!("{}-attempt{attempt}.jsonl", spec.key()));
                    let _ = std::fs::write(path, tracer.export_jsonl());
                }
                Err(fail(FailureKind::Deadlock, Some(d.cycle), d.to_string()))
            }
        }
    }));
    match isolated {
        Ok(inner) => inner,
        Err(payload) => Err(fail(FailureKind::Panic, None, panic_message(payload))),
    }
}

/// Static-analysis pre-flight over one queued run: lints the resolved
/// config and checks the memoized facts of the exact per-thread programs
/// the run would simulate ([`shelfsim_analyze::preflight_errors`], the
/// error verdict of [`shelfsim_analyze::preflight`]). Returns the rendered
/// error report when the run must be rejected; `None` to proceed
/// (including when the spec does not even resolve — the attempt path owns
/// that `Config` failure, with its established message).
fn preflight_check(spec: &RunSpec, scratch: &mut WorkerScratch) -> Option<String> {
    let cfg = spec.resolved_config().ok()?;
    let facts = scratch.facts_for(spec).ok()?;
    let report = shelfsim_analyze::preflight_errors(&cfg, &facts);
    report.has_errors().then(|| {
        let lines: Vec<String> = report.diagnostics().iter().map(|d| d.to_string()).collect();
        lines.join("; ")
    })
}

/// Executes one run to its final status: pre-flight rejection, or bounded
/// retries with diagnostics escalation, then quarantine.
fn execute(spec: &RunSpec, campaign: &CampaignSpec, scratch: &mut WorkerScratch) -> RunRecord {
    if campaign.preflight {
        if let Some(msg) = preflight_check(spec, scratch) {
            return RunRecord {
                spec: spec.clone(),
                status: RunStatus::Rejected,
                attempts: 0,
                failures: vec![RunFailure {
                    bench: spec.mix.join("+"),
                    design: spec.design.clone(),
                    seed: spec.seed,
                    cycle: None,
                    kind: FailureKind::AnalysisRejected,
                    panic_msg: msg,
                    attempt: 0,
                    diagnostics: false,
                }],
                outcome: None,
                resumed: false,
                validated: false,
            };
        }
    }
    let watchdog = campaign.watchdog.map(Watchdog::new);
    let mut failures = Vec::new();
    for attempt in 0..campaign.max_attempts.max(1) {
        let fault = campaign.faults.fault_for(spec.index, attempt);
        match run_attempt(
            spec,
            watchdog,
            fault,
            attempt,
            campaign.trace_dir.as_deref(),
            campaign.validate,
            scratch,
        ) {
            Ok(outcome) => {
                return RunRecord {
                    spec: spec.clone(),
                    status: RunStatus::Ok,
                    attempts: attempt + 1,
                    failures,
                    outcome: Some(outcome),
                    resumed: false,
                    validated: campaign.validate,
                }
            }
            Err(f) => {
                // Deterministic failures (unbuildable config, validation
                // divergence) cannot be fixed by retrying.
                let deterministic =
                    f.kind == FailureKind::Config || f.kind == FailureKind::Divergence;
                failures.push(f);
                if deterministic {
                    break;
                }
            }
        }
    }
    RunRecord {
        spec: spec.clone(),
        status: RunStatus::Quarantined,
        attempts: failures.len() as u32,
        failures,
        outcome: None,
        resumed: false,
        validated: false,
    }
}

/// One worker's share of a campaign: claims `schedule`'s units from the
/// shared cursor `next` until none is left, runs each unit's runs in order,
/// journals each record to the worker's own `shard` (no shared lock) and
/// collects it in `finished`. Returns the scratch, which by then holds no
/// program and no warmed state.
fn work(
    schedule: &Schedule,
    next: &AtomicUsize,
    spec: &CampaignSpec,
    mut scratch: WorkerScratch,
    mut shard: Option<ShardWriter>,
    finished: &Mutex<Vec<(usize, RunRecord)>>,
    io_error: &Mutex<Option<std::io::Error>>,
) -> WorkerScratch {
    loop {
        // The cursor publishes no data: the schedule is read-only and was
        // built before the workers started.
        let u = next.fetch_add(1, Ordering::Relaxed);
        scratch.claim(schedule, u);
        let Some(unit) = schedule.units.get(u) else {
            return scratch;
        };
        for (n, &i) in unit.iter().enumerate() {
            scratch.hand_off = n + 1 == unit.len();
            let record = execute(&spec.runs[i], spec, &mut scratch);
            if let Some(sw) = &mut shard {
                // The entry is buffered and flushed with one write per run
                // completion.
                sw.buffer(&record.to_journal_entry());
                if let Err(e) = sw.flush() {
                    io_error.lock().expect("io error slot").get_or_insert(e);
                }
            }
            finished.lock().expect("results").push((i, record));
        }
    }
}

/// Runs a campaign to completion: dedupes the matrix against the merged
/// journal history in `spec.journal_dir`, executes the cache misses on
/// `spec.workers` threads with per-run isolation, and returns the
/// aggregate report. Individual-run failure never aborts the campaign —
/// failed runs are retried, then quarantined, and the report carries
/// partial results plus the error taxonomy.
///
/// The misses run by their [`Schedule`]: each worker claims the next unit
/// (a warm group, or a piece of one) from a shared cursor, so it warms
/// once per unit, and units are ordered so that each thread program is
/// needed over a short stretch of the schedule. Each worker keeps a
/// scratch arena (memoized program builds with their pre-flight facts,
/// and the last warmed state) that forgets, on each claim, whatever no
/// later unit needs, and, when `spec.journal_dir` is set, appends
/// outcomes to its own journal shard with no shared lock. Records still
/// land at their matrix index, and merged shard bytes do not depend on
/// which worker ran what.
///
/// # Errors
///
/// Returns an error only for journal I/O failures (loading an unreadable
/// journal, opening a shard, or failing to append an outcome).
pub fn run_campaign(spec: &CampaignSpec) -> std::io::Result<CampaignReport> {
    let sharded = spec.journal_dir.as_ref().map(ShardedJournal::new);
    let cache = ResultCache::load(sharded.as_ref(), None)?;
    let admission = cache.admit(&spec.runs);

    let mut records: Vec<Option<RunRecord>> = vec![None; spec.runs.len()];
    for (i, entry) in &admission.hits {
        records[*i] = Some(RunRecord::from_journal(spec.runs[*i].clone(), entry));
    }
    let resumed = admission.hits.len();

    let workers = spec.workers.clamp(1, spec.runs.len().max(1));
    let shard_writers = (0..workers)
        .map(|w| sharded.as_ref().map(|sj| sj.open_writer(w)).transpose())
        .collect::<std::io::Result<Vec<Option<ShardWriter>>>>()?;

    let _quiet = QuietPanics::new(spec.quiet_panics);
    let schedule = Schedule::new(&spec.runs, &admission.misses, workers);
    let next = AtomicUsize::new(0);
    let finished: Mutex<Vec<(usize, RunRecord)>> = Mutex::new(Vec::new());
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    let scratches: Vec<WorkerScratch> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_writers
            .into_iter()
            .map(|shard| {
                let (schedule, next, finished, io_error) = (&schedule, &next, &finished, &io_error);
                scope.spawn(move || {
                    work(
                        schedule,
                        next,
                        spec,
                        WorkerScratch::new(),
                        shard,
                        finished,
                        io_error,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });

    if let Some(e) = io_error.into_inner().expect("io error slot") {
        return Err(e);
    }
    for (i, record) in finished.into_inner().expect("results") {
        records[i] = Some(record);
    }
    let records = records
        .into_iter()
        .map(|r| r.expect("every run either resumed or executed"))
        .collect();
    let mut report = CampaignReport::new(records, resumed);
    for scratch in &scratches {
        report.program_builds += scratch.builds;
        report.program_hits += scratch.hits;
        report.warm_builds += scratch.warm_builds;
        report.warm_hits += scratch.warm_hits;
        report.programs_held_peak = report.programs_held_peak.max(scratch.programs_held_peak);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;

    fn analysed(scratch: &WorkerScratch) -> usize {
        scratch
            .programs
            .values()
            .filter(|e| e.facts.is_some())
            .count()
    }

    #[test]
    fn program_facts_are_derived_once_and_only_for_a_preflight() {
        let runs = CampaignSpec::matrix(
            &["base64".to_owned(), "shelf-opt".to_owned()],
            &[vec!["gcc".to_owned(), "mcf".to_owned()]],
            3,
            100,
            300,
        );
        let unchecked = CampaignSpec::new(runs.clone()).with_preflight(false);
        let mut scratch = WorkerScratch::new();
        for run in &runs {
            assert_eq!(execute(run, &unchecked, &mut scratch).status, RunStatus::Ok);
        }
        assert_eq!(analysed(&scratch), 0, "no pre-flight, no analysis");

        let checked = CampaignSpec::new(runs.clone());
        let mut scratch = WorkerScratch::new();
        assert!(preflight_check(&runs[0], &mut scratch).is_none());
        assert_eq!((scratch.builds, analysed(&scratch)), (2, 2));
        // The second design point re-checks the kept facts.
        assert_eq!(
            execute(&runs[1], &checked, &mut scratch).status,
            RunStatus::Ok
        );
        assert_eq!((scratch.builds, analysed(&scratch)), (2, 2));
    }

    /// Two designs over three mixes whose programs recur in non-adjacent
    /// warm groups: `gcc` in thread 0 of the first and third, `lbm` in
    /// thread 1 of the second and third.
    fn recurring_matrix() -> Vec<RunSpec> {
        let mixes: Vec<Vec<String>> = [["gcc", "mcf"], ["hmmer", "lbm"], ["gcc", "lbm"]]
            .iter()
            .map(|m| m.iter().map(|s| (*s).to_owned()).collect())
            .collect();
        CampaignSpec::matrix(
            &["base64".to_owned(), "shelf-opt".to_owned()],
            &mixes,
            3,
            100,
            300,
        )
    }

    /// The runs of `schedule` in claim order.
    fn order(schedule: &Schedule) -> Vec<usize> {
        schedule.units.concat()
    }

    #[test]
    fn memo_forgets_what_no_unfinished_run_needs() {
        let runs = recurring_matrix();
        let campaign = CampaignSpec::new(runs.clone());
        let all: Vec<usize> = (0..runs.len()).collect();
        let schedule = Schedule::new(&runs, &all, 1);
        // One unit per mix, each holding both design points (designs
        // outer: run `i` and run `i + 3` share a mix). `gcc+mcf` and
        // `hmmer+lbm` tie, so the first run wins; then `gcc+lbm`, the last
        // use of `gcc`.
        assert_eq!(schedule.units, [vec![0, 3], vec![2, 5], vec![1, 4]]);
        let last = |name: &str, seed| schedule.last_use[&(name.to_owned(), seed)];
        let (t0, t1) = (
            shelfsim_core::thread_program_seed(3, 0),
            shelfsim_core::thread_program_seed(3, 1),
        );
        assert_eq!(
            [
                last("mcf", t1),
                last("gcc", t0),
                last("lbm", t1),
                last("hmmer", t0)
            ],
            [0, 1, 2, 2]
        );
        let memo = |scratch: &WorkerScratch| -> Vec<String> {
            let mut keys: Vec<String> = scratch.programs.keys().map(|(n, _)| n.clone()).collect();
            keys.sort();
            keys
        };
        let mut scratch = WorkerScratch::new();
        for (u, unit) in schedule.units.iter().enumerate() {
            scratch.claim(&schedule, u);
            // A claim keeps exactly the programs a later unit needs.
            match u {
                0 => assert!(scratch.programs.is_empty()),
                1 => assert_eq!(memo(&scratch), ["gcc"], "mcf is needed by no later unit"),
                _ => assert_eq!(memo(&scratch), ["lbm"]),
            }
            for (n, &i) in unit.iter().enumerate() {
                scratch.hand_off = n + 1 == unit.len();
                assert_eq!(
                    execute(&runs[i], &campaign, &mut scratch).status,
                    RunStatus::Ok
                );
                // The first run keeps the state for the second, which
                // takes it.
                assert_eq!(
                    scratch.warm.is_some(),
                    !scratch.hand_off,
                    "unit {u} run {n}"
                );
            }
        }
        scratch.claim(&schedule, schedule.units.len());
        assert!(scratch.programs.is_empty());
        // Nothing is built twice, and the kept state served its unit's
        // second run (handed off, not cloned).
        assert_eq!(
            (scratch.builds, scratch.warm_builds, scratch.warm_hits),
            (4, 3, 3)
        );
    }

    #[test]
    fn a_drained_worker_holds_no_programs_and_no_warm_state() {
        // The second design point of each mix is a starved shelf that the
        // pre-flight rejects, so the last run of every unit never takes
        // the state its first run kept.
        let mut runs = recurring_matrix();
        for r in &mut runs[3..] {
            r.design = "shelf-inorder".to_owned();
            r.overrides = vec![("shelf".to_owned(), "2".to_owned())];
        }
        let campaign = CampaignSpec::new(runs.clone());
        let all: Vec<usize> = (0..runs.len()).collect();
        let schedule = Schedule::new(&runs, &all, 1);
        assert_eq!(schedule.units, [vec![0, 3], vec![2, 5], vec![1, 4]]);
        let next = AtomicUsize::new(0);
        let finished = Mutex::new(Vec::new());
        let io_error = Mutex::new(None);
        let scratch = work(
            &schedule,
            &next,
            &campaign,
            WorkerScratch::new(),
            None,
            &finished,
            &io_error,
        );
        let finished = finished.into_inner().unwrap();
        assert_eq!(finished.len(), runs.len());
        let rejected = finished
            .iter()
            .filter(|(_, r)| r.status == RunStatus::Rejected)
            .count();
        assert_eq!(rejected, 3);
        assert!(scratch.programs.is_empty() && scratch.warm.is_none());
        assert_eq!(scratch.builds, 4, "each distinct program built once");
        assert_eq!(
            next.into_inner(),
            schedule.units.len() + 1,
            "one claim past the end"
        );
    }

    /// The order the runner used before it ordered by program lifetime:
    /// warm groups in the order of their first run.
    fn first_run_order(runs: &[RunSpec], pending: &[usize]) -> Vec<usize> {
        let mut first: HashMap<WarmKey, usize> = HashMap::new();
        let mut order: Vec<(usize, usize)> = pending
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let group = warm_key(&runs[i]).map_or(pos, |key| *first.entry(key).or_insert(pos));
                (group, i)
            })
            .collect();
        order.sort_by_key(|&(group, _)| group);
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// The most programs live at once when one worker runs `order`: a
    /// program is live from the first run that needs it through the last.
    fn planned_programs_peak(runs: &[RunSpec], order: &[usize]) -> usize {
        let mut remaining: HashMap<(String, u64), usize> = HashMap::new();
        for &i in order {
            for key in program_keys(&runs[i]) {
                *remaining.entry(key).or_insert(0) += 1;
            }
        }
        let mut live: HashSet<(String, u64)> = HashSet::new();
        let mut peak = 0;
        for &i in order {
            live.extend(program_keys(&runs[i]));
            peak = peak.max(live.len());
            for key in program_keys(&runs[i]) {
                let left = remaining.get_mut(&key).expect("counted above");
                *left -= 1;
                if *left == 0 {
                    live.remove(&key);
                }
            }
        }
        peak
    }

    /// Asserts that `order` runs each of `pending` once, with the runs of
    /// every warm group adjacent.
    fn assert_grouped(runs: &[RunSpec], pending: &[usize], order: &[usize]) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        let mut want = pending.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want, "every pending run exactly once");
        let mut closed: HashSet<WarmKey> = HashSet::new();
        for pair in order.windows(2) {
            let (a, b) = (warm_key(&runs[pair[0]]), warm_key(&runs[pair[1]]));
            if a != b {
                let a = a.expect("designs resolve");
                assert!(closed.insert(a), "a warm group is split");
            }
        }
        let last = warm_key(&runs[*order.last().expect("not empty")]);
        assert!(!closed.contains(&last.expect("designs resolve")));
    }

    #[test]
    fn warm_order_groups_design_points_of_a_mix() {
        let runs = SweepSpec {
            designs: vec!["base64".to_owned(), "shelf-opt".to_owned()],
            thread_counts: vec![2],
            mixes_per_count: 2,
            seed: 3,
            warmup: 100,
            measure: 100,
        }
        .expand();
        // Designs outer: run `i` and run `i + 6` share a mix. Runs 0-1
        // are `mcf+tonto` and `namd+soplex`, runs 2-5 the single-thread
        // references `mcf`, `namd`, `soplex` and `tonto`.
        let all: Vec<usize> = (0..runs.len()).collect();
        let schedule = Schedule::new(&runs, &all, 1);
        let order = order(&schedule);
        assert_grouped(&runs, &all, &order);
        assert_eq!(schedule.warmups(), runs.len() / 2);
        // `soplex` and `tonto` run in thread 1 of their mixes, so their
        // references share no program and go first (build one, free one).
        // Then `mcf+tonto` (ties with `namd+soplex`, first run wins), and
        // at once the `mcf` reference that frees its thread-0 program.
        assert_eq!(order, [4, 10, 5, 11, 0, 6, 2, 8, 1, 7, 3, 9]);
        // A pending subset: `namd+soplex` needs nothing later (0), the
        // `mcf` reference and `mcf+tonto` tie (1 each); `mcf`'s two
        // design points stay adjacent.
        let pending = [1, 2, 6, 8];
        let schedule = Schedule::new(&runs, &pending, 1);
        assert_eq!(schedule.units, [vec![1], vec![2, 8], vec![6]]);
        assert_eq!(schedule.warmups(), 3);
    }

    /// `sweep-short`'s matrix: the bench crate's `campaign_matrix(3_000, 7)`.
    fn sweep_short_matrix() -> Vec<RunSpec> {
        SweepSpec {
            designs: ["base64", "shelf-cons", "shelf-opt", "base128"]
                .map(str::to_owned)
                .to_vec(),
            thread_counts: vec![2, 4],
            mixes_per_count: 14,
            seed: 7,
            warmup: 500,
            measure: 3_000,
        }
        .expand()
    }

    #[test]
    fn warm_order_holds_fewer_programs_than_first_run_order() {
        let runs = sweep_short_matrix();
        let all: Vec<usize> = (0..runs.len()).collect();
        let order = order(&Schedule::new(&runs, &all, 1));
        assert_grouped(&runs, &all, &order);
        let live = planned_programs_peak(&runs, &order);
        let first = planned_programs_peak(&runs, &first_run_order(&runs, &all));
        eprintln!("planned programs peak: {live} live-set order, {first} first-run order");
        assert!(live < first, "{live} programs held vs {first}");
    }

    #[test]
    fn fewer_groups_than_workers_are_cut_into_contiguous_pieces() {
        let runs = recurring_matrix();
        let all: Vec<usize> = (0..runs.len()).collect();
        let whole = Schedule::new(&runs, &all, 1);
        assert_eq!(whole.warmups(), 3);
        // Three groups of two on up to three workers: no cut.
        assert_eq!(Schedule::new(&runs, &all, 3).units, whole.units);
        // On four or more, every group is cut in two, in the same order,
        // and each program's last unit moves with its group's last piece.
        let cut = Schedule::new(&runs, &all, 4);
        assert_eq!(
            cut.units,
            [vec![0], vec![3], vec![2], vec![5], vec![1], vec![4]]
        );
        assert_eq!(order(&cut), order(&whole));
        assert_eq!(cut.warmups(), 6);
        for (key, &last) in &whole.last_use {
            assert_eq!(cut.last_use[key], 2 * last + 1, "{key:?}");
        }
        // A lone group of two on two workers: one run each; of three:
        // pieces of one and two.
        assert_eq!(Schedule::new(&runs, &[1, 4], 2).units, [vec![1], vec![4]]);
        let mut three = runs.clone();
        three.push(RunSpec {
            index: 6,
            design: "base128".to_owned(),
            ..runs[1].clone()
        });
        assert_eq!(
            Schedule::new(&three, &[1, 4, 6], 2).units,
            [vec![1], vec![4, 6]]
        );
    }

    #[test]
    fn the_schedule_counts_the_warm_ups_a_campaign_builds() {
        let runs = sweep_short_matrix();
        let all: Vec<usize> = (0..runs.len()).collect();
        for workers in [1, 2, 3] {
            let report = run_campaign(&CampaignSpec::new(runs.clone()).with_workers(workers))
                .expect("no journal");
            assert_eq!(report.completed(), runs.len());
            // One warm-up per mix, whichever worker runs which unit.
            assert_eq!(
                (report.warm_builds, report.warm_hits),
                (55, 165),
                "{workers} workers"
            );
            assert_eq!(Schedule::new(&runs, &all, workers).warmups(), 55);
        }
    }

    #[test]
    fn one_worker_builds_each_program_once_and_holds_the_planned_peak() {
        let runs = SweepSpec {
            designs: vec!["base64".to_owned(), "shelf-opt".to_owned()],
            thread_counts: vec![2, 4],
            mixes_per_count: 2,
            seed: 5,
            warmup: 100,
            measure: 300,
        }
        .expand();
        let all: Vec<usize> = (0..runs.len()).collect();
        let distinct: HashSet<(String, u64)> = runs.iter().flat_map(program_keys).collect();
        let report =
            run_campaign(&CampaignSpec::new(runs.clone()).with_workers(1)).expect("no journal");
        assert_eq!(report.completed(), runs.len());
        assert_eq!(report.program_builds, distinct.len());
        assert_eq!(
            report.programs_held_peak,
            planned_programs_peak(&runs, &order(&Schedule::new(&runs, &all, 1)))
        );
    }
}
