//! The campaign executor: a worker pool that runs the job matrix with
//! per-run `catch_unwind` isolation, a forward-progress watchdog, bounded
//! retry with diagnostics escalation, quarantine, and journal-backed
//! resume.

use crate::cache::ResultCache;
use crate::fault::FaultKind;
use crate::journal::{JournalEntry, ShardWriter, ShardedJournal};
use crate::pool::StealQueues;
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, RunSpec};
use shelfsim_analyze::ProgramFacts;
use shelfsim_core::{Completion, CoreConfig, SimError, Simulation, WarmKey, WarmState, Watchdog};
use shelfsim_workload::Program;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

/// Per-worker scratch reused across runs (arena-style): memoizes
/// `build_program` results keyed by `(benchmark, program seed)`, with each
/// program's pre-flight [`ProgramFacts`] once a pre-flight has read them,
/// and keeps the last warmed state under its [`WarmKey`]. A sweep matrix
/// re-runs the same mixes against every design point, and a single run
/// reads its programs up to three times (pre-flight, validation tier,
/// attempt) — the memo collapses all of those to one generation and one
/// program analysis each. The warm-up is design-independent, so
/// consecutive runs of one mix on different designs clone the kept state
/// instead of warming again; [`run_campaign`] orders its runs to make such
/// runs consecutive.
#[derive(Default)]
pub struct WorkerScratch {
    programs: HashMap<(String, u64), MemoEntry>,
    warm: Option<(WarmKey, WarmState)>,
    /// Programs generated from scratch (memo misses).
    pub builds: usize,
    /// Programs served from the memo.
    pub hits: usize,
    /// Warm-ups run from scratch.
    pub warm_builds: usize,
    /// Runs started from a clone of the kept warmed state.
    pub warm_hits: usize,
}

/// One memoized thread program and, after the first pre-flight that read
/// it, its pre-flight facts (so campaigns without a pre-flight never
/// analyse it).
struct MemoEntry {
    program: Program,
    facts: Option<ProgramFacts>,
}

impl WorkerScratch {
    /// A fresh scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memo entry of thread program `(name, seed)`, built on a miss.
    /// Errors as [`WorkerScratch::programs_for`] does.
    fn entry(&mut self, name: &str, seed: u64) -> Result<&mut MemoEntry, String> {
        match self.programs.entry((name.to_owned(), seed)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Ok(e.into_mut())
            }
            Entry::Vacant(e) => {
                let profile = shelfsim_workload::suite::by_name(name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                self.builds += 1;
                Ok(e.insert(MemoEntry {
                    program: profile.build_program(seed),
                    facts: None,
                }))
            }
        }
    }

    /// The exact per-thread `(name, program)` pairs `spec` simulates,
    /// memoized. Errors with the unknown benchmark's message (the same
    /// text `Simulation::from_names` produces, so the `Config` failure
    /// taxonomy is unchanged).
    pub fn programs_for(&mut self, spec: &RunSpec) -> Result<Vec<(String, Program)>, String> {
        let mut out = Vec::with_capacity(spec.mix.len());
        for (t, name) in spec.mix.iter().enumerate() {
            let seed = shelfsim_core::thread_program_seed(spec.seed, t);
            let program = self.entry(name, seed)?.program.clone();
            out.push((name.clone(), program));
        }
        Ok(out)
    }

    /// The pre-flight facts of each of `spec`'s thread programs, derived
    /// on first use and kept with the memoized program. Errors as
    /// [`WorkerScratch::programs_for`] does.
    fn facts_for(&mut self, spec: &RunSpec) -> Result<Vec<&ProgramFacts>, String> {
        let mut keys = Vec::with_capacity(spec.mix.len());
        for (t, name) in spec.mix.iter().enumerate() {
            let seed = shelfsim_core::thread_program_seed(spec.seed, t);
            let entry = self.entry(name, seed)?;
            entry
                .facts
                .get_or_insert_with(|| ProgramFacts::new(&entry.program));
            keys.push((name.clone(), seed));
        }
        Ok(keys
            .iter()
            .map(|key| self.programs[key].facts.as_ref().expect("derived above"))
            .collect())
    }

    /// The warmed state `spec` starts from on `cfg` (its resolved config):
    /// a clone of the kept state when the [`WarmKey`] matches, otherwise a
    /// fresh [`WarmState::new`] over [`WorkerScratch::programs_for`], which
    /// then replaces the kept one. Errors as `programs_for` does.
    pub fn warm_for(&mut self, spec: &RunSpec, cfg: &CoreConfig) -> Result<WarmState, String> {
        let key = WarmKey::new(cfg, &spec.mix, spec.seed);
        if let Some((kept, warm)) = &self.warm {
            if *kept == key {
                self.warm_hits += 1;
                return Ok(warm.clone());
            }
        }
        // Drop the old state first: at most one is kept alive.
        self.warm = None;
        let programs = self.programs_for(spec)?;
        let warm = WarmState::new(cfg, programs.into_iter().map(|(_, p)| p));
        self.warm_builds += 1;
        self.warm = Some((key, warm.clone()));
        Ok(warm)
    }
}

/// The warm-up key of `spec`, or `None` when its design does not resolve
/// (the run fails before any warm-up).
fn warm_key(spec: &RunSpec) -> Option<WarmKey> {
    let cfg = spec.resolved_config().ok()?;
    Some(WarmKey::new(&cfg, &spec.mix, spec.seed))
}

/// Reorders `pending` run indices so that runs sharing a [`WarmKey`] are
/// adjacent: groups in the order of their first run, runs inside a group
/// in `pending` order. A worker walking the result warms once per group.
fn warm_order(runs: &[RunSpec], pending: &[usize]) -> Vec<usize> {
    let mut first: HashMap<WarmKey, usize> = HashMap::new();
    let mut order: Vec<(usize, usize)> = pending
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let group = warm_key(&runs[i]).map_or(pos, |key| *first.entry(key).or_insert(pos));
            (group, i)
        })
        .collect();
    // Stable: runs inside a group keep their `pending` order.
    order.sort_by_key(|&(group, _)| group);
    order.into_iter().map(|(_, i)| i).collect()
}

/// Warm-ups the `pending` runs need on one worker, which runs them
/// grouped by key: the number of distinct [`WarmKey`]s among them.
pub fn warmups_needed(runs: &[RunSpec], pending: &[usize]) -> usize {
    let keys: HashSet<WarmKey> = pending.iter().filter_map(|&i| warm_key(&runs[i])).collect();
    keys.len()
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
    /// reference diverged (or violated a harness invariant). Deterministic,
    /// so retrying cannot help — the run quarantines immediately.
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
    programs: &[Program],
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
            let bare: Vec<Program> = scratch
                .programs_for(spec)
                .map_err(|msg| fail(FailureKind::Config, None, msg))?
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            validate_run(&cfg, &bare, &fail)?;
        }
        let warm = scratch
            .warm_for(spec, &cfg)
            .map_err(|msg| fail(FailureKind::Config, None, msg))?;
        // The energy model depends only on the config; capture it before
        // `cfg` moves into the simulation.
        let energy = shelfsim_energy::EnergyModel::for_config(&cfg);
        let mut sim = Simulation::from_warm(cfg, warm, spec.mix.clone(), spec.seed);
        if diagnostics {
            // Escalation tier: keep a commit log so a reproduced failure
            // carries pipeline context. With `--features sanitize` the
            // per-cycle invariant audits are compiled in as well.
            sim.enable_commit_log(64);
            if trace_dir.is_some() {
                // Full lifecycle trace, dumped below on a diagnosed failure.
                sim.enable_tracer(256, 64);
            }
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

/// Runs a campaign to completion: dedupes the matrix against the merged
/// journal history in `spec.journal_dir`, executes the cache
/// misses on `spec.workers` threads via work-stealing deques with per-run
/// isolation, and returns the aggregate report. Individual-run failure
/// never aborts the campaign — failed runs are retried, then quarantined,
/// and the report carries partial results plus the error taxonomy.
///
/// Each worker keeps a scratch arena (memoized program builds with their
/// pre-flight facts, and the last warmed state) for its whole lifetime
/// and, when `spec.journal_dir` is set, appends outcomes to its own
/// journal shard with no shared lock.
/// Misses run grouped by warm-up key, so runs that share a warm-up are
/// adjacent and a worker warms once per group; records still land at
/// their matrix index, and merged shard bytes do not depend on execution
/// order.
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
    let queues = StealQueues::new(warm_order(&spec.runs, &admission.misses), workers);
    let finished: Mutex<Vec<(usize, RunRecord)>> = Mutex::new(Vec::new());
    // Summed scratch counters: programs built/reused, warm-ups built/reused.
    let scratch_counts: Mutex<[usize; 4]> = Mutex::new([0; 4]);
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for (w, mut shard) in shard_writers.into_iter().enumerate() {
            let queues = &queues;
            let finished = &finished;
            let io_error = &io_error;
            let scratch_counts = &scratch_counts;
            scope.spawn(move || {
                let mut scratch = WorkerScratch::new();
                while let Some(i) = queues.next(w) {
                    let record = execute(&spec.runs[i], spec, &mut scratch);
                    if let Some(sw) = &mut shard {
                        // Lock-free: this worker owns the shard file. The
                        // entry is buffered and flushed with one write per
                        // run completion.
                        sw.buffer(&record.to_journal_entry());
                        if let Err(e) = sw.flush() {
                            io_error.lock().expect("io error slot").get_or_insert(e);
                        }
                    }
                    finished.lock().expect("results").push((i, record));
                }
                let mine = [
                    scratch.builds,
                    scratch.hits,
                    scratch.warm_builds,
                    scratch.warm_hits,
                ];
                let mut counts = scratch_counts.lock().expect("scratch counts");
                for (sum, n) in counts.iter_mut().zip(mine) {
                    *sum += n;
                }
            });
        }
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
    [
        report.program_builds,
        report.program_hits,
        report.warm_builds,
        report.warm_hits,
    ] = scratch_counts.into_inner().expect("scratch counts");
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
        let per_design = runs.len() / 2;
        // Designs outer: run `i` and run `i + per_design` share a mix.
        let all: Vec<usize> = (0..runs.len()).collect();
        let expected: Vec<usize> = (0..per_design).flat_map(|i| [i, i + per_design]).collect();
        assert_eq!(warm_order(&runs, &all), expected);
        assert_eq!(warmups_needed(&runs, &all), per_design);
        // A pending subset keeps group-of-first-run order.
        let pending = [1, per_design, per_design + 1, per_design + 2];
        assert_eq!(
            warm_order(&runs, &pending),
            vec![1, per_design + 1, per_design, per_design + 2]
        );
        assert_eq!(warmups_needed(&runs, &pending), 3);
    }
}
