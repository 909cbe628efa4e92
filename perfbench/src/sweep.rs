//! The `sweep-short` workload: the `campaign_matrix` sweep through
//! `run_campaign` (fresh sharded journal, pre-flight on, one worker), then
//! a replay of the same matrix from that journal and a Pareto report.

use crate::direct::{self, Mode};
use crate::layers::{span_metrics, SimTotals};
use crate::metrics::{fnv1a, golden_errors, median, peak_rss_mb, ratio, Outcome};
use crate::spans::Spans;
use crate::workloads::{sweep_spec, Scale, Workload, DEFAULT_SEED};
use crate::Report;
use shelfsim::campaign::{
    JournalEntry, RunOutcome, RunRecord, RunStatus, ShardedJournal, WorkerScratch,
};
use shelfsim::workload::Program;
use shelfsim::{
    pareto_report, run_campaign, CampaignReport, CampaignSpec, Completion, EnergyModel,
    ResultCache, RunSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions per cold campaign; set-up is short, so its median
/// is taken over many samples.
const SETUP_SAMPLES: usize = 16;

/// The benchmark's set-up for one campaign: the run list and each run's
/// journal key.
fn prepare(seed: u64, scale: Scale) -> (Vec<RunSpec>, Vec<String>) {
    let runs = sweep_spec(seed, scale).expand();
    let keys = runs.iter().map(RunSpec::key).collect();
    (runs, keys)
}

fn campaign(runs: &[RunSpec], dir: &Path, workers: usize) -> CampaignReport {
    let spec = CampaignSpec::new(runs.to_vec())
        .with_workers(workers)
        .with_journal_dir(dir);
    run_campaign(&spec).expect("journal I/O inside the checkout")
}

fn journal_line(record: &RunRecord) -> String {
    record.to_journal_entry().to_json_line()
}

/// A run's architectural fingerprint: its measured cycles, committed
/// instructions and a hash of its whole journal line (IPC, per-thread
/// CPIs, energy).
fn fingerprint(run: &RunSpec, entry: Option<&JournalEntry>) -> String {
    match entry {
        Some(e) => format!(
            "{} cycles={} committed={} journal={:016x}",
            run.label(),
            e.cycles,
            e.committed,
            fnv1a(e.to_json_line().as_bytes())
        ),
        None => format!("{} not journaled", run.label()),
    }
}

/// Checks on a cold campaign: every run completed its fixed window and
/// committed work, and nothing was resumed.
fn cold_errors(report: &CampaignReport) -> Vec<Vec<String>> {
    report
        .records
        .iter()
        .map(|r| {
            let mut errors = Vec::new();
            if r.status != RunStatus::Ok || r.resumed {
                errors.push(format!("status {} (resumed: {})", r.status.as_str(), r.resumed));
            }
            match &r.outcome {
                Some(o) if o.completion == Completion::FixedWindow && o.committed > 0 => {}
                Some(o) => errors.push(format!("{} after {} commits", o.completion, o.committed)),
                None => errors.push("no outcome".to_owned()),
            }
            errors
        })
        .collect()
}

/// Checks the replay: every run must be a cache hit whose journal line
/// equals the cold run's.
fn replay_errors(cold: &CampaignReport, replay: &CampaignReport, errors: &mut [Vec<String>]) {
    for ((c, r), errs) in cold.records.iter().zip(&replay.records).zip(errors) {
        if !r.resumed {
            errs.push("replay re-simulated the run".to_owned());
        } else if journal_line(c) != journal_line(r) {
            errs.push(format!("replayed {} != cold {}", journal_line(r), journal_line(c)));
        }
    }
}

/// Checks the Pareto report scored every multi-thread run.
fn pareto_errors(runs: &[RunSpec], entries: &BTreeMap<String, JournalEntry>) -> Vec<String> {
    let report = pareto_report(entries, 1);
    let groups: BTreeSet<(&str, usize)> = runs
        .iter()
        .filter(|r| r.mix.len() >= 2)
        .map(|r| (r.design.as_str(), r.mix.len()))
        .collect();
    let mut errors = Vec::new();
    if report.skipped != 0 || report.points.len() != groups.len() {
        errors.push(format!(
            "pareto scored {} points (want {}), skipped {} runs",
            report.points.len(),
            groups.len(),
            report.skipped
        ));
    }
    errors
}

fn load(dir: &Path) -> BTreeMap<String, JournalEntry> {
    ShardedJournal::new(dir)
        .load_merged()
        .expect("journal inside the checkout")
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale, report: &Report) -> Outcome {
    let (runs, _) = prepare(seed, scale);
    println!(
        "workload {}: {} campaign runs per matrix, {} + {} cycles each",
        workload.name(),
        runs.len(),
        runs[0].warmup,
        runs[0].measure
    );
    if report.trace {
        traced(workload, seed, scale, report)
    } else {
        timed(workload, seed, seconds, scale, report)
    }
}

fn timed(workload: Workload, seed: u64, seconds: f64, scale: Scale, report: &Report) -> Outcome {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let (mut setup, mut runs_per_s) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<String>> = None;
    let mut golden = BTreeMap::new();
    for rep in 0.. {
        let mut prepared = None;
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            prepared = Some(prepare(seed, scale));
            setup.push(t.elapsed().as_secs_f64());
        }
        let (runs, keys) = prepared.expect("at least one set-up sample");
        let dir = report.work_dir(&format!("cold-{rep}"));
        let t = Instant::now();
        let cold = campaign(&runs, &dir, 1);
        let wall = t.elapsed().as_secs_f64();

        let mut errors = cold_errors(&cold);
        let entries = load(&dir);
        let fps: Vec<String> = runs
            .iter()
            .zip(&keys)
            .map(|(r, k)| fingerprint(r, entries.get(k)))
            .collect();
        match &first {
            None => {
                report.fingerprints(&fps);
                golden = if seed == DEFAULT_SEED {
                    golden_errors(workload.goldens(), &fps)
                } else {
                    BTreeMap::new()
                };
                first = Some(fps.clone());
            }
            Some(first) => {
                for ((a, b), errs) in first.iter().zip(&fps).zip(&mut errors) {
                    if a != b {
                        errs.push(format!("fingerprint changed between campaigns: {b}"));
                    }
                }
            }
        }
        for (i, e) in &golden {
            errors[*i].push(e.clone());
        }
        let replay = campaign(&runs, &dir, 1);
        replay_errors(&cold, &replay, &mut errors);
        errors[0].extend(pareto_errors(&runs, &entries));
        report.remove_work_dir(&dir);

        for (r, errs) in runs.iter().zip(&errors) {
            outcome.op(&r.label(), errs);
        }
        let committed: u64 = cold
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.committed)
            .sum();
        runs_per_s.push(cold.completed() as f64 / wall);
        println!(
            "campaign {}: {} runs in {:.3} s ({:.1} runs/s, {:.1} kIPS), replay {} hits",
            rep + 1,
            runs.len(),
            wall,
            cold.completed() as f64 / wall,
            committed as f64 / wall / 1e3,
            replay.resumed
        );
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    outcome.set_end_to_end([median(&runs_per_s), median(&setup), peak_rss_mb()]);
    outcome
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn traced(workload: Workload, seed: u64, scale: Scale, report: &Report) -> Outcome {
    let mut outcome = Outcome::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (runs, keys) = prepare(seed, scale);

    // The untraced cold campaign, with the cache admission it starts with
    // timed separately on the same (empty) journal.
    let cold_dir = report.work_dir("cold");
    let journal = ShardedJournal::new(&cold_dir);
    let t = Instant::now();
    let cache = ResultCache::load(Some(&journal), None).expect("journal inside the checkout");
    values.insert("campaign.cache.load_ms.cold".into(), ms(t));
    let t = Instant::now();
    let admission = cache.admit(&runs);
    values.insert("campaign.cache.admit_ms.cold".into(), ms(t));
    assert!(admission.hits.is_empty(), "fresh journal directory");
    let t = Instant::now();
    let cold = campaign(&runs, &cold_dir, 1);
    let cold_ms = ms(t);
    let mut errors = cold_errors(&cold);
    let entries = load(&cold_dir);
    let fps: Vec<String> = runs
        .iter()
        .zip(&keys)
        .map(|(r, k)| fingerprint(r, entries.get(k)))
        .collect();
    report.fingerprints(&fps);
    if seed == DEFAULT_SEED {
        for (i, e) in golden_errors(workload.goldens(), &fps) {
            errors[i].push(e);
        }
    }

    // Replay from the journal the cold campaign wrote, then Pareto.
    let t = Instant::now();
    let cache = ResultCache::load(Some(&journal), None).expect("journal inside the checkout");
    values.insert("campaign.cache.load_ms.replay".into(), ms(t));
    let t = Instant::now();
    let admission = cache.admit(&runs);
    values.insert("campaign.cache.admit_ms.replay".into(), ms(t));
    values.insert("campaign.cache.replay_hit_rate".into(), admission.hit_rate());
    let t = Instant::now();
    let replay = campaign(&runs, &cold_dir, 1);
    values.insert("campaign.replay_ms".into(), ms(t));
    replay_errors(&cold, &replay, &mut errors);
    let t = Instant::now();
    errors[0].extend(pareto_errors(&runs, &entries));
    values.insert("campaign.pareto_ms".into(), ms(t));

    // Serial re-execution through the public calls the runner makes, in
    // its order, each outcome checked against what the campaign journaled.
    let reexec_dir = report.work_dir("reexec");
    let mut writer = ShardedJournal::new(&reexec_dir)
        .open_writer(0)
        .expect("journal inside the checkout");
    let mut scratch = WorkerScratch::new();
    let mut spans = Spans::new();
    let mut side = Spans::new();
    let mut totals = SimTotals::default();
    let mut noskip_tick_ns = 0;
    for (i, (spec, errs)) in runs.iter().zip(&mut errors).enumerate() {
        let root = spans.enter("bench.run", i);
        let cfg = spec.resolved_config().expect("matrix designs resolve");
        let programs = spans
            .time("workload.programs_for", i, || scratch.programs_for(spec))
            .expect("suite benchmarks");
        let bare: Vec<Program> = programs.into_iter().map(|(_, p)| p).collect();
        let preflight = spans.time("analyze.preflight", i, || shelfsim::preflight(&cfg, &bare));
        if preflight.has_errors() {
            errs.push("pre-flight rejects a run the campaign ran".to_owned());
        }
        let programs = spans
            .time("workload.programs_for", i, || scratch.programs_for(spec))
            .expect("suite benchmarks");
        let model = spans.time("energy.model", i, || EnergyModel::for_config(&cfg));
        let run = direct::simulate(
            cfg.clone(),
            programs.clone(),
            spec.seed,
            spec.warmup,
            spec.measure,
            Mode::Skip,
            &mut spans,
            i,
        );
        let energy = spans.time("energy.model", i, || model.report(&run.result));
        let record = RunRecord {
            spec: spec.clone(),
            status: RunStatus::Ok,
            attempts: 1,
            failures: Vec::new(),
            outcome: Some(RunOutcome {
                ipc: run.result.ipc(),
                cycles: run.result.cycles,
                committed: run.result.counters.committed,
                completion: run.result.completion,
                thread_cpi: run.result.cpis(),
                epi: energy.energy_per_instruction(),
                edp: energy.edp(),
            }),
            resumed: false,
            validated: false,
        };
        let entry = spans.time("campaign.journal.entry", i, || record.to_journal_entry());
        spans.time("campaign.journal.buffer", i, || writer.buffer(&entry));
        if let Err(e) = spans.time("campaign.journal.flush", i, || writer.flush()) {
            errs.push(format!("journal flush: {e}"));
        }
        spans.exit(root);
        totals.add(&spec.design, &run);

        let line = entry.to_json_line();
        if let Some(cold) = cold.records.get(i) {
            if line != journal_line(cold) {
                errs.push(format!("re-executed {line} != journaled {}", journal_line(cold)));
            }
        }
        for mode in [Mode::NoSkip, Mode::Audit] {
            let other = direct::simulate(
                cfg.clone(),
                programs.clone(),
                spec.seed,
                spec.warmup,
                spec.measure,
                mode,
                &mut side,
                i,
            );
            if mode == Mode::NoSkip {
                noskip_tick_ns += other.tick_ns;
            }
            if other.result.counters != run.result.counters {
                errs.push(format!("{mode:?} run counters differ from the skip-on run"));
            }
            if let Err(e) = other.audit {
                errs.push(format!("stall tallies: {e}"));
            }
        }
    }
    drop(writer);
    let reexec = ShardedJournal::new(&reexec_dir);
    let bytes = std::fs::metadata(reexec.shard_path(0)).map_or(0, |m| m.len());
    if reexec.merged_bytes().ok() != journal.merged_bytes().ok() {
        errors[0].push("re-executed journal differs from the campaign's".to_owned());
    }

    // The same cold matrix on two workers: recorded, not gated.
    let two_dir = report.work_dir("two-workers");
    let t = Instant::now();
    let two = campaign(&runs, &two_dir, 2);
    let two_ms = ms(t);
    if two.completed() != runs.len()
        || ShardedJournal::new(&two_dir).merged_bytes().ok() != journal.merged_bytes().ok()
    {
        errors[0].push("two-worker journal differs from the one-worker journal".to_owned());
    }
    println!(
        "two workers: {:.3} s vs {:.3} s (ideal speedup {})",
        two_ms / 1e3,
        cold_ms / 1e3,
        report.nproc.min(2)
    );
    for dir in [&cold_dir, &reexec_dir, &two_dir] {
        report.remove_work_dir(dir);
    }
    for (r, errs) in runs.iter().zip(&errors) {
        outcome.op(&r.label(), errs);
    }

    let (prog_ns, _) = spans.total("workload.programs_for");
    let builds = scratch.builds as f64;
    values.insert("workload.build_program_ms".into(), ratio(prog_ns as f64 / 1e6, builds));
    values.insert(
        "campaign.scratch.program_hit_rate".into(),
        ratio(scratch.hits as f64, builds + scratch.hits as f64),
    );
    let (pre_ns, pre_n) = spans.total("analyze.preflight");
    values.insert("analyze.preflight_ms".into(), ratio(pre_ns as f64 / 1e6, pre_n as f64));
    let (flush_ns, flushes) = spans.total("campaign.journal.flush");
    values.insert("campaign.journal.flush_us".into(), ratio(flush_ns as f64 / 1e3, flushes as f64));
    values.insert(
        "campaign.journal.bytes_per_run".into(),
        ratio(bytes as f64, runs.len() as f64),
    );
    let (serial_ns, _) = spans.total("bench.run");
    let serial_ms = serial_ns as f64 / 1e6;
    values.insert("campaign.overhead_frac".into(), 1.0 - ratio(serial_ms, cold_ms));
    values.insert("campaign.pool.speedup_2w".into(), ratio(cold_ms, two_ms));
    values.insert("trace.overhead_frac".into(), ratio(serial_ms, cold_ms) - 1.0);
    span_metrics(&spans, &mut values);
    totals.metrics(noskip_tick_ns, &mut values);
    report.spans(&spans);
    outcome.set_per_layer(values);
    outcome
}
