//! Implementation of the `shelfsim` command-line interface.
//!
//! The CLI wraps the simulator for interactive exploration:
//!
//! ```text
//! shelfsim suite                         # list the benchmark suite
//! shelfsim run --design shelf-opt --mix gcc,mcf,hmmer,lbm
//! shelfsim compare --mix gcc,mcf,hmmer,lbm
//! shelfsim mixes --threads 4 --count 5
//! shelfsim sweep --param shelf --values 16,32,64,128 --mix gcc,mcf,hmmer,lbm
//! ```
//!
//! Everything is plumbed through [`run_cli`] so the argument handling is
//! unit-testable without spawning a process.

use shelfsim::{balanced_random_mixes, suite, CoreConfig, EnergyModel, MemoryModel, Simulation};
use std::fmt::Write as _;

/// Process exit codes, one per CLI failure class. `main` maps a
/// [`CliError`] to its `code`, so scripts can tell a mistyped flag from a
/// real differential-validation failure without parsing stderr.
pub mod exit_codes {
    /// Simulation, configuration, or I/O failure.
    pub const GENERAL: u8 = 1;
    /// Bad command line: unknown command/option or malformed flag value.
    pub const USAGE: u8 = 2;
    /// `validate`: the core's commit stream diverged from the functional
    /// reference.
    pub const DIVERGENCE: u8 = 3;
    /// `validate`: a cross-cutting invariant (commit counts, stall
    /// attribution, sweep stream identity) failed.
    pub const INVARIANT: u8 = 4;
}

/// A parse or execution error with a user-facing message and the process
/// exit code its class maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// User-facing message.
    pub message: String,
    /// Process exit code (see [`exit_codes`]).
    pub code: u8,
}

impl CliError {
    fn new(message: impl Into<String>, code: u8) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError::new(msg, exit_codes::GENERAL)
}

/// A usage error: bad command line rather than a failed run.
fn uerr(msg: impl Into<String>) -> CliError {
    CliError::new(msg, exit_codes::USAGE)
}

/// Parses a numeric flag value, echoing the offending text on failure
/// (`--warmup: invalid number \`abc\``).
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| uerr(format!("{flag}: invalid number `{value}`")))
}

/// Parsed common options.
#[derive(Debug, Clone)]
struct Options {
    design: String,
    mix: Vec<String>,
    warmup: u64,
    measure: u64,
    /// Equal-work mode: run until every thread commits this many
    /// instructions (with `measure` as the cycle budget).
    until: Option<u64>,
    seed: u64,
    tso: bool,
    json: bool,
    /// Trace: lifecycle ring capacity (instructions retained per export).
    window: usize,
    /// Trace: occupancy sampling period in cycles.
    sample: u64,
    /// Trace: write the JSONL export here.
    jsonl: Option<String>,
    /// Trace: write the Chrome trace-event export here (Perfetto-loadable).
    chrome: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            design: "shelf-opt".to_owned(),
            mix: vec![],
            warmup: 10_000,
            measure: 40_000,
            until: None,
            seed: 7,
            tso: false,
            json: false,
            window: 256,
            sample: 8,
            jsonl: None,
            chrome: None,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| uerr(format!("{name} requires a value")))
        };
        match a.as_str() {
            "--design" => o.design = val("--design")?,
            "--mix" => {
                o.mix = val("--mix")?.split(',').map(str::to_owned).collect();
            }
            "--warmup" => o.warmup = parse_num("--warmup", &val("--warmup")?)?,
            "--measure" => o.measure = parse_num("--measure", &val("--measure")?)?,
            "--until" => o.until = Some(parse_num("--until", &val("--until")?)?),
            "--seed" => o.seed = parse_num("--seed", &val("--seed")?)?,
            "--tso" => o.tso = true,
            "--json" => o.json = true,
            "--window" => o.window = parse_num("--window", &val("--window")?)?,
            "--sample" => o.sample = parse_num("--sample", &val("--sample")?)?,
            "--jsonl" => o.jsonl = Some(val("--jsonl")?),
            "--chrome" => o.chrome = Some(val("--chrome")?),
            other => return Err(uerr(format!("unknown option `{other}`"))),
        }
    }
    Ok(o)
}

/// Builds the configuration named by `--design` for `threads` contexts
/// (one per `--mix` benchmark). The design table lives in `analyze` (one
/// source of truth for the CLI, the linter, and the campaign runner).
pub fn design_config(name: &str, threads: usize) -> Result<CoreConfig, CliError> {
    check_threads("--mix", threads)?;
    shelfsim::analyze::design_by_name(name, threads).ok_or_else(|| unknown_design(name))
}

/// The one thread-count range check: a simulated core has
/// `1..=CoreConfig::MAX_THREADS` hardware contexts. `flag` names the flag
/// the count came from.
fn check_threads(flag: &str, threads: usize) -> Result<usize, CliError> {
    if (1..=CoreConfig::MAX_THREADS).contains(&threads) {
        return Ok(threads);
    }
    Err(uerr(format!(
        "{flag}: {threads} threads is outside 1..={} (one per hardware context)",
        CoreConfig::MAX_THREADS
    )))
}

/// Parses a `--threads`-style value and range-checks it.
fn parse_threads(flag: &str, value: &str) -> Result<usize, CliError> {
    check_threads(flag, parse_num(flag, value)?)
}

/// Validates a `--journal-dir` value: an existing regular file (an old
/// single-file journal) cannot hold shards.
fn journal_dir_arg(value: &str) -> Result<String, CliError> {
    if std::path::Path::new(value).is_file() {
        return Err(uerr(format!(
            "--journal-dir: `{value}` is a file; to resume an old single-file journal, \
             move it into a directory and pass that directory"
        )));
    }
    Ok(value.to_owned())
}

/// The standard "unknown design" error, listing every valid name. A bad
/// `--design` value is a usage error, like any other malformed flag.
fn unknown_design(name: &str) -> CliError {
    uerr(format!(
        "unknown design `{name}` (expected one of: {})",
        shelfsim::analyze::DESIGN_NAMES.join(", ")
    ))
}

fn run_one(
    cfg: CoreConfig,
    mix: &[String],
    o: &Options,
    out: &mut String,
) -> Result<f64, CliError> {
    let names: Vec<&str> = mix.iter().map(String::as_str).collect();
    let model = EnergyModel::for_config(&cfg);
    let mut sim = Simulation::from_names(cfg, &names, o.seed).map_err(|e| err(e.to_string()))?;
    // `--until N` switches to equal-work measurement: run until every
    // thread commits N instructions, with `--measure` as the cycle budget.
    // The completion tag in the output says whether the target was reached
    // or the budget expired (formerly silent truncation).
    let r = match o.until {
        Some(insts) => sim.run_until_committed(o.warmup, insts, o.measure),
        None => sim.run(o.warmup, o.measure),
    };
    let rep = model.report(&r);
    if o.json {
        let threads: Vec<String> = r
            .threads
            .iter()
            .map(|t| {
                format!(
                    r#"{{"benchmark":"{}","committed":{},"cpi":{:.4},"in_sequence":{:.4},"mispredict":{:.4}}}"#,
                    t.benchmark,
                    t.committed,
                    t.cpi,
                    t.in_sequence_fraction,
                    t.branch_mispredict_ratio
                )
            })
            .collect();
        writeln!(
            out,
            r#"{{"ipc":{:.4},"cycles":{},"completion":"{}","shelf_fraction":{:.4},"epi":{:.2},"edp":{:.2},"threads":[{}]}}"#,
            r.ipc(),
            r.cycles,
            r.completion.as_str(),
            r.counters.shelf_dispatch_fraction(),
            rep.energy_per_instruction(),
            rep.edp(),
            threads.join(",")
        )
        .expect("write to string");
    } else {
        writeln!(out, "mix: {}", mix.join("+")).expect("write");
        writeln!(
            out,
            "IPC {:.3}   shelf {:.0}%   EPI {:.0}   EDP {:.0}   ({} cycles measured, {})",
            r.ipc(),
            r.counters.shelf_dispatch_fraction() * 100.0,
            rep.energy_per_instruction(),
            rep.edp(),
            r.cycles,
            if r.completion.is_truncated() {
                "TRUNCATED: max cycles expired before the commit target"
            } else {
                r.completion.as_str()
            }
        )
        .expect("write");
        for t in &r.threads {
            writeln!(
                out,
                "  {:<12} cpi {:>8.2}   in-seq {:>5.1}%   mispredict {:>5.1}%",
                t.benchmark,
                t.cpi,
                t.in_sequence_fraction * 100.0,
                t.branch_mispredict_ratio * 100.0
            )
            .expect("write");
        }
        writeln!(
            out,
            "mean occupancy: ROB {:.1}  IQ {:.1}  LQ {:.1}  SQ {:.1}  shelf {:.1}  rename-regs {:.1}",
            r.counters.mean_occupancy(0),
            r.counters.mean_occupancy(1),
            r.counters.mean_occupancy(2),
            r.counters.mean_occupancy(3),
            r.counters.mean_occupancy(4),
            r.counters.mean_occupancy(5),
        )
        .expect("write");
    }
    Ok(r.ipc())
}

/// Executes the CLI for `args` (without the program name); returns the text
/// to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad arguments or
/// unknown benchmarks.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let mut out = String::new();
    let Some(cmd) = args.first() else {
        return Err(uerr(USAGE));
    };
    match cmd.as_str() {
        "kernels" => {
            for k in shelfsim::workload::kernels::all() {
                writeln!(out, "{:<10} {}", k.name, k.description).expect("write");
            }
        }
        "suite" => {
            for p in suite::all() {
                writeln!(
                    out,
                    "{:<12} loads {:>4.0}%  stores {:>4.0}%  branches {:>4.0}%  fp {:>4.0}%  chase {:>4.0}%",
                    p.name,
                    p.frac_load * 100.0,
                    p.frac_store * 100.0,
                    p.frac_branch * 100.0,
                    p.frac_fp * 100.0,
                    p.pointer_chase * 100.0
                )
                .expect("write");
            }
        }
        "mixes" => {
            let mut threads = 4usize;
            let mut count = 28usize;
            let mut seed = 7u64;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let v = it
                    .next()
                    .ok_or_else(|| uerr(format!("{a} requires a value")))?;
                match a.as_str() {
                    "--threads" => threads = parse_threads("--threads", v)?,
                    "--count" => count = parse_num("--count", v)?,
                    "--seed" => seed = parse_num("--seed", v)?,
                    other => return Err(uerr(format!("unknown option `{other}`"))),
                }
            }
            let names = suite::names();
            for m in balanced_random_mixes(&names, threads, 28, seed)
                .iter()
                .take(count)
            {
                writeln!(out, "{}", m.label()).expect("write");
            }
        }
        "run" => {
            let o = parse_options(&args[1..])?;
            if o.mix.is_empty() {
                return Err(uerr("run requires --mix bench1,bench2,..."));
            }
            let mut cfg = design_config(&o.design, o.mix.len())?;
            if o.tso {
                cfg.memory_model = MemoryModel::Tso;
            }
            run_one(cfg, &o.mix.clone(), &o, &mut out)?;
        }
        "compare" => {
            let o = parse_options(&args[1..])?;
            if o.mix.is_empty() {
                return Err(uerr("compare requires --mix bench1,bench2,..."));
            }
            // The first design (base64) is the comparison baseline; a
            // baseline that committed nothing renders its deltas as `n/a`
            // instead of aborting the whole comparison.
            let mut base_ipc: Option<f64> = None;
            for design in [
                "base64",
                "shelf-cons",
                "shelf-opt",
                "shelf-oracle",
                "base128",
            ] {
                let mut cfg = design_config(design, o.mix.len())?;
                if o.tso {
                    cfg.memory_model = MemoryModel::Tso;
                }
                writeln!(out, "== {design}").expect("write");
                let ipc = run_one(cfg, &o.mix.clone(), &o, &mut out)?;
                match base_ipc {
                    None => base_ipc = Some(ipc),
                    Some(base) if !o.json => {
                        writeln!(
                            out,
                            "IPC vs base64: {}",
                            shelfsim::stats::render_delta(shelfsim::stats::percent_delta(
                                base, ipc
                            ))
                        )
                        .expect("write");
                    }
                    Some(_) => {}
                }
            }
        }
        "sweep" => {
            // Two modes share the verb: the legacy structural parameter
            // sweep (`--param/--values`) and the matrix mode (full design ×
            // thread-count × mix matrix on the work-stealing campaign pool).
            // Any matrix-only flag selects the matrix mode.
            const MATRIX_FLAGS: &[&str] = &[
                "--designs",
                "--thread-counts",
                "--mixes",
                "--workers",
                "--journal-dir",
                "--dry-run",
                "--pareto",
            ];
            if args[1..].iter().any(|a| MATRIX_FLAGS.contains(&a.as_str())) {
                out.push_str(&sweep_matrix(&args[1..])?);
                return Ok(out);
            }
            let mut param = String::new();
            let mut values: Vec<usize> = vec![];
            let mut rest: Vec<String> = vec![];
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--param" => {
                        param = it
                            .next()
                            .ok_or_else(|| uerr("--param needs a value"))?
                            .clone()
                    }
                    "--values" => {
                        let v = it.next().ok_or_else(|| uerr("--values needs a value"))?;
                        values = v
                            .split(',')
                            .map(|x| parse_num("--values", x))
                            .collect::<Result<_, _>>()?;
                    }
                    other => {
                        rest.push(other.to_owned());
                        if let Some(v) = it.next() {
                            rest.push(v.clone());
                        }
                    }
                }
            }
            let o = parse_options(&rest)?;
            if o.mix.is_empty() || param.is_empty() || values.is_empty() {
                return Err(uerr("sweep requires --param, --values and --mix"));
            }
            for v in values {
                let mut cfg = design_config(&o.design, o.mix.len())?;
                match param.as_str() {
                    "shelf" => cfg.shelf_entries = v,
                    "rob" => cfg.rob_entries = v,
                    "iq" => cfg.iq_entries = v,
                    "lq" => cfg.lq_entries = v,
                    "sq" => cfg.sq_entries = v,
                    "rct-bits" => cfg.rct_bits = v as u32,
                    "plt-columns" => cfg.plt_columns = v as u32,
                    other => return Err(uerr(format!("unknown sweep parameter `{other}`"))),
                }
                writeln!(out, "== {param} = {v}").expect("write");
                run_one(cfg, &o.mix.clone(), &o, &mut out)?;
            }
        }
        "characterize" => {
            // Functional characterization of benchmarks: measured mix and
            // working-set footprints over a fixed instruction sample.
            let names: Vec<&'static str> =
                if let Some(first) = args.get(1).filter(|a| !a.starts_with("--")) {
                    let name = suite::by_name(first)
                        .ok_or_else(|| err(format!("unknown benchmark `{first}`")))?
                        .name;
                    vec![name]
                } else {
                    suite::names()
                };
            writeln!(
                out,
                "{:<12} {:>6} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
                "benchmark", "load%", "store%", "br%", "fp%", "code-set", "data-set", "mpki-ish"
            )
            .expect("write");
            for name in names {
                let profile = suite::by_name(name).expect("suite");
                let mut t = shelfsim::workload::TraceSource::new(profile.build_program(7), 0);
                let sample = 100_000u64;
                let (mut ld, mut st, mut br, mut fp) = (0u64, 0u64, 0u64, 0u64);
                let mut code: std::collections::HashSet<u64> = Default::default();
                let mut data: std::collections::HashSet<u64> = Default::default();
                let mut bp =
                    shelfsim::uarch::BranchPredictor::new(shelfsim::uarch::BranchPredictorConfig {
                        kind: shelfsim::uarch::PredictorKind::Tournament,
                        ..Default::default()
                    });
                let mut wrong = 0u64;
                // The first half of the sample warms the predictor; only the
                // second half is measured.
                for n in 0..2 * sample {
                    let measured = n >= sample;
                    let (_, i) = t.fetch();
                    if measured {
                        code.insert(i.pc >> 6);
                        match i.op {
                            shelfsim::isa::OpClass::Load => ld += 1,
                            shelfsim::isa::OpClass::Store => st += 1,
                            shelfsim::isa::OpClass::Branch => br += 1,
                            op if op.fu_kind() == shelfsim::isa::FuKind::Fp => fp += 1,
                            _ => {}
                        }
                        if let Some(m) = i.mem {
                            data.insert(m.addr >> 6);
                        }
                    }
                    if let Some(b) = i.branch {
                        let pred = bp.predict(i.pc, b.is_return);
                        let bad = bp.update(
                            i.pc,
                            pred,
                            b.taken,
                            b.next_pc,
                            b.is_call,
                            b.is_return,
                            i.pc + 4,
                        );
                        if measured && bad {
                            wrong += 1;
                        }
                    }
                }
                let pct = |n: u64| n as f64 / sample as f64 * 100.0;
                writeln!(
                    out,
                    "{:<12} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>7}KB {:>7}KB {:>9.1}",
                    name,
                    pct(ld),
                    pct(st),
                    pct(br),
                    pct(fp),
                    code.len() * 64 / 1024,
                    data.len() * 64 / 1024,
                    wrong as f64 / (sample as f64 / 1000.0),
                )
                .expect("write");
            }
        }
        "asm" => {
            // First positional argument: the kernel file.
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return Err(err("asm requires a kernel file path"));
            };
            let program = if let Some(name) = path.strip_prefix("builtin:") {
                shelfsim::workload::kernels::by_name(name)
                    .ok_or_else(|| err(format!("unknown builtin kernel `{name}`")))?
                    .assemble()
                    .map_err(|e| err(format!("builtin {name}: {e}")))?
            } else {
                let src = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
                shelfsim::workload::asm::assemble(&src).map_err(|e| err(format!("{path}: {e}")))?
            };
            let o = parse_options(&args[2..])?;
            let threads = if o.mix.is_empty() {
                1
            } else {
                o.mix.len().max(1)
            };
            let mut cfg = design_config(&o.design, threads)?;
            if o.tso {
                cfg.memory_model = MemoryModel::Tso;
            }
            // Run the same kernel on every thread.
            let traces: Vec<shelfsim::workload::TraceSource> = (0..threads)
                .map(|t| shelfsim::workload::TraceSource::new(program.clone(), t))
                .collect();
            let mut core = shelfsim::Core::new(cfg, traces);
            core.warm_caches();
            core.warm_functional(20_000);
            core.tick_bounded(o.warmup);
            let c0: Vec<u64> = (0..threads).map(|t| core.committed(t)).collect();
            core.tick_bounded(o.measure);
            let total: u64 = (0..threads).map(|t| core.committed(t) - c0[t]).sum();
            writeln!(
                out,
                "kernel {path} x{threads} threads: IPC {:.3} over {} cycles",
                total as f64 / o.measure as f64,
                o.measure
            )
            .expect("write");
            for (t, &before) in c0.iter().enumerate() {
                let committed = core.committed(t) - before;
                writeln!(
                    out,
                    "  t{t}: {} committed, CPI {:.2}, in-seq {:.1}%",
                    committed,
                    o.measure as f64 / committed.max(1) as f64,
                    core.classifier(t).in_sequence_fraction() * 100.0
                )
                .expect("write");
            }
        }
        "trace" => {
            let o = parse_options(&args[1..])?;
            if o.mix.is_empty() {
                return Err(uerr("trace requires --mix bench1,bench2,..."));
            }
            let mut cfg = design_config(&o.design, o.mix.len())?;
            if o.tso {
                cfg.memory_model = MemoryModel::Tso;
            }
            let names: Vec<&str> = o.mix.iter().map(String::as_str).collect();
            let mut sim =
                Simulation::from_names(cfg, &names, o.seed).map_err(|e| err(e.to_string()))?;
            sim.enable_commit_log(48);
            if o.window == 0 {
                return Err(err("--window must be at least 1"));
            }
            sim.enable_tracer(o.window, o.sample.max(1));
            let _ = sim.run(o.warmup, o.measure);
            writeln!(
                out,
                "{:<4} {:>8} {:<8} {:<6} {:>7} {:>8} {:>7} {:>8} {:>7}  pipeline",
                "thr", "seq", "op", "queue", "fetch", "dispatch", "issue", "complete", "commit"
            )
            .expect("write");
            let records: Vec<_> = sim.core().commit_log().copied().collect();
            let base = records.iter().map(|r| r.fetch).min().unwrap_or(0);
            for r in &records {
                let lane = |c: u64| ((c - base) / 2).min(38) as usize;
                let mut bar = vec![b'.'; 40];
                bar[lane(r.fetch)] = b'F';
                bar[lane(r.dispatch)] = b'D';
                bar[lane(r.issue)] = b'I';
                bar[lane(r.complete)] = b'C';
                bar[lane(r.commit)] = b'R';
                writeln!(
                    out,
                    "t{:<3} {:>8} {:<8} {:<6} {:>7} {:>8} {:>7} {:>8} {:>7}  {}{}",
                    r.thread,
                    r.seq,
                    r.op.to_string(),
                    match r.steer {
                        shelfsim::core::Steer::Iq => "IQ",
                        shelfsim::core::Steer::Shelf => "shelf",
                    },
                    r.fetch,
                    r.dispatch,
                    r.issue,
                    r.complete,
                    r.commit,
                    String::from_utf8_lossy(&bar),
                    if r.in_sequence { "  in-seq" } else { "" }
                )
                .expect("write");
            }
            let tracer = sim.tracer().expect("tracer enabled above");
            out.push_str("\nstall attribution (% of measured cycles per thread):\n");
            out.push_str(&tracer.stall_summary());
            if let Some(path) = &o.jsonl {
                std::fs::write(path, tracer.export_jsonl())
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                writeln!(out, "wrote {path}").expect("write");
            }
            if let Some(path) = &o.chrome {
                std::fs::write(path, tracer.export_chrome())
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                writeln!(out, "wrote {path}").expect("write");
            }
        }
        "campaign" => {
            let mut designs: Vec<String> = vec!["base64".to_owned(), "shelf-opt".to_owned()];
            let mut threads = 4usize;
            let mut mix_count = 4usize;
            let mut explicit_mixes: Vec<Vec<String>> = vec![];
            let mut seed = 7u64;
            let mut warmup = 2_000u64;
            let mut measure = 10_000u64;
            let mut watchdog: Option<u64> = Some(100_000);
            let mut attempts = 3u32;
            let mut workers = 2usize;
            let mut journal_dir: Option<String> = None;
            let mut trace_dir: Option<String> = None;
            let mut fault_mix = shelfsim::FaultMix::default();
            let mut fault_seed = 0u64;
            let mut json = false;
            let mut preflight = true;
            let mut validate = false;
            let mut overrides: Vec<(String, String)> = vec![];
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--json" {
                    json = true;
                    continue;
                }
                if a == "--no-preflight" {
                    preflight = false;
                    continue;
                }
                if a == "--validate" {
                    validate = true;
                    continue;
                }
                let v = it
                    .next()
                    .ok_or_else(|| uerr(format!("{a} requires a value")))?;
                match a.as_str() {
                    "--designs" => {
                        designs = v.split(',').map(str::to_owned).collect();
                        for d in &designs {
                            design_config(d, 1)?;
                        }
                    }
                    "--threads" => threads = parse_threads("--threads", v)?,
                    "--mixes" => mix_count = parse_num("--mixes", v)?,
                    "--mix" => {
                        let mix: Vec<String> = v.split(',').map(str::to_owned).collect();
                        check_threads("--mix", mix.len())?;
                        explicit_mixes.push(mix);
                    }
                    "--seed" => seed = parse_num("--seed", v)?,
                    "--warmup" => warmup = parse_num("--warmup", v)?,
                    "--measure" => measure = parse_num("--measure", v)?,
                    "--watchdog" => {
                        let w: u64 = parse_num("--watchdog", v)?;
                        watchdog = (w > 0).then_some(w);
                    }
                    "--attempts" => attempts = parse_num("--attempts", v)?,
                    "--workers" => workers = parse_num("--workers", v)?,
                    "--journal-dir" => journal_dir = Some(journal_dir_arg(v)?),
                    "--trace-dir" => trace_dir = Some(v.clone()),
                    "--fault-panics" => fault_mix.panics = parse_num("--fault-panics", v)?,
                    "--fault-persistent-panics" => {
                        fault_mix.persistent_panics = parse_num("--fault-persistent-panics", v)?
                    }
                    "--fault-stalls" => fault_mix.stalls = parse_num("--fault-stalls", v)?,
                    "--fault-livelocks" => fault_mix.livelocks = parse_num("--fault-livelocks", v)?,
                    "--fault-seed" => fault_seed = parse_num("--fault-seed", v)?,
                    "--override" => {
                        let (k, val) = v.split_once('=').ok_or_else(|| {
                            uerr(format!("--override: expected key=value, got `{v}`"))
                        })?;
                        overrides.push((k.to_owned(), val.to_owned()));
                    }
                    other => return Err(uerr(format!("unknown option `{other}`"))),
                }
            }
            let mixes: Vec<Vec<String>> = if explicit_mixes.is_empty() {
                let names = suite::names();
                balanced_random_mixes(&names, threads, names.len(), seed)
                    .iter()
                    .take(mix_count)
                    .map(|m| m.benchmarks.iter().map(|b| (*b).to_owned()).collect())
                    .collect()
            } else {
                explicit_mixes
            };
            let mut runs = shelfsim::CampaignSpec::matrix(&designs, &mixes, seed, warmup, measure);
            if !overrides.is_empty() {
                for r in &mut runs {
                    r.overrides = overrides.clone();
                }
                // Surface a malformed override as an argument error up front
                // rather than quarantining every run one by one.
                if let Some(r) = runs.first() {
                    r.resolved_config().map_err(uerr)?;
                }
            }
            let n_runs = runs.len();
            let n_faults = fault_mix.panics
                + fault_mix.persistent_panics
                + fault_mix.stalls
                + fault_mix.livelocks;
            if n_faults > n_runs {
                return Err(err(format!(
                    "fault injection wants {n_faults} victim runs but the campaign has only \
                     {n_runs}"
                )));
            }
            let mut spec = shelfsim::CampaignSpec::new(runs)
                .with_watchdog(watchdog)
                .with_max_attempts(attempts)
                .with_workers(workers)
                .with_preflight(preflight)
                .with_validate(validate);
            if let Some(dir) = journal_dir {
                spec = spec.with_journal_dir(dir);
            }
            if let Some(dir) = trace_dir {
                spec = spec.with_trace_dir(dir);
            }
            if n_faults > 0 {
                spec = spec.with_faults(shelfsim::FaultPlan::seeded(fault_seed, n_runs, fault_mix));
            }
            let report =
                shelfsim::run_campaign(&spec).map_err(|e| err(format!("campaign journal: {e}")))?;
            out.push_str(&if json {
                let mut j = report.render_json();
                j.push('\n');
                j
            } else {
                report.render_text()
            });
        }
        "analyze" => {
            let mut bounds = false;
            let mut design = "shelf-opt".to_owned();
            let mut threads = 1usize;
            let mut seed = 7u64;
            let mut format_json = false;
            let mut targets: Vec<String> = vec![];
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--bounds" => bounds = true,
                    "--json" => format_json = true,
                    "--design" => {
                        design = it
                            .next()
                            .ok_or_else(|| uerr("--design requires a value"))?
                            .clone()
                    }
                    "--threads" => {
                        threads = parse_num(
                            "--threads",
                            it.next()
                                .ok_or_else(|| uerr("--threads requires a value"))?,
                        )?
                    }
                    "--seed" => {
                        seed = parse_num(
                            "--seed",
                            it.next().ok_or_else(|| uerr("--seed requires a value"))?,
                        )?
                    }
                    other if other.starts_with("--") => {
                        return Err(uerr(format!("unknown option `{other}`")))
                    }
                    target => targets.push(target.to_owned()),
                }
            }
            if targets.is_empty() {
                return Err(err(
                    "analyze requires at least one TARGET (.s kernel file, built-in \
                     kernel name, or suite benchmark name)",
                ));
            }
            // Like `lint`, static analysis may study more contexts than
            // the simulator has, so it skips `design_config`'s range check.
            let cfg = shelfsim::analyze::design_by_name(&design, threads)
                .ok_or_else(|| unknown_design(&design))?;
            let mut diags = shelfsim::analyze::lint_config(&cfg);
            // Each target resolves to a program: a `.s` file keeps its
            // source spans, a built-in kernel or suite benchmark does not.
            let mut programs: Vec<(String, shelfsim::workload::program::Program)> = vec![];
            for target in &targets {
                if target.ends_with(".s") {
                    let text = std::fs::read_to_string(target)
                        .map_err(|e| err(format!("cannot read `{target}`: {e}")))?;
                    match shelfsim::workload::asm::assemble_with_lines(&text) {
                        Ok((program, lines)) => {
                            diags.extend(shelfsim::analyze::lint_program(
                                &program,
                                Some((target, &lines)),
                            ));
                            diags.extend(shelfsim::analyze::check_adequacy(
                                &program,
                                &cfg,
                                Some((target, &lines)),
                            ));
                            programs.push((target.clone(), program));
                        }
                        Err(e) => diags.push(
                            shelfsim::Diagnostic::new(
                                "SA000",
                                shelfsim::Severity::Error,
                                format!("assembly failed: {}", e.message),
                            )
                            .with_span(target, e.line),
                        ),
                    }
                } else {
                    let program = if let Some(k) = shelfsim::workload::kernels::by_name(target) {
                        k.assemble().map_err(|e| err(format!("{target}: {e}")))?
                    } else if let Some(p) = suite::by_name(target) {
                        p.build_program(shelfsim::core::thread_program_seed(seed, programs.len()))
                    } else {
                        return Err(err(format!(
                            "unknown target `{target}` (expected a .s file, a built-in \
                             kernel, or a suite benchmark)"
                        )));
                    };
                    diags.extend(shelfsim::analyze::lint_program(&program, None));
                    diags.extend(shelfsim::analyze::check_adequacy(&program, &cfg, None));
                    programs.push((target.clone(), program));
                }
            }
            let mut reports: Vec<shelfsim::IpcBoundReport> = vec![];
            if bounds {
                for (name, p) in &programs {
                    let mut r = shelfsim::ipc_bound(p, &cfg);
                    r.name = name.clone();
                    diags.push(r.diagnostic());
                    reports.push(r);
                }
            }
            let report = shelfsim::Report::new(diags);
            let rendered = if format_json {
                report.render_json()
            } else {
                let mut text = report.render_text();
                if !reports.is_empty() {
                    writeln!(
                        text,
                        "static IPC bounds on {design} ({threads} thread{}):",
                        if threads == 1 { "" } else { "s" }
                    )
                    .expect("write");
                    writeln!(
                        text,
                        "  {:<12} {:>6} {:>7} {:>7}  binding",
                        "program", "width", "fu-cap", "bound"
                    )
                    .expect("write");
                    for r in &reports {
                        writeln!(
                            text,
                            "  {:<12} {:>6.1} {:>7.1} {:>7.3}  {}",
                            r.name, r.width, r.fu_capacity, r.bound, r.binding
                        )
                        .expect("write");
                    }
                    if reports.len() > 1 {
                        writeln!(
                            text,
                            "  aggregate SMT bound: {:.3}",
                            shelfsim::aggregate_bound(&reports, &cfg)
                        )
                        .expect("write");
                    }
                }
                text
            };
            if report.has_errors() {
                return Err(err(rendered));
            }
            out.push_str(&rendered);
        }
        "lint" => {
            let mut format_json = false;
            let mut deny_warnings = false;
            let mut design: Option<String> = None;
            let mut threads = 4usize;
            let mut files: Vec<String> = vec![];
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--deny-warnings" => deny_warnings = true,
                    "--explain" => {
                        let code = it.next().ok_or_else(|| uerr("--explain requires a code"))?;
                        let info = shelfsim::analyze::code_info(&code.to_uppercase()).ok_or_else(
                            || {
                                err(format!(
                                    "unknown diagnostic code `{code}` (expected one of: {})",
                                    shelfsim::analyze::REGISTRY
                                        .iter()
                                        .map(|c| c.code)
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ))
                            },
                        )?;
                        writeln!(out, "{} ({:?}): {}", info.code, info.severity, info.summary)
                            .expect("write");
                        writeln!(out, "\n{}", info.explain.trim()).expect("write");
                        return Ok(out);
                    }
                    "--format" => {
                        let v = it.next().ok_or_else(|| uerr("--format requires a value"))?;
                        match v.as_str() {
                            "json" => format_json = true,
                            "text" => format_json = false,
                            other => {
                                return Err(err(format!(
                                    "--format: expected `text` or `json`, got `{other}`"
                                )))
                            }
                        }
                    }
                    "--design" => {
                        design = Some(
                            it.next()
                                .ok_or_else(|| uerr("--design requires a value"))?
                                .clone(),
                        )
                    }
                    "--threads" => {
                        threads = parse_num(
                            "--threads",
                            it.next()
                                .ok_or_else(|| uerr("--threads requires a value"))?,
                        )?
                    }
                    other if other.starts_with("--") => {
                        return Err(uerr(format!("unknown option `{other}`")))
                    }
                    file => files.push(file.to_owned()),
                }
            }
            if files.is_empty() && design.is_none() {
                return Err(err(
                    "lint requires at least one FILE (.s kernel or key=value config) \
                     or --design NAME",
                ));
            }
            let mut diags = Vec::new();
            if let Some(name) = &design {
                let cfg = shelfsim::analyze::design_by_name(name, threads)
                    .ok_or_else(|| unknown_design(name))?;
                diags.extend(shelfsim::analyze::lint_config(&cfg));
            }
            for path in &files {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
                if path.ends_with(".s") {
                    diags.extend(shelfsim::analyze::lint_kernel_source(&text, path));
                } else {
                    let (_, d) = shelfsim::analyze::lint_config_file(&text, path);
                    diags.extend(d);
                }
            }
            let report = shelfsim::Report::new(diags);
            let rendered = if format_json {
                report.render_json()
            } else {
                report.render_text()
            };
            // Error-severity findings fail the invocation (nonzero exit from
            // `main`); warnings and notes report but pass — unless
            // `--deny-warnings` promotes warnings to failures (CI mode).
            let denied_warning = deny_warnings
                && report
                    .diagnostics()
                    .iter()
                    .any(|d| d.severity == shelfsim::Severity::Warning);
            if report.has_errors() || denied_warning {
                return Err(err(rendered));
            }
            out.push_str(&rendered);
        }
        "bench" => {
            // Engine-throughput bench: a fixed seeded matrix of designs x
            // mixes whose wall-clock/kIPS numbers form the repo's perf
            // trajectory (BENCH_core.json). `--out -` skips the file.
            let mut campaign_bench = false;
            let mut measure: Option<u64> = None;
            let mut seed = 7u64;
            let mut out_path: Option<String> = None;
            let mut compare_path: Option<String> = None;
            let mut workers = vec![1usize, 2, 4];
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--campaign" => campaign_bench = true,
                    "--workers" => {
                        let v = it.next().ok_or_else(|| uerr("--workers needs a value"))?;
                        workers = v
                            .split(',')
                            .map(|x| parse_num("--workers", x))
                            .collect::<Result<_, _>>()?;
                        if workers.is_empty() || workers[0] != 1 {
                            return Err(uerr(
                                "--workers: the list must start at 1 (the speedup baseline)",
                            ));
                        }
                    }
                    "--measure" => {
                        let v = it.next().ok_or_else(|| uerr("--measure needs a value"))?;
                        measure = Some(parse_num::<u64>("--measure", v)?);
                    }
                    "--seed" => {
                        let v = it.next().ok_or_else(|| uerr("--seed needs a value"))?;
                        seed = parse_num::<u64>("--seed", v)?;
                    }
                    "--out" => {
                        out_path = Some(
                            it.next()
                                .ok_or_else(|| uerr("--out needs a value"))?
                                .clone(),
                        );
                    }
                    "--compare" => {
                        compare_path = Some(
                            it.next()
                                .ok_or_else(|| uerr("--compare needs a value"))?
                                .clone(),
                        );
                    }
                    other => return Err(err(format!("unknown bench option `{other}`"))),
                }
            }
            if campaign_bench {
                // Worker-scaling bench of the sweep runner itself: the
                // matrix once per worker count plus the cached replay;
                // writes BENCH_campaign.json unless --out -.
                if compare_path.is_some() {
                    return Err(uerr("--compare applies to the engine bench only"));
                }
                let measure = measure.unwrap_or(shelfsim_bench::campaign::DEFAULT_MEASURE);
                let out_path = out_path.unwrap_or_else(|| "BENCH_campaign.json".to_owned());
                let report = shelfsim_bench::campaign::run_campaign_bench(measure, seed, &workers)
                    .map_err(err)?;
                out.push_str(&report.render_text());
                if out_path != "-" {
                    std::fs::write(&out_path, report.to_json())
                        .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
                    writeln!(out, "wrote {out_path}").expect("write");
                }
                return Ok(out);
            }
            let measure = measure.unwrap_or(shelfsim_bench::engine::DEFAULT_MEASURE);
            let out_path = out_path.unwrap_or_else(|| "BENCH_core.json".to_owned());
            // Parse the baseline before the (slow) matrix runs so a bad
            // path fails fast.
            let baseline = match &compare_path {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| err(format!("cannot read {path}: {e}")))?;
                    Some(
                        shelfsim_bench::engine::parse_baseline(&text).ok_or_else(|| {
                            err(format!("{path} is not a shelfsim-bench-v1 document"))
                        })?,
                    )
                }
                None => None,
            };
            let plan = shelfsim_bench::engine::engine_micro(measure, seed);
            let report = shelfsim_bench::engine::run_plan(&plan).map_err(err)?;
            out.push_str(&report.render_text());
            if let Some(base) = &baseline {
                out.push_str(&report.render_compare(base));
            }
            if out_path != "-" {
                std::fs::write(&out_path, report.to_json())
                    .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
                writeln!(out, "wrote {out_path}").expect("write");
            }
        }
        "validate" => return cmd_validate(&args[1..]),
        "help" | "--help" | "-h" => out.push_str(USAGE),
        other => return Err(uerr(format!("unknown command `{other}`\n{USAGE}"))),
    }
    Ok(out)
}

/// Options for `shelfsim validate`.
struct ValidateOptions {
    designs: Vec<String>,
    threads: usize,
    kernels: Vec<String>,
    suite_mixes: usize,
    generated: usize,
    seed: u64,
    commits: u64,
    max_cycles: u64,
    warmup: u64,
    sweep: bool,
    json: bool,
    no_skip: bool,
    shrink_dir: Option<String>,
    #[cfg(feature = "chaos")]
    chaos: Option<shelfsim::core::ChaosPlan>,
}

fn parse_validate_options(args: &[String]) -> Result<ValidateOptions, CliError> {
    let mut o = ValidateOptions {
        designs: vec!["base64".to_owned(), "shelf-opt".to_owned()],
        threads: 2,
        kernels: vec!["all".to_owned()],
        suite_mixes: 0,
        generated: 0,
        seed: 7,
        commits: 2_000,
        max_cycles: 400_000,
        warmup: 1_000,
        sweep: false,
        json: false,
        no_skip: false,
        shrink_dir: None,
        #[cfg(feature = "chaos")]
        chaos: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| uerr(format!("{name} requires a value")))
        };
        match a.as_str() {
            "--designs" => o.designs = val("--designs")?.split(',').map(str::to_owned).collect(),
            "--threads" => o.threads = parse_threads("--threads", &val("--threads")?)?,
            "--kernels" => o.kernels = val("--kernels")?.split(',').map(str::to_owned).collect(),
            "--suite" => o.suite_mixes = parse_num("--suite", &val("--suite")?)?,
            "--generated" => o.generated = parse_num("--generated", &val("--generated")?)?,
            "--seed" => o.seed = parse_num("--seed", &val("--seed")?)?,
            "--commits" => o.commits = parse_num("--commits", &val("--commits")?)?,
            "--max-cycles" => o.max_cycles = parse_num("--max-cycles", &val("--max-cycles")?)?,
            "--warmup" => o.warmup = parse_num("--warmup", &val("--warmup")?)?,
            "--sweep" => o.sweep = true,
            "--json" => o.json = true,
            "--no-skip" => o.no_skip = true,
            "--shrink-dir" => o.shrink_dir = Some(val("--shrink-dir")?),
            "--chaos" => {
                let spec = val("--chaos")?;
                #[cfg(feature = "chaos")]
                {
                    o.chaos = Some(parse_chaos_plan(&spec)?);
                }
                #[cfg(not(feature = "chaos"))]
                {
                    let _ = spec;
                    return Err(uerr(
                        "--chaos requires a chaos-enabled build \
                         (cargo run --features chaos -- validate ...)",
                    ));
                }
            }
            other => return Err(uerr(format!("unknown option `{other}`"))),
        }
    }
    if o.designs.len() == 1 && o.designs[0] == "all" {
        o.designs = shelfsim::analyze::DESIGN_NAMES
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
    }
    if o.kernels.len() == 1 && o.kernels[0] == "all" {
        o.kernels = shelfsim::workload::kernels::all()
            .iter()
            .map(|k| k.name.to_owned())
            .collect();
    } else if o.kernels.len() == 1 && o.kernels[0] == "none" {
        o.kernels.clear();
    }
    Ok(o)
}

/// Parses `KIND:TRIGGER` (e.g. `skip-writeback:100`) into a chaos plan.
#[cfg(feature = "chaos")]
fn parse_chaos_plan(spec: &str) -> Result<shelfsim::core::ChaosPlan, CliError> {
    use shelfsim::core::{ChaosKind, ChaosPlan};
    let (kind_s, trig_s) = spec
        .split_once(':')
        .ok_or_else(|| uerr(format!("--chaos: expected KIND:TRIGGER, got `{spec}`")))?;
    let kind = ChaosKind::by_name(kind_s).ok_or_else(|| {
        uerr(format!(
            "--chaos: unknown mutation `{kind_s}` (expected one of: {})",
            ChaosKind::ALL.map(|k| k.as_str()).join(", ")
        ))
    })?;
    let trigger = parse_num("--chaos trigger", trig_s)?;
    Ok(ChaosPlan { kind, trigger })
}

/// `shelfsim validate`: differential validation of the out-of-order core
/// against the in-order functional reference. Returns the report on
/// success; renders the same report into the error on divergence (exit 3)
/// or invariant violation (exit 4).
fn cmd_validate(args: &[String]) -> Result<String, CliError> {
    use shelfsim::validate::{
        render_json, render_text, run_lockstep, run_sweep, GenSpec, LockstepConfig, RunReport,
        Verdict,
    };
    let o = parse_validate_options(args)?;
    let lcfg = LockstepConfig {
        commits_per_thread: o.commits,
        max_cycles: o.max_cycles,
        warmup_insts: o.warmup,
        cycle_skipping: !o.no_skip,
        #[cfg(feature = "chaos")]
        chaos: o.chaos,
        ..LockstepConfig::default()
    };

    // Assemble the workload list: kernels, suite mixes, generated programs.
    // A generated workload keeps its GenSpec so a divergence can be shrunk.
    let mut workloads: Vec<(String, Vec<shelfsim::workload::Program>, Option<GenSpec>)> =
        Vec::new();
    for name in &o.kernels {
        let k = shelfsim::workload::kernels::by_name(name)
            .ok_or_else(|| err(format!("unknown kernel `{name}`")))?;
        let p = k.assemble().map_err(|e| err(e.to_string()))?;
        workloads.push((format!("kernel:{name}"), vec![p; o.threads], None));
    }
    if o.suite_mixes > 0 {
        let names = suite::names();
        for m in balanced_random_mixes(&names, o.threads, 28, o.seed)
            .iter()
            .take(o.suite_mixes)
        {
            let programs: Vec<_> = m
                .benchmarks
                .iter()
                .enumerate()
                .map(|(t, b)| {
                    suite::by_name(b)
                        .expect("mix benchmarks come from the suite")
                        .build_program(shelfsim::core::thread_program_seed(o.seed, t))
                })
                .collect();
            workloads.push((format!("suite:{}", m.label()), programs, None));
        }
    }
    for i in 0..o.generated {
        let spec = GenSpec::from_seed(o.seed.wrapping_add(i as u64));
        let p = spec.build_program();
        workloads.push((
            format!("gen:{:#x}", spec.seed),
            vec![p; o.threads],
            Some(spec),
        ));
    }
    if workloads.is_empty() {
        return Err(uerr(
            "validate: nothing to do (--kernels none with no --suite/--generated)",
        ));
    }

    let mut runs: Vec<RunReport> = Vec::new();
    for design in &o.designs {
        let cfg = design_config(design, o.threads)?;
        for (label, programs, spec) in &workloads {
            let verdict = run_lockstep(&cfg, programs, &lcfg);
            let sweep = (o.sweep && verdict.is_clean()).then(|| run_sweep(&cfg, programs, &lcfg));
            // Divergent generated programs shrink to a minimal failing case
            // which is persisted for regression if --shrink-dir is given.
            let mut regression = None;
            if let (Verdict::Diverged(d), Some(spec), Some(dir)) = (&verdict, spec, &o.shrink_dir) {
                let min = shelfsim::validate::shrink_to_minimal(spec, |s| {
                    !run_lockstep(&cfg, &vec![s.build_program(); o.threads], &lcfg).is_clean()
                });
                let path = shelfsim::validate::persist_regression(
                    std::path::Path::new(dir),
                    &min,
                    &format!("{design} x{} {label}\n{d}", o.threads),
                )
                .map_err(|e| err(format!("cannot write regression case: {e}")))?;
                regression = Some(path.display().to_string());
            }
            runs.push(RunReport {
                design: design.clone(),
                threads: o.threads,
                workload: label.clone(),
                verdict,
                sweep,
                regression,
            });
        }
    }

    let rendered = if o.json {
        render_json(&runs)
    } else {
        render_text(&runs)
    };
    let t = shelfsim::validate::totals(&runs);
    if t.diverged > 0 {
        Err(CliError::new(rendered, exit_codes::DIVERGENCE))
    } else if t.invariant > 0 {
        Err(CliError::new(rendered, exit_codes::INVARIANT))
    } else {
        Ok(rendered)
    }
}

/// Matrix-mode `shelfsim sweep`: the full design × thread-count × mix
/// matrix (with the implied single-thread STP references) expanded by
/// [`shelfsim::SweepSpec`], deduplicated against merged journal history
/// by the config-hash [`shelfsim::ResultCache`], and executed on the
/// work-stealing campaign pool with one journal shard per worker.
/// `--dry-run` prints the matrix size, initial shard plan, cache-hit
/// preview and warm-up count without simulating a cycle; `--pareto`
/// appends the STP/EDP/area Pareto report over the merged history.
fn sweep_matrix(args: &[String]) -> Result<String, CliError> {
    let mut designs: Vec<String> = vec!["base64".to_owned(), "shelf-opt".to_owned()];
    let mut thread_counts: Vec<usize> = vec![2, 4];
    let mut mixes = 2usize;
    let mut seed = 7u64;
    let mut warmup = 2_000u64;
    let mut measure = 10_000u64;
    let mut workers = 2usize;
    let mut journal_dir: Option<String> = None;
    let mut watchdog: Option<u64> = Some(100_000);
    let mut attempts = 3u32;
    let mut preflight = true;
    let mut dry_run = false;
    let mut pareto = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dry-run" => {
                dry_run = true;
                continue;
            }
            "--pareto" => {
                pareto = true;
                continue;
            }
            "--json" => {
                json = true;
                continue;
            }
            "--no-preflight" => {
                preflight = false;
                continue;
            }
            _ => {}
        }
        let v = it
            .next()
            .ok_or_else(|| uerr(format!("{a} requires a value")))?;
        match a.as_str() {
            "--designs" => {
                designs = v.split(',').map(str::to_owned).collect();
                for d in &designs {
                    design_config(d, 1)?;
                }
            }
            "--thread-counts" => {
                thread_counts = v
                    .split(',')
                    .map(|x| parse_threads("--thread-counts", x))
                    .collect::<Result<_, _>>()?;
            }
            "--mixes" => mixes = parse_num("--mixes", v)?,
            "--seed" => seed = parse_num("--seed", v)?,
            "--warmup" => warmup = parse_num("--warmup", v)?,
            "--measure" => measure = parse_num("--measure", v)?,
            "--workers" => workers = parse_num("--workers", v)?,
            "--journal-dir" => journal_dir = Some(journal_dir_arg(v)?),
            "--watchdog" => {
                let w: u64 = parse_num("--watchdog", v)?;
                watchdog = (w > 0).then_some(w);
            }
            "--attempts" => attempts = parse_num("--attempts", v)?,
            other => return Err(uerr(format!("unknown option `{other}`"))),
        }
    }
    let sweep = shelfsim::SweepSpec {
        designs: designs.clone(),
        thread_counts,
        mixes_per_count: mixes,
        seed,
        warmup,
        measure,
    };
    let runs = sweep.expand();
    if runs.is_empty() {
        return Err(err("sweep matrix is empty"));
    }
    let workers = workers.clamp(1, runs.len());

    // Admission preview against merged journal history (shared by the
    // dry run and the real run's header).
    let sharded = journal_dir.as_deref().map(shelfsim::ShardedJournal::new);
    let cache = shelfsim::ResultCache::load(sharded.as_ref(), None)
        .map_err(|e| err(format!("sweep journal: {e}")))?;
    let admission = cache.admit(&runs);

    let mut header = String::new();
    let breakdown: Vec<String> = sweep
        .mix_plan()
        .iter()
        .map(|(t, m)| format!("{} @ {}t", m.len(), t))
        .collect();
    writeln!(
        header,
        "sweep matrix: {} designs x ({}) workloads = {} runs",
        designs.len(),
        breakdown.join(" + "),
        runs.len()
    )
    .expect("write");
    writeln!(
        header,
        "cache: {} hits, {} misses ({:.1}% cached, {} journaled entries)",
        admission.hits.len(),
        admission.misses.len(),
        admission.hit_rate() * 100.0,
        cache.len()
    )
    .expect("write");

    if dry_run {
        let plan = shelfsim::shard_plan(admission.misses.len(), workers);
        // Design points of one mix share a warm-up (see `WarmKey`).
        let warmups = shelfsim::warmups_needed(&runs, &admission.misses);
        if json {
            let shards: Vec<String> = plan
                .iter()
                .map(|&(start, len)| format!("{{\"start\":{start},\"len\":{len}}}"))
                .collect();
            return Ok(format!(
                "{{\"runs\":{},\"hits\":{},\"misses\":{},\"warmups\":{warmups},\"workers\":{},\"shards\":[{}]}}\n",
                runs.len(),
                admission.hits.len(),
                admission.misses.len(),
                workers,
                shards.join(",")
            ));
        }
        let mut out = header;
        writeln!(
            out,
            "{warmups} warm-ups for {} pending runs",
            admission.misses.len()
        )
        .expect("write");
        for (w, &(start, len)) in plan.iter().enumerate() {
            writeln!(
                out,
                "  worker {w}: {len} pending runs (slots {start}..{})",
                start + len
            )
            .expect("write");
        }
        out.push_str("dry run: 0 cycles simulated\n");
        return Ok(out);
    }

    let mut spec = shelfsim::CampaignSpec::new(runs)
        .with_watchdog(watchdog)
        .with_max_attempts(attempts)
        .with_workers(workers)
        .with_preflight(preflight);
    if let Some(dir) = &journal_dir {
        spec = spec.with_journal_dir(dir);
    }
    let report = shelfsim::run_campaign(&spec).map_err(|e| err(format!("sweep journal: {e}")))?;

    // Pareto scores over the full merged history when a journal directory
    // is present (earlier sweeps contribute points); otherwise over this
    // invocation's records.
    let pareto_entries = if pareto {
        Some(match &sharded {
            Some(sj) => sj
                .load_merged()
                .map_err(|e| err(format!("sweep journal: {e}")))?,
            None => report
                .records
                .iter()
                .map(|r| {
                    let e = r.to_journal_entry();
                    (e.key.clone(), e)
                })
                .collect(),
        })
    } else {
        None
    };

    if json {
        // Machine output stays pure JSON: the Pareto report when asked
        // for, the campaign report otherwise.
        return Ok(match &pareto_entries {
            Some(entries) => shelfsim::pareto_report(entries, workers).render_json(),
            None => {
                let mut j = report.render_json();
                j.push('\n');
                j
            }
        });
    }
    let mut out = header;
    out.push_str(&report.render_text());
    if let Some(entries) = &pareto_entries {
        out.push_str(&shelfsim::pareto_report(entries, workers).render_text());
    }
    Ok(out)
}

/// Usage text.
pub const USAGE: &str = "\
shelfsim — SMT out-of-order core simulator with hybrid shelf dispatch

USAGE:
  shelfsim suite
  shelfsim mixes   [--threads N] [--count N] [--seed N]
  shelfsim run     --mix b1,b2,... [--design D] [--warmup N] [--measure N]
                   [--seed N] [--tso] [--json]
  shelfsim compare --mix b1,b2,... [--warmup N] [--measure N] [--seed N] [--tso]
  shelfsim sweep   --param P --values v1,v2,... --mix b1,b2,... [--design D]
  shelfsim sweep   [--designs d1,d2] [--thread-counts 2,4] [--mixes N]
                   [--seed N] [--warmup N] [--measure N] [--workers N]
                   [--journal-dir DIR] [--watchdog N] [--attempts N]
                   [--dry-run] [--pareto] [--json] [--no-preflight]
                   (matrix mode: the full design x thread-count x mix matrix
                   — plus the implied single-thread STP references — runs on
                   the work-stealing campaign pool, one journal shard per
                   worker under --journal-dir; requested runs dedupe against
                   all merged journal history by config hash, so re-invoking
                   the same sweep re-simulates nothing. --dry-run prints the
                   matrix size, initial shard plan, cache-hit preview and
                   warm-ups needed (design points of one mix share one)
                   without simulating a cycle; --pareto appends the
                   STP vs energy-delay vs area Pareto frontier over the
                   merged history)
  shelfsim trace   --mix b1,b2,... [--design D] [--warmup N] [--measure N]
                   [--seed N] [--window N] [--sample N]
                   [--jsonl FILE] [--chrome FILE]
                   (lane view of the last 48 committed insts, per-thread
                   dispatch/issue stall attribution, and optional exports:
                   --jsonl writes instruction lifecycles + occupancy samples
                   as JSON lines, --chrome writes a Chrome trace-event file
                   loadable in Perfetto/about:tracing; --window bounds the
                   lifecycle ring, --sample sets the occupancy period)
  shelfsim asm     FILE.s [--design D] [--mix x,x] (run a hand-written kernel;
                   kernel syntax: see shelfsim_workload::asm)
  shelfsim characterize [BENCH]                    (measured mix & footprints)
  shelfsim kernels                                 (list built-in kernels; run
                   one with: shelfsim asm builtin:NAME)
  shelfsim lint    [--format text|json] [--design D] [--threads N]
                   [--deny-warnings] [FILE...]
                   (static checks: .s kernels get the SA dataflow lints,
                   key=value config files and --design get the SC
                   contradiction lints; errors exit nonzero, and
                   --deny-warnings promotes warnings to failures)
  shelfsim lint    --explain CODE      (document one diagnostic code)
  shelfsim analyze [--bounds] [--design D] [--threads N] [--seed N] [--json]
                   TARGET...
                   (full static analysis of each target — a .s kernel file,
                   a built-in kernel, or a suite benchmark: dataflow lints,
                   resource-adequacy proofs against the design, and with
                   --bounds a sound static IPC upper-bound table plus the
                   aggregate SMT bound; errors exit nonzero)
  shelfsim validate [--designs d1,d2|all] [--threads N] [--kernels k1,k2|all|none]
                   [--suite N] [--generated N] [--seed N] [--commits N]
                   [--max-cycles N] [--warmup N] [--sweep] [--json]
                   [--no-skip] [--shrink-dir DIR]
                   (differential validation: the core's committed stream is
                   compared in lockstep against an in-order functional
                   reference over kernels, N suite mixes, and N generated
                   programs; --sweep additionally perturbs one structure
                   size at a time and asserts the streams stay identical;
                   divergent generated programs shrink to a minimal case
                   persisted under --shrink-dir; --no-skip disables
                   event-driven cycle skipping (results are bit-identical
                   either way — running both proves it). Exit codes: 0 clean,
                   2 usage error, 3 divergence, 4 invariant violation.
                   Chaos builds (--features chaos) accept
                   --chaos KIND:TRIGGER to arm a seeded commit-path
                   mutation the harness must then detect)
  shelfsim bench   [--measure N] [--seed N] [--out FILE] [--compare FILE]
                   (engine-throughput matrix `engine_micro`: designs x mixes,
                   reports wall seconds, simulated cycles/s, and committed
                   kIPS per run; writes BENCH_core.json unless --out -;
                   --compare prints a report-only old-vs-new kIPS delta
                   table against a committed BENCH_core.json baseline)
  shelfsim bench   --campaign [--workers 1,2,4] [--measure N] [--seed N]
                   [--out FILE]
                   (worker-scaling bench of the sweep runner: a 220-run
                   seeded matrix once per worker count — fresh journal
                   shards per row — reporting runs/s, speedup over one
                   worker, and efficiency against the host's ideal
                   min(workers, host_cores), plus a cached replay that
                   must dedupe 100% of the matrix; writes
                   BENCH_campaign.json unless --out -)
  shelfsim campaign [--designs d1,d2] [--threads N] [--mixes N | --mix b1,b2 ...]
                   [--seed N] [--warmup N] [--measure N] [--watchdog N]
                   [--attempts N] [--workers N] [--journal-dir DIR] [--json]
                   [--trace-dir DIR] (dump lifecycle traces of watchdog-
                   diagnosed failures in the diagnostics tier)
                   [--fault-panics N] [--fault-persistent-panics N]
                   [--fault-stalls N] [--fault-livelocks N] [--fault-seed N]
                   [--override key=value ...] [--no-preflight] [--validate]
                   (fault-tolerant design x mix sweep: per-run panic isolation,
                   forward-progress watchdog, retry escalation, quarantine, and
                   a resumable journal of one shard per worker — re-invoking
                   with the same --journal-dir skips completed runs, and any
                   *.jsonl in it is read as a shard, so an old single-file
                   journal resumes once moved into a directory; --watchdog 0
                   disables the watchdog.
                   Every queued run passes a static-analysis pre-flight first:
                   provably misconfigured runs are rejected before simulating
                   a cycle and journaled as analysis-rejected; --no-preflight
                   opts out. --override tweaks the design point, e.g.
                   --override shelf=8. --validate lockstep-checks each run
                   against the in-order functional reference before timing it;
                   a divergence quarantines the run with no retries and clean
                   runs journal validated:clean)

DESIGNS: base64, base128, shelf-cons, shelf-opt, shelf-oracle, shelf-inorder
SWEEP PARAMS: shelf, rob, iq, lq, sq, rct-bits, plt-columns
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn suite_lists_all_benchmarks() {
        let out = run_cli(&args("suite")).expect("ok");
        assert_eq!(out.lines().count(), 28);
        assert!(out.contains("mcf"));
    }

    #[test]
    fn mixes_respects_count() {
        let out = run_cli(&args("mixes --threads 4 --count 3")).expect("ok");
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn run_produces_summary() {
        let out = run_cli(&args(
            "run --mix hmmer,gcc --design shelf-opt --warmup 1000 --measure 4000",
        ))
        .expect("ok");
        assert!(out.contains("IPC"));
        assert!(out.contains("hmmer"));
        assert!(out.contains("gcc"));
    }

    #[test]
    fn run_json_is_machine_readable() {
        let out = run_cli(&args(
            "run --mix hmmer --design base64 --warmup 500 --measure 2000 --json",
        ))
        .expect("ok");
        assert!(out.trim_start().starts_with('{'));
        assert!(out.contains("\"ipc\""));
        assert!(out.contains("\"benchmark\":\"hmmer\""));
    }

    #[test]
    fn unknown_design_is_an_error() {
        let e = run_cli(&args("run --mix gcc --design warp-drive")).unwrap_err();
        assert!(e.message.contains("unknown design"));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let e = run_cli(&args("run --mix notabench --warmup 100 --measure 100")).unwrap_err();
        assert!(e.message.contains("notabench"));
    }

    #[test]
    fn missing_command_shows_usage() {
        let e = run_cli(&[]).unwrap_err();
        assert!(e.message.contains("USAGE"));
    }

    #[test]
    fn sweep_runs_each_value() {
        let out = run_cli(&args(
            "sweep --param shelf --values 16,32 --mix hmmer,gcc --warmup 500 --measure 2000",
        ))
        .expect("ok");
        assert!(out.contains("shelf = 16"));
        assert!(out.contains("shelf = 32"));
    }

    #[test]
    fn sweep_param_mistakes_are_usage_errors() {
        let e = run_cli(&args("sweep --param shelf --mix gcc")).unwrap_err();
        assert!(e.message.contains("--values"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
        let e = run_cli(&args("sweep --param warp --values 1 --mix gcc")).unwrap_err();
        assert!(e.message.contains("`warp`"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
    }

    #[test]
    fn thread_counts_outside_the_core_are_usage_errors() {
        let nine = ["gcc"; CoreConfig::MAX_THREADS + 1].join(",");
        for (cmd, flag) in [
            ("mixes --threads 0".to_owned(), "--threads"),
            ("mixes --threads 40".to_owned(), "--threads"),
            ("campaign --threads 0".to_owned(), "--threads"),
            ("campaign --threads 9".to_owned(), "--threads"),
            (format!("campaign --mix {nine}"), "--mix"),
            (format!("run --mix {nine}"), "--mix"),
            ("sweep --thread-counts 9".to_owned(), "--thread-counts"),
            ("validate --threads 9".to_owned(), "--threads"),
        ] {
            let e = run_cli(&args(&cmd)).unwrap_err();
            assert_eq!(e.code, exit_codes::USAGE, "{cmd}: {}", e.message);
            assert!(e.message.contains(flag), "{cmd}: {}", e.message);
        }
    }

    #[test]
    fn validate_runs_clean_on_a_kernel() {
        let out = run_cli(&args(
            "validate --kernels daxpy --designs base64 --commits 300 --warmup 200",
        ))
        .expect("ok");
        assert!(
            out.starts_with("validate: 1 runs, 1 clean, 0 diverged"),
            "{out}"
        );
        assert!(out.contains("kernel:daxpy"));
    }

    #[test]
    fn validate_json_report_is_machine_readable() {
        let out = run_cli(&args(
            "validate --kernels daxpy --designs base64 --commits 300 --warmup 200 --json",
        ))
        .expect("ok");
        assert!(
            out.starts_with("{\"schema\":\"shelfsim-validate-v1\""),
            "{out}"
        );
        assert!(out.contains("\"verdict\":\"clean\""));
    }

    #[test]
    fn validate_usage_errors_echo_the_offending_value() {
        let e = run_cli(&args("validate --commits banana")).unwrap_err();
        assert!(e.message.contains("--commits"), "{}", e.message);
        assert!(e.message.contains("`banana`"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);

        let e = run_cli(&args("validate --frobnicate")).unwrap_err();
        assert!(e.message.contains("--frobnicate"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);

        let e = run_cli(&args("validate --kernels none")).unwrap_err();
        assert!(e.message.contains("nothing to do"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);

        let e = run_cli(&args("validate --designs warp-drive")).unwrap_err();
        assert!(e.message.contains("unknown design"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
    }

    #[test]
    fn validate_unknown_kernel_is_a_general_error() {
        let e = run_cli(&args("validate --kernels warpcore")).unwrap_err();
        assert!(e.message.contains("warpcore"), "{}", e.message);
        assert_eq!(e.code, exit_codes::GENERAL);
    }

    #[test]
    fn failure_classes_map_to_distinct_exit_codes() {
        // Usage: mistyped flag. General: a run that fails to build.
        let usage = run_cli(&args("validate --commits nope")).unwrap_err();
        let general = run_cli(&args("run --mix notabench")).unwrap_err();
        assert_eq!(usage.code, exit_codes::USAGE);
        assert_eq!(general.code, exit_codes::GENERAL);
        assert_ne!(usage.code, general.code);
        assert_ne!(exit_codes::DIVERGENCE, exit_codes::INVARIANT);
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn chaos_flag_requires_the_chaos_build() {
        let e = run_cli(&args("validate --chaos skip-writeback:10")).unwrap_err();
        assert!(e.message.contains("chaos-enabled build"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_mutations_are_detected_with_divergence_exit_code() {
        let e = run_cli(&args(
            "validate --kernels branchy --designs base64 --commits 800 --chaos skip-writeback:100",
        ))
        .unwrap_err();
        assert_eq!(e.code, exit_codes::DIVERGENCE);
        assert!(e.message.contains("diverged"), "{}", e.message);

        let e = run_cli(&args("validate --chaos bogus:5")).unwrap_err();
        assert_eq!(e.code, exit_codes::USAGE);
        assert!(e.message.contains("bogus"), "{}", e.message);
    }

    #[test]
    fn trace_shows_pipeline_lanes() {
        let out = run_cli(&args(
            "trace --mix hmmer,gcc --design shelf-opt --warmup 1000 --measure 4000",
        ))
        .expect("ok");
        assert!(out.contains("pipeline"));
        assert!(out.lines().count() > 40, "should show ~48 records");
        assert!(out.contains("shelf") || out.contains("IQ"));
        // The reworked subcommand also prints the stall-attribution table.
        assert!(out.contains("stall attribution"), "summary table present");
        assert!(out.contains("dispatch") && out.contains("issue"));
    }

    #[test]
    fn trace_writes_jsonl_and_chrome_exports() {
        let dir = std::env::temp_dir().join(format!("shelfsim-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let jsonl = dir.join("t.jsonl");
        let chrome = dir.join("t.json");
        let cmd = format!(
            "trace --mix gcc,mcf --design base64 --warmup 500 --measure 2000 \
             --window 128 --sample 4 --jsonl {} --chrome {}",
            jsonl.display(),
            chrome.display()
        );
        let out = run_cli(&args(&cmd)).expect("ok");
        assert!(out.contains("wrote"), "reports the files it wrote");
        let j = std::fs::read_to_string(&jsonl).expect("jsonl written");
        assert!(j.lines().count() > 8, "meta + insts + occ + stalls");
        assert!(j.starts_with("{\"type\":\"meta\""));
        assert!(j.contains("\"type\":\"inst\""));
        let c = std::fs::read_to_string(&chrome).expect("chrome written");
        assert!(c.starts_with("{\"displayTimeUnit\""));
        assert!(c.contains("\"ph\":\"X\"") && c.contains("\"ph\":\"C\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builtin_kernels_run_via_asm() {
        let out = run_cli(&args("asm builtin:triad --warmup 500 --measure 2000")).expect("ok");
        assert!(out.contains("IPC"));
        let e = run_cli(&args("asm builtin:nope")).unwrap_err();
        assert!(e.message.contains("unknown builtin"));
    }

    #[test]
    fn kernels_lists_the_library() {
        let out = run_cli(&args("kernels")).expect("ok");
        assert!(out.contains("triad"));
        assert!(out.contains("chase"));
        assert!(out.lines().count() >= 8);
    }

    #[test]
    fn characterize_reports_measured_mix() {
        let out = run_cli(&args("characterize mcf")).expect("ok");
        assert!(out.contains("mcf"));
        assert!(out.contains("data-set"));
        assert_eq!(out.lines().count(), 2, "header + one row");
    }

    #[test]
    fn bench_compare_renders_delta_table_and_rejects_bad_baselines() {
        let dir = std::env::temp_dir().join("shelfsim_bench_compare_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let baseline = dir.join("base.json");
        // A tiny real bench provides a schema-true baseline document.
        let mut plan = shelfsim_bench::engine::engine_micro(1_000, 7);
        plan.warmup = 200;
        plan.entries.truncate(1);
        let rep = shelfsim_bench::engine::run_plan(&plan).expect("plan runs");
        std::fs::write(&baseline, rep.to_json()).expect("write baseline");

        let out = run_cli(&args(&format!(
            "bench --measure 1000 --out - --compare {}",
            baseline.display()
        )))
        .expect("ok");
        assert!(out.contains("baseline comparison"), "{out}");
        assert!(out.contains("aggregate kIPS:"), "{out}");
        // The truncated baseline covers one cell; the rest render n/a.
        assert!(out.contains("n/a"), "{out}");

        let missing = dir.join("nope.json");
        let e = run_cli(&args(&format!(
            "bench --measure 1000 --out - --compare {}",
            missing.display()
        )))
        .unwrap_err();
        assert!(e.message.contains("cannot read"), "{}", e.message);

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"schema\": \"other\"}").expect("write");
        let e = run_cli(&args(&format!(
            "bench --measure 1000 --out - --compare {}",
            garbage.display()
        )))
        .unwrap_err();
        assert!(
            e.message.contains("not a shelfsim-bench-v1"),
            "{}",
            e.message
        );
    }

    #[test]
    fn asm_runs_a_kernel_from_disk() {
        let dir = std::env::temp_dir().join("shelfsim_asm_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("k.s");
        std::fs::write(&path, "top:\n add r8, r8\n loop top, trips=50\n").expect("write");
        let out = run_cli(&[
            "asm".to_owned(),
            path.to_string_lossy().into_owned(),
            "--warmup".to_owned(),
            "500".to_owned(),
            "--measure".to_owned(),
            "2000".to_owned(),
        ])
        .expect("ok");
        assert!(out.contains("IPC"));
        assert!(out.contains("committed"));
    }

    #[test]
    fn asm_reports_parse_errors_with_location() {
        let dir = std::env::temp_dir().join("shelfsim_asm_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("bad.s");
        std::fs::write(&path, "add r8, r8\nbogus r1\n").expect("write");
        let e = run_cli(&["asm".to_owned(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.message.contains("line 2"), "{}", e.message);
    }

    /// Path of a kernel shipped in the repository's `kernels/` directory.
    fn shipped_kernel(name: &str) -> String {
        format!("{}/../../kernels/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn lint_shipped_kernels_are_clean() {
        for k in ["chase.s", "daxpy.s", "store_forward.s"] {
            let out = run_cli(&["lint".to_owned(), shipped_kernel(k)])
                .unwrap_or_else(|e| panic!("{k} should lint clean:\n{e}"));
            assert!(
                out.contains("0 error(s), 0 warning(s)"),
                "{k} not clean:\n{out}"
            );
        }
    }

    #[test]
    fn lint_catches_seeded_def_before_use() {
        let dir = std::env::temp_dir().join("shelfsim_lint_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("buggy.s");
        // r15 is never written and is not an input register.
        std::fs::write(&path, "top:\n add r8, r15\n loop top, trips=50\n").expect("write");
        let e = run_cli(&["lint".to_owned(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.message.contains("SA001"), "{}", e.message);
        assert!(e.message.contains("r15"), "{}", e.message);
        assert!(
            e.message.contains("buggy.s:2"),
            "span should point at the read: {}",
            e.message
        );
    }

    #[test]
    fn lint_catches_contradictory_config() {
        let dir = std::env::temp_dir().join("shelfsim_lint_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("bad.cfg");
        // 4 threads cannot each dispatch into a 4-entry ROB.
        std::fs::write(&path, "design = base64\nthreads = 4\nrob = 4\n").expect("write");
        let e = run_cli(&["lint".to_owned(), path.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.message.contains("SC001"), "{}", e.message);
        assert!(e.message.contains("error"), "{}", e.message);
    }

    #[test]
    fn lint_design_reports_clean_for_evaluated_designs() {
        for d in ["base64", "base128", "shelf-cons", "shelf-opt"] {
            let out = run_cli(&args(&format!("lint --design {d}"))).expect("clean design");
            assert!(out.contains("0 error(s)"), "{d}: {out}");
        }
    }

    #[test]
    fn lint_json_format_is_structured() {
        let out = run_cli(&[
            "lint".to_owned(),
            "--format".to_owned(),
            "json".to_owned(),
            shipped_kernel("daxpy.s"),
        ])
        .expect("ok");
        assert!(out.trim_start().starts_with('['), "{out}");
        assert!(
            out.contains("\"code\":\"SA004\""),
            "series estimate expected: {out}"
        );
    }

    #[test]
    fn lint_requires_an_input() {
        let e = run_cli(&args("lint")).unwrap_err();
        assert!(
            e.message.contains("requires at least one FILE"),
            "{}",
            e.message
        );
    }

    #[test]
    fn lint_rejects_unknown_design_and_option() {
        let e = run_cli(&args("lint --design warp-drive")).unwrap_err();
        assert!(e.message.contains("unknown design"), "{}", e.message);
        let e = run_cli(&args("lint --frobnicate x.s")).unwrap_err();
        assert!(e.message.contains("unknown option"), "{}", e.message);
    }

    #[test]
    fn numeric_flag_errors_echo_the_offending_value() {
        let e = run_cli(&args("run --mix gcc --warmup abc")).unwrap_err();
        assert!(e.message.contains("--warmup"), "{}", e.message);
        assert!(e.message.contains("`abc`"), "{}", e.message);
        let e = run_cli(&args("sweep --param shelf --values 16,banana --mix gcc")).unwrap_err();
        assert!(e.message.contains("`banana`"), "{}", e.message);
        let e = run_cli(&args("mixes --count -3")).unwrap_err();
        assert!(e.message.contains("`-3`"), "{}", e.message);
    }

    #[test]
    fn unknown_design_error_lists_valid_names() {
        let e = run_cli(&args("run --mix gcc --design warp-drive")).unwrap_err();
        assert!(e.message.contains("warp-drive"), "{}", e.message);
        assert!(e.message.contains("base64"), "{}", e.message);
        assert!(e.message.contains("shelf-opt"), "{}", e.message);
    }

    #[test]
    fn run_until_reports_truncation() {
        // An absurd commit target with a tiny cycle budget must be reported
        // as truncated, not silently passed off as a full measurement.
        let out = run_cli(&args(
            "run --mix hmmer --design base64 --warmup 200 --until 1000000 --measure 500",
        ))
        .expect("ok");
        assert!(out.contains("TRUNCATED"), "{out}");
        let out = run_cli(&args(
            "run --mix hmmer --design base64 --warmup 200 --until 1000000 --measure 500 --json",
        ))
        .expect("ok");
        assert!(
            out.contains("\"completion\":\"max-cycles-expired\""),
            "{out}"
        );
    }

    fn campaign_journal_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shelfsim_cli_campaign_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_runs_faulted_matrix_and_resumes() {
        let journal = campaign_journal_dir("cli");
        let cmd = format!(
            "campaign --designs base64,shelf-opt --mix gcc,mcf --mix hmmer,lbm \
             --warmup 200 --measure 1200 --watchdog 5000 --workers 2 \
             --fault-panics 1 --fault-persistent-panics 1 --fault-seed 3 \
             --journal-dir {}",
            journal.display()
        );
        let out = run_cli(&args(&cmd)).expect("campaign completes despite faults");
        assert!(out.contains("campaign: 4 runs"), "{out}");
        assert!(out.contains("3 completed, 1 quarantined"), "{out}");
        assert!(out.contains("taxonomy:"), "{out}");
        // Same invocation again: everything resumes from the journal.
        let out = run_cli(&args(&cmd)).expect("resume");
        assert!(out.contains("4 resumed from journal"), "{out}");
    }

    #[test]
    fn journal_dir_naming_a_file_is_a_usage_error() {
        let dir = campaign_journal_dir("file_arg");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let file = dir.join("old.jsonl");
        std::fs::write(&file, "").expect("write");
        for verb in ["campaign --mix gcc", "sweep --thread-counts 1 --mixes 1"] {
            let e =
                run_cli(&args(&format!("{verb} --journal-dir {}", file.display()))).unwrap_err();
            assert_eq!(e.code, exit_codes::USAGE, "{verb}: {}", e.message);
            assert!(e.message.contains("into a directory"), "{}", e.message);
        }
    }

    #[test]
    fn campaign_json_output_is_structured() {
        let out = run_cli(&args(
            "campaign --designs base64 --mix gcc,mcf --warmup 200 --measure 1200 --json",
        ))
        .expect("ok");
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"completed\":1"), "{out}");
        assert!(out.contains("\"per_design\""), "{out}");
    }

    #[test]
    fn campaign_validates_designs_and_fault_budget() {
        let e = run_cli(&args("campaign --designs warp-drive --mix gcc,mcf")).unwrap_err();
        assert!(e.message.contains("unknown design"), "{}", e.message);
        let e = run_cli(&args(
            "campaign --designs base64 --mix gcc,mcf --fault-panics 5",
        ))
        .unwrap_err();
        assert!(e.message.contains("victim"), "{}", e.message);
        let e = run_cli(&args("campaign --workers nope")).unwrap_err();
        assert!(e.message.contains("`nope`"), "{}", e.message);
    }

    fn sweep_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("shelfsim_cli_sweep_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn sweep_matrix_dry_run_previews_without_simulating() {
        let dir = sweep_dir("dry");
        let cmd = format!(
            "sweep --designs base64 --thread-counts 2 --mixes 1 --workers 2 \
             --warmup 100 --measure 400 --journal-dir {dir}"
        );
        // Cold preview: every run is a miss, nothing simulates (the
        // journal directory is never even created).
        let out = run_cli(&args(&format!("{cmd} --dry-run"))).expect("dry run");
        assert!(out.contains("sweep matrix: 1 designs"), "{out}");
        assert!(out.contains("0 hits, 3 misses"), "{out}");
        // One 2-thread mix plus its two single-thread references: three
        // distinct warm-ups.
        assert!(out.contains("3 warm-ups for 3 pending runs"), "{out}");
        assert!(out.contains("dry run: 0 cycles simulated"), "{out}");
        let out = run_cli(&args(&format!(
            "sweep --designs base64,shelf-opt,base128 --thread-counts 2 --mixes 1 \
             --warmup 100 --measure 400 --journal-dir {dir} --dry-run"
        )))
        .expect("three-design dry run");
        assert!(out.contains("3 warm-ups for 9 pending runs"), "{out}");
        assert!(!std::path::Path::new(&dir).exists(), "dry run wrote files");

        // Real run, then a warm preview: everything dedupes by config hash.
        let out = run_cli(&args(&cmd)).expect("sweep");
        assert!(out.contains("3 completed"), "{out}");
        let out = run_cli(&args(&format!("{cmd} --dry-run"))).expect("warm dry run");
        assert!(out.contains("3 hits, 0 misses (100.0% cached"), "{out}");
        assert!(out.contains("0 warm-ups for 0 pending runs"), "{out}");

        let out = run_cli(&args(&format!("{cmd} --dry-run --json"))).expect("json dry run");
        assert!(out.contains("\"misses\":0"), "{out}");
        assert!(out.contains("\"warmups\":0"), "{out}");
        assert!(out.contains("\"shards\":["), "{out}");
    }

    #[test]
    fn sweep_matrix_runs_resumes_and_reports_pareto() {
        let dir = sweep_dir("pareto");
        let cmd = format!(
            "sweep --designs base64,shelf-opt --thread-counts 2 --mixes 1 \
             --workers 2 --warmup 100 --measure 400 --journal-dir {dir}"
        );
        let out = run_cli(&args(&cmd)).expect("sweep");
        assert!(out.contains("sweep matrix: 2 designs"), "{out}");
        assert!(out.contains("6 completed"), "{out}");

        // Re-invoking with --pareto: 100% cache hits, frontier over the
        // merged shards.
        let out = run_cli(&args(&format!("{cmd} --pareto"))).expect("pareto");
        assert!(out.contains("6 hits, 0 misses"), "{out}");
        assert!(out.contains("6 resumed from journal"), "{out}");
        assert!(out.contains("pareto: 2 design points"), "{out}");
        assert!(out.contains("[*]"), "{out}");

        let out = run_cli(&args(&format!("{cmd} --pareto --json"))).expect("pareto json");
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"on_frontier\":true"), "{out}");
    }

    #[test]
    fn sweep_matrix_works_without_a_journal_and_validates_flags() {
        // Journal-less one-shot sweep with an inline Pareto report.
        let out = run_cli(&args(
            "sweep --designs base64 --thread-counts 2 --mixes 1 \
             --warmup 100 --measure 400 --pareto",
        ))
        .expect("journal-less sweep");
        assert!(out.contains("pareto: 1 design points"), "{out}");

        let e = run_cli(&args("sweep --designs warp-drive --dry-run")).unwrap_err();
        assert!(e.message.contains("unknown design"), "{}", e.message);
        let e = run_cli(&args("sweep --thread-counts 2,0 --dry-run")).unwrap_err();
        assert!(e.message.contains("--thread-counts"), "{}", e.message);
        let e = run_cli(&args("sweep --designs base64 --frontier yes")).unwrap_err();
        assert!(e.message.contains("unknown option"), "{}", e.message);
        let e = run_cli(&args("sweep --designs base64 --workers")).unwrap_err();
        assert!(e.message.contains("requires a value"), "{}", e.message);
    }

    #[test]
    fn analyze_bounds_reports_a_table_and_sb001() {
        let out = run_cli(&args("analyze --bounds --design base64 reduce daxpy")).expect("ok");
        assert!(out.contains("SB001"), "{out}");
        assert!(out.contains("static IPC bounds"), "{out}");
        assert!(out.contains("recurrence"), "reduce is chain-bound: {out}");
        assert!(out.contains("aggregate SMT bound"), "{out}");
    }

    #[test]
    fn analyze_accepts_suite_benchmarks_and_files() {
        let out = run_cli(&args("analyze --design shelf-opt --threads 2 gcc mcf")).expect("ok");
        assert!(out.contains("0 error(s)"), "{out}");
        let out = run_cli(&[
            "analyze".to_owned(),
            "--bounds".to_owned(),
            shipped_kernel("daxpy.s"),
        ])
        .expect("ok");
        assert!(out.contains("daxpy"), "{out}");
        let e = run_cli(&args("analyze --bounds notathing")).unwrap_err();
        assert!(e.message.contains("unknown target"), "{}", e.message);
        let e = run_cli(&args("analyze")).unwrap_err();
        assert!(e.message.contains("TARGET"), "{}", e.message);
    }

    #[test]
    fn analyze_rejects_starved_shelf_with_a_span() {
        let dir = std::env::temp_dir().join("shelfsim_analyze_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("chain.s");
        // A 4-long dependent chain cannot drain a 2-entry per-thread shelf
        // (the 64-entry shelf split 32 ways).
        std::fs::write(
            &path,
            "top:\n add r8, r8\n add r8, r8\n add r8, r8\n add r8, r8\n loop top, trips=50\n",
        )
        .expect("write");
        let e = run_cli(&[
            "analyze".to_owned(),
            "--design".to_owned(),
            "shelf-inorder".to_owned(),
            "--threads".to_owned(),
            "32".to_owned(),
            path.to_string_lossy().into_owned(),
        ])
        .unwrap_err();
        assert!(e.message.contains("SR001"), "{}", e.message);
        assert!(
            e.message.contains("chain.s:"),
            "span points at the run: {}",
            e.message
        );
    }

    #[test]
    fn lint_explain_documents_codes() {
        let out = run_cli(&args("lint --explain SR001")).expect("ok");
        assert!(out.contains("SR001"), "{out}");
        assert!(out.contains("deadlock"), "{out}");
        let e = run_cli(&args("lint --explain XX999")).unwrap_err();
        assert!(
            e.message.contains("unknown diagnostic code"),
            "{}",
            e.message
        );
        assert!(
            e.message.contains("SA001"),
            "lists valid codes: {}",
            e.message
        );
    }

    #[test]
    fn lint_deny_warnings_promotes_warnings() {
        let dir = std::env::temp_dir().join("shelfsim_lint_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("warny.s");
        // The `dead` block is unreachable (nothing jumps to it): SA002,
        // a warning — clean by default, fatal under --deny-warnings.
        std::fs::write(
            &path,
            "top:\n add r8, r8\n jmp top\ndead:\n add r8, r8\n jmp dead\n",
        )
        .expect("write");
        let file = path.to_string_lossy().into_owned();
        run_cli(&["lint".to_owned(), file.clone()]).expect("warnings pass by default");
        let e = run_cli(&["lint".to_owned(), "--deny-warnings".to_owned(), file]).unwrap_err();
        assert!(e.message.contains("warning"), "{}", e.message);
    }

    #[test]
    fn campaign_preflight_rejects_and_override_applies() {
        let cmd = "campaign --designs shelf-inorder --mix gcc,mcf --override shelf=2 \
                   --warmup 200 --measure 1200";
        let out = run_cli(&args(cmd)).expect("campaign completes");
        assert!(out.contains("1 rejected"), "{out}");
        assert!(out.contains("analysis-rejected"), "{out}");
        assert!(
            out.contains("[shelf=2]"),
            "label carries the override: {out}"
        );
        // Opting out lets the run reach the simulator.
        let out = run_cli(&args(&format!("{cmd} --no-preflight"))).expect("ok");
        assert!(out.contains("0 rejected"), "{out}");
        // Malformed and unknown overrides are argument errors.
        let e = run_cli(&args("campaign --mix gcc --override shelf")).unwrap_err();
        assert!(e.message.contains("key=value"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
        let e = run_cli(&args("campaign --mix gcc --override warp=9")).unwrap_err();
        assert!(e.message.contains("unknown config key"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
    }

    #[test]
    fn campaign_validate_tier_journals_clean_runs() {
        let journal = campaign_journal_dir("validate");
        let cmd = format!(
            "campaign --designs base64 --mix gcc,mcf --warmup 200 --measure 1200 \
             --workers 1 --journal-dir {}",
            journal.display()
        );
        let out = run_cli(&args(&format!("{cmd} --validate"))).expect("campaign completes");
        assert!(out.contains("0 quarantined"), "{out}");
        let text = std::fs::read_to_string(journal.join("shard-000.jsonl")).expect("journal");
        assert!(
            text.contains("\"validated\":\"clean\""),
            "validated runs are journaled as clean: {text}"
        );
        // Resuming skips the journaled run entirely.
        let out = run_cli(&args(&format!("{cmd} --validate"))).expect("resume completes");
        assert!(out.contains("1 resumed"), "{out}");
    }

    #[test]
    fn tso_flag_is_accepted() {
        let out = run_cli(&args(
            "run --mix hmmer --design shelf-opt --tso --warmup 500 --measure 2000",
        ))
        .expect("ok");
        assert!(out.contains("IPC"));
    }
}
