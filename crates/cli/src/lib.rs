//! Implementation of the `shelfsim` command-line interface.
//!
//! The CLI wraps the simulator for interactive exploration:
//!
//! ```text
//! shelfsim suite                         # list the benchmark suite
//! shelfsim run --design shelf-opt --mix gcc,mcf,hmmer,lbm
//! shelfsim compare --mix gcc,mcf,hmmer,lbm
//! shelfsim mixes --threads 4 --count 5
//! shelfsim sweep --designs shelf-opt --override shelf=16,32,64,128 --mix gcc,mcf,hmmer,lbm
//! ```
//!
//! Every verb declares the flags it accepts in one table ([`VERBS`]), and
//! one parser enforces it. Everything is plumbed through [`run_cli`] so the
//! argument handling is unit-testable without spawning a process.

use shelfsim::trace::{EndKind, QueueKind};
use shelfsim::{
    balanced_random_mixes, suite, CampaignSpec, CoreConfig, EnergyModel, MemoryModel, RunSpec,
    Simulation,
};
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

/// One verb: its grammar and the function that runs it. `grammar` is the
/// verb's argument table, one whitespace-separated entry per argument:
/// `--name` is a switch, `--name=` takes one value, `--name=*` takes a
/// value and may be repeated, and an entry without dashes names a
/// positional argument (a last `NAME...` takes any number of them).
struct Verb {
    name: &'static str,
    grammar: &'static str,
    run: fn(&Args) -> Result<String, CliError>,
}

/// Every verb's command-line grammar. `help` (also `--help`, `-h`) is the
/// one verb outside the table.
const VERBS: &[Verb] = &[
    Verb {
        name: "suite",
        grammar: "",
        run: cmd_suite,
    },
    Verb {
        name: "kernels",
        grammar: "",
        run: cmd_kernels,
    },
    Verb {
        name: "mixes",
        grammar: "--threads= --count= --seed=",
        run: cmd_mixes,
    },
    Verb {
        name: "run",
        grammar: "--design= --mix= --warmup= --measure= --until= --seed= --tso --json",
        run: cmd_run,
    },
    Verb {
        name: "compare",
        grammar: "--mix= --warmup= --measure= --until= --seed= --tso --json",
        run: cmd_compare,
    },
    Verb {
        name: "sweep",
        grammar: "--designs= --mix=* --thread-counts= --mixes= --override=* --seed= --warmup= \
                  --measure= --workers= --journal-dir= --watchdog= --attempts= --trace-dir= \
                  --fault-panics= --fault-persistent-panics= --fault-stalls= --fault-livelocks= \
                  --fault-seed= --no-preflight --validate --dry-run --pareto --json",
        run: cmd_sweep,
    },
    Verb {
        name: "trace",
        grammar: "--design= --mix= --warmup= --measure= --seed= --tso --window= --sample= \
                  --jsonl= --chrome=",
        run: cmd_trace,
    },
    Verb {
        name: "asm",
        grammar: "FILE --design= --mix= --warmup= --measure= --tso",
        run: cmd_asm,
    },
    Verb {
        name: "characterize",
        grammar: "BENCH",
        run: cmd_characterize,
    },
    Verb {
        name: "analyze",
        grammar: "--bounds --json --design= --threads= --seed= TARGET...",
        run: cmd_analyze,
    },
    Verb {
        name: "lint",
        grammar: "--deny-warnings --explain= --format= --design= --threads= FILE...",
        run: cmd_lint,
    },
    Verb {
        name: "validate",
        grammar: "--designs= --threads= --kernels= --suite= --generated= --seed= --commits= \
                  --max-cycles= --warmup= --sweep --json --no-skip --shrink-dir= --chaos=",
        run: cmd_validate,
    },
];

/// A verb's command line after [`parse`]: each flag given, with its value
/// (empty for a switch), in command-line order, plus the positionals.
struct Args<'a> {
    flags: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

/// Checks `args` against `verb`'s grammar. Unknown flags, missing
/// values, a non-repeatable flag given twice and surplus positionals are
/// usage errors.
fn parse<'a>(verb: &Verb, args: &'a [String]) -> Result<Args<'a>, CliError> {
    let mut parsed = Args {
        flags: vec![],
        positional: vec![],
    };
    let names: Vec<&str> = verb
        .grammar
        .split_whitespace()
        .filter(|w| !w.starts_with("--"))
        .collect();
    let max_positional = match names.last() {
        Some(last) if last.ends_with("...") => usize::MAX,
        _ => names.len(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if parsed.positional.len() == max_positional {
                return Err(uerr(format!("{}: unexpected argument `{a}`", verb.name)));
            }
            parsed.positional.push(a);
            continue;
        }
        let Some(entry) = verb
            .grammar
            .split_whitespace()
            .find(|f| f.trim_end_matches(['=', '*']) == a)
        else {
            return Err(uerr(format!("unknown option `{a}` for `{}`", verb.name)));
        };
        if !entry.ends_with('*') && parsed.has(a) {
            return Err(uerr(format!("{a} given more than once")));
        }
        let value = if entry.contains('=') {
            it.next()
                .ok_or_else(|| uerr(format!("{a} requires a value")))?
        } else {
            ""
        };
        parsed.flags.push((a, value));
    }
    Ok(parsed)
}

impl<'a> Args<'a> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value of `flag`, in command-line order.
    fn values(&self, flag: &str) -> Vec<&'a str> {
        self.flags
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
            .collect()
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).first().copied()
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        self.value(flag).map_or(Ok(default), |v| parse_num(flag, v))
    }

    /// A comma-separated list value, or `default`.
    fn list(&self, flag: &str, default: &[&str]) -> Vec<String> {
        self.value(flag)
            .map_or(default.to_vec(), |v| v.split(',').collect())
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// A comma-separated numeric list value, or `default`.
    fn nums<T: std::str::FromStr + Clone>(
        &self,
        flag: &str,
        default: &[T],
    ) -> Result<Vec<T>, CliError> {
        match self.value(flag) {
            Some(v) => v.split(',').map(|x| parse_num(flag, x)).collect(),
            None => Ok(default.to_vec()),
        }
    }

    /// A hardware-thread count, range-checked by [`check_threads`].
    fn threads(&self, flag: &str, default: usize) -> Result<usize, CliError> {
        check_threads(flag, self.num(flag, default)?)
    }
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

/// The `--mix` benchmarks a simulating verb requires.
fn mix_arg(p: &Args, verb: &str) -> Result<Vec<String>, CliError> {
    let mix = p.list("--mix", &[]);
    if mix.is_empty() {
        return Err(uerr(format!("{verb} requires --mix bench1,bench2,...")));
    }
    Ok(mix)
}

/// `design`'s configuration for `threads` contexts, TSO under `--tso`.
fn sim_config(p: &Args, design: &str, threads: usize) -> Result<CoreConfig, CliError> {
    let mut cfg = design_config(design, threads)?;
    if p.has("--tso") {
        cfg.memory_model = MemoryModel::Tso;
    }
    Ok(cfg)
}

fn run_one(cfg: CoreConfig, mix: &[String], p: &Args, out: &mut String) -> Result<f64, CliError> {
    let warmup = p.num("--warmup", 10_000)?;
    let measure = p.num("--measure", 40_000)?;
    let until: Option<u64> = p
        .value("--until")
        .map(|v| parse_num("--until", v))
        .transpose()?;
    let seed = p.num("--seed", 7)?;
    let names: Vec<&str> = mix.iter().map(String::as_str).collect();
    let model = EnergyModel::for_config(&cfg);
    let mut sim = Simulation::from_names(cfg, &names, seed).map_err(|e| err(e.to_string()))?;
    // `--until N` switches to equal-work measurement: run until every
    // thread commits N instructions, with `--measure` as the cycle budget.
    // The completion tag in the output says whether the target was reached
    // or the budget expired (formerly silent truncation).
    let r = match until {
        Some(insts) => sim.run_until_committed(warmup, insts, measure),
        None => sim.run(warmup, measure),
    };
    let rep = model.report(&r);
    if p.has("--json") {
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
    let Some(cmd) = args.first() else {
        return Err(uerr(usage()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let verb = VERBS
        .iter()
        .find(|v| v.name == cmd)
        .ok_or_else(|| uerr(format!("unknown command `{cmd}`\n{}", usage())))?;
    (verb.run)(&parse(verb, &args[1..])?)
}

fn cmd_kernels(_: &Args) -> Result<String, CliError> {
    let mut out = String::new();
    for k in shelfsim::workload::kernels::all() {
        writeln!(out, "{:<10} {}", k.name, k.description).expect("write");
    }
    Ok(out)
}

fn cmd_suite(_: &Args) -> Result<String, CliError> {
    let mut out = String::new();
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
    Ok(out)
}

fn cmd_mixes(p: &Args) -> Result<String, CliError> {
    let threads = p.threads("--threads", 4)?;
    let count: usize = p.num("--count", 28)?;
    let seed = p.num("--seed", 7)?;
    let mut out = String::new();
    let names = suite::names();
    for m in balanced_random_mixes(&names, threads, 28, seed)
        .iter()
        .take(count)
    {
        writeln!(out, "{}", m.label()).expect("write");
    }
    Ok(out)
}

fn cmd_run(p: &Args) -> Result<String, CliError> {
    let mix = mix_arg(p, "run")?;
    let cfg = sim_config(p, p.value("--design").unwrap_or("shelf-opt"), mix.len())?;
    let mut out = String::new();
    run_one(cfg, &mix, p, &mut out)?;
    Ok(out)
}

fn cmd_compare(p: &Args) -> Result<String, CliError> {
    let mix = mix_arg(p, "compare")?;
    let mut out = String::new();
    // The first design (base64) is the comparison baseline; a baseline
    // that committed nothing renders its deltas as `n/a` instead of
    // aborting the whole comparison.
    let mut base_ipc: Option<f64> = None;
    for design in [
        "base64",
        "shelf-cons",
        "shelf-opt",
        "shelf-oracle",
        "base128",
    ] {
        let cfg = sim_config(p, design, mix.len())?;
        writeln!(out, "== {design}").expect("write");
        let ipc = run_one(cfg, &mix, p, &mut out)?;
        match base_ipc {
            None => base_ipc = Some(ipc),
            Some(base) if !p.has("--json") => {
                writeln!(
                    out,
                    "IPC vs base64: {}",
                    shelfsim::stats::render_delta(shelfsim::stats::percent_delta(base, ipc))
                )
                .expect("write");
            }
            Some(_) => {}
        }
    }
    Ok(out)
}

fn cmd_characterize(p: &Args) -> Result<String, CliError> {
    // Functional characterization of benchmarks: measured mix and
    // working-set footprints over a fixed instruction sample.
    let names: Vec<&'static str> = match p.positional.first() {
        Some(first) => vec![
            suite::by_name(first)
                .ok_or_else(|| err(format!("unknown benchmark `{first}`")))?
                .name,
        ],
        None => suite::names(),
    };
    let mut out = String::new();
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
        let mut bp = shelfsim::uarch::BranchPredictor::new(Default::default());
        let mut wrong = 0u64;
        // The first half of the sample warms the predictor; only the
        // second half is measured.
        for n in 0..2 * sample {
            let measured = n >= sample;
            // Nothing is ever rewound: release each instruction at once.
            let (seq, i) = t.fetch();
            t.release_through(seq);
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
    Ok(out)
}

fn cmd_asm(p: &Args) -> Result<String, CliError> {
    let Some(&path) = p.positional.first() else {
        return Err(uerr("asm requires a kernel file path"));
    };
    let program = if let Some(name) = path.strip_prefix("builtin:") {
        shelfsim::workload::kernels::by_name(name)
            .ok_or_else(|| err(format!("unknown builtin kernel `{name}`")))?
            .assemble()
            .map_err(|e| err(format!("builtin {name}: {e}")))?
    } else {
        let src =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
        shelfsim::workload::asm::assemble(&src).map_err(|e| err(format!("{path}: {e}")))?
    };
    // `--mix` only sets the thread count: every thread runs the kernel.
    let threads = p.list("--mix", &[]).len().max(1);
    let cfg = sim_config(p, p.value("--design").unwrap_or("shelf-opt"), threads)?;
    let warmup = p.num("--warmup", 10_000)?;
    let measure: u64 = p.num("--measure", 40_000)?;
    let programs = (0..threads)
        .map(|_| (path.to_owned(), program.clone()))
        .collect();
    // An assembled kernel does not depend on the workload seed, which
    // then only stamps the run's metadata: use the CLI default.
    let run = Simulation::from_programs(cfg, programs, 7).run(warmup, measure);
    let mut out = String::new();
    writeln!(
        out,
        "kernel {path} x{threads} threads: IPC {:.3} over {measure} cycles",
        run.ipc(),
    )
    .expect("write");
    for (t, r) in run.threads.iter().enumerate() {
        writeln!(
            out,
            "  t{t}: {} committed, CPI {:.2}, in-seq {:.1}%",
            r.committed,
            measure as f64 / r.committed.max(1) as f64,
            r.in_sequence_fraction * 100.0
        )
        .expect("write");
    }
    Ok(out)
}

fn cmd_trace(p: &Args) -> Result<String, CliError> {
    let mix = mix_arg(p, "trace")?;
    let cfg = sim_config(p, p.value("--design").unwrap_or("shelf-opt"), mix.len())?;
    let window: usize = p.num("--window", 256)?;
    if window == 0 {
        return Err(uerr("--window must be at least 1"));
    }
    let sample: u64 = p.num("--sample", 8)?;
    let warmup = p.num("--warmup", 10_000)?;
    let measure = p.num("--measure", 40_000)?;
    let names: Vec<&str> = mix.iter().map(String::as_str).collect();
    let mut sim =
        Simulation::from_names(cfg, &names, p.num("--seed", 7)?).map_err(|e| err(e.to_string()))?;
    sim.enable_tracer(window, sample.max(1));
    let _ = sim.run(warmup, measure);
    let mut out = String::new();
    writeln!(
        out,
        "{:<4} {:>8} {:<8} {:<6} {:>7} {:>8} {:>7} {:>8} {:>7}  pipeline",
        "thr", "seq", "op", "queue", "fetch", "dispatch", "issue", "complete", "commit"
    )
    .expect("write");
    let tracer = sim.tracer().expect("tracer enabled above");
    // The lane chart draws the last 48 committed lifecycles in the
    // tracer's ring (commits always carry issue and writeback cycles).
    let commits: Vec<_> = tracer
        .lifecycles()
        .filter_map(|r| match (r.end_kind, r.issue, r.writeback) {
            (EndKind::Commit, Some(issue), Some(complete)) => Some((r, issue, complete)),
            _ => None,
        })
        .collect();
    let records = &commits[commits.len().saturating_sub(48)..];
    let base = records.iter().map(|(r, ..)| r.fetch).min().unwrap_or(0);
    for &(r, issue, complete) in records {
        let lane = |c: u64| ((c - base) / 2).min(38) as usize;
        let mut bar = vec![b'.'; 40];
        bar[lane(r.fetch)] = b'F';
        bar[lane(r.dispatch)] = b'D';
        bar[lane(issue)] = b'I';
        bar[lane(complete)] = b'C';
        bar[lane(r.end)] = b'R';
        writeln!(
            out,
            "t{:<3} {:>8} {:<8} {:<6} {:>7} {:>8} {:>7} {:>8} {:>7}  {}",
            r.thread,
            r.seq,
            r.op.to_string(),
            match r.queue {
                QueueKind::Iq => "IQ",
                QueueKind::Shelf => "shelf",
            },
            r.fetch,
            r.dispatch,
            issue,
            complete,
            r.end,
            String::from_utf8_lossy(&bar),
        )
        .expect("write");
    }
    out.push_str("\nstall attribution (% of measured cycles per thread):\n");
    out.push_str(&tracer.stall_summary());
    if let Some(path) = p.value("--jsonl") {
        std::fs::write(path, tracer.export_jsonl())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").expect("write");
    }
    if let Some(path) = p.value("--chrome") {
        std::fs::write(path, tracer.export_chrome())
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "wrote {path}").expect("write");
    }
    Ok(out)
}

/// Mixes grouped by thread count, as `(threads, mixes)`: the shape of
/// [`shelfsim::SweepSpec::mix_plan`].
type MixPlan = Vec<(usize, Vec<Vec<String>>)>;

/// The sweep's workloads: each `--mix` in order when any is given,
/// otherwise [`shelfsim::SweepSpec::mix_plan`] over `--thread-counts` ×
/// `--mixes` (single-thread STP references included).
fn sweep_workloads(p: &Args, seed: u64) -> Result<MixPlan, CliError> {
    let explicit = p.values("--mix");
    if explicit.is_empty() {
        let thread_counts: Vec<usize> = p.nums("--thread-counts", &[2, 4])?;
        for &t in &thread_counts {
            check_threads("--thread-counts", t)?;
        }
        let sweep = shelfsim::SweepSpec {
            designs: vec![],
            thread_counts,
            mixes_per_count: p.num("--mixes", 2)?,
            seed,
            warmup: 0,
            measure: 0,
        };
        return Ok(sweep.mix_plan());
    }
    if p.has("--thread-counts") || p.has("--mixes") {
        return Err(uerr(
            "--mix lists the mixes explicitly; it cannot be combined with \
             --thread-counts or --mixes",
        ));
    }
    let mut plan: MixPlan = vec![];
    for m in explicit {
        let mix: Vec<String> = m.split(',').map(str::to_owned).collect();
        let threads = check_threads("--mix", mix.len())?;
        match plan.last_mut() {
            Some((t, mixes)) if *t == threads => mixes.push(mix),
            _ => plan.push((threads, vec![mix])),
        }
    }
    Ok(plan)
}

/// The override axis: the cartesian product of every
/// `--override key=v1,v2,…` in flag order, one override set per design
/// point (a single empty set without `--override`).
fn override_sets(p: &Args) -> Result<Vec<Vec<(String, String)>>, CliError> {
    let mut sets: Vec<Vec<(String, String)>> = vec![vec![]];
    for o in p.values("--override") {
        let (key, values) = o
            .split_once('=')
            .ok_or_else(|| uerr(format!("--override: expected key=value, got `{o}`")))?;
        sets = sets
            .iter()
            .flat_map(|set| {
                values.split(',').map(move |v| {
                    let mut set = set.clone();
                    set.push((key.to_owned(), v.to_owned()));
                    set
                })
            })
            .collect();
    }
    Ok(sets)
}

/// `shelfsim sweep`: the design × override set × workload matrix, every
/// run through [`shelfsim::run_campaign`] (pre-flight, watchdog, retries,
/// quarantine, optional fault injection and validation tier) on the
/// worker pool with one journal shard per worker. Requested runs dedupe
/// against merged journal history by config hash. `--dry-run` prints the
/// matrix size, cache-hit preview and the warm-ups of the campaign's
/// [`shelfsim::Schedule`] without simulating; `--pareto` appends the
/// STP/EDP/area Pareto report over the merged history.
fn cmd_sweep(p: &Args) -> Result<String, CliError> {
    let designs = p.list("--designs", &["base64", "shelf-opt"]);
    for d in &designs {
        design_config(d, 1)?;
    }
    let seed = p.num("--seed", 7)?;
    let warmup = p.num("--warmup", 2_000)?;
    let measure = p.num("--measure", 10_000)?;
    let workloads = sweep_workloads(p, seed)?;
    let mixes: Vec<Vec<String>> = workloads.iter().flat_map(|(_, m)| m.clone()).collect();
    let override_sets = override_sets(p)?;
    if override_sets.len() > 1 && p.has("--pareto") {
        return Err(uerr(
            "--pareto groups design points by design name, so it cannot score a \
             multi-valued --override axis",
        ));
    }
    let reference = shelfsim::campaign::STP_REFERENCE;
    if p.has("--pareto") && !designs.iter().any(|d| d == reference) {
        return Err(uerr(format!(
            "--pareto scores STP against {reference}'s single-thread CPIs, so \
             --designs must include {reference}"
        )));
    }
    // Designs outer, override sets middle, workloads inner; the fault plan
    // keys on the matrix index, so runs are indexed after the product.
    let mut runs: Vec<RunSpec> = vec![];
    for design in &designs {
        for overrides in &override_sets {
            for r in
                CampaignSpec::matrix(std::slice::from_ref(design), &mixes, seed, warmup, measure)
            {
                runs.push(RunSpec {
                    index: runs.len(),
                    overrides: overrides.clone(),
                    ..r
                });
            }
        }
    }
    // Resolve every design point now, so one bad axis value fails the
    // command line rather than quarantining its runs one by one.
    for r in &runs {
        r.resolved_config()
            .map_err(|e| uerr(format!("--override: {e}")))?;
    }
    let faults = shelfsim::FaultMix {
        panics: p.num("--fault-panics", 0)?,
        persistent_panics: p.num("--fault-persistent-panics", 0)?,
        stalls: p.num("--fault-stalls", 0)?,
        livelocks: p.num("--fault-livelocks", 0)?,
    };
    let fault_seed = p.num("--fault-seed", 0)?;
    if faults.total() > runs.len() {
        return Err(uerr(format!(
            "fault injection wants {} victim runs but the sweep has only {}",
            faults.total(),
            runs.len()
        )));
    }
    let workers = p.num("--workers", 2)?.clamp(1, runs.len());
    let journal_dir = p.value("--journal-dir").map(journal_dir_arg).transpose()?;
    let watchdog: u64 = p.num("--watchdog", 100_000)?;
    let mut spec = CampaignSpec::new(runs)
        .with_watchdog((watchdog > 0).then_some(watchdog))
        .with_max_attempts(p.num("--attempts", 3)?)
        .with_workers(workers)
        .with_preflight(!p.has("--no-preflight"))
        .with_validate(p.has("--validate"));
    if faults.total() > 0 {
        let plan = shelfsim::FaultPlan::seeded(fault_seed, spec.runs.len(), faults);
        spec = spec.with_faults(plan);
    }
    if let Some(dir) = &journal_dir {
        spec = spec.with_journal_dir(dir);
    }
    if let Some(dir) = p.value("--trace-dir") {
        spec = spec.with_trace_dir(dir);
    }

    // Admission preview against merged journal history (shared by the
    // dry run and the real run's header).
    let sharded = journal_dir.as_deref().map(shelfsim::ShardedJournal::new);
    let cache = shelfsim::ResultCache::load(sharded.as_ref(), None)
        .map_err(|e| err(format!("sweep journal: {e}")))?;
    let runs = &spec.runs;
    let admission = cache.admit(runs);
    let mut header = String::new();
    let breakdown: Vec<String> = workloads
        .iter()
        .map(|(t, m)| format!("{} @ {}t", m.len(), t))
        .collect();
    let axis = match override_sets.len() {
        1 => String::new(),
        n => format!(" x {n} override sets"),
    };
    writeln!(
        header,
        "sweep matrix: {} designs{axis} x ({}) workloads = {} runs",
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

    if p.has("--dry-run") {
        // The schedule `run_campaign` would follow: one warm-up per unit
        // (design points of one mix share a warm-up, see `WarmKey`) that
        // has a run the pre-flight accepts.
        let warmups =
            shelfsim::Schedule::new(runs, &admission.misses, workers).warmups(runs, spec.preflight);
        if p.has("--json") {
            return Ok(format!(
                "{{\"runs\":{},\"hits\":{},\"misses\":{},\"warmups\":{warmups},\"workers\":{}}}\n",
                runs.len(),
                admission.hits.len(),
                admission.misses.len(),
                workers,
            ));
        }
        let mut out = header;
        writeln!(
            out,
            "{warmups} warm-ups for {} pending runs on {workers} worker{}",
            admission.misses.len(),
            if workers == 1 { "" } else { "s" }
        )
        .expect("write");
        out.push_str("dry run: 0 cycles simulated\n");
        return Ok(out);
    }

    let report = shelfsim::run_campaign(&spec).map_err(|e| err(format!("sweep journal: {e}")))?;

    // Pareto scores over the full merged history when a journal directory
    // is present (earlier sweeps contribute points); otherwise over this
    // invocation's records.
    let pareto_entries = if p.has("--pareto") {
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

    if p.has("--json") {
        // Machine output stays pure JSON: the Pareto report when asked
        // for, the campaign report otherwise.
        return Ok(match &pareto_entries {
            Some(entries) => shelfsim::pareto_report(entries, workers).render_json(),
            None => report.render_json() + "\n",
        });
    }
    let mut out = header;
    out.push_str(&report.render_text());
    if let Some(entries) = &pareto_entries {
        out.push_str(&shelfsim::pareto_report(entries, workers).render_text());
    }
    Ok(out)
}

fn cmd_analyze(p: &Args) -> Result<String, CliError> {
    if p.positional.is_empty() {
        return Err(uerr(
            "analyze requires at least one TARGET (.s kernel file, built-in \
             kernel name, or suite benchmark name)",
        ));
    }
    let design = p.value("--design").unwrap_or("shelf-opt");
    let threads: usize = p.num("--threads", 1)?;
    let seed = p.num("--seed", 7)?;
    // Like `lint`, static analysis may study more contexts than the
    // simulator has, so it skips `design_config`'s range check.
    let cfg =
        shelfsim::analyze::design_by_name(design, threads).ok_or_else(|| unknown_design(design))?;
    let mut diags = shelfsim::analyze::lint_config(&cfg);
    // Each target resolves to a program: a `.s` file keeps its source
    // spans, a built-in kernel or suite benchmark does not.
    let mut programs: Vec<(&str, shelfsim::workload::program::Program)> = vec![];
    for &target in &p.positional {
        let (program, lines) = if target.ends_with(".s") {
            let text = std::fs::read_to_string(target)
                .map_err(|e| err(format!("cannot read `{target}`: {e}")))?;
            match shelfsim::workload::asm::assemble_with_lines(&text) {
                Ok((program, lines)) => (program, Some(lines)),
                Err(e) => {
                    let msg = format!("assembly failed: {}", e.message);
                    let d = shelfsim::Diagnostic::new("SA000", shelfsim::Severity::Error, msg);
                    diags.push(d.with_span(target, e.line));
                    continue;
                }
            }
        } else if let Some(k) = shelfsim::workload::kernels::by_name(target) {
            let program = k.assemble().map_err(|e| err(format!("{target}: {e}")))?;
            (program, None)
        } else if let Some(b) = suite::by_name(target) {
            let seed = shelfsim::core::thread_program_seed(seed, programs.len());
            (b.build_program(seed), None)
        } else {
            return Err(err(format!(
                "unknown target `{target}` (expected a .s file, a built-in \
                 kernel, or a suite benchmark)"
            )));
        };
        let source = lines.as_ref().map(|l| (target, l));
        diags.extend(shelfsim::analyze::lint_program(&program, source));
        diags.extend(shelfsim::analyze::check_adequacy(&program, &cfg, source));
        programs.push((target, program));
    }
    let mut reports: Vec<shelfsim::IpcBoundReport> = vec![];
    if p.has("--bounds") {
        for (name, program) in &programs {
            let mut r = shelfsim::ipc_bound(program, &cfg);
            r.name = (*name).to_owned();
            diags.push(r.diagnostic());
            reports.push(r);
        }
    }
    let report = shelfsim::Report::new(diags);
    let rendered = if p.has("--json") {
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
    Ok(rendered)
}

fn cmd_lint(p: &Args) -> Result<String, CliError> {
    if let Some(code) = p.value("--explain") {
        let info = shelfsim::analyze::code_info(&code.to_uppercase()).ok_or_else(|| {
            err(format!(
                "unknown diagnostic code `{code}` (expected one of: {})",
                shelfsim::analyze::REGISTRY
                    .iter()
                    .map(|c| c.code)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        return Ok(format!(
            "{} ({:?}): {}\n\n{}\n",
            info.code,
            info.severity,
            info.summary,
            info.explain.trim()
        ));
    }
    let format_json = match p.value("--format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => {
            return Err(uerr(format!(
                "--format: expected `text` or `json`, got `{other}`"
            )))
        }
    };
    let design = p.value("--design");
    let threads = p.num("--threads", 4)?;
    if p.positional.is_empty() && design.is_none() {
        return Err(uerr(
            "lint requires at least one FILE (.s kernel or key=value config) \
             or --design NAME",
        ));
    }
    let mut diags = Vec::new();
    if let Some(name) = design {
        let cfg =
            shelfsim::analyze::design_by_name(name, threads).ok_or_else(|| unknown_design(name))?;
        diags.extend(shelfsim::analyze::lint_config(&cfg));
    }
    for &path in &p.positional {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
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
    let denied_warning = p.has("--deny-warnings")
        && report
            .diagnostics()
            .iter()
            .any(|d| d.severity == shelfsim::Severity::Warning);
    if report.has_errors() || denied_warning {
        return Err(err(rendered));
    }
    Ok(rendered)
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
fn cmd_validate(p: &Args) -> Result<String, CliError> {
    use shelfsim::validate::{
        render_json, render_text, run_lockstep, run_sweep, GenSpec, LockstepConfig, RunReport,
        Verdict,
    };
    let designs = match p.list("--designs", &["base64", "shelf-opt"]) {
        d if d == ["all"] => shelfsim::analyze::DESIGN_NAMES
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        d => d,
    };
    let threads = p.threads("--threads", 2)?;
    let kernels = match p.list("--kernels", &["all"]) {
        k if k == ["all"] => shelfsim::workload::kernels::all()
            .iter()
            .map(|k| k.name.to_owned())
            .collect(),
        k if k == ["none"] => vec![],
        k => k,
    };
    let suite_mixes: usize = p.num("--suite", 0)?;
    let generated: usize = p.num("--generated", 0)?;
    let seed = p.num("--seed", 7)?;
    let lcfg = LockstepConfig {
        commits_per_thread: p.num("--commits", 2_000)?,
        max_cycles: p.num("--max-cycles", 400_000)?,
        warmup_insts: p.num("--warmup", 1_000)?,
        cycle_skipping: !p.has("--no-skip"),
        #[cfg(feature = "chaos")]
        chaos: p.value("--chaos").map(parse_chaos_plan).transpose()?,
        ..LockstepConfig::default()
    };
    #[cfg(not(feature = "chaos"))]
    if p.has("--chaos") {
        return Err(uerr(
            "--chaos requires a chaos-enabled build \
             (cargo run --features chaos -- validate ...)",
        ));
    }

    // Assemble the workload list: kernels, suite mixes, generated programs.
    // A generated workload keeps its GenSpec so a divergence can be shrunk.
    let mut workloads: Vec<(String, Vec<shelfsim::workload::Program>, Option<GenSpec>)> =
        Vec::new();
    for name in &kernels {
        let k = shelfsim::workload::kernels::by_name(name)
            .ok_or_else(|| err(format!("unknown kernel `{name}`")))?;
        let program = k.assemble().map_err(|e| err(e.to_string()))?;
        workloads.push((format!("kernel:{name}"), vec![program; threads], None));
    }
    let names = suite::names();
    for m in balanced_random_mixes(&names, threads, 28, seed)
        .iter()
        .take(suite_mixes)
    {
        let programs: Vec<_> = m
            .benchmarks
            .iter()
            .enumerate()
            .map(|(t, b)| {
                suite::by_name(b)
                    .expect("mix benchmarks come from the suite")
                    .build_program(shelfsim::core::thread_program_seed(seed, t))
            })
            .collect();
        workloads.push((format!("suite:{}", m.label()), programs, None));
    }
    for i in 0..generated {
        let spec = GenSpec::from_seed(seed.wrapping_add(i as u64));
        let program = spec.build_program();
        workloads.push((
            format!("gen:{:#x}", spec.seed),
            vec![program; threads],
            Some(spec),
        ));
    }
    if workloads.is_empty() {
        return Err(uerr(
            "validate: nothing to do (--kernels none with no --suite/--generated)",
        ));
    }

    let mut runs: Vec<RunReport> = Vec::new();
    for design in &designs {
        let cfg = design_config(design, threads)?;
        for (label, programs, spec) in &workloads {
            let verdict = run_lockstep(&cfg, programs.iter().cloned(), &lcfg);
            let sweep =
                (p.has("--sweep") && verdict.is_clean()).then(|| run_sweep(&cfg, programs, &lcfg));
            // Divergent generated programs shrink to a minimal failing case
            // which is persisted for regression if --shrink-dir is given.
            let mut regression = None;
            if let (Verdict::Diverged(d), Some(spec), Some(dir)) =
                (&verdict, spec, p.value("--shrink-dir"))
            {
                let min = shelfsim::validate::shrink_to_minimal(spec, |s| {
                    !run_lockstep(&cfg, vec![s.build_program(); threads], &lcfg).is_clean()
                });
                let path = shelfsim::validate::persist_regression(
                    std::path::Path::new(dir),
                    &min,
                    &format!("{design} x{threads} {label}\n{d}"),
                )
                .map_err(|e| err(format!("cannot write regression case: {e}")))?;
                regression = Some(path.display().to_string());
            }
            runs.push(RunReport {
                design: design.clone(),
                threads,
                workload: label.clone(),
                verdict,
                sweep,
                regression,
            });
        }
    }

    let rendered = if p.has("--json") {
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

/// Usage text; the override keys come from [`shelfsim::analyze::OVERRIDE_KEYS`].
pub fn usage() -> String {
    format!(
        "{USAGE}OVERRIDE KEYS: {}\n",
        shelfsim::analyze::OVERRIDE_KEYS.join(", ")
    )
}

const USAGE: &str = "\
shelfsim — SMT out-of-order core simulator with hybrid shelf dispatch

USAGE:
  shelfsim suite
  shelfsim mixes   [--threads N] [--count N] [--seed N]
  shelfsim run     --mix b1,b2,... [--design D] [--warmup N] [--measure N]
                   [--until N] [--seed N] [--tso] [--json]
  shelfsim compare --mix b1,b2,... [--warmup N] [--measure N] [--until N]
                   [--seed N] [--tso] [--json]
  shelfsim sweep   [--designs d1,d2] [--mix b1,b2 ... | --thread-counts 2,4
                   --mixes N] [--override key=v1,v2 ...] [--seed N]
                   [--warmup N] [--measure N] [--workers N] [--journal-dir DIR]
                   [--watchdog N] [--attempts N] [--trace-dir DIR]
                   [--fault-panics N] [--fault-persistent-panics N]
                   [--fault-stalls N] [--fault-livelocks N] [--fault-seed N]
                   [--no-preflight] [--validate] [--dry-run] [--pareto] [--json]
                   (the one matrix runner: designs x override sets x workloads
                   on the fault-tolerant campaign pool. Each --mix adds one
                   workload; otherwise --thread-counts x --mixes expands
                   balanced-random mixes plus their single-thread STP
                   references. An --override key with several values is a
                   matrix axis. Runs are pre-flighted (--no-preflight opts
                   out), watchdogged (--watchdog 0 disables), retried, then
                   quarantined, and journaled one shard per worker under
                   --journal-dir: a re-run re-simulates nothing, and any
                   *.jsonl there is read as a shard. --validate lockstep-checks
                   each run; --trace-dir dumps traces of watchdog-diagnosed
                   failures; --dry-run previews matrix, cache hits and the
                   schedule's warm-ups; --pareto appends the STP vs
                   energy-delay vs area frontier over the merged history)
  shelfsim trace   --mix b1,b2,... [--design D] [--warmup N] [--measure N]
                   [--seed N] [--tso] [--window N] [--sample N]
                   [--jsonl FILE] [--chrome FILE]
                   (lane view of the last 48 committed insts, per-thread
                   dispatch/issue stall attribution, and optional exports:
                   --jsonl writes instruction lifecycles + occupancy samples
                   as JSON lines, --chrome writes a Chrome trace-event file
                   loadable in Perfetto/about:tracing; --window bounds the
                   lifecycle ring, --sample sets the occupancy period)
  shelfsim asm     FILE.s [--design D] [--mix x,x] [--warmup N] [--measure N]
                   [--tso] (run a hand-written kernel on every thread;
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

Every usage mistake (unknown option, missing or malformed value, a flag
given twice) exits 2.

DESIGNS: base64, base128, shelf-cons, shelf-opt, shelf-oracle, shelf-inorder
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

    /// `sweep --override` with several values is one matrix axis. The
    /// IPCs are those the retired `sweep --param shelf --values 16,128
    /// --design shelf-cons` printed for the same mix and windows.
    #[test]
    fn sweep_runs_each_value() {
        let out = run_cli(&args(
            "sweep --designs shelf-cons --mix hmmer,lbm,gcc --override shelf=16,128 \
             --warmup 3000 --measure 20000 --json",
        ))
        .expect("ok");
        for (label, ipc) in [
            ("shelf-cons hmmer+lbm+gcc [shelf=16]", "0.6507"),
            ("shelf-cons hmmer+lbm+gcc [shelf=128]", "0.6919"),
        ] {
            assert!(
                out.contains(&format!(r#""label":"{label}","status":"ok""#)),
                "{out}"
            );
            assert!(out.contains(&format!(r#""ipc":{ipc}"#)), "{label}: {out}");
        }
        // The per-design summary keeps the two design points apart.
        for point in ["shelf-cons [shelf=16]", "shelf-cons [shelf=128]"] {
            assert!(
                out.contains(&format!(r#"{{"design":"{point}","geomean_ipc""#)),
                "{out}"
            );
        }
    }

    /// `--override` resolves through the one key vocabulary to the exact
    /// configurations the retired `--param` arms built.
    #[test]
    fn override_keys_match_the_retired_param_arms() {
        let resolve = |key: &str, value: &str| {
            let mut cfg = design_config("shelf-opt", 2).expect("design");
            shelfsim::apply_override(&mut cfg, key, value).expect("override");
            cfg
        };
        let mut rct = design_config("shelf-opt", 2).expect("design");
        rct.rct_bits = 4;
        assert_eq!(resolve("rct-bits", "4"), rct);
        let mut plt = design_config("shelf-opt", 2).expect("design");
        plt.plt_columns = 6;
        assert_eq!(resolve("plt-columns", "6"), plt);
        let mut shelf = design_config("shelf-opt", 2).expect("design");
        shelf.shelf_entries = 32;
        assert_eq!(resolve("shelf", "32"), shelf);
        assert!(usage().contains("rct-bits, plt-columns"), "{}", usage());
    }

    #[test]
    fn sweep_param_mistakes_are_usage_errors() {
        // The retired `--param/--values` mode is an unknown option now.
        let e = run_cli(&args("sweep --param shelf --values 16 --mix gcc")).unwrap_err();
        assert!(
            e.message.contains("unknown option `--param`"),
            "{}",
            e.message
        );
        assert_eq!(e.code, exit_codes::USAGE);
        for (cmd, needle) in [
            ("sweep --mix gcc --override warp=1", "`warp`"),
            ("sweep --mix gcc --override shelf=16,banana", "`banana`"),
            ("sweep --mix gcc --override rct-bits=9", "`9`"),
            ("sweep --mix gcc --override shelf", "key=value"),
            ("sweep --mix gcc --thread-counts 2", "--thread-counts"),
            (
                "sweep --mix gcc,mcf --override shelf=16,32 --pareto",
                "--pareto",
            ),
        ] {
            let e = run_cli(&args(cmd)).unwrap_err();
            assert!(e.message.contains(needle), "{cmd}: {}", e.message);
            assert_eq!(e.code, exit_codes::USAGE, "{cmd}");
        }
    }

    /// Every usage-class mistake exits 2; lookups of things that do not
    /// exist keep exit 1.
    #[test]
    fn thread_counts_outside_the_core_are_usage_errors() {
        let nine = ["gcc"; CoreConfig::MAX_THREADS + 1].join(",");
        for (cmd, needle) in [
            ("mixes --threads 0".to_owned(), "--threads"),
            ("mixes --threads 40".to_owned(), "--threads"),
            ("sweep --thread-counts 0".to_owned(), "--thread-counts"),
            ("sweep --thread-counts 9".to_owned(), "--thread-counts"),
            (format!("sweep --mix {nine}"), "--mix"),
            (format!("run --mix {nine}"), "--mix"),
            ("validate --threads 9".to_owned(), "--threads"),
            ("lint --format yaml kernels.s".to_owned(), "`yaml`"),
            ("bench".to_owned(), "unknown command"),
            ("trace --mix gcc --window 0".to_owned(), "--window"),
            ("characterize --bogus".to_owned(), "unknown option"),
            (
                "run --mix gcc --chrome F".to_owned(),
                "unknown option `--chrome`",
            ),
            (
                "run --mix gcc --seed 1 --seed 2".to_owned(),
                "more than once",
            ),
            ("run gcc".to_owned(), "unexpected argument `gcc`"),
            ("asm".to_owned(), "kernel file"),
            ("analyze".to_owned(), "TARGET"),
            ("lint".to_owned(), "FILE"),
            ("campaign --mix gcc".to_owned(), "unknown command"),
            ("sweep --workers".to_owned(), "requires a value"),
            ("sweep --mix gcc --fault-panics 3".to_owned(), "victim"),
            (
                "sweep --designs shelf-opt --mix gcc,mcf --pareto".to_owned(),
                "STP against base64",
            ),
        ] {
            let e = run_cli(&args(&cmd)).unwrap_err();
            assert_eq!(e.code, exit_codes::USAGE, "{cmd}: {}", e.message);
            assert!(e.message.contains(needle), "{cmd}: {}", e.message);
        }
        for cmd in [
            "validate --kernels warpcore",
            "characterize warpcore",
            "run --mix warpcore",
        ] {
            let e = run_cli(&args(cmd)).unwrap_err();
            assert_eq!(e.code, exit_codes::GENERAL, "{cmd}: {}", e.message);
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
    fn asm_reports_the_simulation_run_measurement() {
        // `asm` measures through `Simulation::run`: its IPC is the measured
        // window's, after the same warm-up every simulating verb uses.
        let out = run_cli(&args("asm builtin:daxpy --warmup 500 --measure 2000")).expect("ok");
        let program = shelfsim::workload::kernels::by_name("daxpy")
            .expect("builtin")
            .assemble()
            .expect("assembles");
        let cfg = design_config("shelf-opt", 1).expect("config");
        let run =
            Simulation::from_programs(cfg, vec![("daxpy".to_owned(), program)], 7).run(500, 2000);
        let expected = format!("IPC {:.3} over 2000 cycles", run.ipc());
        assert!(out.contains(&expected), "{out}\nexpected: {expected}");
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
        let e = run_cli(&args("sweep --mix gcc --workers two")).unwrap_err();
        assert!(e.message.contains("`two`"), "{}", e.message);
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
            "sweep --designs base64,shelf-opt --mix gcc,mcf --mix hmmer,lbm \
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
        for verb in ["sweep --mix gcc", "sweep --thread-counts 1 --mixes 1"] {
            let e =
                run_cli(&args(&format!("{verb} --journal-dir {}", file.display()))).unwrap_err();
            assert_eq!(e.code, exit_codes::USAGE, "{verb}: {}", e.message);
            assert!(e.message.contains("into a directory"), "{}", e.message);
        }
    }

    #[test]
    fn campaign_json_output_is_structured() {
        let out = run_cli(&args(
            "sweep --designs base64 --mix gcc,mcf --warmup 200 --measure 1200 --json",
        ))
        .expect("ok");
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"completed\":1"), "{out}");
        assert!(out.contains("\"per_design\""), "{out}");
    }

    #[test]
    fn campaign_validates_designs_and_fault_budget() {
        let e = run_cli(&args("sweep --designs warp-drive --mix gcc,mcf")).unwrap_err();
        assert!(e.message.contains("unknown design"), "{}", e.message);
        let e = run_cli(&args(
            "sweep --designs base64 --mix gcc,mcf --fault-panics 5",
        ))
        .unwrap_err();
        assert!(e.message.contains("victim"), "{}", e.message);
        let e = run_cli(&args("sweep --workers nope")).unwrap_err();
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
        assert!(out.contains("\"workers\":2}"), "{out}");
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

    /// A journal `run_campaign` wrote for an explicit design × mix matrix
    /// (what `campaign --mix` ran before `sweep` took over) resumes in
    /// full under `sweep --mix`.
    #[test]
    fn campaign_matrix_journal_resumes_under_sweep_mix() {
        let dir = sweep_dir("campaign_matrix");
        let designs = ["base64".to_owned(), "shelf-opt".to_owned()];
        let mixes = [["gcc", "mcf"], ["hmmer", "lbm"]].map(|m| m.map(str::to_owned).to_vec());
        let runs = CampaignSpec::matrix(&designs, &mixes, 7, 200, 1200);
        let spec = CampaignSpec::new(runs).with_journal_dir(&dir);
        shelfsim::run_campaign(&spec).expect("campaign");
        let out = run_cli(&args(&format!(
            "sweep --designs base64,shelf-opt --mix gcc,mcf --mix hmmer,lbm \
             --warmup 200 --measure 1200 --journal-dir {dir}"
        )))
        .expect("sweep");
        assert!(out.contains("4 hits, 0 misses (100.0% cached"), "{out}");
        assert!(out.contains("4 resumed from journal"), "{out}");
    }

    /// A single-valued override keeps the journal key it had before the
    /// override axis existed, so journals written with it stay resumable.
    #[test]
    fn single_valued_override_keeps_its_journal_key() {
        let out = run_cli(&args(
            "sweep --designs shelf-opt --mix gcc,mcf --override shelf=8 \
             --warmup 200 --measure 1200 --json",
        ))
        .expect("sweep");
        assert!(
            out.contains(r#""key":"c2a7286597790cac","label":"shelf-opt gcc+mcf [shelf=8]""#),
            "{out}"
        );
    }

    #[test]
    fn override_axes_multiply_the_matrix() {
        let out = run_cli(&args(
            "sweep --designs base64,shelf-opt --mix gcc,mcf --override shelf=16,32 \
             --override rob=64,128 --warmup 100 --measure 400 --dry-run",
        ))
        .expect("dry run");
        assert!(
            out.contains("sweep matrix: 2 designs x 4 override sets x (1 @ 2t) workloads = 8 runs"),
            "{out}"
        );
        // Design points of one mix share a warm-up; the one warm group
        // is cut in two so that both workers have a unit.
        assert!(
            out.contains("2 warm-ups for 8 pending runs on 2 workers"),
            "{out}"
        );
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
        let cmd = "sweep --designs shelf-inorder --mix gcc,mcf --override shelf=2 \
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
        let e = run_cli(&args("sweep --mix gcc --override shelf")).unwrap_err();
        assert!(e.message.contains("key=value"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
        let e = run_cli(&args("sweep --mix gcc --override warp=9")).unwrap_err();
        assert!(e.message.contains("unknown config key"), "{}", e.message);
        assert_eq!(e.code, exit_codes::USAGE);
    }

    #[test]
    fn campaign_validate_tier_journals_clean_runs() {
        let journal = campaign_journal_dir("validate");
        let cmd = format!(
            "sweep --designs base64 --mix gcc,mcf --warmup 200 --measure 1200 \
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
