//! perfbench: shelfsim's end-to-end and per-layer performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <smt4-compute|smt2-membound|sweep-short> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload and prints its end-to-end metrics;
//! `--trace 1` runs it once through spans around each layer's public calls
//! and prints the per-layer metrics. The last line of standard output is
//! the result object. See `README.md` beside this package.

mod direct;
mod engine;
mod layers;
mod metrics;
mod spans;
mod sweep;
mod workloads;

use metrics::{fingerprint_file, Outcome};
use spans::Spans;
use std::path::{Path, PathBuf};
use workloads::{EngineSpec, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <smt4-compute|smt2-membound|sweep-short> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::Smt4Compute,
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

/// Where a run's side outputs go, and the host facts every result records.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    out_dir: PathBuf,
    nproc: usize,
    host_json: String,
}

impl Report {
    fn new(workload: Workload, seed: u64, trace: bool, out_dir: PathBuf) -> Report {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host_json = format!(
            "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{}\", \"debug_assertions\": {}}}",
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            cfg!(debug_assertions)
        );
        Report {
            workload: workload.name(),
            seed,
            trace,
            out_dir,
            nproc,
            host_json,
        }
    }

    fn write(&self, name: &str, contents: &str) {
        let path = self.out_dir.join(name);
        let written =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, contents));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    fn stem(&self) -> String {
        format!("{}-seed{}", self.workload, self.seed)
    }

    /// Prints the architectural fingerprints and writes them in golden
    /// format to `out/fingerprints-<workload>-seed<n>.txt`.
    pub fn fingerprints(&self, lines: &[String]) {
        for l in lines {
            println!("fingerprint {l}");
        }
        let name = format!("fingerprints-{}.txt", self.stem());
        self.write(&name, &fingerprint_file(self.workload, self.seed, lines));
    }

    /// Writes the span file and the per-layer self-time table.
    pub fn spans(&self, spans: &Spans) {
        let table = spans.layer_table();
        print!("{table}");
        self.write(&format!("spans-{}.jsonl", self.stem()), &spans.to_jsonl(&self.host_json));
        self.write(&format!("layers-{}.txt", self.stem()), &table);
    }

    /// A fresh scratch directory for one campaign journal.
    pub fn work_dir(&self, tag: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("work-{}", std::process::id()))
            .join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub fn remove_work_dir(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        if let Some(parent) = dir.parent() {
            // Succeeds only once the last journal of this process is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload and returns its outcome.
fn run(args: &Args, scale: Scale, report: &Report) -> Outcome {
    match EngineSpec::of(args.workload, scale) {
        Some(spec) => engine::run(args.workload, &spec, args.seed, args.seconds, report),
        None => sweep::run(args.workload, args.seed, args.seconds, scale, report),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let report = Report::new(args.workload, args.seed, args.trace, out_dir);
    println!("{{\"host\": {}}}", report.host_json);
    let outcome = run(&args, Scale::Full, &report);
    println!(
        "ops {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload sweep-short --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::SweepShort,
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--seed 3",
            "--workload nope",
            "--workload smt4-compute --trace 2",
            "--workload smt4-compute --seconds",
            "--workload smt4-compute --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let section = &doc[start..start + doc[start..].find(']').expect("list closes")];
        let field = |line: &str, f: &str| -> Option<String> {
            let pat = format!("\"{f}\": \"");
            let at = line.find(&pat)? + pat.len();
            Some(line[at..at + line[at..].find('"')?].to_owned())
        };
        section
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn printed(line: &str) -> Vec<(String, String)> {
        let metrics = &line[line.find("\"metrics\": {").expect("metrics object")..];
        metrics
            .split("}, \"")
            .map(|m| {
                let name = m.trim_start_matches("\"metrics\": {\"");
                let name = &name[..name.find('"').expect("name closes")];
                let unit = &m[m.find("\"unit\": \"").expect("unit") + 9..];
                (name.to_owned(), unit[..unit.find('"').expect("unit closes")].to_owned())
            })
            .collect()
    }

    fn run_tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
        // Tests run in parallel, so every run gets its own output directory.
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "test-{}-{}-{seed}-{}",
            std::process::id(),
            workload.name(),
            u8::from(trace)
        ));
        let report = Report::new(workload, seed, trace, out.clone());
        let a = Args {
            workload,
            seed,
            seconds: 0.0,
            trace,
        };
        let outcome = run(&a, Scale::Tiny, &report);
        let _ = std::fs::remove_dir_all(out);
        outcome
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit_on_every_workload() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        assert_eq!(e2e.len(), metrics::END_TO_END.len());
        let listed: Vec<(String, String)> = metrics::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(layers, listed, "BENCHMARK.json per_layer list");
        for w in Workload::ALL {
            let timed = run_tiny(w, workloads::DEFAULT_SEED + 1, false);
            assert_eq!(timed.failed, 0, "{}", w.name());
            assert_eq!(printed(&timed.result_line()), e2e, "{}", w.name());
            assert!(timed.metrics.iter().all(|(_, v, _)| *v > 0.0), "{timed:?}");
            let traced = run_tiny(w, workloads::DEFAULT_SEED + 1, true);
            assert_eq!(traced.failed, 0, "{}", w.name());
            assert_eq!(printed(&traced.result_line()), layers, "{}", w.name());
        }
    }

    #[test]
    fn seed_changes_inputs_but_not_the_metric_set() {
        let names = |o: &Outcome| -> BTreeMap<String, &str> {
            o.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect()
        };
        let w = Workload::Smt2Membound;
        let a = run_tiny(w, 1, false);
        let b = run_tiny(w, 2, false);
        assert_eq!(names(&a), names(&b));
        let spec = EngineSpec::of(w, Scale::Tiny).expect("engine workload");
        assert_ne!(spec.sims(1), spec.sims(2));
    }
}
