//! The engine workloads (`smt4-compute`, `smt2-membound`): a closed batch
//! of long fixed-window simulations, one at a time.

use crate::direct::{self, Mode};
use crate::layers::{span_metrics, SimTotals};
use crate::metrics::{fingerprint, golden_errors, median, peak_rss_mb, ratio, Outcome};
use crate::spans::Spans;
use crate::workloads::{EngineSpec, Workload, DEFAULT_SEED};
use crate::Report;
use shelfsim::analyze::design_by_name;
use shelfsim::core::thread_program_seed;
use shelfsim::workload::Program;
use shelfsim::{suite, Completion, CoreConfig, EnergyModel, RunResult, Simulation};
use std::collections::BTreeMap;
use std::time::Instant;

type Sim = (&'static str, Vec<&'static str>);

/// One pass over every simulation of the workload, as a user runs them.
struct Pass {
    setup_ns: u64,
    sim_ns: u64,
    committed: u64,
    fingerprints: Vec<String>,
    errors: Vec<Vec<String>>,
}

impl Pass {
    fn kips(&self) -> f64 {
        ratio(self.committed as f64, self.sim_ns as f64 / 1e9) / 1e3
    }

    fn runs_per_s(&self) -> f64 {
        ratio(
            self.fingerprints.len() as f64,
            (self.setup_ns + self.sim_ns) as f64 / 1e9,
        )
    }
}

fn config(spec: &EngineSpec, design: &str) -> CoreConfig {
    design_by_name(design, spec.threads).expect("engine designs resolve")
}

/// Checks every simulation must pass, whatever its seed.
fn run_errors(r: &RunResult) -> Vec<String> {
    let mut errors = Vec::new();
    if r.completion != Completion::FixedWindow {
        errors.push(format!("completion {} is not fixed-window", r.completion));
    }
    if r.counters.committed == 0 {
        errors.push("committed nothing".to_owned());
    }
    if r.late_shelf_commits != 0 {
        errors.push(format!("{} late shelf commits", r.late_shelf_commits));
    }
    errors
}

fn timed_pass(spec: &EngineSpec, sims: &[Sim], seed: u64) -> Pass {
    let mut pass = Pass {
        setup_ns: 0,
        sim_ns: 0,
        committed: 0,
        fingerprints: Vec::new(),
        errors: Vec::new(),
    };
    for (design, mix) in sims {
        let cfg = config(spec, design);
        let t = Instant::now();
        let mut sim = Simulation::from_names(cfg, mix, seed).expect("suite benchmarks");
        pass.setup_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let r = sim.run(spec.warmup, spec.measure);
        pass.sim_ns += t.elapsed().as_nanos() as u64;
        pass.committed += r.counters.committed;
        pass.errors.push(run_errors(&r));
        pass.fingerprints.push(fingerprint(design, mix, &r));
    }
    pass
}

/// Golden mismatches per simulation (checked at the default seed only).
fn goldens(workload: Workload, seed: u64, fingerprints: &[String]) -> BTreeMap<usize, String> {
    if seed == DEFAULT_SEED {
        golden_errors(workload.goldens(), fingerprints)
    } else {
        BTreeMap::new()
    }
}

pub fn run(workload: Workload, spec: &EngineSpec, seed: u64, seconds: f64, report: &Report) -> Outcome {
    let sims = spec.sims(seed);
    println!(
        "workload {}: {} simulations per pass ({} designs x {} mixes), {} + {} cycles each",
        workload.name(),
        sims.len(),
        spec.designs.len(),
        sims.len() / spec.designs.len(),
        spec.warmup,
        spec.measure
    );
    if report.trace {
        traced(workload, spec, &sims, seed, report)
    } else {
        timed(workload, spec, &sims, seed, seconds, report)
    }
}

fn timed(
    workload: Workload,
    spec: &EngineSpec,
    sims: &[Sim],
    seed: u64,
    seconds: f64,
    report: &Report,
) -> Outcome {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut golden = BTreeMap::new();
    loop {
        let pass = timed_pass(spec, sims, seed);
        if passes.is_empty() {
            report.fingerprints(&pass.fingerprints);
            golden = goldens(workload, seed, &pass.fingerprints);
        }
        for (i, (design, mix)) in sims.iter().enumerate() {
            let mut errors = pass.errors[i].clone();
            errors.extend(golden.get(&i).cloned());
            if let Some(first) = passes.first() {
                if first.fingerprints[i] != pass.fingerprints[i] {
                    errors.push(format!("fingerprint changed between passes: {}", pass.fingerprints[i]));
                }
            }
            outcome.op(&format!("{design} {}", mix.join("+")), &errors);
        }
        println!(
            "pass {}: {:.1} kIPS, {:.3} runs/s, setup {:.3} s, simulate {:.3} s",
            passes.len() + 1,
            pass.kips(),
            pass.runs_per_s(),
            pass.setup_ns as f64 / 1e9,
            pass.sim_ns as f64 / 1e9
        );
        passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    outcome.set_end_to_end([
        of(Pass::runs_per_s),
        of(|p| p.setup_ns as f64 / 1e9),
        peak_rss_mb(),
    ]);
    outcome
}

/// Builds `mix`'s programs as `Simulation::new` does, one span each.
fn build_programs(mix: &[&str], seed: u64, spans: &mut Spans, sim: usize) -> Vec<(String, Program)> {
    mix.iter()
        .enumerate()
        .map(|(t, &name)| {
            let profile = suite::by_name(name).expect("suite benchmark");
            let program = spans.time("workload.build_program", sim, || {
                profile.build_program(thread_program_seed(seed, t))
            });
            (name.to_owned(), program)
        })
        .collect()
}

fn traced(workload: Workload, spec: &EngineSpec, sims: &[Sim], seed: u64, report: &Report) -> Outcome {
    let mut outcome = Outcome::default();
    let untraced = timed_pass(spec, sims, seed);
    let golden = goldens(workload, seed, &untraced.fingerprints);
    report.fingerprints(&untraced.fingerprints);

    let mut spans = Spans::new();
    let mut scratch = Spans::new();
    let mut totals = SimTotals::default();
    let mut noskip_tick_ns = 0;
    for (i, (design, mix)) in sims.iter().enumerate() {
        let root = spans.enter("bench.run", i);
        let programs = build_programs(mix, seed, &mut spans, i);
        let cfg = config(spec, design);
        let model = spans.time("energy.model", i, || EnergyModel::for_config(&cfg));
        let run = direct::simulate(
            cfg.clone(),
            programs.clone(),
            seed,
            spec.warmup,
            spec.measure,
            Mode::Skip,
            &mut spans,
            i,
        );
        let energy = spans.time("energy.model", i, || model.report(&run.result));
        spans.exit(root);
        totals.add(design, &run);

        let mut errors = untraced.errors[i].clone();
        errors.extend(golden.get(&i).cloned());
        errors.extend(run_errors(&run.result));
        let fp = fingerprint(design, mix, &run.result);
        if fp != untraced.fingerprints[i] {
            errors.push(format!("direct path {fp} != Simulation path {}", untraced.fingerprints[i]));
        }
        if !(energy.edp() > 0.0 && energy.edp().is_finite()) {
            errors.push(format!("energy-delay product {}", energy.edp()));
        }
        // Skip equivalence, then the stall-tally audit, on the same inputs.
        for mode in [Mode::NoSkip, Mode::Audit] {
            let other = direct::simulate(
                cfg.clone(),
                programs.clone(),
                seed,
                spec.warmup,
                spec.measure,
                mode,
                &mut scratch,
                i,
            );
            if mode == Mode::NoSkip {
                noskip_tick_ns += other.tick_ns;
            }
            let other_fp = fingerprint(design, mix, &other.result);
            if other_fp != fp {
                errors.push(format!("{mode:?} run {other_fp} != skip-on run {fp}"));
            }
            if let Err(e) = other.audit {
                errors.push(format!("stall tallies: {e}"));
            }
        }
        outcome.op(&format!("{design} {}", mix.join("+")), &errors);
    }

    let mut values = BTreeMap::new();
    let (build_ns, builds) = spans.total("workload.build_program");
    values.insert(
        "workload.build_program_ms".to_owned(),
        ratio(build_ns as f64 / 1e6, builds as f64),
    );
    span_metrics(&spans, &mut values);
    totals.metrics(noskip_tick_ns, &mut values);
    let (traced_ns, _) = spans.total("bench.run");
    let untraced_ns = untraced.setup_ns + untraced.sim_ns;
    values.insert(
        "trace.overhead_frac".to_owned(),
        ratio(traced_ns as f64, untraced_ns as f64) - 1.0,
    );
    report.spans(&spans);
    outcome.set_per_layer(values);
    outcome
}
