//! Per-stage host time of the tick loop, per design, on the two engine
//! batches of the throughput benchmark: 11 balanced mixes of the
//! compute-bound benchmarks (L2-miss share ≤ 0.03, four threads,
//! 2,000 + 100,000 cycles) or of the memory-bound ones (share ≥ 0.20, two
//! threads, 2,000 + 400,000 cycles), each on `base64`, `shelf-opt` and
//! `base128`.
//!
//! ```bash
//! cargo run --release -p shelfsim-core --features profile --example stage_profile
//! cargo run --release -p shelfsim-core --features profile --example stage_profile -- \
//!     --workload smt2-membound --seed 11
//! cargo run --release -p shelfsim-core --example stage_profile -- --tiny
//! ```
//!
//! Every simulation prints one fingerprint line (cycles, committed and a
//! hash of its counters), with or without the feature: the two builds must
//! print the same lines. With the feature, each design then prints a table
//! of host nanoseconds per walked tick by phase, their share of the
//! simulation's wall time, and `mshr_stalls` per simulated cycle. `--tiny`
//! runs one mix for 200 + 2,000 cycles per design, for smoke tests.
use shelfsim_core::{Core, CoreConfig, Phase, Simulation, StageProfile, SteerPolicy};
use shelfsim_workload::{balanced_random_mixes, suite, BenchmarkProfile};
use std::time::Instant;

const DESIGNS: [&str; 3] = ["base64", "shelf-opt", "base128"];

fn config(design: &str, threads: usize) -> CoreConfig {
    match design {
        "base64" => CoreConfig::base64(threads),
        "shelf-opt" => CoreConfig::base64_shelf64(threads, SteerPolicy::Practical, true),
        "base128" => CoreConfig::base128(threads),
        _ => unreachable!("design list is fixed"),
    }
}

fn l2_miss_share(p: &BenchmarkProfile) -> f64 {
    1.0 - p.mem_l1_frac - p.mem_l2_frac
}

/// `(benchmarks, threads, measure cycles)` of a batch.
fn batch(workload: &str) -> (Vec<&'static str>, usize, u64) {
    let pick = |keep: &dyn Fn(f64) -> bool| -> Vec<&'static str> {
        suite::all()
            .iter()
            .filter(|p| keep(l2_miss_share(p)))
            .map(|p| p.name)
            .collect()
    };
    match workload {
        "smt4-compute" => (pick(&|s| s <= 0.03 + 1e-9), 4, 100_000),
        "smt2-membound" => (pick(&|s| s >= 0.20 - 1e-9), 2, 400_000),
        _ => {
            eprintln!("unknown workload `{workload}` (smt4-compute, smt2-membound)");
            std::process::exit(2);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Profile totals of one design over a batch.
struct Totals {
    profile: StageProfile,
    wall_ns: u128,
    clock_units: u64,
    cycles: u64,
    measured: u64,
    mshr_stalls: u64,
}

fn report(design: &str, t: &Totals) {
    let walked = t.profile.walked_ticks().max(1);
    // Host clock units per nanosecond, from the same simulations' wall time.
    let per_ns = t.clock_units as f64 / t.wall_ns.max(1) as f64;
    let ns = |units: u64| units as f64 / per_ns / walked as f64;
    let wall_per_tick = t.wall_ns as f64 / walked as f64;
    println!(
        "{design}: {walked} walked ticks ({:.1}% of {} cycles), {:.1} ns of wall time \
         per walked tick, mshr_stalls {:.3}/cycle",
        100.0 * walked as f64 / t.cycles as f64,
        t.cycles,
        wall_per_tick,
        t.mshr_stalls as f64 / t.measured as f64
    );
    println!("  {:<22} {:>10} {:>7}", "phase", "ns/tick", "share");
    let mut timed = 0.0;
    for phase in Phase::ALL {
        let v = ns(t.profile.host(phase));
        timed += v;
        println!(
            "  {:<22} {v:>10.1} {:>6.1}%",
            phase.as_str(),
            100.0 * v / wall_per_tick
        );
    }
    let rest = wall_per_tick - timed;
    println!(
        "  {:<22} {rest:>10.1} {:>6.1}%",
        "untimed",
        100.0 * rest / wall_per_tick
    );
}

fn main() {
    let mut workloads = vec!["smt4-compute".to_owned(), "smt2-membound".to_owned()];
    let mut seed = 7u64;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workloads = vec![args.next().expect("--workload takes a name")],
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--tiny" => tiny = true,
            _ => {
                eprintln!("usage: stage_profile [--workload NAME] [--seed N] [--tiny]");
                std::process::exit(2);
            }
        }
    }
    if !StageProfile::ENABLED {
        println!("(built without the `profile` feature: fingerprints only)");
    }
    for workload in &workloads {
        let (benches, threads, measure) = batch(workload);
        let (mixes, warmup, measure) = if tiny {
            (1, 200, 2_000)
        } else {
            (11, 2_000, measure)
        };
        let mixes: Vec<Vec<&str>> = balanced_random_mixes(&benches, threads, 11, seed)
            .into_iter()
            .take(mixes)
            .map(|m| m.benchmarks)
            .collect();
        println!(
            "workload {workload} seed {seed}: {} mixes x {} designs, {warmup} + {measure} cycles",
            mixes.len(),
            DESIGNS.len()
        );
        for design in DESIGNS {
            let mut totals = Totals {
                profile: StageProfile::new(),
                wall_ns: 0,
                clock_units: 0,
                cycles: 0,
                measured: 0,
                mshr_stalls: 0,
            };
            for mix in &mixes {
                let mut sim = Simulation::from_names(config(design, threads), mix, seed)
                    .expect("suite benchmarks");
                let (start, clock) = (Instant::now(), shelfsim_core::profile::clock());
                let r = sim.run(warmup, measure);
                totals.clock_units += shelfsim_core::profile::clock() - clock;
                totals.wall_ns += start.elapsed().as_nanos();
                let core: &Core = sim.core();
                totals.profile.merge(core.stage_profile());
                totals.cycles += warmup + measure;
                totals.measured += measure;
                totals.mshr_stalls += r.counters.mshr_stalls;
                println!(
                    "fingerprint {design} {} cycles={} committed={} counters={:016x}",
                    mix.join("+"),
                    r.cycles,
                    r.counters.committed,
                    fnv1a(format!("{:?}", r.counters).as_bytes())
                );
            }
            if StageProfile::ENABLED {
                report(design, &totals);
            }
        }
    }
}
