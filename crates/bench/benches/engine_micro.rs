//! Micro-benchmarks of the simulator's hot structures, trace generation,
//! program building and energy reporting. Simulation throughput is
//! measured by perfbench alone.
//!
//! Formerly a criterion harness; rewritten against a small inline timer so
//! the workspace builds with no network access to a crates registry. Each
//! benchmark reports the median of `SHELFSIM_BENCH_SAMPLES` (default 10)
//! timed runs.

use shelfsim::uarch::{FreeList, IssueTracker, OrderedQueue, Scoreboard, Tag};
use shelfsim::workload::{suite, TraceSource};
use shelfsim::{CoreConfig, EnergyModel, Simulation, SteerPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` `samples` times and prints the median per-run wall time.
fn bench(name: &str, samples: usize, mut f: impl FnMut()) {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{:<32} {:>12.1} us/iter  ({samples} samples)",
        name,
        times[samples / 2]
    );
}

fn sample_count() -> usize {
    std::env::var("SHELFSIM_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

fn bench_structures(samples: usize) {
    let mut q: OrderedQueue<u32> = OrderedQueue::new(64);
    bench("ordered_queue_push_pop", samples, || {
        for i in 0..64u32 {
            let _ = q.push(i);
        }
        while q.pop_front().is_some() {}
    });

    bench("issue_tracker_dispatch_issue", samples, || {
        let mut t = IssueTracker::new();
        for i in 0..64 {
            t.dispatch(i);
        }
        for i in (0..64).rev() {
            t.issue(i);
        }
        black_box(t.head());
    });

    let mut fl = FreeList::new(0, 128);
    bench("freelist_churn", samples, || {
        let ids: Vec<u32> = (0..64).map(|_| fl.allocate().expect("free")).collect();
        for id in ids {
            fl.free(id);
        }
    });

    let mut sb = Scoreboard::new(512);
    for i in 0..512 {
        sb.set_ready_at(Tag(i), (i as u64) % 97);
    }
    bench("scoreboard_wakeup_scan", samples, || {
        black_box((0..512u32).filter(|&i| sb.is_ready(Tag(i), 50)).count());
    });
}

fn bench_workload(samples: usize) {
    let program = suite::by_name("gcc").expect("suite").build_program(1);
    bench("trace_generate_10k", samples, || {
        let mut t = TraceSource::new(program.clone(), 0);
        let mut loads = 0u64;
        for _ in 0..10_000 {
            let (_, i) = t.fetch();
            loads += u64::from(i.is_load());
        }
        black_box(loads);
    });

    let profile = suite::by_name("gcc").expect("suite");
    bench("program_build_gcc", samples, || {
        black_box(profile.build_program(7).footprint());
    });

    let src = "top:\n load r9, [r0], stride=8, region=l1\n mul r8, r8, r9\n                    add r10, r8\n loop top, trips=100\n";
    bench("assemble_kernel", samples, || {
        black_box(
            shelfsim::workload::asm::assemble(src)
                .expect("valid")
                .footprint(),
        );
    });
}

fn bench_energy(samples: usize) {
    let cfg = CoreConfig::base64_shelf64(4, SteerPolicy::Practical, true);
    let model = EnergyModel::for_config(&cfg);
    let mut sim = Simulation::from_names(cfg, &["gcc", "mcf", "hmmer", "lbm"], 1).expect("suite");
    let run = sim.run(2_000, 4_000);
    bench("energy_report", samples, || {
        black_box(model.report(&run).edp());
    });
}

fn main() {
    let samples = sample_count();
    println!("# Engine micro-benchmarks (median of {samples} samples)\n");
    bench_structures(samples);
    bench_workload(samples);
    bench_energy(samples);
}
