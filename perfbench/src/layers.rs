//! Per-layer metrics derived from the traced run's spans and the
//! simulations' own counters.

use crate::direct::DirectRun;
use crate::metrics::{ratio, stall_values, LAYERS, STALL_FIELDS};
use crate::spans::Spans;
use shelfsim::core::{SkipStats, SKIP_CAUSES};
use shelfsim::core::SkipCause;
use shelfsim::mem::CacheStats;
use shelfsim::Counters;
use std::collections::BTreeMap;

#[derive(Default)]
struct DesignTotals {
    tick_ns: u64,
    cycles: u64,
    measured: u64,
    committed: u64,
}

/// Sums over the skip-on direct simulations of a traced run.
#[derive(Default)]
pub struct SimTotals {
    designs: BTreeMap<String, DesignTotals>,
    counters: Counters,
    l1i: CacheStats,
    l1d: CacheStats,
    l2: CacheStats,
    data_rejections: u64,
    missteer_sum: f64,
    missteer_n: u64,
    skip: SkipStats,
    tick_ns: u64,
    cycles: u64,
    thread_cycles: u64,
}

fn add_cache(sum: &mut CacheStats, s: &CacheStats) {
    sum.accesses += s.accesses;
    sum.hits += s.hits;
    sum.writebacks += s.writebacks;
}

fn miss_rate(s: &CacheStats) -> f64 {
    ratio((s.accesses - s.hits) as f64, s.accesses as f64)
}

impl SimTotals {
    pub fn add(&mut self, design: &str, run: &DirectRun) {
        let r = &run.result;
        let d = self.designs.entry(design.to_owned()).or_default();
        d.tick_ns += run.tick_ns;
        d.cycles += run.cycles;
        d.measured += r.cycles;
        d.committed += r.counters.committed;
        self.counters.add_scaled(&r.counters, 1);
        add_cache(&mut self.l1i, &r.l1i);
        add_cache(&mut self.l1d, &r.l1d);
        add_cache(&mut self.l2, &r.l2);
        self.data_rejections += run.data_rejections;
        if let Some(m) = run.missteer {
            self.missteer_sum += m;
            self.missteer_n += 1;
        }
        let (s, k) = (&mut self.skip, &run.skip);
        s.skipped_cycles += k.skipped_cycles;
        s.spans += k.spans;
        for c in 0..SKIP_CAUSES {
            s.by_cause[c] += k.by_cause[c];
        }
        s.probe_mismatches += k.probe_mismatches;
        s.parked_thread_cycles += k.parked_thread_cycles;
        s.reduced_ticks += k.reduced_ticks;
        s.park_jumps += k.park_jumps;
        s.park_aborts += k.park_aborts;
        self.tick_ns += run.tick_ns;
        self.cycles += run.cycles;
        self.thread_cycles += run.cycles * r.threads.len() as u64;
    }

    /// The `core.tick`, `core.skip`, simulated-statistics and `mem`
    /// metrics. `noskip_tick_ns` is the tick time of the same simulations
    /// with skipping off.
    pub fn metrics(&self, noskip_tick_ns: u64, out: &mut BTreeMap<String, f64>) {
        let mut put = |k: String, v: f64| {
            out.insert(k, v);
        };
        for (name, d) in &self.designs {
            put(
                format!("core.tick.ns_per_cycle.{name}"),
                ratio(d.tick_ns as f64, d.cycles as f64),
            );
            put(
                format!("core.ipc.{name}"),
                ratio(d.committed as f64, d.measured as f64),
            );
        }
        let s = &self.skip;
        let walked = self.cycles - s.skipped_cycles;
        put(
            "core.tick.ns_per_walked_cycle".into(),
            ratio(self.tick_ns as f64, walked as f64),
        );
        put(
            "core.skip.skipped_frac".into(),
            ratio(s.skipped_cycles as f64, self.cycles as f64),
        );
        put(
            "core.skip.mean_span".into(),
            ratio(s.skipped_cycles as f64, s.spans as f64),
        );
        for c in SkipCause::ALL {
            put(
                format!("core.skip.cause.{}", c.as_str()),
                ratio(s.by_cause[c as usize] as f64, s.skipped_cycles as f64),
            );
        }
        put(
            "core.skip.parked_thread_frac".into(),
            ratio(s.parked_thread_cycles as f64, self.thread_cycles as f64),
        );
        put(
            "core.skip.reduced_tick_frac".into(),
            ratio(s.reduced_ticks as f64, walked as f64),
        );
        // No attempted jump means none failed.
        put(
            "core.skip.park_jump_success".into(),
            if s.park_jumps + s.park_aborts == 0 {
                1.0
            } else {
                s.park_jumps as f64 / (s.park_jumps + s.park_aborts) as f64
            },
        );
        put("core.skip.probe_mismatches".into(), s.probe_mismatches as f64);
        put(
            "core.skip.saved_frac".into(),
            1.0 - ratio(self.tick_ns as f64, noskip_tick_ns as f64),
        );

        let c = &self.counters;
        let (cycles, committed) = (c.cycles as f64, c.committed as f64);
        put("core.issued_per_cycle".into(), ratio(c.issued as f64, cycles));
        put(
            "core.shelf_issue_frac".into(),
            ratio(c.issued_shelf as f64, c.issued as f64),
        );
        put(
            "core.squash_frac".into(),
            ratio(c.squashed as f64, c.fetched as f64),
        );
        put(
            "uarch.bpred.mispredict_rate".into(),
            ratio(c.branch_mispredicts as f64, c.bpred_lookups as f64),
        );
        put(
            "core.steer.missteer_rate".into(),
            ratio(self.missteer_sum, self.missteer_n as f64),
        );
        for (f, v) in STALL_FIELDS.iter().zip(stall_values(&c.stalls)) {
            put(format!("core.stall.{f}"), ratio(1e3 * v as f64, cycles));
        }
        put("mem.l1i.miss_rate".into(), miss_rate(&self.l1i));
        put("mem.l1d.miss_rate".into(), miss_rate(&self.l1d));
        put(
            "mem.l2.mpki".into(),
            ratio(1e3 * (self.l2.accesses - self.l2.hits) as f64, committed),
        );
        put("mem.mshr.data_rejections".into(), self.data_rejections as f64);
        put(
            "core.mshr_stalls_pki".into(),
            ratio(1e3 * c.mshr_stalls as f64, committed),
        );
    }
}

/// Per-run set-up costs, set-up and tick shares of per-run host time
/// (`bench.run` spans), and each layer's self time.
pub fn span_metrics(spans: &Spans, out: &mut BTreeMap<String, f64>) {
    let (run_ns, runs) = spans.total("bench.run");
    let mut setup_ns = 0;
    for part in ["new", "warm_caches", "warm_functional"] {
        let (ns, n) = spans.total(&format!("core.setup.{part}"));
        setup_ns += ns;
        out.insert(format!("core.setup.{part}_ms"), ratio(ns as f64 / 1e6, n as f64));
    }
    out.insert("core.setup.share".into(), ratio(setup_ns as f64, run_ns as f64));
    let (tick_ns, _) = spans.total("core.tick");
    out.insert("core.tick.share".into(), ratio(tick_ns as f64, run_ns as f64));
    let (energy_ns, _) = spans.total("energy.model");
    out.insert(
        "energy.model_ms".into(),
        ratio(energy_ns as f64 / 1e6, runs as f64),
    );
    let layers = spans.layers();
    for l in LAYERS {
        let self_ns = layers.get(l).map_or(0, |t| t.self_ns);
        out.insert(format!("layer.{l}.self_ms"), self_ns as f64 / 1e6);
    }
}
