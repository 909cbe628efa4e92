//! Metric names and units, the result line, fingerprints and goldens.

use crate::workloads::ALL_DESIGNS;
use shelfsim::core::{SkipCause, StallCounters};
use shelfsim::RunResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The `StallCounters` fields, in declaration order.
pub const STALL_FIELDS: [&str; 9] = [
    "rob_full",
    "iq_full",
    "lq_full",
    "sq_full",
    "shelf_full",
    "shelf_index_full",
    "no_phys_reg",
    "no_ext_tag",
    "barrier",
];

/// Layers the traced run attributes self time to (span-name prefixes).
pub const LAYERS: [&str; 6] = ["bench", "workload", "analyze", "core", "energy", "campaign"];

pub fn stall_values(s: &StallCounters) -> [u64; 9] {
    [
        s.rob_full,
        s.iq_full,
        s.lq_full,
        s.sq_full,
        s.shelf_full,
        s.shelf_index_full,
        s.no_phys_reg,
        s.no_ext_tag,
        s.barrier,
    ]
}

/// Every per-layer metric, printed on every workload with `--trace 1`. A
/// metric of a layer the workload never calls reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("workload.build_program_ms".into(), "ms");
    add("campaign.scratch.program_hit_rate".into(), "ratio");
    add("analyze.preflight_ms".into(), "ms");
    for part in ["new", "warm_caches", "warm_functional"] {
        add(format!("core.setup.{part}_ms"), "ms");
    }
    add("core.setup.share".into(), "ratio");
    for d in ALL_DESIGNS {
        add(format!("core.tick.ns_per_cycle.{d}"), "ns/cycle");
    }
    add("core.tick.ns_per_walked_cycle".into(), "ns/cycle");
    add("core.tick.share".into(), "ratio");
    add("core.skip.skipped_frac".into(), "ratio");
    add("core.skip.mean_span".into(), "cycles");
    for c in SkipCause::ALL {
        add(format!("core.skip.cause.{}", c.as_str()), "ratio");
    }
    add("core.skip.parked_thread_frac".into(), "ratio");
    add("core.skip.reduced_tick_frac".into(), "ratio");
    add("core.skip.park_jump_success".into(), "ratio");
    add("core.skip.probe_mismatches".into(), "count");
    add("core.skip.saved_frac".into(), "ratio");
    for d in ALL_DESIGNS {
        add(format!("core.ipc.{d}"), "inst/cycle");
    }
    add("core.issued_per_cycle".into(), "inst/cycle");
    add("core.shelf_issue_frac".into(), "ratio");
    add("core.squash_frac".into(), "ratio");
    add("uarch.bpred.mispredict_rate".into(), "ratio");
    add("core.steer.missteer_rate".into(), "ratio");
    for f in STALL_FIELDS {
        add(format!("core.stall.{f}"), "per_kcycle");
    }
    add("mem.l1i.miss_rate".into(), "ratio");
    add("mem.l1d.miss_rate".into(), "ratio");
    add("mem.l2.mpki".into(), "per_kinst");
    add("mem.mshr.data_rejections".into(), "count");
    add("core.mshr_stalls_pki".into(), "per_kinst");
    add("energy.model_ms".into(), "ms");
    for phase in ["cold", "replay"] {
        add(format!("campaign.cache.load_ms.{phase}"), "ms");
        add(format!("campaign.cache.admit_ms.{phase}"), "ms");
    }
    add("campaign.replay_ms".into(), "ms");
    add("campaign.cache.replay_hit_rate".into(), "ratio");
    add("campaign.journal.flush_us".into(), "us");
    add("campaign.journal.bytes_per_run".into(), "B");
    add("campaign.pareto_ms".into(), "ms");
    add("campaign.overhead_frac".into(), "ratio");
    add("campaign.pool.speedup_2w".into(), "ratio");
    for l in LAYERS {
        add(format!("layer.{l}.self_ms"), "ms");
    }
    add("trace.overhead_frac".into(), "ratio");
    m
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an empty base).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run measured: operation counts and named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Counts one operation, failed when `errors` is non-empty (each error
    /// is reported on stderr).
    pub fn op(&mut self, what: &str, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }

    /// Sets the end-to-end metrics, in [`END_TO_END`] order.
    pub fn set_end_to_end(&mut self, values: [f64; 3]) {
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_owned(), v, u))
            .collect();
    }

    /// Sets the per-layer metrics from `values`, in [`per_layer`] order;
    /// layers the workload does not call read 0.
    ///
    /// # Panics
    ///
    /// Panics if `values` names a metric [`per_layer`] does not list.
    pub fn set_per_layer(&mut self, values: BTreeMap<String, f64>) {
        let list = per_layer();
        for name in values.keys() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "unlisted per-layer metric {name}"
            );
        }
        self.metrics = list
            .into_iter()
            .map(|(n, u)| {
                let v = values.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect();
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// FNV-1a, for fingerprinting counter blocks and journal lines.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Architectural fingerprint of one simulation: its measured cycles,
/// committed instructions and a hash of its full `Counters` block.
pub fn fingerprint(design: &str, mix: &[&str], r: &RunResult) -> String {
    format!(
        "{design} {} cycles={} committed={} counters={:016x}",
        mix.join("+"),
        r.cycles,
        r.counters.committed,
        fnv1a(format!("{:?}", r.counters).as_bytes())
    )
}

/// Header of a fingerprint file; goldens are such files recorded at the
/// default seed.
pub fn fingerprint_file(workload: &str, seed: u64, lines: &[String]) -> String {
    let mut out = format!("# perfbench fingerprints: workload {workload}, seed {seed}\n");
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Compares fingerprints with a golden file: one error per mismatching
/// line, keyed by run index.
pub fn golden_errors(golden: &str, lines: &[String]) -> BTreeMap<usize, String> {
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let mut errors = BTreeMap::new();
    for (i, got) in lines.iter().enumerate() {
        match want.get(i) {
            Some(w) if *w == got => {}
            Some(w) => {
                errors.insert(i, format!("fingerprint {got} != golden {w}"));
            }
            None => {
                errors.insert(i, format!("no golden for fingerprint {got}"));
            }
        }
    }
    if want.len() > lines.len() {
        errors
            .entry(0)
            .or_insert(format!("{} goldens but {} runs", want.len(), lines.len()));
    }
    errors
}
